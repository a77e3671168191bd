//! Mount tables, bind mounts, and shared-subtree propagation.
//!
//! Containers get their own *mount namespace* — a private view of the mount
//! tree. CNTR's nested namespace trick (paper §3.2.3) is built entirely from
//! the operations here: clone the container's mount table (`unshare`), mark
//! everything private so nothing propagates back, mount CntrFS, *move* the
//! old mounts under `/var/lib/cntr`, bind `/proc` and `/dev` over the new
//! tree, and `chroot` into it.

use crate::ns::NamespaceId;
use cntr_fs::{Filesystem, FsFeatures};
use cntr_types::{Errno, Ino, SysResult};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of one mount within a mount namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MountId(pub u64);

impl fmt::Display for MountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mnt#{}", self.0)
    }
}

/// Shared-subtree propagation type of a mount.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Propagation {
    /// `MS_PRIVATE`: mount events do not propagate (what container runtimes
    /// set, and what CNTR sets inside the nested namespace).
    Private,
    /// `MS_SHARED`: mounts/unmounts replicate to every peer in the group.
    Shared(u64),
}

/// Page-cache policy of a mount.
///
/// The kernel derives it when it mounts a filesystem, from the contract the
/// filesystem states in its [`FsFeatures`] (`writeback_cache`,
/// `keep_cache`) and from [`MountFlags::synthetic`]; a bind mount inherits
/// its source mount's policy. For an ordinary disk filesystem both caches
/// are on. For a FUSE mount they are what INIT *negotiated*: `keep_cache` is
/// `FOPEN_KEEP_CACHE`, `writeback` is `FUSE_WRITEBACK_CACHE` — two of the
/// paper's four optimizations (§3.3). `/proc` caches nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheMode {
    /// Writes are buffered dirty in the page cache and flushed in batches.
    /// Off = write-through: every write goes to the filesystem immediately.
    pub(crate) writeback: bool,
    /// Cached pages survive `open()` (`FOPEN_KEEP_CACHE`). Off = the page
    /// cache for a file is invalidated each time it is opened.
    pub(crate) keep_cache: bool,
    /// Pages carry no real bytes (see [`MountFlags::synthetic`]).
    pub(crate) synthetic: bool,
}

impl CacheMode {
    /// The policy of a mount of a filesystem with `features`, mounted with
    /// `flags`.
    pub(crate) const fn for_mount(features: FsFeatures, flags: MountFlags) -> CacheMode {
        CacheMode {
            writeback: features.writeback_cache,
            keep_cache: features.keep_cache,
            synthetic: flags.synthetic,
        }
    }

    /// Normal local-filesystem caching.
    pub const fn native() -> CacheMode {
        CacheMode {
            writeback: true,
            keep_cache: true,
            synthetic: false,
        }
    }

    /// Cache disabled in both directions (un-optimized FUSE).
    pub const fn uncached() -> CacheMode {
        CacheMode {
            writeback: false,
            keep_cache: false,
            synthetic: false,
        }
    }
}

/// Per-mount flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MountFlags {
    /// `MS_RDONLY`.
    pub readonly: bool,
    /// Pages carry no real bytes (benchmark mode): reads return zeroes, so
    /// multi-gigabyte workloads cost time but no memory. Writes take the
    /// ordinary path; a read miss fills one page, not a run (the page
    /// cache's `read` says why). Correctness tests never set this. Only `Kernel::mount_fs` reads it, into the mount's
    /// [`CacheMode`]; a bind mount takes its source's policy and ignores
    /// it. A [`Mount`]'s stored flags never carry it.
    pub synthetic: bool,
}

/// One mounted filesystem (or bind-mounted subtree).
#[derive(Clone)]
pub struct Mount {
    /// Identity within the namespace.
    pub id: MountId,
    /// The filesystem instance.
    pub fs: Arc<dyn Filesystem>,
    /// Root of the visible subtree within `fs` (≠ `fs.root_ino()` for bind
    /// mounts of subdirectories).
    pub root_ino: Ino,
    /// Where this mount hangs: `(parent mount, directory inode covered)`.
    /// `None` for the namespace root.
    pub parent: Option<(MountId, Ino)>,
    /// Propagation type.
    pub propagation: Propagation,
    /// Page-cache policy, synthetic pages included.
    pub cache: CacheMode,
    /// Mount flags; `synthetic` is always false here (it lives in `cache`).
    pub flags: MountFlags,
}

impl fmt::Debug for Mount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mount")
            .field("id", &self.id)
            .field("fs", &self.fs.fs_type())
            .field("root_ino", &self.root_ino)
            .field("parent", &self.parent)
            .field("propagation", &self.propagation)
            .finish_non_exhaustive()
    }
}

/// The mount table of one mount namespace.
#[derive(Debug, Clone)]
pub struct MountNs {
    /// Namespace identity.
    pub id: NamespaceId,
    mounts: BTreeMap<MountId, Mount>,
    root: MountId,
}

impl MountNs {
    /// Creates a namespace with `fs` as its root mount.
    pub fn new(id: NamespaceId, root_mount_id: MountId, fs: Arc<dyn Filesystem>) -> MountNs {
        let root_ino = fs.root_ino();
        let cache = CacheMode::for_mount(fs.features(), MountFlags::default());
        let mut mounts = BTreeMap::new();
        mounts.insert(
            root_mount_id,
            Mount {
                id: root_mount_id,
                fs,
                root_ino,
                parent: None,
                propagation: Propagation::Private,
                cache,
                flags: MountFlags::default(),
            },
        );
        MountNs {
            id,
            mounts,
            root: root_mount_id,
        }
    }

    /// The root mount.
    pub fn root_mount(&self) -> MountId {
        self.root
    }

    /// Looks up a mount.
    pub fn get(&self, id: MountId) -> SysResult<&Mount> {
        self.mounts.get(&id).ok_or(Errno::ENOENT)
    }

    /// Iterates all mounts.
    pub fn iter(&self) -> impl Iterator<Item = &Mount> {
        self.mounts.values()
    }

    /// Number of mounts.
    pub fn len(&self) -> usize {
        self.mounts.len()
    }

    /// True if the table is empty (never, in practice: the root remains).
    pub fn is_empty(&self) -> bool {
        self.mounts.is_empty()
    }

    /// The topmost mount whose mountpoint is `(parent, ino)`, if any.
    /// "Topmost" = most recently mounted, as in Linux mount stacking.
    pub fn mount_at(&self, parent: MountId, ino: Ino) -> Option<&Mount> {
        self.mounts
            .values()
            .filter(|m| m.parent == Some((parent, ino)))
            .max_by_key(|m| m.id)
    }

    /// Adds a mount at `(parent, ino)` and returns its id.
    #[expect(clippy::too_many_arguments, reason = "mirrors mount(2) surface")]
    pub fn add_mount(
        &mut self,
        id: MountId,
        fs: Arc<dyn Filesystem>,
        root_ino: Ino,
        parent: MountId,
        at_ino: Ino,
        cache: CacheMode,
        flags: MountFlags,
    ) -> SysResult<MountId> {
        if !self.mounts.contains_key(&parent) {
            return Err(Errno::EINVAL);
        }
        self.mounts.insert(
            id,
            Mount {
                id,
                fs,
                root_ino,
                parent: Some((parent, at_ino)),
                propagation: Propagation::Private,
                cache,
                flags: MountFlags {
                    synthetic: false,
                    ..flags
                },
            },
        );
        Ok(id)
    }

    /// Removes a mount; fails with `EBUSY` if other mounts hang below it.
    pub fn umount(&mut self, id: MountId) -> SysResult<Mount> {
        if !self.mounts.contains_key(&id) {
            return Err(Errno::EINVAL);
        }
        if id == self.root {
            return Err(Errno::EBUSY);
        }
        let has_children = self
            .mounts
            .values()
            .any(|m| m.parent.is_some_and(|(p, _)| p == id));
        if has_children {
            return Err(Errno::EBUSY);
        }
        Ok(self.mounts.remove(&id).expect("checked above"))
    }

    /// Moves a mount to a new mountpoint (`mount --move`), as CNTR does when
    /// relocating the application's mounts under `/var/lib/cntr`.
    pub fn move_mount(&mut self, id: MountId, new_parent: MountId, new_ino: Ino) -> SysResult<()> {
        if id == self.root || !self.mounts.contains_key(&new_parent) {
            return Err(Errno::EINVAL);
        }
        // Moving a mount under itself would detach it from the tree.
        let mut cursor = Some(new_parent);
        while let Some(c) = cursor {
            if c == id {
                return Err(Errno::EINVAL);
            }
            cursor = self.mounts.get(&c).and_then(|m| m.parent.map(|(p, _)| p));
        }
        let m = self.mounts.get_mut(&id).ok_or(Errno::EINVAL)?;
        m.parent = Some((new_parent, new_ino));
        Ok(())
    }

    /// Marks every mount private (`mount --make-rprivate /`): the first thing
    /// CNTR does inside the nested namespace.
    pub fn make_all_private(&mut self) {
        for m in self.mounts.values_mut() {
            m.propagation = Propagation::Private;
        }
    }

    /// Sets one mount's propagation.
    pub fn set_propagation(&mut self, id: MountId, prop: Propagation) -> SysResult<()> {
        self.mounts
            .get_mut(&id)
            .map(|m| m.propagation = prop)
            .ok_or(Errno::EINVAL)
    }

    /// Clones the table for a new namespace (`unshare(CLONE_NEWNS)`).
    /// Mount ids and propagation are preserved — shared mounts stay peers
    /// until someone marks them private.
    pub fn clone_for(&self, new_id: NamespaceId) -> MountNs {
        MountNs {
            id: new_id,
            mounts: self.mounts.clone(),
            root: self.root,
        }
    }

    /// Replaces the root mount designation (used by `pivot`-style root
    /// changes in tests; `chroot` itself is per-process and lives in the
    /// process, not here).
    pub fn set_root(&mut self, id: MountId) -> SysResult<()> {
        if !self.mounts.contains_key(&id) {
            return Err(Errno::EINVAL);
        }
        self.root = id;
        Ok(())
    }

    /// All mounts that are members of shared peer group `group`.
    pub fn peers_of(&self, group: u64) -> Vec<MountId> {
        self.mounts
            .values()
            .filter(|m| m.propagation == Propagation::Shared(group))
            .map(|m| m.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntr_fs::memfs::memfs;
    use cntr_types::{DevId, SimClock};

    fn ns() -> MountNs {
        let fs = memfs(DevId(1), SimClock::new());
        MountNs::new(NamespaceId(1), MountId(1), fs)
    }

    #[test]
    fn root_mount_exists() {
        let ns = ns();
        assert_eq!(ns.len(), 1);
        let root = ns.get(ns.root_mount()).unwrap();
        assert!(root.parent.is_none());
    }

    #[test]
    fn mount_and_umount() {
        let mut ns = ns();
        let sub = memfs(DevId(2), SimClock::new());
        ns.add_mount(
            MountId(2),
            sub,
            Ino::ROOT,
            MountId(1),
            Ino(42),
            CacheMode::native(),
            MountFlags::default(),
        )
        .unwrap();
        assert!(ns.mount_at(MountId(1), Ino(42)).is_some());
        ns.umount(MountId(2)).unwrap();
        assert!(ns.mount_at(MountId(1), Ino(42)).is_none());
    }

    #[test]
    fn umount_busy_with_children() {
        let mut ns = ns();
        let a = memfs(DevId(2), SimClock::new());
        let b = memfs(DevId(3), SimClock::new());
        ns.add_mount(
            MountId(2),
            a,
            Ino::ROOT,
            MountId(1),
            Ino(10),
            CacheMode::native(),
            MountFlags::default(),
        )
        .unwrap();
        ns.add_mount(
            MountId(3),
            b,
            Ino::ROOT,
            MountId(2),
            Ino(20),
            CacheMode::native(),
            MountFlags::default(),
        )
        .unwrap();
        assert_eq!(ns.umount(MountId(2)).map(|_| ()), Err(Errno::EBUSY));
        ns.umount(MountId(3)).unwrap();
        ns.umount(MountId(2)).unwrap();
    }

    #[test]
    fn umount_root_is_ebusy() {
        let mut ns = ns();
        assert_eq!(ns.umount(MountId(1)).map(|_| ()), Err(Errno::EBUSY));
    }

    #[test]
    fn stacked_mounts_topmost_wins() {
        let mut ns = ns();
        for i in 2..=4u64 {
            let fs = memfs(DevId(i), SimClock::new());
            ns.add_mount(
                MountId(i),
                fs,
                Ino::ROOT,
                MountId(1),
                Ino(5),
                CacheMode::native(),
                MountFlags::default(),
            )
            .unwrap();
        }
        assert_eq!(ns.mount_at(MountId(1), Ino(5)).unwrap().id, MountId(4));
    }

    #[test]
    fn move_mount_relocates() {
        let mut ns = ns();
        let fs = memfs(DevId(2), SimClock::new());
        ns.add_mount(
            MountId(2),
            fs,
            Ino::ROOT,
            MountId(1),
            Ino(10),
            CacheMode::native(),
            MountFlags::default(),
        )
        .unwrap();
        ns.move_mount(MountId(2), MountId(1), Ino(99)).unwrap();
        assert!(ns.mount_at(MountId(1), Ino(10)).is_none());
        assert_eq!(ns.mount_at(MountId(1), Ino(99)).unwrap().id, MountId(2));
    }

    #[test]
    fn move_mount_under_itself_is_einval() {
        let mut ns = ns();
        let fs = memfs(DevId(2), SimClock::new());
        ns.add_mount(
            MountId(2),
            fs,
            Ino::ROOT,
            MountId(1),
            Ino(10),
            CacheMode::native(),
            MountFlags::default(),
        )
        .unwrap();
        assert_eq!(
            ns.move_mount(MountId(2), MountId(2), Ino(1)),
            Err(Errno::EINVAL)
        );
    }

    #[test]
    fn clone_preserves_mounts_and_propagation() {
        let mut ns = ns();
        let fs = memfs(DevId(2), SimClock::new());
        ns.add_mount(
            MountId(2),
            fs,
            Ino::ROOT,
            MountId(1),
            Ino(10),
            CacheMode::native(),
            MountFlags::default(),
        )
        .unwrap();
        ns.set_propagation(MountId(2), Propagation::Shared(7))
            .unwrap();
        let clone = ns.clone_for(NamespaceId(9));
        assert_eq!(clone.len(), 2);
        assert_eq!(clone.id, NamespaceId(9));
        assert_eq!(clone.peers_of(7), vec![MountId(2)]);
        // Making the clone private does not touch the original.
        let mut clone = clone;
        clone.make_all_private();
        assert!(clone.peers_of(7).is_empty());
        assert_eq!(ns.peers_of(7), vec![MountId(2)]);
    }
}
