//! `NodeFs` — one implementation of POSIX filesystem semantics, shared by
//! every concrete filesystem in the workspace.
//!
//! The design follows the kernel split the paper's evaluation leans on:
//! *semantics* (names, links, permissions, timestamps — what xfstests
//! checks) are independent of *storage* (where file bytes live — what the
//! performance model charges for). `NodeFs<S>` owns the former and delegates
//! the latter to a [`FileStore`].

use crate::store::FileStore;
use crate::traits::{
    FallocateMode, Fh, Filesystem, FsContext, FsFeatures, XattrFlags, MAX_NAME_LEN,
};
use bytes::Bytes;
use cntr_blockdev::BLOCK_SIZE;
use cntr_types::{
    DevId, Dirent, Errno, FileType, Gid, IdMap, Ino, Mode, OpenFlags, RenameFlags, SetAttr,
    SimClock, Stat, Statfs, SysResult, Timespec, Uid,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Maximum hard links per inode (ext4's limit).
pub const MAX_LINKS: u32 = 65_000;

/// Maximum size of one xattr value (Linux: 64 KiB on ext4).
pub const MAX_XATTR_SIZE: usize = 64 * 1024;

/// Inode metadata.
#[derive(Debug, Clone)]
struct Meta {
    ftype: FileType,
    mode: Mode,
    uid: Uid,
    gid: Gid,
    nlink: u32,
    rdev: u64,
    size: u64,
    atime: Timespec,
    mtime: Timespec,
    ctime: Timespec,
}

/// Inode content.
enum NodeKind<C> {
    File(C),
    Dir(BTreeMap<String, Ino>),
    Symlink(String),
    /// Fifo, socket, char/block device: no content of their own.
    Other,
}

struct Node<C> {
    meta: Meta,
    kind: NodeKind<C>,
    xattrs: BTreeMap<String, Vec<u8>>,
    open_count: u32,
    /// nlink reached zero while open; free on final release.
    unlinked: bool,
}

impl<C> Node<C> {
    fn dir(&self) -> SysResult<&BTreeMap<String, Ino>> {
        match &self.kind {
            NodeKind::Dir(d) => Ok(d),
            _ => Err(Errno::ENOTDIR),
        }
    }

    fn dir_mut(&mut self) -> SysResult<&mut BTreeMap<String, Ino>> {
        match &mut self.kind {
            NodeKind::Dir(d) => Ok(d),
            _ => Err(Errno::ENOTDIR),
        }
    }
}

struct HandleInfo {
    ino: Ino,
    flags: OpenFlags,
}

struct FsState<C> {
    inodes: IdMap<Ino, Node<C>>,
    handles: IdMap<Fh, HandleInfo>,
    next_ino: u64,
    next_fh: u64,
    used_bytes: u64,
}

/// A POSIX filesystem over a pluggable [`FileStore`].
///
/// Thread-safe: a single internal mutex guards all metadata (the real
/// kernel's per-inode locking is not reproduced; contention effects are
/// modelled in the cost layer instead).
pub struct NodeFs<S: FileStore> {
    dev_id: DevId,
    fs_type: &'static str,
    capacity: u64,
    clock: SimClock,
    store: S,
    state: Mutex<FsState<S::Content>>,
}

impl<S: FileStore> NodeFs<S> {
    /// Creates a filesystem with an empty root directory (mode 0755, root-owned).
    pub fn new(
        dev_id: DevId,
        fs_type: &'static str,
        capacity: u64,
        clock: SimClock,
        store: S,
    ) -> NodeFs<S> {
        let now = clock.now();
        let mut inodes = IdMap::default();
        inodes.insert(
            Ino::ROOT,
            Node {
                meta: Meta {
                    ftype: FileType::Directory,
                    mode: Mode::RWXR_XR_X,
                    uid: Uid::ROOT,
                    gid: Gid::ROOT,
                    nlink: 2,
                    rdev: 0,
                    size: 0,
                    atime: now,
                    mtime: now,
                    ctime: now,
                },
                kind: NodeKind::Dir(BTreeMap::new()),
                xattrs: BTreeMap::new(),
                open_count: 0,
                unlinked: false,
            },
        );
        NodeFs {
            dev_id,
            fs_type,
            capacity,
            clock,
            store,
            state: Mutex::new_class(
                "fs.node_state",
                FsState {
                    inodes,
                    handles: IdMap::default(),
                    next_ino: 2,
                    next_fh: 1,
                    used_bytes: 0,
                },
            ),
        }
    }

    /// The store (for device statistics etc.).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Number of live inodes (diagnostics / tests).
    pub fn inode_count(&self) -> usize {
        self.state.lock().inodes.len()
    }

    /// Bytes currently allocated by file contents.
    pub fn used_bytes(&self) -> u64 {
        self.state.lock().used_bytes
    }

    /// Runs `f` on regular file `ino`'s content and size under the state
    /// lock: the source side of a reference copy.
    pub fn with_content<R>(
        &self,
        ino: Ino,
        f: impl FnOnce(&S, &S::Content, u64) -> R,
    ) -> SysResult<R> {
        let st = self.state.lock();
        let node = st.inodes.get(&ino).ok_or(Errno::ENOENT)?;
        match &node.kind {
            NodeKind::File(content) => Ok(f(&self.store, content, node.meta.size)),
            NodeKind::Dir(_) => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Makes `content` regular file `ino`'s whole content at `size` bytes:
    /// the destination side of a reference copy (Linux's `FICLONE`).
    /// Capacity, size, timestamps and the setuid/setgid strip are charged
    /// as a write charges them. Whichever content the file does not keep —
    /// the old one, or `content` on an error such as `ENOSPC` — is
    /// deallocated.
    pub fn replace_content(&self, ino: Ino, mut content: S::Content, size: u64) -> SysResult<()> {
        let now = self.clock.now();
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let node = st.inodes.get_mut(&ino);
        let result = match node.map(|n| (&mut n.kind, &mut n.meta)) {
            Some((NodeKind::File(old), meta)) => {
                let before = self.store.allocated_bytes(old);
                let after = self.store.allocated_bytes(&content);
                let used = st.used_bytes.saturating_sub(before).saturating_add(after);
                if used > self.capacity {
                    Err(Errno::ENOSPC)
                } else {
                    std::mem::swap(old, &mut content);
                    st.used_bytes = used;
                    meta.size = size;
                    meta.mtime = now;
                    meta.ctime = now;
                    meta.mode = meta.mode.clear_suid_sgid();
                    Ok(())
                }
            }
            Some((NodeKind::Dir(_), _)) => Err(Errno::EISDIR),
            Some(_) => Err(Errno::EINVAL),
            None => Err(Errno::ENOENT),
        };
        self.store.dealloc(&mut content);
        result
    }

    fn stat_of(&self, ino: Ino, meta: &Meta) -> Stat {
        Stat {
            dev: self.dev_id,
            ino,
            ftype: meta.ftype,
            mode: meta.mode,
            nlink: meta.nlink,
            uid: meta.uid,
            gid: meta.gid,
            rdev: meta.rdev,
            size: meta.size,
            blocks: meta.size.div_ceil(512),
            blksize: BLOCK_SIZE as u32,
            atime: meta.atime,
            mtime: meta.mtime,
            ctime: meta.ctime,
        }
    }

    fn validate_name(name: &str) -> SysResult<()> {
        if name.is_empty() || name == "." || name == ".." {
            return Err(Errno::EINVAL);
        }
        if name.contains('/') || name.contains('\0') {
            return Err(Errno::EINVAL);
        }
        if name.len() > MAX_NAME_LEN {
            return Err(Errno::ENAMETOOLONG);
        }
        Ok(())
    }

    /// Creates a node under `parent`, honouring setgid-directory inheritance.
    #[expect(clippy::too_many_arguments, reason = "mirrors the mknod surface")]
    fn create_node(
        &self,
        parent: Ino,
        name: &str,
        ftype: FileType,
        mode: Mode,
        rdev: u64,
        symlink_target: Option<&str>,
        ctx: &FsContext,
    ) -> SysResult<Stat> {
        Self::validate_name(name)?;
        let now = self.clock.now();
        let mut st = self.state.lock();
        let parent_node = st.inodes.get(&parent).ok_or(Errno::ENOENT)?;
        let pdir = parent_node.dir()?;
        if pdir.contains_key(name) {
            return Err(Errno::EEXIST);
        }
        let (pgid, parent_setgid) = (parent_node.meta.gid, parent_node.meta.mode.is_setgid());

        // setgid directory: children inherit the directory's group;
        // subdirectories also inherit the setgid bit.
        let gid = if parent_setgid { pgid } else { ctx.gid };
        let mode = if parent_setgid && ftype == FileType::Directory {
            Mode::new(mode.bits() | Mode::SETGID)
        } else {
            mode
        };

        let ino = Ino(st.next_ino);
        st.next_ino += 1;
        let kind = match ftype {
            FileType::Regular => NodeKind::File(S::Content::default()),
            FileType::Directory => NodeKind::Dir(BTreeMap::new()),
            FileType::Symlink => NodeKind::Symlink(symlink_target.unwrap_or_default().to_string()),
            _ => NodeKind::Other,
        };
        let nlink = if ftype == FileType::Directory { 2 } else { 1 };
        let size = symlink_target.map_or(0, |t| t.len() as u64);
        let node = Node {
            meta: Meta {
                ftype,
                mode,
                uid: ctx.uid,
                gid,
                nlink,
                rdev,
                size,
                atime: now,
                mtime: now,
                ctime: now,
            },
            kind,
            xattrs: BTreeMap::new(),
            open_count: 0,
            unlinked: false,
        };
        st.inodes.insert(ino, node);
        let parent_node = st.inodes.get_mut(&parent).expect("checked above");
        parent_node.dir_mut()?.insert(name.to_string(), ino);
        parent_node.meta.mtime = now;
        parent_node.meta.ctime = now;
        if ftype == FileType::Directory {
            parent_node.meta.nlink += 1;
        }
        let meta = st.inodes[&ino].meta.clone();
        Ok(self.stat_of(ino, &meta))
    }

    /// Frees an inode whose last link and last open handle are gone.
    fn reap(&self, st: &mut FsState<S::Content>, ino: Ino) {
        if let Some(mut node) = st.inodes.remove(&ino) {
            if let NodeKind::File(content) = &mut node.kind {
                let freed = self.store.allocated_bytes(content);
                self.store.dealloc(content);
                st.used_bytes = st.used_bytes.saturating_sub(freed);
            }
        }
    }

    /// Drops one link on `ino`; frees it if fully unreferenced.
    fn drop_link(&self, st: &mut FsState<S::Content>, ino: Ino, is_dir: bool) {
        let now = self.clock.now();
        let Some(node) = st.inodes.get_mut(&ino) else {
            return;
        };
        if is_dir {
            node.meta.nlink = 0;
        } else {
            node.meta.nlink = node.meta.nlink.saturating_sub(1);
        }
        node.meta.ctime = now;
        if node.meta.nlink == 0 {
            if node.open_count > 0 {
                node.unlinked = true;
            } else {
                self.reap(st, ino);
            }
        }
    }

    /// True if `ancestor` is on the path from `node` up to the root.
    fn is_ancestor(st: &FsState<S::Content>, ancestor: Ino, mut node: Ino) -> bool {
        // Walk up via linear search of parents (directories have exactly one
        // parent; the map is small enough that a reverse scan is fine).
        let mut hops = 0;
        while node != Ino::ROOT && hops < 4096 {
            if node == ancestor {
                return true;
            }
            let mut parent = None;
            for (&pino, pnode) in &st.inodes {
                if let NodeKind::Dir(entries) = &pnode.kind {
                    if entries.values().any(|&c| c == node) {
                        parent = Some(pino);
                        break;
                    }
                }
            }
            match parent {
                Some(p) => node = p,
                None => return false,
            }
            hops += 1;
        }
        node == ancestor
    }

    fn truncate_file(
        &self,
        st: &mut FsState<S::Content>,
        ino: Ino,
        new_size: u64,
    ) -> SysResult<()> {
        let node = st.inodes.get_mut(&ino).ok_or(Errno::ENOENT)?;
        match &mut node.kind {
            NodeKind::File(content) => {
                let before = self.store.allocated_bytes(content);
                if new_size < node.meta.size {
                    self.store.truncate(content, new_size);
                }
                let after = self.store.allocated_bytes(content);
                node.meta.size = new_size;
                let now = self.clock.now();
                node.meta.mtime = now;
                node.meta.ctime = now;
                st.used_bytes = st.used_bytes.saturating_sub(before).saturating_add(after);
                Ok(())
            }
            NodeKind::Dir(_) => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }
}

impl<S: FileStore> Filesystem for NodeFs<S> {
    fn fs_id(&self) -> DevId {
        self.dev_id
    }

    fn fs_type(&self) -> &'static str {
        self.fs_type
    }

    fn features(&self) -> FsFeatures {
        FsFeatures::local()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn lookup(&self, parent: Ino, name: &str) -> SysResult<Stat> {
        let st = self.state.lock();
        let pnode = st.inodes.get(&parent).ok_or(Errno::ENOENT)?;
        if name == "." {
            let meta = pnode.meta.clone();
            pnode.dir()?;
            return Ok(self.stat_of(parent, &meta));
        }
        let dir = pnode.dir()?;
        if name.len() > MAX_NAME_LEN {
            return Err(Errno::ENAMETOOLONG);
        }
        let &ino = dir.get(name).ok_or(Errno::ENOENT)?;
        let meta = st.inodes[&ino].meta.clone();
        Ok(self.stat_of(ino, &meta))
    }

    fn getattr(&self, ino: Ino) -> SysResult<Stat> {
        let st = self.state.lock();
        let node = st.inodes.get(&ino).ok_or(Errno::ENOENT)?;
        Ok(self.stat_of(ino, &node.meta))
    }

    fn setattr(&self, ino: Ino, attr: &SetAttr, ctx: &FsContext) -> SysResult<Stat> {
        if let Some(size) = attr.size {
            let mut st = self.state.lock();
            self.truncate_file(&mut st, ino, size)?;
        }
        let now = self.clock.now();
        let mut st = self.state.lock();
        let node = st.inodes.get_mut(&ino).ok_or(Errno::ENOENT)?;
        if let Some(mode) = attr.mode {
            let mut mode = mode;
            // The setgid-clearing rule at the heart of xfstests #375: chmod
            // by a caller that is not in the file's owning group (and lacks
            // CAP_FSETID) must not leave the setgid bit set. CntrFS replays
            // chmod here under the *server's* root identity, which holds
            // CAP_FSETID, and therefore misses it.
            if mode.is_setgid() && !ctx.cap_fsetid && !ctx.in_group(node.meta.gid) {
                mode = mode.clear_setgid();
            }
            node.meta.mode = mode;
            node.meta.ctime = now;
        }
        if attr.uid.is_some() || attr.gid.is_some() {
            if let Some(uid) = attr.uid {
                node.meta.uid = uid;
            }
            if let Some(gid) = attr.gid {
                node.meta.gid = gid;
            }
            // chown strips setuid/setgid for unprivileged callers.
            if !ctx.cap_fsetid && node.meta.ftype == FileType::Regular {
                node.meta.mode = node.meta.mode.clear_suid_sgid();
            }
            node.meta.ctime = now;
        }
        if let Some(atime) = attr.atime {
            node.meta.atime = atime;
            node.meta.ctime = now;
        }
        if let Some(mtime) = attr.mtime {
            node.meta.mtime = mtime;
            node.meta.ctime = now;
        }
        if attr.size.is_some() {
            node.meta.ctime = now;
        }
        let meta = node.meta.clone();
        Ok(self.stat_of(ino, &meta))
    }

    fn mknod(
        &self,
        parent: Ino,
        name: &str,
        ftype: FileType,
        mode: Mode,
        rdev: u64,
        ctx: &FsContext,
    ) -> SysResult<Stat> {
        if ftype == FileType::Directory {
            return Err(Errno::EINVAL);
        }
        self.create_node(parent, name, ftype, mode, rdev, None, ctx)
    }

    fn mkdir(&self, parent: Ino, name: &str, mode: Mode, ctx: &FsContext) -> SysResult<Stat> {
        self.create_node(parent, name, FileType::Directory, mode, 0, None, ctx)
    }

    fn unlink(&self, parent: Ino, name: &str) -> SysResult<()> {
        let mut st = self.state.lock();
        let pnode = st.inodes.get(&parent).ok_or(Errno::ENOENT)?;
        let dir = pnode.dir()?;
        let &ino = dir.get(name).ok_or(Errno::ENOENT)?;
        if st.inodes[&ino].meta.ftype == FileType::Directory {
            return Err(Errno::EISDIR);
        }
        let now = self.clock.now();
        let pnode = st.inodes.get_mut(&parent).expect("checked");
        pnode.dir_mut()?.remove(name);
        pnode.meta.mtime = now;
        pnode.meta.ctime = now;
        self.drop_link(&mut st, ino, false);
        Ok(())
    }

    fn rmdir(&self, parent: Ino, name: &str) -> SysResult<()> {
        let mut st = self.state.lock();
        let pnode = st.inodes.get(&parent).ok_or(Errno::ENOENT)?;
        let dir = pnode.dir()?;
        let &ino = dir.get(name).ok_or(Errno::ENOENT)?;
        let victim = &st.inodes[&ino];
        match victim.dir() {
            Ok(entries) if !entries.is_empty() => return Err(Errno::ENOTEMPTY),
            Ok(_) => {}
            Err(e) => return Err(e),
        }
        let now = self.clock.now();
        let pnode = st.inodes.get_mut(&parent).expect("checked");
        pnode.dir_mut()?.remove(name);
        pnode.meta.nlink -= 1;
        pnode.meta.mtime = now;
        pnode.meta.ctime = now;
        self.drop_link(&mut st, ino, true);
        Ok(())
    }

    fn symlink(&self, parent: Ino, name: &str, target: &str, ctx: &FsContext) -> SysResult<Stat> {
        self.create_node(
            parent,
            name,
            FileType::Symlink,
            Mode::RWXRWXRWX,
            0,
            Some(target),
            ctx,
        )
    }

    fn readlink(&self, ino: Ino) -> SysResult<String> {
        let st = self.state.lock();
        let node = st.inodes.get(&ino).ok_or(Errno::ENOENT)?;
        match &node.kind {
            NodeKind::Symlink(t) => Ok(t.clone()),
            _ => Err(Errno::EINVAL),
        }
    }

    fn link(&self, ino: Ino, newparent: Ino, newname: &str) -> SysResult<Stat> {
        Self::validate_name(newname)?;
        let now = self.clock.now();
        let mut st = self.state.lock();
        let node = st.inodes.get(&ino).ok_or(Errno::ENOENT)?;
        if node.meta.ftype == FileType::Directory {
            return Err(Errno::EPERM);
        }
        if node.meta.nlink >= MAX_LINKS {
            return Err(Errno::EMLINK);
        }
        {
            let pnode = st.inodes.get(&newparent).ok_or(Errno::ENOENT)?;
            if pnode.dir()?.contains_key(newname) {
                return Err(Errno::EEXIST);
            }
        }
        let pnode = st.inodes.get_mut(&newparent).expect("checked");
        pnode.dir_mut()?.insert(newname.to_string(), ino);
        pnode.meta.mtime = now;
        pnode.meta.ctime = now;
        let node = st.inodes.get_mut(&ino).expect("checked");
        node.meta.nlink += 1;
        node.meta.ctime = now;
        let meta = node.meta.clone();
        Ok(self.stat_of(ino, &meta))
    }

    fn rename(
        &self,
        parent: Ino,
        name: &str,
        newparent: Ino,
        newname: &str,
        flags: RenameFlags,
    ) -> SysResult<()> {
        Self::validate_name(name)?;
        Self::validate_name(newname)?;
        let now = self.clock.now();
        let mut st = self.state.lock();

        let src_ino = *st
            .inodes
            .get(&parent)
            .ok_or(Errno::ENOENT)?
            .dir()?
            .get(name)
            .ok_or(Errno::ENOENT)?;
        let dst_existing = st
            .inodes
            .get(&newparent)
            .ok_or(Errno::ENOENT)?
            .dir()?
            .get(newname)
            .copied();

        if parent == newparent && name == newname {
            return Ok(());
        }
        if flags.noreplace && dst_existing.is_some() {
            return Err(Errno::EEXIST);
        }
        let src_is_dir = st.inodes[&src_ino].meta.ftype == FileType::Directory;

        if flags.exchange {
            let dst_ino = dst_existing.ok_or(Errno::ENOENT)?;
            // Swapping directories into each other's subtrees is impossible
            // by construction of a swap, but a dir must not become its own
            // ancestor via the other path.
            if src_is_dir && Self::is_ancestor(&st, src_ino, newparent) {
                return Err(Errno::EINVAL);
            }
            let dst_is_dir = st.inodes[&dst_ino].meta.ftype == FileType::Directory;
            if dst_is_dir && Self::is_ancestor(&st, dst_ino, parent) {
                return Err(Errno::EINVAL);
            }
            st.inodes
                .get_mut(&parent)
                .expect("checked")
                .dir_mut()?
                .insert(name.to_string(), dst_ino);
            st.inodes
                .get_mut(&newparent)
                .expect("checked")
                .dir_mut()?
                .insert(newname.to_string(), src_ino);
            if parent != newparent && src_is_dir != dst_is_dir {
                // Directory count moved between the two parents.
                let (inc, dec) = if src_is_dir {
                    (parent, newparent)
                } else {
                    (newparent, parent)
                };
                st.inodes.get_mut(&dec).expect("checked").meta.nlink -= 1;
                st.inodes.get_mut(&inc).expect("checked").meta.nlink += 1;
            }
            for p in [parent, newparent] {
                let n = st.inodes.get_mut(&p).expect("checked");
                n.meta.mtime = now;
                n.meta.ctime = now;
            }
            return Ok(());
        }

        // Moving a directory under its own descendant creates a cycle.
        if src_is_dir && (src_ino == newparent || Self::is_ancestor(&st, src_ino, newparent)) {
            return Err(Errno::EINVAL);
        }

        if let Some(dst_ino) = dst_existing {
            if dst_ino == src_ino {
                // Hard links to the same inode: rename is a no-op that
                // removes the source name (POSIX).
                st.inodes
                    .get_mut(&parent)
                    .expect("checked")
                    .dir_mut()?
                    .remove(name);
                self.drop_link(&mut st, src_ino, false);
                return Ok(());
            }
            let dst_is_dir = st.inodes[&dst_ino].meta.ftype == FileType::Directory;
            match (src_is_dir, dst_is_dir) {
                (false, true) => return Err(Errno::EISDIR),
                (true, false) => return Err(Errno::ENOTDIR),
                (true, true) => {
                    if !st.inodes[&dst_ino].dir()?.is_empty() {
                        return Err(Errno::ENOTEMPTY);
                    }
                }
                (false, false) => {}
            }
            // Replace: remove the target's link.
            st.inodes
                .get_mut(&newparent)
                .expect("checked")
                .dir_mut()?
                .remove(newname);
            if dst_is_dir {
                st.inodes.get_mut(&newparent).expect("checked").meta.nlink -= 1;
            }
            self.drop_link(&mut st, dst_ino, dst_is_dir);
        }

        st.inodes
            .get_mut(&parent)
            .expect("checked")
            .dir_mut()?
            .remove(name);
        st.inodes
            .get_mut(&newparent)
            .expect("checked")
            .dir_mut()?
            .insert(newname.to_string(), src_ino);
        if src_is_dir && parent != newparent {
            st.inodes.get_mut(&parent).expect("checked").meta.nlink -= 1;
            st.inodes.get_mut(&newparent).expect("checked").meta.nlink += 1;
        }
        for p in [parent, newparent] {
            let n = st.inodes.get_mut(&p).expect("checked");
            n.meta.mtime = now;
            n.meta.ctime = now;
        }
        let n = st.inodes.get_mut(&src_ino).expect("checked");
        n.meta.ctime = now;
        Ok(())
    }

    fn open(&self, ino: Ino, flags: OpenFlags) -> SysResult<Fh> {
        let mut st = self.state.lock();
        let node = st.inodes.get(&ino).ok_or(Errno::ENOENT)?;
        if flags.contains(OpenFlags::DIRECTORY) && node.meta.ftype != FileType::Directory {
            return Err(Errno::ENOTDIR);
        }
        if node.meta.ftype == FileType::Directory && flags.mode.writable() {
            return Err(Errno::EISDIR);
        }
        if flags.contains(OpenFlags::TRUNC)
            && flags.mode.writable()
            && node.meta.ftype == FileType::Regular
        {
            self.truncate_file(&mut st, ino, 0)?;
        }
        let node = st.inodes.get_mut(&ino).ok_or(Errno::ENOENT)?;
        node.open_count += 1;
        let fh = Fh(st.next_fh);
        st.next_fh += 1;
        st.handles.insert(fh, HandleInfo { ino, flags });
        Ok(fh)
    }

    fn release(&self, ino: Ino, fh: Fh) -> SysResult<()> {
        let mut st = self.state.lock();
        let info = st.handles.remove(&fh).ok_or(Errno::EBADF)?;
        if info.ino != ino {
            return Err(Errno::EBADF);
        }
        if let Some(node) = st.inodes.get_mut(&ino) {
            node.open_count = node.open_count.saturating_sub(1);
            if node.open_count == 0 && node.unlinked {
                self.reap(&mut st, ino);
            }
        }
        Ok(())
    }

    fn read_bytes(&self, ino: Ino, fh: Fh, offset: u64, len: usize) -> SysResult<Bytes> {
        let mut st = self.state.lock();
        {
            let info = st.handles.get(&fh).ok_or(Errno::EBADF)?;
            if info.ino != ino || !info.flags.mode.readable() {
                return Err(Errno::EBADF);
            }
        }
        let now = self.clock.now();
        let node = st.inodes.get_mut(&ino).ok_or(Errno::ENOENT)?;
        let size = node.meta.size;
        if offset >= size || len == 0 {
            return Ok(Bytes::new());
        }
        let n = (len as u64).min(size - offset) as usize;
        match &node.kind {
            NodeKind::File(content) => {
                // Zero-copy when the store can hand out a slice of what it
                // already holds; otherwise a single gather into a fresh
                // buffer.
                let data = match self.store.read_bytes(content, offset, n) {
                    Some(b) => {
                        debug_assert!(!b.is_empty() && b.len() <= n);
                        b
                    }
                    None => {
                        let mut buf = vec![0u8; n];
                        self.store.read(content, offset, &mut buf);
                        Bytes::from(buf)
                    }
                };
                node.meta.atime = now;
                Ok(data)
            }
            NodeKind::Dir(_) => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    fn write_bytes(&self, ino: Ino, fh: Fh, offset: u64, data: &[Bytes]) -> SysResult<usize> {
        let len: u64 = data.iter().map(|b| b.len() as u64).sum();
        let mut st = self.state.lock();
        let offset = {
            let info = st.handles.get(&fh).ok_or(Errno::EBADF)?;
            if info.ino != ino {
                return Err(Errno::EBADF);
            }
            if !info.flags.mode.writable() {
                return Err(Errno::EBADF);
            }
            if info.flags.contains(OpenFlags::APPEND) {
                st.inodes.get(&ino).ok_or(Errno::ENOENT)?.meta.size
            } else {
                offset
            }
        };
        let now = self.clock.now();
        let used = st.used_bytes;
        let node = st.inodes.get_mut(&ino).ok_or(Errno::ENOENT)?;
        match &mut node.kind {
            NodeKind::File(content) => {
                let before = self.store.allocated_bytes(content);
                // Conservative ENOSPC pre-check: a write can allocate at most
                // len + one page of slack.
                let upper = len + BLOCK_SIZE as u64;
                if used + upper > self.capacity {
                    let exact_after = {
                        // Compute precisely only when near the limit.
                        let end = offset + len;
                        let pages = end.div_ceil(BLOCK_SIZE as u64) - offset / BLOCK_SIZE as u64;
                        before + pages * BLOCK_SIZE as u64
                    };
                    if used.saturating_sub(before) + exact_after > self.capacity {
                        return Err(Errno::ENOSPC);
                    }
                }
                self.store.write_bytes(content, offset, data);
                let after = self.store.allocated_bytes(content);
                st.used_bytes = used.saturating_sub(before).saturating_add(after);
                let node = st.inodes.get_mut(&ino).expect("checked");
                node.meta.size = node.meta.size.max(offset + len);
                node.meta.mtime = now;
                node.meta.ctime = now;
                // Writes strip setuid/setgid (unprivileged-writer model).
                node.meta.mode = node.meta.mode.clear_suid_sgid();
                Ok(len as usize)
            }
            NodeKind::Dir(_) => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    fn fsync(&self, _ino: Ino, _fh: Fh, _datasync: bool) -> SysResult<()> {
        self.store.sync();
        Ok(())
    }

    fn readdir(&self, ino: Ino) -> SysResult<Vec<Dirent>> {
        let st = self.state.lock();
        let node = st.inodes.get(&ino).ok_or(Errno::ENOENT)?;
        let dir = node.dir()?;
        Ok(dir
            .iter()
            .map(|(name, &ino)| Dirent {
                ino,
                name: name.clone(),
                ftype: st.inodes[&ino].meta.ftype,
            })
            .collect())
    }

    fn statfs(&self) -> SysResult<Statfs> {
        let st = self.state.lock();
        let blocks = self.capacity / BLOCK_SIZE as u64;
        let used = st.used_bytes / BLOCK_SIZE as u64;
        let files = blocks.max(1024);
        Ok(Statfs {
            bsize: BLOCK_SIZE as u32,
            blocks,
            bfree: blocks.saturating_sub(used),
            bavail: blocks.saturating_sub(used),
            files,
            ffree: files.saturating_sub(st.inodes.len() as u64),
            namelen: MAX_NAME_LEN as u32,
        })
    }

    fn getxattr(&self, ino: Ino, name: &str) -> SysResult<Vec<u8>> {
        let st = self.state.lock();
        let node = st.inodes.get(&ino).ok_or(Errno::ENOENT)?;
        node.xattrs.get(name).cloned().ok_or(Errno::ENODATA)
    }

    fn setxattr(&self, ino: Ino, name: &str, value: &[u8], flags: XattrFlags) -> SysResult<()> {
        if !name.contains('.') {
            return Err(Errno::EOPNOTSUPP);
        }
        let prefix = name.split('.').next().unwrap_or_default();
        if !matches!(prefix, "user" | "trusted" | "security" | "system") {
            return Err(Errno::EOPNOTSUPP);
        }
        if value.len() > MAX_XATTR_SIZE {
            return Err(Errno::ERANGE);
        }
        let now = self.clock.now();
        let mut st = self.state.lock();
        let node = st.inodes.get_mut(&ino).ok_or(Errno::ENOENT)?;
        match flags {
            XattrFlags::Create if node.xattrs.contains_key(name) => return Err(Errno::EEXIST),
            XattrFlags::Replace if !node.xattrs.contains_key(name) => return Err(Errno::ENODATA),
            _ => {}
        }
        node.xattrs.insert(name.to_string(), value.to_vec());
        node.meta.ctime = now;
        Ok(())
    }

    fn listxattr(&self, ino: Ino) -> SysResult<Vec<String>> {
        let st = self.state.lock();
        let node = st.inodes.get(&ino).ok_or(Errno::ENOENT)?;
        Ok(node.xattrs.keys().cloned().collect())
    }

    fn removexattr(&self, ino: Ino, name: &str) -> SysResult<()> {
        let now = self.clock.now();
        let mut st = self.state.lock();
        let node = st.inodes.get_mut(&ino).ok_or(Errno::ENOENT)?;
        if node.xattrs.remove(name).is_none() {
            return Err(Errno::ENODATA);
        }
        node.meta.ctime = now;
        Ok(())
    }

    fn fallocate(
        &self,
        ino: Ino,
        fh: Fh,
        offset: u64,
        len: u64,
        mode: FallocateMode,
    ) -> SysResult<()> {
        if len == 0 {
            return Err(Errno::EINVAL);
        }
        let mut st = self.state.lock();
        {
            let info = st.handles.get(&fh).ok_or(Errno::EBADF)?;
            if info.ino != ino || !info.flags.mode.writable() {
                return Err(Errno::EBADF);
            }
        }
        let node = st.inodes.get_mut(&ino).ok_or(Errno::ENOENT)?;
        match &mut node.kind {
            NodeKind::File(content) => match mode {
                FallocateMode::Allocate => {
                    node.meta.size = node.meta.size.max(offset + len);
                    Ok(())
                }
                FallocateMode::KeepSize => Ok(()),
                FallocateMode::PunchHole => {
                    let before = self.store.allocated_bytes(content);
                    self.store.punch_hole(content, offset, len);
                    let after = self.store.allocated_bytes(content);
                    st.used_bytes = st.used_bytes.saturating_sub(before - after.min(before));
                    Ok(())
                }
            },
            NodeKind::Dir(_) => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }
}
