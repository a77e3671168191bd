//! A copy-on-write union filesystem over the [`Filesystem`] trait.
//!
//! [`OverlayFs`] merges N read-only *lower* layers (topmost first) under one
//! writable *upper* layer, following the Linux overlayfs on-disk
//! conventions:
//!
//! * a **whiteout** is a 0/0 character device in the upper layer — it hides
//!   the lower entry of the same name;
//! * an **opaque directory** carries the `trusted.overlay.opaque` xattr —
//!   lower directories at the same path stop contributing entries;
//! * any mutation of lower content (write, truncate, chmod, chown, xattr,
//!   link, rename) triggers **copy-up**: the file is recreated in the upper
//!   layer with identical ownership, mode, timestamps and xattrs, and its
//!   data is copied chunk-by-chunk. When upper and lowers share one
//!   [`crate::BlobStore`], those copies dedup into refcount bumps.
//!
//! Deviations from Linux overlayfs, chosen for POSIX equivalence with a
//! flattened filesystem (the property the `prop_fs` oracle checks):
//!
//! * renaming a merged directory deep-copies it to the upper layer (and
//!   marks it opaque) instead of returning `EXDEV`;
//! * overlay inode numbers are stable for the lifetime of the mount, so
//!   copy-up does not change `st_ino` (Linux needs `xino` for this).
//!
//! One Linux quirk is preserved: a file opened read-only before a copy-up
//! keeps reading the lower file's (stale) data through that handle.

use crate::blob::CHUNK_SIZE;
use cntr_fs::{FallocateMode, Fh, Filesystem, FsContext, FsFeatures, XattrFlags, MAX_NAME_LEN};
use cntr_types::{
    DevId, Dirent, Errno, FileType, Ino, Mode, OpenFlags, RenameFlags, SetAttr, Stat, Statfs,
    SysResult,
};
use obs::{LazyCounter, Subsystem};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The xattr marking an opaque directory (Linux overlayfs convention).
pub const OPAQUE_XATTR: &str = "trusted.overlay.opaque";

// Global observability metrics, aggregated over every overlay instance.
// Copy-up is the paper's headline overlay cost (§3.3); the dentry-cache
// counters show what fraction of lookups the cache absorbs.
static OBS_COPY_UP: LazyCounter = LazyCounter::new(Subsystem::Overlay, "overlay.copy-up.count");
static OBS_COPY_UP_BYTES: LazyCounter =
    LazyCounter::new(Subsystem::Overlay, "overlay.copy-up.bytes");
static OBS_DCACHE_HITS: LazyCounter = LazyCounter::new(Subsystem::Overlay, "overlay.dcache.hits");
static OBS_DCACHE_NEG_HITS: LazyCounter =
    LazyCounter::new(Subsystem::Overlay, "overlay.dcache.negative-hits");
static OBS_DCACHE_MISSES: LazyCounter =
    LazyCounter::new(Subsystem::Overlay, "overlay.dcache.misses");

/// Which layer a realization lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LayerKey {
    Upper,
    Lower(usize),
}

/// One overlay inode: where it currently resolves in the stack.
#[derive(Debug, Clone)]
struct OvlNode {
    /// Overlay ino of the parent directory (root's parent is root).
    parent: Ino,
    /// Entry name under `parent` (empty for root).
    name: String,
    /// Realization in the upper layer, if present.
    upper: Option<Ino>,
    /// Lower-layer contributions, ascending layer index (for directories:
    /// every merged layer; for other types: the primary only).
    lowers: Vec<(usize, Ino)>,
}

impl OvlNode {
    fn primary(&self) -> (LayerKey, Ino) {
        match self.upper {
            Some(ino) => (LayerKey::Upper, ino),
            None => {
                let (i, ino) = self.lowers[0];
                (LayerKey::Lower(i), ino)
            }
        }
    }

    fn realization_count(&self) -> usize {
        usize::from(self.upper.is_some()) + self.lowers.len()
    }
}

/// An open overlay handle, pinned to the realization at open time.
struct OvlHandle {
    layer: LayerKey,
    real_ino: Ino,
    real_fh: Fh,
}

struct OvlState {
    nodes: HashMap<Ino, OvlNode>,
    /// `(layer, underlying ino) → overlay ino`: keeps overlay inos stable
    /// across lookups and across copy-up.
    by_real: HashMap<(LayerKey, Ino), Ino>,
    handles: HashMap<Fh, OvlHandle>,
    next_ino: u64,
    next_fh: u64,
    /// Paths opened for reading while access tracking is on (the overlay
    /// replacement for fanotify in `cntr-slim`).
    accessed: BTreeSet<String>,
    /// Dentry cache: parent overlay ino → name → `Some(child)` for a
    /// previously merged child, `None` for a confirmed-absent name (a
    /// negative entry). A hit answers a lookup with one `getattr` against
    /// the primary realization instead of one `lookup` per layer; the
    /// two-level shape keeps the hot probe allocation-free (`&str` lookup
    /// in the inner map). Invalidated by every naming mutation (create,
    /// unlink, rmdir, rename, whiteout); overlay inos are never reused, so
    /// entries cannot alias a recycled identity. Bounded by
    /// [`DCACHE_CAP`]: on overflow the whole cache is dropped (it is a
    /// cache — correctness never depends on its contents).
    dcache: HashMap<Ino, HashMap<String, Option<Ino>>>,
    /// Total entries across all of `dcache`'s inner maps.
    dcache_len: usize,
    /// Merged-listing cache per overlay directory: makes repeated
    /// `readdir`/`nlink` computations on a hot merged directory stop
    /// re-reading every contributing layer. Invalidated alongside the
    /// dentry cache whenever the directory's namespace changes; bounded by
    /// [`DIR_CACHE_CAP`] directories.
    dir_cache: HashMap<Ino, DirCacheEntry>,
}

/// Upper bound on cached dentries (positive + negative) per overlay.
const DCACHE_CAP: usize = 65_536;

/// Upper bound on cached merged directory listings per overlay.
const DIR_CACHE_CAP: usize = 1_024;

/// One cached merged listing plus the derived subdirectory count (`nlink`
/// wants only the count — serving it from here avoids cloning the map).
struct DirCacheEntry {
    names: BTreeMap<String, FileType>,
    subdirs: u32,
}

impl OvlState {
    /// Drops cached naming state after a mutation of `name` under `parent`.
    /// With `negative`, the entry is replaced by a confirmed absence
    /// (unlink/rmdir leave the name resolvable to `ENOENT`); otherwise the
    /// entry is simply forgotten and the next lookup re-merges.
    fn invalidate_entry(&mut self, parent: Ino, name: &str, negative: bool) {
        if negative {
            self.remember_entry(parent, name, None);
        } else if let Some(entries) = self.dcache.get_mut(&parent) {
            if entries.remove(name).is_some() {
                self.dcache_len -= 1;
            }
        }
        self.dir_cache.remove(&parent);
    }

    /// Records a merge outcome for `name` under `parent`, dropping the
    /// whole cache first if it has reached [`DCACHE_CAP`].
    fn remember_entry(&mut self, parent: Ino, name: &str, child: Option<Ino>) {
        if self.dcache_len >= DCACHE_CAP {
            self.dcache.clear();
            self.dcache_len = 0;
        }
        if self
            .dcache
            .entry(parent)
            .or_default()
            .insert(name.to_string(), child)
            .is_none()
        {
            self.dcache_len += 1;
        }
    }

    /// Forgets one cached dentry (stale positive hit).
    fn forget_entry(&mut self, parent: Ino, name: &str) {
        if let Some(entries) = self.dcache.get_mut(&parent) {
            if entries.remove(name).is_some() {
                self.dcache_len -= 1;
            }
        }
    }
}

/// Copy-on-write union of N read-only lowers and one writable upper.
pub struct OverlayFs {
    dev: DevId,
    upper: Arc<dyn Filesystem>,
    /// Topmost first (`lowerdir=` order on Linux).
    lowers: Vec<Arc<dyn Filesystem>>,
    state: Mutex<OvlState>,
    track_access: AtomicBool,
}

/// What one upper-layer entry means relative to the lowers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffKind {
    /// A node added or modified in the upper layer.
    Upsert(FileType),
    /// A whiteout hiding a lower entry.
    Whiteout,
    /// An opaque directory (its merged content is upper-only).
    Opaque,
}

/// One entry of [`OverlayFs::upper_diff`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffEntry {
    /// Absolute path within the overlay.
    pub path: String,
    /// Entry class.
    pub kind: DiffKind,
}

fn is_whiteout(st: &Stat) -> bool {
    st.ftype == FileType::CharDevice && st.rdev == 0
}

/// A context carrying the original owner, used to stamp copied-up nodes
/// (copy-up must preserve ownership, not adopt the writer's).
fn owner_ctx(st: &Stat) -> FsContext {
    FsContext {
        uid: st.uid,
        gid: st.gid,
        groups: Vec::new(),
        cap_fsetid: true,
    }
}

fn root_ctx() -> FsContext {
    FsContext::root()
}

fn validate_name(name: &str) -> SysResult<()> {
    if name.is_empty() || name == "." || name == ".." || name.contains('/') || name.contains('\0') {
        return Err(Errno::EINVAL);
    }
    if name.len() > MAX_NAME_LEN {
        return Err(Errno::ENAMETOOLONG);
    }
    Ok(())
}

impl OverlayFs {
    /// Creates an overlay with `lowers` (topmost first) under `upper`.
    ///
    /// The lowers are treated as read-only: the overlay never issues a
    /// mutating operation against them. The upper must be empty or a
    /// previous upper of the same stack.
    pub fn new(
        dev: DevId,
        lowers: Vec<Arc<dyn Filesystem>>,
        upper: Arc<dyn Filesystem>,
    ) -> Arc<OverlayFs> {
        let mut nodes = HashMap::new();
        let mut by_real = HashMap::new();
        let root = OvlNode {
            parent: Ino::ROOT,
            name: String::new(),
            upper: Some(upper.root_ino()),
            lowers: lowers
                .iter()
                .enumerate()
                .map(|(i, fs)| (i, fs.root_ino()))
                .collect(),
        };
        by_real.insert((LayerKey::Upper, upper.root_ino()), Ino::ROOT);
        for (i, fs) in lowers.iter().enumerate() {
            by_real.insert((LayerKey::Lower(i), fs.root_ino()), Ino::ROOT);
        }
        nodes.insert(Ino::ROOT, root);
        Arc::new(OverlayFs {
            dev,
            upper,
            lowers,
            state: Mutex::new_class(
                "overlay.state",
                OvlState {
                    nodes,
                    by_real,
                    handles: HashMap::new(),
                    next_ino: 2,
                    next_fh: 1,
                    accessed: BTreeSet::new(),
                    dcache: HashMap::new(),
                    dcache_len: 0,
                    dir_cache: HashMap::new(),
                },
            ),
            track_access: AtomicBool::new(false),
        })
    }

    /// The writable upper layer.
    pub fn upper_layer(&self) -> &Arc<dyn Filesystem> {
        &self.upper
    }

    /// Enables or disables read-access tracking. Enabling clears the log.
    pub fn set_access_tracking(&self, on: bool) {
        if on {
            self.state.lock().accessed.clear();
        }
        self.track_access.store(on, Ordering::Relaxed);
    }

    /// Paths opened for reading since tracking was enabled.
    pub fn accessed_paths(&self) -> BTreeSet<String> {
        self.state.lock().accessed.clone()
    }

    /// Walks the upper layer and classifies every entry — the container's
    /// write set. `cntr-slim` diffs this instead of replaying access logs.
    pub fn upper_diff(&self) -> Vec<DiffEntry> {
        let mut out = Vec::new();
        self.diff_dir(self.upper.root_ino(), "", &mut out);
        out
    }

    fn diff_dir(&self, dir: Ino, prefix: &str, out: &mut Vec<DiffEntry>) {
        let Ok(entries) = self.upper.readdir(dir) else {
            return;
        };
        for e in entries {
            let path = format!("{prefix}/{}", e.name);
            let Ok(st) = self.upper.getattr(e.ino) else {
                continue;
            };
            if is_whiteout(&st) {
                out.push(DiffEntry {
                    path,
                    kind: DiffKind::Whiteout,
                });
            } else if st.ftype == FileType::Directory {
                let opaque = self.upper.getxattr(e.ino, OPAQUE_XATTR).is_ok();
                out.push(DiffEntry {
                    path: path.clone(),
                    kind: if opaque {
                        DiffKind::Opaque
                    } else {
                        DiffKind::Upsert(FileType::Directory)
                    },
                });
                self.diff_dir(e.ino, &path, out);
            } else {
                out.push(DiffEntry {
                    path,
                    kind: DiffKind::Upsert(st.ftype),
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Internal resolution
    // ------------------------------------------------------------------

    fn layer_fs(&self, key: LayerKey) -> &Arc<dyn Filesystem> {
        match key {
            LayerKey::Upper => &self.upper,
            LayerKey::Lower(i) => &self.lowers[i],
        }
    }

    fn node(st: &OvlState, ino: Ino) -> SysResult<&OvlNode> {
        st.nodes.get(&ino).ok_or(Errno::ENOENT)
    }

    /// Absolute overlay path of a node (access log, diffs).
    fn path_of(st: &OvlState, mut ino: Ino) -> String {
        let mut parts = Vec::new();
        let mut hops = 0;
        while ino != Ino::ROOT && hops < 4096 {
            let Some(n) = st.nodes.get(&ino) else { break };
            parts.push(n.name.clone());
            ino = n.parent;
            hops += 1;
        }
        parts.reverse();
        format!("/{}", parts.join("/"))
    }

    /// True if `dir_upper` carries the opaque marker.
    fn upper_opaque(&self, dir_upper: Ino) -> bool {
        self.upper.getxattr(dir_upper, OPAQUE_XATTR).is_ok()
    }

    /// True if any lower layer contributes `name` under `parent`
    /// (disregarding the upper layer entirely).
    fn lower_visible(&self, pnode: &OvlNode, name: &str) -> bool {
        if let Some(pu) = pnode.upper {
            if self.upper_opaque(pu) {
                return false;
            }
        }
        for &(i, pl) in &pnode.lowers {
            match self.lowers[i].lookup(pl, name) {
                Ok(st) => return !is_whiteout(&st),
                Err(_) => continue,
            }
        }
        false
    }

    /// Resolves `name` under overlay directory `parent`, assigning (or
    /// reusing) an overlay ino. Returns `(ovl_ino, fixed-up stat)`.
    ///
    /// Hot lookups are answered from the dentry cache: a positive hit costs
    /// one `getattr` against the primary realization, a negative hit costs
    /// nothing — neither re-consults every lower layer.
    fn merge_child(&self, st: &mut OvlState, parent: Ino, name: &str) -> SysResult<(Ino, Stat)> {
        if name.len() > MAX_NAME_LEN {
            return Err(Errno::ENAMETOOLONG);
        }
        let cached = st.dcache.get(&parent).and_then(|m| m.get(name).copied());
        if let Some(cached) = cached {
            match cached {
                None => {
                    OBS_DCACHE_NEG_HITS.inc();
                    return Err(Errno::ENOENT);
                }
                Some(child) => {
                    let primary = st.nodes.get(&child).map(OvlNode::primary);
                    if let Some((k, i)) = primary {
                        if let Ok(stt) = self.layer_fs(k).getattr(i) {
                            OBS_DCACHE_HITS.inc();
                            let stat = self.fixup_stat(st, child, stt);
                            return Ok((child, stat));
                        }
                    }
                    // Stale (realization vanished): forget and re-merge.
                    st.forget_entry(parent, name);
                }
            }
        }
        OBS_DCACHE_MISSES.inc();
        let res = self.merge_child_slow(st, parent, name);
        match &res {
            Ok((child, _)) => st.remember_entry(parent, name, Some(*child)),
            Err(Errno::ENOENT) => st.remember_entry(parent, name, None),
            Err(_) => {}
        }
        res
    }

    /// The uncached merge: consults the upper layer and every contributing
    /// lower layer. See [`OverlayFs::merge_child`] for the cached entry.
    fn merge_child_slow(
        &self,
        st: &mut OvlState,
        parent: Ino,
        name: &str,
    ) -> SysResult<(Ino, Stat)> {
        let pnode = Self::node(st, parent)?.clone();
        // The parent must be a directory in its primary realization.
        let (pk, pi) = pnode.primary();
        if self.layer_fs(pk).getattr(pi)?.ftype != FileType::Directory {
            return Err(Errno::ENOTDIR);
        }

        // 1. The upper layer wins.
        let mut upper_child: Option<Stat> = None;
        if let Some(pu) = pnode.upper {
            match self.upper.lookup(pu, name) {
                Ok(stt) if is_whiteout(&stt) => return Err(Errno::ENOENT),
                Ok(stt) => upper_child = Some(stt),
                Err(Errno::ENOENT) => {}
                Err(e) => return Err(e),
            }
        }
        let parent_opaque = pnode.upper.is_some_and(|pu| self.upper_opaque(pu));

        // 2. Lower contributions (skipped when shadowed).
        let mut lower_hits: Vec<(usize, Stat)> = Vec::new();
        let upper_shadows = match &upper_child {
            Some(stt) if stt.ftype != FileType::Directory => true,
            Some(stt) => self.upper_opaque(stt.ino),
            None => false,
        };
        if !parent_opaque && !upper_shadows {
            for &(i, pl) in &pnode.lowers {
                match self.lowers[i].lookup(pl, name) {
                    Ok(stt) if is_whiteout(&stt) => break,
                    Ok(stt) => {
                        let is_dir = stt.ftype == FileType::Directory;
                        let opaque =
                            is_dir && self.lowers[i].getxattr(stt.ino, OPAQUE_XATTR).is_ok();
                        lower_hits.push((i, stt));
                        if !is_dir || opaque {
                            break;
                        }
                    }
                    Err(_) => continue,
                }
            }
        }

        // 3. Compose the node.
        let primary_stat = upper_child
            .or_else(|| lower_hits.first().map(|(_, s)| *s))
            .ok_or(Errno::ENOENT)?;
        let is_dir = primary_stat.ftype == FileType::Directory;
        let lowers: Vec<(usize, Ino)> = if is_dir || upper_child.is_none() {
            lower_hits
                .iter()
                .filter(|(_, s)| !is_dir || s.ftype == FileType::Directory)
                .map(|(i, s)| (*i, s.ino))
                .collect()
        } else {
            Vec::new()
        };
        let primary_key = match &upper_child {
            Some(stt) => (LayerKey::Upper, stt.ino),
            None => (LayerKey::Lower(lowers[0].0), lowers[0].1),
        };

        let ovl_ino = match st.by_real.get(&primary_key) {
            Some(&ino) => ino,
            None => {
                let ino = Ino(st.next_ino);
                st.next_ino += 1;
                st.by_real.insert(primary_key, ino);
                ino
            }
        };
        st.nodes.insert(
            ovl_ino,
            OvlNode {
                parent,
                name: name.to_string(),
                upper: upper_child.map(|s| s.ino),
                lowers,
            },
        );
        let stat = self.fixup_stat(st, ovl_ino, primary_stat);
        Ok((ovl_ino, stat))
    }

    /// Rewrites dev/ino to overlay identities; recomputes nlink for merged
    /// directories.
    fn fixup_stat(&self, st: &mut OvlState, ovl_ino: Ino, mut stat: Stat) -> Stat {
        stat.dev = self.dev;
        stat.ino = ovl_ino;
        if stat.ftype == FileType::Directory {
            let node = st.nodes.get(&ovl_ino).cloned();
            if let Some(node) = node {
                if node.realization_count() > 1 {
                    if let Ok(subdirs) = self.merged_subdir_count(st, ovl_ino, &node) {
                        stat.nlink = 2 + subdirs;
                    }
                }
            }
        }
        stat
    }

    /// The merged directory listing `name → file type` of a node, served
    /// from the per-directory cache when warm (one `BTreeMap` clone instead
    /// of a `readdir` + whiteout scan of every contributing layer).
    fn merged_names(
        &self,
        st: &mut OvlState,
        dir: Ino,
        node: &OvlNode,
    ) -> SysResult<BTreeMap<String, FileType>> {
        if let Some(cached) = st.dir_cache.get(&dir) {
            return Ok(cached.names.clone());
        }
        let out = self.merged_names_uncached(node)?;
        if st.dir_cache.len() >= DIR_CACHE_CAP {
            st.dir_cache.clear();
        }
        st.dir_cache.insert(
            dir,
            DirCacheEntry {
                subdirs: out.values().filter(|t| **t == FileType::Directory).count() as u32,
                names: out.clone(),
            },
        );
        Ok(out)
    }

    /// The number of subdirectories in a merged directory (what `nlink`
    /// needs) — served from the cache without cloning the listing.
    fn merged_subdir_count(&self, st: &mut OvlState, dir: Ino, node: &OvlNode) -> SysResult<u32> {
        if let Some(cached) = st.dir_cache.get(&dir) {
            return Ok(cached.subdirs);
        }
        self.merged_names(st, dir, node).map(|names| {
            names
                .values()
                .filter(|t| **t == FileType::Directory)
                .count() as u32
        })
    }

    /// The uncached merged listing computed from every layer.
    fn merged_names_uncached(&self, node: &OvlNode) -> SysResult<BTreeMap<String, FileType>> {
        let mut out: BTreeMap<String, FileType> = BTreeMap::new();
        let mut hidden: BTreeSet<String> = BTreeSet::new();
        if let Some(up) = node.upper {
            for e in self.upper.readdir(up)? {
                if e.ftype == FileType::CharDevice {
                    if let Ok(stt) = self.upper.getattr(e.ino) {
                        if is_whiteout(&stt) {
                            hidden.insert(e.name);
                            continue;
                        }
                    }
                }
                out.insert(e.name, e.ftype);
            }
            if self.upper_opaque(up) {
                return Ok(out);
            }
        }
        for &(i, li) in &node.lowers {
            let entries = match self.lowers[i].readdir(li) {
                Ok(v) => v,
                Err(_) => continue,
            };
            let mut opaque_stop = false;
            for e in entries {
                if hidden.contains(&e.name) || out.contains_key(&e.name) {
                    continue;
                }
                if e.ftype == FileType::CharDevice {
                    if let Ok(stt) = self.lowers[i].getattr(e.ino) {
                        if is_whiteout(&stt) {
                            hidden.insert(e.name);
                            continue;
                        }
                    }
                }
                out.insert(e.name, e.ftype);
            }
            // An opaque lower dir would have been the merge stop already at
            // contribution-collection time; double-check defensively.
            if self.lowers[i].getxattr(li, OPAQUE_XATTR).is_ok() {
                opaque_stop = true;
            }
            if opaque_stop {
                break;
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Copy-up
    // ------------------------------------------------------------------

    /// Ensures the overlay directory `ovl` exists in the upper layer
    /// (copying up the parent chain, meta-only), returning its upper ino.
    fn ensure_upper_dir(&self, st: &mut OvlState, ovl: Ino) -> SysResult<Ino> {
        // Collect the missing chain root-ward.
        let mut chain = Vec::new();
        let mut cur = ovl;
        loop {
            let node = Self::node(st, cur)?;
            if node.upper.is_some() {
                break;
            }
            chain.push(cur);
            if cur == Ino::ROOT {
                return Err(Errno::EIO); // root always has an upper
            }
            cur = node.parent;
        }
        for &dir in chain.iter().rev() {
            let node = Self::node(st, dir)?.clone();
            let parent_up = Self::node(st, node.parent)?.upper.ok_or(Errno::EIO)?;
            let (lk, li) = node.primary();
            let src = self.layer_fs(lk);
            let stt = src.getattr(li)?;
            if stt.ftype != FileType::Directory {
                return Err(Errno::ENOTDIR);
            }
            let created = self
                .upper
                .mkdir(parent_up, &node.name, stt.mode, &owner_ctx(&stt))?;
            self.copy_meta(src, li, &stt, created.ino)?;
            st.by_real.insert((LayerKey::Upper, created.ino), dir);
            st.nodes.get_mut(&dir).expect("node exists").upper = Some(created.ino);
        }
        Self::node(st, ovl)?.upper.ok_or(Errno::EIO)
    }

    /// Copies mode/owner/times/xattrs from `(src, src_ino)` onto the upper
    /// node `dst_ino`.
    fn copy_meta(
        &self,
        src: &Arc<dyn Filesystem>,
        src_ino: Ino,
        stt: &Stat,
        dst_ino: Ino,
    ) -> SysResult<()> {
        let attr = SetAttr {
            mode: Some(stt.mode),
            uid: Some(stt.uid),
            gid: Some(stt.gid),
            atime: Some(stt.atime),
            mtime: Some(stt.mtime),
            size: None,
        };
        self.upper.setattr(dst_ino, &attr, &root_ctx())?;
        if let Ok(names) = src.listxattr(src_ino) {
            for name in names {
                if let Ok(value) = src.getxattr(src_ino, &name) {
                    let _ = self.upper.setxattr(dst_ino, &name, &value, XattrFlags::Any);
                }
            }
        }
        Ok(())
    }

    /// Copies a non-directory node up to the upper layer. With `skip_data`
    /// (open with `O_TRUNC`), the data copy is elided.
    fn copy_up(&self, st: &mut OvlState, ovl: Ino, skip_data: bool) -> SysResult<Ino> {
        let node = Self::node(st, ovl)?.clone();
        if let Some(up) = node.upper {
            return Ok(up);
        }
        let parent_up = self.ensure_upper_dir(st, node.parent)?;
        let (lk, li) = node.primary();
        let src = Arc::clone(self.layer_fs(lk));
        let stt = src.getattr(li)?;
        let ctx = owner_ctx(&stt);
        let created = match stt.ftype {
            FileType::Directory => return Err(Errno::EISDIR),
            FileType::Symlink => {
                let target = src.readlink(li)?;
                self.upper.symlink(parent_up, &node.name, &target, &ctx)?
            }
            ftype => {
                let created = self
                    .upper
                    .mknod(parent_up, &node.name, ftype, stt.mode, stt.rdev, &ctx)?;
                if ftype == FileType::Regular && !skip_data {
                    self.copy_data(&src, li, created.ino, stt.size)?;
                }
                created
            }
        };
        self.copy_meta(&src, li, &stt, created.ino)?;
        OBS_COPY_UP.inc();
        st.by_real.insert((LayerKey::Upper, created.ino), ovl);
        st.nodes.get_mut(&ovl).expect("node exists").upper = Some(created.ino);
        Ok(created.ino)
    }

    /// Streams file data from a lower file into a fresh upper file,
    /// chunk-by-chunk, skipping holes (all-zero chunks).
    fn copy_data(
        &self,
        src: &Arc<dyn Filesystem>,
        src_ino: Ino,
        dst_ino: Ino,
        size: u64,
    ) -> SysResult<()> {
        let sfh = src.open(src_ino, OpenFlags::RDONLY)?;
        let dfh = self.upper.open(dst_ino, OpenFlags::WRONLY)?;
        let mut buf = vec![0u8; CHUNK_SIZE];
        let mut off = 0u64;
        while off < size {
            let n = src.read(src_ino, sfh, off, &mut buf)?;
            if n == 0 {
                break;
            }
            if !crate::blob::is_zero(&buf[..n]) {
                self.upper.write(dst_ino, dfh, off, &buf[..n])?;
            }
            OBS_COPY_UP_BYTES.add(n as u64);
            off += n as u64;
        }
        src.release(src_ino, sfh)?;
        self.upper.release(dst_ino, dfh)?;
        // Restore the logical size (sparse tails) — writes already extended
        // the file up to the last non-zero chunk only.
        self.upper
            .setattr(dst_ino, &SetAttr::truncate(size), &root_ctx())?;
        Ok(())
    }

    /// Deep copy-up of a directory subtree (rename support), marking the
    /// copied root opaque so lower entries stop contributing.
    fn copy_up_tree(&self, st: &mut OvlState, ovl: Ino) -> SysResult<Ino> {
        let up = self.ensure_upper_dir(st, ovl)?;
        let node = Self::node(st, ovl)?.clone();
        let names: Vec<String> = self.merged_names(st, ovl, &node)?.into_keys().collect();
        for name in names {
            let (child, child_st) = self.merge_child(st, ovl, &name)?;
            if child_st.ftype == FileType::Directory {
                self.copy_up_tree(st, child)?;
            } else if Self::node(st, child)?.upper.is_none() {
                self.copy_up(st, child, false)?;
            }
        }
        self.upper
            .setxattr(up, OPAQUE_XATTR, b"y", XattrFlags::Any)?;
        Ok(up)
    }

    /// Creates a whiteout entry for `name` under upper directory `pu`.
    fn make_whiteout(&self, pu: Ino, name: &str) -> SysResult<()> {
        self.upper
            .mknod(pu, name, FileType::CharDevice, Mode::new(0), 0, &root_ctx())
            .map(|_| ())
    }

    /// Removes an existing whiteout entry for `name` under `pu`, if any.
    fn clear_whiteout(&self, pu: Ino, name: &str) -> SysResult<bool> {
        match self.upper.lookup(pu, name) {
            Ok(stt) if is_whiteout(&stt) => {
                self.upper.unlink(pu, name)?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Forgets the upper realization mapping of a removed entry — but only
    /// when the upper inode is actually dead. A hard-linked inode that
    /// survives under other names must keep its overlay ino (POSIX: aliases
    /// share `st_ino`, and the page cache is keyed by it). Lower mappings
    /// always persist: lower layers are immutable, so `(layer, ino)` stays
    /// a valid identity for any remaining aliases.
    fn drop_node_mappings(&self, st: &mut OvlState, ovl: Ino) {
        if let Some(node) = st.nodes.get(&ovl).cloned() {
            if let Some(up) = node.upper {
                let alive = self
                    .upper
                    .getattr(up)
                    .map(|s| s.ftype != FileType::Directory && s.nlink > 0)
                    .unwrap_or(false);
                if !alive {
                    st.by_real.remove(&(LayerKey::Upper, up));
                }
            }
        }
    }

    /// True if `ancestor` lies on the parent chain of `node`.
    fn is_ancestor(st: &OvlState, ancestor: Ino, mut node: Ino) -> bool {
        let mut hops = 0;
        while hops < 4096 {
            if node == ancestor {
                return true;
            }
            if node == Ino::ROOT {
                return false;
            }
            match st.nodes.get(&node) {
                Some(n) => node = n.parent,
                None => return false,
            }
            hops += 1;
        }
        false
    }

    /// Common prologue for entry creation: merged-EEXIST check, parent
    /// copy-up, whiteout clearing. Returns `(parent_upper, had_whiteout)`.
    fn prepare_create(&self, st: &mut OvlState, parent: Ino, name: &str) -> SysResult<(Ino, bool)> {
        validate_name(name)?;
        match self.merge_child(st, parent, name) {
            Ok(_) => return Err(Errno::EEXIST),
            Err(Errno::ENOENT) => {}
            Err(e) => return Err(e),
        }
        let pu = self.ensure_upper_dir(st, parent)?;
        let had_whiteout = self.clear_whiteout(pu, name)?;
        Ok((pu, had_whiteout))
    }

    /// Registers a freshly created upper node and returns its overlay stat.
    fn register_created(&self, st: &mut OvlState, parent: Ino, name: &str, created: Stat) -> Stat {
        let ovl_ino = Ino(st.next_ino);
        st.next_ino += 1;
        st.by_real.insert((LayerKey::Upper, created.ino), ovl_ino);
        st.nodes.insert(
            ovl_ino,
            OvlNode {
                parent,
                name: name.to_string(),
                upper: Some(created.ino),
                lowers: Vec::new(),
            },
        );
        // The creation overwrites any negative dentry for this name and
        // invalidates the parent's merged listing.
        st.dir_cache.remove(&parent);
        st.remember_entry(parent, name, Some(ovl_ino));
        self.fixup_stat(st, ovl_ino, created)
    }
}

impl Filesystem for OverlayFs {
    fn fs_id(&self) -> DevId {
        self.dev
    }

    fn fs_type(&self) -> &'static str {
        "overlay"
    }

    fn fs_options(&self) -> String {
        format!(
            "rw,lowerdir={}x{},upperdir={}",
            self.lowers.len(),
            self.lowers.first().map_or("none", |l| l.fs_type()),
            self.upper.fs_type()
        )
    }

    fn features(&self) -> FsFeatures {
        FsFeatures::tmpfs()
    }

    fn lookup(&self, parent: Ino, name: &str) -> SysResult<Stat> {
        let mut st = self.state.lock();
        if name == "." {
            let node = Self::node(&st, parent)?.clone();
            let (k, i) = node.primary();
            let stt = self.layer_fs(k).getattr(i)?;
            if stt.ftype != FileType::Directory {
                return Err(Errno::ENOTDIR);
            }
            return Ok(self.fixup_stat(&mut st, parent, stt));
        }
        self.merge_child(&mut st, parent, name).map(|(_, s)| s)
    }

    fn getattr(&self, ino: Ino) -> SysResult<Stat> {
        let mut st = self.state.lock();
        let node = Self::node(&st, ino)?.clone();
        let (k, i) = node.primary();
        let stt = self.layer_fs(k).getattr(i)?;
        Ok(self.fixup_stat(&mut st, ino, stt))
    }

    fn setattr(&self, ino: Ino, attr: &SetAttr, ctx: &FsContext) -> SysResult<Stat> {
        let mut st = self.state.lock();
        let node = Self::node(&st, ino)?.clone();
        let (k, i) = node.primary();
        let ftype = self.layer_fs(k).getattr(i)?.ftype;
        let up = match (node.upper, ftype) {
            (Some(u), _) => u,
            (None, FileType::Directory) => self.ensure_upper_dir(&mut st, ino)?,
            (None, _) => {
                // Truncation to zero does not need the data copied.
                let skip = attr.size == Some(0) && attr.mode.is_none() && attr.uid.is_none();
                self.copy_up(&mut st, ino, skip)?
            }
        };
        let stt = self.upper.setattr(up, attr, ctx)?;
        Ok(self.fixup_stat(&mut st, ino, stt))
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
        let mut st = self.state.lock();
        let (pu, _) = self.prepare_create(&mut st, parent, name)?;
        let created = match self.upper.mknod(pu, name, ftype, mode, rdev, ctx) {
            Ok(c) => c,
            Err(e) => {
                // A whiteout may have been cleared: the cached negative
                // dentry is stale, so force the next lookup to re-merge.
                st.invalidate_entry(parent, name, false);
                return Err(e);
            }
        };
        Ok(self.register_created(&mut st, parent, name, created))
    }

    fn mkdir(&self, parent: Ino, name: &str, mode: Mode, ctx: &FsContext) -> SysResult<Stat> {
        let mut st = self.state.lock();
        let (pu, had_whiteout) = self.prepare_create(&mut st, parent, name)?;
        let created = match self.upper.mkdir(pu, name, mode, ctx) {
            Ok(c) => c,
            Err(e) => {
                st.invalidate_entry(parent, name, false);
                return Err(e);
            }
        };
        if had_whiteout {
            // A lower directory may exist beneath the removed whiteout; the
            // new directory must not merge with it.
            self.upper
                .setxattr(created.ino, OPAQUE_XATTR, b"y", XattrFlags::Any)?;
        }
        Ok(self.register_created(&mut st, parent, name, created))
    }

    fn unlink(&self, parent: Ino, name: &str) -> SysResult<()> {
        validate_name(name)?;
        let mut st = self.state.lock();
        let (child, child_st) = self.merge_child(&mut st, parent, name)?;
        if child_st.ftype == FileType::Directory {
            return Err(Errno::EISDIR);
        }
        let node = Self::node(&st, child)?.clone();
        let pnode = Self::node(&st, parent)?.clone();
        if node.upper.is_some() {
            let pu = pnode.upper.ok_or(Errno::EIO)?;
            self.upper.unlink(pu, name)?;
        }
        if self.lower_visible(&Self::node(&st, parent)?.clone(), name) {
            let pu = self.ensure_upper_dir(&mut st, parent)?;
            self.make_whiteout(pu, name)?;
        }
        self.drop_node_mappings(&mut st, child);
        st.invalidate_entry(parent, name, true);
        Ok(())
    }

    fn rmdir(&self, parent: Ino, name: &str) -> SysResult<()> {
        validate_name(name)?;
        let mut st = self.state.lock();
        let (child, child_st) = self.merge_child(&mut st, parent, name)?;
        if child_st.ftype != FileType::Directory {
            return Err(Errno::ENOTDIR);
        }
        let node = Self::node(&st, child)?.clone();
        if !self.merged_names(&mut st, child, &node)?.is_empty() {
            return Err(Errno::ENOTEMPTY);
        }
        if let Some(u) = node.upper {
            // The upper dir can only contain whiteouts at this point.
            let leftovers: Vec<String> =
                self.upper.readdir(u)?.into_iter().map(|e| e.name).collect();
            for n in leftovers {
                self.upper.unlink(u, &n)?;
            }
            let pu = Self::node(&st, parent)?.upper.ok_or(Errno::EIO)?;
            self.upper.rmdir(pu, name)?;
        }
        if self.lower_visible(&Self::node(&st, parent)?.clone(), name) {
            let pu = self.ensure_upper_dir(&mut st, parent)?;
            self.make_whiteout(pu, name)?;
        }
        self.drop_node_mappings(&mut st, child);
        st.invalidate_entry(parent, name, true);
        st.dir_cache.remove(&child);
        Ok(())
    }

    fn symlink(&self, parent: Ino, name: &str, target: &str, ctx: &FsContext) -> SysResult<Stat> {
        let mut st = self.state.lock();
        let (pu, _) = self.prepare_create(&mut st, parent, name)?;
        let created = match self.upper.symlink(pu, name, target, ctx) {
            Ok(c) => c,
            Err(e) => {
                st.invalidate_entry(parent, name, false);
                return Err(e);
            }
        };
        Ok(self.register_created(&mut st, parent, name, created))
    }

    fn readlink(&self, ino: Ino) -> SysResult<String> {
        let st = self.state.lock();
        let node = Self::node(&st, ino)?.clone();
        let (k, i) = node.primary();
        self.layer_fs(k).readlink(i)
    }

    fn link(&self, ino: Ino, newparent: Ino, newname: &str) -> SysResult<Stat> {
        validate_name(newname)?;
        let mut st = self.state.lock();
        {
            let node = Self::node(&st, ino)?.clone();
            let (k, i) = node.primary();
            if self.layer_fs(k).getattr(i)?.ftype == FileType::Directory {
                return Err(Errno::EPERM);
            }
        }
        match self.merge_child(&mut st, newparent, newname) {
            Ok(_) => return Err(Errno::EEXIST),
            Err(Errno::ENOENT) => {}
            Err(e) => return Err(e),
        }
        // Hard links require a single real inode: copy the source up first.
        let u = self.copy_up(&mut st, ino, false)?;
        let npu = self.ensure_upper_dir(&mut st, newparent)?;
        self.clear_whiteout(npu, newname)?;
        let stt = match self.upper.link(u, npu, newname) {
            Ok(s) => s,
            Err(e) => {
                st.invalidate_entry(newparent, newname, false);
                return Err(e);
            }
        };
        st.dir_cache.remove(&newparent);
        st.remember_entry(newparent, newname, Some(ino));
        Ok(self.fixup_stat(&mut st, ino, stt))
    }

    fn rename(
        &self,
        parent: Ino,
        name: &str,
        newparent: Ino,
        newname: &str,
        flags: RenameFlags,
    ) -> SysResult<()> {
        validate_name(name)?;
        validate_name(newname)?;
        let mut st = self.state.lock();
        let (src, src_st) = self.merge_child(&mut st, parent, name)?;
        let dst = match self.merge_child(&mut st, newparent, newname) {
            Ok(pair) => Some(pair),
            Err(Errno::ENOENT) => None,
            Err(e) => return Err(e),
        };
        if flags.noreplace && dst.is_some() {
            return Err(Errno::EEXIST);
        }
        if parent == newparent && name == newname {
            return Ok(());
        }
        let src_is_dir = src_st.ftype == FileType::Directory;

        if flags.exchange {
            let (dst_ovl, dst_st) = dst.ok_or(Errno::ENOENT)?;
            if src_is_dir && Self::is_ancestor(&st, src, newparent) {
                return Err(Errno::EINVAL);
            }
            if dst_st.ftype == FileType::Directory && Self::is_ancestor(&st, dst_ovl, parent) {
                return Err(Errno::EINVAL);
            }
            for (ovl, stt) in [(src, &src_st), (dst_ovl, &dst_st)] {
                if stt.ftype == FileType::Directory {
                    self.copy_up_tree(&mut st, ovl)?;
                } else {
                    self.copy_up(&mut st, ovl, false)?;
                }
            }
            let pu = self.ensure_upper_dir(&mut st, parent)?;
            let npu = self.ensure_upper_dir(&mut st, newparent)?;
            self.upper.rename(pu, name, npu, newname, flags)?;
            let dst_name = newname.to_string();
            if let Some(n) = st.nodes.get_mut(&src) {
                n.parent = newparent;
                n.name = dst_name;
            }
            if let Some(n) = st.nodes.get_mut(&dst_ovl) {
                n.parent = parent;
                n.name = name.to_string();
            }
            st.invalidate_entry(parent, name, false);
            st.invalidate_entry(newparent, newname, false);
            return Ok(());
        }

        // Cycle prevention: a directory cannot move under its own subtree.
        if src_is_dir && (src == newparent || Self::is_ancestor(&st, src, newparent)) {
            return Err(Errno::EINVAL);
        }

        let mut dst_had_lower_dir = false;
        if let Some((dst_ovl, dst_st)) = &dst {
            if *dst_ovl == src {
                // Hard links to the same inode: POSIX says remove the
                // source name and succeed.
                drop(st);
                return self.unlink(parent, name);
            }
            let dst_is_dir = dst_st.ftype == FileType::Directory;
            match (src_is_dir, dst_is_dir) {
                (false, true) => return Err(Errno::EISDIR),
                (true, false) => return Err(Errno::ENOTDIR),
                (true, true) => {
                    let dnode = Self::node(&st, *dst_ovl)?.clone();
                    if !self.merged_names(&mut st, *dst_ovl, &dnode)?.is_empty() {
                        return Err(Errno::ENOTEMPTY);
                    }
                    dst_had_lower_dir = !dnode.lowers.is_empty();
                    // Clear whiteout debris so the upper rename's emptiness
                    // check passes.
                    if let Some(du) = dnode.upper {
                        let leftovers: Vec<String> = self
                            .upper
                            .readdir(du)?
                            .into_iter()
                            .map(|e| e.name)
                            .collect();
                        for n in leftovers {
                            self.upper.unlink(du, &n)?;
                        }
                    }
                }
                (false, false) => {
                    dst_had_lower_dir = false;
                }
            }
        }

        // Materialize the source in the upper layer.
        if src_is_dir {
            self.copy_up_tree(&mut st, src)?;
        } else {
            self.copy_up(&mut st, src, false)?;
        }
        let pu = Self::node(&st, parent)?.upper.ok_or(Errno::EIO)?;
        let npu = self.ensure_upper_dir(&mut st, newparent)?;

        match &dst {
            Some((dst_ovl, _)) => {
                let dnode = Self::node(&st, *dst_ovl)?.clone();
                if dnode.upper.is_none() {
                    // Destination visible only in lower layers: nothing to
                    // replace in upper; the renamed entry will shadow it.
                    self.clear_whiteout(npu, newname)?;
                }
            }
            None => {
                self.clear_whiteout(npu, newname)?;
            }
        }
        if let Err(e) = self.upper.rename(pu, name, npu, newname, RenameFlags::NONE) {
            // Whiteout clearing may already have happened: drop both names
            // from the cache so lookups re-merge the real state.
            st.invalidate_entry(parent, name, false);
            st.invalidate_entry(newparent, newname, false);
            return Err(e);
        }

        // The vacated source name may still be visible from lower layers.
        if self.lower_visible(&Self::node(&st, parent)?.clone(), name) {
            self.make_whiteout(pu, name)?;
        }
        // A directory renamed over a merged lower directory must not absorb
        // its entries.
        if src_is_dir && dst_had_lower_dir {
            let su = Self::node(&st, src)?.upper.ok_or(Errno::EIO)?;
            self.upper
                .setxattr(su, OPAQUE_XATTR, b"y", XattrFlags::Any)?;
        }

        if let Some((dst_ovl, _)) = dst {
            self.drop_node_mappings(&mut st, dst_ovl);
        }
        if let Some(n) = st.nodes.get_mut(&src) {
            n.parent = newparent;
            n.name = newname.to_string();
            n.lowers.clear();
        }
        // The vacated source name now resolves to ENOENT (moved away, or
        // hidden by the whiteout just created); the destination maps to the
        // moved node.
        st.invalidate_entry(parent, name, true);
        st.dir_cache.remove(&newparent);
        st.remember_entry(newparent, newname, Some(src));
        Ok(())
    }

    fn open(&self, ino: Ino, flags: OpenFlags) -> SysResult<Fh> {
        let mut st = self.state.lock();
        let node = Self::node(&st, ino)?.clone();
        let (k, i) = node.primary();
        let stt = self.layer_fs(k).getattr(i)?;
        let (layer, real_ino) = if flags.mode.writable()
            && matches!(k, LayerKey::Lower(_))
            && stt.ftype != FileType::Directory
        {
            let skip = flags.contains(OpenFlags::TRUNC) || stt.ftype != FileType::Regular;
            let u = self.copy_up(&mut st, ino, skip)?;
            (LayerKey::Upper, u)
        } else {
            (k, i)
        };
        let real_fh = self.layer_fs(layer).open(real_ino, flags)?;
        if self.track_access.load(Ordering::Relaxed) && flags.mode.readable() {
            let path = Self::path_of(&st, ino);
            st.accessed.insert(path);
        }
        let fh = Fh(st.next_fh);
        st.next_fh += 1;
        st.handles.insert(
            fh,
            OvlHandle {
                layer,
                real_ino,
                real_fh,
            },
        );
        Ok(fh)
    }

    fn release(&self, _ino: Ino, fh: Fh) -> SysResult<()> {
        let mut st = self.state.lock();
        let h = st.handles.remove(&fh).ok_or(Errno::EBADF)?;
        self.layer_fs(h.layer).release(h.real_ino, h.real_fh)
    }

    fn read(&self, _ino: Ino, fh: Fh, offset: u64, buf: &mut [u8]) -> SysResult<usize> {
        let st = self.state.lock();
        let h = st.handles.get(&fh).ok_or(Errno::EBADF)?;
        let (layer, real_ino, real_fh) = (h.layer, h.real_ino, h.real_fh);
        drop(st);
        self.layer_fs(layer).read(real_ino, real_fh, offset, buf)
    }

    fn write(&self, _ino: Ino, fh: Fh, offset: u64, data: &[u8]) -> SysResult<usize> {
        let st = self.state.lock();
        let h = st.handles.get(&fh).ok_or(Errno::EBADF)?;
        let (layer, real_ino, real_fh) = (h.layer, h.real_ino, h.real_fh);
        drop(st);
        if matches!(layer, LayerKey::Lower(_)) {
            // A lower handle is never writable (copy-up happens at open).
            return Err(Errno::EBADF);
        }
        self.layer_fs(layer).write(real_ino, real_fh, offset, data)
    }

    fn read_bytes(&self, _ino: Ino, fh: Fh, offset: u64, len: usize) -> SysResult<bytes::Bytes> {
        // The splice path passes straight through to the layer that holds
        // the bytes (blob-backed layers answer with chunk slices, no copy).
        let st = self.state.lock();
        let h = st.handles.get(&fh).ok_or(Errno::EBADF)?;
        let (layer, real_ino, real_fh) = (h.layer, h.real_ino, h.real_fh);
        drop(st);
        self.layer_fs(layer)
            .read_bytes(real_ino, real_fh, offset, len)
    }

    fn write_bytes(&self, _ino: Ino, fh: Fh, offset: u64, data: bytes::Bytes) -> SysResult<usize> {
        let st = self.state.lock();
        let h = st.handles.get(&fh).ok_or(Errno::EBADF)?;
        let (layer, real_ino, real_fh) = (h.layer, h.real_ino, h.real_fh);
        drop(st);
        if matches!(layer, LayerKey::Lower(_)) {
            return Err(Errno::EBADF);
        }
        self.layer_fs(layer)
            .write_bytes(real_ino, real_fh, offset, data)
    }

    fn fsync(&self, _ino: Ino, fh: Fh, datasync: bool) -> SysResult<()> {
        let st = self.state.lock();
        let h = st.handles.get(&fh).ok_or(Errno::EBADF)?;
        let (layer, real_ino, real_fh) = (h.layer, h.real_ino, h.real_fh);
        drop(st);
        self.layer_fs(layer).fsync(real_ino, real_fh, datasync)
    }

    fn readdir(&self, ino: Ino) -> SysResult<Vec<Dirent>> {
        let mut st = self.state.lock();
        let node = Self::node(&st, ino)?.clone();
        let (k, i) = node.primary();
        if self.layer_fs(k).getattr(i)?.ftype != FileType::Directory {
            return Err(Errno::ENOTDIR);
        }
        let names = self.merged_names(&mut st, ino, &node)?;
        let mut out = Vec::with_capacity(names.len());
        for (name, _) in names {
            let (child_ino, child_st) = self.merge_child(&mut st, ino, &name)?;
            out.push(Dirent {
                ino: child_ino,
                name,
                ftype: child_st.ftype,
            });
        }
        Ok(out)
    }

    fn statfs(&self) -> SysResult<Statfs> {
        self.upper.statfs()
    }

    fn getxattr(&self, ino: Ino, name: &str) -> SysResult<Vec<u8>> {
        if name == OPAQUE_XATTR {
            return Err(Errno::ENODATA);
        }
        let st = self.state.lock();
        let node = Self::node(&st, ino)?.clone();
        let (k, i) = node.primary();
        self.layer_fs(k).getxattr(i, name)
    }

    fn setxattr(&self, ino: Ino, name: &str, value: &[u8], flags: XattrFlags) -> SysResult<()> {
        if name.starts_with("trusted.overlay.") {
            return Err(Errno::EPERM);
        }
        let mut st = self.state.lock();
        let node = Self::node(&st, ino)?.clone();
        let (k, i) = node.primary();
        let up = match node.upper {
            Some(u) => u,
            None => {
                if self.layer_fs(k).getattr(i)?.ftype == FileType::Directory {
                    self.ensure_upper_dir(&mut st, ino)?
                } else {
                    self.copy_up(&mut st, ino, false)?
                }
            }
        };
        self.upper.setxattr(up, name, value, flags)
    }

    fn listxattr(&self, ino: Ino) -> SysResult<Vec<String>> {
        let st = self.state.lock();
        let node = Self::node(&st, ino)?.clone();
        let (k, i) = node.primary();
        Ok(self
            .layer_fs(k)
            .listxattr(i)?
            .into_iter()
            .filter(|n| !n.starts_with("trusted.overlay."))
            .collect())
    }

    fn removexattr(&self, ino: Ino, name: &str) -> SysResult<()> {
        if name.starts_with("trusted.overlay.") {
            return Err(Errno::ENODATA);
        }
        let mut st = self.state.lock();
        let node = Self::node(&st, ino)?.clone();
        let (k, i) = node.primary();
        let up = match node.upper {
            Some(u) => u,
            None => {
                if self.layer_fs(k).getattr(i)?.ftype == FileType::Directory {
                    self.ensure_upper_dir(&mut st, ino)?
                } else {
                    self.copy_up(&mut st, ino, false)?
                }
            }
        };
        self.upper.removexattr(up, name)
    }

    fn fallocate(
        &self,
        _ino: Ino,
        fh: Fh,
        offset: u64,
        len: u64,
        mode: FallocateMode,
    ) -> SysResult<()> {
        let st = self.state.lock();
        let h = st.handles.get(&fh).ok_or(Errno::EBADF)?;
        let (layer, real_ino, real_fh) = (h.layer, h.real_ino, h.real_fh);
        drop(st);
        if matches!(layer, LayerKey::Lower(_)) {
            return Err(Errno::EBADF);
        }
        self.layer_fs(layer)
            .fallocate(real_ino, real_fh, offset, len, mode)
    }
}
