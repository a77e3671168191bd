//! Kernel tables: the locking layer under [`crate::Kernel`].
//!
//! The kernel state is split into subsystems, each behind one lock, so a
//! syscall holds only the table it touches:
//!
//! * `ProcTable` — the process table, one `Mutex<IdMap<Pid, Process>>`.
//! * `MountTable` — a copy-on-write registry of mount namespaces, one
//!   `RwLock<IdMap<NamespaceId, Arc<MountNs>>>`. A path walk takes the
//!   read lock just long enough to clone one namespace's `Arc` and then
//!   walks that immutable snapshot, so a concurrent umount cannot change
//!   a walk mid-way. `mount`/`umount` take the write lock and change the
//!   namespace through `Arc::make_mut`: in place when no snapshot is
//!   outstanding, on a fresh copy otherwise.
//! * `NsRefs` — per-namespace process reference counts, keyed by
//!   `(kind, id)`. Namespace lifetime is driven by these counts (like
//!   Linux's `nsproxy`): `fork` retains the child's whole set, `reap`
//!   releases it, `unshare`/`setns` *move* single references. When a
//!   count hits zero the namespace is dead and its backing state (mount
//!   table, hostname, bound sockets, fanotify recorder) is reclaimed.
//!
//! Id allocators (`next_pid`, `next_ns`, `next_mount`) are atomics; the
//! remaining small subsystems (cgroups, hostnames, bound sockets, fanotify)
//! each get their own lock on the kernel inner state.
//!
//! # Lock-ordering discipline
//!
//! Deadlock freedom rests on two rules, observed by every call site:
//!
//! 1. **Subsystem locks never nest.** Cross-subsystem operations
//!    (`fork` + cgroup attach, `unshare` + mount-table clone, `setns`)
//!    copy what they need out of one subsystem, release it, then touch the
//!    next — in the canonical order *processes → mounts → cgroups /
//!    hostnames / sockets / fanotify*. No table lock is ever taken twice:
//!    a closure run under one (`with_proc*`, `with_write`) never calls
//!    back into the same table.
//! 2. **The `NsRefs` lock is a leaf.** It is the one exception to rule 1:
//!    it *may* be acquired while the process table is held — refcount
//!    transitions must commit atomically with the `NamespaceSet` write
//!    they describe, or a concurrent `reap` could release references that
//!    were never retained — and nothing is ever acquired while holding
//!    it. Reclamation of the backing state of a dead namespace (the
//!    registry write, the `Arc` drops) happens strictly *after* both the
//!    process table and the `NsRefs` lock are released.
//!
//! # Refcount rules
//!
//! * Every process in the table (running *or* zombie) holds exactly one
//!   reference on each of the seven `(kind, id)` pairs of its
//!   `NamespaceSet`. References are released at `reap`, not `exit` — a
//!   zombie's namespaces stay observable through `/proc` until reaped.
//! * `unshare` registers the fresh namespace's backing state *before*
//!   attaching it; the reference moves old → new inside the process-table
//!   closure (`NsRefs::transfer`). If attaching fails (the process was
//!   reaped concurrently) the fresh namespace has zero refs and is fed to
//!   the same GC path as any dead namespace.
//! * `setns` adoption pins the target namespaces with
//!   `NsRefs::adopt_set`, which refuses (`ESRCH`) unless every target
//!   count is still positive — a namespace observed at zero has been (or
//!   is being) reclaimed and can never be resurrected.

use crate::mount::{MountId, MountNs};
use crate::ns::{NamespaceId, NamespaceKind, NamespaceSet, ALL_KINDS};
use crate::process::Process;
use cntr_types::{DevId, Errno, IdMap, IdSet, Pid, SysResult};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Lock-class names of the kernel's subsystem locks, in documented rank
/// order. The names live here, next to the prose discipline above, and
/// `declare_lock_discipline` feeds the same table to the lockdep
/// checker — so the comment and the enforcement can never drift apart.
pub mod lock_class {
    /// The process table (rank 0).
    pub const PROCS: &str = "kernel.procs";
    /// The mount-namespace registry (rank 1).
    pub const MOUNTS_REGISTRY: &str = "kernel.mounts.registry";
    /// The cgroup tree (leaf rank).
    pub const CGROUPS: &str = "kernel.cgroups";
    /// Per-namespace UTS hostnames (leaf rank).
    pub const HOSTNAMES: &str = "kernel.hostnames";
    /// Bound unix-socket nodes (leaf rank).
    pub const SOCKET_NODES: &str = "kernel.socket_nodes";
    /// Fanotify recorders (leaf rank).
    pub const FANOTIFY: &str = "kernel.fanotify";
    /// The backing tables and inode I/O modes of FUSE passthrough
    /// connections (leaf rank): no backing file is opened or released,
    /// and no filesystem called, while it is held.
    pub const FUSE_BACKING: &str = "kernel.fuse_backing";
    /// Namespace refcounts (leaf rank; the rule-2 exception — may nest
    /// under the process table, never acquires anything itself).
    pub const NS_REFS: &str = "kernel.ns_refs";
    /// The rendered snapshots of `/proc`'s open files (leaf rank): held
    /// only to look up, store or drop one; a file renders, reading the
    /// process and mount tables, before it is taken.
    pub const PROCFS_OPEN: &str = "kernel.procfs_open";
    /// The page-cache LRU state (rank 3): page slots, the active/inactive
    /// lists and the per-file dirty indexes. Ranked *above* every subsystem
    /// lock so teardown paths (namespace GC, unmount) that reach the cache
    /// while a ranked kernel lock is held stay ascending-legal; nothing is
    /// ever acquired while holding it — every fill, write-back and
    /// `FileRef` drop happens after it is released.
    pub const PAGECACHE_LRU: &str = "pagecache.lru";
}

/// Encodes the module-level lock-ordering discipline into the lockdep
/// checker: the subsystem rank order is *processes → mount registry →
/// leaf subsystems*, with distinct leaf subsystems forbidden to nest
/// (rules 1–2); taking any one of these locks twice is a same-class
/// double acquisition. Idempotent; runs on every table construction so no
/// test can boot a kernel that escapes the discipline.
pub(crate) fn declare_lock_discipline() {
    lockdep::ordering(&[
        &[lock_class::PROCS],
        &[lock_class::MOUNTS_REGISTRY],
        &[
            lock_class::CGROUPS,
            lock_class::HOSTNAMES,
            lock_class::SOCKET_NODES,
            lock_class::FANOTIFY,
            lock_class::FUSE_BACKING,
            lock_class::NS_REFS,
            lock_class::PROCFS_OPEN,
        ],
        &[lock_class::PAGECACHE_LRU],
    ]);
}

/// The process table: every process, behind one lock.
pub(crate) struct ProcTable {
    procs: Mutex<IdMap<Pid, Process>>,
    next_pid: AtomicU32,
}

impl ProcTable {
    /// Creates a table holding `init` as pid 1.
    pub fn new(init: Process) -> ProcTable {
        declare_lock_discipline();
        ProcTable {
            procs: Mutex::new_class(lock_class::PROCS, IdMap::from_iter([(init.pid, init)])),
            next_pid: AtomicU32::new(2),
        }
    }

    /// Allocates a fresh pid. Atomic: concurrent forks can never hand out
    /// the same pid twice (a fork that later fails burns its pid, as the
    /// real kernel may).
    pub fn alloc_pid(&self) -> Pid {
        Pid(self.next_pid.fetch_add(1, Ordering::Relaxed))
    }

    /// Runs `f` over the process under the table lock.
    pub fn with<T>(&self, pid: Pid, f: impl FnOnce(&Process) -> SysResult<T>) -> SysResult<T> {
        let procs = self.procs.lock();
        f(procs.get(&pid).ok_or(Errno::ESRCH)?)
    }

    /// Runs `f` over the process mutably under the table lock.
    pub fn with_mut<T>(
        &self,
        pid: Pid,
        f: impl FnOnce(&mut Process) -> SysResult<T>,
    ) -> SysResult<T> {
        let mut procs = self.procs.lock();
        f(procs.get_mut(&pid).ok_or(Errno::ESRCH)?)
    }

    /// True if the pid is in the table (any lifecycle state).
    pub fn contains(&self, pid: Pid) -> bool {
        self.procs.lock().contains_key(&pid)
    }

    /// Locks the whole table, for compound operations (`fork`'s
    /// read-parent-insert-child, `reap`'s check-and-remove).
    pub fn lock(&self) -> MutexGuard<'_, IdMap<Pid, Process>> {
        self.procs.lock()
    }

    /// All pids, ordered: one atomic view of the table.
    pub fn pids(&self) -> Vec<Pid> {
        let mut v: Vec<Pid> = self.procs.lock().keys().copied().collect();
        v.sort_unstable();
        v
    }
}

/// The mount namespaces, copy-on-write behind one reader/writer lock.
pub(crate) struct MountTable {
    namespaces: RwLock<IdMap<NamespaceId, Arc<MountNs>>>,
    next_mount: AtomicU64,
}

impl MountTable {
    /// Creates the registry holding namespace 1's table.
    pub fn new(root: MountNs) -> MountTable {
        MountTable {
            namespaces: RwLock::new_class(
                lock_class::MOUNTS_REGISTRY,
                IdMap::from_iter([(root.id, Arc::new(root))]),
            ),
            next_mount: AtomicU64::new(2),
        }
    }

    /// Allocates a fresh mount id (atomic, lock-free).
    pub fn alloc_mount_id(&self) -> MountId {
        MountId(self.next_mount.fetch_add(1, Ordering::Relaxed))
    }

    /// Registers a new namespace's mount table.
    pub fn insert(&self, ns: MountNs) {
        self.namespaces.write().insert(ns.id, Arc::new(ns));
    }

    /// Deregisters a namespace, returning its table so the caller can drop
    /// it — and the filesystem `Arc`s it pins — *outside* the registry
    /// lock. Called by namespace GC when the last process reference dies.
    #[must_use = "drop the returned table outside any kernel lock"]
    pub fn remove(&self, id: NamespaceId) -> Option<Arc<MountNs>> {
        self.namespaces.write().remove(&id)
    }

    /// Number of registered namespaces.
    pub fn len(&self) -> usize {
        self.namespaces.read().len()
    }

    /// One namespace's table as it is now. Path resolution walks this
    /// immutable snapshot; a later `with_write` leaves it untouched.
    pub fn snapshot(&self, id: NamespaceId) -> SysResult<Arc<MountNs>> {
        self.namespaces
            .read()
            .get(&id)
            .cloned()
            .ok_or(Errno::EINVAL)
    }

    /// Runs `f` over one namespace's table under the registry write lock,
    /// copying the table first only if a snapshot of it is outstanding.
    pub fn with_write<T>(
        &self,
        id: NamespaceId,
        f: impl FnOnce(&mut MountNs) -> SysResult<T>,
    ) -> SysResult<T> {
        let mut namespaces = self.namespaces.write();
        let ns = namespaces.get_mut(&id).ok_or(Errno::EINVAL)?;
        f(Arc::make_mut(ns))
    }

    /// Runs `f` over the whole registry under its write lock (mount
    /// propagation into shared peers). A namespace `f` changes goes
    /// through `Arc::make_mut`, as in [`MountTable::with_write`].
    pub fn with_all_write<T>(
        &self,
        f: impl FnOnce(&mut IdMap<NamespaceId, Arc<MountNs>>) -> T,
    ) -> T {
        f(&mut self.namespaces.write())
    }

    /// The filesystems mounted in any registered namespace, read under
    /// one registry read lock.
    pub fn live_devs(&self) -> IdSet<DevId> {
        self.namespaces
            .read()
            .values()
            .flat_map(|ns| ns.iter().map(|m| m.fs.fs_id()))
            .collect()
    }

    /// Ids of every registered namespace.
    pub fn ids(&self) -> Vec<NamespaceId> {
        let mut v: Vec<NamespaceId> = self.namespaces.read().keys().copied().collect();
        v.sort_unstable();
        v
    }
}

/// Per-namespace process reference counts (the simulation's `nsproxy`).
///
/// One count per `(kind, id)` pair: namespace ids are unique across kinds
/// *except* for the boot namespace, where id 1 names all seven initial
/// namespaces — hence the kind in the key. A count reaching zero removes
/// the entry; the caller receives the dead pair and reclaims its backing
/// state outside this lock (rule 4 of the module discipline).
pub(crate) struct NsRefs {
    counts: Mutex<IdMap<(NamespaceKind, NamespaceId), u64>>,
}

impl NsRefs {
    /// Creates the table holding one reference per kind for `init`'s set.
    pub fn new(init: &NamespaceSet) -> NsRefs {
        let refs = NsRefs {
            counts: Mutex::new_class(lock_class::NS_REFS, IdMap::default()),
        };
        refs.retain_set(init);
        refs
    }

    /// Takes one reference on every `(kind, id)` of `set` — what a process
    /// acquires at `fork` (the parent's live references guarantee the
    /// entries exist; boot creates them).
    pub fn retain_set(&self, set: &NamespaceSet) {
        let mut counts = self.counts.lock();
        for kind in ALL_KINDS {
            *counts.entry((kind, set.get(kind))).or_insert(0) += 1;
        }
    }

    /// Drops one reference on every `(kind, id)` of `set` — what `reap`
    /// releases. Returns the pairs whose count reached zero: those
    /// namespaces are dead and must be garbage-collected by the caller.
    pub fn release_set(&self, set: &NamespaceSet) -> Vec<(NamespaceKind, NamespaceId)> {
        let mut counts = self.counts.lock();
        let mut dead = Vec::new();
        for kind in ALL_KINDS {
            if Self::release_one(&mut counts, kind, set.get(kind)) {
                dead.push((kind, set.get(kind)));
            }
        }
        dead
    }

    /// Moves one reference from `old` to `new` for `kind` — the `unshare`
    /// transition. `new` is a freshly allocated id, so its entry is
    /// created here. Returns the dead pair if `old`'s count hit zero.
    pub fn transfer(
        &self,
        kind: NamespaceKind,
        old: NamespaceId,
        new: NamespaceId,
    ) -> Option<(NamespaceKind, NamespaceId)> {
        if old == new {
            return None;
        }
        let mut counts = self.counts.lock();
        *counts.entry((kind, new)).or_insert(0) += 1;
        Self::release_one(&mut counts, kind, old).then_some((kind, old))
    }

    /// Atomically adopts a set of existing namespaces — the `setns`
    /// transition. Every `(kind, new)` must still be alive (count > 0):
    /// a namespace at zero has been handed to GC and can never be
    /// resurrected, so the whole adoption fails with `ESRCH`. On success
    /// each reference moves old → new; returns the old pairs that died.
    pub fn adopt_set(
        &self,
        moves: &[(NamespaceKind, NamespaceId, NamespaceId)],
    ) -> SysResult<Vec<(NamespaceKind, NamespaceId)>> {
        let mut counts = self.counts.lock();
        for &(kind, old, new) in moves {
            if old != new && counts.get(&(kind, new)).copied().unwrap_or(0) == 0 {
                return Err(Errno::ESRCH);
            }
        }
        let mut dead = Vec::new();
        for &(kind, old, new) in moves {
            if old == new {
                continue;
            }
            *counts.entry((kind, new)).or_insert(0) += 1;
            if Self::release_one(&mut counts, kind, old) {
                dead.push((kind, old));
            }
        }
        Ok(dead)
    }

    fn release_one(
        counts: &mut IdMap<(NamespaceKind, NamespaceId), u64>,
        kind: NamespaceKind,
        id: NamespaceId,
    ) -> bool {
        match counts.get_mut(&(kind, id)) {
            Some(c) if *c > 1 => {
                *c -= 1;
                false
            }
            Some(_) => {
                counts.remove(&(kind, id));
                true
            }
            None => {
                debug_assert!(false, "released a reference never retained: {kind} {id}");
                false
            }
        }
    }

    /// Process count of one namespace (0 = dead / never existed).
    pub fn count(&self, kind: NamespaceKind, id: NamespaceId) -> u64 {
        self.counts
            .lock()
            .get(&(kind, id))
            .copied()
            .unwrap_or_default()
    }

    /// Number of live `(kind, id)` entries (7 on a freshly booted machine).
    pub fn len(&self) -> usize {
        self.counts.lock().len()
    }

    /// All live entries, sorted by id then kind order (for `/proc`).
    pub fn snapshot(&self) -> Vec<(NamespaceKind, NamespaceId, u64)> {
        let kind_pos = |k: NamespaceKind| ALL_KINDS.iter().position(|&x| x == k).unwrap_or(0);
        let mut v: Vec<(NamespaceKind, NamespaceId, u64)> = self
            .counts
            .lock()
            .iter()
            .map(|(&(kind, id), &count)| (kind, id, count))
            .collect();
        v.sort_unstable_by_key(|&(kind, id, _)| (id, kind_pos(kind)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgroup::CgroupPath;
    use crate::cred::Credentials;
    use crate::ns::NamespaceSet;
    use crate::process::{ProcessState, VfsLoc};
    use cntr_types::{Ino, RlimitSet};
    use std::collections::BTreeMap;

    fn proc(pid: Pid) -> Process {
        Process {
            pid,
            ppid: Pid(0),
            name: "p".into(),
            creds: Credentials::host_root(),
            ns: NamespaceSet::uniform(NamespaceId(1)),
            cwd: VfsLoc {
                mount: MountId(1),
                ino: Ino::ROOT,
            },
            cwd_stack: Vec::new(),
            root: VfsLoc {
                mount: MountId(1),
                ino: Ino::ROOT,
            },
            env: BTreeMap::new(),
            rlimits: RlimitSet::default(),
            fds: cntr_types::IdMap::default(),
            next_fd: 0,
            cgroup: CgroupPath::root(),
            state: ProcessState::Running,
        }
    }

    #[test]
    fn alloc_pid_is_unique_across_threads() {
        let t = Arc::new(ProcTable::new(proc(Pid(1))));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                (0..200).map(|_| t.alloc_pid()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<Pid> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate pid handed out");
    }

    #[test]
    fn ns_refs_retain_release_roundtrip() {
        let init = NamespaceSet::uniform(NamespaceId(1));
        let refs = NsRefs::new(&init);
        assert_eq!(refs.len(), 7);
        assert_eq!(refs.count(NamespaceKind::Mount, NamespaceId(1)), 1);
        refs.retain_set(&init); // fork
        assert_eq!(refs.count(NamespaceKind::Mount, NamespaceId(1)), 2);
        assert!(refs.release_set(&init).is_empty(), "init still holds refs");
        // Releasing the last holder reports every pair dead.
        let dead = refs.release_set(&init);
        assert_eq!(dead.len(), 7);
        assert_eq!(refs.len(), 0);
    }

    #[test]
    fn ns_refs_transfer_creates_new_and_kills_old() {
        let init = NamespaceSet::uniform(NamespaceId(1));
        let refs = NsRefs::new(&init);
        // A second process unshares its mount namespace.
        let mut child = init;
        refs.retain_set(&child);
        assert_eq!(
            refs.transfer(NamespaceKind::Mount, child.mount, NamespaceId(2)),
            None,
            "init still references mount ns 1"
        );
        child.set(NamespaceKind::Mount, NamespaceId(2));
        assert_eq!(refs.count(NamespaceKind::Mount, NamespaceId(2)), 1);
        // Unsharing again abandons ns 2 — its sole reference moves away.
        assert_eq!(
            refs.transfer(NamespaceKind::Mount, NamespaceId(2), NamespaceId(3)),
            Some((NamespaceKind::Mount, NamespaceId(2)))
        );
        assert_eq!(refs.count(NamespaceKind::Mount, NamespaceId(2)), 0);
    }

    #[test]
    fn ns_refs_adopt_refuses_dead_namespace() {
        let init = NamespaceSet::uniform(NamespaceId(1));
        let refs = NsRefs::new(&init);
        // Nothing ever lived in ns 9: adoption must fail atomically.
        let moves = [
            (NamespaceKind::Mount, NamespaceId(1), NamespaceId(9)),
            (NamespaceKind::Uts, NamespaceId(1), NamespaceId(1)),
        ];
        assert_eq!(refs.adopt_set(&moves), Err(Errno::ESRCH));
        // The failed adoption must not have touched any count.
        assert_eq!(refs.count(NamespaceKind::Mount, NamespaceId(1)), 1);
        assert_eq!(refs.len(), 7);
        // Adopting a live namespace moves the reference.
        refs.transfer(NamespaceKind::Mount, NamespaceId(1), NamespaceId(2));
        // (init now in mount ns 2; a forked process in ns 2 adopts... back
        // to a dead ns 1 must fail, self-moves are no-ops.)
        assert_eq!(
            refs.adopt_set(&[(NamespaceKind::Mount, NamespaceId(2), NamespaceId(1))]),
            Err(Errno::ESRCH),
            "mount ns 1 died when its last reference moved away"
        );
        assert_eq!(
            refs.adopt_set(&[(NamespaceKind::Mount, NamespaceId(2), NamespaceId(2))]),
            Ok(Vec::new())
        );
    }

    #[test]
    fn mount_table_remove_returns_table_for_deferred_drop() {
        use cntr_fs::memfs::memfs;
        use cntr_types::{DevId, SimClock};
        let root = MountNs::new(NamespaceId(1), MountId(1), memfs(DevId(1), SimClock::new()));
        let t = MountTable::new(root);
        let clone = t
            .snapshot(NamespaceId(1))
            .unwrap()
            .clone_for(NamespaceId(2));
        t.insert(clone);
        assert_eq!(t.len(), 2);
        let removed = t.remove(NamespaceId(2)).expect("registered above");
        assert_eq!(t.len(), 1);
        assert_eq!(removed.id, NamespaceId(2));
        assert!(t.remove(NamespaceId(2)).is_none());
    }

    #[test]
    fn mount_table_snapshot_missing_ns() {
        use cntr_fs::memfs::memfs;
        use cntr_types::{DevId, SimClock};
        let ns = MountNs::new(NamespaceId(1), MountId(1), memfs(DevId(1), SimClock::new()));
        let t = MountTable::new(ns);
        assert!(t.snapshot(NamespaceId(1)).is_ok());
        assert_eq!(t.snapshot(NamespaceId(9)).map(|_| ()), Err(Errno::EINVAL));
        assert_eq!(t.ids(), vec![NamespaceId(1)]);
        assert_eq!(t.alloc_mount_id(), MountId(2));
        assert_eq!(t.alloc_mount_id(), MountId(3));
    }

    /// A snapshot is immutable: a `with_write` after it copies the table
    /// and leaves the snapshot as it was; with no snapshot outstanding the
    /// write changes the registered table in place.
    #[test]
    fn mount_table_writes_copy_only_under_a_snapshot() {
        use crate::mount::{CacheMode, MountFlags};
        use cntr_fs::{memfs::memfs, Filesystem};
        use cntr_types::{DevId, Ino, SimClock};
        let fs: Arc<dyn Filesystem> = memfs(DevId(1), SimClock::new());
        let ns = MountNs::new(NamespaceId(1), MountId(1), Arc::clone(&fs));
        let t = MountTable::new(ns);
        let add = |ns: &mut MountNs, id: MountId| {
            let cache = CacheMode::for_mount(fs.features(), MountFlags::default());
            let flags = MountFlags::default();
            ns.add_mount(
                id,
                Arc::clone(&fs),
                Ino::ROOT,
                MountId(1),
                Ino::ROOT,
                cache,
                flags,
            )
        };

        let before = t.snapshot(NamespaceId(1)).unwrap();
        let id = t.alloc_mount_id();
        t.with_write(NamespaceId(1), |ns| add(ns, id)).unwrap();
        assert_eq!(before.len(), 1, "the old snapshot keeps the old mounts");
        assert!(before.get(id).is_err());
        let after = t.snapshot(NamespaceId(1)).unwrap();
        assert_eq!(after.len(), 2, "the next snapshot shows the new mount");
        assert!(after.get(id).is_ok());
        assert!(!Arc::ptr_eq(&before, &after));

        drop((before, after));
        let current = Arc::as_ptr(&t.snapshot(NamespaceId(1)).unwrap());
        let id = t.alloc_mount_id();
        t.with_write(NamespaceId(1), |ns| add(ns, id)).unwrap();
        let now = t.snapshot(NamespaceId(1)).unwrap();
        assert!(std::ptr::eq(current, Arc::as_ptr(&now)), "mutated in place");
        assert_eq!(now.len(), 3);
    }
}
