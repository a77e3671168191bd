//! Sharded kernel tables: the fine-grained locking layer under [`crate::Kernel`].
//!
//! The kernel used to serialize every syscall on a single `Mutex<KState>`.
//! That was correct but made hundreds of containers impossible to *run*
//! concurrently: two processes could not even `getenv` at the same time.
//! This module splits the state into independently locked subsystems:
//!
//! * `ProcTable` — the process table, sharded over a fixed power-of-two
//!   array of mutexes keyed by `pid % shards`. Syscalls touching one
//!   process lock one shard; unrelated pids proceed in parallel.
//! * `MountTable` — one `RwLock<MountNs>` per mount namespace behind an
//!   outer `RwLock` registry. Path resolution (read-mostly) takes read
//!   locks only, so `mount`/`umount` in one container no longer blocks
//!   lookups in every other container.
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
//! Deadlock freedom rests on four rules, observed by every call site:
//!
//! 1. **At most one process shard is locked directly.** The only way to
//!    hold two is `ProcTable::lock_pair`, which acquires them in
//!    ascending shard-index order (`fork` uses this so a `/proc` snapshot
//!    never observes a child without its parent mid-fork).
//! 2. **Subsystem locks never nest.** Cross-subsystem operations
//!    (`fork` + cgroup attach, `unshare` + mount-table clone, `setns`)
//!    copy what they need out of one subsystem, release it, then touch the
//!    next — in the canonical order *processes → mounts → cgroups /
//!    hostnames / sockets / fanotify*.
//! 3. **Mount locks go outer-before-inner, one namespace at a time.** The
//!    registry read lock is dropped before an inner `MountNs` lock is
//!    taken (the `Arc` keeps the namespace alive), and no thread ever
//!    holds two inner mount locks simultaneously (propagation walks peers
//!    sequentially).
//! 4. **The `NsRefs` lock is a leaf.** It is the one exception to rule 2:
//!    it *may* be acquired while a process shard is held — refcount
//!    transitions must commit atomically with the `NamespaceSet` write
//!    they describe, or a concurrent `reap` could release references that
//!    were never retained — and nothing is ever acquired while holding
//!    it. Reclamation of the backing state of a dead namespace (the
//!    registry write, the `Arc` drops) happens strictly *after* both the
//!    shard and the `NsRefs` lock are released.
//!
//! # Refcount rules
//!
//! * Every process in the table (running *or* zombie) holds exactly one
//!   reference on each of the seven `(kind, id)` pairs of its
//!   `NamespaceSet`. References are released at `reap`, not `exit` — a
//!   zombie's namespaces stay observable through `/proc` until reaped.
//! * `unshare` registers the fresh namespace's backing state *before*
//!   attaching it; the reference moves old → new inside the process-shard
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
use cntr_types::{Errno, Pid, SysResult};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Default number of process-table shards (a power of two).
pub const DEFAULT_PROC_SHARDS: usize = 16;

/// Lock-class names of the kernel's subsystem locks, in documented rank
/// order. The names live here, next to the prose discipline above, and
/// `declare_lock_discipline` feeds the same table to the lockdep
/// checker — so the comment and the enforcement can never drift apart.
pub mod lock_class {
    /// One pid shard of the process table (rank 0; sharded-ascending).
    pub const PROC_SHARD: &str = "kernel.proc_shard";
    /// The outer mount-namespace registry (rank 1).
    pub const MOUNTS_REGISTRY: &str = "kernel.mounts.registry";
    /// One namespace's inner mount table (rank 2; never two at once).
    pub const MOUNTS_NS: &str = "kernel.mounts.ns";
    /// The cgroup tree (leaf rank).
    pub const CGROUPS: &str = "kernel.cgroups";
    /// Per-namespace UTS hostnames (leaf rank).
    pub const HOSTNAMES: &str = "kernel.hostnames";
    /// Bound unix-socket nodes (leaf rank).
    pub const SOCKET_NODES: &str = "kernel.socket_nodes";
    /// Fanotify recorders (leaf rank).
    pub const FANOTIFY: &str = "kernel.fanotify";
    /// Namespace refcounts (leaf rank; the rule-4 exception — may nest
    /// under a process shard, never acquires anything itself).
    pub const NS_REFS: &str = "kernel.ns_refs";
    /// The page-cache LRU state (rank 4): page slots, the active/inactive
    /// lists and the per-file dirty indexes. Ranked *above* every subsystem
    /// lock so teardown paths (namespace GC, unmount) that reach the cache
    /// while a ranked kernel lock is held stay ascending-legal; nothing is
    /// ever acquired while holding it — every fill, write-back and
    /// `FileRef` drop happens after it is released.
    pub const PAGECACHE_LRU: &str = "pagecache.lru";
    /// The background-flusher control block (rank 5): thread handle of the
    /// kworker-style write-back thread. Taken only to spawn or wake the
    /// flusher — never while the flusher itself runs, and never across its
    /// park point.
    pub const PAGECACHE_FLUSHER: &str = "pagecache.flusher";
}

/// Encodes the module-level lock-ordering discipline into the lockdep
/// checker: the pid-shard class takes ascending instance ranks only
/// (rule 1, the `lock_pair` idiom), and the subsystem rank order is
/// *processes → mount registry → mount ns → leaf subsystems*, with
/// distinct leaf subsystems forbidden to nest (rules 2–4). Idempotent;
/// runs on every table construction so no test can boot a kernel that
/// escapes the discipline.
pub(crate) fn declare_lock_discipline() {
    lockdep::set_shape(
        lock_class::PROC_SHARD,
        lockdep::Shape::Sharded { ascending: true },
    );
    lockdep::ordering(&[
        &[lock_class::PROC_SHARD],
        &[lock_class::MOUNTS_REGISTRY],
        &[lock_class::MOUNTS_NS],
        &[
            lock_class::CGROUPS,
            lock_class::HOSTNAMES,
            lock_class::SOCKET_NODES,
            lock_class::FANOTIFY,
            lock_class::NS_REFS,
        ],
        &[lock_class::PAGECACHE_LRU],
        &[lock_class::PAGECACHE_FLUSHER],
    ]);
}

type Shard = HashMap<Pid, Process>;

/// The pid-sharded process table.
pub(crate) struct ProcTable {
    shards: Box<[Mutex<Shard>]>,
    mask: usize,
    next_pid: AtomicU32,
}

impl ProcTable {
    /// Creates a table with `shards` shards (rounded up to a power of two)
    /// holding `init` as pid 1.
    pub fn new(shards: usize, init: Process) -> ProcTable {
        declare_lock_discipline();
        let n = shards.max(1).next_power_of_two();
        let table = ProcTable {
            // The shard index doubles as the lockdep instance rank:
            // `lock_pair`'s ascending-index order is what the checker
            // verifies on every nested shard acquisition.
            shards: (0..n)
                .map(|i| Mutex::new_ranked(lock_class::PROC_SHARD, i as u32, HashMap::new()))
                .collect(),
            mask: n - 1,
            next_pid: AtomicU32::new(2),
        };
        table.shards[table.index(init.pid)]
            .lock()
            .insert(init.pid, init);
        table
    }

    fn index(&self, pid: Pid) -> usize {
        pid.raw() as usize & self.mask
    }

    /// Allocates a fresh pid. Atomic: concurrent forks can never hand out
    /// the same pid twice (a fork that later fails burns its pid, as the
    /// real kernel may).
    pub fn alloc_pid(&self) -> Pid {
        Pid(self.next_pid.fetch_add(1, Ordering::Relaxed))
    }

    /// Runs `f` over the process, holding only its shard.
    pub fn with<T>(&self, pid: Pid, f: impl FnOnce(&Process) -> SysResult<T>) -> SysResult<T> {
        let shard = self.shards[self.index(pid)].lock();
        let p = shard.get(&pid).ok_or(Errno::ESRCH)?;
        f(p)
    }

    /// Runs `f` over the process mutably, holding only its shard.
    pub fn with_mut<T>(
        &self,
        pid: Pid,
        f: impl FnOnce(&mut Process) -> SysResult<T>,
    ) -> SysResult<T> {
        let mut shard = self.shards[self.index(pid)].lock();
        let p = shard.get_mut(&pid).ok_or(Errno::ESRCH)?;
        f(p)
    }

    /// True if the pid is in the table (any lifecycle state).
    pub fn contains(&self, pid: Pid) -> bool {
        self.shards[self.index(pid)].lock().contains_key(&pid)
    }

    /// Locks the shard owning `pid` (single-shard compound operations).
    pub fn lock_shard_of(&self, pid: Pid) -> MutexGuard<'_, Shard> {
        self.shards[self.index(pid)].lock()
    }

    /// Locks the shards of `a` and `b` together, in ascending shard-index
    /// order (rule 1 of the module-level discipline). Used by `fork` so the
    /// parent's shard stays held while the child is inserted.
    pub fn lock_pair(&self, a: Pid, b: Pid) -> ShardPair<'_> {
        let (ia, ib) = (self.index(a), self.index(b));
        let (lo_idx, hi_idx) = (ia.min(ib), ia.max(ib));
        let lo = self.shards[lo_idx].lock();
        let hi = (lo_idx != hi_idx).then(|| self.shards[hi_idx].lock());
        ShardPair {
            lo,
            hi,
            lo_idx,
            mask: self.mask,
        }
    }

    /// All pids, ordered. Shards are locked one at a time in index order;
    /// the listing is a snapshot, not an atomic view of the whole table.
    pub fn pids(&self) -> Vec<Pid> {
        let mut v: Vec<Pid> = Vec::new();
        for shard in self.shards.iter() {
            v.extend(shard.lock().keys().copied());
        }
        v.sort_unstable();
        v
    }
}

/// Two process shards held together, acquired in ascending index order.
pub(crate) struct ShardPair<'a> {
    lo: MutexGuard<'a, Shard>,
    hi: Option<MutexGuard<'a, Shard>>,
    lo_idx: usize,
    mask: usize,
}

impl ShardPair<'_> {
    fn map_for(&mut self, pid: Pid) -> &mut Shard {
        if pid.raw() as usize & self.mask == self.lo_idx {
            &mut self.lo
        } else {
            self.hi.as_mut().expect("pid belongs to one of the pair")
        }
    }

    /// The process, if present in either held shard.
    pub fn get(&mut self, pid: Pid) -> Option<&Process> {
        let shard: &Shard = self.map_for(pid);
        shard.get(&pid)
    }

    /// Inserts a process into whichever held shard owns its pid.
    pub fn insert(&mut self, p: Process) {
        self.map_for(p.pid).insert(p.pid, p);
    }
}

/// Per-namespace mount tables behind reader/writer locks.
pub(crate) struct MountTable {
    namespaces: RwLock<HashMap<NamespaceId, Arc<RwLock<MountNs>>>>,
    next_mount: AtomicU64,
}

impl MountTable {
    /// Creates the registry holding namespace 1's table.
    pub fn new(root: MountNs) -> MountTable {
        let mut m = HashMap::new();
        m.insert(
            root.id,
            Arc::new(RwLock::new_class(lock_class::MOUNTS_NS, root)),
        );
        MountTable {
            namespaces: RwLock::new_class(lock_class::MOUNTS_REGISTRY, m),
            next_mount: AtomicU64::new(2),
        }
    }

    /// Allocates a fresh mount id (atomic, lock-free).
    pub fn alloc_mount_id(&self) -> MountId {
        MountId(self.next_mount.fetch_add(1, Ordering::Relaxed))
    }

    /// Registers a new namespace's mount table.
    pub fn insert(&self, ns: MountNs) {
        let id = ns.id;
        let entry = Arc::new(RwLock::new_class(lock_class::MOUNTS_NS, ns));
        self.namespaces.write().insert(id, entry);
    }

    /// Deregisters a namespace, returning its table so the caller can drop
    /// it — and the filesystem `Arc`s it pins — *outside* the registry
    /// lock. Called by namespace GC when the last process reference dies.
    #[must_use = "drop the returned table outside any kernel lock"]
    pub fn remove(&self, id: NamespaceId) -> Option<Arc<RwLock<MountNs>>> {
        self.namespaces.write().remove(&id)
    }

    /// Number of registered namespaces.
    pub fn len(&self) -> usize {
        self.namespaces.read().len()
    }

    fn handle(&self, id: NamespaceId) -> SysResult<Arc<RwLock<MountNs>>> {
        // The outer registry lock is released before the caller touches the
        // inner lock (rule 3: outer-before-inner, never held together).
        self.namespaces
            .read()
            .get(&id)
            .cloned()
            .ok_or(Errno::EINVAL)
    }

    /// Clones one namespace's table (path resolution works on a private
    /// snapshot, so a concurrent umount cannot invalidate a walk mid-way).
    pub fn snapshot(&self, id: NamespaceId) -> SysResult<MountNs> {
        let ns = self.handle(id)?;
        let snap = ns.read().clone();
        Ok(snap)
    }

    /// Runs `f` under one namespace's read lock.
    pub fn with_read<T>(
        &self,
        id: NamespaceId,
        f: impl FnOnce(&MountNs) -> SysResult<T>,
    ) -> SysResult<T> {
        let ns = self.handle(id)?;
        let guard = ns.read();
        f(&guard)
    }

    /// Runs `f` under one namespace's write lock.
    pub fn with_write<T>(
        &self,
        id: NamespaceId,
        f: impl FnOnce(&mut MountNs) -> SysResult<T>,
    ) -> SysResult<T> {
        let ns = self.handle(id)?;
        let mut guard = ns.write();
        f(&mut guard)
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
    counts: Mutex<HashMap<(NamespaceKind, NamespaceId), u64>>,
}

impl NsRefs {
    /// Creates the table holding one reference per kind for `init`'s set.
    pub fn new(init: &NamespaceSet) -> NsRefs {
        let refs = NsRefs {
            counts: Mutex::new_class(lock_class::NS_REFS, HashMap::new()),
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
        counts: &mut HashMap<(NamespaceKind, NamespaceId), u64>,
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
            cwd_path: "/".into(),
            root: VfsLoc {
                mount: MountId(1),
                ino: Ino::ROOT,
            },
            env: BTreeMap::new(),
            rlimits: RlimitSet::default(),
            fds: HashMap::new(),
            next_fd: 0,
            cgroup: CgroupPath::root(),
            state: ProcessState::Running,
        }
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let t = ProcTable::new(10, proc(Pid(1)));
        assert_eq!(t.shards.len(), 16);
        let t = ProcTable::new(1, proc(Pid(1)));
        assert_eq!(t.shards.len(), 1);
    }

    #[test]
    fn alloc_pid_is_unique_across_threads() {
        let t = Arc::new(ProcTable::new(16, proc(Pid(1))));
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
    fn lock_pair_same_and_distinct_shards() {
        let t = ProcTable::new(4, proc(Pid(1)));
        // Same shard (1 and 5 with mask 3 both map to shard 1).
        let mut pair = t.lock_pair(Pid(1), Pid(5));
        assert!(pair.get(Pid(1)).is_some());
        pair.insert(proc(Pid(5)));
        assert!(pair.get(Pid(5)).is_some());
        drop(pair);
        // Distinct shards.
        let mut pair = t.lock_pair(Pid(1), Pid(2));
        pair.insert(proc(Pid(2)));
        assert!(pair.get(Pid(2)).is_some());
        drop(pair);
        assert_eq!(t.pids(), vec![Pid(1), Pid(2), Pid(5)]);
    }

    /// Rule 1 enforced: the shard class is registered `Sharded { ascending:
    /// true }`, so taking a lower-indexed shard while holding a higher one
    /// — the mirror image of `lock_pair` — must panic deterministically.
    #[test]
    #[cfg(any(debug_assertions, feature = "lockdep"))]
    fn descending_shard_acquisition_panics() {
        let err = std::thread::spawn(|| {
            let t = ProcTable::new(4, proc(Pid(1)));
            let _hi = t.shards[2].lock();
            let _lo = t.shards[0].lock();
        })
        .join()
        .expect_err("descending shard order must be rejected");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic carries a message");
        assert!(msg.contains("lockdep:"), "{msg}");
        assert!(msg.contains("strictly ascending"), "{msg}");
        assert!(msg.contains(lock_class::PROC_SHARD), "{msg}");
    }

    /// The ascending direction — `lock_pair`'s order — stays allowed.
    #[test]
    fn ascending_shard_acquisition_is_allowed() {
        let t = ProcTable::new(4, proc(Pid(1)));
        let _lo = t.shards[0].lock();
        let _hi = t.shards[2].lock();
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
            .with_read(NamespaceId(1), |ns| Ok(ns.clone_for(NamespaceId(2))))
            .unwrap();
        t.insert(clone);
        assert_eq!(t.len(), 2);
        let removed = t.remove(NamespaceId(2)).expect("registered above");
        assert_eq!(t.len(), 1);
        assert_eq!(removed.read().id, NamespaceId(2));
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
}
