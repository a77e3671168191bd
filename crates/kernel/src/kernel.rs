//! The kernel object: global tables and process-level system calls.
//!
//! File and mount-table system calls (anything that resolves a path) live in
//! [`crate::vfs`]; this module owns process lifecycle, namespaces,
//! credentials, cgroups, pipes, sockets, epoll and `splice`.

use crate::cgroup::{CgroupLimits, CgroupPath, CgroupTree};
use crate::cred::Credentials;
use crate::epoll::{Epoll, Events};
use crate::mount::{MountId, MountNs};
use crate::ns::{NamespaceId, NamespaceKind, NamespaceSet};
use crate::pagecache::{PageCache, PageCacheStats};
use crate::passthrough::BackingTables;
use crate::pipe::Pipe;
use crate::process::{FdEntry, FileKind, OpenFile, Process, ProcessState, VfsLoc};
use crate::socket::{SocketEnd, SocketListener};
use crate::table::{lock_class, MountTable, NsRefs, ProcTable};
use cntr_fs::Filesystem;
use cntr_types::cost::PAGE_SIZE;
use cntr_types::{
    Capability, DevId, Errno, IdMap, Ino, OpenFlags, Pid, RlimitSet, SimClock, SysResult, COST,
};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hard dirty threshold as a percentage of the page-cache limit when no
/// absolute [`KernelConfig::dirty_bytes`] is set: Linux's default
/// `vm.dirty_ratio`.
const DIRTY_RATIO: u64 = 20;

/// Background write-back threshold as a percentage of the page-cache limit
/// when no absolute [`KernelConfig::dirty_background_bytes`] is set:
/// Linux's default `vm.dirty_background_ratio`.
const DIRTY_BACKGROUND_RATIO: u64 = 10;

/// Tunables of a simulated machine.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// Page-cache ceiling in bytes — the memory budget reclaim enforces.
    /// Defaults to 256 MiB: a density-oriented bound (many slim containers
    /// per host), not the paper testbed's whole RAM.
    /// [`KernelConfig::paper_legacy`] restores the published 12 GiB
    /// profile.
    pub page_cache_limit: u64,
    /// Absolute hard dirty threshold in bytes (`vm.dirty_bytes`); a writer
    /// crossing it is throttled into foreground write-back. Zero means 20%
    /// of `page_cache_limit` (Linux's default `vm.dirty_ratio`).
    pub dirty_bytes: u64,
    /// Absolute background threshold in bytes
    /// (`vm.dirty_background_bytes`); a write ending above it runs one
    /// background write-back chunk, and a stop-world throttle drains down
    /// to it. Zero means
    /// 10% of `page_cache_limit` (Linux's default
    /// `vm.dirty_background_ratio`).
    pub dirty_background_bytes: u64,
    /// Paced write-back (on): a write ending above the background
    /// threshold flushes one bounded chunk, and a writer over the hard
    /// limit pays a bounded debt. Off (stop-world): nothing is flushed
    /// until the hard limit, where the writer drains to the background
    /// threshold — the paper profile and the differential oracle. Both
    /// run on the caller's thread, so both reproduce exactly.
    pub background_writeback: bool,
}

impl Default for KernelConfig {
    fn default() -> KernelConfig {
        KernelConfig {
            page_cache_limit: 256 << 20,
            dirty_bytes: 0,
            dirty_background_bytes: 0,
            background_writeback: true,
        }
    }
}

impl KernelConfig {
    /// The configuration the paper's numbers were measured under: the
    /// testbed's 12 GiB cache (16 GB RAM minus anonymous memory), the
    /// pre-reclaim 64 MiB hard / 32 MiB background dirty thresholds, and
    /// stop-world write-back — the batching profile the Phoronix figure
    /// bands are calibrated against.
    pub fn paper_legacy() -> KernelConfig {
        KernelConfig {
            page_cache_limit: 12 << 30,
            dirty_bytes: 64 << 20,
            dirty_background_bytes: 32 << 20,
            background_writeback: false,
        }
    }

    /// The hard dirty threshold in bytes this config resolves to
    /// (`dirty_bytes` if set, else 20% of the cache limit).
    pub fn resolved_dirty_bytes(&self) -> u64 {
        if self.dirty_bytes != 0 {
            self.dirty_bytes
        } else {
            self.page_cache_limit / 100 * DIRTY_RATIO
        }
    }

    /// The background threshold in bytes this config resolves to
    /// (`dirty_background_bytes` if set, else 10% of the cache limit),
    /// clamped to at least one page and at least one page below the hard
    /// threshold.
    pub fn resolved_dirty_background_bytes(&self) -> u64 {
        let bg = if self.dirty_background_bytes != 0 {
            self.dirty_background_bytes
        } else {
            self.page_cache_limit / 100 * DIRTY_BACKGROUND_RATIO
        };
        let page = PAGE_SIZE as u64;
        bg.min(self.resolved_dirty_bytes().saturating_sub(page))
            .max(page)
    }
}

/// One recorded file access (fanotify `FAN_OPEN`/`FAN_OPEN_EXEC`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanotifyEvent {
    /// Filesystem the file lives on.
    pub dev: DevId,
    /// Inode accessed.
    pub ino: Ino,
    /// Path as the accessing process named it: relative to the `dirfd`
    /// of an `openat`, empty for a `reopen`.
    pub path: String,
}

/// A Unix socket listener bound to a filesystem inode, tagged with the
/// mount namespace it was bound in so namespace GC can drop it — a dead
/// container's listener must not keep accepting connections.
pub(crate) struct BoundSocket {
    /// Mount namespace of the binding process.
    pub mnt_ns: NamespaceId,
    /// The listener backlog.
    pub listener: Arc<SocketListener>,
}

/// The kernel's shared state, decomposed into independently locked
/// subsystems (see [`crate::table`] for the lock-ordering discipline).
pub(crate) struct KernelInner {
    pub clock: SimClock,
    pub page_cache: PageCache,
    /// The process table.
    pub procs: ProcTable,
    /// Per-namespace mount tables.
    pub mounts: MountTable,
    /// Per-namespace process refcounts — drives namespace GC (see
    /// [`crate::table`] for the refcount rules).
    pub ns_refs: NsRefs,
    /// Namespace-id allocator (all seven kinds share the number space).
    pub next_ns: AtomicU64,
    /// The cgroup hierarchy.
    pub cgroups: Mutex<CgroupTree>,
    /// UTS-namespace hostnames.
    pub hostnames: RwLock<IdMap<NamespaceId, String>>,
    /// Listening Unix sockets, keyed by the socket inode they are bound to
    /// and removed on unlink, last listener-fd close, or mount-namespace GC.
    pub socket_nodes: Mutex<IdMap<(DevId, Ino), BoundSocket>>,
    /// fanotify-style access recording (Docker Slim's mechanism), scoped
    /// by mount namespace: when a namespace's recorder is armed,
    /// successful opens/execs from processes *in that namespace* append
    /// events to its slot — two concurrent `cntr-slim` analyses never
    /// interleave each other's events.
    pub fanotify: Mutex<IdMap<NamespaceId, Vec<FanotifyEvent>>>,
    /// FUSE passthrough connections: backing ids and inode I/O modes.
    pub passthrough: Arc<BackingTables>,
}

/// A handle to the simulated machine. Cloning is cheap; all clones share
/// state.
#[derive(Clone)]
pub struct Kernel {
    pub(crate) inner: Arc<KernelInner>,
}

/// Everything CNTR gathers about a process before attaching (paper §3.2.1):
/// namespaces, cgroup, credentials (ids, capabilities), environment.
#[derive(Debug, Clone)]
pub struct ProcInfo {
    /// Process id.
    pub pid: Pid,
    /// Parent pid.
    pub ppid: Pid,
    /// Command name.
    pub name: String,
    /// Security context (uid/gid/caps).
    pub creds: Credentials,
    /// Namespace membership.
    pub ns: NamespaceSet,
    /// Environment variables.
    pub env: BTreeMap<String, String>,
    /// Cgroup path.
    pub cgroup: CgroupPath,
    /// Root location (for diagnostics).
    pub root: VfsLoc,
    /// Lifecycle state.
    pub state: ProcessState,
}

impl Kernel {
    /// Boots a machine: namespace 1, mount 1 on `root_fs`, and `init`
    /// (pid 1, host root credentials).
    pub fn new(root_fs: Arc<dyn Filesystem>, config: KernelConfig) -> Kernel {
        Kernel::with_clock(SimClock::new(), root_fs, config)
    }

    /// Boots a machine on an existing clock (so filesystems created earlier
    /// share it).
    pub fn with_clock(
        clock: SimClock,
        root_fs: Arc<dyn Filesystem>,
        config: KernelConfig,
    ) -> Kernel {
        let ns_id = NamespaceId(1);
        let mount_id = MountId(1);
        let root_ns = MountNs::new(ns_id, mount_id, root_fs);
        let init = Process {
            pid: Pid::INIT,
            ppid: Pid(0),
            name: "init".to_string(),
            creds: Credentials::host_root(),
            ns: NamespaceSet::uniform(ns_id),
            cwd: VfsLoc {
                mount: mount_id,
                ino: Ino::ROOT,
            },
            cwd_stack: Vec::new(),
            root: VfsLoc {
                mount: mount_id,
                ino: Ino::ROOT,
            },
            env: BTreeMap::new(),
            rlimits: RlimitSet::default(),
            fds: IdMap::default(),
            next_fd: 0,
            cgroup: CgroupPath::root(),
            state: ProcessState::Running,
        };
        let mut cgroups = CgroupTree::new();
        cgroups
            .attach(Pid::INIT, &CgroupPath::root())
            .expect("root cgroup exists");
        let mut hostnames = IdMap::default();
        hostnames.insert(ns_id, "host".to_string());
        let init_ns = init.ns;
        Kernel {
            inner: Arc::new(KernelInner {
                page_cache: PageCache::new(
                    clock.clone(),
                    config.page_cache_limit,
                    config.resolved_dirty_bytes(),
                    config.resolved_dirty_background_bytes(),
                    config.background_writeback,
                ),
                clock,
                procs: ProcTable::new(init),
                mounts: MountTable::new(root_ns),
                ns_refs: NsRefs::new(&init_ns),
                next_ns: AtomicU64::new(2),
                cgroups: Mutex::new_class(lock_class::CGROUPS, cgroups),
                hostnames: RwLock::new_class(lock_class::HOSTNAMES, hostnames),
                socket_nodes: Mutex::new_class(lock_class::SOCKET_NODES, IdMap::default()),
                fanotify: Mutex::new_class(lock_class::FANOTIFY, IdMap::default()),
                passthrough: BackingTables::new(),
            }),
        }
    }

    /// The machine's virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// Page-cache counters.
    pub fn page_cache_stats(&self) -> PageCacheStats {
        self.inner.page_cache.stats()
    }

    /// Bytes of dirty data pending writeback.
    pub fn dirty_bytes(&self) -> u64 {
        self.inner.page_cache.dirty_bytes()
    }

    /// Resident page-cache pages (the number reclaim bounds).
    pub fn page_cache_resident_pages(&self) -> usize {
        self.inner.page_cache.resident_pages()
    }

    /// Resident page-cache pages of one filesystem (`dev`).
    pub fn page_cache_resident_pages_of(&self, dev: DevId) -> usize {
        self.inner.page_cache.resident_pages_of(dev)
    }

    /// The page-cache ceiling in pages.
    pub fn page_cache_capacity_pages(&self) -> usize {
        self.inner.page_cache.capacity_pages()
    }

    /// Pages on the (active, inactive) LRU lists.
    pub fn page_cache_residency(&self) -> (usize, usize) {
        self.inner.page_cache.residency()
    }

    /// `sync(2)`: flushes all dirty pages.
    pub fn sync(&self) -> cntr_types::SysResult<()> {
        self.inner.page_cache.sync_all()
    }

    /// `echo 3 > /proc/sys/vm/drop_caches`: flushes and drops the page
    /// cache — used between benchmark phases to measure cold-cache paths.
    pub fn drop_caches(&self) -> cntr_types::SysResult<()> {
        self.inner.page_cache.drop_clean()
    }

    /// Drops one filesystem's cached pages only.
    pub fn drop_caches_for(&self, dev: DevId) -> cntr_types::SysResult<()> {
        self.inner.page_cache.drop_dev(dev)
    }

    /// Charges one syscall entry/exit.
    pub(crate) fn charge_syscall(&self) {
        self.inner.clock.advance(COST.syscall_ns);
    }

    pub(crate) fn with_proc<T>(
        &self,
        pid: Pid,
        f: impl FnOnce(&Process) -> SysResult<T>,
    ) -> SysResult<T> {
        self.inner.procs.with(pid, f)
    }

    pub(crate) fn with_proc_mut<T>(
        &self,
        pid: Pid,
        f: impl FnOnce(&mut Process) -> SysResult<T>,
    ) -> SysResult<T> {
        self.inner.procs.with_mut(pid, f)
    }

    // ------------------------------------------------------------------
    // Process lifecycle
    // ------------------------------------------------------------------

    /// `fork(2)`: duplicates `parent`, returning the child pid.
    ///
    /// The parent is read and the child inserted under one hold of the
    /// process table, so a concurrent `/proc` snapshot sees either the
    /// pre-fork or post-fork world — never a child without its parent.
    /// The child's namespace references are retained under the same hold
    /// (the `NsRefs` leaf lock), so a concurrent `reap` can never see the
    /// child in the table without its references counted.
    pub fn fork(&self, parent: Pid) -> SysResult<Pid> {
        self.charge_syscall();
        let child_pid = self.inner.procs.alloc_pid();
        let cgroup = {
            let mut procs = self.inner.procs.lock();
            let parent_proc = procs.get(&parent).ok_or(Errno::ESRCH)?;
            if parent_proc.state != ProcessState::Running {
                return Err(Errno::ESRCH);
            }
            let child = parent_proc.fork_into(child_pid);
            let cgroup = child.cgroup.clone();
            let child_ns = child.ns;
            procs.insert(child_pid, child);
            self.inner.ns_refs.retain_set(&child_ns);
            cgroup
        };
        // Processes-before-cgroups: the process table is released before
        // the cgroup tree is touched. Roll the insert back if attach fails —
        // dropping the removed process (and its cloned fd table, which can
        // release FUSE handles that re-enter the kernel) outside the table
        // lock, as `exit`/`reap` do. The attach result is bound first: an
        // `if let` scrutinee's temporaries live to the end of the block in
        // edition 2021, and the rollback below must not run under the
        // cgroups guard (it re-locks the process table — reverse rank order).
        let attached = self.inner.cgroups.lock().attach(child_pid, &cgroup);
        if let Err(e) = attached {
            let (removed, dead) = {
                let mut procs = self.inner.procs.lock();
                let removed = procs.remove(&child_pid);
                // Release only if the rollback is the one removing the
                // child, and release the set the child holds *now* — the
                // pid is visible the moment the table lock drops, so a
                // concurrent exit+reap may already have released its
                // references (removed == None), and a concurrent
                // unshare/setns may have moved them off the fork-time
                // snapshot.
                let dead = match &removed {
                    Some(p) => self.inner.ns_refs.release_set(&p.ns),
                    None => Vec::new(),
                };
                (removed, dead)
            };
            for d in dead {
                self.gc_namespace(d);
            }
            drop(removed);
            return Err(e);
        }
        // The attach can also race a concurrent exit+reap of the child
        // (its pid is already visible): exit's cgroup detach may have run
        // *before* the attach above, which would re-member a dead pid
        // forever. Re-check: if the child is no longer Running, its exit
        // has begun (or finished) and the detach below is either what exit
        // would do or an idempotent repeat of it; if it is still Running,
        // any later exit performs the detach itself.
        let running = self
            .inner
            .procs
            .with(child_pid, |p| Ok(p.state == ProcessState::Running))
            .unwrap_or(false);
        if !running {
            self.inner.cgroups.lock().detach_everywhere(child_pid);
        }
        Ok(child_pid)
    }

    /// Terminates a process, closing its descriptors. Its namespaces stay
    /// referenced (and observable via `/proc`) until the zombie is reaped.
    pub fn exit(&self, pid: Pid) -> SysResult<()> {
        self.charge_syscall();
        // Dropping fd entries can release FUSE file handles, which re-enters
        // the kernel through the server — so the drops must happen outside
        // the process-table lock.
        let fds = self.inner.procs.with_mut(pid, |p| {
            p.state = ProcessState::Zombie;
            Ok(std::mem::take(&mut p.fds))
        })?;
        self.inner.cgroups.lock().detach_everywhere(pid);
        for (_, entry) in fds {
            self.release_fd_entry(entry);
        }
        Ok(())
    }

    /// Reaps a zombie, removing it from the table and releasing its
    /// namespace references — the last process of a container reaching
    /// here tears the container's namespaces down (mount table, hostname,
    /// bound sockets, fanotify recorder).
    ///
    /// Divergence from Linux: `waitpid(2)` on a still-running child
    /// *blocks* (or returns 0 with `WNOHANG`); this simulation has no
    /// blocking waits, so a running target reports `ECHILD` — "nothing
    /// waitable" — rather than the old, wrong `EBUSY`.
    pub fn reap(&self, pid: Pid) -> SysResult<()> {
        // As in `exit`, the process (and anything it still references) must
        // be dropped outside the process-table lock; likewise the backing
        // state of any namespace that died with it.
        let (reaped, dead) = {
            let mut procs = self.inner.procs.lock();
            match procs.get(&pid) {
                Some(p) if p.state == ProcessState::Zombie => {
                    let ns = p.ns;
                    let reaped = procs.remove(&pid);
                    (reaped, self.inner.ns_refs.release_set(&ns))
                }
                Some(_) => return Err(Errno::ECHILD),
                None => return Err(Errno::ESRCH),
            }
        };
        for d in dead {
            self.gc_namespace(d);
        }
        drop(reaped);
        Ok(())
    }

    /// Releases one fd-table entry outside the process-table lock.
    ///
    /// The close-time side effects themselves (pipe half-close, listener
    /// shutdown) live in `OpenFile::drop`, which runs exactly once at the
    /// true last drop — even when a transient clone (`splice`, `get_file`)
    /// briefly outlives the final descriptor. This eager pass only
    /// deregisters a listener from `socket_nodes` when the closing
    /// descriptor *is* the last reference (`Arc::into_inner` is the
    /// exactly-once gate); in the rare transient-clone race the entry
    /// lingers already-closed — `connect` is refused via the listener's
    /// closed flag — until unlink or namespace GC sweeps it.
    pub(crate) fn release_fd_entry(&self, entry: crate::process::FdEntry) {
        if let Some(file) = Arc::into_inner(entry.file) {
            if let FileKind::Listener(l) = &file.kind {
                self.unbind_listener(l);
            }
        }
    }

    /// Unbinds a listener wherever it is registered (last fd close). The
    /// socket *file* stays on disk — as in Linux, where the inode outlives
    /// the listening socket — but `connect(2)` on it now gets
    /// `ECONNREFUSED`.
    fn unbind_listener(&self, listener: &Arc<SocketListener>) {
        self.unbind_sockets_where(|bound| Arc::ptr_eq(&bound.listener, listener));
    }

    /// Closes and deregisters every bound socket matching `pred` — the one
    /// scan behind last-fd-close, unlink, and namespace-death unbinding.
    pub(crate) fn unbind_sockets_where(&self, pred: impl Fn(&BoundSocket) -> bool) {
        self.inner.socket_nodes.lock().retain(|_, bound| {
            if pred(bound) {
                bound.listener.close();
                false
            } else {
                true
            }
        });
    }

    /// Reclaims the backing state of one dead namespace — the single GC
    /// path shared by `reap`, reference moves (`unshare`/`setns` draining
    /// a namespace) and the `unshare` failure path. Runs strictly outside
    /// the process-table and `NsRefs` locks; the mount table removed from
    /// the registry (and the filesystem `Arc`s it pins) drops here,
    /// outside any kernel lock.
    fn gc_namespace(&self, dead: (NamespaceKind, NamespaceId)) {
        let (kind, id) = dead;
        match kind {
            NamespaceKind::Mount => {
                let removed = self.inner.mounts.remove(id);
                // Listeners bound inside the dead namespace stop accepting.
                self.unbind_sockets_where(|bound| bound.mnt_ns == id);
                self.inner.fanotify.lock().remove(&id);
                if let Some(table) = removed {
                    // Filesystems mounted *only* in the dead namespace lose
                    // their last mount: flush and drop their page-cache
                    // state, or cached pages would squat in the LRU and a
                    // dirty file's writeback reference would keep the
                    // "freed" filesystem alive indefinitely. Shared devs
                    // (the host root, bind sources, `/proc`) stay warm.
                    //
                    // Liveness is decided by scanning the surviving
                    // namespaces under one registry read — O(namespaces ×
                    // mounts), paid only on namespace death (container
                    // exit), never on a syscall path. A cross-namespace
                    // per-dev mount refcount would make this O(1) but would
                    // have to be threaded through every mount/umount/clone
                    // site; not worth it until teardown shows up in a
                    // profile.
                    let live_devs = self.inner.mounts.live_devs();
                    let orphaned: Vec<DevId> = table
                        .iter()
                        .map(|m| m.fs.fs_id())
                        .filter(|d| !live_devs.contains(d))
                        .collect();
                    let _ = self.inner.page_cache.drop_devs(&orphaned);
                    self.inner.passthrough.detach(&orphaned);
                    drop(table);
                }
            }
            NamespaceKind::Uts => {
                self.inner.hostnames.write().remove(&id);
            }
            // Pid/user/net/ipc/cgroup namespaces carry no kernel-side
            // backing state in this model; their refcount entry (already
            // removed) was the bookkeeping.
            _ => {}
        }
    }

    /// True if the process exists and is running.
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.inner
            .procs
            .with(pid, |p| Ok(p.state == ProcessState::Running))
            .unwrap_or(false)
    }

    /// All live pids (ordered).
    pub fn pids(&self) -> Vec<Pid> {
        self.inner.procs.pids()
    }

    /// Number of open descriptors of `pid` (what `/proc/<pid>/fd` lists).
    pub fn fd_count(&self, pid: Pid) -> SysResult<usize> {
        self.with_proc(pid, |p| Ok(p.fds.len()))
    }

    /// The full context CNTR needs before attaching. All fields come from
    /// one process-table acquisition — a consistent per-process snapshot.
    pub fn proc_info(&self, pid: Pid) -> SysResult<ProcInfo> {
        self.inner.procs.with(pid, |p| {
            Ok(ProcInfo {
                pid: p.pid,
                ppid: p.ppid,
                name: p.name.clone(),
                creds: p.creds.clone(),
                ns: p.ns,
                env: p.env.clone(),
                cgroup: p.cgroup.clone(),
                root: p.root,
                state: p.state,
            })
        })
    }

    /// Sets the command name.
    pub fn set_name(&self, pid: Pid, name: &str) -> SysResult<()> {
        self.with_proc_mut(pid, |p| {
            p.name = name.to_string();
            Ok(())
        })
    }

    /// Sets an environment variable.
    pub fn setenv(&self, pid: Pid, key: &str, value: &str) -> SysResult<()> {
        self.with_proc_mut(pid, |p| {
            p.env.insert(key.to_string(), value.to_string());
            Ok(())
        })
    }

    /// Reads an environment variable.
    pub fn getenv(&self, pid: Pid, key: &str) -> SysResult<Option<String>> {
        self.with_proc(pid, |p| Ok(p.env.get(key).cloned()))
    }

    /// Replaces the whole environment (what CNTR does in step #3: "applies
    /// all the environment variables that were read from the container
    /// process; with the exception of PATH").
    pub fn set_environ(&self, pid: Pid, env: BTreeMap<String, String>) -> SysResult<()> {
        self.with_proc_mut(pid, |p| {
            p.env = env;
            Ok(())
        })
    }

    /// Replaces the credentials (privileged; used by the engine substrate
    /// when it builds containers, and by CNTR when dropping privileges).
    pub fn set_creds(&self, pid: Pid, creds: Credentials) -> SysResult<()> {
        self.with_proc_mut(pid, |p| {
            p.creds = creds;
            Ok(())
        })
    }

    /// Reads the credentials.
    pub fn creds(&self, pid: Pid) -> SysResult<Credentials> {
        self.with_proc(pid, |p| Ok(p.creds.clone()))
    }

    /// Arms fanotify-style access recording (Docker Slim's mechanism:
    /// "records all files that have been accessed during a container run in
    /// an efficient way using the fanotify kernel module", paper §5.3)
    /// **for `pid`'s mount namespace**: only accesses made by processes in
    /// that namespace are recorded, so two concurrent analyses of
    /// different containers never interleave each other's events. The
    /// recorder is disarmed automatically if the namespace is
    /// garbage-collected.
    pub fn fanotify_start(&self, pid: Pid) -> SysResult<()> {
        let mnt = self.with_proc(pid, |p| Ok(p.ns.mount))?;
        self.inner.fanotify.lock().insert(mnt, Vec::new());
        Ok(())
    }

    /// Disarms `pid`'s mount namespace's recorder and returns the
    /// remaining events.
    pub fn fanotify_stop(&self, pid: Pid) -> SysResult<Vec<FanotifyEvent>> {
        let mnt = self.with_proc(pid, |p| Ok(p.ns.mount))?;
        Ok(self.inner.fanotify.lock().remove(&mnt).unwrap_or_default())
    }

    /// Records one access if the accessor's mount namespace has an armed
    /// recorder.
    pub(crate) fn fanotify_record(&self, mnt_ns: NamespaceId, dev: DevId, ino: Ino, path: &str) {
        if let Some(events) = self.inner.fanotify.lock().get_mut(&mnt_ns) {
            events.push(FanotifyEvent {
                dev,
                ino,
                path: path.to_string(),
            });
        }
    }

    /// Reads the resource limits.
    pub fn rlimits(&self, pid: Pid) -> SysResult<RlimitSet> {
        self.with_proc(pid, |p| Ok(p.rlimits))
    }

    /// Updates the resource limits.
    pub fn set_rlimits(&self, pid: Pid, limits: RlimitSet) -> SysResult<()> {
        self.with_proc_mut(pid, |p| {
            p.rlimits = limits;
            Ok(())
        })
    }

    // ------------------------------------------------------------------
    // Namespaces
    // ------------------------------------------------------------------

    /// Allocates a fresh namespace id.
    pub(crate) fn alloc_ns_id(&self) -> NamespaceId {
        NamespaceId(self.inner.next_ns.fetch_add(1, Ordering::Relaxed))
    }

    /// `unshare(2)`: gives `pid` fresh namespaces of the listed kinds.
    /// Requires `CAP_SYS_ADMIN`.
    ///
    /// Lock order: the process is read (creds, current namespaces), the
    /// process table released while the mount table / hostname copies are
    /// created, then the process is written once with the complete new
    /// namespace set. The reference *moves* — off the old namespaces, onto
    /// the fresh ones — commit inside that same write (the `NsRefs` leaf
    /// lock), so a
    /// concurrent `reap` always releases exactly the set it observes. An
    /// old namespace drained by the move (the caller was its last
    /// process) is garbage-collected; if the caller vanished before
    /// adopting the fresh namespaces, *those* are zero-referenced and go
    /// down the very same GC path — there is no separate rollback code.
    pub fn unshare(&self, pid: Pid, kinds: &[NamespaceKind]) -> SysResult<()> {
        self.charge_syscall();
        let (caps, old_ns) = self.with_proc(pid, |p| Ok((p.creds.caps, p.ns)))?;
        if !caps.has(Capability::SysAdmin) {
            return Err(Errno::EPERM);
        }
        let mut fresh: Vec<(NamespaceKind, NamespaceId)> = Vec::with_capacity(kinds.len());
        for &kind in kinds {
            let new_id = self.alloc_ns_id();
            if kind == NamespaceKind::Mount {
                let cloned = self
                    .inner
                    .mounts
                    .snapshot(old_ns.mount)
                    .map(|ns| ns.clone_for(new_id));
                match cloned {
                    Ok(cloned) => self.inner.mounts.insert(cloned),
                    Err(e) => {
                        // The source table vanished mid-call (a concurrent
                        // reap GC'd the caller's old namespace): unwind the
                        // zero-ref state created by earlier iterations
                        // through the same GC path instead of leaking it.
                        for &d in &fresh {
                            self.gc_namespace(d);
                        }
                        return Err(e);
                    }
                }
            }
            if kind == NamespaceKind::Uts {
                let mut hostnames = self.inner.hostnames.write();
                let name = hostnames.get(&old_ns.uts).cloned().unwrap_or_default();
                hostnames.insert(new_id, name);
            }
            fresh.push((kind, new_id));
        }
        // Only the unshared kinds are written back — a concurrent `setns`
        // on another kind is not clobbered by this syscall's earlier
        // snapshot of the namespace set. The overwritten id is read under
        // the process-table lock for the same reason: it may differ from
        // the earlier snapshot.
        let res = self.with_proc_mut(pid, |p| {
            let mut dead = Vec::new();
            for &(kind, id) in &fresh {
                let old = p.ns.get(kind);
                p.ns.set(kind, id);
                if let Some(d) = self.inner.ns_refs.transfer(kind, old, id) {
                    dead.push(d);
                }
            }
            Ok(dead)
        });
        match res {
            Ok(dead) => {
                for d in dead {
                    self.gc_namespace(d);
                }
                Ok(())
            }
            Err(e) => {
                // The process vanished (concurrent reap) before adopting
                // the fresh namespaces: they hold zero references, exactly
                // like any other dead namespace — reclaim them through the
                // unified GC path.
                for &d in &fresh {
                    self.gc_namespace(d);
                }
                Err(e)
            }
        }
    }

    /// `setns(2)`: moves `pid` into `target`'s namespaces of the listed
    /// kinds. Requires `CAP_SYS_ADMIN`; the target must be running — as in
    /// Linux, a zombie's namespaces are no longer joinable. Joining a
    /// mount namespace resets root and cwd to that namespace's root, as in
    /// Linux.
    ///
    /// Adoption is a reference *move*: `NsRefs::adopt_set` pins the
    /// target namespaces (refusing with `ESRCH` if one died between the
    /// target snapshot and the commit) and releases the caller's old ones;
    /// any namespace the caller drains is garbage-collected.
    pub fn setns(&self, pid: Pid, target: Pid, kinds: &[NamespaceKind]) -> SysResult<()> {
        self.charge_syscall();
        let caps = self.with_proc(pid, |p| Ok(p.creds.caps))?;
        if !caps.has(Capability::SysAdmin) {
            return Err(Errno::EPERM);
        }
        let target_ns = self.with_proc(target, |p| {
            if p.state != ProcessState::Running {
                return Err(Errno::ESRCH);
            }
            Ok(p.ns)
        })?;
        // Deduplicate the kinds: the reference moves below are one-per-kind
        // (a repeated kind would double-retain the target namespace and
        // double-release the caller's old one).
        let mut uniq: Vec<NamespaceKind> = Vec::with_capacity(kinds.len());
        for &kind in kinds {
            if !uniq.contains(&kind) {
                uniq.push(kind);
            }
        }
        let kinds = &uniq[..];
        // Gather the mount-namespace root before mutating the process, so
        // the final update is a single consistent process write.
        let mut new_root: Option<VfsLoc> = None;
        if kinds.contains(&NamespaceKind::Mount) {
            let ns = self.inner.mounts.snapshot(target_ns.mount)?;
            let root_mount = ns.root_mount();
            new_root = Some(VfsLoc {
                mount: root_mount,
                ino: ns.get(root_mount)?.root_ino,
            });
        }
        let dead = self.with_proc_mut(pid, |p| {
            let moves: Vec<(NamespaceKind, NamespaceId, NamespaceId)> = kinds
                .iter()
                .map(|&kind| (kind, p.ns.get(kind), target_ns.get(kind)))
                .collect();
            // All-or-nothing: the namespace set is only written once every
            // target namespace is successfully pinned.
            let dead = self.inner.ns_refs.adopt_set(&moves)?;
            for &(kind, _, new) in &moves {
                p.ns.set(kind, new);
            }
            if let Some(root) = new_root {
                p.reset_root(root);
            }
            Ok(dead)
        })?;
        for d in dead {
            self.gc_namespace(d);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Namespace observability (tests, `/proc`, leak checks)
    // ------------------------------------------------------------------

    /// Process refcount of one namespace (0 = dead or never existed).
    pub fn ns_refcount(&self, kind: NamespaceKind, id: NamespaceId) -> u64 {
        self.inner.ns_refs.count(kind, id)
    }

    /// Number of live `(kind, id)` refcount entries — exactly 7 on a
    /// freshly booted (or fully torn-down) machine.
    pub fn ns_ref_entries(&self) -> usize {
        self.inner.ns_refs.len()
    }

    /// Ids of every registered mount namespace (sorted). A machine whose
    /// containers have all been reaped holds only namespace 1.
    pub fn mount_ns_ids(&self) -> Vec<NamespaceId> {
        self.inner.mounts.ids()
    }

    /// Number of registered mount namespaces.
    pub fn mount_ns_count(&self) -> usize {
        self.inner.mounts.len()
    }

    /// Number of UTS hostname entries.
    pub fn hostname_count(&self) -> usize {
        self.inner.hostnames.read().len()
    }

    /// Number of bound Unix socket nodes.
    pub fn socket_node_count(&self) -> usize {
        self.inner.socket_nodes.lock().len()
    }

    /// `sethostname(2)` in the caller's UTS namespace.
    pub fn sethostname(&self, pid: Pid, name: &str) -> SysResult<()> {
        let uts = self.with_proc(pid, |p| Ok(p.ns.uts))?;
        self.inner.hostnames.write().insert(uts, name.to_string());
        Ok(())
    }

    /// `gethostname(2)`.
    pub fn gethostname(&self, pid: Pid) -> SysResult<String> {
        let uts = self.with_proc(pid, |p| Ok(p.ns.uts))?;
        Ok(self
            .inner
            .hostnames
            .read()
            .get(&uts)
            .cloned()
            .unwrap_or_default())
    }

    // ------------------------------------------------------------------
    // Cgroups
    // ------------------------------------------------------------------

    /// Creates a cgroup.
    pub fn cgroup_create(&self, path: &str) -> SysResult<CgroupPath> {
        self.inner.cgroups.lock().create(path)
    }

    /// Moves a process into a cgroup.
    pub fn cgroup_attach(&self, pid: Pid, path: &CgroupPath) -> SysResult<()> {
        self.inner.cgroups.lock().attach(pid, path)?;
        let _ = self.with_proc_mut(pid, |p| {
            p.cgroup = path.clone();
            Ok(())
        });
        Ok(())
    }

    /// Removes an empty cgroup (`rmdir` in cgroupfs) — how an engine purges
    /// a dead container from cgroup bookkeeping after its last process is
    /// reaped. `EBUSY` while members or child groups remain.
    pub fn cgroup_remove(&self, path: &CgroupPath) -> SysResult<()> {
        self.inner.cgroups.lock().remove(path)
    }

    /// Sets cgroup limits.
    pub fn cgroup_set_limits(&self, path: &CgroupPath, limits: CgroupLimits) -> SysResult<()> {
        self.inner.cgroups.lock().set_limits(path, limits)
    }

    /// Reads cgroup members.
    pub fn cgroup_members(&self, path: &CgroupPath) -> SysResult<Vec<Pid>> {
        self.inner.cgroups.lock().members(path)
    }

    // ------------------------------------------------------------------
    // Pipes, sockets, epoll, splice
    // ------------------------------------------------------------------

    /// `pipe(2)`: returns `(read_fd, write_fd)`.
    pub fn pipe(&self, pid: Pid) -> SysResult<(u32, u32)> {
        self.charge_syscall();
        let pipe = Pipe::new();
        self.with_proc_mut(pid, |p| {
            let r = p.install_fd(FdEntry {
                file: Arc::new(OpenFile {
                    kind: FileKind::PipeRead(Arc::clone(&pipe)),
                    flags: OpenFlags::RDONLY,
                    offset: Mutex::new_class("kernel.fd_offset", 0),
                }),
                cloexec: false,
            });
            let w = p.install_fd(FdEntry {
                file: Arc::new(OpenFile {
                    kind: FileKind::PipeWrite(Arc::clone(&pipe)),
                    flags: OpenFlags::WRONLY,
                    offset: Mutex::new_class("kernel.fd_offset", 0),
                }),
                cloexec: false,
            });
            Ok((r, w))
        })
    }

    /// `socketpair(AF_UNIX, SOCK_STREAM)`.
    pub fn socketpair(&self, pid: Pid) -> SysResult<(u32, u32)> {
        self.charge_syscall();
        let (a, b) = SocketEnd::pair();
        self.with_proc_mut(pid, |p| {
            let fa = p.install_fd(FdEntry {
                file: Arc::new(OpenFile {
                    kind: FileKind::Socket(a.clone()),
                    flags: OpenFlags::RDWR,
                    offset: Mutex::new_class("kernel.fd_offset", 0),
                }),
                cloexec: false,
            });
            let fb = p.install_fd(FdEntry {
                file: Arc::new(OpenFile {
                    kind: FileKind::Socket(b.clone()),
                    flags: OpenFlags::RDWR,
                    offset: Mutex::new_class("kernel.fd_offset", 0),
                }),
                cloexec: false,
            });
            Ok((fa, fb))
        })
    }

    /// `accept(2)` on a listener fd.
    pub fn accept(&self, pid: Pid, listener_fd: u32) -> SysResult<u32> {
        self.charge_syscall();
        let listener = self.with_proc(pid, |p| {
            let entry = p.fds.get(&listener_fd).ok_or(Errno::EBADF)?;
            match &entry.file.kind {
                FileKind::Listener(l) => Ok(Arc::clone(l)),
                _ => Err(Errno::ENOTSOCK),
            }
        })?;
        let end = listener.accept()?;
        self.with_proc_mut(pid, |p| {
            Ok(p.install_fd(FdEntry {
                file: Arc::new(OpenFile {
                    kind: FileKind::Socket(end.clone()),
                    flags: OpenFlags::RDWR,
                    offset: Mutex::new_class("kernel.fd_offset", 0),
                }),
                cloexec: false,
            }))
        })
    }

    /// `epoll_create1(2)`.
    pub fn epoll_create(&self, pid: Pid) -> SysResult<u32> {
        self.charge_syscall();
        let ep = Epoll::new();
        self.with_proc_mut(pid, |p| {
            Ok(p.install_fd(FdEntry {
                file: Arc::new(OpenFile {
                    kind: FileKind::Epoll(ep.clone()),
                    flags: OpenFlags::RDWR,
                    offset: Mutex::new_class("kernel.fd_offset", 0),
                }),
                cloexec: false,
            }))
        })
    }

    /// Resolves `fd` to the pollable source `epoll` would watch — the one
    /// fd-to-`Pollable` mapping, shared by `epoll_add` and `poll_fd`.
    fn pollable_of(entry: &crate::process::FdEntry) -> SysResult<Arc<dyn crate::pipe::Pollable>> {
        Ok(match &entry.file.kind {
            FileKind::PipeRead(pipe) | FileKind::PipeWrite(pipe) => Arc::clone(pipe) as _,
            FileKind::Socket(s) => Arc::new(s.clone()) as _,
            FileKind::Listener(l) => Arc::clone(l) as _,
            _ => return Err(Errno::EPERM),
        })
    }

    /// Resolves `epfd` to its epoll instance.
    fn epoll_of(&self, pid: Pid, epfd: u32) -> SysResult<Arc<Epoll>> {
        self.with_proc(pid, |p| {
            match &p.fds.get(&epfd).ok_or(Errno::EBADF)?.file.kind {
                FileKind::Epoll(e) => Ok(Arc::clone(e)),
                _ => Err(Errno::EINVAL),
            }
        })
    }

    /// `epoll_ctl(EPOLL_CTL_ADD)`: watches `fd` under `token`.
    pub fn epoll_add(&self, pid: Pid, epfd: u32, fd: u32, token: u64, ev: Events) -> SysResult<()> {
        self.charge_syscall();
        let (ep, source) = self.with_proc(pid, |p| {
            let ep = match &p.fds.get(&epfd).ok_or(Errno::EBADF)?.file.kind {
                FileKind::Epoll(e) => Arc::clone(e),
                _ => return Err(Errno::EINVAL),
            };
            let source = Self::pollable_of(p.fds.get(&fd).ok_or(Errno::EBADF)?)?;
            Ok((ep, source))
        })?;
        ep.add(token, source, ev)
    }

    /// `epoll_ctl(EPOLL_CTL_MOD)`: changes the interest of `token`. The
    /// attach plane uses this to park a stalled forward direction (drop
    /// `IN` on the source, arm `OUT` on the full destination) and to
    /// re-arm it once the destination drains.
    pub fn epoll_mod(&self, pid: Pid, epfd: u32, token: u64, ev: Events) -> SysResult<()> {
        self.charge_syscall();
        self.epoll_of(pid, epfd)?.modify(token, ev)
    }

    /// `epoll_ctl(EPOLL_CTL_DEL)`: drops `token` from the interest set.
    /// Explicit deregistration is what keeps a long-lived event loop's
    /// interest set bounded across connect/close cycles.
    pub fn epoll_del(&self, pid: Pid, epfd: u32, token: u64) -> SysResult<()> {
        self.charge_syscall();
        self.epoll_of(pid, epfd)?.remove(token)
    }

    /// Number of watches registered on `epfd` (diagnostics; the attach
    /// stress asserts the interest set stays bounded).
    pub fn epoll_len(&self, pid: Pid, epfd: u32) -> SysResult<usize> {
        Ok(self.epoll_of(pid, epfd)?.len())
    }

    /// `epoll_wait(2)` (non-blocking: returns what is ready now) with a
    /// `maxevents` budget: at most `max` events, served round-robin across
    /// calls (see [`Epoll::wait_budget`]).
    pub fn epoll_wait_budget(
        &self,
        pid: Pid,
        epfd: u32,
        max: usize,
    ) -> SysResult<Vec<(u64, Events)>> {
        self.charge_syscall();
        Ok(self.epoll_of(pid, epfd)?.wait_budget(max))
    }

    /// `poll(2)` on a single descriptor: its current readiness. Event
    /// loops use this to tell a drained source apart from a full
    /// destination after `splice` returns `EAGAIN`.
    pub fn poll_fd(&self, pid: Pid, fd: u32) -> SysResult<Events> {
        self.charge_syscall();
        let source = self.with_proc(pid, |p| {
            Self::pollable_of(p.fds.get(&fd).ok_or(Errno::EBADF)?)
        })?;
        Ok(Events {
            readable: source.poll_readable(),
            writable: source.poll_writable(),
            hangup: source.poll_hangup(),
        })
    }

    /// Installs a descriptor for one end of an existing kernel pipe —
    /// how the attach plane turns a pty's pipes into pollable, splicable
    /// descriptors in the plane process (a real pty master *is* an fd).
    pub fn adopt_pipe(&self, pid: Pid, pipe: &Arc<Pipe>, write_end: bool) -> SysResult<u32> {
        self.charge_syscall();
        let (kind, flags) = if write_end {
            (FileKind::PipeWrite(Arc::clone(pipe)), OpenFlags::WRONLY)
        } else {
            (FileKind::PipeRead(Arc::clone(pipe)), OpenFlags::RDONLY)
        };
        self.with_proc_mut(pid, |p| {
            Ok(p.install_fd(FdEntry {
                file: Arc::new(OpenFile {
                    kind,
                    flags,
                    offset: Mutex::new_class("kernel.fd_offset", 0),
                }),
                cloexec: false,
            }))
        })
    }

    /// `shutdown(fd, SHUT_WR)` on a connected socket: closes the outbound
    /// direction only. The peer drains in-flight bytes, then reads EOF;
    /// this process can still receive.
    pub fn shutdown_write(&self, pid: Pid, fd: u32) -> SysResult<()> {
        self.charge_syscall();
        let end = self.with_proc(pid, |p| {
            match &p.fds.get(&fd).ok_or(Errno::EBADF)?.file.kind {
                FileKind::Socket(s) => Ok(s.clone()),
                _ => Err(Errno::ENOTSOCK),
            }
        })?;
        end.shutdown_write();
        Ok(())
    }

    /// `close_range(2)`: closes every fd numbered ≥ `first`. A freshly
    /// forked event-loop process calls this so descriptors inherited from
    /// its parent don't pin listeners or pipes it never asked for.
    pub fn close_range(&self, pid: Pid, first: u32) -> SysResult<usize> {
        self.charge_syscall();
        let closed = self.with_proc_mut(pid, |p| {
            let doomed: Vec<u32> = p.fds.keys().copied().filter(|&fd| fd >= first).collect();
            let mut entries = Vec::with_capacity(doomed.len());
            for fd in doomed {
                if let Some(entry) = p.fds.remove(&fd) {
                    entries.push(entry);
                }
            }
            Ok(entries)
        })?;
        let n = closed.len();
        // Release outside the process-table lock (close-time side effects
        // may take subsystem locks).
        for entry in closed {
            self.release_fd_entry(entry);
        }
        Ok(n)
    }

    /// `splice(2)`: moves up to `len` bytes between two descriptors without
    /// copying through userspace. Supports pipe→pipe, socket→pipe,
    /// pipe→socket and socket→socket, with `SPLICE_F_NONBLOCK` semantics:
    /// `EAGAIN` on an empty source or a full destination, `0` at EOF.
    /// Loss-free under backpressure: whatever the destination does not
    /// accept is pushed back onto the source, so a caller that sees
    /// `EAGAIN` or a short count can retry later without dropping bytes.
    /// The attach plane does not call it: it submits the same operation
    /// as [`Sqe::Splice`](crate::io_uring::Sqe::Splice), one
    /// [`Kernel::io_uring_enter`] for every connection a wait reports
    /// ready (§3.2.4's proxy, batched).
    pub fn splice(&self, pid: Pid, fd_in: u32, fd_out: u32, len: usize) -> SysResult<usize> {
        self.charge_syscall();
        self.splice_body(pid, fd_in, fd_out, len)
    }

    /// What one splice does once the kernel is entered, by `splice(2)` or
    /// by an io_uring SQE: take the source's queued segments, link what
    /// fits onto the destination, push the rest back, and charge the page
    /// remaps of what moved.
    pub(crate) fn splice_body(
        &self,
        pid: Pid,
        fd_in: u32,
        fd_out: u32,
        len: usize,
    ) -> SysResult<usize> {
        let (src, dst) = self.with_proc(pid, |p| {
            let a = Arc::clone(&p.fds.get(&fd_in).ok_or(Errno::EBADF)?.file);
            let b = Arc::clone(&p.fds.get(&fd_out).ok_or(Errno::EBADF)?.file);
            Ok((a, b))
        })?;
        let src = match &src.kind {
            FileKind::PipeRead(pipe) => pipe,
            FileKind::Socket(s) => s.in_pipe(),
            _ => return Err(Errno::EINVAL),
        };
        // At most one pipe's worth moves, by reference: an empty source
        // still gives `EAGAIN`, one at EOF nothing.
        let mut segs = src.take(len.min(crate::pipe::PIPE_CAPACITY))?;
        if segs.is_empty() {
            return Ok(0);
        }
        let written = match &dst.kind {
            FileKind::PipeWrite(pipe) => pipe.put(&mut segs),
            FileKind::Socket(s) => s.sending(|out| out.put(&mut segs)),
            _ => Err(Errno::EINVAL),
        };
        // Whatever the destination refused, wholly or in part, returns to
        // the front of the source before the result surfaces.
        if !segs.is_empty() {
            src.push_front(segs);
        }
        let written = written?;
        self.inner.clock.advance(COST.splice(written as u64));
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntr_fs::memfs::memfs;

    fn kernel() -> Kernel {
        let clock = SimClock::new();
        let fs = memfs(DevId(1), clock.clone());
        Kernel::with_clock(clock, fs, KernelConfig::default())
    }

    /// The thresholds in pages: 20% and 10% of the cache by default, the
    /// paper's 64/32 MiB, and a background threshold at or above the hard
    /// one held a page below it.
    #[test]
    fn dirty_thresholds_resolve_to_pages() {
        let pages = |c: KernelConfig| {
            let page = PAGE_SIZE as u64;
            (
                c.resolved_dirty_bytes() / page,
                c.resolved_dirty_background_bytes() / page,
            )
        };
        assert_eq!(pages(KernelConfig::default()), (13_107, 6_553));
        assert_eq!(pages(KernelConfig::paper_legacy()), (16_384, 8_192));
        let tight = KernelConfig {
            page_cache_limit: 1 << 30,
            dirty_bytes: 64 * PAGE_SIZE as u64,
            ..KernelConfig::default()
        };
        assert_eq!(pages(tight), (64, 63));
    }

    #[test]
    fn boot_creates_init() {
        let k = kernel();
        let info = k.proc_info(Pid::INIT).unwrap();
        assert_eq!(info.name, "init");
        assert!(info.creds.caps.has(Capability::SysAdmin));
        assert_eq!(k.pids(), vec![Pid::INIT]);
    }

    /// The fork-rollback path (cgroup attach failure) re-locks the process
    /// table and releases namespace refs; it must run *after* the cgroups
    /// guard drops. Lockdep verifies the order at runtime — this test is
    /// what drives the path, which no happy-path test reaches.
    #[test]
    fn fork_rollback_on_cgroup_limit_is_clean() {
        let k = kernel();
        let cg = k.cgroup_create("/jail").unwrap();
        k.cgroup_set_limits(&cg, CgroupLimits { pids_max: Some(1) })
            .unwrap();
        k.cgroup_attach(Pid::INIT, &cg).unwrap();
        // The child inherits /jail, whose pid budget init exhausts: the
        // attach fails and the inserted child must be rolled back whole.
        assert_eq!(k.fork(Pid::INIT), Err(Errno::EAGAIN));
        assert_eq!(k.pids(), vec![Pid::INIT]);
        assert_eq!(k.cgroup_members(&cg).unwrap(), vec![Pid::INIT]);
        // The table is intact: a fork after lifting the limit succeeds.
        k.cgroup_set_limits(&cg, CgroupLimits::default()).unwrap();
        let child = k.fork(Pid::INIT).unwrap();
        assert!(k.is_alive(child));
    }

    #[test]
    fn fork_exit_reap() {
        let k = kernel();
        let child = k.fork(Pid::INIT).unwrap();
        assert_eq!(child, Pid(2));
        assert!(k.is_alive(child));
        assert_eq!(k.proc_info(child).unwrap().ppid, Pid::INIT);
        k.exit(child).unwrap();
        assert!(!k.is_alive(child));
        // Reaping a running process: ECHILD ("nothing waitable"), the
        // non-blocking stand-in for waitpid's blocking semantics.
        assert_eq!(k.reap(Pid::INIT), Err(Errno::ECHILD));
        k.reap(child).unwrap();
        assert_eq!(k.proc_info(child).map(|_| ()), Err(Errno::ESRCH));
        assert_eq!(k.reap(child), Err(Errno::ESRCH));
    }

    #[test]
    fn unshare_gives_fresh_namespaces() {
        let k = kernel();
        let child = k.fork(Pid::INIT).unwrap();
        let before = k.proc_info(child).unwrap().ns;
        k.unshare(child, &[NamespaceKind::Mount, NamespaceKind::Uts])
            .unwrap();
        let after = k.proc_info(child).unwrap().ns;
        assert_eq!(
            before.diff(&after),
            vec![NamespaceKind::Mount, NamespaceKind::Uts]
        );
        // Hostname was inherited into the new UTS namespace.
        assert_eq!(k.gethostname(child).unwrap(), "host");
        k.sethostname(child, "container").unwrap();
        assert_eq!(k.gethostname(child).unwrap(), "container");
        assert_eq!(k.gethostname(Pid::INIT).unwrap(), "host");
    }

    #[test]
    fn namespace_gc_on_reap() {
        let k = kernel();
        let baseline = (k.mount_ns_count(), k.hostname_count(), k.ns_ref_entries());
        assert_eq!(baseline, (1, 1, 7));
        let child = k.fork(Pid::INIT).unwrap();
        k.unshare(child, &[NamespaceKind::Mount, NamespaceKind::Uts])
            .unwrap();
        let ns = k.proc_info(child).unwrap().ns;
        assert_eq!(k.mount_ns_count(), 2);
        assert_eq!(k.hostname_count(), 2);
        assert_eq!(k.ns_refcount(NamespaceKind::Mount, ns.mount), 1);
        // Zombies keep their namespaces referenced until reaped.
        k.exit(child).unwrap();
        assert_eq!(k.mount_ns_count(), 2);
        assert_eq!(k.ns_refcount(NamespaceKind::Mount, ns.mount), 1);
        // Reaping the last holder reclaims everything.
        k.reap(child).unwrap();
        assert_eq!(
            (k.mount_ns_count(), k.hostname_count(), k.ns_ref_entries()),
            baseline
        );
        assert_eq!(k.ns_refcount(NamespaceKind::Mount, ns.mount), 0);
        assert_eq!(k.mount_ns_ids(), vec![NamespaceId(1)]);
    }

    #[test]
    fn unshare_again_gcs_abandoned_namespace() {
        let k = kernel();
        let child = k.fork(Pid::INIT).unwrap();
        k.unshare(child, &[NamespaceKind::Mount]).unwrap();
        let first = k.proc_info(child).unwrap().ns.mount;
        assert_eq!(k.mount_ns_count(), 2);
        // Unsharing again moves the child's only reference off `first`:
        // the abandoned table is reclaimed, not leaked.
        k.unshare(child, &[NamespaceKind::Mount]).unwrap();
        assert_eq!(k.mount_ns_count(), 2);
        assert_eq!(k.ns_refcount(NamespaceKind::Mount, first), 0);
        k.exit(child).unwrap();
        k.reap(child).unwrap();
        assert_eq!(k.mount_ns_count(), 1);
    }

    #[test]
    fn setns_moves_references_and_keeps_namespace_alive() {
        let k = kernel();
        let container = k.fork(Pid::INIT).unwrap();
        k.unshare(container, &[NamespaceKind::Mount, NamespaceKind::Uts])
            .unwrap();
        let ns = k.proc_info(container).unwrap().ns;
        let tool = k.fork(Pid::INIT).unwrap();
        k.setns(tool, container, &[NamespaceKind::Mount, NamespaceKind::Uts])
            .unwrap();
        assert_eq!(k.ns_refcount(NamespaceKind::Mount, ns.mount), 2);
        // The container dies first — the attached tool keeps the
        // namespaces (and the hostname) alive.
        k.sethostname(container, "shared").unwrap();
        k.exit(container).unwrap();
        k.reap(container).unwrap();
        assert_eq!(k.ns_refcount(NamespaceKind::Mount, ns.mount), 1);
        assert_eq!(k.gethostname(tool).unwrap(), "shared");
        // The tool leaving is the last reference: full teardown.
        k.exit(tool).unwrap();
        k.reap(tool).unwrap();
        assert_eq!(k.mount_ns_count(), 1);
        assert_eq!(k.hostname_count(), 1);
        assert_eq!(k.ns_ref_entries(), 7);
    }

    #[test]
    fn setns_with_duplicate_kinds_counts_once() {
        let k = kernel();
        let container = k.fork(Pid::INIT).unwrap();
        k.unshare(container, &[NamespaceKind::Mount]).unwrap();
        let ns = k.proc_info(container).unwrap().ns;
        let tool = k.fork(Pid::INIT).unwrap();
        // A repeated kind must move exactly one reference.
        k.setns(
            tool,
            container,
            &[NamespaceKind::Mount, NamespaceKind::Mount],
        )
        .unwrap();
        assert_eq!(k.ns_refcount(NamespaceKind::Mount, ns.mount), 2);
        k.exit(tool).unwrap();
        k.reap(tool).unwrap();
        k.exit(container).unwrap();
        k.reap(container).unwrap();
        assert_eq!(k.mount_ns_count(), 1);
        assert_eq!(k.ns_ref_entries(), 7);
    }

    #[test]
    fn namespace_gc_releases_page_cache_of_private_mounts() {
        use cntr_types::{Mode, OpenFlags};
        let k = kernel();
        let child = k.fork(Pid::INIT).unwrap();
        k.unshare(child, &[NamespaceKind::Mount]).unwrap();
        k.mkdir(child, "/priv", Mode::RWXR_XR_X).unwrap();
        let sub = cntr_fs::memfs::memfs(DevId(77), k.clock().clone());
        k.mount_fs(
            child,
            "/priv",
            Arc::clone(&sub) as Arc<dyn cntr_fs::Filesystem>,
            crate::mount::MountFlags::default(),
        )
        .unwrap();
        // Dirty writeback data: the page cache now holds pages for the
        // private filesystem and a flush reference pinning its `Arc`.
        let fd = k
            .open(child, "/priv/data", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.write_fd(child, fd, &[7u8; 8192]).unwrap();
        k.close(child, fd).unwrap();
        assert!(k.dirty_bytes() > 0);
        // Reaping the namespace's last process must flush and drop that
        // state: no cached page or writeback reference outlives the
        // mount table.
        k.exit(child).unwrap();
        k.reap(child).unwrap();
        assert_eq!(
            Arc::strong_count(&sub),
            1,
            "GC'd namespace's filesystem must drop to one reference"
        );
    }

    #[test]
    fn setns_into_zombie_is_esrch() {
        let k = kernel();
        let container = k.fork(Pid::INIT).unwrap();
        k.unshare(container, &[NamespaceKind::Mount]).unwrap();
        k.exit(container).unwrap();
        let tool = k.fork(Pid::INIT).unwrap();
        // A zombie's namespaces are not joinable (Linux releases them at
        // exit; this model keeps them observable but not adoptable).
        assert_eq!(
            k.setns(tool, container, &[NamespaceKind::Mount]),
            Err(Errno::ESRCH)
        );
        k.reap(container).unwrap();
        assert_eq!(k.mount_ns_count(), 1);
    }

    #[test]
    fn fanotify_is_scoped_per_mount_namespace() {
        use cntr_types::{Mode, OpenFlags};
        let k = kernel();
        let a = k.fork(Pid::INIT).unwrap();
        let b = k.fork(Pid::INIT).unwrap();
        k.unshare(a, &[NamespaceKind::Mount]).unwrap();
        k.unshare(b, &[NamespaceKind::Mount]).unwrap();
        // Two concurrent recorders, one per container namespace.
        k.fanotify_start(a).unwrap();
        k.fanotify_start(b).unwrap();
        for (pid, path) in [(a, "/a.bin"), (b, "/b.bin")] {
            let fd = k
                .open(pid, path, OpenFlags::create(), Mode::RW_R__R__)
                .unwrap();
            k.close(pid, fd).unwrap();
            let fd = k
                .open(pid, path, OpenFlags::RDONLY, Mode::RW_R__R__)
                .unwrap();
            k.close(pid, fd).unwrap();
        }
        let ev_a = k.fanotify_stop(a).unwrap();
        let ev_b = k.fanotify_stop(b).unwrap();
        assert!(ev_a.iter().all(|e| e.path == "/a.bin"), "{ev_a:?}");
        assert!(ev_b.iter().all(|e| e.path == "/b.bin"), "{ev_b:?}");
        assert!(!ev_a.is_empty() && !ev_b.is_empty());
        // A recorder armed in a namespace that dies is cleaned up with it.
        k.fanotify_start(a).unwrap();
        k.exit(a).unwrap();
        k.reap(a).unwrap();
        k.exit(b).unwrap();
        k.reap(b).unwrap();
        assert_eq!(k.inner.fanotify.lock().len(), 0);
    }

    #[test]
    fn unshare_requires_sys_admin() {
        let k = kernel();
        let child = k.fork(Pid::INIT).unwrap();
        let mut creds = Credentials::host_root();
        creds.caps.remove(Capability::SysAdmin);
        k.set_creds(child, creds).unwrap();
        assert_eq!(k.unshare(child, &[NamespaceKind::Mount]), Err(Errno::EPERM));
    }

    #[test]
    fn setns_adopts_target_namespaces() {
        let k = kernel();
        let container = k.fork(Pid::INIT).unwrap();
        k.unshare(container, &[NamespaceKind::Mount, NamespaceKind::Pid])
            .unwrap();
        let tool = k.fork(Pid::INIT).unwrap();
        k.setns(tool, container, &[NamespaceKind::Mount, NamespaceKind::Pid])
            .unwrap();
        let a = k.proc_info(container).unwrap().ns;
        let b = k.proc_info(tool).unwrap().ns;
        assert_eq!(a.mount, b.mount);
        assert_eq!(a.pid, b.pid);
        assert_ne!(a.net, NamespaceId(0));
    }

    #[test]
    fn environment_roundtrip() {
        let k = kernel();
        k.setenv(Pid::INIT, "PATH", "/usr/bin").unwrap();
        assert_eq!(
            k.getenv(Pid::INIT, "PATH").unwrap().as_deref(),
            Some("/usr/bin")
        );
        let mut env = BTreeMap::new();
        env.insert("ONLY".to_string(), "this".to_string());
        k.set_environ(Pid::INIT, env).unwrap();
        assert_eq!(k.getenv(Pid::INIT, "PATH").unwrap(), None);
        assert_eq!(
            k.getenv(Pid::INIT, "ONLY").unwrap().as_deref(),
            Some("this")
        );
    }

    #[test]
    fn cgroup_attach_updates_process() {
        let k = kernel();
        let g = k.cgroup_create("/docker").unwrap();
        k.cgroup_attach(Pid::INIT, &g).unwrap();
        assert_eq!(k.proc_info(Pid::INIT).unwrap().cgroup, g);
        assert_eq!(k.cgroup_members(&g).unwrap(), vec![Pid::INIT]);
    }

    #[test]
    fn pipes_and_splice() {
        let k = kernel();
        let (r1, w1) = k.pipe(Pid::INIT).unwrap();
        let (r2, w2) = k.pipe(Pid::INIT).unwrap();
        // Feed pipe 1, splice into pipe 2, read from pipe 2.
        k.write_fd(Pid::INIT, w1, b"spliced bytes").unwrap();
        let moved = k.splice(Pid::INIT, r1, w2, 1024).unwrap();
        assert_eq!(moved, 13);
        let mut buf = [0u8; 32];
        let n = k.read_fd(Pid::INIT, r2, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"spliced bytes");
    }

    #[test]
    fn splice_stages_only_what_is_queued() {
        let k = kernel();
        let (a, b) = k.socketpair(Pid::INIT).unwrap();
        let (c, d) = k.socketpair(Pid::INIT).unwrap();
        // Empty source: EAGAIN, nothing charged beyond the syscall.
        let before = k.clock().now();
        assert_eq!(k.splice(Pid::INIT, b, c, 64 * 1024), Err(Errno::EAGAIN));
        assert_eq!((k.clock().now() - before).as_nanos(), COST.syscall_ns);
        // A queued message moves whole under a larger request, socket to
        // socket, and is charged by the pages it covers.
        let msg: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        k.write_fd(Pid::INIT, a, &msg).unwrap();
        let before = k.clock().now();
        assert_eq!(k.splice(Pid::INIT, b, c, 64 * 1024), Ok(msg.len()));
        assert_eq!(
            (k.clock().now() - before).as_nanos(),
            COST.syscall_ns + COST.splice(msg.len() as u64)
        );
        let mut buf = vec![0u8; 8192];
        let n = k.read_fd(Pid::INIT, d, &mut buf).unwrap();
        assert_eq!(&buf[..n], &msg[..]);
        // A shut-down source reads as EOF.
        k.shutdown_write(Pid::INIT, a).unwrap();
        assert_eq!(k.splice(Pid::INIT, b, c, 64 * 1024), Ok(0));
    }

    #[test]
    fn poll_fd_is_charged_as_a_syscall() {
        let k = kernel();
        let (r, w) = k.pipe(Pid::INIT).unwrap();
        k.write_fd(Pid::INIT, w, b"!").unwrap();
        let before = k.clock().now();
        assert!(k.poll_fd(Pid::INIT, r).unwrap().readable);
        assert_eq!((k.clock().now() - before).as_nanos(), COST.syscall_ns);
    }

    #[test]
    fn socketpair_roundtrip() {
        let k = kernel();
        let (a, b) = k.socketpair(Pid::INIT).unwrap();
        k.write_fd(Pid::INIT, a, b"msg").unwrap();
        let mut buf = [0u8; 8];
        let n = k.read_fd(Pid::INIT, b, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"msg");
    }

    #[test]
    fn epoll_over_pipe() {
        let k = kernel();
        let ep = k.epoll_create(Pid::INIT).unwrap();
        let (r, w) = k.pipe(Pid::INIT).unwrap();
        k.epoll_add(Pid::INIT, ep, r, 42, Events::IN).unwrap();
        assert!(k.epoll_wait_budget(Pid::INIT, ep, 8).unwrap().is_empty());
        k.write_fd(Pid::INIT, w, b"!").unwrap();
        let ready = k.epoll_wait_budget(Pid::INIT, ep, 8).unwrap();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].0, 42);
    }
}
