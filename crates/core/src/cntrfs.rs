//! The CntrFS server: FUSE passthrough into another mount namespace.
//!
//! The server process lives on the host or inside the fat container (paper
//! §3.2.2) and serves every FUSE request with ordinary system calls in *its*
//! namespace — that indirection is the whole trick: a process in the slim
//! container's nested namespace transparently reads files that only exist in
//! the fat container.
//!
//! Faithful details from the paper:
//!
//! * **one `O_PATH` fd per inode; `openat`+`fstat` per lookup**: "for every
//!   lookup, we need one `open()` system call to get a file handle to the
//!   inode, followed by a `stat()` system call to check if we already have
//!   looked up this inode in a different path due \[to\] hardlinks" (§5.2.2).
//!   The handle is taken relative to the parent's, as libfuse's
//!   `passthrough_ll` does, and a duplicate of a known inode is closed
//!   again. Every other request starts at the inode's handle with an `*at`
//!   call, so no request walks a path from the root, and a rename by the
//!   fat container itself cannot leave an inode pointing at the wrong file.
//!   This is still why CntrFS lookups are slower than native dcache hits
//!   (compilebench-read's 13.3×). Every LOOKUP pays the open+stat only in
//!   the paper profile ([`FuseConfig::published_lookup`]); see below for
//!   the shipping one,
//! * ownership of created files is stamped with the caller's ids
//!   (`setfsuid`/`setfsgid` emulation), while mode-bit decisions run under
//!   the *server's* root identity — the cause of xfstests #375,
//! * inodes are not persistent: once forgotten they are gone, so file
//!   handles are not exportable (xfstests #426).
//!
//! Where the mount negotiated FUSE passthrough (Linux 6.9, a post-paper
//! optimization), the first OPEN of an inode registers the descriptor it
//! opened as the inode's backing file (`FUSE_DEV_IOC_BACKING_OPEN`), and
//! every OPEN reply of that inode carries the id: the kernel then reads and
//! writes the file directly, and this server sees no READ or WRITE of it.
//! The id lives until the inode's FORGET.
//!
//! Outside the paper profile, a LOOKUP of a name this server resolved
//! before is a revalidation: one `fstatat(parent, name,
//! AT_SYMLINK_NOFOLLOW)`. If the `(dev, ino)` it returns belongs to an
//! inode the server holds, that inode's `O_PATH` anchor pins it — the pair
//! cannot name another file while the anchor lives — so the server counts
//! the lookup and replies with no `openat` and no `close`. "Resolved
//! before" is a name hint, `(parent, name) → inode`, written when a LOOKUP
//! or create registers a reply and dropped at FORGET, UNLINK, RMDIR and
//! RENAME. A hint only chooses which system call to try first: the
//! `(dev, ino)` check decides the answer, and a name that now names an
//! object the server does not hold takes the open path. A hint is never
//! used to walk a path.
//!
//! [`FuseConfig::published_lookup`]: cntr_fuse::FuseConfig::published_lookup

use cntr_fuse::proto::{Reply, Request, RequestCtx};
use cntr_fuse::server::FuseHandler;
use cntr_fuse::{FuseClientFs, FuseConfig, InitFlags, InlineTransport};
use cntr_kernel::Kernel;
use cntr_types::{
    AtFlags, DevId, Errno, FileType, Gid, IdMap, Ino, Mode, OpenFlags, Pid, SetAttr, Stat,
    SysResult, Uid,
};
use obs::{LazyGauge, Subsystem};
use parking_lot::Mutex;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

obs::counter_scope! {
    /// Event counters of one server, writing through to `core.cntrfs.*`.
    struct ServerCounters(Subsystem::Core) {
        /// LOOKUP requests served.
        lookups: "core.cntrfs.lookups",
        /// LOOKUPs that found a known inode and closed their new handle.
        lookup_dups: "core.cntrfs.lookup-dups",
        /// LOOKUPs of a hinted name answered by one `fstatat`.
        lookup_revalidated: "core.cntrfs.lookup-revalidated",
        /// Hinted names that now named an object the server does not
        /// hold, so their LOOKUP fell back to `openat` + `fstat`.
        lookup_stale_hints: "core.cntrfs.lookup-stale-hints",
        /// Requests answered with an error.
        errors: "core.cntrfs.errors",
    }
}

/// `O_PATH` handles held by live servers, one per remembered inode.
static OBS_ANCHORS: LazyGauge = LazyGauge::new(Subsystem::Core, "core.cntrfs.anchors");

/// Name hints held by live servers, at most one per remembered inode.
static OBS_HINTS: LazyGauge = LazyGauge::new(Subsystem::Core, "core.cntrfs.name-hints");

/// How an inode's handle is opened: it only locates the inode, and a
/// symlink is held itself.
const ANCHOR: OpenFlags = OpenFlags::RDONLY.with(OpenFlags::PATH | OpenFlags::NOFOLLOW);

/// Lock class of a server's inode and handle maps.
const STATE_CLASS: &str = "core.cntrfs.state";

/// Ranks the server's state lock above the kernel (0–4) and the attach
/// plane (5–6), in group 7: nothing is taken while it is held, so every
/// system call — the `openat` of a LOOKUP included — runs with it
/// released.
fn declare_server_lock_discipline() {
    lockdep::ordering(&[&[], &[], &[], &[], &[], &[], &[], &[STATE_CLASS]]);
}

struct InodeEntry {
    /// The `O_PATH` descriptor, in the server process, locating the inode.
    fd: u32,
    backing: (DevId, Ino),
    nlookup: u64,
    registration: Registration,
    /// The key of the name hint pointing here, if any.
    hint: Option<u64>,
}

/// Where an inode stands with FUSE passthrough.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Registration {
    /// Not opened since its LOOKUP.
    Unregistered,
    /// Its backing file's id.
    Registered(u32),
    /// The kernel refused the registration: its opens stay cached.
    Refused,
}

struct ServerState {
    /// The connection, once INIT negotiated passthrough for it.
    passthrough_conn: Option<DevId>,
    inodes: IdMap<u64, InodeEntry>,
    by_backing: IdMap<(DevId, Ino), u64>,
    /// Name hints: [`CntrfsServer::hint`] of a `(parent, name)` a LOOKUP
    /// resolved → the FUSE inode it found. `hints[k] == i` exactly when inode `i`'s
    /// `hint` is `Some(k)`.
    hints: IdMap<u64, u64>,
    next_ino: u64,
    /// FUSE fh → kernel fd in the server process.
    handles: IdMap<u64, u32>,
    next_fh: u64,
}

impl ServerState {
    /// Points the hint `key` at inode `ino`, replacing the inode's earlier
    /// hint and any other inode's hint of the same key.
    fn set_hint(&mut self, key: u64, ino: u64) {
        let Some(e) = self.inodes.get_mut(&ino) else {
            return;
        };
        if let Some(old) = e.hint.replace(key) {
            self.hints.remove(&old);
            OBS_HINTS.dec();
        }
        if let Some(prev) = self.hints.insert(key, ino) {
            if let Some(e) = self.inodes.get_mut(&prev) {
                e.hint = None;
            }
            OBS_HINTS.dec();
        }
        OBS_HINTS.inc();
    }

    /// Drops the hint `key`, if there is one.
    fn drop_hint(&mut self, key: u64) {
        if let Some(ino) = self.hints.remove(&key) {
            OBS_HINTS.dec();
            if let Some(e) = self.inodes.get_mut(&ino) {
                e.hint = None;
            }
        }
    }
}

/// The anchors and hints of a dropped server die with it.
impl Drop for ServerState {
    fn drop(&mut self) {
        OBS_ANCHORS.add(-(self.inodes.len() as i64));
        OBS_HINTS.add(-(self.hints.len() as i64));
    }
}

/// The CntrFS passthrough server.
#[derive(Clone)]
pub struct CntrfsServer {
    kernel: Kernel,
    /// The server process — already `setns`ed into the fat container when
    /// tools come from an image rather than the host.
    server_pid: Pid,
    state: Arc<Mutex<ServerState>>,
    counters: Arc<ServerCounters>,
    /// Answers every LOOKUP the published way ([`CntrfsServer::new`]).
    published_lookup: bool,
    /// Keys the name hints, with this server's random seed.
    hint_hasher: RandomState,
}

impl CntrfsServer {
    /// Creates a server rooted at `server_pid`'s `/`: its first handle is
    /// the `O_PATH` descriptor of that root, FUSE inode 1.
    ///
    /// `published_lookup` is the mount's
    /// [`FuseConfig::published_lookup`](cntr_fuse::FuseConfig::published_lookup):
    /// when set, every LOOKUP pays the paper's `openat` + `fstat`, and the
    /// server keeps no name hints.
    pub fn new(kernel: Kernel, server_pid: Pid, published_lookup: bool) -> SysResult<CntrfsServer> {
        declare_server_lock_discipline();
        // A FUSE daemon holds a descriptor per remembered inode and per
        // active handle — including handles pinned by deferred writeback —
        // so it raises its fd limit, as the real cntr does.
        if let Ok(mut limits) = kernel.rlimits(server_pid) {
            let _ = limits.set(
                cntr_types::RlimitKind::Nofile,
                cntr_types::Rlimit {
                    soft: 1 << 20,
                    hard: 1 << 20,
                },
            );
            let _ = kernel.set_rlimits(server_pid, limits);
        }
        let root = kernel.open(server_pid, "/", ANCHOR, Mode::RW_R__R__)?;
        let mut inodes = IdMap::default();
        inodes.insert(
            1,
            InodeEntry {
                fd: root,
                backing: (DevId(0), Ino(0)),
                nlookup: 1,
                registration: Registration::Unregistered,
                hint: None,
            },
        );
        OBS_ANCHORS.inc();
        Ok(CntrfsServer {
            kernel,
            server_pid,
            state: Arc::new(Mutex::new_class(
                STATE_CLASS,
                ServerState {
                    passthrough_conn: None,
                    inodes,
                    by_backing: IdMap::default(),
                    hints: IdMap::default(),
                    next_ino: 2,
                    handles: IdMap::default(),
                    next_fh: 1,
                },
            )),
            counters: Arc::new(ServerCounters::default()),
            published_lookup,
            hint_hasher: RandomState::new(),
        })
    }

    /// Mounts CntrFS: starts a server at `server_pid` (as [`CntrfsServer::new`]
    /// with `config`'s `published_lookup`) and connects a FUSE client to it
    /// over the in-process transport, as connection `dev`.
    pub fn mount(
        kernel: Kernel,
        server_pid: Pid,
        dev: DevId,
        config: FuseConfig,
    ) -> SysResult<(CntrfsServer, Arc<FuseClientFs>)> {
        let clock = kernel.clock().clone();
        let server = CntrfsServer::new(kernel, server_pid, config.published_lookup)?;
        let client = FuseClientFs::mount(dev, clock, config, InlineTransport::new(server.clone()))?;
        Ok((server, client))
    }

    /// The process serving requests.
    pub fn server_pid(&self) -> Pid {
        self.server_pid
    }

    /// Number of live (remembered) inodes.
    pub fn live_inodes(&self) -> usize {
        self.state.lock().inodes.len()
    }

    /// The inodes a name hint points at, in ascending order.
    pub fn hinted_inodes(&self) -> Vec<Ino> {
        let mut inos: Vec<Ino> = self.state.lock().hints.values().map(|&i| Ino(i)).collect();
        inos.sort_unstable();
        inos
    }

    /// The `O_PATH` descriptor of a remembered inode.
    fn anchor(&self, ino: Ino) -> SysResult<u32> {
        self.state
            .lock()
            .inodes
            .get(&ino.raw())
            .map(|e| e.fd)
            .ok_or(Errno::ESTALE)
    }

    /// Remembers the inode behind the freshly opened handle `fd` — or, if
    /// the paper's hardlink check finds it already known, counts the
    /// lookup and closes `fd` again — points the hint `key` at it, and
    /// returns `st` with the FUSE inode number substituted.
    fn register(&self, fd: u32, st: Stat, key: Option<u64>) -> Stat {
        let backing = (st.dev, st.ino);
        let (fuse_ino, known) = {
            let mut state = self.state.lock();
            let found = match state.by_backing.get(&backing) {
                // Hardlink (or re-lookup): same backing inode, possibly via
                // a different name — reuse the FUSE inode.
                Some(&ino) => {
                    state.inodes.get_mut(&ino).expect("maps in sync").nlookup += 1;
                    (ino, true)
                }
                None => {
                    let ino = state.next_ino;
                    state.next_ino += 1;
                    state.inodes.insert(
                        ino,
                        InodeEntry {
                            fd,
                            backing,
                            nlookup: 1,
                            registration: Registration::Unregistered,
                            hint: None,
                        },
                    );
                    state.by_backing.insert(backing, ino);
                    (ino, false)
                }
            };
            if let Some(key) = key {
                state.set_hint(key, found.0);
            }
            found
        };
        if known {
            self.counters.lookup_dups.inc();
            let _ = self.kernel.close(self.server_pid, fd);
        } else {
            OBS_ANCHORS.inc();
        }
        let mut out = st;
        out.ino = Ino(fuse_ino);
        out
    }

    fn fd_of(&self, fh: u64) -> SysResult<u32> {
        self.state
            .lock()
            .handles
            .get(&fh)
            .copied()
            .ok_or(Errno::EBADF)
    }

    /// Registers a new FUSE handle for the kernel fd `fd`.
    fn add_handle(&self, fd: u32) -> u64 {
        let mut st = self.state.lock();
        let fh = st.next_fh;
        st.next_fh += 1;
        st.handles.insert(fh, fd);
        fh
    }

    fn forget_one(&self, ino: Ino, n: u64) {
        if ino.raw() == 1 {
            return;
        }
        let (dropped, conn) = {
            let mut st = self.state.lock();
            let dropped = match st.inodes.get_mut(&ino.raw()) {
                Some(e) if e.nlookup <= n => {
                    let e = st.inodes.remove(&ino.raw()).expect("present");
                    st.by_backing.remove(&e.backing);
                    if let Some(key) = e.hint {
                        st.drop_hint(key);
                    }
                    Some(e)
                }
                Some(e) => {
                    e.nlookup -= n;
                    None
                }
                None => None,
            };
            (dropped, st.passthrough_conn)
        };
        if let Some(e) = dropped {
            OBS_ANCHORS.dec();
            let _ = self.kernel.close(self.server_pid, e.fd);
            if let (Registration::Registered(id), Some(conn)) = (e.registration, conn) {
                let _ = self.kernel.fuse_backing_close(self.server_pid, conn, id);
            }
        }
    }

    /// The backing id an OPEN of `ino` replies with: the inode's, or, on
    /// its first OPEN, the id the kernel gives `fd` (the descriptor that
    /// OPEN opened) as its backing file. `None` where passthrough was not
    /// negotiated or the kernel refused.
    fn backing_id(&self, ino: Ino, fd: u32) -> Option<u32> {
        let conn = {
            let st = self.state.lock();
            match st.inodes.get(&ino.raw())?.registration {
                Registration::Registered(id) => return Some(id),
                Registration::Refused => return None,
                Registration::Unregistered => st.passthrough_conn?,
            }
        };
        let registered = self.kernel.fuse_backing_open(self.server_pid, conn, fd);
        let mut st = self.state.lock();
        if registered == Err(Errno::ENODEV) {
            // The mount is not in this server's kernel: no backing file of
            // ours can serve it.
            st.passthrough_conn = None;
            return None;
        }
        let Some(e) = st.inodes.get_mut(&ino.raw()) else {
            // Forgotten meanwhile: nothing will close the id but us.
            drop(st);
            if let Ok(id) = registered {
                let _ = self.kernel.fuse_backing_close(self.server_pid, conn, id);
            }
            return None;
        };
        match (e.registration, registered) {
            (Registration::Unregistered, Ok(id)) => {
                e.registration = Registration::Registered(id);
                Some(id)
            }
            (Registration::Unregistered, Err(_)) => {
                e.registration = Registration::Refused;
                None
            }
            // A concurrent OPEN of the inode settled it first.
            (settled, mine) => {
                drop(st);
                if let Ok(id) = mine {
                    let _ = self.kernel.fuse_backing_close(self.server_pid, conn, id);
                }
                match settled {
                    Registration::Registered(id) => Some(id),
                    _ => None,
                }
            }
        }
    }

    /// Stamps ownership on a freshly created node with the caller's ids —
    /// the `setfsuid`/`setfsgid` delegation of the paper. Runs as the
    /// server's root identity, so no setgid-stripping logic applies (#375).
    fn stamp_owner(&self, parent_fd: u32, name: &str, ctx: RequestCtx) {
        if ctx.uid != 0 || ctx.gid != 0 {
            let _ = self.kernel.fchownat(
                self.server_pid,
                parent_fd,
                name,
                Uid(ctx.uid),
                Gid(ctx.gid),
                AtFlags::SYMLINK_NOFOLLOW,
            );
        }
    }

    fn do_setattr(&self, fd: u32, attr: &SetAttr) -> SysResult<Stat> {
        // Replayed as individual syscalls on the inode's handle, under the
        // server's identity.
        let (k, pid, here) = (&self.kernel, self.server_pid, AtFlags::EMPTY_PATH);
        if let Some(mode) = attr.mode {
            k.fchmodat(pid, fd, "", mode, here)?;
        }
        match (attr.uid, attr.gid) {
            (Some(uid), Some(gid)) => k.fchownat(pid, fd, "", uid, gid, here)?,
            (Some(uid), None) => {
                let st = k.fstat(pid, fd)?;
                k.fchownat(pid, fd, "", uid, st.gid, here)?;
            }
            (None, Some(gid)) => {
                let st = k.fstat(pid, fd)?;
                k.fchownat(pid, fd, "", st.uid, gid, here)?;
            }
            (None, None) => {}
        }
        if let Some(size) = attr.size {
            // A handle cannot truncate: reopen the inode for writing.
            let wfd = k.reopen(pid, fd, OpenFlags::WRONLY)?;
            let r = k.ftruncate(pid, wfd, size);
            let _ = k.close(pid, wfd);
            r?;
        }
        if attr.atime.is_some() || attr.mtime.is_some() {
            k.utimensat(pid, fd, "", attr.atime, attr.mtime, here)?;
        }
        k.fstat(pid, fd)
    }

    /// The key of the name hint for `name` under `parent`, where this
    /// server keeps hints: a digest, so a hint costs two words. Names
    /// whose digests collide share one hint, which costs at most a fallback
    /// to the open path: the `(dev, ino)` check, not the hint, decides
    /// every answer, and the random seed keeps a client from choosing
    /// names that collide.
    fn hint(&self, parent: Ino, name: &str) -> Option<u64> {
        (!self.published_lookup).then(|| self.hint_hasher.hash_one((parent.raw(), name)))
    }

    /// Drops the hint of a name the client removed or renamed.
    fn drop_name_hint(&self, parent: Ino, name: &str) {
        if let Some(key) = self.hint(parent, name) {
            self.state.lock().drop_hint(key);
        }
    }

    /// LOOKUP: a revalidation by one `fstatat` where `name` is hinted,
    /// else (or if that finds an object the server does not hold) the
    /// published open path.
    fn lookup_impl(&self, parent: Ino, name: &str) -> SysResult<Stat> {
        let key = self.hint(parent, name);
        let (parent_fd, hinted) = {
            let st = self.state.lock();
            let fd = st.inodes.get(&parent.raw()).ok_or(Errno::ESTALE)?.fd;
            (fd, key.filter(|k| st.hints.contains_key(k)))
        };
        if let Some(key) = hinted {
            if let Some(st) = self.revalidate(parent_fd, name, key)? {
                return Ok(st);
            }
        }
        self.open_entry(parent_fd, name, key)
    }

    /// Answers a LOOKUP of the hinted `name` with one `fstatat`, if it
    /// names an inode the server holds (`Ok(None)` if it does not). The
    /// state lock is taken after the system call, not across it.
    fn revalidate(&self, parent_fd: u32, name: &str, key: u64) -> SysResult<Option<Stat>> {
        let flags = AtFlags::SYMLINK_NOFOLLOW;
        let st = match self.kernel.fstatat(self.server_pid, parent_fd, name, flags) {
            Ok(st) => st,
            Err(e) => {
                self.state.lock().drop_hint(key);
                return Err(e);
            }
        };
        let mut state = self.state.lock();
        let Some(&ino) = state.by_backing.get(&(st.dev, st.ino)) else {
            drop(state);
            self.counters.lookup_stale_hints.inc();
            return Ok(None);
        };
        state.inodes.get_mut(&ino).expect("maps in sync").nlookup += 1;
        state.set_hint(key, ino);
        drop(state);
        self.counters.lookup_revalidated.inc();
        Ok(Some(Stat {
            ino: Ino(ino),
            ..st
        }))
    }

    /// The published LOOKUP: `openat(parent, name, O_PATH | O_NOFOLLOW)`,
    /// `fstat`, and [`CntrfsServer::register`] with the hint `key`.
    fn open_entry(&self, parent_fd: u32, name: &str, key: Option<u64>) -> SysResult<Stat> {
        let fd = self
            .kernel
            .openat(self.server_pid, parent_fd, name, ANCHOR, Mode::RW_R__R__)?;
        match self.kernel.fstat(self.server_pid, fd) {
            Ok(st) => Ok(self.register(fd, st, key)),
            Err(e) => {
                let _ = self.kernel.close(self.server_pid, fd);
                Err(e)
            }
        }
    }

    /// Creates `name` under `parent` with `create`, stamps the caller's
    /// ownership on it and opens it: a new object has no hint to try.
    fn create_entry(
        &self,
        parent: Ino,
        name: &str,
        ctx: RequestCtx,
        create: impl FnOnce(u32) -> SysResult<()>,
    ) -> SysResult<Stat> {
        let parent_fd = self.anchor(parent)?;
        create(parent_fd)?;
        self.stamp_owner(parent_fd, name, ctx);
        self.open_entry(parent_fd, name, self.hint(parent, name))
    }

    fn dispatch(&self, req: Request) -> SysResult<Reply> {
        let (k, pid) = (&self.kernel, self.server_pid);
        Ok(match req {
            Request::Init { wanted, conn } => {
                // CntrFS supports every optimization the shipping profile
                // asks for (splice write included, which the paper's
                // profile leaves off).
                let granted = wanted.intersect(InitFlags::cntr_default());
                if granted.passthrough {
                    self.state.lock().passthrough_conn = Some(conn);
                }
                Reply::Init { granted }
            }
            Request::Lookup { parent, name, .. } => {
                self.counters.lookups.inc();
                Reply::Entry(self.lookup_impl(parent, &name)?)
            }
            Request::Forget { ino, nlookup } => {
                self.forget_one(ino, nlookup);
                Reply::Ok
            }
            Request::BatchForget { items } => {
                for (ino, n) in items {
                    self.forget_one(ino, n);
                }
                Reply::Ok
            }
            Request::Getattr { ino } => {
                // The handle keeps an unlinked inode's attributes
                // reachable as long as the filesystem keeps the inode.
                let mut st = k.fstat(pid, self.anchor(ino)?)?;
                st.ino = ino;
                Reply::Attr(st)
            }
            Request::Setattr { ino, attr, .. } => {
                let mut st = self.do_setattr(self.anchor(ino)?, &attr)?;
                st.ino = ino;
                Reply::Attr(st)
            }
            Request::Readlink { ino } => Reply::Target(k.readlinkat(pid, self.anchor(ino)?, "")?),
            Request::Symlink {
                parent,
                name,
                target,
                ctx,
            } => Reply::Entry(self.create_entry(parent, &name, ctx, |dir| {
                k.symlinkat(pid, &target, dir, &name)
            })?),
            Request::Mknod {
                parent,
                name,
                ftype,
                mode,
                rdev,
                ctx,
            } => Reply::Entry(self.create_entry(parent, &name, ctx, |dir| {
                if ftype == FileType::Regular {
                    let fd = k.openat(pid, dir, &name, OpenFlags::create_new(), mode)?;
                    k.close(pid, fd)?;
                    k.fchmodat(pid, dir, &name, mode, AtFlags::NONE)
                } else {
                    k.mknodat(pid, dir, &name, ftype, mode, rdev)
                }
            })?),
            Request::Mkdir {
                parent,
                name,
                mode,
                ctx,
            } => Reply::Entry(
                self.create_entry(parent, &name, ctx, |dir| k.mkdirat(pid, dir, &name, mode))?,
            ),
            Request::Unlink { parent, name } => {
                k.unlinkat(pid, self.anchor(parent)?, &name, AtFlags::NONE)?;
                self.drop_name_hint(parent, &name);
                Reply::Ok
            }
            Request::Rmdir { parent, name } => {
                k.unlinkat(pid, self.anchor(parent)?, &name, AtFlags::REMOVEDIR)?;
                self.drop_name_hint(parent, &name);
                Reply::Ok
            }
            Request::Rename {
                parent,
                name,
                newparent,
                newname,
                flags,
            } => {
                let (from, to) = (self.anchor(parent)?, self.anchor(newparent)?);
                k.renameat2(pid, from, &name, to, &newname, flags)?;
                self.drop_name_hint(parent, &name);
                self.drop_name_hint(newparent, &newname);
                Reply::Ok
            }
            Request::Link {
                ino,
                newparent,
                newname,
            } => {
                let (src, dir) = (self.anchor(ino)?, self.anchor(newparent)?);
                k.linkat(pid, src, "", dir, &newname, AtFlags::EMPTY_PATH)?;
                Reply::Entry(self.lookup_impl(newparent, &newname)?)
            }
            Request::Open { ino, flags } => {
                // The descriptor serves FSYNC, FALLOCATE and, without
                // passthrough, READ and WRITE of this open.
                let fd = k.reopen(pid, self.anchor(ino)?, flags)?;
                Reply::Opened {
                    passthrough: self.backing_id(ino, fd),
                    fh: self.add_handle(fd),
                    keep_cache: true,
                }
            }
            Request::Read {
                fh, offset, size, ..
            } => {
                let mut buf = vec![0u8; size as usize];
                let n = k.pread(pid, self.fd_of(fh)?, offset, &mut buf)?;
                buf.truncate(n);
                Reply::Data(buf.into())
            }
            Request::Write {
                fh, offset, data, ..
            } => Reply::Written(k.pwrite(pid, self.fd_of(fh)?, offset, &data)? as u32),
            Request::Statfs => Reply::Statfs(k.statfs(pid, "/")?),
            Request::Release { fh, .. } => {
                let fd = self.state.lock().handles.remove(&fh);
                k.close(pid, fd.ok_or(Errno::EBADF)?)?;
                Reply::Ok
            }
            Request::Fsync { fh, datasync, .. } => {
                let fd = self.fd_of(fh)?;
                // CNTR's delayed sync (§3.3): under the writeback cache a
                // datasync is handed to background writeback without a
                // durability barrier — "sacrific[ing] write consistency for
                // performance". A full fsync is honoured — and costs two
                // barriers through FUSE (the data pass, then the metadata /
                // parent-directory pass), which is why sync-per-operation
                // workloads like SQLite see ~2× on CntrFS (§5.2.2).
                if datasync {
                    k.fsync_relaxed(pid, fd)?;
                } else {
                    k.fsync(pid, fd, true)?;
                    k.fsync(pid, fd, false)?;
                }
                Reply::Ok
            }
            Request::Readdir { ino } => Reply::Dirents(
                k.readdirat(pid, self.anchor(ino)?, "", AtFlags::EMPTY_PATH)?
                    .into_iter()
                    .filter(|d| d.name != "." && d.name != "..")
                    .collect(),
            ),
            Request::Getxattr { ino, name } => Reply::Xattr(k.getxattrat(
                pid,
                self.anchor(ino)?,
                "",
                AtFlags::EMPTY_PATH,
                &name,
            )?),
            Request::Setxattr {
                ino,
                name,
                value,
                flags,
            } => {
                let fd = self.anchor(ino)?;
                k.setxattrat(pid, fd, "", AtFlags::EMPTY_PATH, &name, &value, flags)?;
                Reply::Ok
            }
            Request::Listxattr { ino } => {
                Reply::XattrNames(k.listxattrat(pid, self.anchor(ino)?, "", AtFlags::EMPTY_PATH)?)
            }
            Request::Removexattr { ino, name } => {
                k.removexattrat(pid, self.anchor(ino)?, "", AtFlags::EMPTY_PATH, &name)?;
                Reply::Ok
            }
            Request::Create {
                parent,
                name,
                mode,
                flags,
                ctx,
            } => {
                let parent_fd = self.anchor(parent)?;
                let fd = k.openat(pid, parent_fd, &name, flags.with(OpenFlags::CREAT), mode)?;
                self.stamp_owner(parent_fd, &name, ctx);
                let stat = match self.open_entry(parent_fd, &name, self.hint(parent, &name)) {
                    Ok(st) => st,
                    Err(e) => {
                        let _ = k.close(pid, fd);
                        return Err(e);
                    }
                };
                Reply::Created {
                    stat,
                    fh: self.add_handle(fd),
                }
            }
            Request::Fallocate {
                fh,
                offset,
                len,
                mode,
                ..
            } => {
                k.fallocate(pid, self.fd_of(fh)?, offset, len, mode)?;
                Reply::Ok
            }
            Request::Destroy => Reply::Ok,
        })
    }
}

impl FuseHandler for CntrfsServer {
    fn handle(&self, req: Request) -> Reply {
        self.dispatch(req).unwrap_or_else(|e| {
            self.counters.errors.inc();
            Reply::Err(e)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntr_engine::runtime::boot_host;
    use cntr_fs::{Filesystem, FilesystemExt, FsContext};
    use cntr_types::{RenameFlags, SimClock, COST};

    fn setup() -> (Kernel, Arc<FuseClientFs>) {
        let (k, fs, _) = setup_with(FuseConfig::optimized());
        (k, fs)
    }

    /// Host files under `/usr`, served by a server mounted with `config`.
    fn setup_with(config: FuseConfig) -> (Kernel, Arc<FuseClientFs>, CntrfsServer) {
        let k = boot_host(SimClock::new());
        // Host files the server will expose.
        k.mkdir(Pid::INIT, "/usr/share", Mode::RWXR_XR_X).unwrap();
        let fd = k
            .open(
                Pid::INIT,
                "/usr/bin/gdb",
                OpenFlags::create(),
                Mode::RWXR_XR_X,
            )
            .unwrap();
        k.write_fd(Pid::INIT, fd, b"GDB-BINARY").unwrap();
        k.close(Pid::INIT, fd).unwrap();
        k.chmod(Pid::INIT, "/usr/bin/gdb", Mode::RWXR_XR_X).unwrap();

        let server_pid = k.fork(Pid::INIT).unwrap();
        let (server, client) =
            CntrfsServer::mount(k.clone(), server_pid, DevId(7777), config).unwrap();
        (k, client, server)
    }

    #[test]
    fn lookup_and_read_through_passthrough() {
        let (_k, fs) = setup();
        let usr = fs.lookup(Ino(1), "usr").unwrap();
        let bin = fs.lookup(usr.ino, "bin").unwrap();
        let gdb = fs.lookup(bin.ino, "gdb").unwrap();
        assert_eq!(gdb.size, 10);
        let fh = fs.open(gdb.ino, OpenFlags::RDONLY).unwrap();
        let mut buf = [0u8; 16];
        let n = fs.read(gdb.ino, fh, 0, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"GDB-BINARY");
        fs.release(gdb.ino, fh).unwrap();
    }

    #[test]
    fn writes_reach_the_backing_namespace() {
        let (k, fs) = setup();
        let etc = fs.lookup(Ino(1), "etc").unwrap();
        let st = fs
            .mknod(
                etc.ino,
                "written-via-fuse",
                FileType::Regular,
                Mode::RW_R__R__,
                0,
                &FsContext::root(),
            )
            .unwrap();
        let fh = fs.open(st.ino, OpenFlags::WRONLY).unwrap();
        fs.write(st.ino, fh, 0, b"hello host").unwrap();
        fs.release(st.ino, fh).unwrap();
        // Visible directly on the host.
        assert_eq!(k.stat(Pid::INIT, "/etc/written-via-fuse").unwrap().size, 10);
    }

    #[test]
    fn hardlinks_share_a_fuse_inode() {
        let (k, fs) = setup();
        let fd = k
            .open(Pid::INIT, "/etc/orig", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(Pid::INIT, fd).unwrap();
        k.link(Pid::INIT, "/etc/orig", "/etc/alias").unwrap();
        let etc = fs.lookup(Ino(1), "etc").unwrap();
        let a = fs.lookup(etc.ino, "orig").unwrap();
        let b = fs.lookup(etc.ino, "alias").unwrap();
        assert_eq!(a.ino, b.ino, "open+stat hardlink detection");
        assert_eq!(b.nlink, 2);
    }

    #[test]
    fn forget_drops_inodes_making_handles_stale() {
        let (_k, fs) = setup();
        let usr = fs.lookup(Ino(1), "usr").unwrap();
        let server_live = |fs: &Arc<FuseClientFs>| {
            // One root + whatever is remembered.
            let _ = fs;
        };
        server_live(&fs);
        fs.forget(usr.ino, 1);
        fs.flush_forgets();
        // A getattr for a forgotten inode is stale: the inode map no longer
        // knows it (ESTALE), which is also why name_to_handle_at cannot be
        // supported (xfstests #426).
        assert_eq!(fs.getattr(usr.ino), Err(Errno::ESTALE));
    }

    /// The fat container renames a directory itself and puts a new file
    /// under the old name: a FUSE inode already looked up keeps naming the
    /// directory it was looked up as, wherever that now lives. The names
    /// the server resolved before answer for what they name now, in both
    /// profiles: a renamed-away inode's old name finds its replacement,
    /// and an unlinked name is `ENOENT`.
    #[test]
    fn native_rename_does_not_redirect_a_known_inode() {
        for config in [FuseConfig::optimized(), FuseConfig::paper()] {
            let (k, fs, server) = setup_with(config);
            let usr = fs.lookup(Ino(1), "usr").unwrap();
            let bin = fs.lookup(usr.ino, "bin").unwrap();
            let gdb = fs.lookup(bin.ino, "gdb").unwrap();
            k.rename(Pid::INIT, "/usr/bin", "/usr/bin2", RenameFlags::NONE)
                .unwrap();
            k.mkdir(Pid::INIT, "/usr/bin", Mode::RWXR_XR_X).unwrap();
            let fd = k
                .open(
                    Pid::INIT,
                    "/usr/bin/gdb",
                    OpenFlags::create(),
                    Mode::RW_R__R__,
                )
                .unwrap();
            k.close(Pid::INIT, fd).unwrap();
            fs.drop_caches();
            let again = fs.lookup(bin.ino, "gdb").unwrap();
            assert_eq!(
                (again.ino, again.size),
                (gdb.ino, 10),
                "the original gdb, not the new empty file"
            );
            let new_bin = fs.lookup(usr.ino, "bin").unwrap();
            assert_ne!(new_bin.ino, bin.ino, "the directory now at the name");
            assert_eq!(fs.lookup(new_bin.ino, "gdb").unwrap().size, 0);

            k.unlink(Pid::INIT, "/usr/bin2/gdb").unwrap();
            fs.drop_caches();
            assert_eq!(fs.lookup(bin.ino, "gdb"), Err(Errno::ENOENT));

            // Shipping: `gdb` was revalidated, `bin`'s hint had gone
            // stale. Paper: every LOOKUP opened its name.
            let c = &server.counters;
            let seen = (c.lookup_revalidated.value(), c.lookup_stale_hints.value());
            let want = if config.published_lookup {
                (0, 0)
            } else {
                (1, 1)
            };
            assert_eq!(seen, want);
        }
    }

    /// An open file unlinked on the host keeps answering GETATTR: the open
    /// handle keeps the inode alive, and the inode's own handle reaches it.
    #[test]
    fn unlinked_open_file_keeps_its_attributes() {
        let (k, fs) = setup();
        let usr = fs.lookup(Ino(1), "usr").unwrap();
        let bin = fs.lookup(usr.ino, "bin").unwrap();
        let gdb = fs.lookup(bin.ino, "gdb").unwrap();
        let fh = fs.open(gdb.ino, OpenFlags::RDONLY).unwrap();
        k.unlink(Pid::INIT, "/usr/bin/gdb").unwrap();
        fs.drop_caches();
        let st = fs.getattr(gdb.ino).unwrap();
        assert_eq!((st.size, st.nlink), (10, 0));
        let mut buf = [0u8; 16];
        let n = fs.read(gdb.ino, fh, 0, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"GDB-BINARY");
        fs.release(gdb.ino, fh).unwrap();
    }

    /// Every remembered inode holds exactly one descriptor in the server
    /// process; FORGET closes it, and a re-lookup closes its duplicate.
    #[test]
    fn each_live_inode_holds_one_descriptor() {
        let (k, fs) = setup();
        let server_pid = *k.pids().last().unwrap();
        let base = k.fd_count(server_pid).unwrap();
        let usr = fs.lookup(Ino(1), "usr").unwrap();
        let bin = fs.lookup(usr.ino, "bin").unwrap();
        assert_eq!(k.fd_count(server_pid).unwrap(), base + 2);
        fs.drop_caches();
        assert_eq!(fs.lookup(Ino(1), "usr").unwrap().ino, usr.ino);
        assert_eq!(
            k.fd_count(server_pid).unwrap(),
            base + 2,
            "duplicate closed"
        );
        fs.forget(bin.ino, 1);
        fs.flush_forgets();
        assert_eq!(k.fd_count(server_pid).unwrap(), base + 1);
    }

    /// Virtual ns of a client LOOKUP of `/usr/bin/gdb`'s last component:
    /// the first, and one after `drop_caches` (a revalidation).
    fn lookup_costs(config: FuseConfig) -> (u64, u64) {
        let (k, fs, _server) = setup_with(config);
        let usr = fs.lookup(Ino(1), "usr").unwrap();
        let bin = fs.lookup(usr.ino, "bin").unwrap();
        let (first, t1) = k.clock().measure(|| fs.lookup(bin.ino, "gdb").unwrap());
        fs.drop_caches();
        let (again, t2) = k.clock().measure(|| fs.lookup(bin.ino, "gdb").unwrap());
        assert_eq!(first.ino, again.ino);
        (t1.as_nanos(), t2.as_nanos())
    }

    /// A first LOOKUP opens and stats the name in both profiles. A
    /// revalidation adds the `close` of the duplicate handle in the paper
    /// profile, and is one `fstatat` in the shipping one.
    #[test]
    fn revalidation_lookup_costs_per_profile() {
        // One component each for `openat` and `fstatat`.
        let (syscall, component) = (COST.syscall_ns, COST.dcache_hit_ns);
        let (openat, fstat, close) = (syscall + component, syscall, syscall);
        let fstatat = syscall + component;
        // The client's share: the round trip of each profile.
        let (paper_rt, shipping_rt) = (1469, 1014);
        assert_eq!(
            lookup_costs(FuseConfig::paper()),
            (paper_rt + openat + fstat, paper_rt + openat + fstat + close)
        );
        assert_eq!(
            lookup_costs(FuseConfig::optimized()),
            (shipping_rt + openat + fstat, shipping_rt + fstatat)
        );
    }

    #[test]
    fn rename_fixes_descendant_paths() {
        let (k, fs) = setup();
        k.mkdir(Pid::INIT, "/usr/share/doc", Mode::RWXR_XR_X)
            .unwrap();
        let fd = k
            .open(
                Pid::INIT,
                "/usr/share/doc/readme",
                OpenFlags::create(),
                Mode::RW_R__R__,
            )
            .unwrap();
        k.write_fd(Pid::INIT, fd, b"docs").unwrap();
        k.close(Pid::INIT, fd).unwrap();

        let usr = fs.lookup(Ino(1), "usr").unwrap();
        let share = fs.lookup(usr.ino, "share").unwrap();
        let doc = fs.lookup(share.ino, "doc").unwrap();
        let readme = fs.lookup(doc.ino, "readme").unwrap();

        fs.rename(
            usr.ino,
            "share",
            usr.ino,
            "shared",
            cntr_types::RenameFlags::NONE,
        )
        .unwrap();
        // The remembered inode still resolves through its new path.
        let st = fs.getattr(readme.ino).unwrap();
        assert_eq!(st.size, 4);
        let fh = fs.open(readme.ino, OpenFlags::RDONLY).unwrap();
        let mut buf = [0u8; 8];
        let n = fs.read(readme.ino, fh, 0, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"docs");
    }

    #[test]
    fn setgid_not_stripped_on_chmod_by_group_outsider() {
        // The xfstests #375 scenario, end to end: CntrFS replays chmod under
        // the server's root identity, so the setgid bit survives a chmod by
        // a caller outside the owning group — unlike a native filesystem.
        let (k, fs) = setup();
        let fd = k
            .open(Pid::INIT, "/etc/sg", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(Pid::INIT, fd).unwrap();
        k.chown(Pid::INIT, "/etc/sg", Uid(1000), Gid(2000)).unwrap();

        let etc = fs.lookup(Ino(1), "etc").unwrap();
        let sg = fs.lookup(etc.ino, "sg").unwrap();
        // Caller uid 1000 in group 3000 (not 2000), no CAP_FSETID.
        let ctx = FsContext::user(1000, 3000);
        let st = fs
            .setattr(sg.ino, &SetAttr::chmod(Mode::new(0o2755)), &ctx)
            .unwrap();
        assert!(
            st.mode.is_setgid(),
            "CntrFS misses the setgid-clearing rule (paper test #375)"
        );
    }

    #[test]
    fn stat_matches_backing_file() {
        let (k, fs) = setup();
        let usr = fs.lookup(Ino(1), "usr").unwrap();
        let bin = fs.lookup(usr.ino, "bin").unwrap();
        let gdb = fs.lookup(bin.ino, "gdb").unwrap();
        let native = k.stat(Pid::INIT, "/usr/bin/gdb").unwrap();
        assert_eq!(gdb.size, native.size);
        assert_eq!(gdb.mode, native.mode);
        assert_ne!(gdb.ino, native.ino, "FUSE inode numbering is private");
    }

    /// The server against the host's own view, with the fat container
    /// renaming, unlinking and creating files itself between FUSE
    /// requests, in both profiles. The client's caches are dropped before
    /// each request so the server answers every one, and once more between
    /// a LOOKUP and its repeat, which the shipping server revalidates; the
    /// oracle tracks where each remembered directory now lives on the
    /// host.
    mod oracle {
        use super::*;
        use proptest::prelude::*;

        const DIRS: [&str; 4] = ["A", "B", "C", "D"];
        const FILES: [&str; 3] = ["x", "y", "z"];

        #[derive(Debug, Clone)]
        enum Op {
            HostRenameDir(usize, usize),
            HostRenameFile(usize, usize, usize, usize),
            HostUnlink(usize, usize),
            HostCreate(usize, usize, u8),
            Lookup(usize, usize),
            Read(usize, usize),
            Create(usize, usize, u8),
            Unlink(usize, usize),
            Rename(usize, usize, usize, usize),
        }

        fn op() -> impl Strategy<Value = Op> {
            let (d, f) = (0usize..2, 0usize..FILES.len());
            prop_oneof![
                (d.clone(), 0usize..DIRS.len()).prop_map(|(i, n)| Op::HostRenameDir(i, n)),
                (d.clone(), f.clone(), d.clone(), f.clone())
                    .prop_map(|(i, a, j, b)| Op::HostRenameFile(i, a, j, b)),
                (d.clone(), f.clone()).prop_map(|(i, a)| Op::HostUnlink(i, a)),
                (d.clone(), f.clone(), 0u8..32).prop_map(|(i, a, n)| Op::HostCreate(i, a, n)),
                (d.clone(), f.clone()).prop_map(|(i, a)| Op::Lookup(i, a)),
                (d.clone(), f.clone()).prop_map(|(i, a)| Op::Read(i, a)),
                (d.clone(), f.clone(), 0u8..32).prop_map(|(i, a, n)| Op::Create(i, a, n)),
                (d.clone(), f.clone()).prop_map(|(i, a)| Op::Unlink(i, a)),
                (d.clone(), f.clone(), d, f).prop_map(|(i, a, j, b)| Op::Rename(i, a, j, b)),
            ]
        }

        fn host_write(k: &Kernel, path: &str, len: u8) -> SysResult<()> {
            let fd = k.open(Pid::INIT, path, OpenFlags::create(), Mode::RW_R__R__)?;
            k.write_fd(Pid::INIT, fd, &vec![len; len as usize])?;
            k.close(Pid::INIT, fd)
        }

        fn host_read(k: &Kernel, path: &str) -> SysResult<Vec<u8>> {
            let fd = k.open(Pid::INIT, path, OpenFlags::RDONLY, Mode::RW_R__R__)?;
            let mut buf = vec![0u8; 64];
            let n = k.read_fd(Pid::INIT, fd, &mut buf)?;
            k.close(Pid::INIT, fd)?;
            buf.truncate(n);
            Ok(buf)
        }

        fn fuse_read(fs: &FuseClientFs, dir: Ino, name: &str) -> SysResult<Vec<u8>> {
            let st = fs.lookup(dir, name)?;
            let fh = fs.open(st.ino, OpenFlags::RDONLY)?;
            let mut buf = vec![0u8; 64];
            let n = fs.read(st.ino, fh, 0, &mut buf);
            fs.release(st.ino, fh)?;
            buf.truncate(n?);
            Ok(buf)
        }

        /// The attributes both sides must agree on.
        fn seen(st: SysResult<Stat>) -> SysResult<(FileType, u64, Mode, u32)> {
            st.map(|st| (st.ftype, st.size, st.mode, st.nlink))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn server_follows_inodes_through_native_changes(
                ops in proptest::collection::vec(op(), 1..32)
            ) {
                // The published LOOKUP, and the shipping one revalidating
                // the names it resolved before.
                for config in [FuseConfig::optimized(), FuseConfig::paper()] {
                    let (k, fs, server) = setup_with(config);
                    let host = |p: &str| k.mkdir(Pid::INIT, p, Mode::RWXR_XR_X).unwrap();
                    host("/t");
                    host("/t/A");
                    host("/t/B");
                    host_write(&k, "/t/A/x", 3).unwrap();
                    host_write(&k, "/t/B/y", 5).unwrap();
                    let t = fs.lookup(Ino(1), "t").unwrap().ino;
                    // Each remembered directory: its FUSE inode and where it
                    // lives on the host now (`None` once replaced).
                    let mut dirs: Vec<(Ino, Option<String>)> = ["A", "B"]
                        .iter()
                        .map(|n| (fs.lookup(t, n).unwrap().ino, Some(format!("/t/{n}"))))
                        .collect();
                    for op in &ops {
                        fs.drop_caches();
                        let at = |i: usize, f: usize| {
                            dirs[i].1.as_ref().map(|d| format!("{d}/{}", FILES[f]))
                        };
                        match *op {
                            Op::HostRenameDir(i, n) => {
                                let Some(from) = dirs[i].1.clone() else { continue };
                                let to = format!("/t/{}", DIRS[n]);
                                if k.rename(Pid::INIT, &from, &to, RenameFlags::NONE).is_ok()
                                    && from != to
                                {
                                    for d in dirs.iter_mut() {
                                        if d.1.as_deref() == Some(&to) {
                                            d.1 = None;
                                        } else if d.1.as_deref() == Some(&from) {
                                            d.1 = Some(to.clone());
                                        }
                                    }
                                }
                            }
                            Op::HostRenameFile(i, a, j, b) => {
                                if let (Some(from), Some(to)) = (at(i, a), at(j, b)) {
                                    let _ = k.rename(Pid::INIT, &from, &to, RenameFlags::NONE);
                                }
                            }
                            Op::HostUnlink(i, a) => {
                                if let Some(p) = at(i, a) {
                                    let _ = k.unlink(Pid::INIT, &p);
                                }
                            }
                            Op::HostCreate(i, a, n) => {
                                if let Some(p) = at(i, a) {
                                    host_write(&k, &p, n).unwrap();
                                }
                            }
                            Op::Lookup(i, a) => {
                                let Some(p) = at(i, a) else { continue };
                                let first = fs.lookup(dirs[i].0, FILES[a]);
                                prop_assert_eq!(
                                    seen(first),
                                    seen(k.lstat(Pid::INIT, &p)),
                                    "{:?} at {}", op, p
                                );
                                // Again once the entry timed out: the
                                // same inode, a revalidation where the
                                // server keeps hints.
                                fs.drop_caches();
                                let revalidated = || server.counters.lookup_revalidated.value();
                                let before = revalidated();
                                let again = fs.lookup(dirs[i].0, FILES[a]);
                                prop_assert_eq!(
                                    again.map(|st| st.ino),
                                    first.map(|st| st.ino),
                                    "{:?} at {}", op, p
                                );
                                let fast = first.is_ok() && !config.published_lookup;
                                prop_assert_eq!(revalidated() - before, u64::from(fast));
                            }
                            Op::Read(i, a) => {
                                let Some(p) = at(i, a) else { continue };
                                prop_assert_eq!(
                                    fuse_read(&fs, dirs[i].0, FILES[a]),
                                    host_read(&k, &p),
                                    "{:?} at {}", op, p
                                );
                            }
                            Op::Create(i, a, n) => {
                                let Some(p) = at(i, a) else { continue };
                                let existed = k.lstat(Pid::INIT, &p).is_ok();
                                let made = fs.mknod(
                                    dirs[i].0,
                                    FILES[a],
                                    FileType::Regular,
                                    Mode::RW_R__R__,
                                    0,
                                    &FsContext::root(),
                                );
                                prop_assert_eq!(made.is_ok(), !existed, "{:?} at {}", op, p);
                                if let Ok(st) = made {
                                    let fh = fs.open(st.ino, OpenFlags::WRONLY).unwrap();
                                    fs.write(st.ino, fh, 0, &vec![n; n as usize]).unwrap();
                                    fs.release(st.ino, fh).unwrap();
                                    prop_assert_eq!(host_read(&k, &p), Ok(vec![n; n as usize]));
                                }
                            }
                            Op::Unlink(i, a) => {
                                let Some(p) = at(i, a) else { continue };
                                let existed = k.lstat(Pid::INIT, &p).is_ok();
                                let gone = fs.unlink(dirs[i].0, FILES[a]);
                                prop_assert_eq!(gone.is_ok(), existed, "{:?} at {}", op, p);
                                prop_assert_eq!(k.lstat(Pid::INIT, &p).err(), Some(Errno::ENOENT));
                            }
                            Op::Rename(i, a, j, b) => {
                                let (Some(from), Some(to)) = (at(i, a), at(j, b)) else { continue };
                                let body = host_read(&k, &from);
                                let moved = fs.rename(
                                    dirs[i].0,
                                    FILES[a],
                                    dirs[j].0,
                                    FILES[b],
                                    RenameFlags::NONE,
                                );
                                prop_assert_eq!(moved.is_ok(), body.is_ok(), "{:?}", op);
                                if let Ok(body) = body {
                                    prop_assert_eq!(host_read(&k, &to), Ok(body), "{:?}", op);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
