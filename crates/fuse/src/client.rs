//! The kernel half of FUSE: a [`Filesystem`] that speaks the protocol.
//!
//! Every VFS operation on a CntrFS mount lands here and becomes (or is
//! absorbed before becoming) a FUSE request. This is where the paper's
//! performance story lives:
//!
//! * **entry/attr caches** absorb repeat lookups (their *absence* on cold
//!   trees is why compilebench-read is 13.3× slower on CntrFS, §5.2.2).
//!   As in Linux, a directory's attributes are evicted only when its
//!   contents change; the paper profile also evicts them on every LOOKUP
//!   below it ([`FuseConfig::published_lookup`]);
//! * the **symlink cache** (`FUSE_CACHE_SYMLINKS`) keeps each link's
//!   target after the first READLINK;
//! * the **`S_NOSEC` bit** (`FUSE_HANDLE_KILLPRIV_V2`) lets writes skip
//!   the `security.capability` GETXATTR once a write found the inode
//!   clean, until its attributes or xattrs change. Without it every write
//!   asks: the Apache overhead of §5.2.2;
//! * **readahead** batches sequential reads into 128 KiB requests, while
//!   a random read asks only for its own pages;
//! * **forget batching** folds many forgets into one BATCH_FORGET request;
//! * **metadata pipelining** (`FUSE_PARALLEL_DIROPS`) overlaps lookup round
//!   trips (Figure 3c);
//! * **splice** replaces per-byte copies with page remaps (Figure 3d); the
//!   splice-*write* variant taxes every request with an extra context
//!   switch, which is why the paper shipped with it disabled (§3.3). The
//!   shipping profile turns it on: batched write-back makes WRITEs few and
//!   large, so the peek amortizes ([`InitFlags::cntr_default`]);
//! * the server's **worker threads** add per-request synchronization
//!   overhead, priced from [`FuseConfig::workers`] (Figure 4);
//! * **passthrough** (`FUSE_PASSTHROUGH`, Linux 6.9) takes file data off
//!   FUSE altogether: an OPEN reply with a backing id hands the handle to
//!   the kernel ([`Filesystem::passthrough`]), which reads and writes the
//!   server's backing file itself. Post-dates the paper, so its profile
//!   keeps it off.
//!
//! The page cache itself lives in the simulated kernel (`cntr-kernel`); the
//! negotiated `writeback_cache`/`keep_cache` flags are reported through
//! [`Filesystem::features`], from which the kernel sets the mount's cache
//! policy.

use crate::config::{
    FuseConfig, ENTRY_CACHE_CAP, FORGET_BATCH, MAX_READ, MAX_STACK_DEPTH, META_PIPELINE, RING_BATCH,
};
use crate::conn::{ConnSnapshot, Transport};
use crate::proto::{InitFlags, Reply, Request, RequestCtx};
use bytes::Bytes;
use cntr_fs::{
    FallocateMode, Fh, Filesystem, FsContext, FsFeatures, Passthrough, XattrFlags, XATTR_NAME_CAPS,
};
use cntr_types::cost::PAGE_SIZE;
use cntr_types::{
    DevId, Dirent, Errno, FileType, IdMap, Ino, Mode, OpenFlags, RenameFlags, SetAttr, SimClock,
    Stat, Statfs, SysResult, COST,
};
use obs::{LazyHistogram, Subsystem};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Bytes asked for by each READ request issued: the readahead window of a
/// sequential read, the page-rounded length of any other.
static READ_REQ_BYTES: LazyHistogram = LazyHistogram::new(Subsystem::Fuse, "fuse.read.req-bytes");

struct CachedEntry {
    ino: Ino,
    tick: u64,
}

struct ReadAhead {
    ino: Ino,
    start: u64,
    /// The retained reply buffer. With `splice_read` this is the *same
    /// allocation* the server handed over — the readahead window costs no
    /// copy to keep.
    data: Bytes,
}

/// Where a written inode stands with Linux's `S_NOSEC` ("no privileges
/// to kill") bit, kept only with `handle_killpriv_v2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NoSec {
    /// A write's check, started at this [`ClientState::tick`], waits for
    /// its GETXATTR.
    Checking(u64),
    /// The check found neither setuid/setgid nor `security.capability`:
    /// writes skip it.
    Set,
}

#[derive(Default)]
struct ClientState {
    entry_cache: HashMap<(Ino, String), CachedEntry>,
    attr_cache: IdMap<Ino, Stat>,
    /// Next to `attr_cache`: new attributes and xattr changes remove an
    /// inode's entry, so a check whose GETXATTR raced one finds its
    /// `Checking` gone and sets nothing (Linux serializes the two on
    /// `i_rwsem`).
    nosec: IdMap<Ino, NoSec>,
    /// Symlink targets, filled only when `cache_symlinks` was negotiated.
    /// A target never changes under one inode number (servers never reuse
    /// one), so only the inode leaving the caches drops it.
    symlinks: IdMap<Ino, String>,
    nlookup: IdMap<Ino, u64>,
    forget_queue: Vec<(Ino, u64)>,
    readahead: IdMap<u64, ReadAhead>,
    /// Backing ids of the open handles whose OPEN reply carried
    /// `FOPEN_PASSTHROUGH`.
    passthrough: IdMap<u64, u32>,
    tick: u64,
    /// Attribute versions, after Linux's `fc->attr_version`: each change
    /// to an inode's attributes, by a reply or by the client itself (a
    /// write growing the size, an invalidation), takes the next version
    /// into `attr_changed`.
    attr_version: u64,
    attr_changed: IdMap<Ino, u64>,
}

impl ClientState {
    /// Forgets everything cached about one inode.
    fn drop_inode(&mut self, ino: Ino) {
        self.attr_cache.remove(&ino);
        self.attr_changed.remove(&ino);
        self.nosec.remove(&ino);
        self.symlinks.remove(&ino);
    }

    /// Records a change to `ino`'s attributes.
    fn touch_attr(&mut self, ino: Ino) {
        self.attr_version += 1;
        self.attr_changed.insert(ino, self.attr_version);
    }

    /// Caches attributes the server sent in reply to a request sent at
    /// attribute version `sent`. If the inode changed after that, the
    /// reply may predate the change (another thread's write landed while
    /// it was on its way back), so it drops the cached attributes instead
    /// (Linux's `attr_version` check in `fuse_change_attributes`). New
    /// attributes drop `S_NOSEC`, as Linux drops it when an inode's
    /// attributes change.
    fn cache_attr(&mut self, stat: Stat, sent: u64) {
        if self
            .attr_changed
            .get(&stat.ino)
            .is_some_and(|&at| at > sent)
        {
            self.attr_cache.remove(&stat.ino);
        } else {
            self.attr_cache.insert(stat.ino, stat);
        }
        self.touch_attr(stat.ino);
        self.nosec.remove(&stat.ino);
    }

    /// Drops `ino`'s cached attributes.
    fn invalidate_attr(&mut self, ino: Ino) {
        self.attr_cache.remove(&ino);
        self.touch_attr(ino);
    }
}

obs::counter_scope! {
    /// Cache counters of one client, writing through to `fuse.client.*`.
    struct ClientCounters(Subsystem::Fuse);
    /// Cache behaviour counters of one client.
    pub struct ClientStats {
        /// Entry-cache hits.
        entry_hits: "fuse.client.entry-hits",
        /// Entry-cache misses (→ LOOKUP request).
        entry_misses: "fuse.client.entry-misses",
        /// Attr-cache hits.
        attr_hits: "fuse.client.attr-hits",
        /// Attr-cache misses (→ GETATTR request).
        attr_misses: "fuse.client.attr-misses",
        /// Reads served from the readahead buffer.
        readahead_hits: "fuse.client.readahead-hits",
        /// GETXATTRs sent for a write's capability check.
        killpriv_checks: "fuse.client.killpriv-checks",
        /// Writes that skipped the check: the inode was `S_NOSEC`.
        nosec_hits: "fuse.client.nosec-hits",
    }
}

/// The FUSE mount as seen by the simulated kernel.
pub struct FuseClientFs {
    dev: DevId,
    clock: SimClock,
    config: FuseConfig,
    transport: Arc<dyn Transport>,
    /// Shared with the `end_write` hooks of passthrough handles.
    state: Arc<Mutex<ClientState>>,
    counters: ClientCounters,
}

impl FuseClientFs {
    /// Mounts: performs INIT negotiation and returns the client.
    pub fn mount(
        dev: DevId,
        clock: SimClock,
        config: FuseConfig,
        transport: Arc<dyn Transport>,
    ) -> SysResult<Arc<FuseClientFs>> {
        let reply = transport.call(Request::Init {
            wanted: config.flags,
            conn: dev,
        });
        let granted = match reply {
            Reply::Init { granted } => granted,
            Reply::Err(e) => return Err(e),
            _ => return Err(Errno::EPROTO),
        };
        let mut config = config;
        config.flags = config.flags.intersect(granted);
        Ok(Arc::new(FuseClientFs {
            dev,
            clock,
            config,
            transport,
            state: Arc::new(Mutex::new_class(
                "fuse.client_state",
                ClientState::default(),
            )),
            counters: ClientCounters::default(),
        }))
    }

    /// The flags that survived INIT negotiation.
    pub fn effective_flags(&self) -> InitFlags {
        self.config.flags
    }

    /// The mount configuration.
    pub fn config(&self) -> &FuseConfig {
        &self.config
    }

    /// Client-side cache counters.
    pub fn stats(&self) -> ClientStats {
        self.counters.snapshot()
    }

    /// Transport-level request counters.
    pub fn conn_stats(&self) -> ConnSnapshot {
        self.transport.stats()
    }

    /// Simulates the server dying (used by failure-injection tests).
    pub fn kill_connection(&self) {
        self.transport.shutdown();
    }

    /// Drops the entry/attr/symlink caches and readahead buffers
    /// (cold-cache benchmark phases). Queued forgets are flushed first.
    ///
    /// This models every entry and attribute timeout expiring at once, not
    /// an unmount: the inodes and their lookup counts stay, so the server
    /// still holds each one, and the next LOOKUP of a name is a
    /// revalidation of an inode the server already knows.
    pub fn drop_caches(&self) {
        self.flush_forgets();
        let mut st = self.state.lock();
        st.entry_cache.clear();
        st.attr_cache.clear();
        st.nosec.clear();
        st.symlinks.clear();
        st.readahead.clear();
    }

    /// Charges the protocol cost of one round trip: a metadata request or
    /// a WRITE of `req_bytes` on the wire (read before it was sent, since
    /// the transport takes the request), and its reply.
    fn charge(&self, meta: bool, write: bool, req_bytes: u64, reply: &Reply) {
        let f = &self.config.flags;
        let depth = if meta && f.parallel_dirops {
            META_PIPELINE as u64
        } else {
            1
        };
        let mut ns = COST.fuse_round_trip() / depth;
        // Splice-write peeks the request header before deciding whether the
        // payload can stay in the kernel: one extra context switch per
        // *spliced* request (§3.3 — the reason the paper shipped with it
        // off). Batched write-back makes WRITE requests few and large, so
        // the peek amortizes against the page-remap payload cost below.
        if f.splice_write && write {
            ns += COST.ctx_switch_ns;
        }
        // The modelled server's worker synchronization grows with its
        // thread count (§3.3, Figure 4). With the ring negotiated, one
        // worker wakeup serves a batch of submissions (the point of
        // FUSE-over-io_uring), so each request pays only its share.
        let workers = self.config.workers.max(1) as u64;
        if workers > 1 {
            let sync = COST.mt_sync_ns * workers.ilog2() as u64;
            ns += if f.ring {
                sync / RING_BATCH as u64
            } else {
                sync
            };
        }
        ns += if write && f.splice_write {
            COST.splice(req_bytes)
        } else {
            COST.copy(req_bytes)
        };
        let reply_bytes = reply.wire_bytes() as u64;
        ns += if matches!(reply, Reply::Data(_)) && f.splice_read {
            COST.splice(reply_bytes)
        } else {
            COST.copy(reply_bytes)
        };
        self.clock.advance(ns);
    }

    fn call(&self, req: Request) -> SysResult<Reply> {
        // Each request gets a trace id, current on this thread while the
        // transport and handler run, so their spans attribute to this
        // request. The scope nests: a re-entrant request (writeback from
        // inside a handler) gets its own id and restores the outer one on
        // return.
        let trace = obs::trace::next_trace_id();
        let _scope = obs::trace::TraceScope::enter(trace);
        let (meta, write) = (req.is_meta(), matches!(req, Request::Write { .. }));
        let req_bytes = req.wire_bytes() as u64;
        let reply = {
            let _span = obs::trace::Span::start_for(trace, "client");
            self.transport.call(req)
        };
        self.charge(meta, write, req_bytes, &reply);
        match reply {
            Reply::Err(e) => Err(e),
            other => Ok(other),
        }
    }

    /// Caches the entry `parent/name` and its attributes, from a reply to
    /// a request sent at attribute version `sent`. `dir_changed` evicts
    /// the parent's attributes too: its nlink or mtime moved.
    fn remember(&self, parent: Ino, name: &str, stat: Stat, dir_changed: bool, sent: u64) {
        let mut st = self.state.lock();
        st.tick += 1;
        let tick = st.tick;
        st.entry_cache.insert(
            (parent, name.to_string()),
            CachedEntry {
                ino: stat.ino,
                tick,
            },
        );
        st.cache_attr(stat, sent);
        if dir_changed {
            st.invalidate_attr(parent);
        }
        *st.nlookup.entry(stat.ino).or_insert(0) += 1;
        let over = st.entry_cache.len() > ENTRY_CACHE_CAP;
        drop(st);
        if over {
            self.evict_entries();
        }
    }

    /// Evicts the oldest eighth of the entry cache, queueing forgets.
    fn evict_entries(&self) {
        let mut st = self.state.lock();
        let mut entries: Vec<(u64, (Ino, String))> = st
            .entry_cache
            .iter()
            .map(|(k, v)| (v.tick, k.clone()))
            .collect();
        entries.sort_unstable_by_key(|(t, _)| *t);
        let evict = entries.len() / 8 + 1;
        for (_, key) in entries.into_iter().take(evict) {
            if let Some(e) = st.entry_cache.remove(&key) {
                let remaining = {
                    let c = st.nlookup.entry(e.ino).or_insert(1);
                    *c = c.saturating_sub(1);
                    *c
                };
                st.forget_queue.push((e.ino, 1));
                if remaining == 0 {
                    st.drop_inode(e.ino);
                }
            }
        }
        let flush = st.forget_queue.len() >= FORGET_BATCH;
        drop(st);
        if flush {
            self.flush_forgets();
        }
    }

    /// Sends the queued forgets as one BATCH_FORGET.
    pub fn flush_forgets(&self) {
        let items = {
            let mut st = self.state.lock();
            std::mem::take(&mut st.forget_queue)
        };
        if !items.is_empty() {
            let _ = self.call(Request::BatchForget { items });
        }
    }

    fn invalidate_entry(&self, parent: Ino, name: &str) {
        let mut st = self.state.lock();
        if let Some(e) = st.entry_cache.remove(&(parent, name.to_string())) {
            st.drop_inode(e.ino);
        }
        st.invalidate_attr(parent);
    }

    /// Drops one inode's cached attributes (its nlink/size/blocks changed
    /// server-side in a way the client cannot compute).
    fn invalidate_attr(&self, ino: Ino) {
        self.state.lock().invalidate_attr(ino);
    }

    /// The attribute version a request sent now is answered at.
    fn attr_version(&self) -> u64 {
        self.state.lock().attr_version
    }

    fn drop_readahead_for(&self, ino: Ino) {
        let mut st = self.state.lock();
        st.readahead.retain(|_, ra| ra.ino != ino);
    }

    fn update_attr(&self, stat: Stat, sent: u64) {
        self.state.lock().cache_attr(stat, sent);
    }
}

fn req_ctx(ctx: &FsContext) -> RequestCtx {
    RequestCtx {
        uid: ctx.uid.raw(),
        gid: ctx.gid.raw(),
        pid: 0,
    }
}

impl Filesystem for FuseClientFs {
    fn fs_id(&self) -> DevId {
        self.dev
    }

    fn fs_type(&self) -> &'static str {
        "fuse.cntrfs"
    }

    fn features(&self) -> FsFeatures {
        // Writes replay in the server, so the caller's RLIMIT_FSIZE is not
        // enforced (xfstests #228), and the page-cache policy INIT
        // negotiated. The security.capability check of §5.2.2 (Apache) is
        // `need_killpriv`.
        let flags = self.config.flags;
        FsFeatures {
            enforces_caller_fsize: false,
            writeback_cache: flags.writeback_cache,
            keep_cache: flags.keep_cache,
            passthrough: flags.passthrough,
            stack_depth: if flags.passthrough {
                MAX_STACK_DEPTH
            } else {
                0
            },
            seq_files: false,
        }
    }

    fn lookup(&self, parent: Ino, name: &str) -> SysResult<Stat> {
        {
            let mut st = self.state.lock();
            st.tick += 1;
            let tick = st.tick;
            if let Some(e) = st.entry_cache.get_mut(&(parent, name.to_string())) {
                e.tick = tick;
                let ino = e.ino;
                if let Some(stat) = st.attr_cache.get(&ino) {
                    let stat = *stat;
                    drop(st);
                    self.counters.entry_hits.inc();
                    self.clock.advance(COST.dcache_hit_ns);
                    return Ok(stat);
                }
            }
        }
        self.counters.entry_misses.inc();
        let sent = self.attr_version();
        let reply = self.call(Request::Lookup {
            parent,
            name: name.to_string(),
            ctx: RequestCtx::default(),
        })?;
        match reply {
            Reply::Entry(stat) => {
                self.remember(parent, name, stat, self.config.published_lookup, sent);
                Ok(stat)
            }
            _ => Err(Errno::EPROTO),
        }
    }

    fn getattr(&self, ino: Ino) -> SysResult<Stat> {
        if let Some(stat) = self.state.lock().attr_cache.get(&ino).copied() {
            self.counters.attr_hits.inc();
            self.clock.advance(COST.dcache_hit_ns);
            return Ok(stat);
        }
        self.counters.attr_misses.inc();
        let sent = self.attr_version();
        match self.call(Request::Getattr { ino })? {
            Reply::Attr(stat) => {
                self.update_attr(stat, sent);
                Ok(stat)
            }
            _ => Err(Errno::EPROTO),
        }
    }

    fn setattr(&self, ino: Ino, attr: &SetAttr, ctx: &FsContext) -> SysResult<Stat> {
        let sent = self.attr_version();
        let reply = self.call(Request::Setattr {
            ino,
            attr: *attr,
            ctx: req_ctx(ctx),
        })?;
        match reply {
            Reply::Attr(stat) => {
                self.update_attr(stat, sent);
                if attr.size.is_some() {
                    self.drop_readahead_for(ino);
                }
                Ok(stat)
            }
            _ => Err(Errno::EPROTO),
        }
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
        let sent = self.attr_version();
        let reply = self.call(Request::Mknod {
            parent,
            name: name.to_string(),
            ftype,
            mode,
            rdev,
            ctx: req_ctx(ctx),
        })?;
        match reply {
            Reply::Entry(stat) => {
                self.remember(parent, name, stat, true, sent);
                Ok(stat)
            }
            _ => Err(Errno::EPROTO),
        }
    }

    fn mkdir(&self, parent: Ino, name: &str, mode: Mode, ctx: &FsContext) -> SysResult<Stat> {
        let sent = self.attr_version();
        let reply = self.call(Request::Mkdir {
            parent,
            name: name.to_string(),
            mode,
            ctx: req_ctx(ctx),
        })?;
        match reply {
            Reply::Entry(stat) => {
                self.remember(parent, name, stat, true, sent);
                Ok(stat)
            }
            _ => Err(Errno::EPROTO),
        }
    }

    fn unlink(&self, parent: Ino, name: &str) -> SysResult<()> {
        self.call(Request::Unlink {
            parent,
            name: name.to_string(),
        })?;
        self.invalidate_entry(parent, name);
        Ok(())
    }

    fn rmdir(&self, parent: Ino, name: &str) -> SysResult<()> {
        self.call(Request::Rmdir {
            parent,
            name: name.to_string(),
        })?;
        self.invalidate_entry(parent, name);
        Ok(())
    }

    fn symlink(&self, parent: Ino, name: &str, target: &str, ctx: &FsContext) -> SysResult<Stat> {
        let sent = self.attr_version();
        let reply = self.call(Request::Symlink {
            parent,
            name: name.to_string(),
            target: target.to_string(),
            ctx: req_ctx(ctx),
        })?;
        match reply {
            Reply::Entry(stat) => {
                self.remember(parent, name, stat, true, sent);
                Ok(stat)
            }
            _ => Err(Errno::EPROTO),
        }
    }

    fn readlink(&self, ino: Ino) -> SysResult<String> {
        let cache = self.config.flags.cache_symlinks;
        if cache {
            if let Some(target) = self.state.lock().symlinks.get(&ino).cloned() {
                self.clock.advance(COST.dcache_hit_ns);
                return Ok(target);
            }
        }
        match self.call(Request::Readlink { ino })? {
            Reply::Target(t) => {
                if cache {
                    self.state.lock().symlinks.insert(ino, t.clone());
                }
                Ok(t)
            }
            _ => Err(Errno::EPROTO),
        }
    }

    fn link(&self, ino: Ino, newparent: Ino, newname: &str) -> SysResult<Stat> {
        let sent = self.attr_version();
        let reply = self.call(Request::Link {
            ino,
            newparent,
            newname: newname.to_string(),
        })?;
        match reply {
            Reply::Entry(stat) => {
                self.remember(newparent, newname, stat, true, sent);
                Ok(stat)
            }
            _ => Err(Errno::EPROTO),
        }
    }

    fn rename(
        &self,
        parent: Ino,
        name: &str,
        newparent: Ino,
        newname: &str,
        flags: RenameFlags,
    ) -> SysResult<()> {
        self.call(Request::Rename {
            parent,
            name: name.to_string(),
            newparent,
            newname: newname.to_string(),
            flags,
        })?;
        self.invalidate_entry(parent, name);
        self.invalidate_entry(newparent, newname);
        Ok(())
    }

    fn open(&self, ino: Ino, flags: OpenFlags) -> SysResult<Fh> {
        if flags.contains(OpenFlags::DIRECT) {
            // Direct I/O and mmap are mutually exclusive in FUSE; CNTR
            // needs mmap to execute binaries (paper §5.1, test #391).
            return Err(Errno::EINVAL);
        }
        match self.call(Request::Open { ino, flags })? {
            Reply::Opened {
                fh, passthrough, ..
            } => {
                let mut st = self.state.lock();
                // A passthrough handle sends no READ: it needs no window.
                match passthrough {
                    Some(id) => {
                        st.passthrough.insert(fh, id);
                    }
                    None => {
                        st.readahead.insert(
                            fh,
                            ReadAhead {
                                ino,
                                start: 0,
                                data: Bytes::new(),
                            },
                        );
                    }
                }
                if flags.contains(OpenFlags::TRUNC) && flags.mode.writable() {
                    if let Some(stat) = st.attr_cache.get_mut(&ino) {
                        stat.size = 0;
                    }
                    st.touch_attr(ino);
                }
                Ok(Fh(fh))
            }
            _ => Err(Errno::EPROTO),
        }
    }

    fn release(&self, ino: Ino, fh: Fh) -> SysResult<()> {
        {
            let mut st = self.state.lock();
            st.readahead.remove(&fh.0);
            st.passthrough.remove(&fh.0);
        }
        self.call(Request::Release { ino, fh: fh.0 })?;
        Ok(())
    }

    fn passthrough(&self, ino: Ino, fh: Fh) -> Option<Passthrough> {
        let backing_id = *self.state.lock().passthrough.get(&fh.0)?;
        let (state, clock) = (Arc::clone(&self.state), self.clock.clone());
        Some(Passthrough {
            backing_id,
            // `fuse_write_update_attr`: no WRITE reply reports a
            // passthrough write, so the cached size grows with it, and the
            // cached times move to the write's, as the backing file's do.
            // `S_NOSEC` stays: the write changed no privilege.
            end_write: Arc::new(move |end| {
                let mut st = state.lock();
                if let Some(stat) = st.attr_cache.get_mut(&ino) {
                    let now = clock.now();
                    stat.size = stat.size.max(end);
                    stat.mtime = stat.mtime.max(now);
                    stat.ctime = stat.ctime.max(now);
                }
                st.touch_attr(ino);
            }),
        })
    }

    fn read_bytes(&self, ino: Ino, fh: Fh, offset: u64, len: usize) -> SysResult<Bytes> {
        if len == 0 {
            return Ok(Bytes::new());
        }
        // Readahead-buffer hit: no round trip. The virtual clock charges the
        // classic buffer-copy cost (calibration-stable); at the pointer
        // level the returned buffer is a slice of the retained reply.
        let sequential = {
            let st = self.state.lock();
            match st.readahead.get(&fh.0) {
                Some(ra) if offset >= ra.start && offset < ra.start + ra.data.len() as u64 => {
                    let begin = (offset - ra.start) as usize;
                    let n = (ra.data.len() - begin).min(len);
                    let out = ra.data.slice(begin..begin + n);
                    drop(st);
                    self.counters.readahead_hits.inc();
                    self.clock.advance(COST.copy(n as u64));
                    return Ok(out);
                }
                Some(ra) => offset == ra.start + ra.data.len() as u64,
                None => false,
            }
        };
        // Issue a READ. A sequential read (at offset 0, or where this
        // handle's last reply ended) opens a full readahead window, as
        // Linux's on-demand readahead does; any other read asks for just
        // the pages it covers.
        let req_size = if sequential || offset == 0 {
            MAX_READ.max(len)
        } else {
            len.next_multiple_of(PAGE_SIZE)
        };
        READ_REQ_BYTES.record(req_size as u64);
        let reply = self.call(Request::Read {
            ino,
            fh: fh.0,
            offset,
            size: req_size as u32,
        })?;
        let data = match reply {
            Reply::Data(d) => d,
            _ => return Err(Errno::EPROTO),
        };
        // splice_read: the reply pages are remapped — the kernel (and its
        // readahead window) keeps the very allocation the server produced.
        // Without it the payload is memcpy'd through /dev/fuse exactly once
        // (the copy the virtual clock already priced in `charge`), and the
        // kernel retains — and serves window hits from — its own copy,
        // never the server's buffer.
        let data = if self.config.flags.splice_read {
            data
        } else {
            Bytes::copy_from_slice(&data)
        };
        let n = data.len().min(len);
        let out = data.slice(..n);
        self.state.lock().readahead.insert(
            fh.0,
            ReadAhead {
                ino,
                start: offset,
                data,
            },
        );
        Ok(out)
    }

    fn read_page(&self, ino: Ino, fh: Fh, offset: u64, buf: &mut [u8]) -> SysResult<usize> {
        // Exactly the page, outside the readahead windows (Linux's
        // `fuse_do_readpage`).
        READ_REQ_BYTES.record(buf.len() as u64);
        let reply = self.call(Request::Read {
            ino,
            fh: fh.0,
            offset,
            size: buf.len() as u32,
        })?;
        let Reply::Data(data) = reply else {
            return Err(Errno::EPROTO);
        };
        let n = data.len().min(buf.len());
        buf[..n].copy_from_slice(&data[..n]);
        Ok(n)
    }

    fn write_bytes(&self, ino: Ino, fh: Fh, offset: u64, data: &[Bytes]) -> SysResult<usize> {
        // One WRITE carries all of `data`. splice_write: a single owned
        // buffer crosses the boundary by reference (page remap). Without it
        // the payload is memcpy'd through /dev/fuse — the copy `charge`
        // prices for non-spliced writes. Several buffers (write-back's
        // pages) are gathered into the one payload, that same single copy.
        let payload = match data {
            [one] if self.config.flags.splice_write => one.clone(),
            segs => Bytes::from(segs.concat()),
        };
        let reply = self.call(Request::Write {
            ino,
            fh: fh.0,
            offset,
            data: payload,
        })?;
        let written = match reply {
            Reply::Written(n) => n as usize,
            _ => return Err(Errno::EPROTO),
        };
        {
            let mut st = self.state.lock();
            if let Some(stat) = st.attr_cache.get_mut(&ino) {
                stat.size = stat.size.max(offset + written as u64);
            }
            st.touch_attr(ino);
            // The written range may overlap a readahead buffer: drop stale ones.
            st.readahead.retain(|_, ra| {
                ra.ino != ino
                    || offset >= ra.start + ra.data.len() as u64
                    || offset + written as u64 <= ra.start
            });
        }
        Ok(written)
    }

    fn fsync(&self, ino: Ino, fh: Fh, datasync: bool) -> SysResult<()> {
        self.call(Request::Fsync {
            ino,
            fh: fh.0,
            datasync,
        })?;
        self.invalidate_attr(ino);
        Ok(())
    }

    fn readdir(&self, ino: Ino) -> SysResult<Vec<Dirent>> {
        match self.call(Request::Readdir { ino })? {
            Reply::Dirents(d) => Ok(d),
            _ => Err(Errno::EPROTO),
        }
    }

    fn statfs(&self) -> SysResult<Statfs> {
        match self.call(Request::Statfs)? {
            Reply::Statfs(s) => Ok(s),
            _ => Err(Errno::EPROTO),
        }
    }

    fn getxattr(&self, ino: Ino, name: &str) -> SysResult<Vec<u8>> {
        match self.call(Request::Getxattr {
            ino,
            name: name.to_string(),
        })? {
            Reply::Xattr(v) => Ok(v),
            _ => Err(Errno::EPROTO),
        }
    }

    fn setxattr(&self, ino: Ino, name: &str, value: &[u8], flags: XattrFlags) -> SysResult<()> {
        self.call(Request::Setxattr {
            ino,
            name: name.to_string(),
            value: value.to_vec(),
            flags,
        })?;
        self.state.lock().nosec.remove(&ino);
        Ok(())
    }

    fn listxattr(&self, ino: Ino) -> SysResult<Vec<String>> {
        match self.call(Request::Listxattr { ino })? {
            Reply::XattrNames(n) => Ok(n),
            _ => Err(Errno::EPROTO),
        }
    }

    fn removexattr(&self, ino: Ino, name: &str) -> SysResult<()> {
        self.call(Request::Removexattr {
            ino,
            name: name.to_string(),
        })?;
        self.state.lock().nosec.remove(&ino);
        Ok(())
    }

    fn need_killpriv(&self, ino: Ino) -> bool {
        let v2 = self.config.flags.handle_killpriv_v2;
        let started = {
            let mut st = self.state.lock();
            if st.nosec.get(&ino) == Some(&NoSec::Set) && st.attr_cache.contains_key(&ino) {
                drop(st);
                self.counters.nosec_hits.inc();
                return false;
            }
            st.tick += 1;
            let tick = st.tick;
            if v2 {
                st.nosec.insert(ino, NoSec::Checking(tick));
            }
            tick
        };
        self.counters.killpriv_checks.inc();
        let has_caps = self.getxattr(ino, XATTR_NAME_CAPS).is_ok();
        if v2 {
            let mut st = self.state.lock();
            if st.nosec.get(&ino) == Some(&NoSec::Checking(started)) {
                let clean = !has_caps
                    && st
                        .attr_cache
                        .get(&ino)
                        .is_some_and(|a| !a.mode.is_setuid() && !a.mode.is_setgid());
                if clean {
                    st.nosec.insert(ino, NoSec::Set);
                } else {
                    st.nosec.remove(&ino);
                }
            }
        }
        has_caps
    }

    fn fallocate(
        &self,
        ino: Ino,
        fh: Fh,
        offset: u64,
        len: u64,
        mode: FallocateMode,
    ) -> SysResult<()> {
        self.call(Request::Fallocate {
            ino,
            fh: fh.0,
            offset,
            len,
            mode,
        })?;
        self.invalidate_attr(ino);
        // A punched hole or zeroed range must not read back from a window
        // filled before it.
        self.drop_readahead_for(ino);
        Ok(())
    }

    fn forget(&self, ino: Ino, nlookup: u64) {
        let flush = {
            let mut st = self.state.lock();
            // A forgotten inode must vanish from the kernel-side caches too.
            st.drop_inode(ino);
            st.entry_cache.retain(|_, e| e.ino != ino);
            st.nlookup.remove(&ino);
            st.forget_queue.push((ino, nlookup));
            st.forget_queue.len() >= FORGET_BATCH
        };
        if flush {
            self.flush_forgets();
        }
    }

    fn export_handle(&self, _ino: Ino) -> SysResult<u64> {
        // Server inodes are assigned at LOOKUP and gone after FORGET, so
        // none outlives the mount (xfstests #426).
        Err(Errno::EOPNOTSUPP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::InlineTransport;
    use crate::server::FsHandler;
    use crate::testing::{CountingTransport, PayloadLog};
    use cntr_fs::memfs::memfs;
    use cntr_fs::FilesystemExt;
    use cntr_types::Timespec;

    fn mounted(config: FuseConfig) -> (Arc<FuseClientFs>, SimClock) {
        let clock = SimClock::new();
        let backing = memfs(DevId(1), clock.clone());
        let transport = InlineTransport::new(FsHandler::new(backing));
        let client =
            FuseClientFs::mount(DevId(100), clock.clone(), config, transport).expect("mount");
        (client, clock)
    }

    fn root_ctx() -> FsContext {
        FsContext::root()
    }

    #[test]
    fn basic_file_lifecycle_over_fuse() {
        let (fs, _) = mounted(FuseConfig::optimized());
        let st = fs
            .mknod(
                Ino::ROOT,
                "f",
                FileType::Regular,
                Mode::RW_R__R__,
                0,
                &root_ctx(),
            )
            .unwrap();
        let fh = fs.open(st.ino, OpenFlags::RDWR).unwrap();
        fs.write(st.ino, fh, 0, b"over the wire").unwrap();
        let mut buf = [0u8; 32];
        let n = fs.read(st.ino, fh, 0, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"over the wire");
        fs.release(st.ino, fh).unwrap();
        fs.unlink(Ino::ROOT, "f").unwrap();
        assert_eq!(fs.lookup(Ino::ROOT, "f"), Err(Errno::ENOENT));
    }

    impl ClientState {
        /// Asserts that the entry cache agrees with itself and with the
        /// lookup counts: ticks are distinct and not ahead of the clock,
        /// the cache is within its cap, and no inode has more cached
        /// names than LOOKUPs the server counted for it.
        fn check(&self) {
            let mut ticks = std::collections::HashSet::new();
            let mut per_ino: HashMap<Ino, u64> = HashMap::new();
            for ((_, name), e) in &self.entry_cache {
                assert!(e.tick <= self.tick, "tick of {name:?}");
                assert!(ticks.insert(e.tick), "tick {} twice", e.tick);
                *per_ino.entry(e.ino).or_default() += 1;
            }
            for (ino, n) in per_ino {
                let looked_up = self.nlookup.get(&ino).copied().unwrap_or(0);
                assert!(n <= looked_up, "{ino}: {n} names, {looked_up} lookups");
            }
            assert!(self.entry_cache.len() <= ENTRY_CACHE_CAP);
        }
    }

    #[test]
    fn entry_cache_invariants_hold_through_eviction_forget_and_drop_caches() {
        let (fs, _) = mounted(FuseConfig::optimized());
        let check = || fs.state.lock().check();
        let cached = |parent: Ino, name: &str| {
            let key = (parent, name.to_string());
            fs.state.lock().entry_cache.contains_key(&key)
        };
        let dir = fs
            .mkdir(Ino::ROOT, "d", Mode::RWXR_XR_X, &root_ctx())
            .unwrap()
            .ino;
        // Each create caches its entry: one past the cap evicts the oldest
        // eighth, `d` first.
        let mut last = Ino(0);
        for i in 0..ENTRY_CACHE_CAP {
            last = fs
                .mknod(
                    dir,
                    &format!("f{i}"),
                    FileType::Regular,
                    Mode::RW_R__R__,
                    0,
                    &root_ctx(),
                )
                .unwrap()
                .ino;
        }
        check();
        let evicted = (ENTRY_CACHE_CAP + 1) / 8 + 1;
        assert_eq!(
            fs.state.lock().entry_cache.len(),
            ENTRY_CACHE_CAP + 1 - evicted
        );
        assert!(!cached(Ino::ROOT, "d"));
        assert!(!cached(dir, &format!("f{}", evicted - 2)));
        assert!(cached(dir, &format!("f{}", evicted - 1)));
        let newest = format!("f{}", ENTRY_CACHE_CAP - 1);
        assert!(cached(dir, &newest));
        assert_eq!(fs.lookup(dir, &newest).unwrap().ino, last);
        check();

        // FORGET drops every name of the inode.
        fs.forget(last, 1);
        assert!(!cached(dir, &newest));
        check();

        fs.drop_caches();
        assert!(fs.state.lock().entry_cache.is_empty());
        check();
    }

    #[test]
    fn entry_cache_absorbs_repeat_lookups() {
        let (fs, _) = mounted(FuseConfig::optimized());
        fs.mkdir(Ino::ROOT, "d", Mode::RWXR_XR_X, &root_ctx())
            .unwrap();
        for _ in 0..10 {
            fs.lookup(Ino::ROOT, "d").unwrap();
        }
        let conn = fs.conn_stats();
        assert_eq!(conn.lookups, 0, "mkdir primed the cache; no LOOKUPs");
        let stats = fs.stats();
        assert_eq!(stats.entry_hits, 10);
    }

    /// Builds `/a/b/c/f`, then drops the caches so the next walk is cold.
    fn deep_tree(fs: &FuseClientFs) {
        let mut dir = Ino::ROOT;
        for name in ["a", "b", "c"] {
            dir = fs
                .mkdir(dir, name, Mode::RWXR_XR_X, &root_ctx())
                .unwrap()
                .ino;
        }
        fs.mknod(dir, "f", FileType::Regular, Mode::RW_R__R__, 0, &root_ctx())
            .unwrap();
        fs.drop_caches();
    }

    /// Walks `/a/b/c/f` as the VFS does (a lookup per component, then the
    /// final getattr) and returns the LOOKUPs it sent.
    fn walk_lookups(fs: &FuseClientFs) -> u64 {
        let before = fs.conn_stats().lookups;
        let mut ino = Ino::ROOT;
        for name in ["a", "b", "c", "f"] {
            ino = fs.lookup(ino, name).unwrap().ino;
        }
        fs.getattr(ino).unwrap();
        fs.conn_stats().lookups - before
    }

    #[test]
    fn second_walk_is_served_from_the_caches() {
        let (fs, _) = mounted(FuseConfig::optimized());
        deep_tree(&fs);
        assert_eq!(walk_lookups(&fs), 4, "a cold walk looks up every component");
        let getattrs = fs.conn_stats().getattrs;
        assert_eq!(
            walk_lookups(&fs),
            0,
            "a LOOKUP reply must leave its parent's attributes cached"
        );
        assert_eq!(fs.conn_stats().getattrs, getattrs);
    }

    /// The paper profile keeps the published eviction: each LOOKUP reply
    /// drops its parent's attributes, so a warm walk looks the directories
    /// up again. Only a directory whose child hits keeps its attributes,
    /// so the re-lookups recede one level per walk: `a b c`, `a b`, `a`.
    #[test]
    fn paper_profile_relooks_up_directories() {
        let (fs, _) = mounted(FuseConfig::paper());
        deep_tree(&fs);
        let walks: Vec<u64> = (0..5).map(|_| walk_lookups(&fs)).collect();
        assert_eq!(walks, [4, 3, 2, 1, 0]);
    }

    /// Every op that changes a directory's entries evicts its attributes:
    /// the next `getattr` is one GETATTR, and its reply shows the new nlink
    /// and mtime.
    #[test]
    fn directory_changes_force_a_getattr() {
        let (fs, clock) = mounted(FuseConfig::optimized());
        let ctx = root_ctx();
        let d = fs.mkdir(Ino::ROOT, "d", Mode::RWXR_XR_X, &ctx).unwrap().ino;
        let e = fs.mkdir(Ino::ROOT, "e", Mode::RWXR_XR_X, &ctx).unwrap().ino;
        let outside = fs
            .mknod(e, "x", FileType::Regular, Mode::RW_R__R__, 0, &ctx)
            .unwrap()
            .ino;
        let changes_d = |op: &str, nlink_delta: i64, change: &dyn Fn() -> SysResult<()>| {
            let before = fs.getattr(d).unwrap();
            clock.advance(1_000_000);
            change().unwrap_or_else(|err| panic!("{op}: {err:?}"));
            let getattrs = fs.conn_stats().getattrs;
            let after = fs.getattr(d).unwrap();
            assert_eq!(fs.conn_stats().getattrs, getattrs + 1, "{op} must evict");
            assert_eq!(
                after.nlink as i64,
                before.nlink as i64 + nlink_delta,
                "{op}: nlink"
            );
            assert!(after.mtime > before.mtime, "{op}: mtime must move");
            fs.getattr(d).unwrap();
            assert_eq!(fs.conn_stats().getattrs, getattrs + 1, "{op}: then cached");
        };
        changes_d("mkdir", 1, &|| {
            fs.mkdir(d, "sub", Mode::RWXR_XR_X, &ctx).map(drop)
        });
        changes_d("mknod", 0, &|| {
            fs.mknod(d, "f", FileType::Regular, Mode::RW_R__R__, 0, &ctx)
                .map(drop)
        });
        changes_d("symlink", 0, &|| fs.symlink(d, "l", "f", &ctx).map(drop));
        changes_d("link", 0, &|| fs.link(outside, d, "hard").map(drop));
        changes_d("rename", 0, &|| {
            fs.rename(d, "f", d, "g", RenameFlags::NONE)
        });
        changes_d("rename in", 0, &|| {
            fs.rename(e, "x", d, "x", RenameFlags::NONE)
        });
        changes_d("unlink", 0, &|| fs.unlink(d, "g"));
        changes_d("rmdir", -1, &|| fs.rmdir(d, "sub"));
    }

    /// Requests one `readlink` sent, with the target it returned.
    fn readlink_counted(fs: &FuseClientFs, ino: Ino) -> (String, u64) {
        let before = fs.conn_stats().total();
        let target = fs.readlink(ino).unwrap();
        (target, fs.conn_stats().total() - before)
    }

    #[test]
    fn second_readlink_is_served_from_the_symlink_cache() {
        let (fs, _) = mounted(FuseConfig::optimized());
        let l = fs.symlink(Ino::ROOT, "l", "/t", &root_ctx()).unwrap().ino;
        assert_eq!(readlink_counted(&fs, l), ("/t".into(), 1));
        assert_eq!(readlink_counted(&fs, l), ("/t".into(), 0));
        // The paper profile predates FUSE_CACHE_SYMLINKS: every call asks.
        let (paper, _) = mounted(FuseConfig::paper());
        let l = paper
            .symlink(Ino::ROOT, "l", "/t", &root_ctx())
            .unwrap()
            .ino;
        assert_eq!(readlink_counted(&paper, l), ("/t".into(), 1));
        assert_eq!(readlink_counted(&paper, l), ("/t".into(), 1));
    }

    #[test]
    fn recreated_symlink_reads_its_new_target() {
        let (fs, _) = mounted(FuseConfig::optimized());
        let old = fs.symlink(Ino::ROOT, "l", "/old", &root_ctx()).unwrap().ino;
        assert_eq!(fs.readlink(old).unwrap(), "/old");
        fs.unlink(Ino::ROOT, "l").unwrap();
        fs.symlink(Ino::ROOT, "l", "/new", &root_ctx()).unwrap();
        let new = fs.lookup(Ino::ROOT, "l").unwrap().ino;
        assert_eq!(readlink_counted(&fs, new), ("/new".into(), 1));
        assert_eq!(readlink_counted(&fs, new), ("/new".into(), 0));
    }

    #[test]
    fn drop_caches_and_forget_empty_the_symlink_cache() {
        let (fs, _) = mounted(FuseConfig::optimized());
        let l = fs.symlink(Ino::ROOT, "l", "/t", &root_ctx()).unwrap().ino;
        fs.readlink(l).unwrap();
        fs.drop_caches();
        assert_eq!(readlink_counted(&fs, l), ("/t".into(), 1));
        assert_eq!(readlink_counted(&fs, l), ("/t".into(), 0));
        fs.forget(l, 1);
        assert_eq!(readlink_counted(&fs, l), ("/t".into(), 1));
    }

    #[test]
    fn readahead_batches_sequential_reads() {
        let (fs, _) = mounted(FuseConfig::optimized());
        let st = fs
            .mknod(
                Ino::ROOT,
                "big",
                FileType::Regular,
                Mode::RW_R__R__,
                0,
                &root_ctx(),
            )
            .unwrap();
        let fh = fs.open(st.ino, OpenFlags::RDWR).unwrap();
        fs.write(st.ino, fh, 0, &vec![7u8; 256 * 1024]).unwrap();
        let before = fs.conn_stats().reads;
        let mut buf = [0u8; 4096];
        for page in 0..64u64 {
            fs.read(st.ino, fh, page * 4096, &mut buf).unwrap();
        }
        let issued = fs.conn_stats().reads - before;
        // 256 KiB read in 4 KiB chunks with 128 KiB readahead = 2 requests.
        assert_eq!(issued, 2, "readahead must batch");
        assert!(fs.stats().readahead_hits >= 62);
    }

    /// An optimized mount logging reply payloads, holding one 256 KiB file
    /// of `7`s, opened read-write.
    fn big_file_with_reply_log() -> (Arc<FuseClientFs>, Arc<PayloadLog>, Ino, Fh) {
        let backing = memfs(DevId(1), SimClock::new());
        let log = PayloadLog::new();
        let transport = CountingTransport::new(
            InlineTransport::new(FsHandler::new(backing)),
            Arc::clone(&log),
        );
        let fs = FuseClientFs::mount(
            DevId(100),
            SimClock::new(),
            FuseConfig::optimized(),
            transport,
        )
        .expect("mount");
        let st = fs
            .mknod(
                Ino::ROOT,
                "big",
                FileType::Regular,
                Mode::RW_R__R__,
                0,
                &root_ctx(),
            )
            .unwrap();
        let fh = fs.open(st.ino, OpenFlags::RDWR).unwrap();
        fs.write(st.ino, fh, 0, &vec![7u8; 256 * 1024]).unwrap();
        (fs, log, st.ino, fh)
    }

    /// Only a sequential read opens the 128 KiB window: a read elsewhere
    /// asks for its own pages, and the read that continues where its reply
    /// ended is the one that reads ahead. (Every READ here lies inside the
    /// file, so each reply is as long as its request.)
    #[test]
    fn random_read_asks_only_for_its_pages() {
        let (fs, log, ino, fh) = big_file_with_reply_log();
        fs.drop_caches();
        let replies = || -> Vec<usize> {
            let hops = log.all().into_iter().filter(|h| h.hop == "wire-reply");
            hops.map(|h| h.len).collect()
        };
        let mut buf = vec![0u8; 5000];
        fs.read(ino, fh, 81920, &mut buf).unwrap();
        assert_eq!(replies(), [8192], "5000 bytes round up to two pages");
        fs.read(ino, fh, 81920 + 8192, &mut buf).unwrap();
        fs.read(ino, fh, 4096, &mut buf[..100]).unwrap();
        assert_eq!(replies(), [8192, 128 * 1024, 4096]);
        assert!(buf[..100].iter().all(|&b| b == 7));
    }

    /// The page the kernel reads to complete a partial write is one 4 KiB
    /// READ, even at offset 0, and it leaves no readahead window: the next
    /// read asks the server for its own page.
    #[test]
    fn read_page_asks_for_one_page_and_opens_no_window() {
        let (fs, log, ino, fh) = big_file_with_reply_log();
        fs.drop_caches();
        let replies = || -> Vec<usize> {
            let hops = log.all().into_iter().filter(|h| h.hop == "wire-reply");
            hops.map(|h| h.len).collect()
        };
        let mut page = [0u8; 4096];
        assert_eq!(fs.read_page(ino, fh, 0, &mut page).unwrap(), 4096);
        assert_eq!(page, [7u8; 4096]);
        assert_eq!(replies(), [4096]);
        fs.read(ino, fh, 4096, &mut page[..100]).unwrap();
        assert_eq!(replies(), [4096, 4096]);
    }

    /// A punched hole must read as zeroes, not from a readahead window
    /// filled before the punch.
    #[test]
    fn punched_hole_is_not_served_from_the_readahead_window() {
        let (fs, _) = mounted(FuseConfig::optimized());
        let st = fs
            .mknod(
                Ino::ROOT,
                "f",
                FileType::Regular,
                Mode::RW_R__R__,
                0,
                &root_ctx(),
            )
            .unwrap();
        let fh = fs.open(st.ino, OpenFlags::RDWR).unwrap();
        fs.write(st.ino, fh, 0, &vec![7u8; 64 * 1024]).unwrap();
        let mut buf = [0u8; 4096];
        fs.read(st.ino, fh, 0, &mut buf).unwrap();
        fs.fallocate(st.ino, fh, 4096, 4096, FallocateMode::PunchHole)
            .unwrap();
        assert_eq!(fs.read(st.ino, fh, 4096, &mut buf).unwrap(), 4096);
        assert_eq!(buf, [0u8; 4096], "the hole reads as zeroes");
        fs.read(st.ino, fh, 8192, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 4096], "bytes past the hole survive");
    }

    #[test]
    fn forget_batching_folds_requests() {
        let batch = FORGET_BATCH as u64;
        let (fs, _) = mounted(FuseConfig::optimized());
        for i in 0..batch {
            fs.forget(Ino(100 + i), 1);
        }
        let conn = fs.conn_stats();
        assert_eq!(conn.batch_forgets, 1);
        assert_eq!(conn.forgets, 0);
    }

    #[test]
    fn o_direct_is_rejected() {
        let (fs, _) = mounted(FuseConfig::optimized());
        let st = fs
            .mknod(
                Ino::ROOT,
                "f",
                FileType::Regular,
                Mode::RW_R__R__,
                0,
                &root_ctx(),
            )
            .unwrap();
        assert_eq!(
            fs.open(st.ino, OpenFlags::RDONLY.with(OpenFlags::DIRECT)),
            Err(Errno::EINVAL)
        );
    }

    #[test]
    fn caller_fsize_unenforced_and_handles_not_exportable() {
        // #391 is `o_direct_is_rejected`; #375 is the server's root chmod
        // (`cntrfs` tests).
        let (fs, _) = mounted(FuseConfig::optimized());
        assert!(!fs.features().enforces_caller_fsize); // #228
        assert_eq!(fs.export_handle(Ino::ROOT), Err(Errno::EOPNOTSUPP)); // #426
    }

    #[test]
    fn dead_server_yields_enotconn() {
        let (fs, _) = mounted(FuseConfig::optimized());
        fs.kill_connection();
        assert_eq!(fs.getattr(Ino(42)), Err(Errno::ENOTCONN));
        assert_eq!(
            fs.mkdir(Ino::ROOT, "x", Mode::RWXR_XR_X, &root_ctx())
                .map(|_| ()),
            Err(Errno::ENOTCONN)
        );
    }

    #[test]
    fn parallel_dirops_cheapens_metadata() {
        let run = |flags: InitFlags| {
            let (fs, clock) = mounted(FuseConfig::optimized().with_flags(flags));
            let start = clock.now();
            for i in 0..100 {
                fs.mkdir(Ino::ROOT, &format!("d{i}"), Mode::RWXR_XR_X, &root_ctx())
                    .unwrap();
                fs.lookup(Ino::ROOT, &format!("d{i}")).unwrap();
            }
            (clock.now() - start).as_nanos()
        };
        let mut off = InitFlags::cntr_default();
        off.parallel_dirops = false;
        let with = run(InitFlags::cntr_default());
        let without = run(off);
        assert!(
            without > with * 2,
            "pipelining must cut metadata cost: with={with} without={without}"
        );
    }

    #[test]
    fn splice_read_cheapens_large_transfers() {
        let run = |flags: InitFlags| {
            let (fs, clock) = mounted(FuseConfig::optimized().with_flags(flags));
            let st = fs
                .mknod(
                    Ino::ROOT,
                    "f",
                    FileType::Regular,
                    Mode::RW_R__R__,
                    0,
                    &root_ctx(),
                )
                .unwrap();
            let fh = fs.open(st.ino, OpenFlags::RDWR).unwrap();
            fs.write(st.ino, fh, 0, &vec![1u8; 1 << 20]).unwrap();
            let start = clock.now();
            let mut buf = vec![0u8; 128 * 1024];
            let mut off = 0u64;
            for _ in 0..8 {
                fs.read(st.ino, fh, off, &mut buf).unwrap();
                off += buf.len() as u64;
            }
            (clock.now() - start).as_nanos()
        };
        let mut no_splice = InitFlags::cntr_default();
        no_splice.splice_read = false;
        let with = run(InitFlags::cntr_default());
        let without = run(no_splice);
        assert!(
            without > with,
            "splice read must be cheaper: with={with} without={without}"
        );
    }

    #[test]
    fn splice_write_trades_header_peek_for_payload_remap() {
        let run = |flags: InitFlags, chunk: usize, total: usize| {
            let (fs, clock) = mounted(FuseConfig::optimized().with_flags(flags));
            let st = fs
                .mknod(
                    Ino::ROOT,
                    "f",
                    FileType::Regular,
                    Mode::RW_R__R__,
                    0,
                    &root_ctx(),
                )
                .unwrap();
            let fh = fs.open(st.ino, OpenFlags::RDWR).unwrap();
            let data = vec![1u8; chunk];
            let start = clock.now();
            let mut off = 0u64;
            while off < total as u64 {
                fs.write(st.ino, fh, off, &data).unwrap();
                off += chunk as u64;
            }
            (clock.now() - start).as_nanos()
        };
        let spliced = InitFlags::cntr_default();
        let mut copied = InitFlags::cntr_default();
        copied.splice_write = false;

        // Large batched writes: the page remap beats the memcpy by far more
        // than the header-peek context switch costs (why the default flipped).
        let large_spliced = run(spliced, 1 << 20, 8 << 20);
        let large_copied = run(copied, 1 << 20, 8 << 20);
        assert!(
            large_spliced * 2 < large_copied,
            "1 MiB spliced writes must win big: spliced={large_spliced} copied={large_copied}"
        );

        // Tiny writes: the per-request peek dominates — the paper's §3.3
        // argument for shipping with splice-write off, still visible.
        let small_spliced = run(spliced, 512, 16 * 512);
        let small_copied = run(copied, 512, 16 * 512);
        assert!(
            small_spliced > small_copied,
            "sub-page writes still pay the peek: spliced={small_spliced} copied={small_copied}"
        );

        // Metadata requests are untaxed either way (the peek is charged to
        // spliced WRITEs only).
        let meta = |flags: InitFlags| {
            let (fs, clock) = mounted(FuseConfig::optimized().with_flags(flags));
            let start = clock.now();
            for i in 0..50 {
                fs.lookup(Ino::ROOT, &format!("missing{i}")).ok();
            }
            (clock.now() - start).as_nanos()
        };
        assert_eq!(
            meta(spliced),
            meta(copied),
            "splice-write must not tax metadata requests"
        );
    }

    #[test]
    fn more_workers_cost_sync_overhead() {
        let run = |workers: usize| {
            let (fs, clock) = mounted(FuseConfig::optimized().with_workers(workers));
            let st = fs
                .mknod(
                    Ino::ROOT,
                    "f",
                    FileType::Regular,
                    Mode::RW_R__R__,
                    0,
                    &root_ctx(),
                )
                .unwrap();
            let fh = fs.open(st.ino, OpenFlags::RDWR).unwrap();
            fs.write(st.ino, fh, 0, &vec![1u8; 1 << 20]).unwrap();
            let start = clock.now();
            let mut buf = vec![0u8; 128 * 1024];
            let mut off = 0u64;
            for _ in 0..8 {
                fs.read(st.ino, fh, off, &mut buf).unwrap();
                off += buf.len() as u64;
            }
            (clock.now() - start).as_nanos()
        };
        let t1 = run(1);
        let t16 = run(16);
        assert!(t16 > t1, "16 workers must cost more sync: {t1} vs {t16}");
        // But modestly — single-digit percent territory (Figure 4).
        assert!(
            t16 < t1 * 13 / 10,
            "overhead should stay mild: {t1} vs {t16}"
        );
    }

    #[test]
    fn setattr_updates_cache_and_timestamps_flow() {
        let (fs, clock) = mounted(FuseConfig::optimized());
        let st = fs
            .mknod(
                Ino::ROOT,
                "t",
                FileType::Regular,
                Mode::RW_R__R__,
                0,
                &root_ctx(),
            )
            .unwrap();
        clock.advance(5000);
        let updated = fs
            .setattr(
                st.ino,
                &SetAttr {
                    mtime: Some(Timespec::from_secs(99)),
                    ..SetAttr::default()
                },
                &root_ctx(),
            )
            .unwrap();
        assert_eq!(updated.mtime, Timespec::from_secs(99));
        // Cached attr reflects the update without another round trip.
        let before = fs.conn_stats().getattrs;
        let got = fs.getattr(st.ino).unwrap();
        assert_eq!(got.mtime, Timespec::from_secs(99));
        assert_eq!(fs.conn_stats().getattrs, before);
    }

    /// A transport that, once armed, runs an action after the server has
    /// answered the next GETATTR and before that reply returns: the window
    /// in which another thread's request lands while a reply is on its
    /// way back.
    struct LateGetattr {
        inner: Arc<dyn Transport>,
        armed: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl Transport for LateGetattr {
        fn call(&self, req: Request) -> Reply {
            let getattr = matches!(req, Request::Getattr { .. });
            let reply = self.inner.call(req);
            if getattr {
                let action = self.armed.lock().take();
                if let Some(action) = action {
                    action();
                }
            }
            reply
        }

        fn shutdown(&self) {
            self.inner.shutdown();
        }

        fn is_alive(&self) -> bool {
            self.inner.is_alive()
        }

        fn stats(&self) -> ConnSnapshot {
            self.inner.stats()
        }
    }

    /// A GETATTR answered before a write landed returns after it: its
    /// attributes are older than the write's size, so they must not be
    /// cached over it (Linux's `attr_version` check in
    /// `fuse_change_attributes`). The next `getattr` sees the written size.
    #[test]
    fn a_reply_older_than_a_write_is_not_cached() {
        let backing = memfs(DevId(1), SimClock::new());
        let late = Arc::new(LateGetattr {
            inner: InlineTransport::new(FsHandler::new(backing)),
            armed: Mutex::new(None),
        });
        let fs = FuseClientFs::mount(
            DevId(100),
            SimClock::new(),
            FuseConfig::optimized(),
            Arc::clone(&late) as Arc<dyn Transport>,
        )
        .unwrap();
        let st = fs
            .mknod(
                Ino::ROOT,
                "f",
                FileType::Regular,
                Mode::RW_R__R__,
                0,
                &root_ctx(),
            )
            .unwrap();
        let fh = fs.open(st.ino, OpenFlags::RDWR).unwrap();
        // FSYNC drops the cached attributes, so the next getattr asks.
        fs.fsync(st.ino, fh, false).unwrap();
        let writer = Arc::clone(&fs);
        *late.armed.lock() = Some(Box::new(move || {
            assert_eq!(writer.write(st.ino, fh, 0, b"abcdef").unwrap(), 6);
        }));
        assert_eq!(fs.getattr(st.ino).unwrap().size, 0, "the late reply");
        assert_eq!(fs.getattr(st.ino).unwrap().size, 6);
    }

    /// 8 caller threads over one client on an [`InlineTransport`]: the
    /// entry/attr caches and the nlookup/forget accounting must stay
    /// consistent while the handler serves every thread at once.
    #[test]
    fn concurrent_client_cache_stress() {
        let clock = SimClock::new();
        let backing = memfs(DevId(1), clock.clone());
        let transport = InlineTransport::new(FsHandler::new(backing));
        let fs =
            FuseClientFs::mount(DevId(100), clock, FuseConfig::optimized(), transport).unwrap();
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                let name = format!("file-{t}");
                let payload = name.clone().into_bytes();
                let st = fs
                    .mknod(
                        Ino::ROOT,
                        &name,
                        FileType::Regular,
                        Mode::RW_R__R__,
                        0,
                        &root_ctx(),
                    )
                    .unwrap();
                for round in 0..50 {
                    let fh = fs.open(st.ino, OpenFlags::RDWR).unwrap();
                    fs.write(st.ino, fh, 0, &payload).unwrap();
                    let mut buf = [0u8; 32];
                    let n = fs.read(st.ino, fh, 0, &mut buf).unwrap();
                    assert_eq!(&buf[..n], &payload[..], "read own write, round {round}");
                    fs.release(st.ino, fh).unwrap();
                    // Lookup churn across every thread's files exercises the
                    // shared entry cache; our own must always resolve.
                    let looked = fs.lookup(Ino::ROOT, &name).unwrap();
                    assert_eq!(looked.ino, st.ino, "entry cache must stay coherent");
                    let _ = fs.lookup(Ino::ROOT, &format!("file-{}", (t + round) % 8));
                    assert_eq!(fs.getattr(st.ino).unwrap().size, payload.len() as u64);
                }
                st.ino
            }));
        }
        let inos: Vec<Ino> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All files exist, contents survived the churn, counters add up.
        for (t, ino) in inos.iter().enumerate() {
            let st = fs.lookup(Ino::ROOT, &format!("file-{t}")).unwrap();
            assert_eq!(st.ino, *ino);
        }
        let stats = fs.stats();
        assert!(stats.entry_hits + stats.entry_misses > 0);
        assert!(fs.conn_stats().total() > 0);
    }
}
