//! The attach plane: one epoll event loop for every proxy and pty.
//!
//! The paper's proxy "runs an efficient event loop based on epoll"
//! (§3.2.4). Earlier revisions gave every [`SocketProxy`] its own epoll
//! instance and pumped them in turn, which falls over at scale: tokens
//! were derived from `conns.len()` (aliasing after a removal), closed
//! connections were never deregistered, and a stalled or dead peer on one
//! proxy could error the whole pump. This module replaces that with a
//! single [`EventLoop`] per attach plane that multiplexes *all* endpoints
//! — listeners, forwarded connection pairs, and ptys — under stable
//! slab-allocated tokens, with per-direction backpressure parking and
//! half-close propagation.
//!
//! # Token scheme
//!
//! Every registered endpoint occupies a slot in a generation-tagged slab.
//! The epoll token is `generation << 32 | slot`; freeing a slot bumps its
//! generation, so a late event for a torn-down endpoint decodes to a
//! stale token and is ignored instead of striking whatever reused the
//! slot.
//!
//! # Backpressure
//!
//! A forwarded direction that hits a full destination is *parked*: its
//! source drops out of the read interest set and the destination is
//! re-armed with [`Events::OUT`]. When the destination drains, the
//! writability event unparks the direction and pumping resumes — no
//! busy-looping, no dropped bytes. A destination whose reader has gone
//! reports writable too (a write would fail at once), so the parked
//! direction wakes to its error and the pair is torn down.
//!
//! # Readiness
//!
//! The plane's epoll is level-triggered: every wait reports each watched
//! source that is readable *now*, whatever earlier waits reported. The
//! plane forwards through an io_uring (`cntr_kernel::io_uring`): one
//! forwarded message is one splice SQE, and one wait's ready set is one
//! `io_uring_enter`. Every direction the wait made ready — its source
//! readable, or its parked destination drained — becomes one SQE, each
//! direction at most once, and the batch is split only at the ring's
//! size (`WAIT_BUDGET`, the wait's own budget). A 1,000-lane round is
//! four enters, not a thousand `splice` calls, while a batch of one costs
//! exactly what one `splice` did.
//!
//! A direction is done at its first short completion (fewer than the
//! 64 KiB chunk moved), as nginx stops reading on a short `recv`, instead
//! of splicing again only to learn the source is empty. Nothing is
//! stranded:
//!
//! - bytes that arrive later make the next wait report the source;
//! - a destination that took only part of the bytes pushed the rest back
//!   onto the source, so the next wait reports it, the SQE after that
//!   completes with `EAGAIN`, and the direction parks;
//! - an EOF queued behind the data shows up on a later wait of the same
//!   [`EventLoop::pump_until_quiet`], since the short splice was progress;
//! - a full 64 KiB completion is resubmitted in the next enter of the
//!   same iteration.
//!
//! Each completion is applied once the enter returns, under the slot's
//! generation check: a completion whose pair an earlier completion of the
//! batch tore down is ignored. An accept does not forward its new pair:
//! the epoll being level-triggered, bytes that raced ahead of
//! registration are reported by the next wait.
//!
//! # Half-close
//!
//! A splice completing with `0` means the source sent EOF. Only the
//! forward direction shuts down (`shutdown(SHUT_WR)` on the
//! destination); the reverse direction keeps flowing until it too
//! drains, and only then is the pair deregistered and closed.
//!
//! [`SocketProxy`]: crate::SocketProxy

use crate::pty::Pty;
use crate::shell::Shell;
use cntr_kernel::epoll::Events;
use cntr_kernel::io_uring::Sqe;
use cntr_kernel::Kernel;
use cntr_types::{Errno, Pid, SysResult};
use obs::{LazyCounter, LazyGauge, LazyHistogram, Subsystem};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

static OBS_POLLS: LazyCounter = LazyCounter::new(Subsystem::Core, "core.attach.loop-polls");
static OBS_ENDPOINTS: LazyGauge = LazyGauge::new(Subsystem::Core, "core.attach.endpoints");
static OBS_BYTES: LazyCounter = LazyCounter::new(Subsystem::Core, "core.proxy.forwarded-bytes");
static OBS_SPLICES: LazyCounter = LazyCounter::new(Subsystem::Core, "core.proxy.splices");
static OBS_SUBMISSIONS: LazyCounter = LazyCounter::new(Subsystem::Core, "core.proxy.submissions");
static OBS_SQES_PER_SUBMISSION: LazyHistogram =
    LazyHistogram::new(Subsystem::Core, "core.proxy.sqes-per-submission");
static OBS_LIVE: LazyGauge = LazyGauge::new(Subsystem::Core, "core.proxy.live-connections");
static OBS_PARKED: LazyGauge = LazyGauge::new(Subsystem::Core, "core.proxy.parked-directions");
static OBS_HALF_CLOSES: LazyCounter = LazyCounter::new(Subsystem::Core, "core.proxy.half-closes");
static OBS_PTY_PARKS: LazyCounter = LazyCounter::new(Subsystem::Core, "core.pty.parked-flushes");

obs::counter_scope! {
    /// Event counters of one proxy, writing through to `core.proxy.*`.
    pub(crate) struct ProxyCounters(Subsystem::Core) {
        /// Connections accepted over the lifetime.
        accepted: "core.proxy.accepted",
        /// Upstream dials that failed (the proxy keeps serving).
        dial_errors: "core.proxy.dial-errors",
    }
}

/// Lock classes of the attach plane, ranked above the kernel's in the
/// global lock-ordering table: plane locks are leaves
/// acquired *after* any kernel lock would be, which (with lockdep on)
/// proves no plane lock is ever held across a kernel syscall.
pub mod lock_class {
    /// [`Cntr`](crate::Cntr)'s lazily-created shared plane slot.
    pub const PLANE_SLOT: &str = "core.attach.plane";
    /// An attach session's proxy list.
    pub const SESSION_PROXIES: &str = "core.attach.proxies";
    /// The event loop's endpoint slab ([`super::EventLoop`]). Strict
    /// leaf: never held while entering the kernel.
    pub const LOOP_STATE: &str = "core.attach.loop-state";
}

/// Ranks the plane's lock classes: kernel groups 0–4 stay where the
/// kernel declared them; the plane's container locks land in group 5 and
/// the loop slab is the group-6 leaf.
fn declare_plane_lock_discipline() {
    lockdep::ordering(&[
        &[],
        &[],
        &[],
        &[],
        &[],
        &[lock_class::PLANE_SLOT, lock_class::SESSION_PROXIES],
        &[lock_class::LOOP_STATE],
    ]);
}

/// Per-wait event budget; the kernel serves the ready set round-robin
/// across waits, so a small budget cannot starve high tokens. It also
/// sizes the plane's io_uring, so one wait's ready set fits one enter.
const WAIT_BUDGET: usize = 256;
/// Splice chunk per call, matching the real proxy's 64 KiB buffer.
const SPLICE_CHUNK: usize = 64 * 1024;

/// Builds the epoll token for a slot at a generation.
fn token_of(gen: u32, slot: usize) -> u64 {
    (u64::from(gen) << 32) | slot as u64
}

/// Shared per-proxy bookkeeping: the listener endpoint plus counters the
/// [`SocketProxy`](crate::SocketProxy) handle exposes.
pub(crate) struct ProxyCore {
    /// Identity used to find this proxy's endpoints at teardown.
    id: u64,
    /// Listener fd in the plane process.
    listener_fd: u32,
    /// Process whose namespace originates upstream connections.
    connect_pid: Pid,
    /// Path of the real server socket.
    target_path: String,
    /// Live forwarded pairs.
    live: AtomicUsize,
    pub(crate) counters: ProxyCounters,
}

impl ProxyCore {
    /// Live forwarded connection pairs.
    pub(crate) fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }
}

/// Tokens of a pty registration, kept by the session for teardown.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PtyHandles {
    in_token: u64,
    out_token: u64,
}

/// What a slab slot points at.
enum Endpoint {
    /// A proxy's listening socket.
    Listener { proxy: Arc<ProxyCore> },
    /// One end of a forwarded pair. The endpoint owns the *forward*
    /// direction: bytes read from `fd` are spliced into the peer's fd.
    Conn {
        fd: u32,
        /// Slab slot of the other end.
        peer: usize,
        proxy: Arc<ProxyCore>,
        /// Forward direction still open (no EOF from `fd` yet).
        out_open: bool,
        /// Forward direction parked waiting for the peer to drain.
        parked: bool,
    },
    /// Read end of a pty's input pipe: pending user lines wake the
    /// shell.
    PtyIn {
        fd: u32,
        /// Slot of the paired [`Endpoint::PtyOut`].
        out_slot: usize,
        shell: Arc<Shell>,
        pty: Arc<Pty>,
        /// Shell output that did not fit in the output pipe; flushed on
        /// the out endpoint's writability.
        pending: Vec<u8>,
    },
    /// Write end of a pty's output pipe: armed with `OUT` only while
    /// the paired input endpoint holds a pending tail.
    PtyOut { fd: u32, in_slot: usize },
}

impl Endpoint {
    fn fd(&self) -> u32 {
        match self {
            Endpoint::Listener { proxy } => proxy.listener_fd,
            Endpoint::Conn { fd, .. }
            | Endpoint::PtyIn { fd, .. }
            | Endpoint::PtyOut { fd, .. } => *fd,
        }
    }
}

/// A slab slot: the generation survives frees so stale tokens miss.
struct Slot {
    gen: u32,
    ep: Option<Endpoint>,
}

struct State {
    slots: Vec<Slot>,
    free: Vec<usize>,
}

impl State {
    fn alloc(&mut self) -> usize {
        match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot { gen: 0, ep: None });
                self.slots.len() - 1
            }
        }
    }

    /// Frees a slot, bumping its generation, and returns the endpoint.
    fn release(&mut self, idx: usize) -> Option<Endpoint> {
        let slot = self.slots.get_mut(idx)?;
        let ep = slot.ep.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        Some(ep)
    }

    fn token(&self, idx: usize) -> u64 {
        token_of(self.slots[idx].gen, idx)
    }

    /// Resolves a token to its slot if the generation still matches and
    /// the slot is occupied.
    fn resolve(&self, token: u64) -> Option<usize> {
        let idx = (token & u64::from(u32::MAX)) as usize;
        let slot = self.slots.get(idx)?;
        (slot.gen == (token >> 32) as u32 && slot.ep.is_some()).then_some(idx)
    }

    /// Epoll interest of a `Conn` endpoint: readable while its forward
    /// direction is open and not parked; writable while the *peer's*
    /// direction is parked waiting on this fd to drain.
    fn conn_interest(&self, idx: usize) -> Events {
        let (out_open, parked, peer) = match &self.slots[idx].ep {
            Some(Endpoint::Conn {
                out_open,
                parked,
                peer,
                ..
            }) => (*out_open, *parked, *peer),
            _ => return Events::default(),
        };
        let peer_parked = matches!(
            &self.slots[peer].ep,
            Some(Endpoint::Conn { parked: true, .. })
        );
        Events {
            readable: out_open && !parked,
            writable: peer_parked,
            hangup: false,
        }
    }
}

/// The epoll-driven event loop of one attach plane.
///
/// One loop multiplexes every endpoint of an attach plane — proxy
/// listeners, forwarded connection pairs, and pty pipes — inside a
/// single *plane process* whose fd table owns them all. Sessions
/// register and deregister endpoints dynamically; see the module docs
/// for the token, backpressure, and half-close schemes.
pub struct EventLoop {
    kernel: Kernel,
    /// The plane process owning every endpoint fd, forked by
    /// [`EventLoop::new`] and reaped on drop.
    pid: Pid,
    /// The one epoll instance.
    epfd: u32,
    /// The io_uring every forwarded splice is submitted on.
    ring: u32,
    state: Mutex<State>,
    /// Single-pumper gate: concurrent `poll_once` callers see `Ok(0)`.
    polling: AtomicBool,
    next_proxy_id: AtomicU64,
}

impl EventLoop {
    /// Creates a plane with its own freshly-forked process. The process
    /// starts with an empty fd table (inherited descriptors are closed
    /// with `close_range`) so the epoll interest set is the *only*
    /// thing keeping plane fds alive.
    pub fn new(kernel: Kernel) -> SysResult<Arc<EventLoop>> {
        let pid = kernel.fork(Pid::INIT)?;
        kernel.set_name(pid, "cntr-plane")?;
        kernel.close_range(pid, 0)?;
        declare_plane_lock_discipline();
        let epfd = kernel.epoll_create(pid)?;
        let ring = kernel.io_uring_setup(pid, WAIT_BUDGET as u32)?;
        Ok(Arc::new(EventLoop {
            kernel,
            pid,
            epfd,
            ring,
            state: Mutex::new_class(
                lock_class::LOOP_STATE,
                State {
                    slots: Vec::new(),
                    free: Vec::new(),
                },
            ),
            polling: AtomicBool::new(false),
            next_proxy_id: AtomicU64::new(1),
        }))
    }

    /// The kernel this loop runs on.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The plane process owning the endpoint fds.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Number of registered endpoints (listeners + connection ends +
    /// pty ends).
    pub fn endpoints(&self) -> usize {
        let st = self.state.lock();
        st.slots.len() - st.free.len()
    }

    /// Size of the epoll interest set — must track [`endpoints`]
    /// exactly; the connect/close-cycle tests assert it stays bounded.
    ///
    /// [`endpoints`]: EventLoop::endpoints
    pub fn interest_len(&self) -> SysResult<usize> {
        self.kernel.epoll_len(self.pid, self.epfd)
    }

    /// One event-loop iteration: a budgeted `epoll_wait`, dispatch of
    /// every returned event, and one io_uring submission for every
    /// forwarded direction the wait made ready. Returns units of progress:
    /// bytes moved (spliced through proxies plus shell output written
    /// to ptys) plus one per freshly accepted connection. Re-entrant
    /// callers are turned away with `Ok(0)` — exactly one pumper runs
    /// at a time.
    pub fn poll_once(&self) -> SysResult<usize> {
        if self.polling.swap(true, Ordering::Acquire) {
            return Ok(0);
        }
        let result = self.poll_inner();
        self.polling.store(false, Ordering::Release);
        result
    }

    /// Pumps until an iteration makes no progress (quiesces in-flight
    /// data and pending accepts). Returns total progress units.
    pub fn pump_until_quiet(&self) -> SysResult<usize> {
        let mut total = 0;
        loop {
            let moved = self.poll_once()?;
            total += moved;
            if moved == 0 {
                return Ok(total);
            }
        }
    }

    fn poll_inner(&self) -> SysResult<usize> {
        // The loop's park point: entering the wait with any plane lock
        // held would deadlock a real blocking loop, so prove we hold
        // none.
        lockdep::assert_no_locks_held_except(&[]);
        let ready = self
            .kernel
            .epoll_wait_budget(self.pid, self.epfd, WAIT_BUDGET)?;
        OBS_POLLS.inc();
        let mut moved = 0usize;
        let mut ready_dirs = Vec::new();
        for (token, ev) in ready {
            moved += self.dispatch(token, ev, &mut ready_dirs)?;
        }
        Ok(moved + self.forward(ready_dirs)?)
    }

    /// Routes one epoll event. Stale tokens (generation mismatch after
    /// a teardown) are ignored. A forwarded direction the event makes
    /// ready is not spliced here: its source slot's token joins
    /// `ready_dirs`, which [`EventLoop::forward`] submits once the whole
    /// wait is dispatched.
    fn dispatch(&self, token: u64, ev: Events, ready_dirs: &mut Vec<u64>) -> SysResult<usize> {
        enum Act {
            Accept(Arc<ProxyCore>),
            ListenerGone(usize),
            /// Unpark the direction that reads from this slot (the
            /// event fired on its destination).
            Unpark(usize),
            DriveShell(usize),
            FlushPty(usize),
        }
        let acts: Vec<Act> = {
            let st = self.state.lock();
            let Some(idx) = st.resolve(token) else {
                return Ok(0);
            };
            match st.slots[idx].ep.as_ref().expect("resolved slot occupied") {
                Endpoint::Listener { proxy } => {
                    if ev.readable {
                        vec![Act::Accept(Arc::clone(proxy))]
                    } else if ev.hangup {
                        vec![Act::ListenerGone(idx)]
                    } else {
                        Vec::new()
                    }
                }
                Endpoint::Conn {
                    peer,
                    out_open,
                    parked,
                    ..
                } => {
                    let mut acts = Vec::new();
                    if ev.writable {
                        // This fd drained: the peer's parked direction
                        // can resume writing into it.
                        acts.push(Act::Unpark(*peer));
                    }
                    if (ev.readable || ev.hangup) && *out_open && !*parked {
                        ready_dirs.push(token);
                    }
                    acts
                }
                Endpoint::PtyIn { pending, .. } => {
                    if ev.readable && pending.is_empty() {
                        vec![Act::DriveShell(idx)]
                    } else {
                        Vec::new()
                    }
                }
                Endpoint::PtyOut { in_slot, .. } => {
                    if ev.writable {
                        vec![Act::FlushPty(*in_slot)]
                    } else {
                        Vec::new()
                    }
                }
            }
        };
        let mut moved = 0;
        for act in acts {
            moved += match act {
                Act::Accept(proxy) => self.accept_burst(&proxy)?,
                Act::ListenerGone(idx) => {
                    self.drop_endpoint(idx);
                    0
                }
                Act::Unpark(idx) => {
                    if let Some(token) = self.unpark(idx)? {
                        ready_dirs.push(token);
                    }
                    0
                }
                Act::DriveShell(idx) => self.drive_shell(idx)?,
                Act::FlushPty(idx) => self.flush_pty(idx)?,
            };
        }
        Ok(moved)
    }

    // ------------------------------------------------------------------
    // Proxy endpoints.
    // ------------------------------------------------------------------

    /// Registers a proxy's already-bound listener fd (owned by the
    /// plane process) and starts accepting on it.
    pub(crate) fn register_listener(
        &self,
        listener_fd: u32,
        connect_pid: Pid,
        target_path: &str,
    ) -> SysResult<Arc<ProxyCore>> {
        let proxy = Arc::new(ProxyCore {
            id: self.next_proxy_id.fetch_add(1, Ordering::Relaxed),
            listener_fd,
            connect_pid,
            target_path: target_path.to_string(),
            live: AtomicUsize::new(0),
            counters: ProxyCounters::default(),
        });
        let token = {
            let mut st = self.state.lock();
            let idx = st.alloc();
            st.slots[idx].ep = Some(Endpoint::Listener {
                proxy: Arc::clone(&proxy),
            });
            st.token(idx)
        };
        self.kernel
            .epoll_add(self.pid, self.epfd, listener_fd, token, Events::IN)?;
        OBS_ENDPOINTS.inc();
        Ok(proxy)
    }

    /// Deregisters a proxy: its listener and every forwarded pair it
    /// owns leave the interest set and their fds are closed.
    pub(crate) fn remove_proxy(&self, proxy: &ProxyCore) {
        let victims: Vec<(u64, Endpoint)> = {
            let mut st = self.state.lock();
            let matching: Vec<usize> = (0..st.slots.len())
                .filter(|&i| match &st.slots[i].ep {
                    Some(Endpoint::Listener { proxy: p })
                    | Some(Endpoint::Conn { proxy: p, .. }) => p.id == proxy.id,
                    _ => false,
                })
                .collect();
            matching
                .into_iter()
                .map(|i| {
                    let tok = st.token(i);
                    (tok, st.release(i).expect("matched slot occupied"))
                })
                .collect()
        };
        for (tok, ep) in victims {
            let _ = self.kernel.epoll_del(self.pid, self.epfd, tok);
            let _ = self.kernel.close(self.pid, ep.fd());
            OBS_ENDPOINTS.dec();
            if let Endpoint::Conn { parked: true, .. } = ep {
                OBS_PARKED.dec();
            }
        }
        let live = proxy.live.swap(0, Ordering::Relaxed);
        OBS_LIVE.get().add(-(live as i64));
    }

    /// Accepts every pending client on a listener, dialing upstream for
    /// each. A failed dial closes that client and increments the
    /// dial-error counters — it never aborts the loop or other
    /// sessions. Freshly-registered pairs are not pumped here: bytes
    /// that raced ahead of registration make the next (level-triggered)
    /// wait report the new source, and the accept itself is progress,
    /// so `pump_until_quiet` runs that wait.
    fn accept_burst(&self, proxy: &Arc<ProxyCore>) -> SysResult<usize> {
        let k = &self.kernel;
        let mut moved = 0;
        while let Ok(client) = k.accept(self.pid, proxy.listener_fd) {
            // An accept is progress even when no payload follows yet:
            // `pump_until_quiet` must keep iterating while listeners
            // beyond this wait's budget still hold pending clients.
            moved += 1;
            proxy.counters.accepted.inc();
            // Originate upstream in the connect process's namespace,
            // then bring the fd home over SCM_RIGHTS so the plane owns
            // both ends.
            let upstream = k
                .connect(proxy.connect_pid, &proxy.target_path)
                .and_then(|remote| {
                    let local = k.send_fd(proxy.connect_pid, remote, self.pid)?;
                    k.close(proxy.connect_pid, remote)?;
                    Ok(local)
                });
            match upstream {
                Ok(up) => self.register_pair(proxy, client, up)?,
                Err(_) => {
                    proxy.counters.dial_errors.inc();
                    let _ = k.close(self.pid, client);
                }
            }
        }
        Ok(moved)
    }

    /// Registers a forwarded pair under fresh tokens.
    fn register_pair(&self, proxy: &Arc<ProxyCore>, client: u32, upstream: u32) -> SysResult<()> {
        let (ct, ut) = {
            let mut st = self.state.lock();
            let cidx = st.alloc();
            let uidx = st.alloc();
            st.slots[cidx].ep = Some(Endpoint::Conn {
                fd: client,
                peer: uidx,
                proxy: Arc::clone(proxy),
                out_open: true,
                parked: false,
            });
            st.slots[uidx].ep = Some(Endpoint::Conn {
                fd: upstream,
                peer: cidx,
                proxy: Arc::clone(proxy),
                out_open: true,
                parked: false,
            });
            (st.token(cidx), st.token(uidx))
        };
        self.kernel
            .epoll_add(self.pid, self.epfd, client, ct, Events::IN)?;
        self.kernel
            .epoll_add(self.pid, self.epfd, upstream, ut, Events::IN)?;
        proxy.live.fetch_add(1, Ordering::Relaxed);
        OBS_LIVE.inc();
        OBS_ENDPOINTS.get().add(2);
        Ok(())
    }

    /// Splices every direction in `ready_dirs` (source-slot tokens), one
    /// io_uring enter per ring-sized batch, and applies each completion:
    /// EOF half-closes, a short count is done, `EAGAIN` parks on a full
    /// destination, an error tears the pair down, and a full chunk queues
    /// the direction for the next enter. See the module's "Readiness"
    /// section.
    fn forward(&self, mut ready_dirs: Vec<u64>) -> SysResult<usize> {
        // A direction can be made ready twice in one wait (its
        // destination's writability unparked it, then its source's
        // hangup reported it): submit it once. Order within a batch is
        // free, since no two directions share a destination.
        ready_dirs.sort_unstable();
        ready_dirs.dedup();
        let mut queue = VecDeque::from(ready_dirs);
        let mut moved = 0;
        while !queue.is_empty() {
            let batch: Vec<u64> = queue.drain(..queue.len().min(WAIT_BUDGET)).collect();
            // Each SQE's source and destination, for the directions still
            // open and unparked.
            let (tokens, sqes): (Vec<u64>, Vec<Sqe>) = {
                let st = self.state.lock();
                batch
                    .into_iter()
                    .filter_map(|token| {
                        let idx = st.resolve(token)?;
                        let Some(Endpoint::Conn {
                            fd,
                            peer,
                            out_open: true,
                            parked: false,
                            ..
                        }) = &st.slots[idx].ep
                        else {
                            return None;
                        };
                        let sqe = Sqe::Splice {
                            fd_in: *fd,
                            fd_out: st.slots[*peer].ep.as_ref()?.fd(),
                            len: SPLICE_CHUNK,
                        };
                        Some((token, sqe))
                    })
                    .unzip()
            };
            if sqes.is_empty() {
                continue;
            }
            // The submission is a system call: no plane lock may be held
            // across it.
            lockdep::assert_no_locks_held_except(&[]);
            OBS_SUBMISSIONS.inc();
            OBS_SQES_PER_SUBMISSION.record(sqes.len() as u64);
            OBS_SPLICES.add(sqes.len() as u64);
            let done = self.kernel.io_uring_enter(self.pid, self.ring, &sqes)?;
            for ((token, sqe), result) in tokens.into_iter().zip(sqes).zip(done) {
                // A pair torn down by an earlier completion of this batch
                // has a new generation: its peer's completion is ignored.
                let Some(idx) = self.state.lock().resolve(token) else {
                    continue;
                };
                let Sqe::Splice { fd_in, .. } = sqe;
                match result {
                    Ok(0) => {
                        // A state transition is progress: `pump_until_quiet`
                        // must keep polling while endpoints beyond this
                        // wait's budget still have EOFs to propagate.
                        self.half_close(idx);
                        moved += 1;
                    }
                    Ok(n) => {
                        moved += n;
                        OBS_BYTES.add(n as u64);
                        // A short splice emptied the source (or filled the
                        // destination, which pushed the rest back): the
                        // next wait reports whatever is left. A full chunk
                        // may have left more behind it.
                        if n == SPLICE_CHUNK {
                            queue.push_back(token);
                        }
                    }
                    Err(Errno::EAGAIN) => {
                        // Distinguish a drained source from a full
                        // destination: only the latter parks.
                        if self.kernel.poll_fd(self.pid, fd_in)?.readable {
                            self.park(idx)?;
                        }
                    }
                    Err(_) => {
                        // Connection error (e.g. reset): drop the pair —
                        // also progress, as above.
                        self.teardown_pair(idx);
                        moved += 1;
                    }
                }
            }
        }
        Ok(moved)
    }

    /// Parks `idx`'s forward direction: its source leaves the read set
    /// and its destination is armed for writability.
    fn park(&self, idx: usize) -> SysResult<()> {
        let mods = {
            let mut st = self.state.lock();
            let peer = match st.slots.get_mut(idx).and_then(|s| s.ep.as_mut()) {
                Some(Endpoint::Conn { parked, peer, .. }) => {
                    if *parked {
                        return Ok(());
                    }
                    *parked = true;
                    *peer
                }
                _ => return Ok(()),
            };
            [
                (st.token(idx), st.conn_interest(idx)),
                (st.token(peer), st.conn_interest(peer)),
            ]
        };
        OBS_PARKED.inc();
        for (tok, interest) in mods {
            self.kernel.epoll_mod(self.pid, self.epfd, tok, interest)?;
        }
        Ok(())
    }

    /// Unparks the direction reading from slot `idx` (its destination
    /// became writable). Returns the slot's token if it was parked: the
    /// caller submits the direction with the rest of the wait's.
    fn unpark(&self, idx: usize) -> SysResult<Option<u64>> {
        let mods = {
            let mut st = self.state.lock();
            let peer = match st.slots.get_mut(idx).and_then(|s| s.ep.as_mut()) {
                Some(Endpoint::Conn { parked, peer, .. }) => {
                    if !*parked {
                        return Ok(None);
                    }
                    *parked = false;
                    *peer
                }
                _ => return Ok(None),
            };
            [
                (st.token(idx), st.conn_interest(idx)),
                (st.token(peer), st.conn_interest(peer)),
            ]
        };
        OBS_PARKED.dec();
        for (tok, interest) in mods {
            self.kernel.epoll_mod(self.pid, self.epfd, tok, interest)?;
        }
        Ok(Some(mods[0].0))
    }

    /// EOF on `idx`'s source: shuts down the forward direction only.
    /// The pair is torn down once *both* directions have drained.
    fn half_close(&self, idx: usize) {
        let (dst_fd, both_closed, my_token, my_interest) = {
            let mut st = self.state.lock();
            let peer = match st.slots.get_mut(idx).and_then(|s| s.ep.as_mut()) {
                Some(Endpoint::Conn { out_open, peer, .. }) => {
                    if !*out_open {
                        return;
                    }
                    *out_open = false;
                    *peer
                }
                _ => return,
            };
            let (dst_fd, peer_open) = match &st.slots[peer].ep {
                Some(Endpoint::Conn { fd, out_open, .. }) => (*fd, *out_open),
                Some(other) => (other.fd(), false),
                None => return,
            };
            (dst_fd, !peer_open, st.token(idx), st.conn_interest(idx))
        };
        OBS_HALF_CLOSES.inc();
        // Propagate EOF: the upstream peer drains in-flight bytes and
        // then reads end-of-stream, exactly like shutdown(SHUT_WR).
        let _ = self.kernel.shutdown_write(self.pid, dst_fd);
        if both_closed {
            self.teardown_pair(idx);
        } else {
            let _ = self
                .kernel
                .epoll_mod(self.pid, self.epfd, my_token, my_interest);
        }
    }

    /// Removes a pair from the interest set, closes both fds, and frees
    /// both slots.
    fn teardown_pair(&self, idx: usize) {
        let removed: Vec<(u64, Endpoint)> = {
            let mut st = self.state.lock();
            let peer = match st.slots.get(idx).and_then(|s| s.ep.as_ref()) {
                Some(Endpoint::Conn { peer, .. }) => *peer,
                _ => return,
            };
            [idx, peer]
                .into_iter()
                .filter_map(|i| {
                    let tok = st.token(i);
                    st.release(i).map(|ep| (tok, ep))
                })
                .collect()
        };
        let mut proxy = None;
        for (tok, ep) in removed {
            let _ = self.kernel.epoll_del(self.pid, self.epfd, tok);
            let _ = self.kernel.close(self.pid, ep.fd());
            OBS_ENDPOINTS.dec();
            if let Endpoint::Conn {
                parked, proxy: p, ..
            } = ep
            {
                if parked {
                    OBS_PARKED.dec();
                }
                proxy = Some(p);
            }
        }
        if let Some(p) = proxy {
            p.live.fetch_sub(1, Ordering::Relaxed);
            OBS_LIVE.dec();
        }
    }

    /// Drops a single endpoint (listener hangup path).
    fn drop_endpoint(&self, idx: usize) {
        let removed = {
            let mut st = self.state.lock();
            let tok = st.token(idx);
            st.release(idx).map(|ep| (tok, ep))
        };
        if let Some((tok, ep)) = removed {
            let _ = self.kernel.epoll_del(self.pid, self.epfd, tok);
            let _ = self.kernel.close(self.pid, ep.fd());
            OBS_ENDPOINTS.dec();
        }
    }

    // ------------------------------------------------------------------
    // Pty endpoints.
    // ------------------------------------------------------------------

    /// Registers a session's pty with the loop: user input wakes the
    /// shell, and shell output that overruns the output pipe parks
    /// until the user-side reader drains it.
    pub(crate) fn register_pty(&self, pty: &Arc<Pty>, shell: &Arc<Shell>) -> SysResult<PtyHandles> {
        let in_fd = self.kernel.adopt_pipe(self.pid, pty.input_pipe(), false)?;
        let out_fd = self.kernel.adopt_pipe(self.pid, pty.output_pipe(), true)?;
        let (in_token, out_token) = {
            let mut st = self.state.lock();
            let in_idx = st.alloc();
            let out_idx = st.alloc();
            st.slots[in_idx].ep = Some(Endpoint::PtyIn {
                fd: in_fd,
                out_slot: out_idx,
                shell: Arc::clone(shell),
                pty: Arc::clone(pty),
                pending: Vec::new(),
            });
            st.slots[out_idx].ep = Some(Endpoint::PtyOut {
                fd: out_fd,
                in_slot: in_idx,
            });
            (st.token(in_idx), st.token(out_idx))
        };
        self.kernel
            .epoll_add(self.pid, self.epfd, in_fd, in_token, Events::IN)?;
        self.kernel
            .epoll_add(self.pid, self.epfd, out_fd, out_token, Events::default())?;
        OBS_ENDPOINTS.get().add(2);
        Ok(PtyHandles {
            in_token,
            out_token,
        })
    }

    /// Deregisters a pty pair registered with [`register_pty`].
    ///
    /// [`register_pty`]: EventLoop::register_pty
    pub(crate) fn remove_pty(&self, handles: PtyHandles) {
        for tok in [handles.in_token, handles.out_token] {
            let removed = {
                let mut st = self.state.lock();
                st.resolve(tok).and_then(|i| st.release(i))
            };
            if let Some(ep) = removed {
                let _ = self.kernel.epoll_del(self.pid, self.epfd, tok);
                let _ = self.kernel.close(self.pid, ep.fd());
                OBS_ENDPOINTS.dec();
            }
        }
    }

    /// Reads complete lines from the pty, runs them through the shell,
    /// and writes the output back. A full output pipe parks the
    /// session: input interest is masked and the out endpoint armed for
    /// writability, so a stalled reader stalls only its own session.
    fn drive_shell(&self, idx: usize) -> SysResult<usize> {
        let (shell, pty) = {
            let st = self.state.lock();
            match st.slots.get(idx).and_then(|s| s.ep.as_ref()) {
                Some(Endpoint::PtyIn {
                    shell,
                    pty,
                    pending,
                    ..
                }) if pending.is_empty() => (Arc::clone(shell), Arc::clone(pty)),
                _ => return Ok(0),
            }
        };
        let mut moved = 0;
        while let Ok(Some(line)) = pty.shell_read_line() {
            let out = shell.run(&line);
            let written = match pty.shell_write_raw(out.as_bytes()) {
                Ok(n) => n,
                // The user side hung up: discard output, keep draining
                // input so the shell can observe the EOF.
                Err(_) => continue,
            };
            moved += written;
            if written < out.len() {
                self.park_pty(idx, out.as_bytes()[written..].to_vec())?;
                break;
            }
        }
        Ok(moved)
    }

    /// Parks a pty session on its stalled reader.
    fn park_pty(&self, idx: usize, tail: Vec<u8>) -> SysResult<()> {
        let mods = {
            let mut st = self.state.lock();
            match st.slots.get_mut(idx).and_then(|s| s.ep.as_mut()) {
                Some(Endpoint::PtyIn {
                    pending, out_slot, ..
                }) => {
                    *pending = tail;
                    let out_slot = *out_slot;
                    [
                        (st.token(idx), Events::default()),
                        (st.token(out_slot), Events::OUT),
                    ]
                }
                _ => return Ok(()),
            }
        };
        OBS_PTY_PARKS.inc();
        for (tok, interest) in mods {
            self.kernel.epoll_mod(self.pid, self.epfd, tok, interest)?;
        }
        Ok(())
    }

    /// The user-side reader drained the output pipe: flush the pending
    /// tail and, once it fits, resume reading input.
    fn flush_pty(&self, idx: usize) -> SysResult<usize> {
        let (pty, tail, out_slot) = {
            let mut st = self.state.lock();
            match st.slots.get_mut(idx).and_then(|s| s.ep.as_mut()) {
                Some(Endpoint::PtyIn {
                    pty,
                    pending,
                    out_slot,
                    ..
                }) => (Arc::clone(pty), std::mem::take(pending), *out_slot),
                _ => return Ok(0),
            }
        };
        if tail.is_empty() {
            return Ok(0);
        }
        let written = pty.shell_write_raw(&tail).unwrap_or(tail.len());
        if written < tail.len() {
            // Still stalled: put the rest back and stay parked.
            let mut st = self.state.lock();
            if let Some(Endpoint::PtyIn { pending, .. }) =
                st.slots.get_mut(idx).and_then(|s| s.ep.as_mut())
            {
                *pending = tail[written..].to_vec();
            }
            return Ok(written);
        }
        // Fully flushed: re-arm input, disarm the out endpoint, and
        // pick up any input lines that queued while parked.
        let mods = {
            let st = self.state.lock();
            [
                (st.token(idx), Events::IN),
                (st.token(out_slot), Events::default()),
            ]
        };
        for (tok, interest) in mods {
            self.kernel.epoll_mod(self.pid, self.epfd, tok, interest)?;
        }
        Ok(written + self.drive_shell(idx)?)
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        let _ = self.kernel.exit(self.pid);
        let _ = self.kernel.reap(self.pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SocketProxy;
    use cntr_engine::runtime::boot_host;
    use cntr_types::{SimClock, COST};

    /// A proxy on its own plane from `/run/in.sock` to a service listening on
    /// `/run/svc.sock`: returns the proxy, the service's listener fd and
    /// an application process to connect from.
    fn proxy_to_service(k: &Kernel) -> (Arc<SocketProxy>, u32, Pid) {
        let srv = k.bind_listener(Pid::INIT, "/run/svc.sock").unwrap();
        let connect_pid = k.fork(Pid::INIT).unwrap();
        let plane = EventLoop::new(k.clone()).unwrap();
        let proxy = SocketProxy::on_plane(
            &plane,
            plane.pid(),
            connect_pid,
            "/run/in.sock",
            "/run/svc.sock",
        )
        .unwrap();
        (proxy, srv, k.fork(Pid::INIT).unwrap())
    }

    /// Connects through the proxy and accepts as the service: returns
    /// the app's client fd and the service's end.
    fn forwarded_pair(k: &Kernel, proxy: &SocketProxy, srv: u32, app: Pid) -> (u32, u32) {
        let c = k.connect(app, "/run/in.sock").unwrap();
        proxy.pump_until_quiet().unwrap();
        (c, k.accept(Pid::INIT, srv).unwrap())
    }

    #[test]
    fn forwarded_message_costs_one_splice() {
        let k = boot_host(SimClock::new());
        let (proxy, srv, app) = proxy_to_service(&k);
        let (c, s) = forwarded_pair(&k, &proxy, srv, app);
        let msg = vec![7u8; 4096];
        k.write_fd(app, c, &msg).unwrap();
        let before = k.clock().now();
        assert_eq!(proxy.pump_until_quiet().unwrap(), msg.len());
        // One wait finds the source, one splice moves the message and
        // ends the pump, and a second wait finds nothing.
        let (waits, splices) = (2, 1);
        assert_eq!(
            (k.clock().now() - before).as_nanos(),
            (waits + splices) * COST.syscall_ns + COST.splice(4096)
        );
        let mut buf = vec![0u8; 8192];
        assert_eq!(k.read_fd(Pid::INIT, s, &mut buf), Ok(msg.len()));
        assert_eq!(&buf[..msg.len()], &msg[..]);
    }

    #[test]
    fn message_then_eof_before_any_pump_arrives_whole() {
        let k = boot_host(SimClock::new());
        let (proxy, srv, app) = proxy_to_service(&k);
        // The client connects, writes and half-closes before the plane
        // has even accepted it.
        let c = k.connect(app, "/run/in.sock").unwrap();
        k.write_fd(app, c, b"last words").unwrap();
        k.shutdown_write(app, c).unwrap();
        proxy.pump_until_quiet().unwrap();
        let s = k.accept(Pid::INIT, srv).unwrap();
        let mut buf = [0u8; 32];
        let n = k.read_fd(Pid::INIT, s, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"last words");
        assert_eq!(k.read_fd(Pid::INIT, s, &mut buf), Ok(0), "EOF follows");
        assert_eq!(proxy.connections(), 1, "reverse direction still open");
    }

    #[test]
    fn full_chunk_keeps_the_pump_splicing() {
        let k = boot_host(SimClock::new());
        let (proxy, srv, app) = proxy_to_service(&k);
        let (c, s) = forwarded_pair(&k, &proxy, srv, app);
        let payload: Vec<u8> = (0..SPLICE_CHUNK as u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(k.write_fd(app, c, &payload), Ok(SPLICE_CHUNK));
        let before = k.clock().now();
        assert_eq!(proxy.pump().unwrap(), SPLICE_CHUNK);
        // A full splice does not end the pump: within the one wait a
        // second splice finds the source empty and a poll tells a
        // drained source from a full destination.
        let (waits, splices, polls) = (1, 2, 1);
        assert_eq!(
            (k.clock().now() - before).as_nanos(),
            (waits + splices + polls) * COST.syscall_ns + COST.splice(SPLICE_CHUNK as u64)
        );
        let mut got = Vec::new();
        let mut buf = vec![0u8; SPLICE_CHUNK];
        while let Ok(n) = k.read_fd(Pid::INIT, s, &mut buf) {
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, payload);
    }

    #[test]
    fn n_lane_round_costs_waits_enters_and_page_remaps() {
        let k = boot_host(SimClock::new());
        let (proxy, srv, app) = proxy_to_service(&k);
        // More lanes than one wait reports: the round needs two full
        // waits and a short one, each ready set one enter.
        let lanes = 2 * WAIT_BUDGET + 44;
        let clients: Vec<u32> = (0..lanes)
            .map(|_| k.connect(app, "/run/in.sock").unwrap())
            .collect();
        proxy.pump_until_quiet().unwrap();
        let conns: Vec<u32> = (0..lanes)
            .map(|_| k.accept(Pid::INIT, srv).unwrap())
            .collect();
        let len = |i: usize| 100 + 37 * i;
        for (i, &c) in clients.iter().enumerate() {
            k.write_fd(app, c, &vec![i as u8; len(i)]).unwrap();
        }
        let before = k.clock().now();
        let total: usize = (0..lanes).map(len).sum();
        assert_eq!(proxy.pump_until_quiet().unwrap(), total);
        let enters = lanes.div_ceil(WAIT_BUDGET) as u64;
        // Each ready set is one enter; a last wait finds nothing.
        let waits = enters + 1;
        let remaps: u64 = (0..lanes).map(|i| COST.splice(len(i) as u64)).sum();
        assert_eq!(
            (k.clock().now() - before).as_nanos(),
            (waits + enters) * COST.syscall_ns + remaps
        );
        let mut buf = vec![0u8; 32 * 1024];
        for (i, &s) in conns.iter().enumerate() {
            assert_eq!(k.read_fd(Pid::INIT, s, &mut buf), Ok(len(i)));
            assert!(buf[..len(i)].iter().all(|&b| b == i as u8));
        }
    }

    #[test]
    fn plane_process_starts_with_clean_fd_table() {
        let k = boot_host(SimClock::new());
        // INIT gains some fds the plane must not inherit.
        let (r, w) = k.pipe(Pid::INIT).unwrap();
        let plane = EventLoop::new(k.clone()).unwrap();
        // The inherited pipe fds were close_range'd away in the plane.
        let mut buf = [0u8; 1];
        assert_eq!(k.read_fd(plane.pid(), r, &mut buf), Err(Errno::EBADF));
        assert_eq!(k.write_fd(plane.pid(), w, b"x"), Err(Errno::EBADF));
        // INIT's own ends are untouched.
        k.write_fd(Pid::INIT, w, b"y").unwrap();
        assert_eq!(plane.endpoints(), 0);
        assert_eq!(plane.interest_len().unwrap(), 0);
    }

    #[test]
    fn pty_output_integrity_under_stalled_reader() {
        let k = boot_host(SimClock::new());
        let plane = EventLoop::new(k.clone()).unwrap();
        let pty = Pty::new();
        let shell = Arc::new(Shell::new(k.clone(), Pid::INIT, Arc::clone(&pty)));
        let handles = plane.register_pty(&pty, &shell).unwrap();
        assert_eq!(plane.endpoints(), 2);

        // Echo back ~1.4 MiB through a 1 MiB output pipe whose reader
        // only drains when the input side jams: the loop must park on
        // the full pipe and resume without losing or reordering bytes.
        let payload = "x".repeat(1024);
        let lines = 1400;
        let mut out = String::new();
        for i in 0..lines {
            let line = format!("echo {i}:{payload}");
            loop {
                match pty.user_write_line(&line) {
                    Ok(()) => break,
                    Err(Errno::EAGAIN) => {
                        // Input pipe full: crank the loop and drain the
                        // stalled reader a little.
                        plane.poll_once().unwrap();
                        out.push_str(&pty.user_read_all());
                    }
                    Err(e) => panic!("user_write_line: {e}"),
                }
            }
        }
        loop {
            let moved = plane.poll_once().unwrap();
            let drained = pty.user_read_all();
            out.push_str(&drained);
            if moved == 0 && drained.is_empty() {
                break;
            }
        }
        let got: Vec<&str> = out.lines().collect();
        assert_eq!(got.len(), lines, "every echoed line arrived");
        for (i, line) in got.iter().enumerate() {
            assert_eq!(*line, format!("{i}:{payload}"), "line {i} intact");
        }

        plane.remove_pty(handles);
        assert_eq!(plane.endpoints(), 0);
        assert_eq!(plane.interest_len().unwrap(), 0);
    }

    #[test]
    fn stale_tokens_are_ignored_after_teardown() {
        let k = boot_host(SimClock::new());
        let plane = EventLoop::new(k.clone()).unwrap();
        let pty = Pty::new();
        let shell = Arc::new(Shell::new(k.clone(), Pid::INIT, Arc::clone(&pty)));
        let handles = plane.register_pty(&pty, &shell).unwrap();
        plane.remove_pty(handles);
        // A late event carrying the dead generation must not strike the
        // slot's next occupant.
        let pty2 = Pty::new();
        let shell2 = Arc::new(Shell::new(k.clone(), Pid::INIT, Arc::clone(&pty2)));
        let _handles2 = plane.register_pty(&pty2, &shell2).unwrap();
        let mut ready_dirs = Vec::new();
        assert_eq!(
            plane
                .dispatch(handles.in_token, Events::IN, &mut ready_dirs)
                .unwrap(),
            0
        );
        assert!(ready_dirs.is_empty());
        // Double-removal of the old registration is a no-op.
        plane.remove_pty(handles);
        assert_eq!(plane.endpoints(), 2);
    }
}
