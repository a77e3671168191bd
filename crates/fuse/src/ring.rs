//! FUSE-over-io_uring style ring transport.
//!
//! A classic multithreaded FUSE daemon pays one worker wakeup per
//! request: every request is a queue push, a park on the reply, and a
//! wakeup on the worker — the exact per-request synchronization tax the
//! paper's Figure 4 curve measures. Linux has since amortized this with
//! FUSE-over-io_uring: each server thread owns a fixed-capacity ring and
//! reaps many requests per wakeup. At depth 1 the ring degenerates to
//! that one-wakeup-per-request daemon.
//!
//! [`RingTransport`] reproduces that shape with one lock per ring:
//!
//! * **Per-worker rings** — each worker owns one `Mutex<RingState>`: a
//!   bounded queue of `depth` submissions plus `parked` and `closed`
//!   flags. Submitters round-robin across rings, so two submitters
//!   contend only when they pick the same ring.
//! * **Wakeups only for a parked worker** — a submitter pushes under the
//!   ring lock and unparks the worker only if it found `parked` set. A
//!   busy worker takes the submission on its next reap anyway, so a
//!   wakeup for it would change nothing. A full queue is io_uring's
//!   SQ-full backpressure: the submitter yields until the worker's next
//!   reap empties it.
//! * **Multi-reap** — the worker takes its whole queue in one locked step
//!   and handles the batch; `fuse.ring.reaped-per-wakeup` records how
//!   many requests each wakeup amortized. Each reply lands in its
//!   caller's slot as soon as its handler returns.
//!
//! Wakeups are lossless: the queue and `parked` change only under the
//! ring lock, and an `unpark` that comes before its `park` leaves a token
//! that makes the park return at once. On exit a worker marks its ring
//! `closed` and fails what is still queued under the same lock, so no
//! submission can land after that drain.
//!
//! A handler that panics is a daemon that died: as Linux's
//! `fuse_abort_conn` does, the worker aborts the whole connection. The
//! panicking call and the rest of its batch get `ENOTCONN`, its ring
//! closes at the next reap, and every other worker fails its queue at its
//! own next reap.
//!
//! The transport carries trace ids across the ring (client → transport →
//! handler → storage spans keep attributing), executes worker-re-entrant
//! writeback requests inline (the PR-3 deadlock class), and negotiates
//! via [`InitFlags::ring`](crate::proto::InitFlags::ring) —
//! `cntr_default` on, `paper_legacy` off, same pattern as splice-write.
//!
//! Lock discipline: the ring's two lock classes rank *above* the kernel's
//! groups 0–4 (see [`lock_class`]), so teardown paths that reach the
//! transport while a ranked kernel lock is held stay ascending-legal,
//! and the park/reap points carry the same
//! `lockdep::assert_no_locks_held_except` checkpoints as
//! [`InlineTransport`](crate::conn::InlineTransport).

use crate::config::{self, FuseConfig};
use crate::conn::{ConnSnapshot, ConnStats, ReqGuard, Transport};
use crate::proto::{Opcode, Reply, Request};
use crate::server::FuseHandler;
use cntr_types::Errno;
use obs::trace::{Span, TraceScope};
use obs::{LazyCounter, LazyGauge, LazyHistogram, Subsystem};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};

/// Requests currently sitting in submission rings (pushed, not yet
/// claimed by a worker).
static RING_DEPTH: LazyGauge = LazyGauge::new(Subsystem::Fuse, "fuse.ring.queue-depth");
/// Requests a worker claimed per wakeup (the multi-reap win: 1 means the
/// ring degenerated to one wakeup per request).
static REAPED: LazyHistogram = LazyHistogram::new(Subsystem::Fuse, "fuse.ring.reaped-per-wakeup");
/// Connections aborted because a handler panicked (a dead daemon).
static ABORTS: LazyCounter = LazyCounter::new(Subsystem::Fuse, "fuse.ring.aborts");

/// Connection ids for worker re-entrancy detection (0 = not a worker).
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The connection id this thread serves as a worker, if any.
    static WORKER_OF: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Lock-class names of the ring transport, ranked above the kernel table.
pub mod lock_class {
    /// One ring's queue and its `parked`/`closed` flags — rank 5.
    pub const STATE: &str = "fuse.ring.state";
    /// One call's reply slot — leaf rank 6.
    pub const REPLY_SLOT: &str = "fuse.ring.reply-slot";
}

/// Encodes the ring's lock ordering into the lockdep checker: ring state,
/// then reply slots (the exit drain fills slots under the ring lock), both
/// ranked above the kernel's groups 0–4 so a transport entered under a
/// ranked kernel lock (`kernel.fd_offset` excepted at the checkpoints)
/// still acquires ascending. In particular the page-cache classes (groups
/// 3–4) sit below: background write-back enters the ring with no lock
/// held, while no ring path ever reaches back into the cache. Idempotent;
/// runs on every transport construction.
fn declare_ring_lock_discipline() {
    lockdep::ordering(&[
        // Groups 0–4 belong to the kernel table
        // (`cntr_kernel::table::lock_class`: the subsystem locks in 0–2,
        // the page-cache LRU and flusher classes in 3–4); leave them
        // untouched.
        &[],
        &[],
        &[],
        &[],
        &[],
        &[lock_class::STATE],
        &[lock_class::REPLY_SLOT],
    ]);
}

/// One submission: the request plus everything the worker needs to
/// account and complete it without re-inspecting the request.
struct Sqe {
    req: Request,
    op: Opcode,
    req_bytes: usize,
    /// Submitter's trace id (0 = untraced), carried across the ring.
    trace: u64,
    slot: Arc<Slot>,
}

/// Where one call's reply lands: the caller parks until it is filled.
struct Slot {
    reply: Mutex<Option<Reply>>,
    waiter: Thread,
}

impl Slot {
    /// Stores the reply and wakes the caller. Whoever took the SQE off
    /// the ring (its worker, or the exit drain) delivers exactly once.
    fn deliver(&self, reply: Reply) {
        *self.reply.lock() = Some(reply);
        self.waiter.unpark();
    }

    /// Parks the caller until its reply is delivered. A spurious wakeup,
    /// or a token left over from an earlier call, only re-checks the slot.
    fn wait(&self) -> Reply {
        loop {
            if let Some(reply) = self.reply.lock().take() {
                return reply;
            }
            std::thread::park();
        }
    }
}

/// What one ring's lock guards.
struct RingState {
    /// Submitted, not yet reaped; never longer than the ring's depth.
    queue: VecDeque<Sqe>,
    /// The worker found the queue empty and is (about to be) parked: the
    /// next push must unpark it.
    parked: bool,
    /// The worker has exited: a push would never be served.
    closed: bool,
}

/// One worker's submission ring.
struct Ring {
    state: Mutex<RingState>,
    depth: usize,
}

impl Ring {
    fn new(depth: usize) -> Ring {
        Ring {
            state: Mutex::new_class(
                lock_class::STATE,
                RingState {
                    queue: VecDeque::with_capacity(depth),
                    parked: false,
                    closed: false,
                },
            ),
            depth,
        }
    }

    /// Queues `sqe` for `worker`, waking it if it is parked. A full ring
    /// yields until the worker's next reap; a closed one refuses.
    fn submit(&self, sqe: Sqe, worker: &Thread) -> Result<(), Errno> {
        loop {
            let mut st = self.state.lock();
            if st.closed {
                return Err(Errno::ENOTCONN);
            }
            if st.queue.len() < self.depth {
                st.queue.push_back(sqe);
                RING_DEPTH.inc();
                let wake = std::mem::replace(&mut st.parked, false);
                drop(st);
                if wake {
                    worker.unpark();
                }
                return Ok(());
            }
            // A full queue is never behind a parked worker: the push that
            // found it parked woke it, and it empties the whole queue on
            // its next reap.
            drop(st);
            std::thread::yield_now();
        }
    }

    /// Swaps the whole queue into `batch`, parking while it is empty.
    /// Returns `false` once the connection is dead, after closing the
    /// ring and failing what was still queued with `ENOTCONN`.
    fn reap(&self, alive: &AtomicBool, batch: &mut VecDeque<Sqe>) -> bool {
        loop {
            let mut st = self.state.lock();
            if !alive.load(Ordering::Acquire) {
                st.closed = true;
                for sqe in st.queue.drain(..) {
                    RING_DEPTH.dec();
                    sqe.slot.deliver(Reply::Err(Errno::ENOTCONN));
                }
                return false;
            }
            if !st.queue.is_empty() {
                st.parked = false;
                std::mem::swap(&mut st.queue, batch);
                RING_DEPTH.add(-(batch.len() as i64));
                return true;
            }
            st.parked = true;
            drop(st);
            // Park-point checkpoint: a reaper blocking while holding any
            // lock would stall every request on this ring.
            #[cfg(any(debug_assertions, feature = "lockdep"))]
            lockdep::assert_no_locks_held_except(&[]);
            std::thread::park();
        }
    }
}

/// Worker-pool ring transport: `workers` reaper threads, each owning one
/// ring.
///
/// A request issued *from one of this connection's own workers* (the
/// server's backing I/O tripped page-cache writeback of dirty FUSE pages,
/// re-entering the mount it is itself serving) executes inline on that
/// worker instead of being queued: queueing it behind the very request the
/// worker is handling is the classic FUSE writeback deadlock, which the
/// real kernel likewise refuses to create.
pub struct RingTransport {
    id: u64,
    rings: Vec<Arc<Ring>>,
    next_ring: AtomicUsize,
    /// Handler clone for re-entrant (worker-originated) requests.
    reentrant: Box<dyn Fn(Request) -> Reply + Send + Sync>,
    alive: Arc<AtomicBool>,
    stats: Arc<ConnStats>,
    /// `workers[i]` reaps `rings[i]`.
    workers: Vec<JoinHandle<()>>,
}

impl RingTransport {
    /// Spawns `workers` reaper threads, each with a `depth`-entry ring.
    pub fn new<H: FuseHandler + Clone + 'static>(
        handler: H,
        workers: usize,
        depth: usize,
    ) -> RingTransport {
        declare_ring_lock_discipline();
        // Listed in `/proc/cntrstats` from the first ring on.
        let _ = ABORTS.get();
        let id = NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed);
        let depth = depth.max(1);
        let alive = Arc::new(AtomicBool::new(true));
        let stats = Arc::new(ConnStats::default());
        let mut rings = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..workers.max(1) {
            let ring = Arc::new(Ring::new(depth));
            rings.push(Arc::clone(&ring));
            let handler = handler.clone();
            let alive = Arc::clone(&alive);
            let stats = Arc::clone(&stats);
            handles.push(std::thread::spawn(move || {
                worker_loop(id, &ring, &handler, &alive, &stats)
            }));
        }
        let reentrant_handler = handler;
        RingTransport {
            id,
            rings,
            next_ring: AtomicUsize::new(0),
            reentrant: Box::new(move |req| reentrant_handler.handle(req)),
            alive,
            stats,
            workers: handles,
        }
    }

    /// [`RingTransport::new`] with `fuse`'s worker count and the depth
    /// every mount uses (64).
    pub fn from_config<H: FuseHandler + Clone + 'static>(
        handler: H,
        fuse: &FuseConfig,
    ) -> RingTransport {
        RingTransport::new(handler, fuse.workers, config::RING_DEPTH)
    }

    /// Waits for all workers to finish (after shutdown).
    pub fn join(mut self) {
        self.shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for RingTransport {
    fn drop(&mut self) {
        // Wake parked workers so they observe `!alive` and exit; without
        // this, dropping an un-shutdown transport would leak parked
        // threads.
        self.shutdown();
    }
}

fn worker_loop<H: FuseHandler>(
    conn_id: u64,
    ring: &Ring,
    handler: &H,
    alive: &AtomicBool,
    stats: &ConnStats,
) {
    WORKER_OF.with(|w| w.set(conn_id));
    let mut batch = VecDeque::with_capacity(ring.depth);
    while ring.reap(alive, &mut batch) {
        REAPED.record(batch.len() as u64);
        // Reap-point checkpoint: the handlers below may re-enter the
        // kernel (writeback), so the worker must dispatch lock-free.
        #[cfg(any(debug_assertions, feature = "lockdep"))]
        lockdep::assert_no_locks_held_except(&[]);
        for sqe in batch.drain(..) {
            let Sqe {
                req,
                op,
                req_bytes,
                trace,
                slot,
            } = sqe;
            let reply = if alive.load(Ordering::Acquire) {
                // Adopt the submitter's trace so handler/storage spans
                // land on the right request.
                let _scope = TraceScope::enter(trace);
                let handled = {
                    let _span = Span::start_for(trace, "handler");
                    panic::catch_unwind(AssertUnwindSafe(|| handler.handle(req)))
                };
                match handled {
                    Ok(reply) => {
                        stats.record(op, req_bytes, &reply);
                        reply
                    }
                    Err(_) => {
                        // Abort the connection (see module docs).
                        ABORTS.inc();
                        alive.store(false, Ordering::Release);
                        Reply::Err(Errno::ENOTCONN)
                    }
                }
            } else {
                Reply::Err(Errno::ENOTCONN)
            };
            slot.deliver(reply);
        }
    }
}

impl Transport for RingTransport {
    fn call(&self, req: Request) -> Reply {
        // Blocking-context checkpoint: this path parks on the reply slot
        // (or runs the handler inline), so entering with a lock held that
        // a re-entrant path could need is the PR-3 writeback deadlock
        // class. `kernel.fd_offset` is exempt — see
        // `InlineTransport::call`.
        #[cfg(any(debug_assertions, feature = "lockdep"))]
        lockdep::assert_no_locks_held_except(&["kernel.fd_offset"]);
        if !self.alive.load(Ordering::Acquire) {
            return Reply::Err(Errno::ENOTCONN);
        }
        let (op, req_bytes) = (req.opcode(), req.wire_bytes());
        let _req_guard = ReqGuard::begin(op);
        if WORKER_OF.with(std::cell::Cell::get) == self.id {
            // Re-entrant request from one of our own reapers: execute it
            // on this thread rather than deadlocking the ring (see type
            // docs).
            let reply = {
                let _span = Span::start("handler");
                (self.reentrant)(req)
            };
            self.stats.record(op, req_bytes, &reply);
            return reply;
        }
        // The transport span covers push + queue wait + park + wake.
        let _span = Span::start("transport");
        let slot = Arc::new(Slot {
            reply: Mutex::new_class(lock_class::REPLY_SLOT, None),
            waiter: std::thread::current(),
        });
        let sqe = Sqe {
            req,
            op,
            req_bytes,
            trace: obs::trace::current_trace(),
            slot: Arc::clone(&slot),
        };
        let i = self.next_ring.fetch_add(1, Ordering::Relaxed) % self.rings.len();
        match self.rings[i].submit(sqe, self.workers[i].thread()) {
            Ok(()) => slot.wait(),
            Err(e) => Reply::Err(e),
        }
    }

    fn shutdown(&self) {
        // Release pairs with the Acquire loads in `Ring::reap` and `call`.
        self.alive.store(false, Ordering::Release);
        // A worker reads `alive` under its ring lock before it parks; this
        // unpark either wakes it or leaves the token its park returns on.
        for w in &self.workers {
            w.thread().unpark();
        }
    }

    fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    fn stats(&self) -> ConnSnapshot {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::RequestCtx;
    use cntr_types::Ino;

    #[derive(Clone)]
    struct EchoHandler;

    impl FuseHandler for EchoHandler {
        fn handle(&self, req: Request) -> Reply {
            match req {
                Request::Getattr { .. } => Reply::Err(Errno::ENOENT),
                Request::Readlink { .. } => Reply::Target("echo".into()),
                _ => Reply::Ok,
            }
        }
    }

    fn lookup() -> Request {
        Request::Lookup {
            parent: Ino::ROOT,
            name: "x".into(),
            ctx: RequestCtx::default(),
        }
    }

    #[test]
    fn ring_round_trip_and_stats() {
        let t = RingTransport::new(EchoHandler, 2, 8);
        assert!(matches!(t.call(lookup()), Reply::Ok));
        assert!(matches!(
            t.call(Request::Getattr { ino: Ino(5) }),
            Reply::Err(Errno::ENOENT)
        ));
        let s = t.stats();
        assert_eq!(s.lookups, 1);
        assert_eq!(s.getattrs, 1);
        assert_eq!(s.total(), 2);
        assert!(s.bytes_in > 0);
        t.join();
    }

    #[test]
    fn ring_shutdown_yields_enotconn() {
        let t = RingTransport::new(EchoHandler, 1, 4);
        t.shutdown();
        assert!(!t.is_alive());
        assert!(matches!(t.call(lookup()), Reply::Err(Errno::ENOTCONN)));
        t.join();
    }

    #[test]
    fn ring_serves_concurrently_from_many_submitters() {
        let t = Arc::new(RingTransport::new(EchoHandler, 4, 16));
        let mut joins = Vec::new();
        for _ in 0..8 {
            let t = Arc::clone(&t);
            joins.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    assert!(matches!(t.call(lookup()), Reply::Ok));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(t.stats().lookups, 800);
        t.shutdown();
    }

    /// A single ring of depth 1 forces the sq-full backpressure path:
    /// submitters must yield until the reaper frees a slot, and
    /// every request still completes exactly once.
    #[test]
    fn ring_depth_one_backpressure() {
        let t = Arc::new(RingTransport::new(EchoHandler, 1, 1));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let t = Arc::clone(&t);
            joins.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    assert!(matches!(t.call(lookup()), Reply::Ok));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(t.stats().lookups, 200);
        t.shutdown();
    }

    /// Entering the ring with a lock held is the PR-3 writeback deadlock
    /// class; the checkpoint must turn it into a deterministic panic that
    /// names the held class, exactly like the other transports.
    #[test]
    #[cfg(any(debug_assertions, feature = "lockdep"))]
    fn ring_call_with_lock_held_panics_at_the_checkpoint() {
        let err = std::thread::spawn(|| {
            let t = RingTransport::new(EchoHandler, 2, 8);
            let guard = parking_lot::Mutex::new_class("fuse.test.outer", ());
            let _held = guard.lock();
            t.call(lookup())
        })
        .join()
        .expect_err("call with a lock held must be rejected");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic carries a message");
        assert!(msg.contains("blocking-context violation"), "{msg}");
        assert!(msg.contains("fuse.test.outer"), "{msg}");
    }

    #[test]
    fn ring_join_after_shutdown_terminates_workers() {
        let t = RingTransport::new(EchoHandler, 3, 8);
        assert_eq!(t.workers.len(), 3);
        for _ in 0..10 {
            assert!(matches!(t.call(lookup()), Reply::Ok));
        }
        t.join();
    }

    /// Panics on GETATTR; a READLINK holds its worker inside the handler
    /// between two waits on `hold` (entered, released).
    #[derive(Clone)]
    struct PanicOnGetattr {
        hold: Arc<std::sync::Barrier>,
    }

    impl FuseHandler for PanicOnGetattr {
        fn handle(&self, req: Request) -> Reply {
            match req {
                Request::Getattr { .. } => panic!("handler panics on GETATTR"),
                Request::Readlink { .. } => {
                    self.hold.wait();
                    self.hold.wait();
                    Reply::Target("held".into())
                }
                _ => Reply::Ok,
            }
        }
    }

    /// Waits until `ring` holds `len` queued submissions.
    fn wait_queued(ring: &Ring, len: usize) {
        while ring.state.lock().queue.len() < len {
            std::thread::yield_now();
        }
    }

    /// A GETATTR whose handler panics while worker 0 holds a READLINK and
    /// a LOOKUP waits in ring 0: on one worker the LOOKUP is queued behind
    /// the GETATTR (the rest of its batch), on two it sits on the other
    /// ring. The GETATTR, the queued LOOKUP and a LOOKUP sent afterwards
    /// all get `ENOTCONN`, and `join` returns.
    fn handler_panic_aborts_the_connection(workers: usize) {
        let hold = Arc::new(std::sync::Barrier::new(2));
        let handler = PanicOnGetattr {
            hold: Arc::clone(&hold),
        };
        let t = Arc::new(RingTransport::new(handler, workers, 8));
        let spawn_call = |req: Request| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || t.call(req))
        };
        // Call 0 lands on ring 0; its worker stays in the handler.
        let held = spawn_call(Request::Readlink { ino: Ino(2) });
        hold.wait();
        let (getattr, queued) = if workers == 1 {
            let getattr = spawn_call(Request::Getattr { ino: Ino(5) });
            wait_queued(&t.rings[0], 1);
            let queued = spawn_call(lookup());
            wait_queued(&t.rings[0], 2);
            hold.wait();
            (getattr.join().unwrap(), queued)
        } else {
            // Call 1 lands on ring 1 and is served at once; call 2 queues
            // on ring 0; call 3, the GETATTR, panics on ring 1.
            assert!(matches!(t.call(lookup()), Reply::Ok));
            let queued = spawn_call(lookup());
            wait_queued(&t.rings[0], 1);
            let getattr = t.call(Request::Getattr { ino: Ino(5) });
            hold.wait();
            (getattr, queued)
        };
        assert!(
            matches!(getattr, Reply::Err(Errno::ENOTCONN)),
            "{getattr:?}"
        );
        let queued = queued.join().unwrap();
        assert!(matches!(queued, Reply::Err(Errno::ENOTCONN)), "{queued:?}");
        assert!(matches!(held.join().unwrap(), Reply::Target(_)));
        assert!(!t.is_alive());
        assert!(matches!(t.call(lookup()), Reply::Err(Errno::ENOTCONN)));
        Arc::try_unwrap(t)
            .ok()
            .expect("every caller has returned")
            .join();
    }

    #[test]
    fn ring_handler_panic_aborts_the_connection() {
        let before = ABORTS.value();
        for workers in [1, 2] {
            let (tx, rx) = std::sync::mpsc::channel();
            let run = std::thread::spawn(move || {
                handler_panic_aborts_the_connection(workers);
                tx.send(()).unwrap();
            });
            let done = rx.recv_timeout(std::time::Duration::from_secs(30));
            assert!(
                !matches!(done, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
                "a caller or join hung after a handler panic ({workers} workers)"
            );
            run.join().unwrap();
        }
        assert!(ABORTS.value() - before >= 2);
    }

    /// Shutdown racing live submitters: in each round, eight threads
    /// call a 2-worker ring while a ninth shuts it down after a
    /// round-dependent number of yields. Every call returns `Ok` (it was
    /// handled) or `ENOTCONN`, never `Ok` after an `ENOTCONN`; the `Ok`s
    /// are exactly the handled lookups; and `join` returns. A watchdog
    /// turns a lost wakeup into a failure instead of a hung suite.
    #[test]
    fn ring_shutdown_races_live_submitters() {
        let (tx, rx) = std::sync::mpsc::channel();
        let rounds = std::thread::spawn(move || {
            for round in 0..200u64 {
                let t = Arc::new(RingTransport::new(EchoHandler, 2, 4));
                let submitters: Vec<_> = (0..8)
                    .map(|_| {
                        let t = Arc::clone(&t);
                        std::thread::spawn(move || {
                            let mut ok = 0u64;
                            let mut refused = false;
                            for _ in 0..32 {
                                match t.call(lookup()) {
                                    Reply::Ok => {
                                        assert!(!refused, "Ok after ENOTCONN");
                                        ok += 1;
                                    }
                                    Reply::Err(Errno::ENOTCONN) => refused = true,
                                    other => panic!("unexpected reply {other:?}"),
                                }
                            }
                            ok
                        })
                    })
                    .collect();
                let killer = {
                    let t = Arc::clone(&t);
                    // Spread the shutdown over the submitters' lifetime.
                    let delay = round.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57;
                    std::thread::spawn(move || {
                        for _ in 0..delay {
                            std::thread::yield_now();
                        }
                        t.shutdown();
                    })
                };
                let ok: u64 = submitters.into_iter().map(|s| s.join().unwrap()).sum();
                killer.join().unwrap();
                assert_eq!(ok, t.stats().lookups, "round {round}");
                Arc::try_unwrap(t)
                    .ok()
                    .expect("every submitter has returned")
                    .join();
            }
            tx.send(()).unwrap();
        });
        let done = rx.recv_timeout(std::time::Duration::from_secs(120));
        assert!(
            !matches!(done, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
            "a call or join hung while shutdown raced the submitters"
        );
        rounds.join().unwrap();
    }
}
