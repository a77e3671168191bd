//! FUSE-over-io_uring style ring transport.
//!
//! A classic multithreaded FUSE daemon pays one worker wakeup per
//! request: every request is a queue push, a park on the reply, and a
//! wakeup on the worker — the exact per-request synchronization tax the
//! paper's Figure 4 curve measures. Linux has since amortized this with
//! FUSE-over-io_uring: userspace and the kernel share fixed-capacity
//! submission/completion rings, the client batches submissions behind a
//! doorbell, and the server reaps many completions per wakeup. At depth 1
//! / batch 1 the ring degenerates to that one-wakeup-per-request daemon.
//!
//! [`RingTransport`] reproduces that shape:
//!
//! * **Per-worker SQ/CQ pairs** — each worker owns one
//!   [`crossbeam::queue::ArrayQueue`] pair (lock-free bounded MPMC);
//!   submitters round-robin across rings, so there is no shared queue
//!   lock on the hot path at all.
//! * **Batched submission with adaptive flush** — a submission bumps a
//!   lock-free batch counter and only rings the doorbell (worker unpark)
//!   when the batch fills (`RING_BATCH` on a mount), the worker
//!   advertises queue-idle (waiting costs more than a wakeup saves), or
//!   the op is a sync boundary (FSYNC/FLUSH/INIT/DESTROY must not sit in
//!   a queue). The submit fast path takes no lock at all.
//! * **Multi-reap completions** — the worker drains its SQ fully per
//!   wakeup, handles the whole batch, and delivers the completions in one
//!   CQ sweep; `fuse.ring.reaped-per-wakeup` records how many requests
//!   each wakeup amortized.
//!
//! The transport carries trace ids across the ring (client → transport →
//! handler → storage spans keep attributing), executes worker-re-entrant
//! writeback requests inline (the PR-3 deadlock class), and negotiates
//! via [`InitFlags::ring`](crate::proto::InitFlags::ring) —
//! `cntr_default` on, `paper_legacy` off, same pattern as splice-write.
//!
//! Lock discipline: the ring's three lock classes rank *above* the
//! kernel's groups 0–4 (see [`lock_class`]), so teardown paths that reach
//! the transport while a ranked kernel lock is held stay
//! ascending-legal, and the park/reap points carry the same
//! `lockdep::assert_no_locks_held_except` checkpoints as
//! [`InlineTransport`](crate::conn::InlineTransport).

use crate::config::{self, FuseConfig};
use crate::conn::{ConnSnapshot, ConnStats, ReqGuard, Transport};
use crate::proto::{Opcode, Reply, Request};
use crate::server::FuseHandler;
use cntr_types::Errno;
use crossbeam::queue::ArrayQueue;
use obs::trace::{Span, TraceScope};
use obs::{LazyGauge, LazyHistogram, Subsystem};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Submissions amortized per doorbell (how full the batch was when the
/// worker got woken).
static SUBMIT_BATCH: LazyHistogram =
    LazyHistogram::new(Subsystem::Fuse, "fuse.ring.submit-batch-size");
/// Requests currently sitting in submission rings (pushed, not yet
/// claimed by a worker).
static RING_DEPTH: LazyGauge = LazyGauge::new(Subsystem::Fuse, "fuse.ring.queue-depth");
/// Requests a worker claimed per wakeup (the multi-reap win: 1 means the
/// ring degenerated to one wakeup per request).
static REAPED: LazyHistogram = LazyHistogram::new(Subsystem::Fuse, "fuse.ring.reaped-per-wakeup");

/// Connection ids for worker re-entrancy detection (0 = not a worker).
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The connection id this thread serves as a worker, if any.
    static WORKER_OF: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Lock-class names of the ring transport, ranked above the kernel table.
/// The submit fast path is lock-free; these cover the slow paths where a
/// lock still earns its keep.
pub mod lock_class {
    /// SQ teardown state: serializes shutdown drains
    /// (`Ring::fail_pending`) — rank 5.
    pub const SQ_STATE: &str = "fuse.ring.sq-state";
    /// The reaper parking lot (worker thread handle) — rank 6.
    pub const PARK_LOT: &str = "fuse.ring.park-lot";
    /// One completion slot's reply cell — leaf rank 7.
    pub const CQ_SLOT: &str = "fuse.ring.cq-slot";
}

/// Encodes the ring's lock ordering into the lockdep checker: SQ teardown
/// state, then the parking lot, then completion slots, all ranked above
/// the kernel's groups 0–4 so a transport entered under a ranked kernel
/// lock (`kernel.fd_offset` excepted at the checkpoints) still acquires
/// ascending. In particular the page-cache classes (groups 3–4) sit
/// below: background write-back enters the ring with no lock held, while
/// no ring path ever reaches back into the cache. Idempotent; runs on
/// every transport construction.
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
        &[lock_class::SQ_STATE],
        &[lock_class::PARK_LOT],
        &[lock_class::CQ_SLOT],
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

/// One completion, parked in the CQ until the delivery sweep.
struct Cqe {
    slot: Arc<Slot>,
    reply: Reply,
}

/// Where a completion lands: the submitting thread parks on `done` and
/// takes the reply out once it flips.
struct Slot {
    reply: Mutex<Option<Reply>>,
    done: AtomicBool,
    waiter: std::thread::Thread,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            reply: Mutex::new_class(lock_class::CQ_SLOT, None),
            done: AtomicBool::new(false),
            waiter: std::thread::current(),
        })
    }

    /// This thread's slot, reused across calls: `call` waits every
    /// request to completion before returning, so a submitter has at
    /// most one live slot use at a time and the allocation amortizes to
    /// zero. The `done` reset is published to the worker by the SQ
    /// push's release ordering.
    fn for_current_thread() -> Arc<Slot> {
        thread_local! {
            static SLOT: std::cell::RefCell<Option<Arc<Slot>>> =
                const { std::cell::RefCell::new(None) };
        }
        SLOT.with(|s| {
            let mut s = s.borrow_mut();
            match &*s {
                Some(slot) => {
                    slot.done.store(false, Ordering::Relaxed);
                    Arc::clone(slot)
                }
                None => {
                    let slot = Slot::new();
                    *s = Some(Arc::clone(&slot));
                    slot
                }
            }
        })
    }
}

/// Stores the reply, publishes `done`, and wakes the submitter. The only
/// writer of a slot is whoever popped its SQE off the ring (worker, or a
/// submitter self-healing after shutdown), so this runs exactly once.
fn deliver(slot: &Slot, reply: Reply) {
    *slot.reply.lock() = Some(reply);
    slot.done.store(true, Ordering::Release);
    slot.waiter.unpark();
}

struct ParkState {
    /// The worker's thread handle, for doorbells.
    worker: Option<std::thread::Thread>,
}

/// One worker's submission/completion ring pair.
struct Ring {
    sq: ArrayQueue<Sqe>,
    cq: ArrayQueue<Cqe>,
    /// Submissions since the last doorbell — the lock-free batch counter
    /// behind the adaptive flush.
    unflushed: AtomicUsize,
    /// The worker's queue-idle advertisement: set (SeqCst) before its
    /// final pre-park empty check, cleared after the park returns. A
    /// submitter reads it *after* pushing (SeqCst fence in between), so
    /// either the worker's empty check sees the new SQE, or the
    /// submitter sees `idle` and rings the doorbell — and an early
    /// doorbell is never lost, because an unpark token makes the
    /// worker's next park return immediately.
    idle: AtomicBool,
    /// Serializes shutdown drains (`fail_pending`): worker exit and
    /// self-healing submitters may race there, and interleaved drain
    /// sweeps would double-walk the CQ for no benefit.
    drain: Mutex<()>,
    park: Mutex<ParkState>,
}

impl Ring {
    fn new(depth: usize) -> Ring {
        Ring {
            sq: ArrayQueue::new(depth),
            cq: ArrayQueue::new(depth),
            unflushed: AtomicUsize::new(0),
            idle: AtomicBool::new(false),
            drain: Mutex::new_class(lock_class::SQ_STATE, ()),
            park: Mutex::new_class(lock_class::PARK_LOT, ParkState { worker: None }),
        }
    }

    /// Wakes the worker regardless of its parked state (an unpark token
    /// is never lost: if the worker is mid-batch, its next park returns
    /// immediately and it re-drains).
    fn doorbell(&self) {
        if let Some(t) = &self.park.lock().worker {
            t.unpark();
        }
    }

    /// Delivers everything in the CQ — the multi-reap sweep.
    fn sweep_cq(&self) {
        while let Some(cqe) = self.cq.pop() {
            deliver(&cqe.slot, cqe.reply);
        }
    }

    /// Parks a completion in the CQ; on a full CQ, sweeps and retries
    /// (the CQ has SQ capacity, so one sweep always makes room).
    fn complete(&self, slot: Arc<Slot>, reply: Reply) {
        let mut cqe = Cqe { slot, reply };
        while let Err(back) = self.cq.push(cqe) {
            cqe = back;
            self.sweep_cq();
        }
    }

    /// Fails every queued submission with `ENOTCONN` (shutdown
    /// self-healing: runs on worker exit, and from any submitter that
    /// observes the connection dead while waiting — so a push that raced
    /// past a worker's exit drain still completes).
    fn fail_pending(&self) {
        let _drain = self.drain.lock();
        while let Some(sqe) = self.sq.pop() {
            RING_DEPTH.dec();
            deliver(&sqe.slot, Reply::Err(Errno::ENOTCONN));
        }
        self.sweep_cq();
    }
}

/// Ops that must not sit unflushed in a submission queue: durability and
/// lifecycle boundaries flush the batch immediately.
fn is_sync_op(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::Fsync | Opcode::Flush | Opcode::Init | Opcode::Destroy
    )
}

/// Shared SQ/CQ ring transport: `workers` reaper threads, each owning one
/// ring pair; submitters batch behind per-ring doorbells.
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
    ring_batch: usize,
    /// Handler clone for re-entrant (worker-originated) requests.
    reentrant: Box<dyn Fn(Request) -> Reply + Send + Sync>,
    alive: Arc<AtomicBool>,
    stats: Arc<ConnStats>,
    workers: Vec<JoinHandle<()>>,
}

impl RingTransport {
    /// Spawns `workers` reaper threads, each with a `depth`-entry SQ/CQ
    /// pair, flushing submission batches of up to `batch`.
    pub fn new<H: FuseHandler + Clone + 'static>(
        handler: H,
        workers: usize,
        depth: usize,
        batch: usize,
    ) -> RingTransport {
        declare_ring_lock_discipline();
        let id = NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed);
        let depth = depth.max(1);
        let batch = batch.clamp(1, depth);
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
            ring_batch: batch,
            reentrant: Box::new(move |req| reentrant_handler.handle(req)),
            alive,
            stats,
            workers: handles,
        }
    }

    /// [`RingTransport::new`] with `fuse`'s worker count and the depth and
    /// batch every mount uses (64/8).
    pub fn from_config<H: FuseHandler + Clone + 'static>(
        handler: H,
        fuse: &FuseConfig,
    ) -> RingTransport {
        RingTransport::new(
            handler,
            fuse.workers,
            config::RING_DEPTH,
            config::RING_BATCH,
        )
    }

    /// Number of worker (reaper) threads, each owning one ring pair.
    pub fn worker_count(&self) -> usize {
        self.rings.len()
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
        // threads until their park timeout.
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
    ring.park.lock().worker = Some(std::thread::current());
    let mut idle_rounds = 0u32;
    loop {
        // Reap: claim the whole SQ in one pass.
        let mut batch = Vec::new();
        while let Some(sqe) = ring.sq.pop() {
            RING_DEPTH.dec();
            batch.push(sqe);
        }
        if batch.is_empty() {
            if !alive.load(Ordering::SeqCst) {
                break;
            }
            // Briefly poll before parking: under load the next batch is
            // usually already in flight, and a park/unpark round trip
            // costs more than the spin. Kept short — on a single-CPU box
            // a spinning reaper only delays the submitters it feeds.
            idle_rounds += 1;
            if idle_rounds < 16 {
                std::hint::spin_loop();
                continue;
            }
            // Queue-idle: advertise `idle`, then re-check the SQ. The
            // park is untimed — a timed park arms an hrtimer per wait,
            // which costs more than the entire rest of the hot path —
            // so wakeups must be provably lossless: the SeqCst fence
            // pairs with the submitter's push-then-check (see
            // `Ring::idle`), so either the re-check below sees the new
            // SQE, or the submitter sees `idle` and its doorbell leaves
            // an unpark token that makes this park return immediately.
            ring.idle.store(true, Ordering::SeqCst);
            std::sync::atomic::fence(Ordering::SeqCst);
            if ring.sq.is_empty() && alive.load(Ordering::SeqCst) {
                // Park-point checkpoint: a reaper blocking while holding
                // any lock would stall every request on this ring.
                #[cfg(any(debug_assertions, feature = "lockdep"))]
                lockdep::assert_no_locks_held_except(&[]);
                std::thread::park();
            }
            ring.idle.store(false, Ordering::SeqCst);
            continue;
        }
        idle_rounds = 0;
        REAPED.record(batch.len() as u64);
        // Reap-point checkpoint: the handlers below may re-enter the
        // kernel (writeback), so the worker must dispatch lock-free.
        #[cfg(any(debug_assertions, feature = "lockdep"))]
        lockdep::assert_no_locks_held_except(&[]);
        let single = batch.len() == 1;
        for sqe in batch {
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
                let reply = {
                    let _span = Span::start_for(trace, "handler");
                    handler.handle(req)
                };
                stats.record(op, req_bytes, &reply);
                reply
            } else {
                Reply::Err(Errno::ENOTCONN)
            };
            if single {
                // A one-element batch has nothing to sweep together —
                // skip the CQ round trip and deliver in place.
                deliver(&slot, reply);
            } else {
                ring.complete(slot, reply);
            }
        }
        // Deliver the whole batch in one sweep — completions land
        // together, submitters wake together.
        ring.sweep_cq();
    }
    // Shutdown drain: anything still queued (or racing in) fails cleanly.
    // The fence makes this drain catch every push whose submitter read a
    // stale `alive == true` afterwards (its post-push SeqCst fence orders
    // before this one), so no waiter is left parked with an unserved SQE.
    std::sync::atomic::fence(Ordering::SeqCst);
    ring.fail_pending();
    ring.park.lock().worker = None;
}

impl Transport for RingTransport {
    fn call(&self, req: Request) -> Reply {
        // Blocking-context checkpoint: this path parks on the completion
        // slot (or runs the handler inline), so entering with a lock held
        // that a re-entrant path could need is the PR-3 writeback
        // deadlock class. `kernel.fd_offset` is exempt — see
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
        // The transport span covers push + batch wait + park + wake.
        let _span = Span::start("transport");
        let trace = obs::trace::current_trace();
        let ring = &self.rings[self.next_ring.fetch_add(1, Ordering::Relaxed) % self.rings.len()];
        let slot = Slot::for_current_thread();
        let mut sqe = Sqe {
            req,
            op,
            req_bytes,
            trace,
            slot: Arc::clone(&slot),
        };
        // Submit. A full SQ means the worker is behind: ring the doorbell
        // and spin-yield until a slot frees (bounded by ring depth, like
        // io_uring's sq-full backpressure).
        while let Err(back) = ring.sq.push(sqe) {
            sqe = back;
            if !self.alive.load(Ordering::Acquire) {
                return Reply::Err(Errno::ENOTCONN);
            }
            ring.doorbell();
            std::thread::yield_now();
        }
        RING_DEPTH.inc();
        // Adaptive flush, lock-free: ring the doorbell when the batch
        // fills, the op is a sync boundary, or the worker advertises
        // queue-idle (holding the submission back would save nothing —
        // and the untimed worker park *requires* the doorbell then: the
        // fence pairs with the worker's idle-then-recheck sequence, so
        // either the worker's re-check sees this push, or this load sees
        // `idle` and the doorbell's unpark token wakes it; see
        // `Ring::idle`). Every doorbell closes the batch: the counter
        // swap may race another flusher, which only splits one batch
        // across two histogram samples, never loses a request. While the
        // worker is busy reaping, nothing flushes below the batch
        // threshold — submissions pile up and get reaped together.
        std::sync::atomic::fence(Ordering::SeqCst);
        let unflushed = ring.unflushed.fetch_add(1, Ordering::AcqRel) + 1;
        if unflushed >= self.ring_batch || is_sync_op(op) || ring.idle.load(Ordering::SeqCst) {
            let batch = ring.unflushed.swap(0, Ordering::AcqRel);
            if batch > 0 {
                SUBMIT_BATCH.record(batch as u64);
            }
            ring.doorbell();
        }
        // Completion wait: a short spin (a fast handler on another core
        // beats the park round trip), then an *untimed* park — a timed
        // one arms an hrtimer per wait, which dwarfs the rest of the hot
        // path. `deliver` always flips `done` before unparking, so the
        // re-check-then-park loop cannot sleep through a completion. If
        // the connection died, drain the ring ourselves and our own SQE
        // fails with the rest; a submitter that instead reads a stale
        // `alive == true` here is covered by the worker's fence-ordered
        // exit drain (see `worker_loop`), which is guaranteed to see our
        // push and deliver ENOTCONN.
        let mut spins = 0u32;
        while !slot.done.load(Ordering::Acquire) {
            if spins < 16 {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            if !self.alive.load(Ordering::SeqCst) {
                ring.fail_pending();
            }
            std::thread::park();
        }
        let reply = slot.reply.lock().take();
        reply.unwrap_or(Reply::Err(Errno::ENOTCONN))
    }

    fn shutdown(&self) {
        self.alive.store(false, Ordering::SeqCst);
        for ring in &self.rings {
            ring.doorbell();
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
        let t = RingTransport::new(EchoHandler, 2, 8, 4);
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
        let t = RingTransport::new(EchoHandler, 1, 4, 2);
        t.shutdown();
        assert!(!t.is_alive());
        assert!(matches!(t.call(lookup()), Reply::Err(Errno::ENOTCONN)));
        t.join();
    }

    #[test]
    fn ring_serves_concurrently_from_many_submitters() {
        let t = Arc::new(RingTransport::new(EchoHandler, 4, 16, 4));
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
    /// submitters must spin-yield until the reaper frees a slot, and
    /// every request still completes exactly once.
    #[test]
    fn ring_depth_one_backpressure() {
        let t = Arc::new(RingTransport::new(EchoHandler, 1, 1, 1));
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
            let t = RingTransport::new(EchoHandler, 2, 8, 4);
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
        let t = RingTransport::new(EchoHandler, 3, 8, 8);
        assert_eq!(t.worker_count(), 3);
        for _ in 0..10 {
            assert!(matches!(t.call(lookup()), Reply::Ok));
        }
        t.join();
    }
}
