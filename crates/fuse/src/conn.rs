//! The `/dev/fuse` connection: request transport between the kernel half
//! and the userspace server.
//!
//! Two transports share one interface:
//!
//! * [`InlineTransport`] executes the handler on the calling thread. All
//!   timing is charged through the virtual clock by the client and the
//!   handler itself, so experiments are deterministic.
//! * [`RingTransport`](crate::ring::RingTransport) (in [`crate::ring`])
//!   runs real worker threads — the shape of a real FUSE daemon's read
//!   loop ("CNTR spawns independent threads to read from the CNTRFS file
//!   descriptor", §3.3) — fed by per-worker submission/completion ring
//!   pairs with batched doorbells, amortizing wakeups across many
//!   requests the way FUSE-over-io_uring does. Stress tests use it to
//!   shake out synchronization bugs.

use crate::proto::{Opcode, Reply, Request};
use crate::server::FuseHandler;
use cntr_types::Errno;
use obs::trace::Span;
use obs::{LazyCounter, LazyGauge, Subsystem};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

// Global (cross-connection) request accounting, exported via
// `/proc/cntrstats`. Everything here is a relaxed atomic: these fire inside
// the transports' blocking-context checkpoints, where taking a lock is the
// PR-3 writeback deadlock class.
static REQ_STARTED: LazyCounter = LazyCounter::new(Subsystem::Fuse, "fuse.req.started");
static REQ_COMPLETED: LazyCounter = LazyCounter::new(Subsystem::Fuse, "fuse.req.completed");
static QUEUE_DEPTH: LazyGauge = LazyGauge::new(Subsystem::Fuse, "fuse.req.in-flight");

struct OpMetrics {
    count: &'static obs::Counter,
    latency: &'static obs::Histogram,
}

/// Per-opcode metric families (`fuse.op.<name>.count`,
/// `fuse.op.<name>.latency-ns`), indexed by the Linux uapi opcode value
/// and registered on first use of each opcode.
fn op_metrics(op: Opcode) -> &'static OpMetrics {
    static TABLE: [OnceLock<OpMetrics>; 64] = [const { OnceLock::new() }; 64];
    TABLE[op as u32 as usize].get_or_init(|| {
        let name = op.name();
        OpMetrics {
            count: obs::register_counter(Subsystem::Fuse, &format!("fuse.op.{name}.count")),
            latency: obs::register_histogram(
                Subsystem::Fuse,
                &format!("fuse.op.{name}.latency-ns"),
            ),
        }
    })
}

/// RAII accounting for one dispatched request: counts it started, holds the
/// in-flight gauge up for its lifetime, and records the per-opcode
/// round-trip latency on drop (panic-safe, so `started == completed` holds
/// even across handler panics).
pub(crate) struct ReqGuard {
    latency: &'static obs::Histogram,
    start_ns: u64,
}

impl ReqGuard {
    pub(crate) fn begin(op: Opcode) -> ReqGuard {
        REQ_STARTED.inc();
        QUEUE_DEPTH.inc();
        let m = op_metrics(op);
        m.count.inc();
        ReqGuard {
            latency: m.latency,
            start_ns: obs::now_ns(),
        }
    }
}

impl Drop for ReqGuard {
    fn drop(&mut self) {
        self.latency
            .record(obs::now_ns().saturating_sub(self.start_ns));
        QUEUE_DEPTH.dec();
        REQ_COMPLETED.inc();
    }
}

/// Per-opcode request counters of one connection.
#[derive(Debug, Default)]
pub struct ConnStats {
    lookups: AtomicU64,
    getattrs: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    getxattrs: AtomicU64,
    forgets: AtomicU64,
    batch_forgets: AtomicU64,
    others: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

/// Snapshot of [`ConnStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnSnapshot {
    /// LOOKUP requests.
    pub lookups: u64,
    /// GETATTR requests.
    pub getattrs: u64,
    /// READ requests.
    pub reads: u64,
    /// WRITE requests.
    pub writes: u64,
    /// GETXATTR requests.
    pub getxattrs: u64,
    /// Individual FORGET requests.
    pub forgets: u64,
    /// BATCH_FORGET requests.
    pub batch_forgets: u64,
    /// Everything else.
    pub others: u64,
    /// Bytes from kernel to server.
    pub bytes_in: u64,
    /// Bytes from server to kernel.
    pub bytes_out: u64,
}

impl ConnSnapshot {
    /// Total requests.
    pub fn total(&self) -> u64 {
        self.lookups
            + self.getattrs
            + self.reads
            + self.writes
            + self.getxattrs
            + self.forgets
            + self.batch_forgets
            + self.others
    }
}

impl ConnStats {
    /// Records one round trip. Takes the opcode and request wire size
    /// captured *before* dispatch — the hot path hands the `Request`
    /// itself to the handler by value, so transports no longer clone every
    /// request just to inspect it after the reply comes back.
    pub(crate) fn record(&self, op: Opcode, req_bytes: usize, reply: &Reply) {
        let counter = match op {
            Opcode::Lookup => &self.lookups,
            Opcode::Getattr => &self.getattrs,
            Opcode::Read => &self.reads,
            Opcode::Write => &self.writes,
            Opcode::Getxattr => &self.getxattrs,
            Opcode::Forget => &self.forgets,
            Opcode::BatchForget => &self.batch_forgets,
            _ => &self.others,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(req_bytes as u64, Ordering::Relaxed);
        self.bytes_out
            .fetch_add(reply.wire_bytes() as u64, Ordering::Relaxed);
    }

    /// Takes a snapshot.
    pub fn snapshot(&self) -> ConnSnapshot {
        ConnSnapshot {
            lookups: self.lookups.load(Ordering::Relaxed),
            getattrs: self.getattrs.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            getxattrs: self.getxattrs.load(Ordering::Relaxed),
            forgets: self.forgets.load(Ordering::Relaxed),
            batch_forgets: self.batch_forgets.load(Ordering::Relaxed),
            others: self.others.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// A FUSE request transport.
pub trait Transport: Send + Sync {
    /// Performs one round trip. Returns `Reply::Err(ENOTCONN)` if the
    /// server is gone.
    fn call(&self, req: Request) -> Reply;

    /// Tears the connection down (server crash / unmount). Subsequent calls
    /// fail with `ENOTCONN`.
    fn shutdown(&self);

    /// Whether the connection is still serving.
    fn is_alive(&self) -> bool;

    /// Request counters.
    fn stats(&self) -> ConnSnapshot;
}

/// Deterministic same-thread transport.
pub struct InlineTransport<H: FuseHandler> {
    handler: H,
    alive: AtomicBool,
    stats: ConnStats,
}

impl<H: FuseHandler> InlineTransport<H> {
    /// Wraps a handler.
    pub fn new(handler: H) -> Arc<InlineTransport<H>> {
        Arc::new(InlineTransport {
            handler,
            alive: AtomicBool::new(true),
            stats: ConnStats::default(),
        })
    }

    /// Access to the wrapped handler (tests, server-side stats).
    pub fn handler(&self) -> &H {
        &self.handler
    }
}

impl<H: FuseHandler> Transport for InlineTransport<H> {
    fn call(&self, req: Request) -> Reply {
        // Blocking-context checkpoint: the handler may re-enter the kernel
        // (writeback of dirty FUSE pages), so entering the transport while
        // holding a lock a re-entrant path could need is the PR-3 deadlock
        // class. Panic deterministically instead of deadlocking under rare
        // schedules. `kernel.fd_offset` is exempt for the same reason f_pos
        // is safe in Linux: it is held across fd-based I/O for POSIX offset
        // atomicity, and server-side paths (writeback included) go through
        // `Filesystem` methods, never through the caller's fd table.
        #[cfg(any(debug_assertions, feature = "lockdep"))]
        lockdep::assert_no_locks_held_except(&["kernel.fd_offset"]);
        if !self.alive.load(Ordering::Acquire) {
            return Reply::Err(Errno::ENOTCONN);
        }
        let (op, req_bytes) = (req.opcode(), req.wire_bytes());
        let _req_guard = ReqGuard::begin(op);
        let reply = {
            let _span = Span::start("handler");
            self.handler.handle(req)
        };
        self.stats.record(op, req_bytes, &reply);
        reply
    }

    fn shutdown(&self) {
        self.alive.store(false, Ordering::Release);
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
    fn inline_round_trip_and_stats() {
        let t = InlineTransport::new(EchoHandler);
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
    }

    #[test]
    fn shutdown_yields_enotconn() {
        let t = InlineTransport::new(EchoHandler);
        t.shutdown();
        assert!(!t.is_alive());
        assert!(matches!(t.call(lookup()), Reply::Err(Errno::ENOTCONN)));
    }

    /// Entering the transport with a lock held is the PR-3 writeback
    /// deadlock class; the checkpoint must turn it into a deterministic
    /// panic that names the held class — on every run, not only under the
    /// losing schedule.
    #[test]
    #[cfg(any(debug_assertions, feature = "lockdep"))]
    fn call_with_lock_held_panics_at_the_checkpoint() {
        let err = std::thread::spawn(|| {
            let t = InlineTransport::new(EchoHandler);
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
}
