//! The `/dev/fuse` connection: request transport between the kernel half
//! and the userspace server.
//!
//! [`InlineTransport`] executes the handler on the calling thread. All
//! timing is charged through the virtual clock by the client and the
//! handler itself, so experiments are deterministic. Every caller thread is
//! served at once, with no queue between them, which is what the server
//! threads reading the CntrFS fd provide in the paper (§3.3); their
//! synchronization cost is priced by the client's cost model
//! ([`FuseConfig::workers`](crate::FuseConfig::workers)). A handler that
//! re-enters its own mount (write-back of dirty FUSE pages) runs on the
//! same thread again, so it can never queue behind itself.
//!
//! A handler that panics is a daemon that died: as Linux's
//! `fuse_abort_conn` does, the connection aborts. The panicking call gets
//! `ENOTCONN`, so does every later one, and `fuse.conn.aborts` counts it.
//!
//! The [`Transport`] trait is the seam the client talks through, so
//! tests can wrap the inline transport (`LateGetattr` in the client's
//! tests, [`CountingTransport`](crate::testing::CountingTransport)).
//!
//! # Accounting
//!
//! Every dispatched request counts in `fuse.req.started`/`completed`, the
//! in-flight gauge and its opcode's latency histogram. `fuse.op.<name>.count`
//! counts *handled* requests: the connection records one after the handler
//! replied. So a request whose handler panicked stays in the
//! started/completed pair and the histogram, but not in the op count.

use crate::proto::{Opcode, Reply, Request};
use crate::server::FuseHandler;
use cntr_types::Errno;
use obs::trace::Span;
use obs::{KeyedCounterScope, LazyCounter, LazyGauge, Subsystem};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

// Global (cross-connection) request accounting, exported via
// `/proc/cntrstats`. Everything here is a relaxed atomic: these fire inside
// the transport's blocking-context checkpoint, where taking a lock is the
// PR-3 writeback deadlock class.
static REQ_STARTED: LazyCounter = LazyCounter::new(Subsystem::Fuse, "fuse.req.started");
static REQ_COMPLETED: LazyCounter = LazyCounter::new(Subsystem::Fuse, "fuse.req.completed");
static QUEUE_DEPTH: LazyGauge = LazyGauge::new(Subsystem::Fuse, "fuse.req.in-flight");
/// Connections aborted because a handler panicked (a dead daemon).
static ABORTS: LazyCounter = LazyCounter::new(Subsystem::Fuse, "fuse.conn.aborts");

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
/// even across handler panics). The opcode's count is [`ConnStats`]'s.
pub(crate) struct ReqGuard {
    latency: &'static obs::Histogram,
    start_ns: u64,
}

impl ReqGuard {
    pub(crate) fn begin(op: Opcode) -> ReqGuard {
        REQ_STARTED.inc();
        QUEUE_DEPTH.inc();
        ReqGuard {
            latency: op_metrics(op).latency,
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

obs::counter_scope! {
    /// Wire traffic of one connection.
    struct WireBytes(Subsystem::Fuse) {
        /// Request bytes, kernel to server.
        bytes_in: "fuse.conn.bytes-in",
        /// Reply bytes, server to kernel.
        bytes_out: "fuse.conn.bytes-out",
    }
}

/// Request counters of one connection: a per-opcode scope whose totals
/// are the `fuse.op.<name>.count` cells, plus its wire traffic.
pub(crate) struct ConnStats {
    ops: KeyedCounterScope<Opcode, 64>,
    wire: WireBytes,
}

impl Default for ConnStats {
    fn default() -> Self {
        ConnStats {
            ops: KeyedCounterScope::new(|op| op_metrics(op).count),
            wire: WireBytes::default(),
        }
    }
}

/// Request counters of one connection, as [`Transport::stats`] reports them.
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
    /// Records one handled round trip, from the opcode and request size
    /// captured *before* dispatch (the handler takes the `Request` by value).
    pub(crate) fn record(&self, op: Opcode, req_bytes: usize, reply: &Reply) {
        self.ops.inc(op);
        self.wire.bytes_in.add(req_bytes as u64);
        self.wire.bytes_out.add(reply.wire_bytes() as u64);
    }

    /// Takes a snapshot.
    pub(crate) fn snapshot(&self) -> ConnSnapshot {
        let ops = self.ops.values();
        let count = |op: Opcode| ops[usize::from(op)];
        let mut snap = ConnSnapshot {
            lookups: count(Opcode::Lookup),
            getattrs: count(Opcode::Getattr),
            reads: count(Opcode::Read),
            writes: count(Opcode::Write),
            getxattrs: count(Opcode::Getxattr),
            forgets: count(Opcode::Forget),
            batch_forgets: count(Opcode::BatchForget),
            others: 0,
            bytes_in: self.wire.bytes_in.value(),
            bytes_out: self.wire.bytes_out.value(),
        };
        snap.others = ops.iter().sum::<u64>() - snap.total();
        snap
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
        // Listed in `/proc/cntrstats` from the first connection on, so a
        // run without aborts reads 0 rather than nothing.
        let _ = ABORTS.get();
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
        let _span = Span::start("transport");
        let handled = {
            let _span = Span::start("handler");
            panic::catch_unwind(AssertUnwindSafe(|| self.handler.handle(req)))
        };
        match handled {
            Ok(reply) => {
                self.stats.record(op, req_bytes, &reply);
                reply
            }
            Err(_) => {
                // The daemon died: abort the connection (see module docs).
                ABORTS.inc();
                self.alive.store(false, Ordering::Release);
                Reply::Err(Errno::ENOTCONN)
            }
        }
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
    fn serves_many_callers_at_once() {
        let t = InlineTransport::new(EchoHandler);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        assert!(matches!(t.call(lookup()), Reply::Ok));
                    }
                });
            }
        });
        assert_eq!(t.stats().lookups, 800);
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

    /// Panics on GETATTR, answers everything else.
    struct PanicOnGetattr;

    impl FuseHandler for PanicOnGetattr {
        fn handle(&self, req: Request) -> Reply {
            match req {
                Request::Getattr { .. } => panic!("handler panics on GETATTR"),
                _ => Reply::Ok,
            }
        }
    }

    /// A handler panic aborts the connection: the panicking GETATTR and a
    /// LOOKUP sent afterwards from another thread both get `ENOTCONN`, and
    /// the GETATTR's request guard still completes on unwind (its latency
    /// sample lands although the op count does not).
    #[test]
    fn handler_panic_aborts_the_connection() {
        let aborts = ABORTS.value();
        let getattr_latency = op_metrics(Opcode::Getattr).latency;
        let completed = getattr_latency.count();
        let t = InlineTransport::new(PanicOnGetattr);
        assert!(matches!(t.call(lookup()), Reply::Ok));
        let getattr = t.call(Request::Getattr { ino: Ino(5) });
        assert!(
            matches!(getattr, Reply::Err(Errno::ENOTCONN)),
            "{getattr:?}"
        );
        assert!(!t.is_alive());
        let later = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || t.call(lookup())).join().unwrap()
        };
        assert!(matches!(later, Reply::Err(Errno::ENOTCONN)), "{later:?}");
        assert_eq!(t.stats().total(), 1, "only the first LOOKUP was handled");
        assert!(ABORTS.value() > aborts);
        assert!(getattr_latency.count() > completed);
    }

    /// Shutdown racing live callers: in each round, eight threads call
    /// one connection while a ninth, released with them, shuts it down
    /// after a round-dependent number of yields (0–15). Every call returns
    /// `Ok` (it was handled) or `ENOTCONN`, never `Ok` after an `ENOTCONN`
    /// on its thread, and the `Ok`s are exactly the handled lookups. A
    /// watchdog turns a hang into a failure instead of a hung suite.
    #[test]
    fn shutdown_races_live_callers() {
        let (tx, rx) = std::sync::mpsc::channel();
        let rounds = std::thread::spawn(move || {
            for round in 0..200u64 {
                let t = InlineTransport::new(EchoHandler);
                // Spread the shutdown over the callers' lifetime.
                let delay = round.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60;
                let start = std::sync::Barrier::new(9);
                let ok: u64 = std::thread::scope(|s| {
                    let callers: Vec<_> = (0..8)
                        .map(|_| {
                            s.spawn(|| {
                                start.wait();
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
                    s.spawn(|| {
                        start.wait();
                        for _ in 0..delay {
                            std::thread::yield_now();
                        }
                        t.shutdown();
                    });
                    callers.into_iter().map(|c| c.join().unwrap()).sum()
                });
                assert_eq!(ok, t.stats().lookups, "round {round}");
            }
            tx.send(()).unwrap();
        });
        let done = rx.recv_timeout(std::time::Duration::from_secs(120));
        assert!(
            !matches!(done, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
            "a call hung while shutdown raced the callers"
        );
        rounds.join().unwrap();
    }
}
