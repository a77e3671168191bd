//! End-to-end checks of the io_uring-style ring transport.
//!
//! Everything lives in one `#[test]` on purpose (the observability.rs
//! pattern): the `fuse.req.*` counters and the `fuse.ring.*` metrics are
//! process-global, so a single sequential test per binary is the only way
//! the started==completed / in-flight==0 assertions can be exact.
//!
//! Covered here:
//! * INIT negotiation grants the ring bit to `cntr_default` and withholds
//!   it from `paper_legacy` (the splice-write pattern);
//! * consecutive 1 MiB spliced reads over the ring stay zero-copy
//!   (`testing::copies_along == 0` along storage → wire → caller);
//! * an 8-thread bout leaves `fuse.req.started == fuse.req.completed`
//!   and `fuse.req.in-flight == 0`, with the ring metrics live;
//! * multi-reap: seven submissions queued behind a reaper pinned in a
//!   request are all reaped in its next wakeup (exact histogram deltas,
//!   no clock);
//! * shutdown mid-batch fails the queued submissions with `ENOTCONN`
//!   while the request already in the handler completes normally;
//! * the FUSE-writeback re-entrancy regression (PR-3 deadlock class)
//!   runs over a single-reaper ring under a watchdog;
//! * a traced read over the ring still crosses all four pipeline stages.

use bytes::Bytes;
use cntr_fs::memfs::memfs;
use cntr_fs::{Filesystem, FilesystemExt, FsContext};
use cntr_fuse::proto::{Reply, Request, RequestCtx};
use cntr_fuse::testing::{copies_along, CountingTransport, InstrumentedFs, PayloadLog};
use cntr_fuse::{FsHandler, FuseClientFs, FuseConfig, FuseHandler, RingTransport, Transport};
use cntr_types::{DevId, Errno, FileType, Ino, Mode, OpenFlags, SimClock};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const MIB: usize = 1 << 20;

fn lookup() -> Request {
    Request::Lookup {
        parent: Ino::ROOT,
        name: "x".into(),
        ctx: RequestCtx::default(),
    }
}

fn mknod_open(fs: &Arc<FuseClientFs>, name: &str) -> (Ino, cntr_fs::Fh) {
    let st = fs
        .mknod(
            Ino::ROOT,
            name,
            FileType::Regular,
            Mode::RW_R__R__,
            0,
            &FsContext::root(),
        )
        .unwrap();
    let fh = fs.open(st.ino, OpenFlags::RDWR).unwrap();
    (st.ino, fh)
}

/// The ring-bit negotiation: granted to the shipping profile, withheld
/// from the paper profile — exactly the splice-write pattern.
fn check_negotiation() {
    let backing = memfs(DevId(10), SimClock::new());
    let ring = Arc::new(RingTransport::new(FsHandler::new(backing), 2, 16));
    let client = FuseClientFs::mount(
        DevId(0xA0),
        SimClock::new(),
        FuseConfig::optimized(),
        Arc::clone(&ring) as Arc<dyn Transport>,
    )
    .unwrap();
    assert!(
        client.effective_flags().ring,
        "cntr_default negotiates ring"
    );

    let backing = memfs(DevId(11), SimClock::new());
    let legacy = FuseClientFs::mount(
        DevId(0xA1),
        SimClock::new(),
        FuseConfig::paper(),
        Arc::new(RingTransport::new(FsHandler::new(backing), 2, 16)),
    )
    .unwrap();
    assert!(
        !legacy.effective_flags().ring,
        "paper_legacy keeps the ring bit off"
    );
    ring.shutdown();
}

/// Consecutive 1 MiB spliced reads over the ring stay zero-copy: the pointer
/// chain storage → wire → caller shows zero payload copies, for several
/// consecutive reads riding the same ring.
fn check_spliced_reads_zero_copy() {
    let log = PayloadLog::new();
    let backing = memfs(DevId(12), SimClock::new());
    let inst = InstrumentedFs::new(backing, Arc::clone(&log));
    let ring: Arc<dyn Transport> = Arc::new(RingTransport::new(FsHandler::new(inst), 2, 16));
    let transport = CountingTransport::new(ring, Arc::clone(&log));
    let client = FuseClientFs::mount(
        DevId(0xA2),
        SimClock::new(),
        FuseConfig::optimized(),
        transport,
    )
    .unwrap();
    let payload: Vec<u8> = (0..MIB).map(|i| (i % 251) as u8 ^ 0x5A).collect();
    let (ino, fh) = mknod_open(&client, "big");
    client.write(ino, fh, 0, &payload).unwrap();

    for round in 0..3 {
        client.drop_caches();
        log.clear();
        let got = client.read_bytes(ino, fh, 0, MIB).unwrap();
        assert_eq!(got.len(), MIB);
        assert_eq!(&got[..], &payload[..], "round {round}: data intact");
        let storage = log.last("fs-read").expect("storage hop recorded");
        let wire = log.last("wire-reply").expect("wire hop recorded");
        let chain = [storage.ptr, wire.ptr, got.as_ptr() as usize];
        assert_eq!(
            copies_along(&chain),
            0,
            "round {round}: a spliced read over the ring must cross \
             storage → wire → caller in one allocation: {chain:x?}"
        );
    }
    client.kill_connection();
}

/// 8 submitter threads hammer one 4-reaper ring; afterwards the global
/// request accounting is symmetric and the ring metrics are live.
fn check_eight_thread_bout() {
    let backing = memfs(DevId(13), SimClock::new());
    let t = Arc::new(RingTransport::new(FsHandler::new(backing), 4, 64));
    let mut joins = Vec::new();
    for i in 0..8 {
        let t = Arc::clone(&t);
        joins.push(std::thread::spawn(move || {
            for k in 0..32 {
                let reply = t.call(Request::Lookup {
                    parent: Ino::ROOT,
                    name: format!("m{i}-{k}"),
                    ctx: RequestCtx::default(),
                });
                assert!(
                    matches!(reply, Reply::Err(Errno::ENOENT)),
                    "lookup of a missing name over the ring"
                );
                let reply = t.call(Request::Getattr { ino: Ino::ROOT });
                assert!(matches!(reply, Reply::Attr(_)));
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let s = t.stats();
    assert_eq!(s.lookups, 8 * 32);
    assert_eq!(s.getattrs, 8 * 32);
    t.shutdown();
    if let Ok(t) = Arc::try_unwrap(t) {
        t.join();
    }

    // The ring metrics are live and rendered with the rest of
    // /proc/cntrstats' source registry.
    let reaped = obs::histogram("fuse.ring.reaped-per-wakeup").expect("registered");
    assert!(reaped.count() > 0, "reapers recorded wakeup batches");
    assert_eq!(
        obs::gauge_value("fuse.ring.queue-depth").unwrap(),
        0,
        "no submissions left in any ring"
    );
    let text = obs::render();
    for metric in ["fuse.ring.reaped-per-wakeup.count", "fuse.ring.queue-depth"] {
        assert!(
            text.lines().any(|l| l.starts_with(metric)),
            "missing {metric} in rendered stats"
        );
    }
}

/// A handler whose first GETATTR spins until the test opens the gate —
/// pinning the single reaper inside the handler so submissions pile up
/// behind it deterministically.
#[derive(Clone)]
struct GatedHandler {
    entered: Arc<AtomicBool>,
    gate: Arc<AtomicBool>,
}

impl FuseHandler for GatedHandler {
    fn handle(&self, req: Request) -> Reply {
        if matches!(req, Request::Getattr { .. }) {
            self.entered.store(true, Ordering::Release);
            while !self.gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
        Reply::Ok
    }
}

/// Multi-reap amortizes wakeups: with the single reaper pinned inside a
/// GETATTR, seven lookups queue behind it, and its next wakeup reaps all
/// seven at once. Runs while no other ring is live, so the global
/// `fuse.ring.reaped-per-wakeup` deltas are exactly this ring's: two
/// wakeups, eight requests.
fn check_multi_reap() {
    let entered = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(AtomicBool::new(false));
    let handler = GatedHandler {
        entered: Arc::clone(&entered),
        gate: Arc::clone(&gate),
    };
    let t = Arc::new(RingTransport::new(handler, 1, 8));
    let reaped = obs::histogram("fuse.ring.reaped-per-wakeup").expect("registered");
    let (count0, sum0) = (reaped.count(), reaped.sum());

    let pinned = {
        let t = Arc::clone(&t);
        std::thread::spawn(move || t.call(Request::Getattr { ino: Ino::ROOT }))
    };
    while !entered.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let queued: Vec<_> = (0..7)
        .map(|_| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || t.call(lookup()))
        })
        .collect();
    while obs::gauge_value("fuse.ring.queue-depth").unwrap() < 7 {
        std::thread::yield_now();
    }
    gate.store(true, Ordering::Release);

    assert!(matches!(pinned.join().unwrap(), Reply::Ok));
    for q in queued {
        let reply = q.join().unwrap();
        assert!(
            matches!(reply, Reply::Ok),
            "queued lookup served: {reply:?}"
        );
    }
    assert_eq!(
        (reaped.count() - count0, reaped.sum() - sum0),
        (2, 8),
        "one wakeup for the pinned GETATTR, one that reaps all seven lookups"
    );
    if let Ok(t) = Arc::try_unwrap(t) {
        t.join();
    }
}

/// Shutdown mid-batch: the request already in the handler completes
/// normally; everything still queued in the SQ fails with `ENOTCONN`.
fn check_shutdown_mid_batch() {
    let entered = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(AtomicBool::new(false));
    let handler = GatedHandler {
        entered: Arc::clone(&entered),
        gate: Arc::clone(&gate),
    };
    // One reaper: queued lookups cannot be reaped while it is pinned.
    let t = Arc::new(RingTransport::new(handler, 1, 8));

    let pinned = {
        let t = Arc::clone(&t);
        std::thread::spawn(move || t.call(Request::Getattr { ino: Ino::ROOT }))
    };
    while !entered.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    // The reaper is inside the handler. Queue three more submissions.
    let queued: Vec<_> = (0..3)
        .map(|_| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || t.call(lookup()))
        })
        .collect();
    while obs::gauge_value("fuse.ring.queue-depth").unwrap() < 3 {
        std::thread::yield_now();
    }
    // Kill the connection mid-batch, then release the pinned handler.
    t.shutdown();
    gate.store(true, Ordering::Release);

    let first = pinned.join().unwrap();
    assert!(
        matches!(first, Reply::Ok),
        "the in-flight request was already accepted: {first:?}"
    );
    for q in queued {
        let reply = q.join().unwrap();
        assert!(
            matches!(reply, Reply::Err(Errno::ENOTCONN)),
            "queued submissions must fail with ENOTCONN: {reply:?}"
        );
    }
    assert!(matches!(t.call(lookup()), Reply::Err(Errno::ENOTCONN)));
}

/// A server handler that re-enters the transport it is served by — the
/// FUSE writeback shape. With one reaper, queueing the re-entrant request
/// would deadlock; the ring must execute it inline (PR-3 fix).
#[derive(Clone)]
struct ReentrantHandler {
    inner: FsHandler,
    transport: Arc<Mutex<Option<Arc<dyn Transport>>>>,
}

impl FuseHandler for ReentrantHandler {
    fn handle(&self, req: Request) -> Reply {
        if matches!(req, Request::Write { .. }) {
            let t = self.transport.lock().clone();
            if let Some(t) = t {
                let reply = t.call(Request::Getattr { ino: Ino::ROOT });
                assert!(
                    !matches!(reply, Reply::Err(_)),
                    "re-entrant request must be served"
                );
            }
        }
        self.inner.handle(req)
    }
}

fn check_writeback_reentrancy() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let clock = SimClock::new();
        let backing = memfs(DevId(14), clock.clone());
        let transport_slot = Arc::new(Mutex::new(None));
        let handler = ReentrantHandler {
            inner: FsHandler::new(backing),
            transport: Arc::clone(&transport_slot),
        };
        // One reaper: a queued re-entrant request can never be served.
        let transport = Arc::new(RingTransport::new(handler, 1, 8));
        *transport_slot.lock() = Some(Arc::clone(&transport) as Arc<dyn Transport>);
        let client =
            FuseClientFs::mount(DevId(0xA3), clock, FuseConfig::optimized(), transport).unwrap();
        let (ino, fh) = mknod_open(&client, "wb");
        // Every WRITE's handler re-enters with a GETATTR before landing.
        let payload = Bytes::from(vec![0xEEu8; 64 * 1024]);
        for round in 0..8u64 {
            let n = client
                .write_bytes(ino, fh, round * payload.len() as u64, payload.clone())
                .unwrap();
            assert_eq!(n, payload.len());
        }
        assert_eq!(
            client.getattr(ino).unwrap().size,
            8 * payload.len() as u64,
            "every re-entrant write landed"
        );
        tx.send(()).unwrap();
    });
    rx.recv_timeout(Duration::from_secs(60)).expect(
        "deadlock: a reaper-originated (re-entrant) request was queued \
         behind itself instead of executing inline on the ring",
    );
}

/// A traced read over the ring still attributes spans across all four
/// pipeline stages — the trace id rides the SQE across the ring.
fn check_trace_spans_cross_the_ring() {
    let clock = SimClock::new();
    let backing = memfs(DevId(15), clock.clone());
    let transport = Arc::new(RingTransport::new(FsHandler::new(backing), 2, 16));
    let client =
        FuseClientFs::mount(DevId(0xA4), clock, FuseConfig::optimized(), transport).unwrap();
    let (ino, fh) = mknod_open(&client, "traced");
    let payload = vec![0x11u8; MIB];
    client.write(ino, fh, 0, &payload).unwrap();
    client.drop_caches();
    let data = client.read_bytes(ino, fh, 0, MIB).unwrap();
    assert_eq!(data.len(), MIB);

    let bound = obs::trace::next_trace_id();
    let full = (1..bound)
        .filter(|&trace| {
            let stages: Vec<&str> = obs::trace::spans_for(trace)
                .iter()
                .map(|r| r.stage)
                .collect();
            ["client", "transport", "handler", "storage"]
                .iter()
                .all(|s| stages.contains(s))
        })
        .count();
    assert!(
        full > 0,
        "no ring-transported trace crossed client/transport/handler/storage"
    );
    client.kill_connection();
}

#[test]
fn ring_transport_end_to_end() {
    check_negotiation();
    check_spliced_reads_zero_copy();
    check_eight_thread_bout();
    check_multi_reap();
    check_shutdown_mid_batch();
    check_writeback_reentrancy();
    check_trace_spans_cross_the_ring();

    // After every section above — including the mid-batch shutdown, whose
    // failed submissions still pass through their ReqGuards — the global
    // request accounting is symmetric.
    let started = obs::counter_value("fuse.req.started").unwrap();
    let completed = obs::counter_value("fuse.req.completed").unwrap();
    assert!(started > 0);
    assert_eq!(started, completed, "every started request completed");
    assert_eq!(
        obs::gauge_value("fuse.req.in-flight").unwrap(),
        0,
        "nothing left in flight"
    );
}
