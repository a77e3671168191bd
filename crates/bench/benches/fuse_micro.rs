//! Criterion microbenchmarks over the FUSE request path (wall-clock).
//!
//! These measure the *implementation* (real time per simulated operation),
//! complementing the virtual-time figure regenerations.

use bytes::Bytes;
use cntr_fs::memfs::memfs;
use cntr_fs::{Filesystem, FsContext};
use cntr_fuse::{FsHandler, FuseClientFs, FuseConfig, InitFlags, InlineTransport};
use cntr_kernel::pagecache::{FileRef, PageCache};
use cntr_kernel::CacheMode;
use cntr_types::{CostModel, DevId, FileType, Ino, Mode, OpenFlags, SimClock};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

fn mounted() -> Arc<FuseClientFs> {
    mounted_with(FuseConfig::optimized())
}

fn mounted_with(config: FuseConfig) -> Arc<FuseClientFs> {
    let clock = SimClock::new();
    let backing = memfs(DevId(1), clock.clone());
    let transport = InlineTransport::new(FsHandler::new(backing));
    FuseClientFs::mount(
        DevId(100),
        clock,
        CostModel::calibrated(),
        config,
        transport,
    )
    .expect("mount")
}

fn bench_lookup(c: &mut Criterion) {
    let fs = mounted();
    let ctx = FsContext::root();
    for i in 0..64 {
        fs.mkdir(Ino::ROOT, &format!("d{i}"), Mode::RWXR_XR_X, &ctx)
            .unwrap();
    }
    let mut i = 0u64;
    c.bench_function("fuse_lookup_cached", |b| {
        b.iter(|| {
            i += 1;
            fs.lookup(Ino::ROOT, &format!("d{}", i % 64)).unwrap()
        })
    });
}

fn bench_read_cached(c: &mut Criterion) {
    let fs = mounted();
    let ctx = FsContext::root();
    let st = fs
        .mknod(Ino::ROOT, "f", FileType::Regular, Mode::RW_R__R__, 0, &ctx)
        .unwrap();
    let fh = fs.open(st.ino, OpenFlags::RDWR).unwrap();
    fs.write(st.ino, fh, 0, &vec![7u8; 1 << 20]).unwrap();
    let mut buf = vec![0u8; 4096];
    let mut off = 0u64;
    c.bench_function("fuse_read_4k_readahead", |b| {
        b.iter(|| {
            let n = fs.read(st.ino, fh, off % (1 << 20), &mut buf).unwrap();
            off += n as u64;
            n
        })
    });
}

fn bench_write(c: &mut Criterion) {
    let fs = mounted();
    let ctx = FsContext::root();
    let st = fs
        .mknod(Ino::ROOT, "w", FileType::Regular, Mode::RW_R__R__, 0, &ctx)
        .unwrap();
    let fh = fs.open(st.ino, OpenFlags::WRONLY).unwrap();
    let data = vec![1u8; 4096];
    let mut off = 0u64;
    c.bench_function("fuse_write_4k", |b| {
        b.iter(|| {
            let n = fs.write(st.ino, fh, off % (8 << 20), &data).unwrap();
            off += n as u64;
            n
        })
    });
}

/// Large-read wall-clock: splice (the reply allocation is handed through
/// by reference) vs copy (memcpy at the boundary). Two far-apart offsets
/// alternate so every read misses the readahead window and crosses the
/// transport.
fn bench_read_1m_splice_vs_copy(c: &mut Criterion) {
    let run = |label: &str, splice: bool, c: &mut Criterion| {
        let mut flags = InitFlags::cntr_default();
        flags.splice_read = splice;
        let fs = mounted_with(FuseConfig::optimized().with_flags(flags));
        let ctx = FsContext::root();
        let st = fs
            .mknod(Ino::ROOT, "r", FileType::Regular, Mode::RW_R__R__, 0, &ctx)
            .unwrap();
        let fh = fs.open(st.ino, OpenFlags::RDWR).unwrap();
        fs.write(st.ino, fh, 0, &vec![7u8; 8 << 20]).unwrap();
        let mut toggle = 0u64;
        c.bench_function(label, |b| {
            b.iter(|| {
                toggle ^= 4 << 20;
                fs.read_bytes(st.ino, fh, toggle, 1 << 20).unwrap().len()
            })
        });
    };
    run("fuse_read_1m_splice", true, c);
    run("fuse_read_1m_copy", false, c);
}

/// Large-write wall-clock: splice-write passes the caller's `Bytes`
/// through (blob-style servers retain it); without it the payload is
/// memcpy'd at the boundary.
fn bench_write_1m_splice_vs_copy(c: &mut Criterion) {
    let run = |label: &str, splice: bool, c: &mut Criterion| {
        let mut flags = InitFlags::cntr_default();
        flags.splice_write = splice;
        let fs = mounted_with(FuseConfig::optimized().with_flags(flags));
        let ctx = FsContext::root();
        let st = fs
            .mknod(Ino::ROOT, "w", FileType::Regular, Mode::RW_R__R__, 0, &ctx)
            .unwrap();
        let fh = fs.open(st.ino, OpenFlags::WRONLY).unwrap();
        let payload = Bytes::from(vec![3u8; 1 << 20]);
        c.bench_function(label, |b| {
            b.iter(|| fs.write_bytes(st.ino, fh, 0, payload.clone()).unwrap())
        });
    };
    run("fuse_write_1m_splice", true, c);
    run("fuse_write_1m_copy", false, c);
}

/// Write-back flush throughput over a FUSE mount: 256 contiguous dirty
/// pages flushed as one coalesced (spliced) WRITE request — the round-trip
/// amortization behind the Figure 2 FIO win.
fn bench_flush_batched(c: &mut Criterion) {
    let fs = mounted();
    let ctx = FsContext::root();
    let st = fs
        .mknod(Ino::ROOT, "wb", FileType::Regular, Mode::RW_R__R__, 0, &ctx)
        .unwrap();
    let fh = fs.open(st.ino, OpenFlags::RDWR).unwrap();
    let file = Arc::new(FileRef {
        fs: Arc::clone(&fs) as Arc<dyn Filesystem>,
        ino: st.ino,
        fh,
    });
    let cache = PageCache::new(SimClock::new(), CostModel::calibrated(), 256 << 20, 1 << 30);
    let dev = DevId(2);
    let data = vec![1u8; 256 * 4096];
    c.bench_function("pagecache_flush_256p_batched", |b| {
        b.iter(|| {
            cache
                .write(dev, CacheMode::native(), &file, 0, &data)
                .unwrap();
            cache.flush_file(dev, file.ino).unwrap();
        })
    });
}

/// Raw ring transport throughput: `depth` submitter threads (the
/// effective queue depth) hammer `transport.call` with small LOOKUPs for a
/// fixed window. At depth 1 the ring degenerates to one wakeup per
/// request; at depth ≥ 8 batched doorbells and multi-reap amortize the
/// per-request synchronization.
fn bench_transport_ring(_c: &mut Criterion) {
    use cntr_fuse::proto::{Request, RequestCtx};
    use cntr_fuse::{RingTransport, Transport};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    const WINDOW: Duration = Duration::from_millis(120);

    fn handler() -> FsHandler {
        FsHandler::new(memfs(DevId(9), SimClock::new()))
    }

    fn drive(transport: Arc<dyn Transport>, depth: usize) -> f64 {
        let stop = Arc::new(AtomicBool::new(false));
        let barrier = Arc::new(Barrier::new(depth + 1));
        let mut handles = Vec::new();
        for _ in 0..depth {
            let transport = Arc::clone(&transport);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    transport.call(Request::Lookup {
                        parent: Ino::ROOT,
                        name: "probe".into(),
                        ctx: RequestCtx::default(),
                    });
                    n += 1;
                }
                n
            }));
        }
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(WINDOW);
        stop.store(true, Ordering::Relaxed);
        let total: u64 = handles
            .into_iter()
            .map(|h| h.join().expect("submitter"))
            .sum();
        let ops = total as f64 / start.elapsed().as_secs_f64();
        transport.shutdown();
        ops
    }

    println!("fuse transport: LOOKUP round-trips/sec over the ring");
    println!("{:<8} {:>6} {:>14}", "workers", "depth", "ring");
    for &workers in &[1usize, 2, 4, 8] {
        for &depth in &[1usize, 8, 64] {
            // Batch scales with the expected per-ring queue depth:
            // submitters round-robin across `workers` rings, so each
            // ring sees ~depth/workers outstanding requests.
            let ring = drive(
                Arc::new(RingTransport::new(
                    handler(),
                    workers,
                    depth,
                    (depth / workers).clamp(1, 16),
                )),
                depth,
            );
            println!("{:<8} {:>6} {:>14.0}", workers, depth, ring);
        }
    }
}

fn bench_getxattr_uncached(c: &mut Criterion) {
    let fs = mounted();
    let ctx = FsContext::root();
    let st = fs
        .mknod(Ino::ROOT, "x", FileType::Regular, Mode::RW_R__R__, 0, &ctx)
        .unwrap();
    c.bench_function("fuse_getxattr_roundtrip", |b| {
        b.iter(|| fs.getxattr(st.ino, "security.capability").is_err())
    });
}

/// Runs last: dumps the observability registry so every bench run leaves a
/// `name value` snapshot of what the workload actually did (per-opcode
/// counts, latency quantiles, cache behaviour) next to its timing numbers.
fn report_metrics_snapshot(_c: &mut Criterion) {
    println!("fuse_micro metrics snapshot:");
    print!("{}", obs::render());
}

criterion_group!(
    benches,
    bench_lookup,
    bench_read_cached,
    bench_write,
    bench_read_1m_splice_vs_copy,
    bench_write_1m_splice_vs_copy,
    bench_flush_batched,
    bench_transport_ring,
    bench_getxattr_uncached,
    report_metrics_snapshot
);
criterion_main!(benches);
