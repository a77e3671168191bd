//! `reclaim`: page-cache behavior under a memory ceiling.
//!
//! Two experiments against the two-list LRU:
//!
//! 1. **Hit rate vs working-set size.** Sequential re-reads over working
//!    sets from half the ceiling to 4× it. Below the ceiling the re-read
//!    passes should be all hits; above it, reclaim has to evict and the
//!    hit rate collapses (sequential scans are LRU's worst case). The
//!    interesting regression signal is the sub-ceiling rows dropping
//!    below ~100%: that means reclaim is evicting pages it didn't need
//!    to, or the active list is failing to protect the working set.
//!
//! 2. **Sustained write throughput vs dirty accounting.** The same 32 MiB
//!    write stream under three regimes: dirty limits above the stream
//!    (never throttled), a tight limit drained inline by the writer
//!    (stop-world `flush_until` stalls), and the same tight limit with
//!    the background flusher on (the writer pays at most the paced
//!    quota). Background write-back must beat the inline drain — that is
//!    the reason the flusher thread exists — and the stall counters show
//!    where the time went.

use cntr_fs::memfs::memfs;
use cntr_fuse::{FsHandler, FuseClientFs, FuseConfig, RingTransport, Transport};
use cntr_kernel::kernel::KernelConfig;
use cntr_kernel::{Kernel, MountFlags};
use cntr_types::{DevId, Mode, OpenFlags, Pid, SimClock};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Instant;

const PAGE: usize = 4096;

/// Boots a kernel whose page cache is the experiment variable, plus one
/// workload process and one open scratch file.
fn boot(config: KernelConfig) -> (Kernel, Pid, u32) {
    let clock = SimClock::new();
    let root = memfs(DevId(1), clock.clone());
    let kernel = Kernel::with_clock(clock, root, config);
    let pid = kernel.fork(Pid::INIT).expect("fork");
    let fd = kernel
        .open(
            pid,
            "/data",
            OpenFlags::RDWR.with(OpenFlags::CREAT),
            Mode::RW_R__R__,
        )
        .expect("open /data");
    (kernel, pid, fd)
}

/// Writes `pages` pages of deterministic bytes through the cache in
/// `chunk_pages`-sized pwrites; returns wall-clock seconds spent.
fn write_stream(kernel: &Kernel, pid: Pid, fd: u32, pages: usize, chunk_pages: usize) -> f64 {
    let chunk = vec![0x5Au8; chunk_pages * PAGE];
    let start = Instant::now();
    let mut page = 0usize;
    while page < pages {
        let n = chunk_pages.min(pages - page);
        kernel
            .pwrite(pid, fd, (page * PAGE) as u64, &chunk[..n * PAGE])
            .expect("pwrite");
        page += n;
    }
    start.elapsed().as_secs_f64()
}

/// Sequentially reads `pages` pages; returns wall-clock seconds.
fn read_stream(kernel: &Kernel, pid: Pid, fd: u32, pages: usize) -> f64 {
    let mut buf = vec![0u8; PAGE];
    let start = Instant::now();
    for page in 0..pages {
        black_box(
            kernel
                .pread(pid, fd, (page * PAGE) as u64, &mut buf)
                .expect("pread"),
        );
    }
    start.elapsed().as_secs_f64()
}

/// Hit rate of sequential re-reads as the working set grows past the
/// ceiling.
fn bench_hit_rate(_c: &mut Criterion) {
    const CEILING_PAGES: usize = 1024; // 4 MiB
    const PASSES: usize = 4;
    println!("reclaim: sequential re-read hit rate, ceiling {CEILING_PAGES} pages");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>12}",
        "working set", "ws/ceil", "hit rate", "evictions", "ns/page"
    );
    for ws in [
        CEILING_PAGES / 2,
        CEILING_PAGES,
        2 * CEILING_PAGES,
        4 * CEILING_PAGES,
    ] {
        let (kernel, pid, fd) = boot(KernelConfig {
            page_cache_limit: (CEILING_PAGES * PAGE) as u64,
            // Keep dirty throttling out of the read experiment.
            dirty_bytes: (8 * CEILING_PAGES * PAGE) as u64,
            background_writeback: false,
            ..KernelConfig::default()
        });
        write_stream(&kernel, pid, fd, ws, 16);
        kernel.fsync(pid, fd, false).expect("fsync");
        let before = kernel.page_cache_stats();
        let mut secs = 0.0;
        for _ in 0..PASSES {
            secs += read_stream(&kernel, pid, fd, ws);
        }
        let after = kernel.page_cache_stats();
        let lookups = (after.hits + after.misses) - (before.hits + before.misses);
        let hits = after.hits - before.hits;
        println!(
            "{:<14} {:>10.2} {:>9.1}% {:>10} {:>12.0}",
            format!("{ws} pages"),
            ws as f64 / CEILING_PAGES as f64,
            100.0 * hits as f64 / lookups.max(1) as f64,
            after.evictions - before.evictions,
            secs * 1e9 / (PASSES * ws) as f64,
        );
    }
}

/// Boots a kernel with a CntrFS mount over a real worker-thread FUSE
/// transport at `/mnt` — the backing store the write experiment flushes
/// to. Every flushed run is a genuine cross-thread round trip, the cost
/// profile background write-back exists to hide (on a memcpy-speed
/// backing store there is nothing to overlap and the flusher is pure
/// lock traffic).
fn boot_fuse(config: KernelConfig) -> (Kernel, Pid, u32) {
    let clock = SimClock::new();
    let root = memfs(DevId(1), clock.clone());
    let kernel = Kernel::with_clock(clock.clone(), root, config);
    let pid = kernel.fork(Pid::INIT).expect("fork");
    let backing = memfs(DevId(7), clock.clone());
    let handler = FsHandler::new(backing);
    let transport: Arc<dyn Transport> = Arc::new(RingTransport::new(handler, 2, 64, 8));
    let client = FuseClientFs::mount(
        DevId(0xCAFE),
        clock,
        kernel.cost(),
        FuseConfig::optimized(),
        transport,
    )
    .expect("mount cntrfs");
    kernel.mkdir(pid, "/mnt", Mode::RWXR_XR_X).expect("mkdir");
    kernel
        .mount_fs(pid, "/mnt", client, MountFlags::default())
        .expect("mount cntrfs at /mnt");
    let fd = kernel
        .open(
            pid,
            "/mnt/data",
            OpenFlags::RDWR.with(OpenFlags::CREAT),
            Mode::RW_R__R__,
        )
        .expect("open /mnt/data");
    (kernel, pid, fd)
}

/// Sustained write throughput onto the CntrFS mount: unthrottled vs
/// inline drain vs background flusher, same stream, same tight dirty
/// limits for the throttled rows.
fn bench_write_throughput(_c: &mut Criterion) {
    const STREAM_PAGES: usize = 8192; // 32 MiB
    const RUNS: usize = 3;
    // The ceiling stays above the stream so dirty accounting — not LRU
    // eviction — is the only thing standing between the writer and memcpy
    // speed.
    let roomy = (2 * STREAM_PAGES * PAGE) as u64;
    let tight_hard = (1024 * PAGE) as u64; // 4 MiB: 1/8 of the stream
    let tight_bg = (512 * PAGE) as u64;
    let regimes: [(&str, KernelConfig); 3] = [
        (
            "unthrottled",
            KernelConfig {
                page_cache_limit: roomy,
                dirty_bytes: roomy,
                background_writeback: false,
                ..KernelConfig::default()
            },
        ),
        (
            "inline-drain",
            KernelConfig {
                page_cache_limit: roomy,
                dirty_bytes: tight_hard,
                dirty_background_bytes: tight_bg,
                background_writeback: false,
                ..KernelConfig::default()
            },
        ),
        (
            "bg-flusher",
            KernelConfig {
                page_cache_limit: roomy,
                dirty_bytes: tight_hard,
                dirty_background_bytes: tight_bg,
                background_writeback: true,
                ..KernelConfig::default()
            },
        ),
    ];
    println!("reclaim: 32 MiB write stream onto CntrFS, best of {RUNS} runs");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10}",
        "regime", "MiB/s", "stalls", "wakeups", "flushed"
    );
    for (name, config) in regimes {
        let mut best = f64::MAX;
        let mut stats = None;
        for _ in 0..RUNS {
            let (kernel, pid, fd) = boot_fuse(config);
            let secs = write_stream(&kernel, pid, fd, STREAM_PAGES, 16);
            kernel.sync().expect("sync");
            if secs < best {
                best = secs;
                stats = Some(kernel.page_cache_stats());
            }
        }
        let s = stats.expect("at least one run");
        println!(
            "{:<14} {:>10.1} {:>10} {:>10} {:>10}",
            name,
            (STREAM_PAGES * PAGE) as f64 / (1024.0 * 1024.0) / best,
            s.throttle_stalls,
            s.writeback_wakeups,
            s.flushed_pages,
        );
    }
}

/// Criterion-timed fast path: a 4 KiB cached read well inside the
/// ceiling — reclaim bookkeeping must not tax the hit path.
fn bench_cached_read(c: &mut Criterion) {
    let (kernel, pid, fd) = boot(KernelConfig {
        page_cache_limit: (1024 * PAGE) as u64,
        ..KernelConfig::default()
    });
    write_stream(&kernel, pid, fd, 256, 16);
    let mut buf = vec![0u8; PAGE];
    let mut page = 0u64;
    let mut group = c.benchmark_group("reclaim");
    group.bench_function("cached_4k_read_hit", |b| {
        b.iter(|| {
            let off = (page % 256) * PAGE as u64;
            black_box(kernel.pread(pid, fd, off, &mut buf).expect("pread"));
            page = page.wrapping_add(1);
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cached_read,
    bench_hit_rate,
    bench_write_throughput
);
criterion_main!(benches);
