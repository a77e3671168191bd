//! `kernel_scale`: wall-clock syscall throughput of the sharded kernel.
//!
//! The scaling experiment drives metadata-heavy syscalls (`setenv`,
//! `getenv`, `stat`, `proc_info`) from N OS threads, each thread acting as
//! one container: its own process (own pid shard), its own mount namespace
//! and its own filesystem. With the sharded tables (16 pid shards) threads
//! only contend on the subsystems they actually share.
//!
//! Output is a table of ops/sec per thread count plus the 1→N scaling
//! factor. On a multi-core host throughput scales with the thread count; on
//! a single-core host the curve is flat (there is no parallel hardware to
//! win on).

use cntr_fs::memfs::memfs;
use cntr_kernel::kernel::KernelConfig;
use cntr_kernel::{CacheMode, Kernel, MountFlags, NamespaceKind};
use cntr_types::{DevId, Mode, OpenFlags, Pid, SimClock};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One simulated container: a process in its own mount namespace with a
/// private filesystem mounted at `/c<i>` and a few files to stat.
struct Container {
    pid: Pid,
    dir: String,
}

fn boot(containers: usize) -> (Kernel, Vec<Container>) {
    let clock = SimClock::new();
    let root = memfs(DevId(1), clock.clone());
    let kernel = Kernel::with_clock(
        clock.clone(),
        root,
        CacheMode::native(),
        KernelConfig::default(),
    );
    let mut out = Vec::with_capacity(containers);
    for i in 0..containers {
        let pid = kernel.fork(Pid::INIT).expect("fork container");
        kernel
            .unshare(pid, &[NamespaceKind::Mount, NamespaceKind::Uts])
            .expect("unshare");
        let dir = format!("/c{i}");
        kernel.mkdir(pid, &dir, Mode::RWXR_XR_X).expect("mkdir");
        let fs = memfs(DevId(100 + i as u64), clock.clone());
        kernel
            .mount_fs(pid, &dir, fs, CacheMode::native(), MountFlags::default())
            .expect("mount");
        for f in 0..4 {
            let fd = kernel
                .open(
                    pid,
                    &format!("{dir}/f{f}"),
                    OpenFlags::create(),
                    Mode::RW_R__R__,
                )
                .expect("create");
            kernel.close(pid, fd).expect("close");
        }
        out.push(Container { pid, dir });
    }
    (kernel, out)
}

/// One unit of per-container work: the metadata mix a busy container issues
/// (environment churn, path resolution, `/proc`-style introspection).
fn syscall_mix(kernel: &Kernel, c: &Container, round: usize) {
    kernel
        .setenv(c.pid, "ROUND", &round.to_string())
        .expect("setenv");
    black_box(kernel.getenv(c.pid, "ROUND").expect("getenv"));
    black_box(
        kernel
            .stat(c.pid, &format!("{}/f{}", c.dir, round % 4))
            .expect("stat"),
    );
    black_box(kernel.proc_info(c.pid).expect("proc_info"));
}

const OPS_PER_MIX: u64 = 4;

/// Runs `threads` worker threads hammering the kernel for `window`,
/// returning total syscalls per second.
fn throughput(kernel: &Kernel, containers: &[Container], threads: usize, window: Duration) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let per_thread = containers.len() / threads;
    let mut handles = Vec::new();
    for t in 0..threads {
        let kernel = kernel.clone();
        let own: Vec<Container> = containers[t * per_thread..(t + 1) * per_thread]
            .iter()
            .map(|c| Container {
                pid: c.pid,
                dir: c.dir.clone(),
            })
            .collect();
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut rounds = 0usize;
            while !stop.load(Ordering::Relaxed) {
                for c in &own {
                    syscall_mix(&kernel, c, rounds);
                }
                rounds += 1;
            }
            rounds as u64 * own.len() as u64 * OPS_PER_MIX
        }));
    }
    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let total: u64 = handles.into_iter().map(|h| h.join().expect("worker")).sum();
    total as f64 / start.elapsed().as_secs_f64()
}

/// The headline experiment: ops/sec of the sharded tables at 1..=8
/// threads over 64 containers.
fn bench_shard_scaling(_c: &mut Criterion) {
    const CONTAINERS: usize = 64;
    const WINDOW: Duration = Duration::from_millis(250);
    println!("kernel_scale: {CONTAINERS} containers, metadata syscall mix");
    println!("{:>8} {:>14} {:>10}", "threads", "ops/sec", "vs 1thr");
    let (kernel, containers) = boot(CONTAINERS);
    let mut base = 0.0f64;
    for &t in &[1usize, 2, 4, 8] {
        let ops = throughput(&kernel, &containers, t, WINDOW);
        if t == 1 {
            base = ops;
        }
        println!("{:>8} {:>14.0} {:>9.2}x", t, ops, ops / base.max(1.0));
    }
}

/// FUSE dispatch scaling: a 4 KiB write+read mix through a mounted
/// `FuseClientFs` over the io_uring-style ring at 1..=8 client threads
/// (workers matched to threads). The ring's batched doorbells and
/// multi-reap only pay off when several requests are in flight, so the
/// interesting cells are the multi-threaded ones.
fn bench_fuse_transport_scaling(_c: &mut Criterion) {
    use cntr_fs::Filesystem;
    use cntr_fuse::{FsHandler, FuseClientFs, FuseConfig, RingTransport};
    use cntr_types::{CostModel, FileType, Ino};

    const WINDOW: Duration = Duration::from_millis(200);

    fn ops_per_sec(threads: usize, window: Duration) -> f64 {
        let clock = SimClock::new();
        let backing = memfs(DevId(50), clock.clone());
        let transport = Arc::new(RingTransport::new(FsHandler::new(backing), threads, 64, 8));
        let client = FuseClientFs::mount(
            DevId(0xBE),
            clock,
            CostModel::calibrated(),
            FuseConfig::optimized(),
            transport,
        )
        .expect("mount");
        let stop = Arc::new(AtomicBool::new(false));
        let barrier = Arc::new(Barrier::new(threads + 1));
        let mut handles = Vec::new();
        for t in 0..threads {
            let client = Arc::clone(&client);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let ctx = cntr_fs::FsContext::root();
                let st = client
                    .mknod(
                        Ino::ROOT,
                        &format!("b{t}"),
                        FileType::Regular,
                        Mode::RW_R__R__,
                        0,
                        &ctx,
                    )
                    .expect("mknod");
                let fh = client.open(st.ino, OpenFlags::RDWR).expect("open");
                let payload = vec![t as u8; 4096];
                let mut buf = [0u8; 4096];
                barrier.wait();
                let mut ops = 0u64;
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let off = (i % 64) * 4096;
                    client.write(st.ino, fh, off, &payload).expect("write");
                    client.read(st.ino, fh, off, &mut buf).expect("read");
                    ops += 2;
                    i += 1;
                }
                client.release(st.ino, fh).expect("release");
                ops
            }));
        }
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        let total: u64 = handles.into_iter().map(|h| h.join().expect("client")).sum();
        total as f64 / start.elapsed().as_secs_f64()
    }

    println!("kernel_scale: FUSE 4k write+read ops/sec over the ring");
    println!("{:<8} {:>14} {:>10}", "threads", "ops/sec", "vs 1thr");
    let mut base = 0.0f64;
    for &t in &[1usize, 2, 4, 8] {
        let ops = ops_per_sec(t, WINDOW);
        if t == 1 {
            base = ops;
        }
        println!("{:<8} {:>14.0} {:>9.2}x", t, ops, ops / base.max(1.0));
    }
}

/// Single-thread syscall latency on the sharded table (criterion-timed),
/// the sanity check that fine-grained locking did not tax the fast path.
fn bench_syscall_latency(c: &mut Criterion) {
    let (kernel, containers) = boot(1);
    let mut group = c.benchmark_group("kernel_scale");
    let mut round = 0usize;
    group.bench_function("syscall_mix_1thread_16shards", |b| {
        b.iter(|| {
            syscall_mix(&kernel, &containers[0], round);
            round = round.wrapping_add(1);
        })
    });
    group.finish();
}

/// Runs last: dumps the observability registry so every bench run leaves a
/// `name value` snapshot of what the workload actually did (cache hit
/// rates, request counts, latency quantiles) next to its timing numbers.
fn report_metrics_snapshot(_c: &mut Criterion) {
    println!("kernel_scale metrics snapshot:");
    print!("{}", obs::render());
}

criterion_group!(
    benches,
    bench_syscall_latency,
    bench_shard_scaling,
    bench_fuse_transport_scaling,
    report_metrics_snapshot
);
criterion_main!(benches);
