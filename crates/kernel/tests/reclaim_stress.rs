//! Memory-bound stress: the page-cache ceiling must hold under sustained
//! writes far past capacity, and nothing may be lost on the way down.
//!
//! The headline run writes **10× the cache ceiling across 64 containers**
//! and asserts, after every single write, that resident pages never exceed
//! `page_cache_limit` — the regression the two-list reclaim exists to fix:
//! the old evictor skipped dirty pages, so a pure-write workload (every
//! candidate dirty) grew the cache without bound. Contents are verified
//! byte-identical afterwards, so reclaim's writeback-then-evict path is
//! checked for data integrity, not just accounting.
//!
//! The threaded variant runs the same pressure from 8 OS threads in paced
//! write-back mode, where every write ending above the background
//! threshold flushes a chunk on its own thread. In debug and
//! `--features lockdep` builds this drives the `pagecache.lru` rank
//! discipline under real interleavings of writers, their background
//! chunks, reclaim and `fsync` — the stress must finish lockdep-green.
//!
//! The determinism run replays one seeded single-threaded schedule on two
//! fresh kernels in the default (paced) mode: virtual time and every
//! write-back counter must agree exactly.

use cntr_fs::memfs::memfs;
use cntr_kernel::kernel::KernelConfig;
use cntr_kernel::{Kernel, MountFlags, NamespaceKind};
use cntr_types::{DevId, Mode, OpenFlags, Pid, SimClock};
use std::sync::Arc;

const PAGE: usize = 4096;
const CONTAINERS: usize = 64;
/// Ceiling for the stress: 512 pages = 2 MiB.
const CEILING_PAGES: usize = 512;
/// Each container writes this many pages; 64 × 80 = 5120 pages = 10× the
/// ceiling.
const PAGES_PER_CONTAINER: usize = 80;

/// Deterministic, position-dependent payload so an evicted-then-reread page
/// that came back wrong (stale version, clipped run, lost write) cannot
/// masquerade as correct.
fn fill(container: usize, offset: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (container * 131 + offset as usize + i * 7) as u8 ^ 0xA5)
        .collect()
}

fn tight_kernel(background_writeback: bool) -> Kernel {
    let clock = SimClock::new();
    let root = memfs(DevId(1), clock.clone());
    Kernel::with_clock(
        clock,
        root,
        KernelConfig {
            page_cache_limit: (CEILING_PAGES * PAGE) as u64,
            // The hard dirty threshold sits above the ceiling: the throttle
            // never fires, so only reclaim's writeback-then-evict path can
            // keep residency bounded — the exact regression under test.
            dirty_bytes: (2 * CEILING_PAGES * PAGE) as u64,
            background_writeback,
            ..KernelConfig::default()
        },
    )
}

/// Sets up `n` containers: own mount+UTS namespaces, private propagation,
/// and a private memfs mounted (write-back cached) at `/c{i}`.
fn containers(kernel: &Kernel, n: usize) -> Vec<(Pid, String)> {
    let clock = kernel.clock().clone();
    (0..n)
        .map(|i| {
            let pid = kernel.fork(Pid::INIT).expect("fork container");
            kernel
                .unshare(pid, &[NamespaceKind::Mount, NamespaceKind::Uts])
                .expect("unshare");
            kernel.make_rprivate(pid).expect("make_rprivate");
            let dir = format!("/c{i}");
            kernel.mkdir(pid, &dir, Mode::RWXR_XR_X).expect("mkdir");
            let fs = memfs(DevId(100 + i as u64), clock.clone());
            kernel
                .mount_fs(
                    pid,
                    &dir,
                    fs as Arc<dyn cntr_fs::Filesystem>,
                    MountFlags::default(),
                )
                .expect("mount container fs");
            (pid, dir)
        })
        .collect()
}

/// The deterministic headline run: single caller, inline write-back, the
/// bound checked after **every** write.
#[test]
fn pure_writes_10x_ceiling_across_64_containers_stay_bounded() {
    let kernel = tight_kernel(false);
    let limit = kernel.page_cache_capacity_pages();
    assert_eq!(limit, CEILING_PAGES);
    let cs = containers(&kernel, CONTAINERS);

    // Open one data file per container and keep the fds; round-robin the
    // writes so every container's pages age together (the fairest — and
    // for per-file-victim write-back, hardest — interleaving).
    let fds: Vec<u32> = cs
        .iter()
        .enumerate()
        .map(|(i, (pid, _))| {
            kernel
                .open(
                    *pid,
                    &format!("/c{i}/data"),
                    OpenFlags::RDWR.with(OpenFlags::CREAT),
                    Mode::RW_R__R__,
                )
                .expect("create data file")
        })
        .collect();

    let chunk_pages = 4usize;
    let rounds = PAGES_PER_CONTAINER / chunk_pages;
    let mut peak = 0usize;
    for round in 0..rounds {
        for (i, (pid, _)) in cs.iter().enumerate() {
            let offset = (round * chunk_pages * PAGE) as u64;
            let data = fill(i, offset, chunk_pages * PAGE);
            let n = kernel
                .pwrite(*pid, fds[i], offset, &data)
                .expect("pwrite container data");
            assert_eq!(n, data.len());
            let resident = kernel.page_cache_resident_pages();
            peak = peak.max(resident);
            assert!(
                resident <= limit,
                "resident {resident} pages > ceiling {limit} after \
                 container {i} round {round} — the reclaim bound broke"
            );
        }
    }
    // The workload really did exceed the cache by 10×, and reclaim really
    // ran under write-only (all-dirty) pressure.
    assert_eq!(CONTAINERS * PAGES_PER_CONTAINER, 10 * CEILING_PAGES);
    let stats = kernel.page_cache_stats();
    assert!(stats.evictions > 0, "pressure must have evicted pages");
    assert!(
        stats.flushed_pages > 0,
        "an all-dirty cache can only shrink through write-back"
    );
    assert!(peak > limit / 2, "the workload never filled the cache");

    // Byte-identical readback of every page of every container, through
    // the same (now mostly evicted) cache.
    let mut buf = vec![0u8; PAGE];
    for (i, (pid, _)) in cs.iter().enumerate() {
        for page in 0..PAGES_PER_CONTAINER {
            let offset = (page * PAGE) as u64;
            let n = kernel
                .pread(*pid, fds[i], offset, &mut buf)
                .expect("pread back");
            assert_eq!(n, PAGE);
            assert_eq!(
                buf,
                fill(i, offset, PAGE),
                "container {i} page {page} corrupted"
            );
            let resident = kernel.page_cache_resident_pages();
            assert!(
                resident <= limit,
                "readback refill pushed residency to {resident} > {limit}"
            );
        }
    }

    // The LRU accounting is exact: the two lists partition residency.
    let (active, inactive) = kernel.page_cache_residency();
    assert_eq!(active + inactive, kernel.page_cache_resident_pages());
}

/// The same pressure from 8 OS threads in paced write-back mode.
/// Exercises the `pagecache.lru` lock discipline under real interleavings
/// of writers, their background chunks, reclaim and `fsync`
/// (lockdep-checked in debug and `--features lockdep` builds). The bound
/// allows a small transient overage: each thread detects the crossing
/// only after its own insert.
#[test]
fn threaded_paced_writers_stay_bounded_and_lossless() {
    const THREADS: usize = 8;
    let kernel = tight_kernel(true);
    let limit = kernel.page_cache_capacity_pages();
    let cs = containers(&kernel, CONTAINERS);

    let per_thread = CONTAINERS / THREADS;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let kernel = kernel.clone();
        let own: Vec<(usize, Pid)> = (t * per_thread..(t + 1) * per_thread)
            .map(|i| (i, cs[i].0))
            .collect();
        handles.push(std::thread::spawn(move || {
            for (i, pid) in own {
                let fd = kernel
                    .open(
                        pid,
                        &format!("/c{i}/data"),
                        OpenFlags::RDWR.with(OpenFlags::CREAT),
                        Mode::RW_R__R__,
                    )
                    .expect("create data file");
                for page in 0..PAGES_PER_CONTAINER {
                    let offset = (page * PAGE) as u64;
                    let data = fill(i, offset, PAGE);
                    kernel.pwrite(pid, fd, offset, &data).expect("pwrite");
                    let resident = kernel.page_cache_resident_pages();
                    assert!(
                        resident <= limit + THREADS * 4,
                        "resident {resident} far over ceiling {limit} under \
                         concurrent writers"
                    );
                }
                // fsync through the cache: must interleave safely with the
                // other writers' background chunks and reclaim.
                kernel.fsync(pid, fd, false).expect("fsync");
                kernel.close(pid, fd).expect("close");
            }
        }));
    }
    for h in handles {
        h.join().expect("writer thread must not panic");
    }

    // All dirty data drains (background chunks, throttle, reclaim or
    // sync), and contents survive the concurrent reclaim/write-back
    // byte-identically.
    kernel.sync().expect("final sync");
    assert_eq!(kernel.dirty_bytes(), 0);
    let mut buf = vec![0u8; PAGE];
    for (i, (pid, _)) in cs.iter().enumerate() {
        let fd = kernel
            .open(
                *pid,
                &format!("/c{i}/data"),
                OpenFlags::RDONLY,
                Mode::RW_R__R__,
            )
            .expect("reopen");
        for page in 0..PAGES_PER_CONTAINER {
            let offset = (page * PAGE) as u64;
            assert_eq!(
                kernel.pread(*pid, fd, offset, &mut buf).expect("pread"),
                PAGE
            );
            assert_eq!(
                buf,
                fill(i, offset, PAGE),
                "container {i} page {page} corrupted under threads"
            );
        }
        kernel.close(*pid, fd).expect("close");
    }
}

/// A small splitmix64 stream: the schedule's only source of choice.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Runs one seeded schedule of writes, overwrites, reads and `fsync` over
/// four files on a fresh default-config kernel, checking every read and
/// the final contents against a shadow copy. Returns the virtual clock
/// and the write-back counters.
fn seeded_schedule(seed: u64) -> (u64, [u64; 4]) {
    const FILES: usize = 4;
    const FILE_PAGES: u64 = 160;
    let clock = SimClock::new();
    let root = memfs(DevId(1), clock.clone());
    let kernel = Kernel::with_clock(
        clock,
        root,
        KernelConfig {
            // 256 pages: background threshold 25 pages, hard limit 51.
            page_cache_limit: (256 * PAGE) as u64,
            ..KernelConfig::default()
        },
    );
    let (pid, dir) = containers(&kernel, 1).remove(0);
    let fds: Vec<u32> = (0..FILES)
        .map(|f| {
            kernel
                .open(
                    pid,
                    &format!("{dir}/f{f}"),
                    OpenFlags::RDWR.with(OpenFlags::CREAT),
                    Mode::RW_R__R__,
                )
                .expect("create file")
        })
        .collect();
    let mut shadow = vec![Vec::<u8>::new(); FILES];
    let mut rng = Rng(seed);
    for step in 0..600u64 {
        let f = rng.below(FILES as u64) as usize;
        let offset = rng.below(FILE_PAGES * PAGE as u64);
        let len = match rng.below(10) {
            0 => 40 * PAGE,
            1..=5 => 1 + rng.below(8 * PAGE as u64) as usize,
            _ => 1 + rng.below(PAGE as u64) as usize,
        };
        match rng.below(8) {
            0 => kernel.fsync(pid, fds[f], false).expect("fsync"),
            1 | 2 => {
                let mut buf = vec![0u8; len];
                let n = kernel.pread(pid, fds[f], offset, &mut buf).expect("pread");
                let start = (offset as usize).min(shadow[f].len());
                let end = (start + len).min(shadow[f].len());
                assert_eq!(&buf[..n], &shadow[f][start..end], "step {step} read");
            }
            _ => {
                let data: Vec<u8> = (0..len).map(|i| (step as usize + i * 13) as u8).collect();
                assert_eq!(kernel.pwrite(pid, fds[f], offset, &data), Ok(len));
                let end = offset as usize + len;
                if shadow[f].len() < end {
                    shadow[f].resize(end, 0);
                }
                shadow[f][offset as usize..end].copy_from_slice(&data);
            }
        }
    }
    for (f, want) in shadow.iter().enumerate() {
        let mut buf = vec![0u8; want.len() + PAGE];
        let n = kernel.pread(pid, fds[f], 0, &mut buf).expect("read back");
        assert_eq!(&buf[..n], &want[..], "file {f} read back");
    }
    let s = kernel.page_cache_stats();
    let now = kernel.clock().now().as_nanos();
    (
        now,
        [
            s.flushed_pages,
            s.flush_batches,
            s.writeback_wakeups,
            s.throttle_stalls,
        ],
    )
}

/// Paced write-back runs on the writer's thread at fixed points, so two
/// fresh kernels replaying one schedule agree on virtual time and on every
/// write-back counter, and the schedule crosses both dirty thresholds.
#[test]
fn default_writeback_reproduces_exactly() {
    let first = seeded_schedule(1);
    let [flushed, batches, wakeups, stalls] = first.1;
    assert!(flushed > 0 && batches > 0, "nothing was written back");
    assert!(wakeups > 0, "the background threshold was never crossed");
    assert!(stalls > 0, "the hard dirty limit was never crossed");
    assert_eq!(seeded_schedule(1), first);
}
