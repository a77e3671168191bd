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
//! The threaded variant runs the same pressure from 8 OS threads with the
//! background flusher enabled. In debug and `--features lockdep` builds
//! this drives the flusher's park checkpoint and the `pagecache.lru` /
//! `pagecache.flusher` rank discipline under real interleavings — the
//! stress must finish lockdep-green.

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
    // for a per-file-victim flusher, hardest — interleaving).
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

/// The same pressure from 8 OS threads with the background flusher on.
/// Exercises the `pagecache.lru`/`pagecache.flusher` lock discipline and
/// the flusher park checkpoint under real interleavings (lockdep-checked
/// in debug and `--features lockdep` builds). The bound allows a small
/// transient overage: each thread detects the crossing only after its own
/// insert.
#[test]
fn threaded_writers_with_flusher_stay_bounded_and_lossless() {
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
                // concurrent background flusher draining the same files.
                kernel.fsync(pid, fd, false).expect("fsync");
                kernel.close(pid, fd).expect("close");
            }
        }));
    }
    for h in handles {
        h.join().expect("writer thread must not panic");
    }

    // All dirty data eventually drains (flusher or inline), and contents
    // survive the concurrent reclaim/write-back byte-identically.
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
