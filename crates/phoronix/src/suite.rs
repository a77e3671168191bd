//! The 20 Phoronix workloads and the figure runners.
//!
//! Workload sizes are scaled down ~8× from the paper's (virtual time is
//! exact regardless; real memory and wall-clock stay laptop-friendly). Each
//! workload reproduces the I/O *pattern* the paper identifies as that
//! benchmark's bottleneck — see the per-workload comments.

use crate::env::{PerfEnv, Target};
use cntr_fuse::{FuseConfig, InitFlags};
use cntr_types::cost::CpuCosts;
use cntr_types::{OpenFlags, SysResult, Timespec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// One Phoronix benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 128 MB of 64 KiB asynchronous writes. Native uses `O_DIRECT` + aio;
    /// CntrFS rejects `O_DIRECT`, so requests fall back to synchronous
    /// buffered writes with periodic fsync (paper: 2.6×).
    AioStress,
    /// 20 K http requests: CPU + cached content read + a small access-log
    /// append, which costs an uncached `security.capability` lookup per
    /// write on the paper's FUSE profile (paper: 1.5×); a mount that
    /// negotiated `FUSE_HANDLE_KILLPRIV_V2` would check the log once.
    ApacheBench,
    /// Compile a kernel module: read sources, write objects, compile CPU
    /// (paper: 2.3×).
    CompileBenchCompile,
    /// Unpack-like creation of a source tree (paper: 7.3×).
    CompileBenchCreate,
    /// Recursively read a cold source tree: pure lookup storm (paper: 13.3×).
    CompileBenchRead,
    /// File-server op mix with N clients; mostly cache-served after warmup
    /// (paper: 1.4× at 1 client, ~1.0× at 12/48/128).
    Dbench(u32),
    /// 200 × 1 MB file creates with fsync — disk bound on both sides
    /// (paper: 1.0×).
    FsMark,
    /// Fileserver profile: 80% random reads / 20% random writes on a warm
    /// file, fdatasync at intervals. The writeback cache absorbs the syncs
    /// (paper: 0.2× — CntrFS *faster*).
    Fio,
    /// Read 192 MB, compress (CPU-bound), write back (paper: 1.0×).
    Gzip,
    /// Sequential 4 KiB-record reads of a cold file (paper: 2.1×).
    IozoneRead,
    /// Sequential 4 KiB-record writes with final fsync (paper: 1.2×).
    IozoneWrite,
    /// Mail-server transactions on small files: create/delete-heavy, lookup
    /// dominated (paper: 7.1×).
    Postmark,
    /// OLTP transactions: CPU + cached table reads + WAL appends with group
    /// commits via fdatasync (paper: 0.4× — CntrFS faster).
    PgBench,
    /// Row inserts each followed by a *full* fsync and a journal-file
    /// create/delete cycle (paper: 1.9×).
    Sqlite,
    /// 4 reader threads over a warm 64 MB file (paper: 1.1×).
    ThreadedIoRead,
    /// 4 writer threads, fdatasync at the end of each stream (paper: 0.3×
    /// — CntrFS faster).
    ThreadedIoWrite,
    /// Unpack a tarball: one large sequential read, many small creates
    /// (paper: 1.2×).
    UnpackTarball,
}

/// The Figure 2 row order (as in the paper's plot).
pub const ALL_WORKLOADS: [Workload; 20] = [
    Workload::AioStress,
    Workload::ApacheBench,
    Workload::CompileBenchCompile,
    Workload::CompileBenchCreate,
    Workload::CompileBenchRead,
    Workload::Dbench(1),
    Workload::Dbench(12),
    Workload::Dbench(128),
    Workload::Dbench(48),
    Workload::FsMark,
    Workload::Fio,
    Workload::Gzip,
    Workload::IozoneRead,
    Workload::IozoneWrite,
    Workload::Postmark,
    Workload::PgBench,
    Workload::Sqlite,
    Workload::ThreadedIoRead,
    Workload::ThreadedIoWrite,
    Workload::UnpackTarball,
];

impl Workload {
    /// Display name matching the paper's x-axis.
    pub fn name(&self) -> String {
        match self {
            Workload::AioStress => "AIO-Stress".into(),
            Workload::ApacheBench => "Apachebench".into(),
            Workload::CompileBenchCompile => "Compileb.: Comp.".into(),
            Workload::CompileBenchCreate => "Compileb.: Create".into(),
            Workload::CompileBenchRead => "Compileb.: Read".into(),
            Workload::Dbench(n) => format!("Dbench: {n} Clients"),
            Workload::FsMark => "FS-Mark".into(),
            Workload::Fio => "FIO".into(),
            Workload::Gzip => "Gzip".into(),
            Workload::IozoneRead => "IOzone: Read".into(),
            Workload::IozoneWrite => "IOzone: Write".into(),
            Workload::Postmark => "PostMark".into(),
            Workload::PgBench => "Pgbench".into(),
            Workload::Sqlite => "SQlite".into(),
            Workload::ThreadedIoRead => "Threaded I/O: Read".into(),
            Workload::ThreadedIoWrite => "Threaded I/O: Write".into(),
            Workload::UnpackTarball => "Unpack tarball".into(),
        }
    }

    /// The relative overhead the paper reports for this benchmark (Figure 2).
    pub fn paper_overhead(&self) -> f64 {
        match self {
            Workload::AioStress => 2.6,
            Workload::ApacheBench => 1.5,
            Workload::CompileBenchCompile => 2.3,
            Workload::CompileBenchCreate => 7.3,
            Workload::CompileBenchRead => 13.3,
            Workload::Dbench(1) => 1.4,
            Workload::Dbench(12) => 0.9,
            Workload::Dbench(128) => 1.0,
            Workload::Dbench(_) => 1.0,
            Workload::FsMark => 1.0,
            Workload::Fio => 0.2,
            Workload::Gzip => 1.0,
            Workload::IozoneRead => 2.1,
            Workload::IozoneWrite => 1.2,
            Workload::Postmark => 7.1,
            Workload::PgBench => 0.4,
            Workload::Sqlite => 1.9,
            Workload::ThreadedIoRead => 1.1,
            Workload::ThreadedIoWrite => 0.3,
            Workload::UnpackTarball => 1.2,
        }
    }

    /// The band the reproduction must land in for `cargo test` to pass.
    /// Shape-preserving, not point-exact (see EXPERIMENTS.md).
    pub fn accepted_band(&self) -> (f64, f64) {
        match self {
            Workload::AioStress => (1.4, 4.5),
            Workload::ApacheBench => (1.15, 2.4),
            Workload::CompileBenchCompile => (1.4, 4.0),
            Workload::CompileBenchCreate => (3.0, 13.0),
            Workload::CompileBenchRead => (6.0, 25.0),
            Workload::Dbench(1) => (0.9, 2.4),
            Workload::Dbench(_) => (0.7, 2.0),
            Workload::FsMark => (0.8, 1.45),
            Workload::Fio => (0.03, 0.6),
            Workload::Gzip => (0.9, 1.3),
            Workload::IozoneRead => (0.95, 3.0),
            Workload::IozoneWrite => (0.9, 2.6),
            Workload::Postmark => (3.0, 13.0),
            Workload::PgBench => (0.08, 0.8),
            Workload::Sqlite => (1.2, 3.2),
            Workload::ThreadedIoRead => (0.9, 1.7),
            Workload::ThreadedIoWrite => (0.03, 0.7),
            Workload::UnpackTarball => (0.95, 2.4),
        }
    }

    /// Runs the workload, returning virtual time spent.
    pub fn run(&self, env: &PerfEnv) -> Timespec {
        match self {
            Workload::AioStress => aio_stress(env),
            Workload::ApacheBench => apache_bench(env),
            Workload::CompileBenchCompile => compilebench_compile(env),
            Workload::CompileBenchCreate => compilebench_create(env),
            Workload::CompileBenchRead => compilebench_read(env),
            Workload::Dbench(n) => dbench(env, *n),
            Workload::FsMark => fs_mark(env),
            Workload::Fio => fio(env),
            Workload::Gzip => gzip(env),
            Workload::IozoneRead => iozone_read(env),
            Workload::IozoneWrite => iozone_write(env),
            Workload::Postmark => postmark(env),
            Workload::PgBench => pgbench(env),
            Workload::Sqlite => sqlite(env),
            Workload::ThreadedIoRead => threaded_io_read(env),
            Workload::ThreadedIoWrite => threaded_io_write(env),
            Workload::UnpackTarball => unpack_tarball(env),
        }
    }
}

// ---------------------------------------------------------------------
// Workload implementations
// ---------------------------------------------------------------------

fn aio_stress(env: &PerfEnv) -> Timespec {
    env.measure(|e| {
        let total = 48 * MB;
        let block = 64 * KB as usize;
        match e.try_open_direct("aio.dat") {
            Ok(fd) => {
                // Native: async direct writes stream at device speed.
                let mut off = 0u64;
                while off < total {
                    e.pwrite_zeroes(fd, off, block)?;
                    off += block as u64;
                }
                e.close(fd)
            }
            Err(_) => {
                // CntrFS: no O_DIRECT → synchronous buffered fallback with
                // periodic full fsync ("all requests are, in fact, processed
                // synchronously", §5.2.2).
                let fd = e.open("aio.dat", OpenFlags::create())?;
                let mut off = 0u64;
                let mut ops = 0u32;
                while off < total {
                    e.pwrite_zeroes(fd, off, block)?;
                    off += block as u64;
                    ops += 1;
                    if ops.is_multiple_of(4) {
                        e.fsync(fd)?;
                    }
                }
                e.fsync(fd)?;
                e.close(fd)
            }
        }
    })
}

fn apache_bench(env: &PerfEnv) -> Timespec {
    let cpu = CpuCosts::calibrated();
    // Content corpus, served warm.
    for i in 0..16 {
        env.create_file(&format!("htdocs-{i}.html"), 3 * KB)
            .unwrap();
    }
    for i in 0..16 {
        let fd = env
            .open(&format!("htdocs-{i}.html"), OpenFlags::RDONLY)
            .unwrap();
        env.pread_discard(fd, 0, 3 * KB as usize).unwrap();
        env.close(fd).unwrap();
    }
    env.measure(|e| {
        let log = e.open("access.log", OpenFlags::append())?;
        let mut log_off = 0u64;
        for i in 0..6_000u64 {
            e.cpu(cpu.http_request_ns / 2);
            let fd = e.open(&format!("htdocs-{}.html", i % 16), OpenFlags::RDONLY)?;
            e.pread_discard(fd, 0, 3 * KB as usize)?;
            e.close(fd)?;
            // The ~90-byte access-log line: on the paper's FUSE profile
            // each write costs an uncached security.capability round trip.
            e.pwrite_zeroes(log, log_off, 90)?;
            log_off += 90;
        }
        e.close(log)
    })
}

fn make_tree(env: &PerfEnv, dirs: u32, files: u32, file_size: u64) -> SysResult<()> {
    for d in 0..dirs {
        env.mkdir(&format!("tree-{d}"))?;
        env.mkdir(&format!("tree-{d}/kernel"))?;
        env.mkdir(&format!("tree-{d}/kernel/sched"))?;
        for f in 0..files {
            env.create_file(&format!("tree-{d}/kernel/sched/src-{f}.c"), file_size)?;
        }
    }
    Ok(())
}

fn compilebench_compile(env: &PerfEnv) -> Timespec {
    let cpu = CpuCosts::calibrated();
    make_tree(env, 8, 10, 8 * KB).unwrap();
    env.kernel.sync().unwrap();
    env.drop_meta_caches();
    env.measure(|e| {
        for d in 0..8 {
            for f in 0..10 {
                let dir = format!("tree-{d}/kernel/sched");
                let src = e.open(&format!("{dir}/src-{f}.c"), OpenFlags::RDONLY)?;
                e.pread_discard(src, 0, 8 * KB as usize)?;
                e.close(src)?;
                e.cpu(cpu.compile_file_ns / 32);
                let obj = e.open(&format!("{dir}/src-{f}.o"), OpenFlags::create())?;
                e.pwrite_zeroes(obj, 0, 12 * KB as usize)?;
                e.close(obj)?;
            }
        }
        Ok(())
    })
}

fn compilebench_create(env: &PerfEnv) -> Timespec {
    env.measure(|e| make_tree(e, 20, 15, 16 * KB))
}

fn compilebench_read(env: &PerfEnv) -> Timespec {
    make_tree(env, 20, 15, 4 * KB).unwrap();
    env.kernel.sync().unwrap();
    env.drop_meta_caches();
    env.measure(|e| {
        // Recursive cold read: readdir + per-file lookup + read — the
        // lookup storm that makes this the paper's worst case (13.3×).
        // Every CntrFS lookup costs a round trip plus the server-side
        // open+stat pair; native lookups are dcache hits.
        for d in 0..20 {
            let dir = format!("tree-{d}/kernel/sched");
            let entries = e.kernel.readdir(e.pid, &e.p(&dir))?;
            for entry in entries.iter().filter(|x| x.name.starts_with("src")) {
                let rel = format!("{dir}/{}", entry.name);
                e.stat(&rel)?;
                let fd = e.open(&rel, OpenFlags::RDONLY)?;
                e.pread_discard(fd, 0, 4 * KB as usize)?;
                e.close(fd)?;
            }
        }
        Ok(())
    })
}

fn dbench(env: &PerfEnv, clients: u32) -> Timespec {
    let mut rng = SmallRng::seed_from_u64(7);
    // Warm per-client working sets.
    for c in 0..clients {
        env.mkdir(&format!("client-{c}")).unwrap();
        for f in 0..8 {
            env.create_file(&format!("client-{c}/f{f}"), 64 * KB)
                .unwrap();
        }
    }
    env.measure(|e| {
        // dbench clients open their working set once and issue many ops on
        // the open handles, which is why the paper sees ~1.0× at scale:
        // with warm caches CntrFS serves the mix from the kernel too.
        for c in 0..clients {
            let fds: Vec<u32> = (0..8)
                .map(|f| e.open(&format!("client-{c}/f{f}"), OpenFlags::RDWR))
                .collect::<SysResult<_>>()?;
            for _ in 0..100 {
                let fd = fds[rng.gen_range(0..fds.len())];
                match rng.gen_range(0..10) {
                    0 => {
                        e.pwrite_zeroes(fd, rng.gen_range(0..32 * KB), 4 * KB as usize)?;
                    }
                    1 => {
                        e.stat(&format!("client-{c}/f{}", rng.gen_range(0..8)))?;
                    }
                    _ => {
                        e.pread_discard(fd, rng.gen_range(0..32 * KB), 8 * KB as usize)?;
                    }
                }
            }
            for fd in fds {
                e.close(fd)?;
            }
        }
        Ok(())
    })
}

fn fs_mark(env: &PerfEnv) -> Timespec {
    env.measure(|e| {
        for i in 0..50 {
            let rel = format!("mark-{i}");
            let fd = e.open(&rel, OpenFlags::create())?;
            let mut off = 0u64;
            while off < MB {
                e.pwrite_zeroes(fd, off, 16 * KB as usize)?;
                off += 16 * KB;
            }
            // fs_mark's default is fsync-per-file: disk bound on both sides.
            e.fsync(fd)?;
            e.close(fd)?;
        }
        Ok(())
    })
}

fn fio(env: &PerfEnv) -> Timespec {
    let mut rng = SmallRng::seed_from_u64(11);
    let file_size = 128 * MB;
    env.create_file("fio.dat", file_size).unwrap();
    // The dataset is warm (fio lays the file out first), as in the paper's
    // fileserver profile.
    env.measure(|e| {
        let fd = e.open("fio.dat", OpenFlags::RDWR)?;
        let block = 140 * KB as usize;
        for op in 0..800u32 {
            let off = rng.gen_range(0..(file_size - block as u64));
            if rng.gen_range(0..10) < 8 {
                e.pread_discard(fd, off, block)?;
            } else {
                e.pwrite_zeroes(fd, off, block)?;
            }
            if op % 256 == 255 {
                // fdatasync: honoured natively, absorbed by CNTR's delayed
                // sync under the writeback cache (§3.3).
                e.fdatasync(fd)?;
            }
        }
        e.fdatasync(fd)?;
        e.close(fd)
    })
}

fn gzip(env: &PerfEnv) -> Timespec {
    let cpu = CpuCosts::calibrated();
    env.create_file("big.bin", 64 * MB).unwrap();
    env.kernel.sync().unwrap();
    env.drop_caches().unwrap();
    env.measure(|e| {
        let src = e.open("big.bin", OpenFlags::RDONLY)?;
        let dst = e.open("big.bin.gz", OpenFlags::create())?;
        let mut off = 0u64;
        let mut out = 0u64;
        while off < 64 * MB {
            e.pread_discard(src, off, 128 * KB as usize)?;
            e.cpu(cpu.gzip(128 * KB));
            e.pwrite_zeroes(dst, out, 32 * KB as usize)?;
            off += 128 * KB;
            out += 32 * KB;
        }
        e.close(src)?;
        e.close(dst)
    })
}

fn iozone_read(env: &PerfEnv) -> Timespec {
    // Read-after-write, as iozone does: the native copy of the file still
    // fits in the page cache, but CntrFS's double-buffered copies (client
    // pages + server pages) do not — early pages were evicted by the time
    // the read pass returns to them (the paper's 8 GB / 16 GB RAM case).
    let size = 96 * MB;
    env.create_file("ioz.dat", size).unwrap();
    env.kernel.sync().unwrap();
    env.measure(|e| {
        let fd = e.open("ioz.dat", OpenFlags::RDONLY)?;
        let mut off = 0u64;
        while off < size {
            e.pread_discard(fd, off, 4 * KB as usize)?;
            off += 4 * KB;
        }
        e.close(fd)
    })
}

fn iozone_write(env: &PerfEnv) -> Timespec {
    env.measure(|e| {
        let size = 96 * MB;
        let fd = e.open("ioz-w.dat", OpenFlags::create())?;
        let mut off = 0u64;
        while off < size {
            e.pwrite_zeroes(fd, off, 4 * KB as usize)?;
            off += 4 * KB;
        }
        // IOzone includes flush in the write timing (-e).
        e.fsync(fd)?;
        e.close(fd)
    })
}

fn postmark(env: &PerfEnv) -> Timespec {
    let mut rng = SmallRng::seed_from_u64(13);
    env.mkdir("mail").unwrap();
    for i in 0..150 {
        env.create_file(&format!("mail/m{i}"), rng.gen_range(4 * KB..32 * KB))
            .unwrap();
    }
    env.measure(|e| {
        let mut next_id = 150u32;
        let mut live: Vec<u32> = (0..150).collect();
        for _ in 0..1000 {
            match rng.gen_range(0..10) {
                0..=2 => {
                    let rel = format!("mail/m{next_id}");
                    e.create_file(&rel, rng.gen_range(4 * KB..32 * KB))?;
                    live.push(next_id);
                    next_id += 1;
                }
                3..=4 => {
                    if live.len() > 10 {
                        let idx = rng.gen_range(0..live.len());
                        let id = live.swap_remove(idx);
                        // Deleted before ever being synced: under CntrFS the
                        // data never reaches the disk at all.
                        e.unlink(&format!("mail/m{id}"))?;
                    }
                }
                5..=7 => {
                    let id = live[rng.gen_range(0..live.len())];
                    let fd = e.open(&format!("mail/m{id}"), OpenFlags::RDONLY)?;
                    e.pread_discard(fd, 0, 4 * KB as usize)?;
                    e.close(fd)?;
                }
                _ => {
                    let id = live[rng.gen_range(0..live.len())];
                    let fd = e.open(&format!("mail/m{id}"), OpenFlags::append())?;
                    e.pwrite_zeroes(fd, 0, KB as usize)?;
                    e.close(fd)?;
                }
            }
        }
        Ok(())
    })
}

fn pgbench(env: &PerfEnv) -> Timespec {
    let mut rng = SmallRng::seed_from_u64(17);
    env.create_file("table.dat", 32 * MB).unwrap();
    // Warm the table.
    let fd = env.open("table.dat", OpenFlags::RDONLY).unwrap();
    let mut off = 0u64;
    while off < 32 * MB {
        env.pread_discard(fd, off, 128 * KB as usize).unwrap();
        off += 128 * KB;
    }
    env.close(fd).unwrap();
    env.measure(|e| {
        let table = e.open("table.dat", OpenFlags::RDWR)?;
        let wal = e.open("wal.log", OpenFlags::append())?;
        let mut wal_off = 0u64;
        for txn in 0..800u32 {
            e.cpu(120_000); // parse/plan/execute
            for _ in 0..2 {
                let off = rng.gen_range(0..32 * MB - 8 * KB);
                e.pread_discard(table, off, 8 * KB as usize)?;
            }
            e.pwrite_zeroes(wal, wal_off, 8 * KB as usize)?;
            wal_off += 8 * KB;
            // Group commit: wal_sync_method = fdatasync, every ~16 txns.
            if txn % 16 == 15 {
                e.fdatasync(wal)?;
            }
        }
        e.fdatasync(wal)?;
        e.close(wal)?;
        e.close(table)
    })
}

fn sqlite(env: &PerfEnv) -> Timespec {
    let cpu = CpuCosts::calibrated();
    env.create_file("app.db", 4 * MB).unwrap();
    env.measure(|e| {
        let db = e.open("app.db", OpenFlags::RDWR)?;
        let mut off = 4 * MB;
        for i in 0..200u32 {
            e.cpu(cpu.sql_insert_ns);
            // Rollback journal: created, written, synced, deleted per txn.
            let journal = format!("app.db-journal-{}", i % 2);
            let jfd = e.open(&journal, OpenFlags::create())?;
            e.pwrite_zeroes(jfd, 0, 4 * KB as usize)?;
            e.fsync(jfd)?; // full fsync: honoured on both targets
            e.close(jfd)?;
            e.pwrite_zeroes(db, off, 512)?;
            off += 512;
            e.fsync(db)?;
            e.unlink(&journal)?;
        }
        e.close(db)
    })
}

fn threaded_io_read(env: &PerfEnv) -> Timespec {
    env.create_file("tio.dat", 32 * MB).unwrap();
    env.measure(|e| {
        let fd = e.open("tio.dat", OpenFlags::RDONLY)?;
        // 4 logical reader threads × 1 pass each; the first pass may be
        // cold, the rest hit the page cache.
        for _ in 0..4 {
            let mut off = 0u64;
            while off < 32 * MB {
                e.pread_discard(fd, off, 64 * KB as usize)?;
                off += 64 * KB;
            }
        }
        e.close(fd)
    })
}

fn threaded_io_write(env: &PerfEnv) -> Timespec {
    env.measure(|e| {
        for t in 0..4 {
            let fd = e.open(&format!("tio-w{t}.dat"), OpenFlags::create())?;
            let mut off = 0u64;
            while off < 32 * MB {
                e.pwrite_zeroes(fd, off, 64 * KB as usize)?;
                off += 64 * KB;
            }
            // Each stream ends with fdatasync — absorbed by CNTR's delayed
            // sync, a full device drain natively.
            e.fdatasync(fd)?;
            e.close(fd)?;
        }
        Ok(())
    })
}

fn unpack_tarball(env: &PerfEnv) -> Timespec {
    env.create_file("linux.tar", 48 * MB).unwrap();
    env.kernel.sync().unwrap();
    env.drop_caches().unwrap();
    env.measure(|e| {
        let tar = e.open("linux.tar", OpenFlags::RDONLY)?;
        e.mkdir("linux-src")?;
        let mut tar_off = 0u64;
        for i in 0..200u32 {
            e.pread_discard(tar, tar_off, 240 * KB as usize)?;
            tar_off += 240 * KB;
            let fd = e.open(&format!("linux-src/f{i}.c"), OpenFlags::create())?;
            e.pwrite_zeroes(fd, 0, 24 * KB as usize)?;
            e.close(fd)?;
        }
        e.close(tar)
    })
}

/// IOzone sequential read with a cold *client* cache but a warm server:
/// every 4 KiB record crosses the FUSE protocol (readahead batches it into
/// 128 KiB requests) without touching the disk. This is the configuration
/// where the transfer-path optimizations are visible — Figures 3(d) and 4.
fn iozone_read_fuse_cold(env: &PerfEnv) -> Timespec {
    let size = 96 * MB;
    env.create_file("ioz.dat", size).unwrap();
    env.kernel.sync().unwrap();
    env.drop_client_pages().unwrap();
    env.measure(|e| {
        let fd = e.open("ioz.dat", OpenFlags::RDONLY)?;
        let mut off = 0u64;
        while off < size {
            e.pread_discard(fd, off, 4 * KB as usize)?;
            off += 4 * KB;
        }
        e.close(fd)
    })
}

// ---------------------------------------------------------------------
// Runners
// ---------------------------------------------------------------------

/// One Figure 2 row.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Benchmark name.
    pub name: String,
    /// Native virtual time.
    pub native: Timespec,
    /// CntrFS virtual time.
    pub cntrfs: Timespec,
    /// The paper's reported overhead.
    pub paper: f64,
    /// Accepted band.
    pub band: (f64, f64),
}

impl BenchRow {
    /// Measured relative overhead (>1 = CntrFS slower).
    pub fn overhead(&self) -> f64 {
        self.cntrfs.as_nanos() as f64 / self.native.as_nanos().max(1) as f64
    }

    /// True if the measured overhead falls in the accepted band.
    pub fn in_band(&self) -> bool {
        let (lo, hi) = self.band;
        (lo..=hi).contains(&self.overhead())
    }
}

/// Builds the environment a workload runs in. IOzone's read test uses a
/// page cache sized between 1× and 2× its file (see [`Workload::IozoneRead`]).
pub fn env_for(w: Workload, target: Target) -> PerfEnv {
    let _ = w;
    PerfEnv::build(target)
}

/// Runs one workload on both targets (fresh environments each).
pub fn run_workload(w: Workload, fuse: FuseConfig) -> BenchRow {
    let native_env = env_for(w, Target::Native);
    let native = w.run(&native_env);
    let cntr_env = env_for(w, Target::Cntrfs(fuse));
    let cntrfs = w.run(&cntr_env);
    BenchRow {
        name: w.name(),
        native,
        cntrfs,
        paper: w.paper_overhead(),
        band: w.accepted_band(),
    }
}

/// Figure 2: every benchmark with CNTR's shipping configuration.
pub fn figure2() -> Vec<BenchRow> {
    ALL_WORKLOADS
        .iter()
        // Figures are calibrated against the paper's published
        // configuration (splice-write off): `FuseConfig::paper()`.
        .map(|w| run_workload(*w, FuseConfig::paper()))
        .collect()
}

/// One Figure 3 ablation panel.
#[derive(Debug, Clone)]
pub struct Figure3Row {
    /// Panel label.
    pub panel: &'static str,
    /// Optimization toggled.
    pub optimization: &'static str,
    /// Workload time with the optimization off.
    pub before: Timespec,
    /// Workload time with it on.
    pub after: Timespec,
}

impl Figure3Row {
    /// Speedup from the optimization.
    pub fn speedup(&self) -> f64 {
        self.before.as_nanos() as f64 / self.after.as_nanos().max(1) as f64
    }
}

/// Figure 3: each §3.3 optimization toggled individually.
pub fn figure3() -> Vec<Figure3Row> {
    let base = FuseConfig::paper();
    let toggle = |f: fn(&mut InitFlags)| {
        let mut flags = base.flags;
        f(&mut flags);
        base.with_flags(flags)
    };

    // (a) Read cache (FOPEN_KEEP_CACHE): threaded re-reads.
    let off = toggle(|f| f.keep_cache = false);
    let a_before = Workload::ThreadedIoRead.run(&PerfEnv::build(Target::Cntrfs(off)));
    let a_after = Workload::ThreadedIoRead.run(&PerfEnv::build(Target::Cntrfs(base)));

    // (b) Writeback cache: sequential writes.
    let off = toggle(|f| f.writeback_cache = false);
    let b_before = Workload::IozoneWrite.run(&PerfEnv::build(Target::Cntrfs(off)));
    let b_after = Workload::IozoneWrite.run(&PerfEnv::build(Target::Cntrfs(base)));

    // (c) Batching (FUSE_PARALLEL_DIROPS): compilebench read.
    let off = toggle(|f| f.parallel_dirops = false);
    let c_before = Workload::CompileBenchRead.run(&PerfEnv::build(Target::Cntrfs(off)));
    let c_after = Workload::CompileBenchRead.run(&PerfEnv::build(Target::Cntrfs(base)));

    // (d) Splice read: sequential reads served by the server's cache, so
    // the reply-transfer cost is visible (the disk would mask it).
    let off = toggle(|f| f.splice_read = false);
    let d_before = iozone_read_fuse_cold(&PerfEnv::build(Target::Cntrfs(off)));
    let d_after = iozone_read_fuse_cold(&PerfEnv::build(Target::Cntrfs(base)));

    vec![
        Figure3Row {
            panel: "(a)",
            optimization: "Read cache (FOPEN_KEEP_CACHE)",
            before: a_before,
            after: a_after,
        },
        Figure3Row {
            panel: "(b)",
            optimization: "Writeback cache (FUSE_WRITEBACK_CACHE)",
            before: b_before,
            after: b_after,
        },
        Figure3Row {
            panel: "(c)",
            optimization: "Batching (FUSE_PARALLEL_DIROPS)",
            before: c_before,
            after: c_after,
        },
        Figure3Row {
            panel: "(d)",
            optimization: "Splice read (FUSE_SPLICE_READ)",
            before: d_before,
            after: d_after,
        },
    ]
}

/// One Figure 4 point: sequential read throughput vs worker threads.
#[derive(Debug, Clone, Copy)]
pub struct Figure4Row {
    /// CntrFS worker threads.
    pub threads: usize,
    /// Measured sequential-read throughput (MB/s, virtual).
    pub throughput_mb_s: f64,
}

/// Figure 4: IOzone sequential read with 1–16 CntrFS threads.
///
/// Each point runs over [`Target::Cntrfs`] with the paper profile's
/// worker count set to the point's thread count. As in the paper's
/// experiment the workload is a single sequential reader, so one request
/// is in flight at a time, and the thread-count *deltas* in the curve come
/// from the virtual clock pricing the per-request worker synchronization
/// (`FuseClientFs::charge`); the transport runs every request on the
/// reader's thread. Real multi-threaded wall-clock scaling is not
/// measured: the concurrency tests check its correctness only.
pub fn figure4() -> Vec<Figure4Row> {
    [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&threads| {
            let cfg = FuseConfig::paper().with_workers(threads);
            let env = PerfEnv::build(Target::Cntrfs(cfg));
            let t = iozone_read_fuse_cold(&env);
            let mb = 96.0;
            Figure4Row {
                threads,
                throughput_mb_s: mb / t.as_secs_f64(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline calibration test: every Figure 2 row must land in its
    /// accepted band, preserving the paper's shape (who wins, roughly by
    /// how much).
    #[test]
    fn figure2_shape_matches_paper() {
        let rows = figure2();
        let mut failures = Vec::new();
        for r in &rows {
            if !r.in_band() {
                failures.push(format!(
                    "{}: measured {:.2}x, paper {:.1}x, band {:?} (native={}, cntrfs={})",
                    r.name,
                    r.overhead(),
                    r.paper,
                    r.band,
                    r.native,
                    r.cntrfs
                ));
            }
        }
        assert!(
            failures.is_empty(),
            "out-of-band rows:\n{}",
            failures.join("\n")
        );
        // Cross-row shape checks from the paper's summary (§5.2.1).
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.name == name)
                .map(BenchRow::overhead)
                .expect("row present")
        };
        assert!(get("Compileb.: Read") > get("Compileb.: Comp."));
        assert!(get("Compileb.: Create") > get("Compileb.: Comp."));
        assert!(get("FIO") < 1.0, "FIO must be faster through CntrFS");
        assert!(get("Pgbench") < 1.0);
        assert!(get("Threaded I/O: Write") < 1.0);
        let below_1_5 = rows.iter().filter(|r| r.overhead() < 1.5).count();
        assert!(
            below_1_5 >= 10,
            "most benchmarks have moderate overhead; got {below_1_5}/20 below 1.5x"
        );
        // Virtual time reproduces bit for bit, so beyond the bands every
        // row's native and CntrFS nanoseconds are pinned.
        let expected: [(&str, u64, u64); 20] = [
            ("AIO-Stress", 314804250, 625049570),
            ("Apachebench", 88852650, 127937128),
            ("Compileb.: Comp.", 2722000, 5778056),
            ("Compileb.: Create", 1191000, 7571169),
            ("Compileb.: Read", 948000, 6715790),
            ("Dbench: 1 Clients", 141950, 232666),
            ("Dbench: 12 Clients", 1764100, 2733039),
            ("Dbench: 128 Clients", 18809350, 29181321),
            ("Dbench: 48 Clients", 7047050, 10990709),
            ("FS-Mark", 383487500, 428731680),
            ("FIO", 1059600817, 35150427),
            ("Gzip", 2317201708, 2332863571),
            ("IOzone: Read", 17204100, 20897307),
            ("IOzone: Write", 641119350, 689737539),
            ("PostMark", 2134800, 11056855),
            ("Pgbench", 190420450, 103108316),
            ("SQlite", 443695300, 654053609),
            ("Threaded I/O: Read", 13722500, 14036507),
            ("Threaded I/O: Write", 856100600, 50975804),
            ("Unpack tarball", 622642800, 636418649),
        ];
        let got: Vec<(&str, u64, u64)> = rows
            .iter()
            .map(|r| (r.name.as_str(), r.native.as_nanos(), r.cntrfs.as_nanos()))
            .collect();
        assert_eq!(got, expected, "Figure 2 drifted from its pinned values");
    }

    #[test]
    fn figure3_optimizations_all_help() {
        let rows = figure3();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.speedup() > 1.0,
                "{} must improve performance, got {:.2}x",
                r.optimization,
                r.speedup()
            );
        }
        // Read cache is the dominant win (paper: ~10x); splice is marginal
        // (paper: ~5%).
        assert!(
            rows[0].speedup() > 2.0,
            "keep_cache: {:.2}",
            rows[0].speedup()
        );
        assert!(
            rows[2].speedup() > 1.5,
            "parallel dirops: {:.2}",
            rows[2].speedup()
        );
        assert!(
            rows[3].speedup() < 1.35,
            "splice read must be a small win: {:.2}",
            rows[3].speedup()
        );
        // Pinned like Figure 2: each panel's before/after nanoseconds.
        let expected: [(&str, u64, u64); 4] = [
            ("(a)", 29652880, 14036507),
            ("(b)", 757621023, 689737539),
            ("(c)", 12931790, 6715790),
            ("(d)", 54106461, 42799965),
        ];
        let got: Vec<(&str, u64, u64)> = rows
            .iter()
            .map(|r| (r.panel, r.before.as_nanos(), r.after.as_nanos()))
            .collect();
        assert_eq!(got, expected, "Figure 3 drifted from its pinned values");
    }

    #[test]
    fn figure4_multithreading_costs_little() {
        let rows = figure4();
        let t1 = rows[0].throughput_mb_s;
        let t16 = rows.last().unwrap().throughput_mb_s;
        assert!(t16 < t1, "more workers must not be free");
        assert!(
            t16 > t1 * 0.80,
            "degradation stays mild (paper: up to ~8%): 1thr={t1:.0} 16thr={t16:.0}"
        );
    }

    /// Figure 4 is virtual time, so it reproduces bit for bit: the points
    /// depend only on the negotiated FUSE features and worker count.
    #[test]
    fn figure4_points_are_pinned() {
        let expected: [(usize, f64); 5] = [
            (1, 2264.229710821308),
            (2, 2253.5610666339276),
            (4, 2242.992488428437),
            (8, 2232.522574931074),
            (16, 2222.1499509101614),
        ];
        let got: Vec<(usize, u64)> = figure4()
            .iter()
            .map(|r| (r.threads, r.throughput_mb_s.to_bits()))
            .collect();
        let want: Vec<(usize, u64)> = expected.iter().map(|&(t, v)| (t, v.to_bits())).collect();
        assert_eq!(got, want, "Figure 4 drifted from its pinned values");
    }
}
