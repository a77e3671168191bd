//! The closed loop every workload runs in, and the metrics it reports.
//!
//! One client thread issues the next operation only after the previous one
//! returned. Operations come in epochs (a cache-drop cycle, an fsync
//! cadence, one plane iteration); the loop checks its budget only between
//! epochs, so a run always ends on the workload's own rhythm.

use crate::measure::{median, rss_peak_mib, Samples, Tracer};
use crate::probe::Probe;
use std::time::Instant;

/// Input sizes. `Sizes::full()` is the benchmark; smaller scales exist for
/// the smoke test, with floors that keep every mechanism engaged.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Files in meta-walk's fat-image tree.
    pub tree_files: usize,
    /// Files in the app's own (native) tree.
    pub native_files: usize,
    /// Operations between meta-walk's cache drops.
    pub meta_epoch: u64,
    /// Files in the io working set.
    pub io_files: usize,
    /// Bytes per io file.
    pub io_file_bytes: usize,
    /// Operations between io-spill's fsyncs (and io-fit's budget checks).
    pub io_epoch: u64,
    /// Live sessions on the attach plane.
    pub sessions: usize,
}

impl Sizes {
    pub fn scaled(scale: f64) -> Sizes {
        let s = |full: f64, floor: f64| (full * scale).round().max(floor);
        Sizes {
            tree_files: s(16384.0, 64.0) as usize,
            native_files: s(1024.0, 16.0) as usize,
            meta_epoch: s(4096.0, 16.0) as u64,
            io_files: s(64.0, 4.0) as usize,
            io_file_bytes: s(1048576.0, 65536.0) as usize,
            io_epoch: s(256.0, 16.0) as u64,
            sessions: s(1000.0, 4.0) as usize,
        }
    }

    pub fn full() -> Sizes {
        Sizes::scaled(1.0)
    }
}

/// When a phase ends: after this many operations, rounded up to a whole
/// epoch, or, on a host too slow to finish them, at the first epoch end
/// after this many seconds.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub ops: u64,
    pub seconds: f64,
}

impl Budget {
    fn halved(self) -> Budget {
        Budget {
            seconds: self.seconds / 2.0,
            ops: (self.ops / 2).max(1),
        }
    }
}

/// Which share of the tools an operation touched.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Served over CntrFS from the fat container (or the plane).
    Tools,
    /// The app's own tree, reached natively under `/var/lib/cntr`.
    Native,
}

/// Facts a workload reports beyond each op's latency.
pub struct Extras {
    pub native: Samples,
    pub start: Samples,
    pub attach: Samples,
    pub teardown: Samples,
    /// Bytes the operations moved between caller and system.
    pub bytes: u64,
    /// Of those, bytes written.
    pub written: u64,
    /// Plane bytes and the time their stream rounds took.
    pub stream_bytes: u64,
    pub stream_ns: u64,
}

impl Extras {
    fn new() -> Extras {
        Extras {
            native: Samples::new(1 << 16),
            start: Samples::new(1 << 12),
            attach: Samples::new(1 << 12),
            teardown: Samples::new(1 << 12),
            bytes: 0,
            written: 0,
            stream_bytes: 0,
            stream_ns: 0,
        }
    }
}

/// A workload: the system built for it, and its operations.
pub trait Workload: Sized {
    /// Inputs generated from the seed, shared by every set-up of a run.
    type Inputs;

    /// Operations per second of `--seconds`: about the closed loop's rate
    /// on the 2-vCPU Xeon host the baseline was taken on (README.md).
    const OPS_PER_S: u64;

    /// Whether set-up ends with one untimed epoch of operations. Off for a
    /// workload whose set-up already warms what it uses, so one-time work
    /// its operations trigger (io-spill's copy-ups) lands in the measured
    /// phase.
    const WARM_EPOCH: bool = true;

    fn inputs(seed: u64, sizes: &Sizes) -> Self::Inputs;

    /// Builds the system under test and its op generator.
    fn setup(inputs: &Self::Inputs, seed: u64, sizes: &Sizes) -> Result<Self, String>;

    /// Operations per epoch.
    fn epoch_ops(&self) -> u64;

    /// Issues one operation and checks its result against the model.
    fn op(&mut self, tr: &mut Tracer, x: &mut Extras) -> Result<Kind, String>;

    /// Work at the end of every epoch (cache drop, fsync).
    fn epoch_end(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        Ok(())
    }

    fn probe(&self) -> Probe;

    /// Checks that need the timed phase to be over.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Takes the system down through its public teardown path.
    fn teardown(self) -> Result<(), String>;
}

/// What one phase measured.
pub struct Phase {
    pub ops: u64,
    pub failed: u64,
    pub wall_ns: u64,
    /// Time inside the system: every operation's calls plus the epochs'
    /// cache drops and fsyncs. The bench's own work is not in it.
    pub busy_ns: u64,
    pub lat: Samples,
    pub x: Extras,
    pub delta: Probe,
    pub tracer: Tracer,
}

fn phase<W: Workload>(w: &mut W, budget: Budget, traced: bool) -> Phase {
    let mut tr = Tracer::new(traced);
    let mut x = Extras::new();
    let mut lat = Samples::new(1 << 20);
    let (mut ops, mut failed, mut busy_ns) = (0u64, 0u64, 0u64);
    let before = w.probe();
    let start = Instant::now();
    let t0 = obs::now_ns();
    loop {
        for _ in 0..w.epoch_ops() {
            tr.begin_op(ops);
            let a = obs::now_ns();
            let res = w.op(&mut tr, &mut x);
            let b = obs::now_ns();
            tr.end_op(a, b);
            let sys = tr.take_sys_ns();
            busy_ns += sys;
            ops += 1;
            match res {
                Ok(kind) => {
                    lat.record(sys);
                    if kind == Kind::Native {
                        x.native.record(sys);
                    }
                }
                Err(e) => {
                    failed += 1;
                    if failed <= 5 {
                        eprintln!("op {ops} failed: {e}");
                    }
                }
            }
        }
        if let Err(e) = w.epoch_end(&mut tr) {
            failed += 1;
            eprintln!("epoch end failed: {e}");
        }
        busy_ns += tr.take_sys_ns();
        if ops >= budget.ops || start.elapsed().as_secs_f64() >= budget.seconds {
            break;
        }
    }
    let wall_ns = obs::now_ns() - t0;
    Phase {
        ops,
        failed,
        wall_ns,
        busy_ns,
        lat,
        x,
        delta: w.probe().since(&before),
        tracer: tr,
    }
}

/// A finished run: the result line's fields.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 5;

fn setup_and_warm<W: Workload>(inputs: &W::Inputs, seed: u64, sizes: &Sizes) -> Result<W, String> {
    let mut w = W::setup(inputs, seed, sizes)?;
    if W::WARM_EPOCH {
        // One epoch untimed fills the caches and finishes lazy set-up; a
        // failure here means the system is broken before measuring starts.
        let warm = phase(
            &mut w,
            Budget {
                seconds: 0.0,
                ops: 1,
            },
            false,
        );
        if warm.failed > 0 {
            return Err(format!("{} warm-up operations failed", warm.failed));
        }
    }
    Ok(w)
}

/// The untraced run: end-to-end metrics only.
pub fn run_e2e<W: Workload>(
    seed: u64,
    sizes: &Sizes,
    budget: Budget,
) -> Result<(Report, Probe), String> {
    let inputs = W::inputs(seed, sizes);
    let mut setup_s = Vec::new();
    let mut world: Option<W> = None;
    for _ in 0..SETUPS {
        if let Some(w) = world.take() {
            w.teardown()?;
        }
        let t = Instant::now();
        world = Some(setup_and_warm::<W>(&inputs, seed, sizes)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = world.expect("at least one set-up");
    let p = phase(&mut w, budget, false);
    let finished = w.finish();
    let rss = rss_peak_mib();
    w.teardown()?;
    let mut notes = vec![format!(
        "{} ops in {:.2} s, {:.2} s of it inside the system, {} failed; set-ups {:?} s",
        p.ops,
        p.wall_ns as f64 / 1e9,
        p.busy_ns as f64 / 1e9,
        p.failed,
        setup_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    )];
    // Wall-clock figures, ungated here: on a shared host they drift more
    // than any useful bound between runs (README.md, "Noise"). The traced
    // run reports them among the per-layer metrics.
    notes.push(
        wall_clock(&p)
            .iter()
            .map(|(name, v)| format!("{name} {v:.3}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    if let Err(e) = &finished {
        notes.push(format!("final check failed: {e}"));
    }
    let report = Report {
        correct: p.failed == 0 && finished.is_ok(),
        attempted: p.ops,
        failed: p.failed,
        metrics: vec![
            ("setup_s", median(&setup_s)),
            ("rss_peak_mib", rss),
            (
                "virt_us_per_op",
                p.delta.virt_ns as f64 / p.ops as f64 / 1e3,
            ),
        ],
        notes,
    };
    Ok((report, p.delta))
}

/// Throughput and latency of a phase, in wall-clock time spent inside the
/// system (the bench's own work excluded).
fn wall_clock(p: &Phase) -> [(&'static str, f64); 3] {
    let q = p.lat.quantiles_us(&[0.5, 0.99]);
    [
        ("ops_per_s", p.ops as f64 / (p.busy_ns as f64 / 1e9)),
        ("op_p50_us", q[0]),
        ("op_p99_us", q[1]),
    ]
}

/// The traced run: an untraced phase, then the same workload traced.
/// Per-layer numbers come from the traced phase (counts from both); the
/// gap between the two phases is the tracing overhead.
pub fn run_traced<W: Workload>(
    seed: u64,
    sizes: &Sizes,
    budget: Budget,
    chrome: Option<&std::path::Path>,
) -> Result<(Report, Probe), String> {
    let inputs = W::inputs(seed, sizes);
    let mut w = setup_and_warm::<W>(&inputs, seed, sizes)?;
    let before = w.probe();
    let a = phase(&mut w, budget.halved(), false);
    let b = phase(&mut w, budget.halved(), true);
    let counts = w.probe().since(&before);
    let finished = w.finish();
    if let Some(path) = chrome {
        b.tracer
            .write_chrome(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    w.teardown()?;
    let (metrics, notes) = per_layer(&a, &b, &counts);
    let failed = a.failed + b.failed;
    let mut notes = notes;
    if let Err(e) = &finished {
        notes.push(format!("final check failed: {e}"));
    }
    Ok((
        Report {
            correct: failed == 0 && finished.is_ok(),
            attempted: a.ops + b.ops,
            failed,
            metrics,
            notes,
        },
        counts,
    ))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics: counts per op over both phases (`c`), times from
/// the traced phase `b`'s spans and histogram deltas, user-level figures
/// from the untraced phase `a`.
fn per_layer(a: &Phase, b: &Phase, c: &Probe) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let n = (a.ops + b.ops) as f64;
    let nb = b.ops as f64;
    let d = &b.delta;
    let tr = &b.tracer;
    let us_per_op = |ns: u64| ns as f64 / nb / 1e3;
    let span_mean_us = |name: &str| {
        let t = tr.total(name);
        ratio(t.ns as f64, t.count as f64) / 1e3
    };
    // The additivity identity, over the traced phase's op spans: an op's
    // wall time is its kernel self time, its FUSE round trips, the bench's
    // own work, any other calls, and whatever no child span covers.
    let op_ns = tr.total("op").ns as f64;
    let kernel_ns = tr.prefix_ns("kernel.") as f64 - d.fuse_rt_ns as f64;
    let bench_ns = tr.prefix_ns("bench.");
    let other_ns = tr.covered_ns() - tr.prefix_ns("kernel.") - bench_ns;
    let residual = op_ns - tr.covered_ns() as f64;
    let wall_a = ratio(a.wall_ns as f64, a.ops as f64);
    let wall_b = ratio(b.wall_ns as f64, nb);
    let qa = |s: &Samples, q: f64| s.quantiles_us(&[q])[0];
    let mib = (1u64 << 20) as f64;
    let mib_per_s = if a.x.stream_ns > 0 {
        a.x.stream_bytes as f64 / mib / (a.x.stream_ns as f64 / 1e9)
    } else {
        a.x.bytes as f64 / mib / (a.busy_ns as f64 / 1e9)
    };
    let written = (a.x.written + b.x.written) as f64;
    let mut metrics = wall_clock(a).to_vec();
    metrics.extend([
        ("kernel.self_us_per_op", kernel_ns / nb / 1e3),
        (
            "pagecache.hit_ratio",
            ratio(c.pc_hits as f64, (c.pc_hits + c.pc_misses) as f64),
        ),
        ("pagecache.evictions_per_op", c.pc_evictions as f64 / n),
        (
            "pagecache.reclaim_scans_per_kop",
            c.pc_reclaim_scans as f64 / n * 1e3,
        ),
        (
            "pagecache.flushed_pages_per_op",
            c.pc_flushed_pages as f64 / n,
        ),
        (
            "pagecache.pages_per_flush_batch",
            ratio(c.pc_flushed_pages as f64, c.pc_flush_batches as f64),
        ),
        (
            "pagecache.throttle_stalls_per_kop",
            c.pc_throttle_stalls as f64 / n * 1e3,
        ),
        (
            "pagecache.throttle_stall_us_per_op",
            us_per_op(d.pc_throttle_stall_ns),
        ),
        (
            "pagecache.writeback_wakeups_per_kop",
            c.pc_writeback_wakeups as f64 / n * 1e3,
        ),
        ("fuse.req_per_op", c.fuse_req as f64 / n),
        ("fuse.lookup_per_op", c.fuse_lookup as f64 / n),
        ("fuse.getattr_per_op", c.fuse_getattr as f64 / n),
        ("fuse.read_per_op", c.fuse_read as f64 / n),
        ("fuse.write_per_op", c.fuse_write as f64 / n),
        ("fuse.forget_per_op", c.fuse_forget as f64 / n),
        ("fuse.roundtrip_us_per_op", us_per_op(d.fuse_rt_ns)),
        (
            "fuse.lookup.mean_us",
            ratio(d.fuse_lookup_ns as f64, d.fuse_lookup as f64) / 1e3,
        ),
        (
            "fuse.getattr.mean_us",
            ratio(d.fuse_getattr_ns as f64, d.fuse_getattr as f64) / 1e3,
        ),
        (
            "fuse.read.mean_us",
            ratio(d.fuse_read_ns as f64, d.fuse_read as f64) / 1e3,
        ),
        (
            "fuse.write.mean_us",
            ratio(d.fuse_write_ns as f64, d.fuse_write as f64) / 1e3,
        ),
        ("core.cntrfs.live_inodes", c.live_inodes as f64),
        (
            "overlay.dcache_hit_ratio",
            ratio(c.ovl_dcache_hits as f64, c.ovl_dcache_lookups as f64),
        ),
        ("overlay.copy_ups", c.ovl_copy_ups as f64),
        ("overlay.copy_up_mib", c.ovl_copy_up_bytes as f64 / mib),
        ("blob.write_amp", ratio(c.blob_ingested as f64, written)),
        ("blob.physical_mib", c.blob_physical as f64 / mib),
        (
            "engine.start_us",
            ratio(d.spawn_ns as f64, d.spawns as f64) / 1e3,
        ),
        (
            "engine.stop_us",
            ratio(d.reap_ns as f64, d.reaps as f64) / 1e3,
        ),
        (
            "core.attach.attach_us",
            ratio(d.attach_ns as f64, d.attaches as f64) / 1e3,
        ),
        ("core.attach.forward_us", span_mean_us("core.forward")),
        ("core.attach.detach_us", span_mean_us("core.detach")),
        (
            "core.event_loop.pump_us_per_round",
            us_per_op(tr.total("core.pump").ns),
        ),
        ("core.event_loop.polls_per_round", c.loop_polls as f64 / n),
        ("core.event_loop.endpoints", c.endpoints as f64),
        (
            "kernel.socket.write_us_per_round",
            us_per_op(tr.total("kernel.socket.write").ns),
        ),
        (
            "kernel.socket.read_us_per_round",
            us_per_op(tr.total("kernel.socket.read").ns),
        ),
        ("bench.self_us_per_op", us_per_op(bench_ns)),
        ("trace.overhead_frac", ratio(wall_b, wall_a) - 1.0),
        ("trace.residual_frac", ratio(residual, op_ns)),
        ("mib_per_s", mib_per_s),
        ("native_op_p50_us", qa(&a.x.native, 0.5)),
        ("start_p50_ms", qa(&a.x.start, 0.5) / 1e3),
        ("attach_p50_ms", qa(&a.x.attach, 0.5) / 1e3),
        ("attach_p99_ms", qa(&a.x.attach, 0.99) / 1e3),
        ("teardown_p50_ms", qa(&a.x.teardown, 0.5) / 1e3),
        ("fail_frac", (a.failed + b.failed) as f64 / n),
    ]);
    let mut notes = vec![format!(
        "traced phase: {} ops, {:.3} us/op = kernel.self {:.3} + fuse.roundtrip {:.3} + bench.self {:.3} + other calls {:.3} + residual {:.3} ({:+.2}%)",
        b.ops,
        op_ns / nb / 1e3,
        kernel_ns / nb / 1e3,
        us_per_op(d.fuse_rt_ns),
        us_per_op(bench_ns),
        us_per_op(other_ns),
        residual / nb / 1e3,
        100.0 * ratio(residual, op_ns),
    )];
    for t in tr.totals() {
        notes.push(format!(
            "  span {:<22} n={:<9} mean {:>10.3} us  total {:>8.3} s",
            t.name,
            t.count,
            ratio(t.ns as f64, t.count as f64) / 1e3,
            t.ns as f64 / 1e9
        ));
    }
    (metrics, notes)
}
