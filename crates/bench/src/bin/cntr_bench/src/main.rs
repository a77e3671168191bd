//! `cntr_bench`: one end-to-end benchmark over the attach path.
//!
//! ```text
//! cntr_bench run --workload <meta-walk|io-fit|io-spill|attach-plane> --seed <n>
//!                [--seconds <s>] [--trace <0|1|file>]
//! cntr_bench compare <parent-dir> <change-dir> [--spec <BENCHMARK.json>]
//! ```
//!
//! `run` builds the system through its public API, drives one workload in
//! a closed loop for a fixed number of operations (`--seconds` times the
//! workload's nominal rate), checks every result against a model of the
//! expected outputs, and prints its metrics; the last line of standard
//! output is the result as one JSON object. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` (or a file name, which also receives a
//! chrome-trace of the traced phase) prints the per-layer metrics. See
//! README.md for the workloads and the metric/layer table.

mod compare;
mod io;
mod json;
mod measure;
mod meta_walk;
mod plane;
mod probe;
mod rng;
mod runner;
mod tree;
mod world;

#[cfg(test)]
mod smoke;

use runner::{Budget, Report, Sizes, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["meta-walk", "io-fit", "io-spill", "attach-plane"];

/// End-to-end metrics and their units, printed by `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("rss_peak_mib", "MiB"),
    ("virt_us_per_op", "us"),
];

/// Per-layer metrics and their units, printed by `--trace 1`. The first
/// three are the untraced phase's wall-clock throughput and latency.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("kernel.self_us_per_op", "us"),
    ("pagecache.hit_ratio", "ratio"),
    ("pagecache.evictions_per_op", "count"),
    ("pagecache.reclaim_scans_per_kop", "count"),
    ("pagecache.flushed_pages_per_op", "count"),
    ("pagecache.pages_per_flush_batch", "count"),
    ("pagecache.throttle_stalls_per_kop", "count"),
    ("pagecache.throttle_stall_us_per_op", "us"),
    ("pagecache.writeback_wakeups_per_kop", "count"),
    ("fuse.req_per_op", "count"),
    ("fuse.lookup_per_op", "count"),
    ("fuse.getattr_per_op", "count"),
    ("fuse.read_per_op", "count"),
    ("fuse.write_per_op", "count"),
    ("fuse.forget_per_op", "count"),
    ("fuse.roundtrip_us_per_op", "us"),
    ("fuse.lookup.mean_us", "us"),
    ("fuse.getattr.mean_us", "us"),
    ("fuse.read.mean_us", "us"),
    ("fuse.write.mean_us", "us"),
    ("core.cntrfs.live_inodes", "count"),
    ("overlay.dcache_hit_ratio", "ratio"),
    ("overlay.copy_ups", "count"),
    ("overlay.copy_up_mib", "MiB"),
    ("blob.write_amp", "ratio"),
    ("blob.physical_mib", "MiB"),
    ("engine.start_us", "us"),
    ("engine.stop_us", "us"),
    ("core.attach.attach_us", "us"),
    ("core.attach.forward_us", "us"),
    ("core.attach.detach_us", "us"),
    ("core.event_loop.pump_us_per_round", "us"),
    ("core.event_loop.polls_per_round", "count"),
    ("core.event_loop.endpoints", "count"),
    ("kernel.socket.write_us_per_round", "us"),
    ("kernel.socket.read_us_per_round", "us"),
    ("bench.self_us_per_op", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.residual_frac", "ratio"),
    ("mib_per_s", "MiB/s"),
    ("native_op_p50_us", "us"),
    ("start_p50_ms", "ms"),
    ("attach_p50_ms", "ms"),
    ("attach_p99_ms", "ms"),
    ("teardown_p50_ms", "ms"),
    ("fail_frac", "ratio"),
];

/// A checked `run` invocation.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: &'static str,
    pub seed: u64,
    /// Nominal length of the measured phase: it sets the op count, and
    /// twice it caps the phase on a slow host.
    pub seconds: f64,
    /// An op count in place of the one `seconds` sets (the smoke test).
    pub ops: Option<u64>,
    pub trace: bool,
    pub chrome: Option<PathBuf>,
    pub sizes: Sizes,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = (false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| *w == value).ok_or_else(|| {
                        format!("unknown workload {value}; one of {WORKLOADS:?}")
                    })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => (false, None),
                    "1" => (true, None),
                    file => (true, Some(PathBuf::from(file))),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        ops: None,
        trace: trace.0,
        chrome: trace.1,
        sizes: Sizes::full(),
    })
}

/// Runs one workload; also returns the counter deltas of its measured
/// phases (the smoke test compares them across runs).
pub fn run(a: &RunArgs) -> Result<(Report, probe::Probe), String> {
    fn go<W: Workload>(a: &RunArgs) -> Result<(Report, probe::Probe), String> {
        // A fixed op count, not a deadline: the same seed then repeats
        // every count and the virtual time exactly.
        let budget = Budget {
            ops: a
                .ops
                .unwrap_or((a.seconds * W::OPS_PER_S as f64).ceil() as u64),
            seconds: 2.0 * a.seconds,
        };
        if a.trace {
            runner::run_traced::<W>(a.seed, &a.sizes, budget, a.chrome.as_deref())
        } else {
            runner::run_e2e::<W>(a.seed, &a.sizes, budget)
        }
    }
    match a.workload {
        "meta-walk" => go::<meta_walk::MetaWalk>(a),
        "io-fit" => go::<io::IoFit>(a),
        "io-spill" => go::<io::IoSpill>(a),
        "attach-plane" => go::<plane::Plane>(a),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The result line: exactly the listed metrics, each with its unit.
pub fn result_line(r: &Report, listed: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in listed {
        let value = r
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json::num(value)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| {
            let (report, _) = run(&a)?;
            for note in &report.notes {
                println!("# {} seed {}: {note}", a.workload, a.seed);
            }
            let listed: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
            println!("{}", result_line(&report, listed)?);
            Ok(())
        }),
        Some("compare") => compare_main(&args[1..]),
        _ => Err("usage: cntr_bench run --workload <w> --seed <n> [--seconds <s>] [--trace <0|1|file>]\n       cntr_bench compare <parent-dir> <change-dir> [--spec <BENCHMARK.json>]".into()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cntr_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn compare_main(args: &[String]) -> Result<(), String> {
    let (dirs, spec_path) = match args {
        [p, c] => ([p, c], PathBuf::from("BENCHMARK.json")),
        [p, c, flag, s] if flag == "--spec" => ([p, c], PathBuf::from(s)),
        _ => {
            return Err(
                "usage: cntr_bench compare <parent-dir> <change-dir> [--spec <BENCHMARK.json>]"
                    .into(),
            )
        }
    };
    let text =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let spec = json::parse(&text).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let rows = compare::compare(&spec, dirs[0].as_ref(), dirs[1].as_ref())?;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median", "change median", "change", "wins"
    );
    for r in &rows {
        println!(
            "{:<14} {:<16} {:>14.4} {:>14.4} {:>+7.2}% {:>3}/{:<2}  {:?}",
            r.workload,
            r.metric,
            r.parent_median,
            r.change_median,
            100.0 * (r.change_median / r.parent_median - 1.0),
            r.wins,
            r.pairs,
            r.verdict
        );
    }
    if rows
        .iter()
        .any(|r| r.verdict == compare::Verdict::Regression)
    {
        return Err("regression beyond a bound".into());
    }
    Ok(())
}
