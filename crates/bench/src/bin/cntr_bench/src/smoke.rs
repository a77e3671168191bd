//! Smoke test: every workload at test scale, pinning what each one loads.
//!
//! Run with `cargo test` in this package. It checks that every metric
//! `BENCHMARK.json` names is printed, that nothing fails, that each
//! workload exercises the layers it exists for, and that the
//! single-threaded workloads repeat their counts and virtual time exactly.

use crate::json::{self, Json};
use crate::runner::Sizes;
use crate::{result_line, run, RunArgs, END_TO_END, PER_LAYER, WORKLOADS};

fn args(workload: &'static str, trace: bool, ops: u64) -> RunArgs {
    RunArgs {
        workload,
        seed: 7,
        seconds: 60.0,
        ops: Some(ops),
        trace,
        chrome: None,
        sizes: Sizes::scaled(0.001),
    }
}

fn spec_names(spec: &Json, list: &str) -> Vec<String> {
    spec.get(list)
        .expect("list present")
        .as_arr()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

/// Runs and checks one result line; returns its metrics.
fn checked(a: &RunArgs, listed: &[(&str, &str)]) -> (Json, crate::probe::Probe) {
    let (report, counts) = run(a).unwrap_or_else(|e| panic!("{} failed: {e}", a.workload));
    assert!(
        report.correct,
        "{}: incorrect: {:?}",
        a.workload, report.notes
    );
    assert_eq!(report.failed, 0, "{}", a.workload);
    let line = result_line(&report, listed).expect("every listed metric measured");
    let parsed = json::parse(&line).expect("result line is JSON");
    let metrics = parsed.get("metrics").expect("metrics").clone();
    for (name, unit) in listed {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
    }
    (metrics, counts)
}

fn value(metrics: &Json, name: &str) -> f64 {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name} missing"))
}

#[test]
fn every_workload_runs_correctly_and_loads_its_layers() {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(spec_path).expect("BENCHMARK.json"))
        .expect("spec parses");
    let names = |l: &[(&str, &str)]| l.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(spec_names(&spec, "end_to_end"), names(&END_TO_END));
    assert_eq!(spec_names(&spec, "per_layer"), names(&PER_LAYER));
    assert_eq!(spec_names(&spec, "workloads"), WORKLOADS);
    let sessions = Sizes::scaled(0.001).sessions as f64;

    for workload in WORKLOADS {
        let ops = if workload == "attach-plane" { 4 } else { 2048 };
        let (e2e, _) = checked(&args(workload, false, ops), &END_TO_END);
        for (name, _) in END_TO_END {
            assert!(
                value(&e2e, name) > 0.0,
                "{workload}: {name} must never be 0"
            );
        }
        let (layers, counts) = checked(&args(workload, true, ops), &PER_LAYER);
        assert_eq!(value(&layers, "fail_frac"), 0.0);
        match workload {
            "meta-walk" => {
                assert!(counts.fuse_lookup > 0, "meta-walk must send LOOKUPs");
                assert_eq!(
                    counts.pc_hits + counts.pc_misses,
                    0,
                    "meta-walk must move no file data"
                );
            }
            "io-fit" => assert_eq!(counts.fuse_read, 0, "io-fit must hit the client page cache"),
            "io-spill" => {
                assert!(counts.pc_evictions > 0, "io-spill must reclaim");
                assert!(counts.pc_flush_batches > 0, "io-spill must write back");
                assert!(counts.ovl_copy_ups > 0, "io-spill must copy up");
            }
            _ => {
                assert!(counts.loop_polls > 0, "the plane must poll");
                assert!(
                    counts.endpoints as f64 >= 2.0 * sessions,
                    "{} endpoints",
                    counts.endpoints
                );
            }
        }
        if workload == "meta-walk" || workload == "io-fit" {
            // Spans must nest inside their op and not double count. The 5%
            // additivity bound holds at benchmark scale (README.md); here a
            // test-scale op lasts about a microsecond, so the few
            // timestamps no span covers weigh far more.
            let residual = value(&layers, "trace.residual_frac");
            assert!(
                (0.0..0.25).contains(&residual),
                "{workload}: spans leave {residual} of the op time"
            );
        }
        if workload != "io-spill" {
            // The same seed repeats every count and the virtual time
            // exactly. io-spill does not: write-back picks among equally
            // dirty files in hash-map order, which differs per run.
            let (_, again) = checked(&args(workload, true, ops), &PER_LAYER);
            assert_eq!(
                counts.counts(),
                again.counts(),
                "{workload}: counts differ across runs"
            );
            let (e2e_again, _) = checked(&args(workload, false, ops), &END_TO_END);
            assert_eq!(
                value(&e2e, "virt_us_per_op"),
                value(&e2e_again, "virt_us_per_op"),
                "{workload}: virtual time differs across runs"
            );
        }
    }
}
