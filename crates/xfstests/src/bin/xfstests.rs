//! Runs the xfstests generic-group reproduction and prints the paper-style
//! table (paper §5.1: 90 of 94 pass on CntrFS; the control run on native
//! tmpfs passes all 94).
//!
//! Usage: `cargo run -p cntr-xfstests --bin xfstests [-- native|cntrfs|both]`

use cntr_fuse::FuseConfig;
use cntr_xfstests::harness::run_suite;
use cntr_xfstests::{all_tests, cntrfs_over_tmpfs, native_tmpfs};

fn main() {
    let mode = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "both".to_string());
    let cases = all_tests();

    if mode == "cntrfs" || mode == "both" {
        let env = cntrfs_over_tmpfs(FuseConfig::paper());
        let report = run_suite(&env, &cases);
        print!("{}", report.render(&cases));
        println!(
            "paper §5.1 reports: 90 of 94 (95.74%); this run: {} of {}\n",
            report.passed(),
            report.results.len()
        );
    }
    if mode == "native" || mode == "both" {
        let env = native_tmpfs();
        let report = run_suite(&env, &cases);
        print!("{}", report.render(&cases));
        println!(
            "control (native tmpfs): {} of {} — the four CntrFS failures are architectural, not harness artifacts",
            report.passed(),
            report.results.len()
        );
    }
}
