//! Regenerates the §5.1 xfstests result (90 of 94 pass on CntrFS with the
//! paper's FUSE profile), and the shipping profile's split beside it.

use cntr_fuse::FuseConfig;
use cntr_xfstests::harness::run_suite;
use cntr_xfstests::{all_tests, cntrfs_over_tmpfs, native_tmpfs};

fn main() {
    let cases = all_tests();
    let cntr = run_suite(&cntrfs_over_tmpfs(FuseConfig::paper()), &cases);
    let shipping = run_suite(&cntrfs_over_tmpfs(FuseConfig::optimized()), &cases);
    let native = run_suite(&native_tmpfs(), &cases);
    println!("xfstests generic group (paper §5.1)");
    println!("{:-<60}", "");
    println!(
        "CntrFS over tmpfs : {:>3}/{} pass ({:.2}%)   paper: 90/94 (95.74%)",
        cntr.passed(),
        cntr.results.len(),
        100.0 * cntr.passed() as f64 / cntr.results.len() as f64
    );
    println!(
        "CntrFS, shipping  : {:>3}/{} pass, failing {:?} (passthrough writes honour #228)",
        shipping.passed(),
        shipping.results.len(),
        shipping.failed_ids()
    );
    println!(
        "native tmpfs      : {:>3}/{} pass (control)",
        native.passed(),
        native.results.len()
    );
    println!("\nCntrFS failures (all expected):");
    for case in cases.iter().filter(|c| cntr.failed_ids().contains(&c.id)) {
        println!(
            "  generic/{:03} — {}",
            case.id,
            case.expected_cntrfs_failure.unwrap_or("UNEXPECTED")
        );
    }
}
