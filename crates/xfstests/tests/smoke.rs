//! Tier-1 smoke test over the full xfstests harness (paper §5.1).
//!
//! Runs the complete generic-group suite end to end — the same path as the
//! `tab_xfstests` binary — so a regression anywhere in the simulated syscall
//! layer (VFS, mounts, FUSE protocol, CntrFS passthrough) fails `cargo test`
//! rather than only skewing a regenerated table.

use cntr_fuse::FuseConfig;
use cntr_xfstests::harness::run_suite;
use cntr_xfstests::{
    all_tests, cntrfs_over_overlayfs, cntrfs_over_tmpfs, native_overlayfs, native_tmpfs,
    SHIPPING_FAILURES,
};

#[test]
fn cntrfs_over_tmpfs_passes_at_least_90_of_94() {
    let cases = all_tests();
    assert_eq!(cases.len(), 94, "the generic group has 94 tests");
    let report = run_suite(&cntrfs_over_tmpfs(FuseConfig::paper()), &cases);
    assert!(
        report.passed() >= 90,
        "CntrFS regression: {}/{} passed (paper: 90/94); failures: {:?}",
        report.passed(),
        report.results.len(),
        report.failed_ids()
    );
    let expected: Vec<u32> = cases
        .iter()
        .filter(|c| c.expected_cntrfs_failure.is_some())
        .map(|c| c.id)
        .collect();
    assert_eq!(
        report.failed_ids(),
        expected,
        "CntrFS must fail exactly the documented tests (§5.1: #228 #375 #391 #426)"
    );
}

#[test]
fn native_tmpfs_passes_everything() {
    let cases = all_tests();
    let report = run_suite(&native_tmpfs(), &cases);
    assert_eq!(
        report.passed(),
        report.results.len(),
        "control run must be clean; failures: {:?}",
        report.failed_ids()
    );
}

#[test]
fn native_overlayfs_passes_everything() {
    let cases = all_tests();
    let report = run_suite(&native_overlayfs(), &cases);
    assert_eq!(
        report.passed(),
        report.results.len(),
        "OverlayFs must be POSIX-equivalent to a flat filesystem; failures: {:?}",
        report.failed_ids()
    );
}

#[test]
fn cntrfs_over_overlayfs_keeps_the_90_of_94_split() {
    let cases = all_tests();
    let report = run_suite(&cntrfs_over_overlayfs(FuseConfig::paper()), &cases);
    let expected: Vec<u32> = cases
        .iter()
        .filter(|c| c.expected_cntrfs_failure.is_some())
        .map(|c| c.id)
        .collect();
    assert_eq!(
        report.failed_ids(),
        expected,
        "swapping tmpfs for OverlayFs under CntrFS must not change the \
         90/94 split — the four failures are CntrFS limits, not backing-fs \
         properties"
    );
    assert_eq!(report.passed(), 90);
}

/// The shipping profile's split, pinned exactly over both backings: #228
/// passes, since a passthrough write runs in the caller's context and the
/// backing filesystem applies the caller's `RLIMIT_FSIZE`.
#[test]
fn shipping_profile_fails_exactly_375_391_426() {
    let cases = all_tests();
    for env in [
        cntrfs_over_tmpfs(FuseConfig::optimized()),
        cntrfs_over_overlayfs(FuseConfig::optimized()),
    ] {
        let report = run_suite(&env, &cases);
        assert_eq!(
            report.failed_ids(),
            SHIPPING_FAILURES,
            "{}: {}",
            env.fs_type,
            report.render(&cases)
        );
        assert_eq!(report.passed(), 91, "{}", env.fs_type);
    }
}
