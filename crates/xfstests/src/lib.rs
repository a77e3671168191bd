//! An xfstests-style regression suite for the simulated filesystems.
//!
//! The paper's completeness/correctness evaluation (§5.1) runs the
//! `generic` group of xfstests with "CNTRFS mounted on top of tmpfs": **90
//! of 94 tests pass**, and the four failures are understood architectural
//! limits:
//!
//! | test | reason (paper §5.1) |
//! |------|----------------------|
//! | #228 | `RLIMIT_FSIZE` of the caller is not enforced — operations are replayed in the server process |
//! | #375 | setgid is not cleared on `chmod` when the owner is outside the owning group — ACL decisions are delegated to the backing filesystem under the server's identity |
//! | #391 | `O_DIRECT` is unsupported — FUSE makes direct I/O and `mmap` mutually exclusive, and CNTR needs `mmap` to execute binaries |
//! | #426 | inodes are not exportable (`name_to_handle_at`) — they are dynamically assigned and destroyed |
//!
//! This crate reimplements 94 generic-group-style tests against the
//! simulated VFS. Run against CntrFS-over-tmpfs with the paper's FUSE
//! profile they reproduce exactly the paper's 90/4 split; run against
//! native tmpfs all 94 pass — demonstrating the failures are
//! CntrFS-specific, not harness artifacts. The shipping profile passes #228
//! as well ([`suite::SHIPPING_FAILURES`]): its writes are FUSE passthrough
//! writes, made in the caller's context.

pub mod harness;
pub mod suite;

pub use harness::{
    cntrfs_over_overlayfs, cntrfs_over_tmpfs, native_overlayfs, native_tmpfs, Outcome, SuiteReport,
    TestCase, TestEnv,
};
pub use suite::{all_tests, SHIPPING_FAILURES};
