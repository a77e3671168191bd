//! A reproduction of the paper's Phoronix disk-suite evaluation (§5.2).
//!
//! The paper runs 20 disk benchmarks from the Phoronix Test Suite on an EC2
//! m4.xlarge against ext4-on-EBS-gp2, once natively and once through
//! CntrFS, and reports the relative overhead per benchmark (Figure 2). This
//! crate implements each workload's I/O pattern against the simulated stack
//! and measures virtual time for both targets:
//!
//! * the slow outliers come from CntrFS's architecture: cold lookups
//!   (Compilebench, PostMark), per-write `security.capability` round trips
//!   (Apachebench, IOzone write), and serialized formerly-async requests
//!   (AIO-Stress). The per-write round trip is paper-profile behaviour:
//!   the shipping profile negotiates `FUSE_HANDLE_KILLPRIV_V2` and checks
//!   a written file once;
//! * the *faster-than-native* outliers (FIO, PGBench, Threaded-I/O write)
//!   come from the writeback cache "delaying the sync operation" (§3.3):
//!   `fdatasync` through CntrFS is absorbed by background writeback, while
//!   the native run pays the device barrier;
//! * the rest are bounded by the page cache or the disk on both sides and
//!   land near 1.0×.
//!
//! [`mod@env`] builds the two targets; [`suite`] implements the workloads and
//! the Figure 2/3/4 runners.

pub mod env;
pub mod suite;

pub use env::{PerfEnv, Target};
pub use suite::{
    figure2, figure3, figure4, run_workload, BenchRow, Figure3Row, Figure4Row, Workload,
    ALL_WORKLOADS,
};
