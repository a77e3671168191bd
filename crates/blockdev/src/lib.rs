//! A simulated block device with an EBS-gp2-like performance model.
//!
//! The CNTR paper's native baseline is ext4 on a 100 GB Amazon EBS gp2
//! volume (SSD-backed, network-attached, ~160 MB/s sequential, ~3000 burst
//! IOPS, sub-millisecond latency). This crate provides:
//!
//! * [`DiskModel`] — the latency/throughput/IOPS parameters, and [`GP2`],
//!   the one calibrated instance,
//! * [`BlockDevice`] — a thread-safe block store that executes reads and
//!   writes, charges their cost to a shared [`cntr_types::SimClock`], and
//!   keeps I/O statistics,
//! * [`IoSnapshot`] — counters used by benchmarks to explain *why* a
//!   configuration is fast or slow (e.g. writeback caching turning many small
//!   random writes into few large sequential ones — the FIO result in
//!   Figure 2).

mod device;
mod model;
mod stats;

pub use device::{BackgroundIo, BlockDevice};
pub use model::{DiskModel, GP2};
pub use stats::IoSnapshot;

/// Size of one device block (equal to the page size: 4 KiB).
pub const BLOCK_SIZE: usize = cntr_types::cost::PAGE_SIZE;
