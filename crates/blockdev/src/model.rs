//! The disk performance model.

/// Performance parameters of a simulated disk.
///
/// The model distinguishes *sequential* from *random* operations: an
/// operation is sequential if it starts at the block where the previous
/// operation of the same kind ended. Random operations pay the access
/// latency and are subject to the IOPS cap; sequential operations stream at
/// the device's throughput.
///
/// The one calibrated instance is [`GP2`]; every device charges from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Access latency of a random operation (ns).
    pub random_latency_ns: u64,
    /// Sustained sequential throughput (bytes per second).
    pub seq_throughput_bps: u64,
    /// Cap on random operations per second.
    pub iops: u64,
}

/// An EBS gp2-like SSD volume as used in the paper's testbed
/// (100 GB gp2: 160 MB/s sequential, 3000 burst IOPS, ~0.5 ms latency).
pub const GP2: DiskModel = DiskModel {
    random_latency_ns: 500_000,
    seq_throughput_bps: 160_000_000,
    iops: 3_000,
};

impl DiskModel {
    /// Transfer time for `len` bytes at sequential throughput (ns).
    pub const fn transfer_ns(&self, len: u64) -> u64 {
        // ns = bytes * 1e9 / Bps, computed to avoid overflow for large len.
        len.saturating_mul(1_000_000_000) / self.seq_throughput_bps
    }

    /// Minimum spacing between random operations implied by the IOPS cap (ns).
    pub const fn iop_spacing_ns(&self) -> u64 {
        1_000_000_000 / self.iops
    }

    /// Service time of one operation (ns).
    ///
    /// `sequential` reflects whether the op continues the previous one.
    pub const fn service_ns(&self, len: u64, sequential: bool) -> u64 {
        let xfer = self.transfer_ns(len);
        if sequential {
            xfer
        } else {
            let latency = self.random_latency_ns;
            let spacing = self.iop_spacing_ns();
            // A random op costs its latency plus transfer, but never less
            // than the IOPS-cap spacing.
            let base = latency + xfer;
            if base > spacing {
                base
            } else {
                spacing
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gp2_throughput_math() {
        let m = GP2;
        // 160 MB at 160 MB/s = 1 second.
        assert_eq!(m.transfer_ns(160_000_000), 1_000_000_000);
        // 4 KiB sequential is far below a random latency.
        assert!(m.service_ns(4096, true) < m.service_ns(4096, false));
    }

    #[test]
    fn iops_cap_floors_random_ops() {
        let m = GP2;
        // 3000 IOPS -> at least 333 µs between random ops.
        assert!(m.service_ns(1, false) >= 333_333);
    }

    #[test]
    fn sequential_large_transfer_beats_random_small_ops() {
        // Writing 1 MiB sequentially must be cheaper than 256 random 4 KiB
        // writes — the mechanism behind the writeback-cache win (Fig 2 FIO).
        let m = GP2;
        let seq = m.service_ns(1 << 20, false); // one random seek + streaming
        let rand: u64 = (0..256).map(|_| m.service_ns(4096, false)).sum();
        assert!(seq * 10 < rand, "seq={seq} rand={rand}");
    }
}
