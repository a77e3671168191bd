//! I/O statistics counters.

obs::counter_scope! {
    /// Per-device I/O counters, writing through to `blockdev.*`.
    pub(crate) struct IoStats(Subsystem::BlockDev);
    /// A point-in-time copy of a device's I/O counters. Benchmarks use them
    /// to explain results: e.g. the FIO reproduction asserts that the
    /// CntrFS-with-writeback run issues *fewer, larger* writes than native.
    pub struct IoSnapshot {
        /// Read operations completed.
        reads: "blockdev.reads",
        /// Write operations completed.
        writes: "blockdev.writes",
        /// Bytes read.
        bytes_read: "blockdev.bytes-read",
        /// Bytes written.
        bytes_written: "blockdev.bytes-written",
        /// Operations classified as sequential.
        seq_ops: "blockdev.seq-ops",
        /// Operations classified as random.
        rand_ops: "blockdev.rand-ops",
        /// Explicit cache flushes / barriers.
        flushes: "blockdev.flushes",
    }
}

impl IoSnapshot {
    /// Total operations.
    pub const fn ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Mean bytes per write, or 0 if no writes happened.
    pub fn avg_write_size(&self) -> u64 {
        self.bytes_written.checked_div(self.writes).unwrap_or(0)
    }
}

impl IoStats {
    /// Records a read of `len` bytes.
    pub(crate) fn record_read(&self, len: u64, sequential: bool) {
        self.reads.inc();
        self.bytes_read.add(len);
        self.record_kind(sequential);
    }

    /// Records a write of `len` bytes.
    pub(crate) fn record_write(&self, len: u64, sequential: bool) {
        self.writes.inc();
        self.bytes_written.add(len);
        self.record_kind(sequential);
    }

    fn record_kind(&self, sequential: bool) {
        if sequential {
            self.seq_ops.inc();
        } else {
            self.rand_ops.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::default();
        s.record_read(4096, true);
        s.record_write(8192, false);
        s.record_write(100, false);
        s.flushes.inc();
        let snap = s.snapshot();
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.bytes_read, 4096);
        assert_eq!(snap.bytes_written, 8292);
        assert_eq!(snap.seq_ops, 1);
        assert_eq!(snap.rand_ops, 2);
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.ops(), 3);
        assert_eq!(snap.avg_write_size(), 4146);
    }

    #[test]
    fn avg_write_size_handles_zero() {
        assert_eq!(IoSnapshot::default().avg_write_size(), 0);
    }
}
