//! The block device: storage plus the timing engine.

use crate::model::GP2;
use crate::stats::{IoSnapshot, IoStats};
use crate::BLOCK_SIZE;
use cntr_types::{IdMap, SimClock, Timespec};
use parking_lot::Mutex;
use std::sync::Arc;

/// One device block.
type Block = Box<[u8; BLOCK_SIZE]>;

fn zero_block() -> Block {
    Box::new([0u8; BLOCK_SIZE])
}

thread_local! {
    /// When set, I/O is *enqueued*: it occupies the device (advancing its
    /// `busy_until`) but does not advance the caller's clock — the model of
    /// background writeback, which runs off the application's critical path.
    /// A subsequent [`BlockDevice::flush`] (fsync barrier) waits for the
    /// backlog.
    static BACKGROUND_IO: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// RAII guard marking I/O on this thread as background writeback.
pub struct BackgroundIo {
    prev: bool,
}

impl BackgroundIo {
    /// Enters background-I/O mode.
    pub fn enter() -> BackgroundIo {
        let prev = BACKGROUND_IO.with(|b| b.replace(true));
        BackgroundIo { prev }
    }
}

impl Drop for BackgroundIo {
    fn drop(&mut self) {
        BACKGROUND_IO.with(|b| b.set(self.prev));
    }
}

fn in_background() -> bool {
    BACKGROUND_IO.with(std::cell::Cell::get)
}

#[derive(Default)]
struct DeviceState {
    /// Sparse block store: unwritten blocks read as zeroes.
    blocks: IdMap<u64, Block>,
    /// Next block number that would continue the previous read sequentially.
    read_head: u64,
    /// Next block number that would continue the previous write sequentially.
    write_head: u64,
    /// Absolute virtual time at which the device becomes idle.
    busy_until: Timespec,
}

/// A thread-safe simulated block device.
///
/// Reads and writes move real bytes (so filesystems built on top are
/// functionally correct) and advance the shared [`SimClock`] according to the
/// [`GP2`] disk model: the device is a single-queue resource, so an operation
/// starts no earlier than the completion of the previous one (`busy_until`),
/// which is what makes throughput caps emerge naturally from the model.
///
/// # Examples
///
/// ```
/// use cntr_blockdev::BlockDevice;
/// use cntr_types::SimClock;
///
/// let clock = SimClock::new();
/// let dev = BlockDevice::new(clock.clone());
/// dev.write(0, b"hello");
/// let mut buf = [0u8; 5];
/// dev.read(0, &mut buf);
/// assert_eq!(&buf, b"hello");
/// assert!(clock.now().as_nanos() > 0); // the I/O consumed virtual time
/// ```
pub struct BlockDevice {
    clock: SimClock,
    stats: IoStats,
    /// When false, block contents are not materialized (benchmark mode):
    /// timing, heads and statistics behave identically, reads return zeroes.
    store_data: bool,
    state: Mutex<DeviceState>,
}

impl BlockDevice {
    /// Creates an empty device.
    pub fn new(clock: SimClock) -> Arc<BlockDevice> {
        Arc::new(BlockDevice {
            clock,
            stats: IoStats::default(),
            store_data: true,
            state: Mutex::new_class("blockdev.device_state", DeviceState::default()),
        })
    }

    /// Creates a device that models timing without storing bytes — used by
    /// the Phoronix reproduction, whose multi-gigabyte workloads would
    /// otherwise consume real memory.
    pub fn new_synthetic(clock: SimClock) -> Arc<BlockDevice> {
        Arc::new(BlockDevice {
            clock,
            stats: IoStats::default(),
            store_data: false,
            state: Mutex::new_class("blockdev.device_state", DeviceState::default()),
        })
    }

    /// Snapshot of the I/O counters.
    pub fn stats(&self) -> IoSnapshot {
        self.stats.snapshot()
    }

    /// Reads `buf.len()` bytes starting at byte `offset`.
    ///
    /// Unwritten regions read as zeroes (the device is thin-provisioned).
    pub fn read(&self, offset: u64, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        let mut st = self.state.lock();
        let first_block = offset / BLOCK_SIZE as u64;
        let sequential = first_block == st.read_head;
        self.charge(&mut st, buf.len() as u64, sequential);

        let mut pos = 0usize;
        let mut off = offset;
        while pos < buf.len() {
            let block_no = off / BLOCK_SIZE as u64;
            let in_block = (off % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - in_block).min(buf.len() - pos);
            match st.blocks.get(&block_no) {
                Some(b) => buf[pos..pos + n].copy_from_slice(&b[in_block..in_block + n]),
                None => buf[pos..pos + n].fill(0),
            }
            pos += n;
            off += n as u64;
        }
        st.read_head = off.div_ceil(BLOCK_SIZE as u64);
        self.stats.record_read(buf.len() as u64, sequential);
    }

    /// Writes `data` starting at byte `offset`.
    pub fn write(&self, offset: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let mut st = self.state.lock();
        let first_block = offset / BLOCK_SIZE as u64;
        let sequential = first_block == st.write_head;
        self.charge(&mut st, data.len() as u64, sequential);

        if self.store_data {
            let mut pos = 0usize;
            let mut off = offset;
            while pos < data.len() {
                let block_no = off / BLOCK_SIZE as u64;
                let in_block = (off % BLOCK_SIZE as u64) as usize;
                let n = (BLOCK_SIZE - in_block).min(data.len() - pos);
                let block = st.blocks.entry(block_no).or_insert_with(zero_block);
                block[in_block..in_block + n].copy_from_slice(&data[pos..pos + n]);
                pos += n;
                off += n as u64;
            }
        }
        st.write_head = (offset + data.len() as u64).div_ceil(BLOCK_SIZE as u64);
        self.stats.record_write(data.len() as u64, sequential);
    }

    /// Discards a byte range (hole punching / file deletion reclaiming
    /// space). Only whole blocks inside the range are dropped.
    pub fn discard(&self, offset: u64, len: u64) {
        let mut st = self.state.lock();
        let first = offset.div_ceil(BLOCK_SIZE as u64);
        let last = (offset + len) / BLOCK_SIZE as u64;
        for b in first..last {
            st.blocks.remove(&b);
        }
    }

    /// A write barrier: waits (in virtual time) for all queued I/O to finish.
    pub fn flush(&self) {
        let st = self.state.lock();
        self.clock.advance_to(st.busy_until);
        self.stats.flushes.inc();
    }

    /// Number of blocks currently allocated.
    pub fn allocated_blocks(&self) -> u64 {
        self.state.lock().blocks.len() as u64
    }

    /// Charges one operation to the virtual clock, honouring the
    /// single-queue discipline. Background I/O only occupies the device;
    /// foreground I/O also waits for completion.
    fn charge(&self, st: &mut DeviceState, len: u64, sequential: bool) {
        let service = GP2.service_ns(len, sequential);
        let now = self.clock.now();
        let start = if st.busy_until > now {
            st.busy_until
        } else {
            now
        };
        let done = start.saturating_add_nanos(service);
        st.busy_until = done;
        if !in_background() {
            self.clock.advance_to(done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> (Arc<BlockDevice>, SimClock) {
        let clock = SimClock::new();
        (BlockDevice::new(clock.clone()), clock)
    }

    #[test]
    fn data_roundtrip_across_block_boundaries() {
        let (d, _) = dev();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        d.write(BLOCK_SIZE as u64 - 17, &data);
        let mut back = vec![0u8; data.len()];
        d.read(BLOCK_SIZE as u64 - 17, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn unwritten_reads_as_zero() {
        let (d, _) = dev();
        let mut buf = [7u8; 64];
        d.read(123_456, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn sequential_stream_matches_throughput() {
        let (d, clock) = dev();
        // Prime the head so the first op is also sequential.
        let chunk = vec![0u8; BLOCK_SIZE];
        let mut off = 0u64;
        let start = clock.now();
        for _ in 0..256 {
            d.write(off, &chunk);
            off += BLOCK_SIZE as u64;
        }
        let elapsed = (clock.now() - start).as_nanos();
        // First write is random (latency), the rest stream: total should be
        // close to 1 MiB / 160 MB/s ≈ 6.55 ms plus one latency.
        let expect = GP2.transfer_ns(256 * BLOCK_SIZE as u64) + GP2.random_latency_ns;
        assert!(
            elapsed >= expect * 9 / 10 && elapsed <= expect * 11 / 10,
            "elapsed={elapsed} expect={expect}"
        );
    }

    #[test]
    fn random_ops_hit_iops_cap() {
        let (d, clock) = dev();
        let buf = [0u8; 512];
        let start = clock.now();
        // 300 random writes at 3000 IOPS should take >= 100 ms.
        for i in 0..300u64 {
            d.write(i * 1_000_000, &buf);
        }
        let elapsed = (clock.now() - start).as_nanos();
        assert!(elapsed >= 100_000_000, "elapsed={elapsed}");
    }

    #[test]
    fn discard_releases_blocks() {
        let (d, _) = dev();
        d.write(0, &vec![1u8; 8 * BLOCK_SIZE]);
        assert_eq!(d.allocated_blocks(), 8);
        d.discard(0, 4 * BLOCK_SIZE as u64);
        assert_eq!(d.allocated_blocks(), 4);
    }

    #[test]
    fn stats_classify_sequential_vs_random() {
        let (d, _) = dev();
        let buf = [0u8; BLOCK_SIZE];
        d.write(0, &buf); // random (head at 0 -> block 0 is sequential actually)
        d.write(BLOCK_SIZE as u64, &buf); // continues -> sequential
        d.write(100 * BLOCK_SIZE as u64, &buf); // jump -> random
        let s = d.stats();
        assert_eq!(s.writes, 3);
        assert!(s.seq_ops >= 2, "{s:?}"); // first lands on head 0 too
        assert_eq!(s.rand_ops, 1);
    }

    #[test]
    fn flush_records_barrier() {
        let (d, _) = dev();
        d.flush();
        assert_eq!(d.stats().flushes, 1);
    }

    #[test]
    fn empty_io_is_free() {
        let (d, clock) = dev();
        d.write(0, &[]);
        let mut empty: [u8; 0] = [];
        d.read(0, &mut empty);
        assert_eq!(clock.now().as_nanos(), 0);
        assert_eq!(d.stats().ops(), 0);
    }
}
