//! Counter snapshots: what the program already exports, read before and
//! after a phase so per-layer numbers are deltas over exactly that phase.
//!
//! Sources, all public: the kernel's page-cache stats and virtual clock,
//! the blob store's stats, the CntrFS server's live-inode count, and the
//! `obs` registry behind `/proc/cntrstats` (FUSE per-opcode counters and
//! latency histograms, overlay, engine, attach and event-loop metrics).

use cntr_kernel::Kernel;
use cntr_overlay::BlobStore;

/// One snapshot. Fields ending in `_ns` are wall-clock sums; every other
/// field is a count (or, for gauges, a level) that repeats exactly on a
/// deterministic run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Probe {
    pub virt_ns: u64,
    pub pc_hits: u64,
    pub pc_misses: u64,
    pub pc_evictions: u64,
    pub pc_reclaim_scans: u64,
    pub pc_flushed_pages: u64,
    pub pc_flush_batches: u64,
    pub pc_throttle_stalls: u64,
    pub pc_writeback_wakeups: u64,
    pub pc_throttle_stall_ns: u64,
    pub fuse_req: u64,
    pub fuse_lookup: u64,
    pub fuse_getattr: u64,
    pub fuse_read: u64,
    pub fuse_write: u64,
    pub fuse_forget: u64,
    pub fuse_rt_ns: u64,
    pub fuse_lookup_ns: u64,
    pub fuse_getattr_ns: u64,
    pub fuse_read_ns: u64,
    pub fuse_write_ns: u64,
    pub ovl_dcache_hits: u64,
    pub ovl_dcache_lookups: u64,
    pub ovl_copy_ups: u64,
    pub ovl_copy_up_bytes: u64,
    pub blob_ingested: u64,
    pub blob_physical: u64,
    pub spawns: u64,
    pub spawn_ns: u64,
    pub reaps: u64,
    pub reap_ns: u64,
    pub attaches: u64,
    pub attach_ns: u64,
    pub loop_polls: u64,
    pub endpoints: u64,
    pub live_inodes: u64,
}

fn counter(name: &str) -> u64 {
    obs::counter_value(name).unwrap_or(0)
}

/// `(count, summed ns)` of a registered histogram.
fn hist(name: &str) -> (u64, u64) {
    obs::histogram(name).map_or((0, 0), |h| (h.count(), h.sum()))
}

/// Summed latency of every FUSE opcode family registered so far. The
/// families register on first use, so their names come from the registry.
fn fuse_roundtrip_ns() -> u64 {
    obs::render()
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .filter_map(|n| n.strip_suffix(".count"))
        .filter(|n| n.starts_with("fuse.op.") && n.ends_with(".latency-ns"))
        .map(|n| hist(n).1)
        .sum()
}

impl Probe {
    /// Snapshot of one machine. `live_inodes` and `endpoints` are levels
    /// the caller reads from its sessions and plane.
    pub fn take(kernel: &Kernel, store: &BlobStore, live_inodes: u64, endpoints: u64) -> Probe {
        let pc = kernel.page_cache_stats();
        let blob = store.stats();
        let (lookup, lookup_ns) = hist("fuse.op.lookup.latency-ns");
        let (getattr, getattr_ns) = hist("fuse.op.getattr.latency-ns");
        let (read, read_ns) = hist("fuse.op.read.latency-ns");
        let (write, write_ns) = hist("fuse.op.write.latency-ns");
        let (spawns, spawn_ns) = hist("engine.spawn.latency-ns");
        let (reaps, reap_ns) = hist("engine.reap.latency-ns");
        let (attaches, attach_ns) = hist("engine.attach.latency-ns");
        let dcache_hits = counter("overlay.dcache.hits");
        Probe {
            virt_ns: kernel.clock().now().as_nanos(),
            pc_hits: pc.hits,
            pc_misses: pc.misses,
            pc_evictions: pc.evictions,
            pc_reclaim_scans: pc.reclaim_scans,
            pc_flushed_pages: pc.flushed_pages,
            pc_flush_batches: pc.flush_batches,
            pc_throttle_stalls: pc.throttle_stalls,
            pc_writeback_wakeups: pc.writeback_wakeups,
            pc_throttle_stall_ns: hist("pagecache.throttle-stall-ns").1,
            fuse_req: counter("fuse.req.started"),
            fuse_lookup: lookup,
            fuse_getattr: getattr,
            fuse_read: read,
            fuse_write: write,
            fuse_forget: counter("fuse.op.forget.count") + counter("fuse.op.batch-forget.count"),
            fuse_rt_ns: fuse_roundtrip_ns(),
            fuse_lookup_ns: lookup_ns,
            fuse_getattr_ns: getattr_ns,
            fuse_read_ns: read_ns,
            fuse_write_ns: write_ns,
            ovl_dcache_hits: dcache_hits,
            ovl_dcache_lookups: dcache_hits
                + counter("overlay.dcache.negative-hits")
                + counter("overlay.dcache.misses"),
            ovl_copy_ups: counter("overlay.copy-up.count"),
            ovl_copy_up_bytes: counter("overlay.copy-up.bytes"),
            blob_ingested: blob.ingested_bytes,
            blob_physical: blob.physical_bytes,
            spawns,
            spawn_ns,
            reaps,
            reap_ns,
            attaches,
            attach_ns,
            loop_polls: counter("core.attach.loop-polls"),
            endpoints,
            live_inodes,
        }
    }

    /// `self - before` for counters and sums; levels keep `self`'s value.
    pub fn since(&self, before: &Probe) -> Probe {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Probe {
            virt_ns: d(self.virt_ns, before.virt_ns),
            pc_hits: d(self.pc_hits, before.pc_hits),
            pc_misses: d(self.pc_misses, before.pc_misses),
            pc_evictions: d(self.pc_evictions, before.pc_evictions),
            pc_reclaim_scans: d(self.pc_reclaim_scans, before.pc_reclaim_scans),
            pc_flushed_pages: d(self.pc_flushed_pages, before.pc_flushed_pages),
            pc_flush_batches: d(self.pc_flush_batches, before.pc_flush_batches),
            pc_throttle_stalls: d(self.pc_throttle_stalls, before.pc_throttle_stalls),
            pc_writeback_wakeups: d(self.pc_writeback_wakeups, before.pc_writeback_wakeups),
            pc_throttle_stall_ns: d(self.pc_throttle_stall_ns, before.pc_throttle_stall_ns),
            fuse_req: d(self.fuse_req, before.fuse_req),
            fuse_lookup: d(self.fuse_lookup, before.fuse_lookup),
            fuse_getattr: d(self.fuse_getattr, before.fuse_getattr),
            fuse_read: d(self.fuse_read, before.fuse_read),
            fuse_write: d(self.fuse_write, before.fuse_write),
            fuse_forget: d(self.fuse_forget, before.fuse_forget),
            fuse_rt_ns: d(self.fuse_rt_ns, before.fuse_rt_ns),
            fuse_lookup_ns: d(self.fuse_lookup_ns, before.fuse_lookup_ns),
            fuse_getattr_ns: d(self.fuse_getattr_ns, before.fuse_getattr_ns),
            fuse_read_ns: d(self.fuse_read_ns, before.fuse_read_ns),
            fuse_write_ns: d(self.fuse_write_ns, before.fuse_write_ns),
            ovl_dcache_hits: d(self.ovl_dcache_hits, before.ovl_dcache_hits),
            ovl_dcache_lookups: d(self.ovl_dcache_lookups, before.ovl_dcache_lookups),
            ovl_copy_ups: d(self.ovl_copy_ups, before.ovl_copy_ups),
            ovl_copy_up_bytes: d(self.ovl_copy_up_bytes, before.ovl_copy_up_bytes),
            blob_ingested: d(self.blob_ingested, before.blob_ingested),
            blob_physical: self.blob_physical,
            spawns: d(self.spawns, before.spawns),
            spawn_ns: d(self.spawn_ns, before.spawn_ns),
            reaps: d(self.reaps, before.reaps),
            reap_ns: d(self.reap_ns, before.reap_ns),
            attaches: d(self.attaches, before.attaches),
            attach_ns: d(self.attach_ns, before.attach_ns),
            loop_polls: d(self.loop_polls, before.loop_polls),
            endpoints: self.endpoints,
            live_inodes: self.live_inodes,
        }
    }

    /// The fields that must repeat exactly across same-seed runs of a
    /// single-threaded workload: every count, and the virtual time.
    pub fn counts(&self) -> [u64; 26] {
        [
            self.virt_ns,
            self.pc_hits,
            self.pc_misses,
            self.pc_evictions,
            self.pc_reclaim_scans,
            self.pc_flushed_pages,
            self.pc_flush_batches,
            self.pc_throttle_stalls,
            self.pc_writeback_wakeups,
            self.fuse_req,
            self.fuse_lookup,
            self.fuse_getattr,
            self.fuse_read,
            self.fuse_write,
            self.fuse_forget,
            self.ovl_dcache_hits,
            self.ovl_dcache_lookups,
            self.ovl_copy_ups,
            self.ovl_copy_up_bytes,
            self.blob_ingested,
            self.spawns,
            self.reaps,
            self.attaches,
            self.loop_polls,
            self.endpoints,
            self.live_inodes,
        ]
    }
}
