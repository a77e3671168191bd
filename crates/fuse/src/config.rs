//! FUSE mount configuration.

use crate::proto::InitFlags;

/// Configuration of one FUSE mount (kernel side).
#[derive(Debug, Clone, Copy)]
pub struct FuseConfig {
    /// Optimization flags requested at INIT.
    pub flags: InitFlags,
    /// Server worker threads (paper §3.3 "Multithreading"; drives Figure 4).
    pub workers: usize,
    /// Maximum bytes per READ request (`max_read`; 128 KiB as in CNTR).
    pub max_read: usize,
    /// Entry-cache capacity (dentries).
    pub entry_cache_cap: usize,
    /// The published client's invalidation rule: every LOOKUP reply also
    /// evicts the *parent's* cached attributes, so the next walk through
    /// that directory looks it up again. Linux evicts a directory's
    /// attributes only when its contents change (create, link, unlink,
    /// rename: `fuse_dir_changed`), which those ops still do either way.
    /// On only in [`FuseConfig::paper`], whose Figure 2–3 calibration
    /// (compilebench-read above all) depends on the extra round trips.
    pub lookup_drops_parent_attr: bool,
    /// Forgets queued before a flush.
    pub forget_batch: usize,
    /// Metadata pipeline depth when `parallel_dirops` is on: how many
    /// lookup round trips the kernel keeps in flight.
    pub meta_pipeline: usize,
    /// Per-worker submission/completion ring capacity when the `ring`
    /// flag is negotiated (entries; io_uring's `sq_entries` analog).
    pub ring_depth: usize,
    /// Submissions accumulated before the doorbell rings when the worker
    /// is already busy (adaptive flush still fires immediately on a parked
    /// worker or a sync-op boundary).
    pub ring_batch: usize,
}

impl FuseConfig {
    /// The shipping configuration: every optimization on (splice-write
    /// included, now that batched write-back makes it profitable), 4 worker
    /// threads.
    pub const fn optimized() -> FuseConfig {
        FuseConfig {
            flags: InitFlags::cntr_default(),
            workers: 4,
            max_read: 128 * 1024,
            entry_cache_cap: 65_536,
            lookup_drops_parent_attr: false,
            forget_batch: 64,
            meta_pipeline: 4,
            ring_depth: 64,
            ring_batch: 8,
        }
    }

    /// The configuration the paper published (§3.3): identical to
    /// [`FuseConfig::optimized`] except for the post-paper flags
    /// [`InitFlags::paper_legacy`] leaves off and the legacy
    /// [`lookup_drops_parent_attr`](FuseConfig::lookup_drops_parent_attr)
    /// eviction. The Phoronix figure reproductions pin this profile so
    /// the calibrated Figure 2–4 bands keep matching the paper.
    pub const fn paper() -> FuseConfig {
        FuseConfig {
            flags: InitFlags::paper_legacy(),
            lookup_drops_parent_attr: true,
            ..FuseConfig::optimized()
        }
    }

    /// The unoptimized baseline of §5.2.3: no caches, no batching, no
    /// splice, single-threaded.
    pub const fn unoptimized() -> FuseConfig {
        FuseConfig {
            flags: InitFlags::none(),
            workers: 1,
            max_read: 128 * 1024,
            entry_cache_cap: 65_536,
            lookup_drops_parent_attr: false,
            forget_batch: 64,
            meta_pipeline: 1,
            ring_depth: 1,
            ring_batch: 1,
        }
    }

    /// Returns a copy with one field replaced (ablation helper).
    #[must_use]
    pub const fn with_flags(mut self, flags: InitFlags) -> FuseConfig {
        self.flags = flags;
        self
    }

    /// Returns a copy with a different worker count.
    #[must_use]
    pub const fn with_workers(mut self, workers: usize) -> FuseConfig {
        self.workers = workers;
        self
    }

    /// Returns a copy with different ring batching knobs.
    #[must_use]
    pub const fn with_ring(mut self, depth: usize, batch: usize) -> FuseConfig {
        self.ring_depth = depth;
        self.ring_batch = batch;
        self
    }
}

impl Default for FuseConfig {
    fn default() -> FuseConfig {
        FuseConfig::optimized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let o = FuseConfig::optimized();
        assert!(o.flags.writeback_cache);
        assert!(o.flags.splice_write, "shipping default splices writes");
        assert_eq!(o.workers, 4);
        let u = FuseConfig::unoptimized();
        assert!(!u.flags.writeback_cache);
        assert_eq!(u.workers, 1);
        let p = FuseConfig::paper();
        assert!(
            !p.flags.splice_write,
            "paper profile keeps splice-write off"
        );
        assert!(!p.flags.ring, "paper profile keeps the ring transport off");
        assert!(
            p.lookup_drops_parent_attr,
            "paper profile keeps the legacy eviction"
        );
        assert!(!o.lookup_drops_parent_attr && !u.lookup_drops_parent_attr);
        assert!(o.flags.cache_symlinks && !p.flags.cache_symlinks);
        assert_eq!(p.workers, o.workers);
        assert!(o.flags.ring, "shipping default negotiates the ring");
        assert_eq!(o.ring_depth, 64);
        assert_eq!(o.ring_batch, 8);
    }

    #[test]
    fn ablation_helpers() {
        let c = FuseConfig::optimized().with_workers(16);
        assert_eq!(c.workers, 16);
        let mut f = InitFlags::cntr_default();
        f.keep_cache = false;
        let c = FuseConfig::optimized().with_flags(f);
        assert!(!c.flags.keep_cache);
        assert!(c.flags.writeback_cache);
        let c = FuseConfig::optimized().with_ring(128, 16);
        assert_eq!((c.ring_depth, c.ring_batch), (128, 16));
    }
}
