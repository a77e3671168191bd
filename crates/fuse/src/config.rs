//! FUSE mount configuration.

use crate::proto::InitFlags;

/// Maximum bytes per READ request (`max_read`; 128 KiB as in CNTR): the
/// readahead window of a sequential read.
pub(crate) const MAX_READ: usize = 128 * 1024;

/// Entry-cache capacity (dentries) before the oldest eighth is evicted.
pub(crate) const ENTRY_CACHE_CAP: usize = 65_536;

/// Forgets queued before a flush.
pub(crate) const FORGET_BATCH: usize = 64;

/// Metadata pipeline depth when `parallel_dirops` is negotiated: how many
/// lookup round trips the kernel keeps in flight.
pub(crate) const META_PIPELINE: usize = 4;

/// Per-worker submission/completion ring capacity when the `ring` flag is
/// negotiated (entries; io_uring's `sq_entries` analog).
pub(crate) const RING_DEPTH: usize = 64;

/// Submissions accumulated before the doorbell rings when the worker is
/// already busy (adaptive flush still fires immediately on a parked worker
/// or a sync-op boundary).
pub(crate) const RING_BATCH: usize = 8;

/// Configuration of one FUSE mount (kernel side): the knobs the paper's
/// figures and the paper/shipping profiles set differently. Everything
/// else about a mount is one of this module's constants.
#[derive(Debug, Clone, Copy)]
pub struct FuseConfig {
    /// Optimization flags requested at INIT.
    pub flags: InitFlags,
    /// Server worker threads (paper §3.3 "Multithreading"; drives Figure 4).
    pub workers: usize,
    /// The published client's invalidation rule: every LOOKUP reply also
    /// evicts the *parent's* cached attributes, so the next walk through
    /// that directory looks it up again. Linux evicts a directory's
    /// attributes only when its contents change (create, link, unlink,
    /// rename: `fuse_dir_changed`), which those ops still do either way.
    /// On only in [`FuseConfig::paper`], whose Figure 2–3 calibration
    /// (compilebench-read above all) depends on the extra round trips.
    pub lookup_drops_parent_attr: bool,
}

impl FuseConfig {
    /// The shipping configuration: every optimization on (splice-write
    /// included, now that batched write-back makes it profitable), 4 worker
    /// threads.
    pub const fn optimized() -> FuseConfig {
        FuseConfig {
            flags: InitFlags::cntr_default(),
            workers: 4,
            lookup_drops_parent_attr: false,
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
        assert!(!o.lookup_drops_parent_attr);
        assert!(o.flags.cache_symlinks && !p.flags.cache_symlinks);
        assert_eq!(p.workers, o.workers);
        assert!(o.flags.ring, "shipping default negotiates the ring");
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
    }
}
