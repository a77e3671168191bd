//! The calibrated cost model behind every virtual-time experiment.
//!
//! The constants approximate the paper's testbed — an EC2 m4.xlarge (Xeon
//! E5-2686, 16 GB RAM, Linux 4.14) with a 100 GB EBS gp2 volume — at the
//! granularity that matters for the evaluation's *shape*: how expensive is a
//! FUSE round trip relative to a page-cache hit, a memcpy relative to a
//! splice, a disk op relative to everything else.
//!
//! Components charge these primitive costs to the shared [`crate::SimClock`];
//! higher-level costs (a FUSE request, a disk I/O) are composed in the crates
//! that own those mechanisms (`cntr-fuse`, `cntr-blockdev`).

/// Primitive cost constants (all nanoseconds unless stated otherwise).
///
/// The one calibrated instance is [`COST`]; every component charges from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Kernel entry/exit for one system call.
    pub syscall_ns: u64,
    /// One-way context switch between the kernel and a userspace server
    /// (a FUSE round trip pays two of these, plus queueing).
    pub ctx_switch_ns: u64,
    /// Copying one byte between kernel and userspace (~6.6 GB/s).
    pub copy_byte_ns_x1000: u64,
    /// Remapping one page via `splice` instead of copying it.
    pub splice_page_ns: u64,
    /// Serving one 4 KiB page from the page cache.
    pub page_cache_hit_ns: u64,
    /// A dentry-cache (name lookup) hit.
    pub dcache_hit_ns: u64,
    /// Allocating/initializing an in-memory inode structure.
    pub inode_init_ns: u64,
    /// Per-request queueing/wakeup overhead on the FUSE device queue.
    pub queue_wakeup_ns: u64,
    /// Lock/synchronization overhead a FUSE worker pays per request when the
    /// server runs more than one thread (contention on shared fd/inode maps;
    /// drives Figure 4).
    pub mt_sync_ns: u64,
}

/// The calibrated model behind every paper-figure reproduction.
pub const COST: CostModel = CostModel {
    syscall_ns: 300,
    ctx_switch_ns: 1_500,
    copy_byte_ns_x1000: 150, // 0.15 ns/byte
    splice_page_ns: 150,
    page_cache_hit_ns: 400,
    dcache_hit_ns: 150,
    inode_init_ns: 500,
    queue_wakeup_ns: 700,
    mt_sync_ns: 260,
};

impl CostModel {
    /// Cost of copying `len` bytes.
    pub const fn copy(&self, len: u64) -> u64 {
        len * self.copy_byte_ns_x1000 / 1000
    }

    /// Cost of moving `len` bytes with splice (page remaps, no byte copies).
    pub const fn splice(&self, len: u64) -> u64 {
        let pages = len.div_ceil(PAGE_SIZE as u64);
        pages * self.splice_page_ns
    }

    /// Cost of serving `len` bytes from the page cache.
    pub const fn page_cache(&self, len: u64) -> u64 {
        let pages = len.div_ceil(PAGE_SIZE as u64);
        pages * self.page_cache_hit_ns
    }

    /// Cost of one full syscall (entry/exit only).
    pub const fn syscall(&self) -> u64 {
        self.syscall_ns
    }

    /// Cost of one kernel→server→kernel FUSE round trip, excluding payload
    /// transfer and server-side work.
    pub const fn fuse_round_trip(&self) -> u64 {
        2 * self.ctx_switch_ns + self.queue_wakeup_ns
    }
}

/// The simulated page size (4 KiB, as on x86-64).
pub const PAGE_SIZE: usize = 4096;

/// CPU-work costs for the compute-bound parts of the Phoronix workloads.
///
/// These are charged by the workload generators, not by the filesystem stack:
/// e.g. Gzip is bottlenecked on compression, not I/O, which is why Figure 2
/// shows no CntrFS overhead for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCosts {
    /// Gzip compression, per input byte (~45 MB/s on the paper's cores).
    pub gzip_byte_ns_x1000: u64,
    /// SQL row insert processing (parse + B-tree update), per row.
    pub sql_insert_ns: u64,
    /// HTTP request handling (parsing, routing), per request.
    pub http_request_ns: u64,
    /// Compiling one source file (compilebench "compile" stage), per file.
    pub compile_file_ns: u64,
}

impl CpuCosts {
    /// Calibrated CPU costs.
    pub const fn calibrated() -> CpuCosts {
        CpuCosts {
            gzip_byte_ns_x1000: 22_000, // 22 ns/byte ≈ 45 MB/s
            sql_insert_ns: 40_000,
            http_request_ns: 25_000,
            compile_file_ns: 900_000,
        }
    }

    /// Gzip cost for `len` input bytes.
    pub const fn gzip(&self, len: u64) -> u64 {
        len * self.gzip_byte_ns_x1000 / 1000
    }
}

impl Default for CpuCosts {
    fn default() -> CpuCosts {
        CpuCosts::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_scales_linearly() {
        let m = COST;
        assert_eq!(m.copy(0), 0);
        assert_eq!(m.copy(1000), 150);
        assert_eq!(m.copy(2000), 2 * m.copy(1000));
    }

    #[test]
    fn splice_is_cheaper_than_copy_for_large_transfers() {
        let m = COST;
        let len = 1 << 20; // 1 MiB
        assert!(m.splice(len) < m.copy(len) / 2);
    }

    #[test]
    fn splice_charges_whole_pages() {
        let m = COST;
        assert_eq!(m.splice(1), m.splice_page_ns);
        assert_eq!(m.splice(PAGE_SIZE as u64), m.splice_page_ns);
        assert_eq!(m.splice(PAGE_SIZE as u64 + 1), 2 * m.splice_page_ns);
    }

    #[test]
    fn fuse_round_trip_dominates_page_cache_hit() {
        // The core asymmetry behind all of Figure 2: a cache hit must be far
        // cheaper than going to userspace and back.
        let m = COST;
        assert!(m.fuse_round_trip() > 5 * m.page_cache_hit_ns);
    }

    #[test]
    fn gzip_slower_than_page_cache_reads() {
        // Guarantees Gzip stays compute-bound in the simulation (Figure 2
        // shows ~1.0x for gzip because compression dominates data access).
        let cpu = CpuCosts::calibrated();
        let m = COST;
        let len = 1 << 20;
        assert!(cpu.gzip(len) > 10 * m.page_cache(len));
    }
}
