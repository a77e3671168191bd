//! Benchmark environments: native ext4-on-gp2 vs CntrFS over it.

use cntr_blockdev::BlockDevice;
use cntr_core::CntrfsServer;
use cntr_fs::diskfs::diskfs_on;
use cntr_fs::memfs::memfs;
use cntr_fuse::{FuseClientFs, FuseConfig};
use cntr_kernel::kernel::KernelConfig;
use cntr_kernel::{Kernel, MountFlags};
use cntr_types::{DevId, Errno, Mode, OpenFlags, Pid, SimClock, SysResult, Timespec};
use std::sync::Arc;

/// Which path the workload exercises.
#[derive(Debug, Clone, Copy)]
pub enum Target {
    /// Directly on the ext4-like filesystem (the paper's baseline).
    Native,
    /// Through CntrFS mounted over the same filesystem, requests served on
    /// the calling thread (deterministic inline transport). The server's
    /// `config.workers` threads are priced by the client's cost model.
    Cntrfs(FuseConfig),
}

/// A benchmark machine: gp2-backed `/data`, optionally re-exported through
/// CntrFS at `/mnt/cntr/data`.
pub struct PerfEnv {
    /// The machine.
    pub kernel: Kernel,
    /// The workload process.
    pub pid: Pid,
    /// Directory the workload runs in (on the measured filesystem).
    pub dir: String,
    /// The underlying block device (for I/O statistics).
    pub device: Arc<BlockDevice>,
    /// The FUSE client, when the target is CntrFS.
    pub client: Option<Arc<FuseClientFs>>,
}

impl PerfEnv {
    /// Builds an environment for `target`. All file content is synthetic
    /// (timing-only), so multi-gigabyte workloads cost no real memory.
    /// Runs under [`KernelConfig::paper_legacy`]: the published testbed's
    /// 12 GiB cache and stop-world write-back, so the figure bands stay
    /// byte-exact against the paper profile.
    pub fn build(target: Target) -> PerfEnv {
        let clock = SimClock::new();
        let root = memfs(DevId(1), clock.clone());
        let kernel = Kernel::with_clock(clock.clone(), root, KernelConfig::paper_legacy());
        let pid = kernel.fork(Pid::INIT).expect("fork workload proc");
        kernel
            .mkdir(pid, "/data", Mode::RWXR_XR_X)
            .expect("mkdir /data");

        let device = BlockDevice::new_synthetic(clock.clone());
        let disk = diskfs_on(DevId(2), clock.clone(), Arc::clone(&device), 100 << 30);
        let synthetic = MountFlags {
            synthetic: true,
            ..MountFlags::default()
        };
        kernel
            .mount_fs(pid, "/data", disk, synthetic)
            .expect("mount /data");

        match target {
            Target::Native => PerfEnv {
                kernel,
                pid,
                dir: "/data".to_string(),
                device,
                client: None,
            },
            Target::Cntrfs(config) => {
                let server_pid = kernel.fork(Pid::INIT).expect("fork server");
                let (_, client) =
                    CntrfsServer::mount(kernel.clone(), server_pid, DevId(0xF00D), config)
                        .expect("mount cntrfs");
                kernel.mkdir(pid, "/mnt", Mode::RWXR_XR_X).expect("mkdir");
                kernel
                    .mkdir(pid, "/mnt/cntr", Mode::RWXR_XR_X)
                    .expect("mkdir");
                kernel
                    .mount_fs(pid, "/mnt/cntr", client.clone(), synthetic)
                    .expect("mount");
                PerfEnv {
                    kernel,
                    pid,
                    dir: "/mnt/cntr/data".to_string(),
                    device,
                    client: Some(client),
                }
            }
        }
    }

    /// Absolute path inside the workload directory.
    pub fn p(&self, rel: &str) -> String {
        format!("{}/{rel}", self.dir)
    }

    /// Opens (optionally creating) a file.
    pub fn open(&self, rel: &str, flags: OpenFlags) -> SysResult<u32> {
        self.kernel
            .open(self.pid, &self.p(rel), flags, Mode::RW_R__R__)
    }

    /// Creates a directory.
    pub fn mkdir(&self, rel: &str) -> SysResult<()> {
        self.kernel.mkdir(self.pid, &self.p(rel), Mode::RWXR_XR_X)
    }

    /// Positional write of synthetic bytes (`len` zeroes).
    pub fn pwrite_zeroes(&self, fd: u32, offset: u64, len: usize) -> SysResult<usize> {
        // One shared zero buffer per call site would be noise; a pooled
        // thread-local keeps allocation out of the measurement loop.
        thread_local! {
            static ZEROES: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        ZEROES.with(|z| {
            let mut z = z.borrow_mut();
            if z.len() < len {
                z.resize(len, 0);
            }
            self.kernel.pwrite(self.pid, fd, offset, &z[..len])
        })
    }

    /// Positional read into a scratch buffer; returns bytes read.
    pub fn pread_discard(&self, fd: u32, offset: u64, len: usize) -> SysResult<usize> {
        thread_local! {
            static SCRATCH: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        SCRATCH.with(|z| {
            let mut z = z.borrow_mut();
            if z.len() < len {
                z.resize(len, 0);
            }
            self.kernel.pread(self.pid, fd, offset, &mut z[..len])
        })
    }

    /// `fsync(2)` (full: includes the journal barrier on ext4).
    pub fn fsync(&self, fd: u32) -> SysResult<()> {
        self.kernel.fsync(self.pid, fd, false)
    }

    /// `fdatasync(2)` — the sync CNTR's writeback cache delays (§3.3).
    pub fn fdatasync(&self, fd: u32) -> SysResult<()> {
        self.kernel.fsync(self.pid, fd, true)
    }

    /// Closes a descriptor.
    pub fn close(&self, fd: u32) -> SysResult<()> {
        self.kernel.close(self.pid, fd)
    }

    /// Creates a file of `len` synthetic bytes, in 128 KiB chunks.
    pub fn create_file(&self, rel: &str, len: u64) -> SysResult<()> {
        let fd = self.open(rel, OpenFlags::create())?;
        let mut off = 0u64;
        while off < len {
            let chunk = (len - off).min(128 * 1024) as usize;
            self.pwrite_zeroes(fd, off, chunk)?;
            off += chunk as u64;
        }
        self.close(fd)
    }

    /// Deletes a file.
    pub fn unlink(&self, rel: &str) -> SysResult<()> {
        self.kernel.unlink(self.pid, &self.p(rel))
    }

    /// Stats a file.
    pub fn stat(&self, rel: &str) -> SysResult<cntr_types::Stat> {
        self.kernel.stat(self.pid, &self.p(rel))
    }

    /// Drops only metadata caches (dentries/attrs), keeping data pages warm
    /// — compilebench's "read tree" runs on a freshly created tree whose
    /// data is still cached but whose inodes have never been looked up.
    pub fn drop_meta_caches(&self) {
        if let Some(client) = &self.client {
            client.drop_caches();
        }
    }

    /// Drops the *client side* of a CntrFS double buffer: the FUSE mount's
    /// pages and the client's entry/attr caches, leaving the server's copy
    /// warm. Reads then cross the protocol on every miss without touching
    /// the disk — the configuration Figures 3(d) and 4 measure.
    pub fn drop_client_pages(&self) -> SysResult<()> {
        if let Some(client) = &self.client {
            self.kernel
                .drop_caches_for(cntr_fs::Filesystem::fs_id(client.as_ref()))?;
            client.drop_caches();
        }
        Ok(())
    }

    /// Drops all caches (between setup and a cold-read measurement phase).
    pub fn drop_caches(&self) -> SysResult<()> {
        self.kernel.drop_caches()?;
        // A fresh CntrFS attach also starts with cold client caches; the
        // readahead buffers die with handle release, but the entry/attr
        // caches must be emptied explicitly.
        if let Some(client) = &self.client {
            client.drop_caches();
        }
        Ok(())
    }

    /// Measures the virtual time consumed by `f`.
    pub fn measure(&self, f: impl FnOnce(&PerfEnv) -> SysResult<()>) -> Timespec {
        let start = self.kernel.clock().now();
        f(self).expect("workload must not fail");
        self.kernel.clock().now() - start
    }

    /// CPU work: advances the virtual clock without any I/O.
    pub fn cpu(&self, ns: u64) {
        self.kernel.clock().advance(ns);
    }

    /// Like [`PerfEnv::open`], but reporting `EINVAL` (used by AIO-Stress to
    /// detect the missing `O_DIRECT` support on CntrFS).
    pub fn try_open_direct(&self, rel: &str) -> Result<u32, Errno> {
        self.kernel.open(
            self.pid,
            &self.p(rel),
            OpenFlags::RDWR.with(OpenFlags::CREAT | OpenFlags::DIRECT),
            Mode::RW_R__R__,
        )
    }
}
