//! `/dev` population helpers.
//!
//! CNTR bind-mounts the application container's `devtmpfs` (`/dev`) into the
//! nested namespace, "containing block and character devices that have been
//! made visible to our container" (paper §3.2.3). The engine substrate uses
//! [`populate_dev`] to give each container rootfs a realistic `/dev`.

use crate::kernel::Kernel;
use crate::mount::MountFlags;
use cntr_fs::Filesystem;
use cntr_fs::{memfs::memfs, MemFs};
use cntr_types::{DevId, FileType, Mode, Pid, SimClock, SysResult};
use std::sync::Arc;

/// Device numbers (major << 8 | minor), matching Linux.
pub mod nodes {
    /// `/dev/null` (1:3).
    pub const NULL: u64 = 0x0103;
    /// `/dev/zero` (1:5).
    pub const ZERO: u64 = 0x0105;
    /// `/dev/urandom` (1:9).
    pub const URANDOM: u64 = 0x0109;
    /// `/dev/tty` (5:0).
    pub const TTY: u64 = 0x0500;
    /// `/dev/fuse` (10:229).
    pub const FUSE: u64 = 0x0AE5;
}

/// Creates the standard device nodes under `dir` (usually `/dev`) on behalf
/// of `pid`.
pub fn populate_dev(kernel: &Kernel, pid: Pid, dir: &str) -> SysResult<()> {
    let mode = Mode::new(0o666);
    for (name, rdev) in [
        ("null", nodes::NULL),
        ("zero", nodes::ZERO),
        ("urandom", nodes::URANDOM),
        ("tty", nodes::TTY),
        ("fuse", nodes::FUSE),
    ] {
        kernel.mknod(
            pid,
            &format!("{dir}/{name}"),
            FileType::CharDevice,
            mode,
            rdev,
        )?;
    }
    kernel.mkdir(pid, &format!("{dir}/pts"), Mode::RWXR_XR_X)?;
    kernel.mkdir(pid, &format!("{dir}/shm"), Mode::new(0o1777))?;
    Ok(())
}

/// Builds a standalone devtmpfs-like filesystem (used as a mountable `/dev`).
pub fn new_devfs(dev_id: DevId, clock: SimClock) -> Arc<MemFs> {
    let fs = memfs(dev_id, clock);
    let ctx = cntr_fs::FsContext::root();
    let mode = Mode::new(0o666);
    for (name, rdev) in [
        ("null", nodes::NULL),
        ("zero", nodes::ZERO),
        ("urandom", nodes::URANDOM),
        ("tty", nodes::TTY),
        ("fuse", nodes::FUSE),
    ] {
        fs.mknod(
            cntr_types::Ino::ROOT,
            name,
            FileType::CharDevice,
            mode,
            rdev,
            &ctx,
        )
        .expect("fresh fs cannot collide");
    }
    fs.mkdir(cntr_types::Ino::ROOT, "pts", Mode::RWXR_XR_X, &ctx)
        .expect("fresh fs");
    fs.mkdir(cntr_types::Ino::ROOT, "shm", Mode::new(0o1777), &ctx)
        .expect("fresh fs");
    fs
}

/// Mounts a fresh devtmpfs at `path`.
pub fn mount_devfs(kernel: &Kernel, pid: Pid, path: &str, dev_id: DevId) -> SysResult<()> {
    let fs = new_devfs(dev_id, kernel.clock().clone());
    kernel.mount_fs(pid, path, fs, MountFlags::default())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelConfig;
    use cntr_types::{OpenFlags, Pid};

    #[test]
    fn populated_dev_nodes_behave() {
        let clock = SimClock::new();
        let root = memfs(DevId(1), clock.clone());
        let k = Kernel::with_clock(clock, root, KernelConfig::default());
        k.mkdir(Pid::INIT, "/dev", Mode::RWXR_XR_X).unwrap();
        populate_dev(&k, Pid::INIT, "/dev").unwrap();
        let fd = k
            .open(
                Pid::INIT,
                "/dev/urandom",
                OpenFlags::RDONLY,
                Mode::RW_R__R__,
            )
            .unwrap();
        let mut a = [0u8; 16];
        k.read_fd(Pid::INIT, fd, &mut a).unwrap();
        assert!(a.iter().any(|&b| b != 0), "urandom produces bytes");
        k.close(Pid::INIT, fd).unwrap();
        assert!(k.stat(Pid::INIT, "/dev/pts").unwrap().is_dir());
        assert_eq!(k.stat(Pid::INIT, "/dev/fuse").unwrap().rdev, nodes::FUSE);
    }

    #[test]
    fn mountable_devfs() {
        let clock = SimClock::new();
        let root = memfs(DevId(1), clock.clone());
        let k = Kernel::with_clock(clock, root, KernelConfig::default());
        k.mkdir(Pid::INIT, "/dev", Mode::RWXR_XR_X).unwrap();
        mount_devfs(&k, Pid::INIT, "/dev", DevId(100)).unwrap();
        assert_eq!(k.stat(Pid::INIT, "/dev/null").unwrap().dev, DevId(100));
    }
}
