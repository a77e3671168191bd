//! `DiskFs` — the ext4 of the simulation.
//!
//! The paper's native baseline is "a 100GB EBS volume of type GP2 formatted
//! with ext4 ... mounted with default options" (§5.2). `DiskFs` keeps
//! metadata in memory (a fully warmed cache, the favourable case for the
//! native baseline) and stores file contents on a simulated
//! [`BlockDevice`], so data reads and writes consume virtual disk time.

use crate::nodefs::NodeFs;
use crate::store::DiskStore;
use cntr_blockdev::BlockDevice;
use cntr_types::{DevId, SimClock};
use std::sync::Arc;

/// An ext4-like filesystem over a simulated block device.
pub type DiskFs = NodeFs<DiskStore>;

/// Creates a [`DiskFs`] on a fresh gp2-like device, mirroring the paper's
/// 100 GB volume.
pub fn diskfs_gp2(dev_id: DevId, clock: SimClock) -> Arc<DiskFs> {
    let device = BlockDevice::new(clock.clone());
    diskfs_on(dev_id, clock, device, 100 << 30)
}

/// Creates a [`DiskFs`] over an existing device with an explicit capacity.
pub fn diskfs_on(
    dev_id: DevId,
    clock: SimClock,
    device: Arc<BlockDevice>,
    capacity: u64,
) -> Arc<DiskFs> {
    Arc::new(NodeFs::new(
        dev_id,
        "ext4",
        capacity,
        clock,
        DiskStore::new(device),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Filesystem, FilesystemExt, FsContext, FsFeatures};
    use cntr_types::{FileType, Ino, Mode, OpenFlags};

    #[test]
    fn data_roundtrip_on_disk() {
        let clock = SimClock::new();
        let f = diskfs_gp2(DevId(3), clock.clone());
        let st = f
            .mknod(
                Ino::ROOT,
                "file",
                FileType::Regular,
                Mode::RW_R__R__,
                0,
                &FsContext::root(),
            )
            .unwrap();
        let fh = f.open(st.ino, OpenFlags::RDWR).unwrap();
        let data: Vec<u8> = (0..50_000).map(|i| (i % 241) as u8).collect();
        f.write(st.ino, fh, 0, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        assert_eq!(f.read(st.ino, fh, 0, &mut back).unwrap(), data.len());
        assert_eq!(back, data);
        assert!(clock.now().as_nanos() > 0, "disk I/O consumed virtual time");
    }

    #[test]
    fn device_stats_visible_through_store() {
        let clock = SimClock::new();
        let f = diskfs_gp2(DevId(3), clock);
        let st = f
            .mknod(
                Ino::ROOT,
                "file",
                FileType::Regular,
                Mode::RW_R__R__,
                0,
                &FsContext::root(),
            )
            .unwrap();
        let fh = f.open(st.ino, OpenFlags::WRONLY).unwrap();
        f.write(st.ino, fh, 0, &[0u8; 8192]).unwrap();
        let snap = f.store().device().stats();
        assert!(snap.writes > 0);
        assert_eq!(snap.bytes_written, 8192);
    }

    #[test]
    fn unlink_releases_device_blocks() {
        let clock = SimClock::new();
        let f = diskfs_gp2(DevId(3), clock);
        let st = f
            .mknod(
                Ino::ROOT,
                "file",
                FileType::Regular,
                Mode::RW_R__R__,
                0,
                &FsContext::root(),
            )
            .unwrap();
        let fh = f.open(st.ino, OpenFlags::WRONLY).unwrap();
        f.write(st.ino, fh, 0, &[1u8; 16 * 4096]).unwrap();
        f.release(st.ino, fh).unwrap();
        assert!(f.store().device().allocated_blocks() >= 16);
        f.unlink(Ino::ROOT, "file").unwrap();
        assert_eq!(f.store().device().allocated_blocks(), 0);
    }

    #[test]
    fn features_are_full_disk() {
        let clock = SimClock::new();
        let f = diskfs_gp2(DevId(3), clock);
        assert_eq!(f.features(), FsFeatures::local());
        assert_eq!(f.fs_type(), "ext4");
        // A local disk honours O_DIRECT and exports handles.
        let st = f
            .mknod(
                Ino::ROOT,
                "file",
                FileType::Regular,
                Mode::RW_R__R__,
                0,
                &FsContext::root(),
            )
            .unwrap();
        assert!(f
            .open(st.ino, OpenFlags::RDWR.with(OpenFlags::DIRECT))
            .is_ok());
        assert_eq!(f.export_handle(st.ino), Ok(st.ino.raw()));
    }
}
