//! `MemFs` — the tmpfs of the simulation.
//!
//! The paper mounts CntrFS *on top of tmpfs* for the xfstests run (§5.1:
//! "we mounted CNTRFS on top of tmpfs, an in-memory filesystem"); `MemFs`
//! is that backing filesystem, and it also provides container root
//! filesystems for the engine substrate.

use crate::nodefs::NodeFs;
use crate::store::MemStore;
use cntr_types::{DevId, SimClock};
use std::sync::Arc;

/// A tmpfs-like in-memory filesystem.
pub type MemFs = NodeFs<MemStore>;

/// Default capacity when none is specified: 16 GiB, matching the paper
/// testbed's RAM.
pub const DEFAULT_CAPACITY: u64 = 16 << 30;

/// Creates a [`MemFs`] with the default capacity.
pub fn memfs(dev_id: DevId, clock: SimClock) -> Arc<MemFs> {
    memfs_with_capacity(dev_id, clock, DEFAULT_CAPACITY)
}

/// Creates a [`MemFs`] with an explicit capacity in bytes (for `ENOSPC`
/// testing).
pub fn memfs_with_capacity(dev_id: DevId, clock: SimClock, capacity: u64) -> Arc<MemFs> {
    Arc::new(NodeFs::new(dev_id, "tmpfs", capacity, clock, MemStore))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Filesystem, FilesystemExt, FsContext, XattrFlags};
    use cntr_types::{Errno, FileType, Gid, Ino, Mode, OpenFlags, RenameFlags, SetAttr, Uid};

    fn fs() -> Arc<MemFs> {
        memfs(DevId(1), SimClock::new())
    }

    fn root_ctx() -> FsContext {
        FsContext::root()
    }

    fn create_file(f: &MemFs, parent: Ino, name: &str) -> Ino {
        f.mknod(
            parent,
            name,
            FileType::Regular,
            Mode::RW_R__R__,
            0,
            &root_ctx(),
        )
        .unwrap()
        .ino
    }

    #[test]
    fn create_lookup_read_write() {
        let f = fs();
        let ino = create_file(&f, Ino::ROOT, "hello.txt");
        let fh = f.open(ino, OpenFlags::RDWR).unwrap();
        assert_eq!(f.write(ino, fh, 0, b"hello world").unwrap(), 11);
        let mut buf = [0u8; 32];
        assert_eq!(f.read(ino, fh, 0, &mut buf).unwrap(), 11);
        assert_eq!(&buf[..11], b"hello world");
        assert_eq!(f.read(ino, fh, 6, &mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"world");
        let st = f.lookup(Ino::ROOT, "hello.txt").unwrap();
        assert_eq!(st.size, 11);
        f.release(ino, fh).unwrap();
    }

    #[test]
    fn lookup_missing_is_enoent() {
        let f = fs();
        assert_eq!(f.lookup(Ino::ROOT, "nope"), Err(Errno::ENOENT));
    }

    #[test]
    fn mkdir_and_nlink_bookkeeping() {
        let f = fs();
        let d = f
            .mkdir(Ino::ROOT, "d", Mode::RWXR_XR_X, &root_ctx())
            .unwrap();
        assert_eq!(d.nlink, 2);
        assert_eq!(f.getattr(Ino::ROOT).unwrap().nlink, 3);
        let _sub = f.mkdir(d.ino, "sub", Mode::RWXR_XR_X, &root_ctx()).unwrap();
        assert_eq!(f.getattr(d.ino).unwrap().nlink, 3);
        f.rmdir(d.ino, "sub").unwrap();
        assert_eq!(f.getattr(d.ino).unwrap().nlink, 2);
    }

    #[test]
    fn rmdir_refuses_non_empty() {
        let f = fs();
        let d = f
            .mkdir(Ino::ROOT, "d", Mode::RWXR_XR_X, &root_ctx())
            .unwrap();
        create_file(&f, d.ino, "x");
        assert_eq!(f.rmdir(Ino::ROOT, "d"), Err(Errno::ENOTEMPTY));
        f.unlink(d.ino, "x").unwrap();
        f.rmdir(Ino::ROOT, "d").unwrap();
        assert_eq!(f.lookup(Ino::ROOT, "d"), Err(Errno::ENOENT));
    }

    #[test]
    fn unlink_dir_is_eisdir_and_rmdir_file_is_enotdir() {
        let f = fs();
        f.mkdir(Ino::ROOT, "d", Mode::RWXR_XR_X, &root_ctx())
            .unwrap();
        create_file(&f, Ino::ROOT, "f");
        assert_eq!(f.unlink(Ino::ROOT, "d"), Err(Errno::EISDIR));
        assert_eq!(f.rmdir(Ino::ROOT, "f"), Err(Errno::ENOTDIR));
    }

    #[test]
    fn hardlinks_share_data_and_count() {
        let f = fs();
        let ino = create_file(&f, Ino::ROOT, "a");
        let st = f.link(ino, Ino::ROOT, "b").unwrap();
        assert_eq!(st.nlink, 2);
        let fh = f.open(ino, OpenFlags::WRONLY).unwrap();
        f.write(ino, fh, 0, b"shared").unwrap();
        f.release(ino, fh).unwrap();
        let b = f.lookup(Ino::ROOT, "b").unwrap();
        assert_eq!(b.ino, ino);
        assert_eq!(b.size, 6);
        f.unlink(Ino::ROOT, "a").unwrap();
        assert_eq!(f.lookup(Ino::ROOT, "b").unwrap().nlink, 1);
    }

    #[test]
    fn link_to_directory_is_eperm() {
        let f = fs();
        let d = f
            .mkdir(Ino::ROOT, "d", Mode::RWXR_XR_X, &root_ctx())
            .unwrap();
        assert_eq!(f.link(d.ino, Ino::ROOT, "d2"), Err(Errno::EPERM));
    }

    #[test]
    fn unlinked_open_file_keeps_data_until_release() {
        let f = fs();
        let ino = create_file(&f, Ino::ROOT, "tmp");
        let fh = f.open(ino, OpenFlags::RDWR).unwrap();
        f.write(ino, fh, 0, b"orphan").unwrap();
        f.unlink(Ino::ROOT, "tmp").unwrap();
        // Still readable through the handle.
        let mut buf = [0u8; 6];
        assert_eq!(f.read(ino, fh, 0, &mut buf).unwrap(), 6);
        assert_eq!(&buf, b"orphan");
        let used_before = f.used_bytes();
        assert!(used_before > 0);
        f.release(ino, fh).unwrap();
        assert_eq!(f.used_bytes(), 0, "data reclaimed on final release");
        assert_eq!(f.getattr(ino), Err(Errno::ENOENT));
    }

    #[test]
    fn symlink_roundtrip() {
        let f = fs();
        let st = f
            .symlink(Ino::ROOT, "ln", "/target/path", &root_ctx())
            .unwrap();
        assert_eq!(st.ftype, FileType::Symlink);
        assert_eq!(st.size, 12);
        assert_eq!(f.readlink(st.ino).unwrap(), "/target/path");
        let file = create_file(&f, Ino::ROOT, "f");
        assert_eq!(f.readlink(file), Err(Errno::EINVAL));
    }

    #[test]
    fn rename_plain_and_replace() {
        let f = fs();
        let a = create_file(&f, Ino::ROOT, "a");
        f.rename(Ino::ROOT, "a", Ino::ROOT, "b", RenameFlags::NONE)
            .unwrap();
        assert_eq!(f.lookup(Ino::ROOT, "a"), Err(Errno::ENOENT));
        assert_eq!(f.lookup(Ino::ROOT, "b").unwrap().ino, a);

        let c = create_file(&f, Ino::ROOT, "c");
        f.rename(Ino::ROOT, "c", Ino::ROOT, "b", RenameFlags::NONE)
            .unwrap();
        assert_eq!(f.lookup(Ino::ROOT, "b").unwrap().ino, c);
        // The replaced inode is gone.
        assert_eq!(f.getattr(a), Err(Errno::ENOENT));
    }

    #[test]
    fn rename_noreplace_and_exchange() {
        let f = fs();
        let a = create_file(&f, Ino::ROOT, "a");
        let b = create_file(&f, Ino::ROOT, "b");
        assert_eq!(
            f.rename(Ino::ROOT, "a", Ino::ROOT, "b", RenameFlags::NOREPLACE),
            Err(Errno::EEXIST)
        );
        f.rename(Ino::ROOT, "a", Ino::ROOT, "b", RenameFlags::EXCHANGE)
            .unwrap();
        assert_eq!(f.lookup(Ino::ROOT, "a").unwrap().ino, b);
        assert_eq!(f.lookup(Ino::ROOT, "b").unwrap().ino, a);
    }

    #[test]
    fn rename_dir_into_own_subtree_is_einval() {
        let f = fs();
        let d = f
            .mkdir(Ino::ROOT, "d", Mode::RWXR_XR_X, &root_ctx())
            .unwrap();
        let sub = f.mkdir(d.ino, "sub", Mode::RWXR_XR_X, &root_ctx()).unwrap();
        assert_eq!(
            f.rename(Ino::ROOT, "d", sub.ino, "oops", RenameFlags::NONE),
            Err(Errno::EINVAL)
        );
    }

    #[test]
    fn rename_dir_over_nonempty_dir_is_enotempty() {
        let f = fs();
        let _a = f
            .mkdir(Ino::ROOT, "a", Mode::RWXR_XR_X, &root_ctx())
            .unwrap();
        let b = f
            .mkdir(Ino::ROOT, "b", Mode::RWXR_XR_X, &root_ctx())
            .unwrap();
        create_file(&f, b.ino, "x");
        assert_eq!(
            f.rename(Ino::ROOT, "a", Ino::ROOT, "b", RenameFlags::NONE),
            Err(Errno::ENOTEMPTY)
        );
    }

    #[test]
    fn rename_type_mismatches() {
        let f = fs();
        f.mkdir(Ino::ROOT, "d", Mode::RWXR_XR_X, &root_ctx())
            .unwrap();
        create_file(&f, Ino::ROOT, "f");
        assert_eq!(
            f.rename(Ino::ROOT, "f", Ino::ROOT, "d", RenameFlags::NONE),
            Err(Errno::EISDIR)
        );
        assert_eq!(
            f.rename(Ino::ROOT, "d", Ino::ROOT, "f", RenameFlags::NONE),
            Err(Errno::ENOTDIR)
        );
    }

    #[test]
    fn rename_moves_dir_link_counts_between_parents() {
        let f = fs();
        let a = f
            .mkdir(Ino::ROOT, "a", Mode::RWXR_XR_X, &root_ctx())
            .unwrap();
        let b = f
            .mkdir(Ino::ROOT, "b", Mode::RWXR_XR_X, &root_ctx())
            .unwrap();
        f.mkdir(a.ino, "child", Mode::RWXR_XR_X, &root_ctx())
            .unwrap();
        assert_eq!(f.getattr(a.ino).unwrap().nlink, 3);
        f.rename(a.ino, "child", b.ino, "child", RenameFlags::NONE)
            .unwrap();
        assert_eq!(f.getattr(a.ino).unwrap().nlink, 2);
        assert_eq!(f.getattr(b.ino).unwrap().nlink, 3);
    }

    #[test]
    fn truncate_and_extend() {
        let f = fs();
        let ino = create_file(&f, Ino::ROOT, "t");
        let fh = f.open(ino, OpenFlags::RDWR).unwrap();
        f.write(ino, fh, 0, &[0xAB; 100]).unwrap();
        f.setattr(ino, &SetAttr::truncate(10), &root_ctx()).unwrap();
        assert_eq!(f.getattr(ino).unwrap().size, 10);
        // Extend: the gap reads as zeroes.
        f.setattr(ino, &SetAttr::truncate(20), &root_ctx()).unwrap();
        let mut buf = [1u8; 20];
        assert_eq!(f.read(ino, fh, 0, &mut buf).unwrap(), 20);
        assert_eq!(&buf[..10], &[0xAB; 10]);
        assert_eq!(&buf[10..], &[0u8; 10]);
    }

    #[test]
    fn open_trunc_clears_content() {
        let f = fs();
        let ino = create_file(&f, Ino::ROOT, "t");
        let fh = f.open(ino, OpenFlags::WRONLY).unwrap();
        f.write(ino, fh, 0, b"data").unwrap();
        f.release(ino, fh).unwrap();
        let fh2 = f
            .open(ino, OpenFlags::WRONLY.with(OpenFlags::TRUNC))
            .unwrap();
        assert_eq!(f.getattr(ino).unwrap().size, 0);
        f.release(ino, fh2).unwrap();
    }

    #[test]
    fn append_mode_writes_at_eof() {
        let f = fs();
        let ino = create_file(&f, Ino::ROOT, "log");
        let fh = f
            .open(ino, OpenFlags::WRONLY.with(OpenFlags::APPEND))
            .unwrap();
        f.write(ino, fh, 0, b"one").unwrap();
        // Offset is ignored in append mode.
        f.write(ino, fh, 0, b"two").unwrap();
        let rfh = f.open(ino, OpenFlags::RDONLY).unwrap();
        let mut buf = [0u8; 6];
        f.read(ino, rfh, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"onetwo");
    }

    #[test]
    fn write_through_readonly_handle_is_ebadf() {
        let f = fs();
        let ino = create_file(&f, Ino::ROOT, "r");
        let fh = f.open(ino, OpenFlags::RDONLY).unwrap();
        assert_eq!(f.write(ino, fh, 0, b"x"), Err(Errno::EBADF));
        let wfh = f.open(ino, OpenFlags::WRONLY).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(f.read(ino, wfh, 0, &mut buf), Err(Errno::EBADF));
    }

    #[test]
    fn setgid_cleared_on_chmod_by_non_group_member() {
        let f = fs();
        let ino = create_file(&f, Ino::ROOT, "s");
        // Owner uid 1000, file group 2000; caller in group 3000 only.
        f.setattr(ino, &SetAttr::chown(Uid(1000), Gid(2000)), &root_ctx())
            .unwrap();
        let mut ctx = FsContext::user(1000, 3000);
        ctx.cap_fsetid = false;
        let st = f
            .setattr(ino, &SetAttr::chmod(Mode::new(0o2755)), &ctx)
            .unwrap();
        assert!(!st.mode.is_setgid(), "setgid must be stripped");
        // A group member keeps it.
        let member = FsContext::user(1000, 2000);
        let st = f
            .setattr(ino, &SetAttr::chmod(Mode::new(0o2755)), &member)
            .unwrap();
        assert!(st.mode.is_setgid());
    }

    #[test]
    fn chown_strips_suid() {
        let f = fs();
        let ino = create_file(&f, Ino::ROOT, "s");
        f.setattr(ino, &SetAttr::chmod(Mode::new(0o4755)), &root_ctx())
            .unwrap();
        let ctx = FsContext::user(1000, 1000);
        let st = f
            .setattr(ino, &SetAttr::chown(Uid(1000), Gid(1000)), &ctx)
            .unwrap();
        assert!(!st.mode.is_setuid());
    }

    #[test]
    fn write_strips_suid_sgid() {
        let f = fs();
        let ino = create_file(&f, Ino::ROOT, "s");
        f.setattr(ino, &SetAttr::chmod(Mode::new(0o6755)), &root_ctx())
            .unwrap();
        let fh = f.open(ino, OpenFlags::WRONLY).unwrap();
        f.write(ino, fh, 0, b"x").unwrap();
        let st = f.getattr(ino).unwrap();
        assert!(!st.mode.is_setuid());
        assert!(!st.mode.is_setgid());
    }

    #[test]
    fn setgid_directory_inheritance() {
        let f = fs();
        let d = f
            .mkdir(Ino::ROOT, "shared", Mode::new(0o2775), &root_ctx())
            .unwrap();
        f.setattr(d.ino, &SetAttr::chown(Uid(0), Gid(500)), &root_ctx())
            .unwrap();
        // Re-set setgid (chown by root keeps it because of cap_fsetid).
        f.setattr(d.ino, &SetAttr::chmod(Mode::new(0o2775)), &root_ctx())
            .unwrap();
        let ctx = FsContext::user(1000, 1000);
        let file = f
            .mknod(d.ino, "f", FileType::Regular, Mode::RW_R__R__, 0, &ctx)
            .unwrap();
        assert_eq!(file.gid, Gid(500), "file inherits directory group");
        let sub = f.mkdir(d.ino, "sub", Mode::RWXR_XR_X, &ctx).unwrap();
        assert_eq!(sub.gid, Gid(500));
        assert!(sub.mode.is_setgid(), "subdir inherits setgid bit");
    }

    #[test]
    fn xattr_roundtrip_and_flags() {
        let f = fs();
        let ino = create_file(&f, Ino::ROOT, "x");
        f.setxattr(ino, "user.key", b"v1", XattrFlags::Any).unwrap();
        assert_eq!(f.getxattr(ino, "user.key").unwrap(), b"v1");
        assert_eq!(
            f.setxattr(ino, "user.key", b"v2", XattrFlags::Create),
            Err(Errno::EEXIST)
        );
        f.setxattr(ino, "user.key", b"v2", XattrFlags::Replace)
            .unwrap();
        assert_eq!(f.getxattr(ino, "user.key").unwrap(), b"v2");
        assert_eq!(
            f.setxattr(ino, "user.other", b"", XattrFlags::Replace),
            Err(Errno::ENODATA)
        );
        f.setxattr(ino, "security.capability", b"caps", XattrFlags::Any)
            .unwrap();
        let names = f.listxattr(ino).unwrap();
        assert_eq!(names, vec!["security.capability", "user.key"]);
        f.removexattr(ino, "user.key").unwrap();
        assert_eq!(f.getxattr(ino, "user.key"), Err(Errno::ENODATA));
        assert_eq!(f.removexattr(ino, "user.key"), Err(Errno::ENODATA));
    }

    #[test]
    fn xattr_bad_namespace_rejected() {
        let f = fs();
        let ino = create_file(&f, Ino::ROOT, "x");
        assert_eq!(
            f.setxattr(ino, "bogus.name", b"", XattrFlags::Any),
            Err(Errno::EOPNOTSUPP)
        );
        assert_eq!(
            f.setxattr(ino, "nodot", b"", XattrFlags::Any),
            Err(Errno::EOPNOTSUPP)
        );
    }

    #[test]
    fn enospc_on_small_filesystem() {
        let clock = SimClock::new();
        let f = memfs_with_capacity(DevId(9), clock, 64 * 1024);
        let ino = create_file(&f, Ino::ROOT, "big");
        let fh = f.open(ino, OpenFlags::WRONLY).unwrap();
        let chunk = vec![0u8; 16 * 1024];
        let mut off = 0;
        let mut err = None;
        for _ in 0..10 {
            match f.write(ino, fh, off, &chunk) {
                Ok(n) => off += n as u64,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(err, Some(Errno::ENOSPC));
        let sf = f.statfs().unwrap();
        assert!(sf.bfree <= 1);
    }

    #[test]
    fn statfs_reflects_usage() {
        let f = fs();
        let before = f.statfs().unwrap();
        let ino = create_file(&f, Ino::ROOT, "f");
        let fh = f.open(ino, OpenFlags::WRONLY).unwrap();
        f.write(ino, fh, 0, &vec![1u8; 64 * 1024]).unwrap();
        let after = f.statfs().unwrap();
        assert_eq!(before.bfree - after.bfree, 16);
    }

    #[test]
    fn readdir_is_sorted_and_complete() {
        let f = fs();
        for name in ["zeta", "alpha", "mid"] {
            create_file(&f, Ino::ROOT, name);
        }
        let names: Vec<String> = f
            .readdir(Ino::ROOT)
            .unwrap()
            .into_iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn name_validation() {
        let f = fs();
        let ctx = root_ctx();
        let long = "x".repeat(256);
        assert_eq!(
            f.mkdir(Ino::ROOT, &long, Mode::RWXR_XR_X, &ctx),
            Err(Errno::ENAMETOOLONG)
        );
        assert_eq!(
            f.mkdir(Ino::ROOT, "a/b", Mode::RWXR_XR_X, &ctx),
            Err(Errno::EINVAL)
        );
        assert_eq!(
            f.mkdir(Ino::ROOT, ".", Mode::RWXR_XR_X, &ctx),
            Err(Errno::EINVAL)
        );
    }

    #[test]
    fn fallocate_punch_hole_reclaims_space() {
        let f = fs();
        let ino = create_file(&f, Ino::ROOT, "h");
        let fh = f.open(ino, OpenFlags::RDWR).unwrap();
        f.write(ino, fh, 0, &vec![0xCC; 8 * 4096]).unwrap();
        let before = f.used_bytes();
        f.fallocate(
            ino,
            fh,
            0,
            4 * 4096,
            crate::traits::FallocateMode::PunchHole,
        )
        .unwrap();
        assert!(f.used_bytes() < before);
        // Size unchanged, hole reads zero.
        assert_eq!(f.getattr(ino).unwrap().size, 8 * 4096);
        let mut buf = [1u8; 16];
        f.read(ino, fh, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn timestamps_progress() {
        let clock = SimClock::new();
        let f = memfs(DevId(2), clock.clone());
        let ino = create_file(&f, Ino::ROOT, "t");
        let st0 = f.getattr(ino).unwrap();
        clock.advance(1_000_000);
        let fh = f.open(ino, OpenFlags::RDWR).unwrap();
        f.write(ino, fh, 0, b"x").unwrap();
        let st1 = f.getattr(ino).unwrap();
        assert!(st1.mtime > st0.mtime);
        clock.advance(1_000_000);
        let mut buf = [0u8; 1];
        f.read(ino, fh, 0, &mut buf).unwrap();
        let st2 = f.getattr(ino).unwrap();
        assert!(st2.atime > st1.atime);
        assert_eq!(st2.mtime, st1.mtime);
    }

    #[test]
    fn exportable_handles_supported_natively() {
        let f = fs();
        let ino = create_file(&f, Ino::ROOT, "e");
        assert_eq!(f.export_handle(ino).unwrap(), ino.raw());
    }
}
