//! File metadata: type, permission mode, `stat`/`statfs` results, and the
//! `setattr` change-set used by both the VFS and the FUSE protocol.

use crate::ids::{DevId, Gid, Ino, Uid};
use crate::time::Timespec;
use core::fmt;

/// The type of a filesystem object (`S_IFMT` equivalents).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
    /// Symbolic link.
    Symlink,
    /// FIFO (named pipe).
    Fifo,
    /// Unix domain socket.
    Socket,
    /// Character device.
    CharDevice,
    /// Block device.
    BlockDevice,
}

impl FileType {
    /// Single-character representation as in `ls -l`.
    pub const fn ls_char(self) -> char {
        match self {
            FileType::Regular => '-',
            FileType::Directory => 'd',
            FileType::Symlink => 'l',
            FileType::Fifo => 'p',
            FileType::Socket => 's',
            FileType::CharDevice => 'c',
            FileType::BlockDevice => 'b',
        }
    }

    /// The `S_IFMT` bits for this type (matching Linux).
    pub const fn mode_bits(self) -> u32 {
        match self {
            FileType::Fifo => 0o010000,
            FileType::CharDevice => 0o020000,
            FileType::Directory => 0o040000,
            FileType::BlockDevice => 0o060000,
            FileType::Regular => 0o100000,
            FileType::Symlink => 0o120000,
            FileType::Socket => 0o140000,
        }
    }
}

/// Permission bits plus setuid/setgid/sticky (the low 12 mode bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mode(u16);

impl Mode {
    /// `S_ISUID`.
    pub const SETUID: u16 = 0o4000;
    /// `S_ISGID`.
    pub const SETGID: u16 = 0o2000;
    /// `S_ISVTX` (sticky).
    pub const STICKY: u16 = 0o1000;

    /// 0o755 — the usual directory / executable mode.
    pub const RWXR_XR_X: Mode = Mode(0o755);
    /// 0o644 — the usual file mode.
    pub const RW_R__R__: Mode = Mode(0o644);
    /// 0o777.
    pub const RWXRWXRWX: Mode = Mode(0o777);
    /// 0o600.
    pub const RW_______: Mode = Mode(0o600);

    /// Creates a mode from the low 12 bits of `raw` (higher bits are masked).
    pub const fn new(raw: u16) -> Mode {
        Mode(raw & 0o7777)
    }

    /// Raw bits.
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// True if the setuid bit is set.
    pub const fn is_setuid(self) -> bool {
        self.0 & Self::SETUID != 0
    }

    /// True if the setgid bit is set.
    pub const fn is_setgid(self) -> bool {
        self.0 & Self::SETGID != 0
    }

    /// Returns a copy with the setgid bit cleared.
    ///
    /// Linux clears setgid on `chmod` by a non-owner-group caller and on
    /// writes; CntrFS famously does *not* clear it in one ACL corner case
    /// (xfstests #375, one of the paper's four failures).
    #[must_use]
    pub const fn clear_setgid(self) -> Mode {
        Mode(self.0 & !Self::SETGID)
    }

    /// Returns a copy with the setuid and setgid bits cleared (write path).
    #[must_use]
    pub const fn clear_suid_sgid(self) -> Mode {
        Mode(self.0 & !(Self::SETUID | Self::SETGID))
    }

    /// Permission check triple for (user, group, other) classes.
    ///
    /// `class` 0 = owner, 1 = group, 2 = other. Bits are `rwx` (4, 2, 1).
    pub const fn class_bits(self, class: u8) -> u8 {
        ((self.0 >> ((2 - class as u16) * 3)) & 0o7) as u8
    }
}

impl Default for Mode {
    fn default() -> Mode {
        Mode::RW_R__R__
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04o}", self.0)
    }
}

/// The result of `stat(2)` on the simulated VFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Filesystem instance the inode lives on.
    pub dev: DevId,
    /// Inode number.
    pub ino: Ino,
    /// Object type.
    pub ftype: FileType,
    /// Permission bits.
    pub mode: Mode,
    /// Hard-link count.
    pub nlink: u32,
    /// Owner.
    pub uid: Uid,
    /// Group.
    pub gid: Gid,
    /// Device number for char/block device nodes, zero otherwise.
    pub rdev: u64,
    /// Size in bytes (for symlinks: length of the target path).
    pub size: u64,
    /// Allocated 512-byte blocks.
    pub blocks: u64,
    /// Preferred I/O block size.
    pub blksize: u32,
    /// Last access.
    pub atime: Timespec,
    /// Last data modification.
    pub mtime: Timespec,
    /// Last status change.
    pub ctime: Timespec,
}

impl Stat {
    /// True if this object is a directory.
    pub const fn is_dir(&self) -> bool {
        matches!(self.ftype, FileType::Directory)
    }

    /// True if this object is a regular file.
    pub const fn is_file(&self) -> bool {
        matches!(self.ftype, FileType::Regular)
    }

    /// True if this object is a symbolic link.
    pub const fn is_symlink(&self) -> bool {
        matches!(self.ftype, FileType::Symlink)
    }

    /// The full `st_mode` word (type bits | permission bits) as Linux encodes it.
    pub const fn st_mode(&self) -> u32 {
        self.ftype.mode_bits() | self.mode.bits() as u32
    }
}

/// The result of `statfs(2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Statfs {
    /// Filesystem block size.
    pub bsize: u32,
    /// Total data blocks.
    pub blocks: u64,
    /// Free blocks.
    pub bfree: u64,
    /// Free blocks available to unprivileged users.
    pub bavail: u64,
    /// Total inodes.
    pub files: u64,
    /// Free inodes.
    pub ffree: u64,
    /// Maximum file name length.
    pub namelen: u32,
}

impl Statfs {
    /// Bytes of capacity.
    pub const fn total_bytes(&self) -> u64 {
        self.blocks * self.bsize as u64
    }

    /// Bytes free.
    pub const fn free_bytes(&self) -> u64 {
        self.bfree * self.bsize as u64
    }
}

/// A `setattr` change-set: every field is optional, mirroring both the
/// `FUSE_SETATTR` request and what `chmod`/`chown`/`truncate`/`utimens`
/// modify.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SetAttr {
    /// New permission bits.
    pub mode: Option<Mode>,
    /// New owner.
    pub uid: Option<Uid>,
    /// New group.
    pub gid: Option<Gid>,
    /// New size (truncate/extend).
    pub size: Option<u64>,
    /// New access time.
    pub atime: Option<Timespec>,
    /// New modification time.
    pub mtime: Option<Timespec>,
}

impl SetAttr {
    /// A change-set that only truncates to `size`.
    pub const fn truncate(size: u64) -> SetAttr {
        SetAttr {
            mode: None,
            uid: None,
            gid: None,
            size: Some(size),
            atime: None,
            mtime: None,
        }
    }

    /// A change-set that only chmods to `mode`.
    pub const fn chmod(mode: Mode) -> SetAttr {
        SetAttr {
            mode: Some(mode),
            uid: None,
            gid: None,
            size: None,
            atime: None,
            mtime: None,
        }
    }

    /// A change-set that chowns to `uid`:`gid`.
    pub const fn chown(uid: Uid, gid: Gid) -> SetAttr {
        SetAttr {
            mode: None,
            uid: Some(uid),
            gid: Some(gid),
            size: None,
            atime: None,
            mtime: None,
        }
    }

    /// True if no field is set.
    pub const fn is_empty(&self) -> bool {
        self.mode.is_none()
            && self.uid.is_none()
            && self.gid.is_none()
            && self.size.is_none()
            && self.atime.is_none()
            && self.mtime.is_none()
    }
}

/// One directory entry as returned by `readdir`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dirent {
    /// Inode number of the entry.
    pub ino: Ino,
    /// Entry name (no slashes, not `.` or `..` unless synthesized).
    pub name: String,
    /// Entry type.
    pub ftype: FileType,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_bits_and_classes() {
        let m = Mode::new(0o754);
        assert_eq!(m.class_bits(0), 0o7);
        assert_eq!(m.class_bits(1), 0o5);
        assert_eq!(m.class_bits(2), 0o4);
        assert_eq!(m.to_string(), "0754");
    }

    #[test]
    fn setgid_clearing() {
        let m = Mode::new(0o2755);
        assert!(m.is_setgid());
        assert!(!m.clear_setgid().is_setgid());
        let s = Mode::new(0o6711);
        let cleared = s.clear_suid_sgid();
        assert!(!cleared.is_setuid());
        assert!(!cleared.is_setgid());
        assert_eq!(cleared.bits(), 0o711);
    }

    #[test]
    fn mode_masks_high_bits() {
        assert_eq!(Mode::new(0o177777).bits(), 0o7777);
    }

    #[test]
    fn st_mode_matches_linux_encoding() {
        let st = Stat {
            dev: DevId(1),
            ino: Ino(2),
            ftype: FileType::Regular,
            mode: Mode::new(0o644),
            nlink: 1,
            uid: Uid(0),
            gid: Gid(0),
            rdev: 0,
            size: 0,
            blocks: 0,
            blksize: 4096,
            atime: Timespec::ZERO,
            mtime: Timespec::ZERO,
            ctime: Timespec::ZERO,
        };
        assert_eq!(st.st_mode(), 0o100644);
        assert!(st.is_file());
        assert!(!st.is_dir());
    }

    #[test]
    fn setattr_constructors() {
        assert_eq!(SetAttr::truncate(42).size, Some(42));
        assert!(SetAttr::default().is_empty());
        assert!(!SetAttr::chmod(Mode::RWXRWXRWX).is_empty());
        let c = SetAttr::chown(Uid(5), Gid(6));
        assert_eq!(c.uid, Some(Uid(5)));
        assert_eq!(c.gid, Some(Gid(6)));
    }

    #[test]
    fn filetype_ls_chars() {
        assert_eq!(FileType::Directory.ls_char(), 'd');
        assert_eq!(FileType::Symlink.ls_char(), 'l');
        assert_eq!(FileType::Regular.ls_char(), '-');
    }

    #[test]
    fn statfs_byte_math() {
        let s = Statfs {
            bsize: 4096,
            blocks: 1000,
            bfree: 250,
            bavail: 200,
            files: 100,
            ffree: 50,
            namelen: 255,
        };
        assert_eq!(s.total_bytes(), 4_096_000);
        assert_eq!(s.free_bytes(), 1_024_000);
    }
}
