//! Open flags and related syscall flag types.

use core::fmt;
use core::ops::{BitOr, BitOrAssign};

/// The access-mode portion of `open(2)` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// `O_RDONLY`
    ReadOnly,
    /// `O_WRONLY`
    WriteOnly,
    /// `O_RDWR`
    ReadWrite,
}

impl AccessMode {
    /// Whether this mode permits reading.
    pub const fn readable(self) -> bool {
        matches!(self, AccessMode::ReadOnly | AccessMode::ReadWrite)
    }

    /// Whether this mode permits writing.
    pub const fn writable(self) -> bool {
        matches!(self, AccessMode::WriteOnly | AccessMode::ReadWrite)
    }
}

/// `open(2)` flags for the simulated VFS.
///
/// Modelled as a bit set (values match Linux x86-64 where a counterpart
/// exists) plus the access mode. `O_DIRECT` matters for the paper: CntrFS
/// rejects it because direct I/O and `mmap` support are mutually exclusive in
/// FUSE and CNTR needs `mmap` to execute binaries (paper §5.1, failed test
/// #391).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpenFlags {
    /// Read/write access mode.
    pub mode: AccessMode,
    bits: u32,
}

impl OpenFlags {
    /// `O_CREAT`: create the file if it does not exist.
    pub const CREAT: u32 = 0o100;
    /// `O_EXCL`: with `O_CREAT`, fail if the file exists.
    pub const EXCL: u32 = 0o200;
    /// `O_TRUNC`: truncate to length 0 on open.
    pub const TRUNC: u32 = 0o1000;
    /// `O_APPEND`: all writes append.
    pub const APPEND: u32 = 0o2000;
    /// `O_NONBLOCK`: non-blocking I/O.
    pub const NONBLOCK: u32 = 0o4000;
    /// `O_SYNC`: synchronous writes.
    pub const SYNC: u32 = 0o4010000;
    /// `O_DIRECT`: bypass the page cache.
    pub const DIRECT: u32 = 0o40000;
    /// `O_DIRECTORY`: fail if the path is not a directory.
    pub const DIRECTORY: u32 = 0o200000;
    /// `O_NOFOLLOW`: fail if the final component is a symlink.
    pub const NOFOLLOW: u32 = 0o400000;
    /// `O_CLOEXEC`: close on exec.
    pub const CLOEXEC: u32 = 0o2000000;
    /// `O_TMPFILE`: create an unnamed temporary file.
    pub const TMPFILE: u32 = 0o20200000;
    /// `O_PATH`: a descriptor that only locates an inode — an anchor for
    /// the `*at` calls and `fstat`; it can do no I/O.
    pub const PATH: u32 = 0o10000000;

    /// All currently understood non-access-mode bits.
    pub const ALL_BITS: u32 = Self::CREAT
        | Self::EXCL
        | Self::TRUNC
        | Self::APPEND
        | Self::NONBLOCK
        | Self::SYNC
        | Self::DIRECT
        | Self::DIRECTORY
        | Self::NOFOLLOW
        | Self::CLOEXEC
        | Self::TMPFILE
        | Self::PATH;

    /// Read-only, no extra bits — the most common open.
    pub const RDONLY: OpenFlags = OpenFlags {
        mode: AccessMode::ReadOnly,
        bits: 0,
    };

    /// Write-only, no extra bits.
    pub const WRONLY: OpenFlags = OpenFlags {
        mode: AccessMode::WriteOnly,
        bits: 0,
    };

    /// Read-write, no extra bits.
    pub const RDWR: OpenFlags = OpenFlags {
        mode: AccessMode::ReadWrite,
        bits: 0,
    };

    /// Creates flags from an access mode and raw bits.
    pub const fn new(mode: AccessMode, bits: u32) -> OpenFlags {
        OpenFlags { mode, bits }
    }

    /// Returns a copy with `extra` bits set.
    #[must_use]
    pub const fn with(self, extra: u32) -> OpenFlags {
        OpenFlags {
            mode: self.mode,
            bits: self.bits | extra,
        }
    }

    /// True if every bit in `bit` is set.
    pub const fn contains(self, bit: u32) -> bool {
        self.bits & bit == bit
    }

    /// The raw extra-flag bits.
    pub const fn bits(self) -> u32 {
        self.bits
    }

    /// Convenience: `O_WRONLY | O_CREAT | O_TRUNC` — "create/overwrite".
    pub const fn create() -> OpenFlags {
        OpenFlags::WRONLY.with(Self::CREAT | Self::TRUNC)
    }

    /// Convenience: `O_WRONLY | O_CREAT | O_EXCL` — "create new".
    pub const fn create_new() -> OpenFlags {
        OpenFlags::WRONLY.with(Self::CREAT | Self::EXCL)
    }

    /// Convenience: `O_WRONLY | O_CREAT | O_APPEND`.
    pub const fn append() -> OpenFlags {
        OpenFlags::WRONLY.with(Self::CREAT | Self::APPEND)
    }
}

impl BitOr<u32> for OpenFlags {
    type Output = OpenFlags;

    fn bitor(self, rhs: u32) -> OpenFlags {
        self.with(rhs)
    }
}

impl BitOrAssign<u32> for OpenFlags {
    fn bitor_assign(&mut self, rhs: u32) {
        self.bits |= rhs;
    }
}

impl fmt::Display for OpenFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = match self.mode {
            AccessMode::ReadOnly => "O_RDONLY",
            AccessMode::WriteOnly => "O_WRONLY",
            AccessMode::ReadWrite => "O_RDWR",
        };
        write!(f, "{m}")?;
        for (bit, name) in [
            (Self::CREAT, "O_CREAT"),
            (Self::EXCL, "O_EXCL"),
            (Self::TRUNC, "O_TRUNC"),
            (Self::APPEND, "O_APPEND"),
            (Self::NONBLOCK, "O_NONBLOCK"),
            (Self::SYNC, "O_SYNC"),
            (Self::DIRECT, "O_DIRECT"),
            (Self::DIRECTORY, "O_DIRECTORY"),
            (Self::NOFOLLOW, "O_NOFOLLOW"),
            (Self::CLOEXEC, "O_CLOEXEC"),
            (Self::PATH, "O_PATH"),
        ] {
            if self.contains(bit) {
                write!(f, "|{name}")?;
            }
        }
        Ok(())
    }
}

/// The `flags` argument of the `*at` system calls (values match Linux).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AtFlags(u32);

impl AtFlags {
    /// No flags.
    pub const NONE: AtFlags = AtFlags(0);
    /// `AT_SYMLINK_NOFOLLOW`: do not follow a final symlink.
    pub const SYMLINK_NOFOLLOW: AtFlags = AtFlags(0x100);
    /// `AT_REMOVEDIR`: `unlinkat` removes a directory (`rmdir`).
    pub const REMOVEDIR: AtFlags = AtFlags(0x200);
    /// `AT_EMPTY_PATH`: an empty path names `dirfd` itself.
    pub const EMPTY_PATH: AtFlags = AtFlags(0x1000);

    /// True if every flag in `other` is set.
    pub const fn contains(self, other: AtFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl BitOr for AtFlags {
    type Output = AtFlags;

    fn bitor(self, rhs: AtFlags) -> AtFlags {
        AtFlags(self.0 | rhs.0)
    }
}

/// Flags for `renameat2(2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RenameFlags {
    /// `RENAME_NOREPLACE`: fail with `EEXIST` if the target exists.
    pub noreplace: bool,
    /// `RENAME_EXCHANGE`: atomically swap source and target.
    pub exchange: bool,
}

impl RenameFlags {
    /// Plain `rename(2)` semantics.
    pub const NONE: RenameFlags = RenameFlags {
        noreplace: false,
        exchange: false,
    };

    /// `RENAME_NOREPLACE`.
    pub const NOREPLACE: RenameFlags = RenameFlags {
        noreplace: true,
        exchange: false,
    };

    /// `RENAME_EXCHANGE`.
    pub const EXCHANGE: RenameFlags = RenameFlags {
        noreplace: false,
        exchange: true,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_mode_predicates() {
        assert!(AccessMode::ReadOnly.readable());
        assert!(!AccessMode::ReadOnly.writable());
        assert!(AccessMode::ReadWrite.readable());
        assert!(AccessMode::ReadWrite.writable());
        assert!(AccessMode::WriteOnly.writable());
    }

    #[test]
    fn flag_composition() {
        let f = OpenFlags::create();
        assert!(f.contains(OpenFlags::CREAT));
        assert!(f.contains(OpenFlags::TRUNC));
        assert!(!f.contains(OpenFlags::EXCL));
        assert_eq!(f.mode, AccessMode::WriteOnly);

        let g = OpenFlags::RDONLY | OpenFlags::DIRECT;
        assert!(g.contains(OpenFlags::DIRECT));
    }

    #[test]
    fn display_lists_bits() {
        let f = OpenFlags::RDWR.with(OpenFlags::APPEND | OpenFlags::SYNC);
        let s = f.to_string();
        assert!(s.contains("O_RDWR"));
        assert!(s.contains("O_APPEND"));
        assert!(s.contains("O_SYNC"));
    }

    #[test]
    fn bits_match_linux_values() {
        assert_eq!(OpenFlags::CREAT, 0o100);
        assert_eq!(OpenFlags::APPEND, 0o2000);
        assert_eq!(OpenFlags::DIRECT, 0o40000);
        assert_eq!(OpenFlags::CLOEXEC, 0o2000000);
        assert_eq!(OpenFlags::PATH, 0o10000000);
    }

    #[test]
    fn at_flags_compose() {
        let f = AtFlags::EMPTY_PATH | AtFlags::SYMLINK_NOFOLLOW;
        assert!(f.contains(AtFlags::EMPTY_PATH));
        assert!(f.contains(AtFlags::SYMLINK_NOFOLLOW));
        assert!(!f.contains(AtFlags::REMOVEDIR));
        assert!(AtFlags::NONE.contains(AtFlags::NONE));
    }
}
