//! The inode-level filesystem interface.

use bytes::Bytes;
use cntr_types::{
    DevId, Dirent, FileType, Gid, Ino, Mode, OpenFlags, RenameFlags, SetAttr, Stat, Statfs,
    SysResult, Uid,
};

/// Maximum length of one path component, as on Linux (`NAME_MAX`).
pub const MAX_NAME_LEN: usize = 255;

/// An open-file handle issued by a filesystem (`fh` in FUSE terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fh(pub u64);

/// The identity on whose behalf an operation runs.
///
/// Filesystems use it for ownership stamping and for the mode-bit rules that
/// depend on the caller (setgid clearing, setgid directory inheritance).
/// Full permission checking lives in the VFS layer (`cntr-kernel`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsContext {
    /// Effective (filesystem) uid.
    pub uid: Uid,
    /// Effective (filesystem) gid.
    pub gid: Gid,
    /// Supplementary groups.
    pub groups: Vec<Gid>,
    /// Whether the caller holds `CAP_FSETID` (suppresses setgid stripping).
    pub cap_fsetid: bool,
}

impl FsContext {
    /// Root context: uid 0, gid 0, all capabilities.
    pub fn root() -> FsContext {
        FsContext {
            uid: Uid::ROOT,
            gid: Gid::ROOT,
            groups: Vec::new(),
            cap_fsetid: true,
        }
    }

    /// An unprivileged user context.
    pub fn user(uid: u32, gid: u32) -> FsContext {
        FsContext {
            uid: Uid(uid),
            gid: Gid(gid),
            groups: Vec::new(),
            cap_fsetid: false,
        }
    }

    /// True if `gid` is the caller's effective or supplementary group.
    pub fn in_group(&self, gid: Gid) -> bool {
        self.gid == gid || self.groups.contains(&gid)
    }
}

/// Flags for `setxattr(2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum XattrFlags {
    /// Create or replace.
    #[default]
    Any,
    /// `XATTR_CREATE`: fail with `EEXIST` if the attribute exists.
    Create,
    /// `XATTR_REPLACE`: fail with `ENODATA` if the attribute is missing.
    Replace,
}

/// Modes for `fallocate(2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallocateMode {
    /// Default: allocate and extend the file if needed.
    Allocate,
    /// `FALLOC_FL_KEEP_SIZE`: allocate without changing the file size.
    KeepSize,
    /// `FALLOC_FL_PUNCH_HOLE | KEEP_SIZE`: deallocate the range, reading as
    /// zeroes.
    PunchHole,
}

/// Feature flags a filesystem reports.
///
/// These encode the implementation limits behind the paper's four xfstests
/// failures (§5.1): CntrFS supports neither `O_DIRECT` (it needs `mmap` to
/// execute binaries, and FUSE makes the two mutually exclusive — test #391),
/// nor exportable file handles (its inodes are not persistent — test #426);
/// it replays operations in the server process so the *caller's*
/// `RLIMIT_FSIZE` is not enforced (test #228), and it delegates POSIX ACLs to
/// the backing filesystem so the setgid-clearing corner case is missed
/// (test #375).
///
/// They also state the page-cache contract the kernel applies to a mount of
/// the filesystem: a disk or tmpfs caches both ways, a FUSE mount reports
/// what INIT negotiated (two of the paper's §3.3 optimizations), and
/// `/proc` caches nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsFeatures {
    /// `open(O_DIRECT)` is honoured.
    pub direct_io: bool,
    /// `name_to_handle_at(2)`-style inode export is possible.
    pub exportable_handles: bool,
    /// Writes enforce the calling process's `RLIMIT_FSIZE`.
    pub enforces_caller_fsize: bool,
    /// `chmod` applies the ACL-aware setgid-clearing rule itself (rather
    /// than delegating ownership decisions to another identity).
    pub native_setgid_clearing: bool,
    /// The filesystem is backed by a block device (some xfstests are skipped
    /// otherwise, matching the paper's "expected our filesystem to be backed
    /// by a block device").
    pub block_backed: bool,
    /// Copy-on-write ioctls (`FICLONE`) are supported.
    pub reflink: bool,
    /// The kernel can cache the `security.capability` xattr for this
    /// filesystem. When false (FUSE), every small write triggers an xattr
    /// lookup round trip — the paper's explanation for the Apache benchmark
    /// overhead (§5.2.2: "the kernel currently neither caches such
    /// attributes nor provides an option for caching them").
    pub xattr_cached: bool,
    /// Writes may be buffered dirty in the page cache and flushed in
    /// batches (`FUSE_WRITEBACK_CACHE`). Off = write-through.
    pub writeback_cache: bool,
    /// Cached pages survive `open()` (`FOPEN_KEEP_CACHE`). Off = a file's
    /// cached pages are invalidated each time it is opened.
    pub keep_cache: bool,
}

impl FsFeatures {
    /// Everything a well-behaved local disk filesystem supports.
    pub const fn full() -> FsFeatures {
        FsFeatures {
            direct_io: true,
            exportable_handles: true,
            enforces_caller_fsize: true,
            native_setgid_clearing: true,
            block_backed: true,
            reflink: false,
            xattr_cached: true,
            writeback_cache: true,
            keep_cache: true,
        }
    }

    /// tmpfs: everything except block backing and reflink.
    pub const fn tmpfs() -> FsFeatures {
        FsFeatures {
            direct_io: true,
            exportable_handles: true,
            enforces_caller_fsize: true,
            native_setgid_clearing: true,
            block_backed: false,
            reflink: false,
            xattr_cached: true,
            writeback_cache: true,
            keep_cache: true,
        }
    }
}

/// The inode-level filesystem API (the simulated kernel's VFS boundary).
///
/// All methods take `&self`; implementations are internally synchronized and
/// usable from multiple threads, as required by the multithreaded FUSE
/// server (paper §3.3, "Multithreading").
pub trait Filesystem: Send + Sync {
    /// A stable identifier for this filesystem instance (`st_dev`).
    fn fs_id(&self) -> DevId;

    /// Human-readable filesystem type, e.g. `"tmpfs"`, `"ext4"`, `"cntrfs"`.
    fn fs_type(&self) -> &'static str;

    /// Mount-option string as shown in `/proc/<pid>/mounts` (the `opts`
    /// column). Stacked filesystems override this to expose their layering
    /// (overlayfs reports `lowerdir=`/`upperdir=`).
    fn fs_options(&self) -> String {
        "rw".to_string()
    }

    /// The root inode (by convention [`Ino::ROOT`]).
    fn root_ino(&self) -> Ino {
        Ino::ROOT
    }

    /// Feature flags.
    fn features(&self) -> FsFeatures;

    /// Looks up `name` in directory `parent`.
    fn lookup(&self, parent: Ino, name: &str) -> SysResult<Stat>;

    /// Reads the attributes of an inode.
    fn getattr(&self, ino: Ino) -> SysResult<Stat>;

    /// Applies a [`SetAttr`] change-set on behalf of `ctx`.
    fn setattr(&self, ino: Ino, attr: &SetAttr, ctx: &FsContext) -> SysResult<Stat>;

    /// Creates a non-directory node (regular file, fifo, socket, device).
    fn mknod(
        &self,
        parent: Ino,
        name: &str,
        ftype: FileType,
        mode: Mode,
        rdev: u64,
        ctx: &FsContext,
    ) -> SysResult<Stat>;

    /// Creates a directory.
    fn mkdir(&self, parent: Ino, name: &str, mode: Mode, ctx: &FsContext) -> SysResult<Stat>;

    /// Removes a non-directory entry.
    fn unlink(&self, parent: Ino, name: &str) -> SysResult<()>;

    /// Removes an empty directory.
    fn rmdir(&self, parent: Ino, name: &str) -> SysResult<()>;

    /// Creates a symbolic link containing `target`.
    fn symlink(&self, parent: Ino, name: &str, target: &str, ctx: &FsContext) -> SysResult<Stat>;

    /// Reads a symbolic link.
    fn readlink(&self, ino: Ino) -> SysResult<String>;

    /// Creates a hard link to `ino` at `newparent/newname`.
    fn link(&self, ino: Ino, newparent: Ino, newname: &str) -> SysResult<Stat>;

    /// Renames `parent/name` to `newparent/newname`.
    fn rename(
        &self,
        parent: Ino,
        name: &str,
        newparent: Ino,
        newname: &str,
        flags: RenameFlags,
    ) -> SysResult<()>;

    /// Opens an inode, returning a file handle.
    fn open(&self, ino: Ino, flags: OpenFlags) -> SysResult<Fh>;

    /// Releases a file handle.
    fn release(&self, ino: Ino, fh: Fh) -> SysResult<()>;

    /// Reads up to `buf.len()` bytes at `offset`; returns bytes read
    /// (0 at or past EOF).
    fn read(&self, ino: Ino, fh: Fh, offset: u64, buf: &mut [u8]) -> SysResult<usize>;

    /// Writes `data` at `offset`; returns bytes written.
    fn write(&self, ino: Ino, fh: Fh, offset: u64, data: &[u8]) -> SysResult<usize>;

    /// Reads up to `len` bytes at `offset` as an owned [`Bytes`] buffer —
    /// the splice data path.
    ///
    /// Filesystems whose storage already holds reference-counted buffers
    /// override this to return a *slice of the stored bytes* (zero copy);
    /// the default reads into a fresh allocation (one copy, exactly what
    /// `read` costs).
    ///
    /// Like `read(2)` this may return **short**: fewer than `len` bytes
    /// even before EOF (e.g. at an internal chunk boundary). An empty
    /// buffer means EOF. Callers wanting exactly `len` bytes must loop.
    fn read_bytes(&self, ino: Ino, fh: Fh, offset: u64, len: usize) -> SysResult<Bytes> {
        let mut buf = vec![0u8; len];
        let n = self.read(ino, fh, offset, &mut buf)?;
        buf.truncate(n);
        Ok(Bytes::from(buf))
    }

    /// Writes an owned [`Bytes`] buffer at `offset` — the splice data path.
    ///
    /// Filesystems whose storage can *retain* the buffer (reference it
    /// instead of copying it) override this; the default delegates to
    /// `write` (one copy). Unlike `read_bytes` this never writes short:
    /// on success all of `data` is written.
    fn write_bytes(&self, ino: Ino, fh: Fh, offset: u64, data: Bytes) -> SysResult<usize> {
        self.write(ino, fh, offset, &data)
    }

    /// Reads until `len` bytes or EOF, preferring a single zero-copy
    /// answer: when one [`Filesystem::read_bytes`] call satisfies the read
    /// (full, or short because of EOF), its buffer is returned unchanged;
    /// only a short read at an internal chunk boundary pays a gather into
    /// one owned buffer. Not meant to be overridden. The FUSE server
    /// assembles its READ replies with it; the page cache does not, since
    /// it caches each chunk of a chunked store by reference instead.
    fn read_bytes_gather(&self, ino: Ino, fh: Fh, offset: u64, len: usize) -> SysResult<Bytes> {
        let first = self.read_bytes(ino, fh, offset, len)?;
        if first.len() == len || first.is_empty() {
            return Ok(first);
        }
        // Short: probe whether it was EOF (forward the prefix as-is, still
        // zero-copy) or a chunk boundary (gather the rest).
        let next = self.read_bytes(ino, fh, offset + first.len() as u64, len - first.len())?;
        if next.is_empty() {
            return Ok(first);
        }
        let mut buf = Vec::with_capacity(len);
        buf.extend_from_slice(&first);
        buf.extend_from_slice(&next);
        while buf.len() < len {
            let chunk = self.read_bytes(ino, fh, offset + buf.len() as u64, len - buf.len())?;
            if chunk.is_empty() {
                break;
            }
            buf.extend_from_slice(&chunk);
        }
        Ok(Bytes::from(buf))
    }

    /// Reads the page at `offset` into `buf` (one page long) for the page
    /// cache, which must complete a page before caching a write that covers
    /// only part of it (Linux's `read_folio` from `write_begin`). Unlike
    /// `read` it is no readahead trigger: a filesystem that keeps readahead
    /// windows neither opens nor moves one for it. The default is `read`.
    fn read_page(&self, ino: Ino, fh: Fh, offset: u64, buf: &mut [u8]) -> SysResult<usize> {
        self.read(ino, fh, offset, buf)
    }

    /// Flushes file data (and metadata unless `datasync`) to stable storage.
    fn fsync(&self, ino: Ino, fh: Fh, datasync: bool) -> SysResult<()>;

    /// Lists directory entries (excluding `.` and `..`, which the VFS
    /// synthesizes).
    fn readdir(&self, ino: Ino) -> SysResult<Vec<Dirent>>;

    /// Filesystem-wide statistics.
    fn statfs(&self) -> SysResult<Statfs>;

    /// Reads an extended attribute.
    fn getxattr(&self, ino: Ino, name: &str) -> SysResult<Vec<u8>>;

    /// Sets an extended attribute.
    fn setxattr(&self, ino: Ino, name: &str, value: &[u8], flags: XattrFlags) -> SysResult<()>;

    /// Lists extended attribute names.
    fn listxattr(&self, ino: Ino) -> SysResult<Vec<String>>;

    /// Removes an extended attribute.
    fn removexattr(&self, ino: Ino, name: &str) -> SysResult<()>;

    /// Manipulates file space.
    fn fallocate(
        &self,
        ino: Ino,
        fh: Fh,
        offset: u64,
        len: u64,
        mode: FallocateMode,
    ) -> SysResult<()>;

    /// Drops `nlookup` references the kernel held on `ino` (FUSE `FORGET`).
    /// A no-op for ordinary filesystems.
    fn forget(&self, _ino: Ino, _nlookup: u64) {}

    /// Exports an inode as a persistent handle (`name_to_handle_at`).
    ///
    /// Filesystems whose inodes are not persistent (CntrFS) return
    /// `EOPNOTSUPP` — xfstests #426.
    fn export_handle(&self, ino: Ino) -> SysResult<u64> {
        if self.features().exportable_handles {
            Ok(ino.raw())
        } else {
            Err(cntr_types::Errno::EOPNOTSUPP)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_group_membership() {
        let mut ctx = FsContext::user(1000, 1000);
        assert!(ctx.in_group(Gid(1000)));
        assert!(!ctx.in_group(Gid(5)));
        ctx.groups.push(Gid(5));
        assert!(ctx.in_group(Gid(5)));
    }

    #[test]
    fn root_context_holds_fsetid() {
        assert!(FsContext::root().cap_fsetid);
        assert!(!FsContext::user(1, 1).cap_fsetid);
    }

    #[test]
    fn feature_presets() {
        assert!(FsFeatures::full().block_backed);
        assert!(!FsFeatures::tmpfs().block_backed);
        assert!(FsFeatures::tmpfs().direct_io);
        for f in [FsFeatures::full(), FsFeatures::tmpfs()] {
            assert!(f.writeback_cache && f.keep_cache);
        }
    }
}
