//! The inode-level filesystem interface.

use bytes::Bytes;
use cntr_types::{
    DevId, Dirent, FileType, Gid, Ino, Mode, OpenFlags, RenameFlags, SetAttr, Stat, Statfs,
    SysResult, Uid,
};
use std::any::Any;
use std::sync::Arc;

/// Maximum length of one path component, as on Linux (`NAME_MAX`).
pub const MAX_NAME_LEN: usize = 255;

/// The xattr holding a file's capabilities, which a write strips
/// ([`Filesystem::need_killpriv`]).
pub const XATTR_NAME_CAPS: &str = "security.capability";

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

/// What the kernel acts on about a filesystem: every field here is read by
/// the VFS, the page cache or the passthrough table.
///
/// One field carries one of the paper's four xfstests failures (§5.1):
/// CntrFS replays writes in the server process, so the *caller's*
/// `RLIMIT_FSIZE` is not enforced (`enforces_caller_fsize`, test #228).
/// The other three are behaviour, not flags: `FuseClientFs::open` refuses
/// `O_DIRECT` (FUSE makes it and `mmap` mutually exclusive — #391), its
/// [`Filesystem::export_handle`] returns `EOPNOTSUPP` (its inodes are not
/// persistent — #426), and `CntrfsServer` runs `chmod` as root, so the
/// backing filesystem's setgid-clearing rule never fires (#375).
///
/// The rest state the page-cache contract the kernel applies to a mount of
/// the filesystem: a disk or tmpfs caches both ways, a FUSE mount reports
/// what INIT negotiated (two of the paper's §3.3 optimizations), and
/// `/proc` caches nothing. A FUSE mount that negotiated passthrough also
/// says so, and every filesystem states how deeply it stacks on others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsFeatures {
    /// Writes enforce the calling process's `RLIMIT_FSIZE`.
    pub enforces_caller_fsize: bool,
    /// Writes may be buffered dirty in the page cache and flushed in
    /// batches (`FUSE_WRITEBACK_CACHE`). Off = write-through.
    pub writeback_cache: bool,
    /// Cached pages survive `open()` (`FOPEN_KEEP_CACHE`). Off = a file's
    /// cached pages are invalidated each time it is opened.
    pub keep_cache: bool,
    /// `FUSE_PASSTHROUGH` was negotiated: an open may hand its data I/O to
    /// a backing file ([`Filesystem::passthrough`]), and the kernel keeps
    /// the mount's backing table and each inode's I/O mode.
    pub passthrough: bool,
    /// How many filesystems this one stacks on (Linux's `s_stack_depth`):
    /// 0 for a disk or tmpfs, 1 for an overlay of them. A FUSE mount that
    /// negotiated passthrough reports its `max_stack_depth`, and refuses a
    /// backing file at that depth or deeper.
    pub stack_depth: u8,
    /// Regular files are generated when read, like procfs's `seq_file`s:
    /// `st_size` is 0 and does not bound a read, each open file renders
    /// its content once, at its first read, and the kernel reads them
    /// straight from the filesystem, never through the page cache. A
    /// property of the filesystem, not a mount option.
    pub seq_files: bool,
}

impl FsFeatures {
    /// A local filesystem (disk or tmpfs): enforces the caller's limits,
    /// caches both ways, and stacks on nothing.
    pub const fn local() -> FsFeatures {
        FsFeatures {
            enforces_caller_fsize: true,
            writeback_cache: true,
            keep_cache: true,
            passthrough: false,
            stack_depth: 0,
            seq_files: false,
        }
    }
}

/// A FUSE handle whose data I/O bypasses the filesystem
/// (`FOPEN_PASSTHROUGH`, Linux 6.9): the kernel reads and writes the
/// backing file the server registered instead.
#[derive(Clone)]
pub struct Passthrough {
    /// The id `FUSE_DEV_IOC_BACKING_OPEN` gave the server's backing file:
    /// a key into the connection's backing table.
    pub backing_id: u32,
    /// Told the end offset of each passthrough write, so the filesystem
    /// can extend the size it caches (Linux's `fuse_write_update_attr`,
    /// called through `backing_file_ctx::end_write`).
    pub end_write: Arc<dyn Fn(u64) + Send + Sync>,
}

impl std::fmt::Debug for Passthrough {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Passthrough")
            .field("backing_id", &self.backing_id)
            .finish_non_exhaustive()
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

    /// The backing file of handle `fh`, if its open was a FUSE
    /// passthrough open: the kernel then routes the handle's reads and
    /// writes to that file and never calls [`Filesystem::read_bytes`] or
    /// [`Filesystem::write_bytes`] for it. `None` (the default) means the
    /// handle's data goes through this filesystem.
    fn passthrough(&self, _ino: Ino, _fh: Fh) -> Option<Passthrough> {
        None
    }

    /// Reads up to `len` bytes at `offset` as an owned [`Bytes`] buffer:
    /// the one read path of every filesystem (the splice path of §3.3).
    ///
    /// A filesystem whose storage already holds reference-counted buffers
    /// returns a *slice of the stored bytes* (zero copy); any other reads
    /// into a fresh allocation (one copy).
    ///
    /// Like `read(2)` this may return **short**: fewer than `len` bytes
    /// even before EOF (e.g. at an internal chunk boundary). An empty
    /// buffer means EOF. Callers wanting exactly `len` bytes must loop, or
    /// use [`FilesystemExt::read_bytes_gather`].
    fn read_bytes(&self, ino: Ino, fh: Fh, offset: u64, len: usize) -> SysResult<Bytes>;

    /// Writes owned [`Bytes`] buffers back to back at `offset`: the one
    /// write path of every filesystem. A caller hands over one buffer, or,
    /// as page-cache write-back does, one buffer per page (Linux's
    /// `bio_vec`), so no page is copied to make a run. A filesystem whose
    /// storage can *retain* the buffers references them instead of copying
    /// them. Unlike `read_bytes` this never writes short: on success all of
    /// `data` is written, and the return is its total length.
    fn write_bytes(&self, ino: Ino, fh: Fh, offset: u64, data: &[Bytes]) -> SysResult<usize>;

    /// Reads the page at `offset` into `buf` (one page long) for the page
    /// cache, which must complete a page before caching a write that covers
    /// only part of it (Linux's `read_folio` from `write_begin`). Unlike
    /// a plain read it is no readahead trigger: a filesystem that keeps
    /// readahead windows neither opens nor moves one for it. The default
    /// is [`FilesystemExt::read`].
    fn read_page(&self, ino: Ino, fh: Fh, offset: u64, buf: &mut [u8]) -> SysResult<usize> {
        FilesystemExt::read(self, ino, fh, offset, buf)
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

    /// Whether a write must strip `ino`'s file capability: it carries
    /// [`XATTR_NAME_CAPS`] (Linux's `security_inode_need_killpriv`). An
    /// error such as `EOPNOTSUPP` counts as "no". The kernel asks before
    /// every write and removes the xattr on "yes" (`file_remove_privs`).
    ///
    /// A native filesystem answers from the inode. FUSE pays a GETXATTR
    /// round trip per check, the paper's explanation for the Apache
    /// overhead (§5.2.2: "the kernel currently neither caches such
    /// attributes nor provides an option for caching them"). Linux 5.11
    /// added that option, `FUSE_HANDLE_KILLPRIV_V2`: a client that
    /// negotiated it remembers a "no" (Linux's `S_NOSEC`) until the
    /// inode's attributes or xattrs change.
    fn need_killpriv(&self, ino: Ino) -> bool {
        self.getxattr(ino, XATTR_NAME_CAPS).is_ok()
    }

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
    /// Filesystems whose inodes are not persistent (CntrFS, `/proc`)
    /// override this to return `EOPNOTSUPP` — xfstests #426.
    fn export_handle(&self, ino: Ino) -> SysResult<u64> {
        Ok(ino.raw())
    }

    /// The concrete filesystem behind this trait object, for a crate that
    /// shares storage between its own instances: the overlay crate
    /// recognizes a blob-backed `NodeFs` here and clones files between two
    /// of them by reference (Linux's `->remap_file_range`). `None` (the
    /// default) makes every such attempt fall back to copying bytes.
    fn as_any(&self) -> Option<&dyn Any> {
        None
    }
}

/// The data operations every [`Filesystem`] gets from its `Bytes` path.
///
/// Blanket-implemented for every filesystem and not meant to be
/// implemented by hand, so no filesystem can fork a second data path: a
/// slice `read` is a gather plus the copy into the caller's buffer
/// (`copy_to_user`), and a slice `write` is the copy of the caller's
/// bytes into an owned buffer (`copy_from_user`) plus
/// [`Filesystem::write_bytes`].
pub trait FilesystemExt: Filesystem {
    /// Reads until `len` bytes or EOF, preferring a single zero-copy
    /// answer: when one [`Filesystem::read_bytes`] call satisfies the read
    /// (full, or short because of EOF), its buffer is returned unchanged;
    /// only a short read at an internal chunk boundary pays a gather into
    /// one owned buffer. The FUSE server assembles its READ replies with
    /// it; the page cache does not, since it caches each chunk of a
    /// chunked store by reference instead.
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

    /// Reads up to `buf.len()` bytes at `offset` into `buf`; returns bytes
    /// read (0 at or past EOF).
    fn read(&self, ino: Ino, fh: Fh, offset: u64, buf: &mut [u8]) -> SysResult<usize> {
        let data = self.read_bytes_gather(ino, fh, offset, buf.len())?;
        buf[..data.len()].copy_from_slice(&data);
        Ok(data.len())
    }

    /// Writes `data` at `offset`; returns bytes written.
    fn write(&self, ino: Ino, fh: Fh, offset: u64, data: &[u8]) -> SysResult<usize> {
        self.write_bytes(ino, fh, offset, &[Bytes::copy_from_slice(data)])
    }
}

impl<F: Filesystem + ?Sized> FilesystemExt for F {}

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
        let f = FsFeatures::local();
        assert!(f.enforces_caller_fsize && f.writeback_cache && f.keep_cache);
        assert!(!f.passthrough);
        assert_eq!(f.stack_depth, 0);
    }
}
