//! The FUSE wire protocol (request/reply model).
//!
//! Opcode numbers match `include/uapi/linux/fuse.h` so traces line up with
//! real FUSE debugging output. Payloads use [`bytes::Bytes`] so the splice
//! paths can hand buffers around without copying — mirroring what
//! `splice(2)` achieves on the real `/dev/fuse`.

use bytes::Bytes;
use cntr_types::{
    DevId, Dirent, Errno, FileType, Ino, Mode, OpenFlags, RenameFlags, SetAttr, Stat, Statfs,
};

/// Size of a FUSE request/reply header (`fuse_in_header` is 40 bytes;
/// we charge a round 80 for header plus typical op body).
pub const HEADER_BYTES: usize = 80;

/// FUSE operation codes (values from the Linux uapi). `FLUSH` and
/// `ACCESS` stay although no [`Request`] carries them: the client checks
/// permissions itself (`default_permissions`) and has nothing to flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum Opcode {
    /// `FUSE_LOOKUP`
    Lookup = 1,
    /// `FUSE_FORGET`
    Forget = 2,
    /// `FUSE_GETATTR`
    Getattr = 3,
    /// `FUSE_SETATTR`
    Setattr = 4,
    /// `FUSE_READLINK`
    Readlink = 5,
    /// `FUSE_SYMLINK`
    Symlink = 6,
    /// `FUSE_MKNOD`
    Mknod = 8,
    /// `FUSE_MKDIR`
    Mkdir = 9,
    /// `FUSE_UNLINK`
    Unlink = 10,
    /// `FUSE_RMDIR`
    Rmdir = 11,
    /// `FUSE_RENAME`
    Rename = 12,
    /// `FUSE_LINK`
    Link = 13,
    /// `FUSE_OPEN`
    Open = 14,
    /// `FUSE_READ`
    Read = 15,
    /// `FUSE_WRITE`
    Write = 16,
    /// `FUSE_STATFS`
    Statfs = 17,
    /// `FUSE_RELEASE`
    Release = 18,
    /// `FUSE_FSYNC`
    Fsync = 20,
    /// `FUSE_SETXATTR`
    Setxattr = 21,
    /// `FUSE_GETXATTR`
    Getxattr = 22,
    /// `FUSE_LISTXATTR`
    Listxattr = 23,
    /// `FUSE_REMOVEXATTR`
    Removexattr = 24,
    /// `FUSE_FLUSH`
    Flush = 25,
    /// `FUSE_INIT`
    Init = 26,
    /// `FUSE_READDIR`
    Readdir = 28,
    /// `FUSE_ACCESS`
    Access = 34,
    /// `FUSE_CREATE`
    Create = 35,
    /// `FUSE_DESTROY`
    Destroy = 38,
    /// `FUSE_BATCH_FORGET`
    BatchForget = 42,
    /// `FUSE_FALLOCATE`
    Fallocate = 43,
}

/// The uapi opcode value, as a per-opcode counter index.
impl From<Opcode> for usize {
    fn from(op: Opcode) -> usize {
        op as usize
    }
}

impl Opcode {
    /// Kebab-cased opcode name, used to build the per-opcode obs metric
    /// family (`fuse.op.<name>.count` / `fuse.op.<name>.latency-ns`).
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Lookup => "lookup",
            Opcode::Forget => "forget",
            Opcode::Getattr => "getattr",
            Opcode::Setattr => "setattr",
            Opcode::Readlink => "readlink",
            Opcode::Symlink => "symlink",
            Opcode::Mknod => "mknod",
            Opcode::Mkdir => "mkdir",
            Opcode::Unlink => "unlink",
            Opcode::Rmdir => "rmdir",
            Opcode::Rename => "rename",
            Opcode::Link => "link",
            Opcode::Open => "open",
            Opcode::Read => "read",
            Opcode::Write => "write",
            Opcode::Statfs => "statfs",
            Opcode::Release => "release",
            Opcode::Fsync => "fsync",
            Opcode::Setxattr => "setxattr",
            Opcode::Getxattr => "getxattr",
            Opcode::Listxattr => "listxattr",
            Opcode::Removexattr => "removexattr",
            Opcode::Flush => "flush",
            Opcode::Init => "init",
            Opcode::Readdir => "readdir",
            Opcode::Access => "access",
            Opcode::Create => "create",
            Opcode::Destroy => "destroy",
            Opcode::BatchForget => "batch-forget",
            Opcode::Fallocate => "fallocate",
        }
    }
}

/// INIT negotiation flags — each one is a paper §3.3 optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InitFlags {
    /// `FUSE_WRITEBACK_CACHE`: buffer writes dirty in the page cache.
    pub writeback_cache: bool,
    /// `FOPEN_KEEP_CACHE` on opens: keep cached pages across `open()`.
    pub keep_cache: bool,
    /// `FUSE_PARALLEL_DIROPS`: concurrent lookups/readdirs in one directory.
    pub parallel_dirops: bool,
    /// `FUSE_SPLICE_READ` (+`MOVE`): zero-copy read replies.
    pub splice_read: bool,
    /// Splice writes. The paper's CNTR shipped with these *disabled*: every
    /// spliced request paid an extra context switch to peek the header
    /// (§3.3 "Splicing"), and writes were small enough that the copy was
    /// cheaper than the peek. With batched write-back, WRITE requests are
    /// few and large, so the peek amortizes and the payload moves by page
    /// remap — the shipping default is now **on** (see
    /// [`InitFlags::cntr_default`]); [`InitFlags::paper_legacy`] keeps the
    /// paper's original profile selectable.
    pub splice_write: bool,
    /// FUSE-over-io_uring dispatch (`FUSE_IO_URING`): a server worker
    /// reaps many requests per wakeup instead of paying one wakeup per
    /// request, so the cost model charges each request a
    /// `1/RING_BATCH` share of the worker synchronization. Post-dates the
    /// paper, so [`InitFlags::paper_legacy`] keeps it off — same pattern
    /// as splice-write.
    pub ring: bool,
    /// `FUSE_CACHE_SYMLINKS` (Linux 4.20): the kernel keeps a symlink's
    /// target after the first READLINK instead of asking on every
    /// traversal. Post-dates the paper, so [`InitFlags::paper_legacy`]
    /// keeps it off.
    pub cache_symlinks: bool,
    /// `FUSE_HANDLE_KILLPRIV_V2` (Linux 5.11): the mount is `SB_NOSEC`, so
    /// once a write finds a file with neither setuid/setgid nor
    /// `security.capability`, the client marks the inode `S_NOSEC` and
    /// later writes skip the GETXATTR until its attributes or xattrs
    /// change. Without it every write asks the server, the Apache overhead
    /// of §5.2.2. Post-dates the paper, so [`InitFlags::paper_legacy`]
    /// keeps it off.
    pub handle_killpriv_v2: bool,
    /// `FUSE_PASSTHROUGH` (Linux 6.9): an OPEN reply may carry
    /// `FOPEN_PASSTHROUGH` and a backing id, and the kernel then reads and
    /// writes the server's backing file directly — no READ/WRITE request,
    /// and the FUSE mount caches none of the file's pages, so each page
    /// is cached once (the double buffering of §5.2.2 is gone).
    /// Post-dates the paper, so [`InitFlags::paper_legacy`] keeps it off.
    pub passthrough: bool,
}

impl InitFlags {
    /// The shipping defaults: everything on, **including splice-write**
    /// and passthrough.
    ///
    /// The paper disabled splice-write because the per-request header peek
    /// cost a context switch while writes were page-sized; now that
    /// write-back batching coalesces dirty runs into few large WRITE
    /// requests and the payload crosses the boundary as a retained
    /// [`bytes::Bytes`] (no copy), the peek amortizes away and splice-write
    /// wins. The paper's original profile is [`InitFlags::paper_legacy`].
    pub const fn cntr_default() -> InitFlags {
        InitFlags {
            writeback_cache: true,
            keep_cache: true,
            parallel_dirops: true,
            splice_read: true,
            splice_write: true,
            ring: true,
            cache_symlinks: true,
            handle_killpriv_v2: true,
            passthrough: true,
        }
    }

    /// CNTR's shipping defaults *as published* (§3.3): everything on except
    /// splice-write and the post-paper ring dispatch, symlink cache,
    /// `handle_killpriv_v2` and passthrough. The paper-figure reproductions
    /// (`cntr-phoronix`) pin this profile so Figures 2–4 keep the published
    /// calibration.
    pub const fn paper_legacy() -> InitFlags {
        InitFlags {
            writeback_cache: true,
            keep_cache: true,
            parallel_dirops: true,
            splice_read: true,
            splice_write: false,
            ring: false,
            cache_symlinks: false,
            handle_killpriv_v2: false,
            passthrough: false,
        }
    }

    /// Everything off — the unoptimized baseline of §5.2.3. Readahead and
    /// batched forgets are not flags, so they stay on here too.
    pub const fn none() -> InitFlags {
        InitFlags {
            writeback_cache: false,
            keep_cache: false,
            parallel_dirops: false,
            splice_read: false,
            splice_write: false,
            ring: false,
            cache_symlinks: false,
            handle_killpriv_v2: false,
            passthrough: false,
        }
    }

    /// Flag-wise intersection — INIT negotiation.
    #[must_use]
    pub const fn intersect(self, other: InitFlags) -> InitFlags {
        InitFlags {
            writeback_cache: self.writeback_cache && other.writeback_cache,
            keep_cache: self.keep_cache && other.keep_cache,
            parallel_dirops: self.parallel_dirops && other.parallel_dirops,
            splice_read: self.splice_read && other.splice_read,
            splice_write: self.splice_write && other.splice_write,
            ring: self.ring && other.ring,
            cache_symlinks: self.cache_symlinks && other.cache_symlinks,
            handle_killpriv_v2: self.handle_killpriv_v2 && other.handle_killpriv_v2,
            passthrough: self.passthrough && other.passthrough,
        }
    }
}

/// The identity a request runs as (`fuse_in_header.{uid,gid,pid}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestCtx {
    /// Caller uid.
    pub uid: u32,
    /// Caller gid.
    pub gid: u32,
    /// Caller pid.
    pub pid: u32,
}

/// A FUSE request, as read from `/dev/fuse`.
#[derive(Debug)]
pub enum Request {
    /// Protocol negotiation.
    Init {
        /// Flags the kernel wants.
        wanted: InitFlags,
        /// The connection: the FUSE mount's device, which the server's
        /// `/dev/fuse` descriptor names. Its backing-file ioctls go to it.
        conn: DevId,
    },
    /// Resolve `name` under `parent`.
    Lookup {
        /// Parent inode.
        parent: Ino,
        /// Child name.
        name: String,
        /// Caller identity.
        ctx: RequestCtx,
    },
    /// Drop `nlookup` references to `ino`.
    Forget {
        /// Inode.
        ino: Ino,
        /// Reference count to drop.
        nlookup: u64,
    },
    /// Batched forget.
    BatchForget {
        /// `(ino, nlookup)` pairs.
        items: Vec<(Ino, u64)>,
    },
    /// Read attributes.
    Getattr {
        /// Inode.
        ino: Ino,
    },
    /// Modify attributes.
    Setattr {
        /// Inode.
        ino: Ino,
        /// The change-set.
        attr: SetAttr,
        /// Caller identity.
        ctx: RequestCtx,
    },
    /// Read a symlink target.
    Readlink {
        /// Inode.
        ino: Ino,
    },
    /// Create a symlink.
    Symlink {
        /// Parent inode.
        parent: Ino,
        /// Link name.
        name: String,
        /// Target path.
        target: String,
        /// Caller identity.
        ctx: RequestCtx,
    },
    /// Create a node.
    Mknod {
        /// Parent inode.
        parent: Ino,
        /// Name.
        name: String,
        /// File type.
        ftype: FileType,
        /// Permissions.
        mode: Mode,
        /// Device number.
        rdev: u64,
        /// Caller identity.
        ctx: RequestCtx,
    },
    /// Create a directory.
    Mkdir {
        /// Parent inode.
        parent: Ino,
        /// Name.
        name: String,
        /// Permissions.
        mode: Mode,
        /// Caller identity.
        ctx: RequestCtx,
    },
    /// Remove a file.
    Unlink {
        /// Parent inode.
        parent: Ino,
        /// Name.
        name: String,
    },
    /// Remove a directory.
    Rmdir {
        /// Parent inode.
        parent: Ino,
        /// Name.
        name: String,
    },
    /// Rename.
    Rename {
        /// Source parent.
        parent: Ino,
        /// Source name.
        name: String,
        /// Destination parent.
        newparent: Ino,
        /// Destination name.
        newname: String,
        /// `renameat2` flags.
        flags: RenameFlags,
    },
    /// Hard link.
    Link {
        /// Source inode.
        ino: Ino,
        /// Destination parent.
        newparent: Ino,
        /// Destination name.
        newname: String,
    },
    /// Open a file.
    Open {
        /// Inode.
        ino: Ino,
        /// Open flags.
        flags: OpenFlags,
    },
    /// Read data.
    Read {
        /// Inode.
        ino: Ino,
        /// Server file handle.
        fh: u64,
        /// Byte offset.
        offset: u64,
        /// Bytes wanted.
        size: u32,
    },
    /// Write data.
    Write {
        /// Inode.
        ino: Ino,
        /// Server file handle.
        fh: u64,
        /// Byte offset.
        offset: u64,
        /// Payload.
        data: Bytes,
    },
    /// Filesystem statistics.
    Statfs,
    /// Close a handle.
    Release {
        /// Inode.
        ino: Ino,
        /// Server file handle.
        fh: u64,
    },
    /// Sync file data.
    Fsync {
        /// Inode.
        ino: Ino,
        /// Server file handle.
        fh: u64,
        /// Data-only sync.
        datasync: bool,
    },
    /// List a directory.
    Readdir {
        /// Inode.
        ino: Ino,
    },
    /// Read an extended attribute.
    Getxattr {
        /// Inode.
        ino: Ino,
        /// Attribute name.
        name: String,
    },
    /// Set an extended attribute.
    Setxattr {
        /// Inode.
        ino: Ino,
        /// Attribute name.
        name: String,
        /// Value.
        value: Vec<u8>,
        /// Flags.
        flags: cntr_fs::XattrFlags,
    },
    /// List extended attributes.
    Listxattr {
        /// Inode.
        ino: Ino,
    },
    /// Remove an extended attribute.
    Removexattr {
        /// Inode.
        ino: Ino,
        /// Attribute name.
        name: String,
    },
    /// Atomic create+open.
    Create {
        /// Parent inode.
        parent: Ino,
        /// Name.
        name: String,
        /// Permissions.
        mode: Mode,
        /// Open flags.
        flags: OpenFlags,
        /// Caller identity.
        ctx: RequestCtx,
    },
    /// Space manipulation.
    Fallocate {
        /// Inode.
        ino: Ino,
        /// Server file handle.
        fh: u64,
        /// Offset.
        offset: u64,
        /// Length.
        len: u64,
        /// Mode.
        mode: cntr_fs::FallocateMode,
    },
    /// Unmount notification.
    Destroy,
}

impl Request {
    /// The opcode of this request.
    pub fn opcode(&self) -> Opcode {
        match self {
            Request::Init { .. } => Opcode::Init,
            Request::Lookup { .. } => Opcode::Lookup,
            Request::Forget { .. } => Opcode::Forget,
            Request::BatchForget { .. } => Opcode::BatchForget,
            Request::Getattr { .. } => Opcode::Getattr,
            Request::Setattr { .. } => Opcode::Setattr,
            Request::Readlink { .. } => Opcode::Readlink,
            Request::Symlink { .. } => Opcode::Symlink,
            Request::Mknod { .. } => Opcode::Mknod,
            Request::Mkdir { .. } => Opcode::Mkdir,
            Request::Unlink { .. } => Opcode::Unlink,
            Request::Rmdir { .. } => Opcode::Rmdir,
            Request::Rename { .. } => Opcode::Rename,
            Request::Link { .. } => Opcode::Link,
            Request::Open { .. } => Opcode::Open,
            Request::Read { .. } => Opcode::Read,
            Request::Write { .. } => Opcode::Write,
            Request::Statfs => Opcode::Statfs,
            Request::Release { .. } => Opcode::Release,
            Request::Fsync { .. } => Opcode::Fsync,
            Request::Readdir { .. } => Opcode::Readdir,
            Request::Getxattr { .. } => Opcode::Getxattr,
            Request::Setxattr { .. } => Opcode::Setxattr,
            Request::Listxattr { .. } => Opcode::Listxattr,
            Request::Removexattr { .. } => Opcode::Removexattr,
            Request::Create { .. } => Opcode::Create,
            Request::Fallocate { .. } => Opcode::Fallocate,
            Request::Destroy => Opcode::Destroy,
        }
    }

    /// True for metadata operations (everything except READ/WRITE) — the
    /// class `FUSE_PARALLEL_DIROPS` pipelines.
    pub fn is_meta(&self) -> bool {
        !matches!(self, Request::Read { .. } | Request::Write { .. })
    }

    /// Approximate on-the-wire size of the request.
    pub fn wire_bytes(&self) -> usize {
        let payload = match self {
            Request::Lookup { name, .. }
            | Request::Unlink { name, .. }
            | Request::Rmdir { name, .. }
            | Request::Mkdir { name, .. } => name.len(),
            Request::Symlink { name, target, .. } => name.len() + target.len(),
            Request::Mknod { name, .. } | Request::Create { name, .. } => name.len(),
            Request::Rename { name, newname, .. } => name.len() + newname.len(),
            Request::Link { newname, .. } => newname.len(),
            Request::Write { data, .. } => data.len(),
            Request::Setxattr { name, value, .. } => name.len() + value.len(),
            Request::Getxattr { name, .. } | Request::Removexattr { name, .. } => name.len(),
            Request::BatchForget { items } => items.len() * 16,
            _ => 0,
        };
        HEADER_BYTES + payload
    }
}

/// A FUSE reply, as written back to `/dev/fuse`.
#[derive(Debug, Clone)]
pub enum Reply {
    /// Negotiated flags.
    Init {
        /// Flags granted by the server.
        granted: InitFlags,
    },
    /// Entry (lookup/mknod/mkdir/symlink/link): attributes of the node.
    Entry(Stat),
    /// Attributes.
    Attr(Stat),
    /// Symlink target.
    Target(String),
    /// Open succeeded.
    Opened {
        /// Server handle.
        fh: u64,
        /// Whether `FOPEN_KEEP_CACHE` was set on this open.
        keep_cache: bool,
        /// `FOPEN_PASSTHROUGH` with its backing id: the kernel routes this
        /// open's reads and writes to that backing file.
        passthrough: Option<u32>,
    },
    /// Created and opened (CREATE).
    Created {
        /// Attributes.
        stat: Stat,
        /// Server handle.
        fh: u64,
    },
    /// Read data.
    Data(Bytes),
    /// Bytes written.
    Written(u32),
    /// Directory listing.
    Dirents(Vec<Dirent>),
    /// Filesystem statistics.
    Statfs(Statfs),
    /// Xattr value.
    Xattr(Vec<u8>),
    /// Xattr name list.
    XattrNames(Vec<String>),
    /// Generic success.
    Ok,
    /// Error.
    Err(Errno),
}

impl Reply {
    /// Approximate on-the-wire size of the reply.
    pub fn wire_bytes(&self) -> usize {
        let payload = match self {
            Reply::Data(b) => b.len(),
            Reply::Dirents(d) => d.iter().map(|e| 32 + e.name.len()).sum(),
            Reply::Xattr(v) => v.len(),
            Reply::XattrNames(n) => n.iter().map(|s| s.len() + 1).sum(),
            Reply::Target(t) => t.len(),
            _ => 0,
        };
        HEADER_BYTES + payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_values_match_linux_uapi() {
        assert_eq!(Opcode::Lookup as u32, 1);
        assert_eq!(Opcode::Read as u32, 15);
        assert_eq!(Opcode::Write as u32, 16);
        assert_eq!(Opcode::Init as u32, 26);
        assert_eq!(Opcode::BatchForget as u32, 42);
    }

    #[test]
    fn init_intersection() {
        let got = InitFlags::cntr_default().intersect(InitFlags::none());
        assert_eq!(got, InitFlags::none());
        let got = InitFlags::cntr_default().intersect(InitFlags::paper_legacy());
        assert_eq!(got, InitFlags::paper_legacy());
        assert!(
            InitFlags::cntr_default().splice_write,
            "splice-write ships on now that batched write-back makes it a win"
        );
    }

    #[test]
    fn paper_legacy_profile_matches_published_defaults() {
        let legacy = InitFlags::paper_legacy();
        assert!(!legacy.splice_write, "the paper shipped splice-write off");
        assert!(!legacy.ring, "ring dispatch post-dates the paper");
        assert!(
            !legacy.cache_symlinks,
            "symlink caching post-dates the paper"
        );
        assert!(
            !legacy.handle_killpriv_v2,
            "FUSE_HANDLE_KILLPRIV_V2 post-dates the paper"
        );
        assert!(!legacy.passthrough, "FUSE_PASSTHROUGH post-dates the paper");
        assert!(!InitFlags::none().cache_symlinks);
        assert!(!InitFlags::none().handle_killpriv_v2);
        assert!(!InitFlags::none().passthrough);
        assert!(InitFlags::cntr_default().passthrough);
        // Identical to the shipping default in every other flag.
        let mut modern = InitFlags::cntr_default();
        modern.splice_write = false;
        modern.ring = false;
        modern.cache_symlinks = false;
        modern.handle_killpriv_v2 = false;
        modern.passthrough = false;
        assert_eq!(legacy, modern);
    }

    #[test]
    fn meta_classification() {
        let r = Request::Lookup {
            parent: Ino::ROOT,
            name: "x".into(),
            ctx: RequestCtx::default(),
        };
        assert!(r.is_meta());
        let w = Request::Write {
            ino: Ino(2),
            fh: 1,
            offset: 0,
            data: Bytes::from_static(b"abc"),
        };
        assert!(!w.is_meta());
    }

    #[test]
    fn wire_sizes_scale_with_payload() {
        let w = Request::Write {
            ino: Ino(2),
            fh: 1,
            offset: 0,
            data: Bytes::from(vec![0u8; 4096]),
        };
        assert_eq!(w.wire_bytes(), HEADER_BYTES + 4096);
        let d = Reply::Data(Bytes::from(vec![0u8; 100]));
        assert_eq!(d.wire_bytes(), HEADER_BYTES + 100);
    }
}
