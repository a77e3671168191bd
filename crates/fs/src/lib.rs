//! Filesystem implementations for the CNTR reproduction.
//!
//! This crate defines the [`Filesystem`] trait — the inode-level API every
//! filesystem in the workspace implements (analogous to the kernel's VFS
//! interface / the FUSE lowlevel API) — and two concrete filesystems:
//!
//! * [`MemFs`] — a tmpfs-like in-memory filesystem. The paper runs xfstests
//!   with CntrFS mounted *on top of tmpfs* (§5.1); `MemFs` plays that role.
//! * [`DiskFs`] — an ext4-like filesystem whose file contents live on a
//!   simulated [`cntr_blockdev::BlockDevice`]. The paper's native baseline is
//!   ext4 on EBS gp2 (§5.2); `DiskFs` plays that role.
//!
//! Both share one implementation of POSIX semantics ([`nodefs::NodeFs`]),
//! parameterized over a [`store::FileStore`] that provides file content
//! storage. This keeps rename/link/unlink/xattr/permission behaviour — the
//! part xfstests exercises — identical across backing stores.

pub mod diskfs;
pub mod memfs;
pub mod nodefs;
pub mod store;
mod traits;

pub use diskfs::DiskFs;
pub use memfs::MemFs;
pub use traits::{
    FallocateMode, Fh, Filesystem, FilesystemExt, FsContext, FsFeatures, Passthrough, XattrFlags,
    MAX_NAME_LEN, XATTR_NAME_CAPS,
};
