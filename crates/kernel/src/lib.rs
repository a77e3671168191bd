//! An in-process model of the Linux kernel facilities CNTR builds on.
//!
//! CNTR's contribution (paper §3) is a *protocol* over kernel primitives:
//! resolve a container to its processes, read its context from `/proc`,
//! `setns` into its namespaces, create a **nested mount namespace**, mark
//! mounts private, mount a FUSE filesystem, move the old root to
//! `/var/lib/cntr`, bind `/proc`, `/dev` and selected `/etc` files, `chroot`,
//! drop capabilities, and apply the container's environment. To exercise that
//! protocol faithfully without requiring root or a real kernel, this crate
//! implements those primitives with Linux semantics:
//!
//! * processes with credentials, capabilities, environment, rlimits and an
//!   fd table ([`process`]),
//! * the seven namespace kinds with `fork`/`unshare`/`setns` inheritance
//!   rules ([`ns`]),
//! * a mount table per mount namespace with bind mounts, `MS_PRIVATE` /
//!   `MS_SHARED` propagation, move-mounts and `chroot` ([`mount`]),
//! * a VFS: path walking across mount boundaries with symlink resolution,
//!   from the cwd or beneath an `O_PATH` descriptor (the `*at` calls),
//!   permission checks, fd-level syscalls, and a page cache with
//!   write-through/writeback policies per mount ([`vfs`], [`pagecache`]),
//! * cgroups ([`cgroup`]), pipes with `splice` ([`pipe`]), Unix domain
//!   sockets ([`socket`]), `epoll` ([`epoll`]), an io_uring that batches
//!   splices ([`io_uring`]),
//! * synthetic `/proc` ([`procfs`]) and `/dev` ([`devfs`]).
//!
//! The entry point is [`Kernel`]: a shared handle whose methods are the
//! system calls of the simulated machine. Kernel state is decomposed into
//! subsystems with one lock each — the process table and a copy-on-write
//! registry of mount namespaces ([`table`]) — so a syscall holds only the
//! table it touches, and a path walk runs on an immutable snapshot of its
//! namespace; see [`table`] for the lock-ordering discipline.

pub mod cgroup;
pub mod cred;
pub mod devfs;
pub mod epoll;
pub mod io_uring;
pub mod kernel;
pub mod mount;
pub mod ns;
pub mod pagecache;
pub mod passthrough;
pub mod pipe;
pub mod process;
pub mod procfs;
pub mod socket;
pub mod table;
pub mod vfs;

pub use cgroup::CgroupPath;
pub use cred::Credentials;
pub use kernel::{FanotifyEvent, Kernel, KernelConfig, ProcInfo};
pub use mount::{CacheMode, MountFlags, MountId, Propagation};
pub use ns::{NamespaceId, NamespaceKind, NamespaceSet};
pub use pagecache::PageCacheStats;
pub use process::ProcessState;
