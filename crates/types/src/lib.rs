//! Shared OS-level types for the CNTR reproduction.
//!
//! This crate is the vocabulary of the whole workspace: error numbers,
//! identifier newtypes, `stat`-like metadata, open flags, timestamps, POSIX
//! capabilities, resource limits — and the **virtual clock / cost model** that
//! every performance experiment in the paper reproduction runs on.
//!
//! Nothing here touches the host operating system; all types describe the
//! *simulated* OS implemented by the sibling crates (`cntr-kernel`,
//! `cntr-fs`, `cntr-fuse`).

pub mod caps;
pub mod clock;
pub mod cost;
pub mod errno;
pub mod flags;
pub mod hash;
pub mod ids;
pub mod rlimit;
pub mod stat;
pub mod time;

pub use caps::{CapSet, Capability};
pub use clock::SimClock;
pub use cost::{CostModel, COST};
pub use errno::{Errno, SysResult};
pub use flags::{AccessMode, AtFlags, OpenFlags, RenameFlags};
pub use hash::{IdHasher, IdMap, IdSet};
pub use ids::{DevId, Fd, Gid, Ino, Pid, Uid};
pub use rlimit::{Rlimit, RlimitKind, RlimitSet};
pub use stat::{Dirent, FileType, Mode, SetAttr, Stat, Statfs};
pub use time::Timespec;
