//! Processes: credentials, namespaces, environment, and the fd table.

use crate::cgroup::CgroupPath;
use crate::cred::Credentials;
use crate::epoll::Epoll;
use crate::mount::{CacheMode, MountId};
use crate::ns::NamespaceSet;
use crate::pagecache::FileRef;
use crate::passthrough::IoOpen;
use crate::pipe::Pipe;
use crate::socket::{SocketEnd, SocketListener};
use cntr_fs::Filesystem;
use cntr_types::{DevId, IdMap, Ino, OpenFlags, Pid, RlimitSet};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A location in the VFS: a mount plus an inode within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VfsLoc {
    /// The mount.
    pub mount: MountId,
    /// The inode within that mount's filesystem.
    pub ino: Ino,
}

/// What an open file descriptor refers to.
pub enum FileKind {
    /// A regular file on a mounted filesystem.
    Regular {
        /// Mount it was opened through.
        mount: MountId,
        /// Filesystem id (page-cache key).
        dev: DevId,
        /// Cache policy of the mount at open time.
        cache: CacheMode,
        /// The pinned filesystem handle.
        file: Arc<FileRef>,
        /// The file's place in its inode's I/O mode, on a mount that
        /// negotiated FUSE passthrough; it holds the backing file of a
        /// passthrough open.
        io: Option<IoOpen>,
    },
    /// An open directory (for `readdir`).
    Directory {
        /// Mount it was opened through.
        mount: MountId,
        /// Filesystem id.
        dev: DevId,
        /// Directory inode.
        ino: Ino,
    },
    /// An `O_PATH` descriptor: it locates an inode, anchors the `*at`
    /// calls and answers `fstat`, and can do no I/O. Like Linux's
    /// `struct path`, it pins the filesystem, not the inode.
    Path {
        /// Where the descriptor points.
        loc: VfsLoc,
        /// The filesystem of `loc.mount`.
        fs: Arc<dyn Filesystem>,
        /// `loc` is a directory: only then can a walk start at it.
        dir: bool,
    },
    /// Read end of a pipe.
    PipeRead(Arc<Pipe>),
    /// Write end of a pipe.
    PipeWrite(Arc<Pipe>),
    /// A connected Unix stream socket.
    Socket(SocketEnd),
    /// A listening Unix socket.
    Listener(Arc<SocketListener>),
    /// An epoll instance.
    Epoll(Arc<Epoll>),
    /// An io_uring instance whose submission queue holds `entries` SQEs
    /// (see [`crate::io_uring`]).
    IoUring {
        /// Submission-queue size.
        entries: usize,
    },
    /// `/dev/null`.
    DevNull,
    /// `/dev/zero`.
    DevZero,
    /// `/dev/urandom` (deterministic xorshift stream).
    DevUrandom,
}

/// An open file description (shared by `dup`ed descriptors).
pub struct OpenFile {
    /// What the description refers to.
    pub kind: FileKind,
    /// Flags at open.
    pub flags: OpenFlags,
    /// Seek position (shared across dups, as in Linux).
    pub offset: Mutex<u64>,
}

/// Close-time side effects run at the *true* last drop of the description
/// — exactly once, no matter where that drop happens (explicit `close`,
/// `exit` teardown, a fork rollback, or a transient clone taken by
/// `splice`/`get_file` outliving the final descriptor). Pipe ends get
/// their half-close semantics; a connected socket shuts down so the peer
/// observes EOF; a listener stops accepting, so `connect` on its socket
/// file is refused even if its `socket_nodes` registration lingers
/// briefly.
impl Drop for OpenFile {
    fn drop(&mut self) {
        match &self.kind {
            FileKind::PipeRead(p) => p.close_read(),
            FileKind::PipeWrite(p) => p.close_write(),
            FileKind::Listener(l) => l.close(),
            // Last close of a connected socket tears the connection down,
            // as in Linux: the peer drains in-flight bytes then reads EOF,
            // and its writes fail with ECONNRESET.
            FileKind::Socket(s) => s.shutdown(),
            _ => {}
        }
    }
}

/// One fd-table slot.
pub struct FdEntry {
    /// The open file description.
    pub file: Arc<OpenFile>,
    /// Close-on-exec flag.
    pub cloexec: bool,
}

impl Clone for FdEntry {
    fn clone(&self) -> FdEntry {
        FdEntry {
            file: Arc::clone(&self.file),
            cloexec: self.cloexec,
        }
    }
}

/// Lifecycle state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessState {
    /// Alive.
    Running,
    /// Exited but not yet reaped.
    Zombie,
}

/// A simulated process.
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Parent process id.
    pub ppid: Pid,
    /// Command name (`/proc/<pid>/comm`).
    pub name: String,
    /// Security context.
    pub creds: Credentials,
    /// Namespace membership.
    pub ns: NamespaceSet,
    /// Current working directory: where the `chdir` walk ended (`fs->pwd`).
    pub cwd: VfsLoc,
    /// That walk's `..` stack, from the process root: a relative walk
    /// resumes with it, so `..` never climbs above the root.
    pub cwd_stack: Vec<VfsLoc>,
    /// Root directory (changed by `chroot`).
    pub root: VfsLoc,
    /// Environment variables.
    pub env: BTreeMap<String, String>,
    /// Resource limits.
    pub rlimits: RlimitSet,
    /// File descriptor table.
    pub fds: IdMap<u32, FdEntry>,
    /// Next fd number to hand out.
    pub next_fd: u32,
    /// Cgroup membership (kept in sync with the cgroup tree).
    pub cgroup: CgroupPath,
    /// Lifecycle state.
    pub state: ProcessState,
}

impl Process {
    /// Allocates the lowest free descriptor ≥ `next_fd` for `entry`.
    pub fn install_fd(&mut self, entry: FdEntry) -> u32 {
        let mut fd = self.next_fd;
        while self.fds.contains_key(&fd) {
            fd += 1;
        }
        self.fds.insert(fd, entry);
        self.next_fd = fd + 1;
        fd
    }

    /// Makes `root` the root and cwd (`chroot`, `pivot_root`, `setns`).
    pub fn reset_root(&mut self, root: VfsLoc) {
        self.root = root;
        self.cwd = root;
        self.cwd_stack.clear();
    }

    /// A fork-copy of this process with a new pid: shared open file
    /// descriptions, copied everything else.
    pub fn fork_into(&self, pid: Pid) -> Process {
        Process {
            pid,
            ppid: self.pid,
            name: self.name.clone(),
            creds: self.creds.clone(),
            ns: self.ns,
            cwd: self.cwd,
            cwd_stack: self.cwd_stack.clone(),
            root: self.root,
            env: self.env.clone(),
            rlimits: self.rlimits,
            fds: self.fds.clone(),
            next_fd: self.next_fd,
            cgroup: self.cgroup.clone(),
            state: ProcessState::Running,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ns::NamespaceId;

    fn proc() -> Process {
        Process {
            pid: Pid(1),
            ppid: Pid(0),
            name: "init".into(),
            creds: Credentials::host_root(),
            ns: NamespaceSet::uniform(NamespaceId(1)),
            cwd: VfsLoc {
                mount: MountId(1),
                ino: Ino::ROOT,
            },
            cwd_stack: Vec::new(),
            root: VfsLoc {
                mount: MountId(1),
                ino: Ino::ROOT,
            },
            env: BTreeMap::new(),
            rlimits: RlimitSet::default(),
            fds: IdMap::default(),
            next_fd: 0,
            cgroup: CgroupPath::root(),
            state: ProcessState::Running,
        }
    }

    #[test]
    fn install_fd_reuses_lowest_free() {
        let mut p = proc();
        let mk = || FdEntry {
            file: Arc::new(OpenFile {
                kind: FileKind::DevNull,
                flags: OpenFlags::RDWR,
                offset: Mutex::new(0),
            }),
            cloexec: false,
        };
        let a = p.install_fd(mk());
        let b = p.install_fd(mk());
        assert_eq!((a, b), (0, 1));
        p.fds.remove(&0);
        p.next_fd = 0;
        let c = p.install_fd(mk());
        assert_eq!(c, 0, "lowest free fd is reused");
    }

    #[test]
    fn fork_shares_open_file_descriptions() {
        let mut p = proc();
        let entry = FdEntry {
            file: Arc::new(OpenFile {
                kind: FileKind::DevZero,
                flags: OpenFlags::RDONLY,
                offset: Mutex::new(42),
            }),
            cloexec: false,
        };
        let fd = p.install_fd(entry);
        let child = p.fork_into(Pid(2));
        assert_eq!(child.ppid, Pid(1));
        // Same description: advancing the child's offset is visible in the parent.
        *child.fds[&fd].file.offset.lock() = 99;
        assert_eq!(*p.fds[&fd].file.offset.lock(), 99);
    }
}
