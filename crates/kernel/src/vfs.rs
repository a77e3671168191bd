//! The VFS: path resolution across mounts, and every path/fd system call.
//!
//! Resolution follows Linux: walk component by component from the process
//! root (absolute paths) or cwd (relative), cross mountpoints downward into
//! the topmost stacked mount, handle `..` physically via the walk stack
//! (never escaping a `chroot` jail), and chase symlinks up to a depth of 40.
//! A relative walk resumes `chdir`'s: its location and `..` stack (`fs->pwd`).
//! Reads and writes on regular files go through the shared page cache
//! according to the mount's [`CacheMode`].
//!
//! Every path system call is the `*at` call it names, started at
//! [`AT_FDCWD`], so there is one walker and one body per call. A walk from
//! a real descriptor starts at that descriptor's inode and stays beneath
//! it — the `RESOLVE_BENEATH` rule of `openat2(2)`: `..` at the anchor, an
//! absolute path and an absolute symlink all fail with `EXDEV`.

use crate::kernel::Kernel;
use crate::mount::{CacheMode, Mount, MountFlags, MountId, MountNs, Propagation};
use crate::pagecache::FileRef;
use crate::process::{FdEntry, FileKind, OpenFile, VfsLoc};
use crate::socket::{SocketEnd, SocketListener};
use cntr_fs::{Filesystem, FilesystemExt, FsContext, XattrFlags, XATTR_NAME_CAPS};
use cntr_types::{
    AccessMode, AtFlags, Capability, DevId, Dirent, Errno, FileType, Gid, IdMap, Ino, Mode,
    OpenFlags, Pid, RenameFlags, SetAttr, Stat, SysResult, Uid, COST,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// Maximum symlink traversals in one resolution (Linux: 40).
const MAX_SYMLINKS: u32 = 40;

/// The `dirfd` of an `*at` call that starts a relative path at the
/// caller's cwd (and an absolute one at its root), as the plain path calls
/// do.
pub const AT_FDCWD: u32 = u32::MAX;

/// Result of resolving a path.
#[derive(Clone)]
pub struct Resolved {
    /// Location (mount + inode).
    pub loc: VfsLoc,
    /// The filesystem of that mount.
    pub fs: Arc<dyn Filesystem>,
    /// Attributes at resolution time.
    pub stat: Stat,
    /// The mount's cache policy.
    pub cache: CacheMode,
    /// Whether the mount is read-only.
    pub readonly: bool,
}

/// Which seek anchor `lseek` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// From the beginning.
    Set,
    /// From the current offset.
    Cur,
    /// From the end of file.
    End,
}

/// `access(2)` request bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Read permission wanted.
    pub r: bool,
    /// Write permission wanted.
    pub w: bool,
    /// Execute/search permission wanted.
    pub x: bool,
}

impl Access {
    /// Read-only check.
    pub const R: Access = Access {
        r: true,
        w: false,
        x: false,
    };
    /// Write-only check.
    pub const W: Access = Access {
        r: false,
        w: true,
        x: false,
    };
    /// Execute check.
    pub const X: Access = Access {
        r: false,
        w: false,
        x: true,
    };
}

/// The index of the first byte at or after `at` that is not a `/`.
fn skip_slashes(text: &str, at: usize) -> usize {
    text[at..].find(|c| c != '/').map_or(text.len(), |i| at + i)
}

fn fs_context(creds: &crate::cred::Credentials) -> FsContext {
    FsContext {
        uid: creds.uid,
        gid: creds.gid,
        groups: creds.groups.clone(),
        cap_fsetid: creds.caps.has(Capability::Fsetid),
    }
}

/// Classic Unix permission check with `CAP_DAC_OVERRIDE` semantics.
fn check_access(stat: &Stat, creds: &crate::cred::Credentials, want: Access) -> SysResult<()> {
    if creds.caps.has(Capability::DacOverride) {
        // DAC override grants r/w always; x needs at least one x bit.
        if want.x {
            let any_x = stat.mode.bits() & 0o111 != 0 || stat.is_dir();
            if !any_x {
                return Err(Errno::EACCES);
            }
        }
        return Ok(());
    }
    let class = if creds.uid == stat.uid {
        0
    } else if creds.gid == stat.gid || creds.groups.contains(&stat.gid) {
        1
    } else {
        2
    };
    let bits = stat.mode.class_bits(class);
    let need = (u8::from(want.r) << 2) | (u8::from(want.w) << 1) | u8::from(want.x);
    if bits & need == need {
        Ok(())
    } else {
        Err(Errno::EACCES)
    }
}

struct WalkState {
    ns: Arc<MountNs>,
    root: VfsLoc,
    cur: VfsLoc,
    stack: Vec<VfsLoc>,
    symlinks: u32,
    /// `cur` is a directory, as far as the walk knows: false once a
    /// component resolves to anything else.
    at_dir: bool,
    /// The walk started at a descriptor and may not leave the subtree
    /// beneath it.
    beneath: bool,
    /// The last component was followed by a `/`, in the path or in the
    /// target of a final symlink: it must resolve to a directory.
    dir_only: bool,
}

impl WalkState {
    /// Restarts at the process root, for an absolute path or symlink
    /// target; a walk beneath a descriptor may not.
    fn restart_at_root(&mut self) -> SysResult<()> {
        if self.beneath {
            return Err(Errno::EXDEV);
        }
        self.cur = Kernel::cross_mounts(&self.ns, self.root);
        self.stack.clear();
        self.at_dir = true;
        Ok(())
    }
}

/// What a call that resolves a parent answers when the path ends in `.`
/// or `..` (Linux's `LAST_DOT` and `LAST_DOTDOT`), once the parent walk
/// succeeded: such a name is never an entry to make or remove.
#[derive(Debug, Clone, Copy)]
struct LastDots {
    dot: Errno,
    dotdot: Errno,
}

impl LastDots {
    /// `filename_create` (mkdir, mknod, symlink, link, bind): the name
    /// exists. `bind` reports it as `EADDRINUSE`.
    const CREATE: LastDots = LastDots {
        dot: Errno::EEXIST,
        dotdot: Errno::EEXIST,
    };
    /// `do_unlinkat`: a directory, which unlink does not remove.
    const UNLINK: LastDots = LastDots {
        dot: Errno::EISDIR,
        dotdot: Errno::EISDIR,
    };
    /// `do_rmdir`: `.` is invalid, `..` is a parent and so not empty.
    const RMDIR: LastDots = LastDots {
        dot: Errno::EINVAL,
        dotdot: Errno::ENOTEMPTY,
    };
    /// `O_CREAT` names a directory, which open does not create.
    const OPEN: LastDots = LastDots {
        dot: Errno::EISDIR,
        dotdot: Errno::EISDIR,
    };
}

impl Kernel {
    fn snapshot_ns(&self, pid: Pid) -> SysResult<Arc<MountNs>> {
        let ns_id = self.with_proc(pid, |p| Ok(p.ns.mount))?;
        self.inner.mounts.snapshot(ns_id)
    }

    /// Descends through stacked mounts at `loc`.
    fn cross_mounts(ns: &MountNs, mut loc: VfsLoc) -> VfsLoc {
        while let Some(m) = ns.mount_at(loc.mount, loc.ino) {
            loc = VfsLoc {
                mount: m.id,
                ino: m.root_ino,
            };
        }
        loc
    }

    /// Walks `path` from `w.cur`. A trailing `/` names a directory, so a
    /// final symlink is followed even without `follow_last` (Linux's
    /// `lookup_last` sets `LOOKUP_FOLLOW | LOOKUP_DIRECTORY`); the caller
    /// checks the type through `w.dir_only`. Any component after a
    /// non-directory, `.` and `..` included, is `ENOTDIR` before it is
    /// looked up, as Linux's `link_path_walk` refuses it.
    ///
    /// Components are borrowed from `path`. A symlink's target is the only
    /// string the walk owns: it goes on a stack of the targets still being
    /// walked, above the rest of the path (Linux's `nd->stack`).
    fn walk(&self, w: &mut WalkState, path: &str, follow_last: bool) -> SysResult<()> {
        if path.starts_with('/') {
            w.restart_at_root()?;
        }
        w.dir_only = path.ends_with('/');
        // The walk's place in `path`, and in each target still being walked
        // (innermost last): the start of its next component, or its end.
        let mut pos = skip_slashes(path, 0);
        let mut links: Vec<(String, usize)> = Vec::new();
        loop {
            let (text, at) = match links.last() {
                Some((target, at)) => (target.as_str(), *at),
                None => (path, pos),
            };
            if at == text.len() {
                if links.pop().is_none() {
                    return Ok(());
                }
                continue;
            }
            let end = text[at..].find('/').map_or(text.len(), |i| at + i);
            let next = skip_slashes(text, end);
            let is_last = next == text.len()
                && (links.is_empty() || pos == path.len())
                && links.iter().rev().skip(1).all(|(l, c)| *c == l.len());
            match links.last_mut() {
                Some((_, at)) => *at = next,
                None => pos = next,
            }
            let name = match links.last() {
                Some((target, _)) => &target[at..end],
                None => &path[at..end],
            };
            if !w.at_dir {
                return Err(Errno::ENOTDIR);
            }
            if name == "." {
                continue;
            }
            if name == ".." {
                match w.stack.pop() {
                    Some(prev) => w.cur = prev,
                    None if w.beneath => return Err(Errno::EXDEV),
                    // At the root the stack is empty: `..` stays (chroot
                    // jail).
                    None => {}
                }
                continue;
            }
            let mount = w.ns.get(w.cur.mount)?;
            self.inner.clock.advance(COST.dcache_hit_ns);
            let stat = mount.fs.lookup(w.cur.ino, name)?;
            if stat.is_symlink() && (!is_last || follow_last || w.dir_only) {
                w.symlinks += 1;
                if w.symlinks > MAX_SYMLINKS {
                    return Err(Errno::ELOOP);
                }
                let target = mount.fs.readlink(stat.ino)?;
                if target.starts_with('/') {
                    w.restart_at_root()?;
                }
                w.dir_only |= is_last && target.ends_with('/');
                // Walk the target's components next, then the rest.
                let start = skip_slashes(&target, 0);
                links.push((target, start));
                continue;
            }
            let next = VfsLoc {
                mount: w.cur.mount,
                ino: stat.ino,
            };
            let crossed = Self::cross_mounts(&w.ns, next);
            w.stack.push(w.cur);
            w.cur = crossed;
            // A mount covers a node of its own root's type.
            w.at_dir = stat.is_dir();
        }
    }

    /// Resolves `path` for `pid`. `follow_last` controls final-symlink
    /// chasing (`stat` vs `lstat`, `O_NOFOLLOW`).
    pub fn resolve(&self, pid: Pid, path: &str, follow_last: bool) -> SysResult<Resolved> {
        let flags = if follow_last {
            AtFlags::NONE
        } else {
            AtFlags::SYMLINK_NOFOLLOW
        };
        self.resolve_at(pid, AT_FDCWD, path, flags)
    }

    /// Resolves `path` relative to `dirfd` for `pid`. `SYMLINK_NOFOLLOW`
    /// stops at a final symlink; `EMPTY_PATH` lets an empty path name
    /// `dirfd` itself.
    fn resolve_at(&self, pid: Pid, dirfd: u32, path: &str, flags: AtFlags) -> SysResult<Resolved> {
        self.walk_at(pid, dirfd, path, flags).map(|(r, _)| r)
    }

    /// [`Kernel::resolve_at`], also returning the `..` stack the walk ended
    /// with, which `chdir` keeps.
    fn walk_at(
        &self,
        pid: Pid,
        dirfd: u32,
        path: &str,
        flags: AtFlags,
    ) -> SysResult<(Resolved, Vec<VfsLoc>)> {
        // A relative walk resumes `chdir`'s (`path_init` takes `fs->pwd`), a
        // walk from a descriptor has no `..` stack. Processes-before-mounts:
        // the process table is released before the mount table is read; the
        // walk then runs on an immutable snapshot.
        let (ns_id, root, cwd, stack) = self.with_proc(pid, |p| {
            Ok((p.ns.mount, p.root, p.cwd, p.cwd_stack.clone()))
        })?;
        let mut w = WalkState {
            ns: self.inner.mounts.snapshot(ns_id)?,
            root,
            cur: cwd,
            stack,
            symlinks: 0,
            at_dir: true,
            beneath: dirfd != AT_FDCWD,
            dir_only: false,
        };
        if dirfd != AT_FDCWD {
            if path.is_empty() && !flags.contains(AtFlags::EMPTY_PATH) {
                return Err(Errno::ENOENT);
            }
            (w.cur, w.at_dir) = self.fd_loc(pid, dirfd)?;
            w.stack.clear();
        }
        self.walk(&mut w, path, !flags.contains(AtFlags::SYMLINK_NOFOLLOW))?;
        let mount = w.ns.get(w.cur.mount)?;
        let stat = mount.fs.getattr(w.cur.ino)?;
        if w.dir_only && !stat.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        let resolved = Resolved {
            loc: w.cur,
            fs: Arc::clone(&mount.fs),
            stat,
            cache: mount.cache,
            readonly: mount.flags.readonly,
        };
        Ok((resolved, w.stack))
    }

    /// The inode a descriptor locates, where a walk from it starts, and
    /// whether it is a directory. An `O_PATH` descriptor of anything else
    /// anchors only itself (`AT_EMPTY_PATH`): a walk from it starts with
    /// `at_dir` false, so even a `.` or `..` is `ENOTDIR`, as Linux's
    /// `path_init` refuses a non-directory `dirfd`.
    fn fd_loc(&self, pid: Pid, fd: u32) -> SysResult<(VfsLoc, bool)> {
        let file = self.get_file_raw(pid, fd)?;
        match &file.kind {
            FileKind::Path { loc, dir, .. } => Ok((*loc, *dir)),
            FileKind::Directory { mount, ino, .. } => Ok((
                VfsLoc {
                    mount: *mount,
                    ino: *ino,
                },
                true,
            )),
            _ => Err(Errno::ENOTDIR),
        }
    }

    /// Resolves the parent directory of `path` relative to `dirfd`,
    /// returning the final component name alongside. A trailing `/` is
    /// dropped here: each caller applies its own rule for it. A last `.`
    /// or `..` names no entry the call can make or remove: once the
    /// parent walk succeeds, the call answers with its [`LastDots`].
    fn resolve_parent_at<'p>(
        &self,
        pid: Pid,
        dirfd: u32,
        path: &'p str,
        dots: LastDots,
    ) -> SysResult<(Resolved, &'p str)> {
        let (parent, name) = self.walk_parent_at(pid, dirfd, path)?;
        match name {
            "." => Err(dots.dot),
            ".." => Err(dots.dotdot),
            _ => Ok((parent, name)),
        }
    }

    /// The parent walk of [`Kernel::resolve_parent_at`], which returns a
    /// last `.` or `..` like any other name (Linux's `filename_parentat`).
    fn walk_parent_at<'p>(
        &self,
        pid: Pid,
        dirfd: u32,
        path: &'p str,
    ) -> SysResult<(Resolved, &'p str)> {
        let trimmed = path.trim_end_matches('/');
        if trimmed.is_empty() {
            return Err(Errno::EEXIST);
        }
        let (dir, name) = match trimmed.rsplit_once('/') {
            Some(("", n)) => ("/", n),
            Some((d, n)) => (d, n),
            None => (".", trimmed),
        };
        let parent = self.resolve_at(pid, dirfd, dir, AtFlags::NONE)?;
        if !parent.stat.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        Ok((parent, name))
    }

    /// [`Kernel::resolve_parent_at`] for a call that creates a node other
    /// than a directory. A trailing slash asks for a directory the call
    /// does not make: Linux's `filename_create` answers `EEXIST` if the
    /// name exists, else `ENOENT`.
    fn resolve_create_at<'p>(
        &self,
        pid: Pid,
        dirfd: u32,
        path: &'p str,
    ) -> SysResult<(Resolved, &'p str)> {
        let (parent, name) = self.resolve_parent_at(pid, dirfd, path, LastDots::CREATE)?;
        if path.ends_with('/') {
            parent.fs.lookup(parent.loc.ino, name)?;
            return Err(Errno::EEXIST);
        }
        Ok((parent, name))
    }

    // ------------------------------------------------------------------
    // open / close / read / write
    // ------------------------------------------------------------------

    /// `open(2)`: [`Kernel::openat`] at [`AT_FDCWD`].
    pub fn open(&self, pid: Pid, path: &str, flags: OpenFlags, mode: Mode) -> SysResult<u32> {
        self.openat(pid, AT_FDCWD, path, flags, mode)
    }

    /// `openat(2)` with `O_CREAT` support. `O_PATH` installs a descriptor
    /// that only locates the inode — a symlink itself under `O_NOFOLLOW` —
    /// without opening it on its filesystem.
    pub fn openat(
        &self,
        pid: Pid,
        dirfd: u32,
        path: &str,
        flags: OpenFlags,
        mode: Mode,
    ) -> SysResult<u32> {
        self.charge_syscall();
        let (creds, mnt_ns) = self.with_proc(pid, |p| Ok((p.creds.clone(), p.ns.mount)))?;
        let at = if flags.contains(OpenFlags::NOFOLLOW) {
            AtFlags::SYMLINK_NOFOLLOW
        } else {
            AtFlags::NONE
        };
        if flags.contains(OpenFlags::PATH) {
            let r = self.resolve_at(pid, dirfd, path, at)?;
            return self.install_file(
                pid,
                FileKind::Path {
                    loc: r.loc,
                    fs: r.fs,
                    dir: r.stat.is_dir(),
                },
                flags,
            );
        }

        if flags.contains(OpenFlags::CREAT) && path.ends_with('/') {
            // A trailing slash names a directory, which O_CREAT does not
            // make: Linux's `open_last_lookups` walks the parent, looks no
            // further and refuses with EISDIR. A last `.`, `..` or `/`
            // is walked too, and names a directory.
            let last = path.trim_end_matches('/').rsplit('/').next();
            if matches!(last, Some("" | "." | "..")) {
                self.resolve_at(pid, dirfd, path, at)?;
            } else {
                self.resolve_parent_at(pid, dirfd, path, LastDots::OPEN)?;
            }
            return Err(Errno::EISDIR);
        }
        let resolved = match self.resolve_at(pid, dirfd, path, at) {
            Ok(r) => {
                if flags.contains(OpenFlags::CREAT) && flags.contains(OpenFlags::EXCL) {
                    return Err(Errno::EEXIST);
                }
                if r.stat.is_symlink() {
                    return Err(Errno::ELOOP);
                }
                r
            }
            Err(Errno::ENOENT) if flags.contains(OpenFlags::CREAT) => {
                let (parent, name) = self.resolve_parent_at(pid, dirfd, path, LastDots::OPEN)?;
                if parent.readonly {
                    return Err(Errno::EROFS);
                }
                check_access(&parent.stat, &creds, Access::W)?;
                let ctx = fs_context(&creds);
                let st = parent
                    .fs
                    .mknod(parent.loc.ino, name, FileType::Regular, mode, 0, &ctx)?;
                Resolved {
                    loc: VfsLoc {
                        mount: parent.loc.mount,
                        ino: st.ino,
                    },
                    fs: parent.fs,
                    stat: st,
                    cache: parent.cache,
                    readonly: parent.readonly,
                }
            }
            Err(e) => return Err(e),
        };
        self.open_resolved(pid, &creds, mnt_ns, resolved, flags, path)
    }

    /// Opens the inode `fd` locates afresh, with `flags`: what
    /// `open("/proc/self/fd/<fd>", flags)` does, and how a server turns an
    /// `O_PATH` anchor into a descriptor that can do I/O. It costs one
    /// system call and the one `/proc/self/fd` component.
    pub fn reopen(&self, pid: Pid, fd: u32, flags: OpenFlags) -> SysResult<u32> {
        self.charge_syscall();
        self.inner.clock.advance(COST.dcache_hit_ns);
        let (creds, mnt_ns) = self.with_proc(pid, |p| Ok((p.creds.clone(), p.ns.mount)))?;
        let r = self.resolve_at(pid, fd, "", AtFlags::EMPTY_PATH)?;
        if flags.contains(OpenFlags::CREAT) && flags.contains(OpenFlags::EXCL) {
            return Err(Errno::EEXIST);
        }
        // The descriptor was never named by a path: fanotify records none.
        self.open_resolved(pid, &creds, mnt_ns, r, flags, "")
    }

    /// The common tail of `openat` and `reopen`: permission checks, the
    /// filesystem open, and the descriptor install.
    fn open_resolved(
        &self,
        pid: Pid,
        creds: &crate::cred::Credentials,
        mnt_ns: crate::ns::NamespaceId,
        resolved: Resolved,
        flags: OpenFlags,
        path: &str,
    ) -> SysResult<u32> {
        let want = Access {
            r: flags.mode.readable(),
            w: flags.mode.writable(),
            x: false,
        };
        check_access(&resolved.stat, creds, want)?;
        if flags.mode.writable() && resolved.readonly {
            return Err(Errno::EROFS);
        }

        let kind = match resolved.stat.ftype {
            FileType::Directory => {
                if flags.mode.writable() {
                    return Err(Errno::EISDIR);
                }
                FileKind::Directory {
                    mount: resolved.loc.mount,
                    dev: resolved.fs.fs_id(),
                    ino: resolved.loc.ino,
                }
            }
            FileType::CharDevice => match resolved.stat.rdev {
                0x0103 => FileKind::DevNull,
                0x0105 => FileKind::DevZero,
                0x0109 => FileKind::DevUrandom,
                // /dev/fuse (10:229) and /dev/tty (5:0): control-style
                // descriptors; the FUSE session itself is modelled by
                // `cntr-fuse`, so the fd only needs to exist.
                0x0AE5 | 0x0500 => FileKind::DevNull,
                _ => return Err(Errno::ENXIO),
            },
            FileType::Socket => return Err(Errno::ENXIO),
            FileType::Fifo | FileType::BlockDevice => return Err(Errno::ENXIO),
            FileType::Symlink => return Err(Errno::ELOOP),
            FileType::Regular => {
                let dev = resolved.fs.fs_id();
                self.fanotify_record(mnt_ns, dev, resolved.loc.ino, path);
                // FOPEN_KEEP_CACHE off: invalidate this file's pages on open
                // (a `seq_file` never has any).
                if !resolved.cache.keep_cache && !resolved.cache.seq_files {
                    self.inner
                        .page_cache
                        .invalidate_file(dev, resolved.loc.ino)?;
                }
                // O_DIRECT coherency starts at open: flush and drop the
                // buffered pages. Each direct read or write then flushes
                // again, and a direct write drops the range it wrote.
                if flags.contains(OpenFlags::DIRECT) {
                    self.inner
                        .page_cache
                        .invalidate_file(dev, resolved.loc.ino)?;
                }
                // Under write-back the page cache reads a page before
                // caching a write that covers part of it, and flushes dirty
                // pages at their own offsets: the filesystem handle of a
                // writer must read, and must not append. The descriptor
                // keeps the caller's flags, which the fd checks enforce.
                // (libfuse's passthrough_ll does the same under
                // writeback_cache.)
                let fs_flags = if resolved.cache.writeback && flags.mode.writable() {
                    OpenFlags::new(AccessMode::ReadWrite, flags.bits() & !OpenFlags::APPEND)
                } else {
                    flags
                };
                let fh = resolved.fs.open(resolved.loc.ino, fs_flags)?;
                let file = Arc::new(FileRef {
                    fs: Arc::clone(&resolved.fs),
                    ino: resolved.loc.ino,
                    fh,
                });
                let io = self.io_open(&resolved.fs, &file, flags)?;
                if flags.contains(OpenFlags::TRUNC) && flags.mode.writable() {
                    self.inner
                        .page_cache
                        .truncate_file(dev, resolved.loc.ino, 0);
                }
                FileKind::Regular {
                    mount: resolved.loc.mount,
                    dev,
                    cache: resolved.cache,
                    file,
                    io,
                }
            }
        };
        self.install_file(pid, kind, flags)
    }

    /// Installs a new open file description in `pid`'s table, within its
    /// `RLIMIT_NOFILE`.
    fn install_file(&self, pid: Pid, kind: FileKind, flags: OpenFlags) -> SysResult<u32> {
        let limit = self.rlimits(pid)?.get(cntr_types::RlimitKind::Nofile).soft;
        self.with_proc_mut(pid, |p| {
            if p.fds.len() as u64 >= limit {
                return Err(Errno::EMFILE);
            }
            Ok(p.install_fd(FdEntry {
                file: Arc::new(OpenFile {
                    kind,
                    flags,
                    offset: Mutex::new_class("kernel.fd_offset", 0),
                }),
                cloexec: flags.contains(OpenFlags::CLOEXEC),
            }))
        })
    }

    /// `close(2)`. Pipe ends get their half-close semantics; the last
    /// descriptor of a bound listener unbinds it (see
    /// `Kernel::release_fd_entry`).
    pub fn close(&self, pid: Pid, fd: u32) -> SysResult<()> {
        self.charge_syscall();
        let entry = self.with_proc_mut(pid, |p| p.fds.remove(&fd).ok_or(Errno::EBADF))?;
        self.release_fd_entry(entry);
        Ok(())
    }

    /// `dup(2)`.
    pub fn dup(&self, pid: Pid, fd: u32) -> SysResult<u32> {
        self.charge_syscall();
        self.with_proc_mut(pid, |p| {
            let entry = p.fds.get(&fd).ok_or(Errno::EBADF)?.clone();
            Ok(p.install_fd(entry))
        })
    }

    /// The open file behind `fd`, for a call that does I/O: an `O_PATH`
    /// descriptor is `EBADF` here, as Linux's `fdget` refuses it.
    pub(crate) fn get_file(&self, pid: Pid, fd: u32) -> SysResult<Arc<OpenFile>> {
        let file = self.get_file_raw(pid, fd)?;
        if matches!(file.kind, FileKind::Path { .. }) {
            return Err(Errno::EBADF);
        }
        Ok(file)
    }

    /// The open file behind `fd`, `O_PATH` descriptors included: for
    /// `fstat` and the `*at` anchors (`fdget_raw`).
    fn get_file_raw(&self, pid: Pid, fd: u32) -> SysResult<Arc<OpenFile>> {
        self.with_proc(pid, |p| {
            p.fds
                .get(&fd)
                .map(|e| Arc::clone(&e.file))
                .ok_or(Errno::EBADF)
        })
    }

    /// Reads at the fd's current offset, advancing it.
    pub fn read_fd(&self, pid: Pid, fd: u32, buf: &mut [u8]) -> SysResult<usize> {
        let file = self.get_file(pid, fd)?;
        let mut off = file.offset.lock();
        let n = self.read_at_inner(pid, &file, *off, buf)?;
        *off += n as u64;
        Ok(n)
    }

    /// `pread(2)`.
    pub fn pread(&self, pid: Pid, fd: u32, offset: u64, buf: &mut [u8]) -> SysResult<usize> {
        let file = self.get_file(pid, fd)?;
        self.read_at_inner(pid, &file, offset, buf)
    }

    /// The regular-file part of a read: through the page cache of `dev`,
    /// or straight to the filesystem for `O_DIRECT` and for a `seq_file`.
    fn read_file(
        &self,
        dev: DevId,
        cache: CacheMode,
        fref: &Arc<FileRef>,
        flags: OpenFlags,
        offset: u64,
        buf: &mut [u8],
    ) -> SysResult<usize> {
        if cache.seq_files {
            // Generated content (`seq_read`): no pages, no size to clamp to.
            return fref.fs.read(fref.ino, fref.fh, offset, buf);
        }
        if flags.contains(OpenFlags::DIRECT) {
            // Linux's `filemap_write_and_wait_range`: a direct read
            // sees what buffered writers left dirty.
            self.inner.page_cache.flush_file(dev, fref.ino)?;
            return fref.fs.read(fref.ino, fref.fh, offset, buf);
        }
        let fs_size = fref.fs.getattr(fref.ino)?.size;
        let size = self.inner.page_cache.effective_size(dev, fref.ino, fs_size);
        if offset >= size {
            return Ok(0);
        }
        let n = (buf.len() as u64).min(size - offset) as usize;
        self.inner
            .page_cache
            .read(dev, cache, fref, offset, &mut buf[..n])
    }

    fn read_at_inner(
        &self,
        _pid: Pid,
        file: &OpenFile,
        offset: u64,
        buf: &mut [u8],
    ) -> SysResult<usize> {
        self.charge_syscall();
        match &file.kind {
            FileKind::Regular {
                dev,
                cache,
                file: fref,
                io,
                ..
            } => {
                if !file.flags.mode.readable() {
                    return Err(Errno::EBADF);
                }
                // A passthrough open reads its backing file instead, as a
                // native `pread` of that file would.
                match io.as_ref().and_then(|io| io.backing.as_ref()) {
                    Some(b) => self.read_file(b.dev, b.cache, &b.file, file.flags, offset, buf),
                    None => self.read_file(*dev, *cache, fref, file.flags, offset, buf),
                }
            }
            FileKind::Directory { .. } => Err(Errno::EISDIR),
            FileKind::PipeRead(p) => p.read(buf),
            FileKind::PipeWrite(_) | FileKind::Path { .. } => Err(Errno::EBADF),
            FileKind::Socket(s) => s.recv(buf),
            FileKind::Listener(_) | FileKind::Epoll(_) | FileKind::IoUring { .. } => {
                Err(Errno::EINVAL)
            }
            FileKind::DevNull => Ok(0),
            FileKind::DevZero => {
                buf.fill(0);
                Ok(buf.len())
            }
            FileKind::DevUrandom => {
                // Deterministic xorshift stream seeded by the offset.
                let mut x = offset.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for b in buf.iter_mut() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    *b = x as u8;
                }
                Ok(buf.len())
            }
        }
    }

    /// Writes at the fd's current offset, advancing it.
    pub fn write_fd(&self, pid: Pid, fd: u32, data: &[u8]) -> SysResult<usize> {
        let file = self.get_file(pid, fd)?;
        let mut off = file.offset.lock();
        let n = self.write_at_inner(pid, &file, *off, data)?;
        *off = if file.flags.contains(OpenFlags::APPEND) {
            // Append mode: offset tracks EOF after the write.
            match &file.kind {
                FileKind::Regular {
                    dev, file: fref, ..
                } => {
                    let fs_size = fref.fs.getattr(fref.ino)?.size;
                    self.inner
                        .page_cache
                        .effective_size(*dev, fref.ino, fs_size)
                }
                _ => *off + n as u64,
            }
        } else {
            *off + n as u64
        };
        Ok(n)
    }

    /// `pwrite(2)`.
    pub fn pwrite(&self, pid: Pid, fd: u32, offset: u64, data: &[u8]) -> SysResult<usize> {
        let file = self.get_file(pid, fd)?;
        self.write_at_inner(pid, &file, offset, data)
    }

    /// Linux's `file_remove_privs` before a write of `fref`, whose
    /// attributes are `st`: a write strips setuid/setgid at once (the data
    /// may sit in the page cache for a while, but the mode change is a
    /// metadata operation and happens at write time), and the file's
    /// capability ([`Filesystem::need_killpriv`] says who pays for the
    /// check). A failed removal is ignored: a racing writer may have
    /// stripped it.
    fn remove_privs(&self, pid: Pid, fref: &FileRef, st: &Stat) -> SysResult<()> {
        if st.mode.is_setuid() || st.mode.is_setgid() {
            let cleared = st.mode.clear_suid_sgid();
            let creds = self.creds(pid)?;
            let _ = fref
                .fs
                .setattr(fref.ino, &SetAttr::chmod(cleared), &fs_context(&creds));
        }
        if fref.fs.need_killpriv(fref.ino) {
            let _ = fref.fs.removexattr(fref.ino, XATTR_NAME_CAPS);
        }
        Ok(())
    }

    /// The regular-file part of a write: through the page cache of `dev`,
    /// or straight to the filesystem for `O_DIRECT`. Returns the offset
    /// written at (the end of file under `O_APPEND`) and the bytes written.
    #[expect(
        clippy::too_many_arguments,
        reason = "pwrite(2) plus the page-cache key"
    )]
    fn write_file(
        &self,
        pid: Pid,
        dev: DevId,
        cache: CacheMode,
        fref: &Arc<FileRef>,
        flags: OpenFlags,
        offset: u64,
        data: &[u8],
    ) -> SysResult<(u64, usize)> {
        let fs_stat = fref.fs.getattr(fref.ino)?;
        let eff = self
            .inner
            .page_cache
            .effective_size(dev, fref.ino, fs_stat.size);
        let offset = if flags.contains(OpenFlags::APPEND) {
            eff
        } else {
            offset
        };
        // RLIMIT_FSIZE: enforced only when the filesystem replays the
        // caller's limits (CntrFS does not — xfstests #228).
        if fref.fs.features().enforces_caller_fsize {
            let end = offset + data.len() as u64;
            if end > eff {
                self.rlimits(pid)?.check_fsize(end)?;
            }
        }
        self.remove_privs(pid, fref, &fs_stat)?;
        if flags.contains(OpenFlags::DIRECT) {
            // Write back first so a later flush cannot overwrite the
            // direct write with older bytes, then drop the cached copy of
            // the range it overwrote (Linux's
            // `kiocb_invalidate_post_direct_write`).
            self.inner.page_cache.flush_file(dev, fref.ino)?;
            let n = fref.fs.write(fref.ino, fref.fh, offset, data)?;
            self.inner
                .page_cache
                .drop_range(dev, fref.ino, offset, n as u64);
            return Ok((offset, n));
        }
        let n = self
            .inner
            .page_cache
            .write(dev, cache, fref, offset, data)?;
        if flags.contains(OpenFlags::SYNC) {
            self.inner.page_cache.fsync(dev, fref, true)?;
        }
        Ok((offset, n))
    }

    fn write_at_inner(
        &self,
        pid: Pid,
        file: &OpenFile,
        offset: u64,
        data: &[u8],
    ) -> SysResult<usize> {
        self.charge_syscall();
        match &file.kind {
            FileKind::Regular {
                dev,
                cache,
                file: fref,
                io,
                ..
            } => {
                if !file.flags.mode.writable() {
                    return Err(Errno::EBADF);
                }
                let Some(b) = io.as_ref().and_then(|io| io.backing.as_ref()) else {
                    return self
                        .write_file(pid, *dev, *cache, fref, file.flags, offset, data)
                        .map(|(_, n)| n);
                };
                // Passthrough (`backing_file_write_iter`): the FUSE file's
                // privileges go first, then the backing file is written as
                // a native write of it would be — its own privileges and
                // the caller's RLIMIT_FSIZE included — and the FUSE inode
                // learns the size it grew to.
                self.remove_privs(pid, fref, &fref.fs.getattr(fref.ino)?)?;
                let (at, n) =
                    self.write_file(pid, b.dev, b.cache, &b.file, file.flags, offset, data)?;
                (b.end_write)(at + n as u64);
                Ok(n)
            }
            FileKind::Directory { .. } => Err(Errno::EISDIR),
            FileKind::PipeWrite(p) => p.write(data),
            FileKind::PipeRead(_) | FileKind::Path { .. } => Err(Errno::EBADF),
            FileKind::Socket(s) => s.send(data),
            FileKind::Listener(_) | FileKind::Epoll(_) | FileKind::IoUring { .. } => {
                Err(Errno::EINVAL)
            }
            FileKind::DevNull | FileKind::DevZero | FileKind::DevUrandom => Ok(data.len()),
        }
    }

    /// `lseek(2)`.
    pub fn lseek(&self, pid: Pid, fd: u32, offset: i64, whence: Whence) -> SysResult<u64> {
        self.charge_syscall();
        let file = self.get_file(pid, fd)?;
        let size = match &file.kind {
            FileKind::Regular {
                dev, file: fref, ..
            } => {
                let fs_size = fref.fs.getattr(fref.ino)?.size;
                self.inner
                    .page_cache
                    .effective_size(*dev, fref.ino, fs_size)
            }
            FileKind::Directory { .. } => 0,
            _ => return Err(Errno::ESPIPE),
        };
        let mut off = file.offset.lock();
        let base = match whence {
            Whence::Set => 0i128,
            Whence::Cur => *off as i128,
            Whence::End => size as i128,
        };
        let new = base + offset as i128;
        if new < 0 {
            return Err(Errno::EINVAL);
        }
        *off = new as u64;
        Ok(*off)
    }

    /// `fsync(2)` / `fdatasync(2)`.
    pub fn fsync(&self, pid: Pid, fd: u32, datasync: bool) -> SysResult<()> {
        self.charge_syscall();
        let file = self.get_file(pid, fd)?;
        match &file.kind {
            FileKind::Regular {
                dev, file: fref, ..
            } => self.inner.page_cache.fsync(*dev, fref, datasync),
            _ => Err(Errno::EINVAL),
        }
    }

    /// A relaxed sync: dirty pages are handed to the filesystem (background
    /// writeback) but no durability barrier is awaited. This is CNTR's
    /// delayed-sync behaviour under `FUSE_WRITEBACK_CACHE` (paper §3.3:
    /// "this optimization sacrifices write consistency for performance by
    /// delaying the sync operation").
    pub fn fsync_relaxed(&self, pid: Pid, fd: u32) -> SysResult<()> {
        self.charge_syscall();
        let file = self.get_file(pid, fd)?;
        match &file.kind {
            FileKind::Regular {
                dev, file: fref, ..
            } => self.inner.page_cache.flush_file(*dev, fref.ino),
            _ => Err(Errno::EINVAL),
        }
    }

    // ------------------------------------------------------------------
    // Metadata syscalls
    // ------------------------------------------------------------------

    /// `stat(2)` (follows symlinks).
    pub fn stat(&self, pid: Pid, path: &str) -> SysResult<Stat> {
        self.fstatat(pid, AT_FDCWD, path, AtFlags::NONE)
    }

    /// `lstat(2)` (does not follow the final symlink).
    pub fn lstat(&self, pid: Pid, path: &str) -> SysResult<Stat> {
        self.fstatat(pid, AT_FDCWD, path, AtFlags::SYMLINK_NOFOLLOW)
    }

    /// `fstatat(2)`.
    pub fn fstatat(&self, pid: Pid, dirfd: u32, path: &str, flags: AtFlags) -> SysResult<Stat> {
        self.charge_syscall();
        let r = self.resolve_at(pid, dirfd, path, flags)?;
        Ok(self.with_cached_attrs(r.fs.fs_id(), r.stat))
    }

    /// `fstat(2)`.
    pub fn fstat(&self, pid: Pid, fd: u32) -> SysResult<Stat> {
        self.charge_syscall();
        let file = self.get_file_raw(pid, fd)?;
        match &file.kind {
            FileKind::Regular {
                dev, file: fref, ..
            } => Ok(self.with_cached_attrs(*dev, fref.fs.getattr(fref.ino)?)),
            FileKind::Path { loc, fs, .. } => {
                Ok(self.with_cached_attrs(fs.fs_id(), fs.getattr(loc.ino)?))
            }
            FileKind::Directory { mount, ino, .. } => {
                let ns = self.snapshot_ns(pid)?;
                ns.get(*mount)?.fs.getattr(*ino)
            }
            _ => Err(Errno::EBADF),
        }
    }

    /// `st` as the page cache sees it: write-back may hold a larger size
    /// and a newer mtime than the filesystem has seen.
    fn with_cached_attrs(&self, dev: DevId, mut st: Stat) -> Stat {
        st.size = self.inner.page_cache.effective_size(dev, st.ino, st.size);
        if let Some(t) = self.inner.page_cache.pending_mtime(dev, st.ino) {
            st.mtime = st.mtime.max(t);
        }
        st
    }

    /// `mkdir(2)`: [`Kernel::mkdirat`] at [`AT_FDCWD`].
    pub fn mkdir(&self, pid: Pid, path: &str, mode: Mode) -> SysResult<()> {
        self.mkdirat(pid, AT_FDCWD, path, mode)
    }

    /// `mkdirat(2)`.
    pub fn mkdirat(&self, pid: Pid, dirfd: u32, path: &str, mode: Mode) -> SysResult<()> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        let (parent, name) = self.resolve_parent_at(pid, dirfd, path, LastDots::CREATE)?;
        if parent.readonly {
            return Err(Errno::EROFS);
        }
        check_access(&parent.stat, &creds, Access::W)?;
        parent
            .fs
            .mkdir(parent.loc.ino, name, mode, &fs_context(&creds))
            .map(|_| ())
    }

    /// `mknod(2)` for fifos, sockets and device nodes.
    pub fn mknod(
        &self,
        pid: Pid,
        path: &str,
        ftype: FileType,
        mode: Mode,
        rdev: u64,
    ) -> SysResult<()> {
        self.mknodat(pid, AT_FDCWD, path, ftype, mode, rdev)
    }

    /// `mknodat(2)`.
    pub fn mknodat(
        &self,
        pid: Pid,
        dirfd: u32,
        path: &str,
        ftype: FileType,
        mode: Mode,
        rdev: u64,
    ) -> SysResult<()> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        if matches!(ftype, FileType::CharDevice | FileType::BlockDevice)
            && !creds.caps.has(Capability::Mknod)
        {
            return Err(Errno::EPERM);
        }
        let (parent, name) = self.resolve_create_at(pid, dirfd, path)?;
        if parent.readonly {
            return Err(Errno::EROFS);
        }
        parent
            .fs
            .mknod(parent.loc.ino, name, ftype, mode, rdev, &fs_context(&creds))
            .map(|_| ())
    }

    /// `unlink(2)`: [`Kernel::unlinkat`] at [`AT_FDCWD`].
    pub fn unlink(&self, pid: Pid, path: &str) -> SysResult<()> {
        self.unlinkat(pid, AT_FDCWD, path, AtFlags::NONE)
    }

    /// `rmdir(2)`: [`Kernel::unlinkat`] at [`AT_FDCWD`] with `REMOVEDIR`.
    pub fn rmdir(&self, pid: Pid, path: &str) -> SysResult<()> {
        self.unlinkat(pid, AT_FDCWD, path, AtFlags::REMOVEDIR)
    }

    /// `unlinkat(2)`: removes a directory under `REMOVEDIR`, any other
    /// node without it.
    pub fn unlinkat(&self, pid: Pid, dirfd: u32, path: &str, flags: AtFlags) -> SysResult<()> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        let removedir = flags.contains(AtFlags::REMOVEDIR);
        let dots = if removedir {
            LastDots::RMDIR
        } else {
            LastDots::UNLINK
        };
        let (parent, name) = self.resolve_parent_at(pid, dirfd, path, dots)?;
        if parent.readonly {
            return Err(Errno::EROFS);
        }
        if !removedir && path.ends_with('/') {
            // A trailing slash names a directory, which unlink does not
            // remove (Linux's `do_unlinkat`, at `slashes:`).
            let st = parent.fs.lookup(parent.loc.ino, name)?;
            return Err(if st.is_dir() {
                Errno::EISDIR
            } else {
                Errno::ENOTDIR
            });
        }
        check_access(&parent.stat, &creds, Access::W)?;
        if removedir {
            return parent.fs.rmdir(parent.loc.ino, name);
        }
        // Deregister a bound socket if one lived here; connections already
        // accepted stay open, new ones are refused.
        if let Ok(st) = parent.fs.lookup(parent.loc.ino, name) {
            if st.ftype == FileType::Socket {
                if let Some(bound) = self
                    .inner
                    .socket_nodes
                    .lock()
                    .remove(&(parent.fs.fs_id(), st.ino))
                {
                    bound.listener.close();
                }
            }
        }
        parent.fs.unlink(parent.loc.ino, name)
    }

    /// `rename(2)`: [`Kernel::renameat2`] at [`AT_FDCWD`].
    pub fn rename(&self, pid: Pid, from: &str, to: &str, flags: RenameFlags) -> SysResult<()> {
        self.renameat2(pid, AT_FDCWD, from, AT_FDCWD, to, flags)
    }

    /// `renameat2(2)`.
    pub fn renameat2(
        &self,
        pid: Pid,
        olddirfd: u32,
        from: &str,
        newdirfd: u32,
        to: &str,
        flags: RenameFlags,
    ) -> SysResult<()> {
        self.charge_syscall();
        // Linux's `do_renameat2`: both parent walks, then `EXDEV`, then a
        // last `.` or `..` — `EBUSY` for the source; for the destination
        // `EEXIST` under `RENAME_NOREPLACE`, else `EBUSY` — then `EROFS`.
        let is_dots = |name: &str| name == "." || name == "..";
        let (src_parent, src_name) = self.walk_parent_at(pid, olddirfd, from)?;
        let (dst_parent, dst_name) = self.walk_parent_at(pid, newdirfd, to)?;
        if src_parent.loc.mount != dst_parent.loc.mount {
            return Err(Errno::EXDEV);
        }
        if is_dots(src_name) {
            return Err(Errno::EBUSY);
        }
        if is_dots(dst_name) {
            return Err(if flags.noreplace {
                Errno::EEXIST
            } else {
                Errno::EBUSY
            });
        }
        if src_parent.readonly || dst_parent.readonly {
            return Err(Errno::EROFS);
        }
        // A trailing slash names a directory (Linux's `do_renameat2`): a
        // non-directory source refuses one on either side, except that
        // an exchange holds each side's slash to its own node.
        let (from_dir, to_dir) = (from.ends_with('/'), to.ends_with('/'));
        if from_dir || to_dir {
            let is_dir =
                |p: &Resolved, name: &str| p.fs.lookup(p.loc.ino, name).map(|st| st.is_dir());
            let src_dir = is_dir(&src_parent, src_name)?;
            let refused = if flags.exchange {
                (from_dir && !src_dir) || (to_dir && !is_dir(&dst_parent, dst_name)?)
            } else {
                !src_dir
            };
            if refused {
                return Err(Errno::ENOTDIR);
            }
        }
        src_parent.fs.rename(
            src_parent.loc.ino,
            src_name,
            dst_parent.loc.ino,
            dst_name,
            flags,
        )
    }

    /// `link(2)`: [`Kernel::linkat`] at [`AT_FDCWD`].
    pub fn link(&self, pid: Pid, existing: &str, new: &str) -> SysResult<()> {
        self.linkat(pid, AT_FDCWD, existing, AT_FDCWD, new, AtFlags::NONE)
    }

    /// `linkat(2)`. A final symlink in `existing` is linked itself;
    /// `EMPTY_PATH` links the inode `olddirfd` locates.
    pub fn linkat(
        &self,
        pid: Pid,
        olddirfd: u32,
        existing: &str,
        newdirfd: u32,
        new: &str,
        flags: AtFlags,
    ) -> SysResult<()> {
        self.charge_syscall();
        let src = self.resolve_at(pid, olddirfd, existing, flags | AtFlags::SYMLINK_NOFOLLOW)?;
        let (dst_parent, name) = self.resolve_create_at(pid, newdirfd, new)?;
        if dst_parent.readonly {
            return Err(Errno::EROFS);
        }
        if src.loc.mount != dst_parent.loc.mount {
            return Err(Errno::EXDEV);
        }
        dst_parent
            .fs
            .link(src.loc.ino, dst_parent.loc.ino, name)
            .map(|_| ())
    }

    /// `symlink(2)`: [`Kernel::symlinkat`] at [`AT_FDCWD`].
    pub fn symlink(&self, pid: Pid, target: &str, linkpath: &str) -> SysResult<()> {
        self.symlinkat(pid, target, AT_FDCWD, linkpath)
    }

    /// `symlinkat(2)`.
    pub fn symlinkat(
        &self,
        pid: Pid,
        target: &str,
        newdirfd: u32,
        linkpath: &str,
    ) -> SysResult<()> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        let (parent, name) = self.resolve_create_at(pid, newdirfd, linkpath)?;
        if parent.readonly {
            return Err(Errno::EROFS);
        }
        parent
            .fs
            .symlink(parent.loc.ino, name, target, &fs_context(&creds))
            .map(|_| ())
    }

    /// `readlink(2)`: [`Kernel::readlinkat`] at [`AT_FDCWD`].
    pub fn readlink(&self, pid: Pid, path: &str) -> SysResult<String> {
        self.readlinkat(pid, AT_FDCWD, path)
    }

    /// `readlinkat(2)`. An empty path reads the symlink `dirfd` locates
    /// (an `O_PATH | O_NOFOLLOW` descriptor).
    pub fn readlinkat(&self, pid: Pid, dirfd: u32, path: &str) -> SysResult<String> {
        self.charge_syscall();
        let r = self.resolve_at(
            pid,
            dirfd,
            path,
            AtFlags::SYMLINK_NOFOLLOW | AtFlags::EMPTY_PATH,
        )?;
        r.fs.readlink(r.loc.ino)
    }

    /// `getdents(2)`: directory entries including synthesized `.` and `..`.
    /// One call stands in for `opendir`, `getdents` and `closedir`.
    pub fn readdir(&self, pid: Pid, path: &str) -> SysResult<Vec<Dirent>> {
        self.readdirat(pid, AT_FDCWD, path, AtFlags::NONE)
    }

    /// The `*at` form of [`Kernel::readdir`]: with `EMPTY_PATH` it lists the
    /// directory `dirfd` locates, as `fdopendir` lists an open directory.
    pub fn readdirat(
        &self,
        pid: Pid,
        dirfd: u32,
        path: &str,
        flags: AtFlags,
    ) -> SysResult<Vec<Dirent>> {
        self.charge_syscall();
        let r = self.resolve_at(pid, dirfd, path, flags)?;
        if !r.stat.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        let mut out = vec![
            Dirent {
                ino: r.loc.ino,
                name: ".".to_string(),
                ftype: FileType::Directory,
            },
            Dirent {
                ino: r.loc.ino,
                name: "..".to_string(),
                ftype: FileType::Directory,
            },
        ];
        out.extend(r.fs.readdir(r.loc.ino)?);
        Ok(out)
    }

    /// `statfs(2)`.
    pub fn statfs(&self, pid: Pid, path: &str) -> SysResult<cntr_types::Statfs> {
        self.charge_syscall();
        let r = self.resolve(pid, path, true)?;
        r.fs.statfs()
    }

    /// `chmod(2)`: [`Kernel::fchmodat`] at [`AT_FDCWD`].
    pub fn chmod(&self, pid: Pid, path: &str, mode: Mode) -> SysResult<()> {
        self.fchmodat(pid, AT_FDCWD, path, mode, AtFlags::NONE)
    }

    /// `fchmodat(2)` (`fchmodat2`: `EMPTY_PATH` and `SYMLINK_NOFOLLOW`
    /// apply).
    pub fn fchmodat(
        &self,
        pid: Pid,
        dirfd: u32,
        path: &str,
        mode: Mode,
        flags: AtFlags,
    ) -> SysResult<()> {
        self.setattr_at(pid, dirfd, path, flags, &SetAttr::chmod(mode))?;
        Ok(())
    }

    /// `chown(2)`: [`Kernel::fchownat`] at [`AT_FDCWD`].
    pub fn chown(&self, pid: Pid, path: &str, uid: Uid, gid: Gid) -> SysResult<()> {
        self.fchownat(pid, AT_FDCWD, path, uid, gid, AtFlags::NONE)
    }

    /// `fchownat(2)`.
    pub fn fchownat(
        &self,
        pid: Pid,
        dirfd: u32,
        path: &str,
        uid: Uid,
        gid: Gid,
        flags: AtFlags,
    ) -> SysResult<()> {
        let creds = self.creds(pid)?;
        if !creds.caps.has(Capability::Chown) && creds.uid != uid {
            return Err(Errno::EPERM);
        }
        self.setattr_at(pid, dirfd, path, flags, &SetAttr::chown(uid, gid))?;
        Ok(())
    }

    /// `truncate(2)`: one walk, as Linux's `do_sys_truncate`. The page
    /// cache of the inode that walk found follows only once the filesystem
    /// has accepted the new size (Linux's `truncate_setsize`): a refused
    /// truncate leaves the cached bytes as they were.
    pub fn truncate(&self, pid: Pid, path: &str, size: u64) -> SysResult<()> {
        let r = self.setattr_at(pid, AT_FDCWD, path, AtFlags::NONE, &SetAttr::truncate(size))?;
        self.inner
            .page_cache
            .truncate_file(r.fs.fs_id(), r.loc.ino, size);
        Ok(())
    }

    /// `ftruncate(2)`.
    pub fn ftruncate(&self, pid: Pid, fd: u32, size: u64) -> SysResult<()> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        let file = self.get_file(pid, fd)?;
        match &file.kind {
            FileKind::Regular {
                dev, file: fref, ..
            } => {
                if !file.flags.mode.writable() {
                    return Err(Errno::EBADF);
                }
                fref.fs
                    .setattr(fref.ino, &SetAttr::truncate(size), &fs_context(&creds))?;
                self.inner.page_cache.truncate_file(*dev, fref.ino, size);
                Ok(())
            }
            _ => Err(Errno::EINVAL),
        }
    }

    /// `utimensat(2)`-style timestamp update at [`AT_FDCWD`].
    pub fn utimens(
        &self,
        pid: Pid,
        path: &str,
        atime: Option<cntr_types::Timespec>,
        mtime: Option<cntr_types::Timespec>,
    ) -> SysResult<()> {
        self.utimensat(pid, AT_FDCWD, path, atime, mtime, AtFlags::NONE)
    }

    /// `utimensat(2)`: `None` leaves a timestamp as it is (`UTIME_OMIT`).
    pub fn utimensat(
        &self,
        pid: Pid,
        dirfd: u32,
        path: &str,
        atime: Option<cntr_types::Timespec>,
        mtime: Option<cntr_types::Timespec>,
        flags: AtFlags,
    ) -> SysResult<()> {
        self.setattr_at(
            pid,
            dirfd,
            path,
            flags,
            &SetAttr {
                atime,
                mtime,
                ..SetAttr::default()
            },
        )?;
        Ok(())
    }

    /// Applies `attr` to what `path` names, resolved once; returns that
    /// resolution.
    fn setattr_at(
        &self,
        pid: Pid,
        dirfd: u32,
        path: &str,
        flags: AtFlags,
        attr: &SetAttr,
    ) -> SysResult<Resolved> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        let r = self.resolve_at(pid, dirfd, path, flags)?;
        if r.readonly {
            return Err(Errno::EROFS);
        }
        r.fs.setattr(r.loc.ino, attr, &fs_context(&creds))?;
        Ok(r)
    }

    /// `access(2)`.
    pub fn access(&self, pid: Pid, path: &str, want: Access) -> SysResult<()> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        let r = self.resolve(pid, path, true)?;
        check_access(&r.stat, &creds, want)
    }

    /// `getxattr(2)`: [`Kernel::getxattrat`] at [`AT_FDCWD`].
    pub fn getxattr(&self, pid: Pid, path: &str, name: &str) -> SysResult<Vec<u8>> {
        self.getxattrat(pid, AT_FDCWD, path, AtFlags::NONE, name)
    }

    /// `getxattrat(2)` (Linux 6.13).
    pub fn getxattrat(
        &self,
        pid: Pid,
        dirfd: u32,
        path: &str,
        flags: AtFlags,
        name: &str,
    ) -> SysResult<Vec<u8>> {
        self.charge_syscall();
        let r = self.resolve_at(pid, dirfd, path, flags)?;
        r.fs.getxattr(r.loc.ino, name)
    }

    /// `setxattr(2)`: [`Kernel::setxattrat`] at [`AT_FDCWD`].
    pub fn setxattr(
        &self,
        pid: Pid,
        path: &str,
        name: &str,
        value: &[u8],
        flags: XattrFlags,
    ) -> SysResult<()> {
        self.setxattrat(pid, AT_FDCWD, path, AtFlags::NONE, name, value, flags)
    }

    /// `setxattrat(2)` (Linux 6.13).
    #[allow(clippy::too_many_arguments)]
    pub fn setxattrat(
        &self,
        pid: Pid,
        dirfd: u32,
        path: &str,
        at: AtFlags,
        name: &str,
        value: &[u8],
        flags: XattrFlags,
    ) -> SysResult<()> {
        self.charge_syscall();
        let r = self.resolve_at(pid, dirfd, path, at)?;
        if r.readonly {
            return Err(Errno::EROFS);
        }
        r.fs.setxattr(r.loc.ino, name, value, flags)
    }

    /// `listxattr(2)`: [`Kernel::listxattrat`] at [`AT_FDCWD`].
    pub fn listxattr(&self, pid: Pid, path: &str) -> SysResult<Vec<String>> {
        self.listxattrat(pid, AT_FDCWD, path, AtFlags::NONE)
    }

    /// `listxattrat(2)` (Linux 6.13).
    pub fn listxattrat(
        &self,
        pid: Pid,
        dirfd: u32,
        path: &str,
        flags: AtFlags,
    ) -> SysResult<Vec<String>> {
        self.charge_syscall();
        let r = self.resolve_at(pid, dirfd, path, flags)?;
        r.fs.listxattr(r.loc.ino)
    }

    /// `removexattr(2)`: [`Kernel::removexattrat`] at [`AT_FDCWD`].
    pub fn removexattr(&self, pid: Pid, path: &str, name: &str) -> SysResult<()> {
        self.removexattrat(pid, AT_FDCWD, path, AtFlags::NONE, name)
    }

    /// `removexattrat(2)` (Linux 6.13).
    pub fn removexattrat(
        &self,
        pid: Pid,
        dirfd: u32,
        path: &str,
        flags: AtFlags,
        name: &str,
    ) -> SysResult<()> {
        self.charge_syscall();
        let r = self.resolve_at(pid, dirfd, path, flags)?;
        if r.readonly {
            return Err(Errno::EROFS);
        }
        r.fs.removexattr(r.loc.ino, name)
    }

    /// Executes (maps) a binary: requires execute permission and `mmap`
    /// support on the filesystem. Returns the file contents — the simulated
    /// `execve` image. Over CntrFS this works because CNTR chose `mmap`
    /// support over `O_DIRECT` (paper §5.1).
    pub fn exec_read(&self, pid: Pid, path: &str) -> SysResult<Vec<u8>> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        let r = self.resolve(pid, path, true)?;
        if !r.stat.is_file() {
            return Err(Errno::EACCES);
        }
        check_access(&r.stat, &creds, Access::X)?;
        let fd = self.open(pid, path, OpenFlags::RDONLY, Mode::RW_R__R__)?;
        let size = self
            .inner
            .page_cache
            .effective_size(r.fs.fs_id(), r.loc.ino, r.stat.size);
        let mut out = vec![0u8; size as usize];
        let mut done = 0;
        while done < out.len() {
            let n = self.pread(pid, fd, done as u64, &mut out[done..])?;
            if n == 0 {
                break;
            }
            done += n;
        }
        self.close(pid, fd)?;
        out.truncate(done);
        Ok(out)
    }

    /// `name_to_handle_at(2)`: fails with `EOPNOTSUPP` on filesystems whose
    /// inodes are not exportable (CntrFS — xfstests #426).
    pub fn name_to_handle(&self, pid: Pid, path: &str) -> SysResult<u64> {
        self.charge_syscall();
        let r = self.resolve(pid, path, true)?;
        r.fs.export_handle(r.loc.ino)
    }

    /// `fallocate(2)`.
    pub fn fallocate(
        &self,
        pid: Pid,
        fd: u32,
        offset: u64,
        len: u64,
        mode: cntr_fs::FallocateMode,
    ) -> SysResult<()> {
        self.charge_syscall();
        let file = self.get_file(pid, fd)?;
        match &file.kind {
            FileKind::Regular {
                dev, file: fref, ..
            } => {
                if mode == cntr_fs::FallocateMode::PunchHole {
                    // Flush buffered data first, punch, then drop cached
                    // pages in the range so the hole reads as zeroes.
                    self.inner.page_cache.flush_file(*dev, fref.ino)?;
                    fref.fs.fallocate(fref.ino, fref.fh, offset, len, mode)?;
                    self.inner
                        .page_cache
                        .drop_range(*dev, fref.ino, offset, len);
                    Ok(())
                } else {
                    fref.fs.fallocate(fref.ino, fref.fh, offset, len, mode)
                }
            }
            _ => Err(Errno::EINVAL),
        }
    }

    // ------------------------------------------------------------------
    // Directory / root changes
    // ------------------------------------------------------------------

    /// `chdir(2)`: the cwd becomes where the walk ended, with its `..` stack.
    pub fn chdir(&self, pid: Pid, path: &str) -> SysResult<()> {
        self.charge_syscall();
        let (r, stack) = self.walk_at(pid, AT_FDCWD, path, AtFlags::NONE)?;
        if !r.stat.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        self.with_proc_mut(pid, |p| {
            p.cwd = r.loc;
            p.cwd_stack = stack;
            Ok(())
        })
    }

    /// `chroot(2)`: requires `CAP_SYS_CHROOT`.
    pub fn chroot(&self, pid: Pid, path: &str) -> SysResult<()> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        if !creds.caps.has(Capability::SysChroot) {
            return Err(Errno::EPERM);
        }
        let r = self.resolve(pid, path, true)?;
        if !r.stat.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        self.with_proc_mut(pid, |p| {
            p.reset_root(r.loc);
            Ok(())
        })
    }

    /// `getcwd(2)`, as `pwd -P` prints it: the classic Unix search along the
    /// saved `..` stack, naming in each directory the entry whose lookup
    /// lands, mounts crossed, where the next one does. `ENOENT` once the cwd
    /// or a directory above it was removed or moved to another parent.
    pub fn getcwd(&self, pid: Pid) -> SysResult<String> {
        self.charge_syscall();
        let (ns_id, chain) = self.with_proc(pid, |p| {
            Ok((p.ns.mount, [&p.cwd_stack[..], &[p.cwd]].concat()))
        })?;
        let ns = self.inner.mounts.snapshot(ns_id)?;
        let mut path = String::new();
        for pair in chain.windows(2) {
            let (dir, top) = (pair[0], Self::cross_mounts(&ns, pair[1]));
            let fs = &ns.get(dir.mount)?.fs;
            let lands_on_next = |name: &str| {
                let st = fs.lookup(dir.ino, name);
                st.is_ok_and(|st| Self::cross_mounts(&ns, VfsLoc { ino: st.ino, ..dir }) == top)
            };
            let entry = fs
                .readdir(dir.ino)?
                .into_iter()
                .find(|d| d.name != "." && d.name != ".." && lands_on_next(&d.name));
            path = path + "/" + &entry.ok_or(Errno::ENOENT)?.name;
        }
        Ok(if path.is_empty() { "/".into() } else { path })
    }

    // ------------------------------------------------------------------
    // Mount syscalls
    // ------------------------------------------------------------------

    fn alloc_mount_id(&self) -> MountId {
        self.inner.mounts.alloc_mount_id()
    }

    /// `mount(2)` of a filesystem instance at `path`.
    pub fn mount_fs(
        &self,
        pid: Pid,
        path: &str,
        fs: Arc<dyn Filesystem>,
        flags: MountFlags,
    ) -> SysResult<MountId> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        if !creds.caps.has(Capability::SysAdmin) {
            return Err(Errno::EPERM);
        }
        let at = self.resolve(pid, path, true)?;
        if !at.stat.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        let cache = CacheMode::for_mount(fs.features(), flags);
        let id = self.alloc_mount_id();
        let ns_id = self.with_proc(pid, |p| Ok(p.ns.mount))?;
        self.inner.mounts.with_write(ns_id, |ns| {
            let fs = Arc::clone(&fs);
            ns.add_mount(id, fs, Ino::ROOT, at.loc.mount, at.loc.ino, cache, flags)
        })?;
        self.inner.passthrough.attach(&*fs);
        // Propagate into shared peers of the parent mount.
        self.propagate_mount(ns_id, at.loc.mount, at.loc.ino);
        Ok(id)
    }

    /// Shared prologue of both bind variants: privilege check, source and
    /// target resolution, and the file-over-file / dir-over-dir type check.
    /// Returns `(source, target, caller's mount namespace)`.
    fn bind_prologue(
        &self,
        pid: Pid,
        src: &str,
        dst: &str,
    ) -> SysResult<(Resolved, Resolved, crate::ns::NamespaceId)> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        if !creds.caps.has(Capability::SysAdmin) {
            return Err(Errno::EPERM);
        }
        let source = self.resolve(pid, src, true)?;
        let target = self.resolve(pid, dst, true)?;
        // A bind mount may cover a file with a file, or a dir with a dir.
        if source.stat.is_dir() != target.stat.is_dir() {
            return Err(if source.stat.is_dir() {
                Errno::ENOTDIR
            } else {
                Errno::EISDIR
            });
        }
        let ns_id = self.with_proc(pid, |p| Ok(p.ns.mount))?;
        Ok((source, target, ns_id))
    }

    /// `mount --bind src dst` (optionally read-only). Binds the *subtree* at
    /// `src` — the primitive CNTR uses for `/proc`, `/dev` and `/etc` files.
    pub fn bind_mount(
        &self,
        pid: Pid,
        src: &str,
        dst: &str,
        flags: MountFlags,
    ) -> SysResult<MountId> {
        let (source, target, ns_id) = self.bind_prologue(pid, src, dst)?;
        let id = self.alloc_mount_id();
        self.inner.mounts.with_write(ns_id, |ns| {
            let cache = ns.get(source.loc.mount)?.cache;
            ns.add_mount(
                id,
                source.fs,
                source.loc.ino,
                target.loc.mount,
                target.loc.ino,
                cache,
                flags,
            )
        })?;
        self.propagate_mount(ns_id, target.loc.mount, target.loc.ino);
        Ok(id)
    }

    /// `mount --rbind src dst`: like [`Kernel::bind_mount`], but child
    /// mounts under the source are replicated under the new bind — what
    /// CNTR relies on when re-mounting "all pre-existing mountpoints, from
    /// the application container" beneath `/var/lib/cntr` (paper §3.2.3).
    ///
    /// Children are replicated when their parent mount is part of the bound
    /// tree; a bind of a subdirectory does not filter children by subtree
    /// position (a simplification over Linux).
    pub fn bind_mount_recursive(
        &self,
        pid: Pid,
        src: &str,
        dst: &str,
        flags: MountFlags,
    ) -> SysResult<MountId> {
        let (source, target, ns_id) = self.bind_prologue(pid, src, dst)?;
        let top = self.alloc_mount_id();
        // The top bind and the subtree replication commit under ONE write
        // lock of the caller's namespace, so a concurrent mount/umount can
        // never observe (or destroy) a partially replicated tree.
        self.inner.mounts.with_write(ns_id, |ns| {
            let cache = ns.get(source.loc.mount)?.cache;
            ns.add_mount(
                top,
                Arc::clone(&source.fs),
                source.loc.ino,
                target.loc.mount,
                target.loc.ino,
                cache,
                flags,
            )?;
            // Breadth-first replication of the mount tree under the source.
            let mut mapping: IdMap<MountId, MountId> = IdMap::default();
            mapping.insert(source.loc.mount, top);
            let mut replicas: Vec<(MountId, Mount)> = Vec::new();
            let mut changed = true;
            let all: Vec<Mount> = ns.iter().cloned().collect();
            while changed {
                changed = false;
                for m in &all {
                    if mapping.contains_key(&m.id) {
                        continue;
                    }
                    let Some((parent, at_ino)) = m.parent else {
                        continue;
                    };
                    if let Some(&new_parent) = mapping.get(&parent) {
                        let id = self.inner.mounts.alloc_mount_id();
                        let mut clone = m.clone();
                        clone.id = id;
                        clone.parent = Some((new_parent, at_ino));
                        clone.propagation = crate::mount::Propagation::Private;
                        mapping.insert(m.id, id);
                        replicas.push((id, clone));
                        changed = true;
                    }
                }
            }
            for (id, m) in replicas {
                ns.add_mount(
                    id,
                    m.fs,
                    m.root_ino,
                    m.parent.expect("set above").0,
                    m.parent.expect("set above").1,
                    m.cache,
                    m.flags,
                )?;
            }
            Ok(())
        })?;
        self.propagate_mount(ns_id, target.loc.mount, target.loc.ino);
        Ok(top)
    }

    /// `mount --move src dst`: relocates the mount at `src` to `dst`.
    pub fn move_mount(&self, pid: Pid, src: &str, dst: &str) -> SysResult<()> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        if !creds.caps.has(Capability::SysAdmin) {
            return Err(Errno::EPERM);
        }
        let source = self.resolve(pid, src, true)?;
        let target = self.resolve(pid, dst, true)?;
        let ns_id = self.with_proc(pid, |p| Ok(p.ns.mount))?;
        self.inner.mounts.with_write(ns_id, |ns| {
            // `src` must resolve to the root of a mount.
            let m = ns.get(source.loc.mount)?;
            if m.root_ino != source.loc.ino || m.parent.is_none() {
                return Err(Errno::EINVAL);
            }
            ns.move_mount(source.loc.mount, target.loc.mount, target.loc.ino)
        })
    }

    /// `umount(2)`.
    pub fn umount(&self, pid: Pid, path: &str) -> SysResult<()> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        if !creds.caps.has(Capability::SysAdmin) {
            return Err(Errno::EPERM);
        }
        let at = self.resolve(pid, path, true)?;
        // Flush this filesystem's dirty pages before detach — only this
        // one's: unmounting one container must not drain (or fail on)
        // every other container's dirty data.
        self.inner.page_cache.sync_dev(at.fs.fs_id())?;
        let ns_id = self.with_proc(pid, |p| Ok(p.ns.mount))?;
        self.inner.mounts.with_write(ns_id, |ns| {
            let m = ns.get(at.loc.mount)?;
            if m.root_ino != at.loc.ino {
                return Err(Errno::EINVAL);
            }
            ns.umount(at.loc.mount).map(|_| ())
        })
    }

    /// `mount --make-rprivate /`: stops all propagation in the caller's
    /// namespace. The first thing CNTR does in the nested namespace.
    pub fn make_rprivate(&self, pid: Pid) -> SysResult<()> {
        self.charge_syscall();
        let ns_id = self.with_proc(pid, |p| Ok(p.ns.mount))?;
        self.inner.mounts.with_write(ns_id, |ns| {
            ns.make_all_private();
            Ok(())
        })
    }

    /// `mount --make-shared` on the mount containing `path`.
    pub fn make_shared(&self, pid: Pid, path: &str, peer_group: u64) -> SysResult<()> {
        self.charge_syscall();
        let at = self.resolve(pid, path, true)?;
        let ns_id = self.with_proc(pid, |p| Ok(p.ns.mount))?;
        self.inner.mounts.with_write(ns_id, |ns| {
            ns.set_propagation(at.loc.mount, Propagation::Shared(peer_group))
        })
    }

    /// Replicates a new mount at `(parent, ino)` into every namespace whose
    /// copy of `parent` shares a peer group with this one.
    ///
    /// One registry write section finds the peers and mounts into them, so
    /// no peer can be reconfigured between the check and the mount. Peers
    /// get their mount ids in namespace-id order.
    fn propagate_mount(&self, origin_ns: crate::ns::NamespaceId, parent: MountId, at_ino: Ino) {
        let mounts = &self.inner.mounts;
        mounts.with_all_write(|namespaces| {
            let Some(origin) = namespaces.get(&origin_ns) else {
                return;
            };
            let Ok(Propagation::Shared(group)) = origin.get(parent).map(|m| m.propagation) else {
                return;
            };
            let Some(new_mount) = origin.mount_at(parent, at_ino).cloned() else {
                return;
            };
            let mut peers: Vec<_> = namespaces
                .iter()
                .filter(|&(&id, ns)| {
                    id != origin_ns
                        && ns
                            .get(parent)
                            .is_ok_and(|m| m.propagation == Propagation::Shared(group))
                })
                .map(|(&id, _)| id)
                .collect();
            peers.sort_unstable();
            for ns_id in peers {
                let ns = Arc::make_mut(namespaces.get_mut(&ns_id).expect("listed above"));
                let _ = ns.add_mount(
                    mounts.alloc_mount_id(),
                    Arc::clone(&new_mount.fs),
                    new_mount.root_ino,
                    parent,
                    at_ino,
                    new_mount.cache,
                    new_mount.flags,
                );
            }
        });
    }

    /// Adopts another process's root directory — the effect of
    /// `chroot("/proc/<target>/root")`, which attach tools use after
    /// `setns` so they land in the target's *chrooted* view rather than the
    /// mount namespace root. Requires `CAP_SYS_CHROOT`.
    pub fn adopt_root(&self, pid: Pid, target: Pid) -> SysResult<()> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        if !creds.caps.has(Capability::SysChroot) {
            return Err(Errno::EPERM);
        }
        let root = self.with_proc(target, |p| Ok(p.root))?;
        self.with_proc_mut(pid, |p| {
            p.reset_root(root);
            Ok(())
        })
    }

    /// `pivot_root(2)` (simplified): makes the mount at `new_root` the root
    /// mount of the caller's mount namespace and moves the caller into it.
    /// Container runtimes use this so that *joining* the namespace later
    /// (`setns`) lands in the container rootfs — which is what lets CNTR
    /// see the application's filesystem after attaching.
    pub fn pivot_root(&self, pid: Pid, new_root: &str) -> SysResult<()> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        if !creds.caps.has(Capability::SysAdmin) {
            return Err(Errno::EPERM);
        }
        let at = self.resolve(pid, new_root, true)?;
        let ns_id = self.with_proc(pid, |p| Ok(p.ns.mount))?;
        self.inner.mounts.with_write(ns_id, |ns| {
            let m = ns.get(at.loc.mount)?;
            if m.root_ino != at.loc.ino || m.parent.is_none() {
                return Err(Errno::EINVAL);
            }
            ns.set_root(at.loc.mount)
        })?;
        self.with_proc_mut(pid, |p| {
            p.reset_root(at.loc);
            Ok(())
        })
    }

    /// Passes an open descriptor to another process (`SCM_RIGHTS`): the
    /// receiving process gets a new fd sharing the same open file
    /// description. CNTR's socket proxy uses this to hold both ends of a
    /// forwarded connection in one process.
    pub fn send_fd(&self, from: Pid, fd: u32, to: Pid) -> SysResult<u32> {
        self.charge_syscall();
        let entry = self.with_proc(from, |p| p.fds.get(&fd).cloned().ok_or(Errno::EBADF))?;
        self.with_proc_mut(to, |p| Ok(p.install_fd(entry)))
    }

    /// Mounts a live `/proc` view at `path`.
    pub fn mount_procfs(&self, pid: Pid, path: &str) -> SysResult<MountId> {
        let procfs = crate::procfs::ProcFs::new(
            DevId(0x70726F63), // "proc"
            Arc::downgrade(&self.inner),
        );
        self.mount_fs(pid, path, procfs, MountFlags::default())
    }

    /// Lists mounts visible to `pid` (`/proc/self/mounts`-ish).
    pub fn mounts(&self, pid: Pid) -> SysResult<Vec<(MountId, &'static str)>> {
        let ns = self.snapshot_ns(pid)?;
        Ok(ns.iter().map(|m| (m.id, m.fs.fs_type())).collect())
    }

    // ------------------------------------------------------------------
    // Unix sockets bound to filesystem paths
    // ------------------------------------------------------------------

    /// `bind(2)` + `listen(2)`: creates the socket inode and registers a
    /// listener under it, tagged with the caller's mount namespace — if
    /// that namespace dies (its last process is reaped) the listener is
    /// unbound, so a dead container's socket cannot accept connections.
    /// A name that exists (a last `.` or `..` included) is `EADDRINUSE`,
    /// as Linux's `unix_bind` turns the `EEXIST` of its create into.
    pub fn bind_listener(&self, pid: Pid, path: &str) -> SysResult<u32> {
        self.charge_syscall();
        let in_use = |e| match e {
            Errno::EEXIST => Errno::EADDRINUSE,
            e => e,
        };
        let (creds, mnt_ns) = self.with_proc(pid, |p| Ok((p.creds.clone(), p.ns.mount)))?;
        let (parent, name) = self
            .resolve_create_at(pid, AT_FDCWD, path)
            .map_err(in_use)?;
        if parent.readonly {
            return Err(Errno::EROFS);
        }
        let st = parent
            .fs
            .mknod(
                parent.loc.ino,
                name,
                FileType::Socket,
                Mode::new(0o666),
                0,
                &fs_context(&creds),
            )
            .map_err(in_use)?;
        let listener = SocketListener::new(path);
        self.inner.socket_nodes.lock().insert(
            (parent.fs.fs_id(), st.ino),
            crate::kernel::BoundSocket {
                mnt_ns,
                listener: Arc::clone(&listener),
            },
        );
        self.with_proc_mut(pid, |p| {
            Ok(p.install_fd(FdEntry {
                file: Arc::new(OpenFile {
                    kind: FileKind::Listener(listener.clone()),
                    flags: OpenFlags::RDWR,
                    offset: Mutex::new_class("kernel.fd_offset", 0),
                }),
                cloexec: false,
            }))
        })
    }

    /// `connect(2)` to a Unix socket path.
    ///
    /// Resolution goes through the caller's mount namespace: a socket file
    /// *seen through CntrFS* has a different `(dev, ino)` than the bound
    /// inode, so no listener is found and the connect fails — exactly the
    /// kernel behaviour that forces CNTR to implement its socket proxy
    /// (paper §3.2.4).
    pub fn connect(&self, pid: Pid, path: &str) -> SysResult<u32> {
        self.charge_syscall();
        let r = self.resolve(pid, path, true)?;
        if r.stat.ftype != FileType::Socket {
            return Err(Errno::ENOTSOCK);
        }
        let listener = self
            .inner
            .socket_nodes
            .lock()
            .get(&(r.fs.fs_id(), r.loc.ino))
            .map(|b| Arc::clone(&b.listener))
            .ok_or(Errno::ECONNREFUSED)?;
        let end: SocketEnd = listener.connect()?;
        self.with_proc_mut(pid, |p| {
            Ok(p.install_fd(FdEntry {
                file: Arc::new(OpenFile {
                    kind: FileKind::Socket(end.clone()),
                    flags: OpenFlags::RDWR,
                    offset: Mutex::new_class("kernel.fd_offset", 0),
                }),
                cloexec: false,
            }))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelConfig;
    use cntr_fs::memfs::memfs;
    use cntr_types::SimClock;

    fn kernel() -> Kernel {
        let clock = SimClock::new();
        let fs = memfs(DevId(1), clock.clone());
        Kernel::with_clock(clock, fs, KernelConfig::default())
    }

    const P: Pid = Pid::INIT;

    #[test]
    fn open_create_write_read() {
        let k = kernel();
        let fd = k
            .open(P, "/hello.txt", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        assert_eq!(k.write_fd(P, fd, b"hi there").unwrap(), 8);
        k.close(P, fd).unwrap();
        let fd = k
            .open(P, "/hello.txt", OpenFlags::RDONLY, Mode::RW_R__R__)
            .unwrap();
        let mut buf = [0u8; 16];
        let n = k.read_fd(P, fd, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"hi there");
        assert_eq!(k.read_fd(P, fd, &mut buf).unwrap(), 0, "EOF");
        k.close(P, fd).unwrap();
    }

    #[test]
    fn resolve_nested_paths_and_dotdot() {
        let k = kernel();
        k.mkdir(P, "/a", Mode::RWXR_XR_X).unwrap();
        k.mkdir(P, "/a/b", Mode::RWXR_XR_X).unwrap();
        k.mkdir(P, "/a/b/c", Mode::RWXR_XR_X).unwrap();
        let fd = k
            .open(P, "/a/b/c/f.txt", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(P, fd).unwrap();
        let st = k.stat(P, "/a/b/c/../c/./f.txt").unwrap();
        assert!(st.is_file());
        // `..` above root stays at root.
        let st = k.stat(P, "/../../a").unwrap();
        assert!(st.is_dir());
    }

    /// Linux's `link_path_walk` refuses any component after a
    /// non-directory, `.` and `..` included; neither costs a lookup.
    #[test]
    fn dot_and_dotdot_after_a_file_are_enotdir() {
        let k = kernel();
        let fd = k
            .open(P, "/f", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(P, fd).unwrap();
        k.mkdir(P, "/d", Mode::RWXR_XR_X).unwrap();
        k.symlink(P, "f", "/lf").unwrap();
        k.symlink(P, "d", "/ld").unwrap();

        assert_eq!(k.stat(P, "/f/."), Err(Errno::ENOTDIR));
        assert_eq!(k.stat(P, "/f/.."), Err(Errno::ENOTDIR));
        assert_eq!(k.stat(P, "/d/../f/."), Err(Errno::ENOTDIR));
        // A symlink before `.` is not the last component: it is followed,
        // by `lstat` too.
        assert_eq!(k.lstat(P, "/lf/."), Err(Errno::ENOTDIR));
        assert!(k.lstat(P, "/ld/.").unwrap().is_dir());
        assert!(k.stat(P, "/d/./..").unwrap().is_dir());

        let cost = |path: &str| k.clock().measure(|| k.stat(P, path)).1;
        assert_eq!(cost("/d/."), cost("/d"));
        assert_eq!(cost("/f/.."), cost("/f"));
    }

    /// An ordinary name after a file is refused before it is looked up:
    /// `stat("/f/x")` charges the walk to `/f` and nothing more.
    #[test]
    fn a_name_after_a_file_is_enotdir_before_any_lookup() {
        let k = kernel();
        let fd = k
            .open(P, "/f", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(P, fd).unwrap();
        k.symlink(P, "f", "/lf").unwrap();

        let stat = |path: &str| k.clock().measure(|| k.stat(P, path));
        let (got, ns) = stat("/f/x");
        assert_eq!(got, Err(Errno::ENOTDIR));
        assert_eq!(ns.as_nanos(), COST.syscall_ns + COST.dcache_hit_ns);
        assert_eq!(ns, stat("/f/.").1);
        assert_eq!(stat("/f/x/y/z").1, ns);
        // Through a symlink: `lf`, then its target `f`, then `x` refused.
        let (got, ns) = stat("/lf/x");
        assert_eq!(got, Err(Errno::ENOTDIR));
        assert_eq!(ns.as_nanos(), COST.syscall_ns + 2 * COST.dcache_hit_ns);
    }

    /// A walk beneath an `O_PATH` descriptor starts with the
    /// descriptor's type: Linux's `path_init` refuses a non-directory
    /// `dirfd`, so even `.` and `..` are `ENOTDIR`, at no extra charge.
    #[test]
    fn dot_and_dotdot_after_an_o_path_file_are_enotdir() {
        let k = kernel();
        let fd = k
            .open(P, "/f", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(P, fd).unwrap();
        k.mkdir(P, "/d", Mode::RWXR_XR_X).unwrap();
        let anchor = OpenFlags::RDONLY.with(OpenFlags::PATH);
        let f = k.open(P, "/f", anchor, Mode::RW_R__R__).unwrap();
        let d = k.open(P, "/d", anchor, Mode::RW_R__R__).unwrap();
        let none = AtFlags::NONE;

        for path in [".", "..", "./", "./.."] {
            let (got, ns) = k.clock().measure(|| k.fstatat(P, f, path, none));
            assert_eq!(got, Err(Errno::ENOTDIR), "{path:?}");
            assert_eq!(ns.as_nanos(), COST.syscall_ns, "{path:?} walks nothing");
        }
        assert_eq!(k.mkdirat(P, f, ".", Mode::RWXR_XR_X), Err(Errno::ENOTDIR));
        // The file itself, and a `.` beneath a directory anchor.
        assert_eq!(k.fstatat(P, f, "", AtFlags::EMPTY_PATH), k.fstat(P, f));
        assert_eq!(k.fstatat(P, d, ".", none), k.fstat(P, d));
        // A directory descriptor opened for reading anchors as before.
        let dir = k
            .open(
                P,
                "/d",
                OpenFlags::RDONLY.with(OpenFlags::DIRECTORY),
                Mode::RW_R__R__,
            )
            .unwrap();
        assert!(k.fstatat(P, dir, ".", none).unwrap().is_dir());
    }

    /// A last `.` or `..` is never an entry to make or remove; each call
    /// answers as Linux does once the parent walk succeeded (errnos
    /// confirmed on a Linux host under `/dev/shm`).
    #[test]
    fn last_dot_and_dotdot_answer_per_call() {
        let k = kernel();
        k.mkdir(P, "/a", Mode::RWXR_XR_X).unwrap();
        let fd = k
            .open(P, "/f", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(P, fd).unwrap();
        for last in [".", ".."] {
            let p = format!("/a/{last}");
            assert_eq!(k.mkdir(P, &p, Mode::RWXR_XR_X), Err(Errno::EEXIST), "{p}");
            assert_eq!(
                k.mkdir(P, &format!("{p}/"), Mode::RWXR_XR_X),
                Err(Errno::EEXIST)
            );
            assert_eq!(
                k.mknod(P, &p, FileType::Fifo, Mode::RW_R__R__, 0),
                Err(Errno::EEXIST)
            );
            assert_eq!(k.symlink(P, "x", &p), Err(Errno::EEXIST));
            assert_eq!(k.link(P, "/f", &p), Err(Errno::EEXIST));
            assert_eq!(k.unlink(P, &p), Err(Errno::EISDIR));
            assert_eq!(k.unlink(P, &format!("{p}/")), Err(Errno::EISDIR));
            // The parent walk comes first.
            assert_eq!(
                k.mkdir(P, &format!("/missing/{last}"), Mode::RWXR_XR_X),
                Err(Errno::ENOENT)
            );
            assert_eq!(k.unlink(P, &format!("/f/{last}")), Err(Errno::ENOTDIR));
        }
        assert_eq!(k.rmdir(P, "/a/."), Err(Errno::EINVAL));
        assert_eq!(k.rmdir(P, "/a/.."), Err(Errno::ENOTEMPTY));
        k.chdir(P, "/a").unwrap();
        assert_eq!(k.mkdir(P, ".", Mode::RWXR_XR_X), Err(Errno::EEXIST));
        assert_eq!(k.unlink(P, "."), Err(Errno::EISDIR));
        assert_eq!(k.rmdir(P, ".."), Err(Errno::ENOTEMPTY));
        // Nothing was made or removed.
        let names = |dir: &str| -> Vec<String> {
            k.readdir(P, dir)
                .unwrap()
                .into_iter()
                .map(|d| d.name)
                .collect()
        };
        assert_eq!(names("/a"), [".", ".."]);
        assert_eq!(names("/"), [".", "..", "a", "f"]);
    }

    /// A trailing slash names a directory, with the errors Linux gives
    /// for a path that names anything else.
    #[test]
    fn trailing_slash_names_a_directory() {
        let k = kernel();
        let fd = k
            .open(P, "/f", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(P, fd).unwrap();
        k.mkdir(P, "/d/", Mode::RWXR_XR_X).unwrap();
        k.symlink(P, "d", "/ld").unwrap();
        k.symlink(P, "f", "/lf").unwrap();
        k.symlink(P, "f/", "/ls").unwrap();

        // Resolution: the last component is followed and must be a
        // directory.
        assert_eq!(k.stat(P, "/f/"), Err(Errno::ENOTDIR));
        assert_eq!(k.stat(P, "/lf/"), Err(Errno::ENOTDIR));
        assert_eq!(k.stat(P, "/ls"), Err(Errno::ENOTDIR), "slash in a target");
        assert!(k.lstat(P, "/ls").unwrap().is_symlink());
        assert!(
            k.lstat(P, "/ld/").unwrap().is_dir(),
            "followed despite lstat"
        );
        assert!(k.stat(P, "/d/").unwrap().is_dir());
        let ro = OpenFlags::RDONLY;
        assert_eq!(k.open(P, "/f/", ro, Mode::RW_R__R__), Err(Errno::ENOTDIR));

        // O_CREAT never makes a directory.
        let creat = OpenFlags::create();
        assert_eq!(k.open(P, "/h/", creat, Mode::RW_R__R__), Err(Errno::EISDIR));
        assert_eq!(k.stat(P, "/h"), Err(Errno::ENOENT), "nothing created");
        assert_eq!(k.open(P, "/f/", creat, Mode::RW_R__R__), Err(Errno::EISDIR));
        assert_eq!(k.open(P, "/d/", creat, Mode::RW_R__R__), Err(Errno::EISDIR));
        assert_eq!(
            k.open(P, "/x/h/", creat, Mode::RW_R__R__),
            Err(Errno::ENOENT),
            "the parent walk fails first"
        );

        // unlink removes no directory, and the slash asks for one.
        assert_eq!(k.unlink(P, "/f/"), Err(Errno::ENOTDIR));
        assert_eq!(k.unlink(P, "/lf/"), Err(Errno::ENOTDIR));
        assert_eq!(k.unlink(P, "/d/"), Err(Errno::EISDIR));
        assert_eq!(k.unlink(P, "/h/"), Err(Errno::ENOENT));
        assert!(k.stat(P, "/f").unwrap().is_file(), "f survives");

        // Creates other than mkdir: EEXIST if the name exists, else ENOENT.
        let fifo = |p| k.mknod(P, p, FileType::Fifo, Mode::RW_R__R__, 0);
        assert_eq!(fifo("/f/"), Err(Errno::EEXIST));
        assert_eq!(fifo("/h/"), Err(Errno::ENOENT));
        assert_eq!(k.symlink(P, "f", "/h/"), Err(Errno::ENOENT));
        assert_eq!(k.link(P, "/f", "/h/"), Err(Errno::ENOENT));
        assert_eq!(k.link(P, "/f", "/lf/"), Err(Errno::EEXIST));
        assert_eq!(k.link(P, "/f/", "/h"), Err(Errno::ENOTDIR));
        assert_eq!(k.stat(P, "/h"), Err(Errno::ENOENT), "nothing created");

        // rename: a non-directory source refuses a slash on either side.
        let none = RenameFlags::NONE;
        assert_eq!(k.rename(P, "/f/", "/g", none), Err(Errno::ENOTDIR));
        assert_eq!(k.rename(P, "/f", "/g/", none), Err(Errno::ENOTDIR));
        assert_eq!(k.rename(P, "/h/", "/g", none), Err(Errno::ENOENT));
        k.rename(P, "/d/", "/e/", none).unwrap();
        assert!(k.stat(P, "/e").unwrap().is_dir());

        // mkdir and rmdir take the slash as before.
        k.rmdir(P, "/e/").unwrap();
        assert_eq!(k.stat(P, "/e"), Err(Errno::ENOENT));

        // An exchange holds each side's slash to its own node.
        k.mkdir(P, "/d", Mode::RWXR_XR_X).unwrap();
        let xchg = RenameFlags::EXCHANGE;
        assert_eq!(k.rename(P, "/d", "/f/", xchg), Err(Errno::ENOTDIR));
        k.rename(P, "/f", "/d/", xchg).unwrap();
        assert!(k.stat(P, "/f/").unwrap().is_dir());
    }

    #[test]
    fn symlink_resolution_and_loops() {
        let k = kernel();
        k.mkdir(P, "/dir", Mode::RWXR_XR_X).unwrap();
        let fd = k
            .open(P, "/dir/real", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.write_fd(P, fd, b"x").unwrap();
        k.close(P, fd).unwrap();
        k.symlink(P, "/dir/real", "/link").unwrap();
        assert_eq!(k.stat(P, "/link").unwrap().size, 1);
        assert!(k.lstat(P, "/link").unwrap().is_symlink());
        // Relative symlink.
        k.symlink(P, "real", "/dir/rel").unwrap();
        assert_eq!(k.stat(P, "/dir/rel").unwrap().size, 1);
        // Loop.
        k.symlink(P, "/loop2", "/loop1").unwrap();
        k.symlink(P, "/loop1", "/loop2").unwrap();
        assert_eq!(k.stat(P, "/loop1"), Err(Errno::ELOOP));
    }

    #[test]
    fn nested_symlink_targets_walk_before_the_rest_of_the_path() {
        let k = kernel();
        k.mkdir(P, "/d", Mode::RWXR_XR_X).unwrap();
        k.mkdir(P, "/d/e", Mode::RWXR_XR_X).unwrap();
        let fd = k
            .open(P, "/d/e/f", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.write_fd(P, fd, b"abc").unwrap();
        k.close(P, fd).unwrap();
        // s1 -> s2/e (relative, through another link), s2 -> //d/ (absolute,
        // doubled and trailing slashes), fl -> s1/f (a final link).
        k.symlink(P, "s2/e", "/s1").unwrap();
        k.symlink(P, "//d/", "/s2").unwrap();
        k.symlink(P, "s1//f", "/fl").unwrap();
        assert_eq!(k.stat(P, "/s1/f").unwrap().size, 3);
        assert_eq!(k.stat(P, "//s1/./f").unwrap().size, 3);
        assert_eq!(k.stat(P, "/s1/../e/f").unwrap().size, 3);
        assert_eq!(k.stat(P, "/fl").unwrap().size, 3);
        // lstat stops at the last component only: links on the way are
        // followed, the final one is not.
        assert!(k.lstat(P, "/fl").unwrap().is_symlink());
        assert!(k.lstat(P, "/s1").unwrap().is_symlink());
        assert!(k.lstat(P, "/s1/").unwrap().is_dir());
        assert!(!k.lstat(P, "/s1/f").unwrap().is_symlink());
        // A name after a file is ENOTDIR, also when a link spliced it in.
        assert_eq!(k.stat(P, "/fl/x"), Err(Errno::ENOTDIR));
        assert_eq!(k.stat(P, "/fl/"), Err(Errno::ENOTDIR));
    }

    #[test]
    fn chdir_relative_resolution() {
        let k = kernel();
        k.mkdir(P, "/work", Mode::RWXR_XR_X).unwrap();
        k.mkdir(P, "/work/sub", Mode::RWXR_XR_X).unwrap();
        k.chdir(P, "/work").unwrap();
        let fd = k
            .open(P, "sub/file", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(P, fd).unwrap();
        assert!(k.stat(P, "/work/sub/file").unwrap().is_file());
        k.chdir(P, "sub").unwrap();
        assert!(k.stat(P, "file").unwrap().is_file());
        assert!(k.stat(P, "../sub/file").unwrap().is_file());
    }

    fn mkdirs(k: &Kernel, dirs: &[&str]) {
        for dir in dirs {
            k.mkdir(P, dir, Mode::RWXR_XR_X).unwrap();
        }
    }

    fn touch(k: &Kernel, path: &str) {
        let fd = k
            .open(P, path, OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(P, fd).unwrap();
    }

    #[test]
    fn cwd_survives_a_rename_of_its_ancestor() {
        let k = kernel();
        mkdirs(&k, &["/a", "/a/b"]);
        touch(&k, "/a/b/f");
        k.chdir(P, "/a/b").unwrap();
        k.rename(P, "/a", "/c", RenameFlags::NONE).unwrap();
        assert!(k.stat(P, "f").unwrap().is_file());
        assert_eq!(k.getcwd(P).unwrap(), "/c/b");
    }

    #[test]
    fn cwd_stays_with_its_directory_not_its_old_name() {
        let k = kernel();
        mkdirs(&k, &["/a", "/a/b"]);
        k.chdir(P, "/a/b").unwrap();
        k.rename(P, "/a/b", "/a/c", RenameFlags::NONE).unwrap();
        k.mkdir(P, "/a/b", Mode::RWXR_XR_X).unwrap();
        touch(&k, "h");
        assert!(k.stat(P, "/a/c/h").unwrap().is_file());
        assert_eq!(k.stat(P, "/a/b/h"), Err(Errno::ENOENT));
    }

    #[test]
    fn dotdot_after_a_symlink_climbs_from_its_target() {
        let k = kernel();
        mkdirs(&k, &["/a", "/x", "/x/y"]);
        k.symlink(P, "/x/y", "/a/link").unwrap();
        k.chdir(P, "/a/link/..").unwrap();
        touch(&k, "g");
        assert!(k.stat(P, "/x/g").unwrap().is_file());
        assert_eq!(k.stat(P, "/a/g"), Err(Errno::ENOENT));
        // `..` from the saved stack climbs no higher than the root.
        let root = k.stat(P, "/").unwrap().ino;
        assert_eq!(k.stat(P, "../../../..").unwrap().ino, root);
    }

    #[test]
    fn getcwd_names_the_directory_reached() {
        let k = kernel();
        mkdirs(&k, &["/a", "/x", "/x/y"]);
        k.symlink(P, "/x/y", "/a/link").unwrap();
        assert_eq!(k.getcwd(P).unwrap(), "/");
        k.chdir(P, "/a/link").unwrap();
        assert_eq!(k.getcwd(P).unwrap(), "/x/y");
        k.chdir(P, "..").unwrap();
        assert_eq!(k.getcwd(P).unwrap(), "/x");
    }

    #[test]
    fn a_removed_cwd_takes_no_new_entries() {
        let k = kernel();
        mkdirs(&k, &["/d"]);
        k.chdir(P, "/d").unwrap();
        k.rmdir(P, "/d").unwrap();
        // A new directory at the old name is not the cwd.
        k.mkdir(P, "/d", Mode::RWXR_XR_X).unwrap();
        assert_eq!(
            k.open(P, "h", OpenFlags::create(), Mode::RW_R__R__),
            Err(Errno::ENOENT)
        );
        assert_eq!(k.mkdir(P, "e", Mode::RWXR_XR_X), Err(Errno::ENOENT));
        assert_eq!(k.stat(P, "/d/h"), Err(Errno::ENOENT));
        assert_eq!(k.getcwd(P), Err(Errno::ENOENT));
    }

    #[test]
    fn a_mount_over_the_cwd_is_crossed_only_by_a_walk() {
        let k = kernel();
        mkdirs(&k, &["/d"]);
        touch(&k, "/d/under");
        k.chdir(P, "/d").unwrap();
        let sub = memfs(DevId(2), k.clock().clone());
        k.mount_fs(P, "/d", sub, MountFlags::default()).unwrap();
        assert_eq!(k.stat(P, ".").unwrap().dev, DevId(1));
        assert!(k.stat(P, "under").unwrap().is_file());
        assert_eq!(k.stat(P, "/d/under"), Err(Errno::ENOENT));
        assert_eq!(k.getcwd(P).unwrap(), "/d");
        // A walk that passes the mountpoint crosses it.
        k.chdir(P, "../d").unwrap();
        assert_eq!(k.stat(P, ".").unwrap().dev, DevId(2));
        assert_eq!(k.getcwd(P).unwrap(), "/d");
    }

    #[test]
    fn mount_crossing_and_umount() {
        let k = kernel();
        k.mkdir(P, "/mnt", Mode::RWXR_XR_X).unwrap();
        let sub = memfs(DevId(2), k.clock().clone());
        k.mount_fs(P, "/mnt", sub, MountFlags::default()).unwrap();
        let fd = k
            .open(P, "/mnt/inside", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(P, fd).unwrap();
        let st = k.stat(P, "/mnt/inside").unwrap();
        assert_eq!(st.dev, DevId(2), "file lives on the mounted fs");
        // `..` out of the mount lands back on the root fs.
        assert_eq!(k.stat(P, "/mnt/..").unwrap().dev, DevId(1));
        k.umount(P, "/mnt").unwrap();
        assert_eq!(k.stat(P, "/mnt/inside"), Err(Errno::ENOENT));
    }

    #[test]
    fn bind_mount_subtree() {
        let k = kernel();
        k.mkdir(P, "/data", Mode::RWXR_XR_X).unwrap();
        k.mkdir(P, "/data/sub", Mode::RWXR_XR_X).unwrap();
        let fd = k
            .open(P, "/data/sub/f", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(P, fd).unwrap();
        k.mkdir(P, "/view", Mode::RWXR_XR_X).unwrap();
        k.bind_mount(P, "/data/sub", "/view", MountFlags::default())
            .unwrap();
        assert!(k.stat(P, "/view/f").unwrap().is_file());
        // Readonly bind.
        k.mkdir(P, "/roview", Mode::RWXR_XR_X).unwrap();
        k.bind_mount(
            P,
            "/data/sub",
            "/roview",
            MountFlags {
                readonly: true,
                ..MountFlags::default()
            },
        )
        .unwrap();
        assert_eq!(
            k.open(P, "/roview/new", OpenFlags::create(), Mode::RW_R__R__),
            Err(Errno::EROFS)
        );
    }

    /// The page cache is shared by every mount of a file, so a truncate
    /// the filesystem never sees must not touch its cached pages.
    #[test]
    fn refused_truncate_keeps_the_cached_bytes() {
        let k = kernel();
        k.mkdir(P, "/data", Mode::RWXR_XR_X).unwrap();
        let fd = k
            .open(P, "/data/f", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.write_fd(P, fd, &[7u8; 8192]).unwrap();
        k.close(P, fd).unwrap();
        k.mkdir(P, "/ro", Mode::RWXR_XR_X).unwrap();
        let ro = MountFlags {
            readonly: true,
            ..MountFlags::default()
        };
        k.bind_mount(P, "/data", "/ro", ro).unwrap();
        assert_eq!(k.truncate(P, "/ro/f", 100), Err(Errno::EROFS));
        let fd = k
            .open(P, "/data/f", OpenFlags::RDONLY, Mode::RW_R__R__)
            .unwrap();
        let mut buf = [0u8; 8192];
        assert_eq!(k.read_fd(P, fd, &mut buf).unwrap(), 8192);
        assert_eq!(buf, [7u8; 8192]);
        k.close(P, fd).unwrap();
        k.sync().unwrap();
        assert_eq!(k.stat(P, "/data/f").unwrap().size, 8192);
    }

    #[test]
    fn chroot_jails_resolution() {
        let k = kernel();
        k.mkdir(P, "/jail", Mode::RWXR_XR_X).unwrap();
        k.mkdir(P, "/jail/etc", Mode::RWXR_XR_X).unwrap();
        let fd = k
            .open(P, "/jail/etc/passwd", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(P, fd).unwrap();
        let fd = k
            .open(P, "/secret", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(P, fd).unwrap();
        let child = k.fork(P).unwrap();
        k.chroot(child, "/jail").unwrap();
        assert!(k.stat(child, "/etc/passwd").unwrap().is_file());
        assert_eq!(k.stat(child, "/secret"), Err(Errno::ENOENT));
        // Escaping with `..` is futile.
        assert_eq!(k.stat(child, "/../../secret"), Err(Errno::ENOENT));
        // The parent is unaffected.
        assert!(k.stat(P, "/secret").unwrap().is_file());
    }

    #[test]
    fn permissions_enforced_for_unprivileged() {
        let k = kernel();
        let fd = k
            .open(P, "/private", OpenFlags::create(), Mode::RW_______)
            .unwrap();
        k.close(P, fd).unwrap();
        let user = k.fork(P).unwrap();
        let mut creds = crate::cred::Credentials::host_root();
        creds.uid = Uid(1000);
        creds.gid = Gid(1000);
        creds.caps = cntr_types::CapSet::EMPTY;
        creds.bounding = cntr_types::CapSet::EMPTY;
        k.set_creds(user, creds).unwrap();
        assert_eq!(
            k.open(user, "/private", OpenFlags::RDONLY, Mode::RW_R__R__),
            Err(Errno::EACCES)
        );
        assert_eq!(k.access(user, "/private", Access::R), Err(Errno::EACCES));
        assert!(k.access(P, "/private", Access::R).is_ok());
    }

    #[test]
    fn readdir_includes_dot_entries() {
        let k = kernel();
        k.mkdir(P, "/d", Mode::RWXR_XR_X).unwrap();
        let fd = k
            .open(P, "/d/x", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(P, fd).unwrap();
        let names: Vec<String> = k
            .readdir(P, "/d")
            .unwrap()
            .into_iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(names, vec![".", "..", "x"]);
    }

    #[test]
    fn lseek_whence() {
        let k = kernel();
        let fd = k
            .open(P, "/f", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.write_fd(P, fd, b"0123456789").unwrap();
        assert_eq!(k.lseek(P, fd, 2, Whence::Set).unwrap(), 2);
        assert_eq!(k.lseek(P, fd, 3, Whence::Cur).unwrap(), 5);
        assert_eq!(k.lseek(P, fd, -1, Whence::End).unwrap(), 9);
        assert_eq!(k.lseek(P, fd, -100, Whence::Cur), Err(Errno::EINVAL));
    }

    #[test]
    fn dev_nodes() {
        let k = kernel();
        k.mkdir(P, "/dev", Mode::RWXR_XR_X).unwrap();
        k.mknod(
            P,
            "/dev/null",
            FileType::CharDevice,
            Mode::new(0o666),
            0x0103,
        )
        .unwrap();
        k.mknod(
            P,
            "/dev/zero",
            FileType::CharDevice,
            Mode::new(0o666),
            0x0105,
        )
        .unwrap();
        let null = k
            .open(P, "/dev/null", OpenFlags::RDWR, Mode::RW_R__R__)
            .unwrap();
        assert_eq!(k.write_fd(P, null, b"discard").unwrap(), 7);
        let mut buf = [1u8; 4];
        assert_eq!(k.read_fd(P, null, &mut buf).unwrap(), 0);
        let zero = k
            .open(P, "/dev/zero", OpenFlags::RDONLY, Mode::RW_R__R__)
            .unwrap();
        assert_eq!(k.read_fd(P, zero, &mut buf).unwrap(), 4);
        assert_eq!(buf, [0u8; 4]);
    }

    #[test]
    fn unix_socket_bind_connect() {
        let k = kernel();
        let listener_fd = k.bind_listener(P, "/app.sock").unwrap();
        assert_eq!(k.stat(P, "/app.sock").unwrap().ftype, FileType::Socket);
        let client_fd = k.connect(P, "/app.sock").unwrap();
        let server_fd = k.accept(P, listener_fd).unwrap();
        k.write_fd(P, client_fd, b"query").unwrap();
        let mut buf = [0u8; 8];
        let n = k.read_fd(P, server_fd, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"query");
        // Unlinking the socket file deregisters the listener.
        k.unlink(P, "/app.sock").unwrap();
        assert_eq!(k.connect(P, "/app.sock"), Err(Errno::ENOENT));
    }

    /// `bind` to a name that exists is `EADDRINUSE`, as Linux's
    /// `unix_bind` answers: a live socket, a file, a trailing slash on an
    /// existing name, and a last `.` or `..` (errnos confirmed on a Linux
    /// host under `/dev/shm`).
    #[test]
    fn bind_to_an_existing_name_is_eaddrinuse() {
        let k = kernel();
        k.mkdir(P, "/a", Mode::RWXR_XR_X).unwrap();
        let fd = k
            .open(P, "/f", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(P, fd).unwrap();
        k.bind_listener(P, "/app.sock").unwrap();
        for path in ["/app.sock", "/f", "/a", "/a/", "/a/.", "/a/..", "/."] {
            assert_eq!(k.bind_listener(P, path), Err(Errno::EADDRINUSE), "{path}");
        }
        // Other failures keep their errno.
        assert_eq!(k.bind_listener(P, "/missing/s"), Err(Errno::ENOENT));
        assert_eq!(k.bind_listener(P, "/f/s"), Err(Errno::ENOTDIR));
        assert_eq!(k.bind_listener(P, "/new/"), Err(Errno::ENOENT));
        assert_eq!(k.socket_node_count(), 1);
    }

    /// `rename` of a last `.` or `..`, on either side, is `EBUSY`, as
    /// Linux's `do_renameat2` answers (confirmed on a Linux host under
    /// `/dev/shm`); nothing moves.
    #[test]
    fn rename_of_a_last_dot_or_dotdot_is_ebusy() {
        let k = kernel();
        k.mkdir(P, "/a", Mode::RWXR_XR_X).unwrap();
        let fd = k
            .open(P, "/f", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(P, fd).unwrap();
        for last in [".", ".."] {
            let p = format!("/a/{last}");
            assert_eq!(k.rename(P, &p, "/z", RenameFlags::NONE), Err(Errno::EBUSY));
            assert_eq!(k.rename(P, "/f", &p, RenameFlags::NONE), Err(Errno::EBUSY));
            // The parent walk comes first.
            assert_eq!(
                k.rename(P, &format!("/f/{last}"), "/z", RenameFlags::NONE),
                Err(Errno::ENOTDIR)
            );
        }
        assert!(k.stat(P, "/f").unwrap().is_file());
        assert!(k.stat(P, "/a").unwrap().is_dir());
        assert_eq!(k.stat(P, "/z"), Err(Errno::ENOENT));
    }

    /// `do_renameat2` walks both parents before it looks at a last `.` or
    /// `..`: a missing destination parent is `ENOENT` even for a source
    /// dot (confirmed on a Linux 6.18 host).
    #[test]
    fn rename_walks_both_parents_before_a_source_dot() {
        let k = kernel();
        k.mkdir(P, "/a", Mode::RWXR_XR_X).unwrap();
        for last in [".", ".."] {
            let from = format!("/a/{last}");
            assert_eq!(
                k.rename(P, &from, "/missing/z", RenameFlags::NONE),
                Err(Errno::ENOENT),
                "{from}"
            );
        }
    }

    /// A destination `.` or `..` under `RENAME_NOREPLACE` is `EEXIST`: the
    /// name exists. A source dot stays `EBUSY` (both confirmed on a Linux
    /// 6.18 host).
    #[test]
    fn renameat2_noreplace_onto_a_dot_is_eexist() {
        let k = kernel();
        k.mkdir(P, "/a", Mode::RWXR_XR_X).unwrap();
        let fd = k
            .open(P, "/f", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(P, fd).unwrap();
        for last in [".", ".."] {
            let to = format!("/a/{last}");
            assert_eq!(
                k.rename(P, "/f", &to, RenameFlags::NOREPLACE),
                Err(Errno::EEXIST),
                "{to}"
            );
        }
        assert_eq!(
            k.rename(P, "/a/.", "/a/.", RenameFlags::NOREPLACE),
            Err(Errno::EBUSY)
        );
        assert!(k.stat(P, "/f").unwrap().is_file());
    }

    #[test]
    fn listener_unbinds_on_last_close() {
        let k = kernel();
        let fd = k.bind_listener(P, "/srv.sock").unwrap();
        let dup = k.dup(P, fd).unwrap();
        // One descriptor closed: the dup still holds the listener open.
        k.close(P, fd).unwrap();
        let c = k.connect(P, "/srv.sock").unwrap();
        k.close(P, c).unwrap();
        // Last descriptor closed: unbound — the socket *file* remains (as
        // in Linux) but connecting to it is refused.
        k.close(P, dup).unwrap();
        assert_eq!(k.stat(P, "/srv.sock").unwrap().ftype, FileType::Socket);
        assert_eq!(k.connect(P, "/srv.sock"), Err(Errno::ECONNREFUSED));
        assert_eq!(k.socket_node_count(), 0);
    }

    #[test]
    fn listener_unbinds_when_holder_exits() {
        let k = kernel();
        let server = k.fork(P).unwrap();
        let _fd = k.bind_listener(server, "/app.sock").unwrap();
        assert!(k.connect(P, "/app.sock").is_ok());
        // The server exits without closing: its fd table is torn down and
        // the listener unbinds with it.
        k.exit(server).unwrap();
        k.reap(server).unwrap();
        assert_eq!(k.connect(P, "/app.sock"), Err(Errno::ECONNREFUSED));
        assert_eq!(k.socket_node_count(), 0);
    }

    #[test]
    fn listener_dies_with_its_mount_namespace() {
        let k = kernel();
        let container = k.fork(P).unwrap();
        k.unshare(container, &[crate::ns::NamespaceKind::Mount])
            .unwrap();
        let fd = k.bind_listener(container, "/db.sock").unwrap();
        // Leak the fd into init's table (as a proxy might): even though a
        // descriptor survives, the binding namespace's death unbinds the
        // listener — a dead container must not keep accepting connections.
        k.send_fd(container, fd, P).unwrap();
        assert!(k.connect(container, "/db.sock").is_ok());
        k.exit(container).unwrap();
        k.reap(container).unwrap();
        assert_eq!(k.socket_node_count(), 0);
        // The namespace clone shared the root filesystem, so init still
        // sees the socket file — but nobody is listening behind it.
        assert_eq!(k.connect(P, "/db.sock"), Err(Errno::ECONNREFUSED));
    }

    #[test]
    fn rename_and_link_cross_device_rejected() {
        let k = kernel();
        k.mkdir(P, "/mnt", Mode::RWXR_XR_X).unwrap();
        let sub = memfs(DevId(2), k.clock().clone());
        k.mount_fs(P, "/mnt", sub, MountFlags::default()).unwrap();
        let fd = k
            .open(P, "/f", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(P, fd).unwrap();
        assert_eq!(
            k.rename(P, "/f", "/mnt/f", RenameFlags::NONE),
            Err(Errno::EXDEV)
        );
        assert_eq!(k.link(P, "/f", "/mnt/f"), Err(Errno::EXDEV));
    }

    /// Linux's `do_renameat2` and `do_linkat` refuse two different
    /// mounts, not only two different filesystems: a bind mount of the
    /// same directory is still another mount.
    #[test]
    fn rename_and_link_across_a_bind_mount_rejected() {
        let k = kernel();
        k.mkdir(P, "/a", Mode::RWXR_XR_X).unwrap();
        k.mkdir(P, "/b", Mode::RWXR_XR_X).unwrap();
        let fd = k
            .open(P, "/a/f", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(P, fd).unwrap();
        k.bind_mount(P, "/a", "/b", MountFlags::default()).unwrap();
        assert_eq!(
            k.rename(P, "/a/f", "/b/g", RenameFlags::NONE),
            Err(Errno::EXDEV)
        );
        assert_eq!(k.link(P, "/a/f", "/b/h"), Err(Errno::EXDEV));
        assert!(k.stat(P, "/a/f").unwrap().is_file());
        assert_eq!(k.stat(P, "/a/g"), Err(Errno::ENOENT));
        assert_eq!(k.stat(P, "/a/h"), Err(Errno::ENOENT));
    }

    #[test]
    fn rlimit_fsize_enforced_on_native_fs() {
        let k = kernel();
        let mut limits = cntr_types::RlimitSet::default();
        limits
            .set(
                cntr_types::RlimitKind::Fsize,
                cntr_types::Rlimit {
                    soft: 100,
                    hard: 100,
                },
            )
            .unwrap();
        k.set_rlimits(P, limits).unwrap();
        let fd = k
            .open(P, "/cap", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        assert_eq!(k.write_fd(P, fd, &[0u8; 100]).unwrap(), 100);
        assert_eq!(k.write_fd(P, fd, &[0u8; 1]), Err(Errno::EFBIG));
    }

    #[test]
    fn exec_read_requires_x_bit() {
        let k = kernel();
        let fd = k
            .open(P, "/bin-tool", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.write_fd(P, fd, b"#!binary").unwrap();
        k.close(P, fd).unwrap();
        assert_eq!(k.exec_read(P, "/bin-tool"), Err(Errno::EACCES));
        k.chmod(P, "/bin-tool", Mode::RWXR_XR_X).unwrap();
        assert_eq!(k.exec_read(P, "/bin-tool").unwrap(), b"#!binary");
    }

    #[test]
    fn o_direct_accepted_by_tmpfs() {
        // tmpfs honours O_DIRECT; CntrFS refuses it (`FuseClientFs::open`,
        // xfstests #391).
        let k = kernel();
        let fd = k
            .open(
                P,
                "/d",
                OpenFlags::create().with(OpenFlags::DIRECT),
                Mode::RW_R__R__,
            )
            .unwrap();
        k.write_fd(P, fd, b"direct").unwrap();
        k.close(P, fd).unwrap();
        assert_eq!(k.stat(P, "/d").unwrap().size, 6);
    }

    #[test]
    fn o_direct_io_is_coherent_with_buffered_io() {
        let k = kernel();
        // Both descriptors open first, so open-time invalidation cannot
        // hide a stale page.
        let buffered = k
            .open(
                P,
                "/co",
                OpenFlags::RDWR.with(OpenFlags::CREAT),
                Mode::RW_R__R__,
            )
            .unwrap();
        let direct = k
            .open(
                P,
                "/co",
                OpenFlags::RDWR.with(OpenFlags::DIRECT),
                Mode::RW_R__R__,
            )
            .unwrap();
        // A direct read sees a buffered write still dirty in the cache.
        k.pwrite(P, buffered, 0, b"buffered").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(k.pread(P, direct, 0, &mut buf).unwrap(), 8);
        assert_eq!(&buf, b"buffered");
        // A buffered read after a direct write sees the direct bytes, not
        // the page cached before it.
        k.pwrite(P, direct, 0, b"DIRECT").unwrap();
        assert_eq!(k.pread(P, buffered, 0, &mut buf).unwrap(), 8);
        assert_eq!(&buf, b"DIRECTed");
        // Write-back after the direct write cannot resurrect older bytes.
        k.fsync(P, buffered, false).unwrap();
        assert_eq!(k.pread(P, direct, 0, &mut buf).unwrap(), 8);
        assert_eq!(&buf, b"DIRECTed");
    }

    #[test]
    fn stat_sees_writeback_pending_size() {
        let k = kernel();
        let fd = k
            .open(P, "/wb", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.write_fd(P, fd, &[1u8; 5000]).unwrap();
        // Dirty data not yet flushed, but stat must show 5000.
        assert_eq!(k.stat(P, "/wb").unwrap().size, 5000);
        k.fsync(P, fd, false).unwrap();
        assert_eq!(k.stat(P, "/wb").unwrap().size, 5000);
    }

    #[test]
    fn shared_propagation_replicates_mounts() {
        let k = kernel();
        k.mkdir(P, "/shared", Mode::RWXR_XR_X).unwrap();
        k.make_shared(P, "/", 1).unwrap();
        let child = k.fork(P).unwrap();
        k.unshare(child, &[crate::ns::NamespaceKind::Mount])
            .unwrap();
        // Keep the clone's root shared too (clone preserved propagation).
        let sub = memfs(DevId(7), k.clock().clone());
        k.mount_fs(P, "/shared", sub, MountFlags::default())
            .unwrap();
        // The mount propagated into the child's namespace.
        let fd = k
            .open(child, "/shared/x", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(child, fd).unwrap();
        assert_eq!(k.stat(child, "/shared/x").unwrap().dev, DevId(7));
        assert_eq!(k.stat(P, "/shared/x").unwrap().dev, DevId(7));
    }

    #[test]
    fn private_namespace_blocks_propagation() {
        let k = kernel();
        k.mkdir(P, "/vol", Mode::RWXR_XR_X).unwrap();
        let child = k.fork(P).unwrap();
        k.unshare(child, &[crate::ns::NamespaceKind::Mount])
            .unwrap();
        k.make_rprivate(child).unwrap();
        let sub = memfs(DevId(8), k.clock().clone());
        k.mount_fs(P, "/vol", sub, MountFlags::default()).unwrap();
        // Host sees it; the private child namespace does not.
        assert_eq!(k.stat(P, "/vol").unwrap().dev, DevId(8));
        assert_eq!(k.stat(child, "/vol").unwrap().dev, DevId(1));
    }
}
