//! The VFS: path resolution across mounts, and every path/fd system call.
//!
//! Resolution follows Linux: walk component by component from the process
//! root (absolute paths) or cwd (relative), cross mountpoints downward into
//! the topmost stacked mount, handle `..` physically via the walk stack
//! (never escaping a `chroot` jail), and chase symlinks up to a depth of 40.
//! Reads and writes on regular files go through the shared page cache
//! according to the mount's [`CacheMode`].

use crate::kernel::Kernel;
use crate::mount::{CacheMode, Mount, MountFlags, MountId, MountNs, Propagation};
use crate::pagecache::FileRef;
use crate::process::{FdEntry, FileKind, OpenFile, VfsLoc};
use crate::socket::{SocketEnd, SocketListener};
use cntr_fs::{Filesystem, FsContext, XattrFlags};
use cntr_types::{
    AccessMode, Capability, DevId, Dirent, Errno, FileType, Gid, Ino, Mode, OpenFlags, Pid,
    RenameFlags, SetAttr, Stat, SysResult, Uid,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// Maximum symlink traversals in one resolution (Linux: 40).
const MAX_SYMLINKS: u32 = 40;

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
    ns: MountNs,
    root: VfsLoc,
    cur: VfsLoc,
    stack: Vec<VfsLoc>,
    symlinks: u32,
}

impl Kernel {
    fn snapshot_ns(&self, pid: Pid) -> SysResult<(MountNs, VfsLoc, VfsLoc)> {
        // Processes-before-mounts: the shard lock is released before the
        // mount table is read; the walk then runs on a private snapshot.
        let (ns_id, root, cwd) = self.with_proc(pid, |p| Ok((p.ns.mount, p.root, p.cwd)))?;
        let ns = self.inner.mounts.snapshot(ns_id)?;
        Ok((ns, root, cwd))
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

    fn walk(&self, w: &mut WalkState, path: &str, follow_last: bool) -> SysResult<()> {
        let mut components: Vec<String> = Vec::new();
        if path.starts_with('/') {
            w.cur = Self::cross_mounts(&w.ns, w.root);
            w.stack.clear();
        }
        components.extend(
            path.split('/')
                .filter(|c| !c.is_empty() && *c != ".")
                .map(String::from),
        );

        let mut i = 0;
        while i < components.len() {
            let name = components[i].clone();
            let is_last = i == components.len() - 1;
            if name == ".." {
                if let Some(prev) = w.stack.pop() {
                    w.cur = prev;
                }
                // At the root the stack is empty: `..` stays (chroot jail).
                i += 1;
                continue;
            }
            let mount = w.ns.get(w.cur.mount)?.clone();
            self.inner.clock.advance(self.inner.cost.dcache_hit_ns);
            let stat = mount.fs.lookup(w.cur.ino, &name)?;
            if stat.is_symlink() && (!is_last || follow_last) {
                w.symlinks += 1;
                if w.symlinks > MAX_SYMLINKS {
                    return Err(Errno::ELOOP);
                }
                let target = mount.fs.readlink(stat.ino)?;
                if target.starts_with('/') {
                    w.cur = Self::cross_mounts(&w.ns, w.root);
                    w.stack.clear();
                }
                let mut rest: Vec<String> = target
                    .split('/')
                    .filter(|c| !c.is_empty() && *c != ".")
                    .map(String::from)
                    .collect();
                rest.extend(components.drain(i + 1..));
                components.truncate(i);
                components.append(&mut rest);
                // Restart at the spliced components.
                continue;
            }
            let next = VfsLoc {
                mount: w.cur.mount,
                ino: stat.ino,
            };
            let crossed = Self::cross_mounts(&w.ns, next);
            w.stack.push(w.cur);
            w.cur = crossed;
            i += 1;
        }
        Ok(())
    }

    /// Resolves `path` for `pid`. `follow_last` controls final-symlink
    /// chasing (`stat` vs `lstat`, `O_NOFOLLOW`).
    pub fn resolve(&self, pid: Pid, path: &str, follow_last: bool) -> SysResult<Resolved> {
        let (ns, root, cwd) = self.snapshot_ns(pid)?;
        let mut w = WalkState {
            ns,
            root,
            cur: cwd,
            stack: Vec::new(),
            symlinks: 0,
        };
        if !path.starts_with('/') {
            // Rebuild the ancestor stack for the cwd by resolving the stored
            // canonical cwd path (kept symlink-free by chdir).
            let cwd_path = self.with_proc(pid, |p| Ok(p.cwd_path.clone()))?;
            w.cur = Self::cross_mounts(&w.ns, w.root);
            self.walk(&mut w, &cwd_path, true)?;
        }
        self.walk(&mut w, path, follow_last)?;
        let mount = w.ns.get(w.cur.mount)?.clone();
        let stat = mount.fs.getattr(w.cur.ino)?;
        Ok(Resolved {
            loc: w.cur,
            fs: mount.fs,
            stat,
            cache: mount.cache,
            readonly: mount.flags.readonly,
        })
    }

    /// Resolves the parent directory of `path`, returning the final
    /// component name alongside.
    pub fn resolve_parent(&self, pid: Pid, path: &str) -> SysResult<(Resolved, String)> {
        let trimmed = path.trim_end_matches('/');
        if trimmed.is_empty() {
            return Err(Errno::EEXIST);
        }
        let (dir, name) = match trimmed.rsplit_once('/') {
            Some(("", n)) => ("/".to_string(), n.to_string()),
            Some((d, n)) => (d.to_string(), n.to_string()),
            None => (".".to_string(), trimmed.to_string()),
        };
        if name.is_empty() || name == "." || name == ".." {
            return Err(Errno::EINVAL);
        }
        let dir = if dir == "." && !path.starts_with('/') {
            ".".to_string()
        } else {
            dir
        };
        let parent = self.resolve(pid, &dir, true)?;
        if !parent.stat.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        Ok((parent, name))
    }

    // ------------------------------------------------------------------
    // open / close / read / write
    // ------------------------------------------------------------------

    /// `open(2)` / `openat(2)` with `O_CREAT` support.
    pub fn open(&self, pid: Pid, path: &str, flags: OpenFlags, mode: Mode) -> SysResult<u32> {
        self.charge_syscall();
        let (creds, mnt_ns) = self.with_proc(pid, |p| Ok((p.creds.clone(), p.ns.mount)))?;
        let follow = !flags.contains(OpenFlags::NOFOLLOW);

        let resolved = match self.resolve(pid, path, follow) {
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
                let (parent, name) = self.resolve_parent(pid, path)?;
                if parent.readonly {
                    return Err(Errno::EROFS);
                }
                check_access(&parent.stat, &creds, Access::W)?;
                let ctx = fs_context(&creds);
                let st =
                    parent
                        .fs
                        .mknod(parent.loc.ino, &name, FileType::Regular, mode, 0, &ctx)?;
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

        let want = Access {
            r: flags.mode.readable(),
            w: flags.mode.writable(),
            x: false,
        };
        check_access(&resolved.stat, &creds, want)?;
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
                // FOPEN_KEEP_CACHE off: invalidate this file's pages on open.
                if !resolved.cache.keep_cache {
                    self.inner
                        .page_cache
                        .invalidate_file(dev, resolved.loc.ino)?;
                }
                // O_DIRECT coherency: flush and drop buffered pages so
                // direct I/O observes (and produces) on-disk state.
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
                if flags.contains(OpenFlags::TRUNC) && flags.mode.writable() {
                    self.inner
                        .page_cache
                        .truncate_file(dev, resolved.loc.ino, 0);
                }
                FileKind::Regular {
                    mount: resolved.loc.mount,
                    dev,
                    cache: resolved.cache,
                    file: Arc::new(FileRef {
                        fs: Arc::clone(&resolved.fs),
                        ino: resolved.loc.ino,
                        fh,
                    }),
                }
            }
        };

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

    fn get_file(&self, pid: Pid, fd: u32) -> SysResult<Arc<OpenFile>> {
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
                ..
            } => {
                if !file.flags.mode.readable() {
                    return Err(Errno::EBADF);
                }
                if file.flags.contains(OpenFlags::DIRECT) {
                    return fref.fs.read(fref.ino, fref.fh, offset, buf);
                }
                let fs_size = fref.fs.getattr(fref.ino)?.size;
                let size = self
                    .inner
                    .page_cache
                    .effective_size(*dev, fref.ino, fs_size);
                if offset >= size {
                    return Ok(0);
                }
                let n = (buf.len() as u64).min(size - offset) as usize;
                self.inner
                    .page_cache
                    .read(*dev, *cache, fref, offset, &mut buf[..n])
            }
            FileKind::Directory { .. } => Err(Errno::EISDIR),
            FileKind::PipeRead(p) => p.read(buf),
            FileKind::PipeWrite(_) => Err(Errno::EBADF),
            FileKind::Socket(s) => s.recv(buf),
            FileKind::Listener(_) | FileKind::Epoll(_) => Err(Errno::EINVAL),
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
                ..
            } => {
                if !file.flags.mode.writable() {
                    return Err(Errno::EBADF);
                }
                let fs_stat = fref.fs.getattr(fref.ino)?;
                let fs_size = fs_stat.size;
                let eff = self
                    .inner
                    .page_cache
                    .effective_size(*dev, fref.ino, fs_size);
                let offset = if file.flags.contains(OpenFlags::APPEND) {
                    eff
                } else {
                    offset
                };
                // Writes strip setuid/setgid immediately (the data may sit
                // in the page cache for a while, but the mode change is a
                // metadata operation and happens at write time).
                if fs_stat.mode.is_setuid() || fs_stat.mode.is_setgid() {
                    let cleared = fs_stat.mode.clear_suid_sgid();
                    let creds = self.creds(pid)?;
                    let _ =
                        fref.fs
                            .setattr(fref.ino, &SetAttr::chmod(cleared), &fs_context(&creds));
                }
                // RLIMIT_FSIZE: enforced only when the filesystem replays the
                // caller's limits (CntrFS does not — xfstests #228).
                if fref.fs.features().enforces_caller_fsize {
                    let end = offset + data.len() as u64;
                    if end > eff {
                        self.rlimits(pid)?.check_fsize(end)?;
                    }
                }
                // Capability stripping: the kernel consults
                // `security.capability` before every write. Native
                // filesystems answer from the inode; FUSE pays a round trip
                // each time (the Apache result in Figure 2).
                if !fref.fs.features().xattr_cached {
                    let _ = fref.fs.getxattr(fref.ino, "security.capability");
                }
                if file.flags.contains(OpenFlags::DIRECT) {
                    return fref.fs.write(fref.ino, fref.fh, offset, data);
                }
                let n = self
                    .inner
                    .page_cache
                    .write(*dev, *cache, fref, offset, data)?;
                if file.flags.contains(OpenFlags::SYNC) {
                    self.inner.page_cache.fsync(*dev, fref, true)?;
                }
                Ok(n)
            }
            FileKind::Directory { .. } => Err(Errno::EISDIR),
            FileKind::PipeWrite(p) => p.write(data),
            FileKind::PipeRead(_) => Err(Errno::EBADF),
            FileKind::Socket(s) => s.send(data),
            FileKind::Listener(_) | FileKind::Epoll(_) => Err(Errno::EINVAL),
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
        self.charge_syscall();
        let r = self.resolve(pid, path, true)?;
        let mut st = r.stat;
        // Writeback may hold a larger size and newer mtime than the
        // filesystem has seen.
        let dev = r.fs.fs_id();
        st.size = self.inner.page_cache.effective_size(dev, st.ino, st.size);
        if let Some(t) = self.inner.page_cache.pending_mtime(dev, st.ino) {
            st.mtime = st.mtime.max(t);
        }
        Ok(st)
    }

    /// `lstat(2)` (does not follow the final symlink).
    pub fn lstat(&self, pid: Pid, path: &str) -> SysResult<Stat> {
        self.charge_syscall();
        let r = self.resolve(pid, path, false)?;
        let mut st = r.stat;
        let dev = r.fs.fs_id();
        st.size = self.inner.page_cache.effective_size(dev, st.ino, st.size);
        if let Some(t) = self.inner.page_cache.pending_mtime(dev, st.ino) {
            st.mtime = st.mtime.max(t);
        }
        Ok(st)
    }

    /// `fstat(2)`.
    pub fn fstat(&self, pid: Pid, fd: u32) -> SysResult<Stat> {
        self.charge_syscall();
        let file = self.get_file(pid, fd)?;
        match &file.kind {
            FileKind::Regular {
                dev, file: fref, ..
            } => {
                let mut st = fref.fs.getattr(fref.ino)?;
                st.size = self.inner.page_cache.effective_size(*dev, st.ino, st.size);
                if let Some(t) = self.inner.page_cache.pending_mtime(*dev, st.ino) {
                    st.mtime = st.mtime.max(t);
                }
                Ok(st)
            }
            FileKind::Directory { mount, ino, .. } => {
                let (ns, _, _) = self.snapshot_ns(pid)?;
                ns.get(*mount)?.fs.getattr(*ino)
            }
            _ => Err(Errno::EBADF),
        }
    }

    /// `mkdir(2)`.
    pub fn mkdir(&self, pid: Pid, path: &str, mode: Mode) -> SysResult<()> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        let (parent, name) = self.resolve_parent(pid, path)?;
        if parent.readonly {
            return Err(Errno::EROFS);
        }
        check_access(&parent.stat, &creds, Access::W)?;
        parent
            .fs
            .mkdir(parent.loc.ino, &name, mode, &fs_context(&creds))
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
        self.charge_syscall();
        let creds = self.creds(pid)?;
        if matches!(ftype, FileType::CharDevice | FileType::BlockDevice)
            && !creds.caps.has(Capability::Mknod)
        {
            return Err(Errno::EPERM);
        }
        let (parent, name) = self.resolve_parent(pid, path)?;
        if parent.readonly {
            return Err(Errno::EROFS);
        }
        parent
            .fs
            .mknod(
                parent.loc.ino,
                &name,
                ftype,
                mode,
                rdev,
                &fs_context(&creds),
            )
            .map(|_| ())
    }

    /// `unlink(2)`.
    pub fn unlink(&self, pid: Pid, path: &str) -> SysResult<()> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        let (parent, name) = self.resolve_parent(pid, path)?;
        if parent.readonly {
            return Err(Errno::EROFS);
        }
        check_access(&parent.stat, &creds, Access::W)?;
        // Deregister a bound socket if one lived here; connections already
        // accepted stay open, new ones are refused.
        if let Ok(st) = parent.fs.lookup(parent.loc.ino, &name) {
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
        parent.fs.unlink(parent.loc.ino, &name)
    }

    /// `rmdir(2)`.
    pub fn rmdir(&self, pid: Pid, path: &str) -> SysResult<()> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        let (parent, name) = self.resolve_parent(pid, path)?;
        if parent.readonly {
            return Err(Errno::EROFS);
        }
        check_access(&parent.stat, &creds, Access::W)?;
        parent.fs.rmdir(parent.loc.ino, &name)
    }

    /// `rename(2)` / `renameat2(2)`.
    pub fn rename(&self, pid: Pid, from: &str, to: &str, flags: RenameFlags) -> SysResult<()> {
        self.charge_syscall();
        let (src_parent, src_name) = self.resolve_parent(pid, from)?;
        let (dst_parent, dst_name) = self.resolve_parent(pid, to)?;
        if src_parent.readonly || dst_parent.readonly {
            return Err(Errno::EROFS);
        }
        if !Arc::ptr_eq(&src_parent.fs, &dst_parent.fs) {
            return Err(Errno::EXDEV);
        }
        src_parent.fs.rename(
            src_parent.loc.ino,
            &src_name,
            dst_parent.loc.ino,
            &dst_name,
            flags,
        )
    }

    /// `link(2)`.
    pub fn link(&self, pid: Pid, existing: &str, new: &str) -> SysResult<()> {
        self.charge_syscall();
        let src = self.resolve(pid, existing, false)?;
        let (dst_parent, name) = self.resolve_parent(pid, new)?;
        if dst_parent.readonly {
            return Err(Errno::EROFS);
        }
        if !Arc::ptr_eq(&src.fs, &dst_parent.fs) {
            return Err(Errno::EXDEV);
        }
        dst_parent
            .fs
            .link(src.loc.ino, dst_parent.loc.ino, &name)
            .map(|_| ())
    }

    /// `symlink(2)`.
    pub fn symlink(&self, pid: Pid, target: &str, linkpath: &str) -> SysResult<()> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        let (parent, name) = self.resolve_parent(pid, linkpath)?;
        if parent.readonly {
            return Err(Errno::EROFS);
        }
        parent
            .fs
            .symlink(parent.loc.ino, &name, target, &fs_context(&creds))
            .map(|_| ())
    }

    /// `readlink(2)`.
    pub fn readlink(&self, pid: Pid, path: &str) -> SysResult<String> {
        self.charge_syscall();
        let r = self.resolve(pid, path, false)?;
        r.fs.readlink(r.loc.ino)
    }

    /// `getdents(2)`: directory entries including synthesized `.` and `..`.
    pub fn readdir(&self, pid: Pid, path: &str) -> SysResult<Vec<Dirent>> {
        self.charge_syscall();
        let r = self.resolve(pid, path, true)?;
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

    /// `chmod(2)`.
    pub fn chmod(&self, pid: Pid, path: &str, mode: Mode) -> SysResult<()> {
        self.setattr_path(pid, path, &SetAttr::chmod(mode))
    }

    /// `chown(2)`.
    pub fn chown(&self, pid: Pid, path: &str, uid: Uid, gid: Gid) -> SysResult<()> {
        let creds = self.creds(pid)?;
        if !creds.caps.has(Capability::Chown) && creds.uid != uid {
            return Err(Errno::EPERM);
        }
        self.setattr_path(pid, path, &SetAttr::chown(uid, gid))
    }

    /// `truncate(2)`. The page cache follows only once the filesystem has
    /// accepted the new size (Linux's `truncate_setsize`): a refused
    /// truncate leaves the cached bytes as they were.
    pub fn truncate(&self, pid: Pid, path: &str, size: u64) -> SysResult<()> {
        let r = self.resolve(pid, path, true)?;
        self.setattr_path(pid, path, &SetAttr::truncate(size))?;
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

    /// `utimensat(2)`-style timestamp update.
    pub fn utimens(
        &self,
        pid: Pid,
        path: &str,
        atime: Option<cntr_types::Timespec>,
        mtime: Option<cntr_types::Timespec>,
    ) -> SysResult<()> {
        self.setattr_path(
            pid,
            path,
            &SetAttr {
                atime,
                mtime,
                ..SetAttr::default()
            },
        )
    }

    fn setattr_path(&self, pid: Pid, path: &str, attr: &SetAttr) -> SysResult<()> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        let r = self.resolve(pid, path, true)?;
        if r.readonly {
            return Err(Errno::EROFS);
        }
        r.fs.setattr(r.loc.ino, attr, &fs_context(&creds))
            .map(|_| ())
    }

    /// `access(2)`.
    pub fn access(&self, pid: Pid, path: &str, want: Access) -> SysResult<()> {
        self.charge_syscall();
        let creds = self.creds(pid)?;
        let r = self.resolve(pid, path, true)?;
        check_access(&r.stat, &creds, want)
    }

    /// `getxattr(2)`.
    pub fn getxattr(&self, pid: Pid, path: &str, name: &str) -> SysResult<Vec<u8>> {
        self.charge_syscall();
        let r = self.resolve(pid, path, true)?;
        r.fs.getxattr(r.loc.ino, name)
    }

    /// `setxattr(2)`.
    pub fn setxattr(
        &self,
        pid: Pid,
        path: &str,
        name: &str,
        value: &[u8],
        flags: XattrFlags,
    ) -> SysResult<()> {
        self.charge_syscall();
        let r = self.resolve(pid, path, true)?;
        if r.readonly {
            return Err(Errno::EROFS);
        }
        r.fs.setxattr(r.loc.ino, name, value, flags)
    }

    /// `listxattr(2)`.
    pub fn listxattr(&self, pid: Pid, path: &str) -> SysResult<Vec<String>> {
        self.charge_syscall();
        let r = self.resolve(pid, path, true)?;
        r.fs.listxattr(r.loc.ino)
    }

    /// `removexattr(2)`.
    pub fn removexattr(&self, pid: Pid, path: &str, name: &str) -> SysResult<()> {
        self.charge_syscall();
        let r = self.resolve(pid, path, true)?;
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

    /// `chdir(2)`. The canonical cwd path is kept for relative resolution.
    pub fn chdir(&self, pid: Pid, path: &str) -> SysResult<()> {
        self.charge_syscall();
        let r = self.resolve(pid, path, true)?;
        if !r.stat.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        let canon = self.canonicalize(pid, path)?;
        self.with_proc_mut(pid, |p| {
            p.cwd = r.loc;
            p.cwd_path = canon;
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
            p.root = r.loc;
            p.cwd = r.loc;
            p.cwd_path = "/".to_string();
            Ok(())
        })
    }

    /// Lexically canonicalizes `path` against the stored cwd (the walk has
    /// already validated it resolves).
    fn canonicalize(&self, pid: Pid, path: &str) -> SysResult<String> {
        let base = if path.starts_with('/') {
            String::new()
        } else {
            self.with_proc(pid, |p| Ok(p.cwd_path.clone()))?
        };
        let joined = format!("{base}/{path}");
        let mut parts: Vec<&str> = Vec::new();
        for c in joined.split('/') {
            match c {
                "" | "." => {}
                ".." => {
                    parts.pop();
                }
                other => parts.push(other),
            }
        }
        Ok(format!("/{}", parts.join("/")))
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
        let root_ino = fs.root_ino();
        let cache = CacheMode::for_mount(fs.features(), flags);
        let id = self.alloc_mount_id();
        let ns_id = self.with_proc(pid, |p| Ok(p.ns.mount))?;
        self.inner.mounts.with_write(ns_id, |ns| {
            ns.add_mount(id, fs, root_ino, at.loc.mount, at.loc.ino, cache, flags)
        })?;
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
            let mut mapping: std::collections::HashMap<MountId, MountId> =
                std::collections::HashMap::new();
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
    /// Peer namespaces are visited one at a time — no two inner mount locks
    /// are ever held together (rule 3 of the locking discipline), so a
    /// concurrent propagation from another namespace cannot deadlock.
    fn propagate_mount(&self, origin_ns: crate::ns::NamespaceId, parent: MountId, at_ino: Ino) {
        let mounts = &self.inner.mounts;
        let origin = mounts.with_read(origin_ns, |ns| {
            let group = match ns.get(parent).map(|m| m.propagation) {
                Ok(Propagation::Shared(g)) => g,
                _ => return Ok(None),
            };
            Ok(ns.mount_at(parent, at_ino).cloned().map(|m| (group, m)))
        });
        let Ok(Some((group, new_mount))) = origin else {
            return;
        };
        for ns_id in mounts.ids() {
            if ns_id == origin_ns {
                continue;
            }
            let is_peer = mounts
                .with_read(ns_id, |ns| {
                    Ok(ns
                        .get(parent)
                        .is_ok_and(|m| m.propagation == Propagation::Shared(group)))
                })
                .unwrap_or(false);
            if !is_peer {
                continue;
            }
            let id = mounts.alloc_mount_id();
            let _ = mounts.with_write(ns_id, |ns| {
                // Re-checked under the write lock: the peer may have been
                // reconfigured between the read and the write.
                if !ns
                    .get(parent)
                    .is_ok_and(|m| m.propagation == Propagation::Shared(group))
                {
                    return Ok(());
                }
                ns.add_mount(
                    id,
                    Arc::clone(&new_mount.fs),
                    new_mount.root_ino,
                    parent,
                    at_ino,
                    new_mount.cache,
                    new_mount.flags,
                )
                .map(|_| ())
            });
        }
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
            p.root = root;
            p.cwd = root;
            p.cwd_path = "/".to_string();
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
            p.root = at.loc;
            p.cwd = at.loc;
            p.cwd_path = "/".to_string();
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
        let (ns, _, _) = self.snapshot_ns(pid)?;
        Ok(ns.iter().map(|m| (m.id, m.fs.fs_type())).collect())
    }

    // ------------------------------------------------------------------
    // Unix sockets bound to filesystem paths
    // ------------------------------------------------------------------

    /// `bind(2)` + `listen(2)`: creates the socket inode and registers a
    /// listener under it, tagged with the caller's mount namespace — if
    /// that namespace dies (its last process is reaped) the listener is
    /// unbound, so a dead container's socket cannot accept connections.
    pub fn bind_listener(&self, pid: Pid, path: &str) -> SysResult<u32> {
        self.charge_syscall();
        let (creds, mnt_ns) = self.with_proc(pid, |p| Ok((p.creds.clone(), p.ns.mount)))?;
        let (parent, name) = self.resolve_parent(pid, path)?;
        if parent.readonly {
            return Err(Errno::EROFS);
        }
        let st = parent.fs.mknod(
            parent.loc.ino,
            &name,
            FileType::Socket,
            Mode::new(0o666),
            0,
            &fs_context(&creds),
        )?;
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
    fn o_direct_rejected_when_fs_lacks_it() {
        // MemFs supports O_DIRECT; a features-stripped fs is exercised via
        // CntrFS in the xfstests crate. Here we check O_DIRECT pass-through.
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
