//! A synthetic `/proc` filesystem.
//!
//! CNTR "reads this information by inspecting the /proc filesystem of the
//! main process within the container" (paper §3.2.1) and later bind-mounts
//! the application's `/proc` into the nested namespace so tools see the
//! container's processes. `ProcFs` implements enough of procfs for both:
//! per-pid directories with `status`, `environ`, `cmdline`, `cgroup`,
//! `mounts` and `ns/<kind>` entries, generated live from kernel state.
//!
//! Inode layout: special (non-pid) nodes occupy the space below 2^32 —
//! root = 1, `/proc/namespaces` = 2, `/proc/lockdep` = 3,
//! `/proc/cntrstats` = 4. Per-pid nodes are `(pid << 32) | k`:
//! `/proc/<pid>` has `k = 0`, files inside use small `k`, `ns/` is
//! `k = 100` with kind files following. Because the pid sits in its own
//! high 32 bits, no pid-relative index can alias another pid's files or
//! a special node, no matter how large pids grow (the previous
//! `pid * 1000 + k` layout collided once any index reached the stride).
//!
//! Files read like Linux's `seq_file`s under `single_open`: `st_size` is
//! 0, an open file renders its content once, at its first read, and later
//! reads of that open file slice the same snapshot, so a reader that reads
//! a few bytes at a time never sees two renderings spliced together. The
//! kernel reads them straight from here, never through the page cache
//! ([`FsFeatures::seq_files`]).
//!
//! `/proc/namespaces` is this simulation's observability hook for
//! namespace GC: one line per live `(kind, id)` pair with its process
//! refcount, so tests and `cntr-slim` can watch namespaces appear on
//! `unshare`, move on `setns`, and vanish when the last holder is reaped.

use crate::kernel::KernelInner;
use crate::ns::{NamespaceKind, ALL_KINDS};
use crate::table::lock_class;
use bytes::Bytes;
use cntr_fs::{FallocateMode, Fh, Filesystem, FsContext, FsFeatures, XattrFlags};
use cntr_types::{
    DevId, Dirent, Errno, FileType, Gid, IdMap, Ino, Mode, OpenFlags, Pid, RenameFlags, SetAttr,
    Stat, Statfs, SysResult, Timespec, Uid,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

const I_NAMESPACES: u64 = 2;
const I_LOCKDEP: u64 = 3;
const I_CNTRSTATS: u64 = 4;
const F_STATUS: u64 = 1;
const F_ENVIRON: u64 = 2;
const F_CMDLINE: u64 = 3;
const F_CGROUP: u64 = 4;
const F_MOUNTS: u64 = 5;
const D_NS: u64 = 100;

/// The inode of `/proc/<pid>`'s node with pid-relative index `k`
/// (`k = 0` is the directory itself).
fn pid_ino(pid: Pid, k: u64) -> u64 {
    (u64::from(pid.raw()) << 32) | k
}

/// The `/proc` filesystem.
pub struct ProcFs {
    dev: DevId,
    kernel: Weak<KernelInner>,
    next_fh: AtomicU64,
    /// Each open file's rendered content, from its first read until its
    /// release (the `seq_file` buffer). Held only to look up or store a
    /// snapshot: rendering, which reads the process and mount tables,
    /// happens outside it.
    open_files: Mutex<IdMap<Fh, Option<Bytes>>>,
}

impl ProcFs {
    /// Creates a `/proc` view over a kernel.
    pub(crate) fn new(dev: DevId, kernel: Weak<KernelInner>) -> Arc<ProcFs> {
        Arc::new(ProcFs {
            dev,
            kernel,
            next_fh: AtomicU64::new(1),
            open_files: Mutex::new_class(lock_class::PROCFS_OPEN, IdMap::default()),
        })
    }

    fn kernel(&self) -> SysResult<Arc<KernelInner>> {
        self.kernel.upgrade().ok_or(Errno::EIO)
    }

    fn classify(ino: Ino) -> ProcNode {
        let v = ino.raw();
        if v < 1 << 32 {
            return match v {
                1 => ProcNode::Root,
                I_NAMESPACES => ProcNode::NsTable,
                I_LOCKDEP => ProcNode::Lockdep,
                I_CNTRSTATS => ProcNode::Cntrstats,
                _ => ProcNode::Unknown,
            };
        }
        let pid = Pid((v >> 32) as u32);
        match v & 0xffff_ffff {
            0 => ProcNode::PidDir(pid),
            F_STATUS => ProcNode::File(pid, ProcFile::Status),
            F_ENVIRON => ProcNode::File(pid, ProcFile::Environ),
            F_CMDLINE => ProcNode::File(pid, ProcFile::Cmdline),
            F_CGROUP => ProcNode::File(pid, ProcFile::Cgroup),
            F_MOUNTS => ProcNode::File(pid, ProcFile::Mounts),
            D_NS => ProcNode::NsDir(pid),
            k if (D_NS + 1..=D_NS + 7).contains(&k) => {
                ProcNode::File(pid, ProcFile::Ns(ALL_KINDS[(k - D_NS - 1) as usize]))
            }
            _ => ProcNode::Unknown,
        }
    }

    fn pid_exists(&self, pid: Pid) -> bool {
        self.kernel()
            .map(|k| k.procs.contains(pid))
            .unwrap_or(false)
    }

    /// `/proc/namespaces`: one `kind id refcount` line per live namespace,
    /// sorted by id then kind — the GC observability surface.
    fn namespaces_content(&self) -> SysResult<Vec<u8>> {
        let kernel = self.kernel()?;
        let mut out = String::new();
        for (kind, id, count) in kernel.ns_refs.snapshot() {
            out.push_str(&format!("{} {} {}\n", kind.proc_name(), id.0, count));
        }
        Ok(out.into_bytes())
    }

    /// `/proc/lockdep`: the lock-dependency engine's current view — every
    /// registered class and every observed dependency edge. In builds
    /// without instrumentation (release, no `lockdep` feature) the report
    /// is empty, which the header line makes explicit.
    fn lockdep_content(&self) -> Vec<u8> {
        lockdep::report().to_string().into_bytes()
    }

    /// `/proc/cntrstats`: every registered observability metric as
    /// vmstat-style `name value` lines ([`obs::render`]), followed by
    /// lock-contention counters bridged from the lockdep core, which sits
    /// below the metrics crate and cannot register its own metrics without
    /// a dependency cycle.
    fn cntrstats_content(&self) -> Vec<u8> {
        let mut out = obs::render();
        let report = lockdep::report();
        out.push_str(&format!("lockdep.classes {}\n", report.classes.len()));
        let (contended, wait_ns) = report.classes.iter().fold((0u64, 0u64), |(c, w), cl| {
            (c + cl.contended, w + cl.wait_ns)
        });
        out.push_str(&format!("lockdep.contended-total {contended}\n"));
        out.push_str(&format!("lockdep.wait-ns-total {wait_ns}\n"));
        let mut classes: Vec<_> = report.classes.iter().filter(|c| c.contended > 0).collect();
        classes.sort_by_key(|c| c.name);
        for c in classes {
            let name = c.name.replace('_', "-");
            out.push_str(&format!("lockdep.{name}.contended {}\n", c.contended));
            out.push_str(&format!("lockdep.{name}.wait-ns {}\n", c.wait_ns));
        }
        out.into_bytes()
    }

    /// Renders a `/proc/<pid>/*` file under **one** process-table
    /// acquisition, formatting straight from the process: a concurrent
    /// `fork` or `exit` can never produce a torn read, since every line
    /// describes the same instant of the process, and nothing is cloned
    /// out of it.
    fn content(&self, pid: Pid, file: ProcFile) -> SysResult<Vec<u8>> {
        let kernel = self.kernel()?;
        // `Err(ns)` names the mount namespace of a `mounts` file: the mount
        // table is read once the process table is released
        // (processes-before-mounts).
        let rendered = kernel
            .procs
            .with(pid, |p| {
                Ok(match file {
                    ProcFile::Status => Ok(format!(
                        "Name:\t{}\nState:\t{}\nPid:\t{}\nPPid:\t{}\nUid:\t{} {} {} {}\nGid:\t{} {} {} {}\nCapEff:\t{:016x}\nCapBnd:\t{:016x}\nSeccomp:\t0\n",
                        p.name,
                        match p.state {
                            crate::process::ProcessState::Running => "R (running)",
                            crate::process::ProcessState::Zombie => "Z (zombie)",
                        },
                        p.pid,
                        p.ppid,
                        p.creds.uid, p.creds.uid, p.creds.uid, p.creds.uid,
                        p.creds.gid, p.creds.gid, p.creds.gid, p.creds.gid,
                        p.creds.caps.raw(),
                        p.creds.bounding.raw(),
                    )
                    .into_bytes()),
                    ProcFile::Environ => {
                        let mut buf = Vec::new();
                        for (k, v) in &p.env {
                            buf.extend_from_slice(k.as_bytes());
                            buf.push(b'=');
                            buf.extend_from_slice(v.as_bytes());
                            buf.push(0);
                        }
                        Ok(buf)
                    }
                    ProcFile::Cmdline => {
                        let mut b = Vec::with_capacity(p.name.len() + 1);
                        b.extend_from_slice(p.name.as_bytes());
                        b.push(0);
                        Ok(b)
                    }
                    ProcFile::Cgroup => Ok(format!("0::{}\n", p.cgroup.0).into_bytes()),
                    ProcFile::Ns(kind) => {
                        Ok(format!("{}:[{}]", kind.proc_name(), p.ns.get(kind).0).into_bytes())
                    }
                    ProcFile::Mounts => Err(p.ns.mount),
                })
            })
            .map_err(|_| Errno::ENOENT)?;
        let mnt_ns = match rendered {
            Ok(bytes) => return Ok(bytes),
            Err(ns) => ns,
        };
        let ns = kernel.mounts.snapshot(mnt_ns).map_err(|_| Errno::EIO)?;
        let mut out = String::new();
        for m in ns.iter() {
            // The filesystem reports its own option string (stacked
            // filesystems expose their layering here); the mount's
            // read-only flag overrides the leading rw.
            let opts = if m.flags.readonly {
                m.fs.fs_options().replacen("rw", "ro", 1)
            } else {
                m.fs.fs_options()
            };
            out.push_str(&format!("{} {} {} 0 0\n", m.fs.fs_type(), m.id, opts));
        }
        Ok(out.into_bytes())
    }

    fn dir_stat(&self, ino: Ino, uid: Uid, gid: Gid) -> Stat {
        Stat {
            dev: self.dev,
            ino,
            ftype: FileType::Directory,
            mode: Mode::new(0o555),
            nlink: 2,
            uid,
            gid,
            rdev: 0,
            size: 0,
            blocks: 0,
            blksize: 4096,
            atime: Timespec::ZERO,
            mtime: Timespec::ZERO,
            ctime: Timespec::ZERO,
        }
    }

    /// A file's attributes: size 0, as procfs reports, since the content
    /// exists only once a read renders it.
    fn file_stat(&self, ino: Ino, uid: Uid, gid: Gid) -> Stat {
        Stat {
            dev: self.dev,
            ino,
            ftype: FileType::Regular,
            mode: Mode::new(0o444),
            nlink: 1,
            uid,
            gid,
            rdev: 0,
            size: 0,
            blocks: 0,
            blksize: 4096,
            atime: Timespec::ZERO,
            mtime: Timespec::ZERO,
            ctime: Timespec::ZERO,
        }
    }

    /// The owner of a live process's `/proc` entries, or `ENOENT` once it
    /// is gone.
    fn owner_of(&self, pid: Pid) -> SysResult<(Uid, Gid)> {
        self.kernel()?
            .procs
            .with(pid, |p| Ok((p.creds.uid, p.creds.gid)))
            .map_err(|_| Errno::ENOENT)
    }

    /// The content of a file node, rendered now.
    fn render(&self, ino: Ino) -> SysResult<Vec<u8>> {
        match Self::classify(ino) {
            ProcNode::File(pid, f) => self.content(pid, f),
            ProcNode::NsTable => self.namespaces_content(),
            ProcNode::Lockdep => Ok(self.lockdep_content()),
            ProcNode::Cntrstats => Ok(self.cntrstats_content()),
            ProcNode::Unknown => Err(Errno::ENOENT),
            ProcNode::Root | ProcNode::PidDir(_) | ProcNode::NsDir(_) => Err(Errno::EISDIR),
        }
    }

    fn node_stat(&self, ino: Ino) -> SysResult<Stat> {
        match Self::classify(ino) {
            ProcNode::Root => Ok(self.dir_stat(ino, Uid::ROOT, Gid::ROOT)),
            ProcNode::NsTable | ProcNode::Lockdep | ProcNode::Cntrstats => {
                Ok(self.file_stat(ino, Uid::ROOT, Gid::ROOT))
            }
            ProcNode::PidDir(pid) | ProcNode::NsDir(pid) => {
                let (uid, gid) = self.owner_of(pid)?;
                Ok(self.dir_stat(ino, uid, gid))
            }
            ProcNode::File(pid, _) => {
                let (uid, gid) = self.owner_of(pid)?;
                Ok(self.file_stat(ino, uid, gid))
            }
            ProcNode::Unknown => Err(Errno::ENOENT),
        }
    }
}

#[derive(Clone, Copy)]
enum ProcFile {
    Status,
    Environ,
    Cmdline,
    Cgroup,
    Mounts,
    Ns(NamespaceKind),
}

enum ProcNode {
    Root,
    /// `/proc/namespaces` — live namespaces and their process refcounts.
    NsTable,
    /// `/proc/lockdep` — lock classes and observed dependency edges.
    Lockdep,
    /// `/proc/cntrstats` — the observability registry, vmstat-style.
    Cntrstats,
    PidDir(Pid),
    NsDir(Pid),
    File(Pid, ProcFile),
    Unknown,
}

impl Filesystem for ProcFs {
    fn fs_id(&self) -> DevId {
        self.dev
    }

    fn fs_type(&self) -> &'static str {
        "proc"
    }

    fn features(&self) -> FsFeatures {
        FsFeatures {
            enforces_caller_fsize: true,
            // Contents are generated when read: nothing is cached.
            writeback_cache: false,
            keep_cache: false,
            passthrough: false,
            stack_depth: 0,
            seq_files: true,
        }
    }

    fn lookup(&self, parent: Ino, name: &str) -> SysResult<Stat> {
        match Self::classify(parent) {
            ProcNode::Root => {
                if name == "namespaces" {
                    return self.node_stat(Ino(I_NAMESPACES));
                }
                if name == "lockdep" {
                    return self.node_stat(Ino(I_LOCKDEP));
                }
                if name == "cntrstats" {
                    return self.node_stat(Ino(I_CNTRSTATS));
                }
                let pid: u32 = name.parse().map_err(|_| Errno::ENOENT)?;
                self.node_stat(Ino(pid_ino(Pid(pid), 0)))
            }
            ProcNode::PidDir(pid) => {
                let k = match name {
                    "status" => F_STATUS,
                    "environ" => F_ENVIRON,
                    "cmdline" => F_CMDLINE,
                    "cgroup" => F_CGROUP,
                    "mounts" => F_MOUNTS,
                    "ns" => D_NS,
                    _ => return Err(Errno::ENOENT),
                };
                self.node_stat(Ino(pid_ino(pid, k)))
            }
            ProcNode::NsDir(pid) => {
                let idx = ALL_KINDS
                    .iter()
                    .position(|k| k.proc_name() == name)
                    .ok_or(Errno::ENOENT)?;
                self.node_stat(Ino(pid_ino(pid, D_NS + 1 + idx as u64)))
            }
            _ => Err(Errno::ENOTDIR),
        }
    }

    fn getattr(&self, ino: Ino) -> SysResult<Stat> {
        self.node_stat(ino)
    }

    fn setattr(&self, _ino: Ino, _attr: &SetAttr, _ctx: &FsContext) -> SysResult<Stat> {
        Err(Errno::EPERM)
    }

    fn mknod(
        &self,
        _parent: Ino,
        _name: &str,
        _ftype: FileType,
        _mode: Mode,
        _rdev: u64,
        _ctx: &FsContext,
    ) -> SysResult<Stat> {
        Err(Errno::EROFS)
    }

    fn mkdir(&self, _parent: Ino, _name: &str, _mode: Mode, _ctx: &FsContext) -> SysResult<Stat> {
        Err(Errno::EROFS)
    }

    fn unlink(&self, _parent: Ino, _name: &str) -> SysResult<()> {
        Err(Errno::EROFS)
    }

    fn rmdir(&self, _parent: Ino, _name: &str) -> SysResult<()> {
        Err(Errno::EROFS)
    }

    fn symlink(
        &self,
        _parent: Ino,
        _name: &str,
        _target: &str,
        _ctx: &FsContext,
    ) -> SysResult<Stat> {
        Err(Errno::EROFS)
    }

    fn readlink(&self, _ino: Ino) -> SysResult<String> {
        Err(Errno::EINVAL)
    }

    fn link(&self, _ino: Ino, _newparent: Ino, _newname: &str) -> SysResult<Stat> {
        Err(Errno::EROFS)
    }

    fn rename(
        &self,
        _parent: Ino,
        _name: &str,
        _newparent: Ino,
        _newname: &str,
        _flags: RenameFlags,
    ) -> SysResult<()> {
        Err(Errno::EROFS)
    }

    fn open(&self, ino: Ino, flags: OpenFlags) -> SysResult<Fh> {
        if flags.mode.writable() {
            return Err(Errno::EACCES);
        }
        self.node_stat(ino)?;
        let fh = Fh(self.next_fh.fetch_add(1, Ordering::Relaxed));
        self.open_files.lock().insert(fh, None);
        Ok(fh)
    }

    fn release(&self, _ino: Ino, fh: Fh) -> SysResult<()> {
        self.open_files.lock().remove(&fh);
        Ok(())
    }

    /// Slices the open file's snapshot, rendering it at the first read
    /// (`single_open`'s `seq_read`). A handle this filesystem did not
    /// hand out reads a fresh rendering.
    fn read_bytes(&self, ino: Ino, fh: Fh, offset: u64, len: usize) -> SysResult<Bytes> {
        let snapshot = self.open_files.lock().get(&fh).cloned().flatten();
        let content = match snapshot {
            Some(content) => content,
            None => {
                let rendered = Bytes::from(self.render(ino)?);
                // Of two racing first reads, the first to store wins and
                // both return its rendering.
                match self.open_files.lock().get_mut(&fh) {
                    Some(slot) => slot.get_or_insert(rendered).clone(),
                    None => rendered,
                }
            }
        };
        let start = offset.min(content.len() as u64) as usize;
        let end = content.len().min(start.saturating_add(len));
        Ok(content.slice(start..end))
    }

    fn write_bytes(&self, _ino: Ino, _fh: Fh, _offset: u64, _data: &[Bytes]) -> SysResult<usize> {
        Err(Errno::EROFS)
    }

    fn fsync(&self, _ino: Ino, _fh: Fh, _datasync: bool) -> SysResult<()> {
        Ok(())
    }

    fn readdir(&self, ino: Ino) -> SysResult<Vec<Dirent>> {
        match Self::classify(ino) {
            ProcNode::Root => {
                let kernel = self.kernel()?;
                let mut out = vec![
                    Dirent {
                        ino: Ino(I_NAMESPACES),
                        name: "namespaces".to_string(),
                        ftype: FileType::Regular,
                    },
                    Dirent {
                        ino: Ino(I_LOCKDEP),
                        name: "lockdep".to_string(),
                        ftype: FileType::Regular,
                    },
                    Dirent {
                        ino: Ino(I_CNTRSTATS),
                        name: "cntrstats".to_string(),
                        ftype: FileType::Regular,
                    },
                ];
                out.extend(kernel.procs.pids().into_iter().map(|p| Dirent {
                    ino: Ino(pid_ino(p, 0)),
                    name: p.to_string(),
                    ftype: FileType::Directory,
                }));
                Ok(out)
            }
            ProcNode::PidDir(pid) => {
                if !self.pid_exists(pid) {
                    return Err(Errno::ENOENT);
                }
                Ok([
                    ("cgroup", F_CGROUP, FileType::Regular),
                    ("cmdline", F_CMDLINE, FileType::Regular),
                    ("environ", F_ENVIRON, FileType::Regular),
                    ("mounts", F_MOUNTS, FileType::Regular),
                    ("ns", D_NS, FileType::Directory),
                    ("status", F_STATUS, FileType::Regular),
                ]
                .into_iter()
                .map(|(n, k, t)| Dirent {
                    ino: Ino(pid_ino(pid, k)),
                    name: n.to_string(),
                    ftype: t,
                })
                .collect())
            }
            ProcNode::NsDir(pid) => Ok(ALL_KINDS
                .iter()
                .enumerate()
                .map(|(i, k)| Dirent {
                    ino: Ino(pid_ino(pid, D_NS + 1 + i as u64)),
                    name: k.proc_name().to_string(),
                    ftype: FileType::Regular,
                })
                .collect()),
            _ => Err(Errno::ENOTDIR),
        }
    }

    fn statfs(&self) -> SysResult<Statfs> {
        Ok(Statfs {
            bsize: 4096,
            blocks: 0,
            bfree: 0,
            bavail: 0,
            files: 0,
            ffree: 0,
            namelen: 255,
        })
    }

    fn getxattr(&self, _ino: Ino, _name: &str) -> SysResult<Vec<u8>> {
        Err(Errno::ENODATA)
    }

    fn setxattr(&self, _ino: Ino, _name: &str, _value: &[u8], _flags: XattrFlags) -> SysResult<()> {
        Err(Errno::EROFS)
    }

    fn listxattr(&self, _ino: Ino) -> SysResult<Vec<String>> {
        Ok(Vec::new())
    }

    fn removexattr(&self, _ino: Ino, _name: &str) -> SysResult<()> {
        Err(Errno::EROFS)
    }

    fn fallocate(
        &self,
        _ino: Ino,
        _fh: Fh,
        _offset: u64,
        _len: u64,
        _mode: FallocateMode,
    ) -> SysResult<()> {
        Err(Errno::EROFS)
    }

    fn export_handle(&self, _ino: Ino) -> SysResult<u64> {
        // Like Linux's procfs (no `s_export_op`): an entry lives only as
        // long as its process.
        Err(Errno::EOPNOTSUPP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Kernel, KernelConfig};
    use crate::mount::MountFlags;
    use cntr_fs::memfs::memfs;
    use cntr_types::SimClock;

    #[test]
    fn procfs_reflects_processes() {
        let clock = SimClock::new();
        let fs = memfs(DevId(1), clock.clone());
        let k = Kernel::with_clock(clock, fs, KernelConfig::default());
        k.mkdir(Pid::INIT, "/proc", Mode::RWXR_XR_X).unwrap();
        k.mount_procfs(Pid::INIT, "/proc").unwrap();
        k.setenv(Pid::INIT, "MYSQL_HOST", "db.internal").unwrap();

        // Read /proc/1/status through the VFS.
        let fd = k
            .open(
                Pid::INIT,
                "/proc/1/status",
                OpenFlags::RDONLY,
                Mode::RW_R__R__,
            )
            .unwrap();
        let mut buf = vec![0u8; 4096];
        let n = k.read_fd(Pid::INIT, fd, &mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf[..n]).to_string();
        assert!(text.contains("Name:\tinit"), "{text}");
        assert!(text.contains("Pid:\t1"));
        k.close(Pid::INIT, fd).unwrap();
        // Its files have no persistent handle.
        assert_eq!(
            k.name_to_handle(Pid::INIT, "/proc/1/status"),
            Err(Errno::EOPNOTSUPP)
        );

        // environ contains the variable.
        let fd = k
            .open(
                Pid::INIT,
                "/proc/1/environ",
                OpenFlags::RDONLY,
                Mode::RW_R__R__,
            )
            .unwrap();
        let n = k.read_fd(Pid::INIT, fd, &mut buf).unwrap();
        let env = String::from_utf8_lossy(&buf[..n]).to_string();
        assert!(env.contains("MYSQL_HOST=db.internal"));
        k.close(Pid::INIT, fd).unwrap();

        // New processes show up; dead ones disappear.
        let child = k.fork(Pid::INIT).unwrap();
        assert!(k.stat(Pid::INIT, &format!("/proc/{child}/status")).is_ok());
        let ns_text = {
            let fd = k
                .open(
                    Pid::INIT,
                    &format!("/proc/{child}/ns/mnt"),
                    OpenFlags::RDONLY,
                    Mode::RW_R__R__,
                )
                .unwrap();
            let n = k.read_fd(Pid::INIT, fd, &mut buf).unwrap();
            k.close(Pid::INIT, fd).unwrap();
            String::from_utf8_lossy(&buf[..n]).to_string()
        };
        assert!(ns_text.starts_with("mnt:["), "{ns_text}");
        k.exit(child).unwrap();
        k.reap(child).unwrap();
        assert_eq!(
            k.stat(Pid::INIT, &format!("/proc/{child}/status")),
            Err(Errno::ENOENT)
        );
    }

    #[test]
    fn proc_namespaces_tracks_refcounts_and_gc() {
        use crate::ns::NamespaceKind;
        let clock = SimClock::new();
        let fs = memfs(DevId(1), clock.clone());
        let k = Kernel::with_clock(clock, fs, KernelConfig::default());
        k.mkdir(Pid::INIT, "/proc", Mode::RWXR_XR_X).unwrap();
        k.mount_procfs(Pid::INIT, "/proc").unwrap();
        let read = |k: &Kernel| {
            let fd = k
                .open(
                    Pid::INIT,
                    "/proc/namespaces",
                    OpenFlags::RDONLY,
                    Mode::RW_R__R__,
                )
                .unwrap();
            let mut buf = vec![0u8; 4096];
            let n = k.read_fd(Pid::INIT, fd, &mut buf).unwrap();
            k.close(Pid::INIT, fd).unwrap();
            String::from_utf8_lossy(&buf[..n]).to_string()
        };
        // Boot: seven entries for namespace 1, one holder (init).
        let text = read(&k);
        assert_eq!(text.lines().count(), 7, "{text}");
        assert!(text.contains("mnt 1 1"), "{text}");
        // A forked container child bumps counts; unshare adds rows.
        let child = k.fork(Pid::INIT).unwrap();
        k.unshare(child, &[NamespaceKind::Mount]).unwrap();
        let child_mnt = k.proc_info(child).unwrap().ns.mount;
        let text = read(&k);
        assert_eq!(text.lines().count(), 8, "{text}");
        assert!(text.contains("pid 1 2"), "{text}");
        assert!(text.contains(&format!("mnt {} 1", child_mnt.0)), "{text}");
        // Reaping the child GCs its namespace: the row disappears.
        k.exit(child).unwrap();
        k.reap(child).unwrap();
        let text = read(&k);
        assert_eq!(text.lines().count(), 7, "{text}");
        assert!(!text.contains(&format!("mnt {}", child_mnt.0)), "{text}");
    }

    #[test]
    fn proc_lockdep_exposes_the_dependency_report() {
        let clock = SimClock::new();
        let fs = memfs(DevId(1), clock.clone());
        let k = Kernel::with_clock(clock, fs, KernelConfig::default());
        k.mkdir(Pid::INIT, "/proc", Mode::RWXR_XR_X).unwrap();
        k.mount_procfs(Pid::INIT, "/proc").unwrap();
        let fd = k
            .open(
                Pid::INIT,
                "/proc/lockdep",
                OpenFlags::RDONLY,
                Mode::RW_R__R__,
            )
            .unwrap();
        let mut buf = vec![0u8; 1 << 20];
        let n = k.read_fd(Pid::INIT, fd, &mut buf).unwrap();
        k.close(Pid::INIT, fd).unwrap();
        let text = String::from_utf8_lossy(&buf[..n]).to_string();
        assert!(text.starts_with("lock classes:"), "{text}");
        // With instrumentation on, the kernel's named classes must appear.
        #[cfg(any(debug_assertions, feature = "lockdep"))]
        assert!(text.contains(crate::table::lock_class::PROCS), "{text}");
    }

    #[test]
    fn procfs_is_read_only() {
        let clock = SimClock::new();
        let fs = memfs(DevId(1), clock.clone());
        let k = Kernel::with_clock(clock, fs, KernelConfig::default());
        k.mkdir(Pid::INIT, "/proc", Mode::RWXR_XR_X).unwrap();
        k.mount_procfs(Pid::INIT, "/proc").unwrap();
        assert_eq!(
            k.mkdir(Pid::INIT, "/proc/evil", Mode::RWXR_XR_X),
            Err(Errno::EROFS)
        );
        assert_eq!(
            k.open(
                Pid::INIT,
                "/proc/1/status",
                OpenFlags::WRONLY,
                Mode::RW_R__R__
            ),
            Err(Errno::EACCES)
        );
    }

    #[test]
    fn mounts_file_shows_fs_options_and_readonly() {
        let clock = SimClock::new();
        let fs = memfs(DevId(1), clock.clone());
        let k = Kernel::with_clock(clock.clone(), fs, KernelConfig::default());
        k.mkdir(Pid::INIT, "/proc", Mode::RWXR_XR_X).unwrap();
        k.mount_procfs(Pid::INIT, "/proc").unwrap();
        // An overlay mount advertises its layering in the options column.
        let store = cntr_overlay::BlobStore::new();
        let lower = cntr_overlay::blobfs(DevId(21), clock.clone(), store.clone());
        let upper = cntr_overlay::blobfs(DevId(22), clock.clone(), store);
        let overlay = cntr_overlay::OverlayFs::new(DevId(23), vec![lower], upper);
        k.mkdir(Pid::INIT, "/merged", Mode::RWXR_XR_X).unwrap();
        k.mount_fs(Pid::INIT, "/merged", overlay, MountFlags::default())
            .unwrap();
        // A read-only mount overrides the leading `rw`.
        let ro = memfs(DevId(24), clock.clone());
        k.mkdir(Pid::INIT, "/ro", Mode::RWXR_XR_X).unwrap();
        k.mount_fs(
            Pid::INIT,
            "/ro",
            ro,
            MountFlags {
                readonly: true,
                ..MountFlags::default()
            },
        )
        .unwrap();

        let fd = k
            .open(
                Pid::INIT,
                "/proc/1/mounts",
                OpenFlags::RDONLY,
                Mode::RW_R__R__,
            )
            .unwrap();
        let mut buf = [0u8; 4096];
        let n = k.read_fd(Pid::INIT, fd, &mut buf).unwrap();
        k.close(Pid::INIT, fd).unwrap();
        let text = String::from_utf8_lossy(&buf[..n]).to_string();
        assert!(
            text.contains("overlay") && text.contains("lowerdir=1xblobfs"),
            "{text}"
        );
        assert!(
            text.lines()
                .any(|l| l.starts_with("tmpfs") && l.contains(" ro")),
            "{text}"
        );
    }

    #[test]
    fn inode_numbers_never_collide_across_pids() {
        // Every node of every pid directory, for 10k pids, plus the special
        // nodes, must map to a distinct inode — the previous
        // `pid * 1000 + k` scheme aliased neighbouring pids' files.
        let mut seen = std::collections::HashSet::new();
        for special in [1u64, I_NAMESPACES, I_LOCKDEP, I_CNTRSTATS] {
            assert!(seen.insert(special));
        }
        for pid in 1..=10_000u32 {
            let pid = Pid(pid);
            let mut ks = vec![0, F_STATUS, F_ENVIRON, F_CMDLINE, F_CGROUP, F_MOUNTS, D_NS];
            ks.extend((0..ALL_KINDS.len() as u64).map(|i| D_NS + 1 + i));
            for k in ks {
                let ino = pid_ino(pid, k);
                assert!(seen.insert(ino), "collision at pid {pid} k {k}");
                // And the inode classifies back to the same pid.
                match ProcFs::classify(Ino(ino)) {
                    ProcNode::PidDir(p) | ProcNode::NsDir(p) | ProcNode::File(p, _) => {
                        assert_eq!(p, pid)
                    }
                    _ => panic!("pid inode classified as non-pid node"),
                }
            }
        }
    }

    #[test]
    fn proc_cntrstats_renders_live_metrics() {
        let clock = SimClock::new();
        let fs = memfs(DevId(1), clock.clone());
        let k = Kernel::with_clock(clock, fs, KernelConfig::default());
        k.mkdir(Pid::INIT, "/proc", Mode::RWXR_XR_X).unwrap();
        k.mount_procfs(Pid::INIT, "/proc").unwrap();
        // Generate page-cache traffic so the pagecache block is non-trivial.
        let fd = k
            .open(Pid::INIT, "/f", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.write_fd(Pid::INIT, fd, b"stats").unwrap();
        k.close(Pid::INIT, fd).unwrap();
        let fd = k
            .open(Pid::INIT, "/f", OpenFlags::RDONLY, Mode::RW_R__R__)
            .unwrap();
        let mut small = [0u8; 5];
        k.read_fd(Pid::INIT, fd, &mut small).unwrap();
        k.close(Pid::INIT, fd).unwrap();
        let fd = k
            .open(
                Pid::INIT,
                "/proc/cntrstats",
                OpenFlags::RDONLY,
                Mode::RW_R__R__,
            )
            .unwrap();
        let mut buf = vec![0u8; 1 << 20];
        let n = k.read_fd(Pid::INIT, fd, &mut buf).unwrap();
        k.close(Pid::INIT, fd).unwrap();
        let text = String::from_utf8_lossy(&buf[..n]).to_string();
        // vmstat shape: every line is `name value`.
        for line in text.lines() {
            let mut parts = line.split(' ');
            let (name, value) = (parts.next().unwrap(), parts.next().unwrap());
            assert!(parts.next().is_none(), "{line}");
            assert!(!name.is_empty());
            value.parse::<i64>().unwrap();
        }
        assert!(text.contains("pagecache.lookups "), "{text}");
        assert!(text.contains("lockdep.classes "), "{text}");
    }

    /// Reads `path` to its end, `chunk` bytes per `read(2)`.
    fn read_in_chunks(k: &Kernel, path: &str, chunk: usize) -> Vec<u8> {
        let fd = k
            .open(Pid::INIT, path, OpenFlags::RDONLY, Mode::RW_R__R__)
            .unwrap();
        let (mut out, mut buf) = (Vec::new(), vec![0u8; chunk]);
        loop {
            let n = k.read_fd(Pid::INIT, fd, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        k.close(Pid::INIT, fd).unwrap();
        out
    }

    #[test]
    fn small_reads_slice_one_rendering_outside_the_page_cache() {
        let clock = SimClock::new();
        let fs = memfs(DevId(1), clock.clone());
        let k = Kernel::with_clock(clock, fs, KernelConfig::default());
        k.mkdir(Pid::INIT, "/proc", Mode::RWXR_XR_X).unwrap();
        k.mount_procfs(Pid::INIT, "/proc").unwrap();

        // Like procfs, a file reports size 0: its content exists only once
        // a read renders it.
        for path in ["/proc/cntrstats", "/proc/1/status"] {
            assert_eq!(k.stat(Pid::INIT, path).unwrap().size, 0, "{path}");
        }

        // Seven bytes at a time, the reads slice one rendering: every
        // cntrstats line is `name value`, and no NUL appears anywhere.
        let stats = read_in_chunks(&k, "/proc/cntrstats", 7);
        assert!(!stats.contains(&0), "NUL in cntrstats");
        let text = String::from_utf8(stats).unwrap();
        assert!(text.ends_with('\n'), "{text}");
        for line in text.lines() {
            let (name, value) = line.split_once(' ').unwrap_or_else(|| panic!("{line:?}"));
            assert!(!name.is_empty() && !value.contains(' '), "{line:?}");
            value.parse::<i64>().unwrap_or_else(|_| panic!("{line:?}"));
        }
        let status = read_in_chunks(&k, "/proc/1/status", 7);
        assert_eq!(status, read_in_chunks(&k, "/proc/1/status", 4096));
        let status = String::from_utf8(status).unwrap();
        assert!(status.starts_with("Name:\tinit\nState:\t"), "{status}");
        assert!(status.ends_with("Seccomp:\t0\n"), "{status}");

        // Opening and reading a /proc file never touches the page cache.
        let before = k.page_cache_stats();
        for _ in 0..100 {
            read_in_chunks(&k, "/proc/1/status", 1024);
        }
        let after = k.page_cache_stats();
        assert_eq!(after.misses - before.misses, 0);
        assert_eq!(after.invalidations - before.invalidations, 0);
        let dev = k.stat(Pid::INIT, "/proc/1/status").unwrap().dev;
        assert_eq!(k.page_cache_resident_pages_of(dev), 0);
    }

    #[test]
    fn an_open_file_keeps_its_first_rendering() {
        let clock = SimClock::new();
        let fs = memfs(DevId(1), clock.clone());
        let k = Kernel::with_clock(clock, fs, KernelConfig::default());
        k.mkdir(Pid::INIT, "/proc", Mode::RWXR_XR_X).unwrap();
        k.mount_procfs(Pid::INIT, "/proc").unwrap();
        let fd = k
            .open(
                Pid::INIT,
                "/proc/1/environ",
                OpenFlags::RDONLY,
                Mode::RW_R__R__,
            )
            .unwrap();
        let mut head = [0u8; 4];
        assert_eq!(k.read_fd(Pid::INIT, fd, &mut head).unwrap(), 0);
        // The first read rendered an empty environment; a variable set
        // afterwards shows up only in a file opened afterwards.
        k.setenv(Pid::INIT, "LATE", "1").unwrap();
        assert_eq!(k.read_fd(Pid::INIT, fd, &mut head).unwrap(), 0);
        k.close(Pid::INIT, fd).unwrap();
        assert_eq!(read_in_chunks(&k, "/proc/1/environ", 3), b"LATE=1\0");
    }

    // Silence the helper-trait dead-code path.
    #[test]
    fn bind_mount_proc_into_subtree() {
        let clock = SimClock::new();
        let fs = memfs(DevId(1), clock.clone());
        let k = Kernel::with_clock(clock, fs, KernelConfig::default());
        k.mkdir(Pid::INIT, "/proc", Mode::RWXR_XR_X).unwrap();
        k.mount_procfs(Pid::INIT, "/proc").unwrap();
        k.mkdir(Pid::INIT, "/jail", Mode::RWXR_XR_X).unwrap();
        k.mkdir(Pid::INIT, "/jail/proc", Mode::RWXR_XR_X).unwrap();
        k.bind_mount(Pid::INIT, "/proc", "/jail/proc", MountFlags::default())
            .unwrap();
        assert!(k.stat(Pid::INIT, "/jail/proc/1/status").is_ok());
    }
}
