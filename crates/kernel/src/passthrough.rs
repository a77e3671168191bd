//! FUSE passthrough (Linux 6.9, `fs/fuse/passthrough.c` and
//! `fs/fuse/iomode.c`): the kernel half that lets a FUSE server hand a
//! file's data to a backing file of its own.
//!
//! A mount that negotiated `FUSE_PASSTHROUGH` gets a connection entry here
//! when it is mounted. Its server registers an open descriptor with
//! [`Kernel::fuse_backing_open`] (`FUSE_DEV_IOC_BACKING_OPEN`) and puts the
//! returned id in an OPEN reply. The kernel then opens its own backing file
//! for that FUSE open, with the open's flags (`backing_file_open`), and
//! every read and write of the descriptor goes to it: no FUSE request, no
//! transport stage and no page of the FUSE mount. The backing file's page
//! cache is the only one.
//!
//! Each inode of such a mount is in one I/O mode at a time: cached opens
//! or passthrough opens of one backing file, never both. An open that
//! conflicts fails with `EIO`, a server mistake as in Linux.

use crate::kernel::Kernel;
use crate::mount::CacheMode;
use crate::pagecache::FileRef;
use crate::process::FileKind;
use crate::table::lock_class;
use cntr_fs::Filesystem;
use cntr_types::{AccessMode, Capability, DevId, Errno, IdMap, Ino, OpenFlags, Pid, SysResult};
use obs::{LazyCounter, LazyGauge, Subsystem};
use parking_lot::Mutex;
use std::sync::Arc;

/// Backing files opened for passthrough opens.
static OPENS: LazyCounter = LazyCounter::new(Subsystem::Fuse, "fuse.passthrough.opens");
/// Registered backing ids, over every connection.
static BACKING_IDS: LazyGauge = LazyGauge::new(Subsystem::Fuse, "fuse.passthrough.backing-ids");
/// Refused registrations (`EPERM` without `CAP_SYS_ADMIN`, `ELOOP` past
/// `max_stack_depth`) and opens refused for their I/O mode (`EBUSY` or
/// `ETXTBSY` inside Linux, `EIO` to the caller).
static REFUSED: LazyCounter = LazyCounter::new(Subsystem::Fuse, "fuse.passthrough.refused");

/// One FUSE connection that negotiated passthrough.
struct Conn {
    /// The mount's `max_stack_depth`: a backing file must stack less deep.
    max_stack_depth: u8,
    /// Backing id → the registered file.
    backing: IdMap<u32, BackingPath>,
    next_id: u32,
    /// The I/O mode of every inode with an open file.
    inodes: IdMap<Ino, IoMode>,
}

/// Where a registered backing file lives: what `backing_file_open` opens
/// (Linux keeps the server's `struct file` for its `f_path`). The server
/// keeps the inode itself alive through its `O_PATH` anchor until the
/// FORGET that closes the id.
#[derive(Clone)]
struct BackingPath {
    fs: Arc<dyn Filesystem>,
    ino: Ino,
    /// The backing filesystem's id (its page-cache key).
    dev: DevId,
    /// The cache policy of the mount the server opened the file through.
    cache: CacheMode,
}

/// One inode's open files: all cached, or all passthrough to `backing`.
#[derive(Default)]
struct IoMode {
    cached: u32,
    passthrough: u32,
    backing: Option<u32>,
}

/// The backing tables of a machine's passthrough connections.
pub(crate) struct BackingTables {
    conns: Mutex<IdMap<DevId, Conn>>,
}

impl BackingTables {
    pub(crate) fn new() -> Arc<BackingTables> {
        Arc::new(BackingTables {
            conns: Mutex::new_class(lock_class::FUSE_BACKING, IdMap::default()),
        })
    }

    /// Opens the connection of a passthrough mount (`fuse_fill_super`).
    /// Mounting one filesystem twice keeps its table.
    pub(crate) fn attach(&self, fs: &dyn Filesystem) {
        let features = fs.features();
        if features.passthrough {
            // Listed in `/proc/cntrstats` from the first such mount on.
            let _ = (OPENS.get(), BACKING_IDS.get(), REFUSED.get());
            self.conns.lock().entry(fs.fs_id()).or_insert(Conn {
                max_stack_depth: features.stack_depth,
                backing: IdMap::default(),
                next_id: 1,
                inodes: IdMap::default(),
            });
        }
    }

    /// Ends the connections of unmounted filesystems, releasing their
    /// backing files.
    pub(crate) fn detach(&self, devs: &[DevId]) {
        let gone: Vec<Conn> = {
            let mut conns = self.conns.lock();
            devs.iter().filter_map(|d| conns.remove(d)).collect()
        };
        let ids: usize = gone.iter().map(|c| c.backing.len()).sum();
        BACKING_IDS.add(-(ids as i64));
    }
}

/// A dead machine's backing ids die with it.
impl Drop for BackingTables {
    fn drop(&mut self) {
        let ids: usize = self.conns.get_mut().values().map(|c| c.backing.len()).sum();
        BACKING_IDS.add(-(ids as i64));
    }
}

/// The backing file a passthrough open reads and writes.
pub struct BackingOpen {
    /// The backing filesystem's id (its page-cache key).
    pub dev: DevId,
    /// The cache policy of the backing file's mount.
    pub cache: CacheMode,
    /// The kernel's own open of the backing file.
    pub file: Arc<FileRef>,
    /// Reports a write's end offset to the FUSE filesystem.
    pub end_write: Arc<dyn Fn(u64) + Send + Sync>,
}

/// An open file of a passthrough-capable mount, counted in its inode's I/O
/// mode until the file is closed.
pub struct IoOpen {
    tables: Arc<BackingTables>,
    conn: DevId,
    ino: Ino,
    /// Counted as a passthrough open.
    passthrough: bool,
    /// The backing file of a passthrough open.
    pub backing: Option<BackingOpen>,
}

impl Drop for IoOpen {
    fn drop(&mut self) {
        let mut conns = self.tables.conns.lock();
        let Some(conn) = conns.get_mut(&self.conn) else {
            return;
        };
        let Some(mode) = conn.inodes.get_mut(&self.ino) else {
            return;
        };
        if self.passthrough {
            mode.passthrough -= 1;
        } else {
            mode.cached -= 1;
        }
        // The last close leaves the inode free to change mode.
        if mode.cached == 0 && mode.passthrough == 0 {
            conn.inodes.remove(&self.ino);
        }
    }
}

/// The flags the kernel opens a backing file with: the FUSE open's, less
/// the ones that act only at open time (`do_dentry_open`), and readable
/// and without `O_APPEND` where the backing mount caches writes, as any
/// writer of such a mount (see `Kernel::open_resolved`).
pub(crate) fn backing_flags(flags: OpenFlags, cache: CacheMode) -> OpenFlags {
    let bits = flags.bits() & !(OpenFlags::CREAT | OpenFlags::EXCL | OpenFlags::TRUNC);
    if cache.writeback && flags.mode.writable() {
        OpenFlags::new(AccessMode::ReadWrite, bits & !OpenFlags::APPEND)
    } else {
        OpenFlags::new(flags.mode, bits)
    }
}

impl Kernel {
    /// `ioctl(fuse_fd, FUSE_DEV_IOC_BACKING_OPEN)`: registers `pid`'s open
    /// file `fd` as a backing file of connection `conn` and returns its id.
    ///
    /// Needs `CAP_SYS_ADMIN` (`EPERM`), a regular file (`EOPNOTSUPP`) and
    /// a filesystem that stacks less deep than the mount's
    /// `max_stack_depth` (`ELOOP`). `ENODEV` if `conn` is no passthrough
    /// mount of this machine.
    pub fn fuse_backing_open(&self, pid: Pid, conn: DevId, fd: u32) -> SysResult<u32> {
        self.charge_syscall();
        let refuse = |e: Errno| {
            REFUSED.inc();
            Err(e)
        };
        if !self.creds(pid)?.caps.has(Capability::SysAdmin) {
            return refuse(Errno::EPERM);
        }
        let file = self.get_file(pid, fd)?;
        let FileKind::Regular {
            dev,
            cache,
            file: fref,
            ..
        } = &file.kind
        else {
            return Err(Errno::EOPNOTSUPP);
        };
        let path = BackingPath {
            fs: Arc::clone(&fref.fs),
            ino: fref.ino,
            dev: *dev,
            cache: *cache,
        };
        let depth = path.fs.features().stack_depth;
        let mut conns = self.inner.passthrough.conns.lock();
        let c = conns.get_mut(&conn).ok_or(Errno::ENODEV)?;
        if depth >= c.max_stack_depth {
            drop(conns);
            return refuse(Errno::ELOOP);
        }
        let id = c.next_id;
        c.next_id += 1;
        c.backing.insert(id, path);
        BACKING_IDS.inc();
        Ok(id)
    }

    /// `ioctl(fuse_fd, FUSE_DEV_IOC_BACKING_CLOSE)`: drops backing id `id`
    /// of connection `conn`. Files already open on it keep their backing
    /// file; a later OPEN reply may no longer name it.
    pub fn fuse_backing_close(&self, pid: Pid, conn: DevId, id: u32) -> SysResult<()> {
        self.charge_syscall();
        if !self.creds(pid)?.caps.has(Capability::SysAdmin) {
            return Err(Errno::EPERM);
        }
        let path = {
            let mut conns = self.inner.passthrough.conns.lock();
            let c = conns.get_mut(&conn).ok_or(Errno::ENODEV)?;
            c.backing.remove(&id).ok_or(Errno::ENOENT)?
        };
        BACKING_IDS.dec();
        drop(path);
        Ok(())
    }

    /// Live backing ids of connection `conn` (the FUSE mount's device).
    pub fn fuse_backing_ids(&self, conn: DevId) -> usize {
        self.inner
            .passthrough
            .conns
            .lock()
            .get(&conn)
            .map_or(0, |c| c.backing.len())
    }

    /// Enters a new open file of `fs` (a regular file, open as `fref`) in
    /// its inode's I/O mode (`fuse_file_io_open`). `None` if `fs` did not
    /// negotiate passthrough. A passthrough open also opens its backing
    /// file with `flags`.
    pub(crate) fn io_open(
        &self,
        fs: &Arc<dyn Filesystem>,
        fref: &FileRef,
        flags: OpenFlags,
    ) -> SysResult<Option<IoOpen>> {
        if !fs.features().passthrough {
            return Ok(None);
        }
        let conn = fs.fs_id();
        let passthrough = fs.passthrough(fref.ino, fref.fh);
        let backing = {
            let mut conns = self.inner.passthrough.conns.lock();
            let Some(c) = conns.get_mut(&conn) else {
                // Served but not mounted here: no table, no passthrough.
                return match passthrough {
                    None => Ok(None),
                    Some(_) => Err(Errno::EIO),
                };
            };
            let file = passthrough
                .as_ref()
                .map(|p| c.backing.get(&p.backing_id).cloned());
            let mode = c.inodes.entry(fref.ino).or_default();
            let conflict = match &passthrough {
                None => mode.passthrough > 0,
                Some(p) => mode.cached > 0 || mode.backing.is_some_and(|b| b != p.backing_id),
            };
            if conflict || matches!(file, Some(None)) {
                if mode.cached == 0 && mode.passthrough == 0 {
                    c.inodes.remove(&fref.ino);
                }
                drop(conns);
                REFUSED.inc();
                return Err(Errno::EIO);
            }
            match &passthrough {
                None => mode.cached += 1,
                Some(p) => {
                    mode.passthrough += 1;
                    mode.backing = Some(p.backing_id);
                }
            }
            file.flatten()
        };
        let mut io = IoOpen {
            tables: Arc::clone(&self.inner.passthrough),
            conn,
            ino: fref.ino,
            passthrough: passthrough.is_some(),
            backing: None,
        };
        if let (Some(path), Some(p)) = (backing, passthrough) {
            // `backing_file_open`: the kernel's own open of the file the
            // server registered, with this open's flags. If it fails, the
            // drop of `io` takes the open out of the inode's mode again.
            let fh = path.fs.open(path.ino, backing_flags(flags, path.cache))?;
            io.backing = Some(BackingOpen {
                dev: path.dev,
                cache: path.cache,
                file: Arc::new(FileRef {
                    fs: path.fs,
                    ino: path.ino,
                    fh,
                }),
                end_write: p.end_write,
            });
            OPENS.inc();
        }
        Ok(Some(io))
    }
}
