//! Test environments and the suite runner.

use cntr_core::CntrfsServer;
use cntr_engine::runtime::boot_host;
use cntr_fs::XattrFlags;
use cntr_fuse::{FuseClientFs, FuseConfig, InlineTransport};
use cntr_kernel::vfs::Whence;
use cntr_kernel::{Kernel, MountFlags};
use cntr_types::{
    DevId, Errno, FileType, Gid, Mode, OpenFlags, Pid, RenameFlags, SimClock, Stat, Timespec, Uid,
};
use parking_lot::Mutex;

/// Result type used by every test body: `Err` carries a failure message.
pub type R = Result<(), String>;

/// One suite test.
pub struct TestCase {
    /// xfstests-style id within the generic group.
    pub id: u32,
    /// Short name.
    pub name: &'static str,
    /// The test body.
    pub run: fn(&TestEnv) -> R,
    /// For the paper's four known CntrFS failures: the documented reason.
    pub expected_cntrfs_failure: Option<&'static str>,
}

/// Outcome of one test run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The test passed.
    Pass,
    /// The test failed with a message.
    Fail(String),
}

/// Results of a whole suite run.
pub struct SuiteReport {
    /// Filesystem type the suite ran against.
    pub fs_type: String,
    /// `(id, name, outcome)` per test, in execution order.
    pub results: Vec<(u32, &'static str, Outcome)>,
}

impl SuiteReport {
    /// Number of passing tests.
    pub fn passed(&self) -> usize {
        self.results
            .iter()
            .filter(|(_, _, o)| *o == Outcome::Pass)
            .count()
    }

    /// Ids of failing tests, ascending.
    pub fn failed_ids(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .results
            .iter()
            .filter(|(_, _, o)| matches!(o, Outcome::Fail(_)))
            .map(|(id, _, _)| *id)
            .collect();
        v.sort_unstable();
        v
    }

    /// Renders the paper-style summary table.
    pub fn render(&self, cases: &[TestCase]) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "xfstests (generic group) against {}\n{}\n",
            self.fs_type,
            "-".repeat(64)
        ));
        for (id, name, outcome) in &self.results {
            let case = cases.iter().find(|c| c.id == *id);
            match outcome {
                Outcome::Pass => out.push_str(&format!("generic/{id:03} {name:<40} [ok]\n")),
                Outcome::Fail(msg) => {
                    let expected = case
                        .and_then(|c| c.expected_cntrfs_failure)
                        .map(|r| format!(" (expected: {r})"))
                        .unwrap_or_default();
                    out.push_str(&format!(
                        "generic/{id:03} {name:<40} [FAIL]{expected}\n    {msg}\n"
                    ));
                }
            }
        }
        out.push_str(&format!(
            "{}\npassed {} of {} ({:.2}%)\n",
            "-".repeat(64),
            self.passed(),
            self.results.len(),
            100.0 * self.passed() as f64 / self.results.len().max(1) as f64
        ));
        out
    }
}

/// The environment tests run in: a kernel, a test process, and a mounted
/// filesystem under test at `mnt`.
pub struct TestEnv {
    /// The machine.
    pub kernel: Kernel,
    /// The process running the tests (root).
    pub pid: Pid,
    /// Mountpoint of the filesystem under test.
    pub mnt: String,
    /// Current per-test directory (managed by the runner).
    cur: Mutex<String>,
    /// Filesystem type under test.
    pub fs_type: String,
}

/// Builds the paper's environment: CntrFS mounted over tmpfs.
///
/// The backing tmpfs is the host root filesystem (a `MemFs`); the CntrFS
/// server resolves paths there, and the client is mounted at `/mnt/cntrfs`
/// with CNTR's optimized FUSE configuration.
pub fn cntrfs_over_tmpfs() -> TestEnv {
    let k = boot_host(SimClock::new());
    let pid = k.fork(Pid::INIT).expect("fork test proc");
    k.mkdir(pid, "/mnt", Mode::RWXR_XR_X).expect("mkdir /mnt");
    k.mkdir(pid, "/mnt/cntrfs", Mode::RWXR_XR_X)
        .expect("mkdir mnt");
    let server_pid = k.fork(Pid::INIT).expect("fork server");
    let server = CntrfsServer::new(k.clone(), server_pid);
    let transport = InlineTransport::new(server);
    let client = FuseClientFs::mount(
        DevId(0xCFFF),
        k.clock().clone(),
        k.cost(),
        FuseConfig::optimized(),
        transport,
    )
    .expect("mount cntrfs");
    k.mount_fs(pid, "/mnt/cntrfs", client, MountFlags::default())
        .expect("mount");
    // Tests operate in a scratch area that maps to host /xfstests.
    k.mkdir(pid, "/mnt/cntrfs/xfstests", Mode::RWXR_XR_X)
        .expect("scratch dir");
    TestEnv {
        kernel: k,
        pid,
        mnt: "/mnt/cntrfs/xfstests".to_string(),
        cur: Mutex::new(String::new()),
        fs_type: "cntrfs (over tmpfs)".to_string(),
    }
}

/// Builds a native-OverlayFs environment: two blob-backed read-only lowers
/// (one with pre-existing content so merge/copy-up paths are live) under a
/// blob-backed upper, mounted at `/mnt/overlay`.
pub fn native_overlayfs() -> TestEnv {
    let k = boot_host(SimClock::new());
    let pid = k.fork(Pid::INIT).expect("fork test proc");
    k.mkdir(pid, "/mnt", Mode::RWXR_XR_X).expect("mkdir");
    k.mkdir(pid, "/mnt/overlay", Mode::RWXR_XR_X)
        .expect("mkdir");
    let overlay = build_overlay(k.clock().clone(), 0xA000);
    k.mount_fs(pid, "/mnt/overlay", overlay, MountFlags::default())
        .expect("mount");
    k.mkdir(pid, "/mnt/overlay/xfstests", Mode::RWXR_XR_X)
        .expect("scratch dir");
    TestEnv {
        kernel: k,
        pid,
        mnt: "/mnt/overlay/xfstests".to_string(),
        cur: Mutex::new(String::new()),
        fs_type: "overlay (native)".to_string(),
    }
}

/// Builds the paper's environment over the new storage backend: CntrFS
/// mounted on top of an **OverlayFs** (instead of tmpfs). The 90/94 split
/// must be identical — the four failures are CntrFS architectural limits,
/// not properties of the backing filesystem.
pub fn cntrfs_over_overlayfs() -> TestEnv {
    let k = boot_host(SimClock::new());
    let pid = k.fork(Pid::INIT).expect("fork test proc");
    // The backing overlay replaces tmpfs under the server's /xfstests.
    k.mkdir(Pid::INIT, "/xfstests", Mode::RWXR_XR_X)
        .expect("backing dir");
    let overlay = build_overlay(k.clock().clone(), 0xB000);
    k.mount_fs(Pid::INIT, "/xfstests", overlay, MountFlags::default())
        .expect("mount backing overlay");

    k.mkdir(pid, "/mnt", Mode::RWXR_XR_X).expect("mkdir /mnt");
    k.mkdir(pid, "/mnt/cntrfs", Mode::RWXR_XR_X)
        .expect("mkdir mnt");
    let server_pid = k.fork(Pid::INIT).expect("fork server");
    let server = CntrfsServer::new(k.clone(), server_pid);
    let transport = InlineTransport::new(server);
    let client = FuseClientFs::mount(
        DevId(0xCFFE),
        k.clock().clone(),
        k.cost(),
        FuseConfig::optimized(),
        transport,
    )
    .expect("mount cntrfs");
    k.mount_fs(pid, "/mnt/cntrfs", client, MountFlags::default())
        .expect("mount");
    TestEnv {
        kernel: k,
        pid,
        mnt: "/mnt/cntrfs/xfstests".to_string(),
        cur: Mutex::new(String::new()),
        fs_type: "cntrfs (over overlayfs)".to_string(),
    }
}

/// Assembles the overlay-under-test: lower0 carries preseeded files (so
/// lookups traverse the merge path), lower1 is an empty base, the upper is
/// writable; all three share one blob store.
fn build_overlay(clock: SimClock, dev_base: u64) -> std::sync::Arc<cntr_overlay::OverlayFs> {
    use cntr_fs::Filesystem;
    let store = cntr_overlay::BlobStore::new();
    let ctx = cntr_fs::FsContext::root();
    let seeded = cntr_overlay::blobfs(DevId(dev_base + 1), clock.clone(), store.clone());
    let dir = seeded
        .mkdir(cntr_types::Ino::ROOT, "preexisting", Mode::RWXR_XR_X, &ctx)
        .expect("seed dir");
    let f = seeded
        .mknod(
            dir.ino,
            "lower-file",
            FileType::Regular,
            Mode::RW_R__R__,
            0,
            &ctx,
        )
        .expect("seed file");
    let fh = seeded
        .open(f.ino, cntr_types::OpenFlags::WRONLY)
        .expect("open");
    seeded
        .write(f.ino, fh, 0, b"from the lower layer")
        .expect("write");
    seeded.release(f.ino, fh).expect("release");
    let base = cntr_overlay::blobfs(DevId(dev_base + 2), clock.clone(), store.clone());
    let upper = cntr_overlay::blobfs(DevId(dev_base + 3), clock, store);
    cntr_overlay::OverlayFs::new(DevId(dev_base), vec![seeded, base], upper)
}

/// Builds a native-tmpfs environment (control: all 94 tests pass).
pub fn native_tmpfs() -> TestEnv {
    let k = boot_host(SimClock::new());
    let pid = k.fork(Pid::INIT).expect("fork test proc");
    k.mkdir(pid, "/mnt", Mode::RWXR_XR_X).expect("mkdir");
    k.mkdir(pid, "/mnt/tmpfs", Mode::RWXR_XR_X).expect("mkdir");
    let fs = cntr_fs::memfs::memfs(DevId(0xEEEE), k.clock().clone());
    k.mount_fs(pid, "/mnt/tmpfs", fs, MountFlags::default())
        .expect("mount");
    TestEnv {
        kernel: k,
        pid,
        mnt: "/mnt/tmpfs".to_string(),
        cur: Mutex::new(String::new()),
        fs_type: "tmpfs (native)".to_string(),
    }
}

fn fmt_err(op: &str, e: Errno) -> String {
    format!("{op}: {e}")
}

impl TestEnv {
    /// Enters a fresh scratch directory for test `id`.
    pub fn enter(&self, id: u32) -> R {
        let dir = format!("{}/t{id:03}", self.mnt);
        self.kernel
            .mkdir(self.pid, &dir, Mode::RWXR_XR_X)
            .map_err(|e| fmt_err("mkdir scratch", e))?;
        *self.cur.lock() = dir;
        Ok(())
    }

    /// Absolute path of `rel` within the current scratch directory.
    pub fn p(&self, rel: &str) -> String {
        if rel.is_empty() {
            self.cur.lock().clone()
        } else {
            format!("{}/{rel}", self.cur.lock())
        }
    }

    /// Creates `rel` with `data`.
    pub fn write_file(&self, rel: &str, data: &[u8]) -> R {
        let fd = self.open(rel, OpenFlags::create())?;
        let mut off = 0;
        while off < data.len() {
            off += self
                .kernel
                .write_fd(self.pid, fd, &data[off..])
                .map_err(|e| fmt_err("write", e))?;
        }
        self.close(fd)
    }

    /// Reads the whole of `rel`.
    pub fn read_file(&self, rel: &str) -> Result<Vec<u8>, String> {
        let fd = self.open(rel, OpenFlags::RDONLY)?;
        let mut out = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            let n = self
                .kernel
                .read_fd(self.pid, fd, &mut buf)
                .map_err(|e| fmt_err("read", e))?;
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        self.close(fd)?;
        Ok(out)
    }

    /// `open(2)`.
    pub fn open(&self, rel: &str, flags: OpenFlags) -> Result<u32, String> {
        self.kernel
            .open(self.pid, &self.p(rel), flags, Mode::RW_R__R__)
            .map_err(|e| fmt_err(&format!("open {rel}"), e))
    }

    /// `open(2)` expecting a specific errno.
    pub fn open_expect_err(&self, rel: &str, flags: OpenFlags, want: Errno) -> R {
        match self
            .kernel
            .open(self.pid, &self.p(rel), flags, Mode::RW_R__R__)
        {
            Err(e) if e == want => Ok(()),
            Err(e) => Err(format!("open {rel}: expected {want}, got {e}")),
            Ok(_) => Err(format!("open {rel}: expected {want}, succeeded")),
        }
    }

    /// `close(2)`.
    pub fn close(&self, fd: u32) -> R {
        self.kernel
            .close(self.pid, fd)
            .map_err(|e| fmt_err("close", e))
    }

    /// Positional write.
    pub fn pwrite(&self, fd: u32, off: u64, data: &[u8]) -> Result<usize, String> {
        self.kernel
            .pwrite(self.pid, fd, off, data)
            .map_err(|e| fmt_err("pwrite", e))
    }

    /// Positional read.
    pub fn pread(&self, fd: u32, off: u64, buf: &mut [u8]) -> Result<usize, String> {
        self.kernel
            .pread(self.pid, fd, off, buf)
            .map_err(|e| fmt_err("pread", e))
    }

    /// `lseek(2)`.
    pub fn lseek(&self, fd: u32, off: i64, whence: Whence) -> Result<u64, String> {
        self.kernel
            .lseek(self.pid, fd, off, whence)
            .map_err(|e| fmt_err("lseek", e))
    }

    /// `mkdir(2)`.
    pub fn mkdir(&self, rel: &str) -> R {
        self.kernel
            .mkdir(self.pid, &self.p(rel), Mode::RWXR_XR_X)
            .map_err(|e| fmt_err(&format!("mkdir {rel}"), e))
    }

    /// `mknod(2)`.
    pub fn mknod(&self, rel: &str, ftype: FileType, rdev: u64) -> R {
        self.kernel
            .mknod(self.pid, &self.p(rel), ftype, Mode::RW_R__R__, rdev)
            .map_err(|e| fmt_err(&format!("mknod {rel}"), e))
    }

    /// `rmdir(2)`.
    pub fn rmdir(&self, rel: &str) -> R {
        self.kernel
            .rmdir(self.pid, &self.p(rel))
            .map_err(|e| fmt_err(&format!("rmdir {rel}"), e))
    }

    /// `unlink(2)`.
    pub fn unlink(&self, rel: &str) -> R {
        self.kernel
            .unlink(self.pid, &self.p(rel))
            .map_err(|e| fmt_err(&format!("unlink {rel}"), e))
    }

    /// `rename(2)`.
    pub fn rename(&self, from: &str, to: &str) -> R {
        self.kernel
            .rename(self.pid, &self.p(from), &self.p(to), RenameFlags::NONE)
            .map_err(|e| fmt_err(&format!("rename {from}->{to}"), e))
    }

    /// `renameat2(2)` with flags.
    pub fn rename_flags(&self, from: &str, to: &str, flags: RenameFlags) -> Result<(), Errno> {
        self.kernel
            .rename(self.pid, &self.p(from), &self.p(to), flags)
    }

    /// `link(2)`.
    pub fn link(&self, from: &str, to: &str) -> R {
        self.kernel
            .link(self.pid, &self.p(from), &self.p(to))
            .map_err(|e| fmt_err(&format!("link {from}->{to}"), e))
    }

    /// `symlink(2)`.
    pub fn symlink(&self, target: &str, at: &str) -> R {
        self.kernel
            .symlink(self.pid, target, &self.p(at))
            .map_err(|e| fmt_err(&format!("symlink {at}"), e))
    }

    /// `readlink(2)`.
    pub fn readlink(&self, rel: &str) -> Result<String, String> {
        self.kernel
            .readlink(self.pid, &self.p(rel))
            .map_err(|e| fmt_err(&format!("readlink {rel}"), e))
    }

    /// `stat(2)`.
    pub fn stat(&self, rel: &str) -> Result<Stat, String> {
        self.kernel
            .stat(self.pid, &self.p(rel))
            .map_err(|e| fmt_err(&format!("stat {rel}"), e))
    }

    /// `lstat(2)`.
    pub fn lstat(&self, rel: &str) -> Result<Stat, String> {
        self.kernel
            .lstat(self.pid, &self.p(rel))
            .map_err(|e| fmt_err(&format!("lstat {rel}"), e))
    }

    /// Raw stat result (to assert errnos).
    pub fn try_stat(&self, rel: &str) -> Result<Stat, Errno> {
        self.kernel.stat(self.pid, &self.p(rel))
    }

    /// Sorted directory entry names, excluding `.`/`..`.
    pub fn readdir_names(&self, rel: &str) -> Result<Vec<String>, String> {
        let mut names: Vec<String> = self
            .kernel
            .readdir(self.pid, &self.p(rel))
            .map_err(|e| fmt_err(&format!("readdir {rel}"), e))?
            .into_iter()
            .map(|d| d.name)
            .filter(|n| n != "." && n != "..")
            .collect();
        names.sort();
        Ok(names)
    }

    /// `chmod(2)`.
    pub fn chmod(&self, rel: &str, mode: Mode) -> R {
        self.kernel
            .chmod(self.pid, &self.p(rel), mode)
            .map_err(|e| fmt_err(&format!("chmod {rel}"), e))
    }

    /// `chown(2)`.
    pub fn chown(&self, rel: &str, uid: u32, gid: u32) -> R {
        self.kernel
            .chown(self.pid, &self.p(rel), Uid(uid), Gid(gid))
            .map_err(|e| fmt_err(&format!("chown {rel}"), e))
    }

    /// `truncate(2)`.
    pub fn truncate(&self, rel: &str, size: u64) -> R {
        self.kernel
            .truncate(self.pid, &self.p(rel), size)
            .map_err(|e| fmt_err(&format!("truncate {rel}"), e))
    }

    /// `utimensat(2)`.
    pub fn utimens(&self, rel: &str, atime: Option<Timespec>, mtime: Option<Timespec>) -> R {
        self.kernel
            .utimens(self.pid, &self.p(rel), atime, mtime)
            .map_err(|e| fmt_err(&format!("utimens {rel}"), e))
    }

    /// `fsync(2)`.
    pub fn fsync(&self, fd: u32) -> R {
        self.kernel
            .fsync(self.pid, fd, false)
            .map_err(|e| fmt_err("fsync", e))
    }

    /// `setxattr(2)`.
    pub fn setxattr(
        &self,
        rel: &str,
        name: &str,
        value: &[u8],
        flags: XattrFlags,
    ) -> Result<(), Errno> {
        self.kernel
            .setxattr(self.pid, &self.p(rel), name, value, flags)
    }

    /// `getxattr(2)`.
    pub fn getxattr(&self, rel: &str, name: &str) -> Result<Vec<u8>, Errno> {
        self.kernel.getxattr(self.pid, &self.p(rel), name)
    }

    /// `listxattr(2)`.
    pub fn listxattr(&self, rel: &str) -> Result<Vec<String>, String> {
        self.kernel
            .listxattr(self.pid, &self.p(rel))
            .map_err(|e| fmt_err("listxattr", e))
    }

    /// `removexattr(2)`.
    pub fn removexattr(&self, rel: &str, name: &str) -> Result<(), Errno> {
        self.kernel.removexattr(self.pid, &self.p(rel), name)
    }

    /// `fallocate(2)`.
    pub fn fallocate(
        &self,
        fd: u32,
        offset: u64,
        len: u64,
        mode: cntr_fs::FallocateMode,
    ) -> Result<(), Errno> {
        self.kernel.fallocate(self.pid, fd, offset, len, mode)
    }

    /// `name_to_handle_at(2)`.
    pub fn name_to_handle(&self, rel: &str) -> Result<u64, Errno> {
        self.kernel.name_to_handle(self.pid, &self.p(rel))
    }

    /// Runs `f` as an unprivileged user process (fresh fork, no caps).
    pub fn with_user<T>(&self, uid: u32, gid: u32, f: impl FnOnce(Pid) -> T) -> Result<T, String> {
        let child = self.kernel.fork(self.pid).map_err(|e| fmt_err("fork", e))?;
        let mut creds = cntr_kernel::cred::Credentials::host_root();
        creds.uid = Uid(uid);
        creds.gid = Gid(gid);
        creds.caps = cntr_types::CapSet::EMPTY;
        creds.bounding = cntr_types::CapSet::EMPTY;
        self.kernel
            .set_creds(child, creds)
            .map_err(|e| fmt_err("set_creds", e))?;
        let out = f(child);
        let _ = self.kernel.exit(child);
        let _ = self.kernel.reap(child);
        Ok(out)
    }

    /// Sets `RLIMIT_FSIZE` on the test process.
    pub fn set_fsize_limit(&self, soft: u64) -> R {
        let mut limits = self
            .kernel
            .rlimits(self.pid)
            .map_err(|e| fmt_err("getrlimit", e))?;
        limits
            .set(
                cntr_types::RlimitKind::Fsize,
                cntr_types::Rlimit { soft, hard: soft },
            )
            .map_err(|e| fmt_err("setrlimit", e))?;
        self.kernel
            .set_rlimits(self.pid, limits)
            .map_err(|e| fmt_err("set_rlimits", e))
    }

    /// Clears `RLIMIT_FSIZE` back to unlimited (best effort: raising the
    /// hard limit needs a privileged path, so we replace the whole set).
    pub fn clear_fsize_limit(&self) {
        let _ = self
            .kernel
            .set_rlimits(self.pid, cntr_types::RlimitSet::default());
    }
}

/// Asserts a condition inside a test body.
pub fn ensure(cond: bool, msg: &str) -> R {
    if cond {
        Ok(())
    } else {
        Err(msg.to_string())
    }
}

/// Asserts a result failed with `want`.
pub fn expect_errno<T: std::fmt::Debug>(r: Result<T, Errno>, want: Errno, what: &str) -> R {
    match r {
        Err(e) if e == want => Ok(()),
        Err(e) => Err(format!("{what}: expected {want}, got {e}")),
        Ok(v) => Err(format!("{what}: expected {want}, got Ok({v:?})")),
    }
}

/// Runs every test against `env`.
pub fn run_suite(env: &TestEnv, cases: &[TestCase]) -> SuiteReport {
    let mut results = Vec::with_capacity(cases.len());
    for case in cases {
        let outcome = match env.enter(case.id).and_then(|()| (case.run)(env)) {
            Ok(()) => Outcome::Pass,
            Err(msg) => Outcome::Fail(msg),
        };
        results.push((case.id, case.name, outcome));
    }
    SuiteReport {
        fs_type: env.fs_type.clone(),
        results,
    }
}
