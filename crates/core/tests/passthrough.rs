//! FUSE passthrough on a CntrFS mount of the shipping profile.
//!
//! The server runs in the same kernel as the mount and serves a memfs
//! mounted at `/srv` (its root, by `chroot`); the client is mounted at
//! `/mnt`. The first OPEN of each inode registers the server's descriptor
//! as the inode's backing file, so file data never crosses FUSE and is
//! cached once, under the backing filesystem.

use cntr_core::CntrfsServer;
use cntr_engine::runtime::boot_host;
use cntr_fs::memfs::memfs;
use cntr_fuse::proto::{Reply, Request};
use cntr_fuse::server::FuseHandler;
use cntr_fuse::{FuseClientFs, FuseConfig, InlineTransport};
use cntr_kernel::{Kernel, MountFlags};
use cntr_types::{CapSet, Capability, DevId, Errno, Mode, OpenFlags, Pid, SimClock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const P: Pid = Pid::INIT;
/// The FUSE mount's device: the connection.
const FUSE: DevId = DevId(0xF5);
/// The memfs the server serves.
const BACKING: DevId = DevId(0x5E);
const MIB: usize = 1 << 20;

/// The server as it is, or with `FOPEN_PASSTHROUGH` stripped from its OPEN
/// replies while `strip` is set: a server that mixes I/O modes on one
/// inode.
struct Meddler {
    server: CntrfsServer,
    strip: Arc<AtomicBool>,
}

impl FuseHandler for Meddler {
    fn handle(&self, req: Request) -> Reply {
        match self.server.handle(req) {
            Reply::Opened { fh, keep_cache, .. } if self.strip.load(Ordering::Relaxed) => {
                Reply::Opened {
                    fh,
                    keep_cache,
                    passthrough: None,
                }
            }
            reply => reply,
        }
    }
}

struct Mount {
    k: Kernel,
    client: Arc<FuseClientFs>,
    server: CntrfsServer,
    /// Descriptors the server process held before the server started.
    base_fds: usize,
    strip: Arc<AtomicBool>,
}

/// CntrFS with `config` at `/mnt`, serving the memfs at `/srv`;
/// `prepare` runs on the server process before the server starts.
fn mount_with(config: FuseConfig, prepare: impl FnOnce(&Kernel, Pid)) -> Mount {
    let k = boot_host(SimClock::new());
    for dir in ["/mnt", "/srv"] {
        k.mkdir(P, dir, Mode::RWXR_XR_X).unwrap();
    }
    k.mount_fs(
        P,
        "/srv",
        memfs(BACKING, k.clock().clone()),
        MountFlags::default(),
    )
    .unwrap();
    let server_pid = k.fork(P).unwrap();
    k.chroot(server_pid, "/srv").unwrap();
    prepare(&k, server_pid);
    let base_fds = k.fd_count(server_pid).unwrap();
    let server = CntrfsServer::new(k.clone(), server_pid, config.published_lookup).unwrap();
    let strip = Arc::new(AtomicBool::new(false));
    let handler = Meddler {
        server: server.clone(),
        strip: Arc::clone(&strip),
    };
    let client = FuseClientFs::mount(
        FUSE,
        k.clock().clone(),
        config,
        InlineTransport::new(handler),
    )
    .unwrap();
    k.mount_fs(P, "/mnt", client.clone(), MountFlags::default())
        .unwrap();
    Mount {
        k,
        client,
        server,
        base_fds,
        strip,
    }
}

fn mount(config: FuseConfig) -> Mount {
    mount_with(config, |_, _| {})
}

impl Mount {
    fn open(&self, path: &str, flags: OpenFlags) -> Result<u32, Errno> {
        self.k.open(P, path, flags, Mode::RW_R__R__)
    }

    /// Writes `data` to `/srv/<name>` natively, then drops every cached
    /// page, so the next read through the mount starts cold.
    fn backing_file(&self, name: &str, data: &[u8]) {
        let fd = self
            .open(&format!("/srv/{name}"), OpenFlags::create())
            .unwrap();
        assert_eq!(self.k.pwrite(P, fd, 0, data), Ok(data.len()));
        self.k.close(P, fd).unwrap();
        self.k.drop_caches().unwrap();
    }

    /// Reads `path` whole through one descriptor.
    fn read_whole(&self, path: &str, len: usize) -> Vec<u8> {
        let fd = self.open(path, OpenFlags::RDONLY).unwrap();
        let mut buf = vec![0u8; len + 1];
        let n = self.k.pread(P, fd, 0, &mut buf).unwrap();
        self.k.close(P, fd).unwrap();
        buf.truncate(n);
        buf
    }

    /// FUSE READ and WRITE requests sent so far.
    fn data_requests(&self) -> (u64, u64) {
        let s = self.client.conn_stats();
        (s.reads, s.writes)
    }

    /// Drops every lookup the kernel holds on `path`'s inode (FORGET).
    fn forget(&self, path: &str) {
        let ino = self.k.stat(P, path).unwrap().ino;
        cntr_fs::Filesystem::forget(&*self.client, ino, 1 << 20);
        self.client.flush_forgets();
    }
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ seed)
        .collect()
}

#[test]
fn reads_and_writes_send_no_fuse_data_request() {
    let m = mount(FuseConfig::optimized());
    assert!(m.client.effective_flags().passthrough);
    let fd = m
        .open("/mnt/f", OpenFlags::RDWR.with(OpenFlags::CREAT))
        .unwrap();
    let data = pattern(64 * 1024, 7);
    assert_eq!(m.k.pwrite(P, fd, 0, &data), Ok(data.len()));
    assert_eq!(m.k.pwrite(P, fd, 100, b"patched"), Ok(7));
    let mut buf = vec![0u8; 8192];
    assert_eq!(m.k.pread(P, fd, 96, &mut buf), Ok(8192));
    assert_eq!(&buf[4..11], b"patched");
    assert_eq!(m.k.fsync(P, fd, false), Ok(()));
    m.k.close(P, fd).unwrap();
    assert_eq!(m.data_requests(), (0, 0));
    // The bytes are the backing file's.
    let mut want = data;
    want[100..107].copy_from_slice(b"patched");
    assert_eq!(m.read_whole("/srv/f", want.len()), want);
    assert_eq!(m.read_whole("/mnt/f", want.len()), want);
    assert_eq!(m.data_requests(), (0, 0));
}

#[test]
fn a_file_read_whole_is_cached_once_under_the_backing_filesystem() {
    let m = mount(FuseConfig::optimized());
    let data = pattern(MIB, 3);
    m.backing_file("big", &data);
    assert_eq!(m.read_whole("/mnt/big", MIB), data);
    assert_eq!(m.k.page_cache_resident_pages_of(FUSE), 0);
    assert_eq!(m.k.page_cache_resident_pages_of(BACKING), 256);
}

#[test]
fn the_paper_profile_still_sends_reads_and_caches_twice() {
    let m = mount(FuseConfig::paper());
    assert!(!m.client.effective_flags().passthrough);
    let data = pattern(MIB, 5);
    m.backing_file("big", &data);
    assert_eq!(m.read_whole("/mnt/big", MIB), data);
    assert!(m.data_requests().0 > 0, "a cached mount sends READs");
    assert_eq!(m.k.page_cache_resident_pages_of(FUSE), 256);
    assert_eq!(m.k.page_cache_resident_pages_of(BACKING), 256);
    assert_eq!(m.k.fuse_backing_ids(FUSE), 0);
}

#[test]
fn one_backing_file_per_inode_until_its_forget() {
    let m = mount(FuseConfig::optimized());
    m.backing_file("a", b"first");
    m.backing_file("b", b"second");
    let held: Vec<u32> = (0..4)
        .map(|i| {
            let flags = if i % 2 == 0 {
                OpenFlags::RDONLY
            } else {
                OpenFlags::RDWR
            };
            m.open("/mnt/a", flags).unwrap()
        })
        .collect();
    assert_eq!(m.k.fuse_backing_ids(FUSE), 1, "four opens, one inode");
    for fd in held {
        m.k.close(P, fd).unwrap();
    }
    assert_eq!(m.read_whole("/mnt/a", 16), b"first");
    assert_eq!(m.k.fuse_backing_ids(FUSE), 1, "kept past the last close");
    assert_eq!(m.read_whole("/mnt/b", 16), b"second");
    assert_eq!(m.k.fuse_backing_ids(FUSE), 2);
    m.forget("/mnt/a");
    assert_eq!(m.k.fuse_backing_ids(FUSE), 1, "FORGET closes the id");
    // A new lookup is a new inode, registered again by its first OPEN.
    assert_eq!(m.read_whole("/mnt/a", 16), b"first");
    assert_eq!(m.k.fuse_backing_ids(FUSE), 2);
    assert_eq!(m.data_requests(), (0, 0));
}

#[test]
fn fstat_shows_the_size_a_passthrough_write_extended() {
    let m = mount(FuseConfig::optimized());
    m.backing_file("f", b"0123456789");
    let fd = m.open("/mnt/f", OpenFlags::RDWR).unwrap();
    assert_eq!(m.k.fstat(P, fd).unwrap().size, 10);
    let getattrs = m.client.conn_stats().getattrs;
    assert_eq!(m.k.pwrite(P, fd, 4096, b"x"), Ok(1));
    assert_eq!(m.k.fstat(P, fd).unwrap().size, 4097);
    assert_eq!(m.k.stat(P, "/mnt/f").unwrap().size, 4097);
    assert_eq!(
        m.client.conn_stats().getattrs,
        getattrs,
        "the cached size grew with the write, no GETATTR"
    );
    // An append lands at the backing file's end, and the size follows.
    let app = m.open("/mnt/f", OpenFlags::append()).unwrap();
    assert_eq!(m.k.write_fd(P, app, b"yz"), Ok(2));
    assert_eq!(m.k.fstat(P, fd).unwrap().size, 4099);
    m.k.close(P, app).unwrap();
    m.k.close(P, fd).unwrap();
    assert_eq!(m.k.stat(P, "/srv/f").unwrap().size, 4099);
}

#[test]
fn an_open_in_the_other_io_mode_is_refused() {
    let m = mount(FuseConfig::optimized());
    m.backing_file("f", b"modes");
    let refused = || obs::counter_value("fuse.passthrough.refused").unwrap_or(0);
    let before = refused();
    let passthrough = m.open("/mnt/f", OpenFlags::RDONLY).unwrap();
    m.strip.store(true, Ordering::Relaxed);
    assert_eq!(m.open("/mnt/f", OpenFlags::RDONLY), Err(Errno::EIO));
    m.k.close(P, passthrough).unwrap();
    // Closed: the inode may change mode, and now holds a cached open.
    let cached = m.open("/mnt/f", OpenFlags::RDONLY).unwrap();
    m.strip.store(false, Ordering::Relaxed);
    assert_eq!(m.open("/mnt/f", OpenFlags::RDONLY), Err(Errno::EIO));
    let mut buf = [0u8; 8];
    assert_eq!(m.k.pread(P, cached, 0, &mut buf), Ok(5));
    assert!(m.data_requests().0 > 0, "the cached open reads over FUSE");
    m.k.close(P, cached).unwrap();
    assert_eq!(m.read_whole("/mnt/f", 8), b"modes");
    assert!(refused() >= before + 2);
    // Every refused open was released: the server holds its anchors (one
    // per remembered inode, the root's included) and no handle.
    let pid = m.server.server_pid();
    assert_eq!(
        m.k.fd_count(pid).unwrap(),
        m.base_fds + m.server.live_inodes()
    );
}

#[test]
fn a_server_without_cap_sys_admin_serves_cached_opens() {
    let m = mount_with(FuseConfig::optimized(), |k, pid| {
        let mut creds = k.creds(pid).unwrap();
        creds.caps = CapSet::docker_default();
        assert!(!creds.caps.has(Capability::SysAdmin));
        k.set_creds(pid, creds).unwrap();
    });
    m.backing_file("f", b"no admin");
    assert_eq!(m.read_whole("/mnt/f", 16), b"no admin");
    assert_eq!(m.k.fuse_backing_ids(FUSE), 0, "EPERM: nothing registered");
    assert!(m.data_requests().0 > 0, "the data came over FUSE");
}

/// A CntrFS server whose own root is a passthrough CntrFS mount: its
/// backing files would stack at `max_stack_depth`, so the kernel refuses
/// them (`ELOOP`) and the outer mount stays cached, and still correct.
#[test]
fn a_backing_file_at_max_stack_depth_is_refused() {
    let inner = mount(FuseConfig::optimized());
    inner.backing_file("f", b"nested");
    let k = &inner.k;
    k.mkdir(P, "/outer", Mode::RWXR_XR_X).unwrap();
    let server_pid = k.fork(P).unwrap();
    k.chroot(server_pid, "/mnt").unwrap();
    let outer_dev = DevId(0xF6);
    let (_, outer) =
        CntrfsServer::mount(k.clone(), server_pid, outer_dev, FuseConfig::optimized()).unwrap();
    k.mount_fs(P, "/outer", outer.clone(), MountFlags::default())
        .unwrap();
    let fd = k
        .open(P, "/outer/f", OpenFlags::RDONLY, Mode::RW_R__R__)
        .unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(k.pread(P, fd, 0, &mut buf), Ok(6));
    assert_eq!(&buf[..6], b"nested");
    k.close(P, fd).unwrap();
    assert_eq!(
        k.fuse_backing_ids(outer_dev),
        0,
        "ELOOP: nothing registered"
    );
    assert!(
        outer.conn_stats().reads > 0,
        "the outer mount reads over FUSE"
    );
    assert_eq!(
        inner.k.fuse_backing_ids(FUSE),
        1,
        "the inner one passes through"
    );
    assert_eq!(inner.data_requests(), (0, 0));
}
