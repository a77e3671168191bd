//! A write strips the written file's capability, as Linux's
//! `file_remove_privs` does, on tmpfs, the native overlay and CntrFS; and a
//! CntrFS mount that negotiated `FUSE_HANDLE_KILLPRIV_V2` checks a file
//! once and then marks it `S_NOSEC`, until its attributes or xattrs change.
//!
//! The CntrFS mounts run the real server ([`CntrfsServer`]) in a kernel of
//! its own, so each request is answered by system calls on that kernel's
//! tmpfs; the client is mounted at `/mnt` of the kernel that writes. The
//! passthrough mount runs the server in the writing kernel instead, which
//! is what lets it register backing files: its writes go to the server's
//! file directly, and that backing write strips the capability itself.

use cntr::core::CntrfsServer;
use cntr::fs::memfs::memfs;
use cntr::fs::{XattrFlags, XATTR_NAME_CAPS};
use cntr::fuse::FuseClientFs;
use cntr::kernel::MountFlags;
use cntr::overlay::OverlayFs;
use cntr::prelude::*;
use cntr::types::{DevId, Errno};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const P: Pid = Pid::INIT;
/// A `vfs_cap_data` header and some payload: any value will do.
const CAPS: &[u8] = b"\x01\x00\x00\x02caps";

/// A mount under test: the kernel that writes and the file it writes.
struct Target {
    name: &'static str,
    k: Kernel,
    path: &'static str,
    /// For CntrFS: the client, the server's kernel, and the path there
    /// (as `P` sees it) of the file behind `path`.
    fuse: Option<(Arc<FuseClientFs>, Kernel, &'static str)>,
}

fn tmpfs() -> Target {
    Target {
        name: "tmpfs",
        k: boot_host(SimClock::new()),
        path: "/tmp/f",
        fuse: None,
    }
}

fn overlay() -> Target {
    let clock = SimClock::new();
    let k = boot_host(clock.clone());
    let lower = memfs(DevId(51), clock.clone());
    let upper = memfs(DevId(52), clock);
    k.mkdir(P, "/ovl", Mode::RWXR_XR_X).unwrap();
    k.mount_fs(
        P,
        "/ovl",
        OverlayFs::new(DevId(50), vec![lower], upper),
        MountFlags::default(),
    )
    .unwrap();
    Target {
        name: "overlay",
        k,
        path: "/ovl/f",
        fuse: None,
    }
}

/// CntrFS with `config`.
fn cntrfs(name: &'static str, config: FuseConfig) -> Target {
    let clock = SimClock::new();
    let host = boot_host(clock.clone());
    let server_pid = host.fork(P).unwrap();
    let (_, client) = CntrfsServer::mount(host.clone(), server_pid, DevId(0xCA), config).unwrap();
    let k = boot_host(clock);
    k.mkdir(P, "/mnt", Mode::RWXR_XR_X).unwrap();
    k.mount_fs(P, "/mnt", client.clone(), MountFlags::default())
        .unwrap();
    Target {
        name,
        k,
        path: "/mnt/f",
        fuse: Some((client, host, "/f")),
    }
}

/// CntrFS with the shipping profile, its server in the writing kernel and
/// serving `/srv`: every open passes through to the server's file.
fn cntrfs_passthrough() -> Target {
    let clock = SimClock::new();
    let k = boot_host(clock.clone());
    for dir in ["/mnt", "/srv"] {
        k.mkdir(P, dir, Mode::RWXR_XR_X).unwrap();
    }
    let server_pid = k.fork(P).unwrap();
    k.chroot(server_pid, "/srv").unwrap();
    let config = FuseConfig::optimized();
    let (_, client) = CntrfsServer::mount(k.clone(), server_pid, DevId(0xCB), config).unwrap();
    k.mount_fs(P, "/mnt", client.clone(), MountFlags::default())
        .unwrap();
    Target {
        name: "cntrfs-passthrough",
        k: k.clone(),
        path: "/mnt/f",
        fuse: Some((client, k, "/srv/f")),
    }
}

impl Target {
    fn create(&self) -> u32 {
        self.k
            .open(P, self.path, OpenFlags::create(), Mode::RW_R__R__)
            .unwrap()
    }

    fn set_caps(&self) {
        self.k
            .setxattr(P, self.path, XATTR_NAME_CAPS, CAPS, XattrFlags::Any)
            .unwrap();
    }

    fn caps(&self) -> Result<Vec<u8>, Errno> {
        self.k.getxattr(P, self.path, XATTR_NAME_CAPS)
    }

    /// GETXATTRs the CntrFS client has sent.
    fn getxattrs(&self) -> u64 {
        let (client, _, _) = self.fuse.as_ref().expect("a CntrFS target");
        client.conn_stats().getxattrs
    }

    /// `n` one-byte writes; returns the GETXATTRs they sent.
    fn writes(&self, fd: u32, n: u64) -> u64 {
        let before = self.getxattrs();
        for i in 0..n {
            assert_eq!(self.k.pwrite(P, fd, i, b"w"), Ok(1));
        }
        self.getxattrs() - before
    }
}

#[test]
fn a_write_strips_the_file_capability_on_every_mount() {
    for t in [
        tmpfs(),
        overlay(),
        cntrfs("cntrfs-paper", FuseConfig::paper()),
        cntrfs("cntrfs-optimized", FuseConfig::optimized()),
        cntrfs_passthrough(),
    ] {
        let fd = t.create();
        t.set_caps();
        t.k.setxattr(P, t.path, "user.keep", b"1", XattrFlags::Any)
            .unwrap();
        assert_eq!(t.caps(), Ok(CAPS.to_vec()), "{}", t.name);
        assert_eq!(t.k.pwrite(P, fd, 0, b"x"), Ok(1));
        assert_eq!(t.caps(), Err(Errno::ENODATA), "{}: capability kept", t.name);
        assert_eq!(
            t.k.getxattr(P, t.path, "user.keep"),
            Ok(b"1".to_vec()),
            "{}: only the capability goes",
            t.name
        );
        t.k.close(P, fd).unwrap();
    }
}

#[test]
fn the_paper_profile_checks_every_write() {
    let t = cntrfs("cntrfs-paper", FuseConfig::paper());
    let fd = t.create();
    assert_eq!(t.writes(fd, 16), 16);
}

#[test]
fn the_shipping_profile_checks_each_inode_once() {
    let t = cntrfs("cntrfs-optimized", FuseConfig::optimized());
    let (client, host, _) = t.fuse.as_ref().unwrap();
    assert!(client.effective_flags().handle_killpriv_v2);
    let fd = t.create();
    assert_eq!(t.writes(fd, 16), 1, "the first write marks the inode");

    // chmod u+s: the reply's attributes drop S_NOSEC. The next write
    // clears setuid, checks again and marks the inode again.
    t.k.chmod(P, t.path, Mode::new(0o4644)).unwrap();
    assert_eq!(t.writes(fd, 4), 1);
    assert!(!t.k.stat(P, t.path).unwrap().mode.is_setuid());

    // setxattr(security.capability) drops S_NOSEC: the next write checks
    // and strips. Stripping changed the xattrs, so one more write checks
    // before the inode is marked again.
    t.set_caps();
    assert_eq!(t.writes(fd, 1), 1);
    assert_eq!(t.caps(), Err(Errno::ENODATA));
    assert_eq!(t.writes(fd, 4), 1);

    // A capability set behind the client's back (on the server's side)
    // is found once the client takes new attributes from the server:
    // FSYNC drops them, the next write's GETATTR brings new ones.
    host.setxattr(P, "/f", XATTR_NAME_CAPS, CAPS, XattrFlags::Any)
        .unwrap();
    t.k.fsync(P, fd, false).unwrap();
    let getattrs = client.conn_stats().getattrs;
    assert_eq!(t.writes(fd, 1), 1);
    assert_eq!(client.conn_stats().getattrs, getattrs + 1);
    assert_eq!(host.getxattr(P, "/f", XATTR_NAME_CAPS), Err(Errno::ENODATA));
    t.k.close(P, fd).unwrap();
}

/// On a passthrough mount the client keeps `S_NOSEC` exactly as above, and
/// the write itself lands on the server's file, whose own write path
/// strips a capability the client could not know of.
#[test]
fn a_passthrough_write_strips_the_backing_files_capability() {
    let t = cntrfs_passthrough();
    let (client, host, backing) = t.fuse.as_ref().unwrap();
    assert!(client.effective_flags().passthrough);
    let fd = t.create();
    assert_eq!(t.writes(fd, 16), 1, "the first write marks the inode");
    // setxattr through the mount drops S_NOSEC: one check, which strips.
    t.set_caps();
    assert_eq!(t.writes(fd, 1), 1);
    assert_eq!(t.caps(), Err(Errno::ENODATA));
    assert_eq!(t.writes(fd, 4), 1);
    // A capability set on the backing file behind the client's back: the
    // inode is S_NOSEC, so the client sends no GETXATTR, and the backing
    // write strips the capability on its own.
    host.setxattr(P, backing, XATTR_NAME_CAPS, CAPS, XattrFlags::Any)
        .unwrap();
    assert_eq!(t.writes(fd, 1), 0);
    assert_eq!(
        host.getxattr(P, backing, XATTR_NAME_CAPS),
        Err(Errno::ENODATA)
    );
    assert_eq!(client.conn_stats().writes, 0, "no WRITE crossed FUSE");
    t.k.close(P, fd).unwrap();
}

/// Eight threads write to one file while another sets the capability,
/// writes, and demands the capability gone. A writer's check that raced
/// the setxattr must not mark the inode `S_NOSEC` afterwards, or the
/// capability would survive the next write. The writers keep writing
/// until the last round, so every round has checks in flight.
#[test]
fn a_racing_check_never_leaves_a_stale_nosec() {
    const WRITERS: u64 = 8;
    const ROUNDS: u64 = 500;
    let t = cntrfs("cntrfs-optimized", FuseConfig::optimized());
    let fd = t.create();
    let start = Barrier::new(WRITERS as usize + 1);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let (t, start, done) = (&t, &start, &done);
            s.spawn(move || {
                start.wait();
                let mut i = 0;
                while !done.load(Ordering::Relaxed) {
                    let off = (w * 256 + i % 256) * 16;
                    assert_eq!(t.k.pwrite(P, fd, off, b"racing writer"), Ok(13));
                    i += 1;
                }
            });
        }
        start.wait();
        for i in 0..ROUNDS {
            t.set_caps();
            let wrote = t.k.pwrite(P, fd, i, b"s");
            let caps = t.caps();
            if wrote != Ok(1) || caps != Err(Errno::ENODATA) {
                done.store(true, Ordering::Relaxed);
                panic!("round {i}: write {wrote:?}, capability {caps:?}");
            }
        }
        done.store(true, Ordering::Relaxed);
    });
    t.k.close(P, fd).unwrap();
}
