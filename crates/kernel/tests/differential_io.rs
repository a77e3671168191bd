//! The differential splice/batching/caching oracle.
//!
//! Splice, write-back batching and the negotiated page-cache policy are
//! *transport* optimizations: they may change how bytes move, never what
//! they say. This property test replays random operation sequences —
//! write / aligned write / append / read / truncate / hole punch / fsync /
//! remount —
//! through the full kernel VFS + page cache + FUSE stack under **all four
//! `InitFlags` splice combinations**, with write-back batching coalescing
//! contiguous dirty runs, plus a write-through mount (`writeback_cache`
//! off) and an invalidate-on-open mount (`keep_cache` off), each with the
//! cache policy the kernel derives from the negotiated flags, and a native
//! (non-FUSE) mount as the ground-truth oracle. A passthrough mount runs
//! the CntrFS server in the same kernel, so every data op of the shipping
//! profile goes straight to the server's backing file. It demands
//! byte-identical observations and final file contents from every
//! configuration.
//!
//! A divergence here means a real data-path bug: a spliced buffer aliased
//! after mutation, a batched flush writing the wrong run, a shared page
//! surviving a truncate, a readahead window outliving a hole punch, a
//! write-through update of a stale page.

use cntr_core::CntrfsServer;
use cntr_fs::memfs::memfs;
use cntr_fs::FallocateMode;
use cntr_fuse::{FsHandler, FuseClientFs, FuseConfig, InitFlags, InlineTransport};
use cntr_kernel::{Kernel, KernelConfig, MountFlags};
use cntr_types::{DevId, Errno, Mode, OpenFlags, Pid, SimClock};
use proptest::prelude::*;
use std::cell::RefCell;
use std::sync::Arc;

const PAGE: u64 = 4096;

#[derive(Debug, Clone)]
enum Op {
    /// Unaligned write: `(slot, offset, len-seed)`.
    Write(u8, u32, u16),
    /// Page-aligned contiguous write — the shape batching coalesces:
    /// `(slot, start_page, pages)`.
    WriteRun(u8, u8, u8),
    /// Write through an `O_WRONLY | O_APPEND` descriptor: `(slot, len-seed)`.
    Append(u8, u16),
    /// Read back `(slot, offset, len)`.
    Read(u8, u32, u16),
    /// `truncate(2)` to `(slot, size)`.
    Truncate(u8, u32),
    /// `fallocate(2)` punching a hole at `(slot, offset, len)`.
    PunchHole(u8, u32, u16),
    /// `fsync(2)` the slot's file.
    Fsync(u8),
    /// The umount/mount cycle: sync everything dirty, drop every cache
    /// (kernel pages and FUSE client entry/attr/readahead state), so all
    /// state must survive a full round trip through the server.
    Remount,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0u32..196_608, 1u16..16_384).prop_map(|(s, o, l)| Op::Write(s, o, l)),
        (0u8..4, 0u8..48, 1u8..16).prop_map(|(s, p, n)| Op::WriteRun(s, p, n)),
        (0u8..4, 1u16..16_384).prop_map(|(s, l)| Op::Append(s, l)),
        (0u8..4, 0u32..262_144, 1u16..16_384).prop_map(|(s, o, l)| Op::Read(s, o, l)),
        (0u8..4, 0u32..262_144).prop_map(|(s, z)| Op::Truncate(s, z)),
        (0u8..4, 0u32..196_608, 1u16..16_384).prop_map(|(s, o, l)| Op::PunchHole(s, o, l)),
        (0u8..4).prop_map(Op::Fsync),
        Just(Op::Remount),
    ]
}

/// Deterministic payload bytes for a write op.
fn fill(slot: u8, offset: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (slot as usize * 31 + offset as usize + i * 7) as u8 ^ 0x5A)
        .collect()
}

fn fletcher(data: &[u8]) -> u32 {
    let (mut a, mut b) = (0u32, 0u32);
    for &byte in data {
        a = (a + u32::from(byte)) % 65521;
        b = (b + a) % 65521;
    }
    (b << 16) | a
}

/// The kernel every env runs: a ceiling smaller than the op space's total
/// footprint keeps LRU reclaim (writeback-then-evict) running
/// mid-sequence, and a small dirty limit forces write-back too, so batched
/// flushes interleave with the ops. Write-back is stop-world: every flush
/// is a hard-limit drain or a reclaim at a fixed point, which the
/// replay-comparison oracle depends on. The oracle runs under the same ceiling, so a reclaim-path
/// divergence shows up on either side.
fn tight() -> KernelConfig {
    KernelConfig {
        page_cache_limit: 240 * PAGE,
        dirty_bytes: 48 * PAGE,
        background_writeback: false,
        ..KernelConfig::default()
    }
}

/// One configuration under test.
struct Env {
    k: Kernel,
    pid: Pid,
    /// The FUSE client, when this env mounts one (None = native oracle).
    client: Option<Arc<FuseClientFs>>,
    label: String,
    /// Per-slot descriptors held across ops (see [`Env::held_fd`]).
    held: RefCell<[Option<u32>; 4]>,
}

impl Env {
    /// A FUSE mount negotiating `flags`; the kernel sets its page-cache
    /// policy from what INIT granted.
    fn fuse(flags: InitFlags) -> Env {
        let clock = SimClock::new();
        let root = memfs(DevId(1), clock.clone());
        let k = Kernel::with_clock(clock.clone(), root, tight());
        let pid = k.fork(Pid::INIT).expect("fork");
        k.mkdir(pid, "/mnt", Mode::RWXR_XR_X).expect("mkdir");
        let backing = memfs(DevId(2), clock.clone());
        let transport = InlineTransport::new(FsHandler::new(backing));
        let client = FuseClientFs::mount(
            DevId(0xC0),
            clock,
            FuseConfig::optimized().with_flags(flags),
            transport,
        )
        .expect("mount fuse");
        k.mount_fs(
            pid,
            "/mnt",
            Arc::clone(&client) as Arc<dyn cntr_fs::Filesystem>,
            MountFlags::default(),
        )
        .expect("mount");
        Env {
            k,
            pid,
            client: Some(client),
            label: format!(
                "fuse(sr={},sw={},wb={},kc={})",
                flags.splice_read, flags.splice_write, flags.writeback_cache, flags.keep_cache
            ),
            held: RefCell::default(),
        }
    }

    /// The shipping profile over the real CntrFS server, which serves a
    /// memfs mounted in the same kernel: the flags grant passthrough, so
    /// reads and writes go to the server's backing files.
    fn passthrough() -> Env {
        let clock = SimClock::new();
        let k = Kernel::with_clock(clock.clone(), memfs(DevId(1), clock.clone()), tight());
        let pid = k.fork(Pid::INIT).expect("fork");
        for dir in ["/mnt", "/srv"] {
            k.mkdir(pid, dir, Mode::RWXR_XR_X).expect("mkdir");
        }
        k.mount_fs(
            pid,
            "/srv",
            memfs(DevId(2), clock.clone()),
            MountFlags::default(),
        )
        .expect("mount backing");
        let server_pid = k.fork(Pid::INIT).expect("fork server");
        k.chroot(server_pid, "/srv").expect("chroot server");
        let config = FuseConfig::optimized();
        let (_, client) =
            CntrfsServer::mount(k.clone(), server_pid, DevId(0xC1), config).expect("mount fuse");
        assert!(client.effective_flags().passthrough);
        k.mount_fs(
            pid,
            "/mnt",
            Arc::clone(&client) as Arc<dyn cntr_fs::Filesystem>,
            MountFlags::default(),
        )
        .expect("mount");
        Env {
            k,
            pid,
            client: Some(client),
            label: "passthrough".to_string(),
            held: RefCell::default(),
        }
    }

    fn native() -> Env {
        let clock = SimClock::new();
        let root = memfs(DevId(1), clock.clone());
        let k = Kernel::with_clock(clock.clone(), root, tight());
        let pid = k.fork(Pid::INIT).expect("fork");
        k.mkdir(pid, "/mnt", Mode::RWXR_XR_X).expect("mkdir");
        let fs = memfs(DevId(2), clock);
        k.mount_fs(pid, "/mnt", fs, MountFlags::default())
            .expect("mount");
        Env {
            k,
            pid,
            client: None,
            label: "native".to_string(),
            held: RefCell::default(),
        }
    }

    fn path(slot: u8) -> String {
        format!("/mnt/f{slot}")
    }

    /// The slot's long-lived descriptor, opened on first use. Reads and
    /// hole punches share it, so a FUSE readahead window one of them fills
    /// outlives the op (as it does for a process holding a file open);
    /// writes, truncates and fsyncs come in through fresh opens.
    fn held_fd(&self, slot: u8) -> Result<u32, Errno> {
        let held = &mut self.held.borrow_mut()[slot as usize];
        if let Some(fd) = *held {
            return Ok(fd);
        }
        let fd = self.k.open(
            self.pid,
            &Self::path(slot),
            OpenFlags::RDWR,
            Mode::RW_R__R__,
        )?;
        *held = Some(fd);
        Ok(fd)
    }

    /// Applies one op, producing an observation string every configuration
    /// must agree on.
    fn apply(&self, op: &Op) -> String {
        match op {
            Op::Write(slot, offset, lseed) => {
                self.write_at(*slot, u64::from(*offset), *lseed as usize)
            }
            Op::WriteRun(slot, page, pages) => self.write_at(
                *slot,
                u64::from(*page) * PAGE,
                *pages as usize * PAGE as usize,
            ),
            Op::Append(slot, lseed) => {
                self.write_with(*slot, OpenFlags::append(), 0, *lseed as usize)
            }
            Op::Read(slot, offset, len) => {
                let fd = match self.held_fd(*slot) {
                    Ok(fd) => fd,
                    Err(e) => return format!("read open {e}"),
                };
                let mut buf = vec![0u8; *len as usize];
                match self.k.pread(self.pid, fd, u64::from(*offset), &mut buf) {
                    Ok(n) => format!("read {n} {:08x}", fletcher(&buf[..n])),
                    Err(e) => format!("read {e}"),
                }
            }
            Op::Truncate(slot, size) => {
                match self
                    .k
                    .truncate(self.pid, &Self::path(*slot), u64::from(*size))
                {
                    Ok(()) => "trunc ok".to_string(),
                    Err(e) => format!("trunc {e}"),
                }
            }
            Op::PunchHole(slot, offset, len) => {
                let fd = match self.held_fd(*slot) {
                    Ok(fd) => fd,
                    Err(e) => return format!("punch open {e}"),
                };
                match self.k.fallocate(
                    self.pid,
                    fd,
                    u64::from(*offset),
                    u64::from(*len),
                    FallocateMode::PunchHole,
                ) {
                    Ok(()) => "punch ok".to_string(),
                    Err(e) => format!("punch {e}"),
                }
            }
            Op::Fsync(slot) => {
                let fd = match self.k.open(
                    self.pid,
                    &Self::path(*slot),
                    OpenFlags::RDWR,
                    Mode::RW_R__R__,
                ) {
                    Ok(fd) => fd,
                    Err(e) => return format!("fsync open {e}"),
                };
                let out = match self.k.fsync(self.pid, fd, false) {
                    Ok(()) => "fsync ok".to_string(),
                    Err(e) => format!("fsync {e}"),
                };
                let _ = self.k.close(self.pid, fd);
                out
            }
            Op::Remount => {
                self.k.sync().expect("sync");
                self.k.drop_caches().expect("drop caches");
                if let Some(client) = &self.client {
                    client.drop_caches();
                }
                "remount ok".to_string()
            }
        }
    }

    fn write_at(&self, slot: u8, offset: u64, len: usize) -> String {
        self.write_with(slot, OpenFlags::RDWR.with(OpenFlags::CREAT), offset, len)
    }

    /// One write of `len` bytes at `offset` (which `O_APPEND` overrides)
    /// through a fresh descriptor opened with `flags`.
    fn write_with(&self, slot: u8, flags: OpenFlags, offset: u64, len: usize) -> String {
        let fd = match self
            .k
            .open(self.pid, &Self::path(slot), flags, Mode::RW_R__R__)
        {
            Ok(fd) => fd,
            Err(e) => return format!("write open {e}"),
        };
        let data = fill(slot, offset as u32, len);
        let out = match self.k.pwrite(self.pid, fd, offset, &data) {
            Ok(n) => format!("write {n}"),
            Err(e) => format!("write {e}"),
        };
        let _ = self.k.close(self.pid, fd);
        out
    }

    /// Final observable state: synced size + checksum of every slot.
    fn final_state(&self) -> Vec<String> {
        self.k.sync().expect("final sync");
        (0..4u8)
            .map(|slot| {
                let size = match self.k.stat(self.pid, &Self::path(slot)) {
                    Ok(st) => st.size,
                    Err(e) => return format!("f{slot}: {e}"),
                };
                let fd = self
                    .k
                    .open(
                        self.pid,
                        &Self::path(slot),
                        OpenFlags::RDONLY,
                        Mode::RW_R__R__,
                    )
                    .expect("open for final read");
                let mut content = Vec::new();
                let mut buf = vec![0u8; 16384];
                loop {
                    let n = self.k.read_fd(self.pid, fd, &mut buf).expect("final read");
                    if n == 0 {
                        break;
                    }
                    content.extend_from_slice(&buf[..n]);
                }
                let _ = self.k.close(self.pid, fd);
                format!("f{slot}: size={size} sum={:08x}", fletcher(&content))
            })
            .collect()
    }
}

/// The four FUSE splice configurations, the write-through and
/// invalidate-on-open FUSE mounts, the passthrough mount, and the native
/// oracle.
fn all_envs() -> Vec<Env> {
    let mut envs = vec![Env::native()];
    for &splice_read in &[false, true] {
        for &splice_write in &[false, true] {
            envs.push(Env::fuse(InitFlags {
                splice_read,
                splice_write,
                ..InitFlags::cntr_default()
            }));
        }
    }
    envs.push(Env::fuse(InitFlags {
        writeback_cache: false,
        ..InitFlags::cntr_default()
    }));
    envs.push(Env::fuse(InitFlags {
        keep_cache: false,
        ..InitFlags::cntr_default()
    }));
    envs.push(Env::passthrough());
    envs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn splice_and_batching_never_change_observable_io(
        ops in proptest::collection::vec(op_strategy(), 1..24)
    ) {
        let envs = all_envs();
        for (i, op) in ops.iter().enumerate() {
            let expected = envs[0].apply(op);
            for env in &envs[1..] {
                let got = env.apply(op);
                prop_assert_eq!(
                    &expected, &got,
                    "op {} ({:?}) diverged under {}", i, op, env.label
                );
            }
        }
        let oracle = envs[0].final_state();
        for env in &envs[1..] {
            let got = env.final_state();
            prop_assert_eq!(
                &oracle, &got,
                "final contents diverged under {}", env.label
            );
        }
    }
}

/// Batching changes *how* dirty pages flush, never what lands: a big
/// contiguous write through FUSE ends up byte-identical to the native
/// oracle, while the coalescing is observable in the flush counters.
#[test]
fn batching_is_invisible_in_content_but_visible_in_counters() {
    let native = Env::native();
    let batched = Env::fuse(InitFlags::cntr_default());
    for env in [&native, &batched] {
        let out = env.apply(&Op::WriteRun(0, 0, 64));
        assert_eq!(out, "write 262144");
        assert_eq!(env.apply(&Op::Fsync(0)), "fsync ok");
    }
    assert_eq!(batched.final_state(), native.final_state());
    let b = batched.k.page_cache_stats();
    assert!(b.flushed_pages >= 64, "every written page flushed");
    assert!(
        b.flush_batches < b.flushed_pages,
        "coalescing must issue fewer, larger write-back requests: \
         batches={} pages={}",
        b.flush_batches,
        b.flushed_pages
    );
}

/// The kernel takes a FUSE mount's page-cache policy from the flags INIT
/// negotiated: a write-through mount never leaves a dirty page to flush,
/// and a mount without keep-cache invalidates a file's pages on open.
#[test]
fn negotiated_cache_flags_set_the_mount_policy() {
    let observe = |flags: InitFlags| {
        let env = Env::fuse(flags);
        assert_eq!(env.apply(&Op::WriteRun(0, 0, 4)), "write 16384");
        assert_eq!(env.apply(&Op::Fsync(0)), "fsync ok");
        let s = env.k.page_cache_stats();
        (s.flushed_pages > 0, s.invalidations > 0)
    };
    let shipping = InitFlags::cntr_default();
    assert_eq!(observe(shipping), (true, false), "write-back, keep-cache");
    let write_through = InitFlags {
        writeback_cache: false,
        ..shipping
    };
    assert_eq!(observe(write_through), (false, false), "write-through");
    let no_keep = InitFlags {
        keep_cache: false,
        ..shipping
    };
    assert_eq!(observe(no_keep), (true, true), "invalidate on open");
}

/// A hole punched after a read must read back as zeroes everywhere: not
/// from the page cache, and not from the FUSE readahead window the first
/// read filled on the same descriptor. The unaligned punch also zeroes the
/// edges of the pages it only partly covers.
#[test]
fn read_punch_read_sees_the_hole() {
    let zeroes = |len: usize| format!("read {len} {:08x}", fletcher(&vec![0u8; len]));
    for env in all_envs() {
        assert_eq!(env.apply(&Op::WriteRun(0, 0, 16)), "write 65536");
        // Cold caches: the first read fetches its page from the server,
        // which fills the held descriptor's readahead window.
        assert_eq!(env.apply(&Op::Remount), "remount ok");
        assert_eq!(env.apply(&Op::Read(0, 0, 4096)), fill_read(0, 4096));
        assert_eq!(env.apply(&Op::PunchHole(0, 4096, 4096)), "punch ok");
        assert_eq!(
            env.apply(&Op::Read(0, 4096, 4096)),
            zeroes(4096),
            "{}: aligned hole",
            env.label
        );
        assert_eq!(env.apply(&Op::Read(0, 16384, 4096)), fill_read(16384, 4096));
        assert_eq!(env.apply(&Op::PunchHole(0, 16384 + 100, 5000)), "punch ok");
        assert_eq!(
            env.apply(&Op::Read(0, 16384 + 100, 5000)),
            zeroes(5000),
            "{}: unaligned hole",
            env.label
        );
    }
}

/// An `O_APPEND` write to a file whose last page the cache does not hold
/// keeps the bytes already there: the page is read in through the
/// descriptor's filesystem handle, which must be readable even though the
/// descriptor is write-only, and the flush lands at the page's own offset.
#[test]
fn append_to_an_uncached_page_keeps_its_bytes() {
    let mut want = fill(0, 0, 10);
    want.extend_from_slice(&fill(0, 0, 10));
    let want = format!("read 20 {:08x}", fletcher(&want));
    for env in all_envs() {
        assert_eq!(env.apply(&Op::Write(0, 0, 10)), "write 10");
        assert_eq!(env.apply(&Op::Remount), "remount ok");
        assert_eq!(env.apply(&Op::Append(0, 10)), "write 10", "{}", env.label);
        assert_eq!(env.apply(&Op::Read(0, 0, 64)), want, "{}", env.label);
        assert_eq!(env.apply(&Op::Remount), "remount ok");
        assert_eq!(
            env.apply(&Op::Read(0, 0, 64)),
            want,
            "{}: flushed",
            env.label
        );
    }
}

/// The observation a read of bytes a [`Op::WriteRun`] at page 0 wrote.
fn fill_read(offset: usize, len: usize) -> String {
    let data = fill(0, 0, 65536);
    format!("read {len} {:08x}", fletcher(&data[offset..offset + len]))
}

/// The passthrough mount is what it claims: the op mix moves no byte over
/// FUSE, and every observation matches the oracle's.
#[test]
fn the_passthrough_mount_sends_no_data_request() {
    let (native, passthrough) = (Env::native(), Env::passthrough());
    for op in [
        Op::WriteRun(0, 0, 16),
        Op::Write(1, 5000, 3000),
        Op::Append(1, 100),
        Op::Read(0, 100, 9000),
        Op::Truncate(0, 10_000),
        Op::PunchHole(0, 100, 5000),
        Op::Fsync(1),
        Op::Remount,
        Op::Read(1, 0, 16_384),
    ] {
        assert_eq!(passthrough.apply(&op), native.apply(&op), "{op:?}");
    }
    assert_eq!(passthrough.final_state(), native.final_state());
    let s = passthrough.client.as_ref().unwrap().conn_stats();
    assert_eq!((s.reads, s.writes), (0, 0));
}
