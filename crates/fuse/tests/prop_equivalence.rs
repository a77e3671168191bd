//! Property test: a filesystem served over FUSE is indistinguishable from
//! the same filesystem accessed directly.
//!
//! Random operation sequences run twice — once against a bare `MemFs`, once
//! against the same operations through `FuseClientFs` → `FsHandler` →
//! `MemFs` — and every observable result (content, sizes, errors) must
//! match. This pins the whole protocol layer (caches, readahead, forget
//! bookkeeping) to POSIX behaviour.

use cntr_fs::memfs::memfs;
use cntr_fs::{Filesystem, FilesystemExt, FsContext};
use cntr_fuse::{FsHandler, FuseClientFs, FuseConfig, InitFlags, InlineTransport};
use cntr_types::{DevId, Errno, FileType, Ino, Mode, OpenFlags, SimClock};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Write(u8, u16, Vec<u8>),
    ReadAll(u8),
    Unlink(u8),
    Mkdir(u8),
    Stat(u8),
}

fn name(slot: u8) -> String {
    format!("n{slot}")
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6).prop_map(Op::Create),
        (
            0u8..6,
            0u16..8192,
            proptest::collection::vec(any::<u8>(), 1..256)
        )
            .prop_map(|(s, o, d)| Op::Write(s, o, d)),
        (0u8..6).prop_map(Op::ReadAll),
        (0u8..6).prop_map(Op::Unlink),
        (0u8..6).prop_map(Op::Mkdir),
        (0u8..6).prop_map(Op::Stat),
    ]
}

/// Applies one op, returning an observation string for comparison.
fn apply(fs: &dyn Filesystem, op: &Op) -> String {
    let ctx = FsContext::root();
    match op {
        Op::Create(s) => match fs.mknod(
            Ino::ROOT,
            &name(*s),
            FileType::Regular,
            Mode::RW_R__R__,
            0,
            &ctx,
        ) {
            Ok(st) => format!("create ok size={}", st.size),
            Err(e) => format!("create {e}"),
        },
        Op::Write(s, off, data) => {
            let ino = match fs.lookup(Ino::ROOT, &name(*s)) {
                Ok(st) if st.ftype == FileType::Regular => st.ino,
                Ok(_) => return "write isdir".into(),
                Err(e) => return format!("write lookup {e}"),
            };
            match fs.open(ino, OpenFlags::RDWR) {
                Ok(fh) => {
                    let r = fs.write(ino, fh, u64::from(*off), data);
                    let _ = fs.release(ino, fh);
                    format!("write {r:?}")
                }
                Err(e) => format!("write open {e}"),
            }
        }
        Op::ReadAll(s) => {
            let ino = match fs.lookup(Ino::ROOT, &name(*s)) {
                Ok(st) if st.ftype == FileType::Regular => st.ino,
                Ok(_) => return "read isdir".into(),
                Err(e) => return format!("read lookup {e}"),
            };
            let size = fs.getattr(ino).map(|s| s.size).unwrap_or(0);
            match fs.open(ino, OpenFlags::RDONLY) {
                Ok(fh) => {
                    let mut buf = vec![0u8; size as usize];
                    let got = fs.read(ino, fh, 0, &mut buf);
                    let _ = fs.release(ino, fh);
                    match got {
                        Ok(n) => {
                            buf.truncate(n);
                            format!("read {n} {:08x}", fletcher(&buf))
                        }
                        Err(e) => format!("read {e}"),
                    }
                }
                Err(e) => format!("read open {e}"),
            }
        }
        Op::Unlink(s) => match fs.unlink(Ino::ROOT, &name(*s)) {
            Ok(()) => "unlink ok".into(),
            Err(e) => format!("unlink {e}"),
        },
        Op::Mkdir(s) => match fs.mkdir(Ino::ROOT, &name(*s), Mode::RWXR_XR_X, &ctx) {
            Ok(_) => "mkdir ok".into(),
            Err(e) => format!("mkdir {e}"),
        },
        Op::Stat(s) => match fs.lookup(Ino::ROOT, &name(*s)) {
            Ok(st) => format!("stat {:?} size={} nlink={}", st.ftype, st.size, st.nlink),
            Err(e) => format!("stat {e}"),
        },
    }
}

fn fletcher(data: &[u8]) -> u32 {
    let (mut a, mut b) = (0u32, 0u32);
    for &byte in data {
        a = (a + u32::from(byte)) % 65521;
        b = (b + a) % 65521;
    }
    (b << 16) | a
}

fn fuse_mounted() -> Arc<FuseClientFs> {
    let clock = SimClock::new();
    let backing = memfs(DevId(1), clock.clone());
    let transport = InlineTransport::new(FsHandler::new(backing));
    FuseClientFs::mount(DevId(100), clock, FuseConfig::optimized(), transport).expect("mount")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fuse_mounted_fs_matches_direct_fs(
        ops in proptest::collection::vec(op_strategy(), 1..50)
    ) {
        let direct = memfs(DevId(1), SimClock::new());
        let fused = fuse_mounted();
        for (i, op) in ops.iter().enumerate() {
            let a = apply(direct.as_ref(), op);
            let b = apply(fused.as_ref(), op);
            prop_assert_eq!(a, b, "divergence at op {} ({:?})", i, op);
        }
    }

    #[test]
    fn unoptimized_fuse_is_equally_correct(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        // Correctness must not depend on any §3.3 optimization.
        let clock = SimClock::new();
        let backing = memfs(DevId(1), clock.clone());
        let transport = InlineTransport::new(FsHandler::new(backing));
        let fused = FuseClientFs::mount(
            DevId(100),
            clock,
            FuseConfig::optimized()
                .with_flags(InitFlags::none())
                .with_workers(1),
            transport,
        )
        .expect("mount");
        let direct = memfs(DevId(1), SimClock::new());
        for op in &ops {
            let a = apply(direct.as_ref(), op);
            let b = apply(fused.as_ref(), op);
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn dead_connection_fails_everything_consistently(
        ops in proptest::collection::vec(op_strategy(), 1..20)
    ) {
        let fused = fuse_mounted();
        fused.kill_connection();
        for op in &ops {
            let out = apply(fused.as_ref(), op);
            prop_assert!(
                out.contains(&format!("{}", Errno::ENOTCONN)) || out.contains("lookup"),
                "op {:?} gave {}",
                op,
                out
            );
        }
    }
}
