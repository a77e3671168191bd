//! Property-based tests over the filesystem invariants.
//!
//! Strategy: generate random operation sequences against a [`MemFs`] and an
//! in-test oracle (a plain `HashMap<String, Vec<u8>>` of flat file contents),
//! then check the filesystem agrees with the oracle and preserves its own
//! structural invariants (link counts, space accounting).

use cntr_fs::memfs::memfs_with_capacity;
use cntr_fs::{Filesystem, FilesystemExt, FsContext, MemFs};
use cntr_types::{DevId, FileType, Ino, Mode, OpenFlags, RenameFlags, SetAttr, SimClock};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    WriteAt(u8, u16, Vec<u8>),
    Truncate(u8, u16),
    Unlink(u8),
    Rename(u8, u8),
    Read(u8),
}

fn name(slot: u8) -> String {
    format!("file{slot}")
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8).prop_map(Op::Create),
        (
            0u8..8,
            0u16..20000,
            proptest::collection::vec(any::<u8>(), 0..512)
        )
            .prop_map(|(s, o, d)| Op::WriteAt(s, o, d)),
        (0u8..8, 0u16..20000).prop_map(|(s, l)| Op::Truncate(s, l)),
        (0u8..8).prop_map(Op::Unlink),
        (0u8..8, 0u8..8).prop_map(|(a, b)| Op::Rename(a, b)),
        (0u8..8).prop_map(Op::Read),
    ]
}

fn lookup_ino(fs: &MemFs, n: &str) -> Option<Ino> {
    fs.lookup(Ino::ROOT, n).ok().map(|s| s.ino)
}

fn fs_read_all(fs: &MemFs, n: &str) -> Option<Vec<u8>> {
    let ino = lookup_ino(fs, n)?;
    let st = fs.getattr(ino).ok()?;
    let fh = fs.open(ino, OpenFlags::RDONLY).ok()?;
    let mut buf = vec![0u8; st.size as usize];
    let got = fs.read(ino, fh, 0, &mut buf).ok()?;
    fs.release(ino, fh).ok()?;
    buf.truncate(got);
    Some(buf)
}

fn apply(fs: &Arc<MemFs>, oracle: &mut HashMap<String, Vec<u8>>, op: &Op) {
    let ctx = FsContext::root();
    match op {
        Op::Create(slot) => {
            let n = name(*slot);
            let r = fs.mknod(Ino::ROOT, &n, FileType::Regular, Mode::RW_R__R__, 0, &ctx);
            match r {
                Ok(_) => {
                    assert!(!oracle.contains_key(&n), "fs created but oracle has {n}");
                    oracle.insert(n, Vec::new());
                }
                Err(e) => {
                    assert!(
                        oracle.contains_key(&n),
                        "create failed ({e}) but oracle lacks {n}"
                    );
                }
            }
        }
        Op::WriteAt(slot, off, data) => {
            let n = name(*slot);
            let Some(ino) = lookup_ino(fs, &n) else {
                assert!(!oracle.contains_key(&n));
                return;
            };
            let fh = fs.open(ino, OpenFlags::WRONLY).unwrap();
            fs.write(ino, fh, u64::from(*off), data).unwrap();
            fs.release(ino, fh).unwrap();
            let content = oracle.get_mut(&n).expect("oracle out of sync");
            let end = *off as usize + data.len();
            if content.len() < end {
                content.resize(end, 0);
            }
            content[*off as usize..end].copy_from_slice(data);
        }
        Op::Truncate(slot, len) => {
            let n = name(*slot);
            let Some(ino) = lookup_ino(fs, &n) else {
                return;
            };
            fs.setattr(ino, &SetAttr::truncate(u64::from(*len)), &ctx)
                .unwrap();
            let content = oracle.get_mut(&n).expect("oracle out of sync");
            content.resize(*len as usize, 0);
        }
        Op::Unlink(slot) => {
            let n = name(*slot);
            match fs.unlink(Ino::ROOT, &n) {
                Ok(()) => {
                    assert!(oracle.remove(&n).is_some(), "unlinked untracked {n}");
                }
                Err(_) => assert!(!oracle.contains_key(&n)),
            }
        }
        Op::Rename(a, b) => {
            let (na, nb) = (name(*a), name(*b));
            match fs.rename(Ino::ROOT, &na, Ino::ROOT, &nb, RenameFlags::NONE) {
                Ok(()) => {
                    if a != b {
                        let v = oracle.remove(&na).expect("rename source untracked");
                        oracle.insert(nb, v);
                    }
                }
                Err(_) => assert!(!oracle.contains_key(&na)),
            }
        }
        Op::Read(slot) => {
            let n = name(*slot);
            match (fs_read_all(fs, &n), oracle.get(&n)) {
                (Some(got), Some(want)) => assert_eq!(&got, want, "content mismatch for {n}"),
                (None, None) => {}
                (got, want) => panic!("presence mismatch for {n}: fs={got:?} oracle={want:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// OverlayFs equivalence oracle
// ---------------------------------------------------------------------------
//
// An overlay over N lower layers must behave exactly like the *flattened*
// filesystem (layers applied in order into one MemFs). We seed two layers
// with overlapping file sets, build both representations, then drive the
// same random operation sequence against each and require identical
// outcomes — success/errno, file contents, and directory listings. This is
// the property that licenses the engine swapping its flat rootfs for the
// overlay.

mod overlay_oracle {
    use super::*;
    use cntr_fs::memfs::memfs;
    use cntr_overlay::{blobfs, BlobStore, OverlayFs};
    use cntr_types::Errno;

    /// Initial state: which of the 8 slots exist in each layer, with what
    /// content seed.
    #[derive(Debug, Clone)]
    pub struct Seed {
        pub base: Vec<(u8, u8)>,
        pub top: Vec<(u8, u8)>,
    }

    pub fn seed_strategy() -> impl Strategy<Value = Seed> {
        (
            proptest::collection::vec((0u8..8, any::<u8>()), 0..6),
            proptest::collection::vec((0u8..8, any::<u8>()), 0..6),
        )
            .prop_map(|(base, top)| Seed { base, top })
    }

    fn populate(fs: &dyn Filesystem, files: &[(u8, u8)]) {
        let ctx = FsContext::root();
        for &(slot, fill) in files {
            let n = name(slot);
            // Later duplicates overwrite earlier ones, as layering would.
            let ino = match fs.mknod(Ino::ROOT, &n, FileType::Regular, Mode::RW_R__R__, 0, &ctx) {
                Ok(st) => st.ino,
                Err(_) => fs.lookup(Ino::ROOT, &n).unwrap().ino,
            };
            fs.setattr(ino, &SetAttr::truncate(0), &ctx).unwrap();
            let fh = fs.open(ino, OpenFlags::WRONLY).unwrap();
            let content = vec![fill; usize::from(fill) + 1];
            fs.write(ino, fh, 0, &content).unwrap();
            fs.release(ino, fh).unwrap();
        }
    }

    /// Builds (overlay, flattened-oracle) from one seed.
    pub fn build(seed: &Seed) -> (Arc<OverlayFs>, Arc<MemFs>) {
        let clock = SimClock::new();
        let store = BlobStore::new();
        let base = blobfs(DevId(31), clock.clone(), store.clone());
        populate(base.as_ref(), &seed.base);
        let top = blobfs(DevId(32), clock.clone(), store.clone());
        populate(top.as_ref(), &seed.top);
        let upper = blobfs(DevId(33), clock.clone(), store);
        let overlay = OverlayFs::new(DevId(30), vec![top, base], upper);

        let oracle = memfs(DevId(40), clock);
        populate(oracle.as_ref(), &seed.base);
        populate(oracle.as_ref(), &seed.top);
        (overlay, oracle)
    }

    fn read_slot(fs: &dyn Filesystem, n: &str) -> Option<Vec<u8>> {
        let ino = fs.lookup(Ino::ROOT, n).ok()?.ino;
        let st = fs.getattr(ino).ok()?;
        let fh = fs.open(ino, OpenFlags::RDONLY).ok()?;
        let mut buf = vec![0u8; st.size as usize];
        let got = fs.read(ino, fh, 0, &mut buf).ok()?;
        fs.release(ino, fh).ok()?;
        buf.truncate(got);
        Some(buf)
    }

    /// Applies `op` to both filesystems and asserts identical outcomes.
    pub fn apply_both(ovl: &dyn Filesystem, mem: &dyn Filesystem, op: &Op) {
        let ctx = FsContext::root();
        let errno = |r: &Result<(), Errno>| *r;
        match op {
            Op::Create(slot) => {
                let n = name(*slot);
                let a = ovl
                    .mknod(Ino::ROOT, &n, FileType::Regular, Mode::RW_R__R__, 0, &ctx)
                    .map(|_| ());
                let b = mem
                    .mknod(Ino::ROOT, &n, FileType::Regular, Mode::RW_R__R__, 0, &ctx)
                    .map(|_| ());
                assert_eq!(errno(&a), errno(&b), "create {n}");
            }
            Op::WriteAt(slot, off, data) => {
                let n = name(*slot);
                for fs in [ovl, mem] {
                    let Ok(st) = fs.lookup(Ino::ROOT, &n) else {
                        continue;
                    };
                    let fh = fs.open(st.ino, OpenFlags::WRONLY).unwrap();
                    fs.write(st.ino, fh, u64::from(*off), data).unwrap();
                    fs.release(st.ino, fh).unwrap();
                }
            }
            Op::Truncate(slot, len) => {
                let n = name(*slot);
                for fs in [ovl, mem] {
                    if let Ok(st) = fs.lookup(Ino::ROOT, &n) {
                        fs.setattr(st.ino, &SetAttr::truncate(u64::from(*len)), &ctx)
                            .unwrap();
                    }
                }
            }
            Op::Unlink(slot) => {
                let n = name(*slot);
                let a = ovl.unlink(Ino::ROOT, &n);
                let b = mem.unlink(Ino::ROOT, &n);
                assert_eq!(a, b, "unlink {n}");
            }
            Op::Rename(x, y) => {
                let (nx, ny) = (name(*x), name(*y));
                let a = ovl.rename(Ino::ROOT, &nx, Ino::ROOT, &ny, RenameFlags::NONE);
                let b = mem.rename(Ino::ROOT, &nx, Ino::ROOT, &ny, RenameFlags::NONE);
                assert_eq!(a, b, "rename {nx} -> {ny}");
            }
            Op::Read(slot) => {
                let n = name(*slot);
                let a = read_slot(ovl, &n);
                let b = read_slot(mem, &n);
                assert_eq!(a, b, "content mismatch for {n}");
            }
        }
    }

    /// Full post-run audit: listings, sizes and contents must agree.
    pub fn audit(ovl: &dyn Filesystem, mem: &dyn Filesystem) {
        let list = |fs: &dyn Filesystem| -> Vec<(String, FileType)> {
            fs.readdir(Ino::ROOT)
                .unwrap()
                .into_iter()
                .map(|d| (d.name, d.ftype))
                .collect()
        };
        let a = list(ovl);
        let b = list(mem);
        assert_eq!(a, b, "merged readdir must equal flattened readdir");
        for (n, _) in a {
            assert_eq!(read_slot(ovl, &n), read_slot(mem, &n), "content of {n}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn overlay_matches_flattened_memfs(
        seed in overlay_oracle::seed_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let (overlay, oracle) = overlay_oracle::build(&seed);
        for op in &ops {
            overlay_oracle::apply_both(overlay.as_ref(), oracle.as_ref(), op);
        }
        overlay_oracle::audit(overlay.as_ref(), oracle.as_ref());
    }

    #[test]
    fn memfs_matches_flat_oracle(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let fs = memfs_with_capacity(DevId(1), SimClock::new(), 1 << 30);
        let mut oracle = HashMap::new();
        for op in &ops {
            apply(&fs, &mut oracle, op);
        }
        // Final full audit.
        let listed: Vec<String> = fs
            .readdir(Ino::ROOT)
            .unwrap()
            .into_iter()
            .map(|d| d.name)
            .collect();
        let mut expected: Vec<String> = oracle.keys().cloned().collect();
        expected.sort();
        prop_assert_eq!(listed, expected);
        for (n, want) in &oracle {
            let got = fs_read_all(&fs, n).expect("tracked file readable");
            prop_assert_eq!(&got, want);
        }
    }

    #[test]
    fn used_bytes_never_leaks_after_delete_everything(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        let fs = memfs_with_capacity(DevId(1), SimClock::new(), 1 << 30);
        let mut oracle = HashMap::new();
        for op in &ops {
            apply(&fs, &mut oracle, op);
        }
        for n in oracle.keys() {
            fs.unlink(Ino::ROOT, n).unwrap();
        }
        prop_assert_eq!(fs.used_bytes(), 0, "space must be reclaimed");
        prop_assert_eq!(fs.inode_count(), 1, "only the root remains");
    }

    #[test]
    fn sparse_reads_equal_zero_filled_oracle(
        offset in 0u64..100_000,
        len in 1usize..4096,
    ) {
        let fs = memfs_with_capacity(DevId(1), SimClock::new(), 1 << 30);
        let ctx = FsContext::root();
        let st = fs
            .mknod(Ino::ROOT, "sparse", FileType::Regular, Mode::RW_R__R__, 0, &ctx)
            .unwrap();
        let fh = fs.open(st.ino, OpenFlags::RDWR).unwrap();
        // One byte far out creates a sparse file.
        fs.write(st.ino, fh, offset + len as u64, &[0xFF]).unwrap();
        let mut buf = vec![0xAAu8; len];
        let got = fs.read(st.ino, fh, offset, &mut buf).unwrap();
        prop_assert_eq!(got, len);
        prop_assert!(buf.iter().all(|&b| b == 0), "hole must read zero");
    }
}
