//! Behavioural tests of [`OverlayFs`]: copy-up, whiteouts, opaque
//! directories, readdir merging, and blob-store dedup across layers.

use cntr_fs::{Filesystem, FilesystemExt, FsContext, XattrFlags, XATTR_NAME_CAPS};
use cntr_overlay::backend::chunk_map;
use cntr_overlay::{blobfs, BlobStore, OverlayFs};
use cntr_types::{
    DevId, Errno, FileType, Gid, Ino, Mode, OpenFlags, RenameFlags, SetAttr, SimClock, Uid,
};
use std::sync::Arc;

const CHUNK: usize = 4096;

struct Stack {
    store: Arc<BlobStore>,
    lower_base: Arc<dyn Filesystem>,
    overlay: Arc<OverlayFs>,
}

/// Builds a two-lower overlay:
///
/// * base layer (bottom): `/bin/sh` (2 chunks of 0xAA), `/etc/conf`
///   ("base-conf"), `/shared/keep`, `/shared/gone`
/// * app layer (top):     `/app/run`, `/etc/conf` ("app-conf" shadows base)
fn stack() -> Stack {
    let store = BlobStore::new();
    let clock = SimClock::new();
    let ctx = FsContext::root();

    let base = blobfs(DevId(10), clock.clone(), Arc::clone(&store));
    let bin = base.mkdir(Ino::ROOT, "bin", Mode::RWXR_XR_X, &ctx).unwrap();
    let sh = base
        .mknod(bin.ino, "sh", FileType::Regular, Mode::RWXR_XR_X, 0, &ctx)
        .unwrap();
    let fh = base.open(sh.ino, OpenFlags::WRONLY).unwrap();
    base.write(sh.ino, fh, 0, &[0xAA; 2 * CHUNK]).unwrap();
    base.release(sh.ino, fh).unwrap();
    base.setattr(sh.ino, &SetAttr::chmod(Mode::RWXR_XR_X), &ctx)
        .unwrap();
    let etc = base.mkdir(Ino::ROOT, "etc", Mode::RWXR_XR_X, &ctx).unwrap();
    let conf = base
        .mknod(etc.ino, "conf", FileType::Regular, Mode::RW_R__R__, 0, &ctx)
        .unwrap();
    let fh = base.open(conf.ino, OpenFlags::WRONLY).unwrap();
    base.write(conf.ino, fh, 0, b"base-conf").unwrap();
    base.release(conf.ino, fh).unwrap();
    let shared = base
        .mkdir(Ino::ROOT, "shared", Mode::RWXR_XR_X, &ctx)
        .unwrap();
    for name in ["keep", "gone"] {
        base.mknod(
            shared.ino,
            name,
            FileType::Regular,
            Mode::RW_R__R__,
            0,
            &ctx,
        )
        .unwrap();
    }

    let app = blobfs(DevId(11), clock.clone(), Arc::clone(&store));
    let appdir = app.mkdir(Ino::ROOT, "app", Mode::RWXR_XR_X, &ctx).unwrap();
    app.mknod(
        appdir.ino,
        "run",
        FileType::Regular,
        Mode::RWXR_XR_X,
        0,
        &ctx,
    )
    .unwrap();
    let etc = app.mkdir(Ino::ROOT, "etc", Mode::RWXR_XR_X, &ctx).unwrap();
    let conf = app
        .mknod(etc.ino, "conf", FileType::Regular, Mode::RW_R__R__, 0, &ctx)
        .unwrap();
    let fh = app.open(conf.ino, OpenFlags::WRONLY).unwrap();
    app.write(conf.ino, fh, 0, b"app-conf").unwrap();
    app.release(conf.ino, fh).unwrap();

    let upper = blobfs(DevId(12), clock, Arc::clone(&store));
    // Topmost lower first: app shadows base.
    let overlay = OverlayFs::new(
        DevId(100),
        vec![
            app as Arc<dyn Filesystem>,
            Arc::clone(&base) as Arc<dyn Filesystem>,
        ],
        upper,
    );
    Stack {
        store,
        lower_base: base,
        overlay,
    }
}

fn resolve(fs: &dyn Filesystem, path: &str) -> Result<cntr_types::Stat, Errno> {
    let mut ino = Ino::ROOT;
    let mut st = fs.getattr(ino)?;
    for comp in path.split('/').filter(|c| !c.is_empty()) {
        st = fs.lookup(ino, comp)?;
        ino = st.ino;
    }
    Ok(st)
}

fn read_all(fs: &dyn Filesystem, path: &str) -> Vec<u8> {
    let st = resolve(fs, path).unwrap();
    let fh = fs.open(st.ino, OpenFlags::RDONLY).unwrap();
    let mut buf = vec![0u8; st.size as usize];
    let n = fs.read(st.ino, fh, 0, &mut buf).unwrap();
    fs.release(st.ino, fh).unwrap();
    buf.truncate(n);
    buf
}

fn write_at(fs: &dyn Filesystem, path: &str, offset: u64, data: &[u8]) {
    let st = resolve(fs, path).unwrap();
    let fh = fs.open(st.ino, OpenFlags::WRONLY).unwrap();
    fs.write(st.ino, fh, offset, data).unwrap();
    fs.release(st.ino, fh).unwrap();
}

fn names(fs: &dyn Filesystem, path: &str) -> Vec<String> {
    let st = resolve(fs, path).unwrap();
    fs.readdir(st.ino)
        .unwrap()
        .into_iter()
        .map(|d| d.name)
        .collect()
}

#[test]
fn merged_view_shadows_and_unions() {
    let s = stack();
    // Shadowing: the app layer's /etc/conf wins.
    assert_eq!(read_all(s.overlay.as_ref(), "/etc/conf"), b"app-conf");
    // Union at the root: entries from both layers.
    assert_eq!(
        names(s.overlay.as_ref(), "/"),
        vec!["app", "bin", "etc", "shared"]
    );
    // Base-only content is visible.
    assert_eq!(
        read_all(s.overlay.as_ref(), "/bin/sh"),
        vec![0xAA; 2 * CHUNK]
    );
}

#[test]
fn inode_numbers_are_stable_across_lookups_and_copy_up() {
    let s = stack();
    let before = resolve(s.overlay.as_ref(), "/bin/sh").unwrap();
    let again = resolve(s.overlay.as_ref(), "/bin/sh").unwrap();
    assert_eq!(before.ino, again.ino);
    write_at(s.overlay.as_ref(), "/bin/sh", 0, b"patched");
    let after = resolve(s.overlay.as_ref(), "/bin/sh").unwrap();
    assert_eq!(before.ino, after.ino, "copy-up must not change st_ino");
    assert_eq!(before.dev, after.dev);
}

#[test]
fn copy_up_on_write_leaves_lower_untouched_and_dedups() {
    let s = stack();
    let physical_before = s.store.stats().physical_bytes;
    // Overwrite 7 bytes of the first chunk of the 2-chunk file.
    write_at(s.overlay.as_ref(), "/bin/sh", 0, b"patched");
    let mut want = vec![0xAA; 2 * CHUNK];
    want[..7].copy_from_slice(b"patched");
    assert_eq!(read_all(s.overlay.as_ref(), "/bin/sh"), want);
    // The lower layer still has the pristine file.
    assert_eq!(
        read_all(s.lower_base.as_ref(), "/bin/sh"),
        vec![0xAA; 2 * CHUNK]
    );
    // The unmodified second chunk deduped against the lower copy: only one
    // new chunk was stored.
    let physical_after = s.store.stats().physical_bytes;
    assert_eq!(
        physical_after - physical_before,
        CHUNK as u64,
        "copy-up of the unmodified chunk must be a refcount bump"
    );
}

/// A one-file lower (`/f`: five distinct chunks and a 100-byte tail) and
/// an upper, each a `BlobFs` on the given store.
fn one_file_overlay(
    lower_store: &Arc<BlobStore>,
    upper_store: &Arc<BlobStore>,
) -> (Arc<dyn Filesystem>, Arc<OverlayFs>, Vec<u8>) {
    let clock = SimClock::new();
    let ctx = FsContext::root();
    let payload: Vec<u8> = (0..5 * CHUNK + 100)
        .map(|i| (i / 3 % 251 + 1) as u8)
        .collect();
    let lower = blobfs(DevId(20), clock.clone(), Arc::clone(lower_store));
    let f = lower
        .mknod(Ino::ROOT, "f", FileType::Regular, Mode::RW_R__R__, 0, &ctx)
        .unwrap();
    let fh = lower.open(f.ino, OpenFlags::WRONLY).unwrap();
    lower.write(f.ino, fh, 0, &payload).unwrap();
    lower.release(f.ino, fh).unwrap();
    let upper = blobfs(DevId(21), clock, Arc::clone(upper_store));
    let lower: Arc<dyn Filesystem> = lower;
    let overlay = OverlayFs::new(DevId(22), vec![Arc::clone(&lower)], upper);
    (lower, overlay, payload)
}

#[test]
fn one_page_written_to_an_adopted_copy_up_leaves_the_lower_intact() {
    let store = BlobStore::new();
    let (lower, overlay, payload) = one_file_overlay(&store, &store);
    let lower_ino = resolve(lower.as_ref(), "/f").unwrap().ino;
    let lower_map = chunk_map(lower.as_ref(), lower_ino).unwrap();
    assert_eq!(lower_map.chunks().len(), 6);
    let refs_before: Vec<u64> = lower_map
        .chunks()
        .iter()
        .map(|&(_, id)| store.refs(id))
        .collect();
    let stats_before = store.stats();

    // One whole page written over page 1 copies the file up first.
    write_at(overlay.as_ref(), "/f", CHUNK as u64, &[0x5A; CHUNK]);

    let mut want = payload.clone();
    want[CHUNK..2 * CHUNK].fill(0x5A);
    assert_eq!(read_all(overlay.as_ref(), "/f"), want);
    assert_eq!(
        read_all(lower.as_ref(), "/f"),
        payload,
        "lower bytes intact"
    );
    for (&(page, id), before) in lower_map.chunks().iter().zip(refs_before) {
        // The upper took a reference on every lower chunk, then gave back
        // the one the write replaced.
        let held_by_upper = u64::from(page != 1);
        assert_eq!(store.refs(id), before + held_by_upper, "page {page}");
    }
    let upper_ino = resolve(overlay.upper_layer().as_ref(), "/f").unwrap().ino;
    let upper_map = chunk_map(overlay.upper_layer().as_ref(), upper_ino).unwrap();
    assert_eq!(upper_map.len(), payload.len() as u64);
    for (up, low) in upper_map.chunks().iter().zip(lower_map.chunks()) {
        assert_eq!(up.0, low.0);
        assert_eq!(up.1 == low.1, up.0 != 1, "page {}", up.0);
    }
    // The copy-up counts as the six chunk writes it replaced, then the
    // page write stores one new chunk.
    let stats_after = store.stats();
    assert_eq!(stats_after.dedup_hits, stats_before.dedup_hits + 6);
    assert_eq!(
        stats_after.ingested_bytes,
        stats_before.ingested_bytes + 7 * CHUNK as u64
    );
    assert_eq!(
        stats_after.physical_bytes,
        stats_before.physical_bytes + CHUNK as u64
    );
}

#[test]
fn copy_up_across_two_stores_copies_the_bytes() {
    let (lower_store, upper_store) = (BlobStore::new(), BlobStore::new());
    let (lower, overlay, payload) = one_file_overlay(&lower_store, &upper_store);
    let lower_ino = resolve(lower.as_ref(), "/f").unwrap().ino;
    let lower_map = chunk_map(lower.as_ref(), lower_ino).unwrap();
    let lower_stats = lower_store.stats();

    write_at(overlay.as_ref(), "/f", 0, b"x");

    let mut want = payload.clone();
    want[0] = b'x';
    assert_eq!(read_all(overlay.as_ref(), "/f"), want);
    assert_eq!(read_all(lower.as_ref(), "/f"), payload);
    assert_eq!(
        lower_store.stats(),
        lower_stats,
        "nothing shared across stores"
    );
    for &(_, id) in lower_map.chunks() {
        assert_eq!(lower_store.refs(id), 2, "the lower file and the map");
    }
    assert_eq!(upper_store.stats().unique_chunks, 6);
}

#[test]
fn copy_up_preserves_ownership_mode_and_xattrs() {
    let s = stack();
    let ctx = FsContext::root();
    // Stamp distinctive metadata on the lower file via the lower fs.
    let lsh = resolve(s.lower_base.as_ref(), "/bin/sh").unwrap();
    s.lower_base
        .setattr(lsh.ino, &SetAttr::chown(Uid(1234), Gid(5678)), &ctx)
        .unwrap();
    s.lower_base
        .setattr(lsh.ino, &SetAttr::chmod(Mode::new(0o4755)), &ctx)
        .unwrap();
    s.lower_base
        .setxattr(lsh.ino, "user.origin", b"base", XattrFlags::Any)
        .unwrap();
    s.lower_base
        .setxattr(lsh.ino, XATTR_NAME_CAPS, b"caps", XattrFlags::Any)
        .unwrap();

    // Any root-driven write copies the file up...
    write_at(s.overlay.as_ref(), "/bin/sh", CHUNK as u64, b"x");
    let st = resolve(s.overlay.as_ref(), "/bin/sh").unwrap();
    // ...but the copy keeps the *original* owner, not the writer's.
    assert_eq!(st.uid, Uid(1234), "copy-up ownership stamping");
    assert_eq!(st.gid, Gid(5678));
    assert_eq!(st.mode.bits() & 0o777, 0o755);
    assert_eq!(
        s.overlay.getxattr(st.ino, "user.origin").unwrap(),
        b"base",
        "xattrs survive copy-up"
    );
    // File capabilities too (Linux's `ovl_copy_xattr`): stripping them
    // on a write is the kernel's job, not the copy-up's.
    assert_eq!(
        s.overlay.getxattr(st.ino, XATTR_NAME_CAPS).unwrap(),
        b"caps",
        "security.capability survives copy-up"
    );
}

#[test]
fn unlink_of_lower_file_creates_whiteout() {
    let s = stack();
    let shared = resolve(s.overlay.as_ref(), "/shared").unwrap();
    s.overlay.unlink(shared.ino, "gone").unwrap();
    assert_eq!(
        resolve(s.overlay.as_ref(), "/shared/gone").unwrap_err(),
        Errno::ENOENT
    );
    assert_eq!(names(s.overlay.as_ref(), "/shared"), vec!["keep"]);
    // The lower layer still has the file; the upper has a 0/0 chardev.
    assert!(resolve(s.lower_base.as_ref(), "/shared/gone").is_ok());
    let wh = resolve(s.overlay.upper_layer().as_ref(), "/shared/gone").unwrap();
    assert_eq!(wh.ftype, FileType::CharDevice);
    assert_eq!(wh.rdev, 0);
}

#[test]
fn recreate_after_unlink_is_independent_of_lower() {
    let s = stack();
    let ctx = FsContext::root();
    let shared = resolve(s.overlay.as_ref(), "/shared").unwrap();
    s.overlay.unlink(shared.ino, "gone").unwrap();
    let st = s
        .overlay
        .mknod(
            shared.ino,
            "gone",
            FileType::Regular,
            Mode::RW_R__R__,
            0,
            &ctx,
        )
        .unwrap();
    assert_eq!(st.size, 0, "fresh file, not the lower one");
    assert_eq!(names(s.overlay.as_ref(), "/shared"), vec!["gone", "keep"]);
}

#[test]
fn rmdir_of_merged_dir_whiteouts_and_mkdir_is_opaque() {
    let s = stack();
    let root = Ino::ROOT;
    let ctx = FsContext::root();
    // /shared is non-empty.
    assert_eq!(
        s.overlay.rmdir(root, "shared").unwrap_err(),
        Errno::ENOTEMPTY
    );
    let shared = resolve(s.overlay.as_ref(), "/shared").unwrap();
    s.overlay.unlink(shared.ino, "keep").unwrap();
    s.overlay.unlink(shared.ino, "gone").unwrap();
    s.overlay.rmdir(root, "shared").unwrap();
    assert_eq!(
        resolve(s.overlay.as_ref(), "/shared").unwrap_err(),
        Errno::ENOENT
    );

    // Recreating the directory must NOT resurrect lower children.
    s.overlay
        .mkdir(root, "shared", Mode::RWXR_XR_X, &ctx)
        .unwrap();
    assert_eq!(names(s.overlay.as_ref(), "/shared"), Vec::<String>::new());
    // The new upper dir carries the opaque marker (hidden from the overlay
    // view itself).
    let upper_shared = resolve(s.overlay.upper_layer().as_ref(), "/shared").unwrap();
    assert!(s
        .overlay
        .upper_layer()
        .getxattr(upper_shared.ino, "trusted.overlay.opaque")
        .is_ok());
    let ovl_shared = resolve(s.overlay.as_ref(), "/shared").unwrap();
    assert_eq!(
        s.overlay.listxattr(ovl_shared.ino).unwrap(),
        Vec::<String>::new(),
        "trusted.overlay.* is filtered from the overlay view"
    );
}

#[test]
fn rename_of_lower_file_whiteouts_source() {
    let s = stack();
    let shared = resolve(s.overlay.as_ref(), "/shared").unwrap();
    s.overlay
        .rename(shared.ino, "keep", shared.ino, "kept", RenameFlags::NONE)
        .unwrap();
    assert_eq!(names(s.overlay.as_ref(), "/shared"), vec!["gone", "kept"]);
    assert!(resolve(s.lower_base.as_ref(), "/shared/keep").is_ok());
}

#[test]
fn rename_of_merged_directory_deep_copies() {
    let s = stack();
    s.overlay
        .rename(Ino::ROOT, "shared", Ino::ROOT, "moved", RenameFlags::NONE)
        .unwrap();
    assert_eq!(names(s.overlay.as_ref(), "/moved"), vec!["gone", "keep"]);
    assert_eq!(
        resolve(s.overlay.as_ref(), "/shared").unwrap_err(),
        Errno::ENOENT
    );
    assert_eq!(
        names(s.overlay.as_ref(), "/"),
        vec!["app", "bin", "etc", "moved"]
    );
    // The lower tree is untouched.
    assert!(resolve(s.lower_base.as_ref(), "/shared/keep").is_ok());
}

#[test]
fn truncate_of_lower_file_copies_up_without_data() {
    let s = stack();
    let ctx = FsContext::root();
    let physical_before = s.store.stats().physical_bytes;
    let st = resolve(s.overlay.as_ref(), "/bin/sh").unwrap();
    s.overlay
        .setattr(st.ino, &SetAttr::truncate(0), &ctx)
        .unwrap();
    assert_eq!(resolve(s.overlay.as_ref(), "/bin/sh").unwrap().size, 0);
    assert_eq!(
        s.store.stats().physical_bytes,
        physical_before,
        "truncate-to-zero copy-up must not copy data"
    );
    assert_eq!(
        read_all(s.lower_base.as_ref(), "/bin/sh"),
        vec![0xAA; 2 * CHUNK]
    );
}

#[test]
fn stale_read_through_preexisting_handle_is_the_linux_quirk() {
    let s = stack();
    let st = resolve(s.overlay.as_ref(), "/etc/conf").unwrap();
    let rfh = s.overlay.open(st.ino, OpenFlags::RDONLY).unwrap();
    write_at(s.overlay.as_ref(), "/etc/conf", 0, b"NEW!-conf");
    let mut buf = [0u8; 9];
    s.overlay.read(st.ino, rfh, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"app-conf\0", "pre-copy-up handle reads lower data");
    s.overlay.release(st.ino, rfh).unwrap();
    assert_eq!(read_all(s.overlay.as_ref(), "/etc/conf"), b"NEW!-conf");
}

#[test]
fn link_copies_up_and_links_in_upper() {
    let s = stack();
    let st = resolve(s.overlay.as_ref(), "/shared/keep").unwrap();
    let etc = resolve(s.overlay.as_ref(), "/etc").unwrap();
    let linked = s.overlay.link(st.ino, etc.ino, "keep-link").unwrap();
    assert_eq!(linked.ino, st.ino, "hard link shares the overlay inode");
    assert_eq!(linked.nlink, 2);
    write_at(s.overlay.as_ref(), "/etc/keep-link", 0, b"via-link");
    assert_eq!(read_all(s.overlay.as_ref(), "/shared/keep"), b"via-link");
}

#[test]
fn exchange_swaps_upper_and_lower_entries() {
    let s = stack();
    let etc = resolve(s.overlay.as_ref(), "/etc").unwrap();
    let shared = resolve(s.overlay.as_ref(), "/shared").unwrap();
    write_at(s.overlay.as_ref(), "/shared/keep", 0, b"KEEP");
    s.overlay
        .rename(etc.ino, "conf", shared.ino, "keep", RenameFlags::EXCHANGE)
        .unwrap();
    assert_eq!(read_all(s.overlay.as_ref(), "/etc/conf"), b"KEEP");
    assert_eq!(read_all(s.overlay.as_ref(), "/shared/keep"), b"app-conf");
}

#[test]
fn statfs_and_fs_identity() {
    let s = stack();
    assert_eq!(s.overlay.fs_type(), "overlay");
    assert!(s.overlay.fs_options().contains("lowerdir=2x"));
    assert!(s.overlay.statfs().unwrap().blocks > 0);
}

// ---------------------------------------------------------------------
// Dentry + negative-lookup cache
// ---------------------------------------------------------------------

mod dcache {
    use super::*;
    use bytes::Bytes;
    use cntr_fs::{FallocateMode, Fh, FsFeatures};
    use cntr_types::{Dirent, RenameFlags, Statfs, SysResult};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A lower layer that counts how often the overlay consults it.
    struct CountingFs {
        inner: Arc<dyn Filesystem>,
        lookups: AtomicU64,
        readdirs: AtomicU64,
    }

    impl CountingFs {
        fn new(inner: Arc<dyn Filesystem>) -> Arc<CountingFs> {
            Arc::new(CountingFs {
                inner,
                lookups: AtomicU64::new(0),
                readdirs: AtomicU64::new(0),
            })
        }

        fn lookups(&self) -> u64 {
            self.lookups.load(Ordering::Relaxed)
        }

        fn readdirs(&self) -> u64 {
            self.readdirs.load(Ordering::Relaxed)
        }
    }

    impl Filesystem for CountingFs {
        fn fs_id(&self) -> DevId {
            self.inner.fs_id()
        }
        fn fs_type(&self) -> &'static str {
            self.inner.fs_type()
        }
        fn features(&self) -> FsFeatures {
            self.inner.features()
        }
        fn lookup(&self, parent: Ino, name: &str) -> SysResult<cntr_types::Stat> {
            self.lookups.fetch_add(1, Ordering::Relaxed);
            self.inner.lookup(parent, name)
        }
        fn getattr(&self, ino: Ino) -> SysResult<cntr_types::Stat> {
            self.inner.getattr(ino)
        }
        fn setattr(
            &self,
            ino: Ino,
            attr: &SetAttr,
            ctx: &FsContext,
        ) -> SysResult<cntr_types::Stat> {
            self.inner.setattr(ino, attr, ctx)
        }
        fn mknod(
            &self,
            parent: Ino,
            name: &str,
            ftype: FileType,
            mode: Mode,
            rdev: u64,
            ctx: &FsContext,
        ) -> SysResult<cntr_types::Stat> {
            self.inner.mknod(parent, name, ftype, mode, rdev, ctx)
        }
        fn mkdir(
            &self,
            parent: Ino,
            name: &str,
            mode: Mode,
            ctx: &FsContext,
        ) -> SysResult<cntr_types::Stat> {
            self.inner.mkdir(parent, name, mode, ctx)
        }
        fn unlink(&self, parent: Ino, name: &str) -> SysResult<()> {
            self.inner.unlink(parent, name)
        }
        fn rmdir(&self, parent: Ino, name: &str) -> SysResult<()> {
            self.inner.rmdir(parent, name)
        }
        fn symlink(
            &self,
            parent: Ino,
            name: &str,
            target: &str,
            ctx: &FsContext,
        ) -> SysResult<cntr_types::Stat> {
            self.inner.symlink(parent, name, target, ctx)
        }
        fn readlink(&self, ino: Ino) -> SysResult<String> {
            self.inner.readlink(ino)
        }
        fn link(&self, ino: Ino, newparent: Ino, newname: &str) -> SysResult<cntr_types::Stat> {
            self.inner.link(ino, newparent, newname)
        }
        fn rename(
            &self,
            parent: Ino,
            name: &str,
            newparent: Ino,
            newname: &str,
            flags: RenameFlags,
        ) -> SysResult<()> {
            self.inner.rename(parent, name, newparent, newname, flags)
        }
        fn open(&self, ino: Ino, flags: OpenFlags) -> SysResult<Fh> {
            self.inner.open(ino, flags)
        }
        fn release(&self, ino: Ino, fh: Fh) -> SysResult<()> {
            self.inner.release(ino, fh)
        }
        fn read_bytes(&self, ino: Ino, fh: Fh, offset: u64, len: usize) -> SysResult<Bytes> {
            self.inner.read_bytes(ino, fh, offset, len)
        }
        fn write_bytes(&self, ino: Ino, fh: Fh, offset: u64, data: &[Bytes]) -> SysResult<usize> {
            self.inner.write_bytes(ino, fh, offset, data)
        }
        fn fsync(&self, ino: Ino, fh: Fh, datasync: bool) -> SysResult<()> {
            self.inner.fsync(ino, fh, datasync)
        }
        fn readdir(&self, ino: Ino) -> SysResult<Vec<Dirent>> {
            self.readdirs.fetch_add(1, Ordering::Relaxed);
            self.inner.readdir(ino)
        }
        fn statfs(&self) -> SysResult<Statfs> {
            self.inner.statfs()
        }
        fn getxattr(&self, ino: Ino, name: &str) -> SysResult<Vec<u8>> {
            self.inner.getxattr(ino, name)
        }
        fn setxattr(&self, ino: Ino, name: &str, value: &[u8], flags: XattrFlags) -> SysResult<()> {
            self.inner.setxattr(ino, name, value, flags)
        }
        fn listxattr(&self, ino: Ino) -> SysResult<Vec<String>> {
            self.inner.listxattr(ino)
        }
        fn removexattr(&self, ino: Ino, name: &str) -> SysResult<()> {
            self.inner.removexattr(ino, name)
        }
        fn fallocate(
            &self,
            ino: Ino,
            fh: Fh,
            offset: u64,
            len: u64,
            mode: FallocateMode,
        ) -> SysResult<()> {
            self.inner.fallocate(ino, fh, offset, len, mode)
        }
    }

    /// Overlay whose single lower layer counts every consultation.
    fn counting_stack() -> (Arc<OverlayFs>, Arc<CountingFs>) {
        let store = BlobStore::new();
        let clock = SimClock::new();
        let ctx = FsContext::root();
        let base = blobfs(DevId(10), clock.clone(), Arc::clone(&store));
        let dir = base.mkdir(Ino::ROOT, "dir", Mode::RWXR_XR_X, &ctx).unwrap();
        for i in 0..4 {
            base.mknod(
                dir.ino,
                &format!("f{i}"),
                FileType::Regular,
                Mode::RW_R__R__,
                0,
                &ctx,
            )
            .unwrap();
        }
        let counting = CountingFs::new(base);
        let upper = blobfs(DevId(11), clock, store);
        let overlay = OverlayFs::new(
            DevId(12),
            vec![Arc::clone(&counting) as Arc<dyn Filesystem>],
            upper,
        );
        (overlay, counting)
    }

    #[test]
    fn hot_lookup_stops_consulting_lower_layers() {
        let (ovl, lower) = counting_stack();
        let first = resolve(ovl.as_ref(), "/dir/f0").unwrap();
        let cold = lower.lookups();
        assert!(cold > 0, "cold lookup must consult the lower layer");
        for _ in 0..10 {
            let again = resolve(ovl.as_ref(), "/dir/f0").unwrap();
            assert_eq!(again.ino, first.ino);
        }
        assert_eq!(
            lower.lookups(),
            cold,
            "warm lookups must be served from the dentry cache"
        );
    }

    #[test]
    fn negative_lookups_are_cached() {
        let (ovl, lower) = counting_stack();
        let dir = resolve(ovl.as_ref(), "/dir").unwrap();
        assert_eq!(
            ovl.lookup(dir.ino, "missing").map(|_| ()),
            Err(Errno::ENOENT)
        );
        let cold = lower.lookups();
        for _ in 0..10 {
            assert_eq!(
                ovl.lookup(dir.ino, "missing").map(|_| ()),
                Err(Errno::ENOENT)
            );
        }
        assert_eq!(
            lower.lookups(),
            cold,
            "repeated ENOENT lookups must hit the negative cache"
        );
        // Creating the name must overwrite the negative entry.
        let ctx = FsContext::root();
        ovl.mknod(
            dir.ino,
            "missing",
            FileType::Regular,
            Mode::RW_R__R__,
            0,
            &ctx,
        )
        .unwrap();
        assert!(ovl.lookup(dir.ino, "missing").is_ok());
    }

    #[test]
    fn merged_readdir_is_cached_and_invalidated_on_create() {
        let (ovl, lower) = counting_stack();
        let dir = resolve(ovl.as_ref(), "/dir").unwrap();
        let n1 = names(ovl.as_ref(), "/dir").len();
        let cold = lower.readdirs();
        for _ in 0..5 {
            assert_eq!(names(ovl.as_ref(), "/dir").len(), n1);
        }
        assert_eq!(
            lower.readdirs(),
            cold,
            "warm merged readdir must not re-read the lower layer"
        );
        let ctx = FsContext::root();
        ovl.mknod(dir.ino, "new", FileType::Regular, Mode::RW_R__R__, 0, &ctx)
            .unwrap();
        assert_eq!(
            names(ovl.as_ref(), "/dir").len(),
            n1 + 1,
            "create refreshes"
        );
    }

    #[test]
    fn unlink_and_rename_invalidate_cached_entries() {
        let (ovl, _lower) = counting_stack();
        let dir = resolve(ovl.as_ref(), "/dir").unwrap();
        // Warm the cache, then unlink: the name must go negative.
        assert!(resolve(ovl.as_ref(), "/dir/f1").is_ok());
        ovl.unlink(dir.ino, "f1").unwrap();
        assert_eq!(
            resolve(ovl.as_ref(), "/dir/f1").map(|_| ()),
            Err(Errno::ENOENT)
        );
        // Rename: source goes negative, destination resolves to the node.
        let f2 = resolve(ovl.as_ref(), "/dir/f2").unwrap();
        ovl.rename(dir.ino, "f2", dir.ino, "renamed", RenameFlags::NONE)
            .unwrap();
        assert_eq!(
            resolve(ovl.as_ref(), "/dir/f2").map(|_| ()),
            Err(Errno::ENOENT)
        );
        assert_eq!(resolve(ovl.as_ref(), "/dir/renamed").unwrap().ino, f2.ino);
    }

    #[test]
    fn negative_cache_is_bounded() {
        let (ovl, _lower) = counting_stack();
        let dir = resolve(ovl.as_ref(), "/dir").unwrap();
        // Probe far more distinct missing names than the cache cap: memory
        // stays bounded (the cache self-clears on overflow) and correctness
        // is unaffected afterwards.
        for i in 0..70_000u32 {
            assert_eq!(
                ovl.lookup(dir.ino, &format!("nope-{i}")).map(|_| ()),
                Err(Errno::ENOENT)
            );
        }
        assert!(resolve(ovl.as_ref(), "/dir/f0").is_ok());
        assert_eq!(
            ovl.lookup(dir.ino, "nope-1").map(|_| ()),
            Err(Errno::ENOENT)
        );
    }
}
