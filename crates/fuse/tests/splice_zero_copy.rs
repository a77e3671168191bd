//! The zero-copy proof: pointer-identity assertions along the splice path.
//!
//! Virtual-time accounting says splice is cheaper; these tests prove the
//! implementation actually moves payloads **by reference**. Every hop a
//! payload crosses is recorded by [`cntr_fuse::testing`] instrumentation —
//! server storage, the `/dev/fuse` boundary, the client — and the copy
//! count is the number of pointer changes between adjacent hops:
//!
//! * a 1 MiB read with `splice_read` negotiated crosses the FUSE boundary
//!   with **0** payload copies (storage → wire → caller is one allocation);
//! * without `splice_read`, the same read pays ≥ 1 memcpy;
//! * a 1 MiB `splice_write` lands in blob chunk storage as *slices of the
//!   caller's buffer* — storage retains the wire allocation itself;
//! * without `splice_write`, the payload is copied at the boundary;
//! * overlay copy-up hands each stored lower chunk to the upper by
//!   reference: **0** copies per chunk;
//! * page-cache write-back hands each dirty page to blob storage as
//!   itself: the stored chunk *is* the resident page.

use bytes::Bytes;
use cntr_fs::memfs::memfs;
use cntr_fs::{Filesystem, FilesystemExt, FsContext};
use cntr_fuse::testing::{copies_along, CountingTransport, InstrumentedFs, PayloadLog};
use cntr_fuse::{FsHandler, FuseClientFs, FuseConfig, InitFlags, InlineTransport};
use cntr_kernel::pagecache::{FileRef, PageCache};
use cntr_kernel::CacheMode;
use cntr_overlay::{blobfs, BlobStore, CHUNK_SIZE};
use cntr_types::{DevId, FileType, Ino, Mode, OpenFlags, SimClock};
use std::sync::Arc;

const MIB: usize = 1 << 20;

/// Mounts a FUSE client over `backing` with full instrumentation.
fn instrumented_mount(
    flags: InitFlags,
    backing: Arc<dyn Filesystem>,
) -> (Arc<FuseClientFs>, Arc<PayloadLog>) {
    let log = PayloadLog::new();
    let inst = InstrumentedFs::new(backing, Arc::clone(&log));
    let inline = InlineTransport::new(FsHandler::new(inst));
    let transport = CountingTransport::new(inline, Arc::clone(&log));
    let client = FuseClientFs::mount(
        DevId(0xC0),
        SimClock::new(),
        FuseConfig::optimized().with_flags(flags),
        transport,
    )
    .expect("mount");
    (client, log)
}

/// A 1 MiB payload whose 4 KiB chunks are pairwise distinct and non-zero,
/// so blob dedup cannot alias them to pre-existing storage.
fn unique_payload() -> Vec<u8> {
    (0..MIB)
        .map(|i| ((i / CHUNK_SIZE) as u8) ^ ((i % 251) as u8 + 1))
        .collect()
}

fn create_and_fill(fs: &Arc<FuseClientFs>, payload: &[u8]) -> (Ino, cntr_fs::Fh) {
    let st = fs
        .mknod(
            Ino::ROOT,
            "f",
            FileType::Regular,
            Mode::RW_R__R__,
            0,
            &FsContext::root(),
        )
        .unwrap();
    let fh = fs.open(st.ino, OpenFlags::RDWR).unwrap();
    fs.write(st.ino, fh, 0, payload).unwrap();
    (st.ino, fh)
}

/// Performs a cold 1 MiB read and returns the pointer chain
/// `[storage, wire, caller]` plus the data itself.
fn read_chain(flags: InitFlags) -> (Vec<usize>, Bytes, Vec<u8>) {
    let backing = memfs(DevId(1), SimClock::new());
    let (fs, log) = instrumented_mount(flags, backing);
    let payload = unique_payload();
    let (ino, fh) = create_and_fill(&fs, &payload);
    fs.drop_caches();
    log.clear();

    let got = fs.read_bytes(ino, fh, 0, MIB).unwrap();
    assert_eq!(got.len(), MIB);

    let storage = log.last("fs-read").expect("storage hop recorded");
    let wire = log.last("wire-reply").expect("wire hop recorded");
    assert_eq!(storage.len, MIB, "storage answered the full request");
    (
        vec![storage.ptr, wire.ptr, got.as_ptr() as usize],
        got,
        payload,
    )
}

#[test]
fn spliced_1mib_read_crosses_the_boundary_with_zero_copies() {
    let mut flags = InitFlags::cntr_default();
    flags.splice_read = true;
    let (chain, got, payload) = read_chain(flags);
    assert_eq!(
        copies_along(&chain),
        0,
        "splice_read must hand one allocation end to end: {chain:x?}"
    );
    assert_eq!(&got[..], &payload[..], "zero-copy must not corrupt data");
}

#[test]
fn unspliced_1mib_read_pays_at_least_one_copy() {
    let mut flags = InitFlags::cntr_default();
    flags.splice_read = false;
    let (chain, got, payload) = read_chain(flags);
    assert!(
        copies_along(&chain) > 0,
        "without splice_read the boundary must memcpy: {chain:x?}"
    );
    assert_eq!(&got[..], &payload[..]);
}

/// Performs a 1 MiB `write_bytes` over a blob-backed server and returns
/// `(payload, chain [caller, wire, server], store, mount)`. The mount is
/// returned so the backing filesystem (which holds the chunk references)
/// outlives the assertions.
fn write_chain(flags: InitFlags) -> (Bytes, Vec<usize>, Arc<BlobStore>, Arc<FuseClientFs>) {
    let store = BlobStore::new();
    let backing = blobfs(DevId(2), SimClock::new(), Arc::clone(&store));
    let (fs, log) = instrumented_mount(flags, backing);
    let st = fs
        .mknod(
            Ino::ROOT,
            "w",
            FileType::Regular,
            Mode::RW_R__R__,
            0,
            &FsContext::root(),
        )
        .unwrap();
    let fh = fs.open(st.ino, OpenFlags::RDWR).unwrap();
    log.clear();

    let payload = Bytes::from(unique_payload());
    let n = fs
        .write_bytes(st.ino, fh, 0, std::slice::from_ref(&payload))
        .unwrap();
    assert_eq!(n, MIB);

    let wire = log.last("wire-request").expect("wire hop recorded");
    let server = log.last("fs-write").expect("server hop recorded");
    let chain = vec![payload.as_ptr() as usize, wire.ptr, server.ptr];
    (payload, chain, store, fs)
}

#[test]
fn spliced_1mib_write_is_retained_by_chunk_storage() {
    let (payload, chain, store, _mount) = write_chain(InitFlags::cntr_default());
    assert_eq!(
        copies_along(&chain),
        0,
        "splice_write must pass the caller's buffer through: {chain:x?}"
    );
    // The deepest hop: blob chunk storage holds *slices of the caller's
    // allocation* — the write landed without a single payload copy.
    for k in [0usize, 1, 127, 255] {
        let chunk = &payload[k * CHUNK_SIZE..(k + 1) * CHUNK_SIZE];
        let id = store.lookup_chunk(chunk).expect("chunk stored");
        let stored = store.chunk_bytes(id);
        assert_eq!(
            stored.as_ptr() as usize,
            payload.as_ptr() as usize + k * CHUNK_SIZE,
            "chunk {k} must be a slice of the original payload"
        );
    }
}

#[test]
fn unspliced_1mib_write_copies_at_the_boundary() {
    let mut flags = InitFlags::cntr_default();
    flags.splice_write = false;
    let (payload, chain, store, _mount) = write_chain(flags);
    assert!(
        copies_along(&chain) > 0,
        "without splice_write the boundary must memcpy: {chain:x?}"
    );
    // Storage still retains *some* allocation zero-copy — just not the
    // caller's (the copy happened at the /dev/fuse boundary).
    let chunk = &payload[0..CHUNK_SIZE];
    let id = store.lookup_chunk(chunk).expect("chunk stored");
    assert_ne!(
        store.chunk_bytes(id).as_ptr() as usize,
        payload.as_ptr() as usize,
        "the stored chunk must not alias the caller's buffer"
    );
}

/// The readahead window is retained by reference too: sequential 4 KiB
/// reads after a spliced 128 KiB fill are served as slices of the same
/// reply allocation.
#[test]
fn readahead_hits_are_slices_of_the_spliced_reply() {
    let backing = memfs(DevId(3), SimClock::new());
    let (fs, log) = instrumented_mount(InitFlags::cntr_default(), backing);
    let payload = unique_payload();
    let (ino, fh) = create_and_fill(&fs, &payload);
    fs.drop_caches();
    log.clear();

    let first = fs.read_bytes(ino, fh, 0, 4096).unwrap();
    let wire = log.last("wire-reply").expect("one READ issued");
    assert_eq!(first.as_ptr() as usize, wire.ptr);
    // The following window hits come from the same allocation, offset by
    // their position in the window — no further requests, no copies.
    for page in 1..4u64 {
        let next = fs.read_bytes(ino, fh, page * 4096, 4096).unwrap();
        assert_eq!(
            next.as_ptr() as usize,
            wire.ptr + (page * 4096) as usize,
            "readahead hit must slice the retained reply"
        );
        assert_eq!(&next[..], &payload[page as usize * 4096..][..4096]);
    }
    assert_eq!(
        log.all().iter().filter(|h| h.hop == "wire-reply").count(),
        1,
        "only the initial fill crossed the wire"
    );
}

/// Overlay copy-up moves each chunk by reference: the lower's `read_bytes`
/// slice of its stored chunk is what the upper's `write_bytes` receives,
/// and the upper, on the lower's store, takes it as a dedup refcount bump.
#[test]
fn copy_up_moves_chunks_by_reference() {
    const N: usize = 8;
    let store = BlobStore::new();
    let clock = SimClock::new();
    let ctx = FsContext::root();
    let lower_fs = blobfs(DevId(4), clock.clone(), Arc::clone(&store));
    let payload = unique_payload();
    let st = lower_fs
        .mknod(Ino::ROOT, "f", FileType::Regular, Mode::RW_R__R__, 0, &ctx)
        .unwrap();
    let fh = lower_fs.open(st.ino, OpenFlags::WRONLY).unwrap();
    lower_fs
        .write(st.ino, fh, 0, &payload[..N * CHUNK_SIZE])
        .unwrap();
    lower_fs.release(st.ino, fh).unwrap();

    let log = PayloadLog::new();
    let lower = InstrumentedFs::new(lower_fs, Arc::clone(&log));
    let upper = InstrumentedFs::new(
        blobfs(DevId(5), clock, Arc::clone(&store)),
        Arc::clone(&log),
    );
    let overlay = cntr_overlay::OverlayFs::new(DevId(6), vec![lower], upper);
    let before = store.stats();

    let f = overlay.lookup(Ino::ROOT, "f").unwrap();
    let ofh = overlay.open(f.ino, OpenFlags::WRONLY).unwrap();
    overlay.release(f.ino, ofh).unwrap();

    let hops = log.all();
    assert_eq!(
        hops.len(),
        2 * N,
        "one read and one write per chunk: {hops:?}"
    );
    for (k, pair) in hops.chunks(2).enumerate() {
        let chunk = &payload[k * CHUNK_SIZE..(k + 1) * CHUNK_SIZE];
        let stored = store.chunk_bytes(store.lookup_chunk(chunk).expect("chunk stored"));
        assert_eq!((pair[0].hop, pair[1].hop), ("fs-read", "fs-write"));
        assert_eq!((pair[0].len, pair[1].len), (CHUNK_SIZE, CHUNK_SIZE));
        let chain = [stored.as_ptr() as usize, pair[0].ptr, pair[1].ptr];
        assert_eq!(
            copies_along(&chain),
            0,
            "chunk {k} must move as the lower's stored chunk: {chain:x?}"
        );
    }
    let after = store.stats();
    assert_eq!(after.physical_bytes, before.physical_bytes);
    assert_eq!(after.dedup_hits, before.dedup_hits + N as u64);
    let mut buf = vec![0u8; N * CHUNK_SIZE];
    let rfh = overlay.open(f.ino, OpenFlags::RDONLY).unwrap();
    assert_eq!(overlay.read(f.ino, rfh, 0, &mut buf).unwrap(), buf.len());
    assert_eq!(&buf[..], &payload[..N * CHUNK_SIZE]);
}

/// Write-back hands each dirty page to storage by reference, one buffer per
/// page: over blobfs every stored chunk is its resident page's own
/// allocation, each run of dirty pages is one batch, and rewriting one page
/// frees its old chunk while its neighbours keep theirs.
#[test]
fn writeback_hands_each_page_to_chunk_storage() {
    let clock = SimClock::new();
    let store = BlobStore::new();
    let dev = DevId(7);
    let fs = blobfs(dev, clock.clone(), Arc::clone(&store)) as Arc<dyn Filesystem>;
    let ino = fs
        .mknod(
            Ino::ROOT,
            "wb",
            FileType::Regular,
            Mode::RW_R__R__,
            0,
            &FsContext::root(),
        )
        .unwrap()
        .ino;
    let fh = fs.open(ino, OpenFlags::RDWR).unwrap();
    let file = Arc::new(FileRef {
        fs: Arc::clone(&fs),
        ino,
        fh,
    });
    let cache = PageCache::new(clock, 1 << 20, 1 << 20, 1 << 19, false);
    let payload = unique_payload();
    let page_bytes = |p: u64| &payload[p as usize * CHUNK_SIZE..][..CHUNK_SIZE];
    let write = |p: u64, data: &[u8]| {
        cache
            .write(dev, CacheMode::native(), &file, p * CHUNK_SIZE as u64, data)
            .unwrap();
    };
    // Four adjacent pages and one apart: two runs.
    let pages = [0u64, 1, 2, 3, 5];
    for p in pages {
        write(p, page_bytes(p));
    }
    cache.flush_file(dev, ino).unwrap();
    assert_eq!(cache.stats().flush_batches, 2);
    let chunk = |data: &[u8]| {
        let id = store.lookup_chunk(data).expect("chunk stored");
        (id, store.chunk_bytes(id).as_ptr() as usize)
    };
    for p in pages {
        assert_eq!(
            cache.page_ptr(dev, ino, p),
            Some(chunk(page_bytes(p)).1),
            "page {p}'s stored chunk must be the page itself"
        );
    }

    let (old, _) = chunk(page_bytes(1));
    let neighbours = [0u64, 2, 3].map(|p| chunk(page_bytes(p)).1);
    let rewritten = vec![0xA5u8; CHUNK_SIZE];
    write(1, &rewritten);
    cache.flush_file(dev, ino).unwrap();
    assert_eq!(store.refs(old), 0, "the old chunk of page 1 is freed");
    assert_eq!(cache.page_ptr(dev, ino, 1), Some(chunk(&rewritten).1));
    for (p, ptr) in [0u64, 2, 3].into_iter().zip(neighbours) {
        assert_eq!(chunk(page_bytes(p)).1, ptr, "page {p} keeps its chunk");
        assert_eq!(cache.page_ptr(dev, ino, p), Some(ptr));
    }
}
