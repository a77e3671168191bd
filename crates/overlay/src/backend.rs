//! A `FileStore` whose file contents are chunk references into a shared
//! [`BlobStore`].
//!
//! `NodeFs<BlobBackend>` ([`BlobFs`]) behaves exactly like `MemFs` at the
//! POSIX level — same semantics, same sparse-file behaviour — but every
//! written page is content-hashed into the machine-wide blob store, so
//! identical data across files, layers, and filesystems is stored once.
//! A written page the store already holds costs its digest and a byte
//! compare, then a refcount bump.
//!
//! Content the store already holds as a chunk map — an image blob's
//! [`BlobHandle`], another `BlobFs` file's [`chunk_map`] — needs neither:
//! [`clone_file`] installs the map by reference, in the manner of Linux's
//! `FICLONE`. Layer materialization and overlay copy-up take that path,
//! which is what makes container start and copy-up cheap and N containers
//! of one image O(upper writes).

use crate::blob::{is_zero, BlobHandle, BlobId, BlobStore, CHUNK_SIZE};
use bytes::Bytes;
use cntr_fs::nodefs::NodeFs;
use cntr_fs::store::{for_each_page, punch_hole_pages, zero_partial_edges, FileStore};
use cntr_fs::Filesystem;
use cntr_types::{DevId, Errno, IdMap, Ino, SimClock, SysResult};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// The shared all-zero chunk holes read from (the moral equivalent of the
/// kernel's `ZERO_PAGE`): hole reads on the splice path hand out slices of
/// this one allocation instead of zero-filling fresh buffers.
fn zero_chunk() -> &'static Bytes {
    static ZERO: OnceLock<Bytes> = OnceLock::new();
    ZERO.get_or_init(|| Bytes::from(vec![0u8; CHUNK_SIZE]))
}

/// Lock class of a backend's held-chunk ledger.
pub(crate) const HELD_CLASS: &str = "overlay.backend.held";

/// Content store delegating all bytes to a shared [`BlobStore`].
pub struct BlobBackend {
    store: Arc<BlobStore>,
    /// Ledger of the store references this filesystem currently holds.
    /// `BlobContent` values cannot release their own references (they have
    /// no store pointer), so the backend tracks them and `Drop` returns
    /// every outstanding reference — a dropped filesystem (a stopped
    /// container's upper layer, a discarded lower) never strands chunks.
    held: Mutex<IdMap<BlobId, u64>>,
}

impl BlobBackend {
    /// A backend writing into `store`.
    pub fn new(store: Arc<BlobStore>) -> BlobBackend {
        BlobBackend {
            store,
            held: Mutex::new_class(HELD_CLASS, IdMap::default()),
        }
    }

    /// The shared store.
    pub fn store(&self) -> &Arc<BlobStore> {
        &self.store
    }

    /// Replaces the chunk mapped at `page` (if any) with `id`-or-hole,
    /// releasing the old reference.
    fn remap(&self, content: &mut BlobContent, page: u64, id: Option<BlobId>) {
        let old = match id {
            Some(id) => {
                *self.held.lock().entry(id).or_insert(0) += 1;
                content.chunks.insert(page, id)
            }
            None => content.chunks.remove(&page),
        };
        if let Some(old) = old {
            self.release(old);
        }
    }

    /// A chunk map that holds its own reference on each chunk of `src`
    /// (one `inc_ref` each, entered in the ledger), counted in the store's
    /// stats as the writes of those chunks it replaces.
    fn adopt(&self, src: &BlobHandle) -> BlobContent {
        self.store.adopt(src);
        let mut held = self.held.lock();
        for &(_, id) in src.chunks() {
            *held.entry(id).or_insert(0) += 1;
        }
        BlobContent {
            chunks: src.chunks().iter().copied().collect(),
        }
    }

    /// Returns one store reference and balances the ledger.
    fn release(&self, id: BlobId) {
        self.store.dec_ref(id);
        let mut held = self.held.lock();
        if let Some(count) = held.get_mut(&id) {
            *count -= 1;
            if *count == 0 {
                held.remove(&id);
            }
        }
    }
}

impl Drop for BlobBackend {
    fn drop(&mut self) {
        for (id, count) in self.held.lock().drain() {
            for _ in 0..count {
                self.store.dec_ref(id);
            }
        }
    }
}

/// Per-file chunk map: page number → chunk id (holes absent).
#[derive(Default)]
pub struct BlobContent {
    chunks: BTreeMap<u64, BlobId>,
}

impl FileStore for BlobBackend {
    type Content = BlobContent;

    fn read(&self, content: &BlobContent, offset: u64, buf: &mut [u8]) {
        for_each_page(offset, buf.len(), |page_no, in_page, pos, n| match content
            .chunks
            .get(&page_no)
        {
            Some(&id) => self.store.read(id, in_page, &mut buf[pos..pos + n]),
            None => buf[pos..pos + n].fill(0),
        });
    }

    fn write(&self, content: &mut BlobContent, offset: u64, data: &[u8]) {
        for_each_page(offset, data.len(), |page_no, in_page, pos, n| {
            // Read-modify-write the page, then re-address it by content.
            let mut page = match content.chunks.get(&page_no) {
                Some(&id) => {
                    let mut p = vec![0u8; CHUNK_SIZE];
                    self.store.read(id, 0, &mut p);
                    p
                }
                None => vec![0u8; CHUNK_SIZE],
            };
            page[in_page..in_page + n].copy_from_slice(&data[pos..pos + n]);
            let id = if is_zero(&page) {
                None
            } else {
                Some(self.store.put(&page))
            };
            self.remap(content, page_no, id);
        });
    }

    fn truncate(&self, content: &mut BlobContent, new_len: u64) {
        let boundary_page = new_len / CHUNK_SIZE as u64;
        let in_page = (new_len % CHUNK_SIZE as u64) as usize;
        let doomed: Vec<u64> = content
            .chunks
            .range((boundary_page + u64::from(in_page > 0))..)
            .map(|(&p, _)| p)
            .collect();
        for p in doomed {
            self.remap(content, p, None);
        }
        if in_page > 0 {
            if let Some(&id) = content.chunks.get(&boundary_page) {
                let mut page = vec![0u8; CHUNK_SIZE];
                self.store.read(id, 0, &mut page);
                page[in_page..].fill(0);
                let new = if is_zero(&page) {
                    None
                } else {
                    Some(self.store.put(&page))
                };
                self.remap(content, boundary_page, new);
            }
        }
    }

    fn dealloc(&self, content: &mut BlobContent) {
        for (_, id) in std::mem::take(&mut content.chunks) {
            self.release(id);
        }
    }

    fn punch_hole(&self, content: &mut BlobContent, offset: u64, len: u64) {
        punch_hole_pages(offset, len, |page_no| {
            self.remap(content, page_no, None);
        });
        zero_partial_edges(offset, len, |page_no, range| {
            if let Some(&id) = content.chunks.get(&page_no) {
                let mut page = vec![0u8; CHUNK_SIZE];
                self.store.read(id, 0, &mut page);
                page[range].fill(0);
                let new = if is_zero(&page) {
                    None
                } else {
                    Some(self.store.put(&page))
                };
                self.remap(content, page_no, new);
            }
        });
    }

    fn allocated_bytes(&self, content: &BlobContent) -> u64 {
        // Logical allocation (what this file references); physical sharing
        // is visible in `BlobStore::stats` instead.
        content.chunks.len() as u64 * CHUNK_SIZE as u64
    }

    fn sync(&self) {}

    fn read_bytes(&self, content: &BlobContent, offset: u64, len: usize) -> Option<Bytes> {
        // One chunk per call (a short read at the chunk boundary): the
        // returned buffer is a slice of the stored chunk — or of the shared
        // zero chunk for a hole — never a copy.
        let page_no = offset / CHUNK_SIZE as u64;
        let in_page = (offset % CHUNK_SIZE as u64) as usize;
        let n = (CHUNK_SIZE - in_page).min(len);
        let chunk = match content.chunks.get(&page_no) {
            Some(&id) => self.store.chunk_bytes(id),
            None => zero_chunk().clone(),
        };
        // A short chunk (direct `put`) reads as zero at and past its end;
        // fall back to the copying path for that rare shape.
        if chunk.len() < in_page + n {
            return None;
        }
        Some(chunk.slice(in_page..in_page + n))
    }

    fn write_bytes(&self, content: &mut BlobContent, offset: u64, data: &[Bytes]) {
        let mut off = offset;
        for seg in data {
            for_each_page(off, seg.len(), |page_no, in_page, pos, n| {
                if in_page == 0 && n == CHUNK_SIZE {
                    // Chunk-aligned: retain the buffer's own chunk (refcount
                    // bump on dedup, zero copies either way). A one-chunk
                    // buffer — a written-back page — is kept as itself, so
                    // the page and its chunk are one allocation; a longer
                    // buffer is kept as slices of it.
                    let chunk = seg.slice(pos..pos + n);
                    let id = if is_zero(&chunk) {
                        None
                    } else {
                        Some(self.store.put_bytes(chunk))
                    };
                    self.remap(content, page_no, id);
                } else {
                    // Unaligned edge: read-modify-write, as `write` does.
                    self.write(content, off + pos as u64, &seg[pos..pos + n]);
                }
            });
            off += seg.len() as u64;
        }
    }
}

/// A POSIX filesystem whose file contents live in a shared [`BlobStore`].
pub type BlobFs = NodeFs<BlobBackend>;

/// `fs` as a [`BlobFs`], if that is what it is.
fn as_blobfs(fs: &dyn Filesystem) -> Option<&BlobFs> {
    fs.as_any()?.downcast_ref()
}

/// Regular file `ino`'s chunk map as an owning handle: one reference per
/// chunk, and the file's size as its length. `EXDEV` unless `fs` is a
/// [`BlobFs`], since only a blob-backed file has a chunk map to share.
pub fn chunk_map(fs: &dyn Filesystem, ino: Ino) -> SysResult<BlobHandle> {
    let fs = as_blobfs(fs).ok_or(Errno::EXDEV)?;
    fs.with_content(ino, |backend, content, size| {
        let chunks = content.chunks.iter().map(|(&page, &id)| (page, id));
        backend.store.share(size, chunks.collect())
    })
}

/// Makes regular file `ino` of `fs` a reference copy of `src`, in the
/// manner of Linux's `FICLONE` (`->remap_file_range`): the file's whole
/// content becomes `src`'s chunk map, each chunk gaining one reference,
/// and its size `src.len()`. No byte is read, hashed or compared.
/// Capacity (`ENOSPC`), size, timestamps and the setuid/setgid strip are
/// charged as the writes of the same bytes would charge them, and the
/// store counts each chunk as the `put` it replaces.
///
/// `EXDEV` unless `fs` is a [`BlobFs`] on `src`'s own store (chunk ids
/// mean nothing in another store); the caller then copies the bytes.
pub fn clone_file(fs: &dyn Filesystem, ino: Ino, src: &BlobHandle) -> SysResult<()> {
    let fs = as_blobfs(fs).ok_or(Errno::EXDEV)?;
    let backend = fs.store();
    if !Arc::ptr_eq(&backend.store, src.store()) {
        return Err(Errno::EXDEV);
    }
    fs.replace_content(ino, backend.adopt(src), src.len())
}

/// Default capacity, matching `cntr_fs::memfs`.
pub const DEFAULT_CAPACITY: u64 = 16 << 30;

/// Creates a [`BlobFs`] over `store` with the default capacity.
pub fn blobfs(dev_id: DevId, clock: SimClock, store: Arc<BlobStore>) -> Arc<BlobFs> {
    blobfs_with_capacity(dev_id, clock, store, DEFAULT_CAPACITY)
}

/// Creates a [`BlobFs`] with an explicit capacity in bytes.
pub fn blobfs_with_capacity(
    dev_id: DevId,
    clock: SimClock,
    store: Arc<BlobStore>,
    capacity: u64,
) -> Arc<BlobFs> {
    Arc::new(NodeFs::new(
        dev_id,
        "blobfs",
        capacity,
        clock,
        BlobBackend::new(store),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntr_fs::{Filesystem, FilesystemExt, FsContext};
    use cntr_types::{FileType, Ino, Mode, OpenFlags, SetAttr};

    fn fs_pair() -> (Arc<BlobStore>, Arc<BlobFs>) {
        let store = BlobStore::new();
        let fs = blobfs(DevId(77), SimClock::new(), Arc::clone(&store));
        (store, fs)
    }

    fn create(fs: &BlobFs, name: &str) -> Ino {
        fs.mknod(
            Ino::ROOT,
            name,
            FileType::Regular,
            Mode::RW_R__R__,
            0,
            &FsContext::root(),
        )
        .unwrap()
        .ino
    }

    #[test]
    fn roundtrip_unaligned() {
        let (_s, fs) = fs_pair();
        let ino = create(&fs, "f");
        let fh = fs.open(ino, OpenFlags::RDWR).unwrap();
        let data: Vec<u8> = (0..9000).map(|i| (i * 13 % 251) as u8).collect();
        fs.write(ino, fh, 4093, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        assert_eq!(fs.read(ino, fh, 4093, &mut out).unwrap(), data.len());
        assert_eq!(out, data);
    }

    #[test]
    fn identical_files_share_physical_chunks() {
        let (store, fs) = fs_pair();
        let payload = vec![0x5Au8; 8 * CHUNK_SIZE];
        for name in ["a", "b", "c"] {
            let ino = create(&fs, name);
            let fh = fs.open(ino, OpenFlags::WRONLY).unwrap();
            fs.write(ino, fh, 0, &payload).unwrap();
            fs.release(ino, fh).unwrap();
        }
        let st = store.stats();
        assert_eq!(
            st.physical_bytes, CHUNK_SIZE as u64,
            "identical pages of identical files collapse to one chunk"
        );
        // Each file still accounts its own logical allocation.
        assert_eq!(fs.used_bytes(), 3 * 8 * CHUNK_SIZE as u64);
    }

    #[test]
    fn sparse_files_cost_nothing() {
        let (store, fs) = fs_pair();
        let ino = create(&fs, "sparse");
        fs.setattr(ino, &SetAttr::truncate(500 << 20), &FsContext::root())
            .unwrap();
        assert_eq!(fs.getattr(ino).unwrap().size, 500 << 20);
        assert_eq!(store.stats().physical_bytes, 0);
        // Writing zeroes also costs nothing (content-addressed elision).
        let fh = fs.open(ino, OpenFlags::WRONLY).unwrap();
        fs.write(ino, fh, 1 << 20, &vec![0u8; 64 * 1024]).unwrap();
        assert_eq!(store.stats().physical_bytes, 0);
    }

    #[test]
    fn dropping_the_filesystem_releases_all_chunk_refs() {
        let store = BlobStore::new();
        {
            let fs = blobfs(DevId(80), SimClock::new(), Arc::clone(&store));
            let ino = create(&fs, "f");
            let fh = fs.open(ino, OpenFlags::WRONLY).unwrap();
            let distinct: Vec<u8> = (0..4 * CHUNK_SIZE).map(|i| (i / 7) as u8).collect();
            fs.write(ino, fh, 0, &distinct).unwrap();
            fs.release(ino, fh).unwrap();
            assert!(store.stats().physical_bytes > 0);
            // `fs` is dropped here without any unlinks — a stopped
            // container's upper layer.
        }
        assert_eq!(
            store.stats().physical_bytes,
            0,
            "a dropped filesystem must return every chunk reference"
        );
    }

    #[test]
    fn unaligned_ingest_dedups_against_page_writes() {
        let (store, fs) = fs_pair();
        // 6000 bytes: one full chunk + a 1904-byte tail.
        let payload: Vec<u8> = (0..6000).map(|i| (i % 251 + 1) as u8).collect();
        let handle = store.ingest(&payload);
        let after_ingest = store.stats().physical_bytes;
        // Writing the same bytes through the filesystem produces the same
        // padded pages: zero new physical bytes.
        let ino = create(&fs, "copy");
        let fh = fs.open(ino, OpenFlags::WRONLY).unwrap();
        fs.write(ino, fh, 0, &payload).unwrap();
        fs.release(ino, fh).unwrap();
        assert_eq!(
            store.stats().physical_bytes,
            after_ingest,
            "unaligned tails must hash identically to padded pages"
        );
        assert_eq!(handle.read_all(), payload);
    }

    #[test]
    fn unlink_releases_chunk_refs() {
        let (store, fs) = fs_pair();
        let ino = create(&fs, "f");
        let fh = fs.open(ino, OpenFlags::WRONLY).unwrap();
        fs.write(ino, fh, 0, &[1u8; 3 * CHUNK_SIZE]).unwrap();
        fs.release(ino, fh).unwrap();
        assert!(store.stats().physical_bytes > 0);
        fs.unlink(Ino::ROOT, "f").unwrap();
        assert_eq!(store.stats().physical_bytes, 0);
        assert_eq!(fs.used_bytes(), 0);
    }

    /// Three data chunks around a hole, then a 1000-byte tail chunk.
    fn holey_payload() -> Vec<u8> {
        let mut payload: Vec<u8> = (0..4 * CHUNK_SIZE + 1000)
            .map(|i| (i % 253 + 1) as u8)
            .collect();
        payload[CHUNK_SIZE..2 * CHUNK_SIZE].fill(0);
        payload
    }

    #[test]
    fn clone_file_with_a_hole_and_a_partial_tail_reads_back_the_handle() {
        let (store, fs) = fs_pair();
        let handle = store.ingest(&holey_payload());
        assert_eq!(handle.chunks().len(), 4, "the hole is not a chunk");
        let before = store.stats();
        let ino = create(&fs, "clone");
        clone_file(fs.as_ref(), ino, &handle).unwrap();

        let st = fs.getattr(ino).unwrap();
        assert_eq!(st.size, handle.len());
        let fh = fs.open(ino, OpenFlags::RDONLY).unwrap();
        let mut out = vec![7u8; st.size as usize];
        assert_eq!(fs.read(ino, fh, 0, &mut out).unwrap(), out.len());
        fs.release(ino, fh).unwrap();
        assert_eq!(out, handle.read_all());
        for &(_, id) in handle.chunks() {
            assert_eq!(store.refs(id), 2, "the handle's reference plus the file's");
        }
        // Counted as the four writes it replaces; no byte stored twice.
        let after = store.stats();
        assert_eq!(after.physical_bytes, before.physical_bytes);
        assert_eq!(after.dedup_hits, before.dedup_hits + 4);
        assert_eq!(
            after.ingested_bytes,
            before.ingested_bytes + 4 * CHUNK_SIZE as u64
        );
        assert_eq!(fs.used_bytes(), 4 * CHUNK_SIZE as u64);
        assert_eq!(chunk_map(fs.as_ref(), ino).unwrap(), handle);
    }

    #[test]
    fn clone_file_refuses_a_full_filesystem_and_a_foreign_store() {
        let store = BlobStore::new();
        let handle = store.ingest(&holey_payload());
        let small = blobfs_with_capacity(
            DevId(81),
            SimClock::new(),
            Arc::clone(&store),
            3 * CHUNK_SIZE as u64,
        );
        let ino = create(&small, "f");
        let before = store.stats();
        assert_eq!(clone_file(small.as_ref(), ino, &handle), Err(Errno::ENOSPC));
        assert_eq!(small.getattr(ino).unwrap().size, 0);
        assert_eq!(small.used_bytes(), 0);
        assert_eq!(store.stats().physical_bytes, before.physical_bytes);
        for &(_, id) in handle.chunks() {
            assert_eq!(store.refs(id), 1, "a refused clone keeps no reference");
        }

        let (_other, foreign) = fs_pair();
        let ino = create(&foreign, "f");
        assert_eq!(
            clone_file(foreign.as_ref(), ino, &handle),
            Err(Errno::EXDEV)
        );
        let mem = cntr_fs::memfs::memfs(DevId(82), SimClock::new());
        assert_eq!(chunk_map(mem.as_ref(), Ino::ROOT), Err(Errno::EXDEV));
    }

    #[test]
    fn truncate_and_punch_hole_release_refs() {
        let (store, fs) = fs_pair();
        let ino = create(&fs, "f");
        let fh = fs.open(ino, OpenFlags::RDWR).unwrap();
        fs.write(ino, fh, 0, &[3u8; 8 * CHUNK_SIZE]).unwrap();
        fs.fallocate(
            ino,
            fh,
            0,
            4 * CHUNK_SIZE as u64,
            cntr_fs::FallocateMode::PunchHole,
        )
        .unwrap();
        assert_eq!(store.stats().physical_bytes, CHUNK_SIZE as u64);
        let mut buf = [9u8; 64];
        fs.read(ino, fh, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
        fs.setattr(ino, &SetAttr::truncate(0), &FsContext::root())
            .unwrap();
        assert_eq!(store.stats().physical_bytes, 0);
    }
}
