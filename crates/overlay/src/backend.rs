//! A `FileStore` whose file contents are chunk references into a shared
//! [`BlobStore`].
//!
//! `NodeFs<BlobBackend>` ([`BlobFs`]) behaves exactly like `MemFs` at the
//! POSIX level — same semantics, same sparse-file behaviour — but every
//! written page is content-hashed into the machine-wide blob store, so
//! identical data across files, layers, and filesystems is stored once.
//! Writing a chunk that some image layer already holds is a refcount bump:
//! this is what makes copy-up cheap and N containers of one image
//! O(upper writes).

use crate::blob::{is_zero, BlobId, BlobStore, CHUNK_SIZE};
use bytes::Bytes;
use cntr_fs::nodefs::NodeFs;
use cntr_fs::store::{for_each_page, punch_hole_pages, zero_partial_edges, FileStore};
use cntr_fs::FsFeatures;
use cntr_types::{DevId, SimClock};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

/// The shared all-zero chunk holes read from (the moral equivalent of the
/// kernel's `ZERO_PAGE`): hole reads on the splice path hand out slices of
/// this one allocation instead of zero-filling fresh buffers.
fn zero_chunk() -> &'static Bytes {
    static ZERO: OnceLock<Bytes> = OnceLock::new();
    ZERO.get_or_init(|| Bytes::from(vec![0u8; CHUNK_SIZE]))
}

/// Content store delegating all bytes to a shared [`BlobStore`].
pub struct BlobBackend {
    store: Arc<BlobStore>,
    /// Ledger of the store references this filesystem currently holds.
    /// `BlobContent` values cannot release their own references (they have
    /// no store pointer), so the backend tracks them and `Drop` returns
    /// every outstanding reference — a dropped filesystem (a stopped
    /// container's upper layer, a discarded lower) never strands chunks.
    held: Mutex<HashMap<BlobId, u64>>,
}

impl BlobBackend {
    /// A backend writing into `store`.
    pub fn new(store: Arc<BlobStore>) -> BlobBackend {
        BlobBackend {
            store,
            held: Mutex::new_class("overlay.backend.held", HashMap::new()),
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

    fn write_bytes(&self, content: &mut BlobContent, offset: u64, data: &Bytes) {
        for_each_page(offset, data.len(), |page_no, in_page, pos, n| {
            if in_page == 0 && n == CHUNK_SIZE {
                // Chunk-aligned: retain a slice of the incoming buffer
                // (refcount bump on dedup, zero copies either way).
                let slice = data.slice(pos..pos + n);
                let id = if is_zero(&slice) {
                    None
                } else {
                    Some(self.store.put_bytes(slice))
                };
                self.remap(content, page_no, id);
            } else {
                // Unaligned edge: read-modify-write, as `write` does.
                self.write(content, offset + pos as u64, &data[pos..pos + n]);
            }
        });
    }
}

/// A POSIX filesystem whose file contents live in a shared [`BlobStore`].
pub type BlobFs = NodeFs<BlobBackend>;

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
        FsFeatures::tmpfs(),
        capacity,
        clock,
        BlobBackend::new(store),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntr_fs::{Filesystem, FsContext};
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
