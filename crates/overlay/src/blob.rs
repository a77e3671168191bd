//! The content-addressed blob store.
//!
//! File data is split into fixed-size chunks ([`CHUNK_SIZE`], the page size
//! of the in-tree stores). Each distinct chunk is stored exactly once and
//! refcounted; ingesting the same bytes again — whether from another layer,
//! another image, or a copy-up — only bumps a refcount. All-zero chunks are
//! never stored: sparse files are holes in the chunk map, exactly as the
//! registry-side flist stores (rfs) and dedup measurements across engines
//! motivate.

use bytes::Bytes;
use cntr_blockdev::BLOCK_SIZE;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Chunk granularity in bytes (one page, matching `cntr_fs::store`).
pub const CHUNK_SIZE: usize = BLOCK_SIZE;

/// Identity of one stored chunk: content hash plus a per-bucket slot index
/// (the slot disambiguates the astronomically-unlikely hash collision; the
/// store compares bytes before reusing a slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlobId {
    hash: u64,
    slot: u32,
}

/// 64-bit FNV-1a over a chunk's bytes.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

struct ChunkSlot {
    /// `None` after the refcount dropped to zero (slot reusable). Stored as
    /// [`Bytes`] so the splice path can *retain* incoming buffers on write
    /// and hand out reference-counted slices on read — no copies.
    data: Option<Bytes>,
    refs: u64,
}

#[derive(Default)]
struct BlobState {
    buckets: HashMap<u64, Vec<ChunkSlot>>,
    /// Unique bytes physically stored right now.
    physical_bytes: u64,
}

obs::counter_scope! {
    /// Ingest events of one store, writing through to `overlay.blob.*`.
    struct BlobCounters(Subsystem::Overlay) {
        /// Bytes handed to `put`, duplicates included.
        ingested_bytes: "overlay.blob.ingested-bytes",
        /// `put` calls satisfied by an existing chunk.
        dedup_hits: "overlay.blob.dedup-hits",
    }
}

/// Content-addressed, chunked, refcounted storage for file data.
///
/// Shared (via `Arc`) by every blob-backed filesystem of a machine: all
/// image layers, all container upper layers, and every copy-up dedup
/// against each other here.
pub struct BlobStore {
    state: Mutex<BlobState>,
    counters: BlobCounters,
}

impl Default for BlobStore {
    fn default() -> BlobStore {
        BlobStore {
            state: Mutex::new_class("overlay.blob.state", BlobState::default()),
            counters: BlobCounters::default(),
        }
    }
}

/// Aggregate statistics (the dedup numbers the benches report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobStoreStats {
    /// Unique bytes physically stored.
    pub physical_bytes: u64,
    /// Total bytes ever ingested, duplicates included.
    pub ingested_bytes: u64,
    /// Number of distinct live chunks.
    pub unique_chunks: u64,
    /// `put` calls that found their chunk already present.
    pub dedup_hits: u64,
}

impl BlobStoreStats {
    /// Ingested-to-physical ratio (≥ 1.0; higher = more sharing).
    pub fn dedup_ratio(&self) -> f64 {
        if self.physical_bytes == 0 {
            return 1.0;
        }
        self.ingested_bytes as f64 / self.physical_bytes as f64
    }
}

impl BlobStore {
    /// An empty store.
    pub fn new() -> Arc<BlobStore> {
        Arc::new(BlobStore::default())
    }

    /// Stores `data` (one chunk, ≤ [`CHUNK_SIZE`] bytes) and returns its id
    /// with one reference held by the caller. Identical content returns the
    /// existing id with a bumped refcount.
    ///
    /// The caller must not pass an all-zero chunk — holes are represented
    /// by *absence* of a chunk, never by a stored zero chunk.
    pub fn put(&self, data: &[u8]) -> BlobId {
        self.insert(data, None)
    }

    /// Stores an owned buffer (one chunk, ≤ [`CHUNK_SIZE`] bytes) **without
    /// copying**: a chunk not already present retains `data` itself — the
    /// storage end of the splice write path. Dedup semantics are identical
    /// to [`BlobStore::put`]; a dedup hit drops `data` without retaining
    /// anything.
    ///
    /// Trade-off, as with real spliced pages: a retained slice pins its
    /// whole backing allocation. A chunk sliced from a large coalesced
    /// write-back run keeps that run's buffer alive until the chunk is
    /// freed or rewritten — memory amplification when most of the run
    /// dedups away. That is the price of zero-copy ingest; callers that
    /// would rather pay the memcpy than the pin should use
    /// [`BlobStore::put`].
    pub fn put_bytes(&self, data: Bytes) -> BlobId {
        // The O(1) clone lets `insert` borrow `data` for the dedup probe
        // and retain the same underlying allocation on a miss.
        self.insert(&data.clone(), Some(data))
    }

    fn insert(&self, data: &[u8], retain: Option<Bytes>) -> BlobId {
        debug_assert!(data.len() <= CHUNK_SIZE);
        debug_assert!(!is_zero(data), "zero chunks must be elided by callers");
        let hash = fnv1a(data);
        let mut st = self.state.lock();
        self.counters.ingested_bytes.add(data.len() as u64);
        let bucket = st.buckets.entry(hash).or_default();
        // Existing identical chunk?
        for (slot, entry) in bucket.iter_mut().enumerate() {
            if entry.data.as_deref() == Some(data) {
                entry.refs += 1;
                self.counters.dedup_hits.inc();
                return BlobId {
                    hash,
                    slot: slot as u32,
                };
            }
        }
        // First sighting: retain the caller's buffer if it handed us one
        // (zero copy), otherwise copy the borrowed slice.
        let stored = retain.unwrap_or_else(|| Bytes::copy_from_slice(data));
        // Reuse a freed slot or append.
        let slot = match bucket.iter().position(|s| s.data.is_none()) {
            Some(i) => {
                bucket[i] = ChunkSlot {
                    data: Some(stored),
                    refs: 1,
                };
                i
            }
            None => {
                bucket.push(ChunkSlot {
                    data: Some(stored),
                    refs: 1,
                });
                bucket.len() - 1
            }
        };
        st.physical_bytes += data.len() as u64;
        BlobId {
            hash,
            slot: slot as u32,
        }
    }

    /// Returns the chunk's bytes as a shared reference-counted buffer —
    /// O(1), no copy. Panics on a dangling id, like [`BlobStore::read`].
    pub fn chunk_bytes(&self, id: BlobId) -> Bytes {
        let st = self.state.lock();
        st.buckets[&id.hash][id.slot as usize]
            .data
            .clone()
            .expect("read of freed chunk")
    }

    /// Looks a chunk up by content *without* inserting or bumping refcounts
    /// (diagnostics; the zero-copy proof tests use it to locate stored
    /// chunks for pointer-identity assertions).
    pub fn lookup_chunk(&self, data: &[u8]) -> Option<BlobId> {
        let hash = fnv1a(data);
        let st = self.state.lock();
        let bucket = st.buckets.get(&hash)?;
        bucket
            .iter()
            .position(|s| s.data.as_deref() == Some(data))
            .map(|slot| BlobId {
                hash,
                slot: slot as u32,
            })
    }

    /// Copies the chunk's bytes at `range` into `buf`. Panics on a dangling
    /// id (refcounting bugs must not read as data corruption).
    pub fn read(&self, id: BlobId, offset: usize, buf: &mut [u8]) {
        let st = self.state.lock();
        let data = st.buckets[&id.hash][id.slot as usize]
            .data
            .as_deref()
            .expect("read of freed chunk");
        // A short chunk (direct `put`) reads zero at and past its end.
        if offset >= data.len() {
            buf.fill(0);
            return;
        }
        let end = (offset + buf.len()).min(data.len());
        let n = end - offset;
        buf[..n].copy_from_slice(&data[offset..end]);
        buf[n..].fill(0);
    }

    /// Returns the chunk's bytes.
    pub fn chunk(&self, id: BlobId) -> Vec<u8> {
        let st = self.state.lock();
        st.buckets[&id.hash][id.slot as usize]
            .data
            .as_deref()
            .expect("read of freed chunk")
            .to_vec()
    }

    /// Adds one reference to a chunk.
    pub fn inc_ref(&self, id: BlobId) {
        let mut st = self.state.lock();
        let entry = &mut st.buckets.get_mut(&id.hash).expect("live chunk")[id.slot as usize];
        debug_assert!(entry.data.is_some());
        entry.refs += 1;
    }

    /// Drops one reference; frees the chunk's bytes at zero.
    pub fn dec_ref(&self, id: BlobId) {
        let mut st = self.state.lock();
        let entry = &mut st.buckets.get_mut(&id.hash).expect("live chunk")[id.slot as usize];
        entry.refs = entry.refs.saturating_sub(1);
        if entry.refs == 0 {
            let freed = entry.data.take().map_or(0, |d| d.len() as u64);
            st.physical_bytes = st.physical_bytes.saturating_sub(freed);
        }
    }

    /// Current reference count of a chunk (0 if freed).
    pub fn refs(&self, id: BlobId) -> u64 {
        let st = self.state.lock();
        st.buckets
            .get(&id.hash)
            .and_then(|b| b.get(id.slot as usize))
            .map_or(0, |s| if s.data.is_some() { s.refs } else { 0 })
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> BlobStoreStats {
        let st = self.state.lock();
        BlobStoreStats {
            physical_bytes: st.physical_bytes,
            ingested_bytes: self.counters.ingested_bytes.value(),
            unique_chunks: st
                .buckets
                .values()
                .flat_map(|b| b.iter())
                .filter(|s| s.data.is_some())
                .count() as u64,
            dedup_hits: self.counters.dedup_hits.value(),
        }
    }

    /// Ingests a whole byte string, chunking it and eliding zero chunks,
    /// and returns a refcount-holding handle.
    ///
    /// A partial tail chunk is zero-padded to [`CHUNK_SIZE`] before being
    /// addressed, so it hashes identically to the page a filesystem write
    /// of the same bytes would produce — materializing unaligned blob
    /// content stays a refcount bump, never a second copy.
    pub fn ingest(self: &Arc<Self>, data: &[u8]) -> BlobHandle {
        let mut chunks = Vec::new();
        let mut off = 0usize;
        while off < data.len() {
            let end = (off + CHUNK_SIZE).min(data.len());
            let chunk = &data[off..end];
            if !is_zero(chunk) {
                let id = if chunk.len() < CHUNK_SIZE {
                    let mut padded = vec![0u8; CHUNK_SIZE];
                    padded[..chunk.len()].copy_from_slice(chunk);
                    self.put(&padded)
                } else {
                    self.put(chunk)
                };
                chunks.push(((off / CHUNK_SIZE) as u64, id));
            }
            off = end;
        }
        BlobHandle {
            store: Arc::clone(self),
            len: data.len() as u64,
            chunks,
        }
    }
}

/// True if every byte is zero.
pub fn is_zero(data: &[u8]) -> bool {
    data.iter().all(|&b| b == 0)
}

/// An owning reference to content in a [`BlobStore`]: a logical length plus
/// the non-hole chunks `(chunk_index, id)`. Holds one refcount per chunk;
/// cloning bumps them, dropping releases them.
///
/// This is what image entries carry instead of inlined `Vec<u8>` bytes.
pub struct BlobHandle {
    store: Arc<BlobStore>,
    len: u64,
    chunks: Vec<(u64, BlobId)>,
}

impl BlobHandle {
    /// Logical length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Physical chunks `(chunk_index, id)`, holes omitted.
    pub fn chunks(&self) -> &[(u64, BlobId)] {
        &self.chunks
    }

    /// The store the chunks live in.
    pub fn store(&self) -> &Arc<BlobStore> {
        &self.store
    }

    /// Reassembles the full content (holes as zeroes). Test/diagnostic
    /// helper; materialization streams chunk-by-chunk instead.
    pub fn read_all(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len as usize];
        for &(idx, id) in &self.chunks {
            let start = (idx as usize) * CHUNK_SIZE;
            let end = (start + CHUNK_SIZE).min(out.len());
            if start < out.len() {
                self.store.read(id, 0, &mut out[start..end]);
            }
        }
        out
    }
}

impl Clone for BlobHandle {
    fn clone(&self) -> BlobHandle {
        for &(_, id) in &self.chunks {
            self.store.inc_ref(id);
        }
        BlobHandle {
            store: Arc::clone(&self.store),
            len: self.len,
            chunks: self.chunks.clone(),
        }
    }
}

impl Drop for BlobHandle {
    fn drop(&mut self) {
        for &(_, id) in &self.chunks {
            self.store.dec_ref(id);
        }
    }
}

impl PartialEq for BlobHandle {
    fn eq(&self, other: &BlobHandle) -> bool {
        Arc::ptr_eq(&self.store, &other.store)
            && self.len == other.len
            && self.chunks == other.chunks
    }
}

impl Eq for BlobHandle {}

impl std::fmt::Debug for BlobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlobHandle")
            .field("len", &self.len)
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_dedups_identical_chunks() {
        let s = BlobStore::new();
        let a = s.put(&[7u8; 1000]);
        let b = s.put(&[7u8; 1000]);
        assert_eq!(a, b);
        assert_eq!(s.refs(a), 2);
        let st = s.stats();
        assert_eq!(st.physical_bytes, 1000);
        assert_eq!(st.ingested_bytes, 2000);
        assert_eq!(st.dedup_hits, 1);
        assert!((st.dedup_ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dec_ref_frees_and_slot_is_reused() {
        let s = BlobStore::new();
        let a = s.put(b"hello chunk");
        s.dec_ref(a);
        assert_eq!(s.refs(a), 0);
        assert_eq!(s.stats().physical_bytes, 0);
        // Same content again re-occupies storage.
        let b = s.put(b"hello chunk");
        assert_eq!(s.refs(b), 1);
        assert_eq!(s.stats().physical_bytes, 11);
    }

    #[test]
    fn ingest_elides_zero_chunks() {
        let s = BlobStore::new();
        let mut data = vec![0u8; 3 * CHUNK_SIZE];
        data[2 * CHUNK_SIZE + 5] = 0xAB;
        let h = s.ingest(&data);
        assert_eq!(h.len(), 3 * CHUNK_SIZE as u64);
        assert_eq!(h.chunks().len(), 1, "two zero chunks are holes");
        assert_eq!(h.read_all(), data);
    }

    #[test]
    fn handle_clone_and_drop_balance_refs() {
        let s = BlobStore::new();
        let h = s.ingest(&[9u8; CHUNK_SIZE]);
        let id = h.chunks()[0].1;
        let h2 = h.clone();
        assert_eq!(s.refs(id), 2);
        drop(h2);
        assert_eq!(s.refs(id), 1);
        drop(h);
        assert_eq!(s.refs(id), 0);
        assert_eq!(s.stats().physical_bytes, 0);
    }

    #[test]
    fn short_tail_chunk_reads_zero_padded() {
        let s = BlobStore::new();
        let id = s.put(b"abc");
        let mut buf = [0xFFu8; 8];
        s.read(id, 0, &mut buf);
        assert_eq!(&buf, b"abc\0\0\0\0\0");
    }
}
