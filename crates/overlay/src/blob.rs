//! The content-addressed blob store.
//!
//! File data is split into fixed-size chunks ([`CHUNK_SIZE`], the page size
//! of the in-tree stores). Each distinct chunk is stored exactly once and
//! refcounted; ingesting the same bytes again — whether from another layer,
//! another image, or a copy-up — only bumps a refcount. All-zero chunks are
//! never stored: sparse files are holes in the chunk map, exactly as the
//! registry-side flist stores (rfs) and dedup measurements across engines
//! motivate.
//!
//! A chunk is addressed by its XXH64 digest (`chunk_digest`), which
//! only picks a bucket: bytes, not the digest, decide dedup. A probe
//! compares the chunk with every live slot of its bucket, and chunks whose
//! digests collide get slots of their own
//! (`overlay.blob.digest-collisions` counts the slots a probe passed over).

use bytes::Bytes;
use cntr_blockdev::BLOCK_SIZE;
use obs::{LazyGauge, Subsystem};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::RandomState;
use std::sync::Arc;

/// Chunk granularity in bytes (one page, matching `cntr_fs::store`).
pub const CHUNK_SIZE: usize = BLOCK_SIZE;

/// Identity of one stored chunk: content digest plus a per-bucket slot
/// index. The digest only picks the bucket; the slot disambiguates chunks
/// whose digests collide, since the store compares bytes before it reuses
/// a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlobId {
    hash: u64,
    slot: u32,
}

// XXH64's published primes.
const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

/// One little-endian word of `bytes` (at least eight long).
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes"))
}

/// XXH64's lane round: folds one word into an accumulator.
fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

/// XXH64's merge of one lane accumulator into the converged hash.
fn xxh_merge(h: u64, acc: u64) -> u64 {
    (h ^ xxh_round(0, acc))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

/// XXH64 (seed 0) of a chunk's bytes: four independent lanes over
/// 32-byte stripes of little-endian words, so the multiply chains overlap
/// instead of serializing on every byte, then a scalar tail and XXH64's
/// avalanche. The digest only picks a bucket — [`BlobStore`] compares
/// bytes before it counts a chunk as a duplicate.
fn chunk_digest(data: &[u8]) -> u64 {
    let mut stripes = data.chunks_exact(32);
    let mut h = if data.len() >= 32 {
        let mut lanes = [
            PRIME64_1.wrapping_add(PRIME64_2),
            PRIME64_2,
            0,
            PRIME64_1.wrapping_neg(),
        ];
        for stripe in &mut stripes {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = xxh_round(*lane, le_word(&stripe[8 * i..]));
            }
        }
        let [a, b, c, d] = lanes;
        let h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes.iter().fold(h, |h, &lane| xxh_merge(h, lane))
    } else {
        PRIME64_5
    };
    h = h.wrapping_add(data.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ xxh_round(0, le_word(word)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let half = u32::from_le_bytes(tail[..4].try_into().expect("four bytes"));
        h = (h ^ u64::from(half).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^ (h >> 32)
}

struct ChunkSlot {
    /// `None` after the refcount dropped to zero (slot reusable). Stored as
    /// [`Bytes`] so the splice path can *retain* incoming buffers on write
    /// and hand out reference-counted slices on read — no copies.
    data: Option<Bytes>,
    refs: u64,
}

/// Unique chunk bytes stored, summed over every live store.
static OBS_PHYSICAL_BYTES: LazyGauge =
    LazyGauge::new(Subsystem::Overlay, "overlay.blob.physical-bytes");
/// Chunk slots allocated in the digest index, live or free, summed over
/// every live store. Equals the live chunks unless digests collide.
static OBS_INDEX_SLOTS: LazyGauge = LazyGauge::new(Subsystem::Overlay, "overlay.blob.index-slots");

/// The index holds a bucket only while it has a live chunk, and a bucket's
/// slots end at its last live one: a freed chunk costs no index memory
/// unless a live chunk of its bucket sits past it.
#[derive(Default)]
struct BlobState {
    /// Content digest → the chunks stored under it. The digest is an
    /// unkeyed hash of bytes a tool writes, so whoever writes them can
    /// choose digests: the map stays on the keyed `RandomState`, never on
    /// the id tables' fixed hasher.
    buckets: HashMap<u64, Vec<ChunkSlot>, RandomState>,
    /// Unique bytes physically stored right now.
    physical_bytes: u64,
    /// Live chunks right now (slots whose `data` is `Some`).
    live_chunks: u64,
    /// Slots of all buckets, live or free.
    slots: u64,
}

impl BlobState {
    fn slot_mut(&mut self, id: BlobId) -> &mut ChunkSlot {
        &mut self.buckets.get_mut(&id.hash).expect("live chunk")[id.slot as usize]
    }

    /// Adds one reference to a live chunk and returns its length.
    fn inc_ref(&mut self, id: BlobId) -> u64 {
        let entry = self.slot_mut(id);
        let len = entry.data.as_ref().expect("live chunk").len() as u64;
        entry.refs += 1;
        len
    }

    /// Drops one reference; frees the chunk's bytes at zero, with the
    /// free slots that end its bucket and the bucket if none is left. A
    /// live slot never moves, so every live [`BlobId`] stays valid.
    fn dec_ref(&mut self, id: BlobId) {
        let bucket = self.buckets.get_mut(&id.hash).expect("live chunk");
        let entry = &mut bucket[id.slot as usize];
        entry.refs = entry.refs.saturating_sub(1);
        if entry.refs > 0 {
            return;
        }
        let Some(freed) = entry.data.take() else {
            return;
        };
        let len = bucket.len();
        while bucket.last().is_some_and(|s| s.data.is_none()) {
            bucket.pop();
        }
        let popped = (len - bucket.len()) as u64;
        if bucket.is_empty() {
            self.buckets.remove(&id.hash);
        }
        self.slots -= popped;
        self.physical_bytes -= freed.len() as u64;
        self.live_chunks -= 1;
        OBS_INDEX_SLOTS.add(-(popped as i64));
        OBS_PHYSICAL_BYTES.add(-(freed.len() as i64));
    }
}

obs::counter_scope! {
    /// Ingest events of one store, writing through to `overlay.blob.*`.
    struct BlobCounters(Subsystem::Overlay) {
        /// Bytes handed to `put`, duplicates included.
        ingested_bytes: "overlay.blob.ingested-bytes",
        /// `put` calls satisfied by an existing chunk.
        dedup_hits: "overlay.blob.dedup-hits",
        /// Live slots a bucket probe passed over because their bytes
        /// differ: chunks whose digests collide.
        digest_collisions: "overlay.blob.digest-collisions",
    }
}

/// Lock class of a store's chunk table.
const STATE_CLASS: &str = "overlay.blob.state";

/// Ranks the blob-backed filesystem's locks above every other declared
/// group (kernel 0–4, attach plane 5–6, CntrFS server 7). A `NodeFs`'s
/// state (8) is held across each call into its backend, which takes the
/// held-chunk ledger (9) and the store's chunk table (10); a dropped
/// filesystem holds the ledger while it returns its references to the
/// chunk table. Nothing is acquired under the chunk table. Idempotent;
/// runs on every store construction.
fn declare_blob_lock_discipline() {
    let mut groups: Vec<&[&str]> = vec![&[]; 8];
    groups.extend([
        &["fs.node_state"][..],
        &[crate::backend::HELD_CLASS],
        &[STATE_CLASS],
    ]);
    lockdep::ordering(&groups);
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
        let counters = BlobCounters::default();
        // Listed in `/proc/cntrstats` from the first store on, so a run
        // without collisions reads 0 rather than nothing.
        counters.digest_collisions.add(0);
        OBS_PHYSICAL_BYTES.add(0);
        OBS_INDEX_SLOTS.add(0);
        declare_blob_lock_discipline();
        BlobStore {
            state: Mutex::new_class(STATE_CLASS, BlobState::default()),
            counters,
        }
    }
}

impl Drop for BlobStore {
    fn drop(&mut self) {
        // Chunks still stored leave the machine-wide gauges with the store.
        let st = self.state.get_mut();
        OBS_PHYSICAL_BYTES.add(-(st.physical_bytes as i64));
        OBS_INDEX_SLOTS.add(-(st.slots as i64));
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
    /// A retained buffer keeps its whole allocation alive, as a spliced
    /// page does. Page-cache write-back hands each page over as a buffer
    /// of its own, so a written-back chunk is its page's allocation and
    /// pins nothing else. A chunk sliced from a longer buffer (a caller's
    /// spliced 1 MiB WRITE) pins that buffer until its last retained chunk
    /// is freed or rewritten. Callers that would rather pay the memcpy
    /// than the pin use [`BlobStore::put`].
    pub fn put_bytes(&self, data: Bytes) -> BlobId {
        // The O(1) clone lets `insert` borrow `data` for the dedup probe
        // and retain the same underlying allocation on a miss.
        self.insert(&data.clone(), Some(data))
    }

    fn insert(&self, data: &[u8], retain: Option<Bytes>) -> BlobId {
        self.insert_with_digest(chunk_digest(data), data, retain)
    }

    /// [`BlobStore::insert`] under a given digest: the bucket probe alone,
    /// so a test can force two different chunks into one bucket.
    fn insert_with_digest(&self, hash: u64, data: &[u8], retain: Option<Bytes>) -> BlobId {
        debug_assert!(data.len() <= CHUNK_SIZE);
        debug_assert!(!is_zero(data), "zero chunks must be elided by callers");
        let mut guard = self.state.lock();
        let st = &mut *guard;
        self.counters.ingested_bytes.add(data.len() as u64);
        let bucket = st.buckets.entry(hash).or_default();
        // Existing identical chunk? Bytes, not the digest, decide.
        if let Some(slot) = self.probe(bucket, data) {
            bucket[slot].refs += 1;
            self.counters.dedup_hits.inc();
            return BlobId {
                hash,
                slot: slot as u32,
            };
        }
        // First sighting: retain the caller's buffer if it handed us one
        // (zero copy), otherwise copy the borrowed slice.
        let entry = ChunkSlot {
            data: Some(retain.unwrap_or_else(|| Bytes::copy_from_slice(data))),
            refs: 1,
        };
        // Reuse a freed slot or append (a new bucket holds just the one
        // slot: most digests never collide).
        let slot = match bucket.iter().position(|s| s.data.is_none()) {
            Some(i) => {
                bucket[i] = entry;
                i
            }
            None => {
                bucket.reserve_exact(1);
                bucket.push(entry);
                st.slots += 1;
                OBS_INDEX_SLOTS.inc();
                bucket.len() - 1
            }
        };
        st.physical_bytes += data.len() as u64;
        st.live_chunks += 1;
        OBS_PHYSICAL_BYTES.add(data.len() as i64);
        BlobId {
            hash,
            slot: slot as u32,
        }
    }

    /// The slot of `bucket` holding exactly `data`, counting every live
    /// slot passed over on the way as a digest collision.
    fn probe(&self, bucket: &[ChunkSlot], data: &[u8]) -> Option<usize> {
        for (slot, entry) in bucket.iter().enumerate() {
            match entry.data.as_deref() {
                Some(stored) if stored == data => return Some(slot),
                Some(_) => self.counters.digest_collisions.inc(),
                None => {}
            }
        }
        None
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
        let hash = chunk_digest(data);
        let st = self.state.lock();
        let slot = self.probe(st.buckets.get(&hash)?, data)?;
        Some(BlobId {
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

    /// Drops one reference; frees the chunk's bytes at zero.
    pub fn dec_ref(&self, id: BlobId) {
        self.state.lock().dec_ref(id);
    }

    /// An owning handle of `len` bytes over `chunks`, whose ids the caller
    /// holds live: one more reference each, under one lock.
    pub fn share(self: &Arc<Self>, len: u64, chunks: Vec<(u64, BlobId)>) -> BlobHandle {
        self.inc_refs(&chunks);
        BlobHandle {
            store: Arc::clone(self),
            len,
            chunks,
        }
    }

    /// Adds one reference to each chunk of `src` for a file that clones it
    /// by reference, and counts each as the [`BlobStore::put`] of its bytes
    /// that a copy would have made: `ingested_bytes` grows by the chunk's
    /// length and `dedup_hits` by one, so the stats read the same whichever
    /// way the file was filled.
    pub fn adopt(&self, src: &BlobHandle) {
        debug_assert!(std::ptr::eq(self, Arc::as_ptr(&src.store)));
        let bytes = self.inc_refs(&src.chunks);
        self.counters.ingested_bytes.add(bytes);
        self.counters.dedup_hits.add(src.chunks.len() as u64);
    }

    /// Adds one reference to each of `chunks` under one lock and returns
    /// their stored length.
    fn inc_refs(&self, chunks: &[(u64, BlobId)]) -> u64 {
        let mut st = self.state.lock();
        chunks.iter().map(|&(_, id)| st.inc_ref(id)).sum()
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
            unique_chunks: st.live_chunks,
            dedup_hits: self.counters.dedup_hits.value(),
        }
    }

    /// Ingests a whole byte string, chunking it and eliding zero chunks,
    /// and returns a refcount-holding handle.
    ///
    /// A partial tail chunk is zero-padded to [`CHUNK_SIZE`] before being
    /// addressed, so it hashes identically to the page a filesystem write
    /// of the same bytes would produce — writing unaligned blob content
    /// out through a filesystem dedups against it, never a second copy.
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

/// True if every byte is zero: eight-byte words, then a byte tail.
pub fn is_zero(data: &[u8]) -> bool {
    let mut words = data.chunks_exact(8);
    words.by_ref().all(|w| le_word(w) == 0) && words.remainder().iter().all(|&b| b == 0)
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
    /// helper; materialization installs the chunk map instead.
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
        self.store.share(self.len, self.chunks.clone())
    }
}

impl Drop for BlobHandle {
    fn drop(&mut self) {
        let mut st = self.store.state.lock();
        for &(_, id) in &self.chunks {
            st.dec_ref(id);
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

    /// XXH64 reference vectors (seed 0): the empty input, tails shorter
    /// than a word, and a 39-byte input that takes the four-lane path.
    #[test]
    fn chunk_digest_matches_xxh64() {
        assert_eq!(chunk_digest(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(chunk_digest(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(chunk_digest(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            chunk_digest(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    /// A patterned 4 KiB chunk: every byte differs from its neighbours,
    /// and the first is not zero.
    fn patterned_chunk() -> Vec<u8> {
        (0..CHUNK_SIZE)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7) ^ (i >> 8) as u8)
            .collect()
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        let mut chunk = patterned_chunk();
        let base = chunk_digest(&chunk);
        let mut seen = std::collections::HashSet::from([base]);
        for bit in 0..CHUNK_SIZE * 8 {
            chunk[bit / 8] ^= 1 << (bit % 8);
            assert!(seen.insert(chunk_digest(&chunk)), "bit {bit}");
            chunk[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(seen.len(), CHUNK_SIZE * 8 + 1);
    }

    #[test]
    fn short_inputs_do_not_collide() {
        let pattern = patterned_chunk();
        let zeros = [0u8; 64];
        let mut seen = std::collections::HashMap::new();
        for len in 0..=64 {
            for input in [&pattern[..len], &zeros[..len]] {
                if let Some(prev) = seen.insert(chunk_digest(input), input) {
                    assert_eq!(prev, input, "digest collision");
                }
            }
        }
        // The two families share only the empty input.
        assert_eq!(seen.len(), 2 * 64 + 1);
    }

    #[test]
    fn is_zero_finds_every_nonzero_byte() {
        let mut page = vec![0u8; CHUNK_SIZE];
        assert!(is_zero(&page));
        for i in 0..CHUNK_SIZE {
            page[i] = 0x80;
            assert!(!is_zero(&page), "offset {i}");
            page[i] = 0;
        }
        for len in 0..=17 {
            let mut buf = vec![0u8; len];
            assert!(is_zero(&buf), "len {len}");
            for i in 0..len {
                buf[i] = 1;
                assert!(!is_zero(&buf), "len {len}, offset {i}");
                buf[i] = 0;
            }
        }
    }

    /// Two different chunks forced under one digest get slots of their
    /// own, each dedups against itself only, and a freed slot is reused.
    #[test]
    fn colliding_digests_keep_distinct_slots() {
        let s = BlobStore::new();
        let (a, b, c) = (&[1u8; 64][..], &[2u8; 64][..], &[3u8; 64][..]);
        let ia = s.insert_with_digest(7, a, None);
        let ib = s.insert_with_digest(7, b, None);
        assert_ne!(ia, ib);
        assert_eq!((ia.slot, ib.slot), (0, 1));
        // `b`'s probe passed over `a`.
        assert_eq!(s.counters.digest_collisions.value(), 1);
        assert_eq!(s.insert_with_digest(7, a, None), ia);
        assert_eq!(s.insert_with_digest(7, b, None), ib);
        assert_eq!((s.refs(ia), s.refs(ib)), (2, 2));
        assert_eq!(s.chunk(ia), a);
        assert_eq!(s.chunk(ib), b);
        let st = s.stats();
        assert_eq!(
            (st.unique_chunks, st.physical_bytes, st.dedup_hits),
            (2, 128, 2)
        );
        // Free `a`: `b` keeps its slot and its id, and `a`'s slot goes to
        // the next new chunk of the bucket.
        s.dec_ref(ia);
        s.dec_ref(ia);
        assert_eq!(s.refs(ia), 0);
        assert_eq!(s.stats().unique_chunks, 1);
        assert_eq!(s.chunk(ib), b);
        assert_eq!(s.state.lock().slots, 2, "a live slot never moves");
        let ic = s.insert_with_digest(7, c, None);
        assert_eq!(ic.slot, ia.slot);
        assert_eq!(s.chunk(ic), c);
        assert_eq!(s.refs(ib), 2);
        let st = s.stats();
        assert_eq!((st.unique_chunks, st.physical_bytes), (2, 128));
        // Freeing the last slot pops it; freeing the only slot left drops
        // the bucket.
        s.dec_ref(ib);
        s.dec_ref(ib);
        assert_eq!(s.chunk(ic), c);
        assert_eq!(s.state.lock().slots, 1);
        s.dec_ref(ic);
        let st = s.state.lock();
        assert_eq!((st.buckets.len(), st.slots, st.live_chunks), (0, 0, 0));
    }

    /// A blobfs page rewritten with 1,000 distinct chunks leaves one
    /// bucket of one slot: a freed chunk leaves the index with its bytes.
    #[test]
    fn distinct_overwrites_leave_one_bucket() {
        use cntr_fs::{Filesystem, FilesystemExt, FsContext};
        use cntr_types::{DevId, FileType, Ino, Mode, OpenFlags, SimClock};
        let s = BlobStore::new();
        let fs = crate::blobfs(DevId(1), SimClock::new(), Arc::clone(&s));
        let ino = fs
            .mknod(
                Ino::ROOT,
                "f",
                FileType::Regular,
                Mode::RW_R__R__,
                0,
                &FsContext::root(),
            )
            .unwrap()
            .ino;
        let fh = fs.open(ino, OpenFlags::RDWR).unwrap();
        let mut page = patterned_chunk();
        for i in 0..1000u32 {
            page[..4].copy_from_slice(&i.to_le_bytes());
            fs.write(ino, fh, 0, &page).unwrap();
        }
        let st = s.state.lock();
        assert_eq!((st.buckets.len(), st.slots, st.live_chunks), (1, 1, 1));
        assert_eq!(st.physical_bytes, CHUNK_SIZE as u64);
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
