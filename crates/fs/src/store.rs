//! File-content storage backends.
//!
//! [`NodeFs`](crate::nodefs::NodeFs) implements all POSIX *semantics*; a
//! [`FileStore`] provides the *bytes*. [`MemStore`] keeps sparse pages in
//! memory (tmpfs); [`DiskStore`] maps file pages to blocks of a simulated
//! device (ext4-like), so reads and writes consume virtual disk time.

use bytes::Bytes;
use cntr_blockdev::{BlockDevice, BLOCK_SIZE};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Storage for the contents of regular files.
///
/// Files are sparse: unwritten pages read as zeroes. Logical file size is
/// tracked by the inode layer; a store only materializes written pages.
pub trait FileStore: Send + Sync + 'static {
    /// Per-file content state.
    type Content: Send + Sync + Default;

    /// Reads `buf.len()` bytes at `offset` into `buf` (zero-filling holes).
    fn read(&self, content: &Self::Content, offset: u64, buf: &mut [u8]);

    /// Writes `data` at `offset`.
    fn write(&self, content: &mut Self::Content, offset: u64, data: &[u8]);

    /// Releases pages at or beyond `new_len` (truncate down) and zeroes the
    /// tail of the boundary page.
    fn truncate(&self, content: &mut Self::Content, new_len: u64);

    /// Deallocates the whole file (inode dropped).
    fn dealloc(&self, content: &mut Self::Content);

    /// Punches a hole: the byte range reads as zeroes afterwards.
    fn punch_hole(&self, content: &mut Self::Content, offset: u64, len: u64);

    /// Number of bytes physically allocated.
    fn allocated_bytes(&self, content: &Self::Content) -> u64;

    /// Waits for all written data to be durable.
    fn sync(&self);

    /// Zero-copy read hook for the splice path: returns a prefix of the
    /// range `[offset, offset+len)` as a slice of storage the store already
    /// owns, or `None` when the store cannot avoid the copy (the caller
    /// then falls back to [`FileStore::read`]). May return fewer than `len`
    /// bytes (a chunk boundary); must never return an empty buffer.
    fn read_bytes(&self, _content: &Self::Content, _offset: u64, _len: usize) -> Option<Bytes> {
        None
    }

    /// Zero-copy write hook for the splice path: stores the buffers of
    /// `data` back to back at `offset`, *retaining* (referencing) as much
    /// of each as the store's geometry allows instead of copying it. The
    /// default copies each via [`FileStore::write`] — correct for
    /// page/block stores, whose destination is preallocated storage.
    fn write_bytes(&self, content: &mut Self::Content, offset: u64, data: &[Bytes]) {
        let mut off = offset;
        for seg in data {
            self.write(content, off, seg);
            off += seg.len() as u64;
        }
    }
}

/// One 4 KiB page.
type Page = Box<[u8; BLOCK_SIZE]>;

fn zero_page() -> Page {
    Box::new([0u8; BLOCK_SIZE])
}

/// In-memory sparse page store (tmpfs).
#[derive(Default)]
pub struct MemStore;

/// Sparse page map used by [`MemStore`].
#[derive(Default)]
pub struct MemContent {
    pages: BTreeMap<u64, Page>,
}

impl FileStore for MemStore {
    type Content = MemContent;

    fn read(&self, content: &MemContent, offset: u64, buf: &mut [u8]) {
        for_each_page(offset, buf.len(), |page_no, in_page, pos, n| match content
            .pages
            .get(&page_no)
        {
            Some(p) => buf[pos..pos + n].copy_from_slice(&p[in_page..in_page + n]),
            None => buf[pos..pos + n].fill(0),
        });
    }

    fn write(&self, content: &mut MemContent, offset: u64, data: &[u8]) {
        for_each_page(offset, data.len(), |page_no, in_page, pos, n| {
            let page = content.pages.entry(page_no).or_insert_with(zero_page);
            page[in_page..in_page + n].copy_from_slice(&data[pos..pos + n]);
        });
    }

    fn truncate(&self, content: &mut MemContent, new_len: u64) {
        let boundary_page = new_len / BLOCK_SIZE as u64;
        let in_page = (new_len % BLOCK_SIZE as u64) as usize;
        content
            .pages
            .retain(|&p, _| p < boundary_page || (p == boundary_page && in_page > 0));
        if in_page > 0 {
            if let Some(p) = content.pages.get_mut(&boundary_page) {
                p[in_page..].fill(0);
            }
        }
    }

    fn dealloc(&self, content: &mut MemContent) {
        content.pages.clear();
    }

    fn punch_hole(&self, content: &mut MemContent, offset: u64, len: u64) {
        punch_hole_pages(offset, len, |page_no| {
            content.pages.remove(&page_no);
        });
        // Partial pages at the edges are zeroed.
        zero_partial_edges(offset, len, |page_no, range| {
            if let Some(p) = content.pages.get_mut(&page_no) {
                p[range].fill(0);
            }
        });
    }

    fn allocated_bytes(&self, content: &MemContent) -> u64 {
        content.pages.len() as u64 * BLOCK_SIZE as u64
    }

    fn sync(&self) {}
}

/// Block-device-backed store (ext4-like): file pages map to device blocks.
pub struct DiskStore {
    device: Arc<BlockDevice>,
    alloc: Mutex<BlockAllocator>,
}

/// Simple bump-plus-freelist block allocator.
#[derive(Default)]
struct BlockAllocator {
    next: u64,
    free: Vec<u64>,
}

impl BlockAllocator {
    fn alloc(&mut self) -> u64 {
        self.free.pop().unwrap_or_else(|| {
            let b = self.next;
            self.next += 1;
            b
        })
    }

    fn release(&mut self, block: u64) {
        self.free.push(block);
    }
}

/// Extent map used by [`DiskStore`]: file page number → device block number.
#[derive(Default)]
pub struct DiskContent {
    extents: BTreeMap<u64, u64>,
}

impl DiskStore {
    /// Creates a store allocating from `device`.
    pub fn new(device: Arc<BlockDevice>) -> DiskStore {
        DiskStore {
            device,
            alloc: Mutex::new_class("fs.block_alloc", BlockAllocator::default()),
        }
    }

    /// The underlying device (for stats).
    pub fn device(&self) -> &Arc<BlockDevice> {
        &self.device
    }
}

impl FileStore for DiskStore {
    type Content = DiskContent;

    fn read(&self, content: &DiskContent, offset: u64, buf: &mut [u8]) {
        for_each_page(offset, buf.len(), |page_no, in_page, pos, n| match content
            .extents
            .get(&page_no)
        {
            Some(&block) => {
                let dev_off = block * BLOCK_SIZE as u64 + in_page as u64;
                self.device.read(dev_off, &mut buf[pos..pos + n]);
            }
            None => buf[pos..pos + n].fill(0),
        });
    }

    fn write(&self, content: &mut DiskContent, offset: u64, data: &[u8]) {
        for_each_page(offset, data.len(), |page_no, in_page, pos, n| {
            let block = *content
                .extents
                .entry(page_no)
                .or_insert_with(|| self.alloc.lock().alloc());
            let dev_off = block * BLOCK_SIZE as u64 + in_page as u64;
            self.device.write(dev_off, &data[pos..pos + n]);
        });
    }

    fn truncate(&self, content: &mut DiskContent, new_len: u64) {
        let boundary_page = new_len / BLOCK_SIZE as u64;
        let in_page = (new_len % BLOCK_SIZE as u64) as usize;
        let mut alloc = self.alloc.lock();
        let doomed: Vec<u64> = content
            .extents
            .range((boundary_page + u64::from(in_page > 0))..)
            .map(|(&p, _)| p)
            .collect();
        for p in doomed {
            if let Some(block) = content.extents.remove(&p) {
                self.device
                    .discard(block * BLOCK_SIZE as u64, BLOCK_SIZE as u64);
                alloc.release(block);
            }
        }
        drop(alloc);
        if in_page > 0 {
            if let Some(&block) = content.extents.get(&boundary_page) {
                let zeros = vec![0u8; BLOCK_SIZE - in_page];
                self.device
                    .write(block * BLOCK_SIZE as u64 + in_page as u64, &zeros);
            }
        }
    }

    fn dealloc(&self, content: &mut DiskContent) {
        let mut alloc = self.alloc.lock();
        for (_, block) in std::mem::take(&mut content.extents) {
            self.device
                .discard(block * BLOCK_SIZE as u64, BLOCK_SIZE as u64);
            alloc.release(block);
        }
    }

    fn punch_hole(&self, content: &mut DiskContent, offset: u64, len: u64) {
        let mut alloc = self.alloc.lock();
        punch_hole_pages(offset, len, |page_no| {
            if let Some(block) = content.extents.remove(&page_no) {
                self.device
                    .discard(block * BLOCK_SIZE as u64, BLOCK_SIZE as u64);
                alloc.release(block);
            }
        });
        drop(alloc);
        zero_partial_edges(offset, len, |page_no, range| {
            if let Some(&block) = content.extents.get(&page_no) {
                let zeros = vec![0u8; range.len()];
                self.device
                    .write(block * BLOCK_SIZE as u64 + range.start as u64, &zeros);
            }
        });
    }

    fn allocated_bytes(&self, content: &DiskContent) -> u64 {
        content.extents.len() as u64 * BLOCK_SIZE as u64
    }

    fn sync(&self) {
        // An ext4-style fsync commits the journal: one extra (random)
        // device write before the barrier. This is why even tiny fsyncs on
        // the native filesystem cost a disk round trip (SQLite, §5.2.2).
        let journal_block = [0u8; 512];
        self.device.write(u64::MAX / 2, &journal_block);
        self.device.flush();
    }
}

/// Iterates page-aligned chunks of a byte range: calls
/// `f(page_no, offset_in_page, position_in_buffer, chunk_len)`.
///
/// Public so other content backends (the blob store in `cntr-overlay`) can
/// reuse the exact chunking geometry of the in-tree stores.
pub fn for_each_page(offset: u64, len: usize, mut f: impl FnMut(u64, usize, usize, usize)) {
    let mut pos = 0usize;
    let mut off = offset;
    while pos < len {
        let page_no = off / BLOCK_SIZE as u64;
        let in_page = (off % BLOCK_SIZE as u64) as usize;
        let n = (BLOCK_SIZE - in_page).min(len - pos);
        f(page_no, in_page, pos, n);
        pos += n;
        off += n as u64;
    }
}

/// Calls `f` for every page fully covered by the hole.
pub fn punch_hole_pages(offset: u64, len: u64, mut f: impl FnMut(u64)) {
    let first = offset.div_ceil(BLOCK_SIZE as u64);
    let last = (offset + len) / BLOCK_SIZE as u64;
    for p in first..last {
        f(p);
    }
}

/// Calls `f(page_no, in-page range)` for the partial pages at the edges of a
/// hole.
pub fn zero_partial_edges(offset: u64, len: u64, mut f: impl FnMut(u64, std::ops::Range<usize>)) {
    let end = offset + len;
    let first_page = offset / BLOCK_SIZE as u64;
    let last_page = end / BLOCK_SIZE as u64;
    let first_in = (offset % BLOCK_SIZE as u64) as usize;
    let last_in = (end % BLOCK_SIZE as u64) as usize;
    if first_page == last_page {
        if first_in != last_in {
            f(first_page, first_in..last_in);
        }
        return;
    }
    if first_in != 0 {
        f(first_page, first_in..BLOCK_SIZE);
    }
    if last_in != 0 {
        f(last_page, 0..last_in);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntr_types::SimClock;

    fn mem_rw(offset: u64, data: &[u8]) -> Vec<u8> {
        let store = MemStore;
        let mut c = MemContent::default();
        store.write(&mut c, offset, data);
        let mut out = vec![0u8; data.len()];
        store.read(&c, offset, &mut out);
        out
    }

    #[test]
    fn mem_roundtrip_unaligned() {
        let data: Vec<u8> = (0..9000).map(|i| (i * 7 % 256) as u8).collect();
        assert_eq!(mem_rw(4093, &data), data);
    }

    #[test]
    fn mem_holes_read_zero() {
        let store = MemStore;
        let mut c = MemContent::default();
        store.write(&mut c, 3 * BLOCK_SIZE as u64, b"xyz");
        let mut buf = [1u8; 16];
        store.read(&c, 0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn mem_truncate_zeroes_tail() {
        let store = MemStore;
        let mut c = MemContent::default();
        store.write(&mut c, 0, &[0xAA; 2 * BLOCK_SIZE]);
        store.truncate(&mut c, 100);
        // Reading past the truncation point (within the kept page) is zero.
        let mut buf = [1u8; 50];
        store.read(&c, 100, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        // The head survives.
        let mut head = [0u8; 100];
        store.read(&c, 0, &mut head);
        assert!(head.iter().all(|&b| b == 0xAA));
        assert_eq!(store.allocated_bytes(&c), BLOCK_SIZE as u64);
    }

    #[test]
    fn mem_punch_hole() {
        let store = MemStore;
        let mut c = MemContent::default();
        store.write(&mut c, 0, &[0xBB; 4 * BLOCK_SIZE]);
        store.punch_hole(&mut c, 100, 2 * BLOCK_SIZE as u64);
        let mut buf = [1u8; 2 * BLOCK_SIZE];
        store.read(&c, 100, &mut buf);
        assert!(buf.iter().all(|&b| b == 0), "hole must read zero");
        let mut pre = [0u8; 100];
        store.read(&c, 0, &mut pre);
        assert!(pre.iter().all(|&b| b == 0xBB));
    }

    #[test]
    fn disk_roundtrip_and_reclaim() {
        let clock = SimClock::new();
        let dev = BlockDevice::new(clock);
        let store = DiskStore::new(dev.clone());
        let mut c = DiskContent::default();
        let data: Vec<u8> = (0..20_000).map(|i| (i % 253) as u8).collect();
        store.write(&mut c, 1234, &data);
        let mut out = vec![0u8; data.len()];
        store.read(&c, 1234, &mut out);
        assert_eq!(out, data);
        assert!(dev.allocated_blocks() > 0);
        store.dealloc(&mut c);
        assert_eq!(dev.allocated_blocks(), 0);
        assert_eq!(store.allocated_bytes(&c), 0);
    }

    #[test]
    fn disk_blocks_are_reused_after_free() {
        let clock = SimClock::new();
        let dev = BlockDevice::new(clock);
        let store = DiskStore::new(dev);
        let mut a = DiskContent::default();
        store.write(&mut a, 0, &[1u8; 4 * BLOCK_SIZE]);
        store.dealloc(&mut a);
        let mut b = DiskContent::default();
        store.write(&mut b, 0, &[2u8; 4 * BLOCK_SIZE]);
        // The allocator reused the freed blocks instead of growing.
        assert_eq!(store.alloc.lock().next, 4);
    }

    #[test]
    fn disk_writes_consume_virtual_time() {
        let clock = SimClock::new();
        let dev = BlockDevice::new(clock.clone());
        let store = DiskStore::new(dev);
        let mut c = DiskContent::default();
        store.write(&mut c, 0, &[0u8; BLOCK_SIZE]);
        assert!(clock.now().as_nanos() > 0);
    }
}
