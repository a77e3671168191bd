//! The unified page cache — memory-bounded, Linux-mm style.
//!
//! Reads and writes on cached mounts go through here. Two per-mount flags
//! of the [`CacheMode`] the kernel derives from a filesystem's
//! `FsFeatures` — `writeback` and `keep_cache` — correspond to the FUSE
//! optimizations the paper evaluates in §3.3/§5.2.3: a FUSE mount
//! without `FOPEN_KEEP_CACHE` has its pages invalidated on every `open`, and
//! without `FUSE_WRITEBACK_CACHE` every write crosses into the server
//! immediately (write-through). The paper's "double buffering in the page
//! cache [is one of] the main performance bottlenecks" observation emerges
//! here naturally: a CntrFS mount and the backing filesystem's own mount
//! each consume page-cache capacity for the same bytes.
//!
//! # Memory management
//!
//! The cache is bounded by `capacity_pages` and reclaims with the kernel's
//! two-list design:
//!
//! * **One page index per file.** Pages live in one slab. A file finds its
//!   own through its `FileState`, a sorted map from page number to slab
//!   slot, as a Linux inode does through `address_space.i_pages`; there is
//!   no cache-wide page table. A read miss sizes its fill run with one
//!   range query on that map, and invalidation, truncation, hole punching
//!   and unmount all drop a page range of one file through one routine.
//!   Each page keeps its `(dev, ino, page)` so that reclaim, which walks
//!   the LRU, can reach its file.
//! * **Two-list LRU.** Every resident page lives on exactly one of two
//!   intrusive lists (O(1) link/unlink through slab indices — no per-access
//!   allocation, no scan-and-sort). A fresh page enters the *inactive* list
//!   head; a hit sets its referenced bit; a second hit while referenced
//!   promotes it to the *active* list. Reclaim scans the inactive tail:
//!   referenced pages get a second chance (promoted), cold clean pages are
//!   evicted, cold dirty pages are written back first (*writeback-then-
//!   evict* — an all-dirty cache still makes progress instead of silently
//!   growing past capacity). When the active list outgrows the inactive
//!   list its tail is aged down (referenced bit cleared, then demoted), so
//!   a streaming read — one touch per page — can never flush the
//!   twice-touched hot working set.
//! * **Dirty-ratio throttling.** A writer crossing the hard dirty limit
//!   is backpressured *proportionally* in [`balance_dirty_pages`-style]:
//!   it synchronously writes back a bounded multiple of what it just
//!   dirtied, then continues. The debt is per-writer, so 64 containers
//!   crossing together each pay their own share instead of one victim
//!   stalling for everybody. In stop-world mode (the paper profile, the
//!   differential oracle) the writer instead drains to the background
//!   threshold itself.
//! * **Background writeback.** In paced mode (the default) a write that
//!   ends above the background threshold runs the flusher's work item
//!   itself, as Linux's `wb_workfn` would: one coalesced chunk of at most
//!   `FLUSHER_CHUNK_PAGES` from the dirtiest file, through the batched
//!   `write_bytes` path (a FUSE mount's WRITE requests included). The
//!   chunk runs at a fixed point on the writer's thread and charges the
//!   same virtual clock, so a seed's virtual time reproduces exactly. A
//!   failed chunk is counted, not returned: the pages stay dirty and the
//!   next `fsync` reports the error.
//!
//! [`balance_dirty_pages`-style]: https://www.kernel.org/doc/html/latest/admin-guide/sysctl/vm.html
//!
//! Lock discipline: the LRU state lock (`pagecache.lru`, rank 3) is ranked
//! above the kernel subsystem table (see [`crate::table::lock_class`]). No
//! filesystem call — fill, write-back, `FileRef` release — ever runs under
//! it: a FUSE-backed flush re-enters the kernel through the server, and
//! the kernel's re-entrancy rules require the transport to be entered
//! lock-free (`kernel.fd_offset` excepted). The page cache starts no
//! thread of its own.

use crate::mount::CacheMode;
use crate::table::lock_class;
use bytes::Bytes;
use cntr_fs::{Fh, Filesystem, FilesystemExt};
use cntr_types::cost::PAGE_SIZE;
use cntr_types::{DevId, Errno, IdMap, Ino, SimClock, SysResult, COST};
use obs::{LazyCounter, LazyGauge, LazyHistogram, Subsystem};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeBounds;
use std::sync::Arc;

obs::counter_scope! {
    /// Event counters of one page cache, writing through to `pagecache.*`.
    struct CacheCounters(Subsystem::PageCache);
    /// Observable page-cache counters.
    pub struct PageCacheStats {
        /// Pages served from cache.
        hits: "pagecache.hits",
        /// Pages that had to be read from the filesystem.
        misses: "pagecache.misses",
        /// Pages written back to the filesystem.
        flushed_pages: "pagecache.flushed-pages",
        /// Writeback batches issued (contiguous runs).
        flush_batches: "pagecache.flush-batches",
        /// Pages evicted for capacity.
        evictions: "pagecache.evictions",
        /// Whole-file invalidations (`open` without keep_cache, truncate).
        invalidations: "pagecache.invalidations",
        /// Pages examined by the reclaim scan (`pgscan` in `/proc/vmstat`).
        reclaim_scans: "pagecache.reclaim-scans",
        /// Writers stalled at the hard dirty limit.
        throttle_stalls: "pagecache.throttle-stalls",
        /// Background write-back chunks run by writers above the
        /// background threshold.
        writeback_wakeups: "pagecache.writeback-wakeups",
        /// Background write-back chunks that failed; their pages stay
        /// dirty and the next `fsync` of the file reports the error.
        writeback_errors: "pagecache.writeback-errors",
    }
}

/// Page lookups, summed over all caches. Invariant kept by
/// [`PageCache::read`]: a hit bumps `lookups` and `hits` by one, a filled
/// run bumps `lookups` and `misses` by its page count, so at quiescence
/// `hits + misses == lookups`.
static OBS_LOOKUPS: LazyCounter = LazyCounter::new(Subsystem::PageCache, "pagecache.lookups");
/// Real (wall-clock) nanoseconds a throttled writer spent in its
/// foreground write-back stall.
static OBS_THROTTLE_STALL_NS: LazyHistogram =
    LazyHistogram::new(Subsystem::PageCache, "pagecache.throttle-stall-ns");
/// Dirty pages currently pending write-back, summed over all caches. Each
/// site that changes a cache's `dirty_total` applies the same delta here
/// while still holding that cache's state lock. The same delta discipline
/// holds for the residency gauges below: every LRU helper that links,
/// unlinks or moves a page adjusts them under the lock, and a dropped cache
/// state takes its levels back out, so the gauges stay exact sums across
/// live cache instances.
static OBS_DIRTY_PAGES: LazyGauge = LazyGauge::new(Subsystem::PageCache, "pagecache.dirty-pages");
/// Pages on active lists, summed over all caches.
static OBS_ACTIVE_PAGES: LazyGauge = LazyGauge::new(Subsystem::PageCache, "pagecache.active-pages");
/// Pages on inactive lists, summed over all caches.
static OBS_INACTIVE_PAGES: LazyGauge =
    LazyGauge::new(Subsystem::PageCache, "pagecache.inactive-pages");
/// Total resident pages, summed over all caches.
static OBS_RESIDENT_PAGES: LazyGauge =
    LazyGauge::new(Subsystem::PageCache, "pagecache.resident-pages");

/// A borrowed open file used for cache fills and writeback.
///
/// Holds the filesystem handle open for as long as any dirty page needs it
/// (mirroring the kernel pinning a `struct file` for writeback); releases
/// the handle on drop.
pub struct FileRef {
    /// The filesystem.
    pub fs: Arc<dyn Filesystem>,
    /// The file's inode.
    pub ino: Ino,
    /// The open handle within `fs`.
    pub fh: Fh,
}

impl Drop for FileRef {
    fn drop(&mut self) {
        // Best-effort: a vanished inode already released everything.
        let _ = self.fs.release(self.ino, self.fh);
    }
}

#[derive(Clone, Copy)]
struct PageKey {
    dev: DevId,
    ino: Ino,
    page: u64,
}

/// The bytes of one cached page.
enum PageData {
    /// A private, writable page the cache owns.
    Owned(Box<[u8; PAGE_SIZE]>),
    /// A page *spliced in* from below: a reference-counted slice of the
    /// buffer the filesystem (ultimately the FUSE server's storage) handed
    /// over — no copy was made to cache it. May be shorter than a page
    /// (EOF); the tail reads as zeroes. Promoted to [`PageData::Owned`]
    /// (copy-on-write) the first time it is written.
    Shared(Bytes),
    /// Benchmark-mode page: costs time but no memory, reads as zeroes.
    Synthetic,
}

impl PageData {
    /// A new page of a mount in `mode` holding `bytes` (zeroes if `None`).
    /// A synthetic mount keeps no bytes: its page costs time but no
    /// memory, whatever was read or written to make it.
    fn new(mode: CacheMode, bytes: Option<Box<[u8; PAGE_SIZE]>>) -> PageData {
        if mode.synthetic {
            PageData::Synthetic
        } else {
            PageData::Owned(bytes.unwrap_or_else(|| Box::new([0u8; PAGE_SIZE])))
        }
    }

    /// Copies `[in_page, in_page+n)` of the page into `buf` (zeroes beyond
    /// the stored length).
    fn read_into(&self, in_page: usize, buf: &mut [u8]) {
        match self {
            PageData::Owned(p) => buf.copy_from_slice(&p[in_page..in_page + buf.len()]),
            PageData::Shared(b) => {
                let have = b.len().saturating_sub(in_page).min(buf.len());
                if have > 0 {
                    buf[..have].copy_from_slice(&b[in_page..in_page + have]);
                }
                buf[have..].fill(0);
            }
            PageData::Synthetic => buf.fill(0),
        }
    }

    /// A mutable view for writing; `None` for synthetic pages. A shared
    /// page is promoted to an owned copy first (copy-on-write — the one
    /// place a spliced-in page is ever copied).
    fn make_mut(&mut self) -> Option<&mut [u8; PAGE_SIZE]> {
        if let PageData::Shared(b) = self {
            let mut page = Box::new([0u8; PAGE_SIZE]);
            let n = b.len().min(PAGE_SIZE);
            page[..n].copy_from_slice(&b[..n]);
            *self = PageData::Owned(page);
        }
        match self {
            PageData::Owned(p) => Some(p),
            PageData::Synthetic => None,
            PageData::Shared(_) => unreachable!("promoted above"),
        }
    }

    /// An O(1) immutable snapshot for write-back. An owned page is
    /// converted in place to [`PageData::Shared`] (moving the buffer
    /// behind a refcount — no copy) so the snapshot and the resident page
    /// alias the same bytes; a later write to the page COWs away via
    /// [`PageData::make_mut`]. The gather under the LRU lock is pointer
    /// work, and write-back hands the snapshots themselves to the
    /// filesystem, so no page is copied to write it back.
    fn share(&mut self) -> PageData {
        if let PageData::Owned(_) = self {
            let PageData::Owned(p) = std::mem::replace(self, PageData::Synthetic) else {
                unreachable!("matched above")
            };
            *self = PageData::Shared(Bytes::from(p as Box<[u8]>));
        }
        match self {
            PageData::Shared(b) => PageData::Shared(b.clone()),
            PageData::Synthetic => PageData::Synthetic,
            PageData::Owned(_) => unreachable!("converted above"),
        }
    }

    /// The first `len` bytes of a dirty page's [`PageData::share`]
    /// snapshot as a write-back buffer, not a copy: a shared page is its
    /// own buffer (whole, since every write made it owned first), a
    /// synthetic page the zero page.
    fn writeback_buffer(&self, len: usize) -> Bytes {
        match self {
            PageData::Shared(b) => b.slice(..len),
            PageData::Synthetic => zero_page().slice(..len),
            PageData::Owned(_) => unreachable!("a snapshot is never owned"),
        }
    }
}

/// One shared page of zeroes (the kernel's `ZERO_PAGE`).
fn zero_page() -> &'static Bytes {
    static ZERO: std::sync::OnceLock<Bytes> = std::sync::OnceLock::new();
    ZERO.get_or_init(|| Bytes::from(vec![0u8; PAGE_SIZE]))
}

/// Slab sentinel: "no slot".
const NIL: u32 = u32::MAX;

/// Which LRU list a resident page is linked on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LruKind {
    /// The hot list: pages touched at least twice.
    Active,
    /// The cold list: fresh fills and demoted pages; reclaim scans here.
    Inactive,
}

/// One intrusive doubly-linked list over slab slots. Head is the most
/// recently linked end; reclaim consumes from the tail.
struct LruList {
    head: u32,
    tail: u32,
    len: usize,
}

impl Default for LruList {
    fn default() -> LruList {
        LruList {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

/// One resident page: identity, bytes, write-back state and LRU linkage.
struct Page {
    /// Whose page this is: reclaim reaches the file's index through it.
    key: PageKey,
    data: PageData,
    dirty: bool,
    /// An in-flight bounded flush has snapshotted this page and will
    /// write it out; other bounded flushes skip it instead of submitting
    /// the same bytes twice. Full flushes (`fsync` must not return before
    /// the data is submitted) ignore the flag. Cleared when the flush
    /// completes, succeed or fail.
    writeback: bool,
    /// Set on every hit; cleared (with a rotation or promotion) by the
    /// reclaim scan — the clock-style aging bit.
    referenced: bool,
    list: LruKind,
    /// Bumped on every write; write-back completion only marks a page
    /// clean if the version it captured is still current (re-dirty
    /// detection).
    version: u64,
    prev: u32,
    next: u32,
}

/// Invariant: a `FileState` (it owns a [`FileRef`] via `flush_ref`) must
/// never be dropped while the cache state lock is held. Dropping the last
/// `Arc<FileRef>` calls `Filesystem::release`, which for a FUSE mount is a
/// transport round trip — blocking inside the lock that writeback re-entry
/// needs. Every removal site takes the state out, unlocks, then drops.
struct FileState {
    /// This file's resident pages, clean and dirty: page number → slab
    /// slot. The cache's only page index (Linux's `address_space.i_pages`):
    /// every lookup comes through it, a fill run is one range query, and
    /// dropping a range of the file touches only the file's own pages.
    pages: BTreeMap<u64, u32>,
    /// Dirty page numbers, sorted — write-back peels coalesced runs
    /// straight off this index.
    dirty: BTreeSet<u64>,
    /// Write handle pinned for writeback.
    flush_ref: Option<Arc<FileRef>>,
    /// Size as extended by not-yet-flushed writes.
    pending_size: Option<u64>,
    /// Modification time of the most recent buffered write (the filesystem
    /// has not seen the data yet, but `stat` must show the new mtime).
    pending_mtime: Option<cntr_types::Timespec>,
}

impl FileState {
    fn new() -> FileState {
        FileState {
            pages: BTreeMap::new(),
            dirty: BTreeSet::new(),
            flush_ref: None,
            pending_size: None,
            pending_mtime: None,
        }
    }

    /// True when nothing references this state any more and the entry can
    /// be dropped from the file table.
    fn is_empty(&self) -> bool {
        self.pages.is_empty()
            && self.dirty.is_empty()
            && self.flush_ref.is_none()
            && self.pending_size.is_none()
            && self.pending_mtime.is_none()
    }
}

/// Everything behind the `pagecache.lru` lock: the page slab, the two LRU
/// lists and the per-file state, whose page maps index the slab.
#[derive(Default)]
struct CacheState {
    /// Page slab; `free` holds recycled slot indices.
    slots: Vec<Option<Page>>,
    free: Vec<u32>,
    files: IdMap<(DevId, Ino), FileState>,
    active: LruList,
    inactive: LruList,
    dirty_total: usize,
}

impl Drop for CacheState {
    fn drop(&mut self) {
        OBS_RESIDENT_PAGES.add(-(self.resident() as i64));
        OBS_ACTIVE_PAGES.add(-(self.active.len as i64));
        OBS_INACTIVE_PAGES.add(-(self.inactive.len as i64));
        OBS_DIRTY_PAGES.add(-(self.dirty_total as i64));
    }
}

impl CacheState {
    fn page(&self, slot: u32) -> &Page {
        self.slots[slot as usize].as_ref().expect("live slot")
    }

    fn page_mut(&mut self, slot: u32) -> &mut Page {
        self.slots[slot as usize].as_mut().expect("live slot")
    }

    fn resident(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// The slot holding page `page` of `file`, if resident.
    fn slot(&self, file: (DevId, Ino), page: u64) -> Option<u32> {
        self.files.get(&file)?.pages.get(&page).copied()
    }

    fn list_mut(&mut self, kind: LruKind) -> &mut LruList {
        match kind {
            LruKind::Active => &mut self.active,
            LruKind::Inactive => &mut self.inactive,
        }
    }

    /// Unlinks `slot` from the list it is on (gauges untouched — callers
    /// pair this with a relink or a removal).
    fn unlink(&mut self, slot: u32) {
        let (kind, prev, next) = {
            let p = self.page(slot);
            (p.list, p.prev, p.next)
        };
        if prev == NIL {
            self.list_mut(kind).head = next;
        } else {
            self.page_mut(prev).next = next;
        }
        if next == NIL {
            self.list_mut(kind).tail = prev;
        } else {
            self.page_mut(next).prev = prev;
        }
        self.list_mut(kind).len -= 1;
    }

    /// Links `slot` at the head of `kind` (gauges untouched).
    fn link_front(&mut self, kind: LruKind, slot: u32) {
        let old_head = self.list_mut(kind).head;
        {
            let p = self.page_mut(slot);
            p.list = kind;
            p.prev = NIL;
            p.next = old_head;
        }
        if old_head != NIL {
            self.page_mut(old_head).prev = slot;
        }
        let list = self.list_mut(kind);
        list.head = slot;
        if list.tail == NIL {
            list.tail = slot;
        }
        list.len += 1;
    }

    /// Moves `slot` to the head of `kind`, keeping the residency gauges
    /// exact when the page changes list.
    fn move_to(&mut self, kind: LruKind, slot: u32) {
        let from = self.page(slot).list;
        self.unlink(slot);
        self.link_front(kind, slot);
        if from != kind {
            match kind {
                LruKind::Active => {
                    OBS_ACTIVE_PAGES.inc();
                    OBS_INACTIVE_PAGES.dec();
                }
                LruKind::Inactive => {
                    OBS_INACTIVE_PAGES.inc();
                    OBS_ACTIVE_PAGES.dec();
                }
            }
        }
    }

    /// Inserts a fresh page at the inactive head (fills and first writes
    /// enter cold; promotion takes a second touch) and indexes it.
    fn insert(&mut self, key: PageKey, data: PageData, dirty: bool, version: u64) -> u32 {
        let page = Page {
            key,
            data,
            dirty,
            writeback: false,
            referenced: false,
            list: LruKind::Inactive,
            version,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(page);
                s
            }
            None => {
                self.slots.push(Some(page));
                (self.slots.len() - 1) as u32
            }
        };
        self.link_front(LruKind::Inactive, slot);
        OBS_INACTIVE_PAGES.inc();
        OBS_RESIDENT_PAGES.inc();
        let fstate = self
            .files
            .entry((key.dev, key.ino))
            .or_insert_with(FileState::new);
        fstate.pages.insert(key.page, slot);
        if dirty {
            fstate.dirty.insert(key.page);
            self.dirty_total += 1;
            OBS_DIRTY_PAGES.inc();
        }
        slot
    }

    /// Marks the page at `slot` dirty (no-op if already dirty), keeping the
    /// per-file index and the dirty accounting exact.
    fn mark_dirty(&mut self, slot: u32) {
        let key = self.page(slot).key;
        if self.page(slot).dirty {
            return;
        }
        self.page_mut(slot).dirty = true;
        self.files
            .entry((key.dev, key.ino))
            .or_insert_with(FileState::new)
            .dirty
            .insert(key.page);
        self.dirty_total += 1;
        OBS_DIRTY_PAGES.inc();
    }

    /// Marks the page at `slot` clean after write-back.
    fn mark_clean(&mut self, slot: u32) {
        let key = self.page(slot).key;
        if !self.page(slot).dirty {
            return;
        }
        self.page_mut(slot).dirty = false;
        if let Some(f) = self.files.get_mut(&(key.dev, key.ino)) {
            f.dirty.remove(&key.page);
        }
        self.dirty_total = self.dirty_total.saturating_sub(1);
        OBS_DIRTY_PAGES.dec();
    }

    /// Removes the page at `slot` entirely: unlinks it, drops it from its
    /// file's index and fixes the dirty accounting. Returns the file-table
    /// entry when this was the file's last trace, so the caller can drop
    /// any `FileRef` it owns *outside* the lock.
    fn remove(&mut self, slot: u32) -> Option<FileState> {
        self.unlink(slot);
        let page = self.slots[slot as usize].take().expect("live slot");
        self.free.push(slot);
        match page.list {
            LruKind::Active => OBS_ACTIVE_PAGES.dec(),
            LruKind::Inactive => OBS_INACTIVE_PAGES.dec(),
        }
        OBS_RESIDENT_PAGES.dec();
        if page.dirty {
            self.dirty_total = self.dirty_total.saturating_sub(1);
            OBS_DIRTY_PAGES.dec();
        }
        let file_key = (page.key.dev, page.key.ino);
        if let Some(f) = self.files.get_mut(&file_key) {
            f.pages.remove(&page.key.page);
            f.dirty.remove(&page.key.page);
            if f.is_empty() {
                return self.files.remove(&file_key);
            }
        }
        None
    }

    /// Removes `file`'s resident pages numbered in `pages`, clean or dirty,
    /// in ascending order: what invalidation, truncation, hole punching and
    /// unmount drop. Returns the file-table entry when that left nothing of
    /// the file, for the caller to drop outside the lock.
    fn drop_pages(
        &mut self,
        file: (DevId, Ino),
        pages: impl RangeBounds<u64>,
    ) -> Option<FileState> {
        let doomed: Vec<u32> = self
            .files
            .get(&file)?
            .pages
            .range(pages)
            .map(|(_, &s)| s)
            .collect();
        let mut gone = None;
        for slot in doomed {
            gone = gone.or(self.remove(slot));
        }
        gone
    }

    /// The file on a device `want` accepts with the most dirty pages — the
    /// write-back victim order (largest dirty set first amortizes
    /// per-flush overhead best). A tie goes to the lowest `(dev, ino)`:
    /// the file table's iteration order is seeded per process, so it must
    /// not pick the victim, or the flush order would move the virtual
    /// clock from run to run.
    fn dirtiest_file(&self, want: impl Fn(DevId) -> bool) -> Option<(DevId, Ino)> {
        self.files
            .iter()
            .filter(|(&(d, _), f)| !f.dirty.is_empty() && want(d))
            .max_by_key(|(&k, f)| (f.dirty.len(), Reverse(k)))
            .map(|(&k, _)| k)
    }
}

/// One contiguous writeback run: start page plus the
/// `(page, version, snapshot)` members it covers — versions for re-dirty
/// detection, snapshots (O(1) [`PageData::share`] aliases taken under the
/// LRU lock) for assembling the contiguous buffer outside it.
type FlushRun = (u64, Vec<(u64, u64, PageData)>);

thread_local! {
    /// Set while a flush is executing on this thread. Flushing a FUSE-backed
    /// file re-enters the page cache through the server's own writes; without
    /// this guard the nested write would start a second flush of the same
    /// still-dirty file, recursing without bound. Reclaim honours it too:
    /// a nested over-capacity insert evicts clean pages only, accepting a
    /// bounded transient overage instead of recursive write-back.
    static IN_FLUSH: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

struct FlushGuard {
    prev: bool,
}

impl FlushGuard {
    fn enter() -> FlushGuard {
        let prev = IN_FLUSH.with(|f| f.replace(true));
        FlushGuard { prev }
    }
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        IN_FLUSH.with(|f| f.set(self.prev));
    }
}

fn in_flush() -> bool {
    IN_FLUSH.with(std::cell::Cell::get)
}

/// How many pages one background write-back chunk writes at most: large
/// enough that coalesced runs amortize per-request overhead (1 MiB), small
/// enough that the writer running it pays a bounded cost.
const FLUSHER_CHUNK_PAGES: usize = 256;

/// Minimum foreground write-back debt of a throttled writer, in pages.
/// Tiny writers crossing the hard limit still make real progress.
const MIN_THROTTLE_QUOTA: usize = 32;

/// The most pages one read miss fills in a single run: 128 KiB, the FUSE
/// `max_read` window.
const FILL_RUN_PAGES: usize = 32;

/// The page cache shared by all mounts of a [`crate::Kernel`].
pub struct PageCache {
    clock: SimClock,
    capacity_pages: usize,
    dirty_limit_pages: usize,
    /// Background write-back starts above this. Below `dirty_limit_pages`.
    dirty_bg_pages: usize,
    /// Paced mode: a write ending above the background threshold flushes
    /// one bounded chunk, and a throttled writer pays a bounded debt.
    /// Off, a throttled writer drains to the background threshold
    /// (stop-world).
    background_writeback: bool,
    lru: Mutex<CacheState>,
    counters: CacheCounters,
}

impl PageCache {
    /// Creates a cache with the given capacity and the hard and background
    /// dirty thresholds (bytes; [`crate::KernelConfig`] resolves them).
    /// `background_writeback` selects paced write-back (see the module
    /// docs); without it writers drain inline at the hard limit.
    pub fn new(
        clock: SimClock,
        capacity_bytes: u64,
        dirty_limit_bytes: u64,
        dirty_background_bytes: u64,
        background_writeback: bool,
    ) -> PageCache {
        let dirty_limit_pages = (dirty_limit_bytes / PAGE_SIZE as u64).max(4) as usize;
        let dirty_bg_pages = (dirty_background_bytes / PAGE_SIZE as u64) as usize;
        debug_assert!(
            (1..dirty_limit_pages).contains(&dirty_bg_pages),
            "background threshold {dirty_bg_pages} pages outside 1..{dirty_limit_pages}"
        );
        PageCache {
            clock,
            capacity_pages: (capacity_bytes / PAGE_SIZE as u64).max(16) as usize,
            dirty_limit_pages,
            dirty_bg_pages,
            background_writeback,
            lru: Mutex::new_class(lock_class::PAGECACHE_LRU, CacheState::default()),
            counters: CacheCounters::default(),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PageCacheStats {
        self.counters.snapshot()
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.lru.lock().resident()
    }

    /// Resident pages of one filesystem: where a file's data is cached.
    pub fn resident_pages_of(&self, dev: DevId) -> usize {
        let st = self.lru.lock();
        st.files
            .iter()
            .filter(|((d, _), _)| *d == dev)
            .map(|(_, f)| f.pages.len())
            .sum()
    }

    /// Pages on the (active, inactive) LRU lists.
    pub fn residency(&self) -> (usize, usize) {
        let st = self.lru.lock();
        (st.active.len, st.inactive.len)
    }

    /// The configured ceiling, in pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Bytes of pending (unflushed) dirty data.
    pub fn dirty_bytes(&self) -> u64 {
        self.lru.lock().dirty_total as u64 * PAGE_SIZE as u64
    }

    /// The file size including unflushed extensions, if larger than `fs_size`.
    pub fn effective_size(&self, dev: DevId, ino: Ino, fs_size: u64) -> u64 {
        let st = self.lru.lock();
        st.files
            .get(&(dev, ino))
            .and_then(|f| f.pending_size)
            .map_or(fs_size, |p| p.max(fs_size))
    }

    /// The mtime of the most recent buffered write, if any data is pending.
    pub fn pending_mtime(&self, dev: DevId, ino: Ino) -> Option<cntr_types::Timespec> {
        self.lru
            .lock()
            .files
            .get(&(dev, ino))
            .and_then(|f| f.pending_mtime)
    }

    /// Drops every cached page overlapping `[offset, offset+len)` — used
    /// after a hole punch so stale buffered data cannot shadow the hole. A
    /// page the hole only partly covers goes too: the next read refetches
    /// it with its zeroed part.
    pub fn drop_range(&self, dev: DevId, ino: Ino, offset: u64, len: u64) {
        let first = offset / PAGE_SIZE as u64;
        let last = (offset + len).div_ceil(PAGE_SIZE as u64);
        let mut st = self.lru.lock();
        let gone = st.drop_pages((dev, ino), first..last);
        drop(st);
        drop(gone);
    }

    /// Reads through the cache. `file` supplies the fill path; the caller
    /// clips reads to the effective file size.
    ///
    /// A miss fills the whole run of consecutive non-resident pages the
    /// read covers from that point (up to `FILL_RUN_PAGES`) with one
    /// filesystem read, the way Linux sizes a read to its access: a 4 KiB
    /// read across two cold pages is one 8 KiB request. A resident page,
    /// clean or dirty, ends the run and is served from the cache.
    ///
    /// A synthetic mount fills one page per miss instead. This is the one
    /// read-side difference a synthetic mount keeps, and Figure 3(a)'s
    /// `keep_cache` panel is the reason: with `keep_cache` off every open
    /// invalidates the file, and fill runs make the re-read cheap enough
    /// that the panel's gain falls from 2.11x to 1.94x (a Linux-style
    /// readahead in place of the FUSE client's window gives 1.88x), below
    /// the `> 2.0` the figure checks.
    pub fn read(
        &self,
        dev: DevId,
        mode: CacheMode,
        file: &Arc<FileRef>,
        offset: u64,
        buf: &mut [u8],
    ) -> SysResult<usize> {
        let ino = file.ino;
        let last_page = match buf.len() {
            0 => return Ok(0),
            len => (offset + len as u64 - 1) / PAGE_SIZE as u64,
        };
        let max_run = if mode.synthetic { 1 } else { FILL_RUN_PAGES };
        let mut done = 0usize;
        while done < buf.len() {
            let off = offset + done as u64;
            let page_no = off / PAGE_SIZE as u64;
            let in_page = (off % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(buf.len() - done);

            // A hit reads the page under the lock; a miss measures the run
            // of absent pages starting here.
            let run = {
                let mut st = self.lru.lock();
                let pages = st.files.get(&(dev, ino)).map(|f| &f.pages);
                if let Some(slot) = pages.and_then(|p| p.get(&page_no).copied()) {
                    // A touch on a referenced inactive page is the second
                    // touch: promote to the active list. Everything else
                    // just sets the referenced bit (the reclaim scan does
                    // the aging).
                    let promote =
                        st.page(slot).referenced && st.page(slot).list == LruKind::Inactive;
                    if promote {
                        st.page_mut(slot).referenced = false;
                        st.move_to(LruKind::Active, slot);
                    } else {
                        st.page_mut(slot).referenced = true;
                    }
                    st.page(slot)
                        .data
                        .read_into(in_page, &mut buf[done..done + n]);
                    0
                } else {
                    // The run ends at the file's next resident page.
                    let limit = (last_page - page_no + 1).min(max_run as u64);
                    pages
                        .and_then(|p| p.range(page_no + 1..page_no + limit).next())
                        .map_or(limit, |(&next, _)| next - page_no) as usize
                }
            };

            if run == 0 {
                OBS_LOOKUPS.inc();
                self.counters.hits.inc();
                self.clock.advance(COST.page_cache_hit_ns);
                done += n;
                continue;
            }
            OBS_LOOKUPS.add(run as u64);
            self.counters.misses.add(run as u64);
            // Fill the run from the filesystem (outside the lock: a FUSE
            // fill re-enters the kernel through the server).
            let page_off = page_no * PAGE_SIZE as u64;
            let pages = if mode.synthetic {
                // A real page-sized read, so every layer below (FUSE round
                // trips, readahead, disk) charges its true cost; only the
                // bytes are discarded.
                file.fs.read_bytes(ino, file.fh, page_off, PAGE_SIZE)?;
                vec![PageData::Synthetic]
            } else {
                Self::fill_run(file, page_off, run)?
            };
            // Pages past the filesystem's EOF are not cached; they read as
            // zeroes.
            for i in 0..run {
                let off = offset + done as u64;
                let in_page = (off % PAGE_SIZE as u64) as usize;
                let n = (PAGE_SIZE - in_page).min(buf.len() - done);
                match pages.get(i) {
                    Some(data) => data.read_into(in_page, &mut buf[done..done + n]),
                    None => buf[done..done + n].fill(0),
                }
                done += n;
            }
            let over = {
                let mut st = self.lru.lock();
                for (i, data) in pages.into_iter().enumerate() {
                    let page = page_no + i as u64;
                    // The fill ran outside the lock; another thread may
                    // have populated (and even dirtied) the page meanwhile.
                    // Theirs wins — replacing a dirty entry with our clean
                    // fill would lose the write and strand the dirty
                    // accounting.
                    if let Some(slot) = st.slot((dev, ino), page) {
                        st.page_mut(slot).referenced = true;
                    } else {
                        st.insert(PageKey { dev, ino, page }, data, false, 0);
                    }
                }
                st.resident() > self.capacity_pages
            };
            if over {
                self.reclaim()?;
            }
        }
        Ok(done)
    }

    /// Reads `pages` pages at `page_off` for the cache, one page per
    /// [`PageData`] and none past EOF (the last may be a short EOF page
    /// whose tail reads as zeroes).
    ///
    /// The splice fill: `read_bytes` is called until the run is covered,
    /// and each page is cached *by reference* as a slice of the buffer that
    /// holds it whole — for a spliced FUSE read the server's own reply, for
    /// a blob-backed store the stored chunk — so no byte is copied to cache
    /// it. Only a page straddling two buffers is gathered into its own.
    /// (`read_bytes_gather` would copy every chunked run into one buffer.)
    fn fill_run(file: &FileRef, page_off: u64, pages: usize) -> SysResult<Vec<PageData>> {
        let len = pages * PAGE_SIZE;
        let mut bufs = Vec::new();
        let mut got = 0usize;
        while got < len {
            let chunk = file
                .fs
                .read_bytes(file.ino, file.fh, page_off + got as u64, len - got)?;
            if chunk.is_empty() {
                break;
            }
            got += chunk.len();
            bufs.push(chunk);
        }
        let mut out = Vec::with_capacity(got.div_ceil(PAGE_SIZE));
        let mut bufs = bufs.into_iter();
        let mut cur = Bytes::new();
        for start in (0..got).step_by(PAGE_SIZE) {
            let want = PAGE_SIZE.min(got - start);
            if cur.is_empty() {
                cur = bufs.next().expect("buffers cover `got`");
            }
            if cur.len() >= want {
                out.push(PageData::Shared(cur.slice(..want)));
                cur = cur.slice(want..);
                continue;
            }
            let mut page = Vec::with_capacity(want);
            while page.len() < want {
                if cur.is_empty() {
                    cur = bufs.next().expect("buffers cover `got`");
                }
                let take = cur.len().min(want - page.len());
                page.extend_from_slice(&cur[..take]);
                cur = cur.slice(take..);
            }
            out.push(PageData::Shared(Bytes::from(page)));
        }
        Ok(out)
    }

    /// Writes through the cache according to `mode`.
    ///
    /// Write-through: the filesystem sees the write immediately and pages are
    /// updated in place. Writeback: pages go dirty, and at the dirty
    /// thresholds the writer itself flushes coalesced batches (see
    /// `balance_dirty_pages`). A write covering part of a page the cache
    /// does not hold first reads that page from the filesystem, as Linux's
    /// `write_begin` does for a page that is not up to date: flushing it
    /// must not zero the bytes the write left alone.
    pub fn write(
        &self,
        dev: DevId,
        mode: CacheMode,
        file: &Arc<FileRef>,
        offset: u64,
        data: &[u8],
    ) -> SysResult<usize> {
        let ino = file.ino;
        if !mode.writeback {
            // Write-through: filesystem first (it may fail), then cache.
            let written = file.fs.write(ino, file.fh, offset, data)?;
            self.update_clean_pages(dev, ino, mode, offset, &data[..written])?;
            return Ok(written);
        }

        let mut done = 0usize;
        let mut newly_dirtied = 0usize;
        while done < data.len() {
            let off = offset + done as u64;
            let page_no = off / PAGE_SIZE as u64;
            let in_page = (off % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - done);
            let key = PageKey {
                dev,
                ino,
                page: page_no,
            };
            let mut filled = None;
            let over = loop {
                let now = self.clock.now();
                let mut st = self.lru.lock();
                let slot = match st.slot((dev, ino), page_no) {
                    Some(slot) => {
                        st.page_mut(slot).referenced = true;
                        if !st.page(slot).dirty {
                            newly_dirtied += 1;
                        }
                        st.mark_dirty(slot);
                        slot
                    }
                    // Read the page outside the lock, then look again.
                    None if n < PAGE_SIZE && filled.is_none() => {
                        drop(st);
                        filled = Some(Self::read_page(file, page_no)?);
                        continue;
                    }
                    None => {
                        newly_dirtied += 1;
                        st.insert(key, PageData::new(mode, filled.take()), true, 0)
                    }
                };
                if let Some(p) = st.page_mut(slot).data.make_mut() {
                    p[in_page..in_page + n].copy_from_slice(&data[done..done + n]);
                }
                st.page_mut(slot).version += 1;
                let end = off + n as u64;
                let fstate = st.files.entry((dev, ino)).or_insert_with(FileState::new);
                fstate.pending_mtime = Some(now);
                if fstate.flush_ref.is_none() {
                    fstate.flush_ref = Some(Arc::clone(file));
                }
                fstate.pending_size = Some(fstate.pending_size.unwrap_or(0).max(end));
                break st.resident() > self.capacity_pages;
            };
            self.clock.advance(COST.page_cache_hit_ns);
            if over {
                // Per-page reclaim keeps the bound tight even when one
                // syscall writes multiples of the whole cache.
                self.reclaim()?;
            }
            done += n;
        }

        self.balance_dirty_pages(newly_dirtied)?;
        Ok(data.len())
    }

    /// Page `page_no` of `file` as the filesystem holds it: read when the
    /// page starts below its end of file, zeroes past it.
    fn read_page(file: &FileRef, page_no: u64) -> SysResult<Box<[u8; PAGE_SIZE]>> {
        let mut page = Box::new([0u8; PAGE_SIZE]);
        let off = page_no * PAGE_SIZE as u64;
        if off < file.fs.getattr(file.ino)?.size {
            file.fs.read_page(file.ino, file.fh, off, &mut page[..])?;
        }
        Ok(page)
    }

    /// Updates (or populates) clean cached pages after a write-through. A
    /// page the write covers only in part is updated if cached and left
    /// uncached otherwise: only its written bytes would be up to date.
    fn update_clean_pages(
        &self,
        dev: DevId,
        ino: Ino,
        mode: CacheMode,
        offset: u64,
        data: &[u8],
    ) -> SysResult<()> {
        let mut done = 0usize;
        let over;
        {
            let mut st = self.lru.lock();
            while done < data.len() {
                let off = offset + done as u64;
                let page_no = off / PAGE_SIZE as u64;
                let in_page = (off % PAGE_SIZE as u64) as usize;
                let n = (PAGE_SIZE - in_page).min(data.len() - done);
                let key = PageKey {
                    dev,
                    ino,
                    page: page_no,
                };
                let slot = match st.slot((dev, ino), page_no) {
                    Some(slot) => {
                        st.page_mut(slot).referenced = true;
                        slot
                    }
                    None if n < PAGE_SIZE => {
                        done += n;
                        continue;
                    }
                    None => st.insert(key, PageData::new(mode, None), false, 0),
                };
                if let Some(p) = st.page_mut(slot).data.make_mut() {
                    p[in_page..in_page + n].copy_from_slice(&data[done..done + n]);
                }
                done += n;
            }
            over = st.resident() > self.capacity_pages;
        }
        if over {
            self.reclaim()?;
        }
        Ok(())
    }

    /// The `balance_dirty_pages` checkpoint a write-back writer passes
    /// after dirtying `newly_dirtied` pages. Crossing the hard limit makes
    /// the writer pay down a bounded multiple of its own debt in
    /// foreground write-back — paced, proportional, and therefore fair
    /// when many containers cross together. In paced mode a write that
    /// still ends above the background threshold then runs one background
    /// chunk. In stop-world mode the throttled writer drains all the way
    /// to the background threshold itself.
    fn balance_dirty_pages(&self, newly_dirtied: usize) -> SysResult<()> {
        if newly_dirtied == 0 || in_flush() {
            return Ok(());
        }
        let over_limit = self.lru.lock().dirty_total > self.dirty_limit_pages;
        if over_limit {
            self.throttle(newly_dirtied)?;
        }
        if self.background_writeback {
            self.background_chunk();
        }
        Ok(())
    }

    /// The hard-limit throttle: foreground write-back of the dirtiest files
    /// until the background threshold, or in paced mode until the writer
    /// has paid twice what it dirtied (at least `MIN_THROTTLE_QUOTA`).
    fn throttle(&self, newly_dirtied: usize) -> SysResult<()> {
        self.counters.throttle_stalls.inc();
        let stall_start = obs::now_ns();
        let paced = self.background_writeback;
        let mut quota = newly_dirtied.saturating_mul(2).max(MIN_THROTTLE_QUOTA);
        while let Some((vdev, vino)) = self.background_victim() {
            // Paced mode flushes a bounded chunk; stop-world mode drains
            // the victim file whole — one big coalesced gather per file,
            // the batching profile the Phoronix figure bands are
            // calibrated against.
            let n = self.flush_chunk(vdev, vino, if paced { quota } else { usize::MAX })?;
            if n == 0 {
                break;
            }
            if paced {
                quota = quota.saturating_sub(n);
                if quota == 0 {
                    break;
                }
            }
        }
        OBS_THROTTLE_STALL_NS.record(obs::now_ns().saturating_sub(stall_start));
        Ok(())
    }

    /// The flusher's work item, run by the writer: while the cache is
    /// above the background threshold, one chunk of at most
    /// `FLUSHER_CHUNK_PAGES` from the dirtiest file. Like a kworker's, its
    /// error does not reach the writer; the pages stay dirty for `fsync`.
    fn background_chunk(&self) {
        let Some((dev, ino)) = self.background_victim() else {
            return;
        };
        self.counters.writeback_wakeups.inc();
        if self.flush_chunk(dev, ino, FLUSHER_CHUNK_PAGES).is_err() {
            self.counters.writeback_errors.inc();
        }
    }

    /// The dirtiest file while the cache is above the background threshold.
    fn background_victim(&self) -> Option<(DevId, Ino)> {
        let st = self.lru.lock();
        if st.dirty_total <= self.dirty_bg_pages {
            return None;
        }
        st.dirtiest_file(|_| true)
    }

    /// Flushes up to `max_pages` dirty pages of one file (ascending page
    /// order, contiguous pages merged into single large filesystem writes
    /// — the coalescing that makes writeback-cached CntrFS *beat* native
    /// ext4 on FIO and PGBench in Figure 2). Returns how many pages were
    /// submitted.
    fn flush_chunk(&self, dev: DevId, ino: Ino, max_pages: usize) -> SysResult<usize> {
        let _guard = FlushGuard::enter();
        let (runs, flush_ref, pending, picked) = {
            let mut st = self.lru.lock();
            let (pages, flush_ref, pending) = {
                let Some(fstate) = st.files.get(&(dev, ino)) else {
                    return Ok(0);
                };
                let Some(flush_ref) = fstate.flush_ref.clone() else {
                    return Ok(0);
                };
                let pages: Vec<(u64, u32)> = fstate
                    .dirty
                    .iter()
                    .take(max_pages)
                    .filter_map(|&page| Some((page, *fstate.pages.get(&page)?)))
                    .collect();
                (pages, flush_ref, fstate.pending_size)
            };
            // Peel the lowest `max_pages` dirty pages off the sorted
            // per-file index, snapshotting each via an O(1)
            // [`PageData::share`] alias. No page data is copied, under the
            // lock or after it: a concurrent writer COWs away from the
            // aliased bytes instead.
            // A bounded flush (background chunk, writer pacing) skips pages a
            // concurrent flush already has in flight — submitting them
            // again would double the write traffic for nothing. A full
            // flush must not: `fsync` has to have submitted every dirty
            // page itself by the time it returns.
            let skip_inflight = max_pages != usize::MAX;
            let mut runs: Vec<FlushRun> = Vec::new();
            let mut picked = 0usize;
            for (page, slot) in pages {
                let (version, snapshot) = {
                    let p = st.page_mut(slot);
                    if skip_inflight && p.writeback {
                        continue;
                    }
                    p.writeback = true;
                    (p.version, p.data.share())
                };
                picked += 1;
                match runs.last_mut() {
                    Some((start, members)) if *start + members.len() as u64 == page => {
                        members.push((page, version, snapshot));
                    }
                    _ => runs.push((page, vec![(page, version, snapshot)])),
                }
            }
            (runs, flush_ref, pending, picked)
        };
        if picked == 0 {
            return Ok(0);
        }

        let mut runs = runs.into_iter();
        let mut failed = None;
        for (start_page, members) in runs.by_ref() {
            let offset = start_page * PAGE_SIZE as u64;
            // Clip the final run to the pending size so flushing does not
            // extend the file past what was written.
            let mut end = offset + (members.len() * PAGE_SIZE) as u64;
            if let Some(size) = pending {
                if end > size && size > offset {
                    end = size;
                }
            }
            // The run goes down as its pages themselves, one buffer each
            // (Linux's `bio_vec`): no page is copied, and a store that
            // retains buffers keeps each page apart — a blob chunk is its
            // page's own allocation, and rewriting the page later frees
            // that page alone.
            let mut segments = Vec::with_capacity(members.len());
            for (i, (_, _, snapshot)) in members.iter().enumerate() {
                let page_off = offset + (i * PAGE_SIZE) as u64;
                if page_off >= end {
                    break;
                }
                let len = (end - page_off).min(PAGE_SIZE as u64) as usize;
                segments.push(snapshot.writeback_buffer(len));
            }
            // Writeback is background I/O: it occupies the disk but does not
            // stall the writer. An fsync barrier (`fs.fsync` → device flush)
            // waits for the backlog.
            let wrote = {
                let _bg = cntr_blockdev::BackgroundIo::enter();
                flush_ref
                    .fs
                    .write_bytes(ino, flush_ref.fh, offset, &segments)
            };
            if wrote.is_ok() {
                self.counters.flush_batches.inc();
                self.counters.flushed_pages.add(members.len() as u64);
            }
            let mut st = self.lru.lock();
            for (page, version, _) in members {
                if let Some(slot) = st.slot((dev, ino), page) {
                    st.page_mut(slot).writeback = false;
                    // Only mark clean if not re-dirtied during the write.
                    if wrote.is_ok() && st.page(slot).dirty && st.page(slot).version == version {
                        st.mark_clean(slot);
                    }
                }
            }
            drop(st);
            if let Err(e) = wrote {
                failed = Some(e);
                break;
            }
        }
        if let Some(e) = failed {
            // Un-flag the runs that were never submitted so the pages stay
            // eligible for the retry.
            let mut st = self.lru.lock();
            for (_, members) in runs {
                for (page, _, _) in members {
                    if let Some(slot) = st.slot((dev, ino), page) {
                        st.page_mut(slot).writeback = false;
                    }
                }
            }
            drop(st);
            return Err(e);
        }

        let mut st = self.lru.lock();
        let mut released = None;
        if let Some(f) = st.files.get_mut(&(dev, ino)) {
            if f.dirty.is_empty() {
                f.pending_size = None;
                f.pending_mtime = None;
                released = f.flush_ref.take();
            }
        }
        drop(st);
        drop(released);
        Ok(picked)
    }

    /// The address of the first byte of page `page` of a file, if it is
    /// resident and holds real bytes: what the zero-copy proofs compare
    /// with the buffers storage holds.
    pub fn page_ptr(&self, dev: DevId, ino: Ino, page: u64) -> Option<usize> {
        let st = self.lru.lock();
        let slot = st.slot((dev, ino), page)?;
        match &st.page(slot).data {
            PageData::Owned(p) => Some(p.as_ptr() as usize),
            PageData::Shared(b) => Some(b.as_ptr() as usize),
            PageData::Synthetic => None,
        }
    }

    /// Flushes every dirty page of one file (one pass — pages re-dirtied
    /// by a re-entrant server write stay dirty for the next flush).
    pub fn flush_file(&self, dev: DevId, ino: Ino) -> SysResult<()> {
        self.flush_chunk(dev, ino, usize::MAX).map(|_| ())
    }

    /// Reclaims pages until residency is back under the ceiling.
    ///
    /// Each pass under the lock (1) ages the active list down while it
    /// outnumbers the inactive list — referenced tails are rotated with
    /// their bit cleared, cold tails demoted — and (2) scans the inactive
    /// tail: referenced pages are promoted (second chance), clean cold
    /// pages evicted, and dirty cold pages rotated away while the first
    /// dirty file is noted. If eviction alone cannot reach the target the
    /// noted file is written back *outside the lock* and the pass repeats
    /// — writeback-then-evict, so an all-dirty cache still converges.
    ///
    /// Termination: every pass that continues the loop has strictly
    /// decreased `2·referenced + active + 2·resident` (rotations clear
    /// bits, demotions shrink the active list, evictions shrink
    /// residency) or flushed dirty pages; when none of those is possible
    /// the loop exits and accepts the overage (bounded: only re-entrant
    /// write-back takes that path).
    fn reclaim(&self) -> SysResult<()> {
        loop {
            let mut victim: Option<(DevId, Ino)> = None;
            let mut progress = false;
            let done = {
                let mut st = self.lru.lock();
                if st.resident() <= self.capacity_pages {
                    return Ok(());
                }
                // Evict in batches down to ~15/16 capacity so a writer
                // crossing the ceiling does not reclaim on every page.
                let target = self.capacity_pages - self.capacity_pages / 16;
                let mut scanned = 0u64;

                // (1) Age the active list down.
                let mut steps = st.active.len * 2;
                while st.active.len > st.inactive.len && steps > 0 {
                    steps -= 1;
                    let slot = st.active.tail;
                    if slot == NIL {
                        break;
                    }
                    scanned += 1;
                    if st.page(slot).referenced {
                        st.page_mut(slot).referenced = false;
                        st.move_to(LruKind::Active, slot);
                    } else {
                        st.move_to(LruKind::Inactive, slot);
                        progress = true;
                    }
                }

                // (2) Scan the inactive tail.
                let mut scans = st.inactive.len;
                let mut evicted = 0u64;
                let mut dropped_files = Vec::new();
                while st.resident() > target && scans > 0 {
                    scans -= 1;
                    let slot = st.inactive.tail;
                    if slot == NIL {
                        break;
                    }
                    scanned += 1;
                    let (referenced, dirty) = {
                        let p = st.page(slot);
                        (p.referenced, p.dirty)
                    };
                    if referenced {
                        // Second chance: a page touched while waiting on
                        // the cold list has earned the hot list.
                        st.page_mut(slot).referenced = false;
                        st.move_to(LruKind::Active, slot);
                        progress = true;
                    } else if dirty {
                        let k = st.page(slot).key;
                        if victim.is_none() {
                            victim = Some((k.dev, k.ino));
                        }
                        // Park it at the head; write-back will clean it.
                        st.move_to(LruKind::Inactive, slot);
                    } else {
                        dropped_files.extend(st.remove(slot));
                        evicted += 1;
                        progress = true;
                    }
                }
                if evicted > 0 {
                    self.counters.evictions.add(evicted);
                }
                if scanned > 0 {
                    self.counters.reclaim_scans.add(scanned);
                }
                let done = st.resident() <= self.capacity_pages;
                drop(st);
                // Evicting a file's last page can drop its `FileState`;
                // any pinned `FileRef` must die outside the lock.
                drop(dropped_files);
                done
            };
            if done {
                return Ok(());
            }
            if let Some((dev, ino)) = victim {
                if in_flush() {
                    // Re-entrant fill/write during write-back: evict clean
                    // pages only and accept a bounded transient overage
                    // rather than recursing into a second flush.
                    return Ok(());
                }
                self.flush_chunk(dev, ino, usize::MAX)?;
                continue;
            }
            if !progress {
                return Ok(());
            }
        }
    }

    /// `fsync`: flush the file's dirty pages, then ask the filesystem to
    /// sync.
    pub fn fsync(&self, dev: DevId, file: &Arc<FileRef>, datasync: bool) -> SysResult<()> {
        self.flush_file(dev, file.ino)?;
        file.fs.fsync(file.ino, file.fh, datasync)
    }

    /// Drops all pages of a file (open without `keep_cache`, or truncate).
    /// Dirty pages are flushed first so data is never lost.
    pub fn invalidate_file(&self, dev: DevId, ino: Ino) -> SysResult<()> {
        self.flush_file(dev, ino)?;
        let mut st = self.lru.lock();
        let gone = st
            .drop_pages((dev, ino), ..)
            .or_else(|| st.files.remove(&(dev, ino)));
        drop(st);
        drop(gone);
        self.counters.invalidations.inc();
        Ok(())
    }

    /// Drops pages beyond `new_size` after a truncate, and zeroes the bytes
    /// of the last page past it (Linux's `truncate_inode_partial_folio`),
    /// so they read back as zeroes if the file grows again.
    pub fn truncate_file(&self, dev: DevId, ino: Ino, new_size: u64) {
        let first_gone = new_size.div_ceil(PAGE_SIZE as u64);
        let mut st = self.lru.lock();
        let gone = st.drop_pages((dev, ino), first_gone..);
        let tail = (new_size % PAGE_SIZE as u64) as usize;
        if tail != 0 {
            if let Some(slot) = st.slot((dev, ino), new_size / PAGE_SIZE as u64) {
                if let Some(p) = st.page_mut(slot).data.make_mut() {
                    p[tail..].fill(0);
                }
            }
        }
        let mut released = None;
        let mut removed = None;
        if let Some(f) = st.files.get_mut(&(dev, ino)) {
            if let Some(p) = f.pending_size {
                f.pending_size = Some(p.min(new_size));
            }
            if f.dirty.is_empty() && f.pending_size.is_none() {
                f.pending_mtime = None;
                released = f.flush_ref.take();
                if f.is_empty() {
                    removed = st.files.remove(&(dev, ino));
                }
            }
        }
        drop(st);
        drop((gone, released, removed));
    }

    /// Flushes everything dirty (global `sync`).
    pub fn sync_all(&self) -> SysResult<()> {
        self.sync_matching(|_| true)
    }

    /// Flushes one filesystem's dirty files (unmount of a single mount —
    /// the other containers' dirty data is not this unmount's problem).
    pub fn sync_dev(&self, dev: DevId) -> SysResult<()> {
        self.sync_matching(|d| d == dev)
    }

    /// Flushes every dirty file whose device matches `want`, dirtiest
    /// first.
    fn sync_matching(&self, want: impl Fn(DevId) -> bool) -> SysResult<()> {
        loop {
            let victim = self.lru.lock().dirtiest_file(&want);
            match victim {
                Some((dev, ino)) => self.flush_file(dev, ino)?,
                None => return Ok(()),
            }
        }
    }

    /// Drops every clean page (the `drop_caches` knob). Dirty data is
    /// flushed first so nothing is lost.
    pub fn drop_clean(&self) -> SysResult<()> {
        self.sync_all()?;
        let mut st = self.lru.lock();
        let dropped = std::mem::take(&mut *st);
        drop(st);
        // Outside the lock: drops the file handles and unwinds the gauges.
        drop(dropped);
        Ok(())
    }

    /// Drops one filesystem's pages only (e.g. just the FUSE mount's half of
    /// a double-buffered file, leaving the server's copy warm).
    pub fn drop_dev(&self, dev: DevId) -> SysResult<()> {
        self.drop_devs(&[dev])
    }

    /// Drops the cached state of several filesystems in one pass (one
    /// flush, one sweep). Namespace GC uses this when filesystems lose
    /// their last mount: without the sweep, their pages would squat in the
    /// LRU and a dirty file's writeback reference would pin the `Arc` of a
    /// filesystem every mount table has already dropped. Only the victim
    /// devices' dirty files are flushed — one container's teardown does
    /// not pay for every other container's dirty data.
    pub fn drop_devs(&self, devs: &[DevId]) -> SysResult<()> {
        if devs.is_empty() {
            return Ok(());
        }
        // Flush dirty data first, best-effort: if a filesystem rejects its
        // writeback at teardown (EIO, ENOSPC), its remaining dirty pages
        // are discarded — as on a forced unmount — because the sweep below
        // must run regardless, or the failed device's pages and writeback
        // reference would pin the filesystem forever. The first flush
        // error is reported after the sweep.
        let flush_err: Option<Errno> = self.sync_matching(|d| devs.contains(&d)).err();
        let mut st = self.lru.lock();
        let doomed: Vec<(DevId, Ino)> = st
            .files
            .keys()
            .filter(|(d, _)| devs.contains(d))
            .copied()
            .collect();
        let mut dropped = Vec::new();
        for file in doomed {
            dropped.extend(st.drop_pages(file, ..).or_else(|| st.files.remove(&file)));
        }
        drop(st);
        drop(dropped);
        match flush_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntr_fs::memfs::{memfs, memfs_with_capacity};
    use cntr_fs::FsContext;
    use cntr_types::{FileType, Mode, OpenFlags, SetAttr};

    fn file_on(fs: &Arc<dyn Filesystem>, name: &str) -> Arc<FileRef> {
        let st = fs
            .mknod(
                cntr_types::Ino::ROOT,
                name,
                FileType::Regular,
                Mode::RW_R__R__,
                0,
                &FsContext::root(),
            )
            .unwrap();
        let fh = fs.open(st.ino, OpenFlags::RDWR).unwrap();
        Arc::new(FileRef {
            fs: Arc::clone(fs),
            ino: st.ino,
            fh,
        })
    }

    impl CacheState {
        /// Asserts that the slab, the two LRU lists, the per-file page
        /// indexes and the dirty accounting describe the same pages.
        fn check(&self) {
            let mut linked = vec![false; self.slots.len()];
            for (kind, list) in [
                (LruKind::Active, &self.active),
                (LruKind::Inactive, &self.inactive),
            ] {
                let (mut slot, mut prev, mut len) = (list.head, NIL, 0);
                while slot != NIL {
                    assert!(!linked[slot as usize], "slot {slot} linked twice");
                    linked[slot as usize] = true;
                    let p = self.page(slot);
                    assert_eq!((p.list, p.prev), (kind, prev), "links of slot {slot}");
                    (prev, slot, len) = (slot, p.next, len + 1);
                }
                assert_eq!((list.tail, list.len), (prev, len), "ends of {kind:?}");
            }
            let mut live = 0;
            for (slot, page) in self.slots.iter().enumerate() {
                let Some(p) = page else {
                    assert!(self.free.contains(&(slot as u32)), "slot {slot} leaked");
                    continue;
                };
                live += 1;
                assert!(linked[slot], "slot {slot} on no list");
                let f = &self.files[&(p.key.dev, p.key.ino)];
                assert_eq!(f.pages.get(&p.key.page), Some(&(slot as u32)));
                assert_eq!(f.dirty.contains(&p.key.page), p.dirty, "slot {slot}");
            }
            let (mut indexed, mut dirty) = (0, 0);
            for (&(dev, ino), f) in &self.files {
                for (&page, &slot) in &f.pages {
                    let k = self.page(slot).key;
                    assert_eq!((k.dev, k.ino, k.page), (dev, ino, page));
                }
                assert!(f.dirty.iter().all(|p| f.pages.contains_key(p)));
                indexed += f.pages.len();
                dirty += f.dirty.len();
            }
            assert_eq!((self.resident(), indexed), (live, live));
            assert_eq!(self.dirty_total, dirty);
        }
    }

    fn setup(cache_bytes: u64, dirty_bytes: u64) -> (Arc<PageCache>, Arc<FileRef>, DevId) {
        let clock = SimClock::new();
        let fs = memfs(DevId(1), clock.clone()) as Arc<dyn Filesystem>;
        let file = file_on(&fs, "f");
        let cache = Arc::new(PageCache::new(
            clock,
            cache_bytes,
            dirty_bytes,
            dirty_bytes / 2,
            false,
        ));
        (cache, file, DevId(1))
    }

    #[test]
    fn writeback_roundtrip_through_cache() {
        let (cache, file, dev) = setup(1 << 20, 1 << 20);
        let mode = CacheMode::native();
        let data = b"writeback data".to_vec();
        cache.write(dev, mode, &file, 10, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        cache.read(dev, mode, &file, 10, &mut buf).unwrap();
        assert_eq!(buf, data);
        // Not yet flushed: the filesystem still sees size 0.
        assert_eq!(file.fs.getattr(file.ino).unwrap().size, 0);
        assert_eq!(cache.effective_size(dev, file.ino, 0), 24);
        cache.flush_file(dev, file.ino).unwrap();
        assert_eq!(file.fs.getattr(file.ino).unwrap().size, 24);
    }

    #[test]
    fn write_through_reaches_fs_immediately() {
        let (cache, file, dev) = setup(1 << 20, 1 << 20);
        let mode = CacheMode::uncached();
        cache.write(dev, mode, &file, 0, b"now").unwrap();
        assert_eq!(file.fs.getattr(file.ino).unwrap().size, 3);
        assert_eq!(cache.dirty_bytes(), 0);
    }

    #[test]
    fn dirty_limit_triggers_coalesced_flush() {
        let (cache, file, dev) = setup(64 << 20, 16 * PAGE_SIZE as u64);
        let mode = CacheMode::native();
        // 64 small sequential writes = 32 pages of dirty data.
        for i in 0..64u64 {
            cache
                .write(dev, mode, &file, i * 2048, &[1u8; 2048])
                .unwrap();
        }
        let stats = cache.stats();
        assert!(stats.flushed_pages > 0, "dirty limit must force a flush");
        assert!(stats.throttle_stalls > 0, "the writer paid the stall");
        // Coalescing: far fewer batches than pages.
        assert!(
            stats.flush_batches * 4 <= stats.flushed_pages,
            "batches={} pages={}",
            stats.flush_batches,
            stats.flushed_pages
        );
    }

    #[test]
    fn fsync_flushes_and_syncs() {
        let (cache, file, dev) = setup(1 << 20, 1 << 30);
        cache
            .write(dev, CacheMode::native(), &file, 0, &[7u8; 8192])
            .unwrap();
        assert!(cache.dirty_bytes() > 0);
        cache.fsync(dev, &file, false).unwrap();
        assert_eq!(cache.dirty_bytes(), 0);
        assert_eq!(file.fs.getattr(file.ino).unwrap().size, 8192);
    }

    #[test]
    fn read_miss_then_hit() {
        let (cache, file, dev) = setup(1 << 20, 1 << 20);
        // Put data in the fs directly.
        file.fs.write(file.ino, file.fh, 0, &[9u8; 4096]).unwrap();
        let mode = CacheMode::native();
        let mut buf = [0u8; 4096];
        cache.read(dev, mode, &file, 0, &mut buf).unwrap();
        assert_eq!(buf[0], 9);
        let s1 = cache.stats();
        assert_eq!(s1.misses, 1);
        cache.read(dev, mode, &file, 0, &mut buf).unwrap();
        let s2 = cache.stats();
        assert_eq!(s2.hits, s1.hits + 1);
        assert_eq!(s2.misses, 1);
    }

    /// A cold multi-page read fills its run with one filesystem read: every
    /// page is a slice of that one buffer.
    #[test]
    fn cold_run_is_one_fill_sliced_into_pages() {
        let (cache, file, dev) = setup(1 << 20, 1 << 20);
        file.fs
            .write(file.ino, file.fh, 0, &[4u8; 4 * PAGE_SIZE])
            .unwrap();
        let mut buf = vec![0u8; 3 * PAGE_SIZE];
        let n = cache
            .read(dev, CacheMode::native(), &file, 100, &mut buf)
            .unwrap();
        assert_eq!((n, buf.iter().all(|&b| b == 4)), (3 * PAGE_SIZE, true));
        assert_eq!(cache.stats().misses, 4, "every page of the run is a miss");
        let base = cache.page_ptr(dev, file.ino, 0).unwrap();
        for page in 1..4u64 {
            assert_eq!(
                cache.page_ptr(dev, file.ino, page),
                Some(base + page as usize * PAGE_SIZE)
            );
        }
    }

    /// Over a blob-backed store, which answers one chunk per call, each
    /// page of a cold run is cached as a slice of its own stored chunk: no
    /// byte is copied to fill the cache.
    #[test]
    fn cold_run_over_blob_chunks_is_zero_copy() {
        use cntr_overlay::{blobfs, BlobStore};
        let clock = SimClock::new();
        let store = BlobStore::new();
        let fs = blobfs(DevId(2), clock.clone(), Arc::clone(&store)) as Arc<dyn Filesystem>;
        let file = file_on(&fs, "b");
        let content: Vec<u8> = (0..8 * PAGE_SIZE)
            .map(|i| (i / PAGE_SIZE) as u8 + 1)
            .collect();
        fs.write(file.ino, file.fh, 0, &content).unwrap();
        let cache = PageCache::new(clock, 1 << 20, 1 << 20, 1 << 19, false);
        let dev = DevId(2);
        let mut buf = vec![0u8; content.len()];
        cache
            .read(dev, CacheMode::native(), &file, 0, &mut buf)
            .unwrap();
        assert_eq!(buf, content);
        for page in 0..8usize {
            let chunk = &content[page * PAGE_SIZE..][..PAGE_SIZE];
            let id = store.lookup_chunk(chunk).expect("chunk stored");
            assert_eq!(
                cache.page_ptr(dev, file.ino, page as u64),
                Some(store.chunk_bytes(id).as_ptr() as usize),
                "page {page} must be a slice of its stored chunk"
            );
        }
    }

    /// A resident dirty page inside the range ends the run: the pages
    /// around it are filled from the filesystem, it is served from the
    /// cache and keeps its unflushed bytes.
    #[test]
    fn dirty_page_ends_the_run_and_keeps_its_bytes() {
        let (cache, file, dev) = setup(1 << 20, 1 << 20);
        let mode = CacheMode::native();
        file.fs
            .write(file.ino, file.fh, 0, &[3u8; 8 * PAGE_SIZE])
            .unwrap();
        cache
            .write(dev, mode, &file, 3 * PAGE_SIZE as u64, &[9u8; PAGE_SIZE])
            .unwrap();
        let dirty = cache.page_ptr(dev, file.ino, 3);
        let mut buf = vec![0u8; 8 * PAGE_SIZE];
        cache.read(dev, mode, &file, 0, &mut buf).unwrap();
        for (page, bytes) in buf.chunks(PAGE_SIZE).enumerate() {
            let want = if page == 3 { 9 } else { 3 };
            assert!(bytes.iter().all(|&b| b == want), "page {page}");
        }
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (7, 1));
        assert_eq!(cache.page_ptr(dev, file.ino, 3), dirty, "not refilled");
        assert_eq!(cache.dirty_bytes(), PAGE_SIZE as u64);
        // Two runs, two buffers: 0..3 and 4..8.
        let ptr = |page| cache.page_ptr(dev, file.ino, page).unwrap();
        assert_eq!(ptr(2), ptr(0) + 2 * PAGE_SIZE);
        assert_eq!(ptr(7), ptr(4) + 3 * PAGE_SIZE);
        cache.flush_file(dev, file.ino).unwrap();
        let mut page = [0u8; PAGE_SIZE];
        file.fs
            .read(file.ino, file.fh, 3 * PAGE_SIZE as u64, &mut page)
            .unwrap();
        assert_eq!(page, [9u8; PAGE_SIZE]);
    }

    /// A run reaching past the filesystem's EOF caches only the pages
    /// before it (the last one short); the rest read as zeroes.
    #[test]
    fn run_past_eof_caches_only_pages_before_eof() {
        let (cache, file, dev) = setup(1 << 20, 1 << 20);
        let size = 2 * PAGE_SIZE + 1000;
        file.fs
            .write(file.ino, file.fh, 0, &vec![6u8; size])
            .unwrap();
        let mut buf = vec![1u8; 6 * PAGE_SIZE];
        cache
            .read(dev, CacheMode::native(), &file, 0, &mut buf)
            .unwrap();
        assert!(buf[..size].iter().all(|&b| b == 6));
        assert!(buf[size..].iter().all(|&b| b == 0));
        assert_eq!(cache.resident_pages(), 3);
        assert_eq!(cache.stats().misses, 6);
    }

    #[test]
    fn eviction_under_capacity_pressure() {
        let (cache, file, dev) = setup(32 * PAGE_SIZE as u64, 1 << 30);
        let mode = CacheMode::native();
        file.fs
            .write(file.ino, file.fh, 0, &vec![3u8; 128 * PAGE_SIZE])
            .unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        for page in 0..128u64 {
            cache
                .read(dev, mode, &file, page * PAGE_SIZE as u64, &mut buf)
                .unwrap();
        }
        assert!(cache.resident_pages() <= 32);
        assert!(cache.stats().evictions > 0);
    }

    /// A twice-touched working set survives a one-touch streaming scan of
    /// many times the cache — the reason for the two lists.
    #[test]
    fn streaming_scan_cannot_flush_the_hot_set() {
        let (cache, file, dev) = setup(64 * PAGE_SIZE as u64, 1 << 30);
        let mode = CacheMode::native();
        file.fs
            .write(file.ino, file.fh, 0, &vec![3u8; 512 * PAGE_SIZE])
            .unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        // Touch pages 0..16 twice: the second touch promotes them.
        for _ in 0..2 {
            for page in 0..16u64 {
                cache
                    .read(dev, mode, &file, page * PAGE_SIZE as u64, &mut buf)
                    .unwrap();
            }
        }
        // Stream 512 single-touch pages through a 64-page cache.
        for page in 16..512u64 {
            cache
                .read(dev, mode, &file, page * PAGE_SIZE as u64, &mut buf)
                .unwrap();
        }
        assert!(cache.resident_pages() <= 64);
        // The hot set is still resident: re-reading it is all hits.
        let before = cache.stats();
        for page in 0..16u64 {
            cache
                .read(dev, mode, &file, page * PAGE_SIZE as u64, &mut buf)
                .unwrap();
        }
        let after = cache.stats();
        assert_eq!(
            after.misses, before.misses,
            "hot pages were evicted by the stream"
        );
        assert_eq!(after.hits, before.hits + 16);
    }

    /// The all-dirty regression: a pure-write workload many times the
    /// ceiling must stay bounded (writeback-then-evict) — previously the
    /// clean-only evictor let residency grow without limit.
    #[test]
    fn all_dirty_reclaim_keeps_the_bound() {
        // Huge dirty limit: the throttle never helps; only reclaim's
        // writeback-then-evict path keeps residency bounded.
        let (cache, file, dev) = setup(64 * PAGE_SIZE as u64, 1 << 30);
        let mode = CacheMode::native();
        let payload = vec![0x5Au8; 4 * PAGE_SIZE];
        for i in 0..160u64 {
            cache
                .write(dev, mode, &file, i * payload.len() as u64, &payload)
                .unwrap();
            assert!(
                cache.resident_pages() <= 64,
                "resident {} pages after write {i} — the bound broke",
                cache.resident_pages()
            );
        }
        // Byte-identical readback across the whole 10× range.
        cache.fsync(dev, &file, false).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        for page in [0u64, 1, 317, 639] {
            cache
                .read(dev, mode, &file, page * PAGE_SIZE as u64, &mut buf)
                .unwrap();
            assert!(buf.iter().all(|&b| b == 0x5A), "page {page} corrupted");
        }
    }

    /// A paced cache with a 16-page background threshold and a 64-page
    /// hard limit over `fs`.
    fn paced_cache(fs: &Arc<dyn Filesystem>, clock: SimClock) -> (PageCache, Arc<FileRef>) {
        let p = PAGE_SIZE as u64;
        let cache = PageCache::new(clock, 256 << 20, 64 * p, 16 * p, true);
        (cache, file_on(fs, "f"))
    }

    /// A write that ends above the background threshold, but under the
    /// hard limit, runs one background chunk before it returns: the data
    /// is on the filesystem, with no thread and no waiting.
    #[test]
    fn write_above_background_threshold_runs_one_chunk() {
        let clock = SimClock::new();
        let fs = memfs(DevId(1), clock.clone()) as Arc<dyn Filesystem>;
        let (cache, file) = paced_cache(&fs, clock);
        let mode = CacheMode::native();
        cache
            .write(DevId(1), mode, &file, 0, &vec![0xEEu8; 32 * PAGE_SIZE])
            .unwrap();
        assert!(cache.dirty_bytes() <= 16 * PAGE_SIZE as u64);
        let stats = cache.stats();
        assert_eq!((stats.writeback_wakeups, stats.throttle_stalls), (1, 0));
        assert_eq!(stats.writeback_errors, 0);
        assert_eq!(
            fs_bytes(&file, 32 * PAGE_SIZE),
            vec![0xEEu8; 32 * PAGE_SIZE]
        );
    }

    /// A background chunk that fails is counted, not returned: the write
    /// succeeds, the pages stay dirty, and `fsync` reports the error.
    #[test]
    fn background_chunk_error_reaches_fsync_not_write() {
        let clock = SimClock::new();
        let small = 16 * PAGE_SIZE as u64;
        let fs = memfs_with_capacity(DevId(1), clock.clone(), small) as Arc<dyn Filesystem>;
        let (cache, file) = paced_cache(&fs, clock);
        let data = vec![0x11u8; 32 * PAGE_SIZE];
        let mode = CacheMode::native();
        assert_eq!(cache.write(DevId(1), mode, &file, 0, &data), Ok(data.len()));
        let stats = cache.stats();
        assert_eq!((stats.writeback_wakeups, stats.writeback_errors), (1, 1));
        assert_eq!(cache.dirty_bytes(), data.len() as u64);
        assert_eq!(cache.fsync(DevId(1), &file, false), Err(Errno::ENOSPC));
    }

    #[test]
    fn invalidate_drops_pages_but_preserves_data() {
        let (cache, file, dev) = setup(1 << 20, 1 << 30);
        let mode = CacheMode::native();
        cache.write(dev, mode, &file, 0, b"precious").unwrap();
        cache.invalidate_file(dev, file.ino).unwrap();
        assert_eq!(cache.resident_pages(), 0);
        // Data was flushed, not lost.
        let mut buf = [0u8; 8];
        file.fs.read(file.ino, file.fh, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"precious");
    }

    #[test]
    fn truncate_drops_tail_pages() {
        let (cache, file, dev) = setup(1 << 20, 1 << 30);
        let mode = CacheMode::native();
        cache
            .write(dev, mode, &file, 0, &vec![5u8; 4 * PAGE_SIZE])
            .unwrap();
        cache.truncate_file(dev, file.ino, PAGE_SIZE as u64);
        assert_eq!(cache.resident_pages(), 1);
        assert_eq!(
            cache.effective_size(dev, file.ino, PAGE_SIZE as u64),
            PAGE_SIZE as u64
        );
    }

    /// A seeded schedule of every operation that adds or drops pages, over
    /// two devices and three files in a 16-page cache (so reclaim and the
    /// dirty throttle run throughout): after every step each resident page
    /// is on one LRU list and in its own file's index, and the dirty sets,
    /// flags and total agree.
    #[test]
    fn seeded_schedule_keeps_one_consistent_index() {
        let clock = SimClock::new();
        let fs1 = memfs(DevId(1), clock.clone()) as Arc<dyn Filesystem>;
        let fs2 = memfs(DevId(2), clock.clone()) as Arc<dyn Filesystem>;
        let files = [
            (DevId(1), file_on(&fs1, "a")),
            (DevId(1), file_on(&fs1, "b")),
            (DevId(2), file_on(&fs2, "c")),
        ];
        let p = PAGE_SIZE as u64;
        let cache = PageCache::new(clock, 16 * p, 8 * p, 4 * p, false);
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let mut ops = [0usize; 9];
        for step in 0..3000u64 {
            let (dev, file) = &files[next(3) as usize];
            let (dev, ino) = (*dev, file.ino);
            let off = next(40 * p);
            let len = 1 + next(6 * p);
            let op = next(9) as usize;
            ops[op] += 1;
            match op {
                0 => {
                    let data = vec![step as u8; len as usize];
                    cache
                        .write(dev, CacheMode::native(), file, off, &data)
                        .unwrap();
                }
                1 => {
                    let mut buf = vec![0u8; len as usize];
                    cache
                        .read(dev, CacheMode::native(), file, off, &mut buf)
                        .unwrap();
                }
                2 => {
                    let data = vec![step as u8; len as usize];
                    cache
                        .write(dev, CacheMode::uncached(), file, off, &data)
                        .unwrap();
                }
                3 => {
                    cache.flush_file(dev, ino).unwrap();
                    let attr = SetAttr {
                        size: Some(off),
                        ..SetAttr::default()
                    };
                    file.fs.setattr(ino, &attr, &FsContext::root()).unwrap();
                    cache.truncate_file(dev, ino, off);
                }
                4 => cache.drop_range(dev, ino, off, len),
                5 => cache.invalidate_file(dev, ino).unwrap(),
                6 => cache.drop_devs(&[dev]).unwrap(),
                7 => cache.drop_clean().unwrap(),
                _ => cache.flush_file(dev, ino).unwrap(),
            }
            cache.lru.lock().check();
        }
        assert!(ops.iter().all(|&n| n > 0), "{ops:?}");
        let stats = cache.stats();
        assert!(stats.evictions > 0 && stats.flushed_pages > 0, "{stats:?}");
    }

    /// A file's bytes as the filesystem holds them.
    fn fs_bytes(file: &FileRef, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        let n = file.fs.read(file.ino, file.fh, 0, &mut buf).unwrap();
        buf.truncate(n);
        buf
    }

    #[test]
    fn partial_write_to_an_evicted_page_keeps_its_other_bytes() {
        let (cache, file, dev) = setup(1 << 20, 1 << 30);
        let mode = CacheMode::native();
        cache.write(dev, mode, &file, 0, &[7u8; PAGE_SIZE]).unwrap();
        cache.invalidate_file(dev, file.ino).unwrap();
        cache.write(dev, mode, &file, 100, &[9u8; 10]).unwrap();
        cache.flush_file(dev, file.ino).unwrap();
        let mut want = vec![7u8; PAGE_SIZE];
        want[100..110].fill(9);
        assert_eq!(fs_bytes(&file, 2 * PAGE_SIZE), want);
    }

    #[test]
    fn write_through_caches_only_whole_pages_it_did_not_hold() {
        let (cache, file, dev) = setup(1 << 20, 1 << 30);
        let mode = CacheMode::uncached();
        file.fs
            .write(file.ino, file.fh, 0, &[7u8; PAGE_SIZE])
            .unwrap();
        cache.write(dev, mode, &file, 100, &[9u8; 10]).unwrap();
        assert_eq!(cache.resident_pages(), 0, "a partial page is not cached");
        let mut buf = [0u8; 4];
        cache.read(dev, mode, &file, 96, &mut buf).unwrap();
        assert_eq!(buf, [7, 7, 7, 7]);
        cache.write(dev, mode, &file, 0, &[5u8; PAGE_SIZE]).unwrap();
        assert_eq!(cache.resident_pages(), 1, "a whole page is");
    }

    #[test]
    fn truncate_zeroes_the_last_page_past_the_new_end() {
        let (cache, file, dev) = setup(1 << 20, 1 << 30);
        let mode = CacheMode::native();
        cache.write(dev, mode, &file, 0, &[7u8; PAGE_SIZE]).unwrap();
        cache.truncate_file(dev, file.ino, 100);
        file.fs
            .setattr(file.ino, &SetAttr::truncate(100), &FsContext::root())
            .unwrap();
        // Growing the file again exposes the truncated bytes as zeroes.
        cache.write(dev, mode, &file, 200, &[9u8; 10]).unwrap();
        let mut buf = vec![0u8; 210];
        cache.read(dev, mode, &file, 0, &mut buf).unwrap();
        let mut want = vec![0u8; 210];
        want[..100].fill(7);
        want[200..].fill(9);
        assert_eq!(buf, want);
    }

    #[test]
    fn synthetic_pages_cost_time_but_no_memory() {
        let (cache, file, dev) = setup(1 << 30, 1 << 30);
        let mode = CacheMode {
            synthetic: true,
            ..CacheMode::native()
        };
        cache
            .write(dev, mode, &file, 0, &vec![0u8; 64 * PAGE_SIZE])
            .unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        cache.read(dev, mode, &file, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(cache.resident_pages(), 64);
        let (active, inactive) = cache.residency();
        assert_eq!(active + inactive, 64);
    }

    /// A filesystem call the page cache makes for file data.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum DataCall {
        ReadPage(Ino, u64),
        ReadBytes(Ino, u64, usize),
        WriteBytes(Ino, u64, usize),
    }

    /// memfs, logging the data calls the page cache makes on it.
    struct LoggedFs {
        inner: Arc<dyn Filesystem>,
        calls: Mutex<Vec<DataCall>>,
    }

    impl LoggedFs {
        fn new(clock: &SimClock) -> Arc<LoggedFs> {
            Arc::new(LoggedFs {
                inner: memfs(DevId(1), clock.clone()),
                calls: Mutex::new(Vec::new()),
            })
        }

        fn take(&self) -> Vec<DataCall> {
            std::mem::take(&mut *self.calls.lock())
        }
    }

    impl Filesystem for LoggedFs {
        fn fs_id(&self) -> DevId {
            self.inner.fs_id()
        }
        fn fs_type(&self) -> &'static str {
            self.inner.fs_type()
        }
        fn features(&self) -> cntr_fs::FsFeatures {
            self.inner.features()
        }
        fn lookup(&self, parent: Ino, name: &str) -> SysResult<cntr_types::Stat> {
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
            flags: cntr_types::RenameFlags,
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
            self.calls
                .lock()
                .push(DataCall::ReadBytes(ino, offset, len));
            self.inner.read_bytes(ino, fh, offset, len)
        }
        fn write_bytes(&self, ino: Ino, fh: Fh, offset: u64, data: &[Bytes]) -> SysResult<usize> {
            let len = data.iter().map(Bytes::len).sum();
            self.calls
                .lock()
                .push(DataCall::WriteBytes(ino, offset, len));
            self.inner.write_bytes(ino, fh, offset, data)
        }
        fn read_page(&self, ino: Ino, fh: Fh, offset: u64, buf: &mut [u8]) -> SysResult<usize> {
            self.calls.lock().push(DataCall::ReadPage(ino, offset));
            self.inner.read_page(ino, fh, offset, buf)
        }
        fn fsync(&self, ino: Ino, fh: Fh, datasync: bool) -> SysResult<()> {
            self.inner.fsync(ino, fh, datasync)
        }
        fn readdir(&self, ino: Ino) -> SysResult<Vec<cntr_types::Dirent>> {
            self.inner.readdir(ino)
        }
        fn statfs(&self) -> SysResult<cntr_types::Statfs> {
            self.inner.statfs()
        }
        fn getxattr(&self, ino: Ino, name: &str) -> SysResult<Vec<u8>> {
            self.inner.getxattr(ino, name)
        }
        fn setxattr(
            &self,
            ino: Ino,
            name: &str,
            value: &[u8],
            flags: cntr_fs::XattrFlags,
        ) -> SysResult<()> {
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
            mode: cntr_fs::FallocateMode,
        ) -> SysResult<()> {
            self.inner.fallocate(ino, fh, offset, len, mode)
        }
    }

    /// One write/fsync schedule with partial pages, on a mount in `mode`
    /// over a file of 2.5 pages: the data calls the file system saw. A
    /// write-through run reads each partly written page back, which shows
    /// whether the write cached it.
    fn partial_page_schedule(mode: CacheMode) -> Vec<DataCall> {
        let clock = SimClock::new();
        let fs = LoggedFs::new(&clock);
        let as_fs = Arc::clone(&fs) as Arc<dyn Filesystem>;
        let file = file_on(&as_fs, "f");
        as_fs
            .write(file.ino, file.fh, 0, &vec![5u8; 5 * PAGE_SIZE / 2])
            .unwrap();
        fs.take();
        let cache = PageCache::new(clock, 1 << 20, 1 << 20, 1 << 19, false);
        let dev = DevId(1);
        let p = PAGE_SIZE as u64;
        let writes: [(u64, usize); 5] = [
            (50, 100),               // inside page 0
            (p + 4000, 200),         // the end of page 1, the start of page 2
            (3 * p, PAGE_SIZE),      // a whole page past EOF
            (4 * p + 10, PAGE_SIZE), // two partial pages past EOF
            (2 * p + 100, 50),       // page 2 again
        ];
        for (i, &(offset, len)) in writes.iter().enumerate() {
            cache
                .write(dev, mode, &file, offset, &vec![9u8; len])
                .unwrap();
            if !mode.writeback {
                let mut buf = vec![0u8; 10];
                cache.read(dev, mode, &file, offset, &mut buf).unwrap();
            }
            if i % 2 == 1 {
                cache.fsync(dev, &file, false).unwrap();
            }
        }
        cache.fsync(dev, &file, false).unwrap();
        fs.take()
    }

    /// A synthetic mount takes the product's write path: a partial write
    /// reads the page it does not hold, write-through leaves such a page
    /// uncached, and write-back flushes the same runs. Only the bytes
    /// differ.
    #[test]
    fn synthetic_writes_send_the_same_data_calls() {
        for base in [CacheMode::native(), CacheMode::uncached()] {
            let synthetic = CacheMode {
                synthetic: true,
                ..base
            };
            let calls = partial_page_schedule(base);
            assert!(
                calls.iter().any(|c| matches!(c, DataCall::ReadPage(..))) || !base.writeback,
                "the schedule reads a page before a partial write: {calls:?}"
            );
            assert_eq!(partial_page_schedule(synthetic), calls, "{base:?}");
        }
    }

    /// Write-back picks its victims by dirty-page count and breaks a tie
    /// by `(dev, ino)`, never by the file table's per-process hash order:
    /// eight files with two dirty pages each flush in inode order, through
    /// the throttle and through `sync`, in every fresh cache.
    #[test]
    fn tied_dirty_files_flush_in_inode_order() {
        let run = || {
            let clock = SimClock::new();
            let fs = LoggedFs::new(&clock);
            let as_fs = Arc::clone(&fs) as Arc<dyn Filesystem>;
            let files: Vec<_> = (0..8).map(|i| file_on(&as_fs, &format!("f{i}"))).collect();
            let p = PAGE_SIZE as u64;
            let cache = PageCache::new(clock.clone(), 1 << 20, 15 * p, 7 * p, false);
            let mode = CacheMode::native();
            for f in &files {
                cache
                    .write(DevId(1), mode, f, 0, &vec![1u8; 2 * PAGE_SIZE])
                    .unwrap();
            }
            // The last write crossed the hard limit and drained five files.
            assert_eq!(cache.dirty_bytes(), 6 * p);
            cache.sync_all().unwrap();
            let order: Vec<Ino> = fs
                .take()
                .into_iter()
                .map(|c| match c {
                    DataCall::WriteBytes(ino, 0, len) if len == 2 * PAGE_SIZE => ino,
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            let inos: Vec<Ino> = files.iter().map(|f| f.ino).collect();
            assert_eq!(order, inos);
            (clock.now(), order)
        };
        let first = run();
        for _ in 0..3 {
            assert_eq!(run(), first);
        }
    }
}
