//! Request tracing: trace ids, fixed-capacity per-thread span rings, and
//! chrome-trace JSON export.
//!
//! Every FUSE request is assigned a process-unique trace id
//! ([`next_trace_id`]). Components record named stage spans
//! (`client` → `transport` → `handler` → `storage`) against the current
//! trace; each span lands in the recording thread's ring buffer using a
//! seqlock protocol — the single writer (the owning thread) bumps a slot's
//! sequence to odd, stores the fields, bumps to even; readers retry slots
//! they observe mid-write. No locks anywhere, so spans can be recorded
//! inside FUSE park checkpoints.
//!
//! Rings are fixed capacity ([`RING_CAPACITY`] spans) and overwrite oldest
//! entries; they exist for "what did the last N requests do", not archival.
//! [`chrome_json`] exports everything currently held as a chrome-trace
//! (`chrome://tracing` / Perfetto) event array.

use std::cell::Cell as StdCell;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use crate::now_ns;

/// Spans retained per recording thread before overwrite.
pub const RING_CAPACITY: usize = 1024;

/// Maximum threads that may record spans; later threads fall back to
/// dropping spans (counted in `dropped_threads`) rather than blocking.
pub const MAX_RINGS: usize = 1024;

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh nonzero trace id.
#[inline]
pub fn next_trace_id() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static CURRENT_TRACE: StdCell<u64> = const { StdCell::new(0) };
}

/// The trace id active on this thread (0 = none). [`Span::start`] records
/// against it, so handler/storage spans attribute to the originating
/// request without changing the `Transport` trait signature.
#[inline]
pub fn current_trace() -> u64 {
    CURRENT_TRACE.with(|c| c.get())
}

/// Set the current trace id, returning the previous one (restore it when
/// the scope ends — see [`TraceScope`]).
#[inline]
pub fn set_current_trace(id: u64) -> u64 {
    CURRENT_TRACE.with(|c| c.replace(id))
}

/// RAII: makes `id` the thread's current trace, restoring the previous id
/// on drop (re-entrant FUSE requests nest correctly).
pub struct TraceScope {
    prev: u64,
}

impl TraceScope {
    pub fn enter(id: u64) -> Self {
        TraceScope {
            prev: set_current_trace(id),
        }
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        set_current_trace(self.prev);
    }
}

// ---------------------------------------------------------------------------
// Span rings (seqlock slots, single writer per ring)
// ---------------------------------------------------------------------------

struct Slot {
    /// Seqlock: odd while the owning thread is writing, even when stable.
    /// `0` means never written.
    seq: AtomicU64,
    trace: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    /// `&'static str` stage name decomposed into (ptr, len) so each half
    /// fits in an atomic; reconstructed unsafely by readers (sound: the
    /// referent is `'static`).
    stage_ptr: AtomicUsize,
    stage_len: AtomicUsize,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
            stage_ptr: AtomicUsize::new(0),
            stage_len: AtomicUsize::new(0),
        }
    }
}

struct Ring {
    /// Dense thread index, used as the chrome-trace `tid`.
    tid: u64,
    /// Monotone write cursor (mod RING_CAPACITY picks the slot).
    cursor: AtomicU64,
    slots: Vec<Slot>,
}

impl Ring {
    /// Single-writer record: only the owning thread calls this.
    fn record(&self, trace: u64, stage: &'static str, start_ns: u64, dur_ns: u64) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % RING_CAPACITY;
        let slot = &self.slots[i];
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq | 1, Ordering::Release); // odd: write in progress
        slot.trace.store(trace, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.stage_ptr
            .store(stage.as_ptr() as usize, Ordering::Relaxed);
        slot.stage_len.store(stage.len(), Ordering::Relaxed);
        slot.seq.store((seq | 1).wrapping_add(1), Ordering::Release); // even: stable
    }

    fn read(&self, i: usize) -> Option<SpanRecord> {
        let slot = &self.slots[i];
        for _ in 0..8 {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                return None; // never written, or mid-write
            }
            let trace = slot.trace.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
            let ptr = slot.stage_ptr.load(Ordering::Relaxed);
            let len = slot.stage_len.load(Ordering::Relaxed);
            let s2 = slot.seq.load(Ordering::Acquire);
            if s1 == s2 {
                // SAFETY: (ptr, len) were stored from a `&'static str` and
                // the seqlock proved no torn read between the two halves.
                let stage = unsafe {
                    std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr as *const u8, len))
                };
                return Some(SpanRecord {
                    trace,
                    stage,
                    start_ns,
                    dur_ns,
                    tid: self.tid,
                });
            }
        }
        None // writer kept lapping us; drop the slot
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const NULL_RING: AtomicPtr<Ring> = AtomicPtr::new(std::ptr::null_mut());
static RINGS: [AtomicPtr<Ring>; MAX_RINGS] = [NULL_RING; MAX_RINGS];
static RING_LEN: AtomicUsize = AtomicUsize::new(0);
static DROPPED_THREADS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MY_RING: StdCell<Option<&'static Ring>> = const { StdCell::new(None) };
}

fn my_ring() -> Option<&'static Ring> {
    MY_RING.with(|r| {
        if let Some(ring) = r.get() {
            return Some(ring);
        }
        let i = RING_LEN.fetch_add(1, Ordering::AcqRel);
        if i >= MAX_RINGS {
            DROPPED_THREADS.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let ring: &'static Ring = Box::leak(Box::new(Ring {
            tid: i as u64,
            cursor: AtomicU64::new(0),
            slots: (0..RING_CAPACITY).map(|_| Slot::new()).collect(),
        }));
        RINGS[i].store(ring as *const Ring as *mut Ring, Ordering::Release);
        r.set(Some(ring));
        Some(ring)
    })
}

/// Threads that could not get a span ring (registry full) and are dropping
/// spans.
pub fn dropped_threads() -> u64 {
    DROPPED_THREADS.load(Ordering::Relaxed)
}

/// A span read back out of a ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    pub trace: u64,
    pub stage: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Dense recording-thread index (chrome-trace `tid`).
    pub tid: u64,
}

/// Record a completed span against `trace` on this thread's ring.
#[inline]
pub fn record_span(trace: u64, stage: &'static str, start_ns: u64, end_ns: u64) {
    if trace == 0 {
        return;
    }
    if let Some(ring) = my_ring() {
        ring.record(trace, stage, start_ns, end_ns.saturating_sub(start_ns));
    }
}

/// RAII span: times from construction to drop and records against the
/// thread's *current* trace (captured at construction).
pub struct Span {
    trace: u64,
    stage: &'static str,
    start_ns: u64,
}

impl Span {
    /// Start a span against the thread's current trace. If no trace is
    /// active this is a no-op shell (one thread-local read).
    #[inline]
    pub fn start(stage: &'static str) -> Self {
        let trace = current_trace();
        Span {
            trace,
            stage,
            start_ns: if trace == 0 { 0 } else { now_ns() },
        }
    }

    /// Start a span against an explicit trace id.
    #[inline]
    pub fn start_for(trace: u64, stage: &'static str) -> Self {
        Span {
            trace,
            stage,
            start_ns: if trace == 0 { 0 } else { now_ns() },
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.trace != 0 {
            record_span(self.trace, self.stage, self.start_ns, now_ns());
        }
    }
}

fn all_spans() -> Vec<SpanRecord> {
    let len = RING_LEN.load(Ordering::Acquire).min(MAX_RINGS);
    let mut out = Vec::new();
    for slot in &RINGS[..len] {
        let p = slot.load(Ordering::Acquire);
        if p.is_null() {
            continue;
        }
        let ring = unsafe { &*p };
        for i in 0..RING_CAPACITY {
            if let Some(rec) = ring.read(i) {
                out.push(rec);
            }
        }
    }
    out.sort_by_key(|r| (r.start_ns, r.tid));
    out
}

/// All retained spans for one trace id, in start order (test helper).
pub fn spans_for(trace: u64) -> Vec<SpanRecord> {
    let mut v: Vec<SpanRecord> = all_spans()
        .into_iter()
        .filter(|r| r.trace == trace)
        .collect();
    v.sort_by_key(|r| (r.start_ns, r.tid));
    v
}

/// Export every retained span as a chrome-trace JSON event array
/// (loadable in `chrome://tracing` or Perfetto). Timestamps are µs since
/// the obs epoch; `pid` is 1; `tid` is the dense recording-thread index;
/// the trace id rides in `args.trace`.
pub fn chrome_json() -> String {
    let spans = all_spans();
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        // Stage names are static identifiers we control (no escaping needed).
        out.push_str(&format!(
            "  {{\"name\":\"{}\",\"cat\":\"cntr\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{},\"args\":{{\"trace\":{}}}}}",
            s.stage,
            s.start_ns / 1_000,
            s.start_ns % 1_000,
            s.dur_ns / 1_000,
            s.dur_ns % 1_000,
            s.tid,
            s.trace,
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert!(a != 0 && b != 0 && a != b);
    }

    #[test]
    fn scope_nests_and_restores() {
        assert_eq!(current_trace(), 0);
        {
            let _outer = TraceScope::enter(10);
            assert_eq!(current_trace(), 10);
            {
                let _inner = TraceScope::enter(20);
                assert_eq!(current_trace(), 20);
            }
            assert_eq!(current_trace(), 10);
        }
        assert_eq!(current_trace(), 0);
    }

    #[test]
    fn spans_recorded_and_read_back() {
        let trace = next_trace_id();
        {
            let _scope = TraceScope::enter(trace);
            let _outer = Span::start("client");
            let _inner = Span::start("handler");
        }
        let spans = spans_for(trace);
        let stages: Vec<&str> = spans.iter().map(|s| s.stage).collect();
        assert!(stages.contains(&"client"), "stages: {stages:?}");
        assert!(stages.contains(&"handler"), "stages: {stages:?}");
        for s in &spans {
            assert_eq!(s.trace, trace);
        }
    }

    #[test]
    fn span_without_current_trace_is_noop() {
        // Only this thread writes its own ring, so its cursor is immune to
        // spans that parallel tests record on theirs.
        let my_cursor =
            || MY_RING.with(|r| r.get().map(|ring| ring.cursor.load(Ordering::Relaxed)));
        assert_eq!(current_trace(), 0);
        let before = my_cursor();
        {
            let _s = Span::start("client");
        }
        assert_eq!(my_cursor(), before);
        assert!(spans_for(0).is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_without_growing() {
        let trace = next_trace_id();
        let _scope = TraceScope::enter(trace);
        for _ in 0..(RING_CAPACITY * 2) {
            record_span(trace, "handler", 1, 2);
        }
        let mine: Vec<_> = spans_for(trace);
        assert!(mine.len() <= RING_CAPACITY);
        assert!(!mine.is_empty());
    }

    #[test]
    fn chrome_json_is_wellformed_array() {
        let trace = next_trace_id();
        record_span(trace, "storage", 1_000, 2_500);
        let json = chrome_json();
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"name\":\"storage\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains(&format!("\"trace\":{trace}")));
    }

    #[test]
    fn cross_thread_spans_visible() {
        let trace = next_trace_id();
        let t = std::thread::spawn(move || {
            record_span(trace, "transport", 5, 9);
        });
        t.join().unwrap();
        record_span(trace, "client", 1, 10);
        let stages: Vec<&str> = spans_for(trace).iter().map(|s| s.stage).collect();
        assert!(stages.contains(&"transport"));
        assert!(stages.contains(&"client"));
    }
}
