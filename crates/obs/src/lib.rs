//! Lock-free observability core for the cntr workspace.
//!
//! Everything in this crate is built from plain atomics — there is **no lock
//! anywhere** (no `std::sync::Mutex`, no `parking_lot` shim). That is a hard
//! requirement, not a style choice:
//!
//! * metric updates happen inside FUSE park checkpoints
//!   (`lockdep::assert_no_locks_held_except`), where taking any lock would
//!   trip the checkpoint or, worse, deadlock against the transport;
//! * the `parking_lot` shim itself reports lock contention, so the metrics
//!   sink must sit *below* the locking layer in the dependency graph.
//!
//! # Model
//!
//! Metrics are `&'static` leaked cells registered once in a fixed-capacity
//! slot array ([`MAX_METRICS`]). Call sites hold [`LazyCounter`] /
//! [`LazyGauge`] / [`LazyHistogram`] statics that resolve to their registered
//! cell on first touch; after that every update is 1–4 relaxed atomic ops.
//! Registration is idempotent by name, so two components naming the same
//! metric share one cell.
//!
//! Event counts a subsystem also reports per instance go through a
//! *counter scope* ([`counter_scope!`], [`KeyedCounterScope`]): one call
//! writes the instance's cell and the family's registered total.
//!
//! [`render`] produces the vmstat-style `name value` report mounted at
//! `/proc/cntrstats`: subsystems appear in rank order ([`SUBSYSTEMS`]),
//! names sorted within a subsystem. Every line is an independent relaxed
//! atomic read one after another, so lines may tear against each other
//! under concurrent updates — the same contract as Linux `/proc/vmstat`.
//!
//! Request tracing (trace ids, per-thread span rings, chrome-trace export)
//! lives in [`trace`].

pub mod trace;

use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicPtr, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Metric families are ranked per subsystem; `/proc/cntrstats` renders them
/// in this order (hot data path first, infrastructure last).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsystem {
    /// FUSE client/transport/server (`fuse.*`).
    Fuse,
    /// Kernel page cache (`pagecache.*`).
    PageCache,
    /// Overlay filesystem (`overlay.*`).
    Overlay,
    /// Container engines (`engine.*`).
    Engine,
    /// The attach plane: event loop, socket proxy, pty (`core.*`).
    Core,
    /// Lock contention, bridged from `crates/lockdep` (`lockdep.*`).
    Lockdep,
    /// Block device I/O (`blockdev.*`).
    BlockDev,
}

/// All subsystems in render (rank) order.
pub const SUBSYSTEMS: [Subsystem; 7] = [
    Subsystem::Fuse,
    Subsystem::PageCache,
    Subsystem::Overlay,
    Subsystem::Engine,
    Subsystem::Core,
    Subsystem::Lockdep,
    Subsystem::BlockDev,
];

impl Subsystem {
    /// The metric-name prefix this subsystem's metrics must carry.
    pub fn prefix(self) -> &'static str {
        match self {
            Subsystem::Fuse => "fuse.",
            Subsystem::PageCache => "pagecache.",
            Subsystem::Overlay => "overlay.",
            Subsystem::Engine => "engine.",
            Subsystem::Core => "core.",
            Subsystem::Lockdep => "lockdep.",
            Subsystem::BlockDev => "blockdev.",
        }
    }
}

// ---------------------------------------------------------------------------
// Metric cells
// ---------------------------------------------------------------------------

/// Monotonic event counter. All operations are relaxed atomics.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A standalone (unregistered) counter — the per-instance cell of a
    /// [`ScopedCounter`] or [`KeyedCounterScope`].
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Signed instantaneous level (queue depth, dirty pages). Relaxed atomics.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count for [`Histogram`]: 4 linear sub-buckets per power of two
/// covering the full `u64` range (values 0..=3 get exact buckets).
pub const HISTOGRAM_BUCKETS: usize = 252;

/// Log-linear histogram: 4 sub-buckets per power of two (≤ ~25% relative
/// quantile error), exact atomic max, relaxed-atomic recording. Intended for
/// latencies in nanoseconds but unit-agnostic.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub const fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the array from a const item.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }

    /// Bucket index for a value: values below 4 map to themselves; above,
    /// the exponent picks a group of 4 and the two bits below the MSB pick
    /// the sub-bucket, so bucket lower bounds are strictly increasing.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v < 4 {
            v as usize
        } else {
            let e = 63 - v.leading_zeros() as usize; // >= 2
            let sub = ((v >> (e - 2)) & 3) as usize;
            (e - 1) * 4 + sub
        }
    }

    /// Inclusive lower bound of bucket `idx` (used as the quantile estimate).
    #[inline]
    pub fn bucket_low(idx: usize) -> u64 {
        if idx < 4 {
            idx as u64
        } else {
            let e = idx / 4 + 1;
            let sub = (idx % 4) as u64;
            (1u64 << e) + (sub << (e - 2))
        }
    }

    /// Record one sample. Four relaxed atomic RMWs; safe anywhere, including
    /// inside FUSE park checkpoints.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Estimate quantile `q` in \[0,1\] as the lower bound of the bucket
    /// containing the q-th sample. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max();
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(b.load(Ordering::Relaxed));
            if cum >= rank {
                // The true max is tracked exactly; never report a bucket
                // bound beyond it.
                return Self::bucket_low(idx).min(self.max());
            }
        }
        self.max()
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// Every `Metric` is individually leaked on the heap at registration time,
// so the histogram's bucket array costing more than a counter wastes no
// per-slot space — and keeping it inline spares the update path a second
// pointer chase.
#[allow(clippy::large_enum_variant)]
enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Metric {
    subsystem: Subsystem,
    name: &'static str,
    cell: Cell,
}

/// Capacity of the static metric registry; registration past this panics
/// (a registration-time programming error, never a hot-path condition).
pub const MAX_METRICS: usize = 1024;

#[allow(clippy::declare_interior_mutable_const)]
const NULL_METRIC: AtomicPtr<Metric> = AtomicPtr::new(std::ptr::null_mut());
/// Filled strictly in index order: a slot is claimed only by a CAS from
/// null, by a registrant that saw every earlier slot already filled, so
/// the live metrics are always a prefix of the array.
static SLOTS: [AtomicPtr<Metric>; MAX_METRICS] = [NULL_METRIC; MAX_METRICS];

fn assert_name(subsystem: Subsystem, name: &str) {
    assert!(
        name.starts_with(subsystem.prefix()),
        "obs: metric `{name}` must start with `{}`",
        subsystem.prefix()
    );
    let kebab_dot = name.split('.').all(|seg| {
        !seg.is_empty()
            && !seg.starts_with('-')
            && !seg.ends_with('-')
            && !seg.contains("--")
            && seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
    });
    assert!(kebab_dot, "obs: metric `{name}` is not kebab/dot-cased");
}

/// Register (or find) a metric cell. Lock-free and idempotent by name: the
/// registrant walks the slots in order, returns an existing cell of the
/// same name, and publishes its own with a CAS into the first empty slot.
/// Two racing registrants of one name meet at that slot; the loser of the
/// CAS finds the winner's cell there and returns it, so both share one
/// cell. The linear scan only runs at registration time, never on the
/// update path.
fn register(subsystem: Subsystem, name: &str, make: impl FnOnce() -> Cell) -> &'static Metric {
    assert_name(subsystem, name);
    let mut make = Some(make);
    let mut ours: *mut Metric = std::ptr::null_mut();
    for slot in &SLOTS {
        let mut p = slot.load(Ordering::Acquire);
        if p.is_null() {
            if ours.is_null() {
                let cell = make.take().expect("built once")();
                ours = Box::into_raw(Box::new(Metric {
                    subsystem,
                    name: Box::leak(name.to_owned().into_boxed_str()),
                    cell,
                }));
            }
            match slot.compare_exchange(p, ours, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return unsafe { &*ours },
                Err(winner) => p = winner,
            }
        }
        let m: &'static Metric = unsafe { &*p };
        if m.name == name {
            if !ours.is_null() {
                // Never published: nobody else can hold it.
                drop(unsafe { Box::from_raw(ours) });
            }
            assert_eq!(
                m.subsystem, subsystem,
                "obs: metric `{name}` registered under two subsystems"
            );
            return m;
        }
    }
    panic!("obs: metric registry full ({MAX_METRICS})");
}

fn iter_metrics() -> impl Iterator<Item = &'static Metric> {
    SLOTS.iter().map_while(|slot| {
        let p = slot.load(Ordering::Acquire);
        (!p.is_null()).then(|| unsafe { &*p })
    })
}

fn find(name: &str) -> Option<&'static Metric> {
    iter_metrics().find(|m| m.name == name)
}

/// Register (or look up) a named counter.
pub fn register_counter(subsystem: Subsystem, name: &str) -> &'static Counter {
    match &register(subsystem, name, || Cell::Counter(Counter::new())).cell {
        Cell::Counter(c) => c,
        _ => panic!("obs: metric `{name}` already registered with a different kind"),
    }
}

/// Register (or look up) a named gauge.
pub fn register_gauge(subsystem: Subsystem, name: &str) -> &'static Gauge {
    match &register(subsystem, name, || Cell::Gauge(Gauge::new())).cell {
        Cell::Gauge(g) => g,
        _ => panic!("obs: metric `{name}` already registered with a different kind"),
    }
}

/// Register (or look up) a named histogram.
pub fn register_histogram(subsystem: Subsystem, name: &str) -> &'static Histogram {
    match &register(subsystem, name, || Cell::Histogram(Histogram::new())).cell {
        Cell::Histogram(h) => h,
        _ => panic!("obs: metric `{name}` already registered with a different kind"),
    }
}

/// Read a registered counter by name (observability tests / assertions).
pub fn counter_value(name: &str) -> Option<u64> {
    match &find(name)?.cell {
        Cell::Counter(c) => Some(c.value()),
        _ => None,
    }
}

/// Read a registered gauge by name.
pub fn gauge_value(name: &str) -> Option<i64> {
    match &find(name)?.cell {
        Cell::Gauge(g) => Some(g.value()),
        _ => None,
    }
}

/// Look up a registered histogram by name.
pub fn histogram(name: &str) -> Option<&'static Histogram> {
    match &find(name)?.cell {
        Cell::Histogram(h) => Some(h),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Lazy call-site handles
// ---------------------------------------------------------------------------

/// A const-constructible counter handle: `static N: LazyCounter =
/// LazyCounter::new(Subsystem::Fuse, "fuse.req.started");`. First touch
/// registers; afterwards updates are one relaxed atomic add.
pub struct LazyCounter {
    subsystem: Subsystem,
    name: &'static str,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    pub const fn new(subsystem: Subsystem, name: &'static str) -> Self {
        LazyCounter {
            subsystem,
            name,
            cell: OnceLock::new(),
        }
    }

    #[inline]
    pub fn get(&self) -> &'static Counter {
        self.cell
            .get_or_init(|| register_counter(self.subsystem, self.name))
    }

    #[inline]
    pub fn inc(&self) {
        self.get().inc();
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.get().add(n);
    }

    #[inline]
    pub fn value(&self) -> u64 {
        self.get().value()
    }
}

/// Const-constructible gauge handle; see [`LazyCounter`].
pub struct LazyGauge {
    subsystem: Subsystem,
    name: &'static str,
    cell: OnceLock<&'static Gauge>,
}

impl LazyGauge {
    pub const fn new(subsystem: Subsystem, name: &'static str) -> Self {
        LazyGauge {
            subsystem,
            name,
            cell: OnceLock::new(),
        }
    }

    #[inline]
    pub fn get(&self) -> &'static Gauge {
        self.cell
            .get_or_init(|| register_gauge(self.subsystem, self.name))
    }

    #[inline]
    pub fn inc(&self) {
        self.get().inc();
    }

    #[inline]
    pub fn dec(&self) {
        self.get().dec();
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.get().add(n);
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.get().set(v);
    }

    #[inline]
    pub fn value(&self) -> i64 {
        self.get().value()
    }
}

/// Const-constructible histogram handle; see [`LazyCounter`].
pub struct LazyHistogram {
    subsystem: Subsystem,
    name: &'static str,
    cell: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    pub const fn new(subsystem: Subsystem, name: &'static str) -> Self {
        LazyHistogram {
            subsystem,
            name,
            cell: OnceLock::new(),
        }
    }

    #[inline]
    pub fn get(&self) -> &'static Histogram {
        self.cell
            .get_or_init(|| register_histogram(self.subsystem, self.name))
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.get().record(v);
    }
}

// ---------------------------------------------------------------------------
// Counter scopes
// ---------------------------------------------------------------------------

/// One instance's copy of a registered counter: [`ScopedCounter::add`]
/// bumps this instance's cell and writes through to the family's
/// machine-wide total. Totals are written through, not summed at render
/// time — summing live scopes would need a live-scope list with safe
/// unlink — so a dropped scope's counts stay in the total, as a monotonic
/// counter's must. Declared in named groups with [`counter_scope!`].
pub struct ScopedCounter {
    cell: Counter,
    total: &'static LazyCounter,
}

impl ScopedCounter {
    pub const fn new(total: &'static LazyCounter) -> Self {
        ScopedCounter {
            cell: Counter::new(),
            total,
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.add(n);
        self.total.add(n);
    }

    /// This instance's count.
    #[inline]
    pub fn value(&self) -> u64 {
        self.cell.value()
    }
}

/// Declares a counter scope: a struct of [`ScopedCounter`] fields, one per
/// member of a counter family, each naming its registered total once.
/// `Default` builds a zeroed scope. An optional second struct declares the
/// scope's snapshot: a `Copy` value with one `pub u64` per member, filled
/// by the generated `snapshot()`.
///
/// ```
/// obs::counter_scope! {
///     struct WidgetCounters(Subsystem::Engine);
///     /// What a widget did.
///     pub struct WidgetStats {
///         /// Spins performed.
///         spins: "engine.widget.spins",
///     }
/// }
/// let (a, b) = (WidgetCounters::default(), WidgetCounters::default());
/// a.spins.add(2);
/// b.spins.inc();
/// assert_eq!(a.snapshot(), WidgetStats { spins: 2 });
/// assert_eq!(obs::counter_value("engine.widget.spins"), Some(3));
/// ```
#[macro_export]
macro_rules! counter_scope {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident(Subsystem::$sub:ident) {
            $( $(#[$fmeta:meta])* $field:ident: $metric:literal ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $vis $field: $crate::ScopedCounter, )*
        }

        impl ::core::default::Default for $name {
            fn default() -> Self {
                $name {
                    $( $field: {
                        static TOTAL: $crate::LazyCounter =
                            $crate::LazyCounter::new($crate::Subsystem::$sub, $metric);
                        $crate::ScopedCounter::new(&TOTAL)
                    }, )*
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident(Subsystem::$sub:ident);
        $(#[$smeta:meta])*
        $svis:vis struct $snap:ident {
            $( $(#[$fmeta:meta])* $field:ident: $metric:literal ),* $(,)?
        }
    ) => {
        $crate::counter_scope! {
            $(#[$meta])*
            $vis struct $name(Subsystem::$sub) { $( $field: $metric, )* }
        }

        $(#[$smeta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $svis struct $snap {
            $( $(#[$fmeta])* pub $field: u64, )*
        }

        impl $name {
            $vis fn snapshot(&self) -> $snap {
                $snap { $( $field: self.$field.value(), )* }
            }
        }
    };
}

/// A counter scope indexed by a run-time key below `N` (an opcode, say):
/// each update writes the instance's cell and the total `total(key)`.
pub struct KeyedCounterScope<K, const N: usize> {
    cells: [Counter; N],
    total: fn(K) -> &'static Counter,
}

impl<K: Copy + Into<usize>, const N: usize> KeyedCounterScope<K, N> {
    pub fn new(total: fn(K) -> &'static Counter) -> Self {
        KeyedCounterScope {
            cells: std::array::from_fn(|_| Counter::new()),
            total,
        }
    }

    #[inline]
    pub fn inc(&self, key: K) {
        self.cells[key.into()].inc();
        (self.total)(key).inc();
    }

    /// This instance's count of every key, indexed by key.
    pub fn values(&self) -> [u64; N] {
        std::array::from_fn(|i| self.cells[i].value())
    }
}

// ---------------------------------------------------------------------------
// Wall clock
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic wall-clock nanoseconds since the process-local obs epoch.
///
/// Deliberately *not* `SimClock`: the sim clock models costs the kernel
/// charges, while obs latencies diagnose where real time went (threaded
/// transport parks, lock contention), which the sim clock cannot see.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Times a region on drop into a histogram: a few nanoseconds of overhead
/// plus one histogram record.
pub struct Timed {
    hist: &'static Histogram,
    start: u64,
}

impl Timed {
    pub fn new(hist: &'static Histogram) -> Self {
        Timed {
            hist,
            start: now_ns(),
        }
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        self.hist.record(now_ns().saturating_sub(self.start));
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// One rendered line of `/proc/cntrstats`.
fn render_metric(out: &mut String, m: &Metric) {
    match &m.cell {
        Cell::Counter(c) => {
            let _ = writeln!(out, "{} {}", m.name, c.value());
        }
        Cell::Gauge(g) => {
            let _ = writeln!(out, "{} {}", m.name, g.value());
        }
        Cell::Histogram(h) => {
            // Five derived lines per histogram, vmstat-style.
            let _ = writeln!(out, "{}.count {}", m.name, h.count());
            let _ = writeln!(out, "{}.p50 {}", m.name, h.quantile(0.50));
            let _ = writeln!(out, "{}.p95 {}", m.name, h.quantile(0.95));
            let _ = writeln!(out, "{}.p99 {}", m.name, h.quantile(0.99));
            let _ = writeln!(out, "{}.max {}", m.name, h.max());
        }
    }
}

/// Render every registered metric as vmstat-style `name value` lines:
/// subsystems in rank order, names sorted within a subsystem. Each value is
/// read on its own, so lines may tear against each other, as in
/// `/proc/vmstat`.
pub fn render() -> String {
    let mut out = String::new();
    for sub in SUBSYSTEMS {
        let mut metrics: Vec<&'static Metric> =
            iter_metrics().filter(|m| m.subsystem == sub).collect();
        metrics.sort_by_key(|m| m.name);
        for m in metrics {
            render_metric(&mut out, m);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotone_and_consistent() {
        // Lower bounds strictly increase and every value lands in the bucket
        // whose range contains it.
        let mut prev = None;
        for idx in 0..HISTOGRAM_BUCKETS {
            let low = Histogram::bucket_low(idx);
            if let Some(p) = prev {
                assert!(low > p, "bucket {idx} low {low} not > {p}");
            }
            assert_eq!(Histogram::bucket_index(low), idx);
            prev = Some(low);
        }
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 100, 1_000, 123_456_789, u64::MAX] {
            let idx = Histogram::bucket_index(v);
            assert!(Histogram::bucket_low(idx) <= v);
            if idx + 1 < HISTOGRAM_BUCKETS {
                assert!(v < Histogram::bucket_low(idx + 1));
            }
        }
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 500_500);
        // Log-linear buckets: estimate is the bucket lower bound, within
        // ~25% below the true quantile.
        let p50 = h.quantile(0.50);
        assert!((375..=500).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((750..=990).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(1.0), 1000); // clamped by exact max
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn registry_idempotent_and_rendered_in_rank_order() {
        static C: LazyCounter = LazyCounter::new(Subsystem::Fuse, "fuse.test.alpha");
        static G: LazyGauge = LazyGauge::new(Subsystem::PageCache, "pagecache.test.depth");
        static H: LazyHistogram = LazyHistogram::new(Subsystem::Fuse, "fuse.test.lat-ns");
        C.add(3);
        G.set(7);
        H.record(42);
        // Re-registering by name returns the same cell.
        assert_eq!(
            register_counter(Subsystem::Fuse, "fuse.test.alpha").value(),
            3
        );
        assert_eq!(counter_value("fuse.test.alpha"), Some(3));
        assert_eq!(gauge_value("pagecache.test.depth"), Some(7));

        let out = render();
        let fuse_pos = out.find("fuse.test.alpha 3").expect("counter line");
        let hist_pos = out.find("fuse.test.lat-ns.count 1").expect("hist line");
        let pc_pos = out.find("pagecache.test.depth 7").expect("gauge line");
        // fuse renders before pagecache; names sorted within fuse.
        assert!(fuse_pos < hist_pos && hist_pos < pc_pos);
    }

    /// Eight threads register one name at the same instant and count
    /// through whatever cell they got: every increment must land in the
    /// one cell the registry reports. Repeated over fresh names, since a
    /// lost race only shows when the registrations truly overlap.
    #[test]
    fn concurrent_registration_and_updates() {
        const THREADS: usize = 8;
        for round in 0..64 {
            let name = format!("engine.test.race-{round}");
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        start.wait();
                        for _ in 0..1000 {
                            register_counter(Subsystem::Engine, &name).inc();
                        }
                    });
                }
            });
            assert_eq!(counter_value(&name), Some(8000), "{name}");
            assert_eq!(iter_metrics().filter(|m| m.name == name).count(), 1);
        }
    }

    counter_scope! {
        struct TestScope(Subsystem::Engine) {
            ticks: "engine.test.scope-ticks",
            tocks: "engine.test.scope-tocks",
        }
    }

    /// Two scopes of one family, one of them dropped: each keeps its own
    /// count, and the family total is the sum of both.
    #[test]
    fn scopes_add_up_to_the_family_total() {
        let kept = TestScope::default();
        {
            let dropped = TestScope::default();
            kept.ticks.add(5);
            dropped.ticks.add(3);
            dropped.tocks.inc();
            assert_eq!((kept.ticks.value(), dropped.ticks.value()), (5, 3));
            assert_eq!((kept.tocks.value(), dropped.tocks.value()), (0, 1));
        }
        kept.ticks.inc();
        assert_eq!(counter_value("engine.test.scope-ticks"), Some(6 + 3));
        assert_eq!(counter_value("engine.test.scope-tocks"), Some(1));
    }

    #[test]
    fn keyed_scopes_count_per_key_and_into_each_total() {
        fn total(key: usize) -> &'static Counter {
            register_counter(Subsystem::Engine, &format!("engine.test.keyed-{key}"))
        }
        let a = KeyedCounterScope::<usize, 4>::new(total);
        let b = KeyedCounterScope::<usize, 4>::new(total);
        a.inc(1);
        a.inc(1);
        b.inc(1);
        b.inc(3);
        assert_eq!(a.values(), [0, 2, 0, 0]);
        assert_eq!(b.values(), [0, 1, 0, 1]);
        assert_eq!(counter_value("engine.test.keyed-1"), Some(3));
        assert_eq!(counter_value("engine.test.keyed-3"), Some(1));
        assert_eq!(counter_value("engine.test.keyed-0"), None);
    }

    #[test]
    #[should_panic(expected = "kebab/dot-cased")]
    fn rejects_bad_case() {
        register_counter(Subsystem::Fuse, "fuse.BadName");
    }

    #[test]
    #[should_panic(expected = "must start with")]
    fn rejects_wrong_prefix() {
        register_counter(Subsystem::Fuse, "pagecache.sneaky");
    }
}
