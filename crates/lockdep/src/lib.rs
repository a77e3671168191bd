//! Runtime lock-dependency validation, modeled on Linux's lockdep.
//!
//! The kernel keeps its state in subsystem tables, one lock each, governed
//! by a *documented* ordering discipline (`cntr_kernel::table`,
//! "Lock-ordering discipline"). This crate turns that prose into
//! machinery: every `Mutex`/`RwLock` in the workspace (via the
//! `parking_lot` shim) belongs to a **lock class**, each thread keeps a
//! stack of the classes it currently holds, and every acquisition feeds a
//! global *class dependency graph*. Three properties are checked
//! on the spot, deterministically, without needing the bad interleaving
//! to actually deadlock:
//!
//! 1. **Cycle freedom.** Acquiring `B` while holding `A` records the edge
//!    `A → B`. If the graph already proves `B →* A`, the acquisition
//!    would close a cycle — the classic ABBA inversion — and panics with
//!    both acquisition sites, even though *this* run never deadlocked.
//! 2. **Same-class double-lock.** Re-acquiring a class you already hold
//!    is refused: with one lock per table, it self-deadlocks (or, for two
//!    instances of a class, deadlocks against a peer taking them in the
//!    other order).
//! 3. **Declared rank order.** [`ordering`] encodes the documented
//!    subsystem rank table. Acquiring a class from an *earlier* group
//!    while holding one from a *later* group — or nesting two distinct
//!    classes of the *same* group ("subsystem locks never nest") — panics
//!    immediately, before the graph has even seen a conflicting run.
//!
//! Blocking-context checkpoints ([`assert_no_locks_held_except`]) guard
//! points that park the calling thread on another thread's progress (the
//! FUSE transport send/wait path): holding any kernel lock there is the
//! FUSE write-back deadlock class, and becomes an instant panic.
//!
//! The engine is wired in through `shims/parking_lot`, which compiles the
//! instrumentation only under `debug_assertions` or its `lockdep` cargo
//! feature — release builds see plain uninstrumented locks. This crate
//! itself is always functional (it is inert if nobody calls it), so
//! `lockdep::report()` can back a `/proc/lockdep` surface unconditionally.
//!
//! This crate deliberately uses `std::sync` primitives directly: it sits
//! *below* the instrumented `parking_lot` shim and must not recurse into
//! itself. The repo lint (`tests/repo_lint.rs`) exempts it.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::panic::Location;
use std::sync::atomic::{AtomicI32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The acquisition mode, recorded in the held stack and edge labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `Mutex::lock`.
    Mutex,
    /// `RwLock::read`.
    Read,
    /// `RwLock::write`.
    Write,
}

impl fmt::Display for LockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LockKind::Mutex => "lock",
            LockKind::Read => "read",
            LockKind::Write => "write",
        })
    }
}

/// One lock class: every lock constructed with the same name (or at the
/// same construction site, for unnamed locks) shares a class. Leaked for
/// `'static` so the shim can cache a pointer per lock instance.
pub struct LockClass {
    id: u32,
    name: &'static str,
    /// Construction site of the first lock registered in the class.
    site: &'static str,
    /// Declared ordering group (`-1` = undeclared).
    group: AtomicI32,
    acquires: AtomicU64,
    /// Deepest held-stack depth observed at acquisition (incl. self).
    max_depth: AtomicUsize,
    /// Acquisitions that found the lock contended (`try_lock` failed and
    /// the thread had to block). Fed by [`note_contention`].
    contended: AtomicU64,
    /// Total wall-clock nanoseconds spent blocked on contended
    /// acquisitions. Fed by [`note_contention`].
    wait_ns: AtomicU64,
}

impl LockClass {
    /// Class name (auto classes are named after their construction site).
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Records one contended acquisition of `class` that blocked for `wait_ns`
/// wall-clock nanoseconds. Called by the `parking_lot` shim after a failed
/// `try_lock` fast path; two relaxed atomic adds, safe anywhere.
pub fn note_contention(class: &'static LockClass, wait_ns: u64) {
    class.contended.fetch_add(1, Ordering::Relaxed);
    class.wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
}

struct Edge {
    /// "while holding <holder> … acquired <acquiree>" provenance of the
    /// first observation of this edge.
    label: String,
    count: u64,
}

#[derive(Default)]
struct Registry {
    by_name: HashMap<&'static str, &'static LockClass>,
    classes: Vec<&'static LockClass>,
    /// `edges[from][to]` — "to was acquired while from was held".
    edges: HashMap<u32, HashMap<u32, Edge>>,
    /// Ordering declarations that may arrive before the class is
    /// registered.
    pending_group: HashMap<String, i32>,
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    match REGISTRY
        .get_or_init(|| Mutex::new(Registry::default()))
        .lock()
    {
        Ok(g) => g,
        // A lockdep panic (test harness catching a deliberate violation)
        // must not poison the engine for the rest of the process.
        Err(p) => p.into_inner(),
    }
}

struct HeldLock {
    class: &'static LockClass,
    kind: LockKind,
    site: &'static Location<'static>,
}

thread_local! {
    static HELD: RefCell<Vec<HeldLock>> = const { RefCell::new(Vec::new()) };
    /// Edges this thread has already pushed to the global graph — lets the
    /// hot path skip the registry mutex for dependencies seen before.
    static EDGES_SEEN: RefCell<HashSet<(u32, u32)>> = RefCell::new(HashSet::new());
}

/// Registers (or looks up) the class for a lock construction site. Named
/// locks class by name; unnamed locks class by `file:line:column`.
pub fn register(name: Option<&'static str>, loc: &'static Location<'static>) -> &'static LockClass {
    let mut reg = registry();
    if let Some(n) = name {
        if let Some(c) = reg.by_name.get(n) {
            return c;
        }
    }
    let site_string = format!("{}:{}:{}", loc.file(), loc.line(), loc.column());
    if name.is_none() {
        if let Some(c) = reg.by_name.get(site_string.as_str()) {
            return c;
        }
    }
    let site: &'static str = Box::leak(site_string.into_boxed_str());
    let name = name.unwrap_or(site);
    let group = reg.pending_group.remove(name);
    let class: &'static LockClass = Box::leak(Box::new(LockClass {
        id: reg.classes.len() as u32,
        name,
        site,
        group: AtomicI32::new(group.unwrap_or(-1)),
        acquires: AtomicU64::new(0),
        max_depth: AtomicUsize::new(0),
        contended: AtomicU64::new(0),
        wait_ns: AtomicU64::new(0),
    }));
    reg.by_name.insert(name, class);
    reg.classes.push(class);
    class
}

/// Declares the documented rank order: classes in `groups[i]` may only be
/// acquired while holding classes from groups `< i`; two distinct classes
/// of the *same* group must never nest ("subsystem locks never nest").
/// Classes not mentioned anywhere are governed by the dynamic graph only.
/// May be called before or after the first lock of a class is
/// constructed; idempotent; later declarations win.
pub fn ordering(groups: &[&[&'static str]]) {
    let mut reg = registry();
    for (i, group) in groups.iter().enumerate() {
        for name in group.iter() {
            match reg.by_name.get(name) {
                Some(c) => c.group.store(i as i32, Ordering::Relaxed),
                None => {
                    reg.pending_group.insert(name.to_string(), i as i32);
                }
            }
        }
    }
}

fn held_summary(held: &[HeldLock]) -> String {
    held.iter()
        .map(|h| {
            format!(
                "  held: {} ({} at {}, class constructed at {})",
                h.class.name, h.kind, h.site, h.class.site
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Validates and records one acquisition. Called by the `parking_lot` shim
/// *before* blocking on the underlying lock, so a would-deadlock order
/// panics instead of hanging. Panics on any discipline violation.
pub fn acquire(class: &'static LockClass, kind: LockKind, site: &'static Location<'static>) {
    class.acquires.fetch_add(1, Ordering::Relaxed);
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        class.max_depth.fetch_max(held.len() + 1, Ordering::Relaxed);
        for h in held.iter() {
            if std::ptr::eq(h.class, class) {
                double_acquisition(class, kind, site, h, &held);
            } else {
                check_group_order(class, kind, site, h, &held);
                record_edge(h, class, kind, site);
            }
        }
        held.push(HeldLock { class, kind, site });
    });
}

fn double_acquisition(
    class: &'static LockClass,
    kind: LockKind,
    site: &'static Location<'static>,
    prior: &HeldLock,
    held: &[HeldLock],
) -> ! {
    panic!(
        "lockdep: same-class double acquisition of `{}`: {} at {} while the \
         class is already held ({} at {}); this self-deadlocks (or deadlocks \
         against a peer thread) — copy out and release the first guard before \
         taking the lock again\n{}",
        class.name,
        kind,
        site,
        prior.kind,
        prior.site,
        held_summary(held),
    )
}

fn check_group_order(
    class: &'static LockClass,
    kind: LockKind,
    site: &'static Location<'static>,
    holder: &HeldLock,
    held: &[HeldLock],
) {
    let g_new = class.group.load(Ordering::Relaxed);
    let g_held = holder.class.group.load(Ordering::Relaxed);
    if g_new < 0 || g_held < 0 {
        return;
    }
    if g_new < g_held {
        panic!(
            "lockdep: rank-order violation: acquiring `{}` (group {}, {} at {}) \
             while holding `{}` (group {}) — the declared ordering \
             (lockdep::ordering) requires the reverse\n{}",
            class.name,
            g_new,
            kind,
            site,
            holder.class.name,
            g_held,
            held_summary(held),
        );
    }
    if g_new == g_held {
        panic!(
            "lockdep: peer-subsystem nesting: acquiring `{}` ({} at {}) while \
             holding `{}` — both are declared in ordering group {}, and peer \
             subsystem locks must never nest (copy out, release, then acquire)\n{}",
            class.name,
            kind,
            site,
            holder.class.name,
            g_new,
            held_summary(held),
        );
    }
}

/// Records `holder.class → class` in the global graph, panicking if the
/// reverse dependency is already provable (an ABBA cycle).
fn record_edge(
    holder: &HeldLock,
    class: &'static LockClass,
    kind: LockKind,
    site: &'static Location<'static>,
) {
    let key = (holder.class.id, class.id);
    let seen = EDGES_SEEN.with(|s| s.borrow().contains(&key));
    if seen {
        return;
    }
    let mut reg = registry();
    if let Some(edge) = reg.edges.get_mut(&key.0).and_then(|m| m.get_mut(&key.1)) {
        edge.count += 1;
    } else {
        // New dependency: adding holder→class closes a cycle iff the graph
        // already proves class →* holder.
        if let Some(path) = find_path(&reg, class.id, holder.class.id) {
            let chain = describe_path(&reg, &path);
            drop(reg);
            panic!(
                "lockdep: lock-order cycle: acquiring `{}` ({} at {}) while \
                 holding `{}` ({} at {}, class constructed at {}) would create \
                 `{}` → `{}`, but the reverse order was already observed:\n{}\n\
                 (two threads taking these in opposite orders can deadlock)",
                class.name,
                kind,
                site,
                holder.class.name,
                holder.kind,
                holder.site,
                holder.class.site,
                holder.class.name,
                class.name,
                chain,
            );
        }
        let label = format!(
            "`{}` ({} at {}) acquired while holding `{}` ({} at {}) [thread {}]",
            class.name,
            kind,
            site,
            holder.class.name,
            holder.kind,
            holder.site,
            std::thread::current().name().unwrap_or("<unnamed>"),
        );
        reg.edges
            .entry(key.0)
            .or_default()
            .insert(key.1, Edge { label, count: 1 });
    }
    drop(reg);
    EDGES_SEEN.with(|s| {
        s.borrow_mut().insert(key);
    });
}

/// BFS path `from →* to` over the recorded edges.
fn find_path(reg: &Registry, from: u32, to: u32) -> Option<Vec<u32>> {
    let mut parent: HashMap<u32, u32> = HashMap::new();
    let mut queue = VecDeque::from([from]);
    while let Some(node) = queue.pop_front() {
        if node == to {
            let mut path = vec![to];
            while let Some(&p) = parent.get(path.last().unwrap()) {
                path.push(p);
            }
            path.reverse();
            return Some(path);
        }
        if let Some(next) = reg.edges.get(&node) {
            for &n in next.keys() {
                if n != from && !parent.contains_key(&n) {
                    parent.insert(n, node);
                    queue.push_back(n);
                }
            }
        }
    }
    None
}

fn describe_path(reg: &Registry, path: &[u32]) -> String {
    path.windows(2)
        .map(|w| {
            let label = reg
                .edges
                .get(&w[0])
                .and_then(|m| m.get(&w[1]))
                .map(|e| e.label.as_str())
                .unwrap_or("<edge>");
            format!("  {}", label)
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Pops one acquisition. Called from guard `Drop`; tolerates out-of-LIFO
/// release (guards may be dropped in any order) and never panics (it runs
/// during unwinding after a violation).
pub fn release(class: &'static LockClass) {
    // `try_with`: a guard dropped during thread teardown (after TLS
    // destruction) must not abort the process.
    let _ = HELD.try_with(|held| {
        let mut held = held.borrow_mut();
        if let Some(i) = held.iter().rposition(|h| std::ptr::eq(h.class, class)) {
            held.remove(i);
        }
    });
}

/// Blocking-context checkpoint: panics if the calling thread holds any
/// lock whose class name is not in `allowed`. Declared at points that
/// park the thread on another thread's progress (FUSE transport
/// send/wait): holding a kernel lock there reproduces the FUSE write-back
/// deadlock, so it dies deterministically here instead of hanging.
#[track_caller]
pub fn assert_no_locks_held_except(allowed: &[&str]) {
    let here = Location::caller();
    HELD.with(|held| {
        let held = held.borrow();
        let offending: Vec<&HeldLock> = held
            .iter()
            .filter(|h| !allowed.contains(&h.class.name))
            .collect();
        if !offending.is_empty() {
            panic!(
                "lockdep: blocking-context violation at {}: this call parks the \
                 thread on another thread's progress, but {} lock(s) are held — \
                 a worker that re-enters this path while holding them deadlocks \
                 the pool (the FUSE write-back deadlock class)\n{}",
                here,
                offending.len(),
                held_summary(&held),
            );
        }
    });
}

/// Names of the classes the calling thread currently holds (outermost
/// first). Diagnostic helper for tests.
pub fn held_classes() -> Vec<&'static str> {
    HELD.with(|held| held.borrow().iter().map(|h| h.class.name).collect())
}

/// One class's row in [`Report`].
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// Class name.
    pub name: &'static str,
    /// Construction site of the first instance.
    pub site: &'static str,
    /// Declared ordering group, if any.
    pub group: Option<u32>,
    /// Total acquisitions.
    pub acquires: u64,
    /// Deepest held-stack depth observed at acquisition (incl. self).
    pub max_depth: usize,
    /// Acquisitions that had to block (contended).
    pub contended: u64,
    /// Total nanoseconds spent blocked on contended acquisitions.
    pub wait_ns: u64,
}

/// One observed dependency in [`Report`].
#[derive(Debug, Clone)]
pub struct EdgeReport {
    /// Class held at the time.
    pub from: &'static str,
    /// Class acquired under it.
    pub to: &'static str,
    /// Observation count.
    pub count: u64,
    /// Provenance of the first observation.
    pub label: String,
}

/// Snapshot of the engine: every class and every observed dependency.
/// Rendered by `/proc/lockdep` and recorded as a CI artifact so graph
/// growth is reviewable per PR.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All registered classes.
    pub classes: Vec<ClassReport>,
    /// All observed dependencies.
    pub edges: Vec<EdgeReport>,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lock classes: {}  dependency edges: {}",
            self.classes.len(),
            self.edges.len()
        )?;
        writeln!(
            f,
            "--- classes (name group acquires max-depth contended wait-ns site)"
        )?;
        for c in &self.classes {
            writeln!(
                f,
                "{} {} {} {} {} {} {}",
                c.name,
                c.group.map(|g| g.to_string()).unwrap_or_else(|| "-".into()),
                c.acquires,
                c.max_depth,
                c.contended,
                c.wait_ns,
                c.site
            )?;
        }
        writeln!(f, "--- edges (held -> acquired, count, first observation)")?;
        for e in &self.edges {
            writeln!(f, "{} -> {} x{}: {}", e.from, e.to, e.count, e.label)?;
        }
        Ok(())
    }
}

/// Takes a snapshot of every class and observed edge.
pub fn report() -> Report {
    let reg = registry();
    let classes = reg
        .classes
        .iter()
        .map(|c| ClassReport {
            name: c.name,
            site: c.site,
            group: u32::try_from(c.group.load(Ordering::Relaxed)).ok(),
            acquires: c.acquires.load(Ordering::Relaxed),
            max_depth: c.max_depth.load(Ordering::Relaxed),
            contended: c.contended.load(Ordering::Relaxed),
            wait_ns: c.wait_ns.load(Ordering::Relaxed),
        })
        .collect();
    let mut edges: Vec<EdgeReport> = reg
        .edges
        .iter()
        .flat_map(|(&from, tos)| {
            let classes = &reg.classes;
            tos.iter().map(move |(&to, edge)| EdgeReport {
                from: classes[from as usize].name,
                to: classes[to as usize].name,
                count: edge.count,
                label: edge.label.clone(),
            })
        })
        .collect();
    edges.sort_by(|a, b| (a.from, a.to).cmp(&(b.from, b.to)));
    Report { classes, edges }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[track_caller]
    fn loc() -> &'static Location<'static> {
        Location::caller()
    }

    #[test]
    fn auto_class_dedups_by_site_and_name() {
        let l = loc();
        let a = register(None, l);
        let b = register(None, l);
        assert!(std::ptr::eq(a, b));
        let named = register(Some("test.unit.named"), loc());
        assert_eq!(named.name(), "test.unit.named");
        assert!(!std::ptr::eq(a, named));
    }

    #[test]
    fn edges_and_report_roundtrip() {
        let a = register(Some("test.unit.edge_a"), loc());
        let b = register(Some("test.unit.edge_b"), loc());
        acquire(a, LockKind::Mutex, loc());
        acquire(b, LockKind::Mutex, loc());
        release(b);
        release(a);
        let rep = report();
        assert!(rep
            .edges
            .iter()
            .any(|e| e.from == "test.unit.edge_a" && e.to == "test.unit.edge_b"));
        let row = rep
            .classes
            .iter()
            .find(|c| c.name == "test.unit.edge_b")
            .unwrap();
        assert_eq!(row.max_depth, 2);
        assert!(row.acquires >= 1);
        assert!(!format!("{rep}").is_empty());
    }

    #[test]
    fn out_of_lifo_release_is_tolerated() {
        let a = register(Some("test.unit.lifo_a"), loc());
        let b = register(Some("test.unit.lifo_b"), loc());
        acquire(a, LockKind::Mutex, loc());
        acquire(b, LockKind::Mutex, loc());
        release(a); // the first guard taken is dropped first
        release(b);
        assert!(held_classes().is_empty());
    }

    #[test]
    fn contention_accumulates_into_report() {
        let c = register(Some("test.unit.contended"), loc());
        note_contention(c, 1_500);
        note_contention(c, 500);
        let row = report()
            .classes
            .into_iter()
            .find(|r| r.name == "test.unit.contended")
            .unwrap();
        assert_eq!(row.contended, 2);
        assert_eq!(row.wait_ns, 2_000);
    }

    #[test]
    fn pending_declarations_apply_at_registration() {
        ordering(&[&["test.unit.pending_first"], &["test.unit.pending"]]);
        let c = register(Some("test.unit.pending"), loc());
        assert_eq!(c.group.load(Ordering::Relaxed), 1);
        let row = report()
            .classes
            .into_iter()
            .find(|r| r.name == "test.unit.pending")
            .unwrap();
        assert_eq!(row.group, Some(1));
    }
}
