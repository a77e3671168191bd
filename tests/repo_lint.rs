//! Static companion to the runtime lockdep checker (`crates/lockdep`):
//! three textual passes over the workspace sources that reject lock usage
//! the runtime checker could only catch if a test happened to drive the
//! path. Both checkers encode the same discipline — the rank table in
//! `crates/kernel/src/table.rs` — so a violation caught here names the
//! same classes a runtime panic would.
//!
//! 1. No direct `std::sync::{Mutex, RwLock}` outside `shims/` and
//!    `crates/lockdep`: every lock must go through the `parking_lot` shim
//!    so it participates in dependency tracking.
//! 2. No nested subsystem-lock acquisition in `crates/kernel` against the
//!    declared rank order. This is a heuristic line scanner — it tracks
//!    `let`-bound guards, closure-held table access, and `if let`/`match`
//!    scrutinee temporaries (which live to the end of the block in edition
//!    2021) by brace depth. False positives are suppressed via
//!    `lockdep-allow.toml`, where every entry must carry a justification.
//! 3. No `.lock().unwrap()` / `.read().unwrap()` / `.write().unwrap()` in
//!    non-test code: shim guards are infallible, so a guard unwrap means a
//!    std lock snuck in (or poison handling is being skipped).
//!
//! A fourth, observability-flavoured pass checks the metric names passed to
//! `LazyCounter::new` / `LazyGauge::new` / `LazyHistogram::new` and the
//! members of every `obs::counter_scope!` family: names must be
//! workspace-unique, kebab/dot-cased (`subsystem.noun-phrase`), and carry
//! the prefix of the subsystem they register under — `/proc/cntrstats` is
//! sorted by those names, so a malformed one corrupts the report shape.
//!
//! A fifth pass keeps the hashing policy of `cntr_types::hash`: a
//! `HashMap`/`HashSet` keyed by an id type or an integer does not run on
//! std's default SipHash, and an `IdMap`/`IdSet` is never keyed by a name
//! or a path (see [`check_map_hashers`]).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Strips string literals and `//` comments so braces and lock patterns in
/// text never confuse the scanner. (Good enough for this codebase: no brace
/// or quote lives in a char literal.)
fn strip_code(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        if in_string {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

/// True once the scanner reaches the file's `#[cfg(test)]` module (test
/// modules sit at the end of their file in this workspace).
fn is_test_marker(code: &str) -> bool {
    code.trim_start().starts_with("#[cfg(test)]")
}

struct Violation {
    file: String,
    line: usize,
    text: String,
    message: String,
}

impl Violation {
    fn render(&self) -> String {
        format!(
            "{}:{}: {}\n    {}",
            self.file,
            self.line,
            self.message,
            self.text.trim()
        )
    }
}

// ---------------------------------------------------------------------
// lockdep-allow.toml
// ---------------------------------------------------------------------

struct AllowEntry {
    file: String,
    contains: String,
    justification: String,
}

/// Minimal hand parser for the `[[allow]]` entries (the build environment
/// has no toml crate; the format is deliberately flat).
fn load_allowlist(root: &Path) -> Vec<AllowEntry> {
    let path = root.join("lockdep-allow.toml");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Vec::new();
    };
    let mut entries: Vec<AllowEntry> = Vec::new();
    for (no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            entries.push(AllowEntry {
                file: String::new(),
                contains: String::new(),
                justification: String::new(),
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            panic!("lockdep-allow.toml:{}: unparseable line: {line}", no + 1);
        };
        let entry = entries
            .last_mut()
            .expect("key outside an [[allow]] section");
        let value = value.trim().trim_matches('"').to_string();
        match key.trim() {
            "file" => entry.file = value,
            "contains" => entry.contains = value,
            "justification" => entry.justification = value,
            other => panic!("lockdep-allow.toml:{}: unknown key {other}", no + 1),
        }
    }
    for e in &entries {
        assert!(
            !e.file.is_empty() && !e.contains.is_empty(),
            "lockdep-allow.toml: entry for {:?} must set file and contains",
            e.file
        );
        assert!(
            e.justification.len() > 20,
            "lockdep-allow.toml: entry for {} needs a real justification, got {:?}",
            e.file,
            e.justification
        );
    }
    entries
}

fn allowed(allow: &[AllowEntry], file: &str, text: &str) -> bool {
    allow
        .iter()
        .any(|e| file.ends_with(&e.file) && text.contains(&e.contains))
}

// ---------------------------------------------------------------------
// Rule 1: std::sync lock ban
// ---------------------------------------------------------------------

fn check_std_sync_ban(root: &Path, violations: &mut Vec<Violation>) {
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("tests"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .to_string();
        // The lockdep engine itself must not use shim locks (it would
        // instrument its own registry into infinite recursion).
        if rel.starts_with("crates/lockdep") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for (no, raw) in text.lines().enumerate() {
            let code = strip_code(raw);
            let hit = code.contains("std::sync::Mutex")
                || code.contains("std::sync::RwLock")
                || (code.contains("use std::sync::")
                    && (code.contains("Mutex") || code.contains("RwLock")));
            if hit {
                violations.push(Violation {
                    file: rel.clone(),
                    line: no + 1,
                    text: raw.to_string(),
                    message: "direct std::sync lock — use the parking_lot shim so the lock \
                              participates in lockdep"
                        .to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 2: kernel subsystem-lock nesting
// ---------------------------------------------------------------------

/// How an acquisition pattern holds its lock — this decides which lines a
/// guard survives past, so getting it wrong either misses real nestings or
/// flags phantom ones.
#[derive(Clone, Copy, PartialEq)]
enum Acq {
    /// Returns a guard object: held past the line via a `let` binding, or
    /// via an `if let`/`match` scrutinee temporary (edition 2021 keeps
    /// those alive to the end of the block, even when chained).
    Guard,
    /// Closure-holding accessor (`with_proc(pid, |p| ...)`): the lock
    /// lives exactly for the closure body. A `let` or scrutinee binds the
    /// closure's *result*, not the lock, so the only way the lock outlives
    /// the line is a closure body spanning lines.
    Closure,
    /// Locks internally and returns plain data: participates in conflict
    /// checks at the call site but is never held afterwards.
    Internal,
}

/// `(pattern, class, group, kind)` — mirrors `declare_lock_discipline()`
/// in `crates/kernel/src/table.rs`. Group numbers are the declared rank
/// groups: acquiring a lower-or-equal group while holding a higher one is
/// what the runtime checker rejects.
const KERNEL_LOCKS: &[(&str, &str, u32, Acq)] = &[
    ("procs.lock(", "kernel.procs", 0, Acq::Guard),
    ("procs.with(", "kernel.procs", 0, Acq::Closure),
    ("procs.with_mut(", "kernel.procs", 0, Acq::Closure),
    ("with_proc(", "kernel.procs", 0, Acq::Closure),
    ("with_proc_mut(", "kernel.procs", 0, Acq::Closure),
    ("namespaces.read(", "kernel.mounts.registry", 1, Acq::Guard),
    ("namespaces.write(", "kernel.mounts.registry", 1, Acq::Guard),
    ("with_write(", "kernel.mounts.registry", 1, Acq::Closure),
    ("with_all_write(", "kernel.mounts.registry", 1, Acq::Closure),
    ("cgroups.lock(", "kernel.cgroups", 2, Acq::Guard),
    ("hostnames.read(", "kernel.hostnames", 2, Acq::Guard),
    ("hostnames.write(", "kernel.hostnames", 2, Acq::Guard),
    ("socket_nodes.lock(", "kernel.socket_nodes", 2, Acq::Guard),
    ("fanotify.lock(", "kernel.fanotify", 2, Acq::Guard),
    ("ns_refs.", "kernel.ns_refs", 2, Acq::Internal),
    ("counts.lock(", "kernel.ns_refs", 2, Acq::Guard),
    ("conns.lock(", "kernel.fuse_backing", 2, Acq::Guard),
    ("open_files.lock(", "kernel.procfs_open", 2, Acq::Guard),
    ("lru.lock(", "pagecache.lru", 3, Acq::Guard),
];

struct LiveGuard {
    class: &'static str,
    group: u32,
    depth: i32,
    binding: Option<String>,
    line: usize,
}

fn acquisitions(code: &str) -> Vec<(&'static str, &'static str, u32, Acq)> {
    KERNEL_LOCKS
        .iter()
        .filter(|(pat, ..)| code.contains(pat))
        .copied()
        .collect()
}

/// Whether the acquisition call at `pat` in `code` is immediately chained
/// into another call (`.lock().attach(...)`): the guard is then a statement
/// temporary, released at the semicolon — a `let` on such a line binds the
/// chained call's result, not the guard.
fn is_chained(code: &str, pat: &str) -> bool {
    let Some(pos) = code.find(pat) else {
        return false;
    };
    let rest = &code[pos + pat.len()..];
    // Walk to the close of the acquisition call, then look for a `.`.
    let mut depth = if pat.ends_with('(') { 1 } else { 0 };
    let mut chars = rest.chars().peekable();
    while depth > 0 {
        match chars.next() {
            Some('(') => depth += 1,
            Some(')') => depth -= 1,
            Some(_) => {}
            None => return false, // call spans lines; assume not chained
        }
    }
    chars.peek() == Some(&'.')
}

/// Whether the acquisition on this line produces a lock that outlives the
/// line, and under what binding name. The rules depend on the pattern's
/// [`Acq`] kind — see its variants for the reasoning.
fn held_binding(code: &str, pat: &str, kind: Acq) -> Option<Option<String>> {
    match kind {
        Acq::Internal => None,
        Acq::Closure => {
            // Held only while the closure body runs: a body spanning lines
            // (the line leaves a brace open) needs tracking; a one-line
            // closure acquires and releases within the statement.
            (code.contains('|') && code.matches('{').count() > code.matches('}').count())
                .then_some(None)
        }
        Acq::Guard => {
            let trimmed = code.trim_start();
            if trimmed.starts_with("if let") || trimmed.starts_with("while let") {
                return Some(None);
            }
            if trimmed.starts_with("match ") || trimmed.contains("= match ") {
                return Some(None);
            }
            if let Some(rest) = trimmed.strip_prefix("let ") {
                if is_chained(code, pat) {
                    return None;
                }
                let name = rest
                    .trim_start_matches("mut ")
                    .split([' ', ':', '='])
                    .next()
                    .unwrap_or("")
                    .to_string();
                return Some(Some(name));
            }
            None
        }
    }
}

fn check_kernel_nesting(root: &Path, allow: &[AllowEntry], violations: &mut Vec<Violation>) {
    let mut files = Vec::new();
    rust_files(&root.join("crates/kernel/src"), &mut files);
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .to_string();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut depth: i32 = 0;
        let mut guards: Vec<LiveGuard> = Vec::new();
        for (no, raw) in text.lines().enumerate() {
            let code = strip_code(raw);
            if is_test_marker(&code) {
                break; // test modules end the file in this workspace
            }
            // Explicit early release.
            if let Some(rest) = code.trim_start().strip_prefix("drop(") {
                let name = rest.trim_end().trim_end_matches([')', ';']);
                guards.retain(|g| g.binding.as_deref() != Some(name));
            }
            let acquired = acquisitions(&code);
            for &(_, class, group, _) in &acquired {
                for g in &guards {
                    let conflict = if group < g.group {
                        Some("reverse rank order")
                    } else if group == g.group {
                        Some("peer/same-group nesting")
                    } else {
                        None
                    };
                    if let Some(kind) = conflict {
                        if !allowed(allow, &rel, raw) {
                            violations.push(Violation {
                                file: rel.clone(),
                                line: no + 1,
                                text: raw.to_string(),
                                message: format!(
                                    "acquires {class} while {held} is held ({kind}) — \
                                     see the rank table in crates/kernel/src/table.rs; \
                                     if this nesting is sound, add a justified entry to \
                                     lockdep-allow.toml",
                                    held = format_args!("{} (held since line {})", g.class, g.line)
                                ),
                            });
                        }
                    }
                }
            }
            let opens = code.matches('{').count() as i32;
            let closes = code.matches('}').count() as i32;
            for (pat, class, group, kind) in acquired {
                if allowed(allow, &rel, raw) {
                    continue;
                }
                if let Some(binding) = held_binding(&code, pat, kind) {
                    guards.push(LiveGuard {
                        class,
                        group,
                        // A guard taken on a block-opening line lives in
                        // the block it opens.
                        depth: depth + opens.min(1),
                        binding,
                        line: no + 1,
                    });
                }
            }
            depth += opens - closes;
            guards.retain(|g| g.depth <= depth);
        }
    }
}

// ---------------------------------------------------------------------
// Rule 3: guard unwraps
// ---------------------------------------------------------------------

fn check_guard_unwraps(root: &Path, violations: &mut Vec<Violation>) {
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .to_string();
        // Shims and the lockdep engine are the sanctioned homes of raw std
        // locks (rule 1), so their guard handling is their own business.
        if rel.starts_with("crates/lockdep") || rel.contains("/tests/") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for (no, raw) in text.lines().enumerate() {
            let code = strip_code(raw);
            if is_test_marker(&code) {
                break;
            }
            if code.contains(".lock().unwrap()")
                || code.contains(".read().unwrap()")
                || code.contains(".write().unwrap()")
            {
                violations.push(Violation {
                    file: rel.clone(),
                    line: no + 1,
                    text: raw.to_string(),
                    message: "unwrap on a lock guard — shim guards are infallible; a \
                              Result here means a std lock bypassed the shim"
                        .to_string(),
                });
            }
        }
    }
}

#[test]
fn repo_obeys_the_lock_discipline() {
    let root = repo_root();
    let allow = load_allowlist(&root);
    let mut violations = Vec::new();
    check_std_sync_ban(&root, &mut violations);
    check_kernel_nesting(&root, &allow, &mut violations);
    check_guard_unwraps(&root, &mut violations);
    if !violations.is_empty() {
        let mut msg = format!("{} lock-discipline violation(s):\n", violations.len());
        for v in &violations {
            let _ = writeln!(msg, "{}", v.render());
        }
        panic!("{msg}");
    }
}

// ---------------------------------------------------------------------
// Rule 4: observability metric names
// ---------------------------------------------------------------------

/// A statically registered metric: `(file, line, subsystem variant, name)`.
struct MetricDecl {
    file: String,
    line: usize,
    subsystem: String,
    name: String,
}

/// Extracts every `Lazy{Counter,Gauge,Histogram}::new(Subsystem::X, "...")`
/// and every `counter_scope!` member in non-test code. Works on whole-file
/// text because the declarations routinely wrap across lines under rustfmt.
fn metric_decls(root: &Path) -> Vec<MetricDecl> {
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    let mut decls = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .to_string();
        // The obs crate's own sources/tests register scratch names to test
        // the registry machinery; only real subsystems are linted.
        if rel.starts_with("crates/obs") || rel.contains("/tests/") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        // Test modules end their file in this workspace (rule 2 relies on
        // the same convention), so everything after the marker is test code.
        let text = text
            .split("#[cfg(test)]")
            .next()
            .unwrap_or_default()
            .to_string();
        for pat in [
            "LazyCounter::new(",
            "LazyGauge::new(",
            "LazyHistogram::new(",
        ] {
            let mut from = 0;
            while let Some(pos) = text[from..].find(pat) {
                let at = from + pos + pat.len();
                from = at;
                let rest = &text[at..];
                let Some(subsystem) = rest
                    .trim_start()
                    .strip_prefix("Subsystem::")
                    .and_then(|s| s.split([',', ')']).next())
                else {
                    continue; // not a literal-subsystem call site
                };
                let Some(open) = rest.find('"') else { continue };
                let Some(len) = rest[open + 1..].find('"') else {
                    continue;
                };
                decls.push(MetricDecl {
                    file: rel.clone(),
                    line: text[..at].lines().count(),
                    subsystem: subsystem.trim().to_string(),
                    name: rest[open + 1..open + 1 + len].to_string(),
                });
            }
        }
        scope_decls(&rel, &text, &mut decls);
    }
    decls
}

/// The members of each `counter_scope! { ... }` invocation in `text`: the
/// family's `(Subsystem::X)` and every `field: "name"` line of its body.
fn scope_decls(rel: &str, text: &str, decls: &mut Vec<MetricDecl>) {
    const PAT: &str = "counter_scope! {";
    let mut from = 0;
    while let Some(pos) = text[from..].find(PAT) {
        let start = from + pos + PAT.len();
        let first_line = text[..start].lines().count();
        let mut subsystem = None;
        let mut depth = 1;
        for (i, line) in text[start..].lines().enumerate() {
            let code = line.split("//").next().unwrap_or_default();
            if subsystem.is_none() {
                subsystem = code
                    .split_once("(Subsystem::")
                    .and_then(|(_, rest)| rest.split(')').next())
                    .map(str::to_string);
            }
            if let Some((_, lit)) = code.split_once(": \"") {
                decls.push(MetricDecl {
                    file: rel.to_string(),
                    line: first_line + i,
                    subsystem: subsystem.clone().unwrap_or_default(),
                    name: lit.split('"').next().unwrap_or_default().to_string(),
                });
            }
            depth += code.matches('{').count();
            depth -= code.matches('}').count();
            if depth == 0 {
                break;
            }
        }
        from = start;
    }
}

/// `subsystem.noun-phrase[...]`: lowercase alphanumeric segments joined by
/// `.`, dashes only inside a segment.
fn is_kebab_dot_cased(name: &str) -> bool {
    let segment_ok = |s: &str| {
        !s.is_empty()
            && s.split('-').all(|w| {
                !w.is_empty()
                    && w.chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
            })
    };
    name.split('.').count() >= 2 && name.split('.').all(segment_ok)
}

#[test]
fn obs_metric_names_are_unique_and_well_formed() {
    let root = repo_root();
    let decls = metric_decls(&root);
    assert!(
        decls.len() >= 20,
        "metric scanner only found {} declarations — pattern drift?",
        decls.len()
    );
    let prefixes = [
        ("Fuse", "fuse."),
        ("PageCache", "pagecache."),
        ("Overlay", "overlay."),
        ("Engine", "engine."),
        ("Core", "core."),
        ("Lockdep", "lockdep."),
        ("BlockDev", "blockdev."),
    ];
    let mut seen: std::collections::HashMap<&str, &MetricDecl> = std::collections::HashMap::new();
    let mut problems = Vec::new();
    for d in &decls {
        if !is_kebab_dot_cased(&d.name) {
            problems.push(format!(
                "{}:{}: metric {:?} is not kebab/dot-cased",
                d.file, d.line, d.name
            ));
        }
        match prefixes.iter().find(|(v, _)| *v == d.subsystem) {
            Some((_, prefix)) if !d.name.starts_with(prefix) => problems.push(format!(
                "{}:{}: metric {:?} must start with {prefix:?} (its Subsystem::{})",
                d.file, d.line, d.name, d.subsystem
            )),
            None => problems.push(format!(
                "{}:{}: unknown subsystem Subsystem::{} — extend the lint's prefix table",
                d.file, d.line, d.subsystem
            )),
            _ => {}
        }
        if let Some(first) = seen.insert(&d.name, d) {
            problems.push(format!(
                "{}:{}: metric {:?} already registered at {}:{}",
                d.file, d.line, d.name, first.file, first.line
            ));
        }
    }
    assert!(
        problems.is_empty(),
        "{} metric-name violation(s):\n{}",
        problems.len(),
        problems.join("\n")
    );
}

#[test]
fn allowlist_entries_still_match_a_line() {
    // A stale allow entry is a hole waiting for a new violation to hide
    // in: every entry must still match at least one line of its file.
    let root = repo_root();
    for e in load_allowlist(&root) {
        let text = std::fs::read_to_string(root.join(&e.file))
            .unwrap_or_else(|_| panic!("lockdep-allow.toml names missing file {}", e.file));
        assert!(
            text.lines().any(|l| l.contains(&e.contains)),
            "stale lockdep-allow.toml entry: {} no longer contains {:?}",
            e.file,
            e.contains
        );
    }
}

// ---------------------------------------------------------------------
// Rule 5: the hashing policy of id- and name-keyed tables
// ---------------------------------------------------------------------

/// Key types that the kernel hands out from its own counters: ids, and
/// the integers fd, fh and block numbers are.
const ID_KEYS: &[&str] = &[
    "Ino",
    "Pid",
    "DevId",
    "MountId",
    "NamespaceId",
    "Fh",
    "BlobId",
    "Uid",
    "Gid",
    "Fd",
    "u8",
    "u16",
    "u32",
    "u64",
    "usize",
    "i32",
    "i64",
];

/// Key types a user or a tool chooses: names and paths.
const NAME_KEYS: &[&str] = &["String", "str", "Path", "PathBuf", "OsString", "OsStr"];

/// The top-level, comma-separated generic arguments of the type whose
/// `<` sits just before `text` (which starts inside the brackets).
fn generic_args(text: &str) -> Vec<&str> {
    let (mut depth, mut start, mut args) = (0i32, 0, Vec::new());
    for (i, c) in text.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' if depth == 0 => {
                args.push(text[start..i].trim());
                return args;
            }
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                args.push(text[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    args
}

fn mentions(ty: &str, names: &[&str]) -> bool {
    ty.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|word| names.contains(&word))
}

/// Every `HashMap<..>`/`HashSet<..>`/`IdMap<..>`/`IdSet<..>` type in
/// non-test product code: a std map whose key mentions an id and no name
/// must name a hasher (`IdMap`, or a deliberate third argument such as
/// the blob store's `RandomState`), and an `IdMap`/`IdSet` key must not
/// mention a name or a path — its fixed hasher lets whoever picks the keys
/// make them collide. `crates/lockdep` is exempt: it sits below every
/// crate (the `parking_lot` shim depends on it), so it cannot use
/// `cntr-types`.
fn check_map_hashers(root: &Path, violations: &mut Vec<Violation>) {
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("src"), &mut files);
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .to_string();
        if rel.starts_with("crates/lockdep/")
            || path.components().any(|c| {
                matches!(
                    c.as_os_str().to_str(),
                    Some("tests" | "benches" | "examples")
                )
            })
        {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let raw: Vec<&str> = text.lines().collect();
        let mut code = String::new();
        for line in &raw {
            let stripped = strip_code(line);
            if is_test_marker(&stripped) {
                break;
            }
            code.push_str(&stripped);
            code.push('\n');
        }
        for (ty, default_arity, id_map) in [
            ("HashMap<", 2, false),
            ("HashSet<", 1, false),
            ("IdMap<", 2, true),
            ("IdSet<", 1, true),
        ] {
            for (pos, _) in code.match_indices(ty) {
                let before = code[..pos].chars().next_back();
                if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    continue;
                }
                let args = generic_args(&code[pos + ty.len()..]);
                let Some(key) = args.first() else { continue };
                let named = mentions(key, NAME_KEYS);
                let message = if id_map && named {
                    format!("`{ty}..>` keyed by a name or path `{key}`: keep it on `RandomState`")
                } else if !id_map && args.len() == default_arity && !named && mentions(key, ID_KEYS)
                {
                    format!(
                        "`{ty}..>` keyed by `{key}` on the default SipHash: use \
                         `cntr_types::IdMap`/`IdSet`, or name the hasher if the keys \
                         come from outside the kernel"
                    )
                } else {
                    continue;
                };
                let line = code[..pos].matches('\n').count();
                violations.push(Violation {
                    file: rel.clone(),
                    line: line + 1,
                    text: raw[line].to_string(),
                    message,
                });
            }
        }
    }
}

#[test]
fn id_keyed_maps_use_the_id_hasher() {
    let mut violations = Vec::new();
    check_map_hashers(&repo_root(), &mut violations);
    let report: Vec<String> = violations.iter().map(Violation::render).collect();
    assert!(
        report.is_empty(),
        "{} hashing-policy violation(s):\n{}",
        report.len(),
        report.join("\n")
    );
}

#[test]
fn the_hashing_lint_flags_both_directions() {
    let dir = std::env::temp_dir().join(format!("cntr-hash-lint-{}", std::process::id()));
    let src = dir.join("crates/demo/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("lib.rs"),
        "struct S {\n    a: HashMap<Ino, u8>,\n    b: Mutex<HashSet<(DevId, Ino)>>,\n    \
         c: IdMap<String, u8>,\n    d: HashMap<String, u8>,\n    e: IdMap<Pid, u8>,\n    \
         f: HashMap<u64, u8, RandomState>,\n    g: HashMap<(String, u64), u8>,\n}\n\
         #[cfg(test)]\nmod tests {\n    type T = HashMap<Ino, u8>;\n}\n",
    )
    .unwrap();
    let mut violations = Vec::new();
    check_map_hashers(&dir, &mut violations);
    std::fs::remove_dir_all(&dir).unwrap();
    let lines: Vec<usize> = violations.iter().map(|v| v.line).collect();
    assert_eq!(
        lines,
        vec![2, 3, 4],
        "{}",
        violations
            .iter()
            .map(Violation::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
