//! What the benchmark measures with: latency samples, peak memory, and
//! the bench-side span recorder of traced runs.

use crate::rng::Rng;
use std::io::Write;

/// Latency samples in nanoseconds. Keeps every sample up to its capacity,
/// then a uniform reservoir of them (Algorithm R, fixed seed), so memory
/// stays bounded however many operations a run completes.
pub struct Samples {
    kept: Vec<u32>,
    seen: u64,
    rng: Rng,
}

impl Samples {
    pub fn new(capacity: usize) -> Samples {
        // Touch the whole buffer up front: its pages then count in the
        // peak-memory metric the same way on every run.
        let mut kept = vec![u32::MAX; capacity];
        kept.clear();
        Samples {
            kept,
            seen: 0,
            rng: Rng::new(0x5A),
        }
    }

    pub fn record(&mut self, ns: u64) {
        let v = ns.min(u64::from(u32::MAX)) as u32;
        self.seen += 1;
        if self.kept.len() < self.kept.capacity() {
            self.kept.push(v);
        } else {
            let slot = self.rng.below(self.seen);
            if let Some(s) = self.kept.get_mut(slot as usize) {
                *s = v;
            }
        }
    }

    /// Quantiles `qs` (each in `[0, 1]`) in microseconds, nearest rank.
    pub fn quantiles_us(&self, qs: &[f64]) -> Vec<f64> {
        let mut v = self.kept.clone();
        v.sort_unstable();
        qs.iter()
            .map(|q| {
                if v.is_empty() {
                    return 0.0;
                }
                let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
                f64::from(v[rank - 1]) / 1e3
            })
            .collect()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Spans kept for the chrome-trace file; totals keep counting past it.
const KEPT_SPANS: usize = 1 << 18;

/// The total the tracer charges its own bookkeeping to (bench overhead).
const TRACE_COST: &str = "bench.trace";

/// One recorded bench-side span.
struct Span {
    id: u32,
    parent: u32,
    op: u64,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// Count and summed duration of every span with one name.
#[derive(Clone, Copy)]
pub struct Total {
    pub name: &'static str,
    pub count: u64,
    pub ns: u64,
    /// The part of `ns` spent inside op spans (children of an op).
    pub in_op_ns: u64,
}

/// Times every call the benchmark makes into the system, and in traced
/// runs records bench-side spans around those calls and around the
/// bench's own work, each tagged with its op id and parent span.
/// Timestamps share `obs`'s epoch so the export merges with the FUSE
/// `client`/`handler` spans the program records itself.
pub struct Tracer {
    on: bool,
    next_id: u32,
    op: u64,
    op_span: u32,
    /// Time inside the system since the last [`Tracer::take_sys_ns`].
    sys_ns: u64,
    /// Duration of the most recent [`Tracer::sys`] call.
    last_ns: u64,
    totals: Vec<Total>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            next_id: 1,
            op: 0,
            op_span: 0,
            sys_ns: 0,
            last_ns: 0,
            totals: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f`, a call into the system under test. Always timed — these
    /// times, and only these, make up an operation's latency — and
    /// recorded as a span named `name` in traced runs.
    #[inline]
    pub fn sys<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = obs::now_ns();
        let out = f();
        let end = obs::now_ns();
        self.last_ns = end - start;
        self.sys_ns += self.last_ns;
        if self.on {
            self.record(name, self.op_span, start, end);
        }
        out
    }

    /// Runs `f`, the bench's own work (generating inputs, checking
    /// outputs): untimed, and a span named `name` in traced runs.
    #[inline]
    pub fn bench<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = obs::now_ns();
        let out = f();
        let end = obs::now_ns();
        self.record(name, self.op_span, start, end);
        out
    }

    /// Duration of the most recent [`Tracer::sys`] call.
    pub fn last_ns(&self) -> u64 {
        self.last_ns
    }

    /// Time spent inside the system since the previous call.
    pub fn take_sys_ns(&mut self) -> u64 {
        std::mem::take(&mut self.sys_ns)
    }

    /// Opens the span of op `op`; calls until [`Tracer::end_op`] are its
    /// children.
    pub fn begin_op(&mut self, op: u64) {
        if self.on {
            self.op = op;
            self.op_span = self.next_id;
            self.next_id = self.next_id.wrapping_add(1);
        }
    }

    /// Closes the op span opened by [`Tracer::begin_op`].
    pub fn end_op(&mut self, start_ns: u64, end_ns: u64) {
        if self.on {
            let id = self.op_span;
            self.op_span = 0;
            self.push("op", id, 0, start_ns, end_ns);
        }
    }

    /// Records a child span of the current op (or a top-level one), then
    /// charges the recording itself to `bench.trace`, so the tracer's own
    /// cost is attributed rather than left uncovered.
    fn record(&mut self, name: &'static str, parent: u32, start: u64, end: u64) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.push(name, id, parent, start, end);
        let done = obs::now_ns();
        self.add(TRACE_COST, parent != 0, done.saturating_sub(end));
    }

    fn push(&mut self, name: &'static str, id: u32, parent: u32, start: u64, end: u64) {
        let dur = end.saturating_sub(start);
        self.add(name, parent != 0, dur);
        if self.spans.len() < KEPT_SPANS {
            self.spans.push(Span {
                id,
                parent,
                op: self.op,
                name,
                start_ns: start,
                dur_ns: dur,
            });
        }
    }

    fn add(&mut self, name: &'static str, in_op: bool, dur: u64) {
        let in_op = if in_op { dur } else { 0 };
        match self.totals.iter_mut().find(|t| std::ptr::eq(t.name, name)) {
            Some(t) => {
                t.count += 1;
                t.ns += dur;
                t.in_op_ns += in_op;
            }
            None => self.totals.push(Total {
                name,
                count: 1,
                ns: dur,
                in_op_ns: in_op,
            }),
        }
    }

    pub fn total(&self, name: &str) -> Total {
        self.totals
            .iter()
            .find(|t| t.name == name)
            .copied()
            .unwrap_or(Total {
                name: "",
                count: 0,
                ns: 0,
                in_op_ns: 0,
            })
    }

    /// Time inside ops covered by their child spans: the calls into the
    /// system plus the bench's own work.
    pub fn covered_ns(&self) -> u64 {
        self.prefix_ns("")
    }

    /// Time inside ops spent in child spans whose name starts with
    /// `prefix`.
    pub fn prefix_ns(&self, prefix: &str) -> u64 {
        self.totals
            .iter()
            .filter(|t| t.name.starts_with(prefix))
            .map(|t| t.in_op_ns)
            .sum()
    }

    pub fn totals(&self) -> &[Total] {
        &self.totals
    }

    /// Writes the kept spans, merged with the program's own FUSE spans,
    /// as a chrome-trace JSON array (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for s in &self.spans {
            writeln!(
                out,
                "  {{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":2,\"tid\":0,\"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}}},",
                s.name,
                s.start_ns / 1_000,
                s.start_ns % 1_000,
                s.dur_ns / 1_000,
                s.dur_ns % 1_000,
                s.op,
                s.id,
                s.parent
            )?;
        }
        let fuse = obs::trace::chrome_json();
        let body = fuse
            .trim()
            .trim_start_matches('[')
            .trim_end_matches(']')
            .trim();
        if body.is_empty() {
            // Close the array: a final event marks the end of the export.
            writeln!(
                out,
                "  {{\"name\":\"end\",\"ph\":\"i\",\"ts\":{},\"pid\":2,\"tid\":0,\"s\":\"g\"}}",
                obs::now_ns() / 1_000
            )?;
        } else {
            writeln!(out, "{body}")?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut s = Samples::new(1000);
        for v in 1..=100u64 {
            s.record(v * 1000);
        }
        assert_eq!(s.quantiles_us(&[0.5, 0.99, 1.0]), vec![50.0, 99.0, 100.0]);
    }

    #[test]
    fn reservoir_stays_bounded_and_representative() {
        let mut s = Samples::new(1000);
        for v in 0..100_000u64 {
            s.record(v);
        }
        assert_eq!((s.seen, s.kept.len()), (100_000, 1000));
        let p50 = s.quantiles_us(&[0.5])[0] * 1e3;
        assert!((40_000.0..60_000.0).contains(&p50), "{p50}");
    }

    #[test]
    fn spans_nest_under_their_op_and_total_by_name() {
        let mut t = Tracer::new(true);
        t.begin_op(7);
        let x = t.sys("kernel.stat", || 3);
        t.bench("bench.check", || ());
        t.end_op(0, 10);
        assert_eq!(x, 3);
        assert_eq!(t.total("kernel.stat").count, 1);
        assert_eq!(
            t.total("bench.trace").count,
            2,
            "each recorded span charges its cost"
        );
        assert_eq!(t.total("op").ns, 10);
        assert_eq!(t.take_sys_ns(), t.total("kernel.stat").ns);
        assert_eq!(t.take_sys_ns(), 0);
        assert!(t
            .spans
            .iter()
            .filter(|s| s.name != "op")
            .all(|s| s.parent != 0 && s.op == 7));
    }
}
