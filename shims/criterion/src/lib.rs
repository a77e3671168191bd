//! Offline subset of `criterion`: wall-clock microbenchmark harness with
//! the upstream entry points (`criterion_group!`, `criterion_main!`,
//! `Criterion::bench_function`, benchmark groups). Reports mean ns/iter on
//! stdout; no statistics, plots, or baselines.

use std::time::{Duration, Instant};

/// How long each benchmark is measured for.
const TARGET_MEASURE_TIME: Duration = Duration::from_millis(200);

/// Prevents the optimizer from discarding a value.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// The benchmark driver handed to `criterion_group!` targets.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Runs one benchmark and prints its timing.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, f);
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            _criterion: self,
        }
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; this harness sizes runs by time.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&format!("{}/{}", self.name, name), f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Times the closure handed to [`Bencher::iter`].
#[derive(Debug, Default)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Calls `f` repeatedly and records the total elapsed time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // One warmup call, then batches until the time target is hit.
        black_box(f());
        let mut iters = 0u64;
        let mut batch = 1u64;
        let start = Instant::now();
        loop {
            for _ in 0..batch {
                black_box(f());
            }
            iters += batch;
            if start.elapsed() >= TARGET_MEASURE_TIME {
                break;
            }
            batch = batch.saturating_mul(2).min(1 << 20);
        }
        self.iters = iters;
        self.elapsed = start.elapsed();
    }
}

fn run_one<F: FnMut(&mut Bencher)>(name: &str, mut f: F) {
    let mut b = Bencher::default();
    f(&mut b);
    if b.iters == 0 {
        println!("{name:<40} (no iterations)");
        return;
    }
    let ns_per_iter = b.elapsed.as_nanos() as f64 / b.iters as f64;
    println!("{name:<40} {ns_per_iter:>12.1} ns/iter ({} iters)", b.iters);
}

/// Declares a function running each benchmark target in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` for a benchmark binary (`harness = false`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo test --benches` passes harness flags; a bench binary
            // without the libtest harness must tolerate and ignore them.
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_counts() {
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
    }

    #[test]
    fn groups_run() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(10);
        g.bench_function("noop", |b| b.iter(|| black_box(2) * 2));
        g.finish();
    }
}
