//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no network access, so the real `criterion`
//! cannot be fetched. This shim implements the API subset used by the
//! workspace's `harness = false` benches — `Criterion::bench_function`,
//! `benchmark_group`, `Bencher::iter`/`iter_batched`, `BatchSize`, and the
//! `criterion_group!`/`criterion_main!` macros — with a simple wall-clock
//! measurement loop. Each benchmark takes a fixed number of samples
//! (`SAMPLE_COUNT`, 10) and prints the median, min and max ns/iter over
//! them. No plots or baselines.

// One of the workspace's two lint-escape sites (the other is the harness
// progress module): timing real benchmark runs is this shim's purpose, so
// the wall-clock ban in clippy.toml does not apply here.
#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark shim times real runs with Instant::now"
)]

use std::time::{Duration, Instant};

/// Samples every benchmark takes.
const SAMPLE_COUNT: usize = 10;

/// Target wall-clock time of one sample; a routine slower than this runs
/// once per sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(20);

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Batch sizing hint for [`Bencher::iter_batched`]; the shim ignores it.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Larger per-iteration input.
    LargeInput,
    /// Input of unpredictable size.
    PerIteration,
}

/// The benchmark driver handed to `criterion_group!` targets.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Chainable no-op kept for `configure_from_args()` call sites.
    #[must_use]
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Runs `f` as a named benchmark and prints its timing.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(name, &mut f);
        self
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.to_string(),
        }
    }
}

/// A named collection of benchmarks; the shim only uses it for prefixing.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Sample-count hint; the shim always takes `SAMPLE_COUNT` samples.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Measurement-time hint; the shim's fixed sample count ignores it.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs `f` as `group/name` and prints its timing.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(&format!("{}/{}", self.name, name), &mut f);
        self
    }

    /// Ends the group (no-op).
    pub fn finish(self) {}
}

/// Passed to benchmark closures; collects the timed samples.
#[derive(Debug, Default)]
pub struct Bencher {
    iters_per_sample: u64,
    /// Mean ns/iter of each sample.
    samples: Vec<f64>,
}

impl Bencher {
    /// Iterations per sample so one sample takes about [`SAMPLE_TARGET`],
    /// given one untimed warm-up call that took `once`.
    fn size_samples(&mut self, once: Duration) {
        let once = once.max(Duration::from_nanos(1));
        self.iters_per_sample =
            (SAMPLE_TARGET.as_nanos() / once.as_nanos()).clamp(1, 10_000) as u64;
    }

    fn record(&mut self, elapsed: Duration) {
        self.samples
            .push(elapsed.as_nanos() as f64 / self.iters_per_sample as f64);
    }

    /// Times repeated calls of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // One untimed warm-up to page code in and size the samples.
        let start = Instant::now();
        black_box(routine());
        self.size_samples(start.elapsed());
        for _ in 0..SAMPLE_COUNT {
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(routine());
            }
            self.record(start.elapsed());
        }
    }

    /// Times `routine` over fresh inputs built by `setup`. Neither `setup`
    /// nor dropping the routine's outputs is timed: a sample's inputs are
    /// built before its clock starts, and its outputs are kept until the
    /// sample is recorded.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let input = setup();
        let start = Instant::now();
        let output = black_box(routine(input));
        self.size_samples(start.elapsed());
        drop(output);
        let n = self.iters_per_sample as usize;
        let mut inputs: Vec<I> = Vec::with_capacity(n);
        let mut outputs: Vec<O> = Vec::with_capacity(n);
        for _ in 0..SAMPLE_COUNT {
            inputs.extend((0..n).map(|_| setup()));
            let start = Instant::now();
            outputs.extend(inputs.drain(..).map(|input| black_box(routine(input))));
            self.record(start.elapsed());
            outputs.clear();
        }
    }
}

/// Runs one benchmark, prints `median/min/max` ns/iter, and returns its
/// per-sample ns/iter, sorted.
fn run_one(name: &str, f: &mut dyn FnMut(&mut Bencher)) -> Vec<f64> {
    let mut b = Bencher::default();
    f(&mut b);
    let mut samples = b.samples;
    samples.sort_by(f64::total_cmp);
    match (samples.first(), samples.last()) {
        (Some(min), Some(max)) => println!(
            "{name:<40} {:>12.0} ns/iter (min {min:.0}, max {max:.0}; {} samples x {} iters)",
            samples[samples.len() / 2],
            samples.len(),
            b.iters_per_sample
        ),
        _ => println!("{name:<40} (not measured)"),
    }
    samples
}

/// Declares a function running each benchmark target in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $($target(&mut c);)+
        }
    };
}

/// Declares `main` for a `harness = false` bench binary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_closure() {
        let mut c = Criterion::default();
        let mut ran = false;
        c.bench_function("shim/self_test", |b| {
            b.iter(|| 1 + 1);
            ran = true;
        });
        assert!(ran);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(10);
        group.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 8], |v| v.len(), BatchSize::SmallInput);
        });
        group.finish();
    }

    /// Outputs are dropped only between samples: while a sample is timed,
    /// each routine call sees the drop count its sample's last `setup`
    /// saw.
    #[test]
    fn batched_outputs_are_not_dropped_while_a_sample_is_timed() {
        use std::cell::Cell;
        struct Counted<'a>(&'a Cell<u64>);
        impl Drop for Counted<'_> {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let drops = Cell::new(0);
        let seen_at_setup = Cell::new(0);
        let calls = Cell::new(0);
        let mut b = Bencher::default();
        b.iter_batched(
            || seen_at_setup.set(drops.get()),
            |()| {
                assert_eq!(drops.get(), seen_at_setup.get(), "dropped mid-sample");
                calls.set(calls.get() + 1);
                Counted(&drops)
            },
            BatchSize::SmallInput,
        );
        assert!(b.iters_per_sample > 1, "a sample must time several calls");
        assert_eq!(drops.get(), calls.get(), "every output is dropped");
    }

    #[test]
    fn takes_exactly_sample_count_samples() {
        let samples = run_one("shim/sample_count", &mut |b| b.iter(|| 1 + 1));
        assert_eq!(samples.len(), SAMPLE_COUNT);
        assert!(samples.windows(2).all(|w| w[0] <= w[1]), "sorted");
        let batched = run_one("shim/batched_count", &mut |b| {
            b.iter_batched(|| 2, |x| x * 2, BatchSize::SmallInput);
        });
        assert_eq!(batched.len(), SAMPLE_COUNT);
    }
}
