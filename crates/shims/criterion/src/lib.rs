//! Offline stand-in for the `criterion` crate.
//!
//! Provides the subset of the criterion API the `staccato-bench` targets
//! use — [`Criterion::benchmark_group`], `sample_size`,
//! `measurement_time`, `bench_function`, `Bencher::iter`, and the
//! [`criterion_group!`]/[`criterion_main!`] macros — backed by a simple
//! median-of-N wall-clock timer printed to stdout. Statistical analysis,
//! plots, and HTML reports are out of scope; swap this crate for the
//! registry `criterion` when a network is available.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Top-level benchmark driver.
pub struct Criterion {
    quick: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo test`/`cargo bench` pass filter/--test args; any arg we
        // don't understand switches to one-iteration smoke mode so CI
        // never burns minutes inside the shim.
        let quick = std::env::args().skip(1).any(|a| a != "--bench");
        Criterion { quick }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("group {name}");
        BenchmarkGroup {
            criterion: self,
            name,
            sample_size: 10,
            measurement_time: Duration::from_secs(3),
        }
    }

    /// Stand-alone benchmark (no group).
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        mut f: F,
    ) -> &mut Self {
        let samples = if self.quick { 1 } else { 10 };
        run_one(&id.into(), samples, Duration::from_secs(3), &mut f);
        self
    }
}

/// A group of benchmarks sharing sampling settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Soft cap on total measurement wall time per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Time one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        mut f: F,
    ) -> &mut Self {
        let samples = if self.criterion.quick {
            1
        } else {
            self.sample_size
        };
        run_one(
            &format!("{}/{}", self.name, id.into()),
            samples,
            self.measurement_time,
            &mut f,
        );
        self
    }

    /// End the group (parity with criterion; nothing to flush here).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(id: &str, samples: usize, budget: Duration, f: &mut F) {
    let mut b = Bencher {
        sample: Duration::ZERO,
    };
    let mut times = Vec::with_capacity(samples);
    let started = Instant::now();
    for _ in 0..samples {
        f(&mut b);
        times.push(b.sample);
        if started.elapsed() > budget {
            break; // honour measurement_time as a soft cap
        }
    }
    times.sort();
    let median = times[times.len() / 2];
    println!("  {id:<40} median {median:?} ({} samples)", times.len());
}

/// Passed to the benchmark closure; times the routine under test.
pub struct Bencher {
    sample: Duration,
}

impl Bencher {
    /// Time one sample of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        let out = routine();
        self.sample = start.elapsed();
        drop(out);
    }
}

/// Mirror of `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Mirror of `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

/// Re-export parity: criterion exposes its own `black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_positive_sample() {
        let mut c = Criterion { quick: true };
        let mut group = c.benchmark_group("shim");
        let mut ran = 0u32;
        group
            .sample_size(3)
            .measurement_time(Duration::from_millis(50))
            .bench_function("noop", |b| b.iter(|| ran += 1));
        group.finish();
        assert!(ran >= 1);
    }
}
