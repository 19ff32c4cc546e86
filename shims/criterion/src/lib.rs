//! Offline shim for the subset of `criterion` 0.5 this workspace uses:
//! `criterion_group!`/`criterion_main!`, benchmark groups,
//! `BenchmarkId`, and `Bencher::iter`.
//!
//! Measurement is deliberately simple: a short warm-up, then timed
//! batches until ~`sample_size × 5 ms` of wall clock (bounded), after
//! which mean/min/max per-iteration times are printed. There are no
//! statistical comparisons or HTML reports — the goal is a working
//! `cargo bench` that surfaces relative costs, not publication-grade
//! confidence intervals.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter`, like upstream.
    pub fn new<S: Into<String>, P: Display>(function_name: S, parameter: P) -> Self {
        BenchmarkId {
            id: format!("{}/{parameter}", function_name.into()),
        }
    }

    /// Parameter-only id, like upstream.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Accepted by `bench_function`: a string or a [`BenchmarkId`].
pub trait IntoBenchmarkId {
    /// Rendered benchmark name.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// Timer handle passed to the closure of `bench_function`.
pub struct Bencher {
    samples: Vec<Duration>,
    target_samples: usize,
}

impl Bencher {
    /// Times `routine`, first warming up, then collecting samples.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up and per-iteration cost estimate.
        let warmup_start = Instant::now();
        black_box(routine());
        let once = warmup_start.elapsed();
        // Batch so that one sample takes ≥ ~1ms but never over-runs a
        // slow routine (cap total time at ~2s).
        let batch = (Duration::from_millis(1).as_nanos() / once.as_nanos().max(1)).max(1) as usize;
        let budget = Duration::from_secs(2);
        let run_start = Instant::now();
        for _ in 0..self.target_samples {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.samples.push(start.elapsed() / batch as u32);
            if run_start.elapsed() > budget {
                break;
            }
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.3} s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3} ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3} µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos} ns")
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Sets how many timed samples to collect per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark and prints its timing summary.
    pub fn bench_function<I: IntoBenchmarkId, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        let id = id.into_id();
        let mut bencher = Bencher {
            samples: Vec::new(),
            target_samples: self.sample_size,
        };
        f(&mut bencher);
        let samples = &bencher.samples;
        if samples.is_empty() {
            println!("{}/{id}: no samples collected", self.name);
            return self;
        }
        let total: Duration = samples.iter().sum();
        let mean = total / samples.len() as u32;
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        println!(
            "{}/{id}: mean {} (min {}, max {}, {} samples)",
            self.name,
            fmt_duration(mean),
            fmt_duration(min),
            fmt_duration(max),
            samples.len()
        );
        self
    }

    /// Ends the group (printing-only shim: nothing to flush).
    pub fn finish(&mut self) {}
}

/// Top-level benchmark driver, one per `criterion_group!`.
pub struct Criterion {
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 20,
        }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        let name = name.into();
        println!("\n-- bench group: {name} --");
        BenchmarkGroup {
            name,
            sample_size: self.default_sample_size,
        }
    }

    /// Runs a standalone benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        self.benchmark_group("bench").bench_function(id, f);
        self
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` from one or more group runners.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes harness flags (e.g. `--bench`); this
            // shim has no CLI, so arguments are accepted and ignored.
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut criterion = Criterion::default();
        let mut group = criterion.benchmark_group("shim-test");
        group.sample_size(5);
        group.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        group.finish();
    }

    #[test]
    fn benchmark_ids_format_like_upstream() {
        assert_eq!(BenchmarkId::new("f", 32).into_id(), "f/32");
        assert_eq!(BenchmarkId::from_parameter("tiny").into_id(), "tiny");
    }
}
