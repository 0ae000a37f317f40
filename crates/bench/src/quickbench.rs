//! A dependency-free stand-in for the small slice of the Criterion API
//! the quickbench suites ([`crate::suites`]) use.
//!
//! The container this suite builds in has no network access to crates.io,
//! so the real `criterion` crate cannot be fetched. The suites only use
//! `Criterion::bench_function`, benchmark groups, `BenchmarkId` and
//! `Bencher::iter`, so this module implements exactly that surface over
//! `std::time::Instant`: each benchmark runs one warm-up iteration and
//! then samples until a time budget or iteration cap is reached, printing
//! mean / min wall-clock time per iteration.
//!
//! Tuning via environment variables:
//!
//! - `QUICKBENCH_MS` — per-benchmark sampling budget in milliseconds
//!   (default 200);
//! - `QUICKBENCH_MAX_ITERS` — sample-count cap (default 50).

use std::hint::black_box;
use std::time::{Duration, Instant};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A labelled benchmark, mirroring `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Just the parameter, for groups whose name says it all.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

/// Collects timing samples for one benchmark, mirroring
/// `criterion::Bencher`.
pub struct Bencher {
    samples: Vec<Duration>,
    budget: Duration,
    max_iters: usize,
}

impl Bencher {
    fn new() -> Self {
        Bencher {
            samples: Vec::new(),
            budget: Duration::from_millis(env_u64("QUICKBENCH_MS", 200)),
            max_iters: env_u64("QUICKBENCH_MAX_ITERS", 50) as usize,
        }
    }

    /// Times `f` repeatedly: one untimed warm-up, then samples until the
    /// time budget or iteration cap is hit.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f());
        let start = Instant::now();
        while self.samples.len() < self.max_iters
            && (self.samples.is_empty() || start.elapsed() < self.budget)
        {
            let t0 = Instant::now();
            black_box(f());
            self.samples.push(t0.elapsed());
        }
    }
}

/// The timing summary of one finished benchmark target. Collected by
/// [`Criterion`] so callers (the `experiments quickbench` subcommand)
/// can emit a machine-readable report alongside the printed table.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchStat {
    /// The benchmark label (`group/member` for grouped targets).
    pub label: String,
    /// Mean wall-clock time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Median wall-clock time per iteration, nanoseconds.
    pub median_ns: f64,
    /// Fastest observed iteration, nanoseconds.
    pub min_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
}

fn run_one(label: &str, f: &mut dyn FnMut(&mut Bencher)) -> Option<BenchStat> {
    let mut b = Bencher::new();
    f(&mut b);
    if b.samples.is_empty() {
        println!("{label:<44} (no samples)");
        return None;
    }
    let total: Duration = b.samples.iter().sum();
    let mean = total / b.samples.len() as u32;
    let min = b.samples.iter().min().copied().unwrap_or_default();
    let mut sorted = b.samples.clone();
    sorted.sort();
    let mid = sorted.len() / 2;
    let median = if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2
    } else {
        sorted[mid]
    };
    println!(
        "{label:<44} mean {mean:>10.3?}   min {min:>10.3?}   ({} iters)",
        b.samples.len()
    );
    Some(BenchStat {
        label: label.to_string(),
        mean_ns: mean.as_nanos() as f64,
        median_ns: median.as_nanos() as f64,
        min_ns: min.as_nanos() as f64,
        samples: b.samples.len(),
    })
}

/// The top-level driver, mirroring `criterion::Criterion` — plus a
/// result collector the real Criterion keeps on disk instead.
#[derive(Debug, Default)]
pub struct Criterion {
    stats: Vec<BenchStat>,
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if let Some(s) = run_one(&id.into().id, &mut f) {
            self.stats.push(s);
        }
        self
    }

    /// Opens a named group; member benchmarks print as `group/member`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.into(),
        }
    }

    /// Consumes the driver, yielding the collected summaries.
    pub fn into_stats(self) -> Vec<BenchStat> {
        self.stats
    }
}

/// A named set of related benchmarks, mirroring
/// `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark parameterised by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.into().id);
        if let Some(s) = run_one(&label, &mut |b| f(b, input)) {
            self.parent.stats.push(s);
        }
        self
    }

    /// Ends the group (a no-op here; kept for API parity).
    pub fn finish(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_render_like_criterion() {
        assert_eq!(BenchmarkId::from_parameter(16).id, "16");
        assert_eq!(BenchmarkId::from("plain").id, "plain");
    }

    #[test]
    fn bencher_collects_at_least_one_sample() {
        let mut b = Bencher::new();
        b.max_iters = 3;
        b.iter(|| 1 + 1);
        assert!(!b.samples.is_empty());
        assert!(b.samples.len() <= 3);
    }

    #[test]
    fn groups_and_functions_run_their_closures() {
        std::env::set_var("QUICKBENCH_MAX_ITERS", "2");
        let mut c = Criterion::default();
        let mut ran = 0;
        c.bench_function("t", |b| b.iter(|| ran += 1));
        assert!(ran >= 1);
        let mut g = c.benchmark_group("grp");
        let mut ran2 = 0;
        g.bench_with_input(BenchmarkId::from_parameter(4), &4usize, |b, &n| {
            b.iter(|| ran2 += n)
        });
        g.finish();
        assert!(ran2 >= 4);
        // Both targets left a stat record with sane fields.
        let stats = c.into_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].label, "t");
        assert_eq!(stats[1].label, "grp/4");
        for s in &stats {
            assert!(s.samples >= 1 && s.samples <= 2);
            assert!(s.min_ns <= s.median_ns);
        }
        std::env::remove_var("QUICKBENCH_MAX_ITERS");
    }
}
