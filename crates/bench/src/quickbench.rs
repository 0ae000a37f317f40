//! The timer behind every quickbench target ([`crate::suites`]).
//!
//! Each target runs one untimed warm-up call, then samples until a time
//! budget or an iteration cap is reached, and prints mean / min
//! wall-clock time per iteration. Two environment variables tune it,
//! read once by [`Timer::from_env`] before any suite runs:
//!
//! - `QUICKBENCH_MS` — per-target sampling budget in milliseconds
//!   (default 200);
//! - `QUICKBENCH_MAX_ITERS` — sample-count cap, at least 1 (default 50).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The timing summary of one finished benchmark target. Collected by
/// [`Timer`] so callers (the `experiments quickbench` subcommand) can
/// emit a machine-readable report alongside the printed table.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchStat {
    /// The target's label, which `BENCH.json` keys it by.
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

/// Times benchmark targets under one sampling rule and collects a
/// [`BenchStat`] for each.
#[derive(Debug)]
pub struct Timer {
    budget: Duration,
    max_iters: u64,
    /// One summary per timed target, in the order they ran.
    pub stats: Vec<BenchStat>,
}

impl Timer {
    /// A timer with the sampling rule `QUICKBENCH_MS` and
    /// `QUICKBENCH_MAX_ITERS` set, or their defaults where unset.
    ///
    /// # Errors
    ///
    /// A value that is not a whole number, or a cap of 0 (a run that
    /// could take no sample).
    pub fn from_env() -> Result<Timer, String> {
        let read = |name: &str, default: u64| match std::env::var_os(name) {
            None => Ok(default),
            Some(v) => v
                .to_str()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("{name} is {v:?}, not a whole number")),
        };
        let budget = Duration::from_millis(read("QUICKBENCH_MS", 200)?);
        let max_iters = read("QUICKBENCH_MAX_ITERS", 50)?;
        if max_iters == 0 {
            return Err("QUICKBENCH_MAX_ITERS is 0, so no target could take a sample".into());
        }
        Ok(Timer {
            budget,
            max_iters,
            stats: Vec::new(),
        })
    }

    /// Times `body` as target `label`: one untimed warm-up call, then
    /// samples until the time budget or the iteration cap is hit (at
    /// least one). Prints the target's line and records its summary.
    pub fn time<O>(&mut self, label: &str, mut body: impl FnMut() -> O) {
        black_box(body());
        let mut samples: Vec<Duration> = Vec::new();
        let start = Instant::now();
        while (samples.len() as u64) < self.max_iters
            && (samples.is_empty() || start.elapsed() < self.budget)
        {
            let t0 = Instant::now();
            black_box(body());
            samples.push(t0.elapsed());
        }
        let total: Duration = samples.iter().sum();
        let mean = total / samples.len() as u32;
        samples.sort();
        let min = samples[0];
        let mid = samples.len() / 2;
        let median = if samples.len().is_multiple_of(2) {
            (samples[mid - 1] + samples[mid]) / 2
        } else {
            samples[mid]
        };
        println!(
            "{label:<44} mean {mean:>10.3?}   min {min:>10.3?}   ({} iters)",
            samples.len()
        );
        self.stats.push(BenchStat {
            label: label.to_string(),
            mean_ns: mean.as_nanos() as f64,
            median_ns: median.as_nanos() as f64,
            min_ns: min.as_nanos() as f64,
            samples: samples.len(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_target_gets_a_capped_sample_set_and_a_stat() {
        let mut t = Timer {
            budget: Duration::from_secs(60),
            max_iters: 3,
            stats: Vec::new(),
        };
        let mut ran = 0;
        t.time("t", || ran += 1);
        // One warm-up call plus exactly the capped samples.
        assert_eq!(ran, 4);
        t.time("u/4", || black_box(4) + 1);
        let labels: Vec<&str> = t.stats.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["t", "u/4"]);
        for s in &t.stats {
            assert_eq!(s.samples, 3);
            assert!(s.min_ns <= s.median_ns);
        }
    }
}
