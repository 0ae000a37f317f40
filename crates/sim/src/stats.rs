//! Measurement instruments shared by every machine model.
//!
//! The paper's central figure of merit is **ALU utilization / idle time**
//! (§1.2), so [`Utilization`] is the workhorse here; [`Histogram`] captures
//! latency distributions.

use std::fmt;

use crate::Cycle;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use ttda_sim::stats::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Tracks what fraction of elapsed time a resource was busy.
///
/// A resource reports busy intervals with [`Utilization::busy`]; the final
/// ratio is busy cycles over total cycles. This is exactly the paper's
/// "ALU utilization" metric.
///
/// # Example
///
/// ```
/// use ttda_sim::{stats::Utilization, Cycle};
/// let mut u = Utilization::new();
/// u.busy(Cycle(30));
/// u.busy(Cycle(20));
/// assert_eq!(u.ratio(Cycle(100)), 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Utilization {
    busy: Cycle,
}

impl Utilization {
    /// Creates a tracker with zero recorded busy time.
    pub fn new() -> Self {
        Utilization { busy: Cycle::ZERO }
    }

    /// Records `d` cycles of busy time.
    #[inline]
    pub fn busy(&mut self, d: Cycle) {
        self.busy = self.busy.saturating_add(d);
    }

    /// Busy fraction over a window of `total` cycles (0 if `total` is 0).
    ///
    /// The ratio can exceed 1.0 when the caller aggregates several
    /// resources into one tracker (e.g. N ALUs against wall-clock time);
    /// divide by N for a per-resource figure.
    pub fn ratio(&self, total: Cycle) -> f64 {
        if total == Cycle::ZERO {
            0.0
        } else {
            self.busy.as_u64() as f64 / total.as_u64() as f64
        }
    }
}

/// A fixed-width-bin histogram of `u64` samples with saturation.
///
/// Values `>= bins * width` land in the final (overflow) bin. Tracks
/// count, sum, min and max exactly regardless of binning.
///
/// # Example
///
/// ```
/// use ttda_sim::stats::Histogram;
/// let mut h = Histogram::new(10, 5); // 10 bins, 5 units wide
/// h.record(3);
/// h.record(7);
/// h.record(1000); // overflow bin
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.max(), Some(1000));
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    bins: Vec<u64>,
    width: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` bins each `width` units wide.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `width == 0`.
    pub fn new(bins: usize, width: u64) -> Self {
        assert!(bins > 0 && width > 0, "histogram needs bins > 0, width > 0");
        Histogram {
            bins: vec![0; bins],
            width,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = ((v / self.width) as usize).min(self.bins.len() - 1);
        self.bins[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Approximate p-th percentile (0–100) from bin midpoints.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (p.clamp(0.0, 100.0) / 100.0 * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                return Some(i as u64 * self.width + self.width / 2);
            }
        }
        Some(self.max)
    }

    /// Read-only view of the bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Folds another histogram into this one (bin-wise), so per-tenant
    /// or per-worker histograms can be aggregated into a global one.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different bin counts or widths
    /// — merging across shapes would silently misplace samples.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.bins.len() == other.bins.len() && self.width == other.width,
            "histogram merge needs identical shape: {}x{} vs {}x{}",
            self.bins.len(),
            self.width,
            other.bins.len(),
            other.width,
        );
        for (b, o) in self.bins.iter_mut().zip(&other.bins) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.to_string(), "10");
    }

    #[test]
    fn utilization_ratio() {
        let mut u = Utilization::new();
        u.busy(Cycle(25));
        assert_eq!(u.ratio(Cycle(100)), 0.25);
        assert_eq!(u.ratio(Cycle::ZERO), 0.0);
    }

    #[test]
    fn histogram_binning_and_stats() {
        let mut h = Histogram::new(4, 10);
        for v in [0, 9, 10, 39, 40, 400] {
            h.record(v);
        }
        assert_eq!(h.bins(), &[2, 1, 0, 3]); // 40 and 400 saturate into last
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(400));
        assert!((h.mean().unwrap() - (498.0 / 6.0)).abs() < 1e-9);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new(2, 1);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.percentile(50.0), None);
    }

    #[test]
    fn histogram_percentile_monotone() {
        let mut h = Histogram::new(100, 1);
        for v in 0..100 {
            h.record(v);
        }
        let p10 = h.percentile(10.0).unwrap();
        let p90 = h.percentile(90.0).unwrap();
        assert!(p10 < p90);
    }

    #[test]
    #[should_panic(expected = "histogram needs")]
    fn histogram_zero_bins_panics() {
        let _ = Histogram::new(0, 1);
    }

    #[test]
    fn histogram_merge_equals_joint_recording() {
        let mut a = Histogram::new(8, 5);
        let mut b = Histogram::new(8, 5);
        let mut joint = Histogram::new(8, 5);
        for v in [0, 3, 17, 200] {
            a.record(v);
            joint.record(v);
        }
        for v in [4, 9, 39] {
            b.record(v);
            joint.record(v);
        }
        a.merge(&b);
        assert_eq!(a.bins(), joint.bins());
        assert_eq!(a.count(), joint.count());
        assert_eq!(a.min(), joint.min());
        assert_eq!(a.max(), joint.max());
        assert_eq!(a.mean(), joint.mean());
        assert_eq!(a.percentile(99.0), joint.percentile(99.0));
        // Merging an empty histogram is a no-op, including min/max.
        let before = a.bins().to_vec();
        a.merge(&Histogram::new(8, 5));
        assert_eq!(a.bins(), &before[..]);
        assert_eq!(a.min(), joint.min());
    }

    #[test]
    #[should_panic(expected = "identical shape")]
    fn histogram_merge_shape_mismatch_panics() {
        let mut a = Histogram::new(8, 5);
        a.merge(&Histogram::new(8, 6));
    }
}
