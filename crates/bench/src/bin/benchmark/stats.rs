//! Order statistics over host-time samples.

/// The `p`-th percentile (0–100) of `samples`, by linear interpolation
/// between the two nearest order statistics. Empty input gives 0.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// First quartile, median and third quartile.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    [25.0, 50.0, 75.0].map(|p| percentile_sorted(&sorted, p))
}

/// The mean of the `k` smallest samples (of all of them when there are
/// fewer). Interference from other work on the host only ever adds
/// time, so the fastest samples are the ones it touched least. Empty
/// input gives 0.
pub fn mean_fastest(samples: &[f64], k: usize) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let fastest = &sorted[..k.min(sorted.len())];
    if fastest.is_empty() {
        0.0
    } else {
        fastest.iter().sum::<f64>() / fastest.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert!((percentile(&xs, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(quartiles(&xs), [2.0, 3.0, 4.0]);
        // Even count: the median is the mean of the middle pair.
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.75, 2.5, 3.25]);
        // Degenerate inputs never panic.
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 250.0), 2.0);
    }

    #[test]
    fn mean_fastest_ignores_slow_outliers() {
        // A burst of interference slows some samples; the fastest five
        // do not see it.
        let xs = [10.0, 30.0, 11.0, 12.0, 40.0, 13.0, 14.0, 50.0, 15.0];
        assert_eq!(mean_fastest(&xs, 5), 12.0);
        assert_eq!(mean_fastest(&xs, 1), 10.0);
        // Fewer samples than asked for: all of them.
        assert_eq!(mean_fastest(&[3.0, 1.0], 5), 2.0);
        assert_eq!(mean_fastest(&[], 5), 0.0);
    }
}
