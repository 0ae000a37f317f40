//! Property tests for the simulation kernel, driven by the in-tree
//! `check` harness.

use ttda_sim::check;
use ttda_sim::stats::Histogram;
use ttda_sim::SimRng;

#[test]
fn histogram_totals_match_inputs() {
    check::forall("histogram totals match inputs", |rng| {
        let bins = rng.gen_range(1usize..64);
        let width = rng.gen_range(1u64..100);
        let len = rng.gen_range(0usize..200);
        let samples: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..10_000)).collect();

        let mut h = Histogram::new(bins, width);
        for &s in &samples {
            h.record(s);
        }
        assert_eq!(h.count(), samples.len() as u64);
        assert_eq!(h.bins().iter().sum::<u64>(), samples.len() as u64);
        if samples.is_empty() {
            assert!(h.mean().is_none());
        } else {
            let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
            assert!((h.mean().unwrap() - mean).abs() < 1e-6);
            assert_eq!(h.min(), samples.iter().min().copied());
            assert_eq!(h.max(), samples.iter().max().copied());
        }
    });
}

#[test]
fn histogram_percentiles_monotone() {
    check::forall("histogram percentiles monotone", |rng| {
        let len = rng.gen_range(1usize..100);
        let mut h = Histogram::new(32, 8);
        for _ in 0..len {
            h.record(rng.gen_range(0u64..1000));
        }
        let mut last = 0;
        for p in [1.0, 25.0, 50.0, 75.0, 99.0] {
            let v = h.percentile(p).unwrap();
            assert!(v >= last, "p{p} = {v} < previous {last}");
            last = v;
        }
    });
}

#[test]
fn forked_rng_streams_are_reproducible() {
    check::forall("forked rng streams reproducible", |rng| {
        let seed = rng.next_u64();
        let stream = rng.gen_range(0u64..100);
        let mut a = SimRng::seed(seed);
        let mut b = SimRng::seed(seed);
        let mut fa = a.fork(stream);
        let mut fb = b.fork(stream);
        for _ in 0..20 {
            assert_eq!(fa.gen_range(0u64..1_000_000), fb.gen_range(0u64..1_000_000));
        }
    });
}
