//! Reproducible randomness.
//!
//! Self-contained: the generator is xoshiro256** seeded through
//! SplitMix64, so the suite has no external randomness dependency and
//! every experiment table is bit-reproducible across toolchains.

/// A seeded random-number source for simulations.
///
/// Every stochastic choice in the suite (workload arrival jitter, random
/// traffic patterns, fault injection) draws from a `SimRng` that was
/// explicitly seeded, so experiment tables are bit-reproducible.
///
/// # Example
///
/// ```
/// use ttda_sim::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.gen_range(0..1000), b.gen_range(0..1000));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child stream, e.g. one per processing
    /// element, so adding a component never perturbs another's stream.
    pub fn fork(&mut self, stream: u64) -> Self {
        let base = self.next_u64();
        SimRng::seed(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next raw 64-bit draw (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw below `bound` (Lemire-style widening multiply with
    /// rejection, so the draw is exactly uniform).
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Rejection zone keeps (x * bound) >> 64 unbiased.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform draw from a half-open or inclusive integer range.
    pub fn gen_range<T: UniformInt, R: IntRange<T>>(&mut self, range: R) -> T {
        let (lo, hi_inclusive) = range.bounds();
        let lo_w = lo.to_u64();
        let hi_w = hi_inclusive.to_u64();
        debug_assert!(hi_w >= lo_w, "empty range in gen_range");
        let span = hi_w.wrapping_sub(lo_w);
        let off = if span == u64::MAX {
            self.next_u64()
        } else {
            self.below(span + 1)
        };
        T::from_u64(lo_w.wrapping_add(off))
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 random bits over 2^53: the standard dyadic-uniform construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let i = self.below(slice.len() as u64) as usize;
            Some(&slice[i])
        }
    }
}

/// A Zipf(s) sampler over ranks `0..n`: rank `k` is drawn with
/// probability proportional to `1 / (k + 1)^s`.
///
/// This is the suite's hot-key generator: with `s` around 1, a few
/// low-numbered ranks absorb most of the draws while the tail stays
/// reachable — exactly the skew that concentrates I-structure traffic
/// (and deferral chains) onto a handful of addresses. The inverse-CDF
/// table is precomputed at construction so sampling is one uniform draw
/// plus a binary search, and — like everything drawn from [`SimRng`] —
/// the stream is bit-reproducible per seed.
///
/// # Example
///
/// ```
/// use ttda_sim::{SimRng, Zipf};
///
/// let z = Zipf::new(64, 1.1);
/// let mut rng = SimRng::seed(7);
/// let hot = (0..1000).filter(|_| z.sample(&mut rng) == 0).count();
/// assert!(hot > 100, "rank 0 must dominate, got {hot}/1000");
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    /// `cdf[k]` = P(rank <= k); the last entry is exactly 1.0.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `s` (`s = 0` is
    /// uniform; larger `s` is more skewed).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s.is_finite(), "Zipf exponent must be finite");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        // Guard the top against rounding so sample() can never fall off
        // the end of the table.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draws one rank in `0..n`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Integer types drawable by [`SimRng::gen_range`].
///
/// Values round-trip through a `u64` in sign-offset encoding so one
/// unbiased-draw implementation covers signed and unsigned widths.
pub trait UniformInt: Copy {
    /// Maps into the order-preserving `u64` encoding.
    fn to_u64(self) -> u64;
    /// Maps back from the encoding.
    fn from_u64(v: u64) -> Self;
}

macro_rules! uniform_unsigned {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

macro_rules! uniform_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl UniformInt for $t {
            fn to_u64(self) -> u64 {
                // Sign-offset: flips the sign bit so ordering is preserved.
                (self as $u ^ (1 << (<$t>::BITS - 1))) as u64
            }
            fn from_u64(v: u64) -> Self {
                (v as $u ^ (1 << (<$t>::BITS - 1))) as $t
            }
        }
    )*};
}

uniform_unsigned!(u8, u16, u32, u64, usize);
uniform_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

/// Range shapes accepted by [`SimRng::gen_range`].
pub trait IntRange<T: UniformInt> {
    /// The `(low, high)` bounds, high **inclusive**. Panics on an empty
    /// range.
    fn bounds(&self) -> (T, T);
}

impl<T: UniformInt> IntRange<T> for core::ops::Range<T> {
    fn bounds(&self) -> (T, T) {
        let lo = self.start.to_u64();
        let hi = self.end.to_u64();
        assert!(lo < hi, "SimRng::gen_range called with an empty range");
        (self.start, T::from_u64(hi - 1))
    }
}

impl<T: UniformInt> IntRange<T> for core::ops::RangeInclusive<T> {
    fn bounds(&self) -> (T, T) {
        let lo = self.start().to_u64();
        let hi = self.end().to_u64();
        assert!(lo <= hi, "SimRng::gen_range called with an empty range");
        (*self.start(), *self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forked_streams_differ() {
        let mut root = SimRng::seed(7);
        let mut c0 = root.fork(0);
        let mut c1 = root.fork(1);
        let s0: Vec<u64> = (0..10).map(|_| c0.next_u64()).collect();
        let s1: Vec<u64> = (0..10).map(|_| c1.next_u64()).collect();
        assert_ne!(s0, s1);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-3.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed(3);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = SimRng::seed(3);
        let empty: [u8; 0] = [];
        assert_eq!(r.choose(&empty), None);
        assert!(r.choose(&[1, 2, 3]).is_some());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = SimRng::seed(9);
        for _ in 0..1000 {
            let v: usize = r.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: i32 = r.gen_range(-5..=5);
            assert!((-5..=5).contains(&w));
            let u: u64 = r.gen_range(0u64..1);
            assert_eq!(u, 0);
        }
    }

    #[test]
    fn gen_range_covers_full_span() {
        let mut r = SimRng::seed(11);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[r.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 values should appear");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::seed(13);
        for _ in 0..1000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_rate_tracks_probability() {
        let mut r = SimRng::seed(17);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits} hits at p=0.25");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(32, 1.2);
        let mut r = SimRng::seed(19);
        let mut counts = [0usize; 32];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        // Rank frequencies are monotone-ish: rank 0 beats rank 1 beats
        // the whole tail's mean, and every draw landed in range.
        assert!(counts[0] > counts[1]);
        let tail_mean = counts[8..].iter().sum::<usize>() / 24;
        assert!(counts[1] > tail_mean);
        assert_eq!(counts.iter().sum::<usize>(), 20_000);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(8, 0.0);
        let mut r = SimRng::seed(23);
        let mut counts = [0usize; 8];
        for _ in 0..16_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            assert!((1_600..2_400).contains(&c), "rank {k} got {c}/16000");
        }
    }

    #[test]
    fn zipf_single_rank_always_zero() {
        let z = Zipf::new(1, 2.0);
        let mut r = SimRng::seed(29);
        for _ in 0..50 {
            assert_eq!(z.sample(&mut r), 0);
        }
    }

    #[test]
    fn zipf_same_seed_same_stream() {
        let z = Zipf::new(100, 0.9);
        let mut a = SimRng::seed(31);
        let mut b = SimRng::seed(31);
        for _ in 0..200 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }
}
