//! Deterministic pseudo-random number generation.
//!
//! The whole reproduction pipeline must be replayable from a single `u64`
//! seed, including under data-parallel execution. We therefore implement a
//! small, well-understood generator stack in-tree:
//!
//! * [`SplitMix64`] — a 64-bit state mixer, used to expand seeds and to
//!   derive independent child streams.
//! * [`Rng`] — xoshiro256++, the workhorse generator. It is fast, has a
//!   2^256-1 period, and passes BigCrush; its reference implementation is
//!   public domain (Blackman & Vigna).
//!
//! Streams are derived with [`Rng::fork`], which hashes the parent seed with
//! a stream index through SplitMix64. Two forks with different indices are
//! statistically independent for every practical purpose, which is what the
//! parallel trial driver relies on (each trial forks its own stream, so
//! results do not depend on thread scheduling).

/// SplitMix64 seed expander (Steele, Lea & Flood; public-domain reference).
///
/// Primarily used to turn arbitrary user seeds into well-mixed xoshiro
/// state, and to combine a seed with a stream index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a new mixer from a raw seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Produce the next 64-bit output and advance the state.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ generator with SplitMix64 seeding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
    /// Seed this generator was constructed from (for diagnostics/replay).
    seed: u64,
}

#[inline]
fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

impl Rng {
    /// Create a generator from a seed. Any seed (including 0) is valid; the
    /// state is expanded through SplitMix64 so it is never all-zero.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
            seed,
        }
    }

    /// The seed used to construct this generator.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent child stream for `index`.
    ///
    /// Forking is deterministic: `rng.fork(i)` depends only on the parent's
    /// *seed* (not its current position) and `i`, so parallel workers can
    /// fork by task index and produce schedules identical to a sequential
    /// run.
    pub fn fork(&self, index: u64) -> Rng {
        let mut sm = SplitMix64::new(self.seed ^ 0xA076_1D64_78BD_642F);
        let a = sm.next_u64();
        let mut sm2 = SplitMix64::new(a ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB));
        Rng::new(sm2.next_u64())
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = rotl(self.s[3], 45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; 2^-53 scaling yields [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in the open interval `(0, 1)`; safe for `ln()`.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        loop {
            let x = self.next_f64();
            if x > 0.0 {
                return x;
            }
        }
    }

    /// Uniform integer in `[0, n)` using Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        // Caller contract (`# Panics`): an empty range has no member to draw.
        assert!(n > 0, "next_below(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        // Caller contract (`# Panics`), and it keeps `hi - lo + 1` from wrapping to 0.
        assert!(lo <= hi, "range_u64: lo > hi");
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A fresh random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        self.shuffle(&mut v);
        v
    }

    /// Choose a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        // Caller contract (`# Panics`).
        assert!(!slice.is_empty(), "choose on empty slice");
        &slice[self.next_below(slice.len() as u64) as usize]
    }

    /// Sample an index in `0..weights.len()` with probability proportional to
    /// `weights[i]`. Non-finite or negative weights are treated as zero.
    ///
    /// # Panics
    /// Panics if the total weight is not positive.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights
            .iter()
            .map(|&w| if w.is_finite() && w > 0.0 { w } else { 0.0 })
            .sum();
        // Caller contract (`# Panics`): the Feitelson size weights are positive.
        assert!(
            total > 0.0,
            "choose_weighted: total weight must be positive"
        );
        let mut u = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            let w = if w.is_finite() && w > 0.0 { w } else { 0.0 };
            if u < w {
                return i;
            }
            u -= w;
        }
        // Floating-point round-off: return the last positively-weighted index,
        // which exists because `total > 0`.
        weights
            .iter()
            .rposition(|&w| w.is_finite() && w > 0.0)
            .expect("at least one positive weight")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain C code.
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "seeds 1 and 2 should produce distinct streams");
    }

    #[test]
    fn forks_are_independent_of_parent_position() {
        let parent1 = Rng::new(7);
        let mut parent2 = Rng::new(7);
        for _ in 0..10 {
            parent2.next_u64();
        }
        let mut f1 = parent1.fork(3);
        let mut f2 = parent2.fork(3);
        for _ in 0..32 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn fork_streams_differ() {
        let parent = Rng::new(7);
        let mut f0 = parent.fork(0);
        let mut f1 = parent.fork(1);
        let same = (0..64).filter(|_| f0.next_u64() == f1.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut r = Rng::new(99);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Rng::new(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut r = Rng::new(11);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[r.next_below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 1_000, "count {c}");
        }
    }

    #[test]
    fn range_u64_inclusive() {
        let mut r = Rng::new(3);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let x = r.range_u64(2, 5);
            assert!((2..=5).contains(&x));
            saw_lo |= x == 2;
            saw_hi |= x == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(17);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn permutation_uniformity_first_position() {
        // Each element should appear in position 0 about n/len times.
        let mut r = Rng::new(23);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            let p = r.permutation(5);
            counts[p[0]] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 1_000, "count {c}");
        }
    }

    #[test]
    fn choose_weighted_respects_weights() {
        let mut r = Rng::new(31);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[r.choose_weighted(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    #[should_panic]
    fn choose_weighted_rejects_all_zero() {
        let mut r = Rng::new(1);
        r.choose_weighted(&[0.0, 0.0]);
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(77);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.1));
        }
    }
}
