//! Deterministic pseudo-random number generation.
//!
//! [`Xoshiro256pp`] implements Blackman & Vigna's xoshiro256++ generator.
//! It is seeded through SplitMix64 (the recommended seeding procedure), so a
//! single `u64` master seed expands into a full 256-bit state, and
//! [`Xoshiro256pp::split`] derives statistically independent child streams —
//! one per tree / disk / replicate — which keeps each unit's randomness
//! independent of the order the units run in.

use serde::{Deserialize, Serialize};

/// SplitMix64 step; used for seeding and stream derivation.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ PRNG with deterministic stream splitting.
///
/// Not cryptographically secure; intended for simulation and randomized
/// algorithms only.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Create a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro must not be seeded with the all-zero state; SplitMix64
        // cannot produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            Self { s: [1, 2, 3, 4] }
        } else {
            Self { s }
        }
    }

    /// Derive an independent child stream identified by `stream`.
    ///
    /// Children with distinct `stream` values (or from parents with distinct
    /// seeds) are statistically independent; the derivation is pure, so
    /// calling `split` twice with the same argument yields the same stream.
    pub fn split(&self, stream: u64) -> Self {
        // Mix the parent state with the stream id through SplitMix64 to get
        // a fresh, decorrelated 256-bit state.
        let mut sm = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(33)
            ^ self.s[3].rotate_left(47)
            ^ stream.wrapping_mul(0xD605_BBB5_8C8A_BC2D);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32-bit output (upper bits of the 64-bit stream).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)` with 24 bits of precision.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform integer in `[0, bound)` using Lemire's unbiased method.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` index in `[0, bound)`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform `f32` in `[lo, hi)`.
    #[inline]
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        let n = slice.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (Floyd's algorithm for
    /// small `k`, shuffle-prefix otherwise). The result is sorted.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct items from {n}");
        if k == 0 {
            return Vec::new();
        }
        if k * 4 >= n {
            let mut all: Vec<usize> = (0..n).collect();
            self.shuffle(&mut all);
            all.truncate(k);
            all.sort_unstable();
            return all;
        }
        // Floyd's algorithm: O(k) expected draws, no O(n) allocation.
        let mut chosen = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.index(j + 1);
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        chosen.sort_unstable();
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector_from_splitmix_seed() {
        // Deterministic regression anchor: the exact output stream for a
        // fixed seed must never change, or every experiment shifts.
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let mut rng2 = Xoshiro256pp::seed_from_u64(42);
        let again: Vec<u64> = (0..4).map(|_| rng2.next_u64()).collect();
        assert_eq!(first, again);
        // Different seeds diverge immediately.
        let mut rng3 = Xoshiro256pp::seed_from_u64(43);
        assert_ne!(first[0], rng3.next_u64());
    }

    #[test]
    fn next_f64_stays_in_unit_interval() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_in_bounds_and_covers_small_ranges() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = rng.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn split_streams_are_independent_and_reproducible() {
        let parent = Xoshiro256pp::seed_from_u64(1234);
        let mut a = parent.split(0);
        let mut b = parent.split(1);
        let mut a2 = parent.split(0);
        assert_eq!(a.next_u64(), a2.next_u64());
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_sorted_in_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        for &(n, k) in &[(10usize, 3usize), (100, 10), (50, 50), (1000, 5), (8, 0)] {
            let s = rng.sample_indices(n, k);
            assert_eq!(s.len(), k);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted & distinct");
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn bernoulli_frequency_matches_probability() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn serde_round_trip_preserves_stream() {
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        rng.next_u64();
        let json = serde_json::to_string(&rng).unwrap();
        let mut restored: Xoshiro256pp = serde_json::from_str(&json).unwrap();
        assert_eq!(rng.next_u64(), restored.next_u64());
    }
}
