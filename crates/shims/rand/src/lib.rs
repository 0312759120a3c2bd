//! Offline stand-in for the `rand` crate.
//!
//! The build container has no crates.io access, so this in-tree shim
//! provides exactly the surface the workspace uses — `rngs::StdRng`,
//! [`SeedableRng::seed_from_u64`], and the [`RngExt`] extension trait with
//! `random_bool` / `random_range` — with the same names and signatures as
//! rand 0.9's `Rng`-family API. The generator is xoshiro256** seeded via
//! SplitMix64: deterministic per seed, which is all the corpus generators
//! and property tests require. Swap this crate for the registry `rand`
//! when a network is available; no call sites need to change.

#![forbid(unsafe_code)]

/// Core RNG interface: a source of uniform 64-bit words.
pub trait RngCore {
    /// Next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;
}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// The seed type (fixed-size byte array for `StdRng`).
    type Seed;

    /// Build from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Build from a `u64`, expanding it with SplitMix64 (the same
    /// expansion rand uses, so small seeds still decorrelate streams).
    fn seed_from_u64(state: u64) -> Self;
}

/// Range types usable with [`RngExt::random_range`].
pub trait SampleRange<T> {
    /// Sample a value uniformly from the range. Panics if empty.
    fn sample(self, rng: &mut dyn RngCore) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u128) - (self.start as u128);
                self.start + (rng.next_u64() as u128 % span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u128) - (lo as u128) + 1;
                lo + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Extension methods over any [`RngCore`], mirroring rand 0.9's `Rng`.
pub trait RngExt: RngCore {
    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    fn random_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53 uniform mantissa bits → f64 in [0, 1).
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Uniform draw from an integer range (`a..b` or `a..=b`).
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }
}

impl<T: RngCore + ?Sized> RngExt for T {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator (the shim's `StdRng`).
    ///
    /// Not cryptographic — neither is the statistical `StdRng` use in this
    /// workspace (corpus synthesis and property tests).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            r
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, w) in s.iter_mut().enumerate() {
                *w = u64::from_le_bytes(seed[i * 8..(i + 1) * 8].try_into().unwrap());
            }
            // An all-zero state is a fixed point of xoshiro; nudge it.
            if s == [0; 4] {
                s = [0x9E3779B97F4A7C15, 1, 2, 3];
            }
            StdRng { s }
        }

        fn seed_from_u64(mut state: u64) -> Self {
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut state);
            }
            StdRng { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| super::RngCore::next_u64(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| super::RngCore::next_u64(&mut b)).collect();
        let zs: Vec<u64> = (0..8).map(|_| super::RngCore::next_u64(&mut c)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn random_range_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.random_range(3..9usize);
            assert!((3..9).contains(&v));
            let w = rng.random_range(0x20..=0x7Eu8);
            assert!((0x20..=0x7E).contains(&w));
        }
    }

    #[test]
    fn random_bool_rate_is_plausible() {
        let mut rng = StdRng::seed_from_u64(2);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
        assert!(!rng.random_bool(0.0));
        assert!(rng.random_bool(1.0));
    }
}
