//! Offline stand-in for the `rand` crate.
//!
//! The workspace builds without crates.io access, so this crate re-implements
//! exactly the `rand 0.8` API subset the repository uses: [`SeedableRng`] +
//! [`rngs::StdRng`], the [`Rng`] extension methods `gen`/`gen_range`, the
//! [`distributions::Uniform`] sampler and [`seq::SliceRandom::shuffle`].
//!
//! The generator is xoshiro256\*\* seeded through SplitMix64 — high-quality,
//! fast and fully deterministic per seed. Streams differ from upstream
//! `rand`'s ChaCha-based `StdRng`, which is fine here: every consumer treats
//! seeds as opaque reproducibility handles, never as cross-crate contracts.

/// A source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits (upper half of a 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A type samplable from the "standard" distribution of an RNG
/// (`rng.gen::<T>()`): uniform over the full integer range, `[0, 1)` for
/// floats.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits => uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// A range samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_range_impls {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}
int_range_impls!(usize, u64, u32, i64, i32, i128);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        let u: f64 = Standard::sample_standard(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f64> for std::ops::RangeInclusive<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range in gen_range");
        let u: f64 = Standard::sample_standard(rng);
        lo + u * (hi - lo)
    }
}

/// Convenience sampling methods, auto-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value from the standard distribution (`[0, 1)` for floats).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws uniformly from `range` (half-open or inclusive).
    fn gen_range<T, Ra: SampleRange<T>>(&mut self, range: Ra) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// An RNG constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed (SplitMix64 state expansion).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard RNG: xoshiro256\*\*.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, the canonical xoshiro seeding procedure.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
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
}

/// Distribution objects (`Uniform` is the only one the workspace uses).
pub mod distributions {
    use super::RngCore;

    /// A distribution over values of type `T`.
    pub trait Distribution<T> {
        /// Draws one value from `rng`.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// Uniform distribution over a closed interval.
    #[derive(Debug, Clone, Copy)]
    pub struct Uniform<T> {
        lo: T,
        hi: T,
    }

    impl Uniform<f64> {
        /// Uniform over `[lo, hi]`.
        ///
        /// # Panics
        ///
        /// Panics if `lo > hi`.
        pub fn new_inclusive(lo: f64, hi: f64) -> Self {
            assert!(lo <= hi, "invalid Uniform range [{lo}, {hi}]");
            Uniform { lo, hi }
        }
    }

    impl Distribution<f64> for Uniform<f64> {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            let u: f64 = super::Standard::sample_standard(rng);
            self.lo + u * (self.hi - self.lo)
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::RngCore;

    /// Random slice operations.
    pub trait SliceRandom {
        /// In-place Fisher–Yates shuffle.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn float_ranges_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x: f64 = rng.gen_range(-3.0..5.0);
            assert!((-3.0..5.0).contains(&x));
            let y: f64 = rng.gen();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn int_ranges_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let k: u64 = rng.gen_range(1..=17);
            assert!((1..=17).contains(&k));
            let i: i32 = rng.gen_range(-10..10);
            assert!((-10..10).contains(&i));
            let s: usize = rng.gen_range(0..13);
            assert!(s < 13);
        }
    }

    #[test]
    fn uniform_distribution_samples_interval() {
        use super::distributions::{Distribution, Uniform};
        let d = Uniform::new_inclusive(-1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mean: f64 = (0..4000).map(|_| d.sample(&mut rng)).sum::<f64>() / 4000.0;
        assert!(mean.abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut v: Vec<usize> = (0..50).collect();
        let mut rng = StdRng::seed_from_u64(4);
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50-element shuffle staying sorted is ~impossible");
    }

    #[test]
    fn works_through_unsized_generics() {
        fn draw<R: super::Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen_range(0.0..1.0)
        }
        let mut rng = StdRng::seed_from_u64(5);
        assert!((0.0..1.0).contains(&draw(&mut rng)));
    }
}
