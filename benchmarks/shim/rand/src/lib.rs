//! Stand-in for the parts of `rand` 0.8 (and `rand_core` 0.6) this
//! repository calls. The container has no registry, so the benchmark
//! builds against this crate instead; every sampling routine follows
//! the published algorithm step for step, so seeded streams yield the
//! values the real crate yields (the benchmark README records the
//! golden-trace check of that).

use std::ops::{Range, RangeInclusive};

/// Source of random words (`rand_core::RngCore`).
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Generators constructible from a seed (`rand_core::SeedableRng`).
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands `state` into a full seed with PCG32, as `rand_core` does.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let bytes = xorshifted.rotate_right(rot).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types `Rng::gen` can produce (the `Standard` distribution).
pub trait StandardSample: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() as i32) < 0
    }
}

impl StandardSample for f64 {
    /// 53 random bits scaled into `[0, 1)`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types `Rng::gen_range` can sample uniformly.
pub trait SampleUniform: Sized {
    /// Uniform in `[low, high)`.
    fn sample_single<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    /// Uniform in `[low, high]`.
    fn sample_single_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

// Widening-multiply rejection sampling, `rand::distributions::uniform`'s
// `UniformInt::sample_single_inclusive` for the unsigned 32- and 64-bit
// integers the repository draws.
macro_rules! uniform_int {
    ($ty:ty, $unsigned:ty, $wide:ty) => {
        impl SampleUniform for $ty {
            fn sample_single<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low < high, "gen_range: low >= high");
                Self::sample_single_inclusive(low, high - 1, rng)
            }

            fn sample_single_inclusive<R: RngCore + ?Sized>(
                low: Self,
                high: Self,
                rng: &mut R,
            ) -> Self {
                assert!(low <= high, "gen_range: low > high");
                let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned;
                if range == 0 {
                    return <$ty as StandardSample>::sample(rng);
                }
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = <$unsigned as StandardSample>::sample(rng);
                    let wide = (v as $wide) * (range as $wide);
                    let (hi, lo) = ((wide >> <$unsigned>::BITS) as $unsigned, wide as $unsigned);
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }
        }
    };
}

uniform_int!(u32, u32, u64);
uniform_int!(u64, u64, u128);
uniform_int!(usize, usize, u128);

/// A float in `[0, 1)` from the top 52 bits of one word.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    f64::from_bits((1023u64 << 52) | (rng.next_u64() >> 12)) - 1.0
}

impl SampleUniform for f64 {
    fn sample_single<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
        assert!(low < high, "gen_range: low >= high");
        let mut scale = high - low;
        assert!(scale.is_finite(), "gen_range: range overflow");
        loop {
            let res = unit_f64(rng) * scale + low;
            if res < high {
                return res;
            }
            // Rounding reached `high`: shrink the scale by one ulp.
            scale = f64::from_bits(scale.to_bits() - 1);
        }
    }

    fn sample_single_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
        assert!(low <= high, "gen_range: low > high");
        let max_rand = f64::from_bits((1023u64 << 52) | (u64::MAX >> 12)) - 1.0;
        let mut scale = (high - low) / max_rand;
        assert!(scale.is_finite(), "gen_range: range overflow");
        while scale * max_rand + low > high {
            scale = f64::from_bits(scale.to_bits() - 1);
        }
        unit_f64(rng) * scale + low
    }
}

/// Range expressions `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_single(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_single_inclusive(low, high, rng)
    }
}

/// The user-facing sampling methods, implemented for every `RngCore`.
pub trait Rng: RngCore {
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    use super::{Rng, RngCore};

    /// Index below `ubound`, drawn from 32 bits when that suffices.
    fn gen_index<R: RngCore + ?Sized>(rng: &mut R, ubound: usize) -> usize {
        if ubound <= u32::MAX as usize {
            rng.gen_range(0..ubound as u32) as usize
        } else {
            rng.gen_range(0..ubound)
        }
    }

    /// Random selection and shuffling on slices.
    pub trait SliceRandom {
        type Item;
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[gen_index(rng, self.len())])
            }
        }

        /// Fisher–Yates from the back.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, gen_index(rng, i + 1));
            }
        }
    }
}
