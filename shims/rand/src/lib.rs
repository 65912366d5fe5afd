//! Offline stand-in for the subset of the `rand` crate this workspace uses.
//!
//! The container this repository builds in has no access to crates.io, so
//! the workspace vendors minimal, deterministic implementations of the
//! exact APIs the code depends on: [`rngs::StdRng`], [`Rng`] (with
//! `gen`, `gen_range`, `gen_bool`) and [`SeedableRng::seed_from_u64`].
//!
//! The generator is xoshiro256** seeded via SplitMix64 — high-quality,
//! fast, and fully deterministic for a given seed, which is all the
//! synthetic workload generators and randomized tests require. Streams
//! differ from upstream `rand`'s ChaCha-based `StdRng`; nothing in the
//! workspace depends on the exact upstream streams.

use std::ops::{Range, RangeInclusive};

/// Seedable random generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable uniformly over their whole domain (`rng.gen()`), the
/// shim's equivalent of sampling from `rand::distributions::Standard`.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// The raw 64-bit source every other method is derived from.
pub trait RngCore {
    /// Next raw 64 bits from the stream.
    fn next_u64(&mut self) -> u64;
}

/// Ranges usable with [`Rng::gen_range`] (subset of
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// User-facing generator methods (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// A uniform value over the whole domain of `T`.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform value in `range` (half-open or inclusive).
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator (stand-in for `rand`'s
    /// `StdRng`; different stream, same contract).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    /// Alias: the workspace does not rely on `SmallRng`'s properties.
    pub type SmallRng = StdRng;
}

macro_rules! impl_standard_uint {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` using the top 53 bits.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl<const N: usize> Standard for [u8; N] {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut out = [0u8; N];
        let mut chunks = out.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = rng.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
        out
    }
}

/// Uniform integer in `[0, bound)` by Lemire's nearly divisionless
/// widening multiply: a draw is rejected when the low product word is
/// below `threshold = 2^64 mod bound`. Since `threshold < bound`, a low
/// word at or above `bound` is accepted without computing the threshold,
/// so the division runs only on the rare draws that land below `bound`.
/// The accept test is the same, so the draws consumed and the values
/// returned are those of the plain rejection loop.
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    let mut m = (rng.next_u64() as u128) * (bound as u128);
    if (m as u64) < bound {
        let threshold = bound.wrapping_neg() % bound;
        while (m as u64) < threshold {
            m = (rng.next_u64() as u128) * (bound as u128);
        }
    }
    (m >> 64) as u64
}

/// Types `gen_range` can sample (mirrors `rand`'s `SampleUniform`). A
/// single generic `SampleRange` impl per range type keeps integer-literal
/// inference working exactly like upstream: `rng.gen_range(1..=16) * 4u64`
/// resolves the literals to `u64` from context instead of falling back to
/// `i32`.
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform draw from `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u64;
                lo.wrapping_add(uniform_below(rng, span) as $t)
            }
            #[inline]
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Whole u64-sized domain: any draw is in range.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_below(rng, span as u64) as $t)
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let unit = <$t as Standard>::sample(rng);
                lo + unit * (hi - lo)
            }
            #[inline]
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                // Floats: treated as half-open, matching practical use.
                Self::sample_half_open(rng, lo, hi)
            }
        }
    )*};
}

impl_sample_uniform_float!(f32, f64);

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: u64 = r.gen_range(10..20);
            assert!((10..20).contains(&v));
            let w: i32 = r.gen_range(-5..=5);
            assert!((-5..=5).contains(&w));
            let f: f64 = r.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
            let u: usize = r.gen_range(0..1);
            assert_eq!(u, 0);
        }
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[r.gen_range(0usize..8)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "p=0.3 gave {hits}");
        assert_eq!((0..100).filter(|_| r.gen_bool(0.0)).count(), 0);
        assert_eq!((0..100).filter(|_| r.gen_bool(1.0)).count(), 100);
    }

    /// The rejection loop `uniform_below` replaced, kept as its oracle:
    /// the threshold computed for every draw.
    fn uniform_below_by_division(rng: &mut StdRng, bound: u64) -> u64 {
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let m = (rng.next_u64() as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    #[test]
    fn divisionless_draws_equal_the_division_loop() {
        for bound in [1u64, 3, 16, 1000, (1 << 32) + 1, (1 << 63) + 1] {
            let mut fast = StdRng::seed_from_u64(bound);
            let mut slow = StdRng::seed_from_u64(bound);
            for _ in 0..100_000 {
                assert_eq!(
                    super::uniform_below(&mut fast, bound),
                    uniform_below_by_division(&mut slow, bound),
                    "bound {bound}"
                );
            }
            // Both consumed the same draws.
            assert_eq!(fast.next_u64(), slow.next_u64(), "bound {bound}");
        }
    }

    #[test]
    fn array_and_float_standard_draws() {
        let mut r = StdRng::seed_from_u64(5);
        let key: [u8; 16] = r.gen();
        let key2: [u8; 16] = r.gen();
        assert_ne!(key, key2);
        for _ in 0..1000 {
            let f: f64 = r.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
