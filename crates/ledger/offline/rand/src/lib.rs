//! Offline shim of the `rand` 0.8 API surface used by the subsum
//! workspace: `Rng::{gen, gen_range, gen_bool}`, `SeedableRng`,
//! `rngs::StdRng`, `seq::SliceRandom::{shuffle, choose}`.
//!
//! # The random stream (documented so results are reproducible)
//!
//! * `StdRng` is **xoshiro256++**. `seed_from_u64(s)` fills the four
//!   state words with four successive outputs of **splitmix64** started
//!   at `s`; `from_seed` reads the 32 seed bytes as four little-endian
//!   words (an all-zero seed is replaced by `seed_from_u64(0)`).
//! * `next_u32` is the high half of `next_u64`.
//! * `gen::<f64>()` is `(next_u64() >> 11) * 2^-53` (in `[0, 1)`),
//!   `gen::<f32>()` is `(next_u32() >> 8) * 2^-24`, `gen::<bool>()` is
//!   the top bit of `next_u64`, integers take the low bits of
//!   `next_u64`.
//! * `gen_range` over an integer range of span `n` is the high word of
//!   the 128-bit product `next_u64() * n` (one draw, bias below
//!   `n / 2^64`); over a float range it is `lo + (hi - lo) * gen::<f64>()`.
//! * `shuffle` is the Fisher–Yates walk from the back:
//!   `for i in (1..len).rev() { swap(i, gen_range(0..=i)) }`.
//!
//! This is **not** the stream of the real `rand` crate (ChaCha12), so
//! generated workloads differ from a registry build: results produced
//! with the shim are tagged `deps: shim` and compared only with each
//! other.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-level random value generation, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A value from the [`distributions::Standard`] distribution.
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        use distributions::Distribution;
        distributions::Standard.sample(self)
    }

    /// A value uniformly distributed over `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: distributions::uniform::SampleUniform,
        R: distributions::uniform::SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside [0, 1]");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// The seed type.
    type Seed;
    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;
    /// Builds the generator from a `u64` (see the crate docs).
    fn seed_from_u64(state: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (see crate docs).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
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

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (word, bytes) in s.iter_mut().zip(seed.chunks_exact(8)) {
                let mut b = [0u8; 8];
                b.copy_from_slice(bytes);
                *word = u64::from_le_bytes(b);
            }
            if s == [0; 4] {
                return StdRng::seed_from_u64(0);
            }
            StdRng { s }
        }

        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = splitmix64(&mut sm);
            }
            StdRng { s }
        }
    }
}

/// Distributions.
pub mod distributions {
    use super::Rng;

    /// A distribution over values of type `T`.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "natural" distribution of a type: full range for integers,
    /// `[0, 1)` for floats, fair coin for `bool`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    macro_rules! standard_int {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() >> 63 == 1
        }
    }

    /// Uniform sampling over ranges.
    pub mod uniform {
        use super::super::{Range, RangeInclusive, Rng};

        /// Types `gen_range` can produce.
        pub trait SampleUniform: Sized {
            /// Uniform over `[lo, hi)`.
            fn sample_half_open<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
            /// Uniform over `[lo, hi]`.
            fn sample_inclusive<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
        }

        /// Range types `gen_range` accepts.
        pub trait SampleRange<T> {
            /// Draws one value from the range.
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
        }

        impl<T: SampleUniform> SampleRange<T> for Range<T> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
                T::sample_half_open(self.start, self.end, rng)
            }
        }

        impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
                let (lo, hi) = self.into_inner();
                T::sample_inclusive(lo, hi, rng)
            }
        }

        /// `floor(draw * span / 2^64)`; `span == 0` means the full
        /// 64-bit range.
        fn below<R: Rng + ?Sized>(span: u64, rng: &mut R) -> u64 {
            let draw = rng.next_u64();
            if span == 0 {
                draw
            } else {
                ((u128::from(draw) * u128::from(span)) >> 64) as u64
            }
        }

        macro_rules! uniform_int {
            ($($t:ty => $wide:ty),*) => {$(
                impl SampleUniform for $t {
                    fn sample_half_open<R: Rng + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                        assert!(lo < hi, "cannot sample empty range");
                        let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                        (lo as $wide).wrapping_add(below(span, rng) as $wide) as $t
                    }
                    fn sample_inclusive<R: Rng + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                        assert!(lo <= hi, "cannot sample empty range");
                        let span = ((hi as $wide).wrapping_sub(lo as $wide) as u64).wrapping_add(1);
                        (lo as $wide).wrapping_add(below(span, rng) as $wide) as $t
                    }
                }
            )*};
        }
        uniform_int!(
            u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
            i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64
        );

        macro_rules! uniform_float {
            ($($t:ty),*) => {$(
                impl SampleUniform for $t {
                    fn sample_half_open<R: Rng + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                        assert!(lo < hi, "cannot sample empty range");
                        lo + (hi - lo) * rng.gen::<$t>()
                    }
                    fn sample_inclusive<R: Rng + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                        assert!(lo <= hi, "cannot sample empty range");
                        lo + (hi - lo) * rng.gen::<$t>()
                    }
                }
            )*};
        }
        uniform_float!(f32, f64);
    }
}

/// Sequence helpers.
pub mod seq {
    use super::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;
        /// Shuffles the slice in place (see the crate docs for the walk).
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
        /// A uniformly chosen element, `None` when empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.gen_range(0..self.len()))
            }
        }
    }
}

/// The usual glob import.
pub mod prelude {
    pub use super::distributions::Distribution;
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(
            StdRng::seed_from_u64(8).next_u64(),
            StdRng::seed_from_u64(7).next_u64()
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!((3..9).contains(&rng.gen_range(3..9)));
            assert!((-5..=5).contains(&rng.gen_range(-5i64..=5)));
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            assert!(rng.gen_range(0..13u16) < 13);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
