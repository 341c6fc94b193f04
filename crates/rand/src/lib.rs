//! The workspace's one seeded random stream, behind the `rand` paths
//! its crates import (`rngs::StdRng`, `SeedableRng`, `Rng`, `RngCore`,
//! `seq::SliceRandom`), and the [`check`] property-test runner built on
//! it. Depends on nothing; only what the workspace calls exists.
//!
//! # The random stream (documented so results are reproducible)
//!
//! * [`StdRng`](rngs::StdRng) is **xoshiro256++**. `seed_from_u64(s)`
//!   fills the four state words with four successive outputs of
//!   **splitmix64** started at `s`.
//! * `gen::<f64>()` is `(next_u64() >> 11) * 2^-53` (in `[0, 1)`),
//!   `gen::<bool>()` is the top bit of `next_u64`, integers take the low
//!   bits of `next_u64`.
//! * `gen_range` over an integer range of span `n` is the high word of
//!   the 128-bit product `next_u64() * n` (one draw, bias below
//!   `n / 2^64`); over a float range it is `lo + (hi - lo) * gen::<f64>()`.
//! * `shuffle` is the Fisher–Yates walk from the back:
//!   `for i in (1..len).rev() { swap(i, gen_range(0..=i)) }`.
//!
//! This is the stream `crates/ledger/offline/rand` documents, draw for
//! draw, so the benchmark's `machine.deps` reads `shim` and every seeded
//! number measured since the ledger landed stays comparable. It is
//! **not** the stream of the crates.io `rand` (ChaCha12).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod check;

use std::ops::{Range, RangeInclusive};

/// A source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Typed draws, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A value of `T`'s natural distribution: `[0, 1)` for `f64`, a fair
    /// coin for `bool`, the full range for integers.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A value uniformly distributed over `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T: Uniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        let (lo, hi, inclusive) = range.bounds();
        T::between(lo, hi, inclusive, self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a `u64` (see the crate docs).
    fn seed_from_u64(state: u64) -> Self;
}

/// Types [`Rng::gen`] can produce.
pub trait Standard: Sized {
    /// Draws one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// Types [`Rng::gen_range`] can produce.
pub trait Uniform: Sized {
    /// Uniform over `[lo, hi)`, or over `[lo, hi]` when `inclusive`.
    fn between<R: RngCore + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self;
}

/// Range types [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// `(lo, hi, hi is included)`.
    fn bounds(self) -> (T, T, bool);
}

impl<T> SampleRange<T> for Range<T> {
    fn bounds(self) -> (T, T, bool) {
        (self.start, self.end, false)
    }
}

impl<T> SampleRange<T> for RangeInclusive<T> {
    fn bounds(self) -> (T, T, bool) {
        let (lo, hi) = self.into_inner();
        (lo, hi, true)
    }
}

macro_rules! ints {
    ($($t:ty => $wide:ty),*) => {$(
        impl Standard for $t {
            fn draw<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }

        impl Uniform for $t {
            fn between<R: RngCore + ?Sized>(lo: $t, hi: $t, inclusive: bool, rng: &mut R) -> $t {
                assert!(lo < hi || (inclusive && lo == hi), "cannot sample empty range");
                // A span of 0 is the full 64-bit range (`0..=MAX`).
                let span = ((hi as $wide).wrapping_sub(lo as $wide) as u64)
                    .wrapping_add(u64::from(inclusive));
                let draw = rng.next_u64();
                let offset = if span == 0 {
                    draw
                } else {
                    ((u128::from(draw) * u128::from(span)) >> 64) as u64
                };
                (lo as $wide).wrapping_add(offset as $wide) as $t
            }
        }
    )*};
}
ints!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64, i32 => i64, i64 => i64);

impl Uniform for f64 {
    fn between<R: RngCore + ?Sized>(lo: f64, hi: f64, inclusive: bool, rng: &mut R) -> f64 {
        assert!(
            lo < hi || (inclusive && lo == hi),
            "cannot sample empty range"
        );
        lo + (hi - lo) * rng.gen::<f64>()
    }
}

/// Generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's generator: xoshiro256++ (see the crate docs).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
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
        fn seed_from_u64(state: u64) -> Self {
            // splitmix64
            let mut sm = state;
            let mut s = [0u64; 4];
            for word in &mut s {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            StdRng { s }
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Shuffles the slice in place (see the crate docs for the walk).
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    /// The stream is a contract (crate docs): the frozen benchmark keys
    /// `machine.deps` on the first word, and every seeded table in
    /// EXPERIMENTS.md on the rest.
    #[test]
    fn stream_is_the_documented_one() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(rng.next_u64(), 0x5317_5d61_490b_23df);
        let mut rng = StdRng::seed_from_u64(7);
        let first = rng.next_u64();
        let mut again = StdRng::seed_from_u64(7);
        assert_eq!(again.gen_range(0..1u64 << 32), first >> 32, "high word");
        let mut again = StdRng::seed_from_u64(7);
        assert_eq!(
            again.gen::<f64>(),
            (first >> 11) as f64 / (1u64 << 53) as f64
        );
        let mut again = StdRng::seed_from_u64(7);
        assert_eq!(again.gen::<bool>(), first >> 63 == 1);
        let mut again = StdRng::seed_from_u64(7);
        assert_eq!(again.gen::<u16>(), first as u16);
        assert_ne!(StdRng::seed_from_u64(8).next_u64(), first);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!((3..9).contains(&rng.gen_range(3..9)));
            assert!((-5..=5).contains(&rng.gen_range(-5i64..=5)));
            assert!((0.0..1.0).contains(&rng.gen::<f64>()));
            assert!((-2.0..4.0).contains(&rng.gen_range(-2.0..4.0)));
            assert!(rng.gen_range(0..13u16) < 13);
            assert_eq!(rng.gen_range(4..=4usize), 4);
        }
        let _: u64 = rng.gen_range(0..=u64::MAX);
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
