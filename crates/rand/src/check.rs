//! Seeded property checks for the workspace's test suites.
//!
//! [`check`] runs a property over `cases` independently generated
//! inputs. The property draws its input from the [`StdRng`] it is
//! handed — `gen_range` / `gen` for numbers, and the three generators
//! below for choices, collections and strings — and states what must
//! hold with plain `assert!`s. Case `i` of property `name` is seeded
//! from `(name, i)` alone, so a failure (reported as name + index on
//! stderr, next to the assertion's own message) reproduces by re-running
//! the test: there is no replay file or variable, and no shrinking.
//!
//! `SUBSUM_CHECK_CASES=n` runs `n` cases of every property instead of
//! the count written in the test (slow interpreters: Miri, sanitizers).
//!
//! ```
//! use rand::check::check;
//! use rand::Rng;
//!
//! check("reversing_twice_is_the_identity", 64, |g| {
//!     let v = g.vec(0..20, |g| g.gen_range(-5..5));
//!     let mut w = v.clone();
//!     w.reverse();
//!     w.reverse();
//!     assert_eq!(v, w);
//! });
//! ```

use std::ops::{Range, RangeInclusive};

use crate::rngs::StdRng;
use crate::{Rng, SeedableRng};

/// Overrides every property's case count when set.
const CASES_VAR: &str = "SUBSUM_CHECK_CASES";

impl StdRng {
    /// One of `options`, uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn one_of<T: Clone>(&mut self, options: &[T]) -> T {
        options[self.gen_range(0..options.len())].clone()
    }

    /// A vector whose length is uniform over `len` and whose items come
    /// from `item`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
        (0..self.gen_range(len)).map(|_| item(self)).collect()
    }

    /// A string of `len` characters (uniform over the range) drawn
    /// uniformly from `alphabet`: the `[set]{lo,hi}` of a regex.
    pub fn string(&mut self, alphabet: &str, len: RangeInclusive<usize>) -> String {
        let alphabet: Vec<char> = alphabet.chars().collect();
        (0..self.gen_range(len))
            .map(|_| self.one_of(&alphabet))
            .collect()
    }
}

/// Names the failing case while its assertion's panic unwinds.
struct Case<'a> {
    name: &'a str,
    index: u32,
    cases: u32,
}

impl Drop for Case<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "check `{}` failed at case {} of {}; the case is seeded from its name and \
                 index, so re-running the test reproduces it",
                self.name, self.index, self.cases
            );
        }
    }
}

/// Runs `property` on `cases` generated inputs (see the
/// [module docs](self)).
///
/// # Panics
///
/// Panics when the property does, or when `SUBSUM_CHECK_CASES` is set
/// to something other than a number.
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut StdRng)) {
    let cases = match std::env::var(CASES_VAR) {
        Ok(n) => n
            .parse()
            .unwrap_or_else(|_| panic!("{CASES_VAR}={n:?} is not a case count")),
        Err(_) => cases,
    };
    // FNV-1a over the name; `seed_from_u64` decorrelates adjacent seeds.
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    for index in 0..cases {
        let _case = Case { name, index, cases };
        property(&mut StdRng::seed_from_u64(
            base.wrapping_add(u64::from(index)),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_distinct_and_repeat_exactly() {
        let draws = |name| {
            let mut seen = Vec::new();
            check(name, 32, |g| seen.push(g.gen::<u64>()));
            seen
        };
        let a = draws("a");
        assert_eq!(a, draws("a"));
        assert_ne!(a, draws("b"));
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len());
    }

    #[test]
    fn generators_respect_their_bounds() {
        check("generators_respect_their_bounds", 256, |g| {
            let v = g.vec(2..5, |g| g.one_of(&['x', 'y']));
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|c| "xy".contains(*c)));
            let s = g.string("ab*", 0..=3);
            assert!(s.chars().count() <= 3 && s.chars().all(|c| "ab*".contains(c)));
        });
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn a_failing_property_fails_the_test() {
        check("a_failing_property_fails_the_test", 64, |g| {
            assert!(g.gen_range(0..100) % 2 == 0, "odd");
        });
    }
}
