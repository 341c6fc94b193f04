//! Interval algebra over totally ordered numbers.
//!
//! The paper's AACS structure (§3.1) maintains *non-overlapping
//! sub-ranges* of the values constrained by subscriptions. [`Interval`]
//! models a single contiguous range with open/closed/infinite endpoints,
//! and [`IntervalSet`] a canonical union of disjoint, sorted intervals —
//! the normal form into which every conjunction of arithmetic constraints
//! on one attribute dissolves (`price < 8.70 ∧ price > 8.30` becomes the
//! single interval `(8.30, 8.70)`, exactly as in the paper's Fig. 4;
//! `volume ≠ 130000` becomes two intervals).

use std::cmp::Ordering;
use std::fmt;

use crate::value::Num;

/// Lower endpoint of an [`Interval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LowerBound {
    /// Unbounded below (−∞).
    NegInf,
    /// Closed bound: values ≥ the given number.
    Incl(Num),
    /// Open bound: values > the given number.
    Excl(Num),
}

/// Upper endpoint of an [`Interval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpperBound {
    /// Unbounded above (+∞).
    PosInf,
    /// Closed bound: values ≤ the given number.
    Incl(Num),
    /// Open bound: values < the given number.
    Excl(Num),
}

impl LowerBound {
    /// Returns `true` if `v` satisfies this bound.
    pub fn admits(self, v: Num) -> bool {
        match self {
            LowerBound::NegInf => true,
            LowerBound::Incl(b) => v >= b,
            LowerBound::Excl(b) => v > b,
        }
    }

    /// Orders lower bounds by restrictiveness: a bound that admits more
    /// values sorts first.
    fn key(self) -> (Option<Num>, u8) {
        match self {
            LowerBound::NegInf => (None, 0),
            LowerBound::Incl(b) => (Some(b), 0),
            LowerBound::Excl(b) => (Some(b), 1),
        }
    }

    fn cmp_bound(self, other: Self) -> Ordering {
        let (a, ax) = self.key();
        let (b, bx) = other.key();
        match (a, b) {
            (None, None) => Ordering::Equal,
            (None, Some(_)) => Ordering::Less,
            (Some(_), None) => Ordering::Greater,
            (Some(a), Some(b)) => a.cmp(&b).then(ax.cmp(&bx)),
        }
    }
}

impl UpperBound {
    /// Returns `true` if `v` satisfies this bound.
    pub fn admits(self, v: Num) -> bool {
        match self {
            UpperBound::PosInf => true,
            UpperBound::Incl(b) => v <= b,
            UpperBound::Excl(b) => v < b,
        }
    }

    fn key(self) -> (Option<Num>, u8) {
        match self {
            UpperBound::PosInf => (None, 0),
            // Excl(b) admits fewer values than Incl(b).
            UpperBound::Incl(b) => (Some(b), 1),
            UpperBound::Excl(b) => (Some(b), 0),
        }
    }

    fn cmp_bound(self, other: Self) -> Ordering {
        let (a, ax) = self.key();
        let (b, bx) = other.key();
        match (a, b) {
            (None, None) => Ordering::Equal,
            (None, Some(_)) => Ordering::Greater,
            (Some(_), None) => Ordering::Less,
            (Some(a), Some(b)) => a.cmp(&b).then(ax.cmp(&bx)),
        }
    }
}

/// A contiguous, possibly unbounded range of numbers.
///
/// # Example
///
/// ```
/// use subsum_types::{Interval, Num};
/// let r = Interval::open(Num::new(8.30).unwrap(), Num::new(8.70).unwrap());
/// assert!(r.contains(Num::new(8.40).unwrap()));
/// assert!(!r.contains(Num::new(8.30).unwrap()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    lo: LowerBound,
    hi: UpperBound,
}

impl Interval {
    /// The interval containing every number: `(−∞, +∞)`.
    pub const ALL: Interval = Interval {
        lo: LowerBound::NegInf,
        hi: UpperBound::PosInf,
    };

    /// Creates an interval from explicit bounds. Empty combinations (e.g.
    /// `lo > hi`) are permitted; use [`Interval::is_empty`] to detect them.
    pub fn new(lo: LowerBound, hi: UpperBound) -> Self {
        Interval { lo, hi }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: Num) -> Self {
        Interval {
            lo: LowerBound::Incl(v),
            hi: UpperBound::Incl(v),
        }
    }

    /// The open interval `(lo, hi)`.
    pub fn open(lo: Num, hi: Num) -> Self {
        Interval {
            lo: LowerBound::Excl(lo),
            hi: UpperBound::Excl(hi),
        }
    }

    /// The closed interval `[lo, hi]`.
    pub fn closed(lo: Num, hi: Num) -> Self {
        Interval {
            lo: LowerBound::Incl(lo),
            hi: UpperBound::Incl(hi),
        }
    }

    /// `(−∞, v)` — the solution set of `x < v`.
    pub fn less_than(v: Num) -> Self {
        Interval {
            lo: LowerBound::NegInf,
            hi: UpperBound::Excl(v),
        }
    }

    /// `(−∞, v]` — the solution set of `x ≤ v`.
    pub fn at_most(v: Num) -> Self {
        Interval {
            lo: LowerBound::NegInf,
            hi: UpperBound::Incl(v),
        }
    }

    /// `(v, +∞)` — the solution set of `x > v`.
    pub fn greater_than(v: Num) -> Self {
        Interval {
            lo: LowerBound::Excl(v),
            hi: UpperBound::PosInf,
        }
    }

    /// `[v, +∞)` — the solution set of `x ≥ v`.
    pub fn at_least(v: Num) -> Self {
        Interval {
            lo: LowerBound::Incl(v),
            hi: UpperBound::PosInf,
        }
    }

    /// The lower bound.
    pub fn lo(&self) -> LowerBound {
        self.lo
    }

    /// The upper bound.
    pub fn hi(&self) -> UpperBound {
        self.hi
    }

    /// Returns `true` if no number satisfies both bounds.
    pub fn is_empty(&self) -> bool {
        match (self.lo, self.hi) {
            (LowerBound::NegInf, _) | (_, UpperBound::PosInf) => false,
            (LowerBound::Incl(a), UpperBound::Incl(b)) => a > b,
            (LowerBound::Incl(a), UpperBound::Excl(b))
            | (LowerBound::Excl(a), UpperBound::Incl(b))
            | (LowerBound::Excl(a), UpperBound::Excl(b)) => a >= b,
        }
    }

    /// Returns `true` if the interval is the degenerate point `[v, v]`.
    pub fn as_point(&self) -> Option<Num> {
        match (self.lo, self.hi) {
            (LowerBound::Incl(a), UpperBound::Incl(b)) if a == b => Some(a),
            _ => None,
        }
    }

    /// Membership test.
    pub fn contains(&self, v: Num) -> bool {
        self.lo.admits(v) && self.hi.admits(v)
    }

    /// Returns `true` if every member of `other` is a member of `self`.
    ///
    /// Empty intervals are contained in everything.
    pub fn contains_interval(&self, other: &Interval) -> bool {
        if other.is_empty() {
            return true;
        }
        if self.is_empty() {
            return false;
        }
        self.lo.cmp_bound(other.lo) != Ordering::Greater
            && self.hi.cmp_bound(other.hi) != Ordering::Less
    }

    /// The intersection of two intervals (may be empty).
    pub fn intersect(&self, other: &Interval) -> Interval {
        let lo = if self.lo.cmp_bound(other.lo) == Ordering::Greater {
            self.lo
        } else {
            other.lo
        };
        let hi = if self.hi.cmp_bound(other.hi) == Ordering::Less {
            self.hi
        } else {
            other.hi
        };
        Interval { lo, hi }
    }

    /// Returns `true` if the intervals share at least one member.
    pub fn overlaps(&self, other: &Interval) -> bool {
        !self.intersect(other).is_empty()
    }

    /// The members of `self` that are not members of `other`: zero, one or
    /// two intervals (left and right remainders).
    pub fn subtract(&self, other: &Interval) -> Vec<Interval> {
        if self.is_empty() {
            return Vec::new();
        }
        if other.is_empty() {
            return vec![*self];
        }
        let mut out = Vec::with_capacity(2);
        // Left remainder: members of self below other's lower bound.
        let left_hi = match other.lo {
            LowerBound::NegInf => None,
            LowerBound::Incl(v) => Some(UpperBound::Excl(v)),
            LowerBound::Excl(v) => Some(UpperBound::Incl(v)),
        };
        if let Some(hi) = left_hi {
            let left = Interval::new(self.lo, hi).intersect(self);
            if !left.is_empty() {
                out.push(left);
            }
        }
        // Right remainder: members of self above other's upper bound.
        let right_lo = match other.hi {
            UpperBound::PosInf => None,
            UpperBound::Incl(v) => Some(LowerBound::Excl(v)),
            UpperBound::Excl(v) => Some(LowerBound::Incl(v)),
        };
        if let Some(lo) = right_lo {
            let right = Interval::new(lo, self.hi).intersect(self);
            if !right.is_empty() {
                out.push(right);
            }
        }
        out
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.lo {
            LowerBound::NegInf => write!(f, "(-inf")?,
            LowerBound::Incl(v) => write!(f, "[{v}")?,
            LowerBound::Excl(v) => write!(f, "({v}")?,
        }
        write!(f, ", ")?;
        match self.hi {
            UpperBound::PosInf => write!(f, "+inf)"),
            UpperBound::Incl(v) => write!(f, "{v}]"),
            UpperBound::Excl(v) => write!(f, "{v})"),
        }
    }
}

/// A canonical union of disjoint, sorted, non-empty intervals.
///
/// This is the normal form of an arithmetic attribute's constraint
/// conjunction: intersections and the `≠` operator both produce interval
/// sets. The canonical form merges adjacent touching intervals so that
/// structural equality coincides with set equality.
///
/// # Example
///
/// ```
/// use subsum_types::{Interval, IntervalSet, Num};
/// # fn n(v: f64) -> Num { Num::new(v).unwrap() }
/// // volume ≠ 130000
/// let ne = IntervalSet::all().without_point(n(130000.0));
/// assert_eq!(ne.len(), 2);
/// assert!(!ne.contains(n(130000.0)));
/// assert!(ne.contains(n(132700.0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IntervalSet {
    /// Disjoint, non-adjacent, non-empty, sorted by lower bound.
    parts: Vec<Interval>,
}

impl IntervalSet {
    /// The empty set.
    pub fn empty() -> Self {
        IntervalSet { parts: Vec::new() }
    }

    /// The full number line.
    pub fn all() -> Self {
        IntervalSet {
            parts: vec![Interval::ALL],
        }
    }

    /// A set with a single interval (empty intervals yield the empty set).
    pub fn from_interval(iv: Interval) -> Self {
        if iv.is_empty() {
            IntervalSet::empty()
        } else {
            IntervalSet { parts: vec![iv] }
        }
    }

    /// Number of disjoint intervals.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Returns `true` if no value is in the set.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The disjoint intervals, sorted.
    pub fn iter(&self) -> impl Iterator<Item = &Interval> {
        self.parts.iter()
    }

    /// Membership test (binary search over the disjoint parts).
    pub fn contains(&self, v: Num) -> bool {
        // Find the first part whose upper bound admits v; v is a member
        // iff that part's lower bound also admits it.
        self.parts.iter().any(|iv| iv.contains(v))
    }

    /// Intersects two sets.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let mut parts = Vec::new();
        for a in &self.parts {
            for b in &other.parts {
                let c = a.intersect(b);
                if !c.is_empty() {
                    parts.push(c);
                }
            }
        }
        // Parts from a canonical pairwise intersection are already
        // disjoint; sort for canonical order.
        parts.sort_by(|a, b| a.lo().cmp_bound(b.lo()));
        IntervalSet { parts }
    }

    /// The set minus a single point (used for the `≠` operator).
    pub fn without_point(&self, v: Num) -> IntervalSet {
        let mut parts = Vec::with_capacity(self.parts.len() + 1);
        for iv in &self.parts {
            if !iv.contains(v) {
                parts.push(*iv);
                continue;
            }
            let left = Interval::new(iv.lo(), UpperBound::Excl(v));
            let right = Interval::new(LowerBound::Excl(v), iv.hi());
            if !left.is_empty() {
                parts.push(left);
            }
            if !right.is_empty() {
                parts.push(right);
            }
        }
        IntervalSet { parts }
    }

    /// Returns `true` if every member of `other` is a member of `self`.
    pub fn covers(&self, other: &IntervalSet) -> bool {
        // Every part of `other` must be contained in the union. Because
        // parts are canonical (non-adjacent), a single part of `other`
        // must fit inside a single part of `self`.
        other
            .parts
            .iter()
            .all(|o| self.parts.iter().any(|s| s.contains_interval(o)))
    }

    /// Unions with another set, restoring canonical form.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        let mut all: Vec<Interval> = self
            .parts
            .iter()
            .chain(other.parts.iter())
            .copied()
            .collect();
        all.sort_by(|a, b| a.lo().cmp_bound(b.lo()));
        let mut parts: Vec<Interval> = Vec::with_capacity(all.len());
        for iv in all {
            match parts.last_mut() {
                Some(last) if joinable(last, &iv) => {
                    let hi = if last.hi().cmp_bound(iv.hi()) == Ordering::Less {
                        iv.hi()
                    } else {
                        last.hi()
                    };
                    *last = Interval::new(last.lo(), hi);
                }
                _ => parts.push(iv),
            }
        }
        IntervalSet { parts }
    }
}

/// Returns `true` if two intervals (with `a.lo ≤ b.lo`) overlap or touch
/// (such as `[1, 2]` and `(2, 3]`), so their union is a single interval.
fn joinable(a: &Interval, b: &Interval) -> bool {
    if a.overlaps(b) {
        return true;
    }
    // Adjacent: a's upper bound and b's lower bound meet at the same value
    // with complementary inclusivity, e.g. `..., 2]` followed by `(2, ...`
    // or `..., 2)` followed by `[2, ...`.
    match (a.hi(), b.lo()) {
        (UpperBound::Incl(x), LowerBound::Excl(y))
        | (UpperBound::Excl(x), LowerBound::Incl(y))
        | (UpperBound::Incl(x), LowerBound::Incl(y)) => x == y,
        _ => false,
    }
}

impl From<Interval> for IntervalSet {
    fn from(iv: Interval) -> Self {
        IntervalSet::from_interval(iv)
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.parts.is_empty() {
            return f.write_str("{}");
        }
        for (i, iv) in self.parts.iter().enumerate() {
            if i > 0 {
                f.write_str(" u ")?;
            }
            write!(f, "{iv}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: f64) -> Num {
        Num::new(v).unwrap()
    }

    #[test]
    fn empty_detection() {
        assert!(Interval::open(n(1.0), n(1.0)).is_empty());
        assert!(!Interval::closed(n(1.0), n(1.0)).is_empty());
        assert!(Interval::closed(n(2.0), n(1.0)).is_empty());
        assert!(!Interval::ALL.is_empty());
        assert!(Interval::new(LowerBound::Incl(n(1.0)), UpperBound::Excl(n(1.0))).is_empty());
    }

    #[test]
    fn contains_respects_openness() {
        let iv = Interval::open(n(8.30), n(8.70));
        assert!(iv.contains(n(8.40)));
        assert!(!iv.contains(n(8.30)));
        assert!(!iv.contains(n(8.70)));
        let civ = Interval::closed(n(8.30), n(8.70));
        assert!(civ.contains(n(8.30)));
        assert!(civ.contains(n(8.70)));
    }

    #[test]
    fn operator_constructors() {
        assert!(Interval::less_than(n(5.0)).contains(n(4.9)));
        assert!(!Interval::less_than(n(5.0)).contains(n(5.0)));
        assert!(Interval::at_most(n(5.0)).contains(n(5.0)));
        assert!(Interval::greater_than(n(5.0)).contains(n(5.1)));
        assert!(!Interval::greater_than(n(5.0)).contains(n(5.0)));
        assert!(Interval::at_least(n(5.0)).contains(n(5.0)));
    }

    #[test]
    fn intersection_of_half_lines_is_paper_range() {
        // price < 8.70 ∧ price > 8.30 → (8.30, 8.70) as in Fig. 4.
        let a = Interval::less_than(n(8.70));
        let b = Interval::greater_than(n(8.30));
        let c = a.intersect(&b);
        assert_eq!(c, Interval::open(n(8.30), n(8.70)));
    }

    #[test]
    fn containment() {
        let outer = Interval::closed(n(0.0), n(10.0));
        let inner = Interval::open(n(1.0), n(9.0));
        assert!(outer.contains_interval(&inner));
        assert!(!inner.contains_interval(&outer));
        // Boundary inclusivity matters.
        let open = Interval::open(n(0.0), n(10.0));
        assert!(!open.contains_interval(&outer));
        assert!(outer.contains_interval(&open));
        // Everything contains the empty interval.
        assert!(inner.contains_interval(&Interval::open(n(5.0), n(5.0))));
    }

    #[test]
    fn point_intervals() {
        let p = Interval::point(n(8.20));
        assert_eq!(p.as_point(), Some(n(8.20)));
        assert!(p.contains(n(8.20)));
        assert_eq!(Interval::closed(n(1.0), n(2.0)).as_point(), None);
    }

    #[test]
    fn set_without_point() {
        let s = IntervalSet::all().without_point(n(3.0));
        assert_eq!(s.len(), 2);
        assert!(!s.contains(n(3.0)));
        assert!(s.contains(n(2.999)));
        assert!(s.contains(n(3.001)));
    }

    #[test]
    fn set_intersection() {
        let a = IntervalSet::from_interval(Interval::closed(n(0.0), n(10.0)));
        let b = IntervalSet::all().without_point(n(5.0));
        let c = a.intersect(&b);
        assert_eq!(c.len(), 2);
        assert!(c.contains(n(0.0)));
        assert!(!c.contains(n(5.0)));
        assert!(c.contains(n(10.0)));
        assert!(!c.contains(n(10.1)));
    }

    #[test]
    fn set_covers() {
        let big = IntervalSet::from_interval(Interval::closed(n(0.0), n(10.0)));
        let small = IntervalSet::from_interval(Interval::open(n(2.0), n(3.0)));
        assert!(big.covers(&small));
        assert!(!small.covers(&big));
        assert!(big.covers(&IntervalSet::empty()));
        assert!(IntervalSet::empty().covers(&IntervalSet::empty()));
        let holey = IntervalSet::all().without_point(n(5.0));
        assert!(!holey.covers(&big));
        assert!(IntervalSet::all().covers(&holey));
    }

    #[test]
    fn union_merges_touching() {
        let a = IntervalSet::from_interval(Interval::closed(n(0.0), n(2.0)));
        let b = IntervalSet::from_interval(Interval::open(n(2.0), n(4.0)));
        let u = a.union(&b);
        assert_eq!(u.len(), 1);
        assert!(u.contains(n(2.0)));
        assert!(u.contains(n(3.9)));
        assert!(!u.contains(n(4.0)));
    }

    #[test]
    fn union_keeps_gaps() {
        let a = IntervalSet::from_interval(Interval::open(n(0.0), n(1.0)));
        let b = IntervalSet::from_interval(Interval::open(n(2.0), n(3.0)));
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        assert!(!u.contains(n(1.5)));
    }

    #[test]
    fn union_does_not_merge_open_adjacent() {
        // (0,1) and (1,2) do NOT merge: 1 is in neither.
        let a = IntervalSet::from_interval(Interval::open(n(0.0), n(1.0)));
        let b = IntervalSet::from_interval(Interval::open(n(1.0), n(2.0)));
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        assert!(!u.contains(n(1.0)));
    }

    #[test]
    fn interval_subtract() {
        let a = Interval::closed(n(0.0), n(10.0));
        let b = Interval::open(n(3.0), n(7.0));
        let parts = a.subtract(&b);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], Interval::closed(n(0.0), n(3.0)));
        assert_eq!(parts[1], Interval::closed(n(7.0), n(10.0)));
        // Subtracting a superset leaves nothing.
        assert!(b.subtract(&a).is_empty());
        // Subtracting the empty interval leaves self.
        assert_eq!(a.subtract(&Interval::open(n(1.0), n(1.0))), vec![a]);
        // Disjoint subtraction leaves self.
        assert_eq!(a.subtract(&Interval::closed(n(20.0), n(30.0))), vec![a]);
        // Half-line remainder.
        let parts = Interval::ALL.subtract(&Interval::at_least(n(5.0)));
        assert_eq!(parts, vec![Interval::less_than(n(5.0))]);
        // Point subtraction punches an open hole.
        let parts = a.subtract(&Interval::point(n(5.0)));
        assert_eq!(parts.len(), 2);
        assert!(!parts[0].contains(n(5.0)) && !parts[1].contains(n(5.0)));
        assert!(parts[0].contains(n(4.999)) && parts[1].contains(n(5.001)));
    }

    #[test]
    fn display_roundtrip_sanity() {
        let iv = Interval::open(n(8.30), n(8.70));
        assert_eq!(format!("{iv}"), "(8.3, 8.7)");
        assert_eq!(format!("{}", Interval::ALL), "(-inf, +inf)");
        assert_eq!(format!("{}", IntervalSet::empty()), "{}");
    }
}
