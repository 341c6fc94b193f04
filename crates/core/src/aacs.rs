//! AACS — Arithmetic Attribute Constraint Summaries (paper §3.1, Fig. 4).
//!
//! For each arithmetic attribute, a broker maintains two structures:
//!
//! * **AACS_SR** — rows of *non-overlapping sub-ranges* of the values
//!   constrained by subscriptions, each row carrying the list of
//!   subscription ids whose constraint is satisfied throughout the row;
//! * **AACS_E** — equality values outside the sub-ranges, again with id
//!   lists per row.
//!
//! This implementation keeps the sub-range partition *exact*: when a new
//! constraint's range partially overlaps existing rows, rows are split so
//! that every row's id list holds precisely the subscriptions satisfied on
//! the whole row. Arithmetic matching therefore introduces no false
//! positives (string SACS summarization is the lossy part; see
//! [`sacs`](crate::sacs)).
//!
//! Posting lists hold **dense ids** — `u32` indices into the owning
//! [`BrokerSummary`](crate::BrokerSummary)'s intern table — so a row is a
//! flat 4-byte sorted array rather than a vector of multi-word id
//! structs. A standalone `RangeSummary` simply interprets ids as opaque
//! ordered integers; callers that combine summaries must guarantee a
//! shared dense space (the broker summary does, via its intern table).

use std::collections::BTreeMap;

use subsum_types::{Interval, IntervalSet, Num};

use crate::idlist::{idlist_insert, idlist_merge, idlist_remap};
pub use crate::idlist::{DenseId, IdList};

/// One sub-range row of AACS_SR.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeRow {
    /// The non-overlapping sub-range this row represents.
    pub interval: Interval,
    /// Subscriptions whose constraint is satisfied by every value in the
    /// sub-range (dense ids, sorted).
    pub ids: IdList,
}

/// The work one [`RangeSummary::query_into`] performed, for the honest
/// §5.2.4 cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryCost {
    /// Rows actually probed: the binary-search comparisons plus the
    /// equality-map probe.
    pub rows_touched: usize,
    /// Rows a linear scan would have visited but the searches skipped.
    pub rows_pruned: usize,
}

/// The arithmetic constraint summary for a single attribute.
///
/// # Example
///
/// ```
/// use subsum_core::RangeSummary;
/// use subsum_types::{Interval, Num};
/// # fn n(v: f64) -> Num { Num::new(v).unwrap() }
/// let mut aacs = RangeSummary::new();
/// // S1: 8.30 < price < 8.70 (Fig. 4); dense id 1.
/// aacs.insert_interval(Interval::open(n(8.30), n(8.70)), 1);
/// // S2: price = 8.20; dense id 2.
/// aacs.insert_point(n(8.20), 2);
/// assert_eq!(aacs.query(n(8.40)), vec![1]);
/// assert_eq!(aacs.query(n(8.20)), vec![2]);
/// assert!(aacs.query(n(9.0)).is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RangeSummary {
    /// AACS_SR: disjoint, sorted sub-ranges.
    ranges: Vec<RangeRow>,
    /// AACS_E: equality values.
    points: BTreeMap<Num, IdList>,
}

impl RangeSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        RangeSummary::default()
    }

    /// Returns `true` if no constraint has been summarized.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty() && self.points.is_empty()
    }

    /// Number of sub-range rows (`n_sr` in the paper's size equations).
    pub fn range_rows(&self) -> usize {
        self.ranges.len()
    }

    /// Number of equality rows (`n_e` in the paper's size equations).
    pub fn point_rows(&self) -> usize {
        self.points.len()
    }

    /// Total subscription-id list length across all rows (`L_a` in the
    /// paper's size equations).
    pub fn id_list_len(&self) -> usize {
        self.ranges.iter().map(|r| r.ids.len()).sum::<usize>()
            + self.points.values().map(|l| l.len()).sum::<usize>()
    }

    /// The sub-range rows, sorted and disjoint.
    pub fn ranges(&self) -> &[RangeRow] {
        &self.ranges
    }

    /// The equality rows in ascending value order.
    pub fn points(&self) -> impl Iterator<Item = (Num, &IdList)> {
        self.points.iter().map(|(k, v)| (*k, v))
    }

    /// Records that subscription `id` constrains this attribute to `set`
    /// (the normalized interval-set form of its conjunction).
    pub fn insert_set(&mut self, set: &IntervalSet, id: DenseId) {
        for iv in set.iter() {
            self.insert_interval(*iv, id);
        }
    }

    /// Records an equality constraint `attr = v` for subscription `id`
    /// (an AACS_E row).
    pub fn insert_point(&mut self, v: Num, id: DenseId) {
        idlist_insert(self.points.entry(v).or_default(), id);
    }

    /// As [`RangeSummary::insert_point`] with several ids at once (used
    /// when decoding and merging summaries).
    pub fn insert_point_ids(&mut self, v: Num, ids: &[DenseId]) {
        if ids.is_empty() {
            return;
        }
        idlist_merge(self.points.entry(v).or_default(), ids);
    }

    /// Records a range constraint for subscription `id`, splitting
    /// existing rows as needed to keep the partition exact. Degenerate
    /// point intervals are routed to AACS_E.
    pub fn insert_interval(&mut self, iv: Interval, id: DenseId) {
        self.insert_interval_ids(iv, &[id]);
    }

    /// As [`RangeSummary::insert_interval`] but attaching several ids at
    /// once (used when merging summaries).
    pub fn insert_interval_ids(&mut self, iv: Interval, ids: &[DenseId]) {
        if iv.is_empty() || ids.is_empty() {
            return;
        }
        if let Some(p) = iv.as_point() {
            let list = self.points.entry(p).or_default();
            idlist_merge(list, ids);
            return;
        }
        // A row wholly above the last row (the order a decoded stream
        // lists its rows in) lies above every row and splits none: it is
        // appended, and only the last row can coalesce with it.
        let above_all = self.ranges.last().map_or(true, |last| {
            cmp_lo(&last.interval, &iv) == std::cmp::Ordering::Less
                && last.interval.intersect(&iv).is_empty()
        });
        if above_all {
            push_coalesced(
                &mut self.ranges,
                RangeRow {
                    interval: iv,
                    ids: ids.to_vec(),
                },
            );
            return;
        }
        let mut result: Vec<RangeRow> = Vec::with_capacity(self.ranges.len() + 2);
        // Degenerate fragments produced by splitting are routed to
        // AACS_E so the partition holds only proper ranges (keeps the
        // structure canonical for wire round-trips).
        let mut degenerate: Vec<(Num, IdList)> = Vec::new();
        let mut route = |interval: Interval, ids: IdList, result: &mut Vec<RangeRow>| {
            if let Some(p) = interval.as_point() {
                degenerate.push((p, ids));
            } else {
                result.push(RangeRow { interval, ids });
            }
        };
        // Parts of `iv` not covered by any existing row.
        let mut remaining = IntervalSet::from_interval(iv);
        for row in self.ranges.drain(..) {
            let inter = row.interval.intersect(&iv);
            if inter.is_empty() {
                result.push(row);
                continue;
            }
            // Row fragments outside `iv` keep the old id list.
            for part in row.interval.subtract(&iv) {
                route(part, row.ids.clone(), &mut result);
            }
            // The overlap gains the new ids.
            let mut merged = row.ids;
            idlist_merge(&mut merged, ids);
            route(inter, merged, &mut result);
            remaining = remaining.intersect(&interval_complement(&inter));
        }
        for part in remaining.iter() {
            route(*part, ids.to_vec(), &mut result);
        }
        result.sort_by(|a, b| cmp_lo(&a.interval, &b.interval));
        self.ranges = result;
        self.coalesce();
        for (p, ids) in degenerate {
            idlist_merge(self.points.entry(p).or_default(), &ids);
        }
    }

    /// The first equality row that lies inside a sub-range row sharing
    /// an id with it, as `(value, shared id, sub-range)`. The insertion
    /// paths never build one; the compiled plan's dedup-free arithmetic
    /// probe would count that id twice.
    pub(crate) fn point_inside_shared_range(&self) -> Option<(Num, DenseId, Interval)> {
        let mut rows = self.ranges.iter().peekable();
        for (&v, ids) in &self.points {
            while rows.next_if(|row| upper_below(&row.interval, v)).is_some() {}
            let Some(row) = rows.peek() else {
                break;
            };
            if !row.interval.contains(v) {
                continue;
            }
            let (mut i, mut j) = (0, 0);
            while let (Some(&a), Some(&b)) = (ids.get(i), row.ids.get(j)) {
                match a.cmp(&b) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => return Some((v, a, row.interval)),
                }
            }
        }
        None
    }

    /// Merges adjacent rows with identical id lists back into one row, in
    /// place (keeps `n_sr` minimal after splits and removals).
    fn coalesce(&mut self) {
        self.ranges.dedup_by(|row, last| join_into(last, row));
    }

    /// All subscription ids whose constraint on this attribute is
    /// satisfied by the value `v` — the `Check_for_a_value_match
    /// (type arithmetic)` procedure of §3.3: scan the sub-ranges first,
    /// then the equality values.
    pub fn query(&self, v: Num) -> IdList {
        let mut out = IdList::new();
        self.query_into(v, &mut out);
        out
    }

    /// As [`RangeSummary::query`], appending into a caller buffer (hot
    /// path for the matcher).
    ///
    /// Returns the honest probe cost for the §5.2.4 accounting:
    /// `rows_touched` counts the `⌈log₂ n_sr⌉ + 1` comparisons of the
    /// binary search over the sub-range partition plus one equality-map
    /// probe when AACS_E is non-empty; `rows_pruned` counts the rows a
    /// naive linear scan would have visited but the searches skipped.
    pub fn query_into(&self, v: Num, out: &mut IdList) -> QueryCost {
        let mut cost = QueryCost::default();
        if !self.ranges.is_empty() {
            // Binary search over the disjoint sorted rows.
            let probes = (usize::BITS - self.ranges.len().leading_zeros()) as usize;
            cost.rows_touched += probes;
            cost.rows_pruned += self.ranges.len().saturating_sub(probes);
            let idx = self
                .ranges
                .partition_point(|row| upper_below(&row.interval, v));
            if let Some(row) = self.ranges.get(idx) {
                if row.interval.contains(v) {
                    out.extend_from_slice(&row.ids);
                }
            }
        }
        if !self.points.is_empty() {
            cost.rows_touched += 1;
            cost.rows_pruned += self.points.len() - 1;
            if let Some(list) = self.points.get(&v) {
                out.extend_from_slice(list);
            }
        }
        cost
    }

    /// Removes every occurrence of `id`, dropping empty rows and joining
    /// the neighbours the removal left equal. The dense space is left
    /// unchanged: the owning summary marks the id's intern slot dead.
    pub fn remove(&mut self, id: DenseId) {
        let mut touched = false;
        for row in &mut self.ranges {
            if let Ok(pos) = row.ids.binary_search(&id) {
                row.ids.remove(pos);
                touched = true;
            }
        }
        // Rows are kept coalesced, so only a removal can make two
        // neighbours equal.
        if touched {
            self.ranges.retain(|r| !r.ids.is_empty());
            self.coalesce();
        }
        self.points.retain(|_, list| {
            if let Ok(pos) = list.binary_search(&id) {
                list.remove(pos);
            }
            !list.is_empty()
        });
    }

    /// Applies a strictly monotone dense-id renumbering to every posting
    /// list (intern-table growth, compaction or merge translation).
    pub(crate) fn remap_ids(&mut self, map: impl Fn(DenseId) -> DenseId + Copy) {
        for row in &mut self.ranges {
            idlist_remap(&mut row.ids, map);
        }
        for list in self.points.values_mut() {
            idlist_remap(list, map);
        }
    }

    /// Merges another attribute summary into this one (multi-broker
    /// summaries, §4.1: "values for the same numeric attributes are simply
    /// merged"). Both sides must already share one dense id space; the
    /// broker summary guarantees this by translating the incoming
    /// summary's ids through its merged intern table first.
    pub fn merge(&mut self, other: &RangeSummary) {
        for row in &other.ranges {
            self.insert_interval_ids(row.interval, &row.ids);
        }
        for (v, ids) in &other.points {
            let list = self.points.entry(*v).or_default();
            idlist_merge(list, ids);
        }
    }

    /// Iterates over every subscription id mentioned in this summary
    /// (with repetition across rows).
    pub fn all_ids(&self) -> impl Iterator<Item = DenseId> + '_ {
        self.ranges
            .iter()
            .flat_map(|r| r.ids.iter().copied())
            .chain(self.points.values().flat_map(|l| l.iter().copied()))
    }

    /// Checks the deep structural invariants of the summary. Compiled
    /// only for tests and debug builds; the property tests call it after
    /// every insertion, merge, removal and wire round-trip.
    ///
    /// Invariants:
    ///
    /// * AACS_SR rows form a disjoint partition sorted by lower bound
    ///   (§3.1, Fig. 4);
    /// * no row is empty or degenerate — point rows live in AACS_E;
    /// * every id list (rows and equality values) is non-empty, sorted
    ///   and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    #[cfg(any(test, debug_assertions))]
    pub fn validate(&self) {
        use crate::idlist::validate_idlist;
        for pair in self.ranges.windows(2) {
            assert!(
                cmp_lo(&pair[0].interval, &pair[1].interval) == std::cmp::Ordering::Less,
                "AACS_SR rows out of order: {} then {}",
                pair[0].interval,
                pair[1].interval
            );
            assert!(
                pair[0].interval.intersect(&pair[1].interval).is_empty(),
                "AACS_SR rows overlap: {} and {}",
                pair[0].interval,
                pair[1].interval
            );
        }
        for row in &self.ranges {
            assert!(!row.interval.is_empty(), "empty AACS_SR row interval");
            assert!(
                row.interval.as_point().is_none(),
                "degenerate AACS_SR row {} belongs in AACS_E",
                row.interval
            );
            assert!(
                !row.ids.is_empty(),
                "AACS_SR row {} has no ids",
                row.interval
            );
            validate_idlist(&row.ids);
        }
        for (v, ids) in &self.points {
            assert!(!ids.is_empty(), "AACS_E row {v} has no ids");
            validate_idlist(ids);
        }
        // Per-id range/point disjointness: an id never carries both a
        // sub-range row containing a value and an equality row at that
        // value. IntervalSet normalization guarantees this at insert
        // time (a point adjacent to a range unions into it), and the
        // decoder refuses a stream that breaks it; the compiled plan's
        // probe relies on it to skip per-attribute dedup on arithmetic
        // banks.
        let shared = self.point_inside_shared_range();
        assert!(
            shared.is_none(),
            "an id appears in AACS_E and in the AACS_SR row covering that value \
             (value, dense id, row): {shared:?}"
        );
    }
}

/// Appends `row` to sorted, disjoint `rows`, joining it to the last row
/// when the two carry the same ids and their union is one interval.
fn push_coalesced(rows: &mut Vec<RangeRow>, row: RangeRow) {
    if !rows.last_mut().is_some_and(|last| join_into(last, &row)) {
        rows.push(row);
    }
}

/// Widens `last` over the next row `row` when the two carry the same
/// ids and their union is one interval; returns whether it did.
fn join_into(last: &mut RangeRow, row: &RangeRow) -> bool {
    if last.ids != row.ids {
        return false;
    }
    let union =
        IntervalSet::from_interval(last.interval).union(&IntervalSet::from_interval(row.interval));
    let mut parts = union.iter();
    if let (Some(&merged), None) = (parts.next(), parts.next()) {
        last.interval = merged;
        return true;
    }
    false
}

/// `true` if the interval lies entirely below `v`.
fn upper_below(iv: &Interval, v: Num) -> bool {
    match iv.hi() {
        subsum_types::UpperBound::PosInf => false,
        subsum_types::UpperBound::Incl(b) => b < v,
        subsum_types::UpperBound::Excl(b) => b <= v,
    }
}

/// The complement of an interval as an interval set.
fn interval_complement(iv: &Interval) -> IntervalSet {
    let mut parts = Vec::with_capacity(2);
    for p in Interval::ALL.subtract(iv) {
        parts.push(p);
    }
    parts.into_iter().fold(IntervalSet::empty(), |acc, p| {
        acc.union(&IntervalSet::from_interval(p))
    })
}

fn cmp_lo(a: &Interval, b: &Interval) -> std::cmp::Ordering {
    // Disjoint intervals order by any interior point; compare by lower
    // bound key (NegInf first, then value, exclusive after inclusive).
    fn key(iv: &Interval) -> (bool, Option<(Num, u8)>) {
        match iv.lo() {
            subsum_types::LowerBound::NegInf => (false, None),
            subsum_types::LowerBound::Incl(v) => (true, Some((v, 0))),
            subsum_types::LowerBound::Excl(v) => (true, Some((v, 1))),
        }
    }
    key(a).cmp(&key(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: f64) -> Num {
        Num::new(v).unwrap()
    }

    /// Standalone-structure tests use small integers as dense ids
    /// directly; the intern-table mapping is the broker summary's job.
    fn id(k: u32) -> DenseId {
        k
    }

    #[test]
    fn paper_fig4_example() {
        let mut aacs = RangeSummary::new();
        aacs.insert_interval(Interval::open(n(8.30), n(8.70)), id(1));
        aacs.insert_point(n(8.20), id(2));
        assert_eq!(aacs.range_rows(), 1);
        assert_eq!(aacs.point_rows(), 1);
        assert_eq!(aacs.query(n(8.40)), vec![id(1)]);
        assert_eq!(aacs.query(n(8.20)), vec![id(2)]);
        assert!(aacs.query(n(8.30)).is_empty());
        assert!(aacs.query(n(8.70)).is_empty());
    }

    #[test]
    fn overlapping_ranges_split_exactly() {
        let mut aacs = RangeSummary::new();
        aacs.insert_interval(Interval::closed(n(1.0), n(5.0)), id(1));
        aacs.insert_interval(Interval::closed(n(3.0), n(8.0)), id(2));
        assert_eq!(aacs.range_rows(), 3);
        assert_eq!(aacs.query(n(2.0)), vec![id(1)]);
        assert_eq!(aacs.query(n(4.0)), vec![id(1), id(2)]);
        assert_eq!(aacs.query(n(6.0)), vec![id(2)]);
        assert!(aacs.query(n(9.0)).is_empty());
    }

    #[test]
    fn identical_ranges_share_one_row() {
        let mut aacs = RangeSummary::new();
        let iv = Interval::open(n(0.0), n(1.0));
        aacs.insert_interval(iv, id(1));
        aacs.insert_interval(iv, id(2));
        aacs.insert_interval(iv, id(3));
        assert_eq!(aacs.range_rows(), 1);
        assert_eq!(aacs.id_list_len(), 3);
        assert_eq!(aacs.query(n(0.5)), vec![id(1), id(2), id(3)]);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut aacs = RangeSummary::new();
        let iv = Interval::open(n(0.0), n(1.0));
        aacs.insert_interval(iv, id(1));
        aacs.insert_interval(iv, id(1));
        assert_eq!(aacs.id_list_len(), 1);
        aacs.insert_point(n(5.0), id(1));
        aacs.insert_point(n(5.0), id(1));
        assert_eq!(aacs.point_rows(), 1);
        assert_eq!(aacs.query(n(5.0)), vec![id(1)]);
    }

    #[test]
    fn nested_range_splits_into_three() {
        let mut aacs = RangeSummary::new();
        aacs.insert_interval(Interval::closed(n(0.0), n(10.0)), id(1));
        aacs.insert_interval(Interval::closed(n(4.0), n(6.0)), id(2));
        assert_eq!(aacs.range_rows(), 3);
        assert_eq!(aacs.query(n(5.0)), vec![id(1), id(2)]);
        assert_eq!(aacs.query(n(1.0)), vec![id(1)]);
        assert_eq!(aacs.query(n(7.0)), vec![id(1)]);
    }

    #[test]
    fn point_interval_goes_to_aacse() {
        let mut aacs = RangeSummary::new();
        aacs.insert_interval(Interval::closed(n(3.0), n(3.0)), id(1));
        assert_eq!(aacs.range_rows(), 0);
        assert_eq!(aacs.point_rows(), 1);
        assert_eq!(aacs.query(n(3.0)), vec![id(1)]);
    }

    #[test]
    fn interval_set_with_hole() {
        // volume ≠ 130000.
        let mut aacs = RangeSummary::new();
        let set = IntervalSet::all().without_point(n(130000.0));
        aacs.insert_set(&set, id(2));
        assert!(aacs.query(n(130000.0)).is_empty());
        assert_eq!(aacs.query(n(132700.0)), vec![id(2)]);
        assert_eq!(aacs.query(n(0.0)), vec![id(2)]);
    }

    #[test]
    fn removal_drops_rows_and_recoalesces() {
        let mut aacs = RangeSummary::new();
        aacs.insert_interval(Interval::closed(n(0.0), n(10.0)), id(1));
        aacs.insert_interval(Interval::closed(n(4.0), n(6.0)), id(2));
        aacs.insert_point(n(20.0), id(2));
        assert_eq!(aacs.range_rows(), 3);
        aacs.remove(id(2));
        // The three fragments of id(1) coalesce back into one row.
        assert_eq!(aacs.range_rows(), 1);
        assert_eq!(aacs.point_rows(), 0);
        assert_eq!(aacs.query(n(5.0)), vec![id(1)]);
        aacs.remove(id(1));
        assert!(aacs.is_empty());
    }

    #[test]
    fn remap_renumbers_all_rows() {
        let mut aacs = RangeSummary::new();
        aacs.insert_interval(Interval::closed(n(0.0), n(5.0)), id(0));
        aacs.insert_point(n(9.0), id(1));
        // Open a hole at slot 1 (a new id interned in the middle).
        aacs.remap_ids(|d| if d >= 1 { d + 1 } else { d });
        assert_eq!(aacs.query(n(1.0)), vec![id(0)]);
        assert_eq!(aacs.query(n(9.0)), vec![id(2)]);
        aacs.validate();
    }

    #[test]
    fn merge_combines_summaries() {
        let mut a = RangeSummary::new();
        a.insert_interval(Interval::closed(n(0.0), n(5.0)), id(1));
        a.insert_point(n(9.0), id(1));
        let mut b = RangeSummary::new();
        b.insert_interval(Interval::closed(n(3.0), n(8.0)), id(2));
        b.insert_point(n(9.0), id(2));
        a.merge(&b);
        assert_eq!(a.query(n(4.0)), vec![id(1), id(2)]);
        assert_eq!(a.query(n(9.0)), vec![id(1), id(2)]);
        assert_eq!(a.query(n(7.0)), vec![id(2)]);
    }

    /// Rows inserted in ascending order take the append path, the same
    /// rows in descending order the splitting one: both build the same
    /// partition, adjacent rows with equal ids joined into one.
    #[test]
    fn ascending_inserts_build_what_descending_ones_do() {
        use rand::Rng;
        use subsum_types::{LowerBound, UpperBound};
        rand::check::check(
            "ascending_inserts_build_what_descending_ones_do",
            256,
            |g| {
                let mut rows: Vec<(Interval, IdList)> = Vec::new();
                let mut lo = g.gen_range(-8i32..0);
                for _ in 0..g.gen_range(1..10) {
                    let hi = lo + g.gen_range(1..4);
                    let lower = if g.gen() {
                        LowerBound::Incl(n(lo.into()))
                    } else {
                        LowerBound::Excl(n(lo.into()))
                    };
                    let iv = Interval::new(lower, UpperBound::Excl(n(hi.into())));
                    let ids = match g.gen_range(0..3) {
                        0 => vec![id(1)],
                        1 => vec![id(2)],
                        _ => vec![id(1), id(2)],
                    };
                    rows.push((iv, ids));
                    lo = hi + g.gen_range(0..2);
                }
                if g.gen() {
                    rows[0].0 = Interval::new(LowerBound::NegInf, rows[0].0.hi());
                }
                if let Some(last) = rows.last_mut().filter(|_| g.gen()) {
                    last.0 = Interval::new(last.0.lo(), UpperBound::PosInf);
                }
                let mut ascending = RangeSummary::new();
                for (iv, ids) in &rows {
                    ascending.insert_interval_ids(*iv, ids);
                }
                let mut descending = RangeSummary::new();
                for (iv, ids) in rows.iter().rev() {
                    descending.insert_interval_ids(*iv, ids);
                }
                ascending.validate();
                assert_eq!(ascending, descending);
            },
        );
    }

    #[test]
    fn query_with_many_disjoint_rows() {
        let mut aacs = RangeSummary::new();
        for k in 0..100u32 {
            let lo = n(k as f64 * 10.0);
            let hi = n(k as f64 * 10.0 + 5.0);
            aacs.insert_interval(Interval::closed(lo, hi), id(k));
        }
        assert_eq!(aacs.range_rows(), 100);
        assert_eq!(aacs.query(n(503.0)), vec![id(50)]);
        assert!(aacs.query(n(507.0)).is_empty());
        assert_eq!(aacs.query(n(0.0)), vec![id(0)]);
        assert_eq!(aacs.query(n(995.0)), vec![id(99)]);
    }

    #[test]
    fn query_cost_reports_probes_and_pruning() {
        let mut aacs = RangeSummary::new();
        for k in 0..8u32 {
            let lo = n(k as f64 * 10.0);
            let hi = n(k as f64 * 10.0 + 5.0);
            aacs.insert_interval(Interval::closed(lo, hi), id(k));
        }
        aacs.insert_point(n(777.0), id(8));
        let mut out = IdList::new();
        let cost = aacs.query_into(n(42.0), &mut out);
        // ⌈log₂ 8⌉ + 1 = 4 binary-search comparisons plus 1 AACS_E probe.
        assert_eq!(cost.rows_touched, 5);
        // 8 − 4 range rows skipped plus 1 − 1 equality rows skipped.
        assert_eq!(cost.rows_pruned, 4);
        let empty = RangeSummary::new();
        assert_eq!(empty.query_into(n(1.0), &mut out), QueryCost::default());
    }

    #[test]
    fn validate_accepts_every_mutation_path() {
        let mut aacs = RangeSummary::new();
        aacs.validate();
        aacs.insert_interval(Interval::closed(n(0.0), n(10.0)), id(1));
        aacs.insert_interval(Interval::open(n(4.0), n(6.0)), id(2));
        aacs.insert_point(n(20.0), id(3));
        aacs.validate();
        let mut other = RangeSummary::new();
        other.insert_interval(Interval::greater_than(n(8.0)), id(4));
        aacs.merge(&other);
        aacs.validate();
        aacs.remove(id(2));
        aacs.validate();
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn validate_rejects_overlapping_partition() {
        let mut aacs = RangeSummary::new();
        aacs.insert_interval(Interval::closed(n(0.0), n(5.0)), id(1));
        // Corrupt the partition behind the API's back: a second row
        // overlapping the first.
        aacs.ranges.push(RangeRow {
            interval: Interval::closed(n(3.0), n(8.0)),
            ids: vec![id(2)],
        });
        aacs.validate();
    }

    #[test]
    #[should_panic(expected = "not strictly sorted")]
    fn validate_rejects_unsorted_id_list() {
        let mut aacs = RangeSummary::new();
        aacs.insert_interval(Interval::closed(n(0.0), n(5.0)), id(1));
        aacs.ranges[0].ids = vec![id(2), id(1)];
        aacs.validate();
    }

    #[test]
    fn unbounded_ranges() {
        let mut aacs = RangeSummary::new();
        aacs.insert_interval(Interval::greater_than(n(130000.0)), id(2));
        aacs.insert_interval(Interval::less_than(n(8.05)), id(3));
        assert_eq!(aacs.query(n(1e9)), vec![id(2)]);
        assert_eq!(aacs.query(n(-1e9)), vec![id(3)]);
        assert!(aacs.query(n(100.0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "appears in AACS_E")]
    fn validate_rejects_point_inside_same_ids_range() {
        let mut aacs = RangeSummary::new();
        aacs.insert_interval(Interval::closed(n(0.0), n(10.0)), id(1));
        // A point for the same id inside its own range row can never
        // arise from normalized interval sets; injected directly, it
        // must be rejected — the compiled plan's dedup-free arithmetic
        // probe depends on it.
        aacs.points.insert(n(5.0), vec![id(1)]);
        aacs.validate();
    }

    #[test]
    fn churn_leaves_no_empty_rows_and_restores_structure() {
        // Regression guard for removal's row compaction: churn
        // (insert → remove → re-insert) must leave validate()-clean
        // structures with no empty rows or point entries, and removing
        // everything one side inserted must restore the exact structure
        // (digest equality is asserted at the broker-summary level by
        // the property tests; structural equality here is stronger).
        let build_base = || {
            let mut aacs = RangeSummary::new();
            aacs.insert_interval(Interval::closed(n(0.0), n(10.0)), id(1));
            aacs.insert_interval(Interval::open(n(2.0), n(4.0)), id(3));
            aacs.insert_point(n(20.0), id(5));
            aacs
        };
        let base = build_base();
        let mut churned = build_base();
        // Splitting insert, then full removal of the splitter.
        churned.insert_interval(Interval::closed(n(3.0), n(12.0)), id(2));
        churned.insert_point(n(30.0), id(2));
        churned.validate();
        churned.remove(id(2));
        churned.validate();
        for row in churned.ranges() {
            assert!(!row.ids.is_empty(), "empty row survived churn");
        }
        assert!(
            churned.points().all(|(_, ids)| !ids.is_empty()),
            "empty point entry survived churn"
        );
        assert_eq!(churned, base, "removal did not restore the structure");
        // Re-insert after removal: same structure as inserting fresh.
        churned.insert_interval(Interval::closed(n(3.0), n(12.0)), id(2));
        churned.validate();
        let mut fresh = build_base();
        fresh.insert_interval(Interval::closed(n(3.0), n(12.0)), id(2));
        assert_eq!(churned, fresh, "re-insert after removal diverged");
    }
}
