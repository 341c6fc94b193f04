//! SACS — String Attribute Constraint Summaries (paper §3.1, Fig. 5).
//!
//! For each string attribute a broker keeps an array of *general
//! constraints*: glob patterns, each of which may cover (subsume) one or
//! more of the constraints submitted by subscriptions. Per the paper:
//!
//! * if a new constraint is covered by an existing row, its subscription
//!   id is simply added to that row's id list;
//! * if a more general constraint arrives, it *substitutes* the rows it
//!   covers (their id lists merge into the new row);
//! * otherwise a new row is added.
//!
//! SACS is deliberately lossy: a row's pattern may be strictly more
//! general than some constraints whose ids it carries (`m*t` standing in
//! for `microsoft`), so matching against SACS can produce **false
//! positives but never false negatives**. The home broker re-verifies
//! candidate matches against its exact subscription store (see
//! `subsum-broker`).
//!
//! # Representation
//!
//! Rows are stored in two groups: wildcard-free rows in a hash map keyed
//! by their literal (equality constraints dominate real workloads, and
//! this makes their insertion, merging and querying `O(1)`), and rows
//! with wildcards in a vector. The covering invariant — no row's pattern
//! covers another row's — holds across both groups.
//!
//! # The pattern index
//!
//! Wildcard rows are additionally indexed by their *anchor bytes* so a
//! query only tests rows whose anchors can possibly match the value:
//!
//! * rows whose pattern is anchored at the start (`OT*`, `a*c`) are
//!   bucketed by the first byte of their first literal segment — a value
//!   `s` can only match them if `s` starts with that byte;
//! * rows anchored only at the end (`*SE`) are bucketed by the last byte
//!   of their last literal segment — `s` must end with that byte;
//! * rows with no usable anchor (`*a*`, the universal pattern) live in a
//!   residual bucket that every query tests.
//!
//! The same buckets prune the covering checks on insertion and merging:
//! a row can only *cover* a start-anchored pattern if it is itself
//! start-anchored on the same first byte (or unanchored), symmetrically
//! for end anchors, so only those buckets are probed. The substitution
//! path (a new pattern absorbing the rows it covers) remains a full scan:
//! it fires rarely and must visit every absorbed row anyway.
//!
//! The index holds row *positions* and is rebuilt whenever rows are
//! retained/removed; it is a pure function of the row vector, so derived
//! equality stays consistent and the wire decoder reconstructs it.

use std::collections::HashMap;

use subsum_telemetry::Count;
use subsum_types::Pattern;

use crate::idlist::{idlist_merge, idlist_remap, idlist_remove_remap, DenseId, IdList};

/// Wildcard rows tested because an index bucket selected them (plus
/// literal-map hits), across all queries.
static CNT_INDEX_HITS: Count = Count::new(subsum_telemetry::names::SACS_INDEX_HITS);
/// Wildcard rows skipped by the anchor buckets, across all queries — the
/// work the flat scan of the pre-index matcher would have done.
static CNT_ROWS_PRUNED: Count = Count::new(subsum_telemetry::names::SACS_ROWS_PRUNED);

/// Records one query's cost into the global SACS index counters. The
/// compiled-plan probe path performs candidate selection itself and
/// calls this to keep `sacs.index_hits` / `sacs.rows_pruned` honest
/// across both matchers.
pub(crate) fn record_query_cost(cost: QueryCost) {
    CNT_INDEX_HITS.add(cost.rows_touched as u64);
    CNT_ROWS_PRUNED.add(cost.rows_pruned as u64);
}

/// One row of a SACS array: a general constraint and the ids of the
/// subscriptions it stands for.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternRow {
    /// The row's general constraint.
    pub pattern: Pattern,
    /// Subscriptions whose constraint on this attribute is covered by
    /// the row's pattern (dense ids, sorted).
    pub ids: IdList,
}

/// The work one indexed SACS probe of the compiled plan performed, for
/// the honest §5.2.4 cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryCost {
    /// Rows actually probed: the literal-map probe (when the map is
    /// non-empty) plus every wildcard row an index bucket selected.
    pub rows_touched: usize,
    /// Wildcard rows the index skipped without testing.
    pub rows_pruned: usize,
}

/// Anchor-byte buckets over the wildcard-row positions.
#[derive(Debug, Clone, PartialEq, Default)]
struct PatternIndex {
    /// Positions of start-anchored rows, keyed by the first byte of the
    /// first literal segment.
    prefix: HashMap<u8, Vec<usize>>,
    /// Positions of rows anchored only at the end, keyed by the last
    /// byte of the last literal segment.
    suffix: HashMap<u8, Vec<usize>>,
    /// Positions of rows with no usable anchor (incl. the universal
    /// pattern).
    residual: Vec<usize>,
}

impl PatternIndex {
    fn insert(&mut self, pos: usize, pattern: &Pattern) {
        if pattern.anchored_start() {
            if let Some(&b) = pattern
                .segments()
                .first()
                .and_then(|s| s.as_bytes().first())
            {
                self.prefix.entry(b).or_default().push(pos);
                return;
            }
        } else if pattern.anchored_end() {
            if let Some(&b) = pattern.segments().last().and_then(|s| s.as_bytes().last()) {
                self.suffix.entry(b).or_default().push(pos);
                return;
            }
        }
        self.residual.push(pos);
    }

    fn rebuild(&mut self, rows: &[PatternRow]) {
        self.prefix.clear();
        self.suffix.clear();
        self.residual.clear();
        for (pos, row) in rows.iter().enumerate() {
            self.insert(pos, &row.pattern);
        }
    }

    /// Positions of every row that could match the value `s`: the prefix
    /// bucket of `s`'s first byte, the suffix bucket of its last byte,
    /// and the residual bucket. Anchored rows have non-empty segments, so
    /// the empty value is served by the residual bucket alone.
    fn value_candidates(&self, s: &str) -> impl Iterator<Item = usize> + '_ {
        let first = s.as_bytes().first().and_then(|b| self.prefix.get(b));
        let last = s.as_bytes().last().and_then(|b| self.suffix.get(b));
        first
            .into_iter()
            .flatten()
            .chain(last.into_iter().flatten())
            .chain(self.residual.iter())
            .copied()
    }

    /// Positions of every row that could *cover* the wildcard pattern
    /// `p`. A start-anchored coverer's first segment must be a prefix of
    /// `p`'s (same first byte), so only `p`'s own prefix bucket applies —
    /// and only when `p` is start-anchored itself, since a start-anchored
    /// row never covers a pattern that can start arbitrarily.
    /// Symmetrically for end anchors; residual rows can cover anything.
    fn coverer_candidates(&self, p: &Pattern) -> impl Iterator<Item = usize> + '_ {
        let pref = if p.anchored_start() {
            p.segments()
                .first()
                .and_then(|s| s.as_bytes().first())
                .and_then(|b| self.prefix.get(b))
        } else {
            None
        };
        let suf = if p.anchored_end() {
            p.segments()
                .last()
                .and_then(|s| s.as_bytes().last())
                .and_then(|b| self.suffix.get(b))
        } else {
            None
        };
        pref.into_iter()
            .flatten()
            .chain(suf.into_iter().flatten())
            .chain(self.residual.iter())
            .copied()
    }
}

/// The string constraint summary for a single attribute.
///
/// Rows are kept pairwise incomparable under [`Pattern::covers`]: on
/// insertion, a covered constraint joins its covering row, and a covering
/// constraint absorbs every row it covers.
///
/// Rows carry dense ids (`u32` indices into the owning broker summary's
/// intern table); a standalone `PatternSummary` treats them as opaque
/// ordered integers.
///
/// # Example
///
/// ```
/// use subsum_core::PatternSummary;
/// use subsum_types::Pattern;
/// let mut sacs = PatternSummary::new();
/// sacs.insert(Pattern::literal("microsoft"), 1);
/// sacs.insert(Pattern::parse("m*t").unwrap(), 2);
/// // "m*t" covers "microsoft": one row remains, carrying both ids.
/// assert_eq!(sacs.row_count(), 1);
/// assert_eq!(sacs.query_scan("micronet"), vec![1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PatternSummary {
    /// Wildcard-free rows, keyed by their literal value.
    literals: HashMap<String, IdList>,
    /// Rows containing wildcards, in insertion order.
    patterns: Vec<PatternRow>,
    /// Anchor-byte index over `patterns` (derived state; rebuilt by
    /// the wire decoder and after row removals). The `lint: derived` tag
    /// makes `cargo xtask check` reject any reference to this field from
    /// the wire codec.
    index: PatternIndex, // lint: derived
}

impl PatternSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        PatternSummary::default()
    }

    /// Returns `true` if no constraint has been summarized.
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty() && self.patterns.is_empty()
    }

    /// The number of rows (`n_r` in the paper's size equations).
    pub fn row_count(&self) -> usize {
        self.literals.len() + self.patterns.len()
    }

    /// Iterates over all rows in a deterministic order: wildcard rows in
    /// insertion order, then literal rows sorted by value.
    pub fn rows(&self) -> impl Iterator<Item = (Pattern, &IdList)> {
        let mut lits: Vec<(&String, &IdList)> = self.literals.iter().collect();
        lits.sort_by(|a, b| a.0.cmp(b.0));
        self.patterns
            .iter()
            .map(|r| (r.pattern.clone(), &r.ids))
            .chain(
                lits.into_iter()
                    .map(|(s, ids)| (Pattern::literal(s.clone()), ids)),
            )
    }

    /// Total id-list length across rows (`L_s` in the size equations).
    pub fn id_list_len(&self) -> usize {
        self.literals.values().map(Vec::len).sum::<usize>()
            + self.patterns.iter().map(|r| r.ids.len()).sum::<usize>()
    }

    /// Total rendered byte length of all row patterns (realizes the
    /// `Σ n_r · s_sv` term of Eq. (2) for the actual strings stored).
    pub fn pattern_bytes(&self) -> usize {
        self.literals.keys().map(String::len).sum::<usize>()
            + self
                .patterns
                .iter()
                .map(|r| r.pattern.wire_size())
                .sum::<usize>()
    }

    /// Summarizes a constraint for subscription `id`.
    pub fn insert(&mut self, pattern: Pattern, id: DenseId) {
        self.insert_ids(pattern, &[id]);
    }

    /// As [`PatternSummary::insert`] with several ids (used by merging).
    pub fn insert_ids(&mut self, pattern: Pattern, ids: &[DenseId]) {
        if ids.is_empty() {
            return;
        }
        if let Some(lit) = pattern.as_literal() {
            // Covered by a wildcard row: join it. Only rows in the
            // value's anchor buckets can match the literal.
            if let Some(pos) = self
                .index
                .value_candidates(lit)
                .find(|&i| self.patterns[i].pattern.matches(lit))
            {
                idlist_merge(&mut self.patterns[pos].ids, ids);
                return;
            }
            // Exact literal row (or a new one).
            let lit = lit.to_owned();
            idlist_merge(self.literals.entry(lit).or_default(), ids);
            return;
        }
        // A wildcard pattern. Covered by an existing wildcard row: join.
        if let Some(pos) = self
            .index
            .coverer_candidates(&pattern)
            .find(|&i| self.patterns[i].pattern.covers(&pattern))
        {
            idlist_merge(&mut self.patterns[pos].ids, ids);
            return;
        }
        // The new constraint substitutes every row it covers. This is
        // the rare path and must visit every absorbed row, so it stays a
        // full scan; the index is rebuilt over the survivors.
        let mut merged: IdList = ids.to_vec();
        merged.sort();
        merged.dedup();
        let before = self.patterns.len();
        self.patterns.retain(|row| {
            if pattern.covers(&row.pattern) {
                idlist_merge(&mut merged, &row.ids);
                false
            } else {
                true
            }
        });
        self.literals.retain(|lit, row_ids| {
            if pattern.matches(lit) {
                idlist_merge(&mut merged, row_ids);
                false
            } else {
                true
            }
        });
        let absorbed = before != self.patterns.len();
        self.patterns.push(PatternRow {
            pattern: pattern.clone(),
            ids: merged,
        });
        if absorbed {
            self.index.rebuild(&self.patterns);
        } else {
            self.index.insert(self.patterns.len() - 1, &pattern);
        }
    }

    /// Positions of every wildcard row the anchor index selects for the
    /// value `s`. Compiled-plan probe path: the plan stores only the
    /// wildcard rows' posting runs and borrows candidate selection and
    /// the pattern tests from the summary it was compiled from.
    pub(crate) fn plan_candidates(&self, s: &str) -> impl Iterator<Item = usize> + '_ {
        self.index.value_candidates(s)
    }

    /// Whether wildcard row `pos` matches the value `s` (compiled-plan
    /// probe path).
    pub(crate) fn pattern_matches(&self, pos: usize, s: &str) -> bool {
        self.patterns[pos].pattern.matches(s)
    }

    /// Whether any literal row exists (compiled-plan probe path: the
    /// cost model charges one literal-map probe when it does).
    pub(crate) fn has_literals(&self) -> bool {
        !self.literals.is_empty()
    }

    /// The postings of the literal row equal to `s`, empty when there is
    /// none (compiled-plan probe path: literal rows are not compiled).
    pub(crate) fn literal_postings(&self, s: &str) -> &[DenseId] {
        self.literals.get(s).map_or(&[], Vec::as_slice)
    }

    /// Wildcard-row posting lists in row order (parallel to the
    /// compiled `StringBank::wild_runs` rows).
    pub(crate) fn wildcard_postings(&self) -> impl Iterator<Item = &IdList> {
        self.patterns.iter().map(|r| &r.ids)
    }

    /// All subscription ids whose summarized constraint is satisfied by
    /// the value `s` — the `Check_for_a_value_match (type string)`
    /// procedure of §3.3 — as a flat scan over every wildcard row,
    /// bypassing the pattern index. The string half of
    /// [`crate::BrokerSummary::match_event_scan`], the oracle the
    /// compiled plan's indexed probe is tested against.
    ///
    /// The output may contain duplicate ids when a subscription holds
    /// several constraints on this attribute.
    pub fn query_scan(&self, s: &str) -> IdList {
        let mut out = IdList::new();
        self.query_scan_into(s, &mut out);
        out
    }

    /// As [`PatternSummary::query_scan`], appending into a caller buffer.
    pub fn query_scan_into(&self, s: &str, out: &mut IdList) {
        if let Some(ids) = self.literals.get(s) {
            out.extend_from_slice(ids);
        }
        for row in &self.patterns {
            if row.pattern.matches(s) {
                out.extend_from_slice(&row.ids);
            }
        }
    }

    /// Removes every occurrence of `id`, dropping empty rows.
    ///
    /// Removal never *narrows* rows: a row generalized by a departed
    /// subscription keeps its pattern (no false negatives are possible;
    /// extra generality only costs precision until a rebuild). The dense
    /// space is left unchanged — use [`PatternSummary::remove_remap`]
    /// when the intern table slot itself is being vacated.
    pub fn remove(&mut self, id: DenseId) {
        self.literals.retain(|_, ids| {
            if let Ok(pos) = ids.binary_search(&id) {
                ids.remove(pos);
            }
            !ids.is_empty()
        });
        for row in &mut self.patterns {
            if let Ok(pos) = row.ids.binary_search(&id) {
                row.ids.remove(pos);
            }
        }
        let before = self.patterns.len();
        self.patterns.retain(|r| !r.ids.is_empty());
        if self.patterns.len() != before {
            self.index.rebuild(&self.patterns);
        }
    }

    /// Removes `gone` from every posting list and decrements every dense
    /// id above it — one pass over all postings, performed when the
    /// owning summary drops slot `gone` from its intern table.
    pub(crate) fn remove_remap(&mut self, gone: DenseId) {
        self.literals.retain(|_, ids| {
            idlist_remove_remap(ids, gone);
            !ids.is_empty()
        });
        for row in &mut self.patterns {
            idlist_remove_remap(&mut row.ids, gone);
        }
        let before = self.patterns.len();
        self.patterns.retain(|r| !r.ids.is_empty());
        if self.patterns.len() != before {
            self.index.rebuild(&self.patterns);
        }
    }

    /// Applies a strictly monotone dense-id renumbering to every posting
    /// list (intern-table growth or merge translation).
    pub(crate) fn remap_ids(&mut self, map: impl Fn(DenseId) -> DenseId + Copy) {
        for ids in self.literals.values_mut() {
            idlist_remap(ids, map);
        }
        for row in &mut self.patterns {
            idlist_remap(&mut row.ids, map);
        }
    }

    /// The shard-derivation view of this summary: the same rows with
    /// posting lists restricted to dense ids `[lo, hi)` and rebased to
    /// `d - lo`, empty rows dropped, index rebuilt. Returns `None` when
    /// nothing survives.
    ///
    /// This deliberately does **not** re-insert patterns (row formation
    /// is insertion-order dependent under covering): the filtered view
    /// keeps the flat summary's exact row structure, so a value matches
    /// a shard row iff it matches the corresponding flat row — the
    /// sharded matcher inherits the flat matcher's candidate set (false
    /// positives included) split by id range. Row subsets also inherit
    /// every [`PatternSummary::validate`] invariant (incomparability and
    /// literal/wildcard disjointness only shrink).
    pub(crate) fn filter_rebase(&self, lo: DenseId, hi: DenseId) -> Option<PatternSummary> {
        let mut out = PatternSummary::new();
        for (lit, ids) in &self.literals {
            let slice = crate::idlist::idlist_range_slice(ids, lo, hi);
            if !slice.is_empty() {
                out.literals
                    .insert(lit.clone(), slice.iter().map(|&d| d - lo).collect());
            }
        }
        for row in &self.patterns {
            let slice = crate::idlist::idlist_range_slice(&row.ids, lo, hi);
            if !slice.is_empty() {
                out.patterns.push(PatternRow {
                    pattern: row.pattern.clone(),
                    ids: slice.iter().map(|&d| d - lo).collect(),
                });
            }
        }
        if out.is_empty() {
            return None;
        }
        out.index.rebuild(&out.patterns);
        Some(out)
    }

    /// Merges another attribute summary into this one (multi-broker
    /// summaries, §4.1: the union of the rows, re-normalized under
    /// covering). Both sides must already share one dense id space; the
    /// broker summary guarantees this by translating the incoming
    /// summary's ids through its merged intern table first.
    pub fn merge(&mut self, other: &PatternSummary) {
        for row in &other.patterns {
            self.insert_ids(row.pattern.clone(), &row.ids);
        }
        for (lit, ids) in &other.literals {
            // Fast path: if no wildcard row covers the literal, merge
            // directly into the literal map. Only anchor-bucket rows can
            // match the literal.
            if let Some(pos) = self
                .index
                .value_candidates(lit)
                .find(|&i| self.patterns[i].pattern.matches(lit))
            {
                idlist_merge(&mut self.patterns[pos].ids, ids);
            } else {
                idlist_merge(self.literals.entry(lit.clone()).or_default(), ids);
            }
        }
    }

    /// Iterates over every subscription id mentioned in this summary.
    pub fn all_ids(&self) -> impl Iterator<Item = DenseId> + '_ {
        self.literals
            .values()
            .flat_map(|l| l.iter().copied())
            .chain(self.patterns.iter().flat_map(|r| r.ids.iter().copied()))
    }

    /// Checks the deep structural invariants of the summary. Compiled
    /// only for tests and debug builds; the property tests call it after
    /// every insertion, merge, removal and wire round-trip.
    ///
    /// Invariants:
    ///
    /// * every id list (literal and wildcard rows) is non-empty, sorted
    ///   and deduplicated;
    /// * rows are pairwise incomparable under [`Pattern::covers`] — no
    ///   wildcard row covers another row, and no literal key is matched
    ///   by any wildcard row (it would have joined that row);
    /// * the anchor-byte index is exactly what a fresh rebuild over the
    ///   row vector produces (index↔row coherence — the index is derived
    ///   state and must never drift from the rows it summarizes).
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    #[cfg(any(test, debug_assertions))]
    pub fn validate(&self) {
        use crate::idlist::validate_idlist;
        for (lit, ids) in &self.literals {
            assert!(!ids.is_empty(), "literal row {lit:?} has no ids");
            validate_idlist(ids);
        }
        for row in &self.patterns {
            assert!(
                !row.ids.is_empty(),
                "wildcard row {} has no ids",
                row.pattern
            );
            validate_idlist(&row.ids);
        }
        for (i, a) in self.patterns.iter().enumerate() {
            for (j, b) in self.patterns.iter().enumerate() {
                assert!(
                    i == j || !a.pattern.covers(&b.pattern),
                    "row {} covers row {}",
                    a.pattern,
                    b.pattern
                );
            }
            for lit in self.literals.keys() {
                assert!(
                    !a.pattern.matches(lit),
                    "literal row {lit:?} is covered by wildcard row {}",
                    a.pattern
                );
            }
        }
        let mut fresh = PatternIndex::default();
        fresh.rebuild(&self.patterns);
        assert!(
            fresh == self.index,
            "pattern index out of sync with the row vector"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Standalone-structure tests use small integers as dense ids
    /// directly; the intern-table mapping is the broker summary's job.
    fn id(k: u32) -> DenseId {
        k
    }

    fn pat(s: &str) -> Pattern {
        Pattern::parse(s).unwrap()
    }

    #[test]
    fn paper_fig5_example() {
        // SACS for attribute symbol: row `OT*` (prefix, paper's `>* OT`)
        // carrying S1 and S2.
        let mut sacs = PatternSummary::new();
        sacs.insert(pat("OTE"), id(1));
        sacs.insert(pat("OT*"), id(2));
        assert_eq!(sacs.row_count(), 1);
        assert_eq!(sacs.rows().next().unwrap().0, pat("OT*"));
        assert_eq!(sacs.query_scan("OTE"), vec![id(1), id(2)]);
        // False positive by design: the generalized row matches OTX for S1.
        assert_eq!(sacs.query_scan("OTX"), vec![id(1), id(2)]);
        assert!(sacs.query_scan("XOT").is_empty());
    }

    #[test]
    fn covered_constraint_joins_existing_row() {
        let mut sacs = PatternSummary::new();
        sacs.insert(pat("m*t"), id(1));
        sacs.insert(pat("microsoft"), id(2));
        sacs.insert(pat("micronet"), id(3));
        assert_eq!(sacs.row_count(), 1);
        assert_eq!(sacs.query_scan("mt"), vec![id(1), id(2), id(3)]);
    }

    #[test]
    fn general_constraint_substitutes_several_rows() {
        let mut sacs = PatternSummary::new();
        sacs.insert(pat("microsoft"), id(1));
        sacs.insert(pat("micronet"), id(2));
        sacs.insert(pat("apple"), id(3));
        assert_eq!(sacs.row_count(), 3);
        sacs.insert(pat("m*t"), id(4));
        // microsoft and micronet are absorbed; apple stays.
        assert_eq!(sacs.row_count(), 2);
        assert_eq!(sacs.query_scan("microsoft"), vec![id(1), id(2), id(4)]);
        assert_eq!(sacs.query_scan("apple"), vec![id(3)]);
    }

    #[test]
    fn incomparable_rows_stay_separate() {
        let mut sacs = PatternSummary::new();
        sacs.insert(pat("OT*"), id(1));
        sacs.insert(pat("*SE"), id(2));
        assert_eq!(sacs.row_count(), 2);
        assert_eq!(sacs.query_scan("OTSE"), vec![id(1), id(2)]);
        assert_eq!(sacs.query_scan("OTE"), vec![id(1)]);
        assert_eq!(sacs.query_scan("NYSE"), vec![id(2)]);
    }

    #[test]
    fn universal_pattern_absorbs_everything() {
        let mut sacs = PatternSummary::new();
        sacs.insert(pat("a*"), id(1));
        sacs.insert(pat("*b"), id(2));
        sacs.insert(pat("lit"), id(4));
        sacs.insert(pat("*"), id(3));
        assert_eq!(sacs.row_count(), 1);
        assert_eq!(sacs.query_scan("zzz"), vec![id(1), id(2), id(3), id(4)]);
    }

    #[test]
    fn no_false_negatives_after_generalization() {
        let mut sacs = PatternSummary::new();
        sacs.insert(pat("microsoft"), id(1));
        sacs.insert(pat("m*t"), id(2));
        // Every value matching the original constraint still matches.
        assert!(sacs.query_scan("microsoft").contains(&id(1)));
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut sacs = PatternSummary::new();
        sacs.insert(pat("OT*"), id(1));
        sacs.insert(pat("OT*"), id(1));
        assert_eq!(sacs.row_count(), 1);
        assert_eq!(sacs.id_list_len(), 1);
        sacs.insert(pat("lit"), id(2));
        sacs.insert(pat("lit"), id(2));
        assert_eq!(sacs.row_count(), 2);
        assert_eq!(sacs.id_list_len(), 2);
    }

    #[test]
    fn removal_drops_empty_rows() {
        let mut sacs = PatternSummary::new();
        sacs.insert(pat("OT*"), id(1));
        sacs.insert(pat("OTE"), id(2));
        sacs.remove(id(1));
        assert_eq!(sacs.row_count(), 1);
        // The generalized row remains for id(2); still no false negatives.
        assert_eq!(sacs.query_scan("OTE"), vec![id(2)]);
        sacs.remove(id(2));
        assert!(sacs.is_empty());
    }

    #[test]
    fn remove_remap_shifts_survivors() {
        let mut sacs = PatternSummary::new();
        sacs.insert(pat("OT*"), id(1));
        sacs.insert(pat("OTE"), id(2));
        sacs.insert(pat("*SE"), id(3));
        // Vacate slot 2: id 3 becomes id 2, id 1 stays.
        sacs.remove_remap(id(2));
        assert_eq!(sacs.query_scan("OTE"), vec![id(1)]);
        assert_eq!(sacs.query_scan("NYSE"), vec![id(2)]);
        sacs.validate();
    }

    #[test]
    fn remap_renumbers_all_rows() {
        let mut sacs = PatternSummary::new();
        sacs.insert(pat("OT*"), id(0));
        sacs.insert(pat("lit"), id(1));
        // Open a hole at slot 1 (a new id interned in the middle).
        sacs.remap_ids(|d| if d >= 1 { d + 1 } else { d });
        assert_eq!(sacs.query_scan("OTX"), vec![id(0)]);
        assert_eq!(sacs.query_scan("lit"), vec![id(2)]);
        sacs.validate();
    }

    #[test]
    fn merge_renormalizes_under_covering() {
        let mut a = PatternSummary::new();
        a.insert(pat("microsoft"), id(1));
        let mut b = PatternSummary::new();
        b.insert(pat("m*t"), id(2));
        a.merge(&b);
        assert_eq!(a.row_count(), 1);
        assert_eq!(a.rows().next().unwrap().0, pat("m*t"));
        assert_eq!(a.query_scan("microsoft"), vec![id(1), id(2)]);
        // And the symmetric direction.
        let mut c = PatternSummary::new();
        c.insert(pat("m*t"), id(2));
        let mut d = PatternSummary::new();
        d.insert(pat("microsoft"), id(1));
        c.merge(&d);
        assert_eq!(c.row_count(), 1);
        assert_eq!(c.query_scan("microsoft"), vec![id(1), id(2)]);
    }

    #[test]
    fn rows_pairwise_incomparable_invariant() {
        let mut sacs = PatternSummary::new();
        for (k, s) in ["a*", "*b", "ab", "abc", "a*c", "*a*", "xyz"]
            .iter()
            .enumerate()
        {
            sacs.insert(pat(s), id(k as u32));
        }
        let rows: Vec<Pattern> = sacs.rows().map(|(p, _)| p).collect();
        for (i, r1) in rows.iter().enumerate() {
            for (j, r2) in rows.iter().enumerate() {
                if i != j {
                    assert!(!r1.covers(r2), "row {r1} covers row {r2}");
                }
            }
        }
    }

    #[test]
    fn query_empty_summary() {
        let sacs = PatternSummary::new();
        assert!(sacs.query_scan("anything").is_empty());
    }

    #[test]
    fn many_literals_fast_path() {
        let mut sacs = PatternSummary::new();
        for k in 0..5000u32 {
            sacs.insert(pat(&format!("lit{k}")), id(k));
        }
        assert_eq!(sacs.row_count(), 5000);
        assert_eq!(sacs.query_scan("lit4999"), vec![id(4999)]);
        // A late wildcard absorbs the lot.
        sacs.insert(pat("lit*"), id(9999));
        assert_eq!(sacs.row_count(), 1);
        assert_eq!(sacs.id_list_len(), 5001);
        assert!(sacs.query_scan("lit77").contains(&id(77)));
    }

    #[test]
    fn rows_iteration_deterministic() {
        let mut a = PatternSummary::new();
        let mut b = PatternSummary::new();
        for k in [3u32, 1, 2] {
            a.insert(pat(&format!("v{k}")), id(k));
        }
        for k in [1u32, 2, 3] {
            b.insert(pat(&format!("v{k}")), id(k));
        }
        let ra: Vec<_> = a.rows().map(|(p, _)| p.to_string()).collect();
        let rb: Vec<_> = b.rows().map(|(p, _)| p.to_string()).collect();
        assert_eq!(ra, rb);
        assert_eq!(ra, vec!["v1", "v2", "v3"]);
    }

    #[test]
    fn index_prunes_disjoint_anchors() {
        // 26 prefix rows, one suffix row, one residual row: a query only
        // tests its own buckets plus the residual.
        let mut sacs = PatternSummary::new();
        for (k, c) in ('a'..='z').enumerate() {
            sacs.insert(pat(&format!("{c}{c}*")), id(k as u32));
        }
        sacs.insert(pat("*zz"), id(100));
        sacs.insert(pat("*mid*"), id(101));

        assert_eq!(sacs.query_scan("qqx"), vec![id(16)]);
        // Selected: prefix['q'] (1 row) + no suffix bucket for 'x' + the
        // residual row = 2 of 28 wildcard rows.
        assert_eq!(sacs.plan_candidates("qqx").count(), 2);
        // prefix['z'] + suffix['z'] + residual.
        assert_eq!(sacs.plan_candidates("zzz").count(), 3);
    }

    #[test]
    fn validate_accepts_every_mutation_path() {
        let mut sacs = PatternSummary::new();
        sacs.validate();
        for (k, s) in ["a*", "*b", "ab", "a*c", "*a*", "xyz"].iter().enumerate() {
            sacs.insert(pat(s), id(k as u32));
            sacs.validate();
        }
        let mut other = PatternSummary::new();
        other.insert(pat("x*"), id(40));
        other.insert(pat("ab"), id(41));
        sacs.merge(&other);
        sacs.validate();
        sacs.remove(id(0));
        sacs.validate();
    }

    #[test]
    #[should_panic(expected = "out of sync")]
    fn validate_rejects_stale_index() {
        let mut sacs = PatternSummary::new();
        sacs.insert(pat("OT*"), id(1));
        // Corrupt the derived state behind the API's back: a new row the
        // anchor buckets know nothing about.
        sacs.patterns.push(PatternRow {
            pattern: pat("*SE"),
            ids: vec![id(2)],
        });
        sacs.validate();
    }

    #[test]
    #[should_panic(expected = "covers")]
    fn validate_rejects_comparable_rows() {
        let mut sacs = PatternSummary::new();
        sacs.insert(pat("O*"), id(1));
        sacs.patterns.push(PatternRow {
            pattern: pat("OT*"),
            ids: vec![id(2)],
        });
        sacs.index.rebuild(&sacs.patterns);
        sacs.validate();
    }
}
