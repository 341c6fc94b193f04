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
//! Queries, covering checks and merges walk the wildcard rows in row
//! order, with no side index: the workloads this crate serves hold a
//! handful of wildcard rows per attribute (a few shared prefixes and
//! unanchored `Contains` globs), so there is nothing for an index to
//! prune that a `starts_with` test does not reject as fast.

use std::collections::HashMap;

use subsum_types::Pattern;

use crate::idlist::{idlist_merge, idlist_remap, DenseId, IdList};

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

/// Where an insertion put its ids ([`PatternSummary::place_ids`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Placement {
    /// Into a literal row (or nowhere: no ids).
    Literal,
    /// Into the wildcard row at this position, whose pattern is
    /// unchanged; no other row moved.
    Row(usize),
    /// Into a new wildcard row that absorbed covered rows: their ids now
    /// sit under a wider pattern.
    Substituted,
}

/// The string constraint summary for a single attribute.
///
/// Rows are kept pairwise incomparable under [`Pattern::covers`]: on
/// insertion, a covered constraint joins the first covering row in row
/// order, and a covering constraint absorbs every row it covers.
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
        self.patterns
            .iter()
            .map(|r| (r.pattern.clone(), &r.ids))
            .chain(
                self.sorted_literals()
                    .into_iter()
                    .map(|(s, ids)| (Pattern::literal(s), ids)),
            )
    }

    /// The literal rows in no particular order.
    pub(crate) fn literals(&self) -> impl Iterator<Item = (&str, &IdList)> {
        self.literals.iter().map(|(s, ids)| (s.as_str(), ids))
    }

    /// The literal rows sorted by value (the order `rows` and the wire
    /// list them in).
    pub(crate) fn sorted_literals(&self) -> Vec<(&str, &IdList)> {
        let mut lits: Vec<_> = self.literals().collect();
        lits.sort_unstable_by_key(|&(s, _)| s);
        lits
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
        self.place_ids(pattern, &[id]);
    }

    /// As [`PatternSummary::insert`] with several ids (used by merging).
    pub fn insert_ids(&mut self, pattern: Pattern, ids: &[DenseId]) {
        self.place_ids(pattern, ids);
    }

    /// As [`PatternSummary::insert_ids`], reporting where the ids went.
    pub(crate) fn place_ids(&mut self, pattern: Pattern, ids: &[DenseId]) -> Placement {
        if ids.is_empty() {
            return Placement::Literal;
        }
        if let Some(lit) = pattern.as_literal() {
            return self.place_literal(lit, ids);
        }
        // A wildcard pattern. Covered by an existing wildcard row: join.
        if let Some(pos) = self
            .patterns
            .iter()
            .position(|row| row.pattern.covers(&pattern))
        {
            idlist_merge(&mut self.patterns[pos].ids, ids);
            return Placement::Row(pos);
        }
        // The new constraint substitutes every row it covers.
        let mut merged: IdList = ids.to_vec();
        merged.sort();
        merged.dedup();
        let rows = self.row_count();
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
        let absorbed = self.row_count() < rows;
        self.patterns.push(PatternRow {
            pattern,
            ids: merged,
        });
        if absorbed {
            Placement::Substituted
        } else {
            Placement::Row(self.patterns.len() - 1)
        }
    }

    /// Adds `ids` under the literal `lit`: to the first wildcard row
    /// that matches it, else to its exact literal row (or a new one).
    /// Equals `insert_ids(Pattern::literal(lit), ids)` without building
    /// the pattern (the decoder inserts wire text this way).
    pub(crate) fn insert_literal(&mut self, lit: &str, ids: &[DenseId]) {
        self.place_literal(lit, ids);
    }

    /// As [`PatternSummary::insert_literal`], reporting where the ids
    /// went.
    pub(crate) fn place_literal(&mut self, lit: &str, ids: &[DenseId]) -> Placement {
        if let Some(pos) = self
            .patterns
            .iter()
            .position(|row| row.pattern.matches(lit))
        {
            idlist_merge(&mut self.patterns[pos].ids, ids);
            Placement::Row(pos)
        } else {
            idlist_merge(self.literals.entry(lit.to_owned()).or_default(), ids);
            Placement::Literal
        }
    }

    /// Makes room for `n` more literal rows (the decoder sizes each map
    /// once rather than by doubling as its rows arrive).
    pub(crate) fn reserve_literals(&mut self, n: usize) {
        self.literals.reserve(n);
    }

    /// The wildcard rows in row order (compiled-plan path: the plan
    /// stores their posting runs in this order and its probe tests each
    /// row's pattern here).
    pub(crate) fn wildcards(&self) -> &[PatternRow] {
        &self.patterns
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

    /// All subscription ids whose summarized constraint is satisfied by
    /// the value `s` — the `Check_for_a_value_match (type string)`
    /// procedure of §3.3 — as a flat scan over every row. The string
    /// half of [`crate::BrokerSummary::match_event_scan`], the oracle
    /// the compiled plan's probe is tested against.
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
    /// space is left unchanged: the owning summary marks the id's intern
    /// slot dead.
    pub fn remove(&mut self, id: DenseId) {
        self.literals.retain(|_, ids| {
            if let Ok(pos) = ids.binary_search(&id) {
                ids.remove(pos);
            }
            !ids.is_empty()
        });
        self.patterns.retain_mut(|row| {
            if let Ok(pos) = row.ids.binary_search(&id) {
                row.ids.remove(pos);
            }
            !row.ids.is_empty()
        });
    }

    /// Applies a strictly monotone dense-id renumbering to every posting
    /// list (intern-table growth, compaction or merge translation).
    pub(crate) fn remap_ids(&mut self, map: impl Fn(DenseId) -> DenseId + Copy) {
        for ids in self.literals.values_mut() {
            idlist_remap(ids, map);
        }
        for row in &mut self.patterns {
            idlist_remap(&mut row.ids, map);
        }
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
            self.insert_literal(lit, ids);
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
    ///   by any wildcard row (it would have joined that row).
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
    fn literal_joins_first_covering_row() {
        // `*E` and `OT*` both cover `OTE`; the literal joins the earlier
        // row, whichever end it is anchored at.
        let mut sacs = PatternSummary::new();
        sacs.insert(pat("*E"), id(1));
        sacs.insert(pat("OT*"), id(2));
        sacs.insert(pat("OTE"), id(3));
        let rows: Vec<(String, IdList)> = sacs
            .rows()
            .map(|(p, ids)| (p.to_string(), ids.clone()))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("*E".to_owned(), vec![id(1), id(3)]),
                ("OT*".to_owned(), vec![id(2)]),
            ]
        );
        sacs.validate();
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
    #[should_panic(expected = "covers")]
    fn validate_rejects_comparable_rows() {
        let mut sacs = PatternSummary::new();
        sacs.insert(pat("O*"), id(1));
        sacs.patterns.push(PatternRow {
            pattern: pat("OT*"),
            ids: vec![id(2)],
        });
        sacs.validate();
    }
}
