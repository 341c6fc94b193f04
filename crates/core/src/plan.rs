//! Compiled columnar match plans: the frozen, cache-linear probe layout
//! of a summary.
//!
//! The mutable summary structures ([`RangeSummary`], [`PatternSummary`])
//! are built for cheap maintenance: `Vec<RangeRow>` rows with per-row
//! heap `IdList`s, a `BTreeMap` for the equality values, hash maps for
//! literals. Probing them chases one heap pointer per row and dispatches
//! on `Interval` bound enums per comparison. A [`MatchPlan`] compiles
//! those rows into a structure-of-arrays form the matcher can stream:
//!
//! * per arithmetic attribute, an [`ArithBank`]: the disjoint sorted
//!   sub-range rows as two parallel `u64` key arrays (`lo_keys` /
//!   `hi_keys`, the order-preserving IEEE-754 transform of [`num_key`]
//!   with open/closed bounds folded in), the AACS_E values as one sorted
//!   key array, and CSR offsets into the shared postings arena;
//! * per string attribute, a [`StringBank`]: literal rows as a map to
//!   arena ranges, wildcard rows as an arena range per row (candidate
//!   selection and the pattern tests stay on the [`PatternSummary`]'s
//!   anchor index — only the posting storage is recompiled);
//! * one flat dense-`u32` **arena** holding every posting list of every
//!   bank back to back, so a probe feeds the counter kernel contiguous
//!   slices instead of per-row heap vectors.
//!
//! The lower-bound search over the key arrays is branchless (a halving
//! loop whose step is a conditional move, then a linear tail the
//! compiler can vectorize — see [`rank_le`]), and the counter kernel
//! packs the epoch stamp and the satisfied-attribute count into one
//! `u64` per dense id, so the hot loop performs a single random access
//! per posting.
//!
//! # Plans are derived state
//!
//! A plan is a pure function of the summary rows: it never travels on
//! the wire, never contributes to digests, and is rebuilt whenever the
//! rows change. [`BrokerSummary`](crate::BrokerSummary) drops its cached
//! plan on every mutation and recompiles lazily on the next match;
//! [`ShardedSummary`](crate::ShardedSummary) compiles one plan per shard
//! at snapshot-flip time, so the publish path always probes a frozen
//! plan and retired plans are reclaimed with their
//! [`ShardSet`](crate::shard) through the epoch machinery of
//! [`SnapshotCell`](crate::SnapshotCell).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use subsum_telemetry::Count;
use subsum_types::{Event, LowerBound, Num, UpperBound};

use crate::aacs::RangeSummary;
use crate::idlist::{idlist_range_slice, DenseId};
use crate::sacs::{PatternSummary, QueryCost};
use crate::summary::MatchStats;

/// Plan compilations (lazy flat rebuilds plus per-shard snapshot
/// compiles).
static CNT_PLAN_REBUILDS: Count = Count::new(subsum_telemetry::names::MATCH_PLAN_REBUILDS);
/// Plan rows whose posting slices fed the counter kernel (satisfied
/// range/point/literal rows plus matched wildcard rows), across events.
static CNT_PLAN_PROBE_ROWS: Count = Count::new(subsum_telemetry::names::MATCH_PLAN_PROBE_ROWS);

/// Low bits of a packed kernel state word holding the per-event
/// satisfied-attribute count; the high bits hold the event epoch. A mask
/// has at most 64 attributes, so the count fits with room to spare.
const COUNT_BITS: u32 = 16;
const COUNT_MASK: u64 = (1 << COUNT_BITS) - 1;

/// The order-preserving `u64` key of a `Num`: sign-flipped IEEE-754
/// bits. Total-order-isomorphic to `Num`'s `Ord` because `Num` excludes
/// NaN and normalizes `-0.0` at construction.
#[inline]
pub(crate) fn num_key(v: Num) -> u64 {
    let bits = v.get().to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// The smallest value key satisfying a lower bound. Keys are bijective
/// with the non-NaN floats, so `Excl(x)` is exactly "the key after
/// `x`"; `Excl(+inf)` saturates to an unsatisfiable key, which is the
/// correct (empty) semantics.
#[inline]
pub(crate) fn lower_key(b: LowerBound) -> u64 {
    match b {
        LowerBound::NegInf => 0,
        LowerBound::Incl(x) => num_key(x),
        LowerBound::Excl(x) => num_key(x).saturating_add(1),
    }
}

/// The largest value key satisfying an upper bound (mirror of
/// [`lower_key`]).
#[inline]
pub(crate) fn upper_key(b: UpperBound) -> u64 {
    match b {
        UpperBound::PosInf => u64::MAX,
        UpperBound::Incl(x) => num_key(x),
        UpperBound::Excl(x) => num_key(x).saturating_sub(1),
    }
}

/// Rows of the final linear tail of [`rank_le`]. Small enough to stay in
/// one or two cache lines, large enough that the halving loop never
/// branches on nearly-resolved ranges.
const RANK_TAIL: usize = 8;

/// The number of elements of the sorted array `keys` that are `<= key`
/// (the upper-bound rank). Branchless: the halving loop narrows with a
/// conditional add the compiler lowers to a cmov, and the tail counts
/// comparison results over a contiguous window — an auto-vectorizable
/// reduction with no data-dependent branches.
#[inline]
pub(crate) fn rank_le(keys: &[u64], key: u64) -> usize {
    let mut base = 0usize;
    let mut n = keys.len();
    // Invariant: rank ∈ [base, base + n]; every element before `base`
    // is <= key.
    while n > RANK_TAIL {
        let half = n / 2;
        if keys[base + half - 1] <= key {
            base += half;
        }
        n -= half;
    }
    let mut rank = base;
    for &k in &keys[base..base + n] {
        rank += usize::from(k <= key);
    }
    rank
}

/// Working memory of one plan probe — the packed-counter kernel's
/// per-dense-id arrays plus the matched-id bitmap. Sized to the largest
/// dense space it has served; epoch stamping makes stale entries
/// self-invalidating, so nothing is cleared between events and a warm
/// state probes without heap allocation. [`crate::MatchScratch`] holds
/// one; [`crate::ShardScratch`] holds one per shard.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProbeState {
    /// Matched wildcard-row positions of the string attribute in flight.
    rows: Vec<u32>,
    /// Packed `(epoch << 16) | count` word per dense id.
    state: Vec<u64>,
    /// Attribute-token stamps deduplicating postings within one string
    /// attribute (multi-contributor rows only).
    seen: Vec<u64>,
    /// Bitmap over dense ids marking the matched ones; zeroed again by
    /// [`ProbeState::drain_matched`].
    words: Vec<u64>,
    /// Monotone token source for event epochs and attribute tokens.
    token: u64,
    /// The range of `words` the last probe wrote (empty when nothing
    /// matched).
    written: std::ops::Range<usize>,
}

impl ProbeState {
    /// Sizes the per-dense-id arrays to population `n` — the probe's only
    /// allocation path. The arrays grow together, so a state that has
    /// served `n` ids never allocates again for populations `<= n`.
    /// Returns whether it grew.
    pub(crate) fn prepare(&mut self, n: usize) -> bool {
        let grows = self.state.len() < n;
        if grows {
            self.state.resize(n, 0);
            self.seen.resize(n, 0);
            self.words.resize(n.div_ceil(64), 0);
        }
        grows
    }

    /// Hands the dense ids matched by the last probe to `emit` in
    /// ascending order, clearing the bitmap words behind it.
    #[inline]
    pub(crate) fn drain_matched(&mut self, mut emit: impl FnMut(usize)) {
        let written = std::mem::take(&mut self.written);
        let lo = written.start;
        for (w, word) in self.words[written].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                emit((lo + w) * 64 + b);
            }
        }
    }
}

/// The compiled arithmetic bank of one attribute: SoA keys over the
/// AACS_SR partition and the AACS_E values, with CSR offsets into the
/// plan's shared arena.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct ArithBank {
    /// Lower-bound key per sub-range row, ascending.
    pub(crate) lo_keys: Vec<u64>,
    /// Upper-bound key per sub-range row (same row order).
    pub(crate) hi_keys: Vec<u64>,
    /// Absolute arena offsets of the sub-range rows, length `rows + 1`.
    pub(crate) range_offsets: Vec<u32>,
    /// Equality-row value keys, ascending.
    pub(crate) point_keys: Vec<u64>,
    /// Absolute arena offsets of the equality rows, length `points + 1`.
    pub(crate) point_offsets: Vec<u32>,
}

impl ArithBank {
    /// Compiles `src`'s rows restricted to the dense range `[lo, hi)`,
    /// rebased to `d - lo`, appending postings to `arena`. `None` when
    /// no posting survives. The flat summary compiles with `lo = 0`,
    /// `hi = population`.
    fn build(
        src: &RangeSummary,
        lo: DenseId,
        hi: DenseId,
        arena: &mut Vec<DenseId>,
    ) -> Option<ArithBank> {
        let mut bank = ArithBank::default();
        bank.range_offsets.push(arena.len() as u32);
        for row in src.ranges() {
            let slice = idlist_range_slice(&row.ids, lo, hi);
            if slice.is_empty() {
                continue;
            }
            bank.lo_keys.push(lower_key(row.interval.lo()));
            bank.hi_keys.push(upper_key(row.interval.hi()));
            arena.extend(slice.iter().map(|&d| d - lo));
            bank.range_offsets.push(arena.len() as u32);
        }
        bank.point_offsets.push(arena.len() as u32);
        for (v, ids) in src.points() {
            let slice = idlist_range_slice(ids, lo, hi);
            if slice.is_empty() {
                continue;
            }
            bank.point_keys.push(num_key(v));
            arena.extend(slice.iter().map(|&d| d - lo));
            bank.point_offsets.push(arena.len() as u32);
        }
        if bank.lo_keys.is_empty() && bank.point_keys.is_empty() {
            None
        } else {
            Some(bank)
        }
    }
}

/// The compiled string bank of one attribute: arena ranges for the
/// literal rows and for each wildcard row (parallel to the source
/// [`PatternSummary`]'s row vector, whose anchor index still selects
/// the candidate rows and runs the pattern tests).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct StringBank {
    /// Literal rows: value -> `(start, end)` arena range.
    pub(crate) literals: HashMap<String, (u32, u32)>,
    /// Wildcard rows: `(start, end)` arena range per row, in the source
    /// summary's row order.
    pub(crate) wild: Vec<(u32, u32)>,
}

impl StringBank {
    /// Compiles `src`'s posting storage into the arena. The source ids
    /// must already be in the plan's dense space (shard derivation
    /// rebases the `PatternSummary` itself before compiling).
    fn build(src: &PatternSummary, arena: &mut Vec<DenseId>) -> Option<StringBank> {
        if src.is_empty() {
            return None;
        }
        let mut bank = StringBank::default();
        for (lit, ids) in src.literal_rows() {
            let start = arena.len() as u32;
            arena.extend_from_slice(ids);
            bank.literals
                .insert(lit.clone(), (start, arena.len() as u32));
        }
        for ids in src.wildcard_postings() {
            let start = arena.len() as u32;
            arena.extend_from_slice(ids);
            bank.wild.push((start, arena.len() as u32));
        }
        Some(bank)
    }
}

/// A compiled, frozen probe structure over one summary (or one shard of
/// one): per-attribute SoA banks over a single shared postings arena.
/// Derived state — wire format and digests never see it.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct MatchPlan {
    /// Indexed by attribute id; `None` for string attributes and for
    /// arithmetic attributes without surviving postings.
    pub(crate) arith: Vec<Option<ArithBank>>,
    /// Indexed by attribute id; `None` for arithmetic attributes and
    /// for string attributes without surviving postings.
    pub(crate) strings: Vec<Option<StringBank>>,
    /// Every bank's posting lists, back to back (dense ids in the
    /// plan's local space).
    pub(crate) arena: Vec<DenseId>,
}

impl MatchPlan {
    /// Compiles a plan over the summary slots. Arithmetic rows are
    /// sliced to the dense range `[lo, hi)` and rebased to `d - lo`;
    /// the string summaries must already be in the target dense space
    /// (the flat summary's are, and shard derivation rebases its
    /// per-shard `PatternSummary` views before calling this).
    pub(crate) fn compile(
        arith: &[Option<RangeSummary>],
        strings: &[Option<PatternSummary>],
        lo: DenseId,
        hi: DenseId,
    ) -> MatchPlan {
        CNT_PLAN_REBUILDS.inc();
        let mut plan = MatchPlan::default();
        for slot in arith {
            let bank = slot
                .as_ref()
                .and_then(|s| ArithBank::build(s, lo, hi, &mut plan.arena));
            plan.arith.push(bank);
        }
        for slot in strings {
            let bank = slot
                .as_ref()
                .and_then(|s| StringBank::build(s, &mut plan.arena));
            plan.strings.push(bank);
        }
        plan
    }

    /// Probes the plan with one event, streaming the satisfied posting
    /// slices through the packed epoch-counter kernel: per posting one
    /// random access loads `state[d] = (epoch << 16) | count`, bumps the
    /// count (or restarts it when the epoch is stale), and marks the
    /// match bit the moment the count reaches `required[d]` — counts
    /// are monotone within an event, so the threshold fires exactly
    /// once per matched id and no candidate list or second pass exists.
    ///
    /// `strings` must be the summaries this plan was compiled from
    /// (their anchor indexes select candidate wildcard rows and run the
    /// pattern tests). Arithmetic banks skip per-attribute dedup entirely:
    /// the AACS partition is disjoint and `validate()` enforces that no
    /// id carries both a sub-range row containing a value and an
    /// equality row at it. String postings take the `seen`-stamped
    /// dedup path only when more than one row contributes.
    ///
    /// `probe` must be [`ProbeState::prepare`]d to `required.len()`; the
    /// matched ids are left in its bitmap for
    /// [`ProbeState::drain_matched`].
    pub(crate) fn probe_into(
        &self,
        event: &Event,
        strings: &[Option<PatternSummary>],
        required: &[u32],
        probe: &mut ProbeState,
        stats: &mut MatchStats,
    ) {
        let ProbeState {
            rows,
            state,
            seen,
            words,
            token,
            written,
        } = probe;
        let epoch = *token + 1;
        let mut attr_token = epoch;
        let mut probe_rows = 0u64;
        let mut lo_w = usize::MAX;
        let mut hi_w = 0usize;
        for (attr, value) in event.iter() {
            attr_token += 1;
            let idx = attr.index();
            if let Some(bank) = self.arith.get(idx).and_then(Option::as_ref) {
                let Some(v) = value.as_num() else {
                    continue;
                };
                let key = num_key(v);
                let mut range_slice: &[DenseId] = &[];
                if !bank.lo_keys.is_empty() {
                    // Cost model mirrors `RangeSummary::query_into`:
                    // ⌈log₂ n⌉ + 1 probes, the rest pruned.
                    let probes = (usize::BITS - bank.lo_keys.len().leading_zeros()) as usize;
                    stats.rows_scanned += probes;
                    stats.rows_pruned += bank.lo_keys.len().saturating_sub(probes);
                    let r = rank_le(&bank.lo_keys, key);
                    if r > 0 && key <= bank.hi_keys[r - 1] {
                        let a = bank.range_offsets[r - 1] as usize;
                        let b = bank.range_offsets[r] as usize;
                        range_slice = &self.arena[a..b];
                    }
                }
                let mut point_slice: &[DenseId] = &[];
                if !bank.point_keys.is_empty() {
                    stats.rows_scanned += 1;
                    stats.rows_pruned += bank.point_keys.len() - 1;
                    let r = rank_le(&bank.point_keys, key);
                    if r > 0 && bank.point_keys[r - 1] == key {
                        let a = bank.point_offsets[r - 1] as usize;
                        let b = bank.point_offsets[r] as usize;
                        point_slice = &self.arena[a..b];
                    }
                }
                probe_rows +=
                    u64::from(!range_slice.is_empty()) + u64::from(!point_slice.is_empty());
                // Both slices are internally sorted-dedup, and per-id
                // disjoint across each other (see the method docs), so
                // every posting is a distinct id for this attribute.
                stats.ids_collected += range_slice.len() + point_slice.len();
                for slice in [range_slice, point_slice] {
                    count_postings(
                        slice, epoch, required, state, words, &mut lo_w, &mut hi_w, stats,
                    );
                }
            } else if let Some(bank) = self.strings.get(idx).and_then(Option::as_ref) {
                let Some(src) = strings.get(idx).and_then(Option::as_ref) else {
                    continue;
                };
                let Some(s) = value.as_str() else {
                    continue;
                };
                // Cost model mirrors `PatternSummary::query_into`: one
                // literal-map probe when the map is non-empty, plus
                // every index-selected wildcard row (tested, whether or
                // not it matched).
                let mut cost = QueryCost::default();
                let mut lit_slice: &[DenseId] = &[];
                if !bank.literals.is_empty() {
                    cost.rows_touched += 1;
                    if let Some(&(a, b)) = bank.literals.get(s) {
                        lit_slice = &self.arena[a as usize..b as usize];
                    }
                }
                rows.clear();
                let mut tested = 0usize;
                for pos in src.plan_candidates(s) {
                    tested += 1;
                    if src.pattern_matches(pos, s) {
                        rows.push(pos as u32);
                    }
                }
                cost.rows_touched += tested;
                cost.rows_pruned = bank.wild.len() - tested;
                stats.rows_scanned += cost.rows_touched;
                stats.rows_pruned += cost.rows_pruned;
                crate::sacs::record_query_cost(cost);
                let contributors = usize::from(!lit_slice.is_empty()) + rows.len();
                probe_rows += contributors as u64;
                if contributors <= 1 {
                    // A single contributing row is internally deduped:
                    // skip the `seen` stamps.
                    stats.ids_collected += lit_slice.len();
                    count_postings(
                        lit_slice, epoch, required, state, words, &mut lo_w, &mut hi_w, stats,
                    );
                    for &pos in rows.iter() {
                        let (a, b) = bank.wild[pos as usize];
                        let slice = &self.arena[a as usize..b as usize];
                        stats.ids_collected += slice.len();
                        count_postings(
                            slice, epoch, required, state, words, &mut lo_w, &mut hi_w, stats,
                        );
                    }
                } else {
                    // A subscription with several satisfied constraints
                    // on this attribute appears in several rows; count
                    // it once per attribute via the `seen` stamps.
                    count_postings_dedup(
                        lit_slice, epoch, attr_token, required, state, seen, words, &mut lo_w,
                        &mut hi_w, stats,
                    );
                    for &pos in rows.iter() {
                        let (a, b) = bank.wild[pos as usize];
                        let slice = &self.arena[a as usize..b as usize];
                        count_postings_dedup(
                            slice, epoch, attr_token, required, state, seen, words, &mut lo_w,
                            &mut hi_w, stats,
                        );
                    }
                }
            }
        }
        *token = attr_token;
        *written = if lo_w <= hi_w { lo_w..hi_w + 1 } else { 0..0 };
        CNT_PLAN_PROBE_ROWS.add(probe_rows);
    }
}

/// Streams one duplicate-free posting slice through the packed counter
/// kernel: one load, one store per posting, with the stale-epoch reset
/// folded into arithmetic instead of a branch.
#[allow(clippy::too_many_arguments)]
#[inline]
fn count_postings(
    slice: &[DenseId],
    epoch: u64,
    required: &[u32],
    state: &mut [u64],
    words: &mut [u64],
    lo_w: &mut usize,
    hi_w: &mut usize,
    stats: &mut MatchStats,
) {
    let mut candidates = 0usize;
    for &d in slice {
        let di = d as usize;
        let prev = state[di];
        let fresh = u64::from(prev >> COUNT_BITS != epoch);
        candidates += fresh as usize;
        let cnt = (prev & COUNT_MASK) * (1 - fresh) + 1;
        state[di] = (epoch << COUNT_BITS) | cnt;
        if cnt == u64::from(required[di]) {
            let w = di / 64;
            words[w] |= 1u64 << (di % 64);
            *lo_w = (*lo_w).min(w);
            *hi_w = (*hi_w).max(w);
        }
    }
    stats.candidates += candidates;
}

/// As [`count_postings`] with per-attribute dedup: a posting already
/// stamped with this attribute's token is skipped.
#[allow(clippy::too_many_arguments)]
#[inline]
fn count_postings_dedup(
    slice: &[DenseId],
    epoch: u64,
    attr_token: u64,
    required: &[u32],
    state: &mut [u64],
    seen: &mut [u64],
    words: &mut [u64],
    lo_w: &mut usize,
    hi_w: &mut usize,
    stats: &mut MatchStats,
) {
    for &d in slice {
        let di = d as usize;
        if seen[di] == attr_token {
            continue;
        }
        seen[di] = attr_token;
        stats.ids_collected += 1;
        let prev = state[di];
        let fresh = u64::from(prev >> COUNT_BITS != epoch);
        stats.candidates += fresh as usize;
        let cnt = (prev & COUNT_MASK) * (1 - fresh) + 1;
        state[di] = (epoch << COUNT_BITS) | cnt;
        if cnt == u64::from(required[di]) {
            let w = di / 64;
            words[w] |= 1u64 << (di % 64);
            *lo_w = (*lo_w).min(w);
            *hi_w = (*hi_w).max(w);
        }
    }
}

/// The lazily-compiled plan slot of a [`BrokerSummary`]: cloned
/// summaries share the compiled `Arc` until either side mutates, and
/// equality always holds — a plan is derived state, so two summaries
/// with equal rows are equal regardless of compile state.
#[derive(Debug, Default)]
pub(crate) struct PlanCell(OnceLock<Arc<MatchPlan>>);

impl PlanCell {
    /// The compiled plan, compiling (and caching) on first use.
    pub(crate) fn get_or_compile(&self, compile: impl FnOnce() -> MatchPlan) -> &MatchPlan {
        self.0.get_or_init(|| Arc::new(compile()))
    }

    /// Drops the cached plan (every row mutation calls this).
    pub(crate) fn invalidate(&mut self) {
        self.0.take();
    }

    /// The cached plan, if one has been compiled since the last
    /// mutation (validation cross-checks it against a fresh compile).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn cached(&self) -> Option<&MatchPlan> {
        self.0.get().map(Arc::as_ref)
    }
}

impl Clone for PlanCell {
    fn clone(&self) -> Self {
        let cell = PlanCell::default();
        if let Some(plan) = self.0.get() {
            let _ = cell.0.set(Arc::clone(plan));
        }
        cell
    }
}

impl PartialEq for PlanCell {
    /// Always equal: the plan is a pure function of the summary rows,
    /// which the owning summary's derived `PartialEq` already compares.
    fn eq(&self, _: &PlanCell) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: f64) -> Num {
        Num::new(v).unwrap()
    }

    #[test]
    fn num_key_is_order_isomorphic() {
        let values = [
            f64::NEG_INFINITY,
            -1.0e300,
            -2.5,
            -1.0,
            -f64::MIN_POSITIVE,
            0.0,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            2.5,
            1.0e300,
            f64::INFINITY,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    num_key(n(a)) <= num_key(n(b)),
                    n(a) <= n(b),
                    "key order mismatch for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn bound_keys_match_bound_semantics() {
        let probes = [-3.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 100.0];
        let bounds_lo = [
            LowerBound::NegInf,
            LowerBound::Incl(n(1.0)),
            LowerBound::Excl(n(1.0)),
        ];
        let bounds_hi = [
            UpperBound::PosInf,
            UpperBound::Incl(n(1.0)),
            UpperBound::Excl(n(1.0)),
        ];
        for v in probes {
            let kv = num_key(n(v));
            for lo in bounds_lo {
                assert_eq!(lower_key(lo) <= kv, lo.admits(n(v)), "{lo:?} vs {v}");
            }
            for hi in bounds_hi {
                assert_eq!(kv <= upper_key(hi), hi.admits(n(v)), "{hi:?} vs {v}");
            }
        }
    }

    #[test]
    fn rank_le_equals_partition_point() {
        // Exhaustive over lengths spanning the halving loop and the
        // linear tail, with duplicates, on every probe position.
        for len in 0usize..40 {
            let keys: Vec<u64> = (0..len as u64).map(|i| i / 3 * 4).collect();
            for probe in 0..=(len as u64 / 3 * 4 + 2) {
                assert_eq!(
                    rank_le(&keys, probe),
                    keys.partition_point(|&k| k <= probe),
                    "len {len} probe {probe}"
                );
            }
            assert_eq!(rank_le(&keys, u64::MAX), len);
        }
        assert_eq!(rank_le(&[], 7), 0);
    }

    #[test]
    fn plan_cell_equality_ignores_compile_state() {
        let a = PlanCell::default();
        let b = PlanCell::default();
        b.get_or_compile(MatchPlan::default);
        assert!(a == b);
        let c = b.clone();
        assert!(c.cached().is_some(), "clone shares the compiled plan");
        let mut d = c.clone();
        d.invalidate();
        assert!(d.cached().is_none());
    }

    #[test]
    fn empty_summaries_compile_to_empty_banks() {
        let arith = vec![None, Some(RangeSummary::new())];
        let strings = vec![Some(PatternSummary::new()), None];
        let plan = MatchPlan::compile(&arith, &strings, 0, 0);
        assert!(plan.arith.iter().all(Option::is_none));
        assert!(plan.strings.iter().all(Option::is_none));
        assert!(plan.arena.is_empty());
    }
}
