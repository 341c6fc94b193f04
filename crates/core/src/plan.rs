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
//!   key array, and per row a range of posting runs;
//! * per string attribute, a [`StringBank`]: each wildcard row's pattern
//!   and run range. The literal rows stay on the [`PatternSummary`]: a
//!   literal is one hash probe there, and copying every literal into the
//!   plan cost more than the rest of a compile;
//! * one set of [`Runs`]: every compiled row's postings in one flat
//!   dense-`u32` arena, each row grouped into runs of one `c3` mask.
//!
//! # Mask runs
//!
//! Algorithm 1 reports an id once its hit count reaches `popcount(c3)`,
//! and an id is posted only under attributes its `c3` mask names (the
//! summary validator asserts it; the wire decoder rejects a summary that
//! breaks it). An id whose mask names an attribute the event lacks can
//! therefore never fire. Compilation lays each row's postings out as
//! runs of one mask — a stable counting sort over a per-compile
//! mask-group index read from the intern table's live ids; a row that
//! holds one mask is copied as it is — and the probe builds the event's
//! attribute mask once and feeds the counter kernel only the runs whose
//! mask ⊆ event mask. Literal postings are tested one by one against
//! the same mask. The rows a probe finds, and the ids it reports, are
//! those of a probe that counts every posting.
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
//! A plan is a pure function of the summary rows and the intern table:
//! it never travels on the wire and never contributes to digests.
//! [`BrokerSummary`](crate::BrokerSummary) compiles a *base* plan
//! lazily on the first match and keeps it across σ-sized mutations: the
//! ids placed since go into a [`SideLog`] at O(postings) per mutation,
//! which the next match compiles into a small *side* plan over the same
//! dense ids, and one kernel pass counts both. This is sound because
//!
//! * a new id takes a slot the base posted nothing for;
//! * a removed id's slot has `required = 0`, and the kernel fires only
//!   at `count == required ≥ 1`, so its stale base postings never match;
//! * each live id's postings sit in exactly one of the two plans, as
//!   the live rows placed them, so the counts add up.
//!
//! Whatever breaks one of these drops both plans, and the next match
//! compiles in full: respacing or compaction (they renumber dense ids),
//! a decode, a SACS substitution (resident ids widen), a new id in a
//! slot the base posted, new postings for an id already live, or side
//! ids plus removals since the base past 1/64 of the live ids. Clones share the compiled plans and copy the side log.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use subsum_telemetry::Count;
use subsum_types::{
    AttrMask, Event, Interval, LowerBound, Num, Pattern, SubscriptionId, UpperBound,
};

use crate::aacs::RangeSummary;
use crate::idlist::{DenseId, IdList};
use crate::sacs::{PatternSummary, Placement};
use crate::summary::{InternTable, MatchStats};

/// Full plan compilations.
static CNT_PLAN_REBUILDS: Count = Count::new(subsum_telemetry::names::MATCH_PLAN_REBUILDS);
/// Side plan compilations.
static CNT_PLAN_SIDE_COMPILES: Count =
    Count::new(subsum_telemetry::names::MATCH_PLAN_SIDE_COMPILES);
/// Postings laid out by full and side compilations.
static CNT_PLAN_POSTINGS: Count = Count::new(subsum_telemetry::names::MATCH_PLAN_POSTINGS_COMPILED);
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
fn num_key(v: Num) -> u64 {
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
fn lower_key(b: LowerBound) -> u64 {
    match b {
        LowerBound::NegInf => 0,
        LowerBound::Incl(x) => num_key(x),
        LowerBound::Excl(x) => num_key(x).saturating_add(1),
    }
}

/// The largest value key satisfying an upper bound (mirror of
/// [`lower_key`]).
#[inline]
fn upper_key(b: UpperBound) -> u64 {
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
fn rank_le(keys: &[u64], key: u64) -> usize {
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
/// one.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProbeState {
    /// Matched wildcard-row positions of the string attribute in flight,
    /// in the base plan.
    rows: Vec<u32>,
    /// Likewise in the side plan.
    side_rows: Vec<u32>,
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
    written: Range<usize>,
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

/// Every compiled row's postings, back to back, as runs of one `c3`
/// mask. A bank addresses a row by its run range `a..b`; the row's
/// postings are `arena[offsets[a]..offsets[b]]`.
#[derive(Debug, Clone, PartialEq, Default)]
struct Runs {
    /// The `c3` mask every posting of run `k` carries.
    masks: Vec<u64>,
    /// Arena offset of each run's first posting, then the arena length:
    /// run `k` is `arena[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<u32>,
    /// Dense ids, run after run.
    arena: Vec<DenseId>,
}

impl Runs {
    /// Empty runs, ready for rows.
    fn new() -> Runs {
        Runs {
            offsets: vec![0],
            ..Runs::default()
        }
    }

    /// The number of runs so far — the end of the row just appended.
    fn len(&self) -> u32 {
        self.masks.len() as u32
    }

    /// Appends one row given as `(mask, dense id)` postings sorted by
    /// mask: one run per mask, in the order given.
    fn push_sorted(&mut self, postings: impl Iterator<Item = (u64, DenseId)>) {
        let row = self.masks.len();
        for (mask, d) in postings {
            if self.masks.len() == row || self.masks.last() != Some(&mask) {
                self.masks.push(mask);
                self.offsets.push(self.arena.len() as u32);
            }
            self.arena.push(d);
            if let Some(end) = self.offsets.last_mut() {
                *end = self.arena.len() as u32;
            }
        }
    }

    /// The posting slices of the runs `runs` whose mask fits inside
    /// `event_mask`.
    #[inline]
    fn admitted(
        &self,
        runs: Range<usize>,
        event_mask: u64,
    ) -> impl Iterator<Item = &[DenseId]> + '_ {
        let masks = &self.masks[runs.clone()];
        let starts = &self.offsets[runs.start..runs.end];
        let ends = &self.offsets[runs.start + 1..runs.end + 1];
        masks
            .iter()
            .zip(starts.iter().zip(ends))
            .filter(move |(&m, _)| m & !event_mask == 0)
            .map(|(_, (&a, &b))| &self.arena[a as usize..b as usize])
    }

    /// Every posting of the rows `runs`, in arena order.
    #[cfg(any(test, debug_assertions))]
    fn postings(&self, runs: Range<usize>) -> &[DenseId] {
        &self.arena[self.offsets[runs.start] as usize..self.offsets[runs.end] as usize]
    }
}

/// Lays rows out as mask runs while one full plan compiles: the
/// per-compile mask-group index plus the counting sort's working arrays.
struct RunWriter {
    /// Mask group of each dense id.
    group: Vec<u32>,
    /// The `c3` mask of each group.
    group_masks: Vec<u64>,
    /// Per group: the row in flight's posting count, then its write
    /// cursor. Zero between rows.
    slot: Vec<u32>,
    /// The groups the row in flight holds, in first-seen order.
    touched: Vec<u32>,
}

impl RunWriter {
    /// Indexes the masks of the plan's live dense ids; a free slot, which
    /// no posting names, gets no group. Masks can arrive in a peer's
    /// summary, so the index keeps `std`'s keyed hasher.
    fn new(table: &InternTable) -> RunWriter {
        let mut index: HashMap<u64, u32> = HashMap::new();
        let mut group_masks = Vec::new();
        let group = table
            .slots()
            .map(|slot| {
                slot.map_or(u32::MAX, |id| {
                    *index.entry(id.mask.0).or_insert_with(|| {
                        group_masks.push(id.mask.0);
                        group_masks.len() as u32 - 1
                    })
                })
            })
            .collect();
        RunWriter {
            group,
            slot: vec![0; group_masks.len()],
            group_masks,
            touched: Vec::new(),
        }
    }

    /// Appends one row — the sorted postings `src` — to `runs` as one
    /// run per mask group, each run in dense order.
    fn push_row(&mut self, runs: &mut Runs, src: &[DenseId]) {
        self.touched.clear();
        for &d in src {
            let g = self.group[d as usize];
            let n = &mut self.slot[g as usize];
            if *n == 0 {
                self.touched.push(g);
            }
            *n += 1;
        }
        if let [g] = self.touched[..] {
            self.slot[g as usize] = 0;
            runs.arena.extend_from_slice(src);
            runs.masks.push(self.group_masks[g as usize]);
            runs.offsets.push(runs.arena.len() as u32);
            return;
        }
        let mut at = runs.arena.len() as u32;
        for &g in &self.touched {
            let n = std::mem::replace(&mut self.slot[g as usize], at);
            at += n;
            runs.masks.push(self.group_masks[g as usize]);
            runs.offsets.push(at);
        }
        runs.arena.resize(at as usize, 0);
        for &d in src {
            let cursor = &mut self.slot[self.group[d as usize] as usize];
            runs.arena[*cursor as usize] = d;
            *cursor += 1;
        }
        for &g in &self.touched {
            self.slot[g as usize] = 0;
        }
    }
}

/// The compiled arithmetic bank of one attribute: SoA keys over the
/// AACS_SR partition and the AACS_E values, each row a run range into
/// the plan's [`Runs`].
#[derive(Debug, Clone, PartialEq, Default)]
struct ArithBank {
    /// Lower-bound key per sub-range row, ascending.
    lo_keys: Vec<u64>,
    /// Upper-bound key per sub-range row (same row order).
    hi_keys: Vec<u64>,
    /// Run bounds of the sub-range rows, length `rows + 1`: row `i` is
    /// runs `range_runs[i]..range_runs[i + 1]`.
    range_runs: Vec<u32>,
    /// Equality-row value keys, ascending.
    point_keys: Vec<u64>,
    /// Run bounds of the equality rows, length `points + 1`.
    point_runs: Vec<u32>,
}

impl ArithBank {
    /// Compiles `src`'s rows (every row holds a posting, by the AACS
    /// invariant). `None` when `src` has no rows.
    fn build(src: &RangeSummary, writer: &mut RunWriter, runs: &mut Runs) -> Option<ArithBank> {
        if src.is_empty() {
            return None;
        }
        let mut bank = ArithBank::default();
        bank.range_runs.push(runs.len());
        for row in src.ranges() {
            bank.lo_keys.push(lower_key(row.interval.lo()));
            bank.hi_keys.push(upper_key(row.interval.hi()));
            writer.push_row(runs, &row.ids);
            bank.range_runs.push(runs.len());
        }
        bank.point_runs.push(runs.len());
        for (v, ids) in src.points() {
            bank.point_keys.push(num_key(v));
            writer.push_row(runs, ids);
            bank.point_runs.push(runs.len());
        }
        Some(bank)
    }

    /// Compiles side postings, `(lo, hi, mask, dense id)` with inclusive
    /// keys, into the two kinds of rows: a posting with `lo == hi` into
    /// the equality row at its key, the others into disjoint sub-range
    /// rows. The key line is cut at every sub-range posting's bounds, and
    /// each piece holds the ids covering it; neighbouring pieces holding
    /// the same ids join. That is the AACS partition of the side's own
    /// ids, so a σ-merge compiles at most the delta's own postings.
    fn build_side(postings: &[(u64, u64, u64, DenseId)], runs: &mut Runs) -> ArithBank {
        let (points, ranges): (Vec<_>, Vec<_>) = postings.iter().partition(|e| e.0 == e.1);
        let mut cuts: Vec<u64> = ranges
            .iter()
            .flat_map(|&&(lo, hi, _, _)| [Some(lo), hi.checked_add(1)])
            .flatten()
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let piece = |key: u64| cuts.partition_point(|&c| c < key);
        let mut cells: Vec<(usize, u64, DenseId)> = Vec::new();
        for &&(lo, hi, mask, d) in &ranges {
            let end = hi.checked_add(1).map_or(cuts.len(), piece);
            cells.extend((piece(lo)..end).map(|p| (p, mask, d)));
        }
        cells.sort_unstable();
        cells.dedup();
        let mut bank = ArithBank::default();
        bank.range_runs.push(runs.len());
        let same = |a: &[(usize, u64, DenseId)], b: &[(usize, u64, DenseId)]| {
            a.iter()
                .map(|c| (c.1, c.2))
                .eq(b.iter().map(|c| (c.1, c.2)))
        };
        let mut last: Option<&[(usize, u64, DenseId)]> = None;
        for row in cells.chunk_by(|a, b| a.0 == b.0) {
            let p = row[0].0;
            let hi = cuts.get(p + 1).map_or(u64::MAX, |&c| c - 1);
            match (last, bank.hi_keys.last_mut()) {
                (Some(prev), Some(prev_hi)) if prev[0].0 + 1 == p && same(prev, row) => {
                    *prev_hi = hi;
                }
                _ => {
                    bank.lo_keys.push(cuts[p]);
                    bank.hi_keys.push(hi);
                    runs.push_sorted(row.iter().map(|&(_, mask, d)| (mask, d)));
                    bank.range_runs.push(runs.len());
                }
            }
            last = Some(row);
        }
        let mut points: Vec<(u64, u64, DenseId)> = points
            .iter()
            .map(|&&(key, _, mask, d)| (key, mask, d))
            .collect();
        points.sort_unstable();
        points.dedup();
        bank.point_runs.push(runs.len());
        for row in points.chunk_by(|a, b| a.0 == b.0) {
            bank.point_keys.push(row[0].0);
            runs.push_sorted(row.iter().map(|&(_, mask, d)| (mask, d)));
            bank.point_runs.push(runs.len());
        }
        bank
    }

    /// The run ranges of the sub-range row and the equality row holding
    /// `key` (empty where there is none).
    #[inline]
    fn hits(&self, key: u64) -> [Range<usize>; 2] {
        let mut range_row = 0..0;
        let r = rank_le(&self.lo_keys, key);
        if r > 0 && key <= self.hi_keys[r - 1] {
            range_row = self.range_runs[r - 1] as usize..self.range_runs[r] as usize;
        }
        let mut point_row = 0..0;
        let r = rank_le(&self.point_keys, key);
        if r > 0 && self.point_keys[r - 1] == key {
            point_row = self.point_runs[r - 1] as usize..self.point_runs[r] as usize;
        }
        [range_row, point_row]
    }

    /// Every row as `(lo, hi, run range)`, equality rows as `lo == hi`.
    #[cfg(any(test, debug_assertions))]
    fn rows(&self) -> impl Iterator<Item = (u64, u64, Range<usize>)> + '_ {
        let ranges = (0..self.lo_keys.len()).map(|i| {
            let runs = self.range_runs[i] as usize..self.range_runs[i + 1] as usize;
            (self.lo_keys[i], self.hi_keys[i], runs)
        });
        let points = (0..self.point_keys.len()).map(|i| {
            let runs = self.point_runs[i] as usize..self.point_runs[i + 1] as usize;
            (self.point_keys[i], self.point_keys[i], runs)
        });
        ranges.chain(points)
    }
}

/// The compiled string bank of one attribute: per wildcard row, its
/// pattern and its run range. The bank keeps its own patterns: the live
/// rows shift when a removal empties one.
#[derive(Debug, Clone, PartialEq, Default)]
struct StringBank {
    /// Each wildcard row's pattern, in row order.
    patterns: Vec<Pattern>,
    /// Run bounds of the wildcard rows, length `rows + 1`: row `i` is
    /// runs `wild_runs[i]..wild_runs[i + 1]`.
    wild_runs: Vec<u32>,
    /// A side bank's, per row: the base bank's row of the same pattern,
    /// whose test the probe reuses, or `NO_ROW`. Empty in a base bank.
    base_rows: Vec<u32>,
}

/// A side row whose pattern no base row has.
const NO_ROW: u32 = u32::MAX;

impl StringBank {
    /// Compiles `src`'s wildcard postings.
    fn build(src: &PatternSummary, writer: &mut RunWriter, runs: &mut Runs) -> Option<StringBank> {
        if src.is_empty() {
            return None;
        }
        let mut bank = StringBank::default();
        bank.wild_runs.push(runs.len());
        for row in src.wildcards() {
            bank.patterns.push(row.pattern.clone());
            writer.push_row(runs, &row.ids);
            bank.wild_runs.push(runs.len());
        }
        Some(bank)
    }

    /// The run range of wildcard row `pos`.
    #[inline]
    fn row(&self, pos: usize) -> Range<usize> {
        self.wild_runs[pos] as usize..self.wild_runs[pos + 1] as usize
    }
}

/// What a probe reads of the live summary besides its plans: the rows
/// (the cost model, and the literal maps), and the intern table's ids
/// and thresholds.
#[derive(Clone, Copy)]
pub(crate) struct Live<'a> {
    pub(crate) arith: &'a [Option<RangeSummary>],
    pub(crate) strings: &'a [Option<PatternSummary>],
    pub(crate) ids: &'a [SubscriptionId],
    pub(crate) required: &'a [u32],
}

/// A compiled, frozen probe structure over one summary, or over the
/// postings placed since one compiled: per-attribute SoA banks over one
/// set of mask runs. Derived state — wire format and digests never see
/// it.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct MatchPlan {
    /// Indexed by attribute id; `None` for string attributes and for
    /// arithmetic attributes without rows.
    arith: Vec<Option<ArithBank>>,
    /// Indexed by attribute id; `None` for arithmetic attributes and
    /// for string attributes without rows.
    strings: Vec<Option<StringBank>>,
    /// Every bank's postings, as runs of one mask.
    runs: Runs,
    /// A full compile's bitmap of the slots live when it ran — those it
    /// holds postings for. Empty for a side plan.
    posted: Vec<u64>,
}

impl MatchPlan {
    /// Compiles a plan over a summary's slots, whose postings are dense
    /// ids into `table`, the intern table.
    pub(crate) fn compile(
        arith: &[Option<RangeSummary>],
        strings: &[Option<PatternSummary>],
        table: &InternTable,
    ) -> MatchPlan {
        CNT_PLAN_REBUILDS.inc();
        let mut writer = RunWriter::new(table);
        let mut plan = MatchPlan {
            runs: Runs::new(),
            ..MatchPlan::default()
        };
        for slot in arith {
            let bank = slot
                .as_ref()
                .and_then(|s| ArithBank::build(s, &mut writer, &mut plan.runs));
            plan.arith.push(bank);
        }
        for slot in strings {
            let bank = slot
                .as_ref()
                .and_then(|s| StringBank::build(s, &mut writer, &mut plan.runs));
            plan.strings.push(bank);
        }
        plan.posted = vec![0; table.ids_slice().len().div_ceil(64)];
        for (d, slot) in table.slots().enumerate() {
            if slot.is_some() {
                plan.posted[d / 64] |= 1 << (d % 64);
            }
        }
        CNT_PLAN_POSTINGS.add(plan.runs.arena.len() as u64);
        plan
    }

    /// Compiles the side log over `attrs` attributes, reading each
    /// posting's mask from `ids`. Costs O(P log P) in the log's `P`
    /// postings: it builds no table-wide index. A string row whose
    /// pattern `base` has too is tied to that base row, so a probe tests
    /// the pattern once.
    pub(crate) fn compile_side(
        log: &SideLog,
        ids: &[SubscriptionId],
        attrs: usize,
        base: &MatchPlan,
    ) -> MatchPlan {
        CNT_PLAN_SIDE_COMPILES.inc();
        let mask = |d: DenseId| ids[d as usize].mask.0;
        let mut plan = MatchPlan {
            arith: vec![None; attrs],
            strings: vec![None; attrs],
            runs: Runs::new(),
            posted: Vec::new(),
        };
        let mut arith: Vec<(usize, u64, u64, u64, DenseId)> = (log.arith.iter())
            .map(|&(attr, lo, hi, d)| (attr, lo, hi, mask(d), d))
            .collect();
        arith.sort_unstable();
        let mut postings = Vec::new();
        for group in arith.chunk_by(|a, b| a.0 == b.0) {
            postings.clear();
            postings.extend(group.iter().map(|&(_, lo, hi, m, d)| (lo, hi, m, d)));
            let bank = ArithBank::build_side(&postings, &mut plan.runs);
            if let Some(slot) = plan.arith.get_mut(group[0].0) {
                *slot = Some(bank);
            }
        }
        // `(attribute, log row, mask, id)`: one attribute's rows adjacent,
        // each row's postings grouped by mask.
        let mut strings: Vec<(usize, usize, u64, DenseId)> = (log.strings.iter().enumerate())
            .flat_map(|(k, (attr, _, ids))| ids.iter().map(move |&d| (*attr, k, mask(d), d)))
            .collect();
        strings.sort_unstable();
        strings.dedup();
        for row in strings.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (attr, k) = (row[0].0, row[0].1);
            let (Some(slot), Some((_, pattern, _))) =
                (plan.strings.get_mut(attr), log.strings.get(k))
            else {
                continue;
            };
            let bank = slot.get_or_insert_with(|| StringBank {
                patterns: Vec::new(),
                wild_runs: vec![plan.runs.len()],
                base_rows: Vec::new(),
            });
            let base_row = (base.strings.get(attr).and_then(Option::as_ref))
                .and_then(|b| b.patterns.iter().position(|p| p == pattern));
            bank.base_rows
                .push(base_row.map_or(NO_ROW, |pos| pos as u32));
            plan.runs
                .push_sorted(row.iter().map(|&(_, _, m, d)| (m, d)));
            bank.patterns.push(pattern.clone());
            bank.wild_runs.push(plan.runs.len());
        }
        CNT_PLAN_POSTINGS.add(plan.runs.arena.len() as u64);
        plan
    }

    /// Whether this full compile holds postings for slot `d`.
    fn posted(&self, d: usize) -> bool {
        self.posted
            .get(d / 64)
            .is_some_and(|w| w >> (d % 64) & 1 == 1)
    }

    /// Probes the plan — and `side`, the side plan compiled since it,
    /// if any — with one event, streaming the admitted posting runs
    /// through the packed epoch-counter kernel: per posting one random
    /// access loads `state[d] = (epoch << 16) | count`, bumps the count
    /// (or restarts it when the epoch is stale), and marks the match bit
    /// the moment the count reaches `required[d]` — counts are monotone
    /// within an event, so the threshold fires exactly once per matched
    /// id and no candidate list or second pass exists. A run or literal
    /// posting is admitted when its `c3` mask names no attribute the
    /// event lacks (see the module docs).
    ///
    /// `live` is the summary the plans serve: the probe reads its
    /// literal maps, charges the cost model of its rows, and reads the
    /// thresholds of its intern table (0 for a removed id, whose stale
    /// base postings are counted but never fire). Arithmetic banks skip
    /// per-attribute dedup entirely: an id's postings sit in one of the
    /// two plans, each plan's partition is disjoint, and `validate()`
    /// enforces that no id carries both a sub-range row containing a
    /// value and an equality row at it. String postings take the
    /// `seen`-stamped dedup path only when more than one row
    /// contributes.
    ///
    /// `probe` must be [`ProbeState::prepare`]d to `live.required.len()`;
    /// the matched ids are left in its bitmap for
    /// [`ProbeState::drain_matched`].
    pub(crate) fn probe_into(
        &self,
        side: Option<&MatchPlan>,
        event: &Event,
        live: Live<'_>,
        probe: &mut ProbeState,
        stats: &mut MatchStats,
    ) {
        let ProbeState {
            rows,
            side_rows,
            state,
            seen,
            words,
            token,
            written,
        } = probe;
        let event_mask = event.iter().map(|(attr, _)| attr).collect::<AttrMask>().0;
        let admits = |d: DenseId| live.ids[d as usize].mask.0 & !event_mask == 0;
        let mut kernel = Kernel {
            epoch: *token + 1,
            required: live.required,
            state,
            seen,
            words,
            lo_w: usize::MAX,
            hi_w: 0,
            ids_collected: 0,
            candidates: 0,
        };
        let mut attr_token = kernel.epoch;
        let mut probe_rows = 0u64;
        for (attr, value) in event.iter() {
            attr_token += 1;
            let idx = attr.index();
            if let Some(v) = value.as_num() {
                if let Some(src) = live.arith.get(idx).and_then(Option::as_ref) {
                    // Cost model mirrors `RangeSummary::query_into`:
                    // ⌈log₂ n⌉ + 1 probes, the rest pruned.
                    let n = src.range_rows();
                    if n > 0 {
                        let probes = (usize::BITS - n.leading_zeros()) as usize;
                        stats.rows_scanned += probes;
                        stats.rows_pruned += n.saturating_sub(probes);
                    }
                    if src.point_rows() > 0 {
                        stats.rows_scanned += 1;
                        stats.rows_pruned += src.point_rows() - 1;
                    }
                }
                let key = num_key(v);
                let plans = std::iter::once(self).chain(side);
                for plan in plans {
                    let Some(bank) = plan.arith.get(idx).and_then(Option::as_ref) else {
                        continue;
                    };
                    // Both rows are internally sorted-dedup, and per-id
                    // disjoint across each other (see the method docs),
                    // so every posting is a distinct id for this
                    // attribute.
                    for row in bank.hits(key) {
                        probe_rows += u64::from(!row.is_empty());
                        for run in plan.runs.admitted(row, event_mask) {
                            kernel.count(run);
                        }
                    }
                }
            } else if let Some(s) = value.as_str() {
                // Cost model: one literal-map probe when the map is
                // non-empty, plus every wildcard row (each is tested).
                let mut literal: &[DenseId] = &[];
                if let Some(src) = live.strings.get(idx).and_then(Option::as_ref) {
                    if src.has_literals() {
                        stats.rows_scanned += 1;
                        literal = src.literal_postings(s);
                    }
                    stats.rows_scanned += src.wildcards().len();
                }
                fn bank_of(plan: &MatchPlan, idx: usize) -> Option<&StringBank> {
                    plan.strings.get(idx)?.as_ref()
                }
                rows.clear();
                if let Some(bank) = bank_of(self, idx) {
                    for (pos, pattern) in bank.patterns.iter().enumerate() {
                        if pattern.matches(s) {
                            rows.push(pos as u32);
                        }
                    }
                }
                side_rows.clear();
                if let Some(bank) = side.and_then(|side| bank_of(side, idx)) {
                    for (pos, pattern) in bank.patterns.iter().enumerate() {
                        // A row tied to a base row matched exactly when
                        // that row did (`rows` is ascending).
                        let hit = match bank.base_rows[pos] {
                            NO_ROW => pattern.matches(s),
                            row => rows.binary_search(&row).is_ok(),
                        };
                        if hit {
                            side_rows.push(pos as u32);
                        }
                    }
                }
                let contributors = usize::from(!literal.is_empty()) + rows.len() + side_rows.len();
                probe_rows += contributors as u64;
                // A subscription with several satisfied constraints on
                // this attribute appears in several rows; with more than
                // one contributing row, count it once per attribute via
                // the `seen` stamps. A single row is internally deduped.
                let dedup = contributors > 1;
                let mut count = |run: &[DenseId]| {
                    if dedup {
                        for &d in run {
                            kernel.bump_once(d, attr_token);
                        }
                    } else {
                        kernel.count(run);
                    }
                };
                for &d in literal {
                    if admits(d) {
                        count(std::slice::from_ref(&d));
                    }
                }
                let base_hits = rows.iter().map(|&pos| (self, pos));
                let side_hits = side
                    .into_iter()
                    .flat_map(|side| side_rows.iter().map(move |&pos| (side, pos)));
                for (plan, pos) in base_hits.chain(side_hits) {
                    let Some(bank) = bank_of(plan, idx) else {
                        continue;
                    };
                    for run in plan.runs.admitted(bank.row(pos as usize), event_mask) {
                        count(run);
                    }
                }
            }
        }
        *token = attr_token;
        *written = if kernel.lo_w <= kernel.hi_w {
            kernel.lo_w..kernel.hi_w + 1
        } else {
            0..0
        };
        stats.ids_collected += kernel.ids_collected;
        stats.candidates += kernel.candidates;
        CNT_PLAN_PROBE_ROWS.add(probe_rows);
    }

    /// Asserts the run layout: run bounds monotone and covering the
    /// arena, every bank's row bounds monotone within the runs, and
    /// every posting a dense id whose intern-table mask (`ids`) is its
    /// run's mask.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn assert_layout(&self, ids: &[SubscriptionId]) {
        let runs = &self.runs;
        assert_eq!(runs.offsets.len(), runs.masks.len() + 1, "run bounds");
        assert!(
            runs.offsets.windows(2).all(|w| w[0] <= w[1]),
            "run bounds monotone"
        );
        assert_eq!(
            runs.offsets.last().map(|&end| end as usize),
            Some(runs.arena.len()),
            "runs cover the arena"
        );
        let banks = self.arith.iter().flatten();
        let row_bounds = banks
            .flat_map(|b| [&b.range_runs, &b.point_runs])
            .chain(self.strings.iter().flatten().map(|b| &b.wild_runs));
        for bounds in row_bounds {
            assert!(
                bounds.windows(2).all(|w| w[0] <= w[1]),
                "row run bounds monotone"
            );
            assert!(
                bounds.iter().all(|&k| k <= runs.len()),
                "row run bounds inside the runs"
            );
        }
        for (k, w) in runs.offsets.windows(2).enumerate() {
            for &d in &runs.arena[w[0] as usize..w[1] as usize] {
                assert!((d as usize) < ids.len(), "posting in intern-table range");
                assert_eq!(
                    ids[d as usize].mask.0, runs.masks[k],
                    "posting {d} sits in a run of another mask"
                );
            }
        }
    }

    /// What this plan says about the live ids (`required[d] != 0`):
    /// per arithmetic attribute and id, the key intervals its rows
    /// cover; per string attribute and wildcard pattern, the ids posted
    /// there. Appended to `cover`, unnormalized.
    #[cfg(any(test, debug_assertions))]
    fn coverage(&self, required: &[u32], cover: &mut Coverage) {
        let live = |d: DenseId| required.get(d as usize).is_some_and(|&r| r != 0);
        for (attr, bank) in self.arith.iter().enumerate() {
            for (lo, hi, runs) in bank.iter().flat_map(ArithBank::rows) {
                let ids = self.runs.postings(runs).iter().filter(|&&d| live(d));
                cover.arith.extend(ids.map(|&d| (attr, d, lo, hi)));
            }
        }
        for (attr, bank) in self.strings.iter().enumerate() {
            let Some(bank) = bank else {
                continue;
            };
            for (pos, pattern) in bank.patterns.iter().enumerate() {
                let ids = self
                    .runs
                    .postings(bank.row(pos))
                    .iter()
                    .filter(|&&d| live(d));
                cover
                    .strings
                    .extend(ids.map(|&d| (attr, pattern.to_string(), d)));
            }
        }
    }
}

/// The content of one or more plans, in a form two layouts of the same
/// postings agree on (see [`MatchPlan::coverage`]).
#[cfg(any(test, debug_assertions))]
#[derive(Debug, Default, PartialEq)]
struct Coverage {
    /// `(attribute, id, lo key, hi key)`.
    arith: Vec<(usize, DenseId, u64, u64)>,
    /// `(attribute, pattern, id)`.
    strings: Vec<(usize, String, DenseId)>,
}

#[cfg(any(test, debug_assertions))]
impl Coverage {
    /// Sorts both lists, joins each id's touching or overlapping key
    /// intervals and drops empty ones, and removes duplicate postings.
    fn normalized(mut self) -> Coverage {
        self.arith.retain(|&(_, _, lo, hi)| lo <= hi);
        self.arith.sort_unstable();
        let mut arith: Vec<(usize, DenseId, u64, u64)> = Vec::with_capacity(self.arith.len());
        for e in self.arith {
            match arith.last_mut() {
                Some(last) if (last.0, last.1) == (e.0, e.1) && e.2 <= last.3.saturating_add(1) => {
                    last.3 = last.3.max(e.3);
                }
                _ => arith.push(e),
            }
        }
        self.strings.sort_unstable();
        self.strings.dedup();
        Coverage {
            arith,
            strings: self.strings,
        }
    }
}

/// The packed counter kernel's state for one probe.
struct Kernel<'a> {
    epoch: u64,
    required: &'a [u32],
    state: &'a mut [u64],
    seen: &'a mut [u64],
    words: &'a mut [u64],
    /// First and last bitmap word the probe set a bit in.
    lo_w: usize,
    hi_w: usize,
    /// Postings counted (`MatchStats::ids_collected`).
    ids_collected: usize,
    /// Ids counted for the first time this event
    /// (`MatchStats::candidates`).
    candidates: usize,
}

impl Kernel<'_> {
    /// Counts one posting: one load, one store, with the stale-epoch
    /// reset folded into arithmetic instead of a branch. Returns whether
    /// the id was fresh this event.
    #[inline]
    fn step(&mut self, d: DenseId) -> bool {
        let di = d as usize;
        let prev = self.state[di];
        let fresh = u64::from(prev >> COUNT_BITS != self.epoch);
        let cnt = (prev & COUNT_MASK) * (1 - fresh) + 1;
        self.state[di] = (self.epoch << COUNT_BITS) | cnt;
        if cnt == u64::from(self.required[di]) {
            let w = di / 64;
            self.words[w] |= 1u64 << (di % 64);
            self.lo_w = self.lo_w.min(w);
            self.hi_w = self.hi_w.max(w);
        }
        fresh == 1
    }

    /// Counts one posting known to be new for this attribute.
    #[inline]
    fn bump(&mut self, d: DenseId) {
        self.ids_collected += 1;
        self.candidates += usize::from(self.step(d));
    }

    /// Streams one duplicate-free run.
    #[inline]
    fn count(&mut self, run: &[DenseId]) {
        let mut fresh = 0usize;
        for &d in run {
            fresh += usize::from(self.step(d));
        }
        self.ids_collected += run.len();
        self.candidates += fresh;
    }

    /// As [`Kernel::bump`], skipping a posting already stamped with this
    /// attribute's token.
    #[inline]
    fn bump_once(&mut self, d: DenseId, attr_token: u64) {
        let seen = &mut self.seen[d as usize];
        if *seen != attr_token {
            *seen = attr_token;
            self.bump(d);
        }
    }
}

/// The postings of the ids placed since the base plan compiled, as the
/// live rows placed them; empty while there is no base.
#[derive(Debug, Clone, Default)]
pub(crate) struct SideLog {
    /// Arithmetic postings: `(attribute, lo key, hi key, dense id)`,
    /// inclusive keys (an equality row is `lo == hi`).
    arith: Vec<(usize, u64, u64, DenseId)>,
    /// Wildcard postings: `(attribute, the row's pattern, dense ids)`,
    /// one entry per attribute and pattern. Literal postings need none:
    /// the probe reads the live literal maps.
    strings: Vec<(usize, Pattern, IdList)>,
    /// Ids placed since the base (live ones: a removal forgets one).
    placed: usize,
    /// Base ids removed since the base.
    removed: usize,
}

impl SideLog {
    /// Whether the log holds no postings.
    fn is_empty(&self) -> bool {
        self.arith.is_empty() && self.strings.is_empty()
    }

    /// Drops every posting of dense id `d`.
    fn forget(&mut self, d: DenseId) {
        self.arith.retain(|e| e.3 != d);
        for (_, _, ids) in &mut self.strings {
            ids.retain(|&x| x != d);
        }
        self.strings.retain(|(_, _, ids)| !ids.is_empty());
    }
}

/// How often one summary's plans compiled, and the postings those
/// compiles laid out (`BrokerSummary::plan_compiles`). Per summary, so
/// tests running in parallel do not mix their counts as they do in the
/// process-wide counters.
#[cfg(any(test, debug_assertions))]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCompiles {
    /// Full compiles of every row.
    pub full: u64,
    /// Side compiles of the ids placed since the last full compile.
    pub side: u64,
    /// Postings laid out by both kinds.
    pub postings: u64,
}

/// [`PlanCompiles`] as a plan cell counts them.
#[cfg(any(test, debug_assertions))]
#[derive(Debug, Default)]
struct CompileTally {
    full: std::sync::atomic::AtomicU64,
    side: std::sync::atomic::AtomicU64,
    postings: std::sync::atomic::AtomicU64,
}

#[cfg(any(test, debug_assertions))]
impl CompileTally {
    fn note(&self, side: bool, postings: usize) {
        use std::sync::atomic::Ordering::Relaxed;
        let kind = if side { &self.side } else { &self.full };
        kind.fetch_add(1, Relaxed);
        (self.postings).fetch_add(postings as u64, Relaxed);
    }

    fn get(&self) -> PlanCompiles {
        use std::sync::atomic::Ordering::Relaxed;
        PlanCompiles {
            full: self.full.load(Relaxed),
            side: self.side.load(Relaxed),
            postings: self.postings.load(Relaxed),
        }
    }
}

#[cfg(any(test, debug_assertions))]
impl Clone for CompileTally {
    fn clone(&self) -> Self {
        let counts = self.get();
        CompileTally {
            full: counts.full.into(),
            side: counts.side.into(),
            postings: counts.postings.into(),
        }
    }
}

/// The plan slot of a [`BrokerSummary`](crate::BrokerSummary): the
/// lazily compiled base plan, the side log of the ids placed since, and
/// the side plan compiled from it. Cloned summaries share the compiled
/// plans and copy the log; equality always holds — a plan is derived
/// state, so two summaries with equal rows are equal regardless of
/// compile state.
#[derive(Debug, Default)]
pub(crate) struct PlanCell {
    base: OnceLock<Arc<MatchPlan>>,
    side: SideLog,
    side_plan: OnceLock<Arc<MatchPlan>>,
    /// Whether the rows changed since [`PlanCell::take_changed`] last
    /// ran.
    changed: bool,
    #[cfg(any(test, debug_assertions))]
    tally: CompileTally,
}

impl PlanCell {
    /// The base plan and, when ids were placed since it compiled, the
    /// side plan; `full` or `side` compiles (and caches) a missing one.
    pub(crate) fn plans(
        &self,
        full: impl FnOnce() -> MatchPlan,
        side: impl FnOnce(&SideLog, &MatchPlan) -> MatchPlan,
    ) -> (&MatchPlan, Option<&MatchPlan>) {
        let base = self.base.get_or_init(|| {
            let plan = full();
            #[cfg(any(test, debug_assertions))]
            self.tally.note(false, plan.runs.arena.len());
            Arc::new(plan)
        });
        if self.side.is_empty() {
            return (base, None);
        }
        let side = self.side_plan.get_or_init(|| {
            let plan = side(&self.side, base);
            #[cfg(any(test, debug_assertions))]
            self.tally.note(true, plan.runs.arena.len());
            Arc::new(plan)
        });
        (base, Some(side))
    }

    /// Whether the rows changed since the last call.
    pub(crate) fn take_changed(&mut self) -> bool {
        std::mem::take(&mut self.changed)
    }

    /// Notes that the rows are about to change.
    pub(crate) fn touch(&mut self) {
        self.changed = true;
    }

    /// Drops both plans and the side log: the next match compiles in
    /// full.
    pub(crate) fn invalidate(&mut self) {
        self.changed = true;
        self.base.take();
        self.side_plan.take();
        self.side = SideLog::default();
    }

    /// Whether a base plan is compiled, so that mutations record what
    /// they place.
    fn tracking(&self) -> bool {
        self.base.get().is_some()
    }

    /// Whether the base plan holds postings for slot `d`: a new id must
    /// not take it without a full compile.
    pub(crate) fn base_posted(&self, d: usize) -> bool {
        self.base.get().is_some_and(|base| base.posted(d))
    }

    /// Records `ids`, placed since the base, on arithmetic attribute
    /// `attr` over `iv`.
    pub(crate) fn record_interval(&mut self, attr: usize, iv: Interval, ids: &[DenseId]) {
        self.record_keys(attr, lower_key(iv.lo()), upper_key(iv.hi()), ids);
    }

    /// Records `ids`, placed since the base, in the equality row `v` of
    /// arithmetic attribute `attr`.
    pub(crate) fn record_point(&mut self, attr: usize, v: Num, ids: &[DenseId]) {
        self.record_keys(attr, num_key(v), num_key(v), ids);
    }

    fn record_keys(&mut self, attr: usize, lo: u64, hi: u64, ids: &[DenseId]) {
        if !self.tracking() || lo > hi {
            return;
        }
        self.side_plan.take();
        (self.side.arith).extend(ids.iter().map(|&d| (attr, lo, hi, d)));
    }

    /// Records where [`PatternSummary::place_ids`] put `ids`, placed
    /// since the base, on string attribute `attr` of `slot`: nothing for
    /// a literal row, the row's pattern for a wildcard row, and a drop
    /// of both plans for a substitution.
    pub(crate) fn record_strings(
        &mut self,
        attr: usize,
        slot: &PatternSummary,
        placed: Placement,
        ids: &[DenseId],
    ) {
        if !self.tracking() {
            return;
        }
        match placed {
            Placement::Literal => {}
            Placement::Substituted => self.invalidate(),
            Placement::Row(pos) => {
                let Some(row) = slot.wildcards().get(pos) else {
                    self.invalidate();
                    return;
                };
                self.side_plan.take();
                let strings = &mut self.side.strings;
                match strings
                    .iter_mut()
                    .find(|(a, p, _)| *a == attr && *p == row.pattern)
                {
                    Some((_, _, posted)) => posted.extend_from_slice(ids),
                    None => strings.push((attr, row.pattern.clone(), ids.to_vec())),
                }
            }
        }
    }

    /// Counts `n` ids placed since the base; drops both plans once side
    /// ids and removals since the base outnumber `limit`.
    pub(crate) fn placed(&mut self, n: usize, limit: usize) {
        if self.tracking() {
            self.side.placed += n;
            self.fold_past(limit);
        }
    }

    /// Notes the removal of the id at slot `d`: a base id's postings
    /// stay (its slot's threshold is 0 now), a side id's are forgotten.
    /// Drops both plans as [`PlanCell::placed`] does.
    pub(crate) fn removed(&mut self, d: DenseId, limit: usize) {
        if !self.tracking() {
            return;
        }
        if self.base_posted(d as usize) {
            self.side.removed += 1;
        } else {
            self.side_plan.take();
            self.side.forget(d);
            self.side.placed = self.side.placed.saturating_sub(1);
        }
        self.fold_past(limit);
    }

    fn fold_past(&mut self, limit: usize) {
        if self.side.placed + self.side.removed > limit {
            self.invalidate();
        }
    }

    /// This cell's compile counts.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn compiles(&self) -> PlanCompiles {
        self.tally.get()
    }

    /// Asserts that the cached plans agree with `fresh`, a full compile
    /// of the current rows: the base and side plans' layouts hold, a
    /// cached side plan equals a compile of the log, and the base's and
    /// the side's postings of live ids together cover what the fresh
    /// compile's do, per attribute and row key (key intervals per id,
    /// per arithmetic attribute; ids per pattern, per string one).
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn assert_agrees(
        &self,
        fresh: &MatchPlan,
        ids: &[SubscriptionId],
        required: &[u32],
        attrs: usize,
    ) {
        let Some(base) = self.base.get() else {
            assert!(self.side.is_empty(), "a side log without a base plan");
            return;
        };
        base.assert_layout(ids);
        let side = MatchPlan::compile_side(&self.side, ids, attrs, base);
        side.assert_layout(ids);
        if let Some(cached) = self.side_plan.get() {
            assert!(
                **cached == side,
                "cached side plan out of sync with its log"
            );
        }
        for &d in &side.runs.arena {
            assert!(
                !base.posted(d as usize),
                "dense id {d} posted in both the base and the side plan"
            );
        }
        let (mut have, mut want) = (Coverage::default(), Coverage::default());
        base.coverage(required, &mut have);
        side.coverage(required, &mut have);
        fresh.coverage(required, &mut want);
        assert!(
            have.normalized() == want.normalized(),
            "cached match plan out of sync with the summary rows"
        );
    }
}

impl Clone for PlanCell {
    fn clone(&self) -> Self {
        let cell = PlanCell {
            side: self.side.clone(),
            changed: self.changed,
            #[cfg(any(test, debug_assertions))]
            tally: self.tally.clone(),
            ..PlanCell::default()
        };
        if let Some(plan) = self.base.get() {
            let _ = cell.base.set(Arc::clone(plan));
        }
        if let Some(plan) = self.side_plan.get() {
            let _ = cell.side_plan.set(Arc::clone(plan));
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
    use crate::{BrokerSummary, MatchScratch};
    use subsum_types::{stock_schema, BrokerId, LocalSubId, NumOp, Schema, StrOp, Subscription};

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
        b.plans(MatchPlan::default, |_, _| MatchPlan::default());
        assert!(a == b);
        let c = b.clone();
        assert!(c.base.get().is_some(), "clone shares the compiled plan");
        let mut d = c.clone();
        d.invalidate();
        assert!(d.base.get().is_none());
    }

    fn stock_event(schema: &Schema, with_low: bool) -> Event {
        let b = Event::builder(schema)
            .str("exchange", "NYSE")
            .unwrap()
            .str("symbol", "OTE")
            .unwrap()
            .date("when", 1057055125)
            .unwrap()
            .num("price", 8.40)
            .unwrap()
            .int("volume", 132700)
            .unwrap()
            .num("high", 8.80)
            .unwrap();
        if with_low {
            b.num("low", 8.22).unwrap().build()
        } else {
            b.build()
        }
    }

    #[test]
    fn ids_constraining_an_absent_attribute_are_never_counted() {
        let schema = stock_schema();
        let mut summary = BrokerSummary::new(schema.clone());
        // Every subscription constrains `low`, which the event lacks; the
        // rows they sit in (a range, a point, a prefix and a literal) are
        // all hit by the event's other values.
        let subs = [
            Subscription::builder(&schema)
                .num("price", NumOp::Gt, 8.0)
                .unwrap()
                .num("low", NumOp::Lt, 9.0)
                .unwrap(),
            Subscription::builder(&schema)
                .num("price", NumOp::Eq, 8.40)
                .unwrap()
                .num("low", NumOp::Gt, 1.0)
                .unwrap(),
            Subscription::builder(&schema)
                .str_op("exchange", StrOp::Prefix, "NY")
                .unwrap()
                .num("low", NumOp::Lt, 9.0)
                .unwrap(),
            Subscription::builder(&schema)
                .str_op("symbol", StrOp::Eq, "OTE")
                .unwrap()
                .num("low", NumOp::Lt, 9.0)
                .unwrap(),
        ];
        for (i, b) in subs.into_iter().enumerate() {
            summary.insert(BrokerId(0), LocalSubId(i as u32), &b.build().unwrap());
        }
        let mut scratch = MatchScratch::new();
        let all = summary
            .match_event_into(&stock_event(&schema, true), &mut scratch)
            .clone();
        assert_eq!(all.matched.len(), 4, "with `low` every id matches");
        let lacking = summary.match_event_into(&stock_event(&schema, false), &mut scratch);
        assert!(lacking.matched.is_empty());
        assert_eq!(lacking.stats.candidates, 0);
        assert_eq!(lacking.stats.ids_collected, 0);
        assert!(lacking.stats.rows_scanned > 0, "the rows are still probed");
    }

    #[test]
    fn an_event_with_every_attribute_counts_every_hit_posting() {
        let schema = stock_schema();
        let mut summary = BrokerSummary::new(schema.clone());
        let subs = [
            Subscription::builder(&schema)
                .str_pattern("exchange", "N*SE")
                .unwrap()
                .num("price", NumOp::Lt, 8.70)
                .unwrap()
                .num("price", NumOp::Gt, 8.30)
                .unwrap(),
            Subscription::builder(&schema)
                .str_op("exchange", StrOp::Eq, "NYSE")
                .unwrap()
                .num("price", NumOp::Eq, 8.40)
                .unwrap(),
            Subscription::builder(&schema)
                .str_op("symbol", StrOp::Prefix, "OT")
                .unwrap()
                .str_op("symbol", StrOp::Suffix, "TE")
                .unwrap()
                .num("volume", NumOp::Gt, 130000.0)
                .unwrap(),
            Subscription::builder(&schema)
                .num("low", NumOp::Lt, 9.0)
                .unwrap()
                .num("high", NumOp::Gt, 8.0)
                .unwrap()
                .num("when", NumOp::Gt, 0.0)
                .unwrap(),
            Subscription::builder(&schema)
                .str_op("symbol", StrOp::Contains, "T")
                .unwrap()
                .num("low", NumOp::Gt, 8.0)
                .unwrap(),
        ];
        for (i, b) in subs.into_iter().enumerate() {
            summary.insert(BrokerId(0), LocalSubId(i as u32), &b.build().unwrap());
        }
        let event = stock_event(&schema, true);
        // The hit rows' postings, deduplicated per attribute as the
        // counter kernel counts them.
        let mut hit_postings = 0;
        for (attr, value) in event.iter() {
            let mut ids = match (summary.arith_summary(attr), summary.string_summary(attr)) {
                (Some(a), _) => a.query(value.as_num().unwrap()),
                (_, Some(s)) => s.query_scan(value.as_str().unwrap()),
                _ => continue,
            };
            ids.sort_unstable();
            ids.dedup();
            hit_postings += ids.len();
        }
        let mut scratch = MatchScratch::new();
        let outcome = summary.match_event_into(&event, &mut scratch);
        assert_eq!(outcome.stats.ids_collected, hit_postings);
        assert_eq!(outcome.stats.candidates, 5);
        assert_eq!(outcome.matched, summary.match_event_scan(&event).matched);
    }

    #[test]
    fn rows_of_several_masks_are_laid_out_as_runs() {
        let schema = stock_schema();
        let mut summary = BrokerSummary::new(schema.clone());
        // Alternating masks in one `price` row: {price} and {price, low}.
        for i in 0..6u32 {
            let mut b = Subscription::builder(&schema)
                .num("price", NumOp::Gt, 1.0)
                .unwrap();
            if i % 2 == 1 {
                b = b.num("low", NumOp::Lt, 9.0).unwrap();
            }
            summary.insert(BrokerId(0), LocalSubId(i), &b.build().unwrap());
        }
        let plan = summary.compile_plan();
        plan.assert_layout(summary.intern_table().ids_slice());
        let price = schema.attr_id("price").unwrap().index();
        let bank = plan.arith[price].as_ref().unwrap();
        assert_eq!(bank.range_runs, vec![0, 2], "one row, two runs");
        // Each run keeps dense order.
        assert_eq!(plan.runs.postings(0..1), &[0, 2, 4]);
        assert_eq!(plan.runs.postings(1..2), &[1, 3, 5]);
    }

    #[test]
    fn empty_summaries_compile_to_empty_banks() {
        let arith = vec![None, Some(RangeSummary::new())];
        let strings = vec![Some(PatternSummary::new()), None];
        let plan = MatchPlan::compile(&arith, &strings, &InternTable::default());
        assert!(plan.arith.iter().all(Option::is_none));
        assert!(plan.strings.iter().all(Option::is_none));
        assert!(plan.runs.arena.is_empty());
        plan.assert_layout(&[]);
    }
}
