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
//! * per string attribute, a [`StringBank`]: a run range per wildcard
//!   row. The pattern tests and the literal rows stay on the
//!   [`PatternSummary`]: a literal is one hash probe there,
//!   and copying every literal into the plan cost more than the rest of
//!   a compile;
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
//! it never travels on the wire, never contributes to digests, and is
//! rebuilt whenever the rows change.
//! [`BrokerSummary`](crate::BrokerSummary) drops its cached plan on every
//! mutation and recompiles lazily on the next match; clones share the
//! compiled plan until either side mutates.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use subsum_telemetry::Count;
use subsum_types::{AttrMask, Event, LowerBound, Num, SubscriptionId, UpperBound};

use crate::aacs::RangeSummary;
use crate::idlist::DenseId;
use crate::sacs::PatternSummary;
use crate::summary::{InternTable, MatchStats};

/// Plan compilations.
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
    /// The number of runs so far — the end of the row just appended.
    fn len(&self) -> u32 {
        self.masks.len() as u32
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
    #[cfg(test)]
    fn postings(&self, runs: Range<usize>) -> &[DenseId] {
        &self.arena[self.offsets[runs.start] as usize..self.offsets[runs.end] as usize]
    }
}

/// Lays rows out as mask runs while one plan compiles: the per-compile
/// mask-group index plus the counting sort's working arrays.
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
}

/// The compiled string bank of one attribute: a run range per wildcard
/// row, parallel to the source [`PatternSummary`]'s row vector, whose
/// patterns the probe tests and whose literal map it reads directly.
#[derive(Debug, Clone, PartialEq, Default)]
struct StringBank {
    /// Run bounds of the wildcard rows, length `rows + 1`: row `i` is
    /// runs `wild_runs[i]..wild_runs[i + 1]`.
    wild_runs: Vec<u32>,
}

impl StringBank {
    /// Compiles `src`'s wildcard postings.
    fn build(src: &PatternSummary, writer: &mut RunWriter, runs: &mut Runs) -> Option<StringBank> {
        if src.is_empty() {
            return None;
        }
        let mut bank = StringBank::default();
        bank.wild_runs.push(runs.len());
        for row in src.wildcards() {
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

/// A compiled, frozen probe structure over one summary: per-attribute
/// SoA banks over one set of mask runs. Derived state — wire format and
/// digests never see it.
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
        let mut plan = MatchPlan::default();
        plan.runs.offsets.push(0);
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
        plan
    }

    /// Probes the plan with one event, streaming the admitted posting
    /// runs through the packed epoch-counter kernel: per posting one
    /// random access loads `state[d] = (epoch << 16) | count`, bumps the
    /// count (or restarts it when the epoch is stale), and marks the
    /// match bit the moment the count reaches `required[d]` — counts
    /// are monotone within an event, so the threshold fires exactly
    /// once per matched id and no candidate list or second pass exists.
    /// A run or literal posting is admitted when its `c3` mask names no
    /// attribute the event lacks (see the module docs).
    ///
    /// `strings` must be the summaries this plan was compiled from
    /// (the probe tests their wildcard rows' patterns in row order;
    /// their literal maps hold the literal rows), and
    /// `ids` / `required` the intern-table entries and thresholds of the
    /// plan's dense ids. Arithmetic banks skip per-attribute dedup
    /// entirely: the AACS partition is disjoint and `validate()`
    /// enforces that no id carries both a sub-range row containing a
    /// value and an equality row at it. String postings take the
    /// `seen`-stamped dedup path only when more than one row
    /// contributes.
    ///
    /// `probe` must be [`ProbeState::prepare`]d to `required.len()`; the
    /// matched ids are left in its bitmap for
    /// [`ProbeState::drain_matched`].
    pub(crate) fn probe_into(
        &self,
        event: &Event,
        strings: &[Option<PatternSummary>],
        ids: &[SubscriptionId],
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
        let event_mask = event.iter().map(|(attr, _)| attr).collect::<AttrMask>().0;
        let admits = |d: DenseId| ids[d as usize].mask.0 & !event_mask == 0;
        let mut kernel = Kernel {
            epoch: *token + 1,
            required,
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
            if let Some(bank) = self.arith.get(idx).and_then(Option::as_ref) {
                let Some(v) = value.as_num() else {
                    continue;
                };
                let key = num_key(v);
                let mut range_row = 0..0;
                if !bank.lo_keys.is_empty() {
                    // Cost model mirrors `RangeSummary::query_into`:
                    // ⌈log₂ n⌉ + 1 probes, the rest pruned.
                    let probes = (usize::BITS - bank.lo_keys.len().leading_zeros()) as usize;
                    stats.rows_scanned += probes;
                    stats.rows_pruned += bank.lo_keys.len().saturating_sub(probes);
                    let r = rank_le(&bank.lo_keys, key);
                    if r > 0 && key <= bank.hi_keys[r - 1] {
                        range_row = bank.range_runs[r - 1] as usize..bank.range_runs[r] as usize;
                    }
                }
                let mut point_row = 0..0;
                if !bank.point_keys.is_empty() {
                    stats.rows_scanned += 1;
                    stats.rows_pruned += bank.point_keys.len() - 1;
                    let r = rank_le(&bank.point_keys, key);
                    if r > 0 && bank.point_keys[r - 1] == key {
                        point_row = bank.point_runs[r - 1] as usize..bank.point_runs[r] as usize;
                    }
                }
                probe_rows += u64::from(!range_row.is_empty()) + u64::from(!point_row.is_empty());
                // Both rows are internally sorted-dedup, and per-id
                // disjoint across each other (see the method docs), so
                // every posting is a distinct id for this attribute.
                for row in [range_row, point_row] {
                    for run in self.runs.admitted(row, event_mask) {
                        kernel.count(run);
                    }
                }
            } else if let Some(bank) = self.strings.get(idx).and_then(Option::as_ref) {
                let Some(src) = strings.get(idx).and_then(Option::as_ref) else {
                    continue;
                };
                let Some(s) = value.as_str() else {
                    continue;
                };
                // Cost model: one literal-map probe when the map is
                // non-empty, plus every wildcard row (each is tested).
                let mut literal: &[DenseId] = &[];
                if src.has_literals() {
                    stats.rows_scanned += 1;
                    literal = src.literal_postings(s);
                }
                let wildcards = src.wildcards();
                stats.rows_scanned += wildcards.len();
                rows.clear();
                for (pos, row) in wildcards.iter().enumerate() {
                    if row.pattern.matches(s) {
                        rows.push(pos as u32);
                    }
                }
                let contributors = usize::from(!literal.is_empty()) + rows.len();
                probe_rows += contributors as u64;
                if contributors <= 1 {
                    // A single contributing row is internally deduped:
                    // skip the `seen` stamps.
                    for &d in literal {
                        if admits(d) {
                            kernel.bump(d);
                        }
                    }
                    for &pos in rows.iter() {
                        for run in self.runs.admitted(bank.row(pos as usize), event_mask) {
                            kernel.count(run);
                        }
                    }
                } else {
                    // A subscription with several satisfied constraints
                    // on this attribute appears in several rows; count
                    // it once per attribute via the `seen` stamps.
                    for &d in literal {
                        if admits(d) {
                            kernel.bump_once(d, attr_token);
                        }
                    }
                    for &pos in rows.iter() {
                        for run in self.runs.admitted(bank.row(pos as usize), event_mask) {
                            for &d in run {
                                kernel.bump_once(d, attr_token);
                            }
                        }
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

    /// As [`PlanCell::get_or_compile`]; returns whether it compiled.
    pub(crate) fn compile_if_stale(&self, compile: impl FnOnce() -> MatchPlan) -> bool {
        let stale = self.0.get().is_none();
        self.get_or_compile(compile);
        stale
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
        b.get_or_compile(MatchPlan::default);
        assert!(a == b);
        let c = b.clone();
        assert!(c.cached().is_some(), "clone shares the compiled plan");
        let mut d = c.clone();
        d.invalidate();
        assert!(d.cached().is_none());
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
