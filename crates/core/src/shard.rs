//! Shard-per-core matching: a [`BrokerSummary`] partitioned by dense-id
//! range. A core-only structure: every broker host matches and mutates
//! its stored summaries from one owner and routes over the flat summary,
//! so nothing outside this crate's tests and the ledger's reference rows
//! holds one.
//!
//! [`ShardedSummary`] keeps the canonical, wire-faithful summary (the
//! *flat* [`BrokerSummary`]) behind a writer mutex and publishes a
//! **derived** [`ShardSet`] as an `Arc`: `insert` / `remove` / `merge`
//! mutate the flat summary and, when its rows changed, re-derive the
//! shard partition off to the side and swap the new `Arc` in. A matcher
//! clones the current `Arc` and probes with no lock held, so a writer
//! never waits for a probe and a probe waits for a writer only across
//! the pointer swap; a retired partition is freed when its last matcher
//! drops it.
//!
//! # Shards are representation-free derived state
//!
//! Shard `k` owns the contiguous dense-id range `bounds[k] ..
//! bounds[k+1]` (word-aligned so per-shard match bitmaps merge
//! word-wise). Its rows are the *flat* summary's rows with posting
//! lists restricted to the shard's range and rebased to shard-local
//! ids. Because SACS row formation depends on insertion order (covering
//! and absorption), shards are **never** built by re-inserting
//! subscriptions — that could place an id under a different covering
//! pattern than the flat build and change the candidate set. Splitting
//! the flat rows instead guarantees, row by row:
//!
//! ```text
//! matched(shard k) == matched(flat) ∩ [bounds[k], bounds[k+1])
//! ```
//!
//! so the union over shards equals the flat kernel's output *exactly*
//! (same ids, same false positives), and the wire format and digest are
//! untouched — the codec encodes the flat summary, and a decoder
//! rebuilds the partition from it, exactly like the intern table.
//!
//! # Per-shard kernel layout
//!
//! Each shard carries a compiled [`MatchPlan`] (see [`crate::plan`]):
//! the disjoint sorted AACS sub-ranges as two flat `u64` key arrays
//! (struct-of-arrays, branchless lower-bound search, containment as two
//! unsigned compares with no `Interval` enum dispatch), AACS_E values
//! as a sorted key array, and every AACS, AACS_E and SACS wildcard
//! posting list laid back to back in one dense-u32 arena as runs of one
//! `c3` mask — the flat layout with the mask-group index read from the
//! intern-table ids sliced to the shard's range.
//! Plans are compiled once per shard when a partition is derived, so the
//! publish path always probes a frozen plan; retired plans leave with
//! their [`ShardSet`] when its last `Arc` drops.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use subsum_telemetry::Count;
use subsum_types::{Event, Schema, Subscription, SubscriptionId};

#[cfg(any(test, debug_assertions))]
use crate::idlist::DenseId;
use crate::idlist::SubIdList;
#[cfg(any(test, debug_assertions))]
use crate::plan::{lower_key, num_key, upper_key};
use crate::plan::{MatchPlan, ProbeState};
use crate::summary::{BrokerSummary, MatchOutcome, MatchStats};
use crate::{PatternSummary, SummaryDigest};

/// Per-shard kernel invocations (the fan-out width of sharded matching).
static CNT_SHARD_FANOUT: Count = Count::new(subsum_telemetry::names::MATCH_SHARD_FANOUT);
/// Nanoseconds spent merging per-shard bitmaps and extracting the
/// sorted output.
static CNT_SHARD_MERGE_NS: Count = Count::new(subsum_telemetry::names::MATCH_SHARD_MERGE_NS);

/// One shard: the flat summary's rows restricted to a contiguous dense
/// range, in shard-local id space, compiled into a frozen probe plan.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    /// First global dense id of the shard (a multiple of 64).
    base: u32,
    /// The compiled columnar plan over this shard's rows.
    plan: MatchPlan,
    /// Per-attribute SACS restrictions (`None` where empty). The plan
    /// borrows candidate selection, the pattern tests and the literal
    /// rows from these summaries; only wildcard postings are compiled.
    strings: Vec<Option<PatternSummary>>,
    /// `required[local]` — the flat table's counter thresholds for this
    /// shard's dense slice.
    required: Vec<u32>,
}

impl Shard {
    fn len(&self) -> usize {
        self.required.len()
    }

    /// The intern-table entries of this shard's dense ids.
    fn ids<'s>(&self, set: &'s ShardSet) -> &'s [SubscriptionId] {
        &set.ids[self.base as usize..self.base as usize + self.len()]
    }
}

/// A published shard partition: derived state, rebuilt from the flat
/// summary on every mutation and swapped in atomically.
#[derive(Debug, Clone)]
pub(crate) struct ShardSet {
    /// Partition bounds over the global dense space: shard `k` owns
    /// `bounds[k] .. bounds[k+1]`; interior bounds are multiples of 64.
    /// Each shard carries its own `base`; only `validate_set` reads this.
    #[cfg(any(test, debug_assertions))]
    bounds: Vec<u32>,
    /// The flat intern-table id list (global dense id -> full id).
    ids: SubIdList,
    shards: Vec<Shard>,
}

impl ShardSet {
    /// Derives the partition from the flat rows and compiles one frozen
    /// [`MatchPlan`] per shard: by the time the set is published, every
    /// plan is immutable and the publish path never compiles.
    fn derive(flat: &BrokerSummary, shard_count: usize) -> ShardSet {
        let ids = flat.intern_table().ids_slice();
        let bounds = partition_bounds(ids.len(), shard_count);
        let shards = bounds
            .windows(2)
            .map(|w| {
                let strings: Vec<Option<PatternSummary>> = flat
                    .string_slots()
                    .iter()
                    .map(|s| s.as_ref().and_then(|s| s.filter_rebase(w[0], w[1])))
                    .collect();
                let local = &ids[w[0] as usize..w[1] as usize];
                let plan = MatchPlan::compile(flat.arith_slots(), &strings, local, w[0]);
                Shard {
                    base: w[0],
                    plan,
                    strings,
                    required: flat.intern_table().required_slice()[w[0] as usize..w[1] as usize]
                        .to_vec(),
                }
            })
            .collect();
        ShardSet {
            #[cfg(any(test, debug_assertions))]
            bounds,
            ids: ids.to_vec(),
            shards,
        }
    }
}

/// The deterministic partition function: `n` dense ids split into at
/// most `shard_count` contiguous ranges of equal word-aligned size
/// (every interior bound is a multiple of 64, so shard-local bitmap
/// words map to disjoint global words and merge by copy/OR). Returns
/// the `bounds` array, length `shards + 1`.
pub(crate) fn partition_bounds(n: usize, shard_count: usize) -> Vec<u32> {
    let s = shard_count.max(1);
    let chunk = n.div_ceil(s).div_ceil(64).max(1) * 64;
    let mut bounds: Vec<u32> = Vec::with_capacity(s + 1);
    bounds.push(0);
    let mut at = 0usize;
    while at < n {
        at = (at + chunk).min(n);
        bounds.push(at as u32);
    }
    if bounds.len() == 1 {
        // Empty summary: keep one (empty) shard so matching has a
        // well-formed partition to walk.
        bounds.push(0);
    }
    bounds
}

/// Reusable working memory for [`ShardedSummary::match_event_into`]:
/// one probe state per shard (the same packed-counter working memory
/// [`crate::MatchScratch`] holds, sized to the shard's local dense
/// space) and the outcome buffer. Like [`crate::MatchScratch`], a warm
/// scratch makes the sharded steady-state match loop allocation-free —
/// taking the current partition is one lock and one `Arc` clone.
#[derive(Debug, Default)]
pub struct ShardScratch {
    kernels: Vec<ProbeState>,
    outcome: MatchOutcome,
}

impl ShardScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        ShardScratch::default()
    }

    /// The outcome of the most recent match served by this scratch.
    pub fn outcome(&self) -> &MatchOutcome {
        &self.outcome
    }
}

/// A [`BrokerSummary`] sharded by dense-id range, its partition
/// published as an `Arc`.
///
/// All methods take `&self`: writers serialize on an internal mutex
/// around the canonical flat summary and swap in derived [`ShardSet`]
/// versions; matchers clone the current version and probe it unlocked,
/// so a `ShardedSummary` can be shared across a worker pool while
/// subscribe/unsubscribe churn runs concurrently.
///
/// The sharded matcher's `matched` output is **identical** to the flat
/// [`BrokerSummary::match_event_into`] — same candidates, same sorted
/// order (see the module docs for why); work counters differ (per-shard
/// probes are accounted per shard).
#[derive(Debug)]
pub struct ShardedSummary {
    flat: Mutex<BrokerSummary>,
    shard_count: usize,
    /// The partition derived from `flat`'s rows; held only to clone or
    /// to replace the `Arc`.
    current: Mutex<Arc<ShardSet>>,
}

// A worker pool shares one summary: that needs `Send + Sync`.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<ShardedSummary>();
};

/// Locks `m`; a poisoned lock is recovered, not propagated, so no
/// caller panics.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ShardedSummary {
    /// Creates an empty sharded summary over `schema` targeting
    /// `shard_count` shards (small populations may yield fewer, since
    /// shards are word-aligned).
    pub fn new(schema: Schema, shard_count: usize) -> Self {
        ShardedSummary::from_flat(BrokerSummary::new(schema), shard_count)
    }

    /// Shards an existing flat summary (e.g. one rebuilt by a wire
    /// decode — the partition is derived state and never travels).
    pub fn from_flat(flat: BrokerSummary, shard_count: usize) -> Self {
        let set = ShardSet::derive(&flat, shard_count);
        ShardedSummary {
            flat: Mutex::new(flat),
            shard_count,
            current: Mutex::new(Arc::new(set)),
        }
    }

    /// The configured shard-count target.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The current partition; its lock is held only for the clone.
    fn current(&self) -> Arc<ShardSet> {
        Arc::clone(&lock(&self.current))
    }

    /// Runs `f` over the canonical flat summary (wire encoding, stats,
    /// digests — everything representation-level goes through here).
    pub fn with_flat<R>(&self, f: impl FnOnce(&BrokerSummary) -> R) -> R {
        f(&lock(&self.flat))
    }

    /// A clone of the canonical flat summary.
    pub fn to_flat(&self) -> BrokerSummary {
        lock(&self.flat).clone()
    }

    /// Consumes the sharded view, returning the canonical flat summary.
    pub fn into_flat(self) -> BrokerSummary {
        self.flat
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The canonical digest — computed on the flat summary, so it is
    /// byte-identical to an unsharded build of the same subscriptions.
    pub fn digest(&self) -> SummaryDigest {
        lock(&self.flat).digest()
    }

    /// The number of subscriptions summarized.
    pub fn subscription_count(&self) -> usize {
        lock(&self.flat).subscription_count()
    }

    /// Mutates the flat summary under the writer lock; when `f` reports
    /// that the rows changed, derives a fresh shard partition and swaps
    /// it in. Matchers keep probing the version they cloned, and a no-op
    /// mutation swaps nothing.
    fn mutate(&self, f: impl FnOnce(&mut BrokerSummary) -> bool) {
        let mut flat = lock(&self.flat);
        if f(&mut flat) {
            let set = Arc::new(ShardSet::derive(&flat, self.shard_count));
            // Swapped under the lock, dropped outside it: when no matcher
            // holds the old version, freeing it does not stall the next.
            let retired = std::mem::replace(&mut *lock(&self.current), set);
            drop(retired);
        }
    }

    /// As [`BrokerSummary::insert`].
    pub fn insert(
        &self,
        broker: subsum_types::BrokerId,
        local: subsum_types::LocalSubId,
        sub: &Subscription,
    ) -> SubscriptionId {
        let id = SubscriptionId::new(broker, local, sub.attr_mask());
        self.insert_with_id(id, sub);
        id
    }

    /// As [`BrokerSummary::insert_with_id`]. An everywhere-unsatisfiable
    /// subscription interns nothing and publishes nothing.
    pub fn insert_with_id(&self, id: SubscriptionId, sub: &Subscription) {
        self.mutate(|flat| {
            flat.insert_with_id(id, sub);
            interned(flat, &id)
        });
    }

    /// As [`BrokerSummary::remove`]. An unknown id publishes nothing.
    pub fn remove(&self, id: SubscriptionId) {
        self.mutate(|flat| {
            let known = interned(flat, &id);
            flat.remove(id);
            known
        });
    }

    /// As [`BrokerSummary::merge`]. An empty `other` publishes nothing.
    pub fn merge(&self, other: &BrokerSummary) {
        self.mutate(|flat| {
            flat.merge(other);
            !other.is_empty()
        });
    }

    /// Matches one event against the current shard partition — the
    /// sharded drop-in for [`BrokerSummary::match_event_into`], with
    /// byte-identical `matched` output.
    ///
    /// Clones the current partition, runs the per-shard counter kernels
    /// in ascending shard order, then merges the per-shard bitmaps
    /// word-wise and extracts set bits in ascending global dense order —
    /// which is ascending [`SubscriptionId`] order, so the output is
    /// sorted with no sort. Zero heap allocations at steady state.
    pub fn match_event_into<'s>(
        &self,
        event: &Event,
        scratch: &'s mut ShardScratch,
    ) -> &'s MatchOutcome {
        let set = self.current();
        let ShardScratch { kernels, outcome } = scratch;
        if kernels.len() < set.shards.len() {
            kernels.resize_with(set.shards.len(), ProbeState::default);
        }
        outcome.matched.clear();
        outcome.stats = MatchStats::default();
        for (shard, kernel) in set.shards.iter().zip(kernels.iter_mut()) {
            CNT_SHARD_FANOUT.inc();
            kernel.prepare(shard.len());
            shard.plan.probe_into(
                event,
                &shard.strings,
                shard.ids(&set),
                &shard.required,
                kernel,
                &mut outcome.stats,
            );
        }
        // Merge phase: per-shard words map to disjoint global words
        // (bases are multiples of 64), so walking shards in partition
        // order *is* the word-wise merge, feeding the same sorted
        // extraction as the flat kernel.
        let merge_start = Instant::now();
        for (shard, kernel) in set.shards.iter().zip(kernels.iter_mut()) {
            let base = shard.base as usize;
            kernel.drain_matched(|d| outcome.matched.push(set.ids[base + d]));
        }
        CNT_SHARD_MERGE_NS.add(merge_start.elapsed().as_nanos() as u64);
        outcome
    }

    /// Deep validation of the published partition against the canonical
    /// flat summary — shard-coherence checks layered on top of
    /// [`BrokerSummary::validate`]. See `validate_set`.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    #[cfg(any(test, debug_assertions))]
    pub fn validate(&self) {
        let flat = lock(&self.flat);
        flat.validate();
        validate_set(&flat, &self.current());
    }
}

/// Whether `id` holds a slot in `flat`'s intern table.
fn interned(flat: &BrokerSummary, id: &SubscriptionId) -> bool {
    flat.intern_table().ids_slice().binary_search(id).is_ok()
}

impl Clone for ShardedSummary {
    /// Clones the canonical summary and derives a fresh partition.
    fn clone(&self) -> Self {
        ShardedSummary::from_flat(self.to_flat(), self.shard_count)
    }
}

/// Shard-coherence invariants, checked in tests and debug builds:
///
/// * the partition covers `0..n` contiguously with word-aligned
///   interior bounds, and the id table equals the flat intern table;
/// * per shard, `required` mirrors the flat thresholds and every
///   posting is in shard-local range;
/// * per-shard plan keys are sorted with each row's `lo <= hi`, the run
///   layout holds ([`MatchPlan::assert_layout`]: monotone bounds, every
///   posting in shard-local range and in a run of its own mask), and
///   the whole plan equals a fresh compile of the flat rows restricted
///   to the shard;
/// * splitting loses nothing: for every attribute, the multiset of
///   (row, global id) postings across shards — read back out of the
///   compiled plan banks — equals the flat summary's rows exactly
///   (ranges by bound keys, points by value key, SACS rows by rendered
///   pattern).
///
/// # Panics
///
/// Panics on the first violated invariant.
#[cfg(any(test, debug_assertions))]
pub(crate) fn validate_set(flat: &BrokerSummary, set: &ShardSet) {
    let n = flat.intern_table().ids_slice().len();
    assert_eq!(&set.ids, flat.intern_table().ids_slice(), "shard id table");
    assert!(set.bounds.len() >= 2, "partition has at least one shard");
    assert_eq!(set.bounds[0], 0, "partition starts at 0");
    assert_eq!(
        *set.bounds.last().unwrap_or(&0) as usize,
        n,
        "partition covers the dense space"
    );
    assert_eq!(set.shards.len(), set.bounds.len() - 1, "bounds/shards");
    for w in set.bounds.windows(2) {
        assert!(w[0] <= w[1], "bounds monotone");
    }
    for &b in &set.bounds[1..set.bounds.len() - 1] {
        assert_eq!(b % 64, 0, "interior bound word-aligned");
    }
    for (k, shard) in set.shards.iter().enumerate() {
        let (lo, hi) = (set.bounds[k], set.bounds[k + 1]);
        assert_eq!(shard.base, lo, "shard base matches partition");
        assert_eq!(shard.len(), (hi - lo) as usize, "shard length");
        assert_eq!(
            shard.required,
            &flat.intern_table().required_slice()[lo as usize..hi as usize],
            "shard required thresholds"
        );
        for bank in shard.plan.arith.iter().flatten() {
            assert!(
                bank.lo_keys.windows(2).all(|w| w[0] < w[1]),
                "shard lo keys strictly ascending"
            );
            for (i, &lo_k) in bank.lo_keys.iter().enumerate() {
                assert!(lo_k <= bank.hi_keys[i], "row keys ordered");
            }
            assert_eq!(bank.range_runs.len(), bank.lo_keys.len() + 1, "range rows");
            assert!(
                bank.point_keys.windows(2).all(|w| w[0] < w[1]),
                "shard point keys strictly ascending"
            );
            assert_eq!(
                bank.point_runs.len(),
                bank.point_keys.len() + 1,
                "point rows"
            );
        }
        shard.plan.assert_layout(shard.ids(set));
        for sacs in shard.strings.iter().flatten() {
            sacs.validate();
            for (_, ids) in sacs.rows() {
                for &d in ids {
                    assert!((d as usize) < shard.len(), "SACS posting in range");
                }
            }
        }
        // The frozen plan is a pure function of the flat rows restricted
        // to the shard: a fresh compile must reproduce it byte for byte.
        let recompiled = MatchPlan::compile(flat.arith_slots(), &shard.strings, shard.ids(set), lo);
        assert!(
            shard.plan == recompiled,
            "shard plan out of sync with the flat rows"
        );
    }
    // Nothing lost, nothing invented: shard postings reassemble the
    // flat rows exactly.
    for (attr, slot) in flat.arith_slots().iter().enumerate() {
        let mut flat_rows: Vec<(u64, u64, DenseId)> = Vec::new();
        if let Some(s) = slot {
            for row in s.ranges() {
                for &d in &row.ids {
                    flat_rows.push((
                        lower_key(row.interval.lo()),
                        upper_key(row.interval.hi()),
                        d,
                    ));
                }
            }
            for (v, ids) in s.points() {
                for &d in ids {
                    flat_rows.push((num_key(v), u64::MAX, d));
                }
            }
        }
        let mut shard_rows: Vec<(u64, u64, DenseId)> = Vec::new();
        for shard in &set.shards {
            if let Some(bank) = shard.plan.arith.get(attr).and_then(Option::as_ref) {
                let row = |bounds: &[u32], i: usize| bounds[i] as usize..bounds[i + 1] as usize;
                for (i, &lo_k) in bank.lo_keys.iter().enumerate() {
                    for &d in shard.plan.runs.postings(row(&bank.range_runs, i)) {
                        shard_rows.push((lo_k, bank.hi_keys[i], shard.base + d));
                    }
                }
                for (i, &pk) in bank.point_keys.iter().enumerate() {
                    for &d in shard.plan.runs.postings(row(&bank.point_runs, i)) {
                        shard_rows.push((pk, u64::MAX, shard.base + d));
                    }
                }
            }
        }
        flat_rows.sort_unstable();
        shard_rows.sort_unstable();
        assert_eq!(
            flat_rows, shard_rows,
            "AACS postings reassemble (attr {attr})"
        );
    }
    for (attr, slot) in flat.string_slots().iter().enumerate() {
        let mut flat_rows: Vec<(String, DenseId)> = Vec::new();
        if let Some(s) = slot {
            for (pattern, ids) in s.rows() {
                for &d in ids {
                    flat_rows.push((pattern.to_string(), d));
                }
            }
        }
        let mut shard_rows: Vec<(String, DenseId)> = Vec::new();
        for shard in &set.shards {
            if let Some(s) = shard.strings.get(attr).and_then(Option::as_ref) {
                for (pattern, ids) in s.rows() {
                    for &d in ids {
                        shard_rows.push((pattern.to_string(), shard.base + d));
                    }
                }
            }
        }
        flat_rows.sort_unstable();
        shard_rows.sort_unstable();
        assert_eq!(
            flat_rows, shard_rows,
            "SACS postings reassemble (attr {attr})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsum_types::{stock_schema, BrokerId, LocalSubId, NumOp, StrOp};

    fn population(count: u32) -> (Schema, Vec<(SubscriptionId, Subscription)>) {
        let schema = stock_schema();
        let mut subs = Vec::new();
        for i in 0..count {
            let lo = (i % 40) as f64;
            let mut b = Subscription::builder(&schema)
                .num("price", NumOp::Ge, lo)
                .unwrap()
                .num("price", NumOp::Lt, lo + 17.0)
                .unwrap();
            if i % 3 == 0 {
                let prefix = [b'A' + (i % 26) as u8];
                b = b
                    .str_op(
                        "symbol",
                        StrOp::Prefix,
                        std::str::from_utf8(&prefix).unwrap(),
                    )
                    .unwrap();
            }
            if i % 5 == 0 {
                b = b.num("volume", NumOp::Eq, (i % 9) as f64 * 100.0).unwrap();
            }
            if i % 7 == 0 {
                b = b.str_op("exchange", StrOp::Suffix, "SE").unwrap();
            }
            let sub = b.build().unwrap();
            let id = SubscriptionId::new(BrokerId((i % 4) as u16), LocalSubId(i), sub.attr_mask());
            subs.push((id, sub));
        }
        (schema, subs)
    }

    fn events(schema: &Schema) -> Vec<Event> {
        (0..12u32)
            .map(|k| {
                let symbol = [b'A' + ((k * 3) % 26) as u8];
                Event::builder(schema)
                    .num("price", 3.0 + k as f64 * 4.5)
                    .unwrap()
                    .num("volume", (k % 9) as f64 * 100.0)
                    .unwrap()
                    .str("symbol", String::from_utf8(symbol.to_vec()).unwrap())
                    .unwrap()
                    .str(
                        "exchange",
                        if k % 2 == 0 { "NYSE" } else { "LSE" }.to_string(),
                    )
                    .unwrap()
                    .build()
            })
            .collect()
    }

    #[test]
    fn partition_bounds_are_word_aligned_and_cover() {
        for (count, s) in [
            (0usize, 4usize),
            (1, 1),
            (63, 8),
            (64, 2),
            (1000, 3),
            (8000, 8),
        ] {
            let bounds = partition_bounds(count, s);
            assert!(bounds.len() >= 2);
            assert!(bounds.len() - 1 <= s.max(1));
            assert_eq!(bounds[0], 0);
            assert_eq!(*bounds.last().unwrap() as usize, count);
            for b in &bounds[1..bounds.len() - 1] {
                assert_eq!(b % 64, 0, "interior bound aligned ({count}, {s})");
            }
        }
    }

    #[test]
    fn sharded_matches_flat_exactly() {
        let (schema, subs) = population(300);
        let mut flat = BrokerSummary::new(schema.clone());
        for (id, sub) in &subs {
            flat.insert_with_id(*id, sub);
        }
        let mut flat_scratch = crate::MatchScratch::new();
        for shards in [1usize, 2, 3, 8] {
            let sharded = ShardedSummary::from_flat(flat.clone(), shards);
            sharded.validate();
            let mut scratch = ShardScratch::new();
            for event in events(&schema) {
                let expect = flat
                    .match_event_into(&event, &mut flat_scratch)
                    .matched
                    .clone();
                let got = sharded.match_event_into(&event, &mut scratch);
                assert_eq!(got.matched, expect, "shards={shards}");
            }
        }
    }

    #[test]
    fn mutation_republishes_and_digest_tracks_flat() {
        let (schema, subs) = population(100);
        let sharded = ShardedSummary::new(schema.clone(), 3);
        let mut flat = BrokerSummary::new(schema.clone());
        for (id, sub) in &subs {
            let before = sharded.current();
            sharded.insert_with_id(*id, sub);
            flat.insert_with_id(*id, sub);
            assert!(!Arc::ptr_eq(&sharded.current(), &before), "{id:?}");
        }
        assert_eq!(sharded.digest(), flat.digest());
        sharded.validate();
        // Remove half, still coherent and equal to the flat build.
        for (id, _) in subs.iter().step_by(2) {
            sharded.remove(*id);
            flat.remove(*id);
        }
        assert_eq!(sharded.digest(), flat.digest());
        sharded.validate();
        let mut scratch = ShardScratch::new();
        let mut flat_scratch = crate::MatchScratch::new();
        for event in events(&schema) {
            assert_eq!(
                sharded.match_event_into(&event, &mut scratch).matched,
                flat.match_event_into(&event, &mut flat_scratch).matched
            );
        }
    }

    #[test]
    fn noop_mutations_do_not_swap_the_partition() {
        let (schema, subs) = population(40);
        let sharded = ShardedSummary::new(schema.clone(), 3);
        for (id, sub) in &subs[..39] {
            sharded.insert_with_id(*id, sub);
        }
        // Holding `before` keeps its allocation alive, so a new partition
        // can never reuse its address.
        let before = sharded.current();
        let kept = || Arc::ptr_eq(&sharded.current(), &before);
        let (absent, absent_sub) = &subs[39];
        sharded.remove(*absent);
        assert!(kept(), "remove of an unknown id");
        let unsat = Subscription::builder(&schema)
            .num("price", NumOp::Lt, 1.0)
            .unwrap()
            .num("price", NumOp::Gt, 2.0)
            .unwrap()
            .build()
            .unwrap();
        sharded.insert(BrokerId(9), LocalSubId(9), &unsat);
        assert!(kept(), "insert of an unsatisfiable subscription");
        sharded.merge(&BrokerSummary::new(schema));
        assert!(kept(), "merge of an empty summary");
        sharded.validate();
        sharded.insert_with_id(*absent, absent_sub);
        let inserted = sharded.current();
        assert!(!Arc::ptr_eq(&inserted, &before), "real insert");
        sharded.remove(*absent);
        assert!(!Arc::ptr_eq(&sharded.current(), &inserted), "real remove");
        sharded.validate();
    }

    /// Two matchers, each with its own scratch, race a writer that
    /// inserts and then removes a population. Whatever partition a
    /// matcher cloned, its output is sorted and drawn from what was
    /// inserted; once the writer is done, every matcher sees the final
    /// state, which equals the flat build.
    #[test]
    fn matchers_race_a_writer() {
        let (schema, subs) = population(240);
        let events = events(&schema);
        let sharded = ShardedSummary::new(schema.clone(), 3);
        let done = &Mutex::new(false);
        // Both matchers are running before the writer's first swap.
        let start = &std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = ShardScratch::new();
                        start.wait();
                        loop {
                            for event in &events {
                                let out = sharded.match_event_into(event, &mut scratch);
                                assert!(out.matched.windows(2).all(|w| w[0] < w[1]));
                                for id in &out.matched {
                                    assert!(subs.iter().any(|(s, _)| s == id), "{id:?}");
                                }
                            }
                            if *lock(done) {
                                return scratch;
                            }
                        }
                    })
                })
                .collect();
            start.wait();
            for (id, sub) in &subs {
                sharded.insert_with_id(*id, sub);
            }
            for (id, _) in subs.iter().step_by(3) {
                sharded.remove(*id);
            }
            *lock(done) = true;
            let mut flat = BrokerSummary::new(schema.clone());
            for (id, sub) in &subs {
                flat.insert_with_id(*id, sub);
            }
            for (id, _) in subs.iter().step_by(3) {
                flat.remove(*id);
            }
            let mut flat_scratch = crate::MatchScratch::new();
            for reader in readers {
                let mut scratch = reader.join().unwrap();
                for event in &events {
                    assert_eq!(
                        sharded.match_event_into(event, &mut scratch).matched,
                        flat.match_event_into(event, &mut flat_scratch).matched
                    );
                }
            }
        });
        sharded.validate();
    }

    #[test]
    fn merge_through_sharded_equals_flat_merge() {
        let (schema, subs) = population(120);
        let mut left = BrokerSummary::new(schema.clone());
        let mut right = BrokerSummary::new(schema.clone());
        for (i, (id, sub)) in subs.iter().enumerate() {
            if i % 2 == 0 {
                left.insert_with_id(*id, sub);
            } else {
                right.insert_with_id(*id, sub);
            }
        }
        let sharded = ShardedSummary::from_flat(left.clone(), 3);
        sharded.merge(&right);
        left.merge(&right);
        assert_eq!(sharded.digest(), left.digest());
        sharded.validate();
        let mut scratch = ShardScratch::new();
        let mut flat_scratch = crate::MatchScratch::new();
        for event in events(&schema) {
            assert_eq!(
                sharded.match_event_into(&event, &mut scratch).matched,
                left.match_event_into(&event, &mut flat_scratch).matched
            );
        }
    }

    #[test]
    fn scratch_retargets_across_summaries() {
        let (schema, subs) = population(80);
        let a = ShardedSummary::new(schema.clone(), 2);
        let b = ShardedSummary::new(schema.clone(), 5);
        for (id, sub) in &subs {
            a.insert_with_id(*id, sub);
            b.insert_with_id(*id, sub);
        }
        let mut scratch = ShardScratch::new();
        for event in events(&schema) {
            let got_a = a.match_event_into(&event, &mut scratch).matched.clone();
            let got_b = b.match_event_into(&event, &mut scratch).matched.clone();
            assert_eq!(got_a, got_b);
        }
    }

    #[test]
    fn empty_summary_matches_nothing() {
        let schema = stock_schema();
        let sharded = ShardedSummary::new(schema.clone(), 4);
        let mut scratch = ShardScratch::new();
        for event in events(&schema) {
            assert!(sharded
                .match_event_into(&event, &mut scratch)
                .matched
                .is_empty());
        }
        sharded.validate();
    }

    // ---- negative corruption tests: validate_set must catch every
    // ---- class of shard-coherence violation.

    fn corrupt_panics(corrupt: impl Fn(&mut ShardSet) + std::panic::UnwindSafe) -> bool {
        let (_, subs) = population(200);
        let mut flat = BrokerSummary::new(stock_schema());
        for (id, sub) in &subs {
            flat.insert_with_id(*id, sub);
        }
        let mut set = ShardSet::derive(&flat, 3);
        corrupt(&mut set);
        std::panic::catch_unwind(move || validate_set(&flat, &set)).is_err()
    }

    #[test]
    fn validate_accepts_derived_set() {
        assert!(!corrupt_panics(|_| ()));
    }

    #[test]
    fn validate_rejects_misaligned_bound() {
        assert!(corrupt_panics(|set| {
            // Move an interior bound off word alignment.
            let mid = set.bounds.len() / 2;
            set.bounds[mid] += 1;
        }));
    }

    #[test]
    fn validate_rejects_dropped_posting() {
        assert!(corrupt_panics(|set| {
            for shard in &mut set.shards {
                if shard.plan.runs.arena.pop().is_some() {
                    return;
                }
            }
        }));
    }

    #[test]
    fn validate_rejects_relabelled_run() {
        assert!(corrupt_panics(|set| {
            for shard in &mut set.shards {
                if let Some(m) = shard.plan.runs.masks.first_mut() {
                    *m ^= 1;
                    return;
                }
            }
        }));
    }

    #[test]
    fn validate_rejects_wrong_required_threshold() {
        assert!(corrupt_panics(|set| {
            if let Some(shard) = set.shards.first_mut() {
                if let Some(r) = shard.required.first_mut() {
                    *r += 1;
                }
            }
        }));
    }

    #[test]
    fn validate_rejects_out_of_range_posting() {
        assert!(corrupt_panics(|set| {
            for shard in &mut set.shards {
                if let Some(p) = shard.plan.runs.arena.first_mut() {
                    *p = u32::MAX;
                    return;
                }
            }
        }));
    }

    #[test]
    fn validate_rejects_reordered_keys() {
        assert!(corrupt_panics(|set| {
            for shard in &mut set.shards {
                for bank in shard.plan.arith.iter_mut().flatten() {
                    if bank.lo_keys.len() >= 2 {
                        bank.lo_keys.swap(0, 1);
                        return;
                    }
                }
            }
        }));
    }

    #[test]
    fn validate_rejects_tampered_id_table() {
        assert!(corrupt_panics(|set| {
            if set.ids.len() >= 2 {
                set.ids.swap(0, 1);
            }
        }));
    }
}
