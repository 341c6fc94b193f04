//! Per-broker subscription summaries and the Algorithm 1 matcher.
//!
//! The paradigm of the paper (§2.3) is *subscription-summary-centric*:
//! each incoming subscription is dissolved into its attribute–value
//! constraints, which merge into the per-attribute summary structures
//! ([`RangeSummary`] for arithmetic attributes, [`PatternSummary`] for
//! strings). There are no subscription entities inside a summary — only
//! rows with subscription-id lists.
//!
//! Matching an event (Algorithm 1, §3.3) scans the summary structure of
//! each event attribute, collects the satisfied id lists, counts per-id
//! how many *attributes* were satisfied, and reports the ids whose counter
//! equals the number of attributes recorded in their `c3` mask.

use subsum_telemetry::{Count, Stage};
use subsum_types::{Event, NormalizedAttr, Schema, Subscription, SubscriptionId};

use crate::aacs::RangeSummary;
use crate::idlist::{DenseId, IdList, SubIdList};
use crate::plan::{MatchPlan, PlanCell, ProbeState};
use crate::sacs::PatternSummary;

/// Telemetry stages of the summary hot paths (recorded only while the
/// global recorder is enabled; see `subsum-telemetry`).
static STAGE_INSERT: Stage = Stage::new(subsum_telemetry::names::CORE_SUMMARY_INSERT);
static STAGE_MERGE: Stage = Stage::new(subsum_telemetry::names::CORE_SUMMARY_MERGE);
static STAGE_MATCH: Stage = Stage::new(subsum_telemetry::names::CORE_SUMMARY_MATCH);
/// Matches served by a warm (previously used) [`MatchScratch`] — i.e.
/// matches that performed no steady-state heap allocation.
static CNT_SCRATCH_REUSE: Count = Count::new(subsum_telemetry::names::MATCH_SCRATCH_REUSE);
/// Wholesale intern-table rebuilds (wire decode and summary merge).
static CNT_INTERN_REBUILDS: Count = Count::new(subsum_telemetry::names::MATCH_INTERN_REBUILDS);
/// Posting renumberings caused by an interactive insert landing in the
/// middle of the dense order (out-of-order subscription ids).
static CNT_INTERN_RENUMBERS: Count = Count::new(subsum_telemetry::names::MATCH_INTERN_RENUMBERS);
/// Match-scratch growth events (probe state resized to a larger
/// population); zero at steady state.
static CNT_SCRATCH_GROWS: Count = Count::new(subsum_telemetry::names::MATCH_SCRATCH_GROWS);

/// The per-summary intern table: dense id `d` stands for `ids[d]`.
///
/// Invariant: `ids` is sorted and deduplicated, so **dense order equals
/// `SubscriptionId` order** at all times. Sorted dense posting lists
/// therefore resolve to sorted subscription-id lists with no per-event
/// sorting. `required[d]` caches `ids[d].mask.count()` — the number of
/// satisfied attributes the counter kernel must see before reporting
/// dense id `d`; it is derived from the masks and is rebuilt by
/// [`InternTable::from_ids`], never put on the wire.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct InternTable {
    ids: SubIdList,
    required: Vec<u32>, // lint: derived
}

impl InternTable {
    /// Builds a table over a sorted, deduplicated id list.
    fn from_ids(ids: SubIdList) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "intern ids sorted");
        let required = ids.iter().map(|id| id.mask.count()).collect();
        InternTable { ids, required }
    }

    /// Number of interned ids (== the dense id space size).
    fn len(&self) -> usize {
        self.ids.len()
    }

    /// The dense id of `id`, or the rank where it would be interned.
    fn position(&self, id: &subsum_types::SubscriptionId) -> Result<usize, usize> {
        self.ids.binary_search(id)
    }

    /// The full id behind dense id `d`.
    pub(crate) fn resolve(&self, d: DenseId) -> subsum_types::SubscriptionId {
        self.ids[d as usize]
    }

    /// Interns `id` at rank `pos` (caller renumbers postings first).
    fn insert_at(&mut self, pos: usize, id: subsum_types::SubscriptionId) {
        self.ids.insert(pos, id);
        self.required.insert(pos, id.mask.count());
    }

    /// Drops the slot at rank `pos` (caller renumbers postings).
    fn remove_at(&mut self, pos: usize) {
        self.ids.remove(pos);
        self.required.remove(pos);
    }

    /// The sorted interned id list (dense id `d` ↦ `ids[d]`).
    pub(crate) fn ids_slice(&self) -> &SubIdList {
        &self.ids
    }

    /// The per-dense-id satisfied-attribute thresholds.
    pub(crate) fn required_slice(&self) -> &[u32] {
        &self.required
    }

    /// Unions two tables into a fresh one, returning monotone translation
    /// arrays from each side's dense space into the union's. Linear in
    /// the total id count, so summary merging stays linear overall.
    fn union_translate(&self, other: &InternTable) -> (InternTable, Vec<DenseId>, Vec<DenseId>) {
        let mut ids = SubIdList::with_capacity(self.ids.len() + other.ids.len());
        let mut trans_self = Vec::with_capacity(self.ids.len());
        let mut trans_other = Vec::with_capacity(other.ids.len());
        let (mut i, mut j) = (0, 0);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => {
                    trans_self.push(ids.len() as DenseId);
                    ids.push(self.ids[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    trans_other.push(ids.len() as DenseId);
                    ids.push(other.ids[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    trans_self.push(ids.len() as DenseId);
                    trans_other.push(ids.len() as DenseId);
                    ids.push(self.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        while i < self.ids.len() {
            trans_self.push(ids.len() as DenseId);
            ids.push(self.ids[i]);
            i += 1;
        }
        while j < other.ids.len() {
            trans_other.push(ids.len() as DenseId);
            ids.push(other.ids[j]);
            j += 1;
        }
        (InternTable::from_ids(ids), trans_self, trans_other)
    }
}

/// A complete subscription summary for one (or, after merging, several)
/// broker(s): one AACS per arithmetic attribute and one SACS per string
/// attribute of the schema.
///
/// # Guarantees
///
/// * **No false negatives.** If a subscription inserted into the summary
///   matches an event exactly, [`BrokerSummary::match_event`] reports its
///   id.
/// * **False positives possible.** SACS generalization (`m*t` standing in
///   for `microsoft`) and per-attribute union semantics for multi-pattern
///   conjunctions can report non-matching ids; the owning broker
///   re-verifies against its exact subscription store before notifying
///   consumers.
///
/// # Example
///
/// ```
/// use subsum_core::BrokerSummary;
/// use subsum_types::{stock_schema, Subscription, Event, NumOp, StrOp,
///                    SubscriptionId, BrokerId, LocalSubId};
/// # fn main() -> Result<(), subsum_types::TypeError> {
/// let schema = stock_schema();
/// let sub = Subscription::builder(&schema)
///     .str_op("symbol", StrOp::Eq, "OTE")?
///     .num("price", NumOp::Lt, 8.70)?
///     .num("price", NumOp::Gt, 8.30)?
///     .build()?;
/// let mut summary = BrokerSummary::new(schema.clone());
/// let id = summary.insert(BrokerId(0), LocalSubId(1), &sub);
///
/// let event = Event::builder(&schema)
///     .str("symbol", "OTE")?
///     .num("price", 8.40)?
///     .build();
/// assert_eq!(summary.match_event(&event), vec![id]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BrokerSummary {
    schema: Schema,
    /// Indexed by attribute id; `None` for string attributes.
    arith: Vec<Option<RangeSummary>>,
    /// Indexed by attribute id; `None` for arithmetic attributes.
    strings: Vec<Option<PatternSummary>>,
    /// The intern table behind every row's dense posting list. Its id
    /// list equals [`BrokerSummary::subscription_ids`], so it doubles as
    /// the known-id counter cache. Relative to the byte wire this is
    /// derived state: `SummaryCodec` ships plain `SubscriptionId` lists
    /// and the decoder rebuilds the table (the `lint: derived` tag makes
    /// `cargo xtask check` reject any reference from the wire codec).
    intern: InternTable, // lint: derived
    /// Lazily compiled columnar probe plan over the rows above. Pure
    /// derived state: skipped on the wire, invisible to `PartialEq` and
    /// digests, dropped on every mutation and rebuilt on the next match.
    plan: PlanCell, // lint: derived
}

impl BrokerSummary {
    /// Creates an empty summary over `schema`.
    pub fn new(schema: Schema) -> Self {
        let n = schema.len();
        BrokerSummary {
            schema,
            arith: vec![None; n],
            strings: vec![None; n],
            intern: InternTable::default(),
            plan: PlanCell::default(),
        }
    }

    /// The schema this summary is defined over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Returns `true` if no subscription has been summarized.
    pub fn is_empty(&self) -> bool {
        self.arith.iter().flatten().all(RangeSummary::is_empty)
            && self.strings.iter().flatten().all(PatternSummary::is_empty)
    }

    /// Dissolves `sub` into the summary under the id
    /// `(broker, local, attr_mask(sub))` and returns that id.
    ///
    /// Arithmetic conjunctions are intersected into interval sets before
    /// insertion (Fig. 4 merges `price < 8.70 ∧ price > 8.30` into one
    /// sub-range); each string constraint inserts its over-approximating
    /// pattern.
    pub fn insert(
        &mut self,
        broker: subsum_types::BrokerId,
        local: subsum_types::LocalSubId,
        sub: &Subscription,
    ) -> SubscriptionId {
        let id = SubscriptionId::new(broker, local, sub.attr_mask());
        self.insert_with_id(id, sub);
        id
    }

    /// Dissolves `sub` under a pre-assigned id. The id's `c3` mask must
    /// equal `sub.attr_mask()` for the match counters to be meaningful.
    pub fn insert_with_id(&mut self, id: SubscriptionId, sub: &Subscription) {
        let _span = STAGE_INSERT.start();
        debug_assert_eq!(id.mask, sub.attr_mask(), "id mask must match constraints");
        let normalized = sub.normalize();
        // Only ids that will leave a trace in some row are interned: an
        // everywhere-unsatisfiable subscription (empty interval set)
        // leaves no trace, its counter can never reach its mask count,
        // and it must not occupy an intern slot either.
        let touches = normalized.iter().any(|(_, na)| match na {
            NormalizedAttr::Arithmetic(set) => !set.is_empty(),
            NormalizedAttr::String(constraints) => !constraints.is_empty(),
        });
        if !touches {
            return;
        }
        self.plan.invalidate();
        let dense = self.intern_id(id);
        for (attr, na) in normalized.iter() {
            match na {
                NormalizedAttr::Arithmetic(set) => {
                    // An unsatisfiable conjunction (empty set) leaves no
                    // trace: the id's counter can then never reach its
                    // mask count, so the subscription never matches —
                    // exactly the semantics of an unsatisfiable filter.
                    if set.is_empty() {
                        continue;
                    }
                    let slot = self.arith[attr.index()].get_or_insert_with(RangeSummary::new);
                    slot.insert_set(set, dense);
                }
                NormalizedAttr::String(constraints) => {
                    let slot = self.strings[attr.index()].get_or_insert_with(PatternSummary::new);
                    for c in constraints {
                        // `≠` widens to the universal pattern: sound
                        // over-approximation, re-verified at the home
                        // broker.
                        slot.insert(c.over_approximation(), dense);
                    }
                }
            }
        }
    }

    /// Interns `id`, returning its dense id. When a new id lands in the
    /// middle of the dense order (ids usually arrive ascending), every
    /// posting at or above the insertion rank is renumbered up by one —
    /// a monotone shift, so all posting lists stay sorted.
    fn intern_id(&mut self, id: SubscriptionId) -> DenseId {
        match self.intern.position(&id) {
            Ok(pos) => pos as DenseId,
            Err(pos) => {
                if pos < self.intern.len() {
                    CNT_INTERN_RENUMBERS.inc();
                    let rank = pos as DenseId;
                    self.remap_all(move |d| if d >= rank { d + 1 } else { d });
                }
                self.intern.insert_at(pos, id);
                pos as DenseId
            }
        }
    }

    /// Applies a strictly monotone dense-id renumbering to every posting
    /// list in every attribute structure.
    fn remap_all(&mut self, map: impl Fn(DenseId) -> DenseId + Copy) {
        for s in self.arith.iter_mut().flatten() {
            s.remap_ids(map);
        }
        for s in self.strings.iter_mut().flatten() {
            s.remap_ids(map);
        }
    }

    /// Removes a subscription's traces from every attribute structure
    /// and vacates its intern slot (every surviving posting above the
    /// slot shifts down by one — a single linear pass; removal is a
    /// maintenance path, not the hot path).
    ///
    /// SACS rows keep their (possibly generalized) patterns; summaries
    /// only ever become *more* precise again through
    /// [`BrokerSummary::rebuild`].
    pub fn remove(&mut self, id: SubscriptionId) {
        let Ok(pos) = self.intern.position(&id) else {
            return;
        };
        self.plan.invalidate();
        let gone = pos as DenseId;
        for s in self.arith.iter_mut().flatten() {
            s.remove_remap(gone);
        }
        for s in self.strings.iter_mut().flatten() {
            s.remove_remap(gone);
        }
        self.intern.remove_at(pos);
    }

    /// Reconstructs a summary from an exact subscription store, shedding
    /// generalizations left behind by removals (maintenance, §3).
    pub fn rebuild<'a>(
        schema: Schema,
        subs: impl IntoIterator<Item = (SubscriptionId, &'a Subscription)>,
    ) -> Self {
        let mut summary = BrokerSummary::new(schema);
        for (id, sub) in subs {
            summary.insert_with_id(id, sub);
        }
        summary
    }

    /// Merges another broker's summary into this one (multi-broker
    /// summaries, §4.1): per-attribute structures merge by union.
    ///
    /// # Panics
    ///
    /// Panics if the schemata differ; brokers of one system share the
    /// schema by assumption (§3).
    pub fn merge(&mut self, other: &BrokerSummary) {
        let _span = STAGE_MERGE.start();
        assert!(
            self.schema.is_compatible(&other.schema),
            "cannot merge summaries over different schemata"
        );
        self.plan.invalidate();
        // Union the two dense id spaces once, up front, producing
        // monotone translation arrays — both sides' postings then remap
        // in linear passes instead of re-interning id by id.
        CNT_INTERN_REBUILDS.inc();
        let (union, trans_self, trans_other) = self.intern.union_translate(&other.intern);
        let identity = trans_self
            .last()
            .map_or(true, |&d| d as usize == trans_self.len() - 1);
        if !identity {
            self.remap_all(|d| trans_self[d as usize]);
        }
        self.intern = union;
        let mut buf = IdList::new();
        for (idx, slot) in other.arith.iter().enumerate() {
            if let Some(theirs) = slot {
                let mine = self.arith[idx].get_or_insert_with(RangeSummary::new);
                for row in theirs.ranges() {
                    translate_into(&trans_other, &row.ids, &mut buf);
                    mine.insert_interval_ids(row.interval, &buf);
                }
                for (v, ids) in theirs.points() {
                    translate_into(&trans_other, ids, &mut buf);
                    mine.insert_point_ids(v, &buf);
                }
            }
        }
        for (idx, slot) in other.strings.iter().enumerate() {
            if let Some(theirs) = slot {
                let mine = self.strings[idx].get_or_insert_with(PatternSummary::new);
                for (pattern, ids) in theirs.rows() {
                    translate_into(&trans_other, ids, &mut buf);
                    mine.insert_ids(pattern, &buf);
                }
            }
        }
    }

    /// Installs the rows of a decoded summary in one pass (decoder
    /// internals). The wire carries plain `SubscriptionId` lists — the
    /// dense representation never travels — so the intern table is
    /// rebuilt wholesale here: union all row ids, then translate each
    /// row's sorted id list to dense postings. Rebuilding in two passes
    /// keeps decode linear; interning row by row would renumber postings
    /// quadratically on adversarial id orders. The decoder has already
    /// refused any id posted under an attribute its `c3` mask lacks, so
    /// the plan's mask filter holds for decoded summaries too.
    pub(crate) fn install_decoded_rows(
        &mut self,
        arith_rows: &[(subsum_types::AttrId, subsum_types::Interval, SubIdList)],
        point_rows: &[(subsum_types::AttrId, subsum_types::Num, SubIdList)],
        string_rows: &[(subsum_types::AttrId, subsum_types::Pattern, SubIdList)],
    ) {
        self.plan.invalidate();
        CNT_INTERN_REBUILDS.inc();
        // Pass 1: the union of the ids of every row that will actually
        // install (skipping the rows the old per-row inserters skipped,
        // so no table slot ends up without a posting).
        let mut all = SubIdList::new();
        for (_, iv, ids) in arith_rows {
            if !iv.is_empty() && !ids.is_empty() {
                all.extend_from_slice(ids);
            }
        }
        for (_, _, ids) in point_rows {
            all.extend_from_slice(ids);
        }
        for (_, _, ids) in string_rows {
            all.extend_from_slice(ids);
        }
        all.sort_unstable();
        all.dedup();
        self.intern = InternTable::from_ids(all);
        // Pass 2: install each row with its ids translated to dense
        // postings (a sorted id list maps to a sorted dense list).
        let mut buf = IdList::new();
        for (attr, iv, ids) in arith_rows {
            if iv.is_empty() || ids.is_empty() {
                continue;
            }
            buf.clear();
            for id in ids {
                if let Ok(pos) = self.intern.position(id) {
                    buf.push(pos as DenseId);
                }
            }
            self.arith[attr.index()]
                .get_or_insert_with(RangeSummary::new)
                .insert_interval_ids(*iv, &buf);
        }
        for (attr, v, ids) in point_rows {
            if ids.is_empty() {
                continue;
            }
            buf.clear();
            for id in ids {
                if let Ok(pos) = self.intern.position(id) {
                    buf.push(pos as DenseId);
                }
            }
            self.arith[attr.index()]
                .get_or_insert_with(RangeSummary::new)
                .insert_point_ids(*v, &buf);
        }
        for (attr, pattern, ids) in string_rows {
            if ids.is_empty() {
                continue;
            }
            buf.clear();
            for id in ids {
                if let Ok(pos) = self.intern.position(id) {
                    buf.push(pos as DenseId);
                }
            }
            self.strings[attr.index()]
                .get_or_insert_with(PatternSummary::new)
                .insert_ids(pattern.clone(), &buf);
        }
    }

    /// Resolves a dense posting list to full subscription ids, replacing
    /// the contents of `out` (encoder support — the wire codec stays
    /// representation-free and never sees dense ids). Dense order equals
    /// id order, so the output is sorted.
    pub(crate) fn resolve_postings(&self, dense: &[DenseId], out: &mut SubIdList) {
        out.clear();
        for &d in dense {
            out.push(self.intern.resolve(d));
        }
    }

    /// The intern table (wire sizing resolves dense postings through it).
    pub(crate) fn intern_table(&self) -> &InternTable {
        &self.intern
    }

    /// The AACS for an attribute, if any constraint was recorded.
    pub fn arith_summary(&self, attr: subsum_types::AttrId) -> Option<&RangeSummary> {
        self.arith.get(attr.index())?.as_ref()
    }

    /// The SACS for an attribute, if any constraint was recorded.
    pub fn string_summary(&self, attr: subsum_types::AttrId) -> Option<&PatternSummary> {
        self.strings.get(attr.index())?.as_ref()
    }

    /// Matches an event against the summary — Algorithm 1 of §3.3.
    ///
    /// Returns the ids of all subscriptions whose every constrained
    /// attribute is present in the event and satisfied by the summary
    /// structures (a superset of the exact matches; no false negatives).
    ///
    /// Thin wrapper over [`BrokerSummary::match_event_into`] with a
    /// one-shot scratch; hot paths should hold a [`MatchScratch`] and
    /// call `match_event_into` directly, which also reports the work
    /// counters of the computational-cost experiments (§5.2.4).
    pub fn match_event(&self, event: &Event) -> Vec<SubscriptionId> {
        let mut scratch = MatchScratch::new();
        self.match_event_into(event, &mut scratch);
        scratch.outcome.matched
    }

    /// Matches an event against the summary using caller-owned scratch
    /// buffers — the allocation-free hot path of Algorithm 1, served by
    /// the compiled columnar match plan.
    ///
    /// The summary's rows are compiled (lazily, cached until the next
    /// mutation) into per-attribute structure-of-arrays banks over one
    /// flat dense-id postings arena, each row grouped into runs of one
    /// `c3` mask. A probe walks sorted key arrays with a branchless
    /// lower-bound search and streams the runs whose mask fits inside
    /// the event's attributes (no other id can reach its count) through
    /// a packed epoch-counter kernel: one random
    /// access per posting loads `(epoch, count)` in a single word, and
    /// the match bit is set the moment a counter reaches the summary's
    /// precomputed `required` count (its `c3` mask popcount) — no
    /// candidate list, no second pass. Matched dense ids are extracted
    /// from the bitmap in ascending dense order — which *is* ascending
    /// `SubscriptionId` order, by the intern-table invariant — so the
    /// output is sorted without sorting. All working memory lives in
    /// `scratch`, pre-sized to the summary population on first use;
    /// once the plan is compiled the matcher performs **zero heap
    /// allocations**.
    ///
    /// The returned reference borrows `scratch`; the outcome stays
    /// readable until the next `match_event_into` call with the same
    /// scratch.
    pub fn match_event_into<'s>(
        &self,
        event: &Event,
        scratch: &'s mut MatchScratch,
    ) -> &'s MatchOutcome {
        let _span = STAGE_MATCH.start();
        let plan = self.plan.get_or_compile(|| self.compile_plan());
        if scratch.used {
            CNT_SCRATCH_REUSE.inc();
        }
        scratch.used = true;
        let MatchScratch { probe, outcome, .. } = scratch;
        if probe.prepare(self.intern.len()) {
            CNT_SCRATCH_GROWS.inc();
        }
        outcome.matched.clear();
        outcome.stats = MatchStats::default();
        plan.probe_into(
            event,
            &self.strings,
            self.intern.ids_slice(),
            self.intern.required_slice(),
            probe,
            &mut outcome.stats,
        );
        probe.drain_matched(|d| outcome.matched.push(self.intern.resolve(d as DenseId)));
        outcome
    }

    /// A fresh compile of the plan over every row.
    pub(crate) fn compile_plan(&self) -> MatchPlan {
        MatchPlan::compile(&self.arith, &self.strings, self.intern.ids_slice())
    }

    /// Compiles and caches the plan unless one is cached; returns
    /// whether it compiled, i.e. whether the rows changed since the last
    /// compile. Clones share the cached plan.
    pub(crate) fn compile_if_stale(&self) -> bool {
        self.plan.compile_if_stale(|| self.compile_plan())
    }

    /// Reference implementation of Algorithm 1 as flat scans over every
    /// summary row, bypassing the compiled plan and its mask filter.
    /// Retained for differential testing and for `repro compute`'s
    /// `scan_popular_us` column (the plan against the oracle as `N`
    /// grows); `matched` equals
    /// [`BrokerSummary::match_event`] exactly (same sorted order).
    pub fn match_event_scan(&self, event: &Event) -> MatchOutcome {
        let mut collected = SubIdList::new();
        let mut per_attr = SubIdList::new();
        let mut dense = IdList::new();
        let mut stats = MatchStats::default();
        for (attr, value) in event.iter() {
            per_attr.clear();
            dense.clear();
            if self.schema.kind(attr).is_arithmetic() {
                if let Some(s) = self.arith_summary(attr) {
                    if let Some(v) = value.as_num() {
                        let cost = s.query_into(v, &mut dense);
                        stats.rows_scanned += cost.rows_touched;
                        stats.rows_pruned += cost.rows_pruned;
                    }
                }
            } else if let Some(s) = self.string_summary(attr) {
                if let Some(v) = value.as_str() {
                    s.query_scan_into(v, &mut dense);
                    stats.rows_scanned += s.row_count();
                }
            }
            // The reference path works on plain subscription ids: resolve
            // each dense posting immediately and keep the original
            // sort-and-count-runs realization of Algorithm 1.
            for &d in &dense {
                per_attr.push(self.intern.resolve(d));
            }
            per_attr.sort_unstable();
            per_attr.dedup();
            stats.ids_collected += per_attr.len();
            collected.extend_from_slice(&per_attr);
        }
        collected.sort_unstable();
        let mut matched: Vec<SubscriptionId> = Vec::new();
        let mut i = 0;
        while i < collected.len() {
            let id = collected[i];
            let mut j = i + 1;
            while j < collected.len() && collected[j] == id {
                j += 1;
            }
            stats.candidates += 1;
            if (j - i) as u32 == id.mask.count() {
                matched.push(id);
            }
            i = j;
        }
        MatchOutcome { matched, stats }
    }

    /// The distinct subscription ids present anywhere in the summary,
    /// sorted — computed from the rows (one flat pass over the dense
    /// posting lists), independently of the intern table, so `validate`
    /// can cross-check the two.
    pub fn subscription_ids(&self) -> Vec<SubscriptionId> {
        let mut dense: Vec<DenseId> = self
            .arith
            .iter()
            .flatten()
            .flat_map(|s| s.all_ids())
            .chain(self.strings.iter().flatten().flat_map(|s| s.all_ids()))
            .collect();
        dense.sort_unstable();
        dense.dedup();
        dense.into_iter().map(|d| self.intern.resolve(d)).collect()
    }

    /// The number of distinct subscriptions summarized — `O(1)`, served
    /// from the intern table.
    pub fn subscription_count(&self) -> usize {
        self.intern.len()
    }

    /// Checks the deep structural invariants of the whole summary.
    /// Compiled only for tests and debug builds; the property tests call
    /// it after every insertion, merge, removal and wire round-trip.
    ///
    /// Invariants:
    ///
    /// * the per-attribute slot vectors span the schema, and a populated
    ///   slot sits on an attribute of the matching kind;
    /// * every per-attribute structure passes its own
    ///   [`RangeSummary::validate`] / [`PatternSummary::validate`];
    /// * intern-table coherence: the interned ids are strictly sorted,
    ///   `required[d]` equals each id's mask popcount, every dense
    ///   posting is in table range, and the referenced dense ids are
    ///   exactly `0..len` (contiguous — no zombie slots, no danglers);
    /// * every posting of dense id `d` sits on an attribute in
    ///   `ids[d].mask` — the precondition of the plan's mask filter;
    /// * a cached plan equals a fresh compile, whose runs each hold the
    ///   postings of one mask.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    #[cfg(any(test, debug_assertions))]
    pub fn validate(&self) {
        assert_eq!(
            self.arith.len(),
            self.schema.len(),
            "AACS slots span the schema"
        );
        assert_eq!(
            self.strings.len(),
            self.schema.len(),
            "SACS slots span the schema"
        );
        for (idx, slot) in self.arith.iter().enumerate() {
            if let Some(s) = slot {
                assert!(
                    self.schema
                        .kind(subsum_types::AttrId(idx as u16))
                        .is_arithmetic(),
                    "AACS slot on non-arithmetic attribute {idx}"
                );
                s.validate();
            }
        }
        for (idx, slot) in self.strings.iter().enumerate() {
            if let Some(s) = slot {
                assert!(
                    !self
                        .schema
                        .kind(subsum_types::AttrId(idx as u16))
                        .is_arithmetic(),
                    "SACS slot on arithmetic attribute {idx}"
                );
                s.validate();
            }
        }
        crate::idlist::validate_idlist(&self.intern.ids);
        assert_eq!(
            self.intern.ids.len(),
            self.intern.required.len(),
            "required[] length out of sync with the intern table"
        );
        for (d, id) in self.intern.ids.iter().enumerate() {
            assert!(
                self.intern.required[d] == id.mask.count(),
                "required[] inconsistent with the id mask at dense id {d}"
            );
        }
        let mut dense: Vec<DenseId> = self
            .arith
            .iter()
            .flatten()
            .flat_map(|s| s.all_ids())
            .chain(self.strings.iter().flatten().flat_map(|s| s.all_ids()))
            .collect();
        dense.sort_unstable();
        dense.dedup();
        for &d in &dense {
            assert!(
                (d as usize) < self.intern.ids.len(),
                "dense id {d} out of intern-table range"
            );
        }
        assert!(
            dense.len() == self.intern.ids.len()
                && dense.iter().enumerate().all(|(i, &d)| i == d as usize),
            "intern table out of sync with the summary rows"
        );
        // Plan/summary coherence: a cached compiled plan must equal a
        // fresh compile of the current rows (compiles are deterministic:
        // mask groups are numbered in dense order).
        let fresh = self.compile_plan();
        fresh.assert_layout(&self.intern.ids);
        if let Some(cached) = self.plan.cached() {
            assert!(
                *cached == fresh,
                "cached match plan out of sync with the summary rows"
            );
        }
        for (idx, s) in self.arith.iter().enumerate() {
            if let Some(s) = s {
                self.assert_postings_in_mask(idx, s.all_ids());
            }
        }
        for (idx, s) in self.strings.iter().enumerate() {
            if let Some(s) = s {
                self.assert_postings_in_mask(idx, s.all_ids());
            }
        }
    }

    /// Asserts that every dense id in `postings`, found under attribute
    /// `idx`, names that attribute in its `c3` mask.
    #[cfg(any(test, debug_assertions))]
    fn assert_postings_in_mask(&self, idx: usize, postings: impl Iterator<Item = DenseId>) {
        let attr = subsum_types::AttrId(idx as u16);
        for d in postings {
            assert!(
                self.intern.ids[d as usize].mask.contains(attr),
                "dense id {d} posted under attribute {idx} outside its c3 mask"
            );
        }
    }
}

/// Translates a sorted dense posting list through a monotone translation
/// array into `buf` (summary merging). The result is sorted because the
/// translation is strictly increasing.
fn translate_into(trans: &[DenseId], ids: &[DenseId], buf: &mut IdList) {
    buf.clear();
    for &d in ids {
        buf.push(trans[d as usize]);
    }
}

/// Reusable working memory for [`BrokerSummary::match_event_into`]: the
/// compiled-plan kernel's probe state (per-dense-id packed counters,
/// dedup stamps and the matched-id bitmap, sized to the largest summary
/// population this scratch has served) plus the [`MatchOutcome`] it
/// fills. Epoch stamping makes stale entries self-invalidating, so
/// nothing is cleared between events and reusing one scratch across
/// events keeps the steady-state match loop free of heap allocations. A
/// scratch is tied to no particular summary and may be reused across
/// brokers; each growth of the probe state (first use, or a larger
/// summary) bumps `match.scratch_grows`, which steady-state workloads
/// must keep at zero.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    probe: ProbeState,
    /// The outcome of the most recent match.
    outcome: MatchOutcome,
    /// Whether this scratch has served a match before (drives the
    /// `match.scratch_reuse` telemetry counter).
    used: bool,
}

impl MatchScratch {
    /// Creates an empty scratch. Buffers grow on first use and are then
    /// retained.
    pub fn new() -> Self {
        MatchScratch::default()
    }

    /// The outcome of the most recent [`BrokerSummary::match_event_into`]
    /// served by this scratch.
    pub fn outcome(&self) -> &MatchOutcome {
        &self.outcome
    }
}

impl std::fmt::Display for BrokerSummary {
    /// Renders the summary in the tabular style of the paper's Figs. 4–5:
    /// one AACS block per arithmetic attribute (ranges, then equality
    /// values) and one SACS block per string attribute, each row with its
    /// subscription-id list.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut empty = true;
        for (attr, spec) in self.schema.iter() {
            if spec.kind.is_arithmetic() {
                if let Some(a) = self.arith_summary(attr) {
                    if a.is_empty() {
                        continue;
                    }
                    empty = false;
                    writeln!(f, "AACS for attribute {}", spec.name)?;
                    for row in a.ranges() {
                        write!(f, "  {} ->", row.interval)?;
                        for &d in &row.ids {
                            write!(f, " {}", self.intern.resolve(d))?;
                        }
                        writeln!(f)?;
                    }
                    for (v, ids) in a.points() {
                        write!(f, "  = {v} ->")?;
                        for &d in ids {
                            write!(f, " {}", self.intern.resolve(d))?;
                        }
                        writeln!(f)?;
                    }
                }
            } else if let Some(s) = self.string_summary(attr) {
                if s.is_empty() {
                    continue;
                }
                empty = false;
                writeln!(f, "SACS for attribute {}", spec.name)?;
                for (pattern, ids) in s.rows() {
                    write!(f, "  {pattern} ->")?;
                    for &d in ids {
                        write!(f, " {}", self.intern.resolve(d))?;
                    }
                    writeln!(f)?;
                }
            }
        }
        if empty {
            writeln!(f, "(empty summary)")?;
        }
        Ok(())
    }
}

/// The result of matching one event against a summary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatchOutcome {
    /// Matched subscription ids, sorted.
    pub matched: Vec<SubscriptionId>,
    /// Work counters for the §5.2.4 computational analysis.
    pub stats: MatchStats,
}

/// Work counters accumulated during one [`BrokerSummary::match_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatchStats {
    /// Summary rows actually probed across all event attributes (the T₁
    /// term): binary-search comparisons plus the equality probe for
    /// AACS, literal probe plus every wildcard row for SACS.
    pub rows_scanned: usize,
    /// AACS rows the binary searches skipped — the work a linear scan
    /// would have performed. SACS prunes nothing.
    pub rows_pruned: usize,
    /// Ids collected from satisfied rows (the P of the T₂ term). The
    /// compiled plan counts only admissible postings — those of ids whose
    /// `c3` mask fits inside the event's attributes, the only ids that
    /// can match; [`BrokerSummary::match_event_scan`] counts every id it
    /// collects.
    pub ids_collected: usize,
    /// Distinct candidate subscriptions whose counters were checked —
    /// for the compiled plan, admissible ids only (see `ids_collected`).
    pub candidates: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsum_types::{stock_schema, BrokerId, LocalSubId, NumOp, StrOp};

    fn schema() -> Schema {
        stock_schema()
    }

    fn sub1(schema: &Schema) -> Subscription {
        Subscription::builder(schema)
            .str_pattern("exchange", "N*SE")
            .unwrap()
            .str_op("symbol", StrOp::Eq, "OTE")
            .unwrap()
            .num("price", NumOp::Lt, 8.70)
            .unwrap()
            .num("price", NumOp::Gt, 8.30)
            .unwrap()
            .build()
            .unwrap()
    }

    fn sub2(schema: &Schema) -> Subscription {
        Subscription::builder(schema)
            .str_op("symbol", StrOp::Prefix, "OT")
            .unwrap()
            .num("price", NumOp::Eq, 8.20)
            .unwrap()
            .num("volume", NumOp::Gt, 130000.0)
            .unwrap()
            .num("low", NumOp::Lt, 8.05)
            .unwrap()
            .build()
            .unwrap()
    }

    fn fig2_event(schema: &Schema) -> Event {
        Event::builder(schema)
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
            .unwrap()
            .num("low", 8.22)
            .unwrap()
            .build()
    }

    #[test]
    fn paper_example1_matching() {
        // §3.3 Example 1: S1 matches the Fig. 2 event; S2's counter (2)
        // falls short of its four attributes.
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        let id1 = summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        let id2 = summary.insert(BrokerId(0), LocalSubId(2), &sub2(&schema));
        let mut scratch = MatchScratch::new();
        let outcome = summary.match_event_into(&fig2_event(&schema), &mut scratch);
        assert_eq!(outcome.matched, vec![id1]);
        assert!(!outcome.matched.contains(&id2));
        // S1 and S2 were both candidates (both satisfied some attribute).
        assert_eq!(outcome.stats.candidates, 2);
    }

    #[test]
    fn counter_semantics_match_paper() {
        // From the worked example: S1's counter reaches 3 (exchange,
        // symbol, price); S2's reaches 2 (symbol, volume).
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        summary.insert(BrokerId(0), LocalSubId(2), &sub2(&schema));
        let e = fig2_event(&schema);
        // Check indirectly through per-attribute queries.
        let symbol = schema.attr_id("symbol").unwrap();
        let ids = summary.string_summary(symbol).unwrap().query_scan("OTE");
        assert_eq!(ids.len(), 2);
        let price = schema.attr_id("price").unwrap();
        let ids = summary
            .arith_summary(price)
            .unwrap()
            .query(subsum_types::Num::new(8.40).unwrap());
        assert_eq!(ids.len(), 1);
        let volume = schema.attr_id("volume").unwrap();
        let ids = summary
            .arith_summary(volume)
            .unwrap()
            .query(subsum_types::Num::from(132700i64));
        assert_eq!(ids.len(), 1);
        // End-to-end result is just S1.
        assert_eq!(summary.match_event(&e).len(), 1);
    }

    #[test]
    fn no_match_when_attribute_missing_from_event() {
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        // Event without `exchange`: counter 2 < 3 attributes.
        let e = Event::builder(&schema)
            .str("symbol", "OTE")
            .unwrap()
            .num("price", 8.40)
            .unwrap()
            .build();
        assert!(summary.match_event(&e).is_empty());
    }

    #[test]
    fn multiple_constraints_same_attribute_count_once() {
        let schema = schema();
        let sub = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Prefix, "OT")
            .unwrap()
            .str_op("symbol", StrOp::Suffix, "E")
            .unwrap()
            .build()
            .unwrap();
        let mut summary = BrokerSummary::new(schema.clone());
        let id = summary.insert(BrokerId(0), LocalSubId(1), &sub);
        assert_eq!(id.mask.count(), 1);
        let e = Event::builder(&schema)
            .str("symbol", "OTE")
            .unwrap()
            .build();
        // Both constraints satisfied; the id must be reported exactly once.
        assert_eq!(summary.match_event(&e), vec![id]);
        // Union semantics (over-approximation): satisfying only one
        // pattern still reports the candidate...
        let e2 = Event::builder(&schema)
            .str("symbol", "OTX")
            .unwrap()
            .build();
        assert_eq!(summary.match_event(&e2), vec![id]);
        // ...and exact verification rejects it.
        assert!(!sub.matches(&e2));
    }

    #[test]
    fn remove_subscription() {
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        let id1 = summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        let id2 = summary.insert(BrokerId(0), LocalSubId(2), &sub2(&schema));
        assert_eq!(summary.subscription_count(), 2);
        summary.remove(id1);
        assert_eq!(summary.subscription_ids(), vec![id2]);
        let e = fig2_event(&schema);
        assert!(summary.match_event(&e).is_empty());
        summary.remove(id2);
        assert!(summary.is_empty());
    }

    #[test]
    fn rebuild_equals_fresh_insertions() {
        let schema = schema();
        let s1 = sub1(&schema);
        let s2 = sub2(&schema);
        let mut summary = BrokerSummary::new(schema.clone());
        let id1 = summary.insert(BrokerId(1), LocalSubId(1), &s1);
        let id2 = summary.insert(BrokerId(1), LocalSubId(2), &s2);
        let rebuilt = BrokerSummary::rebuild(schema.clone(), [(id1, &s1), (id2, &s2)]);
        assert_eq!(summary, rebuilt);
    }

    #[test]
    fn merge_multi_broker() {
        let schema = schema();
        let mut a = BrokerSummary::new(schema.clone());
        let id1 = a.insert(BrokerId(1), LocalSubId(1), &sub1(&schema));
        let mut b = BrokerSummary::new(schema.clone());
        let id2 = b.insert(BrokerId(2), LocalSubId(1), &sub2(&schema));
        a.merge(&b);
        assert_eq!(a.subscription_ids(), {
            let mut v = vec![id1, id2];
            v.sort();
            v
        });
        let e = fig2_event(&schema);
        assert_eq!(a.match_event(&e), vec![id1]);
    }

    #[test]
    #[should_panic(expected = "different schemata")]
    fn merge_incompatible_schema_panics() {
        let a = BrokerSummary::new(schema());
        let other_schema = Schema::builder()
            .attr("x", subsum_types::AttrKind::Float)
            .unwrap()
            .build();
        let mut b = BrokerSummary::new(other_schema);
        b.merge(&a);
    }

    #[test]
    fn ne_constraint_over_approximates() {
        let schema = schema();
        let sub = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Ne, "IBM")
            .unwrap()
            .build()
            .unwrap();
        let mut summary = BrokerSummary::new(schema.clone());
        let id = summary.insert(BrokerId(0), LocalSubId(1), &sub);
        let matching = Event::builder(&schema)
            .str("symbol", "OTE")
            .unwrap()
            .build();
        let excluded = Event::builder(&schema)
            .str("symbol", "IBM")
            .unwrap()
            .build();
        // Summary reports both (universal pattern)...
        assert_eq!(summary.match_event(&matching), vec![id]);
        assert_eq!(summary.match_event(&excluded), vec![id]);
        // ...exact matching separates them (tier-2 verification).
        assert!(sub.matches(&matching));
        assert!(!sub.matches(&excluded));
    }

    #[test]
    fn display_renders_paper_style_tables() {
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        summary.insert(BrokerId(0), LocalSubId(2), &sub2(&schema));
        let rendered = format!("{summary}");
        assert!(rendered.contains("AACS for attribute price"));
        assert!(rendered.contains("SACS for attribute symbol"));
        assert!(rendered.contains("(8.3, 8.7)"));
        assert!(rendered.contains("= 8.2"));
        assert!(rendered.contains("OT*"));
        assert!(rendered.contains("B0/s1"));
        let empty = BrokerSummary::new(schema);
        assert_eq!(format!("{empty}"), "(empty summary)\n");
    }

    #[test]
    fn match_is_superset_of_exact_never_misses() {
        let schema = schema();
        let subs = [sub1(&schema), sub2(&schema)];
        let mut summary = BrokerSummary::new(schema.clone());
        let ids: Vec<_> = subs
            .iter()
            .enumerate()
            .map(|(i, s)| summary.insert(BrokerId(0), LocalSubId(i as u32), s))
            .collect();
        let events = [
            fig2_event(&schema),
            Event::builder(&schema)
                .str("symbol", "OTE")
                .unwrap()
                .num("price", 8.20)
                .unwrap()
                .int("volume", 140000)
                .unwrap()
                .num("low", 8.00)
                .unwrap()
                .build(),
        ];
        for e in &events {
            let matched = summary.match_event(e);
            for (sub, id) in subs.iter().zip(&ids) {
                if sub.matches(e) {
                    assert!(matched.contains(id), "false negative for {id}");
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_reproduces_one_shot_outcome() {
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        summary.insert(BrokerId(0), LocalSubId(2), &sub2(&schema));
        let e = fig2_event(&schema);
        let one_shot = summary
            .match_event_into(&e, &mut MatchScratch::new())
            .clone();
        let mut scratch = MatchScratch::new();
        for _ in 0..3 {
            let got = summary.match_event_into(&e, &mut scratch);
            assert_eq!(got, &one_shot);
        }
        assert_eq!(scratch.outcome(), &one_shot);
    }

    #[test]
    fn scan_reference_agrees_with_indexed_matcher() {
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        summary.insert(BrokerId(0), LocalSubId(2), &sub2(&schema));
        for e in [
            fig2_event(&schema),
            Event::builder(&schema)
                .str("symbol", "OTX")
                .unwrap()
                .build(),
            Event::builder(&schema).build(),
        ] {
            assert_eq!(
                summary.match_event(&e),
                summary.match_event_scan(&e).matched
            );
        }
    }

    #[test]
    fn known_ids_track_subscription_ids() {
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        let id1 = summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        let id2 = summary.insert(BrokerId(0), LocalSubId(2), &sub2(&schema));
        assert_eq!(summary.subscription_count(), 2);
        assert_eq!(summary.subscription_ids(), summary.intern.ids);
        // Unsatisfiable arithmetic conjunctions leave no trace and are
        // not counted.
        let unsat = Subscription::builder(&schema)
            .num("price", NumOp::Lt, 1.0)
            .unwrap()
            .num("price", NumOp::Gt, 2.0)
            .unwrap()
            .build()
            .unwrap();
        summary.insert(BrokerId(0), LocalSubId(3), &unsat);
        assert_eq!(summary.subscription_count(), 2);
        assert_eq!(summary.subscription_ids(), summary.intern.ids);
        summary.remove(id1);
        assert_eq!(summary.subscription_count(), 1);
        assert_eq!(summary.subscription_ids(), vec![id2]);
        assert_eq!(summary.subscription_ids(), summary.intern.ids);
    }

    #[test]
    fn validate_accepts_every_mutation_path() {
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        summary.validate();
        let id1 = summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        summary.validate();
        let mut other = BrokerSummary::new(schema.clone());
        other.insert(BrokerId(1), LocalSubId(2), &sub2(&schema));
        summary.merge(&other);
        summary.validate();
        summary.remove(id1);
        summary.validate();
    }

    #[test]
    #[should_panic(expected = "intern table out of sync with the summary rows")]
    fn validate_rejects_stale_intern_table() {
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        // Corrupt the intern table behind the API's back: a slot no row
        // references breaks the contiguity invariant.
        let bogus =
            SubscriptionId::new(BrokerId(9), LocalSubId(9), subsum_types::AttrMask::empty());
        summary.intern.required.push(bogus.mask.count());
        summary.intern.ids.push(bogus);
        summary.validate();
    }

    #[test]
    #[should_panic(expected = "required[] length out of sync")]
    fn validate_rejects_required_length_mismatch() {
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        summary.intern.required.push(7);
        summary.validate();
    }

    #[test]
    #[should_panic(expected = "required[] inconsistent with the id mask")]
    fn validate_rejects_corrupt_required_counts() {
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        summary.intern.required[0] += 1;
        summary.validate();
    }

    #[test]
    #[should_panic(expected = "out of intern-table range")]
    fn validate_rejects_dangling_dense_postings() {
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        // Shrink the table out from under the rows.
        summary.intern.ids.pop();
        summary.intern.required.pop();
        summary.validate();
    }

    #[test]
    #[should_panic(expected = "outside its c3 mask")]
    fn validate_rejects_a_posting_outside_the_id_mask() {
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        // Drop `price` from the id's mask (and its threshold with it, so
        // only the new check can fire): its price row now holds an id
        // that does not name price.
        let price = schema.attr_id("price").unwrap();
        summary.intern.ids[0].mask.0 &= !(1 << price.index());
        summary.intern.required[0] -= 1;
        summary.validate();
    }

    #[test]
    #[should_panic(expected = "cached match plan out of sync")]
    fn validate_rejects_stale_cached_plan_arith() {
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        summary.insert(BrokerId(0), LocalSubId(2), &sub2(&schema));
        // Compile and cache the plan, then swap two populated AACS slots
        // behind the API's back: both attributes are arithmetic, so
        // every row-level validate check still passes — only the
        // plan-coherence cross-check can catch the stale cache.
        summary.match_event(&fig2_event(&schema));
        let price = schema.attr_id("price").unwrap().index();
        let volume = schema.attr_id("volume").unwrap().index();
        summary.arith.swap(price, volume);
        summary.validate();
    }

    #[test]
    #[should_panic(expected = "cached match plan out of sync")]
    fn validate_rejects_stale_cached_plan_strings() {
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        summary.insert(BrokerId(0), LocalSubId(2), &sub2(&schema));
        summary.match_event(&fig2_event(&schema));
        let exchange = schema.attr_id("exchange").unwrap().index();
        let symbol = schema.attr_id("symbol").unwrap().index();
        summary.strings.swap(exchange, symbol);
        summary.validate();
    }

    #[test]
    fn out_of_order_inserts_renumber_and_still_match() {
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        // Descending local ids force the renumber path in `intern_id`:
        // each insert lands at rank 0 and shifts the existing postings.
        for k in (1..=5u32).rev() {
            let sub = Subscription::builder(&schema)
                .str_op("symbol", StrOp::Eq, "OTX")
                .unwrap()
                .build()
                .unwrap();
            summary.insert(BrokerId(0), LocalSubId(k), &sub);
        }
        summary.validate();
        let e = Event::builder(&schema)
            .str("symbol", "OTX")
            .unwrap()
            .build();
        let matched = summary.match_event(&e);
        assert_eq!(matched.len(), 5);
        assert_eq!(matched, summary.match_event_scan(&e).matched);
        assert!(matched.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn honest_stats_report_probes_and_pruning() {
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        // Disjoint prefix rows: the probe tests every one of them.
        for (k, sym) in ["AA*", "BB*", "CC*", "DD*"].iter().enumerate() {
            let sub = Subscription::builder(&schema)
                .str_pattern("symbol", sym)
                .unwrap()
                .build()
                .unwrap();
            summary.insert(BrokerId(0), LocalSubId(k as u32), &sub);
        }
        let e = Event::builder(&schema)
            .str("symbol", "AAPL")
            .unwrap()
            .build();
        let mut scratch = MatchScratch::new();
        let outcome = summary.match_event_into(&e, &mut scratch);
        assert_eq!(outcome.matched.len(), 1);
        // All four wildcard rows are scanned (no literal rows, so no
        // literal probe), and none is pruned.
        assert_eq!(outcome.stats.rows_scanned, 4);
        assert_eq!(outcome.stats.rows_pruned, 0);
    }
}
