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
use crate::digest::DigestCell;
use crate::idlist::{DenseId, IdList, SubIdList};
use crate::plan::{Live, MatchPlan, PlanCell, ProbeState};
use crate::sacs::PatternSummary;

/// Telemetry stages of the summary hot paths (recorded only while the
/// global recorder is enabled; see `subsum-telemetry`).
static STAGE_INSERT: Stage = Stage::new(subsum_telemetry::names::CORE_SUMMARY_INSERT);
static STAGE_MERGE: Stage = Stage::new(subsum_telemetry::names::CORE_SUMMARY_MERGE);
static STAGE_MATCH: Stage = Stage::new(subsum_telemetry::names::CORE_SUMMARY_MATCH);
/// Matches served by a warm (previously used) [`MatchScratch`] — i.e.
/// matches that performed no steady-state heap allocation.
static CNT_SCRATCH_REUSE: Count = Count::new(subsum_telemetry::names::MATCH_SCRATCH_REUSE);
/// Respacing unions: a merge, or an out-of-order insert, with an id that
/// found no free slot beside its rank.
static CNT_INTERN_REBUILDS: Count = Count::new(subsum_telemetry::names::MATCH_INTERN_REBUILDS);
/// Compactions: free slots outnumbered the live ones after a removal.
static CNT_INTERN_RENUMBERS: Count = Count::new(subsum_telemetry::names::MATCH_INTERN_RENUMBERS);
/// Match-scratch growth events (probe state resized to a larger
/// population); zero at steady state.
static CNT_SCRATCH_GROWS: Count = Count::new(subsum_telemetry::names::MATCH_SCRATCH_GROWS);

/// Spare slots a respacing union lays at the end of each broker's block:
/// one per `SPARE_SHARE` live ids of the block, rounded up. A constant,
/// not a knob; it keeps free slots (spares plus dead ones) at most the
/// live count, the bound [`BrokerSummary::remove`] compacts at.
const SPARE_SHARE: usize = 8;

/// The per-summary intern table: dense id `d` stands for `ids[d]`.
///
/// Invariant: `ids` is sorted and deduplicated over every slot, live or
/// free, so **dense order equals `SubscriptionId` order** among the live
/// slots at all times. Sorted dense posting lists therefore resolve to
/// sorted subscription-id lists with no per-event sorting. `required[d]`
/// caches `ids[d].mask.count()` — the number of satisfied attributes the
/// counter kernel must see before reporting dense id `d`; it is derived
/// from the masks and is rebuilt by [`InternTable::from_ids`], never put
/// on the wire.
///
/// A slot with `required[d] = 0` is *free* (a live id has popcount ≥ 1:
/// only ids that touch a row are interned), and no posting names it.
/// Free slots come two ways. A removed id keeps its slot, *dead*, so no
/// other dense id moves. A respacing union ([`InternTable::respace`])
/// ends every broker's block with *spare* slots holding placeholder ids
/// that sort between the block's last id and the next block's first.
/// [`InternTable::place`] interns an id without moving any other slot:
/// in its own slot, revived if dead, or else in a free slot next to its
/// rank, which always keeps `ids` sorted. Brokers mint local ids in
/// ascending order, so a broker's new id ranks just after its block's
/// live ids and fills the block's first spare. `free` counts the free
/// slots; once they outnumber the live ones, [`BrokerSummary::compact`]
/// drops them all in one monotone renumbering.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct InternTable {
    ids: SubIdList,
    required: Vec<u32>,
    free: usize,
}

impl InternTable {
    /// Builds a table without free slots over a sorted, deduplicated id
    /// list.
    fn from_ids(ids: SubIdList) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "intern ids sorted");
        let required = ids.iter().map(|id| id.mask.count()).collect();
        InternTable {
            ids,
            required,
            free: 0,
        }
    }

    /// Number of slots, live and free (== the dense id space size).
    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Number of live slots.
    fn live(&self) -> usize {
        self.ids.len() - self.free
    }

    /// Whether slot `pos` holds a live id.
    fn is_live(&self, pos: usize) -> bool {
        self.required[pos] != 0
    }

    /// Every slot in dense order: its id if live, `None` if free.
    pub(crate) fn slots(&self) -> impl Iterator<Item = Option<SubscriptionId>> + '_ {
        self.ids
            .iter()
            .zip(&self.required)
            .map(|(&id, &r)| (r != 0).then_some(id))
    }

    /// The live slots and their ids, in dense order.
    fn live_slots(&self) -> impl Iterator<Item = (usize, SubscriptionId)> + '_ {
        self.slots()
            .enumerate()
            .filter_map(|(d, id)| Some((d, id?)))
    }

    /// The live ids, in dense order.
    pub(crate) fn live_ids(&self) -> impl Iterator<Item = SubscriptionId> + '_ {
        self.slots().flatten()
    }

    /// The dense id of `id`, or the rank where it would be interned.
    fn position(&self, id: &SubscriptionId) -> Result<usize, usize> {
        self.ids.binary_search(id)
    }

    /// The full id behind dense id `d`.
    pub(crate) fn resolve(&self, d: DenseId) -> SubscriptionId {
        self.ids[d as usize]
    }

    /// Interns `id` without moving any other slot: in its own slot,
    /// revived if dead, or else in a free slot adjacent to its rank (the
    /// one at the rank first). Either neighbour keeps `ids` sorted: the
    /// slot at the rank holds a larger id, the one before it a smaller.
    /// Returns the slot and whether `id` was live there already, or the
    /// rank if neither slot exists.
    fn place(&mut self, id: SubscriptionId) -> Result<(usize, bool), usize> {
        let pos = match self.position(&id) {
            Ok(pos) if self.is_live(pos) => return Ok((pos, true)),
            Ok(pos) => pos,
            Err(rank) => {
                let free = [rank, rank.wrapping_sub(1)]
                    .into_iter()
                    .find(|&p| p < self.len() && !self.is_live(p))
                    .ok_or(rank)?;
                self.ids[free] = id;
                free
            }
        };
        self.required[pos] = id.mask.count();
        self.free -= 1;
        Ok((pos, false))
    }

    /// Appends `id`, which sorts after every slot.
    fn push(&mut self, id: SubscriptionId) {
        debug_assert!(self.ids.last().map_or(true, |last| *last < id));
        self.ids.push(id);
        self.required.push(id.mask.count());
    }

    /// Marks the live slot `pos` dead (caller drops its postings).
    fn kill(&mut self, pos: usize) {
        self.required[pos] = 0;
        self.free += 1;
    }

    /// The sorted id list behind every slot, placeholders of spare slots
    /// included (dense id `d` ↦ `ids[d]`).
    pub(crate) fn ids_slice(&self) -> &SubIdList {
        &self.ids
    }

    /// The per-dense-id satisfied-attribute thresholds (0: a free slot).
    pub(crate) fn required_slice(&self) -> &[u32] {
        &self.required
    }

    /// Unions the live slots of two tables into a fresh one that ends
    /// each broker's block with its spares, returning monotone
    /// translation arrays from each side's dense space into the union's
    /// (a free slot's entry is unused). Linear in both tables' slots, so
    /// summary merging stays linear overall.
    fn respace(&self, other: &InternTable) -> (InternTable, Vec<DenseId>, Vec<DenseId>) {
        let live = self.live() + other.live();
        let slots = live + live.div_ceil(SPARE_SHARE);
        let mut table = InternTable {
            ids: SubIdList::with_capacity(slots),
            required: Vec::with_capacity(slots),
            free: 0,
        };
        let mut trans_self = vec![0; self.len()];
        let mut trans_other = vec![0; other.len()];
        let (mut i, mut j) = (0, 0);
        // One broker's block at a time: the live ids either side holds
        // of it, then its spares.
        while let Some(broker) = [self.ids.get(i), other.ids.get(j)]
            .into_iter()
            .flatten()
            .map(|id| id.broker)
            .min()
        {
            let block = |t: &InternTable, from: usize| {
                from..from + t.ids[from..].partition_point(|id| id.broker == broker)
            };
            let (a, b) = (block(self, i), block(other, j));
            (i, j) = (a.end, b.end);
            let start = table.ids.len();
            merge_live(
                (
                    &self.ids[a.clone()],
                    &self.required[a.clone()],
                    &mut trans_self[a],
                ),
                (
                    &other.ids[b.clone()],
                    &other.required[b.clone()],
                    &mut trans_other[b],
                ),
                &mut table.ids,
            );
            let merged = &table.ids[start..];
            table
                .required
                .extend(merged.iter().map(|id| id.mask.count()));
            table.lay_spares(merged.len());
        }
        (table, trans_self, trans_other)
    }

    /// Ends the block of the last id, which holds `live` ids, with its
    /// spares: placeholders `(broker, u32::MAX, k)`, which sort after
    /// every id the broker mints below `u32::MAX` and before the next
    /// broker's. A block whose last id already has that local gets none.
    fn lay_spares(&mut self, live: usize) {
        let Some(&last) = self.ids.last() else {
            return;
        };
        if last.local.0 == u32::MAX {
            return;
        }
        let spares = live.div_ceil(SPARE_SHARE);
        for k in 0..spares as u64 {
            self.ids.push(SubscriptionId::new(
                last.broker,
                subsum_types::LocalSubId(u32::MAX),
                subsum_types::AttrMask(k),
            ));
            self.required.push(0);
        }
        self.free += spares;
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
#[derive(Debug, Clone)]
pub struct BrokerSummary {
    schema: Schema,
    /// Indexed by attribute id; `None` for string attributes.
    arith: Vec<Option<RangeSummary>>,
    /// Indexed by attribute id; `None` for arithmetic attributes.
    strings: Vec<Option<PatternSummary>>,
    /// The intern table behind every row's dense posting list. Its live
    /// ids equal [`BrokerSummary::subscription_ids`], so it doubles as
    /// the known-id counter cache. Relative to the byte wire this is
    /// derived state: `SummaryCodec` ships plain `SubscriptionId` lists
    /// (read through `intern_table`), the field's privacy keeps the codec
    /// off the rest, and `decode` rebuilds the table
    /// (`install_decoded_rows`).
    intern: InternTable,
    /// Lazily compiled columnar probe plans over the rows above: a base
    /// plan, kept across σ-sized mutations, and a side plan of the ids
    /// placed since (see the `plan` module). Pure derived state:
    /// invisible to `PartialEq` and digests, shared by `Clone`. An
    /// insert or a merge records the postings of the ids it places, a
    /// removal forgets a side id's, and the next match compiles only
    /// those; a respace, a compaction, a substitution or a reused slot
    /// drops both plans. The field's privacy keeps the wire codec off
    /// it; `decode` drops it (`install_decoded_rows`).
    plan: PlanCell,
    /// The digest's cached entries: one hash per attribute's rows and
    /// the id-set hash. Derived state like `plan`, but dropped per
    /// attribute: a mutation drops the id-set hash and the entries of
    /// the attributes whose rows it touched, so the next
    /// [`BrokerSummary::digest`] re-hashes only those. Renumbering
    /// postings (respacing, compaction) keeps it: a row hashes the ids
    /// its postings resolve to. `decode` drops it all.
    digest: DigestCell,
}

/// Content equality: two summaries are equal when they hold the same
/// rows over the same ids. Neither free intern slots nor the empty
/// structures removals leave behind are content: a side with free slots
/// is compared in its compacted form, and an empty structure as an
/// absent one, so a decoded view equals the summary it was encoded from.
impl PartialEq for BrokerSummary {
    fn eq(&self, other: &Self) -> bool {
        fn rows<T>(
            slots: &[Option<T>],
            is_empty: fn(&T) -> bool,
        ) -> impl Iterator<Item = Option<&T>> {
            slots
                .iter()
                .map(move |slot| slot.as_ref().filter(|s| !is_empty(s)))
        }
        let (a, b) = (self.compacted(), other.compacted());
        a.schema == b.schema
            && rows(&a.arith, RangeSummary::is_empty).eq(rows(&b.arith, RangeSummary::is_empty))
            && rows(&a.strings, PatternSummary::is_empty)
                .eq(rows(&b.strings, PatternSummary::is_empty))
            && a.intern == b.intern
    }
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
            digest: DigestCell::new(n),
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
        self.plan.touch();
        self.digest
            .invalidate(normalized.iter().map(|(attr, _)| attr));
        let dense = self.intern_id(id);
        for (attr, na) in normalized.iter() {
            let idx = attr.index();
            match na {
                NormalizedAttr::Arithmetic(set) => {
                    // An unsatisfiable conjunction (empty set) leaves no
                    // trace: the id's counter can then never reach its
                    // mask count, so the subscription never matches —
                    // exactly the semantics of an unsatisfiable filter.
                    if set.is_empty() {
                        continue;
                    }
                    let slot = self.arith[idx].get_or_insert_with(RangeSummary::new);
                    slot.insert_set(set, dense);
                    for &iv in set.iter() {
                        self.plan.record_interval(idx, iv, &[dense]);
                    }
                }
                NormalizedAttr::String(constraints) => {
                    // `≠` widens to the universal pattern: sound
                    // over-approximation, re-verified at the home broker.
                    // A subscription's constraints are summarized among
                    // themselves first and their rows merged in: an
                    // insert is then exactly the merge of the
                    // one-subscription summary a delta frame ships.
                    // Inserted one at a time, `symbol = abc` could join a
                    // resident `*c` row that the shipped summary never
                    // reaches, its `ab*` sibling having absorbed it. One
                    // constraint summarizes to itself, so it goes in
                    // directly: the scratch summary's allocations cost
                    // overlay set-up ≈ 15 % (2-vCPU x86_64 guest).
                    let slot = self.strings[idx].get_or_insert_with(PatternSummary::new);
                    if let [c] = constraints.as_slice() {
                        let placed = slot.place_ids(c.over_approximation(), &[dense]);
                        self.plan.record_strings(idx, slot, placed, &[dense]);
                        continue;
                    }
                    let mut own = PatternSummary::new();
                    for c in constraints {
                        own.insert(c.over_approximation(), dense);
                    }
                    for row in own.wildcards() {
                        let placed = slot.place_ids(row.pattern.clone(), &row.ids);
                        self.plan.record_strings(idx, slot, placed, &row.ids);
                    }
                    for (lit, ids) in own.literals() {
                        let placed = slot.place_literal(lit, ids);
                        self.plan.record_strings(idx, slot, placed, ids);
                    }
                }
            }
        }
        self.plan.placed(1, self.side_limit());
    }

    /// How many ids the plan's side may place, plus the base ids removed
    /// since, before both plans are dropped: the spare share of the
    /// spare share of the live ids. Every side id costs each probe a
    /// run of its own mask in the rows it sits in, so a side of a
    /// twelfth of the ids (a churn period's arrivals) slowed the
    /// overlay-churn probe by a third; at 1/64 it does not show.
    fn side_limit(&self) -> usize {
        self.intern.live().div_ceil(SPARE_SHARE * SPARE_SHARE)
    }

    /// Interns `id`, returning its dense id: in its own or an adjacent
    /// free slot ([`InternTable::place`]), appended when it sorts after
    /// every slot, or else through one respacing union with it (ids
    /// usually arrive ascending, so that is rare). An id already live
    /// (whose new postings the plan's side cannot hold apart from its
    /// old ones), or a slot the base plan posted, drops the plans.
    fn intern_id(&mut self, id: SubscriptionId) -> DenseId {
        match self.intern.place(id) {
            Ok((pos, was_live)) => {
                if was_live || self.plan.base_posted(pos) {
                    self.plan.invalidate();
                }
                pos as DenseId
            }
            Err(rank) if rank == self.intern.len() => {
                self.intern.push(id);
                rank as DenseId
            }
            Err(_) => self.respace(&InternTable::from_ids(vec![id]))[0],
        }
    }

    /// Unions `other`'s live ids into the intern table in one respacing
    /// union ([`InternTable::respace`]), renumbering every posting, and
    /// returns the translation of `other`'s dense ids into the union.
    fn respace(&mut self, other: &InternTable) -> Vec<DenseId> {
        CNT_INTERN_REBUILDS.inc();
        self.plan.invalidate();
        let (union, trans_self, trans_other) = self.intern.respace(other);
        // A self side whose live ids keep their dense ids (all of
        // `other` sorts after them) needs no remap.
        let identity = self
            .intern
            .live_slots()
            .all(|(d, _)| trans_self[d] as usize == d);
        if !identity {
            self.remap_all(|d| trans_self[d as usize]);
        }
        self.intern = union;
        trans_other
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

    /// Removes a subscription's traces and marks its intern slot dead.
    /// Only the structures of the attributes in the id's `c3` mask are
    /// visited — every posting of an id sits under one of those — and no
    /// other dense id moves. The compiled base plan stays: the dead
    /// slot's threshold is 0, so its stale postings never fire; an id
    /// placed since the base leaves the side plan. An absent or already
    /// removed id is a no-op. Once free slots (dead and spare)
    /// outnumber live ones, they are compacted away in one renumbering
    /// pass, which drops the plans.
    ///
    /// SACS rows keep their (possibly generalized) patterns; summaries
    /// only ever become *more* precise again through
    /// [`BrokerSummary::rebuild`].
    pub fn remove(&mut self, id: SubscriptionId) {
        let Some(pos) = (self.intern.position(&id).ok()).filter(|&p| self.intern.is_live(p)) else {
            return;
        };
        self.plan.touch();
        self.digest.invalidate(id.mask.iter());
        let gone = pos as DenseId;
        for attr in id.mask.iter() {
            if let Some(Some(s)) = self.arith.get_mut(attr.index()) {
                s.remove(gone);
            }
            if let Some(Some(s)) = self.strings.get_mut(attr.index()) {
                s.remove(gone);
            }
        }
        self.intern.kill(pos);
        self.plan.removed(gone, self.side_limit());
        if self.intern.free > self.intern.live() {
            self.compact();
        }
    }

    /// Drops every free intern slot: each posting is renumbered to its
    /// slot's rank among the live ones (a strictly monotone map, so all
    /// posting lists stay sorted) and the table is rebuilt from the live
    /// ids, without spares.
    fn compact(&mut self) {
        CNT_INTERN_RENUMBERS.inc();
        self.plan.invalidate();
        let mut rank = Vec::with_capacity(self.intern.len());
        let mut live: DenseId = 0;
        for &r in &self.intern.required {
            rank.push(live);
            live += DenseId::from(r != 0);
        }
        self.remap_all(|d| rank[d as usize]);
        self.intern = InternTable::from_ids(self.intern.live_ids().collect());
    }

    /// This summary without free slots: borrowed when it has none.
    fn compacted(&self) -> std::borrow::Cow<'_, BrokerSummary> {
        if self.intern.free == 0 {
            return std::borrow::Cow::Borrowed(self);
        }
        let mut compact = self.clone();
        compact.compact();
        std::borrow::Cow::Owned(compact)
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
    /// Each of `other`'s live ids takes its own slot here, or a free one
    /// beside its rank, and no resident dense id moves. A broker's new
    /// ids rank at the end of its block, where the last respacing union
    /// left spare slots, so merging a σ-sized delta into an S-sized
    /// summary costs O(σ log S) plus the rows it touches. Only when some
    /// id finds no free slot do the two tables union once, renumbering
    /// every posting and laying fresh spares.
    ///
    /// # Panics
    ///
    /// Panics if the schemata differ; brokers of one system share the
    /// schema by assumption (§3).
    pub fn merge(&mut self, other: &BrokerSummary) {
        assert!(
            self.schema.is_compatible(&other.schema),
            "cannot merge summaries over different schemata"
        );
        self.merge_rows(other);
    }

    /// The body of [`BrokerSummary::merge`] for a caller that knows both
    /// sides share the schema: `SummaryCodec::merge_decoded` decodes the
    /// other side under this one's.
    pub(crate) fn merge_rows(&mut self, other: &BrokerSummary) {
        let _span = STAGE_MERGE.start();
        self.plan.touch();
        let theirs = other.arith.iter().zip(&other.strings);
        self.digest.invalidate(
            (theirs.enumerate())
                .filter(|(_, (arith, strings))| arith.is_some() || strings.is_some())
                .map(|(idx, _)| subsum_types::AttrId(idx as u16)),
        );
        // Each of the other side's live ids takes its own or an adjacent
        // free slot, so no dense id here moves: a σ-sized delta costs
        // σ binary searches plus the rows it touches. Should one id find
        // neither, the two tables are unioned once, respaced; ids placed
        // before it are live on both sides and meet in the union.
        // The plans survive a merge whose ids are all new here, in slots
        // the base plan holds no postings for; the side records every
        // row below.
        let mut trans = vec![0; other.intern.len()];
        let mut reused = false;
        let placed = other
            .intern
            .live_slots()
            .all(|(d, id)| match self.intern.place(id) {
                Ok((pos, was_live)) => {
                    trans[d] = pos as DenseId;
                    reused |= was_live || self.plan.base_posted(pos);
                    true
                }
                Err(_) => false,
            });
        if !placed {
            trans = self.respace(&other.intern);
        } else if reused {
            self.plan.invalidate();
        }
        let mut buf = IdList::new();
        for (idx, slot) in other.arith.iter().enumerate() {
            if let Some(theirs) = slot {
                let mine = self.arith[idx].get_or_insert_with(RangeSummary::new);
                for row in theirs.ranges() {
                    translate_into(&trans, &row.ids, &mut buf);
                    mine.insert_interval_ids(row.interval, &buf);
                    self.plan.record_interval(idx, row.interval, &buf);
                }
                for (v, ids) in theirs.points() {
                    translate_into(&trans, ids, &mut buf);
                    mine.insert_point_ids(v, &buf);
                    self.plan.record_point(idx, v, &buf);
                }
            }
        }
        for (idx, slot) in other.strings.iter().enumerate() {
            if let Some(theirs) = slot {
                let mine = self.strings[idx].get_or_insert_with(PatternSummary::new);
                for (pattern, ids) in theirs.rows() {
                    translate_into(&trans, ids, &mut buf);
                    let placed = mine.place_ids(pattern, &buf);
                    self.plan.record_strings(idx, mine, placed, &buf);
                }
            }
        }
        self.plan.placed(other.intern.live(), self.side_limit());
    }

    /// Installs the rows of a decoded stream (decoder internals). The
    /// wire carries plain `SubscriptionId` lists — the dense
    /// representation never travels — so the decoder has already sorted
    /// the ids of every row that installs into `rows.ids`, which becomes
    /// the intern table as it is, and named each posting by its rank
    /// there. The rows then install one by one in wire order; rows laid
    /// out as `encode` writes them take the append path of
    /// [`RangeSummary::insert_interval_ids`], and each literal row is
    /// tested only against its attribute's few wildcard rows, so the pass
    /// is linear in the rows. The decoder
    /// has already refused any id posted under an attribute its `c3`
    /// mask lacks, so the plan's mask filter holds for decoded summaries
    /// too.
    ///
    /// # Errors
    ///
    /// The attribute of the first AACS whose equality row lies inside a
    /// sub-range row sharing an id with it (see
    /// [`RangeSummary::point_inside_shared_range`]); the compiled plan
    /// would count that id twice, so such a stream is refused.
    pub(crate) fn install_decoded_rows(
        &mut self,
        rows: crate::wire::DecodedRows<'_>,
    ) -> Result<(), subsum_types::AttrId> {
        use crate::wire::RowPattern;
        self.plan.invalidate();
        self.digest.invalidate_all();
        self.intern = InternTable::from_ids(rows.ids);
        let postings = |span: std::ops::Range<usize>| rows.postings.get(span).unwrap_or(&[]);
        for (attr, iv, span) in rows.ranges {
            let ids = postings(span);
            if let Some(slot) = self.arith.get_mut(attr.index()) {
                if !iv.is_empty() && !ids.is_empty() {
                    slot.get_or_insert_with(RangeSummary::new)
                        .insert_interval_ids(iv, ids);
                }
            }
        }
        for (attr, v, span) in rows.points {
            let ids = postings(span);
            if let Some(slot) = self.arith.get_mut(attr.index()) {
                if !ids.is_empty() {
                    slot.get_or_insert_with(RangeSummary::new)
                        .insert_point_ids(v, ids);
                }
            }
        }
        if let Some(idx) = self.arith.iter().position(|slot| {
            slot.as_ref()
                .is_some_and(|s| s.point_inside_shared_range().is_some())
        }) {
            return Err(subsum_types::AttrId(idx as u16));
        }
        // Each literal map is sized once, not by doubling as rows arrive.
        let mut literal_rows = vec![0; self.strings.len()];
        for (attr, pattern, span) in &rows.strings {
            if let (RowPattern::Literal(_), Some(n)) = (pattern, literal_rows.get_mut(attr.index()))
            {
                *n += usize::from(!span.is_empty());
            }
        }
        for (slot, n) in self.strings.iter_mut().zip(literal_rows) {
            if n > 0 {
                slot.get_or_insert_with(PatternSummary::new)
                    .reserve_literals(n);
            }
        }
        for (attr, pattern, span) in rows.strings {
            let ids = postings(span);
            if let Some(slot) = self.strings.get_mut(attr.index()) {
                if !ids.is_empty() {
                    let s = slot.get_or_insert_with(PatternSummary::new);
                    match pattern {
                        RowPattern::Literal(lit) => s.insert_literal(lit, ids),
                        RowPattern::Wildcard(pattern) => s.insert_ids(pattern, ids),
                    }
                }
            }
        }
        Ok(())
    }

    /// A summary assembled from its parts: the row-by-row reference the
    /// decoder is tested against builds its result this way.
    #[cfg(test)]
    pub(crate) fn from_parts(
        schema: Schema,
        ids: SubIdList,
        arith: Vec<Option<RangeSummary>>,
        strings: Vec<Option<PatternSummary>>,
    ) -> Self {
        BrokerSummary {
            digest: DigestCell::new(schema.len()),
            schema,
            arith,
            strings,
            intern: InternTable::from_ids(ids),
            plan: PlanCell::default(),
        }
    }

    /// The intern table (the encoder packs its ids once, and digests
    /// resolve dense postings through it).
    pub(crate) fn intern_table(&self) -> &InternTable {
        &self.intern
    }

    /// The digest's cached entries ([`BrokerSummary::digest`] reads and
    /// fills them).
    pub(crate) fn digest_cell(&self) -> &DigestCell {
        &self.digest
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
        let (base, side) = self.plans();
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
        base.probe_into(side, event, self.live(), probe, &mut outcome.stats);
        probe.drain_matched(|d| outcome.matched.push(self.intern.resolve(d as DenseId)));
        outcome
    }

    /// What a probe reads of this summary besides its plans.
    fn live(&self) -> Live<'_> {
        Live {
            arith: &self.arith,
            strings: &self.strings,
            ids: self.intern.ids_slice(),
            required: self.intern.required_slice(),
        }
    }

    /// A fresh compile of the plan over every row.
    pub(crate) fn compile_plan(&self) -> MatchPlan {
        MatchPlan::compile(&self.arith, &self.strings, &self.intern)
    }

    /// The base plan and the side plan, if ids were placed since the
    /// base compiled, compiling (and caching) what is missing.
    fn plans(&self) -> (&MatchPlan, Option<&MatchPlan>) {
        self.plan.plans(
            || self.compile_plan(),
            |log, base| {
                MatchPlan::compile_side(log, self.intern.ids_slice(), self.arith.len(), base)
            },
        )
    }

    /// Compiles and caches the plans a match needs; returns whether the
    /// rows changed since the last call. Clones share the cached plans.
    pub(crate) fn compile_if_stale(&mut self) -> bool {
        self.plans();
        self.plan.take_changed()
    }

    /// How often this summary's plans compiled, in full and as a side,
    /// and the postings those compiles laid out. Clones carry the count
    /// so far.
    #[cfg(any(test, debug_assertions))]
    pub fn plan_compiles(&self) -> crate::PlanCompiles {
        self.plan.compiles()
    }

    /// [`BrokerSummary::match_event`] through a fresh full compile of
    /// the plan, past the cached base and side plans: what the cached
    /// ones must match.
    #[cfg(any(test, debug_assertions))]
    pub fn match_event_uncached(&self, event: &Event) -> MatchOutcome {
        let mut probe = ProbeState::default();
        let mut outcome = MatchOutcome::default();
        probe.prepare(self.intern.len());
        let fresh = self.compile_plan();
        fresh.probe_into(None, event, self.live(), &mut probe, &mut outcome.stats);
        probe.drain_matched(|d| outcome.matched.push(self.intern.resolve(d as DenseId)));
        outcome
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
    /// from the intern table's live slots.
    pub fn subscription_count(&self) -> usize {
        self.intern.live()
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
    ///   `required[d]` equals each live id's mask popcount and is 0 for a
    ///   free (dead or spare) slot, the free count is right and at most
    ///   the live count, every dense posting is in table range, no
    ///   posting names a free slot, and the referenced dense ids are exactly the live slots
    ///   (no zombie slots, no danglers);
    /// * every posting of dense id `d` sits on an attribute in
    ///   `ids[d].mask` — the precondition of the plan's mask filter;
    /// * a fresh compile's runs each hold the postings of one mask, and
    ///   so do the cached base and side plans', whose postings of live
    ///   ids together equal the fresh compile's;
    /// * each cached digest entry equals a fresh hash of its attribute's
    ///   rows (or of the live ids).
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
                !self.intern.is_live(d) || self.intern.required[d] == id.mask.count(),
                "required[] inconsistent with the id mask at dense id {d}"
            );
        }
        let free = self.intern.required.iter().filter(|&&r| r == 0).count();
        assert_eq!(free, self.intern.free, "free-slot count out of sync");
        assert!(
            free <= self.intern.live(),
            "{free} free slots outnumber the live ones"
        );
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
            assert!(
                self.intern.is_live(d as usize),
                "dense id {d} names a free slot"
            );
        }
        assert!(
            dense.len() == self.intern.live(),
            "intern table out of sync with the summary rows"
        );
        // Plan/summary coherence: the cached base and side plans must
        // say what a fresh compile of the current rows says about every
        // live id.
        let fresh = self.compile_plan();
        fresh.assert_layout(&self.intern.ids);
        self.plan.assert_agrees(
            &fresh,
            &self.intern.ids,
            &self.intern.required,
            self.arith.len(),
        );
        // Digest/summary coherence: each cached entry must equal a fresh
        // hash, or some mutation failed to drop it.
        for (attr, _spec) in self.schema.iter() {
            if let Some(cached) = self.digest.cached_attr(attr) {
                assert!(
                    cached == self.attr_hash(attr),
                    "cached digest of attribute {} out of sync with its rows",
                    attr.0
                );
            }
        }
        if let Some(cached) = self.digest.cached_ids() {
            assert!(
                cached == self.id_hash(),
                "cached id-set digest out of sync with the intern table"
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

/// One side of a block merge: a run of intern slots, their thresholds
/// (0: a free slot) and where each live one's dense id in the union goes.
type Run<'a> = (&'a [SubscriptionId], &'a [u32], &'a mut [DenseId]);

/// Appends the live ids of two sorted runs to `out` in order, an id both
/// hold once, and records each one's dense id there.
fn merge_live((a, a_req, ta): Run<'_>, (b, b_req, tb): Run<'_>, out: &mut SubIdList) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a_req[i] == 0 {
            i += 1;
            continue;
        }
        if b_req[j] == 0 {
            j += 1;
            continue;
        }
        let d = out.len() as DenseId;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                ta[i] = d;
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                tb[j] = d;
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                ta[i] = d;
                tb[j] = d;
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    for (ids, req, trans, from) in [(a, a_req, ta, i), (b, b_req, tb, j)] {
        for k in from..ids.len() {
            if req[k] != 0 {
                trans[k] = out.len() as DenseId;
                out.push(ids[k]);
            }
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
        let live = |s: &BrokerSummary| s.intern.live_ids().collect::<Vec<_>>();
        let id1 = summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        let id2 = summary.insert(BrokerId(0), LocalSubId(2), &sub2(&schema));
        assert_eq!(summary.subscription_count(), 2);
        assert_eq!(summary.subscription_ids(), live(&summary));
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
        assert_eq!(summary.subscription_ids(), live(&summary));
        // The removed id's slot stays, dead: one dead, one live.
        summary.remove(id1);
        assert_eq!(summary.subscription_count(), 1);
        assert_eq!(summary.subscription_ids(), vec![id2]);
        assert_eq!(summary.subscription_ids(), live(&summary));
        assert_eq!(summary.intern.ids, [id1, id2]);
        // Re-inserting revives the slot where it is.
        summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        assert_eq!(summary.subscription_ids(), live(&summary));
        assert_eq!(summary.intern.ids, [id1, id2]);
        // One dead slot beside one live one stays; once free slots
        // outnumber live ones they are compacted away.
        summary.remove(id1);
        assert_eq!(summary.intern.ids, [id1, id2]);
        summary.remove(id2);
        assert_eq!(summary.subscription_count(), 0);
        assert!(summary.intern.ids.is_empty());
        summary.validate();
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
        // Corrupt the intern table behind the API's back: a live slot no
        // row references breaks the invariant.
        let bogus = SubscriptionId::new(BrokerId(9), LocalSubId(9), sub1(&schema).attr_mask());
        summary.intern.required.push(bogus.mask.count());
        summary.intern.ids.push(bogus);
        summary.validate();
    }

    #[test]
    #[should_panic(expected = "names a free slot")]
    fn validate_rejects_a_posting_that_names_a_dead_slot() {
        let schema = schema();
        let mut summary = BrokerSummary::new(schema.clone());
        summary.insert(BrokerId(0), LocalSubId(1), &sub1(&schema));
        summary.insert(BrokerId(0), LocalSubId(2), &sub2(&schema));
        // Mark the first slot dead behind the API's back, leaving its
        // postings in place.
        summary.intern.kill(0);
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
        // Descending local ids force the respace path in `intern_id`:
        // each insert ranks first, beside no free slot, and renumbers
        // the existing postings.
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

    /// A subscribe ships only what it added: the receiver merges the
    /// one-subscription summary into its decoded view of the sender.
    /// After each of one to eight new subscriptions (ids ascending, above
    /// every base id) that view must equal what the sender holds after
    /// `insert_with_id`, row for row and by digest, at both widths.
    #[test]
    fn merged_delta_equals_inserted_summary() {
        use crate::wire::{ArithWidth, SummaryCodec};
        use rand::check::check;
        use rand::Rng;
        let schema = stock_schema();
        let layout = subsum_types::IdLayout::new(1 << 16, 1 << 20, schema.len() as u32).unwrap();
        check("merged_delta_equals_inserted_summary", 256, |g| {
            let n = g.gen_range(0..200);
            let mut sender = crate::testkit::random_summary(g, n);
            let width = if g.gen() {
                ArithWidth::Four
            } else {
                ArithWidth::Eight
            };
            let c = SummaryCodec::new(layout, width);
            let shipped =
                |summary: &BrokerSummary| c.decode(&c.encode(summary).unwrap(), &schema).unwrap();
            let mut view = shipped(&sender);
            let mut local = 0;
            for _ in 0..g.gen_range(1..=8) {
                let Some(sub) = crate::testkit::random_subscription(g) else {
                    continue;
                };
                local += 1;
                let id = SubscriptionId::new(BrokerId(100), LocalSubId(local), sub.attr_mask());
                sender.insert_with_id(id, &sub);
                let delta = BrokerSummary::rebuild(schema.clone(), [(id, &sub)]);
                c.merge_decoded(&c.encode(&delta).unwrap(), &mut view)
                    .unwrap();
                view.validate();
                let want = match width {
                    ArithWidth::Eight => sender.clone(),
                    ArithWidth::Four => shipped(&sender),
                };
                assert_eq!(view, want, "after {id}");
                assert_eq!(view.digest(), want.digest());
            }
        });
    }

    /// A seeded churn sequence: 200 inserts from 24 brokers (so some
    /// land mid-order), 150 removals in a random order, then a merge in
    /// each direction with a second seeded summary. Digests and encode
    /// fingerprints were recorded while removal still renumbered every
    /// posting at once, so they witness that dead slots and their
    /// compaction leave the content exactly as that did.
    #[test]
    fn churned_summary_matches_the_pinned_values() {
        use crate::testkit::{fingerprint, random_subscription, seeded_summary};
        use crate::wire::{ArithWidth, SummaryCodec};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let layout = subsum_types::IdLayout::new(1 << 16, 1 << 20, 7).unwrap();
        let c = SummaryCodec::new(layout, ArithWidth::Eight);
        let pin = |s: &BrokerSummary| {
            let d = s.digest();
            let bytes = c.encode(s).unwrap();
            (d.count, d.id_hash, d.structure, fingerprint(&bytes))
        };
        let mut g = StdRng::seed_from_u64(36);
        let mut churned = BrokerSummary::new(schema());
        let mut ids = Vec::new();
        for local in 0..200 {
            if let Some(sub) = random_subscription(&mut g) {
                let broker = BrokerId(g.gen_range(0..24));
                ids.push(churned.insert(broker, LocalSubId(local), &sub));
            }
        }
        for _ in 0..150.min(ids.len()) {
            let k = g.gen_range(0..ids.len());
            churned.remove(ids.swap_remove(k));
        }
        let other = seeded_summary(37, 60);
        let mut into_other = other.clone();
        into_other.merge(&churned);
        let mut into_churned = churned.clone();
        into_churned.merge(&other);
        let merged = (
            109,
            0xc661_4ce8_1e65_25e3,
            0xfb8b_3cae_0039_c477,
            0x2531_5a33_afea_c227,
        );
        assert_eq!(
            pin(&churned),
            (
                49,
                0x0820_735c_9937_be99,
                0x9e8e_4be4_ce92_ff56,
                0xf53e_a1f9_ee66_1896
            )
        );
        assert_eq!(pin(&into_other), merged);
        assert_eq!(pin(&into_churned), merged);
    }

    /// Twenty-four blocks of 200 ids take forty σ-merges of 48 new ids,
    /// two per broker. A merge that fits every block's spares moves no
    /// resident dense id; one that does not respaces, and the spares it
    /// lays last as long as their share says. After every merge the
    /// summary reads exactly as the same merges applied to a compact
    /// copy of the base, whose first merge respaces.
    #[test]
    fn a_sigma_merge_moves_no_resident_dense_id() {
        use crate::testkit::random_subscription;
        use crate::wire::{ArithWidth, SummaryCodec};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::collections::BTreeMap;
        let layout = subsum_types::IdLayout::new(1 << 8, 1 << 16, 7).unwrap();
        let c = SummaryCodec::new(layout, ArithWidth::Eight);
        let mut g = StdRng::seed_from_u64(39);
        let mut next = [0u32; 24];
        // `per_broker` fresh subscriptions at each of 24 brokers, dealt
        // round-robin, summarized in id order.
        let mut delta = |per_broker: usize| {
            let mut subs = Vec::new();
            for k in 0..24 * per_broker {
                let b = k % 24;
                if let Some(sub) = random_subscription(&mut g) {
                    let id = SubscriptionId::new(
                        BrokerId(b as u16),
                        LocalSubId(next[b]),
                        sub.attr_mask(),
                    );
                    subs.push((id, sub));
                }
                next[b] += 1;
            }
            subs.sort_by_key(|(id, _)| *id);
            BrokerSummary::rebuild(schema(), subs.iter().map(|(id, sub)| (*id, sub)))
        };
        // Free slots (here: spares) and live ids per broker.
        let per_broker = |table: &InternTable| {
            let (mut free, mut live) = (BTreeMap::new(), BTreeMap::new());
            for (d, slot) in table.slots().enumerate() {
                let side = if slot.is_some() { &mut live } else { &mut free };
                *side.entry(table.ids[d].broker).or_insert(0usize) += 1;
            }
            (free, live)
        };
        let mut summary = BrokerSummary::new(schema());
        summary.merge(&delta(200));
        let mut mirror = c.decode(&c.encode(&summary).unwrap(), &schema()).unwrap();
        assert_eq!(mirror.intern.free, 0, "a decoded table is compact");
        let (mut respaces, mut fitted, mut runway) = (0, 0, 0);
        for merge in 0..40 {
            let d = delta(2);
            let (spares, _) = per_broker(&summary.intern);
            let (_, need) = per_broker(&d.intern);
            let fits = need
                .iter()
                .all(|(b, n)| spares.get(b).is_some_and(|s| s >= n));
            let before = summary.intern.clone();
            summary.merge(&d);
            mirror.merge(&d);
            assert!(mirror.intern.free > 0, "the compact copy respaced");
            if fits {
                assert_eq!(summary.intern.len(), before.len(), "merge {merge}");
                for (pos, id) in before.live_slots() {
                    assert_eq!(summary.intern.position(&id), Ok(pos), "merge {merge}: {id}");
                }
                fitted += 1;
            } else {
                summary.validate();
                assert!(
                    fitted >= runway,
                    "merge {merge} respaced after {fitted} < {runway}"
                );
                respaces += 1;
                fitted = 0;
                // The spares just laid: a share of every block, less
                // what this merge took.
                let (spares, live) = per_broker(&summary.intern);
                for (b, n) in &live {
                    let laid = n.div_ceil(SPARE_SHARE);
                    assert!(spares.get(b).copied().unwrap_or(0) + 2 >= laid, "block {b}");
                }
                runway = spares.values().min().map_or(0, |s| s / 2);
            }
            assert_eq!(summary, mirror, "merge {merge}");
            assert_eq!(summary.digest(), mirror.digest());
            assert_eq!(c.encode(&summary).unwrap(), c.encode(&mirror).unwrap());
        }
        summary.validate();
        mirror.validate();
        // 200 ids leave 25 spares a block: twelve merges, then a respace.
        assert!(
            (1..=40 / (200 / SPARE_SHARE / 2)).contains(&respaces),
            "{respaces} respaces"
        );
    }

    /// The paper's σ ≪ S case: a 48-id delta, two new ids at each of
    /// 24 brokers, merges into the spares of a 10 080-id summary whose
    /// plan is compiled. The next match compiles only the delta's
    /// postings, beside the kept base plan, and matches as a fresh
    /// compile does.
    #[test]
    fn a_sigma_merge_compiles_only_its_own_postings() {
        use crate::testkit::random_subscription;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut g = StdRng::seed_from_u64(50);
        let mut subs = |per_broker: u32, from: u32| {
            let mut subs = Vec::new();
            for b in 0..24u16 {
                for local in from..from + per_broker {
                    if let Some(sub) = random_subscription(&mut g) {
                        let id =
                            SubscriptionId::new(BrokerId(b), LocalSubId(local), sub.attr_mask());
                        subs.push((id, sub));
                    }
                }
            }
            BrokerSummary::rebuild(schema(), subs.iter().map(|(id, sub)| (*id, sub)))
        };
        let mut summary = BrokerSummary::new(schema());
        summary.merge(&subs(420, 0));
        assert!(summary.subscription_count() >= 10_000);
        let event = fig2_event(&schema());
        summary.match_event(&event);
        let before = summary.plan_compiles();
        assert_eq!((before.full, before.side), (1, 0));

        let delta = subs(2, 1_000);
        assert_eq!(delta.subscription_count(), 48);
        let delta_postings: usize = (delta.arith.iter().flatten())
            .map(RangeSummary::id_list_len)
            .chain(
                delta
                    .strings
                    .iter()
                    .flatten()
                    .map(PatternSummary::id_list_len),
            )
            .sum();
        summary.merge(&delta);
        let matched = summary.match_event(&event);
        let after = summary.plan_compiles();
        assert_eq!(after.full, 1, "no full compile");
        assert_eq!(after.side, 1);
        let compiled = (after.postings - before.postings) as usize;
        assert!(
            (1..=delta_postings).contains(&compiled),
            "{compiled} postings compiled for a delta of {delta_postings}"
        );
        assert_eq!(matched, summary.match_event_uncached(&event).matched);
        assert_eq!(matched, summary.match_event_scan(&event).matched);
    }

    /// The shape `merged_delta_equals_inserted_summary` rarely draws: a
    /// subscription with `symbol = abc` and `symbol prefix ab` arrives
    /// at a summary holding `*c`. Alone, `ab*` absorbs `abc`; inserted
    /// one constraint at a time, `abc` would first join `*c` and leave
    /// the id there, where the shipped one-subscription summary never
    /// puts it.
    #[test]
    fn a_subscriptions_own_constraints_summarize_before_they_merge() {
        let schema = schema();
        let suffix_c = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Suffix, "c")
            .unwrap()
            .build()
            .unwrap();
        let sub = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Eq, "abc")
            .unwrap()
            .str_op("symbol", StrOp::Prefix, "ab")
            .unwrap()
            .build()
            .unwrap();
        let mut summary = BrokerSummary::new(schema.clone());
        let id0 = summary.insert(BrokerId(0), LocalSubId(0), &suffix_c);
        let mut merged = summary.clone();
        let id1 = summary.insert(BrokerId(0), LocalSubId(1), &sub);
        merged.merge(&BrokerSummary::rebuild(schema.clone(), [(id1, &sub)]));
        assert_eq!(summary, merged);
        let rows: Vec<_> = summary
            .string_summary(subsum_types::AttrId(1))
            .unwrap()
            .rows()
            .map(|(p, ids)| (p.to_string(), ids.clone()))
            .collect();
        assert_eq!(
            rows,
            [("*c".to_string(), vec![0]), ("ab*".to_string(), vec![1])]
        );
        assert_eq!(summary.subscription_ids(), [id0, id1]);
    }
}
