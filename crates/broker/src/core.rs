//! [`BrokerCore`]: one broker of the paper, sans I/O.
//!
//! The paper specifies a single broker — an exact subscription store
//! summarised into a per-broker summary (§3) and re-checked by the
//! owner before any delivery (§4.3). This module is that broker, written
//! once. It holds no sockets, channels, clocks or threads: a *host*
//! ([`SummaryPubSub`](crate::SummaryPubSub),
//! [`ChaosRun`](crate::ChaosRun), `subsumd`) owns one core per broker
//! and only moves messages. Everything a broker decides on its own lives
//! here and nowhere else: admitting and cancelling subscriptions,
//! checkpoint and restore, rebuilding the summary from the exact store,
//! and tier-2 verification. What reaches neighbours, and what they
//! sent, is the host's protocol: the neighbour views of the socket
//! deployment live in [`DaemonCore`](crate::DaemonCore). DESIGN.md §16
//! lists what each host adds.

use std::collections::{BTreeMap, HashMap};

use subsum_core::BrokerSummary;
use subsum_net::NodeId;
use subsum_telemetry::Stage;
use subsum_types::{
    BrokerId, Event, IdLayout, LocalSubId, Schema, Subscription, SubscriptionId, TypeError,
};

use crate::snapshot::BrokerCheckpoint;

static STAGE_SUBSCRIBE: Stage = Stage::new(subsum_telemetry::names::BROKER_SUBSCRIBE);

/// The state machine of one broker. See the [module docs](self).
#[derive(Debug)]
pub struct BrokerCore {
    id: NodeId,
    schema: Schema,
    /// The id layout; it bounds the ids this broker mints.
    layout: IdLayout,
    /// Next local subscription number (`c2`) this broker assigns.
    next_local: u32,
    /// The exact store (tier 2). Iteration order is ascending id, the
    /// canonical insertion order that makes digests comparable.
    exact: BTreeMap<SubscriptionId, Subscription>,
    /// §6 extension: when on, a new subscription covered by a resident
    /// one is *shadowed* — kept out of the summary, expanded at delivery.
    subsumption_filter: bool,
    /// Coverer id → ids of the subscriptions it shadows.
    shadows: HashMap<SubscriptionId, Vec<SubscriptionId>>,
    /// Shadowed id → its coverer.
    shadowed_by: HashMap<SubscriptionId, SubscriptionId>,
    /// Summary of the non-shadowed part of `exact` (tier 1).
    own: BrokerSummary,
    /// Whether an unsubscribe touched `own` since it was last rebuilt.
    /// While clear, `own` equals [`BrokerCore::rebuilt`]: admissions
    /// insert in ascending-id order, the order a rebuild inserts in.
    removed_since_rebuild: bool,
}

impl BrokerCore {
    /// Creates broker `id`, empty or restored from `checkpoint`.
    pub fn new(
        id: NodeId,
        schema: Schema,
        layout: IdLayout,
        checkpoint: Option<BrokerCheckpoint>,
    ) -> Self {
        let mut core = BrokerCore {
            id,
            own: BrokerSummary::new(schema.clone()),
            schema,
            layout,
            next_local: 0,
            exact: BTreeMap::new(),
            subsumption_filter: false,
            shadows: HashMap::new(),
            shadowed_by: HashMap::new(),
            removed_since_rebuild: false,
        };
        core.restore(checkpoint);
        core
    }

    /// This broker's id in the overlay.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The event schema this broker summarises against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The id layout this broker mints ids under.
    pub fn layout(&self) -> IdLayout {
        self.layout
    }

    /// The next local subscription number this broker will assign.
    pub fn next_local(&self) -> u32 {
        self.next_local
    }

    /// The exact subscription store, in ascending-id order.
    pub fn exact(&self) -> &BTreeMap<SubscriptionId, Subscription> {
        &self.exact
    }

    /// The summary of this broker's own (non-shadowed) subscriptions.
    pub fn own(&self) -> &BrokerSummary {
        &self.own
    }

    /// Enables or disables the §6 subsumption filter for subscriptions
    /// admitted after the call.
    pub fn set_subsumption_filter(&mut self, on: bool) {
        self.subsumption_filter = on;
    }

    /// The number of subscriptions currently shadowed.
    pub fn shadowed_count(&self) -> usize {
        self.shadowed_by.len()
    }

    /// The subscriptions shadowed under `coverer`, which its cancellation
    /// promotes into the own summary or shadows under another coverer.
    pub fn shadowed_under(&self, coverer: SubscriptionId) -> &[SubscriptionId] {
        self.shadows.get(&coverer).map_or(&[], Vec::as_slice)
    }

    /// Admits a subscription: mints its id, stores it exactly and — unless
    /// the §6 filter shadows it under a resident coverer — dissolves it
    /// into the own summary.
    ///
    /// # Errors
    ///
    /// [`TypeError::IdOverflow`] once the layout's local id space is
    /// exhausted, or the error of [`Subscription::check`] for one
    /// outside the schema; nothing is stored.
    pub fn subscribe(&mut self, sub: &Subscription) -> Result<SubscriptionId, TypeError> {
        let _span = STAGE_SUBSCRIBE.start();
        sub.check(&self.schema)?;
        let local = self.next_local;
        let local_bits = self.layout.local_bits();
        if u64::from(local) >= (1u64 << local_bits) {
            return Err(TypeError::IdOverflow {
                component: "c2",
                value: u64::from(local),
                bits: local_bits,
            });
        }
        self.next_local += 1;
        let id = SubscriptionId::new(BrokerId(self.id), LocalSubId(local), sub.attr_mask());
        if !(self.subsumption_filter && self.shadow(id, sub, None)) {
            self.own.insert_with_id(id, sub);
        }
        self.exact.insert(id, sub.clone());
        Ok(id)
    }

    /// Shadows `id` under the lowest-id resident (non-shadowed)
    /// subscription other than `exclude` that covers `sub`; returns
    /// whether there was one.
    fn shadow(
        &mut self,
        id: SubscriptionId,
        sub: &Subscription,
        exclude: Option<SubscriptionId>,
    ) -> bool {
        let coverer = self
            .exact
            .iter()
            .filter(|(c, _)| Some(**c) != exclude && !self.shadowed_by.contains_key(c))
            .find(|(_, resident)| resident.covers(sub))
            .map(|(c, _)| *c);
        let Some(coverer) = coverer else {
            return false;
        };
        self.shadows.entry(coverer).or_default().push(id);
        self.shadowed_by.insert(id, coverer);
        true
    }

    /// Cancels a subscription; returns whether it existed. Summaries held
    /// elsewhere keep the id until refreshed; `verify` silences it.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        if self.exact.remove(&id).is_none() {
            return false;
        }
        if let Some(coverer) = self.shadowed_by.remove(&id) {
            // A shadowed subscription never entered the summary.
            if let Some(list) = self.shadows.get_mut(&coverer) {
                list.retain(|&x| x != id);
            }
            return true;
        }
        self.own.remove(id);
        self.removed_since_rebuild = true;
        // Orphaned shadows re-enter the summary (possibly under a
        // different resident coverer).
        for orphan in self.shadows.remove(&id).unwrap_or_default() {
            self.shadowed_by.remove(&orphan);
            if let Some(sub) = self.exact.get(&orphan).cloned() {
                if !self.shadow(orphan, &sub, Some(orphan)) {
                    self.own.insert_with_id(orphan, &sub);
                }
            }
        }
        true
    }

    /// The durable state: the id counter and the exact store, id-sorted.
    pub fn checkpoint(&self) -> BrokerCheckpoint {
        BrokerCheckpoint {
            next_local: self.next_local,
            subs: self
                .exact
                .iter()
                .map(|(id, sub)| (*id, sub.clone()))
                .collect(),
        }
    }

    /// Replaces everything in memory by `checkpoint` (`None`: a crash).
    /// The own summary is rebuilt. With the §6 filter on, the shadow maps
    /// are re-derived by admitting the store again in ascending-id order,
    /// the order its ids were minted in.
    pub fn restore(&mut self, checkpoint: Option<BrokerCheckpoint>) {
        let cp = checkpoint.unwrap_or_default();
        self.next_local = cp.next_local;
        self.exact.clear();
        self.shadows.clear();
        self.shadowed_by.clear();
        let subs: BTreeMap<SubscriptionId, Subscription> = cp.subs.into_iter().collect();
        for (id, sub) in subs {
            if self.subsumption_filter {
                self.shadow(id, &sub, None);
            }
            self.exact.insert(id, sub);
        }
        self.own = self.rebuilt();
        self.removed_since_rebuild = false;
    }

    /// A fresh summary of the exact store in canonical (ascending-id)
    /// order, shadowed subscriptions left out.
    pub fn rebuilt(&self) -> BrokerSummary {
        self.summarize(self.exact.iter().map(|(id, sub)| (*id, sub)))
    }

    /// Sheds the generalisations removals left in the own summary (§3
    /// maintenance at a period boundary). Without an unsubscribe since
    /// the last rebuild there are none, and the summary is kept.
    pub fn rebuild(&mut self) {
        if !self.removed_since_rebuild {
            debug_assert!(self.own == self.rebuilt(), "own summary drifted");
            return;
        }
        self.own = self.rebuilt();
        self.removed_since_rebuild = false;
    }

    /// A summary of those of `ids` that are still live and not shadowed
    /// — the delta an incremental propagation period ships.
    pub fn summary_of(&self, ids: impl IntoIterator<Item = SubscriptionId>) -> BrokerSummary {
        self.summarize(
            ids.into_iter()
                .filter_map(|id| self.exact.get(&id).map(|sub| (id, sub))),
        )
    }

    fn summarize<'a>(
        &'a self,
        subs: impl Iterator<Item = (SubscriptionId, &'a Subscription)>,
    ) -> BrokerSummary {
        BrokerSummary::rebuild(
            self.schema.clone(),
            subs.filter(|(id, _)| !self.shadowed_by.contains_key(id)),
        )
    }

    /// §6 dynamic schema: re-summarises under an extended schema.
    pub(crate) fn retype(&mut self, schema: Schema, layout: IdLayout) {
        self.schema = schema;
        self.layout = layout;
        self.own = self.rebuilt();
        self.removed_since_rebuild = false;
    }

    /// Tier-2 verification of one summary-tier candidate: calls
    /// `deliver` for the candidate if the exact store confirms it and for
    /// every §6-shadowed subscription under it that matches. Returns
    /// whether the candidate was confirmed (`false`: a SACS false
    /// positive, or an id cancelled since the summary was shipped).
    pub fn verify(
        &self,
        event: &Event,
        candidate: SubscriptionId,
        mut deliver: impl FnMut(SubscriptionId),
    ) -> bool {
        let matches =
            |id: &SubscriptionId| self.exact.get(id).is_some_and(|sub| sub.matches(event));
        let confirmed = matches(&candidate);
        if confirmed {
            deliver(candidate);
        }
        // §6 extension: a candidate coverer stands in for its shadowed
        // subscriptions; verify them too.
        if let Some(shadowed) = self.shadows.get(&candidate) {
            for id in shadowed.iter().filter(|id| matches(id)) {
                deliver(*id);
            }
        }
        confirmed
    }

    /// The subscriptions of the exact store `event` matches, ascending —
    /// the oracle both tiers together must reproduce.
    pub fn exact_matches<'a>(
        &'a self,
        event: &'a Event,
    ) -> impl Iterator<Item = SubscriptionId> + 'a {
        self.exact
            .iter()
            .filter(move |(_, sub)| sub.matches(event))
            .map(|(id, _)| *id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsum_types::{stock_schema, NumOp, StrOp};

    fn core(max_subs: u64) -> BrokerCore {
        let schema = stock_schema();
        let layout = IdLayout::new(4, max_subs, schema.len() as u32).unwrap();
        BrokerCore::new(1, schema, layout, None)
    }

    fn price_lt(bound: f64) -> Subscription {
        Subscription::builder(&stock_schema())
            .num("price", NumOp::Lt, bound)
            .unwrap()
            .build()
            .unwrap()
    }

    fn price_event(price: f64) -> Event {
        Event::builder(&stock_schema())
            .num("price", price)
            .unwrap()
            .build()
    }

    /// Both tiers at the owner: the ids `core` delivers for `event`.
    fn delivered(core: &BrokerCore, event: &Event) -> Vec<SubscriptionId> {
        let mut delivered = Vec::new();
        for candidate in core.own().match_event(event) {
            core.verify(event, candidate, |id| delivered.push(id));
        }
        delivered
    }

    #[test]
    fn local_id_exhaustion_reported() {
        let mut core = core(2);
        let sub = price_lt(1.0);
        core.subscribe(&sub).unwrap();
        core.subscribe(&sub).unwrap();
        let before = core.own().digest();
        let err = core.subscribe(&sub).unwrap_err();
        assert!(matches!(
            err,
            TypeError::IdOverflow {
                component: "c2",
                ..
            }
        ));
        // The refused subscription left no trace.
        assert_eq!(core.next_local(), 2);
        assert_eq!(core.exact().len(), 2);
        assert_eq!(core.own().digest(), before);
    }

    #[test]
    fn a_checkpoint_at_the_end_of_the_id_space_admits_nothing() {
        let schema = stock_schema();
        let layout = IdLayout::new(2, 1 << 20, schema.len() as u32).unwrap();
        let cp = BrokerCheckpoint {
            next_local: 1 << 20,
            subs: vec![],
        };
        let mut core = BrokerCore::new(0, schema, layout, Some(cp));
        assert!(core.subscribe(&price_lt(1.0)).is_err());
    }

    #[test]
    fn verify_rejects_sacs_false_positives_and_cancelled_ids() {
        let schema = stock_schema();
        let mut core = core(100);
        let exact = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Eq, "OTE")
            .unwrap()
            .build()
            .unwrap();
        let prefix = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Prefix, "OT")
            .unwrap()
            .build()
            .unwrap();
        let id_exact = core.subscribe(&exact).unwrap();
        let id_prefix = core.subscribe(&prefix).unwrap();
        let event = Event::builder(&schema)
            .str("symbol", "OTX")
            .unwrap()
            .build();
        // SACS generalises both under `OT*`: the summary tier reports
        // both, the exact store keeps only the prefix subscription.
        assert_eq!(core.own().match_event(&event), vec![id_exact, id_prefix]);
        assert_eq!(delivered(&core, &event), vec![id_prefix]);
        assert!(!core.verify(&event, id_exact, |_| panic!("false positive")));
        assert!(core.verify(&event, id_prefix, |_| {}));

        assert!(core.unsubscribe(id_prefix));
        assert!(!core.unsubscribe(id_prefix));
        assert!(!core.verify(&event, id_prefix, |_| panic!("cancelled")));
    }

    #[test]
    fn shadows_are_expanded_at_verification_and_promoted_on_cancel() {
        let mut core = core(100);
        core.set_subsumption_filter(true);
        let broad = core.subscribe(&price_lt(100.0)).unwrap();
        let narrow = core.subscribe(&price_lt(10.0)).unwrap();
        assert_eq!(core.shadowed_count(), 1);
        assert_eq!(core.own().subscription_ids(), vec![broad]);

        assert_eq!(delivered(&core, &price_event(5.0)), vec![broad, narrow]);
        assert_eq!(delivered(&core, &price_event(50.0)), vec![broad]);

        assert!(core.unsubscribe(broad));
        assert_eq!(core.shadowed_count(), 0);
        assert_eq!(core.own().subscription_ids(), vec![narrow]);
    }

    /// Admissions alone keep the own summary equal to a rebuild, with
    /// and without the §6 filter, so a period-boundary rebuild may skip
    /// it; an unsubscribe that touches the summary leaves one to do.
    #[test]
    fn only_an_unsubscribe_leaves_a_rebuild_to_do() {
        let schema = stock_schema();
        let symbol = |op, text| {
            Subscription::builder(&schema)
                .str_op("symbol", op, text)
                .unwrap()
                .build()
                .unwrap()
        };
        for filter in [false, true] {
            let mut core = core(100);
            core.set_subsumption_filter(filter);
            let broad = core.subscribe(&price_lt(50.0)).unwrap();
            let narrow = core.subscribe(&price_lt(5.0)).unwrap();
            core.subscribe(&price_lt(70.0)).unwrap();
            core.subscribe(&symbol(StrOp::Eq, "OTE")).unwrap();
            core.subscribe(&symbol(StrOp::Prefix, "OT")).unwrap();
            core.subscribe(&symbol(StrOp::Eq, "OTX")).unwrap();
            assert_eq!(core.shadowed_count(), if filter { 2 } else { 0 });
            assert!(!core.removed_since_rebuild);
            assert_eq!(*core.own(), core.rebuilt());
            assert_eq!(core.own().digest(), core.rebuilt().digest());
            // Under the filter `narrow` is shadowed: its cancellation
            // leaves the summary alone.
            core.unsubscribe(narrow);
            assert_eq!(core.removed_since_rebuild, !filter);
            core.rebuild();
            assert!(!core.removed_since_rebuild);
            // The coverer's cancellation touches the summary.
            core.unsubscribe(broad);
            assert!(core.removed_since_rebuild);
            core.rebuild();
            assert!(!core.removed_since_rebuild);
            assert_eq!(core.own().digest(), core.rebuilt().digest());
        }
    }

    #[test]
    fn restore_is_digest_faithful() {
        let mut core = core(100);
        for k in 0..6 {
            core.subscribe(&price_lt(f64::from(k))).unwrap();
        }
        let live = core.own().digest();
        let cp = core.checkpoint();
        assert!(cp.subs.windows(2).all(|w| w[0].0 < w[1].0), "id-sorted");

        core.restore(None);
        assert!(core.exact().is_empty() && core.own().is_empty());
        assert_eq!(core.next_local(), 0);

        core.restore(Some(cp.clone()));
        assert_eq!(core.own().digest(), live);
        assert_eq!(core.checkpoint(), cp);
    }
}
