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
//! the neighbour-view protocol step ([`BrokerCore::on_peer`]: the digest
//! gate, the answer to a pull, view replacement from wire bytes), and
//! tier-2 verification. DESIGN.md §16 lists what each host adds.

use std::collections::{BTreeMap, HashMap};

use subsum_core::{ArithWidth, BrokerSummary, MatchScratch, SummaryCodec, SummaryDigest};
use subsum_net::NodeId;
use subsum_telemetry::Stage;
use subsum_types::{
    BrokerId, Event, IdLayout, LocalSubId, Schema, Subscription, SubscriptionId, TypeError,
};

use crate::snapshot::BrokerCheckpoint;

static STAGE_SUBSCRIBE: Stage = Stage::new(subsum_telemetry::names::BROKER_SUBSCRIBE);

/// One message of the neighbour-view protocol (DESIGN.md §10), the same
/// whether a simulator or a socket carried it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerMsg {
    /// The sender's whole own summary as [`SummaryCodec`] wire bytes. A
    /// view *replacement*, so a duplicate is a no-op.
    Summary(Vec<u8>),
    /// The digest of the sender's own summary.
    Digest(SummaryDigest),
    /// A request for the receiver's own summary.
    Pull,
}

/// The state machine of one broker. See the [module docs](self).
#[derive(Debug)]
pub struct BrokerCore {
    id: NodeId,
    schema: Schema,
    /// Wire codec of neighbour summaries; its layout bounds the ids this
    /// broker mints.
    codec: SummaryCodec,
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
    /// Last received summary of each neighbour.
    views: BTreeMap<NodeId, BrokerSummary>,
    /// Matcher scratch reused across every event this broker examines.
    scratch: MatchScratch,
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
            codec: SummaryCodec::new(layout, ArithWidth::Eight),
            next_local: 0,
            exact: BTreeMap::new(),
            subsumption_filter: false,
            shadows: HashMap::new(),
            shadowed_by: HashMap::new(),
            views: BTreeMap::new(),
            scratch: MatchScratch::new(),
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

    /// The last summary received from neighbour `peer`, if any.
    pub fn view(&self, peer: NodeId) -> Option<&BrokerSummary> {
        self.views.get(&peer)
    }

    /// Enables or disables the §6 subsumption filter for subscriptions
    /// admitted after the call.
    pub fn set_subsumption_filter(&mut self, on: bool) {
        self.subsumption_filter = on;
    }

    /// Whether the §6 subsumption filter is active.
    pub fn subsumption_filter(&self) -> bool {
        self.subsumption_filter
    }

    /// The number of subscriptions currently shadowed.
    pub fn shadowed_count(&self) -> usize {
        self.shadowed_by.len()
    }

    /// Iterates over `(covered, coverer)` shadow edges.
    pub fn shadow_edges(&self) -> impl Iterator<Item = (SubscriptionId, SubscriptionId)> + '_ {
        self.shadowed_by
            .iter()
            .map(|(covered, coverer)| (*covered, *coverer))
    }

    /// Admits a subscription: mints its id, stores it exactly and — unless
    /// the §6 filter shadows it under a resident coverer — dissolves it
    /// into the own summary.
    ///
    /// # Errors
    ///
    /// [`TypeError::IdOverflow`] once the layout's local id space is
    /// exhausted; nothing is stored.
    pub fn subscribe(&mut self, sub: &Subscription) -> Result<SubscriptionId, TypeError> {
        let _span = STAGE_SUBSCRIBE.start();
        let local = self.next_local;
        let local_bits = self.codec.layout().local_bits();
        if u64::from(local) >= (1u64 << local_bits) {
            return Err(TypeError::IdOverflow {
                component: "c2",
                value: u64::from(local),
                bits: local_bits,
            });
        }
        self.next_local += 1;
        let id = SubscriptionId::new(BrokerId(self.id), LocalSubId(local), sub.attr_mask());
        if self.subsumption_filter {
            self.shadow_or_summarize(id, sub, None);
        } else {
            self.own.insert_with_id(id, sub);
        }
        self.exact.insert(id, sub.clone());
        Ok(id)
    }

    /// Shadows `id` under the lowest-id resident (non-shadowed)
    /// subscription other than `exclude` that covers `sub`, or inserts
    /// it into the own summary when there is none.
    fn shadow_or_summarize(
        &mut self,
        id: SubscriptionId,
        sub: &Subscription,
        exclude: Option<SubscriptionId>,
    ) {
        let coverer = self
            .exact
            .iter()
            .filter(|(c, _)| Some(**c) != exclude && !self.shadowed_by.contains_key(c))
            .find(|(_, resident)| resident.covers(sub))
            .map(|(c, _)| *c);
        match coverer {
            Some(coverer) => {
                self.shadows.entry(coverer).or_default().push(id);
                self.shadowed_by.insert(id, coverer);
            }
            None => self.own.insert_with_id(id, sub),
        }
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
        // Orphaned shadows re-enter the summary (possibly under a
        // different resident coverer).
        for orphan in self.shadows.remove(&id).unwrap_or_default() {
            self.shadowed_by.remove(&orphan);
            if let Some(sub) = self.exact.get(&orphan).cloned() {
                self.shadow_or_summarize(orphan, &sub, Some(orphan));
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
    /// The own summary is rebuilt; views and shadow maps are gone.
    pub fn restore(&mut self, checkpoint: Option<BrokerCheckpoint>) {
        let cp = checkpoint.unwrap_or_default();
        self.restore_durable(cp.next_local, cp.subs, HashMap::new());
    }

    /// [`BrokerCore::restore`] plus a system snapshot's §6 shadow edges.
    pub(crate) fn restore_durable(
        &mut self,
        next_local: u32,
        subs: Vec<(SubscriptionId, Subscription)>,
        shadowed_by: HashMap<SubscriptionId, SubscriptionId>,
    ) {
        self.next_local = next_local;
        self.exact = subs.into_iter().collect();
        self.shadows.clear();
        for (covered, coverer) in &shadowed_by {
            self.shadows.entry(*coverer).or_default().push(*covered);
        }
        for list in self.shadows.values_mut() {
            list.sort();
        }
        self.shadowed_by = shadowed_by;
        self.views.clear();
        self.rebuild();
    }

    /// A fresh summary of the exact store in canonical (ascending-id)
    /// order, shadowed subscriptions left out.
    pub fn rebuilt(&self) -> BrokerSummary {
        self.summarize(self.exact.iter().map(|(id, sub)| (*id, sub)))
    }

    /// Sheds the generalisations removals left in the own summary (§3
    /// maintenance at a period boundary).
    pub fn rebuild(&mut self) {
        self.own = self.rebuilt();
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
        self.codec = SummaryCodec::new(layout, ArithWidth::Eight);
        self.rebuild();
    }

    /// The own summary as the [`PeerMsg::Summary`] a host ships
    /// unasked (the initial wave, an eager push, a naive repair round)
    /// and as the answer to a pull.
    ///
    /// # Errors
    ///
    /// A [`TypeError`] if the summary does not fit the wire layout.
    pub fn announce(&self) -> Result<PeerMsg, TypeError> {
        Ok(PeerMsg::Summary(self.codec.encode(&self.own)?))
    }

    /// One step of the neighbour-view protocol: applies `msg` from
    /// neighbour `from` and returns the reply to send back, if any.
    ///
    /// * a digest is answered by [`PeerMsg::Pull`] iff
    ///   [`BrokerCore::view_is_stale`];
    /// * a pull is answered by [`BrokerCore::announce`] (nothing, if the
    ///   own summary does not fit the wire layout);
    /// * a summary that decodes against this broker's schema replaces
    ///   the view of `from`; one that does not leaves the view as it was.
    pub fn on_peer(&mut self, from: NodeId, msg: PeerMsg) -> Option<PeerMsg> {
        match msg {
            PeerMsg::Digest(advertised) => self
                .view_is_stale(from, advertised)
                .then_some(PeerMsg::Pull),
            PeerMsg::Pull => self.announce().ok(),
            PeerMsg::Summary(bytes) => {
                if let Ok(summary) = self.codec.decode(&bytes, &self.schema) {
                    self.views.insert(from, summary);
                }
                None
            }
        }
    }

    /// The digest gate of anti-entropy: whether a pull is due because
    /// the stored view of `peer` disagrees with its advertised digest.
    /// Holding no view is always stale — absent is not empty.
    pub fn view_is_stale(&self, peer: NodeId, advertised: SummaryDigest) -> bool {
        self.views.get(&peer).map(BrokerSummary::digest) != Some(advertised)
    }

    /// Neighbours whose view holds a candidate for `event`.
    pub fn interested_neighbours(&mut self, event: &Event) -> Vec<NodeId> {
        let scratch = &mut self.scratch;
        self.views
            .iter()
            .filter(|(_, view)| !view.match_event_into(event, scratch).matched.is_empty())
            .map(|(&peer, _)| peer)
            .collect()
    }

    /// Both tiers at the owner: matches `event` against the own summary
    /// and calls `deliver` for every subscription [`BrokerCore::verify`]
    /// confirms.
    pub fn match_local(&mut self, event: &Event, mut deliver: impl FnMut(SubscriptionId)) {
        let matched = &self.own.match_event_into(event, &mut self.scratch).matched;
        for &candidate in matched {
            verify_against(&self.exact, &self.shadows, event, candidate, &mut deliver);
        }
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
        verify_against(&self.exact, &self.shadows, event, candidate, &mut deliver)
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

/// [`BrokerCore::verify`] over fields, usable while the scratch is lent.
fn verify_against(
    exact: &BTreeMap<SubscriptionId, Subscription>,
    shadows: &HashMap<SubscriptionId, Vec<SubscriptionId>>,
    event: &Event,
    candidate: SubscriptionId,
    deliver: &mut impl FnMut(SubscriptionId),
) -> bool {
    let matches = |id: &SubscriptionId| exact.get(id).is_some_and(|sub| sub.matches(event));
    let confirmed = matches(&candidate);
    if confirmed {
        deliver(candidate);
    }
    // §6 extension: a candidate coverer stands in for its shadowed
    // subscriptions; verify them too.
    if let Some(shadowed) = shadows.get(&candidate) {
        for id in shadowed.iter().filter(|id| matches(id)) {
            deliver(*id);
        }
    }
    confirmed
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

    /// `summary` as broker `core(_)`'s neighbours put it on the wire.
    fn wire(summary: &BrokerSummary) -> PeerMsg {
        let layout = IdLayout::new(4, 100, stock_schema().len() as u32).unwrap();
        let codec = SummaryCodec::new(layout, ArithWidth::Eight);
        PeerMsg::Summary(codec.encode(summary).unwrap())
    }

    fn price_event(price: f64) -> Event {
        Event::builder(&stock_schema())
            .num("price", price)
            .unwrap()
            .build()
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
        let mut delivered = Vec::new();
        core.match_local(&event, |id| delivered.push(id));
        assert_eq!(delivered, vec![id_prefix]);
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

        let mut delivered = Vec::new();
        core.match_local(&price_event(5.0), |id| delivered.push(id));
        assert_eq!(delivered, vec![broad, narrow]);
        delivered.clear();
        core.match_local(&price_event(50.0), |id| delivered.push(id));
        assert_eq!(delivered, vec![broad]);

        assert!(core.unsubscribe(broad));
        assert_eq!(core.shadowed_count(), 0);
        assert_eq!(core.own().subscription_ids(), vec![narrow]);
    }

    #[test]
    fn restore_is_digest_faithful_and_forgets_views() {
        let mut core = core(100);
        for k in 0..6 {
            core.subscribe(&price_lt(f64::from(k))).unwrap();
        }
        let live = core.own().digest();
        core.on_peer(2, wire(&BrokerSummary::new(stock_schema())));
        assert!(core.view(2).is_some());
        let cp = core.checkpoint();
        assert!(cp.subs.windows(2).all(|w| w[0].0 < w[1].0), "id-sorted");

        core.restore(None);
        assert!(core.exact().is_empty() && core.own().is_empty());
        assert_eq!(core.next_local(), 0);

        core.restore(Some(cp.clone()));
        assert_eq!(core.own().digest(), live);
        assert_eq!(core.checkpoint(), cp);
        assert!(core.view(2).is_none());
    }

    #[test]
    fn an_absent_view_is_stale_even_against_the_empty_digest() {
        let mut core = core(100);
        let empty = BrokerSummary::new(stock_schema());
        assert!(core.view_is_stale(2, empty.digest()));
        core.on_peer(2, wire(&empty));
        assert!(!core.view_is_stale(2, empty.digest()));

        let mut other = empty;
        other.insert(BrokerId(2), LocalSubId(0), &price_lt(3.0));
        assert!(core.view_is_stale(2, other.digest()));
        core.on_peer(2, wire(&other));
        assert_eq!(core.interested_neighbours(&price_event(1.0)), vec![2]);
        assert!(core.interested_neighbours(&price_event(7.0)).is_empty());
    }

    #[test]
    fn on_peer_decision_table() {
        let mut core = core(100);
        core.subscribe(&price_lt(5.0)).unwrap();
        let empty = BrokerSummary::new(stock_schema());
        let mut theirs = empty.clone();
        theirs.insert(BrokerId(2), LocalSubId(0), &price_lt(3.0));
        let digest = |s: &BrokerSummary| PeerMsg::Digest(s.digest());

        // Digest: pull iff the stored view disagrees; absent is not empty.
        assert_eq!(core.on_peer(2, digest(&empty)), Some(PeerMsg::Pull));
        assert_eq!(core.on_peer(2, wire(&theirs)), None);
        assert_eq!(core.view(2), Some(&theirs));
        assert_eq!(core.on_peer(2, digest(&theirs)), None);
        assert_eq!(core.on_peer(2, digest(&empty)), Some(PeerMsg::Pull));
        assert_eq!(core.on_peer(3, digest(&theirs)), Some(PeerMsg::Pull));

        // Summary: a duplicate changes nothing; bytes that do not decode
        // (truncated, corrupt, empty) leave the view as it was.
        assert_eq!(core.on_peer(2, wire(&theirs)), None);
        assert_eq!(core.view(2), Some(&theirs));
        let PeerMsg::Summary(good) = wire(&empty) else {
            unreachable!()
        };
        let mut corrupt = good.clone();
        corrupt[0] ^= 0xFF;
        for bad in [good[..good.len() - 1].to_vec(), corrupt, Vec::new()] {
            assert_eq!(core.on_peer(2, PeerMsg::Summary(bad)), None);
            assert_eq!(core.view(2), Some(&theirs));
        }
        assert!(core.view(3).is_none());

        // Pull: the own summary, decodable by the peer's codec.
        let reply = core.on_peer(2, PeerMsg::Pull).unwrap();
        assert_eq!(reply, core.announce().unwrap());
        let mut peer = self::core(100);
        peer.on_peer(1, reply);
        assert_eq!(peer.view(1), Some(core.own()));
    }

    #[test]
    fn a_pull_on_a_summary_outside_the_wire_layout_gets_no_reply() {
        // A checkpoint written under a wider layout: local number 7 does
        // not fit the two local ids this layout has bits for.
        let schema = stock_schema();
        let sub = price_lt(1.0);
        let id = SubscriptionId::new(BrokerId(1), LocalSubId(7), sub.attr_mask());
        let cp = BrokerCheckpoint {
            next_local: 8,
            subs: vec![(id, sub)],
        };
        let layout = IdLayout::new(4, 2, schema.len() as u32).unwrap();
        let mut core = BrokerCore::new(1, schema, layout, Some(cp));
        assert_eq!(core.own().subscription_ids(), vec![id]);
        assert!(core.announce().is_err());
        assert_eq!(core.on_peer(2, PeerMsg::Pull), None);
    }
}
