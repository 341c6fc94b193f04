//! End-to-end summary-centric pub/sub system: subscription management,
//! periodic summary propagation and two-tier event delivery.
//!
//! [`SummaryPubSub`] composes the pieces of the paper into the system a
//! user would deploy:
//!
//! * brokers accept subscriptions ([`SummaryPubSub::subscribe`]) into an
//!   exact local store and the broker's own summary;
//! * a propagation phase ([`SummaryPubSub::propagate`]) runs Algorithm 2,
//!   installing multi-broker summaries at every broker;
//! * publishing ([`SummaryPubSub::publish`]) runs Algorithm 3 and then
//!   performs the home-broker verification: candidate matches reported to
//!   an owner are re-checked against the owner's exact subscriptions, so
//!   consumers only ever see true matches despite SACS generalization.

use std::collections::HashMap;
use std::sync::Arc;

use subsum_core::{
    ArithWidth, BrokerSummary, MatchScratch, SizeParams, SummaryCodec, SummaryStats,
};
use subsum_net::{NetMetrics, NodeId, Topology};
use subsum_telemetry::trace::{SpanKind, TraceCtx, Tracer};
use subsum_telemetry::{Count, Stage};
use subsum_types::{Event, IdLayout, LocalSubId, Schema, Subscription, SubscriptionId, TypeError};

use crate::propagation::{propagate, MergedSummary, PropagationOutcome};
use crate::routing::{
    route_event_traced, route_event_with_scratch, RoutingOptions, RoutingOutcome,
};

/// Telemetry stages and counters of the end-to-end engine. Publishing is
/// split into its pipeline stages — Algorithm 3 routing
/// (`publish.route`, which itself spans `publish.candidate_match` per
/// examined broker) and tier-2 owner verification
/// (`publish.owner_verify`) — so a run report can answer where a
/// publish's time goes.
static STAGE_SUBSCRIBE: Stage = Stage::new(subsum_telemetry::names::BROKER_SUBSCRIBE);
static STAGE_PROPAGATE: Stage = Stage::new(subsum_telemetry::names::BROKER_PROPAGATE);
static STAGE_ROUTE: Stage = Stage::new(subsum_telemetry::names::PUBLISH_ROUTE);
static STAGE_OWNER_VERIFY: Stage = Stage::new(subsum_telemetry::names::PUBLISH_OWNER_VERIFY);
static CNT_EVENTS: Count = Count::new(subsum_telemetry::names::PUBLISH_EVENTS);
static CNT_CANDIDATES: Count = Count::new(subsum_telemetry::names::PUBLISH_CANDIDATES);
static CNT_DELIVERIES: Count = Count::new(subsum_telemetry::names::PUBLISH_DELIVERIES);
static CNT_FALSE_POSITIVES: Count = Count::new(subsum_telemetry::names::PUBLISH_FALSE_POSITIVES);

/// A confirmed delivery: the event matched this subscription exactly and
/// its owner broker was notified.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The matched subscription.
    pub id: SubscriptionId,
    /// The broker that owns (and verified) the subscription.
    pub owner: NodeId,
}

/// The outcome of publishing one event.
#[derive(Debug, Clone, Default)]
pub struct PublishOutcome {
    /// Confirmed deliveries after home-broker verification.
    pub deliveries: Vec<Delivery>,
    /// Candidates rejected by verification (SACS false positives).
    pub false_positives: Vec<SubscriptionId>,
    /// The raw routing trace (visits, hops, metrics).
    pub routing: RoutingOutcome,
}

impl PublishOutcome {
    /// The fraction of verified candidates that tier-2 verification
    /// rejected: `false_positives / (deliveries + false_positives)`,
    /// or 0.0 when the event produced no candidates at all.
    ///
    /// This is the cost SACS generalization imposes on the owner brokers
    /// (each rejected candidate burned one verification); shadow-expanded
    /// deliveries of the §6 subsumption filter count toward the
    /// denominator because their coverer was a verified candidate.
    pub fn false_positive_rate(&self) -> f64 {
        let rejected = self.false_positives.len();
        let total = self.deliveries.len() + rejected;
        if total == 0 {
            0.0
        } else {
            rejected as f64 / total as f64
        }
    }
}

/// A complete summary-centric pub/sub deployment over a broker overlay.
///
/// # Example
///
/// ```
/// use subsum_broker::SummaryPubSub;
/// use subsum_net::Topology;
/// use subsum_types::{stock_schema, Subscription, Event, StrOp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut system = SummaryPubSub::new(Topology::fig7_tree(), stock_schema(), 1000)?;
/// let schema = system.schema().clone();
///
/// let sub = Subscription::builder(&schema)
///     .str_op("symbol", StrOp::Prefix, "OT")?
///     .build()?;
/// let id = system.subscribe(3, &sub)?;
/// system.propagate()?;
///
/// let event = Event::builder(&schema).str("symbol", "OTE")?.build();
/// let out = system.publish(0, &event);
/// assert_eq!(out.deliveries.len(), 1);
/// assert_eq!(out.deliveries[0].id, id);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SummaryPubSub {
    topology: Topology,
    schema: Schema,
    codec: SummaryCodec,
    routing: RoutingOptions,
    /// Exact per-broker subscription stores (tier 2).
    exact: Vec<HashMap<SubscriptionId, Subscription>>,
    /// Per-broker own summaries (tier 1, pre-propagation).
    own: Vec<BrokerSummary>,
    /// Next local subscription number per broker.
    next_local: Vec<u32>,
    /// The capacity this system was sized for (snapshot metadata).
    max_subs: u64,
    /// §6 extension: combine summarization with subsumption. When on,
    /// a new subscription covered by a resident one is *shadowed*: kept
    /// out of the propagated summary and expanded at delivery time.
    subsumption_filter: bool,
    /// Per broker: coverer id → ids of the subscriptions it shadows.
    shadows: Vec<HashMap<SubscriptionId, Vec<SubscriptionId>>>,
    /// Per broker: shadowed id → its coverer.
    shadowed_by: Vec<HashMap<SubscriptionId, SubscriptionId>>,
    /// Subscriptions accepted since the last propagation, per broker —
    /// the σ-batch an incremental period ships.
    pending: Vec<Vec<(SubscriptionId, Subscription)>>,
    /// The most recent propagation phase (its `stored` summaries are
    /// the ones events route over).
    last_propagation: Option<PropagationOutcome>,
    /// Metrics of the propagation phases run so far.
    propagation_metrics: NetMetrics,
    /// Optional causal tracer: publishes record route/match spans along
    /// the Algorithm 3 path and owner-verify/deliver/drop spans at the
    /// owners. `None` keeps every hook a no-op.
    tracer: Option<Arc<Tracer>>,
}

impl SummaryPubSub {
    /// Creates a system over `topology` and `schema`, sizing subscription
    /// ids for at most `max_subs_per_broker` outstanding subscriptions.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::TooManyAttributes`] if the schema exceeds the
    /// id mask width.
    pub fn new(
        topology: Topology,
        schema: Schema,
        max_subs_per_broker: u64,
    ) -> Result<Self, TypeError> {
        let layout = IdLayout::new(
            topology.len() as u64,
            max_subs_per_broker,
            schema.len() as u32,
        )?;
        let n = topology.len();
        Ok(SummaryPubSub {
            topology,
            codec: SummaryCodec::new(layout, ArithWidth::Four),
            routing: RoutingOptions::new(),
            exact: vec![HashMap::new(); n],
            own: (0..n).map(|_| BrokerSummary::new(schema.clone())).collect(),
            next_local: vec![0; n],
            max_subs: max_subs_per_broker,
            pending: vec![Vec::new(); n],
            subsumption_filter: false,
            shadows: vec![HashMap::new(); n],
            shadowed_by: vec![HashMap::new(); n],
            last_propagation: None,
            propagation_metrics: NetMetrics::new(n),
            tracer: None,
            schema,
        })
    }

    /// Attaches a causal tracer: every subsequent publish gets its own
    /// trace (subject to the tracer's sampling knob) spanning routing,
    /// matching and owner verification. Publish outcomes are identical
    /// with or without a tracer.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = Some(tracer);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// The shared attribute schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The broker overlay.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The wire codec in force (id layout and arithmetic width).
    pub fn codec(&self) -> &SummaryCodec {
        &self.codec
    }

    /// Replaces the routing options (e.g. to enable virtual degrees).
    pub fn set_routing_options(&mut self, options: RoutingOptions) {
        self.routing = options;
    }

    /// Enables or disables the §6 extension that combines summarization
    /// with subsumption: a subscription covered by a resident one at the
    /// same broker is *shadowed* — it receives an id and exact-store
    /// entry but is not dissolved into the propagated summary. When an
    /// event makes the coverer a candidate, the owner also verifies the
    /// shadowed subscriptions under it, so no deliveries are lost
    /// (coverage implies every event matching the shadowed subscription
    /// matches its coverer).
    ///
    /// Affects subscriptions registered after the call.
    pub fn set_subsumption_filter(&mut self, on: bool) {
        self.subsumption_filter = on;
    }

    /// The number of subscriptions currently shadowed at `broker`.
    pub fn shadowed_count(&self, broker: NodeId) -> usize {
        self.shadowed_by[broker as usize].len()
    }

    /// Whether the §6 subsumption filter is active.
    pub fn subsumption_filter_enabled(&self) -> bool {
        self.subsumption_filter
    }

    /// The per-broker subscription capacity this system was created with.
    pub fn max_subs_per_broker(&self) -> u64 {
        self.max_subs
    }

    /// The next local subscription number `broker` will assign.
    pub fn next_local_at(&self, broker: NodeId) -> u32 {
        self.next_local[broker as usize]
    }

    /// Read access to a broker's exact subscription store.
    pub fn exact_store(&self, broker: NodeId) -> &HashMap<SubscriptionId, Subscription> {
        &self.exact[broker as usize]
    }

    /// Iterates over `(covered, coverer)` shadow edges at `broker`.
    pub fn shadow_edges(
        &self,
        broker: NodeId,
    ) -> impl Iterator<Item = (SubscriptionId, SubscriptionId)> + '_ {
        self.shadowed_by[broker as usize]
            .iter()
            .map(|(covered, coverer)| (*covered, *coverer))
    }

    /// Restores one broker's durable state from a snapshot: the local id
    /// counter, the exact store and the shadow map. Non-shadowed
    /// subscriptions re-enter the broker's own summary.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` guards future validation.
    pub(crate) fn restore_broker_state(
        &mut self,
        broker: NodeId,
        next_local: u32,
        subs: Vec<(SubscriptionId, Subscription)>,
        shadowed_by: HashMap<SubscriptionId, SubscriptionId>,
    ) -> Result<(), TypeError> {
        let b = broker as usize;
        self.next_local[b] = next_local;
        let mut shadows: HashMap<SubscriptionId, Vec<SubscriptionId>> = HashMap::new();
        for (covered, coverer) in &shadowed_by {
            shadows.entry(*coverer).or_default().push(*covered);
        }
        for list in shadows.values_mut() {
            list.sort();
        }
        for (id, sub) in subs {
            if !shadowed_by.contains_key(&id) {
                self.own[b].insert_with_id(id, &sub);
            }
            self.exact[b].insert(id, sub);
        }
        self.shadows[b] = shadows;
        self.shadowed_by[b] = shadowed_by;
        Ok(())
    }

    /// Installs a changed overlay topology (same broker population).
    /// The paper's deployment setting — ISP backbones — has "slowly
    /// changing" topologies whose nodes "can be informed of the new
    /// changes" (§5.2); this is that notification. Installed multi-broker
    /// summaries are invalidated: run [`SummaryPubSub::propagate`] before
    /// the next publish so Algorithm 2's degree-indexed schedule reflects
    /// the new link structure.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::NotAnExtension`] if the broker count changed
    /// (brokers cannot appear or vanish without re-keying `c1`).
    pub fn set_topology(&mut self, topology: Topology) -> Result<(), TypeError> {
        if topology.len() != self.topology.len() {
            return Err(TypeError::NotAnExtension);
        }
        self.topology = topology;
        self.last_propagation = None;
        Ok(())
    }

    /// Evolves the system to an extended schema — the paper's §6 dynamic
    /// schema support ("basically, this only requires changing the c3
    /// field of subscription ids"). The new schema must append attributes
    /// to the current one, so existing attribute ids, subscriptions and
    /// `c3` masks remain valid; the id layout widens to cover the new
    /// attributes.
    ///
    /// Installed multi-broker summaries are invalidated: run
    /// [`SummaryPubSub::propagate`] before the next publish.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::NotAnExtension`] if `new_schema` is not an
    /// append-only extension, or [`TypeError::TooManyAttributes`] if it
    /// exceeds the id mask width.
    pub fn extend_schema(&mut self, new_schema: Schema) -> Result<(), TypeError> {
        if !new_schema.is_extension_of(&self.schema) {
            return Err(TypeError::NotAnExtension);
        }
        let layout = IdLayout::new(
            self.topology.len() as u64,
            1u64 << self.codec.layout().local_bits(),
            new_schema.len() as u32,
        )?;
        self.codec = SummaryCodec::new(layout, ArithWidth::Four);
        self.schema = new_schema;
        // Re-type every broker's own summary against the new schema so
        // subscriptions over the new attributes can be dissolved; stored
        // multi-broker summaries must be rebuilt by the next propagation.
        for b in 0..self.own.len() {
            self.own[b] = BrokerSummary::rebuild(
                self.schema.clone(),
                self.exact[b]
                    .iter()
                    .filter(|(id, _)| !self.shadowed_by[b].contains_key(id))
                    .map(|(id, sub)| (*id, sub)),
            );
        }
        self.last_propagation = None;
        Ok(())
    }

    /// Registers a subscription at `broker`, returning its system-wide id.
    ///
    /// The subscription enters the broker's exact store and its own
    /// summary immediately; other brokers learn of it at the next
    /// [`SummaryPubSub::propagate`].
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::IdOverflow`] if the broker exhausted its
    /// local id space.
    ///
    /// # Panics
    ///
    /// Panics if `broker` is out of range.
    pub fn subscribe(
        &mut self,
        broker: NodeId,
        sub: &Subscription,
    ) -> Result<SubscriptionId, TypeError> {
        let _span = STAGE_SUBSCRIBE.start();
        let b = broker as usize;
        let local = self.next_local[b];
        if u64::from(local) >= (1u64 << self.codec.layout().local_bits()) {
            return Err(TypeError::IdOverflow {
                component: "c2",
                value: u64::from(local),
                bits: self.codec.layout().local_bits(),
            });
        }
        self.next_local[b] += 1;
        let id = SubscriptionId::new(
            subsum_types::BrokerId(broker),
            LocalSubId(local),
            sub.attr_mask(),
        );
        if self.subsumption_filter {
            if let Some(coverer) = self.find_resident_coverer(b, sub, None) {
                self.shadows[b].entry(coverer).or_default().push(id);
                self.shadowed_by[b].insert(id, coverer);
                self.exact[b].insert(id, sub.clone());
                return Ok(id);
            }
        }
        self.own[b].insert_with_id(id, sub);
        self.exact[b].insert(id, sub.clone());
        self.pending[b].push((id, sub.clone()));
        Ok(id)
    }

    /// Finds a resident (non-shadowed) subscription at broker `b`, other
    /// than `exclude`, that covers `sub`; lowest id wins for determinism.
    fn find_resident_coverer(
        &self,
        b: usize,
        sub: &Subscription,
        exclude: Option<SubscriptionId>,
    ) -> Option<SubscriptionId> {
        let mut ids: Vec<&SubscriptionId> = self.exact[b]
            .keys()
            .filter(|id| Some(**id) != exclude && !self.shadowed_by[b].contains_key(id))
            .collect();
        ids.sort();
        ids.into_iter()
            .find(|id| self.exact[b][id].covers(sub))
            .copied()
    }

    /// Cancels a subscription at its owner broker.
    ///
    /// Returns `true` if the subscription existed. Remote merged
    /// summaries keep the id until the next propagation rebuild — over-
    /// approximation, handled by tier-2 verification as usual.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let b = id.broker.index();
        if self.exact[b].remove(&id).is_none() {
            return false;
        }
        if let Some(coverer) = self.shadowed_by[b].remove(&id) {
            // A shadowed subscription never entered the summary.
            if let Some(list) = self.shadows[b].get_mut(&coverer) {
                list.retain(|&x| x != id);
            }
            return true;
        }
        self.own[b].remove(id);
        // Orphaned shadows must re-enter the summary (possibly under a
        // different resident coverer).
        if let Some(orphans) = self.shadows[b].remove(&id) {
            for orphan in orphans {
                self.shadowed_by[b].remove(&orphan);
                let sub = self.exact[b][&orphan].clone();
                if let Some(coverer) = self.find_resident_coverer(b, &sub, Some(orphan)) {
                    self.shadows[b].entry(coverer).or_default().push(orphan);
                    self.shadowed_by[b].insert(orphan, coverer);
                } else {
                    self.own[b].insert_with_id(orphan, &sub);
                }
            }
        }
        true
    }

    /// Runs the subscription propagation phase (Algorithm 2) from the
    /// current own summaries, installing fresh multi-broker summaries.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::IdOverflow`] if an id exceeds the codec's
    /// layout.
    pub fn propagate(&mut self) -> Result<&PropagationOutcome, TypeError> {
        let _span = STAGE_PROPAGATE.start();
        // Rebuild own summaries from the exact stores so unsubscriptions
        // shed their generalizations at each period boundary. Shadowed
        // subscriptions stay out of the summaries (§6 extension).
        for b in 0..self.own.len() {
            self.own[b] = BrokerSummary::rebuild(
                self.schema.clone(),
                self.exact[b]
                    .iter()
                    .filter(|(id, _)| !self.shadowed_by[b].contains_key(id))
                    .map(|(id, sub)| (*id, sub)),
            );
        }
        let outcome = propagate(&self.topology, &self.own, &self.codec)?;
        self.propagation_metrics.merge(&outcome.metrics);
        self.last_propagation = Some(outcome);
        for p in &mut self.pending {
            p.clear();
        }
        Ok(self.last_propagation.as_ref().expect("just set"))
    }

    /// Runs an *incremental* propagation period: only the subscriptions
    /// accepted since the last propagation travel, as delta summaries,
    /// over the same Algorithm 2 schedule; receivers merge the deltas
    /// into their stored multi-broker summaries.
    ///
    /// Per-period bandwidth is proportional to the new batch (σ) instead
    /// of the outstanding population (S). Unsubscriptions do not shrink
    /// remote state until the next full [`SummaryPubSub::propagate`]
    /// (tier-2 verification keeps them silent in the interim).
    ///
    /// Falls back to a full propagation if none has run yet.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::IdOverflow`] if an id exceeds the codec's
    /// layout.
    pub fn propagate_incremental(&mut self) -> Result<PropagationOutcome, TypeError> {
        if self.last_propagation.is_none() {
            return self.propagate().cloned();
        }
        let _span = STAGE_PROPAGATE.start();
        // Delta summaries: only pending (and still-live, non-shadowed)
        // subscriptions.
        let deltas: Vec<BrokerSummary> = (0..self.own.len())
            .map(|b| {
                BrokerSummary::rebuild(
                    self.schema.clone(),
                    self.pending[b]
                        .iter()
                        .filter(|(id, _)| {
                            self.exact[b].contains_key(id) && !self.shadowed_by[b].contains_key(id)
                        })
                        .map(|(id, sub)| (*id, sub)),
                )
            })
            .collect();
        let outcome = propagate(&self.topology, &deltas, &self.codec)?;
        self.propagation_metrics.merge(&outcome.metrics);
        for p in &mut self.pending {
            p.clear();
        }
        let current = self.last_propagation.as_mut().expect("checked above");
        for (stored, delta) in current.stored.iter_mut().zip(&outcome.stored) {
            stored.summary.merge(&delta.summary);
            stored
                .merged_brokers
                .extend(delta.merged_brokers.iter().copied());
        }
        // The returned outcome reports this period's (delta) traffic.
        Ok(outcome)
    }

    /// Publishes an event at `broker`: routes it with Algorithm 3 over
    /// the installed summaries, then verifies candidates at their owners.
    ///
    /// # Panics
    ///
    /// Panics if called before any [`SummaryPubSub::propagate`], or if
    /// `broker` is out of range.
    pub fn publish(&self, broker: NodeId, event: &Event) -> PublishOutcome {
        let mut scratch = MatchScratch::new();
        self.publish_with_scratch(broker, event, &mut scratch)
    }

    /// As [`SummaryPubSub::publish`], matching through a caller-owned
    /// [`MatchScratch`]. Publishing takes `&self`, so each worker thread
    /// of [`SummaryPubSub::publish_batch`] holds its own scratch, and the
    /// scratch's epoch-stamped counter arrays are safely reused across
    /// the different per-hop summaries of one route (see
    /// [`route_event_with_scratch`]).
    pub fn publish_with_scratch(
        &self,
        broker: NodeId,
        event: &Event,
        scratch: &mut MatchScratch,
    ) -> PublishOutcome {
        CNT_EVENTS.inc();
        assert!(
            self.last_propagation.is_some(),
            "publish requires a completed propagation phase"
        );
        let Some(prop) = self.last_propagation.as_ref() else {
            return PublishOutcome::default();
        };
        let stored = &prop.stored;
        let event_bytes = event.wire_size(&self.schema, 4);
        // Each publish is its own causal root (whether it records spans
        // is the tracer's sampling decision).
        let ctx = self
            .tracer
            .as_ref()
            .map(|t| t.new_root())
            .unwrap_or(TraceCtx::NONE);
        let route_span = STAGE_ROUTE.start();
        let routing = match &self.tracer {
            Some(tracer) => route_event_traced(
                &self.topology,
                stored,
                broker,
                event,
                event_bytes,
                &self.routing,
                scratch,
                tracer,
                ctx,
            ),
            None => route_event_with_scratch(
                &self.topology,
                stored,
                broker,
                event,
                event_bytes,
                &self.routing,
                scratch,
            ),
        };
        route_span.finish();
        self.verify_candidates(event, ctx, routing)
    }

    /// Tier-2 owner verification: re-checks every candidate against its
    /// owner's exact store (plus §6 shadow expansion) and records the
    /// owner-side spans.
    fn verify_candidates(
        &self,
        event: &Event,
        ctx: TraceCtx,
        routing: RoutingOutcome,
    ) -> PublishOutcome {
        CNT_CANDIDATES.add(routing.notifications.len() as u64);
        let verify_span = STAGE_OWNER_VERIFY.start();
        // Owner-side spans: verification at the logical arrival tick,
        // then a deliver (confirmed) or drop (SACS false positive) leaf.
        let rec = |parent: u32, owner: NodeId, kind: SpanKind, at: u64| -> u32 {
            match &self.tracer {
                Some(t) => t.record(ctx.trace, parent, owner, kind, at),
                None => 0,
            }
        };
        let mut deliveries = Vec::new();
        let mut false_positives = Vec::new();
        for n in &routing.notifications {
            let vspan = rec(n.span, n.owner, SpanKind::OwnerVerify, n.eta);
            // Tier-2: the owner re-checks against its exact store. A
            // stale id (unsubscribed since the last propagation) is also
            // rejected here.
            match self.exact[n.owner as usize].get(&n.id) {
                Some(sub) if sub.matches(event) => {
                    rec(vspan, n.owner, SpanKind::Deliver, n.eta);
                    deliveries.push(Delivery {
                        id: n.id,
                        owner: n.owner,
                    });
                }
                _ => {
                    rec(vspan, n.owner, SpanKind::Drop, n.eta);
                    false_positives.push(n.id);
                }
            }
            // §6 extension: a candidate coverer stands in for its
            // shadowed subscriptions; verify them too.
            if let Some(shadowed) = self.shadows[n.owner as usize].get(&n.id) {
                for &sid in shadowed {
                    match self.exact[n.owner as usize].get(&sid) {
                        Some(sub) if sub.matches(event) => {
                            rec(vspan, n.owner, SpanKind::Deliver, n.eta);
                            deliveries.push(Delivery {
                                id: sid,
                                owner: n.owner,
                            });
                        }
                        _ => {}
                    }
                }
            }
        }
        deliveries.sort_by_key(|d| d.id);
        deliveries.dedup();
        verify_span.finish();
        CNT_DELIVERIES.add(deliveries.len() as u64);
        CNT_FALSE_POSITIVES.add(false_positives.len() as u64);
        PublishOutcome {
            deliveries,
            false_positives,
            routing,
        }
    }

    /// Publishes a batch of `(publisher broker, event)` pairs, fanning
    /// the events across worker threads.
    ///
    /// Publishing is a read-only operation over the installed summaries
    /// (`&self`), so events are independent: the batch is split into
    /// contiguous chunks, one scoped `std::thread` per chunk, each worker
    /// reusing one [`MatchScratch`] across its events. Outcomes are
    /// returned in input order, identical to sequential
    /// [`SummaryPubSub::publish`] calls.
    ///
    /// # Panics
    ///
    /// Panics if called before any [`SummaryPubSub::propagate`], or if a
    /// publisher is out of range.
    pub fn publish_batch(&self, events: &[(NodeId, Event)]) -> Vec<PublishOutcome> {
        if events.is_empty() {
            return Vec::new();
        }
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(events.len());
        if threads <= 1 {
            let mut scratch = MatchScratch::new();
            return events
                .iter()
                .map(|(b, e)| self.publish_with_scratch(*b, e, &mut scratch))
                .collect();
        }
        let chunk = events.len().div_ceil(threads);
        let mut results: Vec<Option<PublishOutcome>> = Vec::new();
        results.resize_with(events.len(), || None);
        std::thread::scope(|scope| {
            for (evs, out) in events.chunks(chunk).zip(results.chunks_mut(chunk)) {
                scope.spawn(move || {
                    let mut scratch = MatchScratch::new();
                    for ((b, e), slot) in evs.iter().zip(out.iter_mut()) {
                        *slot = Some(self.publish_with_scratch(*b, e, &mut scratch));
                    }
                });
            }
        });
        let out: Vec<PublishOutcome> = results.into_iter().flatten().collect();
        assert!(
            out.len() == events.len(),
            "every batch slot is filled by its worker"
        );
        out
    }

    /// The exact matches an omniscient oracle would deliver — used by
    /// tests to verify completeness.
    pub fn oracle_matches(&self, event: &Event) -> Vec<SubscriptionId> {
        let mut out: Vec<SubscriptionId> = self
            .exact
            .iter()
            .flat_map(|store| {
                store
                    .iter()
                    .filter(|(_, sub)| sub.matches(event))
                    .map(|(id, _)| *id)
            })
            .collect();
        out.sort();
        out
    }

    /// Total bytes of summary state stored across all brokers (the
    /// paper's Fig. 11 storage metric for the summary approach), computed
    /// with the analytic size model.
    pub fn summary_storage_bytes(&self) -> usize {
        let params = SizeParams::default();
        match &self.last_propagation {
            Some(outcome) => outcome
                .stored
                .iter()
                .map(|m| SummaryStats::of(&m.summary).total_size(params))
                .sum(),
            None => self
                .own
                .iter()
                .map(|s| SummaryStats::of(s).total_size(params))
                .sum(),
        }
    }

    /// Accumulated propagation traffic across all phases.
    pub fn propagation_metrics(&self) -> &NetMetrics {
        &self.propagation_metrics
    }

    /// The installed multi-broker summaries, if propagation has run.
    pub fn stored_summaries(&self) -> Option<&[MergedSummary]> {
        self.last_propagation.as_ref().map(|o| o.stored.as_slice())
    }

    /// Number of outstanding subscriptions across all brokers.
    pub fn subscription_count(&self) -> usize {
        self.exact.iter().map(HashMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsum_types::{NumOp, StrOp};

    fn system(topology: Topology) -> SummaryPubSub {
        SummaryPubSub::new(topology, subsum_types::stock_schema(), 1000).unwrap()
    }

    #[test]
    fn subscribe_propagate_publish_delivers() {
        let mut sys = system(Topology::fig7_tree());
        let schema = sys.schema().clone();
        let sub = Subscription::builder(&schema)
            .num("price", NumOp::Gt, 8.30)
            .unwrap()
            .num("price", NumOp::Lt, 8.70)
            .unwrap()
            .build()
            .unwrap();
        let id = sys.subscribe(3, &sub).unwrap();
        sys.propagate().unwrap();
        let event = Event::builder(&schema).num("price", 8.40).unwrap().build();
        let out = sys.publish(0, &event);
        assert_eq!(out.deliveries, vec![Delivery { id, owner: 3 }]);
        assert!(out.false_positives.is_empty());
    }

    #[test]
    fn deliveries_equal_oracle_across_publishers() {
        let mut sys = system(Topology::cable_wireless_24());
        let schema = sys.schema().clone();
        for b in 0..24u16 {
            let sub = Subscription::builder(&schema)
                .num("price", NumOp::Lt, (b % 6) as f64)
                .unwrap()
                .build()
                .unwrap();
            sys.subscribe(b, &sub).unwrap();
        }
        sys.propagate().unwrap();
        let event = Event::builder(&schema).num("price", 2.5).unwrap().build();
        let oracle = sys.oracle_matches(&event);
        assert!(!oracle.is_empty());
        for publisher in [0u16, 5, 11, 23] {
            let out = sys.publish(publisher, &event);
            let mut got: Vec<SubscriptionId> = out.deliveries.iter().map(|d| d.id).collect();
            got.sort();
            assert_eq!(got, oracle, "publisher {publisher}");
        }
    }

    #[test]
    fn publish_outcomes_identical_with_tracing_on_and_off() {
        use subsum_telemetry::trace::SpanKind;
        let mut sys = system(Topology::cable_wireless_24());
        let schema = sys.schema().clone();
        for b in 0..24u16 {
            let sub = Subscription::builder(&schema)
                .num("price", NumOp::Lt, (b % 6) as f64)
                .unwrap()
                .build()
                .unwrap();
            sys.subscribe(b, &sub).unwrap();
        }
        sys.propagate().unwrap();
        let event = Event::builder(&schema).num("price", 2.5).unwrap().build();
        let plain: Vec<_> = (0..24u16).map(|p| sys.publish(p, &event)).collect();

        sys.set_tracer(Arc::new(Tracer::new(24, 8192, 42, 1)));
        for (p, before) in plain.iter().enumerate() {
            let traced = sys.publish(p as NodeId, &event);
            assert_eq!(traced.deliveries, before.deliveries, "publisher {p}");
            assert_eq!(traced.false_positives, before.false_positives);
            assert_eq!(traced.routing.visits, before.routing.visits);
            assert_eq!(traced.routing.metrics, before.routing.metrics);
        }

        let spans = sys.tracer().unwrap().spans();
        let count = |k: SpanKind| spans.iter().filter(|s| s.kind == k).count() as u64;
        let visits: u64 = plain.iter().map(|o| o.routing.visits.len() as u64).sum();
        let deliveries: u64 = plain.iter().map(|o| o.deliveries.len() as u64).sum();
        assert_eq!(count(SpanKind::Route), visits);
        assert_eq!(count(SpanKind::Match), visits);
        assert_eq!(count(SpanKind::Deliver), deliveries);
        assert_eq!(count(SpanKind::Drop), 0, "no false positives here");
    }

    #[test]
    fn publish_batch_matches_sequential_publishes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        let mut workload =
            subsum_workload::Workload::new(subsum_workload::PaperParams::default(), 0.7);
        let schema = workload.schema().clone();
        let mut sys = SummaryPubSub::new(Topology::cable_wireless_24(), schema, 1000).unwrap();
        for b in 0..24u16 {
            for _ in 0..4 {
                let sub = workload.subscription(&mut rng);
                sys.subscribe(b, &sub).unwrap();
            }
        }
        sys.propagate().unwrap();
        let batch: Vec<(NodeId, Event)> = (0..40)
            .map(|_| (rng.gen_range(0..24u16), workload.event(0.7, &mut rng)))
            .collect();
        let batched = sys.publish_batch(&batch);
        assert_eq!(batched.len(), batch.len());
        for ((b, e), out) in batch.iter().zip(&batched) {
            let seq = sys.publish(*b, e);
            assert_eq!(out.deliveries, seq.deliveries);
            assert_eq!(out.false_positives, seq.false_positives);
            assert_eq!(out.routing.visits, seq.routing.visits);
            assert_eq!(out.routing.metrics, seq.routing.metrics);
        }
        assert!(sys.publish_batch(&[]).is_empty());
    }

    #[test]
    fn false_positives_filtered_by_owner() {
        let mut sys = system(Topology::line(3));
        let schema = sys.schema().clone();
        // Two string subscriptions that SACS will generalize under `OT*`.
        let precise = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Eq, "OTE")
            .unwrap()
            .build()
            .unwrap();
        let broad = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Prefix, "OT")
            .unwrap()
            .build()
            .unwrap();
        let id_precise = sys.subscribe(0, &precise).unwrap();
        let id_broad = sys.subscribe(0, &broad).unwrap();
        sys.propagate().unwrap();
        let event = Event::builder(&schema)
            .str("symbol", "OTX")
            .unwrap()
            .build();
        let out = sys.publish(2, &event);
        // Only the broad subscription truly matches OTX.
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.deliveries[0].id, id_broad);
        assert_eq!(out.false_positives, vec![id_precise]);
    }

    #[test]
    fn false_positive_rate_counts_rejected_candidates() {
        let mut sys = system(Topology::line(3));
        let schema = sys.schema().clone();
        let precise = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Eq, "OTE")
            .unwrap()
            .build()
            .unwrap();
        let broad = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Prefix, "OT")
            .unwrap()
            .build()
            .unwrap();
        sys.subscribe(0, &precise).unwrap();
        sys.subscribe(0, &broad).unwrap();
        sys.propagate().unwrap();
        // OTX: the broad subscription delivers, the precise one is a
        // rejected candidate → rate 1/2.
        let event = Event::builder(&schema)
            .str("symbol", "OTX")
            .unwrap()
            .build();
        let out = sys.publish(2, &event);
        assert_eq!(out.false_positive_rate(), 0.5);
        // OTE: both candidates verify → rate 0.
        let event = Event::builder(&schema)
            .str("symbol", "OTE")
            .unwrap()
            .build();
        let out = sys.publish(2, &event);
        assert_eq!(out.deliveries.len(), 2);
        assert_eq!(out.false_positive_rate(), 0.0);
        // No candidates at all → rate 0 (not NaN).
        let event = Event::builder(&schema)
            .str("symbol", "ZZZ")
            .unwrap()
            .build();
        let out = sys.publish(2, &event);
        assert!(out.deliveries.is_empty());
        assert_eq!(out.false_positive_rate(), 0.0);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut sys = system(Topology::line(4));
        let schema = sys.schema().clone();
        let sub = Subscription::builder(&schema)
            .num("volume", NumOp::Gt, 100.0)
            .unwrap()
            .build()
            .unwrap();
        let id = sys.subscribe(1, &sub).unwrap();
        sys.propagate().unwrap();
        let event = Event::builder(&schema).int("volume", 200).unwrap().build();
        assert_eq!(sys.publish(3, &event).deliveries.len(), 1);

        assert!(sys.unsubscribe(id));
        assert!(!sys.unsubscribe(id));
        // Before re-propagation: stale candidate rejected at the owner.
        let out = sys.publish(3, &event);
        assert!(out.deliveries.is_empty());
        assert_eq!(out.false_positives, vec![id]);
        // After re-propagation the candidate disappears entirely.
        sys.propagate().unwrap();
        let out = sys.publish(3, &event);
        assert!(out.deliveries.is_empty());
        assert!(out.false_positives.is_empty());
    }

    #[test]
    fn storage_accounting_positive_after_subscriptions() {
        let mut sys = system(Topology::line(3));
        let schema = sys.schema().clone();
        assert_eq!(sys.summary_storage_bytes(), 0);
        let sub = Subscription::builder(&schema)
            .num("price", NumOp::Gt, 1.0)
            .unwrap()
            .build()
            .unwrap();
        sys.subscribe(0, &sub).unwrap();
        let before = sys.summary_storage_bytes();
        assert!(before > 0);
        sys.propagate().unwrap();
        // Merged copies replicate state: storage grows.
        assert!(sys.summary_storage_bytes() >= before);
    }

    #[test]
    fn subsumption_filter_shadows_covered_subscriptions() {
        let mut sys = system(Topology::line(3));
        sys.set_subsumption_filter(true);
        let schema = sys.schema().clone();
        let broad = Subscription::builder(&schema)
            .num("price", NumOp::Lt, 100.0)
            .unwrap()
            .build()
            .unwrap();
        let narrow = Subscription::builder(&schema)
            .num("price", NumOp::Lt, 10.0)
            .unwrap()
            .build()
            .unwrap();
        let id_broad = sys.subscribe(0, &broad).unwrap();
        let id_narrow = sys.subscribe(0, &narrow).unwrap();
        assert_eq!(sys.shadowed_count(0), 1);
        sys.propagate().unwrap();
        // Only the coverer's id travels in summaries (checked at the hub,
        // which Algorithm 2 made the knowledge point of the line).
        let hub = &sys.stored_summaries().unwrap()[1].summary;
        let hub_ids: Vec<_> = hub
            .subscription_ids()
            .into_iter()
            .filter(|i| i.broker.0 == 0)
            .collect();
        assert_eq!(hub_ids, vec![id_broad]);
        // ...but deliveries still include the shadowed subscription.
        let event = Event::builder(&schema).num("price", 5.0).unwrap().build();
        let out = sys.publish(2, &event);
        let mut got: Vec<_> = out.deliveries.iter().map(|d| d.id).collect();
        got.sort();
        assert_eq!(got, vec![id_broad, id_narrow]);
        // Events matching only the coverer deliver only it.
        let event = Event::builder(&schema).num("price", 50.0).unwrap().build();
        let out = sys.publish(2, &event);
        let got: Vec<_> = out.deliveries.iter().map(|d| d.id).collect();
        assert_eq!(got, vec![id_broad]);
    }

    #[test]
    fn subsumption_filter_saves_bandwidth() {
        let schema = subsum_types::stock_schema();
        let run = |filter: bool| -> u64 {
            let mut sys = SummaryPubSub::new(Topology::line(4), schema.clone(), 1000).unwrap();
            sys.set_subsumption_filter(filter);
            // Many identical subscriptions: heavy covering.
            let sub = Subscription::builder(&schema)
                .num("price", NumOp::Lt, 10.0)
                .unwrap()
                .build()
                .unwrap();
            for b in 0..4u16 {
                for _ in 0..50 {
                    sys.subscribe(b, &sub).unwrap();
                }
            }
            sys.propagate().unwrap();
            sys.propagation_metrics().payload_bytes
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with < without / 5,
            "filtered propagation ({with}) should be far below unfiltered ({without})"
        );
    }

    #[test]
    fn unsubscribing_coverer_promotes_shadows() {
        let mut sys = system(Topology::line(3));
        sys.set_subsumption_filter(true);
        let schema = sys.schema().clone();
        let broad = Subscription::builder(&schema)
            .num("price", NumOp::Lt, 100.0)
            .unwrap()
            .build()
            .unwrap();
        let narrow = Subscription::builder(&schema)
            .num("price", NumOp::Lt, 10.0)
            .unwrap()
            .build()
            .unwrap();
        let id_broad = sys.subscribe(1, &broad).unwrap();
        let id_narrow = sys.subscribe(1, &narrow).unwrap();
        assert!(sys.unsubscribe(id_broad));
        assert_eq!(sys.shadowed_count(1), 0);
        sys.propagate().unwrap();
        let event = Event::builder(&schema).num("price", 5.0).unwrap().build();
        let out = sys.publish(0, &event);
        let got: Vec<_> = out.deliveries.iter().map(|d| d.id).collect();
        assert_eq!(got, vec![id_narrow]);
    }

    #[test]
    fn unsubscribing_shadowed_sub_keeps_coverer() {
        let mut sys = system(Topology::line(2));
        sys.set_subsumption_filter(true);
        let schema = sys.schema().clone();
        let broad = Subscription::builder(&schema)
            .num("volume", NumOp::Gt, 0.0)
            .unwrap()
            .build()
            .unwrap();
        let narrow = Subscription::builder(&schema)
            .num("volume", NumOp::Gt, 100.0)
            .unwrap()
            .build()
            .unwrap();
        let id_broad = sys.subscribe(0, &broad).unwrap();
        let id_narrow = sys.subscribe(0, &narrow).unwrap();
        assert!(sys.unsubscribe(id_narrow));
        assert!(!sys.unsubscribe(id_narrow));
        sys.propagate().unwrap();
        let event = Event::builder(&schema).int("volume", 500).unwrap().build();
        let out = sys.publish(1, &event);
        let got: Vec<_> = out.deliveries.iter().map(|d| d.id).collect();
        assert_eq!(got, vec![id_broad]);
    }

    #[test]
    fn filter_equals_oracle_on_random_workload() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let mut workload =
            subsum_workload::Workload::new(subsum_workload::PaperParams::default(), 0.9);
        let schema = workload.schema().clone();
        let mut sys = SummaryPubSub::new(Topology::ring(6), schema.clone(), 1000).unwrap();
        sys.set_subsumption_filter(true);
        for b in 0..6u16 {
            for _ in 0..30 {
                let sub = workload.subscription(&mut rng);
                sys.subscribe(b, &sub).unwrap();
            }
        }
        sys.propagate().unwrap();
        for _ in 0..20 {
            let event = workload.event(0.8, &mut rng);
            let publisher = rng.gen_range(0..6u16);
            let out = sys.publish(publisher, &event);
            let mut got: Vec<_> = out.deliveries.iter().map(|d| d.id).collect();
            got.sort();
            got.dedup();
            assert_eq!(got, sys.oracle_matches(&event));
        }
    }

    #[test]
    #[should_panic(expected = "requires a completed propagation")]
    fn publish_before_propagation_panics() {
        let sys = system(Topology::line(2));
        let schema = sys.schema().clone();
        let event = Event::builder(&schema).num("price", 1.0).unwrap().build();
        sys.publish(0, &event);
    }

    #[test]
    fn local_id_exhaustion_reported() {
        let mut sys =
            SummaryPubSub::new(Topology::line(2), subsum_types::stock_schema(), 2).unwrap();
        let schema = sys.schema().clone();
        let sub = Subscription::builder(&schema)
            .num("price", NumOp::Gt, 1.0)
            .unwrap()
            .build()
            .unwrap();
        sys.subscribe(0, &sub).unwrap();
        sys.subscribe(0, &sub).unwrap();
        let err = sys.subscribe(0, &sub).unwrap_err();
        assert!(matches!(
            err,
            TypeError::IdOverflow {
                component: "c2",
                ..
            }
        ));
    }
}
