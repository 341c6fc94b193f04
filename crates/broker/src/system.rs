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
//!   consumers only ever see true matches despite SACS generalization;
//! * a broker restarts from its checkpoint
//!   ([`SummaryPubSub::restore`]), the one durable format of every host.
//!   A changed overlay is a fresh system over the new links with every
//!   broker restored, as a `subsumd` deployment restarts its daemons.

use std::collections::BTreeMap;
use std::sync::Arc;

use subsum_core::{ArithWidth, MatchScratch, SizeParams, SummaryCodec, SummaryStats};
use subsum_net::{NetMetrics, NodeId, Topology};
use subsum_telemetry::trace::{SpanKind, TraceCtx, Tracer};
use subsum_telemetry::{Count, Stage};
use subsum_types::{Event, IdLayout, Schema, Subscription, SubscriptionId, TypeError};

use crate::core::BrokerCore;
use crate::propagation::{propagate, MergedSummary, PropagationOutcome};
use crate::routing::{route_inner, RoutingOptions, RoutingOutcome};
use crate::snapshot::{BrokerCheckpoint, SnapshotError};

/// Telemetry stages and counters of the end-to-end engine. Publishing is
/// split into its pipeline stages — Algorithm 3 routing
/// (`publish.route`, which itself spans `publish.candidate_match` per
/// examined broker) and tier-2 owner verification
/// (`publish.owner_verify`) — so a run report can answer where a
/// publish's time goes.
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
    /// One state machine per broker of the overlay.
    brokers: Vec<BrokerCore>,
    /// Ids accepted since the last propagation, per broker — the σ-batch
    /// an incremental period ships.
    pending: Vec<Vec<SubscriptionId>>,
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
    /// ids for at most `max_subs` subscriptions per broker.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::TooManyAttributes`] if the schema exceeds the
    /// id mask width.
    pub fn new(topology: Topology, schema: Schema, max_subs: u64) -> Result<Self, TypeError> {
        let layout = IdLayout::new(topology.len() as u64, max_subs, schema.len() as u32)?;
        let n = topology.len();
        Ok(SummaryPubSub {
            codec: SummaryCodec::new(layout, ArithWidth::Four),
            brokers: (0..n as NodeId)
                .map(|b| BrokerCore::new(b, schema.clone(), layout, None))
                .collect(),
            pending: vec![Vec::new(); n],
            last_propagation: None,
            propagation_metrics: NetMetrics::new(n),
            tracer: None,
            topology,
            schema,
        })
    }

    /// Attaches a causal tracer: every subsequent publish gets its own
    /// trace spanning routing, matching and owner verification. Publish
    /// outcomes are identical with or without a tracer.
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

    /// Enables or disables the §6 extension that combines summarization
    /// with subsumption at every broker: a subscription covered by a
    /// resident one is *shadowed* out of the propagated summary and
    /// expanded at verification (see [`BrokerCore::verify`]), so no
    /// deliveries are lost. Affects subscriptions registered afterwards.
    pub fn set_subsumption_filter(&mut self, on: bool) {
        for broker in &mut self.brokers {
            broker.set_subsumption_filter(on);
        }
    }

    /// The number of subscriptions currently shadowed at `broker`.
    pub fn shadowed_count(&self, broker: NodeId) -> usize {
        self.broker(broker).shadowed_count()
    }

    /// The state machine of `broker`.
    pub fn broker(&self, broker: NodeId) -> &BrokerCore {
        &self.brokers[broker as usize]
    }

    /// Read access to a broker's exact subscription store.
    pub fn exact_store(&self, broker: NodeId) -> &BTreeMap<SubscriptionId, Subscription> {
        self.broker(broker).exact()
    }

    /// Restarts `broker` from its durable state, as
    /// [`DaemonCore::restore`](crate::DaemonCore::restore) does under the
    /// other hosts: the exact store and id counter become
    /// `checkpoint`'s, and the own summary and §6 shadow maps are
    /// re-derived from them. Installed multi-broker summaries are
    /// dropped: run [`SummaryPubSub::propagate`] before the next publish.
    ///
    /// # Errors
    ///
    /// Refuses, restoring nothing, a checkpoint that
    /// [`BrokerCheckpoint::check`] refuses: another broker's ids, or a
    /// subscription outside this system's schema.
    ///
    /// # Panics
    ///
    /// Panics if `broker` is out of range.
    pub fn restore(
        &mut self,
        broker: NodeId,
        checkpoint: BrokerCheckpoint,
    ) -> Result<(), SnapshotError> {
        checkpoint.check(broker, &self.schema)?;
        self.brokers[broker as usize].restore(Some(checkpoint));
        self.pending[broker as usize].clear();
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
        // Re-type every broker's own summary against the new schema so
        // subscriptions over the new attributes can be dissolved; stored
        // multi-broker summaries must be rebuilt by the next propagation.
        for broker in &mut self.brokers {
            broker.retype(new_schema.clone(), layout);
        }
        self.schema = new_schema;
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
    /// local id space, or the error of
    /// [`Subscription::check`](subsum_types::Subscription::check) for a
    /// subscription outside the schema.
    ///
    /// # Panics
    ///
    /// Panics if `broker` is out of range.
    pub fn subscribe(
        &mut self,
        broker: NodeId,
        sub: &Subscription,
    ) -> Result<SubscriptionId, TypeError> {
        let id = self.brokers[broker as usize].subscribe(sub)?;
        self.pending[broker as usize].push(id);
        Ok(id)
    }

    /// Cancels a subscription at its owner broker.
    ///
    /// Returns `true` if the subscription existed. Remote merged
    /// summaries keep the id until the next propagation rebuild — over-
    /// approximation, handled by tier-2 verification as usual. Under the
    /// §6 filter, the subscriptions a cancelled coverer shadowed that
    /// re-enter the own summary join the pending batch, so the next
    /// period ships them, incremental or full.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let broker = &mut self.brokers[id.broker.index()];
        let orphans = broker.shadowed_under(id).to_vec();
        if !broker.unsubscribe(id) {
            return false;
        }
        // `summary_of` skips an orphan shadowed again.
        self.pending[id.broker.index()].extend(orphans);
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
        // Rebuild from the exact stores the own summaries an unsubscribe
        // touched, so they shed the generalizations and dead intern slots
        // removals left, at each period boundary; the others already
        // equal a rebuild. Shadowed subscriptions stay out of the
        // summaries (§6 extension).
        for broker in &mut self.brokers {
            broker.rebuild();
        }
        let own: Vec<_> = self.brokers.iter().map(BrokerCore::own).collect();
        let outcome = propagate(&self.topology, &own, &self.codec)?;
        self.propagation_metrics.merge(&outcome.metrics);
        for p in &mut self.pending {
            p.clear();
        }
        Ok(self.last_propagation.insert(outcome))
    }

    /// Runs an *incremental* propagation period: only the subscriptions
    /// accepted since the last propagation travel, as delta summaries,
    /// over the same Algorithm 2 schedule; receivers merge the deltas
    /// into their stored multi-broker summaries.
    ///
    /// Per-period bandwidth is proportional to the new batch (σ) instead
    /// of the outstanding population (S), and so is per-period CPU: the
    /// new ids of a broker take the spare slots at the end of its block
    /// in each stored summary, so a merge moves no resident dense id
    /// (see [`BrokerSummary::merge`](subsum_core::BrokerSummary::merge)).
    /// Unsubscriptions do not shrink remote state until the next full
    /// [`SummaryPubSub::propagate`] (tier-2 verification keeps them
    /// silent in the interim).
    ///
    /// Falls back to a full propagation if none has run yet.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::IdOverflow`] if an id exceeds the codec's
    /// layout.
    pub fn propagate_incremental(&mut self) -> Result<PropagationOutcome, TypeError> {
        let Some(current) = self.last_propagation.as_mut() else {
            return self.propagate().cloned();
        };
        let _span = STAGE_PROPAGATE.start();
        // Delta summaries: only pending (and still-live, non-shadowed)
        // subscriptions, in id order; a promoted shadow admitted this
        // period is pending twice.
        let deltas: Vec<_> = self
            .brokers
            .iter()
            .zip(&mut self.pending)
            .map(|(broker, pending)| {
                pending.sort_unstable();
                pending.dedup();
                broker.summary_of(pending.drain(..))
            })
            .collect();
        let outcome = propagate(&self.topology, &deltas, &self.codec)?;
        self.propagation_metrics.merge(&outcome.metrics);
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
    /// [`MatchScratch`]. The scratch's epoch-stamped counter arrays are
    /// safely reused across the different per-hop summaries of one route
    /// (see [`route_event_with_scratch`](crate::routing::route_event_with_scratch))
    /// and across publishes from different brokers.
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
        // Each publish is its own causal root.
        let ctx = self
            .tracer
            .as_ref()
            .map(|t| t.new_root())
            .unwrap_or(TraceCtx::NONE);
        let route_span = STAGE_ROUTE.start();
        let routing = route_inner(
            &self.topology,
            stored,
            broker,
            event,
            event_bytes,
            &RoutingOptions::new(),
            scratch,
            self.tracer.as_deref().map(|t| (t, ctx)),
        );
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
            // Tier-2: the owner re-checks against its exact store (and
            // expands §6 shadows). A stale id (unsubscribed since the
            // last propagation) is rejected here too.
            let confirmed = self.brokers[n.owner as usize].verify(event, n.id, |id| {
                rec(vspan, n.owner, SpanKind::Deliver, n.eta);
                deliveries.push(Delivery { id, owner: n.owner });
            });
            if !confirmed {
                rec(vspan, n.owner, SpanKind::Drop, n.eta);
                false_positives.push(n.id);
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

    /// The exact matches an omniscient oracle would deliver — used by
    /// tests to verify completeness.
    pub fn oracle_matches(&self, event: &Event) -> Vec<SubscriptionId> {
        self.brokers
            .iter()
            .flat_map(|broker| broker.exact_matches(event))
            .collect()
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
                .brokers
                .iter()
                .map(|b| SummaryStats::of(b.own()).total_size(params))
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
        self.brokers.iter().map(|b| b.exact().len()).sum()
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

        sys.set_tracer(Arc::new(Tracer::new(24, 8192)));
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
    fn a_reused_scratch_publishes_like_a_fresh_one() {
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
        let mut scratch = MatchScratch::new();
        for _ in 0..40 {
            let (b, e) = (rng.gen_range(0..24u16), workload.event(0.7, &mut rng));
            let reused = sys.publish_with_scratch(b, &e, &mut scratch);
            let fresh = sys.publish(b, &e);
            assert_eq!(reused.deliveries, fresh.deliveries);
            assert_eq!(reused.false_positives, fresh.false_positives);
            assert_eq!(reused.routing.visits, fresh.routing.visits);
            assert_eq!(reused.routing.metrics, fresh.routing.metrics);
        }
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

    /// A coverer cancelled between periods promotes its shadow into the
    /// own summary; the next incremental period must ship it, or no
    /// other broker routes to it until a full propagation.
    #[test]
    fn promoted_shadow_reaches_every_broker_after_an_incremental_period() {
        let mut sys = system(Topology::line(3));
        sys.set_subsumption_filter(true);
        let schema = sys.schema().clone();
        let below = |v| {
            Subscription::builder(&schema)
                .num("price", NumOp::Lt, v)
                .unwrap()
                .build()
                .unwrap()
        };
        let id_broad = sys.subscribe(1, &below(100.0)).unwrap();
        let id_narrow = sys.subscribe(1, &below(10.0)).unwrap();
        sys.propagate().unwrap();
        assert!(sys.unsubscribe(id_broad));
        sys.propagate_incremental().unwrap();
        let event = Event::builder(&schema).num("price", 5.0).unwrap().build();
        assert_eq!(sys.oracle_matches(&event), vec![id_narrow]);
        for publisher in 0..3 {
            let out = sys.publish(publisher, &event);
            let got: Vec<_> = out.deliveries.iter().map(|d| d.id).collect();
            assert_eq!(got, vec![id_narrow], "published at broker {publisher}");
        }
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
}
