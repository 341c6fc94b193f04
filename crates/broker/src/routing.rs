//! Distributed event processing — Algorithm 3 (paper §4.3).
//!
//! An event entering the system at a broker is examined against that
//! broker's stored multi-broker summary. Matches are sent straight to the
//! owning brokers (the `c1` component of each matched subscription id).
//! The event carries **BROCLI** — the Broker Check List — recording every
//! broker whose subscriptions have already been examined; each examining
//! broker adds its whole `Merged_Brokers` set. While BROCLI is not yet
//! complete, the event forwards to the highest-degree broker outside
//! BROCLI (nearest first among ties), and the process repeats.
//!
//! "Nearest" and each notification's cost read the hop-distance matrix
//! the [`Topology`] derives at construction: a route runs no BFS.
//!
//! The *virtual degrees* extension (§6, the paper's ongoing work on load
//! balancing) lets maximum-degree brokers advertise a smaller degree for
//! the purposes of the next-broker choice, spreading the examination load.

use subsum_core::MatchScratch;
use subsum_net::{NetMetrics, NodeId, Topology};
use subsum_telemetry::trace::{SpanKind, TraceCtx, Tracer};
use subsum_telemetry::Stage;
use subsum_types::{Event, SubscriptionId};

use crate::propagation::MergedSummary;

static STAGE_CANDIDATE_MATCH: Stage = Stage::new(subsum_telemetry::names::PUBLISH_CANDIDATE_MATCH);

/// Options for [`route_event`].
#[derive(Debug, Clone, Default)]
pub struct RoutingOptions {
    /// Effective per-broker degrees used when choosing the next broker.
    /// `None` uses true topology degrees (the paper's base algorithm);
    /// see [`RoutingOptions::with_virtual_degrees`].
    pub virtual_degrees: Option<Vec<usize>>,
}

impl RoutingOptions {
    /// The base algorithm: true degrees.
    pub fn new() -> Self {
        RoutingOptions::default()
    }

    /// Caps every broker's advertised degree at `cap` (the paper's
    /// virtual-degree load-balancing device for maximum-degree nodes).
    pub fn with_virtual_degrees(topology: &Topology, cap: usize) -> Self {
        let degrees = (0..topology.len() as NodeId)
            .map(|v| topology.degree(v).min(cap))
            .collect();
        RoutingOptions {
            virtual_degrees: Some(degrees),
        }
    }

    fn effective_degree(&self, topology: &Topology, v: NodeId) -> usize {
        match &self.virtual_degrees {
            Some(d) => d[v as usize],
            None => topology.degree(v),
        }
    }
}

/// One delivery decision: a matched subscription id reported to its owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notification {
    /// The broker that found the match.
    pub found_at: NodeId,
    /// The owning broker (the id's `c1`).
    pub owner: NodeId,
    /// The matched subscription.
    pub id: SubscriptionId,
    /// Logical arrival tick at the owner: the cumulative overlay
    /// distance the event travelled to `found_at` plus the distance of
    /// the notification send (0 extra for a local match). Deterministic
    /// latency-attribution input; 0-based at the publisher.
    pub eta: u64,
    /// The match span that produced this candidate (0 when untraced) —
    /// parent for the owner-side verification spans.
    pub span: u32,
}

/// The result of routing one event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingOutcome {
    /// Brokers that examined the event, in visit order (starting with the
    /// publisher's broker).
    pub visits: Vec<NodeId>,
    /// Event forwards between examining brokers.
    pub forward_hops: u64,
    /// Event sends to matched owners (a notification to the examining
    /// broker itself costs no hop).
    pub notify_hops: u64,
    /// All candidate matches found, with their provenance.
    pub notifications: Vec<Notification>,
    /// Traffic counters (forwards and notifications).
    pub metrics: NetMetrics,
}

impl RoutingOutcome {
    /// The paper's event-processing hop count: every broker→broker
    /// message carrying the event.
    pub fn total_hops(&self) -> u64 {
        self.forward_hops + self.notify_hops
    }
}

/// Routes an event published at `publisher` through the stored
/// multi-broker summaries (Algorithm 3).
///
/// `event_bytes` is the event's wire size used for bandwidth accounting;
/// BROCLI adds `⌈n/8⌉` bytes to each forward.
///
/// # Panics
///
/// Panics if `stored.len()` differs from the topology size or `publisher`
/// is out of range.
pub fn route_event(
    topology: &Topology,
    stored: &[MergedSummary],
    publisher: NodeId,
    event: &Event,
    event_bytes: usize,
    options: &RoutingOptions,
) -> RoutingOutcome {
    let mut scratch = MatchScratch::new();
    route_event_with_scratch(
        topology,
        stored,
        publisher,
        event,
        event_bytes,
        options,
        &mut scratch,
    )
}

/// As [`route_event`], matching through a caller-owned [`MatchScratch`]
/// so a publisher of many events avoids per-event allocations (see
/// `SummaryPubSub::publish_with_scratch`).
///
/// One scratch serves every broker on the routing path even though each
/// hop matches against a different summary: the compiled-plan kernel
/// stamps its packed epoch-counter words per call, so stale counts from
/// a previous summary are never read and the arrays only grow to the
/// largest dense-id space seen on the path (each hop probes that
/// summary's own lazily compiled columnar match plan).
#[allow(clippy::too_many_arguments)]
pub fn route_event_with_scratch(
    topology: &Topology,
    stored: &[MergedSummary],
    publisher: NodeId,
    event: &Event,
    event_bytes: usize,
    options: &RoutingOptions,
    scratch: &mut MatchScratch,
) -> RoutingOutcome {
    route_inner(
        topology,
        stored,
        publisher,
        event,
        event_bytes,
        options,
        scratch,
        None,
    )
}

/// One broker's step of Algorithm 3, shared by every host that routes
/// over merged summaries: what broker `at` decides about an event that
/// reached it carrying `brocli`.
///
/// 1. Matches the event against the stored summary `here` and leaves in
///    `unexamined` the candidates whose owner is not yet in BROCLI
///    (ascending ids: one run per owner, see [`owner_runs`]).
/// 2. Adds `at` and the whole `Merged_Brokers` set to `brocli`.
/// 3. Returns the next hop and its overlay distance — highest (virtual)
///    degree outside BROCLI, then nearest by `at`'s row of the
///    topology's distance matrix, then lowest id — or `None` once BROCLI
///    is complete.
///
/// With `scratch`, `brocli` and `unexamined` warm, a step allocates
/// nothing.
#[allow(clippy::too_many_arguments)]
pub fn examine(
    topology: &Topology,
    here: &MergedSummary,
    at: NodeId,
    event: &Event,
    options: &RoutingOptions,
    scratch: &mut MatchScratch,
    brocli: &mut [bool],
    unexamined: &mut Vec<SubscriptionId>,
) -> Option<(NodeId, u32)> {
    let match_stage = STAGE_CANDIDATE_MATCH.start();
    let matched = &here.summary.match_event_into(event, scratch).matched;
    match_stage.finish();
    unexamined.clear();
    unexamined.extend(
        matched
            .iter()
            .filter(|id| !brocli[id.broker.index()])
            .copied(),
    );

    brocli[at as usize] = true;
    for &b in &here.merged_brokers {
        brocli[b as usize] = true;
    }

    let dist = topology.distances(at);
    (0..topology.len() as NodeId)
        .filter(|&v| !brocli[v as usize])
        .min_by_key(|&v| {
            (
                std::cmp::Reverse(options.effective_degree(topology, v)),
                dist[v as usize],
                v,
            )
        })
        .map(|next| (next, dist[next as usize]))
}

/// Splits id-sorted candidates (matcher output order is broker-major)
/// into one `(owner, ids)` run per owning broker.
pub fn owner_runs(
    ids: &[SubscriptionId],
) -> impl Iterator<Item = (NodeId, &[SubscriptionId])> + '_ {
    let mut rest = ids;
    std::iter::from_fn(move || {
        let owner = rest.first()?.broker;
        let len = rest.iter().take_while(|id| id.broker == owner).count();
        let (run, tail) = rest.split_at(len);
        rest = tail;
        Some((owner.0, run))
    })
}

/// [`route_event_with_scratch`], optionally recording causal spans: one
/// route span per examined broker (chained to the previous hop's), one
/// match span per examination, the cumulative overlay distance as the
/// logical clock. The outcome's routing fields are identical with and
/// without a tracer; with one, each notification also carries its
/// producing match span.
#[allow(clippy::too_many_arguments)]
pub(crate) fn route_inner(
    topology: &Topology,
    stored: &[MergedSummary],
    publisher: NodeId,
    event: &Event,
    event_bytes: usize,
    options: &RoutingOptions,
    scratch: &mut MatchScratch,
    trace: Option<(&Tracer, TraceCtx)>,
) -> RoutingOutcome {
    assert_eq!(stored.len(), topology.len());
    assert!((publisher as usize) < topology.len());
    let n = topology.len();
    let brocli_bytes = n.div_ceil(8);
    let mut metrics = NetMetrics::new(n);
    let mut brocli = vec![false; n];
    let mut unexamined = Vec::new();
    let mut visits = Vec::new();
    let mut notifications = Vec::new();
    let mut forward_hops = 0u64;
    let mut notify_hops = 0u64;

    // Logical clock: cumulative overlay distance from the publisher,
    // advanced by each forward's path length.
    let mut clock = 0u64;
    // The previous hop's route span; the incoming context's parent at
    // the publisher.
    let mut hop_parent = trace.map(|(_, c)| c.parent).unwrap_or(0);

    let mut current = publisher;
    loop {
        visits.push(current);
        let route_span = match trace {
            Some((t, c)) => t.record(c.trace, hop_parent, current, SpanKind::Route, clock),
            None => 0,
        };
        let next = examine(
            topology,
            &stored[current as usize],
            current,
            event,
            options,
            scratch,
            &mut brocli,
            &mut unexamined,
        );
        let match_span = match trace {
            Some((t, c)) => t.record(c.trace, route_span, current, SpanKind::Match, clock),
            None => 0,
        };

        // Report each candidate to its owner; a notification to the
        // examining broker itself costs no hop.
        let dist = topology.distances(current);
        for (owner, ids) in owner_runs(&unexamined) {
            let eta = if owner == current {
                clock
            } else {
                metrics.record(current, owner, event_bytes, dist[owner as usize]);
                notify_hops += 1;
                clock + u64::from(dist[owner as usize])
            };
            notifications.extend(ids.iter().map(|&id| Notification {
                found_at: current,
                owner,
                id,
                eta,
                span: match_span,
            }));
        }

        let Some((next, hop_len)) = next else { break };
        metrics.record(current, next, event_bytes + brocli_bytes, hop_len);
        forward_hops += 1;
        clock += u64::from(hop_len.max(1));
        hop_parent = route_span;
        current = next;
    }

    RoutingOutcome {
        visits,
        forward_hops,
        notify_hops,
        notifications,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::propagate;
    use subsum_core::{ArithWidth, BrokerSummary, SummaryCodec};
    use subsum_types::{stock_schema, BrokerId, IdLayout, LocalSubId, NumOp, Schema, Subscription};

    fn codec(schema: &Schema, brokers: usize) -> SummaryCodec {
        let layout = IdLayout::new(brokers as u64, 1000, schema.len() as u32).unwrap();
        SummaryCodec::new(layout, ArithWidth::Eight)
    }

    /// Brokers in `interested` subscribe to `price = 42`; everyone else
    /// subscribes to a disjoint value.
    fn summaries_with_interest(
        schema: &Schema,
        n: usize,
        interested: &[NodeId],
    ) -> Vec<BrokerSummary> {
        (0..n)
            .map(|b| {
                let price = if interested.contains(&(b as NodeId)) {
                    42.0
                } else {
                    -1000.0 - b as f64
                };
                let sub = Subscription::builder(schema)
                    .num("price", NumOp::Eq, price)
                    .unwrap()
                    .build()
                    .unwrap();
                let mut s = BrokerSummary::new(schema.clone());
                s.insert(BrokerId(b as u16), LocalSubId(0), &sub);
                s
            })
            .collect()
    }

    fn price_event(schema: &Schema, price: f64) -> Event {
        Event::builder(schema).num("price", price).unwrap().build()
    }

    #[test]
    fn fig7_worked_example() {
        // §4.3 Example 3: an event matching (paper) brokers 4, 8, 13
        // arrives at broker 1.
        let schema = stock_schema();
        let topo = Topology::fig7_tree();
        let interested: Vec<NodeId> = vec![3, 7, 12]; // paper 4, 8, 13
        let own = summaries_with_interest(&schema, 13, &interested);
        let prop = propagate(&topo, &own, &codec(&schema, 13)).unwrap();
        let event = price_event(&schema, 42.0);
        let out = route_event(&topo, &prop.stored, 0, &event, 50, &RoutingOptions::new());

        // Visit order: broker 1 (node 0) → broker 5 (node 4) →
        // broker 8 (node 7) → broker 11 (node 10).
        assert_eq!(out.visits, vec![0, 4, 7, 10]);
        assert_eq!(out.forward_hops, 3);
        // Notifications to owners 3 and 12 cost hops; broker 8's own
        // match (node 7) is local.
        assert_eq!(out.notify_hops, 2);
        let mut owners: Vec<NodeId> = out.notifications.iter().map(|n| n.owner).collect();
        owners.sort();
        assert_eq!(owners, interested);
    }

    #[test]
    fn all_interested_brokers_found_regardless_of_publisher() {
        let schema = stock_schema();
        let topo = Topology::cable_wireless_24();
        let interested: Vec<NodeId> = vec![1, 6, 13, 22];
        let own = summaries_with_interest(&schema, 24, &interested);
        let prop = propagate(&topo, &own, &codec(&schema, 24)).unwrap();
        let event = price_event(&schema, 42.0);
        for publisher in 0..24 {
            let out = route_event(
                &topo,
                &prop.stored,
                publisher,
                &event,
                50,
                &RoutingOptions::new(),
            );
            let mut owners: Vec<NodeId> = out.notifications.iter().map(|n| n.owner).collect();
            owners.sort();
            owners.dedup();
            assert_eq!(owners, interested, "publisher {publisher}");
        }
    }

    #[test]
    fn no_duplicate_notifications_for_one_owner_subscription() {
        // Broker 1's summary is stored at several brokers along the
        // propagation path; BROCLI must prevent double notification.
        let schema = stock_schema();
        let topo = Topology::fig7_tree();
        let own = summaries_with_interest(&schema, 13, &[0]);
        let prop = propagate(&topo, &own, &codec(&schema, 13)).unwrap();
        let event = price_event(&schema, 42.0);
        for publisher in 0..13 {
            let out = route_event(
                &topo,
                &prop.stored,
                publisher,
                &event,
                50,
                &RoutingOptions::new(),
            );
            assert_eq!(
                out.notifications.len(),
                1,
                "publisher {publisher} produced {:?}",
                out.notifications
            );
        }
    }

    #[test]
    fn visits_bounded_by_broker_count() {
        let schema = stock_schema();
        let topo = Topology::ring(9);
        let own = summaries_with_interest(&schema, 9, &[]);
        let prop = propagate(&topo, &own, &codec(&schema, 9)).unwrap();
        let event = price_event(&schema, 42.0);
        let out = route_event(&topo, &prop.stored, 0, &event, 50, &RoutingOptions::new());
        assert!(out.visits.len() <= 9);
        assert!(out.notifications.is_empty());
        // Every broker ends up in BROCLI: visits' merged sets cover all.
        let covered: std::collections::BTreeSet<NodeId> = out
            .visits
            .iter()
            .flat_map(|&v| prop.stored[v as usize].merged_brokers.iter().copied())
            .collect();
        assert_eq!(covered.len(), 9);
    }

    #[test]
    fn virtual_degrees_spread_load() {
        let schema = stock_schema();
        let topo = Topology::fig7_tree();
        let interested: Vec<NodeId> = vec![3, 7, 12];
        let own = summaries_with_interest(&schema, 13, &interested);
        let prop = propagate(&topo, &own, &codec(&schema, 13)).unwrap();
        let event = price_event(&schema, 42.0);
        // Base: the degree-5 hub (node 4), then the degree-3 brokers.
        let base = route_event(&topo, &prop.stored, 0, &event, 50, &RoutingOptions::new());
        assert_eq!(base.visits, vec![0, 4, 7, 10]);
        // Capped at 2, the hub ties with the degree-2 brokers, and the
        // nearest of them (node 1) is examined first: the load spreads
        // over more brokers.
        let opts = RoutingOptions::with_virtual_degrees(&topo, 2);
        let capped = route_event(&topo, &prop.stored, 0, &event, 50, &opts);
        assert_eq!(capped.visits, vec![0, 1, 4, 6, 7, 10]);
        // Every interested owner is still notified.
        let mut owners: Vec<NodeId> = capped.notifications.iter().map(|n| n.owner).collect();
        owners.sort();
        owners.dedup();
        assert_eq!(owners, interested);
    }

    #[test]
    fn event_published_at_interested_broker_notifies_locally() {
        let schema = stock_schema();
        let topo = Topology::fig7_tree();
        let own = summaries_with_interest(&schema, 13, &[0]);
        let prop = propagate(&topo, &own, &codec(&schema, 13)).unwrap();
        let event = price_event(&schema, 42.0);
        let out = route_event(&topo, &prop.stored, 0, &event, 50, &RoutingOptions::new());
        assert_eq!(out.notifications.len(), 1);
        assert_eq!(out.notifications[0].owner, 0);
        assert_eq!(out.notifications[0].found_at, 0);
        // A local match costs no notification hop.
        assert_eq!(out.notify_hops, 0);
    }
}
