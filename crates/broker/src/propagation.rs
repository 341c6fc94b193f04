//! Multi-broker summary propagation — Algorithm 2 (paper §4.2).
//!
//! The propagation phase runs in `max_degree` synchronous iterations. In
//! iteration *i*, every broker whose degree equals *i*:
//!
//! 1. merges its own summary with all summaries received in previous
//!    iterations and updates its `Merged_Brokers` set;
//! 2. sends the merged summary and the set to **one** neighbor of equal or
//!    higher degree with which it has not yet communicated, preferring the
//!    neighbor of smallest degree (ties break to the lowest id).
//!
//! A broker with no equal-or-higher-degree neighbor left (e.g. the global
//! maximum-degree broker with no equal-degree neighbor) merges but does
//! not send. After the final iteration every broker stores a merged
//! summary covering itself and everything it received; the union of the
//! stored `Merged_Brokers` sets covers all brokers, which is what the
//! event-routing phase's BROCLI relies on.

use std::borrow::Borrow;
use std::collections::BTreeSet;

use subsum_core::{BrokerSummary, SummaryCodec};
use subsum_net::{NetMetrics, NodeId, Topology};
use subsum_telemetry::Stage;
use subsum_types::TypeError;

static STAGE_ROUND: Stage = Stage::new(subsum_telemetry::names::PROPAGATE_ROUND);

/// A broker's stored multi-broker summary: the merged structure plus the
/// set of brokers whose subscriptions it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedSummary {
    /// The merged subscription summary.
    pub summary: BrokerSummary,
    /// `Merged_Brokers`: ids of the brokers whose subscriptions are
    /// included in [`MergedSummary::summary`].
    pub merged_brokers: BTreeSet<NodeId>,
}

impl MergedSummary {
    /// Applies a received propagation payload: merges the summary and
    /// extends `Merged_Brokers`. Returns `true` if the payload carried
    /// anything new.
    ///
    /// Application is **idempotent**: a payload whose `Merged_Brokers`
    /// set is already covered by this broker's set has been applied
    /// before (the set names exactly the summaries folded in) and is
    /// skipped outright: applying it again is a no-op — the stored
    /// summary's digest does not change.
    pub fn apply(&mut self, payload: &MergedSummary) -> bool {
        if payload
            .merged_brokers
            .iter()
            .all(|b| self.merged_brokers.contains(b))
        {
            return false;
        }
        self.summary.merge(&payload.summary);
        self.merged_brokers
            .extend(payload.merged_brokers.iter().copied());
        true
    }
}

/// One send of Algorithm 2, for tracing and the Fig. 7 walkthrough test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PropagationSend {
    /// The iteration (equal to the sender's degree).
    pub iteration: usize,
    /// The sending broker.
    pub from: NodeId,
    /// The receiving neighbor.
    pub to: NodeId,
    /// Payload bytes (encoded merged summary + `Merged_Brokers` set).
    pub bytes: usize,
}

/// The result of one propagation phase.
#[derive(Debug, Clone)]
pub struct PropagationOutcome {
    /// Per-broker stored state after the phase: the broker's final merged
    /// summary (own + everything received in any iteration) and its
    /// final `Merged_Brokers` set.
    pub stored: Vec<MergedSummary>,
    /// Traffic counters; `metrics.messages` is the paper's hop count for
    /// subscription propagation.
    pub metrics: NetMetrics,
    /// The exact send schedule.
    pub sends: Vec<PropagationSend>,
}

impl PropagationOutcome {
    /// The hop count of the phase (one hop per summary message).
    pub fn hops(&self) -> u64 {
        self.metrics.messages
    }

    /// Verifies the global coverage invariant: every broker appears in at
    /// least one stored `Merged_Brokers` set (trivially true since each
    /// broker stores itself) *and* each broker's final set contains
    /// itself.
    pub fn covers_all_brokers(&self) -> bool {
        let n = self.stored.len();
        let mut covered = vec![false; n];
        for (b, m) in self.stored.iter().enumerate() {
            if !m.merged_brokers.contains(&(b as NodeId)) {
                return false;
            }
            for &x in &m.merged_brokers {
                covered[x as usize] = true;
            }
        }
        covered.into_iter().all(|c| c)
    }
}

/// Runs Algorithm 2 over `topology`, starting from each broker's own
/// per-broker summary (`own[b]` is broker `b`'s summary of its local
/// subscriptions).
///
/// Message sizes are measured through `codec` (the real wire encoding)
/// plus two bytes per `Merged_Brokers` entry.
///
/// # Errors
///
/// Returns [`TypeError::IdOverflow`] if a subscription id exceeds the
/// codec's layout.
///
/// # Panics
///
/// Panics if `own.len()` differs from the topology size.
pub fn propagate<S: Borrow<BrokerSummary>>(
    topology: &Topology,
    own: &[S],
    codec: &SummaryCodec,
) -> Result<PropagationOutcome, TypeError> {
    assert_eq!(own.len(), topology.len(), "one summary per broker required");
    let n = topology.len();
    let mut metrics = NetMetrics::new(n);
    let mut sends = Vec::new();

    // Stored state per broker.
    let mut stored: Vec<MergedSummary> = own
        .iter()
        .enumerate()
        .map(|(b, s)| MergedSummary {
            summary: s.borrow().clone(),
            merged_brokers: BTreeSet::from([b as NodeId]),
        })
        .collect();
    // Summaries received and not yet folded into the *sent* summary
    // (everything received is already folded into `stored` on delivery).
    let mut communicated: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); n];

    let max_degree = topology.max_degree();
    for iteration in 1..=max_degree {
        let _round_span = STAGE_ROUND.start();
        // Synchronous round: all sends computed against the state at the
        // start of the iteration, delivered at the end.
        let mut deliveries: Vec<(NodeId, MergedSummary, usize)> = Vec::new();
        for b in 0..n as NodeId {
            if topology.degree(b) != iteration {
                continue;
            }
            // Step 1 already holds in `stored[b]`: deliveries fold in on
            // receipt. Step 2: pick the neighbor.
            let candidates: Vec<NodeId> = topology
                .neighbors(b)
                .iter()
                .copied()
                .filter(|&nb| {
                    topology.degree(nb) >= iteration && !communicated[b as usize].contains(&nb)
                })
                .collect();
            let Some(&target) = candidates
                .iter()
                .min_by_key(|&&nb| (topology.degree(nb), nb))
            else {
                continue;
            };
            communicated[b as usize].insert(target);
            let payload = stored[b as usize].clone();
            let bytes = codec.encoded_len(&payload.summary)? + 2 * payload.merged_brokers.len();
            metrics.record(b, target, bytes, 1);
            sends.push(PropagationSend {
                iteration,
                from: b,
                to: target,
                bytes,
            });
            deliveries.push((target, payload, bytes));
        }
        for (target, payload, _) in deliveries {
            let t = target as usize;
            stored[t].apply(&payload);
            // Receiving also counts as having communicated with the
            // sender (no back-send of the same content).
            for s in payload.merged_brokers {
                communicated[t].insert(s);
            }
        }
    }

    Ok(PropagationOutcome {
        stored,
        metrics,
        sends,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsum_core::ArithWidth;
    use subsum_types::{stock_schema, BrokerId, IdLayout, LocalSubId, NumOp, Schema, Subscription};

    fn codec(schema: &Schema, brokers: usize) -> SummaryCodec {
        let layout = IdLayout::new(brokers as u64, 1000, schema.len() as u32).unwrap();
        SummaryCodec::new(layout, ArithWidth::Eight)
    }

    /// One distinct subscription per broker so coverage is observable.
    fn own_summaries(schema: &Schema, n: usize) -> Vec<BrokerSummary> {
        (0..n)
            .map(|b| {
                let sub = Subscription::builder(schema)
                    .num("price", NumOp::Eq, b as f64)
                    .unwrap()
                    .build()
                    .unwrap();
                let mut s = BrokerSummary::new(schema.clone());
                s.insert(BrokerId(b as u16), LocalSubId(0), &sub);
                s
            })
            .collect()
    }

    #[test]
    fn fig7_schedule_matches_paper() {
        let schema = stock_schema();
        let topo = Topology::fig7_tree();
        let own = own_summaries(&schema, 13);
        let out = propagate(&topo, &own, &codec(&schema, 13)).unwrap();

        // Iteration 1: the seven leaves (paper brokers 1,3,4,6,9,12,13)
        // send to their only neighbor.
        let it1: Vec<_> = out
            .sends
            .iter()
            .filter(|s| s.iteration == 1)
            .map(|s| (s.from, s.to))
            .collect();
        assert_eq!(
            it1,
            vec![(0, 1), (2, 4), (3, 4), (5, 4), (8, 7), (11, 10), (12, 10)]
        );

        // Iteration 2: paper brokers 2→5, 7→8 (smallest-degree choice),
        // 10→8 (tie on degree 3, lowest id).
        let it2: Vec<_> = out
            .sends
            .iter()
            .filter(|s| s.iteration == 2)
            .map(|s| (s.from, s.to))
            .collect();
        assert_eq!(it2, vec![(1, 4), (6, 7), (9, 7)]);

        // Iteration 3: brokers 8 and 11 (nodes 7 and 10) merge but have
        // no equal-or-higher-degree neighbor: no sends. Iterations 4 and
        // 5 also produce none (no degree-4 broker; node 4 has no ≥5
        // neighbor).
        assert!(out.sends.iter().all(|s| s.iteration <= 2));

        // Paper: broker 5 (node 4) ends with knowledge of brokers 1–6.
        assert_eq!(
            out.stored[4].merged_brokers,
            BTreeSet::from([0, 1, 2, 3, 4, 5])
        );
        // Broker 8 (node 7) covers {7, 8, 9, 10}.
        assert_eq!(out.stored[7].merged_brokers, BTreeSet::from([6, 7, 8, 9]));
        // Broker 11 (node 10) covers {11, 12, 13}.
        assert_eq!(out.stored[10].merged_brokers, BTreeSet::from([10, 11, 12]));

        assert!(out.covers_all_brokers());
        // Fewer hops than brokers, as the paper claims.
        assert!(out.hops() < 13);
        assert_eq!(out.hops(), 10);
    }

    #[test]
    fn merged_summaries_contain_received_subscriptions() {
        let schema = stock_schema();
        let topo = Topology::fig7_tree();
        let own = own_summaries(&schema, 13);
        let out = propagate(&topo, &own, &codec(&schema, 13)).unwrap();
        // Node 4 (paper broker 5) holds the subscriptions of brokers 0–5.
        let ids = out.stored[4].summary.subscription_ids();
        let owners: BTreeSet<u16> = ids.iter().map(|id| id.broker.0).collect();
        assert_eq!(owners, BTreeSet::from([0, 1, 2, 3, 4, 5]));
    }

    #[test]
    fn coverage_on_arbitrary_topologies() {
        let schema = stock_schema();
        for topo in [
            Topology::line(8),
            Topology::ring(9),
            Topology::star(10),
            Topology::grid(4, 4),
            Topology::cable_wireless_24(),
            Topology::balanced_tree(3, 3),
        ] {
            let n = topo.len();
            let own = own_summaries(&schema, n);
            let out = propagate(&topo, &own, &codec(&schema, n)).unwrap();
            assert!(out.covers_all_brokers(), "coverage on {n}-node topology");
            // Each broker sends at most once: hops never exceed the
            // broker count (and stay strictly below it whenever some
            // broker lacks an equal-or-higher-degree partner, e.g. a
            // unique maximum-degree hub).
            assert!(
                out.hops() <= n as u64,
                "hops {} must not exceed broker count {n}",
                out.hops()
            );
        }
    }

    #[test]
    fn equal_degree_pair_exchanges() {
        // Two brokers, both degree 1: each sends to the other in
        // iteration 1 (synchronous round), ending with full knowledge.
        let schema = stock_schema();
        let topo = Topology::line(2);
        let own = own_summaries(&schema, 2);
        let out = propagate(&topo, &own, &codec(&schema, 2)).unwrap();
        assert_eq!(out.hops(), 2);
        assert_eq!(out.stored[0].merged_brokers, BTreeSet::from([0, 1]));
        assert_eq!(out.stored[1].merged_brokers, BTreeSet::from([0, 1]));
    }

    #[test]
    fn star_center_collects_everything() {
        let schema = stock_schema();
        let topo = Topology::star(6);
        let own = own_summaries(&schema, 6);
        let out = propagate(&topo, &own, &codec(&schema, 6)).unwrap();
        // All five leaves send to the hub; the hub cannot send.
        assert_eq!(out.hops(), 5);
        assert_eq!(
            out.stored[0].merged_brokers,
            (0..6).collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn bandwidth_grows_with_merged_content() {
        let schema = stock_schema();
        let topo = Topology::line(4);
        let own = own_summaries(&schema, 4);
        let out = propagate(&topo, &own, &codec(&schema, 4)).unwrap();
        // Later-iteration sends carry merged (larger) summaries.
        let first = out.sends.iter().find(|s| s.iteration == 1).unwrap();
        let later = out.sends.iter().max_by_key(|s| s.iteration).unwrap();
        assert!(later.bytes >= first.bytes);
        assert!(out.metrics.payload_bytes > 0);
    }

    #[test]
    fn duplicate_application_is_a_no_op() {
        // A payload whose `Merged_Brokers` set is already covered is
        // skipped: applying the same payload twice leaves the stored
        // state bit-identical.
        let schema = stock_schema();
        let own = own_summaries(&schema, 4);
        let mut stored = MergedSummary {
            summary: own[0].clone(),
            merged_brokers: BTreeSet::from([0]),
        };
        let payload = MergedSummary {
            summary: {
                let mut s = own[1].clone();
                s.merge(&own[2]);
                s
            },
            merged_brokers: BTreeSet::from([1, 2]),
        };

        assert!(stored.apply(&payload), "first apply carries new content");
        let digest = stored.summary.digest();
        let brokers = stored.merged_brokers.clone();

        assert!(!stored.apply(&payload), "duplicate must report no change");
        assert_eq!(stored.summary.digest(), digest, "summary unchanged");
        assert_eq!(stored.merged_brokers, brokers, "broker set unchanged");
        #[cfg(debug_assertions)]
        stored.summary.validate();

        // A partially-overlapping payload is *not* a duplicate.
        let fresh = MergedSummary {
            summary: own[3].clone(),
            merged_brokers: BTreeSet::from([2, 3]),
        };
        assert!(stored.apply(&fresh));
        assert_eq!(stored.merged_brokers, BTreeSet::from([0, 1, 2, 3]));
    }

    #[test]
    fn empty_summaries_still_propagate_sets() {
        let schema = stock_schema();
        let topo = Topology::line(3);
        let own: Vec<_> = (0..3).map(|_| BrokerSummary::new(schema.clone())).collect();
        let out = propagate(&topo, &own, &codec(&schema, 3)).unwrap();
        assert!(out.covers_all_brokers());
    }
}
