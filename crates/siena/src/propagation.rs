//! Siena-style subscription propagation (reconstruction).
//!
//! Siena propagates each broker's subscriptions neighbor-to-neighbor over
//! a per-source (minimum) spanning tree, stopping a subscription's
//! traversal wherever it is *subsumed* by one already forwarded
//! (paper §2.2 and §5.2.1). Two faithful models are provided:
//!
//! * [`propagate_probabilistic`] — the paper's evaluation model: a broker
//!   `B` declines to forward a received subscription to a neighbor with
//!   probability `p_B = p_max · degree(B) / max_degree` (§5.2: brokers
//!   with higher connectivity enjoy higher subsumption probabilities, and
//!   the stated probability is the maximum over brokers);
//! * [`propagate_content`] — real content-based pruning: a subscription is
//!   not forwarded over a link on which a covering subscription has
//!   already been sent (the ablation comparing the paper's probabilistic
//!   abstraction with actual subsumption).

use rand::Rng;

use subsum_net::{NetMetrics, NodeId, Topology};
use subsum_telemetry::Stage;
use subsum_types::{Schema, Subscription};

static STAGE_PROPAGATE: Stage = Stage::new(subsum_telemetry::names::SIENA_PROPAGATE);

/// Parameters of the probabilistic Siena model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SienaParams {
    /// `p_max`: the stated (maximum) subsumption probability; each
    /// broker's own probability scales with `degree / max_degree`.
    pub subsumption_max: f64,
    /// Average subscription size in bytes (Table 2: 50).
    pub sub_size: usize,
}

impl Default for SienaParams {
    fn default() -> Self {
        SienaParams {
            subsumption_max: 0.1,
            sub_size: 50,
        }
    }
}

/// The result of one Siena propagation period.
#[derive(Debug, Clone)]
pub struct SienaPropagation {
    /// Traffic counters; `metrics.messages` is the hop count.
    pub metrics: NetMetrics,
    /// Subscriptions stored per broker after the period (each broker
    /// stores every subscription it received plus its own).
    pub stored_subs: Vec<u64>,
}

impl SienaPropagation {
    /// Propagation hop count (one hop per neighbor-to-neighbor send).
    pub fn hops(&self) -> u64 {
        self.metrics.messages
    }

    /// Total storage in bytes across brokers at `sub_size` bytes per
    /// stored subscription (Fig. 11's Siena series).
    pub fn storage_bytes(&self, sub_size: usize) -> u64 {
        self.stored_subs.iter().sum::<u64>() * sub_size as u64
    }
}

/// Per-broker subsumption probability under the paper's model.
pub fn broker_subsumption_probability(topology: &Topology, broker: NodeId, p_max: f64) -> f64 {
    let max_degree = topology.max_degree().max(1);
    p_max * topology.degree(broker) as f64 / max_degree as f64
}

/// The children lists of a spanning tree given by `parent` (as
/// [`Topology::shortest_path_tree`] returns it): `children[v]` holds the
/// nodes whose parent is `v`, in ascending id order.
pub(crate) fn tree_children(parent: &[Option<NodeId>]) -> Vec<Vec<NodeId>> {
    let mut children = vec![Vec::new(); parent.len()];
    for (v, &p) in parent.iter().enumerate() {
        if let Some(p) = p {
            children[p as usize].push(v as NodeId);
        }
    }
    children
}

/// Runs the probabilistic model: each broker sources `sigma` new
/// subscriptions which flood its spanning tree subject to per-broker
/// subsumption pruning.
pub fn propagate_probabilistic<R: Rng>(
    topology: &Topology,
    sigma: usize,
    params: SienaParams,
    rng: &mut R,
) -> SienaPropagation {
    let _span = STAGE_PROPAGATE.start();
    let n = topology.len();
    let mut metrics = NetMetrics::new(n);
    let mut stored = vec![0u64; n];

    for source in 0..n as NodeId {
        let children = tree_children(&topology.shortest_path_tree(source));
        let probs: Vec<f64> = (0..n as NodeId)
            .map(|v| broker_subsumption_probability(topology, v, params.subsumption_max))
            .collect();

        for _ in 0..sigma {
            stored[source as usize] += 1; // the broker's own copy
                                          // BFS down the tree with per-(broker, neighbor) pruning.
            let mut queue = vec![source];
            while let Some(v) = queue.pop() {
                for &c in &children[v as usize] {
                    if rng.gen::<f64>() < probs[v as usize] {
                        continue; // subsumed: not forwarded on this link
                    }
                    metrics.record(v, c, params.sub_size, 1);
                    stored[c as usize] += 1;
                    queue.push(c);
                }
            }
        }
    }

    SienaPropagation {
        metrics,
        stored_subs: stored,
    }
}

/// Runs real content-based pruning: subscription `subs[b]` of each broker
/// `b` floods `b`'s spanning tree, but a subscription is not forwarded
/// over a directed link that already carried a covering subscription.
///
/// Returns the propagation result; `stored_subs[v]` counts subscriptions
/// received (or originated) at `v`.
pub fn propagate_content(
    topology: &Topology,
    schema: &Schema,
    subs: &[Vec<Subscription>],
    arith_width: usize,
) -> SienaPropagation {
    let _span = STAGE_PROPAGATE.start();
    assert_eq!(subs.len(), topology.len());
    let n = topology.len();
    let mut metrics = NetMetrics::new(n);
    let mut stored = vec![0u64; n];
    // Covering subscriptions already forwarded per directed edge,
    // shared across sources as in a real deployment.
    let mut forwarded: std::collections::HashMap<(NodeId, NodeId), Vec<Subscription>> =
        std::collections::HashMap::new();

    for source in 0..n as NodeId {
        let children = tree_children(&topology.shortest_path_tree(source));
        for sub in &subs[source as usize] {
            stored[source as usize] += 1;
            let size = sub.wire_size(schema, arith_width);
            let mut queue = vec![source];
            while let Some(v) = queue.pop() {
                for &c in &children[v as usize] {
                    let table = forwarded.entry((v, c)).or_default();
                    if table.iter().any(|t| t.covers(sub)) {
                        continue; // genuinely subsumed on this link
                    }
                    // Keep the table minimal: drop entries the new
                    // subscription covers.
                    table.retain(|t| !sub.covers(t));
                    table.push(sub.clone());
                    metrics.record(v, c, size, 1);
                    stored[c as usize] += 1;
                    queue.push(c);
                }
            }
        }
    }

    SienaPropagation {
        metrics,
        stored_subs: stored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use subsum_types::{stock_schema, NumOp};

    #[test]
    fn zero_subsumption_floods_everything() {
        let topo = Topology::fig7_tree();
        let mut rng = StdRng::seed_from_u64(1);
        let params = SienaParams {
            subsumption_max: 0.0,
            sub_size: 50,
        };
        let out = propagate_probabilistic(&topo, 3, params, &mut rng);
        // Every subscription reaches every broker: per source, σ·(B−1)
        // messages → 13·3·12 hops.
        assert_eq!(out.hops(), 13 * 3 * 12);
        assert_eq!(out.metrics.payload_bytes, 13 * 3 * 12 * 50);
        // Every broker stores all 13·3 subscriptions.
        assert!(out.stored_subs.iter().all(|&s| s == 39));
        assert_eq!(out.storage_bytes(50), 13 * 39 * 50);
    }

    #[test]
    fn full_subsumption_prunes_most_traffic() {
        let topo = Topology::fig7_tree();
        let mut rng = StdRng::seed_from_u64(2);
        let none = propagate_probabilistic(
            &topo,
            5,
            SienaParams {
                subsumption_max: 0.0,
                sub_size: 50,
            },
            &mut rng,
        );
        let mut rng = StdRng::seed_from_u64(2);
        let heavy = propagate_probabilistic(
            &topo,
            5,
            SienaParams {
                subsumption_max: 0.9,
                sub_size: 50,
            },
            &mut rng,
        );
        assert!(heavy.hops() < none.hops());
        assert!(heavy.storage_bytes(50) < none.storage_bytes(50));
    }

    #[test]
    fn probability_scales_with_degree() {
        let topo = Topology::fig7_tree();
        // Hub (node 4, degree 5 = max): probability equals p_max.
        assert!((broker_subsumption_probability(&topo, 4, 0.9) - 0.9).abs() < 1e-12);
        // A leaf (degree 1): p_max / 5.
        assert!((broker_subsumption_probability(&topo, 0, 0.9) - 0.18).abs() < 1e-12);
    }

    #[test]
    fn content_pruning_subsumed_subscriptions() {
        let topo = Topology::line(4);
        let schema = stock_schema();
        // Broker 0 first registers a broad subscription, then a narrower
        // one the broad one covers: the second never leaves broker 0.
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
        let subs = vec![vec![broad, narrow], vec![], vec![], vec![]];
        let out = propagate_content(&topo, &schema, &subs, 4);
        // Only the broad subscription floods: 3 links.
        assert_eq!(out.hops(), 3);
        assert_eq!(out.stored_subs, vec![2, 1, 1, 1]);
    }

    #[test]
    fn content_no_covering_means_full_flood() {
        let topo = Topology::line(3);
        let schema = stock_schema();
        let a = Subscription::builder(&schema)
            .num("price", NumOp::Lt, 1.0)
            .unwrap()
            .build()
            .unwrap();
        let b = Subscription::builder(&schema)
            .num("price", NumOp::Gt, 5.0)
            .unwrap()
            .build()
            .unwrap();
        let subs = vec![vec![a], vec![b], vec![]];
        let out = propagate_content(&topo, &schema, &subs, 4);
        // Each floods its own spanning tree fully: 2 + 2 hops.
        assert_eq!(out.hops(), 4);
    }

    #[test]
    fn content_cross_source_covering() {
        // A covering subscription from one source prunes a later one from
        // another source on shared links.
        let topo = Topology::line(3);
        let schema = stock_schema();
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
        // Source 0 floods broad over links (0→1), (1→2). Source 1's
        // narrow is then pruned on (1→2) but still sent on (1→0), which
        // has not carried a covering subscription in that direction.
        let subs = vec![vec![broad], vec![narrow], vec![]];
        let out = propagate_content(&topo, &schema, &subs, 4);
        assert_eq!(out.hops(), 2 + 1);
        assert_eq!(out.stored_subs, vec![1 + 1, 1 + 1, 1]);
    }

    #[test]
    fn deterministic_under_seed() {
        let topo = Topology::cable_wireless_24();
        let params = SienaParams {
            subsumption_max: 0.5,
            sub_size: 50,
        };
        let a = propagate_probabilistic(&topo, 10, params, &mut StdRng::seed_from_u64(9));
        let b = propagate_probabilistic(&topo, 10, params, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.hops(), b.hops());
        assert_eq!(a.stored_subs, b.stored_subs);
    }
}
