//! Siena-style event routing: reverse-path forwarding (reconstruction).
//!
//! In Siena, "the routing paths for events are set by subscriptions, which
//! are propagated throughout the network from neighbor to neighbor ...
//! when a producer publishes an event matching the subscription, the event
//! is routed following the reverse path put in place by the subscription's
//! propagation" (paper §5.2.2). A subscription from broker `m` floods
//! `m`'s spanning tree, so the reverse path from a publisher `p` to `m` is
//! the tree path `p → m` in the spanning tree rooted at `m`. An event
//! matching several brokers travels the union of those paths, each link
//! carrying the event once.

use std::collections::BTreeSet;

use subsum_net::{NodeId, Topology};
use subsum_telemetry::Stage;

static STAGE_ROUTE: Stage = Stage::new(subsum_telemetry::names::SIENA_ROUTE);

/// The links an event traverses to reach all matched brokers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReversePathRoute {
    /// Undirected links carrying the event (each counted once).
    pub links: BTreeSet<(NodeId, NodeId)>,
}

impl ReversePathRoute {
    /// The event-routing hop count: one hop per link traversal.
    pub fn hops(&self) -> usize {
        self.links.len()
    }
}

/// Computes the reverse-path route for an event published at `publisher`
/// that matches the subscriptions of `matched` brokers.
///
/// # Panics
///
/// Panics if any broker id is out of range.
pub fn reverse_path_route(
    topology: &Topology,
    publisher: NodeId,
    matched: &[NodeId],
) -> ReversePathRoute {
    let _span = STAGE_ROUTE.start();
    let mut links = BTreeSet::new();
    for &m in matched {
        if m == publisher {
            continue; // local delivery, no network traversal
        }
        // The subscription of `m` flooded the spanning tree rooted at
        // `m`; the event retraces the tree path from the publisher back
        // to `m`.
        let parent = topology.shortest_path_tree(m);
        let path = Topology::path_to_root(&parent, publisher);
        for pair in path.windows(2) {
            let (a, b) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
            links.insert((a, b));
        }
    }
    ReversePathRoute { links }
}

/// Siena event routing over *subsumption-pruned* subscription state.
///
/// Under the paper's probabilistic model, broker `m`'s subscription only
/// reaches a pruned subtree of `m`'s spanning tree; elsewhere, covering
/// subscriptions stand in for it. An event published outside `m`'s
/// pruned region first travels along covering state until it reaches a
/// broker that still holds `m`'s subscription (modeled as the nearest
/// such broker), and only then follows `m`'s reverse path — the detour
/// that makes Siena's low-popularity hop counts worse than the
/// idealized shortest reverse paths of [`reverse_path_route`].
#[derive(Debug, Clone)]
pub struct SienaEventRouting {
    /// The overlay; its derived distance matrix steers the detours.
    topology: Topology,
    /// Per-source spanning tree (parent pointers toward the source).
    trees: Vec<Vec<Option<NodeId>>>,
    /// `reach[m][v]`: does broker `v` hold `m`'s subscription state?
    reach: Vec<Vec<bool>>,
}

impl SienaEventRouting {
    /// Builds routing state by flooding every broker's subscription over
    /// its spanning tree with per-broker pruning probability
    /// `p_B = subsumption_max · degree(B)/max_degree` (the same process
    /// as [`propagate_probabilistic`](crate::propagate_probabilistic)).
    pub fn build<R: rand::Rng>(topology: &Topology, subsumption_max: f64, rng: &mut R) -> Self {
        let n = topology.len();
        let mut trees = Vec::with_capacity(n);
        let mut reach = Vec::with_capacity(n);
        for m in 0..n as NodeId {
            let parent = topology.shortest_path_tree(m);
            let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
            for v in 0..n as NodeId {
                if let Some(p) = parent[v as usize] {
                    children[p as usize].push(v);
                }
            }
            let mut reached = vec![false; n];
            reached[m as usize] = true;
            let mut queue = vec![m];
            while let Some(v) = queue.pop() {
                let p_v = crate::broker_subsumption_probability(topology, v, subsumption_max);
                for &c in &children[v as usize] {
                    if rng.gen::<f64>() < p_v {
                        continue;
                    }
                    reached[c as usize] = true;
                    queue.push(c);
                }
            }
            trees.push(parent);
            reach.push(reached);
        }
        SienaEventRouting {
            topology: topology.clone(),
            trees,
            reach,
        }
    }

    /// Routes an event from `publisher` to every broker in `matched`,
    /// returning the union of traversed links.
    pub fn route(&self, publisher: NodeId, matched: &[NodeId]) -> ReversePathRoute {
        let _span = STAGE_ROUTE.start();
        let mut links = BTreeSet::new();
        let mut add = |a: NodeId, b: NodeId| {
            links.insert((a.min(b), a.max(b)));
        };
        for &m in matched {
            if m == publisher {
                continue;
            }
            let reach = &self.reach[m as usize];
            // Entry point: the publisher itself if it holds m's state,
            // else the nearest broker that does (m itself always does).
            let entry = if reach[publisher as usize] {
                publisher
            } else {
                let from_publisher = self.topology.distances(publisher);
                (0..self.topology.len() as NodeId)
                    .filter(|&v| reach[v as usize])
                    .min_by_key(|&v| (from_publisher[v as usize], v))
                    .expect("the source always holds its own state")
            };
            // Detour: covering state carries the event to the entry
            // broker along a shortest overlay path.
            let to_entry = self.topology.distances(entry);
            let mut cur = publisher;
            while cur != entry {
                let d = to_entry[cur as usize];
                let next = self
                    .topology
                    .neighbors(cur)
                    .iter()
                    .copied()
                    .find(|&nb| to_entry[nb as usize] == d - 1)
                    .expect("BFS distances admit a descending neighbor");
                add(cur, next);
                cur = next;
            }
            // Reverse path from the entry broker to m along m's tree.
            let path = Topology::path_to_root(&self.trees[m as usize], entry);
            for pair in path.windows(2) {
                add(pair[0], pair[1]);
            }
        }
        ReversePathRoute { links }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn single_target_costs_shortest_path() {
        let topo = Topology::fig7_tree();
        let route = reverse_path_route(&topo, 0, &[12]);
        assert_eq!(route.hops() as u32, topo.distances(0)[12]);
    }

    #[test]
    fn local_match_costs_nothing() {
        let topo = Topology::fig7_tree();
        let route = reverse_path_route(&topo, 3, &[3]);
        assert_eq!(route.hops(), 0);
    }

    #[test]
    fn shared_prefix_counted_once() {
        let topo = Topology::fig7_tree();
        // Nodes 11 and 12 share the path through node 10 from node 0.
        let both = reverse_path_route(&topo, 0, &[11, 12]).hops();
        let sum = topo.distances(0)[11] as usize + topo.distances(0)[12] as usize;
        assert!(both < sum);
        let one = reverse_path_route(&topo, 0, &[11]).hops();
        assert_eq!(both, one + 1);
    }

    #[test]
    fn all_brokers_bounded_by_links_needed() {
        let topo = Topology::cable_wireless_24();
        let all: Vec<NodeId> = (1..24).collect();
        let route = reverse_path_route(&topo, 0, &all);
        // On a general graph the union of per-target shortest paths can
        // use at most every edge once and must reach every broker.
        assert!(route.hops() >= 23);
        assert!(route.hops() <= topo.edge_count());
    }

    #[test]
    fn duplicated_targets_do_not_double_count() {
        let topo = Topology::line(5);
        let a = reverse_path_route(&topo, 0, &[4]);
        let b = reverse_path_route(&topo, 0, &[4, 4, 4]);
        assert_eq!(a, b);
        assert_eq!(a.hops(), 4);
    }

    #[test]
    fn pruned_routing_without_pruning_equals_ideal() {
        let topo = Topology::cable_wireless_24();
        let mut rng = StdRng::seed_from_u64(5);
        let state = SienaEventRouting::build(&topo, 0.0, &mut rng);
        for publisher in [0u16, 7, 23] {
            for matched in [vec![3u16], vec![1, 13, 22], vec![2, 5, 9, 17]] {
                let ideal = reverse_path_route(&topo, publisher, &matched);
                let pruned = state.route(publisher, &matched);
                assert_eq!(ideal.hops(), pruned.hops());
            }
        }
    }

    #[test]
    fn pruning_introduces_detours() {
        let topo = Topology::cable_wireless_24();
        let mut rng = StdRng::seed_from_u64(6);
        let state = SienaEventRouting::build(&topo, 0.9, &mut rng);
        let mut ideal_total = 0usize;
        let mut pruned_total = 0usize;
        for publisher in 0..24u16 {
            for m in 0..24u16 {
                if m == publisher {
                    continue;
                }
                ideal_total += reverse_path_route(&topo, publisher, &[m]).hops();
                pruned_total += state.route(publisher, &[m]).hops();
            }
        }
        assert!(
            pruned_total > ideal_total,
            "heavy pruning should lengthen paths: {pruned_total} vs {ideal_total}"
        );
    }

    #[test]
    fn pruned_routing_reaches_every_target() {
        // The route must end at each matched broker: its final tree link
        // touches the target.
        let topo = Topology::fig7_tree();
        let mut rng = StdRng::seed_from_u64(7);
        let state = SienaEventRouting::build(&topo, 0.5, &mut rng);
        for m in 1..13u16 {
            let route = state.route(0, &[m]);
            assert!(
                route.links.iter().any(|&(a, b)| a == m || b == m),
                "target {m} not reached: {:?}",
                route.links
            );
        }
    }

    #[test]
    fn pruned_routing_deterministic_under_seed() {
        let topo = Topology::ring(8);
        let a = SienaEventRouting::build(&topo, 0.5, &mut StdRng::seed_from_u64(9));
        let b = SienaEventRouting::build(&topo, 0.5, &mut StdRng::seed_from_u64(9));
        for p in 0..8u16 {
            assert_eq!(
                a.route(p, &[(p + 3) % 8]).links,
                b.route(p, &[(p + 3) % 8]).links
            );
        }
    }
}
