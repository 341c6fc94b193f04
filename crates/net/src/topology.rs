//! Broker overlay topologies.
//!
//! The paper's experiments run on "a number of real and artificial
//! topologies", reporting results for an overlay like the 24-node backbone
//! of Cable & Wireless plc (§5.2 "Tested Topologies"). This module
//! provides:
//!
//! * [`Topology::cable_wireless_24`] — a representative 24-node ISP
//!   backbone model (the original C&W map is no longer published; see
//!   DESIGN.md for the substitution rationale);
//! * [`Topology::fig7_tree`] — the exact 13-broker tree of the paper's
//!   Fig. 7 worked example;
//! * artificial families: lines, rings, stars, balanced trees, grids,
//!   connected random graphs and Barabási–Albert preferential attachment.

use std::collections::VecDeque;
use std::fmt;

use rand::seq::SliceRandom;
use rand::Rng;

/// Identifier of a broker inside a [`Topology`] (mirrors
/// `subsum_types::BrokerId`; kept as a plain index here so the network
/// substrate has no dependency on the type layer).
pub type NodeId = u16;

/// Errors from topology construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// An edge referenced a node outside `0..n`.
    NodeOutOfRange(NodeId),
    /// An edge connected a node to itself.
    SelfLoop(NodeId),
    /// The graph is not connected.
    Disconnected,
    /// A topology must have at least one node.
    Empty,
    /// More brokers than [`Topology::MAX_BROKERS`].
    TooLarge(usize),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NodeOutOfRange(v) => write!(f, "edge endpoint {v} out of range"),
            TopologyError::SelfLoop(v) => write!(f, "self loop at node {v}"),
            TopologyError::Disconnected => write!(f, "topology is not connected"),
            TopologyError::Empty => write!(f, "topology has no nodes"),
            TopologyError::TooLarge(n) => write!(
                f,
                "topology of {n} brokers exceeds the limit of {}",
                Topology::MAX_BROKERS
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An undirected, connected broker overlay graph.
///
/// The overlay is fixed for the value's lifetime, so construction also
/// derives its all-pairs hop-distance matrix (n² `u32`, 2.3 KB on the
/// 24-node backbone): [`Topology::distances`] is a row lookup, never a
/// BFS.
///
/// # Example
///
/// ```
/// use subsum_net::Topology;
/// let t = Topology::fig7_tree();
/// assert_eq!(t.len(), 13);
/// assert_eq!(t.max_degree(), 5);
/// // Paper: node 5 (0-based 4) is the degree-5 hub.
/// assert_eq!(t.degree(4), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    adj: Vec<Vec<NodeId>>,
    /// Row-major hop distances derived from `adj`: `dist[a * n + b]` is
    /// the BFS distance from `a` to `b`.
    dist: Vec<u32>,
}

impl Topology {
    /// The most brokers a topology may have: its distance matrix is then
    /// 64 MiB. Every named topology is far below it (the largest,
    /// [`Topology::isp_backbone_33`], has 33), and a count read from
    /// outside input cannot ask for more.
    pub const MAX_BROKERS: usize = 4096;

    /// Builds a topology from an edge list over nodes `0..n`, deriving
    /// its hop-distance matrix with one BFS per broker (n² `u32`).
    ///
    /// # Errors
    ///
    /// Rejects empty graphs, more than [`Topology::MAX_BROKERS`] nodes
    /// (before allocating anything), out-of-range endpoints, self loops
    /// and disconnected graphs. Duplicate edges are ignored.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, TopologyError> {
        if n == 0 {
            return Err(TopologyError::Empty);
        }
        if n > Self::MAX_BROKERS {
            return Err(TopologyError::TooLarge(n));
        }
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a as usize >= n {
                return Err(TopologyError::NodeOutOfRange(a));
            }
            if b as usize >= n {
                return Err(TopologyError::NodeOutOfRange(b));
            }
            if a == b {
                return Err(TopologyError::SelfLoop(a));
            }
            if !adj[a as usize].contains(&b) {
                adj[a as usize].push(b);
                adj[b as usize].push(a);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        // Row 0 decides connectivity before the other n − 1 rows are paid for.
        let mut dist = Vec::new();
        push_bfs_row(&adj, 0, &mut dist);
        if dist.contains(&u32::MAX) {
            return Err(TopologyError::Disconnected);
        }
        dist.reserve_exact(n * (n - 1));
        for from in 1..n as NodeId {
            push_bfs_row(&adj, from, &mut dist);
        }
        Ok(Topology { adj, dist })
    }

    /// The number of brokers.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Returns `true` if the topology has no nodes (unreachable through
    /// the constructors).
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// The neighbors of `v`, sorted.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v as usize]
    }

    /// The degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v as usize].len()
    }

    /// The maximum degree over all brokers (the iteration count of the
    /// paper's Algorithm 2).
    pub fn max_degree(&self) -> usize {
        (0..self.len() as NodeId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Iterates over all undirected edges `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj.iter().enumerate().flat_map(|(a, list)| {
            list.iter()
                .filter(move |&&b| (a as NodeId) < b)
                .map(move |&b| (a as NodeId, b))
        })
    }

    /// The number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges().count()
    }

    /// Whether every broker can reach every other (always, for a
    /// constructed topology).
    pub fn is_connected(&self) -> bool {
        !self.is_empty() && !self.distances(0).contains(&u32::MAX)
    }

    /// The hop distances from `from` to every broker: row `from` of the
    /// matrix derived at construction.
    pub fn distances(&self, from: NodeId) -> &[u32] {
        let n = self.len();
        let start = from as usize * n;
        &self.dist[start..start + n]
    }

    /// The mean hop distance over all ordered pairs of distinct brokers —
    /// the `average number of hops` of the paper's broadcast cost formula.
    pub fn mean_pairwise_distance(&self) -> f64 {
        let n = self.len();
        if n < 2 {
            return 0.0;
        }
        let total: u64 = self.dist.iter().map(|&d| u64::from(d)).sum();
        total as f64 / (n as f64 * (n as f64 - 1.0))
    }

    /// The graph diameter in hops.
    pub fn diameter(&self) -> u32 {
        self.dist.iter().copied().max().unwrap_or(0)
    }

    /// A BFS shortest-path (spanning) tree rooted at `root`: `parent[v]`
    /// is `None` for the root and `Some(p)` otherwise. Ties resolve to
    /// the lowest-numbered parent, making trees deterministic — this is
    /// the per-source spanning tree of Siena's subscription propagation.
    pub fn shortest_path_tree(&self, root: NodeId) -> Vec<Option<NodeId>> {
        let mut parent = vec![None; self.len()];
        let mut seen = vec![false; self.len()];
        seen[root as usize] = true;
        let mut queue = VecDeque::from([root]);
        while let Some(v) = queue.pop_front() {
            for &w in self.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    parent[w as usize] = Some(v);
                    queue.push_back(w);
                }
            }
        }
        parent
    }

    /// The path from `v` to the root of a tree given by `parent`,
    /// inclusive of both endpoints.
    pub fn path_to_root(parent: &[Option<NodeId>], mut v: NodeId) -> Vec<NodeId> {
        let mut path = vec![v];
        while let Some(p) = parent[v as usize] {
            path.push(p);
            v = p;
        }
        path
    }

    /// Builds a named topology from edges valid by construction: every
    /// constructor below funnels through here, so this is the one place
    /// their `expect` lives.
    #[expect(
        clippy::expect_used,
        reason = "the named topologies' edges are valid by construction; \
                  only a family size of 0 or above MAX_BROKERS reaches it"
    )]
    fn named(n: usize, edges: &[(NodeId, NodeId)], what: &str) -> Self {
        Topology::from_edges(n, edges).expect(what)
    }

    // ------------------------------------------------------------------
    // Named topologies.
    // ------------------------------------------------------------------

    /// The 13-broker tree of the paper's Fig. 7 worked example (nodes are
    /// 0-based: paper broker *k* is node *k − 1*). Node 4 (paper's broker
    /// 5) is the degree-5 hub; nodes 7 and 10 (paper's 8 and 11) have
    /// degree 3.
    pub fn fig7_tree() -> Self {
        // Paper (1-based): 2-1, 2-5, 3-5, 4-5, 5-6, 5-7, 7-8, 8-9, 8-10,
        // 10-11, 11-12, 11-13.
        Topology::named(
            13,
            &[
                (1, 0),
                (1, 4),
                (2, 4),
                (3, 4),
                (4, 5),
                (4, 6),
                (6, 7),
                (7, 8),
                (7, 9),
                (9, 10),
                (10, 11),
                (10, 12),
            ],
            "fig7 tree is valid",
        )
    }

    /// A representative 24-node ISP backbone modeled on the US Cable &
    /// Wireless network used by the paper (hub-and-spoke continental
    /// backbone; max degree 8, mean degree ≈ 3.3).
    pub fn cable_wireless_24() -> Self {
        Topology::named(
            24,
            &[
                // Northeast hub (0) and neighbors.
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 5),
                (0, 8),
                (0, 20),
                (2, 3),
                (3, 4),
                (3, 8),
                (4, 8),
                // Southeast hub (8).
                (8, 9),
                (8, 10),
                (5, 8),
                (8, 18),
                // Midwest hub (5).
                (5, 6),
                (5, 7),
                (5, 10),
                (5, 12),
                (5, 17),
                (5, 18),
                // Southern hub (10).
                (9, 10),
                (9, 11),
                (10, 11),
                (10, 12),
                (10, 15),
                (10, 17),
                // Mountain hub (12).
                (12, 13),
                (12, 17),
                (12, 20),
                (12, 23),
                // West coast hubs (15, 20).
                (14, 15),
                (15, 16),
                (15, 20),
                (15, 23),
                (19, 20),
                (20, 21),
                (20, 22),
                (21, 22),
                (7, 21),
                (19, 23),
            ],
            "backbone topology is valid",
        )
    }

    /// A larger 33-node ISP backbone model (the paper cites single-ISP
    /// CDNs "which number from 20 to 33 backbone nodes", naming Cable &
    /// Wireless and AT&T): three regional hub clusters with redundant
    /// inter-region trunks, max degree 7.
    pub fn isp_backbone_33() -> Self {
        Topology::named(
            33,
            &[
                // East region: hub 0 with a secondary hub 4.
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (4, 5),
                (4, 6),
                (4, 7),
                (2, 3),
                (6, 7),
                (5, 8),
                (8, 9),
                // Central region: hub 11 with secondary hub 15.
                (11, 10),
                (11, 12),
                (11, 13),
                (11, 14),
                (11, 15),
                (15, 16),
                (15, 17),
                (15, 18),
                (13, 14),
                (17, 18),
                (16, 19),
                (19, 20),
                (12, 21),
                // West region: hub 22 with secondary hub 26.
                (22, 23),
                (22, 24),
                (22, 25),
                (22, 26),
                (26, 27),
                (26, 28),
                (26, 29),
                (24, 25),
                (28, 29),
                (27, 30),
                (30, 31),
                (29, 32),
                // Inter-region trunks (redundant pairs).
                (0, 11),
                (5, 10),
                (9, 13),
                (11, 22),
                (15, 26),
                (21, 24),
                (20, 23),
            ],
            "backbone topology is valid",
        )
    }

    /// A path of `n` brokers.
    pub fn line(n: usize) -> Self {
        let edges: Vec<_> = (1..n as NodeId).map(|v| (v - 1, v)).collect();
        Topology::named(n, &edges, "line is valid")
    }

    /// A cycle of `n ≥ 3` brokers.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "a ring needs at least 3 nodes");
        let mut edges: Vec<_> = (1..n as NodeId).map(|v| (v - 1, v)).collect();
        edges.push((n as NodeId - 1, 0));
        Topology::named(n, &edges, "ring is valid")
    }

    /// A star: broker 0 connected to all others.
    pub fn star(n: usize) -> Self {
        let edges: Vec<_> = (1..n as NodeId).map(|v| (0, v)).collect();
        Topology::named(n, &edges, "star is valid")
    }

    /// A balanced tree with the given branching factor and depth
    /// (depth 0 = a single root).
    pub fn balanced_tree(arity: usize, depth: usize) -> Self {
        assert!(arity >= 1);
        let mut edges = Vec::new();
        let mut next: NodeId = 1;
        let mut frontier = vec![0 as NodeId];
        for _ in 0..depth {
            let mut new_frontier = Vec::new();
            for &p in &frontier {
                for _ in 0..arity {
                    edges.push((p, next));
                    new_frontier.push(next);
                    next += 1;
                }
            }
            frontier = new_frontier;
        }
        Topology::named(next as usize, &edges, "balanced tree is valid")
    }

    /// A `w × h` grid.
    pub fn grid(w: usize, h: usize) -> Self {
        assert!(w >= 1 && h >= 1);
        let at = |x: usize, y: usize| (y * w + x) as NodeId;
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((at(x, y), at(x + 1, y)));
                }
                if y + 1 < h {
                    edges.push((at(x, y), at(x, y + 1)));
                }
            }
        }
        Topology::named(w * h, &edges, "grid is valid")
    }

    /// A connected random graph: a random spanning tree plus
    /// `extra_edges` uniformly random non-tree edges.
    pub fn random_connected<R: Rng>(n: usize, extra_edges: usize, rng: &mut R) -> Self {
        assert!(n >= 2);
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        order.shuffle(rng);
        let mut edges = Vec::with_capacity(n - 1 + extra_edges);
        for i in 1..n {
            let parent = order[rng.gen_range(0..i)];
            edges.push((parent, order[i]));
        }
        let mut added = 0;
        let mut guard = 0;
        while added < extra_edges && guard < extra_edges * 50 + 100 {
            guard += 1;
            let a = rng.gen_range(0..n as NodeId);
            let b = rng.gen_range(0..n as NodeId);
            if a != b && !edges.contains(&(a, b)) && !edges.contains(&(b, a)) {
                edges.push((a, b));
                added += 1;
            }
        }
        Topology::named(n, &edges, "random connected graph is valid")
    }

    /// Barabási–Albert preferential attachment: each new node attaches to
    /// `m` existing nodes with probability proportional to degree.
    pub fn barabasi_albert<R: Rng>(n: usize, m: usize, rng: &mut R) -> Self {
        assert!(m >= 1 && n > m);
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        // Endpoint multiset for preferential sampling.
        let mut endpoints: Vec<NodeId> = Vec::new();
        // Seed: a small clique of m + 1 nodes.
        for a in 0..=(m as NodeId) {
            for b in 0..a {
                edges.push((b, a));
                endpoints.push(a);
                endpoints.push(b);
            }
        }
        for v in (m as NodeId + 1)..n as NodeId {
            let mut chosen = Vec::with_capacity(m);
            let mut guard = 0;
            while chosen.len() < m && guard < 1000 {
                guard += 1;
                let pick = endpoints[rng.gen_range(0..endpoints.len())];
                if pick != v && !chosen.contains(&pick) {
                    chosen.push(pick);
                }
            }
            for &c in &chosen {
                edges.push((c, v));
                endpoints.push(c);
                endpoints.push(v);
            }
        }
        Topology::named(n, &edges, "BA graph is valid")
    }
}

/// Appends one row to a distance matrix under construction: the BFS hop
/// distances from `from` over `adj` (`u32::MAX` where unreachable).
fn push_bfs_row(adj: &[Vec<NodeId>], from: NodeId, dist: &mut Vec<u32>) {
    let start = dist.len();
    dist.resize(start + adj.len(), u32::MAX);
    let row = &mut dist[start..];
    row[from as usize] = 0;
    let mut queue = VecDeque::from([from]);
    while let Some(v) = queue.pop_front() {
        for &w in &adj[v as usize] {
            if row[w as usize] == u32::MAX {
                row[w as usize] = row[v as usize] + 1;
                queue.push_back(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fig7_tree_matches_paper() {
        let t = Topology::fig7_tree();
        assert_eq!(t.len(), 13);
        assert_eq!(t.edge_count(), 12);
        // Paper degrees (1-based broker k = node k-1):
        // degree 1: brokers 1, 3, 4, 6, 9, 12, 13.
        for b in [1u16, 3, 4, 6, 9, 12, 13] {
            assert_eq!(t.degree(b - 1), 1, "broker {b}");
        }
        // degree 2: brokers 2, 7, 10.
        for b in [2u16, 7, 10] {
            assert_eq!(t.degree(b - 1), 2, "broker {b}");
        }
        // degree 3: brokers 8, 11. degree 5: broker 5.
        assert_eq!(t.degree(7), 3);
        assert_eq!(t.degree(10), 3);
        assert_eq!(t.degree(4), 5);
        assert_eq!(t.max_degree(), 5);
    }

    #[test]
    fn cable_wireless_properties() {
        let t = Topology::cable_wireless_24();
        assert_eq!(t.len(), 24);
        assert!(t.is_connected());
        assert!(t.max_degree() >= 6 && t.max_degree() <= 8);
        let mean_deg = 2.0 * t.edge_count() as f64 / t.len() as f64;
        assert!((2.5..4.0).contains(&mean_deg), "mean degree {mean_deg}");
        assert!(t.diameter() <= 6);
    }

    #[test]
    fn isp_backbone_33_properties() {
        let t = Topology::isp_backbone_33();
        assert_eq!(t.len(), 33);
        assert!(t.is_connected());
        assert!(
            (5..=8).contains(&t.max_degree()),
            "max degree {}",
            t.max_degree()
        );
        let mean_deg = 2.0 * t.edge_count() as f64 / t.len() as f64;
        assert!((2.0..4.0).contains(&mean_deg), "mean degree {mean_deg}");
        assert!(t.diameter() <= 8, "diameter {}", t.diameter());
    }

    #[test]
    fn from_edges_validation() {
        assert_eq!(
            Topology::from_edges(0, &[]).unwrap_err(),
            TopologyError::Empty
        );
        assert_eq!(
            Topology::from_edges(2, &[(0, 2)]).unwrap_err(),
            TopologyError::NodeOutOfRange(2)
        );
        assert_eq!(
            Topology::from_edges(2, &[(1, 1)]).unwrap_err(),
            TopologyError::SelfLoop(1)
        );
        assert_eq!(
            Topology::from_edges(3, &[(0, 1)]).unwrap_err(),
            TopologyError::Disconnected
        );
        // Duplicate edges collapse.
        let t = Topology::from_edges(2, &[(0, 1), (1, 0)]).unwrap();
        assert_eq!(t.edge_count(), 1);
    }

    /// The edges of a path over nodes `0..n`.
    fn path_edges(n: usize) -> Vec<(NodeId, NodeId)> {
        (1..n).map(|v| ((v - 1) as NodeId, v as NodeId)).collect()
    }

    #[test]
    fn from_edges_refuses_more_than_max_brokers() {
        let n = Topology::MAX_BROKERS;
        assert_eq!(Topology::from_edges(n, &path_edges(n)).unwrap().len(), n);
        assert_eq!(
            Topology::from_edges(n + 1, &path_edges(n + 1)).unwrap_err(),
            TopologyError::TooLarge(n + 1)
        );
    }

    #[test]
    fn from_edges_refuses_a_count_past_node_ids() {
        // 65 536 nodes: node ids stop at 65 535, and the matrix would be
        // 16 GiB. Refused before either matters.
        let n = usize::from(NodeId::MAX) + 1;
        assert_eq!(
            Topology::from_edges(n, &path_edges(n)).unwrap_err(),
            TopologyError::TooLarge(n)
        );
    }

    #[test]
    fn distances_on_line() {
        let t = Topology::line(5);
        assert_eq!(t.distances(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(t.distances(2), vec![2, 1, 0, 1, 2]);
        assert_eq!(t.diameter(), 4);
        // Mean over ordered pairs of the line 0..5: 2·(1+2+3+4+1+2+3+...)/20 = 2.
        assert_eq!(t.mean_pairwise_distance(), 2.0);
    }

    #[test]
    fn ring_and_star() {
        let r = Topology::ring(6);
        assert_eq!(r.diameter(), 3);
        assert!(r.edges().count() == 6);
        let s = Topology::star(7);
        assert_eq!(s.degree(0), 6);
        assert_eq!(s.diameter(), 2);
        assert_eq!(s.max_degree(), 6);
    }

    #[test]
    fn balanced_tree_shape() {
        let t = Topology::balanced_tree(2, 3);
        assert_eq!(t.len(), 15);
        assert_eq!(t.edge_count(), 14);
        assert_eq!(t.degree(0), 2);
        assert_eq!(t.diameter(), 6);
    }

    #[test]
    fn grid_shape() {
        let g = Topology::grid(3, 4);
        assert_eq!(g.len(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4);
        assert_eq!(g.diameter(), 2 + 3);
    }

    #[test]
    fn spanning_tree_paths() {
        let t = Topology::fig7_tree();
        let parent = t.shortest_path_tree(0);
        // Node 0 (paper broker 1) reaches node 12 (broker 13) through
        // 1 → 2 → 5 → 7 → 8 → 11 → 13 in paper terms.
        let path = Topology::path_to_root(&parent, 12);
        assert_eq!(path.len() as u32, t.distances(0)[12] + 1);
        assert_eq!(*path.last().unwrap(), 0);
    }

    #[test]
    fn random_connected_is_connected() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [2usize, 5, 24, 60] {
            let t = Topology::random_connected(n, n / 2, &mut rng);
            assert_eq!(t.len(), n);
            assert!(t.is_connected());
            assert!(t.edge_count() >= n - 1);
        }
    }

    #[test]
    fn barabasi_albert_shape() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = Topology::barabasi_albert(50, 2, &mut rng);
        assert_eq!(t.len(), 50);
        assert!(t.is_connected());
        // Preferential attachment produces at least one well-connected hub.
        assert!(t.max_degree() >= 6);
    }

    #[test]
    fn all_pairs_symmetry() {
        let t = Topology::cable_wireless_24();
        for a in 0..t.len() as NodeId {
            let row = t.distances(a);
            for (b, &dist) in row.iter().enumerate() {
                assert_eq!(dist, t.distances(b as NodeId)[a as usize]);
            }
            assert_eq!(row[a as usize], 0);
        }
    }
}
