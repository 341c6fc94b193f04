//! Property-based tests for the overlay graph algorithms.

use std::collections::VecDeque;

use rand::check::check;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use subsum_net::{EventQueue, Topology};

fn random_topology(seed: u64, n: usize, extra: usize) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    Topology::random_connected(n.max(2), extra, &mut rng)
}

/// Hop distances are symmetric, zero on the diagonal and satisfy the
/// triangle inequality.
#[test]
fn distances_are_a_metric() {
    check("distances_are_a_metric", 256, |g| {
        let seed = g.gen_range(0u64..1000);
        let n = g.gen_range(2usize..30);
        let extra = g.gen_range(0usize..10);
        let t = random_topology(seed, n, extra);
        let d = |a: usize, b: usize| t.distances(a as u16)[b];
        let n = t.len();
        for a in 0..n {
            assert_eq!(d(a, a), 0);
            for b in 0..n {
                assert_eq!(d(a, b), d(b, a));
                for c in 0..n {
                    assert!(d(a, c) <= d(a, b) + d(b, c));
                }
            }
        }
    });
}

/// BFS from `from` over the topology's adjacency, independent of the
/// matrix the topology derives at construction.
fn bfs(t: &Topology, from: u16) -> Vec<u32> {
    let mut dist = vec![u32::MAX; t.len()];
    dist[from as usize] = 0;
    let mut queue = VecDeque::from([from]);
    while let Some(v) = queue.pop_front() {
        for &w in t.neighbors(v) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dist[v as usize] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Every cached distance row equals a fresh BFS from that broker, and
/// the diameter and mean distance the matrix yields agree with it.
#[test]
fn cached_rows_equal_bfs() {
    check("cached_rows_equal_bfs", 256, |g| {
        let seed = g.gen_range(0u64..1000);
        let n = g.gen_range(2usize..30);
        let extra = g.gen_range(0usize..10);
        let t = random_topology(seed, n, extra);
        let n = t.len();
        let rows: Vec<Vec<u32>> = (0..n as u16).map(|v| bfs(&t, v)).collect();
        for (v, row) in rows.iter().enumerate() {
            assert_eq!(t.distances(v as u16), &row[..], "row {v}");
        }
        let all = rows.iter().flatten().copied();
        assert_eq!(t.diameter(), all.clone().max().unwrap());
        let total: u64 = all.map(u64::from).sum();
        assert_eq!(
            t.mean_pairwise_distance(),
            total as f64 / (n as f64 * (n as f64 - 1.0))
        );
    });
}

/// Spanning-tree paths to the root have exactly the BFS length, and
/// every non-root node has a parent one hop closer to the root.
#[test]
fn spanning_tree_is_shortest() {
    check("spanning_tree_is_shortest", 256, |g| {
        let seed = g.gen_range(0u64..1000);
        let n = g.gen_range(2usize..30);
        let extra = g.gen_range(0usize..10);
        let root_pick = g.gen_range(0usize..30);
        let t = random_topology(seed, n, extra);
        let root = (root_pick % t.len()) as u16;
        let parent = t.shortest_path_tree(root);
        let dist = t.distances(root);
        for v in 0..t.len() as u16 {
            let path = Topology::path_to_root(&parent, v);
            assert_eq!(path.len() as u32, dist[v as usize] + 1);
            assert_eq!(*path.last().unwrap(), root);
            if let Some(p) = parent[v as usize] {
                assert_eq!(dist[p as usize] + 1, dist[v as usize]);
                assert!(t.neighbors(v).contains(&p));
            } else {
                assert_eq!(v, root);
            }
        }
    });
}

/// The event queue is a stable priority queue.
#[test]
fn event_queue_ordering() {
    check("event_queue_ordering", 256, |g| {
        let times = g.vec(1..60, |g| g.gen_range(0u64..50));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut popped: Vec<(u64, usize)> = Vec::new();
        while let Some(x) = q.pop() {
            popped.push(x);
        }
        assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    });
}

/// Edge iteration is consistent with degrees.
#[test]
fn handshake_lemma() {
    check("handshake_lemma", 256, |g| {
        let seed = g.gen_range(0u64..1000);
        let n = g.gen_range(2usize..40);
        let t = random_topology(seed, n, n / 2);
        let degree_sum: usize = (0..t.len() as u16).map(|v| t.degree(v)).sum();
        assert_eq!(degree_sum, 2 * t.edge_count());
    });
}
