//! Property-based tests for the distributed algorithms: Algorithm 2
//! coverage and Algorithm 3 delivery exactness on random topologies and
//! random interest sets.

use std::cmp::Reverse;
use std::collections::VecDeque;

use rand::check::check;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use subsum_broker::{
    propagate, route_event, MergedSummary, Notification, RoutingOptions, RoutingOutcome,
    SummaryPubSub,
};
use subsum_core::{ArithWidth, BrokerSummary, MatchScratch, SummaryCodec};
use subsum_net::{NetMetrics, NodeId, Topology};
use subsum_types::{
    AttrKind, BrokerId, Event, IdLayout, LocalSubId, Schema, StrOp, Subscription, SubscriptionId,
};

fn random_topology(seed: u64, n: usize) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    Topology::random_connected(n.max(2), n / 3, &mut rng)
}

fn tag_schema() -> Schema {
    Schema::builder()
        .attr("tag", AttrKind::String)
        .unwrap()
        .build()
}

fn marker_sub(schema: &Schema, b: NodeId) -> Subscription {
    Subscription::builder(schema)
        .str_op("tag", StrOp::Contains, &format!("<b{b}>"))
        .unwrap()
        .build()
        .unwrap()
}

fn marker_event(schema: &Schema, matched: &[NodeId]) -> Event {
    let tag: String = matched.iter().map(|b| format!("<b{b}>")).collect();
    Event::builder(schema).str("tag", tag).unwrap().build()
}

/// Deep structural validation of a broker summary; the validator only
/// exists in debug builds when called from an integration test, so
/// release-mode runs skip it rather than fail to compile.
fn check_invariants(summary: &BrokerSummary) {
    #[cfg(debug_assertions)]
    summary.validate();
    #[cfg(not(debug_assertions))]
    let _ = summary;
}

/// Algorithm 2 on arbitrary connected topologies: every broker's set
/// contains itself, hops never exceed the broker count, and every
/// broker's subscriptions end up inside the stored summary of every
/// broker whose `Merged_Brokers` set claims them.
#[test]
fn propagation_claims_are_backed_by_content() {
    check("propagation_claims_are_backed_by_content", 48, |g| {
        let seed = g.gen_range(0u64..500);
        let n = g.gen_range(2usize..25);
        let topology = random_topology(seed, n);
        let n = topology.len();
        let schema = tag_schema();
        let layout = IdLayout::new(n as u64, 4, 1).unwrap();
        let codec = SummaryCodec::new(layout, ArithWidth::Four);
        let own: Vec<BrokerSummary> = (0..n as NodeId)
            .map(|b| {
                let mut s = BrokerSummary::new(schema.clone());
                s.insert(BrokerId(b), LocalSubId(0), &marker_sub(&schema, b));
                s
            })
            .collect();
        let out = propagate(&topology, &own, &codec).unwrap();
        assert!(out.covers_all_brokers());
        assert!(out.hops() <= n as u64);
        for (b, stored) in out.stored.iter().enumerate() {
            // Every hop of Algorithm 2 merges decoded summaries, so the
            // stored result exercises merge + wire round-trip; validate
            // each one deeply.
            check_invariants(&stored.summary);
            assert!(stored.merged_brokers.contains(&(b as NodeId)));
            let ids = stored.summary.subscription_ids();
            for &claimed in &stored.merged_brokers {
                assert!(
                    ids.iter().any(|id| id.broker.0 == claimed),
                    "broker {b} claims {claimed} but lacks its subscription"
                );
            }
        }
    });
}

/// Algorithm 3 notifies exactly the matched brokers, from any
/// publisher, with visit count bounded by the broker count.
#[test]
fn routing_is_exact_and_bounded() {
    check("routing_is_exact_and_bounded", 48, |g| {
        let seed = g.gen_range(0u64..500);
        let n = g.gen_range(2usize..25);
        let raw_matched = g.vec(1..6, |g| g.gen_range(0usize..25));
        let raw_pub = g.gen_range(0usize..25);
        let topology = random_topology(seed, n);
        let n = topology.len();
        let schema = tag_schema();
        let layout = IdLayout::new(n as u64, 4, 1).unwrap();
        let codec = SummaryCodec::new(layout, ArithWidth::Four);
        let own: Vec<BrokerSummary> = (0..n as NodeId)
            .map(|b| {
                let mut s = BrokerSummary::new(schema.clone());
                s.insert(BrokerId(b), LocalSubId(0), &marker_sub(&schema, b));
                s
            })
            .collect();
        let stored = propagate(&topology, &own, &codec).unwrap().stored;
        for s in &stored {
            check_invariants(&s.summary);
        }
        let mut matched: Vec<NodeId> = raw_matched.iter().map(|&x| (x % n) as NodeId).collect();
        matched.sort_unstable();
        matched.dedup();
        let publisher = (raw_pub % n) as NodeId;
        let event = marker_event(&schema, &matched);
        let out = route_event(
            &topology,
            &stored,
            publisher,
            &event,
            50,
            &RoutingOptions::new(),
        );
        let mut owners: Vec<NodeId> = out.notifications.iter().map(|x| x.owner).collect();
        owners.sort_unstable();
        owners.dedup();
        assert_eq!(owners, matched);
        assert!(out.visits.len() <= n);
        // No broker is visited twice.
        let mut v = out.visits.clone();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), out.visits.len());
    });
}

/// A fresh BFS from `from`, independent of the matrix the topology
/// derives at construction.
fn bfs(topology: &Topology, from: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; topology.len()];
    dist[from as usize] = 0;
    let mut queue = VecDeque::from([from]);
    while let Some(v) = queue.pop_front() {
        for &w in topology.neighbors(v) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dist[v as usize] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Algorithm 3 computed the slow way: a BFS for every next-hop choice
/// and for every notification, with its own BROCLI bookkeeping and
/// owner grouping. Untraced, so every notification's span is 0.
fn reference_route(
    topology: &Topology,
    stored: &[MergedSummary],
    publisher: NodeId,
    event: &Event,
    event_bytes: usize,
    options: &RoutingOptions,
) -> RoutingOutcome {
    let n = topology.len();
    let degree = |v: NodeId| match &options.virtual_degrees {
        Some(d) => d[v as usize],
        None => topology.degree(v),
    };
    let mut out = RoutingOutcome {
        metrics: NetMetrics::new(n),
        ..RoutingOutcome::default()
    };
    let mut scratch = MatchScratch::new();
    let mut brocli = vec![false; n];
    let mut clock = 0u64;
    let mut current = publisher;
    loop {
        out.visits.push(current);
        let here = &stored[current as usize];
        let unexamined: Vec<SubscriptionId> = here
            .summary
            .match_event_into(event, &mut scratch)
            .matched
            .iter()
            .filter(|id| !brocli[id.broker.index()])
            .copied()
            .collect();
        brocli[current as usize] = true;
        for &b in &here.merged_brokers {
            brocli[b as usize] = true;
        }

        let mut owners: Vec<NodeId> = unexamined.iter().map(|id| id.broker.0).collect();
        owners.dedup();
        for owner in owners {
            let eta = if owner == current {
                clock
            } else {
                let d = bfs(topology, current)[owner as usize];
                out.metrics.record(current, owner, event_bytes, d);
                out.notify_hops += 1;
                clock + u64::from(d)
            };
            let run = unexamined.iter().filter(|id| id.broker.0 == owner);
            out.notifications.extend(run.map(|&id| Notification {
                found_at: current,
                owner,
                id,
                eta,
                span: 0,
            }));
        }

        let dist = bfs(topology, current);
        let next = (0..n as NodeId)
            .filter(|&v| !brocli[v as usize])
            .min_by_key(|&v| (Reverse(degree(v)), dist[v as usize], v));
        let Some(next) = next else { break };
        let hop_len = dist[next as usize];
        out.metrics
            .record(current, next, event_bytes + n.div_ceil(8), hop_len);
        out.forward_hops += 1;
        clock += u64::from(hop_len.max(1));
        current = next;
    }
    out
}

/// Routing over the topology's cached distance rows is exactly the
/// BFS-per-hop reference: same visits, hop counts, notifications (with
/// their arrival ticks) and traffic counters, with true or capped
/// virtual degrees.
#[test]
fn routing_matches_bfs_reference() {
    check("routing_matches_bfs_reference", 48, |g| {
        let seed = g.gen_range(0u64..500);
        let n = g.gen_range(2usize..25);
        let raw_matched = g.vec(0..8, |g| g.gen_range(0usize..25));
        let raw_pub = g.gen_range(0usize..25);
        let capped = g.gen::<bool>();
        let raw_cap = g.gen_range(0usize..25);
        let event_bytes = g.gen_range(1usize..200);
        let topology = random_topology(seed, n);
        let n = topology.len();
        let schema = tag_schema();
        let layout = IdLayout::new(n as u64, 4, 1).unwrap();
        let codec = SummaryCodec::new(layout, ArithWidth::Four);
        // Even brokers hold two ids for their marker, so an owner's run
        // can carry more than one notification.
        let own: Vec<BrokerSummary> = (0..n as NodeId)
            .map(|b| {
                let mut s = BrokerSummary::new(schema.clone());
                s.insert(BrokerId(b), LocalSubId(0), &marker_sub(&schema, b));
                if b % 2 == 0 {
                    s.insert(BrokerId(b), LocalSubId(1), &marker_sub(&schema, b));
                }
                s
            })
            .collect();
        let stored = propagate(&topology, &own, &codec).unwrap().stored;
        let matched: Vec<NodeId> = raw_matched.iter().map(|&x| (x % n) as NodeId).collect();
        let publisher = (raw_pub % n) as NodeId;
        let options = if capped {
            let cap = 1 + raw_cap % topology.max_degree();
            RoutingOptions::with_virtual_degrees(&topology, cap)
        } else {
            RoutingOptions::new()
        };
        let event = marker_event(&schema, &matched);
        let got = route_event(&topology, &stored, publisher, &event, event_bytes, &options);
        let want = reference_route(&topology, &stored, publisher, &event, event_bytes, &options);
        assert_eq!(got, want);
    });
}

/// End-to-end: deliveries equal the oracle even under the §6
/// subsumption filter, on random topologies.
#[test]
fn system_with_filter_equals_oracle() {
    check("system_with_filter_equals_oracle", 48, |g| {
        let seed = g.gen_range(0u64..200);
        let n = g.gen_range(2usize..12);
        let filter = g.gen::<bool>();
        let topology = random_topology(seed, n);
        let n = topology.len();
        let schema = tag_schema();
        let mut sys = SummaryPubSub::new(topology, schema.clone(), 64).unwrap();
        sys.set_subsumption_filter(filter);
        // Broker b watches its own marker; half the brokers also watch
        // the universal containment (covering everything).
        for b in 0..n as NodeId {
            sys.subscribe(b, &marker_sub(&schema, b)).unwrap();
            if b % 2 == 0 {
                let broad = Subscription::builder(&schema)
                    .str_op("tag", StrOp::Contains, "<b")
                    .unwrap()
                    .build()
                    .unwrap();
                sys.subscribe(b, &broad).unwrap();
            }
        }
        sys.propagate().unwrap();
        let matched: Vec<NodeId> = (0..n as NodeId).filter(|b| b % 3 == 0).collect();
        let event = marker_event(&schema, &matched);
        for publisher in 0..n as NodeId {
            let out = sys.publish(publisher, &event);
            let mut got: Vec<_> = out.deliveries.iter().map(|d| d.id).collect();
            got.sort();
            got.dedup();
            assert_eq!(got, sys.oracle_matches(&event));
        }
    });
}
