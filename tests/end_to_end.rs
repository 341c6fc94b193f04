//! Cross-crate integration tests: delivery completeness and exactness of
//! the whole system against an omniscient oracle, across topologies
//! and workloads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use subsum::broker::SummaryPubSub;
use subsum::net::Topology;
use subsum::types::{Event, Subscription, SubscriptionId};
use subsum::workload::{witness_event, PaperParams, StockFeed, Workload};

/// The ids `publisher`'s publish of `event` delivers, ascending.
fn delivered(sys: &SummaryPubSub, publisher: u16, event: &Event) -> Vec<SubscriptionId> {
    let out = sys.publish(publisher, event);
    let mut got: Vec<SubscriptionId> = out.deliveries.iter().map(|d| d.id).collect();
    got.sort();
    got
}

/// Witness events of resident subscriptions, each built to match what
/// it witnesses: one per subscription in `singles`, and one per pair of
/// subscriptions in `pool` held at two different brokers whose
/// constraints a single event can meet, up to `pairs` of those: routing
/// must reach both owners with one event.
fn witnesses(
    sys: &SummaryPubSub,
    singles: &[&Subscription],
    pool: &[(SubscriptionId, Subscription)],
    pairs: usize,
) -> Vec<Event> {
    let schema = sys.schema();
    let mut events: Vec<Event> = singles
        .iter()
        .map(|sub| witness_event(schema, sub).expect("a witness exists"))
        .collect();
    let wanted = events.len() + pairs;
    'search: for (i, (a, sub_a)) in pool.iter().enumerate() {
        for (b, sub_b) in &pool[i + 1..] {
            if events.len() == wanted {
                break 'search;
            }
            if a.broker == b.broker {
                continue;
            }
            let both = sub_a.constraints().iter().chain(sub_b.constraints());
            let both = Subscription::from_constraints(both.cloned().collect()).unwrap();
            events.extend(witness_event(schema, &both));
        }
    }
    events
}

/// Publishes each of `events` at every broker in `publishers` and
/// checks that the deliveries equal the oracle, which must not be
/// empty: an event that matches nothing is delivered exactly by any
/// routing. Returns how many of the events match subscriptions of two
/// or more brokers.
fn assert_delivered(
    sys: &SummaryPubSub,
    events: &[Event],
    publishers: std::ops::Range<u16>,
    context: &str,
) -> usize {
    let mut shared = 0;
    for event in events {
        let want = sys.oracle_matches(event);
        assert!(!want.is_empty(), "{context}: a witness matches nothing");
        if want.iter().any(|id| id.broker != want[0].broker) {
            shared += 1;
        }
        for publisher in publishers.clone() {
            let got = delivered(sys, publisher, event);
            assert_eq!(got, want, "{context}, witness from {publisher}");
        }
    }
    shared
}

/// Deliveries must equal the oracle (exact matches over all brokers) for
/// every event — completeness AND soundness after tier-2 verification.
#[test]
fn deliveries_equal_oracle_on_paper_workload() {
    let mut rng = StdRng::seed_from_u64(1);
    for topology in [
        Topology::fig7_tree(),
        Topology::cable_wireless_24(),
        Topology::grid(4, 3),
    ] {
        let n = topology.len();
        for &subsumption in &[0.1, 0.9] {
            let mut workload = Workload::new(PaperParams::default(), subsumption);
            let schema = workload.schema().clone();
            let mut sys = SummaryPubSub::new(topology.clone(), schema.clone(), 1000).unwrap();
            let mut resident = Vec::new();
            for b in 0..n as u16 {
                for sub in workload.subscriptions(20, &mut rng) {
                    resident.push((sys.subscribe(b, &sub).unwrap(), sub));
                }
            }
            sys.propagate().unwrap();
            for _ in 0..30 {
                let event = workload.event(0.8, &mut rng);
                let publisher = rng.gen_range(0..n as u16);
                let out = sys.publish(publisher, &event);
                let mut got: Vec<SubscriptionId> = out.deliveries.iter().map(|d| d.id).collect();
                got.sort();
                assert_eq!(
                    got,
                    sys.oracle_matches(&event),
                    "topology {n} nodes, p={subsumption}, publisher {publisher}"
                );
            }
            // Each broker's first subscription, and pairs of two
            // brokers' subscriptions, witnessed from everywhere.
            let firsts: Vec<_> = resident.iter().step_by(20).map(|(_, s)| s).collect();
            let events = witnesses(&sys, &firsts, &resident, 8);
            let context = format!("topology {n} nodes, p={subsumption}");
            let shared = assert_delivered(&sys, &events, 0..n as u16, &context);
            assert!(shared > 0, "{context}: no witness reaches two owners");
        }
    }
}

/// Deliveries equal the oracle on a realistic stock workload.
#[test]
fn deliveries_equal_oracle_on_stock_feed() {
    let mut feed = StockFeed::new();
    let schema = feed.schema().clone();
    let mut rng = StdRng::seed_from_u64(2);

    let mut sys = SummaryPubSub::new(Topology::cable_wireless_24(), schema, 1000).unwrap();
    for b in 0..24u16 {
        for _ in 0..4 {
            sys.subscribe(b, &feed.trader_subscription(&mut rng))
                .unwrap();
        }
    }
    sys.propagate().unwrap();

    for _ in 0..50 {
        let quote = feed.quote(&mut rng);
        let publisher = rng.gen_range(0..24u16);
        let out = sys.publish(publisher, &quote);
        let mut got: Vec<SubscriptionId> = out.deliveries.iter().map(|d| d.id).collect();
        got.sort();
        assert_eq!(got, sys.oracle_matches(&quote));
    }
}

/// Unsubscribing in the middle of a session never yields stale
/// deliveries, and re-propagation restores minimal state.
#[test]
fn churn_session() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut workload = Workload::new(PaperParams::default(), 0.5);
    let schema = workload.schema().clone();
    let mut sys = SummaryPubSub::new(Topology::ring(8), schema.clone(), 1000).unwrap();

    let mut live: Vec<SubscriptionId> = Vec::new();
    let mut resident = Vec::new();
    let mut shared = 0;
    for round in 0..5 {
        // Add a few subscriptions at random brokers.
        for _ in 0..10 {
            let b = rng.gen_range(0..8u16);
            let sub = workload.subscription(&mut rng);
            let id = sys.subscribe(b, &sub).unwrap();
            live.push(id);
            resident.push((id, sub));
        }
        // Remove a random third of what is live.
        live.retain(|&id| {
            if rng.gen::<f64>() < 0.33 {
                assert!(sys.unsubscribe(id));
                false
            } else {
                true
            }
        });
        sys.propagate().unwrap();
        for _ in 0..10 {
            let event = workload.event(0.8, &mut rng);
            let publisher = rng.gen_range(0..8u16);
            let out = sys.publish(publisher, &event);
            let mut got: Vec<SubscriptionId> = out.deliveries.iter().map(|d| d.id).collect();
            got.sort();
            assert_eq!(got, sys.oracle_matches(&event), "round {round}");
            for d in &out.deliveries {
                assert!(live.contains(&d.id), "stale delivery {:?}", d.id);
            }
        }
        // Every live subscription, and pairs of two brokers' live
        // subscriptions, witnessed from everywhere.
        resident.retain(|(id, _)| live.contains(id));
        let singles: Vec<_> = resident.iter().map(|(_, s)| s).collect();
        let events = witnesses(&sys, &singles, &resident, 8);
        shared += assert_delivered(&sys, &events, 0..8, &format!("round {round}"));
    }
    assert!(shared > 0, "no witness reaches two owners");
}

/// Propagation coverage and bounded hops hold on random topologies.
#[test]
fn random_topologies_coverage() {
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..5 {
        let n = rng.gen_range(4..40);
        let topology = Topology::random_connected(n, n / 3, &mut rng);
        let mut workload = Workload::new(PaperParams::default(), 0.5);
        let schema = workload.schema().clone();
        let mut sys = SummaryPubSub::new(topology, schema.clone(), 100).unwrap();
        let mut resident = Vec::new();
        for b in 0..n as u16 {
            let sub = workload.subscription(&mut rng);
            resident.push((sys.subscribe(b, &sub).unwrap(), sub));
        }
        let outcome = sys.propagate().unwrap();
        assert!(outcome.covers_all_brokers());
        assert!(outcome.hops() <= n as u64);
        let event = workload.event(0.9, &mut rng);
        let out = sys.publish(0, &event);
        let mut got: Vec<SubscriptionId> = out.deliveries.iter().map(|d| d.id).collect();
        got.sort();
        assert_eq!(got, sys.oracle_matches(&event));
        // Every broker's subscription, and pairs of two of them,
        // witnessed from everywhere.
        let singles: Vec<_> = resident.iter().map(|(_, s)| s).collect();
        let events = witnesses(&sys, &singles, &resident, 8);
        let shared = assert_delivered(&sys, &events, 0..n as u16, &format!("{n} brokers"));
        assert!(shared > 0, "{n} brokers: no witness reaches two owners");
    }
}

/// Incremental (delta) propagation: new subscriptions become visible,
/// old ones keep working, and the period's bandwidth tracks the batch
/// size rather than the outstanding population.
#[test]
fn incremental_propagation_periods() {
    use subsum::types::{NumOp, Subscription};
    let mut rng = StdRng::seed_from_u64(9);
    let mut workload = Workload::new(PaperParams::default(), 0.5);
    let schema = workload.schema().clone();
    let mut sys =
        SummaryPubSub::new(Topology::cable_wireless_24(), schema.clone(), 10_000).unwrap();

    // Period 0: a large base population, full propagation.
    for b in 0..24u16 {
        for sub in workload.subscriptions(100, &mut rng) {
            sys.subscribe(b, &sub).unwrap();
        }
    }
    let full_bytes = sys.propagate().unwrap().metrics.payload_bytes;

    // Period 1: a small batch, incremental propagation.
    let marker = Subscription::builder(&schema)
        .num("num0", NumOp::Eq, 777_777.0)
        .unwrap()
        .build()
        .unwrap();
    let marker_id = sys.subscribe(5, &marker).unwrap();
    for b in 0..24u16 {
        for sub in workload.subscriptions(2, &mut rng) {
            sys.subscribe(b, &sub).unwrap();
        }
    }
    let delta = sys.propagate_incremental().unwrap();
    assert!(
        delta.metrics.payload_bytes * 5 < full_bytes,
        "delta period ({}) should be far below the full period ({full_bytes})",
        delta.metrics.payload_bytes
    );

    // The new subscription is now reachable from anywhere…
    let event = Event::builder(&schema)
        .num("num0", 777_777.0)
        .unwrap()
        .build();
    for publisher in [0u16, 11, 23] {
        let out = sys.publish(publisher, &event);
        assert!(out.deliveries.iter().any(|d| d.id == marker_id));
    }
    // …and the whole system still matches the oracle.
    for _ in 0..20 {
        let event = workload.event(0.8, &mut rng);
        let publisher = rng.gen_range(0..24u16);
        let out = sys.publish(publisher, &event);
        let mut got: Vec<SubscriptionId> = out.deliveries.iter().map(|d| d.id).collect();
        got.sort();
        assert_eq!(got, sys.oracle_matches(&event));
    }

    // A second incremental period with nothing pending costs only the
    // near-empty summary skeletons.
    let idle = sys.propagate_incremental().unwrap();
    assert!(idle.metrics.payload_bytes < delta.metrics.payload_bytes);
}

/// A long incremental run over a small resident set: every period's 48
/// arrivals, two per broker, take spare slots at the end of their
/// broker's block in each stored summary, and with 16 residents a block
/// holds two spares, so every block runs out in the first period and is
/// respaced in the next, and again as it grows. After every period each
/// broker delivers exactly what the oracle finds, and each stored
/// summary holds exactly the own ids of the brokers it has merged.
#[test]
fn long_incremental_run_fills_and_respaces_every_block() {
    let mut rng = StdRng::seed_from_u64(39);
    let mut workload = Workload::new(PaperParams::default(), 0.5);
    let schema = workload.schema().clone();
    let mut sys =
        SummaryPubSub::new(Topology::cable_wireless_24(), schema.clone(), 10_000).unwrap();
    for b in 0..24u16 {
        for sub in workload.subscriptions(16, &mut rng) {
            sys.subscribe(b, &sub).unwrap();
        }
    }
    sys.propagate().unwrap();
    let events: Vec<Event> = (0..8).map(|_| workload.event(0.8, &mut rng)).collect();
    for period in 0..12 {
        let arrivals: Vec<_> = workload
            .subscriptions(48, &mut rng)
            .into_iter()
            .enumerate()
            .map(|(k, sub)| (sys.subscribe((k % 24) as u16, &sub).unwrap(), sub))
            .collect();
        sys.propagate_incremental().unwrap();
        // Five of the period's arrivals, at brokers 0, 11, 22, 9 and 20,
        // and pairs of two brokers' arrivals, witnessed from everywhere:
        // they sit in the slots just taken.
        let fresh: Vec<_> = arrivals.iter().step_by(11).map(|(_, s)| s).collect();
        let witnessed = witnesses(&sys, &fresh, &arrivals, 4);
        let shared = assert_delivered(&sys, &witnessed, 0..24, &format!("period {period}"));
        assert!(shared > 0, "period {period}: no witness reaches two owners");
        for event in &events {
            let want = sys.oracle_matches(event);
            for publisher in 0..24u16 {
                let out = sys.publish(publisher, event);
                let mut got: Vec<SubscriptionId> = out.deliveries.iter().map(|d| d.id).collect();
                got.sort();
                assert_eq!(got, want, "period {period}, publisher {publisher}");
            }
        }
        for (b, stored) in sys.stored_summaries().unwrap().iter().enumerate() {
            let mut want: Vec<SubscriptionId> = stored
                .merged_brokers
                .iter()
                .flat_map(|&m| sys.broker(m).own().subscription_ids())
                .collect();
            want.sort();
            assert_eq!(
                stored.summary.subscription_ids(),
                want,
                "period {period}, broker {b}"
            );
        }
    }
}

/// Overlay topology change (the paper's slowly-changing ISP backbones,
/// §5.2): the overlay restarts on the new links, every broker from its
/// checkpoint, as `subsumd` daemons would, and one propagation restores
/// exact delivery.
#[test]
fn topology_change_and_repropagation() {
    let mut rng = StdRng::seed_from_u64(21);
    // Stock quotes match trader subscriptions often; paper-workload
    // events almost never do, which would leave nothing to deliver.
    let mut feed = StockFeed::new();
    let schema = feed.schema().clone();
    let mut sys = SummaryPubSub::new(Topology::ring(10), schema.clone(), 100).unwrap();
    for b in 0..10u16 {
        for _ in 0..5 {
            sys.subscribe(b, &feed.trader_subscription(&mut rng))
                .unwrap();
        }
    }
    sys.propagate().unwrap();
    let events: Vec<_> = (0..20).map(|_| feed.quote(&mut rng)).collect();
    let before: Vec<_> = events.iter().map(|e| sys.oracle_matches(e)).collect();
    assert!(before.iter().any(|m| !m.is_empty()), "events must match");
    for (event, want) in events.iter().zip(&before) {
        assert_eq!(&delivered(&sys, 0, event), want);
    }

    // Rewire: the ring becomes a random mesh with the same brokers.
    let checkpoints: Vec<_> = (0..10u16).map(|b| sys.broker(b).checkpoint()).collect();
    let new_topology = Topology::random_connected(10, 5, &mut rng);
    let mut sys = SummaryPubSub::new(new_topology, schema, 100).unwrap();
    for (b, checkpoint) in (0..10u16).zip(checkpoints) {
        sys.restore(b, checkpoint).unwrap();
    }
    sys.propagate().unwrap();
    for (event, want) in events.iter().zip(&before) {
        assert_eq!(&sys.oracle_matches(event), want);
        for publisher in 0..10u16 {
            let got = delivered(&sys, publisher, event);
            assert_eq!(&got, want, "publisher {publisher} after rewire");
        }
    }
}
