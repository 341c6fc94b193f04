//! Seeded chaos scenarios: convergence under faults, determinism of the
//! counters, the anti-entropy vs naive repair-traffic comparison, and
//! exact delivery through real frames once repair has quiesced.
//! The CI chaos smoke job runs exactly this test binary.

use std::sync::Arc;

use subsum_broker::{ChaosConfig, ChaosReport, ChaosRun, Msg};
use subsum_core::{ArithWidth, SummaryCodec};
use subsum_net::{CrashEvent, FaultPlan, LinkProfile, Topology};
use subsum_telemetry::trace::Tracer;
use subsum_types::{
    stock_schema, BrokerId, Event, NumOp, Schema, StrOp, Subscription, SubscriptionId,
};

/// The fixed scenario of the acceptance criteria: per-link drops and
/// duplication, plus one broker crash mid-run, on the Fig. 7 tree.
fn stormy_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::reliable(seed);
    plan.default_link = LinkProfile {
        drop: 0.15,
        duplicate: 0.10,
        max_extra_delay: 3,
    };
    plan.crashes.push(CrashEvent {
        broker: 4, // the paper's broker 5, the tree's hub
        at: 120,
        restart_at: 180,
    });
    plan
}

fn populated_run(plan: FaultPlan, config: ChaosConfig) -> ChaosRun {
    let schema = stock_schema();
    let mut run = ChaosRun::new(Topology::fig7_tree(), schema.clone(), plan, config).unwrap();
    for b in 0..13u16 {
        for k in 0..4u32 {
            let sub = mixed_sub(&schema, b, k);
            run.subscribe(b, &sub).unwrap();
        }
    }
    run.checkpoint_all();
    run
}

fn mixed_sub(schema: &Schema, b: u16, k: u32) -> Subscription {
    if (b as u32 + k) % 2 == 0 {
        Subscription::builder(schema)
            .num("price", NumOp::Lt, (b as f64) + (k as f64) / 4.0)
            .unwrap()
            .build()
            .unwrap()
    } else {
        Subscription::builder(schema)
            .str_op("symbol", StrOp::Prefix, &format!("S{}", (b + k as u16) % 5))
            .unwrap()
            .build()
            .unwrap()
    }
}

fn run_once(seed: u64, naive: bool) -> ChaosReport {
    let config = ChaosConfig {
        naive_repair: naive,
        ..ChaosConfig::default()
    };
    populated_run(stormy_plan(seed), config).run().unwrap()
}

#[test]
fn fixed_seed_chaos_run_converges() {
    let report = run_once(0x5EED, false);
    assert!(
        report.converged,
        "run must converge to the fault-free oracle: {report:?}"
    );
    assert!(report.converged_at.is_some());
    // The plan actually exercised its faults.
    assert!(report.stats.dropped > 0, "drops must occur: {report:?}");
    assert!(report.stats.duplicated > 0, "dups must occur: {report:?}");
    assert_eq!(report.stats.crashes, 1);
    assert_eq!(report.stats.restarts, 1);
    assert!(
        report.stats.resyncs > 0,
        "anti-entropy must repair something: {report:?}"
    );
}

#[test]
fn same_seed_yields_byte_identical_counters() {
    let a = run_once(0xD15EA5E, false);
    let b = run_once(0xD15EA5E, false);
    assert_eq!(a, b, "two runs with one seed must be identical");

    // A different seed perturbs the fault decisions (sanity check that
    // equality above is not vacuous).
    let c = run_once(0xD15EA5E + 1, false);
    assert_ne!(a.stats, c.stats);
}

#[test]
fn anti_entropy_repair_traffic_beats_naive_full_resend() {
    let smart = run_once(0xBEEF, false);
    let naive = run_once(0xBEEF, true);
    assert!(smart.converged && naive.converged);
    assert!(
        smart.stats.total_bytes() < naive.stats.total_bytes() / 2,
        "anti-entropy bytes {} must be well below naive bytes {}",
        smart.stats.total_bytes(),
        naive.stats.total_bytes()
    );
    assert!(smart.stats.digest_bytes > 0);
    // Naive repair runs no digest rounds: its only digest frames are the
    // restart's `Hello`/`HelloAck` handshake.
    assert!(
        naive.stats.digest_msgs * 10 < smart.stats.digest_msgs,
        "{:?}",
        naive.stats
    );
}

fn run_traced(seed: u64) -> (ChaosReport, String) {
    let mut run = populated_run(stormy_plan(seed), ChaosConfig::default());
    run.set_tracer(Arc::new(Tracer::new(13, 4096)));
    let report = run.run().unwrap();
    let json = run.tracer().unwrap().chrome_trace_string();
    (report, json)
}

#[test]
fn traced_runs_are_replay_exact_and_do_not_perturb_the_run() {
    // Acceptance: two identical traced chaos runs export byte-identical
    // Chrome traces, and tracing never perturbs the simulation itself.
    let (report_a, json_a) = run_traced(0xCAFE);
    let (report_b, json_b) = run_traced(0xCAFE);
    assert_eq!(json_a, json_b, "same seed must export identical traces");
    assert_eq!(report_a, report_b);

    let untraced = populated_run(stormy_plan(0xCAFE), ChaosConfig::default())
        .run()
        .unwrap();
    assert_eq!(
        report_a.stats, untraced.stats,
        "tracing must not change fault or repair behavior"
    );
    assert_eq!(report_a.converged_at, untraced.converged_at);
}

#[test]
fn always_on_tracing_captures_spans_and_crash_snapshots() {
    let (report, json) = run_traced(0x5EED);
    assert!(report.converged);
    assert!(
        json.contains("\"traceEvents\""),
        "chrome export must be well-formed"
    );
    // The crash of broker 4 snapshots its flight recorder into the report.
    let snap = report
        .crash_snapshots
        .iter()
        .find(|(b, _)| *b == 4)
        .expect("crash snapshot for broker 4");
    assert!(
        !snap.1.is_empty(),
        "the hub participates in the update waves before crashing"
    );
}

#[test]
fn uncheckpointed_broker_restarts_empty_and_system_still_converges() {
    let schema = stock_schema();
    let mut plan = FaultPlan::reliable(77);
    plan.crashes.push(CrashEvent {
        broker: 2,
        at: 60,
        restart_at: 110,
    });
    let mut run = ChaosRun::new(
        Topology::fig7_tree(),
        schema.clone(),
        plan,
        ChaosConfig::default(),
    )
    .unwrap();
    for b in 0..13u16 {
        run.subscribe(b, &mixed_sub(&schema, b, 0)).unwrap();
    }
    // Checkpoint everyone except the crasher: its subscriptions are
    // genuinely lost, and the oracle (built from final durable state)
    // reflects that.
    for b in 0..13u16 {
        if b != 2 {
            run.checkpoint(b);
        }
    }
    let report = run.run().unwrap();
    assert!(report.converged, "{report:?}");
    assert_eq!(report.stats.crashes, 1);
}

#[test]
fn partition_heals_and_converges() {
    let schema = stock_schema();
    let mut plan = FaultPlan::reliable(31);
    plan.partitions.push(subsum_net::PartitionWindow {
        island: vec![0, 1, 2, 3, 4, 5],
        from: 0,
        until: 150,
    });
    let mut run = ChaosRun::new(
        Topology::fig7_tree(),
        schema.clone(),
        plan,
        ChaosConfig::default(),
    )
    .unwrap();
    for b in 0..13u16 {
        run.subscribe(b, &mixed_sub(&schema, b, 1)).unwrap();
    }
    run.checkpoint_all();
    let report = run.run().unwrap();
    assert!(report.converged, "{report:?}");
    assert!(
        report.stats.link_dropped > 0,
        "partition must sever messages: {report:?}"
    );
    assert!(
        report.converged_at.unwrap_or(0) >= 150,
        "cannot converge before the partition heals: {report:?}"
    );
}

/// Updates cross the simulated links as the wire codec's bytes: a
/// fault-free run with no repair rounds sends exactly the initial wave,
/// is charged the lengths of the frames it sent, and leaves every broker
/// holding — decoded from those bytes — its neighbours' own summaries.
#[test]
fn updates_are_wire_bytes_and_are_charged_their_frame_length() {
    let config = ChaosConfig {
        repair_rounds: 0,
        ..ChaosConfig::default()
    };
    let mut run = populated_run(FaultPlan::reliable(9), config);
    let topology = Topology::fig7_tree();
    let (mut updates, mut bytes) = (0, 0);
    for b in 0..13u16 {
        let broker = run.broker(b);
        let codec = SummaryCodec::new(broker.layout(), ArithWidth::Eight);
        let frame = Msg::Summary {
            from: BrokerId(b),
            bytes: codec.encode(broker.own()).unwrap(),
        }
        .to_frame_bytes()
        .unwrap();
        let degree = topology.neighbors(b).len() as u64;
        updates += degree;
        bytes += degree * frame.len() as u64;
    }

    let report = run.run().unwrap();
    assert!(report.converged, "{report:?}");
    assert_eq!(report.stats.full_updates, updates);
    assert_eq!(report.stats.full_summary_bytes, bytes);
    assert_eq!(report.stats.total_bytes(), bytes, "no digests, no pulls");
    for b in 0..13u16 {
        for &nb in topology.neighbors(b) {
            assert_eq!(run.daemon(b).view(nb), Some(run.broker(nb).own()));
        }
    }
}

/// The paper's contract on every path, after repair (§3.3, §4.3): no
/// false negative at the summary tier, exact delivery after owner
/// verification. Some subscriptions arrive as client `Subscribe` frames
/// while the faults are on; once the run has drained, a probe published
/// at any broker is delivered — in real `Deliver` frames — to exactly
/// the subscriptions it matches at the publisher and its neighbours (the
/// neighbour-view protocol is single-hop, DESIGN.md §16).
#[test]
fn delivered_sets_equal_exact_matches_after_repair() {
    let schema = stock_schema();
    let once = |seed: u64| {
        let mut run = populated_run(stormy_plan(seed), ChaosConfig::default());
        // Late arrivals: before the hub's crash (one at the hub itself,
        // which forgets it), while it is down (the hub never sees its
        // own), and after its restart.
        for (tick, b) in [(40, 4), (70, 9), (150, 4), (150, 5), (300, 4), (420, 0)] {
            run.subscribe_at(tick, b, &mixed_sub(&schema, b, 4 + tick as u32));
        }
        let report = run.run().unwrap();
        assert!(report.converged, "{report:?}");
        assert!(report.stats.dropped > 0 && report.stats.duplicated > 0);
        assert_eq!((report.stats.crashes, report.stats.restarts), (1, 1));
        let late = |b: u16| run.broker(b).exact().len() - 4;
        assert_eq!([late(9), late(5), late(0)], [1, 1, 1]);
        assert_eq!(late(4), 1, "the hub keeps only what came after its restart");
        let delivered = delivers_exactly(&mut run, &format!("seed {seed:#x}"));
        (report, delivered)
    };
    for seed in [0x5EED, 0xBEEF, 0xD15EA5E] {
        assert_eq!(once(seed), once(seed), "seed {seed:#x} replays exactly");
    }
}

/// Publishes probes at every broker of a drained fig. 7 `run` and checks
/// each is delivered to exactly the subscriptions it matches at the
/// publisher and its neighbours, a late one (local number 4 or above)
/// among them, and that each view is its neighbour's own summary, what
/// that rests on. Returns the delivered sets.
fn delivers_exactly(run: &mut ChaosRun, what: &str) -> Vec<Vec<SubscriptionId>> {
    let schema = stock_schema();
    let topology = Topology::fig7_tree();
    let mut probes: Vec<Event> = (0..14)
        .map(|k| {
            Event::builder(&schema)
                .num("price", f64::from(k) - 0.5)
                .unwrap()
                .str("symbol", format!("S{}x", k % 6))
                .unwrap()
                .build()
        })
        .collect();
    probes.push(Event::builder(&schema).num("price", 1e6).unwrap().build());

    let mut delivered = Vec::new();
    let mut true_matches = 0;
    for event in &probes {
        for b in 0..13u16 {
            let mut expected: Vec<SubscriptionId> = std::iter::once(b)
                .chain(topology.neighbors(b).iter().copied())
                .flat_map(|owner| run.broker(owner).exact_matches(event))
                .collect();
            expected.sort();
            true_matches += expected.len();
            let got = run.publish(b, event);
            assert_eq!(got, expected, "{what}, broker {b}, {event:?}");
            delivered.push(got);
        }
    }
    assert!(true_matches > 100, "the sample exercises real matches");
    assert!(
        delivered.iter().flatten().any(|id| id.local.0 >= 4),
        "a late subscription is among the delivered"
    );
    for b in 0..13u16 {
        for &nb in topology.neighbors(b) {
            assert_eq!(run.daemon(b).view(nb), Some(run.broker(nb).own()));
        }
    }
    delivered
}

/// A subscribe ships only what it added: waves of client `Subscribe`
/// frames at every broker, under drops, duplicates and delays, travel as
/// `SummaryDelta` frames. A delta whose base a view missed is pulled; a
/// duplicate is ignored. The run converges, replays exactly, and
/// delivers every probe to exactly the subscriptions it matches.
#[test]
fn subscribe_waves_ship_deltas_and_deliver_exactly() {
    let schema = stock_schema();
    let once = |seed: u64| {
        let mut plan = FaultPlan::reliable(seed);
        plan.default_link = LinkProfile {
            drop: 0.10,
            duplicate: 0.20,
            max_extra_delay: 6,
        };
        let mut run = populated_run(plan, ChaosConfig::default());
        for wave in 0..4u32 {
            for b in 0..13u16 {
                let tick = 10 + 40 * u64::from(wave) + u64::from(b % 3);
                run.subscribe_at(tick, b, &mixed_sub(&schema, b, 4 + wave));
            }
        }
        let report = run.run().unwrap();
        assert!(report.converged, "{report:?}");
        let stats = report.stats;
        assert!(stats.dropped > 0 && stats.duplicated > 0, "{stats:?}");
        // Each broker's 4 subscribes went out on each of its links, of
        // which the tree's 12 edges make 24.
        assert_eq!(stats.delta_updates, 4 * 24, "{stats:?}");
        let delivered = delivers_exactly(&mut run, &format!("seed {seed:#x}"));
        (report, delivered)
    };
    for seed in [0x5EED, 0xDE17A] {
        assert_eq!(once(seed), once(seed), "seed {seed:#x} replays exactly");
    }
}
