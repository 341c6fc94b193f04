//! Tracing tax on the hot publish path: the same seeded event stream
//! routed by the deterministic engine with the causal tracer **absent**
//! (the shipped default), **sampled 1-in-64** (the recommended always-on
//! setting), and **always-on** (every trace recorded).
//!
//! The disabled path must be free — product code pays one `Option` test
//! per message — and the 1-in-64 path must stay under a 5 % throughput
//! delta: the unsampled branch is a single splitmix64 mix and compare,
//! no clock read, no allocation (the telemetry crate's zero-alloc
//! harness enforces the no-allocation half of that claim).
//!
//! `main` writes `BENCH_trace_overhead.json` — per-mode publish
//! throughput (fastest of nine timed passes; two with
//! `SUBSUM_BENCH_REPORT_ONLY` set, the CI smoke), the relative overhead
//! against the disabled baseline, and the span accounting that proves
//! the sampler actually sampled.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use subsum_broker::SummaryPubSub;
use subsum_net::{NodeId, Topology};
use subsum_telemetry::trace::Tracer;
use subsum_telemetry::Json;
use subsum_types::Event;
use subsum_workload::{PaperParams, Workload};

/// Subscriptions per broker.
const SUBS_PER_BROKER: usize = 8;
/// Events in one measured pass.
const EVENTS: usize = 512;
/// Flight-recorder capacity per broker (large enough not to wrap).
const CAPACITY: usize = 1 << 16;
/// Sampling seed for the traced modes.
const TRACE_SEED: u64 = 0x7AACE;

/// The three measured modes: `0` = no tracer attached.
const MODES: [u64; 3] = [0, 64, 1];

fn mode_label(mode: u64) -> &'static str {
    match mode {
        0 => "disabled",
        1 => "always_on",
        _ => "one_in_64",
    }
}

/// Builds the publish fixture: a propagated system over the backbone
/// overlay and a seeded event stream, with a tracer attached for the
/// traced modes.
fn fixture(mode: u64) -> (SummaryPubSub, Vec<(NodeId, Event)>, Option<Arc<Tracer>>) {
    let topology = Topology::cable_wireless_24();
    let mut rng = StdRng::seed_from_u64(0x0EE7);
    let mut workload = Workload::new(PaperParams::default(), 0.5);
    let schema = workload.schema().clone();
    let mut sys = SummaryPubSub::new(topology.clone(), schema, 1000).expect("layout fits");
    for b in 0..topology.len() as u16 {
        for _ in 0..SUBS_PER_BROKER {
            let sub = workload.subscription(&mut rng);
            sys.subscribe(b, &sub).expect("layout fits");
        }
    }
    sys.propagate().expect("propagation succeeds");
    let tracer =
        (mode > 0).then(|| Arc::new(Tracer::new(topology.len(), CAPACITY, TRACE_SEED, mode)));
    if let Some(t) = &tracer {
        sys.set_tracer(Arc::clone(t));
    }
    let events: Vec<(NodeId, Event)> = (0..EVENTS)
        .map(|_| {
            (
                rng.gen_range(0..topology.len() as u16) as NodeId,
                workload.event(0.7, &mut rng),
            )
        })
        .collect();
    (sys, events, tracer)
}

fn publish_all(sys: &SummaryPubSub, events: &[(NodeId, Event)]) -> usize {
    events
        .iter()
        .map(|(b, e)| sys.publish(*b, e).deliveries.len())
        .sum()
}

/// Timed trials: quick in CI smoke, noise-robust otherwise (the report
/// takes the fastest trial per mode).
fn report_trials() -> usize {
    if std::env::var_os("SUBSUM_BENCH_REPORT_ONLY").is_some() {
        2
    } else {
        9
    }
}

/// Measures all three modes and writes `BENCH_trace_overhead.json` at
/// the workspace root.
fn emit_overhead_report() {
    let trials = report_trials();
    let mut sides = Vec::new();
    let mut baseline_eps = 0.0f64;
    for mode in MODES {
        let (sys, events, tracer) = fixture(mode);
        // Warm pass: first-touch scratch growth off the books.
        std::hint::black_box(publish_all(&sys, &events));
        let mut best = f64::MAX;
        for _ in 0..trials {
            let start = Instant::now();
            std::hint::black_box(publish_all(&sys, &events));
            best = best.min(start.elapsed().as_secs_f64());
        }
        let eps = EVENTS as f64 / best.max(1e-12);
        if mode == 0 {
            baseline_eps = eps;
        }
        let overhead_pct = if baseline_eps > 0.0 {
            (baseline_eps / eps - 1.0) * 100.0
        } else {
            0.0
        };
        let (spans, head_drops) = tracer
            .as_ref()
            .map(|t| (t.spans().len() as u64, t.head_drops()))
            .unwrap_or((0, 0));
        sides.push((
            mode_label(mode),
            Json::obj([
                ("sample_one_in", Json::UInt(mode)),
                ("events_per_sec", Json::Num(eps)),
                ("best_pass_secs", Json::Num(best)),
                ("overhead_pct", Json::Num(overhead_pct)),
                ("spans_recorded", Json::UInt(spans)),
                ("head_drops", Json::UInt(head_drops)),
            ]),
        ));
    }
    let report = Json::obj(
        [
            ("name", Json::Str("bench.trace_overhead".to_string())),
            (
                "scenario",
                Json::obj([
                    ("brokers", Json::UInt(24)),
                    ("subscriptions", Json::UInt((24 * SUBS_PER_BROKER) as u64)),
                    ("events", Json::UInt(EVENTS as u64)),
                    ("trials", Json::UInt(trials as u64)),
                    ("trace_seed", Json::UInt(TRACE_SEED)),
                ]),
            ),
        ]
        .into_iter()
        .chain(sides)
        .collect::<Vec<_>>(),
    );
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_trace_overhead.json");
    match std::fs::write(&path, report.to_json_string()) {
        Ok(()) => eprintln!("trace overhead report -> {}", path.display()),
        Err(e) => eprintln!("cannot write trace overhead report {}: {e}", path.display()),
    }
}

fn main() {
    emit_overhead_report();
}
