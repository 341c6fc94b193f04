//! Trace-driven latency attribution — beyond the paper.
//!
//! Replays two instrumented scenarios with the causal tracer attached
//! and distills the recorded [`SpanRecord`]s into a [`TraceAnalysis`]:
//!
//! * **backbone publishes** — every broker of the configured overlay
//!   holds Fig. 10's interest subscription, and a seeded stream of
//!   events, each matching a random quarter of the brokers, is routed,
//!   verified at the owners and delivered;
//! * **chaos recovery** — the PR 5 crash/recovery scenario (drops,
//!   duplicates, one hub crash) with anti-entropy repair, tracing every
//!   control message.
//!
//! The analysis answers the questions the aggregate counters cannot:
//! where a hop's latency went (per-[`SpanKind`] breakdown), how much
//! fan-out one published event caused (spans per trace), and how long
//! the causal critical path is (deepest parent chain).

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use subsum_broker::{ChaosConfig, ChaosRun, SummaryPubSub};
use subsum_net::NodeId;
use subsum_telemetry::trace::{SpanKind, SpanRecord, Tracer};
use subsum_workload::popularity::{
    event_for, interest_schema, interest_subscription, random_matched_set,
};
use subsum_workload::Workload;

use crate::common::ResultTable;
use crate::config::ExperimentConfig;
use crate::recovery::scenario_plan;

/// Flight-recorder capacity per broker for the analysis runs: large
/// enough that neither scenario head-drops.
const RECORDER_CAPACITY: usize = 1 << 16;

/// Subscriptions per broker for the chaos scenario.
const SUBS_PER_BROKER: usize = 4;

/// Share of the brokers each event of the publish scenario matches.
const POPULARITY: f64 = 0.25;

/// Latency statistics for one [`SpanKind`]: hop latency is the
/// sim-clock delta between a span and its recorded parent.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HopStat {
    /// Spans of this kind.
    pub count: u64,
    /// Hops of this kind whose parent span was also recorded.
    pub with_parent: u64,
    /// Sum of `at - parent.at` over those hops.
    pub total_latency: u64,
    /// Largest single-hop latency.
    pub max_latency: u64,
}

impl HopStat {
    /// Mean hop latency in sim ticks (0 when no parented hop exists).
    pub fn mean_latency(&self) -> f64 {
        if self.with_parent == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.with_parent as f64
        }
    }
}

/// The distilled view of one scenario's recorded spans.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnalysis {
    /// Total spans analyzed.
    pub spans: u64,
    /// Distinct traces observed.
    pub traces: u64,
    /// Per-kind hop-latency breakdown, indexed by `SpanKind as usize`.
    pub per_kind: [HopStat; 9],
    /// Mean spans per trace (fan-out amplification of one event).
    pub fanout_mean: f64,
    /// Largest spans-per-trace fan-out.
    pub fanout_max: u64,
    /// Mean critical-path length (deepest parent chain, in spans).
    pub critical_path_mean: f64,
    /// Longest critical path across all traces.
    pub critical_path_max: u64,
    /// Mean trace makespan (last span tick − first span tick).
    pub makespan_mean: f64,
    /// Largest trace makespan.
    pub makespan_max: u64,
}

/// All nine span kinds in discriminant order.
pub const KINDS: [SpanKind; 9] = [
    SpanKind::Enqueue,
    SpanKind::Dequeue,
    SpanKind::Route,
    SpanKind::Match,
    SpanKind::OwnerVerify,
    SpanKind::Deliver,
    SpanKind::Drop,
    SpanKind::Dup,
    SpanKind::CrashDrop,
];

impl TraceAnalysis {
    /// Distills raw span records into the latency-attribution view.
    pub fn from_spans(spans: &[SpanRecord]) -> TraceAnalysis {
        // Span ids are unique per tracer, so one flat index suffices.
        let by_id: HashMap<u32, &SpanRecord> = spans.iter().map(|s| (s.span, s)).collect();

        let mut per_kind = [HopStat::default(); 9];
        for s in spans {
            let stat = &mut per_kind[s.kind as usize];
            stat.count += 1;
            if let Some(parent) = by_id.get(&s.parent) {
                let lat = s.at.saturating_sub(parent.at);
                stat.with_parent += 1;
                stat.total_latency += lat;
                stat.max_latency = stat.max_latency.max(lat);
            }
        }

        // Depth of the parent chain ending at each span, memoized; the
        // critical path of a trace is its deepest chain.
        let mut depth: HashMap<u32, u64> = HashMap::with_capacity(spans.len());
        for s in spans {
            let mut chain = Vec::new();
            let mut cur = s.span;
            let mut base = 0u64;
            loop {
                if let Some(&d) = depth.get(&cur) {
                    base = d;
                    break;
                }
                chain.push(cur);
                match by_id.get(&cur).and_then(|r| by_id.get(&r.parent)) {
                    Some(parent) => cur = parent.span,
                    None => break,
                }
            }
            for (i, id) in chain.iter().rev().enumerate() {
                depth.insert(*id, base + i as u64 + 1);
            }
        }

        #[derive(Default)]
        struct PerTrace {
            spans: u64,
            deepest: u64,
            first: u64,
            last: u64,
        }
        let mut traces: HashMap<u64, PerTrace> = HashMap::new();
        for s in spans {
            let t = traces.entry(s.trace.0).or_insert(PerTrace {
                spans: 0,
                deepest: 0,
                first: u64::MAX,
                last: 0,
            });
            t.spans += 1;
            t.deepest = t.deepest.max(depth.get(&s.span).copied().unwrap_or(1));
            t.first = t.first.min(s.at);
            t.last = t.last.max(s.at);
        }

        let n = traces.len().max(1) as f64;
        let fanout_max = traces.values().map(|t| t.spans).max().unwrap_or(0);
        let critical_path_max = traces.values().map(|t| t.deepest).max().unwrap_or(0);
        let makespan = |t: &PerTrace| t.last.saturating_sub(t.first);
        let makespan_max = traces.values().map(makespan).max().unwrap_or(0);
        TraceAnalysis {
            spans: spans.len() as u64,
            traces: traces.len() as u64,
            per_kind,
            fanout_mean: traces.values().map(|t| t.spans).sum::<u64>() as f64 / n,
            fanout_max,
            critical_path_mean: traces.values().map(|t| t.deepest).sum::<u64>() as f64 / n,
            critical_path_max,
            makespan_mean: traces.values().map(makespan).sum::<u64>() as f64 / n,
            makespan_max,
        }
    }

    /// The [`HopStat`] of one kind.
    pub fn kind(&self, kind: SpanKind) -> &HopStat {
        &self.per_kind[kind as usize]
    }
}

/// Builds the traced publish scenario and returns its tracer after the
/// event stream has been routed, with the number of deliveries made.
fn backbone_tracer(cfg: &ExperimentConfig) -> (Arc<Tracer>, usize) {
    let n = cfg.topology.len();
    let schema = interest_schema();
    let mut sys = SummaryPubSub::new(cfg.topology.clone(), schema.clone(), 1000)
        .expect("schema fits the id layout");
    for b in 0..n as NodeId {
        sys.subscribe(b, &interest_subscription(&schema, b))
            .expect("id layout fits");
    }
    sys.propagate().expect("propagation is schema-consistent");
    let tracer = Arc::new(Tracer::new(n, RECORDER_CAPACITY));
    sys.set_tracer(Arc::clone(&tracer));
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7AACE5);
    let events = cfg.events_per_broker.max(4) * 2;
    let mut deliveries = 0usize;
    for _ in 0..events {
        let publisher = rng.gen_range(0..n as u16) as NodeId;
        let event = event_for(&schema, &random_matched_set(n, POPULARITY, &mut rng));
        deliveries += sys.publish(publisher, &event).deliveries.len();
    }
    (tracer, deliveries)
}

/// Runs the PR 5 chaos recovery scenario with tracing always on and
/// returns the tracer.
fn chaos_tracer(cfg: &ExperimentConfig) -> Arc<Tracer> {
    let mut workload = Workload::new(cfg.params, 0.5);
    let schema = workload.schema().clone();
    let mut run = ChaosRun::new(
        cfg.topology.clone(),
        schema,
        scenario_plan(cfg),
        ChaosConfig::default(),
    )
    .expect("schema fits the id layout");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC4A05);
    for b in 0..cfg.topology.len() as u16 {
        for _ in 0..SUBS_PER_BROKER {
            let sub = workload.subscription(&mut rng);
            run.subscribe(b, &sub).expect("id layout fits");
        }
    }
    run.checkpoint_all();
    let tracer = Arc::new(Tracer::new(cfg.topology.len(), RECORDER_CAPACITY));
    run.set_tracer(Arc::clone(&tracer));
    run.run().expect("chaos run is schema-consistent");
    tracer
}

fn push_analysis(table: &mut ResultTable, scenario: f64, tracer: &Tracer) {
    let spans = tracer.spans();
    let a = TraceAnalysis::from_spans(&spans);
    let route = a.kind(SpanKind::Route);
    let deq = a.kind(SpanKind::Dequeue);
    table.push(vec![
        scenario,
        a.traces as f64,
        a.spans as f64,
        route.count as f64,
        a.kind(SpanKind::Deliver).count as f64,
        a.kind(SpanKind::Drop).count as f64 + a.kind(SpanKind::CrashDrop).count as f64,
        route.mean_latency(),
        deq.mean_latency(),
        a.fanout_mean,
        a.fanout_max as f64,
        a.critical_path_mean,
        a.critical_path_max as f64,
        a.makespan_max as f64,
        tracer.head_drops() as f64,
    ]);
}

/// Runs the trace-attribution experiment: one row per scenario
/// (0 = backbone publishes, 1 = chaos recovery).
pub fn run(cfg: &ExperimentConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "traces",
        "Causal-trace latency attribution: per-hop breakdown, fan-out \
         amplification and critical paths (scenario 0 = backbone publishes, \
         1 = chaos recovery)",
        &[
            "scenario",
            "traces",
            "spans",
            "route_spans",
            "deliver_spans",
            "drop_spans",
            "route_hop_mean",
            "dequeue_hop_mean",
            "fanout_mean",
            "fanout_max",
            "critical_path_mean",
            "critical_path_max",
            "makespan_max",
            "head_drops",
        ],
    );
    let (publish_tracer, _) = backbone_tracer(cfg);
    push_analysis(&mut table, 0.0, &publish_tracer);
    let chaos = chaos_tracer(cfg);
    push_analysis(&mut table, 1.0, &chaos);
    table
}

/// Exports the backbone publish scenario as Chrome `trace_event` JSON
/// (Perfetto-loadable) for `repro --trace-json`.
pub fn export_chrome(cfg: &ExperimentConfig) -> String {
    backbone_tracer(cfg).0.chrome_trace_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsum_telemetry::trace::{TraceCtx, TraceId};

    fn rec(trace: u64, span: u32, parent: u32, kind: SpanKind, at: u64) -> SpanRecord {
        SpanRecord {
            trace: TraceId(trace),
            span,
            parent,
            broker: 0,
            kind,
            at,
        }
    }

    #[test]
    fn analysis_attributes_latency_fanout_and_critical_path() {
        // Trace 1: root route at t0 → match at t0 → two deliveries at t3.
        // Trace 2: a single route span.
        let spans = vec![
            rec(1, 1, 0, SpanKind::Route, 0),
            rec(1, 2, 1, SpanKind::Match, 0),
            rec(1, 3, 2, SpanKind::Deliver, 3),
            rec(1, 4, 2, SpanKind::Deliver, 5),
            rec(2, 5, 0, SpanKind::Route, 10),
        ];
        let a = TraceAnalysis::from_spans(&spans);
        assert_eq!(a.spans, 5);
        assert_eq!(a.traces, 2);
        assert_eq!(a.kind(SpanKind::Route).count, 2);
        assert_eq!(a.kind(SpanKind::Deliver).count, 2);
        assert_eq!(a.kind(SpanKind::Deliver).with_parent, 2);
        assert_eq!(a.kind(SpanKind::Deliver).total_latency, 3 + 5);
        assert_eq!(a.kind(SpanKind::Deliver).max_latency, 5);
        assert_eq!(a.kind(SpanKind::Deliver).mean_latency(), 4.0);
        // Roots have no recorded parent.
        assert_eq!(a.kind(SpanKind::Route).with_parent, 0);
        assert_eq!(a.fanout_max, 4);
        assert_eq!(a.fanout_mean, 2.5);
        assert_eq!(a.critical_path_max, 3); // route → match → deliver
        assert_eq!(a.makespan_max, 5);
    }

    #[test]
    fn analysis_of_empty_input_is_zeroed() {
        let a = TraceAnalysis::from_spans(&[]);
        assert_eq!(a.spans, 0);
        assert_eq!(a.traces, 0);
        assert_eq!(a.fanout_mean, 0.0);
        assert_eq!(a.critical_path_max, 0);
    }

    #[test]
    fn backbone_scenario_produces_causally_complete_traces() {
        let cfg = ExperimentConfig::fast();
        let (tracer, deliveries) = backbone_tracer(&cfg);
        let spans = tracer.spans();
        let a = TraceAnalysis::from_spans(&spans);
        assert!(a.traces > 0, "publishes must open traces");
        // Every published event visits at least one broker.
        assert!(a.kind(SpanKind::Route).count >= a.traces);
        assert_eq!(a.kind(SpanKind::Route).count, a.kind(SpanKind::Match).count);
        // Every event matches some broker, so publishes reach owner
        // verification and deliver.
        assert!(
            a.kind(SpanKind::OwnerVerify).count > 0,
            "no owner verification"
        );
        assert!(deliveries > 0, "no delivery");
        assert_eq!(a.kind(SpanKind::Deliver).count as usize, deliveries);
        // Latency attribution has parents for every non-root span kind
        // on the publish path: match under route, verification under
        // match, delivery under verification.
        for kind in [SpanKind::Match, SpanKind::OwnerVerify, SpanKind::Deliver] {
            assert_eq!(a.kind(kind).with_parent, a.kind(kind).count, "{kind:?}");
        }
        assert!(a.critical_path_max >= 4, "route → match → verify → deliver");
        assert_eq!(tracer.head_drops(), 0, "capacity must absorb the run");
    }

    #[test]
    fn tables_have_expected_shape_and_are_deterministic_where_promised() {
        let cfg = ExperimentConfig::fast();
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.name, "traces");
        let spans = t.column_values("spans");
        assert!(spans[0] > 0.0 && spans[1] > 0.0);
        // The analysis is a pure function of the seeded runs.
        assert_eq!(run(&cfg).rows, t.rows);
    }

    #[test]
    fn unused_ctx_type_is_reexported_for_callers() {
        // Smoke-check the public trace surface the experiments depend on.
        let ctx = TraceCtx::NONE;
        assert!(!ctx.trace.is_traced());
    }
}
