//! A deterministic end-to-end run that exercises every instrumented
//! pipeline stage, for `repro --telemetry-json`.
//!
//! The figure experiments drive individual algorithms; depending on the
//! figure chosen, some stages (e.g. the Siena baseline's) never
//! execute. The probe guarantees a populated [`RunReport`] regardless of
//! the figure selection by running one small pass through:
//!
//! * [`SummaryPubSub`]: subscribe → propagate → publish, which times
//!   `broker.subscribe`, `broker.propagate`, `propagate.round`,
//!   `publish.route`, `publish.candidate_match`, `publish.owner_verify`
//!   and the `core.summary.*` stages, and bumps the `publish.*` counters;
//! * the Siena baseline: `siena.propagate` and `siena.route`, so summary
//!   and baseline timings land in the same report.
//!
//! The probe records nothing unless the caller has switched the global
//! recorder on with [`subsum_telemetry::set_enabled`]; its event counts
//! and network metrics are returned either way.

use rand::rngs::StdRng;
use rand::SeedableRng;

use subsum_broker::SummaryPubSub;
use subsum_net::{NetMetrics, NodeId};
use subsum_siena::{propagate_probabilistic, reverse_path_route, SienaParams};
use subsum_telemetry::Json;
use subsum_workload::Workload;

use crate::config::ExperimentConfig;

/// Subscriptions registered per broker by the probe.
const SUBS_PER_BROKER: usize = 4;
/// Events published per broker by the probe.
const EVENTS_PER_BROKER: usize = 2;

/// What the probe did, with the aggregated network cost of every phase.
#[derive(Debug, Clone)]
pub struct ProbeOutcome {
    /// Summed traffic of propagation, event routing and the Siena
    /// baseline period (per-broker vectors grown to the largest
    /// population touched).
    pub net_metrics: NetMetrics,
    /// Subscriptions registered.
    pub subscriptions: usize,
    /// Events published.
    pub events: usize,
    /// Verified deliveries across all events.
    pub deliveries: usize,
    /// Mean per-event false-positive rate (rejected candidates over all
    /// candidates).
    pub mean_false_positive_rate: f64,
}

impl ProbeOutcome {
    /// The probe's summary as an embeddable JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("subscriptions", Json::UInt(self.subscriptions as u64)),
            ("events", Json::UInt(self.events as u64)),
            ("deliveries", Json::UInt(self.deliveries as u64)),
            (
                "mean_false_positive_rate",
                Json::Num(self.mean_false_positive_rate),
            ),
        ])
    }
}

/// Renders network-cost counters as an embeddable JSON object.
pub fn net_metrics_to_json(m: &NetMetrics) -> Json {
    let per_broker = |v: &[u64]| Json::Arr(v.iter().map(|&x| Json::UInt(x)).collect());
    Json::obj([
        ("messages", Json::UInt(m.messages)),
        ("link_bytes", Json::UInt(m.link_bytes)),
        ("payload_bytes", Json::UInt(m.payload_bytes)),
        ("max_broker_load", Json::UInt(m.max_broker_load())),
        ("mean_broker_load", Json::Num(m.mean_broker_load())),
        ("sent_per_broker", per_broker(&m.sent_per_broker)),
        ("received_per_broker", per_broker(&m.received_per_broker)),
        ("bytes_per_broker", per_broker(&m.bytes_per_broker)),
    ])
}

/// Runs the probe; deterministic under `cfg.seed`.
pub fn run(cfg: &ExperimentConfig) -> ProbeOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7E1E_4E7B);
    let mut workload = Workload::new(cfg.params, 0.5);
    let schema = workload.schema().clone();
    let n = cfg.topology.len();
    let mut net = NetMetrics::new(n);

    // Phase 1: the deterministic end-to-end engine.
    let mut sys = SummaryPubSub::new(cfg.topology.clone(), schema, 10_000)
        .expect("probe workload fits the id layout");
    let mut subscriptions = 0usize;
    for b in 0..n as NodeId {
        for sub in workload.subscriptions(SUBS_PER_BROKER, &mut rng) {
            sys.subscribe(b, &sub).expect("probe capacity suffices");
            subscriptions += 1;
        }
    }
    let prop_metrics = sys
        .propagate()
        .expect("probe ids fit the layout")
        .metrics
        .clone();
    net.merge(&prop_metrics);

    // Publish through the batch path (per-thread scratch reuse); the
    // batch is generated in the same rng order the sequential loop used,
    // and outcomes come back in input order, so the probe's metrics stay
    // deterministic.
    let mut batch: Vec<(NodeId, subsum_types::Event)> = Vec::with_capacity(n * EVENTS_PER_BROKER);
    for b in 0..n as NodeId {
        for _ in 0..EVENTS_PER_BROKER {
            batch.push((b, workload.event(0.7, &mut rng)));
        }
    }
    let outcomes = sys.publish_batch(&batch);
    let events = outcomes.len();
    let mut deliveries = 0usize;
    let mut fp_rate_sum = 0.0;
    for out in &outcomes {
        deliveries += out.deliveries.len();
        fp_rate_sum += out.false_positive_rate();
        net.merge(&out.routing.metrics);
    }

    // Phase 2: the Siena baseline period and one reverse-path multicast.
    let siena = propagate_probabilistic(&cfg.topology, 2, SienaParams::default(), &mut rng);
    net.merge(&siena.metrics);
    let matched: Vec<NodeId> = (0..n as NodeId).step_by(3).collect();
    let _ = reverse_path_route(&cfg.topology, 0, &matched);

    ProbeOutcome {
        net_metrics: net,
        subscriptions,
        events,
        deliveries,
        mean_false_positive_rate: if events == 0 {
            0.0
        } else {
            fp_rate_sum / events as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_deterministic_and_produces_traffic() {
        let cfg = ExperimentConfig::fast();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.net_metrics, b.net_metrics);
        assert_eq!(a.subscriptions, 24 * SUBS_PER_BROKER);
        assert_eq!(a.events, 24 * EVENTS_PER_BROKER);
        assert!(a.net_metrics.messages > 0);
        assert!((0.0..=1.0).contains(&a.mean_false_positive_rate));
    }

    #[test]
    fn probe_populates_the_required_stages() {
        // The acceptance bar for `repro --telemetry-json`: at least five
        // named stages with recorded spans. The recorder is global, so
        // take the delta of the probe's own stages rather than asserting
        // on absolute counts (other tests may record concurrently).
        subsum_telemetry::set_enabled(true);
        let before: std::collections::BTreeMap<String, u64> =
            subsum_telemetry::histograms_snapshot()
                .into_iter()
                .map(|(n, s)| (n, s.count))
                .collect();
        run(&ExperimentConfig::fast());
        subsum_telemetry::set_enabled(false);
        let after = subsum_telemetry::histograms_snapshot();
        let grown: Vec<String> = after
            .into_iter()
            .filter(|(n, s)| s.count > before.get(n).copied().unwrap_or(0))
            .map(|(n, _)| n)
            .collect();
        use subsum_telemetry::names;
        for stage in [
            names::BROKER_SUBSCRIBE,
            names::BROKER_PROPAGATE,
            names::PROPAGATE_ROUND,
            names::PUBLISH_ROUTE,
            names::PUBLISH_CANDIDATE_MATCH,
            names::PUBLISH_OWNER_VERIFY,
            names::CORE_SUMMARY_INSERT,
            names::CORE_SUMMARY_MATCH,
            names::SIENA_PROPAGATE,
            names::SIENA_ROUTE,
        ] {
            assert!(
                grown.contains(&stage.to_string()),
                "stage {stage} not recorded"
            );
        }
    }

    #[test]
    fn json_embeddings_are_well_formed() {
        let cfg = ExperimentConfig::fast();
        let out = run(&cfg);
        let net = net_metrics_to_json(&out.net_metrics).to_json_string();
        assert!(net.contains("\"messages\""));
        assert!(net.contains("\"sent_per_broker\":["));
        let probe = out.to_json().to_json_string();
        assert!(probe.contains("\"events\":48"));
    }
}
