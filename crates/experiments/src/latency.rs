//! Delivery-latency experiment (beyond the paper's hop counts).
//!
//! The paper evaluates event processing by hop count (§5.2.2). Hops tell
//! only half the story: Algorithm 3 examines brokers **sequentially** —
//! the event visits summary hubs one after another — while Siena's
//! reverse-path multicast fans out in **parallel**. With every overlay
//! link costing one time unit, this experiment measures when each matched
//! broker actually receives the event:
//!
//! * **Summary**: the event reaches visit *k* after the cumulative length
//!   of the forwarding chain's first *k* legs; a notification sent from
//!   that visit reaches its owner after the owner's distance on top.
//! * **Siena (idealized)**: every matched broker receives the event after
//!   its shortest-path distance from the publisher (parallel flood).
//!
//! The trade-off quantified here: the summary approach saves hops
//! (bandwidth, broker involvement) but pays serialization latency for
//! late-visited matches, growing with popularity.

use rand::rngs::StdRng;
use rand::SeedableRng;

use subsum_broker::{propagate, route_event, RoutingOptions};
use subsum_core::{ArithWidth, BrokerSummary, SummaryCodec};
use subsum_net::NodeId;
use subsum_types::{BrokerId, IdLayout, LocalSubId};
use subsum_workload::popularity::{
    event_for, interest_schema, interest_subscription, random_matched_set,
};

use crate::common::{mean, ResultTable};
use crate::config::ExperimentConfig;

/// Runs the delivery-latency experiment.
pub fn run(cfg: &ExperimentConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "latency",
        "delivery latency (link time units) vs event popularity",
        &[
            "popularity_pct",
            "summary_mean",
            "summary_max",
            "siena_mean",
            "siena_max",
        ],
    );
    let n = cfg.topology.len();
    let schema = interest_schema();
    let layout = IdLayout::new(n as u64, 16, schema.len() as u32).expect("tiny schema");
    let codec = SummaryCodec::new(layout, ArithWidth::Four);
    let own: Vec<BrokerSummary> = (0..n)
        .map(|b| {
            let mut s = BrokerSummary::new(schema.clone());
            s.insert(
                BrokerId(b as u16),
                LocalSubId(0),
                &interest_subscription(&schema, b as NodeId),
            );
            s
        })
        .collect();
    let stored = propagate(&cfg.topology, &own, &codec)
        .expect("ids fit")
        .stored;
    let options = RoutingOptions::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    for &popularity in &cfg.popularity_sweep {
        let mut summary_lat = Vec::new();
        let mut summary_max = Vec::new();
        let mut siena_lat = Vec::new();
        let mut siena_max = Vec::new();
        for publisher in 0..n as NodeId {
            for _ in 0..cfg.events_per_broker {
                let matched = random_matched_set(n, popularity, &mut rng);
                let event = event_for(&schema, &matched);
                let out = route_event(
                    &cfg.topology,
                    &stored,
                    publisher,
                    &event,
                    cfg.params.sub_size,
                    &options,
                );
                // Arrival time of the event at each visited broker.
                let mut arrival = vec![0u32; out.visits.len()];
                for k in 1..out.visits.len() {
                    let (a, b) = (out.visits[k - 1], out.visits[k]);
                    arrival[k] = arrival[k - 1] + cfg.topology.distances(a)[b as usize];
                }
                let visit_time = |broker: NodeId| {
                    out.visits
                        .iter()
                        .position(|&v| v == broker)
                        .map(|k| arrival[k])
                };
                let mut per_event = Vec::with_capacity(out.notifications.len());
                for note in &out.notifications {
                    let t = visit_time(note.found_at).expect("found_at was visited")
                        + cfg.topology.distances(note.found_at)[note.owner as usize];
                    per_event.push(t as f64);
                }
                if !per_event.is_empty() {
                    summary_lat.push(mean(&per_event));
                    summary_max.push(per_event.iter().cloned().fold(0.0, f64::max));
                }
                // Siena: parallel flood along reverse paths.
                let from_publisher = cfg.topology.distances(publisher);
                let siena: Vec<f64> = matched
                    .iter()
                    .map(|&m| from_publisher[m as usize] as f64)
                    .collect();
                if !siena.is_empty() {
                    siena_lat.push(mean(&siena));
                    siena_max.push(siena.iter().cloned().fold(0.0, f64::max));
                }
            }
        }
        table.push(vec![
            popularity * 100.0,
            mean(&summary_lat),
            mean(&summary_max),
            mean(&siena_lat),
            mean(&siena_max),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_tail_latency_grows_with_popularity() {
        // More matches reach deeper into the sequential visit chain: the
        // worst-case (tail) delivery latency rises with popularity.
        let cfg = ExperimentConfig {
            events_per_broker: 10,
            popularity_sweep: vec![0.10, 0.90],
            ..ExperimentConfig::default()
        };
        let t = run(&cfg);
        let max_lat = t.column_values("summary_max");
        assert!(
            max_lat[1] > max_lat[0],
            "tail latency should grow: {max_lat:?}"
        );
    }

    #[test]
    fn siena_parallel_flood_is_faster_at_high_popularity() {
        // The serialization cost of the BROCLI chain: at high popularity
        // Siena's parallel flood must deliver (on average) sooner.
        let cfg = ExperimentConfig {
            events_per_broker: 10,
            popularity_sweep: vec![0.90],
            ..ExperimentConfig::default()
        };
        let t = run(&cfg);
        let row = &t.rows[0];
        assert!(
            row[3] < row[1],
            "siena mean {} should beat summary mean {} at 90%",
            row[3],
            row[1]
        );
    }

    #[test]
    fn latencies_nonnegative_and_bounded() {
        let cfg = ExperimentConfig {
            events_per_broker: 5,
            popularity_sweep: vec![0.25],
            ..ExperimentConfig::default()
        };
        let t = run(&cfg);
        let row = &t.rows[0];
        for &v in &row[1..] {
            assert!(v >= 0.0);
            // Any latency is bounded by diameter × visits.
            assert!(v < (cfg.topology.diameter() as f64) * 24.0);
        }
        // Max ≥ mean.
        assert!(row[2] >= row[1]);
        assert!(row[4] >= row[3]);
    }
}
