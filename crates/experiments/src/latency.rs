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
//!   that visit reaches its owner after the owner's distance on top
//!   (the router's `Notification::eta`).
//! * **Siena (idealized)**: every matched broker receives the event after
//!   its shortest-path distance from the publisher (parallel flood).
//!
//! The trade-off quantified here: the summary approach saves hops
//! (bandwidth, broker involvement) but pays serialization latency for
//! late-visited matches, growing with popularity.

use rand::rngs::StdRng;
use rand::SeedableRng;

use subsum_broker::{route_event, RoutingOptions};
use subsum_net::NodeId;
use subsum_workload::popularity::{event_for, random_matched_set};

use crate::common::{interest_overlay, mean, ResultTable};
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
    let (schema, stored) = interest_overlay(cfg);
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
                // Each notification's arrival tick at its owner.
                let per_event: Vec<f64> = out
                    .notifications
                    .iter()
                    .map(|note| note.eta as f64)
                    .collect();
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
