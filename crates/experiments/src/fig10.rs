//! Fig. 10 — mean hop counts for distributed event processing.
//!
//! For varying event popularity (the fraction of brokers whose
//! subscriptions an event matches, chosen randomly per event), the
//! experiment publishes events from every broker and counts hops:
//!
//! * **Summary** — Algorithm 3: forwards between examining brokers plus
//!   notifications to matched owners;
//! * **Siena** — reverse-path multicast: the union of the overlay paths
//!   from the publisher to every matched broker.
//!
//! The paper finds the summary approach better for popularities up to
//! ~75%, with Siena winning only for extremely popular events.

use rand::rngs::StdRng;
use rand::SeedableRng;

use subsum_broker::{route_event, RoutingOptions};
use subsum_net::NodeId;
use subsum_siena::{reverse_path_route, SienaEventRouting};
use subsum_workload::popularity::{event_for, random_matched_set};

use crate::common::{interest_overlay, mean, ResultTable};
use crate::config::ExperimentConfig;

/// Runs the Fig. 10 experiment.
pub fn run(cfg: &ExperimentConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "fig10",
        "mean hops for event processing vs event popularity",
        &["popularity_pct", "summary", "siena", "siena_ideal"],
    );
    let n = cfg.topology.len();
    let (schema, stored) = interest_overlay(cfg);
    let options = RoutingOptions::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Siena's routing state after a propagation period at 50% stated
    // subsumption (the middle of the paper's sweep).
    let siena_state = SienaEventRouting::build(&cfg.topology, 0.5, &mut rng);

    for &popularity in &cfg.popularity_sweep {
        let mut summary_hops = Vec::new();
        let mut siena_hops = Vec::new();
        let mut siena_ideal_hops = Vec::new();
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
                debug_assert_eq!(
                    out.notifications.len(),
                    matched.len(),
                    "routing must find exactly the matched brokers"
                );
                summary_hops.push(out.total_hops() as f64);
                siena_hops.push(siena_state.route(publisher, &matched).hops() as f64);
                siena_ideal_hops
                    .push(reverse_path_route(&cfg.topology, publisher, &matched).hops() as f64);
            }
        }
        table.push(vec![
            popularity * 100.0,
            mean(&summary_hops),
            mean(&siena_hops),
            mean(&siena_ideal_hops),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_grow_with_popularity() {
        let cfg = ExperimentConfig {
            events_per_broker: 5,
            popularity_sweep: vec![0.10, 0.90],
            ..ExperimentConfig::default()
        };
        let t = run(&cfg);
        let summary = t.column_values("summary");
        let siena = t.column_values("siena");
        assert!(summary[1] > summary[0]);
        assert!(siena[1] > siena[0]);
    }

    #[test]
    fn summary_wins_at_mid_popularity() {
        // The paper's headline: the summary approach wins through the
        // mid-popularity range (its Fig. 10 shows wins up to ~75%).
        let cfg = ExperimentConfig {
            events_per_broker: 10,
            popularity_sweep: vec![0.25, 0.50, 0.75],
            ..ExperimentConfig::default()
        };
        let t = run(&cfg);
        for row in &t.rows {
            assert!(
                row[1] < row[2],
                "summary {} should beat siena {} at {}% popularity",
                row[1],
                row[2],
                row[0]
            );
        }
    }

    #[test]
    fn low_popularity_within_fixed_cost_band() {
        // At 10% popularity the summary approach pays a fixed BROCLI
        // completion cost; it must stay within a small factor of Siena.
        let cfg = ExperimentConfig {
            events_per_broker: 10,
            popularity_sweep: vec![0.10],
            ..ExperimentConfig::default()
        };
        let t = run(&cfg);
        let row = &t.rows[0];
        assert!(
            row[1] < row[2] * 1.5,
            "summary {} should stay near siena {} at 10%",
            row[1],
            row[2]
        );
    }

    #[test]
    fn siena_competitive_at_extreme_popularity() {
        // The paper's crossover: at very high popularity Siena's
        // saturated multicast tree is no worse than visiting brokers and
        // notifying owners individually.
        let cfg = ExperimentConfig {
            events_per_broker: 10,
            popularity_sweep: vec![0.90],
            ..ExperimentConfig::default()
        };
        let t = run(&cfg);
        let row = &t.rows[0];
        let siena_ideal = row[3];
        assert!(
            siena_ideal <= row[1] * 1.25,
            "ideal siena {} should be at least competitive with summary {} at 90%",
            siena_ideal,
            row[1]
        );
    }
}
