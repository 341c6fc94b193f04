//! Ablation studies for design choices called out in the paper.
//!
//! * **Virtual degrees** (§6, ongoing work): capping the advertised
//!   degree of maximum-degree brokers during event routing spreads the
//!   examination load at a modest hop-count cost.
//! * **Probabilistic vs content-based subsumption** (§5.2 model): the
//!   paper abstracts Siena's pruning with a per-broker probability; the
//!   ablation compares it against real `covers()`-based pruning on the
//!   same workloads, showing which probability the content model
//!   effectively realizes.

use rand::rngs::StdRng;
use rand::SeedableRng;

use subsum_broker::{route_event, RoutingOptions};
use subsum_net::{NetMetrics, NodeId};
use subsum_siena::{propagate_content, propagate_probabilistic, SienaParams};
use subsum_types::Subscription;
use subsum_workload::popularity::{event_for, random_matched_set};
use subsum_workload::Workload;

use crate::common::{interest_overlay, mean, ResultTable};
use crate::config::ExperimentConfig;

/// Virtual-degree ablation: routing load vs the degree cap.
pub fn run_virtual_degrees(cfg: &ExperimentConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "ablation_vdeg",
        "event routing load with virtual degree caps (popularity 25%)",
        &[
            "degree_cap",
            "max_broker_load",
            "mean_broker_load",
            "mean_hops",
        ],
    );
    let n = cfg.topology.len();
    let (schema, stored) = interest_overlay(cfg);

    let max_degree = cfg.topology.max_degree();
    let caps: Vec<Option<usize>> = [None]
        .into_iter()
        .chain((1..max_degree).rev().map(Some))
        .collect();

    for cap in caps {
        let options = match cap {
            None => RoutingOptions::new(),
            Some(c) => RoutingOptions::with_virtual_degrees(&cfg.topology, c),
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut metrics = NetMetrics::new(n);
        let mut hops = Vec::new();
        for publisher in 0..n as NodeId {
            for _ in 0..cfg.events_per_broker {
                let matched = random_matched_set(n, 0.25, &mut rng);
                let event = event_for(&schema, &matched);
                let out = route_event(
                    &cfg.topology,
                    &stored,
                    publisher,
                    &event,
                    cfg.params.sub_size,
                    &options,
                );
                metrics.merge(&out.metrics);
                hops.push(out.total_hops() as f64);
            }
        }
        table.push(vec![
            cap.map(|c| c as f64).unwrap_or(max_degree as f64),
            metrics.max_broker_load() as f64,
            metrics.mean_broker_load(),
            mean(&hops),
        ]);
    }
    table
}

/// Subsumption-model ablation: hops under the probabilistic abstraction
/// vs real content-based pruning on the same generated workloads.
pub fn run_subsumption_models(cfg: &ExperimentConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "ablation_subsumption",
        "siena propagation: probabilistic model vs content-based pruning",
        &[
            "workload_subsumption_pct",
            "probabilistic_hops",
            "content_hops",
            "content_bytes",
        ],
    );
    let sigma = 50;
    for &p in &cfg.subsumption_sweep {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let prob = propagate_probabilistic(
            &cfg.topology,
            sigma,
            SienaParams {
                subsumption_max: p,
                sub_size: cfg.params.sub_size,
            },
            &mut rng,
        );

        let mut workload = Workload::new(cfg.params, p);
        let schema = workload.schema().clone();
        let subs: Vec<Vec<Subscription>> = (0..cfg.topology.len())
            .map(|_| workload.subscriptions(sigma, &mut rng))
            .collect();
        let content = propagate_content(&cfg.topology, &schema, &subs, cfg.params.sst);

        table.push(vec![
            p * 100.0,
            prob.hops() as f64,
            content.hops() as f64,
            content.metrics.payload_bytes as f64,
        ]);
    }
    table
}

/// §6 "combining summarization and subsumption" ablation: propagation
/// bandwidth with and without the subscription-shadowing filter.
///
/// Covering between the independently-drawn subscriptions of the Table 2
/// model is rare (see [`run_subsumption_models`]), so the filter is
/// exercised on a workload where covering actually occurs: a fraction of
/// subscriptions are *threshold* filters (`num0 < v`, `v` from a small
/// Zipf-skewed pool), which nest into covering chains — the alert-style
/// subscriptions real deployments see.
pub fn run_subsumption_filter(cfg: &ExperimentConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "ablation_filter",
        "summary propagation bytes with/without the subsumption filter",
        &[
            "threshold_fraction_pct",
            "bytes_unfiltered",
            "bytes_filtered",
            "shadowed_subs",
            "savings_pct",
        ],
    );
    let sigma = 100;
    let zipf = subsum_workload::Zipf::new(10, 1.0);
    for &frac in &cfg.subsumption_sweep {
        let run = |filter: bool| -> (u64, usize) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let mut workload = Workload::new(cfg.params, 0.5);
            let schema = workload.schema().clone();
            let mut sys = subsum_broker::SummaryPubSub::new(
                cfg.topology.clone(),
                schema.clone(),
                sigma as u64 + 1,
            )
            .expect("schema fits");
            sys.set_subsumption_filter(filter);
            for b in 0..cfg.topology.len() as NodeId {
                for _ in 0..sigma {
                    let sub = if rng.gen::<f64>() < frac {
                        // Nested threshold subscription: larger bounds
                        // cover smaller ones.
                        let rank = zipf.sample(&mut rng);
                        let bound = 100.0 * (rank as f64 + 1.0);
                        Subscription::builder(&schema)
                            .num("num0", subsum_types::NumOp::Lt, bound)
                            .expect("num0 exists")
                            .build()
                            .expect("non-empty")
                    } else {
                        workload.subscription(&mut rng)
                    };
                    sys.subscribe(b, &sub).expect("ids fit");
                }
            }
            sys.propagate().expect("ids fit");
            let shadowed = (0..cfg.topology.len() as NodeId)
                .map(|b| sys.shadowed_count(b))
                .sum();
            (sys.propagation_metrics().payload_bytes, shadowed)
        };
        let (unfiltered, _) = run(false);
        let (filtered, shadowed) = run(true);
        table.push(vec![
            frac * 100.0,
            unfiltered as f64,
            filtered as f64,
            shadowed as f64,
            100.0 * (unfiltered as f64 - filtered as f64) / unfiltered as f64,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_degrees_reduce_peak_load() {
        let cfg = ExperimentConfig {
            events_per_broker: 10,
            ..ExperimentConfig::default()
        };
        let t = run_virtual_degrees(&cfg);
        // First row: no cap (true degrees). Strongest cap: last row.
        let uncapped_max = t.rows[0][1];
        let capped_max = t.rows.last().unwrap()[1];
        assert!(
            capped_max < uncapped_max,
            "cap should reduce peak load: {capped_max} vs {uncapped_max}"
        );
    }

    #[test]
    fn virtual_degrees_cost_hops() {
        let cfg = ExperimentConfig {
            events_per_broker: 10,
            ..ExperimentConfig::default()
        };
        let t = run_virtual_degrees(&cfg);
        let uncapped_hops = t.rows[0][3];
        let capped_hops = t.rows.last().unwrap()[3];
        assert!(capped_hops >= uncapped_hops * 0.9);
    }

    #[test]
    fn filter_saves_bandwidth_at_high_covering() {
        let cfg = ExperimentConfig {
            subsumption_sweep: vec![0.9],
            ..ExperimentConfig::fast()
        };
        let t = run_subsumption_filter(&cfg);
        let row = &t.rows[0];
        assert!(row[3] > 0.0, "high covering must shadow some subscriptions");
        assert!(
            row[2] < row[1],
            "filtered bytes {} should undercut unfiltered {}",
            row[2],
            row[1]
        );
    }

    #[test]
    fn content_pruning_increases_with_workload_subsumption() {
        let cfg = ExperimentConfig {
            subsumption_sweep: vec![0.10, 0.90],
            ..ExperimentConfig::fast()
        };
        let t = run_subsumption_models(&cfg);
        let hops = t.column_values("content_hops");
        assert!(
            hops[1] < hops[0],
            "higher workload subsumption must prune more: {hops:?}"
        );
    }
}
