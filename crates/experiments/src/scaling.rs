//! Schema-width scaling of the matcher — an empirical check of the
//! paper's T₁ analysis (§5.2.4).
//!
//! The paper bounds matching time by
//! `T₁ = n_ae · max(n_sr·L_a, n_e·L_a) + n_se · n_r · L_s`: linear in the
//! number of *event* attributes (`n_ae + n_se`), with per-attribute costs
//! set by the summary row counts. This experiment sweeps the schema width
//! `n_t` (holding the subscription population fixed) and reports matching
//! latency and summary size: both should grow roughly linearly with the
//! event attribute count `n_t/2`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use subsum_core::{BrokerSummary, MatchScratch, SizeParams, SummaryStats};
use subsum_types::{BrokerId, Event, LocalSubId};
use subsum_workload::{PaperParams, Workload};

use crate::common::ResultTable;
use crate::config::ExperimentConfig;

/// Runs the schema-width scaling experiment.
pub fn run(cfg: &ExperimentConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "scaling_nt",
        "matcher latency and summary size vs schema width (S = 500)",
        &[
            "nt",
            "attrs_per_event",
            "match_us",
            "summary_bytes",
            "rows_scanned",
        ],
    );
    let subs = 500;
    for &nt in &[4usize, 10, 20, 40] {
        let params = PaperParams { nt, ..cfg.params };
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut workload = Workload::new(params, 0.7);
        let schema = workload.schema().clone();
        let mut summary = BrokerSummary::new(schema.clone());
        for i in 0..subs {
            let sub = workload.subscription(&mut rng);
            summary.insert(BrokerId(0), LocalSubId(i as u32), &sub);
        }
        let events: Vec<Event> = (0..200).map(|_| workload.event(0.5, &mut rng)).collect();
        let mut total = 0usize;
        let start = Instant::now();
        for e in &events {
            total += summary.match_event(e).len();
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / events.len() as f64;
        std::hint::black_box(total);
        let stats = SummaryStats::of(&summary);
        table.push(vec![
            nt as f64,
            params.attrs_per_sub() as f64,
            us,
            stats.total_size(SizeParams::default()) as f64,
            summary
                .match_event_into(&events[0], &mut MatchScratch::new())
                .stats
                .rows_scanned as f64,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_size_grows_with_schema_width() {
        let t = run(&ExperimentConfig::fast());
        let sizes = t.column_values("summary_bytes");
        assert!(
            sizes.last().unwrap() > sizes.first().unwrap(),
            "wider schemata must produce larger summaries: {sizes:?}"
        );
    }

    #[test]
    fn latency_growth_is_roughly_linear_in_event_width() {
        // From nt = 4 to nt = 40 the event attribute count grows 10×;
        // latency should grow far less than quadratically. (Ratio-based,
        // so it holds in both debug and release builds.)
        let t = run(&ExperimentConfig::fast());
        let lat = t.column_values("match_us");
        let growth = lat.last().unwrap() / lat.first().unwrap().max(1e-9);
        assert!(
            growth < 100.0,
            "latency growth {growth}× looks super-linear"
        );
        assert!(lat.iter().all(|&v| v > 0.0));
    }
}
