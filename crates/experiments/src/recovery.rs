//! Recovery experiment — beyond the paper: convergence time and repair
//! traffic under a seeded fault plan.
//!
//! Runs the same chaos scenario (per-link drops + duplication, one
//! broker crash with checkpoint recovery) twice over the configured
//! topology: once with digest-driven **anti-entropy** repair and once
//! with the **naive** baseline that re-sends the full summary to every
//! neighbor each round. Both runs must converge to the fault-free
//! oracle; the interesting deltas are the bytes on the wire and the
//! repair traffic after the faults end.
//!
//! One row per strategy: convergence tick, total/full/digest/pull
//! bytes, and the fault counters (drops, duplicates, crash drops,
//! resyncs).

use rand::rngs::StdRng;
use rand::SeedableRng;

use subsum_broker::{ChaosConfig, ChaosReport, ChaosRun};
use subsum_net::{CrashEvent, FaultPlan, LinkProfile};
use subsum_workload::Workload;

use crate::common::ResultTable;
use crate::config::ExperimentConfig;

/// Subscriptions per broker (kept small: the scenario exchanges whole
/// summaries repeatedly).
const SUBS_PER_BROKER: usize = 4;

/// The shared crash/recovery fault plan (also replayed by the traces
/// experiment for latency attribution under faults).
pub(crate) fn scenario_plan(cfg: &ExperimentConfig) -> FaultPlan {
    let mut plan = FaultPlan::reliable(cfg.seed);
    plan.default_link = LinkProfile {
        drop: 0.15,
        duplicate: 0.10,
        max_extra_delay: 3,
    };
    // Crash the highest-degree broker mid-run; it recovers from its
    // checkpoint two repair rounds later.
    let hub = (0..cfg.topology.len() as u16)
        .max_by_key(|&b| cfg.topology.degree(b))
        .unwrap_or(0);
    plan.crashes.push(CrashEvent {
        broker: hub,
        at: 120,
        restart_at: 220,
    });
    plan
}

fn run_strategy(cfg: &ExperimentConfig, naive: bool) -> ChaosReport {
    let mut workload = Workload::new(cfg.params, 0.5);
    let schema = workload.schema().clone();
    let config = ChaosConfig {
        naive_repair: naive,
        ..ChaosConfig::default()
    };
    let mut run = ChaosRun::new(cfg.topology.clone(), schema, scenario_plan(cfg), config)
        .expect("schema fits the id layout");
    // Identical subscriptions for both strategies: one seeded generator
    // per strategy call.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC4A05);
    for b in 0..cfg.topology.len() as u16 {
        for _ in 0..SUBS_PER_BROKER {
            let sub = workload.subscription(&mut rng);
            run.subscribe(b, &sub).expect("id layout fits");
        }
    }
    run.checkpoint_all();
    run.run().expect("chaos run is schema-consistent")
}

/// Runs the recovery experiment.
pub fn run(cfg: &ExperimentConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "recovery",
        "Crash/recovery with anti-entropy repair vs naive full re-propagation \
         (drops 15%, dups 10%, one broker crash; strategy 0 = anti-entropy, 1 = naive)",
        &[
            "naive",
            "converged",
            "converged_at",
            "total_bytes",
            "full_summary_bytes",
            "digest_bytes",
            "pull_bytes",
            "full_updates",
            "resyncs",
            "dropped",
            "duplicated",
            "crash_dropped",
        ],
    );
    for naive in [false, true] {
        let report = run_strategy(cfg, naive);
        table.push(vec![
            naive as u64 as f64,
            report.converged as u64 as f64,
            report.converged_at.unwrap_or(0) as f64,
            report.stats.total_bytes() as f64,
            report.stats.full_summary_bytes as f64,
            report.stats.digest_bytes as f64,
            report.stats.pull_bytes as f64,
            report.stats.full_updates as f64,
            report.stats.resyncs as f64,
            report.stats.dropped as f64,
            report.stats.duplicated as f64,
            report.stats.crash_dropped as f64,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_strategies_converge_and_anti_entropy_is_cheaper() {
        let cfg = ExperimentConfig::fast();
        let table = run(&cfg);
        assert_eq!(table.rows.len(), 2);
        let col = |name: &str, row: usize| {
            let i = table.columns.iter().position(|c| c == name).unwrap();
            table.rows[row][i]
        };
        for row in 0..2 {
            assert_eq!(col("converged", row), 1.0, "strategy {row} must converge");
        }
        let smart = col("total_bytes", 0);
        let naive = col("total_bytes", 1);
        assert!(
            smart < naive,
            "anti-entropy bytes {smart} must beat naive {naive}"
        );
        // Naive repair runs no digest rounds: its only digest frames are
        // the restart's `Hello`/`HelloAck` handshake.
        assert!(col("digest_bytes", 0) > 10.0 * col("digest_bytes", 1));
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let cfg = ExperimentConfig::fast();
        assert_eq!(run(&cfg).rows, run(&cfg).rows);
    }
}
