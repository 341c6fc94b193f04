//! §5.2.4 — computational demands of event matching.
//!
//! The paper analyzes the matcher's cost as `T₁` (scanning the summary
//! structures per event attribute) plus `T₂ = Θ(P)` (checking the `P`
//! collected candidates), for a total of `O(N)` in the number of
//! subscriptions — the same asymptotic class as per-subscription
//! matching, but "we expect that event filtering and matching will be
//! faster in our paradigm, given the summaries and the generalized
//! attributes".
//!
//! This experiment measures wall-clock matching latency of the summary
//! matcher against a naive per-subscription scan for growing `N`, on two
//! event mixes:
//!
//! * **selective** events (hit rate 0.2): few constraints satisfied, so
//!   `P ≪ N` — the summary matcher touches only the short satisfied id
//!   lists while the naive scan still evaluates every subscription;
//! * **popular** events (hit rate 0.7): most subscriptions are
//!   candidates, `P = Θ(N)`, and both matchers are linear.
//!
//! `scan_popular_us` is the flat-scan oracle (`match_event_scan`) on the
//! popular mix, beside the compiled plan's `summary_popular_us`: what
//! the plan buys over scanning every summary row, as `N` grows.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use subsum_core::{BrokerSummary, MatchScratch};
use subsum_types::{BrokerId, Event, LocalSubId, Subscription};
use subsum_workload::Workload;

use crate::common::ResultTable;
use crate::config::ExperimentConfig;

fn measure_us(events: &[Event], mut f: impl FnMut(&Event) -> usize) -> f64 {
    let mut total = 0usize;
    let start = Instant::now();
    for e in events {
        total += f(e);
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / events.len() as f64;
    // Keep the result observable so the loop is not optimized away.
    std::hint::black_box(total);
    us
}

/// Runs the matching-cost experiment.
pub fn run(cfg: &ExperimentConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "compute",
        "event matching cost vs subscription count (us per event)",
        &[
            "subscriptions",
            "summary_selective_us",
            "summary_popular_us",
            "scan_popular_us",
            "naive_us",
            "speedup_selective",
            "speedup_popular",
        ],
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut workload = Workload::new(cfg.params, 0.7);
    let schema = workload.schema().clone();

    for &n in &cfg.sigma_sweep {
        let subs: Vec<Subscription> = workload.subscriptions(n, &mut rng);
        let mut summary = BrokerSummary::new(schema.clone());
        for (i, sub) in subs.iter().enumerate() {
            summary.insert(BrokerId(0), LocalSubId(i as u32), sub);
        }
        let selective: Vec<Event> = (0..200).map(|_| workload.event(0.2, &mut rng)).collect();
        let popular: Vec<Event> = (0..200).map(|_| workload.event(0.7, &mut rng)).collect();

        // The summary matcher runs through one reused scratch, as a
        // steady-state broker would (zero allocations per event).
        let mut scratch = MatchScratch::new();
        let summary_selective = measure_us(&selective, |e| {
            summary.match_event_into(e, &mut scratch).matched.len()
        });
        let summary_popular = measure_us(&popular, |e| {
            summary.match_event_into(e, &mut scratch).matched.len()
        });
        let scan_popular = measure_us(&popular, |e| summary.match_event_scan(e).matched.len());
        // The naive scan's cost is independent of selectivity: measure on
        // the popular mix (its best case for cache effects).
        let naive = measure_us(&popular, |e| subs.iter().filter(|s| s.matches(e)).count());

        table.push(vec![
            n as f64,
            summary_selective,
            summary_popular,
            scan_popular,
            naive,
            naive / summary_selective.max(1e-9),
            naive / summary_popular.max(1e-9),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_reports_positive_latencies() {
        let cfg = ExperimentConfig {
            sigma_sweep: vec![50, 200],
            ..ExperimentConfig::fast()
        };
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            assert!(row[1..=4].iter().all(|&us| us > 0.0));
        }
    }

    #[test]
    fn summary_matcher_scales_better_than_naive() {
        // On selective events the summary matcher must win decisively at
        // scale; on popular events it must remain at least comparable
        // (the paper's "same complexity, better constants").
        if cfg!(debug_assertions) {
            // Timing claims are meaningful for optimized builds only;
            // `cargo test --release` exercises this assertion.
            return;
        }
        let cfg = ExperimentConfig {
            sigma_sweep: vec![2000],
            ..ExperimentConfig::fast()
        };
        let t = run(&cfg);
        let selective_speedup = t.column_values("speedup_selective")[0];
        let popular_speedup = t.column_values("speedup_popular")[0];
        assert!(
            selective_speedup > 2.0,
            "expected a decisive selective-event speedup, got {selective_speedup}"
        );
        assert!(
            popular_speedup > 0.7,
            "popular-event matching should stay comparable, got {popular_speedup}"
        );
    }
}
