//! Experiment engine regenerating every table and figure of the ICDCS
//! 2004 subscription-summarization evaluation (§5).
//!
//! Each module reproduces one figure and returns a [`ResultTable`] whose
//! rows mirror the paper's plotted series:
//!
//! | module | paper | metric |
//! |--------|-------|--------|
//! | [`fig8`] | Fig. 8 | bandwidth for subscription propagation vs σ |
//! | [`fig9`] | Fig. 9 | mean hops for subscription propagation vs subsumption |
//! | [`fig10`] | Fig. 10 | mean hops for event processing vs popularity |
//! | [`fig11`] | Fig. 11 | total subscription storage vs S |
//! | [`compute`] | §5.2.4 | matching latency vs subscription count |
//! | [`analysis`] | Eq. (1)/(2) | analytic sizes vs measured wire bytes |
//! | [`ablations`] | §6 / §5.2 | virtual degrees; subsumption models; the §6 filter |
//! | [`latency`] | beyond the paper | delivery latency: sequential BROCLI vs parallel flood |
//! | [`recovery`] | beyond the paper | crash/recovery convergence; anti-entropy vs naive repair traffic |
//! | [`traces`] | beyond the paper | causal-trace latency attribution |
//!
//! All experiments are deterministic under [`ExperimentConfig::seed`].
//!
//! # Example
//!
//! ```
//! use subsum_experiments::{fig9, ExperimentConfig};
//! let table = fig9::run(&ExperimentConfig::fast());
//! println!("{table}");
//! assert_eq!(table.columns[0], "subsumption_pct");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod ablations;
pub mod analysis;
mod common;
pub mod compute;
mod config;
pub mod fig10;
pub mod fig11;
pub mod fig8;
pub mod fig9;
pub mod latency;
pub mod recovery;
pub mod scaling;
pub mod traces;

pub use common::{mean, stddev, ResultTable};
pub use config::ExperimentConfig;

/// Runs every experiment, returning the regenerated tables in paper
/// order.
pub fn run_all(cfg: &ExperimentConfig) -> Vec<ResultTable> {
    vec![
        fig8::run(cfg),
        fig9::run(cfg),
        fig10::run(cfg),
        fig11::run(cfg),
        compute::run(cfg),
        analysis::run(cfg),
        ablations::run_virtual_degrees(cfg),
        ablations::run_subsumption_models(cfg),
        ablations::run_subsumption_filter(cfg),
        latency::run(cfg),
        scaling::run(cfg),
        recovery::run(cfg),
        traces::run(cfg),
    ]
}
