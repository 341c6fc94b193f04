//! Shared experiment configuration.

use subsum_net::Topology;
use subsum_workload::PaperParams;

/// Configuration shared by all figure experiments.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The broker overlay (default: the 24-node backbone model).
    pub topology: Topology,
    /// The workload parameter set (default: Table 2).
    pub params: PaperParams,
    /// RNG seed; all experiments are deterministic under a fixed seed.
    pub seed: u64,
    /// Repetitions for experiments with random components.
    pub trials: usize,
    /// Events per broker for the event-routing experiment (the paper uses
    /// 1000; the default here keeps runs short).
    pub events_per_broker: usize,
    /// The σ sweep (new subscriptions per broker per period).
    pub sigma_sweep: Vec<usize>,
    /// The subsumption-probability sweep.
    pub subsumption_sweep: Vec<f64>,
    /// The event-popularity sweep.
    pub popularity_sweep: Vec<f64>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            topology: Topology::cable_wireless_24(),
            params: PaperParams::default(),
            seed: 0x5EED,
            trials: 5,
            events_per_broker: 50,
            sigma_sweep: PaperParams::sigma_sweep().to_vec(),
            subsumption_sweep: PaperParams::subsumption_sweep().to_vec(),
            popularity_sweep: PaperParams::popularity_sweep().to_vec(),
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for quick smoke runs and CI.
    pub fn fast() -> Self {
        ExperimentConfig {
            trials: 2,
            events_per_broker: 10,
            sigma_sweep: vec![10, 100, 500],
            ..ExperimentConfig::default()
        }
    }
}
