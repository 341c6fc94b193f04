//! Workload generators for the subscription-summarization experiments.
//!
//! * [`PaperParams`] — the paper's Table 2 parameter space and derived
//!   workload shape (attributes per subscription, sweeps);
//! * [`Workload`] — subscriptions and events under the §5.1 model, with
//!   the subsumption probability controlling how often constraints
//!   collapse into canonical summary rows;
//! * [`popularity`] — interest workloads matching an exact random broker
//!   set per event (Fig. 10's popularity axis);
//! * [`StockFeed`] — a realistic stock-quote feed over the paper's Fig. 2
//!   schema for the runnable examples;
//! * [`Zipf`] — a Zipf-distributed rank sampler;
//! * [`witness_event`] — an event built to match a given subscription.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod generator;
mod params;
pub mod popularity;
mod stock;
mod witness;
mod zipf;

pub use generator::{experiment_schema, Workload};
pub use params::PaperParams;
pub use stock::{StockFeed, EXCHANGES, SYMBOLS};
pub use witness::witness_event;
pub use zipf::Zipf;
