//! # subsum — subscription summarization for publish/subscribe systems
//!
//! A from-scratch Rust implementation of Triantafillou & Economides,
//! *Subscription Summarization: A New Paradigm for Efficient
//! Publish/Subscribe Systems* (ICDCS 2004), together with the substrates
//! its evaluation depends on. This facade crate re-exports the workspace:
//!
//! * [`types`] — events, subscriptions, glob patterns with covering,
//!   interval algebra, bit-packed subscription ids;
//! * [`core`] — the AACS/SACS summary structures, the Algorithm 1
//!   matcher, merging, the size model and wire codec;
//! * [`net`] — broker overlay topologies and traffic metering;
//! * [`broker`] — Algorithm 2 summary propagation, Algorithm 3 event
//!   routing, the end-to-end [`SummaryPubSub`] system and the
//!   [`ChaosRun`](broker::ChaosRun) fault-injection harness (the third
//!   host of the one `BrokerCore`, `subsumd`, is `subsum-transport`);
//! * [`siena`] — the reconstructed Siena-style and broadcast baselines;
//! * [`workload`] — Table 2 workload generators, popularity workloads and
//!   a stock feed;
//! * [`experiments`] — regeneration of every figure in the paper's §5;
//! * [`telemetry`] — pipeline-stage tracing, latency histograms and
//!   exportable run reports across the broker stack.
//!
//! The workspace depends on no external crate: its one seeded random
//! stream and its property-test runner are `crates/rand`.
//!
//! # Quickstart
//!
//! ```
//! use subsum::broker::SummaryPubSub;
//! use subsum::net::Topology;
//! use subsum::types::{stock_schema, Subscription, Event, NumOp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut system = SummaryPubSub::new(
//!     Topology::cable_wireless_24(), stock_schema(), 1000)?;
//! let schema = system.schema().clone();
//!
//! let sub = Subscription::builder(&schema)
//!     .num("price", NumOp::Lt, 9.0)?
//!     .build()?;
//! let id = system.subscribe(7, &sub)?;
//! system.propagate()?;
//!
//! let event = Event::builder(&schema).num("price", 8.4)?.build();
//! let out = system.publish(0, &event);
//! assert_eq!(out.deliveries[0].id, id);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use subsum_broker as broker;
pub use subsum_core as core;
pub use subsum_experiments as experiments;
pub use subsum_net as net;
pub use subsum_siena as siena;
pub use subsum_telemetry as telemetry;
pub use subsum_types as types;
pub use subsum_workload as workload;

pub use subsum_broker::SummaryPubSub;
