//! Broker overlay network substrate for the subscription-summarization
//! reproduction.
//!
//! The paper evaluates its algorithms on broker overlays such as the
//! 24-node US Cable & Wireless backbone (§5.2). This crate provides:
//!
//! * [`Topology`] — undirected connected overlays with the named instances
//!   the experiments need (the Fig. 7 example tree, a 24-node backbone
//!   model) and artificial families (lines, rings, stars, trees, grids,
//!   random connected, Barabási–Albert), plus the graph algorithms the
//!   propagation/routing layers build on (the hop-distance matrix each
//!   topology derives once at construction, per-source
//!   spanning trees, multicast subtree sizes);
//! * [`NetMetrics`] — byte/message/hop accounting following the paper's
//!   conventions (a hop is any broker→broker message);
//! * [`EventQueue`] — a deterministic discrete-event queue that sequences
//!   simulated message deliveries reproducibly;
//! * [`FaultPlan`] / [`LossyNet`] — seeded, replayable fault injection
//!   (drops, duplicates, delays, link cuts, partitions, broker crashes)
//!   layered onto the event queue.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs, missing_debug_implementations)]

mod fault;
mod metrics;
mod sim;
mod topology;

pub use fault::{
    mix64, CrashEvent, DeliveryDecision, Envelope, FaultPlan, FaultStats, LinkCut, LinkProfile,
    LossyNet, PartitionWindow, SplitMix64,
};
pub use metrics::NetMetrics;
pub use sim::EventQueue;
pub use topology::{NodeId, Topology, TopologyError};
