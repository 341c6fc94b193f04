//! Summary-centric publish/subscribe brokers — the distributed half of the
//! ICDCS 2004 subscription-summarization system.
//!
//! Building on the summary structures of `subsum-core`, this crate holds
//! the paper's broker and its distributed algorithms, each written once:
//!
//! * [`core`] — [`BrokerCore`], one broker without I/O: exact
//!   store, own summary, and every decision a broker takes alone
//!   (admission, checkpoint/restore, tier-2 verification), the same
//!   under every host;
//! * [`daemon`] — [`DaemonCore`], one broker daemon without I/O: the
//!   framed [`Msg`] protocol ([`frame`], [`msg`]) over numbered
//!   connections, including the neighbour views and their digest gate,
//!   with its outputs handed to a host's [`Sink`];
//! * [`propagation`] — **Algorithm 2** (§4.2): degree-indexed propagation
//!   of multi-broker summaries with `Merged_Brokers` bookkeeping;
//! * [`routing`] — **Algorithm 3** (§4.3): one broker's BROCLI step
//!   ([`routing::examine`]) and the in-process loop over it, including
//!   the paper's *virtual degrees* extension (§6);
//!
//! and two hosts that own one core per broker and only move messages
//! (the third, `subsumd`, lives in `subsum-transport`):
//!
//! * [`SummaryPubSub`] — the deterministic end-to-end engine;
//! * [`chaos`] — [`DaemonCore`]s exchanging frame bytes under
//!   deterministic fault injection, with checkpoint recovery and
//!   digest-driven anti-entropy.
//!
//! # Example
//!
//! ```
//! use subsum_broker::SummaryPubSub;
//! use subsum_net::Topology;
//! use subsum_types::{stock_schema, Subscription, Event, NumOp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut system = SummaryPubSub::new(
//!     Topology::cable_wireless_24(), stock_schema(), 1000)?;
//! let schema = system.schema().clone();
//! let sub = Subscription::builder(&schema)
//!     .num("price", NumOp::Lt, 10.0)?
//!     .build()?;
//! let id = system.subscribe(7, &sub)?;
//! system.propagate()?;
//! let event = Event::builder(&schema).num("price", 8.4)?.build();
//! assert_eq!(system.publish(0, &event).deliveries[0].id, id);
//! # Ok(())
//! # }
//! ```

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

pub mod chaos;
pub mod core;
pub mod daemon;
pub mod frame;
pub mod msg;
pub mod propagation;
pub mod routing;
mod snapshot;
mod system;

pub use crate::core::BrokerCore;
pub use chaos::{ChaosConfig, ChaosReport, ChaosRun, ChaosStats};
pub use daemon::{ConnId, DaemonCore, DaemonCounters, Role, Sink};
pub use frame::{Frame, FrameDecoder, FrameError};
pub use msg::{Msg, MsgError};
pub use propagation::{propagate, MergedSummary, PropagationOutcome, PropagationSend};
pub use routing::{route_event, Notification, RoutingOptions, RoutingOutcome};
pub use snapshot::{BrokerCheckpoint, SnapshotError};
pub use system::{Delivery, PublishOutcome, SummaryPubSub};
