//! Subscription summaries — the core contribution of Triantafillou &
//! Economides, *Subscription Summarization: A New Paradigm for Efficient
//! Publish/Subscribe Systems* (ICDCS 2004).
//!
//! A broker summarizes the subscriptions it receives into two compact
//! per-attribute structures instead of storing subscription entities:
//!
//! * [`RangeSummary`] (**AACS**, §3.1/Fig. 4) — non-overlapping value
//!   sub-ranges plus out-of-range equality values for each arithmetic
//!   attribute, each row carrying a subscription-id list;
//! * [`PatternSummary`] (**SACS**, §3.1/Fig. 5) — general (covering) glob
//!   patterns for each string attribute, again with id lists.
//!
//! [`BrokerSummary`] combines the structures over a schema, implements the
//! event-matching **Algorithm 1** (§3.3) with its per-id attribute
//! counters, supports *merging* into multi-broker summaries (§4.1),
//! removal and rebuild maintenance, an analytic size model matching the
//! paper's equations (1)–(2) ([`SummaryStats`]), and a compact wire format
//! ([`SummaryCodec`]) whose measured sizes drive the bandwidth
//! experiments.
//!
//! # Matching guarantee
//!
//! Summary matching never produces false negatives; SACS generalization
//! may produce false positives, which the subscription's home broker
//! eliminates by re-checking candidates against its exact subscription
//! store (two-tier matching; see the `subsum-broker` crate).
//!
//! # Example
//!
//! ```
//! use subsum_core::BrokerSummary;
//! use subsum_types::{stock_schema, Subscription, Event, StrOp,
//!                    BrokerId, LocalSubId};
//!
//! # fn main() -> Result<(), subsum_types::TypeError> {
//! let schema = stock_schema();
//! let mut summary = BrokerSummary::new(schema.clone());
//! let sub = Subscription::builder(&schema)
//!     .str_op("symbol", StrOp::Prefix, "OT")?
//!     .build()?;
//! let id = summary.insert(BrokerId(2), LocalSubId(0), &sub);
//!
//! let event = Event::builder(&schema).str("symbol", "OTE")?.build();
//! assert_eq!(summary.match_event(&event), vec![id]);
//! # Ok(())
//! # }
//! ```

// Safe code throughout: `ShardedSummary` publishes its snapshots through
// `Mutex<Arc<_>>`, so no module may opt back in.
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

mod aacs;
mod digest;
mod idlist;
mod plan;
mod sacs;
mod shard;
mod stats;
mod summary;
#[cfg(test)]
mod testkit;
mod wire;

pub use aacs::{QueryCost, RangeRow, RangeSummary};
pub use digest::SummaryDigest;
#[cfg(any(test, debug_assertions))]
pub use idlist::validate_idlist;
pub use idlist::{DenseId, IdList, SubIdList};
pub use sacs::{PatternRow, PatternSummary};
pub use shard::{ShardScratch, ShardedSummary};
pub use stats::{SizeParams, SummaryStats};
pub use summary::{BrokerSummary, MatchOutcome, MatchScratch, MatchStats};
pub use wire::{ArithWidth, SummaryCodec, WireError};
