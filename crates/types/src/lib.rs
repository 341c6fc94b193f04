//! Type system for content-based publish/subscribe.
//!
//! This crate provides the event/subscription data model of
//! Triantafillou & Economides, *Subscription Summarization: A New Paradigm
//! for Efficient Publish/Subscribe Systems* (ICDCS 2004), §2.1 and §3.2:
//!
//! * **Attributes and values** — an event is an untyped set of typed
//!   attributes (`type – name – value`); see [`Schema`], [`AttrKind`],
//!   [`Value`] and [`Event`].
//! * **Subscriptions** — conjunctions of attribute constraints over a rich
//!   operator set: `=`, `≠`, `<`, `≤`, `>`, `≥` for arithmetic attributes
//!   and equality, `≠`, prefix (`>*`), suffix (`*<`), containment (`*`) and
//!   general glob patterns (e.g. `N*SE`) for strings; see [`Subscription`],
//!   [`Constraint`] and [`Predicate`].
//! * **String patterns with covering** — the paper's SACS structure
//!   replaces constraints by more general ("covering") ones; [`Pattern`]
//!   implements both `matches` and the `covers` language-inclusion test.
//! * **Interval algebra** — the paper's AACS structure stores
//!   non-overlapping value sub-ranges; [`Interval`] and [`IntervalSet`]
//!   provide the underlying algebra.
//! * **Subscription identifiers** — the bit-packed `(c1, c2, c3)` ids of
//!   §3.2; see [`SubscriptionId`], [`AttrMask`] and [`IdLayout`].
//!
//! # Example
//!
//! ```
//! use subsum_types::{Schema, AttrKind, Event, Subscription, NumOp, StrOp};
//!
//! # fn main() -> Result<(), subsum_types::TypeError> {
//! let schema = Schema::builder()
//!     .attr("exchange", AttrKind::String)?
//!     .attr("symbol", AttrKind::String)?
//!     .attr("price", AttrKind::Float)?
//!     .build();
//!
//! let sub = Subscription::builder(&schema)
//!     .str_pattern("exchange", "N*SE")?
//!     .str_op("symbol", StrOp::Eq, "OTE")?
//!     .num("price", NumOp::Lt, 8.70)?
//!     .num("price", NumOp::Gt, 8.30)?
//!     .build()?;
//!
//! let event = Event::builder(&schema)
//!     .str("exchange", "NYSE")?
//!     .str("symbol", "OTE")?
//!     .num("price", 8.40)?
//!     .build();
//!
//! assert!(sub.matches(&event));
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

mod codec;
mod constraint;
mod error;
mod event;
mod id;
mod interval;
pub mod parse;
mod pattern;
mod schema;
mod subcodec;
mod subscription;
mod value;

pub use codec::{ByteReader, ByteWriter, DecodeError};
pub use constraint::{Constraint, NumOp, Predicate, StrOp};
pub use error::TypeError;
pub use event::{Event, EventBuilder};
pub use id::{AttrMask, BrokerId, IdLayout, LocalSubId, SubscriptionId};
pub use interval::{Interval, IntervalSet, LowerBound, UpperBound};
pub use parse::QueryError;
pub use pattern::Pattern;
pub use schema::{
    stock_schema, AttrId, AttrKind, AttributeSpec, Schema, SchemaBuilder, MAX_ATTRIBUTES,
};
pub use subscription::{
    normalized_attr_eval, NormalizedAttr, NormalizedSubscription, StringConstraint, Subscription,
    SubscriptionBuilder,
};
pub use value::{Num, Value};
