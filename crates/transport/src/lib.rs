//! Framed TCP transport for subsum brokers.
//!
//! Everything in `subsum-broker` runs inside one process — over the
//! deterministic `LossyNet` simulator or the threaded runtime. This
//! crate puts the same `BrokerCore` behind real sockets:
//!
//! * [`frame`] — the length-prefixed frame layer and its panic-free
//!   incremental decoder;
//! * [`msg`] — the peer and client protocol messages carried in frames
//!   (summary payloads are `subsum-core::wire` bytes, unchanged);
//! * [`session`] — per-peer session state: epoch-stamped reconnects,
//!   digest comparison on handshake, bounded outbound mailboxes with an
//!   explicit backpressure policy;
//! * [`daemon`] — [`Subsumd`], the standalone broker daemon behind the
//!   `subsumd` binary; its peer traffic is `BrokerCore::on_peer`, the
//!   protocol step the chaos suite drives under faults;
//! * [`client`] — a small blocking client library for subscribing and
//!   publishing against a daemon.
//!
//! Only `std::net` and `std::thread` are used — no async runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod client;
pub mod daemon;
pub mod frame;
pub mod msg;
pub mod session;

pub use client::{Client, ClientError, PublishResult};
pub use daemon::{DaemonConfig, DaemonFinal, DaemonHandle, DaemonStats, Subsumd};
pub use frame::{Frame, FrameDecoder, FrameError};
pub use msg::{Msg, MsgError};
pub use session::{BackpressurePolicy, Mailbox, SendOutcome, TxStats};
