//! Framed TCP transport for subsum brokers.
//!
//! Everything in `subsum-broker` runs inside one process, over the
//! deterministic `LossyNet` simulator — including the daemon's protocol
//! state machine, `DaemonCore`, and the frame and message codecs it
//! speaks. This crate puts that same `DaemonCore` behind real sockets:
//!
//! * [`frame`], [`msg`] — re-exports of `subsum_broker::{frame, msg}`:
//!   the length-prefixed frame layer with its panic-free incremental
//!   decoder, and the peer and client protocol messages carried in
//!   frames (summary payloads are `subsum-core::wire` bytes, unchanged);
//! * [`session`] — per-connection output: the event loop writes each
//!   step's frames itself, one `write` per connection, and hands what a
//!   socket does not take at once to that connection's writer thread
//!   through a bounded mailbox that refuses, never waits, at its bound
//!   (a client that cannot keep up is evicted, a peer link repairs);
//! * [`daemon`] — [`Subsumd`], the standalone broker daemon behind the
//!   `subsumd` binary: acceptor, dialers with epoch-stamped reconnects,
//!   readers, and an event loop around one `DaemonCore::step` (the
//!   protocol step the chaos suite drives under faults) that writes
//!   its outputs;
//! * [`client`] — a small blocking client library for subscribing and
//!   publishing against a daemon.
//!
//! Only `std::net` and `std::thread` are used — no async runtime.

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

pub mod client;
pub mod daemon;
pub mod session;

pub use client::{Client, ClientError, PublishResult};
pub use daemon::{DaemonConfig, DaemonFinal, DaemonHandle, Subsumd};
pub use session::{BackpressurePolicy, Mailbox, SendOutcome};
pub use subsum_broker::{frame, msg, Frame, FrameDecoder, FrameError, Msg, MsgError};
