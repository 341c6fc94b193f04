//! # subsum-telemetry — pipeline telemetry for the broker stack
//!
//! The paper's evaluation (§5) measures only aggregate network costs;
//! this crate adds the *time* dimension the ROADMAP's production goals
//! need: where does a publish spend its nanoseconds — summary matching,
//! BROCLI pruning, or owner verification — and how many SACS false
//! positives did tier-2 verification burn?
//!
//! Five pieces:
//!
//! * cheap **counters** and **gauges** ([`Counter`], [`Gauge`], and the
//!   call-site-cached [`Count`]) — plain relaxed atomics;
//! * **log-bucketed latency histograms** ([`Histogram`]) with
//!   p50/p90/p99/max digests and exactly mergeable [`Snapshot`]s;
//! * **RAII span timers** for named pipeline stages ([`Stage`],
//!   [`SpanTimer`]);
//! * a serializable [`RunReport`] bundling stage timings, counters and
//!   embedded documents (e.g. `NetMetrics`) into one JSON object;
//! * **causal tracing** ([`trace`]): per-message trace ids, hop-scoped
//!   span records, per-broker ring-buffer flight recorders that keep
//!   every trace's newest spans, and Chrome `trace_event` export.
//!
//! # Process-global and per-daemon counts
//!
//! The recorder is process-wide, as `subsum-core` and `SummaryPubSub`
//! count. A broker daemon counts per daemon, in
//! `subsum_broker::DaemonCounters`, since one process may host several
//! (a test, the ledger's pair); `subsumd` merges its `listing()` into
//! its [`RunReport`]. `transport.decode_errors` and `net.mailbox_full`
//! stay process-global: `subsum-ledger` reads them through
//! [`RunReport::capture`] until it reads a daemon's own counters
//! (ROADMAP item 2).
//!
//! # Cost model
//!
//! The global recorder is **disabled by default**. Every instrumented
//! site first loads one relaxed atomic; when disabled nothing else
//! happens — no clock reads, no allocation, no locks — so benchmark
//! and production numbers stay honest. When enabled, recording is
//! lock-free: handles are cached per call site and all state is plain
//! relaxed atomics.
//!
//! # Example
//!
//! ```
//! use subsum_telemetry as telemetry;
//!
//! static STAGE_PARSE: telemetry::Stage = telemetry::Stage::new("doc.parse");
//! static DOCS: telemetry::Count = telemetry::Count::new("doc.count");
//!
//! telemetry::set_enabled(true);
//! for _ in 0..10 {
//!     let _span = STAGE_PARSE.start(); // records ns on drop
//!     DOCS.inc();
//! }
//! telemetry::set_enabled(false);
//!
//! let report = telemetry::RunReport::capture("example");
//! let stage = &report.stages["doc.parse"];
//! assert_eq!(stage.count, 10);
//! assert!(stage.p50_ns <= stage.p99_ns);
//! assert!(report.to_json().starts_with('{'));
//! # telemetry::reset();
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

mod hist;
pub mod names;
mod recorder;
mod report;
pub mod trace;

pub use hist::{Histogram, Snapshot, NUM_BUCKETS};
pub use recorder::{
    counter, counters_snapshot, enabled, gauge, gauges_snapshot, histogram, histograms_snapshot,
    reset, set_enabled, Count, Counter, Gauge, SpanTimer, Stage,
};
pub use report::{Json, RunReport, StageReport};
