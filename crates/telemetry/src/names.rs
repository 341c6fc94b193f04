//! Central registry of telemetry metric names.
//!
//! Every counter, gauge and stage-histogram name used anywhere in the
//! workspace is declared here as a constant, and call sites refer to the
//! constant instead of repeating the string. `cargo xtask check` enforces
//! this: a bare name literal passed to [`Count::new`](crate::Count),
//! [`Stage::new`](crate::Stage), [`counter`](crate::counter),
//! [`gauge`](crate::gauge) or [`histogram`](crate::histogram) outside
//! test code fails the lint unless its value appears below, and so does
//! a constant below that no non-test code references. The registry
//! makes the stringly-typed namespace greppable and typo-proof: a renamed
//! metric changes in exactly one place.
//!
//! A name marked "per daemon" is counted in `subsum-broker`'s
//! `DaemonCounters`, not by the process-wide recorder, and reaches a
//! report through `DaemonCounters::listing` (`subsumd`'s dump).
//!
//! Names are grouped by the subsystem that records them. Test-only
//! metrics use a `test.` prefix and are exempt from the registry (they
//! are scoped to a single test body and never reported).

/// Summary insertion stage (`subsum-core`).
pub const CORE_SUMMARY_INSERT: &str = "core.summary.insert";
/// Summary merge stage (`subsum-core`).
pub const CORE_SUMMARY_MERGE: &str = "core.summary.merge";
/// Event match stage (`subsum-core`).
pub const CORE_SUMMARY_MATCH: &str = "core.summary.match";
/// Matches served by a warm, previously used `MatchScratch`.
pub const MATCH_SCRATCH_REUSE: &str = "match.scratch_reuse";
/// Respacing unions: a merge or insert with an id that found no free
/// intern slot beside its rank renumbered every posting once.
pub const MATCH_INTERN_REBUILDS: &str = "match.intern_rebuilds";
/// Compactions: a removal left more free intern slots than live ones.
pub const MATCH_INTERN_RENUMBERS: &str = "match.intern_renumbers";
/// Full compiled match-plan builds: the first match, or `ShardedSummary`
/// publication, after a change that dropped the plan (a respace, a
/// compaction, a decode, a substitution, or enough side changes).
pub const MATCH_PLAN_REBUILDS: &str = "match.plan_rebuilds";
/// Side-plan builds: the first match after ids were placed beside a
/// kept base plan compiles only their postings.
pub const MATCH_PLAN_SIDE_COMPILES: &str = "match.plan_side_compiles";
/// Postings laid out by full and side plan builds.
pub const MATCH_PLAN_POSTINGS_COMPILED: &str = "match.plan_postings_compiled";
/// Plan rows whose posting slices fed the compiled counter kernel.
pub const MATCH_PLAN_PROBE_ROWS: &str = "match.plan_probe_rows";
/// Match-scratch growth events (array resizes to a larger population);
/// steady-state matching against a fixed summary records zero.
pub const MATCH_SCRATCH_GROWS: &str = "match.scratch_grows";

/// Subscribe path of the summary broker (`subsum-broker`).
pub const BROKER_SUBSCRIBE: &str = "broker.subscribe";
/// Summary propagation phase of the summary broker.
pub const BROKER_PROPAGATE: &str = "broker.propagate";
/// One propagation round.
pub const PROPAGATE_ROUND: &str = "propagate.round";
/// End-to-end routing of one published event.
pub const PUBLISH_ROUTE: &str = "publish.route";
/// Candidate matching against merged summaries during routing.
pub const PUBLISH_CANDIDATE_MATCH: &str = "publish.candidate_match";
/// Tier-2 owner verification of candidate matches.
pub const PUBLISH_OWNER_VERIFY: &str = "publish.owner_verify";
/// Events published.
pub const PUBLISH_EVENTS: &str = "publish.events";
/// Candidate subscription matches produced by summary matching.
pub const PUBLISH_CANDIDATES: &str = "publish.candidates";
/// Deliveries confirmed by exact verification.
pub const PUBLISH_DELIVERIES: &str = "publish.deliveries";
/// Candidates rejected by exact verification (SACS false positives).
pub const PUBLISH_FALSE_POSITIVES: &str = "publish.false_positives";

/// Subscription flooding phase of the Siena-style baseline.
pub const SIENA_PROPAGATE: &str = "siena.propagate";
/// Event routing of the Siena-style baseline.
pub const SIENA_ROUTE: &str = "siena.route";

/// Chaos-run messages lost (per-link drops + link cuts + crashed
/// receivers).
pub const CHAOS_DROPS: &str = "chaos.drops";
/// Chaos-run duplicate message copies injected.
pub const CHAOS_DUPS: &str = "chaos.dups";
/// Broker crash events executed by chaos runs.
pub const CHAOS_CRASHES: &str = "chaos.crashes";
/// Anti-entropy digest mismatches that triggered a full re-send.
pub const CHAOS_RESYNCS: &str = "chaos.resyncs";
/// Bytes spent on anti-entropy digest advertisements.
pub const CHAOS_DIGEST_BYTES: &str = "chaos.digest_bytes";
/// Bytes spent on full summary updates during chaos runs.
pub const CHAOS_FULL_BYTES: &str = "chaos.full_summary_bytes";

/// Frames written to sockets (per daemon, `DaemonCounters`).
pub const TRANSPORT_FRAMES_TX: &str = "transport.frames_tx";
/// Frames decoded off sockets (per daemon, `DaemonCounters`).
pub const TRANSPORT_FRAMES_RX: &str = "transport.frames_rx";
/// Bytes written to sockets, frame headers included (per daemon, `DaemonCounters`).
pub const TRANSPORT_BYTES_TX: &str = "transport.bytes_tx";
/// Bytes read from sockets (per daemon, `DaemonCounters`).
pub const TRANSPORT_BYTES_RX: &str = "transport.bytes_rx";
/// Connections dropped for unframeable or unparseable input.
pub const TRANSPORT_DECODE_ERRORS: &str = "transport.decode_errors";
/// Peer dials beyond each link's first (per daemon, `DaemonCounters`).
pub const TRANSPORT_RECONNECTS: &str = "transport.reconnects";
/// Digest mismatches that triggered a summary pull (per daemon, `DaemonCounters`).
pub const TRANSPORT_RESYNCS: &str = "transport.resyncs";
/// Sends refused because a connection's bounded outbound mailbox was
/// full.
pub const NET_MAILBOX_FULL: &str = "net.mailbox_full";
/// Clients evicted because a frame to them was refused (per daemon,
/// `DaemonCounters`).
pub const TRANSPORT_CLIENTS_EVICTED: &str = "transport.clients_evicted";
/// Client publishes acknowledged as fully accepted (per daemon, `DaemonCounters`).
pub const PUBLISH_ACKED: &str = "publish.acked";
/// Client publishes acknowledged as rejected: a required `Route` was
/// not queued, as the link's outbox was full or no link to that
/// neighbour is up (per daemon, `DaemonCounters`).
pub const PUBLISH_REJECTED: &str = "publish.rejected";

/// Spans recorded into flight recorders by the causal tracer.
pub const TRACE_SPANS: &str = "trace.spans";
/// Flight-recorder head-drops (oldest span overwritten by a new one).
pub const TRACE_HEAD_DROPS: &str = "trace.head_drops";

#[cfg(test)]
mod tests {
    #[test]
    fn names_are_distinct() {
        let all = [
            super::CORE_SUMMARY_INSERT,
            super::CORE_SUMMARY_MERGE,
            super::CORE_SUMMARY_MATCH,
            super::MATCH_SCRATCH_REUSE,
            super::MATCH_INTERN_REBUILDS,
            super::MATCH_INTERN_RENUMBERS,
            super::MATCH_PLAN_REBUILDS,
            super::MATCH_PLAN_SIDE_COMPILES,
            super::MATCH_PLAN_POSTINGS_COMPILED,
            super::MATCH_PLAN_PROBE_ROWS,
            super::MATCH_SCRATCH_GROWS,
            super::BROKER_SUBSCRIBE,
            super::BROKER_PROPAGATE,
            super::PROPAGATE_ROUND,
            super::PUBLISH_ROUTE,
            super::PUBLISH_CANDIDATE_MATCH,
            super::PUBLISH_OWNER_VERIFY,
            super::PUBLISH_EVENTS,
            super::PUBLISH_CANDIDATES,
            super::PUBLISH_DELIVERIES,
            super::PUBLISH_FALSE_POSITIVES,
            super::SIENA_PROPAGATE,
            super::SIENA_ROUTE,
            super::CHAOS_DROPS,
            super::CHAOS_DUPS,
            super::CHAOS_CRASHES,
            super::CHAOS_RESYNCS,
            super::CHAOS_DIGEST_BYTES,
            super::CHAOS_FULL_BYTES,
            super::TRANSPORT_FRAMES_TX,
            super::TRANSPORT_FRAMES_RX,
            super::TRANSPORT_BYTES_TX,
            super::TRANSPORT_BYTES_RX,
            super::TRANSPORT_DECODE_ERRORS,
            super::TRANSPORT_RECONNECTS,
            super::TRANSPORT_RESYNCS,
            super::NET_MAILBOX_FULL,
            super::TRANSPORT_CLIENTS_EVICTED,
            super::PUBLISH_ACKED,
            super::PUBLISH_REJECTED,
            super::TRACE_SPANS,
            super::TRACE_HEAD_DROPS,
        ];
        let mut seen = std::collections::HashSet::new();
        for name in all {
            assert!(seen.insert(name), "duplicate metric name {name:?}");
        }
    }
}
