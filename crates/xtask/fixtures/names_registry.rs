//! Fixture registry for the telemetry-names lint: the literals declared
//! here (outside tests) form the allowed set.

pub const APP_GOOD: &str = "app.good";
pub const APP_OTHER: &str = "app.other";
pub const APP_CHAOS_DROPS: &str = "chaos.drops";
pub const APP_CHAOS_RESYNCS: &str = "chaos.resyncs";
pub const APP_TRACE_SPANS: &str = "trace.spans";
pub const APP_TRACE_HEAD_DROPS: &str = "trace.head_drops";
pub const APP_TRACE_SAMPLED: &str = "trace.sampled";
pub const APP_PLAN_REBUILDS: &str = "match.plan_rebuilds";
pub const APP_PLAN_PROBE_ROWS: &str = "match.plan_probe_rows";
pub const APP_PLAN_SWAPS: &str = "summary.plan_swaps";
pub const APP_PLAN_RETIRED: &str = "summary.plan_retired";
pub const APP_TRANSPORT_FRAMES_RX: &str = "transport.frames_rx";
pub const APP_TRANSPORT_RECONNECTS: &str = "transport.reconnects";
pub const APP_NET_MAILBOX_FULL: &str = "net.mailbox_full";
pub const APP_PUBLISH_ACKED: &str = "publish.acked";

#[cfg(test)]
mod tests {
    #[test]
    fn test_only_literal_is_not_registered() {
        // This literal must NOT enter the registry.
        let _ = "app.test_only";
    }
}
