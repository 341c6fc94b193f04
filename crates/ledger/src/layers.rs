//! Per-layer micro-measurements of a traced run: timed calls into each
//! crate's public functions on the workload's own data, from outside
//! the program. Each returns `(declared metric name, value)` rows.
//!
//! Every measurement here is a *mean over a fixed number of calls*, so
//! its cost is bounded and a traced run stays inside the time budget.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use subsum_core::{BrokerSummary, MatchScratch, ShardScratch, ShardedSummary, SummaryCodec};
use subsum_transport::{
    BackpressurePolicy, Client, DaemonConfig, FrameDecoder, Mailbox, Msg, Subsumd,
};
use subsum_types::{BrokerId, Event, Schema, Subscription, SubscriptionId};

use crate::slices::{slice_quantile, Classed};
use crate::trace::Trace;

/// How many operations of a traced run get their children replayed.
pub const REPLAYS: usize = 2_500;
/// How many fresh subscriptions the insert/remove/merge rows use.
pub const FRESH: usize = 512;
/// Calls per micro-measurement.
const CALLS: usize = 2_000;
/// Ping-pongs for the socket and ack floors when measured back to back.
const PINGS: usize = 2_048;

/// The data a workload hands to the layer rows: the summary its publish
/// path probes, one broker's exact population, subscriptions that are
/// not in the summary yet, and its event pool.
#[derive(Debug, Clone)]
pub struct LayerSubject {
    pub schema: Schema,
    pub codec: SummaryCodec,
    pub summary: BrokerSummary,
    pub population: Vec<(SubscriptionId, Subscription)>,
    pub fresh: Vec<(SubscriptionId, Subscription)>,
    pub events: Vec<Event>,
}

/// Mean nanoseconds of `f` over `calls` calls.
fn mean_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..calls {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Counters the program keeps itself (read through `RunReport`): the
/// traced phases ran with the recorder enabled.
pub fn telemetry_counters() -> Vec<(&'static str, f64)> {
    let report = subsum_telemetry::RunReport::capture("ledger");
    let get = |name: &str| report.counters.get(name).copied().unwrap_or(0) as f64;
    vec![
        (
            "core.plan_rebuilds",
            get(subsum_telemetry::names::MATCH_PLAN_REBUILDS),
        ),
        (
            "core.scratch_grows",
            get(subsum_telemetry::names::MATCH_SCRATCH_GROWS),
        ),
        (
            "transport.mailbox_full",
            get(subsum_telemetry::names::NET_MAILBOX_FULL),
        ),
        (
            "transport.decode_errors",
            get(subsum_telemetry::names::TRANSPORT_DECODE_ERRORS),
        ),
    ]
}

/// `subsum-core` rows (plus `types.event_wire_bytes`) on the subject.
pub fn core_rows(s: &LayerSubject, trace: &mut Trace) -> Vec<(&'static str, f64)> {
    let mut rows = Vec::new();
    if s.events.is_empty() {
        return rows;
    }
    let event = |i: usize| &s.events[i % s.events.len()];
    let t_all = Instant::now();

    // What the daemon calls per publish: the allocating wrapper.
    let alloc_ns = mean_ns(CALLS, |i| {
        std::hint::black_box(s.summary.match_event(event(i)));
    });
    rows.push(("core.match_alloc_ns", alloc_ns));

    // The overlay rows report the warm probe from their replays; a
    // daemon workload has no replayed routes, so measure it here.
    if trace.acc("core.match_warm").count == 0 {
        let mut scratch = MatchScratch::new();
        let (mut probe_rows, mut candidates) = (0usize, 0usize);
        let warm_ns = mean_ns(CALLS, |i| {
            let out = s.summary.match_event_into(event(i), &mut scratch);
            probe_rows += out.stats.rows_scanned;
            candidates += out.stats.candidates;
        });
        rows.push(("core.match_warm_ns", warm_ns));
        rows.push((
            "core.probe_rows_per_event",
            probe_rows as f64 / CALLS as f64,
        ));
        rows.push((
            "core.candidates_per_event",
            candidates as f64 / CALLS as f64,
        ));
    }

    // Plan rebuild: a mutation invalidates the compiled plan; the next
    // probe pays the compile. Cost = cold probe − warm probe.
    if let Some((id, sub)) = s.fresh.first() {
        let mut scratch = MatchScratch::new();
        let mut copy = s.summary.clone();
        copy.match_event_into(event(0), &mut scratch);
        let rounds = 5;
        let mut cold = 0u128;
        let mut warm = 0u128;
        for r in 0..rounds {
            if r % 2 == 0 {
                copy.insert_with_id(*id, sub);
            } else {
                copy.remove(*id);
            }
            let t0 = Instant::now();
            copy.match_event_into(event(r), &mut scratch);
            let t1 = Instant::now();
            copy.match_event_into(event(r), &mut scratch);
            cold += (t1 - t0).as_nanos();
            warm += t1.elapsed().as_nanos();
        }
        rows.push((
            "core.plan_rebuild_us",
            cold.saturating_sub(warm) as f64 / rounds as f64 / 1e3,
        ));
    }

    // Insert / remove / merge of a σ-batch into the subject summary.
    if !s.fresh.is_empty() {
        let mut copy = s.summary.clone();
        let t0 = Instant::now();
        for (id, sub) in &s.fresh {
            copy.insert_with_id(*id, sub);
        }
        let t1 = Instant::now();
        for (id, _) in &s.fresh {
            copy.remove(*id);
        }
        let t2 = Instant::now();
        rows.push((
            "core.insert_ns",
            (t1 - t0).as_nanos() as f64 / s.fresh.len() as f64,
        ));
        rows.push((
            "core.remove_ns",
            (t2 - t1).as_nanos() as f64 / s.fresh.len() as f64,
        ));

        let delta =
            BrokerSummary::rebuild(s.schema.clone(), s.fresh.iter().map(|(id, sub)| (*id, sub)));
        let rounds = 3;
        let mut total = 0u128;
        for _ in 0..rounds {
            let mut copy = s.summary.clone();
            let t0 = Instant::now();
            copy.merge(&delta);
            total += t0.elapsed().as_nanos();
        }
        rows.push(("core.merge_us", total as f64 / rounds as f64 / 1e3));
    }

    // One broker's own summary rebuilt from its exact store.
    if !s.population.is_empty() {
        let t0 = Instant::now();
        let rebuilt = BrokerSummary::rebuild(
            s.schema.clone(),
            s.population.iter().map(|(id, sub)| (*id, sub)),
        );
        rows.push(("core.rebuild_ms", t0.elapsed().as_nanos() as f64 / 1e6));
        std::hint::black_box(rebuilt.subscription_count());
    }

    // Wire codec and digest of the subject summary.
    let rounds = 3;
    let mut bytes = Vec::new();
    let encode_ns = mean_ns(rounds, |_| {
        if let Ok(b) = s.codec.encode(&s.summary) {
            bytes = b.to_vec();
        }
    });
    let decode_ns = mean_ns(rounds, |_| {
        std::hint::black_box(s.codec.decode(&bytes, &s.schema).is_ok());
    });
    let digest_ns = mean_ns(rounds, |_| {
        std::hint::black_box(s.summary.digest());
    });
    rows.push(("core.encode_us", encode_ns / 1e3));
    rows.push(("core.decode_us", decode_ns / 1e3));
    rows.push(("core.summary_wire_bytes", bytes.len() as f64));
    rows.push(("core.digest_us", digest_ns / 1e3));

    // Reference rows for the sharded store (no workload enables it).
    let sharded = ShardedSummary::from_flat(s.summary.clone(), 1);
    let mut shard_scratch = ShardScratch::new();
    sharded.match_event_into(event(0), &mut shard_scratch);
    let sharded_ns = mean_ns(CALLS, |i| {
        std::hint::black_box(
            sharded
                .match_event_into(event(i), &mut shard_scratch)
                .matched
                .len(),
        );
    });
    rows.push(("core.sharded_match_ns", sharded_ns));
    if let Some((id, sub)) = s.fresh.first() {
        let rounds = 4;
        let flip_ns = mean_ns(rounds, |r| {
            if r % 2 == 0 {
                sharded.insert_with_id(*id, sub);
            } else {
                sharded.remove(*id);
            }
        });
        rows.push(("core.snapshot_flip_us", flip_ns / 1e3));
    }

    let wire: usize = s.events.iter().map(|e| e.wire_size(&s.schema, 8)).sum();
    rows.push((
        "types.event_wire_bytes",
        wire as f64 / s.events.len() as f64,
    ));
    if trace.acc("types.sub_matches").count == 0 && !s.population.is_empty() {
        let ns = mean_ns(CALLS, |i| {
            let (_, sub) = &s.population[i % s.population.len()];
            std::hint::black_box(sub.matches(event(i)));
        });
        rows.push(("types.sub_matches_ns", ns));
    }
    let end = Instant::now();
    trace.span("ledger.core_rows", 0, 0, t_all, end);
    rows
}

/// The two floors of a daemon round trip, measured in small slices so
/// a daemon workload can spread them over its round phase (the socket
/// path has a fast and a slow mode that come and go; see
/// [`crate::slices`]):
///
/// * **socket floor** — same-size frames ping-ponged over raw
///   `std::net` loopback sockets, no subsum code on the path;
/// * **ack floor** — publish → ack against a daemon that holds no
///   subscription and has no peer: codec, reader/loop/writer hand-offs
///   and the socket, but no matching.
pub struct FloorRig {
    echo: Option<std::thread::JoinHandle<()>>,
    raw: TcpStream,
    buf: Vec<u8>,
    daemon: subsum_transport::DaemonHandle,
    client: Client,
    socket_us: Vec<Classed>,
    ack_us: Vec<Classed>,
}

/// Ping-pongs per floor slice.
const FLOOR_SLICE: usize = 32;

impl FloorRig {
    pub fn start(schema: &Schema, frame_len: usize) -> Result<FloorRig, String> {
        let io = |e: std::io::Error| e.to_string();
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(io)?;
        let addr = listener.local_addr().map_err(io)?;
        let echo = std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let mut buf = vec![0u8; frame_len];
            while stream.read_exact(&mut buf).is_ok() && stream.write_all(&buf).is_ok() {}
        });
        let raw = TcpStream::connect(addr).map_err(io)?;
        let daemon = Subsumd::start(DaemonConfig::new(BrokerId(9), schema.clone())).map_err(io)?;
        let client = Client::connect(daemon.addr()).map_err(|e| e.to_string())?;
        Ok(FloorRig {
            echo: Some(echo),
            raw,
            buf: vec![0x5a; frame_len],
            daemon,
            client,
            socket_us: Vec::new(),
            ack_us: Vec::new(),
        })
    }

    /// One slice of each floor: the median of `FLOOR_SLICE` round trips.
    pub fn slice(&mut self, events: &[Event]) -> Result<(), String> {
        let mut samples = Vec::with_capacity(FLOOR_SLICE);
        for _ in 0..FLOOR_SLICE {
            let t0 = Instant::now();
            self.raw.write_all(&self.buf).map_err(|e| e.to_string())?;
            self.raw
                .read_exact(&mut self.buf)
                .map_err(|e| e.to_string())?;
            samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        self.socket_us.push((0, crate::stats::median(&samples)));
        samples.clear();
        let at = self.ack_us.len() * FLOOR_SLICE;
        for i in 0..FLOOR_SLICE {
            let t0 = Instant::now();
            let ack = self
                .client
                .publish(&events[(at + i) % events.len()])
                .map_err(|e| e.to_string())?;
            samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
            if !ack.accepted {
                return Err("floor daemon rejected a publish".to_owned());
            }
        }
        self.ack_us.push((0, crate::stats::median(&samples)));
        Ok(())
    }

    /// Stops the rig; returns `(socket floor, ack floor)` in µs as the
    /// `q`-quantile over the slices taken.
    pub fn finish(mut self, q: f64) -> Result<(f64, f64), String> {
        self.client.shutdown().map_err(|e| e.to_string())?;
        self.daemon.join();
        let _ = self.raw.shutdown(std::net::Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
        Ok((
            slice_quantile(&self.socket_us, q),
            slice_quantile(&self.ack_us, q),
        ))
    }
}

/// The mean encoded `Publish` frame size of `events`.
pub fn publish_frame_len(events: &[Event]) -> usize {
    let total: usize = events
        .iter()
        .filter_map(|e| {
            Msg::Publish {
                seq: 0,
                event: e.clone(),
            }
            .to_frame_bytes()
            .ok()
        })
        .map(|f| f.len())
        .sum();
    (total / events.len().max(1)).max(1)
}

/// `subsum-transport` rows that do not need a running pair of daemons:
/// frame/message codec, mailbox, and the two floors (`floors` when the
/// workload measured them alongside its own round trips, else measured
/// here back to back).
pub fn transport_rows(
    s: &LayerSubject,
    trace: &mut Trace,
    floors: Option<(f64, f64)>,
) -> Vec<(&'static str, f64)> {
    let mut rows = Vec::new();
    if s.events.is_empty() {
        return rows;
    }
    let t_all = Instant::now();
    let msgs: Vec<Msg> = s
        .events
        .iter()
        .enumerate()
        .map(|(i, e)| Msg::Publish {
            seq: i as u32,
            event: e.clone(),
        })
        .collect();
    let frames: Vec<Vec<u8>> = msgs
        .iter()
        .filter_map(|m| m.to_frame_bytes().ok())
        .collect();
    if frames.len() != msgs.len() {
        return rows;
    }
    let encode_ns = mean_ns(CALLS, |i| {
        std::hint::black_box(msgs[i % msgs.len()].to_frame_bytes().is_ok());
    });
    let mut decoder = FrameDecoder::new();
    let decode_ns = mean_ns(CALLS, |i| {
        decoder.feed(&frames[i % frames.len()]);
        if let Ok(Some(frame)) = decoder.next_frame() {
            std::hint::black_box(Msg::decode_frame(&frame).is_ok());
        }
    });
    // A mailbox with a draining receiver on this thread: the cost of the
    // bounded-queue hand-off itself, without a writer thread's wake-up.
    let (mailbox, rx) = Mailbox::new(256, BackpressurePolicy::Reject);
    let mailbox_ns = mean_ns(CALLS, |i| {
        std::hint::black_box(mailbox.send(frames[i % frames.len()].clone()));
        std::hint::black_box(rx.try_recv().is_ok());
    });
    rows.push(("transport.encode_ns", encode_ns));
    rows.push(("transport.decode_ns", decode_ns));
    rows.push(("transport.mailbox_send_ns", mailbox_ns));

    let (socket, ack) = floors.unwrap_or_else(|| {
        let measured =
            FloorRig::start(&s.schema, publish_frame_len(&s.events)).and_then(|mut rig| {
                for _ in 0..PINGS / FLOOR_SLICE {
                    rig.slice(&s.events)?;
                }
                rig.finish(0.75)
            });
        measured.unwrap_or((0.0, 0.0))
    });
    rows.push(("transport.socket_floor_us", socket));
    rows.push(("transport.ack_floor_us", ack));
    // What is left of the ack floor after the socket and both codec
    // directions of the publish and its ack: thread hand-offs.
    rows.push((
        "transport.handoff_residual_us",
        (ack - socket - 2.0 * (encode_ns + decode_ns) / 1e3).max(0.0),
    ));
    let end = Instant::now();
    trace.span("ledger.transport_rows", 0, 0, t_all, end);
    rows
}
