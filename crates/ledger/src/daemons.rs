//! The two socket workloads: two `Subsumd` daemons on loopback inside
//! this process (so `DaemonHandle::stats()` is readable), one publisher
//! connection at daemon A and one subscriber connection at daemon B.
//!
//! * `daemon-fanout` — tiny summaries, every event forwarded and
//!   delivered to 1–4 of B's live subscriptions: bare forwarding, where
//!   the per-frame cost of `transport` is not diluted.
//! * `daemon-selective` — B restored from a checkpoint of thousands of
//!   resident subscriptions, so each publish runs the allocating
//!   `match_event` over a large view and each subscribe re-ships the
//!   whole summary; only a share of the events is forwarded.
//!
//! Closed loops only, no pacing sleeps. The generator is two threads —
//! the publisher (this thread) and the subscriber draining B's
//! deliveries — and two client connections.
//!
//! The end-to-end publish metrics come from the *round* phase: one
//! publish at a time, publish → ack **and** every expected `Deliver`
//! before the next, **with the whole process on one CPU**
//! ([`crate::machine::pin_to_one_cpu`]). A round trip crosses a dozen
//! threads (reader, event loop and writer of each connection of each
//! daemon); spread over two vCPUs, each hand-off wakes an idle vCPU,
//! and what that costs is the hypervisor's business (31 µs and 76–105 µs
//! round trips on the same binary, minutes apart), while on one CPU
//! every hand-off is a plain context switch and the round trip is a
//! fixed chain of processor work — the per-message cost of the path,
//! which is what a change to `transport` moves. What is left of the
//! box's weather is the two-speed processor the overlay workloads see
//! too, and the same cure works: one slice per pass over the pool, the
//! quiet decile across slices ([`crate::slices`]).
//!
//! Keeping [`PUBLISH_WINDOW`] publishes in flight instead (the *stream*
//! phase) does not repeat on this box, pinned or not: how many frames
//! each thread finds waiting when it wakes — and with that the system
//! calls per publish — settles into a different pattern every few
//! seconds (slices of one run: 26 k–86 k publishes/s; the driver's ten
//! runs spread by 0.23–0.36). It runs in traced runs only and feeds the
//! `ledger.stream_*` rows.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use subsum_broker::BrokerCheckpoint;
use subsum_core::{ArithWidth, BrokerSummary, SummaryCodec};
use subsum_transport::{Client, DaemonConfig, DaemonHandle, FrameDecoder, Msg, Subsumd};
use subsum_types::{BrokerId, Event, IdLayout, Schema, Subscription, SubscriptionId};
use subsum_workload::{PaperParams, Workload};

use crate::inputs::{self, Digest};
use crate::json::Json;
use crate::layers::{self, LayerSubject};
use crate::report::{secs, Outcome, Phase};
use crate::slices::{slice_quantile, Classed, Sliced, MEDIAN, QUIET_RATE, QUIET_TIME};
use crate::stats;
use crate::trace::Trace;

/// How long a delivery, token or handshake may take before the
/// operation counts as failed.
const PATIENCE: Duration = Duration::from_secs(5);
/// Subsumption probability of B's resident population.
const RESIDENT_SUBSUMPTION: f64 = 0.5;
/// An event is delivered to at most this many live subscriptions.
const MAX_FANOUT: usize = 4;
/// Warm-up and (traced) stream phase: publishes kept in flight on the
/// publisher's connection.
const PUBLISH_WINDOW: usize = 32;
/// Stream phase: at most this many expected `Deliver` frames may be
/// outstanding (under B's 256-frame client mailbox, so none is
/// rejected).
const DELIVER_WINDOW: usize = 128;
/// Stream phase: every `SAMPLE_EVERY`-th publish is timed (send → ack,
/// send → last expected `Deliver`); timing all of them would make the
/// harness's own buffers the larger part of `peak_rss_mb`.
const SAMPLE_EVERY: usize = 4;
const BROKER_A: BrokerId = BrokerId(0);
const BROKER_B: BrokerId = BrokerId(1);

/// The frozen operation counts of one daemon workload.
#[derive(Debug, Clone)]
pub struct DaemonCounts {
    /// `n_t` of the generated schema (4 keeps frames at their smallest).
    pub nt: usize,
    /// Subscriptions B restores from a checkpoint (no client attached).
    pub resident: usize,
    /// Live client subscriptions at B.
    pub live: usize,
    /// Distinct events the publish loops cycle over.
    pub pool: usize,
    /// One in `hit_every` pool events matches 1..=`MAX_FANOUT` live
    /// subscriptions; the others match nothing at B.
    pub hit_every: usize,
    /// Warm-up rounds inside set-up.
    pub warmup: usize,
    pub setup_reps: usize,
    /// Round phase, in full passes over the pool (one pass = one
    /// slice): publish → ack and every expected `Deliver` before the
    /// next.
    pub round_passes: usize,
    /// Stream phase (traced runs only): slices of `stream_slice_passes`
    /// full passes over the pool, `PUBLISH_WINDOW` publishes in flight.
    pub stream_slices: usize,
    pub stream_slice_passes: usize,
    /// Mutate phase: subscribe at B → probe at A until delivered.
    pub probes: usize,
}

impl DaemonCounts {
    /// Publishes of the round phase.
    pub fn rounds(&self) -> usize {
        self.round_passes * self.pool
    }

    /// Publishes of one stream slice.
    pub fn stream_slice(&self) -> usize {
        self.stream_slice_passes * self.pool
    }

    /// Publishes of the stream phase.
    pub fn stream(&self) -> usize {
        self.stream_slices * self.stream_slice()
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nt", (self.nt as u64).into()),
            ("resident", (self.resident as u64).into()),
            ("resident_subsumption", RESIDENT_SUBSUMPTION.into()),
            ("live", (self.live as u64).into()),
            ("pool", (self.pool as u64).into()),
            ("hit_every", (self.hit_every as u64).into()),
            ("max_fanout", (MAX_FANOUT as u64).into()),
            ("warmup", (self.warmup as u64).into()),
            ("setup_reps", (self.setup_reps as u64).into()),
            ("round_passes", (self.round_passes as u64).into()),
            ("stream_slices", (self.stream_slices as u64).into()),
            (
                "stream_slice_passes",
                (self.stream_slice_passes as u64).into(),
            ),
            ("publish_window", (PUBLISH_WINDOW as u64).into()),
            ("deliver_window", (DELIVER_WINDOW as u64).into()),
            ("probes", (self.probes as u64).into()),
        ])
    }
}

/// The codec `subsumd` uses for `Summary` payloads (mirrored here for
/// the full-push model the measured `propagation_bytes` is set beside,
/// and for the per-layer codec rows).
fn daemon_codec(schema: &Schema) -> Result<SummaryCodec, String> {
    let layout = IdLayout::new(1 << 16, 1 << 20, schema.len() as u32).map_err(|e| e.to_string())?;
    Ok(SummaryCodec::new(layout, ArithWidth::Eight))
}

struct Inputs {
    schema: Schema,
    checkpoint: Option<BrokerCheckpoint>,
    /// Live subscriptions with the ids B will assign.
    live: Vec<(SubscriptionId, Subscription)>,
    pool: Vec<Event>,
    /// Per pool event: the live subscriptions it must be delivered to.
    expect: Vec<Vec<SubscriptionId>>,
    /// Mutate phase: fresh subscriptions and their witness events.
    probes: Vec<(SubscriptionId, Subscription, Event)>,
    /// The first live subscription's witness, published after each
    /// probe so the subscriber can tell when the pipe is drained.
    fence: (SubscriptionId, Event),
    /// What the broker-to-broker traffic of set-up (handshake, both
    /// pulls, one push per live subscribe) and of each probe's push
    /// would come to if every push carried B's whole summary — sized on
    /// a mirror of that summary. Recorded beside the measured bytes.
    model_setup_bytes: u64,
    model_probe_bytes: Vec<u64>,
    /// B's own summary after set-up (what A's view holds).
    mirror: BrokerSummary,
    digest_subscriptions: String,
    digest_events: String,
    harness_s: f64,
}

/// What tells two live subscriptions apart: their constraints, sorted.
/// The generator can emit the same constraints in a different order;
/// those are one shape — an event for one is an event for the other, so
/// counting them as two would leave both without an event of their own
/// (seed 605 of `daemon-selective` did).
fn shape_of_subscription(sub: &Subscription) -> Vec<String> {
    let mut shape: Vec<String> = sub
        .constraints()
        .iter()
        .map(|c| format!("{}:{:?}", c.attr.index(), c.pred))
        .collect();
    shape.sort_unstable();
    shape
}

fn generate(counts: &DaemonCounts, seed: u64) -> Result<Inputs, String> {
    let started = Instant::now();
    let params = PaperParams {
        brokers: 2,
        outstanding: counts.resident.max(counts.live),
        nt: counts.nt,
        ..PaperParams::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    // Three generators over one schema: the resident population, the
    // live subscriptions (all canonical, so events can hit them) and the
    // probes (all distinct, so each probe event has one taker).
    let mut resident_gen = Workload::new(params, RESIDENT_SUBSUMPTION);
    let mut live_gen = Workload::new(params, 1.0);
    let mut probe_gen = Workload::new(params, 0.0);
    let schema = live_gen.schema().clone();
    let codec = daemon_codec(&schema)?;
    let mut digest_subs = Digest::default();
    let mut digest_events = Digest::default();

    let mut local = 0u32;
    let mut assign = |sub: &Subscription| {
        let id = inputs::predicted_id(BROKER_B.0, local, sub);
        local += 1;
        id
    };
    let resident: Vec<(SubscriptionId, Subscription)> = resident_gen
        .subscriptions(counts.resident, &mut rng)
        .into_iter()
        .map(|sub| (assign(&sub), sub))
        .collect();
    // Live subscriptions: distinct generated subscriptions, the i-th
    // registered `i % max_fanout + 1` times (several clients asking for
    // the same thing). All-canonical subscriptions of one schema match
    // disjoint sets of events, so an event's fan-out is exactly the
    // multiplicity of the one subscription it hits — the same mix of
    // fan-outs, hence the same frames per publish, for every seed.
    let mut distinct: Vec<Subscription> = Vec::new();
    let mut shapes_seen = std::collections::BTreeSet::new();
    let mut live: Vec<(SubscriptionId, Subscription)> = Vec::with_capacity(counts.live);
    let mut shape_of: BTreeMap<SubscriptionId, usize> = BTreeMap::new();
    let mut tries = 0usize;
    while live.len() < counts.live {
        tries += 1;
        if tries > 1_000_000 {
            return Err("could not generate enough distinct live subscriptions".to_owned());
        }
        let sub = live_gen.subscription(&mut rng);
        if !shapes_seen.insert(shape_of_subscription(&sub)) {
            continue;
        }
        let copies = (distinct.len() % MAX_FANOUT + 1).min(counts.live - live.len());
        for _ in 0..copies {
            let id = assign(&sub);
            shape_of.insert(id, distinct.len());
            live.push((id, sub.clone()));
        }
        distinct.push(sub);
    }
    let probes: Vec<(SubscriptionId, Subscription, Event)> = probe_gen
        .subscriptions(counts.probes, &mut rng)
        .into_iter()
        .map(|sub| {
            let witness = inputs::witness_event(&schema, &sub)
                .ok_or("no witness for a probe subscription")?;
            Ok((assign(&sub), sub, witness))
        })
        .collect::<Result<_, String>>()?;
    for (_, sub) in resident.iter().chain(&live) {
        digest_subs.subscription(BROKER_B.0, sub);
    }
    for (_, sub, _) in &probes {
        digest_subs.subscription(BROKER_B.0, sub);
    }

    // The pool: generated events, kept by class until both classes are
    // full — hits (every distinct live subscription hit equally often)
    // and misses (no taker among B's subscriptions at all, so A does not
    // forward them).
    let live_population: Vec<(SubscriptionId, &Subscription)> =
        live.iter().map(|(id, s)| (*id, s)).collect();
    let hits_wanted = counts.pool.div_ceil(counts.hit_every.max(1));
    let misses_wanted = counts.pool - hits_wanted;
    let mut hits: Vec<(Event, Vec<SubscriptionId>)> = Vec::with_capacity(hits_wanted);
    let mut misses: Vec<Event> = Vec::with_capacity(misses_wanted);
    let mut seen = std::collections::BTreeSet::new();
    let quota = hits_wanted.div_ceil(distinct.len().max(1));
    let mut hits_per_shape = vec![0usize; distinct.len()];
    let mut tries = 0usize;
    while hits.len() < hits_wanted {
        tries += 1;
        if tries > 20_000_000 {
            return Err("could not fill the hit class of the event pool".to_owned());
        }
        let event = live_gen.event(1.0, &mut rng);
        let takers = inputs::oracle(&live_population, &[&event], 1)
            .pop()
            .unwrap_or_default();
        let Some(shape) = takers.first().and_then(|id| shape_of.get(id)).copied() else {
            continue;
        };
        if takers.len() <= MAX_FANOUT
            && hits_per_shape[shape] < quota
            && seen.insert(format!("{event:?}"))
        {
            hits_per_shape[shape] += 1;
            hits.push((event, takers));
        }
    }
    while misses.len() < misses_wanted {
        let event = live_gen.event(0.0, &mut rng);
        let taken = live
            .iter()
            .chain(&resident)
            .any(|(_, sub)| sub.matches(&event));
        if !taken {
            misses.push(event);
        }
    }
    let mut classes: Vec<Option<(Event, Vec<SubscriptionId>)>> =
        hits.into_iter().map(Some).collect();
    let mut pool_with_expect: Vec<(Event, Vec<SubscriptionId>)> =
        misses.into_iter().map(|e| (e, Vec::new())).collect();
    pool_with_expect.extend(classes.drain(..).flatten());
    pool_with_expect.shuffle(&mut rng);
    for (event, _) in &pool_with_expect {
        digest_events.event(BROKER_A.0, event);
    }
    for (_, _, witness) in &probes {
        digest_events.event(BROKER_A.0, witness);
    }
    let (pool, expect): (Vec<Event>, Vec<Vec<SubscriptionId>>) =
        pool_with_expect.into_iter().unzip();

    let (fence_id, fence_sub) = live
        .first()
        .ok_or("a daemon workload needs a live subscription")?;
    let fence_event =
        inputs::witness_event(&schema, fence_sub).ok_or("no witness for the fence subscription")?;

    // The full-push model: mirror B's own summary and size every frame
    // the two daemons exchange outside the event path.
    let frame_len = |msg: &Msg| -> Result<u64, String> {
        msg.to_frame_bytes()
            .map(|f| f.len() as u64)
            .map_err(|e| e.to_string())
    };
    let summary_overhead = frame_len(&Msg::Summary {
        from: BROKER_B,
        bytes: Vec::new(),
    })?;
    let push = |s: &BrokerSummary| -> Result<u64, String> {
        let payload = codec.encoded_len(s).map_err(|e| e.to_string())?;
        Ok(summary_overhead + payload as u64)
    };
    let mut mirror =
        BrokerSummary::rebuild(schema.clone(), resident.iter().map(|(id, sub)| (*id, sub)));
    let empty = BrokerSummary::new(schema.clone());
    // Handshake: B dials A; both digests differ from "no view", so both
    // sides pull (A's summary is empty, B's is the restored one).
    let mut model_setup_bytes = frame_len(&Msg::Hello {
        broker: BROKER_B,
        epoch: 1,
        digest: mirror.digest(),
    })? + frame_len(&Msg::HelloAck {
        broker: BROKER_A,
        epoch: 1,
        digest: empty.digest(),
    })? + 2 * frame_len(&Msg::Pull { from: BROKER_A })?
        + push(&empty)?
        + push(&mirror)?;
    for (id, sub) in &live {
        mirror.insert_with_id(*id, sub);
        model_setup_bytes += push(&mirror)?;
    }
    let after_setup = mirror.clone();
    let mut model_probe_bytes = Vec::with_capacity(probes.len());
    for (id, sub, _) in &probes {
        mirror.insert_with_id(*id, sub);
        model_probe_bytes.push(push(&mirror)?);
    }

    let checkpoint = (!resident.is_empty()).then_some(BrokerCheckpoint {
        next_local: resident.len() as u32,
        subs: resident,
    });
    Ok(Inputs {
        fence: (*fence_id, fence_event),
        schema,
        checkpoint,
        live,
        pool,
        expect,
        probes,
        model_setup_bytes,
        model_probe_bytes,
        mirror: after_setup,
        digest_subscriptions: digest_subs.hex(),
        digest_events: digest_events.hex(),
        harness_s: secs(started.elapsed()),
    })
}

/// Reads the deliveries of one published event off `next` and checks
/// them against the oracle: exactly the expected ids, in ascending
/// order, each carrying the published event. A missing delivery shows
/// as a timeout (`Ok(None)`) or as the next event's delivery arriving
/// early; a duplicate shows as an id the oracle did not expect next.
/// Either way the event is reported wrong — and every later event whose
/// stream position the fault shifted.
pub fn verify_event(
    expected: &[SubscriptionId],
    event: &Event,
    next: &mut dyn FnMut() -> Result<Option<(SubscriptionId, Event)>, String>,
) -> Result<bool, String> {
    let mut ok = true;
    for want in expected {
        match next()? {
            Some((id, got)) => ok &= id == *want && got == *event,
            None => return Ok(false),
        }
    }
    Ok(ok)
}

/// The publisher's connection to daemon A: the client protocol of
/// `subsum_transport::Client` with up to a window of publishes in
/// flight (`Client::publish` blocks for every ack, so it cannot keep
/// more than one). `publish` — window 1 — is what `Client::publish`
/// does.
struct Pipe {
    stream: TcpStream,
    decoder: FrameDecoder,
    seq: u32,
    in_flight: usize,
}

impl Pipe {
    fn connect(addr: SocketAddr) -> Result<Pipe, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        // A window of small frames written one by one must not wait on
        // Nagle for the previous frame's TCP ack.
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Pipe {
            stream,
            decoder: FrameDecoder::new(),
            seq: 0,
            in_flight: 0,
        })
    }

    fn write(&mut self, msg: &Msg) -> Result<(), String> {
        let bytes = msg.to_frame_bytes().map_err(|e| e.to_string())?;
        self.stream.write_all(&bytes).map_err(|e| e.to_string())
    }

    fn send(&mut self, event: &Event) -> Result<(), String> {
        self.seq = self.seq.wrapping_add(1);
        self.write(&Msg::Publish {
            seq: self.seq,
            event: event.clone(),
        })?;
        self.in_flight += 1;
        Ok(())
    }

    /// Blocks for the oldest outstanding ack (acks come back in publish
    /// order); `false` for `accepted = false` or a foreign sequence
    /// number.
    fn ack(&mut self) -> Result<bool, String> {
        if self.in_flight == 0 {
            return Err("no publish is waiting for an ack".to_owned());
        }
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = self.decoder.next_frame().map_err(|e| e.to_string())? {
                if let Msg::PublishAck { seq, accepted, .. } =
                    Msg::decode_frame(&frame).map_err(|e| e.to_string())?
                {
                    let oldest = self.seq.wrapping_sub(self.in_flight as u32 - 1);
                    self.in_flight -= 1;
                    return Ok(accepted && seq == oldest);
                }
                continue;
            }
            let n = self.stream.read(&mut buf).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("daemon A closed the publisher's connection".to_owned());
            }
            // BOUND: `read` returns at most `buf.len()`.
            self.decoder.feed(&buf[..n]);
        }
    }

    fn publish(&mut self, event: &Event) -> Result<bool, String> {
        self.send(event)?;
        self.ack()
    }

    fn shutdown(mut self) -> Result<(), String> {
        self.write(&Msg::Shutdown)
    }
}

/// A running pair of daemons with the publisher's connection at A (the
/// subscriber's connection at B travels separately: a thread owns it
/// during the phases).
struct Pair {
    a: DaemonHandle,
    b: DaemonHandle,
    publisher: Pipe,
}

/// Waits for a condition only the daemons' counters show, asleep
/// between looks: a spinning wait would take a vCPU from the daemon
/// threads the set-up clock is timing.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + 2 * PATIENCE;
    while !done() {
        if Instant::now() > deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

fn poll(client: &mut Client) -> Result<Option<(SubscriptionId, Event)>, String> {
    client.poll_delivery(PATIENCE).map_err(|e| e.to_string())
}

fn frame_len(msg: &Msg) -> u64 {
    msg.to_frame_bytes().map_or(0, |f| f.len() as u64)
}

/// Cumulative counters of both daemons.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    frames: u64,
    bytes: u64,
    /// B's share of `bytes`.
    bytes_b: u64,
    deliveries: u64,
    summaries_tx: u64,
    resyncs: u64,
    rejected: u64,
}

impl Counters {
    fn read(a: &DaemonHandle, b: &DaemonHandle) -> Counters {
        let (a, b) = (a.stats(), b.stats());
        Counters {
            frames: a.tx.frames_tx.get() + b.tx.frames_tx.get(),
            bytes: a.tx.bytes_tx.get() + b.tx.bytes_tx.get(),
            bytes_b: b.tx.bytes_tx.get(),
            deliveries: a.deliveries.get() + b.deliveries.get(),
            summaries_tx: a.summaries_tx.get() + b.summaries_tx.get(),
            resyncs: a.resyncs.get() + b.resyncs.get(),
            rejected: a.rejected.get() + b.rejected.get(),
        }
    }

    /// Writer threads bump their counters after the write returns, so a
    /// client can see a frame before its count does; at a phase boundary
    /// (nothing in flight) wait for the counts to stop moving.
    fn settled(a: &DaemonHandle, b: &DaemonHandle) -> Counters {
        let mut last = Counters::read(a, b);
        loop {
            std::thread::sleep(Duration::from_millis(2));
            let now = Counters::read(a, b);
            if now.frames == last.frames && now.bytes == last.bytes {
                return now;
            }
            last = now;
        }
    }
}

/// Bytes the daemons wrote over an interval that were not event-path
/// frames the harness can itemise (acks, deliveries, subscribe acks):
/// what is left is broker-to-broker summary traffic with its framing.
fn propagation_bytes(written: u64, event_path: u64) -> u64 {
    written.saturating_sub(event_path)
}

struct SetUp {
    pair: Pair,
    subscriber: Client,
    /// Set-up time on the clock (the counter read in the middle is off
    /// it).
    seconds: f64,
    /// Broker-to-broker bytes up to "A's view is current".
    propagation: u64,
    warm_failed: u64,
}

/// One set-up: start both daemons (B restoring its checkpoint), let the
/// handshake pull both summaries, register the live subscriptions, wait
/// until A's view holds the last push, and run the warm-up through the
/// publisher's window.
fn set_up(inputs: &Inputs, counts: &DaemonCounts) -> Result<SetUp, String> {
    let io = |e: std::io::Error| e.to_string();
    let started = Instant::now();
    let a = Subsumd::start(DaemonConfig::new(BROKER_A, inputs.schema.clone())).map_err(io)?;
    let mut config_b = DaemonConfig::new(BROKER_B, inputs.schema.clone());
    config_b.dial = vec![(BROKER_A, a.addr())];
    config_b.checkpoint = inputs.checkpoint.clone();
    let b = Subsumd::start(config_b).map_err(io)?;
    wait_until("the handshake pulls", || {
        a.stats().summaries_rx.get() >= 1 && b.stats().summaries_rx.get() >= 1
    })?;
    let mut subscriber = Client::connect(b.addr()).map_err(|e| e.to_string())?;
    let mut subscribe_acks = 0;
    for (id, sub) in &inputs.live {
        let got = subscriber.subscribe(sub).map_err(|e| e.to_string())?;
        if got != *id {
            return Err(format!(
                "subscribe returned {got}, the oracle predicted {id}"
            ));
        }
        subscribe_acks += frame_len(&Msg::SubscribeAck { id: got });
    }
    let pushes = 1 + inputs.live.len() as u64;
    wait_until("A's view of B", || a.stats().summaries_rx.get() >= pushes)?;
    let view_current = Instant::now();

    // Off the clock: nothing has been published yet, so everything the
    // daemons wrote except the subscribe acks is summary traffic.
    let wire = Counters::settled(&a, &b);
    let propagation = propagation_bytes(wire.bytes, subscribe_acks);

    let resumed = Instant::now();
    let mut publisher = Pipe::connect(a.addr())?;
    let pool = inputs.pool.len();
    // The warm-up streams through the publisher's window; this thread
    // also reads the deliveries, one window behind the sends (so at
    // most `2 * PUBLISH_WINDOW * MAX_FANOUT` frames are outstanding,
    // under B's mailbox).
    let mut warm_failed = 0;
    let check = |k: usize, subscriber: &mut Client| -> Result<u64, String> {
        let at = k % pool;
        let ok = verify_event(&inputs.expect[at], &inputs.pool[at], &mut || {
            poll(subscriber)
        })?;
        Ok(u64::from(!ok))
    };
    for k in 0..counts.warmup {
        while publisher.in_flight >= PUBLISH_WINDOW {
            warm_failed += u64::from(!publisher.ack()?);
        }
        publisher.send(&inputs.pool[k % pool])?;
        if k >= PUBLISH_WINDOW {
            warm_failed += check(k - PUBLISH_WINDOW, &mut subscriber)?;
        }
    }
    while publisher.in_flight > 0 {
        warm_failed += u64::from(!publisher.ack()?);
    }
    for k in counts.warmup.saturating_sub(PUBLISH_WINDOW)..counts.warmup {
        warm_failed += check(k, &mut subscriber)?;
    }
    let seconds = secs(view_current - started) + secs(resumed.elapsed());
    Ok(SetUp {
        pair: Pair { a, b, publisher },
        subscriber,
        seconds,
        propagation,
        warm_failed,
    })
}

/// Stops both daemons cleanly and returns B's final checkpoint.
fn tear_down(pair: Pair, subscriber: Client) -> Result<BrokerCheckpoint, String> {
    pair.publisher.shutdown()?;
    subscriber.shutdown().map_err(|e| e.to_string())?;
    pair.a.join();
    Ok(pair.b.join().checkpoint)
}

/// What the subscriber thread hands back.
#[derive(Default)]
struct SubscriberLog {
    /// Stream phase: when the last expected `Deliver` of each sampled
    /// delivering publish was read, in publish order.
    stream_last: Vec<Instant>,
    /// Mutate phase: subscribe call → first delivery, per probe.
    visible: Vec<Duration>,
    /// Mutate phase: when each probe became visible.
    visible_at: Vec<Instant>,
    subscribe_ns: Vec<u32>,
    /// Mutate phase: `SubscribeAck` and `Deliver` frame bytes B wrote to
    /// this connection (the event-path share of what B wrote).
    mutate_event_path_bytes: u64,
    attempted: u64,
    failed: u64,
}

/// Subscriber → publisher hand-off of the stream phase: how many
/// `Deliver` frames the subscriber has read. The publisher *blocks* on
/// it when the delivery window is full — a spinning publisher would
/// take a vCPU from the daemons it is measuring.
struct Sync {
    progress: Mutex<usize>,
    moved: Condvar,
}

impl Sync {
    fn set(&self, read: usize) {
        *self.progress.lock().unwrap_or_else(PoisonError::into_inner) = read;
        self.moved.notify_one();
    }

    /// Blocks until at most `window` of `expected` deliveries are
    /// outstanding; `false` if that takes longer than the subscriber's
    /// patience for a whole window.
    fn wait_for_room(&self, expected: usize, window: usize) -> bool {
        let guard = self.progress.lock().unwrap_or_else(PoisonError::into_inner);
        let (_guard, timeout) = self
            .moved
            .wait_timeout_while(guard, 4 * PATIENCE, |read| expected > *read + window)
            .unwrap_or_else(PoisonError::into_inner);
        !timeout.timed_out()
    }
}

/// The subscriber thread's ends of its hand-offs with the publisher.
struct SubscriberLinks {
    /// A delivering round (round phase) or the whole stream phase has
    /// been read to its last expected `Deliver`, at this instant.
    round_done: Sender<Instant>,
    /// The publisher has read the counters that close the stream phase.
    mutate_go: Receiver<()>,
    /// Probe `j` is subscribed; start its [probe, fence] rounds.
    probe_go: Sender<usize>,
    /// Whether the last round ended the probe (delivered, or given up).
    probe_stop: Sender<bool>,
}

/// The subscriber thread: owns B's client connection for all three
/// phases, checks every delivery against the oracle and timestamps it
/// with the process clock the publisher also uses.
fn subscriber_thread(
    inputs: Arc<Inputs>,
    counts: DaemonCounts,
    mut client: Client,
    sync: Arc<Sync>,
    links: SubscriberLinks,
) -> Result<(SubscriberLog, Client), String> {
    let SubscriberLinks {
        round_done,
        mutate_go,
        probe_go,
        probe_stop,
    } = links;
    let mut log = SubscriberLog::default();
    let pool = inputs.pool.len();

    // Round phase: after each delivering round, tell the publisher when
    // its last `Deliver` was read.
    for i in 0..counts.rounds() {
        let at = i % pool;
        if inputs.expect[at].is_empty() {
            continue;
        }
        let ok = verify_event(&inputs.expect[at], &inputs.pool[at], &mut || {
            poll(&mut client)
        })?;
        let last = Instant::now();
        log.attempted += 1;
        log.failed += u64::from(!ok);
        if round_done.send(last).is_err() {
            return Err("publisher went away during the round phase".to_owned());
        }
    }

    // Stream phase: publish progress so the publisher can bound the lag.
    log.stream_last.reserve(counts.stream() / SAMPLE_EVERY + 1);
    let mut read = 0usize;
    for i in 0..counts.stream() {
        let at = i % pool;
        if !inputs.expect[at].is_empty() {
            let ok = verify_event(&inputs.expect[at], &inputs.pool[at], &mut || {
                poll(&mut client)
            })?;
            if i % SAMPLE_EVERY == 0 {
                log.stream_last.push(Instant::now());
            }
            log.attempted += 1;
            log.failed += u64::from(!ok);
            read += inputs.expect[at].len();
            sync.set(read);
        }
    }
    if round_done.send(Instant::now()).is_err() {
        return Err("publisher went away during the stream phase".to_owned());
    }

    // Mutate phase, once the publisher has read the counters that close
    // the stream phase: subscribe, then let the publisher probe until
    // the new subscription has been delivered to.
    if mutate_go.recv_timeout(4 * PATIENCE).is_err() {
        return Err("publisher went away before the mutate phase".to_owned());
    }
    let subs: BTreeMap<SubscriptionId, &Subscription> = inputs
        .live
        .iter()
        .map(|(id, sub)| (*id, sub))
        .chain(inputs.probes.iter().map(|(id, sub, _)| (*id, sub)))
        .collect();
    let sound =
        |id: &SubscriptionId, event: &Event| subs.get(id).is_some_and(|sub| sub.matches(event));
    for (j, (id, sub, _)) in inputs.probes.iter().take(counts.probes).enumerate() {
        let t0 = Instant::now();
        let got = client.subscribe(sub).map_err(|e| e.to_string())?;
        log.subscribe_ns
            .push(u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX));
        log.mutate_event_path_bytes += frame_len(&Msg::SubscribeAck { id: got });
        let mut ok = got == *id;
        if probe_go.send(j).is_err() {
            return Err("publisher went away during the mutate phase".to_owned());
        }
        // Each probe round is [probe, fence]: read up to the fence's
        // delivery and tell the publisher whether the probe showed up
        // before it. The fence always arrives, so a round cannot hang on
        // a subscription that is not routable yet.
        let mut seen_at = None;
        loop {
            loop {
                match poll(&mut client)? {
                    Some((did, event)) => {
                        ok &= sound(&did, &event);
                        if did == *id && seen_at.is_none() {
                            seen_at = Some(Instant::now());
                        }
                        let fence = did == inputs.fence.0 && event == inputs.fence.1;
                        log.mutate_event_path_bytes += frame_len(&Msg::Deliver { id: did, event });
                        if fence {
                            break;
                        }
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            // Stop on delivery, or give the probe up as failed.
            let stop = seen_at.is_some() || t0.elapsed() >= PATIENCE;
            if probe_stop.send(stop).is_err() {
                return Err("publisher went away during the mutate phase".to_owned());
            }
            if stop {
                break;
            }
        }
        let at = seen_at.unwrap_or_else(Instant::now);
        log.visible.push(at - t0);
        log.visible_at.push(at);
        log.attempted += 1;
        log.failed += u64::from(!(ok && seen_at.is_some()));
    }
    Ok((log, client))
}

/// Times the acks of the sampled publishes of the stream phase. Acks
/// come back in publish order, so counting them identifies each one.
struct AckTimer {
    /// Sampled publishes whose ack is still out: (publish index, when
    /// it was sent).
    awaiting: VecDeque<(usize, Instant)>,
    /// Acks read so far.
    acks: usize,
    /// Send → ack of every sampled publish, in publish order.
    ack_ns: Vec<u32>,
}

impl AckTimer {
    /// Reads one ack; `Ok(accepted)`.
    fn take(&mut self, publisher: &mut Pipe) -> Result<bool, String> {
        let accepted = publisher.ack()?;
        if let Some((ix, sent)) = self.awaiting.front().copied() {
            if ix == self.acks {
                self.ack_ns.push(ns32(sent.elapsed()));
                self.awaiting.pop_front();
            }
        }
        self.acks += 1;
        Ok(accepted)
    }
}

struct Measured {
    phases: Vec<Phase>,
    setup_s: Vec<f64>,
    /// Round phase: every round's send → ack and send → last `Deliver`,
    /// one slice per pass over the pool (a slice's wall time runs to the
    /// last round's last `Deliver`).
    round_lat: Sliced,
    round_wall_s: f64,
    /// Stream phase (traced runs): sampled send → ack and send → last
    /// `Deliver`, and the publishes per second of each slice.
    lat: Sliced,
    stream_rates: Vec<Classed>,
    ab: Vec<(bool, Classed)>,
    floors: Option<(f64, f64)>,
    lag_ns: Vec<u32>,
    /// Traced runs: send → ack and last `Deliver` both read, per round.
    whole_ns: Vec<u32>,
    visible_ms: Vec<Classed>,
    subscribe_rates: Vec<Classed>,
    subscribe_ns: Vec<u32>,
    publish_frames: u64,
    publish_bytes: u64,
    publish_deliveries: u64,
    publish_events: u64,
    /// Measured broker-to-broker bytes of set-up and of the mutate
    /// phase, and what the full-push model predicts for each.
    propagation_setup: u64,
    propagation_mutate: u64,
    model_setup: u64,
    model_mutate: u64,
    end: Counters,
    /// `VmHWM` when the measured pair had run its last phase.
    peak_rss_mib: f64,
    attempted: u64,
    failed: u64,
}

fn ns32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

fn drive(
    inputs: &Arc<Inputs>,
    counts: &DaemonCounts,
    trace: &mut Trace,
) -> Result<Measured, String> {
    let mut phases = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // ---- set-up: the pair every phase runs on --------------------------
    // (The other `setup_reps - 1` set-ups, timed for `setup_s` only, run
    // after this pair is gone: a torn-down pair leaves a few MiB behind
    // in the allocator, and five of them were a quarter of `VmHWM`.)
    let mut setup_s = Vec::with_capacity(counts.setup_reps);
    let setup_started = Instant::now();
    let SetUp {
        mut pair,
        subscriber,
        seconds,
        propagation: propagation_setup,
        warm_failed,
    } = set_up(inputs, counts)?;
    let mut setup_wall = setup_started.elapsed();
    setup_s.push(seconds);
    if trace.on {
        trace.span("ledger.setup", 0, 0, setup_started, Instant::now());
    }
    attempted += counts.warmup as u64;
    failed += warm_failed;

    let sync = Arc::new(Sync {
        progress: Mutex::new(0),
        moved: Condvar::new(),
    });
    let (round_done_tx, round_done) = std::sync::mpsc::channel();
    let (mutate_go, mutate_go_rx) = std::sync::mpsc::channel();
    let (probe_go_tx, probe_go) = std::sync::mpsc::channel();
    let (probe_stop_tx, probe_stop) = std::sync::mpsc::channel();
    let thread = {
        let (inputs, counts, sync) = (Arc::clone(inputs), counts.clone(), Arc::clone(&sync));
        std::thread::spawn(move || {
            subscriber_thread(
                inputs,
                counts,
                subscriber,
                sync,
                SubscriberLinks {
                    round_done: round_done_tx,
                    mutate_go: mutate_go_rx,
                    probe_go: probe_go_tx,
                    probe_stop: probe_stop_tx,
                },
            )
        })
    };
    let pool = inputs.pool.len();
    let token = |rx: &Receiver<Instant>| {
        rx.recv_timeout(4 * PATIENCE)
            .map_err(|_| "the subscriber thread stopped answering".to_owned())
    };
    let before_publish = Counters::settled(&pair.a, &pair.b);

    // ---- round phase ----------------------------------------------------
    // One publish at a time: publish → ack and every expected `Deliver`
    // before the next; one slice per pass over the pool. Traced runs
    // measure the socket and ack floors in small slices between the
    // passes, so floors and round trips see the same mix of the
    // processor's two speeds.
    let mut floors = if trace.on && counts.rounds() > 0 {
        Some(layers::FloorRig::start(
            &inputs.schema,
            layers::publish_frame_len(&inputs.pool),
        )?)
    } else {
        None
    };
    let round_start = Instant::now();
    let mut round_lat = Sliced::with_capacity(counts.rounds());
    let mut round_wall_s = 0.0;
    // Traced runs keep every round's instants for the spans written
    // after the phase (nothing is recorded inside the timed loop).
    let mut traced_rounds: Vec<(Instant, Instant, Option<Instant>)> =
        Vec::with_capacity(if trace.on { counts.rounds() } else { 0 });
    let mut slice_start = round_start;
    for i in 0..counts.rounds() {
        let at = i % pool;
        let t0 = Instant::now();
        let accepted = pair.publisher.publish(&inputs.pool[at])?;
        let t1 = Instant::now();
        round_lat.push(ns32(t1 - t0), false);
        attempted += 1;
        failed += u64::from(!accepted);
        let last = if inputs.expect[at].is_empty() {
            None
        } else {
            let last = token(&round_done)?;
            round_lat.push_delivery(ns32(last.saturating_duration_since(t0)));
            Some(last)
        };
        if trace.on {
            traced_rounds.push((t0, t1, last));
        }
        if (i + 1) % pool == 0 {
            let wall = slice_start.elapsed();
            round_wall_s += secs(wall);
            round_lat.cut(wall, 0);
            if let Some(rig) = floors.as_mut() {
                rig.slice(&inputs.pool)?;
            }
            slice_start = Instant::now();
        }
    }
    let round_end = Instant::now();
    let floors = floors.map(|rig| rig.finish(MEDIAN)).transpose()?;
    if counts.rounds() > 0 {
        phases.push(Phase::new(
            "round",
            round_end - round_start,
            counts.rounds() as u64,
        ));
    }

    // ---- stream phase (traced runs) -----------------------------------
    let stream_start = Instant::now();
    let slice = counts.stream_slice();
    let samples = counts.stream() / SAMPLE_EVERY + 1;
    let mut sampled_sent: Vec<Instant> = Vec::with_capacity(samples);
    let mut timer = AckTimer {
        awaiting: VecDeque::with_capacity(PUBLISH_WINDOW),
        acks: 0,
        ack_ns: Vec::with_capacity(samples),
    };
    let mut slice_walls: Vec<f64> = Vec::with_capacity(counts.stream_slices);
    let mut slice_start = stream_start;
    let mut expected = 0usize;
    let mut ab: Vec<(bool, Classed)> = Vec::new();
    for i in 0..counts.stream() {
        // Traced runs: every other slice runs with the program's own
        // telemetry recorder off, as an untraced run would
        // (`telemetry.overhead_pct`).
        let traced = trace.on && (i / slice) % 2 == 0;
        if i % slice == 0 {
            subsum_telemetry::set_enabled(traced);
        }
        let at = i % pool;
        // Never have more than the delivery window outstanding (under
        // the 256-frame mailbox, so nothing is rejected) …
        expected += inputs.expect[at].len();
        if !sync.wait_for_room(expected, DELIVER_WINDOW) {
            return Err("the subscriber thread stopped reading deliveries".to_owned());
        }
        // … nor more than the publish window.
        while pair.publisher.in_flight >= PUBLISH_WINDOW {
            failed += u64::from(!timer.take(&mut pair.publisher)?);
        }
        if i % SAMPLE_EVERY == 0 {
            let now = Instant::now();
            sampled_sent.push(now);
            timer.awaiting.push_back((i, now));
        }
        pair.publisher.send(&inputs.pool[at])?;
        attempted += 1;
        if (i + 1) % slice == 0 {
            // A slice ends when its last publish is on its way.
            let now = Instant::now();
            let wall = secs(now - slice_start);
            slice_walls.push(wall);
            if trace.on {
                ab.push((traced, (0, slice as f64 / wall)));
            }
            slice_start = now;
        }
    }
    while pair.publisher.in_flight > 0 {
        failed += u64::from(!timer.take(&mut pair.publisher)?);
    }
    subsum_telemetry::set_enabled(trace.on);
    // The phase ends at the last expected delivery.
    token(&round_done)?;
    let stream_end = Instant::now();
    if counts.stream() > 0 {
        phases.push(Phase::new(
            "stream",
            stream_end - stream_start,
            counts.stream() as u64,
        ));
    }
    let after_publish = Counters::settled(&pair.a, &pair.b);

    // ---- mutate phase -------------------------------------------------
    let mutate_start = Instant::now();
    if mutate_go.send(()).is_err() {
        return Err("the subscriber thread stopped before the mutate phase".to_owned());
    }
    let mut probe_publishes = 0u64;
    for j in 0..counts.probes {
        let go = probe_go
            .recv_timeout(4 * PATIENCE)
            .map_err(|_| "the subscriber thread stopped answering".to_owned())?;
        if go != j {
            return Err("probe hand-off out of step".to_owned());
        }
        let witness = &inputs.probes[j].2;
        // One closed-loop round per try: the probe, then the fence that
        // is always delivered; the subscriber answers whether the probe
        // was delivered ahead of it.
        loop {
            failed += u64::from(!pair.publisher.publish(witness)?);
            failed += u64::from(!pair.publisher.publish(&inputs.fence.1)?);
            probe_publishes += 2;
            let stop = probe_stop
                .recv_timeout(4 * PATIENCE)
                .map_err(|_| "the subscriber thread stopped answering".to_owned())?;
            if stop {
                break;
            }
        }
    }
    attempted += probe_publishes;
    let (log, subscriber) = thread
        .join()
        .map_err(|_| "the subscriber thread panicked".to_owned())??;
    let mutate_end = Instant::now();
    phases.push(Phase::new(
        "mutate",
        mutate_end - mutate_start,
        counts.probes as u64,
    ));
    if trace.on {
        trace.span("ledger.round_phase", 0, 0, round_start, round_end);
        trace.span("ledger.stream_phase", 0, 0, stream_start, stream_end);
        trace.span("ledger.mutate_phase", 0, 0, mutate_start, mutate_end);
    }
    attempted += log.attempted;
    failed += log.failed;
    let end = Counters::settled(&pair.a, &pair.b);

    // ---- stream latencies: the sampled publishes, cut by slice --------
    let mut lat = Sliced::with_capacity(sampled_sent.len());
    let mut delivered = log.stream_last.iter();
    for (k, (sent, ack_ns)) in sampled_sent.iter().zip(&timer.ack_ns).enumerate() {
        let i = k * SAMPLE_EVERY;
        lat.push(*ack_ns, false);
        if !inputs.expect[i % pool].is_empty() {
            match delivered.next() {
                Some(last) => lat.push_delivery(ns32(last.saturating_duration_since(*sent))),
                None => failed += 1,
            }
        }
        if (i + SAMPLE_EVERY) % slice < SAMPLE_EVERY {
            if let Some(wall) = slice_walls.get(i / slice) {
                lat.cut(Duration::from_secs_f64(*wall), 0);
            }
        }
    }

    // ---- spans of the round phase (traced runs) -------------------------
    let mut lag_ns = Vec::with_capacity(traced_rounds.len());
    let mut whole_ns = Vec::with_capacity(traced_rounds.len());
    for (i, (sent, acked, last)) in traced_rounds.iter().enumerate() {
        let op = i as u32 + 1;
        if let Some(last) = last {
            lag_ns.push(ns32(last.saturating_duration_since(*acked)));
        }
        whole_ns.push(ns32(last.map_or(*acked, |last| last.max(*acked)) - *sent));
        let replay = i % (counts.rounds() / layers::REPLAYS).max(1) == 0;
        if replay {
            let parent = trace.span("transport.publish_rtt", 0, op, *sent, *acked);
            if let Some(last) = last {
                trace.span("transport.deliver", parent, op, *sent, *last);
            }
            replay_round(trace, inputs, i % pool, parent, op);
        } else {
            trace.add("transport.publish_rtt", u64::from(ns32(*acked - *sent)));
        }
    }
    if trace.on {
        for ns in &timer.ack_ns {
            trace.add("transport.stream_rtt", u64::from(*ns));
        }
    }

    // Mutate phase: one slice per probe (subscribe → visible → next).
    let mut subscribe_rates: Vec<Classed> = Vec::with_capacity(log.visible_at.len());
    let mut previous = mutate_start;
    for at in &log.visible_at {
        subscribe_rates.push((
            0,
            1.0 / secs(at.saturating_duration_since(previous)).max(f64::MIN_POSITIVE),
        ));
        previous = *at;
    }

    // ---- tear-down and the oracle's last word ---------------------------
    // B must end up holding exactly the subscriptions the oracle planned.
    let peak_rss_mib = crate::machine::peak_rss_mib();
    let final_checkpoint = tear_down(pair, subscriber)?;
    attempted += 1;
    let mut mirror = inputs.mirror.clone();
    for (id, sub, _) in inputs.probes.iter().take(counts.probes) {
        mirror.insert_with_id(*id, sub);
    }
    let rebuilt = BrokerSummary::rebuild(
        inputs.schema.clone(),
        final_checkpoint.subs.iter().map(|(id, sub)| (*id, sub)),
    );
    failed += u64::from(rebuilt.digest() != mirror.digest());

    // ---- the other set-ups, each torn down again ------------------------
    for _ in 1..counts.setup_reps {
        let start = Instant::now();
        let made = set_up(inputs, counts)?;
        setup_wall += start.elapsed();
        setup_s.push(made.seconds);
        attempted += counts.warmup as u64;
        failed += made.warm_failed;
        tear_down(made.pair, made.subscriber)?;
    }
    phases.insert(
        0,
        Phase::new(
            "setup",
            setup_wall,
            (inputs.live.len() + counts.warmup) as u64,
        ),
    );

    Ok(Measured {
        phases,
        setup_s,
        round_lat,
        round_wall_s,
        lat,
        stream_rates: slice_walls
            .iter()
            .map(|wall| (0, slice as f64 / wall.max(f64::MIN_POSITIVE)))
            .collect(),
        ab,
        floors,
        lag_ns,
        whole_ns,
        visible_ms: log.visible.iter().map(|d| (0, secs(*d) * 1e3)).collect(),
        subscribe_rates,
        subscribe_ns: log.subscribe_ns,
        publish_frames: after_publish.frames - before_publish.frames,
        publish_bytes: after_publish.bytes - before_publish.bytes,
        publish_deliveries: after_publish.deliveries - before_publish.deliveries,
        publish_events: (counts.rounds() + counts.stream()) as u64,
        propagation_setup,
        // Only B holds subscriptions, so only B pushes summaries here;
        // what A writes in this phase is acks and routed events.
        propagation_mutate: propagation_bytes(
            end.bytes_b - after_publish.bytes_b,
            log.mutate_event_path_bytes,
        ),
        model_setup: inputs.model_setup_bytes,
        model_mutate: inputs.model_probe_bytes.iter().take(counts.probes).sum(),
        end,
        peak_rss_mib,
        attempted,
        failed,
    })
}

/// How much slower the traced stream slices ran than the untraced ones
/// in between, as a percentage of the untraced rate — each group's rate
/// being the median of its slices.
fn stream_overhead_pct(ab: &[(bool, Classed)]) -> f64 {
    let group = |traced: bool| -> Vec<Classed> {
        ab.iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, r)| *r)
            .collect()
    };
    let (on, off) = (
        slice_quantile(&group(true), MEDIAN),
        slice_quantile(&group(false), MEDIAN),
    );
    if off == 0.0 {
        0.0
    } else {
        100.0 * (off - on) / off
    }
}

/// Replays, from outside, the CPU work one round trip puts on the
/// daemons' path: both codec directions of every frame and the
/// allocating `match_event` calls (A: own + view of B; B: own), on the
/// same bytes and the mirror of B's summary.
fn replay_round(trace: &mut Trace, inputs: &Inputs, at: usize, parent: u32, op: u32) {
    let event = &inputs.pool[at];
    let codec_pass = |trace: &mut Trace, msg: &Msg| {
        let (frame, _) = trace.time("transport.encode", parent, op, || msg.to_frame_bytes());
        if let Ok(bytes) = frame {
            trace.time("transport.decode", parent, op, || {
                let mut decoder = subsum_transport::FrameDecoder::new();
                decoder.feed(&bytes);
                if let Ok(Some(f)) = decoder.next_frame() {
                    std::hint::black_box(Msg::decode_frame(&f).is_ok());
                }
            });
        }
    };
    codec_pass(
        trace,
        &Msg::Publish {
            seq: op,
            event: event.clone(),
        },
    );
    let empty = BrokerSummary::new(inputs.schema.clone());
    trace.time("core.match_alloc", parent, op, || {
        std::hint::black_box(empty.match_event(event).len())
    });
    let (forwarded, _) = trace.time("core.match_alloc", parent, op, || {
        !inputs.mirror.match_event(event).is_empty()
    });
    if forwarded {
        codec_pass(
            trace,
            &Msg::Route {
                origin: BROKER_A,
                event: event.clone(),
            },
        );
        trace.time("core.match_alloc", parent, op, || {
            std::hint::black_box(inputs.mirror.match_event(event).len())
        });
        for id in &inputs.expect[at] {
            codec_pass(
                trace,
                &Msg::Deliver {
                    id: *id,
                    event: event.clone(),
                },
            );
        }
    }
    codec_pass(
        trace,
        &Msg::PublishAck {
            seq: op,
            accepted: true,
            matched: 0,
        },
    );
}

/// Runs one daemon workload. With `trace.on` the same schedule runs
/// under spans and sampled replays, and the per-layer rows are filled.
pub fn run(
    name: &str,
    counts: &DaemonCounts,
    seed: u64,
    trace: &mut Trace,
) -> Result<Outcome, String> {
    let inputs = Arc::new(generate(counts, seed)?);

    if trace.on {
        subsum_telemetry::reset();
        subsum_telemetry::set_enabled(true);
    }
    // As in the overlay workloads: one set-up and fewer operations under
    // tracing (three fifths of the rounds, four fifths of the probes) —
    // plus the stream phase, which only traced runs have.
    let mut traced_counts = counts.clone();
    if trace.on {
        traced_counts.setup_reps = 1;
        traced_counts.round_passes = ((counts.round_passes * 3) / 5).max(2);
        traced_counts.probes = ((counts.probes * 4) / 5).max(1);
    } else {
        traced_counts.stream_slices = 0;
    }
    let counts = &traced_counts;
    let mut m = drive(&inputs, counts, trace)?;
    subsum_telemetry::set_enabled(false);

    let round_rates = m.round_lat.rates();
    let (round_ack_p50, round_deliver_p50) = m.round_lat.slice_medians_us();
    let publish_per_s = slice_quantile(&round_rates, QUIET_RATE);
    let publish_p50 = slice_quantile(&round_ack_p50, QUIET_TIME);
    // A set-up is one contiguous processor-bound interval: like the
    // overlay's slices, interference only adds to it.
    let setup_reps: Vec<Classed> = m.setup_s.iter().map(|s| (0, *s)).collect();
    let e2e = vec![
        ("setup_s", slice_quantile(&setup_reps, QUIET_TIME)),
        ("publish_per_s", publish_per_s),
        ("publish_p50_us", publish_p50),
        (
            "deliver_p50_us",
            slice_quantile(&round_deliver_p50, QUIET_TIME),
        ),
        (
            "subscribe_per_s",
            slice_quantile(&m.subscribe_rates, MEDIAN),
        ),
        ("visible_ms", slice_quantile(&m.visible_ms, MEDIAN)),
        (
            "propagation_bytes",
            (m.propagation_setup + m.propagation_mutate) as f64,
        ),
        (
            "hops_per_event",
            m.publish_frames as f64 / m.publish_events.max(1) as f64,
        ),
        ("peak_rss_mb", m.peak_rss_mib),
    ];

    let mut layer_rows = Vec::new();
    if trace.on {
        let p99 = m.round_lat.p99_us();
        let events = m.publish_events.max(1) as f64;
        let probes = counts.probes.max(1) as f64;
        let (stream_ack_p50, stream_deliver_p50) = m.lat.slice_medians_us();
        layer_rows.extend([
            (
                "ledger.publish_phase_per_s",
                counts.rounds() as f64 / m.round_wall_s.max(f64::MIN_POSITIVE),
            ),
            (
                "ledger.publish_median_per_s",
                slice_quantile(&round_rates, MEDIAN),
            ),
            (
                "ledger.publish_median_p50_us",
                slice_quantile(&round_ack_p50, MEDIAN),
            ),
            ("ledger.publish_quiet_per_s", publish_per_s),
            ("ledger.publish_quiet_p50_us", publish_p50),
            (
                "ledger.stream_per_s",
                slice_quantile(&m.stream_rates, MEDIAN),
            ),
            (
                "ledger.stream_ack_p50_us",
                slice_quantile(&stream_ack_p50, MEDIAN),
            ),
            (
                "ledger.stream_deliver_p50_us",
                slice_quantile(&stream_deliver_p50, MEDIAN),
            ),
            (
                "transport.deliver_lag_p50_us",
                stats::median_ns(&mut m.lag_ns) / 1e3,
            ),
            (
                "transport.frames_per_publish",
                m.publish_frames as f64 / events,
            ),
            (
                "transport.bytes_per_publish",
                m.publish_bytes as f64 / events,
            ),
            (
                "transport.deliveries_per_publish",
                m.publish_deliveries as f64 / events,
            ),
            (
                "transport.push_bytes_per_subscribe",
                m.propagation_mutate as f64 / probes,
            ),
            ("transport.summaries_tx", m.end.summaries_tx as f64),
            ("transport.resyncs", m.end.resyncs as f64),
            ("transport.rejected", m.end.rejected as f64),
            ("broker.subscribe_ns", stats::median_ns(&mut m.subscribe_ns)),
            ("ledger.publish_p99_us", p99.0),
            ("ledger.deliver_p99_us", p99.1),
            ("ledger.setup_harness_s", inputs.harness_s),
            ("telemetry.overhead_pct", stream_overhead_pct(&m.ab)),
        ]);
        layer_rows.extend(layers::telemetry_counters());
        let subject = LayerSubject {
            schema: inputs.schema.clone(),
            codec: daemon_codec(&inputs.schema)?,
            summary: inputs.mirror.clone(),
            population: inputs
                .checkpoint
                .iter()
                .flat_map(|cp| cp.subs.iter().cloned())
                .chain(inputs.live.iter().cloned())
                .collect(),
            fresh: inputs
                .probes
                .iter()
                .map(|(id, sub, _)| (*id, sub.clone()))
                .take(layers::FRESH)
                .collect(),
            events: inputs.pool.clone(),
        };
        layer_rows.extend(layers::core_rows(&subject, trace));
        let transport = layers::transport_rows(&subject, trace, m.floors);
        // Closure of the round trip. On one CPU its steps run one after
        // the other, so the whole round (ack and last `Deliver` both
        // read) should come to what its parts cost on their own: every
        // frame one socket traversal and both codec directions, every
        // frame a daemon reads one reader → loop hand-off, every frame a
        // daemon writes one loop → writer hand-off (the ack floor holds
        // one of each), plus the replayed `match_event`s.
        let row = |name: &str| {
            transport
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v)
        };
        let replays = trace.acc("transport.publish_rtt").count.max(1) as f64;
        let matching = trace.acc("core.match_alloc").sum_ns as f64 / 1e3 / replays;
        let written = m.publish_frames as f64 / events;
        let routed = written - 1.0 - m.publish_deliveries as f64 / events;
        let traversal = row("transport.socket_floor_us") / 2.0
            + (row("transport.encode_ns") + row("transport.decode_ns")) / 1e3;
        let hand_off = row("transport.handoff_residual_us") / 2.0;
        let modelled = (1.0 + written) * traversal + (1.0 + routed + written) * hand_off + matching;
        let parent = stats::median_ns(&mut m.whole_ns) / 1e3;
        layer_rows.push(("ledger.publish_self_us", (parent - matching).max(0.0)));
        layer_rows.push((
            "ledger.trace_residual_pct",
            100.0 * (parent - modelled).abs() / parent.max(f64::MIN_POSITIVE),
        ));
        layer_rows.extend(transport);
    }

    let detail = Json::obj([
        (
            "digest_subscriptions",
            Json::from(inputs.digest_subscriptions.as_str()),
        ),
        ("digest_events", Json::from(inputs.digest_events.as_str())),
        ("counts", counts.to_json()),
        (
            "phases",
            Json::Arr(m.phases.iter().map(Phase::to_json).collect()),
        ),
        (
            "samples",
            Json::obj([
                ("publish_p50_us", (m.round_lat.samples().0 as u64).into()),
                ("deliver_p50_us", (m.round_lat.samples().1 as u64).into()),
                ("publish_per_s", (round_rates.len() as u64).into()),
                ("stream_publishes_timed", (m.lat.samples().0 as u64).into()),
                ("subscribe_per_s", (m.subscribe_rates.len() as u64).into()),
                ("visible_ms", (m.visible_ms.len() as u64).into()),
                ("setup_s", (m.setup_s.len() as u64).into()),
            ]),
        ),
        ("harness_s", inputs.harness_s.into()),
        (
            "setup_reps_s",
            Json::Arr(m.setup_s.iter().map(|v| Json::Num(*v)).collect()),
        ),
        // The per-pass series the quiet deciles are taken from: the
        // processor's two speeds show as two levels.
        (
            "round_slice_rates",
            Json::Arr(
                round_rates
                    .iter()
                    .map(|(_, v)| Json::Num(v.round()))
                    .collect(),
            ),
        ),
        (
            "round_slice_ack_p50_us",
            Json::Arr(
                round_ack_p50
                    .iter()
                    .map(|(_, v)| Json::Num((v * 10.0).round() / 10.0))
                    .collect(),
            ),
        ),
        (
            "stream_slice_rates",
            Json::Arr(
                m.stream_rates
                    .iter()
                    .map(|(_, v)| Json::Num(v.round()))
                    .collect(),
            ),
        ),
        (
            "propagation",
            Json::obj([
                ("measured_setup", m.propagation_setup.into()),
                ("measured_mutate", m.propagation_mutate.into()),
                ("full_push_model_setup", m.model_setup.into()),
                ("full_push_model_mutate", m.model_mutate.into()),
            ]),
        ),
        (
            "visible_ms_series",
            Json::Arr(
                m.visible_ms
                    .iter()
                    .map(|(_, v)| Json::Num((v * 10.0).round() / 10.0))
                    .collect(),
            ),
        ),
        ("summaries_tx", m.end.summaries_tx.into()),
        ("rejected", m.end.rejected.into()),
    ]);
    Ok(Outcome {
        workload: name.to_owned(),
        attempted: m.attempted,
        failed: m.failed,
        e2e,
        layers: layer_rows,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Vec<SubscriptionId>, Event, Event) {
        let schema = subsum_types::stock_schema();
        let ids = (0..3)
            .map(|i| {
                SubscriptionId::new(
                    BROKER_B,
                    subsum_types::LocalSubId(i),
                    subsum_types::AttrMask(1),
                )
            })
            .collect();
        let event = Event::builder(&schema).num("price", 5.0).unwrap().build();
        let other = Event::builder(&schema).num("price", 6.0).unwrap().build();
        (ids, event, other)
    }

    fn feed(
        stream: Vec<(SubscriptionId, Event)>,
    ) -> impl FnMut() -> Result<Option<(SubscriptionId, Event)>, String> {
        let mut it = stream.into_iter();
        move || Ok(it.next())
    }

    #[test]
    fn oracle_accepts_the_exact_delivery_set() {
        let (ids, event, _) = fixture();
        let stream = ids.iter().map(|id| (*id, event.clone())).collect();
        assert_eq!(verify_event(&ids, &event, &mut feed(stream)), Ok(true));
        assert_eq!(verify_event(&[], &event, &mut feed(Vec::new())), Ok(true));
    }

    #[test]
    fn oracle_catches_a_dropped_delivery() {
        let (ids, event, other) = fixture();
        // The middle delivery never arrives: the stream runs dry …
        let dry = vec![(ids[0], event.clone()), (ids[2], event.clone())];
        assert_eq!(verify_event(&ids, &event, &mut feed(dry)), Ok(false));
        // … or the next event's delivery shows up in its place.
        let shifted = vec![
            (ids[0], event.clone()),
            (ids[2], event.clone()),
            (ids[0], other),
        ];
        assert_eq!(verify_event(&ids, &event, &mut feed(shifted)), Ok(false));
    }

    #[test]
    fn oracle_catches_a_duplicated_delivery() {
        let (ids, event, _) = fixture();
        let doubled = vec![
            (ids[0], event.clone()),
            (ids[1], event.clone()),
            (ids[1], event.clone()),
            (ids[2], event.clone()),
        ];
        let mut next = feed(doubled);
        // The event that carries the duplicate is wrong …
        assert_eq!(verify_event(&ids, &event, &mut next), Ok(false));
        // … and the left-over delivery makes the following event wrong.
        assert_eq!(verify_event(&ids[..1], &event, &mut next), Ok(false));
    }

    #[test]
    fn a_shape_does_not_depend_on_constraint_order() {
        let schema = subsum_types::stock_schema();
        let build = |first: &str, second: &str| {
            let mut b = Subscription::builder(&schema);
            for name in [first, second] {
                b = b.num(name, subsum_types::NumOp::Ge, 5.0).unwrap();
            }
            b.build().unwrap()
        };
        let (ab, ba) = (build("price", "volume"), build("volume", "price"));
        assert_eq!(shape_of_subscription(&ab), shape_of_subscription(&ba));
        assert_ne!(
            shape_of_subscription(&ab),
            shape_of_subscription(&build("price", "price"))
        );
    }

    #[test]
    fn propagation_is_what_the_event_path_leaves() {
        // 1 000 bytes written, 300 of them acks and deliveries.
        assert_eq!(propagation_bytes(1_000, 300), 700);
        // An over-count of the event path never wraps.
        assert_eq!(propagation_bytes(100, 300), 0);
    }

    #[test]
    fn the_pipe_keeps_a_window_in_flight_and_times_sampled_acks() {
        let schema = subsum_types::stock_schema();
        let daemon = Subsumd::start(DaemonConfig::new(BROKER_A, schema.clone())).unwrap();
        let mut pipe = Pipe::connect(daemon.addr()).unwrap();
        let (_, event, other) = fixture();
        assert!(pipe.ack().is_err(), "nothing is waiting for an ack");
        assert_eq!(pipe.publish(&event), Ok(true));

        let mut timer = AckTimer {
            awaiting: VecDeque::new(),
            acks: 0,
            ack_ns: Vec::new(),
        };
        for i in 0..5 {
            if i % 2 == 0 {
                timer.awaiting.push_back((i, Instant::now()));
            }
            pipe.send(if i % 2 == 0 { &event } else { &other }).unwrap();
        }
        assert_eq!(pipe.in_flight, 5);
        for _ in 0..5 {
            assert_eq!(timer.take(&mut pipe), Ok(true), "acks come back in order");
        }
        assert_eq!((pipe.in_flight, timer.acks, timer.ack_ns.len()), (0, 5, 3));
        assert!(timer.awaiting.is_empty());
        pipe.shutdown().unwrap();
        daemon.join();
    }

    #[test]
    fn oracle_catches_a_wrong_payload() {
        let (ids, event, other) = fixture();
        let stream = vec![(ids[0], other)];
        assert_eq!(
            verify_event(&ids[..1], &event, &mut feed(stream)),
            Ok(false)
        );
    }
}
