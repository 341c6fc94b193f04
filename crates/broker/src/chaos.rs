//! Deterministic chaos testing: fault injection, crash/recovery, and
//! digest-driven anti-entropy for neighbor summaries.
//!
//! The paper's propagation protocol (§3.2–§3.3) assumes reliable links
//! and always-up brokers. This module drives the same summary exchange
//! over a [`LossyNet`] governed by a seeded [`FaultPlan`] — message
//! drops, duplicates, extra delays, link cuts, partitions, and broker
//! crashes — and layers two recovery mechanisms on top:
//!
//! * **Crash/recovery** — a crashed broker loses all in-memory state
//!   (summary, neighbor views, even its exact store:
//!   [`DaemonCore::restore`]). On restart it reloads its durable
//!   [`BrokerCheckpoint`] (or comes up empty) and
//!   sends every neighbour the `Hello` a redialling `subsumd` sends
//!   ([`DaemonCore::hello`]). The digests in `Hello` and `HelloAck`
//!   gate both directions: each side pulls only a view that differs, so
//!   a checkpointed restart ships no summary of its own.
//! * **Anti-entropy** — every 50 ticks each broker
//!   advertises a 24-byte [`SummaryDigest`] of its own summary to every
//!   neighbor. A receiver whose stored view digest disagrees answers
//!   with a pull, triggering one full summary re-send. Healthy links
//!   cost digest bytes only; repair traffic is proportional to actual
//!   divergence. The naive baseline ([`ChaosConfig::naive_repair`])
//!   re-sends the full summary every round instead.
//!
//! Each broker is a [`DaemonCore`] — the state machine `subsumd` runs
//! behind its sockets — and every neighbour link is one of its peer
//! connections. The links carry **encoded frame bytes**: a send is
//! [`Msg::to_frame_bytes`], a delivery goes through a fresh
//! [`FrameDecoder`] (the fault plan drops and duplicates whole frames)
//! and [`Msg::decode_frame`] into [`DaemonCore::step`]. The scheduled
//! waves are `DaemonCore` calls ([`DaemonCore::push_summary`]); a
//! `Subscribe` frame makes the step push a `SummaryDelta`. This module
//! adds faults, timers, counters — each frame's length charged to its
//! message kind as it passes the sink, so a run's byte counts are what
//! its links carry — and one simulated client per broker: it owns
//! every subscription of its broker (across a crash too: a restored id
//! keeps its owner), can `Subscribe` mid-run
//! ([`ChaosRun::subscribe_at`]) and, once a run has drained, publishes
//! and collects real `Deliver` frames ([`ChaosRun::publish`]).
//!
//! A full update **replaces** a view and a delta **merges** into it
//! behind its before/after digest gate: a duplicate finds the view
//! already at the after digest and is ignored, and a delta whose base
//! the view is not at (an earlier one was dropped) is answered by a
//! pull. So duplicated messages stay idempotent, and every run is a
//! pure function of `(topology, subscriptions, plan, config)`: two runs
//! with one seed produce identical [`ChaosStats`], byte for byte.
//!
//! # Example
//!
//! ```
//! use subsum_broker::{ChaosConfig, ChaosRun};
//! use subsum_net::{FaultPlan, Topology};
//! use subsum_types::{stock_schema, NumOp, Subscription};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let schema = stock_schema();
//! let mut run = ChaosRun::new(
//!     Topology::fig7_tree(),
//!     schema.clone(),
//!     FaultPlan::reliable(7),
//!     ChaosConfig::default(),
//! )?;
//! let sub = Subscription::builder(&schema)
//!     .num("price", NumOp::Lt, 10.0)?
//!     .build()?;
//! run.subscribe(3, &sub)?;
//! run.checkpoint_all();
//! let report = run.run()?;
//! assert!(report.converged);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use subsum_core::{BrokerSummary, SummaryDigest};
use subsum_net::{FaultPlan, LossyNet, NodeId, Topology};
use subsum_telemetry::trace::{SpanRecord, TraceCtx, Tracer};
use subsum_telemetry::Count;
use subsum_types::{BrokerId, Event, IdLayout, Schema, Subscription, SubscriptionId, TypeError};

use crate::core::BrokerCore;
use crate::daemon::{ConnId, DaemonCore, Role, Sink};
use crate::frame::FrameDecoder;
use crate::msg::Msg;
use crate::snapshot::BrokerCheckpoint;

static CNT_DROPS: Count = Count::new(subsum_telemetry::names::CHAOS_DROPS);
static CNT_DUPS: Count = Count::new(subsum_telemetry::names::CHAOS_DUPS);
static CNT_CRASHES: Count = Count::new(subsum_telemetry::names::CHAOS_CRASHES);
static CNT_RESYNCS: Count = Count::new(subsum_telemetry::names::CHAOS_RESYNCS);
static CNT_DIGEST_BYTES: Count = Count::new(subsum_telemetry::names::CHAOS_DIGEST_BYTES);
static CNT_FULL_BYTES: Count = Count::new(subsum_telemetry::names::CHAOS_FULL_BYTES);

/// The simulated client's connection at every broker. The link to
/// neighbour `nb` is connection `nb`, and a `NodeId` stays below this.
const CLIENT: ConnId = 1 << 16;

/// Base transit delay of every broker→broker message, in ticks.
const LINK_DELAY: u64 = 1;

/// Ticks between anti-entropy rounds.
const REPAIR_INTERVAL: u64 = 50;

/// Tuning knobs of a chaos run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Number of anti-entropy rounds to schedule.
    pub repair_rounds: u32,
    /// Replace digest exchange by full summary re-sends every round
    /// (the naive baseline the experiments compare against).
    pub naive_repair: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            repair_rounds: 20,
            naive_repair: false,
        }
    }
}

/// Every decision counter of a chaos run. Two runs with identical
/// inputs (same seed) produce identical stats — the determinism tests
/// compare whole structs for equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Broker messages offered to the lossy network.
    pub offered: u64,
    /// Broker message copies actually delivered.
    pub delivered: u64,
    /// Messages dropped by per-link loss.
    pub dropped: u64,
    /// Messages lost to link cuts / partitions.
    pub link_dropped: u64,
    /// Copies lost because the receiver was crashed.
    pub crash_dropped: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Broker crash events executed.
    pub crashes: u64,
    /// Broker restart events executed.
    pub restarts: u64,
    /// Digest mismatches that triggered a pull (anti-entropy resyncs).
    pub resyncs: u64,
    /// Digest advertisements sent: anti-entropy `Digest` frames and the
    /// `Hello`/`HelloAck` of a restart's handshake.
    pub digest_msgs: u64,
    /// Frame bytes of those digest advertisements.
    pub digest_bytes: u64,
    /// Full summary updates sent (initial wave, pull answers, naive
    /// rounds).
    pub full_updates: u64,
    /// Frame bytes of those updates: each wire-codec payload plus its
    /// message and frame headers.
    pub full_summary_bytes: u64,
    /// `SummaryDelta` frames sent: one per `Subscribe` and peer link.
    pub delta_updates: u64,
    /// Frame bytes of those deltas.
    pub delta_bytes: u64,
    /// Pull requests sent.
    pub pulls: u64,
    /// Frame bytes of those pull requests.
    pub pull_bytes: u64,
}

impl ChaosStats {
    /// Total frame bytes put on the peer links (full and delta updates
    /// + digests + pulls).
    pub fn total_bytes(&self) -> u64 {
        self.full_summary_bytes + self.delta_bytes + self.digest_bytes + self.pull_bytes
    }
}

/// The outcome of a drained chaos run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Whether every broker ended alive with its own summary equal to
    /// the fault-free oracle and every neighbor view digest-equal to
    /// that neighbor's own summary.
    pub converged: bool,
    /// First tick at which the system was observed converged (after all
    /// scheduled faults ended), if any.
    pub converged_at: Option<u64>,
    /// Tick at which the event queue drained.
    pub drained_at: u64,
    /// The run's decision counters.
    pub stats: ChaosStats,
    /// Flight-recorder contents captured at each crash event (broker,
    /// spans oldest-first): the "black box" of what the dying broker
    /// last saw. Empty when no tracer is attached or nothing crashed.
    pub crash_snapshots: Vec<(NodeId, Vec<SpanRecord>)>,
}

/// One simulated broker of a chaos run: its [`DaemonCore`] plus what
/// the simulation adds — whether it is up, and its stable storage.
#[derive(Debug)]
struct Node {
    daemon: DaemonCore,
    alive: bool,
    /// Restarts so far: the epoch of the next restart's `Hello`.
    restarts: u64,
    /// Durable checkpoint bytes, surviving crashes. `None` models a
    /// broker that never checkpointed and restarts empty.
    checkpoint: Option<Vec<u8>>,
}

impl Node {
    /// One frame's bytes arrive from neighbour `from`, or from this
    /// broker's own client: through the codecs into the daemon's step,
    /// unless the broker is down.
    fn receive(&mut self, from: Option<NodeId>, bytes: &[u8], sink: &mut NetSink<'_>) {
        if !self.alive {
            return;
        }
        let Some(msg) = decode(bytes) else {
            return;
        };
        let resyncs = self.daemon.counters().resyncs.get();
        self.daemon
            .step(from.map_or(CLIENT, ConnId::from), msg, sink);
        // Only a stale digest or an unappliable delta is answered by a pull.
        sink.stats.resyncs += self.daemon.counters().resyncs.get() - resyncs;
    }
}

/// What the simulated network carries: encoded frames, and the
/// simulation's own control events.
#[derive(Debug, Clone)]
enum ChaosMsg {
    /// One frame's bytes: from a neighbour and subject to the fault
    /// plan, or — as a control event — from the broker's own client.
    Frame(Vec<u8>),
    /// Control: the broker crashes, losing in-memory state.
    Crash,
    /// Control: the broker restarts from its checkpoint.
    Restart,
    /// Control: start one anti-entropy round at this broker.
    RepairTick,
}

/// A deterministic chaos scenario: a broker overlay exchanging summary
/// state over a faulty network, with checkpoint recovery and
/// anti-entropy repair. See the [module docs](self).
#[derive(Debug)]
pub struct ChaosRun {
    topology: Topology,
    plan: FaultPlan,
    config: ChaosConfig,
    brokers: Vec<Node>,
    /// What the simulated clients subscribe to during the next run:
    /// (tick, broker, subscription).
    client_sends: Vec<(u64, NodeId, Subscription)>,
    /// Optional causal tracer shared with the lossy network. `None`
    /// leaves every trace hook a no-op.
    tracer: Option<Arc<Tracer>>,
}

impl ChaosRun {
    /// Creates a run over `topology` with no subscriptions yet.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] if the schema exceeds the id layout.
    pub fn new(
        topology: Topology,
        schema: Schema,
        plan: FaultPlan,
        config: ChaosConfig,
    ) -> Result<Self, TypeError> {
        let layout = IdLayout::new(topology.len() as u64, 1 << 20, schema.len() as u32)?;
        let brokers = (0..topology.len() as NodeId)
            .map(|b| {
                let mut daemon = DaemonCore::new(BrokerCore::new(b, schema.clone(), layout, None));
                for &nb in topology.neighbors(b) {
                    daemon.connected(ConnId::from(nb), Role::Peer(BrokerId(nb)));
                }
                daemon.connected(CLIENT, Role::Client);
                Node {
                    daemon,
                    alive: true,
                    restarts: 0,
                    checkpoint: None,
                }
            })
            .collect();
        Ok(ChaosRun {
            topology,
            plan,
            config,
            brokers,
            client_sends: Vec::new(),
            tracer: None,
        })
    }

    /// Attaches a causal tracer. Every control message and summary
    /// exchange of the next [`ChaosRun::run`] gets a trace: scheduled
    /// origins (initial wave, repair ticks, restarts) start new roots,
    /// reactive messages (digest → pull → update) extend the chain of
    /// the message that caused them, and each crash event snapshots the
    /// dying broker's flight recorder into the report.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = Some(tracer);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// A fresh root context if a tracer is attached, [`TraceCtx::NONE`]
    /// otherwise.
    fn root(&self) -> TraceCtx {
        self.tracer
            .as_ref()
            .map(|t| t.new_root())
            .unwrap_or(TraceCtx::NONE)
    }

    /// Registers `sub` at broker `b` under its simulated client,
    /// returning its id; the next run's initial wave ships it. Ids ascend
    /// with subscribe order, so summaries are always built in the
    /// canonical ascending-id insertion order.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::IdOverflow`] once `b` exhausted its local
    /// id space.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn subscribe(
        &mut self,
        b: NodeId,
        sub: &Subscription,
    ) -> Result<SubscriptionId, TypeError> {
        self.brokers[b as usize].daemon.subscribe(CLIENT, sub)
    }

    /// Has broker `b`'s simulated client send a `Subscribe` frame at
    /// `tick` of the next run. A broker that is down then never sees it.
    pub fn subscribe_at(&mut self, tick: u64, b: NodeId, sub: &Subscription) {
        self.client_sends.push((tick, b, sub.clone()));
    }

    /// Cancels a subscription and re-summarises its owner's store, so
    /// the summary keeps the canonical form the oracle (and a restart)
    /// would build. Returns whether the subscription existed.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let core = self.brokers[id.broker.index()].daemon.broker_mut();
        let existed = core.unsubscribe(id);
        if existed {
            core.rebuild();
        }
        existed
    }

    /// The daemon of broker `b` (its neighbour views and connections).
    pub fn daemon(&self, b: NodeId) -> &DaemonCore {
        &self.brokers[b as usize].daemon
    }

    /// The state machine of broker `b` (its store and summary).
    pub fn broker(&self, b: NodeId) -> &BrokerCore {
        self.daemon(b).broker()
    }

    /// Writes broker `b`'s durable checkpoint (survives crashes).
    pub fn checkpoint(&mut self, b: NodeId) {
        let node = &mut self.brokers[b as usize];
        node.checkpoint = Some(node.daemon.broker().checkpoint().to_bytes());
    }

    /// Checkpoints every broker.
    pub fn checkpoint_all(&mut self) {
        for b in 0..self.brokers.len() as NodeId {
            self.checkpoint(b);
        }
    }

    /// The fault-free oracle: each broker's summary rebuilt from its
    /// durable subscription set in ascending-id order.
    pub fn oracle(&self) -> Vec<BrokerSummary> {
        self.brokers
            .iter()
            .map(|n| n.daemon.broker().rebuilt())
            .collect()
    }

    /// Whether the system is converged: every broker alive, every own
    /// summary digest-equal to the oracle, and both directions of every
    /// edge agreeing — no neighbour's digest advertisement would find a
    /// stale view.
    pub fn converged(&self) -> bool {
        if !self.brokers.iter().all(|n| n.alive) {
            return false;
        }
        let own: Vec<SummaryDigest> = (0..self.brokers.len() as NodeId)
            .map(|b| self.broker(b).own().digest())
            .collect();
        let oracle = self.oracle();
        self.brokers.iter().enumerate().all(|(b, node)| {
            own[b] == oracle[b].digest()
                && self
                    .topology
                    .neighbors(b as NodeId)
                    .iter()
                    .all(|&nb| !node.daemon.view_is_stale(nb, own[nb as usize]))
        })
    }

    /// Executes the scenario to quiescence: initial summary wave, the
    /// fault plan's crashes/cuts/drops, `repair_rounds` anti-entropy
    /// rounds, until the event queue drains.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] if a summary exceeds the wire layout
    /// (cannot happen for schema-consistent runs).
    pub fn run(&mut self) -> Result<ChaosReport, TypeError> {
        let mut net: LossyNet<ChaosMsg> = LossyNet::new(self.plan.clone());
        if let Some(tracer) = &self.tracer {
            net.set_tracer(Arc::clone(tracer));
        }
        let mut stats = ChaosStats::default();
        let mut crash_snapshots = Vec::new();
        let n = self.brokers.len() as NodeId;

        // What the simulated clients are sent (subscribe acks); no one
        // reads it during a run.
        let mut client_rx = Vec::new();

        // Schedule the plan's crash/restart control events and the
        // anti-entropy rounds up front; everything else is reactive.
        for crash in &self.plan.crashes {
            net.schedule(crash.broker, crash.at, ChaosMsg::Crash);
            if crash.restart_at != u64::MAX {
                net.schedule(crash.broker, crash.restart_at, ChaosMsg::Restart);
            }
        }
        for round in 1..=self.config.repair_rounds as u64 {
            for b in 0..n {
                net.schedule(b, round * REPAIR_INTERVAL, ChaosMsg::RepairTick);
            }
        }
        for (tick, b, sub) in self.client_sends.drain(..) {
            if let Ok(bytes) = (Msg::Subscribe { sub }).to_frame_bytes() {
                net.schedule(b, tick, ChaosMsg::Frame(bytes));
            }
        }

        // Initial propagation wave: everyone announces its summary. Each
        // broker's wave is one causal root, so its fan-out shows up as
        // sibling spans of a single trace.
        for b in 0..n {
            let mut sink = self.sink(&mut net, &mut stats, &mut client_rx, b, self.root());
            self.brokers[b as usize].daemon.push_summary(&mut sink)?;
        }

        let quiet_after = self.plan_quiet_after();
        let mut converged_at = None;
        while let Some((time, env)) = net.pop() {
            let me = env.to;
            // Scheduled origins (repair ticks, restarts) start new causal
            // roots; a reply extends the chain of the frame that
            // triggered it, whose parent already points at this
            // delivery's dequeue span.
            let ctx = match env.payload {
                ChaosMsg::Restart => self.root(),
                ChaosMsg::RepairTick if self.brokers[me as usize].alive => self.root(),
                _ => env.trace,
            };
            let mut sink = self.sink(&mut net, &mut stats, &mut client_rx, me, ctx);
            let node = &mut self.brokers[me as usize];
            match env.payload {
                ChaosMsg::Frame(bytes) => {
                    node.receive((!env.control).then_some(env.from), &bytes, &mut sink)
                }
                ChaosMsg::Crash => {
                    // Capture the black box before the state is wiped.
                    if let Some(snap) = self
                        .tracer
                        .as_ref()
                        .and_then(|t| t.recorder(me))
                        .map(|r| r.snapshot())
                    {
                        crash_snapshots.push((me, snap));
                    }
                    // Everything in memory is gone.
                    node.alive = false;
                    node.daemon.restore(None);
                    sink.stats.crashes += 1;
                }
                ChaosMsg::Restart => {
                    node.alive = true;
                    let durable = node.checkpoint.as_deref();
                    node.daemon.restore(
                        durable.and_then(|bytes| BrokerCheckpoint::from_bytes(bytes).ok()),
                    );
                    sink.stats.restarts += 1;
                    // Re-join as a redialling daemon does: one `Hello`
                    // per link, and the digests decide what is pulled.
                    node.restarts += 1;
                    let hello = node.daemon.hello(node.restarts);
                    for &nb in self.topology.neighbors(me) {
                        sink.send(ConnId::from(nb), &hello);
                    }
                }
                ChaosMsg::RepairTick if !node.alive => {}
                ChaosMsg::RepairTick if self.config.naive_repair => {
                    node.daemon.push_summary(&mut sink)?
                }
                ChaosMsg::RepairTick => node.daemon.advertise_digest(&mut sink),
            }
            if converged_at.is_none() && time >= quiet_after && self.converged() {
                converged_at = Some(time);
            }
        }
        let fault = net.stats();
        stats.offered = fault.offered;
        stats.delivered = fault.delivered;
        stats.dropped = fault.dropped;
        stats.link_dropped = fault.link_dropped;
        stats.crash_dropped = fault.crash_dropped;
        stats.duplicated = fault.duplicated;

        CNT_DROPS.add(stats.dropped + stats.link_dropped + stats.crash_dropped);
        CNT_DUPS.add(stats.duplicated);
        CNT_CRASHES.add(stats.crashes);
        CNT_RESYNCS.add(stats.resyncs);
        CNT_DIGEST_BYTES.add(stats.digest_bytes);
        CNT_FULL_BYTES.add(stats.full_summary_bytes);

        Ok(ChaosReport {
            converged: self.converged(),
            converged_at,
            drained_at: net.now(),
            stats,
            crash_snapshots,
        })
    }

    /// First tick after which no scheduled fault (crash window, cut,
    /// partition) is active anymore.
    fn plan_quiet_after(&self) -> u64 {
        let crash_end = self.plan.crashes.iter().map(|c| c.restart_at).max();
        let cut_end = self.plan.cuts.iter().map(|c| c.until).max();
        let part_end = self.plan.partitions.iter().map(|p| p.until).max();
        [crash_end, cut_end, part_end]
            .into_iter()
            .flatten()
            .max()
            .unwrap_or(0)
    }

    /// The sink of broker `me` for one step of a run.
    fn sink<'a>(
        &self,
        net: &'a mut LossyNet<ChaosMsg>,
        stats: &'a mut ChaosStats,
        client_rx: &'a mut Vec<Vec<u8>>,
        me: NodeId,
        ctx: TraceCtx,
    ) -> NetSink<'a> {
        NetSink {
            net,
            stats,
            client_rx,
            me,
            delay: LINK_DELAY,
            ctx,
        }
    }

    /// Publishes `event` through broker `b`'s simulated client and
    /// returns, ascending, the id of every `Deliver` frame any broker's
    /// client is sent: `Publish` → `Route` → `Deliver`, each through the
    /// codecs. Meant for a drained run. The links are loss-free here —
    /// an event forward has no retry, so a dropped `Route` is a lost
    /// delivery by design, not a summary-tier false negative; what is
    /// under test is the state the faults left behind.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn publish(&mut self, b: NodeId, event: &Event) -> Vec<SubscriptionId> {
        let publish = Msg::Publish {
            seq: 0,
            event: event.clone(),
        };
        let mut net: LossyNet<ChaosMsg> = LossyNet::new(FaultPlan::reliable(self.plan.seed));
        // Not repair traffic: charged to no report.
        let mut stats = ChaosStats::default();
        let mut client_rx = Vec::new();
        if let Ok(bytes) = publish.to_frame_bytes() {
            net.schedule(b, 0, ChaosMsg::Frame(bytes));
        }
        while let Some((_, env)) = net.pop() {
            let ChaosMsg::Frame(bytes) = env.payload else {
                continue;
            };
            let mut sink = self.sink(&mut net, &mut stats, &mut client_rx, env.to, TraceCtx::NONE);
            let from = (!env.control).then_some(env.from);
            self.brokers[env.to as usize].receive(from, &bytes, &mut sink);
        }
        let mut delivered: Vec<SubscriptionId> = client_rx
            .iter()
            .filter_map(|bytes| match decode(bytes)? {
                Msg::Deliver { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        delivered.sort();
        delivered
    }
}

/// One frame's bytes back into a message, through a fresh decoder.
fn decode(bytes: &[u8]) -> Option<Msg> {
    let mut decoder = FrameDecoder::new();
    decoder.feed(bytes);
    let frame = decoder.next_frame().ok()??;
    Msg::decode_frame(&frame).ok()
}

/// Where broker `me`'s [`DaemonCore`] outputs go during a run: encoded,
/// then onto the faulty link to the neighbour the connection stands for
/// (charging the frame's length to the counters of its kind), or into
/// the simulated client's inbox.
struct NetSink<'a> {
    net: &'a mut LossyNet<ChaosMsg>,
    stats: &'a mut ChaosStats,
    client_rx: &'a mut Vec<Vec<u8>>,
    me: NodeId,
    delay: u64,
    ctx: TraceCtx,
}

impl Sink for NetSink<'_> {
    fn send(&mut self, conn: ConnId, msg: &Msg) -> bool {
        let Ok(frame) = msg.to_frame_bytes() else {
            return false;
        };
        if conn == CLIENT {
            self.client_rx.push(frame);
            return true;
        }
        let Ok(to) = NodeId::try_from(conn) else {
            return false;
        };
        let len = frame.len() as u64;
        match msg {
            Msg::Summary { .. } => {
                self.stats.full_updates += 1;
                self.stats.full_summary_bytes += len;
            }
            Msg::SummaryDelta { .. } => {
                self.stats.delta_updates += 1;
                self.stats.delta_bytes += len;
            }
            Msg::Digest { .. } | Msg::Hello { .. } | Msg::HelloAck { .. } => {
                self.stats.digest_msgs += 1;
                self.stats.digest_bytes += len;
            }
            Msg::Pull { .. } => {
                self.stats.pulls += 1;
                self.stats.pull_bytes += len;
            }
            _ => {}
        }
        self.net
            .send_traced(self.me, to, self.delay, self.ctx, ChaosMsg::Frame(frame));
        true
    }

    /// The simulated connections have nothing to close: a refused client
    /// is simply no longer listened to.
    fn close(&mut self, _conn: ConnId) {}
}
