//! A concurrent broker deployment: one OS thread per broker, channel
//! message passing, and completion detection by channel disconnection.
//!
//! [`BrokerNetwork`] runs the same algorithms as the deterministic
//! [`SummaryPubSub`](crate::SummaryPubSub) engine, but with brokers as
//! independent threads:
//!
//! * **Propagation** (Algorithm 2) is coordinated in synchronous rounds —
//!   the coordinator collects each round's summary messages and delivers
//!   them, preserving the paper's iteration semantics;
//! * **Event routing** (Algorithm 3) is fully decentralized: the event
//!   (with its BROCLI) hops between broker threads over channels, match
//!   notifications travel to owner threads for tier-2 verification, and
//!   the publisher detects completion when every clone of the event's
//!   delivery channel has been dropped.
//!
//! # Example
//!
//! ```
//! use subsum_broker::runtime::BrokerNetwork;
//! use subsum_net::Topology;
//! use subsum_types::{stock_schema, Subscription, Event, NumOp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = BrokerNetwork::start(Topology::fig7_tree(), stock_schema(), 1000)?;
//! let schema = net.schema().clone();
//! let sub = Subscription::builder(&schema).num("price", NumOp::Lt, 9.0)?.build()?;
//! let id = net.subscribe(4, &sub)?;
//! net.propagate();
//! let event = Event::builder(&schema).num("price", 8.4)?.build();
//! let deliveries = net.publish(0, &event);
//! assert_eq!(deliveries[0].id, id);
//! net.shutdown();
//! # Ok(())
//! # }
//! ```

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};

use subsum_core::{ArithWidth, BrokerSummary, MatchScratch, SummaryCodec};
use subsum_net::{NodeId, Topology};
use subsum_telemetry::trace::{SpanKind, TraceCtx, Tracer};
use subsum_telemetry::Stage;
use subsum_types::{Event, IdLayout, LocalSubId, Schema, Subscription, SubscriptionId, TypeError};

use crate::system::Delivery;

static STAGE_HANDLE_MSG: Stage = Stage::new(subsum_telemetry::names::RUNTIME_HANDLE_MSG);

/// Traffic counters reported by a threaded propagation phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PropagationStats {
    /// Summary messages exchanged (the paper's propagation hop count).
    pub hops: u64,
    /// Total payload bytes of those messages.
    pub bytes: u64,
}

/// A summary message between brokers during propagation.
#[derive(Debug, Clone)]
struct SummaryMsg {
    from: NodeId,
    to: NodeId,
    bytes: usize,
    summary: BrokerSummary,
    merged_brokers: BTreeSet<NodeId>,
}

/// Per-event routing context carried with the event. Completion is
/// detected when every clone of `deliveries` has been dropped.
///
/// `trace` and `clock` are runtime-only observability metadata: the
/// trace context chains spans hop-to-hop and the logical clock counts
/// cumulative overlay distance, so span timestamps are deterministic
/// even though thread scheduling is not.
#[derive(Debug, Clone)]
struct EventCtx {
    event: Event,
    deliveries: Sender<Delivery>,
    trace: TraceCtx,
    clock: u64,
}

#[derive(Debug)]
enum Command {
    Subscribe {
        sub: Subscription,
        reply: Sender<Result<SubscriptionId, TypeError>>,
    },
    Unsubscribe {
        id: SubscriptionId,
        reply: Sender<bool>,
    },
    /// Rebuild own summary from the exact store; reset propagation state.
    ResetPropagation {
        reply: Sender<()>,
    },
    /// Run Algorithm 2's iteration `i`; reply with the (at most one)
    /// summary message to deliver this round.
    BeginIteration {
        iteration: usize,
        reply: Sender<Vec<SummaryMsg>>,
    },
    /// Coordinator-mediated delivery of a round's summary message.
    DeliverSummary {
        msg: SummaryMsg,
        reply: Sender<()>,
    },
    /// An event examining this broker (Algorithm 3 step).
    ExamineEvent {
        ctx: EventCtx,
        brocli: Vec<bool>,
    },
    /// Candidate matches reported to this (owner) broker for tier-2
    /// verification.
    Notify {
        ctx: EventCtx,
        ids: Vec<SubscriptionId>,
    },
    /// Installs (or clears) the shared flight-recorder tracer.
    SetTracer {
        tracer: Option<Arc<Tracer>>,
        reply: Sender<()>,
    },
    Shutdown,
}

struct BrokerState {
    id: NodeId,
    topology: Arc<Topology>,
    schema: Schema,
    codec: SummaryCodec,
    peers: Vec<Sender<Command>>,
    exact: HashMap<SubscriptionId, Subscription>,
    next_local: u32,
    own: BrokerSummary,
    stored: BrokerSummary,
    merged_brokers: BTreeSet<NodeId>,
    communicated: BTreeSet<NodeId>,
    /// Per-thread matcher scratch, reused across every event this broker
    /// thread examines. The compiled-plan kernel inside sizes its packed
    /// epoch-counter arrays to the stored summary's high-water population
    /// once (`match.scratch_grows` counts the resizes), after which
    /// steady-state matching is allocation-free.
    scratch: MatchScratch,
    tracer: Option<Arc<Tracer>>,
}

impl BrokerState {
    /// Records a span into the shared flight recorder; 0 when tracing is
    /// off or the trace is unsampled.
    fn span(&self, ctx: TraceCtx, kind: SpanKind, at: u64) -> u32 {
        match &self.tracer {
            Some(t) => t.record_ctx(ctx, self.id, kind, at),
            None => 0,
        }
    }
}

impl BrokerState {
    fn handle(&mut self, cmd: Command) -> bool {
        match cmd {
            Command::Subscribe { sub, reply } => {
                let local = self.next_local;
                self.next_local += 1;
                let id = self
                    .own
                    .insert(subsum_types::BrokerId(self.id), LocalSubId(local), &sub);
                self.stored.insert_with_id(id, &sub);
                self.exact.insert(id, sub);
                let _ = reply.send(Ok(id));
            }
            Command::Unsubscribe { id, reply } => {
                let existed = self.exact.remove(&id).is_some();
                if existed {
                    self.own.remove(id);
                    self.stored.remove(id);
                }
                let _ = reply.send(existed);
            }
            Command::ResetPropagation { reply } => {
                self.own = BrokerSummary::rebuild(
                    self.schema.clone(),
                    self.exact.iter().map(|(id, sub)| (*id, sub)),
                );
                self.stored = self.own.clone();
                self.merged_brokers = BTreeSet::from([self.id]);
                self.communicated.clear();
                let _ = reply.send(());
            }
            Command::BeginIteration { iteration, reply } => {
                let mut out = Vec::new();
                if self.topology.degree(self.id) == iteration {
                    let candidate = self
                        .topology
                        .neighbors(self.id)
                        .iter()
                        .copied()
                        .filter(|&nb| {
                            self.topology.degree(nb) >= iteration
                                && !self.communicated.contains(&nb)
                        })
                        .min_by_key(|&nb| (self.topology.degree(nb), nb));
                    if let Some(target) = candidate {
                        self.communicated.insert(target);
                        let bytes = self
                            .codec
                            .encoded_len(&self.stored)
                            .expect("ids fit the layout")
                            + 2 * self.merged_brokers.len();
                        out.push(SummaryMsg {
                            from: self.id,
                            to: target,
                            bytes,
                            summary: self.stored.clone(),
                            merged_brokers: self.merged_brokers.clone(),
                        });
                    }
                }
                let _ = reply.send(out);
            }
            Command::DeliverSummary { msg, reply } => {
                self.stored.merge(&msg.summary);
                self.merged_brokers
                    .extend(msg.merged_brokers.iter().copied());
                self.communicated.extend(msg.merged_brokers.iter().copied());
                let _ = reply.send(());
            }
            Command::ExamineEvent { ctx, mut brocli } => {
                self.examine_event(ctx, &mut brocli);
            }
            Command::Notify { ctx, ids } => {
                let vspan = self.span(ctx.trace, SpanKind::OwnerVerify, ctx.clock);
                let child = TraceCtx {
                    trace: ctx.trace.trace,
                    parent: vspan,
                };
                for id in ids {
                    if let Some(sub) = self.exact.get(&id) {
                        if sub.matches(&ctx.event) {
                            self.span(child, SpanKind::Deliver, ctx.clock);
                            let _ = ctx.deliveries.send(Delivery { id, owner: self.id });
                        } else {
                            self.span(child, SpanKind::Drop, ctx.clock);
                        }
                    }
                }
                // ctx drops here, releasing one latch reference.
            }
            Command::SetTracer { tracer, reply } => {
                self.tracer = tracer;
                let _ = reply.send(());
            }
            Command::Shutdown => return false,
        }
        true
    }

    fn examine_event(&mut self, mut ctx: EventCtx, brocli: &mut [bool]) {
        let route_span = self.span(ctx.trace, SpanKind::Route, ctx.clock);
        let match_span = self.span(
            TraceCtx {
                trace: ctx.trace.trace,
                parent: route_span,
            },
            SpanKind::Match,
            ctx.clock,
        );
        // 1. Match against the local merged summary (through this
        //    thread's reusable scratch); report candidates to owners
        //    whose subscriptions were not yet examined.
        let matched = &self
            .stored
            .match_event_into(&ctx.event, &mut self.scratch)
            .matched;
        let mut per_owner: HashMap<NodeId, Vec<SubscriptionId>> = HashMap::new();
        for &id in matched {
            let owner = id.broker.0 as NodeId;
            if !brocli[owner as usize] {
                per_owner.entry(owner).or_default().push(id);
            }
        }
        let dist = self.topology.distances(self.id);
        for (owner, ids) in per_owner {
            if owner == self.id {
                // Local verification without a hop.
                let vspan = self.span(
                    TraceCtx {
                        trace: ctx.trace.trace,
                        parent: match_span,
                    },
                    SpanKind::OwnerVerify,
                    ctx.clock,
                );
                let child = TraceCtx {
                    trace: ctx.trace.trace,
                    parent: vspan,
                };
                for id in ids {
                    if let Some(sub) = self.exact.get(&id) {
                        if sub.matches(&ctx.event) {
                            self.span(child, SpanKind::Deliver, ctx.clock);
                            let _ = ctx.deliveries.send(Delivery { id, owner: self.id });
                        } else {
                            self.span(child, SpanKind::Drop, ctx.clock);
                        }
                    }
                }
            } else {
                let mut notify_ctx = ctx.clone();
                notify_ctx.trace.parent = match_span;
                notify_ctx.clock = ctx.clock + u64::from(dist[owner as usize]);
                let _ = self.peers[owner as usize].send(Command::Notify {
                    ctx: notify_ctx,
                    ids,
                });
            }
        }

        // 2. Update BROCLI with the whole Merged_Brokers set.
        brocli[self.id as usize] = true;
        for &b in &self.merged_brokers {
            brocli[b as usize] = true;
        }

        // 3–4. Forward while BROCLI is incomplete.
        if brocli.iter().all(|&c| c) {
            return; // ctx drops; the publisher's collector unblocks.
        }
        let next = (0..self.topology.len() as NodeId)
            .filter(|&v| !brocli[v as usize])
            .min_by_key(|&v| {
                (
                    std::cmp::Reverse(self.topology.degree(v)),
                    dist[v as usize],
                    v,
                )
            })
            .expect("some broker outside BROCLI");
        ctx.trace.parent = route_span;
        ctx.clock += u64::from(dist[next as usize].max(1));
        let _ = self.peers[next as usize].send(Command::ExamineEvent {
            ctx,
            brocli: brocli.to_vec(),
        });
    }
}

/// A running network of broker threads.
#[derive(Debug)]
pub struct BrokerNetwork {
    topology: Arc<Topology>,
    schema: Schema,
    cmds: Vec<Sender<Command>>,
    handles: Vec<JoinHandle<()>>,
    tracer: Option<Arc<Tracer>>,
}

impl BrokerNetwork {
    /// Spawns one thread per broker of `topology`.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::TooManyAttributes`] if the schema exceeds the
    /// id mask width.
    pub fn start(
        topology: Topology,
        schema: Schema,
        max_subs_per_broker: u64,
    ) -> Result<Self, TypeError> {
        let layout = IdLayout::new(
            topology.len() as u64,
            max_subs_per_broker,
            schema.len() as u32,
        )?;
        let codec = SummaryCodec::new(layout, ArithWidth::Four);
        let topology = Arc::new(topology);
        let n = topology.len();
        let channels: Vec<(Sender<Command>, Receiver<Command>)> =
            (0..n).map(|_| unbounded()).collect();
        let cmds: Vec<Sender<Command>> = channels.iter().map(|(tx, _)| tx.clone()).collect();
        let mut handles = Vec::with_capacity(n);
        for (b, (_, rx)) in channels.into_iter().enumerate() {
            let mut state = BrokerState {
                id: b as NodeId,
                topology: Arc::clone(&topology),
                schema: schema.clone(),
                codec,
                peers: cmds.clone(),
                exact: HashMap::new(),
                next_local: 0,
                own: BrokerSummary::new(schema.clone()),
                stored: BrokerSummary::new(schema.clone()),
                merged_brokers: BTreeSet::from([b as NodeId]),
                communicated: BTreeSet::new(),
                scratch: MatchScratch::new(),
                tracer: None,
            };
            let depth_gauge = subsum_telemetry::gauge(&format!(
                "{}{b}",
                subsum_telemetry::names::RUNTIME_MAILBOX_PREFIX
            ));
            handles.push(std::thread::spawn(move || {
                while let Ok(cmd) = rx.recv() {
                    if subsum_telemetry::enabled() {
                        // Commands still queued behind the one just taken.
                        depth_gauge.set(rx.len() as i64);
                    }
                    let span = STAGE_HANDLE_MSG.start();
                    let keep_going = state.handle(cmd);
                    span.finish();
                    if !keep_going {
                        break;
                    }
                }
            }));
        }
        Ok(BrokerNetwork {
            topology,
            schema,
            cmds,
            handles,
            tracer: None,
        })
    }

    /// Installs a shared causal tracer: every broker thread records its
    /// routing, matching and verification spans into `tracer`'s
    /// per-broker flight recorders, and [`BrokerNetwork::publish`] opens
    /// a fresh root trace per event. Blocks until every thread has
    /// acknowledged the install.
    ///
    /// # Panics
    ///
    /// Panics if a broker thread has shut down.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        let (ack_tx, ack_rx) = unbounded();
        for tx in &self.cmds {
            let sent = tx
                .send(Command::SetTracer {
                    tracer: Some(Arc::clone(&tracer)),
                    reply: ack_tx.clone(),
                })
                .is_ok();
            assert!(sent, "broker thread alive");
        }
        for _ in &self.cmds {
            assert!(ack_rx.recv().is_ok(), "tracer install ack");
        }
        self.tracer = Some(tracer);
    }

    /// The installed tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// The shared schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The broker overlay.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Registers a subscription at `broker` (blocking round-trip).
    ///
    /// # Errors
    ///
    /// Propagates id-layout overflows from the broker thread.
    ///
    /// # Panics
    ///
    /// Panics if the broker thread has shut down.
    pub fn subscribe(
        &self,
        broker: NodeId,
        sub: &Subscription,
    ) -> Result<SubscriptionId, TypeError> {
        let (reply, rx) = unbounded();
        self.cmds[broker as usize]
            .send(Command::Subscribe {
                sub: sub.clone(),
                reply,
            })
            .expect("broker thread alive");
        rx.recv().expect("broker thread replies")
    }

    /// Cancels a subscription at its owner broker.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        let (reply, rx) = unbounded();
        self.cmds[id.broker.index()]
            .send(Command::Unsubscribe { id, reply })
            .expect("broker thread alive");
        rx.recv().expect("broker thread replies")
    }

    /// Runs a full propagation phase (Algorithm 2) in coordinated
    /// synchronous rounds.
    pub fn propagate(&self) -> PropagationStats {
        // Reset round.
        let (ack_tx, ack_rx) = unbounded();
        for tx in &self.cmds {
            tx.send(Command::ResetPropagation {
                reply: ack_tx.clone(),
            })
            .expect("broker thread alive");
        }
        for _ in &self.cmds {
            ack_rx.recv().expect("reset ack");
        }

        let mut stats = PropagationStats::default();
        for iteration in 1..=self.topology.max_degree() {
            let (round_tx, round_rx) = unbounded();
            for tx in &self.cmds {
                tx.send(Command::BeginIteration {
                    iteration,
                    reply: round_tx.clone(),
                })
                .expect("broker thread alive");
            }
            let mut msgs = Vec::new();
            for _ in &self.cmds {
                msgs.extend(round_rx.recv().expect("iteration reply"));
            }
            // Deterministic delivery order.
            msgs.sort_by_key(|m| (m.from, m.to));
            let (dack_tx, dack_rx) = unbounded();
            let count = msgs.len();
            for msg in msgs {
                stats.hops += 1;
                stats.bytes += msg.bytes as u64;
                let to = msg.to as usize;
                self.cmds[to]
                    .send(Command::DeliverSummary {
                        msg,
                        reply: dack_tx.clone(),
                    })
                    .expect("broker thread alive");
            }
            for _ in 0..count {
                dack_rx.recv().expect("delivery ack");
            }
        }
        stats
    }

    /// Publishes an event at `broker` and blocks until the routing
    /// cascade completes, returning the verified deliveries (sorted).
    pub fn publish(&self, broker: NodeId, event: &Event) -> Vec<Delivery> {
        let (tx, rx) = unbounded();
        let trace = match &self.tracer {
            Some(t) => t.new_root(),
            None => TraceCtx::NONE,
        };
        let ctx = EventCtx {
            event: event.clone(),
            deliveries: tx,
            trace,
            clock: 0,
        };
        let sent = self.cmds[broker as usize]
            .send(Command::ExamineEvent {
                ctx,
                brocli: vec![false; self.topology.len()],
            })
            .is_ok();
        assert!(sent, "broker thread alive");
        // Brokers drop their ctx clones as they finish; once all are
        // gone the iterator below sees the channel disconnect.
        let mut deliveries: Vec<Delivery> = rx.iter().collect();
        deliveries.sort_by_key(|d| d.id);
        deliveries.dedup();
        deliveries
    }

    /// Stops all broker threads and joins them.
    pub fn shutdown(self) {
        for tx in &self.cmds {
            let _ = tx.send(Command::Shutdown);
        }
        for h in self.handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsum_types::{stock_schema, NumOp, StrOp};

    #[test]
    fn end_to_end_delivery() {
        let net = BrokerNetwork::start(Topology::fig7_tree(), stock_schema(), 1000).unwrap();
        let schema = net.schema().clone();
        let sub = Subscription::builder(&schema)
            .num("price", NumOp::Gt, 8.30)
            .unwrap()
            .num("price", NumOp::Lt, 8.70)
            .unwrap()
            .build()
            .unwrap();
        let id = net.subscribe(3, &sub).unwrap();
        let stats = net.propagate();
        assert_eq!(stats.hops, 10); // identical to the deterministic engine
        let event = Event::builder(&schema).num("price", 8.40).unwrap().build();
        let deliveries = net.publish(0, &event);
        assert_eq!(deliveries, vec![Delivery { id, owner: 3 }]);
        net.shutdown();
    }

    #[test]
    fn threaded_matches_deterministic_engine() {
        use crate::SummaryPubSub;
        let topo = Topology::cable_wireless_24();
        let schema = stock_schema();
        let net = BrokerNetwork::start(topo.clone(), schema.clone(), 1000).unwrap();
        let mut det = SummaryPubSub::new(topo, schema.clone(), 1000).unwrap();

        for b in 0..24u16 {
            let sub = Subscription::builder(&schema)
                .num("price", NumOp::Lt, (b % 5) as f64)
                .unwrap()
                .build()
                .unwrap();
            net.subscribe(b, &sub).unwrap();
            det.subscribe(b, &sub).unwrap();
        }
        let stats = net.propagate();
        let det_hops;
        let det_bytes;
        {
            let det_out = det.propagate().unwrap();
            det_hops = det_out.hops();
            det_bytes = det_out.metrics.payload_bytes;
        }
        assert_eq!(stats.hops, det_hops);
        assert_eq!(stats.bytes, det_bytes);

        let event = Event::builder(&schema).num("price", 1.5).unwrap().build();
        for publisher in [0u16, 7, 23] {
            let threaded = net.publish(publisher, &event);
            let deterministic = det.publish(publisher, &event);
            let mut a: Vec<_> = threaded.iter().map(|d| d.id).collect();
            let mut b: Vec<_> = deterministic.deliveries.iter().map(|d| d.id).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "publisher {publisher}");
        }
        net.shutdown();
    }

    #[test]
    fn unsubscribe_respected_without_repropagation() {
        let net = BrokerNetwork::start(Topology::line(3), stock_schema(), 100).unwrap();
        let schema = net.schema().clone();
        let sub = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Eq, "OTE")
            .unwrap()
            .build()
            .unwrap();
        let id = net.subscribe(2, &sub).unwrap();
        net.propagate();
        let event = Event::builder(&schema)
            .str("symbol", "OTE")
            .unwrap()
            .build();
        assert_eq!(net.publish(0, &event).len(), 1);
        assert!(net.unsubscribe(id));
        // Tier-2 verification rejects the stale candidate.
        assert!(net.publish(0, &event).is_empty());
        net.shutdown();
    }

    #[test]
    fn concurrent_publishes() {
        let net = std::sync::Arc::new(
            BrokerNetwork::start(Topology::ring(6), stock_schema(), 100).unwrap(),
        );
        let schema = net.schema().clone();
        for b in 0..6u16 {
            let sub = Subscription::builder(&schema)
                .num("volume", NumOp::Ge, (b as f64) * 100.0)
                .unwrap()
                .build()
                .unwrap();
            net.subscribe(b, &sub).unwrap();
        }
        net.propagate();
        let mut joins = Vec::new();
        for t in 0..4i64 {
            let net = std::sync::Arc::clone(&net);
            let schema = schema.clone();
            joins.push(std::thread::spawn(move || {
                let event = Event::builder(&schema)
                    .int("volume", 250 + t)
                    .unwrap()
                    .build();
                net.publish((t % 6) as NodeId, &event).len()
            }));
        }
        for j in joins {
            // volume in [250, 254): thresholds 0, 100, 200 match → 3.
            assert_eq!(j.join().unwrap(), 3);
        }
        match std::sync::Arc::try_unwrap(net) {
            Ok(net) => net.shutdown(),
            Err(_) => panic!("all clones joined"),
        }
    }

    #[test]
    fn tracer_records_spans_without_changing_deliveries() {
        use subsum_telemetry::trace::SpanKind;
        let schema = stock_schema();
        let topo = Topology::fig7_tree();
        let sub = Subscription::builder(&schema)
            .num("price", NumOp::Lt, 9.0)
            .unwrap()
            .build()
            .unwrap();

        let plain = BrokerNetwork::start(topo.clone(), schema.clone(), 100).unwrap();
        let mut traced = BrokerNetwork::start(topo.clone(), schema.clone(), 100).unwrap();
        traced.set_tracer(Arc::new(Tracer::new(topo.len(), 256, 0xFEED, 1)));
        let id_p = plain.subscribe(4, &sub).unwrap();
        let id_t = traced.subscribe(4, &sub).unwrap();
        plain.propagate();
        traced.propagate();

        let event = Event::builder(&schema).num("price", 8.4).unwrap().build();
        let a = plain.publish(0, &event);
        let b = traced.publish(0, &event);
        assert_eq!(a, vec![Delivery { id: id_p, owner: 4 }]);
        assert_eq!(b, vec![Delivery { id: id_t, owner: 4 }]);

        let spans = traced.tracer().unwrap().spans();
        assert!(!spans.is_empty(), "tracer captured the cascade");
        let count = |k: SpanKind| spans.iter().filter(|s| s.kind == k).count();
        // One delivery verified at one owner; each examined broker
        // records exactly one Route + Match pair.
        assert_eq!(count(SpanKind::Deliver), 1);
        assert_eq!(count(SpanKind::OwnerVerify), 1);
        assert!(count(SpanKind::Route) >= 1);
        assert_eq!(count(SpanKind::Match), count(SpanKind::Route));
        plain.shutdown();
        traced.shutdown();
    }

    #[test]
    fn publish_with_no_subscribers_terminates() {
        let net = BrokerNetwork::start(Topology::star(5), stock_schema(), 100).unwrap();
        let schema = net.schema().clone();
        net.propagate();
        let event = Event::builder(&schema).num("price", 1.0).unwrap().build();
        assert!(net.publish(3, &event).is_empty());
        net.shutdown();
    }

    #[test]
    fn repropagation_after_churn() {
        let net = BrokerNetwork::start(Topology::grid(3, 3), stock_schema(), 100).unwrap();
        let schema = net.schema().clone();
        let sub = Subscription::builder(&schema)
            .num("price", NumOp::Lt, 5.0)
            .unwrap()
            .build()
            .unwrap();
        let id1 = net.subscribe(0, &sub).unwrap();
        net.propagate();
        let event = Event::builder(&schema).num("price", 1.0).unwrap().build();
        assert_eq!(net.publish(8, &event).len(), 1);

        // Second generation: one leaves, one joins; re-propagate.
        assert!(net.unsubscribe(id1));
        let id2 = net.subscribe(4, &sub).unwrap();
        net.propagate();
        let deliveries = net.publish(8, &event);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].id, id2);
        net.shutdown();
    }

    #[test]
    fn subscription_visible_before_propagation_only_locally() {
        // Until a propagation period runs, remote brokers have no state
        // for a new subscription; publishing at the owner itself still
        // examines its own (stored = own) summary.
        let net = BrokerNetwork::start(Topology::line(3), stock_schema(), 100).unwrap();
        let schema = net.schema().clone();
        net.propagate(); // empty period, installs empty merged summaries
        let sub = Subscription::builder(&schema)
            .num("price", NumOp::Gt, 0.0)
            .unwrap()
            .build()
            .unwrap();
        let id = net.subscribe(2, &sub).unwrap();
        let event = Event::builder(&schema).num("price", 1.0).unwrap().build();
        // Publishing at the owner sees the local subscription at once.
        let local = net.publish(2, &event);
        assert_eq!(local.first().map(|d| d.id), Some(id));
        net.propagate();
        // After propagation every publisher reaches it.
        assert_eq!(net.publish(0, &event).len(), 1);
        net.shutdown();
    }

    #[test]
    fn propagation_stats_are_stable_across_periods() {
        // Algorithm 2's schedule is topology-driven: repeated periods
        // with unchanged content produce identical hop counts.
        let net = BrokerNetwork::start(Topology::cable_wireless_24(), stock_schema(), 100).unwrap();
        let a = net.propagate();
        let b = net.propagate();
        assert_eq!(a.hops, b.hops);
        net.shutdown();
    }

    #[test]
    fn many_concurrent_publishers_stress() {
        let net = std::sync::Arc::new(
            BrokerNetwork::start(Topology::cable_wireless_24(), stock_schema(), 1000).unwrap(),
        );
        let schema = net.schema().clone();
        for b in 0..24u16 {
            let sub = Subscription::builder(&schema)
                .num("volume", NumOp::Ge, (b as f64) * 10.0)
                .unwrap()
                .build()
                .unwrap();
            net.subscribe(b, &sub).unwrap();
        }
        net.propagate();
        let mut joins = Vec::new();
        for t in 0..16i64 {
            let net = std::sync::Arc::clone(&net);
            let schema = schema.clone();
            joins.push(std::thread::spawn(move || {
                let mut total = 0usize;
                for k in 0..25 {
                    let event = Event::builder(&schema)
                        .int("volume", (t * 25 + k) % 240)
                        .unwrap()
                        .build();
                    total += net.publish(((t + k) % 24) as NodeId, &event).len();
                }
                total
            }));
        }
        let grand: usize = joins.into_iter().map(|j| j.join().unwrap()).sum();
        assert!(grand > 0);
        match std::sync::Arc::try_unwrap(net) {
            Ok(net) => net.shutdown(),
            Err(_) => panic!("all clones joined"),
        }
    }
}
