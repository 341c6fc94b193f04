//! Deterministic fault injection for the simulated broker overlay.
//!
//! The propagation protocol of the paper assumes reliable links and
//! always-up brokers; a production deployment has neither. This module
//! models the failure dimension as a *seeded, replayable plan*:
//!
//! * per-link message **drop / duplicate / delay** probabilities
//!   ([`LinkProfile`]), with per-link overrides;
//! * scheduled **link cuts** ([`LinkCut`]) and **partitions**
//!   ([`PartitionWindow`]) that sever groups of links for a time window;
//! * **broker crash/restart** windows ([`CrashEvent`]) during which a
//!   broker is down and every message addressed to it is lost.
//!
//! Determinism is the load-bearing property: every per-message decision
//! is a *pure function* of `(seed, link, message sequence number)`,
//! derived through a splitmix64 finalizer ([`mix64`]), so a run replays
//! exactly regardless of how the caller interleaves sends — there is no
//! shared PRNG stream to perturb.
//!
//! [`LossyNet`] layers a [`FaultPlan`] onto the deterministic
//! [`EventQueue`](crate::EventQueue): `send` applies the plan (drop,
//! duplicate, extra delay, link/partition state), `pop` suppresses
//! deliveries to crashed brokers, and [`FaultStats`] counts every
//! decision so two runs with one seed are byte-for-byte comparable.

use std::collections::BTreeMap;
use std::sync::Arc;

use subsum_telemetry::trace::{SpanKind, TraceCtx, Tracer};

use crate::sim::EventQueue;
use crate::topology::NodeId;

/// The 64-bit splitmix finalizer: a cheap, high-quality bijective mixer.
///
/// Used to derive independent per-message random streams from
/// `(seed, link, seq)` without any shared mutable PRNG state.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A splitmix64 PRNG: the stream `mix64(seed + k·φ)` for `k = 1, 2, …`.
///
/// # Example
///
/// ```
/// use subsum_net::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let p = a.next_f64();
/// assert!((0.0..1.0).contains(&p));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.state;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// A uniform draw from `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from `[0, bound)`; returns 0 when `bound` is 0.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            // Modulo bias is irrelevant at fault-plan scales.
            self.next_u64() % bound
        }
    }
}

/// Per-link fault probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Probability a message on the link is silently dropped.
    pub drop: f64,
    /// Probability a delivered message is duplicated (one extra copy).
    pub duplicate: f64,
    /// Maximum extra delivery delay in ticks, drawn uniformly from
    /// `[0, max_extra_delay]`.
    pub max_extra_delay: u64,
}

impl LinkProfile {
    /// A fault-free link.
    pub fn reliable() -> Self {
        LinkProfile {
            drop: 0.0,
            duplicate: 0.0,
            max_extra_delay: 0,
        }
    }
}

impl Default for LinkProfile {
    fn default() -> Self {
        LinkProfile::reliable()
    }
}

/// A scheduled cut of one link: messages sent on `(a, b)` (either
/// direction) during `[from, until)` are lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkCut {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// First tick of the cut window.
    pub from: u64,
    /// First tick after the cut heals.
    pub until: u64,
}

/// A scheduled partition: during `[from, until)` every link between a
/// broker inside `island` and one outside it is severed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// The brokers on one side of the partition.
    pub island: Vec<NodeId>,
    /// First tick of the partition window.
    pub from: u64,
    /// First tick after the partition heals.
    pub until: u64,
}

impl PartitionWindow {
    fn severs(&self, time: u64, a: NodeId, b: NodeId) -> bool {
        time >= self.from
            && time < self.until
            && self.island.contains(&a) != self.island.contains(&b)
    }
}

/// A scheduled broker crash: the broker is down during
/// `[at, restart_at)`, loses its in-memory state, and every message
/// delivered to it in that window is lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The crashing broker.
    pub broker: NodeId,
    /// Crash tick.
    pub at: u64,
    /// Restart tick (`u64::MAX` for a permanent failure).
    pub restart_at: u64,
}

/// The fate of one offered message under a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryDecision {
    /// Extra delay of each delivered copy; empty means the message was
    /// dropped. One entry is a normal delivery, two a duplication.
    pub copies: Vec<u64>,
}

/// A seeded, fully deterministic fault schedule for one simulation run.
///
/// # Example
///
/// ```
/// use subsum_net::{FaultPlan, LinkProfile};
/// let mut plan = FaultPlan::reliable(7);
/// plan.default_link = LinkProfile { drop: 0.5, duplicate: 0.0, max_extra_delay: 0 };
/// // Decisions are pure functions of (seed, link, seq): replay is exact.
/// assert_eq!(plan.decide(0, 1, 0), plan.decide(0, 1, 0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of every probabilistic decision.
    pub seed: u64,
    /// Fault profile of links without an override.
    pub default_link: LinkProfile,
    /// Per-link overrides, keyed by the canonical (smaller, larger)
    /// endpoint pair.
    pub link_overrides: BTreeMap<(NodeId, NodeId), LinkProfile>,
    /// Scheduled single-link cuts.
    pub cuts: Vec<LinkCut>,
    /// Scheduled partitions.
    pub partitions: Vec<PartitionWindow>,
    /// Scheduled broker crashes.
    pub crashes: Vec<CrashEvent>,
}

impl FaultPlan {
    /// A plan with no faults at all (useful as the oracle baseline).
    pub fn reliable(seed: u64) -> Self {
        FaultPlan {
            seed,
            default_link: LinkProfile::reliable(),
            link_overrides: BTreeMap::new(),
            cuts: Vec::new(),
            partitions: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// The fault profile in force on link `(a, b)`.
    pub fn profile(&self, a: NodeId, b: NodeId) -> LinkProfile {
        let key = (a.min(b), a.max(b));
        self.link_overrides
            .get(&key)
            .copied()
            .unwrap_or(self.default_link)
    }

    /// Whether the link `(a, b)` is up at `time` (no cut, no partition).
    pub fn link_up(&self, time: u64, a: NodeId, b: NodeId) -> bool {
        let key = (a.min(b), a.max(b));
        let cut = self
            .cuts
            .iter()
            .any(|c| (c.a.min(c.b), c.a.max(c.b)) == key && time >= c.from && time < c.until);
        !cut && !self.partitions.iter().any(|p| p.severs(time, a, b))
    }

    /// Whether `broker` is crashed (down) at `time`.
    pub fn crashed(&self, time: u64, broker: NodeId) -> bool {
        self.crashes
            .iter()
            .any(|c| c.broker == broker && time >= c.at && time < c.restart_at)
    }

    /// The fate of the `seq`-th message offered on the directed link
    /// `from → to`: a pure function of `(seed, from, to, seq)`, so every
    /// run with the same plan replays the same decisions in any
    /// interleaving.
    pub fn decide(&self, from: NodeId, to: NodeId, seq: u64) -> DeliveryDecision {
        let profile = self.profile(from, to);
        let link_key = ((from as u64) << 16) | to as u64;
        let mut rng = SplitMix64::new(self.seed ^ mix64(link_key ^ mix64(seq)));
        if rng.next_f64() < profile.drop {
            return DeliveryDecision { copies: Vec::new() };
        }
        let mut copies = Vec::with_capacity(2);
        copies.push(rng.next_below(profile.max_extra_delay.saturating_add(1)));
        if rng.next_f64() < profile.duplicate {
            copies.push(rng.next_below(profile.max_extra_delay.saturating_add(1)));
        }
        DeliveryDecision { copies }
    }
}

/// Counters of every fault decision taken during a run. Two runs with
/// the same plan and send schedule produce identical stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Messages offered to [`LossyNet::send`].
    pub offered: u64,
    /// Copies actually delivered by [`LossyNet::pop`].
    pub delivered: u64,
    /// Messages dropped by the per-link loss probability.
    pub dropped: u64,
    /// Messages lost to a link cut or partition window.
    pub link_dropped: u64,
    /// Copies lost because the receiver was crashed at delivery time.
    pub crash_dropped: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
}

impl FaultStats {
    /// Sums counters from another run segment (e.g. per-broker or
    /// per-period stats folded into a run total). Field-wise addition,
    /// so merging is associative and commutative.
    pub fn merge(&mut self, other: &FaultStats) {
        self.offered += other.offered;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.link_dropped += other.link_dropped;
        self.crash_dropped += other.crash_dropped;
        self.duplicated += other.duplicated;
    }
}

/// One in-flight message of a [`LossyNet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending broker.
    pub from: NodeId,
    /// Receiving broker.
    pub to: NodeId,
    /// Whether this is a control event exempt from the fault plan
    /// (scheduled by the simulation driver, not broker traffic).
    pub control: bool,
    /// Causal trace context carried alongside the payload. Runtime
    /// metadata only: it never enters the wire codec, so encoded bytes
    /// are identical with tracing on or off.
    pub trace: TraceCtx,
    /// The message.
    pub payload: M,
}

/// A lossy, deterministic message network: an [`EventQueue`] whose
/// deliveries pass through a [`FaultPlan`].
///
/// # Example
///
/// ```
/// use subsum_net::{FaultPlan, LossyNet};
/// let mut net: LossyNet<&str> = LossyNet::new(FaultPlan::reliable(1));
/// net.send(0, 1, 5, "hello");
/// let (t, env) = net.pop().unwrap();
/// assert_eq!((t, env.from, env.to, env.payload), (5, 0, 1, "hello"));
/// ```
#[derive(Debug)]
pub struct LossyNet<M> {
    queue: EventQueue<Envelope<M>>,
    plan: FaultPlan,
    /// Per-directed-link sequence counters feeding [`FaultPlan::decide`].
    seq: BTreeMap<(NodeId, NodeId), u64>,
    stats: FaultStats,
    /// Optional causal tracer; `None` means every trace hook is a no-op
    /// and sends behave exactly as before tracing existed.
    tracer: Option<Arc<Tracer>>,
}

impl<M: Clone> LossyNet<M> {
    /// Creates an empty network governed by `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        LossyNet {
            queue: EventQueue::new(),
            plan,
            seq: BTreeMap::new(),
            stats: FaultStats::default(),
            tracer: None,
        }
    }

    /// Attaches a causal tracer: subsequent sends and pops record
    /// enqueue/dequeue/drop/dup spans into its per-broker flight
    /// recorders. Fault decisions are unaffected.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = Some(tracer);
    }

    /// The fault counters so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.queue.now()
    }

    /// Number of in-flight envelopes (including control events).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Offers a broker message on link `from → to` with base transit
    /// `delay`; the plan decides drop, duplication and extra delay.
    pub fn send(&mut self, from: NodeId, to: NodeId, delay: u64, payload: M) {
        self.send_traced(from, to, delay, TraceCtx::NONE, payload);
    }

    /// [`LossyNet::send`] carrying a causal trace context: fault
    /// decisions are byte-identical to the untraced path, but if a
    /// tracer is attached the fate of the message is recorded — a drop
    /// span on link/fault loss, an enqueue span for the delivered copy,
    /// a dup span per extra copy — and each in-flight envelope's parent
    /// is re-pointed at its own enqueue span so receivers chain
    /// causally.
    pub fn send_traced(&mut self, from: NodeId, to: NodeId, delay: u64, ctx: TraceCtx, payload: M) {
        self.stats.offered += 1;
        if !self.plan.link_up(self.now(), from, to) {
            self.stats.link_dropped += 1;
            self.record(ctx, from, SpanKind::Drop);
            return;
        }
        let seq = self.seq.entry((from, to)).or_insert(0);
        let decision = self.plan.decide(from, to, *seq);
        *seq += 1;
        if decision.copies.is_empty() {
            self.stats.dropped += 1;
            self.record(ctx, from, SpanKind::Drop);
            return;
        }
        self.stats.duplicated += decision.copies.len() as u64 - 1;
        for (i, extra) in decision.copies.into_iter().enumerate() {
            let kind = if i == 0 {
                SpanKind::Enqueue
            } else {
                SpanKind::Dup
            };
            let span = self.record(ctx, from, kind);
            self.queue.push_after(
                delay.saturating_add(extra),
                Envelope {
                    from,
                    to,
                    control: false,
                    trace: TraceCtx {
                        trace: ctx.trace,
                        parent: span,
                    },
                    payload: payload.clone(),
                },
            );
        }
    }

    /// Schedules a control event at `broker` after `delay` ticks,
    /// exempt from the fault plan (crash/restart/timer events must fire
    /// even on a dead broker or severed link).
    pub fn schedule(&mut self, broker: NodeId, delay: u64, payload: M) {
        self.queue.push_after(
            delay,
            Envelope {
                from: broker,
                to: broker,
                control: true,
                trace: TraceCtx::NONE,
                payload,
            },
        );
    }

    /// Pops the next deliverable envelope, advancing the clock. Broker
    /// messages addressed to a crashed receiver are consumed and counted
    /// as `crash_dropped`, never returned. With a tracer attached, a
    /// crash loss records a crash-drop span at the dead receiver and a
    /// delivery records a dequeue span the returned envelope's parent is
    /// re-pointed at.
    pub fn pop(&mut self) -> Option<(u64, Envelope<M>)> {
        while let Some((time, mut env)) = self.queue.pop() {
            if !env.control && self.plan.crashed(time, env.to) {
                self.stats.crash_dropped += 1;
                self.record(env.trace, env.to, SpanKind::CrashDrop);
                continue;
            }
            if !env.control {
                self.stats.delivered += 1;
            }
            let span = self.record(env.trace, env.to, SpanKind::Dequeue);
            if span != 0 {
                env.trace.parent = span;
            }
            return Some((time, env));
        }
        None
    }

    /// Records one span at the current simulation time, if a tracer is
    /// attached; returns 0 otherwise (the "no span" parent sentinel).
    fn record(&self, ctx: TraceCtx, broker: NodeId, kind: SpanKind) -> u32 {
        match &self.tracer {
            Some(t) => t.record_ctx(ctx, broker, kind, self.queue.now()),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_uniform_ish() {
        let mut rng = SplitMix64::new(0xDEAD_BEEF);
        let draws: Vec<f64> = (0..1000).map(|_| rng.next_f64()).collect();
        assert!(draws.iter().all(|p| (0.0..1.0).contains(p)));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
        let mut again = SplitMix64::new(0xDEAD_BEEF);
        assert_eq!(again.next_f64(), draws[0]);
    }

    #[test]
    fn decisions_are_pure_functions_of_identity() {
        let mut plan = FaultPlan::reliable(99);
        plan.default_link = LinkProfile {
            drop: 0.3,
            duplicate: 0.3,
            max_extra_delay: 7,
        };
        for seq in 0..50 {
            assert_eq!(plan.decide(2, 3, seq), plan.decide(2, 3, seq));
        }
        // Different links and different seqs draw independent streams.
        let all_same = (0..50).all(|s| plan.decide(2, 3, s) == plan.decide(3, 2, s));
        assert!(!all_same, "directed links must not share a stream");
    }

    #[test]
    fn drop_rate_is_respected() {
        let mut plan = FaultPlan::reliable(5);
        plan.default_link = LinkProfile {
            drop: 0.25,
            duplicate: 0.0,
            max_extra_delay: 0,
        };
        let dropped = (0..4000)
            .filter(|&s| plan.decide(0, 1, s).copies.is_empty())
            .count();
        let rate = dropped as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.04, "drop rate {rate}");
    }

    #[test]
    fn lossy_net_reliable_plan_delivers_everything() {
        let mut net: LossyNet<u32> = LossyNet::new(FaultPlan::reliable(1));
        for i in 0..10 {
            net.send(0, 1, i, i as u32);
        }
        let mut got = Vec::new();
        while let Some((_, env)) = net.pop() {
            got.push(env.payload);
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(net.stats().delivered, 10);
        assert_eq!(net.stats().dropped, 0);
    }

    #[test]
    fn lossy_net_same_seed_same_stats() {
        let mut plan = FaultPlan::reliable(0xFA57);
        plan.default_link = LinkProfile {
            drop: 0.2,
            duplicate: 0.2,
            max_extra_delay: 4,
        };
        let run = |plan: &FaultPlan| {
            let mut net: LossyNet<u64> = LossyNet::new(plan.clone());
            for i in 0..200 {
                net.send((i % 4) as NodeId, ((i + 1) % 4) as NodeId, 1, i);
            }
            let mut order = Vec::new();
            while let Some((t, env)) = net.pop() {
                order.push((t, env.from, env.to, env.payload));
            }
            (*net.stats(), order)
        };
        assert_eq!(run(&plan), run(&plan));
    }

    #[test]
    fn link_cuts_and_partitions_sever_traffic() {
        let mut plan = FaultPlan::reliable(3);
        plan.cuts.push(LinkCut {
            a: 0,
            b: 1,
            from: 0,
            until: 10,
        });
        plan.partitions.push(PartitionWindow {
            island: vec![2],
            from: 0,
            until: 10,
        });
        assert!(!plan.link_up(5, 0, 1));
        assert!(!plan.link_up(5, 1, 0), "cuts are undirected");
        assert!(plan.link_up(10, 0, 1), "cut heals");
        assert!(!plan.link_up(5, 2, 3), "partition severs island links");
        assert!(plan.link_up(5, 3, 4), "links outside the island survive");

        let mut net: LossyNet<()> = LossyNet::new(plan);
        net.send(0, 1, 1, ());
        net.send(3, 4, 1, ());
        assert_eq!(net.stats().link_dropped, 1);
        assert_eq!(net.pending(), 1);
    }

    #[test]
    fn crashed_receiver_loses_messages_but_control_survives() {
        let mut plan = FaultPlan::reliable(4);
        plan.crashes.push(CrashEvent {
            broker: 1,
            at: 0,
            restart_at: 100,
        });
        assert!(plan.crashed(0, 1));
        assert!(!plan.crashed(100, 1), "restart ends the window");
        let mut net: LossyNet<&str> = LossyNet::new(plan);
        net.send(0, 1, 5, "lost");
        net.schedule(1, 6, "control");
        let (t, env) = net.pop().unwrap();
        assert_eq!((t, env.payload, env.control), (6, "control", true));
        assert_eq!(net.pop(), None);
        assert_eq!(net.stats().crash_dropped, 1);
    }

    #[test]
    fn fault_stats_merge_sums_fieldwise_and_default_is_identity() {
        let a = FaultStats {
            offered: 10,
            delivered: 7,
            dropped: 1,
            link_dropped: 1,
            crash_dropped: 1,
            duplicated: 2,
        };
        let b = FaultStats {
            offered: 5,
            delivered: 5,
            dropped: 0,
            link_dropped: 0,
            crash_dropped: 0,
            duplicated: 1,
        };
        let mut sum = a;
        sum.merge(&b);
        assert_eq!(
            sum,
            FaultStats {
                offered: 15,
                delivered: 12,
                dropped: 1,
                link_dropped: 1,
                crash_dropped: 1,
                duplicated: 3,
            }
        );
        // Identity and commutativity.
        let mut id = a;
        id.merge(&FaultStats::default());
        assert_eq!(id, a);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ba, sum);
    }

    #[test]
    fn tracer_records_enqueue_and_dequeue_without_perturbing_faults() {
        use std::sync::Arc;
        use subsum_telemetry::trace::Tracer;

        let mut plan = FaultPlan::reliable(0xFA57);
        plan.default_link = LinkProfile {
            drop: 0.2,
            duplicate: 0.2,
            max_extra_delay: 4,
        };

        // Baseline run without a tracer.
        let mut plain: LossyNet<u64> = LossyNet::new(plan.clone());
        for i in 0..100 {
            plain.send((i % 4) as NodeId, ((i + 1) % 4) as NodeId, 1, i);
        }
        let mut plain_order = Vec::new();
        while let Some((t, env)) = plain.pop() {
            plain_order.push((t, env.from, env.to, env.payload));
        }

        // Traced run: every message gets its own trace.
        let tracer = Arc::new(Tracer::new(4, 1024));
        let mut traced: LossyNet<u64> = LossyNet::new(plan);
        traced.set_tracer(Arc::clone(&tracer));
        for i in 0..100 {
            let ctx = tracer.new_root();
            traced.send_traced((i % 4) as NodeId, ((i + 1) % 4) as NodeId, 1, ctx, i);
        }
        let mut traced_order = Vec::new();
        while let Some((t, env)) = traced.pop() {
            assert!(env.trace.trace.is_traced());
            assert_ne!(env.trace.parent, 0, "parent re-pointed at dequeue span");
            traced_order.push((t, env.from, env.to, env.payload));
        }

        assert_eq!(
            plain.stats(),
            traced.stats(),
            "tracing must not perturb faults"
        );
        assert_eq!(plain_order, traced_order);

        let spans = tracer.spans();
        let count = |k: SpanKind| spans.iter().filter(|s| s.kind == k).count() as u64;
        let stats = traced.stats();
        assert_eq!(
            count(SpanKind::Enqueue),
            stats.offered - stats.dropped - stats.link_dropped
        );
        assert_eq!(count(SpanKind::Drop), stats.dropped + stats.link_dropped);
        assert_eq!(count(SpanKind::Dup), stats.duplicated);
        assert_eq!(count(SpanKind::Dequeue), stats.delivered);
    }

    #[test]
    fn tracer_records_crash_drop_at_the_dead_receiver() {
        use std::sync::Arc;
        use subsum_telemetry::trace::Tracer;

        let mut plan = FaultPlan::reliable(4);
        plan.crashes.push(CrashEvent {
            broker: 1,
            at: 0,
            restart_at: 100,
        });
        let tracer = Arc::new(Tracer::new(2, 64));
        let mut net: LossyNet<&str> = LossyNet::new(plan);
        net.set_tracer(Arc::clone(&tracer));
        net.send_traced(0, 1, 5, tracer.new_root(), "lost");
        assert_eq!(net.pop(), None);
        let spans = tracer.spans();
        assert!(spans
            .iter()
            .any(|s| s.kind == SpanKind::CrashDrop && s.broker == 1));
    }

    #[test]
    fn untraced_context_records_no_spans() {
        use std::sync::Arc;
        use subsum_telemetry::trace::Tracer;

        let tracer = Arc::new(Tracer::new(2, 64));
        let mut net: LossyNet<u8> = LossyNet::new(FaultPlan::reliable(1));
        net.set_tracer(Arc::clone(&tracer));
        net.send(0, 1, 1, 42);
        let (_, env) = net.pop().unwrap();
        assert_eq!(env.trace, TraceCtx::NONE);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn duplication_injects_extra_copies() {
        let mut plan = FaultPlan::reliable(11);
        plan.default_link = LinkProfile {
            drop: 0.0,
            duplicate: 1.0,
            max_extra_delay: 0,
        };
        let mut net: LossyNet<u8> = LossyNet::new(plan);
        net.send(0, 1, 1, 9);
        assert_eq!(net.pending(), 2);
        assert_eq!(net.stats().duplicated, 1);
    }
}
