//! The two in-process workloads: `SummaryPubSub` on the 24-broker
//! backbone, driven single-threaded and back to back.
//!
//! * `overlay-steady` — a large resident population, publish passes
//!   over warm compiled plans, then small σ-batches of arrivals (the
//!   paper's σ ≪ S case), each followed by an incremental propagation
//!   and one probe publish.
//! * `overlay-churn` — the same code used the other way: every period
//!   replaces a share of the population (`unsubscribe` + `subscribe`),
//!   propagates (a full rebuild every `full_every`-th period) and then
//!   publishes a burst that starts on invalidated plans.
//!
//! Both are one schedule with different counts; see [`OverlayCounts`].
//! A run is several identical rounds of that schedule, each on a fresh
//! system, so that set-ups, publish slices and mutation slices are all
//! spread over the whole run: the box's slow stretches last seconds,
//! and a phase bunched into one stretch can miss the quiet slices its
//! statistic looks for (see [`crate::slices`]).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use subsum_broker::{route_event, PublishOutcome, RoutingOptions, SummaryPubSub};
use subsum_core::{BrokerSummary, MatchScratch};
use subsum_net::{NetMetrics, Topology};
use subsum_types::{Event, Schema, Subscription, SubscriptionId};
use subsum_workload::{PaperParams, Workload};

use crate::inputs::{self, Digest};
use crate::json::Json;
use crate::layers::{self, LayerSubject};
use crate::report::{secs, Outcome, Phase};
use crate::slices::{slice_quantile, Classed, Sliced, MEDIAN, QUIET_RATE, QUIET_TIME};
use crate::trace::Trace;

/// The workload model's subsumption probability `p`, and the
/// probability that an event attribute lands on a canonical value
/// (together: ≈ 2.5 deliveries per event at these populations).
const SUBSUMPTION: f64 = 0.9;
const HIT_RATE: f64 = 0.8;

/// The frozen operation counts of one overlay workload.
#[derive(Debug, Clone)]
pub struct OverlayCounts {
    /// Resident subscriptions per broker before the clock starts.
    pub resident_per_broker: usize,
    /// Distinct `(publisher, event)` pairs the publish loops cycle over
    /// (the matcher's working set).
    pub pool: usize,
    /// Warm-up publishes inside set-up (lazy plan compiles land there).
    pub warmup: usize,
    /// The run is this many identical rounds — set-up, publish passes,
    /// mutation periods — each on a fresh system.
    pub rounds: usize,
    /// Publish phase of one round: full passes over the pool (0 = no
    /// such phase). One pass is one slice, so every slice does the same
    /// work.
    pub publish_passes: usize,
    /// Mutation periods of one round.
    pub periods: usize,
    /// Subscribes per period.
    pub arrivals: usize,
    /// Unsubscribes per period (oldest live subscriptions first).
    pub departures: usize,
    /// Whether each period's probe is followed by one full pass over
    /// the pool (a burst that starts on invalidated plans).
    pub burst: bool,
    /// Every `full_every`-th period runs a full `propagate()` instead
    /// of `propagate_incremental()` (0 = never).
    pub full_every: usize,
}

impl OverlayCounts {
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "resident_per_broker",
                (self.resident_per_broker as u64).into(),
            ),
            ("subsumption", SUBSUMPTION.into()),
            ("hit_rate", HIT_RATE.into()),
            ("pool", (self.pool as u64).into()),
            ("warmup", (self.warmup as u64).into()),
            ("rounds", (self.rounds as u64).into()),
            ("publish_passes", (self.publish_passes as u64).into()),
            ("periods", (self.periods as u64).into()),
            ("arrivals", (self.arrivals as u64).into()),
            ("departures", (self.departures as u64).into()),
            ("burst", self.burst.into()),
            ("full_every", (self.full_every as u64).into()),
        ])
    }
}

/// What the oracle expects one publish to deliver, folded so the timed
/// loop can store and compare it in two words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expect {
    count: u32,
    fold: u64,
}

impl Expect {
    fn of(ids: &[SubscriptionId]) -> Expect {
        Expect {
            count: ids.len() as u32,
            fold: inputs::fold_ids(ids),
        }
    }

    fn observed(out: &PublishOutcome) -> Expect {
        Expect {
            count: out.deliveries.len() as u32,
            fold: inputs::fold_ids(out.deliveries.iter().map(|d| &d.id)),
        }
    }
}

struct Planned {
    broker: u16,
    sub: Subscription,
    id: SubscriptionId,
}

struct Period {
    departures: Vec<SubscriptionId>,
    arrivals: Vec<Planned>,
    full: bool,
    /// Published at the broker farthest from the first arrival's owner.
    probe: (u16, Event),
    probe_expect: Expect,
    /// Per pool event, against the population live after this period's
    /// mutations (empty when the period publishes only its probe).
    pool_expect: Vec<Expect>,
}

/// Generated inputs plus everything the oracle worked out about them.
struct Inputs {
    schema: Schema,
    topology: Topology,
    max_subs: u64,
    resident: Vec<Planned>,
    pool: Vec<(u16, Event)>,
    /// Per pool event, against the resident population.
    pool_expect: Vec<Expect>,
    periods: Vec<Period>,
    digest_subscriptions: String,
    digest_events: String,
    harness_s: f64,
}

fn farthest_from(topology: &Topology, owner: u16) -> u16 {
    let dist = topology.distances(owner);
    let mut best = owner;
    for (v, &d) in dist.iter().enumerate() {
        if d > dist[best as usize] {
            best = v as u16;
        }
    }
    best
}

fn generate(counts: &OverlayCounts, seed: u64) -> Result<Inputs, String> {
    let started = Instant::now();
    let topology = Topology::cable_wireless_24();
    let n = topology.len();
    let params = PaperParams {
        brokers: n,
        outstanding: counts.resident_per_broker,
        ..PaperParams::default()
    };
    let mut workload = Workload::new(params, SUBSUMPTION);
    let schema = workload.schema().clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_local = vec![0u32; n];
    let mut plan = |broker: u16, sub: Subscription| -> Planned {
        let local = next_local[broker as usize];
        next_local[broker as usize] += 1;
        Planned {
            id: inputs::predicted_id(broker, local, &sub),
            broker,
            sub,
        }
    };

    let mut digest_subs = Digest::default();
    let mut digest_events = Digest::default();

    // Subscriptions are dealt to the brokers round-robin — residents
    // and, continuing the same deal, arrivals — and leave oldest first,
    // so every broker's population stays at `resident_per_broker` (±1)
    // through any amount of churn and the schedule is stationary.
    let mut dealt = 0usize;
    let mut deal = || {
        dealt += 1;
        ((dealt - 1) % n) as u16
    };
    let mut resident = Vec::with_capacity(n * counts.resident_per_broker);
    for sub in workload.subscriptions(n * counts.resident_per_broker, &mut rng) {
        let broker = deal();
        digest_subs.subscription(broker, &sub);
        resident.push(plan(broker, sub));
    }

    // Publishers are dealt round-robin too, so every broker publishes
    // the same share of the pool whatever the seed.
    let pool: Vec<(u16, Event)> = (0..counts.pool)
        .map(|i| {
            let publisher = (i % n) as u16;
            let event = workload.event(HIT_RATE, &mut rng);
            digest_events.event(publisher, &event);
            (publisher, event)
        })
        .collect();

    // The schedule of arrivals and departures.
    let mut schedule: Vec<(Vec<Planned>, usize, bool)> = Vec::with_capacity(counts.periods);
    for k in 0..counts.periods {
        let arrivals: Vec<Planned> = workload
            .subscriptions(counts.arrivals, &mut rng)
            .into_iter()
            .map(|sub| {
                let broker = deal();
                digest_subs.subscription(broker, &sub);
                plan(broker, sub)
            })
            .collect();
        let full = counts.full_every > 0 && (k + 1) % counts.full_every == 0;
        schedule.push((arrivals, counts.departures, full));
    }
    let max_subs = u64::from(next_local.iter().copied().max().unwrap_or(0)) + 1;

    // Oracle, part 1: the pool against the resident population.
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let population: Vec<(SubscriptionId, &Subscription)> =
        resident.iter().map(|p| (p.id, &p.sub)).collect();
    let pool_events: Vec<&Event> = pool.iter().map(|(_, e)| e).collect();
    let mut pool_sets = inputs::oracle(&population, &pool_events, threads);
    let pool_expect: Vec<Expect> = pool_sets.iter().map(|ids| Expect::of(ids)).collect();

    // Oracle, part 2: walk the schedule, keeping the live population and
    // each pool event's match set current.
    let track_pool = counts.burst;
    let mut live: VecDeque<(SubscriptionId, &Subscription)> = population.iter().copied().collect();
    let mut periods = Vec::with_capacity(schedule.len());
    // Arrivals are owned by `schedule` for the whole walk so `live` can
    // borrow from them.
    for (arrivals, departures, full) in &schedule {
        let mut gone = Vec::with_capacity(*departures);
        for _ in 0..*departures {
            let Some((id, _)) = live.pop_front() else {
                return Err("schedule removes more subscriptions than are live".to_owned());
            };
            gone.push(id);
        }
        if track_pool {
            let mut gone_sorted = gone.clone();
            gone_sorted.sort_unstable();
            for set in &mut pool_sets {
                set.retain(|id| gone_sorted.binary_search(id).is_err());
            }
        }
        for a in arrivals {
            live.push_back((a.id, &a.sub));
            if track_pool {
                for (set, event) in pool_sets.iter_mut().zip(&pool_events) {
                    if a.sub.matches(event) {
                        let at = set.binary_search(&a.id).unwrap_or_else(|at| at);
                        set.insert(at, a.id);
                    }
                }
            }
        }
        let Some(first) = arrivals.first() else {
            return Err("a period needs at least one arrival to probe".to_owned());
        };
        let probe_event = inputs::witness_event(&schema, &first.sub)
            .ok_or("no witness event for a generated subscription")?;
        let probe_publisher = farthest_from(&topology, first.broker);
        digest_events.event(probe_publisher, &probe_event);
        let mut probe_ids: Vec<SubscriptionId> = live
            .iter()
            .filter(|(_, sub)| sub.matches(&probe_event))
            .map(|(id, _)| *id)
            .collect();
        probe_ids.sort_unstable();
        if probe_ids.binary_search(&first.id).is_err() {
            return Err("oracle lost the probe's own subscription".to_owned());
        }
        periods.push((
            gone,
            *full,
            (probe_publisher, probe_event),
            Expect::of(&probe_ids),
            if track_pool {
                pool_sets.iter().map(|ids| Expect::of(ids)).collect()
            } else {
                Vec::new()
            },
        ));
    }
    drop(live);
    drop(population);
    let periods = schedule
        .into_iter()
        .zip(periods)
        .map(
            |((arrivals, _, _), (departures, full, probe, probe_expect, pool_expect))| Period {
                departures,
                arrivals,
                full,
                probe,
                probe_expect,
                pool_expect,
            },
        )
        .collect();

    Ok(Inputs {
        schema,
        topology,
        max_subs,
        resident,
        pool,
        pool_expect,
        periods,
        digest_subscriptions: digest_subs.hex(),
        digest_events: digest_events.hex(),
        harness_s: secs(started.elapsed()),
    })
}

/// One set-up: construct, load the resident population, propagate in
/// full, warm up. Returns the system, a warmed scratch and how many
/// warm-up publishes disagreed with the oracle.
fn set_up(
    inputs: &Inputs,
    counts: &OverlayCounts,
) -> Result<(SummaryPubSub, MatchScratch, u64), String> {
    let mut sys = SummaryPubSub::new(
        inputs.topology.clone(),
        inputs.schema.clone(),
        inputs.max_subs,
    )
    .map_err(|e| e.to_string())?;
    for p in &inputs.resident {
        let id = sys.subscribe(p.broker, &p.sub).map_err(|e| e.to_string())?;
        if id != p.id {
            return Err(format!(
                "subscribe returned {id}, the oracle predicted {}",
                p.id
            ));
        }
    }
    sys.propagate().map_err(|e| e.to_string())?;
    let mut scratch = MatchScratch::new();
    let mut failed = 0;
    for i in 0..counts.warmup {
        let at = i % inputs.pool.len();
        let (b, e) = &inputs.pool[at];
        let out = sys.publish_with_scratch(*b, e, &mut scratch);
        failed += u64::from(Expect::observed(&out) != inputs.pool_expect[at]);
    }
    Ok((sys, scratch, failed))
}

fn ns32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Replays the children of one sampled publish from outside the
/// program: Algorithm 3 over the stored summaries, each visit's summary
/// probe, each candidate's exact `matches`. `parent` is the span of the
/// real `publish_with_scratch` call the sample belongs to.
#[allow(clippy::too_many_arguments)]
fn replay_publish(
    trace: &mut Trace,
    sys: &SummaryPubSub,
    options: &RoutingOptions,
    scratch: &mut MatchScratch,
    broker: u16,
    event: &Event,
    parent: u32,
    op: u32,
) {
    let Some(stored) = sys.stored_summaries() else {
        return;
    };
    let bytes = event.wire_size(sys.schema(), 4);
    let (routing, route_span) = trace.time("broker.route", parent, op, || {
        subsum_broker::routing::route_event_with_scratch(
            sys.topology(),
            stored,
            broker,
            event,
            bytes,
            options,
            scratch,
        )
    });
    let mut probes_ns = 0u64;
    let mut rows = 0u64;
    let mut candidates = 0u64;
    for &v in &routing.visits {
        let start = Instant::now();
        let outcome = stored[v as usize].summary.match_event_into(event, scratch);
        let end = Instant::now();
        rows += outcome.stats.rows_scanned as u64;
        candidates += outcome.stats.candidates as u64;
        trace.span("core.match_warm", route_span, op, start, end);
        probes_ns += trace.ns(end) - trace.ns(start);
    }
    trace.add("core.probe_rows", rows);
    trace.add("core.candidates", candidates);
    let route_ns = {
        let s = trace.spans()[route_span as usize - 1];
        s.end_ns - s.start_ns
    };
    trace.add("broker.route_self", route_ns.saturating_sub(probes_ns));
    trace.add("broker.visits", routing.visits.len() as u64);

    let verify_span = trace.open("broker.owner_verify", parent, op, Instant::now());
    let mut confirmed = 0u64;
    for n in &routing.notifications {
        let start = Instant::now();
        let hit = sys
            .exact_store(n.owner)
            .get(&n.id)
            .is_some_and(|sub| sub.matches(event));
        let end = Instant::now();
        confirmed += u64::from(hit);
        trace.span("types.sub_matches", verify_span, op, start, end);
    }
    trace.close(verify_span, Instant::now());
    std::hint::black_box(confirmed);
}

struct Measured {
    phases: Vec<Phase>,
    setup_s: Vec<f64>,
    lat: Sliced,
    ab: Vec<(bool, Classed)>,
    mutate_rates: Vec<Classed>,
    visible_ms: Vec<Classed>,
    hops: u64,
    events: u64,
    routing: NetMetrics,
    deliveries: u64,
    false_positives: u64,
    candidates: u64,
    attempted: u64,
    failed: u64,
    propagation: NetMetrics,
    storage_bytes: usize,
    propagate_msgs: u64,
    subject: Option<LayerSubject>,
}

/// Running totals over every counted publish.
struct Tally {
    hops: u64,
    events: u64,
    deliveries: u64,
    false_positives: u64,
    candidates: u64,
    routing: NetMetrics,
}

impl Tally {
    fn add(&mut self, out: &PublishOutcome) {
        self.hops += out.routing.total_hops();
        self.events += 1;
        self.deliveries += out.deliveries.len() as u64;
        self.false_positives += out.false_positives.len() as u64;
        self.candidates += out.routing.notifications.len() as u64;
        self.routing.merge(&out.routing.metrics);
    }
}

/// The state one publish loop needs, so the steady phase and the
/// per-period bursts share one loop body.
struct Publisher<'a> {
    sys: &'a SummaryPubSub,
    scratch: &'a mut MatchScratch,
    replay_scratch: &'a mut MatchScratch,
    options: &'a RoutingOptions,
    lat: &'a mut Sliced,
    tally: &'a mut Tally,
    seen: &'a mut Vec<Expect>,
    op: &'a mut u32,
    replay_every: usize,
    /// Traced runs: `(traced?, class, rate)` of every slice, for the
    /// tracing-overhead row.
    ab: &'a mut Vec<(bool, Classed)>,
}

impl Publisher<'_> {
    /// One timed publish, recorded, tallied and (traced slices) spanned.
    fn publish(&mut self, trace: &mut Trace, traced: bool, broker: u16, event: &Event) -> Expect {
        let t0 = Instant::now();
        let out = self.sys.publish_with_scratch(broker, event, self.scratch);
        let t1 = Instant::now();
        self.lat.push(ns32(t1 - t0), !out.deliveries.is_empty());
        self.tally.add(&out);
        if traced {
            *self.op += 1;
            if *self.op as usize % self.replay_every == 0 {
                let parent = trace.span("broker.publish", 0, *self.op, t0, t1);
                replay_publish(
                    trace,
                    self.sys,
                    self.options,
                    self.replay_scratch,
                    broker,
                    event,
                    parent,
                    *self.op,
                );
            } else {
                trace.add("broker.publish", u64::from(ns32(t1 - t0)));
            }
        }
        Expect::observed(&out)
    }

    /// One full pass over the pool = one slice. Returns how many
    /// publishes disagreed with `expect` (checked after the clock
    /// stops). In a traced run every other slice (`traced`) runs under
    /// spans, replays and the program's own telemetry recorder; the
    /// slices in between run as an untraced run would, which is what
    /// `telemetry.overhead_pct` compares them with.
    fn pass(
        &mut self,
        trace: &mut Trace,
        traced: bool,
        pool: &[(u16, Event)],
        expect: &[Expect],
        class: u16,
    ) -> u64 {
        self.seen.clear();
        subsum_telemetry::set_enabled(traced);
        let start = Instant::now();
        for (b, e) in pool {
            let got = self.publish(trace, traced, *b, e);
            self.seen.push(got);
        }
        let wall = start.elapsed();
        subsum_telemetry::set_enabled(trace.on);
        if trace.on {
            self.ab
                .push((traced, (class, pool.len() as f64 / secs(wall))));
        }
        self.lat.cut(wall, class);
        self.seen
            .iter()
            .zip(expect)
            .filter(|(got, want)| got != want)
            .count() as u64
    }
}

fn drive(inputs: &Inputs, counts: &OverlayCounts, trace: &mut Trace) -> Result<Measured, String> {
    let mut phases = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let rounds = counts.rounds.max(1);
    let options = RoutingOptions::new();
    let mut replay_scratch = MatchScratch::new();
    let mut tally = Tally {
        hops: 0,
        events: 0,
        deliveries: 0,
        false_positives: 0,
        candidates: 0,
        routing: NetMetrics::new(inputs.topology.len()),
    };
    let pool = inputs.pool.len();
    let periods = counts.periods.min(inputs.periods.len());
    // Replay about `REPLAYS` publishes per run, evenly spread.
    let total_publishes =
        rounds * (counts.publish_passes * pool + periods * (1 + usize::from(counts.burst) * pool));
    let replay_every = (total_publishes / layers::REPLAYS).max(1);
    let mut op = 0u32;
    let mut lat = Sliced::with_capacity(total_publishes);
    let mut seen: Vec<Expect> = Vec::with_capacity(pool);
    let mut ab: Vec<(bool, Classed)> = Vec::new();
    let mut setup_s = Vec::with_capacity(rounds);
    let (mut setup_wall, mut publish_wall, mut mutate_wall) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut mutate_ops = 0u64;
    let mut mutate_rates = Vec::with_capacity(rounds * periods);
    let mut visible_ms = Vec::with_capacity(rounds * periods);
    let mut propagate_msgs = 0u64;
    let mut last: Option<(SummaryPubSub, MatchScratch)> = None;

    // The run is `rounds` identical rounds, each on a system of its own:
    // set-up, the publish passes, the mutation periods. Every metric's
    // slices are thereby spread over the whole run, not bunched into
    // one stretch of it.
    for _ in 0..rounds {
        drop(last.take());
        // ---- set-up ----------------------------------------------------
        let start = Instant::now();
        let (mut sys, mut scratch, warm_failed) = set_up(inputs, counts)?;
        let end = Instant::now();
        setup_s.push(secs(end - start));
        setup_wall += end - start;
        if trace.on {
            trace.span("ledger.setup", 0, 0, start, end);
        }
        attempted += counts.warmup as u64;
        failed += warm_failed;
        macro_rules! publisher {
            () => {
                Publisher {
                    sys: &sys,
                    scratch: &mut scratch,
                    replay_scratch: &mut replay_scratch,
                    options: &options,
                    lat: &mut lat,
                    tally: &mut tally,
                    seen: &mut seen,
                    op: &mut op,
                    replay_every,
                    ab: &mut ab,
                }
            };
        }

        // ---- steady publish phase: `publish_passes` slices ----------------
        if counts.publish_passes > 0 {
            let phase_start = Instant::now();
            for pass in 0..counts.publish_passes {
                let traced = trace.on && pass % 2 == 0;
                failed += publisher!().pass(trace, traced, &inputs.pool, &inputs.pool_expect, 0);
                attempted += pool as u64;
            }
            let phase_end = Instant::now();
            publish_wall += phase_end - phase_start;
            if trace.on {
                trace.span("ledger.publish_phase", 0, 0, phase_start, phase_end);
            }
        }

        // ---- mutate phase: one slice per period ---------------------------
        let mutate_start = Instant::now();
        for (k, period) in inputs.periods.iter().take(periods).enumerate() {
            // A period's cost depends on where it sits in the
            // full-propagation cycle; that position is its slice class.
            let class = if counts.full_every > 0 {
                (k % counts.full_every) as u16
            } else {
                0
            };
            let t_first = Instant::now();
            for id in &period.departures {
                let t0 = Instant::now();
                let existed = sys.unsubscribe(*id);
                if trace.on {
                    trace.add("broker.unsubscribe", u64::from(ns32(t0.elapsed())));
                }
                attempted += 1;
                failed += u64::from(!existed);
            }
            for a in &period.arrivals {
                let t0 = Instant::now();
                let id = sys.subscribe(a.broker, &a.sub).map_err(|e| e.to_string())?;
                if trace.on {
                    trace.add("broker.subscribe", u64::from(ns32(t0.elapsed())));
                }
                attempted += 1;
                failed += u64::from(id != a.id);
            }
            let t_prop = Instant::now();
            let msgs = if period.full {
                sys.propagate().map_err(|e| e.to_string())?.metrics.messages
            } else {
                sys.propagate_incremental()
                    .map_err(|e| e.to_string())?
                    .metrics
                    .messages
            };
            let t_done = Instant::now();
            propagate_msgs += msgs;
            if trace.on {
                let name = if period.full {
                    "broker.propagate_full"
                } else {
                    "broker.propagate_incr"
                };
                trace.span(name, 0, k as u32, t_prop, t_done);
            }
            let ops = (period.departures.len() + period.arrivals.len()) as u64;
            mutate_ops += ops;
            mutate_rates.push((class, ops as f64 / secs(t_done - t_first)));

            // The probe: first subscribe call → the new subscription's
            // first delivery, published at the farthest broker.
            let (pb, pe) = &period.probe;
            let t0 = Instant::now();
            let out = sys.publish_with_scratch(*pb, pe, &mut scratch);
            let t1 = Instant::now();
            visible_ms.push((class, secs(t1 - t_first) * 1e3));
            attempted += 1;
            failed += u64::from(Expect::observed(&out) != period.probe_expect);
            if trace.on {
                trace.span("broker.publish_cold", 0, k as u32, t0, t1);
            }

            // The burst: one pass over the pool, starting on whatever plans
            // the mutation left invalid.
            if counts.burst {
                // Whole cycles alternate, so both groups see every class.
                let traced = trace.on && (k / counts.full_every.max(1)) % 2 == 0;
                failed +=
                    publisher!().pass(trace, traced, &inputs.pool, &period.pool_expect, class);
                attempted += pool as u64;
            }
        }
        let mutate_end = Instant::now();
        mutate_wall += mutate_end - mutate_start;
        if trace.on {
            trace.span("ledger.mutate_phase", 0, 0, mutate_start, mutate_end);
        }
        last = Some((sys, scratch));
    }
    phases.push(Phase::new(
        "setup",
        setup_wall,
        (rounds * inputs.resident.len()) as u64,
    ));
    if counts.publish_passes > 0 {
        phases.push(Phase::new(
            "publish",
            publish_wall,
            (rounds * counts.publish_passes * pool) as u64,
        ));
    }
    phases.push(Phase::new("mutate", mutate_wall, mutate_ops));
    let Some((sys, mut scratch)) = last else {
        return Err("no round ran".to_owned());
    };

    let subject = trace.on.then(|| {
        // The layer micro-measurements run on the largest stored merged
        // summary (the hub every route ends at) and one broker's own
        // population.
        let stored = sys.stored_summaries().unwrap_or(&[]);
        let hub: Option<&BrokerSummary> = stored
            .iter()
            .map(|m| &m.summary)
            .max_by_key(|s| s.subscription_count());
        let own: Vec<(SubscriptionId, Subscription)> = sys
            .exact_store(0)
            .iter()
            .map(|(id, sub)| (*id, sub.clone()))
            .collect();
        LayerSubject {
            schema: inputs.schema.clone(),
            codec: *sys.codec(),
            summary: hub
                .cloned()
                .unwrap_or_else(|| BrokerSummary::new(inputs.schema.clone())),
            population: own,
            fresh: inputs
                .periods
                .iter()
                .flat_map(|p| p.arrivals.iter().map(|a| (a.id, a.sub.clone())))
                .take(layers::FRESH)
                .collect(),
            events: inputs.pool.iter().map(|(_, e)| e.clone()).collect(),
        }
    });

    // One untimed cross-check that the public one-shot router agrees
    // with the scratch path the phases used.
    if let (Some(stored), Some((b, e))) = (sys.stored_summaries(), inputs.pool.first()) {
        let bytes = e.wire_size(sys.schema(), 4);
        let one_shot = route_event(sys.topology(), stored, *b, e, bytes, &options);
        let again = sys.publish_with_scratch(*b, e, &mut scratch);
        attempted += 1;
        failed += u64::from(one_shot.total_hops() != again.routing.total_hops());
    }

    Ok(Measured {
        phases,
        setup_s,
        lat,
        ab,
        mutate_rates,
        visible_ms,
        hops: tally.hops,
        events: tally.events,
        routing: tally.routing,
        deliveries: tally.deliveries,
        false_positives: tally.false_positives,
        candidates: tally.candidates,
        attempted,
        failed,
        propagation: sys.propagation_metrics().clone(),
        storage_bytes: sys.summary_storage_bytes(),
        propagate_msgs,
        subject,
    })
}

/// How much slower the traced slices of a traced run were than the
/// untraced slices in between, as a percentage of the untraced rate.
fn overhead_pct(ab: &[(bool, Classed)]) -> f64 {
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

/// Runs one overlay workload. With `trace.on` the same schedule runs
/// under spans and sampled replays, and the per-layer rows are filled.
pub fn run(
    name: &str,
    counts: &OverlayCounts,
    seed: u64,
    trace: &mut Trace,
) -> Result<Outcome, String> {
    let inputs = generate(counts, seed)?;

    if trace.on {
        subsum_telemetry::reset();
        subsum_telemetry::set_enabled(true);
    }
    // Per-layer rows are means over thousands of calls: a traced run
    // does 80 % of the rounds, so that with its replays and
    // micro-measurements it costs about what an untraced run does.
    let mut traced_counts = counts.clone();
    if trace.on {
        traced_counts.rounds = (counts.rounds * 4).div_ceil(5);
    }
    let counts = &traced_counts;
    let mut m = drive(&inputs, counts, trace)?;
    subsum_telemetry::set_enabled(false);

    let (slice_p50, slice_deliver_p50) = m.lat.slice_medians_us();
    // Set-ups are slices like any other: identical work, some disturbed.
    let setup_reps: Vec<Classed> = m.setup_s.iter().map(|s| (0, *s)).collect();
    let publish_p50 = slice_quantile(&slice_p50, QUIET_TIME);
    let deliver_p50 = slice_quantile(&slice_deliver_p50, QUIET_TIME);
    let publish_rates = m.lat.rates();
    let publish_per_s = slice_quantile(&publish_rates, QUIET_RATE);
    let subscribe_per_s = slice_quantile(&m.mutate_rates, QUIET_RATE);
    let e2e = vec![
        ("setup_s", slice_quantile(&setup_reps, QUIET_TIME)),
        ("publish_per_s", publish_per_s),
        ("publish_p50_us", publish_p50),
        ("deliver_p50_us", deliver_p50),
        ("subscribe_per_s", subscribe_per_s),
        ("visible_ms", slice_quantile(&m.visible_ms, QUIET_TIME)),
        ("propagation_bytes", m.propagation.payload_bytes as f64),
        ("hops_per_event", m.hops as f64 / m.events.max(1) as f64),
        ("peak_rss_mb", crate::machine::peak_rss_mib()),
    ];

    let mut layer_rows = Vec::new();
    if trace.on {
        let p99 = m.lat.p99_us();
        let events = m.events.max(1) as f64;
        let replays = trace.acc("broker.route").count.max(1) as f64;
        layer_rows.extend([
            ("core.match_warm_ns", trace.mean_ns("core.match_warm")),
            (
                "core.probe_rows_per_event",
                trace.acc("core.probe_rows").sum_ns as f64 / replays,
            ),
            (
                "core.candidates_per_event",
                trace.acc("core.candidates").sum_ns as f64 / replays,
            ),
            ("types.sub_matches_ns", trace.mean_ns("types.sub_matches")),
            ("broker.route_us", trace.mean_ns("broker.route") / 1e3),
            (
                "broker.route_self_us",
                trace.mean_ns("broker.route_self") / 1e3,
            ),
            (
                "broker.owner_verify_us",
                trace.mean_ns("broker.owner_verify") / 1e3,
            ),
            (
                "broker.visits_per_event",
                trace.acc("broker.visits").sum_ns as f64 / replays,
            ),
            ("broker.deliveries_per_event", m.deliveries as f64 / events),
            (
                "broker.false_positive_rate",
                m.false_positives as f64 / (m.candidates.max(1)) as f64,
            ),
            ("broker.subscribe_ns", trace.mean_ns("broker.subscribe")),
            ("broker.unsubscribe_ns", trace.mean_ns("broker.unsubscribe")),
            (
                "broker.propagate_full_ms",
                trace.mean_ns("broker.propagate_full") / 1e6,
            ),
            (
                "broker.propagate_incr_ms",
                trace.mean_ns("broker.propagate_incr") / 1e6,
            ),
            ("broker.propagate_msgs", m.propagate_msgs as f64),
            ("broker.storage_bytes", m.storage_bytes as f64),
            (
                "net.link_bytes_per_event",
                m.routing.link_bytes as f64 / events,
            ),
            ("net.max_broker_load", m.routing.max_broker_load() as f64),
            ("ledger.publish_p99_us", p99.0),
            ("ledger.deliver_p99_us", p99.1),
            ("ledger.setup_harness_s", inputs.harness_s),
            ("telemetry.overhead_pct", overhead_pct(&m.ab)),
            (
                "ledger.publish_phase_per_s",
                m.lat.samples().0 as f64 / m.lat.wall_s().max(f64::MIN_POSITIVE),
            ),
            (
                "ledger.publish_median_per_s",
                slice_quantile(&publish_rates, MEDIAN),
            ),
            (
                "ledger.publish_median_p50_us",
                slice_quantile(&slice_p50, MEDIAN),
            ),
            ("ledger.publish_quiet_per_s", publish_per_s),
            ("ledger.publish_quiet_p50_us", publish_p50),
        ]);
        // Self-time closure of the replayed sample: the parent publish
        // against what its replayed children cover.
        let parent = trace.mean_ns("broker.publish");
        let children = trace.mean_ns("broker.route") + trace.mean_ns("broker.owner_verify");
        layer_rows.push(("ledger.publish_self_us", (parent - children).max(0.0) / 1e3));
        layer_rows.push((
            "ledger.trace_residual_pct",
            100.0 * (parent - children).abs() / parent.max(f64::MIN_POSITIVE),
        ));
        layer_rows.extend(layers::telemetry_counters());
        if let Some(subject) = &m.subject {
            layer_rows.extend(layers::core_rows(subject, trace));
            layer_rows.extend(layers::transport_rows(subject, trace, None));
        }
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
                ("publish_p50_us", (m.lat.samples().0 as u64).into()),
                ("deliver_p50_us", (m.lat.samples().1 as u64).into()),
                ("publish_per_s", (m.lat.slices() as u64).into()),
                ("subscribe_per_s", (m.mutate_rates.len() as u64).into()),
                ("visible_ms", (m.visible_ms.len() as u64).into()),
                ("setup_s", (m.setup_s.len() as u64).into()),
            ]),
        ),
        ("harness_s", inputs.harness_s.into()),
        (
            "setup_reps_s",
            Json::Arr(m.setup_s.iter().map(|v| Json::Num(*v)).collect()),
        ),
        (
            "publish_slice_rates",
            Json::Arr(
                publish_rates
                    .iter()
                    .map(|(_, v)| Json::Num(v.round()))
                    .collect(),
            ),
        ),
        (
            "publish_slice_p50_us",
            Json::Arr(
                slice_p50
                    .iter()
                    .map(|(_, v)| Json::Num((v * 10.0).round() / 10.0))
                    .collect(),
            ),
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
        (
            "mutate_rate_series",
            Json::Arr(
                m.mutate_rates
                    .iter()
                    .map(|(_, v)| Json::Num(v.round()))
                    .collect(),
            ),
        ),
        ("deliveries", m.deliveries.into()),
        ("false_positives", m.false_positives.into()),
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
    use subsum_broker::Delivery;

    /// A two-delivery outcome and the oracle's expectation of it.
    fn fixture() -> (PublishOutcome, Expect) {
        let inputs = generate(
            &OverlayCounts {
                resident_per_broker: 40,
                pool: 48,
                warmup: 0,
                rounds: 1,
                publish_passes: 0,
                periods: 1,
                arrivals: 2,
                departures: 0,
                burst: false,
                full_every: 0,
            },
            7,
        )
        .unwrap();
        let ids: Vec<SubscriptionId> = inputs.resident.iter().take(2).map(|p| p.id).collect();
        let out = PublishOutcome {
            deliveries: ids
                .iter()
                .map(|id| Delivery {
                    id: *id,
                    owner: id.broker.0,
                })
                .collect(),
            ..PublishOutcome::default()
        };
        (out, Expect::of(&ids))
    }

    #[test]
    fn oracle_accepts_the_exact_delivery_set() {
        let (out, want) = fixture();
        assert_eq!(Expect::observed(&out), want);
    }

    #[test]
    fn oracle_catches_a_dropped_delivery() {
        let (mut out, want) = fixture();
        out.deliveries.pop();
        assert_ne!(Expect::observed(&out), want);
    }

    #[test]
    fn oracle_catches_a_duplicated_delivery() {
        let (mut out, want) = fixture();
        let again = out.deliveries[0].clone();
        out.deliveries.insert(1, again);
        assert_ne!(Expect::observed(&out), want);
    }

    #[test]
    fn oracle_catches_a_swapped_subscription() {
        let (mut out, want) = fixture();
        out.deliveries[1].id.local.0 += 1;
        assert_ne!(Expect::observed(&out), want);
    }

    #[test]
    fn overhead_compares_traced_with_untraced_slices() {
        let ab: Vec<(bool, Classed)> = (0..20)
            .map(|i| (i % 2 == 0, (0, if i % 2 == 0 { 900.0 } else { 1000.0 })))
            .collect();
        assert!((overhead_pct(&ab) - 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(&[]), 0.0);
    }
}
