//! §5.2.4 — event-matching cost of the summary matcher (Algorithm 1):
//! a high-row-count SACS scenario that isolates the pattern index's
//! bucket pruning against the retained full-scan reference, and a
//! large-P multi-attribute scenario that pits the compiled columnar
//! match plan (the production path) against the plain-`SubscriptionId`
//! scan reference. (Summary vs naive per-subscription scan over growing
//! populations is `repro compute`, `experiments::compute`.)
//!
//! `main` writes two JSON reports, from 40 timed passes over each
//! scenario's event set (one pass with `SUBSUM_BENCH_REPORT_ONLY` set,
//! so CI can smoke the report writers in seconds):
//!
//! * `BENCH_matching.json` — before/after matching throughput and
//!   latency percentiles (full scan vs pattern index) with the pruning
//!   counters from an instrumented pass;
//! * `BENCH_matching_stages.json` — a stage-level `RunReport` of one
//!   instrumented matching pass (recorder enabled only for that pass, so
//!   the timed passes are unaffected).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use subsum_core::{BrokerSummary, MatchScratch, ShardScratch, ShardedSummary, SummaryStats};
use subsum_telemetry::{names, Json, RunReport};
use subsum_types::{stock_schema, BrokerId, Event, LocalSubId, Schema, StrOp, Subscription};
use subsum_workload::{PaperParams, Workload};

/// Alphabet for the SACS-heavy scenario's symbols and prefixes.
const CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
/// Subscriptions in the SACS-heavy scenario.
const SACS_HEAVY_SUBS: usize = 5000;
/// Events per measured pass in the SACS-heavy scenario.
const SACS_HEAVY_EVENTS: usize = 256;
/// Subscriptions in the compiled-kernel scenario.
const DENSE_SUBS: usize = 8000;
/// Events per measured pass in the compiled-kernel scenario.
const DENSE_EVENTS: usize = 256;
/// Shards in the shard-scaling scenario.
const SCALING_SHARDS: usize = 8;
/// Worker-thread counts swept by the shard-scaling scenario.
const SCALING_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Builds the compiled-kernel scenario: `DENSE_SUBS` subscriptions from the
/// paper's multi-attribute workload (arithmetic ranges, points and string
/// operators mixed per subscription) and popular events that touch many
/// rows, so the per-event candidate set is large and the counter kernel's
/// O(P) pass dominates.
fn compiled_kernel_fixture() -> (BrokerSummary, Vec<Event>, Schema) {
    let mut rng = StdRng::seed_from_u64(0xD15E);
    let mut workload = Workload::new(PaperParams::default(), 0.7);
    let schema = workload.schema().clone();
    let subs: Vec<Subscription> = workload.subscriptions(DENSE_SUBS, &mut rng);
    let mut summary = BrokerSummary::new(schema.clone());
    for (i, sub) in subs.iter().enumerate() {
        summary.insert(BrokerId((i % 16) as u16), LocalSubId(i as u32), sub);
    }
    let events: Vec<Event> = (0..DENSE_EVENTS)
        .map(|_| workload.event(0.9, &mut rng))
        .collect();
    (summary, events, schema)
}

/// Builds the SACS-heavy scenario: `SACS_HEAVY_SUBS` subscriptions whose
/// two-character `symbol` prefixes cycle through the full 36×36 alphabet
/// square (≈1300 pairwise-incomparable SACS rows spread over 36 prefix
/// buckets), a sprinkle of suffix and substring subscriptions so the
/// suffix and residual buckets are populated too, and random four-char
/// symbols to match against.
fn sacs_heavy_fixture() -> (BrokerSummary, Vec<Event>) {
    let schema = stock_schema();
    let mut summary = BrokerSummary::new(schema.clone());
    let mut local = 0u32;
    let mut add = |summary: &mut BrokerSummary, sub: &Subscription| {
        summary.insert(BrokerId(0), LocalSubId(local), sub);
        local += 1;
    };
    for i in 0..SACS_HEAVY_SUBS {
        let prefix = format!(
            "{}{}",
            CHARS[i % CHARS.len()] as char,
            CHARS[(i / CHARS.len()) % CHARS.len()] as char
        );
        let sub = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Prefix, &prefix)
            .unwrap()
            .build()
            .unwrap();
        add(&mut summary, &sub);
    }
    for (op, v) in [
        (StrOp::Suffix, "XX"),
        (StrOp::Suffix, "Q7"),
        (StrOp::Contains, "ZZ"),
        (StrOp::Contains, "J2"),
    ] {
        let sub = Subscription::builder(&schema)
            .str_op("symbol", op, v)
            .unwrap()
            .build()
            .unwrap();
        add(&mut summary, &sub);
    }

    let mut rng = StdRng::seed_from_u64(0x5AC5);
    let events: Vec<Event> = (0..SACS_HEAVY_EVENTS)
        .map(|_| {
            let symbol: String = (0..4)
                .map(|_| CHARS[rng.gen_range(0..CHARS.len())] as char)
                .collect();
            Event::builder(&schema)
                .str("symbol", symbol)
                .unwrap()
                .build()
        })
        .collect();
    (summary, events)
}

/// Times one matcher over repeated passes of the event set; returns
/// sorted per-event latencies in microseconds and overall events/sec.
fn measure(events: &[Event], passes: usize, mut f: impl FnMut(&Event) -> usize) -> (Vec<f64>, f64) {
    let mut samples = Vec::with_capacity(events.len() * passes);
    let mut total = 0usize;
    let wall = Instant::now();
    for _ in 0..passes {
        for e in events {
            let t = Instant::now();
            total += f(e);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let secs = wall.elapsed().as_secs_f64();
    std::hint::black_box(total);
    samples.sort_unstable_by(f64::total_cmp);
    let events_per_sec = samples.len() as f64 / secs.max(1e-12);
    (samples, events_per_sec)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn side_json(sorted: &[f64], events_per_sec: f64) -> Json {
    Json::obj([
        ("events_per_sec", Json::Num(events_per_sec)),
        ("p50_us", Json::Num(percentile(sorted, 0.50))),
        ("p99_us", Json::Num(percentile(sorted, 0.99))),
    ])
}

/// Measures the SACS-heavy scenario before (full scan) and after
/// (pattern index + scratch reuse) and the compiled-kernel scenario
/// before (plain-id scan) and after (compiled plan), runs instrumented
/// passes for the pruning and plan counters, and writes
/// `BENCH_matching.json` at the workspace root.
fn emit_matching_report() {
    let (summary, events) = sacs_heavy_fixture();
    let passes = report_passes();
    let mut scratch = MatchScratch::new();

    // Warm both paths so first-touch growth is off the books.
    let warm: usize = events
        .iter()
        .map(|e| summary.match_event_into(e, &mut scratch).matched.len())
        .sum();
    std::hint::black_box(warm);

    let (scan_lat, scan_eps) = measure(&events, passes, |e| {
        summary.match_event_scan(e).matched.len()
    });
    let (idx_lat, idx_eps) = measure(&events, passes, |e| {
        summary.match_event_into(e, &mut scratch).matched.len()
    });

    // One instrumented pass for the work counters; the recorder is off
    // during the timed loops above.
    subsum_telemetry::set_enabled(true);
    subsum_telemetry::reset();
    let mut rows_scanned = 0usize;
    let mut rows_pruned = 0usize;
    for e in &events {
        let stats = &summary.match_event_into(e, &mut scratch).stats;
        rows_scanned += stats.rows_scanned;
        rows_pruned += stats.rows_pruned;
    }
    subsum_telemetry::set_enabled(false);
    let counters: std::collections::BTreeMap<String, u64> =
        subsum_telemetry::counters_snapshot().into_iter().collect();
    let counter = |name: &str| Json::UInt(counters.get(name).copied().unwrap_or(0));

    // The compiled-kernel scenario: before is the plain-`SubscriptionId`
    // scan reference, after is the production match path probing the
    // frozen SoA plan with a reused scratch.
    let (dense_summary, dense_events, dense_schema) = compiled_kernel_fixture();
    let mut dense_scratch = MatchScratch::new();
    let warm: usize = dense_events
        .iter()
        .map(|e| {
            dense_summary
                .match_event_into(e, &mut dense_scratch)
                .matched
                .len()
        })
        .sum();
    std::hint::black_box(warm);

    let (dense_scan_lat, dense_scan_eps) = measure(&dense_events, passes, |e| {
        dense_summary.match_event_scan(e).matched.len()
    });
    let (plan_lat, plan_eps) = measure(&dense_events, passes, |e| {
        dense_summary
            .match_event_into(e, &mut dense_scratch)
            .matched
            .len()
    });

    // Plan-build amortization: an insert/remove pair leaves the rows
    // unchanged (the churn subscription can never match) but invalidates
    // the cached plan, so the next match compiles it before probing.
    // The build cost is the first-match latency minus the steady-state
    // median, expressed in events needed to amortize one build.
    let mut churn_summary = dense_summary.clone();
    let mut build_lat = Vec::new();
    const BUILD_TRIALS: usize = 16;
    for t in 0..BUILD_TRIALS {
        let churn = Subscription::builder(&dense_schema)
            .num("num0", subsum_types::NumOp::Ge, 1.0e9)
            .unwrap()
            .build()
            .unwrap();
        let id = churn_summary.insert(BrokerId(15), LocalSubId(70_000 + t as u32), &churn);
        churn_summary.remove(id);
        let e = &dense_events[t % dense_events.len()];
        let t0 = Instant::now();
        std::hint::black_box(
            churn_summary
                .match_event_into(e, &mut dense_scratch)
                .matched
                .len(),
        );
        build_lat.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    build_lat.sort_unstable_by(f64::total_cmp);
    let steady_p50 = percentile(&plan_lat, 0.50);
    let build_p50 = (percentile(&build_lat, 0.50) - steady_p50).max(0.0);
    let amortize_events = build_p50 / steady_p50.max(1e-12);

    // Instrumented compiled-plan pass: one more invalidation, so the
    // pass records exactly one lazy plan rebuild, and a warm scratch, so
    // `match.scratch_grows` proves steady-state zero growth.
    subsum_telemetry::set_enabled(true);
    subsum_telemetry::reset();
    let churn = Subscription::builder(&dense_schema)
        .num("num0", subsum_types::NumOp::Ge, 1.0e9)
        .unwrap()
        .build()
        .unwrap();
    let id = churn_summary.insert(BrokerId(15), LocalSubId(80_000), &churn);
    churn_summary.remove(id);
    let mut plan_matched = 0usize;
    for e in &dense_events {
        plan_matched += churn_summary
            .match_event_into(e, &mut dense_scratch)
            .matched
            .len();
    }
    subsum_telemetry::set_enabled(false);
    let plan_counters: std::collections::BTreeMap<String, u64> =
        subsum_telemetry::counters_snapshot().into_iter().collect();
    let plan_counter = |name: &str| Json::UInt(plan_counters.get(name).copied().unwrap_or(0));

    let report = Json::obj([
        ("name", Json::Str("bench.matching".to_string())),
        ("machine", machine_json()),
        (
            "shard_scaling",
            shard_scaling_json(&dense_summary, &dense_events, passes),
        ),
        (
            "scenario",
            Json::obj([
                ("subscriptions", Json::UInt((SACS_HEAVY_SUBS + 4) as u64)),
                ("events", Json::UInt(events.len() as u64)),
                ("passes", Json::UInt(passes as u64)),
                (
                    "sacs_rows",
                    Json::UInt(SummaryStats::of(&summary).pattern_rows as u64),
                ),
            ]),
        ),
        ("before_full_scan", side_json(&scan_lat, scan_eps)),
        ("after_indexed", side_json(&idx_lat, idx_eps)),
        (
            "throughput_speedup",
            Json::Num(idx_eps / scan_eps.max(1e-12)),
        ),
        (
            "instrumented_pass",
            Json::obj([
                ("rows_scanned", Json::UInt(rows_scanned as u64)),
                ("rows_pruned", Json::UInt(rows_pruned as u64)),
                (names::SACS_INDEX_HITS, counter(names::SACS_INDEX_HITS)),
                (names::SACS_ROWS_PRUNED, counter(names::SACS_ROWS_PRUNED)),
                (
                    names::MATCH_SCRATCH_REUSE,
                    counter(names::MATCH_SCRATCH_REUSE),
                ),
            ]),
        ),
        (
            "compiled_kernel",
            Json::obj([
                (
                    "scenario",
                    Json::obj([
                        ("subscriptions", Json::UInt(DENSE_SUBS as u64)),
                        ("events", Json::UInt(dense_events.len() as u64)),
                        ("passes", Json::UInt(passes as u64)),
                        ("matches_per_pass", Json::UInt(plan_matched as u64)),
                    ]),
                ),
                ("events_per_sec", Json::Num(plan_eps)),
                ("p50_us", Json::Num(percentile(&plan_lat, 0.50))),
                ("p99_us", Json::Num(percentile(&plan_lat, 0.99))),
                (
                    "before_full_scan",
                    side_json(&dense_scan_lat, dense_scan_eps),
                ),
                (
                    "speedup_vs_scan",
                    Json::Num(plan_eps / dense_scan_eps.max(1e-12)),
                ),
                (
                    "plan_build",
                    Json::obj([
                        ("builds_timed", Json::UInt(BUILD_TRIALS as u64)),
                        ("build_p50_us", Json::Num(build_p50)),
                        ("amortized_over_events", Json::Num(amortize_events)),
                    ]),
                ),
                (
                    "instrumented_pass",
                    Json::obj([
                        (
                            names::MATCH_PLAN_REBUILDS,
                            plan_counter(names::MATCH_PLAN_REBUILDS),
                        ),
                        (
                            names::MATCH_PLAN_PROBE_ROWS,
                            plan_counter(names::MATCH_PLAN_PROBE_ROWS),
                        ),
                        (
                            names::MATCH_SCRATCH_GROWS,
                            plan_counter(names::MATCH_SCRATCH_GROWS),
                        ),
                        (
                            names::MATCH_SCRATCH_REUSE,
                            plan_counter(names::MATCH_SCRATCH_REUSE),
                        ),
                    ]),
                ),
            ]),
        ),
    ]);

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_matching.json");
    match std::fs::write(&path, report.to_json_string()) {
        Ok(()) => eprintln!("matching report -> {}", path.display()),
        Err(e) => eprintln!("cannot write matching report {}: {e}", path.display()),
    }
}

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Describes the machine the report was taken on, so scaling numbers can
/// be read in context (a 1-core container cannot show an 8-worker
/// speedup no matter how good the sharding is).
fn machine_json() -> Json {
    let cores = cores();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    #[cfg(target_arch = "x86_64")]
    let cpu_features = {
        let mut f = Vec::new();
        if std::arch::is_x86_feature_detected!("sse2") {
            f.push(Json::Str("sse2".to_string()));
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            f.push(Json::Str("avx2".to_string()));
        }
        f
    };
    #[cfg(not(target_arch = "x86_64"))]
    let cpu_features: Vec<Json> = Vec::new();
    Json::obj([
        ("cores", Json::UInt(cores as u64)),
        ("arch", Json::Str(std::env::consts::ARCH.to_string())),
        ("os", Json::Str(std::env::consts::OS.to_string())),
        ("commit", Json::Str(commit)),
        ("cpu_features", Json::Arr(cpu_features)),
    ])
}

/// The shard-scaling scenario: the compiled-kernel workload behind a
/// [`ShardedSummary`] with [`SCALING_SHARDS`] shards, matched
/// concurrently by 1/2/4/8 worker threads that each pin lock-free
/// snapshots through their own [`ShardScratch`]. Reported per worker
/// count: aggregate events/sec across all workers; `degenerate` marks a
/// sweep taken on one core, whose rows cannot differ. An instrumented
/// single-worker pass (with subscription churn racing it) contributes
/// the shard fan-out, merge-time and snapshot counters.
fn shard_scaling_json(flat: &BrokerSummary, events: &[Event], passes: usize) -> Json {
    let sharded = ShardedSummary::from_flat(flat.clone(), SCALING_SHARDS);

    // Warm one scratch shape so the per-worker warmup below is cheap.
    let mut warm_scratch = ShardScratch::new();
    let warm: usize = events
        .iter()
        .map(|e| sharded.match_event_into(e, &mut warm_scratch).matched.len())
        .sum();
    std::hint::black_box(warm);

    let mut sweep = Vec::new();
    for &workers in &SCALING_WORKERS {
        let wall = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut scratch = ShardScratch::new();
                    let mut total = 0usize;
                    for _ in 0..passes {
                        for e in events {
                            total += sharded.match_event_into(e, &mut scratch).matched.len();
                        }
                    }
                    std::hint::black_box(total);
                });
            }
        });
        let secs = wall.elapsed().as_secs_f64();
        let matched = (workers * passes * events.len()) as f64;
        sweep.push((
            format!("workers_{workers}"),
            Json::obj([
                ("workers", Json::UInt(workers as u64)),
                ("events_per_sec", Json::Num(matched / secs.max(1e-12))),
            ]),
        ));
    }

    // Instrumented pass: one matcher racing live churn, so the snapshot
    // counters show actual pointer flips and deferred reclamations.
    subsum_telemetry::set_enabled(true);
    subsum_telemetry::reset();
    let mut scratch = ShardScratch::new();
    let schema = flat.schema().clone();
    for (i, e) in events.iter().enumerate() {
        std::hint::black_box(sharded.match_event_into(e, &mut scratch).matched.len());
        if i % 8 == 0 {
            let churn = Subscription::builder(&schema)
                .num("num0", subsum_types::NumOp::Ge, 1.0e9)
                .unwrap()
                .build()
                .unwrap();
            let id = sharded.insert(BrokerId(15), LocalSubId(60_000 + i as u32), &churn);
            sharded.remove(id);
        }
    }
    subsum_telemetry::set_enabled(false);
    let counters: std::collections::BTreeMap<String, u64> =
        subsum_telemetry::counters_snapshot().into_iter().collect();
    let counter = |name: &str| Json::UInt(counters.get(name).copied().unwrap_or(0));
    let stats = sharded.snapshot_stats();

    let mut fields = vec![
        ("shards".to_string(), Json::UInt(SCALING_SHARDS as u64)),
        ("events".to_string(), Json::UInt(events.len() as u64)),
        ("passes".to_string(), Json::UInt(passes as u64)),
        ("degenerate".to_string(), Json::Bool(cores() == 1)),
    ];
    fields.extend(sweep);
    fields.push((
        "instrumented_pass".to_string(),
        Json::obj([
            (
                names::MATCH_SHARD_FANOUT,
                counter(names::MATCH_SHARD_FANOUT),
            ),
            (
                names::MATCH_SHARD_MERGE_NS,
                counter(names::MATCH_SHARD_MERGE_NS),
            ),
            (
                names::SUMMARY_SNAPSHOT_FLIPS,
                counter(names::SUMMARY_SNAPSHOT_FLIPS),
            ),
            (
                names::SUMMARY_DEFERRED_RECLAIMS,
                counter(names::SUMMARY_DEFERRED_RECLAIMS),
            ),
            ("snapshot_flips_total", Json::UInt(stats.flips)),
            ("limbo_after_pass", Json::UInt(stats.limbo as u64)),
        ]),
    ));
    Json::obj(fields)
}

/// Measured passes over the event set: a single quick pass in CI smoke
/// mode, enough samples for stable percentiles otherwise.
fn report_passes() -> usize {
    if std::env::var_os("SUBSUM_BENCH_REPORT_ONLY").is_some() {
        1
    } else {
        40
    }
}

/// Runs one instrumented matching pass and writes its `RunReport` to the
/// workspace root. Separate from the timed loops above: the recorder is
/// off while they measure and on only here.
fn emit_stage_report() {
    let mut rng = StdRng::seed_from_u64(0xBE7C);
    let mut workload = Workload::new(PaperParams::default(), 0.7);
    let schema = workload.schema().clone();
    let n = 5000usize;
    let subs: Vec<Subscription> = workload.subscriptions(n, &mut rng);
    let events: Vec<Event> = (0..64).map(|_| workload.event(0.7, &mut rng)).collect();

    subsum_telemetry::set_enabled(true);
    subsum_telemetry::reset();
    let mut summary = BrokerSummary::new(schema);
    for (i, sub) in subs.iter().enumerate() {
        summary.insert(BrokerId(0), LocalSubId(i as u32), sub);
    }
    let matched: usize = events.iter().map(|e| summary.match_event(e).len()).sum();
    let mut report = RunReport::capture("bench.matching");
    subsum_telemetry::set_enabled(false);

    report.embed(
        "workload",
        Json::obj([
            ("subscriptions", Json::UInt(n as u64)),
            ("events", Json::UInt(events.len() as u64)),
            ("candidate_matches", Json::UInt(matched as u64)),
        ]),
    );
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_matching_stages.json");
    match std::fs::write(&path, report.to_json()) {
        Ok(()) => eprintln!("stage report -> {}", path.display()),
        Err(e) => eprintln!("cannot write stage report {}: {e}", path.display()),
    }
}

fn main() {
    emit_matching_report();
    emit_stage_report();
}
