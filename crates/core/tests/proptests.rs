//! Property-based tests for summary invariants: the no-false-negative
//! guarantee under insertion, merging, removal and wire round-trips.

use rand::check::check;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use subsum_core::{
    ArithWidth, BrokerSummary, MatchScratch, PatternSummary, ShardScratch, ShardedSummary,
    SummaryCodec, SummaryDigest,
};
use subsum_types::{
    stock_schema, BrokerId, Event, IdLayout, LocalSubId, NumOp, Schema, StrOp, Subscription,
    SubscriptionId, Value,
};

/// Values drawn from a small shared domain so that subscriptions and
/// events collide often enough to exercise matching.
fn num_value(g: &mut StdRng) -> f64 {
    g.gen_range(-16i32..16) as f64 / 4.0
}

fn str_value(g: &mut StdRng) -> String {
    g.string("ab", 0..=4)
}

const NUM_OPS: [NumOp; 6] = [
    NumOp::Eq,
    NumOp::Ne,
    NumOp::Lt,
    NumOp::Le,
    NumOp::Gt,
    NumOp::Ge,
];

const STR_OPS: [StrOp; 5] = [
    StrOp::Eq,
    StrOp::Ne,
    StrOp::Prefix,
    StrOp::Suffix,
    StrOp::Contains,
];

/// One random constraint: attribute choice decides kind. The stock schema
/// has string attributes {0: exchange, 1: symbol} and arithmetic
/// attributes {2: when, 3: price, 4: volume, 5: high, 6: low}.
#[derive(Debug, Clone)]
enum RawConstraint {
    Num(u16, NumOp, f64),
    Str(u16, StrOp, String),
}

fn raw_constraint(g: &mut StdRng) -> RawConstraint {
    if g.gen() {
        RawConstraint::Num(g.gen_range(2u16..7), g.one_of(&NUM_OPS), num_value(g))
    } else {
        RawConstraint::Str(g.gen_range(0u16..2), g.one_of(&STR_OPS), str_value(g))
    }
}

fn build_sub(schema: &Schema, raw: &[RawConstraint]) -> Option<Subscription> {
    let mut b = Subscription::builder(schema);
    for c in raw {
        b = match c {
            RawConstraint::Num(a, o, v) => {
                let name = &schema.spec(subsum_types::AttrId(*a)).name;
                b.num(name, *o, *v).ok()?
            }
            RawConstraint::Str(a, o, v) => {
                let name = &schema.spec(subsum_types::AttrId(*a)).name;
                b.str_op(name, *o, v).ok()?
            }
        };
    }
    b.build().ok()
}

type RawSub = Vec<RawConstraint>;
type RawEvent = Vec<(u16, RawValue)>;

fn subscription(g: &mut StdRng) -> RawSub {
    g.vec(1..5, raw_constraint)
}

/// A random event covering a random subset of attributes.
fn event_strategy(g: &mut StdRng) -> RawEvent {
    g.vec(0..7, |g| {
        if g.gen() {
            (g.gen_range(2u16..7), RawValue::Num(num_value(g)))
        } else {
            (g.gen_range(0u16..2), RawValue::Str(str_value(g)))
        }
    })
}

/// At most one `*` between two short literals: anchored, prefix, suffix
/// and infix patterns (the regex `[ab]{0,3}\*?[ab]{0,3}`).
fn starred_pattern(g: &mut StdRng) -> String {
    let star = if g.gen() { "*" } else { "" };
    format!("{}{star}{}", g.string("ab", 0..=3), g.string("ab", 0..=3))
}

#[derive(Debug, Clone)]
enum RawValue {
    Num(f64),
    Str(String),
}

fn build_event(schema: &Schema, raw: &[(u16, RawValue)]) -> Event {
    let mut b = Event::builder(schema);
    for (a, v) in raw {
        let name = schema.spec(subsum_types::AttrId(*a)).name.clone();
        b = match v {
            RawValue::Num(x) => b.num(&name, *x).unwrap(),
            RawValue::Str(s) => b.str(&name, s.clone()).unwrap(),
        };
    }
    b.build()
}

/// Runs the deep structural validator on a broker summary. The
/// `validate` methods exist under `cfg(any(test, debug_assertions))`;
/// from an integration test the library's own `test` cfg is off, so the
/// call compiles only in debug builds — release-mode test runs simply
/// skip the deep check instead of failing to build.
fn check_invariants(summary: &BrokerSummary) {
    #[cfg(debug_assertions)]
    summary.validate();
    #[cfg(not(debug_assertions))]
    let _ = summary;
}

/// Same for a standalone SACS pattern summary.
fn check_sacs_invariants(sacs: &PatternSummary) {
    #[cfg(debug_assertions)]
    sacs.validate();
    #[cfg(not(debug_assertions))]
    let _ = sacs;
}

/// The fundamental guarantee: summary matching is a superset of exact
/// matching — no false negatives, ever.
#[test]
fn no_false_negatives() {
    check("no_false_negatives", 128, |g| {
        no_false_negatives_on(&g.vec(1..8, subscription), &g.vec(1..8, event_strategy));
    });
}

fn no_false_negatives_on(subs: &[RawSub], events: &[RawEvent]) {
    let schema = stock_schema();
    let mut summary = BrokerSummary::new(schema.clone());
    let mut exact: Vec<(SubscriptionId, Subscription)> = Vec::new();
    for (i, raw) in subs.iter().enumerate() {
        if let Some(sub) = build_sub(&schema, raw) {
            let id = summary.insert(BrokerId(0), LocalSubId(i as u32), &sub);
            exact.push((id, sub));
        }
    }
    check_invariants(&summary);
    for raw_event in events {
        let event = build_event(&schema, raw_event);
        let matched = summary.match_event(&event);
        for (id, sub) in &exact {
            if sub.matches(&event) {
                assert!(
                    matched.contains(id),
                    "false negative: {sub} matches {event} but summary missed {id}"
                );
            }
        }
    }
}

/// Merging preserves the guarantee for subscriptions of all parties.
#[test]
fn merge_preserves_no_false_negatives() {
    check("merge_preserves_no_false_negatives", 128, |g| {
        let subs_a = g.vec(1..5, subscription);
        let subs_b = g.vec(1..5, subscription);
        let events = g.vec(1..6, event_strategy);
        let schema = stock_schema();
        let mut a = BrokerSummary::new(schema.clone());
        let mut b = BrokerSummary::new(schema.clone());
        let mut exact = Vec::new();
        for (i, raw) in subs_a.iter().enumerate() {
            if let Some(sub) = build_sub(&schema, raw) {
                let id = a.insert(BrokerId(1), LocalSubId(i as u32), &sub);
                exact.push((id, sub));
            }
        }
        for (i, raw) in subs_b.iter().enumerate() {
            if let Some(sub) = build_sub(&schema, raw) {
                let id = b.insert(BrokerId(2), LocalSubId(i as u32), &sub);
                exact.push((id, sub));
            }
        }
        check_invariants(&a);
        check_invariants(&b);
        a.merge(&b);
        check_invariants(&a);
        for raw_event in &events {
            let event = build_event(&schema, raw_event);
            let matched = a.match_event(&event);
            for (id, sub) in &exact {
                if sub.matches(&event) {
                    assert!(matched.contains(id));
                }
            }
        }
    });
}

/// Removing unrelated subscriptions cannot create false negatives for
/// the ones that remain.
#[test]
fn removal_preserves_remaining() {
    check("removal_preserves_remaining", 128, |g| {
        let subs = g.vec(2..8, subscription);
        let remove_mask = g.vec(2..8, |g| g.gen::<bool>());
        let events = g.vec(1..6, event_strategy);
        let schema = stock_schema();
        let mut summary = BrokerSummary::new(schema.clone());
        let mut all = Vec::new();
        for (i, raw) in subs.iter().enumerate() {
            if let Some(sub) = build_sub(&schema, raw) {
                let id = summary.insert(BrokerId(0), LocalSubId(i as u32), &sub);
                all.push((id, sub));
            }
        }
        let mut remaining = Vec::new();
        for (i, (id, sub)) in all.into_iter().enumerate() {
            if remove_mask.get(i).copied().unwrap_or(false) {
                summary.remove(id);
            } else {
                remaining.push((id, sub));
            }
        }
        check_invariants(&summary);
        for raw_event in &events {
            let event = build_event(&schema, raw_event);
            let matched = summary.match_event(&event);
            for (id, sub) in &remaining {
                if sub.matches(&event) {
                    assert!(matched.contains(id));
                }
            }
        }
    });
}

/// Wire round-trip at 8-byte width is the identity, and the decoded
/// summary matches events identically.
#[test]
fn codec_roundtrip() {
    check("codec_roundtrip", 128, |g| {
        codec_roundtrip_on(&g.vec(1..6, subscription), &g.vec(1..4, event_strategy));
    });
}

fn codec_roundtrip_on(subs: &[RawSub], events: &[RawEvent]) {
    let schema = stock_schema();
    let layout = IdLayout::new(24, 1024, schema.len() as u32).unwrap();
    let codec = SummaryCodec::new(layout, ArithWidth::Eight);
    let mut summary = BrokerSummary::new(schema.clone());
    for (i, raw) in subs.iter().enumerate() {
        if let Some(sub) = build_sub(&schema, raw) {
            summary.insert(BrokerId((i % 24) as u16), LocalSubId(i as u32), &sub);
        }
    }
    let bytes = codec.encode(&summary).unwrap();
    let decoded = codec.decode(&bytes, &schema).unwrap();
    check_invariants(&summary);
    check_invariants(&decoded);
    assert_eq!(&decoded, &summary);
    for raw_event in events {
        let event = build_event(&schema, raw_event);
        assert_eq!(decoded.match_event(&event), summary.match_event(&event));
    }
}

/// Match results never contain ids that were not inserted, and every
/// reported id's mask is fully covered by the event's attributes.
#[test]
fn matches_are_known_ids() {
    check("matches_are_known_ids", 128, |g| {
        let subs = g.vec(1..6, subscription);
        let raw_event = event_strategy(g);
        let schema = stock_schema();
        let mut summary = BrokerSummary::new(schema.clone());
        let mut ids = Vec::new();
        for (i, raw) in subs.iter().enumerate() {
            if let Some(sub) = build_sub(&schema, raw) {
                ids.push(summary.insert(BrokerId(0), LocalSubId(i as u32), &sub));
            }
        }
        check_invariants(&summary);
        let event = build_event(&schema, &raw_event);
        for id in summary.match_event(&event) {
            assert!(ids.contains(&id));
            for attr in id.mask.iter() {
                assert!(
                    event.get(attr).is_some(),
                    "matched id {id} constrains {attr} absent from the event"
                );
            }
        }
    });
}

/// Events whose values satisfy no subscription yield empty results
/// when domains are disjoint.
#[test]
fn disjoint_domains_never_match() {
    check("disjoint_domains_never_match", 128, |g| {
        let v = g.gen_range(100f64..200f64);
        let schema = stock_schema();
        let mut summary = BrokerSummary::new(schema.clone());
        let sub = Subscription::builder(&schema)
            .num("price", NumOp::Lt, 50.0)
            .unwrap()
            .build()
            .unwrap();
        summary.insert(BrokerId(0), LocalSubId(0), &sub);
        let event = Event::builder(&schema)
            .set("price", Value::float(v).unwrap())
            .unwrap()
            .build();
        assert!(summary.match_event(&event).is_empty());
    });
}

/// Differential check of the SACS wildcard rows: the compiled plan's
/// probe must return exactly the ids the naive full scan returns, on a
/// summary built by inserts, a merge and removals. Each subscription is
/// one `symbol` pattern drawn from a tiny alphabet with wildcards, so
/// prefix, suffix, infix and literal rows all collide with the values
/// and with each other (covering, absorption, several covering rows).
#[test]
fn pattern_rows_match_like_scan() {
    check("pattern_rows_match_like_scan", 128, |g| {
        let patterns = g.vec(1..64, |g| g.string("ab*", 1..=6));
        let values = g.vec(1..12, |g| g.string("ab", 0..=6));
        let schema = stock_schema();
        // Even-numbered patterns go to `summary`, odd ones to `other`,
        // which is merged in.
        let mut summary = BrokerSummary::new(schema.clone());
        let mut other = BrokerSummary::new(schema.clone());
        let mut ids = Vec::new();
        for (i, text) in patterns.iter().enumerate() {
            if let Some(sub) = pattern_sub(&schema, "symbol", text) {
                let target = if i % 2 == 0 { &mut summary } else { &mut other };
                ids.push(target.insert(BrokerId((i % 2) as u16), LocalSubId(i as u32), &sub));
                check_invariants(target);
            }
        }
        summary.merge(&other);
        check_invariants(&summary);
        let mut scratch = MatchScratch::new();
        let mut assert_like_scan = |summary: &BrokerSummary| {
            for v in &values {
                let event = string_event(&schema, "symbol", v);
                let probed = &summary.match_event_into(&event, &mut scratch).matched;
                let scanned = summary.match_event_scan(&event).matched;
                assert_eq!(
                    probed, &scanned,
                    "value {:?} over patterns {:?}",
                    v, patterns
                );
            }
        };
        assert_like_scan(&summary);
        for id in ids.iter().step_by(3) {
            summary.remove(*id);
            check_invariants(&summary);
        }
        assert_like_scan(&summary);
    });
}

/// A subscription whose one constraint is the glob `text` on `attr`.
fn pattern_sub(schema: &Schema, attr: &str, text: &str) -> Option<Subscription> {
    Subscription::builder(schema)
        .str_pattern(attr, text)
        .ok()?
        .build()
        .ok()
}

/// An event carrying only `attr = value`.
fn string_event(schema: &Schema, attr: &str, value: &str) -> Event {
    Event::builder(schema).str(attr, value).unwrap().build()
}

/// Differential check of the full matcher: the scratch-reusing
/// indexed path returns exactly the same id sets as the naive
/// full-scan matcher. Both outputs are produced sorted, so equality
/// covers ordering too; the scratch is reused across events to also
/// exercise steady-state reuse.
#[test]
fn indexed_matcher_is_identical_to_scan() {
    check("indexed_matcher_is_identical_to_scan", 128, |g| {
        indexed_matcher_is_identical_to_scan_on(
            &g.vec(1..8, subscription),
            &g.vec(1..8, event_strategy),
        );
    });
}

fn indexed_matcher_is_identical_to_scan_on(subs: &[RawSub], events: &[RawEvent]) {
    let schema = stock_schema();
    let mut summary = BrokerSummary::new(schema.clone());
    for (i, raw) in subs.iter().enumerate() {
        if let Some(sub) = build_sub(&schema, raw) {
            summary.insert(BrokerId(0), LocalSubId(i as u32), &sub);
        }
    }
    let mut scratch = MatchScratch::new();
    check_invariants(&summary);
    for raw_event in events {
        let event = build_event(&schema, raw_event);
        let indexed = summary
            .match_event_into(&event, &mut scratch)
            .matched
            .clone();
        let scanned = summary.match_event_scan(&event).matched;
        assert_eq!(indexed, scanned);
    }
}

/// Differential check of the dense epoch-counter kernel on a summary
/// built by merging: the union intern table renumbers both sides'
/// dense postings, after which the kernel must still return exactly
/// what the plain-`SubscriptionId` scan reference returns, in the
/// same sorted order.
#[test]
fn merged_dense_kernel_is_identical_to_scan() {
    check("merged_dense_kernel_is_identical_to_scan", 128, |g| {
        let subs_a = g.vec(1..5, subscription);
        let subs_b = g.vec(1..5, subscription);
        let events = g.vec(1..6, event_strategy);
        let schema = stock_schema();
        let mut a = BrokerSummary::new(schema.clone());
        let mut b = BrokerSummary::new(schema.clone());
        // Interleaved broker ids so the union table mixes both sides'
        // dense spaces instead of concatenating them.
        for (i, raw) in subs_a.iter().enumerate() {
            if let Some(sub) = build_sub(&schema, raw) {
                a.insert(BrokerId((i % 3) as u16 * 2), LocalSubId(i as u32), &sub);
            }
        }
        for (i, raw) in subs_b.iter().enumerate() {
            if let Some(sub) = build_sub(&schema, raw) {
                b.insert(BrokerId((i % 3) as u16 * 2 + 1), LocalSubId(i as u32), &sub);
            }
        }
        a.merge(&b);
        check_invariants(&a);
        let mut scratch = MatchScratch::new();
        for raw_event in &events {
            let event = build_event(&schema, raw_event);
            let dense = a.match_event_into(&event, &mut scratch).matched.clone();
            let scanned = a.match_event_scan(&event).matched;
            assert_eq!(dense, scanned);
        }
    });
}

/// Differential check of the dense kernel after a wire round-trip:
/// decode rebuilds the intern table from scratch, and the rebuilt
/// dense state must match both the scan reference and the original
/// summary event-for-event.
#[test]
fn decoded_dense_kernel_is_identical_to_scan() {
    check("decoded_dense_kernel_is_identical_to_scan", 128, |g| {
        decoded_dense_kernel_is_identical_to_scan_on(
            &g.vec(1..6, subscription),
            &g.vec(1..6, event_strategy),
        );
    });
}

fn decoded_dense_kernel_is_identical_to_scan_on(subs: &[RawSub], events: &[RawEvent]) {
    let schema = stock_schema();
    let layout = IdLayout::new(24, 1024, schema.len() as u32).unwrap();
    let codec = SummaryCodec::new(layout, ArithWidth::Eight);
    let mut summary = BrokerSummary::new(schema.clone());
    for (i, raw) in subs.iter().enumerate() {
        if let Some(sub) = build_sub(&schema, raw) {
            summary.insert(BrokerId((i % 24) as u16), LocalSubId(i as u32), &sub);
        }
    }
    let bytes = codec.encode(&summary).unwrap();
    let decoded = codec.decode(&bytes, &schema).unwrap();
    check_invariants(&decoded);
    let mut scratch = MatchScratch::new();
    for raw_event in events {
        let event = build_event(&schema, raw_event);
        let dense = decoded
            .match_event_into(&event, &mut scratch)
            .matched
            .clone();
        let scanned = decoded.match_event_scan(&event).matched;
        assert_eq!(&dense, &scanned);
        assert_eq!(dense, summary.match_event(&event));
    }
}

/// Wire round-trip of summaries holding wildcard rows on both string
/// attributes. The decoder re-inserts every row, so the decoded
/// pattern rows must pass deep validation and match identically to the
/// original's.
#[test]
fn decoded_pattern_rows_answer_identically() {
    check("decoded_pattern_rows_answer_identically", 128, |g| {
        let patterns = g.vec(1..10, starred_pattern);
        let values = g.vec(1..10, |g| g.string("ab", 0..=6));
        let schema = stock_schema();
        let layout = IdLayout::new(24, 1024, schema.len() as u32).unwrap();
        let codec = SummaryCodec::new(layout, ArithWidth::Eight);
        let mut summary = BrokerSummary::new(schema.clone());
        for (i, text) in patterns.iter().enumerate() {
            // Alternate between the two string attributes so both SACS
            // instances are exercised.
            let attr = if i % 2 == 0 { "exchange" } else { "symbol" };
            if let Some(sub) = pattern_sub(&schema, attr, text) {
                summary.insert(BrokerId((i % 24) as u16), LocalSubId(i as u32), &sub);
            }
        }
        let bytes = codec.encode(&summary).unwrap();
        let decoded = codec.decode(&bytes, &schema).unwrap();
        check_invariants(&decoded);
        for attr in [subsum_types::AttrId(0), subsum_types::AttrId(1)] {
            assert_eq!(
                decoded.string_summary(attr).is_none(),
                summary.string_summary(attr).is_none()
            );
            if let Some(dec) = decoded.string_summary(attr) {
                check_sacs_invariants(dec);
            }
        }
        let (mut want, mut got) = (MatchScratch::new(), MatchScratch::new());
        for v in &values {
            for attr in ["exchange", "symbol"] {
                let event = string_event(&schema, attr, v);
                assert_eq!(
                    decoded.match_event_into(&event, &mut got).matched,
                    summary.match_event_into(&event, &mut want).matched,
                    "{event:?}"
                );
            }
        }
    });
}

/// Differential check of the compiled-plan kernel on churn-built
/// summaries: after interleaved inserts and removals (which
/// invalidate and lazily recompile the plan), the plan path
/// (`match_event_into`) and the naive `match_event_scan` must
/// return identical sorted id sets — and compiling the plan must
/// leave the wire bytes and digest untouched, since plans are
/// derived state that never travels.
#[test]
fn plan_kernel_identical_to_scan_under_churn() {
    check("plan_kernel_identical_to_scan_under_churn", 128, |g| {
        let subs = g.vec(2..8, subscription);
        let more = g.vec(1..5, subscription);
        let remove_mask = g.vec(2..8, |g| g.gen::<bool>());
        let events = g.vec(1..6, event_strategy);
        let schema = stock_schema();
        let layout = IdLayout::new(24, 1024, schema.len() as u32).unwrap();
        let codec = SummaryCodec::new(layout, ArithWidth::Eight);
        let mut summary = BrokerSummary::new(schema.clone());
        let mut inserted = Vec::new();
        for (i, raw) in subs.iter().enumerate() {
            if let Some(sub) = build_sub(&schema, raw) {
                inserted.push(summary.insert(BrokerId(0), LocalSubId(i as u32), &sub));
            }
        }
        // Interleave matching with the churn so stale plans are compiled,
        // invalidated by the removals, and recompiled.
        if let Some(raw_event) = events.first() {
            summary.match_event(&build_event(&schema, raw_event));
        }
        for (i, id) in inserted.iter().enumerate() {
            if remove_mask.get(i).copied().unwrap_or(false) {
                summary.remove(*id);
            }
        }
        for (i, raw) in more.iter().enumerate() {
            if let Some(sub) = build_sub(&schema, raw) {
                summary.insert(BrokerId(1), LocalSubId(1000 + i as u32), &sub);
            }
        }
        check_invariants(&summary);
        let bytes_before = codec.encode(&summary).unwrap();
        let digest_before = summary.digest();
        let mut plan_scratch = MatchScratch::new();
        for raw_event in &events {
            let event = build_event(&schema, raw_event);
            let plan = summary
                .match_event_into(&event, &mut plan_scratch)
                .matched
                .clone();
            assert_eq!(plan, summary.match_event_scan(&event).matched);
        }
        // Matching compiled and cached a plan; the canonical
        // representation must be byte-identical to before.
        check_invariants(&summary);
        assert_eq!(codec.encode(&summary).unwrap(), bytes_before);
        assert_eq!(summary.digest(), digest_before);
    });
}

/// The compiled plan also agrees with the scan oracle on merged and
/// wire-roundtripped summaries, where the intern table was
/// renumbered (merge) or rebuilt from scratch (decode).
#[test]
fn plan_kernel_identical_to_scan_on_merged_and_decoded() {
    check(
        "plan_kernel_identical_to_scan_on_merged_and_decoded",
        128,
        |g| {
            let subs_a = g.vec(1..5, subscription);
            let subs_b = g.vec(1..5, subscription);
            let events = g.vec(1..6, event_strategy);
            let schema = stock_schema();
            let layout = IdLayout::new(24, 1024, schema.len() as u32).unwrap();
            let codec = SummaryCodec::new(layout, ArithWidth::Eight);
            let mut a = BrokerSummary::new(schema.clone());
            let mut b = BrokerSummary::new(schema.clone());
            for (i, raw) in subs_a.iter().enumerate() {
                if let Some(sub) = build_sub(&schema, raw) {
                    a.insert(BrokerId((i % 3) as u16 * 2), LocalSubId(i as u32), &sub);
                }
            }
            for (i, raw) in subs_b.iter().enumerate() {
                if let Some(sub) = build_sub(&schema, raw) {
                    b.insert(BrokerId((i % 3) as u16 * 2 + 1), LocalSubId(i as u32), &sub);
                }
            }
            a.merge(&b);
            check_invariants(&a);
            let decoded = codec.decode(&codec.encode(&a).unwrap(), &schema).unwrap();
            check_invariants(&decoded);
            let mut plan_scratch = MatchScratch::new();
            for raw_event in &events {
                let event = build_event(&schema, raw_event);
                for summary in [&a, &decoded] {
                    let plan = summary
                        .match_event_into(&event, &mut plan_scratch)
                        .matched
                        .clone();
                    assert_eq!(plan, summary.match_event_scan(&event).matched);
                }
            }
        },
    );
}

/// An event carrying exactly the attributes `attrs`, each with a random
/// value of its kind.
fn event_on(g: &mut StdRng, attrs: &[u16]) -> RawEvent {
    attrs
        .iter()
        .map(|&a| {
            let value = if a < 2 {
                RawValue::Str(str_value(g))
            } else {
                RawValue::Num(num_value(g))
            };
            (a, value)
        })
        .collect()
}

/// Events over attribute subsets of the 7-attribute stock schema: none,
/// one, all, and the workload model's `n_t / 2` — the shapes where the
/// plan's mask filter skips none, most or some of the postings.
fn partial_events(g: &mut StdRng) -> Vec<RawEvent> {
    let mut attrs: Vec<u16> = (0..7).collect();
    let one = [g.gen_range(0u16..7)];
    let all = event_on(g, &attrs);
    attrs.shuffle(g);
    vec![
        Vec::new(),
        event_on(g, &one),
        all,
        event_on(g, &attrs[..attrs.len() / 2]),
    ]
}

/// The plan with its mask filter against the scan oracle, which counts
/// every posting, on events that lack attributes — over insert-, merge-,
/// churn- and decode-built summaries, with `sharded == flat` on the
/// one-partition store the ledger's reference rows build.
#[test]
fn plan_kernel_identical_to_scan_on_partial_events() {
    check(
        "plan_kernel_identical_to_scan_on_partial_events",
        128,
        |g| {
            let subs_a = g.vec(1..6, subscription);
            let subs_b = g.vec(1..6, subscription);
            let remove_mask = g.vec(1..6, |g| g.gen::<bool>());
            let events: Vec<RawEvent> = (0..2).flat_map(|_| partial_events(g)).collect();
            let schema = stock_schema();
            let layout = IdLayout::new(24, 1024, schema.len() as u32).unwrap();
            let codec = SummaryCodec::new(layout, ArithWidth::Eight);
            let mut inserted = BrokerSummary::new(schema.clone());
            let mut other = BrokerSummary::new(schema.clone());
            let mut ids = Vec::new();
            for (i, raw) in subs_a.iter().enumerate() {
                if let Some(sub) = build_sub(&schema, raw) {
                    ids.push(inserted.insert(
                        BrokerId((i % 3) as u16 * 2),
                        LocalSubId(i as u32),
                        &sub,
                    ));
                }
            }
            for (i, raw) in subs_b.iter().enumerate() {
                if let Some(sub) = build_sub(&schema, raw) {
                    other.insert(BrokerId((i % 3) as u16 * 2 + 1), LocalSubId(i as u32), &sub);
                }
            }
            let mut merged = inserted.clone();
            merged.merge(&other);
            let mut churned = merged.clone();
            for (id, remove) in ids.iter().zip(&remove_mask) {
                if *remove {
                    churned.remove(*id);
                }
            }
            let decoded = codec
                .decode(&codec.encode(&merged).unwrap(), &schema)
                .unwrap();
            let mut flat_scratch = MatchScratch::new();
            let mut shard_scratch = ShardScratch::new();
            for summary in [&inserted, &merged, &churned, &decoded] {
                check_invariants(summary);
                let sharded = ShardedSummary::from_flat(summary.clone(), 1);
                for raw_event in &events {
                    let event = build_event(&schema, raw_event);
                    let flat = summary
                        .match_event_into(&event, &mut flat_scratch)
                        .matched
                        .clone();
                    assert_eq!(flat, summary.match_event_scan(&event).matched, "{event}");
                    let got = &sharded.match_event_into(&event, &mut shard_scratch).matched;
                    assert_eq!(got, &flat, "sharded {event}");
                }
            }
        },
    );
}

type SubsEventsProperty = fn(&[RawSub], &[RawEvent]);

/// Every property over (subscriptions, events), for the recorded cases
/// below.
const SUBS_EVENTS_PROPERTIES: [SubsEventsProperty; 4] = [
    no_false_negatives_on,
    codec_roundtrip_on,
    indexed_matcher_is_identical_to_scan_on,
    decoded_dense_kernel_is_identical_to_scan_on,
];

/// A once-failing input: one subscription whose two constraints on the
/// same attribute exclude each other, and an event with no attributes.
#[test]
fn contradictory_constraints_and_an_empty_event() {
    let subs = [vec![
        RawConstraint::Num(2, NumOp::Eq, 0.0),
        RawConstraint::Num(2, NumOp::Gt, 0.0),
    ]];
    for property in SUBS_EVENTS_PROPERTIES {
        property(&subs, &[vec![]]);
    }
}

/// A once-failing input: a `!=` row and an overlapping `>` row on one
/// attribute, and an event with no attributes.
#[test]
fn ne_row_beside_gt_row_and_an_empty_event() {
    let subs = [
        vec![RawConstraint::Num(3, NumOp::Ne, 0.0)],
        vec![RawConstraint::Num(3, NumOp::Gt, -0.25)],
    ];
    for property in SUBS_EVENTS_PROPERTIES {
        property(&subs, &[vec![]]);
    }
}

/// Removal leaves a dead intern slot behind, and no reader may see it.
/// Seeded insert / remove / re-insert / merge sequences — some
/// removal-heavy enough to cross the compaction threshold, some merging
/// a side that holds dead slots — are checked after every step: the
/// summary validates; it equals, digests and encodes as its compacted
/// clone (merged into an empty summary, which drops dead slots); it
/// survives a wire round trip; and its compiled matcher agrees with the
/// scan and reports no removed id.
#[test]
fn dead_slots_are_invisible() {
    check("dead_slots_are_invisible", 128, |g| {
        let schema = stock_schema();
        let layout = IdLayout::new(1 << 8, 1 << 12, schema.len() as u32).unwrap();
        let codec = SummaryCodec::new(layout, ArithWidth::Eight);
        let events: Vec<Event> = g
            .vec(1..4, event_strategy)
            .iter()
            .map(|raw| build_event(&schema, raw))
            .collect();
        let mut summary = BrokerSummary::new(schema.clone());
        // Live ids with their subscriptions, and removed ones that may
        // come back under the same id.
        let mut live: Vec<(SubscriptionId, Subscription)> = Vec::new();
        let mut removed: Vec<(SubscriptionId, Subscription)> = Vec::new();
        let mut next_local = 0u32;
        let mut fresh = |g: &mut StdRng, brokers: std::ops::Range<u16>| {
            let sub = build_sub(&schema, &subscription(g))?;
            next_local += 1;
            let broker = BrokerId(g.gen_range(brokers));
            let id = SubscriptionId::new(broker, LocalSubId(next_local), sub.attr_mask());
            Some((id, sub))
        };
        let churn = g.gen_range(4..14);
        for _ in 0..g.gen_range(8..60) {
            let op = g.gen_range(0..20);
            if op < churn {
                // Remove a live id, or (a no-op) one already removed.
                let pool = if live.is_empty() || g.gen_range(0..8) == 0 {
                    &mut removed
                } else {
                    &mut live
                };
                if !pool.is_empty() {
                    let entry = pool.swap_remove(g.gen_range(0..pool.len()));
                    summary.remove(entry.0);
                    removed.push(entry);
                }
            } else if op < churn + 3 {
                if !removed.is_empty() {
                    let (id, sub) = removed.swap_remove(g.gen_range(0..removed.len()));
                    summary.insert_with_id(id, &sub);
                    live.push((id, sub));
                }
            } else if op == 19 {
                // A side from other brokers, with dead slots of its own.
                let mut side = BrokerSummary::new(schema.clone());
                let mut side_live = Vec::new();
                for _ in 0..g.gen_range(1..8) {
                    if let Some((id, sub)) = fresh(g, 8..12) {
                        side.insert_with_id(id, &sub);
                        side_live.push((id, sub));
                    }
                }
                for _ in 0..side_live.len() / 2 {
                    let (id, _) = side_live.swap_remove(g.gen_range(0..side_live.len()));
                    side.remove(id);
                }
                if g.gen() {
                    summary.merge(&side);
                } else {
                    side.merge(&summary);
                    summary = side;
                }
                live.extend(side_live);
            } else if let Some((id, sub)) = fresh(g, 0..4) {
                summary.insert_with_id(id, &sub);
                live.push((id, sub));
            }
            assert_reads_as_compacted(&summary, &codec, &events, &live);
        }
    });
}

/// Merges lay spare slots at the end of every broker's block and later
/// σ-sized merges fill them in place. Interleaves merges that land in
/// spares, a batch that exhausts a block's spares and respaces, the
/// removal of an id that took a spare, revival by insert and by merge,
/// and merges in either direction with a side that holds spares; after
/// every step the summary reads as a compacted one.
#[test]
fn free_slots_are_invisible() {
    check("free_slots_are_invisible", 128, |g| {
        let schema = stock_schema();
        let layout = IdLayout::new(1 << 8, 1 << 12, schema.len() as u32).unwrap();
        let codec = SummaryCodec::new(layout, ArithWidth::Eight);
        let events: Vec<Event> = g
            .vec(1..4, event_strategy)
            .iter()
            .map(|raw| build_event(&schema, raw))
            .collect();
        let mut live: Vec<(SubscriptionId, Subscription)> = Vec::new();
        let mut removed: Vec<(SubscriptionId, Subscription)> = Vec::new();
        // Local ids ascend, so each broker's new ids rank at the end of
        // its block, where the spares are.
        let mut next_local = 0u32;
        let mut batch = |g: &mut StdRng, n: usize, brokers: std::ops::Range<u16>| {
            let mut subs = Vec::new();
            for _ in 0..n {
                next_local += 1;
                if let Some(sub) = build_sub(&schema, &subscription(g)) {
                    let broker = BrokerId(g.gen_range(brokers.clone()));
                    let id = SubscriptionId::new(broker, LocalSubId(next_local), sub.attr_mask());
                    subs.push((id, sub));
                }
            }
            subs.sort_by_key(|(id, _)| *id);
            subs
        };
        let summary_of = |subs: &[(SubscriptionId, Subscription)]| {
            BrokerSummary::rebuild(schema.clone(), subs.iter().map(|(id, sub)| (*id, sub)))
        };
        // The base comes out of a merge, so its blocks end in spares.
        let mut summary = BrokerSummary::new(schema.clone());
        let n = g.gen_range(4..24);
        let base = batch(g, n, 0..4);
        summary.merge(&summary_of(&base));
        live.extend(base);
        assert_reads_as_compacted(&summary, &codec, &events, &live);
        for _ in 0..g.gen_range(8..40) {
            match g.gen_range(0..12) {
                // A σ-merge: lands in spares while they last.
                0..=3 => {
                    let n = g.gen_range(1..4);
                    let delta = batch(g, n, 0..4);
                    summary.merge(&summary_of(&delta));
                    live.extend(delta);
                }
                // One broker's batch outgrows its spares: a respace.
                4 => {
                    let broker = g.gen_range(0..4);
                    let n = g.gen_range(4..12);
                    let delta = batch(g, n, broker..broker + 1);
                    summary.merge(&summary_of(&delta));
                    live.extend(delta);
                }
                // Remove a recent id (one that most likely took a
                // spare), or any live one.
                5 | 6 => {
                    if !live.is_empty() {
                        let k = if g.gen() {
                            live.len() - 1
                        } else {
                            g.gen_range(0..live.len())
                        };
                        let entry = live.swap_remove(k);
                        summary.remove(entry.0);
                        removed.push(entry);
                    }
                }
                // Revival, by insert or by merge.
                7 | 8 => {
                    if !removed.is_empty() {
                        let entry = removed.swap_remove(g.gen_range(0..removed.len()));
                        if g.gen() {
                            summary.insert_with_id(entry.0, &entry.1);
                        } else {
                            summary.merge(&summary_of(std::slice::from_ref(&entry)));
                        }
                        live.push(entry);
                    }
                }
                // A side that holds spares (and perhaps dead slots),
                // merged in either direction.
                9 | 10 => {
                    let brokers = if g.gen() { 0..4 } else { 8..12 };
                    let n = g.gen_range(1..10);
                    let mut side_live = batch(g, n, brokers);
                    let mut side = BrokerSummary::new(schema.clone());
                    side.merge(&summary_of(&side_live));
                    if g.gen() && !side_live.is_empty() {
                        let (id, _) = side_live.swap_remove(g.gen_range(0..side_live.len()));
                        side.remove(id);
                    }
                    if g.gen() {
                        summary.merge(&side);
                    } else {
                        side.merge(&summary);
                        summary = side;
                    }
                    live.extend(side_live);
                }
                // An own-style insert of a fresh id.
                _ => {
                    if let Some(entry) = batch(g, 1, 0..4).pop() {
                        summary.insert_with_id(entry.0, &entry.1);
                        live.push(entry);
                    }
                }
            }
            assert_reads_as_compacted(&summary, &codec, &events, &live);
        }
    });
}

/// The digest computed from every row, past the summary's cache. The
/// uncached path exists in debug builds (like `validate`); a release
/// run merges the summary into an empty one, whose cache starts empty.
fn fresh_digest(summary: &BrokerSummary) -> SummaryDigest {
    #[cfg(debug_assertions)]
    return summary.digest_uncached();
    #[cfg(not(debug_assertions))]
    {
        let mut fresh = BrokerSummary::new(summary.schema().clone());
        fresh.merge(summary);
        fresh.digest()
    }
}

/// Two to four constraints on one string attribute, perhaps with an
/// arithmetic one: the insert summarises them among themselves first.
fn multi_string_subscription(g: &mut StdRng) -> RawSub {
    let attr = g.gen_range(0u16..2);
    let mut raw = g.vec(2..5, |g| {
        RawConstraint::Str(attr, g.one_of(&STR_OPS), str_value(g))
    });
    if g.gen() {
        raw.push(RawConstraint::Num(
            g.gen_range(2u16..7),
            g.one_of(&NUM_OPS),
            num_value(g),
        ));
    }
    raw
}

/// A summary caches its digest per attribute and drops only the entries
/// a mutation touched. Random sequences of every mutation — inserts
/// (multi-constraint string ones among them), removals down to
/// compaction, σ-merges into spares and ones that respace,
/// `merge_decoded`, decode, and a clone mutated apart from its original
/// — leave the digest equal to one computed from every row after each
/// step (and `validate` cross-checks each cached entry).
#[test]
fn cached_digest_equals_a_fresh_digest() {
    check("cached_digest_equals_a_fresh_digest", 128, |g| {
        let schema = stock_schema();
        let layout = IdLayout::new(1 << 8, 1 << 12, schema.len() as u32).unwrap();
        let codec = SummaryCodec::new(layout, ArithWidth::Eight);
        let mut next_local = 0u32;
        let mut batch = |g: &mut StdRng,
                         n: std::ops::Range<usize>,
                         brokers: std::ops::Range<u16>| {
            let mut subs = Vec::new();
            for _ in 0..g.gen_range(n) {
                next_local += 1;
                let raw = if g.gen() {
                    multi_string_subscription(g)
                } else {
                    subscription(g)
                };
                if let Some(sub) = build_sub(&schema, &raw) {
                    let broker = BrokerId(g.gen_range(brokers.clone()));
                    let id = SubscriptionId::new(broker, LocalSubId(next_local), sub.attr_mask());
                    subs.push((id, sub));
                }
            }
            subs.sort_by_key(|(id, _)| *id);
            subs
        };
        let summary_of = |subs: &[(SubscriptionId, Subscription)]| {
            BrokerSummary::rebuild(schema.clone(), subs.iter().map(|(id, sub)| (*id, sub)))
        };
        let assert_fresh = |summary: &BrokerSummary, what: &str| {
            check_invariants(summary);
            let fresh = fresh_digest(summary);
            assert_eq!(summary.digest(), fresh, "after {what}");
            assert_eq!(summary.digest(), fresh, "a second digest after {what}");
        };
        let mut live: Vec<(SubscriptionId, Subscription)> = Vec::new();
        let mut summary = BrokerSummary::new(schema.clone());
        assert_fresh(&summary, "nothing");
        for _ in 0..g.gen_range(8..40) {
            let what = match g.gen_range(0..16) {
                // Own inserts, out of order now and then.
                0..=3 => {
                    let brokers = if g.gen() { 0..1 } else { 0..4 };
                    for entry in batch(g, 1..4, brokers) {
                        summary.insert_with_id(entry.0, &entry.1);
                        live.push(entry);
                    }
                    "insert"
                }
                // Removals, often enough to compact.
                4..=6 => {
                    for _ in 0..g.gen_range(1..=live.len().max(1)) {
                        if !live.is_empty() {
                            let (id, _) = live.swap_remove(g.gen_range(0..live.len()));
                            summary.remove(id);
                        }
                    }
                    "remove"
                }
                // A σ-merge: into spares while they last.
                7 | 8 => {
                    let delta = batch(g, 1..3, 0..4);
                    summary.merge(&summary_of(&delta));
                    live.extend(delta);
                    "σ-merge"
                }
                // One broker's batch outgrows its spares: a respace.
                9 => {
                    let broker = g.gen_range(0..4);
                    let delta = batch(g, 4..12, broker..broker + 1);
                    summary.merge(&summary_of(&delta));
                    live.extend(delta);
                    "respacing merge"
                }
                // A delta off the wire, as a daemon's view takes it.
                10 | 11 => {
                    let delta = batch(g, 1..4, 0..8);
                    let bytes = codec.encode(&summary_of(&delta)).unwrap();
                    codec.merge_decoded(&bytes, &mut summary).unwrap();
                    live.extend(delta);
                    "merge_decoded"
                }
                // The whole summary off the wire.
                12 => {
                    let bytes = codec.encode(&summary).unwrap();
                    summary = codec.decode(&bytes, &schema).unwrap();
                    "decode"
                }
                // A clone mutated apart: neither side's cache follows
                // the other's mutation.
                _ => {
                    let original = summary.clone();
                    let before = original.digest();
                    let delta = batch(g, 1..3, 0..8);
                    for entry in &delta {
                        summary.insert_with_id(entry.0, &entry.1);
                    }
                    if let Some((id, _)) = live.first() {
                        summary.remove(*id);
                        live.swap_remove(0);
                    }
                    live.extend(delta);
                    assert_eq!(original.digest(), before);
                    assert_fresh(&original, "the clone's mutation");
                    "clone, then mutate"
                }
            };
            assert_fresh(&summary, what);
        }
    });
}

/// The checks of `dead_slots_are_invisible` and
/// `free_slots_are_invisible` after one step.
fn assert_reads_as_compacted(
    summary: &BrokerSummary,
    codec: &SummaryCodec,
    events: &[Event],
    live: &[(SubscriptionId, Subscription)],
) {
    let schema = summary.schema();
    check_invariants(summary);
    // Two other layouts of the same content: a decoded copy is compact,
    // and a merge into an empty summary lays fresh spares.
    let bytes = codec.encode(summary).unwrap();
    let compact = codec.decode(&bytes, schema).unwrap();
    let mut respaced = BrokerSummary::new(schema.clone());
    respaced.merge(summary);
    for other in [&compact, &respaced] {
        check_invariants(other);
        assert_eq!(summary, other);
        assert_eq!(summary.digest(), other.digest());
        assert_eq!(bytes, codec.encode(other).unwrap());
    }
    assert_eq!(
        summary.subscription_count(),
        summary.subscription_ids().len()
    );
    let mut scratch = MatchScratch::new();
    for event in events {
        let matched = summary
            .match_event_into(event, &mut scratch)
            .matched
            .clone();
        assert_eq!(matched, summary.match_event_scan(event).matched);
        assert!(matched.iter().all(|m| live.iter().any(|(id, _)| id == m)));
    }
}
