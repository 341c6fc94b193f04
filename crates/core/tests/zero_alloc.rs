//! Steady-state allocation check for `BrokerSummary::match_event_into`.
//!
//! A counting allocator wraps the system allocator. After warm-up passes
//! have grown a reused [`MatchScratch`] to its high-water capacity,
//! further matches over the same event population must perform zero heap
//! allocations: the whole point of the scratch API is that a broker's
//! steady-state matching loop never touches the allocator.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use subsum_core::{BrokerSummary, MatchScratch, ShardScratch, ShardedSummary};
use subsum_types::{stock_schema, BrokerId, Event, LocalSubId, NumOp, StrOp, Subscription};

use counting_alloc::allocations;

#[test]
fn match_event_into_allocates_nothing_at_steady_state() {
    let schema = stock_schema();
    let mut summary = BrokerSummary::new(schema.clone());

    // A mixed population: arithmetic ranges and points, string prefixes,
    // suffixes and literals, so both the AACS and the SACS query
    // paths run during every match.
    let subs: Vec<Subscription> = vec![
        Subscription::builder(&schema)
            .num("price", NumOp::Lt, 50.0)
            .unwrap()
            .build()
            .unwrap(),
        Subscription::builder(&schema)
            .num("price", NumOp::Ge, 10.0)
            .unwrap()
            .num("volume", NumOp::Le, 900.0)
            .unwrap()
            .build()
            .unwrap(),
        Subscription::builder(&schema)
            .num("volume", NumOp::Eq, 500.0)
            .unwrap()
            .build()
            .unwrap(),
        Subscription::builder(&schema)
            .str_op("symbol", StrOp::Prefix, "AA")
            .unwrap()
            .build()
            .unwrap(),
        Subscription::builder(&schema)
            .str_op("symbol", StrOp::Suffix, "PL")
            .unwrap()
            .build()
            .unwrap(),
        Subscription::builder(&schema)
            .str_op("symbol", StrOp::Eq, "MSFT")
            .unwrap()
            .str_op("exchange", StrOp::Contains, "YS")
            .unwrap()
            .build()
            .unwrap(),
    ];
    for (i, sub) in subs.iter().enumerate() {
        summary.insert(BrokerId(0), LocalSubId(i as u32), sub);
    }

    let events: Vec<Event> = vec![
        Event::builder(&schema)
            .num("price", 25.0)
            .unwrap()
            .num("volume", 500.0)
            .unwrap()
            .str("symbol", "AAPL".to_string())
            .unwrap()
            .build(),
        Event::builder(&schema)
            .num("price", 75.0)
            .unwrap()
            .str("symbol", "MSFT".to_string())
            .unwrap()
            .str("exchange", "NYSE".to_string())
            .unwrap()
            .build(),
        Event::builder(&schema)
            .num("volume", 123.0)
            .unwrap()
            .str("symbol", "GOOG".to_string())
            .unwrap()
            .build(),
    ];

    let mut scratch = MatchScratch::new();

    // Sanity: the fixture actually matches something, otherwise the test
    // could pass by matching trivially empty work.
    let warm: usize = events
        .iter()
        .map(|e| summary.match_event_into(e, &mut scratch).matched.len())
        .sum();
    assert!(warm > 0, "fixture must produce matches");

    // The count is per thread, so parallel tests cannot disturb the
    // measured region; the retries only absorb one-off lazy set-up on
    // this thread. A real per-event allocation in the matcher shows up
    // on every attempt.
    const PASSES: usize = 100;
    let mut zero_delta = false;
    let mut last_delta = u64::MAX;
    for _ in 0..5 {
        let before = allocations();
        let mut total = 0usize;
        for _ in 0..PASSES {
            for e in &events {
                total += summary.match_event_into(e, &mut scratch).matched.len();
            }
        }
        std::hint::black_box(total);
        last_delta = allocations() - before;
        if last_delta == 0 {
            zero_delta = true;
            break;
        }
    }
    assert!(
        zero_delta,
        "steady-state match_event_into allocated ({last_delta} allocations \
         across {PASSES} passes)"
    );
}

/// The compiled-plan epoch-counter kernel at a large subscription
/// population: once warm-up has compiled the plan and grown the scratch
/// counter arrays to the summary's dense-id space, matching must stay
/// allocation-free even when hundreds of candidates are touched per
/// event across several attributes.
#[test]
fn plan_kernel_allocates_nothing_with_large_population() {
    let schema = stock_schema();
    let mut summary = BrokerSummary::new(schema.clone());

    // 600 subscriptions over three attributes: overlapping price bands
    // (every event value lands in many rows), volume points, and a cycle
    // of symbol prefixes, with every third subscription constraining two
    // attributes so the counter threshold varies across dense ids.
    for i in 0..600u32 {
        let lo = (i % 50) as f64;
        let mut b = Subscription::builder(&schema)
            .num("price", NumOp::Ge, lo)
            .unwrap()
            .num("price", NumOp::Lt, lo + 25.0)
            .unwrap();
        if i % 3 == 0 {
            let prefix = [b'A' + (i % 26) as u8];
            b = b
                .str_op(
                    "symbol",
                    StrOp::Prefix,
                    std::str::from_utf8(&prefix).unwrap(),
                )
                .unwrap();
        }
        if i % 7 == 0 {
            b = b.num("volume", NumOp::Eq, (i % 10) as f64 * 100.0).unwrap();
        }
        summary.insert(BrokerId(1), LocalSubId(i), &b.build().unwrap());
    }

    let events: Vec<Event> = (0..8)
        .map(|k| {
            let symbol = [b'A' + (k as u8 * 3) % 26];
            Event::builder(&schema)
                .num("price", 10.0 + k as f64 * 5.0)
                .unwrap()
                .num("volume", (k % 10) as f64 * 100.0)
                .unwrap()
                .str("symbol", String::from_utf8(symbol.to_vec()).unwrap())
                .unwrap()
                .build()
        })
        .collect();

    let mut scratch = MatchScratch::new();
    let warm: usize = events
        .iter()
        .map(|e| summary.match_event_into(e, &mut scratch).matched.len())
        .sum();
    assert!(warm > 0, "fixture must produce matches");

    const PASSES: usize = 50;
    let mut zero_delta = false;
    let mut last_delta = u64::MAX;
    for _ in 0..5 {
        let before = allocations();
        let mut total = 0usize;
        for _ in 0..PASSES {
            for e in &events {
                total += summary.match_event_into(e, &mut scratch).matched.len();
            }
        }
        std::hint::black_box(total);
        last_delta = allocations() - before;
        if last_delta == 0 {
            zero_delta = true;
            break;
        }
    }
    assert!(
        zero_delta,
        "large-population plan kernel allocated ({last_delta} allocations \
         across {PASSES} passes)"
    );
}

/// The compiled-plan probe path specifically: a mutation invalidates the
/// cached [`MatchPlan`], the next match recompiles it (warm-up — that
/// pass may allocate), and every match after that probes the frozen plan
/// with zero allocations. The population deliberately stacks several
/// wildcard patterns and a literal on the same string attribute so the
/// multi-contributor dedup path (seen-stamp postings walk) runs every
/// event, alongside AACS range and point banks.
#[test]
fn compiled_plan_probe_allocates_nothing_once_plan_is_warm() {
    let schema = stock_schema();
    let mut summary = BrokerSummary::new(schema.clone());

    for i in 0..400u32 {
        let lo = (i % 40) as f64;
        let mut b = Subscription::builder(&schema)
            .num("price", NumOp::Ge, lo)
            .unwrap()
            .num("price", NumOp::Lt, lo + 20.0)
            .unwrap();
        // Overlapping prefix, suffix and literal rows on `symbol`: every
        // probe of the attribute selects several candidate rows, so the
        // dedup (multi-contributor) postings walk is exercised.
        b = match i % 4 {
            0 => b.str_op("symbol", StrOp::Prefix, "AB").unwrap(),
            1 => b.str_op("symbol", StrOp::Suffix, "BA").unwrap(),
            2 => b.str_op("symbol", StrOp::Eq, "ABBA").unwrap(),
            _ => b.str_op("symbol", StrOp::Contains, "BB").unwrap(),
        };
        if i % 5 == 0 {
            b = b.num("volume", NumOp::Eq, (i % 8) as f64 * 100.0).unwrap();
        }
        summary.insert(BrokerId(2), LocalSubId(i), &b.build().unwrap());
    }

    let events: Vec<Event> = (0..6)
        .map(|k| {
            Event::builder(&schema)
                .num("price", 5.0 + k as f64 * 6.0)
                .unwrap()
                .num("volume", (k % 8) as f64 * 100.0)
                .unwrap()
                .str("symbol", "ABBA".to_string())
                .unwrap()
                .build()
        })
        .collect();

    let mut scratch = MatchScratch::new();

    // First warm-up: compiles the initial plan and grows the scratch.
    let mut warm: usize = events
        .iter()
        .map(|e| summary.match_event_into(e, &mut scratch).matched.len())
        .sum();

    // Invalidate the cached plan with one more insert, then warm up
    // again — this pass recompiles the plan (allocations allowed).
    let extra = Subscription::builder(&schema)
        .num("price", NumOp::Lt, 1.0)
        .unwrap()
        .build()
        .unwrap();
    summary.insert(BrokerId(2), LocalSubId(400), &extra);
    warm += events
        .iter()
        .map(|e| summary.match_event_into(e, &mut scratch).matched.len())
        .sum::<usize>();
    assert!(warm > 0, "fixture must produce matches");

    const PASSES: usize = 50;
    let mut zero_delta = false;
    let mut last_delta = u64::MAX;
    for _ in 0..5 {
        let before = allocations();
        let mut total = 0usize;
        for _ in 0..PASSES {
            for e in &events {
                total += summary.match_event_into(e, &mut scratch).matched.len();
            }
        }
        std::hint::black_box(total);
        last_delta = allocations() - before;
        if last_delta == 0 {
            zero_delta = true;
            break;
        }
    }
    assert!(
        zero_delta,
        "compiled-plan probe path allocated ({last_delta} allocations \
         across {PASSES} passes)"
    );
}

/// SACS literal rows are not compiled into the plan: a warm probe looks
/// the value up in the source summary's literal map and tests each
/// posting's `c3` mask against the event. That lookup and test must be
/// as allocation-free as the compiled runs.
#[test]
fn a_warm_probe_through_a_literal_row_allocates_nothing() {
    let schema = stock_schema();
    let mut summary = BrokerSummary::new(schema.clone());
    for i in 0..300u32 {
        let symbol = format!("S{}", i % 30);
        let mut b = Subscription::builder(&schema)
            .str_op("symbol", StrOp::Eq, &symbol)
            .unwrap();
        // Half the ids also constrain `price`, which only some events
        // carry, so the per-posting mask test admits and rejects.
        if i % 2 == 0 {
            b = b.num("price", NumOp::Lt, 50.0).unwrap();
        }
        summary.insert(BrokerId(3), LocalSubId(i), &b.build().unwrap());
    }
    let symbol = schema.attr_id("symbol").unwrap();
    let literal_rows = summary
        .string_summary(symbol)
        .unwrap()
        .rows()
        .filter(|(p, _)| p.as_literal().is_some())
        .count();
    assert_eq!(literal_rows, 30, "every symbol is a literal row");

    let events: Vec<Event> = ["S3", "S22", "S7"]
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let b = Event::builder(&schema)
                .str("symbol", s.to_string())
                .unwrap();
            if k % 2 == 0 {
                b.num("price", 10.0).unwrap().build()
            } else {
                b.build()
            }
        })
        .collect();

    let mut scratch = MatchScratch::new();
    let warm: usize = events
        .iter()
        .map(|e| summary.match_event_into(e, &mut scratch).matched.len())
        .sum();
    assert!(warm > 0, "fixture must produce matches");

    const PASSES: usize = 100;
    let mut zero_delta = false;
    let mut last_delta = u64::MAX;
    for _ in 0..5 {
        let before = allocations();
        let mut total = 0usize;
        for _ in 0..PASSES {
            for e in &events {
                total += summary.match_event_into(e, &mut scratch).matched.len();
            }
        }
        std::hint::black_box(total);
        last_delta = allocations() - before;
        if last_delta == 0 {
            zero_delta = true;
            break;
        }
    }
    assert!(
        zero_delta,
        "literal-row probe allocated ({last_delta} allocations across {PASSES} passes)"
    );
}

/// The one-partition store's steady-state match path: taking the
/// current snapshot is one lock and one `Arc` clone — no allocation —
/// and the probe reuses the scratch, so once a per-worker
/// [`ShardScratch`] is warm, matching through a [`ShardedSummary`] must
/// be as allocation-free as the flat kernel. Two scratches stand in for
/// two workers.
#[test]
fn sharded_match_allocates_nothing_at_steady_state() {
    let schema = stock_schema();
    let mut flat = BrokerSummary::new(schema.clone());
    for i in 0..600u32 {
        let lo = (i % 50) as f64;
        let mut b = Subscription::builder(&schema)
            .num("price", NumOp::Ge, lo)
            .unwrap()
            .num("price", NumOp::Lt, lo + 25.0)
            .unwrap();
        if i % 3 == 0 {
            let prefix = [b'A' + (i % 26) as u8];
            b = b
                .str_op(
                    "symbol",
                    StrOp::Prefix,
                    std::str::from_utf8(&prefix).unwrap(),
                )
                .unwrap();
        }
        if i % 7 == 0 {
            b = b.num("volume", NumOp::Eq, (i % 10) as f64 * 100.0).unwrap();
        }
        flat.insert(BrokerId(1), LocalSubId(i), &b.build().unwrap());
    }
    let sharded = ShardedSummary::from_flat(flat, 1);

    let events: Vec<Event> = (0..8)
        .map(|k| {
            let symbol = [b'A' + (k as u8 * 3) % 26];
            Event::builder(&schema)
                .num("price", 10.0 + k as f64 * 5.0)
                .unwrap()
                .num("volume", (k % 10) as f64 * 100.0)
                .unwrap()
                .str("symbol", String::from_utf8(symbol.to_vec()).unwrap())
                .unwrap()
                .build()
        })
        .collect();

    let mut workers = [ShardScratch::new(), ShardScratch::new()];
    let mut warm = 0usize;
    for scratch in &mut workers {
        for e in &events {
            warm += sharded.match_event_into(e, scratch).matched.len();
        }
    }
    assert!(warm > 0, "fixture must produce matches");

    const PASSES: usize = 50;
    let mut zero_delta = false;
    let mut last_delta = u64::MAX;
    for _ in 0..5 {
        let before = allocations();
        let mut total = 0usize;
        for _ in 0..PASSES {
            for scratch in &mut workers {
                for e in &events {
                    total += sharded.match_event_into(e, scratch).matched.len();
                }
            }
        }
        std::hint::black_box(total);
        last_delta = allocations() - before;
        if last_delta == 0 {
            zero_delta = true;
            break;
        }
    }
    assert!(
        zero_delta,
        "steady-state sharded match path allocated ({last_delta} allocations \
         across {PASSES} passes)"
    );
}
