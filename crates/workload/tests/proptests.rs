//! Property-based tests for the workload generators: structural
//! guarantees the experiments rely on.

use rand::check::check;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use subsum_workload::popularity::{
    event_for, interest_schema, interest_subscription, random_matched_set,
};
use subsum_workload::{PaperParams, Workload, Zipf};

/// Generated subscriptions always carry the Table 2 attribute mix
/// and are satisfiable.
#[test]
fn subscriptions_have_paper_shape() {
    check("subscriptions_have_paper_shape", 256, |g| {
        let seed = g.gen_range(0u64..500);
        let p = g.gen_range(0.0f64..=1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = Workload::new(PaperParams::default(), p);
        for _ in 0..10 {
            let sub = w.subscription(&mut rng);
            assert_eq!(sub.attr_mask().count(), 5);
            assert!(sub.is_satisfiable());
        }
    });
}

/// Events carry the expected attribute count and valid kinds.
#[test]
fn events_have_paper_shape() {
    check("events_have_paper_shape", 256, |g| {
        let seed = g.gen_range(0u64..500);
        let hit = g.gen_range(0.0f64..=1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = Workload::new(PaperParams::default(), 0.5);
        let schema = w.schema().clone();
        for _ in 0..10 {
            let e = w.event(hit, &mut rng);
            assert_eq!(e.len(), 5);
            for (attr, value) in e.iter() {
                assert!(schema.kind(attr).accepts(value), "kind mismatch at {attr}");
            }
        }
    });
}

/// The popularity workload produces events matching exactly the
/// drawn broker set, for any population and popularity.
#[test]
fn popularity_events_are_exact() {
    check("popularity_events_are_exact", 256, |g| {
        let seed = g.gen_range(0u64..500);
        let brokers = g.gen_range(2usize..40);
        let popularity = g.gen_range(0.0f64..=1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = interest_schema();
        let matched = random_matched_set(brokers, popularity, &mut rng);
        assert!(!matched.is_empty());
        assert!(matched.len() <= brokers);
        let event = event_for(&schema, &matched);
        for b in 0..brokers as u16 {
            let sub = interest_subscription(&schema, b);
            assert_eq!(sub.matches(&event), matched.contains(&b), "broker {}", b);
        }
    });
}

/// Zipf sampling stays in range and rank-0 is (weakly) most likely.
#[test]
fn zipf_within_range() {
    check("zipf_within_range", 256, |g| {
        let seed = g.gen_range(0u64..200);
        let n = g.gen_range(1usize..50);
        let alpha = g.gen_range(0.0f64..2.5);
        let z = Zipf::new(n, alpha);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; n];
        for _ in 0..200 {
            let r = z.sample(&mut rng);
            assert!(r < n);
            counts[r] += 1;
        }
        if n > 1 && alpha >= 1.0 {
            let max = *counts.iter().max().unwrap();
            // Rank 0 should be near the top (within sampling noise).
            assert!(counts[0] * 3 >= max, "counts {counts:?}");
        }
    });
}

/// Distinct workloads never emit colliding "unique" values: two
/// non-subsumed subscriptions from one workload never cover each
/// other.
#[test]
fn fresh_values_are_distinct() {
    check("fresh_values_are_distinct", 256, |g| {
        let seed = g.gen_range(0u64..200);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = Workload::new(PaperParams::default(), 0.0);
        let subs = w.subscriptions(12, &mut rng);
        for (i, a) in subs.iter().enumerate() {
            for (j, b) in subs.iter().enumerate() {
                if i != j {
                    assert!(!a.covers(b), "{a} covers {b}");
                }
            }
        }
    });
}
