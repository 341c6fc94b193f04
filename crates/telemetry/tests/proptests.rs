//! Property-based tests for the telemetry histogram: percentile
//! monotonicity and exact snapshot mergeability.

use rand::check::check;
use rand::Rng;

use subsum_telemetry::{Histogram, Snapshot};

fn record_all(samples: &[u64]) -> Snapshot {
    let h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h.snapshot()
}

/// p50 ≤ p90 ≤ p99 ≤ max: quantile estimates are monotone in the
/// quantile and bounded by the exact recorded maximum.
#[test]
fn percentiles_are_monotone() {
    check("percentiles_are_monotone", 256, |g| {
        let samples = g.vec(0..300, |g| g.gen::<u64>());
        let s = record_all(&samples);
        let p50 = s.percentile(0.50);
        let p90 = s.percentile(0.90);
        let p99 = s.percentile(0.99);
        assert!(p50 <= p90);
        assert!(p90 <= p99);
        assert!(p99 <= s.max);
        if let Some(&true_max) = samples.iter().max() {
            assert_eq!(s.max, true_max);
            assert_eq!(s.min, *samples.iter().min().unwrap());
            assert_eq!(s.count, samples.len() as u64);
        } else {
            assert_eq!(s.percentile(0.99), 0);
        }
    });
}

/// Quantile estimates never undershoot the true quantile: the
/// reported value is an upper bound of the bucket holding the true
/// rank statistic.
#[test]
fn percentiles_bound_true_quantiles() {
    check("percentiles_bound_true_quantiles", 256, |g| {
        let mut samples = g.vec(1..300, |g| g.gen::<u64>());
        let q = g.gen_range(0.0f64..=1.0);
        let s = record_all(&samples);
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let true_quantile = samples[rank - 1];
        assert!(s.percentile(q) >= true_quantile);
    });
}

/// Merging two snapshots equals recording the union of their sample
/// multisets into one histogram — bucket-exactly, including count,
/// sum, min and max.
#[test]
fn snapshot_merge_equals_union() {
    check("snapshot_merge_equals_union", 256, |g| {
        let a = g.vec(0..200, |g| g.gen::<u64>());
        let b = g.vec(0..200, |g| g.gen::<u64>());
        let mut merged = record_all(&a);
        merged.merge(&record_all(&b));
        let union: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(merged, record_all(&union));
    });
}

/// Merging the empty snapshot is the identity.
#[test]
fn merge_with_empty_is_identity() {
    check("merge_with_empty_is_identity", 256, |g| {
        let a = g.vec(0..200, |g| g.gen::<u64>());
        let mut merged = record_all(&a);
        merged.merge(&Snapshot::empty());
        assert_eq!(merged, record_all(&a));
    });
}
