//! Log-bucketed latency histograms with lock-free recording.
//!
//! A [`Histogram`] keeps one bucket per power of two — bucket *i* counts
//! samples whose bit length is *i*, i.e. values in `[2^(i-1), 2^i − 1]`
//! (bucket 0 holds exact zeros). Recording is a handful of relaxed
//! atomic operations; reading produces an immutable [`Snapshot`] from
//! which p50/p90/p99/max are derived. Snapshots over the same bucket
//! layout merge exactly: merging two snapshots yields the snapshot one
//! would have obtained by recording the union of their samples into a
//! single histogram.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per possible bit length of a `u64` (0..=64).
pub const NUM_BUCKETS: usize = 65;

/// The largest value bucket `i` can hold (its percentile representative).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// The bucket index for a sample: its bit length.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// A concurrent log-bucketed histogram of `u64` samples (nanoseconds on
/// the instrumented paths). All operations use relaxed atomics; there
/// are no locks anywhere.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
    }

    /// The number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Resets every bucket and statistic to the empty state.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
    }

    /// An immutable copy of the current state.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
        }
    }
}

/// An immutable, mergeable histogram snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Per-bucket sample counts ([`NUM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Largest sample, 0 when empty.
    pub max: u64,
    /// Smallest sample, `u64::MAX` when empty.
    pub min: u64,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        Snapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// Folds `other` into `self`. Merging equals recording the union of
    /// the two sample multisets into one histogram.
    pub fn merge(&mut self, other: &Snapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// The `q`-quantile (`q` in `[0, 1]`), estimated as the upper bound
    /// of the bucket containing the target rank, clamped to the recorded
    /// maximum. Monotone in `q` and never exceeds [`Snapshot::max`];
    /// returns 0 for an empty snapshot.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// The 99.9th percentile — [`Snapshot::percentile`] at `q = 0.999`.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// The largest recorded sample (accessor form of the `max` field;
    /// 0 when empty). `percentile(1.0)` equals this by construction.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The arithmetic mean, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn empty_snapshot_is_inert() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s, Snapshot::empty());
    }

    #[test]
    fn percentiles_track_samples() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 100);
        assert_eq!(s.min, 1);
        let p50 = s.percentile(0.5);
        let p90 = s.percentile(0.9);
        let p99 = s.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99 && p99 <= s.max);
        // p50 of 1..=100 lands in the bucket of rank 50 (value 50,
        // bucket upper 63).
        assert_eq!(p50, 63);
        assert_eq!((s.mean() * 2.0).round() as u64, 101);
    }

    #[test]
    fn percentile_one_returns_top_recorded_value_not_bucket_overshoot() {
        // Regression: the log-bucket upper bound of the last occupied
        // bucket can exceed the true maximum (e.g. 100 lives in the
        // bucket whose upper bound is 127). percentile(1.0) must clamp
        // to the recorded max, not the bucket bound.
        let h = Histogram::new();
        for v in [3u64, 40, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(1.0), 100);
        assert_eq!(s.percentile(1.0), s.max());
        assert_eq!(s.max(), s.max);
        // p999 sits between p99 and max and never overshoots either.
        assert!(s.percentile(0.99) <= s.p999());
        assert!(s.p999() <= s.max());
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record(7);
        h.reset();
        assert_eq!(h.snapshot(), Snapshot::empty());
    }

    #[test]
    fn merge_equals_union() {
        let a_samples = [1u64, 5, 9, 1000];
        let b_samples = [0u64, 2, 2, 70_000, u64::MAX];
        let ha = Histogram::new();
        let hb = Histogram::new();
        let hu = Histogram::new();
        for &v in &a_samples {
            ha.record(v);
            hu.record(v);
        }
        for &v in &b_samples {
            hb.record(v);
            hu.record(v);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        assert_eq!(merged, hu.snapshot());
    }
}
