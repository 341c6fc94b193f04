//! Latency samples grouped into equal-work slices, and the one slice
//! statistic every timed end-to-end metric is reported with.
//!
//! # Why not one mean or one median per phase
//!
//! The reference box is a 2-vCPU guest with neighbours. A pure-CPU
//! loop timed there in 7 ms pieces has two modes — a fast one and one
//! about 1.45× slower — that alternate many times a second, and the
//! share of time spent in the slow one wanders between a fifth and
//! three fifths from one 5-second window to the next. Over twenty such
//! windows the fastest piece moved by ±4 %, the 10th percentile by
//! ±4 %, the lower quartile by ±7 %, the **median by ±15 %** and the
//! upper quartile by ±17 % (the README's calibration record has the
//! table). A phase-wide mean or median therefore reads the weather, not
//! the program: ten runs of `overlay-steady` reported with the median
//! across slices spread by 0.29 on `publish_per_s`.
//!
//! Interference on this box only ever *adds* time, and it comes and
//! goes faster than a phase lasts. So every phase is cut into many
//! slices of **identical work** (one full pass over the event pool, one
//! mutation period, one probe, a fixed number of streamed publishes),
//! short enough — 50 to 150 ms — that some of them run undisturbed.
//! Each slice yields its own rate (operations ÷ its wall time, so every
//! stall *inside* a slice counts against it) and its own latency
//! median, and the reported value is **one fixed statistic across
//! slices, the same for every processor-bound timed metric on every
//! workload: the quiet decile** — the 90th percentile of slice rates
//! ([`QUIET_RATE`]), the 10th percentile of slice times
//! ([`QUIET_TIME`]). With 60 or more slices that is at least the
//! sixth-best slice, not a lucky extreme. (The daemons' round phase,
//! run on one CPU so that it *is* processor-bound, has one 20–40 ms
//! slice per pass over its pool, 440 or more of them. The one exception
//! is the daemons' mutate phase, where a probe waits out one or two
//! 40 ms kernel timers and the median across probes is what repeats.)
//!
//! What the quiet decile cannot see is a cost of the program that hits
//! fewer than nine slices in ten — something with a period longer than
//! a slice. The per-layer table therefore carries the same quantities
//! as the median across slices and as the phase total
//! (`ledger.publish_median_per_s`, `ledger.publish_median_p50_us`,
//! `ledger.publish_phase_per_s`); a change that moves those and not the
//! end-to-end value is exactly that kind of cost.
//!
//! A change to the program moves every slice and therefore any
//! quantile; a neighbour's burst moves only the slices it hits.
//!
//! # Classes
//!
//! Where a workload's slices are *not* all the same work by design —
//! `overlay-churn` runs a full propagation every tenth period, so a
//! slice's cost depends on its position in that cycle — every slice
//! carries a class (the cycle position), the quantile is taken within
//! each class, and the metric is the mean over classes. Every position
//! of the cycle therefore counts, and none is compared with a slice
//! that did different work.

use std::time::Duration;

use crate::stats;

/// The one statistic every timed end-to-end metric reports: the quiet
/// decile across slices — the 90th percentile of slice rates, the 10th
/// percentile of slice times.
pub const QUIET_RATE: f64 = 0.9;
pub const QUIET_TIME: f64 = 0.1;
/// The median across slices: `ledger.*_median_*` per-layer rows, set
/// beside the quiet deciles, every other per-layer row that is a slice
/// statistic, and the daemons' timer-bound mutate metrics.
pub const MEDIAN: f64 = 0.5;

/// A per-slice value tagged with the slice's class.
pub type Classed = (u16, f64);

/// Mean over classes of the `q`-quantile of the class's slice values;
/// 0 for no slices.
pub fn slice_quantile(values: &[Classed], q: f64) -> f64 {
    let mut classes: Vec<u16> = values.iter().map(|(c, _)| *c).collect();
    classes.sort_unstable();
    classes.dedup();
    let per_class: Vec<f64> = classes
        .iter()
        .map(|class| {
            let mut v: Vec<f64> = values
                .iter()
                .filter(|(c, _)| c == class)
                .map(|(_, v)| *v)
                .collect();
            stats::sort(&mut v);
            stats::quantile_sorted(&v, q)
        })
        .collect();
    stats::mean(&per_class)
}

/// Nanosecond latency samples with slice boundaries.
#[derive(Debug, Default)]
pub struct Sliced {
    all: Vec<u32>,
    delivering: Vec<u32>,
    /// Per closed slice: end offsets into `all` / `delivering`, the
    /// slice's wall time in seconds, and its class.
    cuts: Vec<(usize, usize, f64, u16)>,
}

impl Sliced {
    pub fn with_capacity(samples: usize) -> Sliced {
        Sliced {
            all: Vec::with_capacity(samples),
            delivering: Vec::with_capacity(samples),
            cuts: Vec::new(),
        }
    }

    /// Records one operation; `delivered` marks the operations that
    /// count towards the delivery latency.
    pub fn push(&mut self, ns: u32, delivered: bool) {
        self.all.push(ns);
        if delivered {
            self.delivering.push(ns);
        }
    }

    /// Records a delivery latency that is measured separately from the
    /// operation's own latency (the daemons' ack and last `Deliver`).
    pub fn push_delivery(&mut self, ns: u32) {
        self.delivering.push(ns);
    }

    /// Closes the current slice of class `class`; `wall` is what the
    /// slice took.
    pub fn cut(&mut self, wall: Duration, class: u16) {
        self.cuts.push((
            self.all.len(),
            self.delivering.len(),
            wall.as_secs_f64(),
            class,
        ));
    }

    pub fn slices(&self) -> usize {
        self.cuts.len()
    }

    pub fn samples(&self) -> (usize, usize) {
        (self.all.len(), self.delivering.len())
    }

    /// Wall time of all closed slices together, in seconds.
    pub fn wall_s(&self) -> f64 {
        self.cuts.iter().map(|&(_, _, wall, _)| wall).sum()
    }

    /// Operations per second of each slice.
    pub fn rates(&self) -> Vec<Classed> {
        let mut from = 0;
        self.cuts
            .iter()
            .map(|&(upto, _, wall, class)| {
                let n = upto - from;
                from = upto;
                (class, n as f64 / wall.max(f64::MIN_POSITIVE))
            })
            .collect()
    }

    /// Per-slice median latency in microseconds: all operations, and
    /// the delivering ones (slices without a delivery are skipped).
    pub fn slice_medians_us(&mut self) -> (Vec<Classed>, Vec<Classed>) {
        let (mut all, mut delivering) = (Vec::new(), Vec::new());
        let (mut a0, mut d0) = (0, 0);
        for &(a1, d1, _, class) in &self.cuts {
            if a1 > a0 {
                all.push((class, stats::median_ns(&mut self.all[a0..a1]) / 1e3));
            }
            if d1 > d0 {
                delivering.push((class, stats::median_ns(&mut self.delivering[d0..d1]) / 1e3));
            }
            (a0, d0) = (a1, d1);
        }
        (all, delivering)
    }

    /// The 99th percentile over every sample, in microseconds (a
    /// per-layer row only: tails on a shared box do not repeat).
    pub fn p99_us(&mut self) -> (f64, f64) {
        (
            stats::quantile_ns(&mut self.all, 0.99) / 1e3,
            stats::quantile_ns(&mut self.delivering, 0.99) / 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_deciles_ignore_a_disturbed_half() {
        // Every other slice disturbed (1.5× slower).
        let rates: Vec<Classed> = (0..40)
            .map(|i| (0, if i % 2 == 0 { 660.0 } else { 1000.0 }))
            .collect();
        assert_eq!(slice_quantile(&rates, 0.9), 1000.0);
        let lats: Vec<Classed> = rates.iter().map(|(c, r)| (*c, 1e6 / r)).collect();
        assert_eq!(slice_quantile(&lats, 0.1), 1000.0);
        // A change that moves every slice moves the decile with it.
        let slower: Vec<Classed> = rates.iter().map(|(c, r)| (*c, r * 0.9)).collect();
        assert!((slice_quantile(&slower, 0.9) - 900.0).abs() < 1e-9);
    }

    #[test]
    fn classes_are_judged_apart_and_averaged() {
        // Class 1 does twice the work of class 0 by design.
        let lats: Vec<Classed> = (0..20)
            .map(|i| ((i % 2) as u16, if i % 2 == 0 { 10.0 } else { 20.0 }))
            .collect();
        assert_eq!(slice_quantile(&lats, 0.1), 15.0);
        assert_eq!(slice_quantile(&[], 0.1), 0.0);
    }

    #[test]
    fn slices_keep_their_own_medians_and_rates() {
        let mut s = Sliced::with_capacity(8);
        for ns in [1_000, 2_000, 3_000] {
            s.push(ns, ns == 2_000);
        }
        s.cut(Duration::from_millis(3), 0);
        for ns in [10_000, 20_000] {
            s.push(ns, true);
        }
        s.cut(Duration::from_millis(4), 1);
        assert_eq!(s.slices(), 2);
        assert_eq!(s.samples(), (5, 3));
        assert_eq!(s.rates(), vec![(0, 1000.0), (1, 500.0)]);
        let (all, delivering) = s.slice_medians_us();
        assert_eq!(all, vec![(0, 2.0), (1, 15.0)]);
        assert_eq!(delivering, vec![(0, 2.0), (1, 15.0)]);
        let (p99, _) = s.p99_us();
        assert!(p99 > 15.0 && p99 <= 20.0);
    }
}
