//! The frozen operation counts of every workload.
//!
//! Counts — never time slices — define a run: the same seed and the
//! same counts do the same work on every commit, so a faster program
//! finishes sooner instead of doing more. They were calibrated once on
//! the 2-core reference box so that one run takes about
//! `BENCHMARK.json`'s `run_seconds`; `--seconds` scales the operation
//! counts proportionally (populations and pools stay fixed, so the
//! system under test is the same size), and `--smoke` shrinks both for
//! the seconds-long CI check. The README's calibration record lists the
//! measured duration of every phase at these counts.

use crate::daemons::DaemonCounts;
use crate::overlay::OverlayCounts;

#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Multiplier on operation counts (events, rounds, periods).
    pub ops: f64,
    /// Multiplier on populations and pools.
    pub population: f64,
}

impl Scale {
    pub fn new(seconds: f64, declared_seconds: f64, smoke: bool) -> Scale {
        let ops = seconds / declared_seconds.max(1.0);
        if smoke {
            Scale {
                ops: ops * 0.01,
                population: 0.02,
            }
        } else {
            Scale {
                ops,
                population: 1.0,
            }
        }
    }

    fn ops(self, n: usize, floor: usize) -> usize {
        ((n as f64 * self.ops).round() as usize).max(floor)
    }

    fn pop(self, n: usize, floor: usize) -> usize {
        ((n as f64 * self.population).round() as usize).max(floor)
    }
}

pub fn overlay(name: &str, s: Scale) -> OverlayCounts {
    match name {
        "overlay-steady" => OverlayCounts {
            resident_per_broker: s.pop(2_000, 40),
            pool: s.pop(768, 48),
            warmup: s.pop(2_000, 64),
            rounds: 6,
            publish_passes: s.ops(22, 2),
            periods: s.ops(112, 4),
            arrivals: 48,
            departures: 0,
            burst: false,
            full_every: 0,
        },
        _ => OverlayCounts {
            resident_per_broker: s.pop(1_200, 40),
            pool: s.pop(576, 48),
            warmup: s.pop(2_000, 64),
            rounds: 6,
            publish_passes: 0,
            periods: s.ops(30, 10),
            arrivals: s.pop(1_440, 8),
            departures: s.pop(1_440, 8),
            burst: true,
            full_every: 10,
        },
    }
}

pub fn daemon(name: &str, s: Scale) -> DaemonCounts {
    match name {
        "daemon-fanout" => DaemonCounts {
            nt: 4,
            resident: 0,
            live: 40,
            pool: s.pop(512, 64),
            hit_every: 1,
            warmup: s.pop(2_000, 50),
            setup_reps: 7,
            round_passes: s.ops(440, 4),
            stream_slices: s.ops(40, 2),
            stream_slice_passes: 16,
            probes: s.ops(150, 3),
        },
        _ => DaemonCounts {
            nt: 10,
            resident: s.pop(10_000, 400),
            live: 30,
            pool: s.pop(480, 48),
            hit_every: 4,
            warmup: s.pop(2_000, 50),
            setup_reps: 5,
            round_passes: s.ops(560, 4),
            stream_slices: s.ops(40, 2),
            stream_slice_passes: 6,
            probes: s.ops(60, 3),
        },
    }
}
