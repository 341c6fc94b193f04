//! Benchmark harness for the subscription-summarization reproduction.
//!
//! One bench per paper table/figure plus microbenchmarks, each a plain
//! `main` (no external harness):
//!
//! * `fig8_bandwidth`, `fig9_hops`, `fig10_event_hops`, `fig11_storage` —
//!   regenerate the corresponding figure (each bench prints the table it
//!   measured);
//! * `matching` — §5.2.4 matching cost, writes `BENCH_matching.json` and
//!   `BENCH_matching_stages.json`;
//! * `trace_overhead` — the tracing tax, writes
//!   `BENCH_trace_overhead.json`;
//! * `summary_ops` — insert/merge/encode/decode throughput;
//! * `pattern` — glob matching and covering micro-costs.
//!
//! The two report benches carry their own timed passes; the other six
//! share [`time`]. Run all of them with `cargo bench --workspace`.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Times `work` and prints one line: the median, fastest and slowest of
/// `samples` timed samples per run of `work`, and the median per item
/// (`items` is what one run processes: events, subscriptions, bytes).
///
/// A sample repeats `work` often enough to last about five
/// milliseconds, so the clock's resolution stays out of a
/// microsecond-sized run; the first, untimed call both warms the caches
/// and sizes that repeat count.
pub fn time<T>(name: &str, items: u64, samples: usize, mut work: impl FnMut() -> T) {
    let start = Instant::now();
    std::hint::black_box(work());
    let once = start.elapsed().max(Duration::from_nanos(1));
    let repeats = (Duration::from_millis(5).as_nanos() / once.as_nanos()).max(1) as u32;

    let mut runs: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..repeats {
                std::hint::black_box(work());
            }
            start.elapsed() / repeats
        })
        .collect();
    runs.sort_unstable();
    let median = runs[runs.len() / 2];
    println!(
        "{name}: median {median:?} per run ({:.1} ns per item), fastest {:?}, slowest {:?}, \
         {} samples of {repeats} runs",
        median.as_nanos() as f64 / items.max(1) as f64,
        runs[0],
        runs[runs.len() - 1],
        runs.len(),
    );
}
