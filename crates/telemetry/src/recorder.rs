//! The global recorder: a process-wide registry of named counters,
//! gauges and stage histograms behind one enable flag.
//!
//! Design constraints (the instrumented paths are the broker hot paths):
//!
//! * **Disabled is free.** Every instrumentation entry point first loads
//!   one relaxed [`AtomicBool`]; when the recorder is off nothing else
//!   happens — no clock reads, no lookups, no locks.
//! * **Enabled is lock-free on the event path.** Call sites cache their
//!   metric handle in a per-site [`OnceLock`] ([`Stage`], [`Count`]);
//!   the registry mutex is only taken on the first hit of each site
//!   (and by [`reset`]/snapshot readers, which are off the event path).
//!
//! Handles are interned with `Box::leak`, so they are `&'static` and
//! survive [`reset`] (which zeroes values in place).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::hist::{Histogram, Snapshot};

/// A monotonically increasing event counter (relaxed atomics).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// An instantaneous signed measurement, e.g. a queue depth.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the current value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the current value by `delta`.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the global recorder is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the global recorder on or off. Off by default, so benchmarks
/// and production paths pay only one relaxed load per instrumentation
/// site.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Locks one registry map, recovering from poisoning instead of
/// panicking: a map only ever gains leaked entries, so one abandoned
/// mid-insert is still structurally sound.
fn locked<'a, T>(
    map: &'a Mutex<BTreeMap<&'static str, &'static T>>,
) -> MutexGuard<'a, BTreeMap<&'static str, &'static T>> {
    map.lock().unwrap_or_else(PoisonError::into_inner)
}

fn intern<T>(
    map: &Mutex<BTreeMap<&'static str, &'static T>>,
    name: &str,
    make: fn() -> T,
) -> &'static T {
    let mut map = locked(map);
    if let Some(&existing) = map.get(name) {
        return existing;
    }
    let leaked_name: &'static str = Box::leak(name.to_owned().into_boxed_str());
    let handle: &'static T = Box::leak(Box::new(make()));
    map.insert(leaked_name, handle);
    handle
}

/// The interned counter named `name`, registering it on first use.
pub fn counter(name: &str) -> &'static Counter {
    intern(&registry().counters, name, Counter::new)
}

/// The interned gauge named `name`, registering it on first use.
pub fn gauge(name: &str) -> &'static Gauge {
    intern(&registry().gauges, name, Gauge::new)
}

/// The interned stage histogram named `name`, registering it on first
/// use.
pub fn histogram(name: &str) -> &'static Histogram {
    intern(&registry().histograms, name, Histogram::new)
}

/// Zeroes every registered counter, gauge and histogram in place.
/// Handles stay valid.
pub fn reset() {
    let reg = registry();
    locked(&reg.counters).values().for_each(|c| c.reset());
    locked(&reg.gauges).values().for_each(|g| g.reset());
    locked(&reg.histograms).values().for_each(|h| h.reset());
}

/// Name-sorted snapshot of every registered counter.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    locked(&registry().counters)
        .iter()
        .map(|(name, c)| (name.to_string(), c.get()))
        .collect()
}

/// Name-sorted snapshot of every registered gauge.
pub fn gauges_snapshot() -> Vec<(String, i64)> {
    locked(&registry().gauges)
        .iter()
        .map(|(name, g)| (name.to_string(), g.get()))
        .collect()
}

/// Name-sorted snapshot of every registered stage histogram.
pub fn histograms_snapshot() -> Vec<(String, Snapshot)> {
    locked(&registry().histograms)
        .iter()
        .map(|(name, h)| (name.to_string(), h.snapshot()))
        .collect()
}

/// A named pipeline stage: a call-site-cached handle to a stage
/// histogram, usable from a `static`.
///
/// ```
/// static STAGE_DECODE: subsum_telemetry::Stage =
///     subsum_telemetry::Stage::new("wire.decode");
///
/// fn decode() {
///     let _span = STAGE_DECODE.start(); // records elapsed ns on drop
///     // ... stage body ...
/// }
/// ```
#[derive(Debug)]
pub struct Stage {
    name: &'static str,
    cell: OnceLock<&'static Histogram>,
}

impl Stage {
    /// Declares a stage. `const`, so stages live in `static`s.
    pub const fn new(name: &'static str) -> Self {
        Stage {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The stage name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Starts an RAII span over this stage. When the recorder is
    /// disabled this reads one atomic and returns an inert timer (no
    /// clock read, no registry access).
    #[inline]
    pub fn start(&self) -> SpanTimer {
        if !enabled() {
            return SpanTimer { inner: None };
        }
        let hist = *self.cell.get_or_init(|| histogram(self.name));
        SpanTimer {
            inner: Some((hist, Instant::now())),
        }
    }
}

/// A named counter with a call-site-cached handle, usable from a
/// `static`. Recording is a no-op while the recorder is disabled.
#[derive(Debug)]
pub struct Count {
    name: &'static str,
    cell: OnceLock<&'static Counter>,
}

impl Count {
    /// Declares a counter. `const`, so counts live in `static`s.
    pub const fn new(name: &'static str) -> Self {
        Count {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The counter name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` if the recorder is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !enabled() {
            return;
        }
        self.cell.get_or_init(|| counter(self.name)).add(n);
    }

    /// Adds one if the recorder is enabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// An RAII span: created by [`Stage::start`], records the elapsed
/// nanoseconds into the stage histogram when dropped.
#[derive(Debug)]
#[must_use = "a span timer records its stage latency when dropped"]
pub struct SpanTimer {
    inner: Option<(&'static Histogram, Instant)>,
}

impl SpanTimer {
    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.inner.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            hist.record(nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the global enable flag.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_and_gauges_register_once() {
        let _g = guard();
        let a = counter("test.recorder.counter");
        let b = counter("test.recorder.counter");
        assert!(std::ptr::eq(a, b));
        a.reset();
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = gauge("test.recorder.gauge");
        g.set(-4);
        g.add(1);
        assert_eq!(gauge("test.recorder.gauge").get(), -3);
        assert!(counters_snapshot()
            .iter()
            .any(|(n, v)| n == "test.recorder.counter" && *v == 3));
        assert!(gauges_snapshot()
            .iter()
            .any(|(n, v)| n == "test.recorder.gauge" && *v == -3));
    }

    #[test]
    fn stage_records_only_when_enabled() {
        let _g = guard();
        static STAGE: Stage = Stage::new("test.recorder.stage");
        set_enabled(false);
        STAGE.start().finish();
        // Disabled spans never even register the histogram; look it up
        // explicitly to get a stable baseline.
        let hist = histogram("test.recorder.stage");
        hist.reset();
        STAGE.start().finish();
        assert_eq!(hist.count(), 0);
        set_enabled(true);
        STAGE.start().finish();
        {
            let _span = STAGE.start();
            std::hint::black_box(0u64);
        }
        set_enabled(false);
        assert_eq!(hist.count(), 2);
        assert!(hist.snapshot().percentile(0.99) <= hist.snapshot().max);
    }

    #[test]
    fn count_is_gated_and_reset_zeroes() {
        let _g = guard();
        static EVENTS: Count = Count::new("test.recorder.count");
        set_enabled(false);
        EVENTS.inc();
        set_enabled(true);
        let c = counter("test.recorder.count");
        c.reset();
        EVENTS.add(5);
        set_enabled(false);
        assert_eq!(c.get(), 5);
        reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn a_poisoned_registry_still_resets_and_snapshots() {
        let _g = guard();
        let c = counter("test.recorder.poisoned");
        let panicked = std::thread::spawn(|| {
            let _held = registry().counters.lock();
            panic!("poison the counters lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(registry().counters.is_poisoned());
        c.add(3);
        assert!(counters_snapshot()
            .iter()
            .any(|(n, v)| n == "test.recorder.poisoned" && *v == 3));
        reset();
        assert_eq!(c.get(), 0);
        assert!(std::ptr::eq(c, counter("test.recorder.poisoned")));
    }
}
