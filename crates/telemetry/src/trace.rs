//! Causal event tracing: trace ids, hop-scoped span records, and
//! per-broker fixed-capacity **flight recorders**.
//!
//! Every published event and every control message can carry a
//! [`TraceId`]; each hop it takes through the overlay appends a
//! [`SpanRecord`] (broker, [`SpanKind`], deterministic sim-clock
//! timestamp, parent span) to the flight recorder of the broker where
//! the hop happened. The recorder is a ring buffer behind one lock:
//! when it fills, the *oldest* spans are overwritten (head-drop) and the
//! drop is accounted, so a crash post-mortem always shows the most
//! recent activity.
//!
//! # Every trace is recorded
//!
//! A [`Tracer`] records every span of every real trace;
//! [`TraceId::NONE`] is the only id it skips. Span timestamps are
//! logical (hop distances and simulation ticks), so recording cannot
//! distort what it measures, and two identical runs record identical
//! spans and export byte-identical Chrome traces.
//!
//! # Cost model
//!
//! Recording follows the recorder-wide rules: the untraced path is one
//! compare — no clock read, no lock, no allocation — and the traced path
//! takes the broker's ring lock and copies one span into pre-allocated
//! memory. Neither path allocates; the zero-alloc harness
//! (`tests/zero_alloc.rs`) enforces this.
//!
//! # Export
//!
//! [`Tracer::chrome_trace_string`] renders the Chrome `trace_event` JSON
//! format: load the file in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing` to see per-broker tracks of every recorded hop.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::names;
use crate::recorder::Count;
use crate::report::Json;

static CNT_SPANS: Count = Count::new(names::TRACE_SPANS);
static CNT_HEAD_DROPS: Count = Count::new(names::TRACE_HEAD_DROPS);

/// Identity of one causal trace: a published event or an originated
/// control message and everything it transitively caused.
///
/// `TraceId(0)` is reserved as [`TraceId::NONE`] — "untraced".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The untraced sentinel: spans with this id are never recorded.
    pub const NONE: TraceId = TraceId(0);

    /// Whether this is a real trace (not the sentinel).
    #[inline]
    pub fn is_traced(self) -> bool {
        self.0 != 0
    }
}

/// Trace context carried on in-flight messages: the trace the message
/// belongs to plus the span that caused it.
///
/// This is **runtime metadata only** — it rides on the in-memory
/// envelope, never on the wire, so tracing cannot change encoded byte
/// counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceCtx {
    /// The causal trace this message belongs to.
    pub trace: TraceId,
    /// The span id of the hop that produced this message (0 = root).
    pub parent: u32,
}

impl TraceCtx {
    /// Untraced context: attached to messages when tracing is off.
    pub const NONE: TraceCtx = TraceCtx {
        trace: TraceId::NONE,
        parent: 0,
    };
}

/// What happened at one hop of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// Message accepted onto a link by the network layer.
    Enqueue = 0,
    /// Message handed to the receiving broker.
    Dequeue = 1,
    /// Event examined by a broker on the routing path.
    Route = 2,
    /// Candidate matching against a merged summary.
    Match = 3,
    /// Tier-2 exact verification at the owning broker.
    OwnerVerify = 4,
    /// Confirmed delivery to a subscriber's broker.
    Deliver = 5,
    /// Message lost (link fault, cut link, or partition).
    Drop = 6,
    /// Duplicate copy injected by the fault plan.
    Dup = 7,
    /// Message lost because the receiving broker was down.
    CrashDrop = 8,
}

impl SpanKind {
    /// Stable lowercase name, used by the Chrome trace export.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Enqueue => "enqueue",
            SpanKind::Dequeue => "dequeue",
            SpanKind::Route => "route",
            SpanKind::Match => "match",
            SpanKind::OwnerVerify => "owner_verify",
            SpanKind::Deliver => "deliver",
            SpanKind::Drop => "drop",
            SpanKind::Dup => "dup",
            SpanKind::CrashDrop => "crash_drop",
        }
    }
}

/// One recorded hop of a causal trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id (unique per [`Tracer`], starting at 1).
    pub span: u32,
    /// The id of the causally preceding span (0 = trace root).
    pub parent: u32,
    /// The broker where the hop happened.
    pub broker: u16,
    /// What the hop did.
    pub kind: SpanKind,
    /// Deterministic sim-clock timestamp (ticks).
    pub at: u64,
}

/// A fixed-capacity ring buffer of [`SpanRecord`]s behind one lock.
///
/// The ring is allocated up front; once it is full, each push
/// **head-drops**: the oldest span is overwritten and
/// [`FlightRecorder::dropped`] grows. Pushing never allocates, and
/// [`FlightRecorder::snapshot`] returns the live window oldest-first
/// at any time, concurrent pushes included.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<Ring>,
}

/// The state behind a [`FlightRecorder`]'s lock.
#[derive(Debug)]
struct Ring {
    /// The live window: grows to the capacity once, then is overwritten
    /// in place.
    slots: Vec<SpanRecord>,
    /// The slot the next push overwrites once the ring is full: the
    /// oldest span.
    cursor: usize,
    /// Total spans ever pushed (including overwritten ones).
    written: u64,
}

impl FlightRecorder {
    /// Creates a recorder holding up to `capacity` spans (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            ring: Mutex::new(Ring {
                slots: Vec::with_capacity(capacity),
                cursor: 0,
                written: 0,
            }),
        }
    }

    /// The ring, even if a thread panicked while holding it: every push
    /// leaves it consistent.
    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Total spans ever pushed (including overwritten ones).
    pub fn written(&self) -> u64 {
        self.lock().written
    }

    /// Spans lost to head-drop (oldest-first overwrites).
    pub fn dropped(&self) -> u64 {
        self.written().saturating_sub(self.capacity as u64)
    }

    /// Spans currently held.
    pub fn len(&self) -> usize {
        self.lock().slots.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes one span, overwriting the oldest slot when full. Returns
    /// `true` if an old span was overwritten. Never allocates.
    pub fn push(&self, rec: SpanRecord) -> bool {
        let mut ring = self.lock();
        ring.written += 1;
        if ring.slots.len() < self.capacity {
            ring.slots.push(rec);
            return false;
        }
        let at = ring.cursor;
        ring.slots[at] = rec;
        ring.cursor = (at + 1) % self.capacity;
        true
    }

    /// The live window, oldest span first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let ring = self.lock();
        let (newer, older) = ring.slots.split_at(ring.cursor);
        older.iter().chain(newer).copied().collect()
    }
}

/// The tracing front-end: allocates trace/span ids and fans spans out
/// to per-broker [`FlightRecorder`]s.
///
/// A `Tracer` is shared behind an `Arc` by the network and broker
/// layers. When no tracer is attached at all, the product code pays a
/// single `Option` test per message.
#[derive(Debug)]
pub struct Tracer {
    next_trace: AtomicU64,
    next_span: AtomicU64,
    recorders: Vec<FlightRecorder>,
}

impl Tracer {
    /// Creates a tracer for `brokers` brokers, each with a recorder of
    /// `capacity` spans.
    pub fn new(brokers: usize, capacity: usize) -> Tracer {
        Tracer {
            next_trace: AtomicU64::new(0),
            next_span: AtomicU64::new(0),
            recorders: (0..brokers)
                .map(|_| FlightRecorder::new(capacity))
                .collect(),
        }
    }

    /// Allocates a fresh trace id (ids start at 1; 0 stays the
    /// untraced sentinel).
    pub fn new_trace(&self) -> TraceId {
        TraceId(self.next_trace.fetch_add(1, Relaxed) + 1)
    }

    /// Allocates a fresh root trace context for an originated message.
    pub fn new_root(&self) -> TraceCtx {
        TraceCtx {
            trace: self.new_trace(),
            parent: 0,
        }
    }

    /// Records one hop if `trace` is a real trace and `broker` is in
    /// range. Returns the new span id, or 0 when nothing was recorded.
    /// Never allocates on either path.
    pub fn record(&self, trace: TraceId, parent: u32, broker: u16, kind: SpanKind, at: u64) -> u32 {
        if !trace.is_traced() {
            return 0;
        }
        let Some(rec) = self.recorders.get(broker as usize) else {
            return 0;
        };
        let span = (self.next_span.fetch_add(1, Relaxed) + 1) as u32;
        let overwrote = rec.push(SpanRecord {
            trace,
            span,
            parent,
            broker,
            kind,
            at,
        });
        CNT_SPANS.add(1);
        if overwrote {
            CNT_HEAD_DROPS.add(1);
        }
        span
    }

    /// [`Tracer::record`] with the trace and parent taken from a
    /// message's [`TraceCtx`].
    pub fn record_ctx(&self, ctx: TraceCtx, broker: u16, kind: SpanKind, at: u64) -> u32 {
        self.record(ctx.trace, ctx.parent, broker, kind, at)
    }

    /// The flight recorder of one broker.
    pub fn recorder(&self, broker: u16) -> Option<&FlightRecorder> {
        self.recorders.get(broker as usize)
    }

    /// Total spans lost to head-drop across all recorders.
    pub fn head_drops(&self) -> u64 {
        self.recorders.iter().map(FlightRecorder::dropped).sum()
    }

    /// Every live span, grouped by broker (ascending), oldest-first
    /// within each broker — the deterministic export order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for rec in &self.recorders {
            out.extend(rec.snapshot());
        }
        out
    }

    /// Renders the recorded spans as Chrome `trace_event` JSON.
    pub fn chrome_trace(&self) -> Json {
        chrome_trace(&self.spans())
    }

    /// [`Tracer::chrome_trace`] serialized to a string. The output is a
    /// pure function of the recorded spans, so two identical seeded
    /// runs produce byte-identical files.
    pub fn chrome_trace_string(&self) -> String {
        self.chrome_trace().to_json_string()
    }
}

/// Builds a Chrome `trace_event` JSON document from span records.
///
/// Each span becomes an instant event: `pid` is the broker (one track
/// per broker in Perfetto), `tid` is the trace id (hops of one event
/// line up on one row), `ts` is the sim-clock tick, and `args` carries
/// the span/parent ids for causal reconstruction.
pub fn chrome_trace(spans: &[SpanRecord]) -> Json {
    let events: Vec<Json> = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::Str(s.kind.as_str().to_string())),
                ("ph", Json::Str("i".to_string())),
                ("s", Json::Str("t".to_string())),
                ("ts", Json::UInt(s.at)),
                ("pid", Json::UInt(u64::from(s.broker))),
                ("tid", Json::UInt(s.trace.0)),
                (
                    "args",
                    Json::obj([
                        ("span", Json::UInt(u64::from(s.span))),
                        ("parent", Json::UInt(u64::from(s.parent))),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::Str("ms".to_string())),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, span: u32, at: u64) -> SpanRecord {
        SpanRecord {
            trace: TraceId(trace),
            span,
            parent: span.saturating_sub(1),
            broker: 3,
            kind: SpanKind::Route,
            at,
        }
    }

    #[test]
    fn ring_keeps_newest_and_accounts_head_drops() {
        let rec = FlightRecorder::new(4);
        assert!(rec.is_empty());
        for i in 0..6u64 {
            rec.push(span(1, i as u32 + 1, i));
        }
        assert_eq!(rec.written(), 6);
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 2);
        let snap = rec.snapshot();
        // Oldest-first window over the newest four pushes.
        assert_eq!(snap.iter().map(|s| s.at).collect::<Vec<_>>(), [2, 3, 4, 5]);
    }

    #[test]
    fn snapshot_before_wrap_is_in_push_order() {
        let rec = FlightRecorder::new(8);
        for i in 0..3u64 {
            assert!(!rec.push(span(7, i as u32 + 1, i * 10)));
        }
        assert_eq!(rec.dropped(), 0);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].at, 0);
        assert_eq!(snap[2].at, 20);
        assert_eq!(snap[1].trace, TraceId(7));
        assert_eq!(snap[1].kind, SpanKind::Route);
        assert_eq!(snap[1].broker, 3);
    }

    #[test]
    fn span_fields_roundtrip_through_the_ring() {
        let rec = FlightRecorder::new(2);
        let s = SpanRecord {
            trace: TraceId(0xDEAD_BEEF),
            span: 0xFFFF_FFFF,
            parent: 0x1234_5678,
            broker: u16::MAX,
            kind: SpanKind::CrashDrop,
            at: u64::MAX,
        };
        rec.push(s);
        assert_eq!(rec.snapshot(), vec![s]);
    }

    #[test]
    fn every_real_trace_is_recorded_and_none_is_not() {
        let t = Tracer::new(2, 16);
        for _ in 0..10 {
            let ctx = t.new_root();
            assert_ne!(t.record_ctx(ctx, 1, SpanKind::Enqueue, 5), 0);
        }
        assert_eq!(t.recorder(1).map(FlightRecorder::len), Some(10));
        assert_eq!(t.recorder(0).map(FlightRecorder::len), Some(0));
        // The untraced sentinel and an out-of-range broker record nothing.
        assert_eq!(t.record_ctx(TraceCtx::NONE, 0, SpanKind::Route, 0), 0);
        assert_eq!(t.record(TraceId(1), 0, 99, SpanKind::Route, 0), 0);
        assert!(t.recorder(0).is_some_and(FlightRecorder::is_empty));
    }

    #[test]
    fn threads_recording_into_one_tracer_lose_no_span_of_the_window() {
        use std::collections::HashSet;
        const THREADS: u64 = 4;
        const CAPACITY: usize = 64;
        // Each thread pushes TO_0 spans to broker 0, which never wraps,
        // then TO_1 to broker 1, which wraps many times over.
        const TO_0: u64 = 10;
        const TO_1: u64 = 100;
        let t = Tracer::new(2, CAPACITY);
        // All threads start recording together, so their pushes contend.
        let start = std::sync::Barrier::new(THREADS as usize);
        let issued: Vec<(u16, u32)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let (t, start) = (&t, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..TO_0 + TO_1)
                            .map(|i| {
                                let broker = u16::from(i >= TO_0);
                                let trace = TraceId(thread + 1);
                                (broker, t.record(trace, 0, broker, SpanKind::Route, i))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("join"))
                .collect()
        });
        let issued_to = |b: u16| -> HashSet<u32> {
            issued
                .iter()
                .filter(|(x, _)| *x == b)
                .map(|&(_, s)| s)
                .collect()
        };
        let window = |b: u16| {
            t.recorder(b)
                .map(FlightRecorder::snapshot)
                .unwrap_or_default()
        };
        let held = |w: &[SpanRecord]| -> HashSet<u32> { w.iter().map(|s| s.span).collect() };
        let (w0, w1) = (window(0), window(1));

        assert_eq!(issued_to(0).len() + issued_to(1).len(), issued.len());
        assert_eq!(w0.len() as u64, THREADS * TO_0);
        assert_eq!(held(&w0), issued_to(0), "the unwrapped ring lost a span");
        assert_eq!(w1.len(), CAPACITY);
        assert_eq!(held(&w1).len(), CAPACITY, "a span is held twice");
        assert!(held(&w1).is_subset(&issued_to(1)));
        assert_eq!(t.head_drops(), THREADS * TO_1 - CAPACITY as u64);
        // The wrapped ring holds the newest pushes: of each thread's
        // spans, a suffix, oldest first.
        for thread in 0..THREADS {
            let ats: Vec<u64> = w1
                .iter()
                .filter(|s| s.trace == TraceId(thread + 1))
                .map(|s| s.at)
                .collect();
            let end = TO_0 + TO_1;
            assert_eq!(ats, (end - ats.len() as u64..end).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chrome_export_is_deterministic_and_loadable_shape() {
        let make = || {
            let t = Tracer::new(2, 8);
            let root = t.new_root();
            let e = t.record_ctx(root, 0, SpanKind::Enqueue, 0);
            let d = t.record(root.trace, e, 1, SpanKind::Dequeue, 3);
            t.record(root.trace, d, 1, SpanKind::Deliver, 3);
            t.chrome_trace_string()
        };
        let a = make();
        assert_eq!(a, make(), "export must be byte-identical across runs");
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("\"deliver\""));
        assert!(a.starts_with('{') && a.ends_with('}'));
    }

    #[test]
    fn span_kind_names_are_distinct() {
        let kinds = [
            SpanKind::Enqueue,
            SpanKind::Dequeue,
            SpanKind::Route,
            SpanKind::Match,
            SpanKind::OwnerVerify,
            SpanKind::Deliver,
            SpanKind::Drop,
            SpanKind::Dup,
            SpanKind::CrashDrop,
        ];
        let names: std::collections::HashSet<&str> = kinds.iter().map(|k| k.as_str()).collect();
        assert_eq!(names.len(), kinds.len());
    }
}
