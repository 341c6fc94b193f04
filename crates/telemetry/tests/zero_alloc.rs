//! Zero-allocation harness for the tracing hot paths.
//!
//! A counting global allocator proves the cost-model claims in
//! `trace.rs`: with the telemetry recorder off (the default),
//!
//! * the **untraced** path — recording against [`TraceCtx::NONE`] or an
//!   out-of-range broker — performs no heap allocation at all, and
//! * the **traced** path writes into the pre-allocated ring without
//!   allocating either.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use subsum_telemetry::trace::{SpanKind, TraceCtx, TraceId, Tracer};

use counting_alloc::allocations;

/// Allocations performed while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = allocations();
    f();
    allocations() - before
}

#[test]
fn tracer_record_paths_never_allocate() {
    // Construction allocates (the rings are pre-allocated here, once).
    let tracer = Tracer::new(4, 256);

    // Untraced context: the cost of tracing-off code.
    let n = allocations_during(|| {
        for i in 0..10_000u64 {
            let span = tracer.record_ctx(TraceCtx::NONE, (i % 4) as u16, SpanKind::Route, i);
            assert_eq!(span, 0);
        }
    });
    assert_eq!(n, 0, "untraced context must not allocate");

    // Out-of-range broker: a real trace id with no recorder to land in.
    let n = allocations_during(|| {
        for i in 1..10_001u64 {
            let span = tracer.record(TraceId(i), 0, 99, SpanKind::Route, i);
            assert_eq!(span, 0);
        }
    });
    assert_eq!(n, 0, "out-of-range records must not allocate");

    // Traced path: every record lands in the pre-allocated ring,
    // wrapping (head-drop) included.
    let n = allocations_during(|| {
        for i in 1..2_001u64 {
            let span = tracer.record(TraceId(i), 0, (i % 4) as u16, SpanKind::Deliver, i);
            assert_ne!(span, 0);
        }
    });
    assert_eq!(n, 0, "the ring write path must not allocate");
    assert!(tracer.head_drops() > 0, "the rings wrapped during the loop");

    // Snapshots DO allocate (they build a Vec) — sanity-check the
    // counter actually counts, so the zeroes above are meaningful.
    let n = allocations_during(|| {
        std::hint::black_box(tracer.spans());
    });
    assert!(n > 0, "the harness must observe real allocations");
}
