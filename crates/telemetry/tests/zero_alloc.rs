//! Zero-allocation harness for the tracing hot paths.
//!
//! A counting global allocator proves the cost-model claims in
//! `trace.rs`: with the telemetry recorder off (the default),
//!
//! * the **disabled** path — recording against [`TraceCtx::NONE`] or an
//!   unsampled tracer — performs no heap allocation at all, and
//! * the **sampled** path writes into the pre-allocated ring without
//!   allocating either.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use subsum_telemetry::trace::{SpanKind, TraceCtx, TraceId, Tracer};

struct CountingAlloc;

thread_local! {
    /// Per-thread count: the test harness's own threads allocate while
    /// the test runs, and must not show up in its measured regions.
    /// Const-initialised and without a destructor, so reading it from
    /// inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// The harness only counts; System does the work. `unsafe` is confined
// to this test crate — the library itself forbids unsafe code.
// SAFETY: pure delegation to `System` plus a thread-local counter bump;
// all layout/pointer contracts are forwarded unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: caller upholds GlobalAlloc's contract; delegated as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds GlobalAlloc's contract; delegated as-is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: caller upholds GlobalAlloc's contract; delegated as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations performed while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn tracer_record_paths_never_allocate() {
    // Construction allocates (the rings are pre-allocated here, once).
    let never = Tracer::new(4, 256, 0x5EED, u64::MAX);
    let always = Tracer::new(4, 256, 0x5EED, 1);

    // Disabled path: untraced context — the cost of tracing-off code.
    let n = allocations_during(|| {
        for i in 0..10_000u64 {
            let span = always.record_ctx(TraceCtx::NONE, (i % 4) as u16, SpanKind::Route, i);
            assert_eq!(span, 0);
        }
    });
    assert_eq!(n, 0, "untraced context must not allocate");

    // Unsampled path: real trace ids that fail the sampling test — one
    // splitmix64 mix and a compare, nothing else.
    let n = allocations_during(|| {
        for i in 1..10_001u64 {
            always.record(TraceId(i), 0, 99, SpanKind::Route, i); // out of range
            never.record(TraceId(i), 0, (i % 4) as u16, SpanKind::Match, i);
        }
    });
    assert_eq!(n, 0, "unsampled and out-of-range records must not allocate");

    // Sampled path: every record lands in the pre-allocated ring,
    // wrapping (head-drop) included.
    let n = allocations_during(|| {
        for i in 1..2_001u64 {
            let span = always.record(TraceId(i), 0, (i % 4) as u16, SpanKind::Deliver, i);
            assert_ne!(span, 0);
        }
    });
    assert_eq!(n, 0, "the ring write path must not allocate");
    assert!(always.head_drops() > 0, "the rings wrapped during the loop");

    // Snapshots DO allocate (they build a Vec) — sanity-check the
    // counter actually counts, so the zeroes above are meaningful.
    let n = allocations_during(|| {
        std::hint::black_box(always.spans());
    });
    assert!(n > 0, "the harness must observe real allocations");
}
