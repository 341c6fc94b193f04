//! A counting global allocator for the zero-allocation tests.
//!
//! Each crate's `tests/zero_alloc.rs` includes this file with
//! `#[path]`; it installs itself as that test binary's global allocator
//! and counts, per thread, every call that can allocate. Deallocations
//! are not counted: releasing memory is not the failure mode under test.
//! It lives in test crates because the libraries forbid `unsafe`, which
//! a `GlobalAlloc` impl needs.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Per-thread count: the harness runs tests on parallel threads, and
    /// one test's warm-up must not show up in another's measured region.
    /// Const-initialised and without a destructor, so reading it from
    /// inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: pure delegation to `System` plus a thread-local counter bump; all
// layout/pointer contracts are forwarded unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `GlobalAlloc`'s contract; delegated as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc`'s contract; delegated as-is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `GlobalAlloc`'s contract; delegated as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `GlobalAlloc`'s contract; delegated as-is.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
