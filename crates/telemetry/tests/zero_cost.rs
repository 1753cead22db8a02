//! Zero-cost-outside-a-capture audit: span creation and counter recording
//! on a thread outside any capture must not allocate. That path is one
//! thread-local load and a branch — this test pins the "no allocation"
//! half of that contract with a counting global allocator (the cycle
//! cost is pinned separately by the telemetry on/off guardrail in
//! `BENCH_hw_exec.json`).
//!
//! The allocator counts per thread, so allocations of the test harness
//! and of concurrently running tests never land in a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. `const`-initialized and without
    /// a destructor, so the allocator reads it without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates directly to the system allocator; the counter is a
// thread-local integer with no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        // SAFETY: same layout contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr/layout come from the matching alloc above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.get();
    f();
    ALLOCATIONS.get() - before
}

#[test]
fn uncaptured_spans_and_counters_do_not_allocate() {
    // No warm-up: outside a capture nothing is initialized lazily either.
    let n = allocations_during(|| {
        for _ in 0..10_000 {
            let _span = inca_telemetry::span("serve.request");
            inca_telemetry::record(inca_telemetry::Event::XbarReadPulse, 7);
            inca_telemetry::incr(inca_telemetry::Event::AdcConversion);
        }
    });
    assert_eq!(n, 0, "uncaptured telemetry path allocated {n} times");

    // The counter sees this thread's allocations: a captured span does
    // allocate (its recorder, frame and trace event).
    let captured = allocations_during(|| {
        let _ = inca_telemetry::capture(|| {
            let _span = inca_telemetry::span("serve.request");
        });
    });
    assert!(captured > 0, "the counting allocator missed a capture's allocations");
}

#[test]
fn disabled_histogram_construction_is_cheap() {
    // The histogram itself allocates lazily: an empty histogram holds no
    // buckets, so observability scaffolding that is constructed but
    // never fed stays allocation-free too.
    let n = allocations_during(|| {
        let h = inca_telemetry::LogLinearHist::default_ns();
        assert!(h.is_empty());
    });
    assert_eq!(n, 0, "empty histogram allocated {n} times");
}
