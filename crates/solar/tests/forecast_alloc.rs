//! Counting-allocator check that a noisy-oracle forecast allocates
//! nothing once its output vector has grown: each entry's noise stream
//! is seeded from its label without building the label.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use helio_common::time::{PeriodRef, TimeGrid};
use helio_solar::{DayArchetype, NoisyOracle, SolarPanel, SolarPredictor, TraceBuilder};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn warmed_noisy_oracle_forecast_allocates_nothing() {
    let grid = TimeGrid::with_minute_slots(3, 24, 10).unwrap();
    let trace = TraceBuilder::new(grid, SolarPanel::paper_panel())
        .seed(5)
        .days(&[
            DayArchetype::Clear,
            DayArchetype::Overcast,
            DayArchetype::Clear,
        ])
        .build();
    let oracle = NoisyOracle::new(9, 0.1, 0.05);
    let horizon = 2 * 24;
    let mut out = Vec::new();
    oracle.forecast_into(&trace, PeriodRef::new(0, 0), horizon, &mut out);
    assert_eq!(out.len(), horizon);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut daylight = 0;
    for day in 0..3 {
        for period in (0..24).step_by(5) {
            oracle.forecast_into(&trace, PeriodRef::new(day, period), horizon, &mut out);
            daylight += out.iter().filter(|e| e.value() > 0.0).count();
            oracle.forecast_one(&trace, PeriodRef::new(day, period));
        }
    }
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    // Noise is drawn only for daylight entries; make sure some were.
    assert!(daylight > 0, "the trace has no daylight to forecast");
    assert_eq!(count, 0, "{count} allocations across 15 warmed forecasts");
}
