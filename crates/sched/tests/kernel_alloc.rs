//! Counting-allocator proof that a warmed-up [`SubsetKernel`] runs a
//! period without touching the heap: the long-term DP runs the kernel
//! once per DP cell, and every cell after the first reuses its scratch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use helio_common::units::{Farads, Joules, Seconds, Volts};
use helio_common::TaskSet;
use helio_nvp::Pmu;
use helio_sched::SubsetKernel;
use helio_storage::{CapacitorBank, StorageModelParams};
use helio_tasks::benchmarks;

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
fn warmed_kernel_runs_allocate_nothing() {
    const SLOT: Seconds = Seconds::new(60.0);
    let storage = StorageModelParams::default();
    let pmu = Pmu::default();
    let sunny = vec![Joules::new(4.0); 10];
    let dark = vec![Joules::ZERO; 10];
    for graph in benchmarks::all_six() {
        let mut bank = CapacitorBank::new(&[Farads::new(10.0)], &storage).unwrap();
        let mut kernel = SubsetKernel::new(&graph, SLOT);
        let subsets = [graph.all_tasks(), TaskSet::EMPTY.with(0), TaskSet::EMPTY];
        // Warm-up: a kernel's first run may still size its scratch.
        kernel.run(graph.all_tasks(), &sunny, &mut bank, &pmu, &storage);

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for (i, &subset) in subsets.iter().cycle().take(30).enumerate() {
            let state = bank
                .active_cap()
                .state_at(Volts::new(1.0 + 0.12 * i as f64));
            bank.set_active_state(state);
            let solar = if i % 2 == 0 { &sunny } else { &dark };
            kernel.run(subset, solar, &mut bank, &pmu, &storage);
        }
        let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(allocated, 0, "{}: {allocated} allocations", graph.name());
    }
}
