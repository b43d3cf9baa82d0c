//! Counting-allocator proof that the compiled forward is
//! allocation-free after construction: `CompiledDbn::compile` +
//! `make_scratch` pay the whole setup cost, and every
//! `forward_into` call after that — first call included — reuses the
//! packed weights, the ping-pong scratch and the output buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use helio_ann::{CompiledDbn, CompiledTier, Dbn, DbnConfig, TrainingSet};

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

/// The counter is process-global; each test holds this lock for its
/// whole body so sibling tests don't count into a measured region.
static MEASURE: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    MEASURE.lock().unwrap_or_else(|e| e.into_inner())
}

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// A scheduler-shaped network: 13 inputs, the golden hidden stack,
/// 10 outputs.
fn trained_dbn() -> Dbn {
    let inputs: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            (0..13)
                .map(|j| ((i * 13 + j) as f64 * 0.37).sin().abs() * 40.0)
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            (0..10)
                .map(|j| ((i + j) as f64 * 0.21).cos().abs())
                .collect()
        })
        .collect();
    let mut cfg = DbnConfig::small(42);
    cfg.bp_epochs = 20;
    Dbn::train_set(
        &TrainingSet::from_rows(&inputs, &targets).expect("rows pack"),
        &cfg,
    )
    .expect("trains")
}

#[test]
fn compiled_forward_is_allocation_free_after_construction() {
    let _serial = serial();
    let dbn = trained_dbn();
    for tier in [CompiledTier::F32, CompiledTier::Int8] {
        let compiled = CompiledDbn::compile(&dbn, tier).expect("compiles");
        let mut scratch = compiled.make_scratch();
        let mut out = Vec::with_capacity(compiled.output_dim());
        let inputs: Vec<Vec<f64>> = (0..50)
            .map(|i| (0..13).map(|t| (i * 13 + t) as f64 * 0.7).collect())
            .collect();
        let count = allocations_during(|| {
            for x in &inputs {
                compiled
                    .forward_into(x, &mut scratch, &mut out)
                    .expect("forward");
            }
        });
        assert_eq!(
            count, 0,
            "{tier:?}: {count} allocations across 50 compiled forwards — \
             the hot path must reuse the scratch and output buffers"
        );
    }
}
