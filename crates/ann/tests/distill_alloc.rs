//! Counting-allocator proof that the distilled decision path is
//! allocation-free in steady state: distillation pays the whole setup
//! cost, and every `predict_into` or `predict_batch_into` call after
//! the first — the per-decision hot path — touches no allocator at
//! all. The shared `FoldTable` handle allocates nothing. Distillation's
//! own peak heap at the fleet shape is pinned to the byte, and so is the
//! artifact's reload from JSON.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use helio_ann::{Dbn, DbnConfig, DistillConfig, DistilledPolicy, FoldTable, TrainingSet};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Requested heap bytes live on tracked threads (signed: a tracked
/// thread may free what it allocated before tracking began), and their
/// high-water mark.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Whether this thread's allocations count toward `LIVE`, so the
    /// test harness's own threads never move a pinned byte count.
    static TRACKED: Cell<bool> = const { Cell::new(false) };
}

fn track(delta: i64) {
    if TRACKED.try_with(Cell::get).unwrap_or(false) {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn bytes(size: usize) -> i64 {
    i64::try_from(size).unwrap_or(i64::MAX)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        track(bytes(layout.size()));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        track(bytes(layout.size()));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        track(bytes(new_size) - bytes(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-bytes(layout.size()));
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

/// Runs `f` on this thread with its heap tracked. Returns `f`'s
/// result, the peak of the bytes `f` held live at once, and the bytes
/// still live when it returned (its result included).
fn heap_during<R>(f: impl FnOnce() -> R) -> (R, i64, i64) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    TRACKED.with(|t| t.set(true));
    let r = f();
    TRACKED.with(|t| t.set(false));
    (
        r,
        PEAK.load(Ordering::Relaxed),
        LIVE.load(Ordering::Relaxed),
    )
}

/// A scheduler-shaped teacher: 13 inputs, the golden hidden stack,
/// 10 outputs.
fn trained_dbn() -> Dbn {
    shaped_dbn(10)
}

/// A 13-input teacher with `outputs` outputs.
fn shaped_dbn(outputs: usize) -> Dbn {
    let inputs: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            (0..13)
                .map(|j| ((i * 13 + j) as f64 * 0.37).sin().abs() * 40.0)
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            (0..outputs)
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
#[allow(clippy::disallowed_methods)] // the one-decision path is the gate's subject
fn distilled_decision_path_is_allocation_free_after_warmup() {
    let _serial = serial();
    let dbn = trained_dbn();
    let cfg = DistillConfig {
        depth_const: 4,
        depth_vary: 4,
        samples: 2048,
        candidates: 16,
        holdout: 256,
        ..DistillConfig::small(7)
    };
    let policy = DistilledPolicy::distill(&dbn, 10, &[], &cfg).expect("distils");

    // Ten "periods" of five decisions each: the constant prefix is
    // fixed within a period, the varying tail changes per decision.
    let periods: Vec<Vec<Vec<f64>>> = (0..10)
        .map(|p| (0..5).map(|d| features(p, d)).collect())
        .collect();
    let blocks: Vec<Vec<f64>> = periods.iter().map(|period| period.concat()).collect();

    let mut out = Vec::new();
    let mut batch = Vec::new();
    // Warmup: sizes the output vectors once.
    policy
        .predict_into(&periods[0][0], &mut out)
        .expect("predict");
    policy
        .predict_batch_into(&blocks[0], &mut batch)
        .expect("batch predict");

    let count = allocations_during(|| {
        for (period, block) in periods.iter().zip(&blocks) {
            for x in period {
                policy.predict_into(x, &mut out).expect("predict");
            }
            policy
                .predict_batch_into(block, &mut batch)
                .expect("batch predict");
        }
    });
    assert_eq!(
        count, 0,
        "{count} allocations across 10 periods × 5 decisions — the \
         decision paths must reuse their buffers"
    );
}

/// The period features of prefix `p`, decision `d`: ten constant
/// features then three varying ones.
fn features(p: usize, d: usize) -> Vec<f64> {
    (0..13)
        .map(|t| {
            if t < 10 {
                ((p * 13 + t) as f64 * 0.61).sin().abs() * 40.0
            } else {
                ((p * 5 + d + t) as f64 * 0.29).cos().abs() * 3.0
            }
        })
        .collect()
}

/// The peak heap of one distillation at the fleet service's shape: a
/// 13-input, 8-output teacher, a 10-feature constant prefix and the
/// default 5+5 tree over 32,768 box samples. The count is the largest
/// sum of requested bytes live at once inside `distill`, the returned
/// artifact included; every allocation in it is sized by the
/// configuration alone, so it is exact, and any change to the fitter's
/// working set moves it. Before the presort ran ahead of the labels
/// with `u16` row ids, and before the leaves were fitted after the
/// tree was grown, it was 8,638,996 bytes.
#[test]
fn distill_peak_heap_at_the_fleet_shape_is_pinned() {
    let _serial = serial();
    let dbn = shaped_dbn(8);
    let cfg = DistillConfig::small(7);
    let (policy, peak, _) =
        heap_during(|| DistilledPolicy::distill(&dbn, 10, &[], &cfg).expect("distils"));
    assert_eq!((policy.input_dim(), policy.output_dim()), (13, 8));
    assert_eq!(peak, 6_739_220, "distill's peak live heap in bytes");
}

/// The peak heap of reloading the fleet-shaped artifact from its JSON:
/// the largest sum of requested bytes live at once inside `from_json`,
/// the returned artifact included. The tree and leaf arrays are read
/// element by element; through a `Value` tree the same reload peaked
/// at 5,092,316 bytes.
#[test]
fn from_json_peak_heap_at_the_fleet_shape_is_pinned() {
    let _serial = serial();
    let dbn = shaped_dbn(8);
    let policy =
        DistilledPolicy::distill(&dbn, 10, &[], &DistillConfig::small(7)).expect("distils");
    let json = policy.to_json().expect("serialises");
    let (back, peak, _) = heap_during(|| DistilledPolicy::from_json(&json).expect("reloads"));
    assert_eq!(back, policy);
    assert_eq!(json.len(), 948_326, "artifact bytes");
    assert_eq!(peak, 569_353, "from_json's peak live heap in bytes");
}

#[test]
fn fresh_fold_table_allocates_nothing() {
    let _serial = serial();
    let dbn = trained_dbn();
    let cfg = DistillConfig {
        depth_const: 4,
        depth_vary: 4,
        samples: 2048,
        candidates: 16,
        holdout: 256,
        ..DistillConfig::small(7)
    };
    let policy = Arc::new(DistilledPolicy::distill(&dbn, 10, &[], &cfg).expect("distils"));
    let x = features(0, 0);
    for capacity in [1, 64, FoldTable::DEFAULT_CAPACITY, usize::MAX] {
        let (table, peak, live) = heap_during(|| FoldTable::new(Arc::clone(&policy), capacity));
        assert_eq!(
            (peak, live),
            (0, 0),
            "a fresh table of capacity {capacity} allocated heap"
        );
        let lookups = allocations_during(|| {
            assert!(table.lookup(&x).expect("lookup").is_none());
        });
        assert_eq!(lookups, 0, "a lookup allocated");
    }
}
