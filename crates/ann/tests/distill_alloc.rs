//! Counting-allocator proof that the distilled decision path is
//! allocation-free in steady state: distillation pays the whole setup
//! cost, the per-period prewalk/fold reuses its buffer, and every
//! `predict_folded` call after the first — the per-decision hot path —
//! touches no allocator at all. The shared `FoldTable` in front of it
//! allocates only the fold entries it builds, evicting or not, a fresh
//! table allocates nothing, and a cleared table refills in the storage
//! it already holds. Distillation's own peak heap at the fleet shape is
//! pinned to the byte.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use helio_ann::{Dbn, DbnConfig, DistillConfig, DistilledPolicy, FoldEntry, FoldTable};

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
    Dbn::train(&inputs, &targets, &cfg).expect("trains")
}

#[test]
#[allow(clippy::disallowed_methods)] // the scalar folded path is the gate's subject
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
        .map(|p| {
            (0..5)
                .map(|d| {
                    (0..13)
                        .map(|t| {
                            if t < 10 {
                                ((p * 13 + t) as f64 * 0.61).sin().abs() * 40.0
                            } else {
                                ((p * 5 + d + t) as f64 * 0.29).cos().abs() * 3.0
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect();

    let mut folded = Vec::new();
    let mut out = Vec::new();
    // Warmup: sizes the fold buffer and the output vector once.
    let cursor = policy.prewalk(&periods[0][0]).expect("prewalk");
    policy
        .fold(cursor, &periods[0][0], &mut folded)
        .expect("fold");
    policy
        .predict_folded(cursor, &folded, &periods[0][0], &mut out)
        .expect("predict");

    let count = allocations_during(|| {
        for period in &periods {
            let cursor = policy.prewalk(&period[0]).expect("prewalk");
            policy.fold(cursor, &period[0], &mut folded).expect("fold");
            for x in period {
                policy
                    .predict_folded(cursor, &folded, x, &mut out)
                    .expect("predict");
            }
        }
    });
    assert_eq!(
        count, 0,
        "{count} allocations across 10 periods × 5 decisions — the \
         prewalk/fold/predict path must reuse its buffers"
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

#[test]
fn fold_table_allocates_only_the_folds_it_builds() {
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
    let xs: Vec<Vec<f64>> = (0..12).map(|p| features(p, p % 3)).collect();
    let table = FoldTable::new(Arc::clone(&policy), 4);

    // Fill the table with four built folds.
    for x in &xs[..4] {
        assert!(table.lookup(x).expect("lookup").is_none());
        assert!(table.lookup(x).expect("lookup").is_some());
    }
    assert_eq!(table.len(), table.capacity());

    let hits = allocations_during(|| {
        for _ in 0..8 {
            for x in &xs[..4] {
                assert!(table.lookup(x).expect("lookup").is_some());
            }
        }
    });
    assert_eq!(hits, 0, "{hits} allocations across 32 hits on a full table");

    let evictions = allocations_during(|| {
        for x in &xs[4..12] {
            assert!(table.lookup(x).expect("lookup").is_none());
        }
    });
    assert_eq!(
        evictions, 0,
        "{evictions} allocations across 8 evicting first sightings"
    );
    assert_eq!(table.len(), table.capacity());

    let one_fold = allocations_during(|| {
        drop(Arc::new(
            FoldEntry::build(&policy, &xs[11]).expect("builds"),
        ));
    });
    let second = allocations_during(|| {
        assert!(table.lookup(&xs[11]).expect("lookup").is_some());
    });
    assert_eq!(
        second, one_fold,
        "a second sighting must allocate only the entry it builds"
    );

    // An unbounded capacity neither pre-reserves it nor aborts.
    let unbounded = FoldTable::new(Arc::clone(&policy), usize::MAX);
    for x in &xs {
        assert!(unbounded.lookup(x).expect("lookup").is_none());
        assert!(unbounded.lookup(x).expect("lookup").is_some());
    }
    assert_eq!(unbounded.len(), xs.len());
}

#[test]
fn cleared_fold_table_refills_without_new_storage() {
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
    let xs: Vec<Vec<f64>> = (0..8).map(|p| features(p, p % 3)).collect();
    let table = FoldTable::new(Arc::clone(&policy), xs.len());
    let fill = || {
        for x in &xs {
            assert!(table.lookup(x).expect("lookup").is_none());
            assert!(table.lookup(x).expect("lookup").is_some());
        }
    };
    fill();
    assert_eq!(table.len(), xs.len());

    let cleared = allocations_during(|| table.clear());
    assert_eq!(cleared, 0, "{cleared} allocations to clear the table");
    assert!(table.is_empty());

    let one_fold = allocations_during(|| {
        drop(Arc::new(FoldEntry::build(&policy, &xs[0]).expect("builds")));
    });
    let refill = allocations_during(fill);
    assert_eq!(
        refill,
        one_fold * xs.len() as u64,
        "refilling a cleared table must allocate only the folds it builds"
    );
    assert_eq!(table.len(), xs.len());
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
    for capacity in [1, 64, FoldTable::DEFAULT_CAPACITY, usize::MAX] {
        let (table, peak, live) = heap_during(|| FoldTable::new(Arc::clone(&policy), capacity));
        assert_eq!(
            (peak, live),
            (0, 0),
            "a fresh table of capacity {capacity} allocated heap"
        );
        assert!(table.is_empty());
    }
}
