//! Counting-allocator proof that the distilled decision path is
//! allocation-free in steady state: distillation pays the whole setup
//! cost, the per-period prewalk/fold reuses its buffer, and every
//! `predict_folded` call after the first — the per-decision hot path —
//! touches no allocator at all. The shared `FoldTable` in front of it
//! allocates only the fold entries it builds, evicting or not, and a
//! cleared table refills in the storage it already holds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use helio_ann::{Dbn, DbnConfig, DistillConfig, DistilledPolicy, FoldEntry, FoldTable};

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

/// A scheduler-shaped teacher: 13 inputs, the golden hidden stack,
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
