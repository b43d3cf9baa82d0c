//! Counting-allocator checks on the period log: a finished report's log
//! is one allocation of exactly its encoded length (the live log's
//! horizon-long reserve never outlives the run, whether the report comes
//! from `Engine::run` or from a sharded `BatchEngine`), and pausing a
//! batch moves each lane's log into its checkpoint instead of copying it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use helio_common::time::TimeGrid;
use helio_common::units::{Farads, Seconds};
use helio_solar::{DayArchetype, SolarPanel, TraceBuilder};
use helio_tasks::benchmarks;
use heliosched::{
    BatchEngine, BatchRunState, BatchScenario, BatchScratch, Engine, FixedPlanner, NodeConfig,
    Pattern, SimReport,
};

/// The last `RING` allocations as (address, size) pairs.
const RING: usize = 1 << 16;

struct RecordingAlloc;

static NEXT: AtomicUsize = AtomicUsize::new(0);
static ADDRS: [AtomicUsize; RING] = [const { AtomicUsize::new(0) }; RING];
static SIZES: [AtomicUsize; RING] = [const { AtomicUsize::new(0) }; RING];

fn note(ptr: *mut u8, size: usize) {
    let i = NEXT.fetch_add(1, Ordering::Relaxed) % RING;
    ADDRS[i].store(ptr as usize, Ordering::Relaxed);
    SIZES[i].store(size, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for RecordingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        note(p, layout.size());
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        note(p, layout.size());
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        note(p, new_size);
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: RecordingAlloc = RecordingAlloc;

/// Serialises the tests: each reads the ring its own run wrote.
static SERIAL: Mutex<()> = Mutex::new(());

/// Size of the most recent allocation at `ptr`, if it is in the ring.
fn allocated_size(ptr: *const u8) -> Option<usize> {
    let end = NEXT.load(Ordering::Relaxed);
    (end.saturating_sub(RING)..end)
        .rev()
        .map(|n| n % RING)
        .find(|&i| ADDRS[i].load(Ordering::Relaxed) == ptr as usize)
        .map(|i| SIZES[i].load(Ordering::Relaxed))
}

fn assert_exact(report: &SimReport, tag: &str) {
    let log = &report.periods;
    let len = log.as_bytes().len();
    assert_eq!(log.len(), 2 * 24, "{tag}");
    assert_eq!(
        log.capacity(),
        len,
        "{tag}: capacity beyond the encoded bytes"
    );
    assert_eq!(
        allocated_size(log.as_bytes().as_ptr()),
        Some(len),
        "{tag}: the log is not one allocation of its encoded length"
    );
}

#[test]
fn finished_report_logs_are_exact_single_allocations() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let grid = TimeGrid::new(2, 24, 10, Seconds::new(60.0)).unwrap();
    let node = NodeConfig::builder(grid)
        .capacitors(&[Farads::new(2.0), Farads::new(15.0)])
        .build()
        .unwrap();
    let trace = TraceBuilder::new(grid, SolarPanel::paper_panel())
        .seed(7)
        .days(&[DayArchetype::Clear, DayArchetype::Storm])
        .build();
    let graph = benchmarks::ecg();
    let patterns = [Pattern::Asap, Pattern::Inter, Pattern::Intra];

    let engine = Engine::new(&node, &graph, &trace).unwrap();
    for pattern in patterns {
        let report = engine.run(&mut FixedPlanner::new(pattern, 1)).unwrap();
        assert_exact(&report, &format!("Engine::run {pattern:?}"));
    }

    for shards in [1, 2] {
        let mut batch = BatchEngine::new(&node, &graph).unwrap();
        for pattern in patterns {
            batch
                .push(BatchScenario::new(
                    &trace,
                    Box::new(FixedPlanner::new(pattern, 1)),
                ))
                .unwrap();
        }
        let mut scratches: Vec<BatchScratch> = Vec::new();
        scratches.resize_with(shards, BatchScratch::default);
        let reports = batch.run_sharded_with(&mut scratches).unwrap();
        for (k, report) in reports.iter().enumerate() {
            assert_exact(report, &format!("{shards} shards, scenario {k}"));
        }
    }
}

/// Every recorded allocation size since the ring position `from`.
fn sizes_since(from: usize) -> Vec<usize> {
    let end = NEXT.load(Ordering::Relaxed);
    assert!(end - from <= RING, "the ring overflowed");
    (from..end)
        .map(|n| SIZES[n % RING].load(Ordering::Relaxed))
        .collect()
}

#[test]
fn pausing_a_batch_copies_no_period_log() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let grid = TimeGrid::new(2, 24, 10, Seconds::new(60.0)).unwrap();
    let node = NodeConfig::builder(grid)
        .capacitors(&[Farads::new(2.0), Farads::new(15.0)])
        .build()
        .unwrap();
    let trace = TraceBuilder::new(grid, SolarPanel::paper_panel())
        .seed(11)
        .days(&[DayArchetype::Storm, DayArchetype::Clear])
        .build();
    let graph = benchmarks::ecg();
    let mut batch = BatchEngine::new(&node, &graph).unwrap();
    for pattern in [Pattern::Asap, Pattern::Inter, Pattern::Intra] {
        batch
            .push(BatchScenario::new(
                &trace,
                Box::new(FixedPlanner::new(pattern, 1)),
            ))
            .unwrap();
    }
    for pause in [13, 30] {
        let from = NEXT.load(Ordering::Relaxed);
        let state = batch.run_span_with(None, Some(pause), &mut [BatchScratch::default()]);
        let Ok(BatchRunState::Paused(ckpt)) = state else {
            panic!("expected a pause at {pause}, got {state:?}");
        };
        let sizes = sizes_since(from);
        for (k, lane) in ckpt.scenarios.iter().enumerate() {
            let len = lane.periods().as_bytes().len();
            assert_eq!(lane.periods().len(), pause, "lane {k}");
            assert!(
                !sizes.contains(&len),
                "pausing at {pause} allocated a buffer of lane {k}'s log length ({len} B)"
            );
        }
    }
}
