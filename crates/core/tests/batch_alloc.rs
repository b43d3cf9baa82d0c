//! Counting-allocator proof that a sharded batch worker's period loop
//! performs zero heap allocations after warm-up.
//!
//! Black-box formulation, mirroring `alloc_free.rs`: every sharded run
//! pays a fixed setup cost (per-scenario SoA state, report assembly)
//! and warms up the per-worker [`BatchScratch`] buffers during the
//! first periods. If the per-period batch path — feature gather,
//! grouped DBN forward, advance — is allocation-free from then on, the
//! total allocation count of a run must not depend on how many days it
//! simulates. The test pins exactly that, for shard counts 1 and 2,
//! with pre-warmed caller-owned scratches (the fleet service's
//! steady-state shape). MPC planners are excluded: they replan (and
//! allocate) once per day by design.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use helio_ann::{Dbn, DbnConfig, TrainingSet};
use helio_common::time::TimeGrid;
use helio_common::units::{Farads, Seconds};
use helio_solar::{DayArchetype, SolarPanel, SolarTrace, TraceBuilder};
use helio_tasks::{benchmarks, TaskGraph};
use heliosched::online::{ProposedPlanner, SwitchRule};
use heliosched::{
    BatchEngine, BatchScenario, BatchScratch, FixedPlanner, NodeConfig, Pattern, PeriodPlanner,
};

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

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// `days` repeats of the same two-day weather sequence, four traces.
fn setup(days: usize) -> (NodeConfig, Vec<SolarTrace>) {
    let grid = TimeGrid::new(days, 24, 10, Seconds::new(60.0)).unwrap();
    let archetypes: Vec<DayArchetype> = [DayArchetype::Clear, DayArchetype::BrokenClouds]
        .into_iter()
        .cycle()
        .take(days)
        .collect();
    let node = NodeConfig::builder(grid)
        .capacitors(&[Farads::new(2.0), Farads::new(15.0)])
        .build()
        .unwrap();
    let traces = (0..4)
        .map(|s| {
            TraceBuilder::new(grid, SolarPanel::paper_panel())
                .seed(7 + s)
                .days(&archetypes)
                .build()
        })
        .collect();
    (node, traces)
}

fn tiny_dbn(graph: &TaskGraph) -> Arc<Dbn> {
    let in_dim = 10 + 2 + 1;
    let inputs: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            let mut v = vec![(i % 7) as f64 * 10.0; in_dim];
            v[in_dim - 1] = 0.3;
            v
        })
        .collect();
    let targets: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            let mut v = vec![(i % 2) as f64, 1.0];
            v.extend(vec![1.0; graph.len()]);
            v
        })
        .collect();
    Arc::new(
        Dbn::train_set(
            &TrainingSet::from_rows(&inputs, &targets).unwrap(),
            &DbnConfig::small(2),
        )
        .unwrap(),
    )
}

fn build<'a>(
    node: &'a NodeConfig,
    graph: &'a TaskGraph,
    traces: &'a [SolarTrace],
    dbn: &Arc<Dbn>,
) -> BatchEngine<'a> {
    let mut engine = BatchEngine::new(node, graph).unwrap();
    for (i, t) in traces.iter().enumerate() {
        let planner: Box<dyn PeriodPlanner> = match i % 2 {
            0 => Box::new(ProposedPlanner::from_shared_dbn(
                Arc::clone(dbn),
                0.5,
                SwitchRule::default(),
            )),
            _ => Box::new(FixedPlanner::new(Pattern::Inter, 1)),
        };
        engine.push(BatchScenario::new(t, planner)).unwrap();
    }
    engine
}

#[test]
fn batch_period_path_allocates_nothing_after_warm_up() {
    let graph = benchmarks::ecg();
    let dbn = tiny_dbn(&graph);
    let (node_short, traces_short) = setup(2);
    let (node_long, traces_long) = setup(6);

    for shard_count in [1usize, 2] {
        let mut scratches: Vec<BatchScratch> = Vec::new();
        scratches.resize_with(shard_count, BatchScratch::default);
        // Warm the per-worker scratches once, unmeasured.
        build(&node_short, &graph, &traces_short, &dbn)
            .run_sharded_with(&mut scratches)
            .unwrap();

        let short = allocations_during(|| {
            build(&node_short, &graph, &traces_short, &dbn)
                .run_sharded_with(&mut scratches)
                .unwrap();
        });
        let long = allocations_during(|| {
            build(&node_long, &graph, &traces_long, &dbn)
                .run_sharded_with(&mut scratches)
                .unwrap();
        });
        // Setup allocates identically (same batch, same shard count);
        // the four extra days of the long run must add nothing.
        assert_eq!(
            long, short,
            "{shard_count} shards: {long} allocations over 6 days vs {short} over 2 — \
             the batch period path allocates per period in a worker"
        );
    }
}
