//! The `sweep` workload: the paper-grid experiment sweep. Set-up builds
//! one cell per task set (node, task graph, shared plan context) and
//! the sweep's 16 traces of the paper grid's four standard days (4 days
//! x 144 periods x 10 slots, clear to rainy, with seed-drawn noise).
//! One operation (a column) runs each of the six task sets on one of
//! those traces as one `BatchEngine` batch of the three fixed patterns
//! (B = 3, the shape of the figure binaries' `run_planner_batch`) over
//! the worker scratches. No inference, no serialisation: slot loop,
//! storage, PMU and small-B batch overhead only.

use std::sync::Arc;
use std::time::Instant;

use helio_common::time::TimeGrid;
use helio_common::units::{Farads, Seconds};
use helio_solar::{DayArchetype, SolarPanel, SolarTrace, TraceBuilder};
use helio_tasks::{benchmarks, TaskGraph};
use heliosched::{
    BatchEngine, BatchScenario, BatchScratch, Engine, FixedPlanner, NodeConfig, Pattern,
    PeriodPlanner, PlanContext, SimReport,
};

use crate::inputs::{sweep_trace_seed, REFERENCE_SEED};
use crate::{Report, Run, SetupSamples, CHECK_WORKERS, WORKERS};

/// Untimed warm-up columns, on the reference traces; their reports
/// feed `dmr`.
pub const WARMUP_COLUMNS: u64 = 16;

/// Traces of the sweep. Timed columns cycle through them.
pub const TRACES: u64 = 16;

/// Set-up samples, spread over the run.
const SETUP_SAMPLES: u32 = 25;

/// The six task benchmarks, by fleet-protocol name.
pub const BENCHMARKS: [&str; 6] = ["random1", "random2", "random3", "wam", "ecg", "shm"];

/// The fixed patterns every cell runs.
pub const PATTERNS: [Pattern; 3] = [Pattern::Asap, Pattern::Inter, Pattern::Intra];

/// The paper's experiment grid.
pub fn grid() -> TimeGrid {
    TimeGrid::new(4, 144, 10, Seconds::new(60.0)).expect("the paper grid is valid")
}

/// Scenarios per column.
pub const SCENARIOS_PER_COLUMN: usize = BENCHMARKS.len() * PATTERNS.len();

/// One benchmark's node, task set and shared plan context.
pub struct Cell {
    pub node: NodeConfig,
    pub graph: TaskGraph,
    pub ctx: Arc<PlanContext>,
}

/// Task set by fleet-protocol name.
pub fn graph(name: &str) -> Result<TaskGraph, String> {
    Ok(match name {
        "random1" => benchmarks::random_case(1),
        "random2" => benchmarks::random_case(2),
        "random3" => benchmarks::random_case(3),
        "wam" => benchmarks::wam(),
        "ecg" => benchmarks::ecg(),
        "shm" => benchmarks::shm(),
        other => return Err(format!("unknown benchmark {other}")),
    })
}

/// The set-up: one cell per benchmark on `grid` over a [2, 15] F bank.
pub fn cells(grid: TimeGrid) -> Result<Vec<Cell>, String> {
    BENCHMARKS
        .iter()
        .map(|name| {
            let graph = graph(name)?;
            let node = NodeConfig::builder(grid)
                .capacitors(&[Farads::new(2.0), Farads::new(15.0)])
                .build()
                .map_err(|e| e.to_string())?;
            let ctx = PlanContext::new(&graph, grid.slot_duration()).map_err(|e| e.to_string())?;
            Ok(Cell {
                node,
                graph,
                ctx: Arc::new(ctx),
            })
        })
        .collect()
}

/// Trace `k` of the sweep of `seed`.
pub fn trace(grid: TimeGrid, seed: u64, k: u64) -> SolarTrace {
    TraceBuilder::new(grid, SolarPanel::paper_panel())
        .seed(sweep_trace_seed(seed, k))
        .days(&DayArchetype::ALL)
        .build()
}

/// What the timed columns run on.
pub struct Setup {
    pub cells: Vec<Cell>,
    pub traces: Vec<SolarTrace>,
}

/// The set-up of the sweep of `seed`: its cells and its [`TRACES`]
/// traces.
pub fn setup(grid: TimeGrid, seed: u64) -> Result<Setup, String> {
    Ok(Setup {
        cells: cells(grid)?,
        traces: (0..TRACES).map(|k| trace(grid, seed, k)).collect(),
    })
}

/// The fixed planner of `pattern` on `node`'s bank: ASAP on the smallest
/// capacitor, the others on the largest (the fleet service's defaults).
pub fn fixed(node: &NodeConfig, pattern: Pattern) -> FixedPlanner {
    let cap = match pattern {
        Pattern::Asap => 0,
        _ => node.capacitor_count() - 1,
    };
    FixedPlanner::new(pattern, cap)
}

/// Builds one cell's B = 3 batch on `trace`, passing each planner
/// through `wrap`.
pub fn build_cell<'a>(
    cell: &'a Cell,
    trace: &'a SolarTrace,
    wrap: &mut dyn FnMut(Box<dyn PeriodPlanner + 'a>) -> Box<dyn PeriodPlanner + 'a>,
) -> Result<BatchEngine<'a>, String> {
    let mut engine = BatchEngine::with_context(&cell.node, &cell.graph, Arc::clone(&cell.ctx))
        .map_err(|e| e.to_string())?;
    for pattern in PATTERNS {
        let planner = wrap(Box::new(fixed(&cell.node, pattern)));
        engine
            .push(BatchScenario::new(trace, planner))
            .map_err(|e| e.to_string())?;
    }
    Ok(engine)
}

/// Runs one cell's batch sharded over `scratches`.
fn run_cell(
    cell: &Cell,
    trace: &SolarTrace,
    scratches: &mut [BatchScratch],
) -> Result<Vec<SimReport>, String> {
    build_cell(cell, trace, &mut |p| p)?
        .run_sharded_with(scratches)
        .map_err(|e| e.to_string())
}

/// One column: every cell on one trace, reports in cell order.
pub fn column(
    cells: &[Cell],
    trace: &SolarTrace,
    scratches: &mut [BatchScratch],
) -> Result<Vec<SimReport>, String> {
    let mut reports = Vec::with_capacity(SCENARIOS_PER_COLUMN);
    for cell in cells {
        reports.extend(run_cell(cell, trace, scratches)?);
    }
    Ok(reports)
}

/// Checks each cell's batched reports are byte-identical to sequential
/// `Engine::run` calls on one trace.
pub fn check_batched_equals_sequential(
    cells: &[Cell],
    trace: &SolarTrace,
    scratches: &mut [BatchScratch],
    report: &mut Report,
) {
    for (cell, name) in cells.iter().zip(BENCHMARKS) {
        let batched = run_cell(cell, trace, scratches);
        let sequential: Result<Vec<SimReport>, String> = PATTERNS
            .iter()
            .map(|&pattern| {
                Engine::new(&cell.node, &cell.graph, trace)
                    .and_then(|e| e.run(&mut fixed(&cell.node, pattern)))
                    .map_err(|e| e.to_string())
            })
            .collect();
        let same = match (batched, sequential) {
            (Ok(b), Ok(s)) => {
                let json = |r: &[SimReport]| {
                    r.iter()
                        .map(serde_json::to_string)
                        .collect::<Result<Vec<_>, _>>()
                        .ok()
                };
                json(&b).is_some() && json(&b) == json(&s)
            }
            _ => false,
        };
        report.check(
            same,
            &format!("sweep cell {name}: batched reports differ from sequential Engine::run"),
        );
    }
}

/// Mean overall DMR of `reports`.
fn mean_dmr(reports: &[SimReport]) -> Option<f64> {
    (!reports.is_empty())
        .then(|| reports.iter().map(SimReport::overall_dmr).sum::<f64>() / reports.len() as f64)
}

/// The untimed warm-up: `n` columns on the reference traces. Returns
/// their reports, which feed `dmr`.
///
/// # Errors
///
/// Returns the first column's error.
pub fn warm_up(
    cells: &[Cell],
    grid: TimeGrid,
    n: u64,
    scratches: &mut [BatchScratch],
) -> Result<Vec<SimReport>, String> {
    let mut reports = Vec::new();
    for k in 0..n {
        let trace = trace(grid, REFERENCE_SEED, k % TRACES);
        reports.extend(column(cells, &trace, scratches).map_err(|e| format!("warm-up: {e}"))?);
    }
    Ok(reports)
}

/// The untraced sweep workload.
pub fn run(seed: u64, run: Run) -> Report {
    let mut report = Report::default();
    let grid = grid();
    let mut setups = SetupSamples::new(run, SETUP_SAMPLES);
    let Setup { cells, traces } = match setups.time(|| setup(grid, seed)) {
        Ok(s) => s,
        Err(e) => {
            report.problem(&format!("sweep set-up failed: {e}"));
            return report;
        }
    };
    check_batched_equals_sequential(
        &cells,
        &traces[0],
        &mut crate::scratches(CHECK_WORKERS),
        &mut report,
    );

    let mut scratches = crate::scratches(WORKERS);
    let reference = match warm_up(&cells, grid, run.warmup(WARMUP_COLUMNS), &mut scratches) {
        Ok(r) => r,
        Err(e) => {
            report.problem(&e);
            return report;
        }
    };
    let mut latencies = Vec::new();
    let start = Instant::now();
    let mut c = 0;
    while run.stop.more(c, start) {
        if let Err(e) = setups.between(|| setup(grid, seed)) {
            report.problem(&format!("sweep set-up failed: {e}"));
        }
        let t = Instant::now();
        let out = column(&cells, &traces[(c % TRACES) as usize], &mut scratches);
        let elapsed = t.elapsed();
        match out {
            Ok(_) => latencies.push(elapsed.as_secs_f64() * 1e3),
            Err(e) => {
                report.failed += SCENARIOS_PER_COLUMN as u64;
                report.problem(&format!("column {c}: {e}"));
            }
        }
        report.attempted += SCENARIOS_PER_COLUMN as u64;
        c += 1;
    }
    match setups.median() {
        Some(s) => report.metric("setup_s", s, "s"),
        None => report.problem("no sweep set-up sample"),
    }
    report.latency(&latencies);
    match mean_dmr(&reference) {
        Some(d) => report.metric("dmr", d, "ratio"),
        None => report.problem("no sweep report to average"),
    }
    let busy_s = latencies.iter().sum::<f64>() / 1e3;
    if busy_s > 0.0 {
        let periods = latencies.len() * SCENARIOS_PER_COLUMN * grid.total_periods();
        report.note("sim_periods_per_s", periods as f64 / busy_s, "1/s");
    }
    report
}
