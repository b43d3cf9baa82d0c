//! The robustness table: how gracefully does each planner backend
//! degrade under injected faults? `src/bin/robustness.rs` writes it to
//! `results/ROBUSTNESS.json` and `tests/robustness.rs` holds the
//! committed file byte for byte.
//!
//! The sweep crosses three axes on the golden configuration (ECG
//! benchmark, four archetype days, two-capacitor node):
//!
//! * **Blackout duration** — a midday solar outage on day 1 of 0, 4 or
//!   8 periods.
//! * **Capacitor aging** — none, moderate (3 %/day fade, 1.3×/day
//!   leakage growth) or severe (10 %/day fade, 2×/day growth).
//! * **Planner backend** — the inter-task baseline, the DBN planner,
//!   the MPC planner and the distilled branch-free artifact, each
//!   wrapped in [`ResilientPlanner`].
//!
//! Every faulted cell additionally injects a DBN-unavailability window
//! (flat periods 24..28), so the resilient wrapper around the
//! inference-driven backends must engage its fallback at least once per
//! cell — the engagement count is part of the table. The distilled
//! backend exercises the full tier chain: the artifact steps down to
//! its compiled fallback inside the outage window (counted in the same
//! `fallbacks` column) and the resilient wrapper's inter-task baseline
//! remains behind both. Per cell the table records the DMR, its
//! degradation against the same backend's clean run, the degraded-mode
//! counters, and how many periods after the blackout window the
//! per-period miss count first returned to the clean run's level.

use std::sync::Arc;

use helio_ann::{CompiledDbn, CompiledTier, Dbn, DistilledPolicy};
use helio_faults::{
    AgingFault, DbnFault, DbnFaultMode, FaultHarness, FaultPlan, PeriodWindow, SolarFault,
};
use helio_solar::NoisyOracle;
use helio_tasks::benchmarks;
use heliosched::{
    BatchEngine, BatchScenario, FixedPlanner, MpcPlanner, OptimalPlanner, Pattern, PeriodPlanner,
    ProposedPlanner, ResilientPlanner, SimReport, SwitchRule,
};
use serde::Serialize;

use crate::golden::{
    golden_dbn, golden_distilled_policy, golden_dp, golden_node, golden_trace, GOLDEN_DELTA,
};

/// Where the committed table lives, relative to the workspace root.
pub const REPORT_PATH: &str = "results/ROBUSTNESS.json";

/// Midday of day 1 on the golden 24-period day.
pub const BLACKOUT_START: usize = 34;

/// The DBN-unavailability window every faulted cell carries.
pub const DBN_OUTAGE: PeriodWindow = PeriodWindow {
    start: 24,
    periods: 4,
};

/// Planner backends, in table order.
pub const BACKENDS: [&str; 4] = ["inter", "dbn", "mpc", "distilled"];

/// Midday blackout lengths in periods (0 = no blackout).
pub const BLACKOUTS: [usize; 3] = [0, 4, 8];

/// Aging severities.
pub const AGINGS: [&str; 3] = ["none", "moderate", "severe"];

/// One (planner backend × blackout duration × aging severity) cell.
#[derive(Debug, Clone, Serialize)]
pub struct RobustnessPoint {
    /// Planner backend (`inter`, `dbn`, `mpc`, `distilled`).
    pub backend: String,
    /// Midday blackout length in periods (0 = no blackout).
    pub blackout_periods: usize,
    /// Aging severity label (`none`, `moderate`, `severe`).
    pub aging: String,
    /// Long-term DMR of the faulted run.
    pub dmr: f64,
    /// Long-term DMR of the same backend's clean run.
    pub clean_dmr: f64,
    /// `dmr - clean_dmr` in DMR points (robustness cost of the faults).
    pub dmr_degradation: f64,
    /// Periods the (resilient) planner served from its fallback.
    pub fallbacks: usize,
    /// Slots whose harvest a solar fault modified.
    pub faulted_slots: usize,
    /// Sum of all degraded-mode counters.
    pub degraded_total: usize,
    /// Fault-log length of the run.
    pub fault_events: usize,
    /// Periods after the blackout window until the per-period miss
    /// count first returned to the clean run's level (`null` when no
    /// blackout was injected or the run never recovered within the
    /// horizon).
    pub recovery_periods: Option<usize>,
}

/// The whole table, as committed to [`REPORT_PATH`].
#[derive(Debug, Clone, Serialize)]
pub struct RobustnessReport {
    /// Grid description (days × periods × slots).
    pub grid: String,
    /// Flat period the injected blackout starts at.
    pub blackout_start: usize,
    /// DBN-outage window injected into every faulted cell, as
    /// `[start, len]` flat periods.
    pub dbn_outage: [usize; 2],
    /// The sweep, ordered backend-major.
    pub sweep: Vec<RobustnessPoint>,
}

/// The shared inference assets every cell's planner is built from: the
/// trained teacher, its compiled form and the distilled artifact.
struct Assets {
    dbn: Arc<Dbn>,
    compiled: Arc<CompiledDbn>,
    distilled: Arc<DistilledPolicy>,
}

fn make_planner<'a>(backend: &str, assets: &Assets) -> ResilientPlanner<'a> {
    let inner: Box<dyn PeriodPlanner> = match backend {
        "dbn" => Box::new(ProposedPlanner::from_shared_dbn(
            Arc::clone(&assets.dbn),
            GOLDEN_DELTA,
            SwitchRule::default(),
        )),
        "mpc" => Box::new(MpcPlanner::new(
            Box::new(NoisyOracle::perfect()),
            24,
            golden_dp(),
            GOLDEN_DELTA,
            SwitchRule::default(),
        )),
        "distilled" => Box::new(ProposedPlanner::from_distilled(
            Arc::clone(&assets.distilled),
            Arc::clone(&assets.compiled),
            GOLDEN_DELTA,
            SwitchRule::default(),
        )),
        _ => Box::new(FixedPlanner::new(Pattern::Inter, 1)),
    };
    ResilientPlanner::new(inner)
}

fn aging_fault(label: &str) -> Option<AgingFault> {
    match label {
        "moderate" => Some(AgingFault {
            capacitance_fade_per_day: 0.97,
            leakage_growth_per_day: 1.3,
        }),
        "severe" => Some(AgingFault {
            capacitance_fade_per_day: 0.90,
            leakage_growth_per_day: 2.0,
        }),
        _ => None,
    }
}

fn fault_plan(blackout: usize, aging: &str) -> FaultPlan {
    FaultPlan {
        solar: if blackout > 0 {
            vec![SolarFault {
                window: PeriodWindow::new(BLACKOUT_START, blackout),
                factor: 0.0,
            }]
        } else {
            Vec::new()
        },
        aging: aging_fault(aging),
        dbn: vec![DbnFault {
            window: DBN_OUTAGE,
            mode: DbnFaultMode::Unavailable,
        }],
        ..FaultPlan::default()
    }
}

/// Periods after the blackout window until the faulted run's per-period
/// misses first drop back to the clean run's level.
fn recovery_periods(
    faulted: &SimReport,
    clean: &SimReport,
    blackout_periods: usize,
) -> Option<usize> {
    if blackout_periods == 0 {
        return None;
    }
    let window_end = BLACKOUT_START + blackout_periods;
    faulted
        .periods
        .iter()
        .zip(&clean.periods)
        .skip(window_end)
        .position(|(f, c)| f.misses <= c.misses)
}

/// Computes the full table: one clean run per backend, then every
/// (backend × blackout × aging) cell as one sharded batch.
///
/// # Panics
///
/// If the golden configuration fails to plan, train or simulate.
pub fn robustness_report() -> RobustnessReport {
    let node = golden_node();
    let trace = golden_trace();
    let graph = benchmarks::ecg();
    let grid = &node.grid;

    // Train the DBN once from the optimal planner's samples (the same
    // weights the golden suite pins); one shared network means the
    // batch engine fuses the DBN cells' inference into one forward per
    // period.
    let optimal = OptimalPlanner::compute(&node, &graph, &trace, &golden_dp(), GOLDEN_DELTA)
        .expect("optimal for DBN training");
    let dbn = Arc::new(golden_dbn(&optimal));
    let assets = Assets {
        compiled: Arc::new(CompiledDbn::compile(&dbn, CompiledTier::F32).expect("DBN compiles")),
        distilled: Arc::new(golden_distilled_policy(&dbn)),
        dbn,
    };

    // Clean baselines: one un-faulted run per backend, as one sharded
    // batch (byte-identical to `run()` at any shard count).
    let clean: Vec<SimReport> = {
        let mut engine = BatchEngine::new(&node, &graph).expect("robustness engine");
        for backend in BACKENDS {
            engine
                .push(BatchScenario::new(
                    &trace,
                    Box::new(make_planner(backend, &assets)),
                ))
                .expect("clean scenario");
        }
        engine
            .run_sharded_with(&mut crate::worker_scratches())
            .expect("clean runs")
    };

    let cells: Vec<(usize, usize, &str)> = (0..BACKENDS.len())
        .flat_map(|b| {
            BLACKOUTS
                .iter()
                .flat_map(move |&k| AGINGS.iter().map(move |&a| (b, k, a)))
        })
        .collect();

    // Every cell shares the node, graph and trace and differs only in
    // planner and fault plan — exactly the shape `BatchEngine` batches:
    // one lockstep run advances the whole sweep, scenarios inside a DBN
    // outage window fall back to per-scenario planning for exactly
    // those periods.
    let harnesses: Vec<FaultHarness> = cells
        .iter()
        .map(|&(_, k, a)| {
            FaultHarness::new(
                &fault_plan(k, a),
                grid.total_periods(),
                grid.periods_per_day(),
            )
        })
        .collect();
    let faulted: Vec<SimReport> = {
        let mut engine = BatchEngine::new(&node, &graph).expect("robustness engine");
        for (&(b, _, _), harness) in cells.iter().zip(&harnesses) {
            engine
                .push(
                    BatchScenario::new(&trace, Box::new(make_planner(BACKENDS[b], &assets)))
                        .with_harness(harness),
                )
                .expect("faulted scenario");
        }
        engine
            .run_sharded_with(&mut crate::worker_scratches())
            .expect("faulted runs")
    };

    let sweep = cells
        .iter()
        .zip(&faulted)
        .map(|(&(b, blackout, aging), report)| {
            let clean_report = &clean[b];
            let dmr = report.overall_dmr();
            let clean_dmr = clean_report.overall_dmr();
            RobustnessPoint {
                backend: BACKENDS[b].to_string(),
                blackout_periods: blackout,
                aging: aging.to_string(),
                dmr,
                clean_dmr,
                dmr_degradation: dmr - clean_dmr,
                fallbacks: report.degraded.planner_fallbacks,
                faulted_slots: report.degraded.faulted_slots,
                degraded_total: report.degraded.total(),
                fault_events: report.faults.len(),
                recovery_periods: recovery_periods(report, clean_report, blackout),
            }
        })
        .collect();

    RobustnessReport {
        grid: format!(
            "{}d x {}p x {}s",
            grid.days(),
            grid.periods_per_day(),
            grid.slots_per_period()
        ),
        blackout_start: BLACKOUT_START,
        dbn_outage: [DBN_OUTAGE.start, DBN_OUTAGE.periods],
        sweep,
    }
}

/// The committed file's bytes: pretty JSON with a trailing newline.
///
/// # Panics
///
/// If the report fails to serialise.
pub fn render(report: &RobustnessReport) -> String {
    let json = serde_json::to_string_pretty(report).expect("robustness report serialises");
    format!("{json}\n")
}
