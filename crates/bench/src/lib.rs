//! # helio-bench
//!
//! The experiment harness regenerating every table and figure of the
//! DAC'15 paper. Each `src/bin/*.rs` binary reproduces one artifact
//! and prints the same rows/series the paper reports:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig5` | regulator efficiency curves |
//! | `fig7` | solar power of four individual days |
//! | `table2` | migration efficiencies, model vs test |
//! | `fig8` | DMR of four schedulers × six benchmarks × four days |
//! | `fig9` | two-month DMR and energy utilisation (WAM) |
//! | `fig10a` | DMR & complexity vs prediction length |
//! | `fig10b` | migration efficiency & DMR vs capacitor count |
//! | `overhead` | Section 6.5 algorithm overhead |
//! | `robustness` | DMR and fallbacks under injected faults (`results/ROBUSTNESS.json`) |
//!
//! Run with `cargo run --release -p helio-bench --bin <name>`. The
//! library half holds the shared experiment plumbing; the `benchmark`
//! binary times the end-to-end workloads and their layers.

pub mod golden;
pub mod robustness;

use helio_common::time::TimeGrid;
use helio_common::units::Seconds;
use helio_solar::{DayArchetype, SolarPanel, SolarTrace, TraceBuilder, WeatherProcess};
use helio_tasks::TaskGraph;
use heliosched::{
    size_capacitors, BatchEngine, BatchScenario, BatchScratch, CoreError, DpConfig, NodeConfig,
    OfflineConfig, PeriodPlanner, SimReport,
};

/// The paper's experiment grid: 10-minute periods of ten 60 s slots.
/// `periods_per_day` defaults to 144 (a full day); experiments that
/// only need daylight dynamics can pass fewer.
pub fn paper_grid(days: usize, periods_per_day: usize) -> TimeGrid {
    TimeGrid::new(days, periods_per_day, 10, Seconds::new(60.0))
        .expect("paper grid dimensions are valid")
}

/// The four individual test days of Fig. 7/Fig. 8, most to least
/// energetic.
pub fn four_days() -> [DayArchetype; 4] {
    DayArchetype::ALL
}

/// The four-day evaluation trace (Fig. 7's days).
pub fn four_day_trace(periods_per_day: usize, seed: u64) -> SolarTrace {
    TraceBuilder::new(paper_grid(4, periods_per_day), SolarPanel::paper_panel())
        .seed(seed)
        .days(&four_days())
        .build()
}

/// A multi-day weather-process trace (training data and the two-month
/// evaluation of Fig. 9).
pub fn weather_trace(days: usize, periods_per_day: usize, seed: u64) -> SolarTrace {
    TraceBuilder::new(paper_grid(days, periods_per_day), SolarPanel::paper_panel())
        .seed(seed)
        .weather(WeatherProcess::temperate())
        .build()
}

/// Builds a node whose `h` capacitors were sized offline on a training
/// trace (Section 4.1).
///
/// # Errors
///
/// Propagates sizing and configuration failures.
pub fn sized_node(
    graph: &TaskGraph,
    training: &SolarTrace,
    h: usize,
) -> Result<NodeConfig, CoreError> {
    let storage = helio_storage::StorageModelParams::default();
    let pmu = helio_nvp::Pmu::default();
    let sizes = size_capacitors(graph, training, h, &storage, &pmu)?;
    NodeConfig::builder(*training.grid())
        .capacitors(&sizes)
        .storage(storage)
        .build()
        .map(|mut node| {
            node.grid = *training.grid();
            node
        })
}

/// Index of the bank's middle capacitor — the single capacitor the
/// baselines use (they have no sizing stage).
pub fn baseline_capacitor(node: &NodeConfig) -> usize {
    node.capacitors.len() / 2
}

/// The offline-training configuration every experiment binary uses:
/// the given DP resolution and `δ`, with DBN training shrunk under
/// `HELIO_FAST=1`.
pub fn offline_config(dp: DpConfig, delta: f64) -> OfflineConfig {
    let mut offline = OfflineConfig {
        dp,
        delta,
        ..OfflineConfig::default()
    };
    if fast_mode() {
        offline.dbn.bp_epochs = 150;
    }
    offline
}

/// Rebinds a trained/sized node onto an evaluation trace's grid — the
/// train-on-one-trace, evaluate-on-another step of every figure.
pub fn node_for_eval(node_train: &NodeConfig, eval: &SolarTrace) -> NodeConfig {
    NodeConfig {
        grid: *eval.grid(),
        ..node_train.clone()
    }
}

/// Runs several planners against one `(node, graph, trace)` as a
/// single lockstep [`BatchEngine`] batch — the sweep primitive the
/// figure binaries build on. Reports come back in planner order and
/// are byte-identical to per-planner [`heliosched::Engine::run`] calls; DBN-backed
/// planners sharing a network get their inference batched.
///
/// # Errors
///
/// Propagates engine failures.
pub fn run_planner_batch<'a>(
    node: &'a NodeConfig,
    graph: &'a TaskGraph,
    trace: &'a SolarTrace,
    planners: Vec<Box<dyn PeriodPlanner + 'a>>,
) -> Result<Vec<SimReport>, CoreError> {
    let mut engine = BatchEngine::new(node, graph)?;
    for planner in planners {
        engine.push(BatchScenario::new(trace, planner))?;
    }
    // Shard across the worker pool: byte-identical to `run()` at any
    // shard count, so every figure binary gets the cores for free.
    engine.run_sharded_with(&mut worker_scratches())
}

/// One [`BatchScratch`] per configured worker (`HELIO_THREADS`, else
/// available parallelism), at least one: hand
/// them to [`BatchEngine::run_sharded_with`] to spread a batch over
/// the whole worker pool.
pub fn worker_scratches() -> Vec<BatchScratch> {
    let workers = helio_par::configured_threads().max(1);
    (0..workers).map(|_| BatchScratch::default()).collect()
}

/// Maps `f` over `items` on the worker pool, preserving input order in
/// the output — the sweep primitive of the experiment binaries. Honours
/// `HELIO_THREADS`.
pub fn par_sweep<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    helio_par::par_map(items, f)
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", 100.0 * x)
}

/// Reads an environment flag that shrinks experiments for smoke runs
/// (`HELIO_FAST=1`).
pub fn fast_mode() -> bool {
    std::env::var("HELIO_FAST").is_ok_and(|v| v == "1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_shape() {
        let g = paper_grid(4, 144);
        assert_eq!(g.total_periods(), 576);
        assert!((g.period_duration().minutes() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn four_day_trace_is_ordered() {
        let t = four_day_trace(48, 1);
        let e: Vec<f64> = (0..4).map(|d| t.day_energy(d).value()).collect();
        assert!(e.windows(2).all(|w| w[0] > w[1]), "{e:?}");
    }

    #[test]
    fn sized_node_has_h_caps() {
        let g = helio_tasks::benchmarks::ecg();
        let t = weather_trace(3, 48, 2);
        let node = sized_node(&g, &t, 3).unwrap();
        assert_eq!(node.capacitor_count(), 3);
        assert!(baseline_capacitor(&node) == 1);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.278), " 27.8%");
    }
}
