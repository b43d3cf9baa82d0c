//! The design-time pipeline (paper Fig. 4, offline part):
//! supercapacitor sizing (Section 4.1), long-term DMR optimisation on
//! training solar data, and DBN training on the optimal samples.

use helio_ann::{Dbn, DbnConfig};
use helio_common::time::PeriodRef;
use helio_common::units::{Farads, Joules, Seconds};
use helio_nvp::Pmu;
use helio_sched::{AsapScheduler, ExecState, PeriodStart, SchedTables, SlotContext, SlotScheduler};
use helio_solar::SolarTrace;
use helio_storage::{cluster_sizes, optimal_capacitance, StorageModelParams};
use helio_tasks::TaskGraph;

use crate::config::NodeConfig;
use crate::error::CoreError;
use crate::longterm::DpConfig;
use crate::online::{ProposedPlanner, SwitchRule};
use crate::optimal::OptimalPlanner;

/// Hyper-parameters of the offline pipeline.
#[derive(Debug, Clone)]
pub struct OfflineConfig {
    /// Long-term DP resolution.
    pub dp: DpConfig,
    /// DBN training configuration.
    pub dbn: DbnConfig,
    /// Pattern-selection threshold `δ` (Section 5.2).
    pub delta: f64,
    /// Capacitor-switch threshold `E_th` (Eq. 22).
    pub switch: SwitchRule,
    /// Capacitance search bracket for sizing (F).
    pub c_bracket: (f64, f64),
}

impl Default for OfflineConfig {
    fn default() -> Self {
        Self {
            dp: DpConfig::default(),
            dbn: DbnConfig::small(0xD5EED),
            delta: 0.5,
            switch: SwitchRule::default(),
            c_bracket: (0.3, 150.0),
        }
    }
}

/// The per-slot load demand (J) of one period under the energy-blind
/// ASAP rule — the schedule Section 4.1 uses to extract the migration
/// patterns `ΔE_{i,j,m}`.
pub fn asap_demand_profile(
    graph: &TaskGraph,
    slots_per_period: usize,
    slot: Seconds,
) -> Vec<Joules> {
    let mut exec = ExecState::new(graph, slot);
    let tables = SchedTables::new(graph, slot, slots_per_period);
    let mut asap = AsapScheduler::new();
    asap.begin_period(&PeriodStart {
        graph,
        tables: &tables,
        slot_duration: slot,
        slots_per_period,
        predicted_energy: Joules::ZERO,
        stored_energy: Joules::ZERO,
        allowed: None,
    });
    let mut demand = Vec::with_capacity(slots_per_period);
    for m in 0..slots_per_period {
        let picked = asap.select(&SlotContext {
            graph,
            tables: &tables,
            exec: &exec,
            slot: m,
            slot_duration: slot,
            slots_per_period,
            harvest: Joules::ZERO,
            direct_deliverable: Joules::ZERO,
            storage_deliverable: Joules::ZERO,
        });
        let e: Joules = picked
            .iter()
            .map(|i| graph.task(helio_tasks::TaskId(i)).power * slot)
            .sum();
        for i in picked {
            exec.advance(helio_tasks::TaskId(i));
        }
        demand.push(e);
    }
    demand
}

/// Supercapacitor sizing (Section 4.1): per-day optimal capacitances
/// from the ASAP migration pattern, clustered into `h` physical sizes.
///
/// # Errors
///
/// Returns [`CoreError::Config`] for `h == 0` and propagates sizing
/// failures.
pub fn size_capacitors(
    graph: &TaskGraph,
    trace: &SolarTrace,
    h: usize,
    storage: &StorageModelParams,
    pmu: &Pmu,
) -> Result<Vec<Farads>, CoreError> {
    if h == 0 {
        return Err(CoreError::Config("need at least one capacitor".into()));
    }
    let grid = trace.grid();
    let slot = grid.slot_duration();
    let demand = asap_demand_profile(graph, grid.slots_per_period(), slot);
    // Eq. 2's ΔE is a *delivered*-energy balance: harvested energy
    // reaches the load through the PMU's direct channel, so the
    // migration profile discounts it by that channel's efficiency
    // (matching `Pmu::settle_slot`, where the direct channel serves
    // the load first).
    let eta = pmu.params().direct_efficiency;

    // Each day's bracket search only reads the trace and the shared
    // ASAP demand profile, so days fan out across workers; results come
    // back in day order, keeping the clustering input deterministic.
    let daily: Vec<Result<Farads, CoreError>> = helio_par::par_map_range(grid.days(), |day| {
        // ΔE_{i,j,m} = delivered harvest − ASAP load, per slot of the
        // day (Eq. 2).
        let mut delta_e = Vec::with_capacity(grid.slots_per_day());
        for j in 0..grid.periods_per_day() {
            for (m, s) in grid.slots_in(PeriodRef::new(day, j)).enumerate() {
                delta_e.push(trace.slot_energy(s) * eta - demand[m]);
            }
        }
        let out = optimal_capacitance(
            &delta_e,
            slot,
            storage,
            Farads::new(0.5),
            Farads::new(120.0),
        )?;
        Ok(out.capacitance)
    });
    let daily_optima = daily.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(cluster_sizes(&daily_optima, h)?)
}

/// Trains the proposed planner end to end: run the optimal long-term
/// DP on the training trace, collect its `(observation, decision)`
/// samples, and fit the DBN (Fig. 4's offline part, minus sizing —
/// pass a node whose capacitors were already sized).
///
/// # Errors
///
/// Propagates optimal-planning and DBN-training failures.
pub fn train_proposed(
    node: &NodeConfig,
    graph: &TaskGraph,
    training: &SolarTrace,
    cfg: &OfflineConfig,
) -> Result<ProposedPlanner, CoreError> {
    let optimal = OptimalPlanner::compute(node, graph, training, &cfg.dp, cfg.delta)?;
    let dbn = Dbn::train_set(optimal.samples(), &cfg.dbn)?;
    Ok(ProposedPlanner::from_dbn(dbn, cfg.delta, cfg.switch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use helio_common::time::TimeGrid;
    use helio_solar::{SolarPanel, TraceBuilder};
    use helio_tasks::benchmarks;

    fn grid(days: usize) -> TimeGrid {
        TimeGrid::new(days, 24, 10, Seconds::new(60.0)).unwrap()
    }

    fn trace(days: usize, seed: u64) -> SolarTrace {
        TraceBuilder::new(grid(days), SolarPanel::paper_panel())
            .seed(seed)
            .weather(helio_solar::WeatherProcess::temperate())
            .build()
    }

    #[test]
    fn asap_profile_front_loads_demand() {
        let g = benchmarks::ecg();
        let demand = asap_demand_profile(&g, 10, Seconds::new(60.0));
        assert_eq!(demand.len(), 10);
        let total: f64 = demand.iter().map(|e| e.value()).sum();
        // All ECG work fits in the period under ASAP.
        assert!((total - g.total_energy().value()).abs() < 1e-9);
        // Front-loaded: the first half carries most of the demand.
        let first: f64 = demand[..5].iter().map(|e| e.value()).sum();
        assert!(first > total * 0.5, "{demand:?}");
    }

    #[test]
    fn sizing_produces_ascending_h_sizes() {
        let g = benchmarks::ecg();
        let t = trace(6, 5);
        let storage = StorageModelParams::default();
        let sizes = size_capacitors(&g, &t, 3, &storage, &Pmu::default()).unwrap();
        assert_eq!(sizes.len(), 3);
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
        assert!(sizes.iter().all(|c| c.value() >= 0.3 && c.value() <= 150.0));
        // Zero capacitors is rejected.
        assert!(size_capacitors(&g, &t, 0, &storage, &Pmu::default()).is_err());
    }

    #[test]
    fn sizing_discounts_harvest_by_pmu_direct_efficiency() {
        let g = benchmarks::ecg();
        let t = trace(1, 9);
        let storage = StorageModelParams::default();
        let pmu = Pmu::default();
        // Replicate the single-day ΔE profile by hand: harvest reaches
        // the load through the direct channel, so it is discounted by
        // that channel's efficiency before the ASAP demand is
        // subtracted (Eq. 2 on delivered energy).
        let grid = t.grid();
        let slot = grid.slot_duration();
        let demand = asap_demand_profile(&g, grid.slots_per_period(), slot);
        let eta = pmu.params().direct_efficiency;
        let mut delta_e = Vec::new();
        for j in 0..grid.periods_per_day() {
            for (m, s) in grid.slots_in(PeriodRef::new(0, j)).enumerate() {
                delta_e.push(t.slot_energy(s) * eta - demand[m]);
            }
        }
        let want = optimal_capacitance(
            &delta_e,
            slot,
            &storage,
            Farads::new(0.5),
            Farads::new(120.0),
        )
        .unwrap()
        .capacitance;
        let got = size_capacitors(&g, &t, 1, &storage, &pmu).unwrap();
        assert_eq!(got, vec![want]);
        // A lossless PMU sees more usable harvest, so the sizing must
        // actually depend on the efficiency (the parameter is no
        // longer ignored).
        let lossless = Pmu::try_new(helio_nvp::PmuParams {
            direct_efficiency: 1.0,
        })
        .unwrap();
        let got_lossless = size_capacitors(&g, &t, 1, &storage, &lossless).unwrap();
        assert_ne!(got, got_lossless, "efficiency must influence sizing");
    }

    #[test]
    fn training_produces_a_runnable_planner() {
        use crate::engine::Engine;
        let g = benchmarks::ecg();
        let train_trace = trace(2, 6);
        let node = NodeConfig::builder(grid(2))
            .capacitors(&[Farads::new(2.0), Farads::new(15.0)])
            .build()
            .unwrap();
        let mut cfg = OfflineConfig::default();
        cfg.dbn.bp_epochs = 100; // keep the unit test fast
        let mut planner = train_proposed(&node, &g, &train_trace, &cfg).unwrap();
        // Evaluate on a *different* trace (same grid).
        let eval = trace(2, 7);
        let report = Engine::new(&node, &g, &eval)
            .unwrap()
            .run(&mut planner)
            .unwrap();
        assert_eq!(report.planner, "proposed-dbn");
        assert!(
            report.overall_dmr() < 1.0,
            "planner must complete something"
        );
    }
}
