//! The slot-stepped simulation engine of the dual-channel node.
//!
//! Per period: ask the planner for the coarse decision (capacitor,
//! admitted tasks, pattern), then drive the chosen fine-grained
//! scheduler slot by slot through the PMU. Per slot: leak the bank,
//! observe the harvest, let the scheduler pick tasks, settle the energy
//! flows, and advance task progress only when the slot was fully
//! powered — an under-powered slot browns out, the NVPs back up, and
//! the energy spent is wasted (the mechanism that punishes greedy
//! schedulers at night).

use helio_common::time::PeriodRef;
use helio_common::units::Joules;
use helio_faults::{DegradedCounters, FaultEvent, FaultHarness, ForecastMode};
use helio_nvp::NvpFleet;
use helio_sched::{
    AsapScheduler, ExecState, IntraTaskScheduler, LsaScheduler, PeriodStart, SchedTables,
    SlotContext, SlotScheduler,
};
use helio_solar::{SolarPredictor, SolarTrace, WcmaPredictor};
use helio_storage::{CapacitorBank, StorageModelParams};
use helio_tasks::TaskGraph;
use helio_tasks::TaskId;

use crate::batch::PlanContext;
use crate::checkpoint::ScenarioCheckpoint;
use crate::config::NodeConfig;
use crate::error::CoreError;
use crate::metrics::{PeriodLog, PeriodRecord, SimReport};
use crate::planner::{Pattern, PeriodPlanner, PlanDecision, PlannerObservation};

/// The simulation engine. Construct once per (node, task set, trace)
/// and [`Engine::run`] any number of planners against it.
pub struct Engine<'a> {
    node: &'a NodeConfig,
    graph: &'a TaskGraph,
    trace: &'a SolarTrace,
    // `Send + Sync` so one engine can serve concurrent `run` calls
    // from the parallel experiment sweeps.
    predictor: Box<dyn SolarPredictor + Send + Sync + 'a>,
}

impl<'a> Engine<'a> {
    /// Creates an engine after validating that the trace matches the
    /// node's grid and the task set fits the period.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TraceMismatch`] or [`CoreError::Tasks`].
    pub fn new(
        node: &'a NodeConfig,
        graph: &'a TaskGraph,
        trace: &'a SolarTrace,
    ) -> Result<Self, CoreError> {
        if trace.grid() != &node.grid {
            return Err(CoreError::TraceMismatch(format!(
                "trace grid {:?} differs from node grid {:?}",
                trace.grid(),
                node.grid
            )));
        }
        graph
            .validate(node.grid.period_duration())
            .map_err(|e| CoreError::Tasks(e.to_string()))?;
        Ok(Self {
            node,
            graph,
            trace,
            predictor: Box::new(WcmaPredictor::default()),
        })
    }

    /// Replaces the per-period energy predictor the fine-grained
    /// schedulers see (default: WCMA, as in the paper's baseline \[3\]).
    #[must_use]
    pub fn with_predictor(mut self, predictor: Box<dyn SolarPredictor + Send + Sync + 'a>) -> Self {
        self.predictor = predictor;
        self
    }

    /// Runs a planner over the whole horizon.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Storage`] when the planner selects an
    /// out-of-range capacitor.
    pub fn run(&self, planner: &mut dyn PeriodPlanner) -> Result<SimReport, CoreError> {
        self.run_with_faults(planner, None)
    }

    /// Runs a planner over the whole horizon under an optional fault
    /// harness.
    ///
    /// With `None` (or an empty harness) this is exactly [`Engine::run`]
    /// — the fault path is skipped entirely and reports stay
    /// byte-identical to the clean format. With an active harness the
    /// engine additionally, per period:
    ///
    /// * applies capacitor aging (capacitance fade, preserving stored
    ///   energy) and leakage growth before the planner observes the bank,
    /// * injects the period's DBN fault into the planner,
    /// * overrides the capacitor choice when the PMU mux is stuck,
    /// * corrupts the per-period forecast, then sanitises non-finite or
    ///   negative forecasts to zero,
    /// * attenuates every slot's harvest by the solar fault factor, and
    /// * *drops* (rather than aborts on) scheduler-contract-violating
    ///   assignments, notifying the planner.
    ///
    /// Everything injected or degraded is recorded in the report's
    /// `faults` log and `degraded` counters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Storage`] when the planner selects an
    /// out-of-range capacitor.
    pub fn run_with_faults(
        &self,
        planner: &mut dyn PeriodPlanner,
        harness: Option<&FaultHarness>,
    ) -> Result<SimReport, CoreError> {
        let harness = harness.filter(|h| !h.is_empty());
        let grid = &self.node.grid;
        // The plan context and scheduling tables are rebuilt per run
        // here (sequential runs keep their original cost profile — the
        // planner is NOT attached to the context, so it still derives
        // the topological order itself); the batch engine builds both
        // once per batch instead.
        let ctx = PlanContext::new(self.graph, grid.slot_duration())?;
        let tables = SchedTables::new(self.graph, grid.slot_duration(), grid.slots_per_period());
        let env = ScenarioEnv {
            node: self.node,
            graph: self.graph,
            trace: self.trace,
            predictor: self.predictor.as_ref(),
            ctx: &ctx,
            tables: &tables,
            harness,
        };
        let mut state = ScenarioState::new(self.node, self.graph)?;
        for period in grid.periods() {
            let flat = grid.period_index(period);
            state.pre_plan(&env, flat, planner)?;
            let decision = {
                let obs = state.observation(&env, period);
                planner.plan(&obs)
            };
            state.run_period(&env, period, planner, decision)?;
        }
        Ok(state.into_report(planner, harness))
    }
}

/// The immutable surroundings of one simulated scenario: the node, the
/// task set, that scenario's trace/predictor/fault harness, the shared
/// [`PlanContext`] and the scheduling tables. Everything a period step needs that is not
/// per-scenario mutable state.
pub(crate) struct ScenarioEnv<'e> {
    pub(crate) node: &'e NodeConfig,
    pub(crate) graph: &'e TaskGraph,
    pub(crate) trace: &'e SolarTrace,
    pub(crate) predictor: &'e (dyn SolarPredictor + 'e),
    pub(crate) ctx: &'e PlanContext,
    pub(crate) tables: &'e SchedTables,
    pub(crate) harness: Option<&'e FaultHarness>,
}

/// The mutable state of one simulated scenario, advanced period by
/// period. [`Engine::run_with_faults`] drives a single one; the
/// [`BatchEngine`](crate::batch::BatchEngine) keeps a `Vec` of these
/// (structure-of-arrays over scenarios) and advances them in lockstep.
pub(crate) struct ScenarioState {
    bank: CapacitorBank,
    fleet: NvpFleet,
    asap: AsapScheduler,
    inter: LsaScheduler,
    intra: IntraTaskScheduler,
    /// Slot-path scratch, built once: reset in place each period so the
    /// slot loop allocates nothing once warm.
    exec: ExecState,
    /// Reserved for the whole horizon, so appending a period never
    /// reallocates.
    periods: PeriodLog,
    acc_misses: usize,
    acc_tasks: usize,
    degraded: DegradedCounters,
    // Aging state: the cumulative capacitance factor already applied
    // to the bank, and the leakage-scaled parameter set (built only
    // when the multiplier departs from 1, so the clean path never
    // clones).
    applied_cap_factor: f64,
    leak_scale: f64,
    scaled_leak: Option<StorageModelParams>,
}

impl ScenarioState {
    pub(crate) fn new(node: &NodeConfig, graph: &TaskGraph) -> Result<Self, CoreError> {
        Ok(Self {
            bank: CapacitorBank::new(&node.capacitors, &node.storage)?,
            fleet: NvpFleet::for_graph(graph),
            asap: AsapScheduler::new(),
            inter: LsaScheduler::new(),
            intra: IntraTaskScheduler::new(),
            exec: ExecState::new(graph, node.grid.slot_duration()),
            periods: PeriodLog::with_capacity(node.grid.total_periods()),
            acc_misses: 0,
            acc_tasks: 0,
            degraded: DegradedCounters::default(),
            applied_cap_factor: 1.0,
            leak_scale: 1.0,
            scaled_leak: None,
        })
    }

    /// Freezes the cross-period state at a period boundary into a
    /// snapshot, moving the period log rather than copying it. The bank
    /// is captured wholesale — aging multiplies capacitances in place
    /// and `f64` products are non-associative, so re-deriving it from
    /// the cumulative factor would drift bitwise. Schedulers and the
    /// executor are deliberately absent: both are rebuilt at every
    /// `begin_period`/`reset`, so a boundary snapshot never needs them.
    pub(crate) fn into_checkpoint(self) -> ScenarioCheckpoint {
        ScenarioCheckpoint {
            bank: self.bank,
            fleet: self.fleet,
            periods: self.periods,
            acc_misses: self.acc_misses,
            acc_tasks: self.acc_tasks,
            degraded: self.degraded,
            applied_cap_factor: self.applied_cap_factor,
            leak_scale: self.leak_scale,
            leak_scaled: self.scaled_leak.is_some(),
        }
    }

    /// Rebuilds a scenario state from a boundary snapshot: fresh
    /// schedulers/executor plus the captured cross-period state. The
    /// scaled leakage parameter set is re-derived from `leak_scale`
    /// (a pure function of the calibration and the factor).
    pub(crate) fn restore(
        node: &NodeConfig,
        graph: &TaskGraph,
        ckpt: &ScenarioCheckpoint,
    ) -> Result<Self, CoreError> {
        let mut state = Self::new(node, graph)?;
        if ckpt.bank.len() != state.bank.len() {
            return Err(CoreError::Config(format!(
                "checkpoint bank has {} capacitors, node has {}",
                ckpt.bank.len(),
                state.bank.len()
            )));
        }
        state.bank = ckpt.bank.clone();
        state.fleet = ckpt.fleet.clone();
        state.periods = ckpt.periods.clone();
        state
            .periods
            .reserve(node.grid.total_periods().saturating_sub(ckpt.periods.len()));
        state.acc_misses = ckpt.acc_misses;
        state.acc_tasks = ckpt.acc_tasks;
        state.degraded = ckpt.degraded;
        state.applied_cap_factor = ckpt.applied_cap_factor;
        state.leak_scale = ckpt.leak_scale;
        state.scaled_leak = ckpt
            .leak_scaled
            .then(|| node.storage.clone().with_leakage_scale(ckpt.leak_scale));
        Ok(state)
    }

    fn accumulated_dmr(&self) -> f64 {
        if self.acc_tasks == 0 {
            0.0
        } else {
            self.acc_misses as f64 / self.acc_tasks as f64
        }
    }

    /// The period-start harness effects that must land before the
    /// planner observes the bank: capacitor aging, leakage growth and
    /// DBN fault injection.
    pub(crate) fn pre_plan(
        &mut self,
        env: &ScenarioEnv<'_>,
        flat: usize,
        planner: &mut dyn PeriodPlanner,
    ) -> Result<(), CoreError> {
        if let Some(h) = env.harness {
            let cf = h.capacitance_factor(flat);
            if (cf - self.applied_cap_factor).abs() > 1e-15 {
                self.bank
                    .apply_aging(&env.node.storage, cf / self.applied_cap_factor)?;
                self.applied_cap_factor = cf;
            }
            let lm = h.leak_multiplier(flat);
            if (lm - self.leak_scale).abs() > 1e-15 {
                self.scaled_leak = Some(env.node.storage.clone().with_leakage_scale(lm));
                self.leak_scale = lm;
            }
            planner.inject_fault(h.dbn_mode(flat));
        }
        Ok(())
    }

    /// What the planner sees at the start of `period`.
    pub(crate) fn observation<'o>(
        &'o self,
        env: &ScenarioEnv<'o>,
        period: PeriodRef,
    ) -> PlannerObservation<'o> {
        PlannerObservation {
            grid: &env.node.grid,
            period,
            graph: env.graph,
            trace: env.trace,
            bank: &self.bank,
            accumulated_dmr: self.accumulated_dmr(),
            storage: &env.node.storage,
            pmu: &env.node.pmu,
        }
    }

    /// Executes one period under `decision`: capacitor switch, stuck-mux
    /// override, forecast (with faults and sanitisation), and the slot
    /// loop through the PMU.
    pub(crate) fn run_period(
        &mut self,
        env: &ScenarioEnv<'_>,
        period: PeriodRef,
        planner: &mut dyn PeriodPlanner,
        decision: PlanDecision,
    ) -> Result<(), CoreError> {
        let grid = &env.node.grid;
        let storage = &env.node.storage;
        let pmu = &env.node.pmu;
        let slot_duration = grid.slot_duration();
        let flat = grid.period_index(period);
        let leak_params = self.scaled_leak.as_ref().unwrap_or(storage);

        if let Some(c) = decision.capacitor {
            self.bank.set_active(c)?;
        }
        if let Some(ch) = env.harness.and_then(|h| h.stuck_channel(flat)) {
            // A stuck mux pins the bank to one (in-range) channel
            // regardless of what the planner asked for.
            let ch = ch.min(self.bank.len() - 1);
            if self.bank.active_index() != ch {
                self.degraded.pmu_overrides += 1;
                self.bank.set_active(ch)?;
            }
        }

        let mut predicted = env.predictor.forecast_one(env.trace, period);
        if let Some(mode) = env.harness.and_then(|h| h.forecast_mode(flat)) {
            predicted = match mode {
                ForecastMode::Scale(s) => predicted * s,
                ForecastMode::Nan => Joules::new(f64::NAN),
                ForecastMode::Zero => Joules::ZERO,
            };
        }
        if !predicted.value().is_finite() || predicted.value() < 0.0 {
            predicted = Joules::ZERO;
            self.degraded.sanitized_forecasts += 1;
        }
        let start = PeriodStart {
            graph: env.graph,
            tables: env.tables,
            slot_duration,
            slots_per_period: grid.slots_per_period(),
            predicted_energy: predicted,
            stored_energy: self.bank.active_deliverable(storage),
            allowed: decision.allowed,
        };
        let scheduler: &mut dyn SlotScheduler = match decision.pattern {
            Pattern::Asap => &mut self.asap,
            Pattern::Inter => &mut self.inter,
            Pattern::Intra => &mut self.intra,
        };
        scheduler.begin_period(&start);

        self.exec.reset();
        let mut record = PeriodRecord {
            period,
            misses: 0,
            tasks: env.graph.len(),
            harvested: Joules::ZERO,
            served_direct: Joules::ZERO,
            served_storage: Joules::ZERO,
            stored: Joules::ZERO,
            wasted: Joules::ZERO,
            unmet: Joules::ZERO,
            leaked: Joules::ZERO,
            brownouts: 0,
            pattern: decision.pattern,
            capacitor: self.bank.active_index(),
        };

        for m in 0..grid.slots_per_period() {
            record.leaked += self.bank.leak_all(leak_params, slot_duration);
            let mut harvest = env.trace.slot_energy(helio_common::time::SlotRef::new(
                period.day,
                period.period,
                m,
            ));
            if let Some(h) = env.harness {
                let f = h.harvest_factor(flat);
                if f < 1.0 {
                    harvest = harvest * f;
                    self.degraded.faulted_slots += 1;
                }
            }
            let picked = {
                let ctx = SlotContext {
                    graph: env.graph,
                    tables: env.tables,
                    exec: &self.exec,
                    slot: m,
                    slot_duration,
                    slots_per_period: grid.slots_per_period(),
                    harvest,
                    direct_deliverable: harvest * pmu.params().direct_efficiency,
                    storage_deliverable: self.bank.active_deliverable(storage),
                };
                scheduler.select(&ctx)
            };
            // The bitmask iterates in ascending task index — the
            // canonical order the f64 demand sum below relies on.
            self.fleet.begin_slot();
            let mut assigned = picked;
            for i in picked.iter() {
                let id = TaskId(i);
                if let Err(other) = self.fleet.assign(env.graph, id) {
                    if env.harness.is_some() {
                        // Under fault injection the run must survive:
                        // drop the offending assignment, tell the
                        // planner, and keep scheduling.
                        assigned.remove(i);
                        self.degraded.contract_skips += 1;
                        planner.on_contract_violation();
                        continue;
                    }
                    return Err(CoreError::SchedulerContract(format!(
                        "scheduler {} violated NVP exclusivity: {id} vs {other}",
                        scheduler.name()
                    )));
                }
            }
            let demand: Joules = assigned.iter().map(|i| env.ctx.slot_costs[i]).sum();
            let flow = pmu.settle_slot(harvest, demand, &mut self.bank, storage);
            record.harvested += flow.harvested;
            record.served_direct += flow.served_direct;
            record.served_storage += flow.served_storage;
            record.stored += flow.stored;
            record.wasted += flow.wasted;
            record.unmet += flow.unmet;
            if flow.fully_served() {
                for i in assigned {
                    self.exec.advance(TaskId(i));
                }
            } else {
                record.brownouts += 1;
                self.fleet.power_failure();
            }
        }

        record.misses = self.exec.misses();
        self.acc_misses += record.misses;
        self.acc_tasks += record.tasks;
        self.periods.push(&record);
        Ok(())
    }

    /// Finalises the run into the report, draining the planner's fault
    /// log and counters exactly as the sequential engine always has.
    pub(crate) fn into_report(
        mut self,
        planner: &mut dyn PeriodPlanner,
        harness: Option<&FaultHarness>,
    ) -> SimReport {
        self.degraded.planner_fallbacks = planner.fallback_count();
        let mut faults: Vec<FaultEvent> = harness.map(|h| h.events().to_vec()).unwrap_or_default();
        faults.extend(planner.degraded_events());
        faults.sort_by_key(|e| (e.period, e.periods));
        // Bound the merged log the same way the resilient planner
        // bounds its internal one: first/last K survive, the middle is
        // tallied. Committed fixtures sit far below the cap, so clean
        // and moderately-faulted reports are unaffected bytewise.
        self.degraded.dropped_events += planner.dropped_events()
            + helio_faults::cap_event_log(&mut faults, helio_faults::EVENT_LOG_KEEP);

        SimReport {
            planner: planner.name().to_string(),
            periods: self.periods.to_exact(),
            complexity: planner.complexity(),
            nvp_backups: self.fleet.backup_count(),
            nvp_restores: self.fleet.restore_count(),
            nvp_overhead: self.fleet.overhead_energy(),
            faults,
            degraded: self.degraded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::FixedPlanner;
    use helio_common::time::TimeGrid;
    use helio_common::units::{Farads, Seconds};
    use helio_solar::{DayArchetype, SolarPanel, TraceBuilder};
    use helio_tasks::benchmarks;

    fn grid(days: usize) -> TimeGrid {
        // Coarse test grid: 24 periods of 10 × 60 s slots per day
        // (periods are the benchmark-standard 600 s; a "day" is 4 h of
        // wall-clock mapped onto the full diurnal cycle).
        TimeGrid::new(days, 24, 10, Seconds::new(60.0)).unwrap()
    }

    fn node(days: usize) -> NodeConfig {
        NodeConfig::builder(grid(days))
            .capacitors(&[Farads::new(10.0)])
            .build()
            .unwrap()
    }

    fn trace(days: usize, archetypes: &[DayArchetype]) -> SolarTrace {
        TraceBuilder::new(grid(days), SolarPanel::paper_panel())
            .seed(7)
            .days(archetypes)
            .build()
    }

    /// The standard benchmarks use 600 s periods, matching this grid's
    /// 10 × 60 s slots exactly.
    fn graph() -> helio_tasks::TaskGraph {
        benchmarks::ecg()
    }

    #[test]
    fn predictor_choice_changes_admission() {
        // The inter-task baseline admits against the predictor's period
        // forecast; a perfect oracle and a zero-history EWMA disagree on
        // day 0, so the reports differ.
        let node = node(1);
        let t = trace(1, &[DayArchetype::BrokenClouds]);
        let g = graph();
        let with_oracle = Engine::new(&node, &g, &t)
            .unwrap()
            .with_predictor(Box::new(helio_solar::NoisyOracle::perfect()))
            .run(&mut FixedPlanner::new(Pattern::Inter, 0))
            .unwrap();
        let with_ewma = Engine::new(&node, &g, &t)
            .unwrap()
            .with_predictor(Box::new(helio_solar::EwmaPredictor::default()))
            .run(&mut FixedPlanner::new(Pattern::Inter, 0))
            .unwrap();
        // EWMA has no history on day 0 (predicts zero), so the lazy
        // admission differs from the oracle's.
        assert_ne!(with_oracle, with_ewma);
        assert!(
            with_oracle.overall_dmr() <= with_ewma.overall_dmr() + 1e-9,
            "a perfect forecast must not hurt the admission test: {} vs {}",
            with_oracle.overall_dmr(),
            with_ewma.overall_dmr()
        );
    }

    #[test]
    fn capacitor_out_of_range_is_an_error() {
        let node = node(1);
        let t = trace(1, &[DayArchetype::Clear]);
        let g = graph();
        let engine = Engine::new(&node, &g, &t).unwrap();
        let err = engine.run(&mut FixedPlanner::new(Pattern::Intra, 5));
        assert!(matches!(
            err,
            Err(CoreError::Storage(
                helio_storage::StorageError::CapacitorIndex { index: 5, len: 1 }
            ))
        ));
    }

    #[test]
    fn engine_rejects_mismatched_trace() {
        let node = node(1);
        let wrong = trace(2, &[DayArchetype::Clear]);
        let g = graph();
        assert!(matches!(
            Engine::new(&node, &g, &wrong),
            Err(CoreError::TraceMismatch(_))
        ));
    }

    #[test]
    fn clear_day_intra_beats_night_only_misses() {
        let node = node(1);
        let t = trace(1, &[DayArchetype::Clear]);
        let g = graph();
        let engine = Engine::new(&node, &g, &t).unwrap();
        let report = engine
            .run(&mut FixedPlanner::new(Pattern::Intra, 0))
            .unwrap();
        assert_eq!(report.periods.len(), 24);
        // Daytime periods should mostly succeed; night periods mostly
        // miss — overall DMR strictly between 0 and 1.
        let dmr = report.overall_dmr();
        assert!(dmr > 0.05 && dmr < 0.95, "dmr {dmr}");
        // Daytime (around noon, period 12) must be perfect on a clear
        // day.
        let noon = report.periods.iter().nth(12).unwrap();
        assert_eq!(noon.misses, 0, "{noon:?}");
    }

    #[test]
    fn asap_wastes_energy_relative_to_intra() {
        let node = node(2);
        let t = trace(2, &[DayArchetype::BrokenClouds, DayArchetype::Overcast]);
        let g = graph();
        let engine = Engine::new(&node, &g, &t).unwrap();
        let asap = engine
            .run(&mut FixedPlanner::new(Pattern::Asap, 0))
            .unwrap();
        let intra = engine
            .run(&mut FixedPlanner::new(Pattern::Intra, 0))
            .unwrap();
        // ASAP browns out at night; intra-task matches load to energy.
        assert!(
            asap.periods.iter().map(|p| p.brownouts).sum::<usize>()
                > intra.periods.iter().map(|p| p.brownouts).sum::<usize>(),
            "ASAP must brown out more"
        );
        assert!(
            intra.overall_dmr() <= asap.overall_dmr() + 1e-9,
            "intra {} vs asap {}",
            intra.overall_dmr(),
            asap.overall_dmr()
        );
    }

    #[test]
    fn energy_ledger_is_consistent() {
        let node = node(1);
        let t = trace(1, &[DayArchetype::Clear]);
        let g = graph();
        let engine = Engine::new(&node, &g, &t).unwrap();
        let r = engine
            .run(&mut FixedPlanner::new(Pattern::Intra, 0))
            .unwrap();
        let direct_eff = node.pmu.params().direct_efficiency;
        for p in &r.periods {
            let harvest = p.harvested.value();
            let accounted = (p.served_direct / direct_eff + p.stored + p.wasted).value();
            assert!(
                (harvest - accounted).abs() < 1e-6,
                "harvest {harvest} != accounted {accounted} in {:?}",
                p.period
            );
        }
        assert!(r.total_harvested().value() > 100.0, "clear day harvests");
    }

    #[test]
    fn reports_are_deterministic() {
        let node = node(1);
        let t = trace(1, &[DayArchetype::BrokenClouds]);
        let g = graph();
        let engine = Engine::new(&node, &g, &t).unwrap();
        let a = engine
            .run(&mut FixedPlanner::new(Pattern::Inter, 0))
            .unwrap();
        let b = engine
            .run(&mut FixedPlanner::new(Pattern::Inter, 0))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn storm_day_is_worse_than_clear_day() {
        let g = graph();
        let node1 = node(1);
        let clear = trace(1, &[DayArchetype::Clear]);
        let storm = trace(1, &[DayArchetype::Storm]);
        let dmr_clear = Engine::new(&node1, &g, &clear)
            .unwrap()
            .run(&mut FixedPlanner::new(Pattern::Intra, 0))
            .unwrap()
            .overall_dmr();
        let dmr_storm = Engine::new(&node1, &g, &storm)
            .unwrap()
            .run(&mut FixedPlanner::new(Pattern::Intra, 0))
            .unwrap()
            .overall_dmr();
        assert!(
            dmr_storm > dmr_clear,
            "storm {dmr_storm} must be worse than clear {dmr_clear}"
        );
    }

    #[test]
    fn empty_harness_is_byte_identical_to_clean_run() {
        let node = node(1);
        let t = trace(1, &[DayArchetype::BrokenClouds]);
        let g = graph();
        let engine = Engine::new(&node, &g, &t).unwrap();
        let clean = engine
            .run(&mut FixedPlanner::new(Pattern::Intra, 0))
            .unwrap();
        let empty = helio_faults::FaultHarness::empty();
        let harnessed = engine
            .run_with_faults(&mut FixedPlanner::new(Pattern::Intra, 0), Some(&empty))
            .unwrap();
        assert_eq!(clean, harnessed);
        assert_eq!(
            serde_json::to_string(&clean).unwrap(),
            serde_json::to_string(&harnessed).unwrap()
        );
    }

    #[test]
    fn blackout_increases_misses_and_is_logged() {
        let node = node(1);
        let t = trace(1, &[DayArchetype::Clear]);
        let g = graph();
        let engine = Engine::new(&node, &g, &t).unwrap();
        let clean = engine
            .run(&mut FixedPlanner::new(Pattern::Intra, 0))
            .unwrap();
        // Black out the middle of the (clear) day.
        let plan = helio_faults::FaultPlan {
            solar: vec![helio_faults::SolarFault {
                window: helio_faults::PeriodWindow::new(10, 4),
                factor: 0.0,
            }],
            ..helio_faults::FaultPlan::default()
        };
        let harness = helio_faults::FaultHarness::new(&plan, 24, 24);
        let faulted = engine
            .run_with_faults(&mut FixedPlanner::new(Pattern::Intra, 0), Some(&harness))
            .unwrap();
        let clean_misses: usize = clean.periods.iter().map(|p| p.misses).sum();
        let faulted_misses: usize = faulted.periods.iter().map(|p| p.misses).sum();
        assert!(
            faulted_misses > clean_misses,
            "a midday blackout must cost deadlines: {faulted_misses} vs {clean_misses}"
        );
        assert!(faulted
            .faults
            .iter()
            .any(|e| e.kind == helio_faults::FaultKind::SolarOutage));
        assert_eq!(degraded_slots(&faulted), 4 * 10, "4 periods x 10 slots");
    }

    fn degraded_slots(r: &SimReport) -> usize {
        r.degraded.faulted_slots
    }

    #[test]
    fn stuck_pmu_channel_overrides_the_planner() {
        let grid = grid(1);
        let node = NodeConfig::builder(grid)
            .capacitors(&[Farads::new(2.0), Farads::new(15.0)])
            .build()
            .unwrap();
        let t = trace(1, &[DayArchetype::Clear]);
        let g = graph();
        let engine = Engine::new(&node, &g, &t).unwrap();
        let plan = helio_faults::FaultPlan {
            pmu_stuck: vec![helio_faults::PmuStuckFault {
                window: helio_faults::PeriodWindow::new(0, 24),
                // Out-of-range channel: the engine clamps to the bank.
                channel: 7,
            }],
            ..helio_faults::FaultPlan::default()
        };
        let harness = helio_faults::FaultHarness::new(&plan, 24, 24);
        // The planner keeps asking for capacitor 0; the mux is stuck on
        // (clamped) channel 1.
        let report = engine
            .run_with_faults(&mut FixedPlanner::new(Pattern::Intra, 0), Some(&harness))
            .unwrap();
        assert_eq!(report.degraded.pmu_overrides, 24);
        assert!(report.periods.iter().all(|p| p.capacitor == 1));
    }

    #[test]
    fn same_fault_seed_reproduces_identical_reports() {
        let node = node(2);
        let t = trace(2, &[DayArchetype::BrokenClouds, DayArchetype::Overcast]);
        let g = graph();
        let engine = Engine::new(&node, &g, &t).unwrap();
        let plan = helio_faults::FaultPlan {
            seed: 42,
            random_blackouts: Some(helio_faults::RandomBlackouts {
                per_period_probability: 0.2,
                min_periods: 1,
                max_periods: 3,
            }),
            aging: Some(helio_faults::AgingFault {
                capacitance_fade_per_day: 0.95,
                leakage_growth_per_day: 1.2,
            }),
            ..helio_faults::FaultPlan::default()
        };
        let harness = helio_faults::FaultHarness::new(&plan, 48, 24);
        let a = engine
            .run_with_faults(&mut FixedPlanner::new(Pattern::Inter, 0), Some(&harness))
            .unwrap();
        let b = engine
            .run_with_faults(&mut FixedPlanner::new(Pattern::Inter, 0), Some(&harness))
            .unwrap();
        assert_eq!(a, b);
        assert!(!a.faults.is_empty(), "seeded faults must be logged");
        assert!(a.degraded.faulted_slots > 0);
    }

    #[test]
    fn forecast_corruption_is_sanitized_not_fatal() {
        let node = node(1);
        let t = trace(1, &[DayArchetype::Clear]);
        let g = graph();
        let engine = Engine::new(&node, &g, &t).unwrap();
        let plan = helio_faults::FaultPlan {
            forecast: vec![helio_faults::ForecastFault {
                window: helio_faults::PeriodWindow::new(0, 24),
                mode: helio_faults::ForecastMode::Nan,
            }],
            ..helio_faults::FaultPlan::default()
        };
        let harness = helio_faults::FaultHarness::new(&plan, 24, 24);
        let report = engine
            .run_with_faults(&mut FixedPlanner::new(Pattern::Inter, 0), Some(&harness))
            .unwrap();
        assert_eq!(report.degraded.sanitized_forecasts, 24);
        assert!(report.periods.iter().all(|p| p.misses <= p.tasks));
    }
}
