//! A health-monitoring wrapper that keeps a node scheduling through
//! planner failures.
//!
//! The proposed online planners depend on an inference path (the DBN
//! accelerator, the MPC's DP compute) that can fail in the field:
//! unavailable weights, bit-flipped outputs, decisions that reference
//! capacitors the bank does not have. [`ResilientPlanner`] wraps any
//! [`PeriodPlanner`] and validates every decision before the engine
//! acts on it; an unhealthy or invalid decision is replaced by the
//! conservative inter-task (LSA) baseline decision for that period, and
//! every engagement is recorded in the report's fault log. Repeated
//! scheduler-contract violations demote the inner planner for the rest
//! of the run.

use std::sync::Arc;

use helio_ann::{Dbn, FoldTable};
use helio_faults::{cap_event_log, DbnFaultMode, FaultEvent, FaultKind, EVENT_LOG_KEEP};

use crate::batch::PlanContext;
use crate::checkpoint::{PlannerCheckpoint, ResilientCheckpoint};
use crate::planner::{Pattern, PeriodPlanner, PlanDecision, PlannerHealth, PlannerObservation};

/// Contract violations tolerated before the inner planner is demoted
/// for the rest of the run.
const MAX_CONTRACT_VIOLATIONS: usize = 3;

/// A graceful-degradation wrapper around any [`PeriodPlanner`].
pub struct ResilientPlanner<'a> {
    inner: Box<dyn PeriodPlanner + 'a>,
    contract_violations: usize,
    demoted: bool,
    fallback_periods: usize,
    events: Vec<FaultEvent>,
    /// Events elided from the bounded `events` log.
    dropped: usize,
}

impl<'a> ResilientPlanner<'a> {
    /// Wraps `inner`, falling back to the inter-task (LSA) baseline
    /// pattern when it misbehaves.
    pub fn new(inner: Box<dyn PeriodPlanner + 'a>) -> Self {
        Self {
            inner,
            contract_violations: 0,
            demoted: false,
            fallback_periods: 0,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Periods served from the fallback baseline so far.
    pub fn fallbacks(&self) -> usize {
        self.fallback_periods
    }

    /// Whether the inner planner is currently demoted.
    pub fn is_demoted(&self) -> bool {
        self.demoted
    }

    /// Appends to the bounded event log: the first and last
    /// [`EVENT_LOG_KEEP`] events survive, the middle is counted into
    /// [`PeriodPlanner::dropped_events`]. Capping after every push
    /// keeps exactly first-K/last-K of the whole stream, so a
    /// checkpoint-resumed run retains the identical log.
    fn log_event(&mut self, event: FaultEvent) {
        self.events.push(event);
        self.dropped += cap_event_log(&mut self.events, EVENT_LOG_KEEP);
    }

    /// The fallback decision: keep the current capacitor, admit every
    /// task, run the inter-task baseline.
    fn fallback_decision() -> PlanDecision {
        PlanDecision::everything(Pattern::Inter)
    }

    fn engage_fallback(&mut self, flat: usize, reason: String) -> PlanDecision {
        self.fallback_periods += 1;
        self.log_event(FaultEvent::at(flat, FaultKind::PlannerFallback, reason));
        Self::fallback_decision()
    }

    /// Why `decision` cannot be trusted, if anything.
    fn rejection_reason(
        &self,
        obs: &PlannerObservation<'_>,
        decision: &PlanDecision,
    ) -> Option<String> {
        match self.inner.health() {
            PlannerHealth::Healthy => {}
            PlannerHealth::DbnUnavailable => {
                return Some("inference unavailable".into());
            }
            PlannerHealth::NonFinite => {
                return Some("non-finite inference output".into());
            }
        }
        if let Some(c) = decision.capacitor {
            if c >= obs.bank.len() {
                return Some(format!(
                    "capacitor {c} out of range for bank of {}",
                    obs.bank.len()
                ));
            }
        }
        if let Some(mask) = decision.allowed {
            if !mask.is_subset_of(obs.graph.all_tasks()) {
                return Some(format!(
                    "admission mask {mask} references tasks outside the graph"
                ));
            }
        }
        None
    }
}

impl PeriodPlanner for ResilientPlanner<'_> {
    fn name(&self) -> &'static str {
        "resilient"
    }

    fn plan(&mut self, obs: &PlannerObservation<'_>) -> PlanDecision {
        if self.demoted {
            // Demotion is permanent: serve the fallback without
            // consulting the inner planner at all.
            self.fallback_periods += 1;
            return Self::fallback_decision();
        }
        let flat = obs.grid.period_index(obs.period);
        let decision = self.inner.plan(obs);
        match self.rejection_reason(obs, &decision) {
            Some(reason) => self.engage_fallback(flat, reason),
            None => decision,
        }
    }

    fn complexity(&self) -> u64 {
        self.inner.complexity()
    }

    fn inject_fault(&mut self, mode: Option<DbnFaultMode>) {
        self.inner.inject_fault(mode);
    }

    fn health(&self) -> PlannerHealth {
        self.inner.health()
    }

    fn on_contract_violation(&mut self) {
        self.inner.on_contract_violation();
        self.contract_violations += 1;
        if self.contract_violations >= MAX_CONTRACT_VIOLATIONS && !self.demoted {
            self.demoted = true;
            self.log_event(FaultEvent::at(
                0,
                FaultKind::ContractViolation,
                format!(
                    "inner planner demoted after {} contract violations",
                    self.contract_violations
                ),
            ));
        }
    }

    fn fallback_count(&self) -> usize {
        // Degraded periods anywhere in the chain: this wrapper's
        // baseline engagements plus the inner planner's own internal
        // tier fallbacks (e.g. distilled → compiled).
        self.fallback_periods + self.inner.fallback_count()
    }

    fn degraded_events(&self) -> Vec<FaultEvent> {
        self.events.clone()
    }

    fn dropped_events(&self) -> usize {
        self.dropped + self.inner.dropped_events()
    }

    fn save_checkpoint(&self) -> PlannerCheckpoint {
        PlannerCheckpoint::Resilient(ResilientCheckpoint {
            contract_violations: self.contract_violations,
            demoted: self.demoted,
            fallback_periods: self.fallback_periods,
            dropped_events: self.dropped,
            events: self.events.clone(),
            inner: Box::new(self.inner.save_checkpoint()),
        })
    }

    fn restore_checkpoint(&mut self, ckpt: &PlannerCheckpoint) -> Result<(), String> {
        let PlannerCheckpoint::Resilient(c) = ckpt else {
            return Err(format!("resilient planner cannot restore from {ckpt:?}"));
        };
        self.contract_violations = c.contract_violations;
        self.demoted = c.demoted;
        self.fallback_periods = c.fallback_periods;
        self.dropped = c.dropped_events;
        self.events = c.events.clone();
        self.inner.restore_checkpoint(&c.inner)
    }

    fn attach_context(&mut self, ctx: &Arc<PlanContext>) {
        self.inner.attach_context(ctx);
    }

    fn batch_input(&mut self, obs: &PlannerObservation<'_>, input: &mut Vec<f64>) -> bool {
        if self.demoted {
            // plan() serves the fallback without consulting the inner
            // planner; decline the batch slot so it still does.
            return false;
        }
        self.inner.batch_input(obs, input)
    }

    fn batch_dbn(&self) -> Option<Arc<Dbn>> {
        self.inner.batch_dbn()
    }

    fn batch_distilled_input(
        &mut self,
        obs: &PlannerObservation<'_>,
        input: &mut Vec<f64>,
    ) -> bool {
        if self.demoted {
            // plan() serves the fallback without consulting the inner
            // planner; decline the batch slot so it still does.
            return false;
        }
        self.inner.batch_distilled_input(obs, input)
    }

    fn batch_distilled(&self) -> Option<Arc<FoldTable>> {
        self.inner.batch_distilled()
    }

    fn plan_with_output(&mut self, obs: &PlannerObservation<'_>, out: &[f64]) -> PlanDecision {
        let flat = obs.grid.period_index(obs.period);
        let decision = self.inner.plan_with_output(obs, out);
        match self.rejection_reason(obs, &decision) {
            Some(reason) => self.engage_fallback(flat, reason),
            None => decision,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;
    use crate::engine::Engine;
    use crate::planner::FixedPlanner;
    use helio_common::time::TimeGrid;
    use helio_common::units::{Farads, Seconds};
    use helio_common::TaskSet;
    use helio_solar::{DayArchetype, SolarPanel, SolarTrace, TraceBuilder};
    use helio_tasks::benchmarks;

    fn grid() -> TimeGrid {
        TimeGrid::new(1, 24, 10, Seconds::new(60.0)).unwrap()
    }

    fn node() -> NodeConfig {
        NodeConfig::builder(grid())
            .capacitors(&[Farads::new(10.0)])
            .build()
            .unwrap()
    }

    fn trace() -> SolarTrace {
        TraceBuilder::new(grid(), SolarPanel::paper_panel())
            .seed(7)
            .days(&[DayArchetype::Clear])
            .build()
    }

    /// A planner that always asks for a capacitor the bank lacks and a
    /// mask with out-of-graph bits.
    struct EvilPlanner;
    impl PeriodPlanner for EvilPlanner {
        fn name(&self) -> &'static str {
            "evil"
        }
        fn plan(&mut self, obs: &PlannerObservation<'_>) -> PlanDecision {
            PlanDecision {
                capacitor: Some(obs.bank.len() + 3),
                allowed: Some(TaskSet::EMPTY.with(obs.graph.len() + 1)),
                pattern: Pattern::Asap,
            }
        }
    }

    #[test]
    fn invalid_decisions_engage_fallback_every_period() {
        let node = node();
        let g = benchmarks::ecg();
        let t = trace();
        let engine = Engine::new(&node, &g, &t).unwrap();
        let mut planner = ResilientPlanner::new(Box::new(EvilPlanner));
        let report = engine.run(&mut planner).unwrap();
        assert_eq!(report.planner, "resilient");
        assert_eq!(planner.fallbacks(), 24, "every period must fall back");
        assert_eq!(planner.degraded_events().len(), 24);
        assert!(planner
            .degraded_events()
            .iter()
            .all(|e| e.kind == FaultKind::PlannerFallback));
    }

    #[test]
    fn healthy_inner_passes_through() {
        let node = node();
        let g = benchmarks::ecg();
        let t = trace();
        let engine = Engine::new(&node, &g, &t).unwrap();
        let mut wrapped = ResilientPlanner::new(Box::new(FixedPlanner::new(Pattern::Intra, 0)));
        let resilient = engine.run(&mut wrapped).unwrap();
        let mut bare = FixedPlanner::new(Pattern::Intra, 0);
        let baseline = engine.run(&mut bare).unwrap();
        assert_eq!(wrapped.fallbacks(), 0);
        assert_eq!(
            resilient.periods, baseline.periods,
            "wrapper must be transparent"
        );
    }

    #[test]
    fn repeated_contract_violations_demote_permanently() {
        let mut planner = ResilientPlanner::new(Box::new(EvilPlanner));
        assert!(!planner.is_demoted());
        for _ in 0..MAX_CONTRACT_VIOLATIONS {
            planner.on_contract_violation();
        }
        assert!(planner.is_demoted());
        assert!(planner
            .degraded_events()
            .iter()
            .any(|e| e.kind == FaultKind::ContractViolation));
    }

    /// Builds a standalone observation for direct `plan()` calls.
    struct ObsParts {
        node: NodeConfig,
        graph: helio_tasks::TaskGraph,
        trace: SolarTrace,
        bank: helio_storage::CapacitorBank,
    }

    fn obs_parts() -> ObsParts {
        let node = node();
        let bank = helio_storage::CapacitorBank::new(&node.capacitors, &node.storage).unwrap();
        ObsParts {
            node,
            graph: benchmarks::ecg(),
            trace: trace(),
            bank,
        }
    }

    fn obs(parts: &ObsParts) -> PlannerObservation<'_> {
        PlannerObservation {
            grid: &parts.node.grid,
            period: parts.node.grid.period_at(0),
            graph: &parts.graph,
            trace: &parts.trace,
            bank: &parts.bank,
            accumulated_dmr: 0.0,
            storage: &parts.node.storage,
            pmu: &parts.node.pmu,
        }
    }

    fn demote(planner: &mut ResilientPlanner<'_>) {
        for _ in 0..MAX_CONTRACT_VIOLATIONS {
            planner.on_contract_violation();
        }
        assert!(planner.is_demoted());
    }

    #[test]
    fn without_probation_demotion_never_lifts() {
        let parts = obs_parts();
        let mut planner = ResilientPlanner::new(Box::new(FixedPlanner::new(Pattern::Intra, 0)));
        demote(&mut planner);
        for _ in 0..50 {
            let d = planner.plan(&obs(&parts));
            assert_eq!(d, PlanDecision::everything(Pattern::Inter));
        }
        assert!(planner.is_demoted());
    }

    #[test]
    fn event_log_is_bounded_first_last_k() {
        let parts = obs_parts();
        let mut planner = ResilientPlanner::new(Box::new(EvilPlanner));
        for _ in 0..(2 * EVENT_LOG_KEEP + 6) {
            planner.plan(&obs(&parts));
        }
        assert_eq!(planner.degraded_events().len(), 2 * EVENT_LOG_KEEP);
        assert_eq!(planner.dropped_events(), 6);
    }

    #[test]
    fn checkpoint_round_trips_through_a_fresh_planner() {
        let parts = obs_parts();
        let mut planner = ResilientPlanner::new(Box::new(EvilPlanner));
        planner.plan(&obs(&parts));
        demote(&mut planner);
        planner.plan(&obs(&parts));
        planner.plan(&obs(&parts));
        let saved = planner.save_checkpoint();
        let mut fresh = ResilientPlanner::new(Box::new(FixedPlanner::new(Pattern::Intra, 0)));
        fresh.restore_checkpoint(&saved).unwrap();
        assert!(fresh.is_demoted());
        assert_eq!(fresh.fallbacks(), planner.fallbacks());
        assert_eq!(fresh.degraded_events(), planner.degraded_events());
        assert_eq!(fresh.save_checkpoint(), saved);
        // A stateless checkpoint cannot restore a resilient planner.
        assert!(fresh
            .restore_checkpoint(&PlannerCheckpoint::Stateless)
            .is_err());
    }
}
