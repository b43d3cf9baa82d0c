//! The per-period coarse planning interface.
//!
//! At the start of every period the engine asks its planner three
//! questions (the paper's coarse-grained stage): which supercapacitor
//! should the PMU select, which tasks should this period attempt
//! (`te_{i,j}(n)`), and which fine-grained pattern should execute them
//! (intra-task load matching vs lazy inter-task — the `δ` rule of
//! Section 5.2). Baselines answer with constants ([`FixedPlanner`]);
//! the optimal planner answers from the long-term DP, the proposed
//! planner from the DBN, and the MPC planner from the DP rerun daily
//! on forecast solar.

use std::sync::Arc;

use helio_ann::{Dbn, FoldTable};
use helio_common::time::{PeriodRef, TimeGrid};
use helio_common::TaskSet;
use helio_faults::{DbnFaultMode, FaultEvent};
use helio_nvp::Pmu;
use helio_solar::SolarTrace;
use helio_storage::{CapacitorBank, StorageModelParams};
use helio_tasks::TaskGraph;
use serde::{Deserialize, Serialize};

use crate::batch::PlanContext;
use crate::checkpoint::PlannerCheckpoint;

/// The fine-grained scheduling pattern for one period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pattern {
    /// Run everything as soon as possible (energy-blind).
    Asap,
    /// Lazy inter-task scheduling (ref. \[3\]).
    Inter,
    /// Fine-grained intra-task load matching (ref. \[9\]).
    Intra,
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Pattern::Asap => write!(f, "asap"),
            Pattern::Inter => write!(f, "inter"),
            Pattern::Intra => write!(f, "intra"),
        }
    }
}

/// What a planner decides for one period.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanDecision {
    /// Capacitor index to activate; `None` keeps the current one.
    pub capacitor: Option<usize>,
    /// Task-admission mask (`te_{i,j}(n)`); `None` admits every task.
    pub allowed: Option<TaskSet>,
    /// The fine-grained pattern for this period.
    pub pattern: Pattern,
}

impl PlanDecision {
    /// "Do everything with the current capacitor" under a pattern.
    pub fn everything(pattern: Pattern) -> Self {
        Self {
            capacitor: None,
            allowed: None,
            pattern,
        }
    }
}

/// What a planner observes at the start of a period.
#[derive(Debug)]
pub struct PlannerObservation<'a> {
    /// The time grid.
    pub grid: &'a TimeGrid,
    /// The period being planned.
    pub period: PeriodRef,
    /// The task set.
    pub graph: &'a TaskGraph,
    /// The solar trace. Planners must treat entries at/after `period`
    /// as unknown; forecasts go through a
    /// [`SolarPredictor`](helio_solar::SolarPredictor).
    pub trace: &'a SolarTrace,
    /// The capacitor bank (voltages of all `H` capacitors, Fig. 6's
    /// `V^sc` inputs).
    pub bank: &'a CapacitorBank,
    /// Deadline-miss rate accumulated so far (`DMR^acc`, Eq. 19).
    pub accumulated_dmr: f64,
    /// Storage calibration (for hypothetical roll-forward).
    pub storage: &'a StorageModelParams,
    /// PMU (for hypothetical roll-forward).
    pub pmu: &'a Pmu,
}

/// Self-reported health of a planner's inference path, queried by the
/// engine (and by [`ResilientPlanner`](crate::resilient::ResilientPlanner))
/// after every [`PeriodPlanner::plan`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PlannerHealth {
    /// The last decision came from the planner's nominal path.
    #[default]
    Healthy,
    /// The inference backend did not answer (accelerator down, weights
    /// unreadable); the decision is a built-in conservative default.
    DbnUnavailable,
    /// Inference answered with non-finite outputs; the decision is a
    /// built-in conservative default.
    NonFinite,
}

/// A per-period coarse planner.
///
/// The fault-injection hooks ([`PeriodPlanner::inject_fault`],
/// [`PeriodPlanner::health`], [`PeriodPlanner::on_contract_violation`])
/// have no-op defaults so ordinary planners stay oblivious to the
/// harness; planners with an inference path override them.
///
/// Planners are `Send` so a batch of boxed planners can be sharded
/// across the `helio-par` worker pool; every implementor is plain
/// owned data, so this costs nothing.
pub trait PeriodPlanner: Send {
    /// Planner name for experiment tables.
    fn name(&self) -> &'static str;

    /// Plans one period.
    fn plan(&mut self, obs: &PlannerObservation<'_>) -> PlanDecision;

    /// Cumulative planning complexity (state expansions) — the metric
    /// of Fig. 10(a). Zero for trivial planners.
    fn complexity(&self) -> u64 {
        0
    }

    /// Injects (or, with `None`, clears) an inference fault for the
    /// upcoming period. Default: ignored.
    fn inject_fault(&mut self, mode: Option<DbnFaultMode>) {
        let _ = mode;
    }

    /// Health of the most recent [`PeriodPlanner::plan`] call.
    fn health(&self) -> PlannerHealth {
        PlannerHealth::Healthy
    }

    /// Notifies the planner that the engine dropped one of its slot
    /// assignments for violating the scheduler contract. Default:
    /// ignored.
    fn on_contract_violation(&mut self) {}

    /// Periods this planner served from a degraded fallback path.
    fn fallback_count(&self) -> usize {
        0
    }

    /// Degradation events this planner recorded (fallback engagements,
    /// health transitions), for the report's fault log.
    fn degraded_events(&self) -> Vec<FaultEvent> {
        Vec::new()
    }

    /// Events elided from this planner's bounded internal log (see
    /// `helio_faults::cap_event_log`); surfaces in the report's
    /// `degraded.dropped_events` counter.
    fn dropped_events(&self) -> usize {
        0
    }

    /// Snapshots this planner's cross-period state at a period
    /// boundary. Stateless planners (the default) report
    /// [`PlannerCheckpoint::Stateless`].
    fn save_checkpoint(&self) -> PlannerCheckpoint {
        PlannerCheckpoint::Stateless
    }

    /// Restores state captured by [`PeriodPlanner::save_checkpoint`]
    /// into a planner built from the same configuration. Restoring a
    /// planner from its own just-saved checkpoint is a no-op, so
    /// resuming can always replay the latest checkpoint.
    ///
    /// # Errors
    ///
    /// Returns a message when the checkpoint's shape does not match
    /// this planner.
    fn restore_checkpoint(&mut self, ckpt: &PlannerCheckpoint) -> Result<(), String> {
        match ckpt {
            PlannerCheckpoint::Stateless => Ok(()),
            other => Err(format!(
                "planner `{}` is stateless but the checkpoint is {other:?}",
                self.name()
            )),
        }
    }

    /// Attaches shared cross-scenario precomputation (slot costs,
    /// topological order) built once per
    /// [`BatchEngine`](crate::batch::BatchEngine). Default: ignored.
    fn attach_context(&mut self, ctx: &Arc<PlanContext>) {
        let _ = ctx;
    }

    /// Batched-inference hook: when this period's decision needs one
    /// DBN forward, write the raw feature vector into `input`, perform
    /// the same internal bookkeeping as [`PeriodPlanner::plan`] up to
    /// the inference call (complexity accounting included), and return
    /// `true`. Returning `false` (the default, and the path taken by
    /// degraded or non-DBN planners) tells the batch engine to fall
    /// back to a plain [`PeriodPlanner::plan`] call for this scenario.
    fn batch_input(&mut self, obs: &PlannerObservation<'_>, input: &mut Vec<f64>) -> bool {
        let _ = (obs, input);
        false
    }

    /// The shared network behind [`PeriodPlanner::batch_input`], used
    /// by the batch engine to group scenarios that can share one
    /// batched forward (grouping is by `Arc` pointer identity).
    fn batch_dbn(&self) -> Option<Arc<Dbn>> {
        None
    }

    /// Distilled counterpart of [`PeriodPlanner::batch_input`]: when
    /// this period's decision runs the distilled artifact's nominal
    /// path, write the raw feature vector into `input`, perform the
    /// same internal bookkeeping as [`PeriodPlanner::plan`] up to the
    /// inference (complexity accounting included), and return `true`.
    /// Returning `false` (the default, and the path taken by demoted,
    /// faulted or non-distilled planners) routes the scenario through
    /// a plain [`PeriodPlanner::plan`] call, which reproduces the
    /// sequential tier-fallback semantics exactly.
    fn batch_distilled_input(
        &mut self,
        obs: &PlannerObservation<'_>,
        input: &mut Vec<f64>,
    ) -> bool {
        let _ = (obs, input);
        false
    }

    /// The shared handle behind
    /// [`PeriodPlanner::batch_distilled_input`], used by the batch
    /// engine to group scenarios into one batched leaf-kernel call
    /// (grouping is by `Arc` pointer identity; the handle carries the
    /// artifact).
    fn batch_distilled(&self) -> Option<Arc<FoldTable>> {
        None
    }

    /// Completes a period that [`PeriodPlanner::batch_input`] started,
    /// given the network output row computed by the batched forward.
    /// Must produce exactly the decision (and internal state changes)
    /// that [`PeriodPlanner::plan`] would have.
    fn plan_with_output(&mut self, obs: &PlannerObservation<'_>, out: &[f64]) -> PlanDecision {
        let _ = out;
        self.plan(obs)
    }
}

/// A planner with constant answers — the baselines' "no big map"
/// behaviour: a fixed capacitor, every task admitted, one pattern.
#[derive(Debug, Clone)]
pub struct FixedPlanner {
    pattern: Pattern,
    capacitor: usize,
}

impl FixedPlanner {
    /// Creates a fixed planner using `capacitor` under `pattern`.
    pub fn new(pattern: Pattern, capacitor: usize) -> Self {
        Self { pattern, capacitor }
    }
}

impl PeriodPlanner for FixedPlanner {
    fn name(&self) -> &'static str {
        match self.pattern {
            Pattern::Asap => "asap",
            Pattern::Inter => "inter-task",
            Pattern::Intra => "intra-task",
        }
    }

    fn plan(&mut self, _obs: &PlannerObservation<'_>) -> PlanDecision {
        PlanDecision {
            capacitor: Some(self.capacitor),
            allowed: None,
            pattern: self.pattern,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_planner_is_constant() {
        let mut p = FixedPlanner::new(Pattern::Intra, 1);
        assert_eq!(p.name(), "intra-task");
        assert_eq!(p.complexity(), 0);
        // The decision does not depend on the observation; check the
        // struct contents directly.
        let d = PlanDecision {
            capacitor: Some(1),
            allowed: None,
            pattern: Pattern::Intra,
        };
        let _ = &mut p;
        assert_eq!(d.capacitor, Some(1));
        assert_eq!(d.pattern, Pattern::Intra);
    }

    #[test]
    fn decision_everything_admits_all() {
        let d = PlanDecision::everything(Pattern::Inter);
        assert!(d.allowed.is_none());
        assert!(d.capacitor.is_none());
        assert_eq!(d.pattern.to_string(), "inter");
    }

    #[test]
    fn pattern_display() {
        assert_eq!(Pattern::Asap.to_string(), "asap");
        assert_eq!(Pattern::Intra.to_string(), "intra");
    }
}
