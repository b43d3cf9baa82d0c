//! The information a scheduler sees — at the start of a period and at
//! the start of each slot.

use helio_common::units::{Joules, Seconds};
use helio_common::TaskSet;
use helio_tasks::TaskGraph;

use crate::exec::ExecState;
use crate::tables::SchedTables;

/// Period-start context handed to
/// [`SlotScheduler::begin_period`](crate::SlotScheduler::begin_period).
#[derive(Debug, Clone)]
pub struct PeriodStart<'a> {
    /// The task set.
    pub graph: &'a TaskGraph,
    /// The task set's run-constant tables on this grid.
    pub tables: &'a SchedTables,
    /// Slot duration `Δt`.
    pub slot_duration: Seconds,
    /// Slots per period `N_s`.
    pub slots_per_period: usize,
    /// Predicted harvested energy of this period (source side) — what
    /// a WCMA-style predictor forecasts.
    pub predicted_energy: Joules,
    /// Energy deliverable from the active supercapacitor right now.
    pub stored_energy: Joules,
    /// Optional task-admission mask from a coarse planner
    /// (`te_{i,j}(n)` bits); `None` admits every task.
    pub allowed: Option<TaskSet>,
}

impl PeriodStart<'_> {
    /// Whether `id` is admitted by the coarse mask.
    pub fn is_allowed(&self, id: helio_tasks::TaskId) -> bool {
        self.allowed.is_none_or(|m| m.contains(id.index()))
    }
}

/// Slot-start context handed to
/// [`SlotScheduler::select`](crate::SlotScheduler::select).
#[derive(Debug)]
pub struct SlotContext<'a> {
    /// The task set.
    pub graph: &'a TaskGraph,
    /// The task set's run-constant tables on this grid.
    pub tables: &'a SchedTables,
    /// Execution progress so far this period.
    pub exec: &'a ExecState,
    /// Slot index `m` within the period.
    pub slot: usize,
    /// Slot duration `Δt`.
    pub slot_duration: Seconds,
    /// Slots per period `N_s`.
    pub slots_per_period: usize,
    /// Solar energy harvested this slot (observable at slot start on
    /// the real node via the MPPT monitor), source side.
    pub harvest: Joules,
    /// Energy the direct channel can deliver to the load this slot.
    pub direct_deliverable: Joules,
    /// Energy the active capacitor could deliver this slot.
    pub storage_deliverable: Joules,
}

impl SlotContext<'_> {
    /// Total load-side energy available this slot.
    pub fn available(&self) -> Joules {
        self.direct_deliverable + self.storage_deliverable
    }

    /// Energy one slot of `id` costs.
    pub fn slot_cost(&self, id: helio_tasks::TaskId) -> Joules {
        self.graph.task(id).power * self.slot_duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helio_tasks::benchmarks;

    #[test]
    fn allowed_mask_defaults_to_everything() {
        let g = benchmarks::ecg();
        let t = SchedTables::new(&g, Seconds::new(60.0), 10);
        let ps = PeriodStart {
            graph: &g,
            tables: &t,
            slot_duration: Seconds::new(60.0),
            slots_per_period: 10,
            predicted_energy: Joules::new(20.0),
            stored_energy: Joules::new(5.0),
            allowed: None,
        };
        assert!(g.ids().all(|id| ps.is_allowed(id)));
        let ps = PeriodStart {
            allowed: Some(TaskSet::EMPTY),
            ..ps
        };
        assert!(g.ids().all(|id| !ps.is_allowed(id)));
    }

    #[test]
    fn slot_context_arithmetic() {
        let g = benchmarks::ecg();
        let exec = ExecState::new(&g, Seconds::new(60.0));
        let t = SchedTables::new(&g, Seconds::new(60.0), 10);
        let ctx = SlotContext {
            graph: &g,
            tables: &t,
            exec: &exec,
            slot: 0,
            slot_duration: Seconds::new(60.0),
            slots_per_period: 10,
            harvest: Joules::new(3.0),
            direct_deliverable: Joules::new(2.85),
            storage_deliverable: Joules::new(1.0),
        };
        assert!((ctx.available().value() - 3.85).abs() < 1e-12);
        let lpf = g.ids().next().unwrap();
        // 18 mW × 60 s = 1.08 J.
        assert!((ctx.slot_cost(lpf).value() - 1.08).abs() < 1e-12);
    }
}
