//! The fine-grained intra-task load-matching scheduler (the paper's
//! "Intra-task" baseline, ref. \[9\]).
//!
//! Tasks are preemptible at slot boundaries. Every slot the scheduler
//! matches the load to the currently *available* energy: urgent tasks
//! (zero slack) are always admitted — skipping them forfeits their
//! deadline — and the remaining capacity is filled in urgency order
//! while the slot's energy budget lasts. Like the inter-task baseline
//! it treats stored energy as free for the current period.

use helio_common::units::Joules;
use helio_common::TaskSet;
use helio_tasks::TaskId;

use crate::context::{PeriodStart, SlotContext};
use crate::traits::SlotScheduler;

/// Intra-task (slot-preemptive) load-matching scheduler.
#[derive(Debug, Clone, Default)]
pub struct IntraTaskScheduler {
    allowed: Option<TaskSet>,
    /// Urgency-ordered `(slack, EDF rank)` candidate keys, reused
    /// across slots so the select path stops allocating once warm.
    scratch: Vec<(usize, u8)>,
}

impl IntraTaskScheduler {
    /// Creates an intra-task scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SlotScheduler for IntraTaskScheduler {
    fn name(&self) -> &'static str {
        "intra-task"
    }

    fn begin_period(&mut self, ctx: &PeriodStart<'_>) {
        self.allowed = ctx.allowed;
    }

    fn select(&mut self, ctx: &SlotContext<'_>) -> TaskSet {
        let mut candidates = ctx.exec.runnable_set(ctx.slot);
        if let Some(mask) = self.allowed {
            candidates = candidates.intersection(mask);
        }
        // Urgency order: least slack first, then earliest deadline
        // (ties: lowest index) — which is exactly the EDF rank. The
        // keys are distinct, so the unstable sort is deterministic.
        let tables = ctx.tables;
        self.scratch.clear();
        self.scratch.extend(candidates.iter().map(|i| {
            let slack = ctx.exec.slack(TaskId(i), ctx.slot).unwrap_or(usize::MAX);
            (slack, tables.edf_rank(i))
        }));
        self.scratch.sort_unstable();

        let mut picked = TaskSet::EMPTY;
        let mut nvp_used = 0u32;
        let mut budget = ctx.available();
        for &(slack, rank) in &self.scratch {
            let id = tables.edf_order()[usize::from(rank)];
            let bit = tables.nvp_bit(id.index());
            if nvp_used & bit != 0 {
                continue;
            }
            let cost = ctx.slot_cost(id);
            let urgent = slack == 0;
            if urgent || cost <= budget {
                picked.insert(id.index());
                nvp_used |= bit;
                budget = (budget - cost).max(Joules::ZERO);
            }
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecState;
    use crate::tables::SchedTables;
    use helio_common::units::Seconds;
    use helio_tasks::benchmarks;

    const SLOT: Seconds = Seconds::new(60.0);

    fn slot_ctx<'a>(
        graph: &'a helio_tasks::TaskGraph,
        tables: &'a SchedTables,
        exec: &'a ExecState,
        slot: usize,
        direct: f64,
        storage: f64,
    ) -> SlotContext<'a> {
        SlotContext {
            graph,
            tables,
            exec,
            slot,
            slot_duration: SLOT,
            slots_per_period: 10,
            harvest: Joules::new(direct / 0.95),
            direct_deliverable: Joules::new(direct),
            storage_deliverable: Joules::new(storage),
        }
    }

    #[test]
    fn load_matches_to_available_energy() {
        let g = benchmarks::wam();
        let exec = ExecState::new(&g, SLOT);
        let t = SchedTables::new(&g, SLOT, 10);
        let mut s = IntraTaskScheduler::new();
        // Plenty of energy: fills every NVP that has a runnable task
        // (NVP 2's tasks are dependency-blocked at slot 0).
        let full = s.select(&slot_ctx(&g, &t, &exec, 0, 10.0, 5.0));
        assert_eq!(full.len(), 2);
        // Tiny budget at slot 0 (no task urgent yet): admits only what
        // fits.
        let tiny = s.select(&slot_ctx(&g, &t, &exec, 0, 0.7, 0.0));
        assert!(tiny.len() < full.len());
        let spent: f64 = tiny
            .iter()
            .map(|i| (g.task(TaskId(i)).power * SLOT).value())
            .sum();
        assert!(spent <= 0.7 + 1e-9);
    }

    #[test]
    fn urgent_tasks_are_admitted_even_without_energy() {
        let g = benchmarks::ecg();
        let exec = ExecState::new(&g, SLOT);
        let t = SchedTables::new(&g, SLOT, 10);
        let mut s = IntraTaskScheduler::new();
        // lpf (deadline slot 3, 1 slot needed) has zero slack at slot 2.
        let picked = s.select(&slot_ctx(&g, &t, &exec, 2, 0.0, 0.0));
        let lpf = g.ids().next().unwrap();
        assert!(
            picked.contains(lpf.index()),
            "urgent task must be attempted"
        );
    }

    #[test]
    fn preemption_interleaves_tasks() {
        // With a budget fitting only one NVP-1 task per slot, qrs and fft
        // (both on NVP 1 after the filter chain) alternate by urgency —
        // verifying slot-boundary preemption is possible.
        let g = benchmarks::ecg();
        let mut exec = ExecState::new(&g, SLOT);
        let ids: Vec<TaskId> = g.ids().collect();
        // Finish the filter chain first.
        exec.advance(ids[0]);
        exec.advance(ids[1]);
        exec.advance(ids[2]);
        let t = SchedTables::new(&g, SLOT, 10);
        let mut s = IntraTaskScheduler::new();
        let mut ran: Vec<TaskId> = Vec::new();
        for m in 3..10 {
            let picked = s.select(&slot_ctx(&g, &t, &exec, m, 2.5, 0.0));
            for i in picked {
                let id = TaskId(i);
                if g.task(id).nvp == 1 {
                    ran.push(id);
                }
                exec.advance(id);
            }
        }
        // Both NVP-1 tasks eventually ran.
        assert!(ran.contains(&ids[3]) && ran.contains(&ids[4]), "{ran:?}");
    }

    #[test]
    fn respects_allowed_mask() {
        let g = benchmarks::wam();
        let exec = ExecState::new(&g, SLOT);
        let t = SchedTables::new(&g, SLOT, 10);
        let mut s = IntraTaskScheduler::new();
        // Only periodic_locating.
        s.begin_period(&PeriodStart {
            graph: &g,
            tables: &t,
            slot_duration: SLOT,
            slots_per_period: 10,
            predicted_energy: Joules::new(50.0),
            stored_energy: Joules::ZERO,
            allowed: Some(TaskSet::EMPTY.with(0)),
        });
        let picked = s.select(&slot_ctx(&g, &t, &exec, 0, 10.0, 5.0));
        assert_eq!(picked.len(), 1);
        let first = picked.iter().next().unwrap();
        assert_eq!(g.task(TaskId(first)).name, "periodic_locating");
    }
}
