//! The WCMA-based lazy inter-task scheduler (the paper's "Inter-task"
//! baseline, ref. \[3\]).
//!
//! At each period start it admits tasks against the period's *predicted*
//! energy budget (prediction by WCMA), then runs each admitted task
//! contiguously, as late as its deadline chain allows — the lazy rule
//! that leaves solar energy to accumulate in the capacitor before
//! spending it. Inter-task only: a started task runs to completion
//! without preemption.
//!
//! The baseline optimises the current period in isolation: it will
//! happily drain the capacitor for today's tasks with no regard for the
//! night ahead.

use helio_common::units::Joules;
use helio_common::TaskSet;

use crate::context::{PeriodStart, SlotContext};
use crate::traits::{edf_pick_set, SlotScheduler};

/// Lazy inter-task scheduler with energy-budget admission.
///
/// The lazy windows (latest feasible start per task) depend only on the
/// task set and the grid, so they live in the run-constant
/// [`SchedTables`](crate::SchedTables); a period only decides which
/// tasks its budget admits.
#[derive(Debug, Clone, Default)]
pub struct LsaScheduler {
    admitted: TaskSet,
    started: TaskSet,
}

impl LsaScheduler {
    /// Creates an LSA scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SlotScheduler for LsaScheduler {
    fn name(&self) -> &'static str {
        "inter-task-lsa"
    }

    fn begin_period(&mut self, ctx: &PeriodStart<'_>) {
        let tables = ctx.tables;
        // Admission: EDF order, while the predicted budget lasts.
        let budget = ctx.predicted_energy * 0.95 + ctx.stored_energy;
        let mut admitted = TaskSet::EMPTY;
        let mut spent = Joules::ZERO;
        for &id in tables.edf_order() {
            if !ctx.is_allowed(id) {
                continue;
            }
            let i = id.index();
            let cost = tables.energy(i);
            // Admit a task only with its whole dependency closure.
            let preds_ok = tables.predecessors(i).is_subset_of(admitted);
            if preds_ok && spent + cost <= budget {
                admitted.insert(i);
                spent += cost;
            }
        }
        self.admitted = admitted;
        self.started = TaskSet::EMPTY;
    }

    fn select(&mut self, ctx: &SlotContext<'_>) -> TaskSet {
        let runnable = ctx.exec.runnable_set(ctx.slot).intersection(self.admitted);
        let mut candidates = TaskSet::EMPTY;
        for i in runnable.iter() {
            // Started tasks continue (non-preemptive); unstarted tasks
            // wait for their lazy start slot.
            if self.started.contains(i) || ctx.slot >= ctx.tables.latest_start(i) {
                candidates.insert(i);
            }
        }
        let picked = edf_pick_set(ctx.tables, candidates);
        self.started = self.started.union(picked);
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecState;
    use crate::tables::SchedTables;
    use helio_common::units::Seconds;
    use helio_tasks::{benchmarks, TaskId};

    const SLOT: Seconds = Seconds::new(60.0);

    fn tables(graph: &helio_tasks::TaskGraph) -> SchedTables {
        SchedTables::new(graph, SLOT, 10)
    }

    fn start<'a>(
        graph: &'a helio_tasks::TaskGraph,
        tables: &'a SchedTables,
        predicted: f64,
        stored: f64,
    ) -> PeriodStart<'a> {
        PeriodStart {
            graph,
            tables,
            slot_duration: SLOT,
            slots_per_period: 10,
            predicted_energy: Joules::new(predicted),
            stored_energy: Joules::new(stored),
            allowed: None,
        }
    }

    fn slot_ctx<'a>(
        graph: &'a helio_tasks::TaskGraph,
        tables: &'a SchedTables,
        exec: &'a ExecState,
        slot: usize,
    ) -> SlotContext<'a> {
        SlotContext {
            graph,
            tables,
            exec,
            slot,
            slot_duration: SLOT,
            slots_per_period: 10,
            harvest: Joules::new(5.0),
            direct_deliverable: Joules::new(4.75),
            storage_deliverable: Joules::new(2.0),
        }
    }

    #[test]
    fn zero_budget_admits_nothing() {
        let g = benchmarks::wam();
        let t = tables(&g);
        let mut s = LsaScheduler::new();
        s.begin_period(&start(&g, &t, 0.0, 0.0));
        let exec = ExecState::new(&g, SLOT);
        assert!(s.select(&slot_ctx(&g, &t, &exec, 0)).is_empty());
    }

    #[test]
    fn generous_budget_admits_everything_lazily() {
        let g = benchmarks::ecg();
        let t = tables(&g);
        let mut s = LsaScheduler::new();
        s.begin_period(&start(&g, &t, 100.0, 0.0));
        let mut exec = ExecState::new(&g, SLOT);
        // Drive a full period; everything should complete.
        for m in 0..10 {
            for i in s.select(&slot_ctx(&g, &t, &exec, m)) {
                exec.advance(TaskId(i));
            }
        }
        assert_eq!(exec.misses(), 0);
    }

    #[test]
    fn laziness_delays_slack_tasks() {
        let g = benchmarks::ecg();
        let t = tables(&g);
        let mut s = LsaScheduler::new();
        s.begin_period(&start(&g, &t, 100.0, 0.0));
        let exec = ExecState::new(&g, SLOT);
        // lpf has deadline slot 3 and needs 1 slot: latest start is
        // bounded by its successors' chain, but it must not start at
        // slot 0 if the chain allows later. The chain hpf1(4)-hpf2(5)
        // bounds lpf's latest start below 3.
        let picked0 = s.select(&slot_ctx(&g, &t, &exec, 0));
        let lpf = g.ids().next().unwrap();
        assert!(
            !picked0.contains(lpf.index()),
            "lazy scheduler should not start lpf at slot 0"
        );
    }

    #[test]
    fn admission_is_deadline_ordered_under_tight_budget() {
        let g = benchmarks::wam();
        let t = tables(&g);
        let mut s = LsaScheduler::new();
        // Budget for roughly the two earliest-deadline root tasks.
        s.begin_period(&start(&g, &t, 4.0, 0.0));
        let admitted = s.admitted;
        let names: Vec<&str> = g
            .ids()
            .filter(|id| admitted.contains(id.index()))
            .map(|id| g.task(id).name.as_str())
            .collect();
        assert!(
            names.contains(&"heart_rate_sampling"),
            "admitted: {names:?}"
        );
        assert!(
            !names.contains(&"data_transmission"),
            "latest-deadline task should be dropped first: {names:?}"
        );
    }

    #[test]
    fn started_tasks_are_not_preempted() {
        let g = benchmarks::shm();
        let t = tables(&g);
        let mut s = LsaScheduler::new();
        s.begin_period(&start(&g, &t, 100.0, 0.0));
        let mut exec = ExecState::new(&g, SLOT);
        let mut runs: Vec<TaskSet> = Vec::new();
        for m in 0..10 {
            let picked = s.select(&slot_ctx(&g, &t, &exec, m));
            for i in picked {
                exec.advance(TaskId(i));
            }
            runs.push(picked);
        }
        // Every multi-slot task's run slots must be contiguous.
        for id in g.ids() {
            let slots: Vec<usize> = runs
                .iter()
                .enumerate()
                .filter(|(_, r)| r.contains(id.index()))
                .map(|(m, _)| m)
                .collect();
            if slots.len() > 1 {
                assert!(
                    slots.windows(2).all(|w| w[1] == w[0] + 1),
                    "{}: non-contiguous slots {slots:?}",
                    g.task(id).name
                );
            }
        }
    }
}
