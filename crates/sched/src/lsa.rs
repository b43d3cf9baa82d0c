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
use helio_tasks::TaskId;

use crate::context::{PeriodStart, SlotContext};
use crate::traits::{edf_pick_set, SlotScheduler};

/// Lazy inter-task scheduler with energy-budget admission.
#[derive(Debug, Clone, Default)]
pub struct LsaScheduler {
    admitted: TaskSet,
    started: TaskSet,
    latest_start: Vec<usize>,
    /// Deadline-ordered admission scratch, reused across periods.
    order: Vec<TaskId>,
    // Per-period scratch for the lazy-window fixpoint, reused so
    // `begin_period` allocates nothing once warm.
    topo: Vec<TaskId>,
    indegree: Vec<usize>,
    stack: Vec<TaskId>,
    needed: Vec<usize>,
    own_deadline: Vec<usize>,
    nvp_order: Vec<TaskId>,
    succ_sets: Vec<TaskSet>,
    nvp_sets: Vec<TaskSet>,
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
        let graph = ctx.graph;
        let n = graph.len();
        // Admission: EDF order, while the predicted budget lasts.
        let budget = ctx.predicted_energy * 0.95 + ctx.stored_energy;
        self.order.clear();
        self.order.extend(graph.ids());
        self.order.sort_unstable_by(|&a, &b| {
            graph
                .task(a)
                .deadline
                .value()
                .total_cmp(&graph.task(b).deadline.value())
                .then(a.index().cmp(&b.index()))
        });
        let mut admitted = TaskSet::EMPTY;
        let mut spent = Joules::ZERO;
        for &id in &self.order {
            if !ctx.is_allowed(id) {
                continue;
            }
            let cost = graph.task(id).energy();
            // Admit a task only with its whole dependency closure.
            let preds_ok = graph.predecessor_set(id).is_subset_of(admitted);
            if preds_ok && spent + cost <= budget {
                admitted.insert(id.index());
                spent += cost;
            }
        }
        // Latest feasible start per task: alternate a dependency
        // backward pass with a per-NVP compaction pass (same-NVP tasks
        // serialise, so their lazy windows must not overlap). A few
        // iterations reach the fixpoint on these small graphs.
        let slot = ctx.slot_duration;
        self.latest_start.clear();
        self.latest_start.resize(n, usize::MAX);
        let latest_start = &mut self.latest_start;
        // Validated graphs are acyclic; should a cycle slip through,
        // id order still bounds every task (as `closed_subsets` does).
        if graph
            .topological_order_into(&mut self.indegree, &mut self.stack, &mut self.topo)
            .is_err()
        {
            self.topo.clear();
            self.topo.extend(graph.ids());
        }
        self.needed.clear();
        self.needed
            .extend(graph.tasks().iter().map(|t| t.slots_needed(slot)));
        let needed = &self.needed;
        self.own_deadline.clear();
        self.own_deadline.extend(
            graph
                .tasks()
                .iter()
                .map(|t| t.deadline_slot(slot).min(ctx.slots_per_period)),
        );
        let own_deadline = &self.own_deadline;
        // Successor and NVP membership masks, hoisted out of the
        // fixpoint iterations (they never change within a period).
        self.succ_sets.clear();
        self.succ_sets
            .extend(graph.ids().map(|id| graph.successor_set(id)));
        self.nvp_sets.clear();
        self.nvp_sets
            .extend((0..graph.nvp_count()).map(|nvp| graph.nvp_set(nvp)));
        for _ in 0..4 {
            // Dependency pass.
            for &id in self.topo.iter().rev() {
                let succ_bound = self.succ_sets[id.index()]
                    .iter()
                    .map(|s| latest_start[s])
                    .min()
                    .unwrap_or(usize::MAX)
                    .min(own_deadline[id.index()])
                    .min(latest_start[id.index()].saturating_add(needed[id.index()]));
                latest_start[id.index()] = succ_bound.saturating_sub(needed[id.index()]);
            }
            // NVP compaction pass: latest-fit tasks of each NVP back to
            // back, latest finisher first. The unstable sort keyed on
            // (finish, index) reproduces the stable finish-only sort of
            // the ascending-index NVP membership exactly.
            for nvp in 0..self.nvp_sets.len() {
                self.nvp_order.clear();
                self.nvp_order.extend(self.nvp_sets[nvp].iter().map(TaskId));
                self.nvp_order.sort_unstable_by_key(|&id| {
                    (
                        std::cmp::Reverse(
                            latest_start[id.index()].saturating_add(needed[id.index()]),
                        ),
                        id.index(),
                    )
                });
                let mut bound = usize::MAX;
                for &id in &self.nvp_order {
                    let finish = latest_start[id.index()]
                        .saturating_add(needed[id.index()])
                        .min(bound);
                    latest_start[id.index()] = finish.saturating_sub(needed[id.index()]);
                    bound = latest_start[id.index()];
                }
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
            if self.started.contains(i) || ctx.slot >= self.latest_start[i] {
                candidates.insert(i);
            }
        }
        let picked = edf_pick_set(ctx.graph, candidates);
        self.started = self.started.union(picked);
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecState;
    use helio_common::units::Seconds;
    use helio_tasks::benchmarks;

    const SLOT: Seconds = Seconds::new(60.0);

    fn start<'a>(
        graph: &'a helio_tasks::TaskGraph,
        predicted: f64,
        stored: f64,
    ) -> PeriodStart<'a> {
        PeriodStart {
            graph,
            slot_duration: SLOT,
            slots_per_period: 10,
            predicted_energy: Joules::new(predicted),
            stored_energy: Joules::new(stored),
            allowed: None,
        }
    }

    fn slot_ctx<'a>(
        graph: &'a helio_tasks::TaskGraph,
        exec: &'a ExecState,
        slot: usize,
    ) -> SlotContext<'a> {
        SlotContext {
            graph,
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
        let mut s = LsaScheduler::new();
        s.begin_period(&start(&g, 0.0, 0.0));
        let exec = ExecState::new(&g, SLOT);
        assert!(s.select(&slot_ctx(&g, &exec, 0)).is_empty());
    }

    #[test]
    fn generous_budget_admits_everything_lazily() {
        let g = benchmarks::ecg();
        let mut s = LsaScheduler::new();
        s.begin_period(&start(&g, 100.0, 0.0));
        let mut exec = ExecState::new(&g, SLOT);
        // Drive a full period; everything should complete.
        for m in 0..10 {
            for i in s.select(&slot_ctx(&g, &exec, m)) {
                exec.advance(TaskId(i));
            }
        }
        assert_eq!(exec.misses(), 0);
    }

    #[test]
    fn laziness_delays_slack_tasks() {
        let g = benchmarks::ecg();
        let mut s = LsaScheduler::new();
        s.begin_period(&start(&g, 100.0, 0.0));
        let exec = ExecState::new(&g, SLOT);
        // lpf has deadline slot 3 and needs 1 slot: latest start is
        // bounded by its successors' chain, but it must not start at
        // slot 0 if the chain allows later. The chain hpf1(4)-hpf2(5)
        // bounds lpf's latest start below 3.
        let picked0 = s.select(&slot_ctx(&g, &exec, 0));
        let lpf = g.ids().next().unwrap();
        assert!(
            !picked0.contains(lpf.index()),
            "lazy scheduler should not start lpf at slot 0"
        );
    }

    #[test]
    fn admission_is_deadline_ordered_under_tight_budget() {
        let g = benchmarks::wam();
        let mut s = LsaScheduler::new();
        // Budget for roughly the two earliest-deadline root tasks.
        s.begin_period(&start(&g, 4.0, 0.0));
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
        let mut s = LsaScheduler::new();
        s.begin_period(&start(&g, 100.0, 0.0));
        let mut exec = ExecState::new(&g, SLOT);
        let mut runs: Vec<TaskSet> = Vec::new();
        for m in 0..10 {
            let picked = s.select(&slot_ctx(&g, &exec, m));
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
