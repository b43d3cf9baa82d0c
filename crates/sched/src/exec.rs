//! Per-period execution state: the remaining execution times
//! `S'_{i,j,m}(n)` (Eq. 4) and deadline bookkeeping (Eq. 5).

use helio_common::units::Seconds;
use helio_common::TaskSet;
use helio_tasks::{TaskGraph, TaskId};
use serde::{Deserialize, Serialize};

/// Execution progress of every task within the current period, in
/// whole slots.
///
/// Constructed once and [`ExecState::reset`] at each period start —
/// the dependency masks are precomputed so the per-slot query
/// [`ExecState::runnable_set`] is an allocation-free bit operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecState {
    remaining: Vec<usize>,
    needed: Vec<usize>,
    deadline_slot: Vec<usize>,
    /// Tasks with zero slots remaining, as a bitmask (kept in lockstep
    /// with `remaining` so dependency checks are one AND).
    completed: TaskSet,
    /// Precomputed direct-predecessor mask per task.
    pred_mask: Vec<TaskSet>,
}

impl ExecState {
    /// Fresh state at the start of a period: every task has its full
    /// execution time remaining.
    pub fn new(graph: &TaskGraph, slot: Seconds) -> Self {
        let needed: Vec<usize> = graph.tasks().iter().map(|t| t.slots_needed(slot)).collect();
        let deadline_slot = graph
            .tasks()
            .iter()
            .map(|t| t.deadline_slot(slot))
            .collect();
        let pred_mask = graph.ids().map(|id| graph.predecessor_set(id)).collect();
        let mut state = Self {
            remaining: needed.clone(),
            needed,
            deadline_slot,
            completed: TaskSet::EMPTY,
            pred_mask,
        };
        state.reset();
        state
    }

    /// Restores the period-start state in place — equivalent to a fresh
    /// [`ExecState::new`] on the same graph, without allocating.
    /// Zero-slot tasks (none in the paper's benchmarks, but legal) start
    /// complete.
    pub fn reset(&mut self) {
        self.completed = TaskSet::EMPTY;
        for i in 0..self.remaining.len() {
            self.remaining[i] = self.needed[i];
            if self.needed[i] == 0 {
                self.completed.insert(i);
            }
        }
    }

    /// Remaining slots of `id` (`S'` in slot units).
    pub fn remaining(&self, id: TaskId) -> usize {
        self.remaining[id.index()]
    }

    /// Total slots `id` needs per period.
    pub fn needed(&self, id: TaskId) -> usize {
        self.needed[id.index()]
    }

    /// Whether `id` has completed this period.
    pub fn is_complete(&self, id: TaskId) -> bool {
        self.completed.contains(id.index())
    }

    /// The tasks completed so far, as a bitmask.
    pub fn completed_set(&self) -> TaskSet {
        self.completed
    }

    /// The first slot index at/after which `id` can no longer make its
    /// deadline (`D_n` rounded up to the next slot boundary).
    pub fn deadline_slot(&self, id: TaskId) -> usize {
        self.deadline_slot[id.index()]
    }

    /// Slack of `id` at the start of slot `m`: how many slots it could
    /// idle and still finish by its deadline. `None` once the deadline
    /// can no longer be met.
    pub fn slack(&self, id: TaskId, m: usize) -> Option<usize> {
        if self.is_complete(id) {
            return None;
        }
        let finish_if_continuous = m + self.remaining[id.index()];
        if finish_if_continuous > self.deadline_slot[id.index()] {
            None
        } else {
            Some(self.deadline_slot[id.index()] - finish_if_continuous)
        }
    }

    /// Whether `id` has already missed its deadline as of the start of
    /// slot `m` (Eq. 5's θ at the deadline boundary, or a provably
    /// unreachable deadline).
    pub fn is_doomed(&self, id: TaskId, m: usize) -> bool {
        !self.is_complete(id) && self.slack(id, m).is_none()
    }

    /// Tasks worth scheduling in slot `m`: incomplete, dependencies met,
    /// deadline still reachable — as an allocation-free bitmask.
    pub fn runnable_set(&self, m: usize) -> TaskSet {
        let mut set = TaskSet::EMPTY;
        for i in 0..self.remaining.len() {
            if self.completed.contains(i) {
                continue;
            }
            if m + self.remaining[i] > self.deadline_slot[i] {
                continue; // doomed
            }
            if self.pred_mask[i].is_subset_of(self.completed) {
                set.insert(i);
            }
        }
        set
    }

    /// Records one slot of progress on `id`. Advancing an
    /// already-complete task is a no-op: schedulers should not run
    /// finished tasks, but a degraded planner that does must not bring
    /// the node down.
    pub fn advance(&mut self, id: TaskId) {
        if self.remaining[id.index()] == 0 {
            return;
        }
        self.remaining[id.index()] -= 1;
        if self.remaining[id.index()] == 0 {
            self.completed.insert(id.index());
        }
    }

    /// Number of tasks that missed their deadline this period, assuming
    /// the period has ended (every incomplete task has missed: deadlines
    /// never exceed the period).
    pub fn misses(&self) -> usize {
        self.remaining.len() - self.completed.len()
    }

    /// Deadline-miss rate of the period: misses / N (the per-period
    /// `DMR_{i,j}` of Eq. 16).
    pub fn dmr(&self) -> f64 {
        if self.remaining.is_empty() {
            0.0
        } else {
            self.misses() as f64 / self.remaining.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helio_tasks::benchmarks;

    const SLOT: Seconds = Seconds::new(60.0);

    #[test]
    fn fresh_state_has_full_remaining() {
        let g = benchmarks::ecg();
        let s = ExecState::new(&g, SLOT);
        for id in g.ids() {
            assert_eq!(s.remaining(id), g.task(id).slots_needed(SLOT));
            assert!(!s.is_complete(id));
        }
        assert_eq!(s.misses(), g.len());
        assert!((s.dmr() - 1.0).abs() < 1e-12);
        assert!(s.completed_set().is_empty());
    }

    #[test]
    fn advance_to_completion() {
        let g = benchmarks::ecg();
        let mut s = ExecState::new(&g, SLOT);
        let id = g.ids().next().unwrap(); // lpf: 1 slot
        s.advance(id);
        assert!(s.is_complete(id));
        assert_eq!(s.misses(), g.len() - 1);
        assert!(s.completed_set().contains(id.index()));
    }

    #[test]
    fn advance_past_completion_is_a_no_op() {
        let g = benchmarks::ecg();
        let mut s = ExecState::new(&g, SLOT);
        let id = g.ids().next().unwrap();
        s.advance(id);
        let snapshot = s.clone();
        s.advance(id);
        assert_eq!(s, snapshot, "extra advance must change nothing");
        assert!(s.is_complete(id));
    }

    #[test]
    fn dependencies_gate_runnability() {
        let g = benchmarks::ecg();
        let mut s = ExecState::new(&g, SLOT);
        let ids: Vec<TaskId> = g.ids().collect();
        // Initially only lpf (τ0) is runnable on the dependency chain;
        // qrs (τ3) waits for hpf2.
        let runnable = s.runnable_set(0);
        assert!(runnable.contains(ids[0].index()));
        assert!(!runnable.contains(ids[3].index()));
        // Complete the filter chain.
        s.advance(ids[0]);
        s.advance(ids[1]);
        s.advance(ids[2]);
        assert!(s.runnable_set(3).contains(ids[3].index()));
    }

    #[test]
    fn slack_counts_down_and_dooms() {
        let g = benchmarks::ecg();
        let mut s = ExecState::new(&g, SLOT);
        let lpf = g.ids().next().unwrap(); // 1 slot, deadline slot 3
        assert_eq!(s.slack(lpf, 0), Some(2));
        assert_eq!(s.slack(lpf, 2), Some(0));
        assert_eq!(s.slack(lpf, 3), None);
        assert!(s.is_doomed(lpf, 3));
        assert!(!s.runnable_set(3).contains(lpf.index()));
        // Completed tasks have no slack and are not doomed.
        s.advance(lpf);
        assert_eq!(s.slack(lpf, 0), None);
        assert!(!s.is_doomed(lpf, 9));
    }

    #[test]
    fn completed_mask_matches_state() {
        let g = benchmarks::shm();
        let mut s = ExecState::new(&g, SLOT);
        let first = g.ids().next().unwrap();
        s.advance(first);
        let done = s.completed_set();
        assert!(done.contains(0));
        assert!(!done.contains(1));
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn reset_is_equivalent_to_fresh_state() {
        for g in benchmarks::all_six() {
            let fresh = ExecState::new(&g, SLOT);
            let mut reused = ExecState::new(&g, SLOT);
            // Make arbitrary progress, then reset.
            for m in 0..6 {
                for i in reused.runnable_set(m).iter() {
                    reused.advance(TaskId(i));
                }
            }
            assert_ne!(reused, fresh, "progress should change the state");
            reused.reset();
            assert_eq!(
                reused,
                fresh,
                "{}: reset must equal a fresh state",
                g.name()
            );
        }
    }
}
