//! Run-constant scheduling tables, built once per (task graph, grid).
//!
//! Everything the slot schedulers derive from the task set and the
//! slot grid alone — the EDF order, each task's NVP and predecessor
//! masks, and the LSA scheduler's latest-start windows — is fixed for a
//! whole run. [`SchedTables`] computes it once; the schedulers read it
//! through [`PeriodStart::tables`](crate::PeriodStart::tables) and
//! [`SlotContext::tables`](crate::SlotContext::tables) instead of
//! re-deriving it every period or slot.

use helio_common::units::{Joules, Seconds};
use helio_common::TaskSet;
use helio_tasks::{TaskGraph, TaskId};

/// The run-constant scheduling tables of one task graph on one grid.
///
/// Built by [`SchedTables::new`] from the graph, the slot duration and
/// the slots per period; the batch engine builds one per batch and the
/// sequential engine one per run.
#[derive(Debug, Clone)]
pub struct SchedTables {
    /// Task ids by ascending deadline (`f64::total_cmp`), ties by index
    /// — the canonical priority order every scheduler here shares.
    edf_order: Vec<TaskId>,
    /// Position of each task in `edf_order`.
    edf_rank: Vec<u8>,
    /// One bit per distinct NVP, per task: two tasks share an NVP iff
    /// their bits are equal. NVP indices are renumbered densely, so a
    /// graph of at most `MAX_TASKS` tasks always fits the mask.
    nvp_bit: Vec<u32>,
    /// Direct-predecessor mask per task.
    pred: Vec<TaskSet>,
    /// Energy of one whole execution per task (`power × exec_time`).
    energy: Vec<Joules>,
    /// LSA latest feasible start slot per task.
    latest_start: Vec<usize>,
}

impl SchedTables {
    /// Builds the tables of `graph` on slots of `slot_duration`,
    /// `slots_per_period` to a period.
    pub fn new(graph: &TaskGraph, slot_duration: Seconds, slots_per_period: usize) -> Self {
        let n = graph.len();
        let mut edf_order: Vec<TaskId> = graph.ids().collect();
        edf_order.sort_unstable_by(|&a, &b| {
            graph
                .task(a)
                .deadline
                .value()
                .total_cmp(&graph.task(b).deadline.value())
                .then(a.index().cmp(&b.index()))
        });
        let mut edf_rank = vec![0u8; n];
        for (rank, id) in edf_order.iter().enumerate() {
            edf_rank[id.index()] = rank as u8;
        }
        let mut nvps: Vec<usize> = Vec::new();
        let nvp_bit = graph
            .tasks()
            .iter()
            .map(|t| {
                let dense = nvps.iter().position(|&v| v == t.nvp).unwrap_or_else(|| {
                    nvps.push(t.nvp);
                    nvps.len() - 1
                });
                1u32.checked_shl(dense as u32).unwrap_or(0)
            })
            .collect();
        Self {
            edf_order,
            edf_rank,
            nvp_bit,
            pred: graph.ids().map(|id| graph.predecessor_set(id)).collect(),
            energy: graph.tasks().iter().map(|t| t.energy()).collect(),
            latest_start: latest_starts(graph, slot_duration, slots_per_period),
        }
    }

    /// Task ids in EDF order (deadline, then index).
    pub fn edf_order(&self) -> &[TaskId] {
        &self.edf_order
    }

    /// Position of task index `i` in [`SchedTables::edf_order`].
    pub fn edf_rank(&self, i: usize) -> u8 {
        self.edf_rank[i]
    }

    /// The NVP bit of task index `i` (see the field docs).
    pub fn nvp_bit(&self, i: usize) -> u32 {
        self.nvp_bit[i]
    }

    /// Direct predecessors of task index `i`.
    pub fn predecessors(&self, i: usize) -> TaskSet {
        self.pred[i]
    }

    /// Energy of one whole execution of task index `i`.
    pub fn energy(&self, i: usize) -> Joules {
        self.energy[i]
    }

    /// The LSA latest feasible start slot of task index `i`.
    pub fn latest_start(&self, i: usize) -> usize {
        self.latest_start[i]
    }
}

/// Latest feasible start per task: alternate a dependency backward pass
/// with a per-NVP compaction pass (same-NVP tasks serialise, so their
/// lazy windows must not overlap). A few iterations reach the fixpoint
/// on these small graphs. Each task's own deadline is clamped to the
/// period, which matters on grids where `ceil(D/Δt)` exceeds `N_s`.
fn latest_starts(graph: &TaskGraph, slot: Seconds, slots_per_period: usize) -> Vec<usize> {
    let n = graph.len();
    let mut latest_start = vec![usize::MAX; n];
    // Validated graphs are acyclic; should a cycle slip through, id
    // order still bounds every task (as `closed_subsets` does).
    let topo = graph
        .topological_order()
        .unwrap_or_else(|_| graph.ids().collect());
    let needed: Vec<usize> = graph.tasks().iter().map(|t| t.slots_needed(slot)).collect();
    let own_deadline: Vec<usize> = graph
        .tasks()
        .iter()
        .map(|t| t.deadline_slot(slot).min(slots_per_period))
        .collect();
    let succ_sets: Vec<TaskSet> = graph.ids().map(|id| graph.successor_set(id)).collect();
    let nvp_sets: Vec<TaskSet> = (0..graph.nvp_count())
        .map(|nvp| graph.nvp_set(nvp))
        .collect();
    let mut nvp_order: Vec<TaskId> = Vec::with_capacity(n);
    for _ in 0..4 {
        // Dependency pass.
        for &id in topo.iter().rev() {
            let i = id.index();
            let succ_bound = succ_sets[i]
                .iter()
                .map(|s| latest_start[s])
                .min()
                .unwrap_or(usize::MAX)
                .min(own_deadline[i])
                .min(latest_start[i].saturating_add(needed[i]));
            latest_start[i] = succ_bound.saturating_sub(needed[i]);
        }
        // NVP compaction pass: latest-fit tasks of each NVP back to
        // back, latest finisher first. The unstable sort keyed on
        // (finish, index) reproduces the stable finish-only sort of the
        // ascending-index NVP membership exactly.
        for set in &nvp_sets {
            nvp_order.clear();
            nvp_order.extend(set.iter().map(TaskId));
            nvp_order.sort_unstable_by_key(|&id| {
                (
                    std::cmp::Reverse(latest_start[id.index()].saturating_add(needed[id.index()])),
                    id.index(),
                )
            });
            let mut bound = usize::MAX;
            for &id in &nvp_order {
                let i = id.index();
                let finish = latest_start[i].saturating_add(needed[i]).min(bound);
                latest_start[i] = finish.saturating_sub(needed[i]);
                bound = latest_start[i];
            }
        }
    }
    latest_start
}

#[cfg(test)]
mod tests {
    use super::*;
    use helio_tasks::benchmarks;

    const SLOT: Seconds = Seconds::new(60.0);

    #[test]
    fn edf_order_and_rank_are_inverse() {
        let g = benchmarks::wam();
        let t = SchedTables::new(&g, SLOT, 10);
        assert_eq!(t.edf_order().len(), g.len());
        for (rank, id) in t.edf_order().iter().enumerate() {
            assert_eq!(usize::from(t.edf_rank(id.index())), rank);
        }
        assert!(t
            .edf_order()
            .windows(2)
            .all(|w| g.task(w[0]).deadline <= g.task(w[1]).deadline));
    }

    #[test]
    fn nvp_bits_separate_exactly_the_nvps() {
        let g = benchmarks::shm();
        let t = SchedTables::new(&g, SLOT, 10);
        for a in g.ids() {
            for b in g.ids() {
                let same = g.task(a).nvp == g.task(b).nvp;
                assert_eq!(t.nvp_bit(a.index()) == t.nvp_bit(b.index()), same);
                assert_eq!(t.nvp_bit(a.index()).count_ones(), 1);
            }
        }
    }

    #[test]
    fn windows_fit_the_period() {
        let g = benchmarks::ecg();
        let t = SchedTables::new(&g, SLOT, 10);
        for id in g.ids() {
            let i = id.index();
            assert!(t.latest_start(i) + g.task(id).slots_needed(SLOT) <= 10);
            assert_eq!(t.predecessors(i), g.predecessor_set(id));
            assert_eq!(t.energy(i), g.task(id).energy());
        }
    }
}
