//! The [`SlotScheduler`] trait the simulation engine drives, plus the
//! NVP-exclusive EDF selection helper every concrete scheduler uses.

use helio_common::TaskSet;

use crate::context::{PeriodStart, SlotContext};
use crate::tables::SchedTables;

/// A scheduler that decides, slot by slot, which tasks run.
///
/// The engine calls [`SlotScheduler::begin_period`] once per period and
/// [`SlotScheduler::select`] once per slot; the returned task set is
/// executed if the PMU can power it (the engine handles brown-outs).
/// Implementations must respect NVP exclusivity — at most one returned
/// task per NVP (the engine asserts this) — and must not allocate on
/// the `select` path once warm (scratch buffers belong in the
/// scheduler struct).
pub trait SlotScheduler {
    /// Scheduler name for experiment tables.
    fn name(&self) -> &'static str;

    /// Observes the period-start context (predicted energy, admission
    /// mask). Default: no-op for stateless schedulers.
    fn begin_period(&mut self, ctx: &PeriodStart<'_>) {
        let _ = ctx;
    }

    /// Chooses the tasks to run in this slot, as a bitmask.
    fn select(&mut self, ctx: &SlotContext<'_>) -> TaskSet;
}

/// Picks at most one task per NVP from `candidates`, preferring the
/// earliest deadline (ties: lowest id) — the canonical priority rule
/// all schedulers here share. Walks the precomputed EDF order with an
/// NVP-used bitmask: the first candidate met on each NVP is its
/// champion. Allocation-free; candidate bits outside the graph are
/// ignored.
pub fn edf_pick_set(tables: &SchedTables, candidates: TaskSet) -> TaskSet {
    let mut left = candidates;
    let mut nvp_used = 0u32;
    let mut picked = TaskSet::EMPTY;
    for &id in tables.edf_order() {
        if left.is_empty() {
            break;
        }
        let i = id.index();
        if !left.contains(i) {
            continue;
        }
        left.remove(i);
        let bit = tables.nvp_bit(i);
        if nvp_used & bit == 0 {
            nvp_used |= bit;
            picked.insert(i);
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use helio_common::units::Seconds;
    use helio_tasks::{benchmarks, TaskId};

    fn tables(g: &helio_tasks::TaskGraph) -> SchedTables {
        SchedTables::new(g, Seconds::new(60.0), 10)
    }

    #[test]
    fn edf_pick_respects_nvp_exclusivity() {
        let g = benchmarks::wam();
        let picked = edf_pick_set(&tables(&g), g.all_tasks());
        // One per NVP at most.
        let mut nvps: Vec<usize> = picked.iter().map(|i| g.task(TaskId(i)).nvp).collect();
        nvps.sort_unstable();
        nvps.dedup();
        assert_eq!(nvps.len(), picked.len());
        assert!(picked.len() <= g.nvp_count());
    }

    #[test]
    fn edf_pick_prefers_earliest_deadline() {
        let g = benchmarks::wam();
        let picked = edf_pick_set(&tables(&g), g.all_tasks());
        // On NVP 0 the earliest deadline is heart_rate_sampling (150 s).
        let nvp0 = picked
            .iter()
            .map(TaskId)
            .find(|&id| g.task(id).nvp == 0)
            .expect("nvp0 candidate");
        assert_eq!(g.task(nvp0).name, "heart_rate_sampling");
    }

    #[test]
    fn edf_pick_empty_candidates() {
        let g = benchmarks::wam();
        assert!(edf_pick_set(&tables(&g), TaskSet::EMPTY).is_empty());
    }

    #[test]
    fn edf_pick_keeps_one_champion_per_nvp() {
        let g = benchmarks::ecg();
        let t = tables(&g);
        let picked = edf_pick_set(&t, g.all_tasks());
        for nvp in 0..g.nvp_count() {
            let on_nvp = picked.intersection(g.nvp_set(nvp));
            assert_eq!(on_nvp.len(), 1, "nvp {nvp}");
        }
    }
}
