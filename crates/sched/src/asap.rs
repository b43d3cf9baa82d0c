//! The as-soon-as-possible scheduler: run everything runnable, blind
//! to energy. Used by the capacitor-sizing step (Section 4.1's "the
//! scheduling results are obtained based on the ASAP rule") and as a
//! naive reference.

use helio_common::TaskSet;

use crate::context::{PeriodStart, SlotContext};
use crate::traits::{edf_pick_set, SlotScheduler};

/// Run every runnable task as soon as possible, one per NVP, energy be
/// damned. Under-powered slots brown out and waste the energy spent —
/// the failure mode the long-term planner avoids.
#[derive(Debug, Clone, Default)]
pub struct AsapScheduler {
    allowed: Option<TaskSet>,
}

impl AsapScheduler {
    /// Creates an ASAP scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SlotScheduler for AsapScheduler {
    fn name(&self) -> &'static str {
        "asap"
    }

    fn begin_period(&mut self, ctx: &PeriodStart<'_>) {
        self.allowed = ctx.allowed;
    }

    fn select(&mut self, ctx: &SlotContext<'_>) -> TaskSet {
        let mut candidates = ctx.exec.runnable_set(ctx.slot);
        if let Some(mask) = self.allowed {
            candidates = candidates.intersection(mask);
        }
        edf_pick_set(ctx.tables, candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecState;
    use crate::tables::SchedTables;
    use helio_common::units::{Joules, Seconds};
    use helio_tasks::benchmarks;

    fn ctx<'a>(
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
            slot_duration: Seconds::new(60.0),
            slots_per_period: 10,
            harvest: Joules::ZERO, // ASAP ignores energy entirely
            direct_deliverable: Joules::ZERO,
            storage_deliverable: Joules::ZERO,
        }
    }

    #[test]
    fn runs_even_with_zero_energy() {
        let g = benchmarks::wam();
        let exec = ExecState::new(&g, Seconds::new(60.0));
        let t = SchedTables::new(&g, Seconds::new(60.0), 10);
        let mut s = AsapScheduler::new();
        let picked = s.select(&ctx(&g, &t, &exec, 0));
        assert!(
            !picked.is_empty(),
            "ASAP must try to run regardless of energy"
        );
    }

    #[test]
    fn respects_allowed_mask() {
        let g = benchmarks::wam();
        let exec = ExecState::new(&g, Seconds::new(60.0));
        let t = SchedTables::new(&g, Seconds::new(60.0), 10);
        let mut s = AsapScheduler::new();
        s.begin_period(&PeriodStart {
            graph: &g,
            tables: &t,
            slot_duration: Seconds::new(60.0),
            slots_per_period: 10,
            predicted_energy: Joules::ZERO,
            stored_energy: Joules::ZERO,
            allowed: Some(TaskSet::EMPTY),
        });
        assert!(s.select(&ctx(&g, &t, &exec, 0)).is_empty());
    }

    #[test]
    fn drains_the_whole_graph_given_enough_slots() {
        let g = benchmarks::ecg();
        let mut exec = ExecState::new(&g, Seconds::new(60.0));
        let t = SchedTables::new(&g, Seconds::new(60.0), 10);
        let mut s = AsapScheduler::new();
        for m in 0..10 {
            for i in s.select(&ctx(&g, &t, &exec, m)) {
                exec.advance(helio_tasks::TaskId(i));
            }
        }
        assert_eq!(exec.misses(), 0, "ECG fits in one period under ASAP");
    }
}
