//! The per-period subset-execution kernel shared by the offline LUT
//! builder (Eq. 15: minimise the capacitor energy consumed to achieve a
//! target DMR) and the online planner.
//!
//! Given the set of tasks a period commits to (`te_{i,j}(n)` bits), the
//! kernel simulates the period slot by slot with a solar-following
//! policy: zero-slack tasks run unconditionally (deferring them
//! forfeits their deadline), other admitted tasks run only when the
//! direct solar channel can power them — deferring work into sunshine
//! and minimising the energy drawn from the supercapacitor.

use helio_common::taskset::MAX_TASKS;
use helio_common::units::{Joules, Seconds};
use helio_common::TaskSet;
use helio_nvp::Pmu;
use helio_storage::{CapacitorBank, StorageModelParams};
use helio_tasks::{TaskGraph, TaskId};
use serde::{Deserialize, Serialize};

use crate::exec::ExecState;

/// Energy and deadline ledger of one simulated period.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SubsetOutcome {
    /// Tasks that missed their deadline (over the *whole* graph, not
    /// just the subset — excluded tasks miss by definition).
    pub misses: usize,
    /// Per-period deadline-miss rate `DMR_{i,j}`.
    pub dmr: f64,
    /// Whether every task in the subset completed.
    pub completed_all: bool,
    /// Energy drawn from the active capacitor (`E^c_{i,j}` of Eq. 15).
    pub cap_drawn: Joules,
    /// Solar energy absorbed into the capacitor during the period.
    pub cap_stored: Joules,
    /// Solar surplus that found no room (capacitor full).
    pub wasted: Joules,
    /// Load demand actually served.
    pub served: Joules,
    /// Number of slots that browned out (demand unserved).
    pub brownouts: usize,
}

/// Simulates one period executing exactly the tasks of `subset`
/// (a bitmask over the graph's task ids; dependencies of included tasks
/// must be included for them to complete).
///
/// `solar` holds the per-slot harvested energies of the period; the
/// bank's *active* capacitor is charged/discharged in place, so the
/// caller sees the post-period storage state.
///
/// Bits of `subset` outside the graph's task range are ignored — a
/// corrupted planner decision degrades to the valid part of the mask
/// instead of bringing the node down.
///
/// One-shot wrapper over [`SubsetKernel`]; callers that simulate many
/// periods of one graph keep a kernel instead.
pub fn simulate_subset(
    graph: &TaskGraph,
    subset: TaskSet,
    solar: &[Joules],
    slot_duration: Seconds,
    bank: &mut CapacitorBank,
    pmu: &Pmu,
    storage: &StorageModelParams,
) -> SubsetOutcome {
    SubsetKernel::new(graph, slot_duration).run(subset, solar, bank, pmu, storage)
}

/// The subset-execution kernel with its scratch, built once per
/// (graph, slot duration) and reused across periods.
///
/// [`SubsetKernel::run`] resets the execution state in place, so after
/// the first run it allocates nothing, and every run equals a fresh
/// [`simulate_subset`] on the same inputs.
#[derive(Debug, Clone)]
pub struct SubsetKernel {
    exec: ExecState,
    slot_duration: Seconds,
    /// Every task of the graph; stray mask bits are dropped against it.
    all: TaskSet,
    /// Per-task NVP index and one slot's energy (`power × slot`).
    tasks: Vec<(usize, Joules)>,
    /// Per-NVP task masks for the allocation-free urgency check.
    nvp_tasks: [TaskSet; MAX_TASKS],
    /// Urgency-ordered candidate scratch, reused across slots.
    candidates: Vec<TaskId>,
}

impl SubsetKernel {
    /// Builds the kernel for `graph` on slots of `slot_duration`.
    pub fn new(graph: &TaskGraph, slot_duration: Seconds) -> Self {
        let mut nvp_tasks = [TaskSet::EMPTY; MAX_TASKS];
        for (nvp, mask) in nvp_tasks.iter_mut().enumerate().take(graph.nvp_count()) {
            *mask = graph.nvp_set(nvp);
        }
        Self {
            exec: ExecState::new(graph, slot_duration),
            slot_duration,
            all: graph.all_tasks(),
            tasks: graph
                .tasks()
                .iter()
                .map(|t| (t.nvp, t.power * slot_duration))
                .collect(),
            nvp_tasks,
            candidates: Vec::with_capacity(graph.len()),
        }
    }

    /// Simulates one period of `subset` on the kernel's graph; see
    /// [`simulate_subset`] for the contract.
    pub fn run(
        &mut self,
        subset: TaskSet,
        solar: &[Joules],
        bank: &mut CapacitorBank,
        pmu: &Pmu,
        storage: &StorageModelParams,
    ) -> SubsetOutcome {
        let subset = subset.intersection(self.all);
        let slot_duration = self.slot_duration;
        let exec = &mut self.exec;
        exec.reset();
        let candidates = &mut self.candidates;
        let mut cap_drawn = Joules::ZERO;
        let mut cap_stored = Joules::ZERO;
        let mut wasted = Joules::ZERO;
        let mut served = Joules::ZERO;
        let mut brownouts = 0usize;

        for (m, &harvest) in solar.iter().enumerate() {
            bank.leak_all(storage, slot_duration);

            // Candidate tasks: runnable members of the subset.
            candidates.clear();
            candidates.extend(exec.runnable_set(m).intersection(subset).iter().map(TaskId));
            candidates
                .sort_unstable_by_key(|&id| (exec.slack(id, m).unwrap_or(usize::MAX), id.index()));

            let mut picked = TaskSet::EMPTY;
            let mut nvp_used = 0u32;
            let direct_capacity = harvest * pmu.params().direct_efficiency;
            let mut committed = Joules::ZERO;
            // Urgent pass: an NVP must run when any deadline horizon of
            // its pending subset tasks has no spare slot left (classic
            // busy condition — per-task slack alone misses same-NVP
            // contention).
            for &id in candidates.iter() {
                let (nvp, cost) = self.tasks[id.index()];
                if nvp_used & (1 << nvp) != 0 {
                    continue;
                }
                if nvp_is_forced(self.nvp_tasks[nvp].intersection(subset), exec, m) {
                    // Candidates are slack-sorted, so `id` is this
                    // NVP's most urgent runnable task.
                    picked.insert(id.index());
                    nvp_used |= 1 << nvp;
                    committed += cost;
                }
            }
            // Opportunistic pass: spend free sunshine.
            for &id in candidates.iter() {
                let (nvp, cost) = self.tasks[id.index()];
                if nvp_used & (1 << nvp) != 0 {
                    continue;
                }
                if committed + cost <= direct_capacity {
                    picked.insert(id.index());
                    nvp_used |= 1 << nvp;
                    committed += cost;
                }
            }

            // `committed` accumulated exactly the picked tasks' costs in
            // pick order, so it *is* the slot demand.
            let flow = pmu.settle_slot(harvest, committed, bank, storage);
            cap_drawn += flow.served_storage;
            cap_stored += flow.stored;
            wasted += flow.wasted;
            served += flow.served_direct + flow.served_storage;
            if flow.fully_served() {
                for i in picked {
                    exec.advance(TaskId(i));
                }
            } else {
                // Brown-out: the energy is spent but the slot makes no
                // progress (the NVPs back up and stall).
                brownouts += 1;
            }
        }

        SubsetOutcome {
            misses: exec.misses(),
            dmr: exec.dmr(),
            completed_all: subset.is_subset_of(exec.completed_set()),
            cap_drawn,
            cap_stored,
            wasted,
            served,
            brownouts,
        }
    }
}

/// Whether an NVP has no spare slot before some deadline horizon:
/// `members` holds the NVP's subset tasks; for any deadline slot `d`
/// of its incomplete members, the total remaining work due by `d` must
/// fit into `d − m` slots; equality (or overflow) forces the NVP to
/// run now. Allocation-free: horizons are enumerated straight off the
/// member mask (duplicates re-check the same horizon harmlessly).
fn nvp_is_forced(members: TaskSet, exec: &ExecState, m: usize) -> bool {
    for i in members.iter() {
        let id = TaskId(i);
        if exec.is_complete(id) || exec.is_doomed(id, m) {
            continue;
        }
        let d = exec.deadline_slot(id);
        if d <= m {
            continue;
        }
        let mut due = 0usize;
        for j in members.iter() {
            let jd = TaskId(j);
            if exec.is_complete(jd) || exec.is_doomed(jd, m) {
                continue;
            }
            if exec.deadline_slot(jd) <= d {
                due += exec.remaining(jd);
            }
        }
        if due >= d - m {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use helio_common::units::Farads;
    use helio_tasks::benchmarks;

    const SLOT: Seconds = Seconds::new(60.0);

    fn setup(initial_charge: f64) -> (CapacitorBank, Pmu, StorageModelParams) {
        let storage = StorageModelParams::default();
        let mut bank = CapacitorBank::new(&[Farads::new(10.0)], &storage).unwrap();
        if initial_charge > 0.0 {
            bank.charge_active(&storage, Joules::new(initial_charge));
        }
        (bank, Pmu::default(), storage)
    }

    fn sunny(slots: usize) -> Vec<Joules> {
        vec![Joules::new(5.0); slots] // ~83 mW
    }

    fn dark(slots: usize) -> Vec<Joules> {
        vec![Joules::ZERO; slots]
    }

    #[test]
    fn full_subset_on_sunny_period_completes_without_cap_draw() {
        let g = benchmarks::ecg();
        let (mut bank, pmu, storage) = setup(0.0);
        let out = simulate_subset(
            &g,
            g.all_tasks(),
            &sunny(10),
            SLOT,
            &mut bank,
            &pmu,
            &storage,
        );
        assert_eq!(out.misses, 0, "{out:?}");
        assert!(out.completed_all);
        assert!(
            out.cap_drawn.value() < 0.2,
            "sunshine should power everything: drew {}",
            out.cap_drawn
        );
        assert!(out.cap_stored.value() > 5.0, "surplus should store");
    }

    #[test]
    fn empty_subset_misses_everything_but_stores_all() {
        let g = benchmarks::ecg();
        let (mut bank, pmu, storage) = setup(0.0);
        let out = simulate_subset(
            &g,
            TaskSet::EMPTY,
            &sunny(10),
            SLOT,
            &mut bank,
            &pmu,
            &storage,
        );
        assert_eq!(out.misses, g.len());
        assert!((out.dmr - 1.0).abs() < 1e-12);
        assert_eq!(out.served, Joules::ZERO);
        assert!(out.cap_stored.value() > 20.0);
    }

    #[test]
    fn dark_period_draws_from_capacitor() {
        let g = benchmarks::ecg();
        let (mut bank, pmu, storage) = setup(60.0);
        let out = simulate_subset(
            &g,
            g.all_tasks(),
            &dark(10),
            SLOT,
            &mut bank,
            &pmu,
            &storage,
        );
        assert_eq!(out.misses, 0, "{out:?}");
        assert!(out.cap_drawn.value() > 5.0);
    }

    #[test]
    fn dark_period_without_storage_misses_all() {
        let g = benchmarks::ecg();
        let (mut bank, pmu, storage) = setup(0.0);
        let out = simulate_subset(
            &g,
            g.all_tasks(),
            &dark(10),
            SLOT,
            &mut bank,
            &pmu,
            &storage,
        );
        assert_eq!(out.misses, g.len());
        assert!(out.brownouts > 0);
        assert!(!out.completed_all);
    }

    #[test]
    fn excluding_dependencies_dooms_dependents() {
        let g = benchmarks::ecg();
        let (mut bank, pmu, storage) = setup(0.0);
        // Exclude lpf: the whole filter chain (and qrs, aes) can never
        // become runnable.
        let subset = g.all_tasks().difference(TaskSet::EMPTY.with(0));
        let out = simulate_subset(&g, subset, &sunny(10), SLOT, &mut bank, &pmu, &storage);
        assert!(!out.completed_all);
        assert!(out.misses >= 5, "chain is blocked: {out:?}");
    }

    #[test]
    fn solar_following_defers_into_sunshine() {
        // Solar only in the second half: tasks with slack wait, so the
        // capacitor draw stays near zero.
        let g = benchmarks::shm();
        let (mut bank, pmu, storage) = setup(10.0);
        let mut solar = dark(10);
        for s in solar.iter_mut().skip(3) {
            *s = Joules::new(6.0);
        }
        let out = simulate_subset(&g, g.all_tasks(), &solar, SLOT, &mut bank, &pmu, &storage);
        assert_eq!(out.misses, 0, "{out:?}");
        assert!(
            out.cap_drawn.value() < 3.0,
            "most work should ride the sun: drew {}",
            out.cap_drawn
        );
    }

    #[test]
    fn subset_partial_reduces_demand() {
        let g = benchmarks::wam();
        let (mut bank1, pmu, storage) = setup(0.0);
        let full = simulate_subset(
            &g,
            g.all_tasks(),
            &sunny(10),
            SLOT,
            &mut bank1,
            &pmu,
            &storage,
        );
        let (mut bank2, _, _) = setup(0.0);
        // Only the two root sensing tasks.
        let some = TaskSet::EMPTY.with(0).with(1);
        let part = simulate_subset(&g, some, &sunny(10), SLOT, &mut bank2, &pmu, &storage);
        assert!(part.served < full.served);
        assert!(part.cap_stored > full.cap_stored, "unspent solar stores");
        assert_eq!(part.misses, g.len() - 2);
    }

    #[test]
    fn out_of_range_mask_bits_are_ignored() {
        let g = benchmarks::ecg();
        let (mut bank, pmu, storage) = setup(0.0);
        // A mask with one valid task and one bogus bit behaves exactly
        // like the valid part alone.
        let bogus = TaskSet::EMPTY.with(0).with(g.len());
        let out = simulate_subset(&g, bogus, &sunny(10), SLOT, &mut bank, &pmu, &storage);
        let (mut bank2, _, _) = setup(0.0);
        let clean = simulate_subset(
            &g,
            TaskSet::EMPTY.with(0),
            &sunny(10),
            SLOT,
            &mut bank2,
            &pmu,
            &storage,
        );
        assert_eq!(out, clean);
    }
}
