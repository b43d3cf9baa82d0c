//! The run-constant scheduling tables decide exactly as the per-period
//! code they replaced. The reference implementations below are that
//! code, kept verbatim in spirit: the LSA lazy-window fixpoint and
//! budget admission recomputed every period, the champion-array EDF
//! pick, and the comparator-sorted intra-task urgency order.

use helio_common::taskset::MAX_TASKS;
use helio_common::units::{Joules, Seconds, Watts};
use helio_common::TaskSet;
use helio_sched::{
    edf_pick_set, ExecState, IntraTaskScheduler, LsaScheduler, PeriodStart, SchedTables,
    SlotContext, SlotScheduler,
};
use helio_tasks::{benchmarks, random_graph, RandomGraphConfig, Task, TaskGraph, TaskId};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Reference implementations (the per-period code).
// ---------------------------------------------------------------------

/// The LSA period start as it ran every period: EDF-ordered budget
/// admission, then the lazy-window fixpoint.
fn ref_lsa_begin(
    graph: &TaskGraph,
    slot: Seconds,
    slots_per_period: usize,
    budget: Joules,
    allowed: Option<TaskSet>,
) -> (TaskSet, Vec<usize>) {
    let n = graph.len();
    let mut order: Vec<TaskId> = graph.ids().collect();
    order.sort_unstable_by(|&a, &b| {
        graph
            .task(a)
            .deadline
            .value()
            .total_cmp(&graph.task(b).deadline.value())
            .then(a.index().cmp(&b.index()))
    });
    let mut admitted = TaskSet::EMPTY;
    let mut spent = Joules::ZERO;
    for &id in &order {
        if !allowed.is_none_or(|m| m.contains(id.index())) {
            continue;
        }
        let cost = graph.task(id).energy();
        let preds_ok = graph.predecessor_set(id).is_subset_of(admitted);
        if preds_ok && spent + cost <= budget {
            admitted.insert(id.index());
            spent += cost;
        }
    }
    let mut latest_start = vec![usize::MAX; n];
    let topo = graph
        .topological_order()
        .unwrap_or_else(|_| graph.ids().collect());
    let needed: Vec<usize> = graph.tasks().iter().map(|t| t.slots_needed(slot)).collect();
    let own_deadline: Vec<usize> = graph
        .tasks()
        .iter()
        .map(|t| t.deadline_slot(slot).min(slots_per_period))
        .collect();
    for _ in 0..4 {
        for &id in topo.iter().rev() {
            let succ_bound = graph
                .successors(id)
                .iter()
                .map(|s| latest_start[s.index()])
                .min()
                .unwrap_or(usize::MAX)
                .min(own_deadline[id.index()])
                .min(latest_start[id.index()].saturating_add(needed[id.index()]));
            latest_start[id.index()] = succ_bound.saturating_sub(needed[id.index()]);
        }
        for nvp in 0..graph.nvp_count() {
            let mut members = graph.tasks_on_nvp(nvp);
            members.sort_by_key(|&id| {
                std::cmp::Reverse(latest_start[id.index()].saturating_add(needed[id.index()]))
            });
            let mut bound = usize::MAX;
            for id in members {
                let finish = latest_start[id.index()]
                    .saturating_add(needed[id.index()])
                    .min(bound);
                latest_start[id.index()] = finish.saturating_sub(needed[id.index()]);
                bound = latest_start[id.index()];
            }
        }
    }
    (admitted, latest_start)
}

/// The champion-array EDF pick: per NVP, the candidate with the
/// earliest deadline, ties to the lower index.
fn ref_edf_pick_set(graph: &TaskGraph, candidates: TaskSet) -> TaskSet {
    let mut best: [Option<TaskId>; MAX_TASKS] = [None; MAX_TASKS];
    for i in candidates.iter() {
        let id = TaskId(i);
        let nvp = graph.task(id).nvp;
        match best[nvp] {
            None => best[nvp] = Some(id),
            Some(b) => {
                if graph
                    .task(id)
                    .deadline
                    .value()
                    .total_cmp(&graph.task(b).deadline.value())
                    .is_lt()
                {
                    best[nvp] = Some(id);
                }
            }
        }
    }
    let mut picked = TaskSet::EMPTY;
    for champ in best.iter().flatten() {
        picked.insert(champ.index());
    }
    picked
}

/// The intra-task pick with the comparator-sorted urgency order.
fn ref_intra_select(ctx: &SlotContext<'_>, allowed: Option<TaskSet>) -> TaskSet {
    let graph = ctx.graph;
    let mut candidates = ctx.exec.runnable_set(ctx.slot);
    if let Some(mask) = allowed {
        candidates = candidates.intersection(mask);
    }
    let mut order: Vec<TaskId> = candidates.iter().map(TaskId).collect();
    order.sort_by(|&a, &b| {
        let sa = ctx.exec.slack(a, ctx.slot).unwrap_or(usize::MAX);
        let sb = ctx.exec.slack(b, ctx.slot).unwrap_or(usize::MAX);
        sa.cmp(&sb)
            .then(
                graph
                    .task(a)
                    .deadline
                    .value()
                    .total_cmp(&graph.task(b).deadline.value()),
            )
            .then(a.index().cmp(&b.index()))
    });
    let mut picked = TaskSet::EMPTY;
    let mut nvp_used = 0u32;
    let mut budget = ctx.available();
    for id in order {
        let nvp = graph.task(id).nvp;
        if nvp_used & (1 << nvp) != 0 {
            continue;
        }
        let cost = ctx.slot_cost(id);
        let urgent = ctx.exec.slack(id, ctx.slot) == Some(0);
        if urgent || cost <= budget {
            picked.insert(id.index());
            nvp_used |= 1 << nvp;
            budget = (budget - cost).max(Joules::ZERO);
        }
    }
    picked
}

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

/// A slot grid `(Δt, N_s)`.
#[derive(Debug, Clone, Copy)]
struct Grid {
    slot: Seconds,
    slots: usize,
}

/// The grids under test: the paper's; a coarser one whose period is
/// shorter than the benchmarks' latest deadlines; and one where the
/// period product rounds up, so a deadline equal to the period lands
/// one slot past `N_s` (`20.3 / 2.9 > 7`). On the last two the
/// own-deadline clamp bites.
const GRIDS: [Grid; 3] = [
    Grid {
        slot: Seconds::new(60.0),
        slots: 10,
    },
    Grid {
        slot: Seconds::new(70.0),
        slots: 8,
    },
    Grid {
        slot: Seconds::new(2.9),
        slots: 7,
    },
];

/// `graph` with its 600 s period mapped onto `grid`'s period: deadlines
/// and execution times scale, and a 600 s deadline becomes exactly the
/// grid's period. Grids of minute-or-longer slots keep the graph as is.
fn on_grid(graph: &TaskGraph, grid: Grid) -> TaskGraph {
    let period = grid.slot.value() * grid.slots as f64;
    if grid.slot.value() >= 60.0 {
        return graph.clone();
    }
    let scale = period / 600.0;
    let mut out = TaskGraph::new(graph.name());
    for t in graph.tasks() {
        let deadline = if t.deadline.value() == 600.0 {
            period
        } else {
            t.deadline.value() * scale
        };
        out.add_task(Task::new(
            t.name.clone(),
            Seconds::new(t.exec_time.value() * scale),
            Seconds::new(deadline),
            Watts::new(t.power.value()),
            t.nvp,
        ));
    }
    for &(from, to) in graph.edges() {
        out.add_edge(from, to).expect("copying a valid edge set");
    }
    out
}

/// Graph `k`: the six benchmarks, then random DAGs of the paper ranges.
fn graph_for(k: usize, seed: u64) -> TaskGraph {
    let six = benchmarks::all_six();
    if k < six.len() {
        six[k].clone()
    } else {
        random_graph("prop", seed, &RandomGraphConfig::paper_ranges())
    }
}

/// An execution state with random progress: `raw[i]` slots of task `i`
/// already run (capped at what it needs).
fn exec_with_progress(graph: &TaskGraph, slot: Seconds, raw: &[u8]) -> ExecState {
    let mut exec = ExecState::new(graph, slot);
    for id in graph.ids() {
        let steps = usize::from(raw[id.index() % raw.len()] % 4);
        for _ in 0..steps.min(exec.needed(id)) {
            exec.advance(id);
        }
    }
    exec
}

fn mask_from(graph: &TaskGraph, bits: u32) -> TaskSet {
    TaskSet::from_bits(bits).intersection(graph.all_tasks())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tables' latest-start windows equal the per-period fixpoint,
    /// and the clamp grids really exercise the clamp.
    #[test]
    fn latest_start_windows_match_the_fixpoint(
        k in 0usize..12,
        seed in 0u64..10_000,
        g in 0usize..3,
    ) {
        let grid = GRIDS[g];
        let graph = on_grid(&graph_for(k, seed), grid);
        let tables = SchedTables::new(&graph, grid.slot, grid.slots);
        let (_, want) = ref_lsa_begin(&graph, grid.slot, grid.slots, Joules::ZERO, None);
        for id in graph.ids() {
            prop_assert_eq!(tables.latest_start(id.index()), want[id.index()], "task {}", id);
        }
        if g > 0 && (3..6).contains(&k) {
            prop_assert!(
                graph.tasks().iter().any(|t| t.deadline_slot(grid.slot) > grid.slots),
                "grid {:?} should clamp a deadline of {}", grid, graph.name()
            );
        }
    }

    /// The EDF pick over the tables equals the champion-array pick for
    /// any candidate set.
    #[test]
    fn edf_pick_matches_the_champion_array(
        k in 0usize..12,
        seed in 0u64..10_000,
        bits in any::<u32>(),
    ) {
        let graph = graph_for(k, seed);
        let tables = SchedTables::new(&graph, GRIDS[0].slot, GRIDS[0].slots);
        let candidates = mask_from(&graph, bits);
        prop_assert_eq!(
            edf_pick_set(&tables, candidates),
            ref_edf_pick_set(&graph, candidates)
        );
    }

    /// A whole LSA period — admission, lazy starts, non-preemption,
    /// EDF picks — matches the per-period reference slot for slot,
    /// under random budgets, admission masks and brown-outs.
    #[test]
    fn lsa_periods_match_the_reference(
        k in 0usize..12,
        seed in 0u64..10_000,
        g in 0usize..3,
        predicted in 0.0f64..40.0,
        stored in 0.0f64..15.0,
        mask_bits in any::<u32>(),
        masked in any::<bool>(),
        raw in prop::collection::vec(any::<u8>(), 1..16),
        powered in prop::collection::vec(any::<bool>(), 16),
    ) {
        let grid = GRIDS[g];
        let graph = on_grid(&graph_for(k, seed), grid);
        let tables = SchedTables::new(&graph, grid.slot, grid.slots);
        let allowed = masked.then(|| mask_from(&graph, mask_bits));
        let start = PeriodStart {
            graph: &graph,
            tables: &tables,
            slot_duration: grid.slot,
            slots_per_period: grid.slots,
            predicted_energy: Joules::new(predicted),
            stored_energy: Joules::new(stored),
            allowed,
        };
        let mut lsa = LsaScheduler::new();
        lsa.begin_period(&start);
        let budget = start.predicted_energy * 0.95 + start.stored_energy;
        let (admitted, latest) = ref_lsa_begin(&graph, grid.slot, grid.slots, budget, allowed);
        let mut started = TaskSet::EMPTY;
        let mut exec = exec_with_progress(&graph, grid.slot, &raw);
        for m in 0..grid.slots {
            let ctx = SlotContext {
                graph: &graph,
                tables: &tables,
                exec: &exec,
                slot: m,
                slot_duration: grid.slot,
                slots_per_period: grid.slots,
                harvest: Joules::ZERO,
                direct_deliverable: Joules::ZERO,
                storage_deliverable: Joules::ZERO,
            };
            let got = lsa.select(&ctx);
            let mut candidates = TaskSet::EMPTY;
            for i in exec.runnable_set(m).intersection(admitted).iter() {
                if started.contains(i) || m >= latest[i] {
                    candidates.insert(i);
                }
            }
            let want = ref_edf_pick_set(&graph, candidates);
            started = started.union(want);
            prop_assert_eq!(got, want, "slot {}", m);
            if powered[m % powered.len()] {
                for i in want.iter() {
                    exec.advance(TaskId(i));
                }
            }
        }
    }

    /// The intra-task pick with integer (slack, EDF rank) keys equals
    /// the comparator-sorted reference at random progress, slots,
    /// budgets and masks.
    #[test]
    fn intra_picks_match_the_reference(
        k in 0usize..12,
        seed in 0u64..10_000,
        g in 0usize..3,
        raw in prop::collection::vec(any::<u8>(), 1..16),
        slot in 0usize..12,
        direct in 0.0f64..4.0,
        storage in 0.0f64..4.0,
        mask_bits in any::<u32>(),
        masked in any::<bool>(),
    ) {
        let grid = GRIDS[g];
        let graph = on_grid(&graph_for(k, seed), grid);
        let tables = SchedTables::new(&graph, grid.slot, grid.slots);
        let allowed = masked.then(|| mask_from(&graph, mask_bits));
        let exec = exec_with_progress(&graph, grid.slot, &raw);
        let mut intra = IntraTaskScheduler::new();
        intra.begin_period(&PeriodStart {
            graph: &graph,
            tables: &tables,
            slot_duration: grid.slot,
            slots_per_period: grid.slots,
            predicted_energy: Joules::ZERO,
            stored_energy: Joules::ZERO,
            allowed,
        });
        let ctx = SlotContext {
            graph: &graph,
            tables: &tables,
            exec: &exec,
            slot: slot % grid.slots,
            slot_duration: grid.slot,
            slots_per_period: grid.slots,
            harvest: Joules::new(direct / 0.95),
            direct_deliverable: Joules::new(direct),
            storage_deliverable: Joules::new(storage),
        };
        prop_assert_eq!(intra.select(&ctx), ref_intra_select(&ctx, allowed));
    }
}

/// Same-NVP deadline ties exist in the inputs, so the tie rule is
/// exercised (WAM: two 300 s tasks on NVP 0).
#[test]
fn inputs_contain_same_nvp_deadline_ties() {
    let g = benchmarks::wam();
    let tied = g.ids().any(|a| {
        g.ids().any(|b| {
            a < b && g.task(a).nvp == g.task(b).nvp && g.task(a).deadline == g.task(b).deadline
        })
    });
    assert!(tied);
}
