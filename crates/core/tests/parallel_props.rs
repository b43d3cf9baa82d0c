//! Property tests for the parallel offline pipeline: subset closure,
//! the stage memo against a per-cell reference DP, and
//! parallel-vs-serial determinism.

use helio_common::units::{Farads, Joules, Seconds, Volts};
use helio_common::TaskSet;
use helio_nvp::Pmu;
use helio_sched::simulate_subset;
use helio_storage::{CapacitorBank, StorageModelParams, SuperCap};
use helio_tasks::{benchmarks, TaskGraph};
use heliosched::longterm::alpha_index;
use heliosched::{
    closed_subsets, dmr_level_subsets, optimize_horizon, optimize_horizon_serial, DpConfig,
    DpResult, PeriodPlan,
};
use proptest::prelude::*;

/// The nine graphs the experiments run on (six paper benchmarks plus
/// the three random cases).
fn graph_case(pick: usize) -> TaskGraph {
    let six = benchmarks::all_six();
    match pick % 9 {
        k @ 0..=5 => six[k].clone(),
        k => benchmarks::random_case(k - 5),
    }
}

/// One period from `voltage` on a fresh one-capacitor bank, through a
/// fresh `simulate_subset`: the reference cell, with no memo and no
/// reused kernel.
fn fresh_cell(
    graph: &TaskGraph,
    subset: TaskSet,
    solar: &[Joules],
    cap: &SuperCap,
    voltage: Volts,
    storage: &StorageModelParams,
) -> (usize, Joules, Volts) {
    let mut bank = CapacitorBank::new(&[cap.capacitance()], storage).expect("valid");
    bank.set_state(0, cap.state_at(voltage)).expect("index 0");
    let slot = Seconds::new(60.0);
    let out = simulate_subset(
        graph,
        subset,
        solar,
        slot,
        &mut bank,
        &Pmu::default(),
        storage,
    );
    (
        out.misses,
        out.cap_drawn,
        bank.state(0).expect("index 0").voltage(),
    )
}

/// The long-term DP written out cell by cell: backward value iteration
/// over `buckets` stored-energy buckets, every cell simulated afresh,
/// then the forward replay from `v0`.
fn reference_dp(
    graph: &TaskGraph,
    subsets: &[TaskSet],
    solar: &[Vec<Joules>],
    cap: &SuperCap,
    v0: Volts,
    buckets: usize,
    storage: &StorageModelParams,
) -> DpResult {
    let (lo, hi) = (cap.v_cutoff().value(), cap.v_full().value());
    let span = (buckets - 1) as f64;
    let voltage_of =
        |b: usize| Volts::new((lo * lo + b as f64 / span * (hi * hi - lo * lo)).sqrt());
    let bucket_of = |v: Volts| {
        let frac = ((v.value() * v.value() - lo * lo) / (hi * hi - lo * lo)).clamp(0.0, 1.0);
        (frac * span).round() as usize
    };
    let mut value: Vec<(f64, f64)> = (0..buckets)
        .map(|b| (0.0, -cap.capacitance().stored_energy(voltage_of(b)).value()))
        .collect();
    let mut choice = vec![vec![0usize; buckets]; solar.len()];
    for p in (0..solar.len()).rev() {
        let mut next_value = value.clone();
        for b in 0..buckets {
            let mut best = (f64::INFINITY, f64::INFINITY);
            for (si, &subset) in subsets.iter().enumerate() {
                let (misses, _, v1) =
                    fresh_cell(graph, subset, &solar[p], cap, voltage_of(b), storage);
                let next = value[bucket_of(v1)];
                let cand = (misses as f64 + next.0, next.1);
                if cand < best {
                    best = cand;
                    choice[p][b] = si;
                }
            }
            next_value[b] = best;
        }
        value = next_value;
    }
    let mut plans = Vec::new();
    let mut voltage = v0;
    for (p, solar_p) in solar.iter().enumerate() {
        let subset = subsets[choice[p][bucket_of(voltage)]];
        let (misses, cap_energy, v1) = fresh_cell(graph, subset, solar_p, cap, voltage, storage);
        plans.push(PeriodPlan {
            subset,
            alpha: alpha_index(graph, subset, solar_p.iter().copied().sum()),
            expected_misses: misses,
            cap_energy,
        });
        voltage = v1;
    }
    DpResult {
        total_misses: plans.iter().map(|p| p.expected_misses).sum(),
        plans,
        final_voltage: voltage,
        complexity: (solar.len() * buckets * subsets.len()) as u64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every mask `closed_subsets` emits is dependency-closed: a task
    /// is only included when all its predecessors are. The DMR-level
    /// reduction keeps a subset of those masks plus the empty and full
    /// subsets.
    #[test]
    fn closed_subsets_are_dependency_closed(pick in 0usize..9, keep in 1usize..4) {
        let graph = graph_case(pick);
        let all = closed_subsets(&graph);
        for mask in &all {
            for (from, to) in graph.edges() {
                prop_assert!(
                    !mask.contains(to.index()) || mask.contains(from.index()),
                    "{}: task {} included without predecessor {}",
                    graph.name(),
                    to.index(),
                    from.index()
                );
            }
        }
        let full = graph.all_tasks();
        prop_assert!(all.contains(&TaskSet::EMPTY));
        prop_assert!(all.contains(&full));

        let levels = dmr_level_subsets(&graph, keep);
        prop_assert!(levels.iter().all(|m| all.contains(m)));
        prop_assert!(levels.contains(&TaskSet::EMPTY));
        prop_assert!(levels.contains(&full));
    }

    /// `par_map` is a drop-in for serial `map`: same values, same order.
    #[test]
    fn parallel_map_matches_serial(xs in prop::collection::vec(-1e6f64..1e6, 0..40)) {
        let f = |x: &f64| (x * 1.5 - 3.0, x.to_bits());
        let serial: Vec<_> = xs.iter().map(f).collect();
        let parallel = helio_par::par_map(&xs, f);
        prop_assert_eq!(parallel, serial);
    }
}

proptest! {
    // The DP property is heavier: fewer cases, smaller horizons.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The memoised + parallel DP reproduces the serial reference
    /// bitwise on arbitrary solar inputs.
    #[test]
    fn parallel_dp_matches_serial_reference(
        pick in 0usize..9,
        flat in prop::collection::vec(0.0f64..0.4, 12),
        capacitance in 5.0f64..40.0,
    ) {
        let graph = graph_case(pick);
        let subsets = dmr_level_subsets(&graph, 2);
        let solar: Vec<Vec<Joules>> = flat
            .chunks(3)
            .map(|c| c.iter().map(|&e| Joules::new(e)).collect())
            .collect();
        let storage = StorageModelParams::default();
        let pmu = Pmu::default();
        let cap = SuperCap::new(Farads::new(capacitance), &storage).expect("valid");
        let dp = DpConfig::default();

        let serial = optimize_horizon_serial(
            &graph, &subsets, &solar, Seconds::new(60.0), &cap, cap.empty_state(),
            &storage, &pmu, &dp,
        );
        let fast = optimize_horizon(
            &graph, &subsets, &solar, Seconds::new(60.0), &cap, cap.empty_state(),
            &storage, &pmu, &dp,
        );
        prop_assert_eq!(serial, fast);
    }
}

proptest! {
    // Every reference cell is a fresh simulation: few, short cases.
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The memoised, parallel DP equals the per-cell reference on
    /// horizons that repeat profiles — dark periods, duplicated sunny
    /// ones, and near-duplicates that differ in a single slot (so a
    /// memo key that loses any slot's bits serves the wrong stage).
    #[test]
    fn stage_memo_matches_per_cell_reference(
        pick in 0usize..9,
        buckets in 2usize..=16,
        sunny in prop::collection::vec(0.0f64..3.0, 10),
        odd_slot in 0usize..10,
        sequence in prop::collection::vec(0usize..6, 1..=8),
        capacitance in 2.0f64..40.0,
        fill in 0.0f64..1.0,
    ) {
        let graph = graph_case(pick);
        let subsets = dmr_level_subsets(&graph, 2);
        let sunny: Vec<Joules> = sunny.into_iter().map(Joules::new).collect();
        let dark = vec![Joules::ZERO; 10];
        let with_slot = |base: &[Joules], k: usize, e: f64| {
            let mut p = base.to_vec();
            p[k] = Joules::new(e);
            p
        };
        let palette = [
            dark.clone(),
            sunny.clone(),
            with_slot(&dark, 0, 2.5),
            with_slot(&dark, 9, 2.5),
            with_slot(&sunny, odd_slot, 0.0),
            with_slot(&dark, odd_slot, 2.5),
        ];
        let solar: Vec<Vec<Joules>> = sequence.iter().map(|&i| palette[i].clone()).collect();
        let storage = StorageModelParams::default();
        let cap = SuperCap::new(Farads::new(capacitance), &storage).expect("valid");
        let v0 = Volts::new(
            cap.v_cutoff().value() + fill * (cap.v_full().value() - cap.v_cutoff().value()),
        );
        let dp = DpConfig { voltage_buckets: buckets, ..DpConfig::default() };

        let memoised = optimize_horizon(
            &graph, &subsets, &solar, Seconds::new(60.0), &cap, cap.state_at(v0),
            &storage, &Pmu::default(), &dp,
        );
        let reference = reference_dp(&graph, &subsets, &solar, &cap, v0, buckets, &storage);
        prop_assert_eq!(
            memoised.final_voltage.value().to_bits(),
            reference.final_voltage.value().to_bits()
        );
        prop_assert_eq!(memoised, reference);
    }
}
