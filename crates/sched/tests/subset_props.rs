//! Property tests of the subset-execution kernel — the workhorse every
//! planner calls thousands of times per optimisation.

use helio_common::units::{Farads, Joules, Seconds, Volts};
use helio_common::TaskSet;
use helio_nvp::Pmu;
use helio_sched::{simulate_subset, SubsetKernel};
use helio_storage::{CapacitorBank, StorageModelParams};
use helio_tasks::{benchmarks, TaskGraph};
use proptest::prelude::*;

const SLOT: Seconds = Seconds::new(60.0);

fn graph_for(idx: usize) -> TaskGraph {
    let all = benchmarks::all_six();
    all[idx % all.len()].clone()
}

/// A dependency-closed random mask over a graph.
fn close_mask(graph: &TaskGraph, mut mask: Vec<bool>) -> TaskSet {
    mask.resize(graph.len(), false);
    let topo = graph.topological_order().expect("benchmarks are acyclic");
    for &id in topo.iter().rev() {
        if mask[id.index()] {
            for p in graph.predecessors(id) {
                mask[p.index()] = true;
            }
        }
    }
    TaskSet::from_mask(&mask)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any benchmark, subset, initial charge and solar profile the
    /// kernel's ledger stays physical.
    #[test]
    fn kernel_outcomes_are_physical(
        graph_idx in 0usize..6,
        raw_mask in prop::collection::vec(any::<bool>(), 8),
        solar_mw in prop::collection::vec(0.0f64..120.0, 10),
        capacitance in 1.0f64..80.0,
        precharge in 0.0f64..60.0,
    ) {
        let graph = graph_for(graph_idx);
        let subset = close_mask(&graph, raw_mask);
        let storage = StorageModelParams::default();
        let mut bank = CapacitorBank::new(&[Farads::new(capacitance)], &storage)
            .expect("valid capacitance");
        bank.charge_active(&storage, Joules::new(precharge));
        let before = bank.total_usable();
        let solar: Vec<Joules> = solar_mw
            .iter()
            .map(|&mw| Joules::new(mw * 1e-3 * SLOT.value()))
            .collect();
        let out = simulate_subset(
            &graph,
            subset,
            &solar,
            SLOT,
            &mut bank,
            &Pmu::default(),
            &storage,
        );
        prop_assert!((0.0..=1.0).contains(&out.dmr));
        prop_assert!(out.misses <= graph.len());
        prop_assert!(out.cap_drawn.value() >= 0.0);
        prop_assert!(out.served.value() >= 0.0);
        // Storage cannot hand out more than it held plus what arrived.
        prop_assert!(
            out.cap_drawn <= before + out.cap_stored + Joules::new(1e-9),
            "drawn {} > held {} + stored {}",
            out.cap_drawn, before, out.cap_stored
        );
        // Tasks excluded from the subset are always counted as misses.
        let excluded = graph.len() - subset.len();
        prop_assert!(out.misses >= excluded);
    }

    /// Adding solar energy can only help (weak monotonicity on misses
    /// for the full subset).
    #[test]
    fn more_solar_never_hurts(
        graph_idx in 0usize..6,
        base_mw in 1.0f64..40.0,
    ) {
        let graph = graph_for(graph_idx);
        let subset = graph.all_tasks();
        let storage = StorageModelParams::default();
        let run = |scale: f64| {
            let mut bank = CapacitorBank::new(&[Farads::new(10.0)], &storage)
                .expect("valid");
            let solar = vec![Joules::new(base_mw * scale * 1e-3 * SLOT.value()); 10];
            simulate_subset(&graph, subset, &solar, SLOT, &mut bank, &Pmu::default(), &storage)
        };
        let dim = run(1.0);
        let bright = run(4.0);
        prop_assert!(
            bright.misses <= dim.misses,
            "4x solar missed more: {} vs {}",
            bright.misses,
            dim.misses
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One kernel driven through a sequence of runs — each on its own
    /// subset, solar profile and start voltage — gives every run the
    /// outcome and final voltage bits of a fresh `simulate_subset`:
    /// nothing of one run leaks into the next.
    #[test]
    fn reused_kernel_matches_fresh_runs(
        graph_idx in 0usize..6,
        capacitance in 1.0f64..80.0,
        masks in prop::collection::vec(any::<bool>(), 8 * 7),
        solar_mw in prop::collection::vec(0.0f64..120.0, 10 * 7),
        volts in prop::collection::vec(0.5f64..5.0, 1..=7),
    ) {
        let graph = graph_for(graph_idx);
        let storage = StorageModelParams::default();
        let pmu = Pmu::default();
        let fresh_bank = |volts: f64| {
            let mut bank = CapacitorBank::new(&[Farads::new(capacitance)], &storage)
                .expect("valid capacitance");
            let state = bank.active_cap().state_at(Volts::new(volts));
            bank.set_state(0, state).expect("index 0");
            bank
        };
        let mut kernel = SubsetKernel::new(&graph, SLOT);
        for (r, &volts) in volts.iter().enumerate() {
            let subset = close_mask(&graph, masks[8 * r..8 * (r + 1)].to_vec());
            let solar: Vec<Joules> = solar_mw[10 * r..10 * (r + 1)]
                .iter()
                .map(|&mw| Joules::new(mw * 1e-3 * SLOT.value()))
                .collect();
            let mut reused = fresh_bank(volts);
            let got = kernel.run(subset, &solar, &mut reused, &pmu, &storage);
            let mut fresh = fresh_bank(volts);
            let want = simulate_subset(&graph, subset, &solar, SLOT, &mut fresh, &pmu, &storage);
            prop_assert_eq!(got, want);
            prop_assert_eq!(
                reused.active_state().voltage().value().to_bits(),
                fresh.active_state().voltage().value().to_bits()
            );
        }
    }
}
