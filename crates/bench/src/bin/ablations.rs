//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! 1. the Eq. 22 capacitor-switch threshold `E_th` (never/default/always
//!    switch),
//! 2. the pattern-selection threshold `δ` (Section 5.2),
//! 3. the planner backend (DBN vs MPC-with-noise vs MPC-with-oracle),
//! 4. sizing (the sized `H`-capacitor bank vs one fixed capacitor),
//! 5. DVFS slow-down of the whole task set under scarce solar (the
//!    refs \[5, 6\] direction).
//!
//! All runs use a compact grid (48 periods/day) so the whole suite
//! completes in roughly a minute.

use helio_bench::{node_for_eval, par_sweep, pct, run_planner_batch, sized_node, weather_trace};
use helio_common::units::Joules;
use helio_solar::NoisyOracle;
use helio_tasks::{benchmarks, scale_graph, DvfsLaw};
use heliosched::{
    train_proposed, DpConfig, Engine, FixedPlanner, MpcPlanner, NodeConfig, OfflineConfig,
    OptimalPlanner, Pattern, PeriodPlanner, SwitchRule,
};

const PERIODS: usize = 48;
const DAYS: usize = 6;

fn mpc(noise: (f64, f64), switch: SwitchRule, delta: f64) -> MpcPlanner {
    MpcPlanner::new(
        Box::new(NoisyOracle::new(77, noise.0, noise.1)),
        PERIODS,
        DpConfig::default(),
        delta,
        switch,
    )
}

fn main() {
    let graph = benchmarks::wam();
    let sizing_trace = weather_trace(8, PERIODS, 5000);
    let node_sized = sized_node(&graph, &sizing_trace, 4).expect("sizing succeeds");
    let eval = weather_trace(DAYS, PERIODS, 5042);
    let node = node_for_eval(&node_sized, &eval);
    let engine = Engine::new(&node, &graph, &eval).expect("engine");

    // ------------------------------------------------------------------
    println!("# Ablation 1 — capacitor-switch threshold E_th (Eq. 22), MPC planner");
    // The thresholds share the node/graph/trace: run the sweep as one
    // lockstep batch and print in input order.
    let e_th_cases = [
        ("always switch (E_th = inf)", f64::INFINITY),
        ("default (E_th = 2 J)", 2.0),
        ("never switch (E_th = 0)", 0.0),
    ];
    let e_th_planners: Vec<Box<dyn PeriodPlanner>> = e_th_cases
        .iter()
        .map(|(_, e_th)| {
            Box::new(mpc(
                (0.05, 0.12),
                SwitchRule {
                    threshold: Joules::new(*e_th),
                },
                0.5,
            )) as Box<dyn PeriodPlanner>
        })
        .collect();
    let e_th_reports = run_planner_batch(&node, &graph, &eval, e_th_planners).expect("e_th sweep");
    for ((label, _), report) in e_th_cases.iter().zip(&e_th_reports) {
        println!("  {label:<28} DMR {}", pct(report.overall_dmr()));
    }

    // ------------------------------------------------------------------
    println!();
    println!("# Ablation 2 — pattern-selection threshold delta (Section 5.2)");
    let deltas = [0.1, 0.3, 0.5, 1.0, 2.0];
    let delta_planners: Vec<Box<dyn PeriodPlanner>> = deltas
        .iter()
        .map(|delta| {
            Box::new(mpc((0.05, 0.12), SwitchRule::default(), *delta)) as Box<dyn PeriodPlanner>
        })
        .collect();
    let delta_reports =
        run_planner_batch(&node, &graph, &eval, delta_planners).expect("delta sweep");
    let delta_rows: Vec<(f64, usize, usize)> = delta_reports
        .iter()
        .map(|r| {
            let (_, inter, intra) = heliosched::analysis::pattern_usage(r);
            (r.overall_dmr(), inter, intra)
        })
        .collect();
    for (delta, (dmr, inter, intra)) in deltas.iter().zip(&delta_rows) {
        println!(
            "  delta = {delta:<4} DMR {}  (inter {} / intra {} periods)",
            pct(*dmr),
            inter,
            intra
        );
    }

    // ------------------------------------------------------------------
    println!();
    println!("# Ablation 3 — planner backend");
    {
        let mut offline = OfflineConfig::default();
        offline.dbn.bp_epochs = 400;
        let training = weather_trace(8, PERIODS, 5000);
        let node_train = NodeConfig {
            grid: *training.grid(),
            ..node_sized.clone()
        };
        let mut dbn = train_proposed(&node_train, &graph, &training, &offline).expect("training");
        let r = engine.run(&mut dbn).expect("run");
        println!(
            "  DBN (paper's deployed design)   DMR {}",
            pct(r.overall_dmr())
        );
    }
    for (label, noise) in [
        ("MPC, noisy forecast", (0.05, 0.12)),
        ("MPC, perfect oracle", (0.0, 0.0)),
    ] {
        let mut planner = mpc(noise, SwitchRule::default(), 0.5);
        let r = engine.run(&mut planner).expect("run");
        println!("  {label:<30} DMR {}", pct(r.overall_dmr()));
    }
    {
        let mut optimal = OptimalPlanner::compute(&node, &graph, &eval, &DpConfig::default(), 0.5)
            .expect("optimal");
        let r = engine.run(&mut optimal).expect("run");
        println!(
            "  static optimal (upper bound)   DMR {}",
            pct(r.overall_dmr())
        );
    }

    // ------------------------------------------------------------------
    println!();
    println!("# Ablation 4 — sizing: sized 4-capacitor bank vs one fixed capacitor");
    {
        let mut optimal = OptimalPlanner::compute(&node, &graph, &eval, &DpConfig::default(), 0.5)
            .expect("optimal");
        let r = engine.run(&mut optimal).expect("run");
        println!(
            "  sized bank {:?} F  DMR {}  migr.eff {}",
            node.capacitors
                .iter()
                .map(|c| (c.value() * 10.0).round() / 10.0)
                .collect::<Vec<_>>(),
            pct(r.overall_dmr()),
            pct(r.migration_efficiency())
        );
    }
    {
        let single = NodeConfig::builder(*eval.grid())
            .capacitors(&[node.capacitors[node.capacitors.len() / 2]])
            .storage(node.storage.clone())
            .build()
            .expect("node");
        let engine1 = Engine::new(&single, &graph, &eval).expect("engine");
        let mut optimal =
            OptimalPlanner::compute(&single, &graph, &eval, &DpConfig::default(), 0.5)
                .expect("optimal");
        let r = engine1.run(&mut optimal).expect("run");
        println!(
            "  single capacitor {:.1} F        DMR {}  migr.eff {}",
            single.capacitors[0].value(),
            pct(r.overall_dmr()),
            pct(r.migration_efficiency())
        );
    }

    // ------------------------------------------------------------------
    println!();
    println!("# Ablation 5 — uniform DVFS slow-down (refs [5,6] direction), intra baseline");
    let period = eval.grid().period_duration();
    let slot = eval.grid().slot_duration();
    let freqs = [1.0, 0.9, 0.8];
    let dvfs_rows = par_sweep(&freqs, |f| {
        scale_graph(&graph, *f, DvfsLaw::default(), period, slot).map(|scaled| {
            let engine_s = Engine::new(&node, &scaled, &eval).expect("engine");
            let r = engine_s
                .run(&mut FixedPlanner::new(Pattern::Intra, 1))
                .expect("run");
            (scaled.total_energy().value(), r.overall_dmr())
        })
    });
    for (f, row) in freqs.iter().zip(dvfs_rows) {
        match row {
            Ok((energy, dmr)) => {
                println!(
                    "  f = {f:<4} energy/period {energy:5.1} J  DMR {}",
                    pct(dmr)
                );
            }
            Err(e) => println!("  f = {f:<4} infeasible: {e}"),
        }
    }
    println!();
    println!("(expected: slower-but-cheaper execution trades slack for energy; WAM's");
    println!(" chain deadlines cap the feasible slow-down quickly)");
}
