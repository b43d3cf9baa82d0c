//! Fig. 10(a) — DMR and complexity under different solar prediction
//! lengths (random case 1, one month).
//!
//! The MPC planner (`MpcPlanner`) re-plans daily over a horizon of
//! forecast solar whose error grows with distance. Paper headline: DMR
//! improves with the horizon up to an optimum (48 h in the paper),
//! degrades slowly beyond it (long predictions are inaccurate, but
//! inter-day migration is rare so the damage is bounded), while
//! complexity grows with the horizon.

use helio_bench::{fast_mode, node_for_eval, pct, run_planner_batch, sized_node, weather_trace};
use helio_solar::NoisyOracle;
use helio_tasks::benchmarks;
use heliosched::{DpConfig, MpcPlanner, PeriodPlanner, SwitchRule};

fn main() {
    let (periods, days) = if fast_mode() { (48, 5) } else { (144, 30) };
    let graph = benchmarks::random_case(1);
    let dp = DpConfig::default();
    let delta = 0.5;

    let sizing_trace = weather_trace(6, periods, 3000);
    let node_sized = sized_node(&graph, &sizing_trace, 4).expect("sizing succeeds");
    let eval = weather_trace(days, periods, 3024);
    let node = node_for_eval(&node_sized, &eval);

    let hours = if fast_mode() {
        vec![3usize, 12, 48]
    } else {
        vec![3, 6, 12, 24, 48, 96]
    };
    // Periods per hour on this grid.
    let per_hour = (periods as f64 / 24.0).round() as usize;

    println!("# Fig. 10(a) — DMR and complexity vs prediction length (random1, {days} days)");
    println!("{:>10} {:>9} {:>14}", "horizon", "DMR", "complexity");
    // One horizon per scenario, all sharing the node/graph/trace: run
    // the whole sweep as a single lockstep batch.
    let planners: Vec<Box<dyn PeriodPlanner>> = hours
        .iter()
        .map(|&h| {
            let horizon_periods = (h * per_hour).max(1);
            // Forecast error grows 12 %/day of distance on top of a 2 %
            // floor — the controllable stand-in for "long predictions
            // are inaccurate".
            let oracle = NoisyOracle::new(777, 0.02, 0.12);
            Box::new(MpcPlanner::new(
                Box::new(oracle),
                horizon_periods,
                dp,
                delta,
                SwitchRule::default(),
            )) as Box<dyn PeriodPlanner>
        })
        .collect();
    let reports = run_planner_batch(&node, &graph, &eval, planners).expect("mpc sweep");
    let mut series: Vec<(usize, f64, u64)> = Vec::new();
    for (&h, report) in hours.iter().zip(&reports) {
        println!(
            "{:>9}h {:>9} {:>14}",
            h,
            pct(report.overall_dmr()),
            report.complexity
        );
        series.push((h, report.overall_dmr(), report.complexity));
    }

    let best = series
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("nonempty series");
    println!();
    println!(
        "best horizon: {} h at DMR {} (paper: optimum at 48 h, 68.9%, degrading to 70.2% at 96 h)",
        best.0,
        pct(best.1)
    );
}
