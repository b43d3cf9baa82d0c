//! Reproducibility: every stochastic component is seeded, so identical
//! configurations must give bit-identical results across runs.

use helio_solar::WeatherProcess;
use heliosched::prelude::*;
use heliosched::{DpConfig, NodeConfig, OfflineConfig};

fn grid(days: usize) -> TimeGrid {
    TimeGrid::new(days, 24, 10, Seconds::new(60.0)).expect("valid grid")
}

fn trace(days: usize, seed: u64) -> helio_solar::SolarTrace {
    TraceBuilder::new(grid(days), SolarPanel::paper_panel())
        .seed(seed)
        .weather(WeatherProcess::temperate())
        .build()
}

#[test]
fn traces_are_reproducible() {
    assert_eq!(trace(5, 1), trace(5, 1));
    assert_ne!(trace(5, 1), trace(5, 2));
}

#[test]
fn baseline_runs_are_reproducible() {
    let t = trace(2, 3);
    let node = NodeConfig::builder(grid(2))
        .capacitors(&[Farads::new(10.0)])
        .build()
        .expect("node");
    let graph = benchmarks::wam();
    let engine = Engine::new(&node, &graph, &t).expect("engine");
    let a = engine
        .run(&mut FixedPlanner::new(Pattern::Inter, 0))
        .expect("run");
    let b = engine
        .run(&mut FixedPlanner::new(Pattern::Inter, 0))
        .expect("run");
    assert_eq!(a, b);
}

#[test]
fn optimal_plans_are_reproducible() {
    let t = trace(2, 4);
    let node = NodeConfig::builder(grid(2))
        .capacitors(&[Farads::new(2.0), Farads::new(22.0)])
        .build()
        .expect("node");
    let graph = benchmarks::ecg();
    let engine = Engine::new(&node, &graph, &t).expect("engine");
    let run = || {
        let mut p =
            OptimalPlanner::compute(&node, &graph, &t, &DpConfig::default(), 0.5).expect("optimal");
        engine.run(&mut p).expect("run")
    };
    assert_eq!(run(), run());
}

#[test]
fn trained_planners_are_reproducible() {
    let training = trace(2, 5);
    let node = NodeConfig::builder(grid(2))
        .capacitors(&[Farads::new(2.0), Farads::new(22.0)])
        .build()
        .expect("node");
    let graph = benchmarks::shm();
    let mut cfg = OfflineConfig::default();
    cfg.dbn.bp_epochs = 60;
    let engine = Engine::new(&node, &graph, &training).expect("engine");
    let run = || {
        let mut p = train_proposed(&node, &graph, &training, &cfg).expect("train");
        engine.run(&mut p).expect("run")
    };
    assert_eq!(run(), run());
}

#[test]
fn mpc_with_noisy_oracle_is_reproducible() {
    let t = trace(2, 6);
    let node = NodeConfig::builder(grid(2))
        .capacitors(&[Farads::new(10.0)])
        .build()
        .expect("node");
    let graph = benchmarks::random_case(2);
    let engine = Engine::new(&node, &graph, &t).expect("engine");
    let run = || {
        let mut p = MpcPlanner::new(
            Box::new(NoisyOracle::new(9, 0.05, 0.1)),
            24,
            DpConfig::default(),
            0.5,
            heliosched::SwitchRule::default(),
        );
        engine.run(&mut p).expect("run")
    };
    assert_eq!(run(), run());
}
