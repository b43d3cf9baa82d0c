//! End-to-end integration of the whole stack: solar generation →
//! sizing → optimal DP → DBN training → online scheduling → metrics.

use helio_nvp::Pmu;
use helio_solar::WeatherProcess;
use heliosched::prelude::*;
use heliosched::{DpConfig, NodeConfig, OfflineConfig};

fn grid(days: usize) -> TimeGrid {
    TimeGrid::new(days, 24, 10, Seconds::new(60.0)).expect("valid grid")
}

fn weather(days: usize, seed: u64) -> helio_solar::SolarTrace {
    TraceBuilder::new(grid(days), SolarPanel::paper_panel())
        .seed(seed)
        .weather(WeatherProcess::temperate())
        .build()
}

#[test]
fn full_pipeline_produces_ordered_schedulers() {
    let graph = benchmarks::ecg();
    let training = weather(3, 91);
    let storage = StorageModelParams::default();
    let sizes =
        size_capacitors(&graph, &training, 3, &storage, &Pmu::default()).expect("sizing succeeds");
    assert_eq!(sizes.len(), 3);

    let node_train = NodeConfig::builder(grid(3))
        .capacitors(&sizes)
        .storage(storage)
        .build()
        .expect("node");
    let mut cfg = OfflineConfig::default();
    cfg.dbn.bp_epochs = 120;
    let mut proposed =
        train_proposed(&node_train, &graph, &training, &cfg).expect("training succeeds");

    let eval = weather(4, 92);
    let node = NodeConfig {
        grid: grid(4),
        ..node_train
    };
    let engine = Engine::new(&node, &graph, &eval).expect("engine");

    let mut optimal =
        OptimalPlanner::compute(&node, &graph, &eval, &DpConfig::default(), 0.5).expect("optimal");
    let opt = engine.run(&mut optimal).expect("optimal run");
    let prop = engine.run(&mut proposed).expect("proposed run");
    let inter = engine
        .run(&mut FixedPlanner::new(Pattern::Inter, 1))
        .expect("inter run");
    let asap = engine
        .run(&mut FixedPlanner::new(Pattern::Asap, 1))
        .expect("asap run");

    // The expected quality ordering. The "optimal" planner quantises
    // the capacitor state into buckets and replays precomputed plans,
    // so it is near-optimal rather than an exact lower bound — allow a
    // few points of slack in both comparisons.
    assert!(
        opt.overall_dmr() <= prop.overall_dmr() + 0.05,
        "optimal {} must approximately bound proposed {}",
        opt.overall_dmr(),
        prop.overall_dmr()
    );
    assert!(
        prop.overall_dmr() <= inter.overall_dmr() + 0.05,
        "proposed {} should not lose badly to inter {}",
        prop.overall_dmr(),
        inter.overall_dmr()
    );
    assert!(
        inter.overall_dmr() <= asap.overall_dmr() + 0.02,
        "energy-aware inter {} should not lose to asap {}",
        inter.overall_dmr(),
        asap.overall_dmr()
    );
}

#[test]
fn mpc_with_perfect_prediction_approaches_optimal() {
    let graph = benchmarks::shm();
    let trace = weather(3, 93);
    let node = NodeConfig::builder(grid(3))
        .capacitors(&[Farads::new(3.0), Farads::new(20.0)])
        .build()
        .expect("node");
    let engine = Engine::new(&node, &graph, &trace).expect("engine");

    let mut optimal =
        OptimalPlanner::compute(&node, &graph, &trace, &DpConfig::default(), 0.5).expect("optimal");
    let opt = engine.run(&mut optimal).expect("optimal run");

    let mut mpc = MpcPlanner::new(
        Box::new(NoisyOracle::perfect()),
        24,
        DpConfig::default(),
        0.5,
        heliosched::SwitchRule::default(),
    );
    let mpc_report = engine.run(&mut mpc).expect("mpc run");

    assert!(
        (mpc_report.overall_dmr() - opt.overall_dmr()).abs() < 0.08,
        "perfect-prediction MPC {} should track optimal {}",
        mpc_report.overall_dmr(),
        opt.overall_dmr()
    );
}

#[test]
fn optimal_dominates_inter_with_migration() {
    // The long-term planner beats the greedy inter-task baseline on
    // DMR while moving *more* energy through storage (migration is its
    // mechanism, not a side effect).
    let graph = benchmarks::wam();
    let trace = weather(4, 94);
    let node = NodeConfig::builder(grid(4))
        .capacitors(&[Farads::new(2.0), Farads::new(10.0), Farads::new(47.0)])
        .build()
        .expect("node");
    let engine = Engine::new(&node, &graph, &trace).expect("engine");

    let mut optimal =
        OptimalPlanner::compute(&node, &graph, &trace, &DpConfig::default(), 0.5).expect("optimal");
    let opt = engine.run(&mut optimal).expect("optimal run");
    let inter = engine
        .run(&mut FixedPlanner::new(Pattern::Inter, 1))
        .expect("inter");

    assert!(opt.overall_dmr() <= inter.overall_dmr() + 1e-9);
    let stored =
        |r: &heliosched::SimReport| -> f64 { r.periods.iter().map(|p| p.stored.value()).sum() };
    assert!(
        stored(&opt) > 0.0,
        "the optimal plan must migrate energy at all"
    );
}

#[test]
fn reports_serialise_to_json() {
    let graph = benchmarks::ecg();
    let trace = weather(1, 95);
    let node = NodeConfig::builder(grid(1))
        .capacitors(&[Farads::new(10.0)])
        .build()
        .expect("node");
    let report = Engine::new(&node, &graph, &trace)
        .expect("engine")
        .run(&mut FixedPlanner::new(Pattern::Intra, 0))
        .expect("run");
    let json = serde_json::to_string(&report).expect("serialise");
    let back: heliosched::SimReport = serde_json::from_str(&json).expect("deserialise");
    // JSON prints decimal floats, so the round trip is close rather
    // than bit-exact; check structure and aggregates.
    assert_eq!(report.planner, back.planner);
    assert_eq!(report.periods.len(), back.periods.len());
    assert!((report.overall_dmr() - back.overall_dmr()).abs() < 1e-12);
    assert!((report.total_harvested().value() - back.total_harvested().value()).abs() < 1e-6);
}
