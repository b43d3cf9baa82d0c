//! Property test: interrupting a [`BatchEngine`] run at an arbitrary
//! period boundary, JSON-round-tripping the checkpoint (as the fleet's
//! on-disk resume does) and finishing on a fresh engine with an
//! arbitrary shard count is byte-identical to the uninterrupted run —
//! for arbitrary scenario mixes (planner backends × fault plans).

use std::sync::{Arc, OnceLock};

use helio_ann::{
    CompiledDbn, CompiledTier, Dbn, DbnConfig, DistillConfig, DistilledPolicy, FoldTable,
    TrainingSet,
};
use helio_common::time::TimeGrid;
use helio_common::units::{Farads, Seconds};
use helio_faults::{
    AgingFault, DbnFault, DbnFaultMode, FaultHarness, FaultPlan, PeriodWindow, RandomBlackouts,
};
use helio_solar::{DayArchetype, NoisyOracle, SolarPanel, SolarTrace, TraceBuilder};
use helio_tasks::{benchmarks, TaskGraph};
use heliosched::longterm::DpConfig;
use heliosched::online::{ProposedPlanner, SwitchRule};
use heliosched::{
    BatchCheckpoint, BatchEngine, BatchRunState, BatchScenario, BatchScratch, FixedPlanner,
    MpcPlanner, NodeConfig, Pattern, PeriodPlanner, ResilientPlanner, SimReport,
};
use proptest::prelude::*;

const DAYS: usize = 1;
const PERIODS: usize = 12;
const SLOTS: usize = 10;

fn grid() -> TimeGrid {
    TimeGrid::new(DAYS, PERIODS, SLOTS, Seconds::new(60.0)).unwrap()
}

fn node() -> NodeConfig {
    NodeConfig::builder(grid())
        .capacitors(&[Farads::new(2.0), Farads::new(15.0)])
        .build()
        .unwrap()
}

fn trace(seed: u64) -> SolarTrace {
    let archetypes = [
        DayArchetype::Clear,
        DayArchetype::BrokenClouds,
        DayArchetype::Overcast,
        DayArchetype::Storm,
    ];
    TraceBuilder::new(grid(), SolarPanel::paper_panel())
        .seed(seed)
        .days(&[archetypes[(seed % 4) as usize]])
        .build()
}

/// Runs periods `0..stop` of a fresh batch and returns the pause.
fn pause_at(mut engine: BatchEngine<'_>, stop: usize) -> BatchCheckpoint {
    match engine.run_span_with(None, Some(stop), &mut [BatchScratch::default()]) {
        Ok(BatchRunState::Paused(ckpt)) => ckpt,
        other => panic!("expected a pause at {stop}, got {other:?}"),
    }
}

/// Resumes `ckpt` on a fresh batch and runs it to the end.
fn resume(
    mut engine: BatchEngine<'_>,
    ckpt: &BatchCheckpoint,
    scratches: &mut [BatchScratch],
) -> Vec<SimReport> {
    match engine.run_span_with(Some(ckpt), None, scratches) {
        Ok(BatchRunState::Done(reports)) => reports,
        other => panic!("expected completion, got {other:?}"),
    }
}

/// One DBN trained once and shared by every proptest case.
fn shared_dbn(graph: &TaskGraph) -> Arc<Dbn> {
    static DBN: OnceLock<Arc<Dbn>> = OnceLock::new();
    DBN.get_or_init(|| {
        let in_dim = SLOTS + 2 + 1;
        let inputs: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let mut v = vec![(i % 7) as f64 * 10.0; in_dim];
                v[in_dim - 1] = 0.3;
                v
            })
            .collect();
        let targets: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let mut v = vec![(i % 2) as f64, 1.0];
                v.extend(vec![1.0; graph.len()]);
                v
            })
            .collect();
        let mut cfg = DbnConfig::small(3);
        cfg.bp_epochs = 100;
        Arc::new(Dbn::train_set(&TrainingSet::from_rows(&inputs, &targets).unwrap(), &cfg).unwrap())
    })
    .clone()
}

/// The distilled artifact, its compiled fallback tier, and the shared
/// handle carrying it, distilled once from the shared DBN and reused by
/// every proptest case.
fn shared_distilled(graph: &TaskGraph) -> (Arc<DistilledPolicy>, Arc<CompiledDbn>, Arc<FoldTable>) {
    static CELL: OnceLock<(Arc<DistilledPolicy>, Arc<CompiledDbn>, Arc<FoldTable>)> =
        OnceLock::new();
    CELL.get_or_init(|| {
        let dbn = shared_dbn(graph);
        let compiled = Arc::new(CompiledDbn::compile(&dbn, CompiledTier::F32).unwrap());
        let cfg = DistillConfig {
            depth_const: 3,
            depth_vary: 3,
            samples: 2048,
            candidates: 16,
            holdout: 512,
            ..DistillConfig::small(3)
        };
        let policy = Arc::new(DistilledPolicy::distill(&dbn, SLOTS, &[], &cfg).unwrap());
        let table = Arc::new(FoldTable::new(
            Arc::clone(&policy),
            FoldTable::DEFAULT_CAPACITY,
        ));
        (policy, compiled, table)
    })
    .clone()
}

fn distilled_planner(graph: &TaskGraph) -> ProposedPlanner {
    let (_, compiled, table) = shared_distilled(graph);
    ProposedPlanner::from_distilled_with_table(table, compiled, 0.5, SwitchRule::default())
}

fn make_planner<'a>(kind: u8, dbn: &Arc<Dbn>, graph: &TaskGraph) -> Box<dyn PeriodPlanner + 'a> {
    match kind % 6 {
        0 => Box::new(FixedPlanner::new(Pattern::Inter, 1)),
        1 => Box::new(ProposedPlanner::from_shared_dbn(
            Arc::clone(dbn),
            0.5,
            SwitchRule::default(),
        )),
        2 | 3 => Box::new(ResilientPlanner::new(Box::new(
            ProposedPlanner::from_shared_dbn(Arc::clone(dbn), 0.5, SwitchRule::default()),
        ))),
        4 => Box::new(distilled_planner(graph)),
        _ => Box::new(MpcPlanner::new(
            Box::new(NoisyOracle::perfect()),
            PERIODS,
            DpConfig {
                voltage_buckets: 4,
                keep_per_level: 1,
            },
            0.5,
            SwitchRule::default(),
        )),
    }
}

fn make_plan(kind: u8, seed: u64) -> FaultPlan {
    let total = DAYS * PERIODS;
    match kind % 4 {
        0 => FaultPlan::default(),
        1 => FaultPlan {
            seed,
            random_blackouts: Some(RandomBlackouts {
                per_period_probability: 0.25,
                min_periods: 1,
                max_periods: 2,
            }),
            ..FaultPlan::default()
        },
        2 => FaultPlan {
            dbn: vec![DbnFault {
                window: PeriodWindow::new((seed % 6) as usize, 4),
                mode: if seed.is_multiple_of(2) {
                    DbnFaultMode::Nan
                } else {
                    DbnFaultMode::Unavailable
                },
            }],
            ..FaultPlan::default()
        },
        _ => FaultPlan {
            aging: Some(AgingFault {
                capacitance_fade_per_day: 0.9,
                leakage_growth_per_day: 1.3,
            }),
            dbn: vec![DbnFault {
                window: PeriodWindow::new(0, total),
                mode: DbnFaultMode::Nan,
            }],
            ..FaultPlan::default()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn interrupted_runs_resume_byte_identically(
        raw in prop::collection::vec(any::<u64>(), 1..7),
    ) {
        // The vendored proptest has no tuple strategies; decompose one
        // u64 per scenario into (planner kind, fault-plan kind, seed),
        // and take the kill period and the resume shard count from the
        // first element's high bits so every case also picks an
        // arbitrary interruption point and partition.
        let scenarios: Vec<(u8, u8, u64)> = raw
            .iter()
            .map(|&v| ((v % 6) as u8, ((v / 6) % 4) as u8, (v / 24) % 32))
            .collect();
        let total = DAYS * PERIODS;
        let kill = ((raw[0] >> 24) % (total as u64 + 1)) as usize;
        let shards = 1 + ((raw[0] >> 40) % 4) as usize;
        let node = node();
        let graph = benchmarks::ecg();
        let dbn = shared_dbn(&graph);

        let traces: Vec<SolarTrace> =
            scenarios.iter().map(|&(_, _, seed)| trace(seed)).collect();
        let harnesses: Vec<FaultHarness> = scenarios
            .iter()
            .map(|&(_, plan_kind, seed)| {
                FaultHarness::new(&make_plan(plan_kind, seed), total, PERIODS)
            })
            .collect();
        let build = || {
            let mut engine = BatchEngine::new(&node, &graph).unwrap();
            for (i, &(planner_kind, _, _)) in scenarios.iter().enumerate() {
                engine
                    .push(
                        BatchScenario::new(&traces[i], make_planner(planner_kind, &dbn, &graph))
                            .with_harness(&harnesses[i]),
                    )
                    .unwrap();
            }
            engine
        };

        let whole = build().run().unwrap();

        // Kill at the boundary, persist the checkpoint as JSON, resume
        // on a fresh engine with an arbitrary shard count.
        let ckpt = pause_at(build(), kill);
        prop_assert_eq!(ckpt.next_period, kill);
        let json = serde_json::to_string(&ckpt).unwrap();
        let restored: BatchCheckpoint = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&restored, &ckpt);
        let mut scratches: Vec<BatchScratch> = Vec::new();
        scratches.resize_with(shards, BatchScratch::default);
        let resumed = resume(build(), &restored, &mut scratches);

        prop_assert_eq!(resumed.len(), whole.len());
        for (i, (a, b)) in resumed.iter().zip(&whole).enumerate() {
            prop_assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap(),
                "scenario {} diverged after kill at period {} ({} shards)", i, kill, shards
            );
        }
    }
}

#[test]
fn distilled_resume_is_byte_identical_at_1_3_8_shards() {
    // An all-distilled batch on one shared artifact handle — plain and
    // resilient-wrapped lanes, one lane under a NaN inference-fault
    // window — interrupted mid-run and resumed at every pinned shard
    // count: every partition of the batched leaf kernel's lanes must
    // reproduce the uninterrupted reports byte for byte.
    let node = node();
    let graph = benchmarks::ecg();
    let total = DAYS * PERIODS;
    let traces: Vec<SolarTrace> = (0..5).map(|s| trace(40 + s)).collect();
    let nan_plan = FaultPlan {
        dbn: vec![DbnFault {
            window: PeriodWindow::new(3, 4),
            mode: DbnFaultMode::Nan,
        }],
        ..FaultPlan::default()
    };
    let harness = FaultHarness::new(&nan_plan, total, PERIODS);
    let build = || {
        let mut engine = BatchEngine::new(&node, &graph).unwrap();
        for (i, t) in traces.iter().enumerate() {
            let planner: Box<dyn PeriodPlanner> = if i % 3 == 2 {
                Box::new(ResilientPlanner::new(Box::new(distilled_planner(&graph))))
            } else {
                Box::new(distilled_planner(&graph))
            };
            let mut sc = BatchScenario::new(t, planner);
            if i == 1 {
                sc = sc.with_harness(&harness);
            }
            engine.push(sc).unwrap();
        }
        engine
    };

    let whole = build().run().unwrap();
    let kill = total / 2;
    for shards in [1, 3, 8] {
        let ckpt = pause_at(build(), kill);
        let json = serde_json::to_string(&ckpt).unwrap();
        let restored: BatchCheckpoint = serde_json::from_str(&json).unwrap();
        let mut scratches: Vec<BatchScratch> = Vec::new();
        scratches.resize_with(shards, BatchScratch::default);
        let resumed = resume(build(), &restored, &mut scratches);
        assert_eq!(resumed.len(), whole.len());
        for (i, (a, b)) in resumed.iter().zip(&whole).enumerate() {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap(),
                "distilled scenario {i} diverged after resume at {shards} shards"
            );
        }
    }
}

#[test]
fn proposed_and_mpc_planners_refuse_each_others_checkpoints() {
    // Pause a batch holding a DBN, a distilled and an MPC planner
    // mid-day, so the MPC lane carries a day-plan cache, then hand
    // every planner the other lanes' checkpoints: each restore must
    // fail rather than resume from a foreign state.
    let node = node();
    let graph = benchmarks::ecg();
    let dbn = shared_dbn(&graph);
    let t = trace(3);
    let kinds = [1u8, 4, 5]; // proposed DBN, distilled, MPC
    let build = || {
        let mut engine = BatchEngine::new(&node, &graph).unwrap();
        for kind in kinds {
            engine
                .push(BatchScenario::new(&t, make_planner(kind, &dbn, &graph)))
                .unwrap();
        }
        engine
    };
    let ckpt = pause_at(build(), PERIODS / 2);
    assert!(
        matches!(&ckpt.planners[2], heliosched::PlannerCheckpoint::Mpc(m) if m.cache.is_some()),
        "the MPC lane saves an MPC checkpoint with its day plan: {:?}",
        ckpt.planners[2]
    );
    for (i, &own) in kinds.iter().enumerate() {
        for (j, foreign) in ckpt.planners.iter().enumerate() {
            let mut planner = make_planner(own, &dbn, &graph);
            let restored = planner.restore_checkpoint(foreign);
            assert_eq!(
                restored.is_ok(),
                i == j,
                "planner kind {own} restoring lane {j}'s checkpoint: {restored:?}"
            );
        }
    }
    // Through the engine, a swapped checkpoint is a typed error.
    let mut swapped = ckpt.clone();
    swapped.planners.swap(0, 2);
    let err = build().run_span_with(Some(&swapped), None, &mut [BatchScratch::default()]);
    assert!(
        matches!(err, Err(heliosched::CoreError::Config(_))),
        "{err:?}"
    );
    // The checkpoint as saved resumes.
    let resumed = resume(build(), &ckpt, &mut [BatchScratch::default()]);
    assert_eq!(resumed, build().run().unwrap());
}
