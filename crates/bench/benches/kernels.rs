//! Criterion benchmarks of the computational kernels behind every
//! table and figure. The full experiment *results* come from the
//! `src/bin/*` binaries; these benches time the building blocks so
//! regressions in the simulator/optimiser show up in CI. End-to-end
//! timings come from the `benchmark` binary.
//!
//! Group names map to paper artifacts:
//! * `fig5_regulator` — efficiency-curve evaluation
//! * `fig7_solar` — synthetic trace generation
//! * `table2_migration` — migration experiment (model + reference)
//! * `fig8_engine` — one simulated day per scheduler pattern
//! * `slot_loop` — the online hot path over a four-day run
//! * `batch_loop` — B = 16 DBN scenarios through `BatchEngine` vs a
//!   sequential `Engine::run` loop
//! * `fig8_fig9_dp` — the long-term DP over one day
//! * `fig10a_mpc` — an MPC replan at several horizons
//! * `fig10b_sizing` — per-day capacitor sizing
//! * `sec65_dbn` — DBN training and inference (the on-node coarse step)

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

use helio_bench::{paper_grid, weather_trace};
use helio_common::units::{Farads, Joules, Seconds, Volts};
use helio_nvp::Pmu;
use helio_solar::{NoisyOracle, SolarPanel, SolarPredictor, TraceBuilder, WeatherProcess};
use helio_storage::reference::measured_migration_efficiency;
use helio_storage::{
    migration_efficiency, optimal_capacitance, MigrationSpec, RegulatorCurve, StorageModelParams,
    SuperCap,
};
use helio_tasks::benchmarks;
use heliosched::{
    dmr_level_subsets, optimize_horizon, DpConfig, Engine, FixedPlanner, NodeConfig, Pattern,
};

fn fig5_regulator(c: &mut Criterion) {
    let chr = RegulatorCurve::default_charge();
    c.bench_function("fig5_regulator/efficiency_sweep", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            let mut v = 0.5;
            while v <= 5.0 {
                acc += chr.efficiency(Volts::new(black_box(v)));
                v += 0.01;
            }
            acc
        })
    });
}

fn fig7_solar(c: &mut Criterion) {
    let grid = paper_grid(4, 144);
    c.bench_function("fig7_solar/four_day_trace", |b| {
        b.iter(|| {
            TraceBuilder::new(grid, SolarPanel::paper_panel())
                .seed(black_box(7))
                .days(&helio_solar::DayArchetype::ALL)
                .build()
        })
    });
    c.bench_function("fig7_solar/month_weather_trace", |b| {
        b.iter(|| {
            TraceBuilder::new(paper_grid(30, 144), SolarPanel::paper_panel())
                .seed(black_box(7))
                .weather(WeatherProcess::temperate())
                .build()
        })
    });
}

fn table2_migration(c: &mut Criterion) {
    let params = StorageModelParams::default();
    let cap = SuperCap::new(Farads::new(10.0), &params).expect("valid");
    c.bench_function("table2_migration/model_30j_400min", |b| {
        b.iter(|| migration_efficiency(&cap, &params, black_box(MigrationSpec::large_long())))
    });
    c.bench_function("table2_migration/reference_7j_60min", |b| {
        b.iter(|| {
            measured_migration_efficiency(&cap, &params, black_box(MigrationSpec::small_short()))
        })
    });
}

fn fig8_engine(c: &mut Criterion) {
    let grid = paper_grid(1, 144);
    let trace = TraceBuilder::new(grid, SolarPanel::paper_panel())
        .seed(1)
        .days(&[helio_solar::DayArchetype::BrokenClouds])
        .build();
    let graph = benchmarks::wam();
    let node = NodeConfig::builder(grid)
        .capacitors(&[Farads::new(10.0)])
        .build()
        .expect("node");
    let engine = Engine::new(&node, &graph, &trace).expect("engine");
    let mut group = c.benchmark_group("fig8_engine");
    group.sample_size(20);
    for pattern in [Pattern::Asap, Pattern::Inter, Pattern::Intra] {
        group.bench_with_input(
            BenchmarkId::new("one_day_wam", format!("{pattern}")),
            &pattern,
            |b, &p| b.iter(|| engine.run(&mut FixedPlanner::new(p, 0)).expect("run")),
        );
    }
    group.finish();
}

fn slot_loop(c: &mut Criterion) {
    // The online hot path under Criterion's sampling: a four-day run
    // (4 × 24 × 10 = 960 slots) per scheduler pattern on the ecg graph.
    // This group guards against slot-path regressions.
    let grid = paper_grid(4, 24);
    let trace = TraceBuilder::new(grid, SolarPanel::paper_panel())
        .seed(11)
        .days(&[
            helio_solar::DayArchetype::Clear,
            helio_solar::DayArchetype::BrokenClouds,
            helio_solar::DayArchetype::Overcast,
            helio_solar::DayArchetype::Clear,
        ])
        .build();
    let graph = benchmarks::ecg();
    let node = NodeConfig::builder(grid)
        .capacitors(&[Farads::new(10.0)])
        .build()
        .expect("node");
    let engine = Engine::new(&node, &graph, &trace).expect("engine");
    let mut group = c.benchmark_group("slot_loop");
    group.sample_size(30);
    for pattern in [Pattern::Asap, Pattern::Inter, Pattern::Intra] {
        group.bench_with_input(
            BenchmarkId::new("four_day_ecg_960_slots", format!("{pattern}")),
            &pattern,
            |b, &p| b.iter(|| engine.run(&mut FixedPlanner::new(p, 0)).expect("run")),
        );
    }
    group.finish();
}

fn batch_loop(c: &mut Criterion) {
    // The batched engine against the sequential loop it replaces: 16
    // DBN-planned scenarios (distinct weather-seeded traces, shared
    // task set and bank shape) on a decision-dominated grid (two 300 s
    // slots per period). Byte-identity of the two modes is
    // CI-gated by `tests/golden_online.rs`; this group guards the
    // throughput edge.
    const B: usize = 16;
    let grid = helio_common::time::TimeGrid::new(1, 48, 2, Seconds::new(300.0)).expect("grid");
    let graph = benchmarks::ecg();
    let node = NodeConfig::builder(grid)
        .capacitors(&[Farads::new(2.0), Farads::new(15.0)])
        .build()
        .expect("node");
    let in_dim = grid.slots_per_period() + node.capacitors.len() + 1;
    let out_dim = 2 + graph.len();
    let inputs: Vec<Vec<f64>> = (0..64)
        .map(|i| {
            (0..in_dim)
                .map(|k| ((i * 7 + k * 13) % 50) as f64 / 10.0)
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f64>> = (0..64)
        .map(|i| (0..out_dim).map(|k| ((i + k) % 2) as f64).collect())
        .collect();
    let cfg = helio_ann::DbnConfig {
        hidden: vec![128, 128],
        rbm_epochs: 10,
        rbm_lr: 0.1,
        bp_epochs: 30,
        bp_lr: 0.4,
        seed: 9,
    };
    let dbn = std::sync::Arc::new(helio_ann::Dbn::train(&inputs, &targets, &cfg).expect("train"));
    let traces: Vec<_> = (0..B)
        .map(|i| {
            TraceBuilder::new(grid, SolarPanel::paper_panel())
                .seed(9000 + i as u64)
                .weather(WeatherProcess::temperate())
                .build()
        })
        .collect();
    let planner = |dbn: &std::sync::Arc<helio_ann::Dbn>| {
        heliosched::ProposedPlanner::from_shared_dbn(
            std::sync::Arc::clone(dbn),
            0.5,
            heliosched::SwitchRule::default(),
        )
    };
    let mut group = c.benchmark_group("batch_loop");
    group.sample_size(20);
    group.bench_function("sequential_16_dbn_scenarios", |b| {
        b.iter(|| {
            for trace in &traces {
                let mut p = planner(&dbn);
                let report = Engine::new(&node, &graph, trace)
                    .expect("engine")
                    .run(&mut p)
                    .expect("run");
                black_box(report);
            }
        })
    });
    group.bench_function("batched_16_dbn_scenarios", |b| {
        b.iter(|| {
            let mut engine = heliosched::BatchEngine::new(&node, &graph).expect("batch engine");
            for trace in &traces {
                engine
                    .push(heliosched::BatchScenario::new(
                        trace,
                        Box::new(planner(&dbn)),
                    ))
                    .expect("scenario");
            }
            black_box(engine.run().expect("batched run"))
        })
    });
    group.finish();
}

fn fleet_loop(c: &mut Criterion) {
    // The sharded fleet path against the single-shard batch it
    // partitions: 64 DBN-planned scenarios split over 1, 2 and 4
    // shards via `run_sharded` — the dispatch `helio-fleet`
    // drives. Byte-identity across shard counts is
    // CI-gated by `tests/golden_online.rs` and `tests/shard_props.rs`;
    // this group guards the partition-and-join overhead.
    const B: usize = 64;
    let grid = helio_common::time::TimeGrid::new(1, 48, 2, Seconds::new(300.0)).expect("grid");
    let graph = benchmarks::ecg();
    let node = NodeConfig::builder(grid)
        .capacitors(&[Farads::new(2.0), Farads::new(15.0)])
        .build()
        .expect("node");
    let in_dim = grid.slots_per_period() + node.capacitors.len() + 1;
    let out_dim = 2 + graph.len();
    let inputs: Vec<Vec<f64>> = (0..64)
        .map(|i| {
            (0..in_dim)
                .map(|k| ((i * 7 + k * 13) % 50) as f64 / 10.0)
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f64>> = (0..64)
        .map(|i| (0..out_dim).map(|k| ((i + k) % 2) as f64).collect())
        .collect();
    let cfg = helio_ann::DbnConfig {
        hidden: vec![128, 128],
        rbm_epochs: 10,
        rbm_lr: 0.1,
        bp_epochs: 30,
        bp_lr: 0.4,
        seed: 9,
    };
    let dbn = std::sync::Arc::new(helio_ann::Dbn::train(&inputs, &targets, &cfg).expect("train"));
    let traces: Vec<_> = (0..B)
        .map(|i| {
            TraceBuilder::new(grid, SolarPanel::paper_panel())
                .seed(17_000 + i as u64)
                .weather(WeatherProcess::temperate())
                .build()
        })
        .collect();
    let planner = |dbn: &std::sync::Arc<helio_ann::Dbn>| {
        heliosched::ProposedPlanner::from_shared_dbn(
            std::sync::Arc::clone(dbn),
            0.5,
            heliosched::SwitchRule::default(),
        )
    };
    let mut group = c.benchmark_group("fleet_loop");
    group.sample_size(20);
    for shards in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("sharded_64_dbn_scenarios", shards),
            &shards,
            |b, &s| {
                b.iter(|| {
                    let mut engine =
                        heliosched::BatchEngine::new(&node, &graph).expect("batch engine");
                    for trace in &traces {
                        engine
                            .push(heliosched::BatchScenario::new(
                                trace,
                                Box::new(planner(&dbn)),
                            ))
                            .expect("scenario");
                    }
                    black_box(engine.run_sharded(s).expect("sharded run"))
                })
            },
        );
    }
    group.finish();
}

fn fig8_fig9_dp(c: &mut Criterion) {
    let storage = StorageModelParams::default();
    let pmu = Pmu::default();
    let graph = benchmarks::ecg();
    let subsets = dmr_level_subsets(&graph, 2);
    let cap = SuperCap::new(Farads::new(10.0), &storage).expect("valid");
    let grid = paper_grid(1, 144);
    let trace = weather_trace(1, 144, 5);
    let solar: Vec<Vec<Joules>> = (0..grid.periods_per_day())
        .map(|j| {
            grid.slots_in(helio_common::time::PeriodRef::new(0, j))
                .map(|s| trace.slot_energy(s))
                .collect()
        })
        .collect();
    let mut group = c.benchmark_group("fig8_fig9_dp");
    group.sample_size(10);
    group.bench_function("optimize_one_day_ecg", |b| {
        b.iter(|| {
            optimize_horizon(
                &graph,
                &subsets,
                black_box(&solar),
                Seconds::new(60.0),
                &cap,
                cap.empty_state(),
                &storage,
                &pmu,
                &DpConfig::default(),
            )
        })
    });
    group.finish();
}

fn matmul_kernels(c: &mut Criterion) {
    // Batch-forward shape: 128 samples × 64 features against a 32×64
    // weight matrix (X · Wᵀ). The blocked product replaces one matvec
    // per sample in the RBM/MLP batch paths.
    let x = helio_ann::Matrix::from_rows(
        &(0..128)
            .map(|i| {
                (0..64)
                    .map(|k| ((i * 31 + k * 7) % 97) as f64 / 97.0)
                    .collect()
            })
            .collect::<Vec<Vec<f64>>>(),
    )
    .expect("x");
    let w = helio_ann::Matrix::from_rows(
        &(0..32)
            .map(|j| {
                (0..64)
                    .map(|k| ((j * 13 + k * 11) % 89) as f64 / 89.0)
                    .collect()
            })
            .collect::<Vec<Vec<f64>>>(),
    )
    .expect("w");
    let mut group = c.benchmark_group("matmul");
    group.bench_function("matvec_per_row_128x64x32", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..128 {
                let row: Vec<f64> = (0..64).map(|k| x.get(i, k)).collect();
                acc += w.matvec(black_box(&row)).expect("matvec")[0];
            }
            acc
        })
    });
    group.bench_function("blocked_bt_128x64x32", |b| {
        b.iter(|| x.matmul_bt(black_box(&w)).expect("matmul"))
    });
    group.finish();
}

fn dp_memoization(c: &mut Criterion) {
    // Serial reference vs memoized+parallel DP on identical inputs,
    // under Criterion's sampling.
    let storage = StorageModelParams::default();
    let pmu = Pmu::default();
    let graph = benchmarks::ecg();
    let subsets = dmr_level_subsets(&graph, 2);
    let cap = SuperCap::new(Farads::new(10.0), &storage).expect("valid");
    let grid = paper_grid(1, 48);
    let trace = weather_trace(1, 48, 5);
    let solar: Vec<Vec<Joules>> = (0..grid.periods_per_day())
        .map(|j| {
            grid.slots_in(helio_common::time::PeriodRef::new(0, j))
                .map(|s| trace.slot_energy(s))
                .collect()
        })
        .collect();
    let mut group = c.benchmark_group("dp_memoization");
    group.sample_size(10);
    group.bench_function("serial_reference", |b| {
        b.iter(|| {
            heliosched::optimize_horizon_serial(
                &graph,
                &subsets,
                black_box(&solar),
                Seconds::new(60.0),
                &cap,
                cap.empty_state(),
                &storage,
                &pmu,
                &DpConfig::default(),
            )
        })
    });
    group.bench_function("cached_parallel", |b| {
        b.iter(|| {
            optimize_horizon(
                &graph,
                &subsets,
                black_box(&solar),
                Seconds::new(60.0),
                &cap,
                cap.empty_state(),
                &storage,
                &pmu,
                &DpConfig::default(),
            )
        })
    });
    group.finish();
}

fn fig10a_mpc(c: &mut Criterion) {
    let storage = StorageModelParams::default();
    let pmu = Pmu::default();
    let graph = benchmarks::random_case(1);
    let subsets = dmr_level_subsets(&graph, 2);
    let cap = SuperCap::new(Farads::new(10.0), &storage).expect("valid");
    let trace = weather_trace(4, 144, 6);
    let oracle = NoisyOracle::new(7, 0.02, 0.12);
    let mut group = c.benchmark_group("fig10a_mpc");
    group.sample_size(10);
    for hours in [6usize, 24, 48] {
        let horizon = hours * 6;
        let predicted = oracle.forecast(&trace, helio_common::time::PeriodRef::new(0, 0), horizon);
        let solar: Vec<Vec<Joules>> = predicted.iter().map(|&e| vec![e / 10.0; 10]).collect();
        group.bench_with_input(
            BenchmarkId::new("replan", format!("{hours}h")),
            &solar,
            |b, solar| {
                b.iter(|| {
                    optimize_horizon(
                        &graph,
                        &subsets,
                        black_box(solar),
                        Seconds::new(60.0),
                        &cap,
                        cap.empty_state(),
                        &storage,
                        &pmu,
                        &DpConfig::default(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn fig10b_sizing(c: &mut Criterion) {
    let storage = StorageModelParams::default();
    let trace = weather_trace(1, 144, 8);
    let demand = heliosched::offline::asap_demand_profile(
        &benchmarks::random_case(1),
        10,
        Seconds::new(60.0),
    );
    let mut delta_e = Vec::new();
    for j in 0..144 {
        for (m, s) in trace
            .grid()
            .slots_in(helio_common::time::PeriodRef::new(0, j))
            .enumerate()
        {
            delta_e.push(trace.slot_energy(s) - demand[m]);
        }
    }
    let mut group = c.benchmark_group("fig10b_sizing");
    group.sample_size(10);
    group.bench_function("optimal_capacitance_one_day", |b| {
        b.iter(|| {
            optimal_capacitance(
                black_box(&delta_e),
                Seconds::new(60.0),
                &storage,
                Farads::new(0.5),
                Farads::new(120.0),
            )
            .expect("sizing")
        })
    });
    group.finish();
}

fn sec65_dbn(c: &mut Criterion) {
    // Training-shaped data: 13 inputs (10 slots + 2 caps + DMR), 8
    // outputs (cap, alpha, 6 te bits).
    let inputs: Vec<Vec<f64>> = (0..96)
        .map(|i| {
            (0..13)
                .map(|k| ((i * 7 + k * 13) % 50) as f64 / 10.0)
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f64>> = (0..96)
        .map(|i| (0..8).map(|k| ((i + k) % 2) as f64).collect())
        .collect();
    let mut group = c.benchmark_group("sec65_dbn");
    group.sample_size(10);
    group.bench_function("train_small", |b| {
        b.iter_batched(
            || (inputs.clone(), targets.clone()),
            |(x, y)| {
                let mut cfg = helio_ann::DbnConfig::small(3);
                cfg.bp_epochs = 50;
                helio_ann::Dbn::train(&x, &y, &cfg).expect("train")
            },
            BatchSize::SmallInput,
        )
    });
    let dbn = {
        let mut cfg = helio_ann::DbnConfig::small(3);
        cfg.bp_epochs = 50;
        helio_ann::Dbn::train(&inputs, &targets, &cfg).expect("train")
    };
    group.bench_function("infer_one_period", |b| {
        // The zero-alloc reference path (`predict` would allocate a
        // scratch and output Vec every iteration).
        let mut scratch = helio_ann::PredictScratch::default();
        let mut out = Vec::new();
        b.iter(|| {
            dbn.predict_into(black_box(&inputs[0]), &mut scratch, &mut out)
                .expect("predict");
            out[0]
        })
    });
    group.finish();
}

fn decision_loop(c: &mut Criterion) {
    // The per-period decision gap this repo's compiled path closes:
    // reference f64 `predict_into` vs the packed `CompiledDbn` forward
    // at both tiers, on the golden network shape (13 → 16 → 10 → 10).
    // Tracked per commit alongside slot_loop/batch_loop/fleet_loop.
    let inputs: Vec<Vec<f64>> = (0..96)
        .map(|i| {
            (0..13)
                .map(|k| ((i * 7 + k * 13) % 50) as f64 / 10.0)
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f64>> = (0..96)
        .map(|i| (0..10).map(|k| ((i + k) % 2) as f64).collect())
        .collect();
    let dbn = {
        let mut cfg = helio_ann::DbnConfig::small(3);
        cfg.bp_epochs = 50;
        helio_ann::Dbn::train(&inputs, &targets, &cfg).expect("train")
    };
    let mut group = c.benchmark_group("decision_loop");
    group.bench_function("predict_into_f64", |b| {
        let mut scratch = helio_ann::PredictScratch::default();
        let mut out = Vec::new();
        b.iter(|| {
            dbn.predict_into(black_box(&inputs[0]), &mut scratch, &mut out)
                .expect("predict");
            out[0]
        })
    });
    for (name, tier) in [
        ("compiled_f32", helio_ann::CompiledTier::F32),
        ("compiled_i8", helio_ann::CompiledTier::Int8),
    ] {
        let compiled = helio_ann::CompiledDbn::compile(&dbn, tier).expect("compiles");
        let mut scratch = compiled.make_scratch();
        let mut out = Vec::with_capacity(compiled.output_dim());
        group.bench_function(name, |b| {
            b.iter(|| {
                compiled
                    .forward_into(black_box(&inputs[0]), &mut scratch, &mut out)
                    .expect("forward");
                out[0]
            })
        });
    }
    group.finish();
}

#[allow(clippy::disallowed_methods)] // times the scalar folded path against its alternatives
fn distill_loop(c: &mut Criterion) {
    // The distilled branch-free artifact against the paths it
    // outranks, plus its own setup stages: `prewalk`/`fold` run once
    // per period (constant-prefix work), `predict_folded` is the
    // per-decision hot path.
    let inputs: Vec<Vec<f64>> = (0..96)
        .map(|i| {
            (0..13)
                .map(|k| ((i * 7 + k * 13) % 50) as f64 / 10.0)
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f64>> = (0..96)
        .map(|i| (0..10).map(|k| ((i + k) % 2) as f64).collect())
        .collect();
    let dbn = {
        let mut cfg = helio_ann::DbnConfig::small(3);
        cfg.bp_epochs = 50;
        helio_ann::Dbn::train(&inputs, &targets, &cfg).expect("train")
    };
    let policy = {
        let cfg = helio_ann::DistillConfig {
            samples: 8192,
            holdout: 1024,
            ..helio_ann::DistillConfig::small(3)
        };
        helio_ann::DistilledPolicy::distill(&dbn, 10, &[], &cfg).expect("distils")
    };
    let mut group = c.benchmark_group("distill_loop");
    group.bench_function("predict_flat", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            policy
                .predict_into(black_box(&inputs[0]), &mut out)
                .expect("predict");
            out[0]
        })
    });
    group.bench_function("prewalk_fold_once_per_period", |b| {
        let mut folded = Vec::new();
        b.iter(|| {
            let cursor = policy.prewalk(black_box(&inputs[0])).expect("prewalk");
            policy
                .fold(cursor, black_box(&inputs[0]), &mut folded)
                .expect("fold");
            cursor
        })
    });
    group.bench_function("predict_folded", |b| {
        let mut folded = Vec::new();
        let mut out = Vec::new();
        let cursor = policy.prewalk(&inputs[0]).expect("prewalk");
        policy.fold(cursor, &inputs[0], &mut folded).expect("fold");
        b.iter(|| {
            policy
                .predict_folded(cursor, &folded, black_box(&inputs[1]), &mut out)
                .expect("predict");
            out[0]
        })
    });
    group.finish();
}

fn train_loop(c: &mut Criterion) {
    // The training hot loops:
    // scratch-based CD-1 and back-propagation epochs on packed sample
    // matrices, against the per-sample-step loops they replaced (one
    // fresh scratch per step — the pre-refactor allocation pattern).
    // Bit-identity of the two paths is proptest- and golden-gated;
    // this group guards the throughput edge.
    use helio_common::rng::seeded;
    let mut rng = seeded(0x7124);
    let xs = helio_ann::Matrix::random(96, 13, 1.0, &mut rng);
    let ys = helio_ann::Matrix::random(96, 8, 0.5, &mut rng);
    let mut group = c.benchmark_group("train_loop");
    group.sample_size(20);
    group.bench_function("rbm_cd1_30_epochs_scratch", |b| {
        b.iter_batched(
            || {
                let mut rng = seeded(5);
                (helio_ann::Rbm::new(13, 16, &mut rng), rng)
            },
            |(mut rbm, mut rng)| {
                rbm.train_matrix(black_box(&xs), 30, 0.1, &mut rng)
                    .expect("trains")
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("rbm_cd1_30_epochs_per_step", |b| {
        b.iter_batched(
            || {
                let mut rng = seeded(5);
                (helio_ann::Rbm::new(13, 16, &mut rng), rng)
            },
            |(mut rbm, mut rng)| {
                let mut last = 0.0;
                for _ in 0..30 {
                    for i in 0..xs.rows() {
                        last = rbm.cd1_step(xs.row(i), 0.1, &mut rng).expect("steps");
                    }
                }
                last
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("mlp_bp_50_epochs_scratch", |b| {
        b.iter_batched(
            || helio_ann::Mlp::new(&[13, 16, 10, 8], &mut seeded(6)).expect("mlp"),
            |mut mlp| {
                mlp.train_matrix(black_box(&xs), &ys, 50, 0.4)
                    .expect("trains")
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("mlp_bp_50_epochs_per_step", |b| {
        b.iter_batched(
            || helio_ann::Mlp::new(&[13, 16, 10, 8], &mut seeded(6)).expect("mlp"),
            |mut mlp| {
                let mut last = 0.0;
                for _ in 0..50 {
                    for i in 0..xs.rows() {
                        last = mlp.sgd_step(xs.row(i), ys.row(i), 0.4).expect("steps");
                    }
                }
                last
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    fig5_regulator,
    fig7_solar,
    table2_migration,
    fig8_engine,
    slot_loop,
    batch_loop,
    fleet_loop,
    fig8_fig9_dp,
    matmul_kernels,
    dp_memoization,
    fig10a_mpc,
    fig10b_sizing,
    sec65_dbn,
    decision_loop,
    distill_loop,
    train_loop
);
criterion_main!(benches);
