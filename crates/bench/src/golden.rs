//! The online golden suite: a fixed set of `Engine::run` configurations
//! whose `SimReport`s are committed to `results/golden_online/` and
//! re-checked byte for byte by `tests/golden_online.rs` (and CI).
//!
//! The suite pins the engine's observable behaviour across refactors:
//! all six benchmarks × the three fixed patterns, plus the
//! planner-driven paths (optimal LUT, MPC, DBN) on ECG — every case on
//! the four archetype days under fixed seeds. The vendored serde
//! serialises `f64` via shortest-round-trip formatting, so identical
//! reports produce identical bytes.

use std::sync::Arc;

use helio_ann::{
    CompiledDbn, CompiledTier, Dbn, DbnConfig, DistillConfig, DistilledPolicy, FoldTable,
};
use helio_common::time::TimeGrid;
use helio_common::units::{Farads, Seconds};
use helio_solar::{DayArchetype, NoisyOracle, SolarPanel, SolarTrace, TraceBuilder};
use helio_tasks::benchmarks;
use heliosched::{
    BatchCheckpoint, BatchEngine, BatchRunState, BatchScenario, BatchScratch, DpConfig, Engine,
    FixedPlanner, MpcPlanner, NodeConfig, OptimalPlanner, Pattern, ProposedPlanner, SimReport,
    SwitchRule,
};

/// Seed of the golden trace (matches the online planner unit tests).
pub const GOLDEN_SEED: u64 = 11;

/// Pattern-selection threshold `δ` used by the planner-driven cases.
pub const GOLDEN_DELTA: f64 = 0.5;

/// The golden grid: four days of 24 × (10 × 60 s) periods.
pub fn golden_grid() -> TimeGrid {
    TimeGrid::new(4, 24, 10, Seconds::new(60.0)).expect("golden grid dimensions are valid")
}

/// The four archetype days (clear → storm) under the golden seed.
pub fn golden_trace() -> SolarTrace {
    TraceBuilder::new(golden_grid(), SolarPanel::paper_panel())
        .seed(GOLDEN_SEED)
        .days(&DayArchetype::ALL)
        .build()
}

/// A two-capacitor node (small + large) so capacitor switching is
/// exercised by the planner-driven cases.
pub fn golden_node() -> NodeConfig {
    NodeConfig::builder(golden_grid())
        .capacitors(&[Farads::new(2.0), Farads::new(15.0)])
        .build()
        .expect("golden node config is valid")
}

/// DP resolution of the golden optimal/MPC cases (small enough to keep
/// the golden test quick in debug builds).
pub fn golden_dp() -> DpConfig {
    DpConfig {
        voltage_buckets: 6,
        keep_per_level: 1,
    }
}

/// Trains the golden DBN from the optimal planner's recorded samples.
pub fn golden_dbn(optimal: &OptimalPlanner) -> Dbn {
    let mut cfg = DbnConfig::small(GOLDEN_SEED);
    cfg.bp_epochs = 150; // golden suite runs in debug CI; keep it quick
    Dbn::train_set(optimal.samples(), &cfg).expect("golden DBN trains")
}

/// Runs the whole golden suite and returns `(case name, report)` pairs
/// in a fixed order. Case names double as file stems under
/// `results/golden_online/`.
pub fn golden_reports() -> Vec<(String, SimReport)> {
    golden_reports_with(None)
}

/// [`golden_reports`] through [`Engine::run_with_faults`]: with `None`
/// or an empty harness the reports are byte-identical to the clean
/// suite (the robustness gate CI relies on).
pub fn golden_reports_with(
    harness: Option<&helio_faults::FaultHarness>,
) -> Vec<(String, SimReport)> {
    let node = golden_node();
    let trace = golden_trace();
    let mut out = Vec::new();

    // Six benchmarks × three fixed patterns. ASAP gets the small
    // capacitor (it hoards no energy), the planned patterns the large.
    for graph in benchmarks::all_six() {
        let engine = Engine::new(&node, &graph, &trace).expect("golden engine");
        for (pattern, cap) in [
            (Pattern::Asap, 0usize),
            (Pattern::Inter, 1),
            (Pattern::Intra, 1),
        ] {
            let report = engine
                .run_with_faults(&mut FixedPlanner::new(pattern, cap), harness)
                .expect("golden fixed run");
            out.push((format!("{}_{}", graph.name(), pattern), report));
        }
    }

    // Planner-driven paths on ECG: optimal LUT replay, MPC on a perfect
    // oracle, and the DBN trained from the optimal samples.
    let graph = benchmarks::ecg();
    let engine = Engine::new(&node, &graph, &trace).expect("golden engine");
    let dp = golden_dp();
    let mut optimal =
        OptimalPlanner::compute(&node, &graph, &trace, &dp, GOLDEN_DELTA).expect("golden optimal");
    let dbn = golden_dbn(&optimal);
    out.push((
        "ecg_optimal".into(),
        engine
            .run_with_faults(&mut optimal, harness)
            .expect("golden optimal run"),
    ));
    let mut mpc = MpcPlanner::new(
        Box::new(NoisyOracle::perfect()),
        24,
        dp,
        GOLDEN_DELTA,
        SwitchRule::default(),
    );
    out.push((
        "ecg_mpc".into(),
        engine
            .run_with_faults(&mut mpc, harness)
            .expect("golden mpc run"),
    ));
    let mut dbn_planner = ProposedPlanner::from_dbn(dbn, GOLDEN_DELTA, SwitchRule::default());
    out.push((
        "ecg_dbn".into(),
        engine
            .run_with_faults(&mut dbn_planner, harness)
            .expect("golden dbn run"),
    ));
    out
}

/// Per-scenario DMR epsilon of the compiled-planner regression gate:
/// every case replayed through [`golden_compiled_reports`] must land
/// within this of the f64 reference suite's DMR. The compiled path is
/// tolerance-gated, not bit-identical — see `helio_ann::compiled` for
/// the contract; `tests/golden_compiled.rs` enforces this bound on all
/// 21 scenarios for both tiers.
pub const GOLDEN_COMPILED_DMR_EPS: f64 = 0.01;

/// The 21 golden cases with the DBN case running the compiled planner
/// at `tier` instead of the f64 reference: 20 cases are untouched by
/// compilation (fixed patterns, optimal, MPC) and anchor the harness;
/// `ecg_dbn` becomes `compiled-dbn`/`compiled-dbn-i8`. The DMR-bound
/// harness compares these against [`golden_reports`] per scenario.
pub fn golden_compiled_reports(tier: CompiledTier) -> Vec<(String, SimReport)> {
    let node = golden_node();
    let trace = golden_trace();
    let mut out = Vec::new();

    for graph in benchmarks::all_six() {
        let engine = Engine::new(&node, &graph, &trace).expect("golden engine");
        for (pattern, cap) in [
            (Pattern::Asap, 0usize),
            (Pattern::Inter, 1),
            (Pattern::Intra, 1),
        ] {
            let report = engine
                .run(&mut FixedPlanner::new(pattern, cap))
                .expect("golden fixed run");
            out.push((format!("{}_{}", graph.name(), pattern), report));
        }
    }

    let graph = benchmarks::ecg();
    let engine = Engine::new(&node, &graph, &trace).expect("golden engine");
    let dp = golden_dp();
    let mut optimal =
        OptimalPlanner::compute(&node, &graph, &trace, &dp, GOLDEN_DELTA).expect("golden optimal");
    let dbn = golden_dbn(&optimal);
    out.push((
        "ecg_optimal".into(),
        engine.run(&mut optimal).expect("golden optimal run"),
    ));
    let mut mpc = MpcPlanner::new(
        Box::new(NoisyOracle::perfect()),
        24,
        dp,
        GOLDEN_DELTA,
        SwitchRule::default(),
    );
    out.push((
        "ecg_mpc".into(),
        engine.run(&mut mpc).expect("golden mpc run"),
    ));
    let compiled = CompiledDbn::compile(&dbn, tier).expect("golden DBN compiles");
    let mut compiled_planner = ProposedPlanner::from_compiled_dbn(
        std::sync::Arc::new(compiled),
        GOLDEN_DELTA,
        SwitchRule::default(),
    );
    out.push((
        "ecg_dbn".into(),
        engine
            .run(&mut compiled_planner)
            .expect("golden compiled run"),
    ));
    out
}

/// Per-scenario DMR epsilon of the distilled-artifact regression gate:
/// every case replayed through [`golden_distilled_reports`] must land
/// within this of the f64 reference suite's DMR. The artifact is
/// agreement-gated against its teacher, not bit-identical —
/// `tests/golden_distilled.rs` enforces this bound on all 21
/// scenarios.
pub const GOLDEN_DISTILLED_DMR_EPS: f64 = 0.01;

/// Distillation hyper-parameters of the golden artifact.
pub fn golden_distill_config() -> DistillConfig {
    let mut cfg = DistillConfig::small(GOLDEN_SEED);
    // The recorded trajectory is ~100 vectors against 32k box
    // samples: weight it so the states the scheduler actually visits
    // carry comparable mass in the split selection and leaf fits.
    cfg.extra_weight = 128;
    // 3+3 rather than the default 5+5: the golden decision surface is
    // captured just as well (a depth sweep holds ~0.97 holdout
    // agreement all the way down to 3+3 and only collapses below
    // that), and the 64-leaf model table is ~33 KB — cache-resident on
    // the hot path — while the walk drops to six dependent-load
    // levels.
    cfg.depth_const = 3;
    cfg.depth_vary = 3;
    cfg
}

/// Delegates every decision to a wrapped planner while recording the
/// exact raw feature vector the DBN consumes each period — gathered
/// by the online planner's own [`ProposedPlanner::gather_dbn_input`],
/// so the recorded trajectory distribution is the one the distillation
/// pass must cover by construction, not by transcription.
struct RecordingPlanner<'a> {
    inner: ProposedPlanner,
    samples: &'a mut Vec<Vec<f64>>,
}

impl heliosched::PeriodPlanner for RecordingPlanner<'_> {
    fn name(&self) -> &'static str {
        "recording-dbn"
    }

    fn plan(&mut self, obs: &heliosched::PlannerObservation<'_>) -> heliosched::PlanDecision {
        let mut input = Vec::new();
        ProposedPlanner::gather_dbn_input(obs, &mut input);
        self.samples.push(input);
        self.inner.plan(obs)
    }
}

/// Trajectory samples for the golden distillation pass: replays the
/// golden `ecg_dbn` scenario with the f64 reference planner and
/// records the feature vector it feeds the network every period.
pub fn golden_distill_samples(dbn: &Dbn) -> Vec<Vec<f64>> {
    let node = golden_node();
    let trace = golden_trace();
    let graph = benchmarks::ecg();
    let engine = Engine::new(&node, &graph, &trace).expect("golden engine");
    let mut samples = Vec::new();
    let mut recorder = RecordingPlanner {
        inner: ProposedPlanner::from_dbn(dbn.clone(), GOLDEN_DELTA, SwitchRule::default()),
        samples: &mut samples,
    };
    engine.run(&mut recorder).expect("golden recording run");
    samples
}

/// Distils the golden DBN into the branch-free decision artifact: the
/// run-constant feature prefix (the previous period's slot powers) is
/// the constant tree section, and the golden trajectory's recorded
/// feature vectors are weighted into the fit.
pub fn golden_distilled_policy(dbn: &Dbn) -> DistilledPolicy {
    let spp = golden_grid().slots_per_period().min(dbn.input_dim());
    let samples = golden_distill_samples(dbn);
    DistilledPolicy::distill(dbn, spp, &samples, &golden_distill_config())
        .expect("golden DBN distils")
}

/// The 21 golden cases with the DBN case running the distilled
/// artifact (compiled `f32` as its fallback tier): 20 cases are
/// untouched by distillation and anchor the harness; `ecg_dbn` becomes
/// `distilled`. The DMR-bound harness compares these against
/// [`golden_reports`] per scenario.
pub fn golden_distilled_reports() -> Vec<(String, SimReport)> {
    let node = golden_node();
    let trace = golden_trace();
    let mut out = Vec::new();

    for graph in benchmarks::all_six() {
        let engine = Engine::new(&node, &graph, &trace).expect("golden engine");
        for (pattern, cap) in [
            (Pattern::Asap, 0usize),
            (Pattern::Inter, 1),
            (Pattern::Intra, 1),
        ] {
            let report = engine
                .run(&mut FixedPlanner::new(pattern, cap))
                .expect("golden fixed run");
            out.push((format!("{}_{}", graph.name(), pattern), report));
        }
    }

    let graph = benchmarks::ecg();
    let engine = Engine::new(&node, &graph, &trace).expect("golden engine");
    let dp = golden_dp();
    let mut optimal =
        OptimalPlanner::compute(&node, &graph, &trace, &dp, GOLDEN_DELTA).expect("golden optimal");
    let dbn = golden_dbn(&optimal);
    out.push((
        "ecg_optimal".into(),
        engine.run(&mut optimal).expect("golden optimal run"),
    ));
    let mut mpc = MpcPlanner::new(
        Box::new(NoisyOracle::perfect()),
        24,
        dp,
        GOLDEN_DELTA,
        SwitchRule::default(),
    );
    out.push((
        "ecg_mpc".into(),
        engine.run(&mut mpc).expect("golden mpc run"),
    ));
    let policy = golden_distilled_policy(&dbn);
    let compiled = CompiledDbn::compile(&dbn, CompiledTier::F32).expect("golden DBN compiles");
    let mut distilled_planner = ProposedPlanner::from_distilled(
        std::sync::Arc::new(policy),
        std::sync::Arc::new(compiled),
        GOLDEN_DELTA,
        SwitchRule::default(),
    );
    out.push((
        "ecg_dbn".into(),
        engine
            .run(&mut distilled_planner)
            .expect("golden distilled run"),
    ));
    out
}

/// The same 21 cases as [`golden_reports`], in the same order, built
/// through [`BatchEngine`] instead of per-scenario [`Engine`] runs:
/// one lockstep batch per benchmark for the three fixed patterns, one
/// batch for the three planner-driven ECG cases. The batched engine's
/// byte-identity contract means these reports must render to exactly
/// the committed golden files (CI-gated by `tests/golden_online.rs`).
pub fn golden_batch_reports() -> Vec<(String, SimReport)> {
    golden_batch_reports_via(&|engine| engine.run().expect("golden batch run"))
}

/// The same 21 cases as [`golden_batch_reports`] through
/// [`BatchEngine::run_sharded_with`] on `shards` workers: the sharded
/// engine's byte-identity contract means these reports must also
/// render to exactly the committed golden files, for every shard
/// count (CI-gated by `tests/golden_online.rs`).
pub fn golden_sharded_reports(shards: usize) -> Vec<(String, SimReport)> {
    golden_batch_reports_via(&move |engine| {
        engine
            .run_sharded_with(&mut scratches(shards))
            .expect("golden sharded run")
    })
}

/// `shards` fresh worker scratches.
fn scratches(shards: usize) -> Vec<BatchScratch> {
    (0..shards).map(|_| BatchScratch::default()).collect()
}

/// Runs `engine` to flat period `kill`, JSON-round-trips the
/// checkpoint and resumes it to the end on `shards` scratches.
fn kill_and_resume(mut engine: BatchEngine<'_>, kill: usize, shards: usize) -> Vec<SimReport> {
    let paused = engine
        .run_span_with(None, Some(kill), &mut scratches(1))
        .expect("golden checkpoint");
    let BatchRunState::Paused(ckpt) = paused else {
        panic!("golden run did not pause at {kill}");
    };
    let json = serde_json::to_string(&ckpt).expect("checkpoint serialises");
    let ckpt: BatchCheckpoint = serde_json::from_str(&json).expect("checkpoint round-trips");
    match engine
        .run_span_with(Some(&ckpt), None, &mut scratches(shards))
        .expect("golden checkpoint resume")
    {
        BatchRunState::Done(reports) => reports,
        BatchRunState::Paused(_) => panic!("golden resume paused without a stop period"),
    }
}

/// The same 21 cases as [`golden_batch_reports`], each batch killed at
/// flat period `kill`, its checkpoint JSON-round-tripped (exactly what
/// the fleet service's on-disk resume does) and finished with `shards`
/// scratches. The checkpoint contract — interrupt anywhere, resume
/// byte-identically — means these reports must render to exactly the
/// committed golden files (CI-gated by `tests/golden_online.rs`).
pub fn golden_checkpoint_reports(kill: usize, shards: usize) -> Vec<(String, SimReport)> {
    golden_batch_reports_via(&move |engine| kill_and_resume(engine, kill, shards))
}

/// The 18 fixed-pattern cases (six benchmarks × three patterns) built
/// as one lockstep batch per benchmark, appended to `out` in golden
/// order.
fn golden_fixed_batches_into(
    node: &NodeConfig,
    trace: &SolarTrace,
    run: &dyn for<'a> Fn(BatchEngine<'a>) -> Vec<SimReport>,
    out: &mut Vec<(String, SimReport)>,
) {
    let patterns = [
        (Pattern::Asap, 0usize),
        (Pattern::Inter, 1),
        (Pattern::Intra, 1),
    ];
    for graph in benchmarks::all_six() {
        let mut engine = BatchEngine::new(node, &graph).expect("golden batch engine");
        for (pattern, cap) in patterns {
            engine
                .push(BatchScenario::new(
                    trace,
                    Box::new(FixedPlanner::new(pattern, cap)),
                ))
                .expect("golden batch scenario");
        }
        let reports = run(engine);
        for ((pattern, _), report) in patterns.iter().zip(reports) {
            out.push((format!("{}_{}", graph.name(), pattern), report));
        }
    }
}

fn golden_batch_reports_via(
    run: &dyn for<'a> Fn(BatchEngine<'a>) -> Vec<SimReport>,
) -> Vec<(String, SimReport)> {
    let node = golden_node();
    let trace = golden_trace();
    let mut out = Vec::new();
    golden_fixed_batches_into(&node, &trace, run, &mut out);

    let graph = benchmarks::ecg();
    let dp = golden_dp();
    let optimal =
        OptimalPlanner::compute(&node, &graph, &trace, &dp, GOLDEN_DELTA).expect("golden optimal");
    let dbn = golden_dbn(&optimal);
    let mut engine = BatchEngine::new(&node, &graph).expect("golden batch engine");
    engine
        .push(BatchScenario::new(&trace, Box::new(optimal)))
        .expect("golden batch scenario");
    engine
        .push(BatchScenario::new(
            &trace,
            Box::new(MpcPlanner::new(
                Box::new(NoisyOracle::perfect()),
                24,
                dp,
                GOLDEN_DELTA,
                SwitchRule::default(),
            )),
        ))
        .expect("golden batch scenario");
    engine
        .push(BatchScenario::new(
            &trace,
            Box::new(ProposedPlanner::from_dbn(
                dbn,
                GOLDEN_DELTA,
                SwitchRule::default(),
            )),
        ))
        .expect("golden batch scenario");
    let mut reports = run(engine).into_iter();
    for name in ["ecg_optimal", "ecg_mpc", "ecg_dbn"] {
        out.push((name.into(), reports.next().expect("three reports")));
    }
    out
}

/// The same 21 cases as [`golden_distilled_reports`], in the same
/// order, built through [`BatchEngine::run_sharded_with`] on `shards`
/// workers — the `ecg_dbn` case runs the *batched* distilled decision
/// path: its planners share one [`FoldTable`] handle, so its leaf
/// evaluation goes through the multi-lane kernel. The
/// batched kernel's bit-identity contract means these reports must
/// match the sequential [`golden_distilled_reports`] byte for byte at
/// every shard count (CI-gated by `tests/golden_distilled.rs`).
pub fn golden_distilled_batch_reports(shards: usize) -> Vec<(String, SimReport)> {
    golden_distilled_batch_via(&move |engine| {
        engine
            .run_sharded_with(&mut scratches(shards))
            .expect("golden distilled sharded run")
    })
}

/// [`golden_distilled_batch_reports`] killed at flat period `kill`,
/// the checkpoint JSON-round-tripped and resumed with `shards`
/// scratches — and must still match [`golden_distilled_reports`] byte
/// for byte.
pub fn golden_distilled_checkpoint_reports(kill: usize, shards: usize) -> Vec<(String, SimReport)> {
    golden_distilled_batch_via(&move |engine| kill_and_resume(engine, kill, shards))
}

fn golden_distilled_batch_via(
    run: &dyn for<'a> Fn(BatchEngine<'a>) -> Vec<SimReport>,
) -> Vec<(String, SimReport)> {
    let node = golden_node();
    let trace = golden_trace();
    let mut out = Vec::new();
    golden_fixed_batches_into(&node, &trace, run, &mut out);

    let graph = benchmarks::ecg();
    let dp = golden_dp();
    let optimal =
        OptimalPlanner::compute(&node, &graph, &trace, &dp, GOLDEN_DELTA).expect("golden optimal");
    let dbn = golden_dbn(&optimal);
    let policy = Arc::new(golden_distilled_policy(&dbn));
    let compiled =
        Arc::new(CompiledDbn::compile(&dbn, CompiledTier::F32).expect("golden DBN compiles"));
    let table = Arc::new(FoldTable::new(
        Arc::clone(&policy),
        FoldTable::DEFAULT_CAPACITY,
    ));
    let mut engine = BatchEngine::new(&node, &graph).expect("golden batch engine");
    engine
        .push(BatchScenario::new(&trace, Box::new(optimal)))
        .expect("golden batch scenario");
    engine
        .push(BatchScenario::new(
            &trace,
            Box::new(MpcPlanner::new(
                Box::new(NoisyOracle::perfect()),
                24,
                dp,
                GOLDEN_DELTA,
                SwitchRule::default(),
            )),
        ))
        .expect("golden batch scenario");
    engine
        .push(BatchScenario::new(
            &trace,
            Box::new(ProposedPlanner::from_distilled_with_table(
                table,
                compiled,
                GOLDEN_DELTA,
                SwitchRule::default(),
            )),
        ))
        .expect("golden batch scenario");
    let mut reports = run(engine).into_iter();
    for name in ["ecg_optimal", "ecg_mpc", "ecg_dbn"] {
        out.push((name.into(), reports.next().expect("three reports")));
    }
    out
}

/// Canonical byte rendering of a golden report — the generator writes
/// these bytes, the test compares against them.
pub fn render(report: &SimReport) -> String {
    let json = serde_json::to_string_pretty(report).expect("report serialises");
    format!("{json}\n")
}

/// Canonical byte rendering of a trained DBN's weights — the
/// `golden_train` generator writes these bytes, `tests/golden_train.rs`
/// compares against them. Shortest-round-trip `f64` formatting makes
/// byte equality equivalent to bitwise weight equality.
pub fn render_dbn(dbn: &Dbn) -> String {
    let json = serde_json::to_string_pretty(dbn).expect("dbn serialises");
    format!("{json}\n")
}

/// Repo-relative directory the golden files live in.
pub const GOLDEN_DIR: &str = "results/golden_online";

/// Repo-relative directory the training golden fixture lives in.
pub const GOLDEN_TRAIN_DIR: &str = "results/golden_train";
