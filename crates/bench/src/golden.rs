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

use helio_ann::{CompiledDbn, CompiledTier, Dbn, DbnConfig, DistillConfig, DistilledPolicy};
use helio_common::time::TimeGrid;
use helio_common::units::{Farads, Seconds};
use helio_faults::FaultHarness;
use helio_solar::{DayArchetype, NoisyOracle, SolarPanel, SolarTrace, TraceBuilder};
use helio_tasks::{benchmarks, TaskGraph};
use heliosched::{
    BatchCheckpoint, BatchEngine, BatchRunState, BatchScenario, BatchScratch, DpConfig, Engine,
    FixedPlanner, MpcPlanner, NodeConfig, OptimalPlanner, Pattern, PeriodPlanner, ProposedPlanner,
    SimReport, SwitchRule,
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

/// What serves the golden `ecg_dbn` case. The other 20 cases never
/// consult the network, so they anchor every serving path to the same
/// committed reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbnServing {
    /// The f64 reference network (`proposed-dbn`): the committed
    /// golden reports.
    Reference,
    /// The compiled forward at a tier (`compiled-dbn`,
    /// `compiled-dbn-i8`), gated by [`GOLDEN_COMPILED_DMR_EPS`].
    Compiled(CompiledTier),
    /// The distilled artifact over a compiled `f32` fallback
    /// (`distilled`), gated by [`GOLDEN_DISTILLED_DMR_EPS`].
    Distilled,
}

/// The golden cases on one benchmark, in golden order; the batch
/// runners run each group as one lockstep batch.
struct CaseGroup {
    graph: TaskGraph,
    cases: Vec<(String, Box<dyn PeriodPlanner>)>,
}

/// The 21 golden cases, in golden order: the six benchmarks × three
/// fixed patterns (ASAP gets the small capacitor, since it hoards no
/// energy, the planned patterns the large), then the planner-driven
/// paths on ECG: optimal LUT replay, MPC on a perfect oracle, and the
/// DBN trained from the optimal samples, served as `dbn` says. Case
/// names double as file stems under `results/golden_online/`.
fn golden_cases(node: &NodeConfig, trace: &SolarTrace, dbn: DbnServing) -> Vec<CaseGroup> {
    let mut groups: Vec<CaseGroup> = benchmarks::all_six()
        .into_iter()
        .map(|graph| {
            let cases = [
                (Pattern::Asap, 0usize),
                (Pattern::Inter, 1),
                (Pattern::Intra, 1),
            ]
            .into_iter()
            .map(|(pattern, cap)| {
                let planner: Box<dyn PeriodPlanner> = Box::new(FixedPlanner::new(pattern, cap));
                (format!("{}_{}", graph.name(), pattern), planner)
            })
            .collect();
            CaseGroup { graph, cases }
        })
        .collect();

    let graph = benchmarks::ecg();
    let dp = golden_dp();
    let switch = SwitchRule::default();
    let optimal =
        OptimalPlanner::compute(node, &graph, trace, &dp, GOLDEN_DELTA).expect("golden optimal");
    let network = golden_dbn(&optimal);
    let compile =
        |tier| Arc::new(CompiledDbn::compile(&network, tier).expect("golden DBN compiles"));
    let served = match dbn {
        DbnServing::Reference => ProposedPlanner::from_dbn(network, GOLDEN_DELTA, switch),
        DbnServing::Compiled(tier) => {
            ProposedPlanner::from_compiled_dbn(compile(tier), GOLDEN_DELTA, switch)
        }
        DbnServing::Distilled => ProposedPlanner::from_distilled(
            Arc::new(golden_distilled_policy(&network)),
            compile(CompiledTier::F32),
            GOLDEN_DELTA,
            switch,
        ),
    };
    let mpc = MpcPlanner::new(
        Box::new(NoisyOracle::perfect()),
        24,
        dp,
        GOLDEN_DELTA,
        switch,
    );
    groups.push(CaseGroup {
        graph,
        cases: vec![
            ("ecg_optimal".into(), Box::new(optimal)),
            ("ecg_mpc".into(), Box::new(mpc)),
            ("ecg_dbn".into(), Box::new(served)),
        ],
    });
    groups
}

/// The committed golden suite: `(case name, report)` pairs in golden
/// order, each case run through [`Engine::run`].
pub fn golden_reports() -> Vec<(String, SimReport)> {
    golden_reports_with(DbnServing::Reference, None)
}

/// The 21 golden cases with `ecg_dbn` served as `dbn`, each run through
/// [`Engine::run_with_faults`]. With `None` or an empty harness the
/// reference reports are byte-identical to the clean suite (the
/// robustness gate CI relies on).
pub fn golden_reports_with(
    dbn: DbnServing,
    harness: Option<&FaultHarness>,
) -> Vec<(String, SimReport)> {
    let node = golden_node();
    let trace = golden_trace();
    let mut out = Vec::new();
    for CaseGroup { graph, cases } in golden_cases(&node, &trace, dbn) {
        let engine = Engine::new(&node, &graph, &trace).expect("golden engine");
        for (name, mut planner) in cases {
            let report = engine
                .run_with_faults(planner.as_mut(), harness)
                .expect("golden run");
            out.push((name, report));
        }
    }
    out
}

/// The same cases, in the same order, with each benchmark's cases run
/// as one lockstep [`BatchEngine`] batch by `run`.
fn golden_batch_reports_via(
    dbn: DbnServing,
    run: &dyn for<'a> Fn(BatchEngine<'a>) -> Vec<SimReport>,
) -> Vec<(String, SimReport)> {
    let node = golden_node();
    let trace = golden_trace();
    let mut out = Vec::new();
    for CaseGroup { graph, cases } in golden_cases(&node, &trace, dbn) {
        let mut engine = BatchEngine::new(&node, &graph).expect("golden batch engine");
        let mut names = Vec::with_capacity(cases.len());
        for (name, planner) in cases {
            engine
                .push(BatchScenario::new(&trace, planner))
                .expect("golden batch scenario");
            names.push(name);
        }
        let reports = run(engine);
        assert_eq!(reports.len(), names.len(), "one report per golden case");
        out.extend(names.into_iter().zip(reports));
    }
    out
}

/// The golden cases through [`BatchEngine::run_sharded_with`] on
/// `shards` workers. The batched and sharded engines' byte-identity
/// contract means these reports must equal [`golden_reports_with`]'s
/// for the same `dbn`, byte for byte, at every shard count.
pub fn golden_sharded_reports(dbn: DbnServing, shards: usize) -> Vec<(String, SimReport)> {
    golden_batch_reports_via(dbn, &move |engine| {
        engine
            .run_sharded_with(&mut scratches(shards))
            .expect("golden sharded run")
    })
}

/// `shards` fresh worker scratches.
fn scratches(shards: usize) -> Vec<BatchScratch> {
    (0..shards).map(|_| BatchScratch::default()).collect()
}

/// The golden cases as [`golden_sharded_reports`] batches, each killed
/// at flat period `kill`, its checkpoint JSON-round-tripped (exactly
/// what the fleet service's on-disk resume does) and finished with
/// `shards` scratches. The checkpoint contract (interrupt anywhere,
/// resume byte-identically) means these reports must also equal
/// [`golden_reports_with`]'s byte for byte.
pub fn golden_checkpoint_reports(
    dbn: DbnServing,
    kill: usize,
    shards: usize,
) -> Vec<(String, SimReport)> {
    golden_batch_reports_via(dbn, &move |mut engine| {
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
    })
}

/// Per-scenario DMR epsilon of the compiled-planner regression gate:
/// every case served through [`DbnServing::Compiled`] must land within
/// this of the f64 reference suite's DMR. The compiled path is
/// tolerance-gated, not bit-identical — see `helio_ann::compiled` for
/// the contract; `tests/golden_compiled.rs` enforces this bound on all
/// 21 scenarios for both tiers.
pub const GOLDEN_COMPILED_DMR_EPS: f64 = 0.01;

/// Per-scenario DMR epsilon of the distilled-artifact regression gate:
/// every case served through [`DbnServing::Distilled`] must land within
/// this of the f64 reference suite's DMR. The artifact is
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
