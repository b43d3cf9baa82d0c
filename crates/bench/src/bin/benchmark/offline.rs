//! The `offline` workload: the design-time pipeline end to end, one rep
//! per operation, on a 4-day x 48-period training trace — capacitor
//! sizing (H = 4) → optimal long-term plan → DBN training (300 epochs)
//! → compiled fallback → distillation plus the artifact's JSON round
//! trip → one evaluation batch of the distilled planner on eight
//! held-out traces. Set-up builds the task set, the training trace and
//! the held-out traces.
//!
//! The training trace is the same for every seed (a deployment's
//! recorded history), so every run times the same pipeline work and
//! trains the same artifact; the seed draws the held-out traces. A
//! seed-drawn training trace moves the trained teacher, and with it the
//! artifact's agreement (0.70–0.94 over seeds 1–6), by more than any
//! bound worth gating on.

use std::sync::Arc;
use std::time::Instant;

use helio_ann::{
    CompiledDbn, CompiledTier, Dbn, DbnConfig, DistillConfig, DistilledPolicy, FoldTable,
};
use helio_common::time::TimeGrid;
use helio_common::units::Seconds;
use helio_nvp::Pmu;
use helio_solar::{DayArchetype, SolarPanel, SolarTrace, TraceBuilder};
use helio_storage::StorageModelParams;
use helio_tasks::{benchmarks, TaskGraph};
use heliosched::{
    size_capacitors, BatchEngine, BatchScenario, BatchScratch, DpConfig, NodeConfig,
    OptimalPlanner, PeriodPlanner, ProposedPlanner, SimReport, SwitchRule,
};

use crate::inputs::{offline_holdout_seed, REFERENCE_SEED};
use crate::{Report, Run, SetupSamples, CHECK_WORKERS, WORKERS};

/// Untimed warm-up reps: the first on the reference inputs, the rest
/// on the workload's.
const WARMUP_REPS: u64 = 2;

/// Set-up samples, spread over the run.
const SETUP_SAMPLES: u32 = 25;

/// Capacitors sized per rep.
const CAPACITORS: usize = 4;

/// Held-out traces each rep evaluates on.
pub const HOLDOUTS: u64 = 8;

/// Back-propagation epochs of the trained DBN.
const BP_EPOCHS: usize = 300;

/// Pattern-selection threshold `δ`.
const DELTA: f64 = 0.5;

/// Lowest teacher/student agreement the distilled artifact may record:
/// a sanity floor that only a broken distiller falls below (the fixed
/// training trace's artifact records 0.765).
const MIN_AGREEMENT: f64 = 0.5;

/// Seed of the fixed training trace.
const TRAINING_SEED: u64 = 11;

/// The pipeline's grid: 4 days x 48 periods x 10 slots x 60 s.
pub fn grid() -> TimeGrid {
    TimeGrid::new(4, 48, 10, Seconds::new(60.0)).expect("the offline grid is valid")
}

/// The four standard days (clear to rainy) on the offline grid, with
/// the noise of `seed`.
pub fn four_days(seed: u64) -> SolarTrace {
    TraceBuilder::new(grid(), SolarPanel::paper_panel())
        .seed(seed)
        .days(&DayArchetype::ALL)
        .build()
}

/// The pipeline's input: the ECG task set, the training trace and the
/// held-out traces.
pub struct Inputs {
    pub graph: TaskGraph,
    pub training: SolarTrace,
    pub holdouts: Vec<SolarTrace>,
}

impl Inputs {
    /// Builds the inputs of workload seed `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            graph: benchmarks::ecg(),
            training: four_days(TRAINING_SEED),
            holdouts: (0..HOLDOUTS)
                .map(|k| four_days(offline_holdout_seed(seed, k)))
                .collect(),
        }
    }
}

/// Pipeline configuration: the offline defaults with 300 training
/// epochs, and the distiller's compact configuration.
pub fn dbn_config() -> DbnConfig {
    DbnConfig {
        bp_epochs: BP_EPOCHS,
        ..DbnConfig::small(0xD5EED)
    }
}

/// Distillation configuration.
pub fn distill_config() -> DistillConfig {
    DistillConfig::small(11)
}

/// What one rep produced.
pub struct RepOut {
    /// The distilled artifact's JSON form.
    pub artifact: String,
    /// Its recorded teacher agreement.
    pub agreement: f64,
    /// Mean overall DMR of the evaluation batch.
    pub dmr: f64,
    /// The DP's period-simulation cache hit ratio.
    pub cache_hit_ratio: f64,
}

/// The hooks one rep offers, so the traced run can time each stage and
/// wrap each evaluation planner; the untraced run ([`Plain`]) ignores
/// them.
pub trait Stages {
    /// Opens stage `name`.
    fn begin(&mut self, _name: &'static str) -> usize {
        0
    }
    /// Closes the stage `begin` returned.
    fn end(&mut self, _id: usize) {}
    /// Wraps one evaluation planner.
    fn planner<'a>(&mut self, p: Box<dyn PeriodPlanner + 'a>) -> Box<dyn PeriodPlanner + 'a> {
        p
    }
    /// Counts what an evaluation batch did.
    fn ran(&mut self, _scenarios: usize, _periods: usize, _shards: usize) {}
}

/// Runs `f` as stage `name` of `st`.
pub fn stage<S: Stages + ?Sized, R>(st: &mut S, name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = st.begin(name);
    let out = f();
    st.end(id);
    out
}

/// No hooks: the untraced rep.
pub struct Plain;

impl Stages for Plain {}

/// One rep of the pipeline.
pub fn rep<S: Stages>(
    inputs: &Inputs,
    scratches: &mut [BatchScratch],
    st: &mut S,
) -> Result<RepOut, String> {
    fn err(e: impl std::fmt::Display) -> String {
        e.to_string()
    }
    let storage = StorageModelParams::default();
    let sizes = stage(st, "storage.sizing", || {
        size_capacitors(
            &inputs.graph,
            &inputs.training,
            CAPACITORS,
            &storage,
            &Pmu::default(),
        )
    })
    .map_err(err)?;
    let node = NodeConfig::builder(grid())
        .capacitors(&sizes)
        .storage(storage)
        .build()
        .map_err(err)?;
    let optimal = stage(st, "core.optimal", || {
        OptimalPlanner::compute(
            &node,
            &inputs.graph,
            &inputs.training,
            &DpConfig::default(),
            DELTA,
        )
    })
    .map_err(err)?;
    let dbn = stage(st, "ann.dbn_train", || {
        Dbn::train_set(optimal.samples(), &dbn_config())
    })
    .map_err(err)?;
    let compiled = stage(st, "ann.compile", || {
        CompiledDbn::compile(&dbn, CompiledTier::F32)
    })
    .map_err(err)?;
    let const_prefix = grid().slots_per_period().min(dbn.input_dim());
    let policy = stage(st, "ann.distill", || {
        DistilledPolicy::distill(&dbn, const_prefix, &[], &distill_config())
    })
    .map_err(err)?;
    let (artifact, reloaded) = stage(st, "ann.artifact_io", || {
        let json = policy.to_json()?;
        let back = DistilledPolicy::from_json(&json)?;
        Ok::<_, helio_ann::AnnError>((json, back))
    })
    .map_err(err)?;

    let holdouts = &inputs.holdouts;
    let table = Arc::new(FoldTable::new(
        Arc::new(reloaded),
        FoldTable::DEFAULT_CAPACITY,
    ));
    let compiled = Arc::new(compiled);
    let build = st.begin("core.batch.build");
    let mut engine = BatchEngine::new(&node, &inputs.graph).map_err(err)?;
    for trace in holdouts {
        let planner = st.planner(Box::new(ProposedPlanner::from_distilled_with_table(
            Arc::clone(&table),
            Arc::clone(&compiled),
            DELTA,
            SwitchRule::default(),
        )));
        engine
            .push(BatchScenario::new(trace, planner))
            .map_err(err)?;
    }
    st.end(build);
    let reports =
        stage(st, "core.batch.run", || engine.run_sharded_with(scratches)).map_err(err)?;
    st.ran(
        holdouts.len(),
        holdouts.len() * grid().total_periods(),
        scratches.len().min(holdouts.len()),
    );
    let dmr = reports.iter().map(SimReport::overall_dmr).sum::<f64>() / reports.len().max(1) as f64;
    Ok(RepOut {
        agreement: policy.agreement(),
        artifact,
        dmr,
        cache_hit_ratio: optimal.cache_stats().hit_rate(),
    })
}

/// Checks the reps on one set of inputs repeat exactly: every artifact
/// byte-identical to the reference rep's, and every evaluation of the
/// workload's held-out traces equal to the first one.
#[derive(Default)]
pub struct Repeats {
    evaluation: Option<u64>,
}

impl Repeats {
    /// Whether `out` repeats `reference`'s artifact and the earlier
    /// reps' evaluation.
    pub fn same(&mut self, out: &RepOut, reference: &RepOut) -> bool {
        let dmr = out.dmr.to_bits();
        out.artifact == reference.artifact && *self.evaluation.get_or_insert(dmr) == dmr
    }
}

/// The untimed warm-up. Its first rep runs on the reference inputs: its
/// evaluation feeds `dmr`, its artifact must clear the agreement floor
/// and is the one every later rep must reproduce. The rest run on
/// `inputs` with the evaluation batch split over [`CHECK_WORKERS`]
/// scratches, so the timed reps' single-scratch evaluation must repeat
/// a multi-shard one.
///
/// # Errors
///
/// Returns the pipeline's error when the first rep fails.
pub fn warm_up(
    inputs: &Inputs,
    scratches: &mut [BatchScratch],
    run: Run,
    repeats: &mut Repeats,
    report: &mut Report,
) -> Result<RepOut, String> {
    let reference = rep(&Inputs::new(REFERENCE_SEED), scratches, &mut Plain)?;
    report.check(
        reference.agreement >= MIN_AGREEMENT,
        &format!(
            "distilled agreement {} is below {MIN_AGREEMENT}",
            reference.agreement
        ),
    );
    let mut multi = crate::scratches(CHECK_WORKERS);
    for _ in 1..run.warmup(WARMUP_REPS) {
        let same = rep(inputs, &mut multi, &mut Plain).is_ok_and(|r| repeats.same(&r, &reference));
        report.check(same, "a warm-up rep differs from the first rep");
    }
    Ok(reference)
}

/// The untraced offline workload.
pub fn run(seed: u64, run: Run) -> Report {
    let mut report = Report::default();
    let build = || Ok::<_, String>(Inputs::new(seed));
    let mut setups = SetupSamples::new(run, SETUP_SAMPLES);
    let inputs = match setups.time(build) {
        Ok(i) => i,
        Err(e) => {
            report.problem(&e);
            return report;
        }
    };
    let mut scratches = crate::scratches(WORKERS);

    let mut repeats = Repeats::default();
    let reference = match warm_up(&inputs, &mut scratches, run, &mut repeats, &mut report) {
        Ok(r) => r,
        Err(e) => {
            report.problem(&format!("offline pipeline failed: {e}"));
            return report;
        }
    };

    let mut latencies = Vec::new();
    let start = Instant::now();
    while run.stop.more(report.attempted, start) {
        if let Err(e) = setups.between(build) {
            report.problem(&e);
        }
        let t = Instant::now();
        let out = rep(&inputs, &mut scratches, &mut Plain);
        let elapsed = t.elapsed();
        report.attempted += 1;
        match out {
            Ok(r) if repeats.same(&r, &reference) => {
                latencies.push(elapsed.as_secs_f64() * 1e3);
            }
            Ok(_) => {
                report.failed += 1;
                report.problem("a timed rep's artifact or evaluation differs from the first rep");
            }
            Err(e) => {
                report.failed += 1;
                report.problem(&format!("offline pipeline failed: {e}"));
            }
        }
    }
    match setups.median() {
        Some(s) => report.metric("setup_s", s, "s"),
        None => report.problem("no offline set-up sample"),
    }
    report.latency(&latencies);
    report.metric("dmr", reference.dmr, "ratio");
    report.note("agreement", reference.agreement, "ratio");
    report.note("ann.artifact_bytes", reference.artifact.len() as f64, "B");
    report.note(
        "core.longterm.cache_hit_ratio",
        reference.cache_hit_ratio,
        "ratio",
    );
    report
}
