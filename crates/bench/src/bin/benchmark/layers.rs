//! The traced run (`--trace 1`). Each workload is rebuilt here one
//! layer deeper than its untraced path, with a span around every call
//! the benchmark makes into a layer's public functions and counts taken
//! at the same boundaries; the per-layer metrics come from the spans'
//! self times and those counts. This is the only module that reaches
//! below the fleet protocol, the `BatchEngine` run surface and the
//! offline free functions, so a refactor of the layers underneath
//! touches this file alone.
//!
//! Decisions run on worker threads, one span per decision would cost
//! more than the decision, so planner time is counted instead: every
//! planner is wrapped in [`Timed`], a forwarding planner that adds the
//! time of each call doing decision work to per-scenario counters.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use helio_ann::{
    BatchPredictScratch, CompiledDbn, CompiledTier, Dbn, DbnConfig, DistillConfig, DistilledPolicy,
    FoldTable, Matrix,
};
use helio_common::time::TimeGrid;
use helio_common::units::{Farads, Seconds};
use helio_faults::{DbnFaultMode, FaultEvent, FaultHarness};
use helio_fleet::{write_reports, FleetConfig, FleetRequest, FleetService, ScenarioSpec};
use helio_solar::{DayArchetype, SolarPanel, SolarTrace, TraceBuilder};
use helio_tasks::TaskGraph;
use heliosched::{
    BatchCheckpoint, BatchEngine, BatchRunState, BatchScenario, BatchScratch, FixedPlanner,
    NodeConfig, OptimalPlanner, Pattern, PeriodPlanner, PlanContext, PlanDecision,
    PlannerCheckpoint, PlannerHealth, PlannerObservation, ProposedPlanner, ResilientPlanner,
    SimReport, SwitchRule,
};

use crate::fleet::{self, ClosedLoopReader, Mix, CHECKPOINT_EVERY, WARMUP_REQUESTS};
use crate::offline::{self, Plain, Stages};
use crate::spans::Tracer;
use crate::sweep::{self, Cell};
use crate::{inputs, stats, Report, Run, Stop};

/// Timed requests whose feature rows are captured for the `ann` replay.
const CAPTURE_REQUESTS: u64 = 8;

/// Lanes of each `sched` probe batch, and repetitions per pattern.
const PROBE_LANES: usize = 16;
const PROBE_REPS: usize = 5;

/// Share of the run budget spent re-running operations untraced to
/// measure the tracing overhead.
const OVERHEAD_SHARE: f64 = 0.15;

/// The decision path a planner takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Distilled,
    Dbn,
    Fixed,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Distilled, Kind::Dbn, Kind::Fixed];

    fn name(self) -> &'static str {
        match self {
            Kind::Distilled => "distilled",
            Kind::Dbn => "dbn",
            Kind::Fixed => "fixed",
        }
    }
}

/// Counters one [`Timed`] planner updates from its worker thread.
#[derive(Debug, Default)]
pub struct PlannerStats {
    busy_ns: AtomicU64,
    decisions: AtomicU64,
    /// `(flat period, feature row)` of every batch slot the planner
    /// took, when capturing.
    rows: Mutex<Vec<(usize, Vec<f64>)>>,
}

/// A forwarding planner timing every call that does decision work
/// (`plan`, the two batch-input hooks and `plan_with_output`); all
/// other hooks pass straight through, so the wrapped run is
/// byte-identical to the bare one.
pub struct Timed<'a> {
    inner: Box<dyn PeriodPlanner + 'a>,
    stats: Arc<PlannerStats>,
    capture: bool,
}

impl<'a> Timed<'a> {
    /// Wraps `inner`, counting into `stats`; with `capture`, batch
    /// feature rows are kept for the `ann` replay.
    pub fn wrap(
        inner: Box<dyn PeriodPlanner + 'a>,
        stats: Arc<PlannerStats>,
        capture: bool,
    ) -> Box<dyn PeriodPlanner + 'a> {
        Box::new(Self {
            inner,
            stats,
            capture,
        })
    }

    fn busy(&self, since: Instant, decided: bool) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.busy_ns.fetch_add(ns, Ordering::Relaxed);
        if decided {
            self.stats.decisions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn keep(&self, obs: &PlannerObservation<'_>, row: &[f64]) {
        if self.capture {
            if let Ok(mut rows) = self.stats.rows.lock() {
                rows.push((obs.grid.period_index(obs.period), row.to_vec()));
            }
        }
    }
}

impl PeriodPlanner for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, obs: &PlannerObservation<'_>) -> PlanDecision {
        let t = Instant::now();
        let d = self.inner.plan(obs);
        self.busy(t, true);
        d
    }

    fn complexity(&self) -> u64 {
        self.inner.complexity()
    }

    fn inject_fault(&mut self, mode: Option<DbnFaultMode>) {
        self.inner.inject_fault(mode);
    }

    fn health(&self) -> PlannerHealth {
        self.inner.health()
    }

    fn on_contract_violation(&mut self) {
        self.inner.on_contract_violation();
    }

    fn fallback_count(&self) -> usize {
        self.inner.fallback_count()
    }

    fn degraded_events(&self) -> Vec<FaultEvent> {
        self.inner.degraded_events()
    }

    fn dropped_events(&self) -> usize {
        self.inner.dropped_events()
    }

    fn save_checkpoint(&self) -> PlannerCheckpoint {
        self.inner.save_checkpoint()
    }

    fn restore_checkpoint(&mut self, ckpt: &PlannerCheckpoint) -> Result<(), String> {
        self.inner.restore_checkpoint(ckpt)
    }

    fn attach_context(&mut self, ctx: &Arc<PlanContext>) {
        self.inner.attach_context(ctx);
    }

    fn batch_input(&mut self, obs: &PlannerObservation<'_>, input: &mut Vec<f64>) -> bool {
        let t = Instant::now();
        let took = self.inner.batch_input(obs, input);
        self.busy(t, false);
        if took {
            self.keep(obs, input);
        }
        took
    }

    fn batch_dbn(&self) -> Option<Arc<Dbn>> {
        self.inner.batch_dbn()
    }

    fn batch_distilled_input(
        &mut self,
        obs: &PlannerObservation<'_>,
        input: &mut Vec<f64>,
    ) -> bool {
        let t = Instant::now();
        let took = self.inner.batch_distilled_input(obs, input);
        self.busy(t, false);
        if took {
            self.keep(obs, input);
        }
        took
    }

    fn batch_distilled(&self) -> Option<Arc<FoldTable>> {
        self.inner.batch_distilled()
    }

    fn plan_with_output(&mut self, obs: &PlannerObservation<'_>, out: &[f64]) -> PlanDecision {
        let t = Instant::now();
        let d = self.inner.plan_with_output(obs, out);
        self.busy(t, true);
        d
    }
}

/// One captured lane: its decision path and its batch feature rows.
type Lane = (Kind, Vec<(usize, Vec<f64>)>);

/// Counts taken at the span boundaries.
#[derive(Debug, Default)]
struct Counts {
    traces: u64,
    scenarios: u64,
    scenario_periods: u64,
    /// Σ run wall × shards the run used, in ns.
    shard_ns: u64,
    busy_ns: [u64; 3],
    decisions: [u64; 3],
    reports: u64,
    fallbacks: u64,
    response_bytes: u64,
    checkpoint_bytes: u64,
}

/// The spans and counts of one traced run, plus the planner counters of
/// the engine being built and the rows captured for the replay.
#[derive(Default)]
struct Probe {
    tracer: Tracer,
    counts: Counts,
    capture: bool,
    pending: Vec<(Kind, Arc<PlannerStats>)>,
    captured: Vec<Vec<Lane>>,
}

impl Probe {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tracer.time(name, f)
    }

    /// Wraps a planner of `kind` for the engine being built.
    fn wrap<'a>(
        &mut self,
        p: Box<dyn PeriodPlanner + 'a>,
        kind: Kind,
    ) -> Box<dyn PeriodPlanner + 'a> {
        let stats = Arc::new(PlannerStats::default());
        self.pending.push((kind, Arc::clone(&stats)));
        Timed::wrap(p, stats, self.capture)
    }

    /// Runs `engine` from `resume` to `stop` (`periods` periods),
    /// timing it and counting its work.
    fn run(
        &mut self,
        engine: &mut BatchEngine<'_>,
        resume: Option<&BatchCheckpoint>,
        stop: Option<usize>,
        periods: usize,
        scratches: &mut [BatchScratch],
    ) -> Result<BatchRunState, String> {
        let lanes = engine.len();
        let t = Instant::now();
        let state = self.time("core.batch.run", || {
            engine.run_span_with(resume, stop, scratches)
        });
        let wall = t.elapsed();
        self.counts.scenario_periods += (lanes * periods) as u64;
        self.counts.shard_ns += nanos(wall) * scratches.len().min(lanes).max(1) as u64;
        state.map_err(|e| e.to_string())
    }

    /// Folds the counters of the planners wrapped since the last call
    /// into the totals; captured rows of each scenario go to `lanes`.
    fn absorb(&mut self, mut lanes: Option<&mut Vec<Lane>>) {
        for (i, (kind, stats)) in self.pending.drain(..).enumerate() {
            let k = kind as usize;
            self.counts.busy_ns[k] += stats.busy_ns.load(Ordering::Relaxed);
            self.counts.decisions[k] += stats.decisions.load(Ordering::Relaxed);
            if let Some(lanes) = lanes.as_deref_mut() {
                let rows = stats
                    .rows
                    .lock()
                    .map(|mut r| std::mem::take(&mut *r))
                    .unwrap_or_default();
                match lanes.get_mut(i) {
                    Some(lane) => lane.1.extend(rows),
                    None => lanes.push((kind, rows)),
                }
            }
        }
    }

    fn reports(&mut self, reports: &[SimReport]) {
        self.counts.reports += reports.len() as u64;
        self.counts.fallbacks += reports
            .iter()
            .map(|r| r.degraded.planner_fallbacks as u64)
            .sum::<u64>();
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Offline stages of the pipeline run inside a traced rep.
impl Stages for Probe {
    fn begin(&mut self, name: &'static str) -> usize {
        self.tracer.enter(name)
    }

    fn end(&mut self, id: usize) {
        self.tracer.exit(id);
    }

    fn planner<'a>(&mut self, p: Box<dyn PeriodPlanner + 'a>) -> Box<dyn PeriodPlanner + 'a> {
        self.wrap(p, Kind::Distilled)
    }

    fn ran(&mut self, scenarios: usize, periods: usize, shards: usize) {
        let wall = self
            .tracer
            .spans()
            .iter()
            .rev()
            .find(|s| s.name == "core.batch.run")
            .map_or(0, |s| s.duration());
        self.counts.scenarios += scenarios as u64;
        self.counts.scenario_periods += periods as u64;
        self.counts.shard_ns += wall * shards.max(1) as u64;
    }
}

/// Per-pattern cost of the fine-grained schedulers: a B = 16 batch of
/// one fixed pattern over `traces`, on one scratch (one core), in µs
/// per scenario-period; the median of five runs per pattern.
fn sched_probe(
    node: &NodeConfig,
    graph: &TaskGraph,
    ctx: &Arc<PlanContext>,
    traces: &[SolarTrace],
) -> Result<[f64; 3], String> {
    let mut scratch = [BatchScratch::default()];
    let mut out = [0.0; 3];
    for (slot, &pattern) in out.iter_mut().zip(&sweep::PATTERNS) {
        let mut samples = Vec::with_capacity(PROBE_REPS);
        for _ in 0..PROBE_REPS {
            let mut engine = BatchEngine::with_context(node, graph, Arc::clone(ctx))
                .map_err(|e| e.to_string())?;
            for i in 0..PROBE_LANES {
                let planner = Box::new(sweep::fixed(node, pattern));
                engine
                    .push(BatchScenario::new(&traces[i % traces.len()], planner))
                    .map_err(|e| e.to_string())?;
            }
            let t = Instant::now();
            engine
                .run_sharded_with(&mut scratch)
                .map_err(|e| e.to_string())?;
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let per = (PROBE_LANES * node.grid.total_periods()) as f64;
        *slot = stats::median(&samples).unwrap_or(0.0) / per;
    }
    Ok(out)
}

/// Wall time of every traced operation, by operation id.
fn op_walls(tracer: &Tracer) -> BTreeMap<u64, u64> {
    tracer
        .spans()
        .iter()
        .filter(|s| s.op > 0 && s.parent.is_none())
        .map(|s| (s.op, s.duration()))
        .collect()
}

/// The per-layer metrics every workload reports, from `probe`'s spans
/// over timed operations (rooted at spans named `root`) and counts.
fn layer_metrics(report: &mut Report, probe: &Probe, root: &str, overhead: f64, sched: [f64; 3]) {
    let spans = probe.tracer.spans();
    let own = probe.tracer.self_times();
    let mut op_ns = 0u64;
    let mut ops = 0u64;
    let mut layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (s, o) in spans.iter().zip(&own) {
        if s.op == 0 {
            continue;
        }
        if s.parent.is_none() {
            op_ns += s.duration();
            ops += 1;
        }
        *layer.entry(s.name).or_default() += o;
    }
    let c = &probe.counts;
    let ns = |name: &str| layer.get(name).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { Some(num / den) } else { None };
    let put = |report: &mut Report, name: &str, v: Option<f64>, unit: &'static str| match v {
        Some(v) => report.metric(name, v, unit),
        None => report.problem(&format!("{name}: nothing to divide by in the traced run")),
    };
    let busy: u64 = c.busy_ns.iter().sum();
    let decisions: u64 = c.decisions.iter().sum();
    let op = op_ns as f64;
    // Traces are built inside operations (fleet) or at set-up (sweep,
    // offline, the fleet's training trace); every build counts.
    let trace_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "solar.trace")
        .map(|s| s.duration())
        .sum();
    put(
        report,
        "solar.trace_us_per_trace",
        ratio(trace_ns as f64 / 1e3, c.traces as f64),
        "us",
    );
    put(
        report,
        "core.batch.build_us_per_scenario",
        ratio(ns("core.batch.build") / 1e3, c.scenarios as f64),
        "us",
    );
    put(
        report,
        "core.batch.wall_ns_per_scenario_period",
        ratio(ns("core.batch.run"), c.scenario_periods as f64),
        "ns",
    );
    put(
        report,
        "core.batch.share",
        ratio(ns("core.batch.build") + ns("core.batch.run"), op),
        "ratio",
    );
    put(
        report,
        "core.online.ns_per_decision",
        ratio(busy as f64, decisions as f64),
        "ns",
    );
    put(
        report,
        "core.online.busy_share",
        ratio(busy as f64, c.shard_ns as f64),
        "ratio",
    );
    for (name, v) in [
        "sched.asap_us_per_period",
        "sched.inter_us_per_period",
        "sched.intra_us_per_period",
    ]
    .into_iter()
    .zip(sched)
    {
        put(report, name, (v > 0.0).then_some(v), "us");
    }
    put(
        report,
        "trace.unattributed_share",
        ratio(ns(root), op),
        "ratio",
    );
    report.metric("trace.overhead", overhead, "ratio");

    report.note("trace.ops", ops as f64, "count");
    report.note("trace.spans", spans.len() as f64, "count");
    for (name, v) in &layer {
        report.note(
            &format!("self.{name}_ms_per_op"),
            *v as f64 / 1e6 / ops.max(1) as f64,
            "ms",
        );
    }
    for kind in Kind::ALL {
        let k = kind as usize;
        if c.decisions[k] > 0 {
            report.note(
                &format!("core.online.{}_ns_per_decision", kind.name()),
                c.busy_ns[k] as f64 / c.decisions[k] as f64,
                "ns",
            );
        }
    }
    if c.reports > 0 {
        report.note(
            "core.online.fallbacks_per_scenario",
            c.fallbacks as f64 / c.reports as f64,
            "count",
        );
    }
}

/// `trace.overhead`: traced over untraced median wall of the same
/// operations, minus one.
fn overhead(traced_ns: &[u64], untraced: &[Duration]) -> f64 {
    let t: Vec<f64> = traced_ns.iter().map(|&ns| ns as f64).collect();
    let u: Vec<f64> = untraced.iter().map(|d| d.as_nanos() as f64).collect();
    match (stats::median(&t), stats::median(&u)) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => 0.0,
    }
}

/// How many operations the overhead comparison re-runs untraced.
fn overhead_ops(run: Run, op_ns: &BTreeMap<u64, u64>) -> u64 {
    let n = op_ns.len() as u64;
    match run.stop {
        Stop::Ops(k) => k.min(n),
        Stop::After(budget) => {
            let mean = op_ns.values().sum::<u64>() as f64 / n.max(1) as f64;
            let want = (budget.as_nanos() as f64 * OVERHEAD_SHARE / mean.max(1.0)).ceil() as u64;
            want.max(1).min(n)
        }
    }
}

// ---------------------------------------------------------------- fleet

/// What `FleetService::new` derives from the config, rebuilt stage by
/// stage.
struct FleetArtifacts {
    node: NodeConfig,
    graph: TaskGraph,
    ctx: Arc<PlanContext>,
    dbn: Arc<Dbn>,
    compiled: Arc<CompiledDbn>,
    table: Arc<FoldTable>,
    delta: f64,
}

/// Cycles `days` (the four standard days when empty) to `want` entries,
/// as the service does.
fn cycle_days(days: &[DayArchetype], want: usize) -> Vec<DayArchetype> {
    let base: &[DayArchetype] = if days.is_empty() {
        &DayArchetype::ALL
    } else {
        days
    };
    base.iter().copied().cycle().take(want).collect()
}

fn fleet_artifacts(cfg: &FleetConfig, probe: &mut Probe) -> Result<FleetArtifacts, String> {
    let e = |e: &dyn std::fmt::Display| e.to_string();
    let g = &cfg.grid;
    let grid = TimeGrid::new(g.days, g.periods, g.slots, Seconds::new(g.slot_seconds))
        .map_err(|x| e(&x))?;
    let caps: Vec<Farads> = cfg
        .capacitors_farads
        .iter()
        .map(|&f| Farads::new(f))
        .collect();
    let node = NodeConfig::builder(grid)
        .capacitors(&caps)
        .build()
        .map_err(|x| e(&x))?;
    let graph = sweep::graph(&cfg.benchmark)?;
    let ctx = Arc::new(PlanContext::new(&graph, grid.slot_duration()).map_err(|x| e(&x))?);
    let spec = cfg.dbn.as_ref().ok_or("the fleet config trains no DBN")?;
    let trace = probe.time("solar.trace", || {
        TraceBuilder::new(grid, SolarPanel::paper_panel())
            .seed(spec.seed)
            .days(&cycle_days(&spec.days, grid.days()))
            .build()
    });
    probe.counts.traces += 1;
    let optimal = probe
        .time("core.optimal", || {
            OptimalPlanner::compute(&node, &graph, &trace, &cfg.dp, cfg.delta)
        })
        .map_err(|x| e(&x))?;
    let dbn_cfg = DbnConfig {
        bp_epochs: spec.bp_epochs,
        ..DbnConfig::small(spec.seed)
    };
    let dbn = probe
        .time("ann.dbn_train", || {
            Dbn::train_set(optimal.samples(), &dbn_cfg)
        })
        .map_err(|x| e(&x))?;
    // The service compiles both tiers at start-up.
    let (compiled, int8) = probe.time("ann.compile", || {
        (
            CompiledDbn::compile(&dbn, CompiledTier::F32),
            CompiledDbn::compile(&dbn, CompiledTier::Int8),
        )
    });
    int8.map_err(|x| e(&x))?;
    let dspec = cfg
        .distill
        .as_ref()
        .ok_or("the fleet config distils no artifact")?;
    let dcfg = DistillConfig {
        depth_const: dspec.depth_const,
        depth_vary: dspec.depth_vary,
        samples: dspec.samples,
        holdout: dspec.holdout,
        ..DistillConfig::small(dspec.seed)
    };
    let const_prefix = grid.slots_per_period().min(dbn.input_dim());
    let policy = probe
        .time("ann.distill", || {
            DistilledPolicy::distill(&dbn, const_prefix, &[], &dcfg)
        })
        .map_err(|x| e(&x))?;
    let reloaded = probe
        .time("ann.artifact_io", || {
            DistilledPolicy::from_json(&policy.to_json()?)
        })
        .map_err(|x| e(&x))?;
    Ok(FleetArtifacts {
        node,
        graph,
        ctx,
        dbn: Arc::new(dbn),
        compiled: Arc::new(compiled.map_err(|x| e(&x))?),
        table: Arc::new(FoldTable::new(
            Arc::new(reloaded),
            FoldTable::DEFAULT_CAPACITY,
        )),
        delta: cfg.delta,
    })
}

/// The service's planner for `spec`, for the kinds the fleet workloads
/// send.
fn fleet_planner(
    spec: &ScenarioSpec,
    art: &FleetArtifacts,
) -> Result<(Box<dyn PeriodPlanner>, Kind), String> {
    let bank = art.node.capacitor_count();
    let fixed = |pattern: Pattern| -> Result<(Box<dyn PeriodPlanner>, Kind), String> {
        let default = match pattern {
            Pattern::Asap => 0,
            _ => bank.saturating_sub(1),
        };
        let cap = spec.capacitor.unwrap_or(default);
        if cap >= bank {
            return Err(format!("capacitor {cap} out of range for a bank of {bank}"));
        }
        Ok((Box::new(FixedPlanner::new(pattern, cap)), Kind::Fixed))
    };
    let (inner, kind): (Box<dyn PeriodPlanner>, Kind) = match spec.planner.as_str() {
        "asap" => fixed(Pattern::Asap)?,
        "inter" => fixed(Pattern::Inter)?,
        "intra" => fixed(Pattern::Intra)?,
        "dbn" => (
            Box::new(ProposedPlanner::from_shared_dbn(
                Arc::clone(&art.dbn),
                art.delta,
                SwitchRule::default(),
            )),
            Kind::Dbn,
        ),
        "distilled" => (
            Box::new(ProposedPlanner::from_distilled_with_table(
                Arc::clone(&art.table),
                Arc::clone(&art.compiled),
                art.delta,
                SwitchRule::default(),
            )),
            Kind::Distilled,
        ),
        other => {
            return Err(format!(
                "the traced path does not rebuild planner `{other}`"
            ))
        }
    };
    Ok(if spec.resilient {
        (Box::new(ResilientPlanner::new(inner)), kind)
    } else {
        (inner, kind)
    })
}

/// Writes `contents` to `path` through a temp file and a rename, as the
/// service's checkpoint store does.
fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, contents).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, path).map_err(|e| e.to_string())
}

/// Segmented, crash-safe request handling: checkpoints every `every`
/// periods, written under `dir` when given.
#[derive(Clone, Copy)]
struct Segments<'p> {
    every: usize,
    dir: Option<&'p Path>,
}

/// `FleetService::handle` rebuilt from the layers' public functions,
/// with a span per layer call: traces, fault harnesses, engine build,
/// engine run and (when segmented) checkpoint writes.
fn fleet_handle(
    art: &FleetArtifacts,
    req: &FleetRequest,
    line: &str,
    ordinal: u64,
    scratches: &mut [BatchScratch],
    probe: &mut Probe,
    segments: Option<Segments<'_>>,
) -> Result<Vec<SimReport>, String> {
    let grid = art.node.grid;
    let total = grid.total_periods();
    let traces: Vec<SolarTrace> = probe.time("solar.trace", || {
        req.scenarios
            .iter()
            .map(|s| {
                TraceBuilder::new(grid, SolarPanel::paper_panel())
                    .seed(s.seed)
                    .days(&cycle_days(&s.days, grid.days()))
                    .build()
            })
            .collect()
    });
    probe.counts.traces += traces.len() as u64;
    let harnesses: Vec<Option<FaultHarness>> = probe.time("faults.harness", || {
        req.scenarios
            .iter()
            .map(|s| {
                s.faults
                    .as_ref()
                    .map(|p| FaultHarness::new(p, total, grid.periods_per_day()))
            })
            .collect()
    });
    let every = segments.map_or(total, |s| s.every).max(1);
    let mut lanes: Vec<Lane> = Vec::new();
    let mut ckpt: Option<BatchCheckpoint> = None;
    let reports = loop {
        let at = ckpt.as_ref().map_or(0, |c| c.next_period);
        let end = (at + every).min(total);
        let stop = (end < total).then_some(end);
        let build = probe.tracer.enter("core.batch.build");
        let mut engine = BatchEngine::with_context(&art.node, &art.graph, Arc::clone(&art.ctx))
            .map_err(|e| e.to_string())?;
        for (i, spec) in req.scenarios.iter().enumerate() {
            let (planner, kind) = fleet_planner(spec, art)?;
            let mut scenario = BatchScenario::new(&traces[i], probe.wrap(planner, kind));
            if let Some(h) = &harnesses[i] {
                scenario = scenario.with_harness(h);
            }
            engine.push(scenario).map_err(|e| e.to_string())?;
        }
        probe.tracer.exit(build);
        probe.counts.scenarios += req.scenarios.len() as u64;
        let state = probe.run(&mut engine, ckpt.as_ref(), stop, end - at, scratches);
        drop(engine);
        let capture = probe.capture;
        probe.absorb(capture.then_some(&mut lanes));
        match state? {
            BatchRunState::Done(r) => break r,
            BatchRunState::Paused(c) => {
                if let Some(dir) = segments.and_then(|s| s.dir) {
                    let id = probe.tracer.enter("core.checkpoint");
                    let json = probe.time("core.checkpoint.serialize", || {
                        Ok::<_, serde_json::Error>(format!(
                            r#"{{"ordinal":{ordinal},"line":{},"checkpoint":{}}}"#,
                            serde_json::to_string(line)?,
                            serde_json::to_string(&c)?
                        ))
                    });
                    let json = json.map_err(|e| e.to_string())?;
                    write_atomic(&dir.join("inflight.json"), &json)?;
                    probe.counts.checkpoint_bytes += json.len() as u64;
                    probe.tracer.exit(id);
                }
                ckpt = Some(c);
            }
        }
    };
    if let Some(dir) = segments.and_then(|s| s.dir) {
        let id = probe.tracer.enter("core.checkpoint");
        write_atomic(
            &dir.join("session.json"),
            &format!(r#"{{"completed":{ordinal}}}"#),
        )?;
        let _ = std::fs::remove_file(dir.join("inflight.json"));
        probe.tracer.exit(id);
    }
    if probe.capture {
        probe.captured.push(lanes);
    }
    probe.reports(&reports);
    Ok(reports)
}

/// One traced request: parse, handle, write — the service's per-line
/// work, each step a span under a `fleet.request` root.
#[allow(clippy::too_many_arguments)]
fn fleet_request(
    art: &FleetArtifacts,
    line: &str,
    ordinal: u64,
    lanes: usize,
    scratches: &mut [BatchScratch],
    probe: &mut Probe,
    segments: Option<Segments<'_>>,
    sink: &mut Vec<u8>,
) -> Result<(), String> {
    probe.tracer.set_op(ordinal);
    let root = probe.tracer.enter("fleet.request");
    let req = probe
        .time("fleet.parse", || serde_json::from_str::<FleetRequest>(line))
        .map_err(|e| e.to_string())?;
    let handle = probe.tracer.enter("fleet.handle");
    let reports = fleet_handle(art, &req, line, ordinal, scratches, probe, segments)?;
    probe.tracer.exit(handle);
    probe
        .time("fleet.write", || {
            write_reports(&mut *sink, req.id, &reports)
        })
        .map_err(|e| e.to_string())?;
    probe.tracer.exit(root);
    probe.tracer.set_op(0);
    probe.counts.response_bytes += sink.len() as u64;
    sink.clear();
    if reports.len() == lanes {
        Ok(())
    } else {
        Err(format!(
            "request {ordinal} answered {} of {lanes} scenarios",
            reports.len()
        ))
    }
}

/// What the single-threaded replay of captured feature rows measured.
#[derive(Debug, Default)]
struct Replay {
    lookups: u64,
    hits: u64,
    lookup_ns: u64,
    distilled_lanes: u64,
    distilled_ns: u64,
    dbn_lanes: u64,
    dbn_ns: u64,
}

/// Replays the captured batch rows through the `ann` kernels the engine
/// calls — a fleet-lifetime `FoldTable`, `predict_batch_folded`,
/// `predict_batch_into` — period by period, grouped into the engine's
/// shards, on one thread.
fn replay_ann(
    art: &FleetArtifacts,
    captured: &[Vec<Lane>],
    shards: usize,
) -> Result<Replay, String> {
    let e = |x: helio_ann::AnnError| x.to_string();
    let policy = Arc::clone(art.table.policy());
    let table = FoldTable::new(Arc::clone(&policy), FoldTable::DEFAULT_CAPACITY);
    let total = art.node.grid.total_periods();
    let mut r = Replay::default();
    let (mut entries, mut block, mut out) = (Vec::new(), Vec::new(), Vec::new());
    let (mut inputs, mut outputs, mut scratch) = (
        Matrix::default(),
        Matrix::default(),
        BatchPredictScratch::default(),
    );
    for lanes in captured {
        let b = lanes.len();
        let chunk = b.div_ceil(shards.min(b).max(1)).max(1);
        let mut cursor = vec![0usize; b];
        for p in 0..total {
            for lo in (0..b).step_by(chunk) {
                let mut distilled: Vec<&[f64]> = Vec::new();
                let mut dbn: Vec<&[f64]> = Vec::new();
                for i in lo..(lo + chunk).min(b) {
                    let (kind, rows) = &lanes[i];
                    if let Some((q, row)) = rows.get(cursor[i]) {
                        if *q == p {
                            cursor[i] += 1;
                            match kind {
                                Kind::Distilled => distilled.push(row),
                                Kind::Dbn => dbn.push(row),
                                Kind::Fixed => {}
                            }
                        }
                    }
                }
                if !distilled.is_empty() {
                    entries.clear();
                    block.clear();
                    let t = Instant::now();
                    for row in &distilled {
                        entries.push(table.lookup(row).map_err(e)?);
                        block.extend_from_slice(row);
                    }
                    r.lookup_ns += nanos(t.elapsed());
                    let t = Instant::now();
                    policy
                        .predict_batch_folded(&entries, &block, &mut out)
                        .map_err(e)?;
                    r.distilled_ns += nanos(t.elapsed());
                    r.lookups += distilled.len() as u64;
                    r.hits += entries.iter().filter(|x| x.is_some()).count() as u64;
                    r.distilled_lanes += distilled.len() as u64;
                }
                if !dbn.is_empty() {
                    inputs.reset(dbn.len(), art.dbn.input_dim());
                    for (k, row) in dbn.iter().enumerate() {
                        inputs.row_mut(k).copy_from_slice(row);
                    }
                    let t = Instant::now();
                    art.dbn
                        .predict_batch_into(&inputs, &mut scratch, &mut outputs)
                        .map_err(e)?;
                    r.dbn_ns += nanos(t.elapsed());
                    r.dbn_lanes += dbn.len() as u64;
                }
            }
        }
    }
    Ok(r)
}

/// Runs one traced workload `body`, recording into `tracer`; an error
/// it returns is a failed check.
fn traced(
    tracer: &mut Tracer,
    body: impl FnOnce(&mut Probe, &mut Report) -> Result<(), String>,
) -> Report {
    let mut report = Report::default();
    let mut probe = Probe {
        tracer: std::mem::take(tracer),
        ..Probe::default()
    };
    if let Err(e) = body(&mut probe, &mut report) {
        report.problem(&e);
    }
    *tracer = probe.tracer;
    report
}

/// The traced fleet workload.
pub fn fleet(
    mix: Mix,
    seed: u64,
    run: Run,
    root: &Path,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Report {
    traced(tracer, |probe, report| {
        fleet_traced(mix, seed, run, root, scratch, probe, report)
    })
}

fn fleet_traced(
    mix: Mix,
    seed: u64,
    run: Run,
    root: &Path,
    scratch: &Path,
    probe: &mut Probe,
    report: &mut Report,
) -> Result<(), String> {
    fleet::check_golden(root, report);
    let config = inputs::fleet_config_line(crate::WORKERS);
    let cfg: FleetConfig = serde_json::from_str(&config).map_err(|e| e.to_string())?;
    let art = fleet_artifacts(&cfg, probe)?;
    let mut scratches = crate::scratches(crate::WORKERS);
    let dir = scratch.join("traced-checkpoints");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let segments = (mix == Mix::Whatif).then_some(Segments {
        every: CHECKPOINT_EVERY,
        dir: Some(&dir),
    });
    let lanes = mix.lanes();

    // The rebuild must answer exactly like the service.
    let warmup = run.warmup(WARMUP_REQUESTS);
    let first = warmup + 1;
    let line = mix.request(seed, first);
    let req: FleetRequest = serde_json::from_str(&line).map_err(|e| e.to_string())?;
    let mut service = FleetService::new(&cfg).map_err(|e| e.to_string())?;
    let json = |r: &[SimReport]| {
        r.iter()
            .map(serde_json::to_string)
            .collect::<Result<Vec<_>, _>>()
            .ok()
    };
    let want = service.handle(&req).map_err(|e| e.to_string())?;
    let got = fleet_handle(
        &art,
        &req,
        &line,
        first,
        &mut scratches,
        &mut Probe::default(),
        segments,
    )?;
    report.check(
        json(&want).is_some() && json(&want) == json(&got),
        "the traced rebuild answers differently from FleetService::handle",
    );
    drop(service);

    let mut sink = Vec::new();
    let mut warm = Probe::default();
    for id in 1..first {
        fleet_request(
            &art,
            &mix.session_request(seed, warmup, id),
            id,
            lanes,
            &mut scratches,
            &mut warm,
            segments,
            &mut sink,
        )?;
    }
    let start = Instant::now();
    let mut id = first;
    while run.stop.more(id - first, start) {
        let line = mix.request(seed, id);
        probe.capture = id - first < CAPTURE_REQUESTS;
        report.attempted += lanes as u64;
        if let Err(e) = fleet_request(
            &art,
            &line,
            id,
            lanes,
            &mut scratches,
            probe,
            segments,
            &mut sink,
        ) {
            report.failed += lanes as u64;
            report.problem(&e);
        }
        id += 1;
    }
    probe.capture = false;
    let timed = id - first;

    // Untraced re-run of the first requests through the service.
    let walls = op_walls(&probe.tracer);
    let m = overhead_ops(run, &walls);
    let mut request = move |k: u64| mix.session_request(seed, warmup, k);
    let mut reader = ClosedLoopReader::new(config, &mut request, warmup, Stop::Ops(m));
    let writer = fleet::session(mix, &mut reader, 0..=0, scratch)?;
    let (answers, problems) = fleet::pair(&reader.handed, &reader.asked, &writer.flushes, lanes);
    for p in problems {
        report.problem(&p);
    }
    let untraced: Vec<Duration> = answers
        .iter()
        .skip(warmup as usize)
        .map(|a| a.service)
        .collect();
    let traced: Vec<u64> = (first..first + m)
        .filter_map(|k| walls.get(&k).copied())
        .collect();

    let probe_traces: Vec<SolarTrace> = req
        .scenarios
        .iter()
        .take(PROBE_LANES)
        .map(|s| {
            TraceBuilder::new(art.node.grid, SolarPanel::paper_panel())
                .seed(s.seed)
                .days(&cycle_days(&s.days, art.node.grid.days()))
                .build()
        })
        .collect();
    let sched = sched_probe(&art.node, &art.graph, &art.ctx, &probe_traces)?;
    layer_metrics(
        report,
        probe,
        "fleet.request",
        overhead(&traced, &untraced),
        sched,
    );

    // Fleet-only layers, printed beside the contract metrics.
    let spans = probe.tracer.spans();
    let mean_ms = |name: &str| {
        let d: Vec<u64> = spans
            .iter()
            .filter(|s| s.op > 0 && s.name == name)
            .map(|s| s.duration())
            .collect();
        d.iter().sum::<u64>() as f64 / 1e6 / timed.max(1) as f64
    };
    report.note("fleet.parse_us", mean_ms("fleet.parse") * 1e3, "us");
    report.note("fleet.handle_ms", mean_ms("fleet.handle"), "ms");
    report.note("fleet.write_ms", mean_ms("fleet.write"), "ms");
    report.note("fleet.request_ms", mean_ms("fleet.request"), "ms");
    report.note(
        "fleet.bytes_per_scenario",
        probe.counts.response_bytes as f64 / probe.counts.reports.max(1) as f64,
        "B",
    );
    if mix == Mix::Whatif {
        report.note(
            "core.checkpoint.bytes_per_request",
            probe.counts.checkpoint_bytes as f64 / timed.max(1) as f64,
            "B",
        );
        report.note(
            "core.checkpoint.serialize_ms_per_request",
            mean_ms("core.checkpoint.serialize"),
            "ms",
        );
        report.note(
            "core.checkpoint.ms_per_request",
            mean_ms("core.checkpoint"),
            "ms",
        );
        report.note(
            "core.checkpoint.segment_overhead_ms",
            segment_overhead(
                &art,
                mix,
                seed,
                first,
                run.samples(8) as u64,
                &mut scratches,
            )?,
            "ms",
        );
    }
    let replay = replay_ann(&art, &probe.captured, crate::WORKERS)?;
    if replay.lookups > 0 {
        report.note(
            "ann.fold_hit_ratio",
            replay.hits as f64 / replay.lookups as f64,
            "ratio",
        );
        report.note(
            "ann.fold_lookup_ns_per_lane",
            replay.lookup_ns as f64 / replay.lookups as f64,
            "ns",
        );
        report.note(
            "ann.distilled_batch_ns_per_lane",
            replay.distilled_ns as f64 / replay.distilled_lanes as f64,
            "ns",
        );
    }
    if replay.dbn_lanes > 0 {
        report.note(
            "ann.dbn_batch_ns_per_lane",
            replay.dbn_ns as f64 / replay.dbn_lanes as f64,
            "ns",
        );
    }
    for (name, stage) in [
        ("stage.optimal_s", "core.optimal"),
        ("stage.dbn_train_s", "ann.dbn_train"),
        ("stage.compile_s", "ann.compile"),
        ("stage.distill_s", "ann.distill"),
    ] {
        let s: u64 = spans
            .iter()
            .filter(|s| s.op == 0 && s.name == stage)
            .map(|s| s.duration())
            .sum();
        report.note(name, s as f64 / 1e9, "s");
    }
    report.note(
        "ann.artifact_bytes",
        art.table.policy().to_json().map_or(0, |j| j.len()) as f64,
        "B",
    );
    Ok(())
}

/// `core.checkpoint.segment_overhead_ms`: median segmented (no writes)
/// minus median one-span handling of the first `n` timed requests.
fn segment_overhead(
    art: &FleetArtifacts,
    mix: Mix,
    seed: u64,
    first: u64,
    n: u64,
    scratches: &mut [BatchScratch],
) -> Result<f64, String> {
    let (mut one, mut seg) = (Vec::new(), Vec::new());
    for id in first..first + n {
        let line = mix.request(seed, id);
        let req: FleetRequest = serde_json::from_str(&line).map_err(|e| e.to_string())?;
        for (out, segments) in [
            (&mut one, None),
            (
                &mut seg,
                Some(Segments {
                    every: CHECKPOINT_EVERY,
                    dir: None,
                }),
            ),
        ] {
            let t = Instant::now();
            fleet_handle(
                art,
                &req,
                &line,
                id,
                scratches,
                &mut Probe::default(),
                segments,
            )?;
            out.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(stats::median(&seg).unwrap_or(0.0) - stats::median(&one).unwrap_or(0.0))
}

// ---------------------------------------------------------------- sweep

/// One traced sweep column, operation `op`.
fn sweep_column(
    cells: &[Cell],
    trace: &SolarTrace,
    op: u64,
    scratches: &mut [BatchScratch],
    probe: &mut Probe,
) -> Result<(), String> {
    probe.tracer.set_op(op);
    let root = probe.tracer.enter("sweep.column");
    for cell in cells {
        let build = probe.tracer.enter("core.batch.build");
        let mut engine = sweep::build_cell(cell, trace, &mut |p| probe.wrap(p, Kind::Fixed))?;
        probe.tracer.exit(build);
        probe.counts.scenarios += engine.len() as u64;
        let periods = cell.node.grid.total_periods();
        let state = probe.run(&mut engine, None, None, periods, scratches);
        drop(engine);
        probe.absorb(None);
        match state? {
            BatchRunState::Done(r) => probe.reports(&r),
            BatchRunState::Paused(_) => return Err("a full sweep run paused".into()),
        }
    }
    probe.tracer.exit(root);
    probe.tracer.set_op(0);
    Ok(())
}

/// The traced sweep workload.
pub fn sweep(seed: u64, run: Run, tracer: &mut Tracer) -> Report {
    traced(tracer, |probe, report| {
        sweep_traced(seed, run, probe, report)
    })
}

fn sweep_traced(seed: u64, run: Run, probe: &mut Probe, report: &mut Report) -> Result<(), String> {
    let grid = sweep::grid();
    let cells = sweep::cells(grid)?;
    let traces: Vec<SolarTrace> = probe.time("solar.trace", || {
        (0..sweep::TRACES)
            .map(|k| sweep::trace(grid, seed, k))
            .collect()
    });
    probe.counts.traces += sweep::TRACES;
    sweep::check_batched_equals_sequential(
        &cells,
        &traces[0],
        &mut crate::scratches(crate::CHECK_WORKERS),
        report,
    );
    let mut scratches = crate::scratches(crate::WORKERS);
    sweep::warm_up(
        &cells,
        grid,
        run.warmup(sweep::WARMUP_COLUMNS),
        &mut scratches,
    )?;
    let trace_of = |c: u64| &traces[(c % sweep::TRACES) as usize];
    let start = Instant::now();
    let mut c = 0;
    while run.stop.more(c, start) {
        report.attempted += sweep::SCENARIOS_PER_COLUMN as u64;
        if let Err(e) = sweep_column(&cells, trace_of(c), c + 1, &mut scratches, probe) {
            report.failed += sweep::SCENARIOS_PER_COLUMN as u64;
            report.problem(&e);
        }
        c += 1;
    }

    let walls = op_walls(&probe.tracer);
    let m = overhead_ops(run, &walls);
    let mut untraced = Vec::new();
    for k in 0..m {
        let t = Instant::now();
        sweep::column(&cells, trace_of(k), &mut scratches)?;
        untraced.push(t.elapsed());
    }
    let traced: Vec<u64> = (0..m)
        .filter_map(|k| walls.get(&(k + 1)).copied())
        .collect();
    let ecg = sweep::BENCHMARKS
        .iter()
        .position(|&b| b == "ecg")
        .unwrap_or(0);
    let cell = &cells[ecg];
    let sched = sched_probe(&cell.node, &cell.graph, &cell.ctx, &traces[..4])?;
    layer_metrics(
        report,
        probe,
        "sweep.column",
        overhead(&traced, &untraced),
        sched,
    );
    Ok(())
}

// -------------------------------------------------------------- offline

/// The traced offline workload.
pub fn offline(seed: u64, run: Run, tracer: &mut Tracer) -> Report {
    traced(tracer, |probe, report| {
        offline_traced(seed, run, probe, report)
    })
}

fn offline_traced(
    seed: u64,
    run: Run,
    probe: &mut Probe,
    report: &mut Report,
) -> Result<(), String> {
    let inputs = probe.time("solar.trace", || offline::Inputs::new(seed));
    probe.counts.traces += 1 + offline::HOLDOUTS;
    let mut scratches = crate::scratches(crate::WORKERS);
    let mut repeats = offline::Repeats::default();
    let reference = offline::warm_up(&inputs, &mut scratches, run, &mut repeats, report)?;
    let start = Instant::now();
    let mut k = 0;
    while run.stop.more(k, start) {
        k += 1;
        report.attempted += 1;
        probe.tracer.set_op(k);
        let root = probe.tracer.enter("offline.rep");
        let out = offline::rep(&inputs, &mut scratches, probe);
        probe.tracer.exit(root);
        probe.tracer.set_op(0);
        probe.absorb(None);
        match out {
            Ok(r) if repeats.same(&r, &reference) => {}
            Ok(_) => {
                report.failed += 1;
                report.problem("a traced rep's artifact or evaluation differs from the first rep");
            }
            Err(e) => {
                report.failed += 1;
                report.problem(&e);
            }
        }
    }

    // Every rep does the same work, so the untraced reps compare with
    // the traced ones directly.
    let walls = op_walls(&probe.tracer);
    let m = overhead_ops(run, &walls).max(1);
    let walls: Vec<u64> = walls.into_values().collect();
    let mut untraced = Vec::new();
    for _ in 0..m {
        let t = Instant::now();
        offline::rep(&inputs, &mut scratches, &mut Plain)?;
        untraced.push(t.elapsed());
    }
    let node = NodeConfig::builder(offline::grid())
        .capacitors(&[Farads::new(2.0), Farads::new(15.0)])
        .build()
        .map_err(|e| e.to_string())?;
    let ctx = Arc::new(
        PlanContext::new(&inputs.graph, offline::grid().slot_duration())
            .map_err(|e| e.to_string())?,
    );
    let sched = sched_probe(&node, &inputs.graph, &ctx, &inputs.holdouts[..4])?;
    layer_metrics(
        report,
        probe,
        "offline.rep",
        overhead(&walls, &untraced),
        sched,
    );
    let spans = probe.tracer.spans();
    for (name, stage) in [
        ("stage.sizing_s", "storage.sizing"),
        ("stage.optimal_s", "core.optimal"),
        ("stage.dbn_train_s", "ann.dbn_train"),
        ("stage.compile_s", "ann.compile"),
        ("stage.distill_s", "ann.distill"),
    ] {
        let s: u64 = spans
            .iter()
            .filter(|s| s.op > 0 && s.name == stage)
            .map(|s| s.duration())
            .sum();
        report.note(name, s as f64 / 1e9 / k.max(1) as f64, "s");
    }
    report.note(
        "core.longterm.cache_hit_ratio",
        reference.cache_hit_ratio,
        "ratio",
    );
    report.note("ann.artifact_bytes", reference.artifact.len() as f64, "B");
    Ok(())
}
