//! Lockstep batched simulation of many independent scenarios.
//!
//! Every sweep in the experiment suite runs B scenarios that share one
//! node configuration and task set but differ in trace, planner, seed
//! or fault plan. Running them one [`Engine`](crate::engine::Engine)
//! at a time wastes the structure twice: per-scenario precomputation
//! (slot costs, topological order) is rebuilt B times, and the DBN
//! backend pays B separate matrix–vector forwards per period when one
//! `B × in` matrix product would do.
//!
//! [`BatchEngine`] advances B scenarios period-by-period in lockstep.
//! Per-scenario mutable state lives in a structure-of-arrays `Vec` of
//! scenario states; immutable cross-scenario precomputation is built
//! once behind an [`Arc`]ed [`PlanContext`]. At each period boundary
//! the engine gathers the B DBN feature vectors into one matrix
//! (grouping scenarios by `Arc` pointer identity of their shared
//! network), runs a single batched forward per group, and hands each
//! scenario its output row. Scenarios whose planner declines the batch
//! slot — the [`MpcPlanner`](crate::mpc::MpcPlanner), fixed baselines,
//! demoted [`ResilientPlanner`](crate::resilient::ResilientPlanner)s,
//! periods with an injected `Unavailable` fault — fall back to a plain
//! [`PeriodPlanner::plan`] call for that period.
//!
//! Correctness is absolute: because the batched forward is bitwise
//! identical to per-sample inference and every other step reuses the
//! sequential engine's own period step, a batched run is byte-identical
//! to B sequential [`Engine::run`](crate::engine::Engine::run) calls.
//!
//! The engine has three run entry points. [`BatchEngine::run`] runs
//! the whole batch on the calling thread.
//! [`BatchEngine::run_sharded_with`] partitions the pushed scenarios
//! into contiguous shards, one per caller-owned [`BatchScratch`], and
//! fans them out across the `helio-par` scoped-thread pool.
//! [`BatchEngine::run_span_with`] is the primitive under both: it runs
//! a span of periods, from a fresh start or a [`BatchCheckpoint`], to
//! the end of the horizon or a pause. Each worker owns its shard's SoA
//! state plus its scratch (reused across periods, and across whole
//! runs when the caller keeps it, as the long-lived `helio-fleet`
//! service does between requests); the [`PlanContext`] and any shared
//! DBN `Arc`s are shared read-only across all workers. Because
//! scenarios never interact — grouping only changes *how* inference is
//! batched, not its bits — a sharded run is byte-identical to
//! [`BatchEngine::run`] for every shard count.

use std::sync::Arc;

use helio_ann::{BatchPredictScratch, Dbn, FoldTable, Matrix};
use helio_common::units::{Joules, Seconds};
use helio_faults::FaultHarness;
use helio_sched::SchedTables;
use helio_solar::{SolarPredictor, SolarTrace, WcmaPredictor};
use helio_tasks::{TaskGraph, TaskId};

use crate::checkpoint::{BatchCheckpoint, PlannerCheckpoint, ScenarioCheckpoint};
use crate::config::NodeConfig;
use crate::engine::{ScenarioEnv, ScenarioState};
use crate::error::CoreError;
use crate::metrics::SimReport;
use crate::planner::{PeriodPlanner, PlanDecision};

/// Immutable precomputation shared by every scenario in a batch (and,
/// per run, by the sequential engine): quantities that depend only on
/// the task set and grid, never on scenario state.
#[derive(Debug, Clone)]
pub struct PlanContext {
    /// Energy one slot of each task costs (`power × slot_duration`),
    /// indexed by task.
    pub slot_costs: Vec<Joules>,
    /// A topological order of the task graph (the admission-closure
    /// order the DBN planner walks every period).
    pub topo: Vec<TaskId>,
}

impl PlanContext {
    /// Precomputes the context for `graph` on `slot_duration` slots.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Tasks`] when the graph is cyclic.
    pub fn new(graph: &TaskGraph, slot_duration: Seconds) -> Result<Self, CoreError> {
        let topo = graph
            .topological_order()
            .map_err(|e| CoreError::Tasks(e.to_string()))?;
        let slot_costs = graph
            .tasks()
            .iter()
            .map(|t| t.power * slot_duration)
            .collect();
        Ok(Self { slot_costs, topo })
    }
}

/// One scenario of a batch: a trace and planner of its own, plus an
/// optional per-scenario predictor and fault harness. The node and
/// task set come from the [`BatchEngine`].
pub struct BatchScenario<'a> {
    trace: &'a SolarTrace,
    planner: Box<dyn PeriodPlanner + 'a>,
    predictor: Box<dyn SolarPredictor + Send + Sync + 'a>,
    harness: Option<&'a FaultHarness>,
}

impl<'a> BatchScenario<'a> {
    /// A scenario running `planner` against `trace` with the default
    /// WCMA predictor and no fault harness.
    pub fn new(trace: &'a SolarTrace, planner: Box<dyn PeriodPlanner + 'a>) -> Self {
        Self {
            trace,
            planner,
            predictor: Box::new(WcmaPredictor::default()),
            harness: None,
        }
    }

    /// Replaces the per-period energy predictor the fine-grained
    /// schedulers see (mirrors `Engine::with_predictor`).
    #[must_use]
    pub fn with_predictor(mut self, predictor: Box<dyn SolarPredictor + Send + Sync + 'a>) -> Self {
        self.predictor = predictor;
        self
    }

    /// Attaches a fault harness (mirrors `Engine::run_with_faults`).
    #[must_use]
    pub fn with_harness(mut self, harness: &'a FaultHarness) -> Self {
        self.harness = Some(harness);
        self
    }
}

/// Per-worker period scratch for one lockstep shard: feature rows,
/// pending decisions, group bookkeeping, the gathered input/output
/// matrices and the DBN forward scratch. Allocation-free in steady
/// state — every buffer is cleared and reused across periods, and a
/// scratch kept across [`BatchEngine::run_sharded_with`] calls carries
/// its warm capacity from one run (or fleet request) to the next.
#[derive(Default)]
pub struct BatchScratch {
    rows: Vec<Vec<f64>>,
    decisions: Vec<Option<PlanDecision>>,
    pending: Vec<(usize, Arc<Dbn>)>,
    distilled: Vec<(usize, Arc<FoldTable>)>,
    grouped: Vec<bool>,
    members: Vec<usize>,
    inputs: Matrix,
    outputs: Matrix,
    predict: BatchPredictScratch,
    /// Lane-major feature block / output block for the batched
    /// distilled leaf kernel.
    lane_inputs: Vec<f64>,
    lane_out: Vec<f64>,
}

/// The contiguous period range one [`shard_loop`] invocation executes:
/// `start..stop` in flat period indices. `stop: None` runs to the end
/// of the horizon and produces reports; `stop: Some(_)` pauses at that
/// boundary and produces checkpoints.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    stop: Option<usize>,
}

/// What one shard hands back: finished reports, or (when the span
/// stops early) per-scenario checkpoints in shard order.
enum ShardOutcome {
    Done(Vec<SimReport>),
    Paused(Vec<ScenarioCheckpoint>, Vec<PlannerCheckpoint>),
}

/// Runs one shard — a contiguous slice of scenarios — over `span` in
/// lockstep, reusing `scratch` across periods. This is the body both
/// the single-threaded [`BatchEngine::run`] and every sharded worker
/// execute; scenarios are independent, so a shard's reports are
/// byte-identical to the same scenarios' slice of a whole-batch run,
/// and a paused-then-resumed span is byte-identical to an
/// uninterrupted one.
fn shard_loop(
    shared: Shared<'_>,
    scenarios: &mut [BatchScenario<'_>],
    resume: Option<&[ScenarioCheckpoint]>,
    span: Span,
    scratch: &mut BatchScratch,
) -> Result<ShardOutcome, CoreError> {
    let Shared {
        node,
        graph,
        ctx,
        tables,
    } = shared;
    let grid = &node.grid;
    let b = scenarios.len();
    let mut states = Vec::with_capacity(b);
    match resume {
        Some(ckpts) => {
            for ckpt in ckpts {
                states.push(ScenarioState::restore(node, graph, ckpt)?);
            }
        }
        None => {
            for _ in 0..b {
                states.push(ScenarioState::new(node, graph)?);
            }
        }
    }
    // Mirror `run_with_faults`: an empty harness is no harness.
    let harnesses: Vec<Option<&FaultHarness>> = scenarios
        .iter()
        .map(|s| s.harness.filter(|h| !h.is_empty()))
        .collect();

    // Structure-of-arrays period scratch, reused across periods (and,
    // when the caller keeps the scratch, across runs).
    if scratch.rows.len() < b {
        scratch.rows.resize_with(b, Vec::new);
    }
    scratch.decisions.clear();
    scratch.decisions.resize(b, None);
    let BatchScratch {
        rows,
        decisions,
        pending,
        distilled,
        grouped,
        members,
        inputs,
        outputs,
        predict,
        lane_inputs,
        lane_out,
    } = scratch;

    let stop = span
        .stop
        .unwrap_or(grid.total_periods())
        .min(grid.total_periods());
    for flat in span.start..stop {
        let period = grid.period_at(flat);

        // Gather phase: per-period harness effects, then either a
        // batch feature row (a DBN or distilled slot) or (for
        // decliners) the full sequential plan() call.
        pending.clear();
        distilled.clear();
        for (i, sc) in scenarios.iter_mut().enumerate() {
            let env = ScenarioEnv {
                node,
                graph,
                trace: sc.trace,
                predictor: sc.predictor.as_ref(),
                ctx,
                tables,
                harness: harnesses[i],
            };
            states[i].pre_plan(&env, flat, sc.planner.as_mut())?;
            let obs = states[i].observation(&env, period);
            rows[i].clear();
            if sc.planner.batch_input(&obs, &mut rows[i]) {
                match sc.planner.batch_dbn() {
                    Some(dbn) => pending.push((i, dbn)),
                    None => {
                        return Err(CoreError::Config(
                            "planner accepted a batch slot without exposing a shared DBN".into(),
                        ))
                    }
                }
            } else if sc.planner.batch_distilled_input(&obs, &mut rows[i]) {
                match sc.planner.batch_distilled() {
                    Some(table) => distilled.push((i, table)),
                    None => {
                        return Err(CoreError::Config(
                            "planner accepted a distilled batch slot without exposing a \
                             shared artifact"
                                .into(),
                        ))
                    }
                }
            } else {
                decisions[i] = Some(sc.planner.plan(&obs));
            }
        }

        // Inference phase: group pending scenarios by shared network
        // (Arc pointer identity) and run one batched forward per
        // group; each scenario then completes its decision from its
        // output row.
        grouped.clear();
        grouped.resize(pending.len(), false);
        for g0 in 0..pending.len() {
            if grouped[g0] {
                continue;
            }
            let dbn = Arc::clone(&pending[g0].1);
            members.clear();
            for (k, flag) in grouped.iter_mut().enumerate().skip(g0) {
                if !*flag && Arc::ptr_eq(&dbn, &pending[k].1) {
                    *flag = true;
                    members.push(k);
                }
            }
            inputs.reset(members.len(), dbn.input_dim());
            for (r, &k) in members.iter().enumerate() {
                inputs.row_mut(r).copy_from_slice(&rows[pending[k].0]);
            }
            dbn.predict_batch_into(inputs, predict, outputs)?;
            for (r, &k) in members.iter().enumerate() {
                let i = pending[k].0;
                let sc = &mut scenarios[i];
                let env = ScenarioEnv {
                    node,
                    graph,
                    trace: sc.trace,
                    predictor: sc.predictor.as_ref(),
                    ctx,
                    tables,
                    harness: harnesses[i],
                };
                let obs = states[i].observation(&env, period);
                decisions[i] = Some(sc.planner.plan_with_output(&obs, outputs.row(r)));
            }
        }

        // Distilled inference phase: group accepted distilled slots by
        // shared handle (Arc pointer identity — the handle carries the
        // artifact) and run one batched leaf-kernel call per group.
        // The kernel is bit-identical to the sequential per-lane
        // `predict_into`, so batching changes throughput only, never
        // decisions.
        grouped.clear();
        grouped.resize(distilled.len(), false);
        for g0 in 0..distilled.len() {
            if grouped[g0] {
                continue;
            }
            let table = Arc::clone(&distilled[g0].1);
            members.clear();
            for (k, flag) in grouped.iter_mut().enumerate().skip(g0) {
                if !*flag && Arc::ptr_eq(&table, &distilled[k].1) {
                    *flag = true;
                    members.push(k);
                }
            }
            let policy = table.policy();
            let od = policy.output_dim();
            lane_inputs.clear();
            for &k in members.iter() {
                lane_inputs.extend_from_slice(&rows[distilled[k].0]);
            }
            policy.predict_batch_into(lane_inputs, lane_out)?;
            for (r, &k) in members.iter().enumerate() {
                let i = distilled[k].0;
                let sc = &mut scenarios[i];
                let env = ScenarioEnv {
                    node,
                    graph,
                    trace: sc.trace,
                    predictor: sc.predictor.as_ref(),
                    ctx,
                    tables,
                    harness: harnesses[i],
                };
                let obs = states[i].observation(&env, period);
                decisions[i] = Some(
                    sc.planner
                        .plan_with_output(&obs, &lane_out[r * od..(r + 1) * od]),
                );
            }
        }

        // Advance phase: every scenario executes its period.
        for (i, sc) in scenarios.iter_mut().enumerate() {
            let env = ScenarioEnv {
                node,
                graph,
                trace: sc.trace,
                predictor: sc.predictor.as_ref(),
                ctx,
                tables,
                harness: harnesses[i],
            };
            let decision = decisions[i].take().ok_or_else(|| {
                CoreError::Config("scenario reached the advance phase without a decision".into())
            })?;
            states[i].run_period(&env, period, sc.planner.as_mut(), decision)?;
        }
    }

    if span.stop.is_some() {
        // Freeze at the boundary instead of assembling reports; the
        // planner snapshot comes after the scenario snapshot so both
        // describe the exact same instant.
        let scenario_ckpts = states
            .into_iter()
            .map(ScenarioState::into_checkpoint)
            .collect();
        let planner_ckpts = scenarios
            .iter()
            .map(|sc| sc.planner.save_checkpoint())
            .collect();
        return Ok(ShardOutcome::Paused(scenario_ckpts, planner_ckpts));
    }

    let mut reports = Vec::with_capacity(b);
    for ((state, sc), harness) in states.into_iter().zip(scenarios.iter_mut()).zip(harnesses) {
        reports.push(state.into_report(sc.planner.as_mut(), harness));
    }
    Ok(ShardOutcome::Done(reports))
}

/// What every shard of a batch reads: the node, the task set, the plan
/// context and the scheduling tables.
#[derive(Clone, Copy)]
struct Shared<'s> {
    node: &'s NodeConfig,
    graph: &'s TaskGraph,
    ctx: &'s PlanContext,
    tables: &'s SchedTables,
}

/// Outcome of [`BatchEngine::run_span_with`]: the batch either ran to
/// the end of the horizon (reports, in push order) or paused at the
/// requested period boundary (a resumable [`BatchCheckpoint`]).
#[derive(Debug)]
pub enum BatchRunState {
    /// Every scenario finished; one report per scenario in push order.
    Done(Vec<SimReport>),
    /// The batch froze at a period boundary.
    Paused(BatchCheckpoint),
}

/// Advances B independent scenarios in lockstep, batching DBN
/// inference across them. See the module docs for the design.
pub struct BatchEngine<'a> {
    node: &'a NodeConfig,
    graph: &'a TaskGraph,
    ctx: Arc<PlanContext>,
    /// Scheduling tables of the task set on the node's grid, built once
    /// per batch and shared read-only by every shard.
    tables: SchedTables,
    scenarios: Vec<BatchScenario<'a>>,
}

impl<'a> BatchEngine<'a> {
    /// Creates an empty batch after validating the task set against the
    /// grid, and precomputes the shared [`PlanContext`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Tasks`] when the task set does not fit the
    /// period.
    pub fn new(node: &'a NodeConfig, graph: &'a TaskGraph) -> Result<Self, CoreError> {
        graph
            .validate(node.grid.period_duration())
            .map_err(|e| CoreError::Tasks(e.to_string()))?;
        let ctx = Arc::new(PlanContext::new(graph, node.grid.slot_duration())?);
        Ok(Self::assemble(node, graph, ctx))
    }

    /// [`BatchEngine::new`] reusing an already-derived [`PlanContext`]
    /// — the long-lived fleet service derives the context once at
    /// startup and hands the same `Arc` to every request's engine.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Tasks`] when the task set does not fit the
    /// period.
    pub fn with_context(
        node: &'a NodeConfig,
        graph: &'a TaskGraph,
        ctx: Arc<PlanContext>,
    ) -> Result<Self, CoreError> {
        graph
            .validate(node.grid.period_duration())
            .map_err(|e| CoreError::Tasks(e.to_string()))?;
        Ok(Self::assemble(node, graph, ctx))
    }

    /// An empty batch on a validated task set; builds the scheduling
    /// tables once for the whole batch.
    fn assemble(node: &'a NodeConfig, graph: &'a TaskGraph, ctx: Arc<PlanContext>) -> Self {
        let grid = &node.grid;
        Self {
            node,
            graph,
            ctx,
            tables: SchedTables::new(graph, grid.slot_duration(), grid.slots_per_period()),
            scenarios: Vec::new(),
        }
    }

    /// Adds a scenario to the batch, attaching the shared plan context
    /// to its planner.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TraceMismatch`] when the scenario's trace
    /// does not match the node's grid.
    pub fn push(&mut self, mut scenario: BatchScenario<'a>) -> Result<(), CoreError> {
        if scenario.trace.grid() != &self.node.grid {
            return Err(CoreError::TraceMismatch(format!(
                "scenario trace grid {:?} differs from node grid {:?}",
                scenario.trace.grid(),
                self.node.grid
            )));
        }
        scenario.planner.attach_context(&self.ctx);
        self.scenarios.push(scenario);
        Ok(())
    }

    /// Number of scenarios in the batch.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The shared plan context.
    pub fn plan_context(&self) -> &Arc<PlanContext> {
        &self.ctx
    }

    /// Runs every scenario over the whole horizon in lockstep,
    /// returning one report per scenario in push order — byte-identical
    /// to running each scenario through `Engine::run_with_faults`.
    ///
    /// # Errors
    ///
    /// Returns the first [`CoreError`] any scenario produces (the same
    /// errors the sequential engine can return).
    pub fn run(self) -> Result<Vec<SimReport>, CoreError> {
        self.run_sharded_with(&mut [BatchScratch::default()])
    }

    /// Partitions the batch into contiguous shards, one per
    /// caller-owned scratch (never more shards than scenarios), and
    /// runs them on the `helio-par` worker pool. Reports come back in
    /// push order, byte-identical to [`BatchEngine::run`] for every
    /// shard count. The fleet service keeps one scratch per worker
    /// alive across requests, so steady-state requests run with zero
    /// per-request setup cost.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when `scratches` is empty and the
    /// batch is not, otherwise the first [`CoreError`] any shard
    /// produces.
    pub fn run_sharded_with(
        mut self,
        scratches: &mut [BatchScratch],
    ) -> Result<Vec<SimReport>, CoreError> {
        match self.run_span_with(None, None, scratches)? {
            BatchRunState::Done(reports) => Ok(reports),
            BatchRunState::Paused(_) => Err(CoreError::Config(
                "full run paused without a stop period".into(),
            )),
        }
    }

    /// Runs a contiguous span of periods — the one primitive behind
    /// every run/pause/resume combination. `resume: None` starts fresh
    /// at period 0; `Some(ckpt)` restores every scenario and planner
    /// from the checkpoint and continues at `ckpt.next_period`.
    /// `stop: None` runs to the end of the horizon and yields
    /// [`BatchRunState::Done`]; `Some(p)` freezes the batch at flat
    /// period `min(p, total)` and yields [`BatchRunState::Paused`]
    /// (a stop at or before the resume point captures the state
    /// unchanged). Scenarios are sharded across `scratches` exactly as
    /// in [`BatchEngine::run_sharded_with`], and any
    /// pause/resume/shard combination is byte-identical to one
    /// uninterrupted [`BatchEngine::run`].
    ///
    /// Worker panics are quarantined: a panicking planner surfaces as
    /// [`CoreError::WorkerPanic`] instead of unwinding through the
    /// pool.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when `scratches` is empty and the
    /// batch is not, or when `resume` does not match the batch (wrong
    /// scenario count, planner/checkpoint shape mismatch, period past
    /// the horizon); [`CoreError::WorkerPanic`] when a worker
    /// panicked; otherwise the first [`CoreError`] any shard produces.
    pub fn run_span_with(
        &mut self,
        resume: Option<&BatchCheckpoint>,
        stop: Option<usize>,
        scratches: &mut [BatchScratch],
    ) -> Result<BatchRunState, CoreError> {
        let b = self.scenarios.len();
        let total = self.node.grid.total_periods();
        let start = match resume {
            Some(ckpt) => {
                if ckpt.scenarios.len() != b || ckpt.planners.len() != b {
                    return Err(CoreError::Config(format!(
                        "checkpoint holds {} scenarios / {} planners but the batch has {b}",
                        ckpt.scenarios.len(),
                        ckpt.planners.len(),
                    )));
                }
                if ckpt.next_period > total {
                    return Err(CoreError::Config(format!(
                        "checkpoint resumes at period {} but the horizon has {total}",
                        ckpt.next_period
                    )));
                }
                for (sc, pc) in self.scenarios.iter_mut().zip(&ckpt.planners) {
                    sc.planner
                        .restore_checkpoint(pc)
                        .map_err(CoreError::Config)?;
                }
                ckpt.next_period
            }
            None => 0,
        };
        let stop = stop.map(|p| p.min(total));
        if b == 0 {
            return Ok(match stop {
                Some(p) => BatchRunState::Paused(BatchCheckpoint {
                    next_period: p.max(start),
                    scenarios: Vec::new(),
                    planners: Vec::new(),
                }),
                None => BatchRunState::Done(Vec::new()),
            });
        }
        if scratches.is_empty() {
            return Err(CoreError::Config(
                "sharded run needs at least one worker scratch".into(),
            ));
        }
        // Never split below one scenario per shard: chunk boundaries
        // stay deterministic and idle workers are skipped entirely.
        let shards = scratches.len().min(b);
        let chunk = b.div_ceil(shards).max(1);
        let span = Span { start, stop };
        let shared = Shared {
            node: self.node,
            graph: self.graph,
            ctx: &self.ctx,
            tables: &self.tables,
        };
        let resume_states = resume.map(|c| c.scenarios.as_slice());
        let outcomes = helio_par::par_zip_chunks_mut_quarantine(
            &mut self.scenarios,
            &mut scratches[..shards],
            |ci, shard, scratch| {
                // Sub-slice the checkpoint with the same deterministic
                // partition the pool applied to the scenarios.
                let lo = ci * chunk;
                let sub = resume_states.map(|r| &r[lo..lo + shard.len()]);
                shard_loop(shared, shard, sub, span, scratch)
            },
        );
        let mut reports = Vec::new();
        let mut scenario_ckpts = Vec::new();
        let mut planner_ckpts = Vec::new();
        for outcome in outcomes {
            match outcome {
                Ok(Ok(ShardOutcome::Done(r))) => reports.extend(r),
                Ok(Ok(ShardOutcome::Paused(s, p))) => {
                    scenario_ckpts.extend(s);
                    planner_ckpts.extend(p);
                }
                Ok(Err(e)) => return Err(e),
                Err(payload) => {
                    return Err(CoreError::WorkerPanic(
                        helio_par::panic_message(&payload).to_string(),
                    ))
                }
            }
        }
        match stop {
            Some(p) => Ok(BatchRunState::Paused(BatchCheckpoint {
                next_period: p.max(start),
                scenarios: scenario_ckpts,
                planners: planner_ckpts,
            })),
            None => Ok(BatchRunState::Done(reports)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;
    use crate::engine::Engine;
    use crate::mpc::MpcPlanner;
    use crate::online::{ProposedPlanner, SwitchRule};
    use crate::planner::{FixedPlanner, Pattern, PlannerObservation};
    use crate::resilient::ResilientPlanner;
    use helio_common::time::TimeGrid;
    use helio_common::units::{Farads, Seconds};
    use helio_solar::{DayArchetype, NoisyOracle, SolarPanel, SolarTrace, TraceBuilder};
    use helio_tasks::benchmarks;

    fn grid() -> TimeGrid {
        TimeGrid::new(2, 24, 10, Seconds::new(60.0)).unwrap()
    }

    fn node() -> NodeConfig {
        NodeConfig::builder(grid())
            .capacitors(&[Farads::new(2.0), Farads::new(15.0)])
            .build()
            .unwrap()
    }

    fn trace(seed: u64) -> SolarTrace {
        TraceBuilder::new(grid(), SolarPanel::paper_panel())
            .seed(seed)
            .days(&[DayArchetype::Clear, DayArchetype::BrokenClouds])
            .build()
    }

    fn tiny_dbn(graph: &TaskGraph) -> Arc<Dbn> {
        let in_dim = 10 + 2 + 1;
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
        Arc::new(
            Dbn::train_set(
                &helio_ann::TrainingSet::from_rows(&inputs, &targets).unwrap(),
                &helio_ann::DbnConfig::small(2),
            )
            .unwrap(),
        )
    }

    fn scratches(n: usize) -> Vec<BatchScratch> {
        (0..n).map(|_| BatchScratch::default()).collect()
    }

    /// Runs periods `0..stop` on one worker and returns the pause.
    fn pause_at(engine: &mut BatchEngine<'_>, stop: usize) -> BatchCheckpoint {
        match engine.run_span_with(None, Some(stop), &mut scratches(1)) {
            Ok(BatchRunState::Paused(ckpt)) => ckpt,
            other => panic!("expected a pause at {stop}, got {other:?}"),
        }
    }

    fn dbn_planner(dbn: &Arc<Dbn>) -> ProposedPlanner {
        ProposedPlanner::from_shared_dbn(Arc::clone(dbn), 0.5, SwitchRule::default())
    }

    /// Distilling is by far the most expensive fixture in this module,
    /// so the artifact/fallback pair is built once and shared by every
    /// test (the policy and compiled network are immutable).
    fn distilled_fixture(
        g: &TaskGraph,
    ) -> (Arc<helio_ann::DistilledPolicy>, Arc<helio_ann::CompiledDbn>) {
        use std::sync::OnceLock;
        static CELL: OnceLock<(Arc<helio_ann::DistilledPolicy>, Arc<helio_ann::CompiledDbn>)> =
            OnceLock::new();
        CELL.get_or_init(|| {
            let dbn = tiny_dbn(g);
            let compiled = Arc::new(
                helio_ann::CompiledDbn::compile(&dbn, helio_ann::CompiledTier::F32).unwrap(),
            );
            let cfg = helio_ann::DistillConfig {
                depth_const: 3,
                depth_vary: 3,
                samples: 2048,
                candidates: 16,
                holdout: 512,
                ..helio_ann::DistillConfig::small(3)
            };
            let policy =
                Arc::new(helio_ann::DistilledPolicy::distill(&dbn, 10, &[], &cfg).unwrap());
            (policy, compiled)
        })
        .clone()
    }

    fn distilled_planner(
        table: &Arc<FoldTable>,
        fallback: &Arc<helio_ann::CompiledDbn>,
    ) -> ProposedPlanner {
        ProposedPlanner::from_distilled_with_table(
            Arc::clone(table),
            Arc::clone(fallback),
            0.5,
            SwitchRule::default(),
        )
    }

    #[test]
    fn batch_distilled_planners_match_sequential() {
        // Scenarios sharing one artifact handle, a scenario carrying
        // its own private handle, and a resilient wrap must all stay
        // byte-identical to their sequential runs: the batched leaf
        // kernel never changes a decision.
        let node = node();
        let g = benchmarks::ecg();
        let (policy, compiled) = distilled_fixture(&g);
        let shared = Arc::new(FoldTable::new(
            Arc::clone(&policy),
            FoldTable::DEFAULT_CAPACITY,
        ));
        let traces: Vec<SolarTrace> = (0..4).map(|s| trace(61 + s)).collect();
        let make = |i: usize| -> Box<dyn PeriodPlanner> {
            match i {
                0 | 1 => Box::new(distilled_planner(&shared, &compiled)),
                2 => Box::new(ProposedPlanner::from_distilled(
                    Arc::clone(&policy),
                    Arc::clone(&compiled),
                    0.5,
                    SwitchRule::default(),
                )),
                _ => Box::new(ResilientPlanner::new(Box::new(distilled_planner(
                    &shared, &compiled,
                )))),
            }
        };
        let mut engine = BatchEngine::new(&node, &g).unwrap();
        for (i, t) in traces.iter().enumerate() {
            engine.push(BatchScenario::new(t, make(i))).unwrap();
        }
        let batched = engine.run().unwrap();

        for (i, (t, b)) in traces.iter().zip(&batched).enumerate() {
            let mut p = make(i);
            let s = Engine::new(&node, &g, t).unwrap().run(p.as_mut()).unwrap();
            assert_eq!(
                serde_json::to_string(b).unwrap(),
                serde_json::to_string(&s).unwrap(),
                "distilled scenario {i} diverged"
            );
        }
    }

    #[test]
    fn batch_is_byte_identical_to_sequential_mixed_planners() {
        let node = node();
        let g = benchmarks::ecg();
        let dbn = tiny_dbn(&g);
        let traces: Vec<SolarTrace> = (0..5).map(|s| trace(11 + s)).collect();

        let mut engine = BatchEngine::new(&node, &g).unwrap();
        engine
            .push(BatchScenario::new(
                &traces[0],
                Box::new(FixedPlanner::new(Pattern::Asap, 0)),
            ))
            .unwrap();
        engine
            .push(BatchScenario::new(&traces[1], Box::new(dbn_planner(&dbn))))
            .unwrap();
        engine
            .push(BatchScenario::new(
                &traces[2],
                Box::new(ResilientPlanner::new(Box::new(dbn_planner(&dbn)))),
            ))
            .unwrap();
        engine
            .push(BatchScenario::new(
                &traces[3],
                Box::new(MpcPlanner::new(
                    Box::new(NoisyOracle::perfect()),
                    24,
                    crate::longterm::DpConfig {
                        voltage_buckets: 4,
                        keep_per_level: 1,
                    },
                    0.5,
                    SwitchRule::default(),
                )),
            ))
            .unwrap();
        engine
            .push(BatchScenario::new(&traces[4], Box::new(dbn_planner(&dbn))))
            .unwrap();
        assert_eq!(engine.len(), 5);
        let batched = engine.run().unwrap();

        let sequential: Vec<SimReport> = {
            let mut out = Vec::new();
            let mut planners: Vec<Box<dyn PeriodPlanner>> = vec![
                Box::new(FixedPlanner::new(Pattern::Asap, 0)),
                Box::new(dbn_planner(&dbn)),
                Box::new(ResilientPlanner::new(Box::new(dbn_planner(&dbn)))),
                Box::new(MpcPlanner::new(
                    Box::new(NoisyOracle::perfect()),
                    24,
                    crate::longterm::DpConfig {
                        voltage_buckets: 4,
                        keep_per_level: 1,
                    },
                    0.5,
                    SwitchRule::default(),
                )),
                Box::new(dbn_planner(&dbn)),
            ];
            for (t, p) in traces.iter().zip(planners.iter_mut()) {
                out.push(Engine::new(&node, &g, t).unwrap().run(p.as_mut()).unwrap());
            }
            out
        };

        assert_eq!(batched.len(), sequential.len());
        for (i, (b, s)) in batched.iter().zip(&sequential).enumerate() {
            assert_eq!(
                serde_json::to_string(b).unwrap(),
                serde_json::to_string(s).unwrap(),
                "scenario {i} diverged"
            );
        }
    }

    #[test]
    fn batch_compiled_planners_match_sequential() {
        // Compiled backends decline batch slots, so the engine routes
        // them through the per-scenario fallback — batched output must
        // stay byte-identical to sequential runs, resilient wrap
        // included.
        use helio_ann::{CompiledDbn, CompiledTier};
        let node = node();
        let g = benchmarks::ecg();
        let dbn = tiny_dbn(&g);
        let compiled = Arc::new(CompiledDbn::compile(&dbn, CompiledTier::F32).unwrap());
        let compiled_i8 = Arc::new(CompiledDbn::compile(&dbn, CompiledTier::Int8).unwrap());
        let traces: Vec<SolarTrace> = (0..3).map(|s| trace(23 + s)).collect();
        let make = |i: usize| -> Box<dyn PeriodPlanner> {
            match i {
                0 => Box::new(ProposedPlanner::from_compiled_dbn(
                    Arc::clone(&compiled),
                    0.5,
                    SwitchRule::default(),
                )),
                1 => Box::new(ResilientPlanner::new(Box::new(
                    ProposedPlanner::from_compiled_dbn(
                        Arc::clone(&compiled),
                        0.5,
                        SwitchRule::default(),
                    ),
                ))),
                _ => Box::new(ProposedPlanner::from_compiled_dbn(
                    Arc::clone(&compiled_i8),
                    0.5,
                    SwitchRule::default(),
                )),
            }
        };

        let mut engine = BatchEngine::new(&node, &g).unwrap();
        for (i, t) in traces.iter().enumerate() {
            engine.push(BatchScenario::new(t, make(i))).unwrap();
        }
        let batched = engine.run().unwrap();

        for (i, (t, b)) in traces.iter().zip(&batched).enumerate() {
            let mut p = make(i);
            let s = Engine::new(&node, &g, t).unwrap().run(p.as_mut()).unwrap();
            assert_eq!(
                serde_json::to_string(b).unwrap(),
                serde_json::to_string(&s).unwrap(),
                "compiled scenario {i} diverged"
            );
        }
    }

    #[test]
    fn batch_matches_sequential_under_faults() {
        let node = node();
        let g = benchmarks::ecg();
        let dbn = tiny_dbn(&g);
        let t = trace(23);
        let plan = helio_faults::FaultPlan {
            seed: 42,
            random_blackouts: Some(helio_faults::RandomBlackouts {
                per_period_probability: 0.2,
                min_periods: 1,
                max_periods: 3,
            }),
            dbn: vec![helio_faults::DbnFault {
                window: helio_faults::PeriodWindow::new(5, 6),
                mode: helio_faults::DbnFaultMode::Nan,
            }],
            ..helio_faults::FaultPlan::default()
        };
        let harness = helio_faults::FaultHarness::new(&plan, 48, 24);
        let empty = helio_faults::FaultHarness::empty();

        let mut engine = BatchEngine::new(&node, &g).unwrap();
        engine
            .push(BatchScenario::new(&t, Box::new(dbn_planner(&dbn))).with_harness(&harness))
            .unwrap();
        engine
            .push(BatchScenario::new(&t, Box::new(dbn_planner(&dbn))).with_harness(&empty))
            .unwrap();
        engine
            .push(
                BatchScenario::new(
                    &t,
                    Box::new(ResilientPlanner::new(Box::new(dbn_planner(&dbn)))),
                )
                .with_harness(&harness),
            )
            .unwrap();
        let batched = engine.run().unwrap();

        let seq0 = Engine::new(&node, &g, &t)
            .unwrap()
            .run_with_faults(&mut dbn_planner(&dbn), Some(&harness))
            .unwrap();
        let seq1 = Engine::new(&node, &g, &t)
            .unwrap()
            .run_with_faults(&mut dbn_planner(&dbn), Some(&empty))
            .unwrap();
        let mut resilient = ResilientPlanner::new(Box::new(dbn_planner(&dbn)));
        let seq2 = Engine::new(&node, &g, &t)
            .unwrap()
            .run_with_faults(&mut resilient, Some(&harness))
            .unwrap();

        for (b, s) in batched.iter().zip([&seq0, &seq1, &seq2]) {
            assert_eq!(
                serde_json::to_string(b).unwrap(),
                serde_json::to_string(s).unwrap()
            );
        }
    }

    #[test]
    fn sharded_matches_run_for_every_shard_count() {
        let node = node();
        let g = benchmarks::ecg();
        let dbn = tiny_dbn(&g);
        let (policy, compiled) = distilled_fixture(&g);
        let table = Arc::new(FoldTable::new(
            Arc::clone(&policy),
            FoldTable::DEFAULT_CAPACITY,
        ));
        let traces: Vec<SolarTrace> = (0..5).map(|s| trace(31 + s)).collect();
        let build = |ctx: Option<Arc<PlanContext>>| {
            let mut engine = match ctx {
                Some(ctx) => BatchEngine::with_context(&node, &g, ctx).unwrap(),
                None => BatchEngine::new(&node, &g).unwrap(),
            };
            for (i, t) in traces.iter().enumerate() {
                let planner: Box<dyn PeriodPlanner> = match i % 4 {
                    0 => Box::new(FixedPlanner::new(Pattern::Inter, 1)),
                    1 => Box::new(dbn_planner(&dbn)),
                    // Every shard count reads the same shared handle;
                    // the reports must not notice.
                    2 => Box::new(distilled_planner(&table, &compiled)),
                    _ => Box::new(ResilientPlanner::new(Box::new(dbn_planner(&dbn)))),
                };
                engine.push(BatchScenario::new(t, planner)).unwrap();
            }
            engine
        };
        let whole = build(None).run().unwrap();
        let shared_ctx = Arc::clone(build(None).plan_context());
        for shards in [1, 2, 3, 5, 8] {
            let sharded = build(Some(Arc::clone(&shared_ctx)))
                .run_sharded_with(&mut scratches(shards))
                .unwrap();
            assert_eq!(sharded.len(), whole.len());
            for (i, (a, b)) in sharded.iter().zip(&whole).enumerate() {
                assert_eq!(
                    serde_json::to_string(a).unwrap(),
                    serde_json::to_string(b).unwrap(),
                    "scenario {i} diverged at {shards} shards"
                );
            }
        }
        let parallel = build(None)
            .run_sharded_with(&mut scratches(helio_par::configured_threads()))
            .unwrap();
        assert_eq!(parallel, whole);
    }

    #[test]
    fn scratches_are_reusable_across_runs() {
        let node = node();
        let g = benchmarks::ecg();
        let dbn = tiny_dbn(&g);
        let traces: Vec<SolarTrace> = (0..4).map(|s| trace(77 + s)).collect();
        let build = || {
            let mut engine = BatchEngine::new(&node, &g).unwrap();
            for t in &traces {
                engine
                    .push(BatchScenario::new(t, Box::new(dbn_planner(&dbn))))
                    .unwrap();
            }
            engine
        };
        let whole = build().run().unwrap();
        let mut scratches = [BatchScratch::default(), BatchScratch::default()];
        // Same scratches, two consecutive runs: warm buffers must not
        // change the output.
        for _ in 0..2 {
            let reports = build().run_sharded_with(&mut scratches).unwrap();
            assert_eq!(reports, whole);
        }
        let err = build().run_sharded_with(&mut []);
        assert!(matches!(err, Err(CoreError::Config(_))));
    }

    fn mixed_engine<'a>(
        node: &'a NodeConfig,
        g: &'a TaskGraph,
        dbn: &Arc<Dbn>,
        table: &Arc<FoldTable>,
        fallback: &Arc<helio_ann::CompiledDbn>,
        traces: &'a [SolarTrace],
        harness: &'a helio_faults::FaultHarness,
    ) -> BatchEngine<'a> {
        let mut engine = BatchEngine::new(node, g).unwrap();
        for (i, t) in traces.iter().enumerate() {
            let planner: Box<dyn PeriodPlanner> = match i % 5 {
                0 => Box::new(FixedPlanner::new(Pattern::Inter, 1)),
                1 => Box::new(dbn_planner(dbn)),
                2 => Box::new(ResilientPlanner::new(Box::new(dbn_planner(dbn)))),
                // Odd index, so this scenario also runs under the fault
                // harness (NaN-window inference faults stay batchable).
                3 => Box::new(distilled_planner(table, fallback)),
                _ => Box::new(MpcPlanner::new(
                    Box::new(NoisyOracle::perfect()),
                    24,
                    crate::longterm::DpConfig {
                        voltage_buckets: 4,
                        keep_per_level: 1,
                    },
                    0.5,
                    SwitchRule::default(),
                )),
            };
            let mut sc = BatchScenario::new(t, planner);
            if i % 2 == 1 {
                sc = sc.with_harness(harness);
            }
            engine.push(sc).unwrap();
        }
        engine
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_at_any_kill_period() {
        let node = node();
        let g = benchmarks::ecg();
        let dbn = tiny_dbn(&g);
        let (policy, compiled) = distilled_fixture(&g);
        let table = Arc::new(FoldTable::new(
            Arc::clone(&policy),
            FoldTable::DEFAULT_CAPACITY,
        ));
        let traces: Vec<SolarTrace> = (0..5).map(|s| trace(51 + s)).collect();
        let plan = helio_faults::FaultPlan {
            seed: 9,
            dbn: vec![helio_faults::DbnFault {
                window: helio_faults::PeriodWindow::new(10, 14),
                mode: helio_faults::DbnFaultMode::Nan,
            }],
            ..helio_faults::FaultPlan::default()
        };
        let harness = helio_faults::FaultHarness::new(&plan, 48, 24);
        let whole = mixed_engine(&node, &g, &dbn, &table, &compiled, &traces, &harness)
            .run()
            .unwrap();
        let total = node.grid.total_periods();
        for kill in [0, 1, 17, total - 1, total] {
            // Interrupt at the boundary, round-trip the checkpoint
            // through JSON (as the fleet's on-disk resume does), then
            // finish on a fresh engine with a different shard count.
            let mut engine = mixed_engine(&node, &g, &dbn, &table, &compiled, &traces, &harness);
            let ckpt = pause_at(&mut engine, kill);
            assert_eq!(ckpt.next_period, kill);
            let json = serde_json::to_string(&ckpt).unwrap();
            let restored: crate::checkpoint::BatchCheckpoint = serde_json::from_str(&json).unwrap();
            assert_eq!(restored, ckpt);
            let resumed = mixed_engine(&node, &g, &dbn, &table, &compiled, &traces, &harness)
                .run_span_with(Some(&restored), None, &mut scratches(2));
            let Ok(BatchRunState::Done(resumed)) = resumed else {
                panic!("expected completion, got {resumed:?}");
            };
            for (i, (a, b)) in resumed.iter().zip(&whole).enumerate() {
                assert_eq!(
                    serde_json::to_string(a).unwrap(),
                    serde_json::to_string(b).unwrap(),
                    "scenario {i} diverged after kill at period {kill}"
                );
            }
        }
    }

    #[test]
    fn segmented_resume_matches_uninterrupted_run() {
        // Re-freezing every few periods (the fleet's periodic
        // checkpointing) must also be exact, including resuming a
        // checkpoint into the same engine that produced it.
        let node = node();
        let g = benchmarks::ecg();
        let dbn = tiny_dbn(&g);
        let (policy, compiled) = distilled_fixture(&g);
        let table = Arc::new(FoldTable::new(
            Arc::clone(&policy),
            FoldTable::DEFAULT_CAPACITY,
        ));
        let traces: Vec<SolarTrace> = (0..5).map(|s| trace(91 + s)).collect();
        let harness = helio_faults::FaultHarness::empty();
        let whole = mixed_engine(&node, &g, &dbn, &table, &compiled, &traces, &harness)
            .run()
            .unwrap();
        let total = node.grid.total_periods();
        let mut engine = mixed_engine(&node, &g, &dbn, &table, &compiled, &traces, &harness);
        let mut ckpt = pause_at(&mut engine, 7);
        let mut at = 7;
        while at < total {
            at = (at + 13).min(total);
            let state = engine
                .run_span_with(Some(&ckpt), Some(at), &mut [BatchScratch::default()])
                .unwrap();
            let BatchRunState::Paused(next) = state else {
                panic!("bounded run completed without pausing");
            };
            ckpt = next;
            assert_eq!(ckpt.next_period, at);
        }
        let resumed = engine
            .run_span_with(Some(&ckpt), None, &mut [BatchScratch::default()])
            .unwrap();
        let BatchRunState::Done(resumed) = resumed else {
            panic!("expected completion");
        };
        assert_eq!(resumed, whole);
    }

    #[test]
    fn checkpoint_rejects_mismatched_batches() {
        let node = node();
        let g = benchmarks::ecg();
        let dbn = tiny_dbn(&g);
        let (policy, compiled) = distilled_fixture(&g);
        let table = Arc::new(FoldTable::new(
            Arc::clone(&policy),
            FoldTable::DEFAULT_CAPACITY,
        ));
        let traces: Vec<SolarTrace> = (0..3).map(|s| trace(71 + s)).collect();
        let harness = helio_faults::FaultHarness::empty();
        let mut engine = mixed_engine(&node, &g, &dbn, &table, &compiled, &traces, &harness);
        let mut ckpt = pause_at(&mut engine, 5);

        // Wrong scenario count.
        let mut short = ckpt.clone();
        short.scenarios.pop();
        short.planners.pop();
        let err = mixed_engine(&node, &g, &dbn, &table, &compiled, &traces, &harness)
            .run_span_with(Some(&short), None, &mut [BatchScratch::default()]);
        assert!(matches!(err, Err(CoreError::Config(_))));

        // Planner shape mismatch: rotate the planner checkpoints so a
        // fixed planner receives a proposed snapshot.
        let mut rotated = ckpt.clone();
        rotated.planners.rotate_left(1);
        let err = mixed_engine(&node, &g, &dbn, &table, &compiled, &traces, &harness)
            .run_span_with(Some(&rotated), None, &mut [BatchScratch::default()]);
        assert!(matches!(err, Err(CoreError::Config(_))));

        // Period past the horizon.
        ckpt.next_period = node.grid.total_periods() + 1;
        let err = mixed_engine(&node, &g, &dbn, &table, &compiled, &traces, &harness)
            .run_span_with(Some(&ckpt), None, &mut [BatchScratch::default()]);
        assert!(matches!(err, Err(CoreError::Config(_))));
    }

    #[test]
    fn worker_panic_is_quarantined_into_an_error() {
        struct BombPlanner;
        impl PeriodPlanner for BombPlanner {
            fn name(&self) -> &'static str {
                "bomb"
            }
            fn plan(&mut self, obs: &PlannerObservation<'_>) -> PlanDecision {
                assert!(
                    obs.grid.period_index(obs.period) < 3,
                    "planner exploded at period 3"
                );
                PlanDecision::everything(Pattern::Asap)
            }
        }
        let node = node();
        let g = benchmarks::ecg();
        let t = trace(5);
        let mut engine = BatchEngine::new(&node, &g).unwrap();
        engine
            .push(BatchScenario::new(&t, Box::new(BombPlanner)))
            .unwrap();
        let err = engine.run();
        match err {
            Err(CoreError::WorkerPanic(msg)) => {
                assert!(msg.contains("planner exploded"), "message was {msg}")
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn push_rejects_mismatched_trace() {
        let node = node();
        let g = benchmarks::ecg();
        let other_grid = TimeGrid::new(1, 24, 10, Seconds::new(60.0)).unwrap();
        let wrong = TraceBuilder::new(other_grid, SolarPanel::paper_panel())
            .seed(1)
            .days(&[DayArchetype::Clear])
            .build();
        let mut engine = BatchEngine::new(&node, &g).unwrap();
        assert!(engine.is_empty());
        let err = engine.push(BatchScenario::new(
            &wrong,
            Box::new(FixedPlanner::new(Pattern::Asap, 0)),
        ));
        assert!(matches!(err, Err(CoreError::TraceMismatch(_))));
    }
}
