//! The proposed online planner (paper Section 5).
//!
//! [`ProposedPlanner`] produces the coarse per-period decision from the
//! deep belief network trained offline on optimal samples: it maps
//! (previous-period solar, capacitor voltages, accumulated DMR) to
//! (capacitor, α, task bits), at a cost of microjoules on the node. The
//! network is served by one of three backends: the f64 reference, a
//! compiled (packed f32 or int8) forward, or a distilled decision
//! artifact with the compiled forward as its fallback tier.
//!
//! Every decision passes through the Eq. 22 capacitor-switch rule
//! (don't abandon a charged capacitor) and the `δ` pattern-selection
//! threshold of Section 5.2. The forecast-driven variant of Fig. 10(a)
//! is a planner of its own, [`MpcPlanner`](crate::mpc::MpcPlanner),
//! and shares this module's `decision` step.

use std::sync::Arc;

use helio_ann::{
    CompiledDbn, CompiledScratch, CompiledTier, Dbn, DistilledPolicy, FoldTable, PredictScratch,
};
use helio_common::units::Joules;
use helio_common::TaskSet;
use helio_faults::DbnFaultMode;
use helio_tasks::TaskId;
use serde::{Deserialize, Serialize};

use crate::batch::PlanContext;
use crate::checkpoint::{DistilledState, PlannerCheckpoint, ProposedCheckpoint};
use crate::error::CoreError;
use crate::optimal::OptimalPlanner;
use crate::planner::{PeriodPlanner, PlanDecision, PlannerHealth, PlannerObservation};

/// The Eq. 22 capacitor-switch rule: switch to the suggested capacitor
/// only when the one in use has less than `threshold` usable energy —
/// migrating a charged capacitor's energy away is wasteful.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwitchRule {
    /// The threshold energy `E_th`.
    pub threshold: Joules,
}

impl Default for SwitchRule {
    fn default() -> Self {
        Self {
            threshold: Joules::new(2.0),
        }
    }
}

impl SwitchRule {
    /// Applies Eq. 22: returns the capacitor the PMU should activate.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Storage`] when the bank's active index has
    /// no capacitor.
    #[inline]
    pub fn decide(
        &self,
        obs: &PlannerObservation<'_>,
        suggested: usize,
    ) -> Result<Option<usize>, CoreError> {
        let active = obs.bank.active_index();
        if suggested == active {
            return Ok(Some(active));
        }
        let cap = obs.bank.cap(active)?;
        let state = obs.bank.state(active)?;
        if state.energy_above_cutoff(cap) < self.threshold {
            Ok(Some(suggested))
        } else {
            Ok(None) // keep the charged capacitor
        }
    }
}

enum Backend {
    Dbn {
        /// The trained network, behind an `Arc` so a batch of
        /// scenarios can share one copy (and the batch engine can
        /// group scenarios by pointer identity).
        dbn: Arc<Dbn>,
        /// Inference scratch + output buffer, reused across periods.
        scratch: PredictScratch,
        out_buf: Vec<f64>,
    },
    Compiled {
        /// The compiled artifact (packed f32/int8 weights with the
        /// scaler affine baked in), behind an `Arc` so a fleet can
        /// compile once per trained network and share it.
        compiled: Arc<CompiledDbn>,
        /// Ping-pong activation scratch + output buffer, reused
        /// across periods.
        scratch: CompiledScratch,
        out_buf: Vec<f64>,
    },
    Distilled {
        /// The handle carrying the distilled branch-free decision
        /// artifact, behind an `Arc` so a fleet loads the artifact once
        /// and the batch engine groups every lane holding the same
        /// handle into one batched call.
        table: Arc<FoldTable>,
        /// The compiled network the artifact was distilled from — the
        /// next tier of the decision chain, serving whenever the
        /// artifact is unavailable or violates its contract
        /// (distilled → compiled → the resilient wrapper's inter-task
        /// baseline).
        fallback: Arc<CompiledDbn>,
        /// Fallback forward scratch + shared output buffer.
        scratch: CompiledScratch,
        out_buf: Vec<f64>,
        /// Latched when the artifact errors or the engine reports a
        /// contract violation: the compiled fallback serves for the
        /// rest of the run.
        demoted: bool,
        /// Periods served by the compiled fallback tier.
        tier_fallbacks: u64,
    },
}

impl Backend {
    /// The network output of the period being decided.
    fn out_buf(&mut self) -> &mut Vec<f64> {
        match self {
            Backend::Dbn { out_buf, .. }
            | Backend::Compiled { out_buf, .. }
            | Backend::Distilled { out_buf, .. } => out_buf,
        }
    }
}

/// The proposed long-term deadline-aware online planner.
pub struct ProposedPlanner {
    backend: Backend,
    switch: SwitchRule,
    delta: f64,
    complexity: u64,
    /// DBN input scratch, reused across periods.
    input_buf: Vec<f64>,
    /// Inference fault injected for the upcoming period, if any.
    injected: Option<DbnFaultMode>,
    /// Health of the most recent plan.
    health: PlannerHealth,
    /// Shared cross-scenario precomputation, when driven by a
    /// [`BatchEngine`](crate::batch::BatchEngine).
    ctx: Option<Arc<PlanContext>>,
    /// Run-constant tables for the per-period decision, computed on
    /// first use. This relies on the graph never changing within a
    /// run — re-deriving the dependency closure every period dominated
    /// the decision latency. (Period energies come from the trace's own
    /// table.)
    decide_cache: Option<DbnDecideCache>,
}

/// Run-constant decision tables (see [`ProposedPlanner::decide_cache`]).
struct DbnDecideCache {
    /// Per-task ancestor closure: `{task} ∪ transitive predecessors`.
    /// Unioning these over the admitted bits equals the reference
    /// reverse-topological walk — each walk step only ever adds direct
    /// predecessors of tasks already admitted, so the closed set is
    /// exactly the union of the admitted tasks' ancestor cones.
    closure: Vec<TaskSet>,
    /// `graph.total_energy()`.
    full_load: Joules,
}

impl ProposedPlanner {
    /// Creates the DBN-backed planner (the paper's deployed design).
    pub fn from_dbn(dbn: Dbn, delta: f64, switch: SwitchRule) -> Self {
        Self::from_shared_dbn(Arc::new(dbn), delta, switch)
    }

    /// [`ProposedPlanner::from_dbn`] on an already-shared network:
    /// every scenario in a batch clones the `Arc` instead of the
    /// weights, and the batch engine groups planners whose `Arc`s
    /// point at the same network into one batched forward.
    pub fn from_shared_dbn(dbn: Arc<Dbn>, delta: f64, switch: SwitchRule) -> Self {
        Self {
            backend: Backend::Dbn {
                dbn,
                scratch: PredictScratch::default(),
                out_buf: Vec::new(),
            },
            switch,
            delta,
            complexity: 0,
            input_buf: Vec::new(),
            injected: None,
            health: PlannerHealth::Healthy,
            ctx: None,
            decide_cache: None,
        }
    }

    /// [`ProposedPlanner::from_shared_dbn`] on an already-compiled
    /// network: the hot path runs the packed single-sample forward
    /// instead of the f64 reference. Decisions are covered by the
    /// compiled tolerance contract (see `helio_ann::compiled`), not
    /// bit-identity with the `proposed-dbn` planner.
    pub fn from_compiled_dbn(compiled: Arc<CompiledDbn>, delta: f64, switch: SwitchRule) -> Self {
        Self {
            backend: Backend::Compiled {
                scratch: compiled.make_scratch(),
                out_buf: Vec::with_capacity(compiled.output_dim()),
                compiled,
            },
            switch,
            delta,
            complexity: 0,
            input_buf: Vec::new(),
            injected: None,
            health: PlannerHealth::Healthy,
            ctx: None,
            decide_cache: None,
        }
    }

    /// Builds the planner around a distilled decision artifact with a
    /// compiled network as the next tier down: the artifact serves the
    /// per-decision hot path; the compiled forward takes over when the
    /// artifact is unavailable or violates its contract (and the
    /// resilient wrapper's inter-task baseline sits below that).
    /// Decisions are covered by the artifact's recorded agreement rate
    /// against its teacher, not bit-identity with `proposed-dbn`.
    pub fn from_distilled(
        policy: Arc<DistilledPolicy>,
        fallback: Arc<CompiledDbn>,
        delta: f64,
        switch: SwitchRule,
    ) -> Self {
        let table = Arc::new(FoldTable::new(policy, FoldTable::DEFAULT_CAPACITY));
        Self::from_distilled_with_table(table, fallback, delta, switch)
    }

    /// [`ProposedPlanner::from_distilled`] on an already-shared
    /// [`FoldTable`], the handle carrying the artifact: every scenario
    /// in a batch and every shard hands its planner the same handle,
    /// and the batch engine serves all of them in one batched call.
    pub fn from_distilled_with_table(
        table: Arc<FoldTable>,
        fallback: Arc<CompiledDbn>,
        delta: f64,
        switch: SwitchRule,
    ) -> Self {
        Self {
            backend: Backend::Distilled {
                scratch: fallback.make_scratch(),
                out_buf: Vec::with_capacity(table.policy().output_dim()),
                fallback,
                table,
                demoted: false,
                tier_fallbacks: 0,
            },
            switch,
            delta,
            complexity: 0,
            input_buf: Vec::new(),
            injected: None,
            health: PlannerHealth::Healthy,
            ctx: None,
            decide_cache: None,
        }
    }

    /// Builds the DBN feature vector (previous-period solar powers,
    /// capacitor voltages, accumulated DMR — Fig. 6's inputs) into
    /// `input`, cleared first. Shared by the sequential path, the
    /// batch engine's gather phase (both DBN and distilled slots) and
    /// any recording/replay harness, so every consumer of the
    /// observation layout is identical by construction — this is the
    /// only place that streams `period_powers_raw` + voltages into
    /// feature space.
    #[inline(always)]
    pub fn gather_dbn_input(obs: &PlannerObservation<'_>, input: &mut Vec<f64>) {
        let grid = obs.grid;
        let flat = grid.period_index(obs.period);
        let spp = grid.slots_per_period();
        let dim = spp + obs.bank.len() + 1;
        // Size once, then write through slices: this runs every
        // period, so steady state must be straight stores — no
        // allocation, no per-element capacity checks or `Vec` length
        // bookkeeping, no re-deriving each slot's flat index.
        if input.len() != dim {
            input.clear();
            input.resize(dim, 0.0);
        }
        let (powers, rest) = input.split_at_mut(spp);
        if flat == 0 {
            powers.fill(0.0);
        } else {
            // Slot powers straight from the trace's raw watt slice;
            // the `* 1e3` matches `Watts::milliwatts` bit for bit.
            let prev = grid.period_at(flat - 1);
            for (d, &w) in powers.iter_mut().zip(obs.trace.period_powers_raw(prev)) {
                *d = w * 1e3;
            }
        }
        let (volts, dmr) = rest.split_at_mut(obs.bank.len());
        for (d, v) in volts.iter_mut().zip(obs.bank.voltages_iter()) {
            *d = v;
        }
        dmr[0] = obs.accumulated_dmr;
    }

    /// Builds the run-constant decision tables: each task's ancestor
    /// cone (so closing under dependencies is a mask union per
    /// admitted task, not a graph walk — the DBN's bits are
    /// independent sigmoids, and an admitted task drags in its
    /// predecessors) and the full task-set load. A batch-attached
    /// context supplies the topological order this build consumes.
    #[inline(never)]
    fn build_decide_cache(
        ctx: Option<&PlanContext>,
        obs: &PlannerObservation<'_>,
    ) -> Result<DbnDecideCache, CoreError> {
        let owned;
        let topo: &[TaskId] = if let Some(ctx) = ctx {
            &ctx.topo
        } else {
            owned = obs.graph.topological_order()?;
            &owned
        };
        // Forward-topological pass: every predecessor's cone is
        // finished before its successors union it in.
        let mut closure = vec![TaskSet::EMPTY; obs.graph.len()];
        for &id in topo {
            let mut cone = TaskSet::EMPTY.with(id.index());
            for p in obs.graph.predecessor_set(id).iter() {
                cone = cone.union(closure[p]);
            }
            closure[id.index()] = cone;
        }
        Ok(DbnDecideCache {
            closure,
            full_load: obs.graph.total_energy(),
        })
    }

    /// Turns the network output already sitting in `out_buf` into the
    /// period decision: Nan fault injection, decision-head parsing,
    /// dependency closure and the abundant-solar override. Everything
    /// in [`ProposedPlanner::plan_dbn`] after the inference call lives
    /// here, so the batched path reuses it verbatim.
    #[inline(always)]
    fn decide_dbn(
        &mut self,
        obs: &PlannerObservation<'_>,
    ) -> Result<(usize, f64, TaskSet), CoreError> {
        if self.injected == Some(DbnFaultMode::Nan) {
            // Bit-flipped weights / numerical blow-up: the inference
            // completes but every output is garbage.
            self.backend
                .out_buf()
                .iter_mut()
                .for_each(|o| *o = f64::NAN);
        }
        // Run-constant decision tables, built once (out of line — the
        // build machinery would otherwise keep this whole body from
        // inlining into the per-period caller).
        let cache = match &mut self.decide_cache {
            Some(cache) => &*cache,
            none => &*none.insert(Self::build_decide_cache(self.ctx.as_deref(), obs)?),
        };
        let heads = {
            let out: &[f64] = self.backend.out_buf();
            let head_cap = out.first().copied().unwrap_or(f64::NAN);
            let head_alpha = out.get(1).copied().unwrap_or(f64::NAN);
            if head_cap.is_finite() && head_alpha.is_finite() {
                // Branchless fused parse-and-close: the per-task
                // comparisons are data-dependent coin flips (one
                // mispredict costs more than this whole loop), and
                // unioning each admitted task's ancestor cone directly
                // closes the set in the same pass. Zipping against the
                // cone table (len = graph.len()) also bounds the walk.
                let mut allowed = TaskSet::EMPTY;
                for (&b, &cone) in out[2..].iter().zip(cache.closure.iter()) {
                    allowed = allowed.union(cone.select_if(b >= 0.5));
                }
                Some((head_cap, head_alpha, allowed))
            } else {
                None
            }
        };
        let Some((head_cap, head_alpha, allowed)) = heads else {
            // Non-finite decision head — never act on it.
            self.health = PlannerHealth::NonFinite;
            return Ok((obs.bank.active_index(), 1.0, obs.graph.all_tasks()));
        };
        self.health = PlannerHealth::Healthy;
        let h_max = obs.bank.len().saturating_sub(1) as f64;
        let cap = head_cap.clamp(0.0, h_max).round() as usize;
        let alpha = head_alpha.clamp(0.0, 10.0);
        // Abundant-solar override (the Section 5.2 selection method's
        // "α too small" regime): when the most recent period's harvest
        // alone can power the whole task set through the direct
        // channel, committing to everything is dominant — it costs no
        // stored energy and completes every deadline.
        let flat = obs.grid.period_index(obs.period);
        if flat > 0 {
            let last_harvest = obs.trace.period_energy(obs.grid.period_at(flat - 1));
            let eta = obs.pmu.params().direct_efficiency;
            let full_load = cache.full_load;
            if last_harvest * eta * 0.85 >= full_load {
                let alpha = full_load / (last_harvest * eta);
                return Ok((cap, alpha, obs.graph.all_tasks()));
            }
        }
        Ok((cap, alpha, allowed))
    }

    #[allow(clippy::disallowed_methods)] // the sequential one-decision path is predict_into's home
    fn plan_dbn(
        &mut self,
        obs: &PlannerObservation<'_>,
    ) -> Result<(usize, f64, TaskSet), CoreError> {
        // An injected "primary inference artifact down" fault: the
        // distilled backend steps one tier down to its compiled
        // fallback (unless that tier is already serving), every other
        // backend degrades to the conservative run-everything decision
        // on the current capacitor.
        let unavailable = self.injected == Some(DbnFaultMode::Unavailable);
        if unavailable && !matches!(&self.backend, Backend::Distilled { demoted: false, .. }) {
            self.health = PlannerHealth::DbnUnavailable;
            return Ok((obs.bank.active_index(), 1.0, obs.graph.all_tasks()));
        }
        Self::gather_dbn_input(obs, &mut self.input_buf);
        // One DBN inference ≈ one state expansion worth of work.
        self.complexity += 1;
        let input = &self.input_buf;
        let predict_failed = match &mut self.backend {
            Backend::Dbn {
                dbn,
                scratch,
                out_buf,
            } => dbn.predict_into(input, scratch, out_buf).is_err(),
            Backend::Compiled {
                compiled,
                scratch,
                out_buf,
            } => compiled.forward_into(input, scratch, out_buf).is_err(),
            Backend::Distilled {
                table,
                fallback,
                scratch,
                out_buf,
                demoted,
                tier_fallbacks,
            } => {
                if !*demoted && !unavailable {
                    match table.policy().predict_into(input, out_buf) {
                        Ok(()) => false,
                        Err(_) => {
                            // The artifact broke its contract (shape
                            // drift, corrupt reload): latch the
                            // demotion and let the compiled tier serve
                            // from here on.
                            *demoted = true;
                            *tier_fallbacks += 1;
                            fallback.forward_into(input, scratch, out_buf).is_err()
                        }
                    }
                } else {
                    *tier_fallbacks += 1;
                    fallback.forward_into(input, scratch, out_buf).is_err()
                }
            }
        };
        if predict_failed {
            // Shape mismatch (e.g. trained on another node) — fall
            // back to "run everything".
            self.health = PlannerHealth::DbnUnavailable;
            return Ok((obs.bank.active_index(), 1.0, obs.graph.all_tasks()));
        }
        self.decide_dbn(obs)
    }
}

/// The period decision for a planned `(capacitor, α, subset)`: the
/// Eq. 22 switch rule picks the capacitor and the `δ` threshold picks
/// the pattern. Both online planners end every period here. An
/// internal error (a bank index out of range, a cyclic graph) does not
/// abort the run: it degrades to the conservative run-everything
/// decision on the active capacitor, reported through `health` as
/// [`PlannerHealth::DbnUnavailable`].
pub(crate) fn decision(
    switch: &SwitchRule,
    delta: f64,
    health: &mut PlannerHealth,
    obs: &PlannerObservation<'_>,
    planned: Result<(usize, f64, TaskSet), CoreError>,
) -> PlanDecision {
    let decided = planned.and_then(|(suggested, alpha, allowed)| {
        Ok((switch.decide(obs, suggested)?, alpha, allowed))
    });
    let (capacitor, alpha, allowed) = decided.unwrap_or_else(|_| {
        *health = PlannerHealth::DbnUnavailable;
        (Some(obs.bank.active_index()), 1.0, obs.graph.all_tasks())
    });
    PlanDecision {
        capacitor,
        allowed: Some(allowed),
        pattern: OptimalPlanner::pattern_for_alpha(alpha, delta),
    }
}

impl PeriodPlanner for ProposedPlanner {
    fn name(&self) -> &'static str {
        match &self.backend {
            Backend::Dbn { .. } => "proposed-dbn",
            Backend::Compiled { compiled, .. } => match compiled.tier() {
                CompiledTier::F32 => "compiled-dbn",
                CompiledTier::Int8 => "compiled-dbn-i8",
            },
            Backend::Distilled { .. } => "distilled",
        }
    }

    fn plan(&mut self, obs: &PlannerObservation<'_>) -> PlanDecision {
        let planned = self.plan_dbn(obs);
        decision(&self.switch, self.delta, &mut self.health, obs, planned)
    }

    fn complexity(&self) -> u64 {
        self.complexity
    }

    fn inject_fault(&mut self, mode: Option<DbnFaultMode>) {
        self.injected = mode;
    }

    fn health(&self) -> PlannerHealth {
        self.health
    }

    fn on_contract_violation(&mut self) {
        // The distilled tier does not get a violation budget: one
        // decision the engine had to drop demotes the artifact to its
        // compiled fallback for the rest of the run (the resilient
        // wrapper's own budget then guards the compiled tier). Other
        // planners sharing the artifact are unaffected by this
        // planner's demotion.
        if let Backend::Distilled { demoted, .. } = &mut self.backend {
            *demoted = true;
        }
    }

    fn fallback_count(&self) -> usize {
        match &self.backend {
            Backend::Distilled { tier_fallbacks, .. } => {
                usize::try_from(*tier_fallbacks).unwrap_or(usize::MAX)
            }
            Backend::Dbn { .. } | Backend::Compiled { .. } => 0,
        }
    }

    fn attach_context(&mut self, ctx: &Arc<PlanContext>) {
        self.ctx = Some(Arc::clone(ctx));
    }

    fn save_checkpoint(&self) -> PlannerCheckpoint {
        let distilled = match &self.backend {
            Backend::Distilled {
                demoted,
                tier_fallbacks,
                ..
            } => Some(DistilledState {
                demoted: *demoted,
                tier_fallbacks: *tier_fallbacks,
            }),
            Backend::Dbn { .. } | Backend::Compiled { .. } => None,
        };
        PlannerCheckpoint::Proposed(ProposedCheckpoint {
            complexity: self.complexity,
            health: self.health,
            injected: self.injected,
            distilled,
        })
    }

    fn restore_checkpoint(&mut self, ckpt: &PlannerCheckpoint) -> Result<(), String> {
        let PlannerCheckpoint::Proposed(c) = ckpt else {
            return Err(format!(
                "planner `{}` expects a proposed checkpoint, got {ckpt:?}",
                self.name()
            ));
        };
        self.complexity = c.complexity;
        self.health = c.health;
        self.injected = c.injected;
        match &mut self.backend {
            Backend::Distilled {
                demoted,
                tier_fallbacks,
                ..
            } => {
                let Some(d) = c.distilled.as_ref() else {
                    return Err(
                        "planner `distilled` needs distilled-tier state but the checkpoint has none"
                            .into(),
                    );
                };
                *demoted = d.demoted;
                *tier_fallbacks = d.tier_fallbacks;
            }
            Backend::Dbn { .. } | Backend::Compiled { .. } => {
                if c.distilled.is_some() {
                    return Err(format!(
                        "planner `{}` has no distilled tier but the checkpoint carries one",
                        self.name()
                    ));
                }
            }
        }
        Ok(())
    }

    fn batch_input(&mut self, obs: &PlannerObservation<'_>, input: &mut Vec<f64>) -> bool {
        // Compiled backends decline batch slots by design: their
        // single-sample forward is the fast path, so the batch engine
        // routes them through the per-scenario `plan()` fallback and
        // batched stays identical to sequential for compiled runs.
        let Backend::Dbn { dbn, .. } = &self.backend else {
            return false;
        };
        if self.injected == Some(DbnFaultMode::Unavailable) {
            // The sequential path would skip inference entirely;
            // decline the batch slot so plan() reproduces that.
            return false;
        }
        let input_dim = dbn.input_dim();
        Self::gather_dbn_input(obs, input);
        if input.len() != input_dim {
            // The sequential path pays the complexity increment and
            // then fails predict; declining here routes this scenario
            // through plan(), which does exactly that.
            return false;
        }
        // One DBN inference ≈ one state expansion worth of work — the
        // same accounting plan_dbn does before predicting.
        self.complexity += 1;
        true
    }

    fn batch_dbn(&self) -> Option<Arc<Dbn>> {
        match &self.backend {
            Backend::Dbn { dbn, .. } => Some(Arc::clone(dbn)),
            Backend::Compiled { .. } | Backend::Distilled { .. } => None,
        }
    }

    fn batch_distilled_input(
        &mut self,
        obs: &PlannerObservation<'_>,
        input: &mut Vec<f64>,
    ) -> bool {
        let Backend::Distilled { table, demoted, .. } = &self.backend else {
            return false;
        };
        // A demoted artifact serves from its compiled fallback, and
        // an injected "artifact down" fault steps one tier down;
        // declining the slot routes both through plan(), which
        // reproduces the sequential tier walk exactly. (A Nan fault
        // stays batchable: decide_dbn poisons the output after
        // inference on both paths.)
        if *demoted || self.injected == Some(DbnFaultMode::Unavailable) {
            return false;
        }
        let input_dim = table.policy().input_dim();
        Self::gather_dbn_input(obs, input);
        if input.len() != input_dim {
            // The sequential path pays the complexity increment and
            // then demotes on the failed predict; declining routes
            // this scenario through plan(), which does exactly that.
            return false;
        }
        // One inference ≈ one state expansion worth of work — the
        // same accounting plan_dbn does before predicting.
        self.complexity += 1;
        true
    }

    fn batch_distilled(&self) -> Option<Arc<FoldTable>> {
        match &self.backend {
            Backend::Distilled { table, .. } => Some(Arc::clone(table)),
            Backend::Dbn { .. } | Backend::Compiled { .. } => None,
        }
    }

    fn plan_with_output(&mut self, obs: &PlannerObservation<'_>, out: &[f64]) -> PlanDecision {
        let out_buf = self.backend.out_buf();
        out_buf.clear();
        out_buf.extend_from_slice(out);
        let planned = self.decide_dbn(obs);
        decision(&self.switch, self.delta, &mut self.health, obs, planned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;
    use crate::engine::Engine;
    use helio_common::time::TimeGrid;
    use helio_common::units::{Farads, Seconds};
    use helio_solar::{DayArchetype, SolarPanel, SolarTrace, TraceBuilder};
    use helio_tasks::benchmarks;

    fn grid(days: usize) -> TimeGrid {
        TimeGrid::new(days, 24, 10, Seconds::new(60.0)).unwrap()
    }

    fn node(days: usize) -> NodeConfig {
        NodeConfig::builder(grid(days))
            .capacitors(&[Farads::new(2.0), Farads::new(15.0)])
            .build()
            .unwrap()
    }

    fn trace(days: usize) -> SolarTrace {
        TraceBuilder::new(grid(days), SolarPanel::paper_panel())
            .seed(11)
            .days(&[
                DayArchetype::Clear,
                DayArchetype::BrokenClouds,
                DayArchetype::Overcast,
                DayArchetype::Storm,
            ])
            .build()
    }

    #[test]
    fn switch_rule_keeps_charged_capacitor() {
        let node = node(1);
        let t = trace(1);
        let g = benchmarks::ecg();
        let storage = &node.storage;
        let mut bank = helio_storage::CapacitorBank::new(&node.capacitors, storage).unwrap();
        bank.set_active(0).unwrap();
        bank.charge_active(storage, Joules::new(10.0));
        let obs = PlannerObservation {
            grid: &node.grid,
            period: helio_common::time::PeriodRef::new(0, 0),
            graph: &g,
            trace: &t,
            bank: &bank,
            accumulated_dmr: 0.0,
            storage,
            pmu: &node.pmu,
        };
        let rule = SwitchRule {
            threshold: Joules::new(2.0),
        };
        // Charged above threshold: keep.
        assert_eq!(rule.decide(&obs, 1).unwrap(), None);
        // Same capacitor: trivially allowed.
        assert_eq!(rule.decide(&obs, 0).unwrap(), Some(0));
        // Drain below threshold: switch allowed.
        let mut drained = helio_storage::CapacitorBank::new(&node.capacitors, storage).unwrap();
        drained.set_active(0).unwrap();
        let obs2 = PlannerObservation {
            bank: &drained,
            ..obs
        };
        assert_eq!(rule.decide(&obs2, 1).unwrap(), Some(1));
    }

    #[test]
    fn internal_errors_degrade_to_the_conservative_decision() {
        let node = node(1);
        let t = trace(1);
        let g = benchmarks::ecg();
        let storage = &node.storage;
        let mut bank = helio_storage::CapacitorBank::new(&node.capacitors, storage).unwrap();
        bank.set_active(1).unwrap();
        let obs = PlannerObservation {
            grid: &node.grid,
            period: helio_common::time::PeriodRef::new(0, 3),
            graph: &g,
            trace: &t,
            bank: &bank,
            accumulated_dmr: 0.0,
            storage,
            pmu: &node.pmu,
        };
        // A planning error does not abort the run: it becomes the
        // run-everything decision on the active capacitor.
        let mut health = PlannerHealth::Healthy;
        let failed = Err(CoreError::Config("cyclic graph".into()));
        let d = decision(&SwitchRule::default(), 0.5, &mut health, &obs, failed);
        assert_eq!(health, PlannerHealth::DbnUnavailable);
        assert_eq!(
            d,
            PlanDecision {
                capacitor: Some(1),
                allowed: Some(g.all_tasks()),
                pattern: OptimalPlanner::pattern_for_alpha(1.0, 0.5),
            }
        );
        // A planned decision leaves the health alone.
        let mut health = PlannerHealth::Healthy;
        let planned = Ok((1, 0.2, g.all_tasks()));
        let d = decision(&SwitchRule::default(), 0.5, &mut health, &obs, planned);
        assert_eq!(health, PlannerHealth::Healthy);
        assert_eq!(d.capacitor, Some(1));
    }

    #[test]
    fn dbn_nan_outputs_are_never_acted_on() {
        let g = benchmarks::ecg();
        let node = node(1);
        let t = trace(1);
        let in_dim = 10 + 2 + 1;
        let inputs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64; in_dim]).collect();
        let targets: Vec<Vec<f64>> = (0..20).map(|_| vec![1.0; 2 + g.len()]).collect();
        let dbn = helio_ann::Dbn::train_set(
            &helio_ann::TrainingSet::from_rows(&inputs, &targets).unwrap(),
            &helio_ann::DbnConfig::small(2),
        )
        .unwrap();
        let mut planner = ProposedPlanner::from_dbn(dbn, 0.5, SwitchRule::default());
        let storage = &node.storage;
        let bank = helio_storage::CapacitorBank::new(&node.capacitors, storage).unwrap();
        let obs = PlannerObservation {
            grid: &node.grid,
            period: helio_common::time::PeriodRef::new(0, 0),
            graph: &g,
            trace: &t,
            bank: &bank,
            accumulated_dmr: 0.0,
            storage,
            pmu: &node.pmu,
        };
        planner.inject_fault(Some(DbnFaultMode::Nan));
        let d = planner.plan(&obs);
        assert_eq!(planner.health(), PlannerHealth::NonFinite);
        assert_eq!(d.allowed, Some(g.all_tasks()));
    }

    #[test]
    fn dbn_backend_round_trip() {
        // Train a tiny DBN on synthetic "always run everything on cap 0"
        // samples and check the planner emits sane decisions.
        let node = node(1);
        let t = trace(1);
        let g = benchmarks::ecg();
        let dbn = trained_dbn(&g);
        let mut planner = ProposedPlanner::from_dbn(dbn, 0.5, SwitchRule::default());
        let engine = Engine::new(&node, &g, &t).unwrap();
        let report = engine.run(&mut planner).unwrap();
        assert_eq!(report.planner, "proposed-dbn");
        // The all-ones teaching signal should admit everything.
        assert!(report.overall_dmr() < 1.0);
    }

    fn trained_dbn(g: &helio_tasks::TaskGraph) -> helio_ann::Dbn {
        let in_dim = 10 + 2 + 1;
        let inputs: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let mut v = vec![(i % 7) as f64 * 10.0; in_dim];
                v[in_dim - 1] = 0.3;
                v
            })
            .collect();
        let targets: Vec<Vec<f64>> = (0..40)
            .map(|_| {
                let mut v = vec![0.0, 1.0];
                v.extend(vec![1.0; g.len()]);
                v
            })
            .collect();
        helio_ann::Dbn::train_set(
            &helio_ann::TrainingSet::from_rows(&inputs, &targets).unwrap(),
            &helio_ann::DbnConfig::small(2),
        )
        .unwrap()
    }

    #[test]
    fn compiled_backend_tracks_reference_dmr() {
        // Both compiled tiers must land within the tolerance-contract
        // neighbourhood of the f64 reference planner on a full run.
        let node = node(1);
        let t = trace(1);
        let g = benchmarks::ecg();
        let dbn = trained_dbn(&g);
        let engine = Engine::new(&node, &g, &t).unwrap();
        let reference = engine
            .run(&mut ProposedPlanner::from_shared_dbn(
                Arc::new(dbn.clone()),
                0.5,
                SwitchRule::default(),
            ))
            .unwrap();
        for (tier, name) in [
            (CompiledTier::F32, "compiled-dbn"),
            (CompiledTier::Int8, "compiled-dbn-i8"),
        ] {
            let compiled = Arc::new(CompiledDbn::compile(&dbn, tier).unwrap());
            let mut planner =
                ProposedPlanner::from_compiled_dbn(compiled, 0.5, SwitchRule::default());
            let report = engine.run(&mut planner).unwrap();
            assert_eq!(report.planner, name);
            assert!(
                (report.overall_dmr() - reference.overall_dmr()).abs() < 0.05,
                "{name}: compiled DMR {} vs reference {}",
                report.overall_dmr(),
                reference.overall_dmr()
            );
        }
    }

    #[test]
    fn compiled_backend_faults_degrade_conservatively() {
        let node = node(1);
        let t = trace(1);
        let g = benchmarks::ecg();
        let dbn = trained_dbn(&g);
        let compiled = Arc::new(CompiledDbn::compile(&dbn, CompiledTier::F32).unwrap());
        let mut planner = ProposedPlanner::from_compiled_dbn(compiled, 0.5, SwitchRule::default());
        let storage = &node.storage;
        let bank = helio_storage::CapacitorBank::new(&node.capacitors, storage).unwrap();
        let obs = PlannerObservation {
            grid: &node.grid,
            period: helio_common::time::PeriodRef::new(0, 0),
            graph: &g,
            trace: &t,
            bank: &bank,
            accumulated_dmr: 0.0,
            storage,
            pmu: &node.pmu,
        };
        planner.inject_fault(Some(DbnFaultMode::Unavailable));
        let d = planner.plan(&obs);
        assert_eq!(planner.health(), PlannerHealth::DbnUnavailable);
        assert_eq!(d.allowed, Some(g.all_tasks()));
        planner.inject_fault(Some(DbnFaultMode::Nan));
        let d = planner.plan(&obs);
        assert_eq!(planner.health(), PlannerHealth::NonFinite);
        assert_eq!(d.allowed, Some(g.all_tasks()));
        planner.inject_fault(None);
        let _ = planner.plan(&obs);
        assert_eq!(planner.health(), PlannerHealth::Healthy);
    }

    /// A teacher/student/fallback triple over the synthetic training
    /// set, with a tree small enough for debug-mode test runs.
    fn distilled_pair(
        g: &helio_tasks::TaskGraph,
    ) -> (
        Arc<helio_ann::DistilledPolicy>,
        Arc<CompiledDbn>,
        helio_ann::Dbn,
    ) {
        let dbn = trained_dbn(g);
        let compiled = Arc::new(CompiledDbn::compile(&dbn, CompiledTier::F32).unwrap());
        let cfg = helio_ann::DistillConfig {
            depth_const: 3,
            depth_vary: 3,
            samples: 2048,
            candidates: 16,
            holdout: 512,
            ..helio_ann::DistillConfig::small(3)
        };
        let policy = Arc::new(helio_ann::DistilledPolicy::distill(&dbn, 10, &[], &cfg).unwrap());
        (policy, compiled, dbn)
    }

    #[test]
    fn distilled_backend_tracks_reference_dmr() {
        let node = node(1);
        let t = trace(1);
        let g = benchmarks::ecg();
        let (policy, compiled, dbn) = distilled_pair(&g);
        let engine = Engine::new(&node, &g, &t).unwrap();
        let reference = engine
            .run(&mut ProposedPlanner::from_shared_dbn(
                Arc::new(dbn),
                0.5,
                SwitchRule::default(),
            ))
            .unwrap();
        let mut planner =
            ProposedPlanner::from_distilled(policy, compiled, 0.5, SwitchRule::default());
        let report = engine.run(&mut planner).unwrap();
        assert_eq!(report.planner, "distilled");
        assert!(
            (report.overall_dmr() - reference.overall_dmr()).abs() < 0.05,
            "distilled DMR {} vs reference {}",
            report.overall_dmr(),
            reference.overall_dmr()
        );
        assert_eq!(planner.fallback_count(), 0, "artifact served every period");
    }

    #[test]
    fn distilled_faults_step_down_one_tier_at_a_time() {
        let node = node(1);
        let t = trace(1);
        let g = benchmarks::ecg();
        let (policy, compiled, _) = distilled_pair(&g);
        let mut planner =
            ProposedPlanner::from_distilled(policy, compiled, 0.5, SwitchRule::default());
        let storage = &node.storage;
        let bank = helio_storage::CapacitorBank::new(&node.capacitors, storage).unwrap();
        let obs = PlannerObservation {
            grid: &node.grid,
            period: helio_common::time::PeriodRef::new(0, 0),
            graph: &g,
            trace: &t,
            bank: &bank,
            accumulated_dmr: 0.0,
            storage,
            pmu: &node.pmu,
        };
        // Artifact down, compiled tier up: the fallback serves and the
        // planner stays healthy — the chain has only stepped down once.
        planner.inject_fault(Some(DbnFaultMode::Unavailable));
        let d = planner.plan(&obs);
        assert_eq!(planner.health(), PlannerHealth::Healthy);
        assert!(d.allowed.is_some());
        assert_eq!(planner.fallback_count(), 1);
        // A NaN forward is caught by the finite-output guard regardless
        // of which tier produced it.
        planner.inject_fault(Some(DbnFaultMode::Nan));
        let d = planner.plan(&obs);
        assert_eq!(planner.health(), PlannerHealth::NonFinite);
        assert_eq!(d.allowed, Some(g.all_tasks()));
        // A contract violation latches the demotion: the compiled tier
        // serves from here on even with no fault injected.
        planner.inject_fault(None);
        planner.on_contract_violation();
        let _ = planner.plan(&obs);
        assert_eq!(planner.health(), PlannerHealth::Healthy);
        assert_eq!(planner.fallback_count(), 2);
        // With the artifact demoted, an unavailability fault has no
        // tier left to absorb it: conservative run-everything.
        planner.inject_fault(Some(DbnFaultMode::Unavailable));
        let d = planner.plan(&obs);
        assert_eq!(planner.health(), PlannerHealth::DbnUnavailable);
        assert_eq!(d.allowed, Some(g.all_tasks()));
    }

    #[test]
    fn distilled_checkpoint_round_trips_tier_state() {
        let node = node(1);
        let t = trace(1);
        let g = benchmarks::ecg();
        let (policy, compiled, dbn) = distilled_pair(&g);
        let storage = &node.storage;
        let bank = helio_storage::CapacitorBank::new(&node.capacitors, storage).unwrap();
        let obs = PlannerObservation {
            grid: &node.grid,
            period: helio_common::time::PeriodRef::new(0, 0),
            graph: &g,
            trace: &t,
            bank: &bank,
            accumulated_dmr: 0.0,
            storage,
            pmu: &node.pmu,
        };
        let mut a = ProposedPlanner::from_distilled(
            Arc::clone(&policy),
            Arc::clone(&compiled),
            0.5,
            SwitchRule::default(),
        );
        a.on_contract_violation();
        let _ = a.plan(&obs);
        assert_eq!(a.fallback_count(), 1);
        let ckpt = a.save_checkpoint();
        // A fresh planner restored from the checkpoint must not
        // re-trust the demoted artifact.
        let mut b = ProposedPlanner::from_distilled(policy, compiled, 0.5, SwitchRule::default());
        b.restore_checkpoint(&ckpt).unwrap();
        assert_eq!(b.fallback_count(), 1);
        let _ = b.plan(&obs);
        assert_eq!(
            b.fallback_count(),
            2,
            "restored latch keeps the fallback tier"
        );
        // Tier state is meaningless to other backends.
        let compiled_f32 = Arc::new(CompiledDbn::compile(&dbn, CompiledTier::F32).unwrap());
        let mut c = ProposedPlanner::from_compiled_dbn(compiled_f32, 0.5, SwitchRule::default());
        assert!(c.restore_checkpoint(&ckpt).is_err());
    }
}
