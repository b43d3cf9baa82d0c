//! The static optimal planner — the paper's upper bound ("a static
//! optimal scheduler is provided as an upper bound based on the given
//! solar power", Section 6.3).
//!
//! It runs the long-term DP of Section 4.2 on the *true* solar trace,
//! choosing the best supercapacitor per day and the best task subset
//! per period, then replays those decisions during simulation. The
//! per-period `(observation, decision)` pairs it records double as the
//! DBN training samples of the offline pipeline.

use helio_ann::{Matrix, TrainingSet};
use helio_common::time::PeriodRef;
use helio_common::units::{Joules, Volts};
use helio_par::{par_map_mut, par_map_range};
use helio_sched::SubsetKernel;
use helio_solar::SolarTrace;
use helio_storage::{CapacitorBank, SuperCap};
use helio_tasks::TaskGraph;

use crate::config::NodeConfig;
use crate::error::CoreError;
use crate::longterm::{
    optimize_horizon_memo, CacheStats, DpConfig, DpResult, PeriodPlan, StageMemo,
};
use crate::planner::{Pattern, PeriodPlanner, PlanDecision, PlannerObservation};
use crate::subsets::dmr_level_subsets;

/// The precomputed optimal plan, replayed period by period.
///
/// The recorded per-period `(observation, decision)` pairs are packed
/// into a [`TrainingSet`]: input row `r` holds `[prev-period slot
/// powers (mW) ×N_s, capacitor voltages ×H, accumulated DMR]`, target
/// row `r` holds `[capacitor index, α, te bits ×N]`.
#[derive(Debug, Clone)]
pub struct OptimalPlanner {
    decisions: Vec<(usize, PeriodPlan)>,
    samples: TrainingSet,
    delta: f64,
    complexity: u64,
    cache_stats: CacheStats,
    periods_per_day: usize,
}

impl OptimalPlanner {
    /// Computes the optimal plan for a node/task-set/trace triple.
    ///
    /// `delta` is the pattern-selection threshold of Section 5.2: when
    /// `|1 − α| > delta` the period uses plain inter-task scheduling,
    /// otherwise intra-task load matching.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] variants for invalid configuration or task
    /// sets.
    pub fn compute(
        node: &NodeConfig,
        graph: &TaskGraph,
        trace: &SolarTrace,
        dp: &DpConfig,
        delta: f64,
    ) -> Result<Self, CoreError> {
        if trace.grid() != &node.grid {
            return Err(CoreError::TraceMismatch(
                "optimal planner trace must match the node grid".into(),
            ));
        }
        graph
            .validate(node.grid.period_duration())
            .map_err(|e| CoreError::Tasks(e.to_string()))?;

        let grid = &node.grid;
        let storage = &node.storage;
        let pmu = &node.pmu;
        let slot_duration = grid.slot_duration();
        let subsets = dmr_level_subsets(graph, dp.keep_per_level);
        let caps: Vec<SuperCap> = node
            .capacitors
            .iter()
            .map(|&c| SuperCap::new(c, storage))
            .collect::<Result<_, _>>()?;

        let mut voltages: Vec<Volts> = caps.iter().map(|c| c.v_cutoff()).collect();
        let mut decisions: Vec<(usize, PeriodPlan)> = Vec::with_capacity(grid.total_periods());
        // Per-period observation seeds for the sample builder below:
        // the bank voltages at period start (flat layout, `caps.len()`
        // per period) and the accumulated DMR. Everything else an
        // observation needs is a pure function of the trace or the
        // decision, so recording these two keeps the sequential replay
        // cheap and lets sample extraction fan out per day.
        let mut volt_snap: Vec<f64> = Vec::with_capacity(grid.total_periods() * caps.len());
        let mut dmr_snap: Vec<f64> = Vec::with_capacity(grid.total_periods());
        let mut complexity = 0u64;
        let mut acc_misses = 0usize;
        let mut acc_tasks = 0usize;
        // One stage memo per capacitor, kept across days: every dark
        // period, on any day, is the same stage. Each capacitor's DP
        // runs on one worker, which owns its memo.
        let mut memos: Vec<StageMemo> = caps.iter().map(|_| StageMemo::default()).collect();
        // Replays the chosen plan to advance the active capacitor.
        let mut kernel = SubsetKernel::new(graph, slot_duration);
        let mut banks: Vec<CapacitorBank> =
            caps.iter().map(|&c| CapacitorBank::single(c)).collect();

        for day in 0..grid.days() {
            // Per-period per-slot solar of this day.
            let solar: Vec<Vec<Joules>> = (0..grid.periods_per_day())
                .map(|j| {
                    grid.slots_in(PeriodRef::new(day, j))
                        .map(|s| trace.slot_energy(s))
                        .collect()
                })
                .collect();

            // Choose the day's capacitor: run the DP per candidate and
            // keep the one with the fewest misses (ties: most final
            // energy). The candidates only read the day's solar and
            // their own start voltage, so they run in parallel; the
            // selection below walks the results in candidate order,
            // matching the serial tie-breaking exactly.
            let candidates: Vec<DpResult> = par_map_mut(&mut memos, |h, memo| {
                optimize_horizon_memo(
                    graph,
                    &subsets,
                    &solar,
                    slot_duration,
                    &caps[h],
                    caps[h].state_at(voltages[h]),
                    storage,
                    pmu,
                    dp,
                    memo,
                )
            });
            let mut best: Option<(usize, DpResult)> = None;
            for (h, r) in candidates.into_iter().enumerate() {
                complexity += r.complexity;
                let better = match &best {
                    None => true,
                    Some((bh, br)) => {
                        (r.total_misses, -r.final_voltage.value())
                            < (
                                br.total_misses,
                                -caps[*bh].state_at(br.final_voltage).voltage().value(),
                            )
                    }
                };
                if better {
                    best = Some((h, r));
                }
            }
            let (h_star, result) =
                best.ok_or_else(|| CoreError::Config("node has no capacitors".into()))?;

            // Record decisions and observation seeds, replaying period
            // by period so the snapshot voltages track the bank.
            for (j, plan) in result.plans.iter().enumerate() {
                let acc_dmr = if acc_tasks == 0 {
                    0.0
                } else {
                    acc_misses as f64 / acc_tasks as f64
                };
                volt_snap.extend(voltages.iter().map(|v| v.value()));
                dmr_snap.push(acc_dmr);

                decisions.push((h_star, *plan));
                acc_misses += plan.expected_misses;
                acc_tasks += graph.len();

                // Advance voltages: active capacitor per the plan, the
                // others leak.
                let period_secs = grid.period_duration();
                for (h, (cap, bank)) in caps.iter().zip(&mut banks).enumerate() {
                    if h == h_star {
                        bank.set_active_state(cap.state_at(voltages[h]));
                        kernel.run(plan.subset, &solar[j], bank, pmu, storage);
                        voltages[h] = bank.active_state().voltage();
                    } else {
                        let mut state = cap.state_at(voltages[h]);
                        cap.leak(&mut state, storage, period_secs);
                        voltages[h] = state.voltage();
                    }
                }
            }
        }

        // Build the packed training set from the recorded seeds. Each
        // day's rows depend only on the trace, the decisions, and that
        // day's snapshots, so extraction fans out across workers; the
        // day-ordered merge makes the result identical for any thread
        // count (including serial).
        let n_caps = caps.len();
        let spp = grid.slots_per_period();
        let ppd = grid.periods_per_day();
        let in_dim = spp + n_caps + 1;
        let out_dim = 2 + graph.len();
        let chunks: Vec<(Vec<f64>, Vec<f64>)> =
            par_map_range(grid.days(), |day| {
                let mut ins = Vec::with_capacity(ppd * in_dim);
                let mut outs = Vec::with_capacity(ppd * out_dim);
                for j in 0..ppd {
                    let flat = day * ppd + j;
                    // Previous period's slot powers (mW); zeros before the
                    // first period.
                    if flat == 0 {
                        ins.extend(std::iter::repeat_n(0.0, spp));
                    } else {
                        let prev = grid.period_at(flat - 1);
                        ins.extend(trace.period_powers(prev).iter().map(|p| p.milliwatts()));
                    }
                    ins.extend_from_slice(&volt_snap[flat * n_caps..(flat + 1) * n_caps]);
                    ins.push(dmr_snap[flat]);

                    let (h_star, plan) = &decisions[flat];
                    outs.push(*h_star as f64);
                    outs.push(plan.alpha);
                    outs.extend((0..graph.len()).map(|i| {
                        if plan.subset.contains(i) {
                            1.0
                        } else {
                            0.0
                        }
                    }));
                }
                (ins, outs)
            });
        let total = grid.total_periods();
        let mut flat_in = Vec::with_capacity(total * in_dim);
        let mut flat_out = Vec::with_capacity(total * out_dim);
        for (ins, outs) in chunks {
            flat_in.extend_from_slice(&ins);
            flat_out.extend_from_slice(&outs);
        }
        let samples = TrainingSet::new(
            Matrix::from_flat(total, in_dim, flat_in)?,
            Matrix::from_flat(total, out_dim, flat_out)?,
        )?;

        Ok(Self {
            decisions,
            samples,
            delta,
            complexity,
            cache_stats: memos
                .iter()
                .fold(CacheStats::default(), |acc, m| CacheStats {
                    hits: acc.hits + m.stats().hits,
                    misses: acc.misses + m.stats().misses,
                }),
            periods_per_day: grid.periods_per_day(),
        })
    }

    /// The recorded DBN training samples, packed one observation/
    /// decision pair per matrix row.
    pub fn samples(&self) -> &TrainingSet {
        &self.samples
    }

    /// Hit/miss counters of the per-capacitor stage memos, in DP cells
    /// (the forward replays run the kernel directly and are not
    /// counted).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats
    }

    /// The per-period plans (capacitor index, plan).
    pub fn decisions(&self) -> &[(usize, PeriodPlan)] {
        &self.decisions
    }

    /// Pattern chosen by the `δ` rule for a given `α`.
    pub fn pattern_for_alpha(alpha: f64, delta: f64) -> Pattern {
        if (1.0 - alpha).abs() > delta {
            Pattern::Inter
        } else {
            Pattern::Intra
        }
    }
}

impl PeriodPlanner for OptimalPlanner {
    fn name(&self) -> &'static str {
        "optimal"
    }

    fn plan(&mut self, obs: &PlannerObservation<'_>) -> PlanDecision {
        let flat = obs.period.day * self.periods_per_day + obs.period.period;
        match self.decisions.get(flat) {
            Some((cap, plan)) => PlanDecision {
                capacitor: Some(*cap),
                allowed: Some(plan.subset),
                pattern: Self::pattern_for_alpha(plan.alpha, self.delta),
            },
            None => PlanDecision::everything(Pattern::Intra),
        }
    }

    fn complexity(&self) -> u64 {
        self.complexity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::planner::FixedPlanner;
    use helio_common::time::TimeGrid;
    use helio_common::units::{Farads, Seconds};
    use helio_solar::{DayArchetype, SolarPanel, TraceBuilder};
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

    fn trace() -> SolarTrace {
        TraceBuilder::new(grid(), SolarPanel::paper_panel())
            .seed(3)
            .days(&[DayArchetype::Clear, DayArchetype::Overcast])
            .build()
    }

    #[test]
    fn optimal_beats_or_matches_baselines() {
        let node = node();
        let t = trace();
        let g = benchmarks::ecg();
        let mut optimal =
            OptimalPlanner::compute(&node, &g, &t, &DpConfig::default(), 0.5).unwrap();
        let engine = Engine::new(&node, &g, &t).unwrap();
        let opt_report = engine.run(&mut optimal).unwrap();
        for pattern in [Pattern::Intra, Pattern::Inter, Pattern::Asap] {
            for cap in 0..2 {
                let base = engine.run(&mut FixedPlanner::new(pattern, cap)).unwrap();
                assert!(
                    opt_report.overall_dmr() <= base.overall_dmr() + 0.02,
                    "optimal {} must beat {}@{cap} {}",
                    opt_report.overall_dmr(),
                    base.planner,
                    base.overall_dmr()
                );
            }
        }
    }

    #[test]
    fn samples_have_consistent_shapes() {
        let node = node();
        let t = trace();
        let g = benchmarks::ecg();
        let planner = OptimalPlanner::compute(&node, &g, &t, &DpConfig::default(), 0.5).unwrap();
        let set = planner.samples();
        assert_eq!(set.len(), grid().total_periods());
        assert_eq!(set.input_dim(), grid().slots_per_period() + 2 + 1);
        assert_eq!(set.output_dim(), 2 + g.len());
        for r in 0..set.len() {
            let target = set.targets.row(r);
            assert!(target[0] == 0.0 || target[0] == 1.0, "cap index");
            assert!((0.0..=10.0).contains(&target[1]), "alpha");
            // te bits are exactly 0/1.
            assert!(target[2..].iter().all(|&b| b == 0.0 || b == 1.0));
        }
        // The first observation has no previous period: its solar
        // features are zero, and the snapshot voltages start at the
        // cutoff (both capacitors uncharged but valid).
        let first = set.inputs.row(0);
        assert!(first[..grid().slots_per_period()].iter().all(|&p| p == 0.0));
        assert_eq!(set.inputs.row(1).len(), set.input_dim());
    }

    /// Sample extraction fans out per day with a day-ordered merge:
    /// repeated runs must pack byte-identical sets however the OS
    /// schedules the workers.
    #[test]
    fn sample_extraction_is_deterministic() {
        let node = node();
        let t = trace();
        let g = benchmarks::ecg();
        let a = OptimalPlanner::compute(&node, &g, &t, &DpConfig::default(), 0.5).unwrap();
        let b = OptimalPlanner::compute(&node, &g, &t, &DpConfig::default(), 0.5).unwrap();
        assert_eq!(a.samples(), b.samples());
    }

    #[test]
    fn pattern_rule_matches_paper() {
        assert_eq!(
            OptimalPlanner::pattern_for_alpha(10.0, 0.5),
            Pattern::Inter,
            "no solar at night: plain inter-task"
        );
        assert_eq!(
            OptimalPlanner::pattern_for_alpha(1.1, 0.5),
            Pattern::Intra,
            "balanced load: fine-grained matching pays off"
        );
        assert_eq!(
            OptimalPlanner::pattern_for_alpha(0.05, 0.5),
            Pattern::Inter,
            "abundant solar: intra-task effort is unnecessary"
        );
    }

    #[test]
    fn complexity_is_reported() {
        let node = node();
        let t = trace();
        let g = benchmarks::ecg();
        let planner = OptimalPlanner::compute(&node, &g, &t, &DpConfig::default(), 0.5).unwrap();
        assert!(planner.complexity() > 1000);
        let stats = planner.cache_stats();
        // Night periods repeat, so the stage memos must see reuse.
        assert!(stats.hits > 0, "{stats:?}");
        assert!(stats.hit_rate() > 0.0 && stats.hit_rate() < 1.0);
    }
}
