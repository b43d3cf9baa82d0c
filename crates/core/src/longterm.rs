//! The simplified long-term DMR optimisation (paper Section 4.2,
//! Eqs. 12–18): choose a per-period DMR level (equivalently, a task
//! subset) and track the supercapacitor state so that total misses over
//! the horizon are minimised.
//!
//! The paper's formulation has complexity `O((N+1)^{N_p·N_d})`; this
//! implementation solves it exactly (up to capacitor-state
//! quantisation) by value iteration backward over periods with the
//! capacitor's stored energy quantised into buckets — the standard
//! trick that turns the exponential sequence search into
//! `O(periods × buckets × subsets)`.
//!
//! ## Stage memo
//!
//! A stage's transitions — `(misses, next bucket)` for every
//! bucket × subset cell — depend only on the period's solar profile
//! once the graph, the subsets, the capacitor and the bucket grid are
//! fixed. Horizons repeat profiles heavily (every dark period is the
//! same), so `StageMemo` keeps one transition table per distinct
//! profile, keyed on its exact `f64` bits: a memoised stage is
//! bitwise the table the kernel would compute again. The value
//! iteration then only reads tables. The forward replay starts from
//! exact voltages, off the bucket grid, so it runs the kernel directly.

use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;

use helio_common::units::{Joules, Seconds, Volts};
use helio_common::TaskSet;
use helio_nvp::Pmu;
use helio_par::{configured_threads, par_map_ranges};
use helio_sched::{SubsetKernel, SubsetOutcome};
use helio_storage::{CapState, CapacitorBank, StorageModelParams, SuperCap};
use helio_tasks::TaskGraph;
use serde::{Deserialize, Serialize};

/// DP resolution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DpConfig {
    /// Number of stored-energy buckets for the capacitor state.
    pub voltage_buckets: usize,
    /// Subsets kept per DMR level (see
    /// [`dmr_level_subsets`](crate::subsets::dmr_level_subsets)).
    pub keep_per_level: usize,
}

impl Default for DpConfig {
    fn default() -> Self {
        Self {
            voltage_buckets: 12,
            keep_per_level: 2,
        }
    }
}

/// The plan for one period produced by the DP.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeriodPlan {
    /// Committed task subset (`te_{i,j}(n)` bits).
    pub subset: TaskSet,
    /// Scheduling-pattern index `α` (Eq. 18): committed load energy
    /// over solar supply. Clamped to `[0, 10]`; 10 denotes "no solar".
    pub alpha: f64,
    /// Misses the plan expects this period.
    pub expected_misses: usize,
    /// Capacitor energy the plan expects to draw (`E^c`, Eq. 15).
    pub cap_energy: Joules,
}

/// Result of optimising one horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DpResult {
    /// One plan per period of the horizon.
    pub plans: Vec<PeriodPlan>,
    /// Total expected misses over the horizon.
    pub total_misses: usize,
    /// Capacitor voltage after replaying the horizon.
    pub final_voltage: Volts,
    /// State expansions performed (the complexity metric of
    /// Fig. 10a).
    pub complexity: u64,
}

/// Hit/miss counters of a `StageMemo`, in DP cells: a cell served
/// from a memoised stage is a hit, a cell the kernel filled is a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of cells served from the memo (0 when unused).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One DP cell's transition: misses this period and the bucket the
/// capacitor ends in.
type Cell = (usize, usize);

/// Memoised DP stages of one capacitor: one transition table per
/// distinct solar profile, bucket-major over `bucket × subset` cells.
///
/// The key is the profile alone, so one memo serves one DP setup —
/// graph, subsets, capacitor, bucket count, slot duration, storage and
/// PMU. [`OptimalPlanner`](crate::OptimalPlanner) keeps one per
/// capacitor; [`optimize_horizon`] one per call.
#[derive(Debug, Default)]
pub(crate) struct StageMemo {
    tables: HashMap<Vec<u64>, Vec<Cell>>,
    stats: CacheStats,
}

impl StageMemo {
    /// Cell counters so far.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The transition table of a stage with `solar`, filled by the
    /// kernel, in parallel, on first sight.
    fn table(&mut self, dp: &Dp<'_>, solar: &[Joules]) -> &[Cell] {
        let cells = (dp.buckets * dp.subsets.len()) as u64;
        match self
            .tables
            .entry(solar.iter().map(|e| e.value().to_bits()).collect())
        {
            Entry::Occupied(e) => {
                self.stats.hits += cells;
                e.into_mut()
            }
            Entry::Vacant(e) => {
                self.stats.misses += cells;
                e.insert(dp.table(solar, true))
            }
        }
    }
}

/// Maps a bucket index to a voltage (uniform in stored energy).
fn bucket_voltage(cap: &SuperCap, bucket: usize, buckets: usize) -> Volts {
    let frac = bucket as f64 / (buckets - 1).max(1) as f64;
    let lo = cap.v_cutoff().value();
    let hi = cap.v_full().value();
    Volts::new((lo * lo + frac * (hi * hi - lo * lo)).sqrt())
}

/// Maps a voltage to its nearest bucket.
fn voltage_bucket(cap: &SuperCap, v: Volts, buckets: usize) -> usize {
    let lo = cap.v_cutoff().value();
    let hi = cap.v_full().value();
    let frac = ((v.value() * v.value() - lo * lo) / (hi * hi - lo * lo)).clamp(0.0, 1.0);
    (frac * (buckets - 1).max(1) as f64).round() as usize
}

/// Everything a DP cell depends on besides the stage's solar profile
/// and the start bucket.
struct Dp<'a> {
    graph: &'a TaskGraph,
    subsets: &'a [TaskSet],
    slot_duration: Seconds,
    cap: &'a SuperCap,
    storage: &'a StorageModelParams,
    pmu: &'a Pmu,
    buckets: usize,
}

impl<'a> Dp<'a> {
    fn new(
        graph: &'a TaskGraph,
        subsets: &'a [TaskSet],
        slot_duration: Seconds,
        cap: &'a SuperCap,
        storage: &'a StorageModelParams,
        pmu: &'a Pmu,
        cfg: &DpConfig,
    ) -> Self {
        Self {
            graph,
            subsets,
            slot_duration,
            cap,
            storage,
            pmu,
            buckets: cfg.voltage_buckets.max(2),
        }
    }

    /// A kernel with a one-capacitor bank to run it on.
    fn stepper(&self) -> Stepper {
        Stepper {
            kernel: SubsetKernel::new(self.graph, self.slot_duration),
            bank: CapacitorBank::single(*self.cap),
        }
    }

    /// Simulates one period of `subset` from `voltage`, returning the
    /// outcome and the final voltage.
    fn step(
        &self,
        stepper: &mut Stepper,
        subset: TaskSet,
        solar: &[Joules],
        voltage: Volts,
    ) -> (SubsetOutcome, Volts) {
        let Stepper { kernel, bank } = stepper;
        bank.set_active_state(self.cap.state_at(voltage));
        let outcome = kernel.run(subset, solar, bank, self.pmu, self.storage);
        (outcome, bank.active_state().voltage())
    }

    /// The transition table of one stage, computed by the kernel. With
    /// `parallel`, bucket rows split across workers, each with its own
    /// kernel; rows come back in bucket order.
    fn table(&self, solar: &[Joules], parallel: bool) -> Vec<Cell> {
        let rows = |range: Range<usize>| {
            let mut stepper = self.stepper();
            let mut cells = Vec::with_capacity(range.len() * self.subsets.len());
            for b in range {
                let v0 = bucket_voltage(self.cap, b, self.buckets);
                for &subset in self.subsets {
                    let (outcome, v1) = self.step(&mut stepper, subset, solar, v0);
                    cells.push((outcome.misses, voltage_bucket(self.cap, v1, self.buckets)));
                }
            }
            cells
        };
        if parallel {
            let chunk = self.buckets.div_ceil(configured_threads());
            par_map_ranges(self.buckets, chunk, rows).concat()
        } else {
            rows(0..self.buckets)
        }
    }
}

/// The kernel and bank one worker simulates periods with.
struct Stepper {
    kernel: SubsetKernel,
    bank: CapacitorBank,
}

/// The scheduling-pattern index `α` of Eq. 18.
pub fn alpha_index(graph: &TaskGraph, subset: TaskSet, solar_energy: Joules) -> f64 {
    let load: f64 = graph
        .ids()
        .filter(|id| subset.contains(id.index()))
        .map(|id| graph.task(id).energy().value())
        .sum();
    if solar_energy.value() <= 1e-9 {
        if load > 0.0 {
            10.0
        } else {
            0.0
        }
    } else {
        (load / solar_energy.value()).clamp(0.0, 10.0)
    }
}

/// Optimises one horizon of periods for a single capacitor.
///
/// `solar[p]` holds the per-slot harvested energies of period `p`
/// (true values for the offline optimum, predicted values for the
/// online [`MpcPlanner`](crate::mpc::MpcPlanner)). Returns the per-period plans obtained by
/// backward value iteration plus a forward replay from
/// `initial` (the replay uses exact voltages, so the plans line up
/// with what a simulator will actually see).
///
/// `cap` must be built with `storage`. Stages that repeat a solar
/// profile are simulated once (see the module docs). An empty `solar`
/// or `subsets` yields the empty plan, and `subsets` bits outside the
/// graph are ignored, as in [`helio_sched::simulate_subset`].
#[allow(clippy::too_many_arguments)]
pub fn optimize_horizon(
    graph: &TaskGraph,
    subsets: &[TaskSet],
    solar: &[Vec<Joules>],
    slot_duration: Seconds,
    cap: &SuperCap,
    initial: CapState,
    storage: &StorageModelParams,
    pmu: &Pmu,
    cfg: &DpConfig,
) -> DpResult {
    optimize_horizon_memo(
        graph,
        subsets,
        solar,
        slot_duration,
        cap,
        initial,
        storage,
        pmu,
        cfg,
        &mut StageMemo::default(),
    )
}

/// [`optimize_horizon`] reading and filling a caller-held stage memo,
/// so repeated DP runs on one capacitor (one per day) share stages.
#[allow(clippy::too_many_arguments)]
pub(crate) fn optimize_horizon_memo(
    graph: &TaskGraph,
    subsets: &[TaskSet],
    solar: &[Vec<Joules>],
    slot_duration: Seconds,
    cap: &SuperCap,
    initial: CapState,
    storage: &StorageModelParams,
    pmu: &Pmu,
    cfg: &DpConfig,
    memo: &mut StageMemo,
) -> DpResult {
    let dp = Dp::new(graph, subsets, slot_duration, cap, storage, pmu, cfg);
    run_horizon(&dp, solar, initial, Some(memo))
}

/// [`optimize_horizon`] with no memo and no worker threads — every
/// stage is simulated afresh; the reference implementation the
/// differential tests compare against.
#[allow(clippy::too_many_arguments)]
pub fn optimize_horizon_serial(
    graph: &TaskGraph,
    subsets: &[TaskSet],
    solar: &[Vec<Joules>],
    slot_duration: Seconds,
    cap: &SuperCap,
    initial: CapState,
    storage: &StorageModelParams,
    pmu: &Pmu,
    cfg: &DpConfig,
) -> DpResult {
    let dp = Dp::new(graph, subsets, slot_duration, cap, storage, pmu, cfg);
    run_horizon(&dp, solar, initial, None)
}

/// Backward value iteration over the stage tables (memoised and
/// parallel with a memo, fresh and serial without), then the forward
/// replay.
fn run_horizon(
    dp: &Dp<'_>,
    solar: &[Vec<Joules>],
    initial: CapState,
    mut memo: Option<&mut StageMemo>,
) -> DpResult {
    // Degenerate horizons (no periods, no candidate subsets) have a
    // well-defined empty optimum; returning it keeps fault-injected
    // callers alive instead of aborting the run.
    if solar.is_empty() || dp.subsets.is_empty() {
        return DpResult {
            plans: Vec::new(),
            total_misses: 0,
            final_voltage: initial.voltage(),
            complexity: 0,
        };
    }
    let (cap, buckets, subsets) = (dp.cap, dp.buckets, dp.subsets);

    // value[b]: (misses-to-go, -final-energy) from the *next* stage.
    // Terminal: zero misses, reward stored energy as the tie-break so
    // equally-missing plans keep charge for the future.
    let mut value: Vec<(f64, f64)> = (0..buckets)
        .map(|b| {
            let v = bucket_voltage(cap, b, buckets);
            (0.0, -cap.capacitance().stored_energy(v).value())
        })
        .collect();
    // choice[p][b] = best subset index at period p from bucket b.
    let mut choice = vec![vec![0usize; buckets]; solar.len()];
    let mut fresh: Vec<Cell>;

    for (p, solar_p) in solar.iter().enumerate().rev() {
        let table: &[Cell] = match memo.as_deref_mut() {
            Some(memo) => memo.table(dp, solar_p),
            None => {
                fresh = dp.table(solar_p, false);
                &fresh
            }
        };
        let mut new_value = vec![(f64::INFINITY, f64::INFINITY); buckets];
        for (b, row) in table.chunks_exact(subsets.len()).enumerate() {
            let mut best = (f64::INFINITY, f64::INFINITY);
            for (si, &(misses, b1)) in row.iter().enumerate() {
                let next = value[b1];
                let cand = (misses as f64 + next.0, next.1);
                if cand < best {
                    best = cand;
                    choice[p][b] = si;
                }
            }
            new_value[b] = best;
        }
        value = new_value;
    }

    // Forward replay with exact voltages.
    let mut stepper = dp.stepper();
    let mut plans = Vec::with_capacity(solar.len());
    let mut voltage = initial.voltage();
    let mut total_misses = 0usize;
    for (p, solar_p) in solar.iter().enumerate() {
        let b = voltage_bucket(cap, voltage, buckets);
        let subset = subsets[choice[p][b]];
        let (outcome, v1) = dp.step(&mut stepper, subset, solar_p, voltage);
        let solar_energy: Joules = solar_p.iter().copied().sum();
        plans.push(PeriodPlan {
            subset,
            alpha: alpha_index(dp.graph, subset, solar_energy),
            expected_misses: outcome.misses,
            cap_energy: outcome.cap_drawn,
        });
        total_misses += outcome.misses;
        voltage = v1;
    }

    DpResult {
        plans,
        total_misses,
        final_voltage: voltage,
        // Every stage expands every (bucket, subset) cell, memoised or
        // not.
        complexity: (solar.len() * buckets * subsets.len()) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subsets::dmr_level_subsets;
    use helio_common::units::{Farads, Seconds};
    use helio_tasks::benchmarks;

    const SLOT: Seconds = Seconds::new(60.0);
    const SLOTS: usize = 10;

    fn setup() -> (TaskGraph, SuperCap, StorageModelParams, Pmu) {
        let storage = StorageModelParams::default();
        let cap = SuperCap::new(Farads::new(10.0), &storage).unwrap();
        (benchmarks::ecg(), cap, storage, Pmu::default())
    }

    use helio_tasks::TaskGraph;

    fn sunny_period() -> Vec<Joules> {
        vec![Joules::new(8.0); SLOTS]
    }

    fn dark_period() -> Vec<Joules> {
        vec![Joules::ZERO; SLOTS]
    }

    #[test]
    fn sunny_horizon_completes_everything() {
        let (g, cap, storage, pmu) = setup();
        let subsets = dmr_level_subsets(&g, 2);
        let solar = vec![sunny_period(); 4];
        let r = optimize_horizon(
            &g,
            &subsets,
            &solar,
            SLOT,
            &cap,
            cap.empty_state(),
            &storage,
            &pmu,
            &DpConfig::default(),
        );
        assert_eq!(r.total_misses, 0, "{r:?}");
        assert!(r.plans.iter().all(|p| p.subset == g.all_tasks()));
        assert!(r.complexity > 0);
    }

    #[test]
    fn dp_banks_energy_for_the_night() {
        // Two sunny periods followed by four dark ones: the DP should
        // store enough during the day to keep completing work at night,
        // unlike a greedy full-subset run.
        let (g, cap, storage, pmu) = setup();
        let subsets = dmr_level_subsets(&g, 2);
        let mut solar = vec![sunny_period(), sunny_period()];
        solar.extend(vec![dark_period(); 4]);
        let r = optimize_horizon(
            &g,
            &subsets,
            &solar,
            SLOT,
            &cap,
            cap.empty_state(),
            &storage,
            &pmu,
            &DpConfig::default(),
        );
        // Greedy everything-every-period for comparison.
        let full = g.all_tasks();
        let mut bank = CapacitorBank::single(cap);
        let mut greedy_misses = 0;
        for p in &solar {
            greedy_misses +=
                helio_sched::simulate_subset(&g, full, p, SLOT, &mut bank, &pmu, &storage).misses;
        }
        assert!(
            r.total_misses <= greedy_misses,
            "DP {} must not lose to greedy {}",
            r.total_misses,
            greedy_misses
        );
        // At least one night period should still complete something.
        let night_completions: usize = r.plans[2..].iter().map(|p| p.subset.len()).sum();
        assert!(night_completions > 0, "{:?}", r.plans);
    }

    #[test]
    fn alpha_reflects_load_to_supply_ratio() {
        let (g, ..) = setup();
        let full = g.all_tasks();
        let empty = TaskSet::EMPTY;
        // ECG total energy ≈ 12.2 J.
        let a = alpha_index(&g, full, Joules::new(12.2));
        assert!((a - 1.0).abs() < 0.05, "alpha {a}");
        assert_eq!(alpha_index(&g, full, Joules::ZERO), 10.0);
        assert_eq!(alpha_index(&g, empty, Joules::ZERO), 0.0);
        assert!(alpha_index(&g, full, Joules::new(50.0)) < 0.5);
    }

    #[test]
    fn bucket_round_trips() {
        let (_, cap, ..) = setup();
        for b in 0..12 {
            let v = bucket_voltage(&cap, b, 12);
            assert_eq!(voltage_bucket(&cap, v, 12), b);
        }
        // Extremes map to the ends.
        assert_eq!(voltage_bucket(&cap, cap.v_cutoff(), 12), 0);
        assert_eq!(voltage_bucket(&cap, cap.v_full(), 12), 11);
    }

    #[test]
    fn memoised_parallel_dp_matches_serial_reference() {
        let (g, cap, storage, pmu) = setup();
        let subsets = dmr_level_subsets(&g, 2);
        let mut solar = vec![sunny_period(), sunny_period()];
        solar.extend(vec![dark_period(); 3]);
        let cfg = DpConfig::default();
        let fast = optimize_horizon(
            &g,
            &subsets,
            &solar,
            SLOT,
            &cap,
            cap.empty_state(),
            &storage,
            &pmu,
            &cfg,
        );
        let reference = optimize_horizon_serial(
            &g,
            &subsets,
            &solar,
            SLOT,
            &cap,
            cap.empty_state(),
            &storage,
            &pmu,
            &cfg,
        );
        assert_eq!(fast, reference);
        assert_eq!(
            fast.final_voltage.value().to_bits(),
            reference.final_voltage.value().to_bits(),
            "replay voltages must match bitwise"
        );
    }

    #[test]
    fn stage_memo_reuses_repeated_periods() {
        let (g, cap, storage, pmu) = setup();
        let subsets = dmr_level_subsets(&g, 2);
        let solar = vec![dark_period(); 4];
        let mut memo = StageMemo::default();
        let cfg = DpConfig::default();
        let r = optimize_horizon_memo(
            &g,
            &subsets,
            &solar,
            SLOT,
            &cap,
            cap.empty_state(),
            &storage,
            &pmu,
            &cfg,
            &mut memo,
        );
        // Four identical dark periods: the first stage fills the table,
        // the other three read it.
        let cells = (cfg.voltage_buckets * subsets.len()) as u64;
        assert_eq!(
            memo.stats(),
            CacheStats {
                hits: 3 * cells,
                misses: cells
            }
        );
        assert_eq!(memo.tables.len(), 1);
        // Complexity still counts every expansion, hit or miss.
        assert_eq!(r.complexity, 4 * cells);
        // A second day on the same capacitor is served entirely from
        // the memo, and plans exactly as a fresh run does.
        let again = optimize_horizon_memo(
            &g,
            &subsets,
            &solar,
            SLOT,
            &cap,
            cap.empty_state(),
            &storage,
            &pmu,
            &cfg,
            &mut memo,
        );
        assert_eq!(again, r);
        assert_eq!(memo.stats().misses, cells);
    }

    /// The memo key holds every slot's exact bits: two profiles that
    /// differ in one slot by the smallest representable amount are two
    /// stages, whichever slot it is.
    #[test]
    fn memo_key_covers_every_slot_bit_exactly() {
        let (g, cap, storage, pmu) = setup();
        let subsets = dmr_level_subsets(&g, 1);
        let cfg = DpConfig::default();
        let cells = (cfg.voltage_buckets * subsets.len()) as u64;
        for k in 0..SLOTS {
            let mut nudged = dark_period();
            nudged[k] = Joules::new(f64::from_bits(1));
            let mut memo = StageMemo::default();
            optimize_horizon_memo(
                &g,
                &subsets,
                &[dark_period(), nudged],
                SLOT,
                &cap,
                cap.empty_state(),
                &storage,
                &pmu,
                &cfg,
                &mut memo,
            );
            assert_eq!(
                memo.stats().misses,
                2 * cells,
                "slot {k} dropped from the key"
            );
        }
    }

    #[test]
    fn complexity_scales_with_horizon() {
        let (g, cap, storage, pmu) = setup();
        let subsets = dmr_level_subsets(&g, 1);
        let short = optimize_horizon(
            &g,
            &subsets,
            &vec![sunny_period(); 2],
            SLOT,
            &cap,
            cap.empty_state(),
            &storage,
            &pmu,
            &DpConfig::default(),
        );
        let long = optimize_horizon(
            &g,
            &subsets,
            &vec![sunny_period(); 8],
            SLOT,
            &cap,
            cap.empty_state(),
            &storage,
            &pmu,
            &DpConfig::default(),
        );
        assert_eq!(long.complexity, 4 * short.complexity);
    }
}
