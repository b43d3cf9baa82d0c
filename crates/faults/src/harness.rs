//! Materialising a [`FaultPlan`] against a concrete time grid.
//!
//! The harness precomputes one lookup row per flat period so the
//! engine's hot loop pays a single bounds-checked index per query —
//! and nothing at all when the plan is empty.

use helio_common::rng::derive;
use rand::Rng;

use crate::plan::{DbnFaultMode, FaultPlan, ForecastMode, PeriodWindow};
use crate::report::{FaultEvent, FaultKind};

/// A fault plan compiled against a grid of `total_periods` periods
/// (`periods_per_day` per day). Queries are O(1); an empty plan
/// produces an empty harness whose queries all return neutral values.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultHarness {
    total_periods: usize,
    /// Per-period harvest multiplier; empty when no solar faults.
    solar_factor: Vec<f64>,
    /// Per-period `P_leak` multiplier; empty when no aging.
    leak_mult: Vec<f64>,
    /// Per-period cumulative capacitance factor; empty when no aging.
    cap_factor: Vec<f64>,
    /// Per-period stuck channel; empty when no PMU faults.
    stuck: Vec<Option<usize>>,
    /// Per-period forecast corruption; empty when no forecast faults.
    forecast: Vec<Option<ForecastMode>>,
    /// Per-period DBN fault; empty when no DBN faults.
    dbn: Vec<Option<DbnFaultMode>>,
    /// The materialised fault windows, in period order.
    events: Vec<FaultEvent>,
}

impl FaultHarness {
    /// Compiles `plan` against a grid. Windows extending past the
    /// horizon are truncated; stochastic blackouts are drawn from the
    /// plan's seed, so the same plan always yields the same harness.
    pub fn new(plan: &FaultPlan, total_periods: usize, periods_per_day: usize) -> Self {
        let mut h = Self {
            total_periods,
            solar_factor: Vec::new(),
            leak_mult: Vec::new(),
            cap_factor: Vec::new(),
            stuck: Vec::new(),
            forecast: Vec::new(),
            dbn: Vec::new(),
            events: Vec::new(),
        };
        if plan.is_empty() || total_periods == 0 {
            return h;
        }

        // Solar faults: explicit windows, then seeded random outages.
        // Overlaps take the most severe (smallest) factor.
        if !plan.solar.is_empty() || plan.random_blackouts.is_some() {
            h.solar_factor = vec![1.0; total_periods];
            for f in &plan.solar {
                let factor = if f.factor.is_finite() {
                    f.factor.clamp(0.0, 1.0)
                } else {
                    0.0
                };
                apply_window(&mut h.solar_factor, &f.window, |cur| cur.min(factor));
            }
            if let Some(rb) = plan.random_blackouts {
                let mut rng = derive(plan.seed, "faults/random-blackouts");
                let p = rb.per_period_probability.clamp(0.0, 1.0);
                let lo = rb.min_periods.max(1);
                let hi = rb.max_periods.max(lo);
                let mut flat = 0usize;
                while flat < total_periods {
                    if rng.gen_bool(p) {
                        let len = rng.gen_range(lo..=hi).min(total_periods - flat);
                        for s in h.solar_factor.iter_mut().skip(flat).take(len) {
                            *s = 0.0;
                        }
                        flat += len;
                    } else {
                        flat += 1;
                    }
                }
            }
            // Log contiguous faulted stretches once each.
            let mut flat = 0usize;
            while let Some(&f) = h.solar_factor.get(flat) {
                if f < 1.0 {
                    let start = flat;
                    flat += h
                        .solar_factor
                        .iter()
                        .skip(flat)
                        .take_while(|&&v| (v - f).abs() < 1e-12)
                        .count();
                    let kind = if f <= 0.0 {
                        FaultKind::SolarOutage
                    } else {
                        FaultKind::CloudBurst
                    };
                    h.events.push(FaultEvent {
                        period: start,
                        periods: flat - start,
                        kind,
                        detail: format!("harvest x{f}"),
                    });
                } else {
                    flat += 1;
                }
            }
        }

        // Aging: cumulative per-day multipliers, pristine on day 0.
        if let Some(aging) = plan.aging {
            let fade = if aging.capacitance_fade_per_day.is_finite() {
                aging.capacitance_fade_per_day.clamp(0.01, 1.0)
            } else {
                1.0
            };
            let growth = if aging.leakage_growth_per_day.is_finite() {
                aging.leakage_growth_per_day.max(1.0)
            } else {
                1.0
            };
            let ppd = periods_per_day.max(1);
            h.cap_factor = (0..total_periods)
                .map(|flat| fade.powi((flat / ppd) as i32))
                .collect();
            h.leak_mult = (0..total_periods)
                .map(|flat| growth.powi((flat / ppd) as i32))
                .collect();
            h.events.push(FaultEvent {
                period: 0,
                periods: total_periods,
                kind: FaultKind::CapacitorAging,
                detail: format!("fade x{fade}/day, leakage x{growth}/day"),
            });
        }

        // PMU stuck-channel windows (later windows win on overlap).
        if !plan.pmu_stuck.is_empty() {
            h.stuck = vec![None; total_periods];
            for f in &plan.pmu_stuck {
                apply_window(&mut h.stuck, &f.window, |_| Some(f.channel));
                h.events.push(window_event(
                    &f.window,
                    total_periods,
                    FaultKind::PmuStuck,
                    format!("channel {}", f.channel),
                ));
            }
        }

        // Forecast corruption.
        if !plan.forecast.is_empty() {
            h.forecast = vec![None; total_periods];
            for f in &plan.forecast {
                apply_window(&mut h.forecast, &f.window, |_| Some(f.mode));
                h.events.push(window_event(
                    &f.window,
                    total_periods,
                    FaultKind::ForecastCorruption,
                    format!("{:?}", f.mode),
                ));
            }
        }

        // DBN inference faults.
        if !plan.dbn.is_empty() {
            h.dbn = vec![None; total_periods];
            for f in &plan.dbn {
                apply_window(&mut h.dbn, &f.window, |_| Some(f.mode));
                let kind = match f.mode {
                    DbnFaultMode::Unavailable => FaultKind::DbnUnavailable,
                    DbnFaultMode::Nan => FaultKind::DbnNan,
                };
                h.events
                    .push(window_event(&f.window, total_periods, kind, String::new()));
            }
        }

        h.events.sort_by_key(|e| (e.period, e.periods));
        h
    }

    /// A harness that injects nothing (the engine's default).
    pub fn empty() -> Self {
        Self::new(&FaultPlan::default(), 0, 1)
    }

    /// Whether the harness injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.solar_factor.is_empty()
            && self.leak_mult.is_empty()
            && self.cap_factor.is_empty()
            && self.stuck.is_empty()
            && self.forecast.is_empty()
            && self.dbn.is_empty()
    }

    /// Harvest multiplier for every slot of `flat` (1.0 = nominal).
    pub fn harvest_factor(&self, flat: usize) -> f64 {
        self.solar_factor.get(flat).copied().unwrap_or(1.0)
    }

    /// `P_leak` multiplier during `flat` (1.0 = nominal).
    pub fn leak_multiplier(&self, flat: usize) -> f64 {
        self.leak_mult.get(flat).copied().unwrap_or(1.0)
    }

    /// Cumulative capacitance factor at `flat` (1.0 = pristine).
    pub fn capacitance_factor(&self, flat: usize) -> f64 {
        self.cap_factor.get(flat).copied().unwrap_or(1.0)
    }

    /// The channel the PMU mux is stuck on during `flat`, if any.
    pub fn stuck_channel(&self, flat: usize) -> Option<usize> {
        self.stuck.get(flat).copied().flatten()
    }

    /// Active forecast corruption during `flat`, if any.
    pub fn forecast_mode(&self, flat: usize) -> Option<ForecastMode> {
        self.forecast.get(flat).copied().flatten()
    }

    /// Active DBN fault during `flat`, if any.
    pub fn dbn_mode(&self, flat: usize) -> Option<DbnFaultMode> {
        self.dbn.get(flat).copied().flatten()
    }

    /// The materialised fault windows, in period order. These seed the
    /// report's fault log.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// Applies `f` to every in-range cell of `window`.
fn apply_window<T: Copy>(cells: &mut [T], window: &PeriodWindow, f: impl Fn(T) -> T) {
    let end = window.end().min(cells.len());
    for cell in cells.iter_mut().take(end).skip(window.start) {
        *cell = f(*cell);
    }
}

fn window_event(
    window: &PeriodWindow,
    total_periods: usize,
    kind: FaultKind,
    detail: String,
) -> FaultEvent {
    let start = window.start.min(total_periods);
    FaultEvent {
        period: start,
        periods: window.end().min(total_periods).saturating_sub(start),
        kind,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AgingFault, DbnFault, PmuStuckFault, RandomBlackouts, SolarFault};

    #[test]
    fn empty_plan_yields_neutral_harness() {
        let h = FaultHarness::new(&FaultPlan::default(), 96, 24);
        assert!(h.is_empty());
        assert_eq!(h.harvest_factor(10), 1.0);
        assert_eq!(h.leak_multiplier(10), 1.0);
        assert_eq!(h.capacitance_factor(10), 1.0);
        assert_eq!(h.stuck_channel(10), None);
        assert_eq!(h.forecast_mode(10), None);
        assert_eq!(h.dbn_mode(10), None);
        assert!(h.events().is_empty());
        assert!(FaultHarness::empty().is_empty());
    }

    #[test]
    fn blackout_window_zeroes_harvest_and_logs_once() {
        let plan = FaultPlan {
            solar: vec![SolarFault {
                window: PeriodWindow::new(10, 5),
                factor: 0.0,
            }],
            ..FaultPlan::default()
        };
        let h = FaultHarness::new(&plan, 48, 24);
        assert!(!h.is_empty());
        assert_eq!(h.harvest_factor(9), 1.0);
        assert_eq!(h.harvest_factor(10), 0.0);
        assert_eq!(h.harvest_factor(14), 0.0);
        assert_eq!(h.harvest_factor(15), 1.0);
        let outages: Vec<_> = h
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::SolarOutage)
            .collect();
        assert_eq!(outages.len(), 1);
        assert_eq!((outages[0].period, outages[0].periods), (10, 5));
    }

    #[test]
    fn overlapping_solar_faults_take_most_severe() {
        let plan = FaultPlan {
            solar: vec![
                SolarFault {
                    window: PeriodWindow::new(0, 10),
                    factor: 0.5,
                },
                SolarFault {
                    window: PeriodWindow::new(5, 2),
                    factor: 0.0,
                },
            ],
            ..FaultPlan::default()
        };
        let h = FaultHarness::new(&plan, 12, 12);
        assert_eq!(h.harvest_factor(4), 0.5);
        assert_eq!(h.harvest_factor(5), 0.0);
        assert_eq!(h.harvest_factor(7), 0.5);
    }

    #[test]
    fn random_blackouts_are_seed_deterministic() {
        let plan = |seed| FaultPlan {
            seed,
            random_blackouts: Some(RandomBlackouts {
                per_period_probability: 0.1,
                min_periods: 1,
                max_periods: 3,
            }),
            ..FaultPlan::default()
        };
        let a = FaultHarness::new(&plan(3), 200, 24);
        let b = FaultHarness::new(&plan(3), 200, 24);
        let c = FaultHarness::new(&plan(4), 200, 24);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should draw different outages");
        assert!(
            a.events().iter().any(|e| e.kind == FaultKind::SolarOutage),
            "p=0.1 over 200 periods should materialise at least one outage"
        );
    }

    #[test]
    fn aging_factors_progress_per_day() {
        let plan = FaultPlan {
            aging: Some(AgingFault {
                capacitance_fade_per_day: 0.9,
                leakage_growth_per_day: 1.1,
            }),
            ..FaultPlan::default()
        };
        let h = FaultHarness::new(&plan, 72, 24);
        assert_eq!(h.capacitance_factor(0), 1.0);
        assert_eq!(h.leak_multiplier(23), 1.0);
        assert!((h.capacitance_factor(24) - 0.9).abs() < 1e-12);
        assert!((h.leak_multiplier(48) - 1.21).abs() < 1e-12);
    }

    #[test]
    fn windows_truncate_at_horizon() {
        let plan = FaultPlan {
            pmu_stuck: vec![PmuStuckFault {
                window: PeriodWindow::new(20, 100),
                channel: 1,
            }],
            dbn: vec![DbnFault {
                window: PeriodWindow::new(500, 5),
                mode: DbnFaultMode::Nan,
            }],
            ..FaultPlan::default()
        };
        let h = FaultHarness::new(&plan, 24, 24);
        assert_eq!(h.stuck_channel(23), Some(1));
        assert_eq!(h.dbn_mode(23), None);
        let pmu = h
            .events()
            .iter()
            .find(|e| e.kind == FaultKind::PmuStuck)
            .expect("pmu event");
        assert_eq!(pmu.period + pmu.periods, 24);
    }
}
