//! Solar-energy prediction.
//!
//! Three predictors are provided:
//!
//! * [`EwmaPredictor`] — the classic exponentially-weighted moving
//!   average over the same period of previous days.
//! * [`WcmaPredictor`] — the Weather-Conditioned Moving Average of
//!   Piorno et al. (the paper's inter-task baseline \[3\]): the
//!   multi-day profile is scaled by a *GAP* factor measuring how
//!   today's conditions compare to the recent past.
//! * [`NoisyOracle`] — the true future perturbed with noise whose
//!   standard deviation grows with prediction distance. This is the
//!   controllable stand-in for "a long prediction for solar power is
//!   inaccurate" that drives the prediction-length experiment
//!   (Fig. 10a).
//!
//! All predictors forecast *per-period harvested energy* for a horizon
//! of future periods, which is the granularity the planners consume,
//! into a caller-owned buffer ([`SolarPredictor::forecast_into`]), or
//! for the next period alone ([`SolarPredictor::forecast_one`]).

use helio_common::rng::derive_fmt;
use helio_common::time::PeriodRef;
use helio_common::units::Joules;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::trace::SolarTrace;

/// A predictor of per-period harvested energy.
///
/// Implementations only look at trace data strictly *before* `from`
/// (plus, for the oracle, the noisy future), so schedulers cannot
/// accidentally cheat.
pub trait SolarPredictor {
    /// Predicts the harvested energy of `horizon` consecutive periods
    /// starting at `from` into `out` (cleared first, capacity reused).
    /// `out` ends with length `horizon` (shorter if the grid ends
    /// first).
    fn forecast_into(
        &self,
        trace: &SolarTrace,
        from: PeriodRef,
        horizon: usize,
        out: &mut Vec<Joules>,
    );

    /// One-period fast path: the first entry of
    /// [`SolarPredictor::forecast_into`] with `horizon == 1`, without
    /// the vector. Callers that only need the next period (the
    /// engine's period-start context) should prefer this.
    fn forecast_one(&self, trace: &SolarTrace, from: PeriodRef) -> Joules;

    /// Human-readable predictor name for experiment tables.
    fn name(&self) -> &'static str;
}

/// Mean per-period energy of the same period-of-day over up to `days`
/// preceding days; `None` when no history exists.
fn history_profile(
    trace: &SolarTrace,
    day: usize,
    period_of_day: usize,
    days: usize,
) -> Option<f64> {
    if day == 0 || days == 0 {
        return None;
    }
    let lo = day.saturating_sub(days);
    let mut sum = 0.0;
    let mut count = 0usize;
    for d in lo..day {
        sum += trace
            .period_energy(PeriodRef::new(d, period_of_day))
            .value();
        count += 1;
    }
    if count == 0 {
        None
    } else {
        Some(sum / count as f64)
    }
}

/// Exponentially-weighted moving average across days, per period-of-day.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EwmaPredictor {
    /// Smoothing factor in `(0, 1]`; weight on the most recent day.
    pub alpha: f64,
}

impl EwmaPredictor {
    /// Creates an EWMA predictor.
    ///
    /// # Panics
    ///
    /// Panics when `alpha` leaves `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must lie in (0, 1]");
        Self { alpha }
    }

    fn ewma_at(&self, trace: &SolarTrace, day: usize, period_of_day: usize) -> f64 {
        let mut est = 0.0;
        let mut seen = false;
        for d in 0..day {
            let e = trace
                .period_energy(PeriodRef::new(d, period_of_day))
                .value();
            if seen {
                est = self.alpha * e + (1.0 - self.alpha) * est;
            } else {
                est = e;
                seen = true;
            }
        }
        est
    }
}

impl Default for EwmaPredictor {
    fn default() -> Self {
        Self::new(0.5)
    }
}

impl SolarPredictor for EwmaPredictor {
    fn forecast_into(
        &self,
        trace: &SolarTrace,
        from: PeriodRef,
        horizon: usize,
        out: &mut Vec<Joules>,
    ) {
        let grid = *trace.grid();
        let start = grid.period_index(from);
        let end = (start + horizon).min(grid.total_periods());
        out.clear();
        for idx in start..end {
            let p = grid.period_at(idx);
            out.push(Joules::new(self.ewma_at(trace, p.day, p.period).max(0.0)));
        }
    }

    fn forecast_one(&self, trace: &SolarTrace, from: PeriodRef) -> Joules {
        Joules::new(self.ewma_at(trace, from.day, from.period).max(0.0))
    }

    fn name(&self) -> &'static str {
        "ewma"
    }
}

/// Weather-Conditioned Moving Average (Piorno et al.), the predictor of
/// the paper's inter-task baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WcmaPredictor {
    /// Blend between the last observed period and the conditioned
    /// profile, in `[0, 1]`.
    pub alpha: f64,
    /// Number of past days `D` forming the profile.
    pub profile_days: usize,
    /// Number of recent periods `K` used for the GAP conditioning
    /// factor.
    pub gap_window: usize,
}

impl WcmaPredictor {
    /// Creates a WCMA predictor.
    ///
    /// # Panics
    ///
    /// Panics when `alpha` leaves `[0, 1]` or either window is zero.
    pub fn new(alpha: f64, profile_days: usize, gap_window: usize) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must lie in [0, 1]");
        assert!(profile_days > 0, "profile window must be nonzero");
        assert!(gap_window > 0, "GAP window must be nonzero");
        Self {
            alpha,
            profile_days,
            gap_window,
        }
    }

    /// The GAP factor: weighted ratio of today's recent harvest to the
    /// profile's expectation at the same periods. `1.0` when no daylight
    /// history is available yet.
    fn gap(&self, trace: &SolarTrace, from: PeriodRef) -> f64 {
        let grid = trace.grid();
        let start_idx = grid.period_index(from);
        let mut num = 0.0;
        let mut den = 0.0;
        for k in 1..=self.gap_window {
            if start_idx < k {
                break;
            }
            let p = grid.period_at(start_idx - k);
            let profile = history_profile(trace, p.day, p.period, self.profile_days);
            if let Some(m) = profile {
                if m > 1e-9 {
                    let actual = trace.period_energy(p).value();
                    let w = (self.gap_window - k + 1) as f64 / self.gap_window as f64;
                    num += w * (actual / m);
                    den += w;
                }
            }
        }
        if den > 0.0 {
            (num / den).clamp(0.0, 3.0)
        } else {
            1.0
        }
    }
}

impl Default for WcmaPredictor {
    fn default() -> Self {
        Self::new(0.5, 4, 6)
    }
}

impl SolarPredictor for WcmaPredictor {
    fn forecast_into(
        &self,
        trace: &SolarTrace,
        from: PeriodRef,
        horizon: usize,
        out: &mut Vec<Joules>,
    ) {
        let grid = *trace.grid();
        let start = grid.period_index(from);
        let end = (start + horizon).min(grid.total_periods());
        let gap = self.gap(trace, from);
        let last_observed = if start > 0 {
            trace.period_energy(grid.period_at(start - 1)).value()
        } else {
            0.0
        };
        out.clear();
        for idx in start..end {
            let p = grid.period_at(idx);
            let profile = history_profile(trace, p.day, p.period, self.profile_days).unwrap_or(0.0);
            let conditioned = gap * profile;
            let pred = if idx == start {
                // One-step WCMA blends the last observation in.
                self.alpha * last_observed + (1.0 - self.alpha) * conditioned
            } else {
                conditioned
            };
            out.push(Joules::new(pred.max(0.0)));
        }
    }

    fn forecast_one(&self, trace: &SolarTrace, from: PeriodRef) -> Joules {
        let grid = trace.grid();
        let start = grid.period_index(from);
        let gap = self.gap(trace, from);
        let last_observed = if start > 0 {
            trace.period_energy(grid.period_at(start - 1)).value()
        } else {
            0.0
        };
        let profile =
            history_profile(trace, from.day, from.period, self.profile_days).unwrap_or(0.0);
        let conditioned = gap * profile;
        let pred = self.alpha * last_observed + (1.0 - self.alpha) * conditioned;
        Joules::new(pred.max(0.0))
    }

    fn name(&self) -> &'static str {
        "wcma"
    }
}

/// The true future perturbed with horizon-growing multiplicative noise.
///
/// Prediction for a period `h` periods ahead is
/// `true · max(0, 1 + ε)` with `ε ~ N(0, σ(h))` and
/// `σ(h) = base_sigma + growth_per_day · h / N_p`. Noise is derived
/// deterministically from `(seed, target period)` so repeated calls —
/// and overlapping horizons — see a consistent future.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoisyOracle {
    /// RNG seed.
    pub seed: u64,
    /// Noise standard deviation at zero distance.
    pub base_sigma: f64,
    /// Additional standard deviation per day of prediction distance.
    pub growth_per_day: f64,
}

impl NoisyOracle {
    /// Creates a noisy oracle.
    ///
    /// # Panics
    ///
    /// Panics when either sigma parameter is negative.
    pub fn new(seed: u64, base_sigma: f64, growth_per_day: f64) -> Self {
        assert!(
            base_sigma >= 0.0 && growth_per_day >= 0.0,
            "sigmas must be nonnegative"
        );
        Self {
            seed,
            base_sigma,
            growth_per_day,
        }
    }

    /// A perfect oracle (zero noise) — the upper bound used by the
    /// Optimal scheduler.
    pub fn perfect() -> Self {
        Self::new(0, 0.0, 0.0)
    }
}

impl NoisyOracle {
    fn predict_index(
        &self,
        trace: &SolarTrace,
        idx: usize,
        day_start: usize,
        origin_day: usize,
    ) -> Joules {
        let grid = trace.grid();
        let p = grid.period_at(idx);
        let truth = trace.period_energy(p).value();
        // Distance from the start of the forecast origin's day, so all
        // forecasts issued on one day see the same noisy future; errors
        // refresh when real information arrives with the next day.
        let distance = (idx - day_start) as f64 / grid.periods_per_day() as f64;
        let sigma = self.base_sigma + self.growth_per_day * distance;
        if sigma == 0.0 || truth == 0.0 {
            return Joules::new(truth);
        }
        // The noise realisation is tied to the *target* period so
        // consecutive plans see a consistent (if wrong) future, and to
        // the forecast origin's day so errors refresh as real
        // information arrives.
        let mut rng = derive_fmt(self.seed, format_args!("oracle-{idx}-{origin_day}"));
        let eps = gaussian(&mut rng) * sigma;
        Joules::new((truth * (1.0 + eps)).max(0.0))
    }
}

impl SolarPredictor for NoisyOracle {
    fn forecast_into(
        &self,
        trace: &SolarTrace,
        from: PeriodRef,
        horizon: usize,
        out: &mut Vec<Joules>,
    ) {
        let grid = *trace.grid();
        let start = grid.period_index(from);
        let end = (start + horizon).min(grid.total_periods());
        let day_start = grid.period_index(PeriodRef::new(from.day, 0));
        out.clear();
        for idx in start..end {
            out.push(self.predict_index(trace, idx, day_start, from.day));
        }
    }

    fn forecast_one(&self, trace: &SolarTrace, from: PeriodRef) -> Joules {
        let grid = trace.grid();
        let start = grid.period_index(from);
        let day_start = grid.period_index(PeriodRef::new(from.day, 0));
        self.predict_index(trace, start, day_start, from.day)
    }

    fn name(&self) -> &'static str {
        "noisy-oracle"
    }
}

/// Standard normal sample via Box–Muller (no external distribution
/// crate needed).
fn gaussian(rng: &mut helio_common::rng::DetRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archetype::DayArchetype;
    use crate::panel::SolarPanel;
    use crate::trace::TraceBuilder;
    use helio_common::time::TimeGrid;

    fn trace(days: usize, seed: u64) -> SolarTrace {
        let grid = TimeGrid::with_minute_slots(days, 48, 10).unwrap();
        TraceBuilder::new(grid, SolarPanel::paper_panel())
            .seed(seed)
            .weather(crate::weather::WeatherProcess::temperate())
            .build()
    }

    fn forecast(
        predictor: &impl SolarPredictor,
        trace: &SolarTrace,
        from: PeriodRef,
        horizon: usize,
    ) -> Vec<Joules> {
        let mut out = Vec::new();
        predictor.forecast_into(trace, from, horizon, &mut out);
        out
    }

    fn actual(trace: &SolarTrace, from: PeriodRef, horizon: usize) -> Vec<f64> {
        let grid = trace.grid();
        let start = grid.period_index(from);
        (start..(start + horizon).min(grid.total_periods()))
            .map(|i| trace.period_energy(grid.period_at(i)).value())
            .collect()
    }

    #[test]
    fn perfect_oracle_returns_truth() {
        let t = trace(5, 1);
        let from = PeriodRef::new(2, 10);
        let pred = forecast(&NoisyOracle::perfect(), &t, from, 20);
        let truth = actual(&t, from, 20);
        for (p, a) in pred.iter().zip(&truth) {
            assert!((p.value() - a).abs() < 1e-12);
        }
    }

    #[test]
    fn oracle_noise_grows_with_horizon() {
        let t = trace(10, 2);
        let oracle = NoisyOracle::new(3, 0.02, 0.25);
        let from = PeriodRef::new(1, 0);
        // Average relative error over near vs far halves of a 9-day
        // horizon, across several forecast origins.
        let mut near_err = Vec::new();
        let mut far_err = Vec::new();
        for day in 1..5 {
            let from = PeriodRef::new(day, 0);
            let horizon = 5 * t.grid().periods_per_day();
            let pred = forecast(&oracle, &t, from, horizon);
            let truth = actual(&t, from, horizon);
            for (i, (p, a)) in pred.iter().zip(&truth).enumerate() {
                if *a > 1e-6 {
                    let rel = ((p.value() - a) / a).abs();
                    if i < horizon / 4 {
                        near_err.push(rel);
                    } else if i > 3 * horizon / 4 {
                        far_err.push(rel);
                    }
                }
            }
        }
        let near = helio_common::stats::mean(&near_err);
        let far = helio_common::stats::mean(&far_err);
        assert!(far > 1.5 * near, "far {far} should exceed near {near}");
        let _ = from;
    }

    #[test]
    fn oracle_is_deterministic_and_consistent() {
        let t = trace(6, 4);
        let oracle = NoisyOracle::new(7, 0.1, 0.2);
        let from = PeriodRef::new(2, 5);
        let a = forecast(&oracle, &t, from, 30);
        let b = forecast(&oracle, &t, from, 30);
        assert_eq!(a, b);
        // Overlapping horizons agree on shared targets (same origin day).
        let c = forecast(&oracle, &t, PeriodRef::new(2, 6), 29);
        assert_eq!(&a[1..], &c[..]);
    }

    #[test]
    fn predictions_are_nonnegative() {
        let t = trace(8, 5);
        for pred in [
            forecast(&NoisyOracle::new(1, 0.5, 1.0), &t, PeriodRef::new(3, 0), 60),
            forecast(&WcmaPredictor::default(), &t, PeriodRef::new(3, 0), 60),
            forecast(&EwmaPredictor::default(), &t, PeriodRef::new(3, 0), 60),
        ] {
            assert!(pred.iter().all(|e| e.value() >= 0.0));
        }
    }

    #[test]
    fn wcma_beats_ewma_on_changeable_weather() {
        // WCMA's GAP conditioning should track regime shifts better than
        // a plain per-period EWMA. Compare mean absolute error over a
        // month of temperate weather, forecasting each day at 6 AM.
        let t = trace(30, 11);
        let wcma = WcmaPredictor::default();
        let ewma = EwmaPredictor::default();
        let horizon = t.grid().periods_per_day() / 2;
        let mut err_w = 0.0;
        let mut err_e = 0.0;
        for day in 5..30 {
            let from = PeriodRef::new(day, 12); // 6 AM on a 48-period day
            let truth = actual(&t, from, horizon);
            let pw = forecast(&wcma, &t, from, horizon);
            let pe = forecast(&ewma, &t, from, horizon);
            for i in 0..truth.len() {
                err_w += (pw[i].value() - truth[i]).abs();
                err_e += (pe[i].value() - truth[i]).abs();
            }
        }
        assert!(
            err_w < err_e,
            "WCMA error {err_w:.1} should beat EWMA {err_e:.1}"
        );
    }

    #[test]
    fn forecast_truncates_at_grid_end() {
        let t = trace(3, 6);
        let total = t.grid().total_periods();
        let from = t.grid().period_at(total - 5);
        let pred = forecast(&WcmaPredictor::default(), &t, from, 50);
        assert_eq!(pred.len(), 5);
    }

    #[test]
    fn gap_tracks_cloudy_morning() {
        // Build 6 clear days then a storm day: at noon of the storm day
        // WCMA should predict well below the clear-day profile.
        let grid = TimeGrid::with_minute_slots(7, 48, 10).unwrap();
        let mut days = vec![DayArchetype::Clear; 6];
        days.push(DayArchetype::Storm);
        let t = TraceBuilder::new(grid, SolarPanel::paper_panel())
            .seed(8)
            .days(&days)
            .build();
        let from = PeriodRef::new(6, 24); // noon, storm day
        let wcma = forecast(&WcmaPredictor::default(), &t, from, 4);
        let profile_based = forecast(&EwmaPredictor::new(0.2), &t, from, 4);
        let wsum: f64 = wcma.iter().map(|e| e.value()).sum();
        let esum: f64 = profile_based.iter().map(|e| e.value()).sum();
        assert!(
            wsum < 0.55 * esum,
            "WCMA ({wsum:.1} J) should discount the clear profile ({esum:.1} J) during a storm"
        );
    }

    #[test]
    fn constructor_validation() {
        assert!(std::panic::catch_unwind(|| EwmaPredictor::new(0.0)).is_err());
        assert!(std::panic::catch_unwind(|| WcmaPredictor::new(0.5, 0, 3)).is_err());
        assert!(std::panic::catch_unwind(|| NoisyOracle::new(1, -0.1, 0.0)).is_err());
    }
}
