//! Day-to-day weather as a Markov chain over day archetypes.
//!
//! Multi-month experiments (Fig. 9, Fig. 10a) need realistic day-to-day
//! correlation: clear spells, storm fronts, and transitions through
//! intermediate cover. A first-order Markov chain over the four
//! archetypes captures exactly the "locality of correlation in solar
//! power" the paper points to when explaining why over-long prediction
//! horizons stop helping.

use helio_common::error::CommonError;
use helio_common::rng::DetRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::archetype::DayArchetype;

/// Day-to-day transitions of [`WeatherProcess::temperate`], rows from
/// Clear, BrokenClouds, Overcast and Storm.
const TEMPERATE_TRANSITION: [[f64; 4]; 4] = [
    [0.60, 0.28, 0.09, 0.03],
    [0.30, 0.42, 0.21, 0.07],
    [0.12, 0.33, 0.40, 0.15],
    [0.08, 0.22, 0.40, 0.30],
];
/// First-day distribution of [`WeatherProcess::temperate`].
const TEMPERATE_INITIAL: [f64; 4] = [0.40, 0.30, 0.20, 0.10];
/// Day-to-day transitions of [`WeatherProcess::monsoon`].
const MONSOON_TRANSITION: [[f64; 4]; 4] = [
    [0.35, 0.30, 0.22, 0.13],
    [0.18, 0.32, 0.30, 0.20],
    [0.08, 0.22, 0.40, 0.30],
    [0.05, 0.15, 0.35, 0.45],
];
/// First-day distribution of [`WeatherProcess::monsoon`].
const MONSOON_INITIAL: [f64; 4] = [0.15, 0.25, 0.35, 0.25];

/// A first-order Markov chain over [`DayArchetype`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeatherProcess {
    /// `transition[from][to]`, rows summing to 1.
    transition: [[f64; 4]; 4],
    /// Initial-state distribution.
    initial: [f64; 4],
}

impl WeatherProcess {
    /// Builds a process from explicit matrices, e.g. from a
    /// configuration file.
    ///
    /// # Errors
    ///
    /// Returns [`CommonError::InvalidArgument`] when any row (or the
    /// initial distribution) has negative or non-finite entries or does
    /// not sum to 1 within 1e-9 — i.e. is not a stochastic vector.
    pub fn try_new(transition: [[f64; 4]; 4], initial: [f64; 4]) -> Result<Self, CommonError> {
        let check = |row: &[f64; 4], what: &str| -> Result<(), CommonError> {
            if row.iter().any(|&p| !p.is_finite() || p < 0.0) {
                return Err(CommonError::InvalidArgument(format!(
                    "{what} has a negative or non-finite entry"
                )));
            }
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() >= 1e-9 {
                return Err(CommonError::InvalidArgument(format!(
                    "{what} sums to {sum}, not 1"
                )));
            }
            Ok(())
        };
        for (i, row) in transition.iter().enumerate() {
            check(row, &format!("transition row {i}"))?;
        }
        check(&initial, "initial distribution")?;
        Ok(Self {
            transition,
            initial,
        })
    }

    /// A temperate climate: clear and broken-cloud days dominate, storms
    /// are short-lived, weather is sticky from day to day.
    pub fn temperate() -> Self {
        Self {
            transition: TEMPERATE_TRANSITION,
            initial: TEMPERATE_INITIAL,
        }
    }

    /// A gloomier monsoon-like climate used for stress experiments.
    pub fn monsoon() -> Self {
        Self {
            transition: MONSOON_TRANSITION,
            initial: MONSOON_INITIAL,
        }
    }

    /// Samples the archetype sequence for `days` consecutive days.
    pub fn sample_days(&self, days: usize, rng: &mut DetRng) -> Vec<DayArchetype> {
        let mut out = Vec::with_capacity(days);
        if days == 0 {
            return out;
        }
        let mut state = sample_index(&self.initial, rng);
        out.push(DayArchetype::ALL[state]);
        for _ in 1..days {
            state = sample_index(&self.transition[state], rng);
            out.push(DayArchetype::ALL[state]);
        }
        out
    }

    /// The stationary distribution of the chain, computed by power
    /// iteration — handy for checking long-run energy budgets in tests.
    pub fn stationary(&self) -> [f64; 4] {
        let mut dist = self.initial;
        for _ in 0..500 {
            let mut next = [0.0; 4];
            for (from, row) in self.transition.iter().enumerate() {
                for (to, &p) in row.iter().enumerate() {
                    next[to] += dist[from] * p;
                }
            }
            dist = next;
        }
        dist
    }
}

impl Default for WeatherProcess {
    fn default() -> Self {
        Self::temperate()
    }
}

fn sample_index(dist: &[f64; 4], rng: &mut DetRng) -> usize {
    let u: f64 = rng.gen();
    let mut cum = 0.0;
    for (i, &p) in dist.iter().enumerate() {
        cum += p;
        if u < cum {
            return i;
        }
    }
    3
}

#[cfg(test)]
mod tests {
    use super::*;
    use helio_common::rng::seeded;

    #[test]
    fn sample_is_deterministic() {
        let w = WeatherProcess::temperate();
        let a = w.sample_days(30, &mut seeded(1));
        let b = w.sample_days(30, &mut seeded(1));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_sample() {
        let w = WeatherProcess::temperate();
        assert!(w.sample_days(0, &mut seeded(1)).is_empty());
    }

    #[test]
    fn temperate_long_run_is_mostly_sunny() {
        let w = WeatherProcess::temperate();
        let days = w.sample_days(2000, &mut seeded(2));
        let clear = days
            .iter()
            .filter(|&&d| d == DayArchetype::Clear || d == DayArchetype::BrokenClouds)
            .count() as f64
            / days.len() as f64;
        assert!(clear > 0.55, "temperate climate too gloomy: {clear}");
    }

    #[test]
    fn monsoon_is_gloomier_than_temperate() {
        let t = WeatherProcess::temperate().stationary();
        let m = WeatherProcess::monsoon().stationary();
        // Probability mass on Overcast+Storm.
        assert!(m[2] + m[3] > t[2] + t[3]);
    }

    #[test]
    fn stationary_sums_to_one() {
        let s = WeatherProcess::temperate().stationary();
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(s.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn weather_is_sticky() {
        // Same-state persistence should exceed the stationary share:
        // P(clear tomorrow | clear today) > P(clear) in steady state.
        let w = WeatherProcess::temperate();
        let days = w.sample_days(4000, &mut seeded(3));
        let mut same = 0usize;
        for pair in days.windows(2) {
            if pair[0] == pair[1] {
                same += 1;
            }
        }
        let persistence = same as f64 / (days.len() - 1) as f64;
        let iid: f64 = w.stationary().iter().map(|p| p * p).sum();
        assert!(
            persistence > iid + 0.05,
            "persistence {persistence} vs iid {iid}"
        );
    }

    #[test]
    fn in_tree_climates_are_valid() {
        for (t, i, w) in [
            (
                TEMPERATE_TRANSITION,
                TEMPERATE_INITIAL,
                WeatherProcess::temperate(),
            ),
            (
                MONSOON_TRANSITION,
                MONSOON_INITIAL,
                WeatherProcess::monsoon(),
            ),
        ] {
            assert_eq!(WeatherProcess::try_new(t, i).unwrap(), w);
        }
    }

    #[test]
    fn rejects_unnormalised_rows() {
        let mut t = [[0.25; 4]; 4];
        t[0][0] = 0.5;
        let err = WeatherProcess::try_new(t, [0.25; 4]).unwrap_err();
        assert!(err.to_string().contains("sums to"), "{err}");
    }

    #[test]
    fn try_new_returns_typed_errors() {
        use helio_common::error::CommonError;
        let good = [[0.25; 4]; 4];
        assert!(WeatherProcess::try_new(good, [0.25; 4]).is_ok());
        let mut unnormalised = good;
        unnormalised[1][0] = 0.5;
        assert!(matches!(
            WeatherProcess::try_new(unnormalised, [0.25; 4]),
            Err(CommonError::InvalidArgument(_))
        ));
        let mut nan = good;
        nan[0][0] = f64::NAN;
        assert!(WeatherProcess::try_new(nan, [0.25; 4]).is_err());
        let mut negative = good;
        negative[2][3] = -0.25;
        assert!(WeatherProcess::try_new(negative, [0.25; 4]).is_err());
        assert!(WeatherProcess::try_new(good, [1.0, 0.5, -0.5, 0.0]).is_err());
    }
}
