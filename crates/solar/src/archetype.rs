//! Day archetypes: the four canonical irradiance patterns of Fig. 7.
//!
//! Each archetype combines the diurnal sine envelope with a
//! characteristic cloud process. All randomness comes from the RNG the
//! caller supplies, so a given `(seed, day)` pair always produces the
//! same sky.

use helio_common::math::smoothstep;
use helio_common::rng::DetRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Peak clear-sky irradiance at solar noon (W/m²).
pub const PEAK_IRRADIANCE: f64 = 1000.0;
/// Hour of sunrise in local time.
pub const SUNRISE_HOUR: f64 = 6.0;
/// Hour of sunset in local time.
pub const SUNSET_HOUR: f64 = 18.0;

/// The four canonical day patterns of the paper's Fig. 7, ordered from
/// most to least energetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DayArchetype {
    /// Cloudless high-energy day (paper "Day 1").
    Clear,
    /// Intermittent cumulus shading (paper "Day 2").
    BrokenClouds,
    /// Uniform stratus deck (paper "Day 3").
    Overcast,
    /// Heavy storm cover (paper "Day 4").
    Storm,
}

impl DayArchetype {
    /// All archetypes, most to least energetic — the order of Fig. 7's
    /// Day 1 … Day 4.
    pub const ALL: [DayArchetype; 4] = [
        DayArchetype::Clear,
        DayArchetype::BrokenClouds,
        DayArchetype::Overcast,
        DayArchetype::Storm,
    ];

    /// Clear-sky irradiance envelope at local hour `h` (W/m²): a sine
    /// arch between sunrise and sunset with smooth twilight shoulders.
    pub fn clear_sky(hour: f64) -> f64 {
        if hour <= SUNRISE_HOUR || hour >= SUNSET_HOUR {
            return 0.0;
        }
        let t = (hour - SUNRISE_HOUR) / (SUNSET_HOUR - SUNRISE_HOUR);
        let arch = (std::f64::consts::PI * t).sin();
        // Soften the first and last half hour (horizon effects).
        let shoulder = smoothstep(t * 24.0).min(smoothstep((1.0 - t) * 24.0));
        PEAK_IRRADIANCE * arch * shoulder
    }

    /// Generates the per-slot sky-transmission series for one day of
    /// `slots` samples using the archetype's cloud process.
    ///
    /// The series is a piecewise-constant cloud field: cloud events with
    /// archetype-specific depth and duration modulate the mean
    /// transmission. Values stay within `[0, 1]`.
    pub fn transmission_series(self, slots: usize, rng: &mut DetRng) -> Vec<f64> {
        let mut cloud = CloudProcess::new(self);
        (0..slots).map(|_| cloud.next_transmission(rng)).collect()
    }
}

/// An archetype's cloud process, one slot at a time: the generator
/// behind [`DayArchetype::transmission_series`], which the trace
/// builder also drives directly so a slot's transmission goes straight
/// into its power.
pub(crate) struct CloudProcess {
    /// Transmission outside cloud events.
    base: f64,
    /// Nominal depth of a cloud event.
    depth: f64,
    /// Chance that an event starts at a slot outside one.
    event_prob: f64,
    /// Event length bounds in slots.
    min_len: usize,
    max_len: usize,
    /// Slots left in the current event.
    remaining_event: usize,
    /// Depth of the current event.
    event_depth: f64,
}

impl CloudProcess {
    pub(crate) fn new(arche: DayArchetype) -> Self {
        let (base, depth, event_prob, min_len, max_len) = match arche {
            // (base transmission, cloud depth, per-slot event probability,
            //  event length bounds in slots)
            DayArchetype::Clear => (0.97, 0.08, 0.01, 2usize, 6usize),
            DayArchetype::BrokenClouds => (0.85, 0.62, 0.08, 3, 12),
            DayArchetype::Overcast => (0.34, 0.35, 0.10, 4, 16),
            DayArchetype::Storm => (0.13, 0.60, 0.15, 6, 24),
        };
        Self {
            base,
            depth,
            event_prob,
            min_len,
            max_len,
            remaining_event: 0,
            event_depth: 0.0,
        }
    }

    /// The next slot's sky transmission, within `[0, 1]`.
    #[inline]
    pub(crate) fn next_transmission(&mut self, rng: &mut DetRng) -> f64 {
        if self.remaining_event == 0 && rng.gen::<f64>() < self.event_prob {
            self.remaining_event = rng.gen_range(self.min_len..=self.max_len);
            self.event_depth = self.depth * rng.gen_range(0.6..1.0);
        }
        let jitter = 1.0 + 0.04 * (rng.gen::<f64>() - 0.5);
        let factor = if self.remaining_event > 0 {
            self.remaining_event -= 1;
            self.base * (1.0 - self.event_depth)
        } else {
            self.base
        };
        (factor * jitter).clamp(0.0, 1.0)
    }
}

impl std::fmt::Display for DayArchetype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DayArchetype::Clear => "clear",
            DayArchetype::BrokenClouds => "broken-clouds",
            DayArchetype::Overcast => "overcast",
            DayArchetype::Storm => "storm",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helio_common::rng::seeded;
    use helio_common::stats::mean;

    #[test]
    fn clear_sky_is_zero_at_night_and_peaks_at_noon() {
        assert_eq!(DayArchetype::clear_sky(0.0), 0.0);
        assert_eq!(DayArchetype::clear_sky(5.9), 0.0);
        assert_eq!(DayArchetype::clear_sky(18.1), 0.0);
        let noon = DayArchetype::clear_sky(12.0);
        assert!((noon - PEAK_IRRADIANCE).abs() < 1.0, "noon {noon}");
        assert!(DayArchetype::clear_sky(9.0) < noon);
        assert!(DayArchetype::clear_sky(9.0) > 0.0);
    }

    #[test]
    fn clear_sky_is_symmetric_about_noon() {
        for dh in [1.0, 2.0, 4.0, 5.5] {
            let a = DayArchetype::clear_sky(12.0 - dh);
            let b = DayArchetype::clear_sky(12.0 + dh);
            assert!((a - b).abs() < 1e-9, "asymmetry at ±{dh}");
        }
    }

    #[test]
    fn archetype_means_order_like_fig7() {
        let mut rng = seeded(3);
        let means: Vec<f64> = DayArchetype::ALL
            .iter()
            .map(|a| mean(&a.transmission_series(1440, &mut rng)))
            .collect();
        assert!(
            means.windows(2).all(|w| w[0] > w[1]),
            "transmission must decrease Day1→Day4: {means:?}"
        );
    }

    #[test]
    fn transmission_stays_in_unit_interval() {
        let mut rng = seeded(11);
        for a in DayArchetype::ALL {
            for v in a.transmission_series(1440, &mut rng) {
                assert!((0.0..=1.0).contains(&v), "{a}: {v}");
            }
        }
    }

    #[test]
    fn broken_clouds_have_high_variance() {
        let mut rng = seeded(5);
        let broken = DayArchetype::BrokenClouds.transmission_series(1440, &mut rng);
        let clear = DayArchetype::Clear.transmission_series(1440, &mut rng);
        let var = |s: &[f64]| helio_common::stats::std_dev(s);
        assert!(
            var(&broken) > 3.0 * var(&clear),
            "broken {} vs clear {}",
            var(&broken),
            var(&clear)
        );
    }

    #[test]
    fn series_is_deterministic_per_seed() {
        let a = DayArchetype::BrokenClouds.transmission_series(100, &mut seeded(9));
        let b = DayArchetype::BrokenClouds.transmission_series(100, &mut seeded(9));
        assert_eq!(a, b);
    }

    #[test]
    fn display_names() {
        assert_eq!(DayArchetype::Storm.to_string(), "storm");
        assert_eq!(DayArchetype::BrokenClouds.to_string(), "broken-clouds");
    }
}
