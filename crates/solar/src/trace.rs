//! Solar power traces aligned to the scheduling time grid.
//!
//! A [`SolarTrace`] stores the harvested electrical power
//! `P^s_{i,j,m}` for every slot of a [`TimeGrid`]. Traces are produced
//! by the [`TraceBuilder`] from day archetypes or a weather process, or
//! constructed directly from raw per-slot powers (e.g. when replaying
//! recorded data).

use helio_common::rng::{derive, DetRng};
use helio_common::time::{PeriodRef, SlotRef, TimeGrid};
use helio_common::units::{Joules, Watts};
use serde::{Deserialize, Serialize};

use crate::archetype::{CloudProcess, DayArchetype};
use crate::panel::SolarPanel;
use crate::weather::WeatherProcess;

/// A per-slot harvested-power trace over a time grid.
///
/// Every constructor also sums each period's slot energies once into a
/// period-energy table, so [`SolarTrace::period_energy`] — which the
/// predictors and planners ask for dozens of times per simulated period
/// — is a lookup. The table is derived data: it is not serialised and
/// is rebuilt when a trace is read back.
#[derive(Debug, Clone, PartialEq)]
pub struct SolarTrace {
    grid: TimeGrid,
    /// Per-slot average harvested power, `slot_index`-ordered (W).
    powers: Vec<f64>,
    /// Archetype of each day when generated synthetically.
    day_archetypes: Vec<Option<DayArchetype>>,
    /// Harvested energy of each period, by flat period index.
    period_energies: Vec<Joules>,
}

impl SolarTrace {
    /// Assembles a trace and builds its period-energy table. Each entry
    /// sums the period's slot energies in slot order — the exact
    /// arithmetic of a per-slot sum, so a lookup is bit-identical to
    /// summing the slots on the spot. Powers are stored period after
    /// period, so each period is one contiguous chunk of them.
    fn assemble(
        grid: TimeGrid,
        powers: Vec<f64>,
        day_archetypes: Vec<Option<DayArchetype>>,
    ) -> Self {
        let dt = grid.slot_duration();
        // `max(1)`: a grid without slots (only a deserialised one can
        // be) has no powers, hence no chunks.
        let period_energies = powers
            .chunks_exact(grid.slots_per_period().max(1))
            .map(|period| period.iter().map(|&p| Watts::new(p) * dt).sum())
            .collect();
        Self {
            grid,
            powers,
            day_archetypes,
            period_energies,
        }
    }

    /// Builds a trace from raw per-slot powers.
    ///
    /// # Panics
    ///
    /// Panics when `powers` does not have exactly one entry per grid
    /// slot or contains negative/non-finite values.
    pub fn from_powers(grid: TimeGrid, powers: Vec<Watts>) -> Self {
        assert_eq!(
            powers.len(),
            grid.total_slots(),
            "trace must cover every slot"
        );
        assert!(
            powers.iter().all(|p| p.is_finite() && p.value() >= 0.0),
            "powers must be finite and nonnegative"
        );
        Self::assemble(
            grid,
            powers.into_iter().map(|p| p.value()).collect(),
            vec![None; grid.days()],
        )
    }

    /// The grid this trace is aligned to.
    pub const fn grid(&self) -> &TimeGrid {
        &self.grid
    }

    /// Harvested power of one slot, `P^s_{i,j,m}`.
    pub fn slot_power(&self, slot: SlotRef) -> Watts {
        Watts::new(self.powers[self.grid.slot_index(slot)])
    }

    /// Harvested energy of one slot (`P · Δt`).
    pub fn slot_energy(&self, slot: SlotRef) -> Joules {
        self.slot_power(slot) * self.grid.slot_duration()
    }

    /// Per-slot powers of one period (length `N_s`).
    pub fn period_powers(&self, period: PeriodRef) -> Vec<Watts> {
        self.grid
            .slots_in(period)
            .map(|s| self.slot_power(s))
            .collect()
    }

    /// Per-slot powers of one period as a raw watt-value slice — the
    /// allocation-free view the online gather loop streams from
    /// instead of re-deriving each slot's flat index.
    pub fn period_powers_raw(&self, period: PeriodRef) -> &[f64] {
        let base = self
            .grid
            .slot_index(SlotRef::new(period.day, period.period, 0));
        &self.powers[base..base + self.grid.slots_per_period()]
    }

    /// Total harvested energy of one period (a table lookup).
    pub fn period_energy(&self, period: PeriodRef) -> Joules {
        self.period_energies[self.grid.period_index(period)]
    }

    /// Total harvested energy of one day.
    pub fn day_energy(&self, day: usize) -> Joules {
        (0..self.grid.periods_per_day())
            .map(|p| self.period_energy(PeriodRef::new(day, p)))
            .sum()
    }

    /// Total harvested energy over the whole horizon.
    pub fn total_energy(&self) -> Joules {
        Joules::new(self.powers.iter().sum::<f64>() * self.grid.slot_duration().value())
    }

    /// Archetype used to generate a day, when known.
    pub fn day_archetype(&self, day: usize) -> Option<DayArchetype> {
        self.day_archetypes.get(day).copied().flatten()
    }

    /// Restricts the trace to a single day (useful for per-day sizing),
    /// producing a one-day trace on the same within-day grid.
    ///
    /// # Panics
    ///
    /// Panics when `day` is outside the horizon.
    pub fn extract_day(&self, day: usize) -> SolarTrace {
        assert!(day < self.grid.days(), "day {day} outside trace");
        let day_grid = self.grid.one_day();
        let start = day * self.grid.slots_per_day();
        let end = start + self.grid.slots_per_day();
        SolarTrace::assemble(
            day_grid,
            self.powers[start..end].to_vec(),
            vec![self.day_archetypes[day]],
        )
    }
}

// Hand-written so the derived period-energy table stays out of the
// JSON form: it serialises exactly as the three stored fields always
// have, and reading a trace back rebuilds the table.
impl Serialize for SolarTrace {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"grid\":");
        self.grid.serialize_json(out);
        out.push_str(",\"powers\":");
        self.powers.serialize_json(out);
        out.push_str(",\"day_archetypes\":");
        self.day_archetypes.serialize_json(out);
        out.push('}');
    }
}

impl Deserialize for SolarTrace {
    fn deserialize_json(v: &serde::Value) -> Result<Self, serde::DeError> {
        let grid = TimeGrid::deserialize_json(v.field("grid")?)?;
        let powers = Vec::<f64>::deserialize_json(v.field("powers")?)?;
        let day_archetypes = Vec::deserialize_json(v.field("day_archetypes")?)?;
        if powers.len() != grid.total_slots() {
            return Err(serde::DeError(format!(
                "trace has {} slot powers but its grid has {} slots",
                powers.len(),
                grid.total_slots()
            )));
        }
        Ok(Self::assemble(grid, powers, day_archetypes))
    }
}

/// Builder producing synthetic [`SolarTrace`]s.
///
/// # Example
///
/// ```
/// use helio_common::time::TimeGrid;
/// use helio_solar::{SolarPanel, TraceBuilder, WeatherProcess};
///
/// # fn main() -> Result<(), helio_common::CommonError> {
/// let grid = TimeGrid::with_minute_slots(60, 144, 10)?;
/// let trace = TraceBuilder::new(grid, SolarPanel::paper_panel())
///     .seed(42)
///     .weather(WeatherProcess::temperate())
///     .build();
/// assert!(trace.total_energy().value() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    grid: TimeGrid,
    panel: SolarPanel,
    seed: u64,
    days: Option<Vec<DayArchetype>>,
    weather: WeatherProcess,
}

impl TraceBuilder {
    /// Starts a builder over `grid` with `panel`.
    pub fn new(grid: TimeGrid, panel: SolarPanel) -> Self {
        Self {
            grid,
            panel,
            seed: 0,
            days: None,
            weather: WeatherProcess::temperate(),
        }
    }

    /// Sets the deterministic seed (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fixes the archetype of each day explicitly. When the list is
    /// shorter than the horizon it repeats cyclically.
    #[must_use]
    pub fn days(mut self, days: &[DayArchetype]) -> Self {
        self.days = Some(days.to_vec());
        self
    }

    /// Draws day archetypes from a weather Markov process instead of a
    /// fixed list.
    #[must_use]
    pub fn weather(mut self, weather: WeatherProcess) -> Self {
        self.weather = weather;
        self.days = None;
        self
    }

    /// Generates the trace.
    pub fn build(self) -> SolarTrace {
        let slots_per_day = self.grid.slots_per_day();

        // Decide each day's archetype.
        let day_types: Vec<DayArchetype> = match &self.days {
            Some(list) => {
                assert!(!list.is_empty(), "archetype list must be nonempty");
                (0..self.grid.days())
                    .map(|d| list[d % list.len()])
                    .collect()
            }
            None => {
                let mut wrng = derive(self.seed, "weather-chain");
                self.weather.sample_days(self.grid.days(), &mut wrng)
            }
        };

        // Clear-sky irradiance at the midpoint hour of each slot of the
        // day: the same row for every day.
        let clear_sky: Vec<f64> = (0..slots_per_day)
            .map(|slot_of_day| {
                let frac = (slot_of_day as f64 + 0.5) / slots_per_day as f64;
                DayArchetype::clear_sky(24.0 * frac)
            })
            .collect();

        let mut powers = Vec::with_capacity(self.grid.total_slots());
        for (day, &arche) in day_types.iter().enumerate() {
            let mut rng: DetRng = derive(self.seed, &format!("day-{day}"));
            let mut cloud = CloudProcess::new(arche);
            powers.extend(clear_sky.iter().map(|&clear| {
                let irradiance = clear * cloud.next_transmission(&mut rng);
                self.panel.electrical_power(irradiance).value()
            }));
        }

        let archetypes = day_types.into_iter().map(Some).collect();
        SolarTrace::assemble(self.grid, powers, archetypes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helio_common::time::TimeGrid;

    fn grid(days: usize) -> TimeGrid {
        TimeGrid::with_minute_slots(days, 144, 10).unwrap()
    }

    fn four_day_trace(seed: u64) -> SolarTrace {
        TraceBuilder::new(grid(4), SolarPanel::paper_panel())
            .seed(seed)
            .days(&DayArchetype::ALL)
            .build()
    }

    #[test]
    fn build_covers_every_slot() {
        let t = four_day_trace(1);
        assert_eq!(t.grid().total_slots(), 4 * 1440);
        // Every slot is readable.
        for s in t.grid().slots() {
            assert!(t.slot_power(s).value() >= 0.0);
        }
    }

    #[test]
    fn night_slots_have_zero_power() {
        let t = four_day_trace(1);
        // Midnight period.
        let p = t.period_energy(PeriodRef::new(0, 0));
        assert_eq!(p, Joules::ZERO);
        // 3 AM.
        let p = t.period_energy(PeriodRef::new(0, 18));
        assert_eq!(p, Joules::ZERO);
    }

    #[test]
    fn noon_clear_day_is_near_peak() {
        let t = four_day_trace(1);
        // Noon of the clear day (period 72 of 144).
        let powers = t.period_powers(PeriodRef::new(0, 72));
        let max = powers.iter().map(|p| p.milliwatts()).fold(0.0, f64::max);
        assert!(max > 80.0, "noon clear-sky power {max} mW too low");
    }

    #[test]
    fn daily_energy_orders_like_fig7() {
        for seed in [1, 7, 42] {
            let t = four_day_trace(seed);
            let e: Vec<f64> = (0..4).map(|d| t.day_energy(d).value()).collect();
            assert!(
                e.windows(2).all(|w| w[0] > w[1]),
                "seed {seed}: day energies {e:?} not decreasing"
            );
        }
    }

    #[test]
    fn clear_day_energy_scale_is_plausible() {
        // ~94.5 mW peak, sine envelope over 12 h: mean ≈ 2/π·peak over
        // daylight → ≈ 0.0945·0.637·43200 ≈ 2600 J.
        let t = four_day_trace(1);
        let e = t.day_energy(0).value();
        assert!(e > 1500.0 && e < 3200.0, "clear-day energy {e} J");
    }

    #[test]
    fn deterministic_per_seed_and_varies_across_seeds() {
        let a = four_day_trace(5);
        let b = four_day_trace(5);
        assert_eq!(a, b);
        let c = four_day_trace(6);
        assert_ne!(a, c);
    }

    #[test]
    fn extract_day_matches_parent() {
        let t = four_day_trace(3);
        let d2 = t.extract_day(2);
        assert_eq!(d2.grid().days(), 1);
        assert_eq!(d2.day_energy(0), t.day_energy(2));
        assert_eq!(d2.day_archetype(0), Some(DayArchetype::Overcast));
    }

    #[test]
    #[should_panic(expected = "outside trace")]
    fn extract_day_out_of_range_panics() {
        four_day_trace(3).extract_day(9);
    }

    #[test]
    fn weather_mode_produces_varied_days() {
        let t = TraceBuilder::new(grid(30), SolarPanel::paper_panel())
            .seed(9)
            .weather(WeatherProcess::temperate())
            .build();
        let kinds: std::collections::HashSet<_> =
            (0..30).filter_map(|d| t.day_archetype(d)).collect();
        assert!(kinds.len() >= 2, "30 days should span multiple archetypes");
    }

    #[test]
    fn from_powers_validates_shape() {
        let g = TimeGrid::with_minute_slots(1, 2, 2).unwrap();
        let ok = SolarTrace::from_powers(g, vec![Watts::new(0.01); 4]);
        assert!((ok.total_energy().value() - 0.01 * 4.0 * 60.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "every slot")]
    fn from_powers_rejects_short_vec() {
        let g = TimeGrid::with_minute_slots(1, 2, 2).unwrap();
        SolarTrace::from_powers(g, vec![Watts::new(0.01); 3]);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn from_powers_rejects_negative() {
        let g = TimeGrid::with_minute_slots(1, 1, 2).unwrap();
        SolarTrace::from_powers(g, vec![Watts::new(0.01), Watts::new(-0.01)]);
    }

    #[test]
    fn total_energy_is_sum_of_days() {
        let t = four_day_trace(8);
        let sum: f64 = (0..4).map(|d| t.day_energy(d).value()).sum();
        assert!((t.total_energy().value() - sum).abs() < 1e-6);
    }
}
