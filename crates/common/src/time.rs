//! The slotted time grid of the DAC'15 system model.
//!
//! Time is organised as `N_d` days × `N_p` periods per day × `N_s` slots
//! per period, with each slot lasting `Δt` seconds (Table 1 of the paper).
//! Tasks are released once per period and may be preempted at slot
//! boundaries; energy bookkeeping advances slot by slot.

use serde::{Deserialize, Serialize};

use crate::error::{CommonError, Result};
use crate::units::Seconds;

/// Index of a day within the scheduling horizon (`i` in the paper, 0-based).
pub type DayId = usize;
/// Index of a period within a day (`j` in the paper, 0-based).
pub type PeriodId = usize;
/// Index of a slot within a period (`m` in the paper, 0-based).
pub type SlotId = usize;

/// A `(day, period)` pair addressing one scheduling period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PeriodRef {
    /// Day index `i`.
    pub day: DayId,
    /// Period-within-day index `j`.
    pub period: PeriodId,
}

impl PeriodRef {
    /// Creates a period reference.
    pub const fn new(day: DayId, period: PeriodId) -> Self {
        Self { day, period }
    }
}

impl std::fmt::Display for PeriodRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}p{}", self.day, self.period)
    }
}

/// A `(day, period, slot)` triple addressing one time slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SlotRef {
    /// Day index `i`.
    pub day: DayId,
    /// Period-within-day index `j`.
    pub period: PeriodId,
    /// Slot-within-period index `m`.
    pub slot: SlotId,
}

impl SlotRef {
    /// Creates a slot reference.
    pub const fn new(day: DayId, period: PeriodId, slot: SlotId) -> Self {
        Self { day, period, slot }
    }

    /// The period this slot belongs to.
    pub const fn period_ref(self) -> PeriodRef {
        PeriodRef::new(self.day, self.period)
    }
}

impl std::fmt::Display for SlotRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}p{}s{}", self.day, self.period, self.slot)
    }
}

/// The scheduling time grid: `N_d` days × `N_p` periods × `N_s` slots of
/// `Δt` seconds each.
///
/// # Example
///
/// ```
/// use helio_common::time::TimeGrid;
/// use helio_common::units::Seconds;
///
/// # fn main() -> Result<(), helio_common::CommonError> {
/// let grid = TimeGrid::new(2, 144, 10, Seconds::new(60.0))?;
/// assert_eq!(grid.total_slots(), 2 * 144 * 10);
/// assert!((grid.period_duration().minutes() - 10.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeGrid {
    days: usize,
    periods_per_day: usize,
    slots_per_period: usize,
    slot_duration: Seconds,
}

impl TimeGrid {
    /// Creates a grid.
    ///
    /// # Errors
    ///
    /// Returns [`CommonError::InvalidGrid`] when any dimension is zero or
    /// the slot duration is not strictly positive and finite.
    pub fn new(
        days: usize,
        periods_per_day: usize,
        slots_per_period: usize,
        slot_duration: Seconds,
    ) -> Result<Self> {
        if days == 0 || periods_per_day == 0 || slots_per_period == 0 {
            return Err(CommonError::InvalidGrid(format!(
                "grid dimensions must be nonzero (got {days}×{periods_per_day}×{slots_per_period})"
            )));
        }
        if slot_duration.value() <= 0.0 || !slot_duration.is_finite() {
            return Err(CommonError::InvalidGrid(format!(
                "slot duration must be positive and finite (got {slot_duration})"
            )));
        }
        Ok(Self {
            days,
            periods_per_day,
            slots_per_period,
            slot_duration,
        })
    }

    /// Convenience constructor used throughout the experiments: days ×
    /// `periods_per_day` periods of `slots_per_period` one-minute slots.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TimeGrid::new`].
    pub fn with_minute_slots(
        days: usize,
        periods_per_day: usize,
        slots_per_period: usize,
    ) -> Result<Self> {
        Self::new(days, periods_per_day, slots_per_period, Seconds::new(60.0))
    }

    /// Number of days `N_d`.
    pub const fn days(&self) -> usize {
        self.days
    }

    /// Periods per day `N_p`.
    pub const fn periods_per_day(&self) -> usize {
        self.periods_per_day
    }

    /// Slots per period `N_s`.
    pub const fn slots_per_period(&self) -> usize {
        self.slots_per_period
    }

    /// Slot duration `Δt`.
    pub const fn slot_duration(&self) -> Seconds {
        self.slot_duration
    }

    /// Period duration `ΔT = N_s · Δt`.
    pub fn period_duration(&self) -> Seconds {
        self.slot_duration * self.slots_per_period as f64
    }

    /// Slots in one day.
    pub const fn slots_per_day(&self) -> usize {
        self.periods_per_day * self.slots_per_period
    }

    /// Total periods over the horizon.
    pub const fn total_periods(&self) -> usize {
        self.days * self.periods_per_day
    }

    /// Total slots over the horizon.
    pub const fn total_slots(&self) -> usize {
        self.days * self.slots_per_day()
    }

    /// Flat index of a period in `[0, total_periods)`.
    ///
    /// # Panics
    ///
    /// Panics if the reference lies outside the grid.
    pub fn period_index(&self, p: PeriodRef) -> usize {
        assert!(self.contains_period(p), "period {p} outside grid");
        p.day * self.periods_per_day + p.period
    }

    /// Flat index of a slot in `[0, total_slots)`.
    ///
    /// # Panics
    ///
    /// Panics if the reference lies outside the grid.
    pub fn slot_index(&self, s: SlotRef) -> usize {
        assert!(self.contains_slot(s), "slot {s} outside grid");
        (s.day * self.periods_per_day + s.period) * self.slots_per_period + s.slot
    }

    /// Inverse of [`TimeGrid::period_index`].
    pub fn period_at(&self, index: usize) -> PeriodRef {
        PeriodRef::new(index / self.periods_per_day, index % self.periods_per_day)
    }

    /// Inverse of [`TimeGrid::slot_index`].
    pub fn slot_at(&self, index: usize) -> SlotRef {
        let period_flat = index / self.slots_per_period;
        let slot = index % self.slots_per_period;
        let p = self.period_at(period_flat);
        SlotRef::new(p.day, p.period, slot)
    }

    /// Whether the period reference lies inside the grid.
    pub fn contains_period(&self, p: PeriodRef) -> bool {
        p.day < self.days && p.period < self.periods_per_day
    }

    /// Whether the slot reference lies inside the grid.
    pub fn contains_slot(&self, s: SlotRef) -> bool {
        self.contains_period(s.period_ref()) && s.slot < self.slots_per_period
    }

    /// Local time-of-day in hours (0..24-equivalent on this grid) at the
    /// start of a period. One "day" always maps onto 24 h regardless of
    /// how much wall-clock time the grid models, which is what the solar
    /// archetypes expect.
    pub fn hour_of_day(&self, p: PeriodRef) -> f64 {
        24.0 * p.period as f64 / self.periods_per_day as f64
    }

    /// Iterates over all periods in chronological order.
    pub fn periods(&self) -> impl Iterator<Item = PeriodRef> + '_ {
        (0..self.total_periods()).map(|i| self.period_at(i))
    }

    /// Iterates over all slots in chronological order.
    pub fn slots(&self) -> impl Iterator<Item = SlotRef> + '_ {
        (0..self.total_slots()).map(|i| self.slot_at(i))
    }

    /// Iterates over the slots of a single period.
    pub fn slots_in(&self, p: PeriodRef) -> impl Iterator<Item = SlotRef> + '_ {
        (0..self.slots_per_period).map(move |m| SlotRef::new(p.day, p.period, m))
    }

    /// The period after `p`, or `None` at the end of the horizon.
    pub fn next_period(&self, p: PeriodRef) -> Option<PeriodRef> {
        let idx = self.period_index(p) + 1;
        (idx < self.total_periods()).then(|| self.period_at(idx))
    }

    /// Returns a grid identical to this one but spanning `days` days.
    ///
    /// # Errors
    ///
    /// Returns [`CommonError::InvalidGrid`] when `days` is zero.
    pub fn with_days(&self, days: usize) -> Result<Self> {
        Self::new(
            days,
            self.periods_per_day,
            self.slots_per_period,
            self.slot_duration,
        )
    }

    /// This grid cut to a single day — [`TimeGrid::with_days`]`(1)`,
    /// infallible because every other dimension was validated when
    /// `self` was built.
    pub const fn one_day(&self) -> Self {
        Self { days: 1, ..*self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> TimeGrid {
        TimeGrid::with_minute_slots(3, 144, 10).unwrap()
    }

    #[test]
    fn rejects_degenerate_grids() {
        assert!(TimeGrid::new(0, 1, 1, Seconds::new(1.0)).is_err());
        assert!(TimeGrid::new(1, 0, 1, Seconds::new(1.0)).is_err());
        assert!(TimeGrid::new(1, 1, 0, Seconds::new(1.0)).is_err());
        assert!(TimeGrid::new(1, 1, 1, Seconds::new(0.0)).is_err());
        assert!(TimeGrid::new(1, 1, 1, Seconds::new(f64::NAN)).is_err());
        assert!(TimeGrid::new(1, 1, 1, Seconds::new(-5.0)).is_err());
    }

    #[test]
    fn sizes_are_consistent() {
        let g = grid();
        assert_eq!(g.slots_per_day(), 1440);
        assert_eq!(g.total_periods(), 3 * 144);
        assert_eq!(g.total_slots(), 3 * 1440);
        assert!((g.period_duration().value() - 600.0).abs() < 1e-12);
    }

    #[test]
    fn slot_index_round_trips() {
        let g = grid();
        for idx in [0, 1, 9, 10, 1439, 1440, g.total_slots() - 1] {
            let s = g.slot_at(idx);
            assert_eq!(g.slot_index(s), idx);
        }
    }

    #[test]
    fn period_index_round_trips() {
        let g = grid();
        for idx in [0, 1, 143, 144, g.total_periods() - 1] {
            let p = g.period_at(idx);
            assert_eq!(g.period_index(p), idx);
        }
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn out_of_range_slot_panics() {
        let g = grid();
        g.slot_index(SlotRef::new(3, 0, 0));
    }

    #[test]
    fn hour_of_day_covers_full_day() {
        let g = grid();
        assert!((g.hour_of_day(PeriodRef::new(0, 0)) - 0.0).abs() < 1e-12);
        assert!((g.hour_of_day(PeriodRef::new(0, 72)) - 12.0).abs() < 1e-12);
        assert!(g.hour_of_day(PeriodRef::new(0, 143)) < 24.0);
    }

    #[test]
    fn iterators_are_chronological_and_complete() {
        let g = TimeGrid::with_minute_slots(2, 3, 4).unwrap();
        let slots: Vec<_> = g.slots().collect();
        assert_eq!(slots.len(), g.total_slots());
        assert_eq!(slots[0], SlotRef::new(0, 0, 0));
        assert_eq!(*slots.last().unwrap(), SlotRef::new(1, 2, 3));
        let in_p: Vec<_> = g.slots_in(PeriodRef::new(1, 1)).collect();
        assert_eq!(in_p.len(), 4);
        assert!(in_p.iter().all(|s| s.day == 1 && s.period == 1));
    }

    #[test]
    fn next_period_wraps_days_and_ends() {
        let g = TimeGrid::with_minute_slots(2, 3, 4).unwrap();
        assert_eq!(
            g.next_period(PeriodRef::new(0, 2)),
            Some(PeriodRef::new(1, 0))
        );
        assert_eq!(g.next_period(PeriodRef::new(1, 2)), None);
    }

    #[test]
    fn with_days_preserves_shape() {
        assert_eq!(grid().one_day(), grid().with_days(1).unwrap());
        let g = grid().with_days(30).unwrap();
        assert_eq!(g.days(), 30);
        assert_eq!(g.periods_per_day(), 144);
    }
}
