//! Post-run analysis helpers: the slicing and summarisation the
//! paper's discussion sections perform on simulation results: the day
//! vs night DMR split and the scheduling-pattern counts.

use helio_common::time::TimeGrid;
use serde::{Deserialize, Serialize};

use crate::metrics::SimReport;

/// DMR split into daylight (06–18 h local) and night periods — the
/// Fig. 1 decomposition that motivates long-term scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DayNightSplit {
    /// DMR over daylight periods.
    pub day_dmr: f64,
    /// DMR over night periods.
    pub night_dmr: f64,
    /// Fraction of all periods that are daylight.
    pub day_fraction: f64,
}

/// Computes the day/night DMR split of a report on its grid.
pub fn day_night_split(report: &SimReport, grid: &TimeGrid) -> DayNightSplit {
    let mut day = (0usize, 0usize);
    let mut night = (0usize, 0usize);
    let mut day_periods = 0usize;
    for p in &report.periods {
        let hour = grid.hour_of_day(p.period);
        if (6.0..18.0).contains(&hour) {
            day.0 += p.misses;
            day.1 += p.tasks;
            day_periods += 1;
        } else {
            night.0 += p.misses;
            night.1 += p.tasks;
        }
    }
    let ratio = |(m, t): (usize, usize)| if t == 0 { 0.0 } else { m as f64 / t as f64 };
    DayNightSplit {
        day_dmr: ratio(day),
        night_dmr: ratio(night),
        day_fraction: if report.periods.is_empty() {
            0.0
        } else {
            day_periods as f64 / report.periods.len() as f64
        },
    }
}

/// Periods each scheduling pattern was chosen, as
/// `(asap, inter, intra)` counts.
pub fn pattern_usage(report: &SimReport) -> (usize, usize, usize) {
    let mut counts = (0usize, 0usize, 0usize);
    for p in &report.periods {
        match p.pattern {
            crate::planner::Pattern::Asap => counts.0 += 1,
            crate::planner::Pattern::Inter => counts.1 += 1,
            crate::planner::Pattern::Intra => counts.2 += 1,
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PeriodRecord;
    use crate::planner::Pattern;
    use helio_common::time::PeriodRef;
    use helio_common::units::{Joules, Seconds};

    fn grid() -> TimeGrid {
        TimeGrid::new(1, 24, 10, Seconds::new(60.0)).unwrap()
    }

    fn record(period: usize, misses: usize, pattern: Pattern, cap: usize) -> PeriodRecord {
        PeriodRecord {
            period: PeriodRef::new(0, period),
            misses,
            tasks: 4,
            harvested: Joules::new(10.0),
            served_direct: Joules::new(5.0),
            served_storage: Joules::new(1.0),
            stored: Joules::new(2.0),
            wasted: Joules::ZERO,
            unmet: Joules::ZERO,
            leaked: Joules::ZERO,
            brownouts: 0,
            pattern,
            capacitor: cap,
        }
    }

    fn report() -> SimReport {
        // 24 periods on a 24-period day: periods 6..18 are daylight.
        let periods = (0..24)
            .map(|j| {
                let hour = 24.0 * j as f64 / 24.0;
                let misses = if (6.0..18.0).contains(&hour) { 0 } else { 4 };
                let pattern = if misses > 0 {
                    Pattern::Inter
                } else {
                    Pattern::Intra
                };
                record(j, misses, pattern, j % 2)
            })
            .collect();
        SimReport {
            planner: "x".into(),
            periods,
            complexity: 0,
            nvp_backups: 0,
            nvp_restores: 0,
            nvp_overhead: Joules::ZERO,
            faults: vec![],
            degraded: helio_faults::DegradedCounters::default(),
        }
    }

    #[test]
    fn split_separates_day_and_night() {
        let s = day_night_split(&report(), &grid());
        assert_eq!(s.day_dmr, 0.0);
        assert_eq!(s.night_dmr, 1.0);
        assert!((s.day_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pattern_usage_counts() {
        let (asap, inter, intra) = pattern_usage(&report());
        assert_eq!(asap, 0);
        assert_eq!(inter, 12);
        assert_eq!(intra, 12);
    }
}
