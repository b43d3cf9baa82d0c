//! Simulation metrics: per-period records and the aggregates the
//! paper's figures report (long-term DMR, energy utilisation,
//! migration efficiency).

use helio_common::time::PeriodRef;
use helio_common::units::Joules;
use helio_faults::{DegradedCounters, FaultEvent};
use serde::{Deserialize, Serialize};

use crate::planner::Pattern;

/// Everything measured in one period.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodRecord {
    /// Which period.
    pub period: PeriodRef,
    /// Tasks that missed their deadline.
    pub misses: usize,
    /// Task count `N` (for DMR normalisation).
    pub tasks: usize,
    /// Harvested solar energy (source side).
    pub harvested: Joules,
    /// Load served through the direct channel.
    pub served_direct: Joules,
    /// Load served from storage.
    pub served_storage: Joules,
    /// Solar energy absorbed into storage.
    pub stored: Joules,
    /// Solar surplus wasted (storage full).
    pub wasted: Joules,
    /// Demand that browned out.
    pub unmet: Joules,
    /// Energy lost to capacitor leakage.
    pub leaked: Joules,
    /// Brown-out slots.
    pub brownouts: usize,
    /// Pattern the planner chose.
    pub pattern: Pattern,
    /// Active capacitor index during the period.
    pub capacitor: usize,
}

impl PeriodRecord {
    /// Bytes of one record in the fixed-width form of
    /// [`PeriodRecord::encode_le`]: fourteen little-endian 8-byte
    /// words.
    pub const ENCODED_LEN: usize = 112;

    /// The period's deadline-miss rate `DMR_{i,j}`.
    pub fn dmr(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            self.misses as f64 / self.tasks as f64
        }
    }

    /// Appends the record as [`PeriodRecord::ENCODED_LEN`] bytes: day,
    /// period, misses and tasks as `u64`, the seven energies as their
    /// `f64` bits (harvested, served direct, served from storage,
    /// stored, wasted, unmet, leaked), then brown-outs, the pattern tag
    /// (asap 0, inter 1, intra 2) and the capacitor as `u64`. Every bit
    /// survives, so [`PeriodRecord::decode_le`] returns an equal record.
    pub fn encode_le(&self, out: &mut Vec<u8>) {
        let words = [
            self.period.day as u64,
            self.period.period as u64,
            self.misses as u64,
            self.tasks as u64,
            self.harvested.value().to_bits(),
            self.served_direct.value().to_bits(),
            self.served_storage.value().to_bits(),
            self.stored.value().to_bits(),
            self.wasted.value().to_bits(),
            self.unmet.value().to_bits(),
            self.leaked.value().to_bits(),
            self.brownouts as u64,
            match self.pattern {
                Pattern::Asap => 0,
                Pattern::Inter => 1,
                Pattern::Intra => 2,
            },
            self.capacitor as u64,
        ];
        for w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Reads one record written by [`PeriodRecord::encode_le`]. `None`
    /// when `bytes` is not exactly [`PeriodRecord::ENCODED_LEN`] long,
    /// a count does not fit `usize` or the pattern tag is unknown.
    pub fn decode_le(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::ENCODED_LEN {
            return None;
        }
        let mut w = [0u64; 14];
        for (slot, chunk) in w.iter_mut().zip(bytes.chunks_exact(8)) {
            *slot = u64::from_le_bytes(chunk.try_into().ok()?);
        }
        let [day, period, misses, tasks, harvested, served_direct, served_storage, stored, wasted, unmet, leaked, brownouts, pattern, capacitor] =
            w;
        let count = |x: u64| usize::try_from(x).ok();
        let joules = |x: u64| Joules::new(f64::from_bits(x));
        Some(Self {
            period: PeriodRef::new(count(day)?, count(period)?),
            misses: count(misses)?,
            tasks: count(tasks)?,
            harvested: joules(harvested),
            served_direct: joules(served_direct),
            served_storage: joules(served_storage),
            stored: joules(stored),
            wasted: joules(wasted),
            unmet: joules(unmet),
            leaked: joules(leaked),
            brownouts: count(brownouts)?,
            pattern: match pattern {
                0 => Pattern::Asap,
                1 => Pattern::Inter,
                2 => Pattern::Intra,
                _ => return None,
            },
            capacitor: count(capacitor)?,
        })
    }
}

/// Aggregated results of one simulation run.
///
/// Serialisation is hand-written rather than derived: the fault log
/// and degraded counters are *omitted* from the JSON when empty/zero,
/// so clean runs produce byte-identical reports to the pre-fault
/// format (the golden gate depends on this), and reports written
/// before the fault harness existed still deserialise.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Scheduler/planner name.
    pub planner: String,
    /// Per-period records in chronological order.
    pub periods: Vec<PeriodRecord>,
    /// Planner complexity counter (state expansions).
    pub complexity: u64,
    /// NVP state backups caused by brown-outs.
    pub nvp_backups: usize,
    /// NVP state restores when interrupted tasks resumed.
    pub nvp_restores: usize,
    /// Total backup/restore energy overhead.
    pub nvp_overhead: Joules,
    /// Fault windows materialised and degradation reactions taken,
    /// sorted by start period. Empty for clean runs.
    pub faults: Vec<FaultEvent>,
    /// Tallies of graceful-degradation reactions. All-zero for clean
    /// runs.
    pub degraded: DegradedCounters,
}

impl Serialize for SimReport {
    fn serialize_json(&self, out: &mut String) {
        out.push('{');
        out.push_str("\"planner\":");
        self.planner.serialize_json(out);
        out.push_str(",\"periods\":");
        self.periods.serialize_json(out);
        out.push_str(",\"complexity\":");
        self.complexity.serialize_json(out);
        out.push_str(",\"nvp_backups\":");
        self.nvp_backups.serialize_json(out);
        out.push_str(",\"nvp_restores\":");
        self.nvp_restores.serialize_json(out);
        out.push_str(",\"nvp_overhead\":");
        self.nvp_overhead.serialize_json(out);
        if !self.faults.is_empty() {
            out.push_str(",\"faults\":");
            self.faults.serialize_json(out);
        }
        if !self.degraded.is_zero() {
            out.push_str(",\"degraded\":");
            self.degraded.serialize_json(out);
        }
        out.push('}');
    }
}

impl Deserialize for SimReport {
    fn deserialize_json(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            planner: String::deserialize_json(v.field("planner")?)?,
            periods: Vec::deserialize_json(v.field("periods")?)?,
            complexity: u64::deserialize_json(v.field("complexity")?)?,
            nvp_backups: usize::deserialize_json(v.field("nvp_backups")?)?,
            nvp_restores: usize::deserialize_json(v.field("nvp_restores")?)?,
            nvp_overhead: Joules::deserialize_json(v.field("nvp_overhead")?)?,
            faults: match v.field("faults") {
                Ok(f) => Vec::deserialize_json(f)?,
                Err(_) => Vec::new(),
            },
            degraded: match v.field("degraded") {
                Ok(d) => DegradedCounters::deserialize_json(d)?,
                Err(_) => DegradedCounters::default(),
            },
        })
    }
}

impl SimReport {
    /// Long-term DMR: total misses over total task releases (Eq. 6).
    pub fn overall_dmr(&self) -> f64 {
        let misses: usize = self.periods.iter().map(|p| p.misses).sum();
        let total: usize = self.periods.iter().map(|p| p.tasks).sum();
        if total == 0 {
            0.0
        } else {
            misses as f64 / total as f64
        }
    }

    /// DMR restricted to the periods of one day.
    pub fn day_dmr(&self, day: usize) -> f64 {
        let (misses, total) = self
            .periods
            .iter()
            .filter(|p| p.period.day == day)
            .fold((0usize, 0usize), |(m, t), p| (m + p.misses, t + p.tasks));
        if total == 0 {
            0.0
        } else {
            misses as f64 / total as f64
        }
    }

    /// Total harvested solar energy.
    pub fn total_harvested(&self) -> Joules {
        self.periods.iter().map(|p| p.harvested).sum()
    }

    /// Total energy delivered to the load (both channels).
    pub fn total_served(&self) -> Joules {
        self.periods
            .iter()
            .map(|p| p.served_direct + p.served_storage)
            .sum()
    }

    /// Energy utilisation (Fig. 9b): load energy delivered per joule
    /// harvested.
    pub fn energy_utilisation(&self) -> f64 {
        let h = self.total_harvested();
        if h.value() <= 0.0 {
            0.0
        } else {
            (self.total_served() / h).clamp(0.0, 1.0)
        }
    }

    /// Aggregate migration efficiency (Fig. 10b): energy delivered from
    /// storage per joule absorbed into storage.
    pub fn migration_efficiency(&self) -> f64 {
        let stored: Joules = self.periods.iter().map(|p| p.stored).sum();
        let delivered: Joules = self.periods.iter().map(|p| p.served_storage).sum();
        if stored.value() <= 0.0 {
            0.0
        } else {
            (delivered / stored).clamp(0.0, 1.0)
        }
    }

    /// Accumulated DMR after the first `k` periods (Eq. 19's
    /// `DMR^acc`).
    pub fn accumulated_dmr(&self, k: usize) -> f64 {
        let slice = &self.periods[..k.min(self.periods.len())];
        let misses: usize = slice.iter().map(|p| p.misses).sum();
        let total: usize = slice.iter().map(|p| p.tasks).sum();
        if total == 0 {
            0.0
        } else {
            misses as f64 / total as f64
        }
    }

    /// Per-day DMR series (one value per simulated day).
    pub fn daily_dmr_series(&self) -> Vec<f64> {
        let last_day = self.periods.last().map_or(0, |p| p.period.day);
        (0..=last_day).map(|d| self.day_dmr(d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(day: usize, period: usize, misses: usize, tasks: usize) -> PeriodRecord {
        PeriodRecord {
            period: PeriodRef::new(day, period),
            misses,
            tasks,
            harvested: Joules::new(10.0),
            served_direct: Joules::new(4.0),
            served_storage: Joules::new(1.0),
            stored: Joules::new(2.0),
            wasted: Joules::new(1.0),
            unmet: Joules::ZERO,
            leaked: Joules::new(0.1),
            brownouts: 0,
            pattern: Pattern::Intra,
            capacitor: 0,
        }
    }

    fn report() -> SimReport {
        SimReport {
            planner: "test".into(),
            periods: vec![
                record(0, 0, 0, 5),
                record(0, 1, 5, 5),
                record(1, 0, 2, 5),
                record(1, 1, 3, 5),
            ],
            complexity: 7,
            nvp_backups: 2,
            nvp_restores: 1,
            nvp_overhead: Joules::new(1e-5),
            faults: vec![],
            degraded: DegradedCounters::default(),
        }
    }

    #[test]
    fn overall_and_daily_dmr() {
        let r = report();
        assert!((r.overall_dmr() - 0.5).abs() < 1e-12);
        assert!((r.day_dmr(0) - 0.5).abs() < 1e-12);
        assert!((r.day_dmr(1) - 0.5).abs() < 1e-12);
        assert_eq!(r.daily_dmr_series().len(), 2);
    }

    #[test]
    fn accumulated_dmr_prefixes() {
        let r = report();
        assert!((r.accumulated_dmr(1) - 0.0).abs() < 1e-12);
        assert!((r.accumulated_dmr(2) - 0.5).abs() < 1e-12);
        assert!((r.accumulated_dmr(99) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn energy_aggregates() {
        let r = report();
        assert!((r.total_harvested().value() - 40.0).abs() < 1e-9);
        assert!((r.total_served().value() - 20.0).abs() < 1e-9);
        assert!((r.energy_utilisation() - 0.5).abs() < 1e-12);
        assert!((r.migration_efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = SimReport {
            planner: "empty".into(),
            periods: vec![],
            complexity: 0,
            nvp_backups: 0,
            nvp_restores: 0,
            nvp_overhead: Joules::ZERO,
            faults: vec![],
            degraded: DegradedCounters::default(),
        };
        assert_eq!(r.overall_dmr(), 0.0);
        assert_eq!(r.energy_utilisation(), 0.0);
        assert_eq!(r.migration_efficiency(), 0.0);
        assert!(r.daily_dmr_series().len() <= 1);
    }

    #[test]
    fn period_record_dmr() {
        assert!((record(0, 0, 2, 5).dmr() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn record_codec_keeps_every_bit() {
        let mut r = record(3, 47, 2, 5);
        r.harvested = Joules::new(-0.0);
        r.served_direct = Joules::new(f64::from_bits(1)); // subnormal
        r.served_storage = Joules::new(f64::from_bits(0x7ff8_dead_beef_0001)); // NaN payload
        r.unmet = Joules::new(1.0 / 3.0);
        r.brownouts = 9;
        r.capacitor = 1;
        for pattern in [Pattern::Asap, Pattern::Inter, Pattern::Intra] {
            r.pattern = pattern;
            let mut bytes = vec![0xAB]; // encode appends
            r.encode_le(&mut bytes);
            assert_eq!(bytes.len(), 1 + PeriodRecord::ENCODED_LEN);
            let back = PeriodRecord::decode_le(&bytes[1..]).unwrap();
            let mut again = Vec::new();
            back.encode_le(&mut again);
            assert_eq!(again, bytes[1..], "{pattern:?}");
            assert_eq!(back.served_storage.value().to_bits(), 0x7ff8_dead_beef_0001);
            assert_eq!(back.harvested.value().to_bits(), (-0.0f64).to_bits());
        }
    }

    #[test]
    fn record_codec_refuses_bad_bytes() {
        let mut bytes = Vec::new();
        record(0, 1, 0, 5).encode_le(&mut bytes);
        assert!(PeriodRecord::decode_le(&bytes[..111]).is_none(), "short");
        let mut long = bytes.clone();
        long.push(0);
        assert!(PeriodRecord::decode_le(&long).is_none(), "long");
        let tag = 12 * 8;
        for bad in [3u64, u64::MAX] {
            let mut b = bytes.clone();
            b[tag..tag + 8].copy_from_slice(&bad.to_le_bytes());
            assert!(PeriodRecord::decode_le(&b).is_none(), "pattern tag {bad}");
        }
        assert!(PeriodRecord::decode_le(&bytes).is_some());
    }

    #[test]
    fn clean_reports_omit_fault_fields() {
        let json = serde_json::to_string(&report()).unwrap();
        assert!(!json.contains("\"faults\""));
        assert!(!json.contains("\"degraded\""));
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report());
    }

    #[test]
    fn faulted_reports_round_trip() {
        let mut r = report();
        r.faults.push(helio_faults::FaultEvent::at(
            3,
            helio_faults::FaultKind::SolarOutage,
            "factor 0",
        ));
        r.degraded.faulted_slots = 10;
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"faults\""));
        assert!(json.contains("\"degraded\""));
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
