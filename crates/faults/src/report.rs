//! Fault observability: the event log and degraded-mode counters the
//! simulation report carries.

use serde::{Deserialize, Serialize};

/// What kind of fault (or degradation reaction) an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Harvest forced to zero over a window.
    SolarOutage,
    /// Harvest attenuated (but not zeroed) over a window.
    CloudBurst,
    /// Capacitance fade / leakage growth active.
    CapacitorAging,
    /// The active-capacitor mux was stuck on one channel.
    PmuStuck,
    /// The per-period forecast was corrupted.
    ForecastCorruption,
    /// DBN inference was unavailable.
    DbnUnavailable,
    /// DBN inference returned non-finite outputs.
    DbnNan,
    /// A resilient planner engaged its fallback baseline.
    PlannerFallback,
    /// The engine dropped a task assignment that violated the
    /// scheduler contract instead of aborting.
    ContractViolation,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::SolarOutage => "solar-outage",
            FaultKind::CloudBurst => "cloud-burst",
            FaultKind::CapacitorAging => "capacitor-aging",
            FaultKind::PmuStuck => "pmu-stuck",
            FaultKind::ForecastCorruption => "forecast-corruption",
            FaultKind::DbnUnavailable => "dbn-unavailable",
            FaultKind::DbnNan => "dbn-nan",
            FaultKind::PlannerFallback => "planner-fallback",
            FaultKind::ContractViolation => "contract-violation",
        };
        write!(f, "{s}")
    }
}

/// One entry of a simulation's fault log: a fault window that was
/// materialised, or a degradation reaction that fired.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Flat period index the event starts at.
    pub period: usize,
    /// Number of consecutive periods covered (1 for point events).
    pub periods: usize,
    /// Event kind.
    pub kind: FaultKind,
    /// Human-readable detail (factor, channel, reason…).
    pub detail: String,
}

impl FaultEvent {
    /// Convenience constructor for a single-period event.
    pub fn at(period: usize, kind: FaultKind, detail: impl Into<String>) -> Self {
        Self {
            period,
            periods: 1,
            kind,
            detail: detail.into(),
        }
    }
}

/// Tallies of the graceful-degradation reactions a run took. All-zero
/// for a clean run (and omitted from serialised reports in that case).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradedCounters {
    /// Non-finite or negative forecasts replaced by zero.
    pub sanitized_forecasts: usize,
    /// Periods where a stuck PMU channel overrode the planner's
    /// capacitor choice.
    pub pmu_overrides: usize,
    /// Task assignments dropped after a scheduler-contract violation
    /// (instead of aborting the run).
    pub contract_skips: usize,
    /// Periods a resilient planner served from its fallback baseline.
    pub planner_fallbacks: usize,
    /// Slots whose harvest was modified by a solar fault.
    pub faulted_slots: usize,
    /// Fault events elided from the report's log by the first/last-K
    /// cap (see [`cap_event_log`]) so chatty multi-month runs stay
    /// bounded in memory.
    pub dropped_events: usize,
}

impl DegradedCounters {
    /// Whether nothing degraded (the clean-run state).
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }

    /// Sum of all counters — a coarse "how off-nominal was this run"
    /// scalar for sweep tables.
    pub fn total(&self) -> usize {
        self.sanitized_forecasts
            + self.pmu_overrides
            + self.contract_skips
            + self.planner_fallbacks
            + self.faulted_slots
            + self.dropped_events
    }
}

// Hand-written so `dropped_events` only appears when events were
// actually dropped: reports written before the cap existed stay
// byte-identical, and tolerant deserialisation accepts both shapes.
impl Serialize for DegradedCounters {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"sanitized_forecasts\":");
        self.sanitized_forecasts.serialize_json(out);
        out.push_str(",\"pmu_overrides\":");
        self.pmu_overrides.serialize_json(out);
        out.push_str(",\"contract_skips\":");
        self.contract_skips.serialize_json(out);
        out.push_str(",\"planner_fallbacks\":");
        self.planner_fallbacks.serialize_json(out);
        out.push_str(",\"faulted_slots\":");
        self.faulted_slots.serialize_json(out);
        if self.dropped_events != 0 {
            out.push_str(",\"dropped_events\":");
            self.dropped_events.serialize_json(out);
        }
        out.push('}');
    }
}

impl Deserialize for DegradedCounters {
    fn deserialize_json(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            sanitized_forecasts: usize::deserialize_json(v.field("sanitized_forecasts")?)?,
            pmu_overrides: usize::deserialize_json(v.field("pmu_overrides")?)?,
            contract_skips: usize::deserialize_json(v.field("contract_skips")?)?,
            planner_fallbacks: usize::deserialize_json(v.field("planner_fallbacks")?)?,
            faulted_slots: usize::deserialize_json(v.field("faulted_slots")?)?,
            dropped_events: match v.field("dropped_events") {
                Ok(f) => usize::deserialize_json(f)?,
                Err(_) => 0,
            },
        })
    }
}

/// How many events the first/last windows of a capped log keep each.
/// Generous enough that every committed fixture is far below the cap;
/// only pathological multi-month chatty plans ever truncate.
pub const EVENT_LOG_KEEP: usize = 32;

/// Caps an event log in place to the first `keep` and last `keep`
/// entries, returning how many middle entries were dropped (0 when the
/// log already fits in `2 * keep`).
pub fn cap_event_log(events: &mut Vec<FaultEvent>, keep: usize) -> usize {
    let len = events.len();
    if len <= keep.saturating_mul(2) {
        return 0;
    }
    let dropped = len - 2 * keep;
    events.drain(keep..len - keep);
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_zero_and_total() {
        let mut c = DegradedCounters::default();
        assert!(c.is_zero());
        assert_eq!(c.total(), 0);
        c.pmu_overrides = 2;
        c.faulted_slots = 3;
        assert!(!c.is_zero());
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn event_round_trip() {
        let e = FaultEvent {
            period: 12,
            periods: 4,
            kind: FaultKind::SolarOutage,
            detail: "factor 0".into(),
        };
        let json = serde_json::to_string(&e).expect("serialises");
        let back: FaultEvent = serde_json::from_str(&json).expect("deserialises");
        assert_eq!(back, e);
    }

    #[test]
    fn kind_display_is_kebab() {
        assert_eq!(FaultKind::DbnUnavailable.to_string(), "dbn-unavailable");
        assert_eq!(FaultKind::PlannerFallback.to_string(), "planner-fallback");
    }

    #[test]
    fn dropped_events_omitted_when_zero() {
        let c = DegradedCounters {
            pmu_overrides: 1,
            ..DegradedCounters::default()
        };
        let json = serde_json::to_string(&c).expect("serialises");
        assert!(!json.contains("dropped_events"));
        let back: DegradedCounters = serde_json::from_str(&json).expect("deserialises");
        assert_eq!(back, c);

        let c = DegradedCounters {
            dropped_events: 7,
            ..DegradedCounters::default()
        };
        let json = serde_json::to_string(&c).expect("serialises");
        assert!(json.contains("\"dropped_events\":7"));
        let back: DegradedCounters = serde_json::from_str(&json).expect("deserialises");
        assert_eq!(back, c);
    }

    #[test]
    fn event_log_cap_keeps_first_and_last() {
        let mut events: Vec<FaultEvent> = (0..10)
            .map(|i| FaultEvent::at(i, FaultKind::PlannerFallback, format!("e{i}")))
            .collect();
        assert_eq!(cap_event_log(&mut events, 5), 0);
        assert_eq!(events.len(), 10);
        assert_eq!(cap_event_log(&mut events, 3), 4);
        assert_eq!(events.len(), 6);
        let periods: Vec<usize> = events.iter().map(|e| e.period).collect();
        assert_eq!(periods, vec![0, 1, 2, 7, 8, 9]);
        assert_eq!(cap_event_log(&mut events, 0), 6);
        assert!(events.is_empty());
    }
}
