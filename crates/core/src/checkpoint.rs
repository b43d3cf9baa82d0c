//! Serializable mid-run snapshots of a batched simulation.
//!
//! The paper's node survives power failure by checkpointing volatile
//! state into NVM at boundaries; this module gives the *simulation
//! service* the same property. A [`BatchCheckpoint`] captures every
//! scenario's cross-period state plus each planner's internal state at
//! a period boundary, such that
//! [`BatchEngine::run_span_with`](crate::BatchEngine::run_span_with)
//! resumes to byte-identical reports — the same identity discipline as
//! the batched/sharded gates.
//!
//! What is captured vs rebuilt:
//!
//! * **Captured** — capacitor bank (wholesale: aging multiplies
//!   capacitances cumulatively and `f64` products are non-associative,
//!   so replaying aging would drift bitwise), NVP fleet (suspended
//!   tasks survive period boundaries; backup/restore counters), period
//!   records, accumulated misses, degraded counters, applied
//!   aging/leakage factors, and planner state (complexity, health,
//!   injected fault, the distilled tier's demotion latch, the MPC
//!   planner's day-plan cache, the resilient wrapper's demotion).
//! * **Rebuilt** — schedulers and executor state (reset at every
//!   period boundary anyway), scratch buffers, the shared
//!   [`PlanContext`](crate::batch::PlanContext), DBN weights and
//!   caches (run constants), and the fault harness (a pure function of
//!   its plan).

use helio_faults::{DbnFaultMode, DegradedCounters, FaultEvent};
use helio_nvp::NvpFleet;
use helio_storage::CapacitorBank;
use serde::{Deserialize, Serialize};

use crate::longterm::PeriodPlan;
use crate::metrics::PeriodLog;
use crate::planner::PlannerHealth;

/// Cross-period engine state of one scenario at a period boundary.
/// Everything else in the per-period loop is recomputed from scratch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioCheckpoint {
    pub(crate) bank: CapacitorBank,
    pub(crate) fleet: NvpFleet,
    pub(crate) periods: PeriodLog,
    pub(crate) acc_misses: usize,
    pub(crate) acc_tasks: usize,
    pub(crate) degraded: DegradedCounters,
    pub(crate) applied_cap_factor: f64,
    pub(crate) leak_scale: f64,
    /// Whether a scaled leakage model was in force (the scaled params
    /// themselves are rebuilt from `leak_scale` on restore).
    pub(crate) leak_scaled: bool,
}

impl ScenarioCheckpoint {
    /// The period records finished before the boundary, one per period
    /// from period 0, so their count is the checkpoint's next period.
    pub fn periods(&self) -> &PeriodLog {
        &self.periods
    }

    /// The live state alone: a copy with no period records. Everything
    /// else (bank, NVP fleet, counters, aging factors) is what grows
    /// with neither the run length nor the period index.
    pub fn live_state(&self) -> Self {
        Self {
            bank: self.bank.clone(),
            fleet: self.fleet.clone(),
            periods: PeriodLog::new(),
            acc_misses: self.acc_misses,
            acc_tasks: self.acc_tasks,
            degraded: self.degraded,
            applied_cap_factor: self.applied_cap_factor,
            leak_scale: self.leak_scale,
            leak_scaled: self.leak_scaled,
        }
    }

    /// Reassembles a checkpoint from a live state and the records
    /// finished so far (replacing any records the live state held).
    pub fn with_periods(mut self, periods: PeriodLog) -> Self {
        self.periods = periods;
        self
    }
}

/// The [`MpcPlanner`](crate::mpc::MpcPlanner)'s day-plan cache.
/// Without it a resumed run would replan mid-day from a different base
/// period and double-count DP complexity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MpcCacheState {
    /// Day the cached plan sequence was computed for.
    pub day: usize,
    /// Capacitor the cached sequence selected.
    pub capacitor: usize,
    /// Flat index of the first cached period.
    pub base_flat: usize,
    /// One plan per remaining period of the day.
    pub plans: Vec<PeriodPlan>,
}

/// [`ProposedPlanner`](crate::online::ProposedPlanner) state: the
/// complexity counter, health latch, injected inference fault, and
/// (for the distilled backend) the tier state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProposedCheckpoint {
    /// Cumulative planning complexity (Fig. 10(a) metric).
    pub complexity: u64,
    /// Health of the most recent decision.
    pub health: PlannerHealth,
    /// Inference fault injected for the upcoming period, if any.
    pub injected: Option<DbnFaultMode>,
    /// Distilled-tier demotion state; `None` for other backends.
    pub distilled: Option<DistilledState>,
}

/// [`MpcPlanner`](crate::mpc::MpcPlanner) state: the complexity
/// counter, health latch, injected compute fault and the day-plan
/// cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MpcCheckpoint {
    /// Cumulative planning complexity (Fig. 10(a) metric).
    pub complexity: u64,
    /// Health of the most recent decision.
    pub health: PlannerHealth,
    /// Compute fault injected for the upcoming period, if any.
    pub injected: Option<DbnFaultMode>,
    /// The day-plan cache; `None` before the first plan.
    pub cache: Option<MpcCacheState>,
}

/// The distilled backend's cross-period degradation state. The artifact
/// itself is never serialised: a resumed run reads the one the service
/// loaded. The demotion latch and the fallback-tier counter must
/// survive a crash, or a resumed run would silently re-trust a demoted
/// artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistilledState {
    /// Whether the artifact has been demoted to its compiled fallback.
    pub demoted: bool,
    /// Periods served by the compiled fallback tier.
    pub tier_fallbacks: u64,
}

/// [`ResilientPlanner`](crate::resilient::ResilientPlanner) state:
/// demotion progress, its event log, and the wrapped inner planner's
/// own checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientCheckpoint {
    /// Scheduler-contract violations charged to the inner planner.
    pub contract_violations: usize,
    /// Whether the inner planner is currently demoted.
    pub demoted: bool,
    /// Periods served from the fallback baseline.
    pub fallback_periods: usize,
    /// Events elided from the bounded internal log.
    pub dropped_events: usize,
    /// The (bounded) internal event log.
    pub events: Vec<FaultEvent>,
    /// The wrapped planner's checkpoint.
    pub inner: Box<PlannerCheckpoint>,
}

/// One planner's internal state at a period boundary. `Stateless`
/// covers planners whose decisions depend only on the observation
/// (fixed patterns, the optimal LUT).
#[derive(Debug, Clone, PartialEq)]
pub enum PlannerCheckpoint {
    /// The planner carries no cross-period state.
    Stateless,
    /// A [`ProposedPlanner`](crate::online::ProposedPlanner) (DBN,
    /// compiled DBN, or distilled backend).
    Proposed(ProposedCheckpoint),
    /// An [`MpcPlanner`](crate::mpc::MpcPlanner).
    Mpc(MpcCheckpoint),
    /// A [`ResilientPlanner`](crate::resilient::ResilientPlanner)
    /// wrapper (recursively carries its inner planner's state).
    Resilient(ResilientCheckpoint),
}

// The vendored serde derive has no story for struct-variant enums or
// `Box` fields, so the recursive planner checkpoint is serialised by
// hand as a `{"kind": ..., "state": ...}` tagged object (the same
// pattern as `SimReport`).
impl Serialize for PlannerCheckpoint {
    fn serialize_json(&self, out: &mut String) {
        match self {
            PlannerCheckpoint::Stateless => out.push_str("{\"kind\":\"stateless\"}"),
            PlannerCheckpoint::Proposed(p) => {
                out.push_str("{\"kind\":\"proposed\",\"state\":");
                p.serialize_json(out);
                out.push('}');
            }
            PlannerCheckpoint::Mpc(m) => {
                out.push_str("{\"kind\":\"mpc\",\"state\":");
                m.serialize_json(out);
                out.push('}');
            }
            PlannerCheckpoint::Resilient(r) => {
                out.push_str("{\"kind\":\"resilient\",\"state\":");
                r.serialize_json(out);
                out.push('}');
            }
        }
    }
}

impl Deserialize for PlannerCheckpoint {
    fn deserialize_json(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v.field("kind")?.as_str()? {
            "stateless" => Ok(PlannerCheckpoint::Stateless),
            "proposed" => Ok(PlannerCheckpoint::Proposed(
                ProposedCheckpoint::deserialize_json(v.field("state")?)?,
            )),
            "mpc" => Ok(PlannerCheckpoint::Mpc(MpcCheckpoint::deserialize_json(
                v.field("state")?,
            )?)),
            "resilient" => Ok(PlannerCheckpoint::Resilient(
                ResilientCheckpoint::deserialize_json(v.field("state")?)?,
            )),
            other => Err(serde::DeError(format!(
                "unknown planner checkpoint kind `{other}`"
            ))),
        }
    }
}

impl Serialize for ResilientCheckpoint {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"contract_violations\":");
        self.contract_violations.serialize_json(out);
        out.push_str(",\"demoted\":");
        self.demoted.serialize_json(out);
        out.push_str(",\"fallback_periods\":");
        self.fallback_periods.serialize_json(out);
        out.push_str(",\"dropped_events\":");
        self.dropped_events.serialize_json(out);
        out.push_str(",\"events\":");
        self.events.serialize_json(out);
        out.push_str(",\"inner\":");
        self.inner.serialize_json(out);
        out.push('}');
    }
}

impl Deserialize for ResilientCheckpoint {
    fn deserialize_json(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            contract_violations: usize::deserialize_json(v.field("contract_violations")?)?,
            demoted: bool::deserialize_json(v.field("demoted")?)?,
            fallback_periods: usize::deserialize_json(v.field("fallback_periods")?)?,
            dropped_events: usize::deserialize_json(v.field("dropped_events")?)?,
            events: Vec::<FaultEvent>::deserialize_json(v.field("events")?)?,
            inner: Box::new(PlannerCheckpoint::deserialize_json(v.field("inner")?)?),
        })
    }
}

/// A whole batch frozen at a period boundary: the flat index of the
/// next period to run plus one scenario snapshot and one planner
/// snapshot per batch member (in push order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchCheckpoint {
    /// Flat index of the first period the resumed run executes; equal
    /// to the grid's total period count when the simulation loop has
    /// finished and only report assembly remains.
    pub next_period: usize,
    /// Per-scenario engine state, in push order.
    pub scenarios: Vec<ScenarioCheckpoint>,
    /// Per-scenario planner state, in push order.
    pub planners: Vec<PlannerCheckpoint>,
}

impl BatchCheckpoint {
    /// Number of scenarios frozen in this checkpoint.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the checkpoint holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helio_faults::FaultKind;

    #[test]
    fn planner_checkpoint_round_trips_recursively() {
        let ckpt = PlannerCheckpoint::Resilient(ResilientCheckpoint {
            contract_violations: 2,
            demoted: true,
            fallback_periods: 9,
            dropped_events: 3,
            events: vec![FaultEvent::at(4, FaultKind::PlannerFallback, "x")],
            inner: Box::new(PlannerCheckpoint::Proposed(ProposedCheckpoint {
                complexity: 77,
                health: PlannerHealth::DbnUnavailable,
                injected: Some(DbnFaultMode::Nan),
                distilled: Some(DistilledState {
                    demoted: true,
                    tier_fallbacks: 5,
                }),
            })),
        });
        let json = serde_json::to_string(&ckpt).expect("serialises");
        let back: PlannerCheckpoint = serde_json::from_str(&json).expect("deserialises");
        assert_eq!(back, ckpt);

        let mpc = PlannerCheckpoint::Mpc(MpcCheckpoint {
            complexity: 12,
            health: PlannerHealth::Healthy,
            injected: None,
            cache: Some(MpcCacheState {
                day: 1,
                capacitor: 0,
                base_flat: 24,
                plans: Vec::new(),
            }),
        });
        let json = serde_json::to_string(&mpc).expect("serialises");
        assert!(json.starts_with("{\"kind\":\"mpc\""), "{json}");
        let back: PlannerCheckpoint = serde_json::from_str(&json).expect("deserialises");
        assert_eq!(back, mpc);

        let json = serde_json::to_string(&PlannerCheckpoint::Stateless).expect("serialises");
        let back: PlannerCheckpoint = serde_json::from_str(&json).expect("deserialises");
        assert_eq!(back, PlannerCheckpoint::Stateless);
    }

    #[test]
    fn live_state_and_records_reassemble() {
        use crate::metrics::PeriodRecord;
        use crate::planner::Pattern;
        use helio_common::time::PeriodRef;
        use helio_common::units::{Farads, Joules};
        use helio_storage::StorageModelParams;

        let record = |p| PeriodRecord {
            period: PeriodRef::new(0, p),
            misses: p,
            tasks: 5,
            harvested: Joules::new(p as f64 * 0.5),
            served_direct: Joules::ZERO,
            served_storage: Joules::ZERO,
            stored: Joules::ZERO,
            wasted: Joules::ZERO,
            unmet: Joules::ZERO,
            leaked: Joules::ZERO,
            brownouts: 0,
            pattern: Pattern::Inter,
            capacitor: 0,
        };
        let bank = CapacitorBank::new(&[Farads::new(2.0)], &StorageModelParams::default()).unwrap();
        let full = ScenarioCheckpoint {
            bank,
            fleet: NvpFleet::new(3),
            periods: (0..4).map(record).collect(),
            acc_misses: 6,
            acc_tasks: 20,
            degraded: DegradedCounters::default(),
            applied_cap_factor: 0.99,
            leak_scale: 1.05,
            leak_scaled: true,
        };
        let live = full.live_state();
        assert!(live.periods().is_empty());
        assert_eq!(full.periods().len(), 4);
        assert_eq!(live.with_periods(full.periods().clone()), full);
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let r: Result<PlannerCheckpoint, _> = serde_json::from_str(r#"{"kind":"warp"}"#);
        assert!(r.is_err());
    }
}
