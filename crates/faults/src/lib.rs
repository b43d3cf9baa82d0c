//! # helio-faults
//!
//! Deterministic fault injection for the heliosched simulation.
//!
//! The paper's premise is survival under unreliable energy: solar
//! harvesting blacks out, capacitors age and leak, PMU switches stick,
//! forecasts go wrong and the DBN inference engine can be unavailable.
//! This crate describes those off-nominal scenarios as data — a
//! seedable, serde-round-trippable [`FaultPlan`] — and compiles a plan
//! into a [`FaultHarness`]: a per-period lookup table the simulation
//! engine consults at slot and period boundaries.
//!
//! Design constraints:
//!
//! * **Deterministic** — the same plan (including its `seed`) always
//!   materialises the same faults, so fault runs are reproducible and
//!   diffable like any other experiment.
//! * **Zero-cost when empty** — an empty plan compiles to an empty
//!   harness; the engine checks [`FaultHarness::is_empty`] once and
//!   takes its ordinary fault-free path, keeping the golden reports
//!   byte-identical.
//! * **Observable** — every materialised fault window becomes a
//!   [`FaultEvent`], and graceful-degradation reactions are tallied in
//!   [`DegradedCounters`]; both land in the simulation report.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::panic, clippy::indexing_slicing)
)]

pub mod harness;
pub mod plan;
pub mod report;
pub mod service;

pub use harness::FaultHarness;
pub use plan::{
    AgingFault, DbnFault, DbnFaultMode, FaultPlan, ForecastFault, ForecastMode, PeriodWindow,
    PmuStuckFault, RandomBlackouts, SolarFault,
};
pub use report::{cap_event_log, DegradedCounters, FaultEvent, FaultKind, EVENT_LOG_KEEP};
pub use service::{corrupt_line, LineCorruption, ServiceFaultPlan, SlowWriter};
