#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]
//! # heliosched
//!
//! Long-term deadline-aware task scheduling with global energy
//! migration for solar-powered nonvolatile sensor nodes — a full
//! reproduction of the DAC'15 paper by Zhang et al.
//!
//! The crate ties the substrates together:
//!
//! * [`engine`] — the slot-stepped simulation of the dual-channel node
//!   (Fig. 3): solar harvest, PMU routing, capacitor bank, NVP fleet
//!   and deadline bookkeeping.
//! * [`planner`] — the per-period coarse decision interface: which
//!   supercapacitor to use, which tasks to admit (`te_{i,j}(n)`), and
//!   which fine-grained scheduling pattern (intra vs inter) to run.
//! * [`longterm`] — the simplified long-term DMR optimisation of
//!   Section 4.2 (Eqs. 12–18) as a value-iteration over periods and
//!   quantised capacitor states.
//! * [`optimal`] — the static optimal planner (the paper's upper
//!   bound): the long-term DP run on the *true* solar trace.
//! * [`online`] — the proposed online planner: a DBN trained on optimal
//!   samples (Fig. 6), plus the Eq. 22 capacitor-switch rule and the `δ`
//!   pattern-selection threshold.
//! * [`mpc`] — the model-predictive variant on forecast solar
//!   (Fig. 10(a)), through the same switch rule and threshold.
//! * [`offline`] — the design-time pipeline: capacitor sizing
//!   (Section 4.1), optimal-sample generation, and DBN training.
//! * [`overhead`] — the Section 6.5 algorithm-overhead model for the
//!   93.5 kHz node.
//!
//! ## Quickstart
//!
//! ```
//! use heliosched::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One simulated day on a coarse grid (24 periods × 6 slots).
//! let grid = TimeGrid::new(1, 24, 6, Seconds::new(100.0))?;
//! let trace = TraceBuilder::new(grid, SolarPanel::paper_panel())
//!     .seed(1)
//!     .days(&[DayArchetype::Clear])
//!     .build();
//! let graph = benchmarks::ecg();
//! let node = NodeConfig::builder(grid)
//!     .capacitors(&[Farads::new(10.0)])
//!     .build()?;
//!
//! // The intra-task baseline, single capacitor.
//! let mut planner = FixedPlanner::new(Pattern::Intra, 0);
//! let report = Engine::new(&node, &graph, &trace)?.run(&mut planner)?;
//! assert!(report.overall_dmr() <= 1.0);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod batch;
pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod error;
pub mod longterm;
pub mod metrics;
pub mod mpc;
pub mod offline;
pub mod online;
pub mod optimal;
pub mod overhead;
pub mod planner;
pub mod resilient;
pub mod subsets;

pub use analysis::{day_night_split, DayNightSplit};
pub use batch::{BatchEngine, BatchRunState, BatchScenario, BatchScratch, PlanContext};
pub use checkpoint::{
    BatchCheckpoint, MpcCacheState, MpcCheckpoint, PlannerCheckpoint, ProposedCheckpoint,
    ResilientCheckpoint, ScenarioCheckpoint,
};
pub use config::NodeConfig;
pub use engine::Engine;
pub use error::CoreError;
pub use longterm::{
    optimize_horizon, optimize_horizon_serial, CacheStats, DpConfig, DpResult, PeriodPlan,
};
pub use metrics::{LogError, PeriodLog, PeriodRecord, SimReport};
pub use mpc::MpcPlanner;
pub use offline::{size_capacitors, train_proposed, OfflineConfig};
pub use online::{ProposedPlanner, SwitchRule};
pub use optimal::OptimalPlanner;
pub use overhead::{OverheadModel, OverheadReport};
pub use planner::{
    FixedPlanner, Pattern, PeriodPlanner, PlanDecision, PlannerHealth, PlannerObservation,
};
pub use resilient::ResilientPlanner;
pub use subsets::{closed_subsets, dmr_level_subsets};

/// Convenient re-exports for examples and downstream users.
pub mod prelude {
    pub use crate::batch::{BatchEngine, BatchRunState, BatchScenario, BatchScratch, PlanContext};
    pub use crate::checkpoint::{BatchCheckpoint, PlannerCheckpoint, ScenarioCheckpoint};
    pub use crate::config::NodeConfig;
    pub use crate::engine::Engine;
    pub use crate::error::CoreError;
    pub use crate::metrics::SimReport;
    pub use crate::mpc::MpcPlanner;
    pub use crate::offline::{size_capacitors, train_proposed, OfflineConfig};
    pub use crate::online::ProposedPlanner;
    pub use crate::optimal::OptimalPlanner;
    pub use crate::planner::{FixedPlanner, Pattern, PeriodPlanner, PlannerHealth};
    pub use crate::resilient::ResilientPlanner;
    pub use helio_common::time::{PeriodRef, TimeGrid};
    pub use helio_common::units::{Farads, Joules, Seconds, Volts, Watts};
    pub use helio_faults::{FaultHarness, FaultPlan};
    pub use helio_solar::{DayArchetype, NoisyOracle, SolarPanel, TraceBuilder, WcmaPredictor};
    pub use helio_storage::StorageModelParams;
    pub use helio_tasks::benchmarks;
}
