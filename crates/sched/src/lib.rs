//! # helio-sched
//!
//! Slot-level task schedulers for the DAC'15 reproduction: the
//! execution-state bookkeeping (`S'_{i,j,m}(n)` of the system model),
//! the [`SlotScheduler`] trait the simulation engine drives, the
//! baseline schedulers the paper compares against, and the per-period
//! *subset execution kernel* that the offline optimiser and online
//! planner share.
//!
//! ## Baselines
//!
//! * [`AsapScheduler`] — run everything as soon as possible, blind to
//!   energy (used for capacitor sizing's migration patterns and as a
//!   naive reference).
//! * [`LsaScheduler`] — the up-to-date WCMA-based lazy inter-task
//!   scheduler of ref. \[3\]: admits tasks against the period's predicted
//!   energy budget and runs each admitted task contiguously as late as
//!   its deadline allows (letting the capacitor charge first).
//! * [`IntraTaskScheduler`] — the fine-grained intra-task load-matching
//!   scheduler of ref. \[9\]: every slot, tasks are admitted in
//!   urgency order while the slot's available energy lasts; tasks are
//!   preempted freely at slot boundaries.
//!
//! Both published baselines optimise the *current* period — exactly the
//! short-sightedness the paper's long-term scheduler corrects.

// Library code must degrade gracefully, never panic; tests are
// exempt. CI enforces this via clippy.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod asap;
pub mod context;
pub mod exec;
pub mod intra;
pub mod lsa;
pub mod subset;
pub mod tables;
pub mod traits;

pub use asap::AsapScheduler;
pub use context::{PeriodStart, SlotContext};
pub use exec::ExecState;
pub use intra::IntraTaskScheduler;
pub use lsa::LsaScheduler;
pub use subset::{simulate_subset, SubsetKernel, SubsetOutcome};
pub use tables::SchedTables;
pub use traits::{edf_pick_set, SlotScheduler};
