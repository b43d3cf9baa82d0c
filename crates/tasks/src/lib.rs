//! # helio-tasks
//!
//! Task-set substrate for the DAC'15 reproduction: periodic task DAGs
//! with per-period deadlines, execution times and average powers
//! (Table 1's task parameters), the six evaluation benchmarks (the
//! real WAM / ECG / SHM applications plus three random sets), a seeded
//! random-DAG generator, and the DVFS scaling of Ablation 5.
//!
//! The paper characterised its tasks with a C2RTL flow plus
//! ModelSim/Design-Compiler power analysis at SMIC 130 nm; here each
//! benchmark carries execution times and powers in the same ranges
//! (tens of seconds per period, 8–45 mW) — the schedulers only consume
//! `(Sₙ, Dₙ, Pₙ, W, A_k)`.
//!
//! ## Example
//!
//! ```
//! use helio_tasks::benchmarks;
//!
//! let wam = benchmarks::wam();
//! assert_eq!(wam.len(), 8); // the paper's eight WAM tasks
//! assert!(wam.validate(helio_common::units::Seconds::new(600.0)).is_ok());
//! ```

pub mod benchmarks;
pub mod dvfs;
pub mod error;
pub mod graph;
pub mod random;
pub mod task;

pub use dvfs::{scale_graph, DvfsLaw};
pub use error::TaskError;
pub use graph::TaskGraph;
pub use random::{random_graph, RandomGraphConfig};
pub use task::{Task, TaskId};
