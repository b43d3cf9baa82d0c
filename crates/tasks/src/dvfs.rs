//! Dynamic voltage/frequency scaling of task sets — the extension the
//! paper positions against refs \[5, 6\] (load-matching with DVFS).
//!
//! Scaling a task to frequency factor `f ∈ (0, 1]` stretches its
//! execution time by `1/f` and, with voltage tracking frequency,
//! scales its power by ~`f³` (dynamic power `∝ f·V²`, `V ∝ f`). Total
//! energy per execution therefore drops by `f²` — running slower is
//! cheaper, as long as deadlines still fit.

use helio_common::units::{Seconds, Watts};

use crate::error::TaskError;
use crate::graph::TaskGraph;
use crate::task::Task;

/// Exponent of the power-vs-frequency law. 3.0 models voltage tracking
/// frequency (`P ∝ f·V²` with `V ∝ f`); 1.0 models frequency-only
/// scaling at fixed voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsLaw {
    /// `P' = P · f^power_exponent`.
    pub power_exponent: f64,
}

impl Default for DvfsLaw {
    fn default() -> Self {
        Self {
            power_exponent: 3.0,
        }
    }
}

/// Returns a copy of `graph` with every task scaled to frequency
/// factor `f`, then validated against `period` (stretched executions
/// must still meet their deadlines).
///
/// Execution times are rounded up to whole slots of `slot` so the
/// scaled set stays slot-aligned like the originals.
///
/// # Errors
///
/// Returns [`TaskError::InvalidTask`] when `f` leaves `(0, 1]` or the
/// stretched set no longer fits its deadlines.
pub fn scale_graph(
    graph: &TaskGraph,
    f: f64,
    law: DvfsLaw,
    period: Seconds,
    slot: Seconds,
) -> Result<TaskGraph, TaskError> {
    if !(f > 0.0 && f <= 1.0) {
        return Err(TaskError::InvalidTask {
            id: crate::task::TaskId(0),
            reason: format!("DVFS factor must lie in (0, 1], got {f}"),
        });
    }
    let mut scaled = TaskGraph::new(format!("{}@f{:.2}", graph.name(), f));
    for task in graph.tasks() {
        let stretched = task.exec_time.value() / f;
        let aligned = (stretched / slot.value()).ceil() * slot.value();
        scaled.add_task(Task::new(
            task.name.clone(),
            Seconds::new(aligned),
            task.deadline,
            Watts::new(task.power.value() * f.powf(law.power_exponent)),
            task.nvp,
        ));
    }
    for &(from, to) in graph.edges() {
        scaled.add_edge(from, to)?;
    }
    scaled.validate(period)?;
    Ok(scaled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    const PERIOD: Seconds = Seconds::new(600.0);
    const SLOT: Seconds = Seconds::new(60.0);

    /// A deliberately slack task set (deadlines far beyond execution
    /// times) so substantial slow-downs stay feasible.
    fn loose_graph() -> TaskGraph {
        let mut g = TaskGraph::new("loose");
        g.add_task(Task::new(
            "sense",
            Seconds::new(60.0),
            Seconds::new(480.0),
            Watts::from_milliwatts(20.0),
            0,
        ));
        g.add_task(Task::new(
            "process",
            Seconds::new(120.0),
            Seconds::new(600.0),
            Watts::from_milliwatts(30.0),
            1,
        ));
        g
    }

    #[test]
    fn full_speed_is_identity_up_to_alignment() {
        let g = benchmarks::ecg();
        let s = scale_graph(&g, 1.0, DvfsLaw::default(), PERIOD, SLOT).unwrap();
        for (a, b) in g.tasks().iter().zip(s.tasks()) {
            assert_eq!(a.exec_time, b.exec_time);
            assert!((a.power.value() - b.power.value()).abs() < 1e-15);
        }
    }

    #[test]
    fn slowdown_saves_energy() {
        let g = loose_graph();
        let s = scale_graph(&g, 0.5, DvfsLaw::default(), PERIOD, SLOT).unwrap();
        assert!(
            s.total_energy() < g.total_energy() * 0.6,
            "cubic law at f=0.5 should save >40% energy: {} vs {}",
            s.total_energy(),
            g.total_energy()
        );
        // Times stretched.
        assert!(s.total_exec_time() > g.total_exec_time());
    }

    #[test]
    fn linear_law_saves_nothing() {
        let g = loose_graph();
        let s = scale_graph(
            &g,
            0.5,
            DvfsLaw {
                power_exponent: 1.0,
            },
            PERIOD,
            SLOT,
        )
        .unwrap();
        // P·f × S/f = same energy (up to slot-alignment rounding up).
        assert!(s.total_energy() >= g.total_energy() * 0.99);
    }

    #[test]
    fn infeasible_slowdown_is_rejected() {
        // ECG's filter chain has a 180 s prefix due at 300 s; f = 0.3
        // stretches it past its deadlines.
        let g = benchmarks::ecg();
        assert!(scale_graph(&g, 0.3, DvfsLaw::default(), PERIOD, SLOT).is_err());
    }

    #[test]
    fn bad_factor_is_rejected() {
        let g = benchmarks::ecg();
        assert!(scale_graph(&g, 0.0, DvfsLaw::default(), PERIOD, SLOT).is_err());
        assert!(scale_graph(&g, 1.5, DvfsLaw::default(), PERIOD, SLOT).is_err());
    }

    #[test]
    fn scaled_names_record_the_factor() {
        let g = loose_graph();
        let s = scale_graph(&g, 0.75, DvfsLaw::default(), PERIOD, SLOT).unwrap();
        assert_eq!(s.name(), "loose@f0.75");
    }

    #[test]
    fn paper_benchmarks_are_deadline_tight() {
        // The published benchmarks leave little uniform-slowdown slack —
        // the reason refs [5, 6] scale per task rather than globally.
        assert!(scale_graph(&benchmarks::shm(), 0.5, DvfsLaw::default(), PERIOD, SLOT).is_err());
        assert!(scale_graph(&benchmarks::ecg(), 0.75, DvfsLaw::default(), PERIOD, SLOT).is_err());
    }
}
