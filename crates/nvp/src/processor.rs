//! The nonvolatile-processor fleet.
//!
//! NVPs retain architectural state across power failures using
//! ferroelectric flip-flops (refs \[13, 14\] of the paper: 3 µs wake-up,
//! parallel compare-and-compress backup). At slot granularity this
//! means: a task's *completed slots* survive a brown-out, the slot in
//! which power failed makes no progress, and each failure/resume pair
//! costs a small backup + restore energy.

use helio_common::units::Joules;
use helio_tasks::{TaskGraph, TaskId};
use serde::{Deserialize, Serialize};

/// Backup/restore cost model of one NVP.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NvpParams {
    /// Energy of one state backup (J). FeFF backup of a small core is
    /// on the order of microjoules.
    pub backup_energy: Joules,
    /// Energy of one state restore (J).
    pub restore_energy: Joules,
}

impl Default for NvpParams {
    fn default() -> Self {
        Self {
            backup_energy: Joules::new(4e-6),
            restore_energy: Joules::new(2e-6),
        }
    }
}

/// Execution state of one NVP within a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum NvpState {
    /// Powered but idle.
    #[default]
    Idle,
    /// Executing a task this slot.
    Running(TaskId),
    /// Lost power mid-slot; state backed up, awaiting restore.
    Suspended(TaskId),
}

/// The fleet of `N_k` NVPs with per-slot occupancy tracking and
/// backup/restore energy accounting.
///
/// # Example
///
/// ```
/// use helio_nvp::NvpFleet;
/// use helio_tasks::benchmarks;
///
/// let wam = benchmarks::wam();
/// let mut fleet = NvpFleet::for_graph(&wam);
/// assert_eq!(fleet.len(), 3);
///
/// fleet.begin_slot();
/// fleet.assign(&wam, wam.ids().next().unwrap()).unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NvpFleet {
    params: NvpParams,
    states: Vec<NvpState>,
    backups: usize,
    restores: usize,
}

impl NvpFleet {
    /// Creates a fleet of `count` NVPs with default parameters.
    pub fn new(count: usize) -> Self {
        Self::with_params(count, NvpParams::default())
    }

    /// Creates a fleet with explicit parameters.
    pub fn with_params(count: usize, params: NvpParams) -> Self {
        Self {
            params,
            states: vec![NvpState::Idle; count],
            backups: 0,
            restores: 0,
        }
    }

    /// Creates a fleet sized for a task graph's NVP assignment.
    pub fn for_graph(graph: &TaskGraph) -> Self {
        Self::new(graph.nvp_count())
    }

    /// Number of NVPs `N_k`.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the fleet has no processors.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// State of one NVP, `None` when `nvp` is out of range.
    pub fn state(&self, nvp: usize) -> Option<NvpState> {
        self.states.get(nvp).copied()
    }

    /// Clears all `Running` markers at a slot boundary (tasks may be
    /// re-assigned; suspended tasks stay suspended until resumed).
    pub fn begin_slot(&mut self) {
        for s in self.states.iter_mut() {
            if let NvpState::Running(_) = s {
                *s = NvpState::Idle;
            }
        }
    }

    /// Assigns `task` to its NVP for this slot.
    ///
    /// Resuming a suspended task costs one restore.
    ///
    /// # Errors
    ///
    /// Returns the occupying task when the NVP already runs another task
    /// this slot (constraint 9), and `task` itself when its NVP lies
    /// outside a fleet not sized for `graph`.
    pub fn assign(&mut self, graph: &TaskGraph, task: TaskId) -> Result<(), TaskId> {
        let Some(state) = self.states.get_mut(graph.task(task).nvp) else {
            return Err(task);
        };
        match *state {
            NvpState::Running(other) if other != task => return Err(other),
            NvpState::Suspended(prev) if prev == task => self.restores += 1,
            _ => {}
        }
        *state = NvpState::Running(task);
        Ok(())
    }

    /// Records a brown-out: every running NVP backs up its task state.
    pub fn power_failure(&mut self) {
        for s in self.states.iter_mut() {
            if let NvpState::Running(task) = *s {
                *s = NvpState::Suspended(task);
                self.backups += 1;
            }
        }
    }

    /// Number of backups so far.
    pub fn backup_count(&self) -> usize {
        self.backups
    }

    /// Number of restores so far.
    pub fn restore_count(&self) -> usize {
        self.restores
    }

    /// Total backup/restore energy overhead so far.
    pub fn overhead_energy(&self) -> Joules {
        self.params.backup_energy * self.backups as f64
            + self.params.restore_energy * self.restores as f64
    }

    /// Tasks currently marked running, as `(nvp, task)` pairs.
    pub fn running(&self) -> Vec<(usize, TaskId)> {
        self.states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                NvpState::Running(t) => Some((i, *t)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helio_tasks::benchmarks;

    #[test]
    fn fleet_sizes_from_graph() {
        assert_eq!(NvpFleet::for_graph(&benchmarks::wam()).len(), 3);
        assert_eq!(NvpFleet::for_graph(&benchmarks::shm()).len(), 2);
        assert!(!NvpFleet::for_graph(&benchmarks::ecg()).is_empty());
    }

    #[test]
    fn one_task_per_nvp_enforced() {
        let g = benchmarks::wam();
        let mut fleet = NvpFleet::for_graph(&g);
        // locating and heart_rate_sampling share NVP 0.
        let ids: Vec<TaskId> = g.ids().collect();
        fleet.begin_slot();
        fleet.assign(&g, ids[0]).unwrap();
        assert_eq!(fleet.assign(&g, ids[1]), Err(ids[0]));
        // voice_recordation is on NVP 1 — fine.
        fleet.assign(&g, ids[2]).unwrap();
        assert_eq!(fleet.running().len(), 2);
    }

    #[test]
    fn out_of_range_nvp_is_refused() {
        let g = benchmarks::wam();
        // A one-NVP fleet cannot host WAM's NVP 1 task.
        let mut fleet = NvpFleet::new(1);
        let on_nvp_1 = g.ids().nth(2).unwrap();
        assert_eq!(fleet.assign(&g, on_nvp_1), Err(on_nvp_1));
        assert_eq!(fleet.state(1), None);
        assert!(fleet.running().is_empty());
    }

    #[test]
    fn reassigning_same_task_is_idempotent() {
        let g = benchmarks::ecg();
        let mut fleet = NvpFleet::for_graph(&g);
        let id = g.ids().next().unwrap();
        fleet.begin_slot();
        fleet.assign(&g, id).unwrap();
        fleet.assign(&g, id).unwrap();
        assert_eq!(fleet.running(), vec![(0, id)]);
    }

    #[test]
    fn begin_slot_clears_running_only() {
        let g = benchmarks::ecg();
        let mut fleet = NvpFleet::for_graph(&g);
        let id = g.ids().next().unwrap();
        fleet.begin_slot();
        fleet.assign(&g, id).unwrap();
        fleet.power_failure();
        assert_eq!(fleet.state(0), Some(NvpState::Suspended(id)));
        fleet.begin_slot();
        // Suspension survives the slot boundary.
        assert_eq!(fleet.state(0), Some(NvpState::Suspended(id)));
    }

    #[test]
    fn failure_and_resume_cost_energy() {
        let g = benchmarks::ecg();
        let mut fleet = NvpFleet::for_graph(&g);
        let id = g.ids().next().unwrap();
        fleet.begin_slot();
        fleet.assign(&g, id).unwrap();
        fleet.power_failure();
        assert_eq!(fleet.backup_count(), 1);
        fleet.begin_slot();
        fleet.assign(&g, id).unwrap();
        assert_eq!(fleet.restore_count(), 1);
        let e = fleet.overhead_energy();
        assert!((e.value() - 6e-6).abs() < 1e-12, "overhead {e}");
    }

    #[test]
    fn idle_fleet_has_no_overhead() {
        let fleet = NvpFleet::new(4);
        assert_eq!(fleet.overhead_energy(), Joules::ZERO);
        assert!(fleet.running().is_empty());
        // Power failure with nothing running backs up nothing.
        let mut fleet = fleet;
        fleet.power_failure();
        assert_eq!(fleet.backup_count(), 0);
    }
}
