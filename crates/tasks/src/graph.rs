//! The task DAG `G(V, W)` of the system model.

use helio_common::units::{Joules, Seconds};
use helio_common::TaskSet;
use serde::{Deserialize, Serialize};

use crate::error::TaskError;
use crate::task::{Task, TaskId};

/// A directed acyclic graph of periodic tasks with NVP assignments.
///
/// `W_{n,l} = 1` edges are stored as `(from, to)` pairs: `to` depends on
/// the completion of `from` within the same period (constraint 7).
///
/// # Example
///
/// ```
/// use helio_common::units::{Seconds, Watts};
/// use helio_tasks::{Task, TaskGraph};
///
/// # fn main() -> Result<(), helio_tasks::TaskError> {
/// let mut g = TaskGraph::new("pipeline");
/// let sense = g.add_task(Task::new(
///     "sense", Seconds::new(60.0), Seconds::new(300.0),
///     Watts::from_milliwatts(10.0), 0,
/// ));
/// let process = g.add_task(Task::new(
///     "process", Seconds::new(120.0), Seconds::new(600.0),
///     Watts::from_milliwatts(30.0), 1,
/// ));
/// g.add_edge(sense, process)?;
/// g.validate(Seconds::new(600.0))?;
/// assert_eq!(g.predecessors(process), vec![sense]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskGraph {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<(TaskId, TaskId)>,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tasks: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Benchmark name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a task, returning its id.
    pub fn add_task(&mut self, task: Task) -> TaskId {
        self.tasks.push(task);
        TaskId(self.tasks.len() - 1)
    }

    /// Adds a dependence edge `from -> to` (`to` waits for `from`).
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::UnknownTask`], [`TaskError::SelfLoop`] or
    /// [`TaskError::DuplicateEdge`]. Cycles are detected in
    /// [`TaskGraph::validate`].
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) -> Result<(), TaskError> {
        for id in [from, to] {
            if id.index() >= self.tasks.len() {
                return Err(TaskError::UnknownTask(id));
            }
        }
        if from == to {
            return Err(TaskError::SelfLoop(from));
        }
        if self.edges.contains(&(from, to)) {
            return Err(TaskError::DuplicateEdge(from, to));
        }
        self.edges.push((from, to));
        Ok(())
    }

    /// Number of tasks `N`.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of dependence edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The task with a given id.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// All tasks in id order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// All task ids in order.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId)
    }

    /// All edges.
    pub fn edges(&self) -> &[(TaskId, TaskId)] {
        &self.edges
    }

    /// Direct predecessors of `id` (tasks it waits for).
    pub fn predecessors(&self, id: TaskId) -> Vec<TaskId> {
        self.edges
            .iter()
            .filter(|(_, to)| *to == id)
            .map(|(from, _)| *from)
            .collect()
    }

    /// Direct predecessors of `id` as a bitmask — the allocation-free
    /// counterpart of [`TaskGraph::predecessors`] the hot paths use.
    pub fn predecessor_set(&self, id: TaskId) -> TaskSet {
        let mut set = TaskSet::EMPTY;
        for (from, to) in &self.edges {
            if *to == id {
                set.insert(from.index());
            }
        }
        set
    }

    /// Direct successors of `id`.
    pub fn successors(&self, id: TaskId) -> Vec<TaskId> {
        self.edges
            .iter()
            .filter(|(from, _)| *from == id)
            .map(|(_, to)| *to)
            .collect()
    }

    /// Direct successors of `id` as a bitmask — the allocation-free
    /// counterpart of [`TaskGraph::successors`] the hot paths use.
    pub fn successor_set(&self, id: TaskId) -> TaskSet {
        let mut set = TaskSet::EMPTY;
        for (from, to) in &self.edges {
            if *from == id {
                set.insert(to.index());
            }
        }
        set
    }

    /// Number of distinct NVPs referenced (`N_k`, assuming dense
    /// numbering from zero).
    pub fn nvp_count(&self) -> usize {
        self.tasks.iter().map(|t| t.nvp + 1).max().unwrap_or(0)
    }

    /// Tasks bound to one NVP (the set `A_k`).
    pub fn tasks_on_nvp(&self, nvp: usize) -> Vec<TaskId> {
        self.ids().filter(|&id| self.task(id).nvp == nvp).collect()
    }

    /// Tasks bound to one NVP as a bitmask (allocation-free
    /// [`TaskGraph::tasks_on_nvp`]).
    pub fn nvp_set(&self, nvp: usize) -> TaskSet {
        let mut set = TaskSet::EMPTY;
        for (i, t) in self.tasks.iter().enumerate() {
            if t.nvp == nvp {
                set.insert(i);
            }
        }
        set
    }

    /// The full task set `{0, …, N-1}` as a bitmask.
    pub fn all_tasks(&self) -> TaskSet {
        TaskSet::all(self.tasks.len())
    }

    /// Total energy of running every task once: `Σ S_n · P_n^τ`.
    pub fn total_energy(&self) -> Joules {
        self.tasks.iter().map(Task::energy).sum()
    }

    /// Total execution time across tasks.
    pub fn total_exec_time(&self) -> Seconds {
        Seconds::new(self.tasks.iter().map(|t| t.exec_time.value()).sum())
    }

    /// A topological order of the tasks.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::DependencyCycle`] naming a task on a cycle.
    pub fn topological_order(&self) -> Result<Vec<TaskId>, TaskError> {
        let n = self.tasks.len();
        let mut indegree = vec![0usize; n];
        for (_, to) in &self.edges {
            indegree[to.index()] += 1;
        }
        let mut stack: Vec<TaskId> = (0..n)
            .map(TaskId)
            .filter(|t| indegree[t.index()] == 0)
            .collect();
        let mut out = Vec::with_capacity(n);
        while let Some(id) = stack.pop() {
            out.push(id);
            for (from, to) in &self.edges {
                if *from == id {
                    indegree[to.index()] -= 1;
                    if indegree[to.index()] == 0 {
                        stack.push(*to);
                    }
                }
            }
        }
        if out.len() != n {
            let stuck = (0..n).map(TaskId).find(|t| indegree[t.index()] > 0);
            return Err(TaskError::DependencyCycle(stuck.unwrap_or(TaskId(0))));
        }
        Ok(out)
    }

    /// Earliest finish time of every task under deadline-ordered
    /// (EDF) list scheduling with per-NVP serialisation and unlimited
    /// energy — the timing bound schedulers can actually achieve.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::DependencyCycle`] for cyclic graphs.
    pub fn edf_finish_times(&self) -> Result<Vec<Seconds>, TaskError> {
        // Cycle check up front.
        self.topological_order()?;
        let n = self.tasks.len();
        let mut finish = vec![0.0f64; n];
        let mut scheduled = vec![false; n];
        let mut nvp_free = vec![0.0f64; self.nvp_count()];
        for _ in 0..n {
            // Ready = unscheduled with every predecessor scheduled.
            let next = self
                .ids()
                .filter(|&id| {
                    !scheduled[id.index()]
                        && self.predecessors(id).iter().all(|p| scheduled[p.index()])
                })
                .min_by(|&a, &b| {
                    let da = self.task(a).deadline.value();
                    let db = self.task(b).deadline.value();
                    da.total_cmp(&db)
                });
            // An acyclic graph always has a ready task.
            let Some(next) = next else {
                let stuck = self.ids().find(|id| !scheduled[id.index()]);
                return Err(TaskError::DependencyCycle(stuck.unwrap_or(TaskId(0))));
            };
            let t = self.task(next);
            let ready = self
                .predecessors(next)
                .iter()
                .map(|p| finish[p.index()])
                .fold(0.0f64, f64::max);
            let start = ready.max(nvp_free[t.nvp]);
            let end = start + t.exec_time.value();
            finish[next.index()] = end;
            nvp_free[t.nvp] = end;
            scheduled[next.index()] = true;
        }
        Ok(finish.into_iter().map(Seconds::new).collect())
    }

    /// Validates the graph against a period length: nonempty, acyclic,
    /// every task has positive execution time, a deadline within the
    /// period no earlier than its own execution time, nonnegative power,
    /// and every dependency chain can finish before its deadlines when
    /// executed deadline-first with NVP serialisation.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition.
    pub fn validate(&self, period: Seconds) -> Result<(), TaskError> {
        if self.tasks.is_empty() {
            return Err(TaskError::Empty);
        }
        for (i, t) in self.tasks.iter().enumerate() {
            let id = TaskId(i);
            let fail = |reason: String| TaskError::InvalidTask { id, reason };
            if t.exec_time.value() <= 0.0 || t.exec_time.value().is_nan() {
                return Err(fail(format!("execution time {} not positive", t.exec_time)));
            }
            if t.deadline < t.exec_time {
                return Err(fail(format!(
                    "deadline {} earlier than execution time {}",
                    t.deadline, t.exec_time
                )));
            }
            if t.deadline > period {
                return Err(fail(format!(
                    "deadline {} beyond the period {}",
                    t.deadline, period
                )));
            }
            if t.power.value() < 0.0 {
                return Err(fail(format!("negative power {}", t.power)));
            }
        }
        // A graph that cannot meet deadlines even with unlimited energy
        // is malformed.
        let finish = self.edf_finish_times()?;
        for id in self.ids() {
            let t = self.task(id);
            let end = finish[id.index()];
            if end.value() > t.deadline.value() + 1e-9 {
                return Err(TaskError::InvalidTask {
                    id,
                    reason: format!(
                        "cannot finish by deadline even with unlimited energy \
                         (earliest finish {} s > deadline {} s)",
                        end.value(),
                        t.deadline.value()
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helio_common::units::Watts;

    fn simple_task(name: &str, exec: f64, deadline: f64, nvp: usize) -> Task {
        Task::new(
            name,
            Seconds::new(exec),
            Seconds::new(deadline),
            Watts::from_milliwatts(20.0),
            nvp,
        )
    }

    fn pipeline() -> (TaskGraph, TaskId, TaskId, TaskId) {
        let mut g = TaskGraph::new("test");
        let a = g.add_task(simple_task("a", 60.0, 200.0, 0));
        let b = g.add_task(simple_task("b", 60.0, 400.0, 0));
        let c = g.add_task(simple_task("c", 120.0, 600.0, 1));
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn construction_and_accessors() {
        let (g, a, b, c) = pipeline();
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.predecessors(b), vec![a]);
        assert_eq!(g.successors(b), vec![c]);
        assert_eq!(g.nvp_count(), 2);
        assert_eq!(g.tasks_on_nvp(0), vec![a, b]);
        assert_eq!(g.task(c).name, "c");
    }

    #[test]
    fn set_accessors_match_vec_accessors() {
        let (g, a, b, c) = pipeline();
        for id in g.ids() {
            let preds = g.predecessors(id);
            let set = g.predecessor_set(id);
            assert_eq!(set.len(), preds.len());
            assert!(preds.iter().all(|p| set.contains(p.index())));
        }
        assert_eq!(g.predecessor_set(b), TaskSet::EMPTY.with(a.index()));
        assert_eq!(g.nvp_set(0).iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(g.nvp_set(1), TaskSet::EMPTY.with(c.index()));
        assert_eq!(g.all_tasks(), TaskSet::all(3));
    }

    #[test]
    fn edge_validation() {
        let (mut g, a, b, _) = pipeline();
        assert_eq!(
            g.add_edge(a, TaskId(9)),
            Err(TaskError::UnknownTask(TaskId(9)))
        );
        assert_eq!(g.add_edge(a, a), Err(TaskError::SelfLoop(a)));
        assert_eq!(g.add_edge(a, b), Err(TaskError::DuplicateEdge(a, b)));
    }

    #[test]
    fn topological_order_respects_edges() {
        let (g, a, b, c) = pipeline();
        let order = g.topological_order().unwrap();
        let pos = |id: TaskId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(b) < pos(c));
    }

    #[test]
    fn cycle_is_detected() {
        let (mut g, a, _, c) = pipeline();
        g.add_edge(c, a).unwrap();
        assert!(matches!(
            g.topological_order(),
            Err(TaskError::DependencyCycle(_))
        ));
        assert!(g.validate(Seconds::new(600.0)).is_err());
    }

    #[test]
    fn validate_accepts_feasible_pipeline() {
        let (g, ..) = pipeline();
        g.validate(Seconds::new(600.0)).unwrap();
    }

    #[test]
    fn validate_rejects_deadline_beyond_period() {
        let mut g = TaskGraph::new("bad");
        g.add_task(simple_task("x", 60.0, 700.0, 0));
        assert!(matches!(
            g.validate(Seconds::new(600.0)),
            Err(TaskError::InvalidTask { .. })
        ));
    }

    #[test]
    fn validate_rejects_impossible_chain() {
        // Two 300 s tasks on the same NVP, both due by 400 s: even EDF
        // finishes the second at 600 s.
        let mut g = TaskGraph::new("bad");
        g.add_task(simple_task("a", 300.0, 400.0, 0));
        g.add_task(simple_task("b", 300.0, 400.0, 0));
        assert!(g.validate(Seconds::new(600.0)).is_err());
    }

    #[test]
    fn edf_finish_times_respect_deps_and_nvps() {
        let (g, a, b, c) = pipeline();
        let f = g.edf_finish_times().unwrap();
        assert!((f[a.index()].value() - 60.0).abs() < 1e-9);
        assert!((f[b.index()].value() - 120.0).abs() < 1e-9);
        // c on its own NVP still waits for b.
        assert!((f[c.index()].value() - 240.0).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_empty_and_zero_exec() {
        let g = TaskGraph::new("empty");
        assert_eq!(g.validate(Seconds::new(600.0)), Err(TaskError::Empty));
        let mut g = TaskGraph::new("zero");
        g.add_task(simple_task("z", 0.0, 100.0, 0));
        assert!(g.validate(Seconds::new(600.0)).is_err());
    }

    #[test]
    fn energy_totals() {
        let (g, ..) = pipeline();
        // (60+60+120) s at 20 mW.
        assert!((g.total_energy().value() - 0.020 * 240.0).abs() < 1e-12);
        assert!((g.total_exec_time().value() - 240.0).abs() < 1e-12);
    }
}
