//! Seeded random task-graph generation (the paper's three random
//! benchmarks: 4–8 tasks, 0–2 edges, 2–6 NVPs).

use helio_common::rng::seeded;
use helio_common::units::{Seconds, Watts};
use rand::Rng;
use serde::Serialize;

use crate::graph::TaskGraph;
use crate::task::{Task, TaskId};

/// Parameter ranges for random graph generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RandomGraphConfig {
    /// Inclusive task-count range.
    pub tasks: (usize, usize),
    /// Inclusive edge-count range (attempted; fewer if no legal edge
    /// remains).
    pub edges: (usize, usize),
    /// Inclusive NVP-count range.
    pub nvps: (usize, usize),
    /// Execution-time choices (s); the generator picks whole slots.
    pub exec_choices: &'static [f64],
    /// Power range (mW).
    pub power_mw: (f64, f64),
    /// Period the deadlines must fit into (s).
    pub period: f64,
}

impl RandomGraphConfig {
    /// The paper's stated ranges on the standard 10-minute period.
    pub fn paper_ranges() -> Self {
        Self {
            tasks: (4, 8),
            edges: (0, 2),
            nvps: (2, 6),
            exec_choices: &[60.0, 120.0, 180.0],
            power_mw: (8.0, 45.0),
            period: 600.0,
        }
    }
}

impl Default for RandomGraphConfig {
    fn default() -> Self {
        Self::paper_ranges()
    }
}

/// Generates a random, always-valid task graph.
///
/// The generator draws task counts, execution times, powers and NVP
/// assignments from the configured ranges, adds forward edges only
/// (guaranteeing acyclicity), then assigns each task a deadline no
/// earlier than its earliest possible finish under NVP serialisation —
/// so the result always passes [`TaskGraph::validate`].
///
/// Should no draw converge (256 rejection-sampling attempts), the
/// result is the empty graph named `name`, which
/// [`TaskGraph::validate`] rejects with
/// [`TaskError::Empty`](crate::TaskError::Empty) — a typed error where
/// the graph is used, never a panic here. No seed of the paper ranges
/// comes close (see the tests).
///
/// # Panics
///
/// Panics when the configuration ranges are inverted or empty.
pub fn random_graph(name: &str, seed: u64, cfg: &RandomGraphConfig) -> TaskGraph {
    assert!(
        cfg.tasks.0 >= 1 && cfg.tasks.0 <= cfg.tasks.1,
        "bad task range"
    );
    assert!(cfg.edges.0 <= cfg.edges.1, "bad edge range");
    assert!(cfg.nvps.0 >= 1 && cfg.nvps.0 <= cfg.nvps.1, "bad NVP range");
    assert!(!cfg.exec_choices.is_empty(), "need execution-time choices");

    // Rejection sampling: some draws are overloaded (one NVP gets more
    // work than the period holds) or deadline-assignment reorders EDF in
    // a way that cannot be repaired; draw again with a derived seed.
    for attempt in 0..256u64 {
        let candidate = try_random_graph(
            name,
            seed.wrapping_mul(0x9e37_79b9).wrapping_add(attempt),
            cfg,
        );
        if let Some(g) = candidate {
            return g;
        }
    }
    TaskGraph::new(name)
}

fn try_random_graph(name: &str, seed: u64, cfg: &RandomGraphConfig) -> Option<TaskGraph> {
    let mut rng = seeded(seed);
    let n_tasks = rng.gen_range(cfg.tasks.0..=cfg.tasks.1);
    let n_edges = rng.gen_range(cfg.edges.0..=cfg.edges.1);
    let n_nvps = rng.gen_range(cfg.nvps.0..=cfg.nvps.1);

    let mut g = TaskGraph::new(name);
    for i in 0..n_tasks {
        let exec = cfg.exec_choices[rng.gen_range(0..cfg.exec_choices.len())];
        let power = rng.gen_range(cfg.power_mw.0..=cfg.power_mw.1);
        let nvp = rng.gen_range(0..n_nvps);
        // Deadline placeholder; fixed up below.
        g.add_task(Task::new(
            format!("{name}_t{i}"),
            Seconds::new(exec),
            Seconds::new(cfg.period),
            Watts::from_milliwatts(power),
            nvp,
        ));
    }

    // Forward edges (i -> j with i < j) keep the graph acyclic.
    let mut attempts = 0;
    let mut added = 0;
    while added < n_edges && attempts < 64 && n_tasks >= 2 {
        attempts += 1;
        let from = rng.gen_range(0..n_tasks - 1);
        let to = rng.gen_range(from + 1..n_tasks);
        if g.add_edge(TaskId(from), TaskId(to)).is_ok() {
            added += 1;
        }
    }

    // Earliest finish per task under EDF list scheduling (all deadlines
    // are still the period here, so this is plain list scheduling), then
    // deadline = finish + random slack, capped at the period.
    // Forward edges are acyclic, so this always succeeds.
    let finish: Vec<f64> = g
        .edf_finish_times()
        .ok()?
        .into_iter()
        .map(|s| s.value())
        .collect();
    if finish.iter().any(|&f| f > cfg.period + 1e-9) {
        return None; // overloaded draw
    }
    // Rebuild with deadlines (TaskGraph is append-only by design).
    let mut out = TaskGraph::new(name);
    for (i, task) in g.tasks().iter().enumerate() {
        let earliest = finish[i];
        let slack_max = (cfg.period - earliest).max(0.0);
        let slack = rng.gen_range(0.0..=slack_max.max(1e-9));
        // Round the deadline to a slot boundary for clean slot math.
        let deadline = ((earliest + slack) / 60.0).ceil() * 60.0;
        out.add_task(Task::new(
            task.name.clone(),
            task.exec_time,
            Seconds::new(deadline.min(cfg.period)),
            task.power,
            task.nvp,
        ));
    }
    // The edges are already deduplicated, so copying them succeeds.
    for &(from, to) in g.edges() {
        out.add_edge(from, to).ok()?;
    }
    // New deadlines can reorder EDF; raise violated deadlines to the new
    // finish times until a fixpoint (or give up and resample).
    for _ in 0..8 {
        if out.validate(Seconds::new(cfg.period)).is_ok() {
            return Some(out);
        }
        let finish = out.edf_finish_times().ok()?;
        if finish.iter().any(|f| f.value() > cfg.period + 1e-9) {
            return None;
        }
        let mut fixed = TaskGraph::new(name);
        for (i, task) in out.tasks().iter().enumerate() {
            let needed = (finish[i].value() / 60.0).ceil() * 60.0;
            let deadline = task.deadline.value().max(needed).min(cfg.period);
            fixed.add_task(Task::new(
                task.name.clone(),
                task.exec_time,
                Seconds::new(deadline),
                task.power,
                task.nvp,
            ));
        }
        for &(from, to) in out.edges() {
            fixed.add_edge(from, to).ok()?;
        }
        out = fixed;
    }
    out.validate(Seconds::new(cfg.period)).ok().map(|()| out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_graphs_always_validate() {
        let cfg = RandomGraphConfig::paper_ranges();
        for seed in 0..50 {
            let g = random_graph("r", seed, &cfg);
            g.validate(Seconds::new(cfg.period))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = RandomGraphConfig::paper_ranges();
        assert_eq!(random_graph("r", 9, &cfg), random_graph("r", 9, &cfg));
        assert_ne!(random_graph("r", 9, &cfg), random_graph("r", 10, &cfg));
    }

    #[test]
    fn ranges_are_respected() {
        let cfg = RandomGraphConfig::paper_ranges();
        for seed in 0..30 {
            let g = random_graph("r", seed, &cfg);
            assert!((4..=8).contains(&g.len()));
            assert!(g.edge_count() <= 2);
            assert!(g.nvp_count() <= 6);
        }
    }

    #[test]
    fn deadlines_land_on_slot_boundaries() {
        let cfg = RandomGraphConfig::paper_ranges();
        let g = random_graph("r", 3, &cfg);
        for task in g.tasks() {
            let d = task.deadline.value();
            assert!(
                (d / 60.0).fract().abs() < 1e-9,
                "deadline {d} not slot-aligned"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bad task range")]
    fn rejects_inverted_ranges() {
        let mut cfg = RandomGraphConfig::paper_ranges();
        cfg.tasks = (5, 2);
        random_graph("r", 0, &cfg);
    }
}
