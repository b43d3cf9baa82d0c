//! The distilled-artifact DMR regression gate: replays the 21 golden
//! scenarios with the DBN case running the branch-free distilled
//! artifact and asserts every scenario's overall DMR lands within
//! `GOLDEN_DISTILLED_DMR_EPS` of the f64 reference suite.
//!
//! The reference side is `golden_reports()` — `tests/golden_online.rs`
//! already pins those reports byte-for-byte to the committed
//! `results/golden_online/*.json` files, so comparing in-process is
//! equivalent to comparing against the committed fixtures. The
//! distilled side is deliberately *not* byte-gated: the artifact is a
//! linear model tree covered by its recorded teacher-agreement rate,
//! and this harness bounds what student/teacher disagreements do to
//! the metric the paper reports — the deadline miss rate.
//!
//! The artifact itself is pinned separately: its JSON must equal the
//! committed `results/golden_distilled/ecg_policy.json` byte for byte,
//! so a change to the fitter that moves any split or leaf weight shows
//! up here even when it leaves every DMR inside epsilon.

use helio_bench::golden::{
    golden_checkpoint_reports, golden_dbn, golden_distilled_policy, golden_dp, golden_grid,
    golden_node, golden_reports, golden_reports_with, golden_sharded_reports, golden_trace,
    DbnServing, GOLDEN_DELTA, GOLDEN_DISTILLED_DMR_EPS,
};
use heliosched::OptimalPlanner;
use std::path::PathBuf;

#[test]
fn distilled_dmr_within_epsilon_on_all_golden_scenarios() {
    let reference = golden_reports();
    let distilled = golden_reports_with(DbnServing::Distilled, None);
    assert_eq!(reference.len(), 21, "golden suite is 21 scenarios");
    assert_eq!(distilled.len(), reference.len());
    for ((name, want), (distilled_name, got)) in reference.iter().zip(&distilled) {
        assert_eq!(name, distilled_name, "scenario order diverged");
        let delta = (got.overall_dmr() - want.overall_dmr()).abs();
        assert!(
            delta <= GOLDEN_DISTILLED_DMR_EPS,
            "{name}: distilled DMR {} vs reference {} — |Δ| {delta} \
             exceeds epsilon {GOLDEN_DISTILLED_DMR_EPS}",
            got.overall_dmr(),
            want.overall_dmr()
        );
        if name != "ecg_dbn" {
            // Everything except the DBN case never touches the
            // distilled path — those reports must not drift at all.
            assert_eq!(
                serde_json::to_string(got).expect("report serialises"),
                serde_json::to_string(want).expect("report serialises"),
                "{name} diverged but does not use the distilled planner"
            );
        }
    }
    let (name, dbn_report) = &distilled[20];
    assert_eq!(name, "ecg_dbn");
    assert_eq!(dbn_report.planner, "distilled");
}

#[test]
fn batched_distilled_is_byte_identical_to_sequential() {
    // The tentpole gate: the batched distilled decision path — shared
    // artifact handle, lane-major gather, multi-lane leaf kernel — must
    // reproduce the sequential per-scenario path byte for byte across
    // all 21 golden scenarios, sharded and after an interrupt/resume.
    let sequential = golden_reports_with(DbnServing::Distilled, None);
    assert_eq!(sequential.len(), 21, "golden suite is 21 scenarios");
    for (label, batched) in [
        (
            "run_sharded(3)",
            golden_sharded_reports(DbnServing::Distilled, 3),
        ),
        (
            "kill@17 resume 2 shards",
            golden_checkpoint_reports(DbnServing::Distilled, 17, 2),
        ),
    ] {
        assert_eq!(batched.len(), sequential.len(), "{label}");
        for ((name, want), (got_name, got)) in sequential.iter().zip(&batched) {
            assert_eq!(name, got_name, "{label}: scenario order diverged");
            assert_eq!(
                serde_json::to_string(got).expect("report serialises"),
                serde_json::to_string(want).expect("report serialises"),
                "{label}: {name} diverged from the sequential distilled run"
            );
        }
    }
}

#[test]
fn golden_artifact_agrees_with_its_teacher() {
    // The recorded holdout agreement is the artifact's coverage
    // contract; a distillation regression shows up here before it
    // shows up as DMR drift.
    let node = golden_node();
    let trace = golden_trace();
    let graph = helio_tasks::benchmarks::ecg();
    let optimal = OptimalPlanner::compute(&node, &graph, &trace, &golden_dp(), GOLDEN_DELTA)
        .expect("golden optimal");
    let dbn = golden_dbn(&optimal);
    let policy = golden_distilled_policy(&dbn);
    assert!(
        policy.agreement() >= 0.9,
        "holdout agreement {} below the 0.9 floor",
        policy.agreement()
    );
    assert_eq!(policy.const_prefix(), golden_grid().slots_per_period());
}

#[test]
fn golden_artifact_matches_committed_bytes() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/golden_distilled/ecg_policy.json");
    let committed = std::fs::read_to_string(&path).expect("committed golden artifact");
    let node = golden_node();
    let trace = golden_trace();
    let graph = helio_tasks::benchmarks::ecg();
    let optimal = OptimalPlanner::compute(&node, &graph, &trace, &golden_dp(), GOLDEN_DELTA)
        .expect("golden optimal");
    let fresh = golden_distilled_policy(&golden_dbn(&optimal))
        .to_json()
        .expect("artifact serialises");
    // Compared without `assert_eq!` so a mismatch names the first
    // differing byte instead of printing two 80 KB strings.
    let first_diff = fresh
        .bytes()
        .zip(committed.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(fresh.len().min(committed.len()));
    assert!(
        fresh == committed,
        "distilled golden artifact differs from {} at byte {first_diff} \
         (fresh {} bytes, committed {} bytes)",
        path.display(),
        fresh.len(),
        committed.len()
    );
}
