//! Byte-identity check of the online golden suite: re-runs every
//! golden configuration and compares the serialised `SimReport`
//! against the committed `results/golden_online/*.json` files.
//!
//! The committed files were generated on the pre-refactor engine
//! (`cargo run -p helio-bench --bin golden_online`), so this test —
//! which CI runs — pins the refactored engine's behaviour bitwise:
//! the vendored serde formats `f64` with shortest-round-trip
//! precision, so byte equality is value equality.

use std::path::PathBuf;

use helio_bench::golden::{
    golden_checkpoint_reports, golden_reports, golden_reports_with, golden_sharded_reports, render,
    DbnServing, GOLDEN_DIR,
};
use heliosched::SimReport;

/// Asserts that `reports` are the 21 golden cases (6 benchmarks × 3
/// patterns + optimal + mpc + dbn on ECG), each rendering to exactly
/// its committed file; `path` names the engine path in the failure.
fn assert_matches_committed(reports: &[(String, SimReport)], path: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(GOLDEN_DIR);
    assert_eq!(reports.len(), 21, "golden suite shrank unexpectedly");
    for (name, report) in reports {
        let file = dir.join(format!("{name}.json"));
        let committed = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", file.display()));
        assert_eq!(
            render(report),
            committed,
            "SimReport for `{name}` diverged from the committed golden ({}) \
             when run through {path}. Every engine path must be byte-identical \
             to the sequential engine; if the engine's behaviour changed \
             intentionally, regenerate with `cargo run -p helio-bench --bin \
             golden_online`.",
            file.display()
        );
    }
}

#[test]
fn reports_match_committed_goldens_bytewise() {
    assert_matches_committed(&golden_reports(), "Engine::run");
}

/// A deterministic work counter beside the byte gate: the encoded
/// period-log bytes of the 21 golden reports. The reports' JSON pins
/// what a record holds; this pins what the log spends on it, exactly,
/// so an encoding that grows shows with zero noise.
#[test]
fn golden_period_logs_keep_their_encoded_size() {
    let reports = golden_reports();
    let records: usize = reports.iter().map(|(_, r)| r.periods.len()).sum();
    let bytes: usize = reports
        .iter()
        .map(|(_, r)| r.periods.as_bytes().len())
        .sum();
    assert_eq!(records, 21 * 96);
    // 34.3 B per record; the fixed-width form took 112 (225,792 B).
    assert_eq!(
        bytes, 69_152,
        "encoded period-log bytes of the golden reports"
    );
}

/// The batching gate: every golden case run through `BatchEngine` on
/// one scratch (what `BatchEngine::run` does) — scenarios advancing in
/// lockstep, DBN inference batched across the batch — must reproduce
/// the committed bytes exactly. This is the batched engine's
/// correctness contract over all 21 golden seeds.
#[test]
fn batch_engine_reproduces_goldens_bytewise() {
    assert_matches_committed(
        &golden_sharded_reports(DbnServing::Reference, 1),
        "BatchEngine on one scratch",
    );
}

/// The sharding gate: every golden case run through
/// `BatchEngine::run_sharded_with` — scenarios partitioned into
/// contiguous per-worker shards, each worker with its own scratch —
/// must reproduce the committed bytes exactly across a multi-shard
/// partition (the one-shard partition is the batching gate above).
/// This is the sharded engine's correctness contract over all 21
/// golden seeds.
#[test]
fn sharded_engine_reproduces_goldens_bytewise() {
    assert_matches_committed(
        &golden_sharded_reports(DbnServing::Reference, 3),
        "BatchEngine::run_sharded_with on 3 shards",
    );
}

/// The checkpoint gate: every golden case killed at a period boundary,
/// its `BatchCheckpoint` JSON-round-tripped (the fleet service's
/// on-disk resume) and finished under a different shard count must
/// reproduce the committed bytes exactly — at the very first boundary,
/// mid-horizon and on the last period of the 96-period grid. This is
/// the crash-safe resume contract over all 21 golden seeds.
#[test]
fn checkpoint_resumed_engine_reproduces_goldens_bytewise() {
    for (kill, shards) in [(1usize, 1usize), (48, 3), (95, 3)] {
        assert_matches_committed(
            &golden_checkpoint_reports(DbnServing::Reference, kill, shards),
            &format!("a kill at period {kill} resumed on {shards} shards"),
        );
    }
}

/// The robustness gate: an *empty* fault harness must be invisible —
/// every golden case run through `Engine::run_with_faults` reproduces
/// the committed bytes exactly.
#[test]
fn empty_fault_harness_reproduces_goldens_bytewise() {
    let empty = helio_faults::FaultHarness::empty();
    assert_matches_committed(
        &golden_reports_with(DbnServing::Reference, Some(&empty)),
        "Engine::run_with_faults under an empty fault harness",
    );
}
