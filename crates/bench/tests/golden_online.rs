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
    golden_batch_reports, golden_checkpoint_reports, golden_reports, golden_reports_with,
    golden_sharded_reports, render, GOLDEN_DIR,
};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(GOLDEN_DIR)
}

#[test]
fn reports_match_committed_goldens_bytewise() {
    let dir = golden_dir();
    let reports = golden_reports();
    assert!(!reports.is_empty());
    let mut checked = 0usize;
    for (name, report) in &reports {
        let path = dir.join(format!("{name}.json"));
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        let fresh = render(report);
        assert_eq!(
            fresh,
            committed,
            "SimReport for `{name}` diverged from the committed golden \
             ({}). If the engine's behaviour changed intentionally, \
             regenerate with `cargo run -p helio-bench --bin golden_online`.",
            path.display()
        );
        checked += 1;
    }
    // 6 benchmarks × 3 patterns + optimal + mpc + dbn on ECG.
    assert_eq!(checked, 21, "golden suite shrank unexpectedly");
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

/// The batching gate: every golden case run through `BatchEngine` —
/// scenarios advancing in lockstep, DBN inference batched across the
/// batch — must reproduce the committed bytes exactly. This is the
/// batched engine's correctness contract over all 21 golden seeds.
#[test]
fn batch_engine_reproduces_goldens_bytewise() {
    let dir = golden_dir();
    let reports = golden_batch_reports();
    assert_eq!(reports.len(), 21);
    for (name, report) in &reports {
        let path = dir.join(format!("{name}.json"));
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        assert_eq!(
            render(report),
            committed,
            "`{name}` diverged when run through BatchEngine — the batched \
             path must be byte-identical to the sequential engine"
        );
    }
}

/// The sharding gate: every golden case run through
/// `BatchEngine::run_sharded` — scenarios partitioned into contiguous
/// per-worker shards, each worker with its own scratch — must
/// reproduce the committed bytes exactly, for single- and multi-shard
/// partitions. This is the sharded engine's correctness contract over
/// all 21 golden seeds.
#[test]
fn sharded_engine_reproduces_goldens_bytewise() {
    let dir = golden_dir();
    for shards in [1usize, 3] {
        let reports = golden_sharded_reports(shards);
        assert_eq!(reports.len(), 21);
        for (name, report) in &reports {
            let path = dir.join(format!("{name}.json"));
            let committed = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
            assert_eq!(
                render(report),
                committed,
                "`{name}` diverged when run through BatchEngine::run_sharded \
                 with {shards} shards — the sharded path must be byte-identical \
                 to the sequential engine"
            );
        }
    }
}

/// The checkpoint gate: every golden case killed at a period boundary,
/// its `BatchCheckpoint` JSON-round-tripped (the fleet service's
/// on-disk resume) and finished under a different shard count must
/// reproduce the committed bytes exactly — at the very first boundary,
/// mid-horizon and on the last period of the 96-period grid. This is
/// the crash-safe resume contract over all 21 golden seeds.
#[test]
fn checkpoint_resumed_engine_reproduces_goldens_bytewise() {
    let dir = golden_dir();
    for (kill, shards) in [(1usize, 1usize), (48, 3), (95, 3)] {
        let reports = golden_checkpoint_reports(kill, shards);
        assert_eq!(reports.len(), 21);
        for (name, report) in &reports {
            let path = dir.join(format!("{name}.json"));
            let committed = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
            assert_eq!(
                render(report),
                committed,
                "`{name}` diverged after a kill at period {kill} resumed \
                 with {shards} shards — checkpoint/resume must be \
                 byte-identical to the uninterrupted run"
            );
        }
    }
}

/// The robustness gate: an *empty* fault harness must be invisible —
/// every golden case run through `Engine::run_with_faults` reproduces
/// the committed bytes exactly.
#[test]
fn empty_fault_harness_reproduces_goldens_bytewise() {
    let dir = golden_dir();
    let empty = helio_faults::FaultHarness::empty();
    let reports = golden_reports_with(Some(&empty));
    assert_eq!(reports.len(), 21);
    for (name, report) in &reports {
        let path = dir.join(format!("{name}.json"));
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        assert_eq!(
            render(report),
            committed,
            "`{name}` diverged under an empty fault harness — the fault \
             path must be zero-cost and behaviour-neutral when no faults \
             are planned"
        );
    }
}
