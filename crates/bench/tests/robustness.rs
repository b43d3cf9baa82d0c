//! The robustness table is an outcome contract, not a timing: every
//! (backend × blackout × aging) cell recomputed from scratch must match
//! the committed `results/ROBUSTNESS.json` byte for byte, and the DBN
//! outage every faulted cell carries must engage the resilient
//! fallback of every inference-driven backend.

use std::path::PathBuf;

use helio_bench::robustness::{
    render, robustness_report, AGINGS, BACKENDS, BLACKOUTS, REPORT_PATH,
};

#[test]
fn robustness_table_matches_committed_file_bytewise() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(REPORT_PATH);
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing robustness table {}: {e}", path.display()));
    let report = robustness_report();
    assert_eq!(
        report.sweep.len(),
        BACKENDS.len() * BLACKOUTS.len() * AGINGS.len()
    );
    for p in &report.sweep {
        if p.backend != "inter" {
            assert!(
                p.fallbacks >= 1,
                "{} cell (blackout {}, aging {}) recorded no fallbacks despite the DBN outage",
                p.backend,
                p.blackout_periods,
                p.aging
            );
        }
    }
    assert_eq!(
        render(&report),
        committed,
        "robustness table diverged from {}; if behaviour changed \
         intentionally, regenerate with \
         `cargo run --release -p helio-bench --bin robustness`",
        path.display()
    );
}
