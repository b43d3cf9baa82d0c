//! Regenerates the committed robustness table
//! (`results/ROBUSTNESS.json`): DMR, fallbacks and recovery of every
//! planner backend under blackouts, capacitor aging and a DBN outage.
//!
//! Run this only when the table is *supposed* to change;
//! `tests/robustness.rs` keeps every refactor byte-identical to the
//! committed file.

use helio_bench::pct;
use helio_bench::robustness::{render, robustness_report, REPORT_PATH};

fn main() {
    let report = robustness_report();
    for p in &report.sweep {
        println!(
            "{:<9} blackout {} aging {:<8} dmr {} fallbacks {}",
            p.backend,
            p.blackout_periods,
            p.aging,
            pct(p.dmr),
            p.fallbacks
        );
    }
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write(REPORT_PATH, render(&report)).expect("write robustness table");
    println!("wrote {REPORT_PATH}");
}
