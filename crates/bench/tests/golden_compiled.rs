//! The compiled-planner DMR regression gate: replays the 21 golden
//! scenarios with the DBN case running the compiled fast path (both
//! tiers) and asserts every scenario's overall DMR lands within
//! `GOLDEN_COMPILED_DMR_EPS` of the f64 reference suite.
//!
//! The reference side is `golden_reports()` — `tests/golden_online.rs`
//! already pins those reports byte-for-byte to the committed
//! `results/golden_online/*.json` files, so comparing in-process is
//! equivalent to comparing against the committed fixtures. The
//! compiled side is deliberately *not* byte-gated: the compiled
//! forward is covered by the `helio_ann::compiled` tolerance contract
//! (f32 arithmetic, polynomial sigmoid, de-clamped input affine, int8
//! weight rounding), and this harness bounds what those deviations do
//! to the metric the paper reports — the deadline miss rate.

use helio_ann::CompiledTier;
use helio_bench::golden::{
    golden_reports, golden_reports_with, DbnServing, GOLDEN_COMPILED_DMR_EPS,
};

fn assert_dmr_within_eps(tier: CompiledTier) {
    let reference = golden_reports();
    let compiled = golden_reports_with(DbnServing::Compiled(tier), None);
    assert_eq!(reference.len(), 21, "golden suite is 21 scenarios");
    assert_eq!(compiled.len(), reference.len());
    for ((name, want), (compiled_name, got)) in reference.iter().zip(&compiled) {
        assert_eq!(name, compiled_name, "scenario order diverged");
        let delta = (got.overall_dmr() - want.overall_dmr()).abs();
        assert!(
            delta <= GOLDEN_COMPILED_DMR_EPS,
            "{name} ({tier:?}): compiled DMR {} vs reference {} — |Δ| {delta} \
             exceeds epsilon {GOLDEN_COMPILED_DMR_EPS}",
            got.overall_dmr(),
            want.overall_dmr()
        );
        if name != "ecg_dbn" {
            // Everything except the DBN case never touches the
            // compiled path — those reports must not drift at all.
            assert_eq!(
                serde_json::to_string(got).expect("report serialises"),
                serde_json::to_string(want).expect("report serialises"),
                "{name} diverged but does not use the compiled planner"
            );
        }
    }
    let (name, dbn_report) = &compiled[20];
    assert_eq!(name, "ecg_dbn");
    let expected = match tier {
        CompiledTier::F32 => "compiled-dbn",
        CompiledTier::Int8 => "compiled-dbn-i8",
    };
    assert_eq!(dbn_report.planner, expected);
}

#[test]
fn compiled_f32_dmr_within_epsilon_on_all_golden_scenarios() {
    assert_dmr_within_eps(CompiledTier::F32);
}

#[test]
fn compiled_int8_dmr_within_epsilon_on_all_golden_scenarios() {
    assert_dmr_within_eps(CompiledTier::Int8);
}
