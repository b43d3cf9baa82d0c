//! Pins the optimal plan of the offline pipeline's shape to a digest.
//!
//! `OptimalPlanner::compute` produces every DBN training sample, so
//! any change to the DP behind it must leave the plan bit-for-bit
//! unchanged. The digest is FNV-1a (64 bit) over the packed samples'
//! input and target bits, every decision (capacitor, subset, `α`,
//! expected misses, `cap_energy` bits) and the complexity counter. The
//! shape is the offline workload's: ECG on a 4-day × 48-period ×
//! 10 × 60 s grid of the four standard days, trace seed 11, capacitors
//! sized with H = 4, the default DP resolution and δ = 0.5.

use helio_common::time::TimeGrid;
use helio_common::units::Seconds;
use helio_nvp::Pmu;
use helio_solar::{DayArchetype, SolarPanel, TraceBuilder};
use helio_storage::StorageModelParams;
use helio_tasks::benchmarks;
use heliosched::{size_capacitors, DpConfig, NodeConfig, OptimalPlanner, PeriodPlanner};

/// The digest of the plan below, recorded before the DP was reworked.
const PLAN_DIGEST: u64 = 0x413c_4e7a_0aa6_bc70;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.u64(x.to_bits());
        }
    }
}

#[test]
fn offline_plan_matches_the_pinned_digest() {
    let grid = TimeGrid::new(4, 48, 10, Seconds::new(60.0)).unwrap();
    let trace = TraceBuilder::new(grid, SolarPanel::paper_panel())
        .seed(11)
        .days(&DayArchetype::ALL)
        .build();
    let graph = benchmarks::ecg();
    let storage = StorageModelParams::default();
    let sizes = size_capacitors(&graph, &trace, 4, &storage, &Pmu::default()).unwrap();
    let node = NodeConfig::builder(grid)
        .capacitors(&sizes)
        .storage(storage)
        .build()
        .unwrap();
    let plan = OptimalPlanner::compute(&node, &graph, &trace, &DpConfig::default(), 0.5).unwrap();

    let mut h = Fnv::new();
    let samples = plan.samples();
    for r in 0..samples.len() {
        h.f64s(samples.inputs.row(r));
        h.f64s(samples.targets.row(r));
    }
    for (cap, p) in plan.decisions() {
        h.u64(*cap as u64);
        h.u64(u64::from(p.subset.bits()));
        h.u64(p.alpha.to_bits());
        h.u64(p.expected_misses as u64);
        h.u64(p.cap_energy.value().to_bits());
    }
    h.u64(plan.complexity());
    assert_eq!(h.0, PLAN_DIGEST, "optimal plan digest {:016x}", h.0);
}
