//! Times the offline pipeline stage by stage and emits the
//! machine-readable `results/BENCH_offline.json`.
//!
//! Stages: supercapacitor sizing (parallel per-day bracket search),
//! the optimal long-term plan (memoised + parallel DP per capacitor
//! candidate), and DBN training on the recorded samples. A final
//! micro-benchmark runs the same one-day DP through the serial
//! reference path and the memoised+parallel path, checks the results are
//! identical, and reports the speedup.
//!
//! Thread count follows `HELIO_THREADS`/`HELIO_SERIAL`; the JSON
//! records what was actually used, so numbers from different machines
//! stay comparable.

use helio_bench::{
    effective_threads, fast_mode, sized_node, timed, weather_trace, BenchOfflineReport, BenchStage,
};
use helio_common::time::PeriodRef;
use helio_common::units::Joules;
use helio_storage::SuperCap;
use helio_tasks::benchmarks;
use heliosched::{
    dmr_level_subsets, optimize_horizon, optimize_horizon_serial, DpConfig, OfflineConfig,
    OptimalPlanner,
};

/// Repetitions of the DP micro-benchmark (median-free: totals are
/// compared, which is stable enough for a smoke metric).
const DP_REPS: usize = 3;

fn main() {
    let threads = effective_threads();
    let (periods, train_days, bp_epochs) = if fast_mode() {
        (48, 2, 100)
    } else {
        (48, 4, 300)
    };
    let graph = benchmarks::ecg();
    let dp = DpConfig::default();
    let mut stages = Vec::new();

    println!("# offline pipeline timings (threads = {})", threads);

    // --- Stage 1: sizing (parallel per-day bracket search) -------------
    let training = weather_trace(train_days, periods, 1000);
    let (node, sizing_ms) = timed(|| sized_node(&graph, &training, 4).expect("sizing succeeds"));
    println!("sizing          {sizing_ms:9.1} ms");
    stages.push(BenchStage {
        name: "sizing".into(),
        wall_ms: sizing_ms,
    });

    // --- Stage 2: optimal plan (memoised + parallel DP) ----------------
    let (optimal, plan_ms) = timed(|| {
        OptimalPlanner::compute(&node, &graph, &training, &dp, 0.5).expect("optimal plan")
    });
    let cache = optimal.cache_stats();
    println!(
        "optimal plan    {plan_ms:9.1} ms   cache {} hits / {} misses ({:.1}% hit rate)",
        cache.hits,
        cache.misses,
        100.0 * cache.hit_rate()
    );
    stages.push(BenchStage {
        name: "optimal_plan".into(),
        wall_ms: plan_ms,
    });

    // --- Stage 3: DBN training on the recorded samples -----------------
    let samples = optimal.samples();
    let mut dbn_cfg = OfflineConfig::default().dbn;
    dbn_cfg.bp_epochs = bp_epochs;
    let (dbn, dbn_ms) = timed(|| helio_ann::Dbn::train_set(samples, &dbn_cfg).expect("dbn"));
    println!(
        "dbn train       {dbn_ms:9.1} ms   final loss {:.5}",
        dbn.final_loss()
    );
    stages.push(BenchStage {
        name: "dbn_train".into(),
        wall_ms: dbn_ms,
    });

    // --- DP micro-benchmark: serial reference vs memoised+parallel -----
    let grid = training.grid();
    let solar: Vec<Vec<Joules>> = (0..grid.periods_per_day())
        .map(|j| {
            grid.slots_in(PeriodRef::new(0, j))
                .map(|s| training.slot_energy(s))
                .collect()
        })
        .collect();
    let subsets = dmr_level_subsets(&graph, dp.keep_per_level);
    let storage = &node.storage;
    let cap = SuperCap::new(node.capacitors[node.capacitors.len() / 2], storage)
        .expect("sized capacitance is valid");
    let pmu = &node.pmu;
    let run_serial = || {
        optimize_horizon_serial(
            &graph,
            &subsets,
            &solar,
            grid.slot_duration(),
            &cap,
            cap.empty_state(),
            storage,
            pmu,
            &dp,
        )
    };
    let run_fast = || {
        optimize_horizon(
            &graph,
            &subsets,
            &solar,
            grid.slot_duration(),
            &cap,
            cap.empty_state(),
            storage,
            pmu,
            &dp,
        )
    };
    let (serial_result, serial_ms) = timed(|| {
        let mut last = run_serial();
        for _ in 1..DP_REPS {
            last = run_serial();
        }
        last
    });
    let (fast_result, fast_ms) = timed(|| {
        let mut last = run_fast();
        for _ in 1..DP_REPS {
            last = run_fast();
        }
        last
    });
    let dp_matches_serial = serial_result == fast_result;
    assert!(dp_matches_serial, "memoised DP diverged from serial");
    let dp_speedup = serial_ms / fast_ms.max(1e-9);
    println!("dp serial ref   {serial_ms:9.1} ms  ({DP_REPS} reps)");
    println!("dp cached+par   {fast_ms:9.1} ms  ({DP_REPS} reps)  speedup {dp_speedup:.2}x");
    stages.push(BenchStage {
        name: "dp_serial_reference".into(),
        wall_ms: serial_ms,
    });
    stages.push(BenchStage {
        name: "dp_cached_parallel".into(),
        wall_ms: fast_ms,
    });

    let report = BenchOfflineReport {
        threads,
        stages,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_hit_rate: cache.hit_rate(),
        dp_speedup_vs_serial: dp_speedup,
        dp_matches_serial,
    };
    println!();
    helio_bench::write_json("results/BENCH_offline.json", &report);
}
