//! Trace bits pinned: an FNV-1a digest over the bit pattern of every
//! slot power and every period energy of the traces the experiments
//! build. Any change to the cloud process, the clear-sky envelope, the
//! panel model, the period sums or the keystream under them moves a
//! digest.

use helio_common::time::TimeGrid;
use helio_common::units::Seconds;
use helio_solar::{DayArchetype, SolarPanel, SolarTrace, TraceBuilder, WeatherProcess};

fn fnv1a(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digest of every slot power in slot order, then every period energy
/// in period order.
fn digest(trace: &SolarTrace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let grid = trace.grid();
    for s in grid.slots() {
        fnv1a(&mut h, trace.slot_power(s).value().to_bits());
    }
    for p in grid.periods() {
        fnv1a(&mut h, trace.period_energy(p).value().to_bits());
    }
    h
}

fn grid(days: usize, periods: usize, slots: usize, slot_seconds: f64) -> TimeGrid {
    TimeGrid::new(days, periods, slots, Seconds::new(slot_seconds)).expect("valid grid")
}

fn fixed(grid: TimeGrid, seed: u64, days: &[DayArchetype]) -> u64 {
    digest(
        &TraceBuilder::new(grid, SolarPanel::paper_panel())
            .seed(seed)
            .days(days)
            .build(),
    )
}

fn check(case: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{case}: digest {got:#018x}, pinned {want:#018x}");
}

/// The sweep's paper grid: 4 days x 144 periods x 10 one-minute slots,
/// the four archetypes in Fig. 7 order.
#[test]
fn sweep_grid_traces_keep_their_bits() {
    let g = grid(4, 144, 10, 60.0);
    for (seed, want) in [
        (1, 0x09d4_86a3_f2a4_120f),
        (7, 0xb4f8_3241_748b_8052),
        (42, 0xf70c_7348_451f_9713),
    ] {
        check(
            &format!("sweep seed {seed}"),
            fixed(g, seed, &DayArchetype::ALL),
            want,
        );
    }
}

/// The fleet grid: 2 days x 48 periods x 10 slots.
#[test]
fn fleet_grid_traces_keep_their_bits() {
    let g = grid(2, 48, 10, 60.0);
    check(
        "fleet clear/broken",
        fixed(g, 11, &[DayArchetype::Clear, DayArchetype::BrokenClouds]),
        0xf46f_03d8_3c62_46fa,
    );
    check(
        "fleet overcast/storm",
        fixed(g, 2503, &[DayArchetype::Overcast, DayArchetype::Storm]),
        0xc958_92e2_1998_e5be,
    );
}

/// The offline pipeline's grid: 4 days x 48 periods x 10 slots.
#[test]
fn offline_grid_traces_keep_their_bits() {
    check(
        "offline",
        fixed(grid(4, 48, 10, 60.0), 11, &DayArchetype::ALL),
        0xe48e_8e02_8a2c_23a4,
    );
}

/// Sixty days drawn from the weather chain, so the archetype sequence
/// and every day's cloud stream are pinned together.
#[test]
fn weather_process_trace_keeps_its_bits() {
    let trace = TraceBuilder::new(grid(60, 48, 10, 60.0), SolarPanel::paper_panel())
        .seed(9)
        .weather(WeatherProcess::temperate())
        .build();
    check("weather 60 d", digest(&trace), 0xba87_fe65_d42d_cc00);
}

/// A grid whose slots per day (7 x 13 = 91) divide neither the
/// keystream's block size nor the day evenly into hours, with a
/// repeating archetype list shorter than the horizon.
#[test]
fn odd_grid_trace_keeps_its_bits() {
    check(
        "odd 3 x 7 x 13",
        fixed(
            grid(3, 7, 13, 37.0),
            5,
            &[DayArchetype::Storm, DayArchetype::Clear],
        ),
        0x7d1e_e7c4_f764_696b,
    );
}
