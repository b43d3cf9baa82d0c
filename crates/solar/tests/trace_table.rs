//! The per-trace period-energy table: bit-identical to summing the
//! period's slot energies, built by every constructor, absent from the
//! JSON form and rebuilt when a trace is read back.

use helio_common::time::{PeriodRef, TimeGrid};
use helio_common::units::{Joules, Watts};
use helio_solar::{
    from_csv, to_csv, DayArchetype, SolarPanel, SolarTrace, TraceBuilder, WeatherProcess,
};
use proptest::prelude::*;

/// The period energy as the slot loop sums it: slot energies in slot
/// order.
fn slot_sum(trace: &SolarTrace, period: PeriodRef) -> Joules {
    trace
        .grid()
        .slots_in(period)
        .map(|s| trace.slot_energy(s))
        .sum()
}

fn assert_table_matches(trace: &SolarTrace) {
    for p in trace.grid().periods() {
        let want = slot_sum(trace, p);
        let got = trace.period_energy(p);
        assert_eq!(
            got.value().to_bits(),
            want.value().to_bits(),
            "period {p:?}: table {got} vs slot sum {want}"
        );
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fixed_trace() -> SolarTrace {
    let grid = TimeGrid::with_minute_slots(2, 24, 5).expect("valid grid");
    TraceBuilder::new(grid, SolarPanel::paper_panel())
        .seed(17)
        .days(&[DayArchetype::BrokenClouds, DayArchetype::Storm])
        .build()
}

/// Random per-slot powers (W), mixing exact zeros (night) with values
/// spread over several binades so slot order matters to the sum.
fn powers(grid: &TimeGrid, raw: &[f64]) -> Vec<Watts> {
    (0..grid.total_slots())
        .map(|i| {
            let r = raw[i % raw.len()];
            let scale = [0.0, 1e-4, 3e-3, 0.1][i % 4];
            Watts::new(r * scale * (1.0 + i as f64 * 1e-3))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every constructor builds a table equal, bit for bit, to the
    /// per-slot sums.
    #[test]
    fn table_equals_slot_sums_for_every_constructor(
        days in 1usize..4,
        periods in 1usize..30,
        slots in 1usize..12,
        seed in 0u64..1_000_000,
        raw in prop::collection::vec(0.0f64..1.0, 1..64),
    ) {
        let grid = TimeGrid::with_minute_slots(days, periods, slots).expect("valid grid");
        let direct = SolarTrace::from_powers(grid, powers(&grid, &raw));
        assert_table_matches(&direct);
        let csv = from_csv(grid, &to_csv(&direct)).expect("round-trips");
        assert_table_matches(&csv);
        let fixed = TraceBuilder::new(grid, SolarPanel::paper_panel())
            .seed(seed)
            .days(&DayArchetype::ALL)
            .build();
        assert_table_matches(&fixed);
        let weather = TraceBuilder::new(grid, SolarPanel::paper_panel())
            .seed(seed)
            .weather(WeatherProcess::monsoon())
            .build();
        assert_table_matches(&weather);
        for day in 0..days {
            assert_table_matches(&direct.extract_day(day));
            assert_table_matches(&weather.extract_day(day));
        }
    }

    /// A JSON round trip rebuilds the table.
    #[test]
    fn json_round_trip_rebuilds_the_table(
        seed in 0u64..1_000_000,
        raw in prop::collection::vec(0.0f64..1.0, 1..64),
    ) {
        let grid = TimeGrid::with_minute_slots(2, 12, 7).expect("valid grid");
        for trace in [
            SolarTrace::from_powers(grid, powers(&grid, &raw)),
            TraceBuilder::new(grid, SolarPanel::paper_panel()).seed(seed).build(),
        ] {
            let json = serde_json::to_string(&trace).expect("serialises");
            let back: SolarTrace = serde_json::from_str(&json).expect("parses");
            assert_table_matches(&back);
            prop_assert_eq!(&back, &trace);
        }
    }
}

/// The table is not part of the JSON form: a fixed trace serialises to
/// the bytes it had before the table existed.
#[test]
fn json_form_is_unchanged() {
    let json = serde_json::to_string(&fixed_trace()).expect("serialises");
    assert_eq!(fnv1a(json.as_bytes()), 0x7212_3392_5330_9569, "{json}");
}

#[test]
fn fixed_trace_table_matches() {
    assert_table_matches(&fixed_trace());
}

/// A trace read back with the wrong number of slot powers is refused,
/// not left to fail on a later lookup.
#[test]
fn json_with_a_wrong_slot_count_is_rejected() {
    let json = serde_json::to_string(&fixed_trace()).expect("serialises");
    let short = json.replacen("\"powers\":[", "\"powers\":[0.5,", 1);
    assert!(serde_json::from_str::<SolarTrace>(&short).is_err());
}
