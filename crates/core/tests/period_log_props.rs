//! Property tests of the period log's record codec: arbitrary records
//! round-trip bit for bit (zero signs, NaN payloads, subnormals, `usize`
//! extremes in every count, periods that jump, repeat or step back),
//! every truncation of a valid log is refused, and random bytes decode
//! to an error or to records that re-encode to exactly those bytes —
//! never a panic and never a wrong record.

use helio_common::time::PeriodRef;
use helio_common::units::Joules;
use heliosched::{Pattern, PeriodLog, PeriodRecord};
use proptest::prelude::*;

/// An energy drawn from the awkward bit patterns or uniformly over all
/// of them.
fn energy(pick: u64, bits: u64) -> Joules {
    let v = match pick % 8 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(1 + bits % 0x000f_ffff_ffff_ffff), // subnormal
        3 => f64::from_bits(0x7ff8_0000_0000_0000 | bits),     // NaN with payload
        4 => f64::INFINITY,
        _ => f64::from_bits(bits),
    };
    Joules::new(v)
}

/// A count drawn from the varint edges or uniformly.
fn count(pick: u64, bits: u64) -> usize {
    match pick % 6 {
        0 => 0,
        1 => 127,
        2 => 128,
        3 => usize::MAX,
        4 => (bits % 64) as usize,
        _ => bits as usize,
    }
}

/// A period after `prev`: mostly the next one or the next day's first,
/// sometimes a repeat or an arbitrary jump.
fn period(prev: Option<PeriodRef>, pick: u64, bits: u64) -> PeriodRef {
    let p = prev.unwrap_or(PeriodRef::new(0, 0));
    match pick % 6 {
        0 | 1 => PeriodRef::new(p.day, p.period.wrapping_add(1)),
        2 => PeriodRef::new(p.day.wrapping_add(1), 0),
        3 => p,
        4 => PeriodRef::new(count(bits, bits >> 8), count(bits >> 3, bits >> 16)),
        _ => PeriodRef::new((bits % 5) as usize, (bits >> 32) as usize % 200),
    }
}

fn records(seeds: &[u64]) -> Vec<PeriodRecord> {
    let mut out: Vec<PeriodRecord> = Vec::new();
    for (i, &s) in seeds.iter().enumerate() {
        let mix = |k: u64| {
            let mut z = s ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 29)
        };
        let e = |k: u64| energy(mix(k), mix(k + 100));
        let c = |k: u64| count(mix(k), mix(k + 100));
        out.push(PeriodRecord {
            period: period(out.last().map(|r| r.period), mix(1) ^ i as u64, mix(2)),
            misses: c(3),
            tasks: c(4),
            harvested: e(5),
            served_direct: e(6),
            served_storage: e(7),
            stored: e(8),
            wasted: e(9),
            unmet: e(10),
            leaked: e(11),
            brownouts: c(12),
            pattern: [Pattern::Asap, Pattern::Inter, Pattern::Intra][(mix(13) % 3) as usize],
            capacitor: c(14),
        });
    }
    out
}

/// Every bit of a record, NaN payloads and zero signs included.
fn bits(r: &PeriodRecord) -> String {
    let e = [
        r.harvested,
        r.served_direct,
        r.served_storage,
        r.stored,
        r.wasted,
        r.unmet,
        r.leaked,
    ]
    .map(|j| j.value().to_bits());
    format!(
        "{:?} {} {} {} {} {:?} {:?}",
        r.period, r.misses, r.tasks, r.brownouts, r.capacitor, r.pattern, e
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn records_round_trip_bit_for_bit(seeds in prop::collection::vec(any::<u64>(), 0..24)) {
        let recs = records(&seeds);
        let log: PeriodLog = recs.iter().cloned().collect();
        prop_assert_eq!(log.len(), recs.len());
        prop_assert_eq!(log.capacity(), log.as_bytes().len());
        prop_assert_eq!(log.last_period(), recs.last().map(|r| r.period));
        let back: Vec<String> = log.iter().map(|r| bits(&r)).collect();
        let want: Vec<String> = recs.iter().map(bits).collect();
        prop_assert_eq!(back, want);
        // Read back from its bytes, the log is the same log.
        let mut again = PeriodLog::new();
        let n = again.extend_encoded(log.as_bytes(), recs.len()).expect("decodes");
        prop_assert_eq!(n, log.as_bytes().len());
        prop_assert_eq!(&again, &log);
        // Its JSON is the records' JSON, and (JSON having no NaN or
        // infinity) a finite log reads back from it unchanged.
        let json = serde_json::to_string(&log).expect("serialises");
        prop_assert_eq!(&json, &serde_json::to_string(&recs).expect("serialises"));
        let finite = recs.iter().all(|r| {
            [r.harvested, r.served_direct, r.served_storage, r.stored, r.wasted, r.unmet, r.leaked]
                .iter()
                .all(|e| e.value().is_finite())
        });
        if finite {
            let parsed: PeriodLog = serde_json::from_str(&json).expect("parses");
            prop_assert_eq!(&parsed, &log);
        }
    }

    #[test]
    fn every_truncation_is_refused(seeds in prop::collection::vec(any::<u64>(), 1..12)) {
        let recs = records(&seeds);
        let log: PeriodLog = recs.iter().cloned().collect();
        let bytes = log.as_bytes();
        for cut in 0..bytes.len() {
            let mut l = PeriodLog::new();
            prop_assert!(l.extend_encoded(&bytes[..cut], recs.len()).is_err(), "cut at {}", cut);
            prop_assert_eq!(&l, &PeriodLog::new());
        }
    }

    #[test]
    fn garbage_is_refused_or_read_exactly(
        garbage in prop::collection::vec(any::<u8>(), 0..160),
        wanted in 0usize..6,
        prefix in prop::collection::vec(any::<u64>(), 0..3),
    ) {
        let head: PeriodLog = records(&prefix).into_iter().collect();
        let mut log = head.clone();
        match log.extend_encoded(&garbage, wanted) {
            Err(e) => {
                prop_assert!(e.at <= garbage.len());
                prop_assert_eq!(&log, &head);
            }
            Ok(n) => {
                // Accepted bytes are exactly what the encoder writes for
                // the records they decode to, after the same head.
                prop_assert_eq!(log.len(), head.len() + wanted);
                let again: PeriodLog = log.iter().collect();
                prop_assert_eq!(again.as_bytes(), log.as_bytes());
                prop_assert_eq!(&log.as_bytes()[head.as_bytes().len()..], &garbage[..n]);
            }
        }
    }

    #[test]
    fn damaged_logs_are_refused_or_read_exactly(
        seeds in prop::collection::vec(any::<u64>(), 1..12),
        at in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let recs = records(&seeds);
        let mut bytes = recs.iter().cloned().collect::<PeriodLog>().as_bytes().to_vec();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] = byte;
        let mut log = PeriodLog::new();
        if let Ok(n) = log.extend_encoded(&bytes, recs.len()) {
            let again: PeriodLog = log.iter().collect();
            prop_assert_eq!(again.as_bytes(), &bytes[..n]);
        }
    }
}
