//! Simulation metrics: per-period records and the aggregates the
//! paper's figures report (long-term DMR, energy utilisation,
//! migration efficiency).

use helio_common::time::PeriodRef;
use helio_common::units::Joules;
use helio_faults::{DegradedCounters, FaultEvent};
use serde::{Deserialize, Serialize};

use crate::planner::Pattern;

/// Everything measured in one period.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodRecord {
    /// Which period.
    pub period: PeriodRef,
    /// Tasks that missed their deadline.
    pub misses: usize,
    /// Task count `N` (for DMR normalisation).
    pub tasks: usize,
    /// Harvested solar energy (source side).
    pub harvested: Joules,
    /// Load served through the direct channel.
    pub served_direct: Joules,
    /// Load served from storage.
    pub served_storage: Joules,
    /// Solar energy absorbed into storage.
    pub stored: Joules,
    /// Solar surplus wasted (storage full).
    pub wasted: Joules,
    /// Demand that browned out.
    pub unmet: Joules,
    /// Energy lost to capacitor leakage.
    pub leaked: Joules,
    /// Brown-out slots.
    pub brownouts: usize,
    /// Pattern the planner chose.
    pub pattern: Pattern,
    /// Active capacitor index during the period.
    pub capacitor: usize,
}

impl PeriodRecord {
    /// The period's deadline-miss rate `DMR_{i,j}`.
    pub fn dmr(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            self.misses as f64 / self.tasks as f64
        }
    }

    /// The seven energies in log order: harvested, served direct,
    /// served from storage, stored, wasted, unmet, leaked.
    fn energies(&self) -> [Joules; 7] {
        [
            self.harvested,
            self.served_direct,
            self.served_storage,
            self.stored,
            self.wasted,
            self.unmet,
            self.leaked,
        ]
    }
}

/// Bytes of the longest record a [`PeriodLog`] holds: mask and tag,
/// an explicit period and four counts as 10-byte varints, and all seven
/// energies.
const MAX_RECORD_LEN: usize = 2 + 6 * 10 + 7 * 8;

/// Period steps of the tag byte (bits 2-3).
const STEP_SAME_DAY: u8 = 0;
const STEP_NEXT_DAY: u8 = 1;
const STEP_EXPLICIT: u8 = 2;

/// The period an implicit `step` leads to after `prev`. A log starts
/// as if its previous period closed day "-1", so its first period
/// (0, 0) is a next-day step.
fn stepped(prev: Option<PeriodRef>, step: u8) -> Option<PeriodRef> {
    match (step, prev) {
        (STEP_SAME_DAY, Some(p)) => Some(PeriodRef::new(p.day, p.period.checked_add(1)?)),
        (STEP_NEXT_DAY, Some(p)) => Some(PeriodRef::new(p.day.checked_add(1)?, 0)),
        (STEP_NEXT_DAY, None) => Some(PeriodRef::new(0, 0)),
        _ => None,
    }
}

fn put_varint(buf: &mut [u8; MAX_RECORD_LEN], n: &mut usize, mut x: u64) {
    while x >= 0x80 {
        buf[*n] = x as u8 | 0x80;
        *n += 1;
        x >>= 7;
    }
    buf[*n] = x as u8;
    *n += 1;
}

/// Appends `r` to `out` after a record of period `prev`.
fn encode(r: &PeriodRecord, prev: Option<PeriodRef>, out: &mut Vec<u8>) {
    let mut buf = [0u8; MAX_RECORD_LEN];
    let mut n = 2;
    let step = [STEP_SAME_DAY, STEP_NEXT_DAY]
        .into_iter()
        .find(|&s| stepped(prev, s) == Some(r.period))
        .unwrap_or(STEP_EXPLICIT);
    if step == STEP_EXPLICIT {
        put_varint(&mut buf, &mut n, r.period.day as u64);
        put_varint(&mut buf, &mut n, r.period.period as u64);
    }
    for count in [r.misses, r.tasks, r.brownouts, r.capacitor] {
        put_varint(&mut buf, &mut n, count as u64);
    }
    let mut mask = 0u8;
    for (i, e) in r.energies().iter().enumerate() {
        let bits = e.value().to_bits();
        if bits != 0 {
            mask |= 1 << i;
            buf[n..n + 8].copy_from_slice(&bits.to_le_bytes());
            n += 8;
        }
    }
    buf[0] = mask;
    buf[1] = pattern_tag(r.pattern) | step << 2;
    out.extend_from_slice(&buf[..n]);
}

fn pattern_tag(p: Pattern) -> u8 {
    match p {
        Pattern::Asap => 0,
        Pattern::Inter => 1,
        Pattern::Intra => 2,
    }
}

/// Why bytes are not a [`PeriodLog`]: the offset of the refused record
/// and what is wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogError {
    /// Offset of the refused record's first byte.
    pub at: usize,
    /// What is wrong with it.
    pub reason: &'static str,
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "period record at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for LogError {}

/// A read position in encoded records.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn byte(&mut self) -> Result<u8, &'static str> {
        let b = *self.bytes.get(self.pos).ok_or("truncated")?;
        self.pos += 1;
        Ok(b)
    }

    /// A minimal LEB128 varint that fits `usize`.
    fn varint(&mut self) -> Result<usize, &'static str> {
        let mut x = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let bits = u64::from(b & 0x7f);
            if shift == 63 && bits > 1 {
                return Err("varint overflows 64 bits");
            }
            x |= bits << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err("varint is not minimal");
                }
                return usize::try_from(x).map_err(|_| "count overflows usize");
            }
        }
        Err("varint longer than 10 bytes")
    }

    fn energy(&mut self) -> Result<Joules, &'static str> {
        let end = self.pos.checked_add(8).ok_or("truncated")?;
        let word = self.bytes.get(self.pos..end).ok_or("truncated")?;
        self.pos = end;
        let bits = u64::from_le_bytes(word.try_into().map_err(|_| "truncated")?);
        if bits == 0 {
            return Err("zero energy written out");
        }
        Ok(Joules::new(f64::from_bits(bits)))
    }

    /// Reads the record after one of period `prev`. Only the encoding
    /// [`encode`] writes is accepted, so every accepted record
    /// re-encodes to the bytes it was read from.
    fn record(&mut self, prev: Option<PeriodRef>) -> Result<PeriodRecord, &'static str> {
        let mask = self.byte()?;
        if mask & 0x80 != 0 {
            return Err("unknown mask bit");
        }
        let tag = self.byte()?;
        let pattern = match tag & 0b11 {
            0 => Pattern::Asap,
            1 => Pattern::Inter,
            2 => Pattern::Intra,
            _ => return Err("unknown pattern"),
        };
        let step = tag >> 2;
        let period = match step {
            STEP_SAME_DAY | STEP_NEXT_DAY => stepped(prev, step).ok_or("no period to step from")?,
            STEP_EXPLICIT => {
                let p = PeriodRef::new(self.varint()?, self.varint()?);
                if [STEP_SAME_DAY, STEP_NEXT_DAY]
                    .into_iter()
                    .any(|s| stepped(prev, s) == Some(p))
                {
                    return Err("explicit period a step would give");
                }
                p
            }
            _ => return Err("unknown period step"),
        };
        let (misses, tasks, brownouts, capacitor) = (
            self.varint()?,
            self.varint()?,
            self.varint()?,
            self.varint()?,
        );
        let mut e = [Joules::ZERO; 7];
        for (i, slot) in e.iter_mut().enumerate() {
            if mask & (1 << i) != 0 {
                *slot = self.energy()?;
            }
        }
        let [harvested, served_direct, served_storage, stored, wasted, unmet, leaked] = e;
        Ok(PeriodRecord {
            period,
            misses,
            tasks,
            harvested,
            served_direct,
            served_storage,
            stored,
            wasted,
            unmet,
            leaked,
            brownouts,
            pattern,
            capacitor,
        })
    }
}

/// A run's period records, in order, as one append-only byte log.
///
/// Each record is self-delimiting (see DESIGN.md, "Period log"):
///
/// * a mask byte: bit `i` set when energy `i` (harvested, served
///   direct, served from storage, stored, wasted, unmet, leaked) has a
///   nonzero bit pattern, so `-0.0` and NaN payloads survive;
/// * a tag byte: the pattern (asap 0, inter 1, intra 2) in bits 0-1 and
///   the period step in bits 2-3: 0 for the previous period plus one on
///   the same day, 1 for the first period of the next day, 2 for an
///   explicit period;
/// * for an explicit period, its day and period as LEB128 varints;
/// * misses, tasks, brown-outs and capacitor as LEB128 varints;
/// * the little-endian `f64` bits of each energy the mask marks.
///
/// Records are decoded on the fly: [`PeriodLog::iter`] yields
/// [`PeriodRecord`]s by value. A record of an engine run with counts
/// below 128 takes 6 bytes plus 8 per nonzero energy: 62 at most and
/// ~35 on the paper sweep, where a [`PeriodRecord`] takes 112.
#[derive(Clone, Default, PartialEq)]
pub struct PeriodLog {
    bytes: Vec<u8>,
    len: usize,
    last: Option<PeriodRef>,
}

impl PeriodLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty log with room for `records` records of any size, so
    /// appending that many never reallocates.
    pub fn with_capacity(records: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(records.saturating_mul(MAX_RECORD_LEN)),
            ..Self::default()
        }
    }

    /// Reserves room for `records` more records of any size.
    pub fn reserve(&mut self, records: usize) {
        self.bytes.reserve(records.saturating_mul(MAX_RECORD_LEN));
    }

    /// Appends one record.
    pub fn push(&mut self, record: &PeriodRecord) {
        encode(record, self.last, &mut self.bytes);
        self.len += 1;
        self.last = Some(record.period);
    }

    /// Appends the first `records` records encoded in `bytes`, read as
    /// continuing this log, and returns the bytes they take. On error
    /// the log is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`LogError`] when `bytes` ends before `records` records
    /// or holds one [`PeriodLog::push`] would not have written here.
    pub fn extend_encoded(&mut self, bytes: &[u8], records: usize) -> Result<usize, LogError> {
        let mut r = Reader { bytes, pos: 0 };
        let mut last = self.last;
        for _ in 0..records {
            let at = r.pos;
            let record = r.record(last).map_err(|reason| LogError { at, reason })?;
            last = Some(record.period);
        }
        self.bytes.extend_from_slice(&bytes[..r.pos]);
        self.len += records;
        self.last = last;
        Ok(r.pos)
    }

    /// The log in an allocation of exactly its encoded length. A copy,
    /// not a shrink in place, so a live log's reserve is freed whole:
    /// shrunk reserves fragment the heap of a run that keeps many
    /// reports.
    pub fn to_exact(&self) -> Self {
        self.clone()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Period of the last record.
    pub fn last_period(&self) -> Option<PeriodRef> {
        self.last
    }

    /// The encoded records.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Bytes allocated for the log.
    pub fn capacity(&self) -> usize {
        self.bytes.capacity()
    }

    /// The records in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            reader: Reader {
                bytes: &self.bytes,
                pos: 0,
            },
            prev: None,
            left: self.len,
        }
    }
}

/// Iterator over a [`PeriodLog`]'s records, decoded by value.
pub struct Iter<'a> {
    reader: Reader<'a>,
    prev: Option<PeriodRef>,
    left: usize,
}

impl Iterator for Iter<'_> {
    type Item = PeriodRecord;

    fn next(&mut self) -> Option<PeriodRecord> {
        if self.left == 0 {
            return None;
        }
        // Every record was checked on its way into the log.
        let record = self.reader.record(self.prev).ok()?;
        self.prev = Some(record.period);
        self.left -= 1;
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a PeriodLog {
    type Item = PeriodRecord;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<PeriodRecord> for PeriodLog {
    fn from_iter<I: IntoIterator<Item = PeriodRecord>>(records: I) -> Self {
        let mut log = Self::new();
        for r in records {
            log.push(&r);
        }
        log.to_exact()
    }
}

impl std::fmt::Debug for PeriodLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A JSON array of records, the same bytes a `Vec<PeriodRecord>` writes.
impl Serialize for PeriodLog {
    fn serialize_json(&self, out: &mut String) {
        out.push('[');
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            r.serialize_json(out);
        }
        out.push(']');
    }
}

impl Deserialize for PeriodLog {
    fn deserialize_json(v: &serde::Value) -> Result<Self, serde::DeError> {
        v.as_array()?
            .iter()
            .map(PeriodRecord::deserialize_json)
            .collect()
    }
}

/// Aggregated results of one simulation run.
///
/// Serialisation is hand-written rather than derived: the fault log
/// and degraded counters are *omitted* from the JSON when empty/zero,
/// so clean runs produce byte-identical reports to the pre-fault
/// format (the golden gate depends on this), and reports written
/// before the fault harness existed still deserialise.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Scheduler/planner name.
    pub planner: String,
    /// Per-period records in chronological order.
    pub periods: PeriodLog,
    /// Planner complexity counter (state expansions).
    pub complexity: u64,
    /// NVP state backups caused by brown-outs.
    pub nvp_backups: usize,
    /// NVP state restores when interrupted tasks resumed.
    pub nvp_restores: usize,
    /// Total backup/restore energy overhead.
    pub nvp_overhead: Joules,
    /// Fault windows materialised and degradation reactions taken,
    /// sorted by start period. Empty for clean runs.
    pub faults: Vec<FaultEvent>,
    /// Tallies of graceful-degradation reactions. All-zero for clean
    /// runs.
    pub degraded: DegradedCounters,
}

impl Serialize for SimReport {
    fn serialize_json(&self, out: &mut String) {
        out.push('{');
        out.push_str("\"planner\":");
        self.planner.serialize_json(out);
        out.push_str(",\"periods\":");
        self.periods.serialize_json(out);
        out.push_str(",\"complexity\":");
        self.complexity.serialize_json(out);
        out.push_str(",\"nvp_backups\":");
        self.nvp_backups.serialize_json(out);
        out.push_str(",\"nvp_restores\":");
        self.nvp_restores.serialize_json(out);
        out.push_str(",\"nvp_overhead\":");
        self.nvp_overhead.serialize_json(out);
        if !self.faults.is_empty() {
            out.push_str(",\"faults\":");
            self.faults.serialize_json(out);
        }
        if !self.degraded.is_zero() {
            out.push_str(",\"degraded\":");
            self.degraded.serialize_json(out);
        }
        out.push('}');
    }
}

impl Deserialize for SimReport {
    fn deserialize_json(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            planner: String::deserialize_json(v.field("planner")?)?,
            periods: PeriodLog::deserialize_json(v.field("periods")?)?,
            complexity: u64::deserialize_json(v.field("complexity")?)?,
            nvp_backups: usize::deserialize_json(v.field("nvp_backups")?)?,
            nvp_restores: usize::deserialize_json(v.field("nvp_restores")?)?,
            nvp_overhead: Joules::deserialize_json(v.field("nvp_overhead")?)?,
            faults: match v.field("faults") {
                Ok(f) => Vec::deserialize_json(f)?,
                Err(_) => Vec::new(),
            },
            degraded: match v.field("degraded") {
                Ok(d) => DegradedCounters::deserialize_json(d)?,
                Err(_) => DegradedCounters::default(),
            },
        })
    }
}

impl SimReport {
    /// Long-term DMR: total misses over total task releases (Eq. 6).
    pub fn overall_dmr(&self) -> f64 {
        let (misses, total) = self
            .periods
            .iter()
            .fold((0usize, 0usize), |(m, t), p| (m + p.misses, t + p.tasks));
        if total == 0 {
            0.0
        } else {
            misses as f64 / total as f64
        }
    }

    /// DMR restricted to the periods of one day.
    pub fn day_dmr(&self, day: usize) -> f64 {
        let (misses, total) = self
            .periods
            .iter()
            .filter(|p| p.period.day == day)
            .fold((0usize, 0usize), |(m, t), p| (m + p.misses, t + p.tasks));
        if total == 0 {
            0.0
        } else {
            misses as f64 / total as f64
        }
    }

    /// Total harvested solar energy.
    pub fn total_harvested(&self) -> Joules {
        self.periods.iter().map(|p| p.harvested).sum()
    }

    /// Total energy delivered to the load (both channels).
    pub fn total_served(&self) -> Joules {
        self.periods
            .iter()
            .map(|p| p.served_direct + p.served_storage)
            .sum()
    }

    /// Energy utilisation (Fig. 9b): load energy delivered per joule
    /// harvested.
    pub fn energy_utilisation(&self) -> f64 {
        let h = self.total_harvested();
        if h.value() <= 0.0 {
            0.0
        } else {
            (self.total_served() / h).clamp(0.0, 1.0)
        }
    }

    /// Aggregate migration efficiency (Fig. 10b): energy delivered from
    /// storage per joule absorbed into storage.
    pub fn migration_efficiency(&self) -> f64 {
        let stored: Joules = self.periods.iter().map(|p| p.stored).sum();
        let delivered: Joules = self.periods.iter().map(|p| p.served_storage).sum();
        if stored.value() <= 0.0 {
            0.0
        } else {
            (delivered / stored).clamp(0.0, 1.0)
        }
    }

    /// Accumulated DMR after the first `k` periods (Eq. 19's
    /// `DMR^acc`).
    pub fn accumulated_dmr(&self, k: usize) -> f64 {
        let (misses, total) = self
            .periods
            .iter()
            .take(k)
            .fold((0usize, 0usize), |(m, t), p| (m + p.misses, t + p.tasks));
        if total == 0 {
            0.0
        } else {
            misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(day: usize, period: usize, misses: usize, tasks: usize) -> PeriodRecord {
        PeriodRecord {
            period: PeriodRef::new(day, period),
            misses,
            tasks,
            harvested: Joules::new(10.0),
            served_direct: Joules::new(4.0),
            served_storage: Joules::new(1.0),
            stored: Joules::new(2.0),
            wasted: Joules::new(1.0),
            unmet: Joules::ZERO,
            leaked: Joules::new(0.1),
            brownouts: 0,
            pattern: Pattern::Intra,
            capacitor: 0,
        }
    }

    fn report() -> SimReport {
        SimReport {
            planner: "test".into(),
            periods: [
                record(0, 0, 0, 5),
                record(0, 1, 5, 5),
                record(1, 0, 2, 5),
                record(1, 1, 3, 5),
            ]
            .into_iter()
            .collect(),
            complexity: 7,
            nvp_backups: 2,
            nvp_restores: 1,
            nvp_overhead: Joules::new(1e-5),
            faults: vec![],
            degraded: DegradedCounters::default(),
        }
    }

    #[test]
    fn overall_and_daily_dmr() {
        let r = report();
        assert!((r.overall_dmr() - 0.5).abs() < 1e-12);
        assert!((r.day_dmr(0) - 0.5).abs() < 1e-12);
        assert!((r.day_dmr(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn accumulated_dmr_prefixes() {
        let r = report();
        assert!((r.accumulated_dmr(1) - 0.0).abs() < 1e-12);
        assert!((r.accumulated_dmr(2) - 0.5).abs() < 1e-12);
        assert!((r.accumulated_dmr(99) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn energy_aggregates() {
        let r = report();
        assert!((r.total_harvested().value() - 40.0).abs() < 1e-9);
        assert!((r.total_served().value() - 20.0).abs() < 1e-9);
        assert!((r.energy_utilisation() - 0.5).abs() < 1e-12);
        assert!((r.migration_efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = SimReport {
            planner: "empty".into(),
            periods: PeriodLog::new(),
            complexity: 0,
            nvp_backups: 0,
            nvp_restores: 0,
            nvp_overhead: Joules::ZERO,
            faults: vec![],
            degraded: DegradedCounters::default(),
        };
        assert_eq!(r.overall_dmr(), 0.0);
        assert_eq!(r.energy_utilisation(), 0.0);
        assert_eq!(r.migration_efficiency(), 0.0);
    }

    #[test]
    fn period_record_dmr() {
        assert!((record(0, 0, 2, 5).dmr() - 0.4).abs() < 1e-12);
    }

    /// Every bit of a record, NaN payloads and zero signs included.
    fn bits(r: &PeriodRecord) -> (PeriodRef, [usize; 4], [u64; 7], u8) {
        (
            r.period,
            [r.misses, r.tasks, r.brownouts, r.capacitor],
            r.energies().map(|e| e.value().to_bits()),
            pattern_tag(r.pattern),
        )
    }

    /// Records with every awkward value and every period step.
    fn awkward() -> Vec<PeriodRecord> {
        let mut a = record(0, 0, 2, 5);
        a.harvested = Joules::new(-0.0);
        a.served_direct = Joules::new(f64::from_bits(1)); // subnormal
        a.served_storage = Joules::new(f64::from_bits(0x7ff8_dead_beef_0001)); // NaN payload
        a.unmet = Joules::new(1.0 / 3.0);
        let mut b = record(0, 1, usize::MAX, usize::MAX);
        b.brownouts = usize::MAX;
        b.capacitor = usize::MAX;
        b.pattern = Pattern::Asap;
        let mut c = record(1, 0, 0, 0);
        c.pattern = Pattern::Inter;
        c.harvested = Joules::ZERO;
        c.leaked = Joules::new(f64::INFINITY);
        vec![
            a,
            b,
            c,
            record(1, 0, 1, 1),                   // repeated period
            record(7, usize::MAX, 0, 3),          // jump
            record(usize::MAX, 0, 0, 3),          // next day of a jump
            record(usize::MAX, usize::MAX, 1, 3), // no step past the end
            record(0, 0, 0, 3),                   // back to the start
        ]
    }

    #[test]
    fn record_codec_keeps_every_bit() {
        let records = awkward();
        let log: PeriodLog = records.iter().cloned().collect();
        assert_eq!(log.len(), records.len());
        assert_eq!(log.capacity(), log.as_bytes().len());
        assert_eq!(log.last_period(), Some(PeriodRef::new(0, 0)));
        let back: Vec<_> = log.iter().collect();
        assert_eq!(back.len(), records.len());
        for (a, b) in records.iter().zip(&back) {
            assert_eq!(bits(a), bits(b));
        }
        // Read back from its bytes, the log is the same log.
        let mut again = PeriodLog::new();
        let n = again
            .extend_encoded(log.as_bytes(), records.len())
            .expect("decodes");
        assert_eq!((n, &again), (log.as_bytes().len(), &log));
        // So is the log continued from any record boundary.
        for split in 0..=records.len() {
            let mut head: PeriodLog = records[..split].iter().cloned().collect();
            let tail = &log.as_bytes()[head.as_bytes().len()..];
            head.extend_encoded(tail, records.len() - split)
                .expect("continues");
            assert_eq!(head, log, "split at {split}");
        }
        // A consecutive record takes the mask, the tag, four one-byte
        // counts and its nonzero energies: no period bytes.
        let quiet: PeriodLog = (0..3).map(|p| record(0, p, 0, 5)).collect();
        assert_eq!(quiet.as_bytes().len(), 3 * (2 + 4 + 6 * 8));
    }

    #[test]
    fn record_codec_refuses_bad_bytes() {
        let records = awkward();
        let log: PeriodLog = records.iter().cloned().collect();
        let bytes = log.as_bytes();
        // Every truncation falls short of the records it should hold.
        for cut in 0..bytes.len() {
            let mut l = PeriodLog::new();
            assert!(l.extend_encoded(&bytes[..cut], records.len()).is_err());
            assert_eq!(
                l,
                PeriodLog::new(),
                "a refused read leaves the log as it was"
            );
        }
        let one: PeriodLog = std::iter::once(record(0, 0, 0, 5)).collect();
        let refused = |edit: &dyn Fn(&mut Vec<u8>), why: &str| {
            let mut b = one.as_bytes().to_vec();
            edit(&mut b);
            let mut l = PeriodLog::new();
            let err = l.extend_encoded(&b, 1).expect_err(why);
            assert_eq!(err.at, 0, "{why}");
        };
        refused(&|b| b[0] |= 0x80, "unknown mask bit");
        refused(&|b| b[1] |= 0b11, "pattern tag 3");
        refused(&|b| b[1] |= 0b1100, "period step 3");
        refused(&|b| b[1] |= 0x10, "high tag bits");
        refused(
            &|b| b[1] = (b[1] & 0b11) | STEP_SAME_DAY << 2,
            "no period to step from",
        );
        refused(
            &|b| {
                b[1] = (b[1] & 0b11) | STEP_EXPLICIT << 2;
                b.splice(2..2, [0, 0]);
            },
            "explicit period a step would give",
        );
        refused(
            &|b| b.splice(2..3, [0x80, 0x00]).for_each(drop),
            "non-minimal varint",
        );
        refused(
            &|b| {
                b.splice(2..3, [0xff; 9].into_iter().chain([0x02]))
                    .for_each(drop)
            },
            "varint past 64 bits",
        );
        refused(
            &|b| b.splice(2..3, [0xff; 11]).for_each(drop),
            "varint past 10 bytes",
        );
        refused(&|b| b[6..14].fill(0), "zero energy written out");
        assert!(PeriodLog::new().extend_encoded(one.as_bytes(), 1).is_ok());
    }

    #[test]
    fn clean_reports_omit_fault_fields() {
        let json = serde_json::to_string(&report()).unwrap();
        assert!(!json.contains("\"faults\""));
        assert!(!json.contains("\"degraded\""));
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report());
    }

    #[test]
    fn faulted_reports_round_trip() {
        let mut r = report();
        r.faults.push(helio_faults::FaultEvent::at(
            3,
            helio_faults::FaultKind::SolarOutage,
            "factor 0",
        ));
        r.degraded.faulted_slots = 10;
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"faults\""));
        assert!(json.contains("\"degraded\""));
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
