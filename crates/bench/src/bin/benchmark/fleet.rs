//! The two fleet workloads, driven through the service's own protocol:
//! the benchmark is the one closed-loop client of one `serve_with`
//! session. Its reader hands the service one request line at a time
//! and its writer sees the service flush each request's response
//! lines. A request's service time runs from the hand-over to the
//! moment the service asks for the next line, so the work it does after
//! the flush (the crash-safe session's durable progress write) counts;
//! the time the benchmark's own writer spends checking the response,
//! and its reader spends on the next line and on set-up samples, does
//! not.

use std::io::{BufRead, Cursor, Read, Write};
use std::ops::RangeInclusive;
use std::path::Path;
use std::time::{Duration, Instant};

use helio_fleet::{serve_with, ServeOptions};
use heliosched::SimReport;

use crate::inputs::{self, DISTINCT_LANES, REFERENCE_SEED, WHATIF_LANES};
use crate::{stats, Report, Run, SetupSamples, Stop, CHECK_WORKERS, WORKERS};

/// Untimed warm-up requests at the start of every session, drawn from
/// [`REFERENCE_SEED`]; their reports feed `dmr`.
pub const WARMUP_REQUESTS: u64 = 10;

/// Service start-ups timed for `setup_s`, spread over the run.
const SETUP_SAMPLES: u32 = 7;

/// Warm-up requests the multi-thread check serves again.
const SHARD_CHECK_REQUESTS: u64 = 2;

/// Periods between mid-request checkpoints in `fleet-whatif`.
pub const CHECKPOINT_EVERY: usize = 24;

/// Which fleet traffic mix to serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 64 `distilled` scenarios per request, no two on one trace.
    Distinct,
    /// 30 lanes per request on one shared trace: five planner kinds
    /// under six fault plans, served crash-safe.
    Whatif,
}

impl Mix {
    /// Request line `id` for workload seed `seed`.
    pub fn request(self, seed: u64, id: u64) -> String {
        match self {
            Mix::Distinct => inputs::distinct_request(seed, id),
            Mix::Whatif => inputs::whatif_request(seed, id),
        }
    }

    /// Request line `id` of a session whose first `warmup` requests are
    /// the reference ones and whose later requests come from `seed`.
    pub fn session_request(self, seed: u64, warmup: u64, id: u64) -> String {
        self.request(if id <= warmup { REFERENCE_SEED } else { seed }, id)
    }

    /// Scenarios per request.
    pub fn lanes(self) -> usize {
        match self {
            Mix::Distinct => DISTINCT_LANES,
            Mix::Whatif => WHATIF_LANES,
        }
    }
}

/// The benchmark's side of the request stream: the config line first,
/// then one generated request line per `fill_buf` once the previous
/// line is consumed, each stamped with the instant it is handed over.
pub struct ClosedLoopReader<'a> {
    config: Option<String>,
    request: &'a mut dyn FnMut(u64) -> String,
    warmup: u64,
    stop: Stop,
    line: Vec<u8>,
    pos: usize,
    next_id: u64,
    timed_from: Option<Instant>,
    /// `(request id, instant handed to the service)`, in order.
    pub handed: Vec<(u64, Instant)>,
    /// Instants the service asked for a new request line, before the
    /// benchmark generated it: one before each request and one for the
    /// end of the stream.
    pub asked: Vec<Instant>,
}

impl<'a> ClosedLoopReader<'a> {
    /// A stream of `config`, `warmup` untimed requests and then timed
    /// requests until `stop`. Request ids start at 1.
    pub fn new(
        config: String,
        request: &'a mut dyn FnMut(u64) -> String,
        warmup: u64,
        stop: Stop,
    ) -> Self {
        Self {
            config: Some(config),
            request,
            warmup,
            stop,
            line: Vec::new(),
            pos: 0,
            next_id: 1,
            timed_from: None,
            handed: Vec::new(),
            asked: Vec::new(),
        }
    }

    /// Whether the stream has ended: the warm-up is done and the stop
    /// condition holds.
    fn exhausted(&mut self) -> bool {
        if self.next_id <= self.warmup {
            return false;
        }
        let since = *self.timed_from.get_or_insert_with(Instant::now);
        !self.stop.more(self.next_id - self.warmup - 1, since)
    }
}

impl Read for ClosedLoopReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ClosedLoopReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.line.len() {
            self.line.clear();
            self.pos = 0;
            if let Some(config) = self.config.take() {
                self.line.extend_from_slice(config.as_bytes());
                self.line.push(b'\n');
            } else {
                self.asked.push(Instant::now());
                if !self.exhausted() {
                    let id = self.next_id;
                    self.next_id += 1;
                    self.line.extend_from_slice((self.request)(id).as_bytes());
                    self.line.push(b'\n');
                    self.handed.push((id, Instant::now()));
                }
            }
        }
        Ok(&self.line[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.line.len());
    }
}

/// What the writer saw between two flushes: one request's answer.
#[derive(Debug, Clone)]
pub struct Flush {
    /// When the service flushed.
    pub at: Instant,
    /// When the writer, done checking, handed control back.
    pub done: Instant,
    /// The request id every line carried (`None` for an id-less error
    /// line, or lines that disagree).
    pub id: Option<u64>,
    /// `{"id":N,"index":I,"report":…}` lines, with indices 0, 1, … in
    /// order.
    pub reports: usize,
    /// Error lines, and report lines out of index order.
    pub errors: usize,
    /// Response bytes.
    pub bytes: usize,
}

/// A kept request's answer, reduced to what the checks and `dmr` need.
#[derive(Debug, Clone, PartialEq)]
pub struct Kept {
    /// The request id.
    pub id: u64,
    /// FNV-1a digest of the response bytes.
    pub digest: u64,
    /// Σ overall DMR of its reports.
    pub dmr_sum: f64,
    /// Its report lines.
    pub reports: usize,
}

/// The benchmark's side of the response stream: buffers what the
/// service writes and, at each flush, stamps the time first and only
/// then checks the lines. The answers of request ids in `keep` are
/// digested and their reports parsed for `dmr`.
pub struct FlushWriter {
    buf: Vec<u8>,
    keep: RangeInclusive<u64>,
    /// Kept answers, in order.
    pub kept: Vec<Kept>,
    /// Kept report lines that did not parse.
    pub problems: Vec<String>,
    /// One entry per flush, in order.
    pub flushes: Vec<Flush>,
}

impl FlushWriter {
    /// A writer keeping the answers of request ids in `keep`.
    pub fn new(keep: RangeInclusive<u64>) -> Self {
        Self {
            buf: Vec::new(),
            keep,
            kept: Vec::new(),
            problems: Vec::new(),
            flushes: Vec::new(),
        }
    }

    /// Mean overall DMR of the kept reports.
    pub fn mean_dmr(&self) -> Option<f64> {
        let n: usize = self.kept.iter().map(|k| k.reports).sum();
        let sum: f64 = self.kept.iter().map(|k| k.dmr_sum).sum();
        (n > 0).then(|| sum / n as f64)
    }

    fn keep_answer(&mut self, id: u64) {
        let mut kept = Kept {
            id,
            digest: digest(&self.buf),
            dmr_sum: 0.0,
            reports: 0,
        };
        for line in self.buf.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            match report_dmr(line) {
                Ok(dmr) => {
                    kept.dmr_sum += dmr;
                    kept.reports += 1;
                }
                Err(e) => self.problems.push(format!("request {id}: {e}")),
            }
        }
        self.kept.push(kept);
    }
}

/// FNV-1a over `bytes`.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Parses the decimal number at the start of `s`.
fn leading_number(s: &[u8]) -> Option<(u64, &[u8])> {
    let digits = s.iter().take_while(|b| b.is_ascii_digit()).count();
    let n = std::str::from_utf8(&s[..digits]).ok()?.parse().ok()?;
    Some((n, &s[digits..]))
}

/// Splits a response line into `(id, index)` when it is a report line.
fn report_line(line: &[u8]) -> Option<(u64, u64)> {
    let (id, rest) = leading_number(line.strip_prefix(br#"{"id":"#)?)?;
    let (index, rest) = leading_number(rest.strip_prefix(br#","index":"#)?)?;
    rest.starts_with(br#","report":"#).then_some((id, index))
}

/// The overall DMR of a report line's report.
fn report_dmr(line: &[u8]) -> Result<f64, String> {
    const KEY: &[u8] = br#","report":"#;
    let start = line
        .windows(KEY.len())
        .position(|w| w == KEY)
        .ok_or("not a report line")?;
    let body = &line[start + KEY.len()..line.len().saturating_sub(1)];
    let body = std::str::from_utf8(body).map_err(|e| format!("report is not UTF-8: {e}"))?;
    let report: SimReport =
        serde_json::from_str(body).map_err(|e| format!("report does not parse: {e}"))?;
    Ok(report.overall_dmr())
}

impl Write for FlushWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let at = Instant::now();
        if self.buf.is_empty() {
            return Ok(());
        }
        let mut id = None;
        let mut agreed = true;
        let (mut reports, mut errors) = (0, 0);
        for line in self.buf.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let line_id = line
                .strip_prefix(br#"{"id":"#)
                .and_then(leading_number)
                .map(|(n, _)| n);
            match line_id {
                Some(i) => agreed &= *id.get_or_insert(i) == i,
                None => agreed = false,
            }
            match report_line(line) {
                Some((_, index)) if index == reports as u64 => reports += 1,
                _ => errors += 1,
            }
        }
        let id = id.filter(|_| agreed);
        if let Some(i) = id.filter(|i| self.keep.contains(i)) {
            self.keep_answer(i);
        }
        let bytes = self.buf.len();
        self.buf.clear();
        self.flushes.push(Flush {
            at,
            done: Instant::now(),
            id,
            reports,
            errors,
            bytes,
        });
        Ok(())
    }
}

/// One request as the closed loop saw it.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Hand-over to the flush, plus the service's work after the flush
    /// until it asked for the next line.
    pub service: Duration,
    /// Hand-over to the flush: what the client waited for.
    pub response: Duration,
    /// Scenarios without a report line.
    pub failed: usize,
}

/// Pairs the reader's hand-overs with the writer's flushes: request k
/// must be answered by flush k, with `lanes` report lines and no error
/// line. Returns one [`Answer`] per request in request order and a
/// description of every pairing that broke.
pub fn pair(
    handed: &[(u64, Instant)],
    asked: &[Instant],
    flushes: &[Flush],
    lanes: usize,
) -> (Vec<Answer>, Vec<String>) {
    let mut problems = Vec::new();
    if handed.len() != flushes.len() {
        problems.push(format!(
            "{} requests handed to the service but {} flushes seen",
            handed.len(),
            flushes.len()
        ));
    }
    let mut out = Vec::with_capacity(handed.len());
    for (k, (&(id, sent), flush)) in handed.iter().zip(flushes).enumerate() {
        if flush.id != Some(id) {
            problems.push(format!(
                "flush {k} answered request {:?}, expected {id}",
                flush.id
            ));
        }
        let response = flush.at.saturating_duration_since(sent);
        let after = asked
            .get(k + 1)
            .map_or(Duration::ZERO, |a| a.saturating_duration_since(flush.done));
        let failed = lanes.saturating_sub(flush.reports) + flush.errors.min(lanes);
        out.push(Answer {
            service: response + after,
            response,
            failed: failed.min(lanes),
        });
    }
    (out, problems)
}

/// Replays the committed fleet session (its config asks for two
/// threads) through `serve_with` and checks the response stream is
/// byte-identical to the committed fixture.
pub fn check_golden(root: &Path, report: &mut Report) {
    let dir = root.join("results/golden_fleet");
    let (session, expected) = match (
        std::fs::read(dir.join("session.jsonl")),
        std::fs::read(dir.join("expected.jsonl")),
    ) {
        (Ok(s), Ok(e)) => (s, e),
        _ => {
            report.problem("results/golden_fleet fixtures are missing");
            return;
        }
    };
    let mut out = Vec::new();
    let served = serve_with(Cursor::new(session), &mut out, &ServeOptions::default());
    report.check(
        served.is_ok() && out == expected,
        "fleet golden session differs from results/golden_fleet/expected.jsonl",
    );
}

/// One session of `mix` over `reader`, answering into a fresh writer
/// that keeps the answers of `keep`. `fleet-whatif` sessions are
/// crash-safe, checkpointing under `scratch`; the directory is emptied
/// first so a session never resumes an earlier one.
pub fn session(
    mix: Mix,
    reader: &mut ClosedLoopReader<'_>,
    keep: RangeInclusive<u64>,
    scratch: &Path,
) -> Result<FlushWriter, String> {
    let dir = scratch.join("checkpoints");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = match mix {
        Mix::Distinct => ServeOptions::default(),
        Mix::Whatif => ServeOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: Some(CHECKPOINT_EVERY),
            ..ServeOptions::default()
        },
    };
    let mut writer = FlushWriter::new(keep);
    serve_with(&mut *reader, &mut writer, &opts)
        .map_err(|e| format!("fleet session failed: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(writer)
}

/// Serves the first `n` reference requests on [`CHECK_WORKERS`]
/// threads, so the engine's shards split each batch and share the fold
/// table; returns their kept answers.
fn multi_thread_answers(mix: Mix, n: u64, scratch: &Path) -> Result<Vec<Kept>, String> {
    let mut request = move |id: u64| mix.request(REFERENCE_SEED, id);
    let config = inputs::fleet_config_line(CHECK_WORKERS);
    let mut reader = ClosedLoopReader::new(config, &mut request, n, Stop::Ops(0));
    let writer = session(mix, &mut reader, 1..=n, scratch)?;
    match writer.problems.first() {
        Some(p) => Err(p.clone()),
        None => Ok(writer.kept),
    }
}

/// The untraced fleet workload: golden and multi-thread checks,
/// `setup_s`, then one closed-loop session timed as `run` says after
/// the warm-up.
pub fn run(mix: Mix, seed: u64, run: Run, root: &Path, scratch: &Path) -> Report {
    let mut report = Report::default();
    check_golden(root, &mut report);
    let warmup = run.warmup(WARMUP_REQUESTS);
    let shard_check = multi_thread_answers(mix, SHARD_CHECK_REQUESTS.min(warmup), scratch);

    let config = inputs::fleet_config_line(WORKERS);
    let start_up = || {
        serve_with(
            Cursor::new(format!("{config}\n")),
            std::io::sink(),
            &ServeOptions::default(),
        )
        .map(drop)
        .map_err(|e| format!("the fleet config line was refused: {e}"))
    };
    let mut setups = SetupSamples::new(run, SETUP_SAMPLES);
    if let Err(e) = setups.time(start_up) {
        report.problem(&e);
        return report;
    }

    // Later set-up samples are taken while the service waits for its
    // next line, outside every request's time.
    let mut setup_error = None;
    let mut request = |id: u64| {
        if let Err(e) = setups.between(start_up) {
            setup_error.get_or_insert(e);
        }
        mix.session_request(seed, warmup, id)
    };
    let mut reader = ClosedLoopReader::new(config.clone(), &mut request, warmup, run.stop);
    let served = session(mix, &mut reader, 1..=warmup, scratch);
    let (handed, asked) = (reader.handed, reader.asked);
    let writer = match served {
        Ok(w) => w,
        Err(e) => {
            report.problem(&e);
            return report;
        }
    };
    let (answers, problems) = pair(&handed, &asked, &writer.flushes, mix.lanes());
    for p in problems.iter().chain(&writer.problems).chain(&setup_error) {
        report.problem(p);
    }
    match shard_check {
        Ok(multi) => report.check(
            writer.kept.starts_with(&multi),
            &format!("{CHECK_WORKERS} fleet threads answer the reference requests differently from {WORKERS}"),
        ),
        Err(e) => report.problem(&format!("multi-thread session: {e}")),
    }

    let warm = (warmup as usize).min(answers.len());
    let timed = &answers[warm..];
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let service: Vec<f64> = timed.iter().map(|a| ms(a.service)).collect();
    let mut response: Vec<f64> = timed.iter().map(|a| ms(a.response)).collect();
    report.attempted = (timed.len() * mix.lanes()) as u64;
    report.failed = timed.iter().map(|a| a.failed as u64).sum();

    match setups.median() {
        Some(s) => report.metric("setup_s", s, "s"),
        None => report.problem("no fleet set-up sample"),
    }
    report.latency(&service);
    response.sort_by(f64::total_cmp);
    if let Some(p50) = stats::percentile(&response, 50.0) {
        report.note("response_p50_ms", p50, "ms");
    }
    match writer.mean_dmr() {
        Some(dmr) => {
            report.metric("dmr", dmr, "ratio");
            let n: usize = writer.kept.iter().map(|k| k.reports).sum();
            report.note("dmr_scenarios", n as f64, "count");
        }
        None => report.problem("dmr: no warm-up report to average"),
    }
    let busy_s: f64 = service.iter().sum::<f64>() / 1e3;
    if busy_s > 0.0 {
        let periods = timed.len() * mix.lanes() * inputs::FLEET_PERIODS as usize;
        report.note("sim_periods_per_s", periods as f64 / busy_s, "1/s");
    }
    let bytes: usize = writer.flushes[warm.min(writer.flushes.len())..]
        .iter()
        .map(|f| f.bytes)
        .sum();
    report.note(
        "response_bytes_per_request",
        bytes as f64 / timed.len().max(1) as f64,
        "B",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const EMPTY_REPORT: &str = r#"{"planner":"asap","periods":[],"complexity":0,"nvp_backups":0,"nvp_restores":0,"nvp_overhead":0.0}"#;

    #[test]
    fn reader_and_writer_pair_request_k_with_flush_k() {
        let mut request = |id: u64| format!(r#"{{"id":{id},"scenarios":[]}}"#);
        let mut reader = ClosedLoopReader::new("config".into(), &mut request, 2, Stop::Ops(3));
        let mut writer = FlushWriter::new(3..=3);
        let mut lines = Vec::new();
        let mut buf = String::new();
        // The config line comes first and is not stamped.
        reader.read_line(&mut buf).expect("config");
        assert_eq!(buf, "config\n");
        assert!(reader.handed.is_empty() && reader.asked.is_empty());
        loop {
            buf.clear();
            if reader.read_line(&mut buf).expect("line") == 0 {
                break;
            }
            let id = reader.handed.last().expect("stamped").0;
            lines.push(buf.clone());
            // Answer like the service: two report lines, one flush, then
            // some work after the flush.
            for index in 0..2 {
                writeln!(
                    writer,
                    r#"{{"id":{id},"index":{index},"report":{EMPTY_REPORT}}}"#
                )
                .expect("write");
            }
            writer.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(2));
        }
        // Two warm-up requests plus three timed ones, then EOF; the
        // service asked once per request and once for the end.
        assert_eq!(lines.len(), 5);
        assert_eq!(
            reader.handed.iter().map(|h| h.0).collect::<Vec<_>>(),
            [1, 2, 3, 4, 5]
        );
        assert_eq!(reader.asked.len(), 6);
        let (answers, problems) = pair(&reader.handed, &reader.asked, &writer.flushes, 2);
        assert!(problems.is_empty(), "{problems:?}");
        assert!(answers.iter().all(|a| a.failed == 0));
        // The work after the flush counts towards the service time.
        assert!(answers
            .iter()
            .all(|a| a.service >= a.response + Duration::from_millis(2)));
        assert_eq!(writer.kept.len(), 1);
        assert_eq!(writer.kept[0].id, 3);
        assert_eq!(writer.kept[0].reports, 2);
        assert!(writer.problems.is_empty(), "{:?}", writer.problems);
        assert_eq!(writer.mean_dmr(), Some(0.0));

        // A flush answering the wrong request, or a short answer, is
        // caught.
        let mut swapped = writer.flushes.clone();
        swapped.swap(1, 2);
        let (_, problems) = pair(&reader.handed, &reader.asked, &swapped, 2);
        assert_eq!(problems.len(), 2);
        let (answers, _) = pair(&reader.handed, &reader.asked, &writer.flushes, 3);
        assert!(answers.iter().all(|a| a.failed == 1));
        let (_, problems) = pair(&reader.handed, &reader.asked, &writer.flushes[..4], 2);
        assert_eq!(problems.len(), 1);
    }

    #[test]
    fn error_lines_count_as_failures() {
        let mut writer = FlushWriter::new(0..=0);
        writeln!(writer, r#"{{"id":4,"index":0,"report":{{}}}}"#).expect("write");
        writeln!(writer, r#"{{"id":4,"index":1,"error":"boom"}}"#).expect("write");
        writer.flush().expect("flush");
        writeln!(writer, r#"{{"error":"bad request"}}"#).expect("write");
        writer.flush().expect("flush");
        assert_eq!(writer.flushes[0].id, Some(4));
        assert_eq!(
            (writer.flushes[0].reports, writer.flushes[0].errors),
            (1, 1)
        );
        assert_eq!(writer.flushes[1].id, None);
        assert_eq!(writer.flushes[1].errors, 1);
    }

    #[test]
    fn session_requests_switch_from_the_reference_seed_after_the_warm_up() {
        for mix in [Mix::Distinct, Mix::Whatif] {
            assert_eq!(mix.session_request(7, 2, 2), mix.request(REFERENCE_SEED, 2));
            assert_eq!(mix.session_request(7, 2, 3), mix.request(7, 3));
            assert_eq!(mix.session_request(8, 2, 1), mix.session_request(7, 2, 1));
        }
    }
}
