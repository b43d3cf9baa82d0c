//! The fleet-simulation service: a long-lived process that accepts
//! JSON scenario-batch requests and streams back one [`SimReport`]
//! per scenario, sharding each batch across the `helio-par` worker
//! pool.
//!
//! ## Protocol
//!
//! Line-delimited JSON over any `BufRead`/`Write` pair (stdin/stdout
//! by default, one TCP connection in `--listen` mode):
//!
//! 1. The **first** line is the fleet configuration — node, grid, task
//!    benchmark, planner hyper-parameters, optional DBN training spec,
//!    optional worker count. Everything derivable once is derived
//!    once: the [`PlanContext`], the trained DBN, the per-worker
//!    [`BatchScratch`]es.
//! 2. Every following line is a request: `{"id": N, "scenarios":
//!    [...]}`. Scenarios within a request run as one sharded lockstep
//!    batch.
//! 3. The service answers each request with one line per scenario, in
//!    scenario order — `{"id": N, "index": I, "report": {...}}` — and
//!    keeps the connection open for the next request. A malformed
//!    request line produces a single `{"error": "..."}` (or
//!    `{"id": N, "error": "..."}`) line and the service keeps serving.
//!
//! Output lines are deterministic functions of the input (reports are
//! byte-identical to `Engine::run_with_faults`), so a recorded session
//! can be replayed and diffed bytewise — the CI smoke test does
//! exactly that. Telemetry (timings, worker counts) never goes to the
//! protocol stream.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::panic, clippy::indexing_slicing)
)]

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use helio_ann::{
    CompiledDbn, CompiledTier, Dbn, DbnConfig, DistillConfig, DistilledPolicy, FoldTable,
};
use helio_common::time::TimeGrid;
use helio_common::units::{Farads, Seconds};
use helio_faults::{FaultHarness, FaultPlan, ServiceFaultPlan};
use helio_solar::{DayArchetype, NoisyOracle, SolarPanel, SolarTrace, TraceBuilder};
use helio_tasks::{benchmarks, TaskGraph};
use heliosched::{
    BatchCheckpoint, BatchEngine, BatchRunState, BatchScenario, BatchScratch, CoreError, DpConfig,
    FixedPlanner, MpcPlanner, NodeConfig, OptimalPlanner, Pattern, PeriodLog, PeriodPlanner,
    PlanContext, PlanDecision, PlannerObservation, ProposedPlanner, ResilientPlanner,
    ScenarioCheckpoint, SimReport, SwitchRule,
};
use serde::{Deserialize, Serialize, Value};

/// Anything that can go wrong while configuring or serving the fleet.
#[derive(Debug)]
pub enum FleetError {
    /// A protocol line failed to parse or validate.
    Protocol(String),
    /// The fleet configuration is unusable.
    Config(String),
    /// The simulation engine rejected a scenario.
    Engine(String),
    /// The transport failed (broken pipe, socket error).
    Io(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Protocol(m) => write!(f, "protocol error: {m}"),
            FleetError::Config(m) => write!(f, "config error: {m}"),
            FleetError::Engine(m) => write!(f, "engine error: {m}"),
            FleetError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<CoreError> for FleetError {
    fn from(e: CoreError) -> Self {
        FleetError::Engine(e.to_string())
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e.to_string())
    }
}

/// Service-level knobs for [`serve_with`]: request caps, wall-clock
/// deadlines, crash-safe checkpointing, graceful shutdown and the
/// chaos harness. The default is exactly the legacy [`serve`]
/// behaviour.
#[derive(Debug, Default)]
pub struct ServeOptions {
    /// Reject (with an inline `{"id":N,"error":…}` line) any request
    /// carrying more scenarios than this.
    pub max_batch: Option<usize>,
    /// Reject (with an inline error line) any protocol line longer
    /// than this many bytes; the oversized remainder is drained so the
    /// session keeps its line framing.
    pub max_line_bytes: Option<usize>,
    /// Per-request wall-clock deadline. An expired request answers
    /// with a single `{"id":N,"error":"deadline"}` line instead of its
    /// reports and the session moves on.
    pub deadline_ms: Option<u64>,
    /// Persist session progress here (`session.json` + the mid-request
    /// frame log `inflight.log`). A restarted service pointed at the
    /// same directory skips already-answered lines and resumes the
    /// interrupted request from its last period-boundary checkpoint.
    pub checkpoint_dir: Option<PathBuf>,
    /// Periods between mid-request checkpoints / deadline checks;
    /// defaults to one day's worth of periods when any of the
    /// segmenting features (checkpointing, deadlines, chaos kill,
    /// shutdown flag) is active.
    pub checkpoint_every: Option<usize>,
    /// Chaos injection: [`serve_with`] honours the plan's
    /// [`kill_point`](ServiceFaultPlan::kill_point) by checkpointing
    /// and returning [`SessionOutcome::ChaosKill`] at that period
    /// boundary, as if the process had lost power.
    pub chaos: ServiceFaultPlan,
    /// Cooperative shutdown flag, typically raised by a SIGTERM/SIGINT
    /// handler: the service finishes the segment in flight, persists a
    /// final checkpoint and returns [`SessionOutcome::Shutdown`].
    pub shutdown: Option<Arc<AtomicBool>>,
}

/// Why [`serve_with`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOutcome {
    /// The peer closed the stream; every request was answered.
    Eof,
    /// The shutdown flag was raised; progress is checkpointed.
    Shutdown,
    /// The chaos plan killed the service mid-request, after its
    /// checkpoint was persisted — a restart with the same checkpoint
    /// directory resumes from `period`.
    ChaosKill {
        /// 1-based ordinal of the request line being simulated.
        request: u64,
        /// First period the resumed run will execute.
        period: usize,
    },
}

/// What [`serve_with`] hands back: the service (for its telemetry
/// counters) plus why the session ended.
pub struct SessionSummary {
    /// The service, with its telemetry counters.
    pub service: FleetService,
    /// Why the session ended.
    pub outcome: SessionOutcome,
}

/// Result of [`read_raw_line`].
enum RawLine {
    /// Stream ended with no pending bytes.
    Eof,
    /// The line exceeded the byte cap; its remainder was drained.
    TooLong,
    /// A complete line (terminator stripped) is in the buffer.
    Line,
}

/// Reads one `\n`-terminated line as raw bytes — no UTF-8 requirement,
/// so a client splicing garbage into the stream degrades one request
/// instead of killing the session. Caps the buffered length at `max`
/// while still consuming the oversized remainder, keeping the line
/// framing intact for the next read. Strips a trailing `\r`.
fn read_raw_line<R: BufRead>(
    input: &mut R,
    max: Option<usize>,
    buf: &mut Vec<u8>,
) -> std::io::Result<RawLine> {
    buf.clear();
    let mut overflowed = false;
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if overflowed {
                RawLine::TooLong
            } else if buf.is_empty() {
                RawLine::Eof
            } else {
                strip_cr(buf);
                RawLine::Line
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        if !overflowed {
            buf.extend_from_slice(newline.and_then(|n| chunk.get(..n)).unwrap_or(chunk));
            if let Some(cap) = max {
                if buf.len() > cap {
                    buf.truncate(cap);
                    overflowed = true;
                }
            }
        }
        let consumed = newline.map_or(chunk.len(), |n| n + 1);
        input.consume(consumed);
        if newline.is_some() {
            return Ok(if overflowed {
                RawLine::TooLong
            } else {
                strip_cr(buf);
                RawLine::Line
            });
        }
    }
}

fn strip_cr(buf: &mut Vec<u8>) {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
}

/// The request the service was simulating when it last paused, rebuilt
/// from the frame log: enough to resume without replaying the finished
/// periods.
struct Inflight {
    /// 1-based ordinal of the request line within the session.
    ordinal: u64,
    /// The raw request line, echoed to detect a drifted session.
    line: String,
    /// The last complete frame's live state with every lane's records
    /// concatenated across frames.
    checkpoint: BatchCheckpoint,
    /// Bytes of the log up to the end of that frame.
    log_len: u64,
}

/// Opens every frame of the in-flight log. It changes whenever the
/// frame layout or the live-state JSON changes shape, so a log left by
/// an older release fails the check and its request restarts fresh.
const FRAME_MAGIC: [u8; 8] = *b"HELIOFR3";

/// Bytes of a frame's fixed header: [`FRAME_MAGIC`], then seven
/// little-endian `u64`s: ordinal, first period of the frame's records,
/// next period, lanes, line bytes, live-state bytes and record-block
/// bytes.
const FRAME_HEADER: usize = 8 + 7 * 8;

/// One frame of the in-flight log, split but not yet decoded. After
/// the header come the request line, the live state (the
/// [`BatchCheckpoint`] JSON with every lane's `periods` empty) and the
/// record block: lane after lane, the [`PeriodLog`] bytes of the
/// `next - from` records that lane finished since the previous frame.
struct Frame<'a> {
    ordinal: u64,
    line: &'a str,
    from: usize,
    live: BatchCheckpoint,
    /// The record block, read by [`extend_lanes`].
    records: &'a [u8],
    /// Encoded length of the whole frame.
    len: usize,
}

impl<'a> Frame<'a> {
    /// Splits the frame at the start of `bytes`. `None` when the bytes
    /// are short, the magic is wrong, a length or period does not fit,
    /// or the live state does not parse or match the header — never a
    /// panic.
    fn decode(bytes: &'a [u8]) -> Option<Self> {
        let (magic, mut rest) = bytes.split_first_chunk::<8>()?;
        if *magic != FRAME_MAGIC {
            return None;
        }
        let mut words = [0u64; 7];
        for w in &mut words {
            let (b, r) = rest.split_first_chunk::<8>()?;
            *w = u64::from_le_bytes(*b);
            rest = r;
        }
        let [ordinal, from, next, lanes, line_len, live_len, records_len] = words;
        let count = |x: u64| usize::try_from(x).ok();
        let (from, next, lanes) = (count(from)?, count(next)?, count(lanes)?);
        let (line, rest) = rest.split_at_checked(count(line_len)?)?;
        let (live, rest) = rest.split_at_checked(count(live_len)?)?;
        let (records, _) = rest.split_at_checked(count(records_len)?)?;
        let len = FRAME_HEADER + line.len() + live.len() + records.len();
        let line = std::str::from_utf8(line).ok()?;
        let live: BatchCheckpoint = serde_json::from_str(std::str::from_utf8(live).ok()?).ok()?;
        if from > next
            || live.next_period != next
            || live.len() != lanes
            || live.planners.len() != lanes
        {
            return None;
        }
        Some(Self {
            ordinal,
            line,
            from,
            live,
            records,
            len,
        })
    }

    /// Encodes the frame of a pause into `out`: `ckpt`'s live state and
    /// every lane's records from `from` to `ckpt.next_period`, which
    /// start at byte `marks[lane]` of that lane's log (byte 0 when
    /// `from` is 0). `json` is scratch for the live state.
    fn encode(
        out: &mut Vec<u8>,
        json: &mut String,
        ordinal: u64,
        line: &str,
        from: usize,
        marks: &[usize],
        ckpt: &BatchCheckpoint,
    ) -> Result<(), FleetError> {
        let next = ckpt.next_period;
        let live = BatchCheckpoint {
            next_period: next,
            scenarios: ckpt
                .scenarios
                .iter()
                .map(ScenarioCheckpoint::live_state)
                .collect(),
            planners: ckpt.planners.clone(),
        };
        json.clear();
        live.serialize_json(json);
        let blocks = ckpt
            .scenarios
            .iter()
            .enumerate()
            .map(|(lane, sc)| {
                let log = sc.periods();
                let mark = marks.get(lane).copied().or((from == 0).then_some(0));
                match mark.and_then(|m| log.as_bytes().get(m..)) {
                    Some(new) if log.len() == next && from <= next => Ok(new),
                    _ => Err(FleetError::Engine(format!(
                        "lane {lane} at period {next} holds {} records, expected {next} after \
                         period {from}",
                        log.len()
                    ))),
                }
            })
            .collect::<Result<Vec<&[u8]>, _>>()?;
        out.clear();
        out.extend_from_slice(&FRAME_MAGIC);
        let header = [
            ordinal,
            from as u64,
            next as u64,
            ckpt.len() as u64,
            line.len() as u64,
            json.len() as u64,
            blocks.iter().map(|b| b.len() as u64).sum(),
        ];
        for w in header {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(line.as_bytes());
        out.extend_from_slice(json.as_bytes());
        for block in blocks {
            out.extend_from_slice(block);
        }
        Ok(())
    }
}

/// Continues every lane's log with its part of a frame's record block,
/// `per_lane` records each. `None`, with `logs` unchanged, when the
/// block is not exactly that many records per lane continuing each
/// log: a frame is taken whole or not at all.
fn extend_lanes(logs: &[PeriodLog], block: &[u8], per_lane: usize) -> Option<Vec<PeriodLog>> {
    let mut at = 0;
    let grown = logs
        .iter()
        .map(|log| {
            let mut log = log.clone();
            at += log.extend_encoded(block.get(at..)?, per_lane).ok()?;
            Some(log)
        })
        .collect::<Option<Vec<_>>>()?;
    (at == block.len()).then_some(grown)
}

/// Crash-safe session persistence under one directory:
///
/// * `session.json` counts the fully answered request lines. It is
///   rewritten through a temp file and a rename after each line, so a
///   crash mid-write leaves the previous count.
/// * `inflight.log` is the append-only frame log of the request in
///   flight (see [`Frame`]). Each pause appends one frame with a single
///   write on a handle held open for the whole request, so every
///   finished period is written once; the log is removed when the line
///   is answered.
///
/// Nothing is synced to disk: the crash model is process death (chaos
/// kill, SIGTERM drain, panic quarantine), after which the log holds a
/// prefix of what was written. A torn or garbage tail falls back to the
/// last complete frame.
struct SessionStore {
    dir: PathBuf,
    /// The open log of the request in flight, once it has paused.
    log: Option<FrameLog>,
    /// Frame assembly buffers, reused across pauses.
    frame: Vec<u8>,
    json: String,
}

/// The in-flight request's open frame log.
struct FrameLog {
    file: std::fs::File,
    /// Ordinal of the request the log belongs to.
    ordinal: u64,
    /// Next period of the last frame written: where the next frame's
    /// records start.
    through: usize,
    /// Each lane's encoded log bytes at `through` (empty before the
    /// first frame).
    marks: Vec<usize>,
}

impl SessionStore {
    fn new(dir: &Path) -> Result<Self, FleetError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| FleetError::Config(format!("checkpoint dir {}: {e}", dir.display())))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            log: None,
            frame: Vec::new(),
            json: String::new(),
        })
    }

    fn session_path(&self) -> PathBuf {
        self.dir.join("session.json")
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join("inflight.log")
    }

    /// Count of fully answered request lines; zero when the state is
    /// absent or unreadable (a torn write loses at most one line of
    /// progress, never the session).
    fn load_completed(&self) -> u64 {
        let Ok(text) = std::fs::read_to_string(self.session_path()) else {
            return 0;
        };
        serde_json::parse_value(&text)
            .ok()
            .and_then(|v| v.field("completed").ok().map(u64::deserialize_json))
            .and_then(Result::ok)
            .unwrap_or(0)
    }

    fn save_completed(&self, completed: u64) -> Result<(), FleetError> {
        let path = self.session_path();
        let tmp = self.dir.join("session.json.tmp");
        std::fs::write(&tmp, format!("{{\"completed\":{completed}}}"))?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads the log's frames in order, stopping at the first frame
    /// that is torn, malformed or does not continue its predecessor
    /// (same request, records starting at the previous next period).
    /// `None` when no frame is complete.
    fn load_inflight(&self) -> Option<Inflight> {
        let bytes = std::fs::read(self.log_path()).ok()?;
        let first = Frame::decode(&bytes).filter(|f| f.from == 0)?;
        let (ordinal, line) = (first.ordinal, first.line);
        let mut records = extend_lanes(
            &vec![PeriodLog::new(); first.live.len()],
            first.records,
            first.live.next_period,
        )?;
        let mut at = first.len;
        let mut live = first.live;
        while let Some(frame) = bytes.get(at..).and_then(Frame::decode) {
            if frame.ordinal != ordinal
                || frame.line != line
                || frame.from != live.next_period
                || frame.live.len() != records.len()
            {
                break;
            }
            let per_lane = frame.live.next_period - frame.from;
            let Some(grown) = extend_lanes(&records, frame.records, per_lane) else {
                break;
            };
            records = grown;
            live = frame.live;
            at += frame.len;
        }
        Some(Inflight {
            ordinal,
            line: line.to_string(),
            checkpoint: BatchCheckpoint {
                next_period: live.next_period,
                scenarios: live
                    .scenarios
                    .into_iter()
                    .zip(records)
                    .map(|(sc, r)| sc.with_periods(r))
                    .collect(),
                planners: live.planners,
            },
            log_len: at as u64,
        })
    }

    /// Reopens the log of a resumed request, cut back to its last
    /// complete frame before anything more is appended.
    fn resume_log(&mut self, inflight: &Inflight) -> Result<(), FleetError> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(self.log_path())?;
        file.set_len(inflight.log_len)?;
        self.log = Some(FrameLog {
            file,
            ordinal: inflight.ordinal,
            through: inflight.checkpoint.next_period,
            marks: lane_marks(&inflight.checkpoint),
        });
        Ok(())
    }

    /// Appends the frame of a pause of request `ordinal`, starting a new
    /// log (truncating any stale one) at the request's first pause.
    /// Returns once the frame is written. After a failed write the log
    /// is dropped, so the next pause starts a fresh log with every
    /// record from period 0.
    fn append_frame(
        &mut self,
        ordinal: u64,
        line: &str,
        ckpt: &BatchCheckpoint,
    ) -> Result<(), FleetError> {
        let mut log = match self.log.take() {
            Some(log) if log.ordinal == ordinal => log,
            _ => FrameLog {
                file: std::fs::File::create(self.log_path())?,
                ordinal,
                through: 0,
                marks: Vec::new(),
            },
        };
        Frame::encode(
            &mut self.frame,
            &mut self.json,
            ordinal,
            line,
            log.through,
            &log.marks,
            ckpt,
        )?;
        log.file.write_all(&self.frame)?;
        log.through = ckpt.next_period;
        log.marks = lane_marks(ckpt);
        self.log = Some(log);
        Ok(())
    }

    fn clear_inflight(&mut self) {
        self.log = None;
        let _ = std::fs::remove_file(self.log_path());
    }
}

/// Each lane's encoded log bytes in `ckpt`.
fn lane_marks(ckpt: &BatchCheckpoint) -> Vec<usize> {
    ckpt.scenarios
        .iter()
        .map(|sc| sc.periods().as_bytes().len())
        .collect()
}

fn opt<T: Deserialize>(v: &Value, name: &str) -> Result<Option<T>, serde::DeError> {
    match v.field(name) {
        Ok(Value::Null) | Err(_) => Ok(None),
        Ok(inner) => Ok(Some(T::deserialize_json(inner)?)),
    }
}

/// Grid dimensions of every scenario the service simulates.
#[derive(Debug, Clone, Copy)]
pub struct GridSpec {
    /// Days per scenario.
    pub days: usize,
    /// Periods per day.
    pub periods: usize,
    /// Slots per period.
    pub slots: usize,
    /// Slot duration in seconds.
    pub slot_seconds: f64,
}

impl Deserialize for GridSpec {
    fn deserialize_json(v: &Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            days: usize::deserialize_json(v.field("days")?)?,
            periods: usize::deserialize_json(v.field("periods")?)?,
            slots: usize::deserialize_json(v.field("slots")?)?,
            slot_seconds: opt(v, "slot_seconds")?.unwrap_or(60.0),
        })
    }
}

/// How (and whether) to train the shared DBN at startup: the optimal
/// planner generates training samples on a dedicated trace, exactly
/// like the offline phase of the paper.
#[derive(Debug, Clone)]
pub struct DbnSpec {
    /// Seed of the training trace.
    pub seed: u64,
    /// Training-trace day archetypes; cycled to the grid's day count
    /// when shorter. Empty means the four standard archetypes.
    pub days: Vec<DayArchetype>,
    /// Backprop epochs (the paper-scale default is slow; fleet
    /// configs typically lower it).
    pub bp_epochs: usize,
}

impl Deserialize for DbnSpec {
    fn deserialize_json(v: &Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            seed: opt(v, "seed")?.unwrap_or(11),
            days: opt(v, "days")?.unwrap_or_default(),
            bp_epochs: opt(v, "bp_epochs")?.unwrap_or(150),
        })
    }
}

/// How to distil the shared DBN into the branch-free decision artifact
/// at startup (requires `dbn`). The artifact is validated as an asset
/// file's load would validate it; its JSON form round-trips exactly,
/// so what the service serves is what a deployed artifact would decide.
#[derive(Debug, Clone)]
pub struct DistillSpec {
    /// Seed of the distillation sampling streams.
    pub seed: u64,
    /// Tree levels splitting on the run-constant feature prefix.
    pub depth_const: usize,
    /// Tree levels splitting on the per-decision features.
    pub depth_vary: usize,
    /// Box samples drawn over the teacher's fitted input range.
    pub samples: usize,
    /// Held-out samples for the recorded teacher-agreement rate.
    pub holdout: usize,
}

impl Deserialize for DistillSpec {
    fn deserialize_json(v: &Value) -> Result<Self, serde::DeError> {
        let defaults = DistillConfig::small(0);
        Ok(Self {
            seed: opt(v, "seed")?.unwrap_or(11),
            depth_const: opt(v, "depth_const")?.unwrap_or(defaults.depth_const),
            depth_vary: opt(v, "depth_vary")?.unwrap_or(defaults.depth_vary),
            samples: opt(v, "samples")?.unwrap_or(defaults.samples),
            holdout: opt(v, "holdout")?.unwrap_or(defaults.holdout),
        })
    }
}

/// First protocol line: everything the service derives once and reuses
/// for every request.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Grid dimensions.
    pub grid: GridSpec,
    /// Capacitor bank, in farads.
    pub capacitors_farads: Vec<f64>,
    /// Task benchmark: `random1..random3`, `wam`, `ecg`, `shm`.
    pub benchmark: String,
    /// Pattern-selection threshold `δ` for planner-driven scenarios.
    pub delta: f64,
    /// DP resolution for `optimal` / `mpc` scenarios.
    pub dp: DpConfig,
    /// Train a shared DBN at startup (required by `dbn` scenarios).
    pub dbn: Option<DbnSpec>,
    /// Distil the shared DBN into the branch-free artifact at startup
    /// (required by `distilled` scenarios; itself requires `dbn`).
    pub distill: Option<DistillSpec>,
    /// Worker count; defaults to the configured `helio-par` pool.
    pub threads: Option<usize>,
}

impl Deserialize for FleetConfig {
    fn deserialize_json(v: &Value) -> Result<Self, serde::DeError> {
        let dp = match v.field("dp") {
            Ok(d) if !matches!(d, Value::Null) => DpConfig {
                voltage_buckets: opt(d, "voltage_buckets")?.unwrap_or(6),
                keep_per_level: opt(d, "keep_per_level")?.unwrap_or(1),
            },
            _ => DpConfig {
                voltage_buckets: 6,
                keep_per_level: 1,
            },
        };
        Ok(Self {
            grid: GridSpec::deserialize_json(v.field("grid")?)?,
            capacitors_farads: Vec::deserialize_json(v.field("capacitors_farads")?)?,
            benchmark: opt(v, "benchmark")?.unwrap_or_else(|| "ecg".to_string()),
            delta: opt(v, "delta")?.unwrap_or(0.5),
            dp,
            dbn: opt(v, "dbn")?,
            distill: opt(v, "distill")?,
            threads: opt(v, "threads")?,
        })
    }
}

/// One scenario of a request.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Trace seed.
    pub seed: u64,
    /// Day archetypes; cycled to the grid's day count when shorter,
    /// empty means the four standard archetypes.
    pub days: Vec<DayArchetype>,
    /// Planner kind: `asap`, `inter`, `intra`, `dbn`, `compiled-dbn`,
    /// `compiled-dbn-i8`, `distilled`, `mpc`, `optimal`. The compiled
    /// kinds run the shared DBN through the packed single-sample fast
    /// path (tolerance-gated, not bit-identical to `dbn`); `distilled`
    /// runs the branch-free artifact with the compiled `f32` network
    /// as its fallback tier (agreement-gated against the teacher).
    pub planner: String,
    /// Capacitor a fixed-pattern planner locks to; defaults to 0 for
    /// `asap`, the largest capacitor otherwise.
    pub capacitor: Option<usize>,
    /// Wrap the planner in a [`ResilientPlanner`].
    pub resilient: bool,
    /// Fault plan to inject, if any.
    pub faults: Option<FaultPlan>,
}

impl Deserialize for ScenarioSpec {
    fn deserialize_json(v: &Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            seed: opt(v, "seed")?.unwrap_or(0),
            days: opt(v, "days")?.unwrap_or_default(),
            planner: opt(v, "planner")?.unwrap_or_else(|| "inter".to_string()),
            capacitor: opt(v, "capacitor")?,
            resilient: opt(v, "resilient")?.unwrap_or(false),
            faults: opt(v, "faults")?,
        })
    }
}

/// One request line: a batch of scenarios simulated in lockstep.
#[derive(Debug, Clone)]
pub struct FleetRequest {
    /// Echoed back on every response line of this request.
    pub id: u64,
    /// The scenarios to simulate.
    pub scenarios: Vec<ScenarioSpec>,
}

impl Deserialize for FleetRequest {
    fn deserialize_json(v: &Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            id: opt(v, "id")?.unwrap_or(0),
            scenarios: Vec::deserialize_json(v.field("scenarios")?)?,
        })
    }
}

/// Cycles `days` (or the four standard archetypes when empty) to
/// exactly `want` entries.
fn cycle_days(days: &[DayArchetype], want: usize) -> Vec<DayArchetype> {
    let base: &[DayArchetype] = if days.is_empty() {
        &DayArchetype::ALL
    } else {
        days
    };
    base.iter().copied().cycle().take(want).collect()
}

/// The long-lived service state: node, task set, plan context, shared
/// DBN and per-worker scratches, all derived once at startup and
/// reused by every request.
pub struct FleetService {
    node: NodeConfig,
    graph: TaskGraph,
    ctx: Arc<PlanContext>,
    dbn: Option<Arc<Dbn>>,
    /// Both compiled tiers of the shared DBN, built once at startup —
    /// every `compiled-dbn`/`compiled-dbn-i8` scenario clones the
    /// `Arc`, never the packed weights.
    compiled_f32: Option<Arc<CompiledDbn>>,
    compiled_i8: Option<Arc<CompiledDbn>>,
    /// The handle carrying the distilled decision artifact (distilled
    /// and validated at startup, reachable as `distilled.policy()`):
    /// every `distilled` scenario of every request shares it, so the
    /// engine serves a request's distilled lanes in one batched call
    /// per shard and period.
    distilled: Option<Arc<FoldTable>>,
    delta: f64,
    dp: DpConfig,
    scratches: Vec<BatchScratch>,
    requests_served: u64,
    scenarios_served: u64,
}

impl FleetService {
    /// Builds the service from the first protocol line: validates the
    /// grid and node, resolves the benchmark, derives the shared
    /// [`PlanContext`], trains the shared DBN when configured, and
    /// allocates one [`BatchScratch`] per worker.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Config`] for an unusable configuration.
    pub fn new(cfg: &FleetConfig) -> Result<Self, FleetError> {
        let grid = TimeGrid::new(
            cfg.grid.days,
            cfg.grid.periods,
            cfg.grid.slots,
            Seconds::new(cfg.grid.slot_seconds),
        )
        .map_err(|e| FleetError::Config(e.to_string()))?;
        if cfg.capacitors_farads.is_empty() {
            return Err(FleetError::Config("capacitors_farads is empty".into()));
        }
        let caps: Vec<Farads> = cfg
            .capacitors_farads
            .iter()
            .map(|&f| Farads::new(f))
            .collect();
        let node = NodeConfig::builder(grid)
            .capacitors(&caps)
            .build()
            .map_err(|e| FleetError::Config(e.to_string()))?;
        let graph = benchmark_by_name(&cfg.benchmark)?;
        graph
            .validate(grid.period_duration())
            .map_err(|e| FleetError::Config(e.to_string()))?;
        let ctx = Arc::new(
            PlanContext::new(&graph, grid.slot_duration())
                .map_err(|e| FleetError::Config(e.to_string()))?,
        );
        let dbn = match &cfg.dbn {
            Some(spec) => Some(Arc::new(train_dbn(&node, &graph, cfg, spec)?)),
            None => None,
        };
        let compile = |tier| -> Result<Option<Arc<CompiledDbn>>, FleetError> {
            dbn.as_deref()
                .map(|d| {
                    CompiledDbn::compile(d, tier)
                        .map(Arc::new)
                        .map_err(|e| FleetError::Config(e.to_string()))
                })
                .transpose()
        };
        let compiled_f32 = compile(CompiledTier::F32)?;
        let compiled_i8 = compile(CompiledTier::Int8)?;
        let distilled = match (&cfg.distill, dbn.as_deref()) {
            (Some(spec), Some(teacher)) => {
                let mut dcfg = DistillConfig::small(spec.seed);
                dcfg.depth_const = spec.depth_const;
                dcfg.depth_vary = spec.depth_vary;
                dcfg.samples = spec.samples;
                dcfg.holdout = spec.holdout;
                let const_prefix = grid.slots_per_period().min(teacher.input_dim());
                let policy = DistilledPolicy::distill(teacher, const_prefix, &[], &dcfg)
                    .map_err(|e| FleetError::Config(format!("distillation failed: {e}")))?;
                // The checks an asset file's load would make. The JSON
                // form round-trips exactly (`distilled_artifact_round_trips`),
                // so the served artifact is the one a pre-built asset
                // file would load.
                policy
                    .validate()
                    .map_err(|e| FleetError::Config(format!("invalid artifact: {e}")))?;
                Some(Arc::new(policy))
            }
            (Some(_), None) => {
                return Err(FleetError::Config(
                    "`distill` requires a `dbn` spec to provide the teacher".into(),
                ))
            }
            (None, _) => None,
        };
        let distilled = distilled.map(|p| Arc::new(FoldTable::new(p, FoldTable::DEFAULT_CAPACITY)));
        let workers = cfg
            .threads
            .unwrap_or_else(helio_par::configured_threads)
            .max(1);
        let mut scratches = Vec::new();
        scratches.resize_with(workers, BatchScratch::default);
        Ok(Self {
            node,
            graph,
            ctx,
            dbn,
            compiled_f32,
            compiled_i8,
            distilled,
            delta: cfg.delta,
            dp: cfg.dp,
            scratches,
            requests_served: 0,
            scenarios_served: 0,
        })
    }

    /// Worker (and scratch) count.
    pub fn workers(&self) -> usize {
        self.scratches.len()
    }

    /// Requests handled so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Scenarios simulated so far.
    pub fn scenarios_served(&self) -> u64 {
        self.scenarios_served
    }

    /// Simulates one request as a sharded lockstep batch, reusing the
    /// plan context and per-worker scratches; reports come back in
    /// scenario order, byte-identical to sequential engine runs. A
    /// scenario whose worker panics is quarantined and surfaces as an
    /// [`FleetError::Engine`]; [`serve_with`] instead degrades it to a
    /// per-scenario error line.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Protocol`] for an invalid scenario spec
    /// and [`FleetError::Engine`] when the engine rejects one.
    pub fn handle(&mut self, req: &FleetRequest) -> Result<Vec<SimReport>, FleetError> {
        match self.handle_with(req, None, None, None, None, None, &mut |_| Ok(()))? {
            RequestDisposition::Answered(results) => results
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(FleetError::Engine),
            // Unreachable without a deadline/kill/shutdown input.
            _ => Err(FleetError::Engine(
                "request paused without a pause input".into(),
            )),
        }
    }

    /// The robust request path behind [`serve_with`]: runs the batch
    /// in period-boundary segments so the service can checkpoint,
    /// honour a wall-clock deadline, die on cue for the chaos harness
    /// or drain for shutdown — and quarantines a panicking scenario by
    /// re-running the batch one scenario at a time from the last good
    /// checkpoint.
    ///
    /// `segment == None` runs the whole request as one span (the
    /// legacy byte-identical fast path, modulo a `resume` checkpoint).
    /// `on_checkpoint` fires at every pause *before* the pause is
    /// acted on, so a kill never outruns its persisted state.
    #[allow(clippy::too_many_arguments)]
    fn handle_with(
        &mut self,
        req: &FleetRequest,
        resume: Option<BatchCheckpoint>,
        segment: Option<usize>,
        deadline: Option<Instant>,
        kill_period: Option<usize>,
        shutdown: Option<&AtomicBool>,
        on_checkpoint: &mut dyn FnMut(&BatchCheckpoint) -> Result<(), FleetError>,
    ) -> Result<RequestDisposition, FleetError> {
        let total = self.node.grid.total_periods();
        let periods_per_day = self.node.grid.periods_per_day();
        let (built, lane_trace) = distinct_traces(self.node.grid, &req.scenarios);
        let traces: Vec<&SolarTrace> = lane_trace
            .iter()
            .map(|&k| built.get(k))
            .collect::<Option<_>>()
            .ok_or_else(|| FleetError::Engine("lane trace index out of range".into()))?;
        let harnesses: Vec<Option<FaultHarness>> = req
            .scenarios
            .iter()
            .map(|s| {
                s.faults
                    .as_ref()
                    .map(|plan| FaultHarness::new(plan, total, periods_per_day))
            })
            .collect();

        // Split the borrows: the engine borrows node/graph/ctx
        // immutably while the run needs the scratches mutably.
        let Self {
            node,
            graph,
            ctx,
            dbn,
            compiled_f32,
            compiled_i8,
            distilled,
            delta,
            dp,
            scratches,
            requests_served,
            scenarios_served,
        } = self;
        let compiled = CompiledHandles {
            f32: compiled_f32.as_ref(),
            i8: compiled_i8.as_ref(),
            distilled: distilled.as_ref(),
        };
        let seg = segment.unwrap_or(total).max(1);
        let mut ckpt = resume;
        loop {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(RequestDisposition::Deadline);
            }
            let at = ckpt.as_ref().map_or(0, |c| c.next_period);
            let seg_end = (at + seg).min(total);
            let kill_now = kill_period
                .map(|k| k.min(total))
                .filter(|&k| at <= k && k <= seg_end);
            let stop = match kill_now {
                Some(k) => Some(k),
                None if seg_end >= total => None,
                None => Some(seg_end),
            };
            let mut engine = build_engine(
                node,
                graph,
                ctx,
                dbn.as_ref(),
                compiled,
                *delta,
                *dp,
                req,
                &traces,
                &harnesses,
                None,
            )?;
            let state = match engine.run_span_with(ckpt.as_ref(), stop, scratches) {
                Ok(state) => state,
                Err(CoreError::WorkerPanic(_)) => {
                    // One scenario poisoned its shard. Re-run the batch
                    // one scenario at a time from the last good
                    // checkpoint: healthy scenarios finish normally,
                    // the poisoned one degrades to a per-scenario
                    // error. Isolation runs to completion — a chaos
                    // kill or deadline no longer interrupts it.
                    drop(engine);
                    let results = run_isolated(
                        node,
                        graph,
                        ctx,
                        dbn.as_ref(),
                        compiled,
                        *delta,
                        *dp,
                        req,
                        &traces,
                        &harnesses,
                        ckpt.as_ref(),
                    )?;
                    *requests_served += 1;
                    *scenarios_served += results.len() as u64;
                    return Ok(RequestDisposition::Answered(results));
                }
                Err(e) => return Err(e.into()),
            };
            match state {
                BatchRunState::Done(reports) => {
                    *requests_served += 1;
                    *scenarios_served += reports.len() as u64;
                    return Ok(RequestDisposition::Answered(
                        reports.into_iter().map(Ok).collect(),
                    ));
                }
                BatchRunState::Paused(c) => {
                    on_checkpoint(&c)?;
                    let period = c.next_period;
                    if kill_now.is_some() {
                        return Ok(RequestDisposition::Killed(period));
                    }
                    if shutdown.is_some_and(|s| s.load(Ordering::SeqCst)) {
                        return Ok(RequestDisposition::ShutdownMidRequest);
                    }
                    ckpt = Some(c);
                }
            }
        }
    }
}

/// How [`FleetService::handle_with`] left a request.
enum RequestDisposition {
    /// Per-scenario results, in scenario order; a quarantined panic
    /// becomes that scenario's error message.
    Answered(Vec<Result<SimReport, String>>),
    /// The wall-clock deadline expired before the request finished.
    Deadline,
    /// The chaos plan killed the service at this period boundary
    /// (checkpoint already persisted via the callback).
    Killed(usize),
    /// The shutdown flag was raised at a period boundary; the
    /// checkpoint callback has already persisted the frozen state.
    ShutdownMidRequest,
}

/// Builds each distinct `(seed, days)` trace of `scenarios` once and
/// returns the traces with, per scenario, the index of its trace: every
/// lane that asks for a trace borrows the one copy. Traces are pure
/// functions of the grid, seed and cycled days, so sharing changes no
/// report byte.
fn distinct_traces(grid: TimeGrid, scenarios: &[ScenarioSpec]) -> (Vec<SolarTrace>, Vec<usize>) {
    let mut index: HashMap<(u64, Vec<DayArchetype>), usize> = HashMap::new();
    let mut traces = Vec::new();
    let lanes = scenarios
        .iter()
        .map(|s| {
            let key = (s.seed, cycle_days(&s.days, grid.days()));
            *index.entry(key).or_insert_with_key(|(seed, days)| {
                traces.push(
                    TraceBuilder::new(grid, SolarPanel::paper_panel())
                        .seed(*seed)
                        .days(days)
                        .build(),
                );
                traces.len() - 1
            })
        })
        .collect();
    (traces, lanes)
}

/// Builds a fresh engine over `req`'s scenarios (or just scenario
/// `only`), reusing the shared plan context; the planners are rebuilt
/// from the specs and restored from a checkpoint by the caller's
/// `run_span_with`.
#[allow(clippy::too_many_arguments)]
fn build_engine<'a>(
    node: &'a NodeConfig,
    graph: &'a TaskGraph,
    ctx: &Arc<PlanContext>,
    dbn: Option<&Arc<Dbn>>,
    compiled: CompiledHandles<'_>,
    delta: f64,
    dp: DpConfig,
    req: &FleetRequest,
    traces: &[&'a SolarTrace],
    harnesses: &'a [Option<FaultHarness>],
    only: Option<usize>,
) -> Result<BatchEngine<'a>, FleetError> {
    let mut engine = BatchEngine::with_context(node, graph, Arc::clone(ctx))?;
    let lanes = req.scenarios.iter().zip(traces).zip(harnesses);
    for (i, ((spec, &trace), harness)) in lanes.enumerate() {
        if only.is_some_and(|o| o != i) {
            continue;
        }
        let planner = make_planner(spec, node, graph, trace, dbn, compiled, delta, dp)?;
        let mut scenario = BatchScenario::new(trace, planner);
        if let Some(h) = harness {
            scenario = scenario.with_harness(h);
        }
        engine.push(scenario)?;
    }
    Ok(engine)
}

/// Panic quarantine fallback: runs each scenario of `req` alone from
/// the (optional) last good batch checkpoint. Healthy scenarios
/// produce their normal report — byte-identical to the lockstep batch
/// — while the panicking one is caught by the worker-pool quarantine
/// again and degrades to its own error string.
#[allow(clippy::too_many_arguments)]
fn run_isolated<'a>(
    node: &'a NodeConfig,
    graph: &'a TaskGraph,
    ctx: &Arc<PlanContext>,
    dbn: Option<&Arc<Dbn>>,
    compiled: CompiledHandles<'_>,
    delta: f64,
    dp: DpConfig,
    req: &FleetRequest,
    traces: &[&'a SolarTrace],
    harnesses: &'a [Option<FaultHarness>],
    resume: Option<&BatchCheckpoint>,
) -> Result<Vec<Result<SimReport, String>>, FleetError> {
    let mut results = Vec::with_capacity(req.scenarios.len());
    for i in 0..req.scenarios.len() {
        let one = || -> Result<SimReport, FleetError> {
            let sub = match resume {
                None => None,
                Some(c) => match (c.scenarios.get(i), c.planners.get(i)) {
                    (Some(scenario), Some(planner)) => Some(BatchCheckpoint {
                        next_period: c.next_period,
                        scenarios: vec![scenario.clone()],
                        planners: vec![planner.clone()],
                    }),
                    _ => return Err(FleetError::Engine(format!("checkpoint holds no lane {i}"))),
                },
            };
            let mut engine = build_engine(
                node,
                graph,
                ctx,
                dbn,
                compiled,
                delta,
                dp,
                req,
                traces,
                harnesses,
                Some(i),
            )?;
            let mut scratch = BatchScratch::default();
            match engine.run_span_with(sub.as_ref(), None, std::slice::from_mut(&mut scratch))? {
                BatchRunState::Done(mut reports) => reports
                    .pop()
                    .ok_or_else(|| FleetError::Engine("isolated run produced no report".into())),
                BatchRunState::Paused(_) => Err(FleetError::Engine(
                    "isolated run paused unexpectedly".into(),
                )),
            }
        };
        results.push(one().map_err(|e| e.to_string()));
    }
    Ok(results)
}

fn benchmark_by_name(name: &str) -> Result<TaskGraph, FleetError> {
    match name {
        "wam" => Ok(benchmarks::wam()),
        "ecg" => Ok(benchmarks::ecg()),
        "shm" => Ok(benchmarks::shm()),
        "random1" => Ok(benchmarks::random_case(1)),
        "random2" => Ok(benchmarks::random_case(2)),
        "random3" => Ok(benchmarks::random_case(3)),
        other => Err(FleetError::Config(format!(
            "unknown benchmark `{other}` (expected random1..random3, wam, ecg, shm)"
        ))),
    }
}

/// Offline phase at startup: compute the optimal planner on the
/// training trace and train the DBN from its recorded samples.
fn train_dbn(
    node: &NodeConfig,
    graph: &TaskGraph,
    cfg: &FleetConfig,
    spec: &DbnSpec,
) -> Result<Dbn, FleetError> {
    let trace = TraceBuilder::new(node.grid, SolarPanel::paper_panel())
        .seed(spec.seed)
        .days(&cycle_days(&spec.days, node.grid.days()))
        .build();
    let optimal = OptimalPlanner::compute(node, graph, &trace, &cfg.dp, cfg.delta)?;
    let mut dbn_cfg = DbnConfig::small(spec.seed);
    dbn_cfg.bp_epochs = spec.bp_epochs;
    Dbn::train_set(optimal.samples(), &dbn_cfg).map_err(|e| FleetError::Config(e.to_string()))
}

/// The startup-compiled artifacts `make_planner` hands out to
/// `compiled-dbn`/`compiled-dbn-i8` scenarios.
#[derive(Clone, Copy)]
struct CompiledHandles<'a> {
    f32: Option<&'a Arc<CompiledDbn>>,
    i8: Option<&'a Arc<CompiledDbn>>,
    /// The service-wide handle carrying the distilled artifact
    /// `distilled` scenarios run (with `f32` as the next tier down);
    /// every scenario shares the one table.
    distilled: Option<&'a Arc<FoldTable>>,
}

#[allow(clippy::too_many_arguments)]
fn make_planner(
    spec: &ScenarioSpec,
    node: &NodeConfig,
    graph: &TaskGraph,
    trace: &SolarTrace,
    dbn: Option<&Arc<Dbn>>,
    compiled: CompiledHandles<'_>,
    delta: f64,
    dp: DpConfig,
) -> Result<Box<dyn PeriodPlanner + 'static>, FleetError> {
    let bank_len = node.capacitor_count();
    let default_cap = |pattern: Pattern| match pattern {
        Pattern::Asap => 0,
        _ => bank_len.saturating_sub(1),
    };
    let cap_for = |pattern: Pattern| -> Result<usize, FleetError> {
        let c = spec.capacitor.unwrap_or_else(|| default_cap(pattern));
        if c >= bank_len {
            return Err(FleetError::Protocol(format!(
                "capacitor {c} out of range for a bank of {bank_len}"
            )));
        }
        Ok(c)
    };
    let inner: Box<dyn PeriodPlanner + 'static> = match spec.planner.as_str() {
        "asap" => Box::new(FixedPlanner::new(Pattern::Asap, cap_for(Pattern::Asap)?)),
        "inter" => Box::new(FixedPlanner::new(Pattern::Inter, cap_for(Pattern::Inter)?)),
        "intra" => Box::new(FixedPlanner::new(Pattern::Intra, cap_for(Pattern::Intra)?)),
        "dbn" => {
            let dbn = dbn.ok_or_else(|| {
                FleetError::Protocol(
                    "scenario requests the dbn planner but the fleet config trained no DBN".into(),
                )
            })?;
            Box::new(ProposedPlanner::from_shared_dbn(
                Arc::clone(dbn),
                delta,
                SwitchRule::default(),
            ))
        }
        kind @ ("compiled-dbn" | "compiled-dbn-i8") => {
            let artifact = match kind {
                "compiled-dbn" => compiled.f32,
                _ => compiled.i8,
            };
            let artifact = artifact.ok_or_else(|| {
                FleetError::Protocol(format!(
                    "scenario requests the {kind} planner but the fleet config trained no DBN"
                ))
            })?;
            Box::new(ProposedPlanner::from_compiled_dbn(
                Arc::clone(artifact),
                delta,
                SwitchRule::default(),
            ))
        }
        "distilled" => {
            let table = compiled.distilled.ok_or_else(|| {
                FleetError::Protocol(
                    "scenario requests the distilled planner but the fleet config has no \
                     `distill` spec"
                        .into(),
                )
            })?;
            let fallback = compiled.f32.ok_or_else(|| {
                FleetError::Protocol(
                    "scenario requests the distilled planner but the fleet config compiled no \
                     fallback DBN"
                        .into(),
                )
            })?;
            Box::new(ProposedPlanner::from_distilled_with_table(
                Arc::clone(table),
                Arc::clone(fallback),
                delta,
                SwitchRule::default(),
            ))
        }
        "mpc" => Box::new(MpcPlanner::new(
            Box::new(NoisyOracle::perfect()),
            node.grid.periods_per_day(),
            dp,
            delta,
            SwitchRule::default(),
        )),
        "optimal" => Box::new(OptimalPlanner::compute(node, graph, trace, &dp, delta)?),
        kind if kind.starts_with("chaos-panic:") => {
            let at: usize = kind["chaos-panic:".len()..].parse().map_err(|_| {
                FleetError::Protocol(format!(
                    "bad chaos-panic planner `{kind}` (expected chaos-panic:<period>)"
                ))
            })?;
            Box::new(ChaosPanicPlanner {
                inner: FixedPlanner::new(Pattern::Inter, cap_for(Pattern::Inter)?),
                at,
            })
        }
        other => {
            return Err(FleetError::Protocol(format!(
                "unknown planner `{other}` (expected asap, inter, intra, dbn, \
                 compiled-dbn, compiled-dbn-i8, distilled, mpc, optimal, chaos-panic:<period>)"
            )))
        }
    };
    Ok(if spec.resilient {
        Box::new(ResilientPlanner::new(inner))
    } else {
        inner
    })
}

/// Chaos-harness planner (`chaos-panic:K`): plans like the inter-task
/// fixed planner until flat period `K`, then panics inside its worker
/// — exercising the shard quarantine and the service's per-scenario
/// isolation fallback.
struct ChaosPanicPlanner {
    inner: FixedPlanner,
    at: usize,
}

impl PeriodPlanner for ChaosPanicPlanner {
    fn name(&self) -> &'static str {
        "chaos-panic"
    }

    #[allow(clippy::panic)]
    fn plan(&mut self, obs: &PlannerObservation<'_>) -> PlanDecision {
        if obs.grid.period_index(obs.period) == self.at {
            panic!("chaos: injected planner panic at period {}", self.at);
        }
        self.inner.plan(obs)
    }
}

/// Writes one response line per report: `{"id":N,"index":I,"report":…}`.
///
/// # Errors
///
/// Returns [`FleetError::Io`] when the transport fails.
pub fn write_reports<W: Write>(
    out: &mut W,
    id: u64,
    reports: &[SimReport],
) -> Result<(), FleetError> {
    write_lines(out, id, reports.iter().map(Ok))
}

/// Writes one line per scenario result: a report line, or — when that
/// scenario's worker panicked — `{"id":N,"index":I,"error":"…"}` so
/// the other scenarios of the batch still answer normally.
fn write_results<W: Write>(
    out: &mut W,
    id: u64,
    results: &[Result<SimReport, String>],
) -> Result<(), FleetError> {
    write_lines(
        out,
        id,
        results.iter().map(|r| r.as_ref().map_err(String::as_str)),
    )
}

/// The line path behind [`write_reports`] and [`write_results`]: each
/// line is serialised straight into one reused buffer and written
/// whole, then the batch is flushed once.
fn write_lines<'a, W: Write>(
    out: &mut W,
    id: u64,
    lines: impl Iterator<Item = Result<&'a SimReport, &'a str>>,
) -> Result<(), FleetError> {
    let mut line = String::new();
    for (index, result) in lines.enumerate() {
        line.clear();
        line.push_str("{\"id\":");
        id.serialize_json(&mut line);
        line.push_str(",\"index\":");
        index.serialize_json(&mut line);
        match result {
            Ok(report) => {
                line.push_str(",\"report\":");
                report.serialize_json(&mut line);
            }
            Err(msg) => {
                line.push_str(",\"error\":");
                msg.serialize_json(&mut line);
            }
        }
        line.push_str("}\n");
        out.write_all(line.as_bytes())?;
    }
    out.flush()?;
    Ok(())
}

fn write_error<W: Write>(out: &mut W, id: Option<u64>, msg: &str) -> Result<(), FleetError> {
    let msg = serde_json::to_string(msg)
        .map_err(|e| FleetError::Engine(format!("error serialisation failed: {e}")))?;
    match id {
        Some(id) => writeln!(out, "{{\"id\":{id},\"error\":{msg}}}")?,
        None => writeln!(out, "{{\"error\":{msg}}}")?,
    }
    out.flush()?;
    Ok(())
}

/// Serves one session with the default [`ServeOptions`]: reads the
/// config line, then answers request lines until EOF. Per-request
/// failures (bad JSON, unknown planner) produce an error line and the
/// session continues; only transport failures and an unusable config
/// abort.
///
/// Returns the service (with its telemetry counters) once the peer
/// closes the stream.
///
/// # Errors
///
/// Returns [`FleetError::Config`]/[`FleetError::Protocol`] when the
/// first line is unusable and [`FleetError::Io`] when the transport
/// fails.
pub fn serve<R: BufRead, W: Write>(input: R, out: W) -> Result<FleetService, FleetError> {
    serve_with(input, out, &ServeOptions::default()).map(|summary| summary.service)
}

/// Marks a request line fully answered: advances the durable progress
/// counter and discards the now-stale mid-request checkpoint.
fn finish_line(store: Option<&mut SessionStore>, ordinal: u64) -> Result<(), FleetError> {
    if let Some(s) = store {
        s.save_completed(ordinal)?;
        s.clear_inflight();
    }
    Ok(())
}

/// Serves one session with service-level robustness: byte caps,
/// request-size caps, per-request wall-clock deadlines, crash-safe
/// checkpoint/resume, graceful shutdown and the chaos kill hook — see
/// [`ServeOptions`]. With the default options this is byte-identical
/// to [`serve`].
///
/// Request lines are counted by a 1-based ordinal (blank lines don't
/// count). When resuming from a checkpoint directory, lines whose
/// ordinal is already recorded as answered are skipped without
/// re-emitting their responses, so `cat` of the pre-crash and
/// post-restart outputs equals an uninterrupted session's output.
///
/// # Errors
///
/// Returns [`FleetError::Config`]/[`FleetError::Protocol`] when the
/// first line is unusable and [`FleetError::Io`] when the transport
/// fails; everything else degrades to inline error lines.
pub fn serve_with<R: BufRead, W: Write>(
    mut input: R,
    mut out: W,
    opts: &ServeOptions,
) -> Result<SessionSummary, FleetError> {
    let mut store = match &opts.checkpoint_dir {
        Some(dir) => Some(SessionStore::new(dir)?),
        None => None,
    };
    let completed = store.as_ref().map_or(0, SessionStore::load_completed);
    let mut inflight = store.as_ref().and_then(SessionStore::load_inflight);
    let shutdown = opts.shutdown.as_deref();
    let kill = opts.chaos.kill_point();

    let mut buf = Vec::new();
    let config_text = loop {
        match read_raw_line(&mut input, opts.max_line_bytes, &mut buf)? {
            RawLine::Eof => {
                return Err(FleetError::Protocol(
                    "stream ended before a fleet config line".into(),
                ))
            }
            RawLine::TooLong => {
                return Err(FleetError::Protocol(
                    "fleet config line exceeds the byte cap".into(),
                ))
            }
            RawLine::Line => {
                let text = std::str::from_utf8(&buf).map_err(|_| {
                    FleetError::Protocol("fleet config line is not valid UTF-8".into())
                })?;
                if !text.trim().is_empty() {
                    break text.to_string();
                }
            }
        }
    };
    let cfg: FleetConfig = serde_json::from_str(&config_text)
        .map_err(|e| FleetError::Protocol(format!("bad fleet config: {e}")))?;
    let mut service = FleetService::new(&cfg)?;

    // Segment the simulation loop only when something needs the pause
    // points; otherwise each request runs as one span, exactly like
    // the legacy service.
    let segment = opts.checkpoint_every.or_else(|| {
        (store.is_some() || opts.deadline_ms.is_some() || kill.is_some() || shutdown.is_some())
            .then_some(service.node.grid.periods_per_day())
    });

    let mut ordinal: u64 = 0;
    let outcome = loop {
        if shutdown.is_some_and(|s| s.load(Ordering::SeqCst)) {
            break SessionOutcome::Shutdown;
        }
        match read_raw_line(&mut input, opts.max_line_bytes, &mut buf)? {
            RawLine::Eof => break SessionOutcome::Eof,
            RawLine::TooLong => {
                ordinal += 1;
                if ordinal <= completed {
                    continue;
                }
                write_error(&mut out, None, "request line exceeds the byte cap")?;
                finish_line(store.as_mut(), ordinal)?;
            }
            RawLine::Line => {
                if buf.iter().all(|b| b.is_ascii_whitespace()) {
                    continue;
                }
                ordinal += 1;
                if ordinal <= completed {
                    continue; // answered before the restart
                }
                let Ok(text) = std::str::from_utf8(&buf) else {
                    write_error(&mut out, None, "request line is not valid UTF-8")?;
                    finish_line(store.as_mut(), ordinal)?;
                    continue;
                };
                let text = text.to_string();
                let req: FleetRequest = match serde_json::from_str(&text) {
                    Ok(req) => req,
                    Err(e) => {
                        write_error(&mut out, None, &format!("bad request: {e}"))?;
                        finish_line(store.as_mut(), ordinal)?;
                        continue;
                    }
                };
                if let Some(cap) = opts.max_batch {
                    if req.scenarios.len() > cap {
                        write_error(
                            &mut out,
                            Some(req.id),
                            &format!(
                                "request has {} scenarios, exceeding the cap of {cap}",
                                req.scenarios.len()
                            ),
                        )?;
                        finish_line(store.as_mut(), ordinal)?;
                        continue;
                    }
                }
                let resume = match inflight.take_if(|r| r.ordinal == ordinal && r.line == text) {
                    Some(rec) => {
                        if let Some(s) = &mut store {
                            s.resume_log(&rec)?;
                        }
                        Some(rec.checkpoint)
                    }
                    None => None,
                };
                let deadline = opts
                    .deadline_ms
                    .map(|ms| Instant::now() + Duration::from_millis(ms));
                let kill_this = kill.filter(|&(r, _)| r == ordinal).map(|(_, p)| p);
                let mut on_checkpoint = |c: &BatchCheckpoint| -> Result<(), FleetError> {
                    match &mut store {
                        Some(s) => s.append_frame(ordinal, &text, c),
                        None => Ok(()),
                    }
                };
                match service.handle_with(
                    &req,
                    resume,
                    segment,
                    deadline,
                    kill_this,
                    shutdown,
                    &mut on_checkpoint,
                ) {
                    Ok(RequestDisposition::Answered(results)) => {
                        write_results(&mut out, req.id, &results)?;
                        finish_line(store.as_mut(), ordinal)?;
                    }
                    Ok(RequestDisposition::Deadline) => {
                        write_error(&mut out, Some(req.id), "deadline")?;
                        finish_line(store.as_mut(), ordinal)?;
                    }
                    Ok(RequestDisposition::Killed(period)) => {
                        break SessionOutcome::ChaosKill {
                            request: ordinal,
                            period,
                        };
                    }
                    Ok(RequestDisposition::ShutdownMidRequest) => break SessionOutcome::Shutdown,
                    Err(FleetError::Io(e)) => return Err(FleetError::Io(e)),
                    Err(e) => {
                        write_error(&mut out, Some(req.id), &e.to_string())?;
                        finish_line(store.as_mut(), ordinal)?;
                    }
                }
            }
        }
    };
    Ok(SessionSummary { service, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's fleet config: ECG on 2 days x 48 periods, a DBN
    /// trained for 150 epochs and distilled with the default spec.
    const BENCH_CONFIG: &str = r#"{"grid":{"days":2,"periods":48,"slots":10,"slot_seconds":60.0},"capacitors_farads":[2.0,15.0],"benchmark":"ecg","delta":0.5,"dp":{"voltage_buckets":6,"keep_per_level":1},"dbn":{"seed":11,"bp_epochs":150},"distill":{"seed":11},"threads":1}"#;

    /// The service serves the distilled artifact without a JSON round
    /// trip; that is sound only because reloading the JSON form is the
    /// identity on it.
    #[test]
    fn distilled_artifact_round_trips() {
        let cfg: FleetConfig = serde_json::from_str(BENCH_CONFIG).expect("config parses");
        let service = FleetService::new(&cfg).expect("service starts");
        let policy = service.distilled.as_ref().expect("an artifact").policy();
        let json = policy.to_json().expect("serialises");
        let reloaded = DistilledPolicy::from_json(&json).expect("reloads");
        assert_eq!(&reloaded, policy.as_ref());
        assert_eq!(reloaded.to_json().expect("re-serialises"), json);
    }

    fn small_checkpoint(next: usize) -> BatchCheckpoint {
        let input = format!(
            "{}\n{}\n",
            r#"{"grid":{"days":1,"periods":8,"slots":10},"capacitors_farads":[2.0,15.0],"threads":1}"#,
            r#"{"id":1,"scenarios":[{"planner":"inter"},{"planner":"asap","seed":3}]}"#
        );
        let mut lines = input.lines();
        let cfg: FleetConfig = serde_json::from_str(lines.next().expect("a line")).expect("parses");
        let req: FleetRequest =
            serde_json::from_str(lines.next().expect("a line")).expect("parses");
        let mut service = FleetService::new(&cfg).expect("service starts");
        let mut last = None;
        let mut keep = |c: &BatchCheckpoint| {
            last = Some(c.clone());
            Ok(())
        };
        let out = service
            .handle_with(&req, None, Some(next), None, Some(next), None, &mut keep)
            .expect("request runs");
        assert!(matches!(out, RequestDisposition::Killed(p) if p == next));
        last.expect("a pause")
    }

    /// The lanes of `ckpt` cut back to their first `at` records.
    fn logs_at(ckpt: &BatchCheckpoint, at: usize) -> Vec<PeriodLog> {
        ckpt.scenarios
            .iter()
            .map(|sc| sc.periods().iter().take(at).collect())
            .collect()
    }

    /// Each lane's encoded log bytes at period `at` of `ckpt`.
    fn marks_at(ckpt: &BatchCheckpoint, at: usize) -> Vec<usize> {
        logs_at(ckpt, at)
            .iter()
            .map(|l| l.as_bytes().len())
            .collect()
    }

    #[test]
    fn frame_round_trips_and_refuses_every_truncation() {
        let ckpt = small_checkpoint(5);
        let mut bytes = Vec::new();
        let mut json = String::new();
        let marks = marks_at(&ckpt, 2);
        Frame::encode(&mut bytes, &mut json, 3, "line", 2, &marks, &ckpt).expect("encodes");
        let frame = Frame::decode(&bytes).expect("decodes");
        assert_eq!(frame.len, bytes.len());
        assert_eq!((frame.ordinal, frame.line, frame.from), (3, "line", 2));
        assert_eq!(frame.live.next_period, 5);
        // The record block is each lane's log bytes past its mark.
        let block: Vec<u8> = ckpt
            .scenarios
            .iter()
            .zip(&marks)
            .flat_map(|(sc, &m)| sc.periods().as_bytes()[m..].to_vec())
            .collect();
        assert_eq!(frame.records, block.as_slice());
        assert_eq!(bytes[56..64], (block.len() as u64).to_le_bytes());
        let grown = extend_lanes(&logs_at(&ckpt, 2), frame.records, 3).expect("continues");
        for (log, sc) in grown.iter().zip(&ckpt.scenarios) {
            assert_eq!(log, sc.periods());
        }
        for cut in 0..bytes.len() {
            assert!(Frame::decode(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        // An unknown pattern in a record invalidates the frame's block;
        // so does a block one record short of the header's periods.
        let mut bad = frame.records.to_vec();
        bad[1] |= 0b11;
        assert!(extend_lanes(&logs_at(&ckpt, 2), &bad, 3).is_none());
        assert!(extend_lanes(&logs_at(&ckpt, 2), frame.records, 4).is_none());
        assert!(extend_lanes(&logs_at(&ckpt, 2), &frame.records[1..], 3).is_none());
        // A first period after the next one is out of range.
        let mut bad = bytes.clone();
        bad[16..24].copy_from_slice(&9u64.to_le_bytes());
        assert!(Frame::decode(&bad).is_none());
        // A length word past the end of the bytes.
        let mut bad = bytes;
        bad[40..48].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Frame::decode(&bad).is_none());
    }

    #[test]
    fn resume_stops_at_the_first_frame_that_does_not_continue() {
        let dir = std::env::temp_dir().join(format!("helio-fleet-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SessionStore::new(&dir).expect("store");
        let (at4, at6) = (small_checkpoint(4), small_checkpoint(6));
        let frame = |ordinal, from, ckpt: &BatchCheckpoint| {
            let (mut bytes, mut json) = (Vec::new(), String::new());
            let marks = marks_at(ckpt, from);
            Frame::encode(&mut bytes, &mut json, ordinal, "line", from, &marks, ckpt)
                .expect("encodes");
            bytes
        };
        let first = frame(1, 0, &at4);
        // A frame whose lane 1 block starts with an unknown mask bit.
        let mut torn = frame(1, 4, &at6);
        let lane_bytes =
            |c: &BatchCheckpoint, lane: usize| c.scenarios[lane].periods().as_bytes().len();
        let block: usize = (0..at6.len())
            .map(|lane| lane_bytes(&at6, lane) - lane_bytes(&at4, lane))
            .sum();
        let lane1 = torn.len() - block + lane_bytes(&at6, 0) - lane_bytes(&at4, 0);
        torn[lane1] |= 0x80;
        for (tail, resumed_at) in [
            (frame(1, 4, &at6), 6), // continues
            (frame(1, 2, &at6), 4), // starts before the previous next period
            (frame(2, 4, &at6), 4), // another request
            (torn, 4),              // a record that does not decode
        ] {
            std::fs::write(store.log_path(), [first.clone(), tail.clone()].concat())
                .expect("write");
            let rec = store.load_inflight().expect("a complete frame");
            assert_eq!(rec.checkpoint.next_period, resumed_at);
            let want = if resumed_at == 6 { &at6 } else { &at4 };
            assert_eq!(&rec.checkpoint, want);
            let len = first.len() + if resumed_at == 6 { tail.len() } else { 0 };
            assert_eq!(rec.log_len, len as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frame_records_must_match_the_checkpoint_length() {
        let ckpt = small_checkpoint(4);
        let mut bytes = Vec::new();
        let mut json = String::new();
        let marks = marks_at(&ckpt, 4);
        assert!(Frame::encode(&mut bytes, &mut json, 1, "l", 5, &marks, &ckpt).is_err());
        let mut short = ckpt.clone();
        short.next_period = 6;
        assert!(Frame::encode(&mut bytes, &mut json, 1, "l", 0, &[], &short).is_err());
        let past = vec![usize::MAX; ckpt.len()];
        assert!(Frame::encode(&mut bytes, &mut json, 1, "l", 2, &past, &ckpt).is_err());
    }
}
