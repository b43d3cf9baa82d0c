//! Service-level robustness: deadlines, request caps, chaos
//! kill/resume with zero lost or duplicated lines, corrupted protocol
//! lines, panic quarantine, a stalling client and graceful shutdown —
//! all in-process through [`serve_with`].

use std::io::Cursor;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use helio_faults::{corrupt_line, LineCorruption, ServiceFaultPlan, SlowWriter};
use helio_fleet::{serve, serve_with, ServeOptions, SessionOutcome};
use heliosched::{PeriodLog, SimReport};
use serde::Deserialize;

const CONFIG: &str =
    r#"{"grid":{"days":1,"periods":8,"slots":10},"capacitors_farads":[2.0,15.0],"threads":2}"#;

/// A full 24-period day, for the chaos request mix below.
const DAY_CONFIG: &str =
    r#"{"grid":{"days":1,"periods":24,"slots":10},"capacitors_farads":[2.0,15.0],"threads":2}"#;

/// The chaos request mix: fixed patterns, MPC next to a resilient
/// wrapper, and a seeded random-blackout fault plan.
const CHAOS_REQUESTS: [&str; 3] = [
    r#"{"id":1,"scenarios":[{"planner":"inter"},{"planner":"asap","seed":3},{"planner":"intra","seed":4}]}"#,
    r#"{"id":2,"scenarios":[{"planner":"mpc","seed":5},{"planner":"inter","seed":6,"resilient":true}]}"#,
    r#"{"id":3,"scenarios":[{"planner":"inter","seed":7,"faults":{"seed":7,"random_blackouts":{"per_period_probability":0.2,"min_periods":1,"max_periods":2}}}]}"#,
];

fn session(requests: &[&str]) -> Vec<u8> {
    session_with(CONFIG, requests)
}

fn session_with(config: &str, requests: &[&str]) -> Vec<u8> {
    let mut bytes = config.as_bytes().to_vec();
    bytes.push(b'\n');
    for r in requests {
        bytes.extend_from_slice(r.as_bytes());
        bytes.push(b'\n');
    }
    bytes
}

/// Runs one in-process session to completion and returns its output.
fn serve_bytes(input: Vec<u8>, opts: &ServeOptions) -> Vec<u8> {
    let mut out = Vec::new();
    let summary = serve_with(Cursor::new(input), &mut out, opts).expect("session serves");
    assert_eq!(summary.outcome, SessionOutcome::Eof);
    out
}

fn lines(bytes: &[u8]) -> Vec<&[u8]> {
    bytes
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect()
}

/// A scratch directory unique per test, wiped on entry so reruns
/// start clean.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helio-fleet-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn deadline_zero_answers_deadline_errors() {
    let input = session(&[
        r#"{"id":7,"scenarios":[{"planner":"inter"},{"planner":"asap"}]}"#,
        r#"{"id":8,"scenarios":[{"planner":"intra"}]}"#,
    ]);
    let mut out = Vec::new();
    let summary = serve_with(
        Cursor::new(input),
        &mut out,
        &ServeOptions {
            deadline_ms: Some(0),
            ..ServeOptions::default()
        },
    )
    .expect("session serves");
    assert_eq!(summary.outcome, SessionOutcome::Eof);
    let out = String::from_utf8(out).expect("utf-8 output");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(
        lines,
        vec![
            r#"{"id":7,"error":"deadline"}"#,
            r#"{"id":8,"error":"deadline"}"#
        ]
    );
    // An expired request is not counted as served.
    assert_eq!(summary.service.requests_served(), 0);
}

#[test]
fn max_batch_rejects_oversized_requests_inline() {
    let input = session(&[
        r#"{"id":1,"scenarios":[{"planner":"inter"},{"planner":"asap"},{"planner":"intra"}]}"#,
        r#"{"id":2,"scenarios":[{"planner":"inter"}]}"#,
    ]);
    let mut out = Vec::new();
    serve_with(
        Cursor::new(input),
        &mut out,
        &ServeOptions {
            max_batch: Some(2),
            ..ServeOptions::default()
        },
    )
    .expect("session serves");
    let out = String::from_utf8(out).expect("utf-8 output");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "one rejection + one report: {out}");
    assert!(lines[0].starts_with(r#"{"id":1,"error":"#), "{}", lines[0]);
    assert!(lines[0].contains("exceeding the cap of 2"), "{}", lines[0]);
    assert!(lines[1].starts_with(r#"{"id":2,"index":0,"report":"#));
}

/// Kills request 2 of `input` at each period boundary in
/// `kill_periods`, restarts against the same checkpoint directory and
/// requires the concatenated output to be byte-identical to an
/// uninterrupted session: zero lines lost, zero duplicated.
fn assert_kill_resume(tag: &str, input: &[u8], kill_periods: &[usize], checkpoint_every: usize) {
    // The uninterrupted session is the reference output; a second
    // clean session must reproduce it.
    let mut reference = Vec::new();
    serve(Cursor::new(input.to_vec()), &mut reference).expect("reference session");
    assert!(!reference.is_empty(), "{tag}: empty reference session");
    assert_eq!(
        serve_bytes(input.to_vec(), &ServeOptions::default()),
        reference,
        "{tag}: two clean sessions differ"
    );

    for &kill_period in kill_periods {
        let dir = scratch_dir(&format!("killresume-{tag}-{kill_period}"));
        let opts = ServeOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: Some(checkpoint_every),
            chaos: ServiceFaultPlan {
                kill_request: Some(2),
                kill_at_period: Some(kill_period),
            },
            ..ServeOptions::default()
        };
        let mut part1 = Vec::new();
        let summary =
            serve_with(Cursor::new(input.to_vec()), &mut part1, &opts).expect("killed session");
        assert_eq!(
            summary.outcome,
            SessionOutcome::ChaosKill {
                request: 2,
                period: kill_period
            },
            "{tag}"
        );

        // Restart against the same directory, no chaos: the service
        // must skip request 1, resume request 2 mid-simulation and
        // finish request 3.
        let opts = ServeOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: Some(checkpoint_every),
            ..ServeOptions::default()
        };
        let mut joined = part1;
        joined.extend(serve_bytes(input.to_vec(), &opts));
        assert_eq!(
            String::from_utf8(joined).expect("utf-8"),
            String::from_utf8(reference.clone()).expect("utf-8"),
            "{tag}: kill at period {kill_period}: concatenated output diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn chaos_kill_then_resume_loses_and_duplicates_nothing() {
    let requests = [
        r#"{"id":1,"scenarios":[{"planner":"inter"},{"planner":"asap","seed":3}]}"#,
        r#"{"id":2,"scenarios":[{"planner":"intra","seed":5}]}"#,
        r#"{"id":3,"scenarios":[{"planner":"inter","seed":9,"resilient":true}]}"#,
    ];
    assert_kill_resume("fixed", &session(&requests), &[0, 3, 8], 2);
    // MPC, a resilient wrapper and a random-blackout fault plan on a
    // 24-period day, killed at its first, middle and last boundary.
    assert_kill_resume(
        "mixed",
        &session_with(DAY_CONFIG, &CHAOS_REQUESTS),
        &[0, 12, 24],
        6,
    );
}

#[test]
fn corrupted_lines_answer_one_error_and_the_session_serves_on() {
    let healthy = serve_bytes(
        session_with(DAY_CONFIG, &CHAOS_REQUESTS[2..]),
        &ServeOptions::default(),
    );
    let healthy_lines = lines(&healthy).len();
    assert!(healthy_lines > 0);
    let opts = ServeOptions {
        max_line_bytes: Some(1 << 16),
        ..ServeOptions::default()
    };
    for kind in LineCorruption::ALL {
        let mut input = DAY_CONFIG.as_bytes().to_vec();
        input.push(b'\n');
        input.extend(corrupt_line(CHAOS_REQUESTS[0], kind, 9));
        input.push(b'\n');
        input.extend_from_slice(CHAOS_REQUESTS[2].as_bytes());
        input.push(b'\n');
        let out = serve_bytes(input, &opts);
        let got = lines(&out);
        assert_eq!(
            got.len(),
            1 + healthy_lines,
            "{kind:?}: expected one error line plus the healthy answer"
        );
        assert!(
            (got[0].starts_with(b"{\"error\":") || got[0].starts_with(b"{\"id\":"))
                && got[0].windows(8).any(|w| w == b"\"error\":"),
            "{kind:?}: first line is not an inline error: {}",
            String::from_utf8_lossy(got[0])
        );
        assert!(
            out.ends_with(&healthy),
            "{kind:?}: the healthy request answered differently after the corrupted line"
        );
    }
}

#[test]
fn slow_writer_changes_no_bytes() {
    let input = session_with(DAY_CONFIG, &CHAOS_REQUESTS);
    let clean = serve_bytes(input.clone(), &ServeOptions::default());
    let mut writer = SlowWriter::new(Vec::new(), 1);
    let summary = serve_with(Cursor::new(input), &mut writer, &ServeOptions::default())
        .expect("slow-writer session serves");
    assert_eq!(summary.outcome, SessionOutcome::Eof);
    assert!(writer.flushes > 0, "the stalling writer was never flushed");
    assert_eq!(writer.into_inner(), clean);
}

#[test]
fn panicking_scenario_is_quarantined_not_fatal() {
    let input = session(&[
        r#"{"id":4,"scenarios":[{"planner":"inter"},{"planner":"chaos-panic:2","seed":1},{"planner":"asap"}]}"#,
        r#"{"id":5,"scenarios":[{"planner":"inter"}]}"#,
    ]);
    // Reference reports for the healthy scenarios, simulated alone.
    let mut reference = Vec::new();
    serve(
        Cursor::new(session(&[
            r#"{"id":4,"scenarios":[{"planner":"inter"}]}"#,
            r#"{"id":5,"scenarios":[{"planner":"inter"}]}"#,
        ])),
        &mut reference,
    )
    .expect("reference session");
    let reference = String::from_utf8(reference).expect("utf-8");
    let healthy_report = reference
        .lines()
        .next()
        .and_then(|l| l.split_once(r#""report":"#))
        .map(|(_, r)| r)
        .expect("reference report");

    let mut out = Vec::new();
    let summary = serve_with(Cursor::new(input), &mut out, &ServeOptions::default())
        .expect("panicking scenario must not abort the session");
    assert_eq!(summary.outcome, SessionOutcome::Eof);
    let out = String::from_utf8(out).expect("utf-8");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 4, "3 scenario lines + 1 follow-up: {out}");
    // Healthy scenarios answer byte-identically to running alone.
    assert!(
        lines[0].ends_with(healthy_report),
        "quarantine changed a healthy report"
    );
    assert!(
        lines[1].starts_with(r#"{"id":4,"index":1,"error":"#),
        "{}",
        lines[1]
    );
    assert!(lines[1].contains("panic"), "{}", lines[1]);
    assert!(lines[2].starts_with(r#"{"id":4,"index":2,"report":"#));
    // The session keeps serving after the quarantine.
    assert!(lines[3].starts_with(r#"{"id":5,"index":0,"report":"#));
}

#[test]
fn shutdown_flag_drains_and_checkpoints() {
    let dir = scratch_dir("shutdown");
    let flag = Arc::new(AtomicBool::new(true)); // already raised: drain immediately
    let input = session(&[r#"{"id":1,"scenarios":[{"planner":"inter"}]}"#]);
    let mut out = Vec::new();
    let summary = serve_with(
        Cursor::new(input.clone()),
        &mut out,
        &ServeOptions {
            checkpoint_dir: Some(dir.clone()),
            shutdown: Some(Arc::clone(&flag)),
            ..ServeOptions::default()
        },
    )
    .expect("shutdown session");
    assert_eq!(summary.outcome, SessionOutcome::Shutdown);
    assert!(out.is_empty(), "drained before answering anything");

    // A restart with the flag lowered finishes the session; output
    // matches a run that never shut down.
    flag.store(false, Ordering::SeqCst);
    let mut rest = Vec::new();
    let summary = serve_with(
        Cursor::new(input.clone()),
        &mut rest,
        &ServeOptions {
            checkpoint_dir: Some(dir.clone()),
            ..ServeOptions::default()
        },
    )
    .expect("restarted session");
    assert_eq!(summary.outcome, SessionOutcome::Eof);
    let mut reference = Vec::new();
    serve(Cursor::new(input), &mut reference).expect("reference session");
    assert_eq!(rest, reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_checkpoint_state_degrades_to_a_fresh_session() {
    let dir = scratch_dir("corrupt");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("session.json"), b"{torn write").expect("write");
    std::fs::write(dir.join("inflight.json"), b"\x00garbage").expect("write");
    std::fs::write(dir.join("inflight.log"), b"\x00garbage").expect("write");
    let input = session(&[r#"{"id":1,"scenarios":[{"planner":"inter"}]}"#]);
    let mut out = Vec::new();
    let mut reference = Vec::new();
    serve(Cursor::new(input.clone()), &mut reference).expect("reference session");
    serve_with(
        Cursor::new(input),
        &mut out,
        &ServeOptions {
            checkpoint_dir: Some(dir.clone()),
            ..ServeOptions::default()
        },
    )
    .expect("corrupt state must not abort the session");
    assert_eq!(out, reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bytes of a frame's fixed header in `inflight.log`: an 8-byte magic,
/// then seven little-endian `u64`s (ordinal, first period, next period,
/// lanes, line bytes, live-state bytes, record-block bytes).
const FRAME_HEADER: usize = 64;

/// One complete frame of a checkpoint log, located by its header.
#[derive(Debug, Clone, Copy)]
struct FrameSpan {
    start: usize,
    end: usize,
    from: usize,
    next: usize,
    lanes: usize,
    /// Bytes of the frame's record block.
    records: usize,
}

/// Walks the complete frames of a checkpoint log by the documented
/// layout (header, request line, live state, then the record block),
/// stopping at the first bytes that are not a whole frame.
fn frames(log: &[u8]) -> Vec<FrameSpan> {
    let word = |at: usize| -> Option<usize> {
        let b: [u8; 8] = log.get(at..at + 8)?.try_into().ok()?;
        usize::try_from(u64::from_le_bytes(b)).ok()
    };
    let mut out = Vec::new();
    let mut start = 0;
    while log.get(start..start + 8) == Some(b"HELIOFR3".as_slice()) {
        let span = (|| {
            let (from, next, lanes) = (word(start + 16)?, word(start + 24)?, word(start + 32)?);
            let records = word(start + 56)?;
            let end = (start + FRAME_HEADER)
                .checked_add(word(start + 40)?)?
                .checked_add(word(start + 48)?)?
                .checked_add(records)?;
            (end <= log.len()).then_some(FrameSpan {
                start,
                end,
                from,
                next,
                lanes,
                records,
            })
        })();
        let Some(span) = span else { break };
        out.push(span);
        start = span.end;
    }
    out
}

/// How the checkpoint state is damaged between a kill and the restart.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// The log ends inside the last frame's header.
    HeaderCut,
    /// The log ends inside the last frame's payload.
    PayloadCut,
    /// Garbage follows the last frame.
    Garbage,
    /// An old-format `inflight.json` sits beside the log.
    StaleJson,
    /// The log is in the fixed-width `HELIOFR1` layout of the previous
    /// release: 56-byte headers without a record-block length and 112
    /// bytes per record.
    StaleFr1,
    /// The log is in the `HELIOFR2` layout of the previous release:
    /// the same frames, whose live state still carried MPC lanes as
    /// proposed checkpoints and the resilient probation counters.
    StaleFr2,
}

/// `log` with every frame stamped with the `HELIOFR2` magic.
fn as_fr2(log: &[u8]) -> Vec<u8> {
    let mut out = log.to_vec();
    for f in frames(log) {
        out[f.start..f.start + 8].copy_from_slice(b"HELIOFR2");
    }
    out
}

/// `log` rewritten frame by frame in the `HELIOFR1` layout: the same
/// ordinal, periods, line and live state, and `lanes x periods`
/// fixed-width records (zeroed).
fn as_fr1(log: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for f in frames(log) {
        out.extend_from_slice(b"HELIOFR1");
        out.extend_from_slice(&log[f.start + 8..f.start + 56]);
        out.extend_from_slice(&log[f.start + FRAME_HEADER..f.end - f.records]);
        out.resize(out.len() + f.lanes * (f.next - f.from) * 112, 0);
    }
    out
}

#[test]
fn torn_and_stale_checkpoint_state_resumes_byte_identically() {
    let input = session_with(DAY_CONFIG, &CHAOS_REQUESTS);
    let reference = serve_bytes(input.clone(), &ServeOptions::default());
    // `checkpoint_every` 6 makes request 2 a 4-segment request: kill it
    // at each pause, at its end and at a period between two pauses.
    let every = 6;
    let opts = |dir: &PathBuf, kill: Option<usize>| ServeOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: Some(every),
        chaos: ServiceFaultPlan {
            kill_request: kill.map(|_| 2),
            kill_at_period: kill,
        },
        ..ServeOptions::default()
    };
    let damages = [
        Damage::HeaderCut,
        Damage::PayloadCut,
        Damage::Garbage,
        Damage::StaleJson,
        Damage::StaleFr1,
        Damage::StaleFr2,
    ];
    for kill in [6, 12, 18, 24, 9] {
        for damage in damages {
            let tag = format!("kill at {kill}, {damage:?}");
            let dir = scratch_dir(&format!("torn-{kill}-{damage:?}"));
            let mut joined = Vec::new();
            let summary = serve_with(
                Cursor::new(input.clone()),
                &mut joined,
                &opts(&dir, Some(kill)),
            )
            .expect("killed session");
            assert_eq!(
                summary.outcome,
                SessionOutcome::ChaosKill {
                    request: 2,
                    period: kill
                },
                "{tag}"
            );
            let log_path = dir.join("inflight.log");
            let mut log = std::fs::read(&log_path).expect("log written");
            let spans = frames(&log);
            assert_eq!(
                spans.len(),
                kill.div_ceil(every),
                "{tag}: one frame per pause"
            );
            let last = *spans.last().expect("a frame");
            assert_eq!(last.end, log.len(), "{tag}: the log is whole frames");
            assert_eq!((spans[0].from, last.next), (0, kill), "{tag}");
            match damage {
                Damage::HeaderCut => log.truncate(last.start + 20),
                Damage::PayloadCut => log.truncate(last.end - 8),
                Damage::Garbage => log.extend_from_slice(b"\x00\xffnot a frame at all\n"),
                Damage::StaleJson => {
                    let stale = format!(
                        r#"{{"ordinal":2,"line":{:?},"checkpoint":{{"next_period":3,"scenarios":[],"planners":[]}}}}"#,
                        CHAOS_REQUESTS[1]
                    );
                    std::fs::write(dir.join("inflight.json"), stale).expect("write");
                }
                Damage::StaleFr1 => log = as_fr1(&log),
                Damage::StaleFr2 => log = as_fr2(&log),
            }
            std::fs::write(&log_path, &log).expect("damage the log");

            // The restart resumes from the last intact frame and is
            // killed again at the end of the request: the log must
            // have been cut back before the new frames were appended.
            let summary = serve_with(
                Cursor::new(input.clone()),
                &mut joined,
                &opts(&dir, Some(24)),
            )
            .expect("resumed session");
            assert_eq!(
                summary.outcome,
                SessionOutcome::ChaosKill {
                    request: 2,
                    period: 24
                },
                "{tag}"
            );
            let log = std::fs::read(&log_path).expect("log written");
            let spans = frames(&log);
            assert_eq!(
                spans.last().map(|f| f.end),
                Some(log.len()),
                "{tag}: tail left in the log"
            );
            assert!(
                spans.windows(2).all(|w| w[0].next == w[1].from),
                "{tag}: frames do not continue each other"
            );
            assert_eq!(
                (spans[0].from, spans[spans.len() - 1].next),
                (0, 24),
                "{tag}"
            );

            joined.extend(serve_bytes(input.clone(), &opts(&dir, None)));
            assert_eq!(
                String::from_utf8(joined).expect("utf-8"),
                String::from_utf8(reference.clone()).expect("utf-8"),
                "{tag}: concatenated output diverged"
            );
            assert!(
                !log_path.exists(),
                "{tag}: the answered request left its log"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Each lane's period log, from the report lines of an uninterrupted
/// session.
fn lane_logs(output: &[u8]) -> Vec<PeriodLog> {
    lines(output)
        .into_iter()
        .map(|line| {
            let v = serde_json::parse_value(std::str::from_utf8(line).expect("utf-8"))
                .expect("a JSON line");
            let report = SimReport::deserialize_json(v.field("report").expect("a report line"))
                .expect("a report");
            report.periods
        })
        .collect()
}

#[test]
fn checkpoint_bytes_grow_linearly_with_the_period_count() {
    // MPC (its day-plan cache is the largest planner state), a
    // resilient wrapper and a faulted lane on one 24-period day.
    let request = r#"{"id":1,"scenarios":[{"planner":"mpc","seed":5},{"planner":"inter","seed":6,"resilient":true},{"planner":"inter","seed":7,"faults":{"seed":7,"random_blackouts":{"per_period_probability":0.2,"min_periods":1,"max_periods":2}}}]}"#;
    let lanes = 3;
    let total = 24;
    let logs = lane_logs(&serve_bytes(
        session_with(DAY_CONFIG, &[request]),
        &ServeOptions::default(),
    ));
    assert_eq!(logs.len(), lanes);
    // Bytes of each lane's first `p` records.
    let mark =
        |log: &PeriodLog, p: usize| log.iter().take(p).collect::<PeriodLog>().as_bytes().len();
    // Live state per lane (bank, NVP fleet, counters, planner state)
    // is bounded by the node and the planner, not by the period index.
    let live_per_lane = 2048;
    let rest_bound = FRAME_HEADER + request.len() + lanes * live_per_lane;
    let all_records: usize = logs.iter().map(|l| l.as_bytes().len()).sum();
    for segments in [2, 4, 8] {
        let every = total / segments;
        let dir = scratch_dir(&format!("linear-{segments}"));
        let opts = ServeOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: Some(every),
            chaos: ServiceFaultPlan {
                kill_request: Some(1),
                kill_at_period: Some(total),
            },
            ..ServeOptions::default()
        };
        let mut out = Vec::new();
        serve_with(
            Cursor::new(session_with(DAY_CONFIG, &[request])),
            &mut out,
            &opts,
        )
        .expect("killed session");
        let log = std::fs::read(dir.join("inflight.log")).expect("log written");
        let spans = frames(&log);
        assert_eq!(spans.len(), segments);
        assert_eq!(spans.last().map(|f| f.end), Some(log.len()));
        for (k, f) in spans.iter().enumerate() {
            assert_eq!((f.from, f.next), (k * every, (k + 1) * every));
            assert_eq!(f.lanes, lanes);
            // The record block is exactly the frame's new records: each
            // lane's log bytes from period `from` to period `next`.
            let new: Vec<u8> = logs
                .iter()
                .flat_map(|l| l.as_bytes()[mark(l, f.from)..mark(l, f.next)].to_vec())
                .collect();
            assert_eq!(&log[f.end - f.records..f.end], new.as_slice(), "frame {k}");
            let rest = f.end - f.start - f.records;
            assert!(
                rest <= rest_bound,
                "{segments} segments, frame {k}: {rest} bytes besides the records"
            );
        }
        // Every period is written once: the record blocks add up to
        // each lane's whole log, whatever the segment count.
        let records: usize = spans.iter().map(|f| f.records).sum();
        assert_eq!(records, all_records);
        assert!(log.len() <= records + segments * rest_bound);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
