//! `helio-fleet` — the long-running fleet-simulation server.
//!
//! Default mode serves one session over stdin/stdout:
//!
//! ```text
//! helio-fleet < session.jsonl > reports.jsonl
//! ```
//!
//! `--listen ADDR` binds a TCP listener and serves connections
//! sequentially, each with the same line protocol (config line first,
//! then request lines):
//!
//! ```text
//! helio-fleet --listen 127.0.0.1:7077
//! ```
//!
//! With `--checkpoint-dir` the service persists its progress at period
//! boundaries; restarting it against the same directory and input
//! resumes mid-request without repeating or losing a response line:
//!
//! ```text
//! helio-fleet --checkpoint-dir /var/lib/helio < session.jsonl
//! ```
//!
//! Protocol output (report/error lines) goes to the peer; telemetry
//! (worker count, request totals) goes to stderr so recorded sessions
//! stay byte-reproducible. On SIGTERM/SIGINT the service finishes the
//! segment in flight, flushes a final checkpoint and exits cleanly.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use helio_faults::ServiceFaultPlan;
use helio_fleet::{serve_with, FleetError, ServeOptions, SessionOutcome, SessionSummary};

/// Exit code signalling a chaos-plan kill (the CI smoke test restarts
/// the service on it, like an init system would).
const EXIT_CHAOS_KILL: u8 = 17;

fn usage() -> &'static str {
    "usage: helio-fleet [OPTIONS]\n\
     \n\
     Reads one fleet-config JSON line, then scenario-batch request\n\
     lines, writing one report line per scenario. Without --listen the\n\
     session runs over stdin/stdout; with it, over sequential TCP\n\
     connections to ADDR.\n\
     \n\
     Options:\n\
     \x20 --listen ADDR          serve TCP connections on ADDR instead of stdio\n\
     \x20 --checkpoint-dir DIR   persist progress to DIR at period boundaries;\n\
     \x20                        a restart against the same DIR resumes without\n\
     \x20                        losing or repeating a response line\n\
     \x20 --checkpoint-every N   periods between checkpoints (default: one day)\n\
     \x20 --max-batch N          reject requests with more than N scenarios\n\
     \x20                        (inline {\"id\":…,\"error\":…} line)\n\
     \x20 --max-line-bytes N     reject protocol lines longer than N bytes\n\
     \x20 --deadline-ms N        per-request wall-clock deadline; an expired\n\
     \x20                        request answers {\"id\":…,\"error\":\"deadline\"}\n\
     \x20 --chaos-kill REQ:PER   chaos harness: checkpoint and exit (code 17)\n\
     \x20                        at period boundary PER of request REQ\n\
     \n\
     On SIGTERM/SIGINT the service finishes the segment in flight,\n\
     flushes a final checkpoint and exits 0."
}

/// The signal handler's view of the shutdown flag; `serve_with` polls
/// the same flag at period boundaries and between requests.
static SHUTDOWN: OnceLock<Arc<AtomicBool>> = OnceLock::new();

#[cfg(unix)]
extern "C" fn on_signal(_sig: i32) {
    if let Some(flag) = SHUTDOWN.get() {
        flag.store(true, Ordering::SeqCst);
    }
}

/// Installs SIGTERM/SIGINT handlers raising the shared shutdown flag.
/// Uses `signal(2)` directly so the binary needs no signal crate; the
/// handler only touches atomics, which is async-signal-safe.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32);
    unsafe {
        signal(SIGINT, handler as usize);
        signal(SIGTERM, handler as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

struct Cli {
    listen: Option<String>,
    opts: ServeOptions,
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut listen = None;
    let mut opts = ServeOptions::default();
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--listen" => listen = Some(value("--listen", &mut it)?),
            "--checkpoint-dir" => {
                opts.checkpoint_dir = Some(value("--checkpoint-dir", &mut it)?.into());
            }
            "--checkpoint-every" => {
                let v = value("--checkpoint-every", &mut it)?;
                opts.checkpoint_every = Some(
                    v.parse()
                        .map_err(|_| format!("bad --checkpoint-every {v}"))?,
                );
            }
            "--max-batch" => {
                let v = value("--max-batch", &mut it)?;
                opts.max_batch = Some(v.parse().map_err(|_| format!("bad --max-batch {v}"))?);
            }
            "--max-line-bytes" => {
                let v = value("--max-line-bytes", &mut it)?;
                opts.max_line_bytes =
                    Some(v.parse().map_err(|_| format!("bad --max-line-bytes {v}"))?);
            }
            "--deadline-ms" => {
                let v = value("--deadline-ms", &mut it)?;
                opts.deadline_ms = Some(v.parse().map_err(|_| format!("bad --deadline-ms {v}"))?);
            }
            "--chaos-kill" => {
                let v = value("--chaos-kill", &mut it)?;
                let (req, period) = v
                    .split_once(':')
                    .ok_or_else(|| format!("bad --chaos-kill {v} (expected REQ:PERIOD)"))?;
                opts.chaos = ServiceFaultPlan {
                    kill_request: Some(
                        req.parse()
                            .map_err(|_| format!("bad --chaos-kill request `{req}`"))?,
                    ),
                    kill_at_period: Some(
                        period
                            .parse()
                            .map_err(|_| format!("bad --chaos-kill period `{period}`"))?,
                    ),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Some(Cli { listen, opts }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = match parse_args(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("helio-fleet: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let flag = Arc::new(AtomicBool::new(false));
    let _ = SHUTDOWN.set(Arc::clone(&flag));
    install_signal_handlers();
    cli.opts.shutdown = Some(flag);
    match cli.listen {
        Some(addr) => serve_tcp(&addr, &cli.opts),
        None => serve_stdio(&cli.opts),
    }
}

fn serve_stdio(opts: &ServeOptions) -> ExitCode {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let result = serve_with(stdin.lock(), BufWriter::new(stdout.lock()), opts);
    finish("stdin session", result)
}

fn serve_tcp(addr: &str, opts: &ServeOptions) -> ExitCode {
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("helio-fleet: cannot listen on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("helio-fleet: listening on {addr}");
    for conn in listener.incoming() {
        if opts
            .shutdown
            .as_ref()
            .is_some_and(|s| s.load(Ordering::SeqCst))
        {
            eprintln!("helio-fleet: shutdown requested, closing listener");
            break;
        }
        let conn = match conn {
            Ok(c) => c,
            Err(e) => {
                eprintln!("helio-fleet: accept failed: {e}");
                continue;
            }
        };
        let peer = conn
            .peer_addr()
            .map(|p| p.to_string())
            .unwrap_or_else(|_| "<unknown>".into());
        let reader = match conn.try_clone() {
            Ok(c) => BufReader::new(c),
            Err(e) => {
                eprintln!("helio-fleet: cannot clone connection from {peer}: {e}");
                continue;
            }
        };
        let mut writer = BufWriter::new(conn);
        match serve_with(reader, &mut writer, opts) {
            Ok(summary) => {
                eprintln!(
                    "helio-fleet: {peer}: {} requests, {} scenarios on {} workers",
                    summary.service.requests_served(),
                    summary.service.scenarios_served(),
                    summary.service.workers()
                );
                let _ = writer.flush();
                if let SessionOutcome::ChaosKill { request, period } = summary.outcome {
                    eprintln!("helio-fleet: chaos kill at request {request}, period {period}");
                    return ExitCode::from(EXIT_CHAOS_KILL);
                }
            }
            Err(e) => eprintln!("helio-fleet: {peer}: session failed: {e}"),
        }
        let _ = writer.flush();
    }
    ExitCode::SUCCESS
}

fn finish(what: &str, result: Result<SessionSummary, FleetError>) -> ExitCode {
    match result {
        Ok(summary) => {
            let service = &summary.service;
            eprintln!(
                "helio-fleet: {what} done: {} requests, {} scenarios on {} workers",
                service.requests_served(),
                service.scenarios_served(),
                service.workers()
            );
            match summary.outcome {
                SessionOutcome::ChaosKill { request, period } => {
                    eprintln!("helio-fleet: chaos kill at request {request}, period {period}");
                    ExitCode::from(EXIT_CHAOS_KILL)
                }
                SessionOutcome::Shutdown => {
                    eprintln!("helio-fleet: graceful shutdown, checkpoint flushed");
                    ExitCode::SUCCESS
                }
                SessionOutcome::Eof => ExitCode::SUCCESS,
            }
        }
        Err(e) => {
            eprintln!("helio-fleet: {what} failed: {e}");
            ExitCode::FAILURE
        }
    }
}
