//! `benchmark` — one end-to-end benchmark for the fleet service, the
//! sweep and the offline pipeline.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--spans <file>]
//! benchmark compare <runs-A.jsonl> <runs-B.jsonl>
//! ```
//!
//! It is the `benchmark` binary of `helio-bench`, found by Cargo in
//! `src/bin/benchmark/`, so `cargo run --release -p helio-bench --bin
//! benchmark -- …` builds it with the workspace's profile and lockfile.
//!
//! Each invocation runs one workload (`fleet-distinct`, `fleet-whatif`,
//! `sweep`, `offline`) whose inputs come from `--seed` alone. It runs the
//! workload's correctness checks first, then measures for `--seconds`
//! after an untimed warm-up, prints every metric as `name value unit`
//! and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the JSON carries the end-to-end metrics; with
//! `--trace 1` the run goes through the span-recording paths of
//! `layers.rs` and the JSON carries the per-layer metrics (spans are
//! written to `--spans` when given). A failed check exits with code 1.
//!
//! `compare` reads two files of such JSON lines (one per run, same
//! workload) and prints each metric's median and quartiles per side,
//! flagging any metric whose second side is worse than the first by
//! more than its bound. See `README.md` beside this file.

mod compare;
mod fleet;
mod inputs;
mod layers;
mod offline;
mod spans;
mod stats;
mod sweep;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One metric of the benchmark's contract. Every metric is better
/// lower.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        bound: None,
    }
}

/// Bound of `dmr`, relative like every bound: +0.001 absolute at the
/// highest `dmr` any workload reads (0.76 on `sweep`), tighter on the
/// others.
const DMR_BOUND: f64 = 0.0013;

/// End-to-end metrics, measured untraced on every workload. An
/// operation is a fleet request, a sweep column or an offline rep.
///
/// Latency is gated on the fastest tenth of operations (`p10_ms`), with
/// the largest bound the benchmark may set, and `setup_s` shares it:
/// on the shared 2-vCPU host the bounds were measured on, other
/// tenants' load slowed every operation by up to 1.7x for seconds or
/// minutes at a time, so a 20 s run's median moved by up to 0.54 of
/// itself (IQR over median, six runs of `fleet-whatif`); the lower
/// decile moved less (0.13 there), but by up to 0.41 when slow phases
/// outlasted whole runs (ten runs of `sweep`). The median and the tail
/// are printed beside it.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", 0.25),
    e2e("p10_ms", "ms", 0.25),
    e2e("dmr", "ratio", DMR_BOUND),
    e2e("peak_rss_mb", "MiB", 0.10),
];

/// Per-layer metrics, measured by the traced run of every workload.
pub const PER_LAYER: &[MetricDef] = &[
    layer("solar.trace_us_per_trace", "us"),
    layer("core.batch.build_us_per_scenario", "us"),
    layer("core.batch.wall_ns_per_scenario_period", "ns"),
    layer("core.batch.share", "ratio"),
    layer("core.online.ns_per_decision", "ns"),
    layer("core.online.busy_share", "ratio"),
    layer("sched.asap_us_per_period", "us"),
    layer("sched.inter_us_per_period", "us"),
    layer("sched.intra_us_per_period", "us"),
    layer("trace.unattributed_share", "ratio"),
    layer("trace.overhead", "ratio"),
];

/// Looks up a metric of either table by name.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Worker threads of every timed operation: the fleet config's
/// `threads`, the sweep's scratches and the offline pool
/// (`HELIO_THREADS`). One, so a run measures the code rather than
/// whether a second core happened to be free: on a 2-vCPU host, two
/// workers made the sweep's column latency bimodal (13 ms with both
/// cores free, 22 ms without) and its run-to-run p50 spread 0.48 of the
/// median.
pub const WORKERS: usize = 1;

/// Worker threads of the correctness checks, so the multi-shard engine
/// path (batches split across scratches sharing one fold table) is
/// checked against the single-shard one every run.
pub const CHECK_WORKERS: usize = 2;

/// `n` engine scratches, one per worker.
pub fn scratches(n: usize) -> Vec<heliosched::BatchScratch> {
    (0..n)
        .map(|_| heliosched::BatchScratch::default())
        .collect()
}

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 4] = ["fleet-distinct", "fleet-whatif", "sweep", "offline"];

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Scenarios (fleet, sweep) or reps (offline) attempted while timed.
    pub attempted: u64,
    /// How many of those failed.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<(String, f64, &'static str)>,
    problems: Vec<String>,
}

impl Report {
    /// Records a contract metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a supplementary number, printed but not part of the JSON.
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push((name.to_string(), value, unit));
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, message: &str) {
        self.problems.push(message.to_string());
    }

    /// Records `message` as a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, message: &str) {
        if !ok {
            self.problem(message);
        }
    }

    /// The value recorded for metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.notes)
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Failed checks so far.
    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// Records per-operation latencies: `p10_ms`, and beside it the
    /// sample count, the median and the highest percentile with at
    /// least ten samples beyond it.
    pub fn latency(&mut self, ms: &[f64]) {
        let mut sorted = ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        self.note("samples", sorted.len() as f64, "count");
        match (
            stats::percentile(&sorted, 10.0),
            stats::percentile(&sorted, 50.0),
        ) {
            (Some(p10), Some(p50)) => {
                self.metric("p10_ms", p10, "ms");
                self.note("p50_ms", p50, "ms");
            }
            _ => self.problem("no timed operation completed"),
        }
        if let Some(p) = stats::tail_percentile(sorted.len()) {
            if let Some(v) = stats::percentile(&sorted, p) {
                self.note(&format!("tail_p{p}_ms"), v, "ms");
            }
        }
    }

    /// The final JSON line, carrying exactly the metrics of `table`; a
    /// table metric that was not measured (or is not finite) fails the
    /// run.
    fn json_line(&mut self, table: &[MetricDef]) -> String {
        let mut fields = Vec::new();
        for def in table {
            match self.metrics.iter().find(|(n, _, _)| n == def.name) {
                Some(&(_, v, unit)) if v.is_finite() => fields.push(format!(
                    r#""{}":{{"value":{v:?},"unit":"{unit}"}}"#,
                    def.name
                )),
                _ => self
                    .problems
                    .push(format!("metric {} was not measured", def.name)),
            }
        }
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            fields.join(",")
        )
    }
}

/// When a workload stops starting timed operations.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Once this long has passed since the first timed operation.
    After(Duration),
    /// After this many timed operations.
    Ops(u64),
}

impl Stop {
    /// Whether another timed operation should start, `done` having
    /// completed since the first one started at `since`.
    pub fn more(self, done: u64, since: Instant) -> bool {
        match self {
            Stop::After(budget) => since.elapsed() < budget,
            Stop::Ops(n) => done < n,
        }
    }
}

/// How much of a workload one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// When timed operations stop.
    pub stop: Stop,
    /// A smoke run (the unit tests): one warm-up operation and one
    /// set-up sample instead of the full counts.
    pub smoke: bool,
}

impl Run {
    /// A full run timed for `budget`.
    pub fn timed(budget: Duration) -> Self {
        Self {
            stop: Stop::After(budget),
            smoke: false,
        }
    }

    /// Warm-up operations: `full`, or one in a smoke run.
    pub fn warmup(self, full: u64) -> u64 {
        if self.smoke {
            1
        } else {
            full
        }
    }

    /// Set-up samples (or other repetitions): `full`, or one in a smoke
    /// run.
    pub fn samples(self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }
}

/// Set-up samples spread over a run: the first before the warm-up, the
/// rest between timed operations, about `samples` in all. Samples taken
/// back to back all read the host in one moment; on the shared host the
/// bounds were measured on, that made a run's median set-up time
/// bimodal (offline: 0.36 or 0.52–0.63 ms; fleet: 0.19–0.23 or
/// 0.33–0.35 s) and moved the median of ten runs by 32% between two
/// sets of runs.
pub struct SetupSamples {
    every: Duration,
    last: Instant,
    times: Vec<f64>,
}

impl SetupSamples {
    /// Spreads `samples` set-ups over `run`'s timed phase; a run bounded
    /// by an operation count takes only the first.
    pub fn new(run: Run, samples: u32) -> Self {
        let every = match run.stop {
            Stop::After(budget) => budget / samples.max(1),
            Stop::Ops(_) => Duration::MAX,
        };
        Self {
            every,
            last: Instant::now(),
            times: Vec::new(),
        }
    }

    /// Times one set-up and returns what it built.
    ///
    /// # Errors
    ///
    /// Returns the error `setup` returns.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t = Instant::now();
        let built = setup()?;
        self.times.push(t.elapsed().as_secs_f64());
        self.last = Instant::now();
        Ok(built)
    }

    /// Times one more set-up, discarding what it built, when its turn
    /// has come.
    ///
    /// # Errors
    ///
    /// Returns the error `setup` returns.
    pub fn between<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<(), String> {
        if self.last.elapsed() >= self.every {
            self.time(setup)?;
        }
        Ok(())
    }

    /// The median set-up time in seconds.
    pub fn median(&self) -> Option<f64> {
        stats::median(&self.times)
    }
}

/// The repository checkout the benchmark runs in: the nearest
/// directory at or above `start` holding the committed fleet fixture.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|d| d.join("results/golden_fleet/session.jsonl").is_file())
        .map(Path::to_path_buf)
}

/// A private scratch directory under the build directory of `root`
/// (`CARGO_TARGET_DIR`, else `target`), created empty.
pub fn scratch_dir(root: &Path, tag: &str) -> std::io::Result<PathBuf> {
    let build =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d));
    let dir = build
        .join("benchmark-scratch")
        .join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Parsed command line of a workload run.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: benchmark --workload <fleet-distinct|fleet-whatif|sweep|offline> --seed <n> \
     [--seconds <s>] [--trace <0|1>] [--spans <file>]\n       \
     benchmark compare <runs-A.jsonl> <runs-B.jsonl>"
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--spans" => parsed.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload `{}`", parsed.workload));
    }
    parsed.seed = seed.ok_or("--seed is required")?;
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

/// Runs one workload, untraced or traced, and returns its report.
fn run_workload(args: &Args, run: Run, root: &Path, scratch: &Path) -> Report {
    let (seed, trace) = (args.seed, args.trace);
    let mut tracer = spans::Tracer::default();
    let mut report = match args.workload.as_str() {
        "fleet-distinct" | "fleet-whatif" => {
            let mix = if args.workload == "fleet-distinct" {
                fleet::Mix::Distinct
            } else {
                fleet::Mix::Whatif
            };
            if trace {
                layers::fleet(mix, seed, run, root, scratch, &mut tracer)
            } else {
                fleet::run(mix, seed, run, root, scratch)
            }
        }
        "sweep" if trace => layers::sweep(seed, run, &mut tracer),
        "sweep" => sweep::run(seed, run),
        _ if trace => layers::offline(seed, run, &mut tracer),
        _ => offline::run(seed, run),
    };
    if !args.trace {
        match stats::peak_rss_mb() {
            Some(mb) => report.metric("peak_rss_mb", mb, "MiB"),
            None => report.problem("peak RSS is unavailable (no /proc/self/status)"),
        }
    }
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, tracer.to_json()) {
            report.problem(&format!("writing spans to {}: {e}", path.display()));
        }
    }
    report
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => match compare::run(Path::new(a), Path::new(b)) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("benchmark compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(root) = std::env::current_dir().ok().as_deref().and_then(find_root) else {
        eprintln!("benchmark: run from a repository checkout (results/golden_fleet not found)");
        return ExitCode::from(2);
    };
    let scratch = match scratch_dir(&root, &args.workload) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("benchmark: cannot create a scratch directory: {e}");
            return ExitCode::from(2);
        }
    };

    // The offline pool reads the worker count from the environment, set
    // before any pool work starts.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("HELIO_THREADS", WORKERS.to_string());
    println!(
        "# benchmark workload={} seed={} seconds={} trace={} workers={WORKERS} check_workers={CHECK_WORKERS} host_cores={host_cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let run = Run::timed(Duration::from_secs_f64(args.seconds));
    let mut report = run_workload(&args, run, &root, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);

    for (name, value, unit) in report.metrics.iter().chain(&report.notes) {
        println!("{name} {value} {unit}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let json = report.json_line(table);
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    println!("{json}");
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize as _;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_the_workload_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "sweep",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "sweep".into(),
                seed: 7,
                seconds: 10.0,
                trace: true,
                spans: None,
            }
        );
        assert!(parse_args(&strings(&["--workload", "sweep"])).is_err());
        assert!(parse_args(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "sweep",
            "--seed",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "sweep",
            "--seed",
            "1",
            "--seconds",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn json_line_carries_exactly_the_table() {
        let mut r = Report::default();
        for def in END_TO_END {
            r.metric(def.name, 1.5, def.unit);
        }
        r.metric("extra", 2.0, "s");
        r.attempted = 3;
        let line = r.json_line(END_TO_END);
        let v = serde_json::parse_value(&line).expect("valid JSON");
        assert_eq!(
            v.field("correct").expect("correct"),
            &serde::Value::Bool(true)
        );
        let serde::Value::Obj(metrics) = v.field("metrics").expect("metrics") else {
            panic!("metrics is an object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());

        // A missing metric fails the run.
        let mut r = Report::default();
        let line = r.json_line(END_TO_END);
        assert!(
            line.starts_with(r#"{"correct":false,"attempted":1,"#),
            "{line}"
        );
    }

    /// One smoke run of `workload`, untraced and traced: one warm-up
    /// operation, one set-up sample, one timed operation, through the
    /// same functions a full run uses.
    fn smoke(workload: &str) {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("inside the checkout");
        let scratch = scratch_dir(&root, &format!("test-{workload}")).expect("scratch dir");
        let run = Run {
            stop: Stop::Ops(1),
            smoke: true,
        };
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let args = Args {
                workload: workload.into(),
                seed: 3,
                seconds: 1.0,
                trace,
                spans: None,
            };
            let report = run_workload(&args, run, &root, &scratch);
            assert!(
                report.problems().is_empty(),
                "{workload} trace={trace}: {:?}",
                report.problems()
            );
            assert!(
                report.attempted > 0 && report.failed == 0,
                "{workload} trace={trace}"
            );
            for def in table {
                let v = report.value(def.name);
                assert!(
                    v.is_some_and(f64::is_finite),
                    "{workload} trace={trace}: {} = {v:?}",
                    def.name
                );
            }
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "trains and distils a DBN; run with --release"
    )]
    fn fleet_distinct_smoke() {
        smoke("fleet-distinct");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "trains and distils a DBN; run with --release"
    )]
    fn fleet_whatif_smoke() {
        smoke("fleet-whatif");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "simulates the paper grid; run with --release"
    )]
    fn sweep_smoke() {
        smoke("sweep");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "trains and distils a DBN; run with --release"
    )]
    fn offline_smoke() {
        smoke("offline");
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let Some(root) = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))) else {
            return;
        };
        let Ok(text) = std::fs::read_to_string(root.join("BENCHMARK.json")) else {
            return;
        };
        let v = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let entries = |key: &str| v.field(key).expect(key).as_array().expect("array").to_vec();
        let text_of = |m: &serde::Value, field: &str| {
            m.field(field)
                .expect(field)
                .as_str()
                .expect("str")
                .to_string()
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = entries(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (m, def) in listed.iter().zip(table) {
                assert_eq!(text_of(m, "name"), def.name, "{key}");
                assert_eq!(text_of(m, "unit"), def.unit, "{}", def.name);
                assert_eq!(text_of(m, "better"), "lower", "{}", def.name);
                let bound = m
                    .field("bound")
                    .ok()
                    .map(|b| f64::deserialize_json(b).expect("number"));
                assert_eq!(bound, def.bound, "{}", def.name);
            }
        }
        let workloads: Vec<String> = entries("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
