//! `benchmark compare <runs-A.jsonl> <runs-B.jsonl>`: each file holds
//! the final JSON lines of runs of one workload (other lines are
//! skipped), A being the baseline. For every metric in both it prints
//! each side's median and quartiles, B's change against A, how many
//! run pairs (line k of A against line k of B) B wins, and a flag when
//! B is worse than A by more than the metric's bound or a side's own
//! quartile spread exceeds that bound.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use serde::{Deserialize, Value};

use crate::{metric_def, stats};

/// The runs of one file: per metric, its values in line order.
#[derive(Debug, Default)]
struct Runs {
    count: usize,
    incorrect: usize,
    failed: u64,
    metrics: BTreeMap<String, Vec<f64>>,
}

fn parse(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::default();
    for line in text.lines().filter(|l| l.starts_with(r#"{"correct""#)) {
        let v = serde_json::parse_value(line).map_err(|e| format!("bad run line: {e}"))?;
        runs.count += 1;
        if v.field("correct").ok() != Some(&Value::Bool(true)) {
            runs.incorrect += 1;
        }
        runs.failed += v
            .field("failed")
            .ok()
            .and_then(|f| u64::deserialize_json(f).ok())
            .unwrap_or(0);
        let Ok(Value::Obj(metrics)) = v.field("metrics") else {
            return Err("run line without a metrics object".into());
        };
        for (name, m) in metrics {
            let value = m
                .field("value")
                .ok()
                .and_then(|x| f64::deserialize_json(x).ok())
                .ok_or_else(|| format!("metric {name} has no numeric value"))?;
            runs.metrics.entry(name.clone()).or_default().push(value);
        }
    }
    if runs.count == 0 {
        return Err("no run lines (lines starting with {\"correct\")".into());
    }
    Ok(runs)
}

/// Median, first and third quartile, and quartile spread over the
/// median of `v`.
fn summary(v: &[f64]) -> (f64, f64, f64, f64) {
    let med = stats::median(v).unwrap_or(f64::NAN);
    let (q1, q3) = stats::quartiles(v).unwrap_or((med, med));
    (med, q1, q3, (q3 - q1) / med.abs())
}

/// `x` with five significant digits.
fn num(x: f64) -> String {
    if x != 0.0 && x.abs() < 0.01 {
        format!("{x:.4e}")
    } else {
        format!("{x:.5}")
    }
}

/// The comparison report for the two files' contents.
pub fn report(a_text: &str, b_text: &str) -> Result<String, String> {
    let (a, b) = (parse(a_text)?, parse(b_text)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "A: {} runs ({} incorrect, {} failed ops)   B: {} runs ({} incorrect, {} failed ops)",
        a.count, a.incorrect, a.failed, b.count, b.incorrect, b.failed
    );
    let _ = writeln!(
        out,
        "{:<40} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6} {:>6}  verdict",
        "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B vs A", "bound", "B wins"
    );
    for (name, av) in &a.metrics {
        let Some(bv) = b.metrics.get(name) else {
            continue;
        };
        let (am, aq1, aq3, aspread) = summary(av);
        let (bm, bq1, bq3, bspread) = summary(bv);
        // Every metric is better lower; positive = B is worse than A.
        let worse = bm / am - 1.0;
        let wins = av.iter().zip(bv).filter(|(x, y)| y < x).count();
        let pairs = av.len().min(bv.len());
        let bound = metric_def(name).and_then(|d| d.bound);
        let verdict = match bound {
            None => "-".to_string(),
            Some(bound) if aspread > bound || bspread > bound => {
                "unresolved: spread above bound".into()
            }
            Some(bound) if worse > bound => format!("REGRESSION: {:.1}% worse", worse * 100.0),
            Some(_) => "within bound".into(),
        };
        let _ = writeln!(
            out,
            "{:<40} {:>12} {:>25} {:>12} {:>25} {:>+7.2}% {:>6} {:>6}  {}",
            name,
            num(am),
            format!("{}..{}", num(aq1), num(aq3)),
            num(bm),
            format!("{}..{}", num(bq1), num(bq3)),
            worse * 100.0,
            bound.map_or_else(|| "-".to_string(), |b| format!("{:.2}%", b * 100.0)),
            format!("{wins}/{pairs}"),
            verdict
        );
    }
    Ok(out)
}

/// Reads both files and returns [`report`]'s text.
pub fn run(a: &Path, b: &Path) -> Result<String, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    report(&read(a)?, &read(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(p10: f64, setup: f64) -> String {
        format!(
            r#"{{"correct":true,"attempted":10,"failed":0,"metrics":{{"p10_ms":{{"value":{p10},"unit":"ms"}},"setup_s":{{"value":{setup},"unit":"s"}}}}}}"#
        )
    }

    #[test]
    fn flags_a_regression_beyond_the_bound() {
        let a: Vec<String> = (0..10)
            .map(|i| line(100.0 + f64::from(i) * 0.1, 1.0))
            .collect();
        let b: Vec<String> = (0..10)
            .map(|i| line(130.0 + f64::from(i) * 0.1, 1.0))
            .collect();
        let text = report(&a.join("\n"), &format!("noise\n{}", b.join("\n"))).expect("parses");
        let p10 = text
            .lines()
            .find(|l| l.starts_with("p10_ms"))
            .expect("p10 row");
        assert!(p10.contains("REGRESSION"), "{p10}");
        assert!(p10.contains("0/10"), "{p10}");
        let setup = text
            .lines()
            .find(|l| l.starts_with("setup_s"))
            .expect("setup row");
        assert!(setup.contains("within bound"), "{setup}");
    }

    #[test]
    fn an_improvement_is_within_bound_and_wins_pairs() {
        let a: Vec<String> = (0..10)
            .map(|i| line(100.0 + f64::from(i) * 0.1, 1.0))
            .collect();
        let b: Vec<String> = (0..10)
            .map(|i| line(90.0 + f64::from(i) * 0.1, 1.0))
            .collect();
        let text = report(&a.join("\n"), &b.join("\n")).expect("parses");
        let p10 = text
            .lines()
            .find(|l| l.starts_with("p10_ms"))
            .expect("p10 row");
        assert!(
            p10.contains("within bound") && p10.contains("10/10"),
            "{p10}"
        );
        assert!(report("", &b.join("\n")).is_err());
    }
}
