//! Order statistics for latency samples and across-run summaries.

/// Nearest-rank percentile `p` (0..=100) of an ascending-sorted sample:
/// the smallest value with at least `p`% of the sample at or below it.
/// `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` in a sample of `n >= 1`.
/// `p * n` is exact for the integral `p` used here, so the ceiling
/// never rounds up past an exact rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the nearest-rank percentile
/// `p` of a sample of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The tail percentile a sample of `n` supports: the highest of
/// 99, 95, 90, 75 and 50 with at least ten samples beyond it, or `None`
/// when even the median has fewer than ten.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
}

/// Median as Python's `statistics.median` computes it (mean of the two
/// middle values for an even count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method). `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: the clamp can put `j * 4` above `i * m`.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: p99 leaves 9, so p95 is the highest supported.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        // The rule holds at every size it answers for.
        for n in 1..2000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= 10, "n = {n}, p = {p}");
            }
        }
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
