//! Small numerical routines used by the offline optimisation pipeline:
//! golden-section search (capacitor sizing, Eq. 10), 1-D k-means
//! (clustering per-day optimal capacitances into `H` sizes), and linear
//! interpolation (regulator-efficiency table lookups).

use crate::error::{CommonError, Result};

/// Golden-ratio constant `(√5 − 1) / 2`.
const INV_PHI: f64 = 0.618_033_988_749_894_9;

/// Minimises a unimodal function `f` over `[lo, hi]` by golden-section
/// search and returns `(argmin, min)`.
///
/// The routine performs `iters` shrink steps; 60 steps shrink the bracket
/// by ~1e-12, far below the physical resolution this workspace needs.
///
/// # Errors
///
/// Returns [`CommonError::InvalidArgument`] when the bracket is empty or
/// not finite.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), helio_common::CommonError> {
/// let (x, y) = helio_common::math::golden_section_min(0.0, 10.0, 80, |x| (x - 3.0).powi(2))?;
/// assert!((x - 3.0).abs() < 1e-6);
/// assert!(y < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn golden_section_min(
    lo: f64,
    hi: f64,
    iters: usize,
    mut f: impl FnMut(f64) -> f64,
) -> Result<(f64, f64)> {
    if !(lo.is_finite() && hi.is_finite()) || lo >= hi {
        return Err(CommonError::InvalidArgument(format!(
            "golden-section bracket must be finite and nonempty (got [{lo}, {hi}])"
        )));
    }
    let (mut a, mut b) = (lo, hi);
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..iters {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = f(d);
        }
    }
    let x = 0.5 * (a + b);
    let y = f(x);
    Ok((x, y))
}

/// Minimises `f` over a logarithmically spaced grid on `[lo, hi]` and then
/// refines around the best grid point with golden-section search.
///
/// Useful when `f` is *not* unimodal over the whole bracket (capacitor
/// sizing cost surfaces can have a plateau at the leakage/efficiency
/// crossover) but is locally well-behaved.
///
/// # Errors
///
/// Propagates [`CommonError::InvalidArgument`] for empty brackets; also
/// rejects non-positive `lo` since the grid is logarithmic.
pub fn log_grid_then_golden_min(
    lo: f64,
    hi: f64,
    grid_points: usize,
    iters: usize,
    mut f: impl FnMut(f64) -> f64,
) -> Result<(f64, f64)> {
    if lo <= 0.0 {
        return Err(CommonError::InvalidArgument(format!(
            "log grid requires positive lower bound (got {lo})"
        )));
    }
    if grid_points < 2 {
        return Err(CommonError::InvalidArgument(
            "log grid requires at least two points".into(),
        ));
    }
    if !(lo.is_finite() && hi.is_finite()) || lo >= hi {
        return Err(CommonError::InvalidArgument(format!(
            "bracket must be finite and nonempty (got [{lo}, {hi}])"
        )));
    }
    let log_lo = lo.ln();
    let log_hi = hi.ln();
    let mut best_i = 0usize;
    let mut best_y = f64::INFINITY;
    let xs: Vec<f64> = (0..grid_points)
        .map(|i| (log_lo + (log_hi - log_lo) * i as f64 / (grid_points - 1) as f64).exp())
        .collect();
    for (i, &x) in xs.iter().enumerate() {
        let y = f(x);
        if y < best_y {
            best_y = y;
            best_i = i;
        }
    }
    let a = if best_i == 0 { xs[0] } else { xs[best_i - 1] };
    let b = if best_i + 1 == xs.len() {
        xs[best_i]
    } else {
        xs[best_i + 1]
    };
    if a >= b {
        return Ok((xs[best_i], best_y));
    }
    golden_section_min(a, b, iters, f)
}

/// One-dimensional k-means (Lloyd's algorithm) with deterministic quantile
/// initialisation. Returns the `k` cluster centres in ascending order.
///
/// Used to cluster the per-day optimal capacitances `{C_i^opt}` into the
/// `H` physical supercapacitor sizes (Section 4.1, step 3).
///
/// # Errors
///
/// Returns [`CommonError::InvalidArgument`] when `k == 0`, the input is
/// empty, or contains non-finite values.
pub fn kmeans_1d(values: &[f64], k: usize, iters: usize) -> Result<Vec<f64>> {
    if k == 0 {
        return Err(CommonError::InvalidArgument("k must be nonzero".into()));
    }
    if values.is_empty() {
        return Err(CommonError::InvalidArgument(
            "cannot cluster an empty set".into(),
        ));
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(CommonError::InvalidArgument("values must be finite".into()));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if k >= sorted.len() {
        // Degenerate: at most one point per cluster; centres are the points
        // themselves (deduplicated by position, padded by repetition).
        let last = sorted[sorted.len() - 1];
        let mut centres = sorted;
        centres.resize(k, last);
        return Ok(centres);
    }
    // Quantile initialisation: centre c_i at the (i + ½)/k quantile.
    let mut centres: Vec<f64> = (0..k)
        .map(|i| {
            let q = (i as f64 + 0.5) / k as f64;
            let pos = q * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        })
        .collect();
    let mut assign = vec![0usize; sorted.len()];
    for _ in 0..iters {
        let mut changed = false;
        for (vi, &v) in sorted.iter().enumerate() {
            // `k > 0`, so there is always a nearest centre.
            let (best, _) = centres
                .iter()
                .enumerate()
                .map(|(ci, &c)| (ci, (v - c).abs()))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap_or((0, 0.0));
            if assign[vi] != best {
                assign[vi] = best;
                changed = true;
            }
        }
        let mut sums = vec![0.0f64; k];
        let mut counts = vec![0usize; k];
        for (vi, &v) in sorted.iter().enumerate() {
            sums[assign[vi]] += v;
            counts[assign[vi]] += 1;
        }
        for ci in 0..k {
            if counts[ci] > 0 {
                centres[ci] = sums[ci] / counts[ci] as f64;
            }
        }
        if !changed {
            break;
        }
    }
    centres.sort_by(f64::total_cmp);
    Ok(centres)
}

/// Piecewise-linear interpolation through `(x, y)` knots.
///
/// `xs` must be strictly increasing. Queries outside the knot range clamp
/// to the boundary values (regulator-efficiency curves saturate outside
/// their measured window).
///
/// # Panics
///
/// Panics when `xs` and `ys` differ in length or are empty — the knot
/// tables in this workspace are compile-time constants, so this is a
/// programming error rather than a runtime condition.
pub fn lerp_table(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    assert_eq!(xs.len(), ys.len(), "knot arrays must match");
    assert!(!xs.is_empty(), "knot arrays must be nonempty");
    if x <= xs[0] {
        return ys[0];
    }
    if x >= xs[xs.len() - 1] {
        return ys[ys.len() - 1];
    }
    // Bracketing interval `xs[lo] <= x < xs[lo + 1]`: with strictly
    // increasing knots, `lo` is the number of interior knots `<= x`.
    // Counting is branch-free, where a binary search over the handful
    // of regulator knots mispredicts on every query.
    let lo = xs[1..xs.len() - 1].iter().filter(|&&k| k <= x).count();
    let hi = lo + 1;
    let t = (x - xs[lo]) / (xs[hi] - xs[lo]);
    ys[lo] + t * (ys[hi] - ys[lo])
}

/// Smoothstep `3t² − 2t³` clamped to `[0, 1]`; used for smooth dawn/dusk
/// transitions in the solar archetypes.
pub fn smoothstep(t: f64) -> f64 {
    let t = t.clamp(0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_section_finds_parabola_min() {
        let (x, y) = golden_section_min(-10.0, 10.0, 80, |x| (x - 2.5).powi(2) + 1.0).unwrap();
        assert!((x - 2.5).abs() < 1e-6);
        assert!((y - 1.0).abs() < 1e-10);
    }

    #[test]
    fn golden_section_rejects_bad_bracket() {
        assert!(golden_section_min(1.0, 1.0, 10, |x| x).is_err());
        assert!(golden_section_min(f64::NAN, 1.0, 10, |x| x).is_err());
    }

    #[test]
    fn log_grid_handles_multimodal() {
        // Two dips; global min near x = 100.
        let f = |x: f64| {
            let d1 = ((x.ln() - 1.0f64.ln()) / 0.3).powi(2);
            let d2 = ((x.ln() - 100.0f64.ln()) / 0.3).powi(2);
            (-d1).exp().mul_add(-1.0, 0.0) + (-d2).exp().mul_add(-2.0, 0.0) + 3.0
        };
        let (x, _) = log_grid_then_golden_min(0.1, 1000.0, 64, 60, f).unwrap();
        assert!((x - 100.0).abs() / 100.0 < 0.05, "got {x}");
    }

    #[test]
    fn log_grid_rejects_nonpositive_lo() {
        assert!(log_grid_then_golden_min(0.0, 1.0, 8, 8, |x| x).is_err());
        assert!(log_grid_then_golden_min(1.0, 1.0, 8, 8, |x| x).is_err());
        assert!(log_grid_then_golden_min(1.0, 2.0, 1, 8, |x| x).is_err());
    }

    #[test]
    fn kmeans_separates_obvious_clusters() {
        let values = [1.0, 1.1, 0.9, 10.0, 10.2, 9.8, 100.0, 99.0, 101.0];
        let centres = kmeans_1d(&values, 3, 50).unwrap();
        assert!((centres[0] - 1.0).abs() < 0.2);
        assert!((centres[1] - 10.0).abs() < 0.5);
        assert!((centres[2] - 100.0).abs() < 1.5);
    }

    #[test]
    fn kmeans_degenerate_more_clusters_than_points() {
        let centres = kmeans_1d(&[5.0, 7.0], 4, 10).unwrap();
        assert_eq!(centres.len(), 4);
        assert!(centres.iter().all(|&c| c == 5.0 || c == 7.0));
    }

    #[test]
    fn kmeans_validates_input() {
        assert!(kmeans_1d(&[], 2, 10).is_err());
        assert!(kmeans_1d(&[1.0], 0, 10).is_err());
        assert!(kmeans_1d(&[f64::NAN], 1, 10).is_err());
    }

    #[test]
    fn lerp_interpolates_and_clamps() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 10.0, 0.0];
        assert!((lerp_table(&xs, &ys, 0.5) - 5.0).abs() < 1e-12);
        assert!((lerp_table(&xs, &ys, 1.5) - 5.0).abs() < 1e-12);
        assert_eq!(lerp_table(&xs, &ys, -1.0), 0.0);
        assert_eq!(lerp_table(&xs, &ys, 5.0), 0.0);
    }

    #[test]
    fn smoothstep_endpoints_and_midpoint() {
        assert_eq!(smoothstep(-1.0), 0.0);
        assert_eq!(smoothstep(2.0), 1.0);
        assert!((smoothstep(0.5) - 0.5).abs() < 1e-12);
        assert!(smoothstep(0.25) < 0.25); // ease-in
    }
}
