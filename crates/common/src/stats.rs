//! Summary statistics used by the experiment harnesses and tests.

/// Arithmetic mean; returns `0.0` for an empty slice (the experiment
/// harnesses average over possibly-empty period sets).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population standard deviation; `0.0` for fewer than two samples.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Minimum of a slice, `None` when empty or when any element is NaN.
pub fn min(values: &[f64]) -> Option<f64> {
    if values.iter().any(|v| v.is_nan()) {
        return None;
    }
    values.iter().copied().reduce(f64::min)
}

/// Maximum of a slice, `None` when empty or when any element is NaN.
pub fn max(values: &[f64]) -> Option<f64> {
    if values.iter().any(|v| v.is_nan()) {
        return None;
    }
    values.iter().copied().reduce(f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_handles_empty_and_values() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn std_dev_of_constant_is_zero() {
        assert_eq!(std_dev(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_reject_nan() {
        assert_eq!(min(&[2.0, 1.0]), Some(1.0));
        assert_eq!(max(&[2.0, 1.0]), Some(2.0));
        assert_eq!(min(&[f64::NAN, 1.0]), None);
        assert_eq!(max(&[]), None);
    }
}
