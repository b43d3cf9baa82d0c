//! Min–max feature scaling into `[0, 1]`, which both the RBM (whose
//! visible units are probabilities) and the sigmoid output layer need.
//! The scaler is fitted on a sample [`Matrix`] and maps one sample
//! slice into a pre-sized output slice, in either direction.

use serde::{Deserialize, Serialize};

use crate::error::AnnError;
use crate::matrix::Matrix;

/// Per-feature min–max scaler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl MinMaxScaler {
    /// Fits the scaler to a sample matrix (one sample per row) in one
    /// ascending row/feature scan.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadTrainingSet`] when the matrix has no
    /// rows or contains non-finite values.
    pub fn fit_matrix(samples: &Matrix) -> Result<Self, AnnError> {
        if samples.rows() == 0 {
            return Err(AnnError::BadTrainingSet("no samples".into()));
        }
        let dim = samples.cols();
        let mut mins = vec![f64::INFINITY; dim];
        let mut maxs = vec![f64::NEG_INFINITY; dim];
        for r in 0..samples.rows() {
            for (i, &v) in samples.row(r).iter().enumerate() {
                if !v.is_finite() {
                    return Err(AnnError::BadTrainingSet("non-finite feature".into()));
                }
                mins[i] = mins[i].min(v);
                maxs[i] = maxs[i].max(v);
            }
        }
        Ok(Self { mins, maxs })
    }

    /// Number of features.
    pub fn dim(&self) -> usize {
        self.mins.len()
    }

    /// Fitted per-feature minima (compile-time affine folding and
    /// distillation samplers read these; see `crate::compiled` and
    /// `crate::distill`).
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// Fitted per-feature maxima.
    pub fn maxs(&self) -> &[f64] {
        &self.maxs
    }

    /// Scales one sample into `[0, 1]` (constant features map to 0.5),
    /// writing into a pre-sized slice (a scratch buffer or a matrix
    /// row).
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when either slice has
    /// the wrong feature count.
    pub fn transform_slice(&self, sample: &[f64], out: &mut [f64]) -> Result<(), AnnError> {
        if sample.len() != self.dim() || out.len() != self.dim() {
            return Err(AnnError::dims(
                format!("{} features", self.dim()),
                format!("{} in / {} out", sample.len(), out.len()),
            ));
        }
        for (i, (o, &v)) in out.iter_mut().zip(sample).enumerate() {
            let span = self.maxs[i] - self.mins[i];
            *o = if span <= 0.0 {
                0.5
            } else {
                ((v - self.mins[i]) / span).clamp(0.0, 1.0)
            };
        }
        Ok(())
    }

    /// Inverse of [`MinMaxScaler::transform_slice`], from `[0, 1]`
    /// back to the original range, writing into a pre-sized slice.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when either slice has
    /// the wrong feature count.
    pub fn inverse_slice(&self, scaled: &[f64], out: &mut [f64]) -> Result<(), AnnError> {
        if scaled.len() != self.dim() || out.len() != self.dim() {
            return Err(AnnError::dims(
                format!("{} features", self.dim()),
                format!("{} in / {} out", scaled.len(), out.len()),
            ));
        }
        for (i, (o, &v)) in out.iter_mut().zip(scaled).enumerate() {
            let span = self.maxs[i] - self.mins[i];
            *o = if span <= 0.0 {
                self.mins[i]
            } else {
                self.mins[i] + v * span
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit(rows: &[Vec<f64>]) -> Result<MinMaxScaler, AnnError> {
        MinMaxScaler::fit_matrix(&Matrix::from_rows(rows)?)
    }

    fn transform(s: &MinMaxScaler, sample: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; s.dim()];
        s.transform_slice(sample, &mut out).unwrap();
        out
    }

    fn inverse(s: &MinMaxScaler, scaled: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; s.dim()];
        s.inverse_slice(scaled, &mut out).unwrap();
        out
    }

    #[test]
    fn round_trips() {
        let data = vec![vec![0.0, 10.0], vec![4.0, 20.0], vec![2.0, 15.0]];
        let s = fit(&data).unwrap();
        assert_eq!((s.mins(), s.maxs()), (&[0.0, 10.0][..], &[4.0, 20.0][..]));
        let t = transform(&s, &[2.0, 15.0]);
        assert!((t[0] - 0.5).abs() < 1e-12);
        assert!((t[1] - 0.5).abs() < 1e-12);
        let back = inverse(&s, &t);
        assert!((back[0] - 2.0).abs() < 1e-12);
        assert!((back[1] - 15.0).abs() < 1e-12);
    }

    #[test]
    fn clamps_out_of_range_queries() {
        let s = fit(&[vec![0.0], vec![1.0]]).unwrap();
        assert_eq!(transform(&s, &[5.0])[0], 1.0);
        assert_eq!(transform(&s, &[-5.0])[0], 0.0);
    }

    #[test]
    fn constant_features_map_to_half() {
        let s = fit(&[vec![7.0], vec![7.0]]).unwrap();
        assert_eq!(transform(&s, &[7.0])[0], 0.5);
        assert_eq!(inverse(&s, &[0.9])[0], 7.0);
    }

    #[test]
    fn validation() {
        assert!(MinMaxScaler::fit_matrix(&Matrix::zeros(0, 3)).is_err());
        assert!(fit(&[vec![f64::NAN]]).is_err());
        let s = fit(&[vec![0.0, 1.0]]).unwrap();
        let mut out = [0.0; 2];
        assert!(s.transform_slice(&[1.0], &mut out).is_err());
        assert!(s.transform_slice(&[1.0, 2.0], &mut out[..1]).is_err());
        assert!(s.inverse_slice(&[1.0, 2.0, 3.0], &mut out).is_err());
        assert!(s.inverse_slice(&[1.0, 2.0], &mut out[..1]).is_err());
    }
}
