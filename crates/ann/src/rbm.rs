//! Restricted Boltzmann machine with CD-1 (one-step contrastive
//! divergence) training — the unsupervised layers of the paper's DBN
//! (Fig. 6, Eq. 20–21). Training sweeps a sample [`Matrix`]; every
//! per-sample step writes into reused buffers.

use helio_common::rng::DetRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::AnnError;
use crate::matrix::{axpy_diff, sigmoid_bias_into, Matrix};

/// Reusable buffers for [`Rbm::cd1_step_into`]: the four intermediate
/// vectors of one CD-1 step. Construct once, thread through every step
/// of a training run, and the whole run stops allocating after the
/// first sample (the trainer's zero-alloc gate relies on this).
#[derive(Debug, Default)]
pub struct RbmTrainScratch {
    h_pos: Vec<f64>,
    h_sample: Vec<f64>,
    v_neg: Vec<f64>,
    h_neg: Vec<f64>,
}

/// A restricted Boltzmann machine with `visible × hidden` weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rbm {
    /// Weights, `hidden × visible` (row `h` holds the weights into
    /// hidden unit `h`).
    weights: Matrix,
    hidden_bias: Vec<f64>,
    visible_bias: Vec<f64>,
}

impl Rbm {
    /// Creates an RBM with small random weights.
    pub fn new(visible: usize, hidden: usize, rng: &mut DetRng) -> Self {
        Self {
            weights: Matrix::random(hidden, visible, 0.1, rng),
            hidden_bias: vec![0.0; hidden],
            visible_bias: vec![0.0; visible],
        }
    }

    /// The learned weights (`hidden × visible`) — handed to the BP
    /// network during DBN assembly.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The learned hidden biases.
    pub fn hidden_bias(&self) -> &[f64] {
        &self.hidden_bias
    }

    /// Hidden activation probabilities `P(h=1 | v)` (Eq. 21's sigmoid
    /// form), written into a reused buffer.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for wrong input sizes.
    pub fn hidden_probs_into(&self, visible: &[f64], out: &mut Vec<f64>) -> Result<(), AnnError> {
        self.weights.matvec_into(visible, out)?;
        sigmoid_bias_into(out, &self.hidden_bias);
        Ok(())
    }

    /// [`Rbm::hidden_probs_into`] over a sample matrix (one sample per
    /// row) as one blocked matrix product — the feature-extraction step
    /// that feeds each pre-trained RBM's activations to the next layer.
    /// Bitwise identical to mapping [`Rbm::hidden_probs_into`] per
    /// sample.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for wrong-width inputs.
    pub fn hidden_probs_batch_matrix(&self, visibles: &Matrix) -> Result<Matrix, AnnError> {
        let mut z = visibles.matmul_bt(&self.weights)?;
        for r in 0..z.rows() {
            sigmoid_bias_into(z.row_mut(r), &self.hidden_bias);
        }
        Ok(z)
    }

    /// Visible reconstruction probabilities `P(v=1 | h)`, written into
    /// a reused buffer.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for wrong input sizes.
    pub fn visible_probs_into(&self, hidden: &[f64], out: &mut Vec<f64>) -> Result<(), AnnError> {
        self.weights.matvec_t_into(hidden, out)?;
        sigmoid_bias_into(out, &self.visible_bias);
        Ok(())
    }

    /// One CD-1 update on a single sample with learning rate `lr`,
    /// through caller-provided scratch; returns the reconstruction
    /// error (squared distance). The RNG stream does not depend on the
    /// scratch, and no heap allocation happens once the buffers have
    /// grown to this RBM's shape.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for wrong input sizes.
    pub fn cd1_step_into(
        &mut self,
        visible: &[f64],
        lr: f64,
        rng: &mut DetRng,
        scratch: &mut RbmTrainScratch,
    ) -> Result<f64, AnnError> {
        // Positive phase.
        self.hidden_probs_into(visible, &mut scratch.h_pos)?;
        // Sample hidden states (one RNG draw per hidden unit, in
        // order — the stream the fixed-seed golden weights pin).
        scratch.h_sample.clear();
        scratch.h_sample.extend(scratch.h_pos.iter().map(|&p| {
            if rng.gen::<f64>() < p {
                1.0
            } else {
                0.0
            }
        }));
        // Negative phase: reconstruct and re-infer.
        self.visible_probs_into(&scratch.h_sample, &mut scratch.v_neg)?;
        self.hidden_probs_into(&scratch.v_neg, &mut scratch.h_neg)?;
        // Weight update: lr · (h⁺ vᵀ − h⁻ v̂ᵀ), both phases fused into
        // one sweep over the weight tiles.
        self.weights.rank1_pair_update(
            &scratch.h_pos,
            visible,
            lr,
            &scratch.h_neg,
            &scratch.v_neg,
            -lr,
        )?;
        axpy_diff(&mut self.hidden_bias, lr, &scratch.h_pos, &scratch.h_neg);
        axpy_diff(&mut self.visible_bias, lr, visible, &scratch.v_neg);
        Ok(visible
            .iter()
            .zip(&scratch.v_neg)
            .map(|(a, b)| (a - b) * (a - b))
            .sum())
    }

    /// Trains on a sample matrix (one sample per row) for `epochs`
    /// sweeps in row order; returns the mean reconstruction error of
    /// the final epoch. One scratch set serves the whole run, so after
    /// the first sample no step allocates.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadTrainingSet`] for an empty set and
    /// propagates dimension mismatches.
    pub fn train_matrix(
        &mut self,
        samples: &Matrix,
        epochs: usize,
        lr: f64,
        rng: &mut DetRng,
    ) -> Result<f64, AnnError> {
        let n = samples.rows();
        if n == 0 {
            return Err(AnnError::BadTrainingSet("no samples for RBM".into()));
        }
        let mut scratch = RbmTrainScratch::default();
        let mut last = 0.0;
        for _ in 0..epochs {
            last = 0.0;
            for i in 0..n {
                last += self.cd1_step_into(samples.row(i), lr, rng, &mut scratch)?;
            }
            last /= n as f64;
        }
        Ok(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helio_common::rng::seeded;

    /// Two binary prototype patterns the RBM should learn to
    /// reconstruct.
    fn patterns() -> Matrix {
        let a = vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0];
        let b = vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let mut rows = Vec::new();
        for _ in 0..20 {
            rows.push(a.clone());
            rows.push(b.clone());
        }
        Matrix::from_rows(&rows).unwrap()
    }

    fn hidden_probs(rbm: &Rbm, visible: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        rbm.hidden_probs_into(visible, &mut out).unwrap();
        out
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let mut rng = seeded(1);
        let mut rbm = Rbm::new(6, 4, &mut rng);
        let data = patterns();
        let before = rbm.train_matrix(&data, 1, 0.2, &mut rng).unwrap();
        let after = rbm.train_matrix(&data, 60, 0.2, &mut rng).unwrap();
        assert!(
            after < 0.5 * before,
            "reconstruction error should drop: {before} -> {after}"
        );
        assert!(after < 0.3, "final error {after} too high");
    }

    #[test]
    fn learned_rbm_separates_patterns() {
        let mut rng = seeded(2);
        let mut rbm = Rbm::new(6, 4, &mut rng);
        rbm.train_matrix(&patterns(), 80, 0.2, &mut rng).unwrap();
        let ha = hidden_probs(&rbm, &[1.0, 1.0, 1.0, 0.0, 0.0, 0.0]);
        let hb = hidden_probs(&rbm, &[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let dist: f64 = ha
            .iter()
            .zip(&hb)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 0.5, "hidden codes too close: {dist}");
    }

    #[test]
    fn probabilities_stay_in_unit_interval() {
        let mut rng = seeded(3);
        let rbm = Rbm::new(5, 3, &mut rng);
        let h = hidden_probs(&rbm, &[0.2, 0.9, 0.1, 0.5, 0.7]);
        assert!(h.iter().all(|&p| (0.0..=1.0).contains(&p)));
        let mut v = Vec::new();
        rbm.visible_probs_into(&h, &mut v).unwrap();
        assert!(v.iter().all(|&p| (0.0..=1.0).contains(&p)));
        assert_eq!(h.len(), 3);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn dimension_checks() {
        let mut rng = seeded(4);
        let mut rbm = Rbm::new(5, 3, &mut rng);
        let mut out = Vec::new();
        assert!(rbm.hidden_probs_into(&[0.0; 4], &mut out).is_err());
        assert!(rbm.visible_probs_into(&[0.0; 5], &mut out).is_err());
        let mut scratch = RbmTrainScratch::default();
        assert!(rbm
            .cd1_step_into(&[0.0; 2], 0.1, &mut rng, &mut scratch)
            .is_err());
        assert!(rbm
            .train_matrix(&Matrix::zeros(0, 5), 1, 0.1, &mut rng)
            .is_err());
        assert!(rbm.hidden_probs_batch_matrix(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn hidden_probs_batch_is_bitwise_per_sample() {
        let mut rng = seeded(5);
        let rbm = Rbm::new(6, 4, &mut rng);
        let data = patterns();
        let batch = rbm.hidden_probs_batch_matrix(&data).unwrap();
        assert_eq!((batch.rows(), batch.cols()), (data.rows(), 4));
        for r in 0..data.rows() {
            assert_eq!(batch.row(r), hidden_probs(&rbm, data.row(r)).as_slice());
        }
        let empty = rbm.hidden_probs_batch_matrix(&Matrix::zeros(0, 6)).unwrap();
        assert_eq!(empty.rows(), 0);
    }

    #[test]
    fn training_is_deterministic() {
        let data = patterns();
        let run = || {
            let mut rng = seeded(9);
            let mut rbm = Rbm::new(6, 4, &mut rng);
            rbm.train_matrix(&data, 10, 0.2, &mut rng).unwrap();
            rbm
        };
        assert_eq!(run(), run());
    }
}
