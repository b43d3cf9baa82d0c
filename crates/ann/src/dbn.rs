//! The deep belief network of the paper's Fig. 6: a stack of RBMs
//! pre-trained greedily with CD-1 (the "hidden layers" extracting
//! features of the inputs), assembled into a feed-forward network whose
//! output ("visible") layers are fine-tuned with back-propagation.
//!
//! Training takes a packed [`TrainingSet`] ([`Dbn::train_set`]);
//! inference runs one sample through reused buffers
//! ([`Dbn::predict_into`]) or a whole batch as blocked matrix products
//! ([`Dbn::predict_batch_into`]).

use helio_common::rng::seeded;
use serde::{Deserialize, Serialize};

use crate::error::AnnError;
use crate::matrix::Matrix;
use crate::mlp::Mlp;
use crate::rbm::Rbm;
use crate::scaler::MinMaxScaler;
use crate::train::TrainingSet;

/// Training hyper-parameters of a [`Dbn`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DbnConfig {
    /// Hidden layer sizes (the RBM stack), e.g. `[16, 12]`.
    pub hidden: Vec<usize>,
    /// CD-1 epochs per RBM layer.
    pub rbm_epochs: usize,
    /// CD-1 learning rate.
    pub rbm_lr: f64,
    /// Back-propagation fine-tuning epochs.
    pub bp_epochs: usize,
    /// Back-propagation learning rate.
    pub bp_lr: f64,
    /// Deterministic seed for initialisation and CD sampling.
    pub seed: u64,
}

impl DbnConfig {
    /// A compact configuration adequate for the scheduler's ~20-input
    /// observation vectors; trains in well under a second.
    pub fn small(seed: u64) -> Self {
        Self {
            hidden: vec![16, 10],
            rbm_epochs: 30,
            rbm_lr: 0.1,
            bp_epochs: 600,
            bp_lr: 0.4,
            seed,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadConfig`] for empty/zero layers or
    /// non-positive learning rates.
    pub fn validate(&self) -> Result<(), AnnError> {
        if self.hidden.is_empty() || self.hidden.contains(&0) {
            return Err(AnnError::BadConfig(
                "hidden layer list must be nonempty with nonzero sizes".into(),
            ));
        }
        if self.rbm_lr <= 0.0 || self.bp_lr <= 0.0 {
            return Err(AnnError::BadConfig(
                "learning rates must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Reusable buffers for [`Dbn::predict_into`]: the scaled input, the
/// MLP's ping-pong activations, and the squashed output. One scratch
/// per call site makes steady-state inference allocation-free.
#[derive(Debug, Default, Clone)]
pub struct PredictScratch {
    x: Vec<f64>,
    hidden: Vec<f64>,
    y: Vec<f64>,
}

/// Reusable buffers for [`Dbn::predict_batch_into`]: the scaled input
/// batch and the MLP's ping-pong activation matrices. One scratch per
/// call site makes steady-state batched inference allocation-free once
/// the matrices have grown to the widest layer.
#[derive(Debug, Default, Clone)]
pub struct BatchPredictScratch {
    x: Matrix,
    hidden: Matrix,
    y: Matrix,
}

/// A trained DBN regressor with built-in input/output scaling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dbn {
    input_scaler: MinMaxScaler,
    output_scaler: MinMaxScaler,
    network: Mlp,
    final_loss: f64,
}

impl Dbn {
    /// Trains a DBN on a packed [`TrainingSet`]: greedy RBM
    /// pre-training of the hidden stack, then supervised BP fine-tuning
    /// of the whole network. The whole pipeline stays `Matrix`-native:
    /// scaler fit, transforms, CD-1 sweeps and back-propagation all
    /// read the packed rows in place, and the per-sample kernels reuse
    /// scratch buffers, so no stage clones the data set.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadTrainingSet`] for an empty set and
    /// [`AnnError::BadConfig`] for invalid hyper-parameters.
    pub fn train_set(set: &TrainingSet, cfg: &DbnConfig) -> Result<Self, AnnError> {
        cfg.validate()?;
        if set.is_empty() {
            return Err(AnnError::BadTrainingSet(format!(
                "{} inputs vs {} targets",
                set.len(),
                set.len()
            )));
        }
        let input_scaler = MinMaxScaler::fit_matrix(&set.inputs)?;
        let output_scaler = MinMaxScaler::fit_matrix(&set.targets)?;
        let n = set.len();
        let in_dim = input_scaler.dim();
        let out_dim = output_scaler.dim();
        let mut xs = Matrix::zeros(n, in_dim);
        for r in 0..n {
            input_scaler.transform_slice(set.inputs.row(r), xs.row_mut(r))?;
        }
        // Targets are squeezed into [0.05, 0.95] so the sigmoid output
        // layer can actually reach them.
        let mut ys = Matrix::zeros(n, out_dim);
        for r in 0..n {
            output_scaler.transform_slice(set.targets.row(r), ys.row_mut(r))?;
            for y in ys.row_mut(r) {
                *y = 0.05 + 0.9 * *y;
            }
        }

        let mut rng = seeded(cfg.seed);

        // Greedy unsupervised pre-training of the RBM stack.
        let mut rbms: Vec<Rbm> = Vec::with_capacity(cfg.hidden.len());
        let mut layer_input = xs.clone();
        let mut prev_dim = in_dim;
        for &h in &cfg.hidden {
            let mut rbm = Rbm::new(prev_dim, h, &mut rng);
            rbm.train_matrix(&layer_input, cfg.rbm_epochs, cfg.rbm_lr, &mut rng)?;
            // One blocked matmul instead of a matvec per sample;
            // bitwise identical to mapping `hidden_probs_into`.
            layer_input = rbm.hidden_probs_batch_matrix(&layer_input)?;
            prev_dim = h;
            rbms.push(rbm);
        }

        // Assemble the full network and load the pre-trained layers.
        let mut sizes = vec![in_dim];
        sizes.extend_from_slice(&cfg.hidden);
        sizes.push(out_dim);
        let mut network = Mlp::new(&sizes, &mut rng)?;
        for (i, rbm) in rbms.iter().enumerate() {
            network.load_layer(i, rbm.weights().clone(), rbm.hidden_bias().to_vec())?;
        }

        // Supervised fine-tuning.
        let final_loss = network.train_matrix(&xs, &ys, cfg.bp_epochs, cfg.bp_lr)?;

        Ok(Self {
            input_scaler,
            output_scaler,
            network,
            final_loss,
        })
    }

    /// Predicts the target vector for one raw (unscaled) input,
    /// writing it into `out` (resized to the output width) and reusing
    /// `scratch` for every intermediate, so repeated inference (the
    /// online planner calls this once per period) allocates nothing
    /// after the first call.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for wrong input sizes.
    pub fn predict_into(
        &self,
        input: &[f64],
        scratch: &mut PredictScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), AnnError> {
        scratch.x.resize(self.input_dim(), 0.0);
        self.input_scaler.transform_slice(input, &mut scratch.x)?;
        self.network
            .forward_into(&scratch.x, &mut scratch.hidden, &mut scratch.y)?;
        for v in scratch.y.iter_mut() {
            *v = ((*v - 0.05) / 0.9).clamp(0.0, 1.0);
        }
        out.resize(self.output_dim(), 0.0);
        self.output_scaler.inverse_slice(&scratch.y, out)
    }

    /// Batched [`Dbn::predict_into`]: one prediction per row of
    /// `inputs` (a `batch × input_dim` matrix of raw, unscaled
    /// features), written to the corresponding row of `out`. The whole
    /// batch goes through each network layer as a single blocked
    /// matrix product, so every row of `out` is bitwise identical to
    /// calling [`Dbn::predict_into`] on that row alone — batching is a
    /// pure throughput optimisation.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when `inputs` is not
    /// `batch × input_dim`.
    pub fn predict_batch_into(
        &self,
        inputs: &Matrix,
        scratch: &mut BatchPredictScratch,
        out: &mut Matrix,
    ) -> Result<(), AnnError> {
        if inputs.cols() != self.input_dim() {
            return Err(AnnError::dims(
                format!("{} input features", self.input_dim()),
                format!("{}", inputs.cols()),
            ));
        }
        let batch = inputs.rows();
        scratch.x.reset(batch, self.input_dim());
        for r in 0..batch {
            self.input_scaler
                .transform_slice(inputs.row(r), scratch.x.row_mut(r))?;
        }
        self.network
            .forward_batch_into(&scratch.x, &mut scratch.hidden, &mut scratch.y)?;
        for r in 0..batch {
            for v in scratch.y.row_mut(r) {
                *v = ((*v - 0.05) / 0.9).clamp(0.0, 1.0);
            }
        }
        out.reset(batch, self.output_dim());
        for r in 0..batch {
            self.output_scaler
                .inverse_slice(scratch.y.row(r), out.row_mut(r))?;
        }
        Ok(())
    }

    /// Mean training loss of the final fine-tuning epoch (scaled
    /// space).
    pub fn final_loss(&self) -> f64 {
        self.final_loss
    }

    /// The fitted input scaler: compile-time affine folding reads it
    /// (see `crate::compiled`) and distillation callers use its range
    /// to build trajectory samples inside the trained region (see
    /// `crate::distill`).
    pub fn input_scaler(&self) -> &MinMaxScaler {
        &self.input_scaler
    }

    /// The fitted output scaler.
    pub(crate) fn output_scaler(&self) -> &MinMaxScaler {
        &self.output_scaler
    }

    /// The fine-tuned network.
    pub(crate) fn network(&self) -> &Mlp {
        &self.network
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_scaler.dim()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.output_scaler.dim()
    }

    /// Serialises the trained network to JSON (deployable weights).
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadConfig`] when serialisation fails (should
    /// not happen for well-formed networks).
    pub fn to_json(&self) -> Result<String, AnnError> {
        serde_json::to_string(self).map_err(|e| AnnError::BadConfig(e.to_string()))
    }

    /// Restores a network serialised with [`Dbn::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadConfig`] for malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, AnnError> {
        serde_json::from_str(json).map_err(|e| AnnError::BadConfig(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(xs: &[Vec<f64>], ys: &[Vec<f64>], cfg: &DbnConfig) -> Result<Dbn, AnnError> {
        Dbn::train_set(&TrainingSet::from_rows(xs, ys)?, cfg)
    }

    fn predict(dbn: &Dbn, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        dbn.predict_into(x, &mut PredictScratch::default(), &mut out)
            .unwrap();
        out
    }

    /// A nonlinear two-input function mimicking the scheduler mapping
    /// (bounded inputs, bounded outputs).
    fn dataset() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                let a = i as f64 / 11.0;
                let b = j as f64 / 11.0;
                xs.push(vec![a * 50.0, b * 4.0 + 1.0]); // scheduler-like ranges
                ys.push(vec![(a * b).sqrt(), if a + b > 1.0 { 1.0 } else { 0.0 }]);
            }
        }
        (xs, ys)
    }

    #[test]
    fn learns_nonlinear_mapping() {
        let (xs, ys) = dataset();
        let dbn = train(&xs, &ys, &DbnConfig::small(3)).unwrap();
        assert!(dbn.final_loss() < 0.01, "loss {}", dbn.final_loss());
        // Spot-check a few points.
        let y = predict(&dbn, &[50.0, 5.0]); // a=1, b=1
        assert!(y[0] > 0.8, "sqrt(1·1) ≈ 1, got {}", y[0]);
        assert!(y[1] > 0.7, "threshold output should fire, got {}", y[1]);
        let y = predict(&dbn, &[0.0, 1.0]); // a=0, b=0
        assert!(y[0] < 0.25, "sqrt(0) ≈ 0, got {}", y[0]);
        assert!(
            y[1] < 0.35,
            "threshold output should stay low, got {}",
            y[1]
        );
    }

    #[test]
    fn pretraining_plus_bp_beats_tiny_bp_budget() {
        // With a small BP budget, RBM pre-training should help (or at
        // least not hurt): compare against a config with zero RBM epochs.
        let (xs, ys) = dataset();
        let mut with = DbnConfig::small(4);
        with.bp_epochs = 40;
        let mut without = with.clone();
        without.rbm_epochs = 0;
        let dbn_with = train(&xs, &ys, &with).unwrap();
        let dbn_without = train(&xs, &ys, &without).unwrap();
        assert!(
            dbn_with.final_loss() < dbn_without.final_loss() * 1.5,
            "pretrained {} vs cold {}",
            dbn_with.final_loss(),
            dbn_without.final_loss()
        );
    }

    #[test]
    fn training_is_deterministic() {
        let (xs, ys) = dataset();
        let a = train(&xs, &ys, &DbnConfig::small(5)).unwrap();
        let b = train(&xs, &ys, &DbnConfig::small(5)).unwrap();
        assert_eq!(predict(&a, &[25.0, 3.0]), predict(&b, &[25.0, 3.0]));
    }

    #[test]
    fn predict_into_is_bitwise_predict() {
        let (xs, ys) = dataset();
        let dbn = train(&xs, &ys, &DbnConfig::small(7)).unwrap();
        // One scratch and a stale, oversized output serve every call
        // and give the bits of a fresh call.
        let mut scratch = PredictScratch::default();
        let mut out = vec![9.0; 7];
        for x in xs.iter().step_by(17) {
            dbn.predict_into(x, &mut scratch, &mut out).unwrap();
            assert_eq!(out, predict(&dbn, x));
        }
        assert!(dbn.predict_into(&[1.0], &mut scratch, &mut out).is_err());
    }

    #[test]
    fn predict_batch_into_is_bitwise_per_row_predict() {
        let (xs, ys) = dataset();
        let dbn = train(&xs, &ys, &DbnConfig::small(8)).unwrap();
        let rows: Vec<Vec<f64>> = xs.iter().step_by(13).cloned().collect();
        let inputs = Matrix::from_rows(&rows).unwrap();
        let mut scratch = BatchPredictScratch::default();
        let mut out = Matrix::default();
        // Twice, so the second pass exercises reused buffers.
        for _ in 0..2 {
            dbn.predict_batch_into(&inputs, &mut scratch, &mut out)
                .unwrap();
            assert_eq!((out.rows(), out.cols()), (rows.len(), dbn.output_dim()));
            for (r, x) in rows.iter().enumerate() {
                assert_eq!(out.row(r), predict(&dbn, x).as_slice(), "row {r}");
            }
        }
        let bad = Matrix::zeros(2, dbn.input_dim() + 1);
        assert!(dbn
            .predict_batch_into(&bad, &mut scratch, &mut out)
            .is_err());
        let empty = Matrix::zeros(0, dbn.input_dim());
        dbn.predict_batch_into(&empty, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out.rows(), 0);
    }

    #[test]
    fn empty_and_mismatched_sets_are_rejected() {
        let cfg = DbnConfig::small(1);
        let empty = TrainingSet::from_rows(&[], &[]).unwrap();
        assert!(matches!(
            Dbn::train_set(&empty, &cfg),
            Err(AnnError::BadTrainingSet(_))
        ));
        assert!(matches!(
            train(&[vec![1.0]], &[], &cfg),
            Err(AnnError::BadTrainingSet(_))
        ));
        assert!(matches!(
            train(&[vec![1.0], vec![1.0, 2.0]], &[vec![0.0], vec![0.0]], &cfg),
            Err(AnnError::BadTrainingSet(_))
        ));
    }

    #[test]
    fn json_round_trip() {
        let (xs, ys) = dataset();
        let dbn = train(&xs, &ys, &DbnConfig::small(6)).unwrap();
        let json = dbn.to_json().unwrap();
        let back = Dbn::from_json(&json).unwrap();
        let a = predict(&dbn, &[30.0, 2.0]);
        let b = predict(&back, &[30.0, 2.0]);
        for (x, y) in a.iter().zip(&b) {
            // JSON prints decimal floats; round-trip is close, not exact.
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn validation_errors() {
        let (xs, ys) = dataset();
        let mut cfg = DbnConfig::small(1);
        cfg.hidden = vec![];
        assert!(train(&xs, &ys, &cfg).is_err());
        let cfg = DbnConfig::small(1);
        assert!(train(&[], &[], &cfg).is_err());
        assert!(train(&xs, &ys[..3], &cfg).is_err());
        let dbn = train(&xs, &ys, &cfg).unwrap();
        let mut out = Vec::new();
        assert!(dbn
            .predict_into(&[1.0], &mut PredictScratch::default(), &mut out)
            .is_err());
        assert_eq!(dbn.input_dim(), 2);
        assert_eq!(dbn.output_dim(), 2);
    }
}
