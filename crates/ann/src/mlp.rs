//! A dense feed-forward network trained by plain back-propagation —
//! the "BP network" forming the visible/output layers of the paper's
//! DBN. Training sweeps sample [`Matrix`] pairs; inference runs one
//! sample or a whole batch through caller-owned ping-pong buffers.

use helio_common::rng::DetRng;
use serde::{Deserialize, Serialize};

use crate::error::AnnError;
use crate::matrix::{delta_out_into, sigmoid_bias_into, Matrix};

/// One dense layer: `weights · x + bias` followed by a sigmoid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Layer {
    /// `out × in` weights.
    weights: Matrix,
    bias: Vec<f64>,
}

impl Layer {
    fn new(input: usize, output: usize, rng: &mut DetRng) -> Self {
        let scale = (6.0 / (input + output) as f64).sqrt();
        Self {
            weights: Matrix::random(output, input, scale, rng),
            bias: vec![0.0; output],
        }
    }

    fn forward_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<(), AnnError> {
        self.weights.matvec_into(x, out)?;
        sigmoid_bias_into(out, &self.bias);
        Ok(())
    }

    /// Forward pass on a whole batch (`samples × in` rows in, `samples
    /// × out` rows out) via the blocked matmul, writing into a
    /// caller-owned matrix so repeated batched inference reuses the
    /// allocation. `X · Wᵀ` computes the same ascending-index dot
    /// products as the per-sample `W · x`, so the result is bitwise
    /// identical to mapping [`Layer::forward_into`].
    fn forward_batch_into(&self, x: &Matrix, out: &mut Matrix) -> Result<(), AnnError> {
        out.reset(x.rows(), self.bias.len());
        x.matmul_bt_into(&self.weights, out)?;
        for r in 0..out.rows() {
            sigmoid_bias_into(out.row_mut(r), &self.bias);
        }
        Ok(())
    }
}

/// Reusable buffers for [`Mlp::sgd_step_into`]: per-layer activations
/// plus the two delta vectors of the backward pass. Construct once,
/// thread through every step of a training run, and the whole run
/// stops allocating after the first sample (the trainer's zero-alloc
/// gate relies on this).
#[derive(Debug, Default)]
pub struct MlpTrainScratch {
    acts: Vec<Vec<f64>>,
    delta: Vec<f64>,
    back: Vec<f64>,
}

/// A multi-layer perceptron with sigmoid activations throughout
/// (outputs live in `[0, 1]`; callers scale targets accordingly).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Layer>,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes, e.g. `[8, 16, 3]` for
    /// 8 inputs, one 16-unit hidden layer and 3 outputs.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadConfig`] for fewer than two sizes or any
    /// zero size.
    pub fn new(sizes: &[usize], rng: &mut DetRng) -> Result<Self, AnnError> {
        if sizes.len() < 2 {
            return Err(AnnError::BadConfig(
                "MLP needs at least input and output sizes".into(),
            ));
        }
        if sizes.contains(&0) {
            return Err(AnnError::BadConfig("layer sizes must be nonzero".into()));
        }
        let layers = sizes
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], rng))
            .collect();
        Ok(Self { layers })
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.weights.cols())
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.bias.len())
    }

    /// Forward pass ping-ponging between two caller-owned buffers:
    /// `out` ends up holding the output activation, and reused buffers
    /// make repeated inference allocation-free (after the buffers grow
    /// to the widest layer once). The input is read in place, never
    /// copied.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for wrong input sizes.
    pub fn forward_into(
        &self,
        x: &[f64],
        scratch: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> Result<(), AnnError> {
        let mut first = true;
        for layer in &self.layers {
            if first {
                layer.forward_into(x, out)?;
                first = false;
            } else {
                std::mem::swap(scratch, out);
                layer.forward_into(scratch, out)?;
            }
        }
        Ok(())
    }

    /// Forward pass over a `samples × in` batch, one output row per
    /// input row, ping-ponging between two caller-owned matrices like
    /// [`Mlp::forward_into`]: `out` ends up holding the `samples × out`
    /// activations and reused buffers make repeated batched inference
    /// allocation-free. Each layer runs as one blocked matrix product
    /// instead of `samples` matrix–vector products; every row is
    /// bitwise identical to [`Mlp::forward_into`] on that sample.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for wrong-width inputs.
    pub fn forward_batch_into(
        &self,
        xs: &Matrix,
        scratch: &mut Matrix,
        out: &mut Matrix,
    ) -> Result<(), AnnError> {
        let mut first = true;
        for layer in &self.layers {
            if first {
                layer.forward_batch_into(xs, out)?;
                first = false;
            } else {
                std::mem::swap(scratch, out);
                layer.forward_batch_into(scratch, out)?;
            }
        }
        Ok(())
    }

    /// One SGD step on a single `(input, target)` pair with squared
    /// loss, through caller-provided scratch; returns the sample loss
    /// before the update. No heap allocation happens once the buffers
    /// have grown to this network's layer widths.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for wrong sizes.
    pub fn sgd_step_into(
        &mut self,
        x: &[f64],
        target: &[f64],
        lr: f64,
        scratch: &mut MlpTrainScratch,
    ) -> Result<f64, AnnError> {
        if target.len() != self.output_dim() {
            return Err(AnnError::dims(
                format!("target of length {}", self.output_dim()),
                format!("{}", target.len()),
            ));
        }
        // Forward pass keeping every layer's activation (scratch.acts[li]
        // is layer li's output; layer 0 reads `x` in place).
        let nl = self.layers.len();
        if scratch.acts.len() != nl {
            scratch.acts.resize_with(nl, Vec::new);
        }
        for li in 0..nl {
            let (done, rest) = scratch.acts.split_at_mut(li);
            let input: &[f64] = if li == 0 { x } else { &done[li - 1] };
            self.layers[li].forward_into(input, &mut rest[0])?;
        }
        let out = &scratch.acts[nl - 1];
        let loss: f64 = out
            .iter()
            .zip(target)
            .map(|(o, t)| (o - t) * (o - t))
            .sum::<f64>()
            / 2.0;

        // Output delta for squared loss through a sigmoid.
        delta_out_into(out, target, &mut scratch.delta);

        for li in (0..nl).rev() {
            let input: &[f64] = if li == 0 { x } else { &scratch.acts[li - 1] };
            let layer = &mut self.layers[li];
            if li > 0 {
                // Fused: delta propagation through the pre-update
                // weights, derivative factors, and the rank-1 weight
                // and bias updates in one sweep over the layer's rows.
                layer.weights.backprop_fused_into(
                    &scratch.delta,
                    input,
                    -lr,
                    &mut layer.bias,
                    &mut scratch.back,
                )?;
                std::mem::swap(&mut scratch.delta, &mut scratch.back);
            } else {
                // Input layer: nothing to propagate, only the updates.
                layer
                    .weights
                    .rank1_bias_update(&scratch.delta, input, -lr, &mut layer.bias)?;
            }
        }
        Ok(loss)
    }

    /// Trains for `epochs` sweeps over sample matrices (one sample per
    /// row, in row order); returns the mean loss of the final epoch.
    /// One scratch set serves the whole run, so after the first sample
    /// no step allocates.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadTrainingSet`] for empty or mismatched
    /// data.
    pub fn train_matrix(
        &mut self,
        inputs: &Matrix,
        targets: &Matrix,
        epochs: usize,
        lr: f64,
    ) -> Result<f64, AnnError> {
        if inputs.rows() == 0 || inputs.rows() != targets.rows() {
            return Err(AnnError::BadTrainingSet(format!(
                "{} inputs vs {} targets",
                inputs.rows(),
                targets.rows()
            )));
        }
        let n = inputs.rows();
        let mut scratch = MlpTrainScratch::default();
        let mut last = 0.0;
        for _ in 0..epochs {
            last = 0.0;
            for i in 0..n {
                last += self.sgd_step_into(inputs.row(i), targets.row(i), lr, &mut scratch)?;
            }
            last /= n as f64;
        }
        Ok(last)
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Layer `index`'s `out × in` weights and bias (compile-time weight
    /// packing reads these; see `crate::compiled`).
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for an out-of-range
    /// index.
    pub(crate) fn layer(&self, index: usize) -> Result<(&Matrix, &[f64]), AnnError> {
        let layer = self.layers.get(index).ok_or_else(|| {
            AnnError::dims(
                format!("layer index < {}", self.layers.len()),
                format!("{index}"),
            )
        })?;
        Ok((&layer.weights, &layer.bias))
    }

    /// Replaces layer `index`'s weights with pre-trained values (DBN
    /// pre-training hand-off). Shapes must match.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when shapes differ or the
    /// index is out of range.
    pub fn load_layer(
        &mut self,
        index: usize,
        weights: Matrix,
        bias: Vec<f64>,
    ) -> Result<(), AnnError> {
        if index >= self.layers.len() {
            return Err(AnnError::dims(
                format!("layer index < {}", self.layers.len()),
                format!("{index}"),
            ));
        }
        let layer = &mut self.layers[index];
        if weights.rows() != layer.weights.rows()
            || weights.cols() != layer.weights.cols()
            || bias.len() != layer.bias.len()
        {
            return Err(AnnError::dims(
                format!("{}x{} weights", layer.weights.rows(), layer.weights.cols()),
                format!("{}x{}", weights.rows(), weights.cols()),
            ));
        }
        layer.weights = weights;
        layer.bias = bias;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helio_common::rng::seeded;

    fn forward(mlp: &Mlp, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        mlp.forward_into(x, &mut Vec::new(), &mut out).unwrap();
        out
    }

    fn rows(rows: &[Vec<f64>]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn learns_xor() {
        let mut rng = seeded(5);
        let mut mlp = Mlp::new(&[2, 6, 1], &mut rng).unwrap();
        let inputs = rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let targets = rows(&[vec![0.05], vec![0.95], vec![0.95], vec![0.05]]);
        let loss = mlp.train_matrix(&inputs, &targets, 4000, 0.8).unwrap();
        assert!(loss < 0.01, "XOR loss {loss}");
        assert!(forward(&mlp, &[0.0, 1.0])[0] > 0.7);
        assert!(forward(&mlp, &[1.0, 1.0])[0] < 0.3);
    }

    #[test]
    fn training_reduces_loss_on_regression() {
        let mut rng = seeded(6);
        let mut mlp = Mlp::new(&[1, 8, 1], &mut rng).unwrap();
        let xs: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64 / 31.0]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![0.2 + 0.6 * x[0]]).collect();
        let (inputs, targets) = (rows(&xs), rows(&ys));
        let first = mlp.train_matrix(&inputs, &targets, 1, 0.5).unwrap();
        let last = mlp.train_matrix(&inputs, &targets, 500, 0.5).unwrap();
        assert!(last < first, "loss should fall: {first} -> {last}");
        assert!(last < 1e-3);
    }

    #[test]
    fn shapes_and_validation() {
        let mut rng = seeded(7);
        assert!(Mlp::new(&[3], &mut rng).is_err());
        assert!(Mlp::new(&[3, 0, 1], &mut rng).is_err());
        let mut mlp = Mlp::new(&[3, 4, 2], &mut rng).unwrap();
        assert_eq!(mlp.input_dim(), 3);
        assert_eq!(mlp.output_dim(), 2);
        let mut out = Vec::new();
        assert!(mlp
            .forward_into(&[0.0; 2], &mut Vec::new(), &mut out)
            .is_err());
        let mut scratch = MlpTrainScratch::default();
        assert!(mlp
            .sgd_step_into(&[0.0; 3], &[0.0; 1], 0.1, &mut scratch)
            .is_err());
        assert!(mlp
            .train_matrix(&Matrix::zeros(0, 3), &Matrix::zeros(0, 2), 1, 0.1)
            .is_err());
        assert!(mlp
            .train_matrix(&Matrix::zeros(4, 3), &Matrix::zeros(3, 2), 1, 0.1)
            .is_err());
    }

    #[test]
    fn outputs_live_in_unit_interval() {
        let mut rng = seeded(8);
        let mlp = Mlp::new(&[4, 5, 3], &mut rng).unwrap();
        let y = forward(&mlp, &[10.0, -10.0, 3.0, 0.0]);
        assert!(y.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn load_layer_checks_shape_and_index() {
        let mut rng = seeded(9);
        let mut mlp = Mlp::new(&[3, 4, 1], &mut rng).unwrap();
        assert_eq!(mlp.layer_count(), 2);
        let ok = Matrix::zeros(4, 3);
        assert!(mlp.load_layer(0, ok, vec![0.0; 4]).is_ok());
        let bad = Matrix::zeros(4, 2);
        assert!(mlp.load_layer(0, bad, vec![0.0; 4]).is_err());
        assert!(mlp.load_layer(5, Matrix::zeros(1, 4), vec![0.0]).is_err());
    }

    #[test]
    fn forward_batch_is_bitwise_per_sample_forward() {
        let mut rng = seeded(11);
        let mlp = Mlp::new(&[7, 40, 35, 3], &mut rng).unwrap();
        let xs = Matrix::from_flat(50, 7, (0..50 * 7).map(|i| (i as f64).sin()).collect()).unwrap();
        let (mut scratch, mut batch) = (Matrix::default(), Matrix::default());
        mlp.forward_batch_into(&xs, &mut scratch, &mut batch)
            .unwrap();
        assert_eq!((batch.rows(), batch.cols()), (50, 3));
        for r in 0..xs.rows() {
            assert_eq!(batch.row(r), forward(&mlp, xs.row(r)).as_slice(), "row {r}");
        }
        assert!(mlp
            .forward_batch_into(&Matrix::zeros(1, 2), &mut scratch, &mut batch)
            .is_err());
        mlp.forward_batch_into(&Matrix::zeros(0, 7), &mut scratch, &mut batch)
            .unwrap();
        assert_eq!(batch.rows(), 0);
    }

    #[test]
    fn forward_into_is_bitwise_forward_and_reuses_buffers() {
        let mut rng = seeded(12);
        let mlp = Mlp::new(&[5, 9, 4, 2], &mut rng).unwrap();
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        for i in 0..8 {
            let x: Vec<f64> = (0..5).map(|j| ((i * 5 + j) as f64).cos()).collect();
            mlp.forward_into(&x, &mut scratch, &mut out).unwrap();
            assert_eq!(out, forward(&mlp, &x), "sample {i}");
        }
        assert!(mlp.forward_into(&[0.0; 3], &mut scratch, &mut out).is_err());
    }

    #[test]
    fn training_is_deterministic() {
        let inputs = rows(&[vec![0.1], vec![0.9]]);
        let targets = rows(&[vec![0.9], vec![0.1]]);
        let run = || {
            let mut rng = seeded(10);
            let mut mlp = Mlp::new(&[1, 3, 1], &mut rng).unwrap();
            mlp.train_matrix(&inputs, &targets, 50, 0.5).unwrap();
            forward(&mlp, &[0.5])
        };
        assert_eq!(run(), run());
    }
}
