//! # helio-ann
//!
//! A from-scratch artificial-neural-network substrate implementing the
//! paper's deep belief network (Fig. 6): restricted Boltzmann machines
//! pre-trained layer by layer with contrastive divergence, topped by a
//! back-propagation output network. No external linear-algebra or ML
//! dependencies — the node the paper targets runs this at 93.5 kHz, so
//! the model is small (tens of neurons) and a minimal dense
//! implementation is both sufficient and faithful.
//!
//! The network maps the online scheduler's observation vector
//! (previous-period solar, supercapacitor voltages, accumulated DMR) to
//! its decision vector (capacitor index, scheduling-pattern index α,
//! task-execution bits) — see `heliosched::online`.
//!
//! ## Example
//!
//! ```
//! use helio_ann::{Dbn, DbnConfig, PredictScratch, TrainingSet};
//!
//! # fn main() -> Result<(), helio_ann::AnnError> {
//! // Learn y = [mean(x)] from a toy data set.
//! let inputs: Vec<Vec<f64>> = (0..64)
//!     .map(|i| vec![(i % 8) as f64, (i / 8) as f64])
//!     .collect();
//! let targets: Vec<Vec<f64>> = inputs
//!     .iter()
//!     .map(|x| vec![(x[0] + x[1]) / 14.0])
//!     .collect();
//! let set = TrainingSet::from_rows(&inputs, &targets)?;
//! let dbn = Dbn::train_set(&set, &DbnConfig::small(7))?;
//! // One scratch and one output buffer serve every later prediction.
//! let mut scratch = PredictScratch::default();
//! let mut y = Vec::new();
//! dbn.predict_into(&[3.0, 4.0], &mut scratch, &mut y)?;
//! assert!((y[0] - 0.5).abs() < 0.2);
//! # Ok(())
//! # }
//! ```

pub mod compiled;
pub mod dbn;
pub mod distill;
pub mod error;
pub mod matrix;
pub mod mlp;
pub mod rbm;
pub mod scaler;
pub mod train;

pub use compiled::{CompiledDbn, CompiledScratch, CompiledTier};
pub use dbn::{BatchPredictScratch, Dbn, DbnConfig, PredictScratch};
pub use distill::{decisions_match, DistillConfig, DistilledPolicy, FoldEntry, FoldTable};
pub use error::AnnError;
pub use matrix::Matrix;
pub use mlp::{Mlp, MlpTrainScratch};
pub use rbm::{Rbm, RbmTrainScratch};
pub use scaler::MinMaxScaler;
pub use train::TrainingSet;
