//! Property tests of the ANN substrate.

use helio_ann::{
    AnnError, Dbn, DbnConfig, Matrix, MinMaxScaler, Mlp, MlpTrainScratch, PredictScratch, Rbm,
    RbmTrainScratch, TrainingSet,
};
use helio_common::rng::seeded;
use proptest::prelude::*;

/// A random `n × dim` sample matrix with entries in `[0, 1]` (the
/// range CD-1 treats as probabilities).
fn sample_matrix(n: usize, dim: usize, seed: u64) -> Matrix {
    let mut rng = seeded(seed ^ 0x5A17);
    let mut m = Matrix::zeros(n, dim);
    for r in 0..n {
        for v in m.row_mut(r) {
            *v = rand::Rng::gen::<f64>(&mut rng);
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scaler transform/inverse is the identity on in-range data.
    #[test]
    fn scaler_round_trips(
        samples in prop::collection::vec(
            prop::collection::vec(-100.0f64..100.0, 3),
            2..20,
        ),
        pick in 0usize..100,
    ) {
        let m = Matrix::from_rows(&samples).expect("square rows");
        let scaler = MinMaxScaler::fit_matrix(&m).expect("valid set");
        let sample = m.row(pick % m.rows());
        let mut t = [0.0; 3];
        scaler.transform_slice(sample, &mut t).expect("dims match");
        prop_assert!(t.iter().all(|&v| (0.0..=1.0).contains(&v)));
        let mut back = [0.0; 3];
        scaler.inverse_slice(&t, &mut back).expect("dims match");
        for (a, b) in sample.iter().zip(&back) {
            // Constant features collapse to their single value.
            prop_assert!((a - b).abs() < 1e-9 || t.contains(&0.5));
        }
    }

    /// Matrix matvec is linear: A(x + y) = Ax + Ay.
    #[test]
    fn matvec_is_linear(
        seed in 0u64..1000,
        x in prop::collection::vec(-5.0f64..5.0, 4),
        y in prop::collection::vec(-5.0f64..5.0, 4),
    ) {
        let m = Matrix::random(3, 4, 1.0, &mut seeded(seed));
        let sum: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let (mut lhs, mut ax, mut ay) = (Vec::new(), Vec::new(), Vec::new());
        m.matvec_into(&sum, &mut lhs).expect("dims");
        m.matvec_into(&x, &mut ax).expect("dims");
        m.matvec_into(&y, &mut ay).expect("dims");
        for i in 0..3 {
            prop_assert!((lhs[i] - ax[i] - ay[i]).abs() < 1e-9);
        }
    }

    /// MLP outputs always live in [0, 1] regardless of input scale.
    #[test]
    fn mlp_outputs_bounded(
        seed in 0u64..1000,
        input in prop::collection::vec(-1e3f64..1e3, 5),
    ) {
        let mlp = Mlp::new(&[5, 7, 3], &mut seeded(seed)).expect("valid sizes");
        let mut out = Vec::new();
        mlp.forward_into(&input, &mut Vec::new(), &mut out).expect("dims");
        prop_assert_eq!(out.len(), 3);
        prop_assert!(out.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    /// The scratch-reusing RBM epoch loop is bit-for-bit a per-sample
    /// `cd1_step_into` loop with a fresh scratch on every step, across
    /// random shapes, seeds, and learning rates (the contract the SIMD
    /// kernels must preserve).
    #[test]
    fn rbm_train_is_bitwise_per_sample_cd1(
        visible in 1usize..14,
        hidden in 1usize..12,
        n in 1usize..10,
        epochs in 1usize..4,
        seed in 0u64..1000,
        lr in 0.02f64..0.5,
    ) {
        let samples = sample_matrix(n, visible, seed);
        let mut rng_a = seeded(seed);
        let mut a = Rbm::new(visible, hidden, &mut rng_a);
        let mut b = a.clone();
        let mut rng_b = rng_a.clone();
        let loss_a = a.train_matrix(&samples, epochs, lr, &mut rng_a).expect("trains");
        let mut loss_b = 0.0;
        for _ in 0..epochs {
            loss_b = 0.0;
            for i in 0..n {
                let mut fresh = RbmTrainScratch::default();
                loss_b += b
                    .cd1_step_into(samples.row(i), lr, &mut rng_b, &mut fresh)
                    .expect("steps");
            }
            loss_b /= n as f64;
        }
        prop_assert_eq!(a, b);
        prop_assert_eq!(loss_a.to_bits(), loss_b.to_bits());
    }

    /// The scratch-reusing MLP epoch loop is bit-for-bit a per-sample
    /// `sgd_step_into` loop with a fresh scratch on every step, across
    /// random shapes and widths spanning the SIMD lane boundary.
    #[test]
    fn mlp_train_is_bitwise_per_sample_sgd(
        input in 1usize..14,
        hidden in 1usize..12,
        output in 1usize..6,
        n in 1usize..10,
        epochs in 1usize..4,
        seed in 0u64..1000,
        lr in 0.05f64..0.5,
    ) {
        let xs = sample_matrix(n, input, seed);
        let ys = sample_matrix(n, output, seed.wrapping_add(1));
        let mut rng = seeded(seed);
        let mut a = Mlp::new(&[input, hidden, output], &mut rng).expect("valid sizes");
        let mut b = a.clone();
        let loss_a = a.train_matrix(&xs, &ys, epochs, lr).expect("trains");
        let mut loss_b = 0.0;
        for _ in 0..epochs {
            loss_b = 0.0;
            for i in 0..n {
                let mut fresh = MlpTrainScratch::default();
                loss_b += b
                    .sgd_step_into(xs.row(i), ys.row(i), lr, &mut fresh)
                    .expect("steps");
            }
            loss_b /= n as f64;
        }
        prop_assert_eq!(a, b);
        prop_assert_eq!(loss_a.to_bits(), loss_b.to_bits());
    }

    /// Mismatched or empty training sets are rejected with
    /// `BadTrainingSet` at every entry point, never a panic.
    #[test]
    fn bad_training_sets_are_rejected(
        n in 1usize..6,
        extra in 1usize..4,
        dim in 1usize..5,
    ) {
        let inputs = Matrix::zeros(n + extra, dim);
        let targets = Matrix::zeros(n, dim);
        prop_assert!(matches!(
            TrainingSet::new(inputs, targets),
            Err(AnnError::BadTrainingSet(_))
        ));
        let empty = TrainingSet::new(Matrix::zeros(0, dim), Matrix::zeros(0, dim))
            .expect("empty set packs");
        prop_assert!(matches!(
            Dbn::train_set(&empty, &DbnConfig::small(1)),
            Err(AnnError::BadTrainingSet(_))
        ));
        let ragged: Vec<Vec<f64>> = vec![vec![0.0; dim], vec![0.0; dim + 1]];
        let square: Vec<Vec<f64>> = vec![vec![0.0; dim], vec![0.0; dim]];
        prop_assert!(matches!(
            TrainingSet::from_rows(&ragged, &square),
            Err(AnnError::BadTrainingSet(_))
        ));
    }

    /// DBN predictions stay within the target range it was fitted on.
    #[test]
    fn dbn_predictions_stay_in_target_range(query in 0.0f64..60.0) {
        let inputs: Vec<Vec<f64>> = (0..24).map(|i| vec![i as f64 * 2.5]).collect();
        let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![3.0 + x[0] / 10.0]).collect();
        let mut cfg = DbnConfig::small(9);
        cfg.bp_epochs = 40;
        let set = TrainingSet::from_rows(&inputs, &targets).expect("rows pack");
        let dbn = Dbn::train_set(&set, &cfg).expect("train");
        let mut out = Vec::new();
        dbn.predict_into(&[query], &mut PredictScratch::default(), &mut out)
            .expect("predict");
        let y = out[0];
        prop_assert!((3.0 - 1e-9..=8.75 + 1e-9).contains(&y), "prediction {} escaped", y);
    }
}
