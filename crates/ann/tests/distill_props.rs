//! Property tests of the distilled decision path's three contracts:
//!
//! * **Asset stability** — the JSON form round-trips bytewise and a
//!   reloaded artifact predicts bit-identically to the original, so a
//!   fleet resume (or a pre-built policy asset) can never drift from
//!   the in-process artifact.
//! * **Teacher agreement** — on randomized in-range feature vectors
//!   the student's decisions (rounded heads, thresholded admission
//!   bits) match the teacher's at a rate far above the recorded
//!   holdout floor's complement, pinning distillation quality.
//! * **Batched flat kernel** — B lanes deciding through one batched
//!   leaf-kernel call per period reproduce, over a multi-period stream,
//!   the bits of per-lane `predict_into`, on the dispatched (SIMD where
//!   the host has it) and the scalar kernel alike.
//! * **Presorted split search** — the fitter, which radix-sorts each
//!   feature once per fit and sweeps and fits with fixed-width kernels,
//!   grows bit-for-bit the tree and leaves of a per-node-sort oracle on
//!   tie-heavy training sets, for teachers of every kernel width.

use std::sync::OnceLock;

use helio_ann::{
    decisions_match, Dbn, DbnConfig, DistillConfig, DistilledPolicy, PredictScratch, TrainingSet,
};
use proptest::prelude::*;

/// A scheduler-shaped teacher (13 → 16 → 10 → 10) and its distilled
/// student, built once: distillation is deterministic, so sharing the
/// fixture across property cases changes nothing but wall-clock.
fn fixture() -> &'static (Dbn, DistilledPolicy) {
    static FIX: OnceLock<(Dbn, DistilledPolicy)> = OnceLock::new();
    FIX.get_or_init(|| {
        // Decision-like targets (crisp heads and admission bits, the
        // way the scheduler's teacher behaves) rather than arbitrary
        // continuous values: agreement is a decision-level metric, so
        // a teacher that sits on the rounding boundaries everywhere
        // would make the property vacuous.
        let inputs: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                (0..13)
                    .map(|j| ((i * 13 + j) as f64 * 0.37).sin().abs() * 40.0)
                    .collect()
            })
            .collect();
        // All ten outputs depend on three input directions (two
        // constant-section features, one varying-section feature), the
        // way the scheduler's admissions track a few energy terms —
        // not ten independent boundaries no small tree could match.
        let targets: Vec<Vec<f64>> = inputs
            .iter()
            .map(|x| {
                let mut t = vec![f64::from(x[0] > 20.0), f64::from(x[1] > 20.0)];
                t.extend((0..8).map(|j| {
                    let driver = if j % 2 == 0 { x[2] } else { x[10] };
                    f64::from(driver > if j % 2 == 0 { 18.0 } else { 22.0 })
                }));
                t
            })
            .collect();
        let mut cfg = DbnConfig::small(42);
        cfg.bp_epochs = 40;
        let dbn = Dbn::train_set(
            &TrainingSet::from_rows(&inputs, &targets).expect("rows pack"),
            &cfg,
        )
        .expect("teacher trains");
        let dcfg = DistillConfig {
            samples: 16384,
            candidates: 32,
            holdout: 1024,
            ..DistillConfig::small(77)
        };
        let policy = DistilledPolicy::distill(&dbn, 10, &[], &dcfg).expect("teacher distils");
        (dbn, policy)
    })
}

/// Maps a unit hypercube point into the teacher's fitted feature box.
fn in_range(dbn: &Dbn, unit: &[f64]) -> Vec<f64> {
    let mins = dbn.input_scaler().mins();
    let maxs = dbn.input_scaler().maxs();
    unit.iter()
        .enumerate()
        .map(|(i, &u)| mins[i] + u * (maxs[i] - mins[i]))
        .collect()
}

/// A feature vector whose constant prefix is determined by `prefix`
/// alone and whose varying tail by `tail`.
fn prefixed(prefix: usize, tail: usize) -> Vec<f64> {
    (0..13)
        .map(|j| {
            if j < 10 {
                ((prefix * 13 + j) as f64 * 0.37).sin().abs() * 40.0
            } else {
                (tail + j) as f64 * 0.5
            }
        })
        .collect()
}

#[test]
fn artifact_json_round_trips_bytewise() {
    let (_, policy) = fixture();
    let json = policy.to_json().expect("serialises");
    let reloaded = DistilledPolicy::from_json(&json).expect("reloads");
    assert_eq!(
        json,
        reloaded.to_json().expect("re-serialises"),
        "JSON form must be a fixed point of save/load"
    );
}

#[test]
fn recorded_agreement_clears_the_quality_floor() {
    let (_, policy) = fixture();
    assert!(
        policy.agreement() >= 0.75,
        "holdout agreement {} below the distillation quality floor",
        policy.agreement()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A reloaded artifact is bit-identical in behaviour:
    /// `predict_into` returns the same bits before and after a JSON
    /// round trip, and the reload's batched kernel lands on the same
    /// bits.
    #[test]
    #[allow(clippy::disallowed_methods)] // the one-decision path is the reference
    fn predict_is_deterministic_across_reloads(
        unit in prop::collection::vec(0.0f64..1.0, 13),
    ) {
        let (dbn, policy) = fixture();
        let x = in_range(dbn, &unit);
        let json = policy.to_json().expect("serialises");
        let reloaded = DistilledPolicy::from_json(&json).expect("reloads");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        policy.predict_into(&x, &mut a).expect("original predicts");
        reloaded.predict_into(&x, &mut b).expect("reload predicts");
        prop_assert_eq!(&a, &b, "reload drifted");

        let mut out = Vec::new();
        reloaded.predict_batch_into(&x, &mut out).expect("batched predict");
        prop_assert_eq!(&a, &out, "batched path drifted from the one-decision path");
    }

    /// Student decisions match the teacher's on batches of randomized
    /// in-range features — the live counterpart of the recorded
    /// holdout agreement.
    #[test]
    #[allow(clippy::disallowed_methods)] // one decision against its teacher row
    fn decisions_agree_with_the_teacher_on_random_features(
        units in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 13), 32),
    ) {
        let (dbn, policy) = fixture();
        let mut scratch = PredictScratch::default();
        let mut teacher_out = Vec::new();
        let mut student_out = Vec::new();
        let mut matches = 0usize;
        for unit in &units {
            let x = in_range(dbn, unit);
            dbn.predict_into(&x, &mut scratch, &mut teacher_out).expect("teacher predicts");
            policy.predict_into(&x, &mut student_out).expect("student predicts");
            if decisions_match(&teacher_out, &student_out) {
                matches += 1;
            }
        }
        let rate = matches as f64 / units.len() as f64;
        prop_assert!(
            rate >= 0.6,
            "decision match rate {rate} over {} random features below threshold",
            units.len()
        );
    }
}

/// The fleet's decision stream, indexed `[period][lane]`: every lane
/// of a trace group (`lane % groups`) shares its period's constant
/// prefix, drawn from `period_prefix`, and the varying tail differs per
/// lane, so neighbouring lanes of one kernel call walk different paths.
fn fleet_stream(period_prefix: &[usize], lanes: usize, groups: usize) -> Vec<Vec<Vec<f64>>> {
    period_prefix
        .iter()
        .enumerate()
        .map(|(p, &prefix)| {
            (0..lanes)
                .map(|lane| prefixed(prefix * groups + lane % groups, (p * 13 + lane * 29) % 83))
                .collect()
        })
        .collect()
}

/// Output bits of every lane deciding one at a time.
#[allow(clippy::disallowed_methods)] // the sequential single-decision path is the reference
fn per_lane_bits(policy: &DistilledPolicy, stream: &[Vec<Vec<f64>>]) -> Vec<u64> {
    let mut bits = Vec::new();
    let mut out = Vec::new();
    for x in stream.iter().flatten() {
        policy.predict_into(x, &mut out).expect("one decision");
        bits.extend(out.iter().map(|v| v.to_bits()));
    }
    bits
}

/// Output bits of the same lanes deciding each period in one batched
/// kernel call, on the dispatched or the scalar kernel.
fn batched_bits(policy: &DistilledPolicy, stream: &[Vec<Vec<f64>>], scalar: bool) -> Vec<u64> {
    let mut bits = Vec::new();
    let mut out = Vec::new();
    for period in stream {
        let block: Vec<f64> = period.concat();
        if scalar {
            policy.predict_batch_into_scalar(&block, &mut out)
        } else {
            policy.predict_batch_into(&block, &mut out)
        }
        .expect("batched kernel");
        bits.extend(out.iter().map(|v| v.to_bits()));
    }
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `predict_batch_into` is bit-identical to per-lane
    /// `predict_into`, and so is its scalar twin, over streams of at
    /// least eight periods. With more than one trace group,
    /// neighbouring lanes of a kernel call land in different leaves,
    /// so a kernel that read the wrong lane's inputs would diverge.
    #[test]
    fn batched_flat_kernel_matches_per_lane_predict_into(
        lanes in 1usize..=64,
        groups in 1usize..=4,
        period_prefix in prop::collection::vec(0usize..6, 8..=24),
    ) {
        let (_, policy) = fixture();
        let stream = fleet_stream(&period_prefix, lanes, groups);
        let per_lane = per_lane_bits(policy, &stream);
        prop_assert_eq!(per_lane.len(), lanes * period_prefix.len() * policy.output_dim());
        for scalar in [false, true] {
            let batched = batched_bits(policy, &stream, scalar);
            prop_assert!(
                per_lane == batched,
                "batched kernel (scalar: {scalar}) diverged from per-lane predict_into \
                 (B = {lanes}, groups = {groups}, {} periods)",
                period_prefix.len()
            );
        }
    }
}

/// The per-node-sort fitter the presorted split search replaced, kept
/// here as its oracle. It reproduces `DistilledPolicy::distill`'s
/// training set (same sampling streams, same teacher labels), then
/// grows the tree the old way: every node copies its ascending row
/// list and re-sorts it for each candidate feature, stably by
/// `(value, row)`. Returns `(feat, thresh, leaf_bias, leaf_coef)` as
/// the artifact stores them.
fn reference_fit(
    teacher: &Dbn,
    const_prefix: usize,
    extras: &[Vec<f64>],
    cfg: &DistillConfig,
) -> (Vec<u32>, Vec<f64>, Vec<f32>, Vec<f32>) {
    use rand::Rng;

    let in_dim = teacher.input_dim();
    let out_dim = teacher.output_dim();
    let mins = teacher.input_scaler().mins();
    let maxs = teacher.input_scaler().maxs();
    let (lo, hi): (Vec<f64>, Vec<f64>) = (0..in_dim)
        .map(|i| {
            let span = maxs[i] - mins[i];
            let pad = if span > 0.0 {
                span * cfg.range_expand
            } else {
                0.0
            };
            (mins[i] - pad, maxs[i] + pad)
        })
        .unzip();
    let mut rng = helio_common::rng::derive(cfg.seed, "distill-box");
    let mut xs: Vec<Vec<f64>> = (0..cfg.samples)
        .map(|_| {
            (0..in_dim)
                .map(|i| {
                    let u: f64 = rng.gen();
                    lo[i] + u * (hi[i] - lo[i])
                })
                .collect()
        })
        .collect();
    for s in extras {
        xs.extend(std::iter::repeat_n(s.clone(), cfg.extra_weight));
    }
    let mut scratch = PredictScratch::default();
    let ys: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| {
            let mut out = Vec::new();
            teacher
                .predict_into(x, &mut scratch, &mut out)
                .expect("teacher labels");
            out
        })
        .collect();
    let (feat_mean, feat_std) = moments(&xs, in_dim);
    let (_, out_std) = moments(&ys, out_dim);
    let depth = cfg.depth_const + cfg.depth_vary;
    let mut fit = RefFit {
        xs: &xs,
        ys: &ys,
        feat: vec![0; (1 << depth) - 1],
        thresh: vec![f64::MAX; (1 << depth) - 1],
        leaf_bias: vec![0.0; (1 << depth) * out_dim],
        leaf_coef: vec![0.0; (1 << depth) * out_dim * in_dim],
        depth,
        depth_const: cfg.depth_const,
        const_prefix,
        in_dim,
        out_dim,
        candidates: cfg.candidates,
        ridge: cfg.ridge,
        out_weight: out_std
            .iter()
            .map(|s| if *s > 1e-9 { 1.0 / s } else { 1.0 })
            .collect(),
        feat_mean,
        feat_std,
    };
    let idx: Vec<usize> = (0..xs.len()).collect();
    let mean = means(&ys, &idx, out_dim);
    fit.grow(0, 0, idx, &mean);
    (
        fit.feat,
        fit.thresh,
        fit.leaf_bias.iter().map(|&v| v as f32).collect(),
        fit.leaf_coef.iter().map(|&v| v as f32).collect(),
    )
}

fn moments(rows: &[Vec<f64>], cols: usize) -> (Vec<f64>, Vec<f64>) {
    let n = rows.len().max(1) as f64;
    let mut mean = vec![0.0; cols];
    let mut sq = vec![0.0; cols];
    for row in rows {
        for ((mu, q), v) in mean.iter_mut().zip(sq.iter_mut()).zip(row) {
            *mu += v;
            *q += v * v;
        }
    }
    let std = mean
        .iter_mut()
        .zip(&sq)
        .map(|(mu, q)| {
            *mu /= n;
            (q / n - *mu * *mu).max(0.0).sqrt()
        })
        .collect();
    (mean, std)
}

fn means(ys: &[Vec<f64>], idx: &[usize], out_dim: usize) -> Vec<f64> {
    let mut mean = vec![0.0; out_dim];
    if idx.is_empty() {
        return mean;
    }
    for &r in idx {
        for (m, v) in mean.iter_mut().zip(&ys[r]) {
            *m += v;
        }
    }
    let inv = 1.0 / idx.len() as f64;
    for m in &mut mean {
        *m *= inv;
    }
    mean
}

struct RefFit<'a> {
    xs: &'a [Vec<f64>],
    ys: &'a [Vec<f64>],
    feat: Vec<u32>,
    thresh: Vec<f64>,
    leaf_bias: Vec<f64>,
    leaf_coef: Vec<f64>,
    depth: usize,
    depth_const: usize,
    const_prefix: usize,
    in_dim: usize,
    out_dim: usize,
    candidates: usize,
    ridge: f64,
    out_weight: Vec<f64>,
    feat_mean: Vec<f64>,
    feat_std: Vec<f64>,
}

impl RefFit<'_> {
    fn grow(&mut self, node: usize, level: usize, idx: Vec<usize>, parent_mean: &[f64]) {
        let mean = if idx.is_empty() {
            parent_mean.to_vec()
        } else {
            means(self.ys, &idx, self.out_dim)
        };
        if level == self.depth {
            self.fit_leaf(node - ((1 << self.depth) - 1), &idx, &mean);
            return;
        }
        let (fl, fh) = if level < self.depth_const {
            (0, self.const_prefix)
        } else {
            (self.const_prefix, self.in_dim)
        };
        let (f, t) = self.best_split(&idx, fl, fh).unwrap_or((fl, f64::MAX));
        self.feat[node] = f as u32;
        self.thresh[node] = t;
        let (right, left): (Vec<usize>, Vec<usize>) = idx.iter().partition(|&&r| self.xs[r][f] > t);
        self.grow(2 * node + 1, level + 1, left, &mean);
        self.grow(2 * node + 2, level + 1, right, &mean);
    }

    fn fit_leaf(&mut self, leaf: usize, idx: &[usize], mean: &[f64]) {
        let (p, out_dim) = (self.in_dim, self.out_dim);
        let dims = p + 1;
        let bias_base = leaf * out_dim;
        if idx.len() < dims + 2 {
            self.leaf_bias[bias_base..bias_base + out_dim].copy_from_slice(mean);
            return;
        }
        let mut g = vec![0.0; dims * dims];
        let mut b = vec![0.0; dims * out_dim];
        let mut z = vec![0.0; dims];
        for &r in idx {
            for (i, zi) in z.iter_mut().enumerate().take(p) {
                *zi = if self.feat_std[i] > 1e-12 {
                    (self.xs[r][i] - self.feat_mean[i]) / self.feat_std[i]
                } else {
                    0.0
                };
            }
            z[p] = 1.0;
            for i in 0..dims {
                if z[i] == 0.0 {
                    continue;
                }
                for j in i..dims {
                    g[i * dims + j] += z[i] * z[j];
                }
                for (d, v) in self.ys[r].iter().enumerate() {
                    b[d * dims + i] += z[i] * v;
                }
            }
        }
        for i in 0..dims {
            for j in 0..i {
                g[i * dims + j] = g[j * dims + i];
            }
            g[i * dims + i] += self.ridge * idx.len() as f64;
        }
        let Some(chol) = cholesky(&g, dims) else {
            self.leaf_bias[bias_base..bias_base + out_dim].copy_from_slice(mean);
            return;
        };
        let lc = leaf * p * out_dim;
        for d in 0..out_dim {
            let w = chol_solve(&chol, dims, &b[d * dims..(d + 1) * dims]);
            let mut bias = w[p];
            let mut ok = bias.is_finite();
            for (i, wi) in w.iter().enumerate().take(p) {
                let c = if self.feat_std[i] > 1e-12 {
                    wi / self.feat_std[i]
                } else {
                    0.0
                };
                ok &= c.is_finite();
                bias -= c * self.feat_mean[i];
                self.leaf_coef[lc + i * out_dim + d] = c;
            }
            if ok && bias.is_finite() {
                self.leaf_bias[bias_base + d] = bias;
            } else {
                self.leaf_bias[bias_base + d] = mean[d];
                for i in 0..p {
                    self.leaf_coef[lc + i * out_dim + d] = 0.0;
                }
            }
        }
    }

    fn best_split(&self, idx: &[usize], fl: usize, fh: usize) -> Option<(usize, f64)> {
        let n = idx.len();
        if n < 2 || fl >= fh {
            return None;
        }
        let weighted = |r: usize| self.ys[r].iter().zip(&self.out_weight).map(|(v, w)| v * w);
        let mut total = vec![0.0; self.out_dim];
        for &r in idx {
            for (t, v) in total.iter_mut().zip(weighted(r)) {
                *t += v;
            }
        }
        let mut best: Option<(f64, usize, f64)> = None;
        let stride = (n / (self.candidates + 1)).max(1);
        for f in fl..fh {
            // `idx` is ascending, so a stable sort breaks value ties by
            // row index.
            let mut order = idx.to_vec();
            order.sort_by(|&a, &b| self.xs[a][f].total_cmp(&self.xs[b][f]));
            let mut left_sum = vec![0.0; self.out_dim];
            let mut next_cand = 1;
            for (k, &r) in order.iter().enumerate() {
                if k > 0 && k == next_cand * stride {
                    next_cand += 1;
                    let (a, b) = (self.xs[order[k - 1]][f], self.xs[r][f]);
                    if a < b {
                        let (nl, nr) = (k as f64, (n - k) as f64);
                        let mut score = 0.0;
                        for (sl, st) in left_sum.iter().zip(&total) {
                            let sr = st - sl;
                            score += sl * sl / nl + sr * sr / nr;
                        }
                        let mut t = a + (b - a) / 2.0;
                        if t >= b {
                            t = a;
                        }
                        if best.is_none_or(|(bs, _, _)| score > bs) {
                            best = Some((score, f, t));
                        }
                    }
                }
                for (s, v) in left_sum.iter_mut().zip(weighted(r)) {
                    *s += v;
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }
}

fn cholesky(g: &[f64], dims: usize) -> Option<Vec<f64>> {
    let mut l = vec![0.0; dims * dims];
    for i in 0..dims {
        for j in 0..=i {
            let mut s = g[i * dims + j];
            for k in 0..j {
                s -= l[i * dims + k] * l[j * dims + k];
            }
            if i == j {
                if s <= 0.0 || !s.is_finite() {
                    return None;
                }
                l[i * dims + i] = s.sqrt();
            } else {
                l[i * dims + j] = s / l[j * dims + j];
            }
        }
    }
    Some(l)
}

fn chol_solve(l: &[f64], dims: usize, b: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; dims];
    for i in 0..dims {
        let mut s = b[i];
        for k in 0..i {
            s -= l[i * dims + k] * y[k];
        }
        y[i] = s / l[i * dims + i];
    }
    let mut w = vec![0.0; dims];
    for i in (0..dims).rev() {
        let mut s = y[i];
        for k in i + 1..dims {
            s -= l[k * dims + i] * w[k];
        }
        w[i] = s / l[i * dims + i];
    }
    w
}

fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serialises")
}

/// The JSON text of one array field of a serialised artifact.
fn json_field<'a>(json: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\":");
    let start = json.find(&key).expect("field present") + key.len();
    let len = json[start..].find(']').expect("array field") + 1;
    &json[start..start + len]
}

/// `(inputs, outputs)` of the oracle's teachers. The output widths
/// reach every arm of the fitter's kernels: 1 and 4 (zero-padded to the
/// 8 narrow lanes), 8 (exactly the narrow lanes), 9 (zero-padded to the
/// 10 wide lanes), 10 (exactly the wide lanes) and 12 (the
/// runtime-width fallback); 16 inputs put the leaf fit on its
/// runtime-width path with fixed-width split lanes.
const SHAPES: [(usize, usize); 14] = [
    (6, 4),
    (13, 1),
    (13, 4),
    (13, 8),
    (13, 9),
    (13, 10),
    (13, 12),
    (15, 1),
    (15, 4),
    (15, 8),
    (15, 10),
    (15, 12),
    (16, 8),
    (16, 10),
];

/// A teacher of `SHAPES[shape]` whose first two inputs are constant in
/// its training data, so every box sample ties on them; the others
/// drive the outputs (two rounded heads, then thresholded bits).
fn tie_teacher(shape: usize) -> &'static Dbn {
    static TEACHERS: [OnceLock<Dbn>; SHAPES.len()] = [const { OnceLock::new() }; SHAPES.len()];
    let (in_dim, out_dim) = SHAPES[shape];
    TEACHERS[shape].get_or_init(|| {
        let inputs: Vec<Vec<f64>> = (0..48)
            .map(|i| {
                let v = |j: usize| ((i * 7 + j * 3) as f64 * 0.61).sin().abs() * 10.0;
                let mut x = vec![4.0, 4.0];
                x.extend((2..in_dim).map(v));
                x
            })
            .collect();
        let targets: Vec<Vec<f64>> = inputs
            .iter()
            .map(|x| {
                (0..out_dim)
                    .map(|d| match d {
                        0 => (x[2] / 3.0).round(),
                        1 => (x[3] / 2.5).round(),
                        _ => f64::from(x[2 + d % (in_dim - 2)] > 5.0),
                    })
                    .collect()
            })
            .collect();
        let mut cfg = DbnConfig::small(5);
        cfg.bp_epochs = 20;
        Dbn::train_set(
            &TrainingSet::from_rows(&inputs, &targets).expect("rows pack"),
            &cfg,
        )
        .expect("tie teacher trains")
    })
}

/// Reloading an artifact's JSON form is the identity: the reloaded
/// artifact equals the original and writes the same bytes, for a
/// teacher of every kernel width. The fleet service relies on this to
/// serve its freshly distilled artifact without a JSON round trip.
#[test]
fn artifact_reload_is_the_identity_for_every_teacher_shape() {
    for (shape, dims) in SHAPES.iter().enumerate() {
        let teacher = tie_teacher(shape);
        let mut cfg = DistillConfig::small(shape as u64);
        cfg.depth_const = 3;
        cfg.depth_vary = 3;
        cfg.samples = 512;
        cfg.holdout = 64;
        let policy = DistilledPolicy::distill(teacher, 2, &[], &cfg).expect("distils");
        let json = policy.to_json().expect("serialises");
        let reloaded = DistilledPolicy::from_json(&json).expect("reloads");
        assert_eq!(reloaded, policy, "shape {dims:?}");
        assert_eq!(
            reloaded.to_json().expect("re-serialises"),
            json,
            "shape {dims:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(224))]

    /// The presorted fitter is bit-identical to the per-node-sort
    /// oracle on small training sets full of ties, for teachers of
    /// every shape in `SHAPES`: box samples all tie on the two constant
    /// columns, trajectory samples are quantised to a few levels (so
    /// equal values carry different labels), column 1 often duplicates
    /// column 0, rows repeat, and every row is replicated
    /// `extra_weight` times.
    #[test]
    fn presorted_fit_matches_the_per_node_sort_oracle(
        shape in 0..SHAPES.len(),
        levels in prop::collection::vec(prop::collection::vec(0u8..4, 16), 4..48),
        duplicate_column in prop::collection::vec(any::<bool>(), 48),
        repeats in prop::collection::vec(0usize..48, 0..8),
        depth_const in 1usize..=3,
        depth_vary in 1usize..=3,
        const_prefix in 2usize..=5,
        candidates in 2usize..=12,
        extra_weight in 1usize..=4,
        samples in 64usize..=128,
        seed in any::<u64>(),
    ) {
        let teacher = tie_teacher(shape);
        let in_dim = teacher.input_dim();
        let mut extras: Vec<Vec<f64>> = levels
            .iter()
            .zip(&duplicate_column)
            .map(|(q, &dup)| {
                let mut x: Vec<f64> = q[..in_dim].iter().map(|&l| 4.0 + f64::from(l) * 2.5).collect();
                if dup {
                    x[1] = x[0];
                }
                x
            })
            .collect();
        for &r in &repeats {
            let row = extras[r % extras.len()].clone();
            extras.push(row);
        }
        let cfg = DistillConfig {
            depth_const,
            depth_vary,
            samples,
            candidates,
            extra_weight,
            holdout: 16,
            ..DistillConfig::small(seed)
        };
        let policy = DistilledPolicy::distill(teacher, const_prefix, &extras, &cfg)
            .expect("distils");
        let json = policy.to_json().expect("serialises");
        let (feat, thresh, leaf_bias, leaf_coef) =
            reference_fit(teacher, const_prefix, &extras, &cfg);
        prop_assert_eq!(json_field(&json, "feat"), to_json(&feat));
        prop_assert_eq!(json_field(&json, "thresh"), to_json(&thresh));
        prop_assert_eq!(json_field(&json, "leaf_bias"), to_json(&leaf_bias));
        prop_assert_eq!(json_field(&json, "leaf_coef"), to_json(&leaf_coef));
    }
}
