//! Distillation of a trained [`Dbn`] into a branch-free decision-tree
//! artifact.
//!
//! The compiled DBN path (`crate::compiled`) is latency-bound on three
//! *serial* sigmoid chains — no further SIMD on the same network shape
//! helps. This module changes the shape instead: it samples the trained
//! teacher over the feature box induced by its input scaler (plus any
//! caller-supplied trajectory samples) and fits a *linear model tree*:
//! one axis-aligned decision tree whose prediction is a fixed-count
//! walk of compares and loads followed by one small affine evaluation
//! per output — zero transcendentals, and far less arithmetic than even
//! one 16-wide sigmoid layer.
//!
//! The tree is *feature-partitioned by level* to expose the scheduler's
//! period structure: the top `depth_const` levels split only on the
//! run-constant prefix of the feature vector (the previous-period solar
//! powers, which are trace-derived and known for the whole run), the
//! bottom `depth_vary` levels only on the remaining, per-decision
//! features (supercapacitor voltages, accumulated DMR). A decision
//! walks `depth` compares and evaluates one leaf's affine model over
//! every feature; [`DistilledPolicy::predict_batch_into`] does the
//! same for many scenario lanes at once, bit for bit.
//!
//! The artifact is plain data (`serde`-serialisable, no host-specific
//! probes), so a fleet can build it once and share it `Arc`-style or
//! ship it between hosts; reloads predict bit-identically.

use std::convert::Infallible;
use std::ops::Range;
use std::sync::Arc;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dbn::{BatchPredictScratch, Dbn};
use crate::error::AnnError;
use crate::matrix::Matrix;

/// Hyper-parameters for [`DistilledPolicy::distill`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistillConfig {
    /// Tree levels that split on the run-constant feature prefix
    /// `[0, const_prefix)`. May be 0 when there is no constant prefix.
    pub depth_const: usize,
    /// Tree levels that split on the varying features
    /// `[const_prefix, in_dim)`.
    pub depth_vary: usize,
    /// Number of box samples drawn uniformly over the teacher's fitted
    /// input range (widened by `range_expand`).
    pub samples: usize,
    /// Candidate split thresholds per feature, taken at sample
    /// quantiles.
    pub candidates: usize,
    /// Fractional widening of the sampled box beyond the teacher's
    /// fitted `[min, max]` range, so mildly out-of-range queries still
    /// land in trained regions.
    pub range_expand: f64,
    /// Each caller-supplied trajectory sample is replicated this many
    /// times, concentrating tree capacity on states the scheduler
    /// actually visits.
    pub extra_weight: usize,
    /// Ridge strength for the per-leaf affine fits (in standardised
    /// feature space, relative to the leaf sample count).
    pub ridge: f64,
    /// Fresh box samples held out to measure teacher/student decision
    /// agreement (stored in the artifact).
    pub holdout: usize,
    /// Deterministic seed for the sampling streams.
    pub seed: u64,
}

impl DistillConfig {
    /// A compact configuration adequate for the scheduler's ~13-input
    /// observation vectors. Distilling a 13-input, 8-output teacher
    /// with it takes ~65 ms on one core of a 2-vCPU Xeon VM, ~70 ms at
    /// 15 inputs (EXPERIMENTS.md, "Distillation cost").
    pub fn small(seed: u64) -> Self {
        Self {
            depth_const: 5,
            depth_vary: 5,
            samples: 32_768,
            candidates: 64,
            range_expand: 0.05,
            extra_weight: 4,
            ridge: 1e-4,
            holdout: 4_096,
            seed,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadConfig`] for an empty or oversized tree,
    /// too few samples/candidates, or non-finite widening/ridge.
    pub fn validate(&self) -> Result<(), AnnError> {
        let depth = self.depth_const + self.depth_vary;
        if depth == 0 || depth > 20 {
            return Err(AnnError::BadConfig(format!(
                "tree depth must be in 1..=20, got {depth}"
            )));
        }
        if self.samples < 64 {
            return Err(AnnError::BadConfig(format!(
                "need at least 64 distillation samples, got {}",
                self.samples
            )));
        }
        if self.candidates < 2 {
            return Err(AnnError::BadConfig(format!(
                "need at least 2 split candidates per feature, got {}",
                self.candidates
            )));
        }
        if self.extra_weight == 0 {
            return Err(AnnError::BadConfig(
                "extra_weight must be at least 1".into(),
            ));
        }
        if self.holdout == 0 {
            return Err(AnnError::BadConfig(
                "holdout must be at least 1 sample".into(),
            ));
        }
        if !self.range_expand.is_finite() || self.range_expand < 0.0 {
            return Err(AnnError::BadConfig(format!(
                "range_expand must be finite and non-negative, got {}",
                self.range_expand
            )));
        }
        if !self.ridge.is_finite() || self.ridge <= 0.0 {
            return Err(AnnError::BadConfig(format!(
                "ridge must be finite and positive, got {}",
                self.ridge
            )));
        }
        Ok(())
    }
}

/// A distilled decision policy: one complete binary tree in heap
/// layout (node `n` has children `2n+1` / `2n+2`), thresholds in *raw*
/// (unscaled) feature space, and a small affine model
/// `y = bias + coef · x` at every leaf.
///
/// Prediction is branch-free in the classic decision-tree sense: a
/// fixed-count loop of `load feature index → load threshold → compare →
/// index arithmetic`, compiled to conditional moves, then one dense
/// affine evaluation. No scaling, no transcendentals.
///
/// Levels `[0, depth_const)` split only on features
/// `[0, const_prefix)`; levels `[depth_const, depth)` split only on
/// features `[const_prefix, in_dim)`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DistilledPolicy {
    in_dim: usize,
    out_dim: usize,
    const_prefix: usize,
    depth_const: u32,
    depth_vary: u32,
    /// Split feature per internal node; `(1 << depth) - 1` entries.
    feat: Vec<u32>,
    /// Split threshold per internal node (raw feature space). A node
    /// with threshold `f64::MAX` routes every finite input left
    /// (degenerate split from an under-populated region; `MAX` rather
    /// than `+inf` so the JSON asset form round-trips bytewise).
    thresh: Vec<f64>,
    /// Leaf intercepts, `1 << depth` rows of `out_dim` outputs, in the
    /// teacher's raw output space. Quantised to `f32` — the same
    /// precision tier as the compiled network's `F32` weights: leaf
    /// evaluation runs entirely in `f32` (the decision heads are
    /// rounded/thresholded, so the ~1e-7 relative quantisation noise
    /// is far below any decision boundary) and the hot loop loads half
    /// the bytes per feature.
    leaf_bias: Vec<f32>,
    /// Leaf affine coefficients, `1 << depth` rows of
    /// `in_dim × out_dim` (feature-major: all `out_dim` coefficients
    /// of feature 0, then feature 1, …), raw feature space, quantised
    /// to `f32` like the intercepts. Feature-major keeps the hot-path
    /// accumulation a contiguous `out_dim`-wide lane update per
    /// feature — independent accumulators the compiler vectorises —
    /// instead of `out_dim` serial dot-product dependency chains.
    leaf_coef: Vec<f32>,
    /// Teacher/student decision match rate on the held-out box sample,
    /// measured at distillation time.
    agreement: f64,
}

impl DistilledPolicy {
    /// Distils `teacher` into a linear model tree.
    ///
    /// `const_prefix` is the number of leading features that are
    /// constant within a scheduling period (the previous-period solar
    /// powers); pass 0 when no such structure exists. `extra_samples`
    /// are raw feature vectors from real trajectories (golden-scenario
    /// states); each is replicated [`DistillConfig::extra_weight`]
    /// times so the tree concentrates capacity where the scheduler
    /// actually operates.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadConfig`] for invalid hyper-parameters or
    /// a `const_prefix`/depth combination that leaves a tree section
    /// with no features to split on or a training set too large to
    /// index (more than `u32::MAX` rows, or a sample matrix beyond the
    /// address space), and [`AnnError::DimensionMismatch`] for extra
    /// samples of the wrong width.
    ///
    /// The fitter's row lists take `u16` row ids when every row fits
    /// one (`NARROW_ROWS`) and `u32` ids otherwise; both widths fit
    /// the same artifact, bit for bit.
    pub fn distill(
        teacher: &Dbn,
        const_prefix: usize,
        extra_samples: &[Vec<f64>],
        cfg: &DistillConfig,
    ) -> Result<Self, AnnError> {
        cfg.validate()?;
        let in_dim = teacher.input_dim();
        let out_dim = teacher.output_dim();
        if const_prefix > in_dim {
            return Err(AnnError::BadConfig(format!(
                "const_prefix {const_prefix} exceeds input dim {in_dim}"
            )));
        }
        if cfg.depth_const > 0 && const_prefix == 0 {
            return Err(AnnError::BadConfig(
                "depth_const > 0 requires a nonzero const_prefix".into(),
            ));
        }
        if cfg.depth_vary > 0 && const_prefix == in_dim {
            return Err(AnnError::BadConfig(
                "depth_vary > 0 requires varying features beyond const_prefix".into(),
            ));
        }
        for s in extra_samples {
            if s.len() != in_dim {
                return Err(AnnError::dims(
                    format!("{in_dim} features"),
                    format!("{}", s.len()),
                ));
            }
        }
        let n = training_rows(cfg, extra_samples.len(), in_dim, out_dim)?;
        if n <= NARROW_ROWS {
            Self::fit_rows::<u16>(teacher, const_prefix, extra_samples, cfg, n)
        } else {
            Self::fit_rows::<u32>(teacher, const_prefix, extra_samples, cfg, n)
        }
    }

    /// [`DistilledPolicy::distill`] on its `n` validated training rows,
    /// with `R` row ids in the fitter's row lists. The working set is
    /// kept to what each phase reads: the presort runs on the samples
    /// before the labels exist and frees its radix scratch first, and
    /// the leaf tables are allocated only once the tree is grown and
    /// its feature lanes are freed.
    #[allow(clippy::disallowed_methods)] // the holdout scores one row against its teacher row at a time
    fn fit_rows<R: RowId>(
        teacher: &Dbn,
        const_prefix: usize,
        extra_samples: &[Vec<f64>],
        cfg: &DistillConfig,
        n: usize,
    ) -> Result<Self, AnnError> {
        let in_dim = teacher.input_dim();
        let out_dim = teacher.output_dim();

        // Sampling box: the teacher's fitted range, widened so mildly
        // out-of-range queries still land in trained regions. Constant
        // features (span 0) stay pinned.
        let mins = teacher.input_scaler().mins();
        let maxs = teacher.input_scaler().maxs();
        let mut lo = vec![0.0; in_dim];
        let mut hi = vec![0.0; in_dim];
        for i in 0..in_dim {
            let span = maxs[i] - mins[i];
            let pad = if span > 0.0 {
                span * cfg.range_expand
            } else {
                0.0
            };
            lo[i] = mins[i] - pad;
            hi[i] = maxs[i] + pad;
        }

        // Training set: box samples + weighted trajectory samples,
        // presorted per feature, then labelled by the teacher.
        let mut rng = helio_common::rng::derive(cfg.seed, "distill-box");
        let mut xs = Matrix::zeros(n, in_dim);
        for r in 0..cfg.samples {
            let row = xs.row_mut(r);
            for i in 0..in_dim {
                let u: f64 = rng.gen();
                row[i] = lo[i] + u * (hi[i] - lo[i]);
            }
        }
        for (e, s) in extra_samples.iter().enumerate() {
            for w in 0..cfg.extra_weight {
                xs.row_mut(cfg.samples + e * cfg.extra_weight + w)
                    .copy_from_slice(s);
            }
        }
        let mut rows = Presort::<R>::new(&xs);
        // Label rows are zero-padded to the fixed-width kernels' lane
        // count; only the first `out_dim` columns are ever read as
        // labels.
        let mut ys = Matrix::zeros(n, label_width(out_dim));
        let mut labeller = Labeller::default();
        for r0 in (0..n).step_by(LABEL_BLOCK) {
            let r1 = (r0 + LABEL_BLOCK).min(n);
            let (_, out) = labeller.label(teacher, r1 - r0, |r, x| {
                x.copy_from_slice(xs.row(r0 + r));
            })?;
            for r in r0..r1 {
                ys.row_mut(r)[..out_dim].copy_from_slice(out.row(r - r0));
            }
        }

        // Global per-feature and per-output moments: features are
        // standardised inside the leaf fits (the raw scales differ by
        // orders of magnitude), outputs are weighted `1/std` in the
        // split criterion so a wide head (α spans 0..10) cannot crowd
        // out the near-binary task bits.
        let (feat_mean, feat_std) = column_moments(&xs, in_dim);
        let (_, out_std) = column_moments(&ys, out_dim);
        let mut out_weight: Vec<f64> = out_std
            .iter()
            .map(|s| if *s > 1e-9 { 1.0 / s } else { 1.0 })
            .collect();
        out_weight.resize(label_width(out_dim), 0.0);

        let depth = cfg.depth_const + cfg.depth_vary;
        let internal = (1usize << depth) - 1;
        let leaves = 1usize << depth;
        let mut fit = Fit {
            xs: &xs,
            ys: &ys,
            feat: vec![0; internal],
            thresh: vec![f64::MAX; internal],
            leaf_rows: vec![0..0; leaves],
            leaf_means: vec![0.0; leaves * out_dim],
            leaf_bias: Vec::new(),
            leaf_coef: Vec::new(),
            depth,
            depth_const: cfg.depth_const,
            const_prefix,
            in_dim,
            out_dim,
            candidates: cfg.candidates,
            ridge: cfg.ridge,
            out_weight,
            feat_mean,
            feat_std,
        };
        let root_mean = column_means(&ys, rows.in_row_order(0, n), out_dim);
        fit.grow(&mut rows, 0, 0, 0, n, &root_mean);
        fit.fit_leaves(&rows.into_row_order());

        let mut policy = Self {
            in_dim,
            out_dim,
            const_prefix,
            depth_const: cfg.depth_const as u32,
            depth_vary: cfg.depth_vary as u32,
            feat: fit.feat,
            thresh: fit.thresh,
            leaf_bias: fit.leaf_bias,
            leaf_coef: fit.leaf_coef,
            agreement: 0.0,
        };

        // Held-out agreement: fresh box samples, decision-level match
        // against the teacher (rounded heads, thresholded bits).
        let mut hold_rng = helio_common::rng::derive(cfg.seed, "distill-holdout");
        let mut student = Vec::with_capacity(out_dim);
        let mut matches = 0usize;
        for h0 in (0..cfg.holdout).step_by(LABEL_BLOCK) {
            let rows = LABEL_BLOCK.min(cfg.holdout - h0);
            let (xs, out) = labeller.label(teacher, rows, |_, x| {
                for ((v, l), h) in x.iter_mut().zip(&lo).zip(&hi) {
                    let u: f64 = hold_rng.gen();
                    *v = l + u * (h - l);
                }
            })?;
            for r in 0..rows {
                policy.predict_into(xs.row(r), &mut student)?;
                if decisions_match(out.row(r), &student) {
                    matches += 1;
                }
            }
        }
        policy.agreement = matches as f64 / cfg.holdout as f64;
        Ok(policy)
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.out_dim
    }

    /// Number of leading features treated as period-constant.
    pub fn const_prefix(&self) -> usize {
        self.const_prefix
    }

    /// Total tree depth (constant + varying levels).
    pub fn depth(&self) -> usize {
        (self.depth_const + self.depth_vary) as usize
    }

    /// Teacher/student decision match rate on the distillation holdout
    /// (1.0 = every held-out sample produced the identical decision).
    pub fn agreement(&self) -> f64 {
        self.agreement
    }

    fn internal_nodes(&self) -> usize {
        (1usize << self.depth()) - 1
    }

    /// The leaf `x` lands in: the constant levels, then the varying
    /// ones. The caller has checked `x` is `in_dim` wide; `validate`
    /// keeps every split feature below it.
    #[inline(always)]
    fn leaf(&self, x: &[f64]) -> usize {
        let mut n = 0usize;
        for _ in 0..self.depth() {
            let f = self.feat[n] as usize;
            n = 2 * n + 1 + usize::from(x[f] > self.thresh[n]);
        }
        n - self.internal_nodes()
    }

    /// Cold constructors for the hot-path dimension errors: keeping the
    /// `format!` machinery out of line is what lets the walk/evaluate
    /// bodies inline into their per-decision callers.
    #[cold]
    #[inline(never)]
    fn prefix_err(want: usize, got: usize) -> AnnError {
        AnnError::dims(format!("at least {want} features"), format!("{got}"))
    }

    #[cold]
    #[inline(never)]
    fn width_err(what: &str, want: usize, got: usize) -> AnnError {
        AnnError::dims(format!("{want} {what}"), format!("{got}"))
    }

    /// One decision: the tree walk, then the leaf's affine model over
    /// every feature. Allocation-free once `out` has grown to
    /// `out_dim`. This is the sequential one-decision path; batches go
    /// through [`DistilledPolicy::predict_batch_into`], which is
    /// bit-identical lane by lane.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for wrong input sizes.
    #[inline(always)]
    pub fn predict_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<(), AnnError> {
        if x.len() != self.in_dim {
            return Err(Self::width_err("features", self.in_dim, x.len()));
        }
        let leaf = self.leaf(x);
        out.clear();
        out.resize(self.out_dim, 0.0);
        self.accumulate_leaf(leaf, x, out);
        Ok(())
    }

    /// Batched decisions over many scenario lanes sharing this
    /// artifact. `inputs` is lane-major (`in_dim` features per lane);
    /// `out` is resized to one `out_dim` row per lane, allocation-free
    /// once grown.
    ///
    /// Every lane runs the same two parity-interleaved f32
    /// accumulation chains as [`DistilledPolicy::predict_into`] — on
    /// AVX-512 hosts as one masked 16-float register per chain (plain
    /// mul-then-add, never FMA), elsewhere through the scalar twin — so
    /// the batched output is bit-identical to calling `predict_into`
    /// lane by lane.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when `inputs` is not a
    /// whole number of `in_dim`-wide lanes.
    pub fn predict_batch_into(&self, inputs: &[f64], out: &mut Vec<f64>) -> Result<(), AnnError> {
        #[cfg(target_arch = "x86_64")]
        let wide = self.out_dim <= 16 && std::arch::is_x86_feature_detected!("avx512f");
        #[cfg(not(target_arch = "x86_64"))]
        let wide = false;
        self.predict_batch_impl(inputs, out, wide)
    }

    /// [`DistilledPolicy::predict_batch_into`] pinned to the scalar
    /// twin — the SIMD/scalar identity gates diff against this.
    #[doc(hidden)]
    pub fn predict_batch_into_scalar(
        &self,
        inputs: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), AnnError> {
        self.predict_batch_impl(inputs, out, false)
    }

    /// [`DistilledPolicy::predict_batch_into`] over `entries.len()`
    /// lanes. Kept for the benchmark's layer replay until a benchmark
    /// change drops it: every entry [`FoldTable::lookup`] hands out is
    /// `None`, so this is the flat batched kernel.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when `inputs` is not
    /// `entries.len() * in_dim` wide.
    pub fn predict_batch_folded(
        &self,
        entries: &[Option<Arc<FoldEntry>>],
        inputs: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), AnnError> {
        let want = entries.len() * self.in_dim;
        if inputs.len() != want {
            return Err(Self::width_err("lane-major features", want, inputs.len()));
        }
        self.predict_batch_into(inputs, out)
    }

    fn predict_batch_impl(
        &self,
        inputs: &[f64],
        out: &mut Vec<f64>,
        wide: bool,
    ) -> Result<(), AnnError> {
        let (id, od) = (self.in_dim, self.out_dim);
        if !inputs.len().is_multiple_of(id) {
            return Err(AnnError::dims(
                format!("a multiple of {id} lane-major features"),
                format!("{}", inputs.len()),
            ));
        }
        out.clear();
        out.resize(inputs.len() / id * od, 0.0);
        for (x, dst) in inputs.chunks_exact(id).zip(out.chunks_exact_mut(od)) {
            let leaf = self.leaf(x);
            self.leaf_finish(wide, leaf, x, dst);
        }
        Ok(())
    }

    /// Leaf-evaluation dispatch for the batched path: the masked
    /// AVX-512 kernel when the caller's probe allows it, the scalar
    /// twin ([`DistilledPolicy::accumulate_leaf`]) otherwise.
    #[inline(always)]
    fn leaf_finish(&self, wide: bool, leaf: usize, x: &[f64], dst: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if wide {
            // SAFETY: `wide` is only set after an `avx512f` runtime
            // probe succeeded with `out_dim <= 16`.
            unsafe { self.accumulate_leaf_avx512(leaf, x, dst) };
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = wide;
        self.accumulate_leaf(leaf, x, dst);
    }

    /// Evaluates the leaf model `dst[d] = bias[d] + Σ coef[t][d]·x[t]`
    /// of leaf `leaf`, writing the combined f64-widened result into
    /// `dst` (length `out_dim`).
    ///
    /// The whole evaluation runs in `f32` (the artifact's storage
    /// precision) as **two independent accumulation chains** — one
    /// over even-indexed features, one over odd-indexed. A single
    /// strictly sequential chain of thirteen float adds per output was
    /// the latency floor; two chains halve the dependency depth and
    /// the CPU overlaps them. The even chain starts from the
    /// intercept, the odd chain from zero, and the output is the f32
    /// sum `even + odd` widened to f64.
    ///
    /// Dispatches to a const-width body for the scheduler's decision
    /// widths (the lane count known at compile time keeps the
    /// accumulators in registers with no per-feature vector-loop
    /// prologue).
    ///
    /// `inline(always)`: the callers are the (themselves inlined)
    /// predict bodies, and the out-of-line version pays a
    /// ten-register prologue per decision.
    #[inline(always)]
    fn accumulate_leaf(&self, leaf: usize, x: &[f64], dst: &mut [f64]) {
        let od = self.out_dim;
        let lc = leaf * self.in_dim * od;
        let xs = &x[..self.in_dim];
        let coefs = &self.leaf_coef[lc..lc + self.in_dim * od];
        let bias = &self.leaf_bias[leaf * od..(leaf + 1) * od];
        match od {
            8 => Self::leaf_rows_fixed::<8>(coefs, xs, bias, dst),
            10 => Self::leaf_rows_fixed::<10>(coefs, xs, bias, dst),
            12 => Self::leaf_rows_fixed::<12>(coefs, xs, bias, dst),
            16 => Self::leaf_rows_fixed::<16>(coefs, xs, bias, dst),
            _ => Self::leaf_rows_dyn(coefs, xs, bias, dst),
        }
    }

    /// [`DistilledPolicy::accumulate_leaf`] body with the output
    /// width as a compile-time constant (`N == out_dim`).
    #[inline(always)]
    fn leaf_rows_fixed<const N: usize>(coefs: &[f32], xs: &[f64], bias: &[f32], dst: &mut [f64]) {
        let mut even = [0.0f32; N];
        let mut odd = [0.0f32; N];
        even.copy_from_slice(&bias[..N]);
        // `chunks_exact` + slice zips: no per-iteration bounds checks
        // or iterator-adapter state, just one wide multiply-add block
        // per feature, alternating between the two chains.
        let mut it = coefs.chunks_exact(N).zip(xs);
        while let Some((row, &v)) = it.next() {
            let vf = v as f32;
            for (a, &c) in even.iter_mut().zip(row) {
                *a += c * vf;
            }
            let Some((row, &v)) = it.next() else { break };
            let vf = v as f32;
            for (a, &c) in odd.iter_mut().zip(row) {
                *a += c * vf;
            }
        }
        for ((d, &e), &o) in dst.iter_mut().zip(even.iter()).zip(odd.iter()) {
            *d = f64::from(e + o);
        }
    }

    /// [`DistilledPolicy::accumulate_leaf`] body for widths without a
    /// const-dispatched variant: output lanes are processed in
    /// register-resident blocks so the per-lane operation sequence —
    /// and therefore every rounding — matches the fixed bodies, and
    /// no scratch is allocated.
    fn leaf_rows_dyn(coefs: &[f32], xs: &[f64], bias: &[f32], dst: &mut [f64]) {
        const B: usize = 16;
        let od = dst.len();
        let mut lane = 0;
        while lane < od {
            let w = B.min(od - lane);
            let mut even = [0.0f32; B];
            let mut odd = [0.0f32; B];
            even[..w].copy_from_slice(&bias[lane..lane + w]);
            let mut it = coefs.chunks_exact(od).zip(xs);
            while let Some((row, &v)) = it.next() {
                let vf = v as f32;
                for (a, &c) in even[..w].iter_mut().zip(&row[lane..lane + w]) {
                    *a += c * vf;
                }
                let Some((row, &v)) = it.next() else { break };
                let vf = v as f32;
                for (a, &c) in odd[..w].iter_mut().zip(&row[lane..lane + w]) {
                    *a += c * vf;
                }
            }
            for ((d, &e), &o) in dst[lane..lane + w]
                .iter_mut()
                .zip(even.iter())
                .zip(odd.iter())
            {
                *d = f64::from(e + o);
            }
            lane += w;
        }
    }

    /// [`DistilledPolicy::accumulate_leaf`] with both parity chains
    /// held in one masked 16-float ZMM register each. Per output lane
    /// the operation sequence is the scalar twin's exactly — broadcast
    /// the feature, `vmulps` against the coefficient row, `vaddps`
    /// into the chain of the feature's parity, finish with one f32
    /// `even + odd` widened to f64. No FMA anywhere: the artifact owes
    /// bit-identity, and a fused multiply-add rounds once where the
    /// scalar path rounds twice.
    ///
    /// # Safety
    ///
    /// The caller must have verified that the host supports `avx512f`
    /// and that `out_dim <= 16` (the mask covers one register).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn accumulate_leaf_avx512(&self, leaf: usize, x: &[f64], dst: &mut [f64]) {
        use std::arch::x86_64::{
            __mmask16, _mm512_add_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps,
            _mm512_set1_ps, _mm512_setzero_ps,
        };
        let od = self.out_dim;
        debug_assert!(od <= 16 && dst.len() == od);
        let mask: __mmask16 = if od == 16 { !0 } else { (1u16 << od) - 1 };
        let lc = leaf * self.in_dim * od;
        let xs = &x[..self.in_dim];
        let coefs = &self.leaf_coef[lc..lc + self.in_dim * od];
        let b = &self.leaf_bias[leaf * od..(leaf + 1) * od];
        // SAFETY: the masked loads touch exactly the first `od` floats
        // of each row; `validate` pins `leaf_bias`/`leaf_coef` to
        // `leaves * od` / `leaves * in_dim * od`, so every enabled mask
        // lane is in bounds.
        let mut even = _mm512_maskz_loadu_ps(mask, b.as_ptr());
        let mut odd = _mm512_setzero_ps();
        for (t, (row, &v)) in coefs.chunks_exact(od).zip(xs).enumerate() {
            let vf = _mm512_set1_ps(v as f32);
            // SAFETY: `row` is exactly `od` floats (`chunks_exact`).
            let c = _mm512_maskz_loadu_ps(mask, row.as_ptr());
            let prod = _mm512_mul_ps(c, vf);
            if t.is_multiple_of(2) {
                even = _mm512_add_ps(even, prod);
            } else {
                odd = _mm512_add_ps(odd, prod);
            }
        }
        let sum = _mm512_add_ps(even, odd);
        let mut buf = [0.0f32; 16];
        // SAFETY: `buf` holds a full register's 16 floats.
        _mm512_mask_storeu_ps(buf.as_mut_ptr(), mask, sum);
        for (d, &s) in dst.iter_mut().zip(buf.iter()) {
            *d = f64::from(s);
        }
    }

    /// Structural validation: every array has the advertised length,
    /// every node splits on a feature its level is allowed to read, and
    /// every leaf model is finite. Called on deserialisation so the
    /// indexing in the walk methods is panic-free on any artifact that
    /// passes.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadConfig`] describing the first violation.
    pub fn validate(&self) -> Result<(), AnnError> {
        if self.in_dim == 0 || self.out_dim == 0 {
            return Err(AnnError::BadConfig("empty input or output dim".into()));
        }
        if self.const_prefix > self.in_dim {
            return Err(AnnError::BadConfig(format!(
                "const_prefix {} exceeds input dim {}",
                self.const_prefix, self.in_dim
            )));
        }
        let depth = self.depth();
        if depth == 0 || depth > 20 {
            return Err(AnnError::BadConfig(format!(
                "tree depth must be in 1..=20, got {depth}"
            )));
        }
        let internal = (1usize << depth) - 1;
        if self.feat.len() != internal || self.thresh.len() != internal {
            return Err(AnnError::BadConfig(format!(
                "expected {internal} internal nodes, got {} features / {} thresholds",
                self.feat.len(),
                self.thresh.len()
            )));
        }
        let leaves = 1usize << depth;
        if self.leaf_bias.len() != leaves * self.out_dim {
            return Err(AnnError::BadConfig(format!(
                "expected {} leaf intercepts, got {}",
                leaves * self.out_dim,
                self.leaf_bias.len()
            )));
        }
        if self.leaf_coef.len() != leaves * self.out_dim * self.in_dim {
            return Err(AnnError::BadConfig(format!(
                "expected {} leaf coefficients, got {}",
                leaves * self.out_dim * self.in_dim,
                self.leaf_coef.len()
            )));
        }
        for level in 0..depth {
            let (fl, fh) = if level < self.depth_const as usize {
                (0, self.const_prefix)
            } else {
                (self.const_prefix, self.in_dim)
            };
            let start = (1usize << level) - 1;
            let end = (1usize << (level + 1)) - 1;
            for n in start..end {
                let f = self.feat[n] as usize;
                if f < fl || f >= fh {
                    return Err(AnnError::BadConfig(format!(
                        "node {n} (level {level}) splits on feature {f}, allowed [{fl}, {fh})"
                    )));
                }
                if !self.thresh[n].is_finite() {
                    return Err(AnnError::BadConfig(format!(
                        "node {n} has non-finite threshold"
                    )));
                }
            }
        }
        if self.leaf_bias.iter().any(|v| !v.is_finite())
            || self.leaf_coef.iter().any(|v| !v.is_finite())
        {
            return Err(AnnError::BadConfig("non-finite leaf model".into()));
        }
        if !self.agreement.is_finite() || !(0.0..=1.0).contains(&self.agreement) {
            return Err(AnnError::BadConfig(format!(
                "agreement {} outside [0, 1]",
                self.agreement
            )));
        }
        Ok(())
    }

    /// Serialises the artifact to JSON (deployable policy asset).
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadConfig`] when serialisation fails (should
    /// not happen for well-formed artifacts).
    pub fn to_json(&self) -> Result<String, AnnError> {
        serde_json::to_string(self).map_err(|e| AnnError::BadConfig(e.to_string()))
    }

    /// Restores and validates an artifact serialised with
    /// [`DistilledPolicy::to_json`].
    ///
    /// The four tree and leaf arrays are read element by element
    /// ([`serde_json::read_object`]), never as a `Value` tree: a tree
    /// would take ~4 MiB for a 1 MB artifact, about half the
    /// distillation's own peak. The first of duplicate keys counts and
    /// unknown keys are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadConfig`] for malformed JSON, a missing
    /// field or a structurally invalid artifact.
    pub fn from_json(json: &str) -> Result<Self, AnnError> {
        let (mut in_dim, mut out_dim, mut const_prefix) = (None, None, None);
        let (mut depth_const, mut depth_vary, mut agreement) = (None, None, None);
        let (mut feat, mut thresh, mut leaf_bias, mut leaf_coef) = (None, None, None, None);
        serde_json::read_object(json, |key, m| {
            match key {
                "in_dim" if in_dim.is_none() => in_dim = Some(m.value()?),
                "out_dim" if out_dim.is_none() => out_dim = Some(m.value()?),
                "const_prefix" if const_prefix.is_none() => const_prefix = Some(m.value()?),
                "depth_const" if depth_const.is_none() => depth_const = Some(m.value()?),
                "depth_vary" if depth_vary.is_none() => depth_vary = Some(m.value()?),
                "feat" if feat.is_none() => feat = Some(m.array()?),
                "thresh" if thresh.is_none() => thresh = Some(m.array()?),
                "leaf_bias" if leaf_bias.is_none() => leaf_bias = Some(m.array()?),
                "leaf_coef" if leaf_coef.is_none() => leaf_coef = Some(m.array()?),
                "agreement" if agreement.is_none() => agreement = Some(m.value()?),
                _ => {}
            }
            Ok(())
        })
        .map_err(|e| AnnError::BadConfig(e.to_string()))?;
        fn field<T>(v: Option<T>, name: &str) -> Result<T, AnnError> {
            v.ok_or_else(|| AnnError::BadConfig(format!("missing field `{name}`")))
        }
        let policy = Self {
            in_dim: field(in_dim, "in_dim")?,
            out_dim: field(out_dim, "out_dim")?,
            const_prefix: field(const_prefix, "const_prefix")?,
            depth_const: field(depth_const, "depth_const")?,
            depth_vary: field(depth_vary, "depth_vary")?,
            feat: field(feat, "feat")?,
            thresh: field(thresh, "thresh")?,
            leaf_bias: field(leaf_bias, "leaf_bias")?,
            leaf_coef: field(leaf_coef, "leaf_coef")?,
            agreement: field(agreement, "agreement")?,
        };
        policy.validate()?;
        Ok(policy)
    }
}

/// The handle every distilled lane of a batch shares. It carries the
/// artifact, and the batch engine groups lanes whose planners hold the
/// same `Arc<FoldTable>` into one [`DistilledPolicy::predict_batch_into`]
/// call.
///
/// Every decision is served flat. [`FoldTable::lookup`], [`FoldEntry`],
/// [`FoldTable::DEFAULT_CAPACITY`] and
/// [`DistilledPolicy::predict_batch_folded`] stay only because the
/// benchmark's layer replay calls them, until a benchmark change drops
/// them.
#[derive(Debug)]
pub struct FoldTable {
    policy: Arc<DistilledPolicy>,
}

/// What [`FoldTable::lookup`] could hand out. It has no values, so no
/// folded lane can exist; kept for the benchmark's layer replay.
#[derive(Debug)]
pub struct FoldEntry(Infallible);

impl FoldTable {
    /// Kept for the benchmark's layer replay; [`FoldTable::new`]
    /// ignores the capacity.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// The shared handle over `policy`. `capacity` is ignored: the
    /// table holds nothing but the artifact.
    pub fn new(policy: Arc<DistilledPolicy>, capacity: usize) -> Self {
        let _ = capacity;
        Self { policy }
    }

    /// The artifact every lane sharing this table runs.
    pub fn policy(&self) -> &Arc<DistilledPolicy> {
        &self.policy
    }

    /// Kept for the benchmark's layer replay: checks that `x` covers
    /// the policy's constant prefix, then returns `Ok(None)`, the flat
    /// path.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when `x` is shorter
    /// than the policy's constant prefix.
    pub fn lookup(&self, x: &[f64]) -> Result<Option<Arc<FoldEntry>>, AnnError> {
        let cp = self.policy.const_prefix();
        if x.len() < cp {
            return Err(DistilledPolicy::prefix_err(cp, x.len()));
        }
        Ok(None)
    }
}

/// Decision-level equality between two raw output vectors: the first
/// two outputs (capacitor head, α head) compared after rounding to the
/// nearest integer, every remaining output (task-admission bits)
/// compared as a `>= 0.5` threshold — mirroring how the online planner
/// consumes the vector.
pub fn decisions_match(a: &[f64], b: &[f64]) -> bool {
    if a.len() != b.len() || a.len() < 2 {
        return false;
    }
    if a[0].round() != b[0].round() || a[1].round() != b[1].round() {
        return false;
    }
    a.iter()
        .zip(b.iter())
        .skip(2)
        .all(|(x, y)| (*x >= 0.5) == (*y >= 0.5))
}

/// Label-row widths of the fixed-width split and leaf kernels, taken
/// from the in-tree teachers, whose `out_dim` is 2 + tasks: ECG (6
/// tasks), SHM (5) and random task sets of up to 6 tasks pad to
/// [`LANES`]; WAM (8 tasks) and random sets of 7 or 8 (the generator
/// draws 4 to 8) pad to [`WIDE_LANES`]. Wider teachers take the
/// runtime-width path. One 10-lane width for all would cost the 8-output
/// fits about a fifth of their time: a padded row no longer fits one
/// 64-byte cache line.
const LANES: usize = 8;
const WIDE_LANES: usize = 10;

/// Normal-equation width (inputs plus intercept) of the fixed-width
/// leaf kernel; wider inputs take the runtime-width path.
const LEAF_DIMS: usize = 16;

/// Rows per batched teacher call when labelling training and holdout
/// samples.
const LABEL_BLOCK: usize = 256;

/// Columns of the training label matrix: `out_dim` labels, zero-padded
/// to [`LANES`] or [`WIDE_LANES`] when they fit the fixed-width kernels.
fn label_width(out_dim: usize) -> usize {
    [LANES, WIDE_LANES]
        .into_iter()
        .find(|&lanes| out_dim <= lanes)
        .unwrap_or(out_dim)
}

/// Block-wise teacher labelling through [`Dbn::predict_batch_into`],
/// whose rows are bitwise [`Dbn::predict_into`]'s. Its buffers are
/// reused by every block of a fit.
#[derive(Default)]
struct Labeller {
    inputs: Matrix,
    labels: Matrix,
    scratch: BatchPredictScratch,
}

impl Labeller {
    /// Fills a `rows`-row input block through `fill(row, features)`
    /// and labels it with `teacher`. Returns the inputs and the
    /// labels.
    fn label(
        &mut self,
        teacher: &Dbn,
        rows: usize,
        mut fill: impl FnMut(usize, &mut [f64]),
    ) -> Result<(&Matrix, &Matrix), AnnError> {
        self.inputs.reset(rows, teacher.input_dim());
        for r in 0..rows {
            fill(r, self.inputs.row_mut(r));
        }
        teacher.predict_batch_into(&self.inputs, &mut self.scratch, &mut self.labels)?;
        Ok((&self.inputs, &self.labels))
    }
}

/// Number of training rows, `samples + extras × extra_weight`, in
/// checked arithmetic. The fitter's widest row ids are `u32`, and the
/// `n × in_dim` sample and `n × label_width(out_dim)` label matrices
/// (which bound the fitter's `(in_dim + 1) × n` row lists too) must fit
/// the address space.
fn training_rows(
    cfg: &DistillConfig,
    extras: usize,
    in_dim: usize,
    out_dim: usize,
) -> Result<usize, AnnError> {
    let n = extras
        .checked_mul(cfg.extra_weight)
        .and_then(|e| e.checked_add(cfg.samples))
        .filter(|&n| u32::try_from(n).is_ok());
    let fits = |cols: usize| {
        n.and_then(|n| n.checked_mul(cols))
            .and_then(|c| c.checked_mul(std::mem::size_of::<f64>()))
            .is_some_and(|bytes| isize::try_from(bytes).is_ok())
    };
    match n {
        Some(n) if fits(in_dim) && fits(label_width(out_dim)) => Ok(n),
        _ => Err(AnnError::BadConfig(format!(
            "{} box samples plus {extras} trajectory samples × {} exceed the \
             distillation set's limit of {} rows",
            cfg.samples,
            cfg.extra_weight,
            u32::MAX
        ))),
    }
}

fn column_means<R: RowId>(ys: &Matrix, idx: &[R], out_dim: usize) -> Vec<f64> {
    let mut mean = vec![0.0; out_dim];
    if idx.is_empty() {
        return mean;
    }
    for &r in idx {
        for (m, v) in mean.iter_mut().zip(ys.row(r.index())) {
            *m += v;
        }
    }
    let inv = 1.0 / idx.len() as f64;
    for m in &mut mean {
        *m *= inv;
    }
    mean
}

/// Per-column mean and standard deviation over all rows.
fn column_moments(m: &Matrix, cols: usize) -> (Vec<f64>, Vec<f64>) {
    let n = m.rows().max(1) as f64;
    let mut mean = vec![0.0; cols];
    let mut sq = vec![0.0; cols];
    for r in 0..m.rows() {
        for ((mu, q), v) in mean.iter_mut().zip(sq.iter_mut()).zip(m.row(r)) {
            *mu += v;
            *q += v * v;
        }
    }
    let mut std = vec![0.0; cols];
    for ((mu, q), s) in mean.iter_mut().zip(&sq).zip(std.iter_mut()) {
        *mu /= n;
        *s = (q / n - *mu * *mu).max(0.0).sqrt();
    }
    (mean, std)
}

/// Largest training set whose rows the fitter numbers with `u16` ids.
const NARROW_ROWS: usize = 1 << u16::BITS;

/// A row id in the fitter's row lists: `u16` for sets of up to
/// [`NARROW_ROWS`] rows, halving the lists' bytes, `u32` otherwise.
trait RowId: Copy + Default {
    /// The id of row `r`, which the caller keeps below the width's
    /// row limit.
    fn from_index(r: usize) -> Self;
    fn index(self) -> usize;
}

impl RowId for u16 {
    fn from_index(r: usize) -> Self {
        r as u16
    }

    fn index(self) -> usize {
        usize::from(self)
    }
}

impl RowId for u32 {
    fn from_index(r: usize) -> Self {
        r as u32
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Order-preserving `u64` image of [`f64::total_cmp`]: comparing keys
/// as integers compares the values in IEEE total order.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Bits per radix digit: six passes cover a `u64` key, and one pass's
/// 2048 counters stay in L1.
const RADIX_BITS: u32 = 11;
const RADIX_BUCKETS: usize = 1 << RADIX_BITS;
const RADIX_PASSES: usize = u64::BITS.div_ceil(RADIX_BITS) as usize;

/// Buffers of the presort's stable LSD radix sort, allocated once per
/// fit: each key travels with its row, so a pass streams both arrays
/// and never gathers.
struct RadixSort<R> {
    keys: Vec<u64>,
    alt_keys: Vec<u64>,
    alt_rows: Vec<R>,
    /// One histogram per digit, `RADIX_PASSES × RADIX_BUCKETS`.
    counts: Vec<u32>,
}

impl<R: RowId> RadixSort<R> {
    fn new(n: usize) -> Self {
        Self {
            keys: vec![0; n],
            alt_keys: vec![0; n],
            alt_rows: vec![R::default(); n],
            counts: vec![0; RADIX_PASSES * RADIX_BUCKETS],
        }
    }

    /// Fills `lane` with the row ids `0..lane.len()` sorted by
    /// `(key(row), row)`. The passes are stable and start from
    /// ascending ids, so equal keys stay in row order. A pass whose
    /// digit is the same for every key is skipped.
    fn sort(&mut self, lane: &mut [R], key: impl Fn(usize) -> u64) {
        let n = lane.len();
        let Self {
            keys,
            alt_keys,
            alt_rows,
            counts,
        } = self;
        let (keys, alt_keys, alt_rows) = (&mut keys[..n], &mut alt_keys[..n], &mut alt_rows[..n]);
        counts.fill(0);
        for ((r, slot), k) in (0..).zip(lane.iter_mut()).zip(keys.iter_mut()) {
            *slot = R::from_index(r);
            *k = key(r);
            for (pass, hist) in counts.chunks_exact_mut(RADIX_BUCKETS).enumerate() {
                hist[digit(*k, pass)] += 1;
            }
        }
        let mut in_lane = true;
        for (pass, hist) in counts.chunks_exact_mut(RADIX_BUCKETS).enumerate() {
            let Some(&first) = keys.first() else { return };
            if hist[digit(first, pass)] as usize == n {
                continue;
            }
            let mut at = 0;
            for c in hist.iter_mut() {
                let count = *c;
                *c = at;
                at += count;
            }
            if in_lane {
                scatter(keys, lane, alt_keys, alt_rows, hist, pass);
            } else {
                scatter(alt_keys, alt_rows, keys, lane, hist, pass);
            }
            in_lane = !in_lane;
        }
        if !in_lane {
            lane.copy_from_slice(alt_rows);
        }
    }
}

/// Digit `pass` (least significant first) of a radix key.
fn digit(key: u64, pass: usize) -> usize {
    (key >> (pass as u32 * RADIX_BITS)) as usize & (RADIX_BUCKETS - 1)
}

/// One stable counting-sort pass: moves every `(key, row)` pair to the
/// next free slot of its digit's bucket, `starts` holding each bucket's
/// first free slot.
fn scatter<R: RowId>(
    keys: &[u64],
    rows: &[R],
    to_keys: &mut [u64],
    to_rows: &mut [R],
    starts: &mut [u32],
    pass: usize,
) {
    for (&k, &r) in keys.iter().zip(rows) {
        let slot = &mut starts[digit(k, pass)];
        let at = *slot as usize;
        *slot += 1;
        to_keys[at] = k;
        to_rows[at] = r;
    }
}

/// The fitter's presorted row lists (SLIQ-style attribute lists): one
/// `n`-long lane of row ids per feature, plus a lane in row order.
///
/// **Invariant.** Every tree node owns one contiguous range
/// `[start, end)`, the same in every lane. Within it, feature lane `f`
/// lists the node's rows sorted by `(x[f], row)` — IEEE total order,
/// ties by row index — and the row-order lane lists them ascending.
/// Splitting a node stably partitions each lane its subtree still reads
/// (left rows first), so both children inherit the invariant and no
/// node ever sorts.
struct Presort<R> {
    n: usize,
    /// `in_dim × n` row ids, lane-major.
    lanes: Vec<R>,
    /// The row-order lane: the only one the leaf fits read, so it
    /// outlives the feature lanes.
    rows: Vec<R>,
    /// Routing of the split being applied, by row: `true` goes right.
    goes_right: Vec<bool>,
    /// The right-hand rows of the lane being partitioned.
    spill: Vec<R>,
}

impl<R: RowId> Presort<R> {
    /// Sorts every feature of `xs`, once, by `(value, row)` in IEEE
    /// total order. The radix scratch is freed before this returns.
    fn new(xs: &Matrix) -> Self {
        let n = xs.rows();
        let mut lanes = vec![R::default(); xs.cols() * n];
        let mut radix = RadixSort::new(n);
        for (f, lane) in lanes.chunks_exact_mut(n.max(1)).enumerate() {
            radix.sort(lane, |r| total_order_key(xs.row(r)[f]));
        }
        Self {
            n,
            lanes,
            rows: (0..n).map(R::from_index).collect(),
            goes_right: vec![false; n],
            spill: vec![R::default(); n],
        }
    }

    fn lane(&self, lane: usize, start: usize, end: usize) -> &[R] {
        &self.lanes[lane * self.n + start..lane * self.n + end]
    }

    /// The node's rows in ascending row order — the order every sum
    /// over a node's rows runs in.
    fn in_row_order(&self, start: usize, end: usize) -> &[R] {
        &self.rows[start..end]
    }

    /// The row-order lane, every other list freed: each leaf's rows
    /// stay at the range they had when the leaf was reached.
    fn into_row_order(self) -> Vec<R> {
        self.rows
    }

    /// Routes the node's rows on `x[f] > t` (right) and stably
    /// partitions the row-order lane and every lane in `keep` into left
    /// rows then right rows. Returns the first right position.
    fn partition(
        &mut self,
        xs: &Matrix,
        start: usize,
        end: usize,
        f: usize,
        t: f64,
        keep: Range<usize>,
    ) -> usize {
        let n = self.n;
        for &r in &self.rows[start..end] {
            self.goes_right[r.index()] = xs.row(r.index())[f] > t;
        }
        for lane in keep {
            let seg = &mut self.lanes[lane * n + start..lane * n + end];
            stable_partition(seg, &mut self.spill, &self.goes_right);
        }
        start
            + stable_partition(
                &mut self.rows[start..end],
                &mut self.spill,
                &self.goes_right,
            )
    }
}

/// Stably moves the rows of `seg` that do not go right ahead of those
/// that do, through `spill`. Returns the number of left rows.
fn stable_partition<R: RowId>(seg: &mut [R], spill: &mut [R], goes_right: &[bool]) -> usize {
    let spill = &mut spill[..seg.len()];
    // Every row is written to both sides and only its side's cursor
    // advances: no branch on the routing to mispredict.
    let (mut left, mut right) = (0, 0);
    for i in 0..seg.len() {
        let r = seg[i];
        let go = usize::from(goes_right[r.index()]);
        seg[left] = r;
        spill[right] = r;
        left += 1 - go;
        right += go;
    }
    seg[left..].copy_from_slice(&spill[..right]);
    left
}

/// Greedy CART fitter for the complete, level-feature-partitioned
/// linear model tree. Split search sweeps [`Presort`] lanes, so each
/// feature is sorted once per fit rather than once per node.
struct Fit<'a> {
    xs: &'a Matrix,
    ys: &'a Matrix,
    feat: Vec<u32>,
    thresh: Vec<f64>,
    /// Each leaf's range of the row lists, recorded as the tree grows.
    leaf_rows: Vec<Range<usize>>,
    /// Each leaf's label mean (its ancestor's for an empty leaf),
    /// `out_dim` per leaf: the fallback model of an under-populated or
    /// singular leaf.
    leaf_means: Vec<f64>,
    /// Leaf models, quantised to the artifact's `f32` as each leaf is
    /// fitted (the ridge fits run in f64), so the stored agreement
    /// measures the precision actually deployed. Empty until the tree
    /// is grown.
    leaf_bias: Vec<f32>,
    leaf_coef: Vec<f32>,
    depth: usize,
    depth_const: usize,
    const_prefix: usize,
    in_dim: usize,
    out_dim: usize,
    candidates: usize,
    ridge: f64,
    /// Per-output weights in the split criterion: `1 / std`, so a
    /// wide head (α spans 0..10) cannot crowd out the near-binary task
    /// bits when scoring variance reduction. Zero-padded to the label
    /// rows' width.
    out_weight: Vec<f64>,
    /// Global feature moments for standardised ridge fits.
    feat_mean: Vec<f64>,
    feat_std: Vec<f64>,
}

impl Fit<'_> {
    /// Feature lanes the subtree of a node at `level` reads: its own
    /// split section and every section below it. Leaves read none.
    fn lanes_below(&self, level: usize) -> Range<usize> {
        let lo = if level < self.depth_const {
            0
        } else {
            self.const_prefix
        };
        let hi = if level == self.depth {
            lo
        } else if self.depth > self.depth_const {
            self.in_dim
        } else {
            self.const_prefix
        };
        lo..hi
    }

    /// The label rows as `L`-wide arrays; the rows must be `L` wide.
    fn label_lanes<const L: usize>(&self) -> &[[f64; L]] {
        self.ys.as_slice().as_chunks::<L>().0
    }

    /// Grows the subtree of `node`, whose rows are `[start, end)` of
    /// every lane of `rows`, and records each of its leaves' range and
    /// mean for [`Fit::fit_leaves`].
    fn grow<R: RowId>(
        &mut self,
        rows: &mut Presort<R>,
        node: usize,
        level: usize,
        start: usize,
        end: usize,
        parent_mean: &[f64],
    ) {
        let mean = if start == end {
            parent_mean.to_vec()
        } else {
            column_means(self.ys, rows.in_row_order(start, end), self.out_dim)
        };
        if level == self.depth {
            let leaf = node - ((1usize << self.depth) - 1);
            let od = self.out_dim;
            self.leaf_rows[leaf] = start..end;
            self.leaf_means[leaf * od..(leaf + 1) * od].copy_from_slice(&mean);
            return;
        }
        let (fl, fh) = if level < self.depth_const {
            (0, self.const_prefix)
        } else {
            (self.const_prefix, self.in_dim)
        };
        let (f, t, mid) = match self.best_split(rows, start, end, fl, fh) {
            Some((f, t)) => {
                let keep = self.lanes_below(level + 1);
                (f, t, rows.partition(self.xs, start, end, f, t, keep))
            }
            // Degenerate region (too small or constant): route
            // everything left; the right subtree inherits the mean.
            // `f64::MAX` rather than `+inf` because the routing rule is
            // `x > thresh` and the JSON form (which maps non-finite
            // floats to null) must round-trip bytewise.
            None => (fl, f64::MAX, end),
        };
        self.feat[node] = f as u32;
        self.thresh[node] = t;
        self.grow(rows, 2 * node + 1, level + 1, start, mid, &mean);
        self.grow(rows, 2 * node + 2, level + 1, mid, end, &mean);
    }

    /// Allocates the leaf tables and fits every leaf recorded by
    /// [`Fit::grow`] from `rows`, the grown tree's row-order lane.
    fn fit_leaves<R: RowId>(&mut self, rows: &[R]) {
        let (od, leaves) = (self.out_dim, self.leaf_rows.len());
        self.leaf_bias = vec![0.0; leaves * od];
        self.leaf_coef = vec![0.0; leaves * od * self.in_dim];
        let leaf_rows = std::mem::take(&mut self.leaf_rows);
        let means = std::mem::take(&mut self.leaf_means);
        for (leaf, span) in leaf_rows.into_iter().enumerate() {
            self.fit_leaf(leaf, &rows[span], &means[leaf * od..(leaf + 1) * od]);
        }
    }

    /// Ridge-fits `y ≈ bias + coef · x` over the leaf's samples in
    /// globally standardised feature space, then unfolds the model back
    /// to raw space. Under-populated leaves keep the (ancestor) mean
    /// with zero slope.
    fn fit_leaf<R: RowId>(&mut self, leaf: usize, idx: &[R], mean: &[f64]) {
        // Model dims: the inputs, then the intercept.
        let dims = self.in_dim + 1;
        // Fewer samples than model dims: fall back to the mean.
        if idx.len() < dims + 2 {
            self.set_mean(leaf * self.out_dim, mean);
            return;
        }
        match self.ys.cols() {
            LANES if dims <= LEAF_DIMS => self.fit_leaf_lanes::<LANES, R>(leaf, idx, mean),
            WIDE_LANES if dims <= LEAF_DIMS => {
                self.fit_leaf_lanes::<WIDE_LANES, R>(leaf, idx, mean)
            }
            _ => {
                let (mut g, b) = self.normal_equations_wide(idx);
                self.solve_leaf(leaf, &mut g, dims, idx.len(), mean, |d, rhs| {
                    rhs.copy_from_slice(&b[d * dims..(d + 1) * dims]);
                });
            }
        }
    }

    /// [`Fit::fit_leaf`] through [`Fit::normal_equations_fixed`]; the
    /// label rows must be `L` wide.
    fn fit_leaf_lanes<const L: usize, R: RowId>(&mut self, leaf: usize, idx: &[R], mean: &[f64]) {
        let (mut g, bt) = self.normal_equations_fixed(self.label_lanes::<L>(), idx);
        self.solve_leaf(leaf, &mut g, LEAF_DIMS, idx.len(), mean, |d, rhs| {
            for (v, b) in rhs.iter_mut().zip(&bt) {
                *v = b[d];
            }
        });
    }

    /// The leaf's standardised features, `z[i] = (x[i] − μ_i)/σ_i`
    /// (0 for a constant feature), then the intercept's 1, written to
    /// the front of `z`.
    fn standardise(&self, x: &[f64], z: &mut [f64]) {
        for (((zi, v), mu), sd) in z.iter_mut().zip(x).zip(&self.feat_mean).zip(&self.feat_std) {
            *zi = if *sd > 1e-12 { (v - mu) / sd } else { 0.0 };
        }
        z[self.in_dim] = 1.0;
    }

    /// Normal equations `Zᵀ Z` and `Zᵀ Y` of the leaf's rows, with
    /// every width fixed: the dims are zero-padded past the intercept
    /// to [`LEAF_DIMS`] and the outputs to the `L` label lanes, so the
    /// buffers live on the stack and the inner loops have constant trip
    /// counts. Each entry of the upper triangle and of `Zᵀ Y` takes
    /// the same additions in the same row order as the runtime-width
    /// path; a zero `z[i]` skips row `i` in both, so padding adds
    /// nothing, and the rows below the diagonal, which take extra
    /// terms here, are overwritten from the upper triangle.
    /// Returns `Zᵀ Z` (row stride [`LEAF_DIMS`]) and `(Zᵀ Y)ᵀ`, one
    /// `L`-wide row per dim.
    fn normal_equations_fixed<const L: usize, R: RowId>(
        &self,
        ys: &[[f64; L]],
        idx: &[R],
    ) -> ([f64; LEAF_DIMS * LEAF_DIMS], [[f64; L]; LEAF_DIMS]) {
        let mut g = [0.0; LEAF_DIMS * LEAF_DIMS];
        let mut bt = [[0.0; L]; LEAF_DIMS];
        let mut z = [0.0; LEAF_DIMS];
        for &r in idx {
            self.standardise(self.xs.row(r.index()), &mut z);
            let y = &ys[r.index()];
            for ((&zi, gi), bi) in z.iter().zip(g.as_chunks_mut::<LEAF_DIMS>().0).zip(&mut bt) {
                if zi == 0.0 {
                    continue;
                }
                for (a, zj) in gi.iter_mut().zip(&z) {
                    *a += zi * zj;
                }
                for (a, v) in bi.iter_mut().zip(y) {
                    *a += zi * v;
                }
            }
        }
        (g, bt)
    }

    /// [`Fit::normal_equations_fixed`] at the fit's own widths, on the
    /// heap: `Zᵀ Z` with row stride `in_dim + 1` and `Zᵀ Y` one row per
    /// output.
    fn normal_equations_wide<R: RowId>(&self, idx: &[R]) -> (Vec<f64>, Vec<f64>) {
        let dims = self.in_dim + 1;
        let mut g = vec![0.0; dims * dims];
        let mut b = vec![0.0; dims * self.out_dim];
        let mut z = vec![0.0; dims];
        for &r in idx {
            self.standardise(self.xs.row(r.index()), &mut z);
            let y = &self.ys.row(r.index())[..self.out_dim];
            for i in 0..dims {
                let zi = z[i];
                if zi == 0.0 {
                    continue;
                }
                for j in i..dims {
                    g[i * dims + j] += zi * z[j];
                }
                for (d, v) in y.iter().enumerate() {
                    b[d * dims + i] += zi * v;
                }
            }
        }
        (g, b)
    }

    /// Solves the ridge system `(G + λ n I) w_d = b_d` of a leaf's
    /// `nl` rows for every output `d` and stores the raw-space model.
    /// `g` holds `Zᵀ Z` in its upper triangle, `stride` apart by row;
    /// `rhs(d, out)` writes `b_d` into `out`.
    fn solve_leaf(
        &mut self,
        leaf: usize,
        g: &mut [f64],
        stride: usize,
        nl: usize,
        mean: &[f64],
        rhs: impl Fn(usize, &mut [f64]),
    ) {
        let p = self.in_dim;
        let dims = p + 1;
        let bias_base = leaf * self.out_dim;
        for i in 0..dims {
            for j in 0..i {
                g[i * stride + j] = g[j * stride + i];
            }
            g[i * stride + i] += self.ridge * nl as f64;
        }
        if !cholesky_in_place(g, stride, dims) {
            self.set_mean(bias_base, mean);
            return;
        }
        let mut fixed = [0.0; LEAF_DIMS];
        let mut wide = Vec::new();
        let w = if dims <= LEAF_DIMS {
            &mut fixed[..dims]
        } else {
            wide.resize(dims, 0.0);
            &mut wide[..]
        };
        let lc = leaf * self.in_dim * self.out_dim;
        for (d, &m) in mean.iter().enumerate().take(self.out_dim) {
            rhs(d, w);
            chol_solve_in_place(g, stride, w);
            // Unfold z-space weights to raw space:
            //   y = w_p + Σ_i w_i (x_i - μ_i)/σ_i
            //     = (w_p - Σ_i w_i μ_i/σ_i) + Σ_i (w_i/σ_i) x_i.
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
                self.leaf_coef[lc + i * self.out_dim + d] = c as f32;
            }
            if ok && bias.is_finite() {
                self.leaf_bias[bias_base + d] = bias as f32;
            } else {
                self.leaf_bias[bias_base + d] = m as f32;
                for i in 0..p {
                    self.leaf_coef[lc + i * self.out_dim + d] = 0.0;
                }
            }
        }
    }

    /// Sets a leaf's intercepts to `mean`, leaving its slopes zero.
    fn set_mean(&mut self, bias_base: usize, mean: &[f64]) {
        let bias = &mut self.leaf_bias[bias_base..bias_base + self.out_dim];
        for (b, m) in bias.iter_mut().zip(mean) {
            *b = *m as f32;
        }
    }

    /// Best axis-aligned split over features `[fl, fh)` by summed
    /// per-output variance reduction, evaluated at sample quantiles via
    /// one sweep of each feature's presorted segment. Returns `None`
    /// when no candidate separates the region.
    fn best_split<R: RowId>(
        &self,
        rows: &Presort<R>,
        start: usize,
        end: usize,
        fl: usize,
        fh: usize,
    ) -> Option<(usize, f64)> {
        if end - start < 2 || fl >= fh {
            return None;
        }
        match self.ys.cols() {
            LANES => self.sweep_lanes::<LANES, R>(rows, start, end, fl..fh),
            WIDE_LANES => self.sweep_lanes::<WIDE_LANES, R>(rows, start, end, fl..fh),
            _ => {
                let od = self.out_dim;
                self.sweep(rows, start, end, fl..fh, vec![0.0; od], |acc, r| {
                    let y = &self.ys.row(r)[..od];
                    for ((a, v), w) in acc.iter_mut().zip(y).zip(&self.out_weight) {
                        *a += v * w;
                    }
                })
            }
        }
    }

    /// [`Fit::sweep`] with `L`-wide running sums, which stay in
    /// registers; the label rows must be `L` wide.
    fn sweep_lanes<const L: usize, R: RowId>(
        &self,
        rows: &Presort<R>,
        start: usize,
        end: usize,
        feats: Range<usize>,
    ) -> Option<(usize, f64)> {
        let ys = self.label_lanes::<L>();
        let mut w = [0.0; L];
        for (a, b) in w.iter_mut().zip(&self.out_weight) {
            *a = *b;
        }
        self.sweep(rows, start, end, feats, [0.0; L], |acc, r| {
            for ((a, v), w) in acc.iter_mut().zip(&ys[r]).zip(&w) {
                *a += v * w;
            }
        })
    }

    /// The split sweep of [`Fit::best_split`] over running sums of type
    /// `A`; `add(acc, row)` adds a row's weighted labels to `acc`.
    /// Each feature's lane is summed segment by segment between the
    /// candidate positions, which are multiples of the stride, and a
    /// candidate is scored only at a segment end. Rows past the last
    /// candidate are never summed: no score reads them.
    fn sweep<A: AsRef<[f64]> + Clone, R: RowId>(
        &self,
        rows: &Presort<R>,
        start: usize,
        end: usize,
        feats: Range<usize>,
        zero: A,
        add: impl Fn(&mut A, usize),
    ) -> Option<(usize, f64)> {
        let n = end - start;
        let mut total = zero.clone();
        for &r in rows.in_row_order(start, end) {
            add(&mut total, r.index());
        }
        let stride = (n / (self.candidates + 1)).max(1);
        let mut best: Option<(f64, usize, f64)> = None;
        let mut left = zero.clone();
        for f in feats {
            let order = rows.lane(f, start, end);
            left.clone_from(&zero);
            let mut k = 0;
            for cand in (stride..n).step_by(stride) {
                for &r in &order[k..cand] {
                    add(&mut left, r.index());
                }
                k = cand;
                let a = self.xs.row(order[k - 1].index())[f];
                let b = self.xs.row(order[k].index())[f];
                if a < b {
                    // Score = Σ_d (S_L²/n_L + S_R²/n_R); maximising
                    // this minimises the summed within-child SSE.
                    let nl = k as f64;
                    let nr = (n - k) as f64;
                    let mut score = 0.0;
                    for (sl, st) in left.as_ref().iter().zip(total.as_ref()).take(self.out_dim) {
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
        }
        best.map(|(_, f, t)| (f, t))
    }
}

/// In-place Cholesky factorisation of the symmetric positive-definite
/// leading `dims × dims` block of `g` (row-major, rows `stride` apart):
/// the lower triangle is overwritten by the lower factor, the upper one
/// is left as it was. Returns `false` when the block is not positive
/// definite.
fn cholesky_in_place(g: &mut [f64], stride: usize, dims: usize) -> bool {
    for i in 0..dims {
        for j in 0..=i {
            let mut s = g[i * stride + j];
            for k in 0..j {
                s -= g[i * stride + k] * g[j * stride + k];
            }
            if i == j {
                if s <= 0.0 || !s.is_finite() {
                    return false;
                }
                g[i * stride + i] = s.sqrt();
            } else {
                g[i * stride + j] = s / g[j * stride + j];
            }
        }
    }
    true
}

/// Solves `L Lᵀ w = b` in place (`w` holds `b` on entry) given the
/// lower Cholesky factor `l`, rows `stride` apart.
fn chol_solve_in_place(l: &[f64], stride: usize, w: &mut [f64]) {
    let dims = w.len();
    for i in 0..dims {
        let mut s = w[i];
        for k in 0..i {
            s -= l[i * stride + k] * w[k];
        }
        w[i] = s / l[i * stride + i];
    }
    for i in (0..dims).rev() {
        let mut s = w[i];
        for k in i + 1..dims {
            s -= l[k * stride + i] * w[k];
        }
        w[i] = s / l[i * stride + i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbn::{DbnConfig, PredictScratch};
    use crate::train::TrainingSet;

    /// A scheduler-shaped teacher: 5 "power" features + 2 "voltages" +
    /// 1 "dmr", mapping to a cap head, an α head and two bits.
    fn teacher() -> Dbn {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..400usize {
            let p = (i % 20) as f64 / 19.0;
            let v = ((i / 20) % 5) as f64 / 4.0;
            let d = ((i / 100) % 4) as f64 / 3.0;
            let x = vec![
                p * 40.0,
                (1.0 - p) * 35.0,
                p * 10.0,
                20.0 + p * 5.0,
                p * p * 30.0,
                2.0 + v * 2.5,
                2.1 + (1.0 - v) * 2.0,
                d,
            ];
            ys.push(vec![
                (p * 4.0).round(),
                (v * 8.0).round(),
                f64::from(p + v > 0.9),
                f64::from(d > 0.5),
            ]);
            xs.push(x);
        }
        let mut cfg = DbnConfig::small(13);
        cfg.bp_epochs = 120;
        Dbn::train_set(&TrainingSet::from_rows(&xs, &ys).unwrap(), &cfg).unwrap()
    }

    fn small_cfg() -> DistillConfig {
        let mut cfg = DistillConfig::small(99);
        cfg.depth_const = 4;
        cfg.depth_vary = 4;
        cfg.samples = 8_192;
        cfg.holdout = 1_024;
        cfg
    }

    #[test]
    #[ignore = "diagnostic sweep for picking default hyper-parameters"]
    fn agreement_sweep() {
        let dbn = teacher();
        for (dc, dv, samples, ridge, cand) in [
            (4usize, 4usize, 16_384usize, 1e-3f64, 32usize),
            (4, 4, 16_384, 1e-4, 32),
            (4, 4, 16_384, 1e-5, 64),
            (5, 5, 32_768, 1e-4, 32),
            (5, 5, 65_536, 1e-4, 64),
            (5, 4, 32_768, 1e-4, 64),
        ] {
            let mut cfg = DistillConfig::small(99);
            cfg.depth_const = dc;
            cfg.depth_vary = dv;
            cfg.samples = samples;
            cfg.ridge = ridge;
            cfg.candidates = cand;
            cfg.holdout = 2_048;
            let p = DistilledPolicy::distill(&dbn, 5, &[], &cfg).unwrap();
            println!(
                "dc={dc} dv={dv} n={samples} ridge={ridge} cand={cand} -> agreement {}",
                p.agreement()
            );
        }
    }

    #[test]
    fn distills_with_high_agreement() {
        let dbn = teacher();
        let policy = DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap();
        assert_eq!(policy.input_dim(), 8);
        assert_eq!(policy.output_dim(), 4);
        assert!(
            policy.agreement() > 0.75,
            "holdout agreement {}",
            policy.agreement()
        );
        policy.validate().unwrap();
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // one decision against its teacher row
    fn trajectory_samples_sharpen_local_accuracy() {
        let dbn = teacher();
        let traj: Vec<Vec<f64>> = (0..64)
            .map(|i| {
                let p = i as f64 / 63.0;
                vec![
                    p * 40.0,
                    (1.0 - p) * 35.0,
                    p * 10.0,
                    20.0 + p * 5.0,
                    p * p * 30.0,
                    3.2,
                    3.1,
                    0.25,
                ]
            })
            .collect();
        let plain = DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap();
        let tuned = DistilledPolicy::distill(&dbn, 5, &traj, &small_cfg()).unwrap();
        let mut scratch = PredictScratch::default();
        let mut want = Vec::new();
        let mut err = |p: &DistilledPolicy| {
            let mut e = 0.0f64;
            let mut got = Vec::new();
            for x in &traj {
                dbn.predict_into(x, &mut scratch, &mut want).unwrap();
                p.predict_into(x, &mut got).unwrap();
                for (w, g) in want.iter().zip(&got) {
                    e += (w - g).abs();
                }
            }
            e
        };
        let e_plain = err(&plain);
        let e_tuned = err(&tuned);
        assert!(
            e_tuned <= e_plain * 1.05,
            "trajectory weighting should not hurt local accuracy: {e_tuned} vs {e_plain}"
        );
    }

    #[test]
    fn json_round_trip_is_bytewise_and_deterministic() {
        let dbn = teacher();
        let policy = DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap();
        let json = policy.to_json().unwrap();
        let back = DistilledPolicy::from_json(&json).unwrap();
        assert_eq!(policy, back);
        assert_eq!(json, back.to_json().unwrap());
        let x = [12.0, 20.0, 3.0, 21.0, 8.0, 2.5, 4.0, 0.9];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        policy.predict_batch_into(&x, &mut a).unwrap();
        back.predict_batch_into(&x, &mut b).unwrap();
        assert_eq!(a, b, "reloaded artifact must predict bit-identically");
    }

    #[test]
    fn from_json_reads_members_in_any_order() {
        let dbn = teacher();
        let policy = DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap();
        let json = policy.to_json().unwrap();
        let Ok(serde_json::Value::Obj(mut members)) = serde_json::parse_value(&json) else {
            panic!("the artifact is a JSON object");
        };
        // Reversed order, an unknown member, and a later duplicate of
        // every member: the first occurrence counts.
        members.reverse();
        let junk = serde_json::Value::Str("junk".into());
        let dups: Vec<_> = members
            .iter()
            .map(|(k, _)| (k.clone(), junk.clone()))
            .collect();
        members.push(("note".into(), junk));
        members.extend(dups);
        let doc = serde_json::to_string(&serde_json::Value::Obj(members.clone())).unwrap();
        assert_eq!(DistilledPolicy::from_json(&doc).unwrap(), policy);

        members.retain(|(k, _)| k != "leaf_coef");
        let doc = serde_json::to_string(&serde_json::Value::Obj(members)).unwrap();
        assert_eq!(
            DistilledPolicy::from_json(&doc),
            Err(AnnError::BadConfig("missing field `leaf_coef`".into()))
        );
        for bad in [
            json.replacen("\"feat\":[", "\"feat\":[-", 1),
            json.replacen("\"thresh\":[", "\"thresh\":{", 1),
            json.replace("\"agreement\":", "\"agreement\":\"x\","),
            format!("{json},"),
            format!("[{json}]"),
        ] {
            assert!(DistilledPolicy::from_json(&bad).is_err(), "{}", &bad[..40]);
        }
    }

    /// 64-bit FNV-1a: a digest that, unlike `RandomState`, is the same
    /// on every host and toolchain.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn offline_shaped_artifact_bytes_are_pinned() {
        // The offline pipeline's and the fleet's shape: the default
        // 5+5 tree over 32 768 box samples and no trajectory samples.
        // The digest was recorded before the split search was
        // presorted; any change to the fitted tree or leaves moves it.
        let policy =
            DistilledPolicy::distill(&teacher(), 5, &[], &DistillConfig::small(99)).unwrap();
        let json = policy.to_json().unwrap();
        assert_eq!(json.len(), 418_810);
        assert_eq!(fnv1a(json.as_bytes()), 0x694b_452f_951c_d209);
    }

    /// A synthetic teacher with the served artifacts' widths: `in_dim`
    /// inputs mapping to a capacitor head, an α head and
    /// `out_dim - 2` admission bits.
    fn shaped_teacher(in_dim: usize, out_dim: usize) -> Dbn {
        let xs: Vec<Vec<f64>> = (0..240)
            .map(|i| {
                (0..in_dim)
                    .map(|j| ((i * in_dim + j) as f64 * 0.37).sin().abs() * 40.0)
                    .collect()
            })
            .collect();
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| {
                let mut y = vec![(x[0] / 10.0).round(), (x[in_dim - 1] / 5.0).round()];
                y.extend((2..out_dim).map(|d| f64::from(x[d % in_dim] > 20.0)));
                y
            })
            .collect();
        let mut cfg = DbnConfig::small(21);
        cfg.bp_epochs = 40;
        Dbn::train_set(&TrainingSet::from_rows(&xs, &ys).unwrap(), &cfg).unwrap()
    }

    #[test]
    fn served_shape_artifact_bytes_are_pinned() {
        // The ECG fleet's 13-input and the offline pipeline's 15-input
        // shape, both with 8 outputs, and the WAM fleet's 13 inputs
        // and 10 outputs, at the default 5+5 tree. The digests were
        // recorded before the split, leaf and presort kernels went
        // fixed-width; any change to the fitted tree, leaves or their
        // JSON text moves them.
        for (in_dim, out_dim, const_prefix, len, digest) in [
            (13, 8, 10, 1_074_540, 0xb9f7_b3e5_f0ad_e8b9),
            (15, 8, 12, 1_185_353, 0x0282_7130_d7f5_2980),
            (13, 10, 10, 1_328_965, 0x2f29_7a5d_74e0_573c),
        ] {
            let teacher = shaped_teacher(in_dim, out_dim);
            let policy =
                DistilledPolicy::distill(&teacher, const_prefix, &[], &DistillConfig::small(99))
                    .unwrap();
            let json = policy.to_json().unwrap();
            assert_eq!(
                (json.len(), fnv1a(json.as_bytes())),
                (len, digest),
                "{in_dim}/{out_dim} artifact"
            );
        }
    }

    /// Tie-heavy sort keys: both zeros, subnormals of both signs, the
    /// extremes, and values one ulp apart.
    const TIE_KEYS: [f64; 16] = [
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        1.0,
        1.000_000_000_000_000_2,
        -1.0,
        2.5,
        -2.5,
        4.0,
        1e-300,
        f64::MAX,
        f64::MIN,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The presort's radix sort orders rows exactly as a stable
        /// comparison sort on `(total-order key, row)` does: on columns
        /// mixing tie-heavy keys with random bit patterns (which vary
        /// every digit, so no pass is skipped), and on constant columns
        /// (every pass skipped). One scratch sorts several columns, as
        /// in a fit.
        #[test]
        fn radix_presort_is_the_stable_comparison_sort(
            picks in proptest::collection::vec(0usize..24, 0..3000),
            raw in proptest::collection::vec(proptest::any::<u64>(), 3000),
            constant in proptest::any::<bool>(),
        ) {
            let n = picks.len();
            let mixed: Vec<f64> = picks
                .iter()
                .zip(&raw)
                .map(|(&p, &bits)| TIE_KEYS.get(p).copied().unwrap_or(f64::from_bits(bits)))
                .collect();
            let pinned = vec![mixed.first().copied().unwrap_or(0.0); n];
            let column = if constant { &pinned } else { &mixed };
            let negated: Vec<f64> = column.iter().map(|v| -v).collect();
            let mut radix = RadixSort::new(n);
            for values in [column, &negated, column] {
                let mut want: Vec<u32> = (0..n as u32).collect();
                want.sort_by_key(|&r| total_order_key(values[r as usize]));
                let mut got = vec![u32::MAX; n];
                radix.sort(&mut got, |r| total_order_key(values[r]));
                proptest::prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn distill_is_deterministic() {
        let dbn = teacher();
        let a = DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap();
        let b = DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_configs_and_artifacts() {
        let dbn = teacher();
        let mut cfg = small_cfg();
        cfg.depth_const = 0;
        cfg.depth_vary = 0;
        assert!(DistilledPolicy::distill(&dbn, 5, &[], &cfg).is_err());
        let mut cfg = small_cfg();
        cfg.samples = 8;
        assert!(DistilledPolicy::distill(&dbn, 5, &[], &cfg).is_err());
        assert!(DistilledPolicy::distill(&dbn, 99, &[], &small_cfg()).is_err());
        assert!(DistilledPolicy::distill(&dbn, 0, &[], &small_cfg()).is_err());
        assert!(DistilledPolicy::distill(&dbn, 5, &[vec![1.0]], &small_cfg()).is_err());

        let policy = DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap();
        let mut broken = policy.clone();
        broken.feat[0] = 7; // varying feature at a constant level
        assert!(broken.validate().is_err());
        let mut broken = policy.clone();
        broken.leaf_bias.pop();
        assert!(broken.validate().is_err());
        let mut broken = policy.clone();
        broken.leaf_coef[0] = f32::INFINITY;
        assert!(broken.validate().is_err());
        let mut broken = policy;
        broken.thresh[0] = f64::NAN;
        assert!(broken.validate().is_err());
    }

    #[test]
    fn oversized_training_sets_are_config_errors() {
        // Each case would overflow a row count, exceed the fitter's
        // `u32` row ids or overflow a sample matrix's capacity; all are
        // refused before anything is allocated.
        let dbn = teacher();
        let extra = vec![vec![1.0; 8]; 3];
        let too_many = u32::MAX as usize + 1;
        for (samples, extra_weight, extras) in [
            (usize::MAX, 1, &[][..]),
            (too_many, 1, &[][..]),
            (too_many - 2, 1, &extra[..]),
            (64, usize::MAX / 2, &extra[..]),
        ] {
            let cfg = DistillConfig {
                samples,
                extra_weight,
                ..small_cfg()
            };
            let err = DistilledPolicy::distill(&dbn, 5, extras, &cfg).unwrap_err();
            assert!(
                matches!(err, AnnError::BadConfig(ref m) if m.contains("limit")),
                "{samples} + {} × {extra_weight}: {err}",
                extras.len()
            );
        }
        let fits = DistillConfig {
            samples: u32::MAX as usize,
            ..small_cfg()
        };
        assert_eq!(training_rows(&fits, 0, 8, 4).unwrap(), u32::MAX as usize);
        assert!(training_rows(&fits, 1, 8, 4).is_err());
    }

    /// The fitted tables of `p` as bit patterns.
    fn artifact_bits(p: &DistilledPolicy) -> (Vec<u32>, Vec<u64>, Vec<u32>, Vec<u32>, u64) {
        (
            p.feat.clone(),
            p.thresh.iter().map(|v| v.to_bits()).collect(),
            p.leaf_bias.iter().map(|v| v.to_bits()).collect(),
            p.leaf_coef.iter().map(|v| v.to_bits()).collect(),
            p.agreement.to_bits(),
        )
    }

    #[test]
    fn narrow_and_wide_row_ids_fit_the_same_artifact() {
        // Every in-tree fit is small enough for `u16` row ids; the
        // `u32` path serves larger sets. Forced onto the same sets it
        // must fit the same tree and leaves, bit for bit, at each label
        // width: 8 lanes, 10 lanes and the runtime-width path.
        // Replicated trajectory rows make ties in every feature lane.
        let eight = teacher();
        let ten = shaped_teacher(13, 10);
        let twelve = shaped_teacher(13, 12);
        let mut cfg = small_cfg();
        cfg.samples = 4_096;
        cfg.holdout = 256;
        for (dbn, const_prefix) in [(&eight, 5), (&ten, 10), (&twelve, 10)] {
            let extras: Vec<Vec<f64>> = (0..16)
                .map(|i| {
                    (0..dbn.input_dim())
                        .map(|j| ((i * 7 + j) % 5) as f64)
                        .collect()
                })
                .collect();
            let n = training_rows(&cfg, extras.len(), dbn.input_dim(), dbn.output_dim()).unwrap();
            assert!(n <= NARROW_ROWS);
            let narrow = DistilledPolicy::distill(dbn, const_prefix, &extras, &cfg).unwrap();
            let wide =
                DistilledPolicy::fit_rows::<u32>(dbn, const_prefix, &extras, &cfg, n).unwrap();
            assert_eq!(
                artifact_bits(&narrow),
                artifact_bits(&wide),
                "{}/{} artifact",
                dbn.input_dim(),
                dbn.output_dim()
            );
        }
        let last = NARROW_ROWS - 1;
        assert_eq!(u16::from_index(last).index(), last);
    }

    #[test]
    fn degenerate_regions_fall_back_to_ancestor_means() {
        // A teacher over a tiny box: most tree regions see no samples,
        // exercising the +inf degenerate-split path end to end.
        let xs: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![i as f64 / 79.0, 0.5, (i % 7) as f64 / 6.0])
            .collect();
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| vec![x[0], 1.0 - x[0], f64::from(x[2] > 0.5)])
            .collect();
        let mut cfg = DbnConfig::small(5);
        cfg.bp_epochs = 60;
        let dbn = Dbn::train_set(&TrainingSet::from_rows(&xs, &ys).unwrap(), &cfg).unwrap();
        let mut dcfg = DistillConfig::small(7);
        dcfg.depth_const = 5;
        dcfg.depth_vary = 5;
        dcfg.samples = 256;
        dcfg.holdout = 64;
        let policy = DistilledPolicy::distill(&dbn, 1, &[], &dcfg).unwrap();
        policy.validate().unwrap();
        // Far outside the box still lands on a finite leaf model.
        let mut y = Vec::new();
        policy
            .predict_batch_into(&[1e6, -1e6, 1e6], &mut y)
            .unwrap();
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn decisions_match_mirrors_planner_consumption() {
        assert!(decisions_match(
            &[2.2, 5.4, 0.9, 0.1],
            &[1.8, 4.6, 0.51, 0.49]
        ));
        assert!(!decisions_match(&[2.6, 5.0, 0.9], &[1.8, 5.0, 0.9]));
        assert!(!decisions_match(&[2.0, 5.0, 0.6], &[2.0, 5.0, 0.4]));
        assert!(!decisions_match(&[2.0, 5.0], &[2.0, 5.0, 0.4]));
        assert!(!decisions_match(&[1.0], &[1.0]));
    }

    /// Deterministic pseudo-queries over `periods` distinct constant
    /// prefixes, `per` varying tails each.
    fn queries(periods: usize, per: usize) -> Vec<Vec<f64>> {
        let mut qs = Vec::new();
        for p in 0..periods {
            for d in 0..per {
                qs.push(vec![
                    (p % 20) as f64 * 2.0,
                    35.0 - (p % 18) as f64,
                    (p % 11) as f64,
                    20.0 + (p % 6) as f64,
                    (p % 31) as f64,
                    2.0 + (d % 5) as f64 * 0.6,
                    2.1 + ((d + p) % 4) as f64 * 0.5,
                    (d % 3) as f64 / 3.0,
                ]);
            }
        }
        qs
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // the one-decision path is the byte reference
    fn batched_lanes_are_bitwise_the_sequential_paths() {
        let dbn = teacher();
        let policy = Arc::new(DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap());
        let qs = queries(5, 4);
        let mut inputs = Vec::new();
        let mut reference = Vec::new();
        let mut one = Vec::new();
        for x in &qs {
            policy.predict_into(x, &mut one).unwrap();
            reference.extend_from_slice(&one);
            inputs.extend_from_slice(x);
        }
        let want: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
        let mut out = Vec::new();
        policy.predict_batch_into(&inputs, &mut out).unwrap();
        let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(want, got, "batched kernel diverged from sequential lanes");
        let mut scalar = Vec::new();
        policy
            .predict_batch_into_scalar(&inputs, &mut scalar)
            .unwrap();
        let scalar_bits: Vec<u64> = scalar.iter().map(|v| v.to_bits()).collect();
        assert_eq!(want, scalar_bits, "scalar twin diverged");
        // A ragged lane-major block is rejected.
        assert!(policy.predict_batch_into(&inputs[1..], &mut out).is_err());
        // The benchmark's facade: every lookup is the flat path, and
        // the folded entry point is the flat kernel.
        let table = FoldTable::new(Arc::clone(&policy), FoldTable::DEFAULT_CAPACITY);
        assert!(Arc::ptr_eq(table.policy(), &policy));
        let mut entries = Vec::new();
        for x in &qs {
            entries.push(table.lookup(x).unwrap());
        }
        assert!(entries.iter().all(Option::is_none));
        assert!(table.lookup(&qs[0][..3]).is_err(), "short prefix rejected");
        policy
            .predict_batch_folded(&entries, &inputs, &mut out)
            .unwrap();
        let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(want, got, "the facade diverged from the flat kernel");
        assert!(policy
            .predict_batch_folded(&entries[1..], &inputs, &mut out)
            .is_err());
    }
}
