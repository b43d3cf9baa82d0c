//! Minimal dense row-major matrix — just the operations the RBM and
//! MLP need, implemented plainly and tested thoroughly.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::AnnError;

/// Dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix with entries drawn uniformly from `[-scale, scale]`,
    /// in row-major order.
    pub fn random(rows: usize, cols: usize, scale: f64, rng: &mut impl Rng) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..=scale))
            .collect();
        Self { rows, cols, data }
    }

    /// Builds from an already-flattened row-major buffer — the
    /// constructor the parallel sample generator uses after its
    /// day-ordered merge.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when `data.len() !=
    /// rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, AnnError> {
        if data.len() != rows * cols {
            return Err(AnnError::dims(
                format!("{} elements for {rows}x{cols}", rows * cols),
                format!("{}", data.len()),
            ));
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds from nested rows.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, AnnError> {
        let n_cols = rows.first().map_or(0, Vec::len);
        if rows.iter().any(|r| r.len() != n_cols) {
            return Err(AnnError::dims(
                format!("every row of length {n_cols}"),
                "ragged rows".to_string(),
            ));
        }
        Ok(Self {
            rows: rows.len(),
            cols: n_cols,
            data: rows.concat(),
        })
    }

    /// Number of rows.
    pub const fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub const fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    ///
    /// # Panics
    ///
    /// Panics out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// All `rows × cols` entries, row-major.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Reshapes in place to a zeroed `rows × cols` matrix. The backing
    /// allocation is kept once grown, so reused scratch matrices (the
    /// batched-inference ping-pong buffers) stop allocating after the
    /// first call.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix–vector product `self · x` written into `out` (resized to
    /// `rows`), so a reused buffer makes repeated products
    /// allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when `x.len() != cols`.
    pub fn matvec_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<(), AnnError> {
        if x.len() != self.cols {
            return Err(AnnError::dims(
                format!("vector of length {}", self.cols),
                format!("length {}", x.len()),
            ));
        }
        // Both paths below assign every element, so a correctly sized
        // buffer needs no zero-fill — the hot loops reuse one buffer
        // per layer and skip the memset entirely.
        if out.len() != self.rows {
            out.clear();
            out.resize(self.rows, 0.0);
        }
        // Row tiles go through the lane-parallel kernel: eight output
        // rows advance the same ascending-index mul-then-add chain in
        // the eight lanes of one vector (masked for the last partial
        // tile), so every lane reproduces the scalar dot product bit
        // for bit. Non-x86 builds take the scalar path below.
        let done = simd::matvec_rows(&self.data, self.rows, self.cols, x, out);
        for (r, o) in out.iter_mut().enumerate().skip(done) {
            *o = self.data[r * self.cols..(r + 1) * self.cols]
                .iter()
                .zip(x)
                .map(|(a, b)| a * b)
                .sum::<f64>();
        }
        Ok(())
    }

    /// Transposed matrix–vector product `selfᵀ · x` written into `out`
    /// (resized to `cols`), so a reused buffer makes repeated products
    /// allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when `x.len() != rows`.
    pub fn matvec_t_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<(), AnnError> {
        if x.len() != self.rows {
            return Err(AnnError::dims(
                format!("vector of length {}", self.rows),
                format!("length {}", x.len()),
            ));
        }
        if out.len() != self.cols {
            out.clear();
            out.resize(self.cols, 0.0);
        }
        // Eight consecutive output columns share one vector register
        // (masked for the last partial tile); each lane runs the exact
        // ascending-r accumulation (from 0.0, multiply then add) of
        // the scalar loop below, whose column chains are mutually
        // independent, so the split is bitwise neutral. The vector
        // kernel overwrites its columns, so only the scalar remainder
        // needs `out` zeroed first.
        let done = simd::matvec_t_cols(&self.data, self.rows, self.cols, x, out);
        if done < self.cols {
            for o in &mut out[done..] {
                *o = 0.0;
            }
            for (r, &xr) in x.iter().enumerate() {
                let row = &self.data[r * self.cols..(r + 1) * self.cols];
                for (o, &w) in out.iter_mut().zip(row).skip(done) {
                    *o += w * xr;
                }
            }
        }
        Ok(())
    }

    /// Rank-1 update `self += scale · a · bᵀ`: the reference the fused
    /// updates below fall back to.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when shapes do not match.
    fn rank1_update(&mut self, a: &[f64], b: &[f64], scale: f64) -> Result<(), AnnError> {
        if a.len() != self.rows || b.len() != self.cols {
            return Err(AnnError::dims(
                format!("{}-vec and {}-vec", self.rows, self.cols),
                format!("{}-vec and {}-vec", a.len(), b.len()),
            ));
        }
        // Each element sees exactly one `w += (scale * a_r) * b_c`;
        // rows and columns are independent, so vectorising across
        // eight columns is bitwise identical to the scalar loop.
        if simd::rank1(&mut self.data, self.cols, a, b, scale) {
            return Ok(());
        }
        for (r, &ar) in a.iter().enumerate() {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (w, &bc) in row.iter_mut().zip(b) {
                *w += scale * ar * bc;
            }
        }
        Ok(())
    }

    /// Two stacked rank-1 updates,
    /// `self += s1 · a1 · b1ᵀ` then `self += s2 · a2 · b2ᵀ`, fused
    /// into one sweep so each weight tile is loaded and stored once
    /// instead of twice (CD-1 applies exactly this pair for its
    /// positive and negative phases). Bit-identical to two
    /// `rank1_update` calls in the same order: the updates
    /// are element-independent, and each element sees its two rounded
    /// additions in sequence.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when either pair's
    /// shapes do not match.
    #[allow(clippy::too_many_arguments)]
    pub fn rank1_pair_update(
        &mut self,
        a1: &[f64],
        b1: &[f64],
        s1: f64,
        a2: &[f64],
        b2: &[f64],
        s2: f64,
    ) -> Result<(), AnnError> {
        if a1.len() != self.rows
            || b1.len() != self.cols
            || a2.len() != self.rows
            || b2.len() != self.cols
        {
            return Err(AnnError::dims(
                format!("two {}-vec / {}-vec pairs", self.rows, self.cols),
                format!("{}/{} and {}/{}", a1.len(), b1.len(), a2.len(), b2.len()),
            ));
        }
        if simd::rank1x2(&mut self.data, self.cols, a1, b1, s1, a2, b2, s2) {
            return Ok(());
        }
        self.rank1_update(a1, b1, s1)?;
        self.rank1_update(a2, b2, s2)
    }

    /// Fused backward-layer step: writes
    /// `out = (selfᵀ · delta) ⊙ acts ⊙ (1 − acts)` — the propagated
    /// delta already multiplied by the sigmoid derivative of the layer
    /// input — and then applies `self += scale · delta · actsᵀ`, all
    /// in one sweep over the weight rows.
    ///
    /// Bit-identical to `matvec_t_into`, the derivative loop, and
    /// `rank1_update` run in sequence: the transposed product touches
    /// row `r` only through `delta[r]`, and each row is read before it
    /// is updated, so every read sees the pre-update weights; the
    /// derivative factors multiply in the same order
    /// (`(d · a) · (1 − a)`) as the scalar loop.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when `delta.len() !=
    /// rows` or `acts.len() != cols`.
    pub fn backprop_fused_into(
        &mut self,
        delta: &[f64],
        acts: &[f64],
        scale: f64,
        bias: &mut [f64],
        out: &mut Vec<f64>,
    ) -> Result<(), AnnError> {
        if delta.len() != self.rows || acts.len() != self.cols || bias.len() != self.rows {
            return Err(AnnError::dims(
                format!("{0}-vec, {1}-vec and {0}-vec", self.rows, self.cols),
                format!(
                    "{}-vec, {}-vec and {}-vec",
                    delta.len(),
                    acts.len(),
                    bias.len()
                ),
            ));
        }
        if out.len() != self.cols {
            out.clear();
            out.resize(self.cols, 0.0);
        }
        if simd::backprop_fused(&mut self.data, self.cols, delta, acts, scale, bias, out) {
            return Ok(());
        }
        // Reference path: the exact sequence the fused kernel
        // replicates, sharing one sweep where it can.
        self.matvec_t_into(delta, out)?;
        for (o, &a) in out.iter_mut().zip(acts) {
            *o = *o * a * (1.0 - a);
        }
        axpy(bias, scale, delta);
        self.rank1_update(delta, acts, scale)
    }

    /// `rank1_update` with the matching bias update
    /// `bias[r] += scale · a[r]` folded into the row sweep — the
    /// gradient step of a layer with nothing to propagate. The bias
    /// addend is the row's hoisted `scale · a_r` product, added once,
    /// so the result is bit-identical to `rank1_update` followed by
    /// the bias loop.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when shapes do not
    /// match.
    pub fn rank1_bias_update(
        &mut self,
        a: &[f64],
        b: &[f64],
        scale: f64,
        bias: &mut [f64],
    ) -> Result<(), AnnError> {
        if a.len() != self.rows || b.len() != self.cols || bias.len() != self.rows {
            return Err(AnnError::dims(
                format!("{0}-vec, {1}-vec and {0}-vec", self.rows, self.cols),
                format!("{}-vec, {}-vec and {}-vec", a.len(), b.len(), bias.len()),
            ));
        }
        if simd::rank1_bias(&mut self.data, self.cols, a, b, scale, bias) {
            return Ok(());
        }
        axpy(bias, scale, a);
        self.rank1_update(a, b, scale)
    }

    /// Matrix product against a pre-transposed right operand:
    /// `self · otherᵀ`, where `other` is stored `cols_out × k`
    /// row-major. Both operands are then read along contiguous rows,
    /// which is what makes the blocked kernel cache-friendly.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when the shared inner
    /// dimension differs.
    pub fn matmul_bt(&self, other: &Self) -> Result<Self, AnnError> {
        let mut out = Self::zeros(self.rows, other.rows);
        self.matmul_bt_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul_bt`] writing into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when the inner dimension
    /// or `out`'s shape do not line up.
    pub fn matmul_bt_into(&self, other: &Self, out: &mut Self) -> Result<(), AnnError> {
        if self.cols != other.cols {
            return Err(AnnError::dims(
                format!("shared inner dimension {}", self.cols),
                format!("{}", other.cols),
            ));
        }
        if out.rows != self.rows || out.cols != other.rows {
            return Err(AnnError::dims(
                format!("{}x{} output", self.rows, other.rows),
                format!("{}x{}", out.rows, out.cols),
            ));
        }
        let k = self.cols;
        // Where the hardware supports it, full 8-row tiles go through
        // the lane-parallel kernel: eight samples advance the same
        // ascending-k mul-then-add chain in the eight lanes of one
        // vector, so every lane reproduces `matvec` bit for bit while
        // the batch amortises the instruction stream. Rows past the
        // last full tile (and non-x86 builds) take the scalar path.
        let simd_rows = simd::matmul_bt_tiles(
            &self.data,
            self.rows,
            k,
            &other.data,
            other.rows,
            &mut out.data,
        );
        // Tile over (i, j) so a block of `other` rows stays hot in
        // cache while a block of `self` rows streams through it. The
        // k loop is NOT tiled: each element keeps the single
        // ascending-k accumulator of `matvec`, so the blocked product
        // is bitwise identical to the naive one.
        const BLOCK: usize = 32;
        for i0 in (simd_rows..self.rows).step_by(BLOCK) {
            let i_end = (i0 + BLOCK).min(self.rows);
            for j0 in (0..other.rows).step_by(BLOCK) {
                let j_end = (j0 + BLOCK).min(other.rows);
                for i in i0..i_end {
                    let a = &self.data[i * k..(i + 1) * k];
                    let row_out = &mut out.data[i * out.cols..(i + 1) * out.cols];
                    for (j, o) in row_out.iter_mut().enumerate().take(j_end).skip(j0) {
                        let b = &other.data[j * k..(j + 1) * k];
                        let mut acc = 0.0;
                        for t in 0..k {
                            acc += a[t] * b[t];
                        }
                        *o = acc;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Lane-parallel product tiles for [`Matrix::matmul_bt_into`].
///
/// The batched forward's throughput win comes from vectorising across
/// the *batch* dimension: one vector register holds the accumulators
/// of `LANES` samples, and every step performs the same
/// `acc[l] += a[l][t] * b[t]` (multiply, then add — never a fused
/// multiply-add, whose single rounding would change the value) in
/// ascending `t`, exactly the scalar [`Matrix::matvec_into`] recurrence.
/// The results are therefore bitwise identical to the scalar kernel on
/// every lane; only the instruction count per sample shrinks.
mod simd {
    /// Runs as many full lane tiles as the hardware allows and returns
    /// the number of leading rows handled (always a multiple of the
    /// lane width; `0` when SIMD is unavailable or the batch is smaller
    /// than one tile).
    #[cfg(target_arch = "x86_64")]
    pub(super) fn matmul_bt_tiles(
        a: &[f64],
        a_rows: usize,
        k: usize,
        b: &[f64],
        b_rows: usize,
        out: &mut [f64],
    ) -> usize {
        if a_rows >= 8 && k > 0 && b_rows > 0 && is_x86_feature_detected!("avx512f") {
            // SAFETY: the avx512f requirement is checked at runtime.
            unsafe { tiles_avx512(a, a_rows, k, b, b_rows, out) }
        } else {
            0
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub(super) fn matmul_bt_tiles(
        _a: &[f64],
        _a_rows: usize,
        _k: usize,
        _b: &[f64],
        _b_rows: usize,
        _out: &mut [f64],
    ) -> usize {
        0
    }

    /// Lane-parallel `W · x`: eight output rows per vector, the
    /// strided row elements fetched with a masked gather so partial
    /// tiles need no scalar tail. Returns the number of leading rows
    /// written (`rows` when the kernel ran, `0` when SIMD is
    /// unavailable). No heap pack and no stack staging — a requirement
    /// of both the engine's and the trainer's zero-alloc gates.
    #[cfg(target_arch = "x86_64")]
    pub(super) fn matvec_rows(
        w: &[f64],
        rows: usize,
        k: usize,
        x: &[f64],
        out: &mut [f64],
    ) -> usize {
        if rows > 0 && k > 0 && is_x86_feature_detected!("avx512f") {
            // SAFETY: the avx512f requirement is checked at runtime.
            unsafe { matvec_rows_avx512(w, rows, k, x, out) }
        } else {
            0
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub(super) fn matvec_rows(
        _w: &[f64],
        _rows: usize,
        _k: usize,
        _x: &[f64],
        _out: &mut [f64],
    ) -> usize {
        0
    }

    /// Eight-lane AVX-512 kernel for [`matvec_rows`]. Covers every
    /// row: full tiles use an all-lanes mask, the final partial tile a
    /// narrower one, so the per-lane recurrence — ascending-`t`
    /// multiply then add, from a 0.0 accumulator — is the scalar dot
    /// product bit for bit on every row.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn matvec_rows_avx512(
        w: &[f64],
        rows: usize,
        k: usize,
        x: &[f64],
        out: &mut [f64],
    ) -> usize {
        use std::arch::x86_64::{
            _mm512_add_pd, _mm512_mask_i64gather_pd, _mm512_mask_storeu_pd, _mm512_mul_pd,
            _mm512_set1_pd, _mm512_setr_epi64, _mm512_setzero_pd, _mm512_storeu_pd,
        };
        const LANES: usize = 8;
        let stride = k as i64;
        // Lane `l` reads row `r0 + l`: gather indices step by the row
        // stride.
        let idx = _mm512_setr_epi64(
            0,
            stride,
            2 * stride,
            3 * stride,
            4 * stride,
            5 * stride,
            6 * stride,
            7 * stride,
        );
        let mut r0 = 0usize;
        // Paired tiles: two accumulator chains advance per pass,
        // sharing each broadcast of `x[t]` and overlapping their
        // gather latencies. Each chain is still its rows' exact
        // ascending-`t` mul-then-add recurrence, so the pairing only
        // changes scheduling, never values.
        while rows - r0 > LANES {
            let lanes1 = (rows - r0 - LANES).min(LANES);
            let m1 = ((1u16 << lanes1) - 1) as u8;
            let mut acc0 = _mm512_setzero_pd();
            let mut acc1 = _mm512_setzero_pd();
            // SAFETY: `w` is rows × k and `r0 + LANES + lanes1 <=
            // rows`, so both tiles' rows start within bounds; the
            // second gather only touches lanes under `m1`.
            let base0 = unsafe { w.as_ptr().add(r0 * k) };
            let base1 = unsafe { w.as_ptr().add((r0 + LANES) * k) };
            for (t, &xt) in x.iter().enumerate() {
                let xv = _mm512_set1_pd(xt);
                // SAFETY: active lane `l` reads `w[(r0 + l) * k + t]`
                // resp. `w[(r0 + LANES + l) * k + t]`, in bounds by the
                // mask construction above.
                let w0 = unsafe {
                    _mm512_mask_i64gather_pd(_mm512_setzero_pd(), 0xFF, idx, base0.add(t), 8)
                };
                let w1 = unsafe {
                    _mm512_mask_i64gather_pd(_mm512_setzero_pd(), m1, idx, base1.add(t), 8)
                };
                acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(w0, xv));
                acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(w1, xv));
            }
            // SAFETY: the stores write eight rows at `r0` and the
            // `lanes1` rows under `m1` at `r0 + LANES`, all within
            // `out`'s `rows` elements.
            unsafe {
                _mm512_storeu_pd(out.as_mut_ptr().add(r0), acc0);
                _mm512_mask_storeu_pd(out.as_mut_ptr().add(r0 + LANES), m1, acc1);
            }
            r0 += LANES + lanes1;
        }
        if r0 < rows {
            let lanes = rows - r0;
            let mask = ((1u16 << lanes) - 1) as u8;
            let mut acc = _mm512_setzero_pd();
            // SAFETY: `w` is rows × k, so rows r0..r0 + lanes all start
            // within bounds; the gather only touches lanes under `mask`.
            let base = unsafe { w.as_ptr().add(r0 * k) };
            for (t, &xt) in x.iter().enumerate() {
                // SAFETY: active lane `l` reads `w[(r0 + l) * k + t]`,
                // in bounds by the mask construction above.
                let wv = unsafe {
                    _mm512_mask_i64gather_pd(_mm512_setzero_pd(), mask, idx, base.add(t), 8)
                };
                acc = _mm512_add_pd(acc, _mm512_mul_pd(wv, _mm512_set1_pd(xt)));
            }
            // SAFETY: the store writes only the `lanes` rows under
            // `mask`, all within `out`'s `rows` elements.
            unsafe { _mm512_mask_storeu_pd(out.as_mut_ptr().add(r0), mask, acc) };
        }
        rows
    }

    /// Lane-parallel `Wᵀ · x`: eight consecutive output columns per
    /// vector, loaded contiguously from each matrix row, the final
    /// partial tile through a masked load so no scalar tail remains.
    /// Returns the number of leading columns written (`cols` when the
    /// kernel ran, `0` when SIMD is unavailable).
    #[cfg(target_arch = "x86_64")]
    pub(super) fn matvec_t_cols(
        w: &[f64],
        rows: usize,
        cols: usize,
        x: &[f64],
        out: &mut [f64],
    ) -> usize {
        if cols > 0 && rows > 0 && is_x86_feature_detected!("avx512f") {
            // SAFETY: the avx512f requirement is checked at runtime.
            unsafe { matvec_t_cols_avx512(w, cols, x, out) }
        } else {
            0
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub(super) fn matvec_t_cols(
        _w: &[f64],
        _rows: usize,
        _cols: usize,
        _x: &[f64],
        _out: &mut [f64],
    ) -> usize {
        0
    }

    /// Eight-lane AVX-512 kernel for [`matvec_t_cols`]. Covers every
    /// column: each lane runs the exact ascending-`r` accumulation
    /// (from 0.0, multiply then add) of the scalar loop, and the
    /// column chains are mutually independent, so masking the final
    /// partial tile is bitwise neutral.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn matvec_t_cols_avx512(w: &[f64], cols: usize, x: &[f64], out: &mut [f64]) -> usize {
        use std::arch::x86_64::{
            _mm512_add_pd, _mm512_mask_storeu_pd, _mm512_maskz_loadu_pd, _mm512_mul_pd,
            _mm512_set1_pd, _mm512_setzero_pd,
        };
        const LANES: usize = 8;
        let mut c0 = 0usize;
        while c0 < cols {
            let lanes = (cols - c0).min(LANES);
            let mask = ((1u16 << lanes) - 1) as u8;
            let mut acc = _mm512_setzero_pd();
            for (r, &xr) in x.iter().enumerate() {
                // SAFETY: the masked load reads only the `lanes`
                // elements at `r * cols + c0`, in bounds since
                // `c0 + lanes <= cols`.
                let wv = unsafe { _mm512_maskz_loadu_pd(mask, w.as_ptr().add(r * cols + c0)) };
                acc = _mm512_add_pd(acc, _mm512_mul_pd(wv, _mm512_set1_pd(xr)));
            }
            // SAFETY: the store writes only the `lanes` columns under
            // `mask`, all within `out`'s `cols` elements.
            unsafe { _mm512_mask_storeu_pd(out.as_mut_ptr().add(c0), mask, acc) };
            c0 += lanes;
        }
        cols
    }

    /// Vectorised rank-1 update `w += scale · a · bᵀ`. Returns `true`
    /// when the whole update was performed (including column tails),
    /// `false` when the caller must run the scalar loop instead.
    #[cfg(target_arch = "x86_64")]
    pub(super) fn rank1(w: &mut [f64], cols: usize, a: &[f64], b: &[f64], scale: f64) -> bool {
        if cols >= 8 && is_x86_feature_detected!("avx512f") {
            // SAFETY: the avx512f requirement is checked at runtime;
            // with `BIAS = false` the bias pointer is never read.
            unsafe { rank1_avx512::<false>(w, cols, a, b, scale, std::ptr::null_mut()) };
            true
        } else {
            false
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub(super) fn rank1(_w: &mut [f64], _cols: usize, _a: &[f64], _b: &[f64], _scale: f64) -> bool {
        false
    }

    /// [`rank1`] with the row-indexed bias update
    /// `bias[r] += scale · a[r]` folded into the sweep. Returns `true`
    /// when performed.
    #[cfg(target_arch = "x86_64")]
    pub(super) fn rank1_bias(
        w: &mut [f64],
        cols: usize,
        a: &[f64],
        b: &[f64],
        scale: f64,
        bias: &mut [f64],
    ) -> bool {
        if cols >= 8 && is_x86_feature_detected!("avx512f") {
            // SAFETY: the avx512f requirement is checked at runtime;
            // the caller validated `bias.len() == a.len() == rows`.
            unsafe { rank1_avx512::<true>(w, cols, a, b, scale, bias.as_mut_ptr()) };
            true
        } else {
            false
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub(super) fn rank1_bias(
        _w: &mut [f64],
        _cols: usize,
        _a: &[f64],
        _b: &[f64],
        _scale: f64,
        _bias: &mut [f64],
    ) -> bool {
        false
    }

    /// Eight-lane AVX-512 kernel for [`rank1`] and [`rank1_bias`]:
    /// with `BIAS` set, each row also adds its hoisted `scale · a_r`
    /// product to `bias[r]` — the exact addend of the scalar bias
    /// loop, applied once.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support at runtime, and
    /// when `BIAS` is set, `bias` must point at `a.len()` writable
    /// elements.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn rank1_avx512<const BIAS: bool>(
        w: &mut [f64],
        cols: usize,
        a: &[f64],
        b: &[f64],
        scale: f64,
        bias: *mut f64,
    ) {
        use std::arch::x86_64::{
            _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd,
            _mm512_add_pd, _mm512_loadu_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_storeu_pd,
            _mm_add_pd, _mm_loadu_pd, _mm_mul_pd, _mm_set1_pd, _mm_storeu_pd,
        };
        const LANES: usize = 8;
        let full = (cols / LANES) * LANES;
        for (r, &ar) in a.iter().enumerate() {
            // Hoisting `scale * ar` is left-associativity, not a
            // reassociation: `w += (scale * ar) * bc` is the scalar
            // expression exactly.
            let s = scale * ar;
            let sv = _mm512_set1_pd(s);
            if BIAS {
                // SAFETY: `bias` spans `a.len()` elements when `BIAS`
                // is set (caller contract) and `r < a.len()`.
                unsafe { *bias.add(r) += s };
            }
            // SAFETY: `w` is rows × cols with `r < a.len() == rows`.
            let row = unsafe { w.as_mut_ptr().add(r * cols) };
            let mut c0 = 0usize;
            while c0 < full {
                // SAFETY: `c0 + LANES <= cols`, so both loads and the
                // store stay inside the row / `b`.
                unsafe {
                    let wv = _mm512_loadu_pd(row.add(c0));
                    let bv = _mm512_loadu_pd(b.as_ptr().add(c0));
                    _mm512_storeu_pd(row.add(c0), _mm512_add_pd(wv, _mm512_mul_pd(sv, bv)));
                }
                c0 += LANES;
            }
            // Stepped column tail — one 4-wide, one 2-wide, one scalar
            // op at most. Each element still sees its single
            // `w += s * b_c`. Plain (unmasked) narrow stores, and no
            // wider overlapped tile: a masked store would pay the
            // read-modify-write forwarding stall, and an 8-wide tile
            // ending at the row's last column would partially overlap
            // the full tile just stored, which also defeats
            // store-to-load forwarding — both measured as large
            // regressions here.
            if cols - c0 >= 4 {
                // SAFETY: `c0 + 4 <= cols`, inside both the row and `b`.
                unsafe {
                    let wv = _mm256_loadu_pd(row.add(c0));
                    let bv = _mm256_loadu_pd(b.as_ptr().add(c0));
                    _mm256_storeu_pd(
                        row.add(c0),
                        _mm256_add_pd(wv, _mm256_mul_pd(_mm256_set1_pd(s), bv)),
                    );
                }
                c0 += 4;
            }
            if cols - c0 >= 2 {
                // SAFETY: `c0 + 2 <= cols`, inside both the row and `b`.
                unsafe {
                    let wv = _mm_loadu_pd(row.add(c0));
                    let bv = _mm_loadu_pd(b.as_ptr().add(c0));
                    _mm_storeu_pd(row.add(c0), _mm_add_pd(wv, _mm_mul_pd(_mm_set1_pd(s), bv)));
                }
                c0 += 2;
            }
            if c0 < cols {
                // SAFETY: `c0 < cols`, inside both the row and `b`.
                unsafe { *row.add(c0) += s * *b.get_unchecked(c0) };
            }
        }
    }

    /// Fused pair of rank-1 updates
    /// `w += s1 · a1 · b1ᵀ; w += s2 · a2 · b2ᵀ` in one sweep. Returns
    /// `true` when performed, `false` when the caller must fall back
    /// to two sequential updates.
    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn rank1x2(
        w: &mut [f64],
        cols: usize,
        a1: &[f64],
        b1: &[f64],
        s1: f64,
        a2: &[f64],
        b2: &[f64],
        s2: f64,
    ) -> bool {
        if cols >= 8 && is_x86_feature_detected!("avx512f") {
            // SAFETY: the avx512f requirement is checked at runtime.
            unsafe { rank1x2_avx512(w, cols, a1, b1, s1, a2, b2, s2) };
            true
        } else {
            false
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn rank1x2(
        _w: &mut [f64],
        _cols: usize,
        _a1: &[f64],
        _b1: &[f64],
        _s1: f64,
        _a2: &[f64],
        _b2: &[f64],
        _s2: f64,
    ) -> bool {
        false
    }

    /// Eight-lane AVX-512 kernel for [`rank1x2`]: the structure of
    /// [`rank1_avx512`] with both updates' addends applied — in
    /// argument order — between one load and one store of each weight
    /// tile, and the same stepped plain-store column tail. The
    /// per-element operation sequence is exactly the two sequential
    /// scalar updates (the passes are element-independent, so
    /// interleaving rows changes nothing).
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn rank1x2_avx512(
        w: &mut [f64],
        cols: usize,
        a1: &[f64],
        b1: &[f64],
        s1: f64,
        a2: &[f64],
        b2: &[f64],
        s2: f64,
    ) {
        use std::arch::x86_64::{
            _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd,
            _mm512_add_pd, _mm512_loadu_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_storeu_pd,
            _mm_add_pd, _mm_loadu_pd, _mm_mul_pd, _mm_set1_pd, _mm_storeu_pd,
        };
        const LANES: usize = 8;
        let full = (cols / LANES) * LANES;
        for (r, (&ar1, &ar2)) in a1.iter().zip(a2).enumerate() {
            let t1 = s1 * ar1;
            let t2 = s2 * ar2;
            let sv1 = _mm512_set1_pd(t1);
            let sv2 = _mm512_set1_pd(t2);
            // SAFETY: `w` is rows × cols with `r < rows`.
            let row = unsafe { w.as_mut_ptr().add(r * cols) };
            let mut c0 = 0usize;
            while c0 < full {
                // SAFETY: `c0 + LANES <= cols`, so the loads and the
                // store stay inside the row / `b1` / `b2`.
                unsafe {
                    let wv = _mm512_loadu_pd(row.add(c0));
                    let u1 =
                        _mm512_add_pd(wv, _mm512_mul_pd(sv1, _mm512_loadu_pd(b1.as_ptr().add(c0))));
                    let u2 =
                        _mm512_add_pd(u1, _mm512_mul_pd(sv2, _mm512_loadu_pd(b2.as_ptr().add(c0))));
                    _mm512_storeu_pd(row.add(c0), u2);
                }
                c0 += LANES;
            }
            if cols - c0 >= 4 {
                // SAFETY: `c0 + 4 <= cols`, inside the row and both
                // `b` vectors.
                unsafe {
                    let wv = _mm256_loadu_pd(row.add(c0));
                    let u1 = _mm256_add_pd(
                        wv,
                        _mm256_mul_pd(_mm256_set1_pd(t1), _mm256_loadu_pd(b1.as_ptr().add(c0))),
                    );
                    let u2 = _mm256_add_pd(
                        u1,
                        _mm256_mul_pd(_mm256_set1_pd(t2), _mm256_loadu_pd(b2.as_ptr().add(c0))),
                    );
                    _mm256_storeu_pd(row.add(c0), u2);
                }
                c0 += 4;
            }
            if cols - c0 >= 2 {
                // SAFETY: `c0 + 2 <= cols`, inside the row and both
                // `b` vectors.
                unsafe {
                    let wv = _mm_loadu_pd(row.add(c0));
                    let u1 = _mm_add_pd(
                        wv,
                        _mm_mul_pd(_mm_set1_pd(t1), _mm_loadu_pd(b1.as_ptr().add(c0))),
                    );
                    let u2 = _mm_add_pd(
                        u1,
                        _mm_mul_pd(_mm_set1_pd(t2), _mm_loadu_pd(b2.as_ptr().add(c0))),
                    );
                    _mm_storeu_pd(row.add(c0), u2);
                }
                c0 += 2;
            }
            if c0 < cols {
                // SAFETY: `c0 < cols`, inside the row and both `b`
                // vectors.
                unsafe {
                    let wc = row.add(c0);
                    *wc += t1 * *b1.get_unchecked(c0);
                    *wc += t2 * *b2.get_unchecked(c0);
                }
            }
        }
    }

    /// Vectorised `y[i] += a · x[i]` over `n` elements. Returns `true`
    /// when performed.
    #[cfg(target_arch = "x86_64")]
    pub(super) fn axpy(y: &mut [f64], a: f64, x: &[f64], n: usize) -> bool {
        if n > 0 && is_x86_feature_detected!("avx512f") {
            // SAFETY: the avx512f requirement is checked at runtime.
            unsafe { axpy_avx512(&mut y[..n], a, &x[..n]) };
            true
        } else {
            false
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub(super) fn axpy(_y: &mut [f64], _a: f64, _x: &[f64], _n: usize) -> bool {
        false
    }

    /// Eight-lane AVX-512 kernel for [`axpy`]: per lane the exact
    /// scalar `y + (a · x)`, masked loads for the partial tile, plain
    /// stepped stores via [`store_low`].
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn axpy_avx512(y: &mut [f64], a: f64, x: &[f64]) {
        use std::arch::x86_64::{
            _mm512_add_pd, _mm512_maskz_loadu_pd, _mm512_mul_pd, _mm512_set1_pd,
        };
        const LANES: usize = 8;
        let av = _mm512_set1_pd(a);
        let n = y.len();
        let mut i = 0usize;
        while i < n {
            let lanes = (n - i).min(LANES);
            let m = ((1u16 << lanes) - 1) as u8;
            // SAFETY: the masked loads and the stepped store touch only
            // the `lanes` elements at `i`, in bounds since
            // `i + lanes <= n` and `x` holds `n` elements too.
            unsafe {
                let yv = _mm512_maskz_loadu_pd(m, y.as_ptr().add(i));
                let xv = _mm512_maskz_loadu_pd(m, x.as_ptr().add(i));
                store_low(
                    y.as_mut_ptr().add(i),
                    _mm512_add_pd(yv, _mm512_mul_pd(av, xv)),
                    lanes,
                );
            }
            i += lanes;
        }
    }

    /// Vectorised `y[i] += a · (p[i] − n[i])` over `len` elements.
    /// Returns `true` when performed.
    #[cfg(target_arch = "x86_64")]
    pub(super) fn axpy_diff(y: &mut [f64], a: f64, p: &[f64], n: &[f64], len: usize) -> bool {
        if len > 0 && is_x86_feature_detected!("avx512f") {
            // SAFETY: the avx512f requirement is checked at runtime.
            unsafe { axpy_diff_avx512(&mut y[..len], a, &p[..len], &n[..len]) };
            true
        } else {
            false
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub(super) fn axpy_diff(_y: &mut [f64], _a: f64, _p: &[f64], _n: &[f64], _len: usize) -> bool {
        false
    }

    /// Eight-lane AVX-512 kernel for [`axpy_diff`]: per lane the exact
    /// scalar `y + (a · (p − n))` — subtract, multiply, add, each an
    /// exactly rounded IEEE operation in scalar order.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn axpy_diff_avx512(y: &mut [f64], a: f64, p: &[f64], n: &[f64]) {
        use std::arch::x86_64::{
            _mm512_add_pd, _mm512_maskz_loadu_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_sub_pd,
        };
        const LANES: usize = 8;
        let av = _mm512_set1_pd(a);
        let len = y.len();
        let mut i = 0usize;
        while i < len {
            let lanes = (len - i).min(LANES);
            let m = ((1u16 << lanes) - 1) as u8;
            // SAFETY: the masked loads and the stepped store touch only
            // the `lanes` elements at `i`; `p` and `n` hold `len`
            // elements as well.
            unsafe {
                let yv = _mm512_maskz_loadu_pd(m, y.as_ptr().add(i));
                let pv = _mm512_maskz_loadu_pd(m, p.as_ptr().add(i));
                let nv = _mm512_maskz_loadu_pd(m, n.as_ptr().add(i));
                let d = _mm512_mul_pd(av, _mm512_sub_pd(pv, nv));
                store_low(y.as_mut_ptr().add(i), _mm512_add_pd(yv, d), lanes);
            }
            i += lanes;
        }
    }

    /// Vectorised squared-loss output delta
    /// `d[i] = (o[i] − t[i]) · o[i] · (1 − o[i])` over `n` elements.
    /// Returns `true` when performed.
    #[cfg(target_arch = "x86_64")]
    pub(super) fn delta_out(d: &mut [f64], o: &[f64], t: &[f64], n: usize) -> bool {
        if n > 0 && is_x86_feature_detected!("avx512f") {
            // SAFETY: the avx512f requirement is checked at runtime.
            unsafe { delta_out_avx512(&mut d[..n], &o[..n], &t[..n]) };
            true
        } else {
            false
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub(super) fn delta_out(_d: &mut [f64], _o: &[f64], _t: &[f64], _n: usize) -> bool {
        false
    }

    /// Eight-lane AVX-512 kernel for [`delta_out`]: per lane the exact
    /// left-associated scalar product `((o − t) · o) · (1 − o)`.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn delta_out_avx512(d: &mut [f64], o: &[f64], t: &[f64]) {
        use std::arch::x86_64::{
            _mm512_maskz_loadu_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_sub_pd,
        };
        const LANES: usize = 8;
        let ones = _mm512_set1_pd(1.0);
        let n = d.len();
        let mut i = 0usize;
        while i < n {
            let lanes = (n - i).min(LANES);
            let m = ((1u16 << lanes) - 1) as u8;
            // SAFETY: the masked loads and the stepped store touch only
            // the `lanes` elements at `i`; `o` and `t` hold `n`
            // elements as well.
            unsafe {
                let ov = _mm512_maskz_loadu_pd(m, o.as_ptr().add(i));
                let tv = _mm512_maskz_loadu_pd(m, t.as_ptr().add(i));
                let v = _mm512_mul_pd(
                    _mm512_mul_pd(_mm512_sub_pd(ov, tv), ov),
                    _mm512_sub_pd(ones, ov),
                );
                store_low(d.as_mut_ptr().add(i), v, lanes);
            }
            i += lanes;
        }
    }

    /// Fused backward-layer kernel for
    /// [`super::Matrix::backprop_fused_into`]. Returns `true` when the
    /// whole step was performed, `false` when the caller must run the
    /// reference sequence instead (no AVX-512, or more columns than
    /// the two-tile kernel covers).
    #[cfg(target_arch = "x86_64")]
    pub(super) fn backprop_fused(
        w: &mut [f64],
        cols: usize,
        delta: &[f64],
        acts: &[f64],
        scale: f64,
        bias: &mut [f64],
        out: &mut [f64],
    ) -> bool {
        if (1..=16).contains(&cols) && !delta.is_empty() && is_x86_feature_detected!("avx512f") {
            // SAFETY: the avx512f requirement is checked at runtime.
            unsafe { backprop_fused_avx512(w, cols, delta, acts, scale, bias, out) };
            true
        } else {
            false
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub(super) fn backprop_fused(
        _w: &mut [f64],
        _cols: usize,
        _delta: &[f64],
        _acts: &[f64],
        _scale: f64,
        _bias: &mut [f64],
        _out: &mut [f64],
    ) -> bool {
        false
    }

    /// Eight-lane AVX-512 kernel for [`backprop_fused`], covering up
    /// to two column tiles (`cols <= 16` — every backward layer shape
    /// in the trainer). Each row of the pre-update weights is loaded
    /// once and feeds both the transposed-product accumulators and the
    /// rank-1 update, halving the traffic over `W` versus the separate
    /// kernels; the updated row goes back through plain full or
    /// stepped narrow stores ([`store_low`]) because masked
    /// read-modify-write stores defeat store-to-load forwarding for
    /// the next iteration's reads of the same lines.
    ///
    /// Bitwise equivalence to the reference sequence: each accumulator
    /// lane is its column's exact ascending-`r` mul-then-add
    /// recurrence from 0.0; the update applies the scalar
    /// `w += (scale * delta_r) * a_c` per element to a row already
    /// read; and the derivative factors multiply in scalar order,
    /// `(d · a) · (1 − a)`, with `1 − a` a single exactly-rounded
    /// subtraction.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support at runtime;
    /// `w.len()` must equal `delta.len() * cols`, `acts`/`out` must
    /// each hold `cols` elements, and `bias` must hold `delta.len()`
    /// elements.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn backprop_fused_avx512(
        w: &mut [f64],
        cols: usize,
        delta: &[f64],
        acts: &[f64],
        scale: f64,
        bias: &mut [f64],
        out: &mut [f64],
    ) {
        use std::arch::x86_64::{
            _mm512_add_pd, _mm512_maskz_loadu_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_setzero_pd,
            _mm512_sub_pd,
        };
        const LANES: usize = 8;
        let l0 = cols.min(LANES);
        let m0 = ((1u16 << l0) - 1) as u8;
        let l1 = cols - l0;
        let m1 = ((1u16 << l1) - 1) as u8;
        // SAFETY: `acts` holds `cols` elements; each masked load reads
        // only its tile's `l0` resp. `l1` leading lanes.
        let a0 = unsafe { _mm512_maskz_loadu_pd(m0, acts.as_ptr()) };
        let a1 = if l1 > 0 {
            // SAFETY: as above, lanes `LANES..LANES + l1 == cols`.
            unsafe { _mm512_maskz_loadu_pd(m1, acts.as_ptr().add(LANES)) }
        } else {
            _mm512_setzero_pd()
        };
        let mut acc0 = _mm512_setzero_pd();
        let mut acc1 = _mm512_setzero_pd();
        for (r, &dr) in delta.iter().enumerate() {
            // SAFETY: `w` is `delta.len() × cols`, so row `r` starts in
            // bounds and holds `cols` elements, covering every access
            // below.
            let row = unsafe { w.as_mut_ptr().add(r * cols) };
            // SAFETY: reads lanes `< l0` of row `r`.
            let w0 = unsafe { _mm512_maskz_loadu_pd(m0, row) };
            let dv = _mm512_set1_pd(dr);
            acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(w0, dv));
            // Folded bias step: `scale * dr` is exactly the scalar
            // bias loop's addend, applied once per row.
            let t = scale * dr;
            // SAFETY: `bias` holds `delta.len()` elements (caller
            // contract) and `r < delta.len()`.
            unsafe { *bias.get_unchecked_mut(r) += t };
            let sv = _mm512_set1_pd(t);
            let u0 = _mm512_add_pd(w0, _mm512_mul_pd(sv, a0));
            // SAFETY: writes the `l0` leading elements of row `r`.
            unsafe { store_low(row, u0, l0) };
            if l1 > 0 {
                // SAFETY: reads/writes lanes `LANES..cols` of row `r`,
                // disjoint from the first tile's store above.
                unsafe {
                    let w1 = _mm512_maskz_loadu_pd(m1, row.add(LANES));
                    acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(w1, dv));
                    let u1 = _mm512_add_pd(w1, _mm512_mul_pd(sv, a1));
                    store_low(row.add(LANES), u1, l1);
                }
            }
        }
        let ones = _mm512_set1_pd(1.0);
        let d0 = _mm512_mul_pd(_mm512_mul_pd(acc0, a0), _mm512_sub_pd(ones, a0));
        // SAFETY: `out` holds `cols >= l0` elements.
        unsafe { store_low(out.as_mut_ptr(), d0, l0) };
        if l1 > 0 {
            let d1 = _mm512_mul_pd(_mm512_mul_pd(acc1, a1), _mm512_sub_pd(ones, a1));
            // SAFETY: `out` holds `cols == LANES + l1` elements.
            unsafe { store_low(out.as_mut_ptr().add(LANES), d1, l1) };
        }
    }

    /// Writes the `n` low lanes (`1..=8`) of `v` with plain stores —
    /// at most one 8/4/2-wide store each plus one scalar — never a
    /// masked store, whose read-modify-write semantics stall
    /// store-to-load forwarding for loads that soon re-read the line.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support at runtime, and
    /// `ptr` must be valid for writing `n` elements.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn store_low(ptr: *mut f64, v: std::arch::x86_64::__m512d, n: usize) {
        use std::arch::x86_64::{
            _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm256_storeu_pd,
            _mm512_castpd512_pd256, _mm512_extractf64x4_pd, _mm512_storeu_pd, _mm_cvtsd_f64,
            _mm_storeu_pd,
        };
        if n >= 8 {
            // SAFETY: `ptr` is valid for all eight lanes.
            unsafe { _mm512_storeu_pd(ptr, v) };
            return;
        }
        let mut p = ptr;
        let mut rest = n;
        // `half` tracks the four lanes the 2/1-wide tail steps draw
        // from: the low half until a 4-wide store consumes it.
        let mut half = _mm512_castpd512_pd256(v);
        if rest >= 4 {
            // SAFETY: `ptr` is valid for `n >= 4` elements.
            unsafe {
                _mm256_storeu_pd(p, half);
                p = p.add(4);
            }
            rest -= 4;
            half = _mm512_extractf64x4_pd::<1>(v);
        }
        let mut pair = _mm256_castpd256_pd128(half);
        if rest >= 2 {
            // SAFETY: two more elements fit by the same argument.
            unsafe {
                _mm_storeu_pd(p, pair);
                p = p.add(2);
            }
            rest -= 2;
            pair = _mm256_extractf128_pd::<1>(half);
        }
        if rest == 1 {
            // SAFETY: one more element fits by the same argument.
            unsafe { *p = _mm_cvtsd_f64(pair) };
        }
    }

    /// Finishing pass of [`super::sigmoid_bias_into`]: each element
    /// holds `exp(-|t|)` tagged with `t`'s sign bit and becomes
    /// `numer / (1 + e)` with `numer = e` when the tag is negative,
    /// `1` otherwise. Blend, add and divide are exactly rounded
    /// per-lane IEEE operations, so vectorising is bitwise neutral.
    pub(super) fn sigmoid_finish(z: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if !z.is_empty() && is_x86_feature_detected!("avx512f") {
            // SAFETY: the avx512f requirement is checked at runtime.
            unsafe { sigmoid_finish_avx512(z) };
            return;
        }
        for v in z.iter_mut() {
            let e = v.abs();
            let numer = if v.is_sign_negative() { e } else { 1.0 };
            *v = numer / (1.0 + e);
        }
    }

    /// Eight-lane AVX-512 kernel for [`sigmoid_finish`]; masked tiles
    /// cover every element.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn sigmoid_finish_avx512(z: &mut [f64]) {
        use std::arch::x86_64::{
            _mm512_abs_pd, _mm512_add_pd, _mm512_castpd_si512, _mm512_div_pd, _mm512_mask_blend_pd,
            _mm512_mask_storeu_pd, _mm512_maskz_loadu_pd, _mm512_set1_epi64, _mm512_set1_pd,
            _mm512_test_epi64_mask,
        };
        const LANES: usize = 8;
        let ones = _mm512_set1_pd(1.0);
        let sign_bits = _mm512_set1_epi64(i64::MIN);
        let n = z.len();
        let mut c0 = 0usize;
        while c0 < n {
            let lanes = (n - c0).min(LANES);
            let mask = ((1u16 << lanes) - 1) as u8;
            // SAFETY: the masked load and store touch only the `lanes`
            // elements at `c0`, in bounds since `c0 + lanes <= n`.
            unsafe {
                let v = _mm512_maskz_loadu_pd(mask, z.as_ptr().add(c0));
                let e = _mm512_abs_pd(v);
                let neg = _mm512_test_epi64_mask(_mm512_castpd_si512(v), sign_bits);
                let numer = _mm512_mask_blend_pd(neg, ones, e);
                let out = _mm512_div_pd(numer, _mm512_add_pd(ones, e));
                _mm512_mask_storeu_pd(z.as_mut_ptr().add(c0), mask, out);
            }
            c0 += lanes;
        }
    }

    /// Eight-lane AVX-512 tile kernel.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn tiles_avx512(
        a: &[f64],
        a_rows: usize,
        k: usize,
        b: &[f64],
        b_rows: usize,
        out: &mut [f64],
    ) -> usize {
        use std::arch::x86_64::{
            _mm512_add_pd, _mm512_loadu_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_setzero_pd,
            _mm512_storeu_pd,
        };
        const LANES: usize = 8;
        // Transposed sample tile: `xt[t * LANES + l] = a[i0 + l][t]`,
        // so the k-loop loads the eight lanes contiguously.
        let mut xt = vec![0.0f64; k * LANES];
        let mut lanes = [0.0f64; LANES];
        let full = (a_rows / LANES) * LANES;
        for i0 in (0..full).step_by(LANES) {
            for t in 0..k {
                for l in 0..LANES {
                    xt[t * LANES + l] = a[(i0 + l) * k + t];
                }
            }
            // Four output columns per pass: four independent
            // accumulator chains hide the vector-add latency the
            // single chain of one column cannot (each chain is still
            // the exact ascending-k recurrence of its column).
            let mut j = 0;
            while j + 4 <= b_rows {
                let b0 = &b[j * k..(j + 1) * k];
                let b1 = &b[(j + 1) * k..(j + 2) * k];
                let b2 = &b[(j + 2) * k..(j + 3) * k];
                let b3 = &b[(j + 3) * k..(j + 4) * k];
                let mut acc0 = _mm512_setzero_pd();
                let mut acc1 = _mm512_setzero_pd();
                let mut acc2 = _mm512_setzero_pd();
                let mut acc3 = _mm512_setzero_pd();
                for t in 0..k {
                    // SAFETY: `xt` holds `k * LANES` elements, so the
                    // load at `t * LANES` stays in bounds.
                    let x = unsafe { _mm512_loadu_pd(xt.as_ptr().add(t * LANES)) };
                    acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(x, _mm512_set1_pd(b0[t])));
                    acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(x, _mm512_set1_pd(b1[t])));
                    acc2 = _mm512_add_pd(acc2, _mm512_mul_pd(x, _mm512_set1_pd(b2[t])));
                    acc3 = _mm512_add_pd(acc3, _mm512_mul_pd(x, _mm512_set1_pd(b3[t])));
                }
                for (c, acc) in [acc0, acc1, acc2, acc3].into_iter().enumerate() {
                    // SAFETY: `lanes` holds exactly LANES elements.
                    unsafe { _mm512_storeu_pd(lanes.as_mut_ptr(), acc) };
                    for (l, &v) in lanes.iter().enumerate() {
                        out[(i0 + l) * b_rows + j + c] = v;
                    }
                }
                j += 4;
            }
            while j < b_rows {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = _mm512_setzero_pd();
                for (t, &w) in brow.iter().enumerate() {
                    // SAFETY: `xt` holds `k * LANES` elements and
                    // `t < k`, so the load at `t * LANES` stays in
                    // bounds.
                    let x = unsafe { _mm512_loadu_pd(xt.as_ptr().add(t * LANES)) };
                    acc = _mm512_add_pd(acc, _mm512_mul_pd(x, _mm512_set1_pd(w)));
                }
                // SAFETY: `lanes` holds exactly LANES elements.
                unsafe { _mm512_storeu_pd(lanes.as_mut_ptr(), acc) };
                for (l, &v) in lanes.iter().enumerate() {
                    out[(i0 + l) * b_rows + j] = v;
                }
                j += 1;
            }
        }
        full
    }
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix — the natural seed for
    /// [`Matrix::reset`]-based scratch buffers.
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

/// The logistic sigmoid, numerically safe for large `|x|`.
///
/// Branchless formulation of the classic two-sided guard: both sides
/// evaluate `exp(-|x|)` — exactly the argument each branch of the
/// guarded form passes to `exp` — and the select between `1 / (1 + e)`
/// and `e / (1 + e)` compiles to a conditional move. Bit-identical to
/// the branchy version on every finite input, without the
/// data-dependent jump that mispredicts on mixed-sign pre-activations
/// in the training hot loop.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    let e = (-x.abs()).exp();
    let numer = if x >= 0.0 { 1.0 } else { e };
    numer / (1.0 + e)
}

/// In-place `z[i] ← sigmoid(z[i] + bias[i])` over a layer's
/// pre-activations — the activation pass of every forward step.
///
/// Split into a scalar pass and a vector finisher. The scalar pass
/// performs the two operations whose bits depend on libm: the bias add
/// and `exp(-|t|)` (exactly the argument the scalar [`sigmoid`] passes
/// to `exp`), storing the exponential tagged with `t`'s sign bit so no
/// second buffer is needed. The finisher then computes
/// `numer / (1 + e)` — with `numer` selected as `1` or `e` by the sign
/// tag — eight lanes at a time. Addition and division are exactly
/// rounded IEEE operations, identical lane for lane to their scalar
/// forms, so the whole routine is bit-identical to calling
/// [`sigmoid`] per element; only the division throughput changes
/// (scalar `divsd` retires one result per four cycles and dominates
/// the activation cost).
pub(crate) fn sigmoid_bias_into(z: &mut [f64], bias: &[f64]) {
    for (zi, b) in z.iter_mut().zip(bias) {
        let t = *zi + b;
        *zi = (-t.abs()).exp().copysign(t);
    }
    simd::sigmoid_finish(z);
}

/// In-place `y[i] += a · x[i]` over the common prefix — the bias
/// update of every gradient step (with `a = −lr`, since
/// `y −= lr · x` and `y += (−lr) · x` are the same IEEE operations).
/// Bit-identical to the scalar loop: one multiply, one add per
/// element, in scalar order.
pub(crate) fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    let n = y.len().min(x.len());
    if simd::axpy(y, a, x, n) {
        return;
    }
    for (yi, &xi) in y[..n].iter_mut().zip(&x[..n]) {
        *yi += a * xi;
    }
}

/// In-place `y[i] += a · (p[i] − n[i])` over the common prefix — the
/// contrastive-divergence bias update. Bit-identical to the scalar
/// loop: subtract, multiply, add, in scalar order.
pub(crate) fn axpy_diff(y: &mut [f64], a: f64, p: &[f64], n: &[f64]) {
    let len = y.len().min(p.len()).min(n.len());
    if simd::axpy_diff(y, a, p, n, len) {
        return;
    }
    for (yi, (&pi, &ni)) in y[..len].iter_mut().zip(p[..len].iter().zip(&n[..len])) {
        *yi += a * (pi - ni);
    }
}

/// Squared-loss output delta through a sigmoid,
/// `d[i] = (o[i] − t[i]) · o[i] · (1 − o[i])`, over the common prefix
/// of `out` and `target`, written into the reused `delta` buffer.
/// Bit-identical to the scalar expression (left-associated products).
pub(crate) fn delta_out_into(out: &[f64], target: &[f64], delta: &mut Vec<f64>) {
    let n = out.len().min(target.len());
    if delta.len() != n {
        delta.clear();
        delta.resize(n, 0.0);
    }
    if simd::delta_out(delta, out, target, n) {
        return;
    }
    for (d, (&o, &t)) in delta.iter_mut().zip(out[..n].iter().zip(&target[..n])) {
        *d = (o - t) * o * (1.0 - o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helio_common::rng::seeded;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn from_rows_and_ragged_rejection() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut out = Vec::new();
        m.matvec_into(&[1.0, 1.0], &mut out).unwrap();
        assert_eq!(out, vec![3.0, 7.0]);
        m.matvec_t_into(&[1.0, 1.0], &mut out).unwrap();
        assert_eq!(out, vec![4.0, 6.0]);
        assert!(m.matvec_into(&[1.0], &mut out).is_err());
        assert!(m.matvec_t_into(&[1.0, 1.0, 1.0], &mut out).is_err());
    }

    #[test]
    fn rank1_update_adds_outer_product() {
        let mut m = Matrix::zeros(2, 2);
        m.rank1_update(&[1.0, 2.0], &[3.0, 4.0], 0.5).unwrap();
        assert_eq!(m.get(0, 0), 1.5);
        assert_eq!(m.get(1, 1), 4.0);
        assert!(m.rank1_update(&[1.0], &[1.0, 1.0], 1.0).is_err());
    }

    #[test]
    fn random_is_seeded_and_bounded() {
        let a = Matrix::random(4, 4, 0.1, &mut seeded(1));
        let b = Matrix::random(4, 4, 0.1, &mut seeded(1));
        assert_eq!(a, b);
        for r in 0..4 {
            for c in 0..4 {
                assert!(a.get(r, c).abs() <= 0.1);
            }
        }
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(40.0) > 0.999_999);
        assert!(sigmoid(-40.0) < 1e-6);
        assert!(sigmoid(1e6).is_finite());
        assert!(sigmoid(-1e6).is_finite());
        // Symmetry.
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
    }

    /// Naive triple loop for `a · bᵀ` with the same ascending-k
    /// accumulation order as the blocked kernel.
    fn naive_matmul_bt(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = 0.0;
                for t in 0..a.cols() {
                    acc += a.get(i, t) * b.get(j, t);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        // [[5, 6], [7, 8]] stored transposed.
        let bt = Matrix::from_rows(&[vec![5.0, 7.0], vec![6.0, 8.0]]).unwrap();
        let c = a.matmul_bt(&bt).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn blocked_matmul_is_bitwise_naive_across_block_boundaries() {
        // Sizes straddling the 32-wide tiles (and the 8-row vector
        // tiles) exercise partial blocks.
        let mut rng = seeded(21);
        for (m, k, n) in [(1, 1, 1), (5, 9, 3), (33, 40, 65), (70, 37, 45)] {
            let a = Matrix::random(m, k, 1.0, &mut rng);
            let b = Matrix::random(n, k, 1.0, &mut rng);
            let mut blocked = Matrix::zeros(m, n);
            a.matmul_bt_into(&b, &mut blocked).unwrap();
            assert_eq!(blocked, naive_matmul_bt(&a, &b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn from_flat_validates_length() {
        let m = Matrix::from_flat(2, 3, vec![0.0; 6]).unwrap();
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert!(Matrix::from_flat(2, 3, vec![0.0; 5]).is_err());
    }

    /// The three training kernels against naive scalar references, at
    /// sizes straddling the 8-wide lane boundary (so full tiles, tails
    /// and the pure-scalar small path are all exercised).
    #[test]
    fn training_kernels_are_bitwise_scalar_across_lane_boundaries() {
        let mut rng = seeded(24);
        for (rows, cols) in [(1, 1), (3, 7), (8, 8), (9, 17), (16, 10), (25, 33)] {
            let w = Matrix::random(rows, cols, 1.0, &mut rng);
            let x = Matrix::random(1, cols, 1.0, &mut rng).row(0).to_vec();
            let y = Matrix::random(1, rows, 1.0, &mut rng).row(0).to_vec();

            let mut got = Vec::new();
            w.matvec_into(&x, &mut got).unwrap();
            for (r, &g) in got.iter().enumerate() {
                let mut acc = 0.0;
                for (t, &xt) in x.iter().enumerate() {
                    acc += w.get(r, t) * xt;
                }
                assert!(acc.to_bits() == g.to_bits(), "matvec {rows}x{cols} row {r}");
            }

            let mut got_t = Vec::new();
            w.matvec_t_into(&y, &mut got_t).unwrap();
            for (c, &g) in got_t.iter().enumerate() {
                let mut acc = 0.0;
                for (r, &yr) in y.iter().enumerate() {
                    acc += w.get(r, c) * yr;
                }
                assert!(
                    acc.to_bits() == g.to_bits(),
                    "matvec_t {rows}x{cols} col {c}"
                );
            }

            let mut updated = w.clone();
            updated.rank1_update(&y, &x, 0.37).unwrap();
            for (r, &yr) in y.iter().enumerate() {
                for (c, &xc) in x.iter().enumerate() {
                    let want = w.get(r, c) + 0.37 * yr * xc;
                    assert!(
                        want.to_bits() == updated.get(r, c).to_bits(),
                        "rank1 {rows}x{cols} ({r},{c})"
                    );
                }
            }
        }
    }

    /// The fused backward step against the explicit four-part
    /// reference it replaces (transposed product, derivative loop,
    /// rank-1 update, bias loop), bit for bit, at shapes covering one
    /// tile, two tiles (full and partial), and the `cols > 16`
    /// fallback path.
    #[test]
    fn backprop_fused_is_bitwise_reference_sequence() {
        let mut rng = seeded(26);
        for (rows, cols) in [(1, 1), (5, 3), (8, 8), (10, 16), (16, 10), (9, 13), (7, 21)] {
            let w = Matrix::random(rows, cols, 1.0, &mut rng);
            let delta = Matrix::random(1, rows, 1.0, &mut rng).row(0).to_vec();
            let bias0 = Matrix::random(1, rows, 1.0, &mut rng).row(0).to_vec();
            // Activations in (0, 1), as the sigmoid layers produce.
            let acts: Vec<f64> = Matrix::random(1, cols, 0.5, &mut rng)
                .row(0)
                .iter()
                .map(|v| v + 0.5)
                .collect();
            let scale = -0.05;

            let mut fused_w = w.clone();
            let mut fused_bias = bias0.clone();
            let mut fused_out = Vec::new();
            fused_w
                .backprop_fused_into(&delta, &acts, scale, &mut fused_bias, &mut fused_out)
                .unwrap();

            let mut ref_w = w.clone();
            let mut ref_out = Vec::new();
            ref_w.matvec_t_into(&delta, &mut ref_out).unwrap();
            for (o, &a) in ref_out.iter_mut().zip(&acts) {
                *o = *o * a * (1.0 - a);
            }
            ref_w.rank1_update(&delta, &acts, scale).unwrap();
            let mut ref_bias = bias0.clone();
            for (b, &d) in ref_bias.iter_mut().zip(&delta) {
                *b += scale * d;
            }

            for (c, (&f, &r)) in fused_out.iter().zip(&ref_out).enumerate() {
                assert!(f.to_bits() == r.to_bits(), "out {rows}x{cols} col {c}");
            }
            for (r, (&f, &rf)) in fused_bias.iter().zip(&ref_bias).enumerate() {
                assert!(f.to_bits() == rf.to_bits(), "bias {rows}x{cols} row {r}");
            }
            for r in 0..rows {
                for c in 0..cols {
                    assert!(
                        fused_w.get(r, c).to_bits() == ref_w.get(r, c).to_bits(),
                        "weights {rows}x{cols} ({r},{c})"
                    );
                }
            }
        }
        // Shape validation mirrors the unfused kernels.
        let mut w = Matrix::zeros(3, 4);
        let mut out = Vec::new();
        let mut bias = [0.0; 3];
        assert!(w
            .backprop_fused_into(&[0.0; 2], &[0.0; 4], 0.1, &mut bias, &mut out)
            .is_err());
        assert!(w
            .backprop_fused_into(&[0.0; 3], &[0.0; 5], 0.1, &mut bias, &mut out)
            .is_err());
        assert!(w
            .backprop_fused_into(&[0.0; 3], &[0.0; 4], 0.1, &mut [0.0; 2], &mut out)
            .is_err());
    }

    /// The rank-1-with-bias update against its two-part reference,
    /// bit for bit, across the scalar and vector paths.
    #[test]
    fn rank1_bias_is_bitwise_reference_sequence() {
        let mut rng = seeded(29);
        for (rows, cols) in [(3, 5), (8, 8), (16, 15), (6, 23)] {
            let w = Matrix::random(rows, cols, 1.0, &mut rng);
            let a = Matrix::random(1, rows, 1.0, &mut rng).row(0).to_vec();
            let b = Matrix::random(1, cols, 1.0, &mut rng).row(0).to_vec();
            let bias0 = Matrix::random(1, rows, 1.0, &mut rng).row(0).to_vec();

            let mut fused = w.clone();
            let mut fused_bias = bias0.clone();
            fused
                .rank1_bias_update(&a, &b, -0.07, &mut fused_bias)
                .unwrap();

            let mut reference = w.clone();
            reference.rank1_update(&a, &b, -0.07).unwrap();
            let mut ref_bias = bias0.clone();
            for (bi, &ai) in ref_bias.iter_mut().zip(&a) {
                *bi += -0.07 * ai;
            }

            for r in 0..rows {
                assert!(
                    fused_bias[r].to_bits() == ref_bias[r].to_bits(),
                    "bias {rows}x{cols} row {r}"
                );
                for c in 0..cols {
                    assert!(
                        fused.get(r, c).to_bits() == reference.get(r, c).to_bits(),
                        "weights {rows}x{cols} ({r},{c})"
                    );
                }
            }
        }
        let mut w = Matrix::zeros(2, 3);
        assert!(w
            .rank1_bias_update(&[0.0; 2], &[0.0; 3], 0.1, &mut [0.0; 3])
            .is_err());
    }

    /// The paired rank-1 update against its two-call reference, bit
    /// for bit, across tail widths (scalar path, exact tiles, every
    /// overlapped-tail width).
    #[test]
    fn rank1_pair_is_bitwise_two_updates() {
        let mut rng = seeded(27);
        for (rows, cols) in [(4, 5), (3, 8), (10, 9), (16, 15), (10, 16), (6, 23)] {
            let w = Matrix::random(rows, cols, 1.0, &mut rng);
            let a1 = Matrix::random(1, rows, 1.0, &mut rng).row(0).to_vec();
            let b1 = Matrix::random(1, cols, 1.0, &mut rng).row(0).to_vec();
            let a2 = Matrix::random(1, rows, 1.0, &mut rng).row(0).to_vec();
            let b2 = Matrix::random(1, cols, 1.0, &mut rng).row(0).to_vec();

            let mut fused = w.clone();
            fused
                .rank1_pair_update(&a1, &b1, 0.05, &a2, &b2, -0.05)
                .unwrap();
            let mut reference = w.clone();
            reference.rank1_update(&a1, &b1, 0.05).unwrap();
            reference.rank1_update(&a2, &b2, -0.05).unwrap();

            for r in 0..rows {
                for c in 0..cols {
                    assert!(
                        fused.get(r, c).to_bits() == reference.get(r, c).to_bits(),
                        "{rows}x{cols} ({r},{c})"
                    );
                }
            }
        }
        let mut w = Matrix::zeros(2, 3);
        assert!(w
            .rank1_pair_update(&[0.0; 2], &[0.0; 3], 0.1, &[0.0; 1], &[0.0; 3], 0.1)
            .is_err());
    }

    /// The vectorised elementwise training helpers against their
    /// scalar definitions, bit for bit, at lengths covering partial,
    /// exact, and multi-tile spans.
    #[test]
    fn elementwise_helpers_are_bitwise_scalar() {
        let mut rng = seeded(28);
        for n in [1, 2, 3, 5, 8, 10, 13, 16, 20] {
            let y0 = Matrix::random(1, n, 1.0, &mut rng).row(0).to_vec();
            let x = Matrix::random(1, n, 1.0, &mut rng).row(0).to_vec();
            let p = Matrix::random(1, n, 1.0, &mut rng).row(0).to_vec();
            let q = Matrix::random(1, n, 1.0, &mut rng).row(0).to_vec();

            let mut y = y0.clone();
            axpy(&mut y, -0.3, &x);
            for i in 0..n {
                let want = y0[i] + -0.3 * x[i];
                assert!(want.to_bits() == y[i].to_bits(), "axpy n={n} i={i}");
            }

            let mut y = y0.clone();
            axpy_diff(&mut y, 0.7, &p, &q);
            for i in 0..n {
                let want = y0[i] + 0.7 * (p[i] - q[i]);
                assert!(want.to_bits() == y[i].to_bits(), "axpy_diff n={n} i={i}");
            }

            let mut d = Vec::new();
            delta_out_into(&p, &q, &mut d);
            assert_eq!(d.len(), n);
            for i in 0..n {
                let want = (p[i] - q[i]) * p[i] * (1.0 - p[i]);
                assert!(want.to_bits() == d[i].to_bits(), "delta_out n={n} i={i}");
            }
        }
    }

    #[test]
    fn matvec_into_reuses_buffers() {
        let mut rng = seeded(25);
        let w = Matrix::random(12, 9, 1.0, &mut rng);
        let x = vec![1.0; 9];
        let y = vec![1.0; 12];
        let (mut fresh, mut fresh_t) = (Vec::new(), Vec::new());
        w.matvec_into(&x, &mut fresh).unwrap();
        w.matvec_t_into(&y, &mut fresh_t).unwrap();
        // A stale, oversized buffer is resized and overwritten.
        let mut out = vec![999.0; 40];
        w.matvec_into(&x, &mut out).unwrap();
        assert_eq!(out, fresh);
        w.matvec_t_into(&y, &mut out).unwrap();
        assert_eq!(out, fresh_t);
        assert!(w.matvec_t_into(&x, &mut out).is_err());
    }

    #[test]
    fn matmul_bt_rows_are_bitwise_matvec() {
        let mut rng = seeded(22);
        let w = Matrix::random(40, 33, 1.0, &mut rng);
        let xs = Matrix::random(50, 33, 1.0, &mut rng);
        let batch = xs.matmul_bt(&w).unwrap();
        let mut single = Vec::new();
        for r in 0..xs.rows() {
            w.matvec_into(xs.row(r), &mut single).unwrap();
            assert_eq!(batch.row(r), single.as_slice(), "row {r}");
        }
    }

    #[test]
    fn matmul_bt_into_reuses_output() {
        let mut rng = seeded(23);
        let a = Matrix::random(6, 4, 1.0, &mut rng);
        let b = Matrix::random(5, 4, 1.0, &mut rng);
        let mut out = Matrix::zeros(6, 5);
        a.matmul_bt_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul_bt(&b).unwrap());
        // Stale contents must be overwritten, not accumulated.
        a.matmul_bt_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul_bt(&b).unwrap());
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Matrix::zeros(2, 3);
        assert!(a.matmul_bt(&Matrix::zeros(5, 4)).is_err());
        let b = Matrix::zeros(2, 3);
        let mut wrong = Matrix::zeros(3, 3);
        assert!(a.matmul_bt_into(&b, &mut wrong).is_err());
    }
}
