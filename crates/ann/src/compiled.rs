//! The compiled single-sample decision path: a trained [`Dbn`]
//! flattened into a packed, quantizable artifact whose forward pass is
//! tuned for the online planner's one-observation-per-period matvec —
//! the way `matmul_bt` packs batch lanes for throughput, this packs
//! output lanes for latency.
//!
//! ## What compilation does
//!
//! * **Bakes the input scaler's affine transform** into the network at
//!   compile time. The `MinMaxScaler` transform is `clamp((v - min) /
//!   span, 0, 1)` per feature (constant features map to 0.5); dropping
//!   the clamp leaves a per-feature affine `v·a + c` that folds into
//!   the first layer: the f32 tier folds it straight into the layer-0
//!   weights and biases (`W₀' = W₀·diag(a)`, `b₀' = b₀ + W₀·c`), the
//!   int8 tier keeps it as packed per-feature coefficients applied
//!   while converting the input to f32, so quantization always sees
//!   the well-conditioned `[0, 1]`-activation weights rather than
//!   weights scaled by `1/span`.
//! * **Packs weights transposed and lane-padded**: each layer's
//!   `out × in` matrix is stored tile-major as `⌈out/16⌉` tiles of
//!   `in × 16` f32 (or i8) blocks, so the single-sample forward
//!   broadcasts one input activation and fans it across 16 output
//!   lanes with a contiguous load — no gathers, no transposes at run
//!   time. An AVX-512 kernel and a scalar fallback share the layout;
//!   the AVX-512 requirement is detected at run time per call.
//! * **Optionally quantizes to int8 with per-row scales**: each output
//!   row stores `round(w / s)` with `s = max|row| / 127`; the forward
//!   accumulates the integer weights in f32 and applies the row scale
//!   once per row, after the reduction.
//!
//! ## Tolerance contract — this path is *not* bit-identical
//!
//! [`Dbn::predict_into`] remains the full-precision f64 reference and
//! the only path behind the byte-identity golden gates. The compiled
//! forward differs from it in three documented ways: the input clamp
//! is gone (inputs outside the fitted range extrapolate linearly
//! instead of saturating), arithmetic is f32 (plus int8 weight
//! rounding on the quantized tier), and the sigmoid uses a polynomial
//! `exp` approximation (absolute error ≲ 4e-6 on the f32 tier). For
//! inputs **within the scaler's fitted range**, per-element output
//! error is bounded by [`CompiledDbn::tolerance`] in units of
//! `max(1, output span)` — property-tested against the f64 reference
//! across random trained networks in `tests/compiled_props.rs`. End to
//! end, the compiled planner is gated by DMR-regression bounds on the
//! 21 golden scenarios (`helio-bench/tests/golden_compiled.rs`), not
//! by bit-identity.

use crate::dbn::Dbn;
use crate::error::AnnError;

/// Output lanes per packed weight tile (one AVX-512 f32 register).
const LANES: usize = 16;

/// Precision tier of a [`CompiledDbn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompiledTier {
    /// f32 weights and activations; the scaler affine is folded into
    /// the first layer's weights and biases.
    F32,
    /// int8 weights with one f32 scale per output row; activations in
    /// f32, the scaler affine applied as packed per-feature input
    /// coefficients so quantization sees `[0, 1]`-activation weights.
    Int8,
}

/// Packed, transposed weights of one compiled layer.
#[derive(Debug, Clone)]
enum PackedWeights {
    /// `tiles × in × 16` f32 blocks, lane-padded with zeros.
    F32(Vec<f32>),
    /// `tiles × in × 16` i8 blocks plus one dequantization scale per
    /// padded output row (padding rows carry scale 0).
    Int8 { q: Vec<i8>, scale: Vec<f32> },
}

/// One compiled layer: packed weights, lane-padded bias, sigmoid.
#[derive(Debug, Clone)]
struct CompiledLayer {
    in_dim: usize,
    tiles: usize,
    weights: PackedWeights,
    /// Lane-padded bias (`tiles × 16`, padding zeroed).
    bias: Vec<f32>,
}

/// Reusable ping-pong activation buffers for
/// [`CompiledDbn::forward_into`]. [`CompiledDbn::make_scratch`] returns
/// one pre-sized to the network, making even the first forward call
/// allocation-free; a `Default` scratch grows to size on first use.
#[derive(Debug, Default, Clone)]
pub struct CompiledScratch {
    a: Vec<f32>,
    b: Vec<f32>,
}

/// A [`Dbn`] compiled for single-sample inference: baked scaler
/// affine, packed transposed weight tiles, optional int8 quantization.
/// See the module docs for the layout and the tolerance contract.
#[derive(Debug, Clone)]
pub struct CompiledDbn {
    /// Per-feature input coefficients applied during f64 → f32
    /// conversion: identity on the f32 tier (the affine lives in the
    /// layer-0 weights), the scaler affine on the int8 tier.
    prep_a: Vec<f32>,
    prep_c: Vec<f32>,
    /// The same coefficients in f64, lane-padded to a multiple of 16
    /// with zeros — the vectorized prep fuses the affine into the
    /// f64 → f32 conversion with one rounding.
    prep_a64: Vec<f64>,
    prep_c64: Vec<f64>,
    layers: Vec<CompiledLayer>,
    /// Output inverse-scale affine: `y = min + u · span` (span clamped
    /// to 0 for constant outputs, reproducing the reference exactly).
    /// Both vectors are lane-padded to a multiple of 8 with zeros for
    /// the vectorized output stage; indices past `output_dim` are
    /// never surfaced.
    out_min: Vec<f64>,
    out_span: Vec<f64>,
    input_dim: usize,
    output_dim: usize,
    /// Widest lane-padded activation, for scratch sizing.
    width: usize,
    /// Whether every layer fits one 16-lane tile (and the input does
    /// too) — the planner-sized case where the vector forward keeps
    /// the activations in a single register end to end.
    resident: bool,
    /// AVX-512 availability, probed once at compile time — the
    /// per-call feature macro costs an atomic load on the hottest
    /// path. Artifacts never cross hosts (compiled from an in-memory
    /// [`Dbn`], not serialized), so the cached probe stays valid.
    use_simd: bool,
    tier: CompiledTier,
}

impl CompiledDbn {
    /// Compiles a trained network into the packed single-sample form.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadConfig`] when the network holds
    /// non-finite weights or biases (nothing sane can be baked or
    /// quantized from them).
    pub fn compile(dbn: &Dbn, tier: CompiledTier) -> Result<Self, AnnError> {
        let input_scaler = dbn.input_scaler();
        let output_scaler = dbn.output_scaler();
        let net = dbn.network();
        let input_dim = input_scaler.dim();
        let output_dim = output_scaler.dim();

        // The de-clamped MinMax transform as a per-feature affine
        // `v·a + c`; constant features (span <= 0) pin the activation
        // to the reference's 0.5.
        let mut aff_a = vec![0.0f64; input_dim];
        let mut aff_c = vec![0.0f64; input_dim];
        for (t, (a, c)) in aff_a.iter_mut().zip(aff_c.iter_mut()).enumerate() {
            let min = input_scaler.mins()[t];
            let span = input_scaler.maxs()[t] - min;
            if span > 0.0 {
                *a = 1.0 / span;
                *c = -min / span;
            } else {
                *a = 0.0;
                *c = 0.5;
            }
        }

        let mut layers = Vec::with_capacity(net.layer_count());
        // The scratch is wide enough for the lane-padded input so the
        // vectorized prep can store full chunks.
        let input_pad = input_dim.div_ceil(LANES) * LANES;
        let mut width = input_pad;
        for li in 0..net.layer_count() {
            let (w, b) = net.layer(li)?;
            let (rows, cols) = (w.rows(), w.cols());
            // f64 staging of this layer's effective weights and bias.
            let mut staged = vec![0.0f64; rows * cols];
            let mut bias: Vec<f64> = b.to_vec();
            for o in 0..rows {
                let row = w.row(o);
                let out_row = &mut staged[o * cols..(o + 1) * cols];
                if li == 0 && tier == CompiledTier::F32 {
                    // Fold the input affine into the first layer.
                    for t in 0..cols {
                        out_row[t] = row[t] * aff_a[t];
                        bias[o] += row[t] * aff_c[t];
                    }
                } else {
                    out_row.copy_from_slice(row);
                }
            }
            if staged.iter().chain(bias.iter()).any(|v| !v.is_finite()) {
                return Err(AnnError::BadConfig(format!(
                    "layer {li} holds non-finite weights; refusing to compile"
                )));
            }

            let tiles = rows.div_ceil(LANES);
            let mut packed_bias = vec![0.0f32; tiles * LANES];
            for (o, &bv) in bias.iter().enumerate() {
                packed_bias[o] = bv as f32;
            }
            let weights = match tier {
                CompiledTier::F32 => {
                    let mut wt = vec![0.0f32; tiles * cols * LANES];
                    for o in 0..rows {
                        let (tile, lane) = (o / LANES, o % LANES);
                        for t in 0..cols {
                            wt[(tile * cols + t) * LANES + lane] = staged[o * cols + t] as f32;
                        }
                    }
                    PackedWeights::F32(wt)
                }
                CompiledTier::Int8 => {
                    let mut q = vec![0i8; tiles * cols * LANES];
                    let mut scale = vec![0.0f32; tiles * LANES];
                    for o in 0..rows {
                        let row = &staged[o * cols..(o + 1) * cols];
                        let peak = row.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                        let s = if peak > 0.0 { peak / 127.0 } else { 1.0 };
                        scale[o] = s as f32;
                        let (tile, lane) = (o / LANES, o % LANES);
                        for t in 0..cols {
                            let quantized = (row[t] / s).round().clamp(-127.0, 127.0);
                            q[(tile * cols + t) * LANES + lane] = quantized as i8;
                        }
                    }
                    PackedWeights::Int8 { q, scale }
                }
            };
            width = width.max(tiles * LANES);
            layers.push(CompiledLayer {
                in_dim: cols,
                tiles,
                weights,
                bias: packed_bias,
            });
        }

        let (prep_a, prep_c) = match tier {
            CompiledTier::F32 => (vec![1.0f32; input_dim], vec![0.0f32; input_dim]),
            CompiledTier::Int8 => (
                aff_a.iter().map(|&v| v as f32).collect(),
                aff_c.iter().map(|&v| v as f32).collect(),
            ),
        };
        let mut prep_a64 = vec![0.0f64; input_pad];
        let mut prep_c64 = vec![0.0f64; input_pad];
        for t in 0..input_dim {
            match tier {
                CompiledTier::F32 => prep_a64[t] = 1.0,
                CompiledTier::Int8 => {
                    prep_a64[t] = aff_a[t];
                    prep_c64[t] = aff_c[t];
                }
            }
        }
        let out_pad = output_dim.div_ceil(8) * 8;
        let mut out_min = vec![0.0f64; out_pad];
        let mut out_span = vec![0.0f64; out_pad];
        for o in 0..output_dim {
            out_min[o] = output_scaler.mins()[o];
            out_span[o] = (output_scaler.maxs()[o] - output_scaler.mins()[o]).max(0.0);
        }
        let resident = input_dim <= LANES && layers.iter().all(|l| l.tiles == 1);
        #[cfg(target_arch = "x86_64")]
        let use_simd = is_x86_feature_detected!("avx512f");
        #[cfg(not(target_arch = "x86_64"))]
        let use_simd = false;
        Ok(Self {
            prep_a,
            prep_c,
            prep_a64,
            prep_c64,
            layers,
            out_min,
            out_span,
            input_dim,
            output_dim,
            width,
            resident,
            use_simd,
            tier,
        })
    }

    /// The precision tier this artifact was compiled at.
    pub fn tier(&self) -> CompiledTier {
        self.tier
    }

    /// Input dimensionality (matches the source [`Dbn`]).
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output dimensionality (matches the source [`Dbn`]).
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Documented per-element output-error bound versus the f64
    /// reference, in units of `max(1, output span)`, for inputs within
    /// the scaler's fitted range (see the module docs; property-tested
    /// in `tests/compiled_props.rs`).
    pub fn tolerance(&self) -> f64 {
        match self.tier {
            CompiledTier::F32 => 1e-4,
            CompiledTier::Int8 => 0.08,
        }
    }

    /// A scratch pre-sized to this network's widest layer, so the very
    /// first [`CompiledDbn::forward_into`] call allocates nothing.
    pub fn make_scratch(&self) -> CompiledScratch {
        CompiledScratch {
            a: vec![0.0; self.width],
            b: vec![0.0; self.width],
        }
    }

    /// The compiled forward pass: one raw (unscaled) observation in,
    /// the decision vector out — `out` is resized to
    /// [`CompiledDbn::output_dim`] and fully overwritten.
    /// Allocation-free with a [`CompiledDbn::make_scratch`] scratch
    /// and an `out` with capacity for the output width.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for wrong input sizes.
    #[inline]
    pub fn forward_into(
        &self,
        input: &[f64],
        scratch: &mut CompiledScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), AnnError> {
        self.forward_impl(input, scratch, out, true)
    }

    /// [`CompiledDbn::forward_into`] with SIMD dispatch forced off —
    /// exercised by tests so the scalar kernel's tolerance is verified
    /// even on AVX-512 hosts.
    #[doc(hidden)]
    pub fn forward_into_scalar(
        &self,
        input: &[f64],
        scratch: &mut CompiledScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), AnnError> {
        self.forward_impl(input, scratch, out, false)
    }

    #[inline]
    fn forward_impl(
        &self,
        input: &[f64],
        scratch: &mut CompiledScratch,
        out: &mut Vec<f64>,
        allow_simd: bool,
    ) -> Result<(), AnnError> {
        if input.len() != self.input_dim {
            return Err(AnnError::dims(
                format!("{} input features", self.input_dim),
                format!("{}", input.len()),
            ));
        }
        scratch.a.resize(self.width, 0.0);
        scratch.b.resize(self.width, 0.0);
        if out.len() != self.output_dim {
            out.clear();
            out.resize(self.output_dim, 0.0);
        }
        // One fused call for the whole network: the input prep, every
        // layer and the output affine inline into a single pass, so
        // activations flow stage to stage without re-dispatching, and
        // the output affine masked-stores straight into `out`.
        if allow_simd && self.use_simd {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `use_simd` records an avx512f probe from compile
            // time, and `out` was just sized to `output_dim`.
            unsafe {
                if self.resident {
                    kernel::forward_avx512_resident(self, input, scratch, out.as_mut_ptr());
                } else {
                    kernel::forward_avx512(self, input, scratch, out.as_mut_ptr());
                }
            }
            return Ok(());
        }
        for (t, &v) in input.iter().enumerate() {
            scratch.a[t] = (v as f32) * self.prep_a[t] + self.prep_c[t];
        }
        for layer in &self.layers {
            kernel::layer_forward_scalar(layer, &scratch.a, &mut scratch.b);
            std::mem::swap(&mut scratch.a, &mut scratch.b);
        }
        for (o, slot) in out.iter_mut().enumerate() {
            // The reference's output unsqueeze and inverse scale, in
            // f64 on the f32 sigmoid activation.
            let u = ((scratch.a[o] as f64 - 0.05) / 0.9).clamp(0.0, 1.0);
            *slot = self.out_min[o] + u * self.out_span[o];
        }
        Ok(())
    }
}

/// The packed-layout matvec + sigmoid kernels: an AVX-512 path
/// broadcasting one activation across 16 contiguous output lanes per
/// tile, and a scalar fallback over the same layout. Both use the same
/// polynomial-`exp` sigmoid; the vector path fuses multiplies (this is
/// the tolerance-gated path — unlike the training kernels it owes
/// nobody bit-identity).
mod kernel {
    use super::{CompiledLayer, PackedWeights, LANES};

    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2: f32 = std::f32::consts::LN_2;
    /// |z| beyond this, sigmoid is 1 (or 0) to well past f32 epsilon.
    const SIG_CLAMP: f32 = 30.0;
    /// Degree-5 Taylor coefficients of `e^r` on `|r| <= ln(2)/2`
    /// (truncation error < 3e-6, comfortably inside the contract).
    const C5: f32 = 1.0 / 120.0;
    const C4: f32 = 1.0 / 24.0;
    const C3: f32 = 1.0 / 6.0;
    const C2: f32 = 0.5;

    /// `σ(z)` through the shared polynomial `exp` approximation:
    /// `e^x = 2^n · e^r` with `n = round(x·log2e)` and a degree-5
    /// Taylor tail, `2^n` assembled by exponent-bit arithmetic.
    fn sigmoid_scalar(z: f32) -> f32 {
        let x = -z.clamp(-SIG_CLAMP, SIG_CLAMP);
        let y = x * LOG2E;
        let n = y.round_ties_even();
        let r = (y - n) * LN2;
        let mut p = C5;
        p = p * r + C4;
        p = p * r + C3;
        p = p * r + C2;
        p = p * r + 1.0;
        p = p * r + 1.0;
        // n ∈ [-44, 44] after the clamp, so the biased exponent is a
        // valid normal.
        let e = p * f32::from_bits(((n as i32 + 127) as u32) << 23);
        1.0 / (1.0 + e)
    }

    /// Runs one compiled layer, `out[0..tiles*16] = σ(W·x + b)`, over
    /// the packed tile layout — the portable counterpart of the fused
    /// [`forward_avx512`] pass (tests verify both within the same
    /// tolerance).
    pub(super) fn layer_forward_scalar(layer: &CompiledLayer, x: &[f32], out: &mut [f32]) {
        let xs = &x[..layer.in_dim];
        for tile in 0..layer.tiles {
            let base = tile * layer.in_dim * LANES;
            for lane in 0..LANES {
                let o = tile * LANES + lane;
                let z = match &layer.weights {
                    PackedWeights::F32(wt) => {
                        let mut acc = 0.0f32;
                        for (t, &xt) in xs.iter().enumerate() {
                            acc += wt[base + t * LANES + lane] * xt;
                        }
                        acc + layer.bias[o]
                    }
                    PackedWeights::Int8 { q, scale } => {
                        let mut acc = 0.0f32;
                        for (t, &xt) in xs.iter().enumerate() {
                            acc += f32::from(q[base + t * LANES + lane]) * xt;
                        }
                        acc * scale[o] + layer.bias[o]
                    }
                };
                out[o] = sigmoid_scalar(z);
            }
        }
    }

    /// The fused whole-network pass — input prep, every layer's
    /// matvec + sigmoid, and the output affine in one `target_feature`
    /// body, so all stages inline and activations ping-pong between
    /// the scratch buffers without re-dispatching.
    ///
    /// The prep fuses the per-feature affine into the f64 → f32
    /// conversion with one f64 FMA (one rounding, versus the scalar
    /// path's round-then-multiply — both inside the tier tolerance),
    /// and the output stage multiplies by the precomputed `1/0.9`
    /// instead of dividing (1 ulp, same contract).
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support at runtime.
    /// `scratch` must be sized to the network (`a`/`b` at least
    /// `net.width`) and `out` must point at `net.output_dim` writable
    /// `f64`s.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn forward_avx512(
        net: &super::CompiledDbn,
        input: &[f64],
        scratch: &mut super::CompiledScratch,
        out: *mut f64,
    ) {
        use std::arch::x86_64::{
            __mmask8, _mm256_loadu_ps, _mm256_storeu_ps, _mm512_cvtpd_ps, _mm512_cvtps_pd,
            _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_mask_storeu_pd, _mm512_maskz_loadu_pd,
            _mm512_max_pd, _mm512_min_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_sub_pd,
        };

        // Input prep, 8 features per chunk; masked loads zero the
        // lanes past `input_dim`, and the padded coefficients are zero
        // there, so the padding activations stay zero.
        let in_dim = input.len();
        for off in (0..net.prep_a64.len()).step_by(8) {
            // `saturating_sub` covers chunks entirely past `in_dim`
            // (a sub-8-feature network still pads to a full 16-lane
            // tile): the mask zeroes every lane and the pointer is
            // clamped to one-past-end below.
            let rem = in_dim.saturating_sub(off);
            let mask: __mmask8 = if rem >= 8 {
                0xFF
            } else {
                ((1u16 << rem) - 1) as __mmask8
            };
            // SAFETY: the masked lanes of `input` stay untouched and
            // the clamped offset never leaves the allocation;
            // `prep_a64`/`prep_c64` are `input_pad` long and `a` is at
            // least as long (`width >= input_pad`).
            unsafe {
                let av = _mm512_maskz_loadu_pd(mask, input.as_ptr().add(off.min(in_dim)));
                let pa = _mm512_loadu_pd(net.prep_a64.as_ptr().add(off));
                let pc = _mm512_loadu_pd(net.prep_c64.as_ptr().add(off));
                let f = _mm512_cvtpd_ps(_mm512_fmadd_pd(av, pa, pc));
                _mm256_storeu_ps(scratch.a.as_mut_ptr().add(off), f);
            }
        }

        for layer in &net.layers {
            // SAFETY: avx512f was verified by the caller.
            unsafe { layer_forward_avx512(layer, &scratch.a, &mut scratch.b) };
            std::mem::swap(&mut scratch.a, &mut scratch.b);
        }

        // Output affine, 8 outputs per chunk: the reference's
        // unsqueeze `clamp((y - 0.05) / 0.9, 0, 1)` and inverse scale
        // `min + u·span` in f64 on the f32 sigmoid activations, mask-
        // stored straight into `out` (the padded tail never lands).
        let zero = _mm512_set1_pd(0.0);
        let one = _mm512_set1_pd(1.0);
        let bias = _mm512_set1_pd(0.05);
        let inv = _mm512_set1_pd(1.0 / 0.9);
        let n = net.output_dim;
        for off in (0..net.out_min.len()).step_by(8) {
            // As in the prep loop, `saturating_sub` + a clamped store
            // offset handle chunks entirely past `output_dim` (narrow
            // heads still pad to a 16-lane tile).
            let rem = n.saturating_sub(off);
            if rem == 0 {
                break;
            }
            let mask: __mmask8 = if rem >= 8 {
                0xFF
            } else {
                ((1u16 << rem) - 1) as __mmask8
            };
            // SAFETY: `out_min`/`out_span` are `out_pad` long, the
            // final activation buffer covers `out_pad` (`tiles·16` of
            // the last layer rounds up past it), and the masked lanes
            // keep the store inside `out`'s `output_dim` elements.
            unsafe {
                let act = _mm512_cvtps_pd(_mm256_loadu_ps(scratch.a.as_ptr().add(off)));
                let u = _mm512_mul_pd(_mm512_sub_pd(act, bias), inv);
                let u = _mm512_min_pd(_mm512_max_pd(u, zero), one);
                let mins = _mm512_loadu_pd(net.out_min.as_ptr().add(off));
                let spans = _mm512_loadu_pd(net.out_span.as_ptr().add(off));
                let y = _mm512_fmadd_pd(u, spans, mins);
                _mm512_mask_storeu_pd(out.add(off), mask, y);
            }
        }
    }

    /// The register-resident variant for planner-sized networks (every
    /// layer one tile, input ≤ 16 features): the activation vector
    /// lives in a single register from prep to output affine, with
    /// per-feature broadcasts done by lane permutation instead of a
    /// store/reload round trip — inter-layer memory traffic is what
    /// dominates the generic pass at these widths.
    ///
    /// # Safety
    ///
    /// As for [`forward_avx512`], and `net.resident` must hold.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn forward_avx512_resident(
        net: &super::CompiledDbn,
        input: &[f64],
        _scratch: &mut super::CompiledScratch,
        out: *mut f64,
    ) {
        use std::arch::x86_64::{__m512, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps};

        // Layer 0 consumes the raw input through scalar 8-byte loads
        // broadcast from registers: the caller typically finished
        // writing `input` element by element nanoseconds ago, and a
        // 512-bit load spanning those fresh stores defeats
        // store-to-load forwarding (a ~25-cycle stall per load, which
        // at this network size rivals a whole layer). Scalar loads
        // forward cleanly. The affine prep folds into each broadcast
        // with the same one-rounding f64 FMA (and the same f32
        // rounding) as the vectorized prep, so results are unchanged.
        let in_dim = input.len();
        let prep = |t: usize| -> __m512 {
            // SAFETY: the matvec only asks for `t < in_dim`, and the
            // coefficient vectors are `input_pad ≥ in_dim` long.
            let x = unsafe {
                input.get_unchecked(t).mul_add(
                    *net.prep_a64.get_unchecked(t),
                    *net.prep_c64.get_unchecked(t),
                )
            };
            _mm512_set1_ps(x as f32)
        };
        debug_assert_eq!(in_dim, net.layers[0].in_dim);
        let l0 = &net.layers[0];
        let z = match &l0.weights {
            PackedWeights::F32(wt) => {
                // Bias seeds the first accumulator instead of being
                // added after the reduction — one less dependent add on
                // the layer's latency chain. The summation order shift
                // moves the result by ulps, inside the tier tolerance.
                // SAFETY: one tile — `wt` is `in_dim × 16` and `bias`
                // is 16 long.
                unsafe {
                    let bv = _mm512_loadu_ps(l0.bias.as_ptr());
                    matvec16_f32(wt.as_ptr(), l0.in_dim, prep, bv)
                }
            }
            PackedWeights::Int8 { q, scale } => {
                // SAFETY: one tile — `q` is `in_dim × 16` bytes,
                // `scale` and `bias` are 16 long.
                unsafe {
                    let acc = matvec16_i8(q.as_ptr(), l0.in_dim, prep);
                    let sv = _mm512_loadu_ps(scale.as_ptr());
                    let bv = _mm512_loadu_ps(l0.bias.as_ptr());
                    _mm512_fmadd_ps(acc, sv, bv)
                }
            }
        };
        // SAFETY: avx512f per the caller's contract; `out` covers
        // `output_dim` elements.
        unsafe { resident_finish(net, sigmoid_avx512(z), out) };
    }

    /// Layers 1..n and the output affine of the resident pass, from
    /// layer 0's activation register.
    ///
    /// # Safety
    ///
    /// As for [`forward_avx512_resident`]; `act` must be layer 0's
    /// sigmoid output.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn resident_finish(
        net: &super::CompiledDbn,
        act: std::arch::x86_64::__m512,
        out: *mut f64,
    ) {
        use std::arch::x86_64::{
            _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_permutexvar_ps, _mm512_set1_epi32,
            _mm512_store_ps,
        };

        let mut act = act;
        for layer in &net.layers[1..] {
            // Later layers broadcast feature `t` of the previous
            // layer's register-resident activation by lane permute.
            let prev = act;
            let lane = |t: usize| _mm512_permutexvar_ps(_mm512_set1_epi32(t as i32), prev);
            let z = match &layer.weights {
                PackedWeights::F32(wt) => {
                    // SAFETY: one tile — `wt` is `in_dim × 16` and
                    // `bias` is 16 long.
                    unsafe {
                        let bv = _mm512_loadu_ps(layer.bias.as_ptr());
                        matvec16_f32(wt.as_ptr(), layer.in_dim, lane, bv)
                    }
                }
                PackedWeights::Int8 { q, scale } => {
                    // SAFETY: one tile — `q` is `in_dim × 16` bytes.
                    let acc = unsafe { matvec16_i8(q.as_ptr(), layer.in_dim, lane) };
                    // SAFETY: `scale` and `bias` are 16 long.
                    let (sv, bv) = unsafe {
                        (
                            _mm512_loadu_ps(scale.as_ptr()),
                            _mm512_loadu_ps(layer.bias.as_ptr()),
                        )
                    };
                    _mm512_fmadd_ps(acc, sv, bv)
                }
            };
            act = sigmoid_avx512(z);
        }

        // One plain aligned spill of the activation register, then the
        // affine scalar-wise with scalar stores into `out`. The
        // planner reads the decision heads element by element right
        // after this returns, and a *masked* wide store to `out` never
        // forwards to those loads (a ~40-cycle stall that rivals a
        // layer at this size); scalar stores forward cleanly, and the
        // unmasked spill's contained loads do too.
        #[repr(align(64))]
        struct Spill([f32; LANES]);
        let mut spill = Spill([0.0; LANES]);
        _mm512_store_ps(spill.0.as_mut_ptr(), act);
        let n = net.output_dim;
        for o in 0..n {
            let a = spill.0[o] as f64;
            // Same f64 operation order as the generic pass's vector
            // stage (sub, multiply by 1/0.9, clamp, FMA), so the two
            // kernels agree bit for bit on resident shapes.
            let u = ((a - 0.05) * (1.0 / 0.9)).clamp(0.0, 1.0);
            // SAFETY: `o < output_dim` and `out` covers `output_dim`
            // elements; `out_min`/`out_span` are at least as long.
            unsafe {
                *out.add(o) = u.mul_add(
                    *net.out_span.get_unchecked(o),
                    *net.out_min.get_unchecked(o),
                );
            }
        }
    }

    /// One-tile f32 matvec for the resident pass: `x(t)` supplies the
    /// 16-lane broadcast of feature `t` (a register permute or a
    /// scalar-load broadcast — never a wide load). Four independent
    /// accumulators seeded with `init` (the layer bias, folding its
    /// add into the reduction), tail features folding into the first,
    /// exactly like the generic tile reduction.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support at runtime and
    /// `base` must point at `in_dim × 16` packed weights.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn matvec16_f32(
        base: *const f32,
        in_dim: usize,
        x: impl Fn(usize) -> std::arch::x86_64::__m512,
        init: std::arch::x86_64::__m512,
    ) -> std::arch::x86_64::__m512 {
        use std::arch::x86_64::{
            _mm512_add_ps, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_setzero_ps,
        };
        let mut acc0 = init;
        let mut acc1 = _mm512_setzero_ps();
        let mut acc2 = _mm512_setzero_ps();
        let mut acc3 = _mm512_setzero_ps();
        let mut t = 0;
        while t + 4 <= in_dim {
            let (a, b, c, d);
            // SAFETY: blocks `t..t+4`, in bounds per the contract.
            unsafe {
                a = _mm512_loadu_ps(base.add(t * LANES));
                b = _mm512_loadu_ps(base.add((t + 1) * LANES));
                c = _mm512_loadu_ps(base.add((t + 2) * LANES));
                d = _mm512_loadu_ps(base.add((t + 3) * LANES));
            }
            acc0 = _mm512_fmadd_ps(a, x(t), acc0);
            acc1 = _mm512_fmadd_ps(b, x(t + 1), acc1);
            acc2 = _mm512_fmadd_ps(c, x(t + 2), acc2);
            acc3 = _mm512_fmadd_ps(d, x(t + 3), acc3);
            t += 4;
        }
        while t < in_dim {
            // SAFETY: block `t`, in bounds per the contract.
            let w = unsafe { _mm512_loadu_ps(base.add(t * LANES)) };
            acc0 = _mm512_fmadd_ps(w, x(t), acc0);
            t += 1;
        }
        _mm512_add_ps(_mm512_add_ps(acc0, acc1), _mm512_add_ps(acc2, acc3))
    }

    /// [`matvec16_f32`] over int8 tiles: 16-byte load, sign-extend,
    /// convert, fused multiply-add (dequantization scale applied by
    /// the caller after the reduction).
    ///
    /// # Safety
    ///
    /// As for [`matvec16_f32`], with `base` pointing at `in_dim × 16`
    /// packed int8 weights.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn matvec16_i8(
        base: *const i8,
        in_dim: usize,
        x: impl Fn(usize) -> std::arch::x86_64::__m512,
    ) -> std::arch::x86_64::__m512 {
        use std::arch::x86_64::{
            __m128i, _mm512_add_ps, _mm512_cvtepi32_ps, _mm512_cvtepi8_epi32, _mm512_fmadd_ps,
            _mm512_setzero_ps, _mm_loadu_si128,
        };
        let mut acc0 = _mm512_setzero_ps();
        let mut acc1 = _mm512_setzero_ps();
        let mut acc2 = _mm512_setzero_ps();
        let mut acc3 = _mm512_setzero_ps();
        let mut t = 0;
        while t + 4 <= in_dim {
            let (a, b, c, d);
            // SAFETY: 16-byte blocks `t..t+4`, in bounds per contract.
            unsafe {
                a = _mm_loadu_si128(base.add(t * LANES).cast::<__m128i>());
                b = _mm_loadu_si128(base.add((t + 1) * LANES).cast::<__m128i>());
                c = _mm_loadu_si128(base.add((t + 2) * LANES).cast::<__m128i>());
                d = _mm_loadu_si128(base.add((t + 3) * LANES).cast::<__m128i>());
            }
            acc0 = _mm512_fmadd_ps(_mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(a)), x(t), acc0);
            acc1 = _mm512_fmadd_ps(_mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(b)), x(t + 1), acc1);
            acc2 = _mm512_fmadd_ps(_mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(c)), x(t + 2), acc2);
            acc3 = _mm512_fmadd_ps(_mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(d)), x(t + 3), acc3);
            t += 4;
        }
        while t < in_dim {
            // SAFETY: 16 bytes of block `t`, in bounds per contract.
            let w = unsafe {
                _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(_mm_loadu_si128(
                    base.add(t * LANES).cast::<__m128i>(),
                )))
            };
            acc0 = _mm512_fmadd_ps(w, x(t), acc0);
            t += 1;
        }
        _mm512_add_ps(_mm512_add_ps(acc0, acc1), _mm512_add_ps(acc2, acc3))
    }

    /// One 16-lane tile per output register: broadcast each input
    /// activation, contiguous weight-tile load (f32) or i8 load +
    /// sign-extend + convert (int8), fused multiply-add, then the
    /// vectorized polynomial sigmoid. The reduction runs on four
    /// independent accumulators — a single accumulator serializes the
    /// whole matvec on the FMA latency chain, which dominates at these
    /// one-tile layer widths.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn layer_forward_avx512(layer: &CompiledLayer, x: &[f32], out: &mut [f32]) {
        use std::arch::x86_64::{
            __m128i, __m512, _mm512_add_ps, _mm512_cvtepi32_ps, _mm512_cvtepi8_epi32,
            _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
            _mm_loadu_si128,
        };

        /// `Σ_t w[t]·x[t]` over one tile's `in_dim × 16` block, the
        /// weight vector for step `t` supplied by `load(t)`.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn tile_matvec(xs: &[f32], mut load: impl FnMut(usize) -> __m512) -> __m512 {
            let mut acc0 = _mm512_setzero_ps();
            let mut acc1 = _mm512_setzero_ps();
            let mut acc2 = _mm512_setzero_ps();
            let mut acc3 = _mm512_setzero_ps();
            let mut t = 0;
            while t + 4 <= xs.len() {
                acc0 = _mm512_fmadd_ps(load(t), _mm512_set1_ps(xs[t]), acc0);
                acc1 = _mm512_fmadd_ps(load(t + 1), _mm512_set1_ps(xs[t + 1]), acc1);
                acc2 = _mm512_fmadd_ps(load(t + 2), _mm512_set1_ps(xs[t + 2]), acc2);
                acc3 = _mm512_fmadd_ps(load(t + 3), _mm512_set1_ps(xs[t + 3]), acc3);
                t += 4;
            }
            while t < xs.len() {
                acc0 = _mm512_fmadd_ps(load(t), _mm512_set1_ps(xs[t]), acc0);
                t += 1;
            }
            _mm512_add_ps(_mm512_add_ps(acc0, acc1), _mm512_add_ps(acc2, acc3))
        }

        let in_dim = layer.in_dim;
        let xs = &x[..in_dim];
        for tile in 0..layer.tiles {
            let z = match &layer.weights {
                PackedWeights::F32(wt) => {
                    // SAFETY: `wt` is tiles × in_dim × 16; this tile's
                    // blocks span `[tile·in·16, (tile+1)·in·16)`, and
                    // `tile_matvec` only asks for `t < in_dim`.
                    let base = unsafe { wt.as_ptr().add(tile * in_dim * LANES) };
                    let acc = unsafe { tile_matvec(xs, |t| _mm512_loadu_ps(base.add(t * LANES))) };
                    // SAFETY: `bias` is tiles × 16.
                    let bv = unsafe { _mm512_loadu_ps(layer.bias.as_ptr().add(tile * LANES)) };
                    _mm512_add_ps(acc, bv)
                }
                PackedWeights::Int8 { q, scale } => {
                    // SAFETY: `q` is tiles × in_dim × 16 bytes; this
                    // tile's blocks span `[tile·in·16, (tile+1)·in·16)`,
                    // and `tile_matvec` only asks for `t < in_dim`.
                    let base = unsafe { q.as_ptr().add(tile * in_dim * LANES) };
                    let acc = unsafe {
                        tile_matvec(xs, |t| {
                            _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(_mm_loadu_si128(
                                base.add(t * LANES).cast::<__m128i>(),
                            )))
                        })
                    };
                    // SAFETY: `scale` and `bias` are tiles × 16.
                    let sv = unsafe { _mm512_loadu_ps(scale.as_ptr().add(tile * LANES)) };
                    let bv = unsafe { _mm512_loadu_ps(layer.bias.as_ptr().add(tile * LANES)) };
                    _mm512_fmadd_ps(acc, sv, bv)
                }
            };
            let s = sigmoid_avx512(z);
            // SAFETY: `out` holds at least tiles × 16 activations.
            unsafe { _mm512_storeu_ps(out.as_mut_ptr().add(tile * LANES), s) };
        }
    }

    /// Lane-parallel [`sigmoid_scalar`]: identical formula, fused
    /// multiply-adds in the polynomial.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn sigmoid_avx512(z: std::arch::x86_64::__m512) -> std::arch::x86_64::__m512 {
        use std::arch::x86_64::{
            _mm512_add_ps, _mm512_fmadd_ps, _mm512_fnmadd_ps, _mm512_max_ps, _mm512_mul_ps,
            _mm512_rcp14_ps, _mm512_roundscale_ps, _mm512_scalef_ps, _mm512_set1_ps,
            _mm512_setzero_ps, _mm512_sub_ps, _MM_FROUND_NO_EXC, _MM_FROUND_TO_NEAREST_INT,
        };
        let one = _mm512_set1_ps(1.0);
        // Saturation guard on the negative side only: z → −∞ drives
        // e = e^{−z} → ∞ and the Newton correction to ∞·0 = NaN, so z
        // is floored at −SIG_CLAMP. The positive side needs no clamp —
        // for any z ≳ 17, e^{−z} < 2⁻²⁴ and `1/(1+e)` rounds to
        // exactly 1.0f32, the same value the scalar path's two-sided
        // clamp produces — and dropping the `min` takes 4 cycles off
        // a latency chain the whole forward waits on. (A z past
        // ±3e38 would overflow `y` into a NaN output; finite layers
        // cannot reach that, and a NaN head is the planner's
        // explicit fallback signal anyway.)
        let zf = _mm512_max_ps(z, _mm512_set1_ps(-SIG_CLAMP));
        // Range reduction for e^{−z} = 2^n · e^r: `n = round(−z·log2e)`
        // with the negation folded into the constant (sign flips are
        // exact), then `r = (−z) − n·ln2` as a single FNMADD — the
        // negation runs off the critical path, replacing the scalar
        // recipe's dependent subtract-then-multiply.
        let y = _mm512_mul_ps(zf, _mm512_set1_ps(-LOG2E));
        let n = _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(y);
        let nz = _mm512_sub_ps(_mm512_setzero_ps(), zf);
        let r = _mm512_fnmadd_ps(n, _mm512_set1_ps(LN2), nz);
        // Estrin split of the degree-5 Taylor tail,
        // `(1 + r) + r²·(C2 + C3·r) + r⁴·(C4 + C5·r)`: three
        // independent FMAs then a two-FMA combine — the forward is a
        // pure latency chain, and Horner's five serial FMAs put ~20
        // cycles of it in every sigmoid. Grouping differs from the
        // scalar path by ulps, inside both tier tolerances (the two
        // already differ on the reciprocal).
        let r2 = _mm512_mul_ps(r, r);
        let r4 = _mm512_mul_ps(r2, r2);
        let lo = _mm512_add_ps(r, one);
        let mid = _mm512_fmadd_ps(_mm512_set1_ps(C3), r, _mm512_set1_ps(C2));
        let hi = _mm512_fmadd_ps(_mm512_set1_ps(C5), r, _mm512_set1_ps(C4));
        let p = _mm512_fmadd_ps(hi, r4, _mm512_fmadd_ps(mid, r2, lo));
        // `p · 2^n` in one instruction; `n` is already integral, and a
        // power-of-two scale is exact, so this matches the scalar
        // path's exponent-bit assembly bit for bit.
        let e = _mm512_scalef_ps(p, n);
        // `1 / (1 + e)` via the 14-bit reciprocal plus one Newton
        // step, `r·(2 − d·r)`: relative error ~2⁻²⁸, far inside the
        // tier tolerances, at a fraction of the divider's latency.
        let d = _mm512_add_ps(one, e);
        let r = _mm512_rcp14_ps(d);
        _mm512_mul_ps(r, _mm512_fnmadd_ps(d, r, _mm512_set1_ps(2.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbn::{DbnConfig, PredictScratch};
    use crate::train::TrainingSet;

    /// A quick-to-train scheduler-shaped network: 13 inputs (one held
    /// constant, like a dead sensor channel), 10 outputs.
    fn trained_dbn() -> Dbn {
        let inputs: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let mut v: Vec<f64> = (0..13)
                    .map(|j| ((i * 13 + j) as f64 * 0.37).sin().abs() * 40.0)
                    .collect();
                v[5] = 7.0; // constant feature: span 0, maps to 0.5
                v
            })
            .collect();
        let targets: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                (0..10)
                    .map(|j| ((i + j) as f64 * 0.21).cos().abs())
                    .collect()
            })
            .collect();
        let mut cfg = DbnConfig::small(42);
        cfg.bp_epochs = 30;
        Dbn::train_set(
            &TrainingSet::from_rows(&inputs, &targets).expect("rows pack"),
            &cfg,
        )
        .expect("trains")
    }

    fn max_err(dbn: &Dbn, compiled: &CompiledDbn, inputs: &[Vec<f64>], scalar: bool) -> f64 {
        let mut scratch = compiled.make_scratch();
        let mut ref_scratch = PredictScratch::default();
        let mut fast = Vec::new();
        let mut reference = Vec::new();
        let mut worst = 0.0f64;
        for x in inputs {
            if scalar {
                compiled
                    .forward_into_scalar(x, &mut scratch, &mut fast)
                    .expect("forward");
            } else {
                compiled
                    .forward_into(x, &mut scratch, &mut fast)
                    .expect("forward");
            }
            dbn.predict_into(x, &mut ref_scratch, &mut reference)
                .expect("reference");
            for (o, (a, b)) in fast.iter().zip(&reference).enumerate() {
                let span = (dbn.output_scaler().maxs()[o] - dbn.output_scaler().mins()[o]).max(1.0);
                worst = worst.max((a - b).abs() / span);
            }
        }
        worst
    }

    fn in_range_inputs(dbn: &Dbn) -> Vec<Vec<f64>> {
        let s = dbn.input_scaler();
        (0..25)
            .map(|i| {
                (0..s.dim())
                    .map(|t| {
                        let frac = ((i * 7 + t * 3) % 11) as f64 / 10.0;
                        s.mins()[t] + frac * (s.maxs()[t] - s.mins()[t])
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn f32_tier_tracks_reference_within_tolerance() {
        let dbn = trained_dbn();
        let compiled = CompiledDbn::compile(&dbn, CompiledTier::F32).expect("compiles");
        assert_eq!(compiled.tier(), CompiledTier::F32);
        assert_eq!(compiled.input_dim(), dbn.input_dim());
        assert_eq!(compiled.output_dim(), dbn.output_dim());
        let inputs = in_range_inputs(&dbn);
        let tol = compiled.tolerance();
        for scalar in [false, true] {
            let err = max_err(&dbn, &compiled, &inputs, scalar);
            assert!(err <= tol, "scalar={scalar}: err {err} > tolerance {tol}");
        }
    }

    #[test]
    fn int8_tier_tracks_reference_within_tolerance() {
        let dbn = trained_dbn();
        let compiled = CompiledDbn::compile(&dbn, CompiledTier::Int8).expect("compiles");
        let inputs = in_range_inputs(&dbn);
        let tol = compiled.tolerance();
        for scalar in [false, true] {
            let err = max_err(&dbn, &compiled, &inputs, scalar);
            assert!(err <= tol, "scalar={scalar}: err {err} > tolerance {tol}");
        }
    }

    #[test]
    fn out_of_range_inputs_stay_finite() {
        // The clamp is gone: inputs past the fitted range extrapolate
        // linearly instead of saturating. The outputs must still be
        // finite and inside the fitted output range (the output-side
        // clamp survives compilation).
        let dbn = trained_dbn();
        for tier in [CompiledTier::F32, CompiledTier::Int8] {
            let compiled = CompiledDbn::compile(&dbn, tier).expect("compiles");
            let mut scratch = compiled.make_scratch();
            let mut out = Vec::new();
            let wild: Vec<f64> = (0..13)
                .map(|t| if t % 2 == 0 { 1e4 } else { -1e4 })
                .collect();
            compiled
                .forward_into(&wild, &mut scratch, &mut out)
                .expect("forward");
            for (o, &v) in out.iter().enumerate() {
                let (lo, hi) = (dbn.output_scaler().mins()[o], dbn.output_scaler().maxs()[o]);
                assert!(
                    v.is_finite() && v >= lo - 1e-9 && v <= hi + 1e-9,
                    "out[{o}] = {v}"
                );
            }
        }
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let dbn = trained_dbn();
        let compiled = CompiledDbn::compile(&dbn, CompiledTier::F32).expect("compiles");
        let mut scratch = compiled.make_scratch();
        let mut out = Vec::new();
        assert!(compiled
            .forward_into(&[1.0; 4], &mut scratch, &mut out)
            .is_err());
    }

    #[test]
    fn default_scratch_grows_and_matches_presized() {
        let dbn = trained_dbn();
        let compiled = CompiledDbn::compile(&dbn, CompiledTier::F32).expect("compiles");
        let x: Vec<f64> = (0..13).map(|t| t as f64).collect();
        let mut presized = compiled.make_scratch();
        let mut grown = CompiledScratch::default();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        compiled
            .forward_into(&x, &mut presized, &mut a)
            .expect("forward");
        compiled
            .forward_into(&x, &mut grown, &mut b)
            .expect("forward");
        assert_eq!(a, b);
    }

    #[test]
    fn partial_tiles_are_handled() {
        // Hidden widths straddling the 16-lane tile boundary: 5 (one
        // partial tile), 16 (exactly one), 21 (one full + one partial).
        let inputs: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                (0..4)
                    .map(|j| ((i * 4 + j) as f64 * 0.5).sin() * 3.0)
                    .collect()
            })
            .collect();
        let targets: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i as f64 * 0.1).cos().abs()])
            .collect();
        for hidden in [vec![5], vec![16], vec![21, 5]] {
            let cfg = DbnConfig {
                hidden,
                rbm_epochs: 5,
                rbm_lr: 0.1,
                bp_epochs: 10,
                bp_lr: 0.4,
                seed: 3,
            };
            let dbn = Dbn::train_set(
                &TrainingSet::from_rows(&inputs, &targets).expect("rows pack"),
                &cfg,
            )
            .expect("trains");
            let compiled = CompiledDbn::compile(&dbn, CompiledTier::F32).expect("compiles");
            let probe = in_range_inputs(&dbn);
            let err = max_err(&dbn, &compiled, &probe, false);
            assert!(err <= compiled.tolerance(), "hidden shape err {err}");
        }
    }
}
