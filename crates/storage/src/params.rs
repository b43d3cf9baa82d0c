//! Calibration parameters of the storage model.

use helio_common::units::{Farads, Volts};
use serde::{Deserialize, Serialize};

use crate::error::StorageError;
use crate::regulator::RegulatorCurve;

/// Calibration parameters shared by every supercapacitor in the node.
///
/// Defaults are tuned so that the migration experiment reproduces the
/// qualitative structure of the paper's Table 2 (see
/// `migration::tests`): the best capacitor size moves from 1 F at
/// (7 J, 60 min) to 10 F at (30 J, 400 min), with an efficiency spread of
/// roughly 30 % across sizes.
///
/// Construct with [`StorageModelParams::default`] and customise through
/// the builder-style `with_*` methods:
///
/// ```
/// use helio_storage::StorageModelParams;
///
/// let params = StorageModelParams::default().with_cycle_efficiency(0.95);
/// assert!((params.cycle_efficiency_base - 0.95).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageModelParams {
    /// Fully-charged voltage `V_H` shared by all capacitors (V).
    pub v_full: Volts,
    /// Cut-off voltage `V_L` below which the output regulator stops (V).
    pub v_cutoff: Volts,
    /// Input-regulator efficiency fit `η_chr(V)`.
    pub charge_curve: RegulatorCurve,
    /// Output-regulator efficiency fit `η_dis(V)`.
    pub discharge_curve: RegulatorCurve,
    /// Voltage-independent component of the per-farad leakage current
    /// (A/F).
    pub leak_base_per_farad: f64,
    /// Voltage-dependent component of the per-farad leakage current at
    /// `V = v_full` (A/F); scales as `(V / V_H)^leak_exponent`.
    pub leak_scale_per_farad: f64,
    /// Exponent of the voltage dependence of leakage.
    pub leak_exponent: f64,
    /// Cycle efficiency `η_cycle` of a 1 F capacitor; larger capacitances
    /// are marginally better (lower equivalent series resistance per
    /// stored joule): `η_cycle(C) = base + span·(1 − C^-cycle_shape)`.
    pub cycle_efficiency_base: f64,
    /// Additional cycle efficiency reached asymptotically by large
    /// capacitors.
    pub cycle_efficiency_span: f64,
    /// Shape of the capacitance dependence of the cycle efficiency.
    pub cycle_shape: f64,
}

impl Default for StorageModelParams {
    fn default() -> Self {
        Self {
            v_full: Volts::new(5.0),
            v_cutoff: Volts::new(1.0),
            charge_curve: RegulatorCurve::default_charge(),
            discharge_curve: RegulatorCurve::default_discharge(),
            // Calibrated against Table 2: a 1 F capacitor held fully
            // charged leaks ~0.8 mW, draining ~10 J over 400 minutes,
            // while a 100 F capacitor near cut-off leaks ~0.1 mW.
            leak_base_per_farad: 0.8e-6,
            leak_scale_per_farad: 160.0e-6,
            leak_exponent: 4.0,
            cycle_efficiency_base: 0.92,
            cycle_efficiency_span: 0.03,
            cycle_shape: 0.5,
        }
    }
}

impl StorageModelParams {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidParams`] when the voltage window is
    /// empty, any leakage coefficient is negative, or the cycle
    /// efficiency leaves `(0, 1]`.
    pub fn validate(&self) -> Result<(), StorageError> {
        if !(self.v_cutoff.value() >= 0.0 && self.v_cutoff < self.v_full) {
            return Err(StorageError::InvalidParams(format!(
                "voltage window must satisfy 0 <= V_L < V_H (got {} .. {})",
                self.v_cutoff, self.v_full
            )));
        }
        if self.leak_base_per_farad < 0.0
            || self.leak_scale_per_farad < 0.0
            || self.leak_exponent < 0.0
        {
            return Err(StorageError::InvalidParams(
                "leakage coefficients must be nonnegative".into(),
            ));
        }
        let max_cycle = self.cycle_efficiency_base + self.cycle_efficiency_span;
        if !(self.cycle_efficiency_base > 0.0 && max_cycle <= 1.0) {
            return Err(StorageError::InvalidParams(format!(
                "cycle efficiency must lie in (0, 1] (base {} span {})",
                self.cycle_efficiency_base, self.cycle_efficiency_span
            )));
        }
        Ok(())
    }

    /// Leakage current of a capacitor of size `c` at voltage `v` (A),
    /// after Brunelli et al.: grows with capacitance and superlinearly
    /// with voltage.
    ///
    /// The calibrated exponent 4 mostly takes a fast path that returns
    /// the same bits as `ratio.powf(4.0)` (see `pow4`).
    pub fn leakage_current(&self, c: Farads, v: Volts) -> f64 {
        let ratio = (v.value() / self.v_full.value()).max(0.0);
        let scaled = if self.leak_exponent == 4.0 {
            pow4(ratio)
        } else {
            None
        }
        .unwrap_or_else(|| ratio.powf(self.leak_exponent));
        c.value() * (self.leak_base_per_farad + self.leak_scale_per_farad * scaled)
    }

    /// Leakage power `P_leak(V)` of a capacitor of size `c` at voltage
    /// `v` (W).
    pub fn leakage_power(&self, c: Farads, v: Volts) -> f64 {
        self.leakage_current(c, v) * v.value()
    }

    /// Average cycle efficiency `η_cycle(C)`.
    pub fn cycle_efficiency(&self, c: Farads) -> f64 {
        let base = self.cycle_efficiency_base;
        let span = self.cycle_efficiency_span;
        base + span * (1.0 - c.value().max(1e-6).powf(-self.cycle_shape))
    }

    /// Returns a copy with a different base cycle efficiency.
    #[must_use]
    pub fn with_cycle_efficiency(mut self, base: f64) -> Self {
        self.cycle_efficiency_base = base;
        self
    }

    /// Returns a copy with scaled leakage coefficients (`1.0` keeps the
    /// calibration; `0.0` disables leakage — useful in tests).
    #[must_use]
    pub fn with_leakage_scale(mut self, scale: f64) -> Self {
        self.leak_base_per_farad *= scale;
        self.leak_scale_per_farad *= scale;
        self
    }

    /// Returns a copy with a different voltage window.
    #[must_use]
    pub fn with_voltage_window(mut self, v_cutoff: Volts, v_full: Volts) -> Self {
        self.v_cutoff = v_cutoff;
        self.v_full = v_full;
        self
    }
}

/// `x⁴`, bit-identical to `x.powf(4.0)` (glibc's `pow`), when that can
/// be proven without the libm call; `None` sends the caller to `powf`.
///
/// For a normal `x` in `(1e-60, 1e60)` the exact `x⁴` is formed as a
/// double-double: `x² = s + e` exactly (Dekker's product over a
/// Veltkamp split), then `s² = q + f` exactly, and the remaining terms
/// of `(s + e)² = q + f + 2se + e²` — all below `2⁻¹⁰⁴·q` in error —
/// give the tail. `r = q + tail` is the rounded result and
/// `d = (q − r) + tail` its exact residual (a fast two-sum:
/// `|tail| ≪ |q|`).
///
/// Why returning `r` matches `pow`: when `|d| ≤ 0.44·ulp(r)` and `r` is
/// not a power of two (so both neighbours of `r` sit one ulp away), the
/// exact `x⁴` lies more than `0.56·ulp` from every other double. glibc's
/// `pow` (since 2.28) documents a worst-case error of 0.54 ulp, so it
/// cannot return any double but `r`. Otherwise — near a rounding
/// midpoint, at a binade edge, or outside the range — it returns
/// `None`, as it does for subnormal and non-finite inputs.
///
/// `±0` (a drained capacitor) and `1` (a full one) are answered before
/// any of that: C99 Annex F fixes `pow(±0, 4) = +0` and `pow(1, y) = 1`
/// for every conforming `pow`.
fn pow4(x: f64) -> Option<f64> {
    if x == 0.0 {
        return Some(0.0);
    }
    if x == 1.0 {
        return Some(1.0);
    }
    if !(x > 1e-60 && x < 1e60) {
        return None;
    }
    let (s, e) = exact_square(x);
    let (q, f) = exact_square(s);
    let tail = f + 2.0 * s * e + e * e;
    let r = q + tail;
    let d = (q - r) + tail;
    const MANTISSA: u64 = (1 << 52) - 1;
    let bits = r.to_bits();
    // ulp(r) of a positive normal double: 2^(exponent − 52).
    let ulp = f64::from_bits(bits & !MANTISSA) * f64::EPSILON;
    (bits & MANTISSA != 0 && d.abs() <= 0.44 * ulp).then_some(r)
}

/// `x² = hi + lo` exactly (Dekker's product; `x` must be small enough
/// that the Veltkamp split `(2²⁷ + 1)·x` does not overflow).
fn exact_square(x: f64) -> (f64, f64) {
    const SPLIT: f64 = 134_217_729.0; // 2^27 + 1
    let c = SPLIT * x;
    let xh = c - (c - x);
    let xl = x - xh;
    let hi = x * x;
    let lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl;
    (hi, lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_validate() {
        StorageModelParams::default().validate().unwrap();
    }

    #[test]
    fn rejects_inverted_voltage_window() {
        let p = StorageModelParams::default().with_voltage_window(Volts::new(5.0), Volts::new(1.0));
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_bad_cycle_efficiency() {
        let p = StorageModelParams::default().with_cycle_efficiency(0.0);
        assert!(p.validate().is_err());
        let p = StorageModelParams::default().with_cycle_efficiency(0.99);
        assert!(p.validate().is_err(), "base+span exceeds 1");
    }

    #[test]
    fn leakage_grows_with_voltage_and_capacitance() {
        let p = StorageModelParams::default();
        let c1 = Farads::new(1.0);
        let c100 = Farads::new(100.0);
        let low = p.leakage_power(c1, Volts::new(1.5));
        let high = p.leakage_power(c1, Volts::new(4.5));
        assert!(
            high > 5.0 * low,
            "leakage must be strongly superlinear in V"
        );
        assert!(
            p.leakage_power(c100, Volts::new(1.5)) > 50.0 * low,
            "leakage must scale with capacitance"
        );
    }

    #[test]
    fn fully_charged_1f_leaks_fractions_of_milliwatt() {
        let p = StorageModelParams::default();
        let mw = p.leakage_power(Farads::new(1.0), Volts::new(5.0)) * 1e3;
        assert!(mw > 0.2 && mw < 1.0, "got {mw} mW");
    }

    #[test]
    fn cycle_efficiency_improves_with_size_but_bounded() {
        let p = StorageModelParams::default();
        let e1 = p.cycle_efficiency(Farads::new(1.0));
        let e100 = p.cycle_efficiency(Farads::new(100.0));
        assert!(e100 > e1);
        assert!(e100 <= p.cycle_efficiency_base + p.cycle_efficiency_span + 1e-12);
        assert!((e1 - p.cycle_efficiency_base).abs() < 1e-12);
    }

    #[test]
    fn leakage_scale_zero_disables_leakage() {
        let p = StorageModelParams::default().with_leakage_scale(0.0);
        assert_eq!(p.leakage_power(Farads::new(50.0), Volts::new(5.0)), 0.0);
    }

    /// `x.powf(4.0)` with the exponent hidden from the optimiser, so
    /// the reference is always the libm call.
    fn libm_pow4(x: f64) -> f64 {
        x.powf(std::hint::black_box(4.0))
    }

    /// Inputs whose exact fourth power lies within 0.05 ulp of a
    /// rounding midpoint (found by an exact rational search over the
    /// test's input distributions; each comment is the exact value's
    /// offset above the double below it); the fast path must refuse
    /// each.
    const NEAR_MIDPOINT: [u64; 48] = [
        0x3fdfaf26df32dac6, // 0.5293 ulp
        0x3f646be0ee9ca8b4, // 0.4904 ulp
        0x3fd279314d02c824, // 0.5387 ulp
        0x3fab9480c477816e, // 0.4605 ulp
        0x3fd2f895ae7f2736, // 0.5076 ulp
        0x3ee2f2d83633a818, // 0.5453 ulp
        0x3fec90e1b07d3e0e, // 0.5227 ulp
        0x3fd9160f2443d93d, // 0.4657 ulp
        0x3fe1cf529ccf3484, // 0.5151 ulp
        0x3f902896b890c3fc, // 0.4664 ulp
        0x3fde62da9ee707c2, // 0.5350 ulp
        0x3fa0e53ddcd91133, // 0.5206 ulp
        0x3fe06f944d25c5f6, // 0.5283 ulp
        0x3f4ce2f5312ced88, // 0.4715 ulp
        0x3fde8f0b5228388c, // 0.4529 ulp
        0x3f7cfebc6a3dbed3, // 0.4716 ulp
        0x3fddf9827fb134a4, // 0.4706 ulp
        0x3ec9c783852058cb, // 0.5450 ulp
        0x3fd9a099a8cf6b10, // 0.4729 ulp
        0x3ed8ee96ab8a2293, // 0.4709 ulp
        0x3fdae7852216927c, // 0.5220 ulp
        0x3f25f72b82b60ef8, // 0.4559 ulp
        0x3fd55554c3222c9c, // 0.4625 ulp
        0x3fe5b157e84b6143, // 0.4539 ulp
        0x3fbd6c8238f32370, // 0.5317 ulp
        0x3fc79cd977e93bc1, // 0.5084 ulp
        0x3feb82db27e3c8e7, // 0.5434 ulp
        0x3fa9f7459df90189, // 0.5390 ulp
        0x3fd814d746631604, // 0.4614 ulp
        0x3fd8ef1a5a64d854, // 0.4573 ulp
        0x3fed7133f08623a8, // 0.5407 ulp
        0x3f3f9821e6bfbf85, // 0.4941 ulp
        0x3feee14765088067, // 0.4839 ulp
        0x3fe87d9cbdc6b0f7, // 0.5138 ulp
        0x3fba86ac4a933ed0, // 0.4606 ulp
        0x3feea98df375829f, // 0.4686 ulp
        0x3fe4a0be9e90059c, // 0.5088 ulp
        0x3fbf42954c702dbe, // 0.5030 ulp
        0x3fe16bce3a3dea33, // 0.4618 ulp
        0x3eb7a67f9da975e7, // 0.5120 ulp
        0x3fceefb2aa9ded04, // 0.4531 ulp
        0x3f078c8af34ea789, // 0.4669 ulp
        0x3fdafb4cf05839d2, // 0.4519 ulp
        0x3fed876df24fc983, // 0.5479 ulp
        0x3fe371ce14315412, // 0.4692 ulp
        0x3ebdfd8f3cb50aba, // 0.4564 ulp
        0x3fee0c64e06845a9, // 0.5388 ulp
        0x3eda19bcbca9cf7e, // 0.4602 ulp
    ];

    #[test]
    fn near_midpoint_inputs_take_the_fallback() {
        let p = StorageModelParams::default();
        for bits in NEAR_MIDPOINT {
            let x = f64::from_bits(bits);
            assert_eq!(pow4(x), None, "{x:e} must fall back to powf");
            let v = Volts::new(x * p.v_full.value());
            let ratio = (v.value() / p.v_full.value()).max(0.0);
            let want = 2.0 * (p.leak_base_per_farad + p.leak_scale_per_farad * libm_pow4(ratio));
            assert_eq!(
                p.leakage_current(Farads::new(2.0), v).to_bits(),
                want.to_bits()
            );
        }
    }

    #[test]
    fn edge_inputs_fall_back_or_match() {
        // Annex F values: both signs of zero give +0, one gives one.
        for x in [0.0, -0.0, 1.0] {
            let y = pow4(x).unwrap_or_else(|| panic!("{x:e} must be answered"));
            assert_eq!(y.to_bits(), libm_pow4(x).to_bits(), "{x:e}");
        }
        for x in [
            1e-310,
            f64::MIN_POSITIVE,
            1e-61,
            1e61,
            f64::INFINITY,
            f64::NAN,
        ] {
            assert_eq!(pow4(x), None, "{x:e}");
        }
        // Other powers of two are exact but sit on a binade edge:
        // refused.
        for x in [0.5, 2.0, 0.25] {
            assert_eq!(pow4(x), None, "{x:e}");
        }
        // Another exponent never takes the fast path.
        let p = StorageModelParams {
            leak_exponent: 3.5,
            ..StorageModelParams::default()
        };
        let v = Volts::new(3.3);
        let ratio = v.value() / p.v_full.value();
        let want = p.leak_base_per_farad + p.leak_scale_per_farad * ratio.powf(3.5);
        assert_eq!(
            p.leakage_current(Farads::new(1.0), v).to_bits(),
            want.to_bits()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// The fast path is bit-identical to `powf` wherever it answers,
        /// and both branches run: random voltages in `[0, 2·V_H]`,
        /// random bit patterns in `[2⁻²⁰, 2)` and arbitrary doubles.
        #[test]
        fn leakage_matches_powf_bitwise(
            seed in proptest::prelude::any::<u64>(),
            capacitance in 0.1f64..100.0,
        ) {
            let p = StorageModelParams::default();
            let c = Farads::new(capacitance);
            let mut rng = proptest::TestRng::from_name(&seed.to_string());
            let (lo, hi) = (2f64.powi(-20).to_bits(), 2f64.to_bits());
            let (mut fast, mut slow) = (0u32, 0u32);
            for k in 0..30_000 {
                let x = match k % 3 {
                    0 => rng.unit_f64() * 2.0,
                    1 => f64::from_bits(lo + rng.next_u64() % (hi - lo)),
                    _ => f64::from_bits(rng.next_u64()),
                };
                match pow4(x) {
                    Some(y) => {
                        fast += 1;
                        proptest::prop_assert_eq!(y.to_bits(), libm_pow4(x).to_bits(), "x = {:e}", x);
                    }
                    None => slow += 1,
                }
                if k % 3 == 0 {
                    let v = Volts::new(x * p.v_full.value());
                    let ratio = (v.value() / p.v_full.value()).max(0.0);
                    let want = c.value()
                        * (p.leak_base_per_farad + p.leak_scale_per_farad * libm_pow4(ratio));
                    proptest::prop_assert_eq!(p.leakage_current(c, v).to_bits(), want.to_bits());
                }
            }
            proptest::prop_assert!(fast > 10_000 && slow > 1_000, "fast {} slow {}", fast, slow);
        }
    }
}
