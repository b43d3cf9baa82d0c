//! Regulator efficiency curves (paper Fig. 5).
//!
//! The dual-channel node routes migrated energy through an *input*
//! regulator when charging a supercapacitor and an *output* regulator
//! when discharging one. Both efficiencies depend on the capacitor-side
//! voltage: boost/buck conversion from/to the supply rail is inefficient
//! when the capacitor sits near its cut-off voltage and improves towards
//! the fully-charged voltage. The paper obtained `η_chr(V)` and
//! `η_dis(V)` by fitting bench measurements; here they are parametric
//! piecewise-linear fits whose default knots were calibrated so the
//! Table 2 migration-efficiency orderings hold (see `migration.rs`).

use helio_common::math::lerp_table;
use helio_common::units::Volts;
use serde::{Deserialize, Serialize};

use crate::error::StorageError;

/// Knot voltages of both default curves.
const KNOT_VOLTAGES: [f64; 10] = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0];
/// Efficiencies of [`RegulatorCurve::default_charge`] at [`KNOT_VOLTAGES`].
const CHARGE_EFFICIENCIES: [f64; 10] =
    [0.52, 0.60, 0.68, 0.75, 0.79, 0.82, 0.82, 0.845, 0.86, 0.87];
/// Efficiencies of [`RegulatorCurve::default_discharge`] at [`KNOT_VOLTAGES`].
const DISCHARGE_EFFICIENCIES: [f64; 10] = [
    0.46, 0.55, 0.66, 0.75, 0.80, 0.83, 0.83, 0.855, 0.875, 0.885,
];

/// A voltage-dependent efficiency curve stored as piecewise-linear knots.
///
/// Queries clamp outside the knot range. Efficiencies are fractions in
/// `(0, 1]`.
///
/// # Example
///
/// ```
/// use helio_common::units::Volts;
/// use helio_storage::RegulatorCurve;
///
/// let chr = RegulatorCurve::default_charge();
/// // Fig. 5 shape: efficiency improves with capacitor voltage.
/// assert!(chr.efficiency(Volts::new(4.5)) > chr.efficiency(Volts::new(1.2)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegulatorCurve {
    voltages: Vec<f64>,
    efficiencies: Vec<f64>,
}

impl RegulatorCurve {
    /// Builds a curve from `(voltage, efficiency)` knots, e.g. from
    /// external calibration data.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidParams`] when the knot array is
    /// empty, is not strictly increasing in voltage, or contains
    /// non-finite voltages or efficiencies outside `(0, 1]`.
    pub fn try_from_knots(knots: &[(f64, f64)]) -> Result<Self, StorageError> {
        if knots.is_empty() {
            return Err(StorageError::InvalidParams(
                "regulator curve needs knots".into(),
            ));
        }
        if knots.iter().any(|&(v, _)| !v.is_finite()) {
            return Err(StorageError::InvalidParams(
                "knot voltages must be finite".into(),
            ));
        }
        if !knots.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(StorageError::InvalidParams(
                "knot voltages must be strictly increasing".into(),
            ));
        }
        if !knots.iter().all(|&(_, e)| e > 0.0 && e <= 1.0) {
            return Err(StorageError::InvalidParams(
                "efficiencies must lie in (0, 1]".into(),
            ));
        }
        Ok(Self {
            voltages: knots.iter().map(|k| k.0).collect(),
            efficiencies: knots.iter().map(|k| k.1).collect(),
        })
    }

    /// Default *input* (charging) regulator fit, `η_chr(V)`.
    ///
    /// Calibrated against the paper's Fig. 5 shape: ~0.5 near the cut-off
    /// voltage, saturating around 0.78 near full charge.
    pub fn default_charge() -> Self {
        Self {
            voltages: KNOT_VOLTAGES.to_vec(),
            efficiencies: CHARGE_EFFICIENCIES.to_vec(),
        }
    }

    /// Default *output* (discharging) regulator fit, `η_dis(V)`.
    ///
    /// Slightly better than the input path at high voltage (the output
    /// regulator bucks down from a charged capacitor), slightly worse
    /// near cut-off.
    pub fn default_discharge() -> Self {
        Self {
            voltages: KNOT_VOLTAGES.to_vec(),
            efficiencies: DISCHARGE_EFFICIENCIES.to_vec(),
        }
    }

    /// Efficiency at a capacitor voltage.
    pub fn efficiency(&self, v: Volts) -> f64 {
        lerp_table(&self.voltages, &self.efficiencies, v.value())
    }

    /// The voltage knots (for plotting Fig. 5).
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// The efficiency knots (for plotting Fig. 5).
    pub fn efficiencies(&self) -> &[f64] {
        &self.efficiencies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_curves_are_monotone_increasing() {
        for curve in [
            RegulatorCurve::default_charge(),
            RegulatorCurve::default_discharge(),
        ] {
            let effs: Vec<f64> = (0..=45)
                .map(|i| curve.efficiency(Volts::new(0.5 + 0.1 * i as f64)))
                .collect();
            assert!(
                effs.windows(2).all(|w| w[1] >= w[0] - 1e-12),
                "efficiency must be nondecreasing in voltage"
            );
        }
    }

    #[test]
    fn curves_stay_in_unit_interval() {
        let chr = RegulatorCurve::default_charge();
        for i in 0..100 {
            let e = chr.efficiency(Volts::new(0.1 * i as f64));
            assert!(e > 0.0 && e <= 1.0, "η={e} out of range");
        }
    }

    #[test]
    fn queries_clamp_outside_knots() {
        let chr = RegulatorCurve::default_charge();
        assert_eq!(chr.efficiency(Volts::new(0.0)), 0.52);
        assert_eq!(chr.efficiency(Volts::new(9.0)), 0.87);
    }

    #[test]
    fn interpolates_between_knots() {
        let c = RegulatorCurve::try_from_knots(&[(1.0, 0.5), (2.0, 0.7)]).unwrap();
        assert!((c.efficiency(Volts::new(1.5)) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn default_curves_are_valid_knots() {
        for (effs, curve) in [
            (CHARGE_EFFICIENCIES, RegulatorCurve::default_charge()),
            (DISCHARGE_EFFICIENCIES, RegulatorCurve::default_discharge()),
        ] {
            let knots: Vec<(f64, f64)> = KNOT_VOLTAGES.into_iter().zip(effs).collect();
            assert_eq!(RegulatorCurve::try_from_knots(&knots).unwrap(), curve);
        }
    }

    #[test]
    fn rejects_unsorted_knots() {
        let err = RegulatorCurve::try_from_knots(&[(2.0, 0.5), (1.0, 0.7)]).unwrap_err();
        assert!(err.to_string().contains("strictly increasing"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_efficiency() {
        let err = RegulatorCurve::try_from_knots(&[(1.0, 0.0)]).unwrap_err();
        assert!(err.to_string().contains("(0, 1]"), "{err}");
    }

    #[test]
    fn knot_accessors_expose_fig5_series() {
        let chr = RegulatorCurve::default_charge();
        assert_eq!(chr.voltages().len(), chr.efficiencies().len());
        assert!(chr.voltages().len() >= 5);
    }
}
