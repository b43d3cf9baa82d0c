//! The photovoltaic panel model.

use helio_common::units::Watts;
use serde::{Deserialize, Serialize};

/// A photovoltaic panel converting irradiance (W/m²) into harvested
/// electrical power, including the converter chain of the direct supply
/// channel.
///
/// # Example
///
/// ```
/// use helio_solar::SolarPanel;
///
/// let panel = SolarPanel::paper_panel();
/// // Standard test conditions: 1000 W/m² irradiance.
/// let p = panel.electrical_power(1000.0);
/// assert!((p.milliwatts() - 94.5).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolarPanel {
    area_m2: f64,
    efficiency: f64,
}

impl SolarPanel {
    /// Creates a panel.
    ///
    /// # Panics
    ///
    /// Panics when the area is non-positive or the efficiency leaves
    /// `(0, 1]` — panel definitions are experiment constants.
    pub fn new(area_m2: f64, efficiency: f64) -> Self {
        assert!(
            area_m2 > 0.0 && area_m2.is_finite(),
            "panel area must be positive"
        );
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "panel efficiency must lie in (0, 1]"
        );
        Self {
            area_m2,
            efficiency,
        }
    }

    /// The paper's panel: 3.5 cm × 4.5 cm with 6 % tested average
    /// converting efficiency (Section 6.1).
    pub fn paper_panel() -> Self {
        Self::new(0.035 * 0.045, 0.06)
    }

    /// Panel area in m².
    pub const fn area_m2(&self) -> f64 {
        self.area_m2
    }

    /// Average converting efficiency (fraction).
    pub const fn efficiency(&self) -> f64 {
        self.efficiency
    }

    /// Electrical power harvested at an irradiance of `w_per_m2` W/m².
    /// Negative irradiance (numerical noise in generators) clamps to
    /// zero.
    pub fn electrical_power(&self, w_per_m2: f64) -> Watts {
        Watts::new(w_per_m2.max(0.0) * self.area_m2 * self.efficiency)
    }
}

impl Default for SolarPanel {
    fn default() -> Self {
        Self::paper_panel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_panel_peak_is_about_95_mw() {
        let p = SolarPanel::paper_panel().electrical_power(1000.0);
        assert!((p.milliwatts() - 94.5).abs() < 0.1, "got {p}");
    }

    #[test]
    fn negative_irradiance_clamps() {
        let panel = SolarPanel::paper_panel();
        assert_eq!(panel.electrical_power(-5.0), Watts::ZERO);
    }

    #[test]
    fn power_scales_linearly_with_irradiance() {
        let panel = SolarPanel::paper_panel();
        let half = panel.electrical_power(500.0);
        let full = panel.electrical_power(1000.0);
        assert!((full.value() - 2.0 * half.value()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn rejects_bad_efficiency() {
        SolarPanel::new(0.01, 1.5);
    }

    #[test]
    #[should_panic(expected = "area")]
    fn rejects_bad_area() {
        SolarPanel::new(0.0, 0.1);
    }
}
