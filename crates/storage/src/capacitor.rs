//! Supercapacitor voltage dynamics (paper Eqs. 1–3 and 11).
//!
//! A [`SuperCap`] is the immutable description of one physical capacitor
//! (capacitance and voltage window); a [`CapState`] is its mutable
//! voltage. The slot-update rule follows Eq. (1): within one slot the
//! efficiency and leakage functions are evaluated at the
//! beginning-of-slot voltage, then the stored energy `½·C·V²` is
//! advanced.

use helio_common::units::{Farads, Joules, Seconds, Volts};
use serde::{Deserialize, Serialize};

use crate::error::StorageError;
use crate::params::StorageModelParams;

/// One physical supercapacitor of the distributed bank.
///
/// # Example
///
/// ```
/// use helio_common::units::{Farads, Joules, Seconds};
/// use helio_storage::{StorageModelParams, SuperCap};
///
/// # fn main() -> Result<(), helio_storage::StorageError> {
/// let params = StorageModelParams::default();
/// let cap = SuperCap::new(Farads::new(10.0), &params)?;
/// let mut state = cap.empty_state();
///
/// // Offer 5 J over one minute; some of it sticks (post regulator+cycle).
/// let absorbed = cap.charge(&mut state, &params, Joules::new(5.0));
/// assert!(absorbed.value() > 0.0);
/// assert!(state.voltage() > cap.v_cutoff());
///
/// // Draw it back out; conversion losses mean we get less than we stored.
/// let delivered = cap.discharge(&mut state, &params, Joules::new(5.0));
/// assert!(delivered < absorbed);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SuperCap {
    capacitance: Farads,
    v_full: Volts,
    v_cutoff: Volts,
    cycle_efficiency: f64,
}

impl SuperCap {
    /// Creates a capacitor of the given size under a parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidCapacitance`] for non-positive or
    /// non-finite sizes and propagates parameter-validation failures.
    pub fn new(capacitance: Farads, params: &StorageModelParams) -> Result<Self, StorageError> {
        if capacitance.value() <= 0.0 || !capacitance.is_finite() {
            return Err(StorageError::InvalidCapacitance(capacitance.value()));
        }
        params.validate()?;
        Ok(Self {
            capacitance,
            v_full: params.v_full,
            v_cutoff: params.v_cutoff,
            cycle_efficiency: params.cycle_efficiency(capacitance),
        })
    }

    /// Capacitance `C_h`.
    pub const fn capacitance(&self) -> Farads {
        self.capacitance
    }

    /// Fully-charged voltage `V_H`.
    pub const fn v_full(&self) -> Volts {
        self.v_full
    }

    /// Cut-off voltage `V_L`.
    pub const fn v_cutoff(&self) -> Volts {
        self.v_cutoff
    }

    /// Cycle efficiency `η_cycle(C)` baked in at construction.
    pub const fn cycle_efficiency(&self) -> f64 {
        self.cycle_efficiency
    }

    /// Usable capacity: `½·C·(V_H² − V_L²)`.
    pub fn usable_capacity(&self) -> Joules {
        self.capacitance.energy_between(self.v_full, self.v_cutoff)
    }

    /// State with the capacitor drained to its cut-off voltage.
    pub fn empty_state(&self) -> CapState {
        CapState {
            voltage: self.v_cutoff,
        }
    }

    /// State with the capacitor fully charged.
    pub fn full_state(&self) -> CapState {
        CapState {
            voltage: self.v_full,
        }
    }

    /// State at an arbitrary voltage, clamped into `[0, V_H]`.
    pub fn state_at(&self, voltage: Volts) -> CapState {
        CapState {
            voltage: voltage.clamp(Volts::ZERO, self.v_full),
        }
    }

    /// Applies leakage over `dt` at the beginning-of-slot voltage,
    /// returning the energy lost. Leakage can pull the voltage below the
    /// cut-off (the stored energy is physically still there, just
    /// unreachable by the output regulator) but never below zero.
    pub fn leak(&self, state: &mut CapState, params: &StorageModelParams, dt: Seconds) -> Joules {
        let p_leak = params.leakage_power(self.capacitance, state.voltage);
        let loss = Joules::new(p_leak * dt.value());
        let stored = self.capacitance.stored_energy(state.voltage);
        let actual = loss.min(stored);
        state.voltage = self.capacitance.voltage_for_energy(stored - actual);
        actual
    }

    /// Charges the capacitor with up to `offered` joules of *source-side*
    /// energy (e.g. surplus solar in a slot), returning the energy
    /// actually drawn from the source.
    ///
    /// The stored energy grows by `drawn · η_chr(V) · η_cycle` (Eq. 3,
    /// `ΔE > 0` branch); charging stops at `V_H`. Efficiency is evaluated
    /// at the beginning-of-slot voltage per Eq. (1).
    pub fn charge(
        &self,
        state: &mut CapState,
        params: &StorageModelParams,
        offered: Joules,
    ) -> Joules {
        if offered.value() <= 0.0 || state.voltage >= self.v_full {
            return Joules::ZERO;
        }
        let eta = params.charge_curve.efficiency(state.voltage) * self.cycle_efficiency;
        // A degenerate efficiency (zero, negative or NaN from corrupted
        // calibration) means the channel cannot move energy — refuse
        // the transfer instead of poisoning the voltage state.
        if !(eta > 0.0 && eta <= 1.0) {
            return Joules::ZERO;
        }
        let headroom = self
            .capacitance
            .energy_between(self.v_full, state.voltage)
            .max(Joules::ZERO);
        let max_drawn = headroom / eta;
        let drawn = offered.min(Joules::new(max_drawn.value()));
        let stored = self.capacitance.stored_energy(state.voltage) + drawn * eta;
        state.voltage = self.capacitance.voltage_for_energy(stored).min(self.v_full);
        drawn
    }

    /// Discharges the capacitor to deliver up to `demanded` joules to the
    /// load, returning the energy actually delivered.
    ///
    /// The stored energy shrinks by `delivered / (η_dis(V) · η_cycle)`
    /// (Eq. 3, `ΔE < 0` branch); discharge stops at the cut-off voltage
    /// `V_L`. Efficiency is evaluated at the beginning-of-slot voltage.
    pub fn discharge(
        &self,
        state: &mut CapState,
        params: &StorageModelParams,
        demanded: Joules,
    ) -> Joules {
        if demanded.value() <= 0.0 || state.voltage <= self.v_cutoff {
            return Joules::ZERO;
        }
        let eta = params.discharge_curve.efficiency(state.voltage) * self.cycle_efficiency;
        // Degenerate efficiency: the channel cannot deliver — see
        // `charge` above.
        if !(eta > 0.0 && eta <= 1.0) {
            return Joules::ZERO;
        }
        let usable = self
            .capacitance
            .energy_between(state.voltage, self.v_cutoff)
            .max(Joules::ZERO);
        let max_delivered = usable * eta;
        let delivered = demanded.min(max_delivered);
        let stored = self.capacitance.stored_energy(state.voltage) - delivered / eta;
        state.voltage = state
            .voltage
            .min(self.capacitance.voltage_for_energy(stored))
            .max(self.v_cutoff);
        delivered
    }

    /// Maximum energy deliverable to the load from the current state in a
    /// single withdrawal (Eq. 14's usable-energy bound, post conversion).
    pub fn deliverable(&self, state: &CapState, params: &StorageModelParams) -> Joules {
        if state.voltage <= self.v_cutoff {
            return Joules::ZERO;
        }
        let eta = params.discharge_curve.efficiency(state.voltage) * self.cycle_efficiency;
        (self
            .capacitance
            .energy_between(state.voltage, self.v_cutoff)
            .max(Joules::ZERO))
            * eta
    }
}

/// The mutable state of a supercapacitor: its terminal voltage.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct CapState {
    voltage: Volts,
}

impl CapState {
    /// Current terminal voltage `V^sc`.
    pub const fn voltage(&self) -> Volts {
        self.voltage
    }

    /// Total stored energy `½·C·V²` for the owning capacitor.
    pub fn stored_energy(&self, cap: &SuperCap) -> Joules {
        cap.capacitance().stored_energy(self.voltage)
    }

    /// Energy above the cut-off voltage, `½·C·(V² − V_L²)`, clamped at
    /// zero (the left side of Eq. 22's switching test).
    pub fn energy_above_cutoff(&self, cap: &SuperCap) -> Joules {
        cap.capacitance()
            .energy_between(self.voltage, cap.v_cutoff())
            .max(Joules::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(c: f64) -> (SuperCap, StorageModelParams) {
        let params = StorageModelParams::default();
        (SuperCap::new(Farads::new(c), &params).unwrap(), params)
    }

    #[test]
    fn rejects_bad_capacitance() {
        let params = StorageModelParams::default();
        assert!(SuperCap::new(Farads::new(0.0), &params).is_err());
        assert!(SuperCap::new(Farads::new(-1.0), &params).is_err());
        assert!(SuperCap::new(Farads::new(f64::NAN), &params).is_err());
    }

    #[test]
    fn usable_capacity_matches_formula() {
        let (cap, _) = setup(10.0);
        assert!((cap.usable_capacity().value() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn charge_respects_v_full() {
        let (cap, params) = setup(1.0);
        let mut state = cap.empty_state();
        // Offer far more than the capacitor can hold.
        let drawn = cap.charge(&mut state, &params, Joules::new(1000.0));
        assert!((state.voltage().value() - 5.0).abs() < 1e-9);
        // Drawn exceeds stored because of conversion losses.
        assert!(drawn.value() > cap.usable_capacity().value());
        // Further charging draws nothing.
        assert_eq!(
            cap.charge(&mut state, &params, Joules::new(1.0)),
            Joules::ZERO
        );
    }

    #[test]
    fn discharge_respects_cutoff() {
        let (cap, params) = setup(1.0);
        let mut state = cap.full_state();
        let delivered = cap.discharge(&mut state, &params, Joules::new(1000.0));
        assert!((state.voltage().value() - 1.0).abs() < 1e-9);
        // Delivered is below the usable window because of losses.
        assert!(delivered < cap.usable_capacity());
        assert!(delivered.value() > 0.0);
        assert_eq!(
            cap.discharge(&mut state, &params, Joules::new(1.0)),
            Joules::ZERO
        );
    }

    #[test]
    fn round_trip_efficiency_below_one_and_voltage_dependent() {
        let (cap, params) = setup(10.0);
        // Round trip near the cut-off voltage.
        let mut low = cap.empty_state();
        let in_low = cap.charge(&mut low, &params, Joules::new(5.0));
        let out_low = cap.discharge(&mut low, &params, Joules::new(100.0));
        let eff_low = out_low / in_low;
        // Round trip starting from a 60 %-charged capacitor.
        let mut high = cap.state_at(Volts::new(4.0));
        let before = high.stored_energy(&cap);
        let in_high = cap.charge(&mut high, &params, Joules::new(5.0));
        let stored_now = high.stored_energy(&cap) - before;
        let eta_out = params.discharge_curve.efficiency(high.voltage()) * cap.cycle_efficiency();
        let eff_high = (stored_now.value() * eta_out) / in_high.value();
        assert!(eff_low < 1.0 && eff_high < 1.0);
        assert!(
            eff_high > eff_low,
            "high-voltage operation must be more efficient ({eff_high} vs {eff_low})"
        );
    }

    #[test]
    fn leak_reduces_voltage_and_reports_loss() {
        let (cap, params) = setup(1.0);
        let mut state = cap.full_state();
        let before = state.stored_energy(&cap);
        let lost = cap.leak(&mut state, &params, Seconds::from_minutes(400.0));
        let after = state.stored_energy(&cap);
        assert!((before - after - lost).abs() < Joules::new(1e-9));
        assert!(
            lost.value() > 1.0,
            "a full 1 F cap must leak > 1 J over 400 min, got {lost}"
        );
        assert!(state.voltage() < cap.v_full());
    }

    #[test]
    fn leak_can_cross_cutoff_but_not_zero() {
        let params = StorageModelParams::default().with_leakage_scale(1e6);
        let cap = SuperCap::new(Farads::new(1.0), &params).unwrap();
        let mut state = cap.state_at(Volts::new(1.2));
        cap.leak(&mut state, &params, Seconds::from_hours(100.0));
        assert!(state.voltage() >= Volts::ZERO);
        assert!(state.voltage() < cap.v_cutoff());
        // Below cut-off nothing can be delivered.
        assert_eq!(cap.deliverable(&state, &params), Joules::ZERO);
    }

    #[test]
    fn partial_discharge_conserves_energy_accounting() {
        let (cap, params) = setup(10.0);
        let mut state = cap.state_at(Volts::new(4.0));
        let before = state.stored_energy(&cap);
        let delivered = cap.discharge(&mut state, &params, Joules::new(2.0));
        assert!((delivered.value() - 2.0).abs() < 1e-9);
        let after = state.stored_energy(&cap);
        let eta = params.discharge_curve.efficiency(Volts::new(4.0)) * cap.cycle_efficiency();
        assert!(((before - after).value() - 2.0 / eta).abs() < 1e-9);
    }

    #[test]
    fn deliverable_matches_discharge_limit() {
        let (cap, params) = setup(10.0);
        let state = cap.state_at(Volts::new(3.0));
        let deliverable = cap.deliverable(&state, &params);
        let mut s = state;
        let delivered = cap.discharge(&mut s, &params, Joules::new(1e9));
        assert!((deliverable - delivered).abs() < Joules::new(1e-9));
    }

    #[test]
    fn state_at_clamps() {
        let (cap, _) = setup(1.0);
        assert_eq!(cap.state_at(Volts::new(9.0)).voltage(), cap.v_full());
        assert_eq!(cap.state_at(Volts::new(-2.0)).voltage(), Volts::ZERO);
    }
}
