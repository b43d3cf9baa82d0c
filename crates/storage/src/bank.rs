//! The distributed capacitor bank managed by the PMU.
//!
//! The node carries `H` supercapacitors of the sizes chosen offline
//! (Section 4.1). At any instant exactly one capacitor is *active* — the
//! store-and-use channel charges into and discharges from it — while all
//! of them leak. The scheduler switches the active capacitor per the
//! Eq. 22 threshold rule.

use helio_common::units::{Farads, Joules, Seconds};
use serde::{Deserialize, Serialize};

use crate::capacitor::{CapState, SuperCap};
use crate::error::StorageError;
use crate::params::StorageModelParams;

/// A bank of `H` distributed supercapacitors with one active at a time.
///
/// # Example
///
/// ```
/// use helio_common::units::{Farads, Joules, Seconds};
/// use helio_storage::{CapacitorBank, StorageModelParams};
///
/// # fn main() -> Result<(), helio_storage::StorageError> {
/// let params = StorageModelParams::default();
/// let mut bank = CapacitorBank::new(
///     &[Farads::new(1.0), Farads::new(10.0), Farads::new(47.0)],
///     &params,
/// )?;
/// bank.set_active(1)?;
/// let absorbed = bank.charge_active(&params, Joules::new(2.0));
/// assert!(absorbed.value() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacitorBank {
    caps: Vec<SuperCap>,
    states: Vec<CapState>,
    active: usize,
}

impl CapacitorBank {
    /// Builds a bank with all capacitors drained to the cut-off voltage;
    /// the first capacitor starts active.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::SizingInput`] for an empty size list and
    /// propagates capacitor-construction failures.
    pub fn new(sizes: &[Farads], params: &StorageModelParams) -> Result<Self, StorageError> {
        if sizes.is_empty() {
            return Err(StorageError::SizingInput(
                "bank needs at least one capacitor".into(),
            ));
        }
        let caps: Vec<SuperCap> = sizes
            .iter()
            .map(|&c| SuperCap::new(c, params))
            .collect::<Result<_, _>>()?;
        let states = caps.iter().map(|c| c.empty_state()).collect();
        Ok(Self {
            caps,
            states,
            active: 0,
        })
    }

    /// A one-capacitor bank holding `cap`, drained to its cut-off
    /// voltage — the bank a single-capacitor what-if runs on.
    pub fn single(cap: SuperCap) -> Self {
        Self {
            states: vec![cap.empty_state()],
            caps: vec![cap],
            active: 0,
        }
    }

    /// Number of capacitors `H`.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// Whether the bank is empty (never true for a constructed bank).
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }

    /// Index of the active capacitor.
    pub const fn active_index(&self) -> usize {
        self.active
    }

    /// The active capacitor.
    pub fn active_cap(&self) -> &SuperCap {
        &self.caps[self.active]
    }

    /// State of the active capacitor.
    pub fn active_state(&self) -> &CapState {
        &self.states[self.active]
    }

    /// Selects the active capacitor.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::CapacitorIndex`] when `index` is out of
    /// range.
    pub fn set_active(&mut self, index: usize) -> Result<(), StorageError> {
        if index >= self.caps.len() {
            return Err(StorageError::CapacitorIndex {
                index,
                len: self.caps.len(),
            });
        }
        self.active = index;
        Ok(())
    }

    /// Overwrites the active capacitor's state.
    pub fn set_active_state(&mut self, state: CapState) {
        self.states[self.active] = state;
    }

    /// The capacitor at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::CapacitorIndex`] when out of range.
    pub fn cap(&self, index: usize) -> Result<&SuperCap, StorageError> {
        self.caps.get(index).ok_or(StorageError::CapacitorIndex {
            index,
            len: self.caps.len(),
        })
    }

    /// The state at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::CapacitorIndex`] when out of range.
    pub fn state(&self, index: usize) -> Result<&CapState, StorageError> {
        self.states.get(index).ok_or(StorageError::CapacitorIndex {
            index,
            len: self.caps.len(),
        })
    }

    /// Iterates over `(capacitor, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&SuperCap, &CapState)> {
        self.caps.iter().zip(self.states.iter())
    }

    /// Charges the active capacitor with up to `offered` source-side
    /// joules; returns the energy drawn.
    pub fn charge_active(&mut self, params: &StorageModelParams, offered: Joules) -> Joules {
        self.caps[self.active].charge(&mut self.states[self.active], params, offered)
    }

    /// Discharges the active capacitor to serve up to `demanded` joules;
    /// returns the energy delivered.
    pub fn discharge_active(&mut self, params: &StorageModelParams, demanded: Joules) -> Joules {
        self.caps[self.active].discharge(&mut self.states[self.active], params, demanded)
    }

    /// Applies leakage to every capacitor over `dt`; returns the total
    /// leaked energy.
    pub fn leak_all(&mut self, params: &StorageModelParams, dt: Seconds) -> Joules {
        let mut total = Joules::ZERO;
        for (cap, state) in self.caps.iter().zip(self.states.iter_mut()) {
            total += cap.leak(state, params, dt);
        }
        total
    }

    /// Energy deliverable from the *active* capacitor.
    pub fn active_deliverable(&self, params: &StorageModelParams) -> Joules {
        self.caps[self.active].deliverable(&self.states[self.active], params)
    }

    /// Total energy stored above cut-off across the bank.
    pub fn total_usable(&self) -> Joules {
        self.iter()
            .map(|(cap, state)| state.energy_above_cutoff(cap))
            .sum()
    }

    /// Snapshot of all voltages (the DBN input `V^sc_{i,j,1}(C_h)`).
    pub fn voltages(&self) -> Vec<f64> {
        self.voltages_iter().collect()
    }

    /// [`CapacitorBank::voltages`] without the allocation — the per-period DBN
    /// feature gather streams straight into its reused input buffer.
    pub fn voltages_iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.states.iter().map(|s| s.voltage().value())
    }

    /// Applies capacitor aging: multiplies every capacitance by
    /// `factor` (e.g. `0.999` for one step of fade), preserving each
    /// capacitor's stored energy — the terminal voltage rises as
    /// `V' = V·√(C/C')`, clamped to the full-charge voltage.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidCapacitance`] when `factor` is
    /// non-positive or non-finite (the bank is left untouched).
    pub fn apply_aging(
        &mut self,
        params: &StorageModelParams,
        factor: f64,
    ) -> Result<(), StorageError> {
        if !(factor > 0.0 && factor.is_finite()) {
            return Err(StorageError::InvalidCapacitance(factor));
        }
        if (factor - 1.0).abs() < 1e-15 {
            return Ok(());
        }
        let mut aged_caps = Vec::with_capacity(self.caps.len());
        let mut aged_states = Vec::with_capacity(self.states.len());
        for (cap, state) in self.caps.iter().zip(self.states.iter()) {
            let new_c = Farads::new(cap.capacitance().value() * factor);
            let aged = SuperCap::new(new_c, params)?;
            let energy = state.stored_energy(cap);
            let v = new_c.voltage_for_energy(energy).min(aged.v_full());
            aged_states.push(aged.state_at(v));
            aged_caps.push(aged);
        }
        self.caps = aged_caps;
        self.states = aged_states;
        Ok(())
    }

    /// Overwrites the state at `index` (used by planners that roll the
    /// bank forward hypothetically and restore).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::CapacitorIndex`] when out of range.
    pub fn set_state(&mut self, index: usize, state: CapState) -> Result<(), StorageError> {
        if index >= self.states.len() {
            return Err(StorageError::CapacitorIndex {
                index,
                len: self.caps.len(),
            });
        }
        self.states[index] = state;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> (CapacitorBank, StorageModelParams) {
        let params = StorageModelParams::default();
        let bank = CapacitorBank::new(
            &[Farads::new(1.0), Farads::new(10.0), Farads::new(47.0)],
            &params,
        )
        .unwrap();
        (bank, params)
    }

    #[test]
    fn construction_and_shape() {
        let (bank, _) = bank();
        assert_eq!(bank.len(), 3);
        assert!(!bank.is_empty());
        assert_eq!(bank.active_index(), 0);
        assert_eq!(bank.voltages(), vec![1.0, 1.0, 1.0]);
        assert_eq!(bank.total_usable(), Joules::ZERO);
    }

    #[test]
    fn single_matches_a_one_size_bank() {
        let params = StorageModelParams::default();
        let cap = SuperCap::new(Farads::new(10.0), &params).unwrap();
        let mut single = CapacitorBank::single(cap);
        assert_eq!(
            single,
            CapacitorBank::new(&[Farads::new(10.0)], &params).unwrap()
        );
        single.set_active_state(cap.full_state());
        assert_eq!(single.active_state(), &cap.full_state());
    }

    #[test]
    fn rejects_empty_bank() {
        let params = StorageModelParams::default();
        assert!(CapacitorBank::new(&[], &params).is_err());
    }

    #[test]
    fn set_active_validates() {
        let (mut bank, _) = bank();
        assert!(bank.set_active(2).is_ok());
        assert_eq!(bank.active_index(), 2);
        assert!(matches!(
            bank.set_active(3),
            Err(StorageError::CapacitorIndex { index: 3, len: 3 })
        ));
    }

    #[test]
    fn charge_goes_to_active_only() {
        let (mut bank, params) = bank();
        bank.set_active(1).unwrap();
        bank.charge_active(&params, Joules::new(5.0));
        assert_eq!(bank.state(0).unwrap().voltage().value(), 1.0);
        assert!(bank.state(1).unwrap().voltage().value() > 1.0);
        assert_eq!(bank.state(2).unwrap().voltage().value(), 1.0);
    }

    #[test]
    fn discharge_returns_energy_charged_minus_losses() {
        let (mut bank, params) = bank();
        bank.set_active(1).unwrap();
        let put = bank.charge_active(&params, Joules::new(5.0));
        let got = bank.discharge_active(&params, Joules::new(100.0));
        assert!(got.value() > 0.0 && got < put);
    }

    #[test]
    fn leak_all_touches_every_cap() {
        let (mut bank, params) = bank();
        // Charge all three by cycling the active index.
        for i in 0..3 {
            bank.set_active(i).unwrap();
            bank.charge_active(&params, Joules::new(5.0));
        }
        let before: Vec<f64> = bank.voltages();
        let leaked = bank.leak_all(&params, Seconds::from_hours(5.0));
        assert!(leaked.value() > 0.0);
        for (b, a) in before.iter().zip(bank.voltages()) {
            assert!(a < *b, "every capacitor must lose voltage");
        }
    }

    #[test]
    fn state_roundtrip_via_set_state() {
        let (mut bank, params) = bank();
        let snapshot = *bank.active_state();
        bank.charge_active(&params, Joules::new(3.0));
        assert_ne!(bank.active_state().voltage(), snapshot.voltage());
        bank.set_state(0, snapshot).unwrap();
        assert_eq!(bank.active_state().voltage(), snapshot.voltage());
        assert!(bank.set_state(9, snapshot).is_err());
    }

    #[test]
    fn aging_preserves_energy_and_shrinks_capacitance() {
        let (mut bank, params) = bank();
        bank.set_active(1).unwrap();
        bank.charge_active(&params, Joules::new(5.0));
        let c_before = bank.cap(1).unwrap().capacitance().value();
        let e_before: Vec<Joules> = bank
            .iter()
            .map(|(cap, state)| state.stored_energy(cap))
            .collect();
        let v_before = bank.state(1).unwrap().voltage();
        bank.apply_aging(&params, 0.9).unwrap();
        let c_after = bank.cap(1).unwrap().capacitance().value();
        assert!((c_after - 0.9 * c_before).abs() < 1e-12);
        for (e0, (cap, state)) in e_before.iter().zip(bank.iter()) {
            assert!((state.stored_energy(cap) - *e0).abs() < Joules::new(1e-9));
        }
        // Same energy on a smaller capacitance → higher voltage.
        assert!(bank.state(1).unwrap().voltage() > v_before);
        // Degenerate factors are rejected without touching the bank.
        assert!(bank.apply_aging(&params, 0.0).is_err());
        assert!(bank.apply_aging(&params, f64::NAN).is_err());
        assert!((bank.cap(1).unwrap().capacitance().value() - c_after).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_accessors_error() {
        let (bank, _) = bank();
        assert!(bank.cap(5).is_err());
        assert!(bank.state(5).is_err());
    }
}
