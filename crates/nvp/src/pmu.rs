//! The power-management unit: per-slot energy routing between the
//! direct solar channel, the active supercapacitor and the load.

use helio_common::units::Joules;
use helio_storage::{CapacitorBank, StorageModelParams};
use serde::{Deserialize, Serialize};

/// PMU calibration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PmuParams {
    /// Efficiency of the direct supply channel (panel → load). The
    /// paper's architecture makes this channel deliberately more
    /// efficient than the store-and-use path.
    pub direct_efficiency: f64,
}

impl Default for PmuParams {
    fn default() -> Self {
        Self {
            direct_efficiency: 0.95,
        }
    }
}

/// Energy ledger of one slot as settled by the PMU. All quantities are
/// load- or source-side joules as noted; the invariant
/// `demand = served_direct + served_storage + unmet` always holds, as
/// does `harvested = used_direct + stored + wasted`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotEnergyFlow {
    /// Load demanded this slot.
    pub demand: Joules,
    /// Harvested solar energy this slot (source side).
    pub harvested: Joules,
    /// Demand served through the direct channel.
    pub served_direct: Joules,
    /// Demand served from the active supercapacitor.
    pub served_storage: Joules,
    /// Demand that could not be served (brown-out).
    pub unmet: Joules,
    /// Solar energy consumed by the direct channel (source side,
    /// includes the direct-channel conversion loss).
    pub used_direct: Joules,
    /// Solar surplus absorbed into the active capacitor (source side).
    pub stored: Joules,
    /// Solar surplus that found no room (capacitor full or absent).
    pub wasted: Joules,
}

impl SlotEnergyFlow {
    /// Whether the whole demand was met.
    pub fn fully_served(&self) -> bool {
        self.unmet.value() <= 1e-12
    }
}

/// The power-management unit of the dual-channel node (Fig. 3).
///
/// Routing policy: the direct channel serves the load first (it is the
/// most efficient path); any remaining solar surplus charges the active
/// supercapacitor; any remaining deficit discharges it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Pmu {
    params: PmuParams,
}

impl Pmu {
    /// Creates a PMU, e.g. from external calibration data.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint when the
    /// direct-channel efficiency is non-finite or outside `(0, 1]`.
    pub fn try_new(params: PmuParams) -> Result<Self, String> {
        let eta = params.direct_efficiency;
        if !(eta.is_finite() && eta > 0.0 && eta <= 1.0) {
            return Err(format!(
                "direct-channel efficiency must lie in (0, 1], got {eta}"
            ));
        }
        Ok(Self { params })
    }

    /// The PMU parameters.
    pub const fn params(&self) -> &PmuParams {
        &self.params
    }

    /// Settles one slot: routes `harvested` solar energy against
    /// `demand`, charging/discharging the bank's active capacitor as
    /// needed, and returns the full ledger.
    ///
    /// Leakage is *not* applied here — the engine applies it once per
    /// slot across the whole bank.
    pub fn settle_slot(
        &self,
        harvested: Joules,
        demand: Joules,
        bank: &mut CapacitorBank,
        storage: &StorageModelParams,
    ) -> SlotEnergyFlow {
        let eta = self.params.direct_efficiency;
        let demand = demand.max(Joules::ZERO);
        let harvested = harvested.max(Joules::ZERO);

        // Direct channel first.
        let deliverable_direct = harvested * eta;
        let served_direct = demand.min(deliverable_direct);
        let used_direct = served_direct / eta;

        // Surplus charges the active capacitor.
        let surplus = (harvested - used_direct).max(Joules::ZERO);
        let stored = if surplus.value() > 0.0 {
            bank.charge_active(storage, surplus)
        } else {
            Joules::ZERO
        };
        let wasted = surplus - stored;

        // Deficit drains the active capacitor.
        let deficit = (demand - served_direct).max(Joules::ZERO);
        let served_storage = if deficit.value() > 0.0 {
            bank.discharge_active(storage, deficit)
        } else {
            Joules::ZERO
        };
        let unmet = deficit - served_storage;

        SlotEnergyFlow {
            demand,
            harvested,
            served_direct,
            served_storage,
            unmet,
            used_direct,
            stored,
            wasted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helio_common::units::Farads;

    fn setup() -> (Pmu, CapacitorBank, StorageModelParams) {
        let storage = StorageModelParams::default();
        let bank = CapacitorBank::new(&[Farads::new(10.0)], &storage).unwrap();
        (Pmu::default(), bank, storage)
    }

    fn assert_ledger(flow: &SlotEnergyFlow) {
        let lhs = flow.demand.value();
        let rhs = (flow.served_direct + flow.served_storage + flow.unmet).value();
        assert!((lhs - rhs).abs() < 1e-9, "demand ledger broken: {flow:?}");
        let lhs = flow.harvested.value();
        let rhs = (flow.used_direct + flow.stored + flow.wasted).value();
        assert!((lhs - rhs).abs() < 1e-9, "harvest ledger broken: {flow:?}");
    }

    #[test]
    fn sunny_slot_serves_direct_and_stores_surplus() {
        let (pmu, mut bank, storage) = setup();
        let flow = pmu.settle_slot(Joules::new(30.0), Joules::new(10.0), &mut bank, &storage);
        assert_ledger(&flow);
        assert!((flow.served_direct.value() - 10.0).abs() < 1e-9);
        assert!(flow.stored.value() > 10.0, "most surplus should store");
        assert_eq!(flow.unmet, Joules::ZERO);
        assert!(flow.served_storage == Joules::ZERO);
        // Direct channel loss is visible: used > served.
        assert!(flow.used_direct > flow.served_direct);
    }

    #[test]
    fn night_slot_drains_capacitor() {
        let (pmu, mut bank, storage) = setup();
        // Pre-charge.
        bank.charge_active(&storage, Joules::new(40.0));
        let flow = pmu.settle_slot(Joules::ZERO, Joules::new(5.0), &mut bank, &storage);
        assert_ledger(&flow);
        assert_eq!(flow.served_direct, Joules::ZERO);
        assert!((flow.served_storage.value() - 5.0).abs() < 1e-9);
        assert_eq!(flow.unmet, Joules::ZERO);
    }

    #[test]
    fn empty_night_slot_browns_out() {
        let (pmu, mut bank, storage) = setup();
        let flow = pmu.settle_slot(Joules::ZERO, Joules::new(5.0), &mut bank, &storage);
        assert_ledger(&flow);
        assert!((flow.unmet.value() - 5.0).abs() < 1e-9);
        assert!(!flow.fully_served());
    }

    #[test]
    fn partial_service_mixes_channels() {
        let (pmu, mut bank, storage) = setup();
        bank.charge_active(&storage, Joules::new(10.0));
        // 2 J harvested, 6 J demanded: 1.9 J direct, rest from storage.
        let flow = pmu.settle_slot(Joules::new(2.0), Joules::new(6.0), &mut bank, &storage);
        assert_ledger(&flow);
        assert!((flow.served_direct.value() - 1.9).abs() < 1e-9);
        assert!(flow.served_storage.value() > 0.0);
    }

    #[test]
    fn full_capacitor_wastes_surplus() {
        let (pmu, mut bank, storage) = setup();
        bank.charge_active(&storage, Joules::new(1e6));
        let flow = pmu.settle_slot(Joules::new(30.0), Joules::ZERO, &mut bank, &storage);
        assert_ledger(&flow);
        assert!((flow.wasted.value() - 30.0).abs() < 1e-9);
        assert_eq!(flow.stored, Joules::ZERO);
    }

    #[test]
    fn negative_inputs_clamp_to_zero() {
        let (pmu, mut bank, storage) = setup();
        let flow = pmu.settle_slot(Joules::new(-3.0), Joules::new(-2.0), &mut bank, &storage);
        assert_eq!(flow.demand, Joules::ZERO);
        assert_eq!(flow.harvested, Joules::ZERO);
        assert_eq!(flow.unmet, Joules::ZERO);
    }

    #[test]
    fn default_params_are_accepted() {
        assert_eq!(Pmu::try_new(PmuParams::default()), Ok(Pmu::default()));
    }

    #[test]
    fn rejects_bad_efficiency() {
        let err = Pmu::try_new(PmuParams {
            direct_efficiency: 0.0,
        })
        .unwrap_err();
        assert!(err.contains("efficiency"), "{err}");
    }
}
