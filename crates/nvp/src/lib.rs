//! # helio-nvp
//!
//! Nonvolatile-processor and power-management substrate for the DAC'15
//! reproduction.
//!
//! The paper's node executes tasks on multiple *nonvolatile processors*
//! (NVPs, \[13, 14\]): ferroelectric flip-flop based cores that back up
//! their state on power failure and restore within microseconds. Each
//! task is bound to one NVP, and an NVP runs at most one task per slot
//! (constraint 9 of the system model). The *power-management unit*
//! (PMU) routes energy between the direct solar channel, the selected
//! supercapacitor and the load — the dual-channel architecture of
//! Fig. 3.
//!
//! ## Example
//!
//! ```
//! use helio_common::units::{Farads, Joules};
//! use helio_nvp::{Pmu, PmuParams};
//! use helio_storage::{CapacitorBank, StorageModelParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let storage = StorageModelParams::default();
//! let mut bank = CapacitorBank::new(&[Farads::new(10.0)], &storage)?;
//! let pmu = Pmu::try_new(PmuParams::default())?;
//!
//! // A sunny slot: 30 J harvested, 10 J demanded — the direct channel
//! // serves the load and the surplus charges the capacitor.
//! let flow = pmu.settle_slot(Joules::new(30.0), Joules::new(10.0), &mut bank, &storage);
//! assert_eq!(flow.unmet, Joules::ZERO);
//! assert!(flow.stored.value() > 0.0);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

pub mod pmu;
pub mod processor;

pub use pmu::{Pmu, PmuParams, SlotEnergyFlow};
pub use processor::{NvpFleet, NvpParams, NvpState};
