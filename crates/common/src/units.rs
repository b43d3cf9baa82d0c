//! Physical-unit newtypes used across the workspace.
//!
//! All quantities are stored in SI base units as `f64`:
//! [`Joules`], [`Watts`], [`Volts`], [`Farads`], [`Seconds`].
//! Display formatting picks engineering-friendly sub-units (mW, mJ) where
//! the magnitudes of this paper's platform live.
//!
//! The arithmetic impls encode the dimensional algebra the simulator needs:
//! `Watts * Seconds -> Joules`, `Joules / Seconds -> Watts`,
//! `Joules / Watts -> Seconds`, and capacitor energy
//! `½·C·V²` via [`Farads::energy_between`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// Zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// Wraps a raw SI value.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw SI value.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Elementwise maximum.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Elementwise minimum.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps into `[lo, hi]`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// True when the stored value is finite (not NaN/∞).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dimensionless ratio of two like quantities.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|x| x.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{} {}", self.0, $suffix)
                }
            }
        }
    };
}

unit!(
    /// Energy in joules.
    Joules,
    "J"
);
unit!(
    /// Power in watts.
    Watts,
    "W"
);
unit!(
    /// Electric potential in volts.
    Volts,
    "V"
);
unit!(
    /// Capacitance in farads.
    Farads,
    "F"
);
unit!(
    /// Duration in seconds.
    Seconds,
    "s"
);

impl Watts {
    /// Builds a power from a milliwatt value (the paper's native unit).
    #[inline]
    pub fn from_milliwatts(mw: f64) -> Self {
        Watts(mw * 1e-3)
    }

    /// Returns the power expressed in milliwatts.
    #[inline]
    pub fn milliwatts(self) -> f64 {
        self.0 * 1e3
    }
}

impl Seconds {
    /// Builds a duration from whole minutes.
    #[inline]
    pub fn from_minutes(minutes: f64) -> Self {
        Seconds(minutes * 60.0)
    }

    /// Builds a duration from whole hours.
    #[inline]
    pub fn from_hours(hours: f64) -> Self {
        Seconds(hours * 3600.0)
    }

    /// Returns the duration in minutes.
    #[inline]
    pub fn minutes(self) -> f64 {
        self.0 / 60.0
    }

    /// Returns the duration in hours.
    #[inline]
    pub fn hours(self) -> f64 {
        self.0 / 3600.0
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    /// Energy delivered by a constant power over a duration.
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    /// Average power that delivers this energy over the duration.
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    /// Time needed to deliver this energy at the given power.
    #[inline]
    fn div(self, rhs: Watts) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Farads {
    /// Energy stored in this capacitance at voltage `v`: `½·C·V²`.
    #[inline]
    pub fn stored_energy(self, v: Volts) -> Joules {
        Joules(0.5 * self.0 * v.0 * v.0)
    }

    /// Usable energy between two voltages: `½·C·(V_hi² − V_lo²)`.
    ///
    /// Returns a negative energy when `hi < lo`; callers that need a
    /// magnitude should take `.abs()`.
    #[inline]
    pub fn energy_between(self, hi: Volts, lo: Volts) -> Joules {
        Joules(0.5 * self.0 * (hi.0 * hi.0 - lo.0 * lo.0))
    }

    /// Voltage reached when the capacitor holds `energy`: `√(2E/C)`.
    ///
    /// Clamps negative energies to zero volts rather than producing NaN,
    /// which keeps numerical round-off in discharge paths benign.
    #[inline]
    pub fn voltage_for_energy(self, energy: Joules) -> Volts {
        if energy.0 <= 0.0 {
            Volts(0.0)
        } else {
            Volts((2.0 * energy.0 / self.0).sqrt())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts::new(0.05) * Seconds::new(60.0);
        assert!((e.value() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn energy_over_time_is_power() {
        let p = Joules::new(3.0) / Seconds::new(60.0);
        assert!((p.value() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn energy_over_power_is_time() {
        let t = Joules::new(3.0) / Watts::new(0.05);
        assert!((t.value() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn milli_round_trips() {
        assert!((Watts::from_milliwatts(50.0).milliwatts() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn capacitor_energy_identities() {
        let c = Farads::new(10.0);
        let e = c.stored_energy(Volts::new(5.0));
        assert!((e.value() - 125.0).abs() < 1e-9);
        // Round-trip: voltage_for_energy inverts stored_energy.
        let v = c.voltage_for_energy(e);
        assert!((v.value() - 5.0).abs() < 1e-9);
        // Usable window 5V -> 1V on 10F is 120 J.
        let usable = c.energy_between(Volts::new(5.0), Volts::new(1.0));
        assert!((usable.value() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn negative_energy_clamps_to_zero_volts() {
        let c = Farads::new(1.0);
        assert_eq!(c.voltage_for_energy(Joules::new(-1e-9)).value(), 0.0);
    }

    #[test]
    fn ratio_of_like_units_is_dimensionless() {
        let ratio = Joules::new(3.0) / Joules::new(6.0);
        assert!((ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_uses_suffix_and_precision() {
        assert_eq!(format!("{:.2}", Watts::new(0.0945)), "0.09 W");
        assert_eq!(format!("{}", Farads::new(10.0)), "10 F");
    }

    #[test]
    fn sum_and_ordering() {
        let total: Joules = [Joules::new(1.0), Joules::new(2.5)].into_iter().sum();
        assert!((total.value() - 3.5).abs() < 1e-12);
        assert!(Joules::new(1.0) < Joules::new(2.0));
        assert_eq!(Joules::new(2.0).max(Joules::new(1.0)), Joules::new(2.0));
    }

    #[test]
    fn minutes_hours_conversions() {
        assert!((Seconds::from_minutes(10.0).value() - 600.0).abs() < 1e-12);
        assert!((Seconds::from_hours(2.0).hours() - 2.0).abs() < 1e-12);
    }
}
