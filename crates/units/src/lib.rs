//! Typed physical quantities for the vfc liquid-cooling simulator.
//!
//! Every quantity is a thin `f64` newtype with explicit unit semantics, so
//! that a volumetric flow rate can never be confused with a thermal
//! resistance and conversion factors (ml/min vs m³/s, mm vs m) live in one
//! audited place. Arithmetic is implemented only where it is physically
//! meaningful (e.g. `Watts * Seconds = Joules`,
//! `Watts * ThermalResistance = TemperatureDelta`).
//!
//! # Example
//!
//! ```
//! use vfc_units::{Celsius, Watts, Seconds, ThermalResistance};
//!
//! let ambient = Celsius::new(45.0);
//! let power = Watts::new(3.0);
//! let r = ThermalResistance::new(0.1); // K/W
//! let junction = ambient + power * r;
//! assert!((junction.value() - 45.3).abs() < 1e-12);
//! let energy = power * Seconds::new(2.0);
//! assert_eq!(energy.value(), 6.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod flow;
mod geometry;
mod power;
mod temperature;
mod thermal;
mod time;

pub use self::flow::{MassFlow, VolumetricFlow};
pub use self::geometry::{Area, Length};
pub use self::power::{Energy, Watts};
pub use self::temperature::{Celsius, TemperatureDelta};
pub use self::thermal::{HeatCapacity, ThermalConductance, ThermalResistance};
pub use self::time::Seconds;

/// Declares a transparent `f64` newtype with the shared constructor,
/// accessor, `Display`, `max` and serde derives used by every
/// quantity in this crate.
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, serde::Serialize, serde::Deserialize)]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// The zero value of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new quantity from a raw value in base units.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in base units.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the larger of two quantities.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}

/// Implements additive-group operators (`+`, `-`, `+=`, `-=`) and scalar
/// multiplication/division for a quantity type.
macro_rules! linear_ops {
    ($name:ident) => {
        impl core::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self::new(self.value() + rhs.value())
            }
        }
        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self::new(self.value() - rhs.value())
            }
        }
        impl core::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }
        impl core::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }
        impl core::ops::Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self::new(self.value() * rhs)
            }
        }
        impl core::ops::Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name::new(self * rhs.value())
            }
        }
        impl core::ops::Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self::new(self.value() / rhs)
            }
        }
        impl core::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self::new(-self.value())
            }
        }
        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |a, b| a + b)
            }
        }
    };
}

pub(crate) use linear_ops;
pub(crate) use quantity;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_units() {
        assert_eq!(format!("{}", Watts::new(3.0)), "3 W");
        assert_eq!(format!("{:.2}", Celsius::new(80.128)), "80.13 °C");
    }

    #[test]
    fn quantities_are_ordered() {
        let a = Watts::new(1.0);
        let b = Watts::new(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }
}
