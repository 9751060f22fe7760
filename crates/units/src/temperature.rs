//! Temperature quantities: absolute Celsius and temperature deltas.

use crate::{linear_ops, quantity};

quantity!(
    /// Absolute temperature in degrees Celsius.
    ///
    /// This is the working unit of the simulator (the paper reports all
    /// temperatures in °C).
    Celsius,
    "°C"
);

quantity!(
    /// A temperature difference in Kelvin (identical magnitude in °C).
    ///
    /// Deltas form an additive group; absolute temperatures do not
    /// (adding two absolute temperatures is meaningless), which is why
    /// [`Celsius`] only supports `Celsius ± TemperatureDelta`.
    TemperatureDelta,
    "K"
);

linear_ops!(TemperatureDelta);

impl Celsius {
    /// Signed difference `self - other` as a delta.
    #[inline]
    pub(crate) fn delta_from(self, other: Celsius) -> TemperatureDelta {
        TemperatureDelta::new(self.value() - other.value())
    }
}

impl core::ops::Add<TemperatureDelta> for Celsius {
    type Output = Celsius;
    #[inline]
    fn add(self, rhs: TemperatureDelta) -> Celsius {
        Celsius::new(self.value() + rhs.value())
    }
}

impl core::ops::Sub<TemperatureDelta> for Celsius {
    type Output = Celsius;
    #[inline]
    fn sub(self, rhs: TemperatureDelta) -> Celsius {
        Celsius::new(self.value() - rhs.value())
    }
}

impl core::ops::Sub for Celsius {
    type Output = TemperatureDelta;
    #[inline]
    fn sub(self, rhs: Celsius) -> TemperatureDelta {
        self.delta_from(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn delta_arithmetic() {
        let a = Celsius::new(85.0);
        let b = Celsius::new(80.0);
        let d = a - b;
        assert_eq!(d, TemperatureDelta::new(5.0));
        assert_eq!(b + d, a);
        assert_eq!(a - d, b);
        assert_eq!(d + d, TemperatureDelta::new(10.0));
        assert_eq!(-d, TemperatureDelta::new(-5.0));
    }

    proptest! {
        #[test]
        fn delta_consistency(a in -50.0f64..150.0, b in -50.0f64..150.0) {
            let (ca, cb) = (Celsius::new(a), Celsius::new(b));
            let d = ca - cb;
            prop_assert!(((cb + d).value() - ca.value()).abs() < 1e-9);
        }
    }
}
