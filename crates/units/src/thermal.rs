//! Thermal circuit quantities: resistance, conductance, capacity.

use crate::{linear_ops, quantity, TemperatureDelta, Watts};

quantity!(
    /// Lumped thermal resistance in K/W.
    ThermalResistance,
    "K/W"
);
linear_ops!(ThermalResistance);

quantity!(
    /// Lumped thermal conductance in W/K (the reciprocal of resistance;
    /// the natural unit for assembling RC-network matrices).
    ThermalConductance,
    "W/K"
);
linear_ops!(ThermalConductance);

quantity!(
    /// Heat capacity in J/K.
    HeatCapacity,
    "J/K"
);
linear_ops!(HeatCapacity);

impl ThermalResistance {
    /// Reciprocal conductance.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on a zero resistance.
    #[inline]
    pub fn to_conductance(self) -> ThermalConductance {
        debug_assert!(self.value() != 0.0, "zero thermal resistance");
        ThermalConductance::new(1.0 / self.value())
    }
}

impl core::ops::Mul<ThermalResistance> for Watts {
    type Output = TemperatureDelta;
    #[inline]
    fn mul(self, rhs: ThermalResistance) -> TemperatureDelta {
        TemperatureDelta::new(self.value() * rhs.value())
    }
}

impl core::ops::Mul<Watts> for ThermalResistance {
    type Output = TemperatureDelta;
    #[inline]
    fn mul(self, rhs: Watts) -> TemperatureDelta {
        rhs * self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resistance_conductance_roundtrip() {
        let r = ThermalResistance::new(0.1);
        assert_eq!(r.to_conductance(), ThermalConductance::new(10.0));
    }

    #[test]
    fn power_times_resistance_is_delta() {
        // Package: 40 W through 0.1 K/W = 4 K rise.
        let dt = Watts::new(40.0) * ThermalResistance::new(0.1);
        assert_eq!(dt, TemperatureDelta::new(4.0));
    }
}
