//! Working-fluid properties.

use vfc_units::{MassFlow, ThermalConductance, VolumetricFlow};

/// Thermophysical properties of the coolant.
///
/// The paper assumes forced convective interlayer cooling with water
/// (Table I: `c_p = 4183 J/(kg·K)`, `ρ = 998 kg/m³`); the model "can be
/// extended to other coolants", which this type supports directly.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Coolant {
    /// Specific heat capacity, J/(kg·K).
    pub specific_heat: f64,
    /// Density, kg/m³.
    pub density: f64,
    /// Thermal conductivity, W/(m·K) (used by Nusselt correlations).
    pub conductivity: f64,
    /// Dynamic viscosity, Pa·s (used for Reynolds numbers).
    pub viscosity: f64,
}

impl Coolant {
    /// Water at ~25–60 °C, matching Table I of the paper.
    pub const fn water() -> Self {
        Self {
            specific_heat: 4183.0,
            density: 998.0,
            conductivity: 0.6,
            viscosity: 1.0e-3,
        }
    }

    /// Volumetric heat capacity `ρ·c_p` in J/(m³·K).
    #[inline]
    pub fn volumetric_heat_capacity(&self) -> f64 {
        self.density * self.specific_heat
    }

    /// Thermal capacity rate `ṁ·c_p` of a volumetric flow — the
    /// denominator of the paper's Eq. 5 and the advection conductance of
    /// the RC network.
    #[inline]
    pub fn capacity_rate(&self, flow: VolumetricFlow) -> ThermalConductance {
        self.mass_flow(flow).capacity_rate(self.specific_heat)
    }

    /// Mass flow corresponding to a volumetric flow of this coolant.
    #[inline]
    pub(crate) fn mass_flow(&self, flow: VolumetricFlow) -> MassFlow {
        flow.to_mass_flow(self.density)
    }
}

impl Default for Coolant {
    fn default() -> Self {
        Self::water()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_matches_table_i() {
        let w = Coolant::water();
        assert_eq!(w.specific_heat, 4183.0);
        assert_eq!(w.density, 998.0);
    }

    #[test]
    fn capacity_rate_eq5() {
        // Eq. 5 denominator at 1 l/min: c_p·ρ·V̇ = 4183·998·(1e-3/60) ≈ 69.58 W/K.
        let g = Coolant::water().capacity_rate(VolumetricFlow::from_liters_per_minute(1.0));
        assert!((g.value() - 69.58).abs() < 0.01);
    }

    #[test]
    fn volumetric_heat_capacity() {
        let w = Coolant::water();
        assert!((w.volumetric_heat_capacity() - 4.1746e6).abs() < 1e2);
    }
}
