//! Microchannel geometry and the convective heat-transfer model.

use crate::LiquidError;
use vfc_units::{Length, VolumetricFlow};

/// Geometry of the microchannel array in one cavity.
///
/// The paper's array (Table I / Sec. III): channel width `wc = 50 µm`,
/// height `tc = 100 µm`, wall `ts = 50 µm`, 65 channels per cavity. The
/// pitch is derived so 65 channels tile the 10 mm die; see DESIGN.md §4.7.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChannelGeometry {
    width: f64,
    height: f64,
    wall: f64,
    pitch: f64,
    count: usize,
    length: f64,
}

impl ChannelGeometry {
    /// Creates a channel array description.
    ///
    /// # Errors
    ///
    /// Returns [`LiquidError::InvalidGeometry`] for non-positive dimensions
    /// or a zero channel count.
    pub(crate) fn new(
        width: Length,
        height: Length,
        wall: Length,
        pitch: Length,
        count: usize,
        length: Length,
    ) -> Result<Self, LiquidError> {
        let check = |v: f64, field: &'static str| {
            if v > 0.0 {
                Ok(())
            } else {
                Err(LiquidError::InvalidGeometry { field })
            }
        };
        check(width.value(), "width")?;
        check(height.value(), "height")?;
        check(wall.value(), "wall")?;
        check(pitch.value(), "pitch")?;
        check(length.value(), "length")?;
        if count == 0 {
            return Err(LiquidError::InvalidGeometry { field: "count" });
        }
        Ok(Self {
            width: width.value(),
            height: height.value(),
            wall: wall.value(),
            pitch: pitch.value(),
            count,
            length: length.value(),
        })
    }

    /// The paper's channel array: 65 channels of 50 µm × 100 µm with 50 µm
    /// walls, spanning a 10 mm die across and 11.5 mm along the flow.
    pub fn ultrasparc() -> Self {
        Self::new(
            Length::from_micrometers(50.0),
            Length::from_micrometers(100.0),
            Length::from_micrometers(50.0),
            // 65 channels across 10 mm.
            Length::from_micrometers(10_000.0 / 65.0),
            65,
            Length::from_millimeters(11.5),
        )
        .expect("paper geometry is valid")
    }

    /// Channel width `wc`.
    pub fn width(&self) -> Length {
        Length::new(self.width)
    }

    /// Channel height `tc`.
    pub fn height(&self) -> Length {
        Length::new(self.height)
    }

    /// Wall thickness `ts`.
    pub fn wall(&self) -> Length {
        Length::new(self.wall)
    }

    /// Channel pitch `p`.
    pub fn pitch(&self) -> Length {
        Length::new(self.pitch)
    }

    /// Number of channels per cavity.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Hydraulic diameter `D_h = 2·wc·tc/(wc+tc)`.
    #[cfg(test)]
    pub(crate) fn hydraulic_diameter(&self) -> Length {
        Length::new(2.0 * self.width * self.height / (self.width + self.height))
    }

    /// The wetted-perimeter multiplier of Eq. 7: `2(wc+tc)/p`.
    pub(crate) fn perimeter_factor(&self) -> f64 {
        2.0 * (self.width + self.height) / self.pitch
    }

    /// Fraction of the cavity base area that is open channel (`wc/p`).
    pub(crate) fn open_area_fraction(&self) -> f64 {
        self.width / self.pitch
    }

    /// Fraction of the cavity volume occupied by fluid, given the cavity
    /// height (channels only occupy `tc` of it).
    pub fn fluid_volume_fraction(&self, cavity_height: Length) -> f64 {
        self.open_area_fraction() * self.height / cavity_height.value()
    }

    /// Mean flow velocity in one channel for a per-cavity flow rate.
    #[cfg(test)]
    pub(crate) fn channel_velocity(&self, per_cavity_flow: VolumetricFlow) -> f64 {
        let per_channel = per_cavity_flow.value() / self.count as f64;
        per_channel / (self.width * self.height)
    }

    /// Reynolds number for a per-cavity flow rate.
    #[cfg(test)]
    pub(crate) fn reynolds(
        &self,
        per_cavity_flow: VolumetricFlow,
        coolant: &crate::Coolant,
    ) -> f64 {
        coolant.density * self.channel_velocity(per_cavity_flow) * self.hydraulic_diameter().value()
            / coolant.viscosity
    }
}

/// How the junction-to-fluid convective conductance depends on flow.
///
/// The resulting coefficient is an *effective* heat-transfer coefficient
/// per unit cavity base area: it already folds in the wetted perimeter
/// (fins) of Eq. 7 and is split between the two faces of the cavity by the
/// thermal network builder.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ConvectionModel {
    /// The paper's Eq. 6–7: a constant `h` (37 132 W/m²K in Table I)
    /// multiplied by the wetted-perimeter factor; flow-independent
    /// ("developed boundary layers").
    PaperConstant {
        /// Wall heat-transfer coefficient `h`, W/(m²·K).
        h: f64,
    },
    /// Flow-dependent effective coefficient
    /// `h_eff(V̇) = h_eff_ref · (V̇/V̇_ref)^exponent`, calibrated so the five
    /// pump settings partition the 70–90 °C range of Fig. 5 (DESIGN.md
    /// §4.3; the exponent reflects pin-fin/developing-flow data from the
    /// paper's Ref. 4).
    FlowScaled {
        /// Effective coefficient at the reference flow, W/(m²·K) of base area.
        h_eff_ref: f64,
        /// Reference per-cavity flow rate, m³/s.
        reference_flow: f64,
        /// Power-law exponent (1/3: thermally developing laminar flow).
        exponent: f64,
    },
}

impl ConvectionModel {
    /// Table I wall coefficient.
    pub const PAPER_H: f64 = 37_132.0;

    /// The paper's constant-`h` model.
    pub fn paper_constant() -> Self {
        ConvectionModel::PaperConstant { h: Self::PAPER_H }
    }

    /// The calibrated flow-scaled model used by the reproduction
    /// experiments (reference = the 2-layer system's maximum per-cavity
    /// flow of ~1042 ml/min). The 1/3 exponent is the thermally-developing
    /// laminar Nusselt scaling (`Nu ∝ (Re·Pr·D_h/L)^{1/3}`); the magnitude
    /// places the five pump settings across the 70–90 °C Tmax range of
    /// Fig. 5 (DESIGN.md §4.3).
    pub fn calibrated() -> Self {
        ConvectionModel::FlowScaled {
            h_eff_ref: 17_000.0,
            reference_flow: VolumetricFlow::from_ml_per_minute(1041.67).value(),
            exponent: 1.0 / 3.0,
        }
    }

    /// Effective junction-to-fluid heat-transfer coefficient per unit base
    /// area (W/m²K) at the given per-cavity flow.
    pub fn effective_htc(
        &self,
        geometry: &ChannelGeometry,
        per_cavity_flow: VolumetricFlow,
    ) -> f64 {
        match *self {
            ConvectionModel::PaperConstant { h } => h * geometry.perimeter_factor(),
            ConvectionModel::FlowScaled {
                h_eff_ref,
                reference_flow,
                exponent,
            } => {
                let ratio = (per_cavity_flow.value() / reference_flow).max(1e-9);
                h_eff_ref * ratio.powf(exponent)
            }
        }
    }
}

impl Default for ConvectionModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coolant;
    use proptest::prelude::*;

    #[test]
    fn hydraulic_diameter_matches_hand_calc() {
        let g = ChannelGeometry::ultrasparc();
        // 2*50*100/150 = 66.67 µm
        assert!((g.hydraulic_diameter().to_micrometers() - 66.6667).abs() < 1e-3);
    }

    #[test]
    fn perimeter_factor_eq7() {
        let g = ChannelGeometry::ultrasparc();
        // 2*(50+100)/153.85 ≈ 1.95
        assert!((g.perimeter_factor() - 1.95).abs() < 0.01);
    }

    #[test]
    fn paper_constant_htc_is_flow_independent() {
        let g = ChannelGeometry::ultrasparc();
        let m = ConvectionModel::paper_constant();
        let lo = m.effective_htc(&g, VolumetricFlow::from_ml_per_minute(100.0));
        let hi = m.effective_htc(&g, VolumetricFlow::from_ml_per_minute(1000.0));
        assert_eq!(lo, hi);
        // h * 2(wc+tc)/p ≈ 37132 * 1.95 ≈ 72407
        assert!((lo - 72_407.0).abs() < 200.0);
    }

    #[test]
    fn flow_scaled_htc_grows_with_flow() {
        let g = ChannelGeometry::ultrasparc();
        let m = ConvectionModel::calibrated();
        let lo = m.effective_htc(&g, VolumetricFlow::from_ml_per_minute(208.3));
        let hi = m.effective_htc(&g, VolumetricFlow::from_ml_per_minute(1041.67));
        assert!(lo < hi);
        assert!((hi - 17_000.0).abs() < 10.0);
        // (1/5)^(1/3) ≈ 0.5848
        assert!((lo / hi - 0.5848).abs() < 0.001);
    }

    #[test]
    fn reynolds_spans_laminar_to_transitional() {
        let g = ChannelGeometry::ultrasparc();
        let w = Coolant::water();
        // Min and max per-cavity flows from Table I (0.1–1 l/min). The low
        // settings are laminar; the top of the range is transitional, which
        // supports the flow-dependent effective-h calibration (DESIGN.md
        // §4.3) rather than the constant developed-laminar h of Eq. 6.
        let re_min = g.reynolds(VolumetricFlow::from_liters_per_minute(0.1), &w);
        let re_max = g.reynolds(VolumetricFlow::from_liters_per_minute(1.0), &w);
        assert!(
            re_min > 100.0 && re_min < 2300.0,
            "laminar at min: {re_min}"
        );
        assert!(
            re_max > 2300.0 && re_max < 5000.0,
            "transitional at max: {re_max}"
        );
    }

    #[test]
    fn fluid_volume_fraction_is_small() {
        let g = ChannelGeometry::ultrasparc();
        let f = g.fluid_volume_fraction(Length::from_millimeters(0.4));
        // (50/153.85)*(100/400) ≈ 0.0813
        assert!((f - 0.0813).abs() < 0.001);
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        let err = ChannelGeometry::new(
            Length::ZERO,
            Length::from_micrometers(100.0),
            Length::from_micrometers(50.0),
            Length::from_micrometers(100.0),
            65,
            Length::from_millimeters(11.5),
        );
        assert_eq!(err, Err(LiquidError::InvalidGeometry { field: "width" }));
    }

    proptest! {
        #[test]
        fn flow_scaled_is_monotonic(a in 1.0f64..2000.0, b in 1.0f64..2000.0) {
            let g = ChannelGeometry::ultrasparc();
            let m = ConvectionModel::calibrated();
            let ha = m.effective_htc(&g, VolumetricFlow::from_ml_per_minute(a));
            let hb = m.effective_htc(&g, VolumetricFlow::from_ml_per_minute(b));
            prop_assert_eq!(a < b, ha < hb);
        }
    }
}
