//! Temperature-dependent leakage (Su et al. polynomial model, Ref. [21]).

use vfc_floorplan::Block;
use vfc_units::{Celsius, Watts};

/// Leakage power model: a per-area base at a reference temperature scaled
/// by a quadratic polynomial in the temperature excursion, following the
/// full-chip leakage estimation approach of Su et al. (Ref. 21).
///
/// Calibration: ~15 % of layer power at the 60 °C reference for the 90 nm
/// node, doubling every 25 °C (DESIGN.md §2.5).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LeakageModel {
    /// Leakage power density at the reference temperature, W/mm².
    pub density_at_ref: f64,
    /// Reference temperature.
    pub reference: Celsius,
    /// Linear polynomial coefficient, 1/K.
    pub beta1: f64,
    /// Quadratic polynomial coefficient, 1/K².
    pub beta2: f64,
}

impl LeakageModel {
    /// The calibrated Su-style polynomial: doubles every 25 °C above the
    /// 60 °C reference (`1 + 0.028·ΔT + 0.00048·ΔT²`). The density puts
    /// leakage at ~15 % of layer power at the reference — 90 nm-typical —
    /// while keeping the positive feedback loop stable under air cooling.
    pub fn su_polynomial() -> Self {
        Self {
            density_at_ref: 0.03,
            reference: Celsius::new(60.0),
            beta1: 0.028,
            beta2: 0.00048,
        }
    }

    /// A zero-leakage model (for the leakage-feedback ablation).
    pub fn disabled() -> Self {
        Self {
            density_at_ref: 0.0,
            reference: Celsius::new(60.0),
            beta1: 0.0,
            beta2: 0.0,
        }
    }

    /// The polynomial scale factor at a given temperature (1.0 at the
    /// reference), clamped to `[0.1, 10]`: real leakage saturates rather
    /// than growing without bound, and the clamp keeps thermally
    /// infeasible configurations (e.g. a 4-layer air-cooled stack, the
    /// paper's motivating failure case) numerically stable instead of
    /// running away.
    pub fn scale_factor(&self, temperature: Celsius) -> f64 {
        let dt = temperature.value() - self.reference.value();
        (1.0 + self.beta1 * dt + self.beta2 * dt * dt).clamp(0.1, 10.0)
    }

    /// Leakage power of one block at a given block temperature.
    pub fn block_leakage(&self, block: &Block, temperature: Celsius) -> Watts {
        Watts::new(
            self.density_at_ref * block.rect().area().to_mm2() * self.scale_factor(temperature),
        )
    }
}

impl Default for LeakageModel {
    fn default() -> Self {
        Self::su_polynomial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vfc_floorplan::{BlockKind, Rect};

    fn core_block() -> Block {
        Block::new("core0", BlockKind::Core, Rect::from_mm(0.0, 0.0, 4.0, 2.5))
    }

    #[test]
    fn doubles_every_25c() {
        let m = LeakageModel::su_polynomial();
        assert!((m.scale_factor(Celsius::new(60.0)) - 1.0).abs() < 1e-12);
        assert!((m.scale_factor(Celsius::new(85.0)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn block_leakage_scales_with_area_and_temp() {
        let m = LeakageModel::su_polynomial();
        // 10 mm² core at reference: 0.3 W.
        let p = m.block_leakage(&core_block(), Celsius::new(60.0));
        assert!((p.value() - 0.3).abs() < 1e-12);
        let hot = m.block_leakage(&core_block(), Celsius::new(85.0));
        assert!((hot.value() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn disabled_model_is_zero() {
        let m = LeakageModel::disabled();
        assert_eq!(
            m.block_leakage(&core_block(), Celsius::new(90.0)),
            Watts::ZERO
        );
    }

    #[test]
    fn cold_extrapolation_stays_positive() {
        let m = LeakageModel::su_polynomial();
        assert!(m.scale_factor(Celsius::new(-100.0)) >= 0.1);
    }

    #[test]
    fn hot_extrapolation_saturates() {
        let m = LeakageModel::su_polynomial();
        assert_eq!(m.scale_factor(Celsius::new(500.0)), 10.0);
        // Stays finite even for absurd inputs (runaway protection).
        assert!(m.scale_factor(Celsius::new(1e6)).is_finite());
    }

    proptest! {
        #[test]
        fn monotone_above_vertex(a in 40.0f64..120.0, b in 40.0f64..120.0) {
            let m = LeakageModel::su_polynomial();
            // The polynomial vertex is far below operating range, so the
            // factor is monotone increasing over realistic temperatures.
            let (fa, fb) = (m.scale_factor(Celsius::new(a)), m.scale_factor(Celsius::new(b)));
            prop_assert_eq!(a < b, fa < fb);
        }
    }
}
