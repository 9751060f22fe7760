//! Per-block temperature extraction and the thermal-sensor model.
//!
//! The paper assumes one thermal sensor per core delivering readings every
//! 100 ms (Sec. V). [`BlockTemperatures`] aggregates grid-cell temperatures
//! to block granularity. Sensor faults (noise, dropout, stuck-at) are
//! `vfc_faults`'s.

use vfc_floorplan::Stack3d;
use vfc_units::Celsius;

use crate::ThermalModel;

/// Block-granularity view of one temperature state.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockTemperatures {
    /// `max[tier][block]` — hottest cell of each block.
    max: Vec<Vec<f64>>,
}

impl BlockTemperatures {
    /// Extracts block temperatures from a node state.
    ///
    /// Allocating variant of [`extract_into`](Self::extract_into); hot
    /// loops should allocate once and refill.
    ///
    /// # Panics
    ///
    /// Panics if `temps.len()` differs from the model's node count.
    pub fn extract(model: &ThermalModel, temps: &[f64]) -> Self {
        let mut this = Self { max: Vec::new() };
        this.extract_into(model, temps);
        this
    }

    /// Refills `self` from a node state without allocating (after the
    /// first call sized the per-tier buffers). The engine re-extracts
    /// every 100 ms sample, so this keeps the sample loop allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `temps.len()` differs from the model's node count.
    pub fn extract_into(&mut self, model: &ThermalModel, temps: &[f64]) {
        let layout = model.layout();
        assert_eq!(temps.len(), layout.node_count(), "state length");
        let cells = layout.cells_per_layer();
        let tiers = layout.tier_count();
        self.max.resize(tiers, Vec::new());
        for t in 0..tiers {
            let bmax = &mut self.max[t];
            bmax.clear();
            bmax.resize(layout.tier_block_cell_counts[t].len(), f64::NEG_INFINITY);
            let off = layout.tier_offsets[t];
            for flat in 0..cells {
                let b = layout.tier_cell_block[t][flat];
                let v = temps[off + flat];
                if v > bmax[b] {
                    bmax[b] = v;
                }
            }
        }
    }

    /// Hottest cell of a block.
    pub fn block_max(&self, tier: usize, block: usize) -> Celsius {
        Celsius::new(self.max[tier][block])
    }

    /// Maximum temperature of the cores across the stack, in
    /// `(tier, block)` order — the controller's `Tmax` input.
    pub fn core_max_temperatures(&self, stack: &Stack3d) -> Vec<Celsius> {
        let mut out = Vec::new();
        self.core_max_temperatures_into(stack, &mut out);
        out
    }

    /// Refills `out` with the per-core maxima without allocating (once
    /// `out` has reached the core count).
    pub fn core_max_temperatures_into(&self, stack: &Stack3d, out: &mut Vec<Celsius>) {
        out.clear();
        for (t, tier) in stack.tiers().iter().enumerate() {
            for (b, blk) in tier.floorplan().blocks().iter().enumerate() {
                if blk.is_core() {
                    out.push(self.block_max(t, b));
                }
            }
        }
    }

    /// Maximum over every block in the stack (units, not just cores) —
    /// the quantity whose spatial spread Fig. 7 reports.
    #[cfg(test)]
    pub(crate) fn overall_max(&self) -> Celsius {
        let m = self
            .max
            .iter()
            .flat_map(|t| t.iter().copied())
            .fold(f64::NEG_INFINITY, f64::max);
        Celsius::new(m)
    }

    /// Largest block-to-block temperature difference (spatial gradient,
    /// Fig. 7's metric).
    pub fn max_spatial_gradient(&self) -> vfc_units::TemperatureDelta {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in self.max.iter().flat_map(|t| t.iter().copied()) {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        vfc_units::TemperatureDelta::new(hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StackThermalBuilder, ThermalConfig};
    use vfc_floorplan::{ultrasparc, GridSpec};
    use vfc_units::{Length, VolumetricFlow, Watts};

    fn model_and_temps() -> (ThermalModel, Vec<f64>, Stack3d) {
        let stack = ultrasparc::two_layer_liquid();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(1.0));
        let mut model = StackThermalBuilder::new(&stack, grid, ThermalConfig::default())
            .build(Some(VolumetricFlow::from_ml_per_minute(400.0)))
            .unwrap();
        let p = model.uniform_block_power(&stack, |b| {
            if b.is_core() {
                Watts::new(3.0)
            } else {
                Watts::ZERO
            }
        });
        let t = model.steady_state(&p, None).unwrap();
        (model, t, stack)
    }

    #[test]
    fn block_extraction_matches_model_max() {
        let (model, temps, stack) = model_and_temps();
        let bt = BlockTemperatures::extract(&model, &temps);
        let cores = bt.core_max_temperatures(&stack);
        assert_eq!(cores.len(), 8);
        let hottest_core = cores.iter().map(|c| c.value()).fold(f64::MIN, f64::max);
        // With only cores powered, the global junction max is on a core.
        assert!((hottest_core - model.max_junction_temperature(&temps).value()).abs() < 1e-9);
        assert!(bt.overall_max().value() >= hottest_core);
    }

    #[test]
    fn powered_cores_are_hotter_than_idle_cache() {
        let (model, temps, _stack) = model_and_temps();
        let bt = BlockTemperatures::extract(&model, &temps);
        // Tier 0 block 0 is core0; tier 1 block 0 is l2_0.
        assert!(bt.block_max(0, 0).value() > bt.block_max(1, 0).value());
        assert!(bt.max_spatial_gradient().value() > 0.1);
    }

    #[test]
    fn extract_into_refills_match_fresh_extraction() {
        let (model, temps, stack) = model_and_temps();
        let fresh = BlockTemperatures::extract(&model, &temps);

        // Seed a reusable extractor with a *different* state, then refill
        // with the real one: results must equal a fresh extraction.
        let cold = model.initial_state();
        let mut reused = BlockTemperatures::extract(&model, &cold);
        reused.extract_into(&model, &temps);
        assert_eq!(reused, fresh);

        let mut out = Vec::new();
        reused.core_max_temperatures_into(&stack, &mut out);
        assert_eq!(out, fresh.core_max_temperatures(&stack));
    }
}
