//! The temperature-indexed flow look-up table.
//!
//! The paper: "we set up a look-up table indexed by temperature values,
//! and each line holds a flow rate value. At runtime, depending on the
//! maximum temperature prediction, we pick the appropriate flow rate from
//! the table." Because the observed temperature depends on the *current*
//! flow, the table stores one boundary row per current setting: entry
//! `[s][s']` is the temperature the system shows at setting `s` when the
//! demand equals the largest demand setting `s'` can hold below the
//! target.

use vfc_liquid::{FlowSetting, Pump};
use vfc_units::Celsius;

use crate::{Characterization, ControlError};

/// The runtime flow look-up table.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FlowLut {
    /// `boundary[s][s']`: Tmax at current setting `s` when demand equals
    /// setting `s'`'s capability.
    boundary: Vec<Vec<f64>>,
    target: f64,
}

impl FlowLut {
    /// Builds the LUT from a characterization.
    ///
    /// # Errors
    ///
    /// [`ControlError::SettingCountMismatch`] if `pump` disagrees with
    /// the characterization.
    pub fn from_characterization(c: &Characterization, pump: &Pump) -> Result<Self, ControlError> {
        if c.setting_count() != pump.setting_count() {
            return Err(ControlError::SettingCountMismatch {
                characterized: c.setting_count(),
                pump: pump.setting_count(),
            });
        }
        let n = c.setting_count();
        let mut boundary = vec![vec![0.0; n]; n];
        for s in 0..n {
            for s_prime in 0..n {
                boundary[s][s_prime] = c.tmax_interp(c.capability(s_prime), s).value();
            }
        }
        Ok(Self {
            boundary,
            target: c.target().value(),
        })
    }

    /// Builds a LUT directly from boundary rows (tests, ablations, or
    /// externally characterized systems). `boundary[s][s']` must be
    /// nondecreasing in `s'`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty or not square.
    #[cfg(test)]
    pub(crate) fn from_raw(boundary: Vec<Vec<f64>>, target: Celsius) -> Self {
        assert!(!boundary.is_empty(), "boundary matrix must be non-empty");
        let n = boundary.len();
        assert!(
            boundary.iter().all(|r| r.len() == n),
            "boundary matrix must be square"
        );
        Self {
            boundary,
            target: target.value(),
        }
    }

    /// Boundary temperature: the reading at `current` that corresponds to
    /// `candidate`'s maximum holdable demand.
    ///
    /// # Panics
    ///
    /// Panics if either setting is out of range.
    pub fn boundary(&self, current: FlowSetting, candidate: FlowSetting) -> Celsius {
        Celsius::new(self.boundary[current.index()][candidate.index()])
    }

    /// The minimum setting whose capability covers the demand implied by
    /// `predicted` (a Tmax forecast valid at the `current` setting).
    pub(crate) fn required_setting(&self, current: FlowSetting, predicted: Celsius) -> FlowSetting {
        let row = &self.boundary[current.index()];
        for (s, &b) in row.iter().enumerate() {
            if predicted.value() <= b + 1e-9 {
                return FlowSetting::from_index(s);
            }
        }
        FlowSetting::from_index(row.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_floorplan::{ultrasparc, GridSpec};
    use vfc_thermal::{StackThermalBuilder, ThermalConfig};
    use vfc_units::{Length, Watts};

    fn lut_and_pump() -> (FlowLut, Pump) {
        let stack = ultrasparc::two_layer_liquid();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(1.5));
        let builder = StackThermalBuilder::new(&stack, grid, ThermalConfig::default());
        let pump = Pump::laing_ddc();
        let stack2 = ultrasparc::two_layer_liquid();
        let c = crate::characterize(
            &builder,
            &pump,
            3,
            Celsius::new(80.0),
            5,
            &move |demand, model| {
                model.uniform_block_power(&stack2, |b| match b.kind() {
                    vfc_floorplan::BlockKind::Core => {
                        Watts::new(demand * 3.0 + (1.0 - demand) * 1.0 + 0.5)
                    }
                    vfc_floorplan::BlockKind::L2Cache => Watts::new(2.2),
                    vfc_floorplan::BlockKind::Crossbar => Watts::new(3.0 * demand + 0.75),
                    _ => Watts::new(0.8),
                })
            },
        )
        .unwrap();
        let lut = FlowLut::from_characterization(&c, &pump).unwrap();
        (lut, pump)
    }

    #[test]
    fn boundaries_increase_with_candidate() {
        let (lut, pump) = lut_and_pump();
        for s in pump.flow_settings() {
            let mut prev = f64::NEG_INFINITY;
            for s2 in pump.flow_settings() {
                let b = lut.boundary(s, s2).value();
                assert!(b >= prev - 1e-9, "row must be nondecreasing");
                prev = b;
            }
        }
    }

    #[test]
    fn cool_prediction_requires_min_setting() {
        let (lut, pump) = lut_and_pump();
        let s = lut.required_setting(pump.max_setting(), Celsius::new(61.0));
        assert_eq!(s, FlowSetting::MIN);
    }

    #[test]
    fn hot_prediction_requires_max_setting() {
        let (lut, pump) = lut_and_pump();
        let s = lut.required_setting(FlowSetting::MIN, Celsius::new(99.0));
        assert_eq!(s, pump.max_setting());
    }

    #[test]
    fn required_setting_monotone_in_prediction() {
        let (lut, _pump) = lut_and_pump();
        let mut last = 0;
        for t in [60.0, 70.0, 75.0, 80.0, 85.0, 92.0] {
            let s = lut.required_setting(FlowSetting::MIN, Celsius::new(t));
            assert!(s.index() >= last);
            last = s.index();
        }
    }

    #[test]
    fn setting_count_mismatch_detected() {
        let (_, _) = lut_and_pump();
        // A pump with fewer settings than the characterization.
        let small = vfc_liquid::PumpBuilder::new()
            .flow_settings_lph(&[100.0, 200.0])
            .build()
            .unwrap();
        let stack = ultrasparc::two_layer_liquid();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(2.0));
        let builder = StackThermalBuilder::new(&stack, grid, ThermalConfig::default());
        let pump5 = Pump::laing_ddc();
        let stack2 = ultrasparc::two_layer_liquid();
        let c = crate::characterize(&builder, &pump5, 3, Celsius::new(80.0), 3, &move |d, m| {
            m.uniform_block_power(&stack2, |b| {
                if b.is_core() {
                    Watts::new(1.0 + 2.0 * d)
                } else {
                    Watts::new(0.5)
                }
            })
        })
        .unwrap();
        assert!(matches!(
            FlowLut::from_characterization(&c, &small),
            Err(ControlError::SettingCountMismatch { .. })
        ));
    }
}
