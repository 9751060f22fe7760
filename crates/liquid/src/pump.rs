//! The coolant pump: discrete flow settings, power curve, transition time.

use crate::LiquidError;
use vfc_units::{Seconds, VolumetricFlow, Watts};

/// One of the pump's discrete flow-rate settings (an index into
/// [`Pump::flow_settings`], 0 = lowest).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct FlowSetting(usize);

impl FlowSetting {
    /// The lowest setting of any pump.
    pub const MIN: FlowSetting = FlowSetting(0);

    /// Constructs a setting by ordinal. The value is *not* validated
    /// against any particular pump — prefer [`Pump::setting`] when a pump
    /// is at hand; pump methods panic on out-of-range settings.
    pub const fn from_index(index: usize) -> Self {
        FlowSetting(index)
    }

    /// The setting's index (0 = lowest flow).
    pub fn index(self) -> usize {
        self.0
    }
}

impl core::fmt::Display for FlowSetting {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "setting {}", self.0 + 1)
    }
}

/// A pump with discrete flow settings and a quadratic power curve.
///
/// Defaults model the Laing DDC-class 12 V DC pump of the paper's
/// Ref. 14: five settings from 75 to 375 l/h, 250–300 ms transitions,
/// 300–600 mbar pressure drop, and 50 % delivery loss between the pump
/// output and the microchannels (Sec. III-B).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Pump {
    /// Total output flow per setting (strictly increasing).
    settings: Vec<f64>,
    /// Static electrical power (W) drawn at zero flow.
    power_static: f64,
    /// Power (W) added at the maximum setting (quadratic in flow).
    power_dynamic: f64,
    /// Fraction of pump output actually delivered to the cavities.
    delivery_factor: f64,
    /// Time to complete a transition to a new setting.
    transition: f64,
    /// Pressure drop (mbar) at the lowest / highest settings.
    pressure_drop_range: (f64, f64),
}

impl Pump {
    /// The paper's pump (Fig. 3): settings 75/150/225/300/375 l/h,
    /// `P = 12 + 9·(V̇/V̇max)² W` (DESIGN.md §4.5), 50 % delivery loss,
    /// 275 ms transitions, 300–600 mbar.
    pub fn laing_ddc() -> Self {
        PumpBuilder::new()
            .flow_settings_lph(&[75.0, 150.0, 225.0, 300.0, 375.0])
            .power_curve(Watts::new(12.0), Watts::new(9.0))
            .delivery_factor(0.5)
            .transition_time(Seconds::from_millis(275.0))
            .pressure_drop_mbar(300.0, 600.0)
            .build()
            .expect("laing ddc defaults are valid")
    }

    /// Number of discrete settings.
    pub fn setting_count(&self) -> usize {
        self.settings.len()
    }

    /// All settings, lowest to highest.
    pub fn flow_settings(&self) -> impl Iterator<Item = FlowSetting> + '_ {
        (0..self.settings.len()).map(FlowSetting)
    }

    /// The highest setting.
    pub fn max_setting(&self) -> FlowSetting {
        FlowSetting(self.settings.len() - 1)
    }

    /// Validates an index into the settings table.
    ///
    /// # Errors
    ///
    /// [`LiquidError::SettingOutOfRange`] if `index ≥ setting_count`.
    pub fn setting(&self, index: usize) -> Result<FlowSetting, LiquidError> {
        if index < self.settings.len() {
            Ok(FlowSetting(index))
        } else {
            Err(LiquidError::SettingOutOfRange {
                index,
                count: self.settings.len(),
            })
        }
    }

    /// Total pump output flow at a setting.
    ///
    /// # Panics
    ///
    /// Panics if the setting does not belong to this pump's range.
    pub fn total_flow(&self, s: FlowSetting) -> VolumetricFlow {
        VolumetricFlow::new(self.settings[s.0])
    }

    /// Per-cavity delivered flow: total flow × delivery factor ÷ cavities
    /// (the paper assumes equal distribution among cavities and channels).
    ///
    /// # Panics
    ///
    /// Panics if `cavities == 0` or the setting is out of range.
    pub fn per_cavity_flow(&self, s: FlowSetting, cavities: usize) -> VolumetricFlow {
        assert!(cavities > 0, "cavity count must be positive");
        VolumetricFlow::new(self.settings[s.0] * self.delivery_factor / cavities as f64)
    }

    /// Electrical power drawn at a setting:
    /// `P_static + P_dynamic·(V̇/V̇max)²` (pump power grows quadratically
    /// with flow rate, Sec. I).
    ///
    /// # Panics
    ///
    /// Panics if the setting is out of range.
    pub fn power(&self, s: FlowSetting) -> Watts {
        let ratio = self.settings[s.0] / self.settings[self.settings.len() - 1];
        Watts::new(self.power_static + self.power_dynamic * ratio * ratio)
    }

    /// Pressure drop (mbar) at a setting, interpolated quadratically
    /// across the paper's 300–600 mbar range.
    ///
    /// # Panics
    ///
    /// Panics if the setting is out of range.
    pub fn pressure_drop_mbar(&self, s: FlowSetting) -> f64 {
        let ratio = self.settings[s.0] / self.settings[self.settings.len() - 1];
        let (lo, hi) = self.pressure_drop_range;
        lo + (hi - lo) * ratio * ratio
    }

    /// Time for the impeller to complete a transition to a new setting
    /// (the paper: 250–300 ms, motivating proactive control).
    pub fn transition_time(&self) -> Seconds {
        Seconds::new(self.transition)
    }
}

impl Default for Pump {
    fn default() -> Self {
        Self::laing_ddc()
    }
}

/// Builder for [`Pump`] (useful for ablations and other pump models).
#[derive(Debug, Clone, Default)]
pub struct PumpBuilder {
    settings: Vec<f64>,
    power_static: f64,
    power_dynamic: f64,
    delivery_factor: f64,
    transition: f64,
    pressure_drop_range: (f64, f64),
}

impl PumpBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self {
            settings: Vec::new(),
            power_static: 12.0,
            power_dynamic: 9.0,
            delivery_factor: 0.5,
            transition: 0.275,
            pressure_drop_range: (300.0, 600.0),
        }
    }

    /// Sets the flow settings in liters/hour (datasheet unit).
    pub fn flow_settings_lph(mut self, lph: &[f64]) -> Self {
        self.settings = lph
            .iter()
            .map(|&v| VolumetricFlow::from_liters_per_hour(v).value())
            .collect();
        self
    }

    /// Sets the static and dynamic terms of the power curve.
    pub(crate) fn power_curve(mut self, static_w: Watts, dynamic_w: Watts) -> Self {
        self.power_static = static_w.value();
        self.power_dynamic = dynamic_w.value();
        self
    }

    /// Sets the fraction of output flow delivered to the cavities.
    pub(crate) fn delivery_factor(mut self, f: f64) -> Self {
        self.delivery_factor = f;
        self
    }

    /// Sets the transition time between settings.
    pub(crate) fn transition_time(mut self, t: Seconds) -> Self {
        self.transition = t.value();
        self
    }

    /// Sets the pressure-drop range (mbar) across the settings.
    pub(crate) fn pressure_drop_mbar(mut self, lo: f64, hi: f64) -> Self {
        self.pressure_drop_range = (lo, hi);
        self
    }

    /// Validates and builds the pump.
    ///
    /// # Errors
    ///
    /// [`LiquidError::NoFlowSettings`] if no settings were given;
    /// [`LiquidError::UnsortedFlowSettings`] if they are not strictly
    /// increasing.
    pub fn build(self) -> Result<Pump, LiquidError> {
        if self.settings.is_empty() {
            return Err(LiquidError::NoFlowSettings);
        }
        for i in 1..self.settings.len() {
            if self.settings[i] <= self.settings[i - 1] {
                return Err(LiquidError::UnsortedFlowSettings { index: i });
            }
        }
        Ok(Pump {
            settings: self.settings,
            power_static: self.power_static,
            power_dynamic: self.power_dynamic,
            delivery_factor: self.delivery_factor,
            transition: self.transition,
            pressure_drop_range: self.pressure_drop_range,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fig3_per_cavity_flows() {
        let p = Pump::laing_ddc();
        // 2-layer system: 3 cavities; Fig. 3 shows ~208..1042 ml/min.
        let lo = p.per_cavity_flow(FlowSetting::MIN, 3).to_ml_per_minute();
        let hi = p.per_cavity_flow(p.max_setting(), 3).to_ml_per_minute();
        assert!((lo - 208.3).abs() < 0.1, "{lo}");
        assert!((hi - 1041.7).abs() < 0.1, "{hi}");
        // 4-layer system: 5 cavities; ~125..625 ml/min.
        let hi4 = p.per_cavity_flow(p.max_setting(), 5).to_ml_per_minute();
        assert!((hi4 - 625.0).abs() < 0.1, "{hi4}");
    }

    #[test]
    fn power_curve_is_quadratic_and_increasing() {
        let p = Pump::laing_ddc();
        let powers: Vec<f64> = p.flow_settings().map(|s| p.power(s).value()).collect();
        assert_eq!(powers.len(), 5);
        assert!((powers[0] - 12.36).abs() < 0.01);
        assert!((powers[4] - 21.0).abs() < 0.01);
        for w in powers.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Min/max ratio leaves ~40% cooling-energy headroom (DESIGN.md §4.5).
        assert!((powers[0] / powers[4] - 0.5886).abs() < 0.01);
    }

    #[test]
    fn pressure_drop_spans_paper_range() {
        let p = Pump::laing_ddc();
        assert!(p.pressure_drop_mbar(FlowSetting::MIN) >= 300.0);
        assert!((p.pressure_drop_mbar(p.max_setting()) - 600.0).abs() < 1e-9);
    }

    #[test]
    fn setting_navigation() {
        let p = Pump::laing_ddc();
        assert!(p.setting(4).is_ok());
        assert!(matches!(
            p.setting(5),
            Err(LiquidError::SettingOutOfRange { index: 5, count: 5 })
        ));
    }

    #[test]
    fn transition_time_in_paper_range() {
        let t = Pump::laing_ddc().transition_time().to_millis();
        assert!((250.0..=300.0).contains(&t));
    }

    #[test]
    fn builder_validation() {
        assert_eq!(PumpBuilder::new().build(), Err(LiquidError::NoFlowSettings));
        let err = PumpBuilder::new()
            .flow_settings_lph(&[100.0, 100.0])
            .build();
        assert_eq!(err, Err(LiquidError::UnsortedFlowSettings { index: 1 }));
    }

    proptest! {
        #[test]
        fn per_cavity_scales_inversely(c1 in 1usize..10, c2 in 1usize..10) {
            let p = Pump::laing_ddc();
            let f1 = p.per_cavity_flow(p.max_setting(), c1).value();
            let f2 = p.per_cavity_flow(p.max_setting(), c2).value();
            prop_assert!((f1 * c1 as f64 - f2 * c2 as f64).abs() < 1e-12);
        }
    }
}
