//! The runtime flow controller: LUT + hysteresis + pump transition delay.

use vfc_liquid::{FlowSetting, Pump};
use vfc_units::{Celsius, Seconds, TemperatureDelta};

use crate::FlowLut;

/// The paper's flow-rate controller.
///
/// Every control interval (100 ms) it receives the forecast maximum
/// temperature and commands a pump setting:
///
/// * **up-switches** happen immediately (possibly jumping several
///   settings) whenever the forecast exceeds the current setting's
///   capability boundary;
/// * **down-switches** step one setting at a time and only once the
///   forecast is at least 2 °C below the boundary between the two
///   settings — the paper's oscillation-avoidance hysteresis;
/// * a commanded change only becomes *effective* after the pump's
///   250–300 ms mechanical transition; until then the previous flow keeps
///   cooling the stack (which is why the controller is fed forecasts, not
///   current readings).
#[derive(Debug, Clone)]
pub struct FlowController {
    lut: FlowLut,
    /// Effective (currently flowing) setting.
    current: FlowSetting,
    /// Commanded setting, reached after the transition completes.
    commanded: FlowSetting,
    /// Remaining transition time, if a transition is in flight.
    transition_left: f64,
    transition_time: f64,
    hysteresis: f64,
    switches: u64,
}

impl FlowController {
    /// Creates the controller with the paper's 2 °C hysteresis, starting
    /// at the pump's maximum setting (a safe cold-start).
    pub fn new(lut: FlowLut, pump: &Pump) -> Self {
        Self::with_hysteresis(lut, pump, TemperatureDelta::new(2.0))
    }

    /// Creates the controller with a custom hysteresis margin (the
    /// hysteresis ablation uses 0).
    pub fn with_hysteresis(lut: FlowLut, pump: &Pump, hysteresis: TemperatureDelta) -> Self {
        Self {
            lut,
            current: pump.max_setting(),
            commanded: pump.max_setting(),
            transition_left: 0.0,
            transition_time: pump.transition_time().value(),
            hysteresis: hysteresis.value().max(0.0),
            switches: 0,
        }
    }

    /// The setting currently delivering coolant.
    pub fn effective_setting(&self) -> FlowSetting {
        self.current
    }

    /// The setting the pump is transitioning toward (equals
    /// [`effective_setting`](Self::effective_setting) when idle).
    #[cfg(test)]
    pub(crate) fn commanded_setting(&self) -> FlowSetting {
        self.commanded
    }

    /// Number of setting changes commanded so far.
    pub fn switch_count(&self) -> u64 {
        self.switches
    }

    /// One control step: feed the forecast Tmax, advance time by `dt`,
    /// and return the effective setting for the coming interval.
    pub fn step(&mut self, predicted_tmax: Celsius, dt: Seconds) -> FlowSetting {
        // Complete any in-flight transition first.
        if self.transition_left > 0.0 {
            self.transition_left -= dt.value();
            if self.transition_left <= 0.0 {
                self.transition_left = 0.0;
                self.current = self.commanded;
            }
        }

        if self.transition_left == 0.0 && self.current == self.commanded {
            let required = self.lut.required_setting(self.current, predicted_tmax);
            if required > self.current {
                self.command(required);
            } else if required < self.current {
                // Step down one level, guarded by the hysteresis margin on
                // the boundary between the current and next-lower setting.
                let lower = FlowSetting::from_index(self.current.index() - 1);
                let boundary = self.lut.boundary(self.current, lower);
                if predicted_tmax.value() <= boundary.value() - self.hysteresis {
                    self.command(lower);
                }
            }
        }
        self.current
    }

    fn command(&mut self, setting: FlowSetting) {
        self.commanded = setting;
        self.transition_left = self.transition_time;
        self.switches += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic LUT with evenly spaced boundaries, bypassing the
    /// thermal model: boundary[s][s'] = 62 + 4.5*s' (independent of s) so
    /// required setting is ~(T-62)/4.5.
    fn synthetic() -> (FlowLut, Pump) {
        let pump = Pump::laing_ddc();
        let n = pump.setting_count();
        let mut boundary = vec![vec![0.0; n]; n];
        for row in boundary.iter_mut() {
            for (s2, b) in row.iter_mut().enumerate() {
                *b = 62.0 + 4.5 * s2 as f64;
            }
        }
        let lut = FlowLut::from_raw(boundary, Celsius::new(80.0));
        (lut, pump)
    }

    fn ms(v: f64) -> Seconds {
        Seconds::from_millis(v)
    }

    #[test]
    fn starts_at_max_and_descends_with_hysteresis() {
        let (lut, pump) = synthetic();
        let mut c = FlowController::new(lut, &pump);
        assert_eq!(c.effective_setting(), pump.max_setting());
        // Cool forecast: controller steps down one setting per transition.
        let cool = Celsius::new(60.0);
        let mut seen_min = false;
        for _ in 0..40 {
            let s = c.step(cool, ms(100.0));
            if s == FlowSetting::MIN {
                seen_min = true;
                break;
            }
        }
        assert!(seen_min, "controller should reach the minimum setting");
    }

    #[test]
    fn hot_forecast_jumps_up_immediately() {
        let (lut, pump) = synthetic();
        let mut c = FlowController::new(lut, &pump);
        // Walk down to min first.
        for _ in 0..40 {
            c.step(Celsius::new(58.0), ms(100.0));
        }
        assert_eq!(c.effective_setting(), FlowSetting::MIN);
        // A hot forecast commands the top setting in one decision...
        c.step(Celsius::new(85.0), ms(100.0));
        assert_eq!(c.commanded_setting(), pump.max_setting());
        // ...but the flow only changes after the pump transition (275 ms).
        assert_eq!(c.effective_setting(), FlowSetting::MIN);
        c.step(Celsius::new(85.0), ms(100.0));
        c.step(Celsius::new(85.0), ms(100.0));
        assert_eq!(c.effective_setting(), FlowSetting::MIN);
        c.step(Celsius::new(85.0), ms(100.0));
        assert_eq!(c.effective_setting(), pump.max_setting());
    }

    #[test]
    fn hysteresis_blocks_marginal_downswitches() {
        let (lut, pump) = synthetic();
        let mut c = FlowController::new(lut.clone(), &pump);
        // At max setting, the boundary to setting 3 is 62+4.5*3 = 75.5.
        // A forecast at 74.5 is below the boundary but within the 2 °C
        // hysteresis: no down-switch.
        for _ in 0..10 {
            c.step(Celsius::new(74.5), ms(100.0));
        }
        assert_eq!(c.effective_setting(), pump.max_setting());
        assert_eq!(c.switch_count(), 0);
        // 73.0 clears the 2 °C margin: down-switch begins.
        c.step(Celsius::new(73.0), ms(100.0));
        assert_eq!(
            c.commanded_setting().index(),
            pump.max_setting().index() - 1
        );
    }

    #[test]
    fn zero_hysteresis_oscillates_more() {
        let (lut, pump) = synthetic();
        let mut with = FlowController::new(lut.clone(), &pump);
        let mut without = FlowController::with_hysteresis(lut, &pump, TemperatureDelta::ZERO);
        // A forecast dithering around the 75.5 boundary.
        for i in 0..300 {
            let t = Celsius::new(75.5 + if i % 2 == 0 { 0.8 } else { -0.8 });
            with.step(t, ms(100.0));
            without.step(t, ms(100.0));
        }
        assert!(
            without.switch_count() > with.switch_count(),
            "hysteresis must reduce switching: {} vs {}",
            without.switch_count(),
            with.switch_count()
        );
    }

    #[test]
    fn no_decision_during_transition() {
        let (lut, pump) = synthetic();
        let mut c = FlowController::new(lut, &pump);
        c.step(Celsius::new(60.0), ms(100.0)); // command down (switch 1)
        let commanded = c.commanded_setting();
        // During the 275 ms transition further cool forecasts change nothing.
        c.step(Celsius::new(55.0), ms(100.0));
        assert_eq!(c.commanded_setting(), commanded);
        assert_eq!(c.switch_count(), 1);
    }
}
