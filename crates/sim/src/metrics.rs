//! Metric accumulation over the sampling intervals.

use vfc_units::{Celsius, Energy, Seconds, TemperatureDelta, Watts};

use crate::SwingDetector;

/// Accumulates the paper's evaluation metrics sample by sample.
#[derive(Debug)]
pub struct MetricsCollector {
    hot_threshold: f64,
    gradient_threshold: f64,
    target: f64,
    samples: usize,
    hot_samples: usize,
    gradient_samples: usize,
    gradient_minor_samples: usize,
    above_target_samples: usize,
    cycle_events: u64,
    cycle_minor_events: u64,
    swing_detectors: Vec<SwingDetector>,
    minor_swing_detectors: Vec<SwingDetector>,
    chip_energy: f64,
    pump_energy: f64,
    tmax_sum: f64,
    tmax_peak: f64,
}

impl MetricsCollector {
    /// Creates a collector for `cores` cores.
    pub(crate) fn new(
        cores: usize,
        hot_threshold: Celsius,
        gradient_threshold: TemperatureDelta,
        cycle_threshold: TemperatureDelta,
        target: Celsius,
    ) -> Self {
        Self {
            hot_threshold: hot_threshold.value(),
            gradient_threshold: gradient_threshold.value(),
            target: target.value(),
            samples: 0,
            hot_samples: 0,
            gradient_samples: 0,
            gradient_minor_samples: 0,
            above_target_samples: 0,
            cycle_events: 0,
            cycle_minor_events: 0,
            swing_detectors: (0..cores)
                .map(|_| SwingDetector::new(cycle_threshold))
                .collect(),
            minor_swing_detectors: (0..cores)
                .map(|_| SwingDetector::new(cycle_threshold / 2.0))
                .collect(),
            chip_energy: 0.0,
            pump_energy: 0.0,
            tmax_sum: 0.0,
            tmax_peak: f64::NEG_INFINITY,
        }
    }

    /// Records one 100 ms sample.
    ///
    /// `core_temps` are the per-core sensor readings, `gradient` the
    /// block-level spatial spread, `chip_power`/`pump_power` the powers
    /// billed over the interval `dt`.
    pub(crate) fn record_sample(
        &mut self,
        core_temps: &[Celsius],
        gradient: TemperatureDelta,
        chip_power: Watts,
        pump_power: Watts,
        dt: Seconds,
    ) {
        self.samples += 1;
        let tmax = core_temps
            .iter()
            .map(|c| c.value())
            .fold(f64::NEG_INFINITY, f64::max);
        if tmax > self.hot_threshold {
            self.hot_samples += 1;
        }
        if tmax > self.target {
            self.above_target_samples += 1;
        }
        if gradient.value() > self.gradient_threshold {
            self.gradient_samples += 1;
        }
        if gradient.value() > self.gradient_threshold / 2.0 {
            self.gradient_minor_samples += 1;
        }
        for (d, t) in self.swing_detectors.iter_mut().zip(core_temps) {
            if d.feed(t.value()) {
                self.cycle_events += 1;
            }
        }
        for (d, t) in self.minor_swing_detectors.iter_mut().zip(core_temps) {
            if d.feed(t.value()) {
                self.cycle_minor_events += 1;
            }
        }
        self.chip_energy += chip_power.value() * dt.value();
        self.pump_energy += pump_power.value() * dt.value();
        self.tmax_sum += tmax;
        self.tmax_peak = self.tmax_peak.max(tmax);
    }

    /// Number of samples recorded.
    pub(crate) fn samples(&self) -> usize {
        self.samples
    }

    /// Percentage of samples with any core above the hot-spot threshold.
    pub(crate) fn hot_spot_pct(&self) -> f64 {
        self.pct(self.hot_samples)
    }

    /// Percentage of samples with Tmax above the controller target.
    pub(crate) fn above_target_pct(&self) -> f64 {
        self.pct(self.above_target_samples)
    }

    /// Percentage of samples whose spatial gradient exceeds the threshold.
    pub(crate) fn gradient_pct(&self) -> f64 {
        self.pct(self.gradient_samples)
    }

    /// Percentage of samples whose gradient exceeds half the threshold
    /// (supplementary sensitivity row; our grid-level block temperatures
    /// are smoother than HotSpot's 100 µm cells, see EXPERIMENTS.md).
    pub(crate) fn gradient_minor_pct(&self) -> f64 {
        self.pct(self.gradient_minor_samples)
    }

    /// Thermal-cycle events per core-sample, in percent (Fig. 7's
    /// "% thermal cycles > 20 °C").
    pub(crate) fn cycle_pct(&self) -> f64 {
        if self.samples == 0 || self.swing_detectors.is_empty() {
            return 0.0;
        }
        100.0 * self.cycle_events as f64 / (self.samples as f64 * self.swing_detectors.len() as f64)
    }

    /// Cycle events at half the threshold, per core-sample, in percent
    /// (supplementary sensitivity row).
    pub(crate) fn cycle_minor_pct(&self) -> f64 {
        if self.samples == 0 || self.minor_swing_detectors.is_empty() {
            return 0.0;
        }
        100.0 * self.cycle_minor_events as f64
            / (self.samples as f64 * self.minor_swing_detectors.len() as f64)
    }

    /// Total chip (dynamic + leakage) energy.
    pub(crate) fn chip_energy(&self) -> Energy {
        Energy::new(self.chip_energy)
    }

    /// Total pump energy.
    pub(crate) fn pump_energy(&self) -> Energy {
        Energy::new(self.pump_energy)
    }

    /// Mean of the per-sample maximum temperature.
    pub(crate) fn mean_tmax(&self) -> Celsius {
        Celsius::new(if self.samples == 0 {
            f64::NAN
        } else {
            self.tmax_sum / self.samples as f64
        })
    }

    /// Peak maximum temperature.
    pub(crate) fn peak_tmax(&self) -> Celsius {
        Celsius::new(self.tmax_peak)
    }

    fn pct(&self, count: usize) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            100.0 * count as f64 / self.samples as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector() -> MetricsCollector {
        MetricsCollector::new(
            2,
            Celsius::new(85.0),
            TemperatureDelta::new(15.0),
            TemperatureDelta::new(20.0),
            Celsius::new(80.0),
        )
    }

    #[test]
    fn percentages_and_energy() {
        let mut m = collector();
        let dt = Seconds::from_millis(100.0);
        // Sample 1: cool, no gradient.
        m.record_sample(
            &[Celsius::new(70.0), Celsius::new(72.0)],
            TemperatureDelta::new(5.0),
            Watts::new(30.0),
            Watts::new(12.0),
            dt,
        );
        // Sample 2: hot spot + gradient.
        m.record_sample(
            &[Celsius::new(86.0), Celsius::new(65.0)],
            TemperatureDelta::new(21.0),
            Watts::new(40.0),
            Watts::new(21.0),
            dt,
        );
        assert_eq!(m.samples(), 2);
        assert_eq!(m.hot_spot_pct(), 50.0);
        assert_eq!(m.gradient_pct(), 50.0);
        assert_eq!(m.above_target_pct(), 50.0);
        assert!((m.chip_energy().value() - 7.0).abs() < 1e-9);
        assert!((m.pump_energy().value() - 3.3).abs() < 1e-9);
        assert_eq!(m.peak_tmax(), Celsius::new(86.0));
        assert!((m.mean_tmax().value() - 79.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_counting_via_detectors() {
        let mut m = collector();
        let dt = Seconds::from_millis(100.0);
        // Core 0 swings 60→85→60 twice; core 1 stays flat.
        let wave = [60.0, 85.0, 60.0, 85.0, 60.0, 85.0];
        for &v in &wave {
            m.record_sample(
                &[Celsius::new(v), Celsius::new(70.0)],
                TemperatureDelta::new(1.0),
                Watts::new(30.0),
                Watts::ZERO,
                dt,
            );
        }
        assert!(m.cycle_pct() > 0.0);
    }

    #[test]
    fn empty_collector_is_zero() {
        let m = collector();
        assert_eq!(m.hot_spot_pct(), 0.0);
        assert_eq!(m.cycle_pct(), 0.0);
    }
}
