//! Thermal-cycle (temperature swing) detection for Fig. 7's metric.

use vfc_units::TemperatureDelta;

/// Detects completed temperature swings on one signal.
///
/// A cycle event is recorded when the signal reverses direction after a
/// monotonic excursion of at least `threshold` (20 °C in Fig. 7). Small
/// reversals below `reversal_eps` are treated as noise, mirroring the
/// sliding-history-window approach of the paper.
#[derive(Debug, Clone)]
pub struct SwingDetector {
    threshold: f64,
    reversal_eps: f64,
    /// Value at the start of the current excursion.
    anchor: Option<f64>,
    /// Running extreme of the current excursion.
    extreme: f64,
    /// +1 rising, -1 falling, 0 undetermined.
    direction: i8,
}

impl SwingDetector {
    /// Creates a detector with the given swing threshold and a 0.5 °C
    /// reversal filter.
    pub(crate) fn new(threshold: TemperatureDelta) -> Self {
        Self {
            threshold: threshold.value(),
            reversal_eps: 0.5,
            anchor: None,
            extreme: 0.0,
            direction: 0,
        }
    }

    /// Feeds one sample; returns `true` when a swing of at least the
    /// threshold completes at this sample.
    pub(crate) fn feed(&mut self, value: f64) -> bool {
        let Some(anchor) = self.anchor else {
            self.anchor = Some(value);
            self.extreme = value;
            return false;
        };
        match self.direction {
            0 => {
                if (value - self.extreme).abs() >= self.reversal_eps {
                    self.direction = if value > self.extreme { 1 } else { -1 };
                    self.extreme = value;
                }
                false
            }
            1 => {
                if value > self.extreme {
                    self.extreme = value;
                    false
                } else if self.extreme - value >= self.reversal_eps {
                    let swing = self.extreme - anchor;
                    self.anchor = Some(self.extreme);
                    self.extreme = value;
                    self.direction = -1;
                    swing >= self.threshold
                } else {
                    false
                }
            }
            _ => {
                if value < self.extreme {
                    self.extreme = value;
                    false
                } else if value - self.extreme >= self.reversal_eps {
                    let swing = anchor - self.extreme;
                    self.anchor = Some(self.extreme);
                    self.extreme = value;
                    self.direction = 1;
                    swing >= self.threshold
                } else {
                    false
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> SwingDetector {
        SwingDetector::new(TemperatureDelta::new(20.0))
    }

    #[test]
    fn large_swing_is_counted_once() {
        let mut d = detector();
        let mut events = 0;
        // 60 → 85 → 60: one 25° up-swing completes at the reversal.
        for v in [60.0, 70.0, 80.0, 85.0, 80.0, 70.0, 60.0] {
            if d.feed(v) {
                events += 1;
            }
        }
        assert_eq!(events, 1);
        // The down-swing completes on the next clear rise.
        assert!(d.feed(75.0));
    }

    #[test]
    fn small_oscillations_are_ignored() {
        let mut d = detector();
        let mut events = 0;
        for i in 0..200 {
            let v = 70.0 + 5.0 * ((i % 10) as f64 / 10.0 - 0.5);
            if d.feed(v) {
                events += 1;
            }
        }
        assert_eq!(events, 0, "5° wiggles are not 20° cycles");
    }

    #[test]
    fn dpm_style_square_wave_counts_every_half_cycle() {
        let mut d = detector();
        let mut events = 0;
        for _ in 0..5 {
            for _ in 0..10 {
                if d.feed(88.0) {
                    events += 1;
                }
            }
            for _ in 0..10 {
                if d.feed(55.0) {
                    events += 1;
                }
            }
        }
        // 5 periods → ~10 half-swings; the first fall establishes the
        // direction without an anchored excursion, so 8–10 events.
        assert!((8..=10).contains(&events), "events {events}");
    }

    #[test]
    fn noise_filter_suppresses_jitter_reversals() {
        let mut d = detector();
        let mut events = 0;
        // A rising ramp with 0.2° jitter must not register reversals.
        for i in 0..100 {
            let v = 50.0 + 0.5 * i as f64 + if i % 2 == 0 { 0.2 } else { 0.0 };
            if d.feed(v) {
                events += 1;
            }
        }
        assert_eq!(events, 0);
    }
}
