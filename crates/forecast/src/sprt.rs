//! Sequential probability ratio test on prediction residuals
//! (Gross & Humenik, Ref. [10]).

/// Outcome of feeding one residual to the test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SprtDecision {
    /// Evidence is inconclusive; keep monitoring.
    Continue,
    /// H0 accepted (residuals centered); statistics reset.
    Healthy,
    /// H1 accepted: the residual mean has shifted — the predictor no
    /// longer fits the workload and must be reconstructed.
    Alarm,
}

/// Two-sided SPRT monitoring whether prediction residuals have drifted
/// from zero mean — "a logarithmic likelihood test to decide whether the
/// error between the predicted and measured series is diverging from
/// zero" (paper Sec. IV).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) struct Sprt {
    /// Magnitude of the mean shift hypothesized under H1 (same unit as
    /// the residuals, °C here).
    shift: f64,
    /// Residual variance under H0.
    variance: f64,
    /// Log-threshold for accepting H1: `ln((1−β)/α)`.
    upper: f64,
    /// Log-threshold for accepting H0: `ln(β/(1−α))`.
    lower: f64,
    /// Running log-likelihood ratios for the positive and negative shift
    /// hypotheses.
    llr_pos: f64,
    llr_neg: f64,
}

impl Sprt {
    /// Creates a detector.
    ///
    /// `shift` is the smallest residual-mean drift considered a fault;
    /// `variance` the residual variance under healthy operation; `alpha` /
    /// `beta` the false-/missed-alarm probabilities.
    ///
    /// # Panics
    ///
    /// Panics unless `shift > 0`, `variance > 0` and
    /// `alpha, beta ∈ (0, 1)`.
    pub(crate) fn new(shift: f64, variance: f64, alpha: f64, beta: f64) -> Self {
        assert!(shift > 0.0, "shift must be positive");
        assert!(variance > 0.0, "variance must be positive");
        assert!((0.0..1.0).contains(&alpha) && alpha > 0.0, "alpha in (0,1)");
        assert!((0.0..1.0).contains(&beta) && beta > 0.0, "beta in (0,1)");
        Self {
            shift,
            variance,
            upper: ((1.0 - beta) / alpha).ln(),
            lower: (beta / (1.0 - alpha)).ln(),
            llr_pos: 0.0,
            llr_neg: 0.0,
        }
    }

    /// A configuration suited to sub-degree temperature residuals:
    /// alarm on a 0.5 °C sustained bias with 1%/1% error rates.
    pub(crate) fn for_temperature_residuals() -> Self {
        Self::new(0.5, 0.1, 0.01, 0.01)
    }

    /// Feeds one residual; returns the decision.
    pub(crate) fn update(&mut self, residual: f64) -> SprtDecision {
        // LLR increment for a Gaussian mean-shift test:
        // (m/σ²)·(x − m/2) for the positive shift, mirrored for negative.
        let m = self.shift;
        self.llr_pos += m / self.variance * (residual - m / 2.0);
        self.llr_neg += m / self.variance * (-residual - m / 2.0);
        // Clamp at the H0 boundary (Wald's test restarts from 0).
        if self.llr_pos <= self.lower {
            self.llr_pos = 0.0;
        }
        if self.llr_neg <= self.lower {
            self.llr_neg = 0.0;
        }
        if self.llr_pos >= self.upper || self.llr_neg >= self.upper {
            self.reset();
            return SprtDecision::Alarm;
        }
        if self.llr_pos == 0.0 && self.llr_neg == 0.0 {
            return SprtDecision::Healthy;
        }
        SprtDecision::Continue
    }

    /// Clears the accumulated statistics.
    pub(crate) fn reset(&mut self) {
        self.llr_pos = 0.0;
        self.llr_neg = 0.0;
    }

    /// Rescales the healthy-residual variance (after a refit).
    pub(crate) fn set_variance(&mut self, variance: f64) {
        if variance > 0.0 {
            self.variance = variance;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn noise(rng: &mut StdRng, sigma: f64) -> f64 {
        // Sum of uniforms ≈ Gaussian; adequate for the test.
        let s: f64 = (0..12).map(|_| rng.random::<f64>()).sum::<f64>() - 6.0;
        s * sigma
    }

    #[test]
    fn healthy_residuals_do_not_alarm() {
        let mut sprt = Sprt::for_temperature_residuals();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5000 {
            let d = sprt.update(noise(&mut rng, 0.1));
            assert_ne!(d, SprtDecision::Alarm);
        }
    }

    #[test]
    fn sustained_bias_alarms_quickly() {
        let mut sprt = Sprt::for_temperature_residuals();
        let mut rng = StdRng::seed_from_u64(6);
        let mut steps = 0;
        loop {
            steps += 1;
            if sprt.update(0.8 + noise(&mut rng, 0.1)) == SprtDecision::Alarm {
                break;
            }
            assert!(steps < 100, "should alarm fast on a 0.8C bias");
        }
        assert!(steps <= 10, "alarmed after {steps} samples");
    }

    #[test]
    fn negative_bias_also_alarms() {
        let mut sprt = Sprt::for_temperature_residuals();
        let mut alarmed = false;
        for _ in 0..50 {
            if sprt.update(-1.0) == SprtDecision::Alarm {
                alarmed = true;
                break;
            }
        }
        assert!(alarmed);
    }

    #[test]
    fn alarm_resets_statistics() {
        let mut sprt = Sprt::for_temperature_residuals();
        let mut count = 0;
        for _ in 0..6 {
            if sprt.update(2.0) == SprtDecision::Alarm {
                count += 1;
            }
        }
        // After each alarm the LLR restarts; several alarms occur.
        assert!(count >= 2);
    }

    #[test]
    #[should_panic(expected = "shift must be positive")]
    fn invalid_shift_rejected() {
        let _ = Sprt::new(0.0, 1.0, 0.01, 0.01);
    }
}
