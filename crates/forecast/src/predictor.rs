//! The online maximum-temperature predictor: rolling window + ARMA +
//! SPRT-triggered refits.

use std::collections::VecDeque;

use vfc_units::Celsius;

use crate::{ArmaModel, Sprt, SprtDecision};

/// Online predictor of the maximum temperature signal.
///
/// Sampling and horizon defaults follow the paper: 100 ms samples,
/// 500 ms (5-step) forecasts. The ARMA model is fit from the rolling
/// history; an SPRT on the one-step residuals triggers reconstruction
/// when the workload trend changes, and "the existing model is used until
/// the new one is ready" — here the refit is synchronous but the old
/// model serves if fitting fails (e.g. degenerate history).
#[derive(Debug, Clone)]
pub struct TemperaturePredictor {
    history: VecDeque<f64>,
    capacity: usize,
    p: usize,
    q: usize,
    horizon: usize,
    model: Option<ArmaModel>,
    sprt: Sprt,
    refits: u64,
    /// Rolling absolute one-step error statistics.
    abs_err_sum: f64,
    err_count: u64,
    /// Last one-step prediction, compared against the next observation.
    pending_prediction: Option<f64>,
}

impl TemperaturePredictor {
    /// The paper's configuration: ARMA(2,1), 5-step horizon, 50-sample
    /// (5 s) fitting window.
    pub fn paper_default() -> Self {
        Self::new(2, 1, 5, 50)
    }

    /// Creates a predictor with explicit ARMA order, forecast horizon
    /// (in samples) and history window.
    ///
    /// # Panics
    ///
    /// Panics if `horizon == 0` or `window < 16`.
    pub(crate) fn new(p: usize, q: usize, horizon: usize, window: usize) -> Self {
        assert!(horizon > 0, "horizon must be positive");
        assert!(window >= 16, "window too small to fit a model");
        Self {
            history: VecDeque::with_capacity(window),
            capacity: window,
            p,
            q,
            horizon,
            model: None,
            sprt: Sprt::for_temperature_residuals(),
            refits: 0,
            abs_err_sum: 0.0,
            err_count: 0,
            pending_prediction: None,
        }
    }

    /// Number of (re)fits performed, including the initial fit.
    pub fn refit_count(&self) -> u64 {
        self.refits
    }

    /// Mean absolute one-step prediction error observed so far (the paper
    /// reports accuracy "well below 1 °C").
    pub fn mean_abs_error(&self) -> Option<f64> {
        (self.err_count > 0).then(|| self.abs_err_sum / self.err_count as f64)
    }

    /// Feeds one observation of the maximum temperature.
    pub fn observe(&mut self, sample: Celsius) {
        let v = sample.value();
        // Score the pending one-step prediction and drive the SPRT.
        if let Some(pred) = self.pending_prediction.take() {
            let residual = v - pred;
            self.abs_err_sum += residual.abs();
            self.err_count += 1;
            if self.sprt.update(residual) == SprtDecision::Alarm {
                self.refit();
            }
        }
        if self.history.len() == self.capacity {
            self.history.pop_front();
        }
        self.history.push_back(v);

        if self.model.is_none() && self.history.len() >= self.capacity.min(32) {
            self.refit();
        }
        // Stage the next one-step prediction.
        if let Some(m) = &self.model {
            let h: Vec<f64> = self.history.iter().copied().collect();
            self.pending_prediction = Some(m.predict_next(&h));
        }
    }

    /// Forecasts the maximum temperature `horizon` samples ahead.
    /// Returns `None` until enough history has accumulated for the first
    /// fit.
    pub fn forecast(&self) -> Option<Celsius> {
        let m = self.model.as_ref()?;
        let h: Vec<f64> = self.history.iter().copied().collect();
        let raw = m.forecast(&h, self.horizon);
        // Physical sanity band: a 500 ms horizon cannot move the maximum
        // temperature far outside the recent window; a model gone stale
        // between SPRT alarms must not command the controller with an
        // absurd value.
        let lo = h.iter().copied().fold(f64::INFINITY, f64::min) - 5.0;
        let hi = h.iter().copied().fold(f64::NEG_INFINITY, f64::max) + 5.0;
        Some(Celsius::new(raw.clamp(lo, hi)))
    }

    /// Forces a model reconstruction from the current history (also
    /// invoked automatically on SPRT alarms).
    pub(crate) fn refit(&mut self) {
        let h: Vec<f64> = self.history.iter().copied().collect();
        match ArmaModel::fit(&h, self.p, self.q) {
            Ok(m) => {
                self.sprt.set_variance(m.sigma2().max(1e-4));
                self.sprt.reset();
                self.model = Some(m);
                self.refits += 1;
            }
            Err(_) => {
                // Keep using the previous model (paper: "use the existing
                // model until the new one is ready").
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_ramp(p: &mut TemperaturePredictor, start: f64, slope: f64, n: usize) {
        for i in 0..n {
            p.observe(Celsius::new(start + slope * i as f64));
        }
    }

    #[test]
    fn forecast_unavailable_until_fit() {
        let mut p = TemperaturePredictor::paper_default();
        assert!(p.forecast().is_none());
        feed_ramp(&mut p, 70.0, 0.0, 10);
        assert!(p.forecast().is_none());
        feed_ramp(&mut p, 70.0, 0.0, 40);
        assert!(p.forecast().is_some());
    }

    #[test]
    fn steady_signal_forecast_is_accurate() {
        let mut p = TemperaturePredictor::paper_default();
        feed_ramp(&mut p, 75.0, 0.0, 60);
        let f = p.forecast().unwrap();
        assert!((f.value() - 75.0).abs() < 0.05, "{f}");
        // Accuracy claim: "well below 1°C".
        assert!(p.mean_abs_error().unwrap() < 0.1);
    }

    #[test]
    fn ramp_is_extrapolated() {
        let mut p = TemperaturePredictor::paper_default();
        feed_ramp(&mut p, 70.0, 0.1, 60);
        let f = p.forecast().unwrap();
        // Last sample 75.9; 5 steps ahead ≈ 76.4.
        assert!(f.value() > 75.95, "forecast should lead the ramp: {f}");
        assert!(f.value() < 77.5, "forecast should stay plausible: {f}");
    }

    #[test]
    fn trend_break_triggers_refit() {
        let mut p = TemperaturePredictor::paper_default();
        feed_ramp(&mut p, 70.0, 0.0, 60);
        let fits_before = p.refit_count();
        // Day→night style regime change: sharp sustained rise.
        feed_ramp(&mut p, 78.0, 0.05, 40);
        assert!(
            p.refit_count() > fits_before,
            "SPRT should trigger reconstruction on a regime change"
        );
    }

    #[test]
    fn sinusoid_tracking_error_is_below_one_degree() {
        let mut p = TemperaturePredictor::paper_default();
        // Slow thermal oscillation (repeating ~20 s period at 100 ms).
        for i in 0..600 {
            let t = 75.0 + 3.0 * (i as f64 * 0.03).sin();
            p.observe(Celsius::new(t));
        }
        assert!(
            p.mean_abs_error().unwrap() < 0.5,
            "mean abs error {:?}",
            p.mean_abs_error()
        );
    }
}
