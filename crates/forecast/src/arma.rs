//! ARMA(p, q) estimation via the Hannan–Rissanen two-stage method.

use vfc_num::{lstsq, DenseMatrix};

use crate::ForecastError;

/// An autoregressive moving-average model
/// `x_t = μ + Σ φ_i·(x_{t−i} − μ) + Σ θ_j·e_{t−j} + e_t`.
///
/// Fitting uses Hannan–Rissanen: a long AR regression estimates the
/// innovations, then a second least-squares regression on lagged values
/// and lagged innovations yields `φ` and `θ`. Both stages are plain OLS,
/// so the model can be (re)fit online in microseconds — the property the
/// paper relies on for its "reconstruct the ARMA predictor at runtime"
/// step.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ArmaModel {
    phi: Vec<f64>,
    theta: Vec<f64>,
    mean: f64,
    sigma2: f64,
}

impl ArmaModel {
    /// Fits an ARMA(p, q) model to `series`.
    ///
    /// # Errors
    ///
    /// [`ForecastError::InvalidOrder`] for `(p, q) == (0, 0)`,
    /// [`ForecastError::InsufficientHistory`] when the series is shorter
    /// than the regression needs, or a numerical error from the solver.
    pub(crate) fn fit(series: &[f64], p: usize, q: usize) -> Result<Self, ForecastError> {
        if p == 0 && q == 0 {
            return Err(ForecastError::InvalidOrder);
        }
        // Stage 1: long AR to estimate innovations.
        let m = (p + q + 2).max(4);
        let required = m + (p.max(m) + q) + 8;
        if series.len() < required {
            return Err(ForecastError::InsufficientHistory {
                available: series.len(),
                required,
            });
        }
        let mean = vfc_num::stats::mean(series);
        let x: Vec<f64> = series.iter().map(|v| v - mean).collect();

        let ar_long = Self::ols_ar(&x, m)?;
        let mut innovations = vec![0.0; x.len()];
        for t in m..x.len() {
            let mut pred = 0.0;
            for (i, &a) in ar_long.iter().enumerate() {
                pred += a * x[t - 1 - i];
            }
            innovations[t] = x[t] - pred;
        }

        // Stage 2: regress x_t on p lags of x and q lags of the estimated
        // innovations.
        let start = m + p.max(q);
        let rows = x.len() - start;
        let cols = p + q;
        let mut a = DenseMatrix::zeros(rows, cols);
        let mut b = vec![0.0; rows];
        for (r, t) in (start..x.len()).enumerate() {
            for i in 0..p {
                a[(r, i)] = x[t - 1 - i];
            }
            for j in 0..q {
                a[(r, p + j)] = innovations[t - 1 - j];
            }
            b[r] = x[t];
        }
        let coef = lstsq::solve(&a, &b)?;
        let (phi, theta) = coef.split_at(p);
        // Enforce MA invertibility (Σ|θ| < 1): the innovation-filter
        // recursion in `residuals`/`forecast` diverges otherwise. Stage-2
        // OLS can land outside the region on near-deterministic signals.
        let theta_norm: f64 = theta.iter().map(|t| t.abs()).sum();
        let theta: Vec<f64> = if theta_norm >= 0.95 {
            theta.iter().map(|t| t * 0.95 / theta_norm).collect()
        } else {
            theta.to_vec()
        };

        // Residual variance of the stage-2 fit.
        let fitted = a.matvec(&coef);
        let sigma2 = fitted
            .iter()
            .zip(&b)
            .map(|(f, y)| (y - f) * (y - f))
            .sum::<f64>()
            / rows as f64;

        Ok(Self {
            phi: phi.to_vec(),
            theta,
            mean,
            sigma2,
        })
    }

    fn ols_ar(x: &[f64], order: usize) -> Result<Vec<f64>, ForecastError> {
        let rows = x.len() - order;
        let mut a = DenseMatrix::zeros(rows, order);
        let mut b = vec![0.0; rows];
        for (r, t) in (order..x.len()).enumerate() {
            for i in 0..order {
                a[(r, i)] = x[t - 1 - i];
            }
            b[r] = x[t];
        }
        Ok(lstsq::solve(&a, &b)?)
    }

    /// Innovation variance estimate.
    pub(crate) fn sigma2(&self) -> f64 {
        self.sigma2
    }

    /// One-step-ahead prediction given the recent history (newest last).
    /// Residuals needed by the MA part are reconstructed by filtering the
    /// history through the model.
    pub(crate) fn predict_next(&self, history: &[f64]) -> f64 {
        self.forecast(history, 1)
    }

    /// `k`-step-ahead forecast (future innovations taken at their mean 0).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub(crate) fn forecast(&self, history: &[f64], k: usize) -> f64 {
        assert!(k > 0, "forecast horizon must be at least 1");
        let p = self.phi.len();
        let q = self.theta.len();
        let mut x: Vec<f64> = history.iter().map(|v| v - self.mean).collect();
        // Reconstruct in-sample innovations.
        let mut e = vec![0.0; x.len()];
        for t in 0..x.len() {
            let mut pred = 0.0;
            for i in 0..p.min(t) {
                pred += self.phi[i] * x[t - 1 - i];
            }
            for j in 0..q.min(t) {
                pred += self.theta[j] * e[t - 1 - j];
            }
            e[t] = x[t] - pred;
        }
        // Roll forward k steps with zero future innovations.
        for _ in 0..k {
            let t = x.len();
            let mut pred = 0.0;
            for i in 0..p.min(t) {
                pred += self.phi[i] * x[t - 1 - i];
            }
            for j in 0..q.min(t) {
                pred += self.theta[j] * e[t - 1 - j];
            }
            x.push(pred);
            e.push(0.0);
        }
        x[x.len() - 1] + self.mean
    }

    /// In-sample one-step residuals over a history window (used to drive
    /// the SPRT health check).
    #[cfg(test)]
    pub(crate) fn residuals(&self, history: &[f64]) -> Vec<f64> {
        let p = self.phi.len();
        let q = self.theta.len();
        let x: Vec<f64> = history.iter().map(|v| v - self.mean).collect();
        let mut e = vec![0.0; x.len()];
        for t in 0..x.len() {
            let mut pred = 0.0;
            for i in 0..p.min(t) {
                pred += self.phi[i] * x[t - 1 - i];
            }
            for j in 0..q.min(t) {
                pred += self.theta[j] * e[t - 1 - j];
            }
            e[t] = x[t] - pred;
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Generates a synthetic ARMA(1,1) series with known coefficients.
    fn synth_arma(n: usize, phi: f64, theta: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = vec![0.0; n];
        let mut e_prev = 0.0;
        for t in 1..n {
            let e: f64 = rng.random_range(-0.5..0.5);
            x[t] = phi * x[t - 1] + theta * e_prev + e;
            e_prev = e;
        }
        x.iter().map(|v| v + 75.0).collect()
    }

    #[test]
    fn recovers_ar_coefficient() {
        let series = synth_arma(2000, 0.8, 0.0, 1);
        let m = ArmaModel::fit(&series, 1, 0).unwrap();
        assert!((m.phi[0] - 0.8).abs() < 0.05, "phi {:?}", m.phi);
        assert!((m.mean - 75.0).abs() < 0.5);
    }

    #[test]
    fn arma11_fit_has_white_residuals() {
        let series = synth_arma(3000, 0.7, 0.4, 2);
        let m = ArmaModel::fit(&series, 1, 1).unwrap();
        let resid = m.residuals(&series.iter().map(|v| *v).collect::<Vec<_>>());
        // Residual lag-1 autocorrelation should be near zero if the model
        // captured the dynamics.
        let r0 = vfc_num::stats::autocovariance(&resid, 0);
        let r1 = vfc_num::stats::autocovariance(&resid, 1);
        assert!((r1 / r0).abs() < 0.08, "lag-1 autocorr {}", r1 / r0);
    }

    #[test]
    fn forecast_tracks_trend() {
        // Near-unit-root series: forecasts continue the ramp.
        let series: Vec<f64> = (0..200).map(|i| 60.0 + 0.05 * i as f64).collect();
        let m = ArmaModel::fit(&series, 2, 1).unwrap();
        let f5 = m.forecast(&series, 5);
        let expected = 60.0 + 0.05 * 204.0;
        assert!((f5 - expected).abs() < 0.5, "forecast {f5} vs {expected}");
    }

    #[test]
    fn constant_series_predicts_constant() {
        let series = vec![72.0; 100];
        let m = ArmaModel::fit(&series, 2, 1).unwrap();
        assert!((m.forecast(&series, 5) - 72.0).abs() < 1e-6);
        assert!(m.sigma2() < 1e-12);
    }

    #[test]
    fn order_and_history_validation() {
        assert!(matches!(
            ArmaModel::fit(&[1.0; 100], 0, 0),
            Err(ForecastError::InvalidOrder)
        ));
        assert!(matches!(
            ArmaModel::fit(&[1.0, 2.0, 3.0], 2, 1),
            Err(ForecastError::InsufficientHistory { .. })
        ));
    }

    #[test]
    fn multi_step_reduces_to_iterated_one_step_for_ar1() {
        let series = synth_arma(500, 0.9, 0.0, 3);
        let m = ArmaModel::fit(&series, 1, 0).unwrap();
        let one = m.forecast(&series, 1) - m.mean;
        let two = m.forecast(&series, 2) - m.mean;
        assert!((two - m.phi[0] * one).abs() < 1e-9);
    }
}
