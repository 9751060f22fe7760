//! Maximum-temperature forecasting (paper Sec. IV).
//!
//! The controller predicts the maximum temperature 500 ms ahead (5 samples
//! at the 100 ms sampling rate) so that the pump's 250–300 ms transition
//! completes *before* the heat-removal demand materializes — a reactive
//! policy would over-/under-cool (Sec. IV, "Temperature Monitoring and
//! Forecasting").
//!
//! * [`TemperaturePredictor`] — the type callers use: a rolling
//!   history window, automatic (re)fitting on SPRT alarms, and k-step-ahead
//!   forecasts, "using the existing model until the new one is ready".
//! * `ArmaModel` (crate-private) — autoregressive moving-average models
//!   fit online with the Hannan–Rissanen two-stage least-squares method;
//!   no offline analysis is needed, exactly as the paper requires.
//! * `Sprt` (crate-private) — the sequential probability ratio test of
//!   Gross & Humenik (Ref. 10) watching the residuals; when the predictor
//!   no longer fits the workload the test raises an alarm.
//!
//! # Example
//!
//! ```
//! use vfc_forecast::TemperaturePredictor;
//! use vfc_units::Celsius;
//!
//! let mut p = TemperaturePredictor::paper_default();
//! // Feed a slow thermal ramp; the ARMA fit locks on quickly.
//! for i in 0..60 {
//!     p.observe(Celsius::new(70.0 + 0.05 * i as f64));
//! }
//! let forecast = p.forecast().unwrap();
//! assert!((forecast.value() - 73.0).abs() < 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arma;
mod error;
mod predictor;
mod sprt;

pub use self::error::ForecastError;
pub use self::predictor::TemperaturePredictor;
