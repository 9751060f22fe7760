//! The variable-flow-rate controller (paper Sec. IV).
//!
//! The controller's input is the forecast maximum temperature; its output
//! is the pump flow setting for the next interval. Everything is table
//! driven, exactly as in the paper: a steady-state characterization sweep
//! ([`characterize`]) determines, for every discrete flow setting, the
//! heat-removal demand it can hold below the 80 °C target; the resulting
//! boundary temperatures form a look-up table ([`FlowLut`], the runtime
//! generalization of Fig. 5); and [`FlowController`] applies the table
//! with the paper's 2 °C down-switch hysteresis and the pump's 250–300 ms
//! transition delay.
//!
//! The same characterization machinery also produces TALB's thermal
//! weights: [`balanced_power_rows`] pins all core cells at a balance
//! temperature, solves the mixed boundary problem, and recovers the
//! per-core power budgets whose normalized inverses weight the scheduler
//! queues (Sec. IV, "Job Scheduling").
//!
//! The controller trusts its inputs: under injected sensor faults
//! (`vfc_faults`) the engine feeds it the *observed* — possibly noisy,
//! stuck or stale — temperatures, never the plant truth, so a corrupted
//! sensor degrades control quality exactly as it would on hardware.
//! Commanded flow is likewise the controller's belief; an injected pump
//! fault derates what the plant actually receives downstream of it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod balance;
mod characterize;
mod controller;
mod error;
mod lut;

pub use self::balance::balanced_power_rows;
pub use self::characterize::{characterize, characterize_skeleton, Characterization};
pub use self::controller::FlowController;
pub use self::error::ControlError;
pub use self::lut::FlowLut;
