//! The co-simulation engine (paper Sec. V).
//!
//! Ties every substrate together into the paper's evaluation loop:
//!
//! * a 1 ms scheduler tick runs the per-core dispatch queues, the active
//!   scheduling policy (LB / Mig. / TALB) and DPM;
//! * every 100 ms the engine bills block powers (state-based core power,
//!   activity-scaled L2/crossbar, temperature-dependent leakage), advances
//!   the thermal RC network by backward-Euler sub-steps, updates the
//!   metrics, then samples the per-core sensors and runs the ARMA
//!   forecaster and the flow-rate controller;
//! * metrics match the paper's figures: % of time above the 85 °C hot-spot
//!   threshold (Fig. 6), % of samples with spatial gradients > 15 °C and
//!   thermal cycles > 20 °C (Fig. 7), chip/pump energy and normalized
//!   throughput (Fig. 6/8).
//!
//! # Example
//!
//! ```no_run
//! use vfc_sim::{SimConfig, Simulation, SystemKind, CoolingKind, PolicyKind};
//! use vfc_workload::Benchmark;
//!
//! let cfg = SimConfig::new(
//!     SystemKind::TwoLayer,
//!     CoolingKind::LiquidVariable,
//!     PolicyKind::Talb,
//!     Benchmark::by_name("gzip").unwrap(),
//! )
//! .with_duration(vfc_units::Seconds::new(20.0));
//! let report = Simulation::new(cfg).unwrap().run().unwrap();
//! assert!(report.max_temperature.value() < 85.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache_key;
mod config;
mod cycles;
mod engine;
mod error;
mod metrics;
mod results;

pub use self::config::{CoolingKind, PolicyKind, SimConfig, SystemKind};
pub use self::cycles::SwingDetector;
pub use self::engine::Simulation;
pub use self::error::SimError;
pub use self::metrics::MetricsCollector;
pub use self::results::SimReport;
pub use vfc_faults::{ChannelClog, FaultTimeline, PumpFault, SensorFault};
