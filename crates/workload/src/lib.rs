//! Workload characterization and synthetic short-thread generation.
//!
//! The paper characterizes eight real workloads on an UltraSPARC T1 with
//! `mpstat`/DTrace (Table II) and replays their statistics in simulation.
//! Real traces are not available offline, so this crate substitutes a
//! seeded stochastic generator calibrated to the same statistics
//! (DESIGN.md §4.1): short threads (a few to several hundred ms, as
//! reported for T1 server workloads) arriving as a Poisson process whose
//! rate matches each benchmark's average utilization.
//!
//! # Example
//!
//! ```
//! use vfc_workload::{Benchmark, WorkloadGenerator};
//! use vfc_units::Seconds;
//!
//! let bench = Benchmark::table_ii()[1]; // Web-high, 92.87% utilization
//! let mut gen = WorkloadGenerator::new(bench, 8, 42);
//! let mut arrived = 0;
//! for _ in 0..1000 {
//!     arrived += gen.poll(Seconds::from_millis(1.0)).len();
//! }
//! assert!(arrived > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod benchmark;
mod generator;
mod thread;
mod trace;

pub use self::benchmark::Benchmark;
pub use self::generator::WorkloadGenerator;
pub use self::thread::ThreadSpec;
pub use self::trace::PhasedWorkload;
