//! Grid-level RC thermal model for 3D stacked architectures with
//! interlayer microchannel liquid cooling.
//!
//! This crate reimplements, from scratch, the modeling infrastructure of
//! Sec. III of the paper — the HotSpot-style grid RC network extended with:
//!
//! * per-cell heterogeneous interlayer material (bond, TSV-enhanced bond,
//!   microchannel cavities), Sec. III-A novelty (1);
//! * runtime-varying microchannel cell conductances as a function of the
//!   coolant flow rate, Sec. III-A novelty (2);
//! * coolant advection along each channel, reproducing the iterative
//!   sensible-heat accumulation of Eq. 4–5 (`ΔTheat`), the convective drop
//!   of Eq. 6–7 (`ΔTconv`) and the BEOL conduction drop of Eq. 2–3
//!   (`ΔTcond`);
//! * a conventional air-cooled package (TIM + copper spreader + heat sink
//!   with Table III's 0.1 K/W / 140 J/K) for the baseline comparisons.
//!
//! The network is solved with [`vfc_num::BiCgStab`] (advection makes the
//! conductance matrix nonsymmetric): steady state for initialization and
//! characterization, backward-Euler transients for simulation. The solver
//! is preconditioned by the grid's pick (ILU(0) up to 0.25 mm cells,
//! V(0,1) multigrid on the paper's 100 µm grid) unless [`SolverConfig`]
//! overrides it; factorizations and Krylov scratch space are cached per
//! model and invalidated only on flow changes.
//!
//! Because the conduction topology is fixed by the stack geometry and
//! only cavity conductances/advection vary with flow, assembly is split
//! into an immutable per-grid [`StackSkeleton`] and a cheap per-flow
//! [`FlowPatch`]; a [`ThermalModelFamily`] holds one model per pump
//! setting, all sharing the skeleton's CSR index arrays.
//!
//! # Example
//!
//! ```
//! use vfc_floorplan::{ultrasparc, GridSpec};
//! use vfc_thermal::{StackThermalBuilder, ThermalConfig};
//! use vfc_units::Length;
//!
//! let stack = ultrasparc::two_layer_liquid();
//! let grid = GridSpec::from_cell_size(
//!     stack.tiers()[0].floorplan(),
//!     Length::from_millimeters(1.0),
//! );
//! let builder = StackThermalBuilder::new(&stack, grid, ThermalConfig::default());
//! let flow = vfc_units::VolumetricFlow::from_ml_per_minute(500.0);
//! let mut model = builder.build(Some(flow)).unwrap();
//! // Several pump settings? Build a family instead: one shared skeleton,
//! // one cheap flow patch per setting.
//! // let family = ThermalModelFamily::for_flows(&builder, &flows)?;
//!
//! // 3 W on every core, nothing elsewhere.
//! let power = model.uniform_block_power(&stack, |b| {
//!     if b.is_core() { vfc_units::Watts::new(3.0) } else { vfc_units::Watts::ZERO }
//! });
//! let temps = model.steady_state(&power, None).unwrap();
//! let hottest = model.max_junction_temperature(&temps);
//! assert!(hottest.value() > 60.0); // above the coolant inlet
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod build;
mod config;
mod error;
mod family;
pub mod material;
mod model;
mod sensors;
#[cfg(test)]
mod validate;

pub use self::build::StackThermalBuilder;
pub use self::config::{AirPackageConfig, LiquidCoolingConfig, SolverConfig, ThermalConfig};
pub use self::error::ThermalError;
pub use self::family::{FlowPatch, StackSkeleton, ThermalModelFamily};
pub use self::model::{NodeLayout, ThermalModel};
pub use self::sensors::BlockTemperatures;
