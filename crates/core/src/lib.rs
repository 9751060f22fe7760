//! # vfc — energy-efficient variable-flow liquid cooling for 3D stacks
//!
//! A from-scratch Rust reproduction of
//! *Coskun, Atienza, Rosing, Brunschwiler, Michel — "Energy-Efficient
//! Variable-Flow Liquid Cooling in 3D Stacked Architectures", DATE 2010.*
//!
//! 3D-stacked multicores concentrate too much heat for conventional air
//! cooling; pumping coolant through microchannels etched between the tiers
//! removes it — but a pump running at the worst-case flow rate wastes
//! energy (pump power grows quadratically with flow) and over-cools the
//! stack. The paper's technique, implemented here end to end:
//!
//! 1. **forecast** the maximum on-chip temperature 500 ms ahead with an
//!    online ARMA model, monitored by an SPRT that triggers refits on
//!    workload changes ([`forecast`]);
//! 2. **select the minimum pump setting** that keeps the forecast below
//!    the 80 °C target via a characterized look-up table with 2 °C
//!    down-switch hysteresis ([`control`]);
//! 3. **balance temperature, not just load**: weight each core's queue
//!    length by its thermal quality so thermally disadvantaged cores run
//!    fewer threads ([`sched::TemperatureAwareLb`]).
//!
//! Everything the paper's evaluation needs is part of the workspace: a
//! grid-level RC thermal solver for 3D stacks with microchannel cavities
//! and an air-cooled baseline package ([`thermal`]), the UltraSPARC-T1
//! floorplans and power model ([`floorplan`], [`power`]), the Table II
//! workload generator ([`workload`]), the pump ([`liquid`]) and the
//! co-simulation engine with the paper's metrics ([`sim`]).
//!
//! ## Quick start
//!
//! ```no_run
//! use vfc::prelude::*;
//!
//! let cfg = SimConfig::new(
//!     SystemKind::TwoLayer,
//!     CoolingKind::LiquidVariable,
//!     PolicyKind::Talb,
//!     Benchmark::by_name("Web-med").unwrap(),
//! )
//! .with_duration(Seconds::new(30.0));
//! let report = Simulation::new(cfg).and_then(Simulation::run).unwrap();
//!
//! println!("{report}");
//! assert!(report.max_temperature.value() < 85.0);
//! ```
//!
//! ## Crate map
//!
//! | Module | Substrate |
//! |--------|-----------|
//! | [`units`] | typed physical quantities |
//! | [`num`] | dense/sparse linear algebra, BiCGSTAB with ILU(0) or multigrid |
//! | [`floorplan`] | blocks, grids, 3D stacks, T1 layouts |
//! | [`liquid`] | coolant, microchannels, pump |
//! | [`thermal`] | RC networks, steady/transient solvers |
//! | [`power`] | core states, leakage, DPM |
//! | [`workload`] | Table II benchmarks, thread generator |
//! | [`sched`] | multi-queue policies: LB, Mig., TALB |
//! | [`forecast`] | ARMA + SPRT |
//! | [`control`] | characterization, LUT, flow controller |
//! | [`faults`] | seeded pump/clog/sensor fault timelines |
//! | [`sim`] | the co-simulation engine |
//! | [`runner`] | sweep specs, batch executor, result cache |
//! | [`serve`] | crash-safe sweep service: framed TCP protocol, store journal |
//! | [`obs`] | counters, gauges, span timers (`VFC_TELEMETRY`) |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use vfc_control as control;
pub use vfc_faults as faults;
pub use vfc_floorplan as floorplan;
pub use vfc_forecast as forecast;
pub use vfc_liquid as liquid;
pub use vfc_num as num;
pub use vfc_obs as obs;
pub use vfc_power as power;
pub use vfc_runner as runner;
pub use vfc_sched as sched;
pub use vfc_serve as serve;
pub use vfc_sim as sim;
pub use vfc_thermal as thermal;
pub use vfc_units as units;
pub use vfc_workload as workload;

/// The seven policy/cooling combinations of the paper's Fig. 6/7, in
/// plot order: LB/Mig./TALB on air, LB/Mig./TALB at worst-case flow, and
/// the paper's TALB with variable flow (marked `*` in the figures).
pub fn paper_policy_matrix() -> [(sim::PolicyKind, sim::CoolingKind); 7] {
    use sim::{CoolingKind, PolicyKind};
    [
        (PolicyKind::LoadBalancing, CoolingKind::Air),
        (PolicyKind::ReactiveMigration, CoolingKind::Air),
        (PolicyKind::Talb, CoolingKind::Air),
        (PolicyKind::LoadBalancing, CoolingKind::LiquidMax),
        (PolicyKind::ReactiveMigration, CoolingKind::LiquidMax),
        (PolicyKind::Talb, CoolingKind::LiquidMax),
        (PolicyKind::Talb, CoolingKind::LiquidVariable),
    ]
}

/// The most common imports for experiments.
pub mod prelude {
    pub use crate::paper_policy_matrix;
    pub use vfc_liquid::{FlowSetting, Pump};
    pub use vfc_runner::{Executor, ResultCache, RunnerError, SweepRunner, SweepSpec};
    pub use vfc_sim::{CoolingKind, PolicyKind, SimConfig, SimReport, Simulation, SystemKind};
    pub use vfc_units::{Celsius, Energy, Length, Seconds, TemperatureDelta, Watts};
    pub use vfc_workload::{Benchmark, PhasedWorkload};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{CoolingKind, PolicyKind};

    #[test]
    fn matrix_matches_fig6_legend_order() {
        let m = paper_policy_matrix();
        assert_eq!(m.len(), 7);
        assert_eq!(m[0], (PolicyKind::LoadBalancing, CoolingKind::Air));
        assert_eq!(m[6], (PolicyKind::Talb, CoolingKind::LiquidVariable));
        // Exactly one variable-flow entry.
        assert_eq!(
            m.iter()
                .filter(|(_, c)| matches!(c, CoolingKind::LiquidVariable))
                .count(),
            1
        );
    }

    #[test]
    fn modules_are_reachable() {
        // Smoke-test the re-export surface.
        let _ = crate::workload::Benchmark::table_ii();
        let _ = crate::liquid::Pump::laing_ddc();
        let _ = crate::floorplan::ultrasparc::two_layer_liquid();
    }
}
