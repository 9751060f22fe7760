//! High-level experiment API.

use vfc_sim::{CoolingKind, PolicyKind, SimConfig, SimError, SimReport, Simulation, SystemKind};
use vfc_units::{Length, Seconds};
use vfc_workload::Benchmark;

/// A single simulation experiment with fluent configuration.
///
/// Thin, ergonomic wrapper around [`SimConfig`]/[`Simulation`]; drop down
/// to those types for full control (custom pumps, thermal configs,
/// ablations).
///
/// # Example
///
/// ```no_run
/// use vfc::prelude::*;
///
/// let report = Experiment::new(
///     SystemKind::TwoLayer,
///     CoolingKind::LiquidVariable,
///     PolicyKind::Talb,
///     Benchmark::by_name("gzip").unwrap(),
/// )
/// .duration(Seconds::new(30.0))
/// .seed(7)
/// .run()?;
/// assert!(report.pump_energy.value() > 0.0);
/// # Ok::<(), vfc::sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    cfg: SimConfig,
}

impl Experiment {
    /// Creates an experiment on a steady workload.
    pub fn new(
        system: SystemKind,
        cooling: CoolingKind,
        policy: PolicyKind,
        benchmark: Benchmark,
    ) -> Self {
        Self {
            cfg: SimConfig::new(system, cooling, policy, benchmark),
        }
    }

    /// Simulated duration (default 60 s).
    pub fn duration(mut self, d: Seconds) -> Self {
        self.cfg = self.cfg.with_duration(d);
        self
    }

    /// Workload generator seed (default 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg = self.cfg.with_seed(seed);
        self
    }

    /// Enable dynamic power management (Fig. 7 experiments).
    pub fn dpm(mut self, on: bool) -> Self {
        self.cfg = self.cfg.with_dpm(on);
        self
    }

    /// Thermal grid cell size (default 1 mm).
    pub fn grid_cell(mut self, cell: Length) -> Self {
        self.cfg = self.cfg.with_grid_cell(cell);
        self
    }

    /// Builds and runs the simulation.
    ///
    /// # Errors
    ///
    /// Propagates configuration and solver failures from [`Simulation`].
    pub fn run(self) -> Result<SimReport, SimError> {
        Simulation::new(self.cfg)?.run()
    }
}

/// The seven policy/cooling combinations of the paper's Fig. 6/7, in
/// plot order: LB/Mig./TALB on air, LB/Mig./TALB at worst-case flow, and
/// the paper's TALB with variable flow (marked `*` in the figures).
pub fn paper_policy_matrix() -> [(PolicyKind, CoolingKind); 7] {
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn builder_chains() {
        let e = Experiment::new(
            SystemKind::TwoLayer,
            CoolingKind::Air,
            PolicyKind::LoadBalancing,
            Benchmark::by_name("gcc").unwrap(),
        )
        .duration(Seconds::new(5.0))
        .seed(3)
        .dpm(true);
        assert_eq!(e.cfg.duration, Seconds::new(5.0));
        assert_eq!(e.cfg.seed, 3);
        assert!(e.cfg.dpm);
    }
}
