//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names the axes of a study — systems × cooling kinds ×
//! policies × workloads × seeds × grid cells — and expands their
//! cartesian product into concrete [`SimConfig`]s. Axis filters carve
//! non-rectangular studies (e.g. the paper's seven-entry Fig. 6 matrix)
//! out of the full product.

use vfc_sim::{CoolingKind, PolicyKind, SimConfig, SystemKind};
use vfc_units::{Length, Seconds};
use vfc_workload::{Benchmark, PhasedWorkload};

/// Builder for a cartesian sweep over simulation configurations.
///
/// Defaults reproduce the paper's headline cell: the 2-layer system,
/// variable-flow cooling, the TALB policy, all eight Table II workloads,
/// seed 42, the 1 mm thermal grid and 60 s runs.
///
/// # Example
///
/// ```
/// use vfc_runner::SweepSpec;
/// use vfc_sim::{CoolingKind, PolicyKind, SystemKind};
///
/// let configs = SweepSpec::new()
///     .systems([SystemKind::TwoLayer, SystemKind::FourLayer])
///     .coolings([CoolingKind::LiquidMax, CoolingKind::LiquidVariable])
///     .policies([PolicyKind::Talb])
///     .seeds([1, 2, 3])
///     .filter(|cfg| cfg.seed != 2 || cfg.system == SystemKind::TwoLayer)
///     .expand();
/// assert_eq!(configs.len(), 2 * 2 * 8 * 3 - 2 * 8);
/// ```
pub struct SweepSpec {
    systems: Vec<SystemKind>,
    coolings: Vec<CoolingKind>,
    policies: Vec<PolicyKind>,
    workloads: Vec<PhasedWorkload>,
    seeds: Vec<u64>,
    grid_cells: Vec<Length>,
    duration: Seconds,
    dpm: bool,
    filter: Option<Box<dyn Fn(&SimConfig) -> bool + Send + Sync>>,
}

impl core::fmt::Debug for SweepSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SweepSpec")
            .field("systems", &self.systems)
            .field("coolings", &self.coolings)
            .field("policies", &self.policies)
            .field("workloads", &self.workloads.len())
            .field("seeds", &self.seeds)
            .field("grid_cells", &self.grid_cells)
            .field("duration", &self.duration)
            .field("dpm", &self.dpm)
            .field("filter", &self.filter.is_some())
            .finish()
    }
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepSpec {
    /// A spec with the paper's defaults (see the type docs).
    pub fn new() -> Self {
        Self {
            systems: vec![SystemKind::TwoLayer],
            coolings: vec![CoolingKind::LiquidVariable],
            policies: vec![PolicyKind::Talb],
            workloads: Benchmark::table_ii()
                .into_iter()
                .map(PhasedWorkload::steady)
                .collect(),
            seeds: vec![42],
            grid_cells: vec![Length::from_millimeters(1.0)],
            duration: Seconds::new(60.0),
            dpm: false,
            filter: None,
        }
    }

    /// The systems axis.
    pub fn systems(mut self, systems: impl IntoIterator<Item = SystemKind>) -> Self {
        self.systems = systems.into_iter().collect();
        self
    }

    /// The cooling axis.
    pub fn coolings(mut self, coolings: impl IntoIterator<Item = CoolingKind>) -> Self {
        self.coolings = coolings.into_iter().collect();
        self
    }

    /// The policy axis.
    pub fn policies(mut self, policies: impl IntoIterator<Item = PolicyKind>) -> Self {
        self.policies = policies.into_iter().collect();
        self
    }

    /// The workload axis, from steady Table II benchmarks.
    pub fn benchmarks(mut self, benchmarks: impl IntoIterator<Item = Benchmark>) -> Self {
        self.workloads = benchmarks.into_iter().map(PhasedWorkload::steady).collect();
        self
    }

    /// The workload axis, from arbitrary (phased) workloads.
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = PhasedWorkload>) -> Self {
        self.workloads = workloads.into_iter().collect();
        self
    }

    /// The seed axis.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// The thermal-grid-cell axis.
    pub fn grid_cells(mut self, cells: impl IntoIterator<Item = Length>) -> Self {
        self.grid_cells = cells.into_iter().collect();
        self
    }

    /// Simulated duration for every cell.
    pub fn duration(mut self, duration: Seconds) -> Self {
        self.duration = duration;
        self
    }

    /// DPM on or off for every cell.
    pub fn dpm(mut self, dpm: bool) -> Self {
        self.dpm = dpm;
        self
    }

    /// A predicate deciding which cells of the product to keep. Use it
    /// for per-axis constraints ("variable flow only with TALB", "fine
    /// grids only on the 2-layer system") without enumerating configs by
    /// hand.
    pub fn filter(mut self, keep: impl Fn(&SimConfig) -> bool + Send + Sync + 'static) -> Self {
        self.filter = Some(Box::new(keep));
        self
    }

    /// The size of the unfiltered cartesian product.
    pub(crate) fn cell_count(&self) -> usize {
        self.systems.len()
            * self.coolings.len()
            * self.policies.len()
            * self.workloads.len()
            * self.seeds.len()
            * self.grid_cells.len()
    }

    /// Expands the product into concrete configurations, in a fixed
    /// deterministic order: systems → coolings → policies → workloads →
    /// seeds → grid cells, each axis in the order it was given.
    pub fn expand(&self) -> Vec<SimConfig> {
        let mut out = Vec::with_capacity(self.cell_count());
        for &system in &self.systems {
            for &cooling in &self.coolings {
                for &policy in &self.policies {
                    for workload in &self.workloads {
                        for &seed in &self.seeds {
                            for &grid in &self.grid_cells {
                                let cfg = SimConfig::with_workload(
                                    system,
                                    cooling,
                                    policy,
                                    workload.clone(),
                                )
                                .with_duration(self.duration)
                                .with_seed(seed)
                                .with_grid_cell(grid)
                                .with_dpm(self.dpm);
                                if let Some(keep) = &self.filter {
                                    if !keep(&cfg) {
                                        continue;
                                    }
                                }
                                out.push(cfg);
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_table_ii() {
        let spec = SweepSpec::new();
        assert_eq!(spec.cell_count(), 8);
        let configs = spec.expand();
        assert_eq!(configs.len(), 8);
        assert_eq!(configs[0].system, SystemKind::TwoLayer);
        assert_eq!(configs[0].cooling, CoolingKind::LiquidVariable);
    }

    #[test]
    fn expansion_order_is_deterministic_and_nested() {
        let spec = SweepSpec::new()
            .benchmarks([Benchmark::by_name("gzip").unwrap()])
            .coolings([CoolingKind::Air, CoolingKind::LiquidMax])
            .policies([PolicyKind::LoadBalancing])
            .seeds([1, 2]);
        let configs = spec.expand();
        assert_eq!(configs.len(), 4);
        assert_eq!(configs[0].cooling, CoolingKind::Air);
        assert_eq!(configs[0].seed, 1);
        assert_eq!(configs[1].seed, 2);
        assert_eq!(configs[2].cooling, CoolingKind::LiquidMax);
    }

    #[test]
    fn filters_carve_the_product() {
        let spec = SweepSpec::new()
            .coolings([CoolingKind::Air, CoolingKind::LiquidVariable])
            .policies([PolicyKind::LoadBalancing, PolicyKind::Talb])
            .benchmarks([Benchmark::by_name("gzip").unwrap()])
            .filter(|cfg| {
                cfg.cooling != CoolingKind::LiquidVariable || cfg.policy == PolicyKind::Talb
            });
        assert_eq!(spec.cell_count(), 4);
        let configs = spec.expand();
        assert_eq!(configs.len(), 3, "LB+Var is filtered out");
    }
}
