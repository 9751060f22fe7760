//! Simulation configuration.

use vfc_faults::FaultTimeline;
use vfc_floorplan::{ultrasparc, GridSpec, Stack3d};
use vfc_liquid::{FlowSetting, Pump};
use vfc_num::PreconditionerKind;
use vfc_power::{LeakageModel, PowerModel};
use vfc_thermal::{SolverConfig, ThermalConfig};
use vfc_units::{Celsius, Length, Seconds, TemperatureDelta};
use vfc_workload::{Benchmark, PhasedWorkload};

/// Which 3D system to simulate (paper Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SystemKind {
    /// 8 cores: core tier + cache tier.
    TwoLayer,
    /// 16 cores: core/cache/core/cache.
    FourLayer,
}

impl SystemKind {
    /// The stack description for this system under the given cooling.
    pub fn stack(self, liquid: bool) -> Stack3d {
        match (self, liquid) {
            (SystemKind::TwoLayer, true) => ultrasparc::two_layer_liquid(),
            (SystemKind::TwoLayer, false) => ultrasparc::two_layer_air(),
            (SystemKind::FourLayer, true) => ultrasparc::four_layer_liquid(),
            (SystemKind::FourLayer, false) => ultrasparc::four_layer_air(),
        }
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::TwoLayer => "2-layer",
            SystemKind::FourLayer => "4-layer",
        }
    }
}

/// The cooling configuration (paper legends: `(Air)`, `(Max)`, `(Var)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CoolingKind {
    /// Conventional air-cooled package.
    Air,
    /// Liquid cooling pinned at one flow setting.
    LiquidFixed(FlowSetting),
    /// Liquid cooling pinned at the pump's maximum (worst-case) setting.
    LiquidMax,
    /// The paper's contribution: controller-driven variable flow.
    LiquidVariable,
}

impl CoolingKind {
    /// Whether a liquid stack is needed.
    pub fn is_liquid(self) -> bool {
        !matches!(self, CoolingKind::Air)
    }

    /// Short label used in reports (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            CoolingKind::Air => "Air",
            CoolingKind::LiquidFixed(_) => "Fixed",
            CoolingKind::LiquidMax => "Max",
            CoolingKind::LiquidVariable => "Var",
        }
    }
}

/// The scheduling policy (paper Sec. IV/V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PolicyKind {
    /// Dynamic load balancing.
    LoadBalancing,
    /// LB + reactive migration above 85 °C.
    ReactiveMigration,
    /// Temperature-aware weighted load balancing (the paper's).
    Talb,
}

impl PolicyKind {
    /// Short label used in reports (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::LoadBalancing => "LB",
            PolicyKind::ReactiveMigration => "Mig.",
            PolicyKind::Talb => "TALB",
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// System under test.
    pub system: SystemKind,
    /// Cooling configuration.
    pub cooling: CoolingKind,
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Workload (possibly phased).
    pub workload: PhasedWorkload,
    /// Simulated duration (default 60 s).
    pub duration: Seconds,
    /// RNG seed for the workload generator.
    pub seed: u64,
    /// Thermal grid cell size (default 1 mm; the paper's 100 µm grid is
    /// available for validation runs at much higher cost).
    pub grid_cell: Length,
    /// Enable DPM (Fig. 7 runs with it, Fig. 6 without).
    pub dpm: bool,
    /// Temperature sampling / control interval (paper: 100 ms).
    pub sampling_interval: Seconds,
    /// Scheduler tick (1 ms).
    pub scheduler_tick: Seconds,
    /// Backward-Euler sub-steps per sampling interval.
    pub thermal_substeps: usize,
    /// Hot-spot threshold (paper: 85 °C).
    pub hot_spot_threshold: Celsius,
    /// Controller target (paper: 80 °C).
    pub target_temperature: Celsius,
    /// Spatial-gradient threshold (Fig. 7: 15 °C).
    pub gradient_threshold: TemperatureDelta,
    /// Thermal-cycle threshold (Fig. 7: 20 °C).
    pub cycle_threshold: TemperatureDelta,
    /// Controller down-switch hysteresis (paper: 2 °C).
    pub hysteresis: TemperatureDelta,
    /// Safety margin subtracted from the target during characterization,
    /// absorbing forecast error and transition lag so the runtime
    /// guarantee holds (1 °C default).
    pub control_margin: TemperatureDelta,
    /// Use the ARMA forecast (true, the paper's proactive controller) or
    /// the current reading (false; the reactive ablation).
    pub proactive: bool,
    /// Record the per-sample maximum temperature and flow-setting series
    /// into the report (for plotting and trace analysis).
    pub record_series: bool,
    /// Power model.
    pub power: PowerModel,
    /// Leakage model (switchable for the leakage ablation).
    pub leakage: LeakageModel,
    /// Pump model.
    pub pump: Pump,
    /// Thermal model configuration.
    pub thermal: ThermalConfig,
    /// Fault-event timeline replayed against the run (empty = healthy).
    /// Plain data, so fault scenarios sweep and cache like any other
    /// configuration axis; an empty timeline leaves [`cache_key`]
    /// byte-identical to pre-fault releases.
    ///
    /// [`cache_key`]: Self::cache_key
    pub faults: FaultTimeline,
}

impl SimConfig {
    /// Creates a configuration with the paper's defaults for a steady
    /// workload.
    pub fn new(
        system: SystemKind,
        cooling: CoolingKind,
        policy: PolicyKind,
        benchmark: Benchmark,
    ) -> Self {
        Self::with_workload(system, cooling, policy, PhasedWorkload::steady(benchmark))
    }

    /// Creates a configuration with an explicit (phased) workload.
    pub fn with_workload(
        system: SystemKind,
        cooling: CoolingKind,
        policy: PolicyKind,
        workload: PhasedWorkload,
    ) -> Self {
        Self {
            system,
            cooling,
            policy,
            workload,
            duration: Seconds::new(60.0),
            seed: 42,
            grid_cell: Length::from_millimeters(1.0),
            dpm: false,
            sampling_interval: Seconds::from_millis(100.0),
            scheduler_tick: Seconds::from_millis(1.0),
            thermal_substeps: 5,
            hot_spot_threshold: Celsius::new(85.0),
            target_temperature: Celsius::new(80.0),
            gradient_threshold: TemperatureDelta::new(15.0),
            cycle_threshold: TemperatureDelta::new(20.0),
            hysteresis: TemperatureDelta::new(2.0),
            control_margin: TemperatureDelta::new(1.0),
            proactive: true,
            record_series: false,
            power: PowerModel::ultrasparc_t1(),
            leakage: LeakageModel::su_polynomial(),
            pump: Pump::laing_ddc(),
            thermal: ThermalConfig::default(),
            faults: FaultTimeline::default(),
        }
    }

    /// Sets the simulated duration.
    pub fn with_duration(mut self, duration: Seconds) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the workload generator seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables DPM.
    pub fn with_dpm(mut self, dpm: bool) -> Self {
        self.dpm = dpm;
        self
    }

    /// Sets the thermal grid cell size.
    pub fn with_grid_cell(mut self, cell: Length) -> Self {
        self.grid_cell = cell;
        self
    }

    /// Selects proactive (forecast) or reactive control.
    pub fn with_proactive(mut self, proactive: bool) -> Self {
        self.proactive = proactive;
        self
    }

    /// Replaces the leakage model (ablations).
    pub fn with_leakage(mut self, leakage: LeakageModel) -> Self {
        self.leakage = leakage;
        self
    }

    /// Sets the controller hysteresis (ablations).
    pub fn with_hysteresis(mut self, h: TemperatureDelta) -> Self {
        self.hysteresis = h;
        self
    }

    /// Enables per-sample series recording in the report.
    pub fn with_series(mut self, record: bool) -> Self {
        self.record_series = record;
        self
    }

    /// Installs a fault-event timeline (fault-injection scenarios).
    pub fn with_faults(mut self, faults: FaultTimeline) -> Self {
        self.faults = faults;
        self
    }

    /// A short human-readable label, e.g. `TALB (Var)` — the paper's
    /// legend format.
    pub fn label(&self) -> String {
        format!("{} ({})", self.policy.label(), self.cooling.label())
    }

    /// A stable 64-bit content hash of this configuration, suitable as a
    /// result-cache key (`vfc_runner` maps it to a cached
    /// [`SimReport`](crate::SimReport)).
    ///
    /// Properties:
    ///
    /// * **Deterministic across processes and machines** — FNV-1a over a
    ///   canonical encoding, no per-process hasher randomization.
    /// * **Independent of field order** — every field is hashed as a
    ///   `name = value` pair and the pairs are combined in sorted-name
    ///   order, so reordering the struct declaration (or this method's
    ///   field list) leaves keys unchanged.
    /// * **Sensitive to every axis** — any change to any field (seed,
    ///   grid cell, pump model, thresholds, …) produces a different key.
    ///
    /// Keys are versioned via an internal constant that is bumped when
    /// engine changes alter the report an identical configuration
    /// produces, invalidating stale on-disk caches.
    pub fn cache_key(&self) -> u64 {
        use crate::cache_key::{combine_fields, hash_field};
        // Exhaustive destructuring (no `..`): adding a `SimConfig` field
        // without hashing it below becomes a compile error instead of a
        // silent stale-cache-hit bug.
        let Self {
            system,
            cooling,
            policy,
            workload,
            duration,
            seed,
            grid_cell,
            dpm,
            sampling_interval,
            scheduler_tick,
            thermal_substeps,
            hot_spot_threshold,
            target_temperature,
            gradient_threshold,
            cycle_threshold,
            hysteresis,
            control_margin,
            proactive,
            record_series,
            power,
            leakage,
            pump,
            thermal,
            faults,
        } = self;
        // The preconditioner enters as the kind the grid rule resolves
        // it to (printed bare, `preconditioner: Ilu0`), so a default
        // config and its explicit equivalent share a key, and a key moves
        // exactly when the solver the run uses does.
        let thermal = &ThermalConfig {
            solver: SolverConfig {
                preconditioner: Some(self.resolved_preconditioner()),
                ..thermal.solver
            },
            ..*thermal
        };
        // Hash each field through its (exact, round-trippable) debug
        // representation; `f64`'s `Debug` prints the shortest string that
        // parses back to the same bits, so distinct values never collide
        // on formatting.
        macro_rules! fields {
            ($($name:ident),+ $(,)?) => {
                [$((stringify!($name), hash_field(stringify!($name), &format!("{:?}", $name)))),+]
            };
        }
        let mut fields = fields![
            system,
            cooling,
            policy,
            workload,
            duration,
            seed,
            grid_cell,
            dpm,
            sampling_interval,
            scheduler_tick,
            thermal_substeps,
            hot_spot_threshold,
            target_temperature,
            gradient_threshold,
            cycle_threshold,
            hysteresis,
            control_margin,
            proactive,
            record_series,
            power,
            leakage,
            pump,
            thermal,
        ]
        .to_vec();
        // The faults axis entered the config after caches existed in the
        // wild: an empty (healthy) timeline contributes nothing, so every
        // pre-fault key — and every healthy figure built on one — stays
        // byte-identical without a version bump. Non-empty timelines hash
        // like any other field.
        if !faults.is_empty() {
            fields.push(("faults", hash_field("faults", &format!("{faults:?}"))));
        }
        combine_fields(&mut fields)
    }

    /// The preconditioner kind this configuration's solves run under:
    /// [`SolverConfig::resolve`] on its grid's cells per layer.
    fn resolved_preconditioner(&self) -> PreconditionerKind {
        let stack = self.system.stack(self.cooling.is_liquid());
        let grid = GridSpec::from_cell_size(stack.tiers()[0].floorplan(), self.grid_cell);
        let cells_per_layer = grid.rows().saturating_mul(grid.cols());
        self.thermal.solver.resolve(cells_per_layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        let cfg = SimConfig::new(
            SystemKind::TwoLayer,
            CoolingKind::LiquidVariable,
            PolicyKind::Talb,
            Benchmark::by_name("gzip").unwrap(),
        );
        assert_eq!(cfg.label(), "TALB (Var)");
        assert_eq!(
            SimConfig::new(
                SystemKind::TwoLayer,
                CoolingKind::Air,
                PolicyKind::LoadBalancing,
                Benchmark::by_name("gcc").unwrap(),
            )
            .label(),
            "LB (Air)"
        );
    }

    #[test]
    fn stacks_match_cooling() {
        assert!(SystemKind::TwoLayer.stack(true).is_liquid_cooled());
        assert!(!SystemKind::FourLayer.stack(false).is_liquid_cooled());
        assert_eq!(SystemKind::FourLayer.stack(true).core_count(), 16);
    }

    #[test]
    fn cache_key_is_stable_and_axis_sensitive() {
        let base = || {
            SimConfig::new(
                SystemKind::TwoLayer,
                CoolingKind::LiquidVariable,
                PolicyKind::Talb,
                Benchmark::by_name("gzip").unwrap(),
            )
        };
        // Two identically built configs agree, independent of builder
        // call order.
        let a = base().with_seed(7).with_dpm(true);
        let b = base().with_dpm(true).with_seed(7);
        assert_eq!(a.cache_key(), b.cache_key());

        // Every axis perturbs the key.
        let k0 = base().cache_key();
        let variants = [
            base().with_seed(43).cache_key(),
            base().with_duration(Seconds::new(59.0)).cache_key(),
            base()
                .with_grid_cell(Length::from_millimeters(2.0))
                .cache_key(),
            base().with_dpm(true).cache_key(),
            base().with_proactive(false).cache_key(),
            base().with_series(true).cache_key(),
            base()
                .with_hysteresis(TemperatureDelta::new(3.0))
                .cache_key(),
            SimConfig::new(
                SystemKind::FourLayer,
                CoolingKind::LiquidVariable,
                PolicyKind::Talb,
                Benchmark::by_name("gzip").unwrap(),
            )
            .cache_key(),
            SimConfig::new(
                SystemKind::TwoLayer,
                CoolingKind::LiquidMax,
                PolicyKind::Talb,
                Benchmark::by_name("gzip").unwrap(),
            )
            .cache_key(),
            SimConfig::new(
                SystemKind::TwoLayer,
                CoolingKind::LiquidVariable,
                PolicyKind::LoadBalancing,
                Benchmark::by_name("gzip").unwrap(),
            )
            .cache_key(),
            SimConfig::new(
                SystemKind::TwoLayer,
                CoolingKind::LiquidVariable,
                PolicyKind::Talb,
                Benchmark::by_name("gcc").unwrap(),
            )
            .cache_key(),
        ];
        let mut all = vec![k0];
        all.extend(variants);
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j], "keys {i} and {j} collide");
            }
        }
    }

    #[test]
    fn cache_keys_match_their_golden_values() {
        // Keys address results already on disk; any change to the
        // hashed encoding (a renamed field, a reworded `Debug`) would
        // silently orphan every cached report, so the values are pinned.
        let talb = SimConfig::new(
            SystemKind::TwoLayer,
            CoolingKind::LiquidVariable,
            PolicyKind::Talb,
            Benchmark::by_name("gzip").unwrap(),
        );
        assert_eq!(talb.cache_key(), 0x3768_bad0_3b0b_47c0);
        let mut multigrid = talb.clone();
        multigrid.thermal.solver.preconditioner = Some(PreconditionerKind::Multigrid);
        assert_eq!(multigrid.cache_key(), 0x147a_d5d4_a932_8d88);
        // At 1 mm the grid rule picks ILU(0): the default and its
        // explicit form are one configuration.
        let mut ilu0 = talb.clone();
        ilu0.thermal.solver.preconditioner = Some(PreconditionerKind::Ilu0);
        assert_eq!(ilu0.cache_key(), talb.cache_key());
        // On the paper's 100 µm grid it picks multigrid, so the default
        // key is the explicit-multigrid key. Before the grid rule the
        // default ran ILU(0) there and keyed 0x05b5_c8fc_bf3e_a374; its
        // result bits changed, so its key moved.
        let fine = talb.with_grid_cell(Length::from_millimeters(0.1));
        assert_eq!(fine.cache_key(), 0x9372_9e3a_6cd3_f284);
        assert_ne!(fine.cache_key(), 0x05b5_c8fc_bf3e_a374);
        let mut fine_multigrid = fine.clone();
        fine_multigrid.thermal.solver.preconditioner = Some(PreconditionerKind::Multigrid);
        assert_eq!(fine_multigrid.cache_key(), fine.cache_key());
    }

    #[test]
    fn cache_key_distinguishes_fixed_flow_settings() {
        let mk = |s: usize| {
            SimConfig::new(
                SystemKind::TwoLayer,
                CoolingKind::LiquidFixed(FlowSetting::from_index(s)),
                PolicyKind::LoadBalancing,
                Benchmark::by_name("gzip").unwrap(),
            )
            .cache_key()
        };
        assert_ne!(mk(0), mk(1));
        assert_eq!(mk(2), mk(2));
    }

    #[test]
    fn fault_timelines_perturb_cache_keys_but_empty_ones_do_not() {
        use vfc_faults::PumpFault;
        let base = || {
            SimConfig::new(
                SystemKind::TwoLayer,
                CoolingKind::LiquidVariable,
                PolicyKind::Talb,
                Benchmark::by_name("gzip").unwrap(),
            )
        };
        // An explicitly installed empty timeline is the healthy default:
        // same key, so pre-fault on-disk caches keep hitting.
        assert_eq!(
            base().cache_key(),
            base().with_faults(FaultTimeline::new(3)).cache_key()
        );
        // Any actual fault content — or a different seed on the same
        // content — is a new cache identity.
        let degraded = |seed| {
            FaultTimeline::new(seed).with_pump(PumpFault::Degradation {
                start_s: 5.0,
                end_s: 20.0,
                level: 0.6,
            })
        };
        let k0 = base().cache_key();
        let k1 = base().with_faults(degraded(3)).cache_key();
        let k2 = base().with_faults(degraded(4)).cache_key();
        assert_ne!(k0, k1);
        assert_ne!(k1, k2);
    }

    #[test]
    fn builder_methods_chain() {
        let cfg = SimConfig::new(
            SystemKind::TwoLayer,
            CoolingKind::LiquidMax,
            PolicyKind::LoadBalancing,
            Benchmark::by_name("gzip").unwrap(),
        )
        .with_duration(Seconds::new(10.0))
        .with_seed(7)
        .with_dpm(true)
        .with_proactive(false);
        assert_eq!(cfg.duration, Seconds::new(10.0));
        assert_eq!(cfg.seed, 7);
        assert!(cfg.dpm);
        assert!(!cfg.proactive);
    }
}
