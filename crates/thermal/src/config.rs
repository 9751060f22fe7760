//! Configuration of the thermal network builder.

use vfc_liquid::{ChannelGeometry, ConvectionModel, Coolant};
use vfc_num::{MgCycleConfig, PreconditionerKind};
use vfc_units::{Celsius, HeatCapacity, Length, ThermalResistance};

/// Linear-solver settings for the assembled networks.
///
/// The preconditioner is the main lever for fine grids, and by default
/// the grid picks it (see [`resolve`](Self::resolve)): ILU(0) up to
/// the 0.25 mm grids, the cheap V(0,1) multigrid cycle on the paper's
/// 100 µm grid. Factorization state is cached per model and invalidated
/// only on flow changes, so its setup cost amortizes across every
/// 100 ms sample. The operator is not a setting: solves run the
/// index-free stencil operator whenever the grid's pattern decomposes
/// into one and the CSR matrix otherwise, and the two are bit-identical.
#[derive(Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SolverConfig {
    /// Relative residual tolerance `‖b−Ax‖/‖b‖`.
    pub tolerance: f64,
    /// Iteration cap before the solve fails.
    pub max_iterations: usize,
    /// Preconditioner override. `None` (the default) lets the grid
    /// pick: ILU(0) up to 4,096 cells per layer,
    /// [`PreconditionerKind::Multigrid`] with [`MgCycleConfig::cheap`]
    /// above it. `Some(kind)` runs `kind` on
    /// every grid, with `mg_cycle` as its V-cycle.
    pub preconditioner: Option<PreconditionerKind>,
    /// V-cycle shape of an explicit `Some(Multigrid)` and of the
    /// recovery ladder's escalation to multigrid; ignored otherwise.
    /// The default symmetric V(1,1) ILU cycle is the robust choice;
    /// [`MgCycleConfig::cheap`] (the asymmetric V(0,1) cycle) costs
    /// ~45% less per apply for ~25% more Krylov iterations on the
    /// 100 µm transient systems — a measured net win on fine grids
    /// (`transient_bench`'s `mgfast` vs `mg` rows). Excluded from
    /// `Debug` / cache keys: results agree to solver tolerance, and the
    /// cached quantities (temperatures at 1e-10 relative residual) are
    /// treated as cycle-shape-invariant.
    #[serde(default)]
    pub mg_cycle: MgCycleConfig,
}

/// Cells per layer above which the grid rule picks multigrid. The
/// hierarchy semi-coarsens in-plane only, so the layer count does not
/// enter. Per 100 ms transient sample on the 2-layer stack, in ms with
/// Krylov iterations (`transient_bench --fine`, one core of a 2-vCPU
/// host, as recorded in `BENCH_transient.json`):
///
/// | grid (cells per layer) | ILU(0) | V(1,1) | V(0,1) |
/// |---|---|---|---|
/// | 1 mm (120) | 0.26 (170) | 0.35 (60) | 0.30 (100) |
/// | 0.5 mm (460) | 1.09 (270) | 1.27 (100) | 1.13 (130) |
/// | 0.25 mm (1,840) | 10.72 (520) | 11.23 (160) | 8.92 (170) |
/// | 0.1 mm (11,500) | 202.13 (1270) | 112.06 (220) | 95.14 (280) |
///
/// Up to 0.25 mm V(0,1) is at most 1.3× ahead, and the steady solves
/// trade places from run to run (`grid_convergence`), so every grid up
/// to 0.25 mm keeps ILU(0), and with it its results and cache keys. At
/// 100 µm V(0,1) is 2.1× ahead.
const MULTIGRID_ABOVE_CELLS_PER_LAYER: usize = 4_096;

/// Matches the original derive output so `SimConfig::cache_key`, which
/// hashes configs through their `Debug` representation, is unaffected by
/// the (result-invariant) cycle-shape choice. A resolved kind prints
/// bare (`preconditioner: Ilu0`), as the field did before it became an
/// override.
impl std::fmt::Debug for SolverConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("SolverConfig");
        s.field("tolerance", &self.tolerance)
            .field("max_iterations", &self.max_iterations);
        match &self.preconditioner {
            Some(kind) => s.field("preconditioner", kind),
            None => s.field("preconditioner", &format_args!("None")),
        };
        s.finish()
    }
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            tolerance: 1e-10,
            max_iterations: 10_000,
            preconditioner: None,
            mg_cycle: MgCycleConfig::default(),
        }
    }
}

impl SolverConfig {
    /// The BiCGSTAB instance carrying these tolerances — the single
    /// place config fields map onto the solver, so every consumer (model
    /// solves, the TALB reduced system) stays in sync.
    pub fn bicgstab(&self) -> vfc_num::BiCgStab {
        vfc_num::BiCgStab {
            tolerance: self.tolerance,
            max_iterations: self.max_iterations,
        }
    }

    /// The preconditioner and V-cycle solves run under on a grid with
    /// `cells_per_layer` cells in each layer: the override when set,
    /// otherwise ILU(0) up to 4,096 cells per layer and multigrid with
    /// the cheap V(0,1) cycle above it. Every solve site
    /// (model, backward-Euler cache, TALB balance) and the simulation
    /// cache key go through this one rule.
    pub fn resolve(&self, cells_per_layer: usize) -> (PreconditionerKind, MgCycleConfig) {
        match self.preconditioner {
            Some(kind) => (kind, self.mg_cycle),
            None if cells_per_layer > MULTIGRID_ABOVE_CELLS_PER_LAYER => {
                (PreconditionerKind::Multigrid, MgCycleConfig::cheap())
            }
            None => (PreconditionerKind::Ilu0, self.mg_cycle),
        }
    }
}

/// The conventional air-cooled package attached at the
/// [`Interface::HeatSink`](vfc_floorplan::Interface::HeatSink) interface.
///
/// Sink capacitance/resistance come from Table III; the TIM resistance is
/// the calibration knob that places the hottest air-cooled workload around
/// the paper's hot-spot regime (DESIGN.md §4.4).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AirPackageConfig {
    /// Thermal-interface-material area resistance, K·m²/W.
    pub tim_area_resistance: f64,
    /// Copper spreader thickness.
    pub spreader_thickness: Length,
    /// Spreader-to-sink area resistance, K·m²/W (sink base conduction).
    pub spreader_to_sink_area_resistance: f64,
    /// Heat-sink lumped capacitance (Table III: 140 J/K).
    pub sink_capacitance: HeatCapacity,
    /// Sink-to-ambient convection resistance (Table III: 0.1 K/W).
    pub sink_resistance: ThermalResistance,
    /// Ambient air temperature (HotSpot default: 45 °C).
    pub ambient: Celsius,
}

impl Default for AirPackageConfig {
    fn default() -> Self {
        Self {
            tim_area_resistance: 5.5e-5,
            spreader_thickness: Length::from_millimeters(1.0),
            spreader_to_sink_area_resistance: 1.2e-5,
            sink_capacitance: HeatCapacity::new(140.0),
            sink_resistance: ThermalResistance::new(0.1),
            ambient: Celsius::new(45.0),
        }
    }
}

/// Liquid-cooling parameters shared by all cavities of a stack.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LiquidCoolingConfig {
    /// Microchannel array geometry (Table I defaults).
    pub geometry: ChannelGeometry,
    /// Working fluid (water, Table I).
    pub coolant: Coolant,
    /// Convective model (calibrated flow-scaled by default; the paper's
    /// constant-h Eq. 6–7 available for comparison).
    pub convection: ConvectionModel,
    /// Coolant inlet temperature (hot-water cooling at 60 °C; DESIGN.md
    /// §4.3).
    pub inlet: Celsius,
    /// Fraction of the nominal channel-wall solid cross-section that
    /// actually conducts tier-to-tier (fin bonding quality; 0–1).
    pub wall_fill_factor: f64,
}

impl Default for LiquidCoolingConfig {
    fn default() -> Self {
        Self {
            geometry: ChannelGeometry::ultrasparc(),
            coolant: Coolant::water(),
            convection: ConvectionModel::calibrated(),
            inlet: Celsius::new(60.0),
            wall_fill_factor: 0.5,
        }
    }
}

/// Full configuration of the thermal network builder.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ThermalConfig {
    /// Air-cooled package parameters.
    pub air: AirPackageConfig,
    /// Liquid-cooling parameters.
    pub liquid: LiquidCoolingConfig,
    /// Linear-solver settings (preconditioner selection, tolerances).
    pub solver: SolverConfig,
}

impl Default for ThermalConfig {
    fn default() -> Self {
        Self {
            air: AirPackageConfig::default(),
            liquid: LiquidCoolingConfig::default(),
            solver: SolverConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_tables() {
        let c = ThermalConfig::default();
        assert_eq!(c.air.sink_capacitance, HeatCapacity::new(140.0));
        assert_eq!(c.air.sink_resistance, ThermalResistance::new(0.1));
        assert_eq!(c.air.ambient, Celsius::new(45.0));
        assert_eq!(c.liquid.inlet, Celsius::new(60.0));
        assert_eq!(c.liquid.geometry.count(), 65);
    }

    #[test]
    fn configs_are_tweakable() {
        let mut c = ThermalConfig::default();
        c.liquid.inlet = Celsius::new(30.0);
        c.air.tim_area_resistance = 1e-4;
        c.solver.preconditioner = Some(PreconditionerKind::Jacobi);
        assert_eq!(c.liquid.inlet.value(), 30.0);
        assert_eq!(c.solver.preconditioner, Some(PreconditionerKind::Jacobi));
    }

    #[test]
    fn solver_defaults() {
        let s = SolverConfig::default();
        assert_eq!(s.tolerance, 1e-10);
        assert_eq!(s.max_iterations, 10_000);
        assert_eq!(s.preconditioner, None);
        assert_eq!(s.mg_cycle, MgCycleConfig::default());
    }

    #[test]
    fn solver_debug_excludes_the_cycle_shape() {
        // Cache keys hash configs through Debug; the V-cycle shape moves
        // results only within solver tolerance and must not shift keys.
        let ilu0 = SolverConfig {
            preconditioner: Some(PreconditionerKind::Ilu0),
            ..SolverConfig::default()
        };
        let cheap = SolverConfig {
            mg_cycle: MgCycleConfig::cheap(),
            ..ilu0
        };
        let expected = "SolverConfig { tolerance: 1e-10, max_iterations: 10000, \
                        preconditioner: Ilu0 }";
        assert_eq!(format!("{ilu0:?}"), expected);
        assert_eq!(format!("{cheap:?}"), expected);
        assert_eq!(
            format!("{:?}", SolverConfig::default()),
            "SolverConfig { tolerance: 1e-10, max_iterations: 10000, preconditioner: None }"
        );
    }

    #[test]
    fn the_grid_picks_the_preconditioner_unless_overridden() {
        use vfc_floorplan::{ultrasparc, GridSpec};
        use vfc_units::Length;
        let cells = |stack: &vfc_floorplan::Stack3d, mm: f64| {
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(mm))
                .cell_count()
        };
        let auto = SolverConfig::default();
        let kinds = [
            PreconditionerKind::Identity,
            PreconditionerKind::Jacobi,
            PreconditionerKind::Ilu0,
            PreconditionerKind::Multigrid,
        ];
        for stack in [
            ultrasparc::two_layer_liquid(),
            ultrasparc::four_layer_liquid(),
        ] {
            for mm in [1.0, 0.5, 0.25, 0.1] {
                let n = cells(&stack, mm);
                let want = if mm > 0.2 {
                    (PreconditionerKind::Ilu0, MgCycleConfig::default())
                } else {
                    (PreconditionerKind::Multigrid, MgCycleConfig::cheap())
                };
                assert_eq!(auto.resolve(n), want, "{mm} mm ({n} cells per layer)");
                for kind in kinds {
                    let forced = SolverConfig {
                        preconditioner: Some(kind),
                        ..auto
                    };
                    assert_eq!(forced.resolve(n), (kind, MgCycleConfig::default()));
                }
            }
            assert_eq!(cells(&stack, 0.25), 1_840);
            assert_eq!(cells(&stack, 0.1), 11_500);
        }
    }
}
