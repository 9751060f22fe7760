//! Configuration of the thermal network builder.

use vfc_liquid::{ChannelGeometry, ConvectionModel, Coolant};
use vfc_num::{MgCycleConfig, PreconditionerKind};
use vfc_units::{Celsius, HeatCapacity, Length, ThermalResistance};

/// Linear-solver settings for the assembled networks.
///
/// The preconditioner is the main lever for fine grids: the steady-state
/// cost at 0.5 mm cells drops several-fold from `Identity` to `Ilu0`
/// (see `cargo bench -p vfc_bench --bench thermal_solver`); factorization
/// state is cached per model and invalidated only on flow changes, so its
/// setup cost amortizes across every 100 ms sample. The operator is not
/// a setting: solves run the index-free stencil operator whenever the
/// grid's pattern decomposes into one and the CSR matrix otherwise, and
/// the two are bit-identical.
#[derive(Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SolverConfig {
    /// Relative residual tolerance `‖b−Ax‖/‖b‖`.
    pub tolerance: f64,
    /// Iteration cap before the solve fails.
    pub max_iterations: usize,
    /// Preconditioner applied on every Krylov iteration (default:
    /// ILU(0), the fine-grid workhorse). [`PreconditionerKind::Multigrid`]
    /// runs geometric V-cycles on the semi-coarsened hierarchy every
    /// skeleton carries and keeps iteration counts nearly
    /// resolution-independent — the pick for 100 µm grids and below.
    pub preconditioner: PreconditionerKind,
    /// V-cycle shape when `preconditioner` is
    /// [`PreconditionerKind::Multigrid`]; ignored otherwise. The default
    /// symmetric V(1,1) ILU cycle is the robust choice;
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

/// Matches the original derive output so `SimConfig::cache_key`, which
/// hashes configs through their `Debug` representation, is unaffected by
/// the (result-invariant) cycle-shape choice.
impl std::fmt::Debug for SolverConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverConfig")
            .field("tolerance", &self.tolerance)
            .field("max_iterations", &self.max_iterations)
            .field("preconditioner", &self.preconditioner)
            .finish()
    }
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            tolerance: 1e-10,
            max_iterations: 10_000,
            preconditioner: PreconditionerKind::Ilu0,
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
        c.solver.preconditioner = PreconditionerKind::Jacobi;
        assert_eq!(c.liquid.inlet.value(), 30.0);
        assert_eq!(c.solver.preconditioner, PreconditionerKind::Jacobi);
    }

    #[test]
    fn solver_defaults() {
        let s = SolverConfig::default();
        assert_eq!(s.tolerance, 1e-10);
        assert_eq!(s.max_iterations, 10_000);
        assert_eq!(s.preconditioner, PreconditionerKind::Ilu0);
        assert_eq!(s.mg_cycle, MgCycleConfig::default());
    }

    #[test]
    fn solver_debug_excludes_the_cycle_shape() {
        // Cache keys hash configs through Debug; the V-cycle shape moves
        // results only within solver tolerance and must not shift keys.
        let default = SolverConfig::default();
        let cheap = SolverConfig {
            mg_cycle: MgCycleConfig::cheap(),
            ..default
        };
        let expected = "SolverConfig { tolerance: 1e-10, max_iterations: 10000, \
                        preconditioner: Ilu0 }";
        assert_eq!(format!("{default:?}"), expected);
        assert_eq!(format!("{cheap:?}"), expected);
    }
}
