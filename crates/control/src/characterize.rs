//! Steady-state characterization of the flow settings (the data behind
//! Fig. 5 and the runtime LUT).

use vfc_liquid::Pump;
use vfc_thermal::{StackThermalBuilder, ThermalModel};
use vfc_units::Celsius;

use crate::ControlError;

/// Result of sweeping heat demand × flow setting over the steady-state
/// model.
///
/// `demand` is an abstract utilization scale in `[0, 1]` mapped to a node
/// power vector by the caller (the simulator uses its full power model at
/// the given average utilization, including leakage fixed-point).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Characterization {
    demands: Vec<f64>,
    /// `tmax[d][s]`: max junction temperature at demand `d`, setting `s`.
    tmax: Vec<Vec<f64>>,
    /// `capability[s]`: largest demand the setting holds at/below target.
    capability: Vec<f64>,
    target: f64,
}

/// Sweeps the steady-state model over a demand grid for every pump
/// setting.
///
/// `power_at` maps `(demand, model)` to a node power vector; it must be
/// affine in demand. The steady state is then affine in demand too, so
/// each setting takes two solves, at demand 0 and 1, and every grid
/// demand `d` reads its temperatures off `(1−d)·T₀ + d·T₁` — the same
/// field a solve at `d` converges to, within solver tolerance.
///
/// # Errors
///
/// [`ControlError::EmptyDemandGrid`] for `demand_points < 2`,
/// [`ControlError::NonAffinePower`] if `power_at(0.5)` is not the
/// midpoint of `power_at(0)` and `power_at(1)`, or any thermal
/// build/solve failure.
pub fn characterize(
    builder: &StackThermalBuilder<'_>,
    pump: &Pump,
    cavities: usize,
    target: Celsius,
    demand_points: usize,
    power_at: &dyn Fn(f64, &ThermalModel) -> Vec<f64>,
) -> Result<Characterization, ControlError> {
    characterize_skeleton(
        &std::sync::Arc::new(builder.skeleton()),
        pump,
        cavities,
        target,
        demand_points,
        power_at,
    )
}

/// [`characterize`] against an already-assembled skeleton, so callers
/// that hold one (e.g. the engine's `ThermalModelFamily`) don't pay
/// assembly twice. Each setting is a cheap value patch on shared CSR
/// structure, not a reassembly, and every per-setting model solves with
/// the skeleton's shared sweep schedules.
///
/// # Errors
///
/// As [`characterize`].
pub fn characterize_skeleton(
    skeleton: &std::sync::Arc<vfc_thermal::StackSkeleton>,
    pump: &Pump,
    cavities: usize,
    target: Celsius,
    demand_points: usize,
    power_at: &dyn Fn(f64, &ThermalModel) -> Vec<f64>,
) -> Result<Characterization, ControlError> {
    let _span = vfc_obs::span("control.characterize");
    if demand_points < 2 {
        return Err(ControlError::EmptyDemandGrid);
    }
    let demands: Vec<f64> = (0..demand_points)
        .map(|i| i as f64 / (demand_points - 1) as f64)
        .collect();
    let mut tmax = vec![vec![0.0; pump.setting_count()]; demand_points];

    let mut field = Vec::new();
    for s in pump.flow_settings() {
        let flow = pump.per_cavity_flow(s, cavities);
        let mut model = skeleton.model(Some(flow))?;
        let p0 = power_at(0.0, &model);
        let p1 = power_at(1.0, &model);
        check_affine(&p0, &p1, &power_at(0.5, &model))?;
        let t0 = model.steady_state(&p0, None)?;
        let t1 = model.steady_state(&p1, Some(&t0))?;
        for (d, &demand) in demands.iter().enumerate() {
            field.clear();
            field.extend(
                t0.iter()
                    .zip(&t1)
                    .map(|(a, b)| (1.0 - demand) * a + demand * b),
            );
            tmax[d][s.index()] = model.max_junction_temperature(&field).value();
        }
    }

    let capability = (0..pump.setting_count())
        .map(|s| invert_capability(&demands, &tmax, s, target.value()))
        .collect();

    Ok(Characterization {
        demands,
        tmax,
        capability,
        target: target.value(),
    })
}

/// Relative deviation from the midpoint above which a power map counts
/// as non-affine: far above the few ulps an affine map's round-off
/// leaves, far below any real curvature.
const AFFINE_TOLERANCE: f64 = 1e-9;

/// Checks that `half`, the power map at demand 0.5, is the midpoint of
/// the maps at demand 0 (`p0`) and 1 (`p1`), node by node.
fn check_affine(p0: &[f64], p1: &[f64], half: &[f64]) -> Result<(), ControlError> {
    let scale = p0
        .iter()
        .chain(p1)
        .fold(f64::MIN_POSITIVE, |m, v| m.max(v.abs()));
    for (node, ((a, b), h)) in p0.iter().zip(p1).zip(half).enumerate() {
        let deviation = (h - 0.5 * (a + b)).abs() / scale;
        if deviation > AFFINE_TOLERANCE || deviation.is_nan() {
            return Err(ControlError::NonAffinePower { node, deviation });
        }
    }
    Ok(())
}

/// Largest demand for which `tmax(demand, s) <= target` (linear
/// interpolation between grid points; 0 if even idle exceeds the target,
/// 1 if the full range fits).
fn invert_capability(demands: &[f64], tmax: &[Vec<f64>], s: usize, target: f64) -> f64 {
    let t_of = |d: usize| tmax[d][s];
    if t_of(0) > target {
        return 0.0;
    }
    for d in 1..demands.len() {
        if t_of(d) > target {
            let (d0, d1) = (demands[d - 1], demands[d]);
            let (t0, t1) = (t_of(d - 1), t_of(d));
            // t is increasing across this segment; find the crossing.
            return d0 + (target - t0) / (t1 - t0) * (d1 - d0);
        }
    }
    1.0
}

impl Characterization {
    /// The demand grid.
    pub fn demands(&self) -> &[f64] {
        &self.demands
    }

    /// Number of flow settings characterized.
    pub fn setting_count(&self) -> usize {
        self.tmax[0].len()
    }

    /// The control target temperature.
    pub(crate) fn target(&self) -> Celsius {
        Celsius::new(self.target)
    }

    /// Maximum temperature at a `(demand grid index, setting)` pair.
    #[cfg(test)]
    pub(crate) fn tmax_at(&self, demand_index: usize, setting: usize) -> Celsius {
        Celsius::new(self.tmax[demand_index][setting])
    }

    /// Largest demand a setting holds at/below the target.
    pub fn capability(&self, setting: usize) -> f64 {
        self.capability[setting]
    }

    /// Interpolated maximum temperature at an arbitrary demand.
    pub(crate) fn tmax_interp(&self, demand: f64, setting: usize) -> Celsius {
        let d = demand.clamp(0.0, 1.0);
        let n = self.demands.len();
        let mut i = 1;
        while i < n - 1 && self.demands[i] < d {
            i += 1;
        }
        let (d0, d1) = (self.demands[i - 1], self.demands[i]);
        let (t0, t1) = (self.tmax[i - 1][setting], self.tmax[i][setting]);
        let frac = if d1 > d0 { (d - d0) / (d1 - d0) } else { 0.0 };
        Celsius::new(t0 + frac * (t1 - t0))
    }

    /// The minimum setting able to hold a given demand at/below target
    /// (the highest setting if none can).
    pub(crate) fn required_setting_for_demand(&self, demand: f64) -> usize {
        for s in 0..self.setting_count() {
            if demand <= self.capability[s] + 1e-12 {
                return s;
            }
        }
        self.setting_count() - 1
    }

    /// The Fig. 5 series: for each demand grid point, the temperature the
    /// system would show at the *lowest* setting (the x-axis proxy for
    /// heat demand) and the minimum flow setting required to stay at/below
    /// the target.
    pub fn fig5_series(&self) -> Vec<(Celsius, usize)> {
        self.demands
            .iter()
            .enumerate()
            .map(|(d, &demand)| {
                (
                    Celsius::new(self.tmax[d][0]),
                    self.required_setting_for_demand(demand),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_floorplan::{ultrasparc, GridSpec};
    use vfc_thermal::ThermalConfig;
    use vfc_units::{Length, Watts};

    fn quick_characterization() -> Characterization {
        let stack = ultrasparc::two_layer_liquid();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(1.5));
        let builder = StackThermalBuilder::new(&stack, grid, ThermalConfig::default());
        let pump = Pump::laing_ddc();
        let stack2 = ultrasparc::two_layer_liquid();
        characterize(
            &builder,
            &pump,
            3,
            Celsius::new(80.0),
            5,
            &move |demand, model| {
                model.uniform_block_power(&stack2, |b| match b.kind() {
                    vfc_floorplan::BlockKind::Core => {
                        Watts::new(demand * 3.0 + (1.0 - demand) * 1.0 + 0.5)
                    }
                    vfc_floorplan::BlockKind::L2Cache => Watts::new(1.28 + 0.9),
                    vfc_floorplan::BlockKind::Crossbar => Watts::new(3.0 * demand + 0.75),
                    _ => Watts::new(0.3 + 0.5),
                })
            },
        )
        .unwrap()
    }

    #[test]
    fn tmax_monotone_in_demand_and_antitone_in_flow() {
        let c = quick_characterization();
        for s in 0..c.setting_count() {
            for d in 1..c.demands().len() {
                assert!(c.tmax_at(d, s) >= c.tmax_at(d - 1, s), "demand monotone");
            }
        }
        for d in 0..c.demands().len() {
            for s in 1..c.setting_count() {
                assert!(c.tmax_at(d, s) <= c.tmax_at(d, s - 1), "flow antitone");
            }
        }
    }

    #[test]
    fn capability_increases_with_setting() {
        let c = quick_characterization();
        for s in 1..c.setting_count() {
            assert!(
                c.capability(s) >= c.capability(s - 1),
                "higher flow handles at least as much demand"
            );
        }
        // The top setting must add real headroom over the bottom one.
        let top = c.capability(c.setting_count() - 1);
        assert!(top > c.capability(0) + 0.15, "top adds headroom: {top}");
        assert!(top > 0.6, "top setting covers most of the demand range");
    }

    #[test]
    fn required_setting_is_monotone_staircase() {
        let c = quick_characterization();
        let mut last = 0;
        for d in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
            let s = c.required_setting_for_demand(d);
            assert!(s >= last, "staircase must not descend");
            last = s;
        }
        assert_eq!(c.required_setting_for_demand(0.0), 0);
    }

    #[test]
    fn fig5_series_spans_settings() {
        let c = quick_characterization();
        let series = c.fig5_series();
        assert_eq!(series.len(), c.demands().len());
        // Temperatures on the x-axis increase with demand.
        for w in series.windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
        // The staircase reaches beyond the minimum setting.
        assert!(series.iter().any(|&(_, s)| s > 0));
    }

    /// The per-demand sweep superposition replaced: one warm-started
    /// steady solve per (setting, demand) pair.
    fn direct_sweep(
        skeleton: &std::sync::Arc<vfc_thermal::StackSkeleton>,
        pump: &Pump,
        cavities: usize,
        target: Celsius,
        demand_points: usize,
        power_at: &dyn Fn(f64, &ThermalModel) -> Vec<f64>,
    ) -> Characterization {
        let demands: Vec<f64> = (0..demand_points)
            .map(|i| i as f64 / (demand_points - 1) as f64)
            .collect();
        let mut tmax = vec![vec![0.0; pump.setting_count()]; demand_points];
        for s in pump.flow_settings() {
            let mut model = skeleton
                .model(Some(pump.per_cavity_flow(s, cavities)))
                .unwrap();
            let mut warm: Option<Vec<f64>> = None;
            for (d, &demand) in demands.iter().enumerate() {
                let t = model
                    .steady_state(&power_at(demand, &model), warm.as_deref())
                    .unwrap();
                tmax[d][s.index()] = model.max_junction_temperature(&t).value();
                warm = Some(t);
            }
        }
        let capability = (0..pump.setting_count())
            .map(|s| invert_capability(&demands, &tmax, s, target.value()))
            .collect();
        Characterization {
            demands,
            tmax,
            capability,
            target: target.value(),
        }
    }

    #[test]
    fn superposition_matches_the_direct_sweep() {
        // Both sides solve to a relative residual of 1e-13, so what they
        // are compared on is the superposition, not their solver error:
        // the two differ by 60–110× the solver tolerance. At the default
        // 1e-10 that is up to 1.1e-8 relative on Tmax and 6e-8 on
        // capability (measured on these four grids), with the same
        // staircase.
        let pump = Pump::laing_ddc();
        let target = Celsius::new(79.0);
        let mut config = ThermalConfig::default();
        config.solver.tolerance = 1e-13;
        for stack in [
            ultrasparc::two_layer_liquid(),
            ultrasparc::four_layer_liquid(),
        ] {
            let cavities = stack.cavity_count();
            let power_stack = stack.clone();
            let power_at = move |demand: f64, model: &ThermalModel| {
                model.uniform_block_power(&power_stack, |b| match b.kind() {
                    vfc_floorplan::BlockKind::Core => Watts::new(1.0 + 2.5 * demand + 0.3),
                    vfc_floorplan::BlockKind::L2Cache => {
                        Watts::new(1.28 * (0.2 + 0.8 * demand) + 0.57)
                    }
                    vfc_floorplan::BlockKind::Crossbar => Watts::new(1.5 * demand + 0.45),
                    _ => Watts::new(0.3),
                })
            };
            for mm in [1.0, 0.5] {
                let grid = GridSpec::from_cell_size(
                    stack.tiers()[0].floorplan(),
                    Length::from_millimeters(mm),
                );
                let skeleton =
                    std::sync::Arc::new(StackThermalBuilder::new(&stack, grid, config).skeleton());
                let superposed =
                    characterize_skeleton(&skeleton, &pump, cavities, target, 7, &power_at)
                        .unwrap();
                let direct = direct_sweep(&skeleton, &pump, cavities, target, 7, &power_at);
                let case = format!("{} tiers at {mm} mm", stack.tiers().len());
                for d in 0..direct.demands().len() {
                    for s in 0..direct.setting_count() {
                        let (got, want) = (superposed.tmax[d][s], direct.tmax[d][s]);
                        assert!(
                            ((got - want) / want).abs() <= 1e-9,
                            "{case}: Tmax at demand {d}, setting {s}: {got} vs {want}"
                        );
                    }
                }
                for (s, (got, want)) in superposed
                    .capability
                    .iter()
                    .zip(&direct.capability)
                    .enumerate()
                {
                    assert!(
                        (got - want).abs() <= 1e-9,
                        "{case}: capability {s}: {got} vs {want}"
                    );
                }
                let staircase = |c: &Characterization| {
                    c.fig5_series().iter().map(|&(_, s)| s).collect::<Vec<_>>()
                };
                assert_eq!(staircase(&superposed), staircase(&direct), "{case}");
                for demand in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
                    assert_eq!(
                        superposed.required_setting_for_demand(demand),
                        direct.required_setting_for_demand(demand),
                        "{case}: demand {demand}"
                    );
                }
                // The map crosses the target inside the demand range, so
                // the capability inversion is exercised, not clamped.
                assert!(
                    direct.capability.iter().any(|&c| c > 0.0 && c < 1.0),
                    "{case}: {:?}",
                    direct.capability
                );
            }
        }
    }

    #[test]
    fn non_affine_power_is_rejected() {
        let stack = ultrasparc::two_layer_liquid();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(2.0));
        let builder = StackThermalBuilder::new(&stack, grid, ThermalConfig::default());
        let power_stack = stack.clone();
        let err = characterize(
            &builder,
            &Pump::laing_ddc(),
            3,
            Celsius::new(80.0),
            5,
            &move |demand, model| {
                model.uniform_block_power(&power_stack, |b| {
                    Watts::new(if b.is_core() {
                        3.0 * demand * demand
                    } else {
                        0.5
                    })
                })
            },
        );
        assert!(
            matches!(err, Err(ControlError::NonAffinePower { deviation, .. }) if deviation > 0.01),
            "{err:?}"
        );
    }

    #[test]
    fn empty_grid_rejected() {
        let stack = ultrasparc::two_layer_liquid();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(2.0));
        let builder = StackThermalBuilder::new(&stack, grid, ThermalConfig::default());
        let pump = Pump::laing_ddc();
        let err = characterize(&builder, &pump, 3, Celsius::new(80.0), 1, &|_, m| {
            m.zero_power()
        });
        assert!(matches!(err, Err(ControlError::EmptyDemandGrid)));
    }
}
