//! TALB weight characterization: the balanced-power solve (Sec. IV).
//!
//! "Consider a 4-core system, where the average power values for the
//! cores to achieve a balanced 75 °C are p1…p4 […] we take the
//! multiplicative inverse of the power values, normalize them, and use
//! them as thermal weight factors."
//!
//! Finding those `p_i` is a mixed boundary-condition problem on the RC
//! network: pin every core cell at the balance temperature, solve the
//! remaining nodes, and read the power each core must inject to hold its
//! cells there.

use std::sync::Arc;

use vfc_floorplan::Stack3d;
use vfc_num::{
    CsrBuilder, CsrMatrix, GridCoord, KernelSchedules, Preconditioner, SolverWorkspace, StencilOp,
    StencilPattern,
};
use vfc_thermal::ThermalModel;
use vfc_units::Celsius;

use crate::ControlError;

/// Computes the per-core balanced power budgets at each balance target,
/// returning `(range upper bound, powers)` rows ready for
/// `ThermalWeightTable::from_balanced_powers`.
///
/// `background` is the node power injected by non-core blocks (caches,
/// crossbar, uncore) during the characterization; cores are clamped to
/// the balance temperature instead of receiving power. Each range ends
/// halfway to the next balance target (`(targets[i] + targets[i+1]) / 2`),
/// the last range being open-ended. The reduced system and its
/// preconditioner are built once and solved once per target.
///
/// # Errors
///
/// Propagates solver failures; returns power floors (1 mW) if a core's
/// balanced power comes out non-positive (over-cooled positions).
pub fn balanced_power_rows(
    model: &ThermalModel,
    stack: &Stack3d,
    background: &[f64],
    targets: &[Celsius],
) -> Result<Vec<(Celsius, Vec<f64>)>, ControlError> {
    let _span = vfc_obs::span("control.balance");
    let system = BalanceSystem::new(model, stack, background)?;
    let mut rows = Vec::with_capacity(targets.len());
    for (i, &t_bal) in targets.iter().enumerate() {
        let powers = system.core_powers(t_bal)?;
        let bound = if i + 1 == targets.len() {
            Celsius::new(f64::MAX)
        } else {
            // Range boundary halfway to the next target.
            Celsius::new((t_bal.value() + targets[i + 1].value()) / 2.0)
        };
        rows.push((bound, powers));
    }
    Ok(rows)
}

/// The mixed boundary-condition problem of one model: core cells
/// fixed, the reduced system over the free nodes assembled and
/// preconditioned once. Only the right-hand side depends on the
/// balance temperature.
struct BalanceSystem<'a> {
    model: &'a ThermalModel,
    background: &'a [f64],
    /// Core cells, pinned at the balance temperature.
    fixed: Vec<bool>,
    /// `(tier, block)` of every core, in global core order.
    core_blocks: Vec<(usize, usize)>,
    free_nodes: Vec<usize>,
    /// `G_UU`, the conductance matrix restricted to the free nodes.
    reduced: CsrMatrix,
    stencil: Option<Arc<StencilPattern>>,
    precond: Box<dyn Preconditioner>,
}

impl<'a> BalanceSystem<'a> {
    fn new(
        model: &'a ThermalModel,
        stack: &Stack3d,
        background: &'a [f64],
    ) -> Result<Self, ControlError> {
        let layout = model.layout();
        let n = layout.node_count();
        assert_eq!(background.len(), n, "background power length");

        // Mark core cells as fixed.
        let mut fixed = vec![false; n];
        let mut core_blocks: Vec<(usize, usize)> = Vec::new();
        for (t, tier) in stack.tiers().iter().enumerate() {
            for (b, blk) in tier.floorplan().blocks().iter().enumerate() {
                if blk.is_core() {
                    core_blocks.push((t, b));
                }
            }
            let cells = layout.cells_per_layer();
            for flat in 0..cells {
                let b = layout.block_of_cell(t, flat / layout.cols(), flat % layout.cols());
                if stack.tiers()[t].floorplan().blocks()[b].is_core() {
                    fixed[layout.tier_node(t, flat / layout.cols(), flat % layout.cols())] = true;
                }
            }
        }

        // Reduced operator over the free nodes (G_UU).
        let g = model.conductance_matrix();
        let mut reduced_index = vec![usize::MAX; n];
        let mut free_nodes = Vec::new();
        for i in 0..n {
            if !fixed[i] {
                reduced_index[i] = free_nodes.len();
                free_nodes.push(i);
            }
        }
        let m = free_nodes.len();
        let mut builder = CsrBuilder::new(m);
        for (ri, &i) in free_nodes.iter().enumerate() {
            for (j, v) in g.row(i) {
                if !fixed[j] {
                    builder.add(ri, reduced_index[j], v);
                }
            }
        }
        let reduced = builder.build();
        // The reduced system gets its pattern schedules the way the
        // skeleton does, from grid coordinates: the free-node subset of
        // the grid's, so core cells dropping out just shrinks their
        // multigrid aggregates. Its preconditioner follows the same grid
        // rule as the model's own solves, resolved on the full grid (the
        // in-plane extent is unchanged).
        let full_coords = layout.grid_coords();
        let coords: Vec<GridCoord> = free_nodes.iter().map(|&i| full_coords[i]).collect();
        let schedules = KernelSchedules::for_grid_matrix(&reduced, &coords);
        let precond = model
            .skeleton()
            .config()
            .solver
            .resolve(layout.cells_per_layer())
            .build(&reduced, &schedules)
            .map_err(vfc_thermal::ThermalError::from)?;
        Ok(Self {
            model,
            background,
            fixed,
            core_blocks,
            free_nodes,
            // Where the reduced pattern still decomposes into a stencil
            // (only core cells drop out), solves run the index-free
            // operator; it is bit-identical to CSR, so the balanced
            // powers do not depend on which one runs.
            stencil: schedules.stencil().cloned(),
            reduced,
            precond,
        })
    }

    /// Solves `G_UU · T_U = P_U + b0_U − G_UF · T_F` with every core cell
    /// at `t_bal` and recovers the power each core injects.
    fn core_powers(&self, t_bal: Celsius) -> Result<Vec<f64>, ControlError> {
        let model = self.model;
        let layout = model.layout();
        let n = layout.node_count();
        let g = model.conductance_matrix();
        let b0 = model.boundary_injection();
        let fixed = &self.fixed;
        let m = self.free_nodes.len();
        let tb = t_bal.value();
        let mut rhs = vec![0.0; m];
        for (ri, &i) in self.free_nodes.iter().enumerate() {
            rhs[ri] = self.background[i] + b0[i];
            for (j, v) in g.row(i) {
                if fixed[j] {
                    rhs[ri] -= v * tb;
                }
            }
        }
        let mut t_u = vec![tb; m];
        let solver = model.skeleton().config().solver.bicgstab();
        let mut ws = SolverWorkspace::new();
        match &self.stencil {
            Some(p) => solver.solve_with(
                &StencilOp::new(p, self.reduced.values()),
                &rhs,
                &mut t_u,
                self.precond.as_ref(),
                &mut ws,
            ),
            None => solver.solve_with(
                &self.reduced,
                &rhs,
                &mut t_u,
                self.precond.as_ref(),
                &mut ws,
            ),
        }
        .map_err(vfc_thermal::ThermalError::from)?;

        // Recover the required injection at each fixed node:
        //   P_f = Σ_j G[f,j]·T_j − b0_f
        let mut temps = vec![0.0; n];
        for (ri, &i) in self.free_nodes.iter().enumerate() {
            temps[i] = t_u[ri];
        }
        for i in 0..n {
            if fixed[i] {
                temps[i] = tb;
            }
        }
        let mut per_core = vec![0.0; self.core_blocks.len()];
        for (ci, &(t, b)) in self.core_blocks.iter().enumerate() {
            let cells = layout.cells_per_layer();
            for flat in 0..cells {
                let (r, c) = (flat / layout.cols(), flat % layout.cols());
                if layout.block_of_cell(t, r, c) != b {
                    continue;
                }
                let node = layout.tier_node(t, r, c);
                let mut p = -b0[node];
                for (j, v) in g.row(node) {
                    p += v * temps[j];
                }
                per_core[ci] += p;
            }
        }
        // Floor non-positive budgets (a core that would need refrigeration to
        // balance gets the minimum weight influence instead), and quantize to
        // 1 µW: the balanced powers of mirror-symmetric cores are degenerate
        // to solver precision, and unquantized values let ~1e-10 W iterative
        // noise decide scheduler tie-breaks — runs would change under any
        // solver/preconditioner evolution. Below-µW distinctions carry no
        // physical information.
        for p in &mut per_core {
            if *p < 1e-3 {
                *p = 1e-3;
            }
            *p = (*p * 1e6).round() / 1e6;
        }
        Ok(per_core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_floorplan::{ultrasparc, GridSpec};
    use vfc_thermal::{StackThermalBuilder, ThermalConfig};
    use vfc_units::{Length, VolumetricFlow, Watts};

    fn liquid_model() -> (ThermalModel, Stack3d) {
        let stack = ultrasparc::two_layer_liquid();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(1.0));
        let model = StackThermalBuilder::new(&stack, grid, ThermalConfig::default())
            .build(Some(VolumetricFlow::from_ml_per_minute(400.0)))
            .unwrap();
        (model, stack)
    }

    /// The power each core must dissipate for all core cells to sit at
    /// `t_bal`: the one row of a single-target balance.
    fn balanced_core_powers(
        model: &ThermalModel,
        stack: &Stack3d,
        background: &[f64],
        t_bal: Celsius,
    ) -> Vec<f64> {
        let mut rows = balanced_power_rows(model, stack, background, &[t_bal]).unwrap();
        rows.remove(0).1
    }

    fn air_model() -> (ThermalModel, Stack3d) {
        let stack = ultrasparc::two_layer_air();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(1.0));
        let model = StackThermalBuilder::new(&stack, grid, ThermalConfig::default())
            .build(None)
            .unwrap();
        (model, stack)
    }

    #[test]
    fn balanced_powers_verify_against_forward_solve() {
        let (mut model, stack) = liquid_model();
        let background = model.uniform_block_power(&stack, |b| {
            if b.is_core() {
                Watts::ZERO
            } else {
                Watts::new(1.0)
            }
        });
        let t_bal = Celsius::new(78.0);
        let powers = balanced_core_powers(&model, &stack, &background, t_bal);
        assert_eq!(powers.len(), 8);

        // Forward check: inject the recovered powers and confirm all core
        // block maxima sit at the balance temperature.
        let mut p = background.clone();
        let mut ci = 0;
        for (t, tier) in stack.tiers().iter().enumerate() {
            for (b, blk) in tier.floorplan().blocks().iter().enumerate() {
                if blk.is_core() {
                    model.add_block_power(&mut p, t, b, Watts::new(powers[ci]));
                    ci += 1;
                }
            }
        }
        let temps = model.steady_state(&p, None).unwrap();
        let bt = vfc_thermal::BlockTemperatures::extract(&model, &temps);
        for (ci2, core_t) in bt.core_max_temperatures(&stack).iter().enumerate() {
            // Mean-per-block balance: block mean should match closely; max
            // deviates only by intra-block spread.
            assert!(
                (core_t.value() - 78.0).abs() < 2.0,
                "core {ci2} at {core_t} should be ≈78"
            );
        }
    }

    #[test]
    fn symmetric_liquid_cores_get_similar_budgets() {
        let (model, stack) = liquid_model();
        let background = model.zero_power();
        let powers = balanced_core_powers(&model, &stack, &background, Celsius::new(75.0));
        let mean = powers.iter().sum::<f64>() / powers.len() as f64;
        for p in &powers {
            assert!((p / mean - 1.0).abs() < 0.35, "powers {powers:?}");
        }
        // Left/right mirror symmetry: cores 0..3 mirror 4..7.
        for i in 0..4 {
            assert!(
                (powers[i] - powers[i + 4]).abs() / mean < 0.05,
                "mirror symmetry violated: {powers:?}"
            );
        }
    }

    #[test]
    fn balanced_powers_match_dense_lu_ground_truth() {
        // The preconditioned reduced-system solve must agree with a dense
        // LU factorization of the same mixed boundary-condition problem.
        let (model, stack) = air_model();
        let layout = model.layout();
        let n = layout.node_count();
        let background = model.zero_power();
        let tb = 75.0;
        let powers = balanced_core_powers(&model, &stack, &background, Celsius::new(tb));

        // Dense reference: assemble the full reduced system and LU-solve.
        let mut fixed = vec![false; n];
        for (t, tier) in stack.tiers().iter().enumerate() {
            for flat in 0..layout.cells_per_layer() {
                let (r, c) = (flat / layout.cols(), flat % layout.cols());
                let b = layout.block_of_cell(t, r, c);
                if tier.floorplan().blocks()[b].is_core() {
                    fixed[layout.tier_node(t, r, c)] = true;
                }
            }
        }
        let g = model.conductance_matrix();
        let b0 = model.boundary_injection();
        let free: Vec<usize> = (0..n).filter(|&i| !fixed[i]).collect();
        let index: std::collections::HashMap<usize, usize> =
            free.iter().enumerate().map(|(ri, &i)| (i, ri)).collect();
        let m = free.len();
        let mut dense = vfc_num::DenseMatrix::zeros(m, m);
        let mut rhs = vec![0.0; m];
        for (ri, &i) in free.iter().enumerate() {
            rhs[ri] = background[i] + b0[i];
            for (j, v) in g.row(i) {
                if fixed[j] {
                    rhs[ri] -= v * tb;
                } else {
                    dense[(ri, index[&j])] += v;
                }
            }
        }
        let t_free = dense.lu_solve(&rhs).unwrap();
        let mut temps = vec![tb; n];
        for (ri, &i) in free.iter().enumerate() {
            temps[i] = t_free[ri];
        }
        let mut expect = Vec::new();
        for (t, tier) in stack.tiers().iter().enumerate() {
            for (b, blk) in tier.floorplan().blocks().iter().enumerate() {
                if !blk.is_core() {
                    continue;
                }
                let mut p = 0.0;
                for flat in 0..layout.cells_per_layer() {
                    let (r, c) = (flat / layout.cols(), flat % layout.cols());
                    if layout.block_of_cell(t, r, c) != b {
                        continue;
                    }
                    let node = layout.tier_node(t, r, c);
                    let mut pn = -b0[node];
                    for (j, v) in g.row(node) {
                        pn += v * temps[j];
                    }
                    p += pn;
                }
                expect.push(p);
            }
        }
        assert_eq!(powers.len(), expect.len());
        for (got, want) in powers.iter().zip(&expect) {
            assert!((got - want).abs() < 1e-5, "iterative {got} vs dense {want}");
        }
    }

    #[test]
    fn air_cooled_rows_reflect_position_asymmetry() {
        let (model, stack) = air_model();
        let background = model.zero_power();
        let rows = balanced_power_rows(
            &model,
            &stack,
            &background,
            &[Celsius::new(65.0), Celsius::new(75.0), Celsius::new(85.0)],
        )
        .unwrap();
        assert_eq!(rows.len(), 3);
        // Higher balance targets allow more power.
        let p65: f64 = rows[0].1.iter().sum();
        let p85: f64 = rows[2].1.iter().sum();
        assert!(p85 > p65);
        // Bounds increase and end open.
        assert!(rows[0].0 < rows[1].0);
        assert_eq!(rows[2].0, Celsius::new(f64::MAX));
    }
}
