//! Model-level physical invariants for the tests.

use crate::{ThermalError, ThermalModel};

/// Relative energy-balance residual of a steady state:
/// `|P_in − P_out| / max(P_in, ε)`.
///
/// At a converged steady state every injected watt must leave through a
/// boundary (coolant enthalpy or sink convection), so this should be at
/// the solver-tolerance level.
///
/// # Errors
///
/// Returns [`ThermalError::PowerLengthMismatch`] /
/// [`ThermalError::StateLengthMismatch`] on wrong vector lengths.
pub(crate) fn energy_balance_residual(
    model: &ThermalModel,
    power: &[f64],
    temps: &[f64],
) -> Result<f64, ThermalError> {
    let n = model.node_count();
    if power.len() != n {
        return Err(ThermalError::PowerLengthMismatch {
            expected: n,
            got: power.len(),
        });
    }
    if temps.len() != n {
        return Err(ThermalError::StateLengthMismatch {
            expected: n,
            got: temps.len(),
        });
    }
    let p_in: f64 = power.iter().sum();
    let p_out = model.boundary_outflow(temps).value();
    Ok((p_in - p_out).abs() / p_in.abs().max(1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StackThermalBuilder, ThermalConfig};
    use vfc_floorplan::{ultrasparc, GridSpec};
    use vfc_units::{Length, VolumetricFlow, Watts};

    #[test]
    fn residual_is_tiny_at_steady_state_and_large_otherwise() {
        let stack = ultrasparc::two_layer_liquid();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(1.0));
        let mut model = StackThermalBuilder::new(&stack, grid, ThermalConfig::default())
            .build(Some(VolumetricFlow::from_ml_per_minute(600.0)))
            .unwrap();
        let p = model.uniform_block_power(&stack, |b| {
            if b.is_core() {
                Watts::new(3.0)
            } else {
                Watts::new(0.5)
            }
        });
        let t = model.steady_state(&p, None).unwrap();
        assert!(energy_balance_residual(&model, &p, &t).unwrap() < 1e-6);

        // A cold (non-steady) state does not balance.
        let cold = model.initial_state();
        assert!(energy_balance_residual(&model, &p, &cold).unwrap() > 0.5);
    }

    #[test]
    fn length_mismatch_is_reported() {
        let stack = ultrasparc::two_layer_air();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(2.0));
        let model = StackThermalBuilder::new(&stack, grid, ThermalConfig::default())
            .build(None)
            .unwrap();
        let t = model.initial_state();
        assert!(matches!(
            energy_balance_residual(&model, &[0.0], &t),
            Err(ThermalError::PowerLengthMismatch { .. })
        ));
    }
}
