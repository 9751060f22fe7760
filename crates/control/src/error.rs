//! Controller errors.

use vfc_liquid::LiquidError;
use vfc_thermal::ThermalError;

/// Errors raised by characterization and control.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlError {
    /// Underlying thermal model failure.
    Thermal(ThermalError),
    /// Underlying pump/channel failure.
    Liquid(LiquidError),
    /// The demand grid for characterization was empty or degenerate.
    EmptyDemandGrid,
    /// The characterization's power map is not affine in demand: at
    /// `node`, the map at demand 0.5 is off the midpoint of the maps at
    /// demand 0 and 1 by `deviation`, relative to the largest end-map
    /// power.
    NonAffinePower {
        /// Node index of the first deviation found.
        node: usize,
        /// Relative deviation from the midpoint.
        deviation: f64,
    },
    /// The characterization's setting count does not match the pump's.
    SettingCountMismatch {
        /// Settings in the characterization.
        characterized: usize,
        /// Settings on the pump.
        pump: usize,
    },
}

impl core::fmt::Display for ControlError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ControlError::Thermal(e) => write!(f, "thermal model failed: {e}"),
            ControlError::Liquid(e) => write!(f, "pump model failed: {e}"),
            ControlError::EmptyDemandGrid => write!(f, "characterization needs demand points"),
            ControlError::NonAffinePower { node, deviation } => write!(
                f,
                "characterization power is not affine in demand: node {node} is off the \
                 midpoint by {deviation:.3e} (relative)"
            ),
            ControlError::SettingCountMismatch {
                characterized,
                pump,
            } => write!(
                f,
                "characterization has {characterized} settings, pump has {pump}"
            ),
        }
    }
}

impl std::error::Error for ControlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ControlError::Thermal(e) => Some(e),
            ControlError::Liquid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ThermalError> for ControlError {
    fn from(e: ThermalError) -> Self {
        ControlError::Thermal(e)
    }
}

impl From<LiquidError> for ControlError {
    fn from(e: LiquidError) -> Self {
        ControlError::Liquid(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(ControlError::EmptyDemandGrid.to_string().contains("demand"));
        let e = ControlError::SettingCountMismatch {
            characterized: 4,
            pump: 5,
        };
        assert!(e.to_string().contains('4'));
        let e = ControlError::NonAffinePower {
            node: 17,
            deviation: 0.25,
        };
        assert!(e.to_string().contains("affine") && e.to_string().contains("17"));
    }
}
