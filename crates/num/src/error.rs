//! Error type shared by the numerical kernels.

/// Errors produced by factorizations and iterative solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum NumError {
    /// A matrix was singular (or numerically singular) during factorization.
    SingularMatrix {
        /// Pivot column at which elimination broke down.
        pivot: usize,
    },
    /// An iterative solver failed to reach the requested tolerance.
    ///
    /// The solution vector carries the same best-iterate guarantee as
    /// [`Breakdown`](Self::Breakdown): on return it holds the
    /// lowest-residual iterate observed, and `residual` reports that
    /// iterate's relative residual.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Relative residual of the returned (best observed) iterate.
        residual: f64,
    },
    /// Inputs had inconsistent dimensions.
    DimensionMismatch {
        /// Human-readable description of the mismatch.
        context: &'static str,
    },
    /// The iterative method broke down (division by a vanishing inner
    /// product), typically caused by a badly conditioned system.
    ///
    /// **Contract:** on return the caller's solution vector holds the
    /// lowest-residual iterate the solve observed — never a
    /// mid-iteration partial update. At worst that is the caller's own
    /// warm start (when the breakdown hit before any progress), so the
    /// vector is always usable: recovery paths warm-start a retry from
    /// it under a stronger preconditioner or a shorter time step (see
    /// the thermal layer's escalation ladder).
    Breakdown {
        /// Iteration at which the breakdown occurred.
        iterations: usize,
    },
    /// Pattern-derived execution state (kernel schedules, a multigrid
    /// hierarchy) was offered to a matrix with a different sparsity
    /// pattern. Running parallel sweeps against foreign levels —
    /// or Galerkin scatter maps against foreign entries — would be a
    /// data race or silent corruption, so builders refuse up front.
    PatternMismatch {
        /// Which builder rejected the foreign pattern.
        context: &'static str,
    },
}

impl core::fmt::Display for NumError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NumError::SingularMatrix { pivot } => {
                write!(f, "matrix is singular at pivot column {pivot}")
            }
            NumError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "solver did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            NumError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            NumError::Breakdown { iterations } => {
                write!(f, "iterative method broke down at iteration {iterations}")
            }
            NumError::PatternMismatch { context } => {
                write!(
                    f,
                    "{context}: schedules were computed for a different sparsity pattern"
                )
            }
        }
    }
}

impl std::error::Error for NumError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = NumError::NoConvergence {
            iterations: 10,
            residual: 0.5,
        };
        let s = e.to_string();
        assert!(s.contains("10"));
        assert!(s.starts_with("solver"));
    }
}
