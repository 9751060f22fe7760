//! Ordinary least squares via the normal equations.
//!
//! Used by the Hannan–Rissanen ARMA estimator in `vfc-forecast`, whose
//! design matrices are tall and thin (hundreds of rows, < 15 columns), for
//! which normal equations with a ridge guard are accurate and fast.

use crate::{DenseMatrix, NumError};

/// Solves `min ‖A·x − b‖₂` through the normal equations
/// `(AᵀA + λI)·x = Aᵀb` with a tiny ridge `λ` for numerical safety.
///
/// # Errors
///
/// Returns [`NumError::DimensionMismatch`] if `b.len() != A.rows()` and
/// [`NumError::SingularMatrix`] if the regularized Gram matrix is still
/// singular (e.g. a zero design matrix).
pub fn solve(a: &DenseMatrix, b: &[f64]) -> Result<Vec<f64>, NumError> {
    solve_ridge(a, b, 1e-10)
}

/// [`solve`] with an explicit ridge coefficient `lambda ≥ 0`.
///
/// # Errors
///
/// Same as [`solve`].
pub(crate) fn solve_ridge(a: &DenseMatrix, b: &[f64], lambda: f64) -> Result<Vec<f64>, NumError> {
    if b.len() != a.rows() {
        return Err(NumError::DimensionMismatch {
            context: "lstsq: rhs length must equal row count",
        });
    }
    let mut gram = a.gram();
    // Scale the ridge with the Gram diagonal so it is unit-free; the floor
    // keeps a zero design matrix solvable (yielding the zero solution).
    let mean_diag = (0..gram.cols()).map(|i| gram[(i, i)]).sum::<f64>() / gram.cols() as f64;
    let ridge = lambda * mean_diag.max(1e-12);
    for i in 0..gram.cols() {
        gram[(i, i)] += ridge;
    }
    let atb = a.matvec_t(b);
    gram.lu_solve(&atb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn exact_system_is_recovered() {
        // y = 2 + 3x sampled exactly.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let mut a = DenseMatrix::zeros(4, 2);
        let mut b = vec![0.0; 4];
        for (i, &x) in xs.iter().enumerate() {
            a[(i, 0)] = 1.0;
            a[(i, 1)] = x;
            b[i] = 2.0 + 3.0 * x;
        }
        let c = solve(&a, &b).unwrap();
        assert!((c[0] - 2.0).abs() < 1e-6);
        assert!((c[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn overdetermined_noisy_fit_is_close() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 500;
        let mut a = DenseMatrix::zeros(n, 3);
        let mut b = vec![0.0; n];
        for i in 0..n {
            let x = rng.random_range(-1.0..1.0);
            let y = rng.random_range(-1.0..1.0);
            a[(i, 0)] = 1.0;
            a[(i, 1)] = x;
            a[(i, 2)] = y;
            b[i] = 1.5 - 0.5 * x + 2.0 * y + rng.random_range(-0.01..0.01);
        }
        let c = solve(&a, &b).unwrap();
        assert!((c[0] - 1.5).abs() < 0.01);
        assert!((c[1] + 0.5).abs() < 0.01);
        assert!((c[2] - 2.0).abs() < 0.01);
    }

    #[test]
    fn residual_is_orthogonal_to_columns() {
        let mut rng = StdRng::seed_from_u64(11);
        let (n, k) = (60, 4);
        let mut a = DenseMatrix::zeros(n, k);
        for i in 0..n {
            for j in 0..k {
                a[(i, j)] = rng.random_range(-1.0..1.0);
            }
        }
        let b: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let x = solve(&a, &b).unwrap();
        let ax = a.matvec(&x);
        let r: Vec<f64> = ax.iter().zip(&b).map(|(axi, bi)| bi - axi).collect();
        let atr = a.matvec_t(&r);
        for v in atr {
            assert!(v.abs() < 1e-6, "normal equations violated: {v}");
        }
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = DenseMatrix::zeros(3, 2);
        assert!(matches!(
            solve(&a, &[1.0, 2.0]),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn ridge_handles_collinear_columns() {
        // Two identical columns: pure normal equations are singular, the
        // scaled ridge keeps the solve well-posed.
        let mut a = DenseMatrix::zeros(5, 2);
        for i in 0..5 {
            a[(i, 0)] = i as f64;
            a[(i, 1)] = i as f64;
        }
        let b = vec![0.0, 2.0, 4.0, 6.0, 8.0];
        let x = solve_ridge(&a, &b, 1e-8).unwrap();
        // Any split with x0+x1 = 2 is a valid least-squares solution.
        assert!((x[0] + x[1] - 2.0).abs() < 1e-3);
    }
}
