//! Row-major dense matrix with LU factorization.
//!
//! Sized for the small systems this workspace needs (ARMA normal equations,
//! TALB balanced-power solves, reference solves in tests) — typically well
//! under 1000×1000.

use crate::NumError;

/// A row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    #[cfg(test)]
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[cfg(test)]
    pub(crate) fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Self {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            y[i] = crate::dot(row, x);
        }
        y
    }

    /// Transposed matrix–vector product `Aᵀ·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub(crate) fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t: dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (j, &a) in row.iter().enumerate() {
                y[j] += a * x[i];
            }
        }
        y
    }

    /// Gram matrix `AᵀA` (used by the least-squares normal equations).
    pub(crate) fn gram(&self) -> DenseMatrix {
        let mut g = DenseMatrix::zeros(self.cols, self.cols);
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for j in 0..self.cols {
                let aj = row[j];
                if aj == 0.0 {
                    continue;
                }
                for k in j..self.cols {
                    g[(j, k)] += aj * row[k];
                }
            }
        }
        // Mirror the upper triangle.
        for j in 0..self.cols {
            for k in (j + 1)..self.cols {
                g[(k, j)] = g[(j, k)];
            }
        }
        g
    }

    /// Solves `A·x = b` by LU factorization with partial pivoting,
    /// consuming a copy of the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::SingularMatrix`] if a pivot vanishes and
    /// [`NumError::DimensionMismatch`] for non-square `A` or wrong `b`.
    pub fn lu_solve(&self, b: &[f64]) -> Result<Vec<f64>, NumError> {
        if self.rows != self.cols {
            return Err(NumError::DimensionMismatch {
                context: "lu_solve requires a square matrix",
            });
        }
        if b.len() != self.rows {
            return Err(NumError::DimensionMismatch {
                context: "lu_solve rhs length must equal matrix order",
            });
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x: Vec<f64> = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Partial pivoting: pick the largest magnitude in this column.
            let mut pivot_row = col;
            let mut pivot_val = a[perm[col] * n + col].abs();
            for (r, &pr) in perm.iter().enumerate().skip(col + 1) {
                let v = a[pr * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return Err(NumError::SingularMatrix { pivot: col });
            }
            perm.swap(col, pivot_row);
            let prow = perm[col];
            let pivot = a[prow * n + col];
            for &r in perm.iter().skip(col + 1) {
                let factor = a[r * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[r * n + col] = 0.0;
                for k in (col + 1)..n {
                    a[r * n + k] -= factor * a[prow * n + k];
                }
                let bc = x[perm_index(&perm, prow)];
                // Forward-eliminate the rhs in the same pass.
                let idx = perm_index(&perm, r);
                x[idx] -= factor * bc;
            }
        }

        // Back substitution in permuted order.
        let mut out = vec![0.0; n];
        for col in (0..n).rev() {
            let prow = perm[col];
            let mut sum = x[perm_index(&perm, prow)];
            for k in (col + 1)..n {
                sum -= a[prow * n + k] * out[k];
            }
            out[col] = sum / a[prow * n + col];
        }
        Ok(out)
    }
}

/// Position of physical row `row` in the logical (permuted) rhs: because we
/// permute via an index vector and never move rhs entries, the rhs entry for
/// physical row `r` simply lives at index `r`.
#[inline]
fn perm_index(_perm: &[usize], physical_row: usize) -> usize {
    physical_row
}

/// LU factors of a square [`DenseMatrix`], computed once and reused.
///
/// [`DenseMatrix::lu_solve`] refactors on every call — fine for one-shot
/// solves, wasteful when the same matrix is solved every iteration (the
/// multigrid coarsest level runs one of these per V-cycle). `factor`
/// pays the `O(n³)` elimination once; `solve_into`
/// is a pair of `O(n²)` triangular substitutions with a fixed summation
/// order, so repeated solves are bit-identical.
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    /// Packed factors, physical row-major: strictly below the pivot
    /// column the multipliers of unit-lower `L`, elsewhere `U`.
    lu: Vec<f64>,
    /// `perm[logical] = physical` pivot row order.
    perm: Vec<usize>,
}

impl LuFactors {
    /// Factors `a` with partial pivoting.
    ///
    /// # Errors
    ///
    /// [`NumError::SingularMatrix`] if a pivot vanishes,
    /// [`NumError::DimensionMismatch`] for non-square `a`.
    pub(crate) fn factor(a: &DenseMatrix) -> Result<Self, NumError> {
        if a.rows != a.cols {
            return Err(NumError::DimensionMismatch {
                context: "lu factorization requires a square matrix",
            });
        }
        let n = a.rows;
        let mut lu = a.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            let mut pivot_row = col;
            let mut pivot_val = lu[perm[col] * n + col].abs();
            for (r, &pr) in perm.iter().enumerate().skip(col + 1) {
                let v = lu[pr * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return Err(NumError::SingularMatrix { pivot: col });
            }
            perm.swap(col, pivot_row);
            let prow = perm[col];
            let pivot = lu[prow * n + col];
            for &r in perm.iter().skip(col + 1) {
                let factor = lu[r * n + col] / pivot;
                lu[r * n + col] = factor;
                if factor == 0.0 {
                    continue;
                }
                for k in (col + 1)..n {
                    lu[r * n + k] -= factor * lu[prow * n + k];
                }
            }
        }
        Ok(Self { n, lu, perm })
    }

    /// Matrix order the factors were computed for.
    #[cfg(test)]
    pub(crate) fn order(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b` from the stored factors (allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if `b` or `x` differ from the factored order.
    pub(crate) fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n, "lu solve: rhs length");
        assert_eq!(x.len(), n, "lu solve: solution length");
        // Forward substitution with unit-lower L in pivot order.
        for col in 0..n {
            let prow = self.perm[col];
            let mut sum = b[prow];
            for k in 0..col {
                sum -= self.lu[prow * n + k] * x[k];
            }
            x[col] = sum;
        }
        // Back substitution with U.
        for col in (0..n).rev() {
            let prow = self.perm[col];
            let mut sum = x[col];
            for k in (col + 1)..n {
                sum -= self.lu[prow * n + k] * x[k];
            }
            x[col] = sum / self.lu[prow * n + col];
        }
    }
}

impl core::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl core::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn identity_solve_returns_rhs() {
        let m = DenseMatrix::identity(4);
        let b = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(m.lu_solve(&b).unwrap(), b.to_vec());
    }

    #[test]
    fn known_3x3_solve() {
        let a = DenseMatrix::from_rows(3, 3, &[2.0, 1.0, 1.0, 1.0, 3.0, 2.0, 1.0, 0.0, 0.0]);
        // x = [1, 2, 3]: b = [2+2+3, 1+6+6, 1] = [7, 13, 1]
        let x = a.lu_solve(&[7.0, 13.0, 1.0]).unwrap();
        for (xi, want) in x.iter().zip([1.0, 2.0, 3.0]) {
            assert!((xi - want).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(matches!(
            a.lu_solve(&[1.0, 2.0]),
            Err(NumError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_errors() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            a.lu_solve(&[1.0, 2.0]),
            Err(NumError::DimensionMismatch { .. })
        ));
        let sq = DenseMatrix::identity(2);
        assert!(matches!(
            sq.lu_solve(&[1.0]),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let x = a.lu_solve(&[5.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn random_solve_matches_matvec() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 5, 20, 50] {
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = rng.random_range(-1.0..1.0);
                }
                a[(i, i)] += n as f64; // make it well-conditioned
            }
            let x_true: Vec<f64> = (0..n).map(|_| rng.random_range(-5.0..5.0)).collect();
            let b = a.matvec(&x_true);
            let x = a.lu_solve(&b).unwrap();
            for (got, want) in x.iter().zip(&x_true) {
                assert!((got - want).abs() < 1e-8, "n={n}");
            }
        }
    }

    #[test]
    fn lu_factors_match_one_shot_solve() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 7, 33] {
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = rng.random_range(-1.0..1.0);
                }
                a[(i, i)] += n as f64;
            }
            let b: Vec<f64> = (0..n).map(|_| rng.random_range(-3.0..3.0)).collect();
            let lu = LuFactors::factor(&a).unwrap();
            assert_eq!(lu.order(), n);
            let mut x = vec![0.0; n];
            lu.solve_into(&b, &mut x);
            let reference = a.lu_solve(&b).unwrap();
            for (got, want) in x.iter().zip(&reference) {
                assert!((got - want).abs() < 1e-9, "n={n}: {got} vs {want}");
            }
            // Repeated solves from the same factors are bit-identical.
            let mut x2 = vec![0.0; n];
            lu.solve_into(&b, &mut x2);
            assert!(x.iter().zip(&x2).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
    }

    #[test]
    fn lu_factors_reject_bad_inputs() {
        assert!(matches!(
            LuFactors::factor(&DenseMatrix::zeros(2, 3)),
            Err(NumError::DimensionMismatch { .. })
        ));
        let singular = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(matches!(
            LuFactors::factor(&singular),
            Err(NumError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = DenseMatrix::from_rows(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gram();
        assert_eq!(g[(0, 0)], 35.0);
        assert_eq!(g[(0, 1)], 44.0);
        assert_eq!(g[(1, 0)], 44.0);
        assert_eq!(g[(1, 1)], 56.0);
    }

    #[test]
    fn matvec_t_is_transpose() {
        let a = DenseMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    proptest! {
        #[test]
        fn solve_residual_is_small(
            n in 1usize..8,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = rng.random_range(-1.0..1.0);
                }
                a[(i, i)] += 4.0;
            }
            let b: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
            let x = a.lu_solve(&b).unwrap();
            let r: Vec<f64> = a.matvec(&x).iter().zip(&b).map(|(ax, bi)| ax - bi).collect();
            prop_assert!(crate::norm2(&r) < 1e-9);
        }
    }
}
