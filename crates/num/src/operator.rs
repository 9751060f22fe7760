//! The linear-operator abstraction behind the Krylov solver.
//!
//! The solver only ever needs four things from the system matrix: its
//! order, `y = A·x`, the fused residual `r = b − A·x`, and the fused
//! backward-Euler prologue. [`LinearOperator`] captures exactly that,
//! which lets the same solver loop run on
//!
//! * a [`StencilOp`](crate::StencilOp) view — the index-free structured
//!   operator of [`stencil`](crate::stencil), which walks the same
//!   entries in the same order without loading per-entry column
//!   indices; it runs wherever a pattern decomposes into one, or
//! * a plain [`CsrMatrix`], the fallback for patterns that do not
//!   decompose and the reference the stencil kernels are tested against.
//!
//! Both enumerate each row's entries **in CSR column order with the CSR
//! kernel's exact accumulation pattern** (two alternating accumulators,
//! odd tail into the first), so they produce bit-identical results —
//! which operator runs can never change a simulation.

use crate::CsrMatrix;

/// A square linear operator the Krylov solvers can iterate on.
///
/// Every implementation is bit-identical to the CSR reference — see the
/// module docs.
pub trait LinearOperator {
    /// Operator order `n`.
    fn order(&self) -> usize;

    /// `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` have the wrong length.
    fn matvec_into(&self, x: &[f64], y: &mut [f64]);

    /// Fused residual `r = b − A·x` in one pass over the rows —
    /// bit-identical to a matvec followed by an elementwise
    /// subtraction, without the extra sweep over memory.
    ///
    /// # Panics
    ///
    /// Panics if any slice has the wrong length.
    fn residual_into(&self, b: &[f64], x: &[f64], r: &mut [f64]);

    /// Fused backward-Euler prologue, one pass over the grid:
    /// `rhs_i = c_i·x_i + base_i` and `r_i = rhs_i − (A·x)_i`.
    ///
    /// Bit-identical to building the rhs, running a matvec and
    /// subtracting — the transient stepper's per-sub-step preamble
    /// collapsed into a single traversal.
    ///
    /// # Panics
    ///
    /// Panics if any slice has the wrong length.
    fn be_prologue(&self, c: &[f64], base: &[f64], x: &[f64], rhs: &mut [f64], r: &mut [f64]);
}

/// What a fused row kernel does with each row's sum `s`.
///
/// `Mv`: `y_i = s`. `Res`: `r_i = b_i − s`. `Be`: `rhs_i = c_i·x_i +
/// base_i; r_i = rhs_i − s`.
pub(crate) enum RowMode<'a> {
    Mv {
        y: &'a mut [f64],
    },
    Res {
        b: &'a [f64],
        r: &'a mut [f64],
    },
    Be {
        c: &'a [f64],
        base: &'a [f64],
        rhs: &'a mut [f64],
        r: &'a mut [f64],
    },
}

impl RowMode<'_> {
    /// Panics unless `x` and every slice of the mode hold `n` entries —
    /// the condition the unchecked row kernels rely on.
    pub(crate) fn assert_order(&self, n: usize, x: &[f64]) {
        let ok = match self {
            RowMode::Mv { y } => y.len() == n,
            RowMode::Res { b, r } => b.len() == n && r.len() == n,
            RowMode::Be { c, base, rhs, r } => [c.len(), base.len(), rhs.len(), r.len()]
                .iter()
                .all(|&l| l == n),
        };
        assert!(
            ok && x.len() == n,
            "row kernel: a slice's length differs from the order {n}"
        );
    }

    /// The same mode over shorter-lived borrows, handed by value to one
    /// row segment's kernel.
    #[inline(always)]
    pub(crate) fn reborrow(&mut self) -> RowMode<'_> {
        match self {
            RowMode::Mv { y } => RowMode::Mv { y },
            RowMode::Res { b, r } => RowMode::Res { b, r },
            RowMode::Be { c, base, rhs, r } => RowMode::Be { c, base, rhs, r },
        }
    }

    /// Applies the mode's epilogue for row `i` whose entry sum is `s`.
    ///
    /// # Safety
    ///
    /// `i` must be in range for `x` and every slice of the mode.
    #[inline(always)]
    pub(crate) unsafe fn finish(&mut self, i: usize, x: &[f64], s: f64) {
        unsafe {
            match self {
                RowMode::Mv { y } => *y.get_unchecked_mut(i) = s,
                RowMode::Res { b, r } => *r.get_unchecked_mut(i) = *b.get_unchecked(i) - s,
                RowMode::Be { c, base, rhs, r } => {
                    let v = *c.get_unchecked(i) * *x.get_unchecked(i) + *base.get_unchecked(i);
                    *rhs.get_unchecked_mut(i) = v;
                    *r.get_unchecked_mut(i) = v - s;
                }
            }
        }
    }
}

/// Runs the fused CSR row kernel over every row of `m`: each row's
/// entry sum in the canonical accumulation order (entries at even
/// in-row positions into `acc0`, odd into `acc1`, pairwise from the row
/// start, odd tail into `acc0`, result `acc0 + acc1`), then the mode's
/// epilogue.
///
/// # Panics
///
/// Panics if `x` or a slice of `mode` does not hold `m.order()` entries.
pub(crate) fn csr_rows(m: &CsrMatrix, x: &[f64], mut mode: RowMode<'_>) {
    mode.assert_order(m.order(), x);
    let rp = m.row_ptr();
    let cols = m.col_indices();
    let vals = m.values();
    // SAFETY: `row_ptr` has n+1 monotone entries bounded by nnz and every
    // column index is < n (CsrBuilder invariants); `assert_order` above
    // checked `x` and the mode's slices against n. The unchecked accesses
    // keep this hot loop (2 of the 4 memory streams per nonzero) free of
    // bounds tests.
    unsafe {
        let mut start = *rp.get_unchecked(0) as usize;
        for i in 0..m.order() {
            let end = *rp.get_unchecked(i + 1) as usize;
            let (mut acc0, mut acc1) = (0.0f64, 0.0f64);
            let mut k = start;
            while k + 1 < end {
                acc0 += *vals.get_unchecked(k) * *x.get_unchecked(*cols.get_unchecked(k) as usize);
                acc1 += *vals.get_unchecked(k + 1)
                    * *x.get_unchecked(*cols.get_unchecked(k + 1) as usize);
                k += 2;
            }
            if k < end {
                acc0 += *vals.get_unchecked(k) * *x.get_unchecked(*cols.get_unchecked(k) as usize);
            }
            mode.finish(i, x, acc0 + acc1);
            start = end;
        }
    }
}

/// The CSR reference operator: the fallback for patterns that do not
/// decompose into a stencil, and the oracle the stencil kernels are
/// tested against.
impl LinearOperator for CsrMatrix {
    fn order(&self) -> usize {
        CsrMatrix::order(self)
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        CsrMatrix::matvec_into(self, x, y);
    }

    fn residual_into(&self, b: &[f64], x: &[f64], r: &mut [f64]) {
        csr_rows(self, x, RowMode::Res { b, r });
    }

    fn be_prologue(&self, c: &[f64], base: &[f64], x: &[f64], rhs: &mut [f64], r: &mut [f64]) {
        csr_rows(self, x, RowMode::Be { c, base, rhs, r });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrBuilder;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_matrix(seed: u64, n: usize) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = CsrBuilder::new(n);
        for i in 0..n {
            b.add(i, i, rng.random_range(2.0..5.0));
        }
        for _ in 0..n * 4 {
            b.add(
                rng.random_range(0..n),
                rng.random_range(0..n),
                rng.random_range(-1.0..1.0),
            );
        }
        b.build()
    }

    #[test]
    fn fused_residual_matches_matvec_then_subtract_bitwise() {
        for seed in 0..20u64 {
            let n = 3 + (seed as usize * 7) % 90;
            let m = random_matrix(seed, n);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos() * 3.0).collect();
            let mut y = vec![0.0; n];
            m.matvec_into(&x, &mut y);
            let unfused: Vec<f64> = b.iter().zip(&y).map(|(bi, yi)| bi - yi).collect();
            let mut r = vec![f64::NAN; n];
            LinearOperator::residual_into(&m, &b, &x, &mut r);
            for (a, w) in r.iter().zip(&unfused) {
                assert_eq!(a.to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn be_prologue_matches_unfused_sequence_bitwise() {
        let n = 60;
        let m = random_matrix(7, n);
        let c: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.01).collect();
        let base: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin()).collect();
        let x: Vec<f64> = (0..n).map(|i| 40.0 + (i as f64 * 0.2).cos()).collect();

        let rhs_ref: Vec<f64> = (0..n).map(|i| c[i] * x[i] + base[i]).collect();
        let mut y = vec![0.0; n];
        m.matvec_into(&x, &mut y);
        let r_ref: Vec<f64> = rhs_ref.iter().zip(&y).map(|(a, b)| a - b).collect();

        let mut rhs = vec![f64::NAN; n];
        let mut r = vec![f64::NAN; n];
        m.be_prologue(&c, &base, &x, &mut rhs, &mut r);
        for (a, w) in rhs.iter().zip(&rhs_ref) {
            assert_eq!(a.to_bits(), w.to_bits());
        }
        for (a, w) in r.iter().zip(&r_ref) {
            assert_eq!(a.to_bits(), w.to_bits());
        }
    }
}
