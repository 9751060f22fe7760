//! The linear-operator abstraction behind the Krylov solver.
//!
//! The solver only ever needs four things from the system matrix: its
//! order, `y = A·x`, the fused residual `r = b − A·x`, and (for setup
//! and diagnostics) its diagonal. [`LinearOperator`] captures exactly
//! that, which lets the same solver loop run on
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
//! which operator runs, like the thread count, can never change a
//! simulation.

use crate::pool::{SharedMut, PAR_MIN_LEN, ROW_CHUNK};
use crate::{CsrMatrix, KernelPool};

/// A square linear operator the Krylov solvers can iterate on.
///
/// All methods distribute rows over the given [`KernelPool`] in fixed
/// chunks (the same partitioning as the CSR kernels), and every
/// implementation is bit-identical to the CSR reference at every thread
/// count — see the module docs.
pub trait LinearOperator: Sync {
    /// Operator order `n`.
    fn order(&self) -> usize;

    /// `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` have the wrong length.
    fn matvec_into_on(&self, pool: &KernelPool, x: &[f64], y: &mut [f64]);

    /// Fused residual `r = b − A·x` in one pass over the rows —
    /// bit-identical to a matvec followed by an elementwise
    /// subtraction, without the extra sweep over memory.
    ///
    /// # Panics
    ///
    /// Panics if any slice has the wrong length.
    fn residual_into_on(&self, pool: &KernelPool, b: &[f64], x: &[f64], r: &mut [f64]);

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
    fn be_prologue_on(
        &self,
        pool: &KernelPool,
        c: &[f64],
        base: &[f64],
        x: &[f64],
        rhs: &mut [f64],
        r: &mut [f64],
    );

    /// Writes the operator's diagonal into `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` has the wrong length.
    fn diagonal_into(&self, d: &mut [f64]);
}

/// What a fused row kernel does with each row's sum `s`.
///
/// `Mv`: `y_i = s`. `Res`: `r_i = b_i − s`. `Be`: `rhs_i = c_i·x_i +
/// base_i; r_i = rhs_i − s`.
#[derive(Clone, Copy)]
pub(crate) enum RowMode<'a> {
    Mv {
        y: SharedMut,
    },
    Res {
        b: &'a [f64],
        r: SharedMut,
    },
    Be {
        c: &'a [f64],
        base: &'a [f64],
        rhs: SharedMut,
        r: SharedMut,
    },
}

impl RowMode<'_> {
    /// Applies the mode's epilogue for row `i` whose entry sum is `s`.
    ///
    /// # Safety
    ///
    /// `i` must be in range for every slice/pointer, and no other thread
    /// may concurrently touch the written elements.
    #[inline(always)]
    pub(crate) unsafe fn finish(self, i: usize, x: &[f64], s: f64) {
        unsafe {
            match self {
                RowMode::Mv { y } => *y.ptr().add(i) = s,
                RowMode::Res { b, r } => *r.ptr().add(i) = *b.get_unchecked(i) - s,
                RowMode::Be { c, base, rhs, r } => {
                    let v = *c.get_unchecked(i) * *x.get_unchecked(i) + *base.get_unchecked(i);
                    *rhs.ptr().add(i) = v;
                    *r.ptr().add(i) = v - s;
                }
            }
        }
    }
}

/// One CSR row's entry sum in the canonical accumulation order: entries
/// at even in-row positions into `acc0`, odd into `acc1`, pairwise from
/// the row start, odd tail into `acc0`, result `acc0 + acc1` — exactly
/// [`CsrMatrix::matvec_into`]'s kernel.
///
/// # Safety
///
/// `start..end` must be valid for `vals`/`cols`, every column < `x.len()`.
#[inline(always)]
unsafe fn csr_row_sum(vals: &[f64], cols: &[u32], x: &[f64], start: usize, end: usize) -> f64 {
    unsafe {
        let (mut acc0, mut acc1) = (0.0f64, 0.0f64);
        let mut k = start;
        while k + 1 < end {
            acc0 += *vals.get_unchecked(k) * *x.get_unchecked(*cols.get_unchecked(k) as usize);
            acc1 +=
                *vals.get_unchecked(k + 1) * *x.get_unchecked(*cols.get_unchecked(k + 1) as usize);
            k += 2;
        }
        if k < end {
            acc0 += *vals.get_unchecked(k) * *x.get_unchecked(*cols.get_unchecked(k) as usize);
        }
        acc0 + acc1
    }
}

/// Runs a fused CSR row kernel over `r0..r1`.
///
/// # Safety
///
/// As [`csr_row_sum`], plus the mode's output pointers must cover `n`
/// elements with `[r0, r1)` not concurrently written by anyone else.
unsafe fn csr_rows(m: &CsrMatrix, x: &[f64], mode: RowMode<'_>, r0: usize, r1: usize) {
    let rp = m.row_ptr();
    let cols = m.col_indices();
    let vals = m.values();
    unsafe {
        let mut start = *rp.get_unchecked(r0) as usize;
        for i in r0..r1 {
            let end = *rp.get_unchecked(i + 1) as usize;
            let s = csr_row_sum(vals, cols, x, start, end);
            mode.finish(i, x, s);
            start = end;
        }
    }
}

/// Dispatches a fused row kernel over the pool in [`ROW_CHUNK`] row
/// chunks — the same partitioning as the CSR matvec, so results are
/// bit-identical at every thread count (rows are output-disjoint).
pub(crate) fn run_rows_on(pool: &KernelPool, n: usize, body: &(dyn Fn(usize, usize) + Sync)) {
    if pool.threads() == 1 || n < PAR_MIN_LEN {
        body(0, n);
        return;
    }
    pool.run_chunks(n.div_ceil(ROW_CHUNK), &|c| {
        let r0 = c * ROW_CHUNK;
        body(r0, (r0 + ROW_CHUNK).min(n));
    });
}

/// Runs a fused CSR row kernel over the whole matrix on `pool`.
fn csr_run(m: &CsrMatrix, pool: &KernelPool, x: &[f64], mode: RowMode<'_>) {
    run_rows_on(pool, m.order(), &|r0, r1| {
        // SAFETY: chunks cover disjoint row ranges; slice lengths are
        // checked by the trait methods; CSR invariants bound every index.
        unsafe { csr_rows(m, x, mode, r0, r1) };
    });
}

/// The CSR reference operator: the fallback for patterns that do not
/// decompose into a stencil, and the oracle the stencil kernels are
/// tested against.
impl LinearOperator for CsrMatrix {
    fn order(&self) -> usize {
        CsrMatrix::order(self)
    }

    fn matvec_into_on(&self, pool: &KernelPool, x: &[f64], y: &mut [f64]) {
        CsrMatrix::matvec_into_on(self, pool, x, y);
    }

    fn residual_into_on(&self, pool: &KernelPool, b: &[f64], x: &[f64], r: &mut [f64]) {
        let n = CsrMatrix::order(self);
        for (len, what) in [(b.len(), "b"), (x.len(), "x"), (r.len(), "r")] {
            assert_eq!(len, n, "csr: {what} length");
        }
        let r = SharedMut(r.as_mut_ptr());
        csr_run(self, pool, x, RowMode::Res { b, r });
    }

    fn be_prologue_on(
        &self,
        pool: &KernelPool,
        c: &[f64],
        base: &[f64],
        x: &[f64],
        rhs: &mut [f64],
        r: &mut [f64],
    ) {
        let n = CsrMatrix::order(self);
        for (len, what) in [
            (c.len(), "c"),
            (base.len(), "base"),
            (x.len(), "x"),
            (rhs.len(), "rhs"),
            (r.len(), "r"),
        ] {
            assert_eq!(len, n, "csr: {what} length");
        }
        let mode = RowMode::Be {
            c,
            base,
            rhs: SharedMut(rhs.as_mut_ptr()),
            r: SharedMut(r.as_mut_ptr()),
        };
        csr_run(self, pool, x, mode);
    }

    fn diagonal_into(&self, d: &mut [f64]) {
        assert_eq!(d.len(), CsrMatrix::order(self), "csr: d length");
        d.copy_from_slice(&self.diagonal());
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
            let pool = KernelPool::new(1);
            let mut y = vec![0.0; n];
            m.matvec_into(&x, &mut y);
            let unfused: Vec<f64> = b.iter().zip(&y).map(|(bi, yi)| bi - yi).collect();
            let mut r = vec![f64::NAN; n];
            LinearOperator::residual_into_on(&m, &pool, &b, &x, &mut r);
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
        let pool = KernelPool::new(1);

        let rhs_ref: Vec<f64> = (0..n).map(|i| c[i] * x[i] + base[i]).collect();
        let mut y = vec![0.0; n];
        m.matvec_into(&x, &mut y);
        let r_ref: Vec<f64> = rhs_ref.iter().zip(&y).map(|(a, b)| a - b).collect();

        let mut rhs = vec![f64::NAN; n];
        let mut r = vec![f64::NAN; n];
        m.be_prologue_on(&pool, &c, &base, &x, &mut rhs, &mut r);
        for (a, w) in rhs.iter().zip(&rhs_ref) {
            assert_eq!(a.to_bits(), w.to_bits());
        }
        for (a, w) in r.iter().zip(&r_ref) {
            assert_eq!(a.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn pooled_fused_kernels_are_bit_identical_across_thread_counts() {
        let n = crate::pool::PAR_MIN_LEN + 500;
        let mut b = CsrBuilder::new(n);
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..n {
            b.add(i, i, rng.random_range(2.0..4.0));
            if i > 0 {
                b.add(i, i - 1, -0.5);
            }
            if i + 9 < n {
                b.add(i, i + 9, 0.25);
            }
        }
        let m = b.build();
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 101) as f64) * 0.05).collect();
        let rhs: Vec<f64> = (0..n).map(|i| ((i * 7 % 31) as f64) - 15.0).collect();
        let mut r_ref = vec![0.0; n];
        LinearOperator::residual_into_on(&m, &KernelPool::new(1), &rhs, &x, &mut r_ref);
        for threads in [2usize, 4] {
            let pool = KernelPool::new(threads);
            let mut r = vec![f64::NAN; n];
            LinearOperator::residual_into_on(&m, &pool, &rhs, &x, &mut r);
            assert!(
                r.iter()
                    .zip(&r_ref)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads {threads}"
            );
        }
    }
}
