//! Numerical kernels for the vfc thermal simulator and forecaster.
//!
//! The thermal model assembles large sparse resistive-capacitive networks
//! whose conductance matrices are nonsymmetric (coolant advection is a
//! directed coupling), so the crate provides:
//!
//! * [`DenseMatrix`] with [LU factorization](DenseMatrix::lu_solve) — used
//!   for small systems (ARMA normal equations, TALB weight solves) and as a
//!   reference oracle for the sparse iterative solvers in tests;
//! * [`CsrMatrix`] (compressed sparse row) assembled from triplets, with
//!   reference-counted index arrays (and copy-on-write value arrays) so
//!   same-pattern matrix families share one structure;
//! * the [`LinearOperator`] abstraction the solver iterates on: the
//!   index-free [`stencil`] operator ([`StencilPattern`]/[`StencilOp`])
//!   wherever a pattern decomposes into one, and [`CsrMatrix`] itself as
//!   the fallback and the reference — **bit-identical** to each other;
//! * [`BiCgStab`] for the nonsymmetric systems produced by advection;
//! * the [`Preconditioner`] trait with its two implementations,
//!   [`Ilu0Preconditioner`] (level-major triangular sweeps) and
//!   [`MultigridPreconditioner`] (one geometric V(0,1) cycle per apply
//!   on the semi-coarsened grid hierarchy, [`MgStructure`]), both built
//!   by [`PreconditionerKind::build`];
//! * [`KernelSchedules`] — the per-pattern analysis every
//!   preconditioner build takes, shared across same-pattern matrix
//!   families: triangular level sets, the ILU(0) plan (diagonal
//!   positions, IKJ update list, level-major sweep tables), the stencil
//!   decomposition and the multigrid hierarchy. Symbolic once, numeric
//!   per matrix: every ILU(0) or multigrid factorization on the pattern
//!   is a value pass;
//! * [`SolverWorkspace`], reusable Krylov scratch space so repeated
//!   solves on a model allocate nothing;
//! * [`lstsq`](lstsq::solve) ordinary least squares, used by the
//!   Hannan–Rissanen ARMA fit;
//! * light statistics helpers in [`stats`].
//!
//! Every kernel runs on the calling thread. Parallelism lives one level
//! up, where the sweep runner simulates independent cells side by side.
//!
//! # Example
//!
//! ```
//! use vfc_num::{BiCgStab, CsrBuilder, KernelSchedules, PreconditionerKind, SolverWorkspace};
//!
//! // 2x2 diagonally dominant system: [[4,1],[1,3]] x = [1,2]
//! let mut b = CsrBuilder::new(2);
//! b.add(0, 0, 4.0);
//! b.add(0, 1, 1.0);
//! b.add(1, 0, 1.0);
//! b.add(1, 1, 3.0);
//! let m = b.build();
//! // Symbolic once per pattern, numeric per matrix.
//! let schedules = KernelSchedules::for_matrix(&m);
//! let precond = PreconditionerKind::Ilu0.build(&m, &schedules).unwrap();
//! let mut x = vec![0.0; 2];
//! let mut ws = SolverWorkspace::new();
//! let info = BiCgStab::default()
//!     .solve_with(&m, &[1.0, 2.0], &mut x, precond.as_ref(), &mut ws)
//!     .unwrap();
//! assert!(info.residual < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bicgstab;
mod dense;
mod error;
pub mod lstsq;
mod multigrid;
mod operator;
mod precond;
mod schedule;
mod sparse;
pub mod stats;
pub mod stencil;
mod workspace;

pub use self::bicgstab::BiCgStab;
pub use self::dense::{DenseMatrix, LuFactors};
pub use self::error::NumError;
pub use self::multigrid::{MgStructure, MultigridPreconditioner};
pub use self::operator::LinearOperator;
pub use self::precond::{Ilu0Preconditioner, Preconditioner, PreconditionerKind};
pub use self::schedule::{KernelSchedules, TriangularLevels};
pub use self::sparse::{CsrBuilder, CsrMatrix};
pub use self::stencil::{GridCoord, StencilOp, StencilPattern};
pub use self::workspace::SolverWorkspace;

/// Convergence report returned by the iterative solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveInfo {
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − Ax‖ / ‖b‖`.
    pub residual: f64,
}

/// Euclidean norm of a vector.
#[inline]
pub fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

/// Reduction block length for [`dot`]/[`dot2`]/[`norm2`]: partial sums
/// are formed per `REDUCE_BLOCK`-sized block and folded in block order,
/// so the floating-point association depends only on the vector length.
/// Every recorded iteration count and figure bit was computed with this
/// fold; changing the block length or the fold order moves them.
pub const REDUCE_BLOCK: usize = 4096;

/// One reduction block: four independent accumulators break the
/// floating-point add dependency chain so the loop pipelines.
#[inline]
fn dot_block(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let n4 = a.len() - a.len() % 4;
    let (a4, a_tail) = a.split_at(n4);
    let (b4, b_tail) = b.split_at(n4);
    for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in a_tail.iter().zip(b_tail) {
        s += x * y;
    }
    s
}

/// Dot product of two equal-length vectors.
///
/// Accumulated per [`REDUCE_BLOCK`]-sized block (see there for why); the
/// Krylov solvers call this several times per iteration.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    if a.len() <= REDUCE_BLOCK {
        return dot_block(a, b);
    }
    let mut s = 0.0f64;
    for (ca, cb) in a.chunks(REDUCE_BLOCK).zip(b.chunks(REDUCE_BLOCK)) {
        s += dot_block(ca, cb);
    }
    s
}

/// Two dot products over co-located data in **one pass**:
/// `(a·b, c·d)`, with all four slices the same length.
///
/// Each product is accumulated exactly as [`dot`] accumulates it — the
/// same per-[`REDUCE_BLOCK`] partials folded in the same block order —
/// so both results are bit-identical to separate [`dot`] calls; the
/// fusion only halves the number of passes over memory (the solvers'
/// co-located reductions, e.g. `‖r‖` with `r₀·r`, are bandwidth-bound).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot2(a: &[f64], b: &[f64], c: &[f64], d: &[f64]) -> (f64, f64) {
    assert_eq!(a.len(), b.len(), "dot2: length mismatch");
    assert_eq!(c.len(), d.len(), "dot2: length mismatch");
    assert_eq!(a.len(), c.len(), "dot2: length mismatch");
    if a.len() <= REDUCE_BLOCK {
        return (dot_block(a, b), dot_block(c, d));
    }
    let (mut s1, mut s2) = (0.0f64, 0.0f64);
    for (((ca, cb), cc), cd) in a
        .chunks(REDUCE_BLOCK)
        .zip(b.chunks(REDUCE_BLOCK))
        .zip(c.chunks(REDUCE_BLOCK))
        .zip(d.chunks(REDUCE_BLOCK))
    {
        s1 += dot_block(ca, cb);
        s2 += dot_block(cc, cd);
    }
    (s1, s2)
}

/// Provenance shim: every solve runs on the calling thread, so the one
/// kernel "pool" has exactly one thread. Kept so callers that print the
/// kernel thread count keep compiling.
#[derive(Debug)]
pub struct KernelPool;

impl KernelPool {
    /// The process-wide instance.
    pub fn global() -> &'static KernelPool {
        &KernelPool
    }

    /// Threads a solve runs on: always 1.
    pub fn threads(&self) -> usize {
        1
    }
}

/// The environment variable that once sized the kernel pool. Read by
/// nothing; kept so callers that still set it keep compiling.
pub const THREADS_ENV: &str = "VFC_NUM_THREADS";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_and_dots() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn blocked_dot_matches_naive_summation() {
        let n = 2 * REDUCE_BLOCK + 99;
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.02).cos()).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-9 * naive.abs().max(1.0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The fused two-product reduction must land the exact bits of
        /// the separate `dot` calls — the contract that makes it a pure
        /// execution optimization in the solvers (iteration counts
        /// cannot move).
        #[test]
        fn fused_dot2_is_bit_identical_to_separate_reductions(
            len_seed in 0usize..4 * REDUCE_BLOCK,
            scale in 0.125f64..8.0,
        ) {
            use proptest::prelude::prop_assert_eq;
            // Span the single-block and multi-block regimes.
            let n = len_seed + 3;
            let a: Vec<f64> = (0..n)
                .map(|i| ((i * 37 % 251) as f64) / 13.0 - 9.0)
                .collect();
            let b: Vec<f64> = (0..n)
                .map(|i| scale * (((i * 53 % 113) as f64) / 7.0 - 8.0))
                .collect();
            let c: Vec<f64> = (0..n)
                .map(|i| ((i * 11 % 97) as f64) / 5.0 - 9.5)
                .collect();
            let want = (dot(&a, &b), dot(&c, &a));
            let got = dot2(&a, &b, &c, &a);
            prop_assert_eq!(got.0.to_bits(), want.0.to_bits());
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
            // The aliased self-product form the solvers use (‖r‖ fused
            // with r₀·r) must match norm2 too.
            let (rr, _) = dot2(&a, &a, &c, &a);
            prop_assert_eq!(rr.sqrt().to_bits(), norm2(&a).to_bits());
        }
    }
}
