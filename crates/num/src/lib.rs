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
//!   the fallback and the reference — **bit-identical** to each other at
//!   every thread count;
//! * [`BiCgStab`] for the nonsymmetric systems produced by advection;
//! * the [`Preconditioner`] trait with [`JacobiPreconditioner`],
//!   [`Ilu0Preconditioner`] (level-scheduled parallel triangular sweeps)
//!   and [`MultigridPreconditioner`] (geometric V-cycles on the
//!   semi-coarsened grid hierarchy, [`MgStructure`]) implementations
//!   ([`PreconditionerKind`] is the config-level selection knob);
//! * [`KernelPool`], a persistent worker pool running the matvecs,
//!   reductions and sweeps with **bit-identical results at every thread
//!   count** (`VFC_NUM_THREADS`; determinism by partitioning), plus
//!   [`KernelSchedules`] — per-pattern triangular level sets, stencil
//!   decomposition and multigrid hierarchy shared across same-pattern
//!   matrix families;
//! * [`SolverWorkspace`], reusable Krylov scratch space (and the pool
//!   handle) so repeated solves on a model allocate nothing;
//! * [`lstsq`](lstsq::solve) ordinary least squares, used by the
//!   Hannan–Rissanen ARMA fit;
//! * light statistics helpers in [`stats`].
//!
//! # Example
//!
//! ```
//! use vfc_num::{CsrBuilder, BiCgStab};
//!
//! // 2x2 diagonally dominant system: [[4,1],[1,3]] x = [1,2]
//! let mut b = CsrBuilder::new(2);
//! b.add(0, 0, 4.0);
//! b.add(0, 1, 1.0);
//! b.add(1, 0, 1.0);
//! b.add(1, 1, 3.0);
//! let m = b.build();
//! let mut x = vec![0.0; 2];
//! let info = BiCgStab::default().solve(&m, &[1.0, 2.0], &mut x).unwrap();
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
mod pool;
mod precond;
mod schedule;
mod sparse;
pub mod stats;
pub mod stencil;
mod workspace;

pub use self::bicgstab::BiCgStab;
pub use self::dense::{DenseMatrix, LuFactors};
pub use self::error::NumError;
pub use self::multigrid::{MgCycleConfig, MgSmoother, MgStructure, MultigridPreconditioner};
pub use self::operator::LinearOperator;
pub use self::pool::{KernelPool, PoolCounters, PAR_MIN_LEN, THREADS_ENV};
pub use self::precond::{
    IdentityPreconditioner, Ilu0Preconditioner, JacobiPreconditioner, Preconditioner,
    PreconditionerKind,
};
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

/// Reduction block length for [`dot`]/[`norm2`]: partial sums are formed
/// per `REDUCE_BLOCK`-sized block and folded in block order, so the
/// floating-point association depends only on the vector length — the
/// parallel variants ([`dot_on`]) distribute whole blocks and are
/// bit-identical to the serial fold at every thread count.
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

/// [`dot`] distributed over a [`KernelPool`]: each fixed block's partial
/// sum may be computed by any worker, but partials are folded in block
/// order on the caller, so the result is bit-identical to [`dot`] for
/// every thread count. `partials` is caller-owned scratch (grown as
/// needed; a [`SolverWorkspace`] carries one).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot_on(pool: &KernelPool, a: &[f64], b: &[f64], partials: &mut Vec<f64>) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let n = a.len();
    if pool.threads() == 1 || n < pool::PAR_MIN_LEN {
        return dot(a, b);
    }
    let blocks = n.div_ceil(REDUCE_BLOCK);
    if partials.len() < blocks {
        partials.resize(blocks, 0.0);
    }
    let out = pool::SharedMut(partials.as_mut_ptr());
    pool.run_chunks(blocks, &|blk| {
        let s = blk * REDUCE_BLOCK;
        let e = (s + REDUCE_BLOCK).min(n);
        // SAFETY: each chunk writes only its own partial slot.
        unsafe { *out.ptr().add(blk) = dot_block(&a[s..e], &b[s..e]) };
    });
    partials[..blocks].iter().sum()
}

/// [`norm2`] distributed over a [`KernelPool`]; bit-identical to the
/// serial [`norm2`] at every thread count (see [`dot_on`]).
pub fn norm2_on(pool: &KernelPool, v: &[f64], partials: &mut Vec<f64>) -> f64 {
    dot_on(pool, v, v, partials).sqrt()
}

/// [`dot2`] distributed over a [`KernelPool`]: each block's two partial
/// sums are computed together by whichever worker claims the block (one
/// broadcast instead of two, one pass over the block's data), then each
/// product's partials are folded in block order on the caller — so both
/// results are bit-identical to separate [`dot_on`] calls at every
/// thread count. `partials` is caller-owned scratch, grown to two slots
/// per block.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot2_on(
    pool: &KernelPool,
    a: &[f64],
    b: &[f64],
    c: &[f64],
    d: &[f64],
    partials: &mut Vec<f64>,
) -> (f64, f64) {
    assert_eq!(a.len(), b.len(), "dot2: length mismatch");
    assert_eq!(c.len(), d.len(), "dot2: length mismatch");
    assert_eq!(a.len(), c.len(), "dot2: length mismatch");
    let n = a.len();
    if pool.threads() == 1 || n < pool::PAR_MIN_LEN {
        return dot2(a, b, c, d);
    }
    let blocks = n.div_ceil(REDUCE_BLOCK);
    if partials.len() < 2 * blocks {
        partials.resize(2 * blocks, 0.0);
    }
    let out = pool::SharedMut(partials.as_mut_ptr());
    pool.run_chunks(blocks, &|blk| {
        let s = blk * REDUCE_BLOCK;
        let e = (s + REDUCE_BLOCK).min(n);
        // SAFETY: each chunk writes only its own two partial slots.
        unsafe {
            *out.ptr().add(blk) = dot_block(&a[s..e], &b[s..e]);
            *out.ptr().add(blocks + blk) = dot_block(&c[s..e], &d[s..e]);
        }
    });
    (
        partials[..blocks].iter().sum(),
        partials[blocks..2 * blocks].iter().sum(),
    )
}

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
    fn pooled_dot_is_bit_identical_across_thread_counts() {
        // Cross the block boundary so the multi-block fold and the
        // distributed partials both engage.
        let n = 3 * REDUCE_BLOCK + 517;
        let a: Vec<f64> = (0..n)
            .map(|i| ((i * 37 % 251) as f64) / 13.0 - 9.0)
            .collect();
        let b: Vec<f64> = (0..n)
            .map(|i| ((i * 53 % 113) as f64) / 7.0 - 8.0)
            .collect();
        let reference = dot(&a, &b);
        for threads in [1usize, 2, 4] {
            let pool = KernelPool::new(threads);
            let mut partials = Vec::new();
            let got = dot_on(&pool, &a, &b, &mut partials);
            assert_eq!(
                got.to_bits(),
                reference.to_bits(),
                "threads {threads}: {got} vs {reference}"
            );
            assert_eq!(
                norm2_on(&pool, &a, &mut partials).to_bits(),
                norm2(&a).to_bits()
            );
        }
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
        /// the separate `dot`/`dot_on` calls at every thread count —
        /// the contract that makes it a pure execution optimization in
        /// the solvers (iteration counts cannot move).
        #[test]
        fn fused_dot2_is_bit_identical_to_separate_reductions(
            len_seed in 0usize..4 * REDUCE_BLOCK,
            scale in 0.125f64..8.0,
        ) {
            use proptest::prelude::prop_assert_eq;
            // Span the serial single-block, serial multi-block and
            // pooled regimes (PAR_MIN_LEN < 4 blocks).
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
            for threads in [1usize, 2, 4] {
                let pool = KernelPool::new(threads);
                let mut partials = Vec::new();
                let separate = (
                    dot_on(&pool, &a, &b, &mut partials),
                    dot_on(&pool, &c, &a, &mut partials),
                );
                let fused = dot2_on(&pool, &a, &b, &c, &a, &mut partials);
                prop_assert_eq!(fused.0.to_bits(), want.0.to_bits(), "threads {}", threads);
                prop_assert_eq!(fused.1.to_bits(), want.1.to_bits(), "threads {}", threads);
                prop_assert_eq!(separate.0.to_bits(), want.0.to_bits());
                prop_assert_eq!(separate.1.to_bits(), want.1.to_bits());
                // The aliased self-product form the solvers use (‖r‖
                // fused with r₀·r) must match norm2 too.
                let (rr, _) = dot2_on(&pool, &a, &a, &c, &a, &mut partials);
                prop_assert_eq!(rr.sqrt().to_bits(), norm2(&a).to_bits());
            }
        }
    }
}
