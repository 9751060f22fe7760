//! Preconditioners for the Krylov solvers.
//!
//! The thermal RC networks are assembled once per grid and re-solved
//! thousands of times (every 100 ms sample, every characterization point),
//! so it pays to spend setup time on a preconditioner that is then applied
//! on every iteration. Two kinds exist, and the grid picks between them
//! (`vfc_thermal::SolverConfig::resolve`):
//!
//! * [`Ilu0Preconditioner`] — incomplete LU on the matrix's own sparsity
//!   pattern, the kind every grid up to 0.25 mm runs. The factorization
//!   is a value pass over the pattern's [`KernelSchedules`] ILU(0) plan,
//!   and the triangular sweeps visit rows in wavefront level order;
//! * [`MultigridPreconditioner`](crate::MultigridPreconditioner) — one
//!   geometric V(0,1) cycle per apply, the kind the paper's 100 µm grid
//!   runs.
//!
//! [`PreconditionerKind`] is the serializable selection threaded through
//! `vfc_thermal::SolverConfig`, and [`PreconditionerKind::build`] is the
//! one way to build either kind.

use std::sync::Arc;

use crate::schedule::{IkjPlan, Ilu0Plan, SweepPlan};
use crate::{CsrMatrix, KernelSchedules, NumError};

/// Application side of a preconditioner: `z ≈ A⁻¹·r`.
///
/// Implementations are built once per matrix (see
/// [`PreconditionerKind::build`]) and applied on every solver iteration;
/// `apply` must not allocate.
pub trait Preconditioner: std::fmt::Debug + Send + Sync {
    /// Applies the preconditioner: `z = M⁻¹·r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `z` differ from the matrix order the
    /// preconditioner was built for.
    fn apply(&self, r: &[f64], z: &mut [f64]);

    /// Matrix order this preconditioner was built for.
    fn order(&self) -> usize;

    /// Composite-cycle count (V-cycles for multigrid) performed so far;
    /// `None` for preconditioners without an internal cycle notion. The
    /// iteration gates in the tests use this to pin cycles per solve.
    fn cycles(&self) -> Option<u64> {
        None
    }
}

/// One triangular factor's values laid over its shared [`SweepPlan`]:
/// the borrowed view the level-major sweep kernels run on.
#[derive(Debug, Clone, Copy)]
struct LevelMajorFactor<'a> {
    plan: &'a SweepPlan,
    /// Values in level-major row order (each row ascending-column).
    vals: &'a [f64],
    /// Permuted reciprocal diagonal (backward factor only).
    diag: &'a [f64],
}

impl LevelMajorFactor<'_> {
    /// One full triangular sweep: every run in level-major position
    /// order, so each row's dependencies are final before it is
    /// computed.
    ///
    /// # Safety
    ///
    /// `r` and `z` must hold the factor's order, and the values must have
    /// been gathered along this plan, built from the level set of the
    /// factor's own pattern.
    #[inline]
    unsafe fn sweep<const BACKWARD: bool>(&self, r: &[f64], z: &mut [f64]) {
        for run in &self.plan.runs {
            let off = self.plan.classes.offsets(run.class);
            // SAFETY: run rows/columns were in range at build time and
            // the level order finishes every dependency first.
            unsafe {
                self.run_segment::<BACKWARD>(
                    off,
                    run.stride as isize,
                    run.row0 as isize,
                    run.val0 as usize,
                    run.pos0 as usize,
                    run.pos1 as usize,
                    r,
                    z,
                );
            }
        }
    }

    /// One run segment, dispatched to a const-`k` kernel so the per-row
    /// body fully unrolls (rows of a run are level-independent, so the
    /// kernel processes several per loop trip and their loads pipeline).
    ///
    /// # Safety
    ///
    /// As [`sweep`](Self::sweep).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    unsafe fn run_segment<const BACKWARD: bool>(
        &self,
        off: &[i32],
        stride: isize,
        base: isize,
        vb: usize,
        qa: usize,
        qb: usize,
        r: &[f64],
        z: &mut [f64],
    ) {
        macro_rules! k_arm {
            ($K:literal) => {
                // SAFETY: forwarded from the caller.
                unsafe { self.segment_rows::<BACKWARD, $K>(off, stride, base, vb, qa, qb, r, z) }
            };
        }
        match off.len() {
            0 => k_arm!(0),
            1 => k_arm!(1),
            2 => k_arm!(2),
            3 => k_arm!(3),
            4 => k_arm!(4),
            5 => k_arm!(5),
            6 => k_arm!(6),
            7 => k_arm!(7),
            8 => k_arm!(8),
            // SAFETY: forwarded from the caller.
            _ => unsafe {
                self.segment_rows_generic::<BACKWARD>(off, stride, base, vb, qa, qb, r, z)
            },
        }
    }

    /// Const-`K` row loop of [`run_segment`](Self::run_segment).
    ///
    /// # Safety
    ///
    /// As [`sweep`](Self::sweep).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn segment_rows<const BACKWARD: bool, const K: usize>(
        &self,
        off: &[i32],
        stride: isize,
        base: isize,
        mut vb: usize,
        qa: usize,
        qb: usize,
        r: &[f64],
        z: &mut [f64],
    ) {
        let mut o = [0isize; K];
        for (d, &s) in o.iter_mut().zip(off) {
            *d = s as isize;
        }
        let mut i = base;
        // SAFETY: forwarded from the caller; each row's accumulation is
        // the canonical ascending-column order.
        unsafe {
            for q in qa..qb {
                let row = i as usize;
                let mut acc = if BACKWARD {
                    *z.get_unchecked(row)
                } else {
                    *r.get_unchecked(row)
                };
                for (p, &o) in o.iter().enumerate() {
                    acc -= *self.vals.get_unchecked(vb + p) * *z.get_unchecked((i + o) as usize);
                }
                *z.get_unchecked_mut(row) = if BACKWARD {
                    acc * *self.diag.get_unchecked(q)
                } else {
                    acc
                };
                i += stride;
                vb += K;
            }
        }
    }

    /// Runtime-`k` fallback of [`run_segment`](Self::run_segment).
    ///
    /// # Safety
    ///
    /// As [`sweep`](Self::sweep).
    #[allow(clippy::too_many_arguments)]
    unsafe fn segment_rows_generic<const BACKWARD: bool>(
        &self,
        off: &[i32],
        stride: isize,
        base: isize,
        mut vb: usize,
        qa: usize,
        qb: usize,
        r: &[f64],
        z: &mut [f64],
    ) {
        let k = off.len();
        let mut i = base;
        // SAFETY: forwarded from the caller.
        unsafe {
            for q in qa..qb {
                let row = i as usize;
                let mut acc = if BACKWARD {
                    *z.get_unchecked(row)
                } else {
                    *r.get_unchecked(row)
                };
                for (p, &o) in off.iter().enumerate() {
                    acc -= *self.vals.get_unchecked(vb + p)
                        * *z.get_unchecked((i + o as isize) as usize);
                }
                *z.get_unchecked_mut(row) = if BACKWARD {
                    acc * *self.diag.get_unchecked(q)
                } else {
                    acc
                };
                i += stride;
                vb += k;
            }
        }
    }
}

/// Incomplete LU factorization with zero fill-in, ILU(0).
///
/// The factors live on the sparsity pattern of the input matrix, with a
/// unit-diagonal `L` stored strictly below the diagonal and `U` on and
/// above it. For the advection–diffusion thermal matrices this cuts
/// BiCGSTAB iteration counts by an order of magnitude on fine grids.
///
/// **Symbolic once, numeric per matrix.** The pattern work — diagonal
/// positions, the IKJ update list, the level-major sweep layout — is the
/// pattern's [`KernelSchedules`] ILU(0) plan, computed once per grid.
/// A factorization is a value pass: copy the values, run the planned
/// updates, gather both triangles into level-major order.
///
/// The values are stored **level-major**: the rows of each wavefront
/// level back to back, so the sweeps stream their value arrays while the
/// rows of a level retire independently. Natural row order instead
/// chains every row's `z[i]` through `z[i−1]` written nanoseconds
/// earlier, a store-to-load latency wall measuring ~3× a matvec per
/// entry on the 100 µm grid. Each row's accumulation order is fixed by
/// the CSR entry order, so the result is bit-identical to a
/// natural-order substitution.
#[derive(Debug, Clone)]
pub struct Ilu0Preconditioner {
    plan: Arc<Ilu0Plan>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Reciprocal `U` diagonal in backward-sweep row order (the sweep
    /// multiplies instead of dividing).
    inv_diag: Vec<f64>,
}

impl Ilu0Preconditioner {
    /// Factors `a` in ILU(0) form: a value pass over the ILU(0) plan of
    /// `schedules`, computed once per sparsity pattern and shared across
    /// same-pattern factorizations.
    ///
    /// # Errors
    ///
    /// [`NumError::SingularMatrix`] if a row lacks a diagonal entry or a
    /// pivot vanishes during elimination;
    /// [`NumError::PatternMismatch`] if `schedules` was computed for a
    /// different sparsity pattern than `a`'s — foreign level sets would
    /// send the unchecked sweeps to rows in the wrong order or out of
    /// bounds, so the mismatch is rejected up front (pointer-equality
    /// fast path for structure-shared families).
    pub(crate) fn new(a: &CsrMatrix, schedules: &KernelSchedules) -> Result<Self, NumError> {
        if !schedules.matches_pattern(a) {
            return Err(NumError::PatternMismatch { context: "ilu0" });
        }
        let plan = Arc::clone(schedules.ilu0_plan()?);
        let lu = plan.ikj.eliminate(a)?;
        Ok(Self::gather(plan, &lu))
    }

    /// Gathers the eliminated values `lu` (natural slot order) into both
    /// triangles' level-major layouts.
    fn gather(plan: Arc<Ilu0Plan>, lu: &[f64]) -> Self {
        let pick = |slots: &[u32]| slots.iter().map(|&k| lu[k as usize]).collect();
        Self {
            lower: pick(&plan.lower.gather),
            upper: pick(&plan.upper.gather),
            inv_diag: plan
                .upper
                .diag_gather
                .iter()
                .map(|&k| 1.0 / lu[k as usize])
                .collect(),
            plan,
        }
    }

    fn lower(&self) -> LevelMajorFactor<'_> {
        LevelMajorFactor {
            plan: &self.plan.lower,
            vals: &self.lower,
            diag: &[],
        }
    }

    fn upper(&self) -> LevelMajorFactor<'_> {
        LevelMajorFactor {
            plan: &self.plan.upper,
            vals: &self.upper,
            diag: &self.inv_diag,
        }
    }

    /// The shared plan this factorization was built on.
    #[cfg(test)]
    pub(crate) fn plan(&self) -> &Arc<Ilu0Plan> {
        &self.plan
    }
}

impl IkjPlan {
    /// The numeric IKJ pass, the one ILU(0) elimination loop: `a`'s
    /// values eliminated along the plan, in natural slot order.
    ///
    /// # Errors
    ///
    /// [`NumError::SingularMatrix`] at the first row whose pivot
    /// vanishes.
    fn eliminate(&self, a: &CsrMatrix) -> Result<Vec<f64>, NumError> {
        let rp = a.row_ptr();
        let cols = a.col_indices();
        let mut v = a.values().to_vec();
        let mut e = 0usize;
        for (i, &di) in self.diag.iter().enumerate() {
            for kk in rp[i] as usize..di as usize {
                // Row k's pivot is final, and was checked, when row k
                // finished.
                let lik = v[kk] / v[self.diag[cols[kk] as usize] as usize];
                v[kk] = lik;
                let span = self.upd_ptr[e] as usize..self.upd_ptr[e + 1] as usize;
                for &[target, source] in &self.updates[span] {
                    v[target as usize] -= lik * v[source as usize];
                }
                e += 1;
            }
            if v[di as usize].abs() < 1e-300 {
                return Err(NumError::SingularMatrix { pivot: i });
            }
        }
        Ok(v)
    }
}

impl Preconditioner for Ilu0Preconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let n = self.order();
        assert_eq!(r.len(), n, "ilu0: r length");
        assert_eq!(z.len(), n, "ilu0: z length");
        // SAFETY: lengths checked above; both factors were built from
        // the level sets of this matrix's pattern (`new` rejects foreign
        // schedules), so positions cover every row exactly once in
        // dependency order.
        unsafe {
            self.lower().sweep::<false>(r, z);
            self.upper().sweep::<true>(r, z);
        }
    }

    fn order(&self) -> usize {
        self.inv_diag.len()
    }
}

/// Serializable preconditioner selection.
///
/// `vfc_thermal::SolverConfig` threads this through the model builders;
/// [`build`](Self::build) turns it into a concrete [`Preconditioner`] for
/// one assembled matrix on the pattern's shared [`KernelSchedules`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PreconditionerKind {
    /// Incomplete LU with zero fill-in.
    Ilu0,
    /// Geometric multigrid V(0,1) cycle on the semi-coarsened grid
    /// hierarchy: no pre-smoothing, one ILU(0) post-smooth per level and
    /// a dense-LU coarsest solve. Requires
    /// schedules built with grid coordinates
    /// ([`KernelSchedules::for_grid_matrix`]); falls back to [`Ilu0`]
    /// (bit-identical to selecting it directly) when no hierarchy is
    /// available — patterns without grid coordinates, or systems already
    /// coarsest-sized.
    ///
    /// [`Ilu0`]: Self::Ilu0
    Multigrid,
}

impl PreconditionerKind {
    /// Builds the concrete preconditioner for `a` on the pattern's shared
    /// `schedules` (the thermal skeleton computes them once per grid).
    ///
    /// # Errors
    ///
    /// [`NumError::SingularMatrix`] if a factorization breaks down
    /// (missing or vanishing pivot/diagonal);
    /// [`NumError::PatternMismatch`] if `schedules` belong to another
    /// pattern.
    pub fn build(
        self,
        a: &CsrMatrix,
        schedules: &KernelSchedules,
    ) -> Result<Box<dyn Preconditioner>, NumError> {
        let _span = vfc_obs::span("precond.factor");
        Ok(match (self, schedules.multigrid()) {
            (PreconditionerKind::Multigrid, Some(structure)) => Box::new(
                crate::MultigridPreconditioner::new(a, schedules, Arc::clone(structure))?,
            ),
            // ILU(0), or multigrid without a hierarchy (no grid
            // coordinates, or the system is already coarsest-sized).
            _ => Box::new(Ilu0Preconditioner::new(a, schedules)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn tridiag(n: usize) -> CsrMatrix {
        let mut b = CsrBuilder::new(n);
        for i in 0..n {
            b.add(i, i, 4.0);
            if i > 0 {
                b.add(i, i - 1, -1.5);
            }
            if i + 1 < n {
                b.add(i, i + 1, -0.5);
            }
        }
        b.build()
    }

    /// ILU(0) of `a` on its own pattern's schedules.
    fn ilu0(a: &CsrMatrix) -> Result<Ilu0Preconditioner, NumError> {
        Ilu0Preconditioner::new(a, &KernelSchedules::for_matrix(a))
    }

    #[test]
    fn ilu0_on_triangular_matrix_is_exact() {
        // For a lower-triangular matrix ILU(0) is an exact factorization,
        // so applying it solves the system outright.
        let mut b = CsrBuilder::new(3);
        b.add(0, 0, 2.0);
        b.add(1, 0, 1.0);
        b.add(1, 1, 4.0);
        b.add(2, 1, -2.0);
        b.add(2, 2, 5.0);
        let a = b.build();
        let m = ilu0(&a).unwrap();
        let x_true = [1.0, -2.0, 3.0];
        let rhs = a.matvec(&x_true);
        let mut z = vec![0.0; 3];
        m.apply(&rhs, &mut z);
        for (got, want) in z.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12, "{z:?}");
        }
    }

    #[test]
    fn ilu0_on_tridiagonal_is_exact_lu() {
        // A tridiagonal matrix has no fill-in, so ILU(0) equals full LU
        // and M⁻¹·(A·x) recovers x exactly.
        let a = tridiag(50);
        let m = ilu0(&a).unwrap();
        let x_true: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        let rhs = a.matvec(&x_true);
        let mut z = vec![0.0; 50];
        m.apply(&rhs, &mut z);
        for (got, want) in z.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10);
        }
        assert_eq!(m.order(), a.order());
    }

    #[test]
    fn ilu0_missing_diagonal_is_rejected() {
        // Row 1 has no diagonal entry: the build names it, as the
        // search-based IKJ does.
        let mut b = CsrBuilder::new(3);
        b.add(0, 0, 2.0);
        b.add(0, 1, 1.0);
        b.add(1, 0, 1.0);
        b.add(2, 2, 1.0);
        let a = b.build();
        let want = NumError::SingularMatrix { pivot: 1 };
        assert_eq!(reference_ikj(&a).unwrap_err(), want);
        assert_eq!(ilu0(&a).unwrap_err(), want);
    }

    #[test]
    fn ilu0_zero_pivot_is_rejected_at_its_row() {
        // u11 = 1 − (1/1)·1 = 0 exactly: the build stops at row 1.
        let mut b = CsrBuilder::new(3);
        for (i, j, v) in [
            (0, 0, 1.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 1.0),
            (2, 2, 3.0),
        ] {
            b.add(i, j, v);
        }
        let a = b.build();
        let want = NumError::SingularMatrix { pivot: 1 };
        assert_eq!(reference_ikj(&a).unwrap_err(), want);
        assert_eq!(ilu0(&a).unwrap_err(), want);
    }

    #[test]
    fn kind_builds_all_variants() {
        let a = tridiag(5);
        let schedules = KernelSchedules::for_matrix(&a);
        for kind in [PreconditionerKind::Ilu0, PreconditionerKind::Multigrid] {
            let m = kind.build(&a, &schedules).unwrap();
            assert_eq!(m.order(), 5);
            let mut z = vec![0.0; 5];
            m.apply(&[1.0; 5], &mut z);
            assert!(z.iter().all(|v| v.is_finite()));
        }
    }

    /// Random diagonally dominant ("SPD-ish") matrix on a random sparse
    /// pattern — every row keeps a strong diagonal so ILU(0) is
    /// well-defined.
    fn random_dd(seed: u64, n: usize) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = CsrBuilder::new(n);
        for i in 0..n {
            b.add(i, i, 6.0 + rng.random_range(0.0..2.0));
        }
        for _ in 0..n * 3 {
            let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
            if i != j {
                b.add(i, j, rng.random_range(-0.5..0.5));
            }
        }
        b.build()
    }

    /// Structured 2-D grid (5-point stencil) — regular enough for the
    /// stencil decomposition and with real wavefront level structure.
    fn grid_dd(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = CsrBuilder::new(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                b.add(i, i, 5.0 + rng.random_range(0.0..1.0));
                if c > 0 {
                    b.add(i, i - 1, rng.random_range(-1.0..-0.2));
                }
                if c + 1 < cols {
                    b.add(i, i + 1, rng.random_range(-1.0..-0.2));
                }
                if r > 0 {
                    b.add(i, i - cols, rng.random_range(-1.0..-0.2));
                }
                if r + 1 < rows {
                    b.add(i, i + cols, rng.random_range(-1.0..-0.2));
                }
            }
        }
        b.build()
    }

    #[test]
    fn stencil_sequential_sweeps_match_indexed_sweeps_bitwise() {
        let a = grid_dd(25, 19, 7);
        let n = a.order();
        let schedules = KernelSchedules::for_matrix(&a);
        assert!(
            schedules.stencil().is_some(),
            "grid pattern must decompose into a stencil"
        );
        let m = Ilu0Preconditioner::new(&a, &schedules).unwrap();
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin() * 4.0).collect();
        let mut z_stencil = vec![0.0; n];
        m.apply(&r, &mut z_stencil); // level-major run sweeps
        let (lu, diag) = reference_ikj(&a).unwrap();
        let z_indexed = reference_apply(&a, &lu, &diag, &r); // natural order
        assert_eq!(bits(&z_stencil), bits(&z_indexed));
    }

    /// Same order as [`tridiag`]`(6)`, different pattern (diagonal
    /// only): schedules computed from it are foreign to the tridiagonal
    /// matrix.
    fn foreign_schedules() -> KernelSchedules {
        let mut b = CsrBuilder::new(6);
        for i in 0..6 {
            b.add(i, i, 1.0);
        }
        KernelSchedules::for_matrix(&b.build())
    }

    #[test]
    fn ilu0_rejects_foreign_schedules() {
        // Sweeping in these schedules' level order would read rows in
        // the wrong order, so the build must refuse — with an error, not
        // a panic, so the thermal layer can surface it.
        let a = tridiag(6);
        assert!(matches!(
            Ilu0Preconditioner::new(&a, &foreign_schedules()),
            Err(NumError::PatternMismatch { context: "ilu0" })
        ));
    }

    #[test]
    fn build_surfaces_the_mismatch_error_for_every_kind() {
        // The config-level path must propagate the same error (the
        // thermal model calls `PreconditionerKind::build`, never the
        // builders directly).
        let a = tridiag(6);
        for kind in [PreconditionerKind::Ilu0, PreconditionerKind::Multigrid] {
            assert!(
                matches!(
                    kind.build(&a, &foreign_schedules()),
                    Err(NumError::PatternMismatch { .. })
                ),
                "{kind:?} must reject foreign schedules with an error"
            );
        }
    }

    /// The search-based IKJ elimination the plans replaced, kept as the
    /// reference: `a`'s values eliminated in natural slot order, with
    /// the diagonal slots.
    fn reference_ikj(a: &CsrMatrix) -> Result<(Vec<f64>, Vec<u32>), NumError> {
        let n = a.order();
        let mut lu = a.clone();
        let mut diag_idx = vec![u32::MAX; n];
        for i in 0..n {
            match lu.pattern_index(i, i) {
                Some(k) => diag_idx[i] = k as u32,
                None => return Err(NumError::SingularMatrix { pivot: i }),
            }
        }
        let row_ptr: Vec<usize> = lu.row_ptr().iter().map(|&p| p as usize).collect();
        for i in 0..n {
            let (start, end) = (row_ptr[i], row_ptr[i + 1]);
            for kk in start..end {
                let k = lu.col_indices()[kk] as usize;
                if k >= i {
                    break;
                }
                let dk = diag_idx[k] as usize;
                let pivot = lu.values()[dk];
                if pivot.abs() < 1e-300 {
                    return Err(NumError::SingularMatrix { pivot: k });
                }
                let lik = lu.values()[kk] / pivot;
                lu.values_mut()[kk] = lik;
                for jj in (dk + 1)..row_ptr[k + 1] {
                    let j = lu.col_indices()[jj] as usize;
                    if let Some(ij) = lu.pattern_index(i, j) {
                        lu.values_mut()[ij] -= lik * lu.values()[jj];
                    }
                }
            }
            let di = diag_idx[i] as usize;
            if lu.values()[di].abs() < 1e-300 {
                return Err(NumError::SingularMatrix { pivot: i });
            }
        }
        Ok((lu.values().to_vec(), diag_idx))
    }

    /// Natural-order forward and backward substitution over the
    /// reference LU values `lu` (diagonal slots `diag`): the reference
    /// the level-major sweeps must match bit for bit.
    fn reference_apply(a: &CsrMatrix, lu: &[f64], diag: &[u32], r: &[f64]) -> Vec<f64> {
        let (rp, cols) = (a.row_ptr(), a.col_indices());
        let mut z = r.to_vec();
        for i in 0..a.order() {
            for k in rp[i] as usize..diag[i] as usize {
                z[i] -= lu[k] * z[cols[k] as usize];
            }
        }
        for i in (0..a.order()).rev() {
            for k in diag[i] as usize + 1..rp[i + 1] as usize {
                z[i] -= lu[k] * z[cols[k] as usize];
            }
            z[i] *= 1.0 / lu[diag[i] as usize];
        }
        z
    }

    /// Random pattern whose diagonal may be incomplete, with small
    /// integer values so that exact zero pivots occur.
    fn random_gappy(seed: u64, n: usize) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = CsrBuilder::new(n);
        for i in 0..n {
            if rng.random_range(0..12) != 0 {
                b.add(i, i, rng.random_range(1..4) as f64);
            }
        }
        for _ in 0..n * 2 {
            let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
            b.add(i, j, rng.random_range(-2..3) as f64);
        }
        b.build()
    }

    /// Scatters one triangle's level-major `values` back to their
    /// natural LU value slots: the plan appends row `i`'s `span(i)` slots
    /// level by level, rows ascending within a level.
    fn unpermute(
        set: &crate::schedule::LevelSet,
        span: impl Fn(usize) -> std::ops::Range<usize>,
        values: &[f64],
        natural: &mut [f64],
    ) {
        let mut q = 0;
        for l in 0..set.count() {
            for &i in set.level(l) {
                for k in span(i as usize) {
                    natural[k] = values[q];
                    q += 1;
                }
            }
        }
        assert_eq!(q, values.len(), "level sets must cover every entry once");
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The level-major sweeps must be bit-identical to natural-order
        /// substitution over the reference factors, on random SPD-ish
        /// patterns with real cross-level dependencies.
        #[test]
        fn level_scheduled_solve_is_bit_identical(seed in 0u64..120, n in 2usize..80) {
            let a = random_dd(seed, n);
            let (lu, diag) = reference_ikj(&a).unwrap();
            let levelled = ilu0(&a).unwrap();
            let r: Vec<f64> = (0..n).map(|i| ((seed + i as u64) % 11) as f64 - 5.0).collect();
            let z_ref = reference_apply(&a, &lu, &diag, &r);
            let mut z = vec![1.0; n]; // garbage start: apply must overwrite
            levelled.apply(&r, &mut z);
            for (got, want) in z.iter().zip(&z_ref) {
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", got, want);
            }
        }

        /// The schedules only change where the factors are stored, never
        /// their values: the level-major triangles and reciprocal pivots,
        /// scattered back to their natural slots, are the search-based
        /// IKJ's factors bit for bit, and cover every slot.
        #[test]
        fn schedules_do_not_change_the_factorization(seed in 0u64..60, n in 2usize..40) {
            let a = random_dd(seed, n);
            let (lu, diag) = reference_ikj(&a).unwrap();
            let schedules = KernelSchedules::for_matrix(&a);
            let levelled = Ilu0Preconditioner::new(&a, &schedules).unwrap();
            let (rp, levels) = (a.row_ptr(), &schedules.levels);
            let mut natural = vec![f64::NAN; lu.len()];
            let d = |i: usize| diag[i] as usize;
            unpermute(&levels.lower, |i| rp[i] as usize..d(i), &levelled.lower, &mut natural);
            unpermute(&levels.upper, |i| d(i) + 1..rp[i + 1] as usize, &levelled.upper, &mut natural);
            unpermute(&levels.upper, |i| d(i)..d(i) + 1, &levelled.inv_diag, &mut natural);
            let want: Vec<f64> = lu
                .iter()
                .enumerate()
                .map(|(k, &v)| if diag.contains(&(k as u32)) { 1.0 / v } else { v })
                .collect();
            prop_assert_eq!(bits(&natural), bits(&want));
        }

        /// Plan-built factors are the search-based IKJ's bit for bit, and
        /// fail with its error — on random patterns with missing
        /// diagonals and exact zero pivots as well as on well-posed ones.
        #[test]
        fn plan_built_factors_match_the_search_ikj(seed in 0u64..400, n in 1usize..40) {
            let a = if seed % 2 == 0 { random_dd(seed, n) } else { random_gappy(seed, n) };
            let levelled = ilu0(&a);
            let (lu, _) = match reference_ikj(&a) {
                Err(e) => {
                    prop_assert_eq!(levelled.unwrap_err(), e);
                    return Ok(());
                }
                Ok(ok) => ok,
            };
            let lm = levelled.unwrap();
            let expect = Ilu0Preconditioner::gather(Arc::clone(lm.plan()), &lu);
            prop_assert_eq!(bits(&lm.lower), bits(&expect.lower));
            prop_assert_eq!(bits(&lm.upper), bits(&expect.upper));
            prop_assert_eq!(bits(&lm.inv_diag), bits(&expect.inv_diag));
        }
    }
}
