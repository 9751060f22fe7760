//! Preconditioners for the Krylov solvers.
//!
//! The thermal RC networks are assembled once per grid and re-solved
//! thousands of times (every 100 ms sample, every characterization point),
//! so it pays to spend setup time on a preconditioner that is then applied
//! on every iteration. Three single-level kinds are provided here:
//!
//! * [`IdentityPreconditioner`] — no preconditioning (reference/ablation);
//! * [`JacobiPreconditioner`] — diagonal scaling, free to build, helps the
//!   strongly diagonally dominant small grids;
//! * [`Ilu0Preconditioner`] — incomplete LU on the matrix's own sparsity
//!   pattern, the workhorse for fine grids where unpreconditioned
//!   BiCGSTAB iteration counts grow superlinearly. Given the pattern's
//!   [`KernelSchedules`], the factorization is a value pass over their
//!   ILU(0) plan and the triangular sweeps visit rows in wavefront level
//!   order, bit-identical to the natural-order sweep.
//!
//! [`PreconditionerKind`] is the serializable selection knob threaded
//! through `vfc_thermal::SolverConfig`; it also selects the geometric
//! [`MultigridPreconditioner`](crate::MultigridPreconditioner).

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
    /// smoke gates use this to pin cycles-per-solve.
    fn cycles(&self) -> Option<u64> {
        None
    }
}

/// No preconditioning: `z = r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdentityPreconditioner {
    n: usize,
}

impl IdentityPreconditioner {
    /// Creates an identity preconditioner for order-`n` systems.
    pub(crate) fn new(n: usize) -> Self {
        Self { n }
    }
}

impl Preconditioner for IdentityPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.n, "identity: r length");
        assert_eq!(z.len(), self.n, "identity: z length");
        z.copy_from_slice(r);
    }

    fn order(&self) -> usize {
        self.n
    }
}

/// Diagonal (Jacobi) scaling: `z_i = r_i / A_ii`.
///
/// Rows with a (numerically) vanishing diagonal fall back to the identity
/// so the preconditioner is always well defined.
#[derive(Debug, Clone, PartialEq)]
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
}

impl JacobiPreconditioner {
    /// Builds the inverse diagonal of `a`.
    pub(crate) fn new(a: &CsrMatrix) -> Self {
        let inv_diag = a
            .diagonal()
            .iter()
            .map(|&d| if d.abs() > 1e-300 { 1.0 / d } else { 1.0 })
            .collect();
        Self { inv_diag }
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let n = self.inv_diag.len();
        assert_eq!(r.len(), n, "jacobi: r length");
        assert_eq!(z.len(), n, "jacobi: z length");
        for i in 0..n {
            z[i] = r[i] * self.inv_diag[i];
        }
    }

    fn order(&self) -> usize {
        self.inv_diag.len()
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
/// A factorization with schedules is a value pass: copy the values, run
/// the planned updates, gather both triangles into level-major order.
/// The triangular sweeps then visit rows in **wavefront level order**:
/// rows of one level have no mutual dependencies, so their loads
/// pipeline instead of chaining through the just-written neighbour.
/// Each row's accumulation order is fixed by the CSR entry order, which
/// keeps the result bit-identical to the natural-order sweep.
#[derive(Debug, Clone)]
pub struct Ilu0Preconditioner {
    factors: Ilu0Factors,
}

/// The one copy of the ILU(0) factors a preconditioner keeps: the
/// layout its sweeps read.
#[derive(Debug, Clone)]
enum Ilu0Factors {
    /// Natural row order (built without schedules).
    Natural(SplitFactors),
    /// Level-major values over the pattern's shared plan (built with
    /// schedules): rows of each wavefront level stored back-to-back so
    /// the sweeps stream their value arrays while the rows of a level
    /// retire independently — natural row order instead chains every
    /// row through its just-written neighbour (a store-to-load latency
    /// wall measuring ~3× a matvec per entry on the 100 µm grid).
    LevelMajor(LevelMajorFactors),
}

/// ILU(0) values gathered along a shared [`Ilu0Plan`].
#[derive(Debug, Clone)]
struct LevelMajorFactors {
    plan: Arc<Ilu0Plan>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Reciprocal `U` diagonal in backward-sweep row order.
    inv_diag: Vec<f64>,
}

impl LevelMajorFactors {
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
}

/// ILU(0) factors as compact split CSR halves in natural row order.
#[derive(Debug, Clone)]
struct SplitFactors {
    /// Reciprocals of the `U` diagonal (the backward solve multiplies
    /// instead of dividing — serial divides dominate otherwise). Length
    /// is the matrix order.
    inv_diag: Vec<f64>,
    /// Strictly-lower factor in compact CSR (`l_ptr[i]..l_ptr[i+1]`).
    l_ptr: Vec<u32>,
    l_col: Vec<u32>,
    l_val: Vec<f64>,
    /// Strictly-upper factor in compact CSR.
    u_ptr: Vec<u32>,
    u_col: Vec<u32>,
    u_val: Vec<f64>,
}

impl Ilu0Preconditioner {
    /// Factors `a` in ILU(0) form. With `schedules` (computed once per
    /// sparsity pattern and shared across same-pattern factorizations)
    /// the build is a value pass over their ILU(0) plan and the
    /// triangular sweeps run in wavefront level order; without, the
    /// build plans the elimination itself and the sweeps run in natural
    /// row order. Both land the same bits.
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
    pub fn new(a: &CsrMatrix, schedules: Option<Arc<KernelSchedules>>) -> Result<Self, NumError> {
        let factors = match schedules {
            Some(s) => {
                if !s.matches_pattern(a) {
                    return Err(NumError::PatternMismatch { context: "ilu0" });
                }
                let plan = Arc::clone(s.ilu0_plan()?);
                let lu = plan.ikj.eliminate(a)?;
                Ilu0Factors::LevelMajor(LevelMajorFactors::gather(plan, &lu))
            }
            None => {
                let ikj = IkjPlan::for_matrix(a)?;
                let lu = ikj.eliminate(a)?;
                Ilu0Factors::Natural(SplitFactors::split(a, &ikj.diag, &lu))
            }
        };
        Ok(Self { factors })
    }

    /// Whether `apply` runs the level-major sweeps (built with
    /// schedules).
    #[cfg(test)]
    pub(crate) fn is_level_scheduled(&self) -> bool {
        matches!(self.factors, Ilu0Factors::LevelMajor(_))
    }
}

#[cfg(test)]
impl Ilu0Preconditioner {
    /// The shared plan of a scheduled build.
    pub(crate) fn plan(&self) -> Option<&Arc<Ilu0Plan>> {
        match &self.factors {
            Ilu0Factors::LevelMajor(f) => Some(&f.plan),
            Ilu0Factors::Natural(_) => None,
        }
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

impl SplitFactors {
    /// Splits the eliminated values `lu` of `a`'s pattern (diagonal
    /// slots `diag`) into compact strictly-lower / strictly-upper CSR
    /// halves, so each triangular sweep streams contiguous arrays.
    fn split(a: &CsrMatrix, diag: &[u32], lu: &[f64]) -> Self {
        let n = a.order();
        let rp = a.row_ptr();
        let cols = a.col_indices();
        let inv_diag = diag.iter().map(|&di| 1.0 / lu[di as usize]).collect();
        let mut l_ptr = Vec::with_capacity(n + 1);
        let mut l_col = Vec::new();
        let mut l_val = Vec::new();
        let mut u_ptr = Vec::with_capacity(n + 1);
        let mut u_col = Vec::new();
        let mut u_val = Vec::new();
        l_ptr.push(0u32);
        u_ptr.push(0u32);
        for i in 0..n {
            let di = diag[i] as usize;
            let lower = rp[i] as usize..di;
            let upper = di + 1..rp[i + 1] as usize;
            l_col.extend_from_slice(&cols[lower.clone()]);
            l_val.extend_from_slice(&lu[lower]);
            u_col.extend_from_slice(&cols[upper.clone()]);
            u_val.extend_from_slice(&lu[upper]);
            l_ptr.push(l_col.len() as u32);
            u_ptr.push(u_col.len() as u32);
        }
        Self {
            inv_diag,
            l_ptr,
            l_col,
            l_val,
            u_ptr,
            u_col,
            u_val,
        }
    }

    /// One forward-substitution row: `z[i] = r[i] − Σ L[i,j]·z[j]`.
    ///
    /// # Safety
    ///
    /// `i < n`, `r` and `z` hold `n` elements, and all `z[j]` this row
    /// reads must already hold their final forward value.
    #[inline]
    unsafe fn forward_row(&self, i: usize, r: &[f64], z: &mut [f64]) {
        unsafe {
            let start = *self.l_ptr.get_unchecked(i) as usize;
            let end = *self.l_ptr.get_unchecked(i + 1) as usize;
            let mut acc = *r.get_unchecked(i);
            for k in start..end {
                acc -= *self.l_val.get_unchecked(k)
                    * *z.get_unchecked(*self.l_col.get_unchecked(k) as usize);
            }
            *z.get_unchecked_mut(i) = acc;
        }
    }

    /// One backward-substitution row:
    /// `z[i] = (z[i] − Σ U[i,j]·z[j]) / U[i,i]`.
    ///
    /// # Safety
    ///
    /// As [`forward_row`](Self::forward_row), with the dependencies being
    /// the already-finished backward rows `j > i`.
    #[inline]
    unsafe fn backward_row(&self, i: usize, z: &mut [f64]) {
        unsafe {
            let start = *self.u_ptr.get_unchecked(i) as usize;
            let end = *self.u_ptr.get_unchecked(i + 1) as usize;
            let mut acc = *z.get_unchecked(i);
            for k in start..end {
                acc -= *self.u_val.get_unchecked(k)
                    * *z.get_unchecked(*self.u_col.get_unchecked(k) as usize);
            }
            *z.get_unchecked_mut(i) = acc * *self.inv_diag.get_unchecked(i);
        }
    }

    /// The index-loading split-CSR sweeps in natural row order (the
    /// reference the level-major sweeps must match bit-for-bit).
    /// `r` and `z` must hold the factor's order.
    fn apply_sequential_indexed(&self, r: &[f64], z: &mut [f64]) {
        let n = self.inv_diag.len();
        assert!(r.len() == n && z.len() == n, "ilu0: vector lengths");
        // SAFETY (both sweeps): the compact factor arrays are built in
        // `split` with `*_ptr` monotone and bounded by the factor
        // length, and every column index is < n (builder invariant); r
        // and z are length-checked above. Triangular entries reference
        // only already-computed z positions.
        unsafe {
            for i in 0..n {
                self.forward_row(i, r, z);
            }
            for i in (0..n).rev() {
                self.backward_row(i, z);
            }
        }
    }
}

impl Preconditioner for Ilu0Preconditioner {
    /// With schedules, rows are visited in **wavefront level order**:
    /// natural row order chains every row's `z[i]` through `z[i−1]`
    /// written nanoseconds earlier (a store-to-load latency wall — the
    /// sweep measures ~3× a matvec per entry), while level order makes
    /// every row of a level independent, so the loads pipeline. Each
    /// row's accumulation is unchanged, so the result is bit-identical
    /// to the natural-order sweep it falls back to without schedules.
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let n = self.order();
        assert_eq!(r.len(), n, "ilu0: r length");
        assert_eq!(z.len(), n, "ilu0: z length");
        match &self.factors {
            // SAFETY: lengths checked above; both factors were built from
            // the level sets of this matrix's pattern (`new` rejects
            // foreign schedules), so positions cover every row exactly
            // once in dependency order.
            Ilu0Factors::LevelMajor(f) => unsafe {
                f.lower().sweep::<false>(r, z);
                f.upper().sweep::<true>(r, z);
            },
            Ilu0Factors::Natural(split) => split.apply_sequential_indexed(r, z),
        }
    }

    fn order(&self) -> usize {
        match &self.factors {
            Ilu0Factors::LevelMajor(f) => f.inv_diag.len(),
            Ilu0Factors::Natural(split) => split.inv_diag.len(),
        }
    }
}

/// Serializable preconditioner selection knob.
///
/// `vfc_thermal::SolverConfig` threads this through the model builders;
/// [`build`](Self::build) turns it into a concrete [`Preconditioner`] for
/// one assembled matrix, reusing the pattern's shared
/// [`KernelSchedules`] when given.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PreconditionerKind {
    /// No preconditioning.
    Identity,
    /// Diagonal scaling.
    Jacobi,
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
    /// Builds the concrete preconditioner for `a`, reusing the pattern's
    /// shared `schedules` when given (the thermal skeleton computes them
    /// once per grid).
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
        schedules: Option<&Arc<KernelSchedules>>,
    ) -> Result<Box<dyn Preconditioner>, NumError> {
        let _span = vfc_obs::span("precond.factor");
        Ok(match self {
            PreconditionerKind::Identity => Box::new(IdentityPreconditioner::new(a.order())),
            PreconditionerKind::Jacobi => Box::new(JacobiPreconditioner::new(a)),
            PreconditionerKind::Ilu0 => Box::new(Ilu0Preconditioner::new(a, schedules.cloned())?),
            PreconditionerKind::Multigrid => {
                match schedules.and_then(|s| s.multigrid().cloned()) {
                    Some(structure) => Box::new(crate::MultigridPreconditioner::new(
                        a,
                        schedules.cloned(),
                        structure,
                    )?),
                    // No hierarchy (no grid coordinates, or the system
                    // is already coarsest-sized): single-level ILU(0).
                    None => Box::new(Ilu0Preconditioner::new(a, schedules.cloned())?),
                }
            }
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

    #[test]
    fn identity_copies() {
        let m = IdentityPreconditioner::new(3);
        let mut z = vec![0.0; 3];
        m.apply(&[1.0, -2.0, 3.0], &mut z);
        assert_eq!(z, vec![1.0, -2.0, 3.0]);
        assert_eq!(m.order(), 3);
    }

    #[test]
    fn jacobi_divides_by_diagonal() {
        let a = tridiag(4);
        let m = JacobiPreconditioner::new(&a);
        let mut z = vec![0.0; 4];
        m.apply(&[4.0, 8.0, -4.0, 2.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0, -1.0, 0.5]);
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
        let m = Ilu0Preconditioner::new(&a, None).unwrap();
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
        let m = Ilu0Preconditioner::new(&a, None).unwrap();
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
        // Row 1 has no diagonal entry: both builds name it, as the
        // search-based IKJ does.
        let mut b = CsrBuilder::new(3);
        b.add(0, 0, 2.0);
        b.add(0, 1, 1.0);
        b.add(1, 0, 1.0);
        b.add(2, 2, 1.0);
        let a = b.build();
        let want = NumError::SingularMatrix { pivot: 1 };
        assert_eq!(reference_ikj(&a).unwrap_err(), want);
        assert_eq!(Ilu0Preconditioner::new(&a, None).unwrap_err(), want);
        let schedules = Arc::new(KernelSchedules::for_matrix(&a));
        assert_eq!(
            Ilu0Preconditioner::new(&a, Some(schedules)).unwrap_err(),
            want
        );
    }

    #[test]
    fn ilu0_zero_pivot_is_rejected_at_its_row() {
        // u11 = 1 − (1/1)·1 = 0 exactly: both builds stop at row 1.
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
        assert_eq!(Ilu0Preconditioner::new(&a, None).unwrap_err(), want);
        let schedules = Arc::new(KernelSchedules::for_matrix(&a));
        assert_eq!(
            Ilu0Preconditioner::new(&a, Some(schedules)).unwrap_err(),
            want
        );
    }

    #[test]
    fn kind_builds_all_variants() {
        let a = tridiag(5);
        for kind in [
            PreconditionerKind::Identity,
            PreconditionerKind::Jacobi,
            PreconditionerKind::Ilu0,
            PreconditionerKind::Multigrid,
        ] {
            let m = kind.build(&a, None).unwrap();
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
        let schedules = Arc::new(KernelSchedules::for_matrix(&a));
        assert!(
            schedules.stencil().is_some(),
            "grid pattern must decompose into a stencil"
        );
        let with = Ilu0Preconditioner::new(&a, Some(Arc::clone(&schedules))).unwrap();
        let without = Ilu0Preconditioner::new(&a, None).unwrap();
        assert!(with.is_level_scheduled() && !without.is_level_scheduled());
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin() * 4.0).collect();
        let mut z_stencil = vec![0.0; n];
        with.apply(&r, &mut z_stencil); // level-major run sweeps
        let mut z_indexed = vec![0.0; n];
        without.apply(&r, &mut z_indexed); // natural-order indexed sweeps
        assert!(z_stencil
            .iter()
            .zip(&z_indexed)
            .all(|(g, w)| g.to_bits() == w.to_bits()));
    }

    /// Same order as [`tridiag`]`(6)`, different pattern (diagonal
    /// only): schedules computed from it are foreign to the tridiagonal
    /// matrix.
    fn foreign_schedules() -> Arc<KernelSchedules> {
        let mut b = CsrBuilder::new(6);
        for i in 0..6 {
            b.add(i, i, 1.0);
        }
        Arc::new(KernelSchedules::for_matrix(&b.build()))
    }

    #[test]
    fn ilu0_rejects_foreign_schedules() {
        // Sweeping in these schedules' level order would read rows in
        // the wrong order, so the build must refuse — with an error, not
        // a panic, so the thermal layer can surface it.
        let a = tridiag(6);
        assert!(matches!(
            Ilu0Preconditioner::new(&a, Some(foreign_schedules())),
            Err(NumError::PatternMismatch { context: "ilu0" })
        ));
    }

    #[test]
    fn build_surfaces_the_mismatch_error_for_every_kind() {
        // The config-level path must propagate the same error (the
        // thermal model calls `PreconditionerKind::build*`, never the
        // builders directly).
        let a = tridiag(6);
        for kind in [PreconditionerKind::Ilu0, PreconditionerKind::Multigrid] {
            assert!(
                matches!(
                    kind.build(&a, Some(&foreign_schedules())),
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

    /// Scatters level-major `values` back to natural row order: the
    /// plan appends row `i`'s `ptr[i]..ptr[i+1]` entries level by level,
    /// rows ascending within a level.
    fn unpermute(set: &crate::schedule::LevelSet, ptr: &[u32], values: &[f64]) -> Vec<f64> {
        let mut natural = vec![f64::NAN; values.len()];
        let mut q = 0;
        for l in 0..set.count() {
            for &i in set.level(l) {
                let (s, e) = (ptr[i as usize] as usize, ptr[i as usize + 1] as usize);
                natural[s..e].copy_from_slice(&values[q..q + (e - s)]);
                q += e - s;
            }
        }
        assert_eq!(q, values.len(), "level sets must cover every entry once");
        natural
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The schedule-equipped sweep (level-major run order) must be
        /// bit-identical to the schedule-free natural-order sweep, on
        /// random SPD-ish patterns with real cross-level dependencies.
        #[test]
        fn level_scheduled_solve_is_bit_identical(seed in 0u64..120, n in 2usize..80) {
            let a = random_dd(seed, n);
            let schedules = Arc::new(KernelSchedules::for_matrix(&a));
            let plain = Ilu0Preconditioner::new(&a, None).unwrap();
            let levelled = Ilu0Preconditioner::new(&a, Some(schedules)).unwrap();
            prop_assert!(!plain.is_level_scheduled());
            prop_assert!(levelled.is_level_scheduled());
            let r: Vec<f64> = (0..n).map(|i| ((seed + i as u64) % 11) as f64 - 5.0).collect();
            let mut z_ref = vec![0.0; n];
            plain.apply(&r, &mut z_ref);
            let mut z = vec![1.0; n]; // garbage start: apply must overwrite
            levelled.apply(&r, &mut z);
            for (got, want) in z.iter().zip(&z_ref) {
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", got, want);
            }
        }

        /// Schedule-equipped ILU(0) factors must equal the plain build's
        /// bit for bit (the schedules only change the sweep order, never
        /// the factors): the level-major values, un-permuted back to
        /// natural row order, are the plain split factors.
        #[test]
        fn schedules_do_not_change_the_factorization(seed in 0u64..60, n in 2usize..40) {
            let a = random_dd(seed, n);
            let schedules = Arc::new(KernelSchedules::for_matrix(&a));
            let plain = Ilu0Preconditioner::new(&a, None).unwrap();
            let levelled = Ilu0Preconditioner::new(&a, Some(Arc::clone(&schedules))).unwrap();
            let (Ilu0Factors::Natural(split), Ilu0Factors::LevelMajor(lm)) =
                (&plain.factors, &levelled.factors)
            else {
                panic!("plain builds are natural-order, scheduled builds level-major");
            };
            let rows: Vec<u32> = (0..=n as u32).collect();
            let levels = &schedules.levels;
            prop_assert_eq!(bits(&unpermute(&levels.lower, &split.l_ptr, &lm.lower)), bits(&split.l_val));
            prop_assert_eq!(bits(&unpermute(&levels.upper, &split.u_ptr, &lm.upper)), bits(&split.u_val));
            prop_assert_eq!(bits(&unpermute(&levels.upper, &rows, &lm.inv_diag)), bits(&split.inv_diag));
        }

        /// Plan-built factors, unscheduled and scheduled, are the
        /// search-based IKJ's bit for bit, and fail with its error —
        /// on random patterns with missing diagonals and exact zero
        /// pivots as well as on well-posed ones.
        #[test]
        fn plan_built_factors_match_the_search_ikj(seed in 0u64..400, n in 1usize..40) {
            let a = if seed % 2 == 0 { random_dd(seed, n) } else { random_gappy(seed, n) };
            let reference = reference_ikj(&a);
            let plain = Ilu0Preconditioner::new(&a, None);
            let schedules = Arc::new(KernelSchedules::for_matrix(&a));
            let levelled = Ilu0Preconditioner::new(&a, Some(schedules));
            let (lu, diag) = match reference {
                Err(e) => {
                    prop_assert_eq!(plain.unwrap_err(), e.clone());
                    prop_assert_eq!(levelled.unwrap_err(), e);
                    return Ok(());
                }
                Ok(ok) => ok,
            };
            let want = SplitFactors::split(&a, &diag, &lu);
            let Ilu0Factors::Natural(split) = plain.unwrap().factors else {
                panic!("plain builds are natural-order");
            };
            prop_assert_eq!(bits(&split.l_val), bits(&want.l_val));
            prop_assert_eq!(bits(&split.u_val), bits(&want.u_val));
            prop_assert_eq!(bits(&split.inv_diag), bits(&want.inv_diag));
            prop_assert_eq!((&split.l_col, &split.u_col), (&want.l_col, &want.u_col));
            let Ilu0Factors::LevelMajor(lm) = levelled.unwrap().factors else {
                panic!("scheduled builds are level-major");
            };
            let expect = LevelMajorFactors::gather(Arc::clone(&lm.plan), &lu);
            prop_assert_eq!(bits(&lm.lower), bits(&expect.lower));
            prop_assert_eq!(bits(&lm.upper), bits(&expect.upper));
            prop_assert_eq!(bits(&lm.inv_diag), bits(&expect.inv_diag));
        }
    }
}
