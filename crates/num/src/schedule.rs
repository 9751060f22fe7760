//! Pattern-derived execution schedules for the sparse kernels.
//!
//! Every schedule depends only on a matrix's **sparsity pattern**, never
//! its values, so same-pattern matrix families (one thermal network per
//! pump setting, or a backward-Euler operator sharing its model's
//! structure) compute them once and share them behind an `Arc` — the
//! thermal `StackSkeleton` stores a [`KernelSchedules`] per grid.
//!
//! [`TriangularLevels`] are the wavefront level sets for the ILU(0)
//! triangular solves: rows within a level have no dependencies among
//! themselves, so a level's rows can run in any order and still produce
//! bit-identical results (each row's accumulation sequence is fixed by
//! the CSR entry order). The sweeps visit them level-major so their
//! loads pipeline instead of waiting on the row just written.
//!
//! The ILU(0) plan (`Ilu0Plan`) is the symbolic half of an ILU(0)
//! factorization — **symbolic once, numeric per matrix**: the diagonal
//! positions, the IKJ elimination's update list in its exact order, and
//! each triangle's level-major run/class tables with a gather index from
//! the LU value slots. A factorization on the pattern is then a value
//! pass: copy the values, run the planned updates, gather into
//! level-major order.

use std::sync::Arc;

use crate::stencil::{ClassInterner, ClassTable};
use crate::{CsrMatrix, NumError};

/// Rows grouped into dependency levels, level-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LevelSet {
    /// `rows[level_ptr[l] .. level_ptr[l+1]]` are the rows of level `l`,
    /// in ascending row order.
    pub level_ptr: Vec<u32>,
    pub rows: Vec<u32>,
}

impl LevelSet {
    /// Number of levels.
    pub(crate) fn count(&self) -> usize {
        self.level_ptr.len() - 1
    }

    /// The rows of one level.
    #[inline]
    pub(crate) fn level(&self, l: usize) -> &[u32] {
        &self.rows[self.level_ptr[l] as usize..self.level_ptr[l + 1] as usize]
    }

    /// Groups `row → level` assignments (levels `0..n_levels`) into a
    /// level-major row list, rows ascending within each level.
    fn from_assignment(level_of: &[u32]) -> Self {
        let n_levels = level_of.iter().map(|&l| l + 1).max().unwrap_or(0) as usize;
        let mut counts = vec![0u32; n_levels + 1];
        for &l in level_of {
            counts[l as usize + 1] += 1;
        }
        for l in 0..n_levels {
            counts[l + 1] += counts[l];
        }
        let level_ptr = counts.clone();
        let mut rows = vec![0u32; level_of.len()];
        let mut cursor = counts;
        for (i, &l) in level_of.iter().enumerate() {
            rows[cursor[l as usize] as usize] = i as u32;
            cursor[l as usize] += 1;
        }
        Self { level_ptr, rows }
    }
}

/// Wavefront level sets for the strictly-lower (forward) and
/// strictly-upper (backward) triangular solves on one sparsity pattern.
///
/// Built once per pattern by `for_matrix`; shared by
/// every ILU(0) factorization on that pattern (the factors live on the
/// matrix's own pattern, so the level structure is identical).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriangularLevels {
    pub(crate) lower: LevelSet,
    pub(crate) upper: LevelSet,
}

impl TriangularLevels {
    /// Computes both level sets from `a`'s sparsity pattern (`O(nnz)`).
    pub(crate) fn for_matrix(a: &CsrMatrix) -> Self {
        let n = a.order();
        let rp = a.row_ptr();
        let cols = a.col_indices();

        // Forward (lower) levels: row i waits on every j < i it couples
        // to, so level(i) = 1 + max level among those j.
        let mut lower_of = vec![0u32; n];
        for i in 0..n {
            let mut lvl = 0u32;
            for k in rp[i] as usize..rp[i + 1] as usize {
                let j = cols[k] as usize;
                if j < i {
                    lvl = lvl.max(lower_of[j] + 1);
                }
            }
            lower_of[i] = lvl;
        }

        // Backward (upper) levels: row i waits on every j > i.
        let mut upper_of = vec![0u32; n];
        for i in (0..n).rev() {
            let mut lvl = 0u32;
            for k in rp[i] as usize..rp[i + 1] as usize {
                let j = cols[k] as usize;
                if j > i {
                    lvl = lvl.max(upper_of[j] + 1);
                }
            }
            upper_of[i] = lvl;
        }

        Self {
            lower: LevelSet::from_assignment(&lower_of),
            upper: LevelSet::from_assignment(&upper_of),
        }
    }

    /// Number of forward (lower-triangular) levels.
    pub fn lower_level_count(&self) -> usize {
        self.lower.count()
    }

    /// Number of backward (upper-triangular) levels.
    #[cfg(test)]
    pub(crate) fn upper_level_count(&self) -> usize {
        self.upper.count()
    }
}

/// The symbolic ILU(0) analysis of one sparsity pattern (see the module
/// docs), computed once by [`KernelSchedules`] and shared by every
/// factorization on the pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Ilu0Plan {
    pub ikj: IkjPlan,
    /// Forward-sweep tables of the strictly-lower factor.
    pub lower: SweepPlan,
    /// Backward-sweep tables of the strictly-upper factor, with the
    /// diagonal gather.
    pub upper: SweepPlan,
}

impl Ilu0Plan {
    /// Plans the elimination and lays both triangles out along `levels`.
    ///
    /// # Errors
    ///
    /// As [`IkjPlan::for_matrix`].
    fn for_matrix(a: &CsrMatrix, levels: &TriangularLevels) -> Result<Self, NumError> {
        let ikj = IkjPlan::for_matrix(a)?;
        let lower = SweepPlan::build(&levels.lower, a, &ikj.diag, false);
        let upper = SweepPlan::build(&levels.upper, a, &ikj.diag, true);
        Ok(Self { ikj, lower, upper })
    }
}

/// The IKJ elimination of ILU(0) on one pattern, as an update list.
///
/// Row `i` eliminates its strictly-lower entries `(i, k)` in ascending
/// column order: `l = a[i,k] / u[k,k]`, then `a[i,j] −= l·u[k,j]` for
/// every `j > k` of row `k` that row `i`'s pattern holds, ascending in
/// `j`. The plan records those `(i, j)` / `(k, j)` slot pairs in that
/// order, so the numeric pass performs the floating-point operations of
/// a search-based IKJ in the same order, without the searches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IkjPlan {
    /// Value slot of each row's diagonal entry.
    pub diag: Vec<u32>,
    /// `updates[upd_ptr[e]..upd_ptr[e + 1]]` belong to the `e`-th
    /// strictly-lower entry in CSR order.
    pub upd_ptr: Vec<u32>,
    /// `[target, source]` value slots: `v[target] −= l·v[source]`.
    pub updates: Vec<[u32; 2]>,
}

impl IkjPlan {
    /// Plans the elimination on `a`'s pattern in `O(nnz + updates)`: a
    /// column → slot marker for the row being planned replaces the
    /// per-update binary search.
    ///
    /// # Errors
    ///
    /// [`NumError::SingularMatrix`] at the first row without a diagonal
    /// entry.
    pub(crate) fn for_matrix(a: &CsrMatrix) -> Result<Self, NumError> {
        const NONE: u32 = u32::MAX;
        let n = a.order();
        let rp = a.row_ptr();
        let cols = a.col_indices();
        let mut diag = Vec::with_capacity(n);
        for i in 0..n {
            match a.pattern_index(i, i) {
                Some(k) => diag.push(k as u32),
                None => return Err(NumError::SingularMatrix { pivot: i }),
            }
        }
        let lower_nnz: usize = (0..n).map(|i| (diag[i] - rp[i]) as usize).sum();
        let mut upd_ptr = Vec::with_capacity(lower_nnz + 1);
        upd_ptr.push(0u32);
        let mut updates = Vec::new();
        // `slot[j]`: row i's value slot at column j while row i is
        // planned, NONE otherwise.
        let mut slot = vec![NONE; n];
        for i in 0..n {
            let row = rp[i] as usize..rp[i + 1] as usize;
            for kk in row.clone() {
                slot[cols[kk] as usize] = kk as u32;
            }
            for kk in rp[i] as usize..diag[i] as usize {
                let k = cols[kk] as usize;
                for jj in diag[k] as usize + 1..rp[k + 1] as usize {
                    let target = slot[cols[jj] as usize];
                    if target != NONE {
                        updates.push([target, jj as u32]);
                    }
                }
                upd_ptr.push(updates.len() as u32);
            }
            for kk in row {
                slot[cols[kk] as usize] = NONE;
            }
        }
        Ok(Self {
            diag,
            upd_ptr,
            updates,
        })
    }
}

/// One triangular factor's sweep layout, **level-major stencil runs**.
///
/// Rows are stored wavefront-level-major (so all of a level's rows are
/// independent and the loads pipeline — natural row order instead
/// chains every row's `z[i]` through a just-written neighbour, a
/// store-to-load latency wall measuring ~3× a matvec per entry), and
/// consecutive positions of one level are grouped into **runs** sharing
/// an offset class and a constant row stride (wavefronts cross the
/// stacked grid as arithmetic row progressions). A run's kernel streams
/// only the 8-byte values — row indices and column addresses are
/// computed, not loaded.
///
/// Each row's entries keep their ascending-column order, so the sweeps
/// are bit-identical to the natural-order sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SweepPlan {
    pub runs: Vec<SweepRun>,
    /// The runs' offset classes.
    pub classes: ClassTable,
    /// LU value slot of each level-major value position.
    pub gather: Vec<u32>,
    /// LU value slot of each level-major row's diagonal (upper triangle
    /// only; empty for the lower).
    pub diag_gather: Vec<u32>,
}

/// A maximal block of level-consecutive positions whose rows form an
/// arithmetic progression (`row0 + q·stride`) and share one offset
/// class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SweepRun {
    pub pos0: u32,
    pub pos1: u32,
    pub row0: u32,
    pub stride: i32,
    pub val0: u32,
    pub class: u32,
}

impl SweepPlan {
    /// Lays one triangle of `a`'s pattern (strictly lower, or strictly
    /// upper when `upper`) out along `set`; `diag` holds the diagonal
    /// slots.
    fn build(set: &LevelSet, a: &CsrMatrix, diag: &[u32], upper: bool) -> Self {
        let rp = a.row_ptr();
        let cols = a.col_indices();
        let span = |i: usize| {
            if upper {
                diag[i] as usize + 1..rp[i + 1] as usize
            } else {
                rp[i] as usize..diag[i] as usize
            }
        };
        // Classify rows in natural order, where neighbours mostly share
        // a class, so only a class change costs a hash lookup.
        let mut classes = ClassInterner::new();
        let mut sig = Vec::new();
        let class_of: Vec<u32> = (0..a.order())
            .map(|i| {
                sig.clear();
                sig.extend(cols[span(i)].iter().map(|&c| c as i32 - i as i32));
                classes.intern(&sig)
            })
            .collect();

        let mut runs: Vec<SweepRun> = Vec::new();
        let mut gather = Vec::with_capacity((0..a.order()).map(|i| span(i).len()).sum());
        let mut diag_gather = Vec::with_capacity(if upper { diag.len() } else { 0 });
        let mut pos = 0u32;
        for l in 0..set.count() {
            let mut level_open = false;
            for &i in set.level(l) {
                let i = i as usize;
                let class = class_of[i];
                let val0 = gather.len() as u32;
                gather.extend(span(i).map(|k| k as u32));
                if upper {
                    diag_gather.push(diag[i]);
                }
                // Extend the current run when the class matches and the
                // row progression stays arithmetic (a fresh second row
                // fixes the stride); never across a level boundary.
                let extended = level_open
                    && runs.last_mut().is_some_and(|run| {
                        if run.class != class {
                            return false;
                        }
                        let len = run.pos1 - run.pos0;
                        let delta = i as i64 - run.row0 as i64;
                        if len == 1 {
                            if let Ok(stride) = i32::try_from(delta) {
                                run.stride = stride;
                                run.pos1 += 1;
                                return true;
                            }
                            return false;
                        }
                        if delta == run.stride as i64 * len as i64 {
                            run.pos1 += 1;
                            return true;
                        }
                        false
                    });
                if !extended {
                    runs.push(SweepRun {
                        pos0: pos,
                        pos1: pos + 1,
                        row0: i as u32,
                        stride: 0,
                        val0,
                        class,
                    });
                }
                level_open = true;
                pos += 1;
            }
        }
        Self {
            runs,
            classes: classes.finish(),
            gather,
            diag_gather,
        }
    }
}

/// The pattern-derived schedules a matrix family shares: triangular
/// level sets and the ILU(0) symbolic analysis, the stencil
/// decomposition and, for grid patterns, the multigrid hierarchy (whose
/// coarse levels carry schedules of their own).
///
/// `vfc_thermal` computes one per `StackSkeleton` and hands it to every
/// preconditioner build on that pattern via
/// [`PreconditionerKind::build`](crate::PreconditionerKind::build), so
/// each ILU(0) or multigrid factorization on the grid is a value pass.
/// The schedules remember the pattern they were computed from (shared
/// `Arc`s, no copy); the preconditioner builders call
/// `matches_pattern` and refuse a mismatched
/// matrix — the unchecked sweeps would otherwise read rows in the wrong
/// order or out of bounds (undefined behaviour, not merely a wrong
/// answer).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSchedules {
    /// Level sets for the split triangular factors.
    pub levels: TriangularLevels,
    /// The run/class decomposition of the pattern for the index-free
    /// stencil operator (`None` on patterns too irregular to pay off).
    stencil: Option<std::sync::Arc<crate::StencilPattern>>,
    /// The geometric multigrid hierarchy of the pattern (`None` unless
    /// built via [`for_grid_matrix`](Self::for_grid_matrix) with grid
    /// coordinates, or when no useful hierarchy exists).
    multigrid: Option<Arc<crate::MgStructure>>,
    /// The ILU(0) symbolic analysis, or the error every ILU(0)
    /// factorization on this pattern reports (a row without a diagonal).
    ilu0: Result<Arc<Ilu0Plan>, NumError>,
    /// The source pattern (shared index arrays, not a copy).
    row_ptr: Arc<[u32]>,
    col_idx: Arc<[u32]>,
}

impl KernelSchedules {
    /// Computes the schedules (level sets, ILU(0) plan, stencil
    /// decomposition) for `a`'s pattern.
    #[cfg(test)]
    pub(crate) fn for_matrix(a: &CsrMatrix) -> Self {
        let _span = vfc_obs::span("precond.schedules");
        Self::analyse(a)
    }

    /// [`for_matrix`](Self::for_matrix) without the telemetry span: the
    /// multigrid hierarchy analyses its coarse levels through this.
    pub(crate) fn analyse(a: &CsrMatrix) -> Self {
        let (row_ptr, col_idx) = a.pattern_arcs();
        let levels = TriangularLevels::for_matrix(a);
        let ilu0 = Ilu0Plan::for_matrix(a, &levels).map(Arc::new);
        Self {
            levels,
            stencil: crate::StencilPattern::for_matrix(a).map(Arc::new),
            multigrid: None,
            ilu0,
            row_ptr,
            col_idx,
        }
    }

    /// As `for_matrix`, plus the geometric multigrid
    /// hierarchy built by semi-coarsening one
    /// [`GridCoord`](crate::stencil::GridCoord) per unknown — the
    /// constructor for assemblers that know their grid layout (the
    /// thermal skeleton, the reduced TALB system).
    ///
    /// # Panics
    ///
    /// Panics if `coords.len() != a.order()`.
    pub fn for_grid_matrix(a: &CsrMatrix, coords: &[crate::stencil::GridCoord]) -> Self {
        let _span = vfc_obs::span("precond.schedules");
        let mut schedules = Self::analyse(a);
        schedules.multigrid = crate::MgStructure::build(a, coords).map(Arc::new);
        schedules
    }

    /// The pattern's stencil decomposition, when the structure is
    /// regular enough for the index-free operator to pay off. Solvers
    /// run the stencil operator whenever this is `Some` and the CSR
    /// operator otherwise.
    pub fn stencil(&self) -> Option<&Arc<crate::StencilPattern>> {
        self.stencil.as_ref()
    }

    /// The pattern's multigrid hierarchy, when the schedules were built
    /// from grid coordinates and coarsening made progress.
    pub fn multigrid(&self) -> Option<&Arc<crate::MgStructure>> {
        self.multigrid.as_ref()
    }

    /// The pattern's ILU(0) plan.
    ///
    /// # Errors
    ///
    /// [`NumError::SingularMatrix`] when a row has no diagonal entry.
    pub(crate) fn ilu0_plan(&self) -> Result<&Arc<Ilu0Plan>, NumError> {
        self.ilu0.as_ref().map_err(Clone::clone)
    }

    /// Whether these schedules were computed for `a`'s sparsity pattern.
    /// Pointer equality (the structure-shared fast path: every family
    /// member and backward-Euler operator) falls back to content
    /// comparison for independently built twins.
    pub(crate) fn matches_pattern(&self, a: &CsrMatrix) -> bool {
        let (rp, ci) = a.pattern_arcs();
        (Arc::ptr_eq(&self.row_ptr, &rp) && Arc::ptr_eq(&self.col_idx, &ci))
            || (self.row_ptr == rp && self.col_idx == ci)
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
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    #[test]
    fn tridiagonal_levels_are_chains() {
        // Every row depends on its predecessor: n levels of one row each.
        let a = tridiag(6);
        let tl = TriangularLevels::for_matrix(&a);
        assert_eq!(tl.lower_level_count(), 6);
        assert_eq!(tl.upper_level_count(), 6);
        for l in 0..6 {
            assert_eq!(tl.lower.level(l), &[l as u32]);
            assert_eq!(tl.upper.level(l), &[(5 - l) as u32]);
        }
    }

    #[test]
    fn diagonal_matrix_is_one_level() {
        let mut b = CsrBuilder::new(5);
        for i in 0..5 {
            b.add(i, i, 1.0);
        }
        let a = b.build();
        let tl = TriangularLevels::for_matrix(&a);
        assert_eq!(tl.lower_level_count(), 1);
        assert_eq!(tl.upper_level_count(), 1);
        assert_eq!(tl.lower.level(0), &[0, 1, 2, 3, 4]);
    }

    /// Random sparse pattern with a full diagonal.
    fn random_matrix(seed: u64, n: usize, extra: usize) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = CsrBuilder::new(n);
        for i in 0..n {
            b.add(i, i, 5.0 + rng.random_range(0.0..1.0));
        }
        for _ in 0..extra {
            b.add(
                rng.random_range(0..n),
                rng.random_range(0..n),
                rng.random_range(-1.0..1.0),
            );
        }
        b.build()
    }

    proptest! {
        #[test]
        fn levels_respect_dependencies(seed in 0u64..200, n in 1usize..40) {
            let a = random_matrix(seed, n, n * 2);
            let tl = TriangularLevels::for_matrix(&a);
            // Every row appears exactly once per set.
            let mut seen = vec![false; n];
            for l in 0..tl.lower_level_count() {
                for &i in tl.lower.level(l) {
                    prop_assert!(!seen[i as usize]);
                    seen[i as usize] = true;
                    // All lower neighbors sit in strictly earlier levels.
                    for (j, _) in a.row(i as usize) {
                        if j < i as usize {
                            let lj = (0..tl.lower_level_count())
                                .find(|&l2| tl.lower.level(l2).contains(&(j as u32)))
                                .unwrap();
                            prop_assert!(lj < l, "row {i} level {l} dep {j} level {lj}");
                        }
                    }
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }
}
