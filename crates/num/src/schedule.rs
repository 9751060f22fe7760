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

use crate::CsrMatrix;

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
    pub fn count(&self) -> usize {
        self.level_ptr.len() - 1
    }

    /// The rows of one level.
    #[inline]
    pub fn level(&self, l: usize) -> &[u32] {
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
/// Built once per pattern by [`for_matrix`](Self::for_matrix); shared by
/// every ILU(0) factorization on that pattern (the factors live on the
/// matrix's own pattern, so the level structure is identical).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriangularLevels {
    pub(crate) lower: LevelSet,
    pub(crate) upper: LevelSet,
}

impl TriangularLevels {
    /// Computes both level sets from `a`'s sparsity pattern (`O(nnz)`).
    pub fn for_matrix(a: &CsrMatrix) -> Self {
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
    pub fn upper_level_count(&self) -> usize {
        self.upper.count()
    }
}

/// The pattern-derived schedules a matrix family shares: triangular
/// level sets (ILU(0)), the stencil decomposition and, for grid
/// patterns, the multigrid hierarchy.
///
/// `vfc_thermal` computes one per `StackSkeleton` and hands it to every
/// preconditioner build on that pattern via
/// [`PreconditionerKind::build`](crate::PreconditionerKind::build).
/// The schedules remember the pattern they were computed from (shared
/// `Arc`s, no copy); the preconditioner builders call
/// [`matches_pattern`](Self::matches_pattern) and refuse a mismatched
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
    multigrid: Option<std::sync::Arc<crate::MgStructure>>,
    /// The source pattern (shared index arrays, not a copy).
    row_ptr: std::sync::Arc<[u32]>,
    col_idx: std::sync::Arc<[u32]>,
}

impl KernelSchedules {
    /// Computes the schedules (level sets, stencil decomposition) for
    /// `a`'s pattern.
    pub fn for_matrix(a: &CsrMatrix) -> Self {
        let (row_ptr, col_idx) = a.pattern_arcs();
        Self {
            levels: TriangularLevels::for_matrix(a),
            stencil: crate::StencilPattern::for_matrix(a).map(std::sync::Arc::new),
            multigrid: None,
            row_ptr,
            col_idx,
        }
    }

    /// As [`for_matrix`](Self::for_matrix), plus the geometric multigrid
    /// hierarchy built by semi-coarsening one
    /// [`GridCoord`](crate::stencil::GridCoord) per unknown — the
    /// constructor for assemblers that know their grid layout (the
    /// thermal skeleton, the reduced TALB system).
    ///
    /// # Panics
    ///
    /// Panics if `coords.len() != a.order()`.
    pub fn for_grid_matrix(a: &CsrMatrix, coords: &[crate::stencil::GridCoord]) -> Self {
        let mut schedules = Self::for_matrix(a);
        schedules.multigrid = crate::MgStructure::build(a, coords).map(std::sync::Arc::new);
        schedules
    }

    /// The pattern's stencil decomposition, when the structure is
    /// regular enough for the index-free operator to pay off. Solvers
    /// run the stencil operator whenever this is `Some` and the CSR
    /// operator otherwise.
    pub fn stencil(&self) -> Option<&std::sync::Arc<crate::StencilPattern>> {
        self.stencil.as_ref()
    }

    /// The pattern's multigrid hierarchy, when the schedules were built
    /// from grid coordinates and coarsening made progress.
    pub fn multigrid(&self) -> Option<&std::sync::Arc<crate::MgStructure>> {
        self.multigrid.as_ref()
    }

    /// Whether these schedules were computed for `a`'s sparsity pattern.
    /// Pointer equality (the structure-shared fast path: every family
    /// member and backward-Euler operator) falls back to content
    /// comparison for independently built twins.
    pub fn matches_pattern(&self, a: &CsrMatrix) -> bool {
        let (rp, ci) = a.pattern_arcs();
        (std::sync::Arc::ptr_eq(&self.row_ptr, &rp) && std::sync::Arc::ptr_eq(&self.col_idx, &ci))
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
