//! Geometric multigrid on the layered-grid hierarchy.
//!
//! Krylov iteration counts on the thermal grids grow with resolution
//! (170 at 1 mm → 1270 at 100 µm); a multigrid preconditioner flattens
//! that growth by pairing the fine-grid smoother with coarse-grid
//! corrections that kill the smooth error modes the smoother cannot.
//!
//! The hierarchy is **structural** and flow-independent:
//! [`MgStructure`] coarsens the assembler-provided [`GridCoord`]s by
//! in-plane 2× semi-coarsening ([`semicoarsen`] — z planes, which carry
//! the strong tier/cavity couplings, are never merged), aggregating each
//! fine node into exactly one coarse node. The coarse **pattern**, the
//! fine-nnz → coarse-nnz Galerkin scatter map (both in `O(nnz)` from the
//! aggregates' children lists) and the coarse level's
//! [`KernelSchedules`], ILU(0) plan included, are computed once per
//! sparsity pattern (the thermal `StackSkeleton` builds one per grid and
//! shares it across all pump settings). Per-matrix **values** — a flow
//! patch, a backward-Euler shift — are folded in at preconditioner build
//! time by a deterministic scatter-add (`A_c = Pᵀ·A·P` for the
//! piecewise-constant aggregation `P`) and one numeric ILU(0) pass per
//! smoothed level, so a patched build is entry-identical to a
//! from-scratch build at the same values.
//!
//! [`MultigridPreconditioner`] runs one V(0,1) cycle per application:
//! no pre-smoothing (the raw residual restricts directly), one ILU(0)
//! post-smooth per level on the way up (the level-major sweeps) and a
//! prefactored dense-LU solve on the coarsest. It is the only cycle: the
//! symmetric V(1,1) cycle took fewer Krylov iterations but cost more
//! per transient sample on every grid it was measured on. Keeping ILU(0)
//! on the coarse levels is what makes the cycle work: weakening it to
//! Jacobi or dropping it took the 100 µm transient sample from 280 to
//! 470 and 1159 iterations. Restriction sums each coarse aggregate's
//! children in a fixed ascending order, so every result is a pure
//! function of the inputs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::dense::LuFactors;
use crate::operator::LinearOperator;
use crate::precond::{Ilu0Preconditioner, Preconditioner};
use crate::stencil::{semicoarsen, GridCoord, StencilOp, StencilPattern};
use crate::workspace::MgScratch;
use crate::{CsrMatrix, KernelSchedules, NumError};

/// Coarsening stops once a level's order is at most this: a dense LU of
/// the coarsest level costs `O(n³)` once per preconditioner build and
/// `O(n²)` per V-cycle, both negligible at this size.
const COARSEST_MAX: usize = 64;

/// Hard depth cap — a safety net far above what in-plane 4×-per-level
/// shrinkage produces for any realistic grid.
const MAX_LEVELS: usize = 24;

/// One transition of the hierarchy: everything needed to move between
/// level `l` (fine side, `agg.len()` nodes) and level `l + 1` (coarse
/// side, `pattern.order()` nodes).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MgLevel {
    /// Fine node → coarse aggregate.
    pub agg: Vec<u32>,
    /// Coarse aggregate → fine members, CSR-style; members ascending, so
    /// restriction sums in a fixed order.
    pub children_ptr: Vec<u32>,
    pub children: Vec<u32>,
    /// The coarse Galerkin pattern (values all zero — per-matrix values
    /// are scattered in at preconditioner build time).
    pub pattern: CsrMatrix,
    /// Fine nnz index → coarse nnz index: entry `(i, j)` of the fine
    /// matrix accumulates into entry `(agg[i], agg[j])` of the coarse.
    pub scatter: Vec<u32>,
    /// The coarse pattern's kernel schedules (level sets for the ILU(0)
    /// smoother sweeps), computed once and shared by every build.
    pub schedules: KernelSchedules,
}

impl MgLevel {
    /// Galerkin values of the coarse operator: zero, then scatter-add
    /// every fine entry in fine nnz order — a pure function of the fine
    /// values.
    fn galerkin_values(&self, fine_values: &[f64]) -> Vec<f64> {
        let mut cv = vec![0.0; self.pattern.nnz()];
        for (k, &v) in fine_values.iter().enumerate() {
            cv[self.scatter[k] as usize] += v;
        }
        cv
    }
}

/// The flow-independent multigrid hierarchy of one sparsity pattern:
/// aggregate maps, coarse patterns, Galerkin scatter maps and coarse
/// kernel schedules for every level.
///
/// Built once per pattern by `build` (the thermal
/// skeleton carries one inside its [`KernelSchedules`]); turned into a
/// concrete [`MultigridPreconditioner`] per matrix by
/// [`PreconditionerKind::Multigrid`](crate::PreconditionerKind).
#[derive(Debug, Clone, PartialEq)]
pub struct MgStructure {
    /// Pattern identity of the fine matrix the hierarchy was built for
    /// (shared index arrays, not a copy) — the builder guard.
    row_ptr: Arc<[u32]>,
    col_idx: Arc<[u32]>,
    pub(crate) levels: Vec<MgLevel>,
}

impl MgStructure {
    /// Builds the hierarchy for `a`'s pattern from one [`GridCoord`] per
    /// unknown, semi-coarsening until the coarsest level fits a dense
    /// solve. Returns `None` when no useful hierarchy exists (the system
    /// is already coarsest-sized, or coarsening stalls immediately) —
    /// callers fall back to single-level preconditioning.
    ///
    /// # Panics
    ///
    /// Panics if `coords.len() != a.order()`.
    pub(crate) fn build(a: &CsrMatrix, coords: &[GridCoord]) -> Option<Self> {
        assert_eq!(
            coords.len(),
            a.order(),
            "multigrid: one coordinate per unknown"
        );
        let (row_ptr, col_idx) = a.pattern_arcs();
        let mut levels: Vec<MgLevel> = Vec::new();
        let mut cur: Option<CsrMatrix> = None;
        let mut cur_coords = coords.to_vec();
        loop {
            let n = match &cur {
                None => a.order(),
                Some(m) => m.order(),
            };
            if n <= COARSEST_MAX || levels.len() >= MAX_LEVELS {
                break;
            }
            let (agg, coarse_coords) = semicoarsen(&cur_coords);
            let nc = coarse_coords.len();
            // Stalled coarsening (degenerate coordinates) would build a
            // deep tower of near-identical levels; stop instead.
            if nc * 10 >= n * 9 {
                break;
            }
            let fine = match &cur {
                None => a,
                Some(m) => m,
            };
            let level = Self::build_level(fine, agg, nc);
            cur = Some(level.pattern.clone());
            cur_coords = coarse_coords;
            levels.push(level);
        }
        if levels.is_empty() {
            None
        } else {
            Some(Self {
                row_ptr,
                col_idx,
                levels,
            })
        }
    }

    /// One transition from `fine` under the aggregate map `agg`, in
    /// `O(nnz)`: each coarse row is the image of its children's rows,
    /// collected through a column marker and sorted, so the scatter map
    /// falls out of the marker instead of a search per fine entry.
    fn build_level(fine: &CsrMatrix, agg: Vec<u32>, nc: usize) -> MgLevel {
        const NONE: u32 = u32::MAX;
        let n = fine.order();
        // Children lists: counts, prefix sum, then fill in ascending
        // fine order (restriction sums children in this fixed order).
        let mut children_ptr = vec![0u32; nc + 1];
        for &g in &agg {
            children_ptr[g as usize + 1] += 1;
        }
        for i in 0..nc {
            children_ptr[i + 1] += children_ptr[i];
        }
        let mut children = vec![0u32; n];
        let mut cursor = children_ptr.clone();
        for (f, &g) in agg.iter().enumerate() {
            children[cursor[g as usize] as usize] = f as u32;
            cursor[g as usize] += 1;
        }
        // Coarse Galerkin pattern: row I holds the aggregates of every
        // column its children couple to. `slot[J]` is row I's slot of
        // column J while row I is built, NONE otherwise.
        let rp = fine.row_ptr();
        let ci = fine.col_indices();
        let mut row_ptr = Vec::with_capacity(nc + 1);
        row_ptr.push(0u32);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut scatter = vec![0u32; fine.nnz()];
        let mut slot = vec![NONE; nc];
        for g in 0..nc {
            let kids = &children[children_ptr[g] as usize..children_ptr[g + 1] as usize];
            let row0 = col_idx.len();
            for &f in kids {
                for k in rp[f as usize] as usize..rp[f as usize + 1] as usize {
                    let gj = agg[ci[k] as usize];
                    if slot[gj as usize] == NONE {
                        // Seen; the real slot is known once the row is sorted.
                        slot[gj as usize] = 0;
                        col_idx.push(gj);
                    }
                }
            }
            col_idx[row0..].sort_unstable();
            for (k, &gj) in col_idx[row0..].iter().enumerate() {
                slot[gj as usize] = (row0 + k) as u32;
            }
            for &f in kids {
                for k in rp[f as usize] as usize..rp[f as usize + 1] as usize {
                    scatter[k] = slot[agg[ci[k] as usize] as usize];
                }
            }
            for &gj in &col_idx[row0..] {
                slot[gj as usize] = NONE;
            }
            row_ptr.push(col_idx.len() as u32);
        }
        let nnz = col_idx.len();
        let pattern = CsrMatrix::from_parts(row_ptr, col_idx, vec![0.0; nnz]);
        let schedules = KernelSchedules::analyse(&pattern);
        MgLevel {
            agg,
            children_ptr,
            children,
            pattern,
            scatter,
            schedules,
        }
    }

    /// Whether the hierarchy was built for `a`'s sparsity pattern
    /// (pointer-equality fast path, content comparison fallback — the
    /// same contract as [`KernelSchedules::matches_pattern`]).
    pub(crate) fn matches_pattern(&self, a: &CsrMatrix) -> bool {
        let (rp, ci) = a.pattern_arcs();
        (Arc::ptr_eq(&self.row_ptr, &rp) && Arc::ptr_eq(&self.col_idx, &ci))
            || (self.row_ptr == rp && self.col_idx == ci)
    }

    /// Number of coarse levels below the fine grid.
    #[cfg(test)]
    pub(crate) fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Level orders, fine first, coarsest last.
    #[cfg(test)]
    pub(crate) fn level_orders(&self) -> Vec<usize> {
        let mut orders = vec![self.levels[0].agg.len()];
        orders.extend(self.levels.iter().map(|l| l.pattern.order()));
        orders
    }
}

/// `z += inc` elementwise.
fn add_into(z: &mut [f64], inc: &[f64]) {
    for (zi, &d) in z.iter_mut().zip(inc) {
        *zi += d;
    }
}

/// Geometric multigrid V(0,1) preconditioner.
///
/// One [`apply`](Preconditioner::apply) = one V-cycle: restriction of
/// the residual, recursion down to a prefactored dense-LU coarsest
/// solve, prolongation of the correction and one ILU(0) post-smooth
/// per level. Built per matrix from a shared [`MgStructure`].
#[derive(Debug)]
pub struct MultigridPreconditioner {
    structure: Arc<MgStructure>,
    /// Level-0 matrix (shares structure and values with the build input).
    fine: CsrMatrix,
    /// Galerkin matrices of levels `1..=L`.
    coarse: Vec<CsrMatrix>,
    /// Post-smoothers of levels `0..L`.
    smooth: Vec<Ilu0Preconditioner>,
    /// Prefactored coarsest-level solve.
    coarsest: LuFactors,
    /// Index-free stencil decomposition of the fine pattern, when the
    /// schedules carry one: the fine-level residual dominates the
    /// V-cycle's matvec cost, and the fused stencil kernel lands the
    /// same bits as the CSR row kernel, faster.
    fine_stencil: Option<Arc<StencilPattern>>,
    scratch: Mutex<MgScratch>,
    cycles: AtomicU64,
}

impl MultigridPreconditioner {
    /// Builds the V-cycle for `a`: Galerkin coarse operators from `a`'s
    /// values through the shared `structure`, one ILU(0) smoother per
    /// level (the fine level on `a`'s pattern `schedules`, the coarse
    /// levels on their own) and a dense LU of the coarsest level.
    ///
    /// # Errors
    ///
    /// [`NumError::PatternMismatch`] if `structure` (or `schedules`) was
    /// built for a different sparsity pattern than `a`'s;
    /// [`NumError::SingularMatrix`] if a smoother factorization or the
    /// coarsest LU breaks down.
    pub(crate) fn new(
        a: &CsrMatrix,
        schedules: &KernelSchedules,
        structure: Arc<MgStructure>,
    ) -> Result<Self, NumError> {
        if !structure.matches_pattern(a) {
            return Err(NumError::PatternMismatch {
                context: "multigrid hierarchy",
            });
        }
        if !schedules.matches_pattern(a) {
            return Err(NumError::PatternMismatch {
                context: "multigrid",
            });
        }
        // Galerkin values level by level, each from its parent's.
        let mut coarse: Vec<CsrMatrix> = Vec::with_capacity(structure.levels.len());
        for (i, lvl) in structure.levels.iter().enumerate() {
            let values = match i {
                0 => lvl.galerkin_values(a.values()),
                _ => lvl.galerkin_values(coarse[i - 1].values()),
            };
            coarse.push(lvl.pattern.with_values(values));
        }
        let fine_stencil = schedules.stencil().cloned();
        let mut smooth = Vec::with_capacity(structure.levels.len());
        smooth.push(Ilu0Preconditioner::new(a, schedules)?);
        for (m, lvl) in coarse
            .iter()
            .zip(&structure.levels[..structure.levels.len() - 1])
        {
            smooth.push(Ilu0Preconditioner::new(m, &lvl.schedules)?);
        }
        let coarsest = LuFactors::factor(&coarse.last().expect("non-empty hierarchy").to_dense())?;
        let mut orders = vec![a.order()];
        orders.extend(coarse.iter().map(|m| m.order()));
        Ok(Self {
            structure,
            fine: a.clone(),
            coarse,
            smooth,
            coarsest,
            fine_stencil,
            scratch: Mutex::new(MgScratch::for_orders(&orders)),
            cycles: AtomicU64::new(0),
        })
    }

    /// V-cycles performed since construction (one per `apply`).
    pub(crate) fn cycle_count(&self) -> u64 {
        self.cycles.load(Ordering::Relaxed)
    }

    /// Fine-level residual `r = b - A·x` through the fastest available
    /// kernel: the fused index-free stencil when the pattern decomposed
    /// into one, the fused CSR row kernel otherwise. Bit-identical
    /// either way.
    fn fine_residual(&self, b: &[f64], x: &[f64], r: &mut [f64]) {
        match &self.fine_stencil {
            Some(p) => StencilOp::new(p, self.fine.values()).residual_into(b, x, r),
            None => self.fine.residual_into(b, x, r),
        }
    }

    /// Restriction `r_c = Pᵀ·t`: per-aggregate sums of `t`, each in the
    /// fixed ascending child order.
    fn restrict(&self, level: usize, t: &[f64], rc: &mut [f64]) {
        let lvl = &self.structure.levels[level];
        for (out, bounds) in rc.iter_mut().zip(lvl.children_ptr.windows(2)) {
            let mut acc = 0.0;
            for &f in &lvl.children[bounds[0] as usize..bounds[1] as usize] {
                acc += t[f as usize];
            }
            *out = acc;
        }
    }

    /// Prolongation `z += P·e_c`: each fine node adds its aggregate's
    /// correction.
    fn prolong_add(&self, level: usize, ec: &[f64], z: &mut [f64]) {
        let lvl = &self.structure.levels[level];
        for (zi, &g) in z.iter_mut().zip(&lvl.agg) {
            *zi += ec[g as usize];
        }
    }
}

impl Preconditioner for MultigridPreconditioner {
    // The scratch guard stays held for the whole cycle: every leg works
    // in its buffers. The lock is the model's own, and one thread runs
    // each solve, so it is never contended.
    #[allow(clippy::significant_drop_tightening)]
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let n = self.fine.order();
        assert_eq!(r.len(), n, "multigrid: r length");
        assert_eq!(z.len(), n, "multigrid: z length");
        self.cycles.fetch_add(1, Ordering::Relaxed);
        vfc_obs::counter_add("precond.vcycles", 1);
        let mut guard = self.scratch.lock().expect("mg scratch poisoned");
        let ws = &mut *guard;
        let depth = self.structure.levels.len();

        // The four leg spans partition the whole cycle (coarse-grid
        // work of every level is lumped under `mg.coarse`), so
        // `kernel_probe` can measure the cycle's ILU-apply-equivalents
        // instead of asserting them.

        // Down leg, fine level: no pre-smoothing, so z starts at zero
        // and the raw residual restricts directly.
        {
            let _leg = vfc_obs::span("mg.restrict");
            z.fill(0.0);
            self.restrict(0, r, &mut ws.r[0]);
        }

        {
            let _leg = vfc_obs::span("mg.coarse");
            // Down sweep over the coarse levels, zero-start likewise.
            for l in 1..depth {
                let (rfine, rcoarse) = ws.r.split_at_mut(l);
                ws.z[l - 1].fill(0.0);
                self.restrict(l, &rfine[l - 1], &mut rcoarse[0]);
            }

            // Coarsest: direct solve from the prefactored LU.
            let last = depth - 1;
            self.coarsest.solve_into(&ws.r[last], &mut ws.z[last]);

            // Up sweep over the coarse levels: prolong, then smooth the
            // residual and add the smoothed correction.
            for l in (1..depth).rev() {
                let (zfine, zcoarse) = ws.z.split_at_mut(l);
                let zl = &mut zfine[l - 1];
                self.prolong_add(l, &zcoarse[0], zl);
                self.coarse[l - 1].residual_into(&ws.r[l - 1], zl, &mut ws.t[l]);
                self.smooth[l].apply(&ws.t[l], &mut ws.s[l]);
                add_into(zl, &ws.s[l]);
            }
        }

        // Up leg, fine level: prolong the correction, post-smooth.
        {
            let _leg = vfc_obs::span("mg.prolong");
            self.prolong_add(0, &ws.z[0], z);
        }
        {
            let _leg = vfc_obs::span("mg.post_smooth");
            self.fine_residual(r, z, &mut ws.t[0]);
            self.smooth[0].apply(&ws.t[0], &mut ws.s[0]);
            add_into(z, &ws.s[0]);
        }
    }

    fn order(&self) -> usize {
        self.fine.order()
    }

    fn cycles(&self) -> Option<u64> {
        Some(self.cycle_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BiCgStab, CsrBuilder, PreconditionerKind, SolverWorkspace};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// One coordinate per node of a full `layers × rows × cols` grid,
    /// node index `(l·rows + r)·cols + c` (layer-major, row-major —
    /// the thermal layout convention).
    fn grid_coords(layers: u32, rows: u32, cols: u32) -> Vec<GridCoord> {
        let mut coords = Vec::with_capacity((layers * rows * cols) as usize);
        for layer in 0..layers {
            for row in 0..rows {
                for col in 0..cols {
                    coords.push(GridCoord { layer, row, col });
                }
            }
        }
        coords
    }

    /// 7-point grid Laplacian plus a boundary shift: symmetric when
    /// `advect == 0.0`, otherwise with an upwind advection term along
    /// the columns of one layer (row-sum preserving, like the coolant
    /// channels).
    fn grid_matrix(layers: u32, rows: u32, cols: u32, seed: u64, advect: f64) -> CsrMatrix {
        let (lr, rr, cr) = (layers as usize, rows as usize, cols as usize);
        let id = |l: usize, r: usize, c: usize| (l * rr + r) * cr + c;
        let n = lr * rr * cr;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = CsrBuilder::new(n);
        let mut diag = vec![0.0; n];
        let couple = |b: &mut CsrBuilder, diag: &mut Vec<f64>, i: usize, j: usize, g: f64| {
            b.add(i, j, -g);
            b.add(j, i, -g);
            diag[i] += g;
            diag[j] += g;
        };
        for l in 0..lr {
            for r in 0..rr {
                for c in 0..cr {
                    let i = id(l, r, c);
                    if c + 1 < cr {
                        let g = 1.0 + rng.random_range(0.0..0.5);
                        couple(&mut b, &mut diag, i, id(l, r, c + 1), g);
                    }
                    if r + 1 < rr {
                        let g = 1.0 + rng.random_range(0.0..0.5);
                        couple(&mut b, &mut diag, i, id(l, r + 1, c), g);
                    }
                    if l + 1 < lr {
                        // Strong z coupling, the semi-coarsened direction.
                        let g = 4.0 + rng.random_range(0.0..1.0);
                        couple(&mut b, &mut diag, i, id(l + 1, r, c), g);
                    }
                    if advect != 0.0 && l == 0 && c > 0 {
                        // Upwind: row i couples its upstream neighbour only.
                        b.add(i, id(l, r, c - 1), -advect);
                        diag[i] += advect;
                    }
                }
            }
        }
        for (i, &d) in diag.iter().enumerate() {
            // Boundary leak keeps the system nonsingular.
            b.add(i, i, d + 0.05);
        }
        b.build()
    }

    #[test]
    fn too_small_grids_have_no_hierarchy() {
        let a = grid_matrix(2, 4, 4, 0, 0.0);
        assert!(MgStructure::build(&a, &grid_coords(2, 4, 4)).is_none());
    }

    #[test]
    fn structure_rejects_foreign_matrix() {
        let a = grid_matrix(2, 12, 12, 1, 0.0);
        let mg = Arc::new(MgStructure::build(&a, &grid_coords(2, 12, 12)).unwrap());
        let other = grid_matrix(3, 12, 8, 2, 0.0);
        assert!(!mg.matches_pattern(&other));
        assert!(matches!(
            MultigridPreconditioner::new(&other, &KernelSchedules::for_matrix(&other), mg),
            Err(NumError::PatternMismatch {
                context: "multigrid hierarchy"
            })
        ));
    }

    #[test]
    fn structure_accepts_content_identical_twin() {
        // Independently assembled same-pattern matrix: the content
        // fallback of the guard must accept it (same contract as
        // KernelSchedules::matches_pattern).
        let a = grid_matrix(2, 12, 12, 3, 0.0);
        let twin = grid_matrix(2, 12, 12, 4, 0.0);
        let mg = Arc::new(MgStructure::build(&a, &grid_coords(2, 12, 12)).unwrap());
        assert!(mg.matches_pattern(&twin));
        let schedules = KernelSchedules::for_matrix(&twin);
        assert!(MultigridPreconditioner::new(&twin, &schedules, mg).is_ok());
    }

    #[test]
    fn multigrid_kind_falls_back_to_ilu0_without_a_hierarchy() {
        let a = grid_matrix(1, 5, 5, 5, 0.0);
        let schedules = KernelSchedules::for_matrix(&a);
        let mg = PreconditionerKind::Multigrid.build(&a, &schedules).unwrap();
        let ilu = PreconditionerKind::Ilu0.build(&a, &schedules).unwrap();
        let r: Vec<f64> = (0..a.order()).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut z_mg = vec![0.0; a.order()];
        let mut z_ilu = vec![0.0; a.order()];
        mg.apply(&r, &mut z_mg);
        ilu.apply(&r, &mut z_ilu);
        assert!(z_mg
            .iter()
            .zip(&z_ilu)
            .all(|(p, q)| p.to_bits() == q.to_bits()));
        assert_eq!(mg.cycles(), None, "the fallback is a plain ILU(0)");
    }

    #[test]
    fn mg_preconditioned_bicgstab_matches_dense_reference() {
        let (layers, rows, cols) = (3, 14, 14);
        let a = grid_matrix(layers, rows, cols, 7, 0.0);
        let n = a.order();
        let coords = grid_coords(layers, rows, cols);
        let schedules = KernelSchedules::for_grid_matrix(&a, &coords);
        assert!(schedules.multigrid().is_some());
        let m = PreconditionerKind::Multigrid.build(&a, &schedules).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut x = vec![0.0; n];
        let mut ws = SolverWorkspace::new();
        let info = BiCgStab {
            tolerance: 1e-12,
            max_iterations: 200,
        }
        .solve_with(&a, &b, &mut x, m.as_ref(), &mut ws)
        .unwrap();
        assert!(m.cycles().unwrap() >= info.iterations as u64);
        let reference = a.to_dense().lu_solve(&b).unwrap();
        for (got, want) in x.iter().zip(&reference) {
            assert!((got - want).abs() < 1e-7, "{got} vs {want}");
        }
    }

    #[test]
    fn mg_preconditioned_bicgstab_solves_the_advective_system() {
        let (layers, rows, cols) = (3, 12, 12);
        let a = grid_matrix(layers, rows, cols, 9, 2.5);
        let n = a.order();
        let coords = grid_coords(layers, rows, cols);
        let schedules = KernelSchedules::for_grid_matrix(&a, &coords);
        let m = PreconditionerKind::Multigrid.build(&a, &schedules).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.07).sin()).collect();
        let mut x = vec![0.0; n];
        let mut ws = SolverWorkspace::new();
        BiCgStab {
            tolerance: 1e-11,
            max_iterations: 200,
        }
        .solve_with(&a, &b, &mut x, m.as_ref(), &mut ws)
        .unwrap();
        let reference = a.to_dense().lu_solve(&b).unwrap();
        for (got, want) in x.iter().zip(&reference) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    /// Applies `m` to `r` from `threads` threads at once (one shared
    /// preconditioner, `Sync` through its scratch lock) and returns every
    /// thread's output.
    fn apply_concurrently(m: &dyn Preconditioner, r: &[f64], threads: usize) -> Vec<Vec<f64>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut z = vec![0.0; r.len()];
                        m.apply(r, &mut z);
                        z
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn vcycle_apply_is_bit_identical_across_thread_counts() {
        // One preconditioner shared by 1, 2 and 4 threads applying it
        // at once: the scratch lock must serialize the cycles, so every
        // caller gets the single-threaded bits.
        let (layers, rows, cols) = (8, 40, 40);
        let a = grid_matrix(layers, rows, cols, 13, 1.5);
        let coords = grid_coords(layers, rows, cols);
        let schedules = KernelSchedules::for_grid_matrix(&a, &coords);
        let r: Vec<f64> = (0..a.order()).map(|i| (i as f64 * 0.013).sin()).collect();
        let m = PreconditionerKind::Multigrid.build(&a, &schedules).unwrap();
        let mut reference = vec![0.0; a.order()];
        m.apply(&r, &mut reference);
        let mut applies = 1;
        for threads in [1usize, 2, 4] {
            for z in apply_concurrently(m.as_ref(), &r, threads) {
                assert!(
                    z.iter()
                        .zip(&reference)
                        .all(|(p, q)| p.to_bits() == q.to_bits()),
                    "{threads} threads diverged"
                );
            }
            applies += threads as u64;
            assert_eq!(m.cycles(), Some(applies), "one V-cycle per apply");
        }
    }

    #[test]
    fn refactorizations_share_every_level_plan() {
        // A conductance matrix and its backward-Euler operator (the
        // same pattern, shifted diagonal), as a model factors them.
        let (layers, rows, cols) = (3, 14, 14);
        let a = grid_matrix(layers, rows, cols, 21, 1.0);
        let mut values = a.values().to_vec();
        for i in 0..a.order() {
            values[a.pattern_index(i, i).unwrap()] += 2.0;
        }
        let be = a.with_values(values);
        let schedules = KernelSchedules::for_grid_matrix(&a, &grid_coords(layers, rows, cols));
        let structure = Arc::clone(schedules.multigrid().unwrap());
        let build = |m: &CsrMatrix| {
            MultigridPreconditioner::new(m, &schedules, Arc::clone(&structure)).unwrap()
        };
        let (p, q) = (build(&a), build(&be));
        assert_eq!(p.smooth.len(), structure.depth());
        let plans =
            std::iter::once(&schedules).chain(structure.levels.iter().map(|l| &l.schedules));
        for ((x, y), owner) in p.smooth.iter().zip(&q.smooth).zip(plans) {
            let shared = owner.ilu0_plan().unwrap();
            assert!(Arc::ptr_eq(x.plan(), shared));
            assert!(Arc::ptr_eq(y.plan(), shared));
        }
    }

    /// The triplet-sorting construction the marker build replaced: the
    /// coarse pattern through `CsrBuilder`, the scatter map by search.
    fn reference_coarse(fine: &CsrMatrix, agg: &[u32], nc: usize) -> (CsrMatrix, Vec<u32>) {
        let (rp, ci) = (fine.row_ptr(), fine.col_indices());
        let mut b = CsrBuilder::new(nc);
        for i in 0..fine.order() {
            for k in rp[i] as usize..rp[i + 1] as usize {
                b.reserve_entry(agg[i] as usize, agg[ci[k] as usize] as usize);
            }
        }
        let pattern = b.build();
        let mut scatter = Vec::new();
        for i in 0..fine.order() {
            for k in rp[i] as usize..rp[i + 1] as usize {
                let (gi, gj) = (agg[i] as usize, agg[ci[k] as usize] as usize);
                scatter.push(pattern.pattern_index(gi, gj).unwrap() as u32);
            }
        }
        (pattern, scatter)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every level's coarse pattern and scatter map equal the
        /// triplet-sorting construction's, entry for entry.
        #[test]
        fn coarse_patterns_match_the_triplet_build(
            layers in 1u32..4,
            rows in 2u32..16,
            cols in 2u32..16,
            seed in 0u64..40,
        ) {
            let a = grid_matrix(layers, rows, cols, seed, 0.7);
            let Some(mg) = MgStructure::build(&a, &grid_coords(layers, rows, cols)) else {
                return Ok(());
            };
            let mut fine = a.clone();
            for lvl in &mg.levels {
                let (pattern, scatter) = reference_coarse(&fine, &lvl.agg, lvl.pattern.order());
                prop_assert_eq!(&lvl.pattern, &pattern);
                prop_assert_eq!(&lvl.scatter, &scatter);
                fine = lvl.pattern.clone();
            }
        }

        /// Hierarchy invariants on randomized grids, including odd
        /// extents, single-tier stacks and minimal 2×2 planes.
        #[test]
        fn hierarchy_invariants(
            layers in 1u32..4,
            rows in 2u32..16,
            cols in 2u32..16,
            seed in 0u64..40,
        ) {
            let a = grid_matrix(layers, rows, cols, seed, 0.0);
            let coords = grid_coords(layers, rows, cols);
            let n = a.order();
            let Some(mg) = MgStructure::build(&a, &coords) else {
                // No hierarchy only for coarsest-sized systems.
                prop_assert!(n <= 64, "order {n} should have coarsened");
                return Ok(());
            };
            prop_assert!(mg.matches_pattern(&a));
            prop_assert!(mg.depth() >= 1);
            let orders = mg.level_orders();
            prop_assert_eq!(orders[0], n);
            for w in orders.windows(2) {
                // Strict progress at every level (the stall guard).
                prop_assert!(w[1] * 10 < w[0] * 9, "stalled: {} -> {}", w[0], w[1]);
                // In-plane 2×2 aggregation never merges layers, so a
                // level shrinks at most 4×.
                prop_assert!(w[1] * 4 >= w[0], "over-coarsened: {} -> {}", w[0], w[1]);
            }
            // Coarsening ran to the dense-solve threshold.
            prop_assert!(*orders.last().unwrap() <= 64);
            for (lvl, &nl) in mg.levels.iter().zip(&orders) {
                let nc = lvl.pattern.order();
                // agg and children are inverse partitions of 0..n_l.
                prop_assert_eq!(lvl.agg.len(), nl);
                prop_assert_eq!(lvl.children.len(), nl);
                prop_assert_eq!(lvl.children_ptr.len(), nc + 1);
                let mut seen = vec![false; nl];
                for i in 0..nc {
                    let lo = lvl.children_ptr[i] as usize;
                    let hi = lvl.children_ptr[i + 1] as usize;
                    prop_assert!(lo < hi, "empty aggregate {i}");
                    prop_assert!(hi - lo <= 4, "aggregate {i} larger than 2x2");
                    for w in lvl.children[lo..hi].windows(2) {
                        prop_assert!(w[0] < w[1], "children not ascending");
                    }
                    for &f in &lvl.children[lo..hi] {
                        prop_assert_eq!(lvl.agg[f as usize] as usize, i);
                        prop_assert!(!seen[f as usize]);
                        seen[f as usize] = true;
                    }
                }
                prop_assert!(seen.iter().all(|&s| s), "children must cover the level");
            }
        }

        /// Restriction is the exact transpose of prolongation:
        /// ⟨P·e, f⟩ = ⟨e, R·f⟩ for random vectors on every level.
        #[test]
        fn prolongation_restriction_transpose_consistency(
            layers in 1u32..3,
            rows in 4u32..16,
            cols in 4u32..16,
            seed in 0u64..40,
        ) {
            let a = grid_matrix(layers, rows, cols, seed, 0.0);
            let Some(mg) = MgStructure::build(&a, &grid_coords(layers, rows, cols)) else {
                return Ok(());
            };
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            for lvl in &mg.levels {
                let n = lvl.agg.len();
                let nc = lvl.pattern.order();
                let f: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
                let e: Vec<f64> = (0..nc).map(|_| rng.random_range(-1.0..1.0)).collect();
                // P·e by aggregate lookup; R·f by children sums.
                let pe: Vec<f64> = (0..n).map(|i| e[lvl.agg[i] as usize]).collect();
                let rf: Vec<f64> = (0..nc)
                    .map(|i| {
                        lvl.children[lvl.children_ptr[i] as usize..lvl.children_ptr[i + 1] as usize]
                            .iter()
                            .map(|&fi| f[fi as usize])
                            .sum()
                    })
                    .collect();
                let lhs = crate::dot(&pe, &f);
                let rhs = crate::dot(&e, &rf);
                prop_assert!(
                    (lhs - rhs).abs() <= 1e-12 * lhs.abs().max(rhs.abs()).max(1.0),
                    "<Pe,f> = {lhs} vs <e,Rf> = {rhs}"
                );
            }
        }

        /// Galerkin coarse operators of a symmetric fine operator stay
        /// symmetric (up to summation-order rounding), and preserve the
        /// total entry sum exactly on integer-valued inputs.
        #[test]
        fn galerkin_preserves_symmetry_and_sums(
            layers in 1u32..3,
            rows in 4u32..16,
            cols in 4u32..16,
            seed in 0u64..40,
        ) {
            let a = grid_matrix(layers, rows, cols, seed, 0.0);
            let Some(mg) = MgStructure::build(&a, &grid_coords(layers, rows, cols)) else {
                return Ok(());
            };
            let mut fine = a.clone();
            for lvl in &mg.levels {
                let cv = lvl.galerkin_values(fine.values());
                let mut coarse = lvl.pattern.clone();
                coarse.values_mut().copy_from_slice(&cv);
                let nc = coarse.order();
                for i in 0..nc {
                    for (j, v) in coarse.row(i) {
                        let vt = coarse.get(j, i);
                        prop_assert!(
                            (v - vt).abs() <= 1e-12 * v.abs().max(1.0),
                            "A_c[{i},{j}] = {v} vs A_c[{j},{i}] = {vt}"
                        );
                    }
                }
                // Ones-vector Galerkin identity: with unit fine values
                // the coarse entries count aggregated fine entries —
                // integer arithmetic, so the sum is exact.
                let ones = vec![1.0; fine.nnz()];
                let counts = lvl.galerkin_values(&ones);
                prop_assert_eq!(
                    counts.iter().sum::<f64>(),
                    fine.nnz() as f64,
                    "every fine entry lands in exactly one coarse slot"
                );
                fine = coarse;
            }
        }
    }
}
