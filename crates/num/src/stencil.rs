//! Index-free structured-stencil operator.
//!
//! The thermal RC networks live on a regular 3D stacked grid, so almost
//! every matrix row has the same *shape* as its neighbours: the column
//! offsets `col − row` of a tier-interior cell are identical for the
//! whole grid row, a fluid cell couples its tiers at constant offsets,
//! and so on. CSR re-reads a 4-byte column index per entry anyway —
//! one third of the kernel's memory traffic spent rediscovering a
//! structure that never changes.
//!
//! [`StencilPattern`] factors that structure out once per sparsity
//! pattern: maximal **runs** of consecutive rows sharing one offset
//! **class** (the sorted `col − row` list). The kernels then walk
//! `(run, row)` pairs with the per-class offsets held in registers — no
//! per-entry index loads, fully unrolled bodies for the common small
//! entry counts — while enumerating entries in the exact CSR column
//! order with the CSR kernels' accumulation pattern, so every result is
//! **bit-identical** to the CSR operator.
//!
//! (`Ilu0Preconditioner` applies the same run idea to its triangular
//! factors, in wavefront-level order — see `vfc_num::precond`.)
//!
//! Patterns too irregular to pay off (mean run length below
//! [`MIN_MEAN_RUN`]) are rejected at construction; callers fall back to
//! the CSR operator, which lands the same bits — which operator runs
//! never changes results, only wall-clock.

use std::collections::HashMap;
use std::sync::Arc;

use crate::operator::{LinearOperator, RowMode};
use crate::CsrMatrix;

/// Minimum mean rows-per-run for a pattern to be considered profitable;
/// below this the run bookkeeping costs more than the index loads it
/// saves, and the decomposition returns `None`.
pub const MIN_MEAN_RUN: usize = 4;

/// Logical position of one unknown in the layered 3-D grid the stencil
/// patterns come from: `layer` indexes the z stack (tier, cavity,
/// spreader or sink plane — whatever the assembler laid out), `row` and
/// `col` the in-plane cell.
///
/// The multigrid hierarchy coarsens these coordinates geometrically
/// (`semicoarsen`); the assembler that knows the node layout produces
/// one coordinate per unknown and everything downstream is layout
/// agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GridCoord {
    /// z-plane index. Planes are never merged by coarsening: the z
    /// direction carries the strong tier/cavity couplings of a stacked
    /// die, and semi-coarsening keeps them resolved.
    pub layer: u32,
    /// In-plane row.
    pub row: u32,
    /// In-plane column.
    pub col: u32,
}

impl GridCoord {
    /// This node's aggregate position under in-plane 2× semi-coarsening:
    /// `(layer, row/2, col/2)`. Layers are preserved (see
    /// [`layer`](Self::layer)).
    #[inline]
    pub(crate) fn semicoarsened(self) -> GridCoord {
        GridCoord {
            layer: self.layer,
            row: self.row / 2,
            col: self.col / 2,
        }
    }
}

/// In-plane 2× semi-coarsening of a coordinate set.
///
/// Returns the fine→coarse aggregate map (`agg[i]` is the coarse index
/// of fine node `i`) and the coarse coordinates, ordered
/// lexicographically by `(layer, row, col)` — a deterministic ordering
/// that depends only on the input coordinates, never on traversal.
/// Every fine node lands in exactly one aggregate of at
/// most four in-plane neighbours; odd extents leave one-wide remainder
/// aggregates at the high edges, and holes in the fine set (e.g. the
/// reduced TALB system) simply make smaller aggregates.
pub(crate) fn semicoarsen(coords: &[GridCoord]) -> (Vec<u32>, Vec<GridCoord>) {
    let mut coarse: Vec<GridCoord> = coords.iter().map(|c| c.semicoarsened()).collect();
    coarse.sort_unstable();
    coarse.dedup();
    let agg = coords
        .iter()
        .map(|c| {
            coarse
                .binary_search(&c.semicoarsened())
                .expect("own aggregate is present") as u32
        })
        .collect();
    (agg, coarse)
}

/// Largest per-row entry count with a fully unrolled kernel; longer
/// rows use the generic loop.
const MAX_UNROLL: usize = 16;

/// A maximal block of consecutive rows sharing one offset class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    row0: u32,
    row1: u32,
    /// Index of row `row0`'s first entry in the (CSR-ordered) value
    /// array this run reads; row `i` starts at `val0 + (i − row0)·k`.
    val0: u32,
    class: u32,
}

/// Offset classes: class `c` owns `off[ptr[c]..ptr[c+1]]`, sorted
/// ascending (CSR column order). Shared with the ILU(0) sweep plans,
/// whose triangle classes have no diagonal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ClassTable {
    ptr: Vec<u32>,
    off: Vec<i32>,
}

impl ClassTable {
    /// Number of classes.
    fn len(&self) -> usize {
        self.ptr.len() - 1
    }

    /// The offsets of class `c`.
    #[inline]
    pub(crate) fn offsets(&self, c: u32) -> &[i32] {
        &self.off[self.ptr[c as usize] as usize..self.ptr[c as usize + 1] as usize]
    }
}

/// Builds a [`ClassTable`], one offset signature at a time.
#[derive(Debug)]
pub(crate) struct ClassInterner {
    table: ClassTable,
    map: HashMap<Vec<i32>, u32>,
    /// The class interned last: neighbouring rows mostly share a class,
    /// so checking it first spares most hash lookups.
    last: Option<u32>,
}

impl ClassInterner {
    pub(crate) fn new() -> Self {
        Self {
            table: ClassTable {
                ptr: vec![0],
                off: Vec::new(),
            },
            map: HashMap::new(),
            last: None,
        }
    }

    /// The class id of signature `sig`, interning it when new. Ids are
    /// assigned in first-seen order.
    pub(crate) fn intern(&mut self, sig: &[i32]) -> u32 {
        if let Some(c) = self.last.filter(|&c| self.table.offsets(c) == sig) {
            return c;
        }
        let c = match self.map.get(sig) {
            Some(&c) => c,
            None => {
                let t = &mut self.table;
                let c = t.len() as u32;
                t.off.extend_from_slice(sig);
                t.ptr.push(t.off.len() as u32);
                self.map.insert(sig.to_vec(), c);
                c
            }
        };
        self.last = Some(c);
        c
    }

    pub(crate) fn finish(self) -> ClassTable {
        self.table
    }
}

/// The run/class decomposition of one sparsity pattern.
///
/// Built once per pattern (the thermal skeleton computes it alongside
/// the CSR pattern and shares it through
/// [`KernelSchedules`](crate::KernelSchedules)); value arrays stay in
/// CSR order, so one pattern serves every same-pattern matrix — all
/// pump settings and every backward-Euler operator.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilPattern {
    n: usize,
    nnz: usize,
    runs: Vec<Run>,
    classes: ClassTable,
    /// The source pattern (shared index arrays, not a copy) for
    /// [`matches_pattern`](Self::matches_pattern).
    row_ptr: Arc<[u32]>,
    col_idx: Arc<[u32]>,
}

impl StencilPattern {
    /// Decomposes `a`'s pattern into runs and classes, or `None` when
    /// the pattern is too irregular to profit (see [`MIN_MEAN_RUN`]) or
    /// an offset exceeds the `i32` range.
    pub(crate) fn for_matrix(a: &CsrMatrix) -> Option<Self> {
        let n = a.order();
        let rp = a.row_ptr();
        let cols = a.col_indices();

        let mut classes = ClassInterner::new();
        let mut runs: Vec<Run> = Vec::new();

        let mut sig = Vec::new();
        for i in 0..n {
            sig.clear();
            for k in rp[i] as usize..rp[i + 1] as usize {
                let off = cols[k] as i64 - i as i64;
                if off < i32::MIN as i64 || off > i32::MAX as i64 {
                    return None;
                }
                sig.push(off as i32);
            }
            let c = classes.intern(&sig);
            extend_runs(&mut runs, i, rp[i], c);
        }

        if runs.is_empty() || n / runs.len() < MIN_MEAN_RUN {
            return None;
        }
        let (row_ptr, col_idx) = a.pattern_arcs();
        Some(Self {
            n,
            nnz: cols.len(),
            runs,
            classes: classes.finish(),
            row_ptr,
            col_idx,
        })
    }

    /// Pattern order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Stored entries of the source pattern.
    pub(crate) fn nnz(&self) -> usize {
        self.nnz
    }

    /// Number of row runs (smaller is better; `order / run_count` is
    /// the mean run length).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Number of distinct offset classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Whether this pattern was computed for `a`'s sparsity pattern
    /// (pointer-equality fast path, content fallback — the same
    /// contract as [`KernelSchedules`](crate::KernelSchedules)).
    pub fn matches_pattern(&self, a: &CsrMatrix) -> bool {
        let (rp, ci) = a.pattern_arcs();
        (Arc::ptr_eq(&self.row_ptr, &rp) && Arc::ptr_eq(&self.col_idx, &ci))
            || (self.row_ptr == rp && self.col_idx == ci)
    }

    /// Runs a fused row kernel over every row, run by run.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not hold `nnz` entries, or `x` or a slice
    /// of `mode` does not hold `n`.
    fn run_fused(&self, values: &[f64], x: &[f64], mut mode: RowMode<'_>) {
        assert_eq!(values.len(), self.nnz, "stencil: values length");
        mode.assert_order(self.n, x);
        for run in &self.runs {
            let off = self.classes.offsets(run.class);
            // SAFETY: every offset was derived from an in-range CSR
            // column at construction, per-run value cursors mirror the
            // CSR row pointer, and the lengths were checked above.
            unsafe {
                dispatch_fused(
                    off,
                    values,
                    run.val0 as usize,
                    x,
                    mode.reborrow(),
                    run.row0 as usize,
                    run.row1 as usize,
                )
            };
        }
    }
}

/// Extends the last run or opens a new one for row `i` of class `c`
/// whose first value-cursor is `val`.
fn extend_runs(runs: &mut Vec<Run>, i: usize, val: u32, c: u32) {
    if let Some(last) = runs.last_mut() {
        if last.class == c && last.row1 as usize == i {
            last.row1 = i as u32 + 1;
            return;
        }
    }
    runs.push(Run {
        row0: i as u32,
        row1: i as u32 + 1,
        val0: val,
        class: c,
    });
}

/// One stencil row's entry sum — the canonical CSR accumulation order
/// (even positions into `acc0`, odd into `acc1`, odd tail into `acc0`)
/// with the column addresses computed from per-class offsets instead of
/// loaded per entry.
///
/// # Safety
///
/// `vb + off.len()` must be within `vals`; `i + off[p]` within `x`.
#[inline(always)]
unsafe fn stencil_row_sum(off: &[i32], vals: &[f64], vb: usize, x: *const f64, i: usize) -> f64 {
    unsafe {
        let k = off.len();
        let (mut acc0, mut acc1) = (0.0f64, 0.0f64);
        let mut p = 0usize;
        while p + 1 < k {
            acc0 += *vals.get_unchecked(vb + p)
                * *x.offset(i as isize + *off.get_unchecked(p) as isize);
            acc1 += *vals.get_unchecked(vb + p + 1)
                * *x.offset(i as isize + *off.get_unchecked(p + 1) as isize);
            p += 2;
        }
        if p < k {
            acc0 += *vals.get_unchecked(vb + p)
                * *x.offset(i as isize + *off.get_unchecked(p) as isize);
        }
        acc0 + acc1
    }
}

/// The fused row loop for one run segment at a *const* entry count —
/// the offsets live in a fixed-size local so the compiler keeps them in
/// registers and fully unrolls the row body.
///
/// # Safety
///
/// As [`stencil_row_sum`], plus every slice of `mode` must cover the
/// rows `a..b`.
unsafe fn fused_rows_k<const K: usize>(
    off: &[i32],
    vals: &[f64],
    mut vb: usize,
    x: &[f64],
    mut mode: RowMode<'_>,
    a: usize,
    b: usize,
) {
    let mut o = [0i32; K];
    o.copy_from_slice(&off[..K]);
    let xp = x.as_ptr();
    for i in a..b {
        // SAFETY: forwarded from the caller.
        unsafe {
            let sum = stencil_row_sum(&o, vals, vb, xp, i);
            mode.finish(i, x, sum);
        }
        vb += K;
    }
}

/// Runtime-`k` fallback of [`fused_rows_k`].
///
/// # Safety
///
/// As [`fused_rows_k`].
unsafe fn fused_rows_generic(
    off: &[i32],
    vals: &[f64],
    mut vb: usize,
    x: &[f64],
    mut mode: RowMode<'_>,
    a: usize,
    b: usize,
) {
    let k = off.len();
    let xp = x.as_ptr();
    for i in a..b {
        // SAFETY: forwarded from the caller.
        unsafe {
            let sum = stencil_row_sum(off, vals, vb, xp, i);
            mode.finish(i, x, sum);
        }
        vb += k;
    }
}

/// Dispatches a run segment to the unrolled kernel for its entry count.
///
/// # Safety
///
/// As [`fused_rows_k`].
unsafe fn dispatch_fused(
    off: &[i32],
    vals: &[f64],
    vb: usize,
    x: &[f64],
    mode: RowMode<'_>,
    a: usize,
    b: usize,
) {
    macro_rules! k_arm {
        ($K:literal) => {
            // SAFETY: forwarded from the caller.
            unsafe { fused_rows_k::<$K>(off, vals, vb, x, mode, a, b) }
        };
    }
    debug_assert!(MAX_UNROLL == 16, "dispatch arms must cover MAX_UNROLL");
    match off.len() {
        1 => k_arm!(1),
        2 => k_arm!(2),
        3 => k_arm!(3),
        4 => k_arm!(4),
        5 => k_arm!(5),
        6 => k_arm!(6),
        7 => k_arm!(7),
        8 => k_arm!(8),
        9 => k_arm!(9),
        10 => k_arm!(10),
        11 => k_arm!(11),
        12 => k_arm!(12),
        13 => k_arm!(13),
        14 => k_arm!(14),
        15 => k_arm!(15),
        16 => k_arm!(16),
        // SAFETY: forwarded from the caller.
        _ => unsafe { fused_rows_generic(off, vals, vb, x, mode, a, b) },
    }
}

/// A stencil-backed [`LinearOperator`] view: one shared
/// [`StencilPattern`] plus a borrowed CSR-ordered value array.
#[derive(Debug, Clone, Copy)]
pub struct StencilOp<'a> {
    pattern: &'a StencilPattern,
    values: &'a [f64],
}

impl<'a> StencilOp<'a> {
    /// A plain view over `pattern` with `values` in CSR entry order.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not hold exactly `pattern.nnz()` entries.
    pub fn new(pattern: &'a StencilPattern, values: &'a [f64]) -> Self {
        assert_eq!(values.len(), pattern.nnz(), "stencil-op: values length");
        Self { pattern, values }
    }
}

impl LinearOperator for StencilOp<'_> {
    fn order(&self) -> usize {
        self.pattern.n
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        self.pattern.run_fused(self.values, x, RowMode::Mv { y });
    }

    fn residual_into(&self, b: &[f64], x: &[f64], r: &mut [f64]) {
        self.pattern
            .run_fused(self.values, x, RowMode::Res { b, r });
    }

    fn be_prologue(&self, c: &[f64], base: &[f64], x: &[f64], rhs: &mut [f64], r: &mut [f64]) {
        self.pattern
            .run_fused(self.values, x, RowMode::Be { c, base, rhs, r });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A structured 2-D grid matrix (5-point stencil plus an optional
    /// far coupling) — the shape the thermal networks take.
    fn grid_matrix(rows: usize, cols: usize, seed: u64, far: bool) -> CsrMatrix {
        let n = rows * cols;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = CsrBuilder::new(n);
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                b.add(i, i, 4.0 + rng.random_range(0.0..1.0));
                if c > 0 {
                    b.add(i, i - 1, rng.random_range(-1.0..-0.1));
                }
                if c + 1 < cols {
                    b.add(i, i + 1, rng.random_range(-1.0..-0.1));
                }
                if r > 0 {
                    b.add(i, i - cols, rng.random_range(-1.0..-0.1));
                }
                if r + 1 < rows {
                    b.add(i, i + cols, rng.random_range(-1.0..-0.1));
                }
                if far && r + 2 < rows {
                    b.add(i, i + 2 * cols, rng.random_range(-0.2..0.2));
                }
            }
        }
        b.build()
    }

    #[test]
    fn grid_pattern_decomposes_into_long_runs() {
        let a = grid_matrix(20, 30, 1, false);
        let p = StencilPattern::for_matrix(&a).expect("grid patterns are regular");
        assert_eq!(p.order(), 600);
        assert_eq!(p.nnz(), a.nnz());
        // Interior rows of one grid row share a class: runs are long.
        assert!(
            p.order() / p.run_count() >= MIN_MEAN_RUN,
            "runs: {}",
            p.run_count()
        );
        // 9 geometric classes (interior/edges/corners) for a 5-point
        // stencil.
        assert_eq!(p.class_count(), 9);
        assert!(p.matches_pattern(&a));
        assert!(!p.matches_pattern(&grid_matrix(10, 10, 1, false)));
    }

    #[test]
    fn irregular_patterns_are_rejected() {
        // A random pattern has ~no repeated row shapes.
        let n = 200;
        let mut rng = StdRng::seed_from_u64(9);
        let mut b = CsrBuilder::new(n);
        for i in 0..n {
            b.add(i, i, 3.0);
            for _ in 0..3 {
                b.add(i, rng.random_range(0..n), 0.1);
            }
        }
        assert!(StencilPattern::for_matrix(&b.build()).is_none());
    }

    #[test]
    fn matvec_residual_and_prologue_match_csr_bitwise() {
        let a = grid_matrix(17, 23, 5, true);
        let n = a.order();
        let p = StencilPattern::for_matrix(&a).expect("regular");
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin() * 2.0).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).cos() - 0.3).collect();
        let op = StencilOp::new(&p, a.values());

        let mut y_ref = vec![0.0; n];
        a.matvec_into(&x, &mut y_ref);
        let mut y = vec![f64::NAN; n];
        op.matvec_into(&x, &mut y);
        assert!(y
            .iter()
            .zip(&y_ref)
            .all(|(g, w)| g.to_bits() == w.to_bits()));

        let mut r_ref = vec![0.0; n];
        LinearOperator::residual_into(&a, &b, &x, &mut r_ref);
        let mut r = vec![f64::NAN; n];
        op.residual_into(&b, &x, &mut r);
        assert!(r
            .iter()
            .zip(&r_ref)
            .all(|(g, w)| g.to_bits() == w.to_bits()));

        // Backward-Euler prologue vs the CSR reference.
        let c: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let base: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let (mut rhs1, mut r1) = (vec![0.0; n], vec![0.0; n]);
        let (mut rhs2, mut r2) = (vec![0.0; n], vec![0.0; n]);
        a.be_prologue(&c, &base, &x, &mut rhs1, &mut r1);
        op.be_prologue(&c, &base, &x, &mut rhs2, &mut r2);
        assert!(rhs1
            .iter()
            .zip(&rhs2)
            .all(|(g, w)| g.to_bits() == w.to_bits()));
        assert!(r1.iter().zip(&r2).all(|(g, w)| g.to_bits() == w.to_bits()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Parity gate: on random structured grids, every stencil kernel
        /// is bit-identical to the CSR operator.
        #[test]
        fn stencil_kernels_match_csr_bitwise(
            seed in 0u64..200,
            rows in 3usize..14,
            cols in 8usize..20,
            far in 0u8..2,
        ) {
            let a = grid_matrix(rows, cols, seed, far == 1);
            let n = a.order();
            let Some(p) = StencilPattern::for_matrix(&a) else {
                // Tiny grids can fall below the profitability guard.
                return Ok(());
            };
            let op = StencilOp::new(&p, a.values());
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            let x: Vec<f64> = (0..n).map(|_| rng.random_range(-3.0..3.0)).collect();
            let b: Vec<f64> = (0..n).map(|_| rng.random_range(-3.0..3.0)).collect();

            let mut y_ref = vec![0.0; n];
            a.matvec_into(&x, &mut y_ref);
            let mut y = vec![f64::NAN; n];
            op.matvec_into(&x, &mut y);
            for (g, w) in y.iter().zip(&y_ref) {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }

            let mut r_ref = vec![0.0; n];
            LinearOperator::residual_into(&a, &b, &x, &mut r_ref);
            let mut r = vec![f64::NAN; n];
            op.residual_into(&b, &x, &mut r);
            for (g, w) in r.iter().zip(&r_ref) {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }
}
