//! Compressed sparse row matrices assembled from triplets.

use std::sync::Arc;

/// Incremental triplet assembler for a square [`CsrMatrix`].
///
/// Duplicate `(row, col)` entries are summed at [`build`](CsrBuilder::build)
/// time, which matches how RC-network stamps accumulate conductances.
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    n: usize,
    triplets: Vec<(u32, u32, f64)>,
}

impl CsrBuilder {
    /// Creates a builder for an `n × n` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds `u32::MAX`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "matrix order must be positive");
        assert!(n <= u32::MAX as usize, "matrix order exceeds u32 range");
        Self {
            n,
            triplets: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)`; repeated stamps accumulate.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "triplet index out of range");
        if value != 0.0 {
            self.triplets.push((row as u32, col as u32, value));
        }
    }

    /// Reserves a structural entry at `(row, col)` without contributing a
    /// value: the position is kept in the sparsity pattern even if nothing
    /// else stamps it. Used by skeleton assembly to hold slots for
    /// flow-dependent conductances that are patched in later.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn reserve_entry(&mut self, row: usize, col: usize) {
        assert!(row < self.n && col < self.n, "triplet index out of range");
        self.triplets.push((row as u32, col as u32, 0.0));
    }

    /// Finalizes the builder into a [`CsrMatrix`], summing duplicates.
    pub fn build(mut self) -> CsrMatrix {
        self.triplets
            .sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);

        let mut row_ptr = Vec::with_capacity(self.n + 1);
        let mut col_idx: Vec<u32> = Vec::with_capacity(self.triplets.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.triplets.len());

        row_ptr.push(0u32);
        let mut current_row = 0u32;
        let mut last_entry: Option<(u32, u32)> = None;
        for &(r, c, v) in &self.triplets {
            while current_row < r {
                row_ptr.push(col_idx.len() as u32);
                current_row += 1;
            }
            if last_entry == Some((r, c)) {
                // Triplets are sorted, so duplicates are adjacent.
                *values.last_mut().expect("duplicate implies prior entry") += v;
                continue;
            }
            col_idx.push(c);
            values.push(v);
            last_entry = Some((r, c));
        }
        while (row_ptr.len() as usize) < self.n + 1 {
            row_ptr.push(col_idx.len() as u32);
        }

        CsrMatrix {
            n: self.n,
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            values: Arc::new(values),
        }
    }
}

/// A square sparse matrix in compressed-sparse-row format.
///
/// The index arrays (`row_ptr`, `col_idx`) are reference-counted, so
/// cloning a matrix **shares the sparsity structure** and copies only the
/// values — a family of same-pattern matrices (e.g. one thermal network
/// per pump setting) holds a single copy of the index arrays. Use
/// [`shares_structure`](Self::shares_structure) to assert the sharing.
///
/// The value array is reference-counted too, with **copy-on-write**
/// semantics: a clone shares the values until the first
/// [`values_mut`](Self::values_mut) call, so matrices that are never
/// patched (an air-cooled model and its skeleton base, for example)
/// keep a single copy of everything. Use
/// [`shares_values`](Self::shares_values) to assert the sharing.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Arc<[u32]>,
    col_idx: Arc<[u32]>,
    values: Arc<Vec<f64>>,
}

impl CsrMatrix {
    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Number of stored entries (structural slots count even when their
    /// current value is zero).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The CSR row-pointer array (`n + 1` entries).
    pub(crate) fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// The CSR column-index array, row-major, sorted within each row.
    pub(crate) fn col_indices(&self) -> &[u32] {
        &self.col_idx
    }

    /// The stored values, parallel to `col_indices`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the stored values; the sparsity pattern is
    /// immutable, so callers can only overwrite entries in place (how
    /// flow patches update cavity conductances without reassembly).
    /// Copy-on-write: if the values are currently shared with another
    /// matrix, this call unshares them first.
    pub fn values_mut(&mut self) -> &mut [f64] {
        Arc::make_mut(&mut self.values).as_mut_slice()
    }

    /// Whether `self` and `other` share the same reference-counted index
    /// arrays (not merely equal ones).
    pub fn shares_structure(&self, other: &CsrMatrix) -> bool {
        Arc::ptr_eq(&self.row_ptr, &other.row_ptr) && Arc::ptr_eq(&self.col_idx, &other.col_idx)
    }

    /// Whether `self` and `other` currently share one reference-counted
    /// value array (copy-on-write: any [`values_mut`](Self::values_mut)
    /// call on either side unshares them).
    pub fn shares_values(&self, other: &CsrMatrix) -> bool {
        Arc::ptr_eq(&self.values, &other.values)
    }

    /// Re-points this matrix's value array at `src`'s (no copy): the
    /// cheap prologue of a flow re-patch, which then copy-on-writes only
    /// once while stamping the flow-dependent slots.
    ///
    /// # Panics
    ///
    /// Panics unless both matrices share the same index structure.
    pub fn share_values_from(&mut self, src: &CsrMatrix) {
        assert!(
            self.shares_structure(src),
            "share_values_from: structure mismatch"
        );
        self.values = Arc::clone(&src.values);
    }

    /// A matrix on `row_ptr`/`col_idx` (CSR, columns ascending and
    /// unique within each row) holding `values`.
    pub(crate) fn from_parts(row_ptr: Vec<u32>, col_idx: Vec<u32>, values: Vec<f64>) -> Self {
        debug_assert_eq!(row_ptr.last().map(|&p| p as usize), Some(col_idx.len()));
        debug_assert_eq!(col_idx.len(), values.len());
        Self {
            n: row_ptr.len() - 1,
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            values: Arc::new(values),
        }
    }

    /// A matrix sharing this one's index arrays, holding `values`.
    ///
    /// # Panics
    ///
    /// Panics unless `values` holds [`nnz`](Self::nnz) entries.
    pub(crate) fn with_values(&self, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), self.nnz(), "with_values: length");
        Self {
            n: self.n,
            row_ptr: Arc::clone(&self.row_ptr),
            col_idx: Arc::clone(&self.col_idx),
            values: Arc::new(values),
        }
    }

    /// Clones the reference-counted index arrays (no data copy); used by
    /// `KernelSchedules` to remember — and later verify — the pattern it
    /// was computed from.
    pub(crate) fn pattern_arcs(&self) -> (Arc<[u32]>, Arc<[u32]>) {
        (Arc::clone(&self.row_ptr), Arc::clone(&self.col_idx))
    }

    /// Index into [`values`](Self::values) of the entry at `(row, col)`,
    /// or `None` if the position is not in the pattern. Binary search
    /// within the row (columns are sorted).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn pattern_index(&self, row: usize, col: usize) -> Option<usize> {
        assert!(row < self.n && col < self.n, "index out of range");
        let start = self.row_ptr[row] as usize;
        let end = self.row_ptr[row + 1] as usize;
        self.col_idx[start..end]
            .binary_search(&(col as u32))
            .ok()
            .map(|k| start + k)
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` have the wrong length.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        crate::operator::csr_rows(self, x, crate::operator::RowMode::Mv { y });
    }

    /// Allocating variant of [`matvec_into`](Self::matvec_into).
    #[cfg(test)]
    pub(crate) fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.matvec_into(x, &mut y);
        y
    }

    /// The diagonal of the matrix (zeros where no entry is stored);
    /// used by Jacobi preconditioning.
    pub(crate) fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        for i in 0..self.n {
            let start = self.row_ptr[i] as usize;
            let end = self.row_ptr[i + 1] as usize;
            for k in start..end {
                if self.col_idx[k] as usize == i {
                    d[i] += self.values[k];
                }
            }
        }
        d
    }

    /// Returns the entry at `(row, col)` (zero if not stored).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.pattern_index(row, col).map_or(0.0, |k| self.values[k])
    }

    /// Iterates over the stored entries of one row as `(col, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(row < self.n, "row out of range");
        let start = self.row_ptr[row] as usize;
        let end = self.row_ptr[row + 1] as usize;
        self.col_idx[start..end]
            .iter()
            .zip(&self.values[start..end])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Converts to a dense matrix (test/diagnostic use).
    pub(crate) fn to_dense(&self) -> crate::DenseMatrix {
        let mut m = crate::DenseMatrix::zeros(self.n, self.n);
        for r in 0..self.n {
            for (c, v) in self.row(r) {
                m[(r, c)] += v;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn small() -> CsrMatrix {
        let mut b = CsrBuilder::new(3);
        b.add(0, 0, 2.0);
        b.add(0, 2, 1.0);
        b.add(1, 1, 3.0);
        b.add(2, 0, 4.0);
        b.add(2, 2, 5.0);
        b.build()
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = small();
        assert_eq!(m.matvec(&[1.0, 2.0, 3.0]), vec![5.0, 6.0, 19.0]);
        assert_eq!(m.nnz(), 5);
    }

    #[test]
    fn duplicates_accumulate() {
        let mut b = CsrBuilder::new(2);
        b.add(0, 0, 1.0);
        b.add(0, 0, 2.5);
        b.add(1, 0, -1.0);
        let m = b.build();
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.get(1, 0), -1.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut b = CsrBuilder::new(4);
        b.add(3, 3, 1.0);
        let m = b.build();
        assert_eq!(m.matvec(&[1.0; 4]), vec![0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn diagonal_extraction() {
        let m = small();
        assert_eq!(m.diagonal(), vec![2.0, 3.0, 5.0]);
    }

    #[test]
    fn same_column_across_rows_does_not_merge() {
        let mut b = CsrBuilder::new(2);
        b.add(0, 1, 2.0);
        b.add(1, 1, 3.0);
        let m = b.build();
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 1), 3.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn zero_entries_are_dropped() {
        let mut b = CsrBuilder::new(2);
        b.add(0, 1, 0.0);
        b.add(1, 1, 1.0);
        assert_eq!(b.build().nnz(), 1);
    }

    #[test]
    fn reserved_entries_stay_in_the_pattern() {
        let mut b = CsrBuilder::new(3);
        b.reserve_entry(0, 2);
        b.add(1, 1, 4.0);
        b.reserve_entry(1, 1); // overlaps a real stamp: no extra slot
        let m = b.build();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.pattern_index(0, 2), Some(0));
        assert_eq!(m.get(0, 2), 0.0);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.pattern_index(2, 2), None);
    }

    #[test]
    fn clones_share_structure_and_copy_values() {
        let a = small();
        let mut b = a.clone();
        assert!(a.shares_structure(&b));
        assert_eq!(a, b);
        b.values_mut()[0] = 99.0;
        assert_eq!(a.get(0, 0), 2.0, "values are independent");
        assert_eq!(b.get(0, 0), 99.0);
        assert!(a.shares_structure(&b), "patching keeps the shared pattern");

        // An independently built twin is equal but not structure-shared.
        let twin = small();
        assert_eq!(a, twin);
        assert!(!a.shares_structure(&twin));
    }

    #[test]
    fn pattern_index_matches_get() {
        let m = small();
        for r in 0..3 {
            for c in 0..3 {
                match m.pattern_index(r, c) {
                    Some(k) => assert_eq!(m.values()[k], m.get(r, c)),
                    None => assert_eq!(m.get(r, c), 0.0),
                }
            }
        }
        assert_eq!(m.row_ptr().len(), 4);
        assert_eq!(m.col_indices().len(), m.nnz());
        assert_eq!(m.values().len(), m.nnz());
    }

    #[test]
    fn row_iteration() {
        let m = small();
        let row0: Vec<_> = m.row(0).collect();
        assert_eq!(row0, vec![(0, 2.0), (2, 1.0)]);
        let row1: Vec<_> = m.row(1).collect();
        assert_eq!(row1, vec![(1, 3.0)]);
    }

    proptest! {
        #[test]
        fn csr_matvec_matches_dense(seed in 0u64..500, n in 1usize..20) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = CsrBuilder::new(n);
            let nnz = rng.random_range(0..n * 3 + 1);
            for _ in 0..nnz {
                b.add(
                    rng.random_range(0..n),
                    rng.random_range(0..n),
                    rng.random_range(-2.0..2.0),
                );
            }
            let m = b.build();
            let d = m.to_dense();
            let x: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
            let ys = m.matvec(&x);
            let yd = d.matvec(&x);
            for (a, b) in ys.iter().zip(&yd) {
                prop_assert!((a - b).abs() < 1e-10);
            }
        }
    }
}
