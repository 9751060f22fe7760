//! The uniform thermal grid and its mapping onto floorplan blocks.
//!
//! The paper uses 100 µm × 100 µm grid cells; simulations in this workspace
//! default to coarser cells (0.5–1 mm) for speed, with the fine grid
//! available for validation runs. See DESIGN.md §4.

use crate::Floorplan;
use vfc_units::{Area, Length};

/// Index of one grid cell as `(row, col)`; rows advance along y (across
/// channels), columns along x (the coolant flow direction).
pub type CellIndex = (usize, usize);

/// A uniform rectangular discretization of a die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GridSpec {
    rows: usize,
    cols: usize,
    /// Die dimensions backing the grid (meters), kept so cell geometry is
    /// self-contained.
    width: u64,
    height: u64,
}

impl GridSpec {
    /// Creates a grid with explicit row/column counts over a die.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub(crate) fn new(floorplan: &Floorplan, rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid must have positive dimensions");
        Self {
            rows,
            cols,
            width: floorplan.width().value().to_bits(),
            height: floorplan.height().value().to_bits(),
        }
    }

    /// Creates a grid whose cells are approximately `cell` on each side
    /// (rounded so an integral number of cells tiles the die).
    pub fn from_cell_size(floorplan: &Floorplan, cell: Length) -> Self {
        let cols = (floorplan.width().value() / cell.value()).round().max(1.0) as usize;
        let rows = (floorplan.height().value() / cell.value()).round().max(1.0) as usize;
        Self::new(floorplan, rows, cols)
    }

    /// Number of rows (y direction).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (x direction, along the flow).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of cells per layer.
    pub fn cell_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Die width backing this grid.
    pub(crate) fn die_width(&self) -> Length {
        Length::new(f64::from_bits(self.width))
    }

    /// Die height backing this grid.
    pub(crate) fn die_height(&self) -> Length {
        Length::new(f64::from_bits(self.height))
    }

    /// Cell extent along x.
    pub fn cell_width(&self) -> Length {
        Length::new(self.die_width().value() / self.cols as f64)
    }

    /// Cell extent along y.
    pub fn cell_height(&self) -> Length {
        Length::new(self.die_height().value() / self.rows as f64)
    }

    /// Cell footprint area.
    pub fn cell_area(&self) -> Area {
        self.cell_width() * self.cell_height()
    }

    /// Center coordinates of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub(crate) fn cell_center(&self, (row, col): CellIndex) -> (Length, Length) {
        assert!(
            row < self.rows && col < self.cols,
            "cell index out of range"
        );
        (
            Length::new((col as f64 + 0.5) * self.cell_width().value()),
            Length::new((row as f64 + 0.5) * self.cell_height().value()),
        )
    }

    /// Iterator over all cell indices in row-major order.
    pub(crate) fn cells(&self) -> impl Iterator<Item = CellIndex> + '_ {
        (0..self.rows).flat_map(move |r| (0..self.cols).map(move |c| (r, c)))
    }

    /// Maps every cell to the index of the block covering its center.
    ///
    /// Returns `None` entries only if the floorplan does not cover the die
    /// (which [`Floorplan::new`] prevents), so callers may safely unwrap.
    pub fn cell_block_map(&self, floorplan: &Floorplan) -> Vec<Option<usize>> {
        self.cells()
            .map(|idx| {
                let (x, y) = self.cell_center(idx);
                floorplan.block_index_at(x, y)
            })
            .collect()
    }

    /// The cells whose centers fall inside the given block (by index).
    #[cfg(test)]
    pub(crate) fn block_cells(&self, floorplan: &Floorplan, block_index: usize) -> Vec<CellIndex> {
        let block = &floorplan.blocks()[block_index];
        self.cells()
            .filter(|&idx| {
                let (x, y) = self.cell_center(idx);
                block.rect().contains(x, y)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Block, BlockKind, Rect};
    use proptest::prelude::*;

    fn plan() -> Floorplan {
        Floorplan::new(
            Length::from_millimeters(4.0),
            Length::from_millimeters(2.0),
            vec![
                Block::new("left", BlockKind::Core, Rect::from_mm(0.0, 0.0, 2.0, 2.0)),
                Block::new(
                    "right",
                    BlockKind::L2Cache,
                    Rect::from_mm(2.0, 0.0, 2.0, 2.0),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_cell_size_rounds() {
        let fp = plan();
        let g = GridSpec::from_cell_size(&fp, Length::from_millimeters(0.5));
        assert_eq!((g.rows(), g.cols()), (4, 8));
        assert!((g.cell_area().to_mm2() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn cell_centers_and_flat_index() {
        let fp = plan();
        let g = GridSpec::new(&fp, 2, 4);
        let (x, y) = g.cell_center((0, 0));
        assert!((x.to_millimeters() - 0.5).abs() < 1e-9);
        assert!((y.to_millimeters() - 0.5).abs() < 1e-9);
        assert_eq!(g.cells().position(|c| c == (1, 3)), Some(7), "row-major");
        assert_eq!(g.cells().count(), 8);
    }

    #[test]
    fn block_mapping_is_total_and_consistent() {
        let fp = plan();
        let g = GridSpec::new(&fp, 4, 8);
        let map = g.cell_block_map(&fp);
        assert!(map.iter().all(|m| m.is_some()));
        // Left half maps to block 0, right half to block 1.
        for (i, m) in map.iter().enumerate() {
            let col = i % 8;
            let want = if col < 4 { 0 } else { 1 };
            assert_eq!(m.unwrap(), want, "cell {i}");
        }
        let left_cells = g.block_cells(&fp, 0);
        assert_eq!(left_cells.len(), 16);
    }

    proptest! {
        #[test]
        fn block_cells_partition_the_grid(rows in 1usize..12, cols in 1usize..12) {
            let fp = plan();
            let g = GridSpec::new(&fp, rows, cols);
            let total: usize = (0..fp.blocks().len())
                .map(|b| g.block_cells(&fp, b).len())
                .sum();
            prop_assert_eq!(total, g.cell_count());
        }
    }
}
