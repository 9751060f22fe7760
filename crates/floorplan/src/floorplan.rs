//! A validated 2-D floorplan: a die outline tiled by functional blocks.

use crate::{Block, BlockKind, FloorplanError, Rect};
use vfc_units::{Area, Length};

/// A die outline together with the non-overlapping blocks that tile it.
///
/// Construct with [`Floorplan::new`], which validates bounds, overlaps,
/// duplicate names and full coverage (the thermal grid mapper assumes every
/// cell belongs to exactly one block).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Floorplan {
    width: f64,
    height: f64,
    blocks: Vec<Block>,
}

impl Floorplan {
    /// Relative tolerance used by the coverage check.
    const COVERAGE_TOLERANCE: f64 = 1e-6;

    /// Creates and validates a floorplan.
    ///
    /// # Errors
    ///
    /// Returns a [`FloorplanError`] if any block is out of bounds, two
    /// blocks overlap or share a name, or the blocks do not tile the die.
    pub fn new(width: Length, height: Length, blocks: Vec<Block>) -> Result<Self, FloorplanError> {
        let outline = Rect::new(Length::ZERO, Length::ZERO, width, height);
        for b in &blocks {
            if !b.rect().within(&outline) {
                return Err(FloorplanError::BlockOutOfBounds {
                    block: b.name().to_string(),
                });
            }
        }
        for (i, a) in blocks.iter().enumerate() {
            for b in blocks.iter().skip(i + 1) {
                if a.name() == b.name() {
                    return Err(FloorplanError::DuplicateName {
                        name: a.name().to_string(),
                    });
                }
                let overlap = a.rect().intersection_area(b.rect());
                if overlap.to_mm2() > 1e-9 {
                    return Err(FloorplanError::BlocksOverlap {
                        first: a.name().to_string(),
                        second: b.name().to_string(),
                        area_mm2: overlap.to_mm2(),
                    });
                }
            }
        }
        let covered: f64 = blocks.iter().map(|b| b.rect().area().value()).sum();
        let die = width.value() * height.value();
        if (covered - die).abs() > Self::COVERAGE_TOLERANCE * die {
            return Err(FloorplanError::CoverageMismatch {
                covered_mm2: covered * 1e6,
                die_mm2: die * 1e6,
            });
        }
        Ok(Self {
            width: width.value(),
            height: height.value(),
            blocks,
        })
    }

    /// Die width (x extent, along the coolant flow direction).
    pub(crate) fn width(&self) -> Length {
        Length::new(self.width)
    }

    /// Die height (y extent, across the channels).
    pub(crate) fn height(&self) -> Length {
        Length::new(self.height)
    }

    /// Total die area.
    pub fn area(&self) -> Area {
        Area::new(self.width * self.height)
    }

    /// All blocks, in insertion order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The block covering the given point, if any.
    pub(crate) fn block_at(&self, x: Length, y: Length) -> Option<&Block> {
        self.blocks.iter().find(|b| b.rect().contains(x, y))
    }

    /// Index of the block covering the given point, if any.
    pub(crate) fn block_index_at(&self, x: Length, y: Length) -> Option<usize> {
        self.blocks.iter().position(|b| b.rect().contains(x, y))
    }

    /// Looks up a block by name.
    pub fn block_named(&self, name: &str) -> Option<&Block> {
        self.blocks.iter().find(|b| b.name() == name)
    }

    /// Iterator over blocks of one kind.
    pub fn blocks_of_kind(&self, kind: BlockKind) -> impl Iterator<Item = &Block> {
        self.blocks.iter().filter(move |b| b.kind() == kind)
    }

    /// Number of processor cores on this floorplan.
    pub fn core_count(&self) -> usize {
        self.blocks_of_kind(BlockKind::Core).count()
    }

    /// Renders a coarse ASCII map of the floorplan (used by the Fig. 1
    /// regeneration binary).
    pub fn render_ascii(&self, cols: usize, rows: usize) -> String {
        let mut out = String::with_capacity((cols + 1) * rows);
        for r in (0..rows).rev() {
            for c in 0..cols {
                let x = Length::new((c as f64 + 0.5) / cols as f64 * self.width);
                let y = Length::new((r as f64 + 0.5) / rows as f64 * self.height);
                let ch = match self.block_at(x, y).map(Block::kind) {
                    Some(BlockKind::Core) => 'C',
                    Some(BlockKind::L2Cache) => 'L',
                    Some(BlockKind::Crossbar) => 'X',
                    Some(BlockKind::Uncore) => 'u',
                    Some(BlockKind::Buffer) => 'b',
                    None => '.',
                };
                out.push(ch);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(name: &str, kind: BlockKind, x: f64, y: f64, w: f64, h: f64) -> Block {
        Block::new(name, kind, Rect::from_mm(x, y, w, h))
    }

    fn simple_plan() -> Floorplan {
        Floorplan::new(
            Length::from_millimeters(2.0),
            Length::from_millimeters(1.0),
            vec![
                block("a", BlockKind::Core, 0.0, 0.0, 1.0, 1.0),
                block("b", BlockKind::L2Cache, 1.0, 0.0, 1.0, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn valid_plan_accessors() {
        let fp = simple_plan();
        assert_eq!(fp.core_count(), 1);
        assert!((fp.area().to_mm2() - 2.0).abs() < 1e-9);
        assert_eq!(
            fp.block_at(Length::from_millimeters(1.5), Length::from_millimeters(0.5))
                .unwrap()
                .name(),
            "b"
        );
        assert!(fp.block_named("a").is_some());
        assert!(fp.block_named("zz").is_none());
    }

    #[test]
    fn out_of_bounds_rejected() {
        let err = Floorplan::new(
            Length::from_millimeters(1.0),
            Length::from_millimeters(1.0),
            vec![block("a", BlockKind::Core, 0.5, 0.0, 1.0, 1.0)],
        )
        .unwrap_err();
        assert!(matches!(err, FloorplanError::BlockOutOfBounds { .. }));
    }

    #[test]
    fn overlap_rejected() {
        let err = Floorplan::new(
            Length::from_millimeters(2.0),
            Length::from_millimeters(1.0),
            vec![
                block("a", BlockKind::Core, 0.0, 0.0, 1.5, 1.0),
                block("b", BlockKind::Core, 1.0, 0.0, 1.0, 1.0),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, FloorplanError::BlocksOverlap { .. }));
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Floorplan::new(
            Length::from_millimeters(2.0),
            Length::from_millimeters(1.0),
            vec![
                block("a", BlockKind::Core, 0.0, 0.0, 1.0, 1.0),
                block("a", BlockKind::Core, 1.0, 0.0, 1.0, 1.0),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, FloorplanError::DuplicateName { .. }));
    }

    #[test]
    fn coverage_gap_rejected() {
        let err = Floorplan::new(
            Length::from_millimeters(2.0),
            Length::from_millimeters(1.0),
            vec![block("a", BlockKind::Core, 0.0, 0.0, 1.0, 1.0)],
        )
        .unwrap_err();
        assert!(matches!(err, FloorplanError::CoverageMismatch { .. }));
    }

    #[test]
    fn ascii_rendering_contains_kinds() {
        let fp = simple_plan();
        let art = fp.render_ascii(8, 2);
        assert!(art.contains('C'));
        assert!(art.contains('L'));
        assert_eq!(art.lines().count(), 2);
    }
}
