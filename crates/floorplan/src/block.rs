//! Functional blocks placed on a floorplan.

use crate::Rect;

/// The functional role of a block, which determines its power model and
/// (for the crossbar) whether it hosts TSVs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum BlockKind {
    /// A processor core (UltraSPARC T1 SPARC pipe; 3 W active).
    Core,
    /// An L2 cache bank (1.28 W each in the paper).
    L2Cache,
    /// The crossbar connecting cores and caches; hosts the TSV field.
    Crossbar,
    /// Uncore logic (system interface, memory controllers, FPU).
    Uncore,
    /// Buffering / miscellaneous logic on the cache layers.
    Buffer,
}

impl BlockKind {
    /// Short lowercase label used in reports and renderings.
    pub(crate) fn label(self) -> &'static str {
        match self {
            BlockKind::Core => "core",
            BlockKind::L2Cache => "l2",
            BlockKind::Crossbar => "xbar",
            BlockKind::Uncore => "uncore",
            BlockKind::Buffer => "buf",
        }
    }
}

impl core::fmt::Display for BlockKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A named, placed functional block.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Block {
    name: String,
    kind: BlockKind,
    rect: Rect,
}

impl Block {
    /// Creates a block.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    pub fn new(name: impl Into<String>, kind: BlockKind, rect: Rect) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "block name must not be empty");
        Self { name, kind, rect }
    }

    /// The block's unique name within its floorplan.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The block's functional kind.
    pub fn kind(&self) -> BlockKind {
        self.kind
    }

    /// The placed rectangle.
    pub fn rect(&self) -> &Rect {
        &self.rect
    }

    /// Whether this block is a processor core.
    pub fn is_core(&self) -> bool {
        self.kind == BlockKind::Core
    }
}

impl core::fmt::Display for Block {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} [{}] {:.2}x{:.2} mm @ ({:.2}, {:.2})",
            self.name,
            self.kind,
            self.rect.width().to_millimeters(),
            self.rect.height().to_millimeters(),
            self.rect.x().to_millimeters(),
            self.rect.y().to_millimeters(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_accessors() {
        let b = Block::new("core0", BlockKind::Core, Rect::from_mm(0.0, 0.0, 4.0, 2.5));
        assert_eq!(b.name(), "core0");
        assert!(b.is_core());
        assert!((b.rect().area().to_mm2() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn display_formats() {
        let b = Block::new(
            "xbar",
            BlockKind::Crossbar,
            Rect::from_mm(5.0, 0.0, 1.5, 10.0),
        );
        let s = b.to_string();
        assert!(s.contains("xbar"));
        assert!(s.contains("1.50x10.00"));
    }

    #[test]
    #[should_panic(expected = "name must not be empty")]
    fn empty_name_rejected() {
        let _ = Block::new("", BlockKind::Buffer, Rect::from_mm(0.0, 0.0, 1.0, 1.0));
    }
}
