//! UltraSPARC-T1-based floorplans and 3D stacks (paper Fig. 1, Table III).
//!
//! Table III fixes the areas (core 10 mm², L2 19 mm², layer 115 mm²); the
//! concrete layout is ours (the paper only shows a schematic): an
//! 11.5 mm × 10 mm die with a central 1.5 mm crossbar column that hosts the
//! TSV field, cores in two 4-high stacks on the outer edges, and uncore
//! strips between them. Cache layers place four 19 mm² L2 banks (one per
//! core pair, as on the T1) plus buffer blocks around the same crossbar
//! column so TSVs line up vertically.
//!
//! Coolant channels run along x (the 11.5 mm dimension); 65 channels per
//! cavity span the 10 mm of y.

use crate::{
    Block, BlockKind, Floorplan, Interface, Rect, Stack3d, StackBuilder, TierSpec, TsvField,
};
use vfc_units::Length;

/// Die width along the flow direction (x): 11.5 mm.
pub const DIE_WIDTH_MM: f64 = 11.5;
/// Die height across the channels (y): 10 mm.
pub const DIE_HEIGHT_MM: f64 = 10.0;
/// Silicon thickness per tier (Table III "die thickness (one stack)").
pub const SI_THICKNESS_MM: f64 = 0.15;
/// BEOL (wiring) thickness (Table I: tB).
pub const BEOL_THICKNESS_UM: f64 = 12.0;
/// Microchannel cavity height (Table III "interlayer ... with channels").
pub const CAVITY_HEIGHT_MM: f64 = 0.4;
/// Bond-layer thickness for air-cooled stacks (Table III).
pub const BOND_THICKNESS_MM: f64 = 0.02;

fn die_width() -> Length {
    Length::from_millimeters(DIE_WIDTH_MM)
}

fn die_height() -> Length {
    Length::from_millimeters(DIE_HEIGHT_MM)
}

/// The 8-core processor layer: 8 × 10 mm² cores, 15 mm² crossbar,
/// two 10 mm² uncore strips — 115 mm² total (Table III).
pub fn core_floorplan() -> Floorplan {
    let mut blocks = Vec::new();
    // Left column of four cores: x in [0, 4] mm, 2.5 mm tall each.
    for i in 0..4 {
        blocks.push(Block::new(
            format!("core{i}"),
            BlockKind::Core,
            Rect::from_mm(0.0, 2.5 * i as f64, 4.0, 2.5),
        ));
    }
    blocks.push(Block::new(
        "siu0",
        BlockKind::Uncore,
        Rect::from_mm(4.0, 0.0, 1.0, 10.0),
    ));
    blocks.push(Block::new(
        "xbar",
        BlockKind::Crossbar,
        Rect::from_mm(5.0, 0.0, 1.5, 10.0),
    ));
    blocks.push(Block::new(
        "siu1",
        BlockKind::Uncore,
        Rect::from_mm(6.5, 0.0, 1.0, 10.0),
    ));
    // Right column of four cores: x in [7.5, 11.5] mm.
    for i in 0..4 {
        blocks.push(Block::new(
            format!("core{}", i + 4),
            BlockKind::Core,
            Rect::from_mm(7.5, 2.5 * i as f64, 4.0, 2.5),
        ));
    }
    Floorplan::new(die_width(), die_height(), blocks)
        .expect("UltraSPARC core floorplan is statically valid")
}

/// The cache layer: 4 × 19 mm² L2 banks (one per core pair), the aligned
/// crossbar column, and two 12 mm² buffer blocks — 115 mm² total.
pub fn cache_floorplan() -> Floorplan {
    let mut blocks = Vec::new();
    for i in 0..2 {
        blocks.push(Block::new(
            format!("l2_{i}"),
            BlockKind::L2Cache,
            Rect::from_mm(0.0, 3.8 * i as f64, 5.0, 3.8),
        ));
    }
    blocks.push(Block::new(
        "buf0",
        BlockKind::Buffer,
        Rect::from_mm(0.0, 7.6, 5.0, 2.4),
    ));
    blocks.push(Block::new(
        "xbar",
        BlockKind::Crossbar,
        Rect::from_mm(5.0, 0.0, 1.5, 10.0),
    ));
    for i in 0..2 {
        blocks.push(Block::new(
            format!("l2_{}", i + 2),
            BlockKind::L2Cache,
            Rect::from_mm(6.5, 3.8 * i as f64, 5.0, 3.8),
        ));
    }
    blocks.push(Block::new(
        "buf1",
        BlockKind::Buffer,
        Rect::from_mm(6.5, 7.6, 5.0, 2.4),
    ));
    Floorplan::new(die_width(), die_height(), blocks)
        .expect("UltraSPARC cache floorplan is statically valid")
}

/// A core tier with Table III/Table I thicknesses.
pub fn core_tier() -> TierSpec {
    TierSpec::new(
        core_floorplan(),
        Length::from_millimeters(SI_THICKNESS_MM),
        Length::from_micrometers(BEOL_THICKNESS_UM),
    )
}

/// A cache tier with Table III/Table I thicknesses.
pub fn cache_tier() -> TierSpec {
    TierSpec::new(
        cache_floorplan(),
        Length::from_millimeters(SI_THICKNESS_MM),
        Length::from_micrometers(BEOL_THICKNESS_UM),
    )
}

fn cavity() -> Interface {
    Interface::MicrochannelCavity {
        height: Length::from_millimeters(CAVITY_HEIGHT_MM),
    }
}

fn bond() -> Interface {
    Interface::Bond {
        thickness: Length::from_millimeters(BOND_THICKNESS_MM),
    }
}

/// The 2-layer liquid-cooled system: cores + cache layer with three
/// cavities (cooling layers on the outer faces too; 3 × 65 = 195 channels).
pub fn two_layer_liquid() -> Stack3d {
    StackBuilder::new()
        .interface(cavity())
        .tier(core_tier())
        .interface(cavity())
        .tier(cache_tier())
        .interface(cavity())
        .tsv_field(TsvField::ultrasparc_crossbar())
        .build()
        .expect("2-layer liquid stack is statically valid")
}

/// The 4-layer liquid-cooled system: core/cache/core/cache with five
/// cavities (5 × 65 = 325 channels), 16 cores total.
pub fn four_layer_liquid() -> Stack3d {
    StackBuilder::new()
        .interface(cavity())
        .tier(core_tier())
        .interface(cavity())
        .tier(cache_tier())
        .interface(cavity())
        .tier(core_tier())
        .interface(cavity())
        .tier(cache_tier())
        .interface(cavity())
        .tsv_field(TsvField::ultrasparc_crossbar())
        .build()
        .expect("4-layer liquid stack is statically valid")
}

/// The 2-layer air-cooled baseline: bonded tiers, heat sink above the
/// cache layer, adiabatic board side. Cores sit farthest from the sink,
/// reproducing the thermal asymmetry of conventional 3D stacks.
pub fn two_layer_air() -> Stack3d {
    StackBuilder::new()
        .interface(Interface::Adiabatic)
        .tier(core_tier())
        .interface(bond())
        .tier(cache_tier())
        .interface(Interface::HeatSink)
        .tsv_field(TsvField::ultrasparc_crossbar())
        .build()
        .expect("2-layer air stack is statically valid")
}

/// The 4-layer air-cooled baseline (core/cache/core/cache, sink on top).
pub fn four_layer_air() -> Stack3d {
    StackBuilder::new()
        .interface(Interface::Adiabatic)
        .tier(core_tier())
        .interface(bond())
        .tier(cache_tier())
        .interface(bond())
        .tier(core_tier())
        .interface(bond())
        .tier(cache_tier())
        .interface(Interface::HeatSink)
        .tsv_field(TsvField::ultrasparc_crossbar())
        .build()
        .expect("4-layer air stack is statically valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_areas_match_exactly() {
        let core = core_floorplan();
        assert!((core.area().to_mm2() - 115.0).abs() < 1e-9);
        for b in core.blocks_of_kind(BlockKind::Core) {
            assert!(
                (b.rect().area().to_mm2() - 10.0).abs() < 1e-9,
                "{}",
                b.name()
            );
        }
        assert_eq!(core.core_count(), 8);

        let cache = cache_floorplan();
        assert!((cache.area().to_mm2() - 115.0).abs() < 1e-9);
        for b in cache.blocks_of_kind(BlockKind::L2Cache) {
            assert!(
                (b.rect().area().to_mm2() - 19.0).abs() < 1e-9,
                "{}",
                b.name()
            );
        }
        assert_eq!(cache.blocks_of_kind(BlockKind::L2Cache).count(), 4);
    }

    #[test]
    fn crossbar_is_aligned_across_layers() {
        let core = core_floorplan();
        let cache = cache_floorplan();
        let a = core.block_named("xbar").unwrap().rect();
        let b = cache.block_named("xbar").unwrap().rect();
        assert_eq!(a, b);
        assert!((a.area().to_mm2() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn channel_counts_match_paper() {
        // 195 channels on the 2-layer system, 325 on the 4-layer (Sec. III):
        // 65 channels per cavity.
        assert_eq!(two_layer_liquid().cavity_count() * 65, 195);
        assert_eq!(four_layer_liquid().cavity_count() * 65, 325);
    }

    #[test]
    fn stacks_alternate_core_and_cache() {
        let s = four_layer_liquid();
        assert_eq!(s.tiers()[0].floorplan().core_count(), 8);
        assert_eq!(s.tiers()[1].floorplan().core_count(), 0);
        assert_eq!(s.tiers()[2].floorplan().core_count(), 8);
        assert_eq!(s.tiers()[3].floorplan().core_count(), 0);
    }

    #[test]
    fn ascii_render_shows_structure() {
        let art = core_floorplan().render_ascii(46, 20);
        assert!(art.contains('C'));
        assert!(art.contains('X'));
        assert!(art.contains('u'));
    }
}
