//! Vertical structure of a 3D stack: tiers and the interfaces between them.

use crate::{Floorplan, FloorplanError};
use vfc_units::Length;

/// One active tier: a silicon die with its wiring (BEOL) stack.
///
/// Orientation follows the paper's Fig. 2: each tier is mounted face-down,
/// i.e. its BEOL (and the junction heat sources) face the interface *below*
/// the die, while the silicon bulk conducts toward the interface above.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TierSpec {
    floorplan: Floorplan,
    si_thickness: f64,
    beol_thickness: f64,
}

impl TierSpec {
    /// Creates a tier from a floorplan and layer thicknesses.
    ///
    /// # Panics
    ///
    /// Panics if either thickness is not strictly positive.
    pub fn new(floorplan: Floorplan, si_thickness: Length, beol_thickness: Length) -> Self {
        assert!(
            si_thickness.value() > 0.0 && beol_thickness.value() > 0.0,
            "tier thicknesses must be positive"
        );
        Self {
            floorplan,
            si_thickness: si_thickness.value(),
            beol_thickness: beol_thickness.value(),
        }
    }

    /// The tier's floorplan.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// Thickness of the silicon bulk (Table III: 0.15 mm per stack).
    pub fn si_thickness(&self) -> Length {
        Length::new(self.si_thickness)
    }

    /// Thickness of the wiring levels (Table I: tB = 12 µm).
    pub fn beol_thickness(&self) -> Length {
        Length::new(self.beol_thickness)
    }
}

/// What sits between two adjacent tiers (or between an outer tier and the
/// environment).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Interface {
    /// No heat path (e.g. the board side of an air-cooled stack).
    Adiabatic,
    /// A bonded interface of the given thickness (Table III: 0.02 mm,
    /// resistivity 0.25 mK/W; TSVs locally improve it).
    Bond {
        /// Bond layer thickness.
        thickness: Length,
    },
    /// A microchannel cavity of the given total height (Table III: 0.4 mm
    /// including channel walls).
    MicrochannelCavity {
        /// Cavity height.
        height: Length,
    },
    /// The attach point of the air-cooled package (TIM + spreader + sink).
    HeatSink,
}

impl Interface {
    /// Whether this interface is a coolant cavity.
    pub fn is_cavity(&self) -> bool {
        matches!(self, Interface::MicrochannelCavity { .. })
    }
}

/// A field of through-silicon vias confined to one block (the crossbar in
/// the paper), modelled at block-level granularity per the paper's Ref. 6.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TsvField {
    /// Name of the block hosting the TSVs (must exist on every tier).
    pub block_name: String,
    /// Number of TSVs between each pair of adjacent tiers (paper: 128).
    pub count: usize,
    /// Side length of one square TSV (paper: 50 µm).
    pub side: Length,
    /// Minimum pitch between TSVs (paper: 100 µm).
    pub pitch: Length,
}

impl TsvField {
    /// The paper's crossbar TSV field: 128 TSVs of 50 µm × 50 µm at
    /// 100 µm minimum pitch.
    pub(crate) fn ultrasparc_crossbar() -> Self {
        Self {
            block_name: "xbar".to_string(),
            count: 128,
            side: Length::from_micrometers(50.0),
            pitch: Length::from_micrometers(100.0),
        }
    }

    /// Total copper cross-section of the field.
    pub fn total_area(&self) -> vfc_units::Area {
        self.side * self.side * self.count as f64
    }
}

/// A full 3D stack: `n` tiers and `n + 1` interfaces, listed bottom-up
/// (interface `i` sits below tier `i`; the last interface is above the top
/// tier).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Stack3d {
    tiers: Vec<TierSpec>,
    interfaces: Vec<Interface>,
    tsv: Option<TsvField>,
}

impl Stack3d {
    /// Creates a stack after validating tier/interface consistency.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::MalformedStack`] if the interface count is
    /// not `tiers + 1` or the stack is empty, and
    /// [`FloorplanError::MismatchedDies`] if tier outlines differ.
    pub(crate) fn new(
        tiers: Vec<TierSpec>,
        interfaces: Vec<Interface>,
        tsv: Option<TsvField>,
    ) -> Result<Self, FloorplanError> {
        if tiers.is_empty() {
            return Err(FloorplanError::MalformedStack {
                context: "a stack needs at least one tier".to_string(),
            });
        }
        if interfaces.len() != tiers.len() + 1 {
            return Err(FloorplanError::MalformedStack {
                context: format!(
                    "{} tiers require {} interfaces, got {}",
                    tiers.len(),
                    tiers.len() + 1,
                    interfaces.len()
                ),
            });
        }
        let w0 = tiers[0].floorplan().width();
        let h0 = tiers[0].floorplan().height();
        for (i, t) in tiers.iter().enumerate().skip(1) {
            if t.floorplan().width() != w0 || t.floorplan().height() != h0 {
                return Err(FloorplanError::MismatchedDies { tier: i });
            }
        }
        Ok(Self {
            tiers,
            interfaces,
            tsv,
        })
    }

    /// The stack's tiers, bottom-up.
    pub fn tiers(&self) -> &[TierSpec] {
        &self.tiers
    }

    /// The stack's interfaces, bottom-up (`tiers + 1` of them).
    pub fn interfaces(&self) -> &[Interface] {
        &self.interfaces
    }

    /// The TSV field shared by all tier pairs, if any.
    pub fn tsv(&self) -> Option<&TsvField> {
        self.tsv.as_ref()
    }

    /// Number of microchannel cavities in the stack.
    pub fn cavity_count(&self) -> usize {
        self.interfaces.iter().filter(|i| i.is_cavity()).count()
    }

    /// Whether this is a liquid-cooled stack (has at least one cavity).
    pub fn is_liquid_cooled(&self) -> bool {
        self.cavity_count() > 0
    }

    /// Total number of processor cores across all tiers.
    pub fn core_count(&self) -> usize {
        self.tiers.iter().map(|t| t.floorplan().core_count()).sum()
    }
}

/// Builder assembling a [`Stack3d`] tier by tier.
///
/// # Example
///
/// ```
/// use vfc_floorplan::{StackBuilder, Interface, ultrasparc};
/// use vfc_units::Length;
///
/// let stack = StackBuilder::new()
///     .interface(Interface::MicrochannelCavity { height: Length::from_millimeters(0.4) })
///     .tier(ultrasparc::core_tier())
///     .interface(Interface::MicrochannelCavity { height: Length::from_millimeters(0.4) })
///     .tier(ultrasparc::cache_tier())
///     .interface(Interface::MicrochannelCavity { height: Length::from_millimeters(0.4) })
///     .build()
///     .unwrap();
/// assert_eq!(stack.cavity_count(), 3);
/// ```
#[derive(Debug, Default)]
pub struct StackBuilder {
    tiers: Vec<TierSpec>,
    interfaces: Vec<Interface>,
    tsv: Option<TsvField>,
}

impl StackBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a tier (above everything added so far).
    pub fn tier(mut self, tier: TierSpec) -> Self {
        self.tiers.push(tier);
        self
    }

    /// Appends an interface (below the next tier, or topmost if final).
    pub fn interface(mut self, interface: Interface) -> Self {
        self.interfaces.push(interface);
        self
    }

    /// Sets the TSV field.
    pub(crate) fn tsv_field(mut self, tsv: TsvField) -> Self {
        self.tsv = Some(tsv);
        self
    }

    /// Validates and builds the stack.
    ///
    /// # Errors
    ///
    /// Same conditions as `Stack3d::new`.
    pub fn build(self) -> Result<Stack3d, FloorplanError> {
        Stack3d::new(self.tiers, self.interfaces, self.tsv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ultrasparc;

    #[test]
    fn tsv_field_area_is_small_fraction_of_crossbar() {
        let tsv = TsvField::ultrasparc_crossbar();
        // 128 * (50 µm)^2 = 0.32 mm², ~2% of the 15 mm² crossbar: the paper
        // neglects the TSV effect on heat capacity for this reason.
        assert!((tsv.total_area().to_mm2() - 0.32).abs() < 1e-9);
    }

    #[test]
    fn interface_count_is_validated() {
        let err = StackBuilder::new().tier(ultrasparc::core_tier()).build();
        assert!(matches!(err, Err(FloorplanError::MalformedStack { .. })));
    }

    #[test]
    fn empty_stack_rejected() {
        assert!(matches!(
            Stack3d::new(vec![], vec![Interface::Adiabatic], None),
            Err(FloorplanError::MalformedStack { .. })
        ));
    }

    #[test]
    fn cavity_counting() {
        let s = ultrasparc::four_layer_liquid();
        assert_eq!(s.tiers().len(), 4);
        assert_eq!(s.cavity_count(), 5);
        assert!(s.is_liquid_cooled());
        assert_eq!(s.core_count(), 16);
    }

    #[test]
    fn air_stack_has_no_cavities() {
        let s = ultrasparc::two_layer_air();
        assert_eq!(s.cavity_count(), 0);
        assert!(!s.is_liquid_cooled());
        assert!(matches!(s.interfaces().last(), Some(Interface::HeatSink)));
    }
}
