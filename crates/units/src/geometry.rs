//! Geometric quantities: length and area in SI base units.

use crate::{linear_ops, quantity};

quantity!(
    /// Length in meters. Chip geometry is naturally expressed in mm/µm;
    /// use [`Length::from_millimeters`] / [`Length::from_micrometers`].
    Length,
    "m"
);
linear_ops!(Length);

quantity!(
    /// Area in square meters.
    Area,
    "m²"
);
linear_ops!(Area);

impl Length {
    /// Creates a length from millimeters.
    #[inline]
    pub fn from_millimeters(mm: f64) -> Self {
        Self::new(mm * 1e-3)
    }

    /// Creates a length from micrometers.
    #[inline]
    pub fn from_micrometers(um: f64) -> Self {
        Self::new(um * 1e-6)
    }

    /// Converts to millimeters.
    #[inline]
    pub fn to_millimeters(self) -> f64 {
        self.value() * 1e3
    }

    /// Converts to micrometers.
    #[inline]
    pub fn to_micrometers(self) -> f64 {
        self.value() * 1e6
    }
}

impl Area {
    /// Converts to square millimeters.
    #[inline]
    pub fn to_mm2(self) -> f64 {
        self.value() * 1e6
    }
}

impl core::ops::Mul for Length {
    type Output = Area;
    #[inline]
    fn mul(self, rhs: Length) -> Area {
        Area::new(self.value() * rhs.value())
    }
}

impl core::ops::Div<Length> for Area {
    type Output = Length;
    #[inline]
    fn div(self, rhs: Length) -> Length {
        Length::new(self.value() / rhs.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn length_conversions() {
        assert!((Length::from_millimeters(11.5).value() - 0.0115).abs() < 1e-15);
        assert!((Length::from_micrometers(100.0).value() - 1e-4).abs() < 1e-15);
        assert!((Length::from_micrometers(50.0).to_micrometers() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn chip_area_matches_table_iii() {
        // Table III: total area of each layer is 115 mm² (11.5 mm x 10 mm die).
        let area = Length::from_millimeters(11.5) * Length::from_millimeters(10.0);
        assert!((area.to_mm2() - 115.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn area_div_roundtrip(w in 1e-6f64..1.0, h in 1e-6f64..1.0) {
            let a = Length::new(w) * Length::new(h);
            prop_assert!(((a / Length::new(h)).value() - w).abs() < 1e-12 * w.max(1.0));
        }
    }
}
