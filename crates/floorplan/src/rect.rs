//! Axis-aligned rectangles in chip coordinates.

use vfc_units::{Area, Length};

/// An axis-aligned rectangle. `x` grows along the channel (flow) direction,
/// `y` across it; the origin is the lower-left corner of the die.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Rect {
    x: f64,
    y: f64,
    w: f64,
    h: f64,
}

impl Rect {
    /// Creates a rectangle from its lower-left corner and size.
    ///
    /// # Panics
    ///
    /// Panics if the width or height is not strictly positive.
    pub(crate) fn new(x: Length, y: Length, w: Length, h: Length) -> Self {
        assert!(
            w.value() > 0.0 && h.value() > 0.0,
            "rectangle must have positive size"
        );
        Self {
            x: x.value(),
            y: y.value(),
            w: w.value(),
            h: h.value(),
        }
    }

    /// Convenience constructor in millimeters.
    ///
    /// # Panics
    ///
    /// Panics if the width or height is not strictly positive.
    pub fn from_mm(x: f64, y: f64, w: f64, h: f64) -> Self {
        Self::new(
            Length::from_millimeters(x),
            Length::from_millimeters(y),
            Length::from_millimeters(w),
            Length::from_millimeters(h),
        )
    }

    /// Lower-left x coordinate.
    pub(crate) fn x(&self) -> Length {
        Length::new(self.x)
    }

    /// Lower-left y coordinate.
    pub(crate) fn y(&self) -> Length {
        Length::new(self.y)
    }

    /// Width (x extent).
    pub(crate) fn width(&self) -> Length {
        Length::new(self.w)
    }

    /// Height (y extent).
    pub(crate) fn height(&self) -> Length {
        Length::new(self.h)
    }

    /// Area of the rectangle.
    pub fn area(&self) -> Area {
        Area::new(self.w * self.h)
    }

    /// Whether the point `(px, py)` lies inside (lower/left edges
    /// inclusive, upper/right exclusive).
    pub(crate) fn contains(&self, px: Length, py: Length) -> bool {
        let (px, py) = (px.value(), py.value());
        px >= self.x && px < self.x + self.w && py >= self.y && py < self.y + self.h
    }

    /// Area of overlap with another rectangle (zero if disjoint).
    pub(crate) fn intersection_area(&self, other: &Rect) -> Area {
        let ox = (self.x + self.w).min(other.x + other.w) - self.x.max(other.x);
        let oy = (self.y + self.h).min(other.y + other.h) - self.y.max(other.y);
        if ox > 0.0 && oy > 0.0 {
            Area::new(ox * oy)
        } else {
            Area::ZERO
        }
    }

    /// Whether this rectangle lies entirely within `outer`.
    pub(crate) fn within(&self, outer: &Rect) -> bool {
        const EPS: f64 = 1e-12;
        self.x >= outer.x - EPS
            && self.y >= outer.y - EPS
            && self.x + self.w <= outer.x + outer.w + EPS
            && self.y + self.h <= outer.y + outer.h + EPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_accessors() {
        let r = Rect::from_mm(1.0, 2.0, 3.0, 4.0);
        assert!((r.area().to_mm2() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn containment_edges() {
        let r = Rect::from_mm(0.0, 0.0, 1.0, 1.0);
        assert!(r.contains(Length::ZERO, Length::ZERO));
        assert!(!r.contains(Length::from_millimeters(1.0), Length::ZERO));
        assert!(r.contains(
            Length::from_millimeters(0.999),
            Length::from_millimeters(0.5)
        ));
    }

    #[test]
    fn intersection_cases() {
        let a = Rect::from_mm(0.0, 0.0, 2.0, 2.0);
        let b = Rect::from_mm(1.0, 1.0, 2.0, 2.0);
        let c = Rect::from_mm(5.0, 5.0, 1.0, 1.0);
        assert!((a.intersection_area(&b).to_mm2() - 1.0).abs() < 1e-9);
        assert_eq!(a.intersection_area(&c), Area::ZERO);
        // Touching edges do not overlap.
        let d = Rect::from_mm(2.0, 0.0, 1.0, 2.0);
        assert_eq!(a.intersection_area(&d), Area::ZERO);
    }

    #[test]
    fn within_outer() {
        let outer = Rect::from_mm(0.0, 0.0, 11.5, 10.0);
        assert!(Rect::from_mm(7.5, 7.5, 4.0, 2.5).within(&outer));
        assert!(!Rect::from_mm(8.0, 8.0, 4.0, 2.5).within(&outer));
    }

    #[test]
    #[should_panic(expected = "positive size")]
    fn zero_size_rejected() {
        let _ = Rect::from_mm(0.0, 0.0, 0.0, 1.0);
    }

    proptest! {
        #[test]
        fn intersection_is_commutative_and_bounded(
            ax in 0.0f64..10.0, ay in 0.0f64..10.0, aw in 0.1f64..5.0, ah in 0.1f64..5.0,
            bx in 0.0f64..10.0, by in 0.0f64..10.0, bw in 0.1f64..5.0, bh in 0.1f64..5.0,
        ) {
            let a = Rect::from_mm(ax, ay, aw, ah);
            let b = Rect::from_mm(bx, by, bw, bh);
            let i1 = a.intersection_area(&b).value();
            let i2 = b.intersection_area(&a).value();
            prop_assert!((i1 - i2).abs() < 1e-15);
            prop_assert!(i1 <= a.area().value().min(b.area().value()) + 1e-15);
        }
    }
}
