//! Power and energy quantities.

use crate::{linear_ops, quantity, Seconds};

quantity!(
    /// Power in watts.
    Watts,
    "W"
);
linear_ops!(Watts);

quantity!(
    /// Energy in joules.
    Energy,
    "J"
);
linear_ops!(Energy);

impl Watts {
    /// Energy dissipated over `dt`.
    #[inline]
    pub(crate) fn over(self, dt: Seconds) -> Energy {
        Energy::new(self.value() * dt.value())
    }
}

impl Energy {
    /// Average power when spread over `dt`.
    #[inline]
    pub(crate) fn average_over(self, dt: Seconds) -> Watts {
        Watts::new(self.value() / dt.value())
    }
}

impl core::ops::Mul<Seconds> for Watts {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Seconds) -> Energy {
        self.over(rhs)
    }
}

impl core::ops::Mul<Watts> for Seconds {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Watts) -> Energy {
        rhs.over(self)
    }
}

impl core::ops::Div<Seconds> for Energy {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        self.average_over(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts::new(18.0) * Seconds::new(60.0);
        assert_eq!(e, Energy::new(1080.0));
        assert_eq!(e / Seconds::new(60.0), Watts::new(18.0));
    }

    proptest! {
        #[test]
        fn energy_power_roundtrip(p in 0.0f64..1e3, dt in 1e-6f64..1e3) {
            let e = Watts::new(p) * Seconds::new(dt);
            prop_assert!(((e / Seconds::new(dt)).value() - p).abs() < 1e-6 * p.max(1.0));
        }

        #[test]
        fn sum_of_energies(parts in proptest::collection::vec(0.0f64..100.0, 1..20)) {
            let total: Energy = parts.iter().map(|&p| Energy::new(p)).sum();
            let expect: f64 = parts.iter().sum();
            prop_assert!((total.value() - expect).abs() < 1e-9);
        }
    }
}
