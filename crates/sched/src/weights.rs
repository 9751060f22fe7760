//! TALB's thermal weight table (paper Sec. IV, Eq. 8).
//!
//! "For a given set of temperature ranges, the weight factors for all the
//! cores are computed in a pre-processing step and stored in the look-up
//! table." The weights are the normalized multiplicative inverses of the
//! per-core power budgets that produce a balanced temperature; cores with
//! poor cooling get large weights and therefore receive fewer threads.

use vfc_units::Celsius;

/// Temperature-range-indexed per-core weights.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ThermalWeightTable {
    /// `(upper bound of the Tmax range, weights)`, sorted by bound; the
    /// last entry serves any higher temperature.
    ranges: Vec<(f64, Vec<f64>)>,
}

impl ThermalWeightTable {
    /// Builds a table from `(range upper bound, weights)` rows.
    ///
    /// Each weight vector is normalized to mean 1 so queue-length
    /// thresholds keep their meaning.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, the bounds are not strictly increasing,
    /// the weight vectors differ in length, or any weight is non-positive.
    pub(crate) fn new(rows: Vec<(Celsius, Vec<f64>)>) -> Self {
        assert!(!rows.is_empty(), "need at least one range");
        let n = rows[0].1.len();
        let mut ranges = Vec::with_capacity(rows.len());
        let mut prev = f64::NEG_INFINITY;
        for (bound, mut weights) in rows {
            assert!(bound.value() > prev, "bounds must increase strictly");
            prev = bound.value();
            assert_eq!(weights.len(), n, "weight vectors must share a length");
            assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
            let mean = weights.iter().sum::<f64>() / n as f64;
            for w in &mut weights {
                *w /= mean;
            }
            ranges.push((bound.value(), weights));
        }
        Self { ranges }
    }

    /// A single-range table with uniform weights (`n` cores) — what the
    /// thermally-unaware policies effectively use.
    pub fn uniform(n: usize) -> Self {
        Self::new(vec![(Celsius::new(f64::MAX), vec![1.0; n])])
    }

    /// Builds weights from per-core balanced power budgets: `w_i ∝ 1/p_i`
    /// (the paper's construction).
    ///
    /// # Panics
    ///
    /// Panics if any power is non-positive.
    pub fn from_balanced_powers(rows: Vec<(Celsius, Vec<f64>)>) -> Self {
        let inverted = rows
            .into_iter()
            .map(|(b, powers)| {
                assert!(
                    powers.iter().all(|&p| p > 0.0),
                    "balanced powers must be positive"
                );
                (b, powers.iter().map(|&p| 1.0 / p).collect())
            })
            .collect();
        Self::new(inverted)
    }

    /// The weight vector for the current maximum temperature.
    pub fn weights_for(&self, tmax: Celsius) -> &[f64] {
        for (bound, w) in &self.ranges {
            if tmax.value() <= *bound {
                return w;
            }
        }
        &self.ranges[self.ranges.len() - 1].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_is_all_ones() {
        let t = ThermalWeightTable::uniform(4);
        assert_eq!(t.weights_for(Celsius::new(75.0)), &[1.0; 4]);
    }

    #[test]
    fn range_selection() {
        let t = ThermalWeightTable::new(vec![
            (Celsius::new(70.0), vec![1.0, 1.0]),
            (Celsius::new(80.0), vec![1.0, 3.0]),
            (Celsius::new(f64::MAX), vec![1.0, 9.0]),
        ]);
        assert_eq!(t.weights_for(Celsius::new(65.0)), &[1.0, 1.0]);
        // Normalized to mean 1: [1,3] -> [0.5, 1.5].
        assert_eq!(t.weights_for(Celsius::new(75.0)), &[0.5, 1.5]);
        assert_eq!(t.weights_for(Celsius::new(95.0)), &[0.2, 1.8]);
    }

    #[test]
    fn inverse_power_weights() {
        // Core 1 can only take half the power: it gets twice the weight.
        let t = ThermalWeightTable::from_balanced_powers(vec![(
            Celsius::new(f64::MAX),
            vec![2.0, 1.0],
        )]);
        let w = t.weights_for(Celsius::new(70.0));
        assert!((w[1] / w[0] - 2.0).abs() < 1e-12);
        // Mean is 1.
        assert!((w.iter().sum::<f64>() / 2.0 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "increase strictly")]
    fn unsorted_bounds_rejected() {
        let _ = ThermalWeightTable::new(vec![
            (Celsius::new(80.0), vec![1.0]),
            (Celsius::new(70.0), vec![1.0]),
        ]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn nonpositive_weight_rejected() {
        let _ = ThermalWeightTable::new(vec![(Celsius::new(80.0), vec![1.0, 0.0])]);
    }

    proptest! {
        #[test]
        fn normalization_preserves_ratios(a in 0.1f64..10.0, b in 0.1f64..10.0) {
            let t = ThermalWeightTable::new(vec![(Celsius::new(f64::MAX), vec![a, b])]);
            let w = t.weights_for(Celsius::new(50.0));
            prop_assert!((w[1] / w[0] - b / a).abs() < 1e-9);
            prop_assert!((w.iter().sum::<f64>() / 2.0 - 1.0).abs() < 1e-12);
        }
    }
}
