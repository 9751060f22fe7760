//! Small statistics helpers shared by the forecaster and the metrics
//! collectors.

/// Arithmetic mean; returns 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Population variance; returns 0 for slices shorter than 2.
#[cfg(test)]
pub(crate) fn variance(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = mean(v);
    v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
}

/// Sample autocovariance at the given lag (biased, normalized by `n`),
/// as used by Yule–Walker style estimators.
///
/// Returns 0 when `lag >= v.len()`.
pub fn autocovariance(v: &[f64], lag: usize) -> f64 {
    let n = v.len();
    if lag >= n || n == 0 {
        return 0.0;
    }
    let m = mean(v);
    let mut acc = 0.0;
    for t in lag..n {
        acc += (v[t] - m) * (v[t - lag] - m);
    }
    acc / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_moments() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&v), 2.5);
        assert_eq!(variance(&v), 1.25);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn autocovariance_lag0_is_variance() {
        let v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        assert!((autocovariance(&v, 0) - variance(&v)).abs() < 1e-12);
        assert_eq!(autocovariance(&v, 8), 0.0);
    }

    #[test]
    fn autocovariance_of_alternating_signal_is_negative_at_lag1() {
        let v = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        assert!(autocovariance(&v, 1) < 0.0);
    }

    proptest! {
        #[test]
        fn variance_nonnegative(v in proptest::collection::vec(-100.0f64..100.0, 0..50)) {
            prop_assert!(variance(&v) >= 0.0);
        }

        #[test]
        fn autocov_bounded_by_variance(
            v in proptest::collection::vec(-100.0f64..100.0, 2..50),
            lag in 1usize..10,
        ) {
            // |gamma(k)| <= gamma(0) for the biased estimator.
            prop_assert!(autocovariance(&v, lag).abs() <= autocovariance(&v, 0) + 1e-9);
        }
    }
}
