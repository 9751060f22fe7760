//! Throughput accounting (the performance metric of Fig. 8).

use vfc_units::Seconds;

/// Counts completed threads; throughput is "the number of threads
/// completed per given time" (paper Sec. V).
#[derive(Debug, Clone, Default)]
pub struct ThroughputMeter {
    completed: u64,
}

impl ThroughputMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed thread.
    pub fn record(&mut self) {
        self.completed += 1;
    }

    /// Completed thread count.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Threads completed per second over `elapsed`.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` is not positive.
    pub fn throughput(&self, elapsed: Seconds) -> f64 {
        assert!(elapsed.value() > 0.0, "elapsed must be positive");
        self.completed as f64 / elapsed.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_rates() {
        let mut m = ThroughputMeter::new();
        m.record();
        m.record();
        assert_eq!(m.completed(), 2);
        assert!((m.throughput(Seconds::new(4.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_elapsed_panics() {
        let m = ThroughputMeter::new();
        let _ = m.throughput(Seconds::ZERO);
    }
}
