//! Multi-phase workloads (e.g. day/night server patterns).
//!
//! The paper's SPRT-based predictor reconstruction is motivated by
//! workload trend changes "such as day-time and night-time workload
//! patterns for a server"; [`PhasedWorkload`] produces exactly those.

use vfc_units::Seconds;

use crate::Benchmark;

/// A cyclic sequence of `(duration, benchmark)` phases.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct PhasedWorkload {
    phases: Vec<(f64, Benchmark)>,
    cycle: f64,
}

impl PhasedWorkload {
    /// Creates a phased workload.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any duration is non-positive.
    pub(crate) fn new(phases: Vec<(Seconds, Benchmark)>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        let phases: Vec<(f64, Benchmark)> = phases
            .into_iter()
            .map(|(d, b)| {
                assert!(d.value() > 0.0, "phase durations must be positive");
                (d.value(), b)
            })
            .collect();
        let cycle = phases.iter().map(|(d, _)| d).sum();
        Self { phases, cycle }
    }

    /// A single-phase (steady) workload.
    pub fn steady(benchmark: Benchmark) -> Self {
        Self::new(vec![(Seconds::new(1.0), benchmark)])
    }

    /// A day/night pattern: `day` for `half_period`, then `night`.
    pub fn diurnal(day: Benchmark, night: Benchmark, half_period: Seconds) -> Self {
        Self::new(vec![(half_period, day), (half_period, night)])
    }

    /// The benchmark active at absolute time `t` (cyclic).
    pub fn benchmark_at(&self, t: Seconds) -> Benchmark {
        let mut offset = t.value().rem_euclid(self.cycle);
        for &(d, b) in &self.phases {
            if offset < d {
                return b;
            }
            offset -= d;
        }
        self.phases[self.phases.len() - 1].1
    }

    /// The phases as `(duration, benchmark)` pairs.
    pub fn phases(&self) -> impl Iterator<Item = (Seconds, Benchmark)> + '_ {
        self.phases.iter().map(|&(d, b)| (Seconds::new(d), b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn web_high() -> Benchmark {
        Benchmark::by_name("Web-high").unwrap()
    }

    fn gzip() -> Benchmark {
        Benchmark::by_name("gzip").unwrap()
    }

    #[test]
    fn diurnal_cycles() {
        let w = PhasedWorkload::diurnal(web_high(), gzip(), Seconds::new(30.0));
        assert_eq!(w.benchmark_at(Seconds::new(0.0)).name, "Web-high");
        assert_eq!(w.benchmark_at(Seconds::new(29.9)).name, "Web-high");
        assert_eq!(w.benchmark_at(Seconds::new(30.1)).name, "gzip");
        // Wraps around.
        assert_eq!(w.benchmark_at(Seconds::new(60.5)).name, "Web-high");
    }

    #[test]
    fn phase_change_detection() {
        let w = PhasedWorkload::diurnal(web_high(), gzip(), Seconds::new(10.0));
        let changes_in = |t: f64, dt: f64| {
            w.benchmark_at(Seconds::new(t)).name != w.benchmark_at(Seconds::new(t + dt)).name
        };
        assert!(changes_in(9.95, 0.1));
        assert!(!changes_in(5.0, 0.1));
    }

    #[test]
    fn steady_never_changes() {
        let w = PhasedWorkload::steady(gzip());
        for t in 0..100 {
            assert_eq!(w.benchmark_at(Seconds::new(t as f64 * 13.7)).name, "gzip");
        }
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_rejected() {
        let _ = PhasedWorkload::new(vec![]);
    }
}
