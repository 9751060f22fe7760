//! The paper's Table II benchmark characteristics.

/// One benchmark's measured characteristics (paper Table II).
///
/// Utilization is the average over all hardware threads; misses and FP
/// counts are per 100 K instructions and drive the crossbar/memory power
/// scaling.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Benchmark {
    /// Benchmark name as in Table II.
    pub name: &'static str,
    /// Average system utilization, percent.
    pub avg_util_pct: f64,
    /// L2 instruction misses per 100 K instructions.
    pub l2_imiss: f64,
    /// L2 data misses per 100 K instructions.
    pub l2_dmiss: f64,
    /// Floating-point instructions per 100 K instructions.
    pub fp_per_100k: f64,
}

impl Benchmark {
    /// The eight benchmarks of Table II, in the paper's order.
    pub const fn table_ii() -> [Benchmark; 8] {
        [
            Benchmark {
                name: "Web-med",
                avg_util_pct: 53.12,
                l2_imiss: 12.9,
                l2_dmiss: 167.7,
                fp_per_100k: 31.2,
            },
            Benchmark {
                name: "Web-high",
                avg_util_pct: 92.87,
                l2_imiss: 67.6,
                l2_dmiss: 288.7,
                fp_per_100k: 31.2,
            },
            Benchmark {
                name: "Database",
                avg_util_pct: 17.75,
                l2_imiss: 6.5,
                l2_dmiss: 102.3,
                fp_per_100k: 5.9,
            },
            Benchmark {
                name: "Web&DB",
                avg_util_pct: 75.12,
                l2_imiss: 21.5,
                l2_dmiss: 115.3,
                fp_per_100k: 24.1,
            },
            Benchmark {
                name: "gcc",
                avg_util_pct: 15.25,
                l2_imiss: 31.7,
                l2_dmiss: 96.2,
                fp_per_100k: 18.1,
            },
            Benchmark {
                name: "gzip",
                avg_util_pct: 9.0,
                l2_imiss: 2.0,
                l2_dmiss: 57.0,
                fp_per_100k: 0.2,
            },
            Benchmark {
                name: "MPlayer",
                avg_util_pct: 6.5,
                l2_imiss: 9.6,
                l2_dmiss: 136.0,
                fp_per_100k: 1.0,
            },
            Benchmark {
                name: "MPlayer&Web",
                avg_util_pct: 26.62,
                l2_imiss: 9.1,
                l2_dmiss: 66.8,
                fp_per_100k: 29.9,
            },
        ]
    }

    /// Looks a benchmark up by its Table II name (case-insensitive).
    pub fn by_name(name: &str) -> Option<Benchmark> {
        Self::table_ii()
            .into_iter()
            .find(|b| b.name.eq_ignore_ascii_case(name))
    }

    /// Average utilization as a fraction in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.avg_util_pct / 100.0
    }

    /// Total L2 misses per 100 K instructions.
    pub(crate) fn total_l2_misses(&self) -> f64 {
        self.l2_imiss + self.l2_dmiss
    }

    /// Memory intensity normalized to `[0, 1]` across Table II (drives
    /// crossbar power scaling; Web-high is the most memory-intensive).
    pub fn memory_intensity(&self) -> f64 {
        const MAX_MISSES: f64 = 67.6 + 288.7; // Web-high
        (self.total_l2_misses() / MAX_MISSES).clamp(0.0, 1.0)
    }
}

impl core::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} ({:.2}% util)", self.name, self.avg_util_pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_is_complete_and_ordered() {
        let t = Benchmark::table_ii();
        assert_eq!(t.len(), 8);
        assert_eq!(t[0].name, "Web-med");
        assert_eq!(t[7].name, "MPlayer&Web");
        // Spot checks against the paper.
        assert_eq!(t[1].avg_util_pct, 92.87);
        assert_eq!(t[5].l2_dmiss, 57.0);
        assert_eq!(t[2].fp_per_100k, 5.9);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(Benchmark::by_name("gzip").unwrap().avg_util_pct, 9.0);
        assert_eq!(Benchmark::by_name("WEB-HIGH").unwrap().l2_imiss, 67.6);
        assert!(Benchmark::by_name("quake").is_none());
    }

    #[test]
    fn memory_intensity_normalization() {
        let t = Benchmark::table_ii();
        assert!((t[1].memory_intensity() - 1.0).abs() < 1e-12);
        for b in &t {
            let m = b.memory_intensity();
            assert!((0.0..=1.0).contains(&m), "{}: {m}", b.name);
        }
        // gzip is the least memory intensive.
        let min = t
            .iter()
            .map(|b| b.memory_intensity())
            .fold(f64::INFINITY, f64::min);
        assert!((Benchmark::by_name("gzip").unwrap().memory_intensity() - min).abs() < 1e-12);
    }

    #[test]
    fn utilization_fractions() {
        for b in Benchmark::table_ii() {
            let u = b.utilization();
            assert!((0.0..=1.0).contains(&u));
        }
    }
}
