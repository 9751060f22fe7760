//! Poisson short-thread generator calibrated to Table II utilizations.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vfc_units::Seconds;

use crate::{Benchmark, ThreadSpec};

/// Minimum thread length (ms): "a few milliseconds".
const MIN_THREAD_MS: f64 = 5.0;
/// Maximum thread length (ms): "several hundred milliseconds".
const MAX_THREAD_MS: f64 = 300.0;

/// Seeded generator of short threads whose long-run demand matches a
/// benchmark's Table II utilization on a given core count.
///
/// Arrivals are Poisson with rate `λ = U·N / E[duration]`; durations are
/// log-uniform over 5–300 ms, matching the T1 observation that thread
/// lengths span "a few to several hundred milliseconds" (Sec. IV).
#[derive(Debug)]
pub struct WorkloadGenerator {
    benchmark: Benchmark,
    cores: usize,
    rng: StdRng,
    next_id: u64,
    /// Time until the next arrival (seconds).
    next_arrival_in: f64,
    /// Arrival rate (threads per second).
    rate: f64,
}

impl WorkloadGenerator {
    /// Creates a generator for `benchmark` on `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(benchmark: Benchmark, cores: usize, seed: u64) -> Self {
        assert!(cores > 0, "need at least one core");
        let mean_duration = Self::mean_duration_secs();
        let rate = benchmark.utilization() * cores as f64 / mean_duration;
        let mut rng = StdRng::seed_from_u64(seed);
        let first = Self::sample_exponential(&mut rng, rate);
        Self {
            benchmark,
            cores,
            rng,
            next_id: 0,
            next_arrival_in: first,
            rate,
        }
    }

    /// The benchmark driving this generator.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// Expected thread duration of the log-uniform distribution,
    /// `(b−a)/ln(b/a)` in seconds.
    pub(crate) fn mean_duration_secs() -> f64 {
        let (a, b) = (MIN_THREAD_MS * 1e-3, MAX_THREAD_MS * 1e-3);
        (b - a) / (b / a).ln()
    }

    /// Switches the generator to another benchmark (diurnal phase change),
    /// preserving RNG state and thread ids.
    pub fn set_benchmark(&mut self, benchmark: Benchmark) {
        self.benchmark = benchmark;
        self.rate = benchmark.utilization() * self.cores as f64 / Self::mean_duration_secs();
        // Resample the gap so a rate increase takes effect promptly.
        self.next_arrival_in = Self::sample_exponential(&mut self.rng, self.rate);
    }

    /// Advances time by `dt` and fills `arrivals` (cleared first) with
    /// the threads that arrived, so a caller polling every tick reuses
    /// one buffer.
    pub fn poll(&mut self, dt: Seconds, arrivals: &mut Vec<ThreadSpec>) {
        arrivals.clear();
        if self.rate <= 0.0 {
            return;
        }
        let mut budget = dt.value();
        while budget >= self.next_arrival_in {
            budget -= self.next_arrival_in;
            arrivals.push(self.spawn_thread());
            self.next_arrival_in = Self::sample_exponential(&mut self.rng, self.rate);
        }
        self.next_arrival_in -= budget;
    }

    fn spawn_thread(&mut self) -> ThreadSpec {
        let id = self.next_id;
        self.next_id += 1;
        // Log-uniform duration over [5 ms, 300 ms].
        let u: f64 = self.rng.random();
        let ln_a = (MIN_THREAD_MS * 1e-3).ln();
        let ln_b = (MAX_THREAD_MS * 1e-3).ln();
        let duration = (ln_a + u * (ln_b - ln_a)).exp();
        ThreadSpec::new(id, Seconds::new(duration))
    }

    fn sample_exponential(rng: &mut StdRng, rate: f64) -> f64 {
        if rate <= 0.0 {
            return f64::INFINITY;
        }
        let u: f64 = rng.random::<f64>().max(1e-15);
        -u.ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Offered load (total execution time generated per core per second).
    fn offered_utilization(bench: Benchmark, seed: u64, secs: f64) -> f64 {
        let cores = 8;
        let mut generator = WorkloadGenerator::new(bench, cores, seed);
        let dt = Seconds::from_millis(1.0);
        let steps = (secs * 1000.0) as usize;
        let mut total_work = 0.0;
        let mut arrivals = Vec::new();
        for _ in 0..steps {
            generator.poll(dt, &mut arrivals);
            for t in &arrivals {
                total_work += t.total().value();
            }
        }
        total_work / (secs * cores as f64)
    }

    #[test]
    fn offered_load_matches_table_ii() {
        for bench in [
            Benchmark::by_name("Web-high").unwrap(),
            Benchmark::by_name("Database").unwrap(),
            Benchmark::by_name("gzip").unwrap(),
        ] {
            let u = offered_utilization(bench, 7, 120.0);
            let target = bench.utilization();
            assert!(
                (u - target).abs() < 0.12 * target + 0.01,
                "{}: offered {u:.3} vs target {target:.3}",
                bench.name
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let bench = Benchmark::table_ii()[0];
        let mut a = WorkloadGenerator::new(bench, 8, 99);
        let mut b = WorkloadGenerator::new(bench, 8, 99);
        let dt = Seconds::from_millis(10.0);
        let (mut ta, mut tb) = (Vec::new(), Vec::new());
        for _ in 0..200 {
            a.poll(dt, &mut ta);
            b.poll(dt, &mut tb);
            assert_eq!(ta, tb);
        }
        let mut c = WorkloadGenerator::new(bench, 8, 100);
        let mut saw_difference = false;
        let mut a2 = WorkloadGenerator::new(bench, 8, 99);
        for _ in 0..200 {
            a2.poll(dt, &mut ta);
            c.poll(dt, &mut tb);
            if ta != tb {
                saw_difference = true;
                break;
            }
        }
        assert!(saw_difference, "different seeds should differ");
    }

    #[test]
    fn durations_are_in_range() {
        let mut generator = WorkloadGenerator::new(Benchmark::table_ii()[1], 8, 3);
        let mut count = 0;
        let mut arrivals = Vec::new();
        for _ in 0..20_000 {
            generator.poll(Seconds::from_millis(1.0), &mut arrivals);
            for t in &arrivals {
                let ms = t.total().to_millis();
                assert!((MIN_THREAD_MS..=MAX_THREAD_MS).contains(&ms), "{ms}");
                count += 1;
            }
        }
        assert!(count > 50, "expected a healthy arrival count, got {count}");
    }

    #[test]
    fn phase_switch_changes_rate() {
        let mut generator = WorkloadGenerator::new(Benchmark::by_name("gzip").unwrap(), 8, 5);
        generator.set_benchmark(Benchmark::by_name("Web-high").unwrap());
        assert_eq!(generator.benchmark().name, "Web-high");
        // Higher-rate benchmark should produce clearly more arrivals.
        let mut arrivals = Vec::new();
        let mut high = 0;
        for _ in 0..5000 {
            generator.poll(Seconds::from_millis(1.0), &mut arrivals);
            high += arrivals.len();
        }
        let mut low_gen = WorkloadGenerator::new(Benchmark::by_name("gzip").unwrap(), 8, 5);
        let mut low = 0;
        for _ in 0..5000 {
            low_gen.poll(Seconds::from_millis(1.0), &mut arrivals);
            low += arrivals.len();
        }
        assert!(high > low * 3, "high {high} vs low {low}");
    }

    #[test]
    fn mean_duration_is_log_uniform_mean() {
        // (0.3 - 0.005)/ln(60) ≈ 72 ms.
        assert!((WorkloadGenerator::mean_duration_secs() - 0.0721).abs() < 1e-3);
    }
}
