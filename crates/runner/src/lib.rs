//! # vfc_runner — the simulation-sweep engine
//!
//! The paper's evaluation (Fig. 6–8, Table III, the per-workload TALB
//! savings) is a sweep: configurations × policies × workloads, each cell
//! one [`Simulation`] run. This crate is the
//! subsystem that executes such sweeps at scale, replacing the old
//! hand-rolled 4-thread mutex queue in `vfc_bench`:
//!
//! * [`SweepSpec`] — declare the axes (systems × cooling kinds ×
//!   policies × workloads × seeds × grid cells) and expand them to
//!   concrete [`SimConfig`]s;
//! * [`Executor`] — a scoped thread pool whose workers take jobs in
//!   input order from one shared queue (full `available_parallelism`
//!   by default, `VFC_RUNNER_THREADS` override), returning a `Result`
//!   per job instead of panicking, with progress callbacks;
//! * [`ResultCache`] — content-addressed results keyed by
//!   [`SimConfig::cache_key`], in memory and optionally on disk
//!   (`target/vfc-cache/`), so re-running `all_figures` or a sweep
//!   skips every already-simulated cell;
//! * [`SweepRunner`] — the front door combining all three.
//!
//! # Example
//!
//! ```no_run
//! use vfc_runner::{SweepRunner, SweepSpec};
//! use vfc_sim::{CoolingKind, PolicyKind};
//!
//! let runner = SweepRunner::with_default_disk_cache();
//! let reports = runner
//!     .run_spec(
//!         &SweepSpec::new()
//!             .coolings([CoolingKind::LiquidMax, CoolingKind::LiquidVariable])
//!             .policies([PolicyKind::Talb])
//!             .seeds(0..4),
//!     )
//!     .unwrap();
//! let stats = runner.stats();
//! println!("{} runs, {} from cache", reports.len(), stats.cache_hits);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod codec;
mod error;
mod executor;
mod inflight;
pub mod json;
mod spec;
pub mod telemetry;

use std::sync::atomic::{AtomicU64, Ordering};

use vfc_sim::{SimConfig, SimReport, Simulation};

pub use self::cache::{
    default_cache_dir, default_target_dir, ResultCache, CACHE_MAX_MB_ENV, DISK_FORMAT_VERSION,
};
pub use self::error::RunnerError;
pub use self::executor::{BoxJob, Executor, Progress, SubmitError, SubmitExecutor, THREADS_ENV};
pub use self::spec::SweepSpec;

/// How [`SweepRunner::run_shared`] obtained its report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSource {
    /// Answered from the result cache without touching the executor.
    CacheHit,
    /// This caller led the execution: it simulated the cell itself.
    Executed,
    /// Another caller was already simulating the identical cell; this
    /// one joined its in-flight run and shared the result.
    Joined,
}

/// Counters accumulated across every sweep a [`SweepRunner`] executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Jobs submitted (after spec filtering).
    pub jobs: u64,
    /// Jobs answered from the cache without simulating.
    pub cache_hits: u64,
    /// Jobs that actually simulated.
    pub executed: u64,
    /// Jobs that returned an error.
    pub failures: u64,
    /// Disk-cache entry files evicted by the size budget
    /// ([`CACHE_MAX_MB_ENV`]); previously silent, now surfaced here and
    /// in the `sweep` CLI summary.
    pub cache_evictions: u64,
    /// Corrupt disk-cache entries evicted on the read path (unparseable
    /// JSON → treated as a miss, deleted and counted — never an error).
    pub cache_corrupt_evictions: u64,
    /// Jobs — batch cells or [`SweepRunner::run_shared`] calls — that
    /// joined another job's in-flight execution of the identical cell
    /// instead of duplicating it.
    pub dedup_joins: u64,
}

impl SweepStats {
    /// Cache hits as a fraction of all jobs (0 when nothing ran).
    pub fn hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.jobs as f64
        }
    }
}

/// Executes sweeps: expansion → cache lookup → parallel
/// simulation → cache store. One instance can serve many sweeps and its
/// in-memory cache carries over between them, so overlapping studies
/// (Fig. 6 and Fig. 8 share five of seven matrix rows) simulate each
/// distinct cell once.
#[derive(Debug)]
pub struct SweepRunner {
    executor: Executor,
    cache: ResultCache,
    jobs: AtomicU64,
    cache_hits: AtomicU64,
    executed: AtomicU64,
    failures: AtomicU64,
    dedup_joins: AtomicU64,
    inflight: inflight::InFlightTable,
    /// Test seam: queued errors served (front first) in place of the
    /// next simulations, exercising the failure paths without a failing
    /// simulation.
    #[cfg(test)]
    injected_failures: std::sync::Mutex<std::collections::VecDeque<RunnerError>>,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// A runner with a machine-sized executor and an in-memory cache.
    pub fn new() -> Self {
        Self::with_parts(Executor::new(), ResultCache::in_memory())
    }

    /// A runner whose cache also persists to
    /// [`default_cache_dir`] (`target/vfc-cache/`, or `VFC_CACHE_DIR`).
    pub fn with_default_disk_cache() -> Self {
        Self::with_parts(Executor::new(), ResultCache::on_disk(default_cache_dir()))
    }

    /// A runner from an explicit executor and cache.
    pub fn with_parts(executor: Executor, cache: ResultCache) -> Self {
        Self {
            executor,
            cache,
            jobs: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            dedup_joins: AtomicU64::new(0),
            inflight: inflight::InFlightTable::new(),
            #[cfg(test)]
            injected_failures: std::sync::Mutex::new(std::collections::VecDeque::new()),
        }
    }

    /// The underlying executor.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The underlying cache.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SweepStats {
        SweepStats {
            jobs: self.jobs.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            cache_evictions: self.cache.evictions(),
            cache_corrupt_evictions: self.cache.corrupt_evictions(),
            dedup_joins: self.dedup_joins.load(Ordering::Relaxed),
        }
    }

    /// Expands `spec` and runs every cell, returning the first error if
    /// any cell failed (the whole batch still executes — there is no
    /// mid-sweep cancellation; use [`SweepRunner::try_run`] to see every
    /// cell's outcome).
    ///
    /// # Errors
    ///
    /// [`RunnerError::EmptySweep`] if the spec expands to nothing;
    /// otherwise the first failing cell's error.
    pub fn run_spec(&self, spec: &SweepSpec) -> Result<Vec<SimReport>, RunnerError> {
        let configs = spec.expand();
        if configs.is_empty() {
            return Err(RunnerError::EmptySweep);
        }
        self.run(configs)
    }

    /// Runs a batch of configurations, in input order, returning the
    /// first error if any cell failed. The whole batch still executes;
    /// successful cells land in the cache either way.
    ///
    /// # Errors
    ///
    /// The first failing cell's error.
    pub fn run(&self, configs: Vec<SimConfig>) -> Result<Vec<SimReport>, RunnerError> {
        self.try_run(configs).into_iter().collect()
    }

    /// Runs a batch of configurations, returning one `Result` per cell
    /// in input order — failed cells don't take the batch down.
    pub fn try_run(&self, configs: Vec<SimConfig>) -> Vec<Result<SimReport, RunnerError>> {
        self.try_run_with_progress(configs, |_| {})
    }

    /// [`SweepRunner::try_run`] with a per-completion progress callback.
    ///
    /// Every cell takes [`run_shared`](Self::run_shared)'s path, so a
    /// repeated cell simulates once: it is served from the cache, or
    /// joins its first occurrence while that still runs.
    pub fn try_run_with_progress(
        &self,
        configs: Vec<SimConfig>,
        progress: impl Fn(Progress) + Sync,
    ) -> Vec<Result<SimReport, RunnerError>> {
        let total = configs.len();
        self.jobs.fetch_add(total as u64, Ordering::Relaxed);
        vfc_obs::counter_add("runner.jobs", total as u64);
        let batch_start = std::time::Instant::now();

        let results = self.executor.run_with_progress(
            configs,
            |cfg| self.run_cell(cfg).map(|(report, _)| report),
            |p| {
                // Live progress/ETA for whoever is scraping the registry
                // (the sweep CLI prints its own ETA from the same callback).
                if vfc_obs::counters_enabled() {
                    vfc_obs::gauge_set("runner.jobs_total", total as f64);
                    vfc_obs::gauge_set("runner.jobs_completed", p.completed as f64);
                    let elapsed = batch_start.elapsed().as_secs_f64();
                    let eta = elapsed / p.completed as f64 * (total - p.completed) as f64;
                    vfc_obs::gauge_set("runner.eta_seconds", eta);
                }
                progress(p);
            },
        );
        self.failures.fetch_add(
            results.iter().filter(|r| r.is_err()).count() as u64,
            Ordering::Relaxed,
        );
        results
    }

    /// One cell, counted as one job, through the path every batch cell
    /// takes too. This is the dedup hook the sweep service builds on:
    /// two clients submitting overlapping specs share each overlapping
    /// cell's single execution, and [`RunSource`] says how this call got
    /// its report.
    ///
    /// # Errors
    ///
    /// Whatever [`SweepRunner::run`] would return for this cell.
    pub fn run_shared(&self, cfg: SimConfig) -> Result<(SimReport, RunSource), RunnerError> {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        vfc_obs::counter_add("runner.jobs", 1);
        let outcome = self.run_cell(cfg);
        if outcome.is_err() {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// The one cell path: cache lookup, else run every cell exactly once
    /// across concurrent callers. The first caller of a key becomes its
    /// **leader** and simulates; callers arriving while the leader runs
    /// become **followers** and block on the leader's published result
    /// instead of duplicating the run. A failed leader wakes its
    /// followers empty-handed and each retries from the top (cache,
    /// then a fresh claim) — failures never cascade to cells that could
    /// have succeeded on their own.
    ///
    /// A failed simulation is not retried by its leader: simulations
    /// are deterministic, so running the same cell again reproduces the
    /// same error. Counts cache hits, executions and joins; the callers
    /// count jobs and failures.
    fn run_cell(&self, cfg: SimConfig) -> Result<(SimReport, RunSource), RunnerError> {
        let _span = vfc_obs::span("runner.job");
        let key = cfg.cache_key();
        loop {
            if let Some(report) = self.cache.get(key) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((report, RunSource::CacheHit));
            }
            match self.inflight.claim(key) {
                inflight::Claim::Leader(guard) => {
                    self.executed.fetch_add(1, Ordering::Relaxed);
                    let outcome = self.simulate(&cfg);
                    if let Ok(report) = &outcome {
                        // Best-effort: a full disk or read-only checkout
                        // must not fail the sweep — the result is
                        // already in hand (and in memory).
                        if let Err(e) = self.cache.insert(key, report) {
                            eprintln!("vfc_runner: cache store failed ({e}); continuing uncached");
                        }
                    }
                    guard.publish(outcome.as_ref().ok().cloned());
                    return outcome.map(|report| (report, RunSource::Executed));
                }
                inflight::Claim::Follower(follower) => match follower.wait() {
                    Some(report) => {
                        self.dedup_joins.fetch_add(1, Ordering::Relaxed);
                        vfc_obs::counter_add("runner.dedup_joins", 1);
                        return Ok((report, RunSource::Joined));
                    }
                    // The leader failed; loop and take the lead (or hit
                    // the cache, if a later store landed meanwhile).
                    None => continue,
                },
            }
        }
    }

    /// One simulation of `cfg`.
    fn simulate(&self, cfg: &SimConfig) -> Result<SimReport, RunnerError> {
        #[cfg(test)]
        if let Some(err) = self.injected_failures.lock().unwrap().pop_front() {
            return Err(err);
        }
        Simulation::new(cfg.clone())
            .and_then(Simulation::run)
            .map_err(|source| RunnerError::Sim {
                label: cfg.label(),
                source,
            })
    }

    /// Queues errors to be served in place of the next simulations
    /// (front first) — the failure paths' test seam.
    #[cfg(test)]
    fn inject_failures(&self, errors: impl IntoIterator<Item = RunnerError>) {
        self.injected_failures.lock().unwrap().extend(errors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use vfc_sim::{CoolingKind, PolicyKind};
    use vfc_units::{Length, Seconds};
    use vfc_workload::Benchmark;

    fn tiny_spec() -> SweepSpec {
        SweepSpec::new()
            .coolings([CoolingKind::LiquidMax])
            .policies([PolicyKind::LoadBalancing])
            .benchmarks([Benchmark::by_name("gzip").unwrap()])
            .duration(Seconds::new(2.0))
            .grid_cells([Length::from_millimeters(2.0)])
    }

    #[test]
    fn same_config_and_seed_is_bit_identical() {
        // Determinism underwrites the whole cache design: two fresh
        // simulations of one config must agree exactly.
        let cfg = tiny_spec().expand().remove(0);
        let a = Simulation::new(cfg.clone()).unwrap().run().unwrap();
        let b = Simulation::new(cfg).unwrap().run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cache_hit_provably_skips_simulation() {
        let runner = SweepRunner::new();
        let first = runner.run_spec(&tiny_spec()).unwrap();
        let stats = runner.stats();
        assert_eq!((stats.jobs, stats.cache_hits, stats.executed), (1, 0, 1));

        let second = runner.run_spec(&tiny_spec()).unwrap();
        let stats = runner.stats();
        assert_eq!(
            (stats.jobs, stats.cache_hits, stats.executed),
            (2, 1, 1),
            "second pass must not simulate"
        );
        assert_eq!(first, second);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disk_cache_spans_runner_instances() {
        let dir = std::env::temp_dir().join(format!("vfc-runner-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first = {
            let runner = SweepRunner::with_parts(Executor::new(), ResultCache::on_disk(&dir));
            runner.run_spec(&tiny_spec()).unwrap()
        };
        let runner = SweepRunner::with_parts(Executor::new(), ResultCache::on_disk(&dir));
        let second = runner.run_spec(&tiny_spec()).unwrap();
        let stats = runner.stats();
        assert_eq!(stats.executed, 0, "fresh process reuses the disk entry");
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(first, second, "disk round-trip is bit-identical");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_cells_in_one_batch_simulate_once() {
        let cfg = tiny_spec().expand().remove(0);
        // One worker finishes the first occurrence before it takes the
        // repeat, which the cache then serves.
        let runner = SweepRunner::with_parts(Executor::with_threads(1), ResultCache::in_memory());
        let out = runner.try_run(vec![cfg.clone(), cfg.clone()]);
        assert_eq!(out[0].as_ref().unwrap(), out[1].as_ref().unwrap());
        let stats = runner.stats();
        assert_eq!(
            (stats.jobs, stats.executed, stats.cache_hits),
            (2, 1, 1),
            "the repeat must be served from cache, not re-simulated"
        );

        // Two workers take both at once: the repeat joins the first
        // occurrence's run, or hits the cache if that already finished.
        let runner = SweepRunner::with_parts(Executor::with_threads(2), ResultCache::in_memory());
        let out = runner.try_run(vec![cfg.clone(), cfg]);
        assert_eq!(out[0].as_ref().unwrap(), out[1].as_ref().unwrap());
        let stats = runner.stats();
        assert_eq!((stats.jobs, stats.executed), (2, 1), "one simulation");
        assert_eq!(stats.cache_hits + stats.dedup_joins, 1);
    }

    #[test]
    fn invalid_cells_fail_their_slot_only() {
        let good = tiny_spec().expand().remove(0);
        let bad = good.clone().with_duration(Seconds::ZERO);
        let runner = SweepRunner::new();
        let out = runner.try_run(vec![bad, good]);
        assert!(matches!(&out[0], Err(RunnerError::Sim { .. })));
        assert!(out[1].is_ok());
        assert_eq!(runner.stats().failures, 1);
    }

    #[test]
    fn an_injected_failure_surfaces_once_as_its_cells_error() {
        let runner = SweepRunner::new();
        let cfg = tiny_spec().expand().remove(0);
        runner.inject_failures([RunnerError::Io {
            context: "injected".into(),
            source: std::io::Error::new(std::io::ErrorKind::Interrupted, "blip"),
        }]);
        let out = runner.try_run(vec![cfg.clone()]);
        assert!(matches!(&out[0], Err(RunnerError::Io { .. })));
        let stats = runner.stats();
        assert_eq!((stats.executed, stats.failures), (1, 1));
        // The failure was served once: the cell's next run simulates.
        assert!(runner.try_run(vec![cfg])[0].is_ok());
        assert_eq!(runner.stats().failures, 1);
    }

    #[test]
    fn distinct_seeds_are_distinct_cells() {
        let runner = SweepRunner::new();
        let reports = runner.run_spec(&tiny_spec().seeds([1, 2])).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(runner.stats().executed, 2, "no false cache sharing");
    }

    #[test]
    fn run_shared_runs_concurrent_identical_cells_once() {
        let runner = SweepRunner::new();
        let cfg = tiny_spec().expand().remove(0);
        let outcomes: Vec<(SimReport, RunSource)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cfg = cfg.clone();
                    let runner = &runner;
                    scope.spawn(move || runner.run_shared(cfg).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let stats = runner.stats();
        assert_eq!(stats.executed, 1, "the shared cell must simulate once");
        assert_eq!(stats.jobs, 4);
        for (report, _) in &outcomes {
            assert_eq!(report, &outcomes[0].0, "every caller gets the result");
        }
        let executed = outcomes
            .iter()
            .filter(|(_, s)| *s == RunSource::Executed)
            .count();
        assert_eq!(executed, 1, "exactly one leader");
        assert_eq!(
            stats.dedup_joins,
            outcomes
                .iter()
                .filter(|(_, s)| *s == RunSource::Joined)
                .count() as u64
        );
    }

    #[test]
    fn run_shared_serves_warm_cells_from_cache() {
        let runner = SweepRunner::new();
        let cfg = tiny_spec().expand().remove(0);
        let (first, source) = runner.run_shared(cfg.clone()).unwrap();
        assert_eq!(source, RunSource::Executed);
        let (second, source) = runner.run_shared(cfg).unwrap();
        assert_eq!(source, RunSource::CacheHit);
        assert_eq!(first, second);
        assert_eq!(runner.stats().executed, 1);
    }

    #[test]
    fn run_shared_surfaces_failures_without_poisoning_the_key() {
        let runner = SweepRunner::new();
        let cfg = tiny_spec().expand().remove(0);
        runner.inject_failures([RunnerError::Parse {
            context: "injected".into(),
            detail: "deterministic".into(),
        }]);
        assert!(runner.run_shared(cfg.clone()).is_err());
        // The failed claim is released: the next caller leads and runs.
        let (_, source) = runner.run_shared(cfg).unwrap();
        assert_eq!(source, RunSource::Executed);
        assert_eq!(runner.stats().failures, 1);
    }

    #[test]
    fn progress_fires_once_per_cell() {
        let runner = SweepRunner::new();
        let count = AtomicUsize::new(0);
        let out = runner.try_run_with_progress(tiny_spec().seeds([1, 2]).expand(), |p| {
            count.fetch_add(1, Ordering::Relaxed);
            assert_eq!(p.total, 2);
        });
        assert_eq!(out.len(), 2);
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }
}
