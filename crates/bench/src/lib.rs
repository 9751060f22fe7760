//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each `src/bin/*` binary prints one table or figure; the logic lives in
//! [`figures`] so `all_figures` can regenerate everything in one run.
//! Simulations go through [`shared_runner`] — `vfc_runner`'s
//! batch executor plus its config-hash result cache — so a rerun
//! (or an overlapping figure in the same run) skips every
//! already-simulated cell.

#![warn(missing_docs)]

pub mod figures;
pub mod perf;
pub mod telemetry;
pub mod transient;

use std::sync::OnceLock;

use vfc::prelude::*;

/// Default simulated duration for the figure-regeneration runs. 30 s at
/// 100 ms sampling gives 300 samples per run; the paper's relative
/// numbers are stable well before that.
pub fn default_duration() -> Seconds {
    Seconds::new(30.0)
}

/// The process-wide [`SweepRunner`] every figure and binary shares.
///
/// Results persist under `target/vfc-cache/` (override the location with
/// `VFC_CACHE_DIR`; set `VFC_RUNNER_CACHE=off` for a memory-only cache),
/// and the worker count follows `available_parallelism` with a
/// `VFC_RUNNER_THREADS` override.
pub fn shared_runner() -> &'static SweepRunner {
    static RUNNER: OnceLock<SweepRunner> = OnceLock::new();
    RUNNER.get_or_init(|| {
        let disk_cache = !matches!(
            std::env::var("VFC_RUNNER_CACHE").as_deref(),
            Ok("off" | "0" | "false")
        );
        if disk_cache {
            SweepRunner::with_default_disk_cache()
        } else {
            SweepRunner::new()
        }
    })
}

/// Runs a batch of simulations, preserving input order.
///
/// Thin compatibility wrapper over [`shared_runner`]: jobs fan out over
/// the batch executor at full machine parallelism and cached
/// cells are returned without simulating.
///
/// # Panics
///
/// Panics if any simulation fails — the harness treats model errors as
/// fatal for reproducibility runs. Use [`SweepRunner::try_run`] for
/// per-job error handling.
pub(crate) fn run_batch(configs: Vec<SimConfig>) -> Vec<SimReport> {
    shared_runner()
        .run(configs)
        .unwrap_or_else(|e| panic!("figure batch failed: {e}"))
}

/// Formats a ratio as the paper's normalized-energy numbers.
pub(crate) fn norm(value: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        value / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc::workload::Benchmark;

    #[test]
    fn batch_preserves_order_and_runs() {
        let mk = |bench: &str| {
            SimConfig::new(
                SystemKind::TwoLayer,
                CoolingKind::LiquidMax,
                PolicyKind::LoadBalancing,
                Benchmark::by_name(bench).unwrap(),
            )
            .with_duration(Seconds::new(2.0))
            .with_grid_cell(Length::from_millimeters(2.0))
        };
        let out = run_batch(vec![mk("gzip"), mk("MPlayer")]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].workload, "gzip");
        assert_eq!(out[1].workload, "MPlayer");

        // The wrapper routes through the shared cached runner: repeating
        // the batch must not simulate anything new (whether the first
        // pass executed or was itself served from a warm disk cache).
        let executed_before = shared_runner().stats().executed;
        let again = run_batch(vec![mk("gzip"), mk("MPlayer")]);
        assert_eq!(again, out);
        assert_eq!(shared_runner().stats().executed, executed_before);
    }

    #[test]
    fn norm_handles_zero_baseline() {
        assert_eq!(norm(5.0, 0.0), 0.0);
        assert_eq!(norm(5.0, 2.0), 2.5);
    }
}
