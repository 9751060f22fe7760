//! Shared `--telemetry <path>` plumbing for the bench binaries.
//!
//! Every binary that exports a snapshot does the same three things:
//! parse the flag, pre-declare the standard metric families (so the
//! exported schema is stable even when a counter never fired — a run
//! without faults still carries `engine.fault_events: 0`), and write
//! the snapshot when the run ends. This module is that shared tail.

use std::path::{Path, PathBuf};

/// Counter families every exported snapshot carries, even at zero.
/// One name per instrumented subsystem — solver, preconditioner,
/// thermal model, engine, sweep runner, result cache and the sweep
/// service.
pub const STANDARD_COUNTERS: &[&str] = &[
    "engine.fault_events",
    "engine.samples",
    "precond.applies",
    "precond.vcycles",
    "runner.cache.corrupt_evictions",
    "runner.cache.disk_promotions",
    "runner.cache.hits",
    "runner.cache.misses",
    "runner.cache.stores",
    "runner.dedup_joins",
    "runner.jobs",
    "serve.connections",
    "serve.deadline_aborts",
    "serve.journal_replays",
    "serve.sheds",
    "solver.escalations",
    "solver.iterations",
    "solver.retries",
    "solver.solves",
    "thermal.flow_patches",
    "thermal.steady_solves",
    "thermal.steps",
    "thermal.substep_short_circuits",
    "thermal.substeps",
    "thermal.warm_seeded_substeps",
];

/// Timing-stat families every exported snapshot carries, even at zero.
/// Top-level span paths only — nested paths (e.g.
/// `span.engine.balance/engine.forecast`) appear as recorded.
pub const STANDARD_STATS: &[&str] = &[
    "runner.queue_wait",
    "span.engine.balance",
    "span.engine.thermal",
    "span.engine.workload",
    "span.runner.execute",
    "span.runner.job",
    "span.thermal.set_flow",
    "span.thermal.steady",
    "span.thermal.step",
];

/// Parses `--telemetry <path>` from the process arguments. Exits with
/// a usage error when the flag is present without a path.
pub fn parse_telemetry_flag() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--telemetry")?;
    match args.get(i + 1) {
        Some(path) if !path.starts_with("--") => Some(PathBuf::from(path)),
        _ => {
            eprintln!("--telemetry expects an output path");
            std::process::exit(2);
        }
    }
}

/// Prepares the global registry for an export run: declares the
/// standard families and, when telemetry is still off (no
/// `VFC_TELEMETRY` in the environment), raises the level to `spans` —
/// asking for an export *is* opting in. An explicit env level is
/// respected, so `VFC_TELEMETRY=counters sweep --telemetry t.json`
/// exports counters without span overhead.
pub fn enable_for_export() {
    if vfc::obs::level() == vfc::obs::TelemetryLevel::Off {
        vfc::obs::set_level(vfc::obs::TelemetryLevel::Spans);
    }
    vfc::obs::declare_counters(STANDARD_COUNTERS);
    vfc::obs::declare_stats(STANDARD_STATS);
}

/// Writes the global snapshot to `path` as JSON and prints where it
/// went. Export failure is reported, not panicked — telemetry must
/// never fail a bench run.
pub fn export_snapshot(path: &Path) {
    match vfc::runner::telemetry::write_snapshot(path) {
        Ok(()) => println!("telemetry snapshot: {}", path.display()),
        Err(e) => eprintln!("telemetry snapshot not written: {e}"),
    }
}
