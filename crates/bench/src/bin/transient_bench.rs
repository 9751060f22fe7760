//! Transient-path benchmark: the cost of one 100 ms sample (5
//! backward-Euler sub-steps) versus grid resolution and preconditioner,
//! ILU(0) and the V(0,1) multigrid cycle (the scenario lives in
//! `vfc_bench::transient`).
//!
//! Usage: `transient_bench [--fine] [--telemetry <path>]`
//!   `--fine`       adds the paper-native 100 µm grid (~58k nodes)
//!   `--telemetry`  write a `vfc_obs` JSON snapshot to the given path
//!                  (raises `VFC_TELEMETRY` to `spans` unless the env
//!                  var already chose a level)
//!
//! A run writes `target/bench/BENCH_transient.json`; a `--fine` run
//! also rewrites the committed repo-root copy (see `vfc_bench::perf`).
//! The iteration counts of the 1, 0.5 and 0.25 mm rows are gated
//! exactly by `crates/bench/tests/gates.rs`.

use vfc_bench::perf::{cpu_count, host_label, report_bench_records, PerfRecord};
use vfc_bench::telemetry::{enable_for_export, export_snapshot, parse_telemetry_flag};
use vfc_bench::transient::{self, GATED_GRIDS_MM};

fn main() {
    let fine = std::env::args().any(|a| a == "--fine");
    let telemetry = parse_telemetry_flag();
    if telemetry.is_some() {
        enable_for_export();
    }
    let mut cells = GATED_GRIDS_MM.to_vec();
    if fine {
        cells.push(0.1); // the paper's grid
    }

    println!("Transient 100 ms sample (5 backward-Euler sub-steps), 2-layer liquid stack");
    println!(
        "{:>9} {:>9} {:>8} {:>11} {:>7}",
        "cell mm", "nodes", "precond", "sample ms", "iters"
    );
    let mut records = Vec::new();
    for &cell in &cells {
        for variant in &transient::variants() {
            let run = transient::run(cell, variant);
            let (ms, iters, label) = (run.median_ms, run.iterations(), variant.label());
            println!(
                "{:>9.2} {:>9} {:>8} {:>11.2} {:>7}",
                cell, run.nodes, label, ms, iters,
            );
            records.push(PerfRecord {
                case: variant.case.into(),
                grid_mm: cell,
                nodes: run.nodes,
                precond: label.into(),
                ms,
                iters,
                host: host_label(),
                cpus: cpu_count(),
            });
        }
    }
    println!("\n(sample = 100 ms of simulated time; power alternates between samples so");
    println!(" the warm-seed short-circuit cannot skip sub-steps — on a steady workload");
    println!(" a converged sample costs one matvec and two norms instead)");
    report_bench_records("transient", &records, fine);
    if let Some(path) = &telemetry {
        export_snapshot(path);
    }
}
