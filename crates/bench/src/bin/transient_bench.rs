//! Transient-path benchmark: the cost of one 100 ms sample (5
//! backward-Euler sub-steps) versus grid resolution and preconditioner
//! — the workload behind the paper's Fig. 6/7 runs, which take 3000
//! such samples per configuration.
//!
//! Alternates two power maps between samples so the warm-seed
//! short-circuit cannot trivialize the solve (the steady tail of a real
//! workload *is* trivialized by it — that case is reported separately).
//!
//! Usage: `transient_bench [--fine] [--no-seed] [--gate-iters]
//!                         [--telemetry <path>]`
//!   `--fine`       adds the paper-native 100 µm grid (~58k nodes)
//!   `--no-seed`    disable the M⁻¹r warm seed (the PR 3 stepping path;
//!                  ablation baseline for the seed's iteration savings)
//!   `--gate-iters` fail unless every measured Krylov iteration count
//!                  equals the committed repo-root `BENCH_transient.json`
//!                  record for the same case/grid — iteration counts are
//!                  bit-deterministic, so any machine can gate exactly.
//!                  A gate run is read-only: it writes only the
//!                  `target/bench/` copy
//!   `--telemetry`  write a `vfc_obs` JSON snapshot to the given path
//!                  (raises `VFC_TELEMETRY` to `spans` unless the env
//!                  var already chose a level)
//!
//! A plain run rewrites repo-root `BENCH_transient.json` and writes a
//! `target/bench/` copy (see `vfc_bench::perf`).

use std::time::Instant;

use vfc::floorplan::{ultrasparc, GridSpec};
use vfc::num::{MgCycleConfig, PreconditionerKind};
use vfc::thermal::{StackThermalBuilder, ThermalConfig, ThermalModel};
use vfc::units::{Length, Seconds, VolumetricFlow, Watts};
use vfc_bench::perf::{
    cpu_count, host_label, read_bench_records, report_bench_records, root_record_path,
    write_scratch_records, PerfRecord,
};
use vfc_bench::telemetry::{enable_for_export, export_snapshot, parse_telemetry_flag};

/// Samples timed per (grid, preconditioner) cell.
const SAMPLES: usize = 10;

/// Median wall-clock ms of one 100 ms sample (5 sub-steps), alternating
/// power maps, and the total Krylov iterations over the timed samples
/// (the steady start and warm-up sample are excluded).
fn time_transient(model: &mut ThermalModel, p_low: &[f64], p_high: &[f64]) -> (f64, usize) {
    let mut temps = model.steady_state(p_low, None).expect("steady start");
    // Warm-up sample: factors the BE operator, sizes the scratch.
    model
        .step(&mut temps, p_high, Seconds::from_millis(100.0), 5)
        .expect("warm-up step");
    let mut times = Vec::with_capacity(SAMPLES);
    let mut iterations = 0usize;
    for s in 0..SAMPLES {
        let p = if s % 2 == 0 { p_low } else { p_high };
        let t0 = Instant::now();
        model
            .step(&mut temps, p, Seconds::from_millis(100.0), 5)
            .expect("step");
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        iterations += model.last_step_iterations();
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (times[times.len() / 2], iterations)
}

fn main() {
    let fine = std::env::args().any(|a| a == "--fine");
    let no_seed = std::env::args().any(|a| a == "--no-seed");
    let gate = std::env::args().any(|a| a == "--gate-iters");
    let telemetry = parse_telemetry_flag();
    if telemetry.is_some() {
        enable_for_export();
    }
    let committed = if gate {
        let path = root_record_path("transient");
        match read_bench_records(&path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("--gate-iters: cannot read {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    } else {
        Vec::new()
    };
    let stack = ultrasparc::two_layer_liquid();
    let flow = VolumetricFlow::from_ml_per_minute(600.0);
    let mut cells = vec![1.0, 0.5, 0.25];
    if fine {
        cells.push(0.1); // the paper's grid
    }

    println!("Transient 100 ms sample (5 backward-Euler sub-steps), 2-layer liquid stack");
    println!(
        "{:>9} {:>9} {:>8} {:>11} {:>7}",
        "cell mm", "nodes", "precond", "sample ms", "iters"
    );
    // Solver variants per grid: the ILU(0) and V(1,1)-multigrid
    // baselines, plus `mgfast` — the cheap asymmetric V(0,1) cycle.
    // Ablations that informed the shape (same-run, 100 µm):
    // V(0,1) trades +27% iterations for −35% cycle cost (net ~1.2–1.3×
    // over V(1,1)); weakening the *coarse* chain to Jacobi/none gutted
    // the coarse-grid correction (470/1159 iterations vs 280).
    let variants = [
        (
            "",
            "ilu0",
            PreconditionerKind::Ilu0,
            MgCycleConfig::default(),
        ),
        (
            "-mg",
            "mg",
            PreconditionerKind::Multigrid,
            MgCycleConfig::default(),
        ),
        (
            "-mgfast",
            "mgfast",
            PreconditionerKind::Multigrid,
            MgCycleConfig::cheap(),
        ),
    ];
    let mut records = Vec::new();
    let mut gate_failures = 0usize;
    let mut gate_matches = 0usize;
    for &cell in &cells {
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(cell));
        for &(tag, label, kind, cycle) in &variants {
            let mut cfg = ThermalConfig::default();
            cfg.solver.preconditioner = kind;
            cfg.solver.mg_cycle = cycle;
            let builder = StackThermalBuilder::new(&stack, grid, cfg);
            let mut model = builder.build(Some(flow)).expect("build");
            model.set_transient_warm_seed(!no_seed);
            let p_low = model.uniform_block_power(&stack, |b| {
                if b.is_core() {
                    Watts::new(1.5)
                } else {
                    Watts::new(0.4)
                }
            });
            let p_high = model.uniform_block_power(&stack, |b| {
                if b.is_core() {
                    Watts::new(3.5)
                } else {
                    Watts::new(0.6)
                }
            });
            let (ms, iters) = time_transient(&mut model, &p_low, &p_high);
            println!(
                "{:>9.2} {:>9} {:>8} {:>11.2} {:>7}",
                cell,
                model.node_count(),
                label,
                ms,
                iters,
            );
            let case = format!("transient{}{}", if no_seed { "-noseed" } else { "" }, tag);
            if gate {
                if let Some(c) = committed
                    .iter()
                    .find(|c| c.case == case && c.grid_mm == cell && c.iters > 0)
                {
                    gate_matches += 1;
                    if c.iters != iters {
                        eprintln!(
                            "ITERATION GATE: {case} at {cell} mm measured {iters}, \
                             committed {}",
                            c.iters
                        );
                        gate_failures += 1;
                    }
                }
            }
            records.push(PerfRecord {
                case,
                grid_mm: cell,
                nodes: model.node_count(),
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
    if gate {
        // The gate compares against the committed record; it must not
        // rewrite it.
        match write_scratch_records("transient", &records) {
            Ok(path) => println!("\nperf records: {}", path.display()),
            Err(e) => println!("\nperf records not written: {e}"),
        }
    } else {
        report_bench_records("transient", &records);
    }
    if let Some(path) = &telemetry {
        export_snapshot(path);
    }
    if gate {
        assert_eq!(
            gate_failures, 0,
            "{gate_failures} iteration-gate mismatches against the committed record"
        );
        // A gate that compared nothing gates nothing: renamed cases or a
        // truncated committed record must fail loudly, not pass quietly.
        assert!(
            gate_matches > 0,
            "iteration gate matched no committed records — regenerate BENCH_transient.json"
        );
        println!(
            "iteration gate: {gate_matches} measured counts match the committed record exactly"
        );
    }
}
