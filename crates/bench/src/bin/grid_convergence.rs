//! Grid-convergence study: steady-state Tmax vs thermal grid resolution,
//! down to the paper's 100 µm cells, with per-preconditioner solve times.
//!
//! The paper simulates on a 100 µm × 100 µm grid; the reproduction
//! defaults to 1 mm for speed. This binary quantifies what that trades
//! away — the steady-state maximum junction temperature of the 2-layer
//! liquid stack at every resolution — and what the preconditioned,
//! workspace-reusing solver stack buys back: per-solve times for
//! ILU(0) and multigrid preconditioning at each grid (factorizations
//! cached, as in the engine's sample loop) and multigrid's speedup over
//! ILU(0). It also splits a grid's preconditioner set-up in two: the
//! one-time pattern analysis (`schedules`: level sets, ILU(0) plan,
//! stencil decomposition and multigrid hierarchy) and one numeric
//! refactorization per preconditioner kind on a matrix sharing it
//! (`factor`) — what every pump setting and backward-Euler operator
//! pays.
//!
//! Every time is the median of [`REPS`] repeats.
//!
//! Usage: grid_convergence `[--fine]`   (--fine adds the paper's 100 µm
//! point, ~58k nodes, and the embedded-channel 50 µm point, ~230k nodes.
//! Only a --fine run rewrites the committed record.)

use std::time::Instant;

use vfc::floorplan::{ultrasparc, BlockKind, GridSpec};
use vfc::num::{KernelSchedules, PreconditionerKind};
use vfc::prelude::*;
use vfc::thermal::{StackThermalBuilder, ThermalConfig};
use vfc::units::{Length, VolumetricFlow, Watts};
use vfc_bench::perf::{cpu_count, host_label, precond_label, report_bench_records, PerfRecord};

/// Repeats behind every reported time (the median is reported).
const REPS: usize = 5;

/// The preconditioners timed on every grid.
const KINDS: [PreconditionerKind; 2] = [PreconditionerKind::Ilu0, PreconditionerKind::Multigrid];

/// Median wall time of `REPS` calls of `f`, in ms.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[REPS / 2]
}

/// Median steady-solve time (cold start each solve; preconditioner
/// factored once and cached inside the model) and the solution's Tmax.
fn time_solve(model: &mut vfc::thermal::ThermalModel, p: &[f64]) -> (f64, f64) {
    // Warm-up solve: factors the preconditioner, sizes the workspace.
    let temps = model.steady_state(p, None).expect("solve");
    let tmax = model.max_junction_temperature(&temps).value();
    let ms = median_ms(|| {
        model.steady_state(p, None).expect("solve");
    });
    (ms, tmax)
}

fn main() {
    let fine = std::env::args().any(|a| a == "--fine");
    let stack = ultrasparc::two_layer_liquid();
    let pump = Pump::laing_ddc();
    let flow: VolumetricFlow = pump.per_cavity_flow(pump.setting(2).unwrap(), 3);
    let mut records: Vec<PerfRecord> = Vec::new();

    let mut cells = vec![2.0, 1.0, 0.5, 0.25];
    if fine {
        cells.push(0.1); // the paper's grid
        cells.push(0.05); // embedded-channel studies
    }
    println!(
        "Grid convergence, 2-layer liquid stack, setting 3 ({:.0} ml/min/cavity):",
        flow.to_ml_per_minute()
    );
    println!(
        "{:>9} {:>10} {:>10} {:>12} {:>9} {:>9} {:>8}",
        "cell mm", "nodes", "Tmax C", "dT vs prev", "ilu0 ms", "mg ms", "speedup"
    );
    let mut prev: Option<f64> = None;
    let mut setup_rows = Vec::new();
    for cell in cells {
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(cell));
        let mut times: Vec<f64> = Vec::new();
        let mut tmaxes: Vec<f64> = Vec::new();
        let mut nodes = 0;
        let record = |case: &str, nodes: usize, precond: &str, ms: f64| PerfRecord {
            case: case.into(),
            grid_mm: cell,
            nodes,
            precond: precond.into(),
            ms,
            // These scenarios do not track Krylov iterations (a
            // `vfc_thermal::model` test gates those); 0 = "not recorded".
            iters: 0,
            host: host_label(),
            cpus: cpu_count(),
        };
        for kind in KINDS {
            let mut cfg = ThermalConfig::default();
            cfg.solver.preconditioner = Some(kind);
            let builder = StackThermalBuilder::new(&stack, grid, cfg);
            let mut model = builder.build(Some(flow)).expect("build");
            nodes = model.node_count();
            let p = model.uniform_block_power(&stack, |b| match b.kind() {
                BlockKind::Core => Watts::new(2.9 + 0.5),
                BlockKind::L2Cache => Watts::new(1.28 + 0.57),
                BlockKind::Crossbar => Watts::new(1.4 + 0.45),
                _ => Watts::new(0.3),
            });
            let (ms, tmax) = time_solve(&mut model, &p);
            times.push(ms);
            tmaxes.push(tmax);
            records.push(record("steady", nodes, precond_label(kind), ms));
        }

        // Set-up split: the pattern analysis the skeleton does once per
        // grid, then one numeric refactorization per kind against it.
        let model = StackThermalBuilder::new(&stack, grid, ThermalConfig::default())
            .build(Some(flow))
            .expect("build");
        let a = model.conductance_matrix();
        let coords = model.layout().grid_coords();
        let schedules_ms = median_ms(|| {
            std::hint::black_box(KernelSchedules::for_grid_matrix(a, &coords));
        });
        records.push(record("schedules", nodes, "-", schedules_ms));
        let schedules = KernelSchedules::for_grid_matrix(a, &coords);
        let mut factor_ms = Vec::new();
        for kind in KINDS {
            let ms = median_ms(|| {
                std::hint::black_box(kind.build(a, &schedules).expect("factor"));
            });
            factor_ms.push(ms);
            records.push(record("factor", nodes, precond_label(kind), ms));
        }
        setup_rows.push((cell, nodes, schedules_ms, factor_ms));
        // Both preconditioners solve to the same 1e-10 residual; the
        // answers must agree far below the printed precision.
        let spread = (tmaxes[0] - tmaxes[1]).abs();
        assert!(
            spread < 1e-5,
            "preconditioners disagree on Tmax by {spread} K"
        );
        let tmax = tmaxes[1];
        println!(
            "{:>9.2} {:>10} {:>10.2} {:>12} {:>9.1} {:>9.1} {:>7.1}x",
            cell,
            nodes,
            tmax,
            prev.map(|p| format!("{:+.2}", tmax - p))
                .unwrap_or_else(|| "-".into()),
            times[0],
            times[1],
            times[0] / times[1].max(1e-9),
        );
        prev = Some(tmax);
    }
    println!("\n(times are per steady solve with the preconditioner factored once and");
    println!(" cached, as in the engine's 100 ms sample loop; the controller LUT is");
    println!(" characterized on the same grid it controls, so resolution shifts both");
    println!(" sides of the comparison consistently)");

    println!("\nPreconditioner set-up: one-time pattern analysis, then one numeric");
    println!("refactorization per kind on a matrix sharing it (median of {REPS}):");
    println!(
        "{:>9} {:>10} {:>12} {:>10} {:>10}",
        "cell mm", "nodes", "schedules ms", "ilu0 ms", "mg ms"
    );
    for (cell, nodes, schedules_ms, factor_ms) in &setup_rows {
        println!(
            "{:>9.2} {:>10} {:>12.3} {:>10.3} {:>10.3}",
            cell, nodes, schedules_ms, factor_ms[0], factor_ms[1],
        );
    }
    report_bench_records("grid_convergence", &records, fine);
}
