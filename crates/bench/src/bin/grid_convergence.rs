//! Grid-convergence study: steady-state Tmax vs thermal grid resolution,
//! down to the paper's 100 µm cells, with per-preconditioner solve times.
//!
//! The paper simulates on a 100 µm × 100 µm grid; the reproduction
//! defaults to 1 mm for speed. This binary quantifies what that trades
//! away — the steady-state maximum junction temperature of the 2-layer
//! liquid stack at every resolution — and what the preconditioned,
//! workspace-reusing solver stack buys back: per-solve times for
//! no/Jacobi/ILU(0) preconditioning at each grid (factorizations cached,
//! as in the engine's sample loop).
//!
//! Usage: grid_convergence `[--fine]`   (--fine adds the paper's 100 µm
//! point, ~58k nodes, and the embedded-channel 50 µm point, ~230k nodes;
//! the two fine points time only the practical preconditioners — ILU(0)
//! and multigrid — as unpreconditioned solves there would dominate the
//! whole study)

use std::time::Instant;

use vfc::floorplan::{ultrasparc, BlockKind, GridSpec};
use vfc::num::PreconditionerKind;
use vfc::prelude::*;
use vfc::thermal::{StackThermalBuilder, ThermalConfig};
use vfc::units::{Length, VolumetricFlow, Watts};
use vfc_bench::perf::{cpu_count, host_label, precond_label, report_bench_records, PerfRecord};

/// Median steady-solve time over `reps` repeats (cold start each solve;
/// preconditioner factored once and cached inside the model).
fn time_solve(model: &mut vfc::thermal::ThermalModel, p: &[f64], reps: usize) -> (f64, f64) {
    // Warm-up solve: factors the preconditioner, sizes the workspace.
    let temps = model.steady_state(p, None).expect("solve");
    let tmax = model.max_junction_temperature(&temps).value();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let _ = model.steady_state(p, None).expect("solve");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (times[times.len() / 2], tmax)
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
        "{:>9} {:>10} {:>10} {:>12} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "cell mm",
        "nodes",
        "Tmax C",
        "dT vs prev",
        "none ms",
        "jac ms",
        "ilu0 ms",
        "mg ms",
        "speedup"
    );
    let mut prev: Option<f64> = None;
    for cell in cells {
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(cell));
        let reps = if grid.cell_count() > 20_000 { 1 } else { 3 };
        // Below 100 µm only the practical preconditioners get timed.
        let kinds: &[PreconditionerKind] = if cell < 0.1 - 1e-9 {
            &[PreconditionerKind::Ilu0, PreconditionerKind::Multigrid]
        } else {
            &[
                PreconditionerKind::Identity,
                PreconditionerKind::Jacobi,
                PreconditionerKind::Ilu0,
                PreconditionerKind::Multigrid,
            ]
        };
        let mut times: Vec<f64> = Vec::new();
        let mut tmaxes: Vec<f64> = Vec::new();
        let mut nodes = 0;
        for &kind in kinds {
            let mut cfg = ThermalConfig::default();
            cfg.solver.preconditioner = kind;
            let builder = StackThermalBuilder::new(&stack, grid, cfg);
            let mut model = builder.build(Some(flow)).expect("build");
            nodes = model.node_count();
            let p = model.uniform_block_power(&stack, |b| match b.kind() {
                BlockKind::Core => Watts::new(2.9 + 0.5),
                BlockKind::L2Cache => Watts::new(1.28 + 0.57),
                BlockKind::Crossbar => Watts::new(1.4 + 0.45),
                _ => Watts::new(0.3),
            });
            let (ms, tmax) = time_solve(&mut model, &p, reps);
            times.push(ms);
            tmaxes.push(tmax);
            records.push(PerfRecord {
                case: "steady".into(),
                grid_mm: cell,
                nodes,
                precond: precond_label(kind).into(),
                ms,
                // The steady scenario does not track Krylov iterations
                // (solver_smoke gates those); 0 = "not recorded".
                iters: 0,
                host: host_label(),
                cpus: cpu_count(),
            });
        }
        // All three preconditioners solve to the same 1e-10 residual; the
        // answers must agree far below the printed precision.
        let spread = tmaxes.iter().fold(f64::MIN, |m, &v| m.max(v))
            - tmaxes.iter().fold(f64::MAX, |m, &v| m.min(v));
        assert!(
            spread < 1e-5,
            "preconditioners disagree on Tmax by {spread} K"
        );
        let tmax = *tmaxes.last().unwrap();
        let col = |kind: PreconditionerKind| {
            kinds
                .iter()
                .position(|&k| k == kind)
                .map(|i| format!("{:.1}", times[i]))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:>9.2} {:>10} {:>10.2} {:>12} {:>9} {:>9} {:>9} {:>9} {:>7.1}x",
            cell,
            nodes,
            tmax,
            prev.map(|p| format!("{:+.2}", tmax - p))
                .unwrap_or_else(|| "-".into()),
            col(PreconditionerKind::Identity),
            col(PreconditionerKind::Jacobi),
            col(PreconditionerKind::Ilu0),
            col(PreconditionerKind::Multigrid),
            times[0] / times.last().unwrap().max(1e-9),
        );
        prev = Some(tmax);
    }
    println!("\n(times are per steady solve with the preconditioner factored once and");
    println!(" cached, as in the engine's 100 ms sample loop; the controller LUT is");
    println!(" characterized on the same grid it controls, so resolution shifts both");
    println!(" sides of the comparison consistently)");
    report_bench_records("grid_convergence", &records);
}
