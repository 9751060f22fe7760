//! Thermal-solver regression smoke for CI: deterministic iteration-count
//! and consistency gates on the preconditioned solver stack.
//!
//! Timing-based gates are flaky on shared CI runners, so this binary
//! asserts on quantities that are exact for a given matrix and solver:
//!
//! * each preconditioner converges on the 0.5 mm (≥2300-node) liquid
//!   steady state within an iteration budget that a regressed solver
//!   would blow through;
//! * ILU(0) needs strictly fewer iterations than Jacobi, which needs
//!   strictly fewer than no preconditioning; multigrid needs no more
//!   than ILU(0) and stays inside a fixed V-cycle budget per solve;
//! * all preconditioners agree on the solution (max |ΔT| ≤ 10 µK);
//! * a flow-patched model solves to the same answer as a from-scratch
//!   build at that flow.
//!
//! Exits nonzero (assert) on any violation; prints the measured numbers
//! so CI logs double as a coarse performance record.

use std::time::Instant;

use vfc::floorplan::{ultrasparc, GridSpec};
use vfc::num::{BiCgStab, PreconditionerKind, SolverWorkspace};
use vfc::thermal::{StackThermalBuilder, ThermalConfig};
use vfc::units::{Length, VolumetricFlow, Watts};

fn main() {
    let stack = ultrasparc::two_layer_liquid();
    let grid =
        GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(0.5));
    let builder = StackThermalBuilder::new(&stack, grid, ThermalConfig::default());
    let flow = VolumetricFlow::from_ml_per_minute(600.0);
    let model = builder.build(Some(flow)).expect("build");
    let n = model.node_count();
    assert!(n >= 2300, "smoke grid must be the fine case, got {n} nodes");

    let p = model.uniform_block_power(&stack, |b| {
        if b.is_core() {
            Watts::new(3.0)
        } else {
            Watts::new(0.5)
        }
    });
    let a = model.conductance_matrix();
    let rhs: Vec<f64> = p
        .iter()
        .zip(model.boundary_injection())
        .map(|(pi, bi)| pi + bi)
        .collect();
    let solver = BiCgStab::default();
    let mut ws = SolverWorkspace::with_order(n);

    println!("thermal solver smoke: liquid 0.5 mm grid, {n} nodes");
    println!(
        "{:>12} {:>7} {:>8} {:>12} {:>10}",
        "precond", "iters", "vcycles", "residual", "solve ms"
    );
    let schedules = model.skeleton().schedules();
    let mut iters = Vec::new();
    let mut vcycles = Vec::new();
    let mut solutions: Vec<Vec<f64>> = Vec::new();
    for kind in [
        PreconditionerKind::Identity,
        PreconditionerKind::Jacobi,
        PreconditionerKind::Ilu0,
        PreconditionerKind::Multigrid,
    ] {
        let precond = kind.build(a, Some(schedules)).expect("factorization");
        let mut x = model.initial_state();
        let t0 = Instant::now();
        let info = solver
            .solve_with(a, &rhs, &mut x, precond.as_ref(), &mut ws)
            .expect("converges");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let cycles = precond.cycles();
        println!(
            "{:>12} {:>7} {:>8} {:>12.2e} {:>10.2}",
            format!("{kind:?}"),
            info.iterations,
            cycles.map_or("-".into(), |c| c.to_string()),
            info.residual,
            ms
        );
        iters.push(info.iterations);
        vcycles.push(cycles);
        solutions.push(x);
    }

    // Deterministic regression gates.
    assert!(
        iters[2] < iters[1] && iters[1] < iters[0],
        "preconditioning must strictly reduce iterations: {iters:?}"
    );
    assert!(
        iters[2] <= 60,
        "ILU(0) iteration count regressed: {} > 60",
        iters[2]
    );
    assert!(
        iters[1] <= 400,
        "Jacobi iteration count regressed: {} > 400",
        iters[1]
    );
    assert!(
        iters[3] <= iters[2],
        "multigrid must not need more iterations than ILU(0): {} vs {}",
        iters[3],
        iters[2]
    );
    assert!(
        iters[3] <= 10,
        "multigrid iteration count regressed: {} > 10 (measured: 3)",
        iters[3]
    );
    // BiCGStab applies the preconditioner twice per iteration, so the
    // V-cycle count per solve is pinned by the iteration gate — a
    // deeper or shallower cycle structure cannot hide behind it.
    let mg_cycles = vcycles[3].expect("multigrid reports its V-cycle count");
    assert!(
        mg_cycles <= 2 * iters[3] as u64 && mg_cycles >= iters[3] as u64,
        "V-cycles per solve out of range: {mg_cycles} for {} iterations",
        iters[3]
    );
    assert!(
        vcycles[..3].iter().all(Option::is_none),
        "only multigrid runs V-cycles"
    );
    let max_dev = solutions[1..]
        .iter()
        .flat_map(|s| s.iter().zip(&solutions[0]).map(|(a, b)| (a - b).abs()))
        .fold(0.0f64, f64::max);
    assert!(
        max_dev < 1e-5,
        "preconditioners disagree on the solution by {max_dev} K"
    );

    // Structure-sharing gate: a patched family member equals a direct
    // build, entry for entry.
    let mut patched = builder
        .build(Some(VolumetricFlow::from_ml_per_minute(300.0)))
        .expect("build");
    patched.set_flow(flow).expect("repatch");
    assert_eq!(
        patched.conductance_matrix().values(),
        model.conductance_matrix().values(),
        "flow patch must reproduce a from-scratch build exactly"
    );

    println!("ok: iteration ordering, budgets, agreement, patch identity hold");
}
