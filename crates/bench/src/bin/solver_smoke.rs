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
//!
//! The binary also gates the `VFC_NUM_THREADS` determinism contract end
//! to end: it re-executes itself with the variable set to 1 and to 4
//! (`--determinism-child` mode) and asserts the children report
//! bit-identical iterates — iteration counts and a bit-exact hash of
//! the solution vectors.

use std::time::Instant;

use vfc::floorplan::{ultrasparc, GridSpec};
use vfc::num::{BiCgStab, PreconditionerKind, SolverWorkspace};
use vfc::thermal::{StackThermalBuilder, ThermalConfig};
use vfc::units::{Length, Seconds, VolumetricFlow, Watts};

/// FNV-1a over the exact bit patterns of a vector — any single-bit
/// difference between runs changes the digest.
fn bit_hash(v: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in v {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Child mode: solve the smoke system on the global pool (sized by the
/// parent's `VFC_NUM_THREADS`) and print a one-line iterate fingerprint.
/// Runs on the 0.25 mm grid (9200 nodes) — above `PAR_MIN_LEN`, so the
/// pooled matvecs, reductions and level-scheduled sweeps really execute
/// multi-threaded in the 4-thread child.
fn determinism_child() {
    let stack = ultrasparc::two_layer_liquid();
    let grid =
        GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(0.25));
    let mut model = StackThermalBuilder::new(&stack, grid, ThermalConfig::default())
        .build(Some(VolumetricFlow::from_ml_per_minute(600.0)))
        .expect("build");
    assert!(
        model.node_count() >= vfc::num::PAR_MIN_LEN,
        "determinism child must exercise the parallel paths"
    );
    let p = model.uniform_block_power(&stack, |b| {
        if b.is_core() {
            Watts::new(3.0)
        } else {
            Watts::new(0.5)
        }
    });
    let steady = model.steady_state(&p, None).expect("steady");
    let mut temps = steady.clone();
    let p_hot = model.uniform_block_power(&stack, |b| {
        if b.is_core() {
            Watts::new(3.8)
        } else {
            Watts::new(0.6)
        }
    });
    let mut step_iters = Vec::new();
    for _ in 0..3 {
        model
            .step(&mut temps, &p_hot, Seconds::from_millis(100.0), 5)
            .expect("step");
        step_iters.push(model.last_step_iterations());
    }

    // The same scenario multigrid-preconditioned: the hierarchy's
    // partitioned transfers and Galerkin sweeps join the fingerprint.
    let mut mg_cfg = ThermalConfig::default();
    mg_cfg.solver.preconditioner = PreconditionerKind::Multigrid;
    let mut mg_model = StackThermalBuilder::new(&stack, grid, mg_cfg)
        .build(Some(VolumetricFlow::from_ml_per_minute(600.0)))
        .expect("build");
    let mg_steady = mg_model.steady_state(&p, None).expect("steady");
    let mut mg_temps = mg_steady.clone();
    let mut mg_step_iters = Vec::new();
    for _ in 0..3 {
        mg_model
            .step(&mut mg_temps, &p_hot, Seconds::from_millis(100.0), 5)
            .expect("step");
        mg_step_iters.push(mg_model.last_step_iterations());
    }

    println!(
        "threads={} steady_hash={:016x} step_iters={:?} transient_hash={:016x} \
         mg_steady_hash={:016x} mg_step_iters={:?} mg_transient_hash={:016x}",
        vfc::num::KernelPool::global().threads(),
        bit_hash(&steady),
        step_iters,
        bit_hash(&temps),
        bit_hash(&mg_steady),
        mg_step_iters,
        bit_hash(&mg_temps),
    );
}

/// Parent side: run the child under `VFC_NUM_THREADS` 1 and 4, strip the
/// thread count off each fingerprint, and require the rest to match.
fn gate_thread_determinism() {
    let exe = std::env::current_exe().expect("own path");
    let fingerprints: Vec<String> = ["1", "4"]
        .iter()
        .map(|threads| {
            let out = std::process::Command::new(&exe)
                .arg("--determinism-child")
                .env(vfc::num::THREADS_ENV, threads)
                .output()
                .expect("spawning determinism child");
            assert!(
                out.status.success(),
                "determinism child (VFC_NUM_THREADS={threads}) failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let text = String::from_utf8(out.stdout).expect("child output is utf-8");
            let line = text.trim();
            println!("  child {line}");
            assert!(
                line.starts_with(&format!("threads={threads} ")),
                "child did not honour VFC_NUM_THREADS={threads}: {line}"
            );
            line.split_once(' ').expect("fingerprint payload").1.into()
        })
        .collect();
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "VFC_NUM_THREADS changed the iterates"
    );
}

fn main() {
    if std::env::args().any(|a| a == "--determinism-child") {
        determinism_child();
        return;
    }
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
    let pool = std::sync::Arc::clone(model.kernel_pool());
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
        let precond = kind
            .build_on(a, std::sync::Arc::clone(&pool), Some(schedules))
            .expect("factorization");
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

    // Thread-count determinism, through the environment variable the
    // deployment knobs actually use.
    println!("VFC_NUM_THREADS determinism (1 vs 4):");
    gate_thread_determinism();
    println!("ok: iteration ordering, budgets, agreement, patch identity");
    println!("    and thread-count determinism hold");
}
