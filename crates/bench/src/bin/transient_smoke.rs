//! Transient-path regression smoke for CI: deterministic gates on the
//! warm-seeded backward-Euler stepping (mirrors `solver_smoke`, which
//! gates the steady path).
//!
//! Timing is useless on shared runners, so everything asserted here is
//! exact for a given matrix and solver:
//!
//! * a power-step transient on the 0.25 mm liquid grid (9200 nodes)
//!   stays inside a per-run Krylov iteration budget a regressed solver
//!   or preconditioner would blow through;
//! * the `M⁻¹r` warm seed never costs iterations versus the plain warm
//!   start, and saves some over the run;
//! * stepping from a converged state short-circuits at zero iterations
//!   without touching a single bit of the state;
//! * the multigrid-preconditioned scenario beats ILU(0) on total
//!   Krylov iterations and stays inside its own fixed budget;
//! * the cheap asymmetric V(0,1) cycle (`transient_bench`'s `mgfast`
//!   configuration) stays inside its own budget and converges to the
//!   symmetric cycle's temperatures within solver tolerance — the
//!   observable fact behind keeping the cycle shape out of simulation
//!   cache keys.

use vfc::floorplan::{ultrasparc, GridSpec};
use vfc::num::{MgCycleConfig, PreconditionerKind};
use vfc::thermal::{StackThermalBuilder, ThermalConfig, ThermalModel};
use vfc::units::{Length, Seconds, VolumetricFlow, Watts};

const SAMPLES: usize = 20;
const SUBSTEPS: usize = 5;

/// Runs the power-step scenario; returns per-sample iteration counts and
/// the final state.
fn run_scenario(model: &mut ThermalModel) -> (Vec<usize>, Vec<f64>) {
    let stack = ultrasparc::two_layer_liquid();
    let p_low = model.uniform_block_power(&stack, |b| {
        if b.is_core() {
            Watts::new(1.2)
        } else {
            Watts::new(0.4)
        }
    });
    let p_high = model.uniform_block_power(&stack, |b| {
        if b.is_core() {
            Watts::new(3.2)
        } else {
            Watts::new(0.6)
        }
    });
    let mut temps = model.steady_state(&p_low, None).expect("steady start");
    let mut iters = Vec::with_capacity(SAMPLES);
    for s in 0..SAMPLES {
        // Step up, hold, step down, hold — exercises both the hard
        // (power jump) and easy (converging tail) sample shapes.
        let p = if (s / 5) % 2 == 0 { &p_high } else { &p_low };
        model
            .step(&mut temps, p, Seconds::from_millis(100.0), SUBSTEPS)
            .expect("step");
        iters.push(model.last_step_iterations());
    }
    (iters, temps)
}

fn build_model() -> ThermalModel {
    build_model_with(PreconditionerKind::Ilu0, MgCycleConfig::default())
}

fn build_model_with(preconditioner: PreconditionerKind, mg_cycle: MgCycleConfig) -> ThermalModel {
    let stack = ultrasparc::two_layer_liquid();
    let grid =
        GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(0.25));
    let mut cfg = ThermalConfig::default();
    cfg.solver.preconditioner = preconditioner;
    cfg.solver.mg_cycle = mg_cycle;
    StackThermalBuilder::new(&stack, grid, cfg)
        .build(Some(VolumetricFlow::from_ml_per_minute(600.0)))
        .expect("build")
}

/// Runs the scenario for one solver configuration and prints its
/// iteration profile.
fn scenario(
    label: &str,
    preconditioner: PreconditionerKind,
    mg_cycle: MgCycleConfig,
) -> (Vec<usize>, Vec<f64>) {
    let (iters, temps) = run_scenario(&mut build_model_with(preconditioner, mg_cycle));
    let total: usize = iters.iter().sum();
    println!(
        "{label}: {total:>4} Krylov iterations, per-sample {:?}",
        &iters[..6.min(iters.len())]
    );
    assert!(total > 0, "{label}: scenario must exercise the solver");
    (iters, temps)
}

fn main() {
    println!("transient smoke: liquid 0.25 mm grid, {SAMPLES} samples x {SUBSTEPS} sub-steps");

    // Deterministic budget: the scenario measures 560 iterations with
    // ILU(0) + warm seed; the headroom only lets a real regression (lost
    // preconditioner, broken warm start) trip it.
    let reference = scenario("ilu0", PreconditionerKind::Ilu0, MgCycleConfig::default());
    let ilu_total: usize = reference.0.iter().sum();
    assert!(
        ilu_total <= 900,
        "transient iteration budget regressed: {ilu_total} > 900"
    );

    // Multigrid: saves iterations over ILU(0) and stays inside its own
    // fixed budget. The scenario measures far fewer iterations than
    // ILU(0) takes; the budget only lets a real regression (lost
    // hierarchy, broken Galerkin re-fold) trip it.
    let (mg_iters, mg_temps) = scenario(
        "multigrid",
        PreconditionerKind::Multigrid,
        MgCycleConfig::default(),
    );
    let mg_total: usize = mg_iters.iter().sum();
    assert!(
        mg_total <= 300,
        "multigrid transient iteration budget regressed: {mg_total} > 300"
    );
    assert!(
        mg_total < ilu_total,
        "multigrid saved nothing over ILU(0): {mg_total} vs {ilu_total}"
    );

    // The cheap V(0,1) cycle `transient_bench` gates as `mgfast` trades
    // iterations for cheaper applies; the budget holds the premium over
    // the symmetric cycle to what a healthy solver measures (headroom
    // included), so a broken coarse chain trips it. Its converged
    // temperatures match the V(1,1) run to well under a millikelvin —
    // the solver-tolerance equivalence that justifies keeping the cycle
    // shape out of simulation cache keys.
    let (fast_iters, fast_temps) = scenario(
        "mg cheap cycle",
        PreconditionerKind::Multigrid,
        MgCycleConfig::cheap(),
    );
    let fast_total: usize = fast_iters.iter().sum();
    assert!(
        fast_total <= 300,
        "cheap-cycle iteration budget regressed: {fast_total} > 300"
    );
    let max_dev = fast_temps
        .iter()
        .zip(&mg_temps)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_dev < 1e-6,
        "cycle shape moved converged temperatures by {max_dev} K"
    );
    println!(
        "  vs symmetric V(1,1): {fast_total} vs {mg_total} iterations, max |dT| {max_dev:.2e} K"
    );

    // Warm seed: never worse per sample, strictly better over the run.
    let mut plain = build_model();
    plain.set_transient_warm_seed(false);
    let (plain_iters, plain_temps) = run_scenario(&mut plain);
    let (seeded_iters, seeded_temps) = reference;
    assert!(
        seeded_iters.iter().zip(&plain_iters).all(|(s, p)| s <= p),
        "warm seed cost iterations somewhere: {seeded_iters:?} vs {plain_iters:?}"
    );
    let (seeded_total, plain_total): (usize, usize) =
        (seeded_iters.iter().sum(), plain_iters.iter().sum());
    assert!(
        seeded_total < plain_total,
        "warm seed saved nothing: {seeded_total} vs {plain_total}"
    );
    assert_eq!(seeded_temps.len(), plain_temps.len());
    let max_dev = seeded_temps
        .iter()
        .zip(&plain_temps)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_dev < 1e-6,
        "warm seed moved converged temperatures by {max_dev} K"
    );
    println!(
        "warm seed: {seeded_total} vs {plain_total} iterations (plain), max |dT| {max_dev:.2e} K"
    );

    // Short-circuit: stepping from the converged state is a bit-exact
    // no-op at zero iterations.
    let mut model = build_model();
    let stack = ultrasparc::two_layer_liquid();
    let p = model.uniform_block_power(&stack, |b| {
        if b.is_core() {
            Watts::new(2.0)
        } else {
            Watts::new(0.5)
        }
    });
    let steady = model.steady_state(&p, None).expect("steady");
    let mut temps = steady.clone();
    model
        .step(&mut temps, &p, Seconds::from_millis(100.0), SUBSTEPS)
        .expect("step");
    assert_eq!(
        model.last_step_iterations(),
        0,
        "converged sample must short-circuit"
    );
    assert!(
        temps
            .iter()
            .zip(&steady)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "short-circuit touched the state"
    );
    println!("ok: iteration budgets, cycle agreement, warm-seed savings and short-circuit hold");
}
