//! Per-kernel microbenchmark on a real thermal matrix: times the CSR
//! and stencil matvec/fused-residual kernels, the level-major ILU(0)
//! triangular sweeps, the O(n) vector passes a Krylov iteration spends
//! the rest of its time in, and the legs of one multigrid V(0,1) cycle —
//! the numbers that explain (or debunk) an end-to-end transient speedup.
//!
//! The probe is a thin client of the `vfc_obs` span layer: every rep
//! runs inside an RAII span and both tables are printed straight from
//! one registry snapshot's per-span means — so this binary doubles as an
//! end-to-end exercise of the telemetry path (`kernel_probe
//! [--telemetry <path>]` also exports that snapshot, `kernel.*` and
//! `mg.*` spans, as JSON).
//!
//! Usage: `kernel_probe [cell_mm] [--telemetry <path>]`
//! (default cell 0.1 mm, the paper's grid)

use vfc::floorplan::{ultrasparc, GridSpec};
use vfc::num::{dot, dot2, norm2, LinearOperator, PreconditionerKind, StencilOp};
use vfc::thermal::{StackThermalBuilder, ThermalConfig};
use vfc::units::{Length, VolumetricFlow, Watts};
use vfc_bench::telemetry::{export_snapshot, parse_telemetry_flag};

/// Runs `f` once to warm up, then `reps` times under a span named
/// `name` — the timings land in the global registry, not a local.
fn probe(name: &'static str, reps: usize, mut f: impl FnMut()) {
    f();
    for _ in 0..reps {
        let _span = vfc::obs::span(name);
        f();
    }
}

fn main() {
    let cell = std::env::args()
        .nth(1)
        .and_then(|a| a.parse::<f64>().ok())
        .unwrap_or(0.1);
    let telemetry = parse_telemetry_flag();
    // The probe *is* a span consumer — it needs the span layer live
    // regardless of VFC_TELEMETRY (reps are spans; off would time
    // nothing).
    vfc::obs::set_level(vfc::obs::TelemetryLevel::Spans);

    let stack = ultrasparc::two_layer_liquid();
    let grid =
        GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(cell));
    let mut model = StackThermalBuilder::new(&stack, grid, ThermalConfig::default())
        .build(Some(VolumetricFlow::from_ml_per_minute(600.0)))
        .expect("build");
    let n = model.node_count();
    let p = model.uniform_block_power(&stack, |b| {
        if b.is_core() {
            Watts::new(3.0)
        } else {
            Watts::new(0.5)
        }
    });
    let x = model.steady_state(&p, None).expect("steady");
    let a = model.conductance_matrix().clone();
    let pat = model
        .skeleton()
        .stencil()
        .expect("stencil decomposes")
        .clone();
    let reps = if n > 20_000 { 50 } else { 500 };

    println!(
        "kernel probe: {n} nodes, {} nnz, {} runs (mean len {:.1}), {} classes",
        a.nnz(),
        pat.run_count(),
        n as f64 / pat.run_count() as f64,
        pat.class_count()
    );

    // Both preconditioners are built, and the V-cycle probed last warmed
    // up, before the reset, which drops their set-up spans and warm-up
    // cycle along with model-building's (thermal.steady etc.): one
    // snapshot then holds exactly the probed kernels and the probed
    // cycles.
    let mut z = vec![0.0; n];
    let mg_reps = reps.min(20);
    let schedules = model.skeleton().schedules();
    let ilu0 = PreconditionerKind::Ilu0.build(&a, schedules).expect("ilu");
    let mg = PreconditionerKind::Multigrid
        .build(&a, schedules)
        .expect("multigrid hierarchy");
    mg.apply(&p, &mut z);
    vfc::obs::reset();

    let mut y = vec![0.0; n];
    probe("kernel.csr_matvec", reps, || a.matvec_into(&x, &mut y));
    let op = StencilOp::new(&pat, a.values());
    probe("kernel.stencil_matvec", reps, || op.matvec_into(&x, &mut y));
    let mut r = vec![0.0; n];
    probe("kernel.stencil_residual", reps, || {
        op.residual_into(&p, &x, &mut r)
    });

    probe("kernel.ilu0_apply_stencil", reps, || ilu0.apply(&r, &mut z));

    probe("kernel.norm2", reps, || {
        std::hint::black_box(norm2(&r));
    });
    // The two reduction pairs BiCGStab co-locates: ‖r‖² with r₀·r as
    // two separate blocked passes vs one fused dot2 pass (bit-identical
    // per product — the fusion only saves the second sweep's memory
    // traffic).
    probe("kernel.dot_pair_separate", reps, || {
        let rr = dot(&r, &r);
        let rho = dot(&x, &r);
        std::hint::black_box((rr, rho));
    });
    probe("kernel.dot_pair_fused", reps, || {
        std::hint::black_box(dot2(&r, &r, &x, &r));
    });
    let mut w = vec![0.0; n];
    probe("kernel.axpy", reps, || {
        for i in 0..n {
            w[i] += 0.5 * r[i];
        }
        std::hint::black_box(&w);
    });

    // V-cycle anatomy: the `mg.*` leg spans the preconditioner records
    // on every apply — where a cycle's milliseconds actually go.
    for _ in 0..mg_reps {
        mg.apply(&r, &mut z);
    }

    let snap = vfc::obs::snapshot();
    let mean = |name: &str| {
        snap.stat(&format!("span.{name}"))
            .map_or(0.0, vfc::obs::Stat::mean_ms)
    };
    println!("{:>28} {:>10} {:>6}", "kernel", "mean ms", "reps");
    for (label, name) in [
        ("csr matvec", "kernel.csr_matvec"),
        ("stencil matvec", "kernel.stencil_matvec"),
        ("stencil fused residual", "kernel.stencil_residual"),
        ("ilu0 apply (stencil)", "kernel.ilu0_apply_stencil"),
        ("norm2", "kernel.norm2"),
        ("dot pair (2 passes)", "kernel.dot_pair_separate"),
        ("dot pair (fused dot2)", "kernel.dot_pair_fused"),
        ("axpy pass", "kernel.axpy"),
    ] {
        let stat = snap.stat(&format!("span.{name}")).expect("probed span");
        println!("{label:>28} {:>10.4} {:>6}", stat.mean_ms(), stat.count);
    }
    println!(
        "matvec speedup {:.2}x, dot-pair fusion {:.2}x",
        mean("kernel.csr_matvec") / mean("kernel.stencil_matvec").max(1e-12),
        mean("kernel.dot_pair_separate") / mean("kernel.dot_pair_fused").max(1e-12)
    );

    println!("\n{:>28} {:>10}", "V(0,1) cycle leg", "mean ms");
    let mut total = 0.0;
    for (label, name) in [
        ("restrict", "mg.restrict"),
        ("coarse chain", "mg.coarse"),
        ("prolong", "mg.prolong"),
        ("post-smooth", "mg.post_smooth"),
    ] {
        let ms = snap
            .stat(&format!("span.{name}"))
            .map_or(0.0, vfc::obs::Stat::mean_ms);
        total += ms;
        println!("{label:>28} {ms:>10.4}");
    }
    println!("{:>28} {total:>10.4}  ({mg_reps} applies)", "whole cycle");
    if let Some(path) = &telemetry {
        export_snapshot(path);
    }
}
