//! The transient scenario behind `transient_bench` and the iteration
//! gate: the cost of one 100 ms sample (5 backward-Euler sub-steps) on
//! the 2-layer liquid stack at 600 ml/min, versus grid resolution and
//! solver variant — the workload behind the paper's Fig. 6/7 runs,
//! which take 3000 such samples per configuration.
//!
//! Power alternates between two maps every sample so the warm-seed
//! short-circuit cannot trivialize the solve (the steady tail of a real
//! workload *is* trivialized by it).

use std::time::Instant;

use vfc::floorplan::{ultrasparc, GridSpec};
use vfc::num::{MgCycleConfig, PreconditionerKind};
use vfc::thermal::{StackThermalBuilder, ThermalConfig};
use vfc::units::{Length, Seconds, VolumetricFlow, Watts};

/// Samples timed per (grid, variant) cell.
pub const SAMPLES: usize = 10;

/// Grid cell edges, in mm, whose iteration counts the committed
/// `BENCH_transient.json` pins; `transient_bench --fine` adds the
/// paper's 100 µm grid as an ungated row.
pub const GATED_GRIDS_MM: [f64; 3] = [1.0, 0.5, 0.25];

/// One solver variant of the scenario.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Case name in `BENCH_transient.json`.
    pub case: &'static str,
    /// Short label for tables and the record's `precond` field.
    pub label: &'static str,
    /// Krylov preconditioner.
    pub preconditioner: PreconditionerKind,
    /// V-cycle shape (read only by multigrid).
    pub mg_cycle: MgCycleConfig,
}

/// The solver variants run per grid: the ILU(0) and V(1,1)-multigrid
/// baselines, plus `mgfast` — the cheap asymmetric V(0,1) cycle.
///
/// Ablations that informed the cheap cycle's shape (same-run, 100 µm):
/// V(0,1) trades +27% iterations for −35% cycle cost (net ~1.2–1.3×
/// over V(1,1)); weakening the *coarse* chain to Jacobi/none gutted
/// the coarse-grid correction (470/1159 iterations vs 280).
pub fn variants() -> [Variant; 3] {
    [
        Variant {
            case: "transient",
            label: "ilu0",
            preconditioner: PreconditionerKind::Ilu0,
            mg_cycle: MgCycleConfig::default(),
        },
        Variant {
            case: "transient-mg",
            label: "mg",
            preconditioner: PreconditionerKind::Multigrid,
            mg_cycle: MgCycleConfig::default(),
        },
        Variant {
            case: "transient-mgfast",
            label: "mgfast",
            preconditioner: PreconditionerKind::Multigrid,
            mg_cycle: MgCycleConfig::cheap(),
        },
    ]
}

/// One scenario run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Node count of the solved system.
    pub nodes: usize,
    /// Median wall-clock milliseconds of one timed sample.
    pub median_ms: f64,
    /// Krylov iterations of each timed sample, in order —
    /// bit-deterministic, so gates compare them exactly.
    pub sample_iters: Vec<usize>,
    /// The temperature field after the last sample.
    pub temps: Vec<f64>,
}

impl Run {
    /// Total Krylov iterations over the timed samples (the steady start
    /// and the warm-up sample are excluded).
    pub fn iterations(&self) -> usize {
        self.sample_iters.iter().sum()
    }
}

/// Runs the scenario on a `cell_mm` grid under `variant`: a steady
/// start, one warm-up sample (factors the backward-Euler operator,
/// sizes the scratch), then [`SAMPLES`] timed samples.
///
/// # Panics
///
/// Panics if the model fails to build or a solve fails.
pub fn run(cell_mm: f64, variant: &Variant) -> Run {
    let stack = ultrasparc::two_layer_liquid();
    let grid = GridSpec::from_cell_size(
        stack.tiers()[0].floorplan(),
        Length::from_millimeters(cell_mm),
    );
    let mut cfg = ThermalConfig::default();
    cfg.solver.preconditioner = Some(variant.preconditioner);
    cfg.solver.mg_cycle = variant.mg_cycle;
    let mut model = StackThermalBuilder::new(&stack, grid, cfg)
        .build(Some(VolumetricFlow::from_ml_per_minute(600.0)))
        .expect("build");
    let power = |core: f64, other: f64| {
        model.uniform_block_power(&stack, |b| {
            Watts::new(if b.is_core() { core } else { other })
        })
    };
    let p_low = power(1.5, 0.4);
    let p_high = power(3.5, 0.6);
    let sample = Seconds::from_millis(100.0);

    let mut temps = model.steady_state(&p_low, None).expect("steady start");
    model
        .step(&mut temps, &p_high, sample, 5)
        .expect("warm-up step");
    let mut sample_ms = Vec::with_capacity(SAMPLES);
    let mut sample_iters = Vec::with_capacity(SAMPLES);
    for s in 0..SAMPLES {
        let p = if s % 2 == 0 { &p_low } else { &p_high };
        let t0 = Instant::now();
        model.step(&mut temps, p, sample, 5).expect("step");
        sample_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        sample_iters.push(model.last_step_iterations());
    }
    sample_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Run {
        nodes: model.node_count(),
        median_ms: sample_ms[SAMPLES / 2],
        sample_iters,
        temps,
    }
}
