//! The transient scenario behind `transient_bench` and the iteration
//! gate: the cost of one 100 ms sample (5 backward-Euler sub-steps) on
//! the 2-layer liquid stack at 600 ml/min, versus grid resolution and
//! preconditioner (ILU(0) and the V(0,1) multigrid cycle) — the
//! workload behind the paper's Fig. 6/7 runs, which take 3000 such
//! samples per configuration.
//!
//! Power alternates between two maps every sample so the warm-seed
//! short-circuit cannot trivialize the solve (the steady tail of a real
//! workload *is* trivialized by it).

use std::time::Instant;

use vfc::floorplan::{ultrasparc, GridSpec};
use vfc::num::PreconditionerKind;
use vfc::thermal::{StackThermalBuilder, ThermalConfig};
use vfc::units::{Length, Seconds, VolumetricFlow, Watts};

use crate::perf::precond_label;

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
    /// Krylov preconditioner.
    pub preconditioner: PreconditionerKind,
}

impl Variant {
    /// Short label for tables and the record's `precond` field.
    pub fn label(&self) -> &'static str {
        precond_label(self.preconditioner)
    }
}

/// The solver variants run per grid: ILU(0), which the grid rule picks
/// up to 0.25 mm, and multigrid (the V(0,1) cycle), which it picks on
/// the 100 µm grid.
pub fn variants() -> [Variant; 2] {
    [
        Variant {
            case: "transient",
            preconditioner: PreconditionerKind::Ilu0,
        },
        Variant {
            case: "transient-mg",
            preconditioner: PreconditionerKind::Multigrid,
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
