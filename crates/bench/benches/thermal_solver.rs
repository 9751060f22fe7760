//! Thermal-solver microbenchmarks: steady-state and transient cost vs
//! grid resolution and preconditioner, for liquid- and air-cooled stacks.
//!
//! Each steady-state case is benchmarked with preconditioning off
//! (`none`) and with the default ILU(0) (`ilu0`), so the payoff of the
//! preconditioned, workspace-reusing solver stack is measured directly.
//! Factorizations are cached inside the model (as in the engine's sample
//! loop), so the numbers reflect the amortized per-solve cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vfc::floorplan::{ultrasparc, GridSpec};
use vfc::num::PreconditionerKind;
use vfc::thermal::{StackThermalBuilder, ThermalConfig};
use vfc::units::{Length, Seconds, VolumetricFlow, Watts};
use vfc_bench::perf::precond_label;

fn steady_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("steady_state");
    group.sample_size(20);
    for cell_mm in [2.0, 1.0, 0.5, 0.25] {
        for liquid in [true, false] {
            if !liquid && cell_mm < 0.5 {
                continue; // keep the air sweep short; liquid is the hot path
            }
            let stack = if liquid {
                ultrasparc::two_layer_liquid()
            } else {
                ultrasparc::two_layer_air()
            };
            let grid = GridSpec::from_cell_size(
                stack.tiers()[0].floorplan(),
                Length::from_millimeters(cell_mm),
            );
            for kind in [PreconditionerKind::Identity, PreconditionerKind::Ilu0] {
                let mut cfg = ThermalConfig::default();
                cfg.solver.preconditioner = Some(kind);
                let builder = StackThermalBuilder::new(&stack, grid, cfg);
                let flow = liquid.then(|| VolumetricFlow::from_ml_per_minute(600.0));
                let mut model = builder.build(flow).unwrap();
                let p = model.uniform_block_power(&stack, |b| {
                    if b.is_core() {
                        Watts::new(3.0)
                    } else {
                        Watts::new(0.5)
                    }
                });
                let label = format!(
                    "{}-{}mm-{}nodes-{}",
                    if liquid { "liquid" } else { "air" },
                    cell_mm,
                    model.node_count(),
                    precond_label(kind),
                );
                group.bench_function(BenchmarkId::from_parameter(label), |bench| {
                    bench.iter(|| model.steady_state(&p, None).unwrap());
                });
            }
        }
    }
    group.finish();
}

fn transient_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("transient_100ms");
    group.sample_size(20);
    for cell_mm in [1.0, 0.5, 0.25] {
        let stack = ultrasparc::two_layer_liquid();
        let grid = GridSpec::from_cell_size(
            stack.tiers()[0].floorplan(),
            Length::from_millimeters(cell_mm),
        );
        let builder = StackThermalBuilder::new(&stack, grid, ThermalConfig::default());
        let mut model = builder
            .build(Some(VolumetricFlow::from_ml_per_minute(600.0)))
            .unwrap();
        let p = model.uniform_block_power(&stack, |b| {
            if b.is_core() {
                Watts::new(2.0)
            } else {
                Watts::new(0.5)
            }
        });
        let steady = model.steady_state(&p, None).unwrap();
        group.bench_function(
            BenchmarkId::from_parameter(format!("{cell_mm}mm")),
            |bench| {
                let mut t = steady.clone();
                bench.iter(|| {
                    model
                        .step(&mut t, &p, Seconds::from_millis(100.0), 5)
                        .unwrap();
                });
            },
        );
    }
    group.finish();
}

/// Flow re-patching: the per-sample cost of switching a model to another
/// pump setting (values + rhs rewrite on shared structure; the follow-up
/// preconditioner refactor is timed by the steady/transient benches).
fn flow_patch(c: &mut Criterion) {
    let mut group = c.benchmark_group("set_flow");
    group.sample_size(20);
    for cell_mm in [1.0, 0.5] {
        let stack = ultrasparc::two_layer_liquid();
        let grid = GridSpec::from_cell_size(
            stack.tiers()[0].floorplan(),
            Length::from_millimeters(cell_mm),
        );
        let builder = StackThermalBuilder::new(&stack, grid, ThermalConfig::default());
        let mut model = builder
            .build(Some(VolumetricFlow::from_ml_per_minute(600.0)))
            .unwrap();
        let flows = [
            VolumetricFlow::from_ml_per_minute(300.0),
            VolumetricFlow::from_ml_per_minute(900.0),
        ];
        group.bench_function(
            BenchmarkId::from_parameter(format!("{cell_mm}mm")),
            |bench| {
                let mut i = 0usize;
                bench.iter(|| {
                    model.set_flow(flows[i & 1]).unwrap();
                    i += 1;
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, steady_state, transient_step, flow_patch);
criterion_main!(benches);
