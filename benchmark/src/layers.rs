//! Per-layer measurements shared by every workload's traced run: the
//! set-up calls replayed on the workload's own grid, the result-cache
//! replays, and the reading of the `vfc_obs` snapshot.

use std::path::Path;
use std::time::Instant;

use vfc_control::{balanced_power_rows, characterize_skeleton};
use vfc_floorplan::{BlockKind, GridSpec, Stack3d};
use vfc_obs::Snapshot;
use vfc_runner::ResultCache;
use vfc_sim::{SimConfig, SimReport};
use vfc_thermal::{StackThermalBuilder, ThermalModel, ThermalModelFamily};
use vfc_units::{Celsius, Watts};

use crate::report::Outcome;
use crate::Ctx;

/// Replays the set-up calls `Simulation::new` makes for a variable-flow
/// TALB cell like `cfg` — model family, characterization, TALB balance
/// — plus a flow patch and an operator product, each timed as its own
/// span on `cfg`'s grid.
pub fn replay_setup(ctx: &Ctx, cfg: &SimConfig, out: &mut Outcome) {
    let t = &ctx.tracer;
    let root = t.open("replay.setup", None);
    let stack = cfg.system.stack(true);
    let cavities = stack.cavity_count();
    let flows: Vec<_> = cfg
        .pump
        .flow_settings()
        .map(|s| cfg.pump.per_cavity_flow(s, cavities))
        .collect();

    let (family, build_s) = t.time("thermal.build", Some(root.id), || {
        let grid = GridSpec::from_cell_size(stack.tiers()[0].floorplan(), cfg.grid_cell);
        let builder = StackThermalBuilder::new(&stack, grid, cfg.thermal);
        ThermalModelFamily::for_flows(&builder, &flows)
    });
    let mut family = match family {
        Ok(family) => family,
        Err(e) => {
            out.problem(format!("thermal model build failed: {e}"));
            t.close(root);
            return;
        }
    };
    out.push("thermal.build_ms", "ms", build_s * 1e3);

    let (c, characterize_s) = t.time("control.characterize", Some(root.id), || {
        characterize_skeleton(
            family.skeleton(),
            &cfg.pump,
            cavities,
            cfg.target_temperature - cfg.control_margin,
            7,
            &|demand, model| characterization_power(cfg, &stack, model, demand),
        )
    });
    if let Err(e) = c {
        out.problem(format!("characterization failed: {e}"));
    }
    out.push("control.characterize_ms", "ms", characterize_s * 1e3);

    let weight_model = family.model(family.len() / 2);
    let background = background_power(cfg, &stack, weight_model);
    let targets = [Celsius::new(65.0), Celsius::new(75.0), Celsius::new(85.0)];
    let (rows, balance_s) = t.time("control.balance", Some(root.id), || {
        balanced_power_rows(weight_model, &stack, &background, &targets)
    });
    if let Err(e) = rows {
        out.problem(format!("TALB balance failed: {e}"));
    }
    out.push("control.balance_ms", "ms", balance_s * 1e3);

    // Flow patches: cycle one member through every setting.
    let model = family.model_mut(0);
    let rounds = 4;
    let span = t.open("thermal.set_flow", Some(root.id));
    let mut patch_err = None;
    for _ in 0..rounds {
        for &flow in flows.iter().rev().chain(flows.iter()) {
            if let Err(e) = model.set_flow(flow) {
                patch_err = Some(e);
            }
        }
    }
    let patches = (rounds * 2 * flows.len()) as f64;
    out.push("thermal.set_flow_us", "us", t.close(span) * 1e6 / patches);
    if let Some(e) = patch_err {
        out.problem(format!("flow patch failed: {e}"));
    }

    // One sparse product on the grid's conductance operator (CSR), and
    // the bytes one ILU(0)-preconditioned BiCGStab iteration moves,
    // computed from its size: two products and two triangular-solve
    // pairs (each 12 B per nonzero, 4 B per row pointer, 16 B per row
    // of in/out vector) plus ~22 passes over n-vectors of f64.
    let a = model.conductance_matrix();
    let (n, nnz) = (a.order(), a.nnz());
    let x = vec![1.0; n];
    let mut y = vec![0.0; n];
    let reps = (4_000_000 / nnz.max(1)).clamp(3, 2_000);
    let mut per_call = Vec::new();
    let span = t.open("num.matvec", Some(root.id));
    for _ in 0..7 {
        let start = Instant::now();
        for _ in 0..reps {
            a.matvec_into(std::hint::black_box(&x), &mut y);
        }
        std::hint::black_box(&y);
        per_call.push(start.elapsed().as_secs_f64() * 1e6 / reps as f64);
    }
    t.close(span);
    out.push("num.matvec_us", "us", crate::median(&per_call));
    let sweep = 12 * nnz + 4 * (n + 1) + 16 * n;
    out.push(
        "num.bytes_per_iteration",
        "B",
        (4 * sweep + 22 * 8 * n) as f64,
    );
    out.note(format!(
        "replayed set-up on a {:.3} mm grid: n={n} nnz={nnz} (bytes per iteration computed, not measured)",
        cfg.grid_cell.to_millimeters()
    ));
    t.close(root);
}

/// Times the result cache on `reports`: a miss and a store per report
/// on a fresh on-disk cache, then a memory hit per report. Returns the
/// mean (get-miss, store) time in ms for the runner-overhead estimate.
pub fn replay_cache(ctx: &Ctx, dir: &Path, reports: &[(u64, SimReport)], out: &mut Outcome) -> f64 {
    let t = &ctx.tracer;
    let root = t.open("replay.cache", None);
    let cache = ResultCache::on_disk(dir);
    let n = reports.len().max(1) as f64;
    let span = t.open("runner.get_miss", Some(root.id));
    let mut misses = 0;
    for (key, _) in reports {
        misses += usize::from(cache.get(*key).is_none());
    }
    let miss_s = t.close(span);
    let span = t.open("runner.store", Some(root.id));
    for (key, report) in reports {
        if let Err(e) = cache.insert(*key, report) {
            out.problem(format!("cache store failed: {e}"));
        }
    }
    let store_s = t.close(span);
    let span = t.open("runner.get_hit", Some(root.id));
    let mut hits = 0;
    for _ in 0..10 {
        for (key, report) in reports {
            hits += usize::from(cache.get(*key).as_ref() == Some(report));
        }
    }
    let hit_s = t.close(span);
    t.close(root);
    if misses != reports.len() || hits != 10 * reports.len() {
        out.problem(format!(
            "cache replay: {misses}/{} fresh misses, {hits}/{} exact hits",
            reports.len(),
            10 * reports.len()
        ));
    }
    out.push("runner.store_ms", "ms", store_s * 1e3 / n);
    out.push("runner.get_us", "us", hit_s * 1e6 / (10.0 * n));
    (miss_s + store_s) * 1e3 / n
}

/// Total (count, ns) of every `vfc_obs` span stat whose leaf is `leaf`,
/// at any nesting.
pub fn span_total(snap: &Snapshot, leaf: &str) -> (u64, f64) {
    let suffix = format!("/{leaf}");
    let exact = format!("span.{leaf}");
    snap.stats
        .iter()
        .filter(|(name, _)| *name == exact || name.ends_with(&suffix))
        .fold((0, 0.0), |(c, ns), (_, s)| {
            (c + s.count, ns + s.sum_ns as f64)
        })
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// Counters that repeat exactly for a given workload and seed, at any
/// telemetry level (the ledger checks them across runs). `runner.jobs`
/// is not among them: a service request racing a duplicate may or may
/// not reach the runner.
const EXACT: &[&str] = &[
    "engine.samples",
    "engine.fault_events",
    "thermal.steps",
    "thermal.substeps",
    "thermal.substep_short_circuits",
    "thermal.steady_solves",
    "thermal.flow_patches",
    "solver.solves",
    "solver.iterations",
    "precond.applies",
    "solver.retries",
    "solver.escalations",
    "runner.cache.stores",
];

/// The per-layer metrics read from a `vfc_obs` snapshot taken at level
/// `spans` over the workload's traced window.
pub fn from_snapshot(snap: &Snapshot, out: &mut Outcome) {
    let samples = counter(snap, "engine.samples");
    let per_sample_us = |leaf: &str| span_total(snap, leaf).1 / samples.max(1) as f64 / 1e3;
    out.push("engine.thermal_us", "us", per_sample_us("engine.thermal"));
    out.push("engine.workload_us", "us", per_sample_us("engine.workload"));
    out.push("engine.balance_us", "us", per_sample_us("engine.balance"));
    let (steady_n, steady_ns) = span_total(snap, "thermal.steady");
    out.push(
        "thermal.steady_ms",
        "ms",
        steady_ns / steady_n.max(1) as f64 / 1e6,
    );
    let (fc_n, fc_ns) = span_total(snap, "engine.forecast");
    out.push(
        "forecast.us_per_sample",
        "us",
        fc_ns / fc_n.max(1) as f64 / 1e3,
    );

    let solves = counter(snap, "solver.solves");
    let iterations = counter(snap, "solver.iterations");
    out.push(
        "solver.iters_per_solve",
        "iter/solve",
        iterations as f64 / solves.max(1) as f64,
    );
    out.push(
        "num.us_per_iteration",
        "us",
        span_total(snap, "engine.thermal").1 / iterations.max(1) as f64 / 1e3,
    );
    for &(name, unit) in crate::report::PER_LAYER {
        let is_counter = unit == "count"
            && (name.starts_with("engine.")
                || name.starts_with("thermal.")
                || name.starts_with("solver.")
                || name.starts_with("precond.")
                || name.starts_with("runner."));
        if is_counter {
            out.push(name, unit, counter(snap, name) as f64);
        }
    }
    for &name in EXACT {
        out.count(name, counter(snap, name));
    }
    // Which of two racing callers leads a cell and which joins (or hits
    // the cache after the store) depends on timing; their sum does not.
    out.count(
        "runner.cache.hits+runner.dedup_joins",
        counter(snap, "runner.cache.hits") + counter(snap, "runner.dedup_joins"),
    );
    if samples == 0 || fc_n == 0 {
        out.problem("the traced window ran no engine sample or no forecast");
    }
}

/// Characterization power map, as `Simulation::new` builds it: uniform
/// demand on every unit, leakage at the control target.
fn characterization_power(
    cfg: &SimConfig,
    stack: &Stack3d,
    model: &ThermalModel,
    demand: f64,
) -> Vec<f64> {
    let mut p = model.zero_power();
    for (t, tier) in stack.tiers().iter().enumerate() {
        for (b, blk) in tier.floorplan().blocks().iter().enumerate() {
            let dynamic = match blk.kind() {
                BlockKind::Core => cfg.power.core_power(demand, false).value(),
                BlockKind::L2Cache => cfg.power.l2_power(demand).value(),
                BlockKind::Crossbar => cfg.power.crossbar_power(demand, 0.8).value() * 0.5,
                kind => cfg.power.fixed_block_power(kind).value(),
            };
            let leak = cfg
                .leakage
                .block_leakage(blk, cfg.target_temperature)
                .value();
            model.add_block_power(&mut p, t, b, Watts::new(dynamic + leak));
        }
    }
    p
}

/// Non-core background power for the TALB balance, as
/// `Simulation::new` builds it: caches and crossbar at 50 % activity,
/// leakage at 75 °C.
fn background_power(cfg: &SimConfig, stack: &Stack3d, model: &ThermalModel) -> Vec<f64> {
    let mut p = model.zero_power();
    for (t, tier) in stack.tiers().iter().enumerate() {
        for (b, blk) in tier.floorplan().blocks().iter().enumerate() {
            let dynamic = match blk.kind() {
                BlockKind::Core => 0.0,
                BlockKind::L2Cache => cfg.power.l2_power(0.5).value(),
                BlockKind::Crossbar => cfg.power.crossbar_power(0.5, 0.5).value() * 0.5,
                kind => cfg.power.fixed_block_power(kind).value(),
            };
            let leak = if blk.is_core() {
                0.0
            } else {
                cfg.leakage.block_leakage(blk, Celsius::new(75.0)).value()
            };
            if dynamic + leak > 0.0 {
                model.add_block_power(&mut p, t, b, Watts::new(dynamic + leak));
            }
        }
    }
    p
}
