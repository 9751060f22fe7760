//! Telemetry regression smoke for CI: proves the `vfc_obs` layer is
//! observably present and *physically absent* — every gate here is
//! exact:
//!
//! * `SimConfig::cache_key()` is identical at every telemetry level
//!   (execution knobs never enter the cache key);
//! * a full engine run (`SimReport`) is **equal** at `off`, `counters`
//!   and `spans` — telemetry must not perturb a single sample;
//! * the transient stepping scenario lands bit-identical temperatures
//!   and iteration counts at every level;
//! * at `spans`, one sweep + one transient run populates the standard
//!   counter and span families (solver iterations, V-cycles, engine
//!   phases, cache hits/misses/evictions all present; the hot ones
//!   non-zero);
//! * the snapshot round-trips through the `vfc_runner::telemetry` JSON
//!   codec byte-identically and the Prometheus exposition carries every
//!   family.

use vfc::obs::{self, TelemetryLevel};
use vfc::prelude::*;
use vfc::thermal::{StackThermalBuilder, ThermalConfig, ThermalModel};
use vfc::units::{Length, Seconds, VolumetricFlow, Watts};
use vfc_bench::telemetry::{STANDARD_COUNTERS, STANDARD_STATS};

const LEVELS: [TelemetryLevel; 3] = [
    TelemetryLevel::Off,
    TelemetryLevel::Counters,
    TelemetryLevel::Spans,
];

const SAMPLES: usize = 10;
const SUBSTEPS: usize = 5;

fn smoke_config() -> SimConfig {
    SimConfig::new(
        SystemKind::TwoLayer,
        CoolingKind::LiquidVariable,
        PolicyKind::Talb,
        vfc::workload::Benchmark::by_name("Web-med").unwrap(),
    )
    .with_duration(Seconds::new(2.0))
    .with_grid_cell(Length::from_millimeters(2.0))
}

fn build_transient_model() -> ThermalModel {
    let stack = vfc::floorplan::ultrasparc::two_layer_liquid();
    let grid = vfc::floorplan::GridSpec::from_cell_size(
        stack.tiers()[0].floorplan(),
        Length::from_millimeters(0.25),
    );
    StackThermalBuilder::new(&stack, grid, ThermalConfig::default())
        .build(Some(VolumetricFlow::from_ml_per_minute(600.0)))
        .expect("build")
}

/// The power-step transient fingerprint: per-sample Krylov iteration
/// counts plus the final temperature field.
fn transient_fingerprint() -> (Vec<usize>, Vec<f64>) {
    let mut model = build_transient_model();
    let stack = vfc::floorplan::ultrasparc::two_layer_liquid();
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
        let p = if (s / 5) % 2 == 0 { &p_high } else { &p_low };
        model
            .step(&mut temps, p, Seconds::from_millis(100.0), SUBSTEPS)
            .expect("step");
        iters.push(model.last_step_iterations());
    }
    (iters, temps)
}

fn main() {
    println!("telemetry smoke: off / counters / spans must be indistinguishable in results");

    // Gate 1: the cache key never sees the telemetry level.
    let cfg = smoke_config();
    let keys: Vec<u64> = LEVELS
        .iter()
        .map(|&level| {
            obs::set_level(level);
            cfg.cache_key()
        })
        .collect();
    assert!(
        keys.windows(2).all(|w| w[0] == w[1]),
        "cache key varies with telemetry level: {keys:?}"
    );
    println!("cache key: {:#018x} at every level", keys[0]);

    // Gate 2: a full engine run is equal at every level. Fresh runner
    // (fresh in-memory cache) per level, so each run truly executes.
    let reports: Vec<SimReport> = LEVELS
        .iter()
        .map(|&level| {
            obs::set_level(level);
            obs::reset();
            let mut out = SweepRunner::new().run(vec![smoke_config()]).expect("run");
            out.remove(0)
        })
        .collect();
    assert!(
        reports.windows(2).all(|w| w[0] == w[1]),
        "SimReport differs across telemetry levels"
    );
    println!(
        "engine run: SimReport equal at every level (Tmax {:.2} C)",
        reports[0].max_temperature.value()
    );

    // Gate 3: the transient scenario is bit-identical at every level.
    let prints: Vec<(Vec<usize>, Vec<f64>)> = LEVELS
        .iter()
        .map(|&level| {
            obs::set_level(level);
            obs::reset();
            transient_fingerprint()
        })
        .collect();
    for pair in prints.windows(2) {
        assert_eq!(
            pair[0].0, pair[1].0,
            "iteration counts vary with telemetry level"
        );
        assert!(
            pair[0]
                .1
                .iter()
                .zip(&pair[1].1)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "temperatures vary with telemetry level"
        );
    }
    let total: usize = prints[0].0.iter().sum();
    println!("transient: {total} Krylov iterations, bit-identical at every level");

    // Gate 4: at `spans`, one warm-cache sweep + the transient scenario
    // populates the standard families. The sweep runs the same config
    // twice on ONE runner: first pass misses + stores, second hits.
    obs::set_level(TelemetryLevel::Spans);
    obs::reset();
    obs::declare_counters(STANDARD_COUNTERS);
    obs::declare_stats(STANDARD_STATS);
    let runner = SweepRunner::new();
    runner.run(vec![smoke_config()]).expect("cold run");
    runner.run(vec![smoke_config()]).expect("warm run");
    let _ = transient_fingerprint();
    let snap = obs::snapshot();

    for name in STANDARD_COUNTERS {
        assert!(
            snap.counter(name).is_some(),
            "declared counter `{name}` missing from snapshot"
        );
    }
    for name in STANDARD_STATS {
        assert!(
            snap.stat(name).is_some(),
            "declared stat `{name}` missing from snapshot"
        );
    }
    for name in [
        "engine.samples",
        "precond.applies",
        "runner.cache.hits",
        "runner.cache.misses",
        "runner.cache.stores",
        "runner.jobs",
        "solver.iterations",
        "solver.solves",
        "thermal.steady_solves",
        "thermal.steps",
        "thermal.substeps",
    ] {
        let v = snap.counter(name).unwrap();
        assert!(v > 0, "hot counter `{name}` is zero after the runs");
    }
    // The engine phases record under nested span paths (the runner's
    // execute/job spans are live on the worker thread); at least one
    // engine-phase stat must have fired somewhere in the hierarchy.
    for phase in ["engine.workload", "engine.thermal", "engine.balance"] {
        let fired = snap
            .stats
            .iter()
            .any(|(name, s)| name.contains(phase) && s.count > 0);
        assert!(fired, "no span path recorded for `{phase}`");
    }
    let steps = snap.counter("thermal.steps").unwrap();
    println!(
        "spans: {} stat families, {} counters (thermal.steps={steps})",
        snap.stats.len(),
        snap.counters.len()
    );

    // Gate 5: JSON round-trip is byte-identical; Prometheus exposition
    // carries every family.
    let doc = vfc::runner::telemetry::snapshot_to_json(&snap, obs::level());
    let text = doc.encode();
    let parsed = vfc::runner::json::JsonValue::parse(&text).expect("snapshot JSON parses");
    let (back, level) = vfc::runner::telemetry::snapshot_from_json(&parsed).expect("decodes");
    assert_eq!(level, TelemetryLevel::Spans);
    assert_eq!(
        vfc::runner::telemetry::snapshot_to_json(&back, level).encode(),
        text,
        "snapshot JSON round-trip is not byte-identical"
    );
    let prom = snap.prometheus_text();
    for name in STANDARD_COUNTERS {
        let sanitized = name.replace('.', "_");
        assert!(
            prom.contains(&format!("vfc_{sanitized}")),
            "Prometheus text missing family `{name}`"
        );
    }
    println!(
        "export: JSON round-trip byte-identical ({} bytes), Prometheus text {} lines",
        text.len(),
        prom.lines().count()
    );
    println!("ok: telemetry is free when off and faithful when on");
}
