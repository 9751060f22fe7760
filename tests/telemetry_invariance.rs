//! The telemetry hard invariant: `VFC_TELEMETRY` is an execution knob.
//! It must never change a simulation result — not an iteration count,
//! not a bit of a temperature — and it must never enter the cache key.
//!
//! One `#[test]` on purpose: the telemetry level and registry are
//! process-wide, so splitting the phases across tests would let the
//! harness's parallel test threads race on `set_level`.

use vfc::obs::{self, TelemetryLevel};
use vfc::prelude::*;
use vfc::sim::{ChannelClog, FaultTimeline, PumpFault, SensorFault};
use vfc::units::{Length, Seconds};

const LEVELS: [TelemetryLevel; 3] = [
    TelemetryLevel::Off,
    TelemetryLevel::Counters,
    TelemetryLevel::Spans,
];

fn config() -> SimConfig {
    SimConfig::new(
        SystemKind::TwoLayer,
        CoolingKind::LiquidVariable,
        PolicyKind::Talb,
        vfc::workload::Benchmark::by_name("gzip").unwrap(),
    )
    .with_duration(Seconds::new(2.0))
    .with_grid_cell(Length::from_millimeters(2.0))
}

/// A pump failure on the fine 0.5 mm grid: flow steps down to 30% at
/// 1 s, cavity 0 clogs to half conductance over 2–2.5 s, and the
/// sensors read 0.3 °C of seeded Gaussian noise throughout.
fn pump_failure_config() -> SimConfig {
    SimConfig::new(
        SystemKind::TwoLayer,
        CoolingKind::LiquidVariable,
        PolicyKind::Talb,
        vfc::workload::Benchmark::by_name("Web-med").unwrap(),
    )
    .with_duration(Seconds::new(3.0))
    .with_grid_cell(Length::from_millimeters(0.5))
    .with_faults(
        FaultTimeline::new(42)
            .with_pump(PumpFault::Step {
                at_s: 1.0,
                level: 0.3,
            })
            .with_clog(ChannelClog {
                cavity: 0,
                start_s: 2.0,
                ramp_s: 0.5,
                derate: 0.5,
            })
            .with_sensor(SensorFault::Noise { sigma: 0.3 }),
    )
}

/// How many spans recorded under the stat `name`.
fn span_count(snap: &obs::Snapshot, name: &str) -> u64 {
    snap.stat(name).map_or(0, |stat| stat.count)
}

#[test]
fn telemetry_level_never_perturbs_results_or_cache_keys() {
    // The cache key is identical at every level (telemetry is not a
    // physical parameter, so it must not fragment the result cache).
    let keys: Vec<u64> = LEVELS
        .iter()
        .map(|&level| {
            obs::set_level(level);
            config().cache_key()
        })
        .collect();
    assert!(
        keys.windows(2).all(|w| w[0] == w[1]),
        "cache key varies with telemetry level: {keys:?}"
    );

    // A full engine run lands an equal SimReport at every level — the
    // report's f64 fields compare by value, and the simulation is
    // deterministic, so any drift here is telemetry perturbing the run.
    let reports: Vec<SimReport> = LEVELS
        .iter()
        .map(|&level| {
            obs::set_level(level);
            obs::reset();
            // Fresh runner per level: a shared cache would serve the
            // later levels the first level's report and gate nothing.
            let mut out = SweepRunner::new().run(vec![config()]).expect("run");
            out.remove(0)
        })
        .collect();
    assert_eq!(
        reports[0], reports[1],
        "SimReport differs between off and counters"
    );
    assert_eq!(
        reports[1], reports[2],
        "SimReport differs between counters and spans"
    );

    // And the recording side did actually engage at the higher levels:
    // the spans run must have left solver iterations in the registry.
    let snap = obs::snapshot();
    assert!(
        snap.counter("solver.iterations").unwrap_or(0) > 0,
        "spans-level run recorded no solver iterations"
    );
    // The engine opens one `engine.workload` span per 100 ms sample,
    // not one per 1 ms scheduler tick.
    let samples = snap.counter("engine.samples").unwrap_or(0);
    assert!(samples > 0, "spans-level run recorded no samples");
    assert_eq!(
        span_count(&snap, "span.runner.execute/runner.job/engine.workload"),
        samples,
        "engine.workload spans per sample"
    );

    // The 0.25 mm transient scenario (9,200 nodes, ILU(0)) lands the
    // same per-sample iteration counts and temperature bits at every
    // level.
    let ilu0 = vfc_bench::transient::variants()[0];
    let prints: Vec<(Vec<usize>, Vec<u64>)> = LEVELS
        .iter()
        .map(|&level| {
            obs::set_level(level);
            obs::reset();
            let run = vfc_bench::transient::run(0.25, &ilu0);
            let bits = run.temps.iter().map(|t| t.to_bits()).collect();
            (run.sample_iters, bits)
        })
        .collect();
    for pair in prints.windows(2) {
        assert_eq!(
            pair[0].0, pair[1].0,
            "iteration counts vary with telemetry level"
        );
        assert!(
            pair[0].1 == pair[1].1,
            "temperatures vary with telemetry level"
        );
    }

    // The pump-failure cell completes with an equal report at every
    // level. Wherever counters record, the fault events drain into
    // telemetry, and the recovery ladder stays cold: a derated pump
    // degrades cooling, it must not break the solver.
    let faulted: Vec<SimReport> = LEVELS
        .iter()
        .map(|&level| {
            obs::set_level(level);
            obs::reset();
            let before = obs::snapshot();
            let report = Simulation::new(pump_failure_config())
                .expect("build")
                .run()
                .expect("the faulted run completes");
            if level != TelemetryLevel::Off {
                let after = obs::snapshot();
                let delta = |name: &str| {
                    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
                };
                assert!(
                    delta("engine.fault_events") > 0,
                    "{level:?}: the faulted run recorded no engine.fault_events"
                );
                assert_eq!(
                    delta("solver.retries"),
                    0,
                    "{level:?}: a derated pump must not trip the recovery ladder"
                );
                assert_eq!(delta("solver.escalations"), 0, "{level:?}");
                if level == TelemetryLevel::Spans {
                    assert_eq!(
                        span_count(&after, "span.engine.workload"),
                        delta("engine.samples"),
                        "the faulted run's engine.workload spans per sample"
                    );
                }
            }
            report
        })
        .collect();
    assert!(
        faulted.windows(2).all(|w| w[0] == w[1]),
        "the faulted SimReport differs across telemetry levels"
    );

    obs::set_level(TelemetryLevel::Off);
    obs::reset();
}
