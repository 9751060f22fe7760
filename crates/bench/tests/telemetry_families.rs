//! At `spans`, a cold and then a warm sweep populate every standard
//! metric family, and the snapshot exports faithfully. One `#[test]`:
//! the telemetry level is process-wide, so a second test could race on
//! `set_level`.

use vfc::obs::{self, TelemetryLevel};
use vfc::prelude::*;
use vfc::runner::{json::JsonValue, telemetry};
use vfc_bench::telemetry::{STANDARD_COUNTERS, STANDARD_STATS};

fn config() -> SimConfig {
    SimConfig::new(
        SystemKind::TwoLayer,
        CoolingKind::LiquidVariable,
        PolicyKind::Talb,
        Benchmark::by_name("Web-med").unwrap(),
    )
    .with_duration(Seconds::new(2.0))
    .with_grid_cell(Length::from_millimeters(2.0))
}

#[test]
fn spans_populate_every_standard_family_and_export_faithfully() {
    obs::set_level(TelemetryLevel::Spans);
    obs::reset();
    obs::declare_counters(STANDARD_COUNTERS);
    obs::declare_stats(STANDARD_STATS);
    // The same config twice on one runner: the first pass misses and
    // stores, the second hits.
    let runner = SweepRunner::new();
    runner.run(vec![config()]).expect("cold run");
    runner.run(vec![config()]).expect("warm run");
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
        assert!(
            snap.counter(name).unwrap() > 0,
            "hot counter `{name}` is zero after the runs"
        );
    }
    // The engine phases record under nested span paths (the runner's
    // execute/job spans are live on the worker thread), so each phase
    // must have fired somewhere in the hierarchy.
    for phase in ["engine.workload", "engine.thermal", "engine.balance"] {
        assert!(
            snap.stats
                .iter()
                .any(|(name, s)| name.contains(phase) && s.count > 0),
            "no span path recorded for `{phase}`"
        );
    }

    // The populated snapshot round-trips through the JSON codec byte for
    // byte, and the Prometheus text carries every standard family.
    let text = telemetry::snapshot_to_json(&snap, obs::level()).encode();
    let parsed = JsonValue::parse(&text).expect("snapshot JSON parses");
    let (back, level) = telemetry::snapshot_from_json(&parsed).expect("decodes");
    assert_eq!(level, TelemetryLevel::Spans);
    assert_eq!(
        telemetry::snapshot_to_json(&back, level).encode(),
        text,
        "snapshot JSON round-trip is not byte-identical"
    );
    let prom = snap.prometheus_text();
    for name in STANDARD_COUNTERS {
        assert!(
            prom.contains(&format!("vfc_{}", name.replace('.', "_"))),
            "Prometheus text missing family `{name}`"
        );
    }

    obs::set_level(TelemetryLevel::Off);
    obs::reset();
}
