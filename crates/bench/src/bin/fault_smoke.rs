//! Fault-injection regression smoke for CI: gates the `vfc_faults`
//! replay layer and the solver/engine graceful-degradation ladder with
//! exact, timing-free assertions (mirrors `transient_smoke`, which
//! gates the healthy transient path).
//!
//! * a pump failure on the fine 0.5 mm grid — a hard step down to 30 %
//!   flow plus a clogging channel and noisy sensors — completes the
//!   full engine run end to end with zero panics, runs hotter than the
//!   healthy plant, and drains fault events into telemetry;
//! * fault timelines are configuration, not execution knobs: a faulted
//!   config's cache key differs from the healthy key, while an *empty*
//!   timeline (any seed) leaves the key byte-identical — healthy
//!   results cached before the fault subsystem existed stay valid;
//! * under `VFC_TELEMETRY=counters`/`spans`, `engine.fault_events` is
//!   non-zero after the faulted run and the recovery-ladder counters
//!   (`solver.retries`, `solver.escalations`) stay at zero — a pump
//!   derating must degrade cooling, not break the solver.
//!
//! CI runs this binary twice — plain and under `VFC_TELEMETRY=spans` —
//! so the same gates also prove telemetry does not perturb a faulted
//! run.

use vfc::obs;
use vfc::prelude::*;
use vfc::sim::{ChannelClog, FaultTimeline, PumpFault, SensorFault};
use vfc::units::{Length, Seconds};
use vfc::workload::Benchmark;

/// The pump-degradation trace every gate replays: flow steps down to
/// 30 % at 1 s, cavity 0 clogs to half conductance over 2–2.5 s, and
/// the sensors read 0.3 °C of seeded Gaussian noise throughout.
fn pump_failure_timeline() -> FaultTimeline {
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
        .with_sensor(SensorFault::Noise { sigma: 0.3 })
}

fn config(cell_mm: f64) -> SimConfig {
    SimConfig::new(
        SystemKind::TwoLayer,
        CoolingKind::LiquidVariable,
        PolicyKind::Talb,
        Benchmark::by_name("Web-med").expect("table II"),
    )
    .with_duration(Seconds::new(3.0))
    .with_grid_cell(Length::from_millimeters(cell_mm))
}

fn run(cfg: SimConfig) -> SimReport {
    Simulation::new(cfg).expect("build").run().expect("run")
}

fn main() {
    println!(
        "fault smoke: pump failure to 30% flow + channel clog + sensor noise (telemetry {:?})",
        obs::level()
    );

    // Gate 1: the hard scenario — pump failure on the fine 0.5 mm grid
    // — completes end to end. The counter snapshot is diffed, not
    // reset, so the gate also works with spans enabled.
    let before = obs::snapshot();
    let healthy = run(config(0.5));
    let faulted = run(config(0.5).with_faults(pump_failure_timeline()));
    assert_eq!(healthy.samples, faulted.samples, "faulted run ended early");
    assert_ne!(healthy, faulted, "the fault trace must perturb the run");
    assert!(
        faulted.max_temperature >= healthy.max_temperature,
        "losing 70% of the coolant cannot cool the stack: {:?} < {:?}",
        faulted.max_temperature,
        healthy.max_temperature
    );
    println!(
        "0.5 mm pump failure: completed {} samples, Tmax {:.2} C (healthy {:.2} C)",
        faulted.samples,
        faulted.max_temperature.value(),
        healthy.max_temperature.value()
    );

    // Gate 2: counter discipline. Fault events drain into telemetry
    // whenever counters are live; a pump derating degrades cooling but
    // must not break the solver, so the recovery ladder stays cold.
    if obs::counters_enabled() {
        let after = obs::snapshot();
        let delta =
            |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        let events = delta("engine.fault_events");
        assert!(events > 0, "faulted run recorded no engine.fault_events");
        assert_eq!(
            delta("solver.retries"),
            0,
            "a derated pump must not trip the recovery ladder"
        );
        assert_eq!(delta("solver.escalations"), 0);
        println!("telemetry: {events} fault events, recovery ladder untouched");
    } else {
        println!("telemetry off: counter gates skipped (CI re-runs this under spans)");
    }

    // Gate 3: cache-key discipline. A fault timeline invalidates cached
    // results; an empty one (whatever its seed) does not — healthy keys
    // predate the fault subsystem and must stay byte-identical.
    let healthy_key = config(2.0).cache_key();
    let faulted_key = config(2.0).with_faults(pump_failure_timeline()).cache_key();
    let empty_key = config(2.0).with_faults(FaultTimeline::new(7)).cache_key();
    assert_ne!(
        healthy_key, faulted_key,
        "fault timeline must enter the cache key"
    );
    assert_eq!(
        healthy_key, empty_key,
        "an empty timeline must leave healthy cache keys untouched"
    );
    println!("cache keys: faulted {faulted_key:#018x} != healthy {healthy_key:#018x}, empty timeline is free");
    println!("ok: pump failure completes, keys honest");
}
