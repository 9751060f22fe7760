//! `fine`: one paper-native 100 µm cell, TALB (Var) on Web-med on the
//! 2-layer stack (57,500 thermal nodes), on one kernel thread.
//!
//! The large-problem regime: bandwidth-bound sparse kernels, a set-up
//! that is almost all 100 µm characterization, and no runner, cache or
//! service. The cell is built and run once per segment; each segment's
//! `Simulation::new` is a set-up sample and its `Simulation::run` a
//! timed sample. The input does not depend on `--seed`, so the
//! reference check is live on every run.

use vfc_sim::{CoolingKind, PolicyKind, SimConfig, SimReport, Simulation, SystemKind};
use vfc_units::{Length, Seconds};
use vfc_workload::Benchmark;

use crate::report::Outcome;
use crate::{figures, layers, median, service, Ctx};

/// Simulated seconds per segment: 30 samples of 100 ms.
const SEGMENT_SIM_SECONDS: f64 = 3.0;

/// Wall time of one segment (set-up + run) on the reference host
/// (README), used only to turn `--seconds` into a segment count.
const SEGMENT_SECONDS: f64 = 10.0;

/// Relative tolerances against the reference: tight enough that a
/// physics change fails, loose enough that a solver change agreeing to
/// solver tolerance passes.
const TEMPERATURE_TOL: f64 = 1e-3;
const ENERGY_TOL: f64 = 1e-2;

const REFERENCE: &str = include_str!("../reference/fine.txt");

fn cell() -> SimConfig {
    SimConfig::new(
        SystemKind::TwoLayer,
        CoolingKind::LiquidVariable,
        PolicyKind::Talb,
        Benchmark::by_name("Web-med").expect("Table II has Web-med"),
    )
    .with_grid_cell(Length::from_millimeters(0.1))
    .with_duration(Seconds::new(SEGMENT_SIM_SECONDS))
}

/// The checked quantities of a report, in reference-file order.
fn observed(r: &SimReport) -> [(&'static str, f64, f64); 4] {
    [
        (
            "max_temperature_c",
            r.max_temperature.value(),
            TEMPERATURE_TOL,
        ),
        (
            "mean_temperature_c",
            r.mean_temperature.value(),
            TEMPERATURE_TOL,
        ),
        ("chip_energy_j", r.chip_energy.value(), ENERGY_TOL),
        ("pump_energy_j", r.pump_energy.value(), ENERGY_TOL),
    ]
}

fn reference_value(key: &str) -> Option<f64> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.trim().parse().ok())
}

/// Checks one segment's report; returns whether it passed.
fn check(r: &SimReport, out: &mut Outcome) -> bool {
    let mut ok = true;
    let want_samples = reference_value("samples").unwrap_or(f64::NAN);
    if r.samples as f64 != want_samples {
        out.problem(format!(
            "fine: {} samples, reference {want_samples}",
            r.samples
        ));
        ok = false;
    }
    for (key, got, tol) in observed(r) {
        let want = reference_value(key).unwrap_or(f64::NAN);
        let rel = ((got - want) / want).abs();
        if rel.is_nan() || rel > tol {
            out.problem(format!(
                "fine: {key} = {got}, reference {want} (relative error {rel:.2e} > {tol:.0e})"
            ));
            ok = false;
        }
    }
    ok
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let cfg = cell();
    // Traced runs: segment 1 at `spans`, segments 0 and 2 untraced for
    // the overhead ratio.
    let segments = if ctx.args.trace {
        3
    } else {
        ((ctx.args.seconds as f64 / SEGMENT_SECONDS).round() as usize).max(3)
    };
    let mut new_s = Vec::new();
    let mut run_s = Vec::new();
    let mut sample_ms = Vec::new();
    let mut samples_total = 0usize;
    for seg in 0..segments {
        let traced = ctx.args.trace && seg == 1;
        if traced {
            vfc_obs::reset();
            vfc_obs::set_level(vfc_obs::TelemetryLevel::Spans);
        }
        let (sim, setup) = ctx
            .tracer
            .time("sim.new", None, || Simulation::new(cfg.clone()));
        new_s.push(setup);
        out.attempted += 1;
        let result = match sim {
            Ok(sim) => {
                let (report, secs) = ctx.tracer.time("sim.run", None, || sim.run());
                run_s.push(secs);
                report
            }
            Err(e) => Err(e),
        };
        if traced {
            vfc_obs::set_level(vfc_obs::TelemetryLevel::Off);
            ctx.tracer.set_obs(vfc_obs::snapshot());
        }
        let ok = match result {
            Ok(report) => {
                samples_total += report.samples;
                if let Some(secs) = run_s.last() {
                    sample_ms.push(secs * 1e3 / report.samples.max(1) as f64);
                }
                if seg == 0 {
                    let values: Vec<String> = observed(&report)
                        .iter()
                        .map(|(key, value, _)| format!("{key} {value:?}"))
                        .collect();
                    out.note(format!(
                        "fine observed: samples {} {}",
                        report.samples,
                        values.join(" ")
                    ));
                }
                out.count("report.samples", report.samples as u64);
                out.count("report.controller_switches", report.controller_switches);
                check(&report, &mut out)
            }
            Err(e) => {
                out.problem(format!("fine segment {seg} failed: {e}"));
                false
            }
        };
        out.failed += u64::from(!ok);
    }

    if ctx.args.trace {
        let snap = vfc_obs::snapshot();
        layers::from_snapshot(&snap, &mut out);
        if let [a, b, c] = run_s[..] {
            out.push("obs.overhead_pct", "%", (2.0 * b / (a + c) - 1.0) * 100.0);
        }
        out.push("sim.new_ms", "ms", median(&new_s) * 1e3);
        layers::replay_setup(ctx, &cfg, &mut out);
        figures::runner_probe(ctx, &mut out);
        service::probe(ctx, &mut out);
    } else {
        let total_run: f64 = run_s.iter().sum();
        out.push("setup_s", "s", median(&new_s));
        out.push("throughput_per_s", "1/s", samples_total as f64 / total_run);
        out.push("latency_p50_ms", "ms", median(&sample_ms));
        out.push(
            "latency_tail_ms",
            "ms",
            sample_ms.iter().copied().fold(f64::NAN, f64::max),
        );
    }
    out.note(format!(
        "fine: {segments} segments of {SEGMENT_SIM_SECONDS} s simulated at 100 um; throughput_per_s \
         is simulated samples/s, latency_p50_ms is sample_ms ({:.3}) and latency_tail_ms the slowest \
         segment's; set-ups {:?} s, runs {:?} s",
        median(&sample_ms),
        new_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        run_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
    ));
    out
}
