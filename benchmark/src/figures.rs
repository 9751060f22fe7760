//! `figures`: a cold regeneration of every `all_figures` artifact.
//!
//! Set-up renders the non-sweep artifacts (Tables I–III, Figs. 1, 3
//! and 5) and builds a `SweepRunner` with one worker on a fresh on-disk
//! cache. The timed phase simulates the 144 unique 30 s cells behind
//! Figs. 6–8 and the fault study, once per pass, each pass cold on its
//! own fresh cache. The cells are the small-problem regime: ~600-node
//! grids, where fixed per-solve overhead dominates.

use std::sync::Mutex;
use std::time::Instant;

use vfc_runner::{Executor, ResultCache, SweepRunner};
use vfc_sim::{CoolingKind, PolicyKind, SimConfig, SimReport, SystemKind};
use vfc_workload::Benchmark;

use crate::report::Outcome;
use crate::{layers, median, quantile, service, Ctx};

/// `SimConfig`'s default workload seed: with it the regenerated text
/// must match the committed `all_figures` output byte for byte.
const REFERENCE_SEED: u64 = 42;

/// Wall time of one cold pass on the reference host (README), used
/// only to turn `--seconds` into a fixed number of passes.
const PASS_SECONDS: f64 = 15.0;

const SEP_WIDTH: usize = 78;

/// Set-ups per run; `setup_s` is their median. A set-up takes ~30 ms,
/// so a short hiccup moves one of them a lot; nine keep the median put.
const SETUPS: usize = 9;

/// Report fields summed over a pass: exact at a given seed, and known
/// to untraced runs too, so the ledger compares them across both.
const REPORT_SUMS: [&str; 4] = [
    "report.samples",
    "report.completed_threads",
    "report.migrations",
    "report.controller_switches",
];

/// The committed `all_figures` output at the reference seed.
const REFERENCE: &str = include_str!("../reference/all_figures.txt");

/// The 144 unique cells `all_figures` simulates, in its order, with
/// every workload seed set to `seed`.
fn cell_set(seed: u64) -> Vec<SimConfig> {
    let duration = vfc_bench::default_duration();
    let cell = |policy, cooling, b| {
        SimConfig::new(SystemKind::TwoLayer, cooling, policy, b)
            .with_duration(duration)
            .with_seed(seed)
    };
    let mut cells = Vec::new();
    for dpm in [false, true] {
        for (policy, cooling) in vfc::paper_policy_matrix() {
            for b in Benchmark::table_ii() {
                cells.push(cell(policy, cooling, b).with_dpm(dpm));
            }
        }
    }
    let timeline = vfc_bench::figures::degraded_pump_timeline(duration);
    for (policy, cooling) in [
        (PolicyKind::LoadBalancing, CoolingKind::LiquidMax),
        (PolicyKind::ReactiveMigration, CoolingKind::LiquidMax),
        (PolicyKind::Talb, CoolingKind::LiquidMax),
        (PolicyKind::Talb, CoolingKind::LiquidVariable),
    ] {
        for b in Benchmark::table_ii() {
            cells.push(cell(policy, cooling, b).with_faults(timeline.clone()));
        }
    }
    cells
}

fn section(name: &str, text: &str) -> String {
    let sep = "=".repeat(SEP_WIDTH);
    format!("{sep}\n{name}\n{sep}\n{text}\n")
}

/// Tables I–III and Figs. 1, 3, 5 exactly as `all_figures` prints them.
fn non_sweep_text() -> String {
    use vfc_bench::figures as f;
    [
        ("Table I", f::table1()),
        ("Table II", f::table2()),
        ("Table III", f::table3()),
        ("Fig. 1", f::fig1()),
        ("Fig. 3", f::fig3()),
        ("Fig. 5", f::fig5()),
    ]
    .iter()
    .map(|(name, text)| section(name, text))
    .collect()
}

/// The sweep figures, rendered through `vfc_bench`'s shared runner
/// (pointed at a cache the timed phase filled, so nothing simulates).
fn sweep_text() -> String {
    use vfc_bench::figures as f;
    let two = SystemKind::TwoLayer;
    let d = vfc_bench::default_duration();
    [
        ("Fig. 6 (2-layer)", f::fig6(two, d)),
        ("Fig. 6 savings detail", f::fig6_savings_detail(two, d)),
        ("Fig. 7 (2-layer)", f::fig7(two, d)),
        ("Fig. 8 (2-layer)", f::fig8(two, d)),
        ("Fault study (2-layer)", f::fig_faults(two, d)),
    ]
    .iter()
    .map(|(name, text)| section(name, text))
    .collect()
}

/// One timed pass: every cell through `runner`, with the wall time of
/// each completion (one worker, so consecutive completions bracket one
/// cell's time).
struct Pass {
    wall_s: f64,
    cell_ms: Vec<f64>,
    results: Vec<Result<SimReport, vfc_runner::RunnerError>>,
}

fn run_pass(ctx: &Ctx, runner: &SweepRunner, cells: &[SimConfig]) -> Pass {
    let stamps = Mutex::new(Vec::with_capacity(cells.len()));
    let span = ctx.tracer.open("runner.batch", None);
    let start = Instant::now();
    let results = runner.try_run_with_progress(cells.to_vec(), |_| {
        stamps.lock().expect("stamp lock").push(Instant::now());
    });
    let wall_s = ctx.tracer.close(span);
    let stamps = stamps.into_inner().expect("stamp lock");
    let cell_ms = std::iter::once(start)
        .chain(stamps.iter().copied())
        .zip(&stamps)
        .map(|(a, &b)| (b - a).as_secs_f64() * 1e3)
        .collect();
    Pass {
        wall_s,
        cell_ms,
        results,
    }
}

/// The cache directory of set-up `i` (and of pass `i`, if it runs),
/// under the run's work directory.
fn pass_cache(i: usize) -> String {
    format!("figures-cache-{i}")
}

/// Points `vfc_bench`'s shared runner, which reads its cache location
/// once at first use, at the cache pass 0 fills, so that rendering the
/// sweep figures afterwards simulates nothing. Call before any thread
/// starts.
pub fn pin_figure_cache(work: &std::path::Path) {
    std::env::set_var("VFC_CACHE_DIR", work.join(pass_cache(0)));
}

/// A fresh runner: one worker, a fresh on-disk cache.
fn fresh_runner(ctx: &Ctx, name: &str) -> SweepRunner {
    let dir = ctx.fresh_dir(name);
    SweepRunner::with_parts(Executor::with_threads(1), ResultCache::on_disk(&dir))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let seed = ctx.args.seed;
    let cells = cell_set(seed);
    let unique: std::collections::HashSet<u64> = cells.iter().map(SimConfig::cache_key).collect();
    if unique.len() != 144 {
        out.problem(format!("expected 144 unique cells, built {}", unique.len()));
    }
    // Traced runs time two passes: one with telemetry off, one at
    // `spans`, for the overhead ratio; untraced runs fill --seconds.
    let passes = if ctx.args.trace {
        2
    } else {
        ((ctx.args.seconds as f64 / PASS_SECONDS).round() as usize).max(1)
    };

    // Set-up, repeated for a median: runner + fresh cache + artifacts.
    let mut setups = Vec::new();
    let mut runners = Vec::new();
    let mut text = String::new();
    for i in 0..passes.max(SETUPS) {
        let span = ctx.tracer.open("figures.setup", None);
        let runner = fresh_runner(ctx, &pass_cache(i));
        text = non_sweep_text();
        setups.push(ctx.tracer.close(span));
        runners.push(runner);
    }
    let marker = format!("{}\nFig. 6 (2-layer)\n", "=".repeat(SEP_WIDTH));
    let reference_head = REFERENCE
        .find(&marker)
        .map_or(REFERENCE, |i| &REFERENCE[..i]);
    if text != reference_head {
        out.problem(format!(
            "non-sweep artifacts differ from reference/all_figures.txt: {}",
            first_difference(&text, reference_head)
        ));
    }

    let mut first: Vec<Option<SimReport>> = Vec::new();
    let mut wall_s = Vec::new();
    let mut cell_ms = Vec::new();
    let mut snapshot = None;
    for (p, runner) in runners.iter().take(passes).enumerate() {
        let traced_pass = ctx.args.trace && p == 1;
        if traced_pass {
            vfc_obs::reset();
            vfc_obs::set_level(vfc_obs::TelemetryLevel::Spans);
        }
        let pass = run_pass(ctx, runner, &cells);
        if traced_pass {
            vfc_obs::set_level(vfc_obs::TelemetryLevel::Off);
            let snap = vfc_obs::snapshot();
            ctx.tracer.set_obs(snap.clone());
            snapshot = Some(snap);
        }
        out.attempted += cells.len() as u64;
        let mut sums = [0u64; 4];
        for (i, result) in pass.results.into_iter().enumerate() {
            let report = match result {
                Ok(report) => Some(report),
                Err(e) => {
                    out.problem(format!("pass {p} cell {i} failed: {e}"));
                    None
                }
            };
            let mut ok = report
                .as_ref()
                .is_some_and(|r| cell_invariants(r, &mut out, p, i));
            if let Some(r) = &report {
                sums[0] += r.samples as u64;
                sums[1] += r.completed_threads;
                sums[2] += r.migrations;
                sums[3] += r.controller_switches;
            }
            if p == 0 {
                first.push(report);
            } else if report.is_none() || first[i] != report {
                out.problem(format!("pass {p} cell {i} differs from pass 0"));
                ok = false;
            }
            out.failed += u64::from(!ok);
        }
        for (name, sum) in REPORT_SUMS.iter().zip(sums) {
            out.count(*name, sum);
        }
        wall_s.push(pass.wall_s);
        cell_ms.extend(pass.cell_ms);
    }
    out.failed += pairwise_checks(&cells, &first, &mut out);

    if seed == REFERENCE_SEED {
        check_reference(&text, &mut out);
    }

    let cells_done = (passes * cells.len()) as f64;
    let total_wall: f64 = wall_s.iter().sum();
    if ctx.args.trace {
        let snap = snapshot.expect("traced pass snapshot");
        traced_metrics(ctx, &cells, &first, &snap, &wall_s, &mut out);
    } else {
        out.push("setup_s", "s", median(&setups));
        out.push("throughput_per_s", "1/s", cells_done / total_wall);
        out.push("latency_p50_ms", "ms", median(&cell_ms));
        out.push("latency_tail_ms", "ms", quantile(&cell_ms, 0.9));
    }
    out.note(format!(
        "figures: {passes} cold pass(es) x {} cells, seed {seed}; throughput_per_s is cells_per_s \
         ({:.3}), latency_* are per-cell times p50/p90 over {} cells; pass walls {:?} s; set-ups {:?} s",
        cells.len(),
        cells_done / total_wall,
        cell_ms.len(),
        wall_s.iter().map(|w| (w * 1e3).round() / 1e3).collect::<Vec<_>>(),
        setups.iter().map(|w| (w * 1e3).round() / 1e3).collect::<Vec<_>>(),
    ));
    out
}

/// Invariants every cell meets at any seed.
fn cell_invariants(r: &SimReport, out: &mut Outcome, pass: usize, i: usize) -> bool {
    let expected = (vfc_bench::default_duration().value() / 0.1).round() as usize;
    let finite = [
        r.chip_energy.value(),
        r.pump_energy.value(),
        r.max_temperature.value(),
        r.mean_temperature.value(),
        r.throughput,
    ]
    .iter()
    .all(|v| v.is_finite() && *v >= 0.0);
    if r.samples != expected || !finite {
        out.problem(format!(
            "pass {pass} cell {i} ({} {}): {} samples (want {expected}), finite non-negative \
             energies/temperatures: {finite}",
            r.label, r.workload, r.samples
        ));
        return false;
    }
    true
}

/// Per workload and DPM setting, TALB (Var) must spend less pump energy
/// than TALB (Max). Returns the number of cells that failed.
fn pairwise_checks(cells: &[SimConfig], reports: &[Option<SimReport>], out: &mut Outcome) -> u64 {
    let mut failed = 0;
    for (i, var_cfg) in cells.iter().enumerate() {
        let is_var = var_cfg.policy == PolicyKind::Talb
            && var_cfg.cooling == CoolingKind::LiquidVariable
            && var_cfg.faults.is_empty();
        if !is_var {
            continue;
        }
        let max_idx = cells.iter().position(|c| {
            c.policy == PolicyKind::Talb
                && c.cooling == CoolingKind::LiquidMax
                && c.faults.is_empty()
                && c.dpm == var_cfg.dpm
                && c.workload == var_cfg.workload
        });
        let (Some(j), Some(var)) = (max_idx, reports[i].as_ref()) else {
            continue;
        };
        let Some(max) = reports[j].as_ref() else {
            continue;
        };
        if var.pump_energy.value() >= max.pump_energy.value() {
            out.problem(format!(
                "{} dpm={}: TALB (Var) pump energy {:.1} J is not below TALB (Max) {:.1} J",
                var.workload,
                var_cfg.dpm,
                var.pump_energy.value(),
                max.pump_energy.value()
            ));
            failed += 1;
        }
    }
    failed
}

/// At the reference seed the whole `all_figures` text must match the
/// committed reference byte for byte.
fn check_reference(head: &str, out: &mut Outcome) {
    let text = format!("{head}{}", sweep_text());
    let executed = vfc_bench::shared_runner().stats().executed;
    if executed != 0 {
        out.problem(format!(
            "rendering the figures simulated {executed} cells the timed phase did not"
        ));
    }
    if text != REFERENCE {
        out.problem(format!(
            "all_figures text differs from reference/all_figures.txt: {}",
            first_difference(&text, REFERENCE)
        ));
        out.failed = out.attempted;
    } else {
        out.note("all_figures text is byte-identical to reference/all_figures.txt");
    }
}

/// The first differing line of two texts, for the failure message.
fn first_difference(got: &str, want: &str) -> String {
    let mut got_lines = got.lines();
    let mut want_lines = want.lines();
    for line in 1.. {
        match (got_lines.next(), want_lines.next()) {
            (None, None) => return "identical lines, different line endings".into(),
            (g, w) if g == w => {}
            (g, w) => return format!("line {line}: got {g:?}, want {w:?}"),
        }
    }
    unreachable!()
}

/// Per-layer metrics of the traced run: the spans-level pass, the
/// set-up replays on the 1 mm grid, the cache replays, and a service
/// probe.
fn traced_metrics(
    ctx: &Ctx,
    cells: &[SimConfig],
    reports: &[Option<SimReport>],
    snap: &vfc_obs::Snapshot,
    wall_s: &[f64],
    out: &mut Outcome,
) {
    layers::from_snapshot(snap, out);
    out.count("runner.jobs", snap.counter("runner.jobs").unwrap_or(0));
    out.push(
        "obs.overhead_pct",
        "%",
        (wall_s[1] / wall_s[0] - 1.0) * 100.0,
    );

    // `Simulation::new` for every cell, timed by the benchmark.
    let span = ctx.tracer.open("sim.new", None);
    let mut new_s = 0.0;
    for cfg in cells {
        let (sim, s) = ctx.tracer.time("sim.new.cell", Some(span.id), || {
            vfc_sim::Simulation::new(cfg.clone())
        });
        if let Err(e) = sim {
            out.problem(format!("Simulation::new failed on replay: {e}"));
        }
        new_s += s;
    }
    ctx.tracer.close(span);
    out.push("sim.new_ms", "ms", new_s * 1e3 / cells.len() as f64);

    let keyed: Vec<(u64, SimReport)> = cells
        .iter()
        .zip(reports)
        .filter_map(|(c, r)| r.clone().map(|r| (c.cache_key(), r)))
        .collect();
    let miss_store_ms = layers::replay_cache(ctx, &ctx.fresh_dir("cache-replay"), &keyed, out);
    runner_overhead(snap, wall_s[1], cells.len(), miss_store_ms, out);

    let template = cells
        .iter()
        .find(|c| c.cooling == CoolingKind::LiquidVariable)
        .expect("the figure set has variable-flow cells");
    layers::replay_setup(ctx, template, out);
    service::probe(ctx, out);
}

/// Runner overhead per cell: batch wall time minus the time inside
/// `Simulation::new` + `run`. The latter is the `runner.job` span total
/// less the cache miss and store each job also makes (timed by replay).
fn runner_overhead(
    snap: &vfc_obs::Snapshot,
    batch_s: f64,
    cells: usize,
    miss_store_ms: f64,
    out: &mut Outcome,
) {
    let (_, job_ns) = layers::span_total(snap, "runner.job");
    let outside_jobs_ms = (batch_s * 1e9 - job_ns) / 1e6 / cells.max(1) as f64;
    out.push(
        "runner.overhead_ms_per_cell",
        "ms",
        outside_jobs_ms + miss_store_ms,
    );
}

/// A short cold batch through a one-worker runner, for the runner
/// timings of workloads that do not drive a batch themselves. Resets
/// `vfc_obs`: call it after the workload's snapshot is taken.
pub fn runner_probe(ctx: &Ctx, out: &mut Outcome) {
    let cells: Vec<SimConfig> = Benchmark::table_ii()
        .into_iter()
        .map(|b| {
            SimConfig::new(
                SystemKind::TwoLayer,
                CoolingKind::LiquidMax,
                PolicyKind::Talb,
                b,
            )
            .with_grid_cell(vfc_units::Length::from_millimeters(2.0))
            .with_duration(vfc_units::Seconds::new(2.0))
            .with_seed(ctx.args.seed)
        })
        .collect();
    let runner = fresh_runner(ctx, "runner-probe");
    vfc_obs::reset();
    vfc_obs::set_level(vfc_obs::TelemetryLevel::Spans);
    let pass = run_pass(ctx, &runner, &cells);
    vfc_obs::set_level(vfc_obs::TelemetryLevel::Off);
    let snap = vfc_obs::snapshot();
    let keyed: Vec<(u64, SimReport)> = cells
        .iter()
        .zip(pass.results)
        .filter_map(|(c, r)| r.ok().map(|r| (c.cache_key(), r)))
        .collect();
    if keyed.len() != cells.len() {
        out.problem("runner probe: a cell failed");
    }
    let miss_store_ms = layers::replay_cache(ctx, &ctx.fresh_dir("cache-replay"), &keyed, out);
    runner_overhead(&snap, pass.wall_s, cells.len(), miss_store_ms, out);
}
