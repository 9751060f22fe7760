//! End-to-end and per-layer benchmark of the reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <figures|fine|service|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process (so peak RSS is its own), on a
//! fresh work directory under `.bench_work/`, with one runner worker and
//! one kernel thread. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0` (telemetry off), the per-layer metrics with
//! `--trace 1`. See `benchmark/README.md` for the workloads, the metric
//! definitions and the noise measurements behind the design.

mod figures;
mod fine;
mod host;
mod layers;
mod ledger;
mod report;
mod service;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Root of every run's scratch state, relative to the checkout root.
pub const WORK_ROOT: &str = ".bench_work";

/// A run that has not finished by then is a hang: the watchdog fails it.
const WATCHDOG: Duration = Duration::from_secs(170);

const WORKLOADS: [&str; 3] = ["figures", "fine", "service"];

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or all, got {:?}",
            args.workload
        ));
    }
    if !(1..=120).contains(&args.seconds) {
        return Err(format!("--seconds must be 1..=120, got {}", args.seconds));
    }
    Ok(args)
}

/// Everything a workload needs from the harness.
pub struct Ctx {
    pub args: Args,
    /// This run's fresh scratch directory (removed when the run ends).
    pub work: PathBuf,
    pub tracer: trace::Tracer,
}

impl Ctx {
    /// A fresh, empty directory under the run's work directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    // One runner worker and one kernel thread, before any pool exists:
    // two busy threads on this class of 2-vCPU host slow each other by
    // ~40% (see README), which is the noise this benchmark is built
    // to avoid.
    std::env::set_var(vfc_num::THREADS_ENV, "1");
    std::env::set_var(vfc_runner::THREADS_ENV, "1");
    vfc_obs::set_level(vfc_obs::TelemetryLevel::Off);

    let work = Path::new(WORK_ROOT).join(format!(
        "run-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0)
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    figures::pin_figure_cache(&work);
    let watchdog = host::Watchdog::arm(WATCHDOG, work.clone());

    let ctx = Ctx {
        tracer: trace::Tracer::new(args.trace),
        args,
        work,
    };
    let calib_before = host::calibrate_ms();
    let started = Instant::now();
    let mut outcome = match ctx.args.workload.as_str() {
        "figures" => figures::run(&ctx),
        "fine" => fine::run(&ctx),
        "service" => service::run(&ctx),
        _ => unreachable!("validated in parse_args"),
    };
    let wall_s = started.elapsed().as_secs_f64();
    let calib_after = host::calibrate_ms();
    watchdog.disarm();

    outcome.finish(&ctx, calib_before, calib_after, wall_s);
    let _ = std::fs::remove_dir_all(&ctx.work);
    let correct = outcome.print(&ctx);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--workload all`: every workload in turn, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut lines = Vec::new();
    let mut all_ok = true;
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        match out {
            Ok(out) => {
                let text = String::from_utf8_lossy(&out.stdout);
                print!("{text}");
                all_ok &= out.status.success();
                let last = text.lines().last().unwrap_or("null").to_string();
                lines.push(format!("\"{w}\": {last}"));
            }
            Err(e) => {
                eprintln!("error: cannot run workload {w}: {e}");
                all_ok = false;
            }
        }
    }
    println!("{{{}}}", lines.join(", "));
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
