//! Run an arbitrary simulation sweep from the command line.
//!
//! Axes are comma-separated lists; the sweep is their cartesian product
//! (see `vfc_runner::SweepSpec`). Results are cached under
//! `target/vfc-cache/` by config hash, so repeating a sweep only
//! simulates cells that changed.
//!
//! ```sh
//! cargo run --release -p vfc_bench --bin sweep -- \
//!     --systems 2,4 --cooling max,var --policies talb \
//!     --workloads gzip,Web-med --seeds 0..4 --duration 10
//! ```
//!
//! `--smoke` runs the quick preset (2 policies × 2 coolings × 2
//! workloads, 2 s at a 2 mm grid); `crates/bench/tests/gates.rs` runs
//! it twice and requires the second pass to be served from the cache.

use vfc::prelude::*;
use vfc_bench::telemetry::{enable_for_export, export_snapshot};

fn usage_text() -> &'static str {
    "usage: sweep [--smoke] [axes] [options]

Flags apply left to right and later flags win, so put --smoke first to
customize the preset (e.g. `sweep --smoke --duration 10`).

axes (comma-separated; defaults in parentheses):
  --systems 2,4             stack layer counts (2)
  --cooling air,max,var,fixed:<0-based setting>   (var)
  --policies lb,mig,talb    scheduling policies (talb)
  --workloads gzip,gcc,...  Table II names, or `all` (all eight)
  --seeds 1,2,3 | 0..8      workload generator seeds (42)
  --grid-mm 1,2             thermal grid cell sizes in mm (1)

options:
  --duration <s>            simulated seconds per cell (60)
  --dpm                     enable dynamic power management
  --threads <n>             worker threads (available parallelism; also
                            honors VFC_RUNNER_THREADS)
  --no-cache                in-memory cache only (skip target/vfc-cache)
  --cache-dir <path>        on-disk cache location
  --smoke                   the quick 2x2x2 preset (2 s, 2 mm grid)
  --telemetry <path>        write a vfc_obs JSON snapshot to <path>
                            (raises VFC_TELEMETRY to `spans` unless the
                            env var already chose a level)
  --quiet                   suppress per-job progress on stderr"
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2)
}

fn fail(msg: &str) -> ! {
    eprintln!("sweep: {msg}");
    usage()
}

fn parse_list<T>(arg: &str, parse_one: impl Fn(&str) -> Option<T>) -> Vec<T> {
    arg.split(',')
        .map(|item| {
            parse_one(item.trim())
                .unwrap_or_else(|| fail(&format!("cannot parse list item `{item}` in `{arg}`")))
        })
        .collect()
}

fn parse_seeds(arg: &str) -> Vec<u64> {
    if let Some((lo, hi)) = arg.split_once("..") {
        let lo: u64 = lo.trim().parse().unwrap_or_else(|_| fail("bad seed range"));
        let hi: u64 = hi.trim().parse().unwrap_or_else(|_| fail("bad seed range"));
        (lo..hi).collect()
    } else {
        parse_list(arg, |s| s.parse().ok())
    }
}

fn parse_cooling(s: &str) -> Option<CoolingKind> {
    match s.to_ascii_lowercase().as_str() {
        "air" => Some(CoolingKind::Air),
        "max" => Some(CoolingKind::LiquidMax),
        "var" => Some(CoolingKind::LiquidVariable),
        other => {
            let idx: usize = other.strip_prefix("fixed:")?.parse().ok()?;
            // Validate against the default pump here, at flag-parse
            // time, instead of panicking inside every simulation cell.
            let setting = Pump::laing_ddc().setting(idx).ok()?;
            Some(CoolingKind::LiquidFixed(setting))
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec = SweepSpec::new();
    let mut threads: Option<usize> = None;
    let mut cache_dir: Option<String> = None;
    let mut no_cache = false;
    let mut telemetry: Option<std::path::PathBuf> = None;
    let mut quiet = false;

    let mut i = 0;
    let next_value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i)
            .unwrap_or_else(|| fail(&format!("flag `{}` needs a value", args[*i - 1])))
            .clone()
    };
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                spec = spec
                    .policies([PolicyKind::LoadBalancing, PolicyKind::Talb])
                    .coolings([CoolingKind::LiquidMax, CoolingKind::LiquidVariable])
                    .benchmarks([
                        Benchmark::by_name("gzip").unwrap(),
                        Benchmark::by_name("Web-med").unwrap(),
                    ])
                    .duration(Seconds::new(2.0))
                    .grid_cells([Length::from_millimeters(2.0)]);
            }
            "--systems" => {
                let v = next_value(&mut i);
                spec = spec.systems(parse_list(&v, |s| match s {
                    "2" | "two" => Some(SystemKind::TwoLayer),
                    "4" | "four" => Some(SystemKind::FourLayer),
                    _ => None,
                }));
            }
            "--cooling" => {
                let v = next_value(&mut i);
                spec = spec.coolings(parse_list(&v, parse_cooling));
            }
            "--policies" => {
                let v = next_value(&mut i);
                spec = spec.policies(parse_list(&v, |s| match s.to_ascii_lowercase().as_str() {
                    "lb" => Some(PolicyKind::LoadBalancing),
                    "mig" | "migration" => Some(PolicyKind::ReactiveMigration),
                    "talb" => Some(PolicyKind::Talb),
                    _ => None,
                }));
            }
            "--workloads" => {
                let v = next_value(&mut i);
                if v == "all" {
                    spec = spec.benchmarks(Benchmark::table_ii());
                } else {
                    spec = spec.benchmarks(parse_list(&v, Benchmark::by_name));
                }
            }
            "--seeds" => {
                let v = next_value(&mut i);
                spec = spec.seeds(parse_seeds(&v));
            }
            "--grid-mm" => {
                let v = next_value(&mut i);
                spec = spec.grid_cells(parse_list(&v, |s| {
                    s.parse::<f64>().ok().map(Length::from_millimeters)
                }));
            }
            "--duration" => {
                let v = next_value(&mut i);
                let secs: f64 = v.parse().unwrap_or_else(|_| fail("bad --duration"));
                spec = spec.duration(Seconds::new(secs));
            }
            "--dpm" => spec = spec.dpm(true),
            "--threads" => {
                threads = Some(
                    next_value(&mut i)
                        .parse()
                        .unwrap_or_else(|_| fail("bad --threads")),
                );
            }
            "--no-cache" => no_cache = true,
            "--cache-dir" => cache_dir = Some(next_value(&mut i)),
            "--telemetry" => telemetry = Some(next_value(&mut i).into()),
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!("{}", usage_text());
                std::process::exit(0);
            }
            other => fail(&format!("unknown flag `{other}`")),
        }
        i += 1;
    }

    if telemetry.is_some() {
        enable_for_export();
    }

    let executor = match threads {
        Some(n) => Executor::with_threads(n),
        None => Executor::new(),
    };
    let cache = if no_cache {
        ResultCache::in_memory()
    } else {
        ResultCache::on_disk(
            cache_dir
                .map(std::path::PathBuf::from)
                .unwrap_or_else(vfc::runner::default_cache_dir),
        )
    };
    let runner = SweepRunner::with_parts(executor, cache);

    let configs = spec.expand();
    if configs.is_empty() {
        fail("the sweep expands to zero configurations");
    }
    eprintln!(
        "sweep: {} cells on {} worker(s), cache {}",
        configs.len(),
        runner.executor().threads(),
        if runner.cache().has_disk_store() {
            "on disk"
        } else {
            "in memory"
        },
    );

    let sweep_start = std::time::Instant::now();
    let results = runner.try_run_with_progress(configs, |p| {
        if !quiet {
            // ETA from the batch-mean job time so far — the same
            // estimate exported as the `runner.eta_seconds` gauge.
            let elapsed = sweep_start.elapsed().as_secs_f64();
            let eta = elapsed / p.completed as f64 * (p.total - p.completed) as f64;
            eprintln!("  [{}/{}] done, ~{eta:.0}s left", p.completed, p.total);
        }
    });

    println!(
        "{:<13} {:<8} {:<12} {:>7} {:>7} {:>10} {:>10} {:>8}",
        "policy", "system", "workload", "mean C", "peak C", "chip J", "pump J", "thr/s"
    );
    let mut failures = 0usize;
    for r in &results {
        match r {
            Ok(r) => println!(
                "{:<13} {:<8} {:<12} {:>7.1} {:>7.1} {:>10.0} {:>10.0} {:>8.2}",
                r.label,
                r.system,
                r.workload,
                r.mean_temperature.value(),
                r.max_temperature.value(),
                r.chip_energy.value(),
                r.pump_energy.value(),
                r.throughput,
            ),
            Err(e) => {
                failures += 1;
                println!("FAILED: {e}");
            }
        }
    }

    let stats = runner.stats();
    println!(
        "\njobs={} cache_hits={} executed={} failures={} retries={} evictions={} corrupt={} hit_rate={:.1}%",
        stats.jobs,
        stats.cache_hits,
        stats.executed,
        stats.failures,
        stats.job_retries,
        stats.cache_evictions,
        stats.cache_corrupt_evictions,
        100.0 * stats.hit_rate(),
    );

    if let Some(path) = &telemetry {
        export_snapshot(path);
    }

    if failures > 0 {
        std::process::exit(1);
    }
}
