//! Run an arbitrary simulation sweep from the command line.
//!
//! The spec flags are `vfc_serve::WireSpec`'s, the same ones
//! `serve_client` takes: comma-separated axes whose cartesian product is
//! the sweep, `--workloads all` and `--seeds a..b` included. Results are
//! cached under `target/vfc-cache/` by config hash, so repeating a sweep
//! only simulates cells that changed.
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
use vfc::serve::WireSpec;
use vfc_bench::telemetry::{enable_for_export, export_snapshot};

fn usage_text() -> String {
    format!(
        "usage: sweep [--smoke] [spec flags] [options]

Flags apply left to right and later flags win, so put --smoke first to
customize the preset (e.g. `sweep --smoke --duration 10`).

{}

options:
  --threads <n>             worker threads (available parallelism; also
                            honors VFC_RUNNER_THREADS)
  --no-cache                in-memory cache only (skip target/vfc-cache)
  --cache-dir <path>        on-disk cache location
  --smoke                   the quick 2x2x2 preset (2 s, 2 mm grid)
  --telemetry <path>        write a vfc_obs JSON snapshot to <path>
                            (raises VFC_TELEMETRY to `spans` unless the
                            env var already chose a level)
  --quiet                   suppress per-job progress on stderr",
        WireSpec::FLAGS_HELP
    )
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2)
}

fn fail(msg: &str) -> ! {
    eprintln!("sweep: {msg}");
    usage()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut spec = WireSpec::default();
    let mut threads: Option<usize> = None;
    let mut cache_dir: Option<String> = None;
    let mut no_cache = false;
    let mut telemetry: Option<std::path::PathBuf> = None;
    let mut quiet = false;

    while let Some(flag) = args.next() {
        match spec.apply_flag(&flag, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => fail(&e),
        }
        let mut value = || {
            args.next()
                .unwrap_or_else(|| fail(&format!("flag `{flag}` needs a value")))
        };
        match flag.as_str() {
            "--smoke" => {
                spec.policies = vec!["lb".into(), "talb".into()];
                spec.coolings = vec!["max".into(), "var".into()];
                spec.workloads = vec!["gzip".into(), "Web-med".into()];
                spec.duration_s = 2.0;
                spec.grid_mm = vec![2.0];
            }
            "--threads" => {
                threads = Some(value().parse().unwrap_or_else(|_| fail("bad --threads")));
            }
            "--no-cache" => no_cache = true,
            "--cache-dir" => cache_dir = Some(value()),
            "--telemetry" => telemetry = Some(value().into()),
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!("{}", usage_text());
                std::process::exit(0);
            }
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    let configs = spec.expand().unwrap_or_else(|e| fail(&e));

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
        "\njobs={} cache_hits={} executed={} failures={} corrupt={} hit_rate={:.1}%",
        stats.jobs,
        stats.cache_hits,
        stats.executed,
        stats.failures,
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
