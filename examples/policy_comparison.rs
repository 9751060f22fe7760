//! Compare all seven policy/cooling combinations of the paper's Fig. 6
//! on one workload, printing a table in the figure's legend order.
//!
//! ```sh
//! cargo run --release --example policy_comparison [workload]
//! ```
//!
//! `workload` defaults to `Web-med`; any Table II name works
//! (Web-med, Web-high, Database, Web&DB, gcc, gzip, MPlayer, MPlayer&Web).
//!
//! The seven-entry matrix is carved out of the full 3 coolings × 3
//! policies product with a `SweepSpec` filter (variable flow only pairs
//! with TALB in the paper), and the runs fan out over `vfc_runner`'s
//! batch executor with result caching — rerunning the example
//! answers from `target/vfc-cache/` without simulating.

use vfc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "Web-med".into());
    let bench =
        Benchmark::by_name(&name).ok_or_else(|| format!("unknown Table II workload `{name}`"))?;
    println!("workload: {bench}\n");
    println!(
        "{:<12} {:>7} {:>7} {:>9} {:>9} {:>10} {:>10} {:>8} {:>6}",
        "policy", "mean C", "peak C", ">85C %", "grad15 %", "chip J", "pump J", "thr/s", "mig"
    );

    // Cooling-major expansion order matches the paper's legend order:
    // LB/Mig./TALB on air, then at worst-case flow, then TALB (Var).
    let spec = SweepSpec::new()
        .coolings([
            CoolingKind::Air,
            CoolingKind::LiquidMax,
            CoolingKind::LiquidVariable,
        ])
        .policies([
            PolicyKind::LoadBalancing,
            PolicyKind::ReactiveMigration,
            PolicyKind::Talb,
        ])
        .benchmarks([bench])
        .duration(Seconds::new(30.0))
        .filter(|cfg| cfg.cooling != CoolingKind::LiquidVariable || cfg.policy == PolicyKind::Talb);

    let runner = SweepRunner::with_default_disk_cache();
    let reports = runner.run_spec(&spec)?;
    let base = reports[0].throughput;
    for r in &reports {
        println!(
            "{:<12} {:>7.1} {:>7.1} {:>9.1} {:>9.1} {:>10.0} {:>10.0} {:>8.3} {:>6}",
            r.label,
            r.mean_temperature.value(),
            r.max_temperature.value(),
            r.hot_spot_pct,
            r.gradient_pct,
            r.chip_energy.value(),
            r.pump_energy.value(),
            if base > 0.0 { r.throughput / base } else { 1.0 },
            r.migrations,
        );
    }
    let stats = runner.stats();
    println!("\n(thr/s is normalized to LB (Air), as in the paper's Fig. 8)");
    println!(
        "({} runs: {} simulated, {} from cache)",
        stats.jobs, stats.executed, stats.cache_hits
    );
    Ok(())
}
