//! Design-space exploration: 2-layer vs 4-layer stacks across the pump's
//! discrete flow settings, reproducing the reasoning behind the paper's
//! Fig. 5 (which flow does each system need for a given heat demand?).
//!
//! Two passes over the same question:
//!
//! 1. steady-state characterization (cheap, the controller's own view);
//! 2. a `vfc_runner` sweep of full co-simulations pinning each fixed
//!    flow setting on each stack — the cartesian product is declared
//!    once, fans out over the batch executor, and lands in the
//!    result cache for instant reruns.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use vfc::control::characterize;
use vfc::floorplan::{ultrasparc, GridSpec};
use vfc::prelude::*;
use vfc::thermal::{StackThermalBuilder, ThermalConfig};
use vfc::units::Watts;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pump = Pump::laing_ddc();
    for (label, stack, cavities) in [
        ("2-layer", ultrasparc::two_layer_liquid(), 3usize),
        ("4-layer", ultrasparc::four_layer_liquid(), 5),
    ] {
        println!(
            "=== {label} stack: {} cores, {} cavities ===",
            stack.core_count(),
            cavities
        );
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(1.0));
        let builder = StackThermalBuilder::new(&stack, grid, ThermalConfig::default());
        let stack_for_power = stack.clone();
        let c = characterize(
            &builder,
            &pump,
            cavities,
            Celsius::new(80.0),
            9,
            &move |demand, model| {
                model.uniform_block_power(&stack_for_power, |b| match b.kind() {
                    vfc::floorplan::BlockKind::Core => {
                        Watts::new(demand * 3.0 + (1.0 - demand) * 1.0 + 0.3)
                    }
                    vfc::floorplan::BlockKind::L2Cache => {
                        Watts::new(1.28 * (0.2 + 0.8 * demand) + 0.57)
                    }
                    vfc::floorplan::BlockKind::Crossbar => Watts::new(demand * 1.5 + 0.45),
                    _ => Watts::new(0.3),
                })
            },
        )?;

        println!("  demand  Tmax@min-flow  required setting  per-cavity ml/min  pump W");
        for (i, &demand) in c.demands().iter().enumerate() {
            let (t_at_min, setting) = c.fig5_series()[i];
            let s = pump.setting(setting)?;
            println!(
                "  {demand:>5.2}  {:>12.1}  {:>16}  {:>17.0}  {:>6.2}",
                t_at_min.value(),
                setting + 1,
                pump.per_cavity_flow(s, cavities).to_ml_per_minute(),
                pump.power(s).value(),
            );
        }
        println!();
    }
    println!("The 4-layer stack needs higher settings at the same demand: its five");
    println!("cavities split the same pump output, so each receives only 3/5 of the");
    println!("2-layer per-cavity flow — the paper's Fig. 5 shows the same ordering.");

    // Pass 2: verify the characterization's ordering with full
    // co-simulations — every (stack, fixed setting) cell of the design
    // space under the Web-med workload.
    println!("\n=== full co-simulation sweep: stacks x fixed flow settings ===");
    let runner = SweepRunner::with_default_disk_cache();
    let reports = runner.run_spec(
        &SweepSpec::new()
            .systems([SystemKind::TwoLayer, SystemKind::FourLayer])
            .coolings(pump.flow_settings().map(CoolingKind::LiquidFixed))
            .policies([PolicyKind::LoadBalancing])
            .benchmarks([Benchmark::by_name("Web-med").expect("Table II")])
            .duration(Seconds::new(10.0))
            .grid_cells([Length::from_millimeters(2.0)]),
    )?;
    println!(
        "{:<10} {:>9} {:>8} {:>8} {:>10} {:>10}",
        "system", "setting", "mean C", "peak C", ">80C %", "pump J"
    );
    for (i, r) in reports.iter().enumerate() {
        println!(
            "{:<10} {:>9} {:>8.1} {:>8.1} {:>10.1} {:>10.0}",
            r.system,
            i % pump.setting_count() + 1,
            r.mean_temperature.value(),
            r.max_temperature.value(),
            r.above_target_pct,
            r.pump_energy.value(),
        );
    }
    let stats = runner.stats();
    println!(
        "\n({} cells: {} simulated, {} from cache — rerun to see the cache take over)",
        stats.jobs, stats.executed, stats.cache_hits
    );
    Ok(())
}
