//! Quick start: run the paper's technique (TALB + variable flow) on one
//! workload and print the report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use vfc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The 2-layer UltraSPARC-T1 stack with microchannel cavities, running
    // the medium web-server workload of Table II.
    let run = |cooling| {
        let cfg = SimConfig::new(
            SystemKind::TwoLayer,
            cooling,
            PolicyKind::Talb,
            Benchmark::by_name("Web-med").expect("Table II workload"),
        )
        .with_duration(Seconds::new(30.0));
        Simulation::new(cfg).and_then(Simulation::run)
    };
    let report = run(CoolingKind::LiquidVariable)?;

    println!("{report}");
    println!();
    println!(
        "controller: {} switches, mean setting {:.1}, forecast MAE {:.3} C",
        report.controller_switches,
        report.mean_flow_setting.unwrap_or(f64::NAN),
        report.forecast_mae.unwrap_or(f64::NAN),
    );

    // Compare against running the pump flat out (the worst-case baseline).
    let baseline = run(CoolingKind::LiquidMax)?;

    let cooling_saving = 100.0 * (1.0 - report.pump_energy.value() / baseline.pump_energy.value());
    let total_saving =
        100.0 * (1.0 - report.total_energy().value() / baseline.total_energy().value());
    println!(
        "vs worst-case flow: {cooling_saving:.1}% cooling energy saved, {total_saving:.1}% total"
    );
    Ok(())
}
