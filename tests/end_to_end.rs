//! End-to-end integration tests: the paper's headline claims on the real
//! simulation stack (shortened runs, coarser grid for test speed).

use vfc::prelude::*;
use vfc::workload::Benchmark;

fn quick(cooling: CoolingKind, policy: PolicyKind, bench: &str, seconds: f64) -> SimReport {
    let cfg = SimConfig::new(
        SystemKind::TwoLayer,
        cooling,
        policy,
        Benchmark::by_name(bench).expect("table II"),
    )
    .with_duration(Seconds::new(seconds))
    .with_grid_cell(Length::from_millimeters(2.0));
    Simulation::new(cfg)
        .and_then(Simulation::run)
        .expect("simulation runs")
}

#[test]
fn variable_flow_holds_the_target_across_all_workloads() {
    for b in Benchmark::table_ii() {
        let r = quick(CoolingKind::LiquidVariable, PolicyKind::Talb, b.name, 6.0);
        assert!(
            r.max_temperature.value() < 85.0,
            "{}: peak {} must stay below the hot-spot threshold",
            b.name,
            r.max_temperature
        );
        assert_eq!(r.hot_spot_pct, 0.0, "{}", b.name);
        // The paper's guarantee is on the 80 C target; allow brief
        // excursions only (forecast error + pump transition).
        assert!(
            r.above_target_pct < 25.0,
            "{}: above-target {:.1}% too often",
            b.name,
            r.above_target_pct
        );
    }
}

#[test]
fn variable_flow_never_uses_more_pump_energy_than_max() {
    for b in ["gzip", "Database", "Web-med", "Web-high"] {
        let var = quick(CoolingKind::LiquidVariable, PolicyKind::Talb, b, 6.0);
        let max = quick(CoolingKind::LiquidMax, PolicyKind::Talb, b, 6.0);
        assert!(
            var.pump_energy.value() <= max.pump_energy.value() + 1e-9,
            "{b}: var {} > max {}",
            var.pump_energy,
            max.pump_energy
        );
    }
}

#[test]
fn low_utilization_workloads_show_the_headline_savings() {
    // The paper: cooling-energy reduction exceeds 30% and total savings
    // reach ~12% for low-utilization workloads (gzip, MPlayer).
    let var = quick(CoolingKind::LiquidVariable, PolicyKind::Talb, "gzip", 10.0);
    let max = quick(CoolingKind::LiquidMax, PolicyKind::Talb, "gzip", 10.0);
    let cooling_saving = 1.0 - var.pump_energy.value() / max.pump_energy.value();
    let total_saving = 1.0 - var.total_energy().value() / max.total_energy().value();
    assert!(
        cooling_saving > 0.30,
        "cooling saving {:.1}% should exceed 30%",
        100.0 * cooling_saving
    );
    assert!(
        total_saving > 0.08,
        "total saving {:.1}% should be near the paper's 12%",
        100.0 * total_saving
    );
}

#[test]
fn max_flow_prevents_all_hot_spots_but_air_does_not() {
    let air = quick(CoolingKind::Air, PolicyKind::LoadBalancing, "Web-high", 6.0);
    let liq = quick(
        CoolingKind::LiquidMax,
        PolicyKind::LoadBalancing,
        "Web-high",
        6.0,
    );
    assert!(
        air.hot_spot_pct > 10.0,
        "air-cooled Web-high must show hot spots, got {:.1}%",
        air.hot_spot_pct
    );
    assert_eq!(
        liq.hot_spot_pct, 0.0,
        "the paper: at maximum flow no temperature-triggered events occur"
    );
    assert!(liq.max_temperature < air.max_temperature);
}

#[test]
fn leakage_couples_temperature_and_chip_energy() {
    // Cooler chip (max flow) must burn less chip energy than the warmer
    // variable-flow run of the same workload — the leakage feedback the
    // paper warns about ("temperature-dependent leakage does not revert
    // the benefits").
    let var = quick(CoolingKind::LiquidVariable, PolicyKind::Talb, "gzip", 8.0);
    let max = quick(CoolingKind::LiquidMax, PolicyKind::Talb, "gzip", 8.0);
    assert!(
        var.chip_energy.value() > max.chip_energy.value(),
        "warmer Var chip should leak more: {} vs {}",
        var.chip_energy,
        max.chip_energy
    );
    // ...but the pump savings dominate.
    assert!(var.total_energy().value() < max.total_energy().value());
}

#[test]
fn four_layer_system_runs_and_is_hotter_per_flow() {
    let run = |system| {
        let cfg = SimConfig::new(
            system,
            CoolingKind::LiquidMax,
            PolicyKind::Talb,
            Benchmark::by_name("Web-med").unwrap(),
        )
        .with_duration(Seconds::new(5.0))
        .with_grid_cell(Length::from_millimeters(2.0));
        Simulation::new(cfg).and_then(Simulation::run).unwrap()
    };
    let two = run(SystemKind::TwoLayer);
    let four = run(SystemKind::FourLayer);
    // Same pump output split over 5 cavities instead of 3: hotter.
    assert!(
        four.mean_temperature.value() > two.mean_temperature.value(),
        "4-layer {} vs 2-layer {}",
        four.mean_temperature,
        two.mean_temperature
    );
}

#[test]
fn reports_are_internally_consistent() {
    let r = quick(
        CoolingKind::LiquidVariable,
        PolicyKind::Talb,
        "Database",
        6.0,
    );
    assert_eq!(r.samples, 60);
    assert!(r.mean_temperature <= r.max_temperature);
    assert!(r.total_energy().value() >= r.chip_energy.value());
    assert!(r.throughput > 0.0);
    assert!(r.forecast_mae.is_some());
    assert!(r.mean_flow_setting.is_some());
}
