//! Scheduler-focused integration tests: TALB's thermal effects and the
//! migration policy's costs, measured on the full stack.

use vfc::prelude::*;
use vfc::workload::Benchmark;

fn run(
    system: SystemKind,
    cooling: CoolingKind,
    policy: PolicyKind,
    bench: &str,
    secs: f64,
) -> SimReport {
    let cfg = SimConfig::new(system, cooling, policy, Benchmark::by_name(bench).unwrap())
        .with_duration(Seconds::new(secs))
        .with_grid_cell(Length::from_millimeters(2.0));
    Simulation::new(cfg).and_then(Simulation::run).unwrap()
}

#[test]
fn talb_reduces_hot_spots_and_gradients_under_air_cooling() {
    let lb = run(
        SystemKind::TwoLayer,
        CoolingKind::Air,
        PolicyKind::LoadBalancing,
        "Web-med",
        10.0,
    );
    let talb = run(
        SystemKind::TwoLayer,
        CoolingKind::Air,
        PolicyKind::Talb,
        "Web-med",
        10.0,
    );
    assert!(
        talb.gradient_pct <= lb.gradient_pct,
        "TALB gradients {:.1}% must not exceed LB's {:.1}%",
        talb.gradient_pct,
        lb.gradient_pct
    );
    assert!(
        talb.hot_spot_pct <= lb.hot_spot_pct,
        "TALB hot spots {:.1}% vs LB {:.1}%",
        talb.hot_spot_pct,
        lb.hot_spot_pct
    );
    assert!(
        talb.mean_temperature <= lb.mean_temperature,
        "weighted balancing should lower the mean peak temperature"
    );
}

#[test]
fn talb_matches_lb_throughput() {
    // The paper: TALB only reweights queue lengths; performance-neutral.
    for bench in ["Web-med", "Web-high"] {
        let lb = run(
            SystemKind::TwoLayer,
            CoolingKind::LiquidMax,
            PolicyKind::LoadBalancing,
            bench,
            8.0,
        );
        let talb = run(
            SystemKind::TwoLayer,
            CoolingKind::LiquidMax,
            PolicyKind::Talb,
            bench,
            8.0,
        );
        let ratio = talb.throughput / lb.throughput;
        assert!(
            (0.97..=1.03).contains(&ratio),
            "{bench}: TALB/LB throughput ratio {ratio:.3}"
        );
    }
}

#[test]
fn migrations_occur_on_hot_air_but_not_under_max_flow() {
    let air = run(
        SystemKind::TwoLayer,
        CoolingKind::Air,
        PolicyKind::ReactiveMigration,
        "Web-high",
        10.0,
    );
    let liq = run(
        SystemKind::TwoLayer,
        CoolingKind::LiquidMax,
        PolicyKind::ReactiveMigration,
        "Web-high",
        10.0,
    );
    assert!(
        air.migrations > 0,
        "hot air-cooled run must trigger migrations"
    );
    assert_eq!(
        liq.migrations, 0,
        "the paper: at max flow no temperature-triggered migrations occur"
    );
    // And the migration overhead costs throughput relative to plain LB.
    let lb_air = run(
        SystemKind::TwoLayer,
        CoolingKind::Air,
        PolicyKind::LoadBalancing,
        "Web-high",
        10.0,
    );
    assert!(
        air.throughput <= lb_air.throughput * 1.001,
        "migration cannot beat LB on completions: {} vs {}",
        air.throughput,
        lb_air.throughput
    );
}

#[test]
fn thread_accounting_is_conserved() {
    // With low utilization every generated thread completes within the
    // run (plus stragglers bounded by queue depth).
    let r = run(
        SystemKind::TwoLayer,
        CoolingKind::LiquidMax,
        PolicyKind::LoadBalancing,
        "MPlayer",
        10.0,
    );
    // MPlayer: 6.5% of 32 contexts ≈ 2.08 contexts busy; mean thread
    // 72 ms → ~29 threads/s.
    let expected = 0.065 * 32.0 / 0.0721;
    assert!(
        (r.throughput - expected).abs() < 0.35 * expected,
        "throughput {:.1}/s vs offered {expected:.1}/s",
        r.throughput
    );
}

#[test]
fn dpm_reduces_idle_chip_energy() {
    let without = run(
        SystemKind::TwoLayer,
        CoolingKind::LiquidMax,
        PolicyKind::LoadBalancing,
        "MPlayer",
        8.0,
    );
    let with = {
        let cfg = SimConfig::new(
            SystemKind::TwoLayer,
            CoolingKind::LiquidMax,
            PolicyKind::LoadBalancing,
            Benchmark::by_name("MPlayer").unwrap(),
        )
        .with_duration(Seconds::new(8.0))
        .with_grid_cell(Length::from_millimeters(2.0))
        .with_dpm(true);
        Simulation::new(cfg).and_then(Simulation::run).unwrap()
    };
    assert!(
        with.chip_energy.value() < without.chip_energy.value(),
        "sleeping idle cores must save energy: {} vs {}",
        with.chip_energy,
        without.chip_energy
    );
}

#[test]
fn weight_table_reflects_thermal_asymmetry_on_air() {
    // Build a TALB simulation on the air-cooled stack and inspect its
    // weight table: the paper's premise is that cores differ in thermal
    // quality, so the weights must not all be equal.
    let cfg = SimConfig::new(
        SystemKind::TwoLayer,
        CoolingKind::Air,
        PolicyKind::Talb,
        Benchmark::by_name("Web-med").unwrap(),
    )
    .with_grid_cell(Length::from_millimeters(2.0));
    let sim = Simulation::new(cfg).unwrap();
    let w = sim.weight_table().weights_for(Celsius::new(75.0));
    let spread =
        w.iter().cloned().fold(f64::MIN, f64::max) - w.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        spread > 1e-3,
        "air-cooled cores share a sink but differ in position; weights {w:?}"
    );
}
