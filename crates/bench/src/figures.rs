//! Regeneration logic for every table and figure of the paper.

use std::fmt::Write as _;

use vfc::control::characterize;
use vfc::floorplan::{ultrasparc, BlockKind, GridSpec, Stack3d};
use vfc::liquid::{ChannelGeometry, ConvectionModel, Coolant};
use vfc::power::{LeakageModel, PowerModel};
use vfc::prelude::*;
use vfc::thermal::{material, StackThermalBuilder, ThermalConfig};
use vfc::units::Watts;

use crate::{norm, run_batch};

/// All eight Table II workloads.
pub(crate) fn workloads() -> [Benchmark; 8] {
    Benchmark::table_ii()
}

/// Table I — parameters for computing Eq. 1 (microchannel model
/// constants), printed from the values the code actually uses.
pub fn table1() -> String {
    let g = ChannelGeometry::ultrasparc();
    let w = Coolant::water();
    let beol = material::BEOL;
    let mut s = String::new();
    let _ = writeln!(s, "Table I — parameters for computing Equation 1");
    let _ = writeln!(s, "{:<34} {:>18} {:>18}", "parameter", "paper", "this repo");
    let row = |s: &mut String, name: &str, paper: &str, ours: String| {
        let _ = writeln!(s, "{name:<34} {paper:>18} {ours:>18}");
    };
    row(
        &mut s,
        "Rth-BEOL (K*mm^2/W)",
        "5.333",
        format!("{:.3}", beol.slab_area_resistance(12e-6) * 1e6),
    );
    row(&mut s, "tB (um)", "12", "12".into());
    row(
        &mut s,
        "kBEOL (W/(m*K))",
        "2.25",
        format!("{}", beol.conductivity),
    );
    row(
        &mut s,
        "cp coolant (J/(kg*K))",
        "4183",
        format!("{}", w.specific_heat),
    );
    row(
        &mut s,
        "rho coolant (kg/m^3)",
        "998",
        format!("{}", w.density),
    );
    let pump = Pump::laing_ddc();
    row(
        &mut s,
        "Vdot per cavity (l/min, 2-layer)",
        "0.1-1",
        format!(
            "{:.2}-{:.2}",
            pump.per_cavity_flow(FlowSetting::MIN, 3)
                .to_liters_per_minute(),
            pump.per_cavity_flow(pump.max_setting(), 3)
                .to_liters_per_minute()
        ),
    );
    row(
        &mut s,
        "h (W/(m^2*K))",
        "37132",
        format!("{} (paper-constant mode)", ConvectionModel::PAPER_H),
    );
    row(
        &mut s,
        "wc (um)",
        "50",
        format!("{:.0}", g.width().to_micrometers()),
    );
    row(
        &mut s,
        "tc (um)",
        "100",
        format!("{:.0}", g.height().to_micrometers()),
    );
    row(
        &mut s,
        "ts (um)",
        "50",
        format!("{:.0}", g.wall().to_micrometers()),
    );
    row(
        &mut s,
        "p (um)",
        "100",
        format!("{:.1} (65 channels over 10 mm)", g.pitch().to_micrometers()),
    );
    let _ = writeln!(
        s,
        "\nnote: experiments use the calibrated flow-scaled h_eff (DESIGN.md 4.3);"
    );
    let _ = writeln!(
        s,
        "the constant-h Eq. 6-7 model is available as ConvectionModel::paper_constant()."
    );
    s
}

/// Table II — workload characteristics plus the generator's measured
/// offered utilization (calibration check).
pub fn table2() -> String {
    use vfc::workload::WorkloadGenerator;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table II — workload characteristics (paper values) and generator calibration"
    );
    let _ = writeln!(
        s,
        "{:<12} {:>9} {:>9} {:>9} {:>9} {:>12} {:>9}",
        "benchmark", "util %", "L2 I-m", "L2 D-m", "FP", "measured %", "error"
    );
    for b in workloads() {
        // Measure the offered load over 60 simulated seconds.
        let mut generator = WorkloadGenerator::new(b, 32, 12345);
        let mut work = 0.0;
        let dt = Seconds::from_millis(1.0);
        for _ in 0..60_000 {
            for t in generator.poll(dt) {
                work += t.total().value();
            }
        }
        let measured = 100.0 * work / (60.0 * 32.0);
        let _ = writeln!(
            s,
            "{:<12} {:>9.2} {:>9.1} {:>9.1} {:>9.1} {:>12.2} {:>8.1}%",
            b.name,
            b.avg_util_pct,
            b.l2_imiss,
            b.l2_dmiss,
            b.fp_per_100k,
            measured,
            100.0 * (measured - b.avg_util_pct) / b.avg_util_pct,
        );
    }
    s
}

/// Table III — thermal model and floorplan parameters.
pub fn table3() -> String {
    let cfg = ThermalConfig::default();
    let core = ultrasparc::core_floorplan();
    let mut s = String::new();
    let _ = writeln!(s, "Table III — thermal model and floorplan parameters");
    let _ = writeln!(s, "{:<44} {:>10} {:>12}", "parameter", "paper", "this repo");
    let row = |s: &mut String, name: &str, paper: &str, ours: String| {
        let _ = writeln!(s, "{name:<44} {paper:>10} {ours:>12}");
    };
    row(
        &mut s,
        "die thickness, one stack (mm)",
        "0.15",
        format!("{}", ultrasparc::SI_THICKNESS_MM),
    );
    row(
        &mut s,
        "area per core (mm^2)",
        "10",
        format!(
            "{:.1}",
            core.blocks_of_kind(BlockKind::Core)
                .next()
                .unwrap()
                .rect()
                .area()
                .to_mm2()
        ),
    );
    row(
        &mut s,
        "area per L2 (mm^2)",
        "19",
        format!(
            "{:.1}",
            ultrasparc::cache_floorplan()
                .blocks_of_kind(BlockKind::L2Cache)
                .next()
                .unwrap()
                .rect()
                .area()
                .to_mm2()
        ),
    );
    row(
        &mut s,
        "total area per layer (mm^2)",
        "115",
        format!("{:.1}", core.area().to_mm2()),
    );
    row(
        &mut s,
        "convection capacitance (J/K)",
        "140",
        format!("{:.0}", cfg.air.sink_capacitance.value()),
    );
    row(
        &mut s,
        "convection resistance (K/W)",
        "0.1",
        format!("{}", cfg.air.sink_resistance.value()),
    );
    row(
        &mut s,
        "interlayer thickness (mm)",
        "0.02",
        format!("{}", ultrasparc::BOND_THICKNESS_MM),
    );
    row(
        &mut s,
        "interlayer thickness w/ channels (mm)",
        "0.4",
        format!("{}", ultrasparc::CAVITY_HEIGHT_MM),
    );
    row(
        &mut s,
        "interlayer resistivity, no TSV (mK/W)",
        "0.25",
        format!("{}", 1.0 / material::BOND.conductivity),
    );
    s
}

/// Fig. 1 — floorplans of the 3D systems (ASCII rendering).
pub fn fig1() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 1 — floorplans (C=core, L=L2, X=crossbar/TSV, u=uncore, b=buffer)"
    );
    let _ = writeln!(s, "\ncore layer (8x 10mm^2 cores, 15mm^2 crossbar column):");
    s.push_str(&ultrasparc::core_floorplan().render_ascii(46, 20));
    let _ = writeln!(s, "\ncache layer (4x 19mm^2 L2 banks):");
    s.push_str(&ultrasparc::cache_floorplan().render_ascii(46, 20));
    let two = ultrasparc::two_layer_liquid();
    let four = ultrasparc::four_layer_liquid();
    let _ = writeln!(
        s,
        "\n2-layer stack: {} tiers, {} cavities ({} channels); 4-layer: {} tiers, {} cavities ({} channels)",
        two.tiers().len(),
        two.cavity_count(),
        two.cavity_count() * 65,
        four.tiers().len(),
        four.cavity_count(),
        four.cavity_count() * 65,
    );
    s
}

/// Fig. 3 — pump power and per-cavity flow rates across the settings.
pub fn fig3() -> String {
    let pump = Pump::laing_ddc();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 3 — pump power and per-cavity flow rates (50% delivery loss)"
    );
    let _ = writeln!(
        s,
        "{:>8} {:>14} {:>20} {:>20} {:>10} {:>16}",
        "setting", "pump l/h", "2-layer ml/min", "4-layer ml/min", "power W", "press. mbar"
    );
    for st in pump.flow_settings() {
        let _ = writeln!(
            s,
            "{:>8} {:>14.0} {:>20.1} {:>20.1} {:>10.2} {:>16.0}",
            st.index() + 1,
            pump.total_flow(st).to_liters_per_hour(),
            pump.per_cavity_flow(st, 3).to_ml_per_minute(),
            pump.per_cavity_flow(st, 5).to_ml_per_minute(),
            pump.power(st).value(),
            pump.pressure_drop_mbar(st),
        );
    }
    s
}

/// The demand→power profile used for Fig. 5 characterization — the same
/// shape the simulator's controller uses.
fn demand_power(
    power: &PowerModel,
    leakage: &LeakageModel,
    stack: &Stack3d,
    model: &vfc::thermal::ThermalModel,
    demand: f64,
) -> Vec<f64> {
    let mut p = model.zero_power();
    for (t, tier) in stack.tiers().iter().enumerate() {
        for (b, blk) in tier.floorplan().blocks().iter().enumerate() {
            let dynamic = match blk.kind() {
                BlockKind::Core => power.core_power(demand, false).value(),
                BlockKind::L2Cache => power.l2_power(demand).value(),
                BlockKind::Crossbar => power.crossbar_power(demand, 0.8).value() * 0.5,
                kind => power.fixed_block_power(kind).value(),
            };
            let leak = leakage.block_leakage(blk, Celsius::new(79.0)).value();
            model.add_block_power(&mut p, t, b, Watts::new(dynamic + leak));
        }
    }
    p
}

/// Fig. 5 — flow rate requirements to cool a given Tmax (both systems).
pub fn fig5() -> String {
    let pump = Pump::laing_ddc();
    let power = PowerModel::ultrasparc_t1();
    let leakage = LeakageModel::su_polynomial();
    let mut s = String::new();
    let _ = writeln!(s, "Fig. 5 — per-cavity flow required to keep Tmax <= 80 C");
    for (label, stack, cavities) in [
        ("2-layer", ultrasparc::two_layer_liquid(), 3usize),
        ("4-layer", ultrasparc::four_layer_liquid(), 5),
    ] {
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(1.0));
        let builder = StackThermalBuilder::new(&stack, grid, ThermalConfig::default());
        let stack_ref = &stack;
        let c = characterize(
            &builder,
            &pump,
            cavities,
            Celsius::new(80.0),
            11,
            &|d, m| demand_power(&power, &leakage, stack_ref, m, d),
        )
        .expect("characterization");
        let _ = writeln!(s, "\n{label} ({} cavities):", cavities);
        let _ = writeln!(
            s,
            "{:>8} {:>16} {:>18} {:>22}",
            "demand", "Tmax@min-flow C", "required setting", "FR-discrete ml/min"
        );
        for (i, &demand) in c.demands().iter().enumerate() {
            let (t_min, setting) = c.fig5_series()[i];
            let st = pump.setting(setting).expect("within range");
            let _ = writeln!(
                s,
                "{:>8.2} {:>16.1} {:>18} {:>22.0}",
                demand,
                t_min.value(),
                setting + 1,
                pump.per_cavity_flow(st, cavities).to_ml_per_minute(),
            );
        }
    }
    let _ = writeln!(
        s,
        "\n(x-axis: the Tmax the demand would reach at the lowest setting; the paper"
    );
    let _ = writeln!(
        s,
        "indexes its LUT by observed temperature the same way, Fig. 5 / Sec. IV)"
    );
    s
}

/// One row of the Fig. 6/7/8 summaries.
struct PolicyAgg {
    label: String,
    hot_avg: f64,
    hot_max: f64,
    grad_avg: f64,
    grad_max: f64,
    grad_minor_avg: f64,
    cycle_avg: f64,
    cycle_minor_avg: f64,
    chip: f64,
    pump: f64,
    throughput_norm: f64,
    migrations: u64,
}

/// Runs one (policy, cooling) row over all workloads.
fn aggregate(
    system: SystemKind,
    duration: Seconds,
    dpm: bool,
    matrix: &[(PolicyKind, CoolingKind)],
) -> Vec<PolicyAgg> {
    // Batch everything: |matrix| x 8 runs.
    let mut configs = Vec::new();
    for &(policy, cooling) in matrix {
        for b in workloads() {
            configs.push(
                SimConfig::new(system, cooling, policy, b)
                    .with_duration(duration)
                    .with_dpm(dpm),
            );
        }
    }
    let reports = run_batch(configs);
    let per_policy: Vec<&[SimReport]> = reports.chunks(8).collect();

    // Baseline: LB (Air) — the first row, as in the paper.
    let base_chip: f64 = per_policy[0]
        .iter()
        .map(|r| r.chip_energy.value())
        .sum::<f64>()
        / 8.0;
    let base_thr: Vec<f64> = per_policy[0].iter().map(|r| r.throughput).collect();

    matrix
        .iter()
        .zip(per_policy)
        .map(|(&(policy, cooling), rs)| {
            let hot: Vec<f64> = rs.iter().map(|r| r.hot_spot_pct).collect();
            let grad: Vec<f64> = rs.iter().map(|r| r.gradient_pct).collect();
            let thr_norm = rs
                .iter()
                .zip(&base_thr)
                .map(|(r, &b)| if b > 0.0 { r.throughput / b } else { 1.0 })
                .sum::<f64>()
                / 8.0;
            PolicyAgg {
                label: format!("{} ({})", policy.label(), cooling.label()),
                hot_avg: hot.iter().sum::<f64>() / 8.0,
                hot_max: hot.iter().copied().fold(0.0, f64::max),
                grad_avg: grad.iter().sum::<f64>() / 8.0,
                grad_max: grad.iter().copied().fold(0.0, f64::max),
                grad_minor_avg: rs.iter().map(|r| r.gradient_minor_pct).sum::<f64>() / 8.0,
                cycle_avg: rs.iter().map(|r| r.cycle_pct).sum::<f64>() / 8.0,
                cycle_minor_avg: rs.iter().map(|r| r.cycle_minor_pct).sum::<f64>() / 8.0,
                chip: norm(
                    rs.iter().map(|r| r.chip_energy.value()).sum::<f64>() / 8.0,
                    base_chip,
                ),
                pump: norm(
                    rs.iter().map(|r| r.pump_energy.value()).sum::<f64>() / 8.0,
                    base_chip,
                ),
                throughput_norm: thr_norm,
                migrations: rs.iter().map(|r| r.migrations).sum(),
            }
        })
        .collect()
}

/// Fig. 6 — hot spots and energy for all seven policies (no DPM).
pub fn fig6(system: SystemKind, duration: Seconds) -> String {
    let aggs = aggregate(system, duration, false, &vfc::paper_policy_matrix());
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 6 — hot spots (>85 C) and energy, {} system, {:.0} s/run, no DPM",
        system.label(),
        duration.value()
    );
    let _ = writeln!(
        s,
        "{:<13} {:>13} {:>13} {:>18} {:>18}",
        "policy", "hotspot avg%", "hotspot max%", "chip E (norm LB-Air)", "pump E (norm)"
    );
    for a in &aggs {
        let star = if a.label == "TALB (Var)" { "*" } else { " " };
        let _ = writeln!(
            s,
            "{:<12}{} {:>13.1} {:>13.1} {:>18.3} {:>18.3}",
            a.label, star, a.hot_avg, a.hot_max, a.chip, a.pump
        );
    }
    // Headline numbers: Var vs Max savings.
    let max_row = aggs.iter().find(|a| a.label == "TALB (Max)").unwrap();
    let var_row = aggs.iter().find(|a| a.label == "TALB (Var)").unwrap();
    let cooling_saving = 100.0 * (1.0 - var_row.pump / max_row.pump);
    let total_saving =
        100.0 * (1.0 - (var_row.chip + var_row.pump) / (max_row.chip + max_row.pump));
    let _ = writeln!(
        s,
        "\nTALB (Var) vs TALB (Max): {:.1}% avg cooling-energy reduction, {:.1}% avg total",
        cooling_saving, total_saving
    );
    let _ = writeln!(
        s,
        "(paper: ~10% avg energy savings; up to >30% cooling / 12% total on low-util workloads)"
    );
    s
}

/// Per-workload savings detail backing the paper's "up to 30% / 12%"
/// claims (Var vs Max, TALB).
pub fn fig6_savings_detail(system: SystemKind, duration: Seconds) -> String {
    let mut configs = Vec::new();
    for b in workloads() {
        configs.push(
            SimConfig::new(system, CoolingKind::LiquidMax, PolicyKind::Talb, b)
                .with_duration(duration),
        );
        configs.push(
            SimConfig::new(system, CoolingKind::LiquidVariable, PolicyKind::Talb, b)
                .with_duration(duration),
        );
    }
    let reports = run_batch(configs);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Per-workload energy savings, TALB (Var) vs TALB (Max), {}:",
        system.label()
    );
    let _ = writeln!(
        s,
        "{:<12} {:>12} {:>12} {:>14} {:>12} {:>12}",
        "workload", "pump Max J", "pump Var J", "cooling sav%", "total sav%", "mean setting"
    );
    for pair in reports.chunks(2) {
        let (max, var) = (&pair[0], &pair[1]);
        let _ = writeln!(
            s,
            "{:<12} {:>12.0} {:>12.0} {:>14.1} {:>12.1} {:>12.1}",
            max.workload,
            max.pump_energy.value(),
            var.pump_energy.value(),
            100.0 * (1.0 - var.pump_energy.value() / max.pump_energy.value()),
            100.0 * (1.0 - var.total_energy().value() / max.total_energy().value()),
            var.mean_flow_setting.unwrap_or(f64::NAN) + 1.0,
        );
    }
    s
}

/// Fig. 7 — thermal variations (with DPM).
pub fn fig7(system: SystemKind, duration: Seconds) -> String {
    let aggs = aggregate(system, duration, true, &vfc::paper_policy_matrix());
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 7 — thermal variations (with DPM), {} system, {:.0} s/run",
        system.label(),
        duration.value()
    );
    let _ = writeln!(
        s,
        "{:<13} {:>15} {:>15} {:>16} {:>13} {:>13}",
        "policy", "grad>15C (%)", "grad max wl (%)", "grad>7.5C (%)", "cyc>20C (%)", "cyc>10C (%)"
    );
    for a in &aggs {
        let star = if a.label == "TALB (Var)" { "*" } else { " " };
        let _ = writeln!(
            s,
            "{:<12}{} {:>15.1} {:>15.1} {:>16.1} {:>13.2} {:>13.2}",
            a.label, star, a.grad_avg, a.grad_max, a.grad_minor_avg, a.cycle_avg, a.cycle_minor_avg
        );
    }
    let _ = writeln!(
        s,
        "\n(paper shape: TALB minimizes both metrics; air-cooled LB is the worst."
    );
    let _ = writeln!(
        s,
        " The half-threshold columns are sensitivity rows: our block-level grid"
    );
    let _ = writeln!(
        s,
        " temperatures are smoother than HotSpot's 100 um cells, so absolute"
    );
    let _ = writeln!(
        s,
        " variation magnitudes sit below the paper's; the ordering is the claim.)"
    );
    s
}

/// Fig. 8 — energy and normalized performance for the five headline
/// configurations.
pub fn fig8(system: SystemKind, duration: Seconds) -> String {
    let matrix = [
        (PolicyKind::LoadBalancing, CoolingKind::Air),
        (PolicyKind::ReactiveMigration, CoolingKind::Air),
        (PolicyKind::Talb, CoolingKind::Air),
        (PolicyKind::LoadBalancing, CoolingKind::LiquidMax),
        (PolicyKind::Talb, CoolingKind::LiquidVariable),
    ];
    let aggs = aggregate(system, duration, false, &matrix);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 8 — energy and performance, {} system, {:.0} s/run",
        system.label(),
        duration.value()
    );
    let _ = writeln!(
        s,
        "{:<13} {:>18} {:>18} {:>14} {:>12}",
        "policy", "chip E (norm)", "pump E (norm)", "perf (norm)", "migrations"
    );
    for a in &aggs {
        let star = if a.label == "TALB (Var)" { "*" } else { " " };
        let _ = writeln!(
            s,
            "{:<12}{} {:>18.3} {:>18.3} {:>14.3} {:>12}",
            a.label, star, a.chip, a.pump, a.throughput_norm, a.migrations
        );
    }
    let _ = writeln!(
        s,
        "\n(paper shape: migration costs throughput on air; liquid policies match LB's)"
    );
    s
}

/// The pump-degradation trace the fault figure replays: the pump sags
/// to 40 % of commanded flow over the middle half of the run, cavity 0
/// clogs to half conductance in the final quarter, and the sensors
/// carry 0.25 °C of seeded Gaussian noise throughout.
pub fn degraded_pump_timeline(duration: Seconds) -> vfc::sim::FaultTimeline {
    let t = duration.value();
    vfc::sim::FaultTimeline::new(1315)
        .with_pump(vfc::sim::PumpFault::Degradation {
            start_s: 0.25 * t,
            end_s: 0.75 * t,
            level: 0.4,
        })
        .with_clog(vfc::sim::ChannelClog {
            cavity: 0,
            start_s: 0.75 * t,
            ramp_s: 0.1 * t,
            derate: 0.5,
        })
        .with_sensor(vfc::sim::SensorFault::Noise { sigma: 0.25 })
}

/// Fault figure — the liquid-cooled paper policies under the
/// pump-degradation trace, healthy vs degraded side by side. Runs in a
/// separate config family (fault timelines enter the cache key), so
/// the healthy figures above are untouched byte for byte.
pub fn fig_faults(system: SystemKind, duration: Seconds) -> String {
    let matrix = [
        (PolicyKind::LoadBalancing, CoolingKind::LiquidMax),
        (PolicyKind::ReactiveMigration, CoolingKind::LiquidMax),
        (PolicyKind::Talb, CoolingKind::LiquidMax),
        (PolicyKind::Talb, CoolingKind::LiquidVariable),
    ];
    let timeline = degraded_pump_timeline(duration);
    let mut configs = Vec::new();
    for &(policy, cooling) in &matrix {
        for b in workloads() {
            let healthy = SimConfig::new(system, cooling, policy, b).with_duration(duration);
            configs.push(healthy.clone().with_faults(timeline.clone()));
            configs.push(healthy);
        }
    }
    let reports = run_batch(configs);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fault study — liquid policies under pump degradation (40% sag, \
         clogged cavity, noisy sensors), {} system, {:.0} s/run",
        system.label(),
        duration.value()
    );
    let _ = writeln!(
        s,
        "{:<13} {:>12} {:>12} {:>11} {:>11} {:>13} {:>12}",
        "policy", "hotspot h%", "hotspot f%", "Tmax h C", "Tmax f C", "pump f/h", "perf f/h"
    );
    for (&(policy, cooling), rs) in matrix.iter().zip(reports.chunks(2 * workloads().len())) {
        let n = rs.len() as f64 / 2.0;
        let mut hot_h = 0.0;
        let mut hot_f = 0.0;
        let mut tmax_h = f64::NEG_INFINITY;
        let mut tmax_f = f64::NEG_INFINITY;
        let mut pump_h = 0.0;
        let mut pump_f = 0.0;
        let mut thr = 0.0;
        for pair in rs.chunks(2) {
            let (faulted, healthy) = (&pair[0], &pair[1]);
            hot_f += faulted.hot_spot_pct / n;
            hot_h += healthy.hot_spot_pct / n;
            tmax_f = tmax_f.max(faulted.max_temperature.value());
            tmax_h = tmax_h.max(healthy.max_temperature.value());
            pump_f += faulted.pump_energy.value();
            pump_h += healthy.pump_energy.value();
            thr += if healthy.throughput > 0.0 {
                faulted.throughput / healthy.throughput / n
            } else {
                1.0 / n
            };
        }
        let star = if cooling == CoolingKind::LiquidVariable {
            "*"
        } else {
            " "
        };
        let _ = writeln!(
            s,
            "{:<12}{} {:>12.1} {:>12.1} {:>11.2} {:>11.2} {:>13.3} {:>12.3}",
            format!("{} ({})", policy.label(), cooling.label()),
            star,
            hot_h,
            hot_f,
            tmax_h,
            tmax_f,
            if pump_h > 0.0 { pump_f / pump_h } else { 1.0 },
            thr
        );
    }
    let _ = writeln!(
        s,
        "\n(h = healthy plant, f = degraded; the variable-flow controller spends pump \
         energy to chase the lost cooling, fixed-flow policies just run hotter)"
    );
    s
}
