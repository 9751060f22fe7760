//! The simulation engine: scheduler ticks, power billing, thermal
//! stepping, forecasting and flow control.

use vfc_control::{balanced_power_rows, characterize_skeleton, FlowController, FlowLut};
use vfc_faults::FaultReplay;
use vfc_floorplan::{BlockKind, GridSpec, Stack3d};
use vfc_forecast::TemperaturePredictor;
use vfc_power::FixedTimeoutDpm;
use vfc_sched::{
    CoreQueue, LoadBalancing, ReactiveMigration, SchedContext, SchedulingPolicy,
    TemperatureAwareLb, ThermalWeightTable, ThroughputMeter,
};
use vfc_thermal::{BlockTemperatures, StackThermalBuilder, ThermalModel, ThermalModelFamily};
use vfc_units::{Celsius, Watts};
use vfc_workload::WorkloadGenerator;

use crate::{CoolingKind, MetricsCollector, PolicyKind, SimConfig, SimError, SimReport};

/// One fully constructed simulation run.
///
/// Construction performs the paper's pre-processing: steady-state
/// characterization of the flow settings into the controller LUT (for
/// variable-flow runs) and the balanced-power solve into TALB's weight
/// table. [`Simulation::run`] then executes the timed loop and returns a
/// [`SimReport`].
#[derive(Debug)]
pub struct Simulation {
    cfg: SimConfig,
    stack: Stack3d,
    /// One structure-sharing model family with a member per *available*
    /// flow setting (air and fixed-flow runs hold exactly one); all
    /// members share a single `StackSkeleton` (CSR pattern, conduction
    /// entries, layout), so per-setting cost is one value array.
    family: ThermalModelFamily,
    /// `family.model(active)` is the network currently cooling the stack.
    active: usize,
    temps: Vec<f64>,
    /// Global core order: (tier, block index).
    cores: Vec<(usize, usize)>,
    /// Per L2 block: (tier, block, served global core ids).
    l2s: Vec<(usize, usize, Vec<usize>)>,
    /// Per crossbar block: (tier, block, group core ids, share of the
    /// group's crossbar power).
    xbars: Vec<(usize, usize, Vec<usize>, f64)>,
    /// Fixed blocks: (tier, block, watts).
    fixed_blocks: Vec<(usize, usize, f64)>,
    controller: Option<FlowController>,
    predictor: Option<TemperaturePredictor>,
    weight_table: ThermalWeightTable,
    /// Fault-timeline replay (`None` when `cfg.faults` is empty). The
    /// plant keeps the true state: flow faults derate what the thermal
    /// network receives (the pump bills at its commanded setting), and
    /// sensor faults corrupt only the *observed* core temperatures the
    /// forecaster, controller and scheduler see — metrics and series
    /// record the truth.
    replay: Option<FaultReplay>,
    /// Per-cavity clog derating buffer (all ones when healthy).
    cavity_derates: Vec<f64>,
}

impl Simulation {
    /// Builds a simulation: stacks, thermal models, characterization LUT
    /// and TALB weights.
    ///
    /// # Errors
    ///
    /// Any thermal/characterization failure, or an invalid configuration
    /// (zero duration, degenerate sampling).
    pub fn new(cfg: SimConfig) -> Result<Self, SimError> {
        if cfg.duration.value() <= 0.0 {
            return Err(SimError::InvalidConfig {
                context: "duration must be positive".into(),
            });
        }
        if cfg.sampling_interval.value() < cfg.scheduler_tick.value() {
            return Err(SimError::InvalidConfig {
                context: "sampling interval must cover at least one tick".into(),
            });
        }
        let stack = cfg.system.stack(cfg.cooling.is_liquid());
        let grid = GridSpec::from_cell_size(stack.tiers()[0].floorplan(), cfg.grid_cell);
        let builder = StackThermalBuilder::new(&stack, grid, cfg.thermal);
        let cavities = stack.cavity_count();

        // Build the thermal model family: one shared skeleton per grid,
        // one cheap flow patch per member.
        let (family, active, controller) = match cfg.cooling {
            CoolingKind::Air => (ThermalModelFamily::build(&builder, &[None])?, 0, None),
            CoolingKind::LiquidFixed(s) => {
                let flow = cfg.pump.per_cavity_flow(s, cavities);
                (ThermalModelFamily::for_flows(&builder, &[flow])?, 0, None)
            }
            CoolingKind::LiquidMax => {
                let flow = cfg.pump.per_cavity_flow(cfg.pump.max_setting(), cavities);
                (ThermalModelFamily::for_flows(&builder, &[flow])?, 0, None)
            }
            CoolingKind::LiquidVariable => {
                let flows: Vec<_> = cfg
                    .pump
                    .flow_settings()
                    .map(|s| cfg.pump.per_cavity_flow(s, cavities))
                    .collect();
                let family = ThermalModelFamily::for_flows(&builder, &flows)?;
                // Characterize heat demand vs flow setting into the LUT,
                // with a safety margin on the target absorbing forecast
                // error and pump-transition lag. Reuses the family's
                // skeleton so the grid is assembled exactly once.
                let c = characterize_skeleton(
                    family.skeleton(),
                    &cfg.pump,
                    cavities,
                    cfg.target_temperature - cfg.control_margin,
                    7,
                    &|demand, model| characterization_power(&cfg, &stack, model, demand),
                )?;
                let lut = FlowLut::from_characterization(&c, &cfg.pump)?;
                let ctrl = FlowController::with_hysteresis(lut, &cfg.pump, cfg.hysteresis);
                let active = ctrl.effective_setting().index();
                (family, active, Some(ctrl))
            }
        };

        // Enumerate cores/L2s/crossbars once.
        let mut cores = Vec::new();
        for (t, tier) in stack.tiers().iter().enumerate() {
            for (b, blk) in tier.floorplan().blocks().iter().enumerate() {
                if blk.is_core() {
                    cores.push((t, b));
                }
            }
        }
        let l2s = map_l2_blocks(&stack, &cores);
        let xbars = map_crossbars(&stack, &cores);
        let mut fixed_blocks = Vec::new();
        for (t, tier) in stack.tiers().iter().enumerate() {
            for (b, blk) in tier.floorplan().blocks().iter().enumerate() {
                let w = cfg.power.fixed_block_power(blk.kind()).value();
                if w > 0.0 {
                    fixed_blocks.push((t, b, w));
                }
            }
        }

        // TALB weight table from the balanced-power characterization.
        let weight_model = family.model(family.len() / 2);
        let background = background_power(&cfg, &stack, weight_model);
        let weight_table = if cfg.policy == PolicyKind::Talb {
            let rows = balanced_power_rows(
                weight_model,
                &stack,
                &background,
                &[Celsius::new(65.0), Celsius::new(75.0), Celsius::new(85.0)],
            )?;
            ThermalWeightTable::from_balanced_powers(rows)
        } else {
            ThermalWeightTable::uniform(cores.len())
        };

        let predictor = (matches!(cfg.cooling, CoolingKind::LiquidVariable) && cfg.proactive)
            .then(TemperaturePredictor::paper_default);

        let temps = family.model(active).initial_state();
        let replay = (!cfg.faults.is_empty()).then(|| FaultReplay::new(&cfg.faults, cavities));
        Ok(Self {
            cfg,
            stack,
            family,
            active,
            temps,
            cores,
            l2s,
            xbars,
            fixed_blocks,
            controller,
            predictor,
            weight_table,
            replay,
            cavity_derates: vec![1.0; cavities],
        })
    }

    /// The TALB weight table in effect (uniform for other policies).
    pub fn weight_table(&self) -> &ThermalWeightTable {
        &self.weight_table
    }

    /// Runs the configured duration and produces the report.
    ///
    /// # Errors
    ///
    /// Propagates thermal solver failures.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        let cfg = self.cfg.clone();
        let n = self.cores.len();
        let tick = cfg.scheduler_tick;
        let sample_every = (cfg.sampling_interval.value() / tick.value()).round() as usize;
        let total_ticks = cfg.duration.steps_of(tick);

        let mut policy: Box<dyn SchedulingPolicy> = match cfg.policy {
            PolicyKind::LoadBalancing => Box::new(LoadBalancing::new()),
            PolicyKind::ReactiveMigration => Box::new(ReactiveMigration::new()),
            PolicyKind::Talb => Box::new(TemperatureAwareLb::new()),
        };
        let mut queues = vec![CoreQueue::new(); n];
        let mut dpm = if cfg.dpm {
            FixedTimeoutDpm::new(n)
        } else {
            FixedTimeoutDpm::disabled(n)
        };
        // Table II utilizations are measured per hardware thread; the T1
        // runs 4 contexts per core, so the generator is calibrated for
        // n × 4 contexts.
        let contexts = vfc_sched::DEFAULT_CONTEXTS;
        let mut generator = WorkloadGenerator::new(
            cfg.workload.benchmark_at(vfc_units::Seconds::ZERO),
            n * contexts,
            cfg.seed,
        );
        let mut meter = ThroughputMeter::new();
        let mut metrics = MetricsCollector::new(
            n,
            cfg.hot_spot_threshold,
            cfg.gradient_threshold,
            cfg.cycle_threshold,
            cfg.target_temperature,
        );

        // Buffers reused across every 100 ms sample (the hot loop must
        // not allocate): per-core utilizations and sleeping fractions,
        // the node power vector, the block/core temperature extracts and
        // the TALB weights. All family members share a node layout, so
        // one power buffer serves every flow setting.
        let mut util = vec![generator.benchmark().utilization(); n];
        let mut sleeping = vec![0.0; n];
        let mut power = self.family.model(self.active).zero_power();

        // Paper: "all simulations are initialized with steady state
        // temperature values" — two leakage fixed-point rounds.
        let mut block_temps = {
            let bench = generator.benchmark();
            let mut bt = BlockTemperatures::extract(self.family.model(self.active), &self.temps);
            for _ in 0..2 {
                self.fill_power(&mut power, &util, &sleeping, bench.memory_intensity(), &bt);
                self.temps = self
                    .family
                    .model_mut(self.active)
                    .steady_state(&power, Some(&self.temps))?;
                bt.extract_into(self.family.model(self.active), &self.temps);
            }
            bt
        };
        let mut core_temps = block_temps.core_max_temperatures(&self.stack);
        // What the forecaster, controller and scheduler *see*: equal to
        // `core_temps` until a sensor fault corrupts it (the plant and
        // the metrics always keep the truth).
        let mut observed_temps = core_temps.clone();
        let mut sensor_truth: Vec<f64> = Vec::new();
        let mut sensor_obs: Vec<f64> = Vec::new();
        let mut weights = self.weight_table.weights_for(max_of(&core_temps)).to_vec();

        let mut busy_ticks = vec![0u32; n];
        let mut flow_setting_sum = 0.0;
        let mut flow_samples = 0usize;
        let mut tmax_series: Vec<f64> = Vec::new();
        let mut flow_series: Vec<u8> = Vec::new();

        for tick_i in 0..total_ticks {
            let now = vfc_units::Seconds::new(tick.value() * tick_i as f64);
            let bench = cfg.workload.benchmark_at(now);
            if bench.name != generator.benchmark().name {
                generator.set_benchmark(bench);
            }

            // Arrivals and placement.
            let workload_span = vfc_obs::span("engine.workload");
            for th in generator.poll(tick) {
                let ctx = SchedContext {
                    core_temps: &observed_temps,
                    weights: &weights,
                };
                policy.place(th, &mut queues, &ctx);
            }
            // Work wakes sleeping cores.
            for (i, q) in queues.iter().enumerate() {
                if q.load() > 0 {
                    dpm.wake(i);
                }
            }
            {
                let ctx = SchedContext {
                    core_temps: &observed_temps,
                    weights: &weights,
                };
                policy.rebalance(&mut queues, &ctx);
            }
            // Execute: contexts busy this tick = min(load, contexts).
            for (i, q) in queues.iter_mut().enumerate() {
                let busy_now = q.load().min(q.contexts()) as u32;
                for _ in 0..q.tick(tick) {
                    meter.record();
                }
                dpm.tick(i, busy_now > 0, tick);
                busy_ticks[i] += busy_now;
            }
            drop(workload_span);

            // Sampling boundary: thermal + control + metrics.
            if (tick_i + 1) % sample_every == 0 {
                vfc_obs::counter_add("engine.samples", 1);
                let dt = cfg.sampling_interval;
                for (u, &b) in util.iter_mut().zip(&busy_ticks) {
                    *u = b as f64 / (sample_every * contexts) as f64;
                }
                for i in 0..n {
                    sleeping[i] = if dpm.state(i) == vfc_power::PowerState::Sleep {
                        1.0 - util[i]
                    } else {
                        0.0
                    };
                }
                busy_ticks.fill(0);

                // Fault replay: pump and clog faults derate the coolant
                // the thermal network receives for this sample (the pump
                // still bills at its commanded setting below).
                let fault_t = tick.value() * (tick_i + 1) as f64;
                if self.replay.is_some() {
                    self.apply_faulted_flow(fault_t)?;
                }

                let thermal_span = vfc_obs::span("engine.thermal");
                self.fill_power(
                    &mut power,
                    &util,
                    &sleeping,
                    bench.memory_intensity(),
                    &block_temps,
                );
                let chip_w = Watts::new(power.iter().sum());
                self.family.model_mut(self.active).step(
                    &mut self.temps,
                    &power,
                    dt,
                    cfg.thermal_substeps,
                )?;
                block_temps.extract_into(self.family.model(self.active), &self.temps);
                block_temps.core_max_temperatures_into(&self.stack, &mut core_temps);
                let tmax = max_of(&core_temps);
                let gradient = block_temps.max_spatial_gradient();
                drop(thermal_span);

                // Sensor faults corrupt only the observed copy the
                // control path reads below; everything recorded about
                // the plant (metrics, series) stays the truth.
                let observed_tmax = match self.replay.as_mut() {
                    Some(replay) if replay.has_sensor_faults() => {
                        sensor_truth.clear();
                        sensor_truth.extend(core_temps.iter().map(|t| t.value()));
                        replay.observe(fault_t, &sensor_truth, &mut sensor_obs);
                        for (o, &v) in observed_temps.iter_mut().zip(&sensor_obs) {
                            *o = Celsius::new(v);
                        }
                        max_of(&observed_temps)
                    }
                    _ => {
                        observed_temps.copy_from_slice(&core_temps);
                        tmax
                    }
                };

                let pump_w = match cfg.cooling {
                    CoolingKind::Air => Watts::ZERO,
                    CoolingKind::LiquidFixed(s) => cfg.pump.power(s),
                    CoolingKind::LiquidMax => cfg.pump.power(cfg.pump.max_setting()),
                    CoolingKind::LiquidVariable => {
                        let s = self
                            .controller
                            .as_ref()
                            .expect("variable cooling has a controller")
                            .effective_setting();
                        cfg.pump.power(s)
                    }
                };
                metrics.record_sample(&core_temps, gradient, chip_w, pump_w, dt);
                if cfg.record_series {
                    tmax_series.push(tmax.value());
                    if self.controller.is_some() {
                        flow_series.push(self.active as u8);
                    }
                }

                // Balance phase: flow control plus scheduler weight
                // refresh; the forecast span nests inside it (recorded
                // as `engine.balance/engine.forecast`).
                let _balance_span = vfc_obs::span("engine.balance");
                if let Some(ctrl) = self.controller.as_mut() {
                    let prediction = {
                        let _forecast_span = vfc_obs::span("engine.forecast");
                        match self.predictor.as_mut() {
                            Some(p) => {
                                p.observe(observed_tmax);
                                p.forecast().unwrap_or(observed_tmax)
                            }
                            None => observed_tmax, // reactive ablation
                        }
                    };
                    let setting = ctrl.step(prediction, dt);
                    self.active = setting.index();
                    flow_setting_sum += setting.index() as f64;
                    flow_samples += 1;
                }
                weights.copy_from_slice(self.weight_table.weights_for(observed_tmax));

                if let Some(replay) = self.replay.as_mut() {
                    let events = replay.drain_events();
                    if events > 0 {
                        vfc_obs::counter_add("engine.fault_events", events);
                    }
                }
            }
        }

        let elapsed = cfg.duration;
        Ok(SimReport {
            label: cfg.label(),
            system: cfg.system.label().to_string(),
            workload: workload_name(&cfg),
            duration: elapsed,
            samples: metrics.samples(),
            hot_spot_pct: metrics.hot_spot_pct(),
            above_target_pct: metrics.above_target_pct(),
            gradient_pct: metrics.gradient_pct(),
            gradient_minor_pct: metrics.gradient_minor_pct(),
            cycle_pct: metrics.cycle_pct(),
            cycle_minor_pct: metrics.cycle_minor_pct(),
            chip_energy: metrics.chip_energy(),
            pump_energy: metrics.pump_energy(),
            completed_threads: meter.completed(),
            throughput: meter.throughput(elapsed),
            migrations: policy.migration_count(),
            mean_temperature: metrics.mean_tmax(),
            max_temperature: metrics.peak_tmax(),
            controller_switches: self
                .controller
                .as_ref()
                .map(FlowController::switch_count)
                .unwrap_or(0),
            forecast_mae: self.predictor.as_ref().and_then(|p| p.mean_abs_error()),
            predictor_refits: self
                .predictor
                .as_ref()
                .map(TemperaturePredictor::refit_count)
                .unwrap_or(0),
            mean_flow_setting: (flow_samples > 0).then(|| flow_setting_sum / flow_samples as f64),
            tmax_series: cfg.record_series.then_some(tmax_series),
            flow_series: (cfg.record_series && !flow_series.is_empty()).then_some(flow_series),
        })
    }

    /// Advances the fault replay to `t_s` and re-derates the active
    /// thermal member's flow: pump faults scale the commanded flow,
    /// clogs derate individual cavities
    /// ([`ThermalModel::set_flow_derated`]). No-op for air cooling and
    /// for timelines without flow faults; when every derating has
    /// recovered to 1.0 the patch restores the healthy network exactly.
    fn apply_faulted_flow(&mut self, t_s: f64) -> Result<(), SimError> {
        let Some(replay) = self.replay.as_mut() else {
            return Ok(());
        };
        replay.advance(t_s);
        if !self.cfg.cooling.is_liquid() || !replay.has_flow_faults() {
            return Ok(());
        }
        let setting = match self.cfg.cooling {
            CoolingKind::Air => unreachable!("guarded by is_liquid above"),
            CoolingKind::LiquidFixed(s) => s,
            CoolingKind::LiquidMax => self.cfg.pump.max_setting(),
            CoolingKind::LiquidVariable => vfc_liquid::FlowSetting::from_index(self.active),
        };
        let commanded = self
            .cfg
            .pump
            .per_cavity_flow(setting, self.stack.cavity_count());
        let derated = commanded * replay.pump_derate(t_s);
        replay.cavity_derates(t_s, &mut self.cavity_derates);
        self.family
            .model_mut(self.active)
            .set_flow_derated(derated, &self.cavity_derates)?;
        Ok(())
    }

    /// Fills `p` with the node power vector for one interval. `p` must
    /// have the model's node count; it is zeroed first, so the same
    /// buffer can be reused across samples without reallocating.
    fn fill_power(
        &self,
        p: &mut [f64],
        util: &[f64],
        sleeping: &[f64],
        memory_intensity: f64,
        block_temps: &BlockTemperatures,
    ) {
        let cfg = &self.cfg;
        let model = self.family.model(self.active);
        p.fill(0.0);

        // Cores: utilization-weighted active/idle plus the sleep share.
        for (gid, &(t, b)) in self.cores.iter().enumerate() {
            let awake = 1.0 - sleeping[gid];
            let u = util[gid].min(awake);
            let dynamic = u * cfg.power.core_active
                + (awake - u).max(0.0) * cfg.power.core_idle
                + sleeping[gid] * cfg.power.core_sleep;
            let leak = cfg
                .leakage
                .block_leakage(
                    &self.stack.tiers()[t].floorplan().blocks()[b],
                    block_temps.block_max(t, b),
                )
                .value();
            model.add_block_power(p, t, b, Watts::new(dynamic + leak));
        }
        // L2 banks follow their cores' activity.
        for (t, b, served) in &self.l2s {
            let act = if served.is_empty() {
                0.0
            } else {
                served.iter().map(|&c| util[c]).sum::<f64>() / served.len() as f64
            };
            let leak = cfg
                .leakage
                .block_leakage(
                    &self.stack.tiers()[*t].floorplan().blocks()[*b],
                    block_temps.block_max(*t, *b),
                )
                .value();
            model.add_block_power(
                p,
                *t,
                *b,
                Watts::new(cfg.power.l2_power(act).value() + leak),
            );
        }
        // Crossbar columns scale with active cores and memory intensity.
        for (t, b, group, share) in &self.xbars {
            let active = if group.is_empty() {
                0.0
            } else {
                group.iter().filter(|&&c| util[c] > 0.0).count() as f64 / group.len() as f64
            };
            let w = cfg.power.crossbar_power(active, memory_intensity).value() * share;
            let leak = cfg
                .leakage
                .block_leakage(
                    &self.stack.tiers()[*t].floorplan().blocks()[*b],
                    block_temps.block_max(*t, *b),
                )
                .value();
            model.add_block_power(p, *t, *b, Watts::new(w + leak));
        }
        // Fixed blocks (uncore, buffers) plus leakage.
        for &(t, b, w) in &self.fixed_blocks {
            let leak = cfg
                .leakage
                .block_leakage(
                    &self.stack.tiers()[t].floorplan().blocks()[b],
                    block_temps.block_max(t, b),
                )
                .value();
            model.add_block_power(p, t, b, Watts::new(w + leak));
        }
    }
}

/// Power map used during characterization: uniform demand on every unit,
/// leakage at the control target (conservative).
fn characterization_power(
    cfg: &SimConfig,
    stack: &Stack3d,
    model: &ThermalModel,
    demand: f64,
) -> Vec<f64> {
    let mut p = model.zero_power();
    let leak_t = cfg.target_temperature;
    for (t, tier) in stack.tiers().iter().enumerate() {
        for (b, blk) in tier.floorplan().blocks().iter().enumerate() {
            let dynamic = match blk.kind() {
                BlockKind::Core => cfg.power.core_power(demand, false).value(),
                BlockKind::L2Cache => cfg.power.l2_power(demand).value(),
                // Characterize with a memory-heavy mix (conservative).
                BlockKind::Crossbar => cfg.power.crossbar_power(demand, 0.8).value() * 0.5,
                kind => cfg.power.fixed_block_power(kind).value(),
            };
            let leak = cfg.leakage.block_leakage(blk, leak_t).value();
            model.add_block_power(&mut p, t, b, Watts::new(dynamic + leak));
        }
    }
    p
}

/// Background (non-core) power for the TALB balanced-power solve: caches
/// and crossbars at 50% activity, leakage at 75 °C.
fn background_power(cfg: &SimConfig, stack: &Stack3d, model: &ThermalModel) -> Vec<f64> {
    let mut p = model.zero_power();
    for (t, tier) in stack.tiers().iter().enumerate() {
        for (b, blk) in tier.floorplan().blocks().iter().enumerate() {
            let dynamic = match blk.kind() {
                BlockKind::Core => 0.0,
                BlockKind::L2Cache => cfg.power.l2_power(0.5).value(),
                BlockKind::Crossbar => cfg.power.crossbar_power(0.5, 0.5).value() * 0.5,
                kind => cfg.power.fixed_block_power(kind).value(),
            };
            let leak = if blk.is_core() {
                0.0
            } else {
                cfg.leakage.block_leakage(blk, Celsius::new(75.0)).value()
            };
            if dynamic + leak > 0.0 {
                model.add_block_power(&mut p, t, b, Watts::new(dynamic + leak));
            }
        }
    }
    p
}

/// Maps each L2 bank to the global ids of the cores it serves: bank
/// `l2_k` pairs with cores `2k, 2k+1` of the adjacent core tier.
fn map_l2_blocks(stack: &Stack3d, cores: &[(usize, usize)]) -> Vec<(usize, usize, Vec<usize>)> {
    let mut out = Vec::new();
    for (t, tier) in stack.tiers().iter().enumerate() {
        for (b, blk) in tier.floorplan().blocks().iter().enumerate() {
            if blk.kind() != BlockKind::L2Cache {
                continue;
            }
            // Adjacent core tier: below preferred, else above.
            let core_tier = if t > 0 && stack.tiers()[t - 1].floorplan().core_count() > 0 {
                Some(t - 1)
            } else if t + 1 < stack.tiers().len()
                && stack.tiers()[t + 1].floorplan().core_count() > 0
            {
                Some(t + 1)
            } else {
                None
            };
            let served: Vec<usize> = match (core_tier, parse_bank_index(blk.name())) {
                (Some(ct), Some(k)) => cores
                    .iter()
                    .enumerate()
                    .filter(|(gid, &(ctier, _))| {
                        ctier == ct && {
                            let local = local_core_index(cores, *gid);
                            local / 2 == k
                        }
                    })
                    .map(|(gid, _)| gid)
                    .collect(),
                (Some(ct), None) => cores
                    .iter()
                    .enumerate()
                    .filter(|(_, &(ctier, _))| ctier == ct)
                    .map(|(gid, _)| gid)
                    .collect(),
                (None, _) => Vec::new(),
            };
            out.push((t, b, served));
        }
    }
    out
}

/// Maps crossbar blocks to their core group. Each pair of tiers forms one
/// logical crossbar whose power is split evenly over its (usually two)
/// xbar blocks.
fn map_crossbars(
    stack: &Stack3d,
    cores: &[(usize, usize)],
) -> Vec<(usize, usize, Vec<usize>, f64)> {
    // Group tiers in pairs (core+cache): group g covers tiers 2g, 2g+1.
    let mut blocks: Vec<(usize, usize)> = Vec::new();
    for (t, tier) in stack.tiers().iter().enumerate() {
        for (b, blk) in tier.floorplan().blocks().iter().enumerate() {
            if blk.kind() == BlockKind::Crossbar {
                blocks.push((t, b));
            }
        }
    }
    let mut out = Vec::new();
    for &(t, b) in &blocks {
        let group = t / 2;
        let members = blocks.iter().filter(|&&(t2, _)| t2 / 2 == group).count();
        let group_cores: Vec<usize> = cores
            .iter()
            .enumerate()
            .filter(|(_, &(ct, _))| ct / 2 == group)
            .map(|(gid, _)| gid)
            .collect();
        out.push((t, b, group_cores, 1.0 / members.max(1) as f64));
    }
    out
}

/// Index of a core within its own tier (0-based, floorplan order).
fn local_core_index(cores: &[(usize, usize)], gid: usize) -> usize {
    let (tier, _) = cores[gid];
    cores[..gid].iter().filter(|&&(t, _)| t == tier).count()
}

/// Parses the bank index from an `l2_<k>` block name.
fn parse_bank_index(name: &str) -> Option<usize> {
    name.rsplit(['_'])
        .next()
        .and_then(|s| s.parse::<usize>().ok())
}

fn max_of(temps: &[Celsius]) -> Celsius {
    temps
        .iter()
        .copied()
        .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
}

fn workload_name(cfg: &SimConfig) -> String {
    let names: Vec<&str> = cfg.workload.phases().map(|(_, b)| b.name).collect();
    if names.len() == 1 {
        names[0].to_string()
    } else {
        names.join("/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_units::Seconds;
    use vfc_workload::Benchmark;

    fn quick(cooling: CoolingKind, policy: PolicyKind, bench: &str) -> SimReport {
        let cfg = SimConfig::new(
            crate::SystemKind::TwoLayer,
            cooling,
            policy,
            Benchmark::by_name(bench).unwrap(),
        )
        .with_duration(Seconds::new(8.0))
        .with_grid_cell(vfc_units::Length::from_millimeters(2.0));
        Simulation::new(cfg).unwrap().run().unwrap()
    }

    #[test]
    fn liquid_max_run_is_cool_and_complete() {
        let r = quick(CoolingKind::LiquidMax, PolicyKind::LoadBalancing, "gzip");
        assert_eq!(r.samples, 80);
        assert!(r.max_temperature.value() < 80.0, "{r}");
        assert!(r.completed_threads > 0);
        assert!(r.pump_energy.value() > 0.0);
        assert_eq!(r.hot_spot_pct, 0.0);
    }

    #[test]
    fn variable_flow_tracks_low_demand_with_less_pump_energy() {
        let var = quick(CoolingKind::LiquidVariable, PolicyKind::Talb, "gzip");
        let max = quick(CoolingKind::LiquidMax, PolicyKind::Talb, "gzip");
        assert!(
            var.pump_energy.value() < max.pump_energy.value(),
            "var {} vs max {}",
            var.pump_energy,
            max.pump_energy
        );
        assert!(var.controller_switches > 0);
        assert!(var.mean_flow_setting.unwrap() < 4.0);
    }

    #[test]
    fn air_cooled_runs_report_no_pump_energy() {
        let r = quick(CoolingKind::Air, PolicyKind::LoadBalancing, "Web-med");
        assert_eq!(r.pump_energy.value(), 0.0);
        assert!(r.chip_energy.value() > 0.0);
    }

    #[test]
    fn mapping_helpers() {
        let stack = crate::SystemKind::TwoLayer.stack(true);
        let mut cores = Vec::new();
        for (t, tier) in stack.tiers().iter().enumerate() {
            for (b, blk) in tier.floorplan().blocks().iter().enumerate() {
                if blk.is_core() {
                    cores.push((t, b));
                }
            }
        }
        let l2s = map_l2_blocks(&stack, &cores);
        assert_eq!(l2s.len(), 4);
        for (_, _, served) in &l2s {
            assert_eq!(served.len(), 2, "each bank serves a core pair");
        }
        // l2_0 serves cores 0 and 1.
        assert_eq!(l2s[0].2, vec![0, 1]);

        let xbars = map_crossbars(&stack, &cores);
        assert_eq!(xbars.len(), 2);
        for (_, _, group, share) in &xbars {
            assert_eq!(group.len(), 8);
            assert!((share - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn series_recording_captures_every_sample() {
        let cfg = SimConfig::new(
            crate::SystemKind::TwoLayer,
            CoolingKind::LiquidVariable,
            PolicyKind::Talb,
            Benchmark::by_name("Database").unwrap(),
        )
        .with_duration(Seconds::new(4.0))
        .with_grid_cell(vfc_units::Length::from_millimeters(2.0))
        .with_series(true);
        let r = Simulation::new(cfg).unwrap().run().unwrap();
        let tmax = r.tmax_series.as_ref().expect("series recorded");
        let flow = r.flow_series.as_ref().expect("flow recorded for Var");
        assert_eq!(tmax.len(), r.samples);
        assert_eq!(flow.len(), r.samples);
        let peak = tmax.iter().copied().fold(f64::MIN, f64::max);
        assert!((peak - r.max_temperature.value()).abs() < 1e-9);
        // The controller starts at the max setting and descends for this
        // low-demand workload.
        assert!(flow[0] == 4);
        assert!(*flow.last().unwrap() < 4);
    }

    #[test]
    fn faulted_runs_complete_deterministically_and_diverge_from_healthy() {
        use vfc_faults::{ChannelClog, FaultTimeline, PumpFault, SensorFault};
        // A pump that sags to 40% over 1–3 s on the 2 mm grid, and a pump
        // failure (a hard step to 30% at 1 s) on the fine 0.5 mm grid.
        let sag = PumpFault::Degradation {
            start_s: 1.0,
            end_s: 3.0,
            level: 0.4,
        };
        let failure = PumpFault::Step {
            at_s: 1.0,
            level: 0.3,
        };
        for (seconds, cell_mm, seed, pump) in [(4.0, 2.0, 9, sag), (3.0, 0.5, 42, failure)] {
            let base = SimConfig::new(
                crate::SystemKind::TwoLayer,
                CoolingKind::LiquidVariable,
                PolicyKind::Talb,
                Benchmark::by_name("Web-med").unwrap(),
            )
            .with_duration(Seconds::new(seconds))
            .with_grid_cell(vfc_units::Length::from_millimeters(cell_mm));
            let timeline = FaultTimeline::new(seed)
                .with_pump(pump)
                .with_clog(ChannelClog {
                    cavity: 0,
                    start_s: 2.0,
                    ramp_s: 0.5,
                    derate: 0.5,
                })
                .with_sensor(SensorFault::Noise { sigma: 0.3 });
            let faulted_cfg = base.clone().with_faults(timeline);

            let healthy = Simulation::new(base).unwrap().run().unwrap();
            let faulted = Simulation::new(faulted_cfg.clone()).unwrap().run().unwrap();
            // The degraded coolant and noisy sensors must change the run
            // — and losing more than half the flow cannot leave the
            // stack cooler than the healthy plant.
            assert_ne!(healthy, faulted);
            assert_eq!(healthy.samples, faulted.samples, "faulted run ended early");
            assert!(faulted.max_temperature >= healthy.max_temperature);

            // The seeded timeline is part of the configuration: an
            // identical replay reproduces the report bit for bit.
            let again = Simulation::new(faulted_cfg).unwrap().run().unwrap();
            assert_eq!(faulted, again);
        }
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = SimConfig::new(
            crate::SystemKind::TwoLayer,
            CoolingKind::Air,
            PolicyKind::LoadBalancing,
            Benchmark::by_name("gzip").unwrap(),
        )
        .with_duration(Seconds::ZERO);
        assert!(matches!(
            Simulation::new(cfg),
            Err(SimError::InvalidConfig { .. })
        ));
    }
}
