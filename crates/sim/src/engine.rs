//! The simulation engine: the paper's 100 ms runtime loop.
//!
//! [`Simulation::run`] settles the stack at its leakage steady state,
//! then runs each sample as four stages: `workload` (the sample's 1 ms
//! scheduler ticks), `plant` (power billing, flow faults and the thermal
//! step), `metrics` (the true temperatures and energies) and `control`
//! (sensors, ARMA forecast, pump setting and TALB weights). Ticks left
//! over after the last whole sample run the workload stage only.

use vfc_control::{balanced_power_rows, characterize_skeleton, FlowController, FlowLut};
use vfc_faults::FaultReplay;
use vfc_floorplan::{BlockKind, GridSpec, Stack3d};
use vfc_forecast::TemperaturePredictor;
use vfc_liquid::FlowSetting;
use vfc_power::{FixedTimeoutDpm, PowerState};
use vfc_sched::{
    CoreQueue, LoadBalancing, ReactiveMigration, SchedContext, SchedulingPolicy,
    TemperatureAwareLb, ThermalWeightTable, DEFAULT_CONTEXTS,
};
use vfc_thermal::{BlockTemperatures, StackThermalBuilder, ThermalModel, ThermalModelFamily};
use vfc_units::{Celsius, Seconds, TemperatureDelta, Watts};
use vfc_workload::{Benchmark, WorkloadGenerator};

use crate::{CoolingKind, MetricsCollector, PolicyKind, SimConfig, SimError, SimReport};

/// What a block bills each interval besides its leakage.
#[derive(Debug)]
enum BlockRole {
    /// Core `gid` of the global core order: utilization-weighted
    /// active/idle power plus the sleep share.
    Core(usize),
    /// An L2 bank following the mean utilization of the cores it serves.
    L2(Vec<usize>),
    /// A crossbar block: its `share` of the core group's crossbar power,
    /// which scales with the group's active cores and the phase's memory
    /// intensity.
    Crossbar { group: Vec<usize>, share: f64 },
    /// A block at fixed power (uncore, buffers).
    Fixed(f64),
}

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
    /// Every powered block as `(tier, block, role)`: cores in global
    /// core order, then L2 banks, crossbars and fixed blocks.
    blocks: Vec<(usize, usize, BlockRole)>,
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

    // Workload stage.
    /// Scheduler ticks per sample.
    sample_every: usize,
    /// Scheduler ticks run so far.
    ticks: usize,
    /// The workload phase of the last tick run.
    phase: Benchmark,
    generator: WorkloadGenerator,
    /// `Send + Sync` keeps `Simulation` movable between threads.
    policy: Box<dyn SchedulingPolicy + Send + Sync>,
    queues: Vec<CoreQueue>,
    dpm: FixedTimeoutDpm,
    /// Busy contexts per core, summed over the sample's ticks.
    busy_ticks: Vec<u32>,
    completed: u64,

    // Plant stage. Every buffer is reused across samples (the loop does
    // not allocate); all family members share a node layout, so one
    // power buffer serves every flow setting.
    util: Vec<f64>,
    sleeping: Vec<f64>,
    power: Vec<f64>,
    block_temps: BlockTemperatures,
    /// True per-core maxima.
    core_temps: Vec<Celsius>,

    // Metrics and control stages.
    collector: MetricsCollector,
    tmax_series: Vec<f64>,
    flow_series: Vec<u8>,
    flow_setting_sum: f64,
    /// What the forecaster, controller and scheduler *see*: equal to
    /// `core_temps` until a sensor fault corrupts it.
    observed_temps: Vec<Celsius>,
    sensor_truth: Vec<f64>,
    sensor_obs: Vec<f64>,
    /// TALB weights for the next sample's placements.
    weights: Vec<f64>,
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

        // One family member per setting the run can command (every
        // setting for variable flow), all on one shared skeleton with
        // one cheap flow patch each.
        let variable = cfg.cooling == CoolingKind::LiquidVariable;
        let settings: Vec<Option<FlowSetting>> = if variable {
            cfg.pump.flow_settings().map(Some).collect()
        } else {
            vec![pump_setting(&cfg, 0)]
        };
        let flows: Vec<_> = settings
            .into_iter()
            .map(|s| s.map(|s| cfg.pump.per_cavity_flow(s, cavities)))
            .collect();
        let family = ThermalModelFamily::build(&builder, &flows)?;
        let controller = if variable {
            // Characterize heat demand vs flow setting into the LUT, with
            // a safety margin on the target absorbing forecast error and
            // pump-transition lag. Reuses the family's skeleton so the
            // grid is assembled exactly once.
            let c = characterize_skeleton(
                family.skeleton(),
                &cfg.pump,
                cavities,
                cfg.target_temperature - cfg.control_margin,
                7,
                &|demand, model| characterization_power(&cfg, &stack, model, demand),
            )?;
            let lut = FlowLut::from_characterization(&c, &cfg.pump)?;
            let hysteresis = cfg.hysteresis;
            Some(FlowController::with_hysteresis(lut, &cfg.pump, hysteresis))
        } else {
            None
        };
        let active = controller
            .as_ref()
            .map_or(0, |c| c.effective_setting().index());

        // TALB weight table from the balanced-power characterization.
        let n = stack.core_count();
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
            ThermalWeightTable::uniform(n)
        };

        let predictor = (variable && cfg.proactive).then(TemperaturePredictor::paper_default);
        let temps = family.model(active).initial_state();
        let replay = (!cfg.faults.is_empty()).then(|| FaultReplay::new(&cfg.faults, cavities));

        let policy: Box<dyn SchedulingPolicy + Send + Sync> = match cfg.policy {
            PolicyKind::LoadBalancing => Box::new(LoadBalancing::new()),
            PolicyKind::ReactiveMigration => Box::new(ReactiveMigration::new()),
            PolicyKind::Talb => Box::new(TemperatureAwareLb::new()),
        };
        let dpm = if cfg.dpm {
            FixedTimeoutDpm::new(n)
        } else {
            FixedTimeoutDpm::disabled(n)
        };
        // Table II utilizations are measured per hardware thread; the T1
        // runs 4 contexts per core, so the generator is calibrated for
        // n × 4 contexts.
        let phase = cfg.workload.benchmark_at(Seconds::ZERO);
        let generator = WorkloadGenerator::new(phase, n * DEFAULT_CONTEXTS, cfg.seed);
        let collector = MetricsCollector::new(
            n,
            cfg.hot_spot_threshold,
            cfg.gradient_threshold,
            cfg.cycle_threshold,
            cfg.target_temperature,
        );
        let sample_every =
            (cfg.sampling_interval.value() / cfg.scheduler_tick.value()).round() as usize;
        let power = family.model(active).zero_power();
        let block_temps = BlockTemperatures::extract(family.model(active), &temps);
        Ok(Self {
            blocks: block_table(&cfg, &stack),
            cfg,
            stack,
            family,
            active,
            temps,
            controller,
            predictor,
            weight_table,
            replay,
            cavity_derates: vec![1.0; cavities],
            sample_every,
            ticks: 0,
            phase,
            generator,
            policy,
            queues: vec![CoreQueue::new(); n],
            dpm,
            busy_ticks: vec![0; n],
            completed: 0,
            util: vec![phase.utilization(); n],
            sleeping: vec![0.0; n],
            power,
            block_temps,
            core_temps: Vec::new(),
            collector,
            tmax_series: Vec::new(),
            flow_series: Vec::new(),
            flow_setting_sum: 0.0,
            observed_temps: Vec::new(),
            sensor_truth: Vec::new(),
            sensor_obs: Vec::new(),
            weights: Vec::new(),
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
        self.settle()?;
        let ticks = self.cfg.duration.steps_of(self.cfg.scheduler_tick);
        for _ in 0..ticks / self.sample_every {
            self.step_sample()?;
        }
        let trailing = ticks % self.sample_every;
        if trailing > 0 {
            self.workload(trailing);
        }
        Ok(self.report())
    }

    /// Paper: "all simulations are initialized with steady state
    /// temperature values" — two leakage fixed-point rounds, then the
    /// first sensor reading sets the TALB weights.
    fn settle(&mut self) -> Result<(), SimError> {
        for _ in 0..2 {
            self.fill_power();
            self.temps = self
                .family
                .model_mut(self.active)
                .steady_state(&self.power, Some(&self.temps))?;
            self.block_temps
                .extract_into(self.family.model(self.active), &self.temps);
        }
        self.block_temps
            .core_max_temperatures_into(&self.stack, &mut self.core_temps);
        self.observed_temps.clone_from(&self.core_temps);
        self.weights = self
            .weight_table
            .weights_for(max_of(&self.core_temps))
            .to_vec();
        Ok(())
    }

    /// One 100 ms sample: its scheduler ticks, then the plant, metrics
    /// and control stages.
    fn step_sample(&mut self) -> Result<(), SimError> {
        self.workload(self.sample_every);
        vfc_obs::counter_add("engine.samples", 1);
        let (chip, gradient) = self.plant()?;
        self.metrics(chip, gradient);
        self.control();
        Ok(())
    }

    /// Runs `ticks` scheduler ticks under one `engine.workload` span:
    /// arrivals and placement, wake-ups, rebalancing, then execution.
    /// The scheduler sees the temperatures and weights of the last
    /// control step throughout.
    fn workload(&mut self, ticks: usize) {
        let _span = vfc_obs::span("engine.workload");
        let tick = self.cfg.scheduler_tick;
        let ctx = SchedContext {
            core_temps: &self.observed_temps,
            weights: &self.weights,
        };
        for _ in 0..ticks {
            self.phase = self.cfg.workload.benchmark_at(self.clock());
            if self.phase.name != self.generator.benchmark().name {
                self.generator.set_benchmark(self.phase);
            }
            for th in self.generator.poll(tick) {
                self.policy.place(th, &mut self.queues, &ctx);
            }
            // Work wakes sleeping cores.
            for (i, q) in self.queues.iter().enumerate() {
                if q.load() > 0 {
                    self.dpm.wake(i);
                }
            }
            self.policy.rebalance(&mut self.queues, &ctx);
            // Execute: contexts busy this tick = min(load, contexts).
            for (i, q) in self.queues.iter_mut().enumerate() {
                let busy_now = q.load().min(q.contexts()) as u32;
                self.completed += q.tick(tick);
                self.dpm.tick(i, busy_now > 0, tick);
                self.busy_ticks[i] += busy_now;
            }
            self.ticks += 1;
        }
    }

    /// Turns the sample's busy ticks into utilizations, applies any flow
    /// faults and advances the thermal network one sampling interval.
    /// Returns the billed chip power and the block-level spatial
    /// gradient.
    fn plant(&mut self) -> Result<(Watts, TemperatureDelta), SimError> {
        let contexts = (self.sample_every * DEFAULT_CONTEXTS) as f64;
        for (i, &busy) in self.busy_ticks.iter().enumerate() {
            self.util[i] = busy as f64 / contexts;
            self.sleeping[i] = if self.dpm.state(i) == PowerState::Sleep {
                1.0 - self.util[i]
            } else {
                0.0
            };
        }
        self.busy_ticks.fill(0);
        self.apply_faulted_flow()?;

        let _span = vfc_obs::span("engine.thermal");
        self.fill_power();
        let chip = Watts::new(self.power.iter().sum());
        self.family.model_mut(self.active).step(
            &mut self.temps,
            &self.power,
            self.cfg.sampling_interval,
            self.cfg.thermal_substeps,
        )?;
        self.block_temps
            .extract_into(self.family.model(self.active), &self.temps);
        self.block_temps
            .core_max_temperatures_into(&self.stack, &mut self.core_temps);
        Ok((chip, self.block_temps.max_spatial_gradient()))
    }

    /// Records the sample's true temperatures, the billed chip power and
    /// the pump power at its commanded setting.
    fn metrics(&mut self, chip: Watts, gradient: TemperatureDelta) {
        let pump =
            pump_setting(&self.cfg, self.active).map_or(Watts::ZERO, |s| self.cfg.pump.power(s));
        self.collector.record_sample(
            &self.core_temps,
            gradient,
            chip,
            pump,
            self.cfg.sampling_interval,
        );
        if self.cfg.record_series {
            self.tmax_series.push(max_of(&self.core_temps).value());
            if self.controller.is_some() {
                self.flow_series.push(self.active as u8);
            }
        }
    }

    /// Reads the core sensors, then (in the balance phase) steps the
    /// flow controller on the forecast Tmax and refreshes the TALB
    /// weights. The forecast span nests inside the balance span
    /// (recorded as `engine.balance/engine.forecast`).
    fn control(&mut self) {
        // Sensor faults corrupt only the observed copy; everything
        // recorded about the plant stays the truth.
        let t_s = self.clock().value();
        match self.replay.as_mut() {
            Some(replay) if replay.has_sensor_faults() => {
                self.sensor_truth.clear();
                self.sensor_truth
                    .extend(self.core_temps.iter().map(|t| t.value()));
                replay.observe(t_s, &self.sensor_truth, &mut self.sensor_obs);
                for (o, &v) in self.observed_temps.iter_mut().zip(&self.sensor_obs) {
                    *o = Celsius::new(v);
                }
            }
            _ => self.observed_temps.copy_from_slice(&self.core_temps),
        }
        let observed_tmax = max_of(&self.observed_temps);

        let _span = vfc_obs::span("engine.balance");
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
            self.active = ctrl.step(prediction, self.cfg.sampling_interval).index();
            self.flow_setting_sum += self.active as f64;
        }
        self.weights
            .copy_from_slice(self.weight_table.weights_for(observed_tmax));
        if let Some(replay) = self.replay.as_mut() {
            let events = replay.drain_events();
            if events > 0 {
                vfc_obs::counter_add("engine.fault_events", events);
            }
        }
    }

    /// Simulated time at the end of the ticks run so far.
    fn clock(&self) -> Seconds {
        Seconds::new(self.cfg.scheduler_tick.value() * self.ticks as f64)
    }

    /// Advances the fault replay to the current time and re-derates the
    /// active thermal member's flow: pump faults scale the commanded
    /// flow, clogs derate individual cavities
    /// ([`ThermalModel::set_flow_derated`]). No-op without a replay, for
    /// air cooling and for timelines without flow faults; when every
    /// derating has recovered to 1.0 the patch restores the healthy
    /// network exactly.
    fn apply_faulted_flow(&mut self) -> Result<(), SimError> {
        let t_s = self.clock().value();
        let Some(replay) = self.replay.as_mut() else {
            return Ok(());
        };
        replay.advance(t_s);
        let Some(setting) = pump_setting(&self.cfg, self.active) else {
            return Ok(());
        };
        if !replay.has_flow_faults() {
            return Ok(());
        }
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

    /// Fills `self.power` with the node power vector for one interval:
    /// each block's dynamic watts for its role plus its leakage at its
    /// last extracted temperature. The buffer is zeroed first, so it is
    /// reused across samples without reallocating.
    fn fill_power(&mut self) {
        let cfg = &self.cfg;
        let model = self.family.model(self.active);
        let memory_intensity = self.phase.memory_intensity();
        self.power.fill(0.0);
        for &(t, b, ref role) in &self.blocks {
            let dynamic = match role {
                BlockRole::Core(gid) => {
                    let sleeping = self.sleeping[*gid];
                    let awake = 1.0 - sleeping;
                    let u = self.util[*gid].min(awake);
                    u * cfg.power.core_active
                        + (awake - u).max(0.0) * cfg.power.core_idle
                        + sleeping * cfg.power.core_sleep
                }
                // An empty core list divides 0 by 1.
                BlockRole::L2(served) => {
                    let act = served.iter().map(|&c| self.util[c]).sum::<f64>()
                        / served.len().max(1) as f64;
                    cfg.power.l2_power(act).value()
                }
                BlockRole::Crossbar { group, share } => {
                    let active = group.iter().filter(|&&c| self.util[c] > 0.0).count() as f64
                        / group.len().max(1) as f64;
                    cfg.power.crossbar_power(active, memory_intensity).value() * share
                }
                BlockRole::Fixed(w) => *w,
            };
            let leak = cfg
                .leakage
                .block_leakage(
                    &self.stack.tiers()[t].floorplan().blocks()[b],
                    self.block_temps.block_max(t, b),
                )
                .value();
            model.add_block_power(&mut self.power, t, b, Watts::new(dynamic + leak));
        }
    }

    fn report(self) -> SimReport {
        let cfg = &self.cfg;
        let m = &self.collector;
        SimReport {
            label: cfg.label(),
            system: cfg.system.label().to_string(),
            workload: workload_name(cfg),
            duration: cfg.duration,
            samples: m.samples(),
            hot_spot_pct: m.hot_spot_pct(),
            above_target_pct: m.above_target_pct(),
            gradient_pct: m.gradient_pct(),
            gradient_minor_pct: m.gradient_minor_pct(),
            cycle_pct: m.cycle_pct(),
            cycle_minor_pct: m.cycle_minor_pct(),
            chip_energy: m.chip_energy(),
            pump_energy: m.pump_energy(),
            completed_threads: self.completed,
            // Paper Sec. V: "the number of threads completed per given
            // time".
            throughput: self.completed as f64 / cfg.duration.value(),
            migrations: self.policy.migration_count(),
            mean_temperature: m.mean_tmax(),
            max_temperature: m.peak_tmax(),
            controller_switches: self
                .controller
                .as_ref()
                .map_or(0, FlowController::switch_count),
            forecast_mae: self.predictor.as_ref().and_then(|p| p.mean_abs_error()),
            predictor_refits: self
                .predictor
                .as_ref()
                .map_or(0, TemperaturePredictor::refit_count),
            mean_flow_setting: (self.controller.is_some() && m.samples() > 0)
                .then(|| self.flow_setting_sum / m.samples() as f64),
            tmax_series: cfg.record_series.then_some(self.tmax_series),
            flow_series: (cfg.record_series && !self.flow_series.is_empty())
                .then_some(self.flow_series),
        }
    }
}

/// The pump setting the run commands while family member `active`
/// cools the stack: the fixed or maximum setting, the controller's
/// setting for variable flow, and none for air.
fn pump_setting(cfg: &SimConfig, active: usize) -> Option<FlowSetting> {
    match cfg.cooling {
        CoolingKind::Air => None,
        CoolingKind::LiquidFixed(s) => Some(s),
        CoolingKind::LiquidMax => Some(cfg.pump.max_setting()),
        CoolingKind::LiquidVariable => Some(FlowSetting::from_index(active)),
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
    model.uniform_block_power(stack, |blk| {
        let dynamic = match blk.kind() {
            BlockKind::Core => cfg.power.core_power(demand, false).value(),
            BlockKind::L2Cache => cfg.power.l2_power(demand).value(),
            // Characterize with a memory-heavy mix (conservative).
            BlockKind::Crossbar => cfg.power.crossbar_power(demand, 0.8).value() * 0.5,
            kind => cfg.power.fixed_block_power(kind).value(),
        };
        let leak = cfg
            .leakage
            .block_leakage(blk, cfg.target_temperature)
            .value();
        Watts::new(dynamic + leak)
    })
}

/// Background (non-core) power for the TALB balanced-power solve: caches
/// and crossbars at 50% activity, leakage at 75 °C.
fn background_power(cfg: &SimConfig, stack: &Stack3d, model: &ThermalModel) -> Vec<f64> {
    model.uniform_block_power(stack, |blk| {
        let dynamic = match blk.kind() {
            BlockKind::Core => return Watts::ZERO,
            BlockKind::L2Cache => cfg.power.l2_power(0.5).value(),
            BlockKind::Crossbar => cfg.power.crossbar_power(0.5, 0.5).value() * 0.5,
            kind => cfg.power.fixed_block_power(kind).value(),
        };
        let leak = cfg.leakage.block_leakage(blk, Celsius::new(75.0)).value();
        Watts::new(dynamic + leak)
    })
}

/// The engine's block table: cores in global order, then L2 banks,
/// crossbars and fixed-power blocks.
fn block_table(cfg: &SimConfig, stack: &Stack3d) -> Vec<(usize, usize, BlockRole)> {
    let cores = core_blocks(stack);
    let mut table: Vec<_> = cores
        .iter()
        .enumerate()
        .map(|(gid, &(t, b))| (t, b, BlockRole::Core(gid)))
        .collect();
    for (t, b, served) in map_l2_blocks(stack, &cores) {
        table.push((t, b, BlockRole::L2(served)));
    }
    for (t, b, group, share) in map_crossbars(stack, &cores) {
        table.push((t, b, BlockRole::Crossbar { group, share }));
    }
    for (t, tier) in stack.tiers().iter().enumerate() {
        for (b, blk) in tier.floorplan().blocks().iter().enumerate() {
            let w = cfg.power.fixed_block_power(blk.kind()).value();
            if w > 0.0 {
                table.push((t, b, BlockRole::Fixed(w)));
            }
        }
    }
    table
}

/// The global core order: `(tier, block)` of every core, tier by tier.
fn core_blocks(stack: &Stack3d) -> Vec<(usize, usize)> {
    let mut cores = Vec::new();
    for (t, tier) in stack.tiers().iter().enumerate() {
        for (b, blk) in tier.floorplan().blocks().iter().enumerate() {
            if blk.is_core() {
                cores.push((t, b));
            }
        }
    }
    cores
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
    fn trailing_ticks_after_the_last_sample_still_run() {
        // 2.05 s is 20 whole samples plus 50 scheduler ticks. The
        // trailing ticks bill no sample, but the threads they finish
        // count.
        let cfg = SimConfig::new(
            crate::SystemKind::TwoLayer,
            CoolingKind::Air,
            PolicyKind::LoadBalancing,
            Benchmark::by_name("Web-med").unwrap(),
        )
        .with_duration(Seconds::new(2.05))
        .with_grid_cell(vfc_units::Length::from_millimeters(2.0));
        let r = Simulation::new(cfg).unwrap().run().unwrap();
        assert_eq!(r.samples, 20);
        assert_eq!(r.completed_threads, 438);
    }

    #[test]
    fn simulations_can_move_between_threads() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Simulation>();
    }

    #[test]
    fn mapping_helpers() {
        let stack = crate::SystemKind::TwoLayer.stack(true);
        let cores = core_blocks(&stack);
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
