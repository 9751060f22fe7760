//! Deterministic, seeded fault-event timelines for the co-simulation
//! engine.
//!
//! A [`FaultTimeline`] is plain data describing *what goes wrong and
//! when* over a simulated run: pump faults derating the flow the pump
//! actually delivers, per-cavity channel clogs derating individual
//! microchannel cavities, and sensor faults corrupting the temperatures
//! the controller and forecaster observe. The timeline lives on the
//! simulation config, so it hashes into the result-cache key and sweeps
//! over the runner like any other experiment axis; an empty timeline
//! (the default) leaves the config's hash and behaviour byte-identical
//! to a build that predates fault injection.
//!
//! [`FaultReplay`] is the runtime companion: the engine constructs one
//! per run and consults it once per control sample. Everything it
//! produces is a pure function of the timeline, the seed and the sample
//! times — there is no wall-clock or thread dependence — so a faulted
//! run is exactly as bit-reproducible across runner thread counts as a
//! healthy one.
//!
//! Two invariants matter for that determinism:
//!
//! * sensor noise draws a **fixed number** of random variates per
//!   observation (one per observed element per `Noise` fault),
//!   regardless of which other faults happen to be active, so the RNG
//!   stream never depends on fault phasing;
//! * flow deratings are clamped to [`MIN_FLOW_DERATE`, 1.0] — a fully
//!   clogged channel still carries a trickle, keeping the thermal
//!   operator finite instead of dividing by a zero flow rate.

#![warn(missing_docs)]

/// Floor on any flow derating factor. A derate below this is clamped up
/// so the hydraulic correlations (`h_eff`, capacity rate) stay finite.
pub const MIN_FLOW_DERATE: f64 = 1e-3;

/// A pump-side fault: scales the flow the pump actually delivers
/// relative to what the controller commanded. Multiple pump faults
/// compose multiplicatively.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum PumpFault {
    /// Abrupt partial failure: from `at_s` onwards the pump delivers
    /// `level` (a fraction in `(0, 1]`) of the commanded flow, forever.
    Step {
        /// Onset time in simulated seconds.
        at_s: f64,
        /// Delivery fraction after the onset.
        level: f64,
    },
    /// Gradual wear: delivery ramps linearly from 1.0 at `start_s` down
    /// to `level` at `end_s`, then holds `level`.
    Degradation {
        /// Ramp start in simulated seconds.
        start_s: f64,
        /// Ramp end in simulated seconds.
        end_s: f64,
        /// Delivery fraction at and after `end_s`.
        level: f64,
    },
    /// Transient dropout: delivery is `level` inside `[start_s, end_s)`
    /// and recovers fully afterwards.
    Dropout {
        /// Window start in simulated seconds.
        start_s: f64,
        /// Window end in simulated seconds.
        end_s: f64,
        /// Delivery fraction inside the window.
        level: f64,
    },
}

impl PumpFault {
    /// Delivery fraction this fault contributes at time `t_s`
    /// (1.0 = healthy). Levels are clamped into `[0, 1]` so a malformed
    /// timeline can degrade but never amplify the flow.
    pub fn derate(&self, t_s: f64) -> f64 {
        match *self {
            PumpFault::Step { at_s, level } => {
                if t_s >= at_s {
                    level.clamp(0.0, 1.0)
                } else {
                    1.0
                }
            }
            PumpFault::Degradation {
                start_s,
                end_s,
                level,
            } => {
                let level = level.clamp(0.0, 1.0);
                if t_s < start_s {
                    1.0
                } else if t_s >= end_s || end_s <= start_s {
                    level
                } else {
                    let frac = (t_s - start_s) / (end_s - start_s);
                    1.0 + (level - 1.0) * frac
                }
            }
            PumpFault::Dropout {
                start_s,
                end_s,
                level,
            } => {
                if t_s >= start_s && t_s < end_s {
                    level.clamp(0.0, 1.0)
                } else {
                    1.0
                }
            }
        }
    }

    fn active(&self, t_s: f64) -> bool {
        self.derate(t_s) < 1.0
    }
}

/// A progressive clog of one microchannel cavity: the cavity's flow
/// derates linearly from 1.0 at `start_s` to `derate` over `ramp_s`
/// seconds, then holds. Clogs on the same cavity compose
/// multiplicatively.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChannelClog {
    /// Index of the clogged cavity (0-based, engine-validated).
    pub cavity: usize,
    /// Onset time in simulated seconds.
    pub start_s: f64,
    /// Ramp duration in seconds; 0 means an instantaneous clog.
    pub ramp_s: f64,
    /// Residual flow fraction once fully clogged.
    pub derate: f64,
}

impl ChannelClog {
    /// Flow fraction this clog leaves the cavity at time `t_s`.
    pub fn factor(&self, t_s: f64) -> f64 {
        let derate = self.derate.clamp(0.0, 1.0);
        if t_s < self.start_s {
            1.0
        } else if self.ramp_s <= 0.0 || t_s >= self.start_s + self.ramp_s {
            derate
        } else {
            let frac = (t_s - self.start_s) / self.ramp_s;
            1.0 + (derate - 1.0) * frac
        }
    }

    fn active(&self, t_s: f64) -> bool {
        self.factor(t_s) < 1.0
    }
}

/// A fault on the temperature *observations* the controller, forecaster
/// and scheduler see. The plant always keeps the true state; sensor
/// faults corrupt only the observed copy.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum SensorFault {
    /// Additive zero-mean Gaussian noise on every observed element,
    /// drawn from the timeline's seeded RNG. Always active.
    Noise {
        /// Standard deviation in kelvin.
        sigma: f64,
    },
    /// Sensor dropout: inside `[start_s, end_s)` the observation holds
    /// the last value seen before the window (hold-last).
    Dropout {
        /// Window start in simulated seconds.
        start_s: f64,
        /// Window end in simulated seconds.
        end_s: f64,
    },
    /// Stuck-at: from `at_s` onwards the observation is frozen at the
    /// value captured on the first sample at or after `at_s`.
    StuckAt {
        /// Freeze time in simulated seconds.
        at_s: f64,
    },
}

impl SensorFault {
    fn active(&self, t_s: f64) -> bool {
        match *self {
            SensorFault::Noise { .. } => true,
            SensorFault::Dropout { start_s, end_s } => t_s >= start_s && t_s < end_s,
            SensorFault::StuckAt { at_s } => t_s >= at_s,
        }
    }
}

/// A deterministic, seeded fault schedule for one simulated run.
///
/// Plain data: `Debug` is the canonical representation that hashes into
/// the simulation cache key, and [`FaultTimeline::is_empty`] gates both
/// that hash contribution and the engine's fault machinery, so a
/// default timeline is free and invisible.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct FaultTimeline {
    /// Seed for the sensor-noise RNG stream. Irrelevant (but still
    /// hashed) when no `Noise` fault is present.
    pub seed: u64,
    /// Pump-delivery faults; compose multiplicatively.
    pub pump: Vec<PumpFault>,
    /// Per-cavity channel clogs.
    pub clogs: Vec<ChannelClog>,
    /// Observation faults on the sensed temperatures.
    pub sensors: Vec<SensorFault>,
}

impl FaultTimeline {
    /// Empty timeline with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Adds a pump fault (builder style).
    pub fn with_pump(mut self, fault: PumpFault) -> Self {
        self.pump.push(fault);
        self
    }

    /// Adds a channel clog (builder style).
    pub fn with_clog(mut self, clog: ChannelClog) -> Self {
        self.clogs.push(clog);
        self
    }

    /// Adds a sensor fault (builder style).
    pub fn with_sensor(mut self, fault: SensorFault) -> Self {
        self.sensors.push(fault);
        self
    }

    /// True when the timeline schedules no fault at all. Empty
    /// timelines are skipped by both the cache key and the engine.
    pub fn is_empty(&self) -> bool {
        self.pump.is_empty() && self.clogs.is_empty() && self.sensors.is_empty()
    }

    /// True when any fault affects the delivered coolant flow.
    pub fn has_flow_faults(&self) -> bool {
        !self.pump.is_empty() || !self.clogs.is_empty()
    }

    /// True when any fault corrupts the observed temperatures.
    pub fn has_sensor_faults(&self) -> bool {
        !self.sensors.is_empty()
    }
}

/// xorshift64* with a splitmix-style seed scramble — the same generator
/// the thermal sensor layer uses, kept here as a private copy so the
/// fault stream is self-contained and stable.
#[derive(Debug, Clone)]
struct XorShift {
    state: u64,
}

impl XorShift {
    fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in [0, 1) with 53 bits of mantissa.
    fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal via Box–Muller.
    fn next_gaussian(&mut self) -> f64 {
        let u1 = self.next_unit().max(1e-12);
        let u2 = self.next_unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Runtime replay of a [`FaultTimeline`]: the engine constructs one per
/// run and queries it once per control sample, in sample order.
///
/// `advance` must be called once per sample (it tracks fault
/// activation/deactivation transitions for the `engine.fault_events`
/// telemetry counter); `observe` must be called with monotonically
/// non-decreasing times (it owns the hold-last and stuck-at state and
/// the noise RNG stream).
#[derive(Debug, Clone)]
pub struct FaultReplay {
    timeline: FaultTimeline,
    rng: XorShift,
    /// Last clean (pre-dropout) observation, for hold-last replay.
    held: Vec<f64>,
    held_valid: bool,
    /// Observation frozen by the first `StuckAt` sample.
    stuck: Vec<f64>,
    stuck_valid: bool,
    /// One activity flag per fault (pump ++ clogs ++ sensors), for
    /// transition counting.
    active: Vec<bool>,
    events: u64,
}

impl FaultReplay {
    /// Builds a replay for `timeline`. `cavities` is the number of
    /// liquid cavities in the simulated stack; clogs addressing a
    /// cavity outside `0..cavities` are ignored (a config-level
    /// validation error is the engine's job).
    pub fn new(timeline: &FaultTimeline, cavities: usize) -> Self {
        let mut timeline = timeline.clone();
        timeline.clogs.retain(|c| c.cavity < cavities);
        let faults = timeline.pump.len() + timeline.clogs.len() + timeline.sensors.len();
        Self {
            rng: XorShift::new(timeline.seed),
            held: Vec::new(),
            held_valid: false,
            stuck: Vec::new(),
            stuck_valid: false,
            active: vec![false; faults],
            events: 0,
            timeline,
        }
    }

    /// True when the replayed timeline affects the delivered flow.
    pub fn has_flow_faults(&self) -> bool {
        self.timeline.has_flow_faults()
    }

    /// True when the replayed timeline corrupts observations.
    pub fn has_sensor_faults(&self) -> bool {
        self.timeline.has_sensor_faults()
    }

    /// Advances the transition tracker to time `t_s`, counting every
    /// fault that switches between inactive and active. Call once per
    /// sample, before the per-sample queries.
    pub fn advance(&mut self, t_s: f64) {
        let tl = &self.timeline;
        let now = tl
            .pump
            .iter()
            .map(|f| f.active(t_s))
            .chain(tl.clogs.iter().map(|c| c.active(t_s)))
            .chain(tl.sensors.iter().map(|s| s.active(t_s)));
        for (flag, is_active) in self.active.iter_mut().zip(now) {
            if *flag != is_active {
                *flag = is_active;
                self.events += 1;
            }
        }
    }

    /// Combined pump delivery fraction at `t_s`, clamped to
    /// [`MIN_FLOW_DERATE`, 1.0].
    pub fn pump_derate(&self, t_s: f64) -> f64 {
        let product: f64 = self.timeline.pump.iter().map(|f| f.derate(t_s)).product();
        product.clamp(MIN_FLOW_DERATE, 1.0)
    }

    /// Fills `out` (one slot per cavity) with the per-cavity flow
    /// fractions at `t_s`, each clamped to [`MIN_FLOW_DERATE`, 1.0].
    /// Returns true when any cavity is derated.
    pub fn cavity_derates(&self, t_s: f64, out: &mut [f64]) -> bool {
        out.fill(1.0);
        for clog in &self.timeline.clogs {
            if let Some(slot) = out.get_mut(clog.cavity) {
                *slot *= clog.factor(t_s);
            }
        }
        let mut any = false;
        for slot in out.iter_mut() {
            *slot = slot.clamp(MIN_FLOW_DERATE, 1.0);
            any |= *slot < 1.0;
        }
        any
    }

    /// Produces the corrupted observation of `truth` at time `t_s`.
    ///
    /// Application order: additive noise, then stuck-at freeze, then
    /// dropout hold-last. Noise draws one variate per element per
    /// `Noise` fault on **every** call, so the RNG stream is a function
    /// of the sample index alone.
    pub fn observe(&mut self, t_s: f64, truth: &[f64], observed: &mut Vec<f64>) {
        observed.clear();
        observed.extend_from_slice(truth);
        for fault in &self.timeline.sensors {
            if let SensorFault::Noise { sigma } = *fault {
                for v in observed.iter_mut() {
                    *v += sigma * self.rng.next_gaussian();
                }
            }
        }
        for fault in &self.timeline.sensors {
            if let SensorFault::StuckAt { at_s } = *fault {
                if t_s >= at_s {
                    if !self.stuck_valid {
                        self.stuck.clear();
                        self.stuck.extend_from_slice(observed);
                        self.stuck_valid = true;
                    }
                    observed.copy_from_slice(&self.stuck);
                }
            }
        }
        let in_dropout = self
            .timeline
            .sensors
            .iter()
            .any(|f| matches!(f, SensorFault::Dropout { start_s, end_s } if t_s >= *start_s && t_s < *end_s));
        if in_dropout {
            if self.held_valid {
                observed.copy_from_slice(&self.held);
            }
            // No pre-window sample yet: the raw observation passes
            // through and becomes the held value only once the window
            // ends.
        } else {
            self.held.clear();
            self.held.extend_from_slice(observed);
            self.held_valid = true;
        }
    }

    /// Returns and resets the count of fault activation/deactivation
    /// transitions recorded since the last drain.
    pub fn drain_events(&mut self) -> u64 {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_timeline_is_empty_and_inert() {
        let tl = FaultTimeline::default();
        assert!(tl.is_empty());
        assert!(!tl.has_flow_faults());
        assert!(!tl.has_sensor_faults());
        let mut replay = FaultReplay::new(&tl, 4);
        replay.advance(10.0);
        assert_eq!(replay.drain_events(), 0);
        assert_eq!(replay.pump_derate(10.0), 1.0);
        let mut derates = [0.0; 4];
        assert!(!replay.cavity_derates(10.0, &mut derates));
        assert_eq!(derates, [1.0; 4]);
        let mut obs = Vec::new();
        replay.observe(10.0, &[50.0, 60.0], &mut obs);
        assert_eq!(obs, vec![50.0, 60.0]);
    }

    #[test]
    fn pump_fault_curves() {
        let step = PumpFault::Step {
            at_s: 5.0,
            level: 0.6,
        };
        assert_eq!(step.derate(4.9), 1.0);
        assert_eq!(step.derate(5.0), 0.6);
        assert_eq!(step.derate(500.0), 0.6);

        let ramp = PumpFault::Degradation {
            start_s: 10.0,
            end_s: 20.0,
            level: 0.5,
        };
        assert_eq!(ramp.derate(0.0), 1.0);
        assert!((ramp.derate(15.0) - 0.75).abs() < 1e-12);
        assert_eq!(ramp.derate(20.0), 0.5);
        assert_eq!(ramp.derate(99.0), 0.5);

        let drop = PumpFault::Dropout {
            start_s: 1.0,
            end_s: 2.0,
            level: 0.1,
        };
        assert_eq!(drop.derate(0.5), 1.0);
        assert_eq!(drop.derate(1.5), 0.1);
        assert_eq!(drop.derate(2.0), 1.0);
    }

    #[test]
    fn pump_faults_compose_and_clamp() {
        let tl = FaultTimeline::new(1)
            .with_pump(PumpFault::Step {
                at_s: 0.0,
                level: 0.5,
            })
            .with_pump(PumpFault::Dropout {
                start_s: 1.0,
                end_s: 2.0,
                level: 0.0,
            });
        let replay = FaultReplay::new(&tl, 1);
        assert_eq!(replay.pump_derate(0.5), 0.5);
        // Zero-level dropout clamps to the floor instead of killing
        // the flow entirely.
        assert_eq!(replay.pump_derate(1.5), MIN_FLOW_DERATE);
    }

    #[test]
    fn clog_ramps_and_targets_one_cavity() {
        let tl = FaultTimeline::new(0).with_clog(ChannelClog {
            cavity: 1,
            start_s: 2.0,
            ramp_s: 4.0,
            derate: 0.2,
        });
        let replay = FaultReplay::new(&tl, 3);
        let mut d = [0.0; 3];
        replay.cavity_derates(1.0, &mut d);
        assert_eq!(d, [1.0, 1.0, 1.0]);
        assert!(replay.cavity_derates(4.0, &mut d));
        assert_eq!(d[0], 1.0);
        assert!((d[1] - 0.6).abs() < 1e-12);
        assert_eq!(d[2], 1.0);
        replay.cavity_derates(100.0, &mut d);
        assert!((d[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_clogs_are_dropped() {
        let tl = FaultTimeline::new(0).with_clog(ChannelClog {
            cavity: 9,
            start_s: 0.0,
            ramp_s: 0.0,
            derate: 0.1,
        });
        let replay = FaultReplay::new(&tl, 2);
        let mut d = [0.0; 2];
        assert!(!replay.cavity_derates(10.0, &mut d));
        assert_eq!(d, [1.0, 1.0]);
    }

    #[test]
    fn noise_is_seed_deterministic() {
        let tl = FaultTimeline::new(42).with_sensor(SensorFault::Noise { sigma: 0.5 });
        let truth = [55.0, 60.0, 65.0];
        let run = |tl: &FaultTimeline| {
            let mut replay = FaultReplay::new(tl, 1);
            let mut out = Vec::new();
            let mut all = Vec::new();
            for s in 0..10 {
                replay.observe(s as f64 * 0.1, &truth, &mut out);
                all.extend(out.iter().map(|v| v.to_bits()));
            }
            all
        };
        assert_eq!(run(&tl), run(&tl), "same seed must replay bit-identically");
        let other = FaultTimeline::new(43).with_sensor(SensorFault::Noise { sigma: 0.5 });
        assert_ne!(run(&tl), run(&other), "different seeds must differ");
        // Noise is zero-mean-ish and actually perturbs the truth.
        let mut replay = FaultReplay::new(&tl, 1);
        let mut out = Vec::new();
        replay.observe(0.0, &truth, &mut out);
        assert!(out.iter().zip(&truth).any(|(o, t)| o != t));
    }

    #[test]
    fn dropout_holds_the_last_clean_observation() {
        let tl = FaultTimeline::new(0).with_sensor(SensorFault::Dropout {
            start_s: 1.0,
            end_s: 3.0,
        });
        let mut replay = FaultReplay::new(&tl, 1);
        let mut out = Vec::new();
        replay.observe(0.5, &[50.0], &mut out);
        assert_eq!(out, vec![50.0]);
        replay.observe(1.5, &[70.0], &mut out);
        assert_eq!(out, vec![50.0], "inside the window the sensor holds");
        replay.observe(2.5, &[90.0], &mut out);
        assert_eq!(out, vec![50.0]);
        replay.observe(3.5, &[90.0], &mut out);
        assert_eq!(out, vec![90.0], "after the window the sensor recovers");
    }

    #[test]
    fn stuck_at_freezes_the_first_sample_past_onset() {
        let tl = FaultTimeline::new(0).with_sensor(SensorFault::StuckAt { at_s: 2.0 });
        let mut replay = FaultReplay::new(&tl, 1);
        let mut out = Vec::new();
        replay.observe(1.0, &[40.0], &mut out);
        assert_eq!(out, vec![40.0]);
        replay.observe(2.5, &[60.0], &mut out);
        assert_eq!(out, vec![60.0], "freeze captures the onset sample");
        replay.observe(5.0, &[80.0], &mut out);
        assert_eq!(out, vec![60.0], "later samples replay the frozen value");
    }

    #[test]
    fn transitions_are_counted_once_per_edge() {
        let tl = FaultTimeline::new(0)
            .with_pump(PumpFault::Dropout {
                start_s: 1.0,
                end_s: 2.0,
                level: 0.5,
            })
            .with_sensor(SensorFault::StuckAt { at_s: 3.0 });
        let mut replay = FaultReplay::new(&tl, 1);
        for s in 0..50 {
            replay.advance(s as f64 * 0.1);
        }
        // Dropout activates and deactivates (2 edges); stuck-at
        // activates once and never clears.
        assert_eq!(replay.drain_events(), 3);
        assert_eq!(replay.drain_events(), 0, "drain resets the count");
    }

    #[test]
    fn debug_repr_is_stable_for_cache_hashing() {
        let tl = FaultTimeline::new(7).with_pump(PumpFault::Step {
            at_s: 1.5,
            level: 0.25,
        });
        assert_eq!(
            format!("{tl:?}"),
            "FaultTimeline { seed: 7, pump: [Step { at_s: 1.5, level: 0.25 }], \
             clogs: [], sensors: [] }"
        );
    }
}
