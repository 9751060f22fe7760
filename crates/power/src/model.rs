//! Dynamic power of cores, caches, crossbar and uncore blocks.

use vfc_floorplan::BlockKind;
use vfc_units::Watts;

/// Average-power model of the UltraSPARC-T1-class blocks (paper Sec. V).
///
/// The paper: "SPARC's peak power is close to its average value; thus we
/// assume that the instantaneous dynamic power consumption is equal to the
/// average power at each state (active, idle, sleep)".
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PowerModel {
    /// Active core power (paper: 3 W).
    pub core_active: f64,
    /// Idle (awake, empty queue) core power. Not stated in the paper;
    /// 1.0 W assumed (DESIGN.md §4.6).
    pub core_idle: f64,
    /// Sleep-state power (paper: 0.02 W).
    pub core_sleep: f64,
    /// Peak L2 power per cache (paper/CACTI: 1.28 W).
    pub l2_peak: f64,
    /// Fraction of L2 power that is activity-independent.
    pub l2_base_fraction: f64,
    /// Peak crossbar power, scaled by active cores and memory accesses
    /// (DESIGN.md §4.6: 3 W assumed).
    pub crossbar_peak: f64,
    /// Fraction of crossbar power that is activity-independent.
    pub crossbar_base_fraction: f64,
    /// Fixed power of each uncore block (SIU/FPU strip).
    pub uncore: f64,
    /// Fixed power of each buffer block.
    pub buffer: f64,
}

impl PowerModel {
    /// The paper's UltraSPARC T1 values plus the documented assumptions.
    pub fn ultrasparc_t1() -> Self {
        Self {
            core_active: 3.0,
            core_idle: 1.0,
            core_sleep: 0.02,
            l2_peak: 1.28,
            l2_base_fraction: 0.2,
            crossbar_peak: 3.0,
            crossbar_base_fraction: 0.3,
            uncore: 0.3,
            buffer: 0.15,
        }
    }

    /// Dynamic power of a core that was busy for `utilization ∈ [0, 1]` of
    /// the interval; `sleeping` overrides everything (DPM).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `utilization` is outside `[0, 1]`.
    pub fn core_power(&self, utilization: f64, sleeping: bool) -> Watts {
        debug_assert!((0.0..=1.0).contains(&utilization), "utilization in [0,1]");
        if sleeping {
            Watts::new(self.core_sleep)
        } else {
            Watts::new(utilization * self.core_active + (1.0 - utilization) * self.core_idle)
        }
    }

    /// Dynamic power of an L2 bank given the mean utilization of its
    /// attached cores.
    pub fn l2_power(&self, attached_utilization: f64) -> Watts {
        let act = attached_utilization.clamp(0.0, 1.0);
        Watts::new(self.l2_peak * (self.l2_base_fraction + (1.0 - self.l2_base_fraction) * act))
    }

    /// Crossbar power for the given fraction of active cores and the
    /// workload's memory intensity (normalized L2 miss rate from
    /// Table II), per the paper: "we model crossbar power by scaling the
    /// average power value according to the number of active cores and the
    /// memory accesses".
    pub fn crossbar_power(&self, active_fraction: f64, memory_intensity: f64) -> Watts {
        let a = active_fraction.clamp(0.0, 1.0);
        let m = memory_intensity.clamp(0.0, 1.0);
        Watts::new(
            self.crossbar_peak
                * (self.crossbar_base_fraction + (1.0 - self.crossbar_base_fraction) * a * m),
        )
    }

    /// Power of the fixed blocks (uncore strips and buffers); cores,
    /// caches and crossbars are handled by the dedicated methods.
    pub fn fixed_block_power(&self, kind: BlockKind) -> Watts {
        match kind {
            BlockKind::Uncore => Watts::new(self.uncore),
            BlockKind::Buffer => Watts::new(self.buffer),
            _ => Watts::ZERO,
        }
    }

    /// Peak chip dynamic power for `cores` cores, `l2s` caches and
    /// `xbars` crossbars (useful for sanity checks and normalization).
    #[cfg(test)]
    pub(crate) fn peak_chip_power(&self, cores: usize, l2s: usize, xbars: usize) -> Watts {
        Watts::new(
            cores as f64 * self.core_active
                + l2s as f64 * self.l2_peak
                + xbars as f64 * self.crossbar_peak,
        )
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::ultrasparc_t1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_values() {
        let pm = PowerModel::ultrasparc_t1();
        assert_eq!(pm.core_power(1.0, false), Watts::new(3.0));
        assert_eq!(pm.core_power(0.5, true), Watts::new(0.02));
        assert_eq!(pm.l2_power(1.0), Watts::new(1.28));
    }

    #[test]
    fn idle_between_sleep_and_active() {
        let pm = PowerModel::ultrasparc_t1();
        let idle = pm.core_power(0.0, false);
        assert!(idle > pm.core_power(0.0, true));
        assert!(idle < pm.core_power(1.0, false));
    }

    #[test]
    fn crossbar_scales_with_activity_and_memory() {
        let pm = PowerModel::ultrasparc_t1();
        let quiet = pm.crossbar_power(0.0, 0.0);
        let busy = pm.crossbar_power(1.0, 1.0);
        assert_eq!(busy, Watts::new(3.0));
        assert!((quiet.value() - 0.9).abs() < 1e-12);
        assert!(pm.crossbar_power(0.5, 1.0) < pm.crossbar_power(1.0, 1.0));
    }

    #[test]
    fn fixed_blocks() {
        let pm = PowerModel::ultrasparc_t1();
        assert_eq!(pm.fixed_block_power(BlockKind::Uncore), Watts::new(0.3));
        assert_eq!(pm.fixed_block_power(BlockKind::Core), Watts::ZERO);
    }

    #[test]
    fn peak_power_sanity() {
        // 2-layer system: 8 cores, 4 L2s, 2 crossbar columns → ~35 W dynamic.
        let pm = PowerModel::ultrasparc_t1();
        let p = pm.peak_chip_power(8, 4, 2);
        assert!((p.value() - 35.12).abs() < 0.01);
    }

    proptest! {
        #[test]
        fn core_power_monotone_in_utilization(a in 0.0f64..1.0, b in 0.0f64..1.0) {
            let pm = PowerModel::ultrasparc_t1();
            prop_assert_eq!(
                a < b,
                pm.core_power(a, false).value() < pm.core_power(b, false).value()
            );
        }

        #[test]
        fn l2_power_bounded(u in 0.0f64..1.0) {
            let pm = PowerModel::ultrasparc_t1();
            let p = pm.l2_power(u).value();
            prop_assert!(p >= pm.l2_peak * pm.l2_base_fraction - 1e-12);
            prop_assert!(p <= pm.l2_peak + 1e-12);
        }
    }
}
