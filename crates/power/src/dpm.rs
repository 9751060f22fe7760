//! Dynamic power management: the fixed-timeout sleep policy of Sec. V.

use vfc_units::Seconds;

use crate::PowerState;

/// Fixed-timeout DPM: a core that has been idle longer than the timeout
/// (200 ms in the paper) is put to sleep; any arriving work wakes it.
#[derive(Debug, Clone)]
pub struct FixedTimeoutDpm {
    timeout: f64,
    idle_for: Vec<f64>,
    states: Vec<PowerState>,
    enabled: bool,
}

impl FixedTimeoutDpm {
    /// Creates the policy for `cores` cores with the paper's 200 ms
    /// timeout.
    pub fn new(cores: usize) -> Self {
        Self::with_timeout(cores, Seconds::from_millis(200.0))
    }

    /// Creates the policy with a custom timeout.
    ///
    /// # Panics
    ///
    /// Panics if the timeout is not positive.
    pub(crate) fn with_timeout(cores: usize, timeout: Seconds) -> Self {
        assert!(timeout.value() > 0.0, "timeout must be positive");
        Self {
            timeout: timeout.value(),
            idle_for: vec![0.0; cores],
            states: vec![PowerState::Idle; cores],
            enabled: true,
        }
    }

    /// A disabled DPM (cores never sleep) for the non-DPM experiments
    /// (Fig. 6 runs without DPM; Fig. 7 runs with it).
    pub fn disabled(cores: usize) -> Self {
        let mut dpm = Self::new(cores);
        dpm.enabled = false;
        dpm
    }

    /// Advances one core by `dt`: `busy` is whether it executed work this
    /// tick. Returns the state to bill for the interval.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn tick(&mut self, core: usize, busy: bool, dt: Seconds) -> PowerState {
        if busy {
            self.idle_for[core] = 0.0;
            self.states[core] = PowerState::Active;
        } else {
            self.idle_for[core] += dt.value();
            self.states[core] = if self.enabled && self.idle_for[core] >= self.timeout {
                PowerState::Sleep
            } else {
                PowerState::Idle
            };
        }
        self.states[core]
    }

    /// Current state of a core.
    pub fn state(&self, core: usize) -> PowerState {
        self.states[core]
    }

    /// Immediately wakes a core (thread arrival).
    pub fn wake(&mut self, core: usize) {
        self.idle_for[core] = 0.0;
        if self.states[core] == PowerState::Sleep {
            self.states[core] = PowerState::Idle;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: f64 = 1e-3;

    #[test]
    fn sleeps_after_timeout() {
        let mut dpm = FixedTimeoutDpm::new(1);
        let dt = Seconds::from_millis(50.0);
        for _ in 0..3 {
            assert_eq!(dpm.tick(0, false, dt), PowerState::Idle);
        }
        // 200 ms reached on the 4th tick.
        assert_eq!(dpm.tick(0, false, dt), PowerState::Sleep);
    }

    #[test]
    fn activity_resets_the_clock() {
        let mut dpm = FixedTimeoutDpm::new(1);
        let dt = Seconds::from_millis(150.0);
        assert_eq!(dpm.tick(0, false, dt), PowerState::Idle);
        assert_eq!(dpm.tick(0, true, dt), PowerState::Active);
        assert_eq!(dpm.tick(0, false, dt), PowerState::Idle);
        assert_eq!(dpm.tick(0, false, dt), PowerState::Sleep);
    }

    #[test]
    fn wake_clears_sleep() {
        let mut dpm = FixedTimeoutDpm::new(2);
        let dt = Seconds::new(300.0 * MS);
        dpm.tick(1, false, dt);
        assert_eq!(dpm.state(1), PowerState::Sleep);
        dpm.wake(1);
        assert_eq!(dpm.state(1), PowerState::Idle);
        // Core 0 is unaffected.
        assert_eq!(dpm.state(0), PowerState::Idle);
    }

    #[test]
    fn disabled_never_sleeps() {
        let mut dpm = FixedTimeoutDpm::disabled(1);
        for _ in 0..100 {
            assert_eq!(dpm.tick(0, false, Seconds::new(1.0)), PowerState::Idle);
        }
    }

    #[test]
    #[should_panic(expected = "timeout must be positive")]
    fn zero_timeout_rejected() {
        let _ = FixedTimeoutDpm::with_timeout(1, Seconds::ZERO);
    }
}
