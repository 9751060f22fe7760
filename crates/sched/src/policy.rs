//! The scheduling-policy abstraction.

use vfc_units::Celsius;
use vfc_workload::ThreadSpec;

use crate::CoreQueue;

/// Per-decision context handed to a policy: current core temperatures and
/// the TALB thermal weights (uniform for thermally-unaware policies).
#[derive(Debug, Clone, Copy)]
pub struct SchedContext<'a> {
    /// Latest sensor reading per core, in global core order.
    pub core_temps: &'a [Celsius],
    /// Thermal weight per core (TALB's `w_thermal`; 1.0 everywhere for
    /// other policies).
    pub weights: &'a [f64],
}

impl SchedContext<'_> {
    /// Index of the coolest core.
    pub(crate) fn coolest_core(&self) -> usize {
        let mut best = 0;
        for (i, t) in self.core_temps.iter().enumerate() {
            if *t < self.core_temps[best] {
                best = i;
            }
        }
        best
    }
}

/// A multi-queue scheduling policy (LB, reactive migration or TALB).
pub trait SchedulingPolicy: core::fmt::Debug {
    /// Display name used in reports (matches the paper's legends).
    fn name(&self) -> &'static str;

    /// Places a newly arrived thread into one of the queues.
    fn place(&mut self, thread: ThreadSpec, queues: &mut [CoreQueue], ctx: &SchedContext<'_>);

    /// Periodic balancing/migration pass (invoked every scheduler tick).
    fn rebalance(&mut self, queues: &mut [CoreQueue], ctx: &SchedContext<'_>);

    /// Total temperature-triggered migrations performed so far.
    fn migration_count(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_helpers() {
        let temps = [Celsius::new(70.0), Celsius::new(55.0), Celsius::new(81.0)];
        let w = [1.0, 1.0, 1.0];
        let ctx = SchedContext {
            core_temps: &temps,
            weights: &w,
        };
        assert_eq!(ctx.coolest_core(), 1);
    }
}
