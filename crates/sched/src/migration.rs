//! Reactive thread migration (the paper's "Mig." baseline).

use vfc_units::{Celsius, Seconds, TemperatureDelta};
use vfc_workload::ThreadSpec;

use crate::{CoreQueue, LoadBalancing, SchedContext, SchedulingPolicy};

/// Load balancing plus reactive migration: when a core crosses the
/// temperature threshold (85 °C in the paper), its running thread is moved
/// to the coolest core, paying a migration penalty (pipeline drain, cold
/// caches) that shows up as the throughput loss of Fig. 8.
#[derive(Debug, Clone)]
pub struct ReactiveMigration {
    lb: LoadBalancing,
    threshold: Celsius,
    penalty: Seconds,
    /// Temperature margin the target must be below the source by.
    margin: TemperatureDelta,
    migrations: u64,
    /// Rebalance calls before a core may migrate again. Temperatures are
    /// sampled every 100 ms while rebalancing runs every 1 ms tick, so
    /// without this a single stale reading would trigger ~100 migrations.
    cooldown_calls: u64,
    call: u64,
    next_allowed: Vec<u64>,
}

impl ReactiveMigration {
    /// The paper's setup: 85 °C trigger and load balancing underneath.
    pub fn new() -> Self {
        Self::with_parameters(Celsius::new(85.0), Seconds::from_millis(50.0))
    }

    /// Custom trigger threshold and per-migration penalty.
    pub(crate) fn with_parameters(threshold: Celsius, penalty: Seconds) -> Self {
        Self {
            lb: LoadBalancing::new(),
            threshold,
            penalty,
            margin: TemperatureDelta::new(2.0),
            migrations: 0,
            cooldown_calls: 100,
            call: 0,
            next_allowed: Vec::new(),
        }
    }
}

impl Default for ReactiveMigration {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulingPolicy for ReactiveMigration {
    fn name(&self) -> &'static str {
        "Mig."
    }

    fn place(&mut self, thread: ThreadSpec, queues: &mut [CoreQueue], ctx: &SchedContext<'_>) {
        self.lb.place(thread, queues, ctx);
    }

    fn rebalance(&mut self, queues: &mut [CoreQueue], ctx: &SchedContext<'_>) {
        self.lb.rebalance(queues, ctx);
        self.call += 1;
        if self.next_allowed.len() != queues.len() {
            self.next_allowed = vec![0; queues.len()];
        }
        // Migrate the running thread away from every hot core, at most
        // once per temperature reading (cooldown).
        for hot in 0..queues.len() {
            if ctx.core_temps[hot] < self.threshold || self.call < self.next_allowed[hot] {
                continue;
            }
            let target = ctx.coolest_core();
            if target == hot || ctx.core_temps[hot] - ctx.core_temps[target] < self.margin {
                continue; // nowhere meaningfully cooler to go
            }
            if let Some(mut t) = queues[hot].take_running() {
                t.add_penalty(self.penalty);
                queues[target].push(t);
                self.migrations += 1;
                self.next_allowed[hot] = self.call + self.cooldown_calls;
            }
        }
    }

    fn migration_count(&self) -> u64 {
        self.migrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread(id: u64) -> ThreadSpec {
        ThreadSpec::new(id, Seconds::from_millis(100.0))
    }

    #[test]
    fn migrates_running_thread_from_hot_core() {
        let temps = [Celsius::new(87.0), Celsius::new(60.0)];
        let w = [1.0, 1.0];
        let ctx = SchedContext {
            core_temps: &temps,
            weights: &w,
        };
        let mut queues = vec![CoreQueue::new(); 2];
        queues[0].push(thread(1));
        queues[0].tick(Seconds::from_millis(1.0)); // dispatch it
        assert!(queues[0].is_busy());

        let mut pol = ReactiveMigration::new();
        pol.rebalance(&mut queues, &ctx);
        assert!(!queues[0].is_busy());
        assert_eq!(queues[1].load(), 1);
        assert_eq!(pol.migration_count(), 1);
        // The migrated thread carries the penalty: 99 ms left + 50 ms.
        assert!((queues[1].backlog().to_millis() - 149.0).abs() < 1e-9);
    }

    #[test]
    fn no_migration_below_threshold() {
        let temps = [Celsius::new(84.9), Celsius::new(60.0)];
        let w = [1.0, 1.0];
        let ctx = SchedContext {
            core_temps: &temps,
            weights: &w,
        };
        let mut queues = vec![CoreQueue::new(); 2];
        queues[0].push(thread(1));
        queues[0].tick(Seconds::from_millis(1.0));
        let mut pol = ReactiveMigration::new();
        pol.rebalance(&mut queues, &ctx);
        assert!(queues[0].is_busy());
        assert_eq!(pol.migration_count(), 0);
    }

    #[test]
    fn no_migration_when_everything_is_hot() {
        let temps = [Celsius::new(88.0), Celsius::new(87.5)];
        let w = [1.0, 1.0];
        let ctx = SchedContext {
            core_temps: &temps,
            weights: &w,
        };
        let mut queues = vec![CoreQueue::new(); 2];
        queues[0].push(thread(1));
        queues[0].tick(Seconds::from_millis(1.0));
        let mut pol = ReactiveMigration::new();
        pol.rebalance(&mut queues, &ctx);
        // Margin of 2 °C not met: the thread stays, avoiding ping-pong.
        assert!(queues[0].is_busy());
        assert_eq!(pol.migration_count(), 0);
    }

    #[test]
    fn name_matches_paper_legend() {
        assert_eq!(ReactiveMigration::new().name(), "Mig.");
    }
}
