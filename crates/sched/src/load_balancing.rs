//! Conventional dynamic load balancing (the paper's "LB" baseline).

use vfc_workload::ThreadSpec;

use crate::{CoreQueue, SchedContext, SchedulingPolicy};

/// Dynamic load balancing: place on the least-loaded queue; periodically
/// move waiters from the longest to the shortest queue when the imbalance
/// exceeds a threshold. No thermal awareness.
#[derive(Debug, Clone)]
pub struct LoadBalancing {
    threshold: usize,
}

impl LoadBalancing {
    /// Creates the balancer with the default imbalance threshold of 2.
    pub fn new() -> Self {
        Self::with_threshold(2)
    }

    /// Creates the balancer with a custom threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0`.
    pub(crate) fn with_threshold(threshold: usize) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        Self { threshold }
    }

    /// Index of the queue with the smallest load.
    pub(crate) fn least_loaded(queues: &[CoreQueue]) -> usize {
        let mut best = 0;
        for (i, q) in queues.iter().enumerate() {
            if q.load() < queues[best].load() {
                best = i;
            }
        }
        best
    }

    pub(crate) fn most_loaded(queues: &[CoreQueue]) -> usize {
        let mut best = 0;
        for (i, q) in queues.iter().enumerate() {
            if q.load() > queues[best].load() {
                best = i;
            }
        }
        best
    }
}

impl Default for LoadBalancing {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulingPolicy for LoadBalancing {
    fn name(&self) -> &'static str {
        "LB"
    }

    fn place(&mut self, thread: ThreadSpec, queues: &mut [CoreQueue], _ctx: &SchedContext<'_>) {
        let target = Self::least_loaded(queues);
        queues[target].push(thread);
    }

    fn rebalance(&mut self, queues: &mut [CoreQueue], _ctx: &SchedContext<'_>) {
        // Move one waiter at a time until the spread drops below the
        // threshold (bounded by total thread count).
        for _ in 0..queues.iter().map(CoreQueue::load).sum::<usize>() {
            let hi = Self::most_loaded(queues);
            let lo = Self::least_loaded(queues);
            if queues[hi].load() < queues[lo].load() + self.threshold {
                break;
            }
            match queues[hi].steal_waiting() {
                Some(t) => queues[lo].push(t),
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_units::{Celsius, Seconds};

    fn ctx<'a>(temps: &'a [Celsius], weights: &'a [f64]) -> SchedContext<'a> {
        SchedContext {
            core_temps: temps,
            weights,
        }
    }

    fn thread(id: u64) -> ThreadSpec {
        ThreadSpec::new(id, Seconds::from_millis(50.0))
    }

    #[test]
    fn placement_spreads_threads() {
        let temps = vec![Celsius::new(60.0); 4];
        let w = vec![1.0; 4];
        let c = ctx(&temps, &w);
        let mut queues = vec![CoreQueue::new(); 4];
        let mut lb = LoadBalancing::new();
        for i in 0..8 {
            lb.place(thread(i), &mut queues, &c);
        }
        for q in &queues {
            assert_eq!(q.load(), 2);
        }
    }

    #[test]
    fn rebalance_fixes_imbalance() {
        let temps = vec![Celsius::new(60.0); 3];
        let w = vec![1.0; 3];
        let c = ctx(&temps, &w);
        let mut queues = vec![CoreQueue::new(); 3];
        for i in 0..6 {
            queues[0].push(thread(i));
        }
        let mut lb = LoadBalancing::new();
        lb.rebalance(&mut queues, &c);
        let loads: Vec<usize> = queues.iter().map(CoreQueue::load).collect();
        let spread = loads.iter().max().unwrap() - loads.iter().min().unwrap();
        assert!(spread < 2, "loads {loads:?}");
    }

    #[test]
    fn rebalance_is_stable_when_balanced() {
        let temps = vec![Celsius::new(60.0); 2];
        let w = vec![1.0; 2];
        let c = ctx(&temps, &w);
        let mut queues = vec![CoreQueue::new(); 2];
        queues[0].push(thread(1));
        queues[1].push(thread(2));
        let mut lb = LoadBalancing::new();
        lb.rebalance(&mut queues, &c);
        assert_eq!(queues[0].load(), 1);
        assert_eq!(queues[1].load(), 1);
    }

    #[test]
    fn name_matches_paper_legend() {
        assert_eq!(LoadBalancing::new().name(), "LB");
    }
}
