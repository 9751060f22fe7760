//! Temperature-aware weighted load balancing — the paper's TALB (Eq. 8).

use vfc_workload::ThreadSpec;

use crate::{CoreQueue, SchedContext, SchedulingPolicy};

/// TALB: load balancing over *weighted* queue lengths
/// `l_weighted = l_queue · w_thermal(Tmax)` (Eq. 8). The priority and
/// performance features of plain load balancing are untouched — only the
/// queue-length computation changes, exactly as in the paper.
#[derive(Debug, Clone)]
pub struct TemperatureAwareLb {
    /// Imbalance threshold in weighted-length units.
    threshold: f64,
}

impl TemperatureAwareLb {
    /// Creates TALB with the default weighted-imbalance threshold (2.0,
    /// mirroring LB's two-thread threshold at weight 1).
    pub fn new() -> Self {
        Self::with_threshold(2.0)
    }

    /// Creates TALB with a custom weighted threshold.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is not positive.
    pub(crate) fn with_threshold(threshold: f64) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        Self { threshold }
    }

    fn weighted_load(q: &CoreQueue, w: f64) -> f64 {
        q.load() as f64 * w
    }

    fn extreme_queues(queues: &[CoreQueue], weights: &[f64]) -> (usize, usize) {
        let mut lo = 0;
        let mut hi = 0;
        let mut lo_v = f64::INFINITY;
        let mut hi_v = f64::NEG_INFINITY;
        for (i, q) in queues.iter().enumerate() {
            let v = Self::weighted_load(q, weights[i]);
            if v < lo_v {
                lo_v = v;
                lo = i;
            }
            if v > hi_v {
                hi_v = v;
                hi = i;
            }
        }
        (lo, hi)
    }
}

impl Default for TemperatureAwareLb {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulingPolicy for TemperatureAwareLb {
    fn name(&self) -> &'static str {
        "TALB"
    }

    fn place(&mut self, thread: ThreadSpec, queues: &mut [CoreQueue], ctx: &SchedContext<'_>) {
        // Place where the *post-placement* weighted length is smallest, so
        // heavily weighted (thermally poor) cores are avoided even when
        // all queues are empty.
        let mut best = 0;
        let mut best_v = f64::INFINITY;
        for (i, q) in queues.iter().enumerate() {
            let v = (q.load() + 1) as f64 * ctx.weights[i];
            if v < best_v {
                best_v = v;
                best = i;
            }
        }
        queues[best].push(thread);
    }

    fn rebalance(&mut self, queues: &mut [CoreQueue], ctx: &SchedContext<'_>) {
        for _ in 0..queues.iter().map(CoreQueue::load).sum::<usize>() {
            let (lo, hi) = Self::extreme_queues(queues, ctx.weights);
            if lo == hi {
                break;
            }
            let hi_v = Self::weighted_load(&queues[hi], ctx.weights[hi]);
            let lo_v = Self::weighted_load(&queues[lo], ctx.weights[lo]);
            if hi_v - lo_v < self.threshold {
                break;
            }
            // Only move if it actually reduces the spread.
            let new_lo = (queues[lo].load() + 1) as f64 * ctx.weights[lo];
            if new_lo >= hi_v {
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

    fn thread(id: u64) -> ThreadSpec {
        ThreadSpec::new(id, Seconds::from_millis(80.0))
    }

    #[test]
    fn placement_prefers_low_weight_cores() {
        // Core 1 is thermally disadvantaged (weight 3): with equal queue
        // lengths, threads go to core 0.
        let temps = [Celsius::new(70.0); 2];
        let w = [1.0, 3.0];
        let ctx = SchedContext {
            core_temps: &temps,
            weights: &w,
        };
        let mut queues = vec![CoreQueue::new(); 2];
        let mut talb = TemperatureAwareLb::new();
        for i in 0..3 {
            talb.place(thread(i), &mut queues, &ctx);
        }
        assert_eq!(queues[0].load(), 3);
        assert_eq!(queues[1].load(), 0);
        // Eventually the weighted length tips over and core 1 gets one:
        // 4 threads on core 0 → weighted 4; core 1 with 1 → weighted 3.
        talb.place(thread(3), &mut queues, &ctx);
        talb.place(thread(4), &mut queues, &ctx);
        assert_eq!(queues[1].load(), 1);
    }

    #[test]
    fn uniform_weights_reduce_to_plain_lb() {
        let temps = [Celsius::new(70.0); 4];
        let w = [1.0; 4];
        let ctx = SchedContext {
            core_temps: &temps,
            weights: &w,
        };
        let mut queues = vec![CoreQueue::new(); 4];
        let mut talb = TemperatureAwareLb::new();
        for i in 0..8 {
            talb.place(thread(i), &mut queues, &ctx);
        }
        for q in &queues {
            assert_eq!(q.load(), 2);
        }
    }

    #[test]
    fn rebalance_moves_work_to_thermally_good_cores() {
        let temps = [Celsius::new(70.0); 2];
        let w = [1.0, 2.0];
        let ctx = SchedContext {
            core_temps: &temps,
            weights: &w,
        };
        let mut queues = vec![CoreQueue::new(); 2];
        for i in 0..4 {
            queues[1].push(thread(i)); // all work on the bad core
        }
        let mut talb = TemperatureAwareLb::new();
        talb.rebalance(&mut queues, &ctx);
        // Weighted: started at (0, 8); moving waiters to core 0 until the
        // spread is under control.
        assert!(queues[0].load() >= 2, "{:?}", queues[0].load());
        let w0 = queues[0].load() as f64 * 1.0;
        let w1 = queues[1].load() as f64 * 2.0;
        assert!(w1 - w0 < 2.0 + 2.0, "weighted spread {w0} {w1}");
    }

    #[test]
    fn rebalance_terminates_on_empty_queues() {
        let temps = [Celsius::new(70.0); 2];
        let w = [1.0, 1.0];
        let ctx = SchedContext {
            core_temps: &temps,
            weights: &w,
        };
        let mut queues = vec![CoreQueue::new(); 2];
        let mut talb = TemperatureAwareLb::new();
        talb.rebalance(&mut queues, &ctx); // no panic, no loop
        assert_eq!(queues[0].load() + queues[1].load(), 0);
    }

    #[test]
    fn name_matches_paper_legend() {
        assert_eq!(TemperatureAwareLb::new().name(), "TALB");
    }
}
