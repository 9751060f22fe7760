//! Multi-queue scheduling for the 3D multicore systems (paper Sec. IV).
//!
//! Modern OSes dispatch threads onto per-core queues; the paper's policies
//! differ in how they choose the target queue and when they move work:
//!
//! * [`LoadBalancing`] — conventional dynamic load balancing: equalize raw
//!   queue lengths (no thermal awareness);
//! * [`ReactiveMigration`] — load balancing plus migration of the running
//!   thread away from any core above 85 °C, paying a migration penalty;
//! * [`TemperatureAwareLb`] (TALB, the paper's contribution) — balance
//!   *weighted* queue lengths `l_w = l_queue · w_thermal(Tmax)` (Eq. 8),
//!   where the weights are the normalized inverses of the per-core power
//!   budgets that produce a thermally balanced chip.
//!
//! # Example
//!
//! ```
//! use vfc_sched::{CoreQueue, LoadBalancing, SchedContext, SchedulingPolicy, ThermalWeightTable};
//! use vfc_workload::ThreadSpec;
//! use vfc_units::{Celsius, Seconds};
//!
//! let mut queues = vec![CoreQueue::new(), CoreQueue::new()];
//! let mut policy = LoadBalancing::new();
//! let weights = ThermalWeightTable::uniform(2);
//! let temps = [Celsius::new(60.0), Celsius::new(70.0)];
//! let ctx = SchedContext { core_temps: &temps, weights: weights.weights_for(Celsius::new(70.0)) };
//! policy.place(ThreadSpec::new(0, Seconds::from_millis(50.0)), &mut queues, &ctx);
//! assert_eq!(queues[0].load() + queues[1].load(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod load_balancing;
mod migration;
mod policy;
mod queue;
mod talb;
mod weights;

pub use self::load_balancing::LoadBalancing;
pub use self::migration::ReactiveMigration;
pub use self::policy::{SchedContext, SchedulingPolicy};
pub use self::queue::{CoreQueue, DEFAULT_CONTEXTS};
pub use self::talb::TemperatureAwareLb;
pub use self::weights::ThermalWeightTable;
