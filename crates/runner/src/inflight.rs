//! In-flight execution dedup: at most one concurrent run per cache key.
//!
//! [`SweepRunner::run_shared`](crate::SweepRunner::run_shared) callers
//! racing on the same cache key are split into one **leader** (who
//! simulates) and any number of **followers** (who block until the
//! leader publishes). The sweep service uses this so two clients
//! submitting overlapping specs never duplicate a cell's simulation.
//!
//! Failure policy: a leader that errors (or panics — the claim guard
//! publishes on drop) wakes its followers with `None`; each follower
//! then retries from the cache/claim loop and one of them becomes the
//! next leader. A follower can wait at most one job duration: leaders
//! only exist while actively executing.
//!
//! Built on `std::sync::{Mutex, Condvar}` — the vendored `parking_lot`
//! shim deliberately carries no condvar.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use vfc_sim::SimReport;

/// The per-key claim registry. One instance per
/// [`SweepRunner`](crate::SweepRunner); all methods are `&self`.
#[derive(Debug, Default)]
pub(crate) struct InFlightTable {
    slots: Mutex<HashMap<u64, Arc<Slot>>>,
}

/// One in-flight execution: the leader publishes into `result` and
/// notifies `done`. `result` is `None` while running, `Some(None)`
/// after a failed leader, `Some(Some(report))` after success.
#[derive(Debug)]
struct Slot {
    result: Mutex<Option<Option<SimReport>>>,
    done: Condvar,
}

/// The outcome of [`InFlightTable::claim`].
pub(crate) enum Claim<'t> {
    /// No one is running this key: the caller must execute it and
    /// publish through the guard.
    Leader(LeaderGuard<'t>),
    /// Someone is already running this key: wait on their result.
    Follower(Follower),
}

impl InFlightTable {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Claims `key`: the first concurrent caller leads, the rest follow.
    pub(crate) fn claim(&self, key: u64) -> Claim<'_> {
        let mut slots = self.slots.lock().expect("inflight table poisoned");
        if let Some(slot) = slots.get(&key) {
            return Claim::Follower(Follower {
                slot: Arc::clone(slot),
            });
        }
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            done: Condvar::new(),
        });
        slots.insert(key, Arc::clone(&slot));
        drop(slots);
        Claim::Leader(LeaderGuard {
            table: self,
            key,
            slot,
            published: false,
        })
    }
}

/// The leader's obligation to publish. Dropping without calling
/// [`publish`](Self::publish) — a panicking simulation — publishes
/// `None`, so followers are never stranded.
pub(crate) struct LeaderGuard<'t> {
    table: &'t InFlightTable,
    key: u64,
    slot: Arc<Slot>,
    published: bool,
}

impl LeaderGuard<'_> {
    /// Publishes the run's outcome (`None` = failed) and releases the
    /// key for future claims.
    pub(crate) fn publish(mut self, result: Option<SimReport>) {
        self.finish(result);
    }

    fn finish(&mut self, result: Option<SimReport>) {
        if self.published {
            return;
        }
        self.published = true;
        // Release the key *before* waking followers: a retrying
        // follower that lost the race to the cache store must find the
        // key free and lead its own attempt, not re-follow a dead slot.
        self.table
            .slots
            .lock()
            .expect("inflight table poisoned")
            .remove(&self.key);
        *self.slot.result.lock().expect("inflight slot poisoned") = Some(result);
        self.slot.done.notify_all();
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        self.finish(None);
    }
}

impl std::fmt::Debug for LeaderGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaderGuard")
            .field("key", &self.key)
            .field("published", &self.published)
            .finish()
    }
}

/// A follower's ticket to the leader's published result.
#[derive(Debug)]
pub(crate) struct Follower {
    slot: Arc<Slot>,
}

impl Follower {
    /// Blocks until the leader publishes. `None` means the leader
    /// failed; the caller should retry from the cache/claim loop.
    pub(crate) fn wait(self) -> Option<SimReport> {
        let mut result = self.slot.result.lock().expect("inflight slot poisoned");
        loop {
            // Clone rather than take: every follower on this slot gets
            // the published outcome, not just the first one to wake.
            if let Some(outcome) = result.as_ref() {
                return outcome.clone();
            }
            result = self.slot.done.wait(result).expect("inflight slot poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_claim_leads_concurrent_claims_follow() {
        let table = InFlightTable::new();
        let Claim::Leader(guard) = table.claim(7) else {
            panic!("first claim must lead");
        };
        let Claim::Follower(follower) = table.claim(7) else {
            panic!("second claim must follow");
        };
        // Distinct keys are independent.
        assert!(matches!(table.claim(8), Claim::Leader(_)));
        guard.publish(None);
        assert!(follower.wait().is_none());
    }

    #[test]
    fn publish_releases_the_key() {
        let table = InFlightTable::new();
        let Claim::Leader(guard) = table.claim(1) else {
            panic!("lead");
        };
        guard.publish(None);
        assert!(
            matches!(table.claim(1), Claim::Leader(_)),
            "a published key is claimable again"
        );
    }

    #[test]
    fn a_dropped_guard_wakes_followers_empty_handed() {
        let table = InFlightTable::new();
        let Claim::Leader(guard) = table.claim(2) else {
            panic!("lead");
        };
        let Claim::Follower(follower) = table.claim(2) else {
            panic!("follow");
        };
        drop(guard); // leader panicked mid-simulation
        assert!(follower.wait().is_none(), "drop publishes a failure");
        assert!(matches!(table.claim(2), Claim::Leader(_)));
    }

    #[test]
    fn followers_block_until_the_leader_publishes() {
        let table = InFlightTable::new();
        let Claim::Leader(guard) = table.claim(3) else {
            panic!("lead");
        };
        std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..3)
                .map(|_| {
                    let Claim::Follower(follower) = table.claim(3) else {
                        panic!("follow");
                    };
                    scope.spawn(move || follower.wait())
                })
                .collect();
            std::thread::sleep(std::time::Duration::from_millis(10));
            guard.publish(None);
            for w in waiters {
                assert!(w.join().unwrap().is_none());
            }
        });
    }
}
