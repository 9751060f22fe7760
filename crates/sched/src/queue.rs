//! A per-core dispatch queue with SMT hardware contexts.
//!
//! The UltraSPARC T1 core is 4-way fine-grained multithreaded: up to four
//! hardware contexts execute concurrently, and Table II's utilization is
//! measured per hardware thread. A queue therefore runs up to
//! [`CoreQueue::contexts`] threads at once; the balancers operate on the
//! total load (running + waiting).

use std::collections::VecDeque;

use vfc_units::Seconds;
use vfc_workload::ThreadSpec;

/// Default hardware contexts per core (UltraSPARC T1: 4).
pub const DEFAULT_CONTEXTS: usize = 4;

/// One core's dispatch queue: up to `contexts` running threads plus FIFO
/// waiters (the multi-queue structure of modern OSes, paper Sec. V).
#[derive(Debug, Clone)]
pub struct CoreQueue {
    running: Vec<ThreadSpec>,
    waiting: VecDeque<ThreadSpec>,
    contexts: usize,
}

impl CoreQueue {
    /// Creates an empty queue with the T1's four hardware contexts.
    pub fn new() -> Self {
        Self::with_contexts(DEFAULT_CONTEXTS)
    }

    /// Creates an empty queue with a custom context count.
    ///
    /// # Panics
    ///
    /// Panics if `contexts == 0`.
    pub(crate) fn with_contexts(contexts: usize) -> Self {
        assert!(contexts > 0, "a core needs at least one context");
        Self {
            running: Vec::with_capacity(contexts),
            waiting: VecDeque::new(),
            contexts,
        }
    }

    /// Hardware contexts on this core.
    pub fn contexts(&self) -> usize {
        self.contexts
    }

    /// Number of waiting threads (the paper's `l_queue`).
    #[cfg(test)]
    pub(crate) fn queue_length(&self) -> usize {
        self.waiting.len()
    }

    /// Waiting plus running — the load figure the balancers equalize.
    pub fn load(&self) -> usize {
        self.waiting.len() + self.running.len()
    }

    /// Number of busy hardware contexts.
    #[cfg(test)]
    pub(crate) fn busy_contexts(&self) -> usize {
        self.running.len()
    }

    /// Whether any context is executing.
    #[cfg(test)]
    pub(crate) fn is_busy(&self) -> bool {
        !self.running.is_empty()
    }

    /// Enqueues a thread at the tail.
    pub(crate) fn push(&mut self, thread: ThreadSpec) {
        self.waiting.push_back(thread);
    }

    /// Executes for `dt`: tops contexts up from the queue head, runs every
    /// busy context concurrently, and returns the threads completed within
    /// the interval. Returns the context-seconds of execution consumed
    /// alongside (for utilization accounting).
    pub fn tick(&mut self, dt: Seconds) -> Vec<ThreadSpec> {
        self.dispatch();
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.running.len() {
            self.running[i].run(dt);
            if self.running[i].is_complete() {
                done.push(self.running.swap_remove(i));
            } else {
                i += 1;
            }
        }
        // Contexts freed mid-tick pick up new work next tick (1 ms grain,
        // threads are ≥5 ms; the error is negligible).
        self.dispatch();
        done
    }

    fn dispatch(&mut self) {
        while self.running.len() < self.contexts {
            match self.waiting.pop_front() {
                Some(t) => self.running.push(t),
                None => break,
            }
        }
    }

    /// Removes the most recently queued waiter (cheapest to steal).
    pub(crate) fn steal_waiting(&mut self) -> Option<ThreadSpec> {
        self.waiting.pop_back()
    }

    /// Pulls one running thread off the core (reactive migration's move).
    pub(crate) fn take_running(&mut self) -> Option<ThreadSpec> {
        self.running.pop()
    }

    /// The total remaining work in this queue (running + waiting).
    #[cfg(test)]
    pub(crate) fn backlog(&self) -> Seconds {
        let mut s: f64 = self.running.iter().map(|t| t.remaining().value()).sum();
        s += self
            .waiting
            .iter()
            .map(|t| t.remaining().value())
            .sum::<f64>();
        Seconds::new(s)
    }
}

impl Default for CoreQueue {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread(id: u64, ms: f64) -> ThreadSpec {
        ThreadSpec::new(id, Seconds::from_millis(ms))
    }

    #[test]
    fn contexts_run_concurrently() {
        let mut q = CoreQueue::new();
        for i in 0..4 {
            q.push(thread(i, 2.0));
        }
        assert_eq!(q.load(), 4);
        // One 2 ms tick completes all four: they share no pipeline in the
        // model, each context advances at full rate.
        let done = q.tick(Seconds::from_millis(2.0));
        assert_eq!(done.len(), 4);
        assert_eq!(q.busy_contexts(), 0);
    }

    #[test]
    fn fifth_thread_waits_for_a_context() {
        let mut q = CoreQueue::new();
        for i in 0..5 {
            q.push(thread(i, 10.0));
        }
        q.tick(Seconds::from_millis(1.0));
        assert_eq!(q.busy_contexts(), 4);
        assert_eq!(q.queue_length(), 1);
        // After the four finish, the fifth dispatches.
        q.tick(Seconds::from_millis(9.0));
        assert_eq!(q.busy_contexts(), 1);
        assert_eq!(q.queue_length(), 0);
    }

    #[test]
    fn single_context_behaves_like_fifo() {
        let mut q = CoreQueue::with_contexts(1);
        q.push(thread(1, 2.0));
        q.push(thread(2, 3.0));
        assert!(q.tick(Seconds::from_millis(1.0)).is_empty());
        assert_eq!(q.busy_contexts(), 1);
        let done = q.tick(Seconds::from_millis(1.0));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id(), 1);
        // Thread 2 dispatched after 1 completed.
        let done = q.tick(Seconds::from_millis(3.0));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id(), 2);
    }

    #[test]
    fn stealing_and_migration_hooks() {
        let mut q = CoreQueue::new();
        for i in 0..6 {
            q.push(thread(i, 10.0));
        }
        q.tick(Seconds::from_millis(1.0));
        assert_eq!(q.busy_contexts(), 4);
        let stolen = q.steal_waiting().unwrap();
        assert_eq!(stolen.id(), 5);
        let running = q.take_running().unwrap();
        assert!(running.id() < 4);
        assert_eq!(q.load(), 4);
    }

    #[test]
    fn backlog_accounts_all_remaining_work() {
        let mut q = CoreQueue::new();
        q.push(thread(1, 10.0));
        q.push(thread(2, 20.0));
        q.tick(Seconds::from_millis(5.0));
        // Both ran concurrently for 5 ms: 5 + 15 left.
        assert!((q.backlog().to_millis() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn empty_queue_tick_is_noop() {
        let mut q = CoreQueue::new();
        assert!(q.tick(Seconds::from_millis(10.0)).is_empty());
        assert_eq!(q.backlog(), Seconds::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one context")]
    fn zero_contexts_rejected() {
        let _ = CoreQueue::with_contexts(0);
    }
}
