//! The batch job executor.
//!
//! Workers take jobs in input order from one shared queue: a mutex
//! around the enumerated inputs, held only for `next()`. A job is a
//! whole simulation cell (milliseconds to seconds), so one lock taken
//! once per job costs nothing next to the job itself, and an idle
//! worker always picks up the next job while others are busy. Results
//! come back in input order, one `Result` per job; a failing (or even
//! panicking) job poisons nothing but its own slot.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::RunnerError;

/// Name of the environment variable overriding the worker count.
pub const THREADS_ENV: &str = "VFC_RUNNER_THREADS";

/// A progress snapshot handed to the callback after every completed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Jobs finished so far (including failures).
    pub completed: usize,
    /// Total jobs in this batch.
    pub total: usize,
}

/// The executor. Cheap to construct; holds no threads between runs
/// (workers are scoped to one [`Executor::run`] call).
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// An executor sized to the machine: `VFC_RUNNER_THREADS` if set to
    /// a positive integer, otherwise the full
    /// `std::thread::available_parallelism` — the old harness's
    /// hard-coded `.min(4)` cap is gone.
    pub fn new() -> Self {
        Self::with_threads(default_threads())
    }

    /// An executor with an explicit worker count (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The worker count this executor will spawn.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job` over every input, returning per-job results in input
    /// order.
    pub fn run<I, T, F>(&self, inputs: Vec<I>, job: F) -> Vec<Result<T, RunnerError>>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> Result<T, RunnerError> + Sync,
    {
        self.run_with_progress(inputs, job, |_| {})
    }

    /// [`Executor::run`] with a callback invoked after every completed
    /// job (from worker threads — keep it cheap and thread-safe).
    pub(crate) fn run_with_progress<I, T, F, P>(
        &self,
        inputs: Vec<I>,
        job: F,
        progress: P,
    ) -> Vec<Result<T, RunnerError>>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> Result<T, RunnerError> + Sync,
        P: Fn(Progress) + Sync,
    {
        let total = inputs.len();
        if total == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(total);
        let queue = Mutex::new(inputs.into_iter().enumerate());
        let slots: Vec<Mutex<Option<Result<T, RunnerError>>>> =
            (0..total).map(|_| Mutex::new(None)).collect();
        let completed = AtomicUsize::new(0);
        let batch_start = std::time::Instant::now();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let queue = &queue;
                let slots = &slots;
                let job = &job;
                let progress = &progress;
                let completed = &completed;
                scope.spawn(move || loop {
                    // The guard drops at the end of this statement, so
                    // the lock is held only for `next()`. No new jobs
                    // appear mid-run: an empty queue retires the worker.
                    let Some((idx, input)) = queue.lock().expect("job queue poisoned").next()
                    else {
                        break;
                    };
                    // Queue wait: how long a job sat in the queue before
                    // a worker picked it up (batch-relative — the metric
                    // a backpressure policy watches).
                    if vfc_obs::spans_enabled() {
                        vfc_obs::record_ns(
                            "runner.queue_wait",
                            batch_start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                        );
                    }
                    let job_span = vfc_obs::span("runner.execute");
                    let result = match std::panic::catch_unwind(AssertUnwindSafe(|| job(input))) {
                        Ok(r) => r,
                        Err(payload) => Err(RunnerError::JobPanicked {
                            message: panic_message(payload.as_ref()),
                        }),
                    };
                    drop(job_span);
                    *slots[idx].lock().expect("job slot poisoned") = Some(result);
                    let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                    progress(Progress {
                        completed: done,
                        total,
                    });
                });
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("job slot poisoned")
                    .expect("every job ran exactly once before the scope joined")
            })
            .collect()
    }
}

/// A queued unit of work for the [`SubmitExecutor`].
pub type BoxJob = Box<dyn FnOnce() + Send + 'static>;

/// Why a submission was refused. Every refusal is typed and immediate —
/// the persistent executor never blocks a submitter unless it
/// explicitly asks ([`SubmitExecutor::submit_blocking`]).
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded queue is at capacity; shed load or retry later.
    QueueFull {
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// The executor is draining for shutdown and refuses new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull { capacity } => {
                write!(f, "submit queue full (capacity {capacity})")
            }
            Self::ShuttingDown => write!(f, "executor is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A **persistent** bounded-queue thread pool, the long-lived
/// counterpart of the scoped batch [`Executor`]: workers outlive any
/// one submission, jobs arrive one at a time (or in all-or-nothing
/// batches), and the queue bound is a hard backpressure edge — a full
/// queue refuses with [`SubmitError::QueueFull`] instead of growing.
///
/// The sweep service's executor: connection handlers submit cold cells,
/// get an immediate accept/refuse verdict, and stream results from the
/// jobs' own completion callbacks. [`shutdown`](Self::shutdown) drains
/// — already-accepted jobs finish, new submissions are refused — so a
/// graceful server stop never abandons work it acknowledged.
///
/// Job panics are caught and swallowed: a panicking job must not take
/// down a worker that other connections depend on — jobs that can fail
/// meaningfully report through their own channel.
#[derive(Debug)]
pub struct SubmitExecutor {
    shared: std::sync::Arc<SubmitShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

#[derive(Debug)]
struct SubmitShared {
    state: Mutex<SubmitState>,
    /// Signalled when work arrives or shutdown begins (workers wait).
    work: std::sync::Condvar,
    /// Signalled when a job is taken off the queue (blocking submitters
    /// wait).
    space: std::sync::Condvar,
    capacity: usize,
}

struct SubmitState {
    queue: VecDeque<BoxJob>,
    draining: bool,
    /// Jobs currently executing on a worker (not counted in `queue`).
    active: usize,
}

impl std::fmt::Debug for SubmitState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitState")
            .field("queued", &self.queue.len())
            .field("draining", &self.draining)
            .field("active", &self.active)
            .finish()
    }
}

impl SubmitExecutor {
    /// Spawns `threads` persistent workers (≥ 1) behind a queue bounded
    /// at `capacity` jobs (≥ 1).
    pub fn new(threads: usize, capacity: usize) -> Self {
        let shared = std::sync::Arc::new(SubmitShared {
            state: Mutex::new(SubmitState {
                queue: VecDeque::new(),
                draining: false,
                active: 0,
            }),
            work: std::sync::Condvar::new(),
            space: std::sync::Condvar::new(),
            capacity: capacity.max(1),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || Self::worker(&shared))
            })
            .collect();
        Self { shared, workers }
    }

    fn worker(shared: &SubmitShared) {
        loop {
            let job = {
                let mut state = shared.state.lock().expect("submit state poisoned");
                loop {
                    if let Some(job) = state.queue.pop_front() {
                        state.active += 1;
                        shared.space.notify_all();
                        break job;
                    }
                    // Draining + empty queue = retire. Queued jobs drain
                    // first: the pop above wins while work remains.
                    if state.draining {
                        return;
                    }
                    state = shared.work.wait(state).expect("submit state poisoned");
                }
            };
            // A panicking job is its own problem; the worker survives.
            let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
            shared.state.lock().expect("submit state poisoned").active -= 1;
            shared.space.notify_all();
        }
    }

    /// Jobs queued but not yet picked up by a worker.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("submit state poisoned")
            .queue
            .len()
    }

    /// Submits one job, refusing immediately when the queue is full or
    /// the executor is draining.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] or [`SubmitError::ShuttingDown`].
    #[cfg(test)]
    pub(crate) fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        self.submit_batch(vec![Box::new(job)])
    }

    /// Submits a batch **all-or-nothing**: either every job is enqueued
    /// (in order, atomically — no interleaving with other batches) or
    /// none is. The atomicity is what makes `Busy` shedding honest: a
    /// sweep is either fully accepted or fully refused, never half-run.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] if the whole batch does not fit in
    /// the remaining queue space; [`SubmitError::ShuttingDown`] while
    /// draining. An empty batch always succeeds.
    pub fn submit_batch(&self, jobs: Vec<BoxJob>) -> Result<(), SubmitError> {
        let mut state = self.shared.state.lock().expect("submit state poisoned");
        if state.draining {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queue.len() + jobs.len() > self.shared.capacity {
            return Err(SubmitError::QueueFull {
                capacity: self.shared.capacity,
            });
        }
        state.queue.extend(jobs);
        drop(state);
        self.shared.work.notify_all();
        Ok(())
    }

    /// Submits one job, **waiting** for queue space instead of refusing
    /// — the journal-replay path, where work must not be shed and the
    /// submitter (server startup) has nothing better to do.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShuttingDown`] if the executor drains while
    /// waiting.
    pub fn submit_blocking(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let mut state = self.shared.state.lock().expect("submit state poisoned");
        loop {
            if state.draining {
                return Err(SubmitError::ShuttingDown);
            }
            if state.queue.len() < self.shared.capacity {
                state.queue.push_back(Box::new(job));
                drop(state);
                self.shared.work.notify_all();
                return Ok(());
            }
            state = self
                .shared
                .space
                .wait(state)
                .expect("submit state poisoned");
        }
    }

    /// Blocks until the queue is empty and no job is executing. Pair
    /// with the completion signals of the jobs themselves where exact
    /// sequencing matters; this is the coarse "nothing in flight" gate.
    #[cfg(test)]
    pub(crate) fn wait_idle(&self) {
        let state = self.shared.state.lock().expect("submit state poisoned");
        drop(
            self.shared
                .space
                .wait_while(state, |s| !s.queue.is_empty() || s.active > 0)
                .expect("submit state poisoned"),
        );
    }

    /// Graceful shutdown: refuses new submissions, **drains** the
    /// already-accepted queue, then joins the workers. Dropping the
    /// executor does exactly this; the method names the stop at the
    /// call site.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for SubmitExecutor {
    fn drop(&mut self) {
        // Drain and join: detached workers outliving the executor
        // would race teardown.
        {
            let mut state = self.shared.state.lock().expect("submit state poisoned");
            state.draining = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn default_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn results_preserve_input_order() {
        let ex = Executor::with_threads(3);
        let out = ex.run((0..64).collect(), |i: i32| Ok(i * 2));
        let values: Vec<i32> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(values, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn errors_stay_in_their_slot() {
        let ex = Executor::with_threads(2);
        let out = ex.run((0..8).collect(), |i: usize| {
            if i % 3 == 0 {
                Err(RunnerError::JobPanicked {
                    message: format!("job {i}"),
                })
            } else {
                Ok(i)
            }
        });
        for (i, r) in out.iter().enumerate() {
            if i % 3 == 0 {
                assert!(
                    matches!(r, Err(RunnerError::JobPanicked { message }) if message == &format!("job {i}"))
                );
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn panicking_jobs_become_errors_not_process_aborts() {
        let ex = Executor::with_threads(2);
        let out = ex.run(vec![1, 2, 3], |i: i32| {
            if i == 2 {
                panic!("boom {i}");
            }
            Ok(i)
        });
        assert_eq!(*out[0].as_ref().unwrap(), 1);
        assert!(
            matches!(&out[1], Err(RunnerError::JobPanicked { message }) if message.contains("boom"))
        );
        assert_eq!(*out[2].as_ref().unwrap(), 3);
    }

    #[test]
    fn an_idle_worker_runs_the_next_job_while_another_is_busy() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Job 0 refuses to finish until job 1 has run, so job 1 must run
        // on a second worker while the first is busy — the batch
        // finishing without the timeout proves it, without racing
        // wall-clock sleeps against thread-spawn order.
        let second_ran = AtomicBool::new(false);
        let ex = Executor::with_threads(2);
        let out = ex.run((0..4).collect(), |i: usize| {
            match i {
                0 => {
                    let start = std::time::Instant::now();
                    while !second_ran.load(Ordering::Acquire) {
                        if start.elapsed() > Duration::from_secs(30) {
                            return Err(RunnerError::JobPanicked {
                                message: "job 1 never ran while job 0 waited".into(),
                            });
                        }
                        std::thread::yield_now();
                    }
                }
                1 => second_ran.store(true, Ordering::Release),
                _ => {}
            }
            Ok(i)
        });
        for r in &out {
            assert!(r.is_ok(), "{r:?}");
        }
    }

    #[test]
    fn progress_reports_every_completion() {
        let ex = Executor::with_threads(2);
        let seen = Mutex::new(Vec::new());
        let out = ex.run_with_progress(
            (0..10).collect(),
            |i: usize| Ok(i),
            |p| seen.lock().unwrap().push(p),
        );
        assert_eq!(out.len(), 10);
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|p| p.completed);
        assert_eq!(seen.len(), 10);
        assert_eq!(
            seen[9],
            Progress {
                completed: 10,
                total: 10
            }
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let ex = Executor::new();
        let out: Vec<Result<(), _>> = ex.run(Vec::<u32>::new(), |_| Ok(()));
        assert!(out.is_empty());
    }

    mod submit {
        use super::super::*;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Condvar, Mutex};
        use std::time::Duration;

        /// Parks the calling job until `gate` opens.
        fn wait_open(gate: &(Mutex<bool>, Condvar)) {
            let (lock, cv) = gate;
            drop(cv.wait_while(lock.lock().unwrap(), |open| !*open).unwrap());
        }

        #[test]
        fn submitted_jobs_run_and_shutdown_drains() {
            let ran = Arc::new(AtomicUsize::new(0));
            let ex = SubmitExecutor::new(2, 64);
            for _ in 0..10 {
                let ran = Arc::clone(&ran);
                ex.submit(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
            }
            ex.shutdown();
            assert_eq!(
                ran.load(Ordering::Relaxed),
                10,
                "shutdown must drain accepted work, not abandon it"
            );
        }

        #[test]
        fn full_queue_refuses_with_typed_error() {
            // One worker parked on a gate keeps the queue from draining.
            let gate = Arc::new((Mutex::new(false), Condvar::new()));
            let ex = SubmitExecutor::new(1, 2);
            let parked = Arc::clone(&gate);
            ex.submit(move || wait_open(&parked)).unwrap();
            // Wait until the worker holds the gate job (queue empty).
            while ex.queued() > 0 {
                std::thread::yield_now();
            }
            ex.submit(|| {}).unwrap();
            ex.submit(|| {}).unwrap();
            assert!(
                matches!(
                    ex.submit(|| {}),
                    Err(SubmitError::QueueFull { capacity: 2 })
                ),
                "the bound must refuse, not grow"
            );
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
            ex.shutdown();
        }

        #[test]
        fn batches_are_all_or_nothing() {
            let gate = Arc::new((Mutex::new(false), Condvar::new()));
            let ran = Arc::new(AtomicUsize::new(0));
            let ex = SubmitExecutor::new(1, 3);
            let parked = Arc::clone(&gate);
            ex.submit(move || wait_open(&parked)).unwrap();
            while ex.queued() > 0 {
                std::thread::yield_now();
            }
            ex.submit(|| {}).unwrap(); // queue: 1 of 3
            let batch: Vec<BoxJob> = (0..3)
                .map(|_| {
                    let ran = Arc::clone(&ran);
                    Box::new(move || {
                        ran.fetch_add(1, Ordering::Relaxed);
                    }) as BoxJob
                })
                .collect();
            assert!(
                matches!(ex.submit_batch(batch), Err(SubmitError::QueueFull { .. })),
                "a batch that does not fully fit must be fully refused"
            );
            assert_eq!(ex.queued(), 1, "no partial enqueue");
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
            ex.shutdown();
            assert_eq!(ran.load(Ordering::Relaxed), 0, "refused jobs never ran");
        }

        #[test]
        fn draining_executor_refuses_new_work() {
            let ex = SubmitExecutor::new(1, 4);
            let shared = Arc::clone(&ex.shared);
            ex.shutdown();
            // Post-shutdown state is observable through the shared
            // handle: draining, empty, idle.
            let (draining, empty, active) = {
                let state = shared.state.lock().unwrap();
                (state.draining, state.queue.is_empty(), state.active)
            };
            assert!(draining);
            assert!(empty);
            assert_eq!(active, 0);
        }

        #[test]
        fn panicking_jobs_do_not_kill_workers() {
            let ran = Arc::new(AtomicUsize::new(0));
            let ex = SubmitExecutor::new(1, 8);
            ex.submit(|| panic!("boom")).unwrap();
            let after = Arc::clone(&ran);
            ex.submit(move || {
                after.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            ex.wait_idle();
            assert_eq!(
                ran.load(Ordering::Relaxed),
                1,
                "the single worker must survive the panic and run on"
            );
            ex.shutdown();
        }

        #[test]
        fn submit_blocking_waits_for_space() {
            let ex = Arc::new(SubmitExecutor::new(1, 1));
            let gate = Arc::new((Mutex::new(false), Condvar::new()));
            let parked = Arc::clone(&gate);
            ex.submit(move || wait_open(&parked)).unwrap();
            while ex.queued() > 0 {
                std::thread::yield_now();
            }
            ex.submit(|| {}).unwrap(); // queue now full
            let ran = Arc::new(AtomicUsize::new(0));
            let blocker = {
                let ex = Arc::clone(&ex);
                let ran = Arc::clone(&ran);
                std::thread::spawn(move || {
                    ex.submit_blocking(move || {
                        ran.fetch_add(1, Ordering::Relaxed);
                    })
                })
            };
            // The blocking submit cannot land until the gate opens.
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(ran.load(Ordering::Relaxed), 0);
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
            blocker.join().unwrap().unwrap();
            ex.wait_idle();
            assert_eq!(ran.load(Ordering::Relaxed), 1);
        }
    }
}
