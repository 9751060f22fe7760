//! Stress tests for the runner's concurrent parts: the work-stealing
//! batch executor, the persistent submit executor and the in-flight
//! table's leader/follower hand-off.
//!
//! Each race is rare in one run, so every test loops many rounds. The
//! loops run on a spawned thread and the test fails after a deadline
//! instead of hanging the suite.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use vfc_runner::{Executor, ResultCache, RunSource, SubmitExecutor, SweepRunner};
use vfc_sim::{CoolingKind, PolicyKind, SimConfig, SystemKind};
use vfc_units::{Length, Seconds};
use vfc_workload::Benchmark;

/// Runs `rounds` on a spawned thread and fails with `what` unless it
/// finishes within 20 s. A deadlocked thread cannot be joined; it is
/// left behind.
fn within_deadline(what: &str, rounds: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        rounds();
        done.send(()).expect("the test thread is waiting");
    });
    match finished.recv_timeout(Duration::from_secs(20)) {
        Err(RecvTimeoutError::Timeout) => panic!("{what}"),
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

#[test]
fn small_batches_never_deadlock() {
    // A worker that runs dry locks its neighbours' deques to steal. If
    // it still held its own deque's lock at that point, two workers
    // running dry at the same moment would each wait for the other
    // forever.
    within_deadline("executor deadlocked", || {
        for round in 0..2_000usize {
            let threads = 2 + round % 3;
            let inputs: Vec<usize> = (0..2 * threads).collect();
            let results = Executor::with_threads(threads).run(inputs, |i| Ok(i * 3));
            for (i, r) in results.into_iter().enumerate() {
                assert_eq!(r.ok(), Some(i * 3), "round {round}: slot {i}");
            }
        }
    });
}

#[test]
fn racing_submitters_run_every_accepted_job_once() {
    // Submitters race all-or-nothing batches and blocking submits into
    // a small bounded queue; then `shutdown` drains it. Every accepted
    // job must run exactly once and every refused one never.
    const SUBMITTERS: usize = 3;
    const JOBS_PER_SUBMITTER: usize = 24;
    within_deadline("submit executor deadlocked", || {
        for round in 0..1_000usize {
            let exec = SubmitExecutor::new(2 + round % 3, 1 + round % 4);
            let runs: std::sync::Arc<Vec<AtomicU32>> = std::sync::Arc::new(
                (0..SUBMITTERS * JOBS_PER_SUBMITTER)
                    .map(|_| AtomicU32::new(0))
                    .collect(),
            );
            let job = |id: usize| {
                let runs = std::sync::Arc::clone(&runs);
                move || {
                    runs[id].fetch_add(1, Ordering::Relaxed);
                }
            };
            let accepted: Vec<bool> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..SUBMITTERS)
                    .map(|s| {
                        let (exec, job) = (&exec, &job);
                        scope.spawn(move || {
                            let base = s * JOBS_PER_SUBMITTER;
                            let mut accepted = vec![false; JOBS_PER_SUBMITTER];
                            let mut i = 0;
                            while i < JOBS_PER_SUBMITTER {
                                if (s + i + round) % 2 == 0 {
                                    exec.submit_blocking(job(base + i))
                                        .expect("not draining yet");
                                    accepted[i] = true;
                                    i += 1;
                                } else {
                                    let len = (1 + (i + round) % 3).min(JOBS_PER_SUBMITTER - i);
                                    let batch: Vec<vfc_runner::BoxJob> = (i..i + len)
                                        .map(|k| Box::new(job(base + k)) as vfc_runner::BoxJob)
                                        .collect();
                                    let ok = exec.submit_batch(batch).is_ok();
                                    accepted[i..i + len].fill(ok);
                                    i += len;
                                }
                            }
                            accepted
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("submitter"))
                    .collect()
            });
            exec.shutdown();
            for (id, (ran, accepted)) in runs.iter().zip(accepted).enumerate() {
                assert_eq!(
                    ran.load(Ordering::Relaxed),
                    u32::from(accepted),
                    "round {round}: job {id} (accepted: {accepted})"
                );
            }
        }
    });
}

#[test]
fn inflight_followers_always_wake_with_the_leaders_report() {
    // Four callers race `run_shared` on one fresh cell per round:
    // exactly one leads and simulates; the others join the in-flight
    // run or, arriving after it published, hit the cache — and every
    // caller gets the same report.
    within_deadline("in-flight followers stranded", || {
        let runner = SweepRunner::with_parts(Executor::with_threads(1), ResultCache::in_memory());
        for round in 0..100u64 {
            let cfg = SimConfig::new(
                SystemKind::TwoLayer,
                CoolingKind::LiquidMax,
                PolicyKind::LoadBalancing,
                Benchmark::by_name("gzip").expect("table II"),
            )
            .with_duration(Seconds::new(1.0))
            .with_grid_cell(Length::from_millimeters(2.0))
            .with_seed(round);
            let outcomes: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let (runner, cfg) = (&runner, cfg.clone());
                        scope.spawn(move || runner.run_shared(cfg).expect("cell runs"))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("caller"))
                    .collect()
            });
            let leaders = outcomes
                .iter()
                .filter(|(_, source)| *source == RunSource::Executed)
                .count();
            assert_eq!(leaders, 1, "round {round}: exactly one caller simulates");
            for (report, source) in &outcomes {
                assert_eq!(
                    report, &outcomes[0].0,
                    "round {round}: {source:?} caller got another report"
                );
            }
        }
        assert_eq!(runner.stats().executed, 100, "one simulation per round");
    });
}
