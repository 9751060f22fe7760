//! Stress tests for the runner's concurrent parts: the single-queue
//! batch executor, the persistent submit executor and the result
//! cache's claims, through which racing callers of one cell share a
//! single simulation or disk read.
//!
//! Each race is rare in one run, so every test loops many rounds. The
//! loops run on a spawned thread and the test fails after a deadline
//! instead of hanging the suite.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use vfc_runner::{Executor, ResultCache, RunSource, SubmitExecutor, SweepRunner};
use vfc_sim::{CoolingKind, PolicyKind, SimConfig, SimReport, SystemKind};
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
    // Workers run dry at the same moment at the end of every batch; each
    // must find the queue empty and retire.
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

/// A 1 s, 2 mm cell; `seed` makes it distinct.
fn cell(seed: u64) -> SimConfig {
    SimConfig::new(
        SystemKind::TwoLayer,
        CoolingKind::LiquidMax,
        PolicyKind::LoadBalancing,
        Benchmark::by_name("gzip").expect("table II"),
    )
    .with_duration(Seconds::new(1.0))
    .with_grid_cell(Length::from_millimeters(2.0))
    .with_seed(seed)
}

/// Four callers racing `run_shared` on `cfg`.
fn race(runner: &SweepRunner, cfg: &SimConfig) -> Vec<(SimReport, RunSource)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| runner.run_shared(cfg.clone()).expect("cell runs")))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller"))
            .collect()
    })
}

#[test]
fn racing_callers_share_one_run_per_cell() {
    // Four callers race `run_shared` on one fresh cell per round:
    // exactly one leads and simulates; the others wait for its report
    // or, arriving after it was stored, hit the cache — and every
    // caller gets the same report. Odd rounds run on a fresh disk
    // directory, so the lead's disk read races too. A last round races
    // four callers of a new runner on a key only the disk holds:
    // nothing may simulate.
    within_deadline("racing callers stranded", || {
        let dir = std::env::temp_dir().join(format!("vfc-stress-claims-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runners = [
            SweepRunner::with_parts(Executor::with_threads(1), ResultCache::in_memory()),
            SweepRunner::with_parts(Executor::with_threads(1), ResultCache::on_disk(&dir)),
        ];
        for round in 0..100u64 {
            let outcomes = race(&runners[(round % 2) as usize], &cell(round));
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
        for runner in &runners {
            assert_eq!(runner.stats().executed, 50, "one simulation per round");
        }

        let stored = runners[1].cache().get(cell(1).cache_key());
        let warm = SweepRunner::with_parts(Executor::with_threads(1), ResultCache::on_disk(&dir));
        for (report, source) in race(&warm, &cell(1)) {
            assert_eq!(Some(report), stored, "{source:?} caller got another report");
        }
        assert_eq!(warm.stats().executed, 0, "a disk-warm key never simulates");
        std::fs::remove_dir_all(&dir).expect("the disk rounds' directory");
    });
}
