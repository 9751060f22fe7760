//! Stress test for the work-stealing batch executor.
//!
//! A worker that runs dry locks its neighbours' deques to steal. If it
//! still held its own deque's lock at that point, two workers running
//! dry at the same moment would each wait for the other forever. One
//! batch rarely hits that window, so this runs thousands of small
//! batches across worker counts. The batches run on a spawned thread and
//! the test fails after a deadline instead of hanging the suite.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use vfc_runner::Executor;

#[test]
fn small_batches_never_deadlock() {
    let (done, finished) = mpsc::channel();
    let batches = std::thread::spawn(move || {
        for round in 0..2_000usize {
            let threads = 2 + round % 3;
            let inputs: Vec<usize> = (0..2 * threads).collect();
            let results = Executor::with_threads(threads).run(inputs, |i| Ok(i * 3));
            for (i, r) in results.into_iter().enumerate() {
                assert_eq!(r.ok(), Some(i * 3), "round {round}: slot {i}");
            }
        }
        done.send(()).expect("the test thread is waiting");
    });
    match finished.recv_timeout(Duration::from_secs(20)) {
        // A deadlocked thread cannot be joined; it is left behind.
        Err(RecvTimeoutError::Timeout) => panic!("executor deadlocked"),
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = batches.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}
