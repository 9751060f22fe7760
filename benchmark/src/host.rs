//! Host provenance: a fixed calibration loop, peak RSS, CPU count, and
//! the per-run watchdog.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Wall time of a fixed L1-resident integer loop, median of five, in
/// ms. Run before and after every run: a slow host shows here as well
/// as in the metrics, a regression only in the metrics.
pub fn calibrate_ms() -> f64 {
    let data: Vec<u64> = (0..2048u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
    let mut times = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = Instant::now();
        let mut acc = 0u64;
        for round in 0..2_000u64 {
            for &x in black_box(&data) {
                acc = acc.wrapping_add(x ^ round).rotate_left(3);
            }
        }
        black_box(acc);
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    crate::median(&times)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Turns a hang into a failed run: if not disarmed within the deadline
/// it prints a failing result line and exits the process.
pub struct Watchdog {
    done: mpsc::Sender<()>,
    thread: std::thread::JoinHandle<()>,
}

impl Watchdog {
    pub fn arm(deadline: Duration, work: PathBuf) -> Self {
        let (done, rx) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            if let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(deadline) {
                eprintln!("check failed: run exceeded the {deadline:?} watchdog");
                let _ = std::fs::remove_dir_all(&work);
                println!(
                    "{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}"
                );
                std::process::exit(3);
            }
        });
        Self { done, thread }
    }

    pub fn disarm(self) {
        let _ = self.done.send(());
        let _ = self.thread.join();
    }
}
