//! Deterministic regression gates on the bench harness: the committed
//! transient iteration counts, the sweep CLI's warm second pass, and
//! the sweep service's crash recovery against a real `SIGKILL`.
//!
//! Every child process and every wait has a deadline, and server
//! children are killed and reaped on drop, so a failed assertion can
//! neither leak a process nor hang the suite.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use vfc::serve::{ServeClient, WireSpec};
use vfc_bench::perf::read_bench_records;
use vfc_bench::transient::{self, GATED_GRIDS_MM};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vfc-gates-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A child process that is killed and reaped when dropped.
struct Reaped(std::process::Child);

impl Reaped {
    fn spawn(cmd: &mut Command, log: &Path) -> Self {
        let out = std::fs::File::create(log).expect("create child log");
        Self(
            cmd.stdout(out)
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawn child"),
        )
    }

    /// Waits for the child to exit, failing after `limit`.
    fn wait(&mut self, limit: Duration, what: &str) -> ExitStatus {
        let deadline = Instant::now() + limit;
        loop {
            if let Some(status) = self.0.try_wait().expect("poll child") {
                return status;
            }
            assert!(Instant::now() < deadline, "{what} ran past {limit:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn transient_iteration_counts_match_the_committed_record() {
    // Krylov iteration counts are bit-deterministic, so the committed
    // record gates them exactly on any machine. A solver change that
    // moves them must rerun `transient_bench --fine` and commit the
    // record in the same change.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_transient.json");
    let committed = read_bench_records(&path).expect("read the committed record");
    let mut mismatches = Vec::new();
    let mut compared = 0;
    for cell in GATED_GRIDS_MM {
        let mut runs = Vec::new();
        for variant in transient::variants() {
            let record = committed
                .iter()
                .find(|r| r.case == variant.case && r.grid_mm == cell && r.iters > 0)
                .unwrap_or_else(|| panic!("no committed {} record at {cell} mm", variant.case));
            let run = transient::run(cell, &variant);
            compared += 1;
            if run.iterations() != record.iters {
                mismatches.push(format!(
                    "{} at {cell} mm: measured {}, committed {}",
                    variant.case,
                    run.iterations(),
                    record.iters
                ));
            }
            runs.push(run);
        }
        // The cheap V(0,1) cycle converges to the symmetric cycle's
        // temperatures within solver tolerance — why the cycle shape
        // stays out of simulation cache keys.
        let max_dev = runs[2]
            .temps
            .iter()
            .zip(&runs[1].temps)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_dev < 1e-6,
            "{cell} mm: the cycle shape moved temperatures by {max_dev} K"
        );
    }
    assert_eq!(compared, 9);
    assert!(
        mismatches.is_empty(),
        "iteration counts differ from BENCH_transient.json:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn sweep_smoke_second_pass_is_served_from_the_cache() {
    let dir = temp_dir("sweep");
    let cache = dir.join("cache");
    for pass in ["cold", "warm"] {
        let log = dir.join(format!("{pass}.log"));
        let mut sweep = Reaped::spawn(
            Command::new(env!("CARGO_BIN_EXE_sweep"))
                .args(["--smoke", "--quiet", "--cache-dir"])
                .arg(&cache),
            &log,
        );
        let status = sweep.wait(Duration::from_secs(300), "sweep --smoke");
        assert!(status.success(), "{pass} sweep failed: {status:?}");
        if pass == "warm" {
            let out = std::fs::read_to_string(&log).expect("read sweep output");
            assert!(
                out.contains("hit_rate=100.0%"),
                "the second pass must be all cache hits:\n{out}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// --- sweep service crash recovery ---------------------------------

/// A `serve` child on `cache` that logs to `log`.
struct ServeChild {
    proc: Reaped,
    addr: String,
}

impl ServeChild {
    /// Spawns the server and waits for its listening line.
    fn spawn(cache: &Path, log: &Path, envs: &[(&str, &str)]) -> Self {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve"));
        cmd.args(["--addr", "127.0.0.1:0", "--cache-dir"])
            .arg(cache)
            .envs(envs.iter().copied());
        let mut proc = Reaped::spawn(&mut cmd, log);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let out = std::fs::read_to_string(log).unwrap_or_default();
            if let Some((_, rest)) = out.split_once("listening on ") {
                if let Some((addr, _)) = rest.split_once('\n') {
                    let addr = addr.trim().to_string();
                    return Self { proc, addr };
                }
            }
            if let Some(status) = proc.0.try_wait().expect("poll server") {
                panic!("server exited before listening: {status:?}\n{out}");
            }
            assert!(Instant::now() < deadline, "server never listened:\n{out}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn client(&self) -> ServeClient {
        ServeClient::new(self.addr.clone())
            .with_timeouts(Duration::from_secs(120), Duration::from_secs(10))
            .with_reconnects(0, Duration::from_millis(50))
    }
}

#[test]
fn killed_server_replays_only_the_unfinished_cells() {
    let dir = temp_dir("crash");
    let cache = dir.join("cache");
    // One worker runs the cells one after another, and each cell holds
    // about a second of work in the test profile, so when the second
    // `Cell` frame arrives two cells (over a second of work) remain.
    let single = ("VFC_RUNNER_THREADS", "1");
    let spec = WireSpec {
        systems: vec!["2".into()],
        coolings: vec!["air".into()],
        policies: vec!["lb".into()],
        workloads: vec!["gzip".into()],
        seeds: vec![11, 12, 13, 14],
        grid_mm: vec![1.0],
        duration_s: 180.0,
        dpm: false,
    };
    let total = spec.seeds.len();

    let mut server = ServeChild::spawn(&cache, &dir.join("first.log"), &[single]);
    let (second_cell, arrived) = mpsc::channel();
    let sweeper = {
        let (client, spec) = (server.client(), spec.clone());
        std::thread::spawn(move || {
            let mut streamed = 0;
            client.run_sweep_with(&spec, |_| {
                streamed += 1;
                if streamed == 2 {
                    let _ = second_cell.send(());
                }
            })
        })
    };
    arrived
        .recv_timeout(Duration::from_secs(300))
        .expect("two cells streamed before the deadline");
    server.proc.0.kill().expect("SIGKILL the server");
    server
        .proc
        .wait(Duration::from_secs(10), "the killed server");
    // The client's read deadline bounds this join.
    let outcome = sweeper.join().expect("sweeper thread");
    assert!(
        outcome.is_err(),
        "the killed server cannot complete the sweep"
    );

    // Completed cells are `<key:016x>.json` files (the index and the
    // journal are `.jsonl`; temp files carry other suffixes).
    let completed = std::fs::read_dir(&cache)
        .expect("read the cache dir")
        .filter(|e| {
            let name = e.as_ref().expect("dir entry").file_name();
            name.len() == 16 + 5 && name.to_string_lossy().ends_with(".json")
        })
        .count();
    assert!(completed >= 2, "streamed cells must already be on disk");
    assert!(
        completed < total,
        "the kill must land mid-sweep ({completed}/{total} cells complete)"
    );

    // The restart replays the journaled sweep and re-runs only the
    // never-completed cells, with spans telemetry on.
    let mut server = ServeChild::spawn(
        &cache,
        &dir.join("second.log"),
        &[single, ("VFC_TELEMETRY", "spans")],
    );
    let client = server.client();
    let expected = (total - completed) as u64;
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let stats = client.stats().expect("stats during replay");
        assert_eq!(stats.journal_replays, 1, "exactly one sweep replays");
        assert!(
            stats.executed <= expected,
            "replay re-ran a completed cell: executed {} > {expected}",
            stats.executed
        );
        if stats.executed == expected {
            break;
        }
        assert!(Instant::now() < deadline, "journal replay never finished");
        std::thread::sleep(Duration::from_millis(50));
    }

    // The resubmit is answered entirely from the cache.
    let resumed = client.run_sweep(&spec).expect("resumed sweep");
    assert!(
        resumed.cells.iter().all(|c| c.cached),
        "every cell must be warm after the replay"
    );
    assert_eq!(
        client.stats().expect("final stats").executed,
        expected,
        "the resubmit must not execute anything"
    );

    client.shutdown_server().expect("shutdown");
    let status = server
        .proc
        .wait(Duration::from_secs(60), "the drained server");
    assert!(status.success(), "a drained server exits 0: {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
