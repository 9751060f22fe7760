//! A warm resubmit reads each cell from the cache once: the service
//! sorts warm cells from cold ones with one `ResultCache::get` per cell
//! and streams the report that read returned. A cold cell counts one
//! miss, in the claim that simulates it; the partition's read counts
//! none. One `#[test]` in a binary of its own: `runner.cache.hits` and
//! `runner.cache.misses` are process-wide counters, so any other test
//! in the same process could add to them.

use std::time::Duration;

use vfc_obs::TelemetryLevel;
use vfc_serve::{ServeClient, ServeConfig, Server, WireSpec};

#[test]
fn warm_resubmit_reads_each_cell_from_the_cache_once() {
    vfc_obs::set_level(TelemetryLevel::Counters);
    let dir = std::env::temp_dir().join(format!("vfc-warm-hits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServeConfig::from_env();
    cfg.addr = "127.0.0.1:0".into();
    cfg.threads = 1;
    cfg.cache_dir = Some(dir.clone());
    let server = Server::start(cfg).unwrap();
    let client = ServeClient::new(server.addr().to_string())
        .with_timeouts(Duration::from_millis(60_000), Duration::from_millis(5_000));
    // Two air-cooled 2 mm cells, short enough to simulate in a blink.
    let spec = WireSpec {
        systems: vec!["2".into()],
        coolings: vec!["air".into()],
        policies: vec!["lb".into()],
        workloads: vec!["gzip".into()],
        seeds: vec![21, 22],
        grid_mm: vec![2.0],
        duration_s: 0.5,
        dpm: false,
    };
    let counter = |name: &str| vfc_obs::snapshot().counter(name).unwrap_or(0);
    let hits = || counter("runner.cache.hits");
    let misses = || counter("runner.cache.misses");

    let before = misses();
    let cold = client.run_sweep(&spec).expect("cold sweep completes");
    assert!(
        cold.cells.iter().all(|c| !c.cached),
        "a fresh cache is cold"
    );
    assert_eq!(misses() - before, 2, "one cache miss per cold cell");
    let before = hits();
    let warm = client.run_sweep(&spec).expect("warm sweep completes");
    assert_eq!(warm.cells.len(), 2);
    assert!(warm.cells.iter().all(|c| c.cached), "every cell is warm");
    assert_eq!(hits() - before, 2, "one cache read per warm cell");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
