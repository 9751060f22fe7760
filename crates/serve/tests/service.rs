//! End-to-end service tests over real TCP: cold/warm sweeps, two-client
//! in-flight dedup, backpressure shedding, deadline discipline and
//! graceful shutdown, including a drain raced by concurrent submits.

use std::collections::HashSet;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use vfc_serve::protocol::{read_response, write_request};
use vfc_serve::{
    BusyReason, ClientError, Journal, Request, Response, ServeClient, ServeConfig, Server, WireSpec,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vfc-service-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small, fast spec: one air-cooled cell per seed (no pump controller
/// work), short duration.
fn tiny_spec(seeds: &[u64], duration_s: f64) -> WireSpec {
    WireSpec {
        systems: vec!["2".into()],
        coolings: vec!["air".into()],
        policies: vec!["lb".into()],
        workloads: vec!["gzip".into()],
        seeds: seeds.to_vec(),
        grid_mm: vec![2.0],
        duration_s,
        dpm: false,
    }
}

fn test_config(tag: &str) -> ServeConfig {
    let mut cfg = ServeConfig::from_env();
    cfg.addr = "127.0.0.1:0".into();
    cfg.threads = 2;
    cfg.queue_capacity = 64;
    cfg.max_connections = 8;
    cfg.max_cells = 256;
    cfg.read_timeout = Duration::from_millis(10_000);
    cfg.write_timeout = Duration::from_millis(5_000);
    cfg.cache_dir = Some(temp_dir(tag));
    cfg
}

fn client(server: &Server) -> ServeClient {
    ServeClient::new(server.addr().to_string())
        .with_timeouts(Duration::from_millis(60_000), Duration::from_millis(5_000))
        .with_reconnects(2, Duration::from_millis(50))
}

#[test]
fn ping_and_stats_round_trip() {
    let cfg = test_config("ping");
    let dir = cfg.cache_dir.clone().unwrap();
    let server = Server::start(cfg).unwrap();
    let client = client(&server);
    client.ping().expect("ping answers");
    let stats = client.stats().expect("stats answers");
    assert_eq!(stats.journal_replays, 0, "fresh server replays nothing");
    // ping + stats dialed twice.
    assert!(stats.connections >= 2);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_sweep_then_warm_resubmit_matches_local_run() {
    let cfg = test_config("warmcold");
    let dir = cfg.cache_dir.clone().unwrap();
    let server = Server::start(cfg).unwrap();
    let client = client(&server);
    let spec = tiny_spec(&[11, 12], 0.5);

    let cold = client.run_sweep(&spec).expect("cold sweep completes");
    assert_eq!(cold.cells.len(), 2);
    assert_eq!(cold.reconnects, 0);
    let executed_after_cold = client.stats().unwrap().executed;
    assert_eq!(executed_after_cold, 2, "both cold cells simulate");

    // Resubmit: answered from cache without touching the executor.
    let warm = client.run_sweep(&spec).expect("warm sweep completes");
    assert!(
        warm.cells.iter().all(|c| c.cached),
        "every resubmitted cell is a warm hit"
    );
    assert_eq!(
        client.stats().unwrap().executed,
        executed_after_cold,
        "warm hits never re-execute"
    );
    assert_eq!(warm.keys, cold.keys, "key order is deterministic");

    // The served results are byte-identical to a local SweepRunner run
    // of the same spec (shared expansion code path, shared cache
    // encoding).
    let local = vfc_runner::SweepRunner::new()
        .run_spec(&spec.to_sweep_spec().unwrap())
        .expect("local run succeeds");
    let served = warm.reports().expect("no failed cells");
    assert_eq!(local.len(), served.len());
    for (ours, theirs) in served.iter().zip(local.iter()) {
        assert_eq!(
            vfc_runner::json::JsonCodec::to_json(ours).encode(),
            vfc_runner::json::JsonCodec::to_json(theirs).encode(),
            "served report must be byte-identical to the local run"
        );
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_clients_share_one_execution_of_the_same_cell() {
    let cfg = test_config("dedup");
    let dir = cfg.cache_dir.clone().unwrap();
    let server = Server::start(cfg).unwrap();
    let spec = tiny_spec(&[99], 10.0);

    let addr = server.addr().to_string();
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                let spec = spec.clone();
                scope.spawn(move || {
                    ServeClient::new(addr)
                        .with_timeouts(Duration::from_millis(120_000), Duration::from_millis(5_000))
                        .run_sweep(&spec)
                        .expect("concurrent sweep completes")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = server.stats();
    assert_eq!(
        stats.executed, 1,
        "the shared cell must simulate exactly once \
         (dedup_joins {} cache_hits {})",
        stats.dedup_joins, stats.cache_hits
    );
    // Whichever path the second client took (in-flight join or warm
    // cache), both clients hold byte-identical results.
    let a = outcomes[0].reports().unwrap();
    let b = outcomes[1].reports().unwrap();
    assert_eq!(
        vfc_runner::json::JsonCodec::to_json(&a[0]).encode(),
        vfc_runner::json::JsonCodec::to_json(&b[0]).encode()
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_sheds_with_typed_busy_and_enqueues_nothing() {
    let mut cfg = test_config("shed");
    cfg.queue_capacity = 1;
    let dir = cfg.cache_dir.clone().unwrap();
    let server = Server::start(cfg).unwrap();
    let client = client(&server);

    // Four cold cells against a one-slot queue: all-or-nothing refusal.
    let spec = tiny_spec(&[1, 2, 3, 4], 0.5);
    match client.run_sweep(&spec) {
        Err(ClientError::Busy { reason, .. }) => assert_eq!(reason, BusyReason::Queue),
        other => panic!("expected Busy(Queue), got {other:?}"),
    }
    let stats = server.stats();
    assert!(stats.sheds >= 1, "the shed is counted");
    assert_eq!(stats.executed, 0, "Busy means nothing was enqueued");

    // A sweep that fits still goes through afterwards.
    let ok = client.run_sweep(&tiny_spec(&[1], 0.5)).unwrap();
    assert_eq!(ok.cells.len(), 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_specs_shed_with_spec_too_large() {
    let mut cfg = test_config("toolarge");
    cfg.max_cells = 1;
    let dir = cfg.cache_dir.clone().unwrap();
    let server = Server::start(cfg).unwrap();
    match client(&server).run_sweep(&tiny_spec(&[1, 2], 0.5)) {
        Err(ClientError::Busy { reason, .. }) => assert_eq!(reason, BusyReason::SpecTooLarge),
        other => panic!("expected Busy(SpecTooLarge), got {other:?}"),
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_specs_get_a_request_level_error() {
    let cfg = test_config("badspec");
    let dir = cfg.cache_dir.clone().unwrap();
    let server = Server::start(cfg).unwrap();
    let mut spec = tiny_spec(&[1], 0.5);
    spec.workloads = vec!["quake".into()];
    match client(&server).run_sweep(&spec) {
        Err(ClientError::Server(message)) => {
            assert!(message.contains("quake"), "names the bad token: {message}")
        }
        other => panic!("expected Server error, got {other:?}"),
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_connections_are_severed_by_the_read_deadline() {
    let mut cfg = test_config("deadline");
    cfg.read_timeout = Duration::from_millis(150);
    let dir = cfg.cache_dir.clone().unwrap();
    let server = Server::start(cfg).unwrap();

    // Connect and say nothing; the server must sever us, not wedge.
    let idle = std::net::TcpStream::connect(server.addr()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if server.stats().deadline_aborts >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "read deadline never fired; stats: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    drop(idle);
    // The server still answers new clients afterwards.
    client(&server).ping().expect("server still alive");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_request_drains_and_stops_the_server() {
    let cfg = test_config("shutdown");
    let dir = cfg.cache_dir.clone().unwrap();
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();
    let client = ServeClient::new(addr.to_string());
    // Warm one cell so the drain has real state to flush.
    client.run_sweep(&tiny_spec(&[7], 0.5)).unwrap();
    client.shutdown_server().expect("polite goodbye");
    server.join();
    // The port is released: either the connect fails outright or the
    // listener is gone and the probe errors at protocol level.
    assert!(
        client.ping().is_err(),
        "a drained server must not answer new probes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Submits `spec` over a raw connection and follows the stream frame by
/// frame, signalling `accepted` on `Accepted`. Returns whether the sweep
/// was accepted; `false` means a typed refusal (`Busy`, `ShuttingDown`)
/// or a connection error before any answer. Panics on a partial sweep:
/// once accepted, a sweep must stream every cell and `Done`.
fn submit_raw(addr: SocketAddr, spec: &WireSpec, accepted: &mpsc::Sender<()>) -> bool {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_secs(5)) else {
        return false;
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let submit = Request::Submit { spec: spec.clone() };
    if write_request(&mut stream, &submit).is_err() {
        return false;
    }
    let keys = match read_response(&mut stream) {
        Ok(Response::Accepted { keys }) => keys,
        Ok(Response::Busy { .. } | Response::ShuttingDown) | Err(_) => return false,
        Ok(other) => panic!("unexpected answer to a submit: {other:?}"),
    };
    let _ = accepted.send(());
    let mut streamed = HashSet::new();
    loop {
        match read_response(&mut stream) {
            Ok(Response::Cell { index, .. }) => assert!(streamed.insert(index)),
            Ok(Response::Done { completed, failed }) => {
                assert_eq!(streamed.len(), keys.len(), "Done before every cell");
                assert_eq!((completed, failed), (keys.len() as u64, 0));
                return true;
            }
            Ok(other) => panic!("accepted sweep got {other:?}"),
            Err(e) => panic!(
                "accepted sweep cut short after {}/{} cells: {e}",
                streamed.len(),
                keys.len()
            ),
        }
    }
}

#[test]
fn drain_finishes_every_accepted_sweep_under_racing_submits() {
    // Clients race submits against `shutdown()`. Every accepted sweep
    // must stream all of its cells and `Done`; every other attempt is
    // refused or never connects; and the drained journal is empty. The
    // rounds run on a spawned thread, so a hung drain fails the test
    // after 20 s instead of hanging the suite.
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        for round in 0..20u64 {
            let cfg = test_config(&format!("drain-{round}"));
            let dir = cfg.cache_dir.clone().unwrap();
            let server = Server::start(cfg).unwrap();
            let addr = server.addr();
            let clients = 3 + round % 2;
            let (accepted, first_accept) = mpsc::channel();
            let accepted_sweeps: Vec<bool> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let accepted = accepted.clone();
                        let spec = tiny_spec(&[2 * c + 1, 2 * c + 2], 1.0);
                        scope.spawn(move || submit_raw(addr, &spec, &accepted))
                    })
                    .collect();
                // Drain as soon as one sweep is accepted: its cells are
                // likely still queued, and other clients may still be
                // submitting.
                let _ = first_accept.recv_timeout(Duration::from_secs(5));
                server.shutdown();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            });
            assert!(
                accepted_sweeps.contains(&true),
                "round {round}: no sweep was accepted"
            );
            let (_, pending) = Journal::open(&dir).unwrap();
            assert!(
                pending.is_empty(),
                "round {round}: {} sweeps left pending",
                pending.len()
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        done.send(()).expect("the test thread is waiting");
    });
    match finished.recv_timeout(Duration::from_secs(20)) {
        Err(RecvTimeoutError::Timeout) => panic!("service drain hung"),
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}
