//! The sweep server: accept loop, connection handlers, submit flow,
//! journal replay and the graceful-shutdown choreography.
//!
//! Every edge has an explicit failure policy:
//!
//! | edge                | bound                     | on violation            |
//! |---------------------|---------------------------|-------------------------|
//! | accept              | `max_connections`         | `Busy(connections)`     |
//! | spec size           | `max_cells`               | `Busy(spec_too_large)`  |
//! | submit queue        | `queue_capacity`          | `Busy(queue)` (atomic)  |
//! | idle client read    | `read_timeout`            | close, deadline abort   |
//! | stalled client write| `write_timeout`           | sever, deadline abort   |
//! | crash mid-sweep     | journal + durable cache   | replay, cold cells only |
//!
//! Shedding is all-or-nothing (the bounded queue accepts a sweep's
//! whole cold set or none of it) and a severed client never cancels
//! simulation work — results land in the cache either way, so the
//! reconnecting client's resubmit is answered warm.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use vfc_runner::{
    default_cache_dir, ResultCache, RunSource, SubmitError, SubmitExecutor, SweepRunner,
};
use vfc_sim::{SimConfig, SimReport};

use crate::journal::{Journal, PendingSweep};
use crate::protocol::{
    read_request, write_response, BusyReason, ProtocolError, Request, Response, WireSpec, WireStats,
};

/// `VFC_SERVE_QUEUE`: submit-queue bound, in cells.
pub const QUEUE_ENV: &str = "VFC_SERVE_QUEUE";
/// `VFC_SERVE_MAX_CONNS`: concurrent-connection cap.
pub const MAX_CONNS_ENV: &str = "VFC_SERVE_MAX_CONNS";
/// `VFC_SERVE_MAX_CELLS`: largest sweep one request may submit.
pub const MAX_CELLS_ENV: &str = "VFC_SERVE_MAX_CELLS";
/// `VFC_SERVE_READ_TIMEOUT_MS`: per-connection read deadline.
pub const READ_TIMEOUT_ENV: &str = "VFC_SERVE_READ_TIMEOUT_MS";
/// `VFC_SERVE_WRITE_TIMEOUT_MS`: per-connection write deadline.
pub const WRITE_TIMEOUT_ENV: &str = "VFC_SERVE_WRITE_TIMEOUT_MS";

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Server configuration. Every field is an **execution knob**: none
/// enters `SimConfig::cache_key()`, so results computed under any
/// combination of bounds and deadlines are interchangeable.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (the default).
    pub addr: String,
    /// Simulation worker threads (`VFC_RUNNER_THREADS` falls through
    /// via the executor default).
    pub threads: usize,
    /// Submit-queue bound, in cells ([`QUEUE_ENV`]).
    pub queue_capacity: usize,
    /// Concurrent-connection cap ([`MAX_CONNS_ENV`]).
    pub max_connections: usize,
    /// Largest sweep one request may submit ([`MAX_CELLS_ENV`]).
    pub max_cells: usize,
    /// Per-connection read deadline ([`READ_TIMEOUT_ENV`]).
    pub read_timeout: Duration,
    /// Per-connection write deadline ([`WRITE_TIMEOUT_ENV`]).
    pub write_timeout: Duration,
    /// Disk-cache + journal directory; `None` = the runner's default
    /// (`target/vfc-cache/`, or `VFC_CACHE_DIR`).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            threads: vfc_runner::Executor::new().threads(),
            queue_capacity: 256,
            max_connections: 64,
            max_cells: 4096,
            read_timeout: Duration::from_millis(30_000),
            write_timeout: Duration::from_millis(10_000),
            cache_dir: None,
        }
    }
}

impl ServeConfig {
    /// The defaults with every `VFC_SERVE_*` environment override
    /// applied.
    pub fn from_env() -> Self {
        let d = Self::default();
        Self {
            queue_capacity: env_usize(QUEUE_ENV, d.queue_capacity),
            max_connections: env_usize(MAX_CONNS_ENV, d.max_connections),
            max_cells: env_usize(MAX_CELLS_ENV, d.max_cells),
            read_timeout: Duration::from_millis(env_usize(
                READ_TIMEOUT_ENV,
                d.read_timeout.as_millis() as usize,
            ) as u64),
            write_timeout: Duration::from_millis(env_usize(
                WRITE_TIMEOUT_ENV,
                d.write_timeout.as_millis() as usize,
            ) as u64),
            ..d
        }
    }

    /// Overrides the cache/journal directory.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }
}

/// Service counters, independent of the telemetry level (stats requests
/// must work with `VFC_TELEMETRY=off`); each increment is mirrored into
/// the `serve.*` telemetry counters.
#[derive(Debug, Default)]
struct ServeStats {
    connections: AtomicU64,
    sheds: AtomicU64,
    deadline_aborts: AtomicU64,
    journal_replays: AtomicU64,
    /// Warm cells answered straight from the cache by the connection
    /// handler, no executor round-trip.
    warm_hits: AtomicU64,
}

impl ServeStats {
    fn connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
        vfc_obs::counter_add("serve.connections", 1);
    }

    fn shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
        vfc_obs::counter_add("serve.sheds", 1);
    }

    fn deadline_abort(&self) {
        self.deadline_aborts.fetch_add(1, Ordering::Relaxed);
        vfc_obs::counter_add("serve.deadline_aborts", 1);
    }

    fn journal_replay(&self) {
        self.journal_replays.fetch_add(1, Ordering::Relaxed);
        vfc_obs::counter_add("serve.journal_replays", 1);
    }
}

struct Shared {
    cfg: ServeConfig,
    runner: SweepRunner,
    /// `None` once shutdown has taken it for draining.
    executor: Mutex<Option<SubmitExecutor>>,
    journal: Journal,
    stats: ServeStats,
    draining: AtomicBool,
    active_conns: AtomicUsize,
    /// Reader-side clones keyed by a connection token, severed on
    /// drain so blocked reads wake. Entries are removed when their
    /// connection ends — the registry must not pin dead fds.
    conn_streams: Mutex<std::collections::HashMap<u64, TcpStream>>,
    conn_tokens: AtomicU64,
    conn_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Set by a wire `Shutdown` request; `Server::join` waits on it.
    shutdown_requested: (Mutex<bool>, Condvar),
    addr: SocketAddr,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("addr", &self.addr)
            .field("draining", &self.draining.load(Ordering::Relaxed))
            .finish()
    }
}

impl Shared {
    fn wire_stats(&self) -> WireStats {
        let runner = self.runner.stats();
        WireStats {
            connections: self.stats.connections.load(Ordering::Relaxed),
            sheds: self.stats.sheds.load(Ordering::Relaxed),
            deadline_aborts: self.stats.deadline_aborts.load(Ordering::Relaxed),
            journal_replays: self.stats.journal_replays.load(Ordering::Relaxed),
            dedup_joins: runner.dedup_joins,
            executed: runner.executed,
            cache_hits: runner.cache_hits + self.stats.warm_hits.load(Ordering::Relaxed),
            jobs: runner.jobs + self.stats.warm_hits.load(Ordering::Relaxed),
        }
    }

    fn submit_batch(&self, jobs: Vec<vfc_runner::BoxJob>) -> Result<(), SubmitError> {
        match self
            .executor
            .lock()
            .expect("executor lock poisoned")
            .as_ref()
        {
            Some(executor) => executor.submit_batch(jobs),
            None => Err(SubmitError::ShuttingDown),
        }
    }

    fn submit_blocking(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        match self
            .executor
            .lock()
            .expect("executor lock poisoned")
            .as_ref()
        {
            Some(executor) => executor.submit_blocking(job),
            None => Err(SubmitError::ShuttingDown),
        }
    }

    fn request_shutdown(&self) {
        let (flag, cv) = &self.shutdown_requested;
        *flag.lock().expect("shutdown flag poisoned") = true;
        cv.notify_all();
    }
}

/// One live connection's send side, shared between the reader thread
/// and every job streaming results to it.
struct Conn {
    /// The write half (a clone of the reader's fd; timeouts are set on
    /// the shared socket).
    stream: Mutex<TcpStream>,
    /// Set once a write deadline fires or the stream breaks; further
    /// sends are skipped (the simulation work still completes and
    /// lands in the cache).
    dead: AtomicBool,
    /// Cells accepted on this connection and not yet answered — the
    /// read loop's "is the idle timeout real" signal.
    pending: AtomicUsize,
}

impl Conn {
    /// Sends one response frame; a deadline or transport failure marks
    /// the connection dead and severs it so the read side unblocks.
    fn send(&self, shared: &Shared, response: &Response) {
        if self.dead.load(Ordering::Acquire) {
            return;
        }
        let mut stream = self.stream.lock().expect("conn stream poisoned");
        self.send_locked(&mut stream, shared, response);
    }

    /// [`send`](Self::send) on the already-locked write half.
    fn send_locked(&self, stream: &mut TcpStream, shared: &Shared, response: &Response) {
        if self.dead.load(Ordering::Acquire) {
            return;
        }
        if let Err(e) = write_response(stream, response) {
            self.dead.store(true, Ordering::Release);
            if e.is_timeout() {
                shared.stats.deadline_abort();
            }
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// One accepted sweep's completion tracking: counts down cold cells,
/// then sends `Done` and retires the journal entry. `conn` is `None`
/// for journal replays (no client is listening).
struct Submission {
    journal_id: u64,
    remaining: AtomicUsize,
    completed: AtomicUsize,
    failed: AtomicUsize,
    conn: Option<Arc<Conn>>,
}

impl Submission {
    fn finish_cell(&self, shared: &Shared) {
        if let Some(conn) = &self.conn {
            conn.pending.fetch_sub(1, Ordering::AcqRel);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last cell: the sweep is complete. Journal first — once
            // `Done` is on the wire the entry must never replay.
            shared.journal.record_done(self.journal_id);
            if let Some(conn) = &self.conn {
                conn.send(
                    shared,
                    &Response::Done {
                        completed: self.completed.load(Ordering::Acquire) as u64,
                        failed: self.failed.load(Ordering::Acquire) as u64,
                    },
                );
            }
        }
    }

    fn run_cell(&self, shared: &Shared, index: u64, key: u64, cfg: SimConfig) {
        match shared.runner.run_shared(cfg) {
            Ok((report, source)) => {
                self.completed.fetch_add(1, Ordering::AcqRel);
                if let Some(conn) = &self.conn {
                    conn.send(
                        shared,
                        &Response::Cell {
                            index,
                            key,
                            cached: source != RunSource::Executed,
                            report,
                        },
                    );
                }
            }
            Err(err) => {
                self.failed.fetch_add(1, Ordering::AcqRel);
                if let Some(conn) = &self.conn {
                    conn.send(
                        shared,
                        &Response::CellFailed {
                            index,
                            key,
                            message: err.to_string(),
                        },
                    );
                }
            }
        }
        self.finish_cell(shared);
    }
}

/// A running sweep server. Start with [`Server::start`]; stop with
/// [`Server::shutdown`] (or [`Server::join`] to wait for a wire
/// `Shutdown` request).
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, replays the journal (pending sweeps re-run their cold
    /// cells; completed cells are served from the durable cache with
    /// zero recompute), then starts accepting.
    ///
    /// # Errors
    ///
    /// Bind/journal-open I/O failure.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Self> {
        let cache_dir = cfg.cache_dir.clone().unwrap_or_else(default_cache_dir);
        let (journal, pending) = Journal::open(&cache_dir)?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let runner = SweepRunner::with_parts(
            // The batch executor inside SweepRunner goes unused (the
            // service submits through the persistent SubmitExecutor);
            // size it at 1 so nothing spawns from it by accident.
            vfc_runner::Executor::with_threads(1),
            ResultCache::on_disk(&cache_dir),
        );
        let executor = SubmitExecutor::new(cfg.threads, cfg.queue_capacity);
        let shared = Arc::new(Shared {
            cfg,
            runner,
            executor: Mutex::new(Some(executor)),
            journal,
            stats: ServeStats::default(),
            draining: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            conn_streams: Mutex::new(std::collections::HashMap::new()),
            conn_tokens: AtomicU64::new(0),
            conn_threads: Mutex::new(Vec::new()),
            shutdown_requested: (Mutex::new(false), Condvar::new()),
            addr,
        });

        replay_journal(&shared, pending);

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&accept_shared, &listener));
        Ok(Self {
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Current service counters.
    pub fn stats(&self) -> WireStats {
        self.shared.wire_stats()
    }

    /// Blocks until a wire `Shutdown` request arrives, then drains and
    /// stops (the graceful path for a server binary).
    pub fn join(mut self) {
        let (flag, cv) = &self.shared.shutdown_requested;
        let requested = flag.lock().expect("shutdown flag poisoned");
        drop(
            cv.wait_while(requested, |requested| !*requested)
                .expect("shutdown flag poisoned"),
        );
        self.drain();
    }

    /// Graceful shutdown: refuse new connections and submissions,
    /// finish every accepted job (results stream out and land in the
    /// cache), retire journal entries, then stop.
    pub fn shutdown(mut self) {
        self.shared.request_shutdown();
        self.drain();
    }

    fn drain(&mut self) {
        self.shared.draining.store(true, Ordering::Release);
        // Wake the accept loop: it re-checks `draining` per iteration.
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Drain the executor *before* severing connections, so every
        // accepted sweep streams its results to whoever is listening.
        let executor = self
            .shared
            .executor
            .lock()
            .expect("executor lock poisoned")
            .take();
        if let Some(executor) = executor {
            executor.shutdown();
        }
        // Sever readers so connection threads blocked in read() wake.
        for (_, stream) in self
            .shared
            .conn_streams
            .lock()
            .expect("conn streams poisoned")
            .drain()
        {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let threads: Vec<_> = self
            .shared
            .conn_threads
            .lock()
            .expect("conn threads poisoned")
            .drain(..)
            .collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shared.request_shutdown();
            self.drain();
        }
    }
}

fn replay_journal(shared: &Arc<Shared>, pending: Vec<PendingSweep>) {
    for sweep in pending {
        shared.stats.journal_replay();
        let configs = match sweep.spec.expand() {
            Ok(configs) => configs,
            Err(e) => {
                // A journaled spec that no longer expands (e.g. written
                // by a newer build) cannot be replayed; retire it.
                eprintln!(
                    "vfc_serve: journal entry {} unreplayable ({e}); retiring",
                    sweep.id
                );
                shared.journal.record_done(sweep.id);
                continue;
            }
        };
        // Completed cells are warm in the durable cache: zero
        // recompute. Only cold cells become jobs.
        let cold: Vec<SimConfig> = configs
            .into_iter()
            .filter(|cfg| shared.runner.cache().get(cfg.cache_key()).is_none())
            .collect();
        if cold.is_empty() {
            shared.journal.record_done(sweep.id);
            continue;
        }
        let submission = Arc::new(Submission {
            journal_id: sweep.id,
            remaining: AtomicUsize::new(cold.len()),
            completed: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            conn: None,
        });
        for cfg in cold {
            let key = cfg.cache_key();
            let submission = Arc::clone(&submission);
            let shared = Arc::clone(shared);
            // Blocking submit: replay happens before the accept loop
            // starts, nothing sheds startup work.
            let outcome = shared
                .clone()
                .submit_blocking(move || submission.run_cell(&shared, 0, key, cfg));
            if outcome.is_err() {
                // Only possible if the server is torn down mid-start.
                return;
            }
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::Acquire) {
            // The wake-up connection (or any racer) is refused politely.
            if let Ok(mut s) = stream {
                let _ = s.set_write_timeout(Some(shared.cfg.write_timeout));
                let _ = write_response(&mut s, &Response::ShuttingDown);
            }
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.stats.connection();
        if shared.active_conns.load(Ordering::Acquire) >= shared.cfg.max_connections {
            // Connection-cap shed: typed Busy, then close.
            shared.stats.shed();
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
            let _ = write_response(
                &mut stream,
                &Response::Busy {
                    reason: BusyReason::Connections,
                    detail: format!("connection cap {} reached", shared.cfg.max_connections),
                },
            );
            continue;
        }
        shared.active_conns.fetch_add(1, Ordering::AcqRel);
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || {
            handle_connection(&conn_shared, stream);
            conn_shared.active_conns.fetch_sub(1, Ordering::AcqRel);
        });
        let mut threads = shared.conn_threads.lock().expect("conn threads poisoned");
        // Reap finished handlers so a long-lived server's handle list
        // tracks live connections, not history.
        threads.retain(|t| !t.is_finished());
        threads.push(handle);
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    // A response is several small frames; with Nagle's algorithm on,
    // each one after the first waits for the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let token = shared.conn_tokens.fetch_add(1, Ordering::Relaxed);
    if let Ok(reader_clone) = stream.try_clone() {
        shared
            .conn_streams
            .lock()
            .expect("conn streams poisoned")
            .insert(token, reader_clone);
    }
    let conn = Arc::new(Conn {
        stream: Mutex::new(write_half),
        dead: AtomicBool::new(false),
        pending: AtomicUsize::new(0),
    });
    let mut reader = stream;
    loop {
        if conn.dead.load(Ordering::Acquire) {
            break;
        }
        match read_request(&mut reader) {
            Ok(Request::Ping) => conn.send(shared, &Response::Pong),
            Ok(Request::Stats) => conn.send(shared, &Response::Stats(shared.wire_stats())),
            Ok(Request::Shutdown) => {
                conn.send(shared, &Response::ShuttingDown);
                shared.request_shutdown();
                break;
            }
            Ok(Request::Submit { spec }) => handle_submit(shared, &conn, &spec),
            Err(e) if e.is_timeout() => {
                if shared.draining.load(Ordering::Acquire)
                    && conn.pending.load(Ordering::Acquire) == 0
                {
                    break;
                }
                if conn.pending.load(Ordering::Acquire) == 0 {
                    // Idle past the read deadline with nothing in
                    // flight: a stalled client must not hold a slot.
                    shared.stats.deadline_abort();
                    break;
                }
                // Results are still streaming; the quiet read side is
                // expected. Keep waiting.
            }
            Err(ProtocolError::Closed) => break,
            Err(e) => {
                // Garbage on the wire: answer typed, then drop the
                // connection — resynchronizing a framed stream after a
                // bad header is guesswork.
                conn.send(
                    shared,
                    &Response::Error {
                        message: e.to_string(),
                    },
                );
                break;
            }
        }
    }
    shared
        .conn_streams
        .lock()
        .expect("conn streams poisoned")
        .remove(&token);
}

fn handle_submit(shared: &Arc<Shared>, conn: &Arc<Conn>, spec: &WireSpec) {
    if shared.draining.load(Ordering::Acquire) {
        conn.send(shared, &Response::ShuttingDown);
        return;
    }
    let configs = match spec.expand() {
        Ok(configs) => configs,
        Err(e) => {
            conn.send(shared, &Response::Error { message: e });
            return;
        }
    };
    if configs.len() > shared.cfg.max_cells {
        shared.stats.shed();
        conn.send(
            shared,
            &Response::Busy {
                reason: BusyReason::SpecTooLarge,
                detail: format!(
                    "{} cells exceed the per-request cap {}",
                    configs.len(),
                    shared.cfg.max_cells
                ),
            },
        );
        return;
    }
    let keys: Vec<u64> = configs.iter().map(SimConfig::cache_key).collect();

    // Journal before acknowledging: a crash after `Accepted` must
    // replay this sweep, so the intent record goes to disk (fsynced)
    // first. A shed below retires the entry immediately.
    let journal_id = match shared.journal.record_submit(spec) {
        Ok(id) => id,
        Err(e) => {
            conn.send(
                shared,
                &Response::Error {
                    message: format!("journal append failed: {e}"),
                },
            );
            return;
        }
    };

    // Partition warm/cold. Warm cells are answered inline with the
    // report this one cache read returned — O(µs), no executor
    // round-trip, immune to queue bounds.
    let mut warm: Vec<(u64, u64, SimReport)> = Vec::new(); // (index, key, report)
    let mut cold: Vec<(u64, u64, SimConfig)> = Vec::new();
    for (i, cfg) in configs.into_iter().enumerate() {
        match shared.runner.cache().get(keys[i]) {
            Some(report) => warm.push((i as u64, keys[i], report)),
            None => cold.push((i as u64, keys[i], cfg)),
        }
    }
    let total = keys.len() as u64;
    let cold_count = cold.len();

    let submission = Arc::new(Submission {
        journal_id,
        remaining: AtomicUsize::new(cold_count),
        completed: AtomicUsize::new(warm.len()),
        failed: AtomicUsize::new(0),
        conn: Some(Arc::clone(conn)),
    });
    let jobs: Vec<vfc_runner::BoxJob> = cold
        .into_iter()
        .map(|(index, key, cfg)| {
            let submission = Arc::clone(&submission);
            let shared = Arc::clone(shared);
            Box::new(move || submission.run_cell(&shared, index, key, cfg)) as vfc_runner::BoxJob
        })
        .collect();

    // Pending is raised before the jobs exist in the queue; a job that
    // finishes instantly decrements a count that is already there.
    conn.pending.fetch_add(cold_count, Ordering::AcqRel);

    // Hold the write half across the queue verdict and the warm
    // prefix: no job's `Cell` frame may overtake `Accepted`.
    {
        let mut stream = conn.stream.lock().expect("conn stream poisoned");
        let verdict = shared.submit_batch(jobs);
        let mut send = |response: &Response| conn.send_locked(&mut stream, shared, response);
        match verdict {
            Err(SubmitError::QueueFull { capacity }) => {
                conn.pending.fetch_sub(cold_count, Ordering::AcqRel);
                shared.journal.record_done(journal_id); // shed ≠ pending
                shared.stats.shed();
                send(&Response::Busy {
                    reason: BusyReason::Queue,
                    detail: format!(
                        "{cold_count} cold cells will not fit the queue (capacity {capacity})"
                    ),
                });
                return;
            }
            Err(SubmitError::ShuttingDown) => {
                conn.pending.fetch_sub(cold_count, Ordering::AcqRel);
                shared.journal.record_done(journal_id);
                send(&Response::ShuttingDown);
                return;
            }
            Ok(()) => {}
        }
        send(&Response::Accepted { keys: keys.clone() });
        for (index, key, report) in warm {
            shared.stats.warm_hits.fetch_add(1, Ordering::Relaxed);
            send(&Response::Cell {
                index,
                key,
                cached: true,
                report,
            });
        }
        if cold_count == 0 {
            shared.journal.record_done(journal_id);
            send(&Response::Done {
                completed: total,
                failed: 0,
            });
        }
    }
}
