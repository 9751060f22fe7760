//! The reconnecting sweep client.
//!
//! [`ServeClient::run_sweep`] submits a [`WireSpec`] and collects the
//! per-cell stream. Resume is **idempotent by construction**: cells are
//! identified by their config-hash cache keys, so after a connection
//! drop (server restart included) the client simply resubmits the same
//! spec — cells that already completed come back as warm cache hits in
//! microseconds, and only genuinely unfinished cells cost simulation
//! time. No client-side session state needs to survive beyond the spec
//! itself.

use std::collections::HashMap;
use std::net::TcpStream;
use std::time::Duration;

use vfc_sim::SimReport;

use crate::protocol::{
    read_response, write_request, BusyReason, ProtocolError, Request, Response, WireSpec, WireStats,
};

/// How a sweep interaction failed, one variant per policy edge.
#[derive(Debug)]
pub enum ClientError {
    /// Could not reach the server at all.
    Connect(std::io::Error),
    /// The wire protocol broke (frame-level or payload-level).
    Protocol(ProtocolError),
    /// The server shed the request; back off and retry later.
    Busy {
        /// Which bound refused.
        reason: BusyReason,
        /// Operator-facing detail.
        detail: String,
    },
    /// The server is draining and refuses new work.
    ShuttingDown,
    /// The server answered with a request-level error (bad spec, …).
    Server(String),
    /// Reconnect-and-resume ran out of attempts.
    Exhausted {
        /// Attempts made (initial try included).
        attempts: u32,
        /// The last attempt's failure.
        last: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Connect(e) => write!(f, "connect: {e}"),
            Self::Protocol(e) => write!(f, "protocol: {e}"),
            Self::Busy { reason, detail } => write!(f, "server busy ({reason:?}): {detail}"),
            Self::ShuttingDown => write!(f, "server is shutting down"),
            Self::Server(message) => write!(f, "server error: {message}"),
            Self::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        Self::Protocol(e)
    }
}

/// One cell's outcome as seen by the client.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Index in spec-expansion order.
    pub index: u64,
    /// The cell's config-hash cache key.
    pub key: u64,
    /// Whether the server answered from cache/join rather than a fresh
    /// simulation led by this request (always true on resumed cells
    /// that completed before a disconnect).
    pub cached: bool,
    /// The report, or the failure message.
    pub result: Result<SimReport, String>,
}

/// A completed sweep: every cell, in spec-expansion order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Cache key per cell, in expansion order.
    pub keys: Vec<u64>,
    /// One outcome per cell, aligned with `keys`.
    pub cells: Vec<CellOutcome>,
    /// Reconnect attempts that were needed (0 = clean first pass).
    pub reconnects: u32,
}

impl SweepOutcome {
    /// The reports in expansion order.
    ///
    /// # Errors
    ///
    /// The first failed cell's message.
    pub fn reports(&self) -> Result<Vec<SimReport>, String> {
        self.cells
            .iter()
            .map(|c| c.result.clone())
            .collect::<Result<Vec<_>, _>>()
    }
}

/// The client handle. Cheap — holds no connection between calls; every
/// operation dials fresh, which is exactly what makes resume trivial.
#[derive(Debug, Clone)]
pub struct ServeClient {
    addr: String,
    read_timeout: Duration,
    write_timeout: Duration,
    /// Reconnect+resume attempts after the initial try.
    reconnects: u32,
    /// Pause between reconnect attempts.
    reconnect_backoff: Duration,
}

impl ServeClient {
    /// A client for `addr` with service defaults: generous read
    /// timeout (cells can take a while), 5 reconnect attempts.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            read_timeout: Duration::from_millis(120_000),
            write_timeout: Duration::from_millis(10_000),
            reconnects: 5,
            reconnect_backoff: Duration::from_millis(200),
        }
    }

    /// Overrides both socket timeouts.
    pub fn with_timeouts(mut self, read: Duration, write: Duration) -> Self {
        self.read_timeout = read;
        self.write_timeout = write;
        self
    }

    /// Overrides the reconnect budget and backoff.
    pub fn with_reconnects(mut self, attempts: u32, backoff: Duration) -> Self {
        self.reconnects = attempts;
        self.reconnect_backoff = backoff;
        self
    }

    fn dial(&self) -> Result<TcpStream, ClientError> {
        let stream = TcpStream::connect(&self.addr).map_err(ClientError::Connect)?;
        stream.set_nodelay(true).map_err(ClientError::Connect)?;
        stream
            .set_read_timeout(Some(self.read_timeout))
            .map_err(ClientError::Connect)?;
        stream
            .set_write_timeout(Some(self.write_timeout))
            .map_err(ClientError::Connect)?;
        Ok(stream)
    }

    /// Round-trips a liveness probe.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`]/[`ClientError::Protocol`] on transport
    /// failure.
    pub fn ping(&self) -> Result<Duration, ClientError> {
        let mut stream = self.dial()?;
        let start = std::time::Instant::now();
        write_request(&mut stream, &Request::Ping)?;
        match read_response(&mut stream)? {
            Response::Pong => Ok(start.elapsed()),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the server's counters.
    ///
    /// # Errors
    ///
    /// Transport failure, or a non-stats answer.
    pub fn stats(&self) -> Result<WireStats, ClientError> {
        let mut stream = self.dial()?;
        write_request(&mut stream, &Request::Stats)?;
        match read_response(&mut stream)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to drain and stop.
    ///
    /// # Errors
    ///
    /// Transport failure, or an unexpected answer.
    pub fn shutdown_server(&self) -> Result<(), ClientError> {
        let mut stream = self.dial()?;
        write_request(&mut stream, &Request::Shutdown)?;
        match read_response(&mut stream)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Runs `spec` to completion, reconnecting and resuming through
    /// connection drops and server restarts.
    ///
    /// # Errors
    ///
    /// [`ClientError::Busy`]/[`ClientError::ShuttingDown`] are
    /// surfaced immediately (the server made a policy decision — the
    /// caller owns the retry schedule). Transport failures retry up to
    /// the reconnect budget, then [`ClientError::Exhausted`].
    pub fn run_sweep(&self, spec: &WireSpec) -> Result<SweepOutcome, ClientError> {
        self.run_sweep_with(spec, |_| {})
    }

    /// [`run_sweep`](Self::run_sweep) with a per-cell callback (fired
    /// once per distinct cell, in arrival order).
    ///
    /// # Errors
    ///
    /// See [`run_sweep`](Self::run_sweep).
    pub fn run_sweep_with(
        &self,
        spec: &WireSpec,
        mut on_cell: impl FnMut(&CellOutcome),
    ) -> Result<SweepOutcome, ClientError> {
        // Cells already in hand survive reconnects; a resumed pass
        // only waits on keys this map is missing.
        let mut have: HashMap<u64, CellOutcome> = HashMap::new();
        let mut attempt = 0u32;
        loop {
            match self.stream_once(spec, &mut have, &mut on_cell) {
                Ok(keys) => {
                    let cells = keys
                        .iter()
                        .map(|key| {
                            have.get(key)
                                .cloned()
                                .expect("stream_once returns only when every key is in hand")
                        })
                        .collect();
                    return Ok(SweepOutcome {
                        keys,
                        cells,
                        reconnects: attempt,
                    });
                }
                // Policy refusals are final here: the server said no,
                // and hammering it defeats the backpressure design.
                Err(e @ (ClientError::Busy { .. } | ClientError::ShuttingDown)) => return Err(e),
                Err(e @ ClientError::Server(_)) => return Err(e),
                Err(e) => {
                    attempt += 1;
                    if attempt > self.reconnects {
                        return Err(ClientError::Exhausted {
                            attempts: attempt,
                            last: e.to_string(),
                        });
                    }
                    std::thread::sleep(self.reconnect_backoff);
                }
            }
        }
    }

    /// One connection's worth of progress: submit, collect cells until
    /// `Done`. Returns the authoritative key order on success.
    fn stream_once(
        &self,
        spec: &WireSpec,
        have: &mut HashMap<u64, CellOutcome>,
        on_cell: &mut impl FnMut(&CellOutcome),
    ) -> Result<Vec<u64>, ClientError> {
        let mut stream = self.dial()?;
        write_request(&mut stream, &Request::Submit { spec: spec.clone() })?;
        let keys = match read_response(&mut stream)? {
            Response::Accepted { keys } => keys,
            Response::Busy { reason, detail } => return Err(ClientError::Busy { reason, detail }),
            Response::ShuttingDown => return Err(ClientError::ShuttingDown),
            Response::Error { message } => return Err(ClientError::Server(message)),
            other => return Err(unexpected(other)),
        };
        loop {
            match read_response(&mut stream)? {
                Response::Cell {
                    index,
                    key,
                    cached,
                    report,
                } => {
                    let outcome = CellOutcome {
                        index,
                        key,
                        cached,
                        result: Ok(report),
                    };
                    if have.insert(key, outcome.clone()).is_none() {
                        on_cell(&outcome);
                    }
                }
                Response::CellFailed {
                    index,
                    key,
                    message,
                } => {
                    let outcome = CellOutcome {
                        index,
                        key,
                        cached: false,
                        result: Err(message),
                    };
                    if have.insert(key, outcome.clone()).is_none() {
                        on_cell(&outcome);
                    }
                }
                Response::Done { .. } => {
                    // Defensive: `Done` with a missing key would make
                    // the assembly below panic; treat it as a protocol
                    // violation instead.
                    if let Some(missing) = keys.iter().find(|k| !have.contains_key(k)) {
                        return Err(ClientError::Protocol(ProtocolError::Payload {
                            detail: format!("Done before cell {missing:016x} arrived"),
                        }));
                    }
                    return Ok(keys);
                }
                Response::ShuttingDown => return Err(ClientError::ShuttingDown),
                other => return Err(unexpected(other)),
            }
        }
    }
}

fn unexpected(response: Response) -> ClientError {
    ClientError::Protocol(ProtocolError::Payload {
        detail: format!("unexpected response {response:?}"),
    })
}
