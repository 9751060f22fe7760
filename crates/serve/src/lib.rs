//! # vfc_serve — the crash-safe sweep service
//!
//! Turns the [`SweepRunner`](vfc_runner::SweepRunner) into a long-lived
//! server: clients submit [`WireSpec`]s over a hand-rolled
//! length-prefixed framed protocol on std TCP (no dependencies beyond
//! the workspace), results stream back per cell as jobs finish, and
//! clients asking for the same cell at once share one simulation: the
//! runner's result cache lets one caller claim the cell and the rest
//! wait for its report.
//!
//! Robustness-first, every edge typed:
//!
//! * **Backpressure** — bounded accept and submit queues shed with a
//!   typed [`Response::Busy`] instead of growing; a sweep's cold cells
//!   are enqueued all-or-nothing, so `Busy` always means "nothing
//!   happened, retry later".
//! * **Deadlines** — per-connection read/write timeouts; a stalled
//!   client is severed (and counted) rather than wedging a worker, and
//!   its simulation work still completes into the cache.
//! * **Crash safety** — the disk cache writes atomically with per-entry
//!   checksums, and a store journal records accepted sweeps durably
//!   *before* they are acknowledged; a killed-mid-sweep server replays
//!   pending sweeps on restart with completed cells served from cache —
//!   zero recompute.
//! * **Idempotent resume** — cells are identified by config-hash cache
//!   keys, so the reconnecting [`ServeClient`] just resubmits its spec
//!   and pays only for cells that never finished.
//! * **Graceful shutdown** — drain accepted jobs, flush the journal,
//!   refuse new work, then stop; nothing acknowledged is abandoned.
//!
//! Service knobs (`VFC_SERVE_*`, see [`ServeConfig`]) are execution
//! knobs: they never enter [`SimConfig::cache_key`], so results
//! computed under any bounds are interchangeable.
//!
//! [`SimConfig::cache_key`]: vfc_sim::SimConfig::cache_key
//!
//! # Example
//!
//! ```no_run
//! use vfc_serve::{ServeClient, ServeConfig, Server, WireSpec};
//!
//! let server = Server::start(ServeConfig::from_env()).unwrap();
//! let client = ServeClient::new(server.addr().to_string());
//! let outcome = client.run_sweep(&WireSpec::default()).unwrap();
//! println!("{} cells", outcome.cells.len());
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
pub mod journal;
pub mod protocol;
mod server;

pub use self::client::{CellOutcome, ClientError, ServeClient, SweepOutcome};
pub use self::journal::{Journal, PendingSweep, JOURNAL_FILE, JOURNAL_VERSION};
pub use self::protocol::{
    BusyReason, ProtocolError, Request, Response, WireSpec, WireStats, MAGIC, MAX_FRAME_BYTES,
};
pub use self::server::{
    ServeConfig, Server, MAX_CELLS_ENV, MAX_CONNS_ENV, QUEUE_ENV, READ_TIMEOUT_ENV,
    WRITE_TIMEOUT_ENV,
};
