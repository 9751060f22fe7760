//! Error type for sweep execution.

use vfc_sim::SimError;

/// Anything that can go wrong while expanding, executing or caching a
/// sweep. Failed jobs surface as per-job `Err` values — the executor
/// never panics the process because one cell of a sweep failed.
#[derive(Debug)]
pub enum RunnerError {
    /// A simulation failed to build or run.
    Sim {
        /// The failing configuration's label.
        label: String,
        /// The underlying simulation error.
        source: SimError,
    },
    /// A job panicked; the panic was caught and converted.
    JobPanicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A cache-store filesystem operation failed.
    Io {
        /// What was being done.
        context: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A persisted cache entry could not be decoded.
    Parse {
        /// What was being parsed.
        context: String,
        /// Parser detail.
        detail: String,
    },
    /// A sweep specification expanded to zero configurations (empty
    /// axis, or a filter rejected every cell).
    EmptySweep,
}

impl RunnerError {
    /// Whether retrying the same job can plausibly succeed. Transient
    /// environment failures (I/O: an NFS blip, a full disk being
    /// cleared) qualify; simulation errors, caught panics and parse
    /// failures are deterministic — the same inputs fail the same way,
    /// so retrying only wastes work. The executor's bounded per-job
    /// retry keys off this.
    pub(crate) fn is_transient(&self) -> bool {
        matches!(self, RunnerError::Io { .. })
    }
}

impl core::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunnerError::Sim { label, source } => write!(f, "simulating {label}: {source}"),
            RunnerError::JobPanicked { message } => write!(f, "job panicked: {message}"),
            RunnerError::Io { context, source } => write!(f, "{context}: {source}"),
            RunnerError::Parse { context, detail } => write!(f, "parsing {context}: {detail}"),
            RunnerError::EmptySweep => write!(f, "sweep expands to zero configurations"),
        }
    }
}

impl std::error::Error for RunnerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunnerError::Sim { source, .. } => Some(source),
            RunnerError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
