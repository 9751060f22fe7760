//! The framed wire protocol.
//!
//! Every message is one **frame**:
//!
//! ```text
//! +----+----+-----+------------+------------------+
//! | 'V'| 'F'| tag | len u32 BE | len bytes of JSON |
//! +----+----+-----+------------+------------------+
//! ```
//!
//! — a 2-byte magic, a 1-byte message tag, a big-endian u32 payload
//! length bounded by [`MAX_FRAME_BYTES`], then the payload encoded with
//! the same hand-rolled JSON codec the disk cache uses
//! ([`vfc_runner::json`]). Hand-rolled length-prefixed framing over std
//! TCP keeps the service dependency-free and every failure mode
//! explicit: a bad magic, an unknown tag, an oversized or truncated
//! frame and an undecodable payload are all **typed**
//! [`ProtocolError`]s, never panics and never silent garbage.
//!
//! Requests tag as `0x0*`, responses as `0x8*` (the high bit marks
//! direction, which makes a captured byte stream self-describing).

use std::io::{Read, Write};

use vfc_runner::json::{JsonCodec as _, JsonValue};
use vfc_runner::SweepSpec;
use vfc_sim::{CoolingKind, PolicyKind, SimConfig, SimReport, SystemKind};
use vfc_units::{Length, Seconds};
use vfc_workload::Benchmark;

/// Frame magic: the first two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"VF";

/// Hard bound on a frame's payload length. Large enough for a
/// several-thousand-cell sweep's `Accepted` key list or any single
/// report; small enough that a garbage length prefix cannot make the
/// peer allocate gigabytes.
pub const MAX_FRAME_BYTES: u32 = 8 * 1024 * 1024;

/// Bytes of frame header: magic (2) + tag (1) + payload length (4).
pub const HEADER_BYTES: usize = 7;

/// Everything that can go wrong reading or decoding a frame. Typed and
/// total: every byte-level failure mode has exactly one variant.
#[derive(Debug)]
pub enum ProtocolError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The stream did not begin with [`MAGIC`] — not our protocol.
    BadMagic {
        /// The two bytes found instead.
        found: [u8; 2],
    },
    /// A tag byte no message type claims.
    UnknownTag {
        /// The unclaimed tag.
        tag: u8,
    },
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// The declared payload length.
        len: u32,
        /// The bound it broke.
        max: u32,
    },
    /// The stream ended inside a frame (torn header or short payload).
    Truncated,
    /// The frame arrived whole but its payload does not decode as the
    /// tagged message.
    Payload {
        /// What failed to decode.
        detail: String,
    },
    /// A transport-level I/O failure (including read/write deadline
    /// expiry — see [`ProtocolError::is_timeout`]).
    Io(std::io::Error),
}

impl ProtocolError {
    /// Whether this error is a read/write deadline firing (the
    /// connection's timeout discipline) rather than a broken stream.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            Self::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Closed => write!(f, "connection closed"),
            Self::BadMagic { found } => {
                write!(f, "bad frame magic {found:02x?} (expected {MAGIC:02x?})")
            }
            Self::UnknownTag { tag } => write!(f, "unknown frame tag {tag:#04x}"),
            Self::Oversized { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte bound"
                )
            }
            Self::Truncated => write!(f, "stream ended mid-frame"),
            Self::Payload { detail } => write!(f, "undecodable payload: {detail}"),
            Self::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Submit a sweep; answered with [`Response::Accepted`] (then a
    /// stream of per-cell responses ending in [`Response::Done`]) or a
    /// [`Response::Busy`] shed.
    Submit {
        /// The sweep to run.
        spec: WireSpec,
    },
    /// Ask for the server's counters; answered with
    /// [`Response::Stats`].
    Stats,
    /// Ask the server to drain and exit; answered with
    /// [`Response::ShuttingDown`].
    Shutdown,
}

/// Why the server shed a request instead of queueing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyReason {
    /// The connection cap is reached.
    Connections,
    /// The submit queue cannot hold the whole sweep.
    Queue,
    /// The spec expands to more cells than one request may submit.
    SpecTooLarge,
}

impl BusyReason {
    fn as_str(self) -> &'static str {
        match self {
            Self::Connections => "connections",
            Self::Queue => "queue",
            Self::SpecTooLarge => "spec_too_large",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "connections" => Some(Self::Connections),
            "queue" => Some(Self::Queue),
            "spec_too_large" => Some(Self::SpecTooLarge),
            _ => None,
        }
    }
}

/// The server's counters as reported over the wire (see
/// [`Request::Stats`]). Cumulative since server start, journal replay
/// included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests shed with [`Response::Busy`].
    pub sheds: u64,
    /// Connections severed by a read/write deadline.
    pub deadline_aborts: u64,
    /// Journaled sweeps replayed at startup.
    pub journal_replays: u64,
    /// Cells that waited for another caller holding the same cell and
    /// shared its report.
    pub dedup_joins: u64,
    /// Cells that actually simulated.
    pub executed: u64,
    /// Cells answered from the result cache.
    pub cache_hits: u64,
    /// Cells submitted in total.
    pub jobs: u64,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// The sweep is queued; `keys` lists every cell's config-hash cache
    /// key in spec-expansion order — the client's resume ledger.
    Accepted {
        /// Cache key per cell, in expansion order.
        keys: Vec<u64>,
    },
    /// One finished cell.
    Cell {
        /// Index into the `Accepted` key list.
        index: u64,
        /// The cell's config-hash cache key.
        key: u64,
        /// Whether the result came from cache/join rather than a fresh
        /// simulation led by this request.
        cached: bool,
        /// The simulation report.
        report: SimReport,
    },
    /// One failed cell (the rest of the sweep keeps streaming).
    CellFailed {
        /// Index into the `Accepted` key list.
        index: u64,
        /// The cell's config-hash cache key.
        key: u64,
        /// Human-readable failure.
        message: String,
    },
    /// Every cell of the sweep has been answered.
    Done {
        /// Cells that completed.
        completed: u64,
        /// Cells that failed.
        failed: u64,
    },
    /// Load shed: nothing was queued, nothing will stream. Retry later.
    Busy {
        /// Which bound refused.
        reason: BusyReason,
        /// Operator-facing detail (bound values).
        detail: String,
    },
    /// The server is draining and refuses new work.
    ShuttingDown,
    /// Counter snapshot.
    Stats(WireStats),
    /// A request-level failure (bad spec, zero cells, …).
    Error {
        /// What went wrong.
        message: String,
    },
}

const TAG_PING: u8 = 0x01;
const TAG_SUBMIT: u8 = 0x02;
const TAG_STATS_REQ: u8 = 0x03;
const TAG_SHUTDOWN: u8 = 0x04;
const TAG_PONG: u8 = 0x81;
const TAG_ACCEPTED: u8 = 0x82;
const TAG_CELL: u8 = 0x83;
const TAG_CELL_FAILED: u8 = 0x84;
const TAG_DONE: u8 = 0x85;
const TAG_BUSY: u8 = 0x86;
const TAG_SHUTTING_DOWN: u8 = 0x87;
const TAG_STATS: u8 = 0x88;
const TAG_ERROR: u8 = 0x89;

// --- payload helpers (the runner's member helpers are pub(crate)) ---

fn bad(detail: impl Into<String>) -> ProtocolError {
    ProtocolError::Payload {
        detail: detail.into(),
    }
}

fn member<'v>(doc: &'v JsonValue, key: &str) -> Result<&'v JsonValue, ProtocolError> {
    doc.get(key).ok_or_else(|| bad(format!("missing `{key}`")))
}

fn u64_member(doc: &JsonValue, key: &str) -> Result<u64, ProtocolError> {
    member(doc, key)?
        .as_u64()
        .ok_or_else(|| bad(format!("`{key}` must be an unsigned integer")))
}

fn f64_member(doc: &JsonValue, key: &str) -> Result<f64, ProtocolError> {
    member(doc, key)?
        .as_f64()
        .ok_or_else(|| bad(format!("`{key}` must be a number")))
}

fn string_member(doc: &JsonValue, key: &str) -> Result<String, ProtocolError> {
    Ok(member(doc, key)?
        .as_str()
        .ok_or_else(|| bad(format!("`{key}` must be a string")))?
        .to_string())
}

fn bool_member(doc: &JsonValue, key: &str) -> Result<bool, ProtocolError> {
    match member(doc, key)? {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(bad(format!("`{key}` must be a boolean"))),
    }
}

fn string_list(doc: &JsonValue, key: &str) -> Result<Vec<String>, ProtocolError> {
    member(doc, key)?
        .as_array()
        .ok_or_else(|| bad(format!("`{key}` must be an array")))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| bad(format!("`{key}` entries must be strings")))
        })
        .collect()
}

/// Cache keys travel as `016x` hex strings: u64 round-trips through an
/// f64 JSON number only up to 2^53, and config hashes use all 64 bits.
fn key_to_json(key: u64) -> JsonValue {
    JsonValue::String(format!("{key:016x}"))
}

fn key_from_json(v: &JsonValue) -> Result<u64, ProtocolError> {
    let hex = v.as_str().ok_or_else(|| bad("keys must be hex strings"))?;
    u64::from_str_radix(hex, 16).map_err(|_| bad(format!("bad key `{hex}`")))
}

fn key_member(doc: &JsonValue, key: &str) -> Result<u64, ProtocolError> {
    key_from_json(member(doc, key)?)
}

/// Largest integer an f64 JSON number represents exactly.
const MAX_EXACT_JSON_INT: u64 = 1 << 53;

/// Encodes a full-range u64 exactly while keeping realistic values
/// human-readable: a plain number up to 2^53, a hex string beyond.
fn exact_u64_to_json(value: u64) -> JsonValue {
    if value <= MAX_EXACT_JSON_INT {
        JsonValue::Number(value as f64)
    } else {
        key_to_json(value)
    }
}

fn exact_u64_from_json(v: &JsonValue, what: &str) -> Result<u64, ProtocolError> {
    if let Some(n) = v.as_u64() {
        return Ok(n);
    }
    if v.as_str().is_some() {
        return key_from_json(v);
    }
    Err(bad(format!(
        "`{what}` must be an unsigned integer or hex string"
    )))
}

fn exact_u64_member(doc: &JsonValue, key: &str) -> Result<u64, ProtocolError> {
    exact_u64_from_json(member(doc, key)?, key)
}

fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

// --- the sweep spec, as it travels ---

/// A [`SweepSpec`] in wire form: every axis a list of tokens, so a spec
/// is printable, diffable and hand-writable. This is the one place a
/// sweep is spelled: the `sweep` and `serve_client` binaries fill it
/// from flags with [`apply_flag`](Self::apply_flag), and
/// [`to_sweep_spec`](Self::to_sweep_spec), the only token grammar,
/// lowers it onto the real builder. That guarantees the server expands
/// cells in *exactly* the order a local
/// [`SweepRunner`](vfc_runner::SweepRunner) would — the
/// byte-identical-results contract rests on sharing that code path, not
/// on reimplementing it.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSpec {
    /// System tokens: `2` or `4`.
    pub systems: Vec<String>,
    /// Cooling tokens: `air`, `max`, `var`, `fixed:<setting>`.
    pub coolings: Vec<String>,
    /// Policy tokens: `lb`, `mig`, `talb`.
    pub policies: Vec<String>,
    /// Table II benchmark names.
    pub workloads: Vec<String>,
    /// Workload seeds.
    pub seeds: Vec<u64>,
    /// Thermal grid cells, millimetres.
    pub grid_mm: Vec<f64>,
    /// Simulated seconds per cell.
    pub duration_s: f64,
    /// Dynamic power management on/off.
    pub dpm: bool,
}

impl Default for WireSpec {
    /// Mirrors [`SweepSpec::new`]'s defaults (the paper's headline
    /// cell over all Table II workloads).
    fn default() -> Self {
        Self {
            systems: vec!["2".into()],
            coolings: vec!["var".into()],
            policies: vec!["talb".into()],
            workloads: table_ii_names(),
            seeds: vec![42],
            grid_mm: vec![1.0],
            duration_s: 60.0,
            dpm: false,
        }
    }
}

impl WireSpec {
    /// Usage text for the flags [`apply_flag`](Self::apply_flag) reads,
    /// shared by every front end that spells a sweep from flags.
    pub const FLAGS_HELP: &'static str = "\
spec flags (comma-separated lists; defaults in parentheses):
  --systems 2,4             stack layer counts (2)
  --cooling air,max,var,fixed:<n>  cooling; <n> is a 0-based pump setting (var)
  --policies lb,mig,talb    scheduling policies (talb)
  --workloads gzip,gcc,...  Table II names, or `all` (all eight)
  --seeds 1,2,3 | 0..8      workload generator seeds (42)
  --grid-mm 1,2             thermal grid cell sizes in mm (1)
  --duration <s>            simulated seconds per cell (60)
  --dpm                     enable dynamic power management";

    /// Applies one spec flag, taking its value (if it has one) from
    /// `rest`. `--workloads all` and `--seeds a..b` expand here; the
    /// axis tokens are only checked by
    /// [`to_sweep_spec`](Self::to_sweep_spec).
    ///
    /// Returns `Ok(false)`, consuming nothing, when `flag` is not a spec
    /// flag, so a caller can handle its own flags after this one.
    ///
    /// # Errors
    ///
    /// A missing value, or a seed, grid size or duration that is not a
    /// number.
    pub fn apply_flag(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let mut value = || {
            rest.next()
                .ok_or_else(|| format!("flag `{flag}` needs a value"))
        };
        match flag {
            "--systems" => self.systems = list(&value()?),
            "--cooling" => self.coolings = list(&value()?),
            "--policies" => self.policies = list(&value()?),
            "--workloads" => {
                let value = value()?;
                self.workloads = if value == "all" {
                    table_ii_names()
                } else {
                    list(&value)
                };
            }
            "--seeds" => {
                let value = value()?;
                self.seeds = match value.split_once("..") {
                    Some((lo, hi)) => (number(lo, "seed")?..number(hi, "seed")?).collect(),
                    None => list(&value)
                        .iter()
                        .map(|t| number(t, "seed"))
                        .collect::<Result<_, _>>()?,
                };
            }
            "--grid-mm" => {
                self.grid_mm = list(&value()?)
                    .iter()
                    .map(|t| number(t, "grid size"))
                    .collect::<Result<_, _>>()?;
            }
            "--duration" => self.duration_s = number(&value()?, "duration")?,
            "--dpm" => self.dpm = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The unfiltered cell count (product of the axis lengths).
    pub fn cell_count(&self) -> usize {
        self.systems.len()
            * self.coolings.len()
            * self.policies.len()
            * self.workloads.len()
            * self.seeds.len()
            * self.grid_mm.len()
    }

    /// Lowers the wire form onto the real [`SweepSpec`] builder,
    /// validating every token.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first invalid token or
    /// value.
    pub fn to_sweep_spec(&self) -> Result<SweepSpec, String> {
        if self.cell_count() == 0 {
            return Err("spec expands to zero cells (an axis is empty)".into());
        }
        let systems = map_tokens(&self.systems, "system", |s| match s {
            "2" | "two" => Some(SystemKind::TwoLayer),
            "4" | "four" => Some(SystemKind::FourLayer),
            _ => None,
        })?;
        let coolings = map_tokens(&self.coolings, "cooling", parse_cooling)?;
        let policies = map_tokens(&self.policies, "policy", |s| {
            match s.to_ascii_lowercase().as_str() {
                "lb" => Some(PolicyKind::LoadBalancing),
                "mig" | "migration" => Some(PolicyKind::ReactiveMigration),
                "talb" => Some(PolicyKind::Talb),
                _ => None,
            }
        })?;
        let workloads = map_tokens(&self.workloads, "workload", Benchmark::by_name)?;
        if !(self.duration_s.is_finite() && self.duration_s > 0.0) {
            return Err(format!(
                "duration_s must be positive, got {}",
                self.duration_s
            ));
        }
        for &mm in &self.grid_mm {
            if !(mm.is_finite() && mm > 0.0) {
                return Err(format!("grid_mm entries must be positive, got {mm}"));
            }
        }
        Ok(SweepSpec::new()
            .systems(systems)
            .coolings(coolings)
            .policies(policies)
            .benchmarks(workloads)
            .seeds(self.seeds.iter().copied())
            .grid_cells(self.grid_mm.iter().map(|&mm| Length::from_millimeters(mm)))
            .duration(Seconds::new(self.duration_s))
            .dpm(self.dpm))
    }

    /// Expands to concrete configs in canonical sweep order.
    ///
    /// # Errors
    ///
    /// See [`to_sweep_spec`](Self::to_sweep_spec).
    pub fn expand(&self) -> Result<Vec<SimConfig>, String> {
        Ok(self.to_sweep_spec()?.expand())
    }

    pub(crate) fn to_json(&self) -> JsonValue {
        obj(vec![
            (
                "systems",
                JsonValue::Array(
                    self.systems
                        .iter()
                        .map(|s| JsonValue::String(s.clone()))
                        .collect(),
                ),
            ),
            (
                "coolings",
                JsonValue::Array(
                    self.coolings
                        .iter()
                        .map(|s| JsonValue::String(s.clone()))
                        .collect(),
                ),
            ),
            (
                "policies",
                JsonValue::Array(
                    self.policies
                        .iter()
                        .map(|s| JsonValue::String(s.clone()))
                        .collect(),
                ),
            ),
            (
                "workloads",
                JsonValue::Array(
                    self.workloads
                        .iter()
                        .map(|s| JsonValue::String(s.clone()))
                        .collect(),
                ),
            ),
            (
                "seeds",
                JsonValue::Array(self.seeds.iter().copied().map(exact_u64_to_json).collect()),
            ),
            (
                "grid_mm",
                JsonValue::Array(self.grid_mm.iter().map(|&g| JsonValue::Number(g)).collect()),
            ),
            ("duration_s", JsonValue::Number(self.duration_s)),
            ("dpm", JsonValue::Bool(self.dpm)),
        ])
    }

    pub(crate) fn from_json(doc: &JsonValue) -> Result<Self, ProtocolError> {
        let seeds = member(doc, "seeds")?
            .as_array()
            .ok_or_else(|| bad("`seeds` must be an array"))?
            .iter()
            .map(|v| exact_u64_from_json(v, "seeds"))
            .collect::<Result<Vec<_>, _>>()?;
        let grid_mm = member(doc, "grid_mm")?
            .as_array()
            .ok_or_else(|| bad("`grid_mm` must be an array"))?
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| bad("grid_mm must be numbers")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            systems: string_list(doc, "systems")?,
            coolings: string_list(doc, "coolings")?,
            policies: string_list(doc, "policies")?,
            workloads: string_list(doc, "workloads")?,
            seeds,
            grid_mm,
            duration_s: f64_member(doc, "duration_s")?,
            dpm: bool_member(doc, "dpm")?,
        })
    }
}

/// Every Table II workload name, in table order.
fn table_ii_names() -> Vec<String> {
    Benchmark::table_ii()
        .into_iter()
        .map(|b| b.name.to_string())
        .collect()
}

/// A comma-separated flag value's tokens, trimmed, empty ones dropped.
fn list(value: &str) -> Vec<String> {
    value
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(String::from)
        .collect()
}

/// One numeric flag value.
fn number<T: std::str::FromStr>(token: &str, what: &str) -> Result<T, String> {
    token
        .trim()
        .parse()
        .map_err(|_| format!("bad {what} `{token}`"))
}

fn map_tokens<T>(
    tokens: &[String],
    what: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    tokens
        .iter()
        .map(|t| parse(t).ok_or_else(|| format!("bad {what} token `{t}`")))
        .collect()
}

/// The cooling grammar: `air`, `max`, `var` or `fixed:<0-based pump
/// setting>` (validated against the default pump's setting table).
fn parse_cooling(s: &str) -> Option<CoolingKind> {
    match s.to_ascii_lowercase().as_str() {
        "air" => Some(CoolingKind::Air),
        "max" => Some(CoolingKind::LiquidMax),
        "var" => Some(CoolingKind::LiquidVariable),
        other => {
            let idx: usize = other.strip_prefix("fixed:")?.parse().ok()?;
            let setting = vfc_liquid::Pump::laing_ddc().setting(idx).ok()?;
            Some(CoolingKind::LiquidFixed(setting))
        }
    }
}

// --- message codecs ---

impl Request {
    fn tag(&self) -> u8 {
        match self {
            Self::Ping => TAG_PING,
            Self::Submit { .. } => TAG_SUBMIT,
            Self::Stats => TAG_STATS_REQ,
            Self::Shutdown => TAG_SHUTDOWN,
        }
    }

    fn payload(&self) -> JsonValue {
        match self {
            Self::Ping | Self::Stats | Self::Shutdown => obj(vec![]),
            Self::Submit { spec } => obj(vec![("spec", spec.to_json())]),
        }
    }

    fn decode(tag: u8, payload: &JsonValue) -> Result<Self, ProtocolError> {
        match tag {
            TAG_PING => Ok(Self::Ping),
            TAG_STATS_REQ => Ok(Self::Stats),
            TAG_SHUTDOWN => Ok(Self::Shutdown),
            TAG_SUBMIT => Ok(Self::Submit {
                spec: WireSpec::from_json(member(payload, "spec")?)?,
            }),
            other => Err(ProtocolError::UnknownTag { tag: other }),
        }
    }
}

impl Response {
    fn tag(&self) -> u8 {
        match self {
            Self::Pong => TAG_PONG,
            Self::Accepted { .. } => TAG_ACCEPTED,
            Self::Cell { .. } => TAG_CELL,
            Self::CellFailed { .. } => TAG_CELL_FAILED,
            Self::Done { .. } => TAG_DONE,
            Self::Busy { .. } => TAG_BUSY,
            Self::ShuttingDown => TAG_SHUTTING_DOWN,
            Self::Stats(_) => TAG_STATS,
            Self::Error { .. } => TAG_ERROR,
        }
    }

    fn payload(&self) -> JsonValue {
        match self {
            Self::Pong | Self::ShuttingDown => obj(vec![]),
            Self::Accepted { keys } => obj(vec![(
                "keys",
                JsonValue::Array(keys.iter().copied().map(key_to_json).collect()),
            )]),
            Self::Cell {
                index,
                key,
                cached,
                report,
            } => obj(vec![
                ("index", JsonValue::Number(*index as f64)),
                ("key", key_to_json(*key)),
                ("cached", JsonValue::Bool(*cached)),
                ("report", report.to_json()),
            ]),
            Self::CellFailed {
                index,
                key,
                message,
            } => obj(vec![
                ("index", JsonValue::Number(*index as f64)),
                ("key", key_to_json(*key)),
                ("message", JsonValue::String(message.clone())),
            ]),
            Self::Done { completed, failed } => obj(vec![
                ("completed", JsonValue::Number(*completed as f64)),
                ("failed", JsonValue::Number(*failed as f64)),
            ]),
            Self::Busy { reason, detail } => obj(vec![
                ("reason", JsonValue::String(reason.as_str().into())),
                ("detail", JsonValue::String(detail.clone())),
            ]),
            Self::Stats(stats) => obj(vec![
                ("connections", exact_u64_to_json(stats.connections)),
                ("sheds", exact_u64_to_json(stats.sheds)),
                ("deadline_aborts", exact_u64_to_json(stats.deadline_aborts)),
                ("journal_replays", exact_u64_to_json(stats.journal_replays)),
                ("dedup_joins", exact_u64_to_json(stats.dedup_joins)),
                ("executed", exact_u64_to_json(stats.executed)),
                ("cache_hits", exact_u64_to_json(stats.cache_hits)),
                ("jobs", exact_u64_to_json(stats.jobs)),
            ]),
            Self::Error { message } => obj(vec![("message", JsonValue::String(message.clone()))]),
        }
    }

    fn decode(tag: u8, payload: &JsonValue) -> Result<Self, ProtocolError> {
        match tag {
            TAG_PONG => Ok(Self::Pong),
            TAG_SHUTTING_DOWN => Ok(Self::ShuttingDown),
            TAG_ACCEPTED => Ok(Self::Accepted {
                keys: member(payload, "keys")?
                    .as_array()
                    .ok_or_else(|| bad("`keys` must be an array"))?
                    .iter()
                    .map(key_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            TAG_CELL => Ok(Self::Cell {
                index: u64_member(payload, "index")?,
                key: key_member(payload, "key")?,
                cached: bool_member(payload, "cached")?,
                report: SimReport::from_json(member(payload, "report")?)
                    .map_err(|e| bad(format!("report: {e}")))?,
            }),
            TAG_CELL_FAILED => Ok(Self::CellFailed {
                index: u64_member(payload, "index")?,
                key: key_member(payload, "key")?,
                message: string_member(payload, "message")?,
            }),
            TAG_DONE => Ok(Self::Done {
                completed: u64_member(payload, "completed")?,
                failed: u64_member(payload, "failed")?,
            }),
            TAG_BUSY => {
                let reason = string_member(payload, "reason")?;
                Ok(Self::Busy {
                    reason: BusyReason::parse(&reason)
                        .ok_or_else(|| bad(format!("unknown busy reason `{reason}`")))?,
                    detail: string_member(payload, "detail")?,
                })
            }
            TAG_STATS => Ok(Self::Stats(WireStats {
                connections: exact_u64_member(payload, "connections")?,
                sheds: exact_u64_member(payload, "sheds")?,
                deadline_aborts: exact_u64_member(payload, "deadline_aborts")?,
                journal_replays: exact_u64_member(payload, "journal_replays")?,
                dedup_joins: exact_u64_member(payload, "dedup_joins")?,
                executed: exact_u64_member(payload, "executed")?,
                cache_hits: exact_u64_member(payload, "cache_hits")?,
                jobs: exact_u64_member(payload, "jobs")?,
            })),
            TAG_ERROR => Ok(Self::Error {
                message: string_member(payload, "message")?,
            }),
            other => Err(ProtocolError::UnknownTag { tag: other }),
        }
    }
}

// --- byte-level framing ---

fn encode_frame(tag: u8, payload: &JsonValue) -> Vec<u8> {
    let body = payload.encode();
    let mut frame = Vec::with_capacity(HEADER_BYTES + body.len());
    frame.extend_from_slice(&MAGIC);
    frame.push(tag);
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(body.as_bytes());
    frame
}

/// Reads one raw frame: `(tag, payload bytes)`.
///
/// # Errors
///
/// [`ProtocolError::Closed`] on a clean EOF at a frame boundary;
/// [`ProtocolError::Truncated`] on EOF inside a frame; the other
/// variants as described on each.
pub(crate) fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), ProtocolError> {
    let mut header = [0u8; HEADER_BYTES];
    // The first byte distinguishes a clean close from a torn frame.
    match r.read(&mut header[..1]) {
        Ok(0) => return Err(ProtocolError::Closed),
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
            return read_frame(r);
        }
        Err(e) => return Err(e.into()),
    }
    r.read_exact(&mut header[1..]).map_err(eof_is_truncation)?;
    if header[..2] != MAGIC {
        return Err(ProtocolError::BadMagic {
            found: [header[0], header[1]],
        });
    }
    let tag = header[2];
    let len = u32::from_be_bytes([header[3], header[4], header[5], header[6]]);
    if len > MAX_FRAME_BYTES {
        return Err(ProtocolError::Oversized {
            len,
            max: MAX_FRAME_BYTES,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(eof_is_truncation)?;
    Ok((tag, payload))
}

fn eof_is_truncation(e: std::io::Error) -> ProtocolError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        ProtocolError::Truncated
    } else {
        ProtocolError::Io(e)
    }
}

fn parse_payload(bytes: &[u8]) -> Result<JsonValue, ProtocolError> {
    let text = std::str::from_utf8(bytes).map_err(|_| bad("payload is not UTF-8"))?;
    JsonValue::parse(text).map_err(|e| bad(e.to_string()))
}

/// Writes `request` as one frame.
///
/// # Errors
///
/// [`ProtocolError::Io`] on transport failure (timeouts included).
pub fn write_request(w: &mut impl Write, request: &Request) -> Result<(), ProtocolError> {
    w.write_all(&encode_frame(request.tag(), &request.payload()))?;
    w.flush()?;
    Ok(())
}

/// Writes `response` as one frame.
///
/// # Errors
///
/// [`ProtocolError::Io`] on transport failure (timeouts included).
pub fn write_response(w: &mut impl Write, response: &Response) -> Result<(), ProtocolError> {
    w.write_all(&encode_frame(response.tag(), &response.payload()))?;
    w.flush()?;
    Ok(())
}

/// Reads and decodes one [`Request`].
///
/// # Errors
///
/// Any [`ProtocolError`]; a response tag here is an [`UnknownTag`]
/// (requests and responses share one tag space split by the high bit).
///
/// [`UnknownTag`]: ProtocolError::UnknownTag
pub fn read_request(r: &mut impl Read) -> Result<Request, ProtocolError> {
    let (tag, bytes) = read_frame(r)?;
    Request::decode(tag, &parse_payload(&bytes)?)
}

/// Reads and decodes one [`Response`].
///
/// # Errors
///
/// Any [`ProtocolError`].
pub fn read_response(r: &mut impl Read) -> Result<Response, ProtocolError> {
    let (tag, bytes) = read_frame(r)?;
    Response::decode(tag, &parse_payload(&bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cooling_tokens_match_the_cli_grammar() {
        assert_eq!(parse_cooling("air"), Some(CoolingKind::Air));
        assert_eq!(parse_cooling("MAX"), Some(CoolingKind::LiquidMax));
        assert_eq!(parse_cooling("var"), Some(CoolingKind::LiquidVariable));
        assert!(matches!(
            parse_cooling("fixed:0"),
            Some(CoolingKind::LiquidFixed(_))
        ));
        assert_eq!(parse_cooling("fixed:99"), None, "settings are validated");
        assert_eq!(parse_cooling("water"), None);
    }

    #[test]
    fn default_wire_spec_expands_like_the_default_sweep_spec() {
        let wire = WireSpec::default().expand().unwrap();
        let local = SweepSpec::new().expand();
        let keys = |cells: &[vfc_sim::SimConfig]| -> Vec<u64> {
            cells.iter().map(vfc_sim::SimConfig::cache_key).collect()
        };
        assert_eq!(
            keys(&wire),
            keys(&local),
            "defaults must mirror SweepSpec::new"
        );
    }

    #[test]
    fn wire_spec_rejects_bad_tokens_with_readable_errors() {
        let mut spec = WireSpec::default();
        spec.policies = vec!["fifo".into()];
        assert_eq!(spec.to_sweep_spec().unwrap_err(), "bad policy token `fifo`");
        let mut spec = WireSpec::default();
        spec.workloads = vec!["quake".into()];
        assert!(spec.to_sweep_spec().unwrap_err().contains("quake"));
        let mut spec = WireSpec::default();
        spec.duration_s = -1.0;
        assert!(spec.to_sweep_spec().unwrap_err().contains("duration"));
        let mut spec = WireSpec::default();
        spec.systems = vec![];
        assert!(spec.to_sweep_spec().unwrap_err().contains("zero cells"));
    }

    /// Applies `args` as spec flags, as a front end would.
    fn apply(args: &[&str]) -> Result<WireSpec, String> {
        let mut spec = WireSpec::default();
        let mut rest = args.iter().map(|a| a.to_string());
        while let Some(flag) = rest.next() {
            if !spec.apply_flag(&flag, &mut rest)? {
                return Err(format!("not a spec flag: {flag}"));
            }
        }
        Ok(spec)
    }

    #[test]
    fn every_spec_flag_fills_its_field() {
        let spec = apply(&[
            "--systems",
            "2,4",
            "--cooling",
            "air, fixed:1",
            "--policies",
            "lb,talb",
            "--workloads",
            "gzip,Web-med",
            "--seeds",
            "1,2,3",
            "--grid-mm",
            "1,2.5",
            "--duration",
            "10",
            "--dpm",
        ])
        .unwrap();
        let strings = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            spec,
            WireSpec {
                systems: strings(&["2", "4"]),
                coolings: strings(&["air", "fixed:1"]),
                policies: strings(&["lb", "talb"]),
                workloads: strings(&["gzip", "Web-med"]),
                seeds: vec![1, 2, 3],
                grid_mm: vec![1.0, 2.5],
                duration_s: 10.0,
                dpm: true,
            }
        );
        assert_eq!(spec.expand().unwrap().len(), 2 * 2 * 2 * 2 * 3 * 2);
    }

    #[test]
    fn all_workloads_and_seed_ranges_expand() {
        let spec = apply(&[
            "--workloads",
            "gzip",
            "--workloads",
            "all",
            "--seeds",
            "0..2",
        ])
        .unwrap();
        assert_eq!(spec.workloads, WireSpec::default().workloads);
        assert_eq!(spec.workloads.len(), 8);
        assert_eq!(spec.seeds, vec![0, 1]);
        assert_eq!(spec.cell_count(), 16);
    }

    #[test]
    fn a_flag_that_is_not_a_spec_flag_is_left_alone() {
        let mut spec = WireSpec::default();
        let mut rest = vec!["4".to_string()].into_iter();
        assert_eq!(spec.apply_flag("--threads", &mut rest), Ok(false));
        assert_eq!(rest.next().as_deref(), Some("4"), "its value is not taken");
        assert_eq!(spec, WireSpec::default());
    }

    #[test]
    fn a_missing_value_or_a_bad_number_is_an_error() {
        assert_eq!(
            apply(&["--seeds"]).unwrap_err(),
            "flag `--seeds` needs a value"
        );
        assert_eq!(apply(&["--seeds", "0..x"]).unwrap_err(), "bad seed `x`");
        assert_eq!(apply(&["--seeds", "1,b"]).unwrap_err(), "bad seed `b`");
        assert_eq!(
            apply(&["--grid-mm", "fine"]).unwrap_err(),
            "bad grid size `fine`"
        );
        assert_eq!(
            apply(&["--duration", "10s"]).unwrap_err(),
            "bad duration `10s`"
        );
        // Tokens are checked by the one grammar, not by the flag parser.
        let spec = apply(&["--cooling", "water"]).unwrap();
        assert_eq!(
            spec.to_sweep_spec().unwrap_err(),
            "bad cooling token `water`"
        );
    }

    #[test]
    fn keys_round_trip_all_64_bits() {
        for key in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            assert_eq!(key_from_json(&key_to_json(key)).unwrap(), key);
        }
    }
}
