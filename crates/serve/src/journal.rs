//! The store journal: what makes a killed-mid-sweep server resumable.
//!
//! Append-only `journal.jsonl` next to the disk cache. Two events:
//!
//! ```text
//! {"v":1,"ev":"submit","id":3,"spec":{...}}   // fsynced before Accepted
//! {"v":1,"ev":"done","id":3}                  // flushed, not fsynced
//! ```
//!
//! A sweep is **pending** when its `submit` has no matching `done`. On
//! restart the server replays every pending spec through the result
//! cache: completed cells are warm (zero recompute), only cold cells
//! re-run. The asymmetric durability is deliberate — losing a `done`
//! line to a crash only costs one spurious (fully cache-warm) replay,
//! while losing a `submit` line would lose acknowledged work, so
//! `submit` lines are fsynced before the client ever sees `Accepted`
//! and `done` lines are merely flushed.
//!
//! Torn tails (a crash mid-append) parse as garbage and are skipped
//! line by line, same policy as the cache index.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use vfc_runner::json::JsonValue;

use crate::protocol::WireSpec;

/// Journal format version, bumped on incompatible line-shape changes.
pub const JOURNAL_VERSION: u64 = 1;

/// File name inside the cache directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// A journaled sweep whose `done` record is missing: replay it.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingSweep {
    /// The submission id (unique within one journal file).
    pub id: u64,
    /// The sweep as submitted.
    pub spec: WireSpec,
}

/// The append handle. All methods are `&self` and thread-safe.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<Option<std::fs::File>>,
    next_id: std::sync::atomic::AtomicU64,
}

impl Journal {
    /// Opens (creating the directory if needed) the journal under
    /// `cache_dir` and returns it with the sweeps left pending by the
    /// previous process — the replay work list.
    ///
    /// # Errors
    ///
    /// Only directory-creation failure; an unreadable or torn journal
    /// degrades to "nothing pending", never an error.
    pub fn open(cache_dir: &Path) -> std::io::Result<(Self, Vec<PendingSweep>)> {
        std::fs::create_dir_all(cache_dir)?;
        let path = cache_dir.join(JOURNAL_FILE);
        let (pending, max_id) = read_pending(&path);
        let journal = Self {
            path,
            file: Mutex::new(None),
            next_id: std::sync::atomic::AtomicU64::new(max_id + 1),
        };
        Ok((journal, pending))
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records an accepted sweep **durably** (the line is fsynced
    /// before this returns) and hands back its submission id. Call
    /// before acknowledging the client: once `Accepted` is on the wire,
    /// a crash must not forget the sweep.
    ///
    /// # Errors
    ///
    /// The underlying append/fsync failure.
    pub fn record_submit(&self, spec: &WireSpec) -> std::io::Result<u64> {
        let id = self
            .next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let line = JsonValue::Object(vec![
            ("v".into(), JsonValue::Number(JOURNAL_VERSION as f64)),
            ("ev".into(), JsonValue::String("submit".into())),
            ("id".into(), JsonValue::Number(id as f64)),
            ("spec".into(), spec.to_json()),
        ]);
        self.append(&line, true)?;
        Ok(id)
    }

    /// Records a sweep's completion. Best-effort flush, no fsync: a
    /// lost `done` line costs one cache-warm replay, nothing more.
    pub fn record_done(&self, id: u64) {
        let line = JsonValue::Object(vec![
            ("v".into(), JsonValue::Number(JOURNAL_VERSION as f64)),
            ("ev".into(), JsonValue::String("done".into())),
            ("id".into(), JsonValue::Number(id as f64)),
        ]);
        if let Err(e) = self.append(&line, false) {
            eprintln!("vfc_serve: journal done append failed ({e}); continuing");
        }
    }

    // The file lock stays held across the write and the fsync: appends
    // land whole and in order, and a durable record is on disk before
    // the caller acknowledges it.
    #[allow(clippy::significant_drop_tightening)]
    fn append(&self, line: &JsonValue, durable: bool) -> std::io::Result<()> {
        let mut guard = self.file.lock().expect("journal lock poisoned");
        if guard.is_none() {
            *guard = Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)?,
            );
        }
        let file = guard.as_mut().expect("just opened");
        file.write_all(format!("{}\n", line.encode()).as_bytes())?;
        if durable {
            file.sync_data()?;
        }
        Ok(())
    }
}

/// Scans the journal: pending sweeps (submit without done, in submit
/// order) and the highest id seen. Unparseable lines — the torn tail
/// of a crashed append — are skipped.
fn read_pending(path: &Path) -> (Vec<PendingSweep>, u64) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return (Vec::new(), 0);
    };
    let mut pending: Vec<PendingSweep> = Vec::new();
    let mut max_id = 0u64;
    for line in text.lines() {
        let Ok(doc) = JsonValue::parse(line) else {
            continue;
        };
        if doc.get("v").and_then(JsonValue::as_u64) != Some(JOURNAL_VERSION) {
            continue;
        }
        let Some(id) = doc.get("id").and_then(JsonValue::as_u64) else {
            continue;
        };
        max_id = max_id.max(id);
        match doc.get("ev").and_then(JsonValue::as_str) {
            Some("submit") => {
                let Some(spec) = doc.get("spec") else {
                    continue;
                };
                let Ok(spec) = WireSpec::from_json(spec) else {
                    continue;
                };
                pending.push(PendingSweep { id, spec });
            }
            Some("done") => pending.retain(|p| p.id != id),
            _ => {}
        }
    }
    (pending, max_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vfc-journal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn submit_without_done_is_pending_after_reopen() {
        let dir = temp_dir("pending");
        let (journal, pending) = Journal::open(&dir).unwrap();
        assert!(pending.is_empty(), "a fresh journal has nothing pending");
        let spec = WireSpec::default();
        let id_a = journal.record_submit(&spec).unwrap();
        let id_b = journal.record_submit(&spec).unwrap();
        assert_ne!(id_a, id_b);
        journal.record_done(id_a);
        drop(journal);

        let (journal, pending) = Journal::open(&dir).unwrap();
        assert_eq!(pending.len(), 1, "only the un-done sweep replays");
        assert_eq!(pending[0].id, id_b);
        assert_eq!(pending[0].spec, spec);
        // Ids keep counting up across restarts — no reuse.
        assert!(journal.record_submit(&spec).unwrap() > id_b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn done_clears_pending() {
        let dir = temp_dir("done");
        let (journal, _) = Journal::open(&dir).unwrap();
        let id = journal.record_submit(&WireSpec::default()).unwrap();
        journal.record_done(id);
        drop(journal);
        let (_, pending) = Journal::open(&dir).unwrap();
        assert!(pending.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_lines_are_skipped() {
        let dir = temp_dir("torn");
        let (journal, _) = Journal::open(&dir).unwrap();
        let id = journal.record_submit(&WireSpec::default()).unwrap();
        drop(journal);
        // A crash mid-append leaves a torn line at the tail.
        std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(JOURNAL_FILE))
            .unwrap()
            .write_all(b"{\"v\":1,\"ev\":\"don")
            .unwrap();
        let (_, pending) = Journal::open(&dir).unwrap();
        assert_eq!(pending.len(), 1, "the torn done must not clear the submit");
        assert_eq!(pending[0].id, id);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_missing_journal_is_empty_not_an_error() {
        let dir = temp_dir("missing");
        let (_, pending) = Journal::open(&dir).unwrap();
        assert!(pending.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
