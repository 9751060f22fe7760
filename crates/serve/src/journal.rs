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
//! A crash mid-append leaves a torn last line. `open` cuts it off the
//! file before anything appends, so the next record starts a line of its
//! own instead of joining the fragment. A complete line that does not
//! parse is skipped.

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
    /// Directory creation, or cutting a torn tail off the file. An
    /// unreadable journal degrades to "nothing pending".
    pub fn open(cache_dir: &Path) -> std::io::Result<(Self, Vec<PendingSweep>)> {
        std::fs::create_dir_all(cache_dir)?;
        let path = cache_dir.join(JOURNAL_FILE);
        let (pending, max_id) = read_pending(&complete_lines(&path)?);
        let journal = Self {
            path,
            file: Mutex::new(None),
            next_id: std::sync::atomic::AtomicU64::new(max_id + 1),
        };
        Ok((journal, pending))
    }

    /// Records an accepted sweep **durably** (the line is fsynced
    /// before this returns) and hands back its submission id. Call
    /// before acknowledging the client: once `Accepted` is on the wire,
    /// a crash must not forget the sweep.
    ///
    /// # Errors
    ///
    /// The underlying append/fsync failure.
    pub(crate) fn record_submit(&self, spec: &WireSpec) -> std::io::Result<u64> {
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
    pub(crate) fn record_done(&self, id: u64) {
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

/// The journal's complete (newline-terminated) lines. A torn tail after
/// the last newline is truncated away and the cut fsynced, so the next
/// append cannot land on the same line as the fragment.
fn complete_lines(path: &Path) -> std::io::Result<String> {
    let Ok(mut bytes) = std::fs::read(path) else {
        return Ok(String::new());
    };
    let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    if complete < bytes.len() {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(complete as u64)?;
        file.sync_all()?;
        bytes.truncate(complete);
    }
    Ok(String::from_utf8_lossy(&bytes).into_owned())
}

/// Scans the journal text: pending sweeps (submit without done, in
/// submit order) and the highest id seen. Lines that do not parse are
/// skipped.
fn read_pending(text: &str) -> (Vec<PendingSweep>, u64) {
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
    fn a_submit_after_a_torn_tail_survives_at_every_cut() {
        let dir = temp_dir("every-cut");
        let (journal, _) = Journal::open(&dir).unwrap();
        let spec = WireSpec::default();
        let first = journal.record_submit(&spec).unwrap();
        let second = journal.record_submit(&spec).unwrap();
        journal.record_done(first);
        drop(journal);
        let path = dir.join(JOURNAL_FILE);
        let full = std::fs::read(&path).unwrap();
        // The byte offset just past each line's newline: submit(first),
        // submit(second), done(first).
        let ends: Vec<usize> = full
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(ends.len(), 3);

        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (journal, before) = Journal::open(&dir)
                .unwrap_or_else(|e| panic!("cut at byte {cut}: open failed: {e}"));
            // Pending: a submit whose line is whole, without a whole done.
            let mut expected: Vec<u64> = Vec::new();
            if ends[0] <= cut && ends[2] > cut {
                expected.push(first);
            }
            if ends[1] <= cut {
                expected.push(second);
            }
            let pending: Vec<u64> = before.iter().map(|p| p.id).collect();
            assert_eq!(pending, expected, "cut at byte {cut}: wrong pending set");

            let id = journal.record_submit(&spec).unwrap();
            drop(journal);
            let (_, after) = Journal::open(&dir)
                .unwrap_or_else(|e| panic!("cut at byte {cut}: reopen failed: {e}"));
            expected.push(id);
            let pending: Vec<u64> = after.iter().map(|p| p.id).collect();
            assert_eq!(
                pending, expected,
                "cut at byte {cut}: the new submit must stay pending"
            );

            let text = std::fs::read_to_string(&path).unwrap();
            let mut submitted: Vec<u64> = text
                .lines()
                .filter_map(|line| JsonValue::parse(line).ok())
                .filter(|doc| doc.get("ev").and_then(JsonValue::as_str) == Some("submit"))
                .filter_map(|doc| doc.get("id").and_then(JsonValue::as_u64))
                .collect();
            let count = submitted.len();
            submitted.sort_unstable();
            submitted.dedup();
            assert_eq!(
                submitted.len(),
                count,
                "cut at byte {cut}: an id was handed out twice"
            );
        }
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
