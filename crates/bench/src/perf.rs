//! Machine-readable perf records: repo-root `BENCH_<name>.json` (the
//! committed, PR-to-PR perf trajectory) plus a `target/bench/` copy.
//!
//! The human-readable tables the bench binaries print are useless for
//! tracking the perf trajectory across PRs, so `grid_convergence` and
//! `transient_bench` also emit one JSON file per run — a flat list of
//! measurements tagged with everything needed to compare like against
//! like (grid, node count, preconditioner), including the
//! **deterministic Krylov iteration count** where the scenario has one.
//! Records are written to two places:
//!
//! * the workspace root (`BENCH_<name>.json`) — checked into the repo,
//!   so the perf trajectory is reviewable between PRs, and the
//!   iteration-gate test (`crates/bench/tests/gates.rs`) can diff live
//!   runs against the committed record (iteration counts are
//!   bit-deterministic, so they must match **exactly** on any machine;
//!   wall-clock `ms` is informational). Only a full run (`--fine`)
//!   writes it, and it replaces the whole file, so the committed record
//!   holds exactly the rows the current code produced;
//! * `target/bench/BENCH_<name>.json` — the per-run copy, written by
//!   every run.

use std::path::PathBuf;

use vfc::runner::json::JsonValue;

/// One timed measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRecord {
    /// Scenario label within the bench (e.g. `steady` / `transient`).
    pub case: String,
    /// Thermal grid cell edge, millimetres.
    pub grid_mm: f64,
    /// Node count of the solved system.
    pub nodes: usize,
    /// Preconditioner label (see [`precond_label`]).
    pub precond: String,
    /// Measured wall-clock milliseconds (median unless noted by `case`).
    pub ms: f64,
    /// Total Krylov iterations of the scenario — bit-deterministic
    /// (machine-independent), so regression gates can
    /// require exact equality. `0` when the scenario does not track
    /// iterations.
    pub iters: usize,
    /// Hostname the measurement was taken on, best effort
    /// ([`host_label`]) — provenance only, never compared by gates.
    pub host: String,
    /// Logical CPU count of the measuring machine, best effort
    /// ([`cpu_count`]) — provenance only, never compared by gates.
    pub cpus: usize,
}

impl PerfRecord {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("case".into(), JsonValue::String(self.case.clone())),
            ("grid_mm".into(), JsonValue::Number(self.grid_mm)),
            ("nodes".into(), JsonValue::Number(self.nodes as f64)),
            ("precond".into(), JsonValue::String(self.precond.clone())),
            ("ms".into(), JsonValue::Number(self.ms)),
            ("iters".into(), JsonValue::Number(self.iters as f64)),
            ("host".into(), JsonValue::String(self.host.clone())),
            ("cpus".into(), JsonValue::Number(self.cpus as f64)),
        ])
    }

    fn from_json(v: &JsonValue) -> Option<Self> {
        let s = |name: &str| match v.get(name) {
            Some(JsonValue::String(s)) => Some(s.clone()),
            _ => None,
        };
        let n = |name: &str| match v.get(name) {
            Some(JsonValue::Number(x)) => Some(*x),
            _ => None,
        };
        Some(Self {
            case: s("case")?,
            grid_mm: n("grid_mm")?,
            nodes: n("nodes")? as usize,
            precond: s("precond")?,
            ms: n("ms")?,
            // Absent in pre-PR 5 records: treat as "not tracked".
            iters: n("iters").unwrap_or(0.0) as usize,
            // Provenance fields are absent in pre-PR 7 records.
            host: s("host").unwrap_or_default(),
            cpus: n("cpus").unwrap_or(0.0) as usize,
        })
    }
}

/// The canonical short label for a preconditioner in perf records and
/// bench tables (the one definition the bench binaries share).
pub fn precond_label(kind: vfc::num::PreconditionerKind) -> &'static str {
    use vfc::num::PreconditionerKind;
    match kind {
        PreconditionerKind::Ilu0 => "ilu0",
        PreconditionerKind::Multigrid => "mg",
    }
}

/// Best-effort hostname for record provenance: `HOSTNAME` env var,
/// then `/etc/hostname`, then `"unknown"`. Never fails — provenance
/// must not be able to break a bench run.
pub fn host_label() -> String {
    if let Ok(h) = std::env::var("HOSTNAME") {
        let h = h.trim().to_string();
        if !h.is_empty() {
            return h;
        }
    }
    if let Ok(h) = std::fs::read_to_string("/etc/hostname") {
        let h = h.trim().to_string();
        if !h.is_empty() {
            return h;
        }
    }
    "unknown".into()
}

/// Best-effort logical CPU count for record provenance (`0` when the
/// platform cannot report it).
pub fn cpu_count() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// Where the scratch records go: `bench/` inside the workspace
/// `target/` (honouring `CARGO_TARGET_DIR`, like the result cache).
pub(crate) fn bench_record_dir() -> PathBuf {
    vfc::runner::default_target_dir().join("bench")
}

/// The workspace root (where the committed `BENCH_*.json` live): the
/// nearest ancestor of the current directory holding a `Cargo.lock`.
pub(crate) fn workspace_root_dir() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").is_file() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn encode(name: &str, records: &[PerfRecord]) -> String {
    let doc = JsonValue::Object(vec![
        ("bench".into(), JsonValue::String(name.to_string())),
        (
            "records".into(),
            JsonValue::Array(records.iter().map(PerfRecord::to_json).collect()),
        ),
    ]);
    format!("{}\n", doc.encode())
}

/// Writes this run's records to `target/bench/BENCH_<name>.json` and,
/// for a full run (`full`), replaces the committed repo-root record with
/// exactly them; returns the path of the last file written.
///
/// Nothing is merged: a committed record holds only rows the current
/// code produced, so a removed variant's rows leave with it. Only a
/// full run may rewrite the root file, so a partial (coarse-grid) run
/// cannot truncate the committed fine-grid rows either. Failures are
/// returned, not panicked — a read-only checkout should not fail a
/// bench run, so callers print-and-continue.
///
/// # Errors
///
/// Any I/O failure creating the directory or writing either file.
pub(crate) fn write_bench_records(
    name: &str,
    records: &[PerfRecord],
    full: bool,
) -> std::io::Result<PathBuf> {
    let root = full.then(workspace_root_dir);
    write_records_in(root.as_deref(), &bench_record_dir(), name, records)
}

/// [`write_bench_records`] with explicit directories: the per-run copy
/// goes to `run_dir`, and the committed copy to `root_dir` when given.
fn write_records_in(
    root_dir: Option<&std::path::Path>,
    run_dir: &std::path::Path,
    name: &str,
    records: &[PerfRecord],
) -> std::io::Result<PathBuf> {
    let file = format!("BENCH_{name}.json");
    std::fs::create_dir_all(run_dir)?;
    let mut written = run_dir.join(&file);
    std::fs::write(&written, encode(name, records))?;
    if let Some(root) = root_dir {
        written = root.join(&file);
        std::fs::write(&written, encode(name, records))?;
    }
    Ok(written)
}

/// Reads a `BENCH_*.json` file back into records.
///
/// # Errors
///
/// I/O failure, or a malformed document.
pub fn read_bench_records(path: &std::path::Path) -> std::io::Result<Vec<PerfRecord>> {
    let text = std::fs::read_to_string(path)?;
    let malformed = |what: &str| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: {what}", path.display()),
        )
    };
    let doc = JsonValue::parse(&text).map_err(|e| malformed(&format!("parse error: {e:?}")))?;
    let Some(JsonValue::Array(items)) = doc.get("records") else {
        return Err(malformed("missing records array"));
    };
    items
        .iter()
        .map(|v| PerfRecord::from_json(v).ok_or_else(|| malformed("malformed record")))
        .collect()
}

/// Writes the records (see `write_bench_records`) and prints where
/// they went (or why they didn't) — the shared tail of every bench
/// binary.
pub fn report_bench_records(name: &str, records: &[PerfRecord], full: bool) {
    match write_bench_records(name, records, full) {
        Ok(path) if full => println!("\nperf records: {} (+ target/bench copy)", path.display()),
        Ok(path) => println!(
            "\nperf records: {} (the committed record is rewritten only by a --fine run)",
            path.display()
        ),
        Err(e) => println!("\nperf records not written: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(case: &str, ms: f64, iters: usize) -> PerfRecord {
        PerfRecord {
            case: case.into(),
            grid_mm: 0.5,
            nodes: 2300,
            precond: "ilu0".into(),
            ms,
            iters,
            host: host_label(),
            cpus: cpu_count(),
        }
    }

    /// A fresh directory under the system temp dir.
    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vfc-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn records_round_trip_through_the_json_codec() {
        let dir = temp_dir("perf");
        let path = dir.join("BENCH_test.json");
        let records = [record("steady", 0.45, 11), record("transient", 9.5, 120)];
        std::fs::write(&path, encode("test", &records)).unwrap();
        let parsed = read_bench_records(&path).unwrap();
        assert_eq!(parsed.as_slice(), records.as_slice());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_iters_records_parse_with_zero_iterations() {
        let v = JsonValue::parse(
            r#"{"case":"steady","grid_mm":0.5,"nodes":2300,"precond":"ilu0","threads":4,"ms":1.5}"#,
        )
        .unwrap();
        let r = PerfRecord::from_json(&v).unwrap();
        assert_eq!(r.iters, 0);
        assert_eq!(r.nodes, 2300);
        assert!(r.host.is_empty() && r.cpus == 0);
    }

    #[test]
    fn committed_record_holds_only_the_full_runs_rows() {
        let root = temp_dir("root");
        let run_dir = root.join("target-bench");
        let path = root.join("BENCH_t.json");
        // A committed record with a row no current variant produces.
        let mut stale = record("transient-gone", 150.0, 1270);
        stale.grid_mm = 0.1;
        let kept = record("transient", 9.5, 120);
        std::fs::write(&path, encode("t", &[stale, kept.clone()])).unwrap();

        // A partial run leaves the committed record alone.
        let coarse = record("transient", 1.2, 270);
        let written = write_records_in(None, &run_dir, "t", std::slice::from_ref(&coarse)).unwrap();
        assert_eq!(written, run_dir.join("BENCH_t.json"));
        assert_eq!(read_bench_records(&written).unwrap(), vec![coarse]);
        assert_eq!(read_bench_records(&path).unwrap().len(), 2);

        // A full run replaces it with exactly its own rows.
        let mut fine = record("transient", 80.0, 280);
        fine.grid_mm = 0.1;
        let run = [kept, fine];
        let written = write_records_in(Some(&root), &run_dir, "t", &run).unwrap();
        assert_eq!(written, path);
        assert_eq!(read_bench_records(&path).unwrap().as_slice(), &run);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn writer_creates_root_and_target_copies() {
        let records = [record("steady", 1.25, 7)];
        let root = write_bench_records("unit_test", &records, true).unwrap();
        assert!(root.ends_with("BENCH_unit_test.json"));
        let scratch = bench_record_dir().join("BENCH_unit_test.json");
        assert_eq!(
            std::fs::read_to_string(&root).unwrap(),
            std::fs::read_to_string(&scratch).unwrap(),
            "root and target copies must match"
        );
        assert_eq!(read_bench_records(&root).unwrap().as_slice(), &records);
        std::fs::remove_file(&root).unwrap();
        std::fs::remove_file(&scratch).unwrap();
    }
}
