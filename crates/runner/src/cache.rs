//! Content-addressed result cache: [`SimConfig::cache_key`] → [`SimReport`].
//!
//! Two tiers:
//!
//! * an **in-memory** map, always on — repeated cells inside one sweep
//!   (or across sweeps sharing a [`SweepRunner`](crate::SweepRunner))
//!   simulate once;
//! * an optional **on-disk** store (default `target/vfc-cache/`): one
//!   JSON file per key, so separate processes — e.g. consecutive
//!   `all_figures` runs — skip already-simulated cells.
//!
//! Disk entries are versioned ([`DISK_FORMAT_VERSION`]) and written via
//! temp-file + atomic rename, with an FNV-1a checksum over the encoded
//! report so a torn write that still parses as JSON is detected rather
//! than served as garbage. An entry with an unknown version, a parse
//! failure or a checksum mismatch is treated as a miss, **evicted from
//! disk** (so the next store rewrites it cleanly) and counted
//! ([`ResultCache::corrupt_evictions`], `runner.cache.corrupt_evictions`)
//! — never trusted, never surfaced as an error. Entries written before
//! the checksum existed carry no `checksum` member and are accepted
//! as-is. The config hash itself is versioned on the `vfc_sim` side, so
//! engine changes invalidate old keys outright.
//!
//! [`SimConfig::cache_key`]: vfc_sim::SimConfig::cache_key

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use vfc_sim::SimReport;

use crate::json::{string_member, u64_member, JsonCodec, JsonValue};
use crate::RunnerError;

/// Version stamp written into every on-disk entry.
pub const DISK_FORMAT_VERSION: u64 = 1;

/// FNV-1a 64-bit over raw bytes — the entry checksum. Matches the cache
/// key's hash family (stable across processes and machines, no seeding).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Environment variable bounding the on-disk cache size, in megabytes.
/// Unset (the default) means unbounded.
pub const CACHE_MAX_MB_ENV: &str = "VFC_CACHE_MAX_MB";

/// The workspace-anchored `target/` directory: `CARGO_TARGET_DIR` if
/// set, else `target/` under the enclosing workspace root (found by
/// walking up from the current directory to the nearest `Cargo.lock`).
///
/// Anchoring on the workspace root matters: `cargo test` runs each
/// crate's tests from that crate's own directory, and a cwd-relative
/// default would fragment per-launch-directory state (and litter
/// unignored `target/` directories inside `crates/*`). Shared by the
/// result cache (`target/vfc-cache/`) and the perf-record writer in
/// `vfc_bench` (`target/bench/`).
pub fn default_target_dir() -> PathBuf {
    if let Some(target) = std::env::var_os("CARGO_TARGET_DIR") {
        return PathBuf::from(target);
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").is_file() {
            return dir.join("target");
        }
        if !dir.pop() {
            return PathBuf::from("target");
        }
    }
}

/// The default on-disk store location: `VFC_CACHE_DIR` if set, else
/// `vfc-cache/` inside [`default_target_dir`].
pub fn default_cache_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("VFC_CACHE_DIR") {
        return PathBuf::from(dir);
    }
    default_target_dir().join("vfc-cache")
}

/// The size budget from [`CACHE_MAX_MB_ENV`] (see [`parse_max_mb`]).
fn env_max_bytes() -> Option<u64> {
    parse_max_mb(&std::env::var(CACHE_MAX_MB_ENV).ok()?)
}

/// A [`CACHE_MAX_MB_ENV`] value as a budget in bytes: a positive whole
/// number of megabytes. Zero, anything unparseable and a budget too
/// large to count in bytes mean unbounded (`None`).
fn parse_max_mb(raw: &str) -> Option<u64> {
    raw.trim()
        .parse::<u64>()
        .ok()?
        .checked_mul(1024 * 1024)
        .filter(|&bytes| bytes > 0)
}

/// The two-tier result cache. All methods are `&self` and thread-safe;
/// the executor's workers share one instance.
#[derive(Debug)]
pub struct ResultCache {
    memory: Mutex<HashMap<u64, SimReport>>,
    disk: Option<DiskStore>,
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl ResultCache {
    /// A purely in-memory cache.
    pub fn in_memory() -> Self {
        Self {
            memory: Mutex::new(HashMap::new()),
            disk: None,
        }
    }

    /// A cache backed by a directory of JSON entries (created on first
    /// store). Existing entries become visible immediately. The disk
    /// tier's size budget comes from [`CACHE_MAX_MB_ENV`] (unset:
    /// unbounded).
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        Self {
            memory: Mutex::new(HashMap::new()),
            disk: Some(DiskStore::new(dir.into(), env_max_bytes())),
        }
    }

    /// Caps the on-disk tier at `max_bytes` of entry files: after every
    /// store, the oldest entries (LRU by file mtime — loads do not touch
    /// entries, so this is strictly store-ordered) are evicted until the
    /// tier fits the budget again. Long-lived caches (a datacenter sweep
    /// service rerunning daily) stay bounded; evicted cells simply
    /// re-simulate on their next miss. No-op without a disk tier.
    #[cfg(test)]
    pub(crate) fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        if let Some(disk) = &mut self.disk {
            disk.max_bytes = Some(max_bytes);
        }
        self
    }

    /// The memory tier, locked. No holder panics while it holds the
    /// lock: it only reads, clones or inserts.
    fn memory(&self) -> MutexGuard<'_, HashMap<u64, SimReport>> {
        self.memory.lock().expect("cache poisoned")
    }

    /// Whether a disk tier is attached.
    pub fn has_disk_store(&self) -> bool {
        self.disk.is_some()
    }

    /// Looks `key` up: memory first, then disk (promoting a disk hit
    /// into memory). Disk corruption is a miss, not an error.
    pub fn get(&self, key: u64) -> Option<SimReport> {
        let hit = self.memory().get(&key).cloned();
        if let Some(hit) = hit {
            vfc_obs::counter_add("runner.cache.hits", 1);
            return Some(hit);
        }
        match self.disk.as_ref().and_then(|disk| disk.load(key)) {
            Some(disk_hit) => {
                vfc_obs::counter_add("runner.cache.hits", 1);
                vfc_obs::counter_add("runner.cache.disk_promotions", 1);
                self.memory().insert(key, disk_hit.clone());
                Some(disk_hit)
            }
            None => {
                vfc_obs::counter_add("runner.cache.misses", 1);
                None
            }
        }
    }

    /// Stores a freshly simulated report under `key`. Disk failures are
    /// reported but non-fatal by design — the caller already holds the
    /// result, and a read-only filesystem must not fail a sweep.
    pub fn insert(&self, key: u64, report: &SimReport) -> Result<(), RunnerError> {
        vfc_obs::counter_add("runner.cache.stores", 1);
        self.memory().insert(key, report.clone());
        match &self.disk {
            Some(disk) => disk.store(key, report),
            None => Ok(()),
        }
    }

    /// Entry files evicted from the disk tier by this instance's budget
    /// enforcement (0 without a disk tier; LRU-by-mtime eviction was
    /// previously silent).
    pub(crate) fn evictions(&self) -> u64 {
        self.disk.as_ref().map_or(0, |disk| {
            disk.evicted.load(std::sync::atomic::Ordering::Relaxed)
        })
    }

    /// Corrupt entry files evicted on the *read* path by this instance:
    /// unparseable JSON, a key that does not match the filename, or an
    /// unreadable file. Each was treated as a plain miss (the cell
    /// re-simulates), deleted so the next store rewrites it cleanly, and
    /// counted — never propagated as an error.
    pub(crate) fn corrupt_evictions(&self) -> u64 {
        self.disk.as_ref().map_or(0, |disk| {
            disk.corrupt.load(std::sync::atomic::Ordering::Relaxed)
        })
    }

    /// Number of in-memory entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.memory().len()
    }
}

/// The on-disk tier: `<dir>/<key:016x>.json` per entry.
#[derive(Debug)]
struct DiskStore {
    dir: PathBuf,
    /// Size budget for the entry files; `None` = unbounded.
    max_bytes: Option<u64>,
    /// Running total of entry-file bytes, maintained so the common
    /// under-budget store is O(1) — the directory is only walked on the
    /// first budgeted store (seeding) and when the total exceeds the
    /// budget (the eviction pass re-derives the authoritative total,
    /// which also corrects drift from concurrent writer processes).
    tracked_bytes: Mutex<Option<u64>>,
    /// Entry files evicted by this instance (surfaced via
    /// [`ResultCache::evictions`] and the `runner.cache.evictions`
    /// telemetry counter).
    evicted: std::sync::atomic::AtomicU64,
    /// Corrupt entry files evicted on the read path (surfaced via
    /// [`ResultCache::corrupt_evictions`] and the
    /// `runner.cache.corrupt_evictions` telemetry counter).
    corrupt: std::sync::atomic::AtomicU64,
}

impl DiskStore {
    fn new(dir: PathBuf, max_bytes: Option<u64>) -> Self {
        Self {
            dir,
            max_bytes,
            tracked_bytes: Mutex::new(None),
            evicted: std::sync::atomic::AtomicU64::new(0),
            corrupt: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    fn load(&self, key: u64) -> Option<SimReport> {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            // Absent file: the ordinary cold miss, nothing to clean up.
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return None,
            // Present but unreadable (non-UTF-8, permissions): as good
            // as corrupt.
            Err(_) => return self.evict_corrupt(&path),
        };
        let decode = || -> Option<SimReport> {
            let doc = JsonValue::parse(&text).ok()?;
            if u64_member(&doc, "cache entry", "version").ok()? != DISK_FORMAT_VERSION {
                return None;
            }
            if u64::from_str_radix(&string_member(&doc, "cache entry", "key").ok()?, 16).ok()?
                != key
            {
                return None;
            }
            let report_json = doc.get("report")?;
            // Checksum, when present, must match the re-encoded report
            // member: a torn or bit-flipped write that still parses as
            // JSON is caught here instead of surfacing as garbage
            // physics. Entries written before the checksum existed have
            // no member and are accepted as-is (legacy tolerance).
            if let Ok(stored) = string_member(&doc, "cache entry", "checksum") {
                let stored = u64::from_str_radix(&stored, 16).ok()?;
                if fnv1a(report_json.encode().as_bytes()) != stored {
                    return None;
                }
            }
            SimReport::from_json(report_json).ok()
        };
        match decode() {
            Some(report) => Some(report),
            None => self.evict_corrupt(&path),
        }
    }

    /// Read-path handling of an entry that exists but cannot be trusted
    /// (unparseable, wrong key, stale format, unreadable): treat it as a
    /// miss, delete it (best-effort) so the next store rewrites it
    /// cleanly, and count it. Returning `Option` keeps every caller on
    /// the miss path — corruption is never an error.
    fn evict_corrupt(&self, path: &Path) -> Option<SimReport> {
        let _ = std::fs::remove_file(path);
        self.corrupt
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        vfc_obs::counter_add("runner.cache.corrupt_evictions", 1);
        None
    }

    fn store(&self, key: u64, report: &SimReport) -> Result<(), RunnerError> {
        std::fs::create_dir_all(&self.dir).map_err(|source| RunnerError::Io {
            context: format!("creating cache dir {}", self.dir.display()),
            source,
        })?;
        // The checksum covers the encoded `report` member. The codec is
        // round-trip exact (parse∘encode is identity on encoder output),
        // so the read path can re-derive the same bytes from the parsed
        // document and compare — no second copy of the payload on disk.
        let report_json = report.to_json();
        let checksum = fnv1a(report_json.encode().as_bytes());
        let doc = JsonValue::Object(vec![
            (
                "version".into(),
                JsonValue::Number(DISK_FORMAT_VERSION as f64),
            ),
            ("key".into(), JsonValue::String(format!("{key:016x}"))),
            (
                "checksum".into(),
                JsonValue::String(format!("{checksum:016x}")),
            ),
            ("report".into(), report_json),
        ]);
        let encoded = doc.encode();
        write_atomically(&self.entry_path(key), &encoded)?;
        self.enforce_budget(key, encoded.len() as u64);
        Ok(())
    }

    /// Charges the just-written entry against the running total and,
    /// only when the budget is exceeded (or on the first budgeted
    /// store), walks the directory to evict the oldest entry files (by
    /// mtime, filename tie-break) until the tier fits — sparing the
    /// entry just written. Best-effort by design: I/O failures here
    /// must not fail the store — the caller already holds the result.
    fn enforce_budget(&self, just_written: u64, written_bytes: u64) {
        let Some(budget) = self.max_bytes else {
            return;
        };
        let mut tracked = self.tracked_bytes.lock().expect("cache budget poisoned");
        match *tracked {
            // Common case: known total, still within budget — O(1).
            Some(total) if total + written_bytes <= budget => {
                *tracked = Some(total + written_bytes);
            }
            // First budgeted store (seed the total) or budget exceeded:
            // walk the directory once and evict as needed; the walk
            // re-derives the authoritative total either way.
            _ => *tracked = Some(self.evict_to_budget(budget, just_written)),
        }
    }

    /// The directory walk + eviction pass; returns the resulting total.
    fn evict_to_budget(&self, budget: u64, just_written: u64) -> u64 {
        let Ok(listing) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        let keep = self.entry_path(just_written);
        let mut entries: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
        let mut total = 0u64;
        for item in listing.flatten() {
            let path = item.path();
            // Only content entries count toward (and are charged to) the
            // budget; in-flight temp files are exempt.
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let Ok(meta) = item.metadata() else { continue };
            let size = meta.len();
            total += size;
            if path != keep {
                let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                entries.push((mtime, path, size));
            }
        }
        if total <= budget {
            return total;
        }
        entries.sort();
        for (_, path, size) in entries {
            if total <= budget {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(size);
                self.evicted
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                vfc_obs::counter_add("runner.cache.evictions", 1);
            }
        }
        total
    }
}

/// Writes via a sibling temp file + rename so concurrent readers never
/// observe a half-written entry. The temp name carries the pid and a
/// process-wide counter so concurrent writers (even of the same key)
/// never truncate each other's in-flight temp file.
fn write_atomically(path: &Path, contents: &str) -> Result<(), RunnerError> {
    static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
    let io_err =
        |context: String| move |source: std::io::Error| RunnerError::Io { context, source };
    {
        let mut f =
            std::fs::File::create(&tmp).map_err(io_err(format!("creating {}", tmp.display())))?;
        f.write_all(contents.as_bytes())
            .map_err(io_err(format!("writing {}", tmp.display())))?;
    }
    std::fs::rename(&tmp, path).map_err(io_err(format!("renaming to {}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_units::{Celsius, Energy, Seconds};

    fn report(label: &str) -> SimReport {
        SimReport {
            label: label.into(),
            system: "2-layer".into(),
            workload: "gzip".into(),
            duration: Seconds::new(8.0),
            samples: 80,
            hot_spot_pct: 0.0,
            above_target_pct: 0.0,
            gradient_pct: 1.0,
            gradient_minor_pct: 2.0,
            cycle_pct: 0.0,
            cycle_minor_pct: 0.0,
            chip_energy: Energy::new(100.0),
            pump_energy: Energy::new(50.0),
            completed_threads: 10,
            throughput: 1.25,
            migrations: 0,
            mean_temperature: Celsius::new(65.0),
            max_temperature: Celsius::new(70.0),
            controller_switches: 0,
            forecast_mae: None,
            predictor_refits: 0,
            mean_flow_setting: None,
            tmax_series: None,
            flow_series: None,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vfc-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_cache_round_trip() {
        let cache = ResultCache::in_memory();
        assert!(cache.get(1).is_none());
        cache.insert(1, &report("a")).unwrap();
        assert_eq!(cache.get(1).unwrap().label, "a");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disk_cache_survives_a_new_instance() {
        let dir = temp_dir("persist");
        {
            let cache = ResultCache::on_disk(&dir);
            cache.insert(0xfeed, &report("persisted")).unwrap();
            cache.insert(0xbeef, &report("other")).unwrap();
        }
        let fresh = ResultCache::on_disk(&dir);
        assert_eq!(fresh.get(0xfeed).unwrap().label, "persisted");
        assert_eq!(fresh.get(0xbeef).unwrap().label, "other");
        assert!(fresh.get(0xdead).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_disk_entries_are_evicted_counted_misses() {
        let dir = temp_dir("corrupt");
        let cache = ResultCache::on_disk(&dir);
        cache.insert(7, &report("ok")).unwrap();
        let entry = dir.join(format!("{:016x}.json", 7));
        std::fs::write(&entry, "{not json").unwrap();
        let fresh = ResultCache::on_disk(&dir);
        assert!(fresh.get(7).is_none(), "corruption is a miss");
        assert_eq!(fresh.corrupt_evictions(), 1, "and it is counted");
        assert!(!entry.exists(), "the bad file is gone");
        // With the debris cleared, re-reading is now a plain (uncounted)
        // cold miss, and a fresh store round-trips again.
        assert!(fresh.get(7).is_none());
        assert_eq!(fresh.corrupt_evictions(), 1);
        fresh.insert(7, &report("rewritten")).unwrap();
        assert_eq!(
            ResultCache::on_disk(&dir).get(7).unwrap().label,
            "rewritten"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksum_catches_parseable_corruption() {
        let dir = temp_dir("checksum");
        let cache = ResultCache::on_disk(&dir);
        cache.insert(9, &report("honest")).unwrap();
        let entry = dir.join(format!("{:016x}.json", 9));
        // Flip one digit inside the report payload: the file still
        // parses as valid JSON with the right version and key, so only
        // the checksum can tell it was torn.
        let text = std::fs::read_to_string(&entry).unwrap();
        let tampered = text.replace("\"throughput\":1.25", "\"throughput\":9.25");
        assert_ne!(text, tampered, "tamper target must exist in the entry");
        std::fs::write(&entry, tampered).unwrap();
        let fresh = ResultCache::on_disk(&dir);
        assert!(fresh.get(9).is_none(), "tampered entry must be a miss");
        assert_eq!(fresh.corrupt_evictions(), 1, "and a counted eviction");
        assert!(!entry.exists(), "the torn file is gone");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_entries_without_checksum_still_read() {
        let dir = temp_dir("legacy");
        let cache = ResultCache::on_disk(&dir);
        cache.insert(11, &report("legacy")).unwrap();
        let entry = dir.join(format!("{:016x}.json", 11));
        // Rewrite the entry as a pre-checksum process would have: same
        // document, checksum member stripped.
        let doc = JsonValue::parse(&std::fs::read_to_string(&entry).unwrap()).unwrap();
        let JsonValue::Object(members) = doc else {
            panic!("entry must be an object");
        };
        let stripped: Vec<_> = members
            .into_iter()
            .filter(|(name, _)| name != "checksum")
            .collect();
        std::fs::write(&entry, JsonValue::Object(stripped).encode()).unwrap();
        let fresh = ResultCache::on_disk(&dir);
        assert_eq!(
            fresh.get(11).unwrap().label,
            "legacy",
            "missing checksum = legacy entry, accepted"
        );
        assert_eq!(fresh.corrupt_evictions(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn size_budget_evicts_oldest_entries_first() {
        let dir = temp_dir("evict");
        // Budget sized so two entries fit but three do not (entries are
        // a few hundred bytes each).
        let one = {
            let cache = ResultCache::on_disk(&dir);
            cache.insert(1, &report("one")).unwrap();
            std::fs::metadata(dir.join(format!("{:016x}.json", 1)))
                .unwrap()
                .len()
        };
        let cache = ResultCache::on_disk(&dir).with_max_bytes(one * 2 + one / 2);
        assert_eq!(cache.evictions(), 0);
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.insert(2, &report("two")).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.insert(3, &report("three")).unwrap();

        // Entry 1 (oldest mtime) was evicted; 2 and 3 survive.
        let fresh = ResultCache::on_disk(&dir);
        assert!(fresh.get(1).is_none(), "oldest entry must be evicted");
        assert_eq!(fresh.get(2).unwrap().label, "two");
        assert_eq!(fresh.get(3).unwrap().label, "three");
        assert_eq!(cache.evictions(), 1, "the eviction must be counted");

        // An evicted cell is an ordinary miss: re-storing repopulates it
        // (and the budget now evicts entry 2, the new oldest).
        cache.insert(1, &report("one again")).unwrap();
        let after = ResultCache::on_disk(&dir);
        assert_eq!(after.get(1).unwrap().label, "one again");
        assert_eq!(cache.evictions(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unbudgeted_caches_never_evict() {
        let dir = temp_dir("no-evict");
        let cache = ResultCache::on_disk(&dir);
        for key in 0..6u64 {
            cache.insert(key, &report(&format!("r{key}"))).unwrap();
        }
        let fresh = ResultCache::on_disk(&dir);
        for key in 0..6u64 {
            assert!(fresh.get(key).is_some(), "entry {key} must persist");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_newest_entry_is_never_evicted() {
        let dir = temp_dir("keep-newest");
        // A budget of one byte cannot even hold the entry just written;
        // eviction must still spare it (evicting what you just stored
        // would make the cache useless under any undersized budget).
        let cache = ResultCache::on_disk(&dir).with_max_bytes(1);
        cache.insert(7, &report("seven")).unwrap();
        let fresh = ResultCache::on_disk(&dir);
        assert_eq!(fresh.get(7).unwrap().label, "seven");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_budget_parses_whole_megabytes_and_never_wraps() {
        assert_eq!(parse_max_mb("64"), Some(64 * 1024 * 1024));
        assert_eq!(parse_max_mb(" 64\n"), Some(64 * 1024 * 1024));
        for unbounded in ["0", "", "x", "-1", "1.5"] {
            assert_eq!(parse_max_mb(unbounded), None, "{unbounded:?}");
        }
        // 2^44 MB is 2^64 bytes: a wrapping multiply would turn it into
        // a zero budget, which evicts every other entry on each store.
        assert_eq!(parse_max_mb("17592186044416"), None);
        assert_eq!(
            parse_max_mb("17592186044415"),
            Some(17_592_186_044_415 * 1024 * 1024)
        );
    }
}
