//! Content-addressed result cache: [`SimConfig::cache_key`] → [`SimReport`].
//!
//! Two tiers:
//!
//! * an **in-memory** map, always on — repeated cells inside one sweep
//!   (or across sweeps sharing a [`SweepRunner`](crate::SweepRunner))
//!   simulate once. It is also the table concurrent callers meet in:
//!   a key holds a stored report or a running cell, and the runner
//!   finds or claims a key under one lock acquisition, so a cell that
//!   one caller simulates is never simulated by another at the same
//!   time, nor again once its report is stored;
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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

/// The two-tier result cache. All methods are `&self` and thread-safe;
/// the executor's workers share one instance.
#[derive(Debug)]
pub struct ResultCache {
    memory: Mutex<HashMap<u64, Entry>>,
    disk: Option<DiskStore>,
}

/// A memory-tier entry: a stored report, or a key whose lead is still
/// reading the disk or simulating.
// Unboxed: a box would cost an allocation per stored report.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Entry {
    Ready(SimReport),
    Running(Arc<Slot>),
}

/// Where a lead publishes to its followers: `None` while it runs, then
/// `Some(Some(report))`, or `Some(None)` after a failure.
#[derive(Debug, Default)]
pub(crate) struct Slot {
    outcome: Mutex<Option<Option<SimReport>>>,
    done: Condvar,
}

/// What [`ResultCache::claim`] found.
// A hit carries its report by value, as `get` returns it.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Claim<'c> {
    /// The stored report, from either tier.
    Hit(SimReport),
    /// The key is in neither tier and this caller now holds it: it
    /// simulates, stores the report with [`ResultCache::insert`] and
    /// drops the lead.
    Lead(Lead<'c>),
    /// Another caller holds the key: [`Slot::wait`] for its outcome.
    Follow(Arc<Slot>),
}

/// A caller's hold on a key that is in neither tier. Dropping it wakes
/// the followers with the report the lead stored or, when it stored
/// none (a failed or panicking simulation), with a failure that frees
/// the key for the next claim.
pub(crate) struct Lead<'c> {
    cache: &'c ResultCache,
    key: u64,
    slot: Arc<Slot>,
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
    /// store). Existing entries become visible immediately.
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        Self {
            memory: Mutex::new(HashMap::new()),
            disk: Some(DiskStore::new(dir.into())),
        }
    }

    /// The memory tier, locked. No holder panics while it holds the
    /// lock and each leaves the map whole (it only reads, clones,
    /// inserts or removes), so a poisoned lock is taken as it stands;
    /// that keeps [`Lead`]'s `Drop` from panicking.
    fn memory(&self) -> MutexGuard<'_, HashMap<u64, Entry>> {
        self.memory.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether a disk tier is attached.
    pub fn has_disk_store(&self) -> bool {
        self.disk.is_some()
    }

    /// Looks `key` up: a stored report in memory, else the disk tier
    /// (promoting a disk hit into memory). Disk corruption is a miss,
    /// not an error. Counts hits only: a miss is counted by the claim
    /// that goes on to simulate the cell.
    pub fn get(&self, key: u64) -> Option<SimReport> {
        let memory = self.memory();
        if let Some(Entry::Ready(report)) = memory.get(&key) {
            let report = report.clone();
            drop(memory);
            vfc_obs::counter_add("runner.cache.hits", 1);
            return Some(report);
        }
        drop(memory);
        self.load(key)
    }

    /// Finds or claims `key` under one acquisition of the memory lock,
    /// so no caller falls between "not stored" and "claimed". A new
    /// lead reads the disk tier before it returns: a disk hit is
    /// promoted into the entry and returned as a hit (the dropped lead
    /// hands it to any follower), and a key in neither tier counts the
    /// cell's one `runner.cache.misses`.
    pub(crate) fn claim(&self, key: u64) -> Claim<'_> {
        let mut memory = self.memory();
        let lead = match memory.get(&key) {
            Some(Entry::Ready(report)) => {
                let report = report.clone();
                drop(memory);
                vfc_obs::counter_add("runner.cache.hits", 1);
                return Claim::Hit(report);
            }
            Some(Entry::Running(slot)) => return Claim::Follow(Arc::clone(slot)),
            None => {
                let slot = Arc::<Slot>::default();
                memory.insert(key, Entry::Running(Arc::clone(&slot)));
                drop(memory);
                Lead {
                    cache: self,
                    key,
                    slot,
                }
            }
        };
        match self.load(key) {
            Some(report) => Claim::Hit(report),
            None => {
                vfc_obs::counter_add("runner.cache.misses", 1);
                Claim::Lead(lead)
            }
        }
    }

    /// The disk tier's report for `key`, promoted into memory and
    /// counted as a hit.
    fn load(&self, key: u64) -> Option<SimReport> {
        let report = self.disk.as_ref()?.load(key)?;
        vfc_obs::counter_add("runner.cache.hits", 1);
        vfc_obs::counter_add("runner.cache.disk_promotions", 1);
        self.memory().insert(key, Entry::Ready(report.clone()));
        Some(report)
    }

    /// Stores a freshly simulated report under `key`. Disk failures are
    /// reported but non-fatal by design — the caller already holds the
    /// result, and a read-only filesystem must not fail a sweep.
    pub fn insert(&self, key: u64, report: &SimReport) -> Result<(), RunnerError> {
        vfc_obs::counter_add("runner.cache.stores", 1);
        self.memory().insert(key, Entry::Ready(report.clone()));
        match &self.disk {
            Some(disk) => disk.store(key, report),
            None => Ok(()),
        }
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

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        let mut memory = self.cache.memory();
        let outcome = match memory.get(&self.key) {
            Some(Entry::Ready(report)) => Some(report.clone()),
            _ => {
                memory.remove(&self.key);
                None
            }
        };
        drop(memory);
        // The entry is settled before any follower wakes: one whose
        // lead failed claims again and must find the key free, not
        // follow a dead slot.
        *self
            .slot
            .outcome
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        self.slot.done.notify_all();
    }
}

impl Slot {
    /// Blocks until the lead publishes: its report, or `None` if it
    /// failed and the caller should claim the key again.
    pub(crate) fn wait(&self) -> Option<SimReport> {
        let outcome = self
            .done
            .wait_while(
                self.outcome.lock().unwrap_or_else(PoisonError::into_inner),
                |outcome| outcome.is_none(),
            )
            .unwrap_or_else(PoisonError::into_inner);
        // Clone rather than take: every follower gets the outcome.
        outcome.clone().flatten()
    }
}

/// The on-disk tier: `<dir>/<key:016x>.json` per entry.
#[derive(Debug)]
struct DiskStore {
    dir: PathBuf,
    /// Corrupt entry files evicted on the read path (surfaced via
    /// [`ResultCache::corrupt_evictions`] and the
    /// `runner.cache.corrupt_evictions` telemetry counter).
    corrupt: std::sync::atomic::AtomicU64,
}

impl DiskStore {
    fn new(dir: PathBuf) -> Self {
        Self {
            dir,
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
        write_atomically(&self.entry_path(key), &doc.encode())
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

    /// Stores `label`'s report as `key`'s lead would, then drops the
    /// lead to publish it.
    fn lead_publishes(cache: &ResultCache, lead: Lead<'_>, key: u64, label: &str) {
        cache.insert(key, &report(label)).unwrap();
        drop(lead);
    }

    #[test]
    fn first_claim_leads_concurrent_claims_follow() {
        let cache = ResultCache::in_memory();
        let Claim::Lead(lead) = cache.claim(7) else {
            panic!("first claim must lead");
        };
        let Claim::Follow(slot) = cache.claim(7) else {
            panic!("second claim must follow");
        };
        // Distinct keys are independent.
        assert!(matches!(cache.claim(8), Claim::Lead(_)));
        lead_publishes(&cache, lead, 7, "led");
        assert_eq!(slot.wait().unwrap().label, "led");
    }

    #[test]
    fn a_lead_that_stores_nothing_frees_the_key() {
        let cache = ResultCache::in_memory();
        let Claim::Lead(lead) = cache.claim(1) else {
            panic!("lead");
        };
        drop(lead);
        assert_eq!(cache.len(), 0, "a failure never stays in the table");
        assert!(
            matches!(cache.claim(1), Claim::Lead(_)),
            "a freed key is claimable again"
        );
    }

    #[test]
    fn a_dropped_lead_wakes_followers_empty_handed() {
        let cache = ResultCache::in_memory();
        let Claim::Lead(lead) = cache.claim(2) else {
            panic!("lead");
        };
        let Claim::Follow(slot) = cache.claim(2) else {
            panic!("follow");
        };
        drop(lead); // the simulation panicked
        assert!(slot.wait().is_none(), "drop publishes a failure");
        assert!(matches!(cache.claim(2), Claim::Lead(_)));
    }

    #[test]
    fn followers_block_until_the_leader_publishes() {
        let cache = ResultCache::in_memory();
        let Claim::Lead(lead) = cache.claim(3) else {
            panic!("lead");
        };
        std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..3)
                .map(|_| {
                    let Claim::Follow(slot) = cache.claim(3) else {
                        panic!("follow");
                    };
                    scope.spawn(move || slot.wait())
                })
                .collect();
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert!(
                waiters.iter().all(|w| !w.is_finished()),
                "no follower returns before the lead publishes"
            );
            lead_publishes(&cache, lead, 3, "shared");
            for w in waiters {
                assert_eq!(w.join().unwrap().unwrap().label, "shared");
            }
        });
    }

    #[test]
    fn once_a_report_is_published_every_claim_hits() {
        // Four callers race one claim per round, and each claims again
        // once it holds the report: that second claim must hit, never
        // lead a second simulation of a published cell.
        let cache = ResultCache::in_memory();
        for key in 0..200u64 {
            let start = std::sync::Barrier::new(4);
            let leads = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        start.wait();
                        let label = match cache.claim(key) {
                            Claim::Hit(hit) => hit.label,
                            Claim::Follow(slot) => slot.wait().expect("the lead publishes").label,
                            Claim::Lead(lead) => {
                                leads.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                lead_publishes(&cache, lead, key, "once");
                                "once".into()
                            }
                        };
                        assert_eq!(label, "once");
                        assert!(
                            matches!(cache.claim(key), Claim::Hit(_)),
                            "key {key}: a published report is a hit"
                        );
                    });
                }
            });
            assert_eq!(leads.into_inner(), 1, "key {key}: exactly one lead");
        }
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
}
