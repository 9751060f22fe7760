//! `vfc_obs` — a zero-cost-when-off telemetry layer unifying solver,
//! kernel, engine and sweep instrumentation.
//!
//! One global registry of **counters**, **gauges** and **stats**
//! (count/sum/min/max accumulators — the fixed-memory core of a
//! histogram) plus hierarchical RAII [`span`] timers. Recording goes to
//! **per-thread shards** so the sweep executor's workers never contend
//! on a hot lock; [`snapshot`] folds the shards
//! deterministically (integer accumulators, name-sorted output), so a
//! snapshot taken after a run is identical at every thread count that
//! produced identical work.
//!
//! # Levels
//!
//! The whole layer is gated by [`TelemetryLevel`], read once from
//! `VFC_TELEMETRY` (`off` | `counters` | `spans`, default `off`) and
//! overridable in-process via [`set_level`] (used by `--telemetry`
//! flags and the invariance tests). Every recording call first does a
//! single relaxed atomic load; at `off` that load is the entire cost.
//! `counters` enables counter/gauge recording; `spans` additionally
//! enables the timed spans and duration stats (the only level that
//! calls `Instant::now`).
//!
//! # Invariant
//!
//! Telemetry is an **execution knob**: it never feeds back into any
//! computation, never enters `SimConfig::cache_key()`, and must not
//! perturb iteration counts or bit-identity at any thread count.
//! Nothing in this crate returns recorded values to the code
//! being measured — the only read path is [`snapshot`].

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Environment variable holding the startup telemetry level.
pub const TELEMETRY_ENV: &str = "VFC_TELEMETRY";

/// How much the telemetry layer records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TelemetryLevel {
    /// Nothing is recorded; every instrumentation point is a single
    /// relaxed atomic load.
    Off = 0,
    /// Counters and gauges record; spans stay inert (no clock reads).
    Counters = 1,
    /// Everything records, including timed spans and duration stats.
    Spans = 2,
}

impl TelemetryLevel {
    /// Parses the `VFC_TELEMETRY` / `--telemetry` spelling of a level.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" | "" => Some(Self::Off),
            "counters" | "1" => Some(Self::Counters),
            "spans" | "2" | "all" | "on" => Some(Self::Spans),
            _ => None,
        }
    }

    /// Canonical spelling (round-trips through [`parse`](Self::parse)).
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Counters => "counters",
            Self::Spans => "spans",
        }
    }
}

/// Sentinel meaning "not yet initialised from the environment".
const LEVEL_UNINIT: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNINIT);

/// Current telemetry level (one relaxed load on the fast path).
#[inline]
pub fn level() -> TelemetryLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => TelemetryLevel::Off,
        1 => TelemetryLevel::Counters,
        2 => TelemetryLevel::Spans,
        _ => init_level(),
    }
}

#[cold]
fn init_level() -> TelemetryLevel {
    let parsed = std::env::var(TELEMETRY_ENV)
        .ok()
        .and_then(|v| TelemetryLevel::parse(&v))
        .unwrap_or(TelemetryLevel::Off);
    // Replace only the sentinel: a level another thread set meanwhile
    // (`set_level`) wins over the environment default.
    match LEVEL.compare_exchange(
        LEVEL_UNINIT,
        parsed as u8,
        Ordering::Relaxed,
        Ordering::Relaxed,
    ) {
        Ok(_) => parsed,
        Err(_) => level(),
    }
}

/// Overrides the level in-process (CLI `--telemetry` flags, tests).
pub fn set_level(l: TelemetryLevel) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// True when counters and gauges record (`counters` or `spans`).
#[inline]
pub fn counters_enabled() -> bool {
    level() >= TelemetryLevel::Counters
}

/// True when timed spans and duration stats record (`spans` only).
#[inline]
pub fn spans_enabled() -> bool {
    level() >= TelemetryLevel::Spans
}

/// Fixed-memory distribution accumulator: count, sum, min, max.
///
/// Span durations and other stats record in integer **nanoseconds**, so
/// folding shards is exact and order-independent (no float summation
/// order to worry about). An empty stat reports `min == max == 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stat {
    pub count: u64,
    pub sum_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

impl Stat {
    pub const EMPTY: Stat = Stat {
        count: 0,
        sum_ns: 0,
        min_ns: 0,
        max_ns: 0,
    };

    fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Folds another accumulator in; exact and commutative.
    pub(crate) fn merge(&mut self, other: &Stat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Mean in nanoseconds (0 when empty).
    pub(crate) fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Mean in milliseconds (0 when empty) — the bench-friendly unit.
    pub fn mean_ms(&self) -> f64 {
        self.mean_ns() * 1e-6
    }
}

/// One thread's private slice of the registry. Counter names are
/// `&'static str` (every call site uses a literal); stat names are
/// owned because span paths are built at runtime.
#[derive(Default)]
struct ShardData {
    counters: HashMap<&'static str, u64>,
    stats: HashMap<String, Stat>,
}

struct Shard {
    data: Mutex<ShardData>,
}

struct Registry {
    /// Every shard ever registered, in registration order. Shards of
    /// finished threads stay reachable so their metrics survive into
    /// the snapshot (the sweep executor's scoped workers).
    shards: Mutex<Vec<Arc<Shard>>>,
    /// Gauges are last-write-wins and rare; one global map suffices.
    gauges: Mutex<BTreeMap<&'static str, f64>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        shards: Mutex::new(Vec::new()),
        gauges: Mutex::new(BTreeMap::new()),
    })
}

thread_local! {
    static LOCAL_SHARD: Arc<Shard> = {
        let shard = Arc::new(Shard {
            data: Mutex::new(ShardData::default()),
        });
        registry().shards.lock().unwrap().push(Arc::clone(&shard));
        shard
    };

    /// Active span names on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Adds `n` to the named counter (no-op below `counters`).
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if !counters_enabled() {
        return;
    }
    counter_add_slow(name, n);
}

#[cold]
fn counter_add_slow(name: &'static str, n: u64) {
    LOCAL_SHARD.with(|shard| {
        let mut data = shard.data.lock().unwrap();
        *data.counters.entry(name).or_insert(0) += n;
    });
}

/// Sets the named gauge (last write wins; no-op below `counters`).
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !counters_enabled() {
        return;
    }
    registry().gauges.lock().unwrap().insert(name, value);
}

/// Records one duration sample into the named stat (no-op below
/// `spans` — stats are timing data, and timing implies clock reads).
#[inline]
pub fn record_ns(name: &str, ns: u64) {
    if !spans_enabled() {
        return;
    }
    record_ns_slow(name, ns);
}

fn record_ns_slow(name: &str, ns: u64) {
    LOCAL_SHARD.with(|shard| {
        let mut data = shard.data.lock().unwrap();
        if let Some(stat) = data.stats.get_mut(name) {
            stat.record(ns);
        } else {
            let mut stat = Stat::EMPTY;
            stat.record(ns);
            data.stats.insert(name.to_string(), stat);
        }
    });
}

/// Pre-registers counter families at zero so exports carry a stable
/// schema even when a run never touches some of them (a scrape target
/// should not grow columns run to run). No-op below `counters`.
pub fn declare_counters(names: &[&'static str]) {
    for &name in names {
        counter_add(name, 0);
    }
}

/// Pre-registers stat families (empty accumulators); see
/// [`declare_counters`]. No-op below `counters`.
pub fn declare_stats(names: &[&'static str]) {
    if !counters_enabled() {
        return;
    }
    LOCAL_SHARD.with(|shard| {
        let mut data = shard.data.lock().unwrap();
        for &name in names {
            data.stats.entry(name.to_string()).or_insert(Stat::EMPTY);
        }
    });
}

/// RAII span timer; records into `span.<path>` on drop, where `<path>`
/// is this thread's active span names joined by `/` (hierarchical:
/// `thermal.step` inside `engine.thermal` records as
/// `span.engine.thermal/thermal.step`).
#[must_use = "a span records on drop; binding to _ drops it immediately"]
pub struct Span {
    start: Option<Instant>,
}

/// Opens a span (inert below `spans`: no clock read, no stack push).
#[inline]
pub fn span(name: &'static str) -> Span {
    if !spans_enabled() {
        return Span { start: None };
    }
    SPAN_STACK.with(|stack| stack.borrow_mut().push(name));
    Span {
        start: Some(Instant::now()),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let mut path =
                String::with_capacity(8 + stack.iter().map(|s| s.len() + 1).sum::<usize>());
            path.push_str("span.");
            for (i, name) in stack.iter().enumerate() {
                if i > 0 {
                    path.push('/');
                }
                path.push_str(name);
            }
            stack.pop();
            path
        });
        record_ns_slow(&path, ns);
    }
}

/// A deterministic fold of every shard: counters summed, stats merged,
/// gauges copied, everything sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub stats: Vec<(String, Stat)>,
}

impl Snapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    #[cfg(test)]
    pub(crate) fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn stat(&self, name: &str) -> Option<&Stat> {
        self.stats.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Prometheus text exposition (the hook a sweep service scrapes).
    /// Counters and gauges export verbatim; stats export as a summary
    /// family with durations converted from nanoseconds to seconds.
    pub fn prometheus_text(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        }
        let mut out = String::new();
        for (name, value) in &self.counters {
            let s = sanitize(name);
            out.push_str(&format!("# TYPE vfc_{s} counter\nvfc_{s} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let s = sanitize(name);
            out.push_str(&format!("# TYPE vfc_{s} gauge\nvfc_{s} {value}\n"));
        }
        for (name, stat) in &self.stats {
            let s = sanitize(name);
            out.push_str(&format!(
                "# TYPE vfc_{s}_seconds summary\n\
                 vfc_{s}_seconds_count {}\n\
                 vfc_{s}_seconds_sum {}\n\
                 vfc_{s}_seconds_min {}\n\
                 vfc_{s}_seconds_max {}\n",
                stat.count,
                stat.sum_ns as f64 * 1e-9,
                stat.min_ns as f64 * 1e-9,
                stat.max_ns as f64 * 1e-9,
            ));
        }
        out
    }
}

/// Folds every thread's shard into one name-sorted snapshot.
///
/// Deterministic by construction: counters are u64 sums and stats are
/// integer merges, both order-independent, and the output is sorted —
/// the same recorded work yields the same snapshot at every thread
/// count and shard registration order.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut stats: BTreeMap<String, Stat> = BTreeMap::new();
    for shard in reg.shards.lock().unwrap().iter() {
        let data = shard.data.lock().unwrap();
        for (&name, &value) in &data.counters {
            *counters.entry(name.to_string()).or_insert(0) += value;
        }
        for (name, stat) in &data.stats {
            stats.entry(name.clone()).or_insert(Stat::EMPTY).merge(stat);
        }
    }
    let gauges = reg
        .gauges
        .lock()
        .unwrap()
        .iter()
        .map(|(&name, &value)| (name.to_string(), value))
        .collect();
    Snapshot {
        counters: counters.into_iter().collect(),
        gauges,
        stats: stats.into_iter().collect(),
    }
}

/// Zeroes every shard and gauge (delta measurements in benches/tests).
pub fn reset() {
    let reg = registry();
    for shard in reg.shards.lock().unwrap().iter() {
        let mut data = shard.data.lock().unwrap();
        data.counters.clear();
        data.stats.clear();
    }
    reg.gauges.lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-state tests share one `#[test]` so cargo's parallel test
    /// threads cannot race on the process-wide level and registry.
    #[test]
    fn registry_end_to_end() {
        // A thread that saw the level uninitialised and reads the
        // environment only after another thread's `set_level` keeps the
        // level that was set.
        LEVEL.store(LEVEL_UNINIT, Ordering::Relaxed);
        set_level(TelemetryLevel::Spans);
        assert_eq!(init_level(), TelemetryLevel::Spans);
        assert_eq!(level(), TelemetryLevel::Spans);

        // Off: recording is a no-op.
        set_level(TelemetryLevel::Off);
        reset();
        counter_add("test.off", 7);
        gauge_set("test.off_gauge", 1.0);
        record_ns("test.off_stat", 5);
        {
            let _s = span("test.off_span");
        }
        let snap = snapshot();
        assert_eq!(snap.counter("test.off"), None);
        assert_eq!(snap.gauge("test.off_gauge"), None);
        assert!(snap.stat("test.off_stat").is_none());
        assert!(snap.stat("span.test.off_span").is_none());

        // Counters: counts and gauges record, spans stay inert.
        set_level(TelemetryLevel::Counters);
        reset();
        counter_add("test.c", 2);
        counter_add("test.c", 3);
        gauge_set("test.g", 0.25);
        gauge_set("test.g", 0.75);
        {
            let _s = span("test.quiet");
        }
        let snap = snapshot();
        assert_eq!(snap.counter("test.c"), Some(5));
        assert_eq!(snap.gauge("test.g"), Some(0.75));
        assert!(snap.stat("span.test.quiet").is_none());

        // Spans: hierarchical paths, count/sum accumulation.
        set_level(TelemetryLevel::Spans);
        reset();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        {
            let _outer = span("outer");
        }
        record_ns("manual", 10);
        record_ns("manual", 30);
        let snap = snapshot();
        assert_eq!(snap.stat("span.outer").map(|s| s.count), Some(2));
        assert_eq!(snap.stat("span.outer/inner").map(|s| s.count), Some(1));
        let manual = snap.stat("manual").expect("manual stat");
        assert_eq!(
            (manual.count, manual.sum_ns, manual.min_ns, manual.max_ns),
            (2, 40, 10, 30)
        );

        // Shard folding is exact across threads: N threads × M adds
        // fold to exactly N·M, and per-thread stats merge losslessly.
        reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        counter_add("test.fold", 1);
                    }
                    record_ns("test.fold_stat", 17);
                });
            }
        });
        let snap = snapshot();
        assert_eq!(snap.counter("test.fold"), Some(4000));
        let stat = snap.stat("test.fold_stat").expect("folded stat");
        assert_eq!((stat.count, stat.sum_ns), (4, 68));
        assert_eq!((stat.min_ns, stat.max_ns), (17, 17));

        // Declared families appear at zero.
        reset();
        declare_counters(&["test.declared"]);
        declare_stats(&["test.declared_stat"]);
        let snap = snapshot();
        assert_eq!(snap.counter("test.declared"), Some(0));
        assert_eq!(snap.stat("test.declared_stat"), Some(&Stat::EMPTY));

        // Snapshots are name-sorted (deterministic export order).
        reset();
        counter_add("test.b", 1);
        counter_add("test.a", 1);
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);

        set_level(TelemetryLevel::Off);
        reset();
    }

    #[test]
    fn level_parsing_round_trips() {
        for l in [
            TelemetryLevel::Off,
            TelemetryLevel::Counters,
            TelemetryLevel::Spans,
        ] {
            assert_eq!(TelemetryLevel::parse(l.as_str()), Some(l));
        }
        assert_eq!(TelemetryLevel::parse("SPANS"), Some(TelemetryLevel::Spans));
        assert_eq!(TelemetryLevel::parse("1"), Some(TelemetryLevel::Counters));
        assert_eq!(TelemetryLevel::parse("bogus"), None);
    }

    #[test]
    fn stat_merge_is_exact_and_commutative() {
        let mut a = Stat::EMPTY;
        a.record(5);
        a.record(15);
        let mut b = Stat::EMPTY;
        b.record(1);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!((ab.count, ab.sum_ns, ab.min_ns, ab.max_ns), (3, 21, 1, 15));
        let mut with_empty = a;
        with_empty.merge(&Stat::EMPTY);
        assert_eq!(with_empty, a);
    }

    #[test]
    fn prometheus_text_exposes_all_families() {
        let snap = Snapshot {
            counters: vec![("solver.iterations".into(), 42)],
            gauges: vec![("runner.eta_seconds".into(), 1.5)],
            stats: vec![(
                "span.engine.thermal".into(),
                Stat {
                    count: 2,
                    sum_ns: 2_000_000_000,
                    min_ns: 500_000_000,
                    max_ns: 1_500_000_000,
                },
            )],
        };
        let text = snap.prometheus_text();
        assert!(text.contains("# TYPE vfc_solver_iterations counter"));
        assert!(text.contains("vfc_solver_iterations 42"));
        assert!(text.contains("# TYPE vfc_runner_eta_seconds gauge"));
        assert!(text.contains("vfc_span_engine_thermal_seconds_count 2"));
        assert!(text.contains("vfc_span_engine_thermal_seconds_sum 2"));
        assert!(text.contains("vfc_span_engine_thermal_seconds_max 1.5"));
    }
}
