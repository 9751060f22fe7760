//! In-memory spans around the benchmark's own calls into each layer,
//! written out when the run ends (traced runs only).
//!
//! A span has a name, a start, an end, the span that caused it and,
//! for service traffic, the request it belongs to. Spans inside the
//! program are `vfc_obs`'s; their stats are saved beside these.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::Ctx;

#[derive(Debug, Clone)]
struct SpanRec {
    id: u64,
    parent: Option<u64>,
    request: Option<u64>,
    name: &'static str,
    start_us: f64,
    end_us: f64,
}

/// An open span; [`Tracer::close`] records it.
#[derive(Debug)]
pub struct Open {
    pub id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    /// The `vfc_obs` snapshot of the workload's traced window.
    obs: Mutex<Option<vfc_obs::Snapshot>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            obs: Mutex::new(None),
        }
    }

    pub fn open(&self, name: &'static str, parent: Option<u64>) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Ends `span`; returns its duration in seconds (measured whether or
    /// not the run is traced).
    pub fn close(&self, span: Open) -> f64 {
        let end = Instant::now();
        self.record(span.name, span.id, span.parent, None, span.start, end);
        (end - span.start).as_secs_f64()
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.open(name, parent);
        let value = f();
        (value, self.close(span))
    }

    /// Records a span measured elsewhere (service requests, whose edges
    /// are frame arrivals); returns its id.
    pub fn record_request(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.record(name, id, parent, Some(request), start, end);
        id
    }

    fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.lock().expect("trace lock").push(SpanRec {
            id,
            parent,
            request,
            name,
            start_us: us(start),
            end_us: us(end),
        });
    }

    /// Keeps `snap` to be written with the spans.
    pub fn set_obs(&self, snap: vfc_obs::Snapshot) {
        *self.obs.lock().expect("trace lock") = Some(snap);
    }

    /// Writes every span, one JSON object per line, then the `vfc_obs`
    /// snapshot, to `.bench_work/traces/<workload>-seed<n>-s<secs>.jsonl`.
    pub fn write(&self, ctx: &Ctx) -> std::io::Result<PathBuf> {
        let dir = Path::new(crate::WORK_ROOT).join("traces");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!(
            "{}-seed{}-s{}.jsonl",
            ctx.args.workload, ctx.args.seed, ctx.args.seconds
        ));
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let mut text = String::new();
        for s in self.spans.lock().expect("trace lock").iter() {
            text.push_str(&format!(
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}\n",
                s.id,
                opt(s.parent),
                opt(s.request),
                s.name,
                s.start_us,
                s.end_us
            ));
        }
        if let Some(snap) = self.obs.lock().expect("trace lock").as_ref() {
            let level = vfc_obs::TelemetryLevel::Spans;
            let obs = vfc_runner::telemetry::snapshot_to_json(snap, level);
            text.push_str(&format!("{{\"obs\": {}}}\n", obs.encode()));
        }
        std::fs::write(&path, text)?;
        Ok(path)
    }
}
