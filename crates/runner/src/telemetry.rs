//! JSON + Prometheus export for [`vfc_obs`] snapshots.
//!
//! The obs crate is deliberately dependency-free, so it exposes a
//! [`vfc_obs::Snapshot`] as plain sorted vectors and leaves encoding to
//! layers that already own a codec. This module rides the runner's
//! hand-rolled [`crate::json`] codec: `snapshot_to_json` /
//! `snapshot_from_json` round-trip losslessly (counter and stat fields
//! are `u64` well below 2^53, so the f64-backed number type is exact),
//! and [`write_snapshot`] is the one-call export used by the
//! `--telemetry <path>` CLI flags.
//!
//! Schema (version 1):
//!
//! ```json
//! {
//!   "version": 1,
//!   "level": "spans",
//!   "counters": {"solver.iterations": 123, ...},
//!   "gauges": {"runner.eta_seconds": 0.5, ...},
//!   "stats": {"span.thermal.steady": {"count": 2, "sum_ns": ..., "min_ns": ..., "max_ns": ...}, ...}
//! }
//! ```
//!
//! Members are emitted in snapshot order (name-sorted), so equal
//! snapshots encode to byte-identical documents.

use vfc_obs::{Snapshot, Stat};

use crate::json::{self, JsonValue};
use crate::RunnerError;

/// Encodes a snapshot (plus the level it was taken at) as a JSON value.
pub fn snapshot_to_json(snap: &Snapshot, level: vfc_obs::TelemetryLevel) -> JsonValue {
    let counters = snap
        .counters
        .iter()
        .map(|(name, v)| (name.clone(), JsonValue::Number(*v as f64)))
        .collect();
    let gauges = snap
        .gauges
        .iter()
        .map(|(name, v)| (name.clone(), json::number(*v)))
        .collect();
    let stats = snap
        .stats
        .iter()
        .map(|(name, s)| {
            (
                name.clone(),
                JsonValue::Object(vec![
                    ("count".into(), JsonValue::Number(s.count as f64)),
                    ("sum_ns".into(), JsonValue::Number(s.sum_ns as f64)),
                    ("min_ns".into(), JsonValue::Number(s.min_ns as f64)),
                    ("max_ns".into(), JsonValue::Number(s.max_ns as f64)),
                ]),
            )
        })
        .collect();
    JsonValue::Object(vec![
        ("version".into(), JsonValue::Number(1.0)),
        ("level".into(), JsonValue::String(level.as_str().into())),
        ("counters".into(), JsonValue::Object(counters)),
        ("gauges".into(), JsonValue::Object(gauges)),
        ("stats".into(), JsonValue::Object(stats)),
    ])
}

/// Decodes a document produced by [`snapshot_to_json`], returning the
/// snapshot and the level recorded in it.
///
/// # Errors
///
/// Missing/mistyped members or an unknown schema version.
pub fn snapshot_from_json(
    value: &JsonValue,
) -> Result<(Snapshot, vfc_obs::TelemetryLevel), RunnerError> {
    const CTX: &str = "telemetry snapshot";
    let version = json::u64_member(value, CTX, "version")?;
    if version != 1 {
        return Err(RunnerError::Parse {
            context: CTX.into(),
            detail: format!("unsupported schema version {version}"),
        });
    }
    let level_str = json::string_member(value, CTX, "level")?;
    let level = vfc_obs::TelemetryLevel::parse(&level_str).ok_or_else(|| RunnerError::Parse {
        context: CTX.into(),
        detail: format!("unknown telemetry level `{level_str}`"),
    })?;

    let counters = object_members(value, CTX, "counters")?
        .iter()
        .map(|(name, v)| {
            v.as_u64()
                .map(|n| (name.clone(), n))
                .ok_or_else(|| json::mistyped(CTX, name, "unsigned integer"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let gauges = object_members(value, CTX, "gauges")?
        .iter()
        .map(|(name, v)| {
            v.as_f64()
                .map(|x| (name.clone(), x))
                .ok_or_else(|| json::mistyped(CTX, name, "number"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let stats = object_members(value, CTX, "stats")?
        .iter()
        .map(|(name, v)| {
            let stat = Stat {
                count: json::u64_member(v, CTX, "count")?,
                sum_ns: json::u64_member(v, CTX, "sum_ns")?,
                min_ns: json::u64_member(v, CTX, "min_ns")?,
                max_ns: json::u64_member(v, CTX, "max_ns")?,
            };
            Ok((name.clone(), stat))
        })
        .collect::<Result<Vec<_>, RunnerError>>()?;

    Ok((
        Snapshot {
            counters,
            gauges,
            stats,
        },
        level,
    ))
}

/// Takes a snapshot of the global registry and writes it to `path` as
/// JSON (the current level is recorded alongside the data).
///
/// # Errors
///
/// I/O failure writing the file.
pub fn write_snapshot(path: &std::path::Path) -> Result<(), RunnerError> {
    let snap = vfc_obs::snapshot();
    let doc = snapshot_to_json(&snap, vfc_obs::level());
    std::fs::write(path, doc.encode() + "\n").map_err(|source| RunnerError::Io {
        context: format!("writing telemetry snapshot to {}", path.display()),
        source,
    })
}

fn object_members<'v>(
    value: &'v JsonValue,
    context: &str,
    key: &str,
) -> Result<&'v [(String, JsonValue)], RunnerError> {
    match value.get(key) {
        Some(JsonValue::Object(members)) => Ok(members),
        Some(_) => Err(json::mistyped(context, key, "object")),
        None => Err(RunnerError::Parse {
            context: context.into(),
            detail: format!("missing member `{key}`"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = Snapshot {
            counters: vec![
                ("precond.vcycles".into(), 0),
                ("solver.iterations".into(), 12_345_678_901),
            ],
            gauges: vec![
                ("runner.eta_seconds".into(), 1.5),
                ("runner.jobs_total".into(), 64.0),
            ],
            stats: vec![(
                "span.thermal.steady".into(),
                Stat {
                    count: 3,
                    sum_ns: 9_000_000_123,
                    min_ns: 1_000_000_001,
                    max_ns: 5_000_000_121,
                },
            )],
        };
        let doc = snapshot_to_json(&snap, vfc_obs::TelemetryLevel::Spans);
        let text = doc.encode();
        let parsed = JsonValue::parse(&text).expect("parse");
        let (back, level) = snapshot_from_json(&parsed).expect("decode");
        assert_eq!(level, vfc_obs::TelemetryLevel::Spans);
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.gauges, snap.gauges);
        assert_eq!(back.stats.len(), 1);
        let (name, stat) = &back.stats[0];
        assert_eq!(name, "span.thermal.steady");
        assert_eq!(stat.count, 3);
        assert_eq!(stat.sum_ns, 9_000_000_123);
        assert_eq!(stat.min_ns, 1_000_000_001);
        assert_eq!(stat.max_ns, 5_000_000_121);
        // Same snapshot → byte-identical document (members are
        // name-sorted by vfc_obs::snapshot, preserved by the codec).
        assert_eq!(snapshot_to_json(&back, level).encode(), text);
    }

    #[test]
    fn rejects_unknown_schema_version() {
        let doc = JsonValue::Object(vec![
            ("version".into(), JsonValue::Number(2.0)),
            ("level".into(), JsonValue::String("off".into())),
        ]);
        assert!(snapshot_from_json(&doc).is_err());
    }
}
