//! Exact counts must repeat: every run of one (workload, seed, seconds)
//! in a checkout, traced or not, is checked against the counts earlier
//! runs recorded under `.bench_work/ledger/`.

use std::collections::BTreeMap;
use std::path::Path;

use vfc_runner::json::JsonValue;

use crate::Ctx;

/// Compares `counts` with the ledger, records the new ones, and returns
/// one message per count that changed.
pub fn check(ctx: &Ctx, counts: &[(String, u64)]) -> Vec<String> {
    if counts.is_empty() {
        return Vec::new();
    }
    let dir = Path::new(crate::WORK_ROOT).join("ledger");
    let path = dir.join(format!(
        "{}-seed{}-s{}.json",
        ctx.args.workload, ctx.args.seed, ctx.args.seconds
    ));
    let mut known: BTreeMap<String, u64> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| JsonValue::parse(&text).ok())
        .and_then(|doc| match doc {
            JsonValue::Object(members) => Some(
                members
                    .into_iter()
                    .filter_map(|(k, v)| v.as_u64().map(|v| (k, v)))
                    .collect(),
            ),
            _ => None,
        })
        .unwrap_or_default();
    let mut problems = Vec::new();
    for (name, value) in counts {
        match known.get(name) {
            Some(&seen) if seen != *value => problems.push(format!(
                "exact count {name} = {value}, but an earlier run (or pass) of this \
                 workload and seed counted {seen}"
            )),
            Some(_) => {}
            None => {
                known.insert(name.clone(), *value);
            }
        }
    }
    let doc = JsonValue::Object(
        known
            .into_iter()
            .map(|(k, v)| (k, JsonValue::Number(v as f64)))
            .collect(),
    );
    let tmp = path.with_extension("tmp");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&tmp, doc.encode()))
        .and_then(|()| std::fs::rename(&tmp, &path));
    if let Err(e) = written {
        problems.push(format!("cannot write {}: {e}", path.display()));
    }
    problems
}
