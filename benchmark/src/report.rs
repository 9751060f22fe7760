//! The run's result: metrics, output-check failures, exact counts, and
//! the final JSON line.

use crate::{ledger, Ctx};

/// End-to-end metrics, reported by every untraced run. The names are
/// workload-generic; each workload's reading of them is in README.md.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_ratio", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // vfc_sim
    ("sim.new_ms", "ms"),
    ("engine.thermal_us", "us"),
    ("engine.workload_us", "us"),
    ("engine.balance_us", "us"),
    ("engine.samples", "count"),
    ("engine.fault_events", "count"),
    // vfc_thermal
    ("thermal.build_ms", "ms"),
    ("thermal.steady_ms", "ms"),
    ("thermal.set_flow_us", "us"),
    ("thermal.steps", "count"),
    ("thermal.substeps", "count"),
    ("thermal.substep_short_circuits", "count"),
    ("thermal.steady_solves", "count"),
    ("thermal.flow_patches", "count"),
    // vfc_num
    ("solver.solves", "count"),
    ("solver.iterations", "count"),
    ("precond.applies", "count"),
    ("solver.iters_per_solve", "iter/solve"),
    ("num.us_per_iteration", "us"),
    ("num.matvec_us", "us"),
    ("num.bytes_per_iteration", "B"),
    ("solver.retries", "count"),
    ("solver.escalations", "count"),
    // vfc_control / vfc_forecast
    ("control.characterize_ms", "ms"),
    ("control.balance_ms", "ms"),
    ("forecast.us_per_sample", "us"),
    // vfc_runner
    ("runner.overhead_ms_per_cell", "ms"),
    ("runner.store_ms", "ms"),
    ("runner.get_us", "us"),
    ("runner.jobs", "count"),
    ("runner.cache.hits", "count"),
    ("runner.cache.misses", "count"),
    ("runner.cache.stores", "count"),
    ("runner.dedup_joins", "count"),
    // vfc_serve
    ("serve.accept_ms", "ms"),
    ("serve.warm_stream_ms", "ms"),
    ("serve.cold_cell_ms", "ms"),
    ("serve.frame_bytes", "B"),
    ("serve.executed", "count"),
    ("serve.jobs", "count"),
    ("serve.cache_hits", "count"),
    ("serve.connections", "count"),
    ("serve.sheds", "count"),
    ("serve.deadline_aborts", "count"),
    ("serve.hit_ratio", "fraction"),
    ("loadgen.late_ms_p99", "ms"),
    // vfc_obs and host
    ("obs.overhead_pct", "%"),
    ("host.calib_ms", "ms"),
];

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a workload hands back to the harness.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units attempted (cells, the fine segments, requests).
    pub attempted: u64,
    /// Units that failed or did not pass the output check.
    pub failed: u64,
    /// Every failed check, human-readable; any entry fails the run.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Counts that must repeat exactly for this (workload, seed,
    /// seconds), checked against earlier runs in the same checkout.
    pub counts: Vec<(String, u64)>,
    /// Human-readable lines printed beside the metrics (each workload's
    /// reading of them, sample counts, provenance).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("check failed: {msg}");
        self.problems.push(msg);
    }

    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.counts.push((name.into(), value));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Adds the harness-level metrics, checks the exact counts against
    /// earlier runs and writes the trace.
    pub fn finish(&mut self, ctx: &Ctx, calib_before: f64, calib_after: f64, wall_s: f64) {
        if ctx.args.trace {
            self.push("host.calib_ms", "ms", 0.5 * (calib_before + calib_after));
        } else {
            let ok = self.attempted.saturating_sub(self.failed) as f64;
            self.push("ok_ratio", "fraction", ok / self.attempted.max(1) as f64);
            self.push("peak_rss_mb", "MB", crate::host::peak_rss_mb());
        }
        for msg in ledger::check(ctx, &self.counts) {
            self.problem(msg);
        }
        if ctx.args.trace {
            match ctx.tracer.write(ctx) {
                Ok(path) => self.note(format!("trace written to {}", path.display())),
                Err(e) => self.problem(format!("cannot write trace: {e}")),
            }
        }
        self.note(format!(
            "provenance: host.calib_ms before={calib_before:.3} after={calib_after:.3} \
             nproc={} kernel_threads={} runner_threads=1 wall_s={wall_s:.3}",
            crate::host::nproc(),
            vfc_num::KernelPool::global().threads(),
        ));
    }

    /// Prints the human-readable lines and the final JSON line; returns
    /// whether the run is correct.
    pub fn print(&mut self, ctx: &Ctx) -> bool {
        let wanted = if ctx.args.trace {
            PER_LAYER
        } else {
            END_TO_END
        };
        for &(name, unit) in wanted {
            match self.metrics.iter().find(|m| m.name == name) {
                None => self.problem(format!("metric {name} was not measured")),
                Some(m) if m.unit != unit => {
                    self.problem(format!("metric {name} has unit {} not {unit}", m.unit))
                }
                Some(m) if !m.value.is_finite() => {
                    self.problem(format!("metric {name} is not finite ({})", m.value))
                }
                Some(_) => {}
            }
        }
        if self.attempted == 0 {
            self.problem("no unit of work was attempted");
        }
        for line in &self.notes {
            println!("# {line}");
        }
        let mut fields = Vec::new();
        for &(name, unit) in wanted {
            let value = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            println!("{:<8} {name:<32} {value:>16.6} {unit}", ctx.args.workload);
            // `{:?}` is the shortest decimal that reads back to the same
            // f64: every digit as measured, and valid JSON.
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed.min(self.attempted.max(1)),
            fields.join(", ")
        );
        correct
    }
}
