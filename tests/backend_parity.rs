//! Parity at the outermost observable surface: a batch of full
//! simulations must produce **identical** `SimReport`s whatever the
//! sweep runner's thread count — across every preconditioner (ILU(0),
//! geometric multigrid) and with faults injected — and fault timelines
//! must enter cache keys only when they carry faults.
//!
//! Every solve runs on the thread of the cell it belongs to, so the one
//! place a result could pick up a thread count is the runner, whose
//! executor simulates the cells of a batch side by side. Each batch
//! below holds several distinct cells, so the workers really overlap,
//! and each thread count gets a fresh runner with an in-memory cache,
//! so every cell really simulates. The stencil and CSR operators are
//! held to bit-identity at model level, in `vfc_thermal`.

use proptest::prelude::*;
use vfc::num::PreconditionerKind;
use vfc::prelude::*;
use vfc::workload::Benchmark;

fn config(policy: PolicyKind, cooling: CoolingKind) -> SimConfig {
    let mut cfg = SimConfig::new(
        SystemKind::TwoLayer,
        cooling,
        policy,
        Benchmark::by_name("Web-med").expect("table II"),
    );
    cfg.duration = Seconds::new(2.0);
    cfg.grid_cell = Length::from_millimeters(2.0);
    cfg
}

/// A TALB cell with an explicit preconditioner and workload seed.
fn talb_cell(kind: PreconditionerKind, cooling: CoolingKind, seed: u64) -> SimConfig {
    let mut cfg = config(PolicyKind::Talb, cooling).with_seed(seed);
    cfg.thermal.solver.preconditioner = kind;
    cfg
}

/// The batch's reports on a fresh 1-, 2- and 4-thread runner, in that
/// order.
fn reports_per_thread_count(configs: &[SimConfig]) -> Vec<(usize, Vec<SimReport>)> {
    [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let runner =
                SweepRunner::with_parts(Executor::with_threads(threads), ResultCache::in_memory());
            let reports = runner.run(configs.to_vec()).expect("batch runs");
            assert_eq!(
                runner.stats().executed,
                configs.len() as u64,
                "every distinct cell must simulate"
            );
            (threads, reports)
        })
        .collect()
}

/// Asserts every thread count's reports equal the 1-thread reports slot
/// by slot, and returns the 1-thread reports.
fn assert_thread_parity(configs: &[SimConfig]) -> Vec<SimReport> {
    let mut runs = reports_per_thread_count(configs).into_iter();
    let (_, reference) = runs.next().expect("1-thread run");
    for (threads, reports) in runs {
        assert_eq!(reports.len(), reference.len());
        for (slot, (got, want)) in reports.iter().zip(&reference).enumerate() {
            assert_eq!(
                got, want,
                "slot {slot} diverged at {threads} runner threads"
            );
        }
    }
    reference
}

#[test]
fn multigrid_reports_match_across_backends_and_thread_counts() {
    // Every runner thread count is bit-identical, so Multigrid is an
    // execution-quality knob, not a result knob.
    let batch: Vec<SimConfig> = (1..=4)
        .map(|seed| {
            talb_cell(
                PreconditionerKind::Multigrid,
                CoolingKind::LiquidVariable,
                seed,
            )
        })
        .collect();
    assert_thread_parity(&batch);
}

/// The fault-replay trace every determinism cell replays: a pump sag,
/// a clogging cavity and noisy sensors, all seeded.
fn fault_timeline() -> vfc::sim::FaultTimeline {
    use vfc::sim::{ChannelClog, FaultTimeline, PumpFault, SensorFault};
    FaultTimeline::new(9)
        .with_pump(PumpFault::Degradation {
            start_s: 0.5,
            end_s: 1.5,
            level: 0.4,
        })
        .with_clog(ChannelClog {
            cavity: 0,
            start_s: 1.0,
            ramp_s: 0.25,
            derate: 0.5,
        })
        .with_sensor(SensorFault::Noise { sigma: 0.3 })
}

#[test]
fn faulted_reports_match_across_backends_and_thread_counts() {
    // Injected faults join the determinism contract: the seeded
    // timeline is configuration, so every runner thread count replays
    // the identical degraded runs bit for bit.
    let cell = |seed: u64, faulted: bool| {
        let mut cfg = config(PolicyKind::Talb, CoolingKind::LiquidVariable).with_seed(seed);
        if faulted {
            cfg.faults = fault_timeline();
        }
        cfg
    };
    let mut batch = vec![cell(1, false)];
    batch.extend((1..=4).map(|seed| cell(seed, true)));
    let reports = assert_thread_parity(&batch);
    assert_ne!(
        reports[0], reports[1],
        "the fault trace must perturb the run"
    );
}

#[test]
fn fault_timelines_enter_cache_keys_but_empty_ones_are_free() {
    let healthy = config(PolicyKind::Talb, CoolingKind::LiquidVariable);
    let mut faulted = healthy.clone();
    faulted.faults = fault_timeline();
    let mut empty = healthy.clone();
    empty.faults = vfc::sim::FaultTimeline::new(7);
    assert_ne!(
        healthy.cache_key(),
        faulted.cache_key(),
        "a fault timeline changes the physics and must invalidate cached results"
    );
    assert_eq!(
        healthy.cache_key(),
        empty.cache_key(),
        "an empty timeline (any seed) must leave healthy cache keys untouched"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        .. ProptestConfig::default()
    })]

    /// The full preconditioner × runner-thread-count matrix, sampled:
    /// whichever preconditioner and flow regime come up, a batch of
    /// seeds on 1, 2 and 4 runner threads must agree bit for bit.
    #[test]
    fn preconditioner_backend_thread_matrix(
        kind in prop_oneof![
            Just(PreconditionerKind::Ilu0),
            Just(PreconditionerKind::Multigrid),
        ],
        flow_idx in 0usize..5,
    ) {
        let cooling = CoolingKind::LiquidFixed(FlowSetting::from_index(flow_idx));
        let batch: Vec<SimConfig> = (1..=4).map(|seed| talb_cell(kind, cooling, seed)).collect();
        let mut runs = reports_per_thread_count(&batch).into_iter();
        let (_, reference) = runs.next().expect("1-thread run");
        for (threads, reports) in runs {
            for (slot, (got, want)) in reports.iter().zip(&reference).enumerate() {
                prop_assert_eq!(
                    got, want,
                    "{:?}/{} runner threads diverged at slot {}", kind, threads, slot
                );
            }
        }
    }
}
