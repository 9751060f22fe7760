//! Parity at the outermost observable surface: a full simulation must
//! produce an **identical** `SimReport` at every kernel-pool thread
//! count — across every preconditioner (ILU(0), geometric multigrid) and
//! with faults injected — and fault timelines must enter cache keys only
//! when they carry faults.
//!
//! The operator is not a setting: solves run the stencil operator
//! wherever the grid's pattern decomposes and the CSR matrix otherwise.
//! The two are held to bit-identity at model level, in `vfc_thermal`, so
//! the axis the tests below vary is the thread count.

use proptest::prelude::*;
use vfc::num::{KernelPool, PreconditionerKind};
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

/// One cell of the determinism matrix: a full TALB run with an explicit
/// preconditioner and kernel-pool thread count.
fn run_matrix_cell(kind: PreconditionerKind, threads: usize, cooling: CoolingKind) -> SimReport {
    let mut cfg = config(PolicyKind::Talb, cooling);
    cfg.thermal.solver.preconditioner = kind;
    let mut sim = Simulation::new(cfg).expect("build");
    sim.set_kernel_pool(&KernelPool::new(threads));
    sim.run().expect("run")
}

#[test]
fn multigrid_reports_match_across_backends_and_thread_counts() {
    // Every thread count is bit-identical, so Multigrid is an
    // execution-quality knob, not a result knob.
    let cooling = CoolingKind::LiquidVariable;
    let reference = run_matrix_cell(PreconditionerKind::Multigrid, 1, cooling);
    for threads in [2usize, 4] {
        let got = run_matrix_cell(PreconditionerKind::Multigrid, threads, cooling);
        assert_eq!(
            got, reference,
            "multigrid at {threads} threads diverged from 1 thread"
        );
    }
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
    // timeline is configuration, so every thread count replays the
    // identical degraded run bit for bit.
    let cell = |threads, faulted: bool| {
        let mut cfg = config(PolicyKind::Talb, CoolingKind::LiquidVariable);
        if faulted {
            cfg.faults = fault_timeline();
        }
        let mut sim = Simulation::new(cfg).expect("build");
        sim.set_kernel_pool(&KernelPool::new(threads));
        sim.run().expect("run")
    };
    let reference = cell(1, true);
    let healthy = cell(1, false);
    assert_ne!(reference, healthy, "the fault trace must perturb the run");
    for threads in [2usize, 4] {
        let got = cell(threads, true);
        assert_eq!(
            got, reference,
            "faulted run at {threads} threads diverged from 1 thread"
        );
    }
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

    /// The full preconditioner × thread-count matrix, sampled: whichever
    /// preconditioner and flow regime come up, 1, 2 and 4 threads must
    /// agree bit for bit.
    #[test]
    fn preconditioner_backend_thread_matrix(
        kind in prop_oneof![
            Just(PreconditionerKind::Ilu0),
            Just(PreconditionerKind::Multigrid),
        ],
        flow_idx in 0usize..5,
    ) {
        let cooling = CoolingKind::LiquidFixed(FlowSetting::from_index(flow_idx));
        let reference = run_matrix_cell(kind, 1, cooling);
        for threads in [2usize, 4] {
            let got = run_matrix_cell(kind, threads, cooling);
            prop_assert_eq!(&got, &reference, "{:?}/{} threads diverged", kind, threads);
        }
    }
}
