//! The assembled RC network: node layout, steady-state and transient
//! solvers.

use std::sync::Arc;

use vfc_num::{
    norm2, BiCgStab, CsrMatrix, LinearOperator, NumError, Preconditioner, PreconditionerKind,
    SolverWorkspace, StencilOp, StencilPattern,
};
use vfc_units::{Celsius, Seconds, VolumetricFlow, Watts};

use crate::{FlowPatch, StackSkeleton, ThermalError};

/// Where each physical entity lives in the flat node vector.
///
/// Node order: all tier junction cells (tier-major, row-major within a
/// tier), then all cavity fluid cells (bottom-up), then the spreader cells
/// and the sink node for air-cooled stacks.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeLayout {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) tier_offsets: Vec<usize>,
    /// `(interface index, node offset)` for each microchannel cavity.
    pub(crate) cavities: Vec<(usize, usize)>,
    pub(crate) spreader_offset: Option<usize>,
    pub(crate) sink_node: Option<usize>,
    pub(crate) node_count: usize,
    /// Per tier: flat cell index → block index on that tier's floorplan.
    pub(crate) tier_cell_block: Vec<Vec<usize>>,
    /// Per tier: block index → number of grid cells it covers.
    pub(crate) tier_block_cell_counts: Vec<Vec<usize>>,
}

impl NodeLayout {
    /// Grid rows (y, across the channels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns (x, along the flow).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cells per layer.
    pub fn cells_per_layer(&self) -> usize {
        self.rows * self.cols
    }

    /// Number of tiers.
    pub(crate) fn tier_count(&self) -> usize {
        self.tier_offsets.len()
    }

    /// Number of microchannel cavities.
    #[cfg(test)]
    pub(crate) fn cavity_count(&self) -> usize {
        self.cavities.len()
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Node index of a tier junction cell.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[inline]
    pub fn tier_node(&self, tier: usize, row: usize, col: usize) -> usize {
        assert!(row < self.rows && col < self.cols, "cell out of range");
        self.tier_offsets[tier] + row * self.cols + col
    }

    /// Node index of a cavity fluid cell (`cavity` counts cavities
    /// bottom-up, not interfaces).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[inline]
    pub fn fluid_node(&self, cavity: usize, row: usize, col: usize) -> usize {
        assert!(row < self.rows && col < self.cols, "cell out of range");
        self.cavities[cavity].1 + row * self.cols + col
    }

    /// Block index covering a tier cell.
    #[inline]
    pub fn block_of_cell(&self, tier: usize, row: usize, col: usize) -> usize {
        self.tier_cell_block[tier][row * self.cols + col]
    }

    /// One [`vfc_num::GridCoord`] per node, in node order — the
    /// geometric view the multigrid coarsening works from.
    ///
    /// Every physical layer (tier, cavity, spreader) gets its own
    /// `layer` index; the lumped sink becomes a one-cell layer of its
    /// own. Only distinctness matters: the semi-coarsening merges 2×2
    /// in-plane patches and never across layers, so tiers and cavities
    /// keep their identity on every coarse level.
    pub fn grid_coords(&self) -> Vec<vfc_num::GridCoord> {
        let mut coords = vec![
            vfc_num::GridCoord {
                layer: 0,
                row: 0,
                col: 0
            };
            self.node_count
        ];
        let mut layer = 0u32;
        let fill_plane = |coords: &mut Vec<vfc_num::GridCoord>, offset: usize, layer: u32| {
            for row in 0..self.rows {
                for col in 0..self.cols {
                    coords[offset + row * self.cols + col] = vfc_num::GridCoord {
                        layer,
                        row: row as u32,
                        col: col as u32,
                    };
                }
            }
        };
        for &off in &self.tier_offsets {
            fill_plane(&mut coords, off, layer);
            layer += 1;
        }
        for &(_, off) in &self.cavities {
            fill_plane(&mut coords, off, layer);
            layer += 1;
        }
        if let Some(off) = self.spreader_offset {
            fill_plane(&mut coords, off, layer);
            layer += 1;
        }
        if let Some(sink) = self.sink_node {
            coords[sink] = vfc_num::GridCoord {
                layer,
                row: 0,
                col: 0,
            };
        }
        coords
    }
}

/// Cached backward-Euler operator for one sub-step length.
///
/// The shifted values are materialized (the branch-free inner loops pay
/// for themselves on every Krylov iteration; an on-the-fly diagonal shift
/// costs a per-entry diagonal test that measured ~25% on the 100 µm
/// transient), but the matrix shares the skeleton's index structure —
/// the stencil operator reads `matrix.values()` through the one shared
/// [`StencilPattern`].
#[derive(Debug)]
struct BeCache {
    /// Bit pattern of the sub-step length `h`.
    key: u64,
    /// `C/h + G` on the shared pattern.
    matrix: CsrMatrix,
    /// Preconditioner factored on `matrix`.
    precond: Box<dyn Preconditioner>,
    /// `C_i / h` per node, hoisted out of the sub-step rhs loop.
    cap_over_h: Vec<f64>,
}

/// An assembled thermal RC network for one stack at one coolant flow rate.
///
/// Produced by [`StackThermalBuilder`](crate::StackThermalBuilder) or
/// [`StackSkeleton::model`]. Every model holds an [`Arc`] to its grid's
/// immutable [`StackSkeleton`]; the conductance matrix shares the
/// skeleton's CSR index arrays and owns only the patched value array.
/// [`set_flow`](Self::set_flow) re-patches the flow-dependent entries in
/// place — no reassembly — so one model serves every pump setting.
///
/// Solver state (preconditioner factorizations, Krylov scratch space, the
/// backward-Euler operator) is cached inside the model and reused across
/// solves; it is invalidated only when the flow changes. A
/// recovery-ladder escalation outlives flow changes.
#[derive(Debug)]
pub struct ThermalModel {
    pub(crate) skeleton: Arc<StackSkeleton>,
    /// Patched conductance matrix (values owned, structure shared).
    pub(crate) g: CsrMatrix,
    /// Boundary injection `Σ G_b·T_b` per node at the current flow.
    pub(crate) b0: Vec<f64>,
    /// Current flow (`None` for air-cooled).
    flow: Option<VolumetricFlow>,
    /// Per-cavity flow derating currently patched in (empty = healthy,
    /// all cavities at 1.0). See [`set_flow_derated`](Self::set_flow_derated).
    flow_derates: Vec<f64>,
    pub(crate) solver: BiCgStab,
    /// Krylov scratch space reused by every solve on this model.
    workspace: SolverWorkspace,
    /// Reusable rhs buffer for steady-state solves and the per-sub-step
    /// transient rhs.
    rhs_buf: Vec<f64>,
    /// Flow-and-power part of the transient rhs (`P + b₀`), hoisted out
    /// of the sub-step loop.
    base_buf: Vec<f64>,
    /// Sub-step residual / seed scratch for the transient warm start.
    resid_buf: Vec<f64>,
    seed_buf: Vec<f64>,
    /// Preconditioner factored on `g`, built lazily, dropped on re-patch.
    steady_precond: Option<Box<dyn Preconditioner>>,
    /// Cached backward-Euler operator + preconditioner, keyed by the bit
    /// pattern of the sub-step length; dropped on re-patch.
    be_cache: Option<BeCache>,
    /// Krylov iterations spent by the most recent [`step`](Self::step).
    last_step_iterations: usize,
    /// Recovery-ladder override: once a solve fails and escalates, the
    /// stronger preconditioner sticks for the model's remaining solves,
    /// across flow patches too (healthy systems never set this, so they
    /// are unaffected).
    escalated_precond: Option<PreconditionerKind>,
    /// Pre-attempt state snapshot for transient retry rollback.
    snapshot_buf: Vec<f64>,
    /// Recovery retries spent by the most recent solve call.
    last_retries: u64,
    /// Preconditioner escalations spent by the most recent solve call.
    last_escalations: u64,
    /// Test seam: run every solve on the CSR operator even where the
    /// pattern decomposes, so tests can hold the stencil operator to
    /// bit-identity with its reference.
    #[cfg(test)]
    csr_only: bool,
    /// Test seam: start each transient sub-step from the previous state
    /// instead of seeding it with `temps + M⁻¹·r`, and never
    /// short-circuit, so tests can compare the seeded path with the
    /// plain warm start.
    #[cfg(test)]
    plain_warm_start: bool,
}

impl Clone for ThermalModel {
    /// Clones the model state; lazily built solver caches are not carried
    /// over (they are rebuilt on first use).
    fn clone(&self) -> Self {
        Self {
            skeleton: Arc::clone(&self.skeleton),
            g: self.g.clone(),
            b0: self.b0.clone(),
            flow: self.flow,
            flow_derates: self.flow_derates.clone(),
            solver: self.solver,
            workspace: SolverWorkspace::new(),
            rhs_buf: Vec::new(),
            base_buf: Vec::new(),
            resid_buf: Vec::new(),
            seed_buf: Vec::new(),
            steady_precond: None,
            be_cache: None,
            last_step_iterations: 0,
            escalated_precond: self.escalated_precond,
            snapshot_buf: Vec::new(),
            last_retries: 0,
            last_escalations: 0,
            #[cfg(test)]
            csr_only: self.csr_only,
            #[cfg(test)]
            plain_warm_start: self.plain_warm_start,
        }
    }
}

impl ThermalModel {
    /// Instantiates a model from its grid skeleton at one flow; flow
    /// validity is checked by [`StackSkeleton::model`].
    pub(crate) fn from_skeleton(
        skeleton: Arc<StackSkeleton>,
        flow: Option<VolumetricFlow>,
    ) -> Self {
        let mut g = skeleton.g_base.clone();
        let mut b0 = skeleton.b0_base.clone();
        if let Some(f) = flow {
            let patch = FlowPatch::compute(&skeleton, f, &[]);
            skeleton.apply_patch(&patch, &mut g, &mut b0);
        }
        let solver = skeleton.config.solver.bicgstab();
        Self {
            skeleton,
            g,
            b0,
            flow,
            flow_derates: Vec::new(),
            solver,
            workspace: SolverWorkspace::new(),
            rhs_buf: Vec::new(),
            base_buf: Vec::new(),
            resid_buf: Vec::new(),
            seed_buf: Vec::new(),
            steady_precond: None,
            be_cache: None,
            last_step_iterations: 0,
            escalated_precond: None,
            snapshot_buf: Vec::new(),
            last_retries: 0,
            last_escalations: 0,
            #[cfg(test)]
            csr_only: false,
            #[cfg(test)]
            plain_warm_start: false,
        }
    }

    /// The grid skeleton this model shares with every model of its grid.
    pub fn skeleton(&self) -> &Arc<StackSkeleton> {
        &self.skeleton
    }

    /// Whether transient sub-steps are seeded with the preconditioned
    /// residual correction `temps + M⁻¹·(b − A·temps)` and short-circuit
    /// once the warm start is converged. Always on outside the tests
    /// that compare it with the plain previous-state warm start.
    fn warm_seed(&self) -> bool {
        #[cfg(test)]
        if self.plain_warm_start {
            return false;
        }
        true
    }

    /// Krylov iterations spent by the most recent [`step`](Self::step)
    /// call, summed over its sub-steps (0 when every sub-step
    /// short-circuited).
    pub fn last_step_iterations(&self) -> usize {
        self.last_step_iterations
    }

    /// The stencil pattern this model's solves run on, when the grid's
    /// pattern decomposed into one; `None` sends them to the CSR
    /// operator, which lands the same bits.
    fn stencil_pattern(&self) -> Option<&Arc<StencilPattern>> {
        #[cfg(test)]
        if self.csr_only {
            return None;
        }
        self.skeleton.schedules.stencil()
    }

    /// Re-patches the model to a new flow rate in place: only the cavity
    /// convection/advection values and the inlet injection are
    /// rewritten; the CSR structure, conduction entries and node layout
    /// are untouched. Solver caches are invalidated (this is the only
    /// operation that invalidates them); a recovery-ladder escalation
    /// is kept.
    ///
    /// # Errors
    ///
    /// [`ThermalError::UnexpectedFlowRate`] on air-cooled models.
    pub fn set_flow(&mut self, flow: VolumetricFlow) -> Result<(), ThermalError> {
        self.set_flow_derated(flow, &[])
    }

    /// Like [`set_flow`](Self::set_flow), but with a per-cavity
    /// fractional flow derating (fault injection: channel clogging).
    /// `derates[c]` scales the flow cavity `c` effectively sees for its
    /// convection and advection couplings; missing entries and an empty
    /// slice mean 1.0 (healthy). The model still records the commanded
    /// `flow` — derating models a blocked channel, not a pump command.
    ///
    /// An all-ones derating is exactly `set_flow`: the healthy patch and
    /// cache-invalidation paths are shared bit for bit.
    ///
    /// # Errors
    ///
    /// [`ThermalError::UnexpectedFlowRate`] on air-cooled models.
    pub fn set_flow_derated(
        &mut self,
        flow: VolumetricFlow,
        derates: &[f64],
    ) -> Result<(), ThermalError> {
        if !self.skeleton.liquid {
            return Err(ThermalError::UnexpectedFlowRate);
        }
        let healthy = derates.iter().all(|&d| d == 1.0);
        let same_derates = if healthy {
            self.flow_derates.is_empty()
        } else {
            self.flow_derates == derates
        };
        if self.flow == Some(flow) && same_derates {
            return Ok(());
        }
        // Patch latency is the pump controller's actuation cost; spans
        // make it visible next to the solve times it trades against.
        let _span = vfc_obs::span("thermal.set_flow");
        vfc_obs::counter_add("thermal.flow_patches", 1);
        let patch = FlowPatch::compute(&self.skeleton, flow, derates);
        let skeleton = Arc::clone(&self.skeleton);
        skeleton.apply_patch(&patch, &mut self.g, &mut self.b0);
        self.flow = Some(flow);
        self.flow_derates = if healthy {
            Vec::new()
        } else {
            derates.to_vec()
        };
        self.steady_precond = None;
        self.be_cache = None;
        Ok(())
    }

    /// The node layout of this model.
    pub fn layout(&self) -> &NodeLayout {
        &self.skeleton.layout
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.skeleton.layout.node_count
    }

    /// The conductance matrix (diagnostics, tests).
    pub fn conductance_matrix(&self) -> &CsrMatrix {
        &self.g
    }

    /// The boundary injection vector `b₀ = Σ G_b·T_b` (ambient/inlet
    /// couplings folded into the rhs); used by mixed boundary-condition
    /// solves such as the TALB balanced-power characterization.
    pub fn boundary_injection(&self) -> &[f64] {
        &self.b0
    }

    /// A state vector initialized to the model's reference temperature
    /// (coolant inlet for liquid stacks, ambient for air).
    pub fn initial_state(&self) -> Vec<f64> {
        vec![self.skeleton.reference; self.skeleton.layout.node_count]
    }

    /// A zero power vector of the right length.
    pub fn zero_power(&self) -> Vec<f64> {
        vec![0.0; self.skeleton.layout.node_count]
    }

    /// Builds a node power vector by assigning each block a total power
    /// chosen by `per_block`, spread uniformly over the block's cells.
    pub fn uniform_block_power(
        &self,
        stack: &vfc_floorplan::Stack3d,
        per_block: impl Fn(&vfc_floorplan::Block) -> Watts,
    ) -> Vec<f64> {
        let mut p = self.zero_power();
        for (t, tier) in stack.tiers().iter().enumerate() {
            for (bi, block) in tier.floorplan().blocks().iter().enumerate() {
                self.add_block_power(&mut p, t, bi, per_block(block));
            }
        }
        p
    }

    /// Adds `watts` of power to one block, spread uniformly over its
    /// cells, into an existing node power vector.
    ///
    /// # Panics
    ///
    /// Panics if `power.len()` differs from the node count or indices are
    /// out of range.
    pub fn add_block_power(&self, power: &mut [f64], tier: usize, block: usize, watts: Watts) {
        let layout = &self.skeleton.layout;
        assert_eq!(power.len(), layout.node_count, "power length");
        let cells = layout.tier_block_cell_counts[tier][block];
        if cells == 0 || watts.value() == 0.0 {
            return;
        }
        let per_cell = watts.value() / cells as f64;
        for (flat, &b) in layout.tier_cell_block[tier].iter().enumerate() {
            if b == block {
                power[layout.tier_offsets[tier] + flat] += per_cell;
            }
        }
    }

    /// Solves the steady state `G·T = P + b₀`.
    ///
    /// `warm` seeds the iterative solver (e.g. the previous operating
    /// point); otherwise the reference temperature is used. The
    /// preconditioner is factored on first use and reused until the flow
    /// changes; the Krylov scratch space is reused across all solves.
    ///
    /// # Errors
    ///
    /// [`ThermalError::PowerLengthMismatch`] or a solver failure.
    pub fn steady_state(
        &mut self,
        power: &[f64],
        warm: Option<&[f64]>,
    ) -> Result<Vec<f64>, ThermalError> {
        let n = self.skeleton.layout.node_count;
        if power.len() != n {
            return Err(ThermalError::PowerLengthMismatch {
                expected: n,
                got: power.len(),
            });
        }
        let _span = vfc_obs::span("thermal.steady");
        vfc_obs::counter_add("thermal.steady_solves", 1);
        self.last_retries = 0;
        self.last_escalations = 0;
        self.rhs_buf.resize(n, 0.0);
        for i in 0..n {
            self.rhs_buf[i] = power[i] + self.b0[i];
        }
        self.ensure_steady_precond()?;
        let mut x = match warm {
            Some(w) if w.len() == n => w.to_vec(),
            _ => {
                // Cold start: one preconditioner application to the rhs is
                // already an approximate solution (exactly the solution for
                // a tridiagonal-complete factorization) and beats seeding
                // with the flat reference temperature.
                let mut x0 = vec![0.0; n];
                vfc_obs::counter_add("precond.applies", 1);
                self.steady_precond
                    .as_deref()
                    .expect("factored immediately above")
                    .apply(&self.rhs_buf, &mut x0);
                x0
            }
        };
        let mut outcome = self.steady_solve(&mut x);
        // Recovery ladder: a breakdown or non-convergence leaves the
        // best observed iterate in `x` (see `NumError::Breakdown`), so
        // the escalation rung warm-starts from it under the stronger
        // preconditioner.
        let mut rung = escalation_rung(self.effective_preconditioner());
        while let Err(err) = &outcome {
            if !is_solver_failure(err) {
                break;
            }
            let Some(rung) = rung.take() else { break };
            self.note_retry(true);
            self.escalated_precond = Some(rung);
            self.steady_precond = None;
            self.ensure_steady_precond()?;
            outcome = self.steady_solve(&mut x);
        }
        outcome?;
        Ok(x)
    }

    /// Factors the steady-state preconditioner on first use.
    fn ensure_steady_precond(&mut self) -> Result<(), ThermalError> {
        if self.steady_precond.is_none() {
            self.steady_precond = Some(self.factor(&self.g)?);
        }
        Ok(())
    }

    /// Factors the [`effective_preconditioner`](Self::effective_preconditioner)
    /// on `a`, which shares the skeleton's pattern (the conductance
    /// matrix or a backward-Euler operator).
    fn factor(&self, a: &CsrMatrix) -> Result<Box<dyn Preconditioner>, ThermalError> {
        Ok(self
            .effective_preconditioner()
            .build(a, &self.skeleton.schedules)?)
    }

    /// The configured preconditioner resolved on this model's grid
    /// ([`SolverConfig::resolve`](crate::SolverConfig::resolve)).
    fn configured_preconditioner(&self) -> PreconditionerKind {
        self.skeleton
            .config
            .solver
            .resolve(self.skeleton.layout.cells_per_layer())
    }

    /// One steady-state solve attempt against the current operator and
    /// preconditioner; `x` is the warm start going in, the solution (or
    /// best observed iterate on failure) coming out.
    fn steady_solve(&mut self, x: &mut [f64]) -> Result<(), ThermalError> {
        let precond = self
            .steady_precond
            .as_deref()
            .expect("ensure_steady_precond ran");
        // Operator dispatch: the stencil view walks the same entries in
        // the same order as CSR, so the iterates are bit-identical —
        // only the per-entry index loads are gone.
        match self.stencil_pattern().cloned() {
            Some(pat) => {
                let op = StencilOp::new(&pat, self.g.values());
                self.solver
                    .solve_with(&op, &self.rhs_buf, x, precond, &mut self.workspace)?;
            }
            None => {
                self.solver
                    .solve_with(&self.g, &self.rhs_buf, x, precond, &mut self.workspace)?;
            }
        }
        Ok(())
    }

    /// Advances the transient state by `dt` using `substeps` backward-Euler
    /// sub-steps (the power is held constant over the interval).
    ///
    /// The backward-Euler operator `C/h + G` and its preconditioner are
    /// cached per sub-step length and reused until the flow changes; the
    /// flow-and-power part of the rhs (`P + b₀`) is hoisted out of the
    /// sub-step loop. Each sub-step starts from the previous state
    /// corrected by the cached preconditioner's `M⁻¹·r`, and a sub-step
    /// whose warm start already meets the solver tolerance ends the whole
    /// interval early — the remaining sub-steps would reproduce the same
    /// state bit for bit.
    ///
    /// # Errors
    ///
    /// Length mismatches, [`ThermalError::InvalidTimeStep`], or solver
    /// failures.
    pub fn step(
        &mut self,
        temps: &mut [f64],
        power: &[f64],
        dt: Seconds,
        substeps: usize,
    ) -> Result<(), ThermalError> {
        let n = self.skeleton.layout.node_count;
        if power.len() != n {
            return Err(ThermalError::PowerLengthMismatch {
                expected: n,
                got: power.len(),
            });
        }
        if temps.len() != n {
            return Err(ThermalError::StateLengthMismatch {
                expected: n,
                got: temps.len(),
            });
        }
        if dt.value() <= 0.0 || substeps == 0 {
            return Err(ThermalError::InvalidTimeStep);
        }
        let _span = vfc_obs::span("thermal.step");
        vfc_obs::counter_add("thermal.steps", 1);
        self.last_step_iterations = 0;
        self.last_retries = 0;
        self.last_escalations = 0;
        self.rhs_buf.resize(n, 0.0);
        // Hoist the sub-step-invariant rhs part out of the loop.
        self.base_buf.resize(n, 0.0);
        for i in 0..n {
            self.base_buf[i] = power[i] + self.b0[i];
        }
        self.resid_buf.resize(n, 0.0);
        self.seed_buf.resize(n, 0.0);
        // Recovery ladder: a sub-step solve can leave `temps` partially
        // advanced, so every retry rolls the state back to this snapshot
        // before re-running the whole interval — first under the
        // escalated preconditioner, then with the sub-step length halved
        // (twice at most). Healthy systems never fail, never retry, and
        // are bit-identical to a ladder-free step.
        self.snapshot_buf.resize(n, 0.0);
        self.snapshot_buf.copy_from_slice(temps);
        let mut rung = escalation_rung(self.effective_preconditioner());
        let mut substeps_now = substeps;
        let mut halvings = 0u32;
        loop {
            let h = dt.value() / substeps_now as f64;
            self.ensure_be_cache(h)?;
            match self.run_substeps_dispatch(temps, substeps_now) {
                Ok(iterations) => {
                    self.last_step_iterations = iterations;
                    return Ok(());
                }
                Err(err) if is_solver_failure(&err) => {
                    if let Some(rung) = rung.take() {
                        self.note_retry(true);
                        self.escalated_precond = Some(rung);
                        // Invalidate both caches so the stronger kind is
                        // factored for the BE operator (and any later
                        // steady solve) on the next attempt.
                        self.steady_precond = None;
                        self.be_cache = None;
                    } else if halvings < 2 {
                        self.note_retry(false);
                        halvings += 1;
                        substeps_now *= 2;
                    } else {
                        return Err(err);
                    }
                    temps.copy_from_slice(&self.snapshot_buf);
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// One full-interval transient attempt: dispatches `run_substeps`
    /// over the cached backward-Euler operator, on the stencil operator
    /// when the pattern decomposed and on CSR otherwise.
    fn run_substeps_dispatch(
        &mut self,
        temps: &mut [f64],
        substeps: usize,
    ) -> Result<usize, ThermalError> {
        // Both operators walk the same entries in the same order, so the
        // iterates are bit-identical.
        let pat = self.stencil_pattern().cloned();
        let warm_seed = self.warm_seed();
        let be = self
            .be_cache
            .as_ref()
            .expect("ensure_be_cache populates the cache");
        match &pat {
            Some(pat) => {
                let op = StencilOp::new(pat, be.matrix.values());
                run_substeps(
                    &op,
                    &self.solver,
                    be.precond.as_ref(),
                    warm_seed,
                    substeps,
                    &be.cap_over_h,
                    &self.base_buf,
                    temps,
                    &mut self.rhs_buf,
                    &mut self.resid_buf,
                    &mut self.seed_buf,
                    &mut self.workspace,
                )
            }
            None => run_substeps(
                &be.matrix,
                &self.solver,
                be.precond.as_ref(),
                warm_seed,
                substeps,
                &be.cap_over_h,
                &self.base_buf,
                temps,
                &mut self.rhs_buf,
                &mut self.resid_buf,
                &mut self.seed_buf,
                &mut self.workspace,
            ),
        }
    }

    /// Counts one recovery retry (and, when `escalation`, one
    /// preconditioner escalation) in both the telemetry counters and the
    /// per-call accessors.
    fn note_retry(&mut self, escalation: bool) {
        vfc_obs::counter_add("solver.retries", 1);
        self.last_retries += 1;
        if escalation {
            vfc_obs::counter_add("solver.escalations", 1);
            self.last_escalations += 1;
        }
    }

    /// The preconditioner kind solves currently factor: the configured
    /// one resolved on this grid
    /// ([`SolverConfig::resolve`](crate::SolverConfig::resolve)), or
    /// multigrid once the recovery ladder has escalated to it.
    /// Escalation is sticky — once a solve on this model failed and
    /// multigrid rescued it, later solves keep multigrid rather than
    /// re-failing every step, at every flow the model is patched to.
    pub(crate) fn effective_preconditioner(&self) -> PreconditionerKind {
        self.escalated_precond
            .unwrap_or_else(|| self.configured_preconditioner())
    }

    /// Recovery retries spent by the most recent
    /// [`steady_state`](Self::steady_state) or [`step`](Self::step) call
    /// (0 on a healthy solve).
    #[cfg(test)]
    pub(crate) fn last_recovery_retries(&self) -> u64 {
        self.last_retries
    }

    /// Preconditioner escalations spent by the most recent
    /// [`steady_state`](Self::steady_state) or [`step`](Self::step) call.
    #[cfg(test)]
    pub(crate) fn last_recovery_escalations(&self) -> u64 {
        self.last_escalations
    }

    /// Maximum junction (tier-node) temperature.
    pub fn max_junction_temperature(&self, temps: &[f64]) -> Celsius {
        let layout = &self.skeleton.layout;
        let mut max = f64::NEG_INFINITY;
        for t in 0..layout.tier_count() {
            let off = layout.tier_offsets[t];
            for i in 0..layout.cells_per_layer() {
                max = max.max(temps[off + i]);
            }
        }
        Celsius::new(max)
    }

    /// Total power crossing the model boundary (into ambient/coolant) for
    /// a given state — equals injected power at steady state.
    #[cfg(test)]
    pub(crate) fn boundary_outflow(&self, temps: &[f64]) -> Watts {
        let mut q = 0.0;
        for (node, g, tb) in self.boundary_links() {
            q += g * (temps[node] - tb);
        }
        Watts::new(q)
    }

    /// The boundary links at the model's flow and derates, derived from
    /// the skeleton's link plan.
    #[cfg(test)]
    pub(crate) fn boundary_links(&self) -> Vec<(usize, f64, f64)> {
        let patch = self
            .flow
            .map(|f| FlowPatch::compute(&self.skeleton, f, &self.flow_derates));
        self.skeleton.boundary_links(patch.as_ref())
    }

    /// Builds (or reuses) the backward-Euler operator `C/h + G` for the
    /// given sub-step; the matrix shares the skeleton's CSR structure
    /// and only its diagonal differs from `g` by `cap/h`.
    fn ensure_be_cache(&mut self, h: f64) -> Result<(), ThermalError> {
        let key = h.to_bits();
        if matches!(&self.be_cache, Some(c) if c.key == key) {
            return Ok(());
        }
        let cap_over_h: Vec<f64> = self.skeleton.cap.iter().map(|&c| c / h).collect();
        let mut matrix = self.g.clone();
        {
            let values = matrix.values_mut();
            for (i, &di) in self.skeleton.diag_idx.iter().enumerate() {
                values[di as usize] += cap_over_h[i];
            }
        }
        // The BE operator shares the skeleton's pattern (only diagonal
        // values differ), so the skeleton's schedules apply to it too.
        let precond = self.factor(&matrix)?;
        self.be_cache = Some(BeCache {
            key,
            matrix,
            precond,
            cap_over_h,
        });
        Ok(())
    }
}

/// Whether a step/steady failure is one the recovery ladder can help
/// with: a Krylov breakdown or non-convergence. Anything else (length
/// mismatches, singular factorizations, pattern mismatches) is a caller
/// or configuration error that retrying cannot fix.
fn is_solver_failure(err: &ThermalError) -> bool {
    matches!(
        err,
        ThermalError::Solver(NumError::Breakdown { .. } | NumError::NoConvergence { .. })
    )
}

/// The recovery ladder's escalation rung above `current`: ILU(0)
/// escalates to the V(0,1) multigrid cycle, the same one the 100 µm
/// default runs. Multigrid has no rung above it (on the paper's 100 µm
/// grid the grid rule already picks it): a failed steady solve fails,
/// and a failed transient step goes straight to sub-step halving.
fn escalation_rung(current: PreconditionerKind) -> Option<PreconditionerKind> {
    match current {
        PreconditionerKind::Ilu0 => Some(PreconditionerKind::Multigrid),
        PreconditionerKind::Multigrid => None,
    }
}

/// The per-sub-step backward-Euler loop, generic over the operator
/// (stencil and CSR are bit-identical, so this monomorphizes the hot
/// loop per operator without duplicating its logic).
///
/// Per sub-step: the fused prologue builds `rhs = (C/h)∘T + (P + b₀)`
/// and the warm-start residual `r = rhs − A·T` in **one pass over the
/// grid**; a converged warm start short-circuits the remaining
/// sub-steps bit-exactly; otherwise the state is seeded with `M⁻¹·r`
/// and handed to the solver. Returns the summed Krylov iterations.
#[allow(clippy::too_many_arguments)]
fn run_substeps<A: LinearOperator>(
    op: &A,
    solver: &BiCgStab,
    precond: &dyn Preconditioner,
    warm_seed: bool,
    substeps: usize,
    cap_over_h: &[f64],
    base: &[f64],
    temps: &mut [f64],
    rhs: &mut [f64],
    resid: &mut [f64],
    seed: &mut [f64],
    ws: &mut SolverWorkspace,
) -> Result<usize, ThermalError> {
    let mut iterations = 0usize;
    for _ in 0..substeps {
        if warm_seed {
            // rhs and r = rhs − A·T_prev in one fused pass. If the
            // previous state already satisfies this sub-step
            // (quasi-steady intervals do after the first sub-step),
            // every remaining sub-step is bit-identical — stop here.
            op.be_prologue(cap_over_h, base, temps, rhs, resid);
            let b_norm = norm2(rhs);
            let r_norm = norm2(resid);
            if r_norm <= solver.tolerance * b_norm {
                vfc_obs::counter_add("thermal.substep_short_circuits", 1);
                break;
            }
            // Seed with the preconditioned residual correction (M⁻¹·r
            // is what the solver's first iteration would spend most of
            // its work approximating).
            vfc_obs::counter_add("thermal.warm_seeded_substeps", 1);
            vfc_obs::counter_add("precond.applies", 1);
            precond.apply(resid, seed);
            for (t, &d) in temps.iter_mut().zip(&*seed) {
                *t += d;
            }
        } else {
            for (((out, &c), &t), &b) in rhs.iter_mut().zip(cap_over_h).zip(&*temps).zip(base) {
                *out = c * t + b;
            }
        }
        vfc_obs::counter_add("thermal.substeps", 1);
        let info = solver.solve_with(op, rhs, temps, precond, ws)?;
        iterations += info.iterations;
    }
    Ok(iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StackThermalBuilder, ThermalConfig};
    use proptest::prelude::*;
    use vfc_floorplan::{ultrasparc, GridSpec};
    use vfc_units::{Length, Watts};

    fn liquid_model(cell_mm: f64, flow_ml: f64) -> ThermalModel {
        let stack = ultrasparc::two_layer_liquid();
        let grid = GridSpec::from_cell_size(
            stack.tiers()[0].floorplan(),
            Length::from_millimeters(cell_mm),
        );
        StackThermalBuilder::new(&stack, grid, ThermalConfig::default())
            .build(Some(VolumetricFlow::from_ml_per_minute(flow_ml)))
            .unwrap()
    }

    fn core_power(model: &ThermalModel, watts: f64) -> Vec<f64> {
        let stack = ultrasparc::two_layer_liquid();
        model.uniform_block_power(&stack, |b| {
            if b.is_core() {
                Watts::new(watts)
            } else {
                Watts::new(0.4)
            }
        })
    }

    #[test]
    fn converged_substeps_short_circuit_without_touching_state() {
        // Stepping from the exact steady state of the same power is a
        // no-op: the first sub-step's warm start already meets the
        // tolerance, so the whole interval ends with zero iterations and
        // a bit-identical state.
        let mut model = liquid_model(1.5, 600.0);
        let p = core_power(&model, 3.0);
        let steady = model.steady_state(&p, None).unwrap();
        let mut temps = steady.clone();
        model
            .step(&mut temps, &p, Seconds::from_millis(100.0), 5)
            .unwrap();
        assert_eq!(model.last_step_iterations(), 0);
        assert!(
            temps
                .iter()
                .zip(&steady)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "short-circuit must not touch the state"
        );

        // The plain warm start converges to the same answer within
        // tolerance, but cannot skip the sub-step solves.
        let mut ablation = liquid_model(1.5, 600.0);
        ablation.plain_warm_start = true;
        let mut temps_ab = steady.clone();
        ablation
            .step(&mut temps_ab, &p, Seconds::from_millis(100.0), 5)
            .unwrap();
        for (a, b) in temps_ab.iter().zip(&temps) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn warm_seed_changes_iterations_but_not_temperatures() {
        // Satellite gate: seeding with M⁻¹r changes how the solver gets
        // there (iteration counts), never where it lands (temperatures
        // beyond tolerance). The 0.25 mm grid (9,200 nodes) at 600
        // ml/min is the transient-gate case.
        for (cell_mm, flow_ml) in [(1.0, 400.0), (0.25, 600.0)] {
            let mut seeded = liquid_model(cell_mm, flow_ml);
            let mut plain = liquid_model(cell_mm, flow_ml);
            plain.plain_warm_start = true;
            let p_cold = core_power(&seeded, 1.0);
            let p_hot = core_power(&seeded, 3.5);
            let start = seeded.steady_state(&p_cold, None).unwrap();

            let mut t_seeded = start.clone();
            let mut t_plain = start.clone();
            let mut iter_pairs = Vec::new();
            for _ in 0..4 {
                seeded
                    .step(&mut t_seeded, &p_hot, Seconds::from_millis(100.0), 5)
                    .unwrap();
                plain
                    .step(&mut t_plain, &p_hot, Seconds::from_millis(100.0), 5)
                    .unwrap();
                iter_pairs.push((seeded.last_step_iterations(), plain.last_step_iterations()));
                for (a, b) in t_seeded.iter().zip(&t_plain) {
                    assert!((a - b).abs() < 1e-6, "{cell_mm} mm: {a} vs {b}");
                }
            }
            assert!(
                iter_pairs.iter().any(|&(s, p)| s != p),
                "{cell_mm} mm: seeding never changed an iteration count: {iter_pairs:?}"
            );
            assert!(
                iter_pairs.iter().all(|&(s, p)| s <= p),
                "{cell_mm} mm: seeding must not cost iterations: {iter_pairs:?}"
            );
        }
    }

    #[test]
    fn preconditioners_order_by_iterations_and_agree_on_the_solution() {
        // Deterministic gates on the 0.5 mm steady solve. Measured:
        // ILU(0) 11 and multigrid 4 iterations (8 V-cycles); the budgets
        // only let a real regression trip.
        let model = liquid_model(0.5, 600.0);
        let n = model.node_count();
        assert!(
            n >= 2300,
            "the gate grid must be the fine case, got {n} nodes"
        );
        let stack = ultrasparc::two_layer_liquid();
        let p = model.uniform_block_power(&stack, |b| {
            if b.is_core() {
                Watts::new(3.0)
            } else {
                Watts::new(0.5)
            }
        });
        let a = model.conductance_matrix();
        let rhs: Vec<f64> = p
            .iter()
            .zip(model.boundary_injection())
            .map(|(pi, bi)| pi + bi)
            .collect();
        let mut ws = SolverWorkspace::with_order(n);
        let mut iters = Vec::new();
        let mut vcycles = Vec::new();
        let mut solutions: Vec<Vec<f64>> = Vec::new();
        for kind in [PreconditionerKind::Ilu0, PreconditionerKind::Multigrid] {
            let precond = kind
                .build(a, model.skeleton().schedules())
                .expect("factorization");
            let mut x = model.initial_state();
            let info = BiCgStab::default()
                .solve_with(a, &rhs, &mut x, precond.as_ref(), &mut ws)
                .expect("converges");
            iters.push(info.iterations);
            vcycles.push(precond.cycles());
            solutions.push(x);
        }

        assert!(iters[0] <= 60, "ILU(0) iterations regressed: {iters:?}");
        assert!(
            iters[1] <= iters[0],
            "multigrid must not need more iterations than ILU(0): {iters:?}"
        );
        assert!(iters[1] <= 10, "multigrid iterations regressed: {iters:?}");
        // BiCGStab applies the preconditioner twice per iteration, so the
        // iteration gate pins the V-cycle count: a deeper or shallower
        // cycle structure cannot hide behind it.
        let mg_vcycles = vcycles[1].expect("multigrid reports its V-cycle count");
        let mg_iters = iters[1] as u64;
        assert!(
            (mg_iters..=2 * mg_iters).contains(&mg_vcycles),
            "V-cycles per solve out of range: {mg_vcycles} for {mg_iters} iterations"
        );
        assert!(vcycles[0].is_none(), "only multigrid runs V-cycles");
        let max_dev = solutions[1]
            .iter()
            .zip(&solutions[0])
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_dev < 1e-5,
            "preconditioners disagree on the solution by {max_dev} K"
        );
    }

    #[test]
    fn the_default_at_100_um_runs_cheap_multigrid_and_agrees_with_ilu0() {
        // The grid rule's pick on the paper's grid lands on the steady
        // state the explicit ILU(0) override converges to.
        let mut auto = liquid_model(0.1, 600.0);
        assert_eq!(
            auto.configured_preconditioner(),
            PreconditionerKind::Multigrid
        );
        let stack = ultrasparc::two_layer_liquid();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(0.1));
        let mut config = ThermalConfig::default();
        config.solver.preconditioner = Some(PreconditionerKind::Ilu0);
        let mut ilu0 = StackThermalBuilder::new(&stack, grid, config)
            .build(Some(VolumetricFlow::from_ml_per_minute(600.0)))
            .unwrap();
        assert_eq!(ilu0.effective_preconditioner(), PreconditionerKind::Ilu0);
        let p = core_power(&auto, 3.0);
        let t_auto = auto.steady_state(&p, None).unwrap();
        let t_ilu0 = ilu0.steady_state(&p, None).unwrap();
        let (tmax_auto, tmax_ilu0) = (
            auto.max_junction_temperature(&t_auto).value(),
            ilu0.max_junction_temperature(&t_ilu0).value(),
        );
        assert!(
            (tmax_auto - tmax_ilu0).abs() < 1e-6,
            "Tmax: default {tmax_auto} vs ILU(0) {tmax_ilu0}"
        );
        // Node by node the two differ by up to 2.2e-6 K, mostly ILU(0)'s
        // own error at the 1e-10 residual: it is 1.8e-6 K off a 1e-14
        // solve, multigrid 0.7e-6 K (measured).
        let max_dev = t_auto
            .iter()
            .zip(&t_ilu0)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_dev < 1e-5, "default and ILU(0) disagree by {max_dev} K");
    }

    #[test]
    fn a_model_patched_away_and_back_steps_like_a_fresh_build() {
        // A simulation keeps one model and re-patches it on every pump
        // switch and flow fault. Patched A → B → A, or A → derated A →
        // A, after a steady solve and a step have built both its solver
        // caches, the model must land the bits of a fresh model patched
        // the same way before its first solve: every stale
        // factorization is rebuilt from the new values.
        let flow = VolumetricFlow::from_ml_per_minute;
        let dt = Seconds::from_millis(100.0);
        let away: [&dyn Fn(&mut ThermalModel); 2] = [&|m| m.set_flow(flow(900.0)).unwrap(), &|m| {
            m.set_flow_derated(flow(400.0), &[0.5, 1.0, 1.0]).unwrap()
        }];
        let back: &dyn Fn(&mut ThermalModel) = &|m| m.set_flow(flow(400.0)).unwrap();
        for cell_mm in [1.0, 0.25] {
            for (d, detour) in away.into_iter().enumerate() {
                let mut patched = liquid_model(cell_mm, 400.0);
                let p_cold = core_power(&patched, 1.0);
                let p_hot = core_power(&patched, 3.5);
                let mut temps = patched.steady_state(&p_cold, None).unwrap();
                patched.step(&mut temps, &p_hot, dt, 5).unwrap();
                for (stage, patch) in [("away", detour), ("back", back)] {
                    let what = format!("{cell_mm} mm, detour {d}, {stage}");
                    patch(&mut patched);
                    let mut fresh = patched.skeleton().model(Some(flow(400.0))).unwrap();
                    patch(&mut fresh);
                    let mut t_fresh = temps.clone();
                    for _ in 0..2 {
                        patched.step(&mut temps, &p_hot, dt, 5).unwrap();
                        fresh.step(&mut t_fresh, &p_hot, dt, 5).unwrap();
                        assert_eq!(
                            patched.last_step_iterations(),
                            fresh.last_step_iterations(),
                            "{what}: iterations"
                        );
                        assert!(
                            temps
                                .iter()
                                .zip(&t_fresh)
                                .all(|(x, y)| x.to_bits() == y.to_bits()),
                            "{what}: step diverged from a fresh model"
                        );
                    }
                    let s_patched = patched.steady_state(&p_cold, None).unwrap();
                    let s_fresh = fresh.steady_state(&p_cold, None).unwrap();
                    assert!(
                        s_patched
                            .iter()
                            .zip(&s_fresh)
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{what}: steady state diverged from a fresh model"
                    );
                }
            }
        }
    }

    /// Builds the same model twice: one solving on the stencil operator
    /// (the grid decomposes), one held to the CSR reference.
    fn operator_pair(cell_mm: f64, flow_ml: f64) -> (ThermalModel, ThermalModel) {
        let stencil = liquid_model(cell_mm, flow_ml);
        let mut csr = liquid_model(cell_mm, flow_ml);
        csr.csr_only = true;
        (stencil, csr)
    }

    #[test]
    fn stencil_and_csr_backends_are_bit_identical() {
        // Tentpole parity gate at model level: steady state, transient
        // stepping and iteration counts must agree bit for bit between
        // the index-free stencil operator and the CSR reference.
        let (mut stencil, mut csr) = operator_pair(1.0, 500.0);
        // The 1 mm stacked grid is regular: the stencil decomposition
        // must engage, or this test compares CSR with itself.
        assert!(stencil.stencil_pattern().is_some());
        assert!(csr.stencil_pattern().is_none());
        let p_cold = core_power(&stencil, 1.5);
        let p_hot = core_power(&stencil, 3.5);
        let s1 = stencil.steady_state(&p_cold, None).unwrap();
        let s2 = csr.steady_state(&p_cold, None).unwrap();
        assert!(
            s1.iter().zip(&s2).all(|(a, b)| a.to_bits() == b.to_bits()),
            "steady state diverged between operators"
        );
        let mut t1 = s1;
        let mut t2 = s2;
        for _ in 0..3 {
            stencil
                .step(&mut t1, &p_hot, Seconds::from_millis(100.0), 5)
                .unwrap();
            csr.step(&mut t2, &p_hot, Seconds::from_millis(100.0), 5)
                .unwrap();
            assert_eq!(
                stencil.last_step_iterations(),
                csr.last_step_iterations(),
                "iteration counts diverged"
            );
            assert!(
                t1.iter().zip(&t2).all(|(a, b)| a.to_bits() == b.to_bits()),
                "transient diverged between operators"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Satellite parity property: full `ThermalModel::step` is
        /// bit-identical between operators across random grids and
        /// flows, and across thread counts: 1 or 4 clones of the
        /// stencil model, sharing one skeleton, step at once on their
        /// own threads (as the sweep runner's workers do) and must each
        /// land the CSR reference's bits.
        #[test]
        fn step_parity_across_grids_flows_and_threads(
            cell_idx in 0usize..3,
            flow_ml in 250.0f64..1000.0,
            watts in 1.0f64..4.0,
            threads_idx in 0usize..2,
        ) {
            let cell = [1.0, 1.5, 2.0][cell_idx];
            let threads = [1usize, 4][threads_idx];
            let (stencil, mut csr) = operator_pair(cell, flow_ml);
            let p0 = core_power(&stencil, 1.5);
            let p1 = core_power(&stencil, watts);
            let s_ref = csr.steady_state(&p0, None).unwrap();
            let mut t_ref = s_ref.clone();
            csr.step(&mut t_ref, &p1, Seconds::from_millis(100.0), 5).unwrap();
            let iters_ref = csr.last_step_iterations();
            let runs: Vec<(Vec<f64>, Vec<f64>, usize)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let mut model = stencil.clone();
                        let (p0, p1) = (&p0, &p1);
                        scope.spawn(move || {
                            let steady = model.steady_state(p0, None).unwrap();
                            let mut temps = steady.clone();
                            model.step(&mut temps, p1, Seconds::from_millis(100.0), 5).unwrap();
                            (steady, temps, model.last_step_iterations())
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (steady, temps, iters) in runs {
                for (a, b) in steady.iter().zip(&s_ref) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                prop_assert_eq!(iters, iters_ref);
                for (a, b) in temps.iter().zip(&t_ref) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Satellite property: across random flows, powers and sub-step
        /// counts, the warm-seeded transient agrees with the plain warm
        /// start within solver tolerance.
        #[test]
        fn warm_seed_agrees_within_tolerance(
            flow_ml in 250.0f64..1000.0,
            watts in 0.5f64..4.0,
            substeps in 1usize..7,
        ) {
            let mut seeded = liquid_model(1.5, flow_ml);
            let mut plain = liquid_model(1.5, flow_ml);
            plain.plain_warm_start = true;
            let p0 = core_power(&seeded, 1.5);
            let p1 = core_power(&seeded, watts);
            let start = seeded.steady_state(&p0, None).unwrap();
            let mut t_seeded = start.clone();
            let mut t_plain = start;
            seeded
                .step(&mut t_seeded, &p1, Seconds::from_millis(100.0), substeps)
                .unwrap();
            plain
                .step(&mut t_plain, &p1, Seconds::from_millis(100.0), substeps)
                .unwrap();
            for (a, b) in t_seeded.iter().zip(&t_plain) {
                prop_assert!((a - b).abs() < 1e-6, "{} vs {}", a, b);
            }
        }
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;
    use crate::{StackThermalBuilder, ThermalConfig};
    use vfc_floorplan::{ultrasparc, GridSpec};
    use vfc_units::{Length, Watts};

    /// A liquid model on `cell_mm` cells at 400 ml/min running `kind`
    /// under an iteration cap of `cap` — far below what it needs on this
    /// grid when a test wants it to fail.
    fn crippled_model(cell_mm: f64, kind: PreconditionerKind, cap: usize) -> ThermalModel {
        let stack = ultrasparc::two_layer_liquid();
        let grid = GridSpec::from_cell_size(
            stack.tiers()[0].floorplan(),
            Length::from_millimeters(cell_mm),
        );
        let mut cfg = ThermalConfig::default();
        cfg.solver.preconditioner = Some(kind);
        cfg.solver.max_iterations = cap;
        StackThermalBuilder::new(&stack, grid, cfg)
            .build(Some(VolumetricFlow::from_ml_per_minute(400.0)))
            .unwrap()
    }

    fn hot_power(model: &ThermalModel, watts: f64) -> Vec<f64> {
        let stack = ultrasparc::two_layer_liquid();
        model.uniform_block_power(&stack, |b| {
            if b.is_core() {
                Watts::new(watts)
            } else {
                Watts::new(0.4)
            }
        })
    }

    fn assert_close(got: &[f64], want: &[f64], tol: f64) {
        for (a, b) in got.iter().zip(want) {
            assert!((a - b).abs() < tol, "{a} vs {b}");
        }
    }

    #[test]
    fn steady_recovery_ladder_climbs_to_multigrid() {
        // ILU(0) capped at 4 iterations cannot finish this steady solve,
        // and the ladder's one rung, multigrid, rescues it.
        if !vfc_obs::counters_enabled() {
            vfc_obs::set_level(vfc_obs::TelemetryLevel::Counters);
        }
        let before = vfc_obs::snapshot();
        let mut model = crippled_model(1.0, PreconditionerKind::Ilu0, 4);
        let p = hot_power(&model, 3.0);
        let steady = model
            .steady_state(&p, None)
            .expect("ladder must rescue the crippled config");
        assert_eq!(model.last_recovery_retries(), 1, "one rung climbed");
        assert_eq!(model.last_recovery_escalations(), 1);
        assert_eq!(
            model.effective_preconditioner(),
            PreconditionerKind::Multigrid
        );
        let after = vfc_obs::snapshot();
        let delta =
            |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        assert!(delta("solver.retries") >= 1, "retries counted");
        assert!(delta("solver.escalations") >= 1, "escalations counted");

        // The rescued answer is the same steady state a healthy config
        // converges to (both meet the same residual tolerance).
        let mut healthy = crippled_model(1.0, PreconditionerKind::Ilu0, 400);
        let reference = healthy.steady_state(&p, None).unwrap();
        assert_eq!(healthy.last_recovery_retries(), 0);
        assert_close(&steady, &reference, 1e-6);

        // Escalation is sticky: the next solve runs clean under the
        // escalated kind instead of re-failing through the ladder.
        let again = model.steady_state(&p, Some(&steady)).unwrap();
        assert_eq!(model.last_recovery_retries(), 0, "no re-climb");
        assert_close(&again, &steady, 1e-9);
    }

    #[test]
    fn transient_recovery_escalates_and_rolls_back_cleanly() {
        // ILU(0) capped at 4 iterations cannot finish the 5-sub-step step
        // either, and one escalation to multigrid rescues it. The retry
        // re-runs the full interval from the snapshot, so the result must
        // match a healthy model's step to solver tolerance.
        let mut healthy = crippled_model(1.0, PreconditionerKind::Ilu0, 400);
        let start = healthy
            .steady_state(&hot_power(&healthy, 3.0), None)
            .unwrap();
        let mut model = crippled_model(1.0, PreconditionerKind::Ilu0, 4);
        let p_hot = hot_power(&model, 6.0);
        let mut temps = start.clone();
        model
            .step(&mut temps, &p_hot, Seconds::from_millis(100.0), 5)
            .unwrap();
        assert_eq!(model.last_recovery_retries(), 1, "one rung climbed");
        assert_eq!(model.last_recovery_escalations(), 1);
        assert!(model.last_step_iterations() > 0);
        assert_eq!(
            model.effective_preconditioner(),
            PreconditionerKind::Multigrid,
            "the escalation sticks"
        );

        let mut t_ref = start;
        healthy
            .step(&mut t_ref, &p_hot, Seconds::from_millis(100.0), 5)
            .unwrap();
        assert_eq!(healthy.last_recovery_retries(), 0);
        assert_close(&temps, &t_ref, 1e-6);

        // A later step on the escalated model runs clean.
        model
            .step(&mut temps, &p_hot, Seconds::from_millis(100.0), 5)
            .unwrap();
        assert_eq!(model.last_recovery_retries(), 0);
    }

    #[test]
    fn escalation_survives_a_flow_patch() {
        // A simulation keeps one model across every pump setting, so an
        // escalation sticks for the rest of the cell: a flow patch drops
        // the factorizations but not the escalated kind.
        let mut model = crippled_model(1.0, PreconditionerKind::Ilu0, 4);
        let p = hot_power(&model, 3.0);
        let steady = model
            .steady_state(&p, None)
            .expect("ladder must rescue the crippled config");
        assert_eq!(model.last_recovery_escalations(), 1);
        model
            .set_flow(VolumetricFlow::from_ml_per_minute(800.0))
            .unwrap();
        assert_eq!(
            model.effective_preconditioner(),
            PreconditionerKind::Multigrid
        );
        model.steady_state(&p, Some(&steady)).unwrap();
        assert_eq!(model.last_recovery_retries(), 0, "no re-climb");
    }

    #[test]
    fn substep_halving_rescues_a_multigrid_step() {
        // Multigrid has no rung above it, so a failed step goes straight
        // to sub-step halving: at 0.5 mm, multigrid capped at 3
        // iterations fails the 5-sub-step step, and two halvings rescue
        // it, so the interval runs as 20 sub-steps; capped at 1, the step
        // fails after both halvings.
        let mut healthy = crippled_model(0.5, PreconditionerKind::Multigrid, 400);
        let start = healthy
            .steady_state(&hot_power(&healthy, 3.0), None)
            .unwrap();
        let p_hot = hot_power(&healthy, 6.0);
        let mut t_ref = start.clone();
        healthy
            .step(&mut t_ref, &p_hot, Seconds::from_millis(100.0), 20)
            .unwrap();
        assert_eq!(healthy.last_recovery_retries(), 0);

        let mut model = crippled_model(0.5, PreconditionerKind::Multigrid, 3);
        let mut temps = start.clone();
        model
            .step(&mut temps, &p_hot, Seconds::from_millis(100.0), 5)
            .expect("sub-step halving must rescue the step");
        assert_eq!(model.last_recovery_retries(), 2, "two halvings");
        assert_eq!(model.last_recovery_escalations(), 0, "no rung to climb");
        assert_close(&temps, &t_ref, 1e-6);

        let mut starved = crippled_model(0.5, PreconditionerKind::Multigrid, 1);
        let mut temps = start;
        let err = starved
            .step(&mut temps, &p_hot, Seconds::from_millis(100.0), 5)
            .unwrap_err();
        assert!(is_solver_failure(&err), "{err:?}");
        assert_eq!(starved.last_recovery_retries(), 2, "both halvings spent");
        assert_eq!(starved.last_recovery_escalations(), 0);
    }

    #[test]
    fn healthy_models_never_touch_the_ladder() {
        let mut model = crippled_model(1.0, PreconditionerKind::Ilu0, 400);
        let p = hot_power(&model, 3.0);
        let steady = model.steady_state(&p, None).unwrap();
        assert_eq!(model.last_recovery_retries(), 0);
        assert_eq!(model.last_recovery_escalations(), 0);
        assert_eq!(model.effective_preconditioner(), PreconditionerKind::Ilu0);
        let mut temps = steady;
        model
            .step(
                &mut temps,
                &hot_power(&model, 6.0),
                Seconds::from_millis(100.0),
                5,
            )
            .unwrap();
        assert_eq!(model.last_recovery_retries(), 0);
        assert_eq!(model.effective_preconditioner(), PreconditionerKind::Ilu0);
    }
}
