//! Structure-sharing model families: one CSR skeleton per grid, patched
//! per pump setting.
//!
//! The conduction topology of a stack is fixed by its geometry; only the
//! cavity convection conductances, the coolant advection terms and the
//! inlet injection change with the pump's flow rate. [`StackSkeleton`]
//! captures everything flow-independent — the CSR sparsity pattern, the
//! conduction values, capacitances, the static boundary couplings and the
//! node layout — exactly once per grid. A [`FlowPatch`] is the cheap
//! per-flow complement: three scalars per cavity plus index lists that
//! overwrite only the flow-dependent entries of a structure-shared matrix.
//!
//! [`ThermalModelFamily`] bundles one skeleton with the per-pump-setting
//! [`ThermalModel`](crate::ThermalModel) views; all members share the
//! skeleton through an [`Arc`] (and thereby one copy of the CSR index
//! arrays), so a five-setting family at a fine grid costs five value
//! arrays, not five matrices.

use std::sync::Arc;

use vfc_num::{CsrMatrix, KernelSchedules};
use vfc_units::VolumetricFlow;

use crate::{NodeLayout, StackThermalBuilder, ThermalConfig, ThermalError, ThermalModel};

/// Which per-cavity coefficient a flow-dependent matrix slot scales with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoefKind {
    /// Fluid ↔ tier-above convection (through the tier's BEOL face).
    ConvAbove,
    /// Fluid ↔ tier-below convection (through the tier's silicon bulk).
    ConvBelow,
    /// Upwind advection along the channel.
    Advection,
}

/// One flow-dependent contribution to a CSR value slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlowStamp {
    /// Index into the CSR value array.
    pub value_idx: u32,
    /// Cavity whose coefficient this slot scales with.
    pub cavity: u16,
    /// Coefficient selector.
    pub kind: CoefKind,
    /// `+1` for diagonal accumulation, `-1` for couplings.
    pub sign: f64,
}

/// Flow-independent geometry of one cavity's convective faces.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CavityFaces {
    /// Conduction area-resistance of the tier face above (BEOL), if any.
    pub above_r_area: Option<f64>,
    /// Conduction area-resistance of the tier face below (silicon), if any.
    pub below_r_area: Option<f64>,
}

/// Ordered plan for reconstructing the boundary-link list at any flow.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LinkPlan {
    /// Flow-independent link (air-package sink convection).
    Static {
        /// Node index.
        node: usize,
        /// Conductance to the boundary.
        g: f64,
        /// Boundary temperature.
        temp: f64,
    },
    /// Channel-outlet enthalpy link; conductance is the cavity's advection
    /// coefficient at the patched flow.
    Outlet {
        /// Fluid node at the last column.
        node: usize,
        /// Cavity index.
        cavity: usize,
    },
}

/// The immutable, per-grid part of a thermal model: CSR sparsity pattern,
/// conduction entries, capacitances, layout and patch recipes.
///
/// Built once per `(stack, grid, config)` by
/// [`StackThermalBuilder::skeleton`]; all pump-setting models derived from
/// it share this object behind an [`Arc`] — see [`ThermalModelFamily`].
#[derive(Debug)]
pub struct StackSkeleton {
    /// Full-pattern matrix holding only the flow-independent values
    /// (flow-dependent slots are reserved in the pattern and hold zero).
    pub(crate) g_base: CsrMatrix,
    /// Per row, the CSR value index of the diagonal entry (the pattern
    /// always includes the diagonal; backward-Euler and ILU need it).
    pub(crate) diag_idx: Vec<u32>,
    /// Pattern-derived kernel schedules (triangular level sets for the
    /// level-major ILU(0) sweeps, the stencil decomposition, the
    /// multigrid hierarchy), computed once per grid and shared by every
    /// pump setting's preconditioner — including the backward-Euler
    /// operators, which share this pattern.
    pub(crate) schedules: Arc<KernelSchedules>,
    /// Per-node heat capacities (flow-independent: cavity geometry fixes
    /// the fluid volume).
    pub(crate) cap: Vec<f64>,
    /// Flow-independent boundary injection `Σ G_b·T_b`.
    pub(crate) b0_base: Vec<f64>,
    /// Boundary-link reconstruction plan, in assembly order.
    pub(crate) links_plan: Vec<LinkPlan>,
    /// Flow-dependent matrix contributions.
    pub(crate) flow_stamps: Vec<FlowStamp>,
    /// `(node, cavity)` pairs receiving `g_adv·T_inlet` in the rhs.
    pub(crate) inlet_rhs: Vec<(u32, u16)>,
    /// Per-cavity convective face geometry.
    pub(crate) cavity_faces: Vec<CavityFaces>,
    /// Node layout (shared by every model of the family).
    pub(crate) layout: NodeLayout,
    /// Builder configuration (convection model, coolant, solver knobs).
    pub(crate) config: ThermalConfig,
    /// Cold-start reference temperature (inlet or ambient).
    pub(crate) reference: f64,
    /// Whether the stack is liquid-cooled (flow required).
    pub(crate) liquid: bool,
    /// Grid cell area in m².
    pub(crate) cell_area: f64,
}

impl StackSkeleton {
    /// Whether models of this family require a coolant flow rate.
    #[cfg(test)]
    pub(crate) fn is_liquid_cooled(&self) -> bool {
        self.liquid
    }

    /// The builder configuration the skeleton was assembled with.
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// The flow-independent base matrix (conduction entries on the full
    /// pattern; flow-dependent slots hold zero).
    #[cfg(test)]
    pub(crate) fn base_matrix(&self) -> &CsrMatrix {
        &self.g_base
    }

    /// Number of flow-dependent value slots patched per flow change.
    #[cfg(test)]
    pub(crate) fn flow_slot_count(&self) -> usize {
        self.flow_stamps.len()
    }

    /// Number of liquid cavities (0 for air-cooled stacks). Per-cavity
    /// flow deratings — the channel-clogging fault path — index into
    /// this range.
    #[cfg(test)]
    pub(crate) fn cavity_count(&self) -> usize {
        self.cavity_faces.len()
    }

    /// The pattern-derived kernel schedules (level sets, stencil
    /// decomposition, multigrid hierarchy) every model of this family — and every
    /// backward-Euler operator derived from one — builds its
    /// preconditioner and operator views with.
    pub fn schedules(&self) -> &Arc<KernelSchedules> {
        &self.schedules
    }

    /// The grid pattern's stencil decomposition, when regular enough
    /// for the index-free operator (computed once per grid alongside the
    /// CSR pattern; shared by every pump setting and backward-Euler
    /// operator).
    pub fn stencil(&self) -> Option<&Arc<vfc_num::StencilPattern>> {
        self.schedules.stencil()
    }

    /// Instantiates a model of this family at the given flow.
    ///
    /// The returned model shares this skeleton (and the CSR index arrays)
    /// with every sibling; only the value array, rhs and boundary links
    /// are owned per model.
    ///
    /// # Errors
    ///
    /// [`ThermalError::MissingFlowRate`] /
    /// [`ThermalError::UnexpectedFlowRate`] on a flow/stack mismatch.
    pub fn model(
        self: &Arc<Self>,
        flow: Option<VolumetricFlow>,
    ) -> Result<ThermalModel, ThermalError> {
        match (self.liquid, flow) {
            (true, None) => Err(ThermalError::MissingFlowRate),
            (false, Some(_)) => Err(ThermalError::UnexpectedFlowRate),
            _ => Ok(ThermalModel::from_skeleton(Arc::clone(self), flow)),
        }
    }

    /// Writes the flow-dependent values of `patch` over the base entries:
    /// `g` values, rhs and boundary links all come out exactly as a
    /// from-scratch build at the patch's flow rate.
    pub(crate) fn apply_patch(
        &self,
        patch: &FlowPatch,
        g: &mut CsrMatrix,
        b0: &mut [f64],
        links: &mut Vec<(usize, f64, f64)>,
    ) {
        debug_assert!(g.shares_structure(&self.g_base), "foreign matrix");
        // Re-point at the shared flow-independent base, then
        // copy-on-write exactly once while stamping the flow slots (an
        // unpatched — air-cooled — matrix keeps sharing the skeleton's
        // array outright).
        g.share_values_from(&self.g_base);
        let values = g.values_mut();
        for s in &self.flow_stamps {
            values[s.value_idx as usize] += s.sign * patch.coef(s.cavity as usize, s.kind);
        }
        b0.copy_from_slice(&self.b0_base);
        let inlet = self.config.liquid.inlet.value();
        for &(node, cavity) in &self.inlet_rhs {
            b0[node as usize] += patch.coefs[cavity as usize].adv * inlet;
        }
        links.clear();
        for plan in &self.links_plan {
            links.push(match *plan {
                LinkPlan::Static { node, g, temp } => (node, g, temp),
                LinkPlan::Outlet { node, cavity } => (node, patch.coefs[cavity].adv, inlet),
            });
        }
    }
}

/// Per-cavity flow coefficients at one flow rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CavityCoef {
    /// Fluid ↔ tier-above convective conductance per cell.
    pub above: f64,
    /// Fluid ↔ tier-below convective conductance per cell.
    pub below: f64,
    /// Advection conductance per channel row.
    pub adv: f64,
}

/// The cheap per-flow complement of a [`StackSkeleton`]: three scalars per
/// cavity, computed from the convection model and the coolant's capacity
/// rate at one flow setting.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowPatch {
    flow: VolumetricFlow,
    coefs: Vec<CavityCoef>,
}

impl FlowPatch {
    /// Computes the patch coefficients for `flow` against `skeleton`.
    pub(crate) fn compute(skeleton: &StackSkeleton, flow: VolumetricFlow) -> Self {
        let lc = &skeleton.config.liquid;
        let area = skeleton.cell_area;
        let rows = skeleton.layout.rows() as f64;
        let h_eff = lc.convection.effective_htc(&lc.geometry, flow);
        let g_adv = lc.coolant.capacity_rate(flow).value() / rows;
        let coefs = skeleton
            .cavity_faces
            .iter()
            .map(|faces| CavityCoef {
                above: faces
                    .above_r_area
                    .map(|r| area / (2.0 / h_eff + r))
                    .unwrap_or(0.0),
                below: faces
                    .below_r_area
                    .map(|r| area / (2.0 / h_eff + r))
                    .unwrap_or(0.0),
                adv: g_adv,
            })
            .collect();
        Self { flow, coefs }
    }

    /// Computes the patch coefficients for `flow` with a per-cavity
    /// flow derating — the channel-clogging fault path.
    ///
    /// `derates[c]` scales cavity `c`'s flow before the convection and
    /// capacity-rate correlations are evaluated; entries beyond the
    /// slice (and an empty slice) mean 1.0, i.e. healthy. With every
    /// derate at exactly 1.0 this delegates to [`compute`](Self::compute)
    /// and is bit-identical to it, so one skeleton keeps serving all
    /// pump settings whether or not faults are scheduled.
    pub(crate) fn compute_derated(
        skeleton: &StackSkeleton,
        flow: VolumetricFlow,
        derates: &[f64],
    ) -> Self {
        if derates.iter().all(|&d| d == 1.0) {
            return Self::compute(skeleton, flow);
        }
        let lc = &skeleton.config.liquid;
        let area = skeleton.cell_area;
        let rows = skeleton.layout.rows() as f64;
        let coefs = skeleton
            .cavity_faces
            .iter()
            .enumerate()
            .map(|(c, faces)| {
                let eff = flow * derates.get(c).copied().unwrap_or(1.0);
                let h_eff = lc.convection.effective_htc(&lc.geometry, eff);
                let g_adv = lc.coolant.capacity_rate(eff).value() / rows;
                CavityCoef {
                    above: faces
                        .above_r_area
                        .map(|r| area / (2.0 / h_eff + r))
                        .unwrap_or(0.0),
                    below: faces
                        .below_r_area
                        .map(|r| area / (2.0 / h_eff + r))
                        .unwrap_or(0.0),
                    adv: g_adv,
                }
            })
            .collect();
        Self { flow, coefs }
    }

    #[inline]
    fn coef(&self, cavity: usize, kind: CoefKind) -> f64 {
        let c = &self.coefs[cavity];
        match kind {
            CoefKind::ConvAbove => c.above,
            CoefKind::ConvBelow => c.below,
            CoefKind::Advection => c.adv,
        }
    }
}

/// One skeleton, many pump settings: the per-setting
/// [`ThermalModel`] views of a single grid, sharing CSR structure.
#[derive(Debug)]
pub struct ThermalModelFamily {
    skeleton: Arc<StackSkeleton>,
    models: Vec<ThermalModel>,
}

impl ThermalModelFamily {
    /// Builds the family for an explicit list of flows (`None` members are
    /// only valid for air-cooled stacks, where the family holds one model).
    ///
    /// # Errors
    ///
    /// [`ThermalError::MissingFlowRate`] /
    /// [`ThermalError::UnexpectedFlowRate`] on a flow/stack mismatch.
    pub fn build(
        builder: &StackThermalBuilder<'_>,
        flows: &[Option<VolumetricFlow>],
    ) -> Result<Self, ThermalError> {
        let skeleton = Arc::new(builder.skeleton());
        let models = flows
            .iter()
            .map(|&f| skeleton.model(f))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { skeleton, models })
    }

    /// Builds a liquid-cooled family, one model per flow.
    ///
    /// # Errors
    ///
    /// As [`build`](Self::build).
    pub fn for_flows(
        builder: &StackThermalBuilder<'_>,
        flows: &[VolumetricFlow],
    ) -> Result<Self, ThermalError> {
        let flows: Vec<Option<VolumetricFlow>> = flows.iter().map(|&f| Some(f)).collect();
        Self::build(builder, &flows)
    }

    /// The shared skeleton.
    pub fn skeleton(&self) -> &Arc<StackSkeleton> {
        &self.skeleton
    }

    /// Number of member models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// A member model.
    pub fn model(&self, index: usize) -> &ThermalModel {
        &self.models[index]
    }

    /// Mutable access to a member model (solves cache state per member).
    pub fn model_mut(&mut self, index: usize) -> &mut ThermalModel {
        &mut self.models[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThermalConfig;
    use vfc_floorplan::{ultrasparc, GridSpec};
    use vfc_units::Length;

    fn flows(ml: &[f64]) -> Vec<VolumetricFlow> {
        ml.iter()
            .map(|&m| VolumetricFlow::from_ml_per_minute(m))
            .collect()
    }

    #[test]
    fn family_members_share_one_skeleton_and_structure() {
        let stack = ultrasparc::two_layer_liquid();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(1.0));
        let builder = StackThermalBuilder::new(&stack, grid, ThermalConfig::default());
        let family =
            ThermalModelFamily::for_flows(&builder, &flows(&[208.3, 416.7, 625.0, 833.3, 1041.7]))
                .unwrap();
        assert_eq!(family.len(), 5);

        // Acceptance: one skeleton per grid, shared by all 5 settings —
        // Arc pointer equality, and shared CSR index arrays.
        for m in &family.models {
            assert!(
                Arc::ptr_eq(m.skeleton(), family.skeleton()),
                "member must share the family skeleton"
            );
            assert!(
                m.conductance_matrix()
                    .shares_structure(family.skeleton().base_matrix()),
                "member matrices must share the skeleton's CSR index arrays"
            );
        }
        assert_eq!(
            Arc::strong_count(family.skeleton()),
            6,
            "5 members + family"
        );

        // The kernel schedules (level sets, stencil, hierarchy) live on the
        // skeleton: one computation per grid, shared by every member's
        // preconditioner via the same Arc.
        assert!(family.skeleton().schedules().levels.lower_level_count() > 1);
        for m in &family.models {
            assert!(Arc::ptr_eq(
                m.skeleton().schedules(),
                family.skeleton().schedules()
            ));
        }
    }

    #[test]
    fn patched_models_match_from_scratch_builds() {
        let stack = ultrasparc::two_layer_liquid();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(1.5));
        let builder = StackThermalBuilder::new(&stack, grid, ThermalConfig::default());
        let family = ThermalModelFamily::for_flows(&builder, &flows(&[300.0, 700.0])).unwrap();
        for (i, &ml) in [300.0, 700.0].iter().enumerate() {
            let direct = builder
                .build(Some(VolumetricFlow::from_ml_per_minute(ml)))
                .unwrap();
            let member = family.model(i);
            assert_eq!(
                member.conductance_matrix().values(),
                direct.conductance_matrix().values(),
                "patched values must be entry-identical to a direct build"
            );
            assert_eq!(member.boundary_injection(), direct.boundary_injection());
        }
    }

    #[test]
    fn set_flow_multigrid_solves_match_a_from_scratch_build() {
        // Patch identity must cover the whole coarsening hierarchy: the
        // Galerkin re-fold runs off the patched fine values, so a model
        // re-pointed at a new flow with `set_flow` and a model built
        // from scratch at that flow must produce bit-identical
        // multigrid-preconditioned solves.
        let stack = ultrasparc::two_layer_liquid();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(1.0));
        let mut config = ThermalConfig::default();
        config.solver.preconditioner = Some(vfc_num::PreconditionerKind::Multigrid);
        let builder = StackThermalBuilder::new(&stack, grid, config);
        let f1 = VolumetricFlow::from_ml_per_minute(300.0);
        let f2 = VolumetricFlow::from_ml_per_minute(700.0);

        let mut patched = builder.build(Some(f1)).unwrap();
        assert!(
            patched.skeleton().schedules().multigrid().is_some(),
            "the stacked grid must carry a coarsening hierarchy"
        );
        let mut power = patched.zero_power();
        for (i, p) in power.iter_mut().enumerate() {
            *p = 0.02 + 0.01 * ((i % 7) as f64);
        }
        // Solve at f1 first so the f2 solves below exercise the
        // invalidation path, not a fresh model's first factorization.
        let _ = patched.steady_state(&power, None).unwrap();
        patched.set_flow(f2).unwrap();
        let t_patched = patched.steady_state(&power, None).unwrap();

        let mut fresh = builder.build(Some(f2)).unwrap();
        let t_fresh = fresh.steady_state(&power, None).unwrap();
        assert!(
            t_patched
                .iter()
                .zip(&t_fresh)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "steady multigrid solve after set_flow diverged from a fresh build"
        );

        // Same property through the transient path (backward-Euler
        // operator, its own hierarchy re-fold).
        let mut s_patched = patched.initial_state();
        let mut s_fresh = fresh.initial_state();
        let dt = vfc_units::Seconds::new(0.1);
        for _ in 0..3 {
            patched.step(&mut s_patched, &power, dt, 5).unwrap();
            fresh.step(&mut s_fresh, &power, dt, 5).unwrap();
        }
        assert!(
            s_patched
                .iter()
                .zip(&s_fresh)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "transient multigrid stepping after set_flow diverged from a fresh build"
        );
    }

    #[test]
    fn liquid_skeleton_decomposes_into_a_stencil_and_shares_it() {
        let stack = ultrasparc::two_layer_liquid();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(1.0));
        let builder = StackThermalBuilder::new(&stack, grid, ThermalConfig::default());
        let family = ThermalModelFamily::for_flows(&builder, &flows(&[300.0, 700.0])).unwrap();
        let stencil = family
            .skeleton()
            .stencil()
            .expect("the stacked-grid pattern is regular");
        assert_eq!(stencil.order(), family.skeleton().layout.node_count);
        assert!(stencil.matches_pattern(family.skeleton().base_matrix()));
        // One decomposition per grid, shared via the schedules Arc.
        for m in &family.models {
            assert!(Arc::ptr_eq(
                m.skeleton().stencil().unwrap(),
                family.skeleton().stencil().unwrap()
            ));
        }
    }

    #[test]
    fn unpatched_members_share_the_skeleton_value_array() {
        // The flow-independent values live exactly once: an air-cooled
        // model (never patched) keeps sharing the skeleton's array.
        let stack = ultrasparc::two_layer_air();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(1.5));
        let builder = StackThermalBuilder::new(&stack, grid, ThermalConfig::default());
        let family = ThermalModelFamily::build(&builder, &[None]).unwrap();
        assert!(family
            .model(0)
            .conductance_matrix()
            .shares_values(family.skeleton().base_matrix()));

        // A liquid member is patched, so its values copy-on-write away
        // from the base — but the structure stays shared.
        let stack = ultrasparc::two_layer_liquid();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(1.5));
        let builder = StackThermalBuilder::new(&stack, grid, ThermalConfig::default());
        let family = ThermalModelFamily::for_flows(&builder, &flows(&[400.0])).unwrap();
        assert!(!family
            .model(0)
            .conductance_matrix()
            .shares_values(family.skeleton().base_matrix()));
        assert!(family
            .model(0)
            .conductance_matrix()
            .shares_structure(family.skeleton().base_matrix()));
    }

    #[test]
    fn derated_patches_match_per_cavity_healthy_patches() {
        let stack = ultrasparc::two_layer_liquid();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(1.5));
        let builder = StackThermalBuilder::new(&stack, grid, ThermalConfig::default());
        let skeleton = builder.skeleton();
        assert!(skeleton.cavity_count() >= 1);
        let f = VolumetricFlow::from_ml_per_minute(600.0);

        // All-ones derates delegate to the healthy path bit-for-bit.
        let healthy = FlowPatch::compute(&skeleton, f);
        let ones = vec![1.0; skeleton.cavity_count()];
        assert_eq!(healthy, FlowPatch::compute_derated(&skeleton, f, &ones));
        assert_eq!(healthy, FlowPatch::compute_derated(&skeleton, f, &[]));

        // Derating every cavity by d is the same physics as commanding
        // flow·d outright — only the recorded commanded flow differs.
        let half = vec![0.5; skeleton.cavity_count()];
        let derated = FlowPatch::compute_derated(&skeleton, f, &half);
        let direct = FlowPatch::compute(&skeleton, f * 0.5);
        assert_eq!(derated.coefs, direct.coefs);
        assert_eq!(derated.flow, f, "patch records the commanded flow");
    }

    #[test]
    fn air_family_is_single_member() {
        let stack = ultrasparc::two_layer_air();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(2.0));
        let builder = StackThermalBuilder::new(&stack, grid, ThermalConfig::default());
        let family = ThermalModelFamily::build(&builder, &[None]).unwrap();
        assert_eq!(family.len(), 1);
        assert!(!family.skeleton().is_liquid_cooled());
        assert_eq!(family.skeleton().flow_slot_count(), 0);

        // Flow mismatches are still enforced through the family path.
        assert!(matches!(
            ThermalModelFamily::for_flows(&builder, &flows(&[100.0])),
            Err(ThermalError::UnexpectedFlowRate)
        ));
    }
}
