//! Assembles [`StackSkeleton`]s and [`ThermalModel`]s from a [`Stack3d`]
//! description.

use std::sync::Arc;

use vfc_floorplan::{BlockKind, GridSpec, Interface, Stack3d};
use vfc_num::CsrBuilder;
use vfc_units::VolumetricFlow;

#[cfg(test)]
use crate::family::LinkPlan;
use crate::family::{CavityFaces, CoefKind, FlowStamp};
use crate::material::{BEOL, BOND, COPPER, SILICON};
use crate::{NodeLayout, StackSkeleton, ThermalConfig, ThermalError, ThermalModel};

/// Builds thermal RC networks for one stack on one grid.
///
/// Assembly is split in two: [`skeleton`](Self::skeleton) produces the
/// immutable, flow-independent [`StackSkeleton`] (sparsity pattern,
/// conduction entries, layout, patch recipes) once per grid, and each
/// flow rate is then a cheap value patch on shared structure. Callers that
/// need several pump settings should assemble the skeleton once and
/// re-patch one model with [`ThermalModel::set_flow`] (or instantiate
/// models with [`StackSkeleton::model`]) instead of repeated
/// [`build`](Self::build) calls, which re-assemble the skeleton each time.
#[derive(Debug, Clone)]
pub struct StackThermalBuilder<'a> {
    stack: &'a Stack3d,
    grid: GridSpec,
    config: ThermalConfig,
}

/// Accumulates matrix stamps and patch recipes during skeleton assembly.
struct Assembly {
    triplets: CsrBuilder,
    cap: Vec<f64>,
    /// Flow-independent boundary injection.
    b0: Vec<f64>,
    /// Boundary-link reconstruction plan, in assembly order.
    #[cfg(test)]
    links_plan: Vec<LinkPlan>,
    /// Flow-dependent contributions as `(row, col, cavity, kind, sign)`;
    /// resolved to CSR value indices after the pattern is built.
    flow_entries: Vec<(usize, usize, u16, CoefKind, f64)>,
    /// `(node, cavity)` pairs whose rhs carries `g_adv·T_inlet`.
    inlet_rhs: Vec<(u32, u16)>,
    /// Per-cavity convective face geometry.
    cavity_faces: Vec<CavityFaces>,
}

impl Assembly {
    fn new(n: usize) -> Self {
        Self {
            triplets: CsrBuilder::new(n),
            cap: vec![0.0; n],
            b0: vec![0.0; n],
            #[cfg(test)]
            links_plan: Vec::new(),
            flow_entries: Vec::new(),
            inlet_rhs: Vec::new(),
            cavity_faces: Vec::new(),
        }
    }

    /// Symmetric conductance between two interior nodes.
    fn stamp(&mut self, i: usize, j: usize, g: f64) {
        debug_assert!(g >= 0.0, "negative conductance");
        if g == 0.0 {
            return;
        }
        self.triplets.add(i, i, g);
        self.triplets.add(j, j, g);
        self.triplets.add(i, j, -g);
        self.triplets.add(j, i, -g);
    }

    /// Conductance from node `i` to a fixed boundary temperature.
    fn stamp_boundary(&mut self, i: usize, g: f64, t_boundary: f64) {
        if g == 0.0 {
            return;
        }
        self.triplets.add(i, i, g);
        self.b0[i] += g * t_boundary;
        #[cfg(test)]
        self.links_plan.push(LinkPlan::Static {
            node: i,
            g,
            temp: t_boundary,
        });
    }

    /// Flow-dependent symmetric coupling between a fluid node and a tier
    /// node: reserves the pattern slots and records the patch recipe.
    fn stamp_flow_pair(&mut self, f: usize, t: usize, cavity: u16, kind: CoefKind) {
        for &(row, col, sign) in &[(f, f, 1.0), (t, t, 1.0), (f, t, -1.0), (t, f, -1.0)] {
            self.triplets.reserve_entry(row, col);
            self.flow_entries.push((row, col, cavity, kind, sign));
        }
    }

    /// Flow-dependent upwind advection into fluid node `i`. With an
    /// `upstream` neighbour the heat arrives from it; the first column
    /// instead drinks from the inlet plenum (rhs injection).
    fn stamp_flow_advection(&mut self, i: usize, upstream: Option<usize>, cavity: u16) {
        self.triplets.reserve_entry(i, i);
        self.flow_entries
            .push((i, i, cavity, CoefKind::Advection, 1.0));
        match upstream {
            Some(up) => {
                self.triplets.reserve_entry(i, up);
                self.flow_entries
                    .push((i, up, cavity, CoefKind::Advection, -1.0));
            }
            None => self.inlet_rhs.push((i as u32, cavity)),
        }
    }
}

impl<'a> StackThermalBuilder<'a> {
    /// Creates a builder for the given stack, grid and configuration.
    pub fn new(stack: &'a Stack3d, grid: GridSpec, config: ThermalConfig) -> Self {
        Self {
            stack,
            grid,
            config,
        }
    }

    /// Assembles a model at one flow rate.
    ///
    /// `flow` is the **per-cavity** coolant flow rate; it is required for
    /// liquid-cooled stacks and must be `None` for air-cooled ones.
    ///
    /// Each call assembles a fresh skeleton; to amortize assembly over
    /// several flow settings use [`skeleton`](Self::skeleton) with
    /// [`StackSkeleton::model`], or [`ThermalModel::set_flow`].
    ///
    /// # Errors
    ///
    /// [`ThermalError::MissingFlowRate`] / [`ThermalError::UnexpectedFlowRate`]
    /// on a flow/stack mismatch.
    pub fn build(&self, flow: Option<VolumetricFlow>) -> Result<ThermalModel, ThermalError> {
        Arc::new(self.skeleton()).model(flow)
    }

    /// Assembles the immutable per-grid skeleton: the CSR sparsity pattern
    /// (including reserved slots for every flow-dependent entry), the
    /// conduction values, capacitances, static boundary couplings and the
    /// patch recipes.
    pub fn skeleton(&self) -> StackSkeleton {
        let _span = vfc_obs::span("thermal.skeleton");
        let liquid = self.stack.is_liquid_cooled();
        let layout = self.layout();
        let n = layout.node_count;
        let mut asm = Assembly::new(n);

        // The diagonal is always structural: backward-Euler adds `C/h`
        // everywhere and ILU(0) needs a pivot in every row.
        for i in 0..n {
            asm.triplets.reserve_entry(i, i);
        }

        self.stamp_tiers(&layout, &mut asm);
        self.stamp_interfaces(&layout, &mut asm);

        let reference = if liquid {
            self.config.liquid.inlet.value()
        } else {
            self.config.air.ambient.value()
        };

        let g_base = asm.triplets.build();
        let diag_idx = (0..n)
            .map(|i| {
                g_base
                    .pattern_index(i, i)
                    .expect("diagonal reserved for every node") as u32
            })
            .collect();
        let flow_stamps = asm
            .flow_entries
            .iter()
            .map(|&(row, col, cavity, kind, sign)| FlowStamp {
                value_idx: g_base
                    .pattern_index(row, col)
                    .expect("flow slots are reserved during assembly")
                    as u32,
                cavity,
                kind,
                sign,
            })
            .collect();

        // Pattern-derived schedules (level sets for the level-major ILU(0)
        // sweeps, the stencil decomposition, the semi-coarsened multigrid
        // hierarchy): one computation per grid, shared by every pump
        // setting and backward-Euler operator.
        let schedules = Arc::new(vfc_num::KernelSchedules::for_grid_matrix(
            &g_base,
            &layout.grid_coords(),
        ));

        StackSkeleton {
            g_base,
            diag_idx,
            schedules,
            cap: asm.cap,
            b0_base: asm.b0,
            #[cfg(test)]
            links_plan: asm.links_plan,
            flow_stamps,
            inlet_rhs: asm.inlet_rhs,
            cavity_faces: asm.cavity_faces,
            layout,
            config: self.config,
            reference,
            liquid,
            cell_area: self.grid.cell_area().value(),
        }
    }

    /// Computes node offsets and the cell→block maps.
    fn layout(&self) -> NodeLayout {
        let cells = self.grid.cell_count();
        let tiers = self.stack.tiers().len();
        let tier_offsets: Vec<usize> = (0..tiers).map(|t| t * cells).collect();
        let mut next = tiers * cells;

        let mut cavities = Vec::new();
        for (k, itf) in self.stack.interfaces().iter().enumerate() {
            if itf.is_cavity() {
                cavities.push((k, next));
                next += cells;
            }
        }
        let has_sink = self
            .stack
            .interfaces()
            .iter()
            .any(|i| matches!(i, Interface::HeatSink));
        let spreader_offset = has_sink.then_some(next);
        if has_sink {
            next += cells;
        }
        let sink_node = has_sink.then_some(next);
        if has_sink {
            next += 1;
        }

        let mut tier_cell_block = Vec::with_capacity(tiers);
        let mut tier_block_cell_counts = Vec::with_capacity(tiers);
        for tier in self.stack.tiers() {
            let fp = tier.floorplan();
            let map: Vec<usize> = self
                .grid
                .cell_block_map(fp)
                .into_iter()
                .map(|m| m.expect("floorplan coverage is validated"))
                .collect();
            let mut counts = vec![0usize; fp.blocks().len()];
            for &b in &map {
                counts[b] += 1;
            }
            tier_cell_block.push(map);
            tier_block_cell_counts.push(counts);
        }

        NodeLayout {
            rows: self.grid.rows(),
            cols: self.grid.cols(),
            tier_offsets,
            cavities,
            spreader_offset,
            sink_node,
            node_count: next,
            tier_cell_block,
            tier_block_cell_counts,
        }
    }

    /// In-plane conduction and heat capacity of every tier.
    fn stamp_tiers(&self, layout: &NodeLayout, asm: &mut Assembly) {
        let (rows, cols) = (layout.rows, layout.cols);
        let dx = self.grid.cell_width().value();
        let dy = self.grid.cell_height().value();
        let area = dx * dy;

        for (t, tier) in self.stack.tiers().iter().enumerate() {
            let t_si = tier.si_thickness().value();
            let t_beol = tier.beol_thickness().value();
            let sheet = SILICON.conductivity * t_si + BEOL.conductivity * t_beol;
            let cap_cell = (SILICON.volumetric_heat * t_si + BEOL.volumetric_heat * t_beol) * area;
            let gx = sheet * dy / dx;
            let gy = sheet * dx / dy;
            for r in 0..rows {
                for c in 0..cols {
                    let i = layout.tier_node(t, r, c);
                    asm.cap[i] += cap_cell;
                    if c + 1 < cols {
                        asm.stamp(i, layout.tier_node(t, r, c + 1), gx);
                    }
                    if r + 1 < rows {
                        asm.stamp(i, layout.tier_node(t, r + 1, c), gy);
                    }
                }
            }
        }
    }

    /// Vertical structure: bonds, cavities and the air package.
    fn stamp_interfaces(&self, layout: &NodeLayout, asm: &mut Assembly) {
        let mut cavity_counter = 0usize;
        for (k, itf) in self.stack.interfaces().iter().enumerate() {
            match *itf {
                Interface::Adiabatic => {}
                Interface::Bond { thickness } => {
                    self.stamp_bond(layout, asm, k, thickness.value());
                }
                Interface::MicrochannelCavity { height } => {
                    self.plan_cavity(layout, asm, k, cavity_counter, height.value());
                    cavity_counter += 1;
                }
                Interface::HeatSink => {
                    self.stamp_air_package(layout, asm, k);
                }
            }
        }
    }

    /// TSV copper area fraction for a cell, if both adjacent tiers place
    /// their TSV block (the crossbar) there.
    fn tsv_fraction(&self, layout: &NodeLayout, below: usize, above: usize, flat: usize) -> f64 {
        let Some(tsv) = self.stack.tsv() else {
            return 0.0;
        };
        let is_tsv = |tier: usize| {
            let b = layout.tier_cell_block[tier][flat];
            let block = &self.stack.tiers()[tier].floorplan().blocks()[b];
            block.kind() == BlockKind::Crossbar && block.name() == tsv.block_name
        };
        if !is_tsv(below) || !is_tsv(above) {
            return 0.0;
        }
        let block = self.stack.tiers()[below]
            .floorplan()
            .block_named(&tsv.block_name)
            .expect("tsv block exists");
        (tsv.total_area().value() / block.rect().area().value()).min(1.0)
    }

    fn stamp_bond(&self, layout: &NodeLayout, asm: &mut Assembly, k: usize, thickness: f64) {
        // A bond couples the tier below (index k-1) to the tier above (k);
        // skip degenerate bonds on the outside of the stack.
        if k == 0 || k >= self.stack.tiers().len() {
            return;
        }
        let (below, above) = (k - 1, k);
        let area = self.grid.cell_area().value();
        let t_si = self.stack.tiers()[below].si_thickness().value();
        let t_beol = self.stack.tiers()[above].beol_thickness().value();
        let cells = layout.cells_per_layer();
        for flat in 0..cells {
            let phi_cu = self.tsv_fraction(layout, below, above, flat);
            let k_bond_eff = phi_cu * COPPER.conductivity + (1.0 - phi_cu) * BOND.conductivity;
            let r_area = SILICON.slab_area_resistance(t_si)
                + thickness / k_bond_eff
                + BEOL.slab_area_resistance(t_beol);
            let g = area / r_area;
            asm.stamp(
                layout.tier_offsets[below] + flat,
                layout.tier_offsets[above] + flat,
                g,
            );
        }
    }

    /// One microchannel cavity: static fluid capacitance and channel-wall
    /// conduction, plus the patch recipes for every flow-dependent entry
    /// (convective faces — Eq. 2-3 / Fig. 2 — and upwind advection,
    /// Eq. 4-5).
    fn plan_cavity(
        &self,
        layout: &NodeLayout,
        asm: &mut Assembly,
        k: usize,
        cavity: usize,
        height: f64,
    ) {
        let lc = &self.config.liquid;
        let (rows, cols) = (layout.rows, layout.cols);
        let area = self.grid.cell_area().value();
        let below = k.checked_sub(1);
        let above = (k < self.stack.tiers().len()).then_some(k);
        let cavity_u16 = u16::try_from(cavity).expect("cavity count fits u16");

        // The face geometry fixes everything but `h_eff(flow)`: the tier
        // above presents its BEOL, the tier below its silicon bulk
        // (isothermal-wall idiom of Fig. 2; the perimeter/fin factor is
        // folded into h_eff at patch time).
        asm.cavity_faces.push(CavityFaces {
            above_r_area: above
                .map(|t| BEOL.slab_area_resistance(self.stack.tiers()[t].beol_thickness().value())),
            below_r_area: below.map(|t| {
                SILICON.slab_area_resistance(self.stack.tiers()[t].si_thickness().value())
            }),
        });

        let fluid_cap = lc.coolant.volumetric_heat_capacity()
            * area
            * height
            * lc.geometry
                .fluid_volume_fraction(vfc_units::Length::new(height));

        for r in 0..rows {
            for c in 0..cols {
                let f = layout.fluid_node(cavity, r, c);
                asm.cap[f] += fluid_cap;

                // Convective coupling to the adjacent tiers, in series
                // with each tier's face conduction — flow-dependent,
                // patched per setting.
                if let Some(t) = above {
                    asm.stamp_flow_pair(
                        f,
                        layout.tier_node(t, r, c),
                        cavity_u16,
                        CoefKind::ConvAbove,
                    );
                }
                if let Some(t) = below {
                    asm.stamp_flow_pair(
                        f,
                        layout.tier_node(t, r, c),
                        cavity_u16,
                        CoefKind::ConvBelow,
                    );
                }

                // Upwind advection along +x; the first column drinks from
                // the inlet plenum, the last column records the enthalpy
                // carried out (for energy-balance validation).
                let upstream = (c > 0).then(|| layout.fluid_node(cavity, r, c - 1));
                asm.stamp_flow_advection(f, upstream, cavity_u16);
                #[cfg(test)]
                if c == cols - 1 {
                    asm.links_plan.push(LinkPlan::Outlet { node: f, cavity });
                }

                // Channel walls (silicon fins) conduct tier-to-tier —
                // static, independent of the flow.
                if let (Some(b), Some(a)) = (below, above) {
                    let flat = r * cols + c;
                    let t_si = self.stack.tiers()[b].si_thickness().value();
                    let t_beol = self.stack.tiers()[a].beol_thickness().value();
                    let phi_wall = (lc.geometry.wall().value() / lc.geometry.pitch().value())
                        * lc.wall_fill_factor;
                    let r_wall = SILICON.slab_area_resistance(t_si)
                        + SILICON.slab_area_resistance(height)
                        + BEOL.slab_area_resistance(t_beol);
                    let mut g = phi_wall * area / r_wall;
                    // TSVs cross the cavity in the crossbar region and add
                    // a copper path.
                    let phi_cu = self.tsv_fraction(layout, b, a, flat);
                    if phi_cu > 0.0 {
                        let r_tsv = SILICON.slab_area_resistance(t_si)
                            + COPPER.slab_area_resistance(height)
                            + BEOL.slab_area_resistance(t_beol);
                        g += phi_cu * area / r_tsv;
                    }
                    asm.stamp(
                        layout.tier_offsets[b] + flat,
                        layout.tier_offsets[a] + flat,
                        g,
                    );
                }
            }
        }
    }

    fn stamp_air_package(&self, layout: &NodeLayout, asm: &mut Assembly, k: usize) {
        let pkg = &self.config.air;
        let (rows, cols) = (layout.rows, layout.cols);
        let dx = self.grid.cell_width().value();
        let dy = self.grid.cell_height().value();
        let area = dx * dy;
        let tiers = self.stack.tiers().len();

        // The package attaches to the adjacent tier: through its silicon
        // bulk if the sink is on top, through its BEOL if below.
        let (tier, r_die_area) = if k >= tiers {
            let t = tiers - 1;
            (
                t,
                SILICON.slab_area_resistance(self.stack.tiers()[t].si_thickness().value()),
            )
        } else {
            (
                k,
                BEOL.slab_area_resistance(self.stack.tiers()[k].beol_thickness().value()),
            )
        };

        let spreader = layout
            .spreader_offset
            .expect("layout allocates spreader for HeatSink interfaces");
        let sink = layout
            .sink_node
            .expect("layout allocates sink for HeatSink interfaces");
        let t_sp = pkg.spreader_thickness.value();
        let g_die_sp = area / (r_die_area + pkg.tim_area_resistance);
        let g_sp_sink = area / pkg.spreader_to_sink_area_resistance;
        let cap_sp = COPPER.volumetric_heat * t_sp * area;
        let gx = COPPER.conductivity * t_sp * dy / dx;
        let gy = COPPER.conductivity * t_sp * dx / dy;

        for r in 0..rows {
            for c in 0..cols {
                let s = spreader + r * cols + c;
                asm.cap[s] += cap_sp;
                asm.stamp(layout.tier_node(tier, r, c), s, g_die_sp);
                asm.stamp(s, sink, g_sp_sink);
                if c + 1 < cols {
                    asm.stamp(s, spreader + r * cols + c + 1, gx);
                }
                if r + 1 < rows {
                    asm.stamp(s, spreader + (r + 1) * cols + c, gy);
                }
            }
        }
        asm.cap[sink] += pkg.sink_capacitance.value();
        asm.stamp_boundary(
            sink,
            pkg.sink_resistance.to_conductance().value(),
            pkg.ambient.value(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vfc_floorplan::ultrasparc;
    use vfc_units::{Length, Watts};

    fn grid_for(stack: &Stack3d, mm: f64) -> GridSpec {
        GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(mm))
    }

    fn flow(ml_min: f64) -> VolumetricFlow {
        VolumetricFlow::from_ml_per_minute(ml_min)
    }

    #[test]
    fn node_counts_are_consistent() {
        let stack = ultrasparc::two_layer_liquid();
        let grid = grid_for(&stack, 1.0);
        let cells = grid.cell_count();
        let model = StackThermalBuilder::new(&stack, grid, ThermalConfig::default())
            .build(Some(flow(500.0)))
            .unwrap();
        // 2 tiers + 3 cavities, no package.
        assert_eq!(model.node_count(), 5 * cells);
        assert_eq!(model.layout().cavity_count(), 3);
        assert_eq!(model.layout().sink_node, None);

        let air = ultrasparc::two_layer_air();
        let model = StackThermalBuilder::new(&air, grid_for(&air, 1.0), ThermalConfig::default())
            .build(None)
            .unwrap();
        // 2 tiers + spreader + sink.
        assert_eq!(model.node_count(), 3 * cells + 1);
        assert!(model.layout().sink_node.is_some());
    }

    #[test]
    fn flow_requirements_are_enforced() {
        let stack = ultrasparc::two_layer_liquid();
        let b = StackThermalBuilder::new(&stack, grid_for(&stack, 1.0), ThermalConfig::default());
        assert!(matches!(b.build(None), Err(ThermalError::MissingFlowRate)));

        let air = ultrasparc::two_layer_air();
        let b = StackThermalBuilder::new(&air, grid_for(&air, 1.0), ThermalConfig::default());
        assert!(matches!(
            b.build(Some(flow(100.0))),
            Err(ThermalError::UnexpectedFlowRate)
        ));
    }

    #[test]
    fn zero_power_settles_at_reference() {
        let stack = ultrasparc::two_layer_liquid();
        let b = StackThermalBuilder::new(&stack, grid_for(&stack, 1.0), ThermalConfig::default());
        let mut model = b.build(Some(flow(500.0))).unwrap();
        let t = model.steady_state(&model.zero_power(), None).unwrap();
        for &ti in &t {
            assert!(
                (ti - 60.0).abs() < 1e-6,
                "expected inlet temperature, got {ti}"
            );
        }
    }

    #[test]
    fn steady_state_heats_with_power_and_cools_with_flow() {
        let stack = ultrasparc::two_layer_liquid();
        let b = StackThermalBuilder::new(&stack, grid_for(&stack, 1.0), ThermalConfig::default());
        let core_power = |w: f64| {
            move |blk: &vfc_floorplan::Block| {
                if blk.is_core() {
                    Watts::new(w)
                } else {
                    Watts::ZERO
                }
            }
        };

        let mut low_flow = b.build(Some(flow(208.3))).unwrap();
        let mut high_flow = b.build(Some(flow(1041.7))).unwrap();
        let p3 = low_flow.uniform_block_power(&stack, core_power(3.0));
        let p1 = low_flow.uniform_block_power(&stack, core_power(1.0));

        let t_low_p3 = low_flow.steady_state(&p3, None).unwrap();
        let t_low_p1 = low_flow.steady_state(&p1, None).unwrap();
        let t_high_p3 = high_flow.steady_state(&p3, None).unwrap();

        let m_low_p3 = low_flow.max_junction_temperature(&t_low_p3).value();
        let m_low_p1 = low_flow.max_junction_temperature(&t_low_p1).value();
        let m_high_p3 = high_flow.max_junction_temperature(&t_high_p3).value();

        assert!(m_low_p3 > m_low_p1, "more power is hotter");
        assert!(m_low_p3 > m_high_p3, "more flow is cooler");
        assert!(m_low_p1 > 60.0, "always above inlet");
    }

    #[test]
    fn fluid_heats_downstream() {
        let stack = ultrasparc::two_layer_liquid();
        let b = StackThermalBuilder::new(&stack, grid_for(&stack, 1.0), ThermalConfig::default());
        let mut model = b.build(Some(flow(300.0))).unwrap();
        let p = model.uniform_block_power(&stack, |blk| {
            if blk.is_core() {
                Watts::new(3.0)
            } else {
                Watts::ZERO
            }
        });
        let t = model.steady_state(&p, None).unwrap();
        let l = model.layout();
        let mid_row = l.rows() / 2;
        let first = t[l.fluid_node(1, mid_row, 0)];
        let last = t[l.fluid_node(1, mid_row, l.cols() - 1)];
        assert!(
            last > first + 0.05,
            "coolant must heat along the channel: {first} -> {last}"
        );
    }

    #[test]
    fn energy_balance_at_steady_state() {
        for (stack, fl) in [
            (ultrasparc::two_layer_liquid(), Some(flow(400.0))),
            (ultrasparc::two_layer_air(), None),
        ] {
            let b =
                StackThermalBuilder::new(&stack, grid_for(&stack, 1.0), ThermalConfig::default());
            let mut model = b.build(fl).unwrap();
            let p = model.uniform_block_power(&stack, |blk| match blk.kind() {
                BlockKind::Core => Watts::new(3.0),
                BlockKind::L2Cache => Watts::new(1.28),
                _ => Watts::ZERO,
            });
            let injected: f64 = p.iter().sum();
            let t = model.steady_state(&p, None).unwrap();
            let out = model.boundary_outflow(&t).value();
            assert!(
                (out - injected).abs() < 1e-3 * injected,
                "balance: in={injected} out={out}"
            );
        }
    }

    #[test]
    fn energy_balance_survives_repatching() {
        // The boundary links (outlet enthalpy) must follow a set_flow, or
        // the energy-balance validation would silently use stale
        // conductances.
        let stack = ultrasparc::two_layer_liquid();
        let b = StackThermalBuilder::new(&stack, grid_for(&stack, 1.0), ThermalConfig::default());
        let mut model = b.build(Some(flow(208.3))).unwrap();
        let p = model.uniform_block_power(&stack, |blk| {
            if blk.is_core() {
                Watts::new(3.0)
            } else {
                Watts::ZERO
            }
        });
        let injected: f64 = p.iter().sum();
        model.set_flow(flow(833.3)).unwrap();
        let t = model.steady_state(&p, None).unwrap();
        let out = model.boundary_outflow(&t).value();
        assert!(
            (out - injected).abs() < 1e-3 * injected,
            "balance after repatch: in={injected} out={out}"
        );
    }

    #[test]
    fn transient_approaches_steady_state() {
        let stack = ultrasparc::two_layer_liquid();
        let b = StackThermalBuilder::new(&stack, grid_for(&stack, 1.0), ThermalConfig::default());
        let mut model = b.build(Some(flow(500.0))).unwrap();
        let p = model.uniform_block_power(&stack, |blk| {
            if blk.is_core() {
                Watts::new(3.0)
            } else {
                Watts::ZERO
            }
        });
        let steady = model.steady_state(&p, None).unwrap();
        let mut t = model.initial_state();
        // 2 s of transient in 10 ms sub-steps is far beyond the liquid
        // stack's time constant.
        for _ in 0..20 {
            model
                .step(&mut t, &p, vfc_units::Seconds::from_millis(100.0), 10)
                .unwrap();
        }
        let m_t = model.max_junction_temperature(&t).value();
        let m_s = model.max_junction_temperature(&steady).value();
        assert!((m_t - m_s).abs() < 0.05, "transient {m_t} vs steady {m_s}");
    }

    #[test]
    fn air_cooled_is_hotter_far_from_sink() {
        let stack = ultrasparc::two_layer_air();
        let b = StackThermalBuilder::new(&stack, grid_for(&stack, 1.0), ThermalConfig::default());
        let mut model = b.build(None).unwrap();
        let p = model.uniform_block_power(&stack, |blk| {
            if blk.is_core() {
                Watts::new(3.0)
            } else {
                Watts::ZERO
            }
        });
        let t = model.steady_state(&p, None).unwrap();
        let l = model.layout();
        // Tier 0 (cores, far from sink) should be hotter than tier 1 at
        // the same cell.
        let (r, c) = (l.rows() / 2, 1);
        assert!(t[l.tier_node(0, r, c)] > t[l.tier_node(1, r, c)]);
        assert!(model.max_junction_temperature(&t).value() > 45.0);
    }

    #[test]
    fn uniform_air_stack_matches_analytic_series_resistance() {
        // A single-tier stack under uniform power has no lateral gradients,
        // so the junction temperature follows the 1-D series path exactly:
        // T_j = T_amb + P·(R_die+TIM per area / A + R_sp2sink per area / A
        //       + R_sink).
        use vfc_floorplan::{Block, Floorplan, Interface, StackBuilder, TierSpec};
        let die = Floorplan::new(
            Length::from_millimeters(10.0),
            Length::from_millimeters(10.0),
            vec![Block::new(
                "core0",
                BlockKind::Core,
                vfc_floorplan::Rect::from_mm(0.0, 0.0, 10.0, 10.0),
            )],
        )
        .unwrap();
        let stack = StackBuilder::new()
            .interface(Interface::Adiabatic)
            .tier(TierSpec::new(
                die,
                Length::from_millimeters(0.15),
                Length::from_micrometers(12.0),
            ))
            .interface(Interface::HeatSink)
            .build()
            .unwrap();
        let cfg = ThermalConfig::default();
        let grid =
            GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(1.0));
        let mut model = StackThermalBuilder::new(&stack, grid, cfg)
            .build(None)
            .unwrap();
        let p_total = 20.0;
        let p = model.uniform_block_power(&stack, |_| Watts::new(p_total));
        let t = model.steady_state(&p, None).unwrap();

        let area = 1e-4; // 10 mm x 10 mm in m²
        let r_analytic = (crate::material::SILICON.slab_area_resistance(1.5e-4)
            + cfg.air.tim_area_resistance
            + cfg.air.spreader_to_sink_area_resistance)
            / area
            + cfg.air.sink_resistance.value();
        let expected = cfg.air.ambient.value() + p_total * r_analytic;
        let got = model.max_junction_temperature(&t).value();
        assert!(
            (got - expected).abs() < 0.05,
            "analytic {expected:.3} vs model {got:.3}"
        );
    }

    #[test]
    fn paper_constant_h_mode_builds_and_is_flow_insensitive() {
        let stack = ultrasparc::two_layer_liquid();
        let mut cfg = ThermalConfig::default();
        cfg.liquid.convection = vfc_liquid::ConvectionModel::paper_constant();
        let b = StackThermalBuilder::new(&stack, grid_for(&stack, 1.0), cfg);
        let p_of = |m: &crate::ThermalModel| {
            m.uniform_block_power(&stack, |blk| {
                if blk.is_core() {
                    Watts::new(3.0)
                } else {
                    Watts::ZERO
                }
            })
        };
        let mut lo = b.build(Some(flow(208.3))).unwrap();
        let mut hi = b.build(Some(flow(1041.7))).unwrap();
        let t_lo = lo.steady_state(&p_of(&lo), None).unwrap();
        let t_hi = hi.steady_state(&p_of(&hi), None).unwrap();
        let d =
            lo.max_junction_temperature(&t_lo).value() - hi.max_junction_temperature(&t_hi).value();
        // Only the small sensible-heat (advection) term responds to flow:
        // Eq. 6-7's constant h leaves ~no decision range (DESIGN.md §4.3).
        assert!(d > 0.0, "more flow can never be hotter");
        assert!(
            d < 1.5,
            "constant-h flow leverage should be ~1 K, got {d:.2}"
        );
    }

    #[test]
    fn tsv_improves_vertical_conduction_in_crossbar() {
        // Compare the bond conductance at a crossbar cell vs a core cell in
        // the air-cooled stack's matrix.
        let stack = ultrasparc::two_layer_air();
        let grid = grid_for(&stack, 0.5);
        let model = StackThermalBuilder::new(&stack, grid, ThermalConfig::default())
            .build(None)
            .unwrap();
        let l = model.layout();
        let g = model.conductance_matrix();
        // Crossbar column spans x in [5.0, 6.5] mm: col 11 at 0.5 mm cells.
        let xbar = (l.tier_node(0, 10, 11), l.tier_node(1, 10, 11));
        let core = (l.tier_node(0, 10, 2), l.tier_node(1, 10, 2));
        let g_xbar = -g.get(xbar.0, xbar.1);
        let g_core = -g.get(core.0, core.1);
        assert!(
            g_xbar > g_core * 1.2,
            "TSV field should strengthen the crossbar path: {g_xbar} vs {g_core}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn patched_matrix_is_entry_identical_to_from_scratch_build(
            start_ml in 100.0f64..1100.0,
            target_ml in 100.0f64..1100.0,
            cell_mm in 1.0f64..2.5,
        ) {
            // Satellite property: a model patched from an arbitrary
            // starting flow to a target flow is entry-identical (values,
            // rhs and boundary links) to a from-scratch build at that
            // target flow.
            let stack = ultrasparc::two_layer_liquid();
            let b = StackThermalBuilder::new(
                &stack,
                grid_for(&stack, cell_mm),
                ThermalConfig::default(),
            );
            let mut patched = b.build(Some(flow(start_ml))).unwrap();
            patched.set_flow(flow(target_ml)).unwrap();
            let direct = b.build(Some(flow(target_ml))).unwrap();

            prop_assert_eq!(
                patched.conductance_matrix(),
                direct.conductance_matrix(),
                "matrix entries must match exactly"
            );
            prop_assert_eq!(patched.boundary_injection(), direct.boundary_injection());
            prop_assert_eq!(patched.boundary_links(), direct.boundary_links());
        }
    }
}
