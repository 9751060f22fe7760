//! Reusable scratch space for the iterative solvers.

use std::sync::Arc;

use crate::KernelPool;

/// Krylov scratch vectors reused across repeated solves.
///
/// [`BiCgStab::solve_with`](crate::BiCgStab::solve_with) draws every
/// intermediate vector from here, so a caller that keeps one
/// workspace per model allocates nothing on the solve hot path (the
/// engine re-solves the same matrices every 100 ms sample). The buffers
/// grow to the largest order seen and are retained.
///
/// The workspace also carries the [`KernelPool`] the solvers run their
/// matvecs, reductions and vector updates on — the global pool by
/// default, or an explicit one via [`with_pool`](Self::with_pool). Pool
/// choice never changes results (determinism by partitioning, see
/// [`KernelPool`]), only wall-clock.
#[derive(Debug, Clone)]
pub struct SolverWorkspace {
    pub(crate) r: Vec<f64>,
    pub(crate) r0: Vec<f64>,
    pub(crate) v: Vec<f64>,
    pub(crate) p: Vec<f64>,
    pub(crate) phat: Vec<f64>,
    pub(crate) shat: Vec<f64>,
    pub(crate) t: Vec<f64>,
    /// Lowest-residual iterate seen so far, returned to the caller when
    /// a solve fails (see `NumError::Breakdown`'s contract).
    pub(crate) best: Vec<f64>,
    /// Per-block partial sums for the pooled reductions.
    pub(crate) partials: Vec<f64>,
    pub(crate) pool: Arc<KernelPool>,
}

impl Default for SolverWorkspace {
    fn default() -> Self {
        Self::with_pool(Arc::clone(KernelPool::global()))
    }
}

impl SolverWorkspace {
    /// Creates an empty workspace on the global kernel pool; buffers are
    /// sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty workspace whose solves run on `pool`.
    pub fn with_pool(pool: Arc<KernelPool>) -> Self {
        Self {
            r: Vec::new(),
            r0: Vec::new(),
            v: Vec::new(),
            p: Vec::new(),
            phat: Vec::new(),
            shat: Vec::new(),
            t: Vec::new(),
            best: Vec::new(),
            partials: Vec::new(),
            pool,
        }
    }

    /// Creates a workspace pre-sized for order-`n` systems (global pool).
    pub fn with_order(n: usize) -> Self {
        let mut ws = Self::default();
        ws.ensure(n);
        ws
    }

    /// The kernel pool solves through this workspace run on.
    pub fn pool(&self) -> &Arc<KernelPool> {
        &self.pool
    }

    /// Re-homes the workspace onto another pool (results are unaffected —
    /// see [`KernelPool`]'s determinism contract).
    pub fn set_pool(&mut self, pool: Arc<KernelPool>) {
        self.pool = pool;
    }

    /// Grows every buffer to at least `n` entries (contents unspecified).
    pub(crate) fn ensure(&mut self, n: usize) {
        for buf in [
            &mut self.r,
            &mut self.r0,
            &mut self.v,
            &mut self.p,
            &mut self.phat,
            &mut self.shat,
            &mut self.t,
            &mut self.best,
        ] {
            if buf.len() < n {
                buf.resize(n, 0.0);
            }
        }
        // Two slots per block: the fused reductions (`dot2_on`) write
        // both products' partials into one buffer.
        let blocks = n.div_ceil(crate::REDUCE_BLOCK);
        if self.partials.len() < 2 * blocks {
            self.partials.resize(2 * blocks, 0.0);
        }
    }

    /// Current buffer capacity (order of the largest system solved).
    pub fn order(&self) -> usize {
        self.r.len()
    }
}

/// Per-level scratch for the multigrid V-cycle, preallocated at
/// preconditioner build time so `apply` stays allocation-free (the same
/// contract the Krylov workspace gives the solvers).
///
/// Indexing follows the hierarchy: `r`/`z` hold the restricted residual
/// and the correction of each **coarse** level (`r[l]` belongs to level
/// `l + 1` of the hierarchy, the fine level's residual and correction
/// being the caller's `r`/`z` slices); `t`/`s` hold the residual and
/// smoother output of every level that smooths (all but the coarsest).
#[derive(Debug, Default)]
pub(crate) struct MgScratch {
    pub r: Vec<Vec<f64>>,
    pub z: Vec<Vec<f64>>,
    pub t: Vec<Vec<f64>>,
    pub s: Vec<Vec<f64>>,
}

impl MgScratch {
    /// Builds scratch for a hierarchy whose level orders (fine first,
    /// coarsest last) are `orders`.
    pub fn for_orders(orders: &[usize]) -> Self {
        let coarse = &orders[1..];
        let smoothed = &orders[..orders.len() - 1];
        Self {
            r: coarse.iter().map(|&n| vec![0.0; n]).collect(),
            z: coarse.iter().map(|&n| vec![0.0; n]).collect(),
            t: smoothed.iter().map(|&n| vec![0.0; n]).collect(),
            s: smoothed.iter().map(|&n| vec![0.0; n]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_and_retains() {
        let mut ws = SolverWorkspace::new();
        assert_eq!(ws.order(), 0);
        ws.ensure(10);
        assert_eq!(ws.order(), 10);
        ws.ensure(5);
        assert_eq!(ws.order(), 10, "never shrinks");
        let ws2 = SolverWorkspace::with_order(7);
        assert_eq!(ws2.order(), 7);
    }

    #[test]
    fn pool_defaults_to_global_and_can_be_replaced() {
        let ws = SolverWorkspace::new();
        assert!(Arc::ptr_eq(ws.pool(), KernelPool::global()));
        let own = KernelPool::new(2);
        let mut ws = SolverWorkspace::with_pool(Arc::clone(&own));
        assert!(Arc::ptr_eq(ws.pool(), &own));
        ws.set_pool(Arc::clone(KernelPool::global()));
        assert!(Arc::ptr_eq(ws.pool(), KernelPool::global()));
    }
}
