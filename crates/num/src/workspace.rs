//! Reusable scratch space for the iterative solvers.

/// Krylov scratch vectors reused across repeated solves.
///
/// [`BiCgStab::solve_with`](crate::BiCgStab::solve_with) draws every
/// intermediate vector from here, so a caller that keeps one
/// workspace per model allocates nothing on the solve hot path (the
/// engine re-solves the same matrices every 100 ms sample). The buffers
/// grow to the largest order seen and are retained.
#[derive(Debug, Clone, Default)]
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
}

impl SolverWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a workspace pre-sized for order-`n` systems.
    pub fn with_order(n: usize) -> Self {
        let mut ws = Self::default();
        ws.ensure(n);
        ws
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
}
