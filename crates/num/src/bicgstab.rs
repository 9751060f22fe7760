//! Preconditioned BiCGSTAB for nonsymmetric systems.

use crate::{
    dot, dot2, norm2, LinearOperator, NumError, Preconditioner, SolveInfo, SolverWorkspace,
};

/// Stabilized bi-conjugate gradient solver.
///
/// The liquid-cooled thermal networks are nonsymmetric because coolant
/// advection transports heat downstream only; BiCGSTAB handles these
/// diagonally dominant systems robustly where plain CG does not apply.
///
/// Callers that re-solve the same matrix build a [`Preconditioner`]
/// once, keep a [`SolverWorkspace`], and call
/// [`solve_with`](Self::solve_with), so repeated solves allocate nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiCgStab {
    /// Relative residual tolerance `‖b−Ax‖/‖b‖`.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for BiCgStab {
    fn default() -> Self {
        Self {
            tolerance: 1e-10,
            max_iterations: 10_000,
        }
    }
}

impl BiCgStab {
    /// Solves `A·x = b` with an explicit (right) preconditioner and a
    /// caller-owned workspace, using the incoming `x` as the warm start;
    /// allocation-free when the workspace has already reached the matrix
    /// order.
    ///
    /// `a` is any [`LinearOperator`] — the index-free stencil operator
    /// or the CSR matrix itself; both produce bit-identical iterates.
    ///
    /// # Errors
    ///
    /// [`NumError::DimensionMismatch`] for wrong lengths,
    /// [`NumError::NoConvergence`] past the iteration cap, and
    /// [`NumError::Breakdown`] if an inner product vanishes. On either
    /// failure `x` holds the lowest-residual iterate observed during
    /// the solve — never a mid-iteration partial update — so the caller
    /// can use it as a warm start for a retry (a stronger
    /// preconditioner, a shorter time step).
    pub fn solve_with<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        b: &[f64],
        x: &mut [f64],
        m: &dyn Preconditioner,
        ws: &mut SolverWorkspace,
    ) -> Result<SolveInfo, NumError> {
        let result = self.solve_inner(a, b, x, m, ws);
        if vfc_obs::counters_enabled() {
            vfc_obs::counter_add("solver.solves", 1);
            if let Ok(info) = &result {
                vfc_obs::counter_add("solver.iterations", info.iterations as u64);
            }
        }
        result
    }

    fn solve_inner<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        b: &[f64],
        x: &mut [f64],
        m: &dyn Preconditioner,
        ws: &mut SolverWorkspace,
    ) -> Result<SolveInfo, NumError> {
        let n = a.order();
        if b.len() != n || x.len() != n || m.order() != n {
            return Err(NumError::DimensionMismatch {
                context: "bicgstab: rhs/solution/preconditioner order must equal matrix order",
            });
        }
        ws.ensure(n);
        let SolverWorkspace {
            r,
            r0,
            v,
            p,
            phat,
            shat,
            t,
            best,
        } = ws;
        let (r, r0) = (&mut r[..n], &mut r0[..n]);
        let (v, p) = (&mut v[..n], &mut p[..n]);
        let (phat, shat, t) = (&mut phat[..n], &mut shat[..n], &mut t[..n]);
        let best = &mut best[..n];

        let b_norm = norm2(b);
        if b_norm == 0.0 {
            x.fill(0.0);
            return Ok(SolveInfo {
                iterations: 0,
                residual: 0.0,
            });
        }

        // Fused initial residual r = b − A·x: one pass over the rows,
        // bit-identical to a matvec followed by the subtraction.
        a.residual_into(b, x, r);
        r0.copy_from_slice(r);
        let mut rho = 1.0f64;
        let mut alpha = 1.0f64;
        let mut omega = 1.0f64;
        // p and v carry state across iterations and must start clean (the
        // workspace may hold a previous solve's vectors).
        v.fill(0.0);
        p.fill(0.0);
        // Lowest observed (recursive) residual and the iterate it
        // belongs to, kept so a failed solve still hands the caller a
        // usable vector (see `NumError::Breakdown`).
        let mut best_res = f64::INFINITY;

        let result = 'solve: {
            for it in 0..self.max_iterations {
                // ‖r‖ and r₀·r are co-located (same r, same point in the
                // iteration): one fused pass, each product bit-identical to
                // its separate reduction.
                let (rr, rho_new) = dot2(r, r, r0, r);
                let res = rr.sqrt() / b_norm;
                if res < best_res {
                    best_res = res;
                    best.copy_from_slice(x);
                }
                if res <= self.tolerance {
                    break 'solve Ok(SolveInfo {
                        iterations: it,
                        residual: res,
                    });
                }
                if rho_new.abs() < 1e-300 {
                    break 'solve Err(NumError::Breakdown { iterations: it });
                }
                let beta = (rho_new / rho) * (alpha / omega);
                rho = rho_new;
                for ((pi, &ri), &vi) in p.iter_mut().zip(&*r).zip(&*v) {
                    *pi = ri + beta * (*pi - omega * vi);
                }
                vfc_obs::counter_add("precond.applies", 1);
                m.apply(p, phat);
                a.matvec_into(phat, v);
                let r0v = dot(r0, v);
                if r0v.abs() < 1e-300 {
                    break 'solve Err(NumError::Breakdown { iterations: it });
                }
                alpha = rho / r0v;
                // s = r - alpha*v (reuse r as s)
                for (ri, &vi) in r.iter_mut().zip(&*v) {
                    *ri -= alpha * vi;
                }
                let s_res = norm2(r) / b_norm;
                if s_res <= self.tolerance {
                    for (xi, &hi) in x.iter_mut().zip(&*phat) {
                        *xi += alpha * hi;
                    }
                    break 'solve Ok(SolveInfo {
                        iterations: it + 1,
                        residual: s_res,
                    });
                }
                vfc_obs::counter_add("precond.applies", 1);
                m.apply(r, shat);
                a.matvec_into(shat, t);
                // t·t and t·s (s lives in r) are co-located: one fused pass.
                let (tt, tr) = dot2(t, t, t, r);
                if tt.abs() < 1e-300 {
                    break 'solve Err(NumError::Breakdown { iterations: it });
                }
                omega = tr / tt;
                // Fused update: one pass refreshes both x and r.
                for (((xi, ri), (&hi, &si)), &ti) in x
                    .iter_mut()
                    .zip(r.iter_mut())
                    .zip(phat.iter().zip(&*shat))
                    .zip(&*t)
                {
                    *xi += alpha * hi + omega * si;
                    *ri -= omega * ti;
                }
                if omega.abs() < 1e-300 {
                    break 'solve Err(NumError::Breakdown { iterations: it });
                }
            }
            Err(NumError::NoConvergence {
                iterations: self.max_iterations,
                residual: norm2(r) / b_norm,
            })
        };

        // On failure, hand back the lowest-residual iterate observed
        // instead of whatever partial update the failure interrupted —
        // a breakdown can leave x mid-iteration. This is the contract
        // documented on `NumError::Breakdown`; successful solves never
        // touch x here.
        match result {
            Err(NumError::NoConvergence {
                iterations,
                residual,
            }) if best_res < residual => {
                x.copy_from_slice(best);
                Err(NumError::NoConvergence {
                    iterations,
                    residual: best_res,
                })
            }
            Err(err @ NumError::Breakdown { .. }) => {
                if best_res.is_finite() {
                    x.copy_from_slice(best);
                }
                Err(err)
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrBuilder, CsrMatrix, DenseMatrix, KernelSchedules, PreconditionerKind};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// No preconditioning, `z = r`: the unpreconditioned reference the
    /// solver tests compare against and run the plain Krylov iteration
    /// under.
    #[derive(Debug)]
    struct Unpreconditioned(usize);

    impl Preconditioner for Unpreconditioned {
        fn apply(&self, r: &[f64], z: &mut [f64]) {
            z.copy_from_slice(r);
        }

        fn order(&self) -> usize {
            self.0
        }
    }

    /// Unpreconditioned solve with fresh scratch space.
    fn solve_unpreconditioned(
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
    ) -> Result<SolveInfo, NumError> {
        let m = Unpreconditioned(a.order());
        BiCgStab::default().solve_with(a, b, x, &m, &mut SolverWorkspace::new())
    }

    /// 1-D advection-diffusion matrix: diffusion couples both neighbours,
    /// advection couples upstream only — exactly the structure of a
    /// microchannel row in the thermal network.
    fn advection_diffusion(n: usize, adv: f64) -> CsrMatrix {
        let mut b = CsrBuilder::new(n);
        for i in 0..n {
            let mut diag = 0.1; // sink term
            if i > 0 {
                b.add(i, i - 1, -1.0 - adv);
                diag += 1.0 + adv;
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
                diag += 1.0;
            }
            b.add(i, i, diag);
        }
        b.build()
    }

    #[test]
    fn solves_nonsymmetric_advection_system() {
        let a = advection_diffusion(200, 5.0);
        let x_true: Vec<f64> = (0..200).map(|i| 60.0 + (i as f64 * 0.05).cos()).collect();
        let b = a.matvec(&x_true);
        let mut x = vec![0.0; 200];
        let info = solve_unpreconditioned(&a, &b, &mut x).unwrap();
        assert!(info.residual <= 1e-10);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-5);
        }
    }

    #[test]
    fn matches_dense_lu_on_small_systems() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let n = rng.random_range(2..30);
            let mut b = CsrBuilder::new(n);
            let mut dense = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    if i == j || rng.random::<f64>() < 0.3 {
                        let v = if i == j {
                            rng.random_range(5.0..10.0)
                        } else {
                            rng.random_range(-1.0..1.0)
                        };
                        b.add(i, j, v);
                        dense[(i, j)] = v;
                    }
                }
            }
            let a = b.build();
            let rhs: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
            let mut x = vec![0.0; n];
            solve_unpreconditioned(&a, &rhs, &mut x).unwrap();
            let x_lu = dense.lu_solve(&rhs).unwrap();
            for (got, want) in x.iter().zip(&x_lu) {
                assert!((got - want).abs() < 1e-7, "n={n}");
            }
        }
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = advection_diffusion(10, 1.0);
        let mut x = vec![3.0; 10];
        let info = solve_unpreconditioned(&a, &[0.0; 10], &mut x).unwrap();
        assert_eq!(info.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dimension_mismatch() {
        let a = advection_diffusion(4, 1.0);
        let mut x = vec![0.0; 4];
        assert!(matches!(
            solve_unpreconditioned(&a, &[1.0; 3], &mut x),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn preconditioner_order_mismatch() {
        let a = advection_diffusion(4, 1.0);
        let wrong = Unpreconditioned(3);
        let mut x = vec![0.0; 4];
        assert!(matches!(
            BiCgStab::default().solve_with(&a, &[1.0; 4], &mut x, &wrong, &mut Default::default()),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn ilu0_cuts_iterations_on_stiff_advection() {
        // On this stiff advection chain the unpreconditioned recursive
        // residual stagnates for ~1000 iterations (and its "solution"
        // drifts far from the truth — cancellation), while ILU(0), exact
        // on a tridiagonal pattern, lands the true answer immediately.
        let n = 500;
        let a = advection_diffusion(n, 8.0);
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.01).sin()).collect();
        let rhs = a.matvec(&x_true);
        let solver = BiCgStab::default();
        let mut ws = SolverWorkspace::new();

        let mut x_id = vec![0.0; n];
        let id = Unpreconditioned(n);
        let info_id = solver
            .solve_with(&a, &rhs, &mut x_id, &id, &mut ws)
            .unwrap();

        let mut x_ilu = vec![0.0; n];
        let ilu = PreconditionerKind::Ilu0
            .build(&a, &KernelSchedules::for_matrix(&a))
            .unwrap();
        let info_ilu = solver
            .solve_with(&a, &rhs, &mut x_ilu, ilu.as_ref(), &mut ws)
            .unwrap();

        assert!(
            info_ilu.iterations * 3 < info_id.iterations,
            "ILU(0) {} vs identity {}",
            info_ilu.iterations,
            info_id.iterations
        );
        for (got, want) in x_ilu.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn failed_solves_return_the_best_iterate() {
        // The unpreconditioned diffusion chain converges steadily but
        // needs far more iterations than a small cap allows, so a
        // capped run fails with NoConvergence — and must still hand
        // back the lowest-residual iterate it saw, not the last
        // (possibly worse) one.
        let n = 500;
        let a = advection_diffusion(n, 0.5);
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.01).sin()).collect();
        let rhs = a.matvec(&x_true);
        let id = Unpreconditioned(n);
        let capped = |cap: usize| {
            let solver = BiCgStab {
                max_iterations: cap,
                ..BiCgStab::default()
            };
            let mut x = vec![0.0; n];
            let err = solver
                .solve_with(&a, &rhs, &mut x, &id, &mut SolverWorkspace::new())
                .unwrap_err();
            match err {
                NumError::NoConvergence { residual, .. } => (x, residual),
                other => panic!("expected NoConvergence, got {other:?}"),
            }
        };
        let (x10, res10) = capped(10);
        let (x30, res30) = capped(30);
        // The zero warm start scores relative residual 1.0 at iteration
        // 0, so the reported best can only improve on it; and a longer
        // run observes a superset of iterates, so its best is no worse.
        assert!(res10 < 1.0, "no progress recorded: {res10}");
        assert!(res30 <= res10, "best residual must be monotone in the cap");
        assert!(x10.iter().any(|&v| v != 0.0), "iterate was not returned");
        assert!(x30.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn breakdown_returns_the_best_iterate_not_garbage() {
        // The 2x2 rotation annihilates r0·v on the first iteration —
        // a genuine Breakdown before any x update. The contract says
        // the caller gets the best iterate seen, which here is the warm
        // start itself.
        let mut b = CsrBuilder::new(2);
        b.add(0, 1, 1.0);
        b.add(1, 0, -1.0);
        let a = b.build();
        let id = Unpreconditioned(2);
        let mut x = vec![0.5, -0.25];
        let warm = x.clone();
        let err = BiCgStab::default()
            .solve_with(&a, &[1.0, 0.0], &mut x, &id, &mut SolverWorkspace::new())
            .unwrap_err();
        assert!(matches!(err, NumError::Breakdown { iterations: 0 }));
        assert_eq!(x, warm, "breakdown must preserve the best-seen iterate");
    }

    #[test]
    fn workspace_reuse_is_consistent() {
        // Solving different systems back-to-back through one workspace
        // gives the same results as fresh scratch space each time.
        let solver = BiCgStab::default();
        let mut ws = SolverWorkspace::new();
        for &(n, adv) in &[(40usize, 2.0), (25, 7.0), (60, 0.5)] {
            let a = advection_diffusion(n, adv);
            let rhs: Vec<f64> = (0..n).map(|i| (i as f64) - n as f64 / 3.0).collect();
            let m = Unpreconditioned(n);
            let mut x_shared = vec![0.0; n];
            let info_shared = solver
                .solve_with(&a, &rhs, &mut x_shared, &m, &mut ws)
                .unwrap();
            let mut x_fresh = vec![0.0; n];
            let info_fresh = solver
                .solve_with(&a, &rhs, &mut x_fresh, &m, &mut SolverWorkspace::new())
                .unwrap();
            assert_eq!(info_shared.iterations, info_fresh.iterations);
            assert_eq!(x_shared, x_fresh, "workspace reuse must not leak state");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn residual_below_tolerance(seed in 0u64..200, n in 2usize..40, adv in 0.0f64..10.0) {
            let a = advection_diffusion(n, adv);
            let mut rng = StdRng::seed_from_u64(seed);
            let rhs: Vec<f64> = (0..n).map(|_| rng.random_range(-10.0..10.0)).collect();
            let mut x = vec![0.0; n];
            let info = solve_unpreconditioned(&a, &rhs, &mut x).unwrap();
            prop_assert!(info.residual <= 1e-10);
        }

        #[test]
        fn preconditioned_matches_unpreconditioned(
            seed in 0u64..200,
            n in 2usize..40,
            adv in 0.0f64..8.0,
        ) {
            // Every preconditioner reaches the same solution as the
            // unpreconditioned solver, within tolerance, on random
            // advection-diffusion systems.
            let a = advection_diffusion(n, adv);
            let mut rng = StdRng::seed_from_u64(seed);
            let rhs: Vec<f64> = (0..n).map(|_| rng.random_range(-10.0..10.0)).collect();
            let solver = BiCgStab::default();
            let mut ws = SolverWorkspace::new();

            let id = Unpreconditioned(n);
            let mut x_ref = vec![0.0; n];
            solver.solve_with(&a, &rhs, &mut x_ref, &id, &mut ws).unwrap();

            let scale = x_ref.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            let m = PreconditionerKind::Ilu0
                .build(&a, &KernelSchedules::for_matrix(&a))
                .unwrap();
            let mut x = vec![0.0; n];
            let info = solver.solve_with(&a, &rhs, &mut x, m.as_ref(), &mut ws).unwrap();
            prop_assert!(info.residual <= 1e-10);
            for (got, want) in x.iter().zip(&x_ref) {
                prop_assert!((got - want).abs() <= 1e-6 * scale, "{got} vs {want}");
            }
        }
    }
}
