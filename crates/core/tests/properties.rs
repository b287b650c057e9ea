//! Property-based tests on KAISA's core invariants: placement plans, the
//! LPT bound, preconditioner algebra, and strategy equivalence over random
//! layer configurations.

use kaisa_core::{gradient_worker_count, plan_assignments, KfacLayerState};
use kaisa_tensor::{Matrix, Rng};
use proptest::prelude::*;

fn random_psd(n: usize, rng: &mut Rng) -> Matrix {
    let a = Matrix::randn(n, n, 1.0, rng);
    let mut s = a.matmul_tn(&a);
    s.scale(1.0 / n as f32);
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn worker_count_within_bounds(frac in 0.001f64..4.0, world in 1usize..512) {
        let n = gradient_worker_count(frac, world);
        prop_assert!(n >= 1 && n <= world);
    }

    #[test]
    fn plans_are_valid_partitions(
        layers in prop::collection::vec((2usize..64, 2usize..64), 1..20),
        world in 1usize..17,
        frac in 0.01f64..1.0,
    ) {
        let plan = plan_assignments(&layers, world, frac);
        for layer in &plan.layers {
            // Workers sorted, unique, within range.
            for w in layer.gradient_workers.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            prop_assert!(layer.gradient_workers.iter().all(|&r| r < world));
            // Eigen workers are gradient workers.
            prop_assert!(layer.is_gradient_worker(layer.a_worker));
            prop_assert!(layer.is_gradient_worker(layer.g_worker));
            // Broadcast groups partition exactly the receivers.
            let mut seen = std::collections::HashSet::new();
            for group in &layer.bcast_groups {
                prop_assert!(group.len() >= 2, "groups with no receivers are dropped");
                prop_assert!(layer.is_gradient_worker(group[0]), "root must be a worker");
                for &r in group {
                    prop_assert!(seen.insert(r), "rank {} in two groups", r);
                }
            }
            let receivers: usize = layer.bcast_groups.iter().map(|g| g.len() - 1).sum();
            prop_assert_eq!(receivers, world - layer.gradient_workers.len());
            // Every rank is either a worker or in exactly one group.
            for r in 0..world {
                let worker = layer.is_gradient_worker(r);
                let grouped = layer.bcast_group_of(r).is_some();
                prop_assert!(worker || grouped, "rank {} orphaned", r);
            }
        }
    }

    #[test]
    fn lpt_respects_graham_bound(
        layers in prop::collection::vec((2usize..200, 2usize..200), 1..40),
        world in 1usize..33,
    ) {
        // LPT makespan <= 3/2 * OPT with OPT >= max(total/m, largest job).
        let plan = plan_assignments(&layers, world, 1.0);
        let total = plan.total_load();
        let largest = layers
            .iter()
            .flat_map(|&(a, g)| [a, g])
            .map(|n| (n as f64).powi(3))
            .fold(0.0, f64::max);
        let lower = (total / world as f64).max(largest);
        prop_assert!(plan.makespan() <= 1.5 * lower + 1e-6,
            "makespan {} vs bound {}", plan.makespan(), 1.5 * lower);
    }

    #[test]
    fn lpt_never_worse_than_round_robin(
        layers in prop::collection::vec((2usize..100, 2usize..100), 1..24),
        world in 1usize..17,
    ) {
        let lpt = plan_assignments(&layers, world, 1.0);
        // Round-robin oracle: the k-th job (A then G, layer by layer) on
        // rank k mod world.
        let mut rr_loads = vec![0.0f64; world];
        for (k, n) in layers.iter().flat_map(|&(a, g)| [a, g]).enumerate() {
            rr_loads[k % world] += (n as f64).powi(3);
        }
        let rr_makespan = rr_loads.iter().cloned().fold(0.0, f64::max);
        prop_assert!(lpt.makespan() <= rr_makespan + 1e-6);
    }

    #[test]
    fn preconditioner_is_exact_damped_kronecker_inverse(
        a_dim in 2usize..8,
        g_dim in 2usize..8,
        damping in 0.001f32..0.5,
        seed in any::<u64>(),
    ) {
        // For arbitrary PSD factors and damping, Eq. 15-17 must equal
        // (kron(G, A) + γI)^{-1} vec(grad).
        let mut rng = Rng::seed_from_u64(seed);
        let fa = random_psd(a_dim, &mut rng);
        let fg = random_psd(g_dim, &mut rng);
        let mut state = KfacLayerState::new("prop", a_dim, g_dim);
        state.update_factors(&fa, &fg, 0.0);
        let (qa, va) = state.eig_a();
        let (qg, vg) = state.eig_g();
        state.outer = Some(KfacLayerState::compute_outer(&vg, &va, damping));
        state.qa = Some(qa);
        state.qg = Some(qg);
        let grad = Matrix::randn(g_dim, a_dim, 1.0, &mut rng);
        let fast = state.precondition_eigen(&grad);

        // Explicit Kronecker matrix (row-major convention: kron(G, A)).
        let k = Matrix::from_fn(g_dim * a_dim, g_dim * a_dim, |r, c| {
            fg.get(r / a_dim, c / a_dim) * fa.get(r % a_dim, c % a_dim)
        });
        let mut damped = k;
        damped.add_diag(damping);
        let inv = kaisa_linalg::lu_inverse(&damped).unwrap();
        let flat = Matrix::from_vec(g_dim * a_dim, 1, grad.as_slice().to_vec());
        let expect = Matrix::from_vec(g_dim, a_dim, inv.matmul(&flat).into_vec());

        let scale = expect.max_abs().max(1e-3);
        prop_assert!(fast.max_abs_diff(&expect) < 5e-3 * scale.max(1.0),
            "deviation {}", fast.max_abs_diff(&expect));
    }

    #[test]
    fn preconditioning_never_amplifies_beyond_inverse_damping(
        a_dim in 2usize..8,
        g_dim in 2usize..8,
        damping in 0.01f32..1.0,
        seed in any::<u64>(),
    ) {
        // ‖(F + γI)^{-1} g‖ ≤ ‖g‖ / γ: the damped preconditioner's gain is
        // bounded, so K-FAC cannot blow up a gradient unboundedly.
        let mut rng = Rng::seed_from_u64(seed);
        let mut state = KfacLayerState::new("gain", a_dim, g_dim);
        state.update_factors(&random_psd(a_dim, &mut rng), &random_psd(g_dim, &mut rng), 0.0);
        let (qa, va) = state.eig_a();
        let (qg, vg) = state.eig_g();
        state.outer = Some(KfacLayerState::compute_outer(&vg, &va, damping));
        state.qa = Some(qa);
        state.qg = Some(qg);
        let grad = Matrix::randn(g_dim, a_dim, 1.0, &mut rng);
        let p = state.precondition_eigen(&grad);
        prop_assert!(p.frob_norm() <= grad.frob_norm() / damping * 1.01,
            "gain {} exceeds 1/γ = {}", p.frob_norm() / grad.frob_norm(), 1.0 / damping);
    }

    #[test]
    fn plan_deterministic_across_calls(
        layers in prop::collection::vec((2usize..64, 2usize..64), 1..12),
        world in 1usize..9,
        frac in 0.1f64..1.0,
    ) {
        let a = plan_assignments(&layers, world, frac);
        let b = plan_assignments(&layers, world, frac);
        prop_assert_eq!(a.layers, b.layers);
    }
}
