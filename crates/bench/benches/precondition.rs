//! The Section 4.4 ablation: gradient preconditioning with the eigenvalue
//! outer product `1/(v_G v_Aᵀ + γ)` precomputed once vs. recomputed at every
//! step (the paper measured up to 53% faster preconditioning with the
//! precompute).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kaisa_core::KfacLayerState;
use kaisa_tensor::{Matrix, Rng};

fn prepared_state(a_dim: usize, g_dim: usize, precompute: bool) -> (KfacLayerState, Matrix) {
    let mut rng = Rng::seed_from_u64(11);
    let a = Matrix::randn(a_dim, a_dim, 1.0, &mut rng);
    let mut fa = a.matmul_tn(&a);
    fa.scale(1.0 / a_dim as f32);
    let g = Matrix::randn(g_dim, g_dim, 1.0, &mut rng);
    let mut fg = g.matmul_tn(&g);
    fg.scale(1.0 / g_dim as f32);

    let mut state = KfacLayerState::new("bench", a_dim, g_dim);
    state.update_factors(fa, fg, 0.0);
    let (qa, va) = state.eig_a();
    let (qg, vg) = state.eig_g();
    state.qa = Some(qa);
    state.qg = Some(qg);
    if precompute {
        state.outer = Some(KfacLayerState::compute_outer(&vg, &va, 0.003));
    } else {
        state.va = Some(va);
        state.vg = Some(vg);
    }
    let grad = Matrix::randn(g_dim, a_dim, 1.0, &mut rng);
    (state, grad)
}

fn bench_precondition(c: &mut Criterion) {
    let mut group = c.benchmark_group("precondition");
    for &(a_dim, g_dim) in &[(64usize, 32usize), (256, 128), (576, 64)] {
        let label = format!("{a_dim}x{g_dim}");
        for (name, precompute) in [("precomputed_outer", true), ("recompute_outer", false)] {
            let (mut state, grad) = prepared_state(a_dim, g_dim, precompute);
            group.bench_function(BenchmarkId::new(name, &label), |b| {
                // As in `Kfac::step`: the result goes back to the layer's
                // work buffers once it has been written to the model.
                b.iter(|| {
                    let p = state.precondition_eigen(&grad, 0.003);
                    state.recycle(p);
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_precondition);
criterion_main!(benches);
