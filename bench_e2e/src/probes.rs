//! Isolated probes of single layers at a workload's shapes. They explain a
//! move in a traced per-step metric; they are never a result on their own.

use std::sync::Barrier;
use std::time::Instant;

use kaisa_comm::{Communicator, ReduceOp, ThreadComm};
use kaisa_linalg::sym_eig;
use kaisa_tensor::{Matrix, Rng};

use crate::metrics::Outcome;
use crate::stats::{median, time_reps};
use crate::train::WORLD;

/// `Matrix::gram_tn` at the largest capture shape and `Matrix::matmul` at the
/// largest precondition shape, from one caller and from `WORLD` callers at
/// once (each GEMM call fans out over every core, so the second shows what a
/// rank gets when its peer is in a GEMM too). Rates count a full GEMM's
/// `2mnk` flops for both, so they compare across kernels.
pub fn tensor(out: &mut Outcome, dims: &[(usize, usize)], capture_rows: usize, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    let &(a, g) = dims.iter().max_by_key(|(a, g)| a * g).expect("model has K-FAC layers");
    let acts = Matrix::randn(capture_rows, a, 1.0, &mut rng);
    let grad = Matrix::randn(g, a, 1.0, &mut rng);
    let basis = Matrix::randn(a, a, 1.0, &mut rng);

    let gram_s = time_reps(5, || (), || drop(std::hint::black_box(acts.gram_tn())));
    out.set("tensor.gram_tn_gflops", 2.0 * (capture_rows * a * a) as f64 / gram_s / 1e9);

    let gemm_flops = 2.0 * (g * a * a) as f64;
    let solo_s = time_reps(9, || (), || drop(std::hint::black_box(grad.matmul(&basis))));
    out.set("tensor.gemm_nn_gflops_solo", gemm_flops / solo_s / 1e9);

    let gate = Barrier::new(WORLD);
    let together_s = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..WORLD)
            .map(|_| {
                scope.spawn(|| {
                    gate.wait();
                    time_reps(9, || (), || drop(std::hint::black_box(grad.matmul(&basis))))
                })
            })
            .collect();
        let per_caller: Vec<f64> =
            callers.into_iter().map(|c| c.join().expect("GEMM probe thread panicked")).collect();
        median(&per_caller)
    });
    out.set("tensor.gemm_nn_gflops_2ranks", gemm_flops / together_s / 1e9);
}

/// `sym_eig` over every factor dimension of the workload, on well-conditioned
/// random symmetric positive-definite matrices: the largest single solve and
/// the sum (what one rank pays per inverse update if it owns every factor).
pub fn linalg(out: &mut Outcome, dims: &[(usize, usize)], seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    let (mut max_s, mut sum_s) = (0.0f64, 0.0f64);
    for &(a, g) in dims {
        for n in [a, g] {
            let mut factor = Matrix::randn(2 * n, n, 1.0, &mut rng).gram_tn();
            factor.scale(1.0 / (2 * n) as f32);
            factor.add_diag(0.1);
            let t0 = Instant::now();
            let eig = sym_eig(&factor);
            let s = t0.elapsed().as_secs_f64();
            assert!(eig.is_ok(), "sym_eig failed on a {n}x{n} SPD probe matrix");
            std::hint::black_box(eig).ok();
            max_s = max_s.max(s);
            sum_s += s;
        }
    }
    out.set("linalg.sym_eig_max_ms", max_s * 1e3);
    out.set("linalg.sym_eig_sum_ms", sum_s * 1e3);
}

/// Collective latencies on an idle `WORLD`-rank world: allreduce of a
/// gradient-sized vector, broadcast of the largest layer's gradient, barrier.
/// Each sample starts from a barrier so it holds no waiting for a late rank.
pub fn comm(out: &mut Outcome, param_count: usize, dims: &[(usize, usize)]) {
    let layer = dims.iter().map(|(a, g)| a * g).max().expect("model has K-FAC layers");
    let mut ranks = ThreadComm::run(WORLD, |comm| {
        let mut grads = vec![1.0f32; param_count];
        let mut layer_grad = vec![1.0f32; layer];
        [
            time_reps(15, || comm.barrier(), || comm.allreduce(&mut grads, ReduceOp::Avg)),
            time_reps(15, || comm.barrier(), || comm.broadcast(&mut layer_grad, 0)),
            time_reps(101, || comm.barrier(), || comm.barrier()),
        ]
    });
    let [allreduce, broadcast, barrier] = ranks.swap_remove(0);
    out.set("comm.allreduce_grad_us", allreduce * 1e6);
    out.set("comm.broadcast_layer_us", broadcast * 1e6);
    out.set("comm.barrier_us", barrier * 1e6);
}
