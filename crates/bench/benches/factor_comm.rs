//! The Section 4.3 ablation: triangular vs. full factor communication —
//! packing halves the payload but adds extract/reconstruct overhead, which
//! the paper found unprofitable on latency-bound networks. Plus the factor
//! allreduce itself over one packed payload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kaisa_comm::{CommTag, Communicator, ReduceOp, ThreadComm};
use kaisa_linalg::{pack_upper, unpack_upper};
use kaisa_tensor::{Matrix, Rng};

fn symmetric(n: usize) -> Matrix {
    let mut rng = Rng::seed_from_u64(n as u64);
    let a = Matrix::randn(n, n, 1.0, &mut rng);
    a.matmul_tn(&a)
}

fn bench_pack_unpack(c: &mut Criterion) {
    let mut group = c.benchmark_group("triangular_pack");
    for n in [64usize, 256, 1024] {
        let m = symmetric(n);
        group.bench_with_input(BenchmarkId::new("pack", n), &m, |b, m| b.iter(|| pack_upper(m)));
        let packed = pack_upper(&m);
        group.bench_with_input(BenchmarkId::new("unpack", n), &packed, |b, packed| {
            b.iter(|| unpack_upper(packed, n))
        });
        // The full-matrix alternative: a plain copy of n² floats.
        group.bench_with_input(BenchmarkId::new("full_copy", n), &m, |b, m| {
            b.iter(|| m.as_slice().to_vec())
        });
    }
    group.finish();
}

fn bench_factor_reduction(c: &mut Criterion) {
    // One packed factor payload per round, averaged over the world.
    const LEN: usize = 16 * 1024;
    const ROUNDS: usize = 8;
    let mut group = c.benchmark_group("factor_reduction");
    group.sample_size(10);
    for world in [4usize, 8] {
        group.bench_with_input(BenchmarkId::new("dense_allreduce", world), &world, |b, &world| {
            b.iter(|| {
                ThreadComm::run(world, |comm| {
                    let ranks: Vec<usize> = (0..world).collect();
                    let payload = vec![comm.rank() as f32 + 1.0; LEN];
                    for _ in 0..ROUNDS {
                        let pending = comm.begin_allreduce(
                            &payload,
                            ReduceOp::Avg,
                            &ranks,
                            CommTag::FactorComm,
                        );
                        let mut out = vec![0.0f32; LEN];
                        comm.complete(pending, &mut out);
                    }
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pack_unpack, bench_factor_reduction);
criterion_main!(benches);
