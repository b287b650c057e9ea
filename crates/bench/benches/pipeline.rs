//! Serial vs pipelined `Kfac::step` at world size 4: the stage pipeline
//! overlaps factor/eig/gradient collectives with other layers' local
//! compute, so the pipelined order should win on multi-rank worlds while
//! staying bitwise-identical (see tests/pipeline_equivalence.rs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kaisa_comm::ThreadComm;
use kaisa_core::{Kfac, KfacConfig};
use kaisa_nn::models::Mlp;
use kaisa_nn::Model;
use kaisa_tensor::{Matrix, Rng};

const WORLD: usize = 4;

fn run_steps(pipelined: bool) {
    ThreadComm::run(WORLD, |comm| {
        let mut rng = Rng::seed_from_u64(71);
        let x = Matrix::randn(32, 48, 1.0, &mut rng);
        let y: Vec<usize> = (0..32).map(|i| i % 6).collect();
        let mut model = Mlp::new(&[48, 64, 56, 6], &mut Rng::seed_from_u64(72));
        let cfg = KfacConfig::builder()
            .grad_worker_frac(0.5)
            .factor_update_freq(1)
            .inv_update_freq(2)
            .pipelined(pipelined)
            .build();
        let mut kfac = Kfac::new(cfg, &mut model, comm);
        for _ in 0..4 {
            kfac.prepare(&mut model);
            model.zero_grad();
            let _ = model.forward_backward(&x, &y);
            kfac.step(&mut model, comm, 0.1);
        }
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);
    for pipelined in [false, true] {
        let label = if pipelined { "pipelined" } else { "serial" };
        group.bench_with_input(BenchmarkId::from_parameter(label), &pipelined, |b, &p| {
            b.iter(|| run_steps(p))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
