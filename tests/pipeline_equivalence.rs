//! The pipelined executor's contract: splitting `Kfac::step` into per-layer
//! stage tasks with non-blocking collectives changes *when* work happens,
//! never *what* is computed. Serial and pipelined execution must be bitwise
//! identical — same preconditioned gradients, same trained weights, same
//! logical communication volume — across every distribution strategy, world
//! size, precision, and communication layout.

use kaisa::comm::{CommTag, Communicator, MeterSnapshot, ThreadComm};
use kaisa::core::{Kfac, KfacConfig, KfacConfigBuilder};
use kaisa::data::{Dataset, GaussianBlobs, ShardSampler};
use kaisa::nn::models::Mlp;
use kaisa::nn::Model;
use kaisa::optim::{Optimizer, Sgd};
use kaisa::tensor::{Precision, Rng};
use proptest::prelude::*;

/// Train an MLP for `steps` on `world` ranks and return, per rank, the final
/// parameters, the last preconditioned gradients, the logical K-FAC comm
/// bytes, and the rank's meter snapshot.
fn train(
    world: usize,
    steps: usize,
    seed: u64,
    build: impl Fn(KfacConfigBuilder) -> KfacConfigBuilder + Sync,
) -> Vec<(Vec<f32>, Vec<f32>, u64, MeterSnapshot)> {
    train_accum(world, steps, seed, 1, build)
}

/// [`train`] with gradient accumulation: each step's indices split into
/// `grad_accum` micro-batches whose gradients (and K-FAC statistics)
/// accumulate before the K-FAC step.
fn train_accum(
    world: usize,
    steps: usize,
    seed: u64,
    grad_accum: usize,
    build: impl Fn(KfacConfigBuilder) -> KfacConfigBuilder + Sync,
) -> Vec<(Vec<f32>, Vec<f32>, u64, MeterSnapshot)> {
    let dataset = GaussianBlobs::generate(128, 8, 4, 0.4, seed);
    ThreadComm::run(world, |comm| {
        let mut model = Mlp::new(&[8, 12, 4], &mut Rng::seed_from_u64(seed + 1));
        let mut opt = Sgd::with_momentum(0.9);
        let cfg = build(KfacConfig::builder().factor_update_freq(2).inv_update_freq(4)).build();
        let mut kfac = Kfac::new(cfg, &mut model, comm);
        let sampler = ShardSampler::new(dataset.len(), world, comm.rank(), 8, seed);
        let mut last_grads = Vec::new();
        for step in 0..steps {
            let epoch = step / sampler.batches_per_epoch();
            let batches = sampler.epoch_batches(epoch);
            let indices = &batches[step % sampler.batches_per_epoch()];
            kfac.prepare(&mut model);
            model.zero_grad();
            let micro = indices.len().div_ceil(grad_accum).max(1);
            for chunk in indices.chunks(micro) {
                let (x, y) = dataset.batch(chunk);
                let _ = model.forward_backward(&x, &y);
            }
            kaisa::trainer::allreduce_gradients(&mut model, comm, grad_accum);
            kfac.step(&mut model, comm, 0.1);
            last_grads = model.grads_flat();
            opt.step_model(&mut model, 0.1);
        }
        // Quiesce all ranks so every collective of the final step has been
        // recorded in the meter.
        comm.barrier();
        (model.params_flat(), last_grads, kfac.comm_bytes(), comm.meter_snapshot())
    })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Assert the two executors produced bit-identical training on every rank.
fn assert_bitwise_equal(
    serial: &[(Vec<f32>, Vec<f32>, u64, MeterSnapshot)],
    pipelined: &[(Vec<f32>, Vec<f32>, u64, MeterSnapshot)],
    ctx: &str,
) {
    assert_eq!(serial.len(), pipelined.len());
    for (rank, (s, p)) in serial.iter().zip(pipelined).enumerate() {
        assert_eq!(bits(&s.0), bits(&p.0), "{ctx}: rank {rank} params differ");
        assert_eq!(bits(&s.1), bits(&p.1), "{ctx}: rank {rank} grads differ");
        assert_eq!(s.2, p.2, "{ctx}: rank {rank} logical comm bytes differ");
    }
}

#[test]
fn pipelined_is_bitwise_identical_across_strategies_and_worlds() {
    for world in [1usize, 2, 4, 8] {
        for frac in [1.0 / world as f64, 0.5, 1.0] {
            let serial = train(world, 10, 31, |b| b.grad_worker_frac(frac).pipelined(false));
            let pipelined = train(world, 10, 31, |b| b.grad_worker_frac(frac).pipelined(true));
            assert_bitwise_equal(&serial, &pipelined, &format!("world={world} frac={frac}"));
        }
    }
}

#[test]
fn pipelined_is_bitwise_identical_with_fp16_and_triangular_comm() {
    for (precision, triangular) in
        [(Precision::Fp16, false), (Precision::Fp32, true), (Precision::Fp16, true)]
    {
        let mk = |pipelined: bool| {
            train(4, 8, 47, move |b| {
                b.grad_worker_frac(0.5)
                    .precision(precision)
                    .triangular_comm(triangular)
                    .pipelined(pipelined)
            })
        };
        let ctx = format!("precision={precision:?} triangular={triangular}");
        assert_bitwise_equal(&mk(false), &mk(true), &ctx);
    }
}

#[test]
fn pipelined_is_bitwise_identical_on_variant_algorithms() {
    // The direct-inverse fallback (Eq. 12–14), the outer-product ablation,
    // and EK-FAC exercise different collectives; all must stay bit-exact.
    type Variant = (&'static str, fn(KfacConfigBuilder) -> KfacConfigBuilder);
    let variants: [Variant; 3] = [
        ("inverse", |b| b.use_eigen(false)),
        ("no-precompute", |b| b.precompute_outer(false)),
        ("ekfac", |b| b.ekfac(true)),
    ];
    for (name, variant) in variants {
        let mk = |pipelined: bool| {
            train(4, 8, 59, |b| variant(b.grad_worker_frac(0.5)).pipelined(pipelined))
        };
        assert_bitwise_equal(&mk(false), &mk(true), name);
    }
}

#[test]
fn meter_attributes_every_byte_to_an_issuing_stage() {
    // HYBRID-OPT at world 4 (two gradient workers per layer): factor
    // allreduces, eigendecomposition broadcasts, per-step gradient
    // broadcasts, and the DDP allreduce are all live.
    let results = train(4, 8, 71, |b| b.grad_worker_frac(0.5).pipelined(true));
    for (rank, (_, _, _, meter)) in results.iter().enumerate() {
        assert!(meter.tag_bytes(CommTag::Ddp) > 0, "rank {rank}: DDP untagged");
        assert!(meter.tag_bytes(CommTag::FactorComm) > 0, "rank {rank}: factor allreduce untagged");
        assert!(meter.tag_bytes(CommTag::EigComm) > 0, "rank {rank}: eig broadcast untagged");
        assert!(meter.tag_bytes(CommTag::GradComm) > 0, "rank {rank}: grad broadcast untagged");
        assert_eq!(
            meter.tag_bytes(CommTag::Untagged),
            0,
            "rank {rank}: stage attribution must be exhaustive"
        );
        let tagged: u64 = [
            CommTag::Ddp,
            CommTag::FactorComm,
            CommTag::EigComm,
            CommTag::GradComm,
            CommTag::Untagged,
        ]
        .iter()
        .map(|&t| meter.tag_bytes(t))
        .sum();
        assert_eq!(tagged, meter.total_bytes(), "rank {rank}: bytes leaked a tag");
    }
    // Serial execution routes through the same tagged begin/complete pairs,
    // so its attribution must be identical collective-for-collective.
    let serial = train(4, 8, 71, |b| b.grad_worker_frac(0.5).pipelined(false));
    for (rank, (s, p)) in serial.iter().zip(&results).enumerate() {
        for tag in [CommTag::Ddp, CommTag::FactorComm, CommTag::EigComm, CommTag::GradComm] {
            assert_eq!(
                s.3.tag_bytes(tag),
                p.3.tag_bytes(tag),
                "rank {rank}: {tag:?} bytes differ between executors"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_configs_stay_bitwise_identical(
        world in 1usize..5,
        frac in 0.2f64..1.0,
        steps in 3usize..8,
        seed in 100u64..200,
        fp16 in any::<bool>(),
        triangular in any::<bool>(),
        grad_accum in 1usize..3,
    ) {
        let precision = if fp16 { Precision::Fp16 } else { Precision::Fp32 };
        let run = |pipelined: bool| {
            train_accum(world, steps, seed, grad_accum, move |b| {
                b.grad_worker_frac(frac)
                    .precision(precision)
                    .triangular_comm(triangular)
                    .pipelined(pipelined)
            })
        };
        let (serial, pipelined) = (run(false), run(true));
        for (rank, (s, p)) in serial.iter().zip(&pipelined).enumerate() {
            prop_assert_eq!(bits(&s.0), bits(&p.0), "rank {} params", rank);
            prop_assert_eq!(bits(&s.1), bits(&p.1), "rank {} grads", rank);
            prop_assert_eq!(s.2, p.2, "rank {} comm bytes", rank);
        }
    }
}
