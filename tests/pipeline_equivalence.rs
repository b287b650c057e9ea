//! The pipelined executor's contract: splitting `Kfac::step` into per-layer
//! stage tasks with non-blocking collectives changes *when* work happens,
//! never *what* is computed. Serial and pipelined execution must be bitwise
//! identical — same preconditioned gradients, same trained weights, same
//! logical communication volume — across every distribution strategy, world
//! size, precision, and communication layout.

use kaisa::comm::{
    ClusterNetwork, CollectiveCostModel, CommTag, Communicator, MeterSnapshot, ThreadComm,
};
use kaisa::core::{
    plan_assignments, AssignmentStrategy, ComputeRates, Kfac, KfacConfig, KfacConfigBuilder,
    StepModel,
};
use kaisa::data::{Dataset, GaussianBlobs, ShardSampler};
use kaisa::nn::models::{Mlp, ResNetMini, ResNetMiniConfig};
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
        assert_eq!(
            meter.tag_bytes(CommTag::FactorReduce) + meter.tag_bytes(CommTag::FactorGather),
            0,
            "rank {rank}: dense path must not emit sharded-path tags"
        );
        let tagged: u64 = [
            CommTag::Ddp,
            CommTag::FactorComm,
            CommTag::FactorReduce,
            CommTag::FactorGather,
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

/// Assert two runs trained identically (params + preconditioned grads) on
/// every rank, *without* comparing logical comm bytes or meters — the
/// sharded path moves different bytes than the dense reference by design.
fn assert_numerics_equal(
    reference: &[(Vec<f32>, Vec<f32>, u64, MeterSnapshot)],
    candidate: &[(Vec<f32>, Vec<f32>, u64, MeterSnapshot)],
    ctx: &str,
) {
    assert_eq!(reference.len(), candidate.len());
    for (rank, (r, c)) in reference.iter().zip(candidate).enumerate() {
        assert_eq!(bits(&r.0), bits(&c.0), "{ctx}: rank {rank} params differ");
        assert_eq!(bits(&r.1), bits(&c.1), "{ctx}: rank {rank} grads differ");
    }
}

#[test]
fn sharded_factors_match_dense_bitwise_across_strategies_and_worlds() {
    // The tentpole contract: reduce-scatter + worker-group regather folds the
    // exact same averaged factors as the dense allreduce, so training is
    // bitwise identical across MEM-OPT / HYBRID-OPT / COMM-OPT.
    for world in [1usize, 2, 4, 8] {
        for frac in [1.0 / world as f64, 0.5, 1.0] {
            for pipelined in [false, true] {
                let dense = train(world, 10, 83, |b| {
                    b.grad_worker_frac(frac).pipelined(pipelined).sharded_factors(false)
                });
                let sharded = train(world, 10, 83, |b| {
                    b.grad_worker_frac(frac).pipelined(pipelined).sharded_factors(true)
                });
                let ctx = format!("world={world} frac={frac} pipelined={pipelined}");
                assert_numerics_equal(&dense, &sharded, &ctx);
            }
        }
    }
}

#[test]
fn sharded_factors_match_dense_with_fp16_and_triangular_comm() {
    // Elementwise quantization + section packing keep the sharded unpack
    // bitwise equal to the dense whole-payload unpack in every layout.
    for (precision, triangular) in
        [(Precision::Fp16, false), (Precision::Fp32, true), (Precision::Fp16, true)]
    {
        let mk = |sharded: bool| {
            train(4, 8, 89, move |b| {
                b.grad_worker_frac(0.5)
                    .precision(precision)
                    .triangular_comm(triangular)
                    .pipelined(true)
                    .sharded_factors(sharded)
            })
        };
        let ctx = format!("precision={precision:?} triangular={triangular}");
        assert_numerics_equal(&mk(false), &mk(true), &ctx);
    }
}

#[test]
fn sharded_serial_and_pipelined_are_bitwise_identical() {
    // Within the sharded path the two executors issue identical collectives,
    // so everything — including logical comm bytes — must match.
    for world in [2usize, 4] {
        let serial = train(world, 10, 97, |b| {
            b.grad_worker_frac(0.5).pipelined(false).sharded_factors(true)
        });
        let pipelined =
            train(world, 10, 97, |b| b.grad_worker_frac(0.5).pipelined(true).sharded_factors(true));
        assert_bitwise_equal(&serial, &pipelined, &format!("sharded world={world}"));
    }
}

#[test]
fn sharded_inverse_fallback_regathers_split_factors() {
    // With use_eigen(false) the direct-inverse solver consumes both factors
    // on one rank, so layers whose A/G shards landed on different workers
    // must regather — and the result still matches the dense fallback.
    let dense = train(4, 8, 101, |b| {
        b.grad_worker_frac(0.5).use_eigen(false).pipelined(true).sharded_factors(false)
    });
    let sharded = train(4, 8, 101, |b| {
        b.grad_worker_frac(0.5).use_eigen(false).pipelined(true).sharded_factors(true)
    });
    assert_numerics_equal(&dense, &sharded, "inverse fallback");
    let gather_bytes: u64 =
        sharded.iter().map(|(_, _, _, m)| m.tag_bytes(CommTag::FactorGather)).sum();
    assert!(gather_bytes > 0, "split-worker layers must regather under the inverse fallback");
    let eigen_path =
        train(4, 8, 101, |b| b.grad_worker_frac(0.5).pipelined(true).sharded_factors(true));
    let eigen_gather: u64 =
        eigen_path.iter().map(|(_, _, _, m)| m.tag_bytes(CommTag::FactorGather)).sum();
    assert_eq!(eigen_gather, 0, "the eigen path folds shards in place and never regathers");
}

#[test]
fn sharded_factors_cut_metered_factor_bytes_at_world_8() {
    // The acceptance bound: at world 8, per-rank metered factor traffic on
    // the sharded path must drop >= 40% vs the dense allreduce.
    let dense = train(8, 10, 103, |b| b.grad_worker_frac(0.5).pipelined(true));
    let sharded =
        train(8, 10, 103, |b| b.grad_worker_frac(0.5).pipelined(true).sharded_factors(true));
    for (rank, (d, s)) in dense.iter().zip(&sharded).enumerate() {
        let dense_factor = d.3.tag_bytes(CommTag::FactorComm);
        let sharded_factor =
            s.3.tag_bytes(CommTag::FactorReduce) + s.3.tag_bytes(CommTag::FactorGather);
        assert!(dense_factor > 0, "rank {rank}: dense factor traffic missing");
        assert!(
            (sharded_factor as f64) <= 0.6 * dense_factor as f64,
            "rank {rank}: sharded factor bytes {sharded_factor} not >=40% below dense {dense_factor}"
        );
        assert_eq!(
            s.3.tag_bytes(CommTag::FactorComm),
            0,
            "rank {rank}: sharded path must not fall back to the dense allreduce"
        );
    }
}

#[test]
fn cost_model_shows_overlap_win_on_comm_bound_resnet() {
    // The acceptance configuration: ResNetMini layer dims, world 8,
    // HYBRID-OPT, on a comm-bound 10GbE network. The list-scheduled pipeline
    // must beat the serial lock-step walk.
    let cfg = ResNetMiniConfig {
        in_channels: 3,
        width: 32,
        blocks_stage1: 2,
        blocks_stage2: 2,
        classes: 10,
    };
    let mut model = ResNetMini::new(cfg, &mut Rng::seed_from_u64(5));
    let dims: Vec<(usize, usize)> =
        model.kfac_layers().iter().map(|l| (l.a_dim(), l.g_dim())).collect();
    assert!(dims.len() >= 5, "ResNetMini should expose several K-FAC layers");
    let world = 8;
    let plan = plan_assignments(&dims, world, 0.5, AssignmentStrategy::ComputeLpt);
    let cost = CollectiveCostModel::new(ClusterNetwork::ethernet_10g());
    let m = StepModel::new(&dims, &plan, &cost, &ComputeRates::default(), 4, false);
    assert!(
        m.pipelined_seconds() < m.serial_seconds(),
        "comm-bound world=8 must overlap: pipelined {} vs serial {}",
        m.pipelined_seconds(),
        m.serial_seconds()
    );
    assert!(
        m.overlap_speedup() > 1.2,
        "speedup {} should be material on a comm-bound network",
        m.overlap_speedup()
    );
    // Sanity: the dependency-only critical path lower-bounds the schedule.
    assert!(m.graph().critical_path() <= m.pipelined_seconds() + 1e-15);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_configs_stay_bitwise_identical(
        world in 1usize..5,
        frac in 0.2f64..1.0,
        steps in 3usize..8,
        seed in 100u64..200,
        sharded in any::<bool>(),
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
                    .sharded_factors(sharded)
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
