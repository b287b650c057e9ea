//! The lock-free ring engine is a drop-in replacement for the mutex
//! mailboxes: for every distribution strategy and both executors, training
//! on `ThreadCommBackend::Ring` must be *bitwise* identical to training on
//! `ThreadCommBackend::Mutex`, and the comm meters must record exactly the
//! same traffic. Collectives reduce in ascending
//! rank order in both engines, so there is no tolerance anywhere — any
//! drift is a reordering bug in the ring protocol.

use kaisa::comm::{
    CommOptions, CommTag, Communicator, MeterSnapshot, ThreadComm, ThreadCommBackend,
};
use kaisa::core::{DistStrategy, Kfac, KfacConfig, KfacConfigBuilder};
use kaisa::data::{Dataset, GaussianBlobs, ShardSampler};
use kaisa::nn::{models::Mlp, Model};
use kaisa::optim::{Optimizer, Sgd};
use kaisa::tensor::{Precision, Rng};

/// Train on `world` ranks with the given backend; return per rank the final
/// params, last preconditioned grads, and the rank's comm-meter snapshot.
fn train_on_backend(
    world: usize,
    steps: usize,
    seed: u64,
    backend: ThreadCommBackend,
    build: impl Fn(KfacConfigBuilder) -> KfacConfigBuilder + Sync,
) -> Vec<(Vec<f32>, Vec<f32>, MeterSnapshot)> {
    let dataset = GaussianBlobs::generate(128, 8, 4, 0.4, seed);
    let opts = CommOptions { backend, ..CommOptions::default() };
    ThreadComm::run_with(world, opts, |comm| {
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
            let (x, y) = dataset.batch(indices);
            kfac.prepare(&mut model);
            model.zero_grad();
            let _ = model.forward_backward(&x, &y);
            kaisa::trainer::allreduce_gradients(&mut model, comm, 1);
            kfac.step(&mut model, comm, 0.1);
            last_grads = model.grads_flat();
            opt.step_model(&mut model, 0.1);
        }
        comm.barrier();
        (model.params_flat(), last_grads, comm.meter_snapshot())
    })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Run the same config on both backends and demand bitwise + meter parity
/// on every rank.
fn assert_backends_equivalent(
    world: usize,
    steps: usize,
    seed: u64,
    ctx: &str,
    build: impl Fn(KfacConfigBuilder) -> KfacConfigBuilder + Sync + Copy,
) {
    let ring = train_on_backend(world, steps, seed, ThreadCommBackend::Ring, build);
    let mutex = train_on_backend(world, steps, seed, ThreadCommBackend::Mutex, build);
    for (rank, (r, m)) in ring.iter().zip(&mutex).enumerate() {
        assert_eq!(bits(&r.0), bits(&m.0), "{ctx}: rank {rank} params differ across backends");
        assert_eq!(bits(&r.1), bits(&m.1), "{ctx}: rank {rank} grads differ across backends");
        assert_eq!(r.2, m.2, "{ctx}: rank {rank} meter snapshots differ across backends");
    }
    // Sanity: the runs actually communicated (a silently dead meter would
    // make the equality above vacuous). World 1 self-loops meter nothing.
    if world > 1 {
        assert!(ring[0].2.tag_bytes(CommTag::Ddp) > 0, "{ctx}: no DDP traffic metered");
    }
}

#[test]
fn ring_matches_mutex_across_strategies() {
    // The strategy axis: MEM-OPT, HYBRID-OPT, COMM-OPT (different
    // broadcast/allreduce mixes) and LOCAL-OPT (no factor collectives at
    // all) — each must see identical bytes and bits on both engines.
    let world = 4;
    for (name, frac, strategy) in [
        ("mem-opt", 0.25, None),
        ("hybrid-opt", 0.5, None),
        ("comm-opt", 1.0, None),
        ("local-opt", 1.0, Some(DistStrategy::LocalOpt)),
    ] {
        assert_backends_equivalent(world, 10, 211, name, move |b| {
            let b = b.grad_worker_frac(frac);
            match strategy {
                Some(s) => b.strategy(s).sharded_factors(false),
                None => b,
            }
        });
    }
}

#[test]
fn ring_matches_mutex_across_executors() {
    // The executor axis: serial and pipelined. The pipelined sweeps keep a
    // phase's collectives in flight between begin and complete, which is
    // exactly where a mis-sequenced ring would first diverge.
    let world = 4;
    assert_backends_equivalent(world, 10, 223, "serial", |b| b.pipelined(false));
    assert_backends_equivalent(world, 10, 223, "pipelined", |b| b.pipelined(true));
}

#[test]
fn ring_matches_mutex_on_payload_layouts() {
    // The payload axis: fp16 packing, triangular factor payloads, and
    // sharded factors reshape the byte streams the collectives carry;
    // reduce-scatter sharding in particular exercises the ring's
    // ship-full-result / slice-locally protocol.
    for (name, precision, triangular, sharded) in [
        ("fp16", Precision::Fp16, false, false),
        ("fp16-triangular", Precision::Fp16, true, false),
        ("sharded-factors", Precision::Fp32, false, true),
        ("fp16-sharded", Precision::Fp16, true, true),
    ] {
        assert_backends_equivalent(4, 8, 227, name, move |b| {
            b.grad_worker_frac(0.5)
                .precision(precision)
                .triangular_comm(triangular)
                .sharded_factors(sharded)
        });
    }
}

#[test]
fn ring_matches_mutex_at_odd_worlds() {
    // Worlds that don't divide payloads evenly force ragged reduce-scatter
    // ranges and uneven leader fan-outs; world 1 degenerates every
    // collective to a self-loop.
    for world in [1usize, 3, 5, 8] {
        assert_backends_equivalent(world, 6, 229, &format!("world={world}"), |b| {
            b.grad_worker_frac(0.5)
        });
    }
}
