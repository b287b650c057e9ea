//! The central correctness property of KAISA's design: MEM-OPT, HYBRID-OPT,
//! and COMM-OPT are *distribution* strategies, not different algorithms —
//! for the same model, data, and hyperparameters they must produce the same
//! preconditioned gradients and the same trained weights (paper Section 3.1:
//! "COMM-OPT and MEM-OPT are special cases of HYBRID-OPT").
//!
//! LOCAL-OPT (DP-KFAC) deliberately breaks that equivalence at world > 1 —
//! each owner folds only its own rank's statistics — so its contract is
//! different: zero factor-collective traffic, bitwise determinism across
//! ranks and executors, and exact agreement with the dense reference in the
//! degenerate single-rank world where "local" and "global" coincide.

use kaisa::comm::{CommTag, Communicator, MeterSnapshot, ThreadComm};
use kaisa::core::{DistStrategy, Kfac, KfacConfig, KfacConfigBuilder};
use kaisa::data::{Dataset, GaussianBlobs, ShardSampler};
use kaisa::nn::{models::Mlp, Model};
use kaisa::optim::{Optimizer, Sgd};
use kaisa::tensor::{Precision, Rng};

const WORLD: usize = 4;

/// Train for `steps` under the given fraction; return (final params, final
/// preconditioned grads, kfac memory, strategy name).
fn run_strategy(frac: f64) -> (Vec<f32>, Vec<f32>, usize, DistStrategy) {
    let dataset = GaussianBlobs::generate(256, 8, 4, 0.4, 17);
    let mut results = ThreadComm::run(WORLD, |comm| {
        let mut model = Mlp::new(&[8, 12, 4], &mut Rng::seed_from_u64(2));
        let mut opt = Sgd::with_momentum(0.9);
        let cfg = KfacConfig::builder()
            .grad_worker_frac(frac)
            .factor_update_freq(2)
            .inv_update_freq(4)
            .build();
        let mut kfac = Kfac::new(cfg, &mut model, comm);
        let sampler = ShardSampler::new(dataset.len(), WORLD, comm.rank(), 8, 5);

        let mut last_grads = Vec::new();
        for step in 0..12 {
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
        (model.params_flat(), last_grads, kfac.memory_bytes(), kfac.strategy())
    });
    let (params, grads, mem, strat) = results.swap_remove(0);
    (params, grads, mem, strat)
}

#[test]
fn all_strategies_produce_identical_training() {
    let (mem_params, mem_grads, mem_mem, s1) = run_strategy(1.0 / WORLD as f64);
    let (hyb_params, hyb_grads, hyb_mem, s2) = run_strategy(0.5);
    let (comm_params, comm_grads, comm_mem, s3) = run_strategy(1.0);

    assert_eq!(s1, DistStrategy::MemOpt);
    assert_eq!(s2, DistStrategy::HybridOpt);
    assert_eq!(s3, DistStrategy::CommOpt);

    // Identical preconditioned gradients at the last step.
    let max_g_mh = max_diff(&mem_grads, &hyb_grads);
    let max_g_hc = max_diff(&hyb_grads, &comm_grads);
    assert!(max_g_mh < 1e-5, "MEM vs HYBRID grads differ by {max_g_mh}");
    assert!(max_g_hc < 1e-5, "HYBRID vs COMM grads differ by {max_g_hc}");

    // Identical final weights.
    let max_p_mh = max_diff(&mem_params, &hyb_params);
    let max_p_hc = max_diff(&hyb_params, &comm_params);
    assert!(max_p_mh < 1e-4, "MEM vs HYBRID params differ by {max_p_mh}");
    assert!(max_p_hc < 1e-4, "HYBRID vs COMM params differ by {max_p_hc}");

    // The memory ordering the strategies exist for: more gradient workers on
    // a rank → more cached eigendecompositions.
    assert!(
        mem_mem <= hyb_mem && hyb_mem <= comm_mem,
        "memory must be monotone in frac: {mem_mem} / {hyb_mem} / {comm_mem}"
    );
    assert!(comm_mem > mem_mem, "COMM-OPT must cache strictly more than MEM-OPT");
}

#[test]
fn ranks_agree_within_every_strategy() {
    // All ranks must hold identical weights after training (the data-parallel
    // contract must survive the worker/receiver asymmetry).
    for frac in [0.25, 0.5, 1.0] {
        let dataset = GaussianBlobs::generate(128, 6, 3, 0.4, 23);
        let all_params = ThreadComm::run(WORLD, |comm| {
            let mut model = Mlp::new(&[6, 10, 3], &mut Rng::seed_from_u64(4));
            let mut opt = Sgd::new();
            let cfg = KfacConfig::builder()
                .grad_worker_frac(frac)
                .factor_update_freq(1)
                .inv_update_freq(2)
                .build();
            let mut kfac = Kfac::new(cfg, &mut model, comm);
            let sampler = ShardSampler::new(dataset.len(), WORLD, comm.rank(), 8, 9);
            for (step, indices) in sampler.epoch_batches(0).iter().enumerate() {
                let _ = step;
                let (x, y) = dataset.batch(indices);
                kfac.prepare(&mut model);
                model.zero_grad();
                let _ = model.forward_backward(&x, &y);
                kaisa::trainer::allreduce_gradients(&mut model, comm, 1);
                kfac.step(&mut model, comm, 0.05);
                opt.step_model(&mut model, 0.05);
            }
            model.params_flat()
        });
        for (rank, params) in all_params.iter().enumerate().skip(1) {
            let d = max_diff(&all_params[0], params);
            assert!(d < 1e-6, "frac {frac}: rank {rank} diverged from rank 0 by {d}");
        }
    }
}

#[test]
fn hybrid_comm_volume_between_extremes() {
    // Logical K-FAC bytes: MEM-OPT broadcasts every preconditioned gradient;
    // COMM-OPT broadcasts none (but ships eigendecompositions to everyone).
    // Gradient-broadcast volume must therefore fall as frac rises.
    let volume = |frac: f64| -> u64 {
        let dataset = GaussianBlobs::generate(128, 6, 3, 0.4, 29);
        let mut results = ThreadComm::run(WORLD, |comm| {
            let mut model = Mlp::new(&[6, 10, 3], &mut Rng::seed_from_u64(4));
            let cfg = KfacConfig::builder()
                .grad_worker_frac(frac)
                // Long intervals: after step 0, only per-step gradient
                // broadcasts contribute.
                .factor_update_freq(100)
                .inv_update_freq(100)
                .build();
            let mut kfac = Kfac::new(cfg, &mut model, comm);
            let sampler = ShardSampler::new(dataset.len(), WORLD, comm.rank(), 8, 9);
            // Step 0 performs the factor allreduce and eigendecomposition
            // broadcasts (whose volume legitimately differs by strategy);
            // measure only the steady-state per-step volume after it.
            let mut after_step0 = 0;
            for (step, indices) in sampler.epoch_batches(0).iter().enumerate() {
                let (x, y) = dataset.batch(indices);
                kfac.prepare(&mut model);
                model.zero_grad();
                let _ = model.forward_backward(&x, &y);
                kaisa::trainer::allreduce_gradients(&mut model, comm, 1);
                kfac.step(&mut model, comm, 0.05);
                if step == 0 {
                    after_step0 = kfac.comm_bytes();
                }
            }
            kfac.comm_bytes() - after_step0
        });
        results.swap_remove(0)
    };
    let v_mem = volume(1.0 / WORLD as f64);
    let v_hyb = volume(0.5);
    let v_comm = volume(1.0);
    assert!(
        v_mem > v_hyb && v_hyb > v_comm,
        "per-step gradient broadcast volume must fall with frac: {v_mem} / {v_hyb} / {v_comm}"
    );
}

fn max_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Train with an arbitrary config (and optional gradient accumulation) on
/// `world` ranks; return per rank the final params, last preconditioned
/// grads, and the rank's comm-meter snapshot.
fn train_cfg(
    world: usize,
    steps: usize,
    seed: u64,
    grad_accum: usize,
    build: impl Fn(KfacConfigBuilder) -> KfacConfigBuilder + Sync,
) -> Vec<(Vec<f32>, Vec<f32>, MeterSnapshot)> {
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
        comm.barrier();
        (model.params_flat(), last_grads, comm.meter_snapshot())
    })
}

#[test]
fn local_opt_world1_is_bitwise_identical_to_dense_serial() {
    // At world 1 a rank's "local" statistics ARE the global statistics, so
    // DP-KFAC must coincide bit-for-bit with the dense serial reference —
    // the owner-side fold replays the same pack/unpack quantization the
    // dense allreduce applies, in every precision and payload layout.
    for (precision, triangular) in
        [(Precision::Fp32, false), (Precision::Fp16, false), (Precision::Fp16, true)]
    {
        let dense = train_cfg(1, 10, 131, 1, |b| {
            b.grad_worker_frac(1.0).precision(precision).triangular_comm(triangular)
        });
        let local = train_cfg(1, 10, 131, 1, |b| {
            b.strategy(DistStrategy::LocalOpt).precision(precision).triangular_comm(triangular)
        });
        let ctx = format!("world=1 precision={precision:?} triangular={triangular}");
        assert_eq!(bits(&dense[0].0), bits(&local[0].0), "{ctx}: params differ");
        assert_eq!(bits(&dense[0].1), bits(&local[0].1), "{ctx}: grads differ");
    }
}

#[test]
fn local_opt_is_deterministic_across_executors_ranks_and_worlds() {
    // The fourth strategy through both executors: serial and pipelined
    // must train bit-identically at every world, and all ranks must hold the
    // same weights — DP-KFAC changes *whose* statistics feed the
    // preconditioner, not the data-parallel contract.
    for world in [1usize, 2, 4] {
        let serial =
            train_cfg(world, 10, 137, 1, |b| b.strategy(DistStrategy::LocalOpt).pipelined(false));
        let pipelined =
            train_cfg(world, 10, 137, 1, |b| b.strategy(DistStrategy::LocalOpt).pipelined(true));
        for (rank, (s, p)) in serial.iter().zip(&pipelined).enumerate() {
            assert_eq!(bits(&s.0), bits(&p.0), "world={world}: rank {rank} params differ");
            assert_eq!(bits(&s.1), bits(&p.1), "world={world}: rank {rank} grads differ");
        }
        // Ranks agree bit-for-bit within the strategy.
        for (rank, r) in serial.iter().enumerate().skip(1) {
            assert_eq!(
                bits(&serial[0].0),
                bits(&r.0),
                "world={world}: rank {rank} diverged from rank 0"
            );
        }
    }
}

#[test]
fn local_opt_survives_fp16_and_grad_accum() {
    // The layouts that most reshape the owner-side fold: half-precision
    // triangular payloads and accumulated micro-batch statistics. The
    // pipelined executor must still match serial.
    for (precision, triangular, grad_accum) in
        [(Precision::Fp16, true, 1), (Precision::Fp16, false, 2), (Precision::Fp32, true, 2)]
    {
        let serial = train_cfg(4, 8, 139, grad_accum, move |b| {
            b.strategy(DistStrategy::LocalOpt)
                .precision(precision)
                .triangular_comm(triangular)
                .pipelined(false)
        });
        let pipelined = train_cfg(4, 8, 139, grad_accum, move |b| {
            b.strategy(DistStrategy::LocalOpt)
                .precision(precision)
                .triangular_comm(triangular)
                .pipelined(true)
        });
        let ctx =
            format!("precision={precision:?} triangular={triangular} grad_accum={grad_accum}");
        for (rank, (s, p)) in serial.iter().zip(&pipelined).enumerate() {
            assert_eq!(bits(&s.0), bits(&p.0), "{ctx}: rank {rank} params differ");
            assert_eq!(bits(&s.1), bits(&p.1), "{ctx}: rank {rank} grads differ");
        }
    }
}

#[test]
fn local_opt_moves_zero_factor_collective_bytes_at_world_8() {
    // The acceptance gate: DP-KFAC's whole point is deleting the factor
    // collective. At world 8, every rank's meter must show exactly zero
    // factor-allreduce bytes in both executors, while the rest of the step
    // (gradient broadcast, DDP) still flows.
    type Exec = (&'static str, fn(KfacConfigBuilder) -> KfacConfigBuilder);
    let execs: [Exec; 2] =
        [("serial", |b| b.pipelined(false)), ("pipelined", |b| b.pipelined(true))];
    for (name, exec) in execs {
        let results = train_cfg(8, 10, 149, 1, |b| exec(b.strategy(DistStrategy::LocalOpt)));
        for (rank, (_, _, meter)) in results.iter().enumerate() {
            assert_eq!(
                meter.tag_bytes(CommTag::FactorComm),
                0,
                "{name} rank {rank}: LOCAL-OPT must not run the dense factor allreduce"
            );
            // One owner per layer means no eigendecomposition sharing —
            // like MEM-OPT, the owner preconditions in place and only the
            // result is broadcast.
            assert_eq!(
                meter.tag_bytes(CommTag::EigComm),
                0,
                "{name} rank {rank}: single-owner layers have no eig broadcast"
            );
            assert!(
                meter.tag_bytes(CommTag::GradComm) > 0,
                "{name} rank {rank}: preconditioned-gradient broadcast should still flow"
            );
            assert!(meter.tag_bytes(CommTag::Ddp) > 0, "{name} rank {rank}: DDP missing");
        }
    }
}
