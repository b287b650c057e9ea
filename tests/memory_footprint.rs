//! The live `MemoryMeter` (not the analytic model) at world 8 on a mixed
//! conv/linear model: every rank replicates every factor, under MEM-OPT a
//! rank that works on no layer caches no decomposition, and preconditioned
//! gradients are metered.

use kaisa::comm::{Communicator, ThreadComm};
use kaisa::core::{Kfac, KfacConfig, MemoryCategory, MemoryMeter};
use kaisa::data::{Dataset, PatternImages, ShardSampler};
use kaisa::nn::models::{ResNetMini, ResNetMiniConfig};
use kaisa::nn::Model;
use kaisa::tensor::{packed_len, Rng};

const WORLD: usize = 8;

/// Mixed conv/linear model: two residual stages of 3x3 convolutions plus a
/// linear classifier head, so factor dims span both shapes.
fn model_cfg() -> ResNetMiniConfig {
    ResNetMiniConfig { in_channels: 3, width: 6, blocks_stage1: 2, blocks_stage2: 2, classes: 4 }
}

/// Shallower variant with fewer K-FAC layers than ranks, so single-worker
/// placement leaves some ranks owning nothing.
fn small_model_cfg() -> ResNetMiniConfig {
    ResNetMiniConfig { in_channels: 3, width: 6, blocks_stage1: 1, blocks_stage2: 1, classes: 4 }
}

/// Train a few steps on `WORLD` thread ranks; returns each rank's memory
/// meter plus the per-layer `(a_worker, g_worker)` plan and factor dims.
#[allow(clippy::type_complexity)]
fn run(frac: f64) -> Vec<(MemoryMeter, Vec<(usize, usize)>, Vec<(usize, usize)>)> {
    run_model(model_cfg(), frac)
}

#[allow(clippy::type_complexity)]
fn run_model(
    mcfg: ResNetMiniConfig,
    frac: f64,
) -> Vec<(MemoryMeter, Vec<(usize, usize)>, Vec<(usize, usize)>)> {
    let dataset = PatternImages::generate(128, 3, 12, 4, 0.3, 121);
    ThreadComm::run(WORLD, |comm| {
        let mut model = ResNetMini::new(mcfg, &mut Rng::seed_from_u64(30));
        let cfg = KfacConfig::builder()
            .grad_worker_frac(frac)
            .factor_update_freq(2)
            .inv_update_freq(4)
            .build();
        let mut kfac = Kfac::new(cfg, &mut model, comm);
        let sampler = ShardSampler::new(dataset.len(), WORLD, comm.rank(), 4, 2);
        for indices in sampler.epoch_batches(0) {
            let (x, y) = dataset.batch(&indices);
            kfac.prepare(&mut model);
            model.zero_grad();
            let _ = model.forward_backward(&x, &y);
            kaisa::trainer::allreduce_gradients(&mut model, comm, 1);
            kfac.step(&mut model, comm, 0.05);
        }
        let plan = kfac.plan().layers.iter().map(|l| (l.a_worker, l.g_worker)).collect();
        let dims = model.kfac_layers().iter().map(|l| (l.a_dim(), l.g_dim())).collect();
        (kfac.memory_meter().clone(), plan, dims)
    })
}

#[test]
fn dense_peak_matches_analytic_replicated_bytes() {
    let dense = run(0.25);
    let (meter, _, dims) = &dense[0];
    // Every rank replicates every layer's A and G at fp32, each held as
    // its packed lower triangle.
    let expect: usize = dims.iter().map(|&(a, g)| (packed_len(a) + packed_len(g)) * 4).sum();
    for (rank, r) in dense.iter().enumerate() {
        assert_eq!(r.0.peak(MemoryCategory::Factors), expect, "rank {rank} dense factor residency");
    }
    assert_eq!(meter.current(MemoryCategory::Factors), expect);
}

#[test]
fn non_worker_ranks_hold_zero_factor_bytes() {
    // MEM-OPT gives each layer one gradient worker, which alone caches its
    // decompositions; with fewer K-FAC layers than ranks, some ranks work
    // on no layer and never hold an eigen byte.
    let mem_opt = run_model(small_model_cfg(), 1.0 / WORLD as f64);
    let plan = &mem_opt[0].1;
    let mut worker = [false; WORLD];
    for &(a, g) in plan {
        worker[a] = true;
        worker[g] = true;
    }
    let non_workers: Vec<usize> = (0..WORLD).filter(|&r| !worker[r]).collect();
    assert!(
        !non_workers.is_empty(),
        "expected at least one rank working on no layer; plan {plan:?}"
    );
    for &r in &non_workers {
        assert_eq!(
            mem_opt[r].0.peak(MemoryCategory::Eigens),
            0,
            "non-worker rank {r} should never cache a decomposition"
        );
    }
}

#[test]
fn precond_grads_are_metered() {
    let dense = run(0.25);
    for (rank, r) in dense.iter().enumerate() {
        assert!(r.0.peak(MemoryCategory::Factors) > 0, "rank {rank}: the run took factor steps");
        // Preconditioned-gradient buffers appear transiently during scale.
        assert!(r.0.peak(MemoryCategory::PrecondGrads) > 0, "rank {rank}");
        assert_eq!(r.0.current(MemoryCategory::PrecondGrads), 0, "rank {rank}");
    }
}
