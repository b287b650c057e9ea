//! Memory-gate test for shard-resident factor accumulation: the live
//! `MemoryMeter` (not the analytic model) must show the sharded path's peak
//! resident factor bytes at world 8 well below the dense path's on a mixed
//! conv/linear model. Run in CI as a dedicated step:
//!
//! ```sh
//! cargo test -q --locked --test memory_footprint
//! ```

use kaisa::comm::{Communicator, ThreadComm};
use kaisa::core::{Kfac, KfacConfig, MemoryCategory, MemoryMeter};
use kaisa::data::{Dataset, PatternImages, ShardSampler};
use kaisa::nn::models::{ResNetMini, ResNetMiniConfig};
use kaisa::nn::Model;
use kaisa::tensor::Rng;

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
fn run(frac: f64, sharded: bool) -> Vec<(MemoryMeter, Vec<(usize, usize)>, Vec<(usize, usize)>)> {
    run_model(model_cfg(), frac, sharded)
}

#[allow(clippy::type_complexity)]
fn run_model(
    mcfg: ResNetMiniConfig,
    frac: f64,
    sharded: bool,
) -> Vec<(MemoryMeter, Vec<(usize, usize)>, Vec<(usize, usize)>)> {
    let dataset = PatternImages::generate(128, 3, 12, 4, 0.3, 121);
    ThreadComm::run(WORLD, |comm| {
        let mut model = ResNetMini::new(mcfg, &mut Rng::seed_from_u64(30));
        let cfg = KfacConfig::builder()
            .grad_worker_frac(frac)
            .factor_update_freq(2)
            .inv_update_freq(4)
            .sharded_factors(sharded)
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
fn sharded_peak_factor_bytes_under_60pct_of_dense() {
    let dense = run(0.25, false);
    let sharded = run(0.25, true);
    let dense_peak = dense.iter().map(|r| r.0.peak(MemoryCategory::Factors)).max().unwrap();
    let sharded_peak = sharded.iter().map(|r| r.0.peak(MemoryCategory::Factors)).max().unwrap();
    assert!(dense_peak > 0);
    // The memory gate: even the heaviest rank (owned shard sections plus the
    // transient square materialized at decomposition time) stays at or below
    // 60% of the fully-replicated dense residency.
    assert!(
        sharded_peak * 100 <= dense_peak * 60,
        "sharded peak {sharded_peak} B exceeds 60% of dense peak {dense_peak} B \
         ({:.0}%)",
        100.0 * sharded_peak as f64 / dense_peak as f64
    );
}

#[test]
fn dense_peak_matches_analytic_replicated_bytes() {
    let dense = run(0.25, false);
    let (meter, _, dims) = &dense[0];
    // Every rank replicates every layer's square A and G at fp32.
    let expect: usize = dims.iter().map(|&(a, g)| (a * a + g * g) * 4).sum();
    for (rank, r) in dense.iter().enumerate() {
        assert_eq!(r.0.peak(MemoryCategory::Factors), expect, "rank {rank} dense factor residency");
    }
    assert_eq!(meter.current(MemoryCategory::Factors), expect);
}

#[test]
fn non_worker_ranks_hold_zero_factor_bytes() {
    // frac = 1/8 gives one eigendecomposition worker pair per layer; with
    // fewer K-FAC layers than ranks, some ranks own no shard at all.
    let sharded = run_model(small_model_cfg(), 1.0 / 8.0, true);
    let plan = &sharded[0].1;
    let mut owner = [false; WORLD];
    for &(a, g) in plan {
        owner[a] = true;
        owner[g] = true;
    }
    let non_workers: Vec<usize> = (0..WORLD).filter(|&r| !owner[r]).collect();
    assert!(
        !non_workers.is_empty(),
        "expected at least one rank owning no factor shard; plan {plan:?}"
    );
    for &r in &non_workers {
        assert_eq!(
            sharded[r].0.peak(MemoryCategory::Factors),
            0,
            "non-worker rank {r} should never allocate factor state"
        );
        assert_eq!(sharded[r].0.peak(MemoryCategory::Eigens), 0);
    }
    // Owner ranks do hold their sections.
    for r in 0..WORLD {
        if owner[r] {
            assert!(sharded[r].0.peak(MemoryCategory::Factors) > 0, "owner rank {r}");
        }
    }
}

#[test]
fn capture_scratch_is_metered_and_bounded() {
    // The bound is zero: a conv layer takes its `A` statistic from the patch
    // matrix its forward pass has just multiplied by, so no layer holds a
    // capture-side buffer between steps and a factor step meters none — on
    // a model with conv layers, on every rank, in either SYRK mode.
    let dense = run(0.25, false);
    for (rank, r) in dense.iter().enumerate() {
        assert_eq!(r.0.peak(MemoryCategory::CaptureScratch), 0, "rank {rank}");
        assert!(r.0.peak(MemoryCategory::Factors) > 0, "rank {rank}: the run took factor steps");
    }
}

#[test]
fn staging_and_precond_grads_are_metered() {
    let sharded = run(0.25, true);
    for (rank, r) in sharded.iter().enumerate() {
        // Every rank stages the full packed payload for the reduce-scatter.
        assert!(r.0.peak(MemoryCategory::PackedStaging) > 0, "rank {rank} staged nothing");
        // Preconditioned-gradient buffers appear transiently during scale.
        assert!(r.0.peak(MemoryCategory::PrecondGrads) > 0, "rank {rank}");
        assert_eq!(r.0.current(MemoryCategory::PrecondGrads), 0, "rank {rank}");
    }
}
