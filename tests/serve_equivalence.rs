//! Serve-layer equivalence gates.
//!
//! The headline invariant of the serve subsystem: **train D steps at world
//! W, checkpoint through the byte format, restore at world W′, finish
//! training — bitwise identical weights to a fresh run that resized
//! in-process at the same step**, per rank, across distribution strategies
//! and factor precisions.
//!
//! The reference leg below re-implements the two-segment run directly on
//! `ThreadComm` + `run_step` + in-memory `KfacCheckpoint` hand-off — no
//! byte serialization, no job manager, no rank pool. The serve leg routes
//! the same job through `JobManager`: admission, pool scheduling, byte
//! checkpointing, and restore. Any divergence in the encode/decode path,
//! the restored placement, or the scheduler's segment arithmetic breaks
//! the bitwise comparison.

use kaisa::comm::{Communicator, ThreadComm};
use kaisa::core::{DistStrategy, Kfac, KfacCheckpoint, KfacConfig};
use kaisa::data::{Dataset, GaussianBlobs, ShardSampler};
use kaisa::nn::{models::Mlp, Model};
use kaisa::optim::{LrSchedule, Optimizer, Sgd};
use kaisa::serve::{
    modeled_kfac_bytes, JobCheckpoint, JobManager, JobSpec, JobState, ResizePoint, ServeConfig,
    ServeEvent,
};
use kaisa::tensor::{Precision, Rng};
use kaisa::trainer::run_step;

const LAYERS: [usize; 3] = [8, 16, 4];
const SAMPLES: usize = 256;
const LOCAL_BATCH: usize = 8;
const LR: f32 = 0.2;
const MOMENTUM: f32 = 0.9;
const TOTAL_STEPS: u64 = 10;
const PAUSE_AT: u64 = 5;

fn kfac_config(strategy: DistStrategy, precision: Precision) -> KfacConfig {
    KfacConfig::builder()
        .strategy(strategy)
        .grad_worker_frac(0.5)
        .factor_update_freq(2)
        .inv_update_freq(4)
        .precision(precision)
        .build()
}

fn job_spec(kc: KfacConfig, w: usize, w_prime: usize) -> JobSpec {
    JobSpec {
        name: format!("resize-{w}-to-{w_prime}"),
        layer_sizes: LAYERS.to_vec(),
        dataset_samples: SAMPLES,
        dataset_noise: 0.3,
        data_seed: 1,
        model_seed: 3,
        sampler_seed: 0,
        local_batch: LOCAL_BATCH,
        grad_accum: 1,
        schedule: LrSchedule::Constant { lr: LR },
        momentum: MOMENTUM,
        kfac: Some(kc),
        world: w,
        total_steps: TOTAL_STEPS,
        resizes: vec![ResizePoint { at_step: PAUSE_AT, world: w_prime }],
    }
}

/// In-memory carry-over between reference segments: exactly what a
/// checkpoint captures, minus the byte encoding.
#[derive(Clone)]
struct SegmentState {
    params: Vec<f32>,
    velocity: Vec<f32>,
    kfac: Option<KfacCheckpoint>,
}

/// One reference segment: fresh world, optional in-memory restore, train
/// `[start, end)`, hand the state back. Asserts every rank derived
/// bitwise-identical state.
fn reference_segment(
    kc: &KfacConfig,
    world: usize,
    start: u64,
    end: u64,
    incoming: Option<&SegmentState>,
) -> SegmentState {
    let mut outs = ThreadComm::run(world, |comm| {
        let mut model = Mlp::new(&LAYERS, &mut Rng::seed_from_u64(3));
        let mut optimizer = Sgd::with_momentum(MOMENTUM);
        let data = GaussianBlobs::generate(SAMPLES, LAYERS[0], LAYERS[2], 0.3, 1);
        let mut kfac = match incoming {
            Some(state) => {
                model.set_params_flat(&state.params);
                optimizer.set_velocity(state.velocity.clone());
                state.kfac.as_ref().map(|k| Kfac::restore(kc.clone(), &mut model, comm, k))
            }
            None => Some(Kfac::new(kc.clone(), &mut model, comm)),
        };
        let sampler = ShardSampler::new(data.len(), world, comm.rank(), LOCAL_BATCH, 0);
        let per_epoch = sampler.batches_per_epoch();
        let mut cached_epoch = usize::MAX;
        let mut batches: Vec<Vec<usize>> = Vec::new();
        for step in start..end {
            let s = step as usize;
            if s / per_epoch != cached_epoch {
                cached_epoch = s / per_epoch;
                batches = sampler.epoch_batches(cached_epoch);
            }
            run_step(
                comm,
                &mut model,
                &mut optimizer as &mut dyn Optimizer,
                kfac.as_mut(),
                false,
                &data,
                &batches[s % per_epoch],
                LOCAL_BATCH,
                1,
                LR,
            );
        }
        SegmentState {
            params: model.params_flat(),
            velocity: optimizer.velocity().to_vec(),
            kfac: kfac.as_ref().map(|k| k.checkpoint_state(comm)),
        }
    });
    for (r, o) in outs.iter().enumerate().skip(1) {
        assert_eq!(o.params.len(), outs[0].params.len());
        for (i, (a, b)) in outs[0].params.iter().zip(&o.params).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "rank {r} param {i} diverged in reference");
        }
        assert_eq!(o.kfac, outs[0].kfac, "rank {r} K-FAC checkpoint diverged in reference");
    }
    outs.swap_remove(0)
}

/// The headline gate for one (strategy, precision, W, W′) cell.
fn assert_resize_equivalence(strategy: DistStrategy, precision: Precision, w: usize, w2: usize) {
    let kc = kfac_config(strategy, precision);

    // Reference: two in-process segments with an in-memory state hand-off.
    let mid = reference_segment(&kc, w, 0, PAUSE_AT, None);
    let reference = reference_segment(&kc, w2, PAUSE_AT, TOTAL_STEPS, Some(&mid));

    // Serve: the same job through admission, the rank pool, and bytes.
    let mgr = JobManager::new(ServeConfig::default());
    let id = mgr.run_to_completion(job_spec(kc, w, w2)).expect("job admitted");
    let status = mgr.status(id).expect("job exists");
    assert_eq!(status.state, JobState::Completed);
    assert_eq!(status.step, TOTAL_STEPS);
    let served = mgr.final_params(id).expect("final checkpoint present");

    assert_eq!(served.len(), reference.params.len());
    for (i, (s, r)) in served.iter().zip(&reference.params).enumerate() {
        assert_eq!(
            s.to_bits(),
            r.to_bits(),
            "{strategy}/{precision:?} {w}→{w2}: param {i} diverged (serve {s} vs reference {r})"
        );
    }
}

/// Grow and shrink pairs over W, W′ ∈ {1, 4, 8}.
const WORLD_PAIRS: [(usize, usize); 4] = [(1, 4), (4, 8), (8, 4), (4, 1)];

#[test]
fn comm_opt_resize_is_bitwise_transparent() {
    for precision in [Precision::Fp32, Precision::Fp16] {
        for (w, w2) in WORLD_PAIRS {
            assert_resize_equivalence(DistStrategy::CommOpt, precision, w, w2);
        }
    }
}

#[test]
fn mem_opt_resize_is_bitwise_transparent() {
    for precision in [Precision::Fp32, Precision::Fp16] {
        for (w, w2) in WORLD_PAIRS {
            assert_resize_equivalence(DistStrategy::MemOpt, precision, w, w2);
        }
    }
}

#[test]
fn hybrid_opt_resize_is_bitwise_transparent() {
    for precision in [Precision::Fp32, Precision::Fp16] {
        for (w, w2) in WORLD_PAIRS {
            assert_resize_equivalence(DistStrategy::HybridOpt, precision, w, w2);
        }
    }
}

#[test]
fn direct_inverse_triangular_resize_is_bitwise_transparent() {
    // The no-eigendecomposition fallback with triangular packing: the
    // direct inverses restore onto the new world's gradient workers.
    let kc = KfacConfig::builder()
        .strategy(DistStrategy::HybridOpt)
        .grad_worker_frac(0.5)
        .factor_update_freq(2)
        .inv_update_freq(4)
        .use_eigen(false)
        .triangular_comm(true)
        .build();
    let mid = reference_segment(&kc, 4, 0, PAUSE_AT, None);
    let reference = reference_segment(&kc, 8, PAUSE_AT, TOTAL_STEPS, Some(&mid));
    let mgr = JobManager::new(ServeConfig::default());
    let id = mgr.run_to_completion(job_spec(kc, 4, 8)).expect("admitted");
    let served = mgr.final_params(id).expect("final checkpoint");
    for (i, (s, r)) in served.iter().zip(&reference.params).enumerate() {
        assert_eq!(s.to_bits(), r.to_bits(), "direct-inverse param {i} diverged");
    }
}

#[test]
fn checkpoint_bytes_are_stable_across_save_load_save() {
    // Satellite gate: serialize → deserialize → serialize is the identity
    // on bytes for a checkpoint holding real factor and eigen state.
    let mgr = JobManager::new(ServeConfig::default());
    let mut spec = job_spec(kfac_config(DistStrategy::HybridOpt, Precision::Fp16), 4, 2);
    spec.name = "byte-stability".to_string();
    let id = mgr.run_to_completion(spec).expect("admitted");
    let bytes = mgr.checkpoint_bytes(id).expect("checkpoint present");
    let decoded = JobCheckpoint::from_bytes(&bytes).expect("valid checkpoint");
    let kfac = decoded.kfac.as_ref().expect("kfac state captured");
    assert!(
        kfac.layers.iter().any(|l| l.factor_a.is_some() && l.factor_g.is_some()),
        "checkpoint must carry factor running averages"
    );
    let re_encoded = decoded.to_bytes();
    assert_eq!(re_encoded, bytes, "save → load → save must be bytewise stable");
    // And a second decode round agrees too.
    assert_eq!(JobCheckpoint::from_bytes(&re_encoded).expect("valid"), decoded);
}

#[test]
fn admission_queues_over_budget_job_until_memory_frees() {
    // Satellite gate: a job whose modeled footprint does not fit alongside
    // the running job is provably queued, not run concurrently.
    let probe = job_spec(kfac_config(DistStrategy::CommOpt, Precision::Fp32), 4, 4);
    let one = modeled_kfac_bytes(&probe, 4);
    assert!(one > 0);
    let mgr = JobManager::new(ServeConfig {
        pool_ranks: 8,
        pool_budget_bytes: one + one / 2, // room for one job, not two
        ..ServeConfig::default()
    });
    let mut first = probe.clone();
    first.resizes.clear();
    first.name = "first".to_string();
    let mut second = first.clone();
    second.name = "second".to_string();
    let a = mgr.submit(first).expect("fits alone");
    let b = mgr.submit(second).expect("queues");
    mgr.drain();
    let events = mgr.events();
    let a_completed = events
        .iter()
        .position(|e| matches!(e, ServeEvent::Completed { job, .. } if *job == a))
        .expect("first job completed");
    let b_admitted = events
        .iter()
        .position(|e| matches!(e, ServeEvent::Admitted { job, .. } if *job == b))
        .expect("second job admitted");
    assert!(
        b_admitted > a_completed,
        "job B admitted (event {b_admitted}) before job A completed (event {a_completed})"
    );
    assert_eq!(mgr.status(b).expect("exists").state, JobState::Completed);
}
