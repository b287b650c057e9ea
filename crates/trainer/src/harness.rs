//! The distributed training loop.

use std::time::Instant;

use kaisa_comm::{Communicator, ThreadComm};
use kaisa_core::{Kfac, KfacConfig};
use kaisa_data::{Dataset, ShardSampler};
use kaisa_nn::Model;
use kaisa_optim::{LrSchedule, Optimizer};

use crate::ddp::allreduce_gradients;
use crate::metrics::{EpochRecord, TrainResult};

/// Configuration of a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Per-rank batch size (global batch = `world * local_batch *
    /// grad_accum`).
    pub local_batch: usize,
    /// Gradient-accumulation micro-steps per optimizer step (the BERT
    /// mechanism of Section 4.2).
    pub grad_accum: usize,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// K-FAC preconditioning; `None` trains with the first-order optimizer
    /// alone (the paper's baselines).
    pub kfac: Option<KfacConfig>,
    /// Stop when the validation metric first reaches this value.
    pub target_metric: Option<f32>,
    /// Stop training once the target is reached (vs. recording and
    /// continuing, which is what the paper's curves do).
    pub stop_at_target: bool,
    /// Shard-sampler seed.
    pub seed: u64,
    /// Evaluation batch size.
    pub eval_batch: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            local_batch: 16,
            grad_accum: 1,
            schedule: LrSchedule::Constant { lr: 0.1 },
            kfac: None,
            target_metric: None,
            stop_at_target: false,
            seed: 0,
            eval_batch: 64,
        }
    }
}

/// Evaluate `model` over the whole validation set in `eval_batch` chunks.
fn evaluate_full<M, D>(model: &mut M, val: &D, eval_batch: usize) -> (f32, f32)
where
    M: Model,
    D: Dataset<Input = M::Input, Target = M::Target> + ?Sized,
{
    let mut loss = 0.0f64;
    let mut metric = 0.0f64;
    let mut batches = 0usize;
    let n = val.len();
    let mut start = 0usize;
    while start < n {
        let end = (start + eval_batch).min(n);
        let indices: Vec<usize> = (start..end).collect();
        let (x, y) = val.batch(&indices);
        let r = model.evaluate(&x, &y);
        loss += r.loss as f64;
        metric += r.metric as f64;
        batches += 1;
        start = end;
    }
    if batches == 0 {
        (f32::NAN, f32::NAN)
    } else {
        ((loss / batches as f64) as f32, (metric / batches as f64) as f32)
    }
}

/// Per-step training statistics returned by [`run_step`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepStats {
    /// Sum of micro-batch losses this step.
    pub loss_sum: f64,
    /// Sum of micro-batch metrics this step.
    pub metric_sum: f64,
    /// Micro-batches executed (== `ceil(indices / local_batch)`).
    pub micro_batches: usize,
}

/// Drive exactly one synchronous optimizer step: K-FAC capture arming,
/// micro-batch forward/backward accumulation, the DDP gradient allreduce,
/// K-FAC preconditioning, and the first-order update.
///
/// This is the loop body of [`train_rank`], exposed so external drivers
/// (the serve layer's job manager) can advance a job step-at-a-time —
/// pausing, checkpointing, and resuming — while executing the *identical*
/// code path as an uninterrupted run. `kfac_async` must be `false`: the
/// lookahead split it selected is gone, and the argument stays only so
/// existing callers keep compiling.
// A step genuinely has this many independent inputs; bundling them into a
// struct would only move the argument list behind a constructor.
#[allow(clippy::too_many_arguments)]
pub fn run_step<M, D>(
    comm: &dyn Communicator,
    model: &mut M,
    optimizer: &mut dyn Optimizer,
    kfac: Option<&mut Kfac>,
    kfac_async: bool,
    train_set: &D,
    indices: &[usize],
    local_batch: usize,
    grad_accum: usize,
    lr: f32,
) -> StepStats
where
    M: Model,
    D: Dataset<Input = M::Input, Target = M::Target> + ?Sized,
{
    assert!(!kfac_async, "run_step: the kfac_async lookahead split was removed; pass false");
    if let Some(kfac) = kfac.as_deref() {
        kfac.prepare(model);
    } else {
        model.set_kfac_capture(false);
    }
    model.zero_grad();

    // Gradient accumulation: split the step's indices into micro-batches;
    // gradients (and K-FAC statistics) accumulate.
    let mut stats = StepStats::default();
    for micro in indices.chunks(local_batch) {
        let (x, y) = train_set.batch(micro);
        let r = model.forward_backward(&x, &y);
        stats.loss_sum += r.loss as f64;
        stats.metric_sum += r.metric as f64;
        stats.micro_batches += 1;
    }

    allreduce_gradients(model, comm, grad_accum);
    if let Some(kfac) = kfac {
        kfac.step(model, comm, lr);
    }
    optimizer.step_model_dyn(model, lr);
    stats
}

/// Run the training loop for one rank. All ranks must construct identical
/// models (same seed) — the data-parallel contract.
pub fn train_rank<M, D>(
    comm: &dyn Communicator,
    mut model: M,
    optimizer: &mut dyn Optimizer,
    train_set: &D,
    val_set: &D,
    cfg: &TrainConfig,
) -> TrainResult
where
    M: Model,
    D: Dataset<Input = M::Input, Target = M::Target> + ?Sized,
{
    let world = comm.world_size();
    let rank = comm.rank();
    let sampler =
        ShardSampler::new(train_set.len(), world, rank, cfg.local_batch * cfg.grad_accum, cfg.seed);
    let mut kfac = cfg.kfac.clone().map(|kc| Kfac::new(kc, &mut model, comm));

    let mut result = TrainResult::default();
    let start = Instant::now();
    let mut iterations = 0usize;
    let mut done = false;

    for epoch in 0..cfg.epochs {
        if done {
            break;
        }
        let mut epoch_loss = 0.0f64;
        let mut epoch_metric = 0.0f64;
        let mut epoch_batches = 0usize;

        for indices in sampler.epoch_batches(epoch) {
            let lr = cfg.schedule.lr_at(iterations);
            let stats = run_step(
                comm,
                &mut model,
                optimizer,
                kfac.as_mut(),
                false,
                train_set,
                &indices,
                cfg.local_batch,
                cfg.grad_accum,
                lr,
            );
            epoch_loss += stats.loss_sum;
            epoch_metric += stats.metric_sum;
            epoch_batches += stats.micro_batches;
            iterations += 1;
        }

        let (val_loss, val_metric) = evaluate_full(&mut model, val_set, cfg.eval_batch);
        let cumulative_seconds = start.elapsed().as_secs_f64();
        result.epochs.push(EpochRecord {
            epoch,
            train_loss: (epoch_loss / epoch_batches.max(1) as f64) as f32,
            train_metric: (epoch_metric / epoch_batches.max(1) as f64) as f32,
            val_loss,
            val_metric,
            cumulative_seconds,
            iterations,
        });

        if let Some(target) = cfg.target_metric {
            if result.converged.is_none() && val_metric >= target {
                result.converged = Some((epoch, cumulative_seconds));
                if cfg.stop_at_target {
                    done = true;
                }
            }
        }
    }

    result.total_seconds = start.elapsed().as_secs_f64();
    result.iterations = iterations;
    result.avg_iteration_seconds =
        if iterations > 0 { result.total_seconds / iterations as f64 } else { 0.0 };
    if let Some(kfac) = &kfac {
        result.kfac_memory_bytes = kfac.memory_bytes();
        result.kfac_memory = Some(kfac.memory_meter().clone());
        result.kfac_comm_bytes = kfac.comm_bytes();
        result.stage_times = Some(kfac.stage_times().clone());
    }
    result
}

/// Spawn `world` rank threads and train; returns rank 0's result.
///
/// `make_model` and `make_optimizer` run once per rank and must be
/// deterministic (same model weights on every rank).
pub fn train_distributed<M, D, FM, FO, O>(
    world: usize,
    make_model: FM,
    make_optimizer: FO,
    train_set: &D,
    val_set: &D,
    cfg: &TrainConfig,
) -> TrainResult
where
    M: Model,
    D: Dataset<Input = M::Input, Target = M::Target> + Sync,
    FM: Fn() -> M + Sync,
    FO: Fn() -> O + Sync,
    O: Optimizer,
{
    let mut results = ThreadComm::run(world, |comm| {
        let model = make_model();
        let mut optimizer = make_optimizer();
        train_rank(comm, model, &mut optimizer, train_set, val_set, cfg)
    });
    results.swap_remove(0)
}

/// Object-safe optimizer step used inside the loop (the `Optimizer` trait's
/// generic convenience method cannot be called through `&mut dyn`).
trait OptimizerDyn {
    fn step_model_dyn<M: Model>(&mut self, model: &mut M, lr: f32);
}

impl OptimizerDyn for dyn Optimizer + '_ {
    fn step_model_dyn<M: Model>(&mut self, model: &mut M, lr: f32) {
        let segments = model.param_segments();
        let mut params = model.params_flat();
        let grads = model.grads_flat();
        self.step(&mut params, &grads, &segments, lr);
        model.set_params_flat(&params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaisa_data::GaussianBlobs;
    use kaisa_nn::models::Mlp;
    use kaisa_optim::Sgd;
    use kaisa_tensor::Rng;

    fn blobs() -> (GaussianBlobs, GaussianBlobs) {
        // Single generation split train/val so both share class centers.
        GaussianBlobs::generate(320, 8, 4, 0.3, 1).split(64)
    }

    #[test]
    fn single_rank_sgd_converges() {
        let (train, val) = blobs();
        let cfg = TrainConfig {
            epochs: 12,
            local_batch: 32,
            schedule: LrSchedule::Constant { lr: 0.3 },
            target_metric: Some(0.95),
            ..Default::default()
        };
        let result = train_distributed(
            1,
            || Mlp::new(&[8, 16, 4], &mut Rng::seed_from_u64(3)),
            Sgd::new,
            &train,
            &val,
            &cfg,
        );
        assert!(result.best_metric() > 0.95, "val acc {}", result.best_metric());
        assert!(result.converged.is_some());
        assert_eq!(result.epochs.len(), 12);
    }

    #[test]
    fn multi_rank_matches_single_rank_with_same_global_batch() {
        // 1 rank x batch 32 must equal 4 ranks x batch 8 (same global batch,
        // same seed): the defining property of synchronous data parallelism.
        let (train, val) = blobs();
        let base = TrainConfig {
            epochs: 3,
            schedule: LrSchedule::Constant { lr: 0.2 },
            ..Default::default()
        };
        let single = train_distributed(
            1,
            || Mlp::new(&[8, 16, 4], &mut Rng::seed_from_u64(3)),
            Sgd::new,
            &train,
            &val,
            &TrainConfig { local_batch: 32, ..base.clone() },
        );
        let multi = train_distributed(
            4,
            || Mlp::new(&[8, 16, 4], &mut Rng::seed_from_u64(3)),
            Sgd::new,
            &train,
            &val,
            &TrainConfig { local_batch: 8, ..base },
        );
        // Same number of optimizer steps.
        assert_eq!(single.iterations, multi.iterations);
        // Note: shards differ (different per-rank data order), so losses are
        // close but not identical; both must converge similarly.
        let d = (single.final_loss() - multi.final_loss()).abs();
        assert!(d < 0.25, "single {} vs multi {}", single.final_loss(), multi.final_loss());
    }

    #[test]
    fn kfac_enabled_training_runs_distributed() {
        let (train, val) = blobs();
        let cfg = TrainConfig {
            epochs: 4,
            local_batch: 16,
            schedule: LrSchedule::Constant { lr: 0.2 },
            kfac: Some(
                KfacConfig::builder()
                    .grad_worker_frac(0.5)
                    .factor_update_freq(2)
                    .inv_update_freq(4)
                    .build(),
            ),
            ..Default::default()
        };
        let result = train_distributed(
            4,
            || Mlp::new(&[8, 16, 4], &mut Rng::seed_from_u64(3)),
            Sgd::new,
            &train,
            &val,
            &cfg,
        );
        assert!(result.kfac_memory_bytes > 0);
        assert!(result.stage_times.is_some());
        assert!(result.best_metric() > 0.5, "metric {}", result.best_metric());
    }

    #[test]
    fn grad_accum_preserves_convergence() {
        let (train, val) = blobs();
        let cfg = TrainConfig {
            epochs: 6,
            local_batch: 8,
            grad_accum: 4,
            schedule: LrSchedule::Constant { lr: 0.3 },
            ..Default::default()
        };
        let result = train_distributed(
            1,
            || Mlp::new(&[8, 16, 4], &mut Rng::seed_from_u64(3)),
            Sgd::new,
            &train,
            &val,
            &cfg,
        );
        assert!(result.best_metric() > 0.9, "metric {}", result.best_metric());
        // 256 samples / (8*4 per step) = 8 steps per epoch.
        assert_eq!(result.iterations, 6 * 8);
    }

    #[test]
    fn stop_at_target_halts_early() {
        let (train, val) = blobs();
        let cfg = TrainConfig {
            epochs: 50,
            local_batch: 32,
            schedule: LrSchedule::Constant { lr: 0.3 },
            target_metric: Some(0.9),
            stop_at_target: true,
            ..Default::default()
        };
        let result = train_distributed(
            1,
            || Mlp::new(&[8, 16, 4], &mut Rng::seed_from_u64(3)),
            Sgd::new,
            &train,
            &val,
            &cfg,
        );
        assert!(result.converged.is_some());
        assert!(result.epochs.len() < 50, "should stop early");
    }
}
