//! The four workloads. Each uses `KfacConfig::builder()` defaults plus only
//! the paper's knobs, so a change of what a default resolves to moves the
//! measured number instead of breaking the build.

use kaisa_core::KfacConfig;
use kaisa_data::{GaussianBlobs, MaskedTokenTask, PatternImages, SequenceRules};
use kaisa_nn::models::{BertMini, BertMiniConfig, Mlp, ResNetMini, ResNetMiniConfig};
use kaisa_optim::{Lamb, Sgd};
use kaisa_tensor::{Precision, Rng};

use crate::metrics::{Mode, Outcome};
use crate::serve;
use crate::trace::Span;
use crate::train::{self, TrainSpec};

/// A named workload: why it exists, and how to run either half of it.
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// `(mode, seed, seconds, rounds)` to the outcome and, when traced, the
    /// spans of the first steps.
    pub run: fn(Mode, u64, f64, usize) -> (Outcome, Vec<Span>),
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "resnet_comm_opt",
        why: "Conv path, COMM-OPT: fwd/bwd, im2col + Gram capture and 576-dim eigensolves do the work, \
              comm almost none; kernel and eigensolver changes show here, comm/executor changes should not",
        run: |mode, seed, seconds, rounds| run_training(&resnet_comm_opt(), mode, seed, seconds, rounds),
    },
    Workload {
        name: "bert_mem_opt_accum",
        why: "Attention path, MEM-OPT with grad accumulation, fp16 + triangular factor traffic, gradient \
              broadcast and LAMB: small factors, so precondition + optimizer + 4x fwd/bwd carry the step",
        run: |mode, seed, seconds, rounds| run_training(&bert_mem_opt_accum(), mode, seed, seconds, rounds),
    },
    Workload {
        name: "mlp_wide_mem_opt",
        why: "Wide MLP, MEM-OPT, factors every step and no eigensolve: precondition GEMMs, factor and \
              gradient collectives and waiting dominate, nn is minor; comm/executor changes show here",
        run: |mode, seed, seconds, rounds| run_training(&mlp_wide_mem_opt(), mode, seed, seconds, rounds),
    },
    Workload {
        name: "serve_fleet",
        why: "JobManager on a 2-rank pool: hundreds of sub-ms-step K-FAC jobs with a mid-run resize each; \
              latency-bound, so per-step set-up cost or heavier collectives show as a loss here",
        run: |mode, seed, seconds, rounds| match mode {
            Mode::EndToEnd => (serve::end_to_end(seed, seconds, rounds), Vec::new()),
            Mode::Traced => {
                // Step-level layers from a traced replica of one two-rank job
                // (200 steps, whatever `seconds` says), `serve.*` from a fleet.
                let (mut out, spans) = train::traced(&serve_job_replica(), seed, seconds);
                serve::traced_fleet(&mut out, seed, seconds / 2.0);
                (out, spans)
            }
        },
    },
];

fn run_training<M, D>(
    spec: &TrainSpec<M, D>,
    mode: Mode,
    seed: u64,
    seconds: f64,
    rounds: usize,
) -> (Outcome, Vec<Span>)
where
    M: kaisa_nn::Model,
    D: kaisa_data::Dataset<Input = M::Input, Target = M::Target> + Sync,
{
    match mode {
        Mode::EndToEnd => (train::end_to_end(spec, seed, seconds, rounds), Vec::new()),
        Mode::Traced => train::traced(spec, seed, seconds),
    }
}

fn resnet_comm_opt() -> TrainSpec<ResNetMini, PatternImages> {
    TrainSpec {
        // Noise well above the texture amplitude keeps the loss off zero.
        make_data: |seed| PatternImages::generate(8192, 3, 16, 10, 5.0, seed),
        make_model: |seed| {
            let cfg = ResNetMiniConfig {
                in_channels: 3,
                width: 32,
                blocks_stage1: 1,
                blocks_stage2: 1,
                classes: 10,
            };
            ResNetMini::new(cfg, &mut Rng::seed_from_u64(seed))
        },
        make_opt: || Box::new(Sgd::with_momentum(0.9)),
        kfac: || {
            KfacConfig::builder()
                .grad_worker_frac(1.0)
                .factor_update_freq(5)
                .inv_update_freq(10)
                .build()
        },
        local_batch: 16,
        grad_accum: 1,
        lr: 0.02,
        cycle: 10,
        loss_floor: 0.05,
        max_cycles: usize::MAX,
        // Stage-2 3x3 convs: 16 images x 8x8 positions, 576 = 64 x 3 x 3 columns.
        capture_rows: 16 * 64,
        check_parts_share: true,
    }
}

fn bert_mem_opt_accum() -> TrainSpec<BertMini, MaskedTokenTask> {
    TrainSpec {
        make_data: |seed| {
            let rules = SequenceRules { vocab: 64, mult: 1, offset: 7, rule_probability: 0.7 };
            MaskedTokenTask::generate(2048, 32, rules, 0.25, seed)
        },
        make_model: |seed| {
            let cfg = BertMiniConfig {
                vocab: 64,
                d_model: 64,
                heads: 4,
                layers: 2,
                ffn_dim: 256,
                max_seq: 32,
            };
            BertMini::new(cfg, &mut Rng::seed_from_u64(seed))
        },
        make_opt: || Box::new(Lamb::new()),
        kfac: || {
            KfacConfig::builder()
                .grad_worker_frac(0.5)
                .factor_update_freq(5)
                .inv_update_freq(10)
                .precision(Precision::Fp16)
                .triangular_comm(true)
                .build()
        },
        local_batch: 8,
        grad_accum: 4,
        lr: 5e-3,
        cycle: 10,
        loss_floor: 0.05,
        max_cycles: usize::MAX,
        // 8 sequences x 32 tokens into the 257-wide FFN output projection.
        capture_rows: 8 * 32,
        check_parts_share: true,
    }
}

fn mlp_wide_mem_opt() -> TrainSpec<Mlp, GaussianBlobs> {
    TrainSpec {
        // Noise 6 against unit-scale centres: the classes overlap and the
        // loss stays above 1.
        make_data: |seed| GaussianBlobs::generate(16384, 256, 10, 6.0, seed),
        make_model: |seed| Mlp::new(&[256, 512, 512, 10], &mut Rng::seed_from_u64(seed)),
        make_opt: || Box::new(Sgd::new()),
        // No inverse update inside any window this benchmark can time.
        kfac: || {
            KfacConfig::builder()
                .grad_worker_frac(0.5)
                .factor_update_freq(1)
                .inv_update_freq(10_000)
                .build()
        },
        local_batch: 8,
        grad_accum: 1,
        lr: 0.02,
        cycle: 10,
        loss_floor: 0.05,
        max_cycles: usize::MAX,
        capture_rows: 8,
        check_parts_share: true,
    }
}

/// One job of `serve_fleet` on two ranks, outside the manager, so its steps
/// can be traced.
fn serve_job_replica() -> TrainSpec<Mlp, GaussianBlobs> {
    TrainSpec {
        make_data: |seed| {
            GaussianBlobs::generate(
                serve::DATASET_SAMPLES,
                serve::LAYER_SIZES[0],
                serve::LAYER_SIZES[3],
                serve::DATASET_NOISE,
                seed,
            )
        },
        make_model: |seed| Mlp::new(&serve::LAYER_SIZES, &mut Rng::seed_from_u64(seed)),
        make_opt: || Box::new(Sgd::new()),
        kfac: serve::job_kfac,
        local_batch: serve::LOCAL_BATCH,
        grad_accum: 1,
        lr: 0.2,
        cycle: 20,
        loss_floor: 0.01,
        // Warm-up included, the 200 steps of a fleet job.
        max_cycles: 9,
        capture_rows: serve::LOCAL_BATCH,
        check_parts_share: false,
    }
}
