//! The three phases of a training workload — untraced K-FAC through
//! `kaisa_trainer::run_step`, the first-order baseline, and the traced copy
//! of the `run_step` body — and the metrics derived from them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use kaisa_comm::{CommTag, Communicator, MeterSnapshot, ThreadComm};
use kaisa_core::{Kfac, KfacConfig, Stage};
use kaisa_data::{Dataset, ShardSampler};
use kaisa_nn::Model;
use kaisa_optim::Optimizer;
use kaisa_trainer::{allreduce_gradients, run_step};

use crate::metrics::{Mode, Outcome, Round};
use crate::probes;
use crate::stats::{derive_seed, loss_checksum, loss_healthy, mean, median, supported_percentile};
use crate::trace::{parts_share, step_parts, Part, Recorder, Span, StepKind, StepParts};

/// Rank threads per training world: one per core of the box this was sized on.
pub const WORLD: usize = 2;

/// Upper bound on steps per phase; sizes the preallocated span buffers.
const MAX_STEPS: usize = 4096;

const STAGES: [Stage; 7] = [
    Stage::FactorCompute,
    Stage::FactorComm,
    Stage::EigCompute,
    Stage::EigComm,
    Stage::Precondition,
    Stage::GradComm,
    Stage::Scale,
];

/// A training workload: how to build its inputs from a seed, and the
/// paper-level knobs. Everything else is the library's default.
pub struct TrainSpec<M, D> {
    pub make_data: fn(u64) -> D,
    pub make_model: fn(u64) -> M,
    pub make_opt: fn() -> Box<dyn Optimizer>,
    pub kfac: fn() -> KfacConfig,
    pub local_batch: usize,
    pub grad_accum: usize,
    pub lr: f32,
    /// Steps per curvature cycle (a multiple of both update frequencies). The
    /// warm-up is one cycle and every timed window is a whole number of them,
    /// so windows of any length hold the same mix of step kinds.
    pub cycle: usize,
    /// The mean loss must stay above this, or the run has drifted into the
    /// regime where GEMMs run on subnormals and step time triples.
    pub loss_floor: f64,
    /// Longest timed window, in cycles.
    pub max_cycles: usize,
    /// Rows of the largest factor-capture matrix (`batch x spatial`).
    pub capture_rows: usize,
    /// Whether `trainer.parts_share >= 0.95` is an output check (it is on the
    /// three training workloads; sub-millisecond replica steps only report it).
    pub check_parts_share: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// K-FAC through `run_step`, no spans.
    Kfac,
    /// Same model, world and optimizer with `kfac = None`.
    Baseline,
    /// K-FAC with every other step going through the benchmark's own copy of
    /// the `run_step` body and the rest through `run_step`, so traced and
    /// untraced steps share one machine state.
    Traced,
}

struct RankOut {
    setup_s: f64,
    wall_s: f64,
    step_s: Vec<f64>,
    kinds: Vec<StepKind>,
    losses: Vec<f32>,
    params: Vec<f32>,
    mem_peak: usize,
    strategy: String,
    meter: MeterSnapshot,
    stage_s: [f64; 7],
    spans: Vec<Span>,
    plain_fwd_bwd_s: f64,
}

/// One phase, folded over its ranks. Per-step series are rank 0's.
pub struct Window {
    /// Data generation + world spawn + model + `Kfac::new` + warm-up cycle.
    pub setup_s: f64,
    pub wall_s: f64,
    pub step_s: Vec<f64>,
    /// Kind of each timed step.
    pub kinds: Vec<StepKind>,
    /// Mean loss per step, warm-up included.
    pub losses: Vec<f32>,
    pub params_equal: bool,
    pub mem_peak: usize,
    pub strategy: String,
    /// Traffic of the timed window (the meter is world-shared).
    pub meter: MeterSnapshot,
    /// Per rank, the `Kfac::stage_times()` totals accrued in the timed window.
    pub stage_s: Vec<[f64; 7]>,
    pub spans: Vec<Vec<Span>>,
    /// Forward/backward with capture off, probed after the window when no
    /// step of the window ran without capture.
    pub plain_fwd_bwd_s: f64,
}

impl Window {
    pub fn steps(&self) -> usize {
        self.step_s.len()
    }
}

fn stage_totals(kfac: Option<&Kfac>) -> [f64; 7] {
    let mut out = [0.0; 7];
    if let Some(kfac) = kfac {
        for (slot, stage) in out.iter_mut().zip(STAGES) {
            *slot = kfac.stage_times().total(stage);
        }
    }
    out
}

/// Run one phase on `WORLD` thread ranks: build everything from `seed`, warm
/// up for one cycle, then time whole cycles until `target_s` has passed.
pub fn run_phase<M, D>(spec: &TrainSpec<M, D>, seed: u64, phase: Phase, target_s: f64) -> Window
where
    M: Model,
    D: Dataset<Input = M::Input, Target = M::Target> + Sync,
{
    let epoch = Instant::now();
    let data = (spec.make_data)(derive_seed(seed, 0));
    let global_step = spec.local_batch * spec.grad_accum;
    // Outside the program under test: aligns the ranks' windows and brackets
    // the meter snapshots so they count exactly the window's collectives.
    let sync = Barrier::new(WORLD);
    // Rank 0 announces one cycle ahead which cycle is the last. Its peer reads
    // the announcement only after finishing that cycle, whose collectives rank
    // 0 joined after the store, so every rank stops at the same step.
    let last_cycle = AtomicUsize::new(usize::MAX);

    let mut ranks = ThreadComm::run(WORLD, |comm| {
        let rank = comm.rank();
        let mut model = (spec.make_model)(derive_seed(seed, 1));
        let mut opt = (spec.make_opt)();
        let mut kfac =
            (phase != Phase::Baseline).then(|| Kfac::new((spec.kfac)(), &mut model, comm));
        let strategy =
            kfac.as_ref().map_or("first-order".to_string(), |k| k.strategy().to_string());
        let sampler = ShardSampler::new(data.len(), WORLD, rank, global_step, derive_seed(seed, 2));
        let per_epoch = sampler.batches_per_epoch();
        let mut cached_epoch = usize::MAX;
        let mut batches: Vec<Vec<usize>> = Vec::new();
        let spans_per_step = 4 + 2 * spec.grad_accum;
        let capacity = if phase == Phase::Traced { MAX_STEPS * spans_per_step } else { 0 };
        let mut rec = Recorder::new(epoch, rank, capacity);
        let mut losses: Vec<f32> = Vec::with_capacity(MAX_STEPS);
        let mut step_s: Vec<f64> = Vec::with_capacity(MAX_STEPS);
        let mut kinds: Vec<StepKind> = Vec::with_capacity(MAX_STEPS);

        let mut one_step = |step: usize, kfac: &mut Option<Kfac>| -> (f64, StepKind) {
            if step / per_epoch != cached_epoch {
                cached_epoch = step / per_epoch;
                batches = sampler.epoch_batches(cached_epoch);
            }
            let indices = &batches[step % per_epoch];
            let kind = kfac.as_ref().map_or(StepKind::Plain, |k| {
                StepKind::of(k.is_factor_update_step(), k.is_inv_update_step())
            });
            let t0 = Instant::now();
            let traced = phase == Phase::Traced && traced_at(step, spec.cycle);
            let (loss_sum, micro) = match (traced, kfac.as_mut()) {
                (true, Some(kfac)) => traced_step(
                    &mut rec,
                    step,
                    kind,
                    comm,
                    &mut model,
                    opt.as_mut(),
                    kfac,
                    &data,
                    indices,
                    spec.local_batch,
                    spec.grad_accum,
                    spec.lr,
                ),
                (_, kfac) => {
                    let s = run_step(
                        comm,
                        &mut model,
                        opt.as_mut(),
                        kfac,
                        false,
                        &data,
                        indices,
                        spec.local_batch,
                        spec.grad_accum,
                        spec.lr,
                    );
                    (s.loss_sum, s.micro_batches)
                }
            };
            let seconds = t0.elapsed().as_secs_f64();
            losses.push((loss_sum / micro as f64) as f32);
            (seconds, kind)
        };

        for step in 0..spec.cycle {
            one_step(step, &mut kfac);
        }
        sync.wait();
        let setup_s = epoch.elapsed().as_secs_f64();
        let meter0 = comm.meter_snapshot();
        let stage0 = stage_totals(kfac.as_ref());
        sync.wait();

        let start = Instant::now();
        let max_cycles = spec.max_cycles.min(MAX_STEPS / spec.cycle - 1);
        let mut cycle = 0usize;
        loop {
            for i in 0..spec.cycle {
                let (seconds, kind) = one_step((cycle + 1) * spec.cycle + i, &mut kfac);
                step_s.push(seconds);
                kinds.push(kind);
            }
            if rank == 0 && last_cycle.load(Ordering::SeqCst) == usize::MAX {
                // Stop after the next cycle if that lands nearer the target
                // than one more would; always time at least two cycles.
                let elapsed = start.elapsed().as_secs_f64();
                let per_cycle = elapsed / (cycle + 1) as f64;
                if elapsed + 1.5 * per_cycle >= target_s || cycle + 2 >= max_cycles {
                    last_cycle.store(cycle + 1, Ordering::SeqCst);
                }
            }
            if last_cycle.load(Ordering::SeqCst) == cycle {
                break;
            }
            cycle += 1;
        }
        let wall_s = start.elapsed().as_secs_f64();
        sync.wait();
        let meter = comm.meter_snapshot().delta_since(&meter0);
        let mut stage_s = stage_totals(kfac.as_ref());
        for (total, before) in stage_s.iter_mut().zip(stage0) {
            *total -= before;
        }

        let params = model.params_flat();
        let mem_peak = kfac.as_ref().map_or(0, |k| k.memory_meter().peak_total());
        let mut plain_fwd_bwd_s = 0.0;
        if phase == Phase::Traced && !kinds.contains(&StepKind::Plain) {
            // Every step of this workload captures, so capture-free
            // forward/backward is probed here, with both ranks at it at once
            // as in a step. Gradients are scratch by now.
            model.set_kfac_capture(false);
            let probe: Vec<f64> = batches
                .iter()
                .take(10)
                .map(|indices| {
                    model.zero_grad();
                    indices
                        .chunks(spec.local_batch)
                        .map(|micro| {
                            let (x, y) = data.batch(micro);
                            let t0 = Instant::now();
                            std::hint::black_box(model.forward_backward(&x, &y));
                            t0.elapsed().as_secs_f64()
                        })
                        .sum()
                })
                .collect();
            plain_fwd_bwd_s = median(&probe);
        }
        RankOut {
            setup_s,
            wall_s,
            step_s,
            kinds,
            losses,
            params,
            mem_peak,
            strategy,
            meter,
            stage_s,
            spans: rec.into_spans(),
            plain_fwd_bwd_s,
        }
    });

    let params_equal = ranks.windows(2).all(|pair| {
        pair[0].params.len() == pair[1].params.len()
            && pair[0].params.iter().zip(&pair[1].params).all(|(a, b)| a.to_bits() == b.to_bits())
    });
    let mem_peak = ranks.iter().map(|r| r.mem_peak).max().unwrap_or(0);
    let stage_s = ranks.iter().map(|r| r.stage_s).collect();
    let spans = ranks.iter_mut().map(|r| std::mem::take(&mut r.spans)).collect();
    let r0 = ranks.swap_remove(0);
    Window {
        setup_s: r0.setup_s,
        wall_s: r0.wall_s,
        step_s: r0.step_s,
        kinds: r0.kinds,
        losses: r0.losses,
        params_equal,
        mem_peak,
        strategy: r0.strategy,
        meter: r0.meter,
        stage_s,
        spans,
        plain_fwd_bwd_s: r0.plain_fwd_bwd_s,
    }
}

/// Whether the traced phase sends `step` through `traced_step`: every other
/// step, with the parity flipped each cycle, so neighbouring steps differ (the
/// machine's drift lands on both sides of the overhead figure) and every
/// position of the cycle, so every step kind, is traced every other cycle.
fn traced_at(step: usize, cycle: usize) -> bool {
    (step + step / cycle).is_multiple_of(2)
}

/// The body of `kaisa_trainer::run_step` (synchronous K-FAC branch), call for
/// call, with a span around each call into a layer's public function. The
/// `loss_checksum` check proves it stays a faithful copy.
#[allow(clippy::too_many_arguments)]
fn traced_step<M, D>(
    rec: &mut Recorder,
    step: usize,
    kind: StepKind,
    comm: &dyn Communicator,
    model: &mut M,
    optimizer: &mut dyn Optimizer,
    kfac: &mut Kfac,
    train_set: &D,
    indices: &[usize],
    local_batch: usize,
    grad_accum: usize,
    lr: f32,
) -> (f64, usize)
where
    M: Model,
    D: Dataset<Input = M::Input, Target = M::Target> + ?Sized,
{
    rec.begin_step(step, kind);
    kfac.prepare(model);
    model.zero_grad();

    let mut loss_sum = 0.0f64;
    let mut micro_batches = 0usize;
    for micro in indices.chunks(local_batch) {
        let (x, y) = rec.span(Part::Batch, || train_set.batch(micro));
        let r = rec.span(Part::FwdBwd, || model.forward_backward(&x, &y));
        loss_sum += r.loss as f64;
        micro_batches += 1;
    }

    rec.span(Part::Ddp, || allreduce_gradients(model, comm, grad_accum));
    rec.span(Part::Kfac, || kfac.step(model, comm, lr));
    let segments = model.param_segments();
    let mut params = model.params_flat();
    let grads = model.grads_flat();
    rec.span(Part::Optim, || optimizer.step(&mut params, &grads, &segments, lr));
    model.set_params_flat(&params);
    rec.end_step();
    (loss_sum, micro_batches)
}

/// Losses of the warm-up cycle and the first two timed cycles — the prefix
/// every window has, so checksums compare across phases, rounds and commits.
fn checksum_prefix<M, D>(spec: &TrainSpec<M, D>, w: &Window) -> u64 {
    loss_checksum(&w.losses[..3 * spec.cycle])
}

/// Output checks of one K-FAC window.
fn check_window<M, D>(out: &mut Outcome, spec: &TrainSpec<M, D>, label: &str, w: &Window) {
    out.attempted += w.steps() as u64;
    out.failed += w.losses[spec.cycle..].iter().filter(|l| !l.is_finite()).count() as u64;
    out.check(format!("{label}: final parameters bitwise equal on all ranks"), w.params_equal);
    let losses: Vec<f64> = w.losses.iter().map(|&l| l as f64).collect();
    let (first, last) = (mean(&losses[..spec.cycle]), mean(&losses[losses.len() - spec.cycle..]));
    out.check(
        format!(
            "{label}: loss healthy (first cycle {first:.4}, last cycle {last:.4} = {:.2} x first, \
             floor {})",
            last / first,
            spec.loss_floor
        ),
        loss_healthy(first, last, spec.loss_floor),
    );
}

/// Mean loss of each cycle, for the reader judging how near the floor a run got.
fn loss_by_cycle<M, D>(spec: &TrainSpec<M, D>, w: &Window) -> String {
    let means: Vec<String> = w
        .losses
        .chunks(spec.cycle)
        .take(16)
        .map(|c| format!("{:.3}", c.iter().map(|&l| l as f64).sum::<f64>() / c.len() as f64))
        .collect();
    format!("mean loss of the first cycles of {} steps: {}", spec.cycle, means.join(" "))
}

/// `--trace 0`: `rounds` rounds, each a K-FAC window and then a first-order
/// window a third as long. Every window builds its data, world and model
/// afresh and warms up, so set-up is measured `rounds` times, and a slow
/// spell of the machine lands on both sides of a round's overhead ratio.
pub fn end_to_end<M, D>(spec: &TrainSpec<M, D>, seed: u64, seconds: f64, rounds: usize) -> Outcome
where
    M: Model,
    D: Dataset<Input = M::Input, Target = M::Target> + Sync,
{
    let mut out = Outcome::new(Mode::EndToEnd);
    let window_s = seconds / rounds as f64;
    let (windows, baselines): (Vec<Window>, Vec<Window>) = (0..rounds)
        .map(|_| {
            (
                run_phase(spec, seed, Phase::Kfac, window_s),
                run_phase(spec, seed, Phase::Baseline, window_s / 3.0),
            )
        })
        .unzip();

    for (i, w) in windows.iter().enumerate() {
        check_window(&mut out, spec, &format!("round {i}"), w);
    }
    out.loss_checksum = checksum_prefix(spec, &windows[0]);
    out.check(
        "every round repeats the same loss trajectory",
        windows.iter().all(|w| checksum_prefix(spec, w) == out.loss_checksum),
    );
    out.check(
        "baseline: final parameters bitwise equal on all ranks, losses finite",
        baselines.iter().all(|b| b.params_equal && b.losses.iter().all(|l| l.is_finite())),
    );
    out.strategy = windows[0].strategy.clone();

    let global_batch = (WORLD * spec.local_batch * spec.grad_accum) as f64;
    let rate = |w: &Window| w.steps() as f64 * global_batch / w.wall_s;
    let rounds: Vec<Round> = windows
        .iter()
        .zip(&baselines)
        .map(|(w, b)| Round {
            setup_s: w.setup_s,
            samples_per_s: rate(w),
            baseline_samples_per_s: rate(b),
            latency_ms: w.step_s.iter().map(|s| s * 1e3).collect(),
            mem_peak_bytes: w.mem_peak,
        })
        .collect();
    out.set_end_to_end(&rounds);
    let steps: usize = windows.iter().map(Window::steps).sum();
    out.notes.push(format!(
        "latency = one optimizer step on rank 0; {steps} steps in {} windows, {:.2} s timed; \
         tail a window's sample supports: {}; {} baseline steps",
        windows.len(),
        windows.iter().map(|w| w.wall_s).sum::<f64>(),
        supported_percentile(steps / windows.len()).map_or("none".to_string(), |p| format!("p{p}")),
        baselines.iter().map(Window::steps).sum::<usize>(),
    ));
    out.notes.push(loss_by_cycle(spec, &windows[0]));
    out
}

fn of_kind(
    steps: &[StepParts],
    want: impl Fn(StepKind) -> bool,
    f: impl Fn(&StepParts) -> f64,
) -> Vec<f64> {
    steps.iter().filter(|s| want(s.kind)).map(|s| f(s) * 1e3).collect()
}

/// `--trace 1`: the shortest untraced reference window (its losses are what
/// the traced loop must reproduce), the traced window for the rest of
/// `seconds`, then the isolated probes. Returns the spans of the first steps
/// for the trace file.
pub fn traced<M, D>(spec: &TrainSpec<M, D>, seed: u64, seconds: f64) -> (Outcome, Vec<Span>)
where
    M: Model,
    D: Dataset<Input = M::Input, Target = M::Target> + Sync,
{
    let mut out = Outcome::new(Mode::Traced);
    let reference = run_phase(spec, seed, Phase::Kfac, 0.0);
    let w = run_phase(spec, seed, Phase::Traced, seconds - reference.wall_s);

    check_window(&mut out, spec, "traced", &w);
    out.loss_checksum = checksum_prefix(spec, &w);
    out.check(
        "traced loop repeats the untraced loss trajectory (faithful copy of run_step)",
        checksum_prefix(spec, &reference) == out.loss_checksum,
    );
    out.strategy = w.strategy.clone();

    // Per-step records of the timed window, per rank.
    let per_rank: Vec<Vec<StepParts>> = w
        .spans
        .iter()
        .map(|spans| {
            step_parts(spans).into_iter().filter(|s| s.step as usize >= spec.cycle).collect()
        })
        .collect();
    let steps = &per_rank[0];
    // Spans cover the traced cycles; the stage timers and the meter cover
    // every step of the window.
    let n = w.steps() as f64;
    let part = |p: Part| move |s: &StepParts| s.parts[p as usize];
    let any = |_: StepKind| true;
    let plain = |k: StepKind| k == StepKind::Plain;

    out.set("data.batch_ms", median(&of_kind(steps, any, part(Part::Batch))));
    let plain_fwd_bwd = of_kind(steps, plain, part(Part::FwdBwd));
    let fwd_bwd_ms =
        if plain_fwd_bwd.is_empty() { w.plain_fwd_bwd_s * 1e3 } else { median(&plain_fwd_bwd) };
    out.set("nn.fwd_bwd_ms", fwd_bwd_ms);
    let capturing = of_kind(steps, |k| k != StepKind::Plain, part(Part::FwdBwd));
    out.set("nn.capture_ms", median(&capturing) - fwd_bwd_ms);

    for (name, kind) in [
        ("core.kfac_step_plain_ms", StepKind::Plain),
        ("core.kfac_step_factor_ms", StepKind::Factor),
        ("core.kfac_step_inverse_ms", StepKind::Inverse),
    ] {
        out.set(name, median(&of_kind(steps, |k| k == kind, part(Part::Kfac))));
    }
    // The program's own Fig. 7 timers, as a mean per step of the window.
    for (name, stage) in [
        ("core.factor_compute_ms", Stage::FactorCompute),
        ("core.factor_comm_ms", Stage::FactorComm),
        ("core.eig_compute_ms", Stage::EigCompute),
        ("core.eig_comm_ms", Stage::EigComm),
        ("core.precondition_ms", Stage::Precondition),
        ("core.grad_comm_ms", Stage::GradComm),
        ("core.scale_ms", Stage::Scale),
    ] {
        out.set(name, w.stage_s[0][stage as usize] / n * 1e3);
    }
    let eig: Vec<f64> = w.stage_s.iter().map(|s| s[Stage::EigCompute as usize]).collect();
    let eig_mean = mean(&eig);
    if eig_mean > 0.0 {
        out.set("core.lpt_imbalance_x", eig.iter().copied().fold(0.0, f64::max) / eig_mean);
    }
    out.set("core.kfac_mem_peak_bytes", w.mem_peak as f64);

    out.set("trainer.ddp_allreduce_ms", median(&of_kind(steps, any, part(Part::Ddp))));
    out.set("trainer.residual_ms", median(&of_kind(steps, any, StepParts::self_time)));
    let share = parts_share(steps);
    out.set("trainer.parts_share", share);
    if spec.check_parts_share {
        out.check(
            format!("child spans cover {:.1} % of the median step's wall (>= 95 %)", share * 1e2),
            share >= 0.95,
        );
    }
    out.set("optim.step_ms", median(&of_kind(steps, any, part(Part::Optim))));

    // The DDP allreduce span across ranks: the shortest is the transfer, the
    // rest of the longest is time parked waiting for the slowest rank.
    let (mut transfer, mut wait) = (Vec::new(), Vec::new());
    for i in 0..steps.len() {
        let spans = per_rank.iter().map(|r| r[i].ddp.1 - r[i].ddp.0);
        let (lo, hi) = spans.fold((f64::MAX, 0.0f64), |(lo, hi), d| (lo.min(d), hi.max(d)));
        transfer.push(lo * 1e3);
        wait.push((hi - lo) * 1e3);
    }
    out.set("comm.allreduce_ms", median(&transfer));
    out.set("comm.wait_ms", median(&wait));

    let bytes =
        |tags: &[CommTag]| tags.iter().map(|&t| w.meter.tag_bytes(t)).sum::<u64>() as f64 / n;
    out.set("comm.bytes_per_step", w.meter.total_bytes() as f64 / n);
    out.set("comm.ddp_bytes_per_step", bytes(&[CommTag::Ddp]));
    out.set(
        "comm.factor_bytes_per_step",
        bytes(&[CommTag::FactorComm, CommTag::FactorReduce, CommTag::FactorGather]),
    );
    out.set("comm.eig_bytes_per_step", bytes(&[CommTag::EigComm]));
    out.set("comm.grad_bytes_per_step", bytes(&[CommTag::GradComm]));
    let calls: u64 = CommTag::ALL.iter().map(|&t| w.meter.tag_calls(t)).sum();
    out.set("comm.calls_per_step", calls as f64 / n);

    // Step wall of the traced steps against the untraced steps between them,
    // over the window's commonest step kind.
    let common = [StepKind::Plain, StepKind::Factor, StepKind::Inverse]
        .into_iter()
        .max_by_key(|kind| w.kinds.iter().filter(|k| *k == kind).count())
        .expect("three kinds");
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    for (i, (s, _)) in w.step_s.iter().zip(&w.kinds).enumerate().filter(|(_, (_, k))| **k == common)
    {
        let traced = traced_at(spec.cycle + i, spec.cycle);
        (if traced { &mut traced_ms } else { &mut untraced_ms }).push(s * 1e3);
    }
    let overhead = (median(&traced_ms) / median(&untraced_ms) - 1.0) * 1e2;
    out.set("trace.overhead_pct", overhead);

    let mut model = (spec.make_model)(derive_seed(seed, 1));
    let dims: Vec<(usize, usize)> =
        model.kfac_layers().iter().map(|l| (l.a_dim(), l.g_dim())).collect();
    probes::tensor(&mut out, &dims, spec.capture_rows, derive_seed(seed, 3));
    probes::linalg(&mut out, &dims, derive_seed(seed, 4));
    probes::comm(&mut out, model.param_count(), &dims);

    let count = |kind: StepKind| steps.iter().filter(|s| s.kind == kind).count();
    out.notes.push(format!(
        "{} steps timed, {} of them traced ({} plain, {} factor, {} inverse); step p50 traced \
         {:.3} ms vs untraced {:.3} ms over the {} steps of the same window",
        w.steps(),
        steps.len(),
        count(StepKind::Plain),
        count(StepKind::Factor),
        count(StepKind::Inverse),
        median(&traced_ms),
        median(&untraced_ms),
        common.name(),
    ));
    out.notes.push(loss_by_cycle(spec, &w));
    if overhead > 3.0 {
        out.notes.push(format!("WARNING: trace overhead {overhead:.2} % exceeds 3 %"));
    }

    // First 40 steps of every rank (warm-up included) for the trace file.
    let first: Vec<Span> =
        w.spans.iter().flat_map(|s| s.iter().filter(|s| s.step < 40).copied()).collect();
    (out, first)
}
