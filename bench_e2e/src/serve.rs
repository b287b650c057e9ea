//! `serve_fleet`: many small K-FAC jobs through `kaisa_serve::JobManager` on
//! a two-rank pool, measured from the manager's event log and job statuses.

use std::collections::hash_map::{Entry, HashMap};
use std::time::Instant;

use kaisa_core::KfacConfig;
use kaisa_serve::{
    modeled_kfac_bytes, JobCheckpoint, JobManager, JobSpec, JobState, ResizePoint, ServeConfig,
    ServeEvent,
};

use crate::metrics::{Mode, Outcome, Round};
use crate::stats::{derive_seed, loss_healthy, median, supported_percentile, time_reps};

const POOL_RANKS: usize = 2;
pub const LAYER_SIZES: [usize; 4] = [32, 64, 32, 4];
/// More samples than a job's 200 steps visit twice and clusters wide enough
/// to overlap, so no job memorises its data and drives the loss to zero.
pub const DATASET_SAMPLES: usize = 2048;
pub const DATASET_NOISE: f32 = 2.5;
pub const LOCAL_BATCH: usize = 8;
const JOB_STEPS: u64 = 200;
const RESIZE_AT: u64 = 100;
/// Jobs submitted together and drained before the next wave: sixteen clients
/// that each wait for everyone's job before sending the next. The budget
/// admits a few at a time, so most of a wave queues.
const WAVE_JOBS: u64 = 16;
const LOSS_FLOOR: f64 = 1e-2;

/// The K-FAC configuration of every job (and of the traced replica).
pub fn job_kfac() -> KfacConfig {
    KfacConfig::builder().grad_worker_frac(0.5).factor_update_freq(2).inv_update_freq(4).build()
}

/// Job `index` of the fleet: even jobs start on one rank and grow to two
/// mid-run, odd jobs start on two and shrink to one.
fn job_spec(seed: u64, index: u64, kfac: bool) -> JobSpec {
    let (world, resized) = if index.is_multiple_of(2) { (1, 2) } else { (2, 1) };
    JobSpec {
        layer_sizes: LAYER_SIZES.to_vec(),
        dataset_samples: DATASET_SAMPLES,
        dataset_noise: DATASET_NOISE,
        data_seed: derive_seed(seed, 3 * index + 10),
        model_seed: derive_seed(seed, 3 * index + 11),
        sampler_seed: derive_seed(seed, 3 * index + 12),
        local_batch: LOCAL_BATCH,
        kfac: kfac.then(job_kfac),
        world,
        total_steps: JOB_STEPS,
        resizes: vec![ResizePoint { at_step: RESIZE_AT, world: resized }],
        ..JobSpec::small(&format!("job{index}"))
    }
}

/// What one manager's life produced: a warm-up wave, then the timed waves.
struct Fleet {
    /// Manager construction + submitting and draining the warm-up wave.
    setup_s: f64,
    wall_s: f64,
    jobs: u64,
    completed: u64,
    steps: u64,
    samples: u64,
    /// First `Admitted` to `Completed`, per timed job.
    job_ms: Vec<f64>,
    /// `Submitted` to first `Admitted`.
    queue_wait_ms: Vec<f64>,
    /// `Paused` to the next `Admitted`.
    resize_ms: Vec<f64>,
    /// Sum over segments of admitted seconds x world.
    rank_seconds: f64,
    mem_peak: usize,
    /// Whether the jobs ran K-FAC (a first-order fleet's losses need only be finite).
    kfac: bool,
    losses_healthy: bool,
    /// Final checkpoint of the first timed job.
    checkpoint: Vec<u8>,
}

fn run_fleet(seed: u64, kfac: bool, target_s: f64) -> Fleet {
    let epoch = Instant::now();
    // Admission is by memory budget: room for two single-rank jobs' modeled
    // K-FAC state, so a handful of jobs is admitted at a time and the rest
    // queue (a first-order fleet claims nothing and is admitted at once).
    let budget = 2 * modeled_kfac_bytes(&job_spec(seed, 0, true), 1);
    let manager = JobManager::new(ServeConfig {
        pool_ranks: POOL_RANKS,
        pool_budget_bytes: budget,
        ..ServeConfig::default()
    });
    let wave = |number: u64| {
        for index in number * WAVE_JOBS..(number + 1) * WAVE_JOBS {
            manager.submit(job_spec(seed, index, kfac)).expect("fleet jobs fit the pool");
        }
        manager.drain();
    };
    wave(0);
    let setup_s = epoch.elapsed().as_secs_f64();

    // Whole waves until the target has passed, rounding to the nearer wave;
    // at least two.
    let start = Instant::now();
    let mut waves = 0u64;
    loop {
        waves += 1;
        wave(waves);
        let elapsed = start.elapsed().as_secs_f64();
        if waves >= 2 && elapsed + 0.5 * elapsed / waves as f64 >= target_s {
            break;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let (first, jobs) = (WAVE_JOBS, waves * WAVE_JOBS);

    let mut fleet = Fleet {
        setup_s,
        wall_s,
        jobs,
        completed: 0,
        steps: 0,
        samples: 0,
        job_ms: Vec::new(),
        queue_wait_ms: Vec::new(),
        resize_ms: Vec::new(),
        rank_seconds: 0.0,
        mem_peak: 0,
        kfac,
        losses_healthy: true,
        checkpoint: Vec::new(),
    };
    for status in manager.statuses().into_iter().filter(|s| s.id.raw() >= first) {
        if status.state == JobState::Completed && status.step == status.total_steps {
            fleet.completed += 1;
        }
        fleet.steps += status.step;
        fleet.mem_peak = fleet.mem_peak.max(status.resident_bytes);
        let losses = &status.segment_losses;
        fleet.losses_healthy &= losses.len() == 2
            && losses.iter().all(|l| l.is_finite())
            && (!kfac || loss_healthy(losses[0] as f64, losses[1] as f64, LOSS_FLOOR));
        if status.id.raw() == first {
            fleet.checkpoint = manager.checkpoint_bytes(status.id).unwrap_or_default();
        }
    }
    // Both kinds of job spend half their steps on one rank and half on two.
    let job_samples = (RESIZE_AT + 2 * (JOB_STEPS - RESIZE_AT)) * LOCAL_BATCH as u64;
    fleet.samples = fleet.completed * job_samples;

    let (mut submitted, mut admitted, mut paused) =
        (HashMap::new(), HashMap::new(), HashMap::new());
    let mut segment: HashMap<u64, (f64, usize)> = HashMap::new();
    for event in manager.events().iter().filter(|e| e.job().raw() >= first) {
        let (job, at) = (event.job().raw(), event.at());
        match event {
            ServeEvent::Submitted { .. } => {
                submitted.insert(job, at);
            }
            ServeEvent::Admitted { world, .. } => {
                if let Entry::Vacant(first) = admitted.entry(job) {
                    first.insert(at);
                    fleet.queue_wait_ms.push((at - submitted[&job]) * 1e3);
                }
                if let Some(since) = paused.remove(&job) {
                    fleet.resize_ms.push((at - since) * 1e3);
                }
                segment.insert(job, (at, *world));
            }
            ServeEvent::Paused { .. } | ServeEvent::Completed { .. } => {
                let (since, world) = segment[&job];
                fleet.rank_seconds += (at - since) * world as f64;
                if matches!(event, ServeEvent::Paused { .. }) {
                    paused.insert(job, at);
                } else {
                    fleet.job_ms.push((at - admitted[&job]) * 1e3);
                }
            }
            ServeEvent::Resized { .. } => {}
        }
    }
    fleet
}

fn check_fleet(out: &mut Outcome, label: &str, fleet: &Fleet) {
    out.check(
        format!(
            "{label}: all {} jobs Completed with step == total_steps ({} did)",
            fleet.jobs, fleet.completed
        ),
        fleet.completed == fleet.jobs && fleet.steps == fleet.jobs * JOB_STEPS,
    );
    let rule = if fleet.kfac {
        "every job's second-segment loss is finite, above the floor and not risen from its first"
    } else {
        "every job's segment losses are finite"
    };
    out.check(format!("{label}: {rule}"), fleet.losses_healthy);
}

/// `--trace 0`: `rounds` rounds, each a K-FAC fleet and then a first-order
/// fleet of the same jobs a third as long, each on a fresh manager.
pub fn end_to_end(seed: u64, seconds: f64, rounds: usize) -> Outcome {
    let mut out = Outcome::new(Mode::EndToEnd);
    let window_s = seconds / rounds as f64;
    let (fleets, baselines): (Vec<Fleet>, Vec<Fleet>) = (0..rounds)
        .map(|_| (run_fleet(seed, true, window_s), run_fleet(seed, false, window_s / 3.0)))
        .unzip();
    for (i, (fleet, baseline)) in fleets.iter().zip(&baselines).enumerate() {
        check_fleet(&mut out, &format!("round {i}"), fleet);
        check_fleet(&mut out, &format!("round {i} baseline"), baseline);
        out.attempted += fleet.jobs;
        out.failed += fleet.jobs - fleet.completed;
    }
    out.strategy = "per job: COMM-OPT on one rank, MEM-OPT on two".to_string();

    let rate = |f: &Fleet| f.samples as f64 / f.wall_s;
    let rounds: Vec<Round> = fleets
        .iter()
        .zip(&baselines)
        .map(|(f, b)| Round {
            setup_s: f.setup_s,
            samples_per_s: rate(f),
            baseline_samples_per_s: rate(b),
            latency_ms: f.job_ms.clone(),
            mem_peak_bytes: f.mem_peak,
        })
        .collect();
    out.set_end_to_end(&rounds);
    let wall: f64 = fleets.iter().map(|f| f.wall_s).sum();
    let steps: u64 = fleets.iter().map(|f| f.steps).sum();
    let jobs: u64 = fleets.iter().map(|f| f.jobs).sum();
    out.notes.push(format!(
        "latency = one job, first Admitted to Completed; {jobs} jobs ({steps} steps) in {} \
         fleets, {wall:.2} s timed, {:.0} steps/s; tail a fleet's sample supports: {}; {} baseline jobs",
        fleets.len(),
        steps as f64 / wall,
        supported_percentile(jobs as usize / fleets.len())
            .map_or("none".to_string(), |p| format!("p{p}")),
        baselines.iter().map(|b| b.jobs).sum::<u64>(),
    ));
    out
}

/// The `serve.*` per-layer metrics, from one K-FAC fleet. The caller adds the
/// step-level layers from a traced replica of one job.
pub fn traced_fleet(out: &mut Outcome, seed: u64, seconds: f64) {
    let fleet = run_fleet(seed, true, seconds);
    check_fleet(out, "fleet", &fleet);
    out.attempted += fleet.jobs;
    out.failed += fleet.jobs - fleet.completed;
    out.set("serve.queue_wait_ms_p50", median(&fleet.queue_wait_ms));
    out.set("serve.resize_ms_p50", median(&fleet.resize_ms));
    out.set("serve.checkpoint_bytes", fleet.checkpoint.len() as f64);
    out.set("serve.pool_busy_share", fleet.rank_seconds / (POOL_RANKS as f64 * fleet.wall_s));

    let decoded = JobCheckpoint::from_bytes(&fleet.checkpoint);
    out.check("a fetched checkpoint decodes and re-encodes to the same bytes", {
        decoded.as_ref().is_ok_and(|c| c.to_bytes() == fleet.checkpoint)
    });
    if let Ok(checkpoint) = decoded {
        let encode_s = time_reps(21, || (), || drop(std::hint::black_box(checkpoint.to_bytes())));
        let decode_s = time_reps(
            21,
            || (),
            || drop(std::hint::black_box(JobCheckpoint::from_bytes(&fleet.checkpoint))),
        );
        out.set("serve.ckpt_encode_us", encode_s * 1e6);
        out.set("serve.ckpt_decode_us", decode_s * 1e6);
    }
    out.notes.push(format!(
        "fleet of {} jobs, {:.2} s; queue wait over {} jobs, resize gap over {} pauses",
        fleet.jobs,
        fleet.wall_s,
        fleet.queue_wait_ms.len(),
        fleet.resize_ms.len()
    ));
}
