//! The multi-job K-FAC service: admission control, scheduling, and
//! elastic segment execution.
//!
//! # Architecture
//!
//! A [`JobManager`] owns three pieces of shared state:
//!
//! * a [`RankPool`] — the machine's rank-thread capacity, shared by every
//!   job's communicator world;
//! * a **sharded-lock job map** — `N` independent `RwLock<HashMap>` shards
//!   keyed by [`JobId`], so status queries and per-rank live-memory
//!   updates on different jobs never contend on one lock;
//! * a [`MemoryBudget`] — the pool-wide cap on modeled per-rank K-FAC
//!   state, driving admission.
//!
//! # Admission control
//!
//! At submission the manager models the job's per-rank K-FAC footprint
//! with the analytic simulator (`kaisa_sim`'s `kfac_overhead_sharded()`,
//! the sharded-factors residency the paper's Table 5 models). A job whose
//! modeled footprint can never fit the budget is **rejected** outright; a
//! job that merely doesn't fit *now* is **queued** FIFO and admitted when
//! running jobs complete or pause. While a job runs, its own live
//! [`MemoryMeter`](kaisa_core::MemoryMeter) reading (max across its
//! ranks) replaces the model whenever it is larger, so admission tracks
//! reality rather than the estimate.
//!
//! # Elastic resizing
//!
//! A job's [`ResizePoint`]s split it into segments. Each segment claims
//! `world` ranks from the pool, rebuilds the model, **restores** the
//! packed factor/eigen state from the previous segment's byte checkpoint
//! (re-running LPT placement and strategy resolution at the new world
//! size), trains to the next pause point, and writes a fresh checkpoint.
//! Restore is bitwise transparent: the gated invariant is that pause →
//! checkpoint → resume at a different world equals a fresh run that
//! resized in-process at the same step, bit for bit, on every rank.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, RwLock};
use std::time::Instant;

use kaisa_comm::{Communicator, RankPool, ReduceOp};
use kaisa_core::{effective_worker_frac, DistStrategy, Kfac, MemoryBudget};
use kaisa_data::{Dataset, GaussianBlobs, ShardSampler};
use kaisa_nn::{models::Mlp, Model};
use kaisa_optim::{Optimizer, Sgd};
use kaisa_sim::{ClusterSpec, LayerShape, ModelInventory, SimParams, Simulator};
use kaisa_tensor::{Precision, Rng};
use kaisa_trainer::run_step;

use crate::checkpoint::JobCheckpoint;
use crate::job::{JobId, JobSpec, JobState, JobStatus};

/// Configuration of a serve pool.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Rank threads available to all jobs combined.
    pub pool_ranks: usize,
    /// Pool-wide budget on per-rank K-FAC state, in bytes. Admission
    /// queues jobs whose modeled `kfac_overhead_sharded()` would push the
    /// live total past this; jobs that could never fit are rejected.
    pub pool_budget_bytes: usize,
    /// Number of independent lock shards in the job map.
    pub map_shards: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { pool_ranks: 8, pool_budget_bytes: 256 << 20, map_shards: 8 }
    }
}

/// Why a submission was refused outright (queueing would never help).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The modeled per-rank K-FAC footprint exceeds the whole pool
    /// budget, so the job could never run even on an empty pool.
    FootprintExceedsBudget {
        /// Modeled bytes for the job's largest-footprint world.
        modeled: usize,
        /// The configured pool budget.
        budget: usize,
    },
    /// Some segment wants more ranks than the pool owns.
    WorldExceedsPool {
        /// The offending world size.
        world: usize,
        /// The pool's rank capacity.
        capacity: usize,
    },
    /// The spec failed structural validation.
    InvalidSpec(String),
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::FootprintExceedsBudget { modeled, budget } => {
                write!(f, "modeled K-FAC footprint {modeled} B exceeds the pool budget {budget} B")
            }
            AdmissionError::WorldExceedsPool { world, capacity } => {
                write!(f, "job world {world} exceeds pool capacity {capacity}")
            }
            AdmissionError::InvalidSpec(why) => write!(f, "invalid job spec: {why}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// A scheduling event, timestamped in seconds since the manager was
/// created. The event log is append-only and totally ordered: an event
/// recorded before another appears earlier.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeEvent {
    /// A job passed admission checks and entered the queue.
    Submitted {
        /// The job.
        job: JobId,
        /// Seconds since manager creation.
        at: f64,
    },
    /// The scheduler admitted a segment and claimed pool ranks for it.
    Admitted {
        /// The job.
        job: JobId,
        /// The step the segment starts at.
        step: u64,
        /// The segment's world size.
        world: usize,
        /// Seconds since manager creation.
        at: f64,
    },
    /// A segment reached a pause point and checkpointed.
    Paused {
        /// The job.
        job: JobId,
        /// Steps completed at the pause.
        step: u64,
        /// Seconds since manager creation.
        at: f64,
    },
    /// A pause changed the job's world size for the next segment.
    Resized {
        /// The job.
        job: JobId,
        /// Steps completed at the resize.
        step: u64,
        /// World size before the pause.
        from_world: usize,
        /// World size after restore.
        to_world: usize,
        /// Seconds since manager creation.
        at: f64,
    },
    /// A job finished all its steps.
    Completed {
        /// The job.
        job: JobId,
        /// Total steps completed.
        step: u64,
        /// Seconds since manager creation.
        at: f64,
    },
}

impl ServeEvent {
    /// The job the event concerns.
    pub fn job(&self) -> JobId {
        match self {
            ServeEvent::Submitted { job, .. }
            | ServeEvent::Admitted { job, .. }
            | ServeEvent::Paused { job, .. }
            | ServeEvent::Resized { job, .. }
            | ServeEvent::Completed { job, .. } => *job,
        }
    }

    /// Seconds since manager creation when the event was recorded.
    pub fn at(&self) -> f64 {
        match self {
            ServeEvent::Submitted { at, .. }
            | ServeEvent::Admitted { at, .. }
            | ServeEvent::Paused { at, .. }
            | ServeEvent::Resized { at, .. }
            | ServeEvent::Completed { at, .. } => *at,
        }
    }
}

struct JobEntry {
    spec: JobSpec,
    state: JobState,
    /// Steps completed.
    step: u64,
    /// World of the current/next segment.
    world: usize,
    /// Modeled per-rank K-FAC bytes at `world` — the admission claim.
    claim: usize,
    /// Live `MemoryMeter` reading (max across ranks), once measured.
    measured: Option<usize>,
    /// Latest checkpoint bytes (present after any pause or completion).
    checkpoint: Option<Vec<u8>>,
    /// Mean train loss per completed segment.
    segment_losses: Vec<f32>,
}

struct Sched {
    queue: VecDeque<JobId>,
    running: usize,
}

/// The multi-job K-FAC training service. See the module docs for the
/// architecture.
pub struct JobManager {
    cfg: ServeConfig,
    pool: RankPool,
    budget: MemoryBudget,
    shards: Vec<RwLock<HashMap<u64, JobEntry>>>,
    sched: Mutex<Sched>,
    wake: Condvar,
    events: Mutex<Vec<ServeEvent>>,
    next_id: AtomicU64,
    epoch: Instant,
}

impl JobManager {
    /// Build a manager over a fresh rank pool.
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(cfg.map_shards >= 1, "job map needs at least one shard");
        let shards = (0..cfg.map_shards).map(|_| RwLock::new(HashMap::new())).collect();
        JobManager {
            pool: RankPool::new(cfg.pool_ranks),
            budget: MemoryBudget::new(cfg.pool_budget_bytes),
            shards,
            sched: Mutex::new(Sched { queue: VecDeque::new(), running: 0 }),
            wake: Condvar::new(),
            events: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            epoch: Instant::now(),
            cfg,
        }
    }

    /// The configuration the manager was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The pool-wide K-FAC memory budget.
    pub fn budget(&self) -> MemoryBudget {
        self.budget
    }

    /// The shared rank pool.
    pub fn pool(&self) -> &RankPool {
        &self.pool
    }

    /// Submit a job. Returns its id, or an [`AdmissionError`] when the
    /// job is structurally invalid or could never run on this pool —
    /// rejection happens here; "doesn't fit *right now*" only queues.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, AdmissionError> {
        spec.validate().map_err(AdmissionError::InvalidSpec)?;
        for world in spec.worlds() {
            if world > self.pool.capacity() {
                return Err(AdmissionError::WorldExceedsPool {
                    world,
                    capacity: self.pool.capacity(),
                });
            }
            let modeled = modeled_kfac_bytes(&spec, world);
            if !self.budget.would_ever_fit(modeled) {
                return Err(AdmissionError::FootprintExceedsBudget {
                    modeled,
                    budget: self.budget.limit(),
                });
            }
        }
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let claim = modeled_kfac_bytes(&spec, spec.world);
        let entry = JobEntry {
            world: spec.world,
            spec,
            state: JobState::Queued,
            step: 0,
            claim,
            measured: None,
            checkpoint: None,
            segment_losses: Vec::new(),
        };
        self.shard(id).write().expect("job map poisoned").insert(id.0, entry);
        self.record(ServeEvent::Submitted { job: id, at: self.now() });
        let mut sched = self.sched.lock().expect("scheduler poisoned");
        sched.queue.push_back(id);
        drop(sched);
        self.wake.notify_all();
        Ok(id)
    }

    /// Run the scheduler until every submitted job has completed. Jobs
    /// execute concurrently up to the rank-pool and memory-budget limits;
    /// queued jobs are admitted FIFO with backfilling (a later job that
    /// fits may start while an earlier, larger one waits).
    pub fn drain(&self) {
        std::thread::scope(|scope| loop {
            let mut sched = self.sched.lock().expect("scheduler poisoned");
            let pick =
                sched.queue.iter().position(|&id| self.admissible(id, self.live_resident_bytes()));
            match pick {
                Some(i) => {
                    let id = sched.queue.remove(i).expect("index in range");
                    sched.running += 1;
                    drop(sched);
                    let (step, world) = {
                        let mut shard = self.shard(id).write().expect("job map poisoned");
                        let entry = shard.get_mut(&id.0).expect("queued job in map");
                        entry.state = JobState::Running;
                        (entry.step, entry.world)
                    };
                    self.record(ServeEvent::Admitted { job: id, step, world, at: self.now() });
                    scope.spawn(move || {
                        self.run_segment(id);
                        let mut sched = self.sched.lock().expect("scheduler poisoned");
                        sched.running -= 1;
                        drop(sched);
                        self.wake.notify_all();
                    });
                }
                None if sched.running > 0 => {
                    let _unused = self.wake.wait(sched).expect("scheduler poisoned");
                }
                None if sched.queue.is_empty() => break,
                None => unreachable!(
                    "queued jobs exist, nothing is running, yet none is admissible — \
                     submit-time reject checks should make this impossible"
                ),
            }
        });
    }

    /// Submit-then-drain convenience for a single job.
    pub fn run_to_completion(&self, spec: JobSpec) -> Result<JobId, AdmissionError> {
        let id = self.submit(spec)?;
        self.drain();
        Ok(id)
    }

    /// Point-in-time status of one job.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let shard = self.shard(id).read().expect("job map poisoned");
        shard.get(&id.0).map(|e| JobStatus {
            id,
            name: e.spec.name.clone(),
            state: e.state,
            step: e.step,
            total_steps: e.spec.total_steps,
            world: e.world,
            resident_bytes: e.claim.max(e.measured.unwrap_or(0)),
            segment_losses: e.segment_losses.clone(),
            checkpoint_bytes: e.checkpoint.as_ref().map(Vec::len),
        })
    }

    /// Status of every job, ordered by id.
    pub fn statuses(&self) -> Vec<JobStatus> {
        let mut ids: Vec<JobId> = Vec::new();
        for shard in &self.shards {
            ids.extend(shard.read().expect("job map poisoned").keys().map(|&k| JobId(k)));
        }
        ids.sort();
        ids.into_iter().filter_map(|id| self.status(id)).collect()
    }

    /// The latest checkpoint bytes of a job (after any pause, and always
    /// after completion).
    pub fn checkpoint_bytes(&self, id: JobId) -> Option<Vec<u8>> {
        self.shard(id).read().expect("job map poisoned").get(&id.0)?.checkpoint.clone()
    }

    /// Decode the final model parameters from a job's latest checkpoint.
    pub fn final_params(&self, id: JobId) -> Option<Vec<f32>> {
        let bytes = self.checkpoint_bytes(id)?;
        Some(JobCheckpoint::from_bytes(&bytes).expect("stored checkpoint parses").params)
    }

    /// The append-only scheduling event log.
    pub fn events(&self) -> Vec<ServeEvent> {
        self.events.lock().expect("event log poisoned").clone()
    }

    /// Sum of resident-byte claims of currently running jobs.
    pub fn live_resident_bytes(&self) -> usize {
        let mut total = 0usize;
        for shard in &self.shards {
            for e in shard.read().expect("job map poisoned").values() {
                if e.state == JobState::Running {
                    total = total.saturating_add(e.claim.max(e.measured.unwrap_or(0)));
                }
            }
        }
        total
    }

    fn shard(&self, id: JobId) -> &RwLock<HashMap<u64, JobEntry>> {
        &self.shards[(id.0 as usize) % self.shards.len()]
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn record(&self, event: ServeEvent) {
        self.events.lock().expect("event log poisoned").push(event);
    }

    fn admissible(&self, id: JobId, live: usize) -> bool {
        let shard = self.shard(id).read().expect("job map poisoned");
        let entry = shard.get(&id.0).expect("queued job in map");
        self.budget.admits(live, entry.claim)
    }

    /// Rank-0 threads report their job's live measured footprint here
    /// while the segment runs, so admission sees reality, not the model.
    fn record_measured(&self, id: JobId, bytes: usize) {
        let mut shard = self.shard(id).write().expect("job map poisoned");
        let entry = shard.get_mut(&id.0).expect("running job in map");
        entry.measured = Some(entry.measured.unwrap_or(0).max(bytes));
    }

    /// Execute one segment of a job: restore (or build fresh), train to
    /// the next pause point or completion, checkpoint, and either finish or
    /// re-queue.
    fn run_segment(&self, id: JobId) {
        let (spec, start_step, world, ckpt_bytes) = {
            let shard = self.shard(id).read().expect("job map poisoned");
            let e = shard.get(&id.0).expect("running job in map");
            (e.spec.clone(), e.step, e.world, e.checkpoint.clone())
        };
        let target = spec
            .resizes
            .iter()
            .map(|r| r.at_step)
            .find(|&s| s > start_step)
            .unwrap_or(spec.total_steps)
            .min(spec.total_steps);
        let features = spec.layer_sizes[0];
        let classes = *spec.layer_sizes.last().expect("validated non-empty");

        let outcomes = self.pool.run_job(world, |comm| {
            let rank = comm.rank();
            let mut model = Mlp::new(&spec.layer_sizes, &mut Rng::seed_from_u64(spec.model_seed));
            let mut optimizer = Sgd::with_momentum(spec.momentum);
            let data = GaussianBlobs::generate(
                spec.dataset_samples,
                features,
                classes,
                spec.dataset_noise,
                spec.data_seed,
            );
            let mut kfac = match &ckpt_bytes {
                Some(bytes) => {
                    let ckpt = JobCheckpoint::from_bytes(bytes).expect("stored checkpoint parses");
                    assert_eq!(ckpt.step, start_step, "checkpoint step drifted from job entry");
                    model.set_params_flat(&ckpt.params);
                    optimizer.set_velocity(ckpt.velocity.clone());
                    ckpt.kfac.as_ref().map(|kc| {
                        let cfg = spec.kfac.clone().expect("kfac state implies kfac config");
                        Kfac::restore(cfg, &mut model, comm, kc)
                    })
                }
                None => spec.kfac.clone().map(|kc| Kfac::new(kc, &mut model, comm)),
            };

            // Report the live measured footprint (max across ranks) so
            // concurrent admission decisions track reality.
            let mut resident =
                [kfac.as_ref().map_or(0, |k| k.memory_meter().current_total()) as f32];
            comm.allreduce(&mut resident, ReduceOp::Max);
            if rank == 0 {
                self.record_measured(id, resident[0] as usize);
            }

            let sampler = ShardSampler::new(
                data.len(),
                world,
                rank,
                spec.local_batch * spec.grad_accum,
                spec.sampler_seed,
            );
            let per_epoch = sampler.batches_per_epoch();
            let mut cached_epoch = usize::MAX;
            let mut batches: Vec<Vec<usize>> = Vec::new();
            let mut loss_sum = 0.0f64;
            let mut micro = 0usize;
            for step in start_step..target {
                let s = step as usize;
                if s / per_epoch != cached_epoch {
                    cached_epoch = s / per_epoch;
                    batches = sampler.epoch_batches(cached_epoch);
                }
                let stats = run_step(
                    comm,
                    &mut model,
                    &mut optimizer as &mut dyn Optimizer,
                    kfac.as_mut(),
                    false,
                    &data,
                    &batches[s % per_epoch],
                    spec.local_batch,
                    spec.grad_accum,
                    spec.schedule.lr_at(s),
                );
                loss_sum += stats.loss_sum;
                micro += stats.micro_batches;
            }

            let measured = kfac.as_ref().map_or(0, |k| k.memory_meter().current_total());
            let ckpt = JobCheckpoint {
                step: target,
                params: model.params_flat(),
                velocity: optimizer.velocity().to_vec(),
                kfac: kfac.as_ref().map(|k| k.checkpoint_state(comm)),
            };
            (ckpt.to_bytes(), measured, loss_sum, micro)
        });

        // Service invariant: every rank serializes the identical
        // checkpoint — weights are replicated and K-FAC state is gathered
        // to all ranks before encoding.
        let bytes = outcomes[0].0.clone();
        for (r, o) in outcomes.iter().enumerate().skip(1) {
            assert_eq!(o.0, bytes, "job {id}: rank {r} checkpoint diverged from rank 0");
        }
        let measured = outcomes.iter().map(|o| o.1).max().unwrap_or(0);
        let loss_sum: f64 = outcomes.iter().map(|o| o.2).sum();
        let micro: usize = outcomes.iter().map(|o| o.3).sum();
        let segment_loss = (loss_sum / micro.max(1) as f64) as f32;

        let next_world = spec.world_at(target);
        let finished = target >= spec.total_steps;
        if finished {
            self.record(ServeEvent::Completed { job: id, step: target, at: self.now() });
        } else {
            self.record(ServeEvent::Paused { job: id, step: target, at: self.now() });
            if next_world != world {
                self.record(ServeEvent::Resized {
                    job: id,
                    step: target,
                    from_world: world,
                    to_world: next_world,
                    at: self.now(),
                });
            }
        }
        {
            let mut shard = self.shard(id).write().expect("job map poisoned");
            let entry = shard.get_mut(&id.0).expect("running job in map");
            entry.step = target;
            entry.world = next_world;
            entry.claim = modeled_kfac_bytes(&spec, next_world);
            entry.measured = Some(measured.max(entry.measured.unwrap_or(0)));
            entry.checkpoint = Some(bytes);
            entry.segment_losses.push(segment_loss);
            entry.state = if finished { JobState::Completed } else { JobState::Queued };
        }
        if !finished {
            let mut sched = self.sched.lock().expect("scheduler poisoned");
            sched.queue.push_back(id);
            drop(sched);
            self.wake.notify_all();
        }
    }
}

/// Model a job's per-rank K-FAC footprint at a given world size: the
/// analytic sharded-residency overhead (`factors_sharded + eig_cache`)
/// from the paper's memory model, evaluated over the job's actual layer
/// shapes and K-FAC configuration.
pub fn modeled_kfac_bytes(spec: &JobSpec, world: usize) -> usize {
    let Some(kc) = &spec.kfac else { return 0 };
    let layers = spec
        .layer_sizes
        .windows(2)
        .enumerate()
        .map(|(i, pair)| LayerShape {
            name: format!("fc{i}"),
            a_dim: pair[0] + 1,
            g_dim: pair[1],
            spatial: 1,
            params: (pair[0] + 1) * pair[1],
        })
        .collect();
    let inventory = ModelInventory {
        name: "serve-mlp",
        layers,
        extra_params: 0,
        activation_bytes_per_sample: 4 * spec.layer_sizes.iter().sum::<usize>(),
        extra_fwd_flops_per_sample: 0.0,
    };
    let frac = effective_worker_frac(kc.strategy, kc.grad_worker_frac, world);
    let mut params = SimParams::baseline(inventory, ClusterSpec::frontera(world), spec.local_batch)
        .with_kfac(frac, kc.factor_update_freq, kc.inv_update_freq);
    if kc.strategy == Some(DistStrategy::LocalOpt) {
        params = params.with_local_factors();
    }
    params.grad_accum = spec.grad_accum;
    params.half_factors = kc.precision == Precision::Fp16;
    Simulator::new(params).memory_breakdown().kfac_overhead_sharded()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ResizePoint;
    use kaisa_core::KfacConfig;

    fn kfac_spec(name: &str, world: usize, steps: u64) -> JobSpec {
        let mut spec = JobSpec::small(name);
        spec.world = world;
        spec.total_steps = steps;
        spec.kfac = Some(
            KfacConfig::builder()
                .grad_worker_frac(0.5)
                .factor_update_freq(2)
                .inv_update_freq(4)
                .sharded_factors(true)
                .build(),
        );
        spec
    }

    #[test]
    fn single_job_runs_to_completion() {
        let mgr = JobManager::new(ServeConfig::default());
        let id = mgr.run_to_completion(kfac_spec("solo", 4, 6)).unwrap();
        let status = mgr.status(id).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.step, 6);
        assert_eq!(status.segment_losses.len(), 1);
        assert!(status.checkpoint_bytes.unwrap() > 0);
        assert!(status.resident_bytes > 0, "kfac job must claim memory");
        let params = mgr.final_params(id).unwrap();
        assert!(!params.is_empty());
        assert!(params.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn pause_resume_same_world_matches_uninterrupted_run() {
        let paused = JobManager::new(ServeConfig::default());
        let mut spec = kfac_spec("paused", 2, 8);
        spec.resizes = vec![ResizePoint { at_step: 3, world: 2 }];
        let a = paused.run_to_completion(spec).unwrap();

        let straight = JobManager::new(ServeConfig::default());
        let b = straight.run_to_completion(kfac_spec("straight", 2, 8)).unwrap();

        let pa = paused.final_params(a).unwrap();
        let pb = straight.final_params(b).unwrap();
        assert_eq!(pa.len(), pb.len());
        for (i, (x, y)) in pa.iter().zip(&pb).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "param {i} diverged across pause/resume");
        }
        // The paused run recorded two segments and a pause event.
        assert_eq!(paused.status(a).unwrap().segment_losses.len(), 2);
        assert!(paused.events().iter().any(|e| matches!(e, ServeEvent::Paused { step: 3, .. })));
    }

    #[test]
    fn elastic_resize_changes_world_between_segments() {
        let mgr = JobManager::new(ServeConfig::default());
        let mut spec = kfac_spec("elastic", 4, 8);
        spec.resizes = vec![ResizePoint { at_step: 4, world: 2 }];
        let id = mgr.run_to_completion(spec).unwrap();
        assert_eq!(mgr.status(id).unwrap().state, JobState::Completed);
        assert_eq!(mgr.status(id).unwrap().world, 2);
        assert!(mgr
            .events()
            .iter()
            .any(|e| matches!(e, ServeEvent::Resized { from_world: 4, to_world: 2, step: 4, .. })));
    }

    #[test]
    fn oversized_footprint_is_rejected_outright() {
        let cfg = ServeConfig { pool_budget_bytes: 16, ..ServeConfig::default() };
        let mgr = JobManager::new(cfg);
        let err = mgr.submit(kfac_spec("huge", 2, 4)).unwrap_err();
        assert!(matches!(err, AdmissionError::FootprintExceedsBudget { .. }), "{err}");
        // First-order jobs model zero K-FAC bytes and always pass.
        assert!(mgr.submit(JobSpec::small("sgd-only")).is_ok());
    }

    #[test]
    fn oversized_world_is_rejected() {
        let mgr = JobManager::new(ServeConfig { pool_ranks: 2, ..ServeConfig::default() });
        let err = mgr.submit(kfac_spec("wide", 4, 4)).unwrap_err();
        assert!(matches!(err, AdmissionError::WorldExceedsPool { world: 4, capacity: 2 }));
    }

    #[test]
    fn budget_queues_second_job_until_first_completes() {
        // Budget fits exactly one of the two identical jobs at a time.
        let one_job = modeled_kfac_bytes(&kfac_spec("probe", 2, 4), 2);
        assert!(one_job > 0);
        let cfg = ServeConfig {
            pool_ranks: 8,
            pool_budget_bytes: one_job + one_job / 2,
            ..ServeConfig::default()
        };
        let mgr = JobManager::new(cfg);
        let a = mgr.submit(kfac_spec("first", 2, 4)).unwrap();
        let b = mgr.submit(kfac_spec("second", 2, 4)).unwrap();
        mgr.drain();
        assert_eq!(mgr.status(a).unwrap().state, JobState::Completed);
        assert_eq!(mgr.status(b).unwrap().state, JobState::Completed);
        // Provable queueing: B's admission appears after A's completion in
        // the totally-ordered event log.
        let events = mgr.events();
        let a_done = events
            .iter()
            .position(|e| matches!(e, ServeEvent::Completed { job, .. } if *job == a))
            .expect("A completed");
        let b_admitted = events
            .iter()
            .position(|e| matches!(e, ServeEvent::Admitted { job, .. } if *job == b))
            .expect("B admitted");
        assert!(
            b_admitted > a_done,
            "B admitted at event {b_admitted}, before A completed at {a_done}"
        );
    }

    #[test]
    fn independent_jobs_run_concurrently_within_budget() {
        let mgr = JobManager::new(ServeConfig::default());
        let a = mgr.submit(kfac_spec("a", 2, 4)).unwrap();
        let b = mgr.submit(kfac_spec("b", 2, 4)).unwrap();
        let c = mgr.submit(JobSpec::small("c")).unwrap();
        mgr.drain();
        for id in [a, b, c] {
            assert_eq!(mgr.status(id).unwrap().state, JobState::Completed, "{id}");
        }
        assert_eq!(mgr.statuses().len(), 3);
        assert_eq!(mgr.live_resident_bytes(), 0, "nothing running after drain");
    }

    #[test]
    fn modeled_footprint_grows_with_worker_fraction() {
        let mem = {
            let mut s = kfac_spec("m", 4, 4);
            s.kfac.as_mut().unwrap().grad_worker_frac = 0.25;
            modeled_kfac_bytes(&s, 4)
        };
        let comm = {
            let mut s = kfac_spec("c", 4, 4);
            s.kfac.as_mut().unwrap().grad_worker_frac = 1.0;
            modeled_kfac_bytes(&s, 4)
        };
        assert!(
            comm > mem,
            "COMM-OPT ({comm} B) must model more per-rank state than MEM-OPT ({mem} B)"
        );
        let mut sgd = JobSpec::small("none");
        sgd.kfac = None;
        assert_eq!(modeled_kfac_bytes(&sgd, 4), 0);
    }
}
