//! The multi-job K-FAC service: admission control, scheduling, and
//! elastic segment execution.
//!
//! # Architecture
//!
//! A [`JobManager`] owns three pieces of shared state:
//!
//! * a [`RankPool`] — the machine's rank-thread capacity, shared by every
//!   job's communicator world;
//! * a **job map** — one `RwLock<HashMap>` keyed by [`JobId`]: status
//!   queries share it, and rank-0 threads take it briefly to record
//!   their job's live memory;
//! * a **budget** — the pool-wide cap, in bytes, on modeled per-rank
//!   K-FAC state, driving admission.
//!
//! # Admission control
//!
//! At submission the manager models the job's per-rank K-FAC footprint
//! with the analytic simulator ([`modeled_kfac_bytes`]: the packed factor
//! triangles every rank holds plus the heaviest rank's eigen cache, in
//! `kaisa_sim`'s memory model). A job whose modeled footprint or world can
//! never fit is **rejected** outright; otherwise it is **queued**. One gate
//! admits: under the queue lock, the first queued segment (FIFO with
//! backfill) whose world fits the ranks free now and whose claim fits the
//! budget leases its ranks and is recorded `Admitted`; no segment ever
//! waits on the pool. While a job runs, its own live
//! [`MemoryMeter`](kaisa_core::MemoryMeter) reading (max across its
//! ranks) replaces the model whenever it is larger.
//!
//! # Elastic resizing
//!
//! A job's [`ResizePoint`]s split it into segments. Each segment claims
//! `world` ranks from the pool, rebuilds the model, **restores** the
//! factor/eigen state from the previous segment's byte checkpoint
//! (re-running LPT placement at the new world size), trains to the next
//! pause point, and writes a fresh checkpoint.
//! Restore is bitwise transparent: the gated invariant is that pause →
//! checkpoint → resume at a different world equals a fresh run that
//! resized in-process at the same step, bit for bit, on every rank.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError, RwLock};
use std::time::Instant;

use kaisa_comm::{Communicator, RankLease, RankPool, ReduceOp};
use kaisa_core::Kfac;
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
    /// queues jobs whose modeled `kfac_overhead()` would push the
    /// live total past this; jobs that could never fit are rejected.
    pub pool_budget_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { pool_ranks: 8, pool_budget_bytes: 256 << 20 }
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
    /// The scheduler admitted a segment and leased its pool ranks; they and
    /// its budget claim stay taken until the segment's `Paused`/`Completed`,
    /// or until it panics (the job is then [`JobState::Failed`]).
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

/// An admitted segment's hold on the scheduler, moved into its thread.
/// Dropping it — when the thread returns or unwinds — gives back the
/// ranks under the queue lock, so `drain` sees the pool change only
/// between its scans, then wakes `drain`: a panicking segment can neither
/// leak ranks nor leave `drain` waiting for it. An unwinding segment also
/// marks its job [`JobState::Failed`], which drops the job's budget claim.
struct Segment<'a> {
    mgr: &'a JobManager,
    id: JobId,
    lease: Option<RankLease<'a>>,
}

impl Drop for Segment<'_> {
    fn drop(&mut self) {
        let queue = self.mgr.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if std::thread::panicking() {
            let mut jobs = self.mgr.jobs.write().unwrap_or_else(PoisonError::into_inner);
            if let Some(entry) = jobs.get_mut(&self.id.0) {
                entry.state = JobState::Failed;
            }
        }
        drop(self.lease.take());
        drop(queue);
        self.mgr.wake.notify_all();
    }
}

/// The multi-job K-FAC training service. See the module docs for the
/// architecture.
pub struct JobManager {
    pool: RankPool,
    /// [`ServeConfig::pool_budget_bytes`].
    budget: usize,
    jobs: RwLock<HashMap<u64, JobEntry>>,
    /// Segments waiting for admission, in FIFO order.
    queue: Mutex<VecDeque<JobId>>,
    wake: Condvar,
    events: Mutex<Vec<ServeEvent>>,
    next_id: AtomicU64,
    epoch: Instant,
}

impl JobManager {
    /// Build a manager over a fresh rank pool.
    pub fn new(cfg: ServeConfig) -> Self {
        JobManager {
            pool: RankPool::new(cfg.pool_ranks),
            budget: cfg.pool_budget_bytes,
            jobs: RwLock::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            events: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            epoch: Instant::now(),
        }
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
            if modeled > self.budget {
                return Err(AdmissionError::FootprintExceedsBudget {
                    modeled,
                    budget: self.budget,
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
        self.jobs.write().expect("job map poisoned").insert(id.0, entry);
        self.record(ServeEvent::Submitted { job: id, at: self.now() });
        self.queue.lock().expect("scheduler poisoned").push_back(id);
        self.wake.notify_all();
        Ok(id)
    }

    /// Run the scheduler until every submitted job has completed. Jobs
    /// execute concurrently up to the rank-pool and memory-budget limits;
    /// queued jobs are admitted FIFO with backfilling (a later job that
    /// fits may start while an earlier one waits). A panicking segment's
    /// job turns [`JobState::Failed`] and frees its ranks and budget claim
    /// at once, so the queue keeps draining; the panic surfaces here once
    /// the other segments finish.
    pub fn drain(&self) {
        std::thread::scope(|scope| loop {
            let mut queue = self.queue.lock().expect("scheduler poisoned");
            match self.admit(&mut queue) {
                Some(segment) => {
                    drop(queue);
                    scope.spawn(move || self.run_segment(segment));
                }
                // Every running segment holds at least one rank.
                None if self.pool.available() < self.pool.capacity() => {
                    let _unused = self.wake.wait(queue).expect("scheduler poisoned");
                }
                None if queue.is_empty() => break,
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
        let jobs = self.jobs.read().expect("job map poisoned");
        jobs.get(&id.0).map(|e| JobStatus {
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
        let mut ids: Vec<JobId> =
            self.jobs.read().expect("job map poisoned").keys().map(|&k| JobId(k)).collect();
        ids.sort();
        ids.into_iter().filter_map(|id| self.status(id)).collect()
    }

    /// The latest checkpoint bytes of a job (after any pause, and always
    /// after completion).
    pub fn checkpoint_bytes(&self, id: JobId) -> Option<Vec<u8>> {
        self.jobs.read().expect("job map poisoned").get(&id.0)?.checkpoint.clone()
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
        let jobs = self.jobs.read().expect("job map poisoned");
        jobs.values()
            .filter(|e| e.state == JobState::Running)
            .fold(0usize, |total, e| total.saturating_add(e.claim.max(e.measured.unwrap_or(0))))
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn record(&self, event: ServeEvent) {
        self.events.lock().expect("event log poisoned").push(event);
    }

    /// Admit the first queued segment whose world fits the ranks free now
    /// and whose claim fits the budget: lease its ranks, mark it running
    /// and record `Admitted`, all under the lock that guards `queue`.
    fn admit(&self, queue: &mut VecDeque<JobId>) -> Option<Segment<'_>> {
        // One snapshot of the running jobs' footprint judges every queued
        // job of this scan.
        let live = self.live_resident_bytes();
        let mut jobs = self.jobs.write().expect("job map poisoned");
        let (i, lease) = queue.iter().enumerate().find_map(|(i, id)| {
            let entry = &jobs[&id.0];
            if live.saturating_add(entry.claim) > self.budget {
                return None;
            }
            self.pool.try_lease(entry.world).map(|lease| (i, lease))
        })?;
        let id = queue.remove(i).expect("index in range");
        let entry = jobs.get_mut(&id.0).expect("queued job in map");
        entry.state = JobState::Running;
        let (step, world) = (entry.step, entry.world);
        self.record(ServeEvent::Admitted { job: id, step, world, at: self.now() });
        Some(Segment { mgr: self, id, lease: Some(lease) })
    }

    /// Rank-0 threads report their job's live measured footprint here
    /// while the segment runs, so admission sees reality, not the model.
    fn record_measured(&self, id: JobId, bytes: usize) {
        let mut jobs = self.jobs.write().expect("job map poisoned");
        let entry = jobs.get_mut(&id.0).expect("running job in map");
        entry.measured = Some(entry.measured.unwrap_or(0).max(bytes));
    }

    /// Execute one admitted segment on its leased ranks: restore (or build
    /// fresh), train to the next pause point or completion, checkpoint, and
    /// either finish or re-queue; the ranks go back when `segment` drops.
    fn run_segment(&self, segment: Segment<'_>) {
        let id = segment.id;
        let lease = segment.lease.as_ref().expect("an admitted segment holds its ranks");
        let (spec, start_step, world, ckpt_bytes) = {
            let jobs = self.jobs.read().expect("job map poisoned");
            let e = jobs.get(&id.0).expect("running job in map");
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

        let outcomes = lease.run_job(|comm| {
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
            let mut jobs = self.jobs.write().expect("job map poisoned");
            let entry = jobs.get_mut(&id.0).expect("running job in map");
            entry.step = target;
            entry.world = next_world;
            entry.claim = modeled_kfac_bytes(&spec, next_world);
            entry.measured = Some(measured.max(entry.measured.unwrap_or(0)));
            entry.checkpoint = Some(bytes);
            entry.segment_losses.push(segment_loss);
            entry.state = if finished { JobState::Completed } else { JobState::Queued };
        }
        if !finished {
            self.queue.lock().expect("scheduler poisoned").push_back(id);
            self.wake.notify_all();
        }
    }
}

/// Model a job's per-rank K-FAC footprint at a given world size, evaluated
/// over the job's actual layer shapes and K-FAC configuration: every factor
/// replicated as the packed triangle the live state holds (the model's
/// factor wire bytes), plus the heaviest rank's eigendecompositions (the
/// paper memory model's `eig_cache`). The model's own `factors` stay
/// square, as the paper's PyTorch KAISA holds them.
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
    let factors = inventory.all_factor_wire_bytes(kc.precision.bytes_per_element());
    let mut params = SimParams::baseline(inventory, ClusterSpec::frontera(world), spec.local_batch)
        .with_kfac(kc.grad_worker_frac, kc.factor_update_freq, kc.inv_update_freq);
    params.grad_accum = spec.grad_accum;
    params.half_factors = kc.precision == Precision::Fp16;
    Simulator::new(params).memory_breakdown().eig_cache + factors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ResizePoint;
    use kaisa_comm::ThreadComm;
    use kaisa_core::{KfacConfig, MemoryCategory};

    fn kfac_spec(name: &str, world: usize, steps: u64) -> JobSpec {
        let mut spec = JobSpec::small(name);
        spec.world = world;
        spec.total_steps = steps;
        spec.kfac = Some(
            KfacConfig::builder()
                .grad_worker_frac(0.5)
                .factor_update_freq(2)
                .inv_update_freq(4)
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
    fn a_footprint_equal_to_the_budget_is_admitted() {
        // The budget is inclusive: a claim of exactly the budget runs, and
        // one byte less budget rejects the same job at submit.
        let spec = || kfac_spec("exact", 2, 4);
        let modeled = modeled_kfac_bytes(&spec(), 2);
        assert!(modeled > 0);
        let fits = JobManager::new(ServeConfig { pool_ranks: 2, pool_budget_bytes: modeled });
        let id = fits.run_to_completion(spec()).unwrap();
        assert_eq!(fits.status(id).unwrap().state, JobState::Completed);
        let short = JobManager::new(ServeConfig { pool_ranks: 2, pool_budget_bytes: modeled - 1 });
        let err = short.submit(spec()).unwrap_err();
        assert!(
            matches!(err, AdmissionError::FootprintExceedsBudget { modeled: m, budget }
                if m == modeled && budget == modeled - 1),
            "{err}"
        );
    }

    #[test]
    fn zero_width_layer_is_rejected_at_submit() {
        // A zero output width would panic inside a pool rank thread
        // (no classes to generate), and `drain` would never return.
        let mgr = JobManager::new(ServeConfig::default());
        for sizes in [vec![8, 0], vec![0, 4]] {
            let mut spec = JobSpec::small("zero");
            spec.layer_sizes = sizes.clone();
            let err = mgr.submit(spec).unwrap_err();
            assert!(matches!(err, AdmissionError::InvalidSpec(_)), "{sizes:?}: {err}");
        }
        assert!(mgr.statuses().is_empty(), "a rejected spec is never queued");
    }

    #[test]
    fn invalid_kfac_config_is_rejected_at_submit() {
        // Built as a struct literal, so no builder panics first; the
        // submitting thread gets an error, not a panic.
        let mgr = JobManager::new(ServeConfig::default());
        let mut spec = JobSpec::small("damping");
        spec.kfac = Some(KfacConfig { damping: 0.0, ..Default::default() });
        let err = mgr.submit(spec).unwrap_err();
        assert!(
            matches!(&err, AdmissionError::InvalidSpec(why) if why.contains("damping")),
            "{err}"
        );
        assert!(mgr.statuses().is_empty(), "a rejected spec is never queued");
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
        let cfg = ServeConfig { pool_ranks: 8, pool_budget_bytes: one_job + one_job / 2 };
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

    /// A K-FAC job of `serve_fleet`'s shape on `world` ranks.
    fn fleet_job(name: &str, world: usize, steps: u64) -> JobSpec {
        let mut spec = kfac_spec(name, world, steps);
        spec.layer_sizes = vec![32, 64, 32, 4];
        spec
    }

    /// Two ranks and room for two world-1 claims of a fleet job, as in
    /// `serve_fleet`.
    fn fleet_config() -> ServeConfig {
        let claim = modeled_kfac_bytes(&fleet_job("probe", 1, 1), 1);
        ServeConfig { pool_ranks: 2, pool_budget_bytes: 2 * claim }
    }

    #[test]
    fn admitted_worlds_never_exceed_the_pool() {
        // Beside a running world-1 segment the world-2 one fits the budget
        // but not the ranks: a budget-only gate admits it to wait on the
        // pool, and the admitted worlds sum to 3.
        let cfg = fleet_config();
        let mgr = JobManager::new(cfg.clone());
        for world in [1, 2, 1] {
            mgr.submit(fleet_job(&format!("w{world}"), world, 6)).unwrap();
        }
        mgr.drain();
        let mut admitted: HashMap<JobId, usize> = HashMap::new();
        for event in mgr.events() {
            match event {
                ServeEvent::Admitted { job, world, .. } => {
                    admitted.insert(job, world);
                    let leased: usize = admitted.values().sum();
                    assert!(
                        leased <= cfg.pool_ranks,
                        "{leased} ranks admitted on a {}-rank pool at {job}",
                        cfg.pool_ranks
                    );
                }
                ServeEvent::Paused { job, .. } | ServeEvent::Completed { job, .. } => {
                    admitted.remove(&job);
                }
                _ => {}
            }
        }
        assert!(mgr.statuses().iter().all(|s| s.state == JobState::Completed));
    }

    #[test]
    fn a_free_rank_backfills_past_a_segment_waiting_for_ranks() {
        let mgr = JobManager::new(fleet_config());
        let ids = [1, 2, 1].map(|world| mgr.submit(fleet_job("w", world, 6)).unwrap());
        let mut queue = mgr.queue.lock().unwrap();
        let first = mgr.admit(&mut queue).expect("an empty pool admits the head");
        let second = mgr.admit(&mut queue).expect("the free rank backfills");
        assert_eq!((first.id, second.id), (ids[0], ids[2]));
        assert!(mgr.admit(&mut queue).is_none(), "the world-2 segment waits for ranks");
        assert_eq!((queue.len(), mgr.pool.available()), (1, 0));
        drop(queue);
        drop((first, second));
        assert_eq!(mgr.pool.available(), 2);
    }

    #[test]
    fn ranks_come_back_only_between_scans() {
        // After a scan admits nothing, `drain` reads the pool under the
        // queue lock. Ranks freed outside that lock could show it an idle
        // pool, a non-empty queue and nothing admissible.
        let mgr = JobManager::new(fleet_config());
        mgr.submit(fleet_job("w2", 2, 6)).unwrap();
        let mut queue = mgr.queue.lock().unwrap();
        let segment = mgr.admit(&mut queue).unwrap();
        std::thread::scope(|scope| {
            let ending = scope.spawn(move || drop(segment));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(mgr.pool.available(), 0, "ranks freed while the queue was locked");
            drop(queue);
            ending.join().unwrap();
        });
        assert_eq!(mgr.pool.available(), 2);
    }

    #[test]
    fn a_panicking_segment_returns_its_ranks() {
        let mgr = JobManager::new(ServeConfig { pool_ranks: 2, ..ServeConfig::default() });
        let id = mgr.submit(kfac_spec("corrupt", 2, 4)).unwrap();
        // A checkpoint that does not parse panics every rank of the segment.
        mgr.jobs.write().unwrap().get_mut(&id.0).unwrap().checkpoint = Some(vec![0; 3]);
        let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mgr.drain()));
        assert!(drained.is_err(), "the segment's panic surfaces from drain");
        assert_eq!(mgr.pool.available(), 2, "the segment's ranks came back");
        let next = mgr.run_to_completion(kfac_spec("next", 2, 4)).unwrap();
        assert_eq!(mgr.status(next).unwrap().state, JobState::Completed);
    }

    #[test]
    fn a_failed_segment_releases_its_budget_claim() {
        // Two world-1 jobs on a 2-rank pool whose budget holds one claim:
        // the second runs only once the first's claim is gone.
        let spec = |name: &str| kfac_spec(name, 1, 4);
        let budget = modeled_kfac_bytes(&spec("size"), 1);
        let mgr = JobManager::new(ServeConfig { pool_ranks: 2, pool_budget_bytes: budget });
        let failed = mgr.submit(spec("corrupt")).unwrap();
        let corrupt = vec![0; 3];
        mgr.jobs.write().unwrap().get_mut(&failed.0).unwrap().checkpoint = Some(corrupt.clone());
        let next = mgr.submit(spec("next")).unwrap();
        let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mgr.drain()));
        assert!(drained.is_err(), "the segment's panic surfaces from drain");
        assert_eq!(mgr.status(next).unwrap().state, JobState::Completed, "admitted in that drain");
        assert_eq!(mgr.status(failed).unwrap().state, JobState::Failed);
        assert_eq!(mgr.checkpoint_bytes(failed), Some(corrupt), "the last checkpoint is kept");
        assert_eq!(mgr.live_resident_bytes(), 0);
        assert_eq!(mgr.pool.available(), 2);
    }

    #[test]
    fn scheduling_never_changes_a_result() {
        // A wave like `serve_fleet`'s: even jobs grow from one rank to two
        // mid-run, odd jobs shrink from two to one.
        let wave: Vec<JobSpec> = (0..4u64)
            .map(|i| {
                let (world, resized) = if i.is_multiple_of(2) { (1, 2) } else { (2, 1) };
                let mut spec = fleet_job(&format!("fleet{i}"), world, 8);
                (spec.data_seed, spec.model_seed, spec.sampler_seed) = (10 + i, 20 + i, 30 + i);
                spec.resizes = vec![ResizePoint { at_step: 4, world: resized }];
                spec
            })
            .collect();
        let mgr = JobManager::new(fleet_config());
        let ids: Vec<JobId> = wave.iter().map(|s| mgr.submit(s.clone()).unwrap()).collect();
        mgr.drain();
        for (spec, id) in wave.into_iter().zip(ids) {
            let alone = JobManager::new(ServeConfig { pool_ranks: 2, ..ServeConfig::default() });
            let solo = alone.run_to_completion(spec).unwrap();
            let (a, b) = (mgr.final_params(id).unwrap(), alone.final_params(solo).unwrap());
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{id}: param {i} depends on the schedule");
            }
        }
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

    #[test]
    fn modeled_footprint_is_the_residency_of_the_configured_path() {
        // Three linear layers (33x64, 65x32, 33x4 factors) at world 2 with
        // one gradient worker per layer. Every factor is replicated as its
        // packed triangle (5,885 floats) beside the heaviest rank's eigen
        // cache (layers 0 and 2: 8,534 floats).
        let spec = |frac: f64| {
            let mut s = JobSpec::small("fleet");
            s.layer_sizes = vec![32, 64, 32, 4];
            s.kfac = Some(
                KfacConfig::builder()
                    .grad_worker_frac(frac)
                    .factor_update_freq(2)
                    .inv_update_freq(4)
                    .build(),
            );
            s
        };
        assert_eq!(modeled_kfac_bytes(&spec(0.5), 2), (5_885 + 8_534) * 4);
        // At world 1 one rank holds everything.
        let all = (5_885 + 7_297 + 7_329 + 1_237) * 4;
        assert_eq!(modeled_kfac_bytes(&spec(1.0), 1), all);
    }

    /// The live footprint after one step (step 0 updates factors and
    /// decompositions): the largest `Factors + Eigens` over the ranks.
    fn live_kfac_bytes(spec: &JobSpec, world: usize) -> usize {
        let features = spec.layer_sizes[0];
        let classes = *spec.layer_sizes.last().unwrap();
        let data = GaussianBlobs::generate(
            spec.dataset_samples,
            features,
            classes,
            spec.dataset_noise,
            spec.data_seed,
        );
        let per_rank = ThreadComm::run(world, |comm| {
            let mut model = Mlp::new(&spec.layer_sizes, &mut Rng::seed_from_u64(spec.model_seed));
            let mut optimizer = Sgd::with_momentum(spec.momentum);
            let mut kfac = Kfac::new(spec.kfac.clone().unwrap(), &mut model, comm);
            let sampler = ShardSampler::new(data.len(), world, comm.rank(), spec.local_batch, 0);
            let batch = &sampler.epoch_batches(0)[0];
            let _ = run_step(
                comm,
                &mut model,
                &mut optimizer as &mut dyn Optimizer,
                Some(&mut kfac),
                false,
                &data,
                batch,
                spec.local_batch,
                1,
                0.1,
            );
            let meter = kfac.memory_meter();
            meter.current(MemoryCategory::Factors) + meter.current(MemoryCategory::Eigens)
        });
        per_rank.into_iter().max().unwrap()
    }

    #[test]
    fn modeled_footprint_equals_the_live_meter() {
        for world in [1usize, 2, 4] {
            for frac in [1.0 / world as f64, 0.5, 1.0] {
                for precision in [Precision::Fp32, Precision::Fp16] {
                    let mut spec = JobSpec::small("model-vs-live");
                    spec.layer_sizes = vec![32, 64, 32, 4];
                    spec.kfac = Some(
                        KfacConfig::builder()
                            .grad_worker_frac(frac)
                            .precision(precision)
                            .factor_update_freq(2)
                            .inv_update_freq(4)
                            .build(),
                    );
                    assert_eq!(
                        modeled_kfac_bytes(&spec, world),
                        live_kfac_bytes(&spec, world),
                        "world {world}, frac {frac}, {precision:?}"
                    );
                }
            }
        }
    }
}
