//! Job specifications and status reporting.

use kaisa_core::KfacConfig;
use kaisa_optim::LrSchedule;

/// Opaque identifier of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub(crate) u64);

impl JobId {
    /// The raw numeric id (submission order, starting at 0).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// A scheduled pause point: the job checkpoints after completing
/// `at_step` steps and resumes — possibly at a different world size —
/// once the scheduler re-admits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizePoint {
    /// Global step count at which to pause (steps completed before the
    /// pause; must be `< total_steps`).
    pub at_step: u64,
    /// World size to resume at. Equal to the current world for a plain
    /// pause/resume without resizing.
    pub world: usize,
}

/// Everything needed to run one training job deterministically: model
/// architecture, synthetic dataset, optimizer, optional K-FAC
/// configuration, world size, and the pause/resize plan.
///
/// All randomness is seeded, so any two executions of the same spec — on
/// any rank layout the scheduler picks — produce bitwise-identical
/// trajectories.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable job name (logs and status only).
    pub name: String,
    /// MLP layer widths, e.g. `[8, 16, 4]`.
    pub layer_sizes: Vec<usize>,
    /// Synthetic Gaussian-blob dataset size.
    pub dataset_samples: usize,
    /// Dataset noise level.
    pub dataset_noise: f32,
    /// Dataset generation seed.
    pub data_seed: u64,
    /// Model weight initialization seed (identical on every rank).
    pub model_seed: u64,
    /// Shard-sampler seed.
    pub sampler_seed: u64,
    /// Per-rank micro-batch size.
    pub local_batch: usize,
    /// Gradient-accumulation micro-steps per optimizer step.
    pub grad_accum: usize,
    /// Learning-rate schedule, indexed by global step.
    pub schedule: LrSchedule,
    /// SGD momentum (0 for plain SGD).
    pub momentum: f32,
    /// K-FAC preconditioning; `None` trains first-order only.
    pub kfac: Option<KfacConfig>,
    /// Initial world size (rank threads claimed from the pool).
    pub world: usize,
    /// Total optimizer steps to run.
    pub total_steps: u64,
    /// Pause/resize plan, strictly increasing in `at_step`.
    pub resizes: Vec<ResizePoint>,
}

impl JobSpec {
    /// A small default job: 2-layer MLP on Gaussian blobs, plain SGD,
    /// no K-FAC, world 1, 8 steps, no pauses. Override fields as needed.
    pub fn small(name: &str) -> Self {
        JobSpec {
            name: name.to_string(),
            layer_sizes: vec![8, 16, 4],
            dataset_samples: 256,
            dataset_noise: 0.3,
            data_seed: 1,
            model_seed: 3,
            sampler_seed: 0,
            local_batch: 8,
            grad_accum: 1,
            schedule: LrSchedule::Constant { lr: 0.2 },
            momentum: 0.0,
            kfac: None,
            world: 1,
            total_steps: 8,
            resizes: Vec::new(),
        }
    }

    /// The world size in effect for the segment starting at `step`.
    pub fn world_at(&self, step: u64) -> usize {
        let mut world = self.world;
        for r in &self.resizes {
            if r.at_step <= step {
                world = r.world;
            }
        }
        world
    }

    /// Every distinct world size the job will run at, in order of use.
    pub fn worlds(&self) -> Vec<usize> {
        let mut worlds = vec![self.world];
        for r in &self.resizes {
            if r.world != *worlds.last().expect("non-empty") {
                worlds.push(r.world);
            }
        }
        worlds
    }

    /// Validate structural invariants; returns a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.layer_sizes.len() < 2 {
            return Err("layer_sizes needs at least input and output widths".to_string());
        }
        if let Some(i) = self.layer_sizes.iter().position(|&w| w == 0) {
            return Err(format!("layer_sizes[{i}] is zero; every width must be positive"));
        }
        if self.total_steps == 0 {
            return Err("total_steps must be positive".to_string());
        }
        if self.local_batch == 0 || self.grad_accum == 0 {
            return Err("local_batch and grad_accum must be positive".to_string());
        }
        let mut prev: Option<u64> = None;
        for r in &self.resizes {
            if r.world == 0 {
                return Err(format!("resize at step {} targets world 0", r.at_step));
            }
            if r.at_step == 0 || r.at_step >= self.total_steps {
                return Err(format!("resize step {} outside (0, {})", r.at_step, self.total_steps));
            }
            if prev.is_some_and(|p| r.at_step <= p) {
                return Err("resize steps must be strictly increasing".to_string());
            }
            prev = Some(r.at_step);
        }
        for &world in &self.worlds() {
            if world == 0 {
                return Err("world must be positive".to_string());
            }
            // Every rank needs at least one full step's worth of samples.
            let per_rank = self.dataset_samples / world;
            if per_rank < self.local_batch * self.grad_accum {
                return Err(format!(
                    "dataset shard ({per_rank} samples at world {world}) smaller than one \
                     step's batch ({})",
                    self.local_batch * self.grad_accum
                ));
            }
        }
        // An invalid K-FAC configuration would panic in `Kfac::new`, inside
        // a pool rank thread; reject it here instead.
        self.kfac.as_ref().map_or(Ok(()), KfacConfig::validate)
    }
}

/// Lifecycle state of a job inside the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for admission (initial submission or paused-for-resize).
    Queued,
    /// A segment is currently executing on pool ranks.
    Running,
    /// All `total_steps` finished; final checkpoint retained.
    Completed,
    /// A segment panicked. The job runs no further and claims no budget;
    /// the checkpoint of its last finished segment, if any, is retained.
    Failed,
}

impl JobState {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
        }
    }
}

/// A point-in-time view of one job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job's identifier.
    pub id: JobId,
    /// The job's name.
    pub name: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Optimizer steps completed so far.
    pub step: u64,
    /// Total steps the job will run.
    pub total_steps: u64,
    /// World size of the current/next segment.
    pub world: usize,
    /// Bytes this job counts against the pool budget while it is
    /// `Running` (in any other state it counts none): the modeled
    /// per-rank K-FAC footprint, raised to the measured live footprint
    /// when the job's own `MemoryMeter` reports more.
    pub resident_bytes: usize,
    /// Mean training loss of each completed segment.
    pub segment_losses: Vec<f32>,
    /// Size of the job's latest checkpoint, if one exists.
    pub checkpoint_bytes: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_schedule_follows_resizes() {
        let mut spec = JobSpec::small("w");
        spec.world = 4;
        spec.total_steps = 10;
        spec.resizes =
            vec![ResizePoint { at_step: 3, world: 2 }, ResizePoint { at_step: 6, world: 8 }];
        assert_eq!(spec.world_at(0), 4);
        assert_eq!(spec.world_at(2), 4);
        assert_eq!(spec.world_at(3), 2);
        assert_eq!(spec.world_at(5), 2);
        assert_eq!(spec.world_at(6), 8);
        assert_eq!(spec.worlds(), vec![4, 2, 8]);
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn validation_catches_bad_plans() {
        let mut spec = JobSpec::small("v");
        spec.total_steps = 4;
        spec.resizes = vec![ResizePoint { at_step: 4, world: 1 }];
        assert!(spec.validate().is_err(), "resize at total_steps is invalid");
        spec.resizes =
            vec![ResizePoint { at_step: 2, world: 1 }, ResizePoint { at_step: 2, world: 2 }];
        assert!(spec.validate().is_err(), "duplicate resize steps");
        spec.resizes = vec![ResizePoint { at_step: 2, world: 0 }];
        assert!(spec.validate().is_err(), "world 0");
        spec.resizes.clear();
        spec.layer_sizes = vec![8];
        assert!(spec.validate().is_err(), "single-layer MLP");
    }

    #[test]
    fn small_spec_validates() {
        assert_eq!(JobSpec::small("ok").validate(), Ok(()));
    }
}
