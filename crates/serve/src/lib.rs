//! # kaisa-serve
//!
//! A multi-job K-FAC training **service** over one shared rank pool:
//! several concurrent training jobs, each with its own `Kfac`
//! preconditioner state, scheduled through memory-budget admission
//! control, pausable via byte-level checkpoints, and **elastically
//! resizable** — a job checkpointed at world size `W` restores at world
//! `W′`, re-running LPT factor placement for the new world and re-placing
//! its factor and eigen state, with a bitwise
//! guarantee: the resumed trajectory equals a fresh run that resized
//! in-process at the same step.
//!
//! The pieces:
//!
//! * [`RankPool`](kaisa_comm::RankPool) (in `kaisa-comm`) — a counting
//!   semaphore over rank threads; every job world is carved out of it.
//! * [`JobManager`] — one locked job map, FIFO-with-backfill scheduler,
//!   admission driven by the analytic memory model *and* the live
//!   measured `MemoryMeter` of running jobs.
//! * [`JobCheckpoint`] — the stable byte format for paused jobs: flat
//!   weights, SGD velocity, and the full `KfacCheckpoint` (packed factor
//!   running averages, cached eigendecompositions, step counters).
//!
//! ```no_run
//! use kaisa_serve::{JobManager, JobSpec, ResizePoint, ServeConfig};
//!
//! let mgr = JobManager::new(ServeConfig::default());
//! let mut spec = JobSpec::small("demo");
//! spec.world = 4;
//! spec.total_steps = 12;
//! // Pause after 6 steps, resume on 2 ranks.
//! spec.resizes = vec![ResizePoint { at_step: 6, world: 2 }];
//! let id = mgr.submit(spec).unwrap();
//! mgr.drain();
//! assert_eq!(mgr.status(id).unwrap().step, 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod job;
mod manager;

pub use checkpoint::{CheckpointError, JobCheckpoint};
pub use job::{JobId, JobSpec, JobState, JobStatus, ResizePoint};
pub use manager::{modeled_kfac_bytes, AdmissionError, JobManager, ServeConfig, ServeEvent};
