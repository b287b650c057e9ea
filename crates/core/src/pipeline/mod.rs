//! The per-layer stage pipeline behind [`crate::Kfac::step`].
//!
//! The serial K-FAC step walks every layer through its stages in strict
//! order, blocking at each collective. But the stages of *different layers*
//! are largely independent: layer `i`'s factor allreduce can be in flight
//! while layer `i+1` finalizes its statistics, and the eigendecomposition
//! broadcasts of one layer can overlap another layer's eigensolve. This
//! module makes that structure explicit:
//!
//! - [`stage`] — the stage vocabulary: each `(layer x stage)` unit of work,
//!   its dependency on the previous stage, its timing bucket, and the
//!   [`kaisa_comm::CommTag`] its traffic is attributed to.
//! - [`task`] — the task-graph cost model: `(layer x stage)` nodes with
//!   declared dependencies and α–β durations, schedulable either serialized
//!   (the serial executor) or list-scheduled over per-rank compute plus a
//!   shared network (the pipelined executor). This is the analytic form of
//!   the overlap claim, testable without wall clocks.
//! - [`executor`] — the live pipelined executor: layer sweeps that *begin*
//!   every collective of a phase (non-blocking
//!   [`kaisa_comm::Communicator::begin_allreduce`] /
//!   [`kaisa_comm::Communicator::begin_broadcast`] handles), run the local
//!   compute of later layers, and *complete* the handles only when their
//!   results are consumed.
//!
//! Both executors share the same stage kernels (`crate::state`) and issue
//! bit-identical collectives in the same per-group order, so their outputs
//! are bitwise equal — `tests/pipeline_equivalence.rs` property-tests this
//! across strategies, world sizes, precisions, and comm layouts.

pub mod executor;
pub mod stage;
pub mod task;

pub use stage::PipelineStage;
pub use task::{ComputeRates, Resource, StepModel, StepModelOptions, Task, TaskGraph};
