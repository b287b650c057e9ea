//! # kaisa-comm
//!
//! Multi-rank collective communication for the KAISA reproduction.
//!
//! The paper runs on NCCL over InfiniBand with one process per GPU. Here,
//! *ranks are OS threads* inside one process that exchange data through
//! lock-free single-producer/single-consumer rings, one per ordered rank
//! pair — real concurrency with real collective semantics (rank-ordered
//! reductions, matching order per group, barriers, sub-group broadcasts),
//! the properties HYBRID-OPT's correctness depends on. [`ThreadComm`] is the
//! one engine and has no options: [`ThreadComm::world`], [`ThreadComm::run`]
//! and [`RankPool::new`] are the whole construction surface.
//!
//! Every collective is metered: operation counts and byte volume, per
//! collective type and per issuing [`CommTag`]. The α–β (latency–bandwidth)
//! model that prices collectives at scales (64–448 GPUs) this machine cannot
//! host lives in `kaisa-sim`, its one reader.
//!
//! ## Example
//! ```
//! use kaisa_comm::{Communicator, ReduceOp, ThreadComm};
//!
//! let outputs = ThreadComm::run(4, |comm| {
//!     let mut buf = vec![comm.rank() as f32; 8];
//!     comm.allreduce(&mut buf, ReduceOp::Sum);
//!     buf[0]
//! });
//! assert_eq!(outputs, vec![6.0; 4]); // 0+1+2+3 on every rank
//! ```

// `deny` rather than `forbid`: the SPSC ring internals (`spsc`) carry
// targeted `#[allow(unsafe_code)]` with `// SAFETY:` comments (CI lints
// them with `clippy::undocumented_unsafe_blocks`); everything else is safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod group;
mod local;
mod meter;
mod pool;
mod ring_comm;
pub mod spsc;
mod thread_comm;

pub use local::LocalComm;
pub use meter::{CommEvent, CommOp, CommTag, Meter, MeterSnapshot};
pub use pool::{RankLease, RankPool};
pub use thread_comm::ThreadComm;

use group::GroupId;

/// Ticket for a collective still in flight on [`ThreadComm`]: the
/// (interned-group, sequence) key it was matched under.
#[derive(Debug)]
pub(crate) struct PendingTicket {
    pub(crate) key: (GroupId, u64),
}

/// Handle for a collective started with [`Communicator::begin_allreduce`] or
/// [`Communicator::begin_broadcast`] and finished with
/// [`Communicator::complete`].
///
/// Splitting initiation from completion lets the K-FAC stage pipeline start
/// a layer's allreduce/broadcast, run local eig/GEMM work for other layers,
/// and only block when the result is actually needed. The handle also
/// carries the [`CommTag`] of the issuing stage for meter attribution.
///
/// Dropping a pending handle without calling `complete` leaves its peers
/// waiting for a result this rank never collects (a group leader never
/// reduces and distributes) — every handle must be completed.
#[must_use = "a pending collective must be passed to Communicator::complete"]
#[derive(Debug)]
pub struct PendingCollective {
    /// Result already available at begin time (world-of-one, default
    /// blocking impls, or backends that finished eagerly).
    payload: Option<Vec<f32>>,
    /// Matching ticket when the result is not yet available.
    ticket: Option<PendingTicket>,
    tag: CommTag,
}

impl PendingCollective {
    /// A collective that finished at begin time with this result.
    pub fn ready(payload: Vec<f32>, tag: CommTag) -> Self {
        PendingCollective { payload: Some(payload), ticket: None, tag }
    }

    /// A collective whose completion is a no-op (e.g. the broadcast root:
    /// its buffer already holds the payload).
    pub fn noop(tag: CommTag) -> Self {
        PendingCollective { payload: None, ticket: None, tag }
    }

    pub(crate) fn in_flight(key: (GroupId, u64), tag: CommTag) -> Self {
        PendingCollective { payload: None, ticket: Some(PendingTicket { key }), tag }
    }

    pub(crate) fn take_payload(&mut self) -> Option<Vec<f32>> {
        self.payload.take()
    }

    pub(crate) fn take_ticket(&mut self) -> Option<PendingTicket> {
        self.ticket.take()
    }

    /// The pipeline stage this collective was issued by.
    pub fn tag(&self) -> CommTag {
        self.tag
    }
}

/// Reduction operator for [`Communicator::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise sum divided by the group size.
    Avg,
    /// Elementwise maximum.
    Max,
}

/// Collective communication interface shared by the single-process and
/// thread-rank backends.
///
/// Matching semantics follow MPI: every member of a group must issue the
/// group's collectives in the same order. A "group" is any sorted set of
/// ranks; the world group is implied by the plain methods.
pub trait Communicator: Send + Sync {
    /// This process's rank in `[0, world_size)`.
    fn rank(&self) -> usize;

    /// Total number of ranks.
    fn world_size(&self) -> usize;

    /// Elementwise reduction across all ranks; every rank receives the result.
    fn allreduce(&self, buf: &mut [f32], op: ReduceOp);

    /// Reduction across a sub-group. Only ranks in `group` may call.
    fn allreduce_group(&self, buf: &mut [f32], op: ReduceOp, group: &[usize]);

    /// Broadcast `buf` from `root` to all ranks.
    fn broadcast(&self, buf: &mut [f32], root: usize);

    /// Broadcast within a sub-group. Only ranks in `group` may call, and
    /// `root` must be a member.
    fn broadcast_group(&self, buf: &mut [f32], root: usize, group: &[usize]);

    /// Gather each rank's `send` buffer; returns the concatenation in rank
    /// order on every rank.
    fn allgather(&self, send: &[f32]) -> Vec<f32>;

    /// Block until every rank has reached the barrier.
    fn barrier(&self);

    /// Start a (sub-)group allreduce without waiting for its result. The
    /// contribution is captured from `buf` at call time; retrieve the result
    /// with [`Communicator::complete`].
    ///
    /// The default implementation blocks (begin-then-complete degenerates to
    /// the plain collective, through a copy of `buf`); true multi-rank
    /// backends must override it to be non-blocking or a
    /// begin-many-then-complete pattern would deadlock, and [`LocalComm`]
    /// overrides it with a no-op, since at world 1 `buf` already holds the
    /// result.
    fn begin_allreduce(
        &self,
        buf: &[f32],
        op: ReduceOp,
        group: &[usize],
        tag: CommTag,
    ) -> PendingCollective {
        let mut tmp = buf.to_vec();
        self.allreduce_group(&mut tmp, op, group);
        PendingCollective::ready(tmp, tag)
    }

    /// Start a (sub-)group broadcast without waiting. On the root, `buf`
    /// supplies the payload and completion is a no-op; on other members the
    /// payload arrives at [`Communicator::complete`].
    ///
    /// Same blocking-default caveat as [`Communicator::begin_allreduce`].
    fn begin_broadcast(
        &self,
        buf: &[f32],
        root: usize,
        group: &[usize],
        tag: CommTag,
    ) -> PendingCollective {
        let mut tmp = buf.to_vec();
        self.broadcast_group(&mut tmp, root, group);
        PendingCollective::ready(tmp, tag)
    }

    /// Block until `pending` finishes and write its result into `buf`
    /// (no-op completions leave `buf` untouched).
    fn complete(&self, pending: PendingCollective, buf: &mut [f32]) {
        let mut pending = pending;
        if let Some(payload) = pending.take_payload() {
            buf.copy_from_slice(&payload);
        }
    }

    /// Snapshot of this communicator's traffic meter.
    fn meter_snapshot(&self) -> MeterSnapshot;
}
