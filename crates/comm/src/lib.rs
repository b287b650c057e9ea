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
mod meter;
mod pool;
mod ring_comm;
pub mod spsc;
mod thread_comm;

pub use meter::{CommEvent, CommOp, CommTag, Meter, MeterSnapshot};
pub use pool::{RankLease, RankPool};
pub use thread_comm::ThreadComm;

use group::GroupId;

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
    /// The (interned-group, sequence) key a collective still in flight
    /// was matched under; `None` when completion is a no-op.
    ticket: Option<(GroupId, u64)>,
    tag: CommTag,
}

impl PendingCollective {
    /// A collective whose completion is a no-op (e.g. the broadcast root:
    /// its buffer already holds the payload).
    pub fn noop(tag: CommTag) -> Self {
        PendingCollective { ticket: None, tag }
    }

    pub(crate) fn in_flight(key: (GroupId, u64), tag: CommTag) -> Self {
        PendingCollective { ticket: Some(key), tag }
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

/// Collective communication interface; [`ThreadComm`] implements it.
///
/// Matching semantics follow MPI: every member of a group must issue the
/// group's collectives in the same order. A "group" is any sorted set of
/// ranks. The primitives are the split `begin_*`/[`Communicator::complete`]
/// pair, over any group; the blocking [`Communicator::allreduce`] and
/// [`Communicator::broadcast`] over the world group are that pair.
pub trait Communicator: Send + Sync {
    /// This process's rank in `[0, world_size)`.
    fn rank(&self) -> usize;

    /// Total number of ranks.
    fn world_size(&self) -> usize;

    /// Start a (sub-)group allreduce without waiting for its result. Only
    /// ranks in `group` may call. The contribution is captured from `buf`
    /// at call time; retrieve the result with [`Communicator::complete`].
    fn begin_allreduce(
        &self,
        buf: &[f32],
        op: ReduceOp,
        group: &[usize],
        tag: CommTag,
    ) -> PendingCollective;

    /// Start a (sub-)group broadcast without waiting. Only ranks in `group`
    /// may call, and `root` must be a member. On the root, `buf` supplies
    /// the payload and completion is a no-op; on other members the payload
    /// arrives at [`Communicator::complete`].
    fn begin_broadcast(
        &self,
        buf: &[f32],
        root: usize,
        group: &[usize],
        tag: CommTag,
    ) -> PendingCollective;

    /// Block until `pending` finishes and write its result into `buf`
    /// (no-op completions leave `buf` untouched).
    fn complete(&self, pending: PendingCollective, buf: &mut [f32]);

    /// Gather each rank's `send` buffer; returns the concatenation in rank
    /// order on every rank.
    fn allgather(&self, send: &[f32]) -> Vec<f32>;

    /// Block until every rank has reached the barrier.
    fn barrier(&self);

    /// Snapshot of this communicator's traffic meter.
    fn meter_snapshot(&self) -> MeterSnapshot;

    /// Elementwise reduction across all ranks; every rank receives the
    /// result. [`Communicator::begin_allreduce`] over the world, completed
    /// at once.
    fn allreduce(&self, buf: &mut [f32], op: ReduceOp) {
        let world: Vec<usize> = (0..self.world_size()).collect();
        let pending = self.begin_allreduce(buf, op, &world, CommTag::Untagged);
        self.complete(pending, buf);
    }

    /// Broadcast `buf` from `root` to all ranks.
    /// [`Communicator::begin_broadcast`] over the world, completed at once.
    fn broadcast(&self, buf: &mut [f32], root: usize) {
        let world: Vec<usize> = (0..self.world_size()).collect();
        let pending = self.begin_broadcast(buf, root, &world, CommTag::Untagged);
        self.complete(pending, buf);
    }
}
