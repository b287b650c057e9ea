//! Thread-rank communicator with two interchangeable engines: lock-free
//! SPSC rings (default) and the seed mutex+condvar rendezvous mailboxes.
//!
//! Both engines implement the same collective semantics — deterministic
//! rank-ordered reductions, MPI matching order per group, the non-blocking
//! `begin_*`/`complete` split — and meter identical traffic, so they are
//! bitwise interchangeable. See [`crate::ThreadCommBackend`]
//! for how to pick one and `crates/comm/src/ring_comm.rs` for the ring
//! protocol.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex};

use crate::group::{GroupId, GroupTable, HandleGroups};
use crate::meter::{CommEvent, CommOp, CommTag, Meter, MeterSnapshot};
use crate::ring_comm::{self, OpKind, RingHandle, RingShared, Role};
use crate::{CommOptions, Communicator, PendingCollective, ReduceOp, ShardSpec, ThreadCommBackend};

/// Key identifying one in-flight collective: the interned participating
/// group plus that group's per-member operation sequence number. Matching
/// follows MPI semantics: members issue a group's collectives in order.
type OpKey = (GroupId, u64);

/// Reduce stashed per-rank contributions in ascending rank order, so results
/// are bit-deterministic regardless of thread scheduling (floating-point
/// addition is not associative). Shared by allreduce and reduce-scatter —
/// which is what makes a reduce-scatter shard bitwise equal to the same
/// slice of an allreduce — and by *both backends*, which is what makes the
/// ring engine bitwise equal to the mutex engine. `Avg` scaling is applied
/// by the caller.
pub(crate) fn reduce_rank_order<T: AsRef<[f32]>>(
    parts: &BTreeMap<usize, T>,
    op: ReduceOp,
) -> Vec<f32> {
    let mut acc: Option<Vec<f32>> = None;
    for part in parts.values() {
        let part = part.as_ref();
        match acc.as_mut() {
            None => acc = Some(part.to_vec()),
            Some(acc) => {
                debug_assert_eq!(acc.len(), part.len(), "reduction length mismatch");
                match op {
                    ReduceOp::Sum | ReduceOp::Avg => {
                        for (a, b) in acc.iter_mut().zip(part) {
                            *a += *b;
                        }
                    }
                    ReduceOp::Max => {
                        for (a, b) in acc.iter_mut().zip(part) {
                            *a = a.max(*b);
                        }
                    }
                }
            }
        }
    }
    acc.expect("at least one contribution")
}

#[derive(Default)]
struct OpSlot {
    /// Reduction accumulator or broadcast payload.
    buf: Option<Vec<f32>>,
    /// Per-rank contributions for allgather.
    gather: BTreeMap<usize, Vec<f32>>,
    arrived: usize,
    ready: bool,
    done: usize,
}

struct CommCore {
    world: usize,
    backend: ThreadCommBackend,
    /// Mutex-engine rendezvous mailboxes (unused rendezvous-wise by the
    /// ring engine, which keeps all state rank-local).
    slots: Mutex<HashMap<OpKey, OpSlot>>,
    cond: Condvar,
    /// World-shared group interner: every rank maps the same member set to
    /// the same [`GroupId`], so ids double as ring wire keys.
    groups: GroupTable,
    /// Ring-engine park/unpark plumbing; `Some` iff the backend is `Ring`.
    ring: Option<RingShared>,
    meter: Meter,
    cost: crate::CollectiveCostModel,
}

/// Rank-local mutable state (interior mutability because trait methods take
/// `&self`; uncontended — one thread per handle, so this lock never blocks).
struct HandleState {
    /// Group intern cache + matching-order sequence counters.
    groups: HandleGroups,
    /// This rank's ring endpoints; `Some` iff the backend is `Ring`.
    ring: Option<RingHandle>,
    /// Precomputed `[0, world)` so world collectives skip the allocation.
    world_group: Vec<usize>,
}

/// A communicator whose ranks are OS threads within this process.
///
/// Create a full world with [`ThreadComm::world`] (one handle per rank) or
/// run a closure on every rank with [`ThreadComm::run`]; both take the
/// backend from the environment (see [`ThreadCommBackend::from_env`]), and
/// [`ThreadComm::world_with`]/[`ThreadComm::run_with`] accept explicit
/// [`CommOptions`]. Handles share the rendezvous core and traffic meter;
/// each handle is owned by exactly one thread.
///
/// Collectives come in blocking form ([`Communicator::allreduce_group`],
/// [`Communicator::broadcast_group`]) and split begin/complete form
/// ([`Communicator::begin_allreduce`], [`Communicator::begin_broadcast`],
/// [`Communicator::complete`]). The blocking form is implemented as
/// begin-then-complete, so both paths share one rendezvous code path and
/// produce bitwise-identical results. `begin_*` never blocks: an allreduce
/// contribution is stashed (mutex engine) or pushed to the group leader's
/// ring (ring engine), and a broadcast root posts its payload immediately.
pub struct ThreadComm {
    rank: usize,
    core: Arc<CommCore>,
    state: Mutex<HandleState>,
}

impl ThreadComm {
    /// Create handles for a world of `n` ranks with default options (the
    /// InfiniBand-EDR cost model and the environment-selected backend).
    pub fn world(n: usize) -> Vec<ThreadComm> {
        Self::world_with(n, CommOptions::default())
    }

    /// Create handles for a world of `n` ranks with a custom cost model.
    pub fn world_with_cost(n: usize, cost: crate::CollectiveCostModel) -> Vec<ThreadComm> {
        Self::world_with(n, CommOptions { cost, ..CommOptions::default() })
    }

    /// Create handles for a world of `n` ranks with explicit
    /// [`CommOptions`] (backend, cost model, ring capacity, pinning).
    pub fn world_with(n: usize, opts: CommOptions) -> Vec<ThreadComm> {
        assert!(n > 0, "world size must be positive");
        let core = Arc::new(CommCore {
            world: n,
            backend: opts.backend,
            slots: Mutex::new(HashMap::new()),
            cond: Condvar::new(),
            groups: GroupTable::default(),
            ring: (opts.backend == ThreadCommBackend::Ring).then(|| RingShared::new(n)),
            meter: Meter::new(),
            cost: opts.cost,
        });
        let meshes: Vec<Option<RingHandle>> = match opts.backend {
            ThreadCommBackend::Ring => {
                ring_comm::build_mesh(n, opts.ring_capacity).into_iter().map(Some).collect()
            }
            ThreadCommBackend::Mutex => (0..n).map(|_| None).collect(),
        };
        meshes
            .into_iter()
            .enumerate()
            .map(|(rank, mesh)| ThreadComm {
                rank,
                core: Arc::clone(&core),
                state: Mutex::new(HandleState {
                    groups: HandleGroups::new(rank, n),
                    ring: mesh,
                    world_group: (0..n).collect(),
                }),
            })
            .collect()
    }

    /// Spawn `n` rank threads, run `f` on each with its communicator, and
    /// return the per-rank results in rank order.
    pub fn run<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&ThreadComm) -> R + Sync,
    {
        Self::run_with(n, CommOptions::default(), f)
    }

    /// [`ThreadComm::run`] with a custom collective cost model.
    pub fn run_with_cost<R, F>(n: usize, cost: crate::CollectiveCostModel, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&ThreadComm) -> R + Sync,
    {
        Self::run_with(n, CommOptions { cost, ..CommOptions::default() }, f)
    }

    /// [`ThreadComm::run`] with explicit [`CommOptions`]. When
    /// `opts.pin_cores` is set, rank `r` pins itself to core
    /// `r % available_parallelism` before running `f`.
    pub fn run_with<R, F>(n: usize, opts: CommOptions, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&ThreadComm) -> R + Sync,
    {
        let pin = opts.pin_cores;
        let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
        let comms = Self::world_with(n, opts);
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .iter()
                .map(|comm| {
                    scope.spawn(move || {
                        if pin {
                            let _ = crate::affinity::pin_current_thread(comm.rank() % cores);
                        }
                        f(comm)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
        })
    }

    /// The engine this world runs on.
    pub fn backend(&self) -> ThreadCommBackend {
        self.core.backend
    }
}

impl Communicator for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.core.world
    }

    fn allreduce(&self, buf: &mut [f32], op: ReduceOp) {
        let group = { self.state.lock().unwrap().world_group.clone() };
        self.allreduce_group(buf, op, &group);
    }

    fn allreduce_group(&self, buf: &mut [f32], op: ReduceOp, group: &[usize]) {
        let pending = self.begin_allreduce(buf, op, group, CommTag::Untagged);
        self.complete(pending, buf);
    }

    fn begin_allreduce(
        &self,
        buf: &[f32],
        op: ReduceOp,
        group: &[usize],
        tag: CommTag,
    ) -> PendingCollective {
        let mut st = self.state.lock().unwrap();
        let (gid, members) = st.groups.resolve(&self.core.groups, group);
        let p = members.len();
        if p == 1 {
            // Sum/Avg/Max over a singleton group is the identity.
            return PendingCollective::ready(buf.to_vec(), tag);
        }
        let seq = st.groups.next_seq(gid);

        if let Some(shared) = &self.core.ring {
            let ring = st.ring.as_mut().expect("ring backend carries a ring handle");
            let leader = members[0];
            if self.rank == leader {
                ring.insert_role(
                    gid,
                    seq,
                    Role::Leader { kind: OpKind::Allreduce(op), own: buf.into(), members, tag },
                );
            } else {
                ring.send_contribution(shared, leader, gid, seq, buf.into());
                ring.insert_role(gid, seq, Role::Member { src: leader });
            }
            return PendingCollective::in_flight((gid, seq), p, tag);
        }

        let key = (gid, seq);
        let bytes = std::mem::size_of_val(buf);
        let mut slots = self.core.slots.lock().unwrap();
        let slot = slots.entry(key).or_default();
        // Stash contributions per rank; the last arriver reduces them in
        // rank order so results are bit-deterministic regardless of
        // thread scheduling (floating-point addition is not associative).
        slot.gather.insert(self.rank, buf.to_vec());
        slot.arrived += 1;
        if slot.arrived == p {
            // The last arriver reduces the stashed contributions in rank
            // order (see `reduce_rank_order`).
            let mut result = reduce_rank_order(&slot.gather, op);
            if op == ReduceOp::Avg {
                let inv = 1.0 / p as f32;
                for v in result.iter_mut() {
                    *v *= inv;
                }
            }
            slot.buf = Some(result);
            slot.gather.clear();
            slot.ready = true;
            self.core.meter.record(CommEvent {
                op: CommOp::Allreduce,
                bytes,
                group_size: p,
                seconds: self.core.cost.allreduce(bytes, p),
                tag,
            });
            self.core.cond.notify_all();
        }
        PendingCollective::in_flight(key, p, tag)
    }

    fn broadcast(&self, buf: &mut [f32], root: usize) {
        let group = { self.state.lock().unwrap().world_group.clone() };
        self.broadcast_group(buf, root, &group);
    }

    fn broadcast_group(&self, buf: &mut [f32], root: usize, group: &[usize]) {
        let pending = self.begin_broadcast(buf, root, group, CommTag::Untagged);
        self.complete(pending, buf);
    }

    fn begin_broadcast(
        &self,
        buf: &[f32],
        root: usize,
        group: &[usize],
        tag: CommTag,
    ) -> PendingCollective {
        let mut st = self.state.lock().unwrap();
        let (gid, members) = st.groups.resolve(&self.core.groups, group);
        assert!(members.contains(&root), "broadcast root {root} not in group {:?}", &*members);
        let p = members.len();
        if p == 1 {
            return PendingCollective::noop(tag);
        }
        let seq = st.groups.next_seq(gid);
        let bytes = std::mem::size_of_val(buf);

        if let Some(shared) = &self.core.ring {
            let ring = st.ring.as_mut().expect("ring backend carries a ring handle");
            if self.rank == root {
                self.core.meter.record(CommEvent {
                    op: CommOp::Broadcast,
                    bytes,
                    group_size: p,
                    seconds: self.core.cost.broadcast(bytes, p),
                    tag,
                });
                ring.scatter_payload(shared, gid, seq, &members, buf);
                // The root's buffer already holds the payload.
                return PendingCollective::noop(tag);
            }
            ring.insert_role(gid, seq, Role::Member { src: root });
            return PendingCollective::in_flight((gid, seq), p, tag);
        }

        let key = (gid, seq);
        if self.rank == root {
            let mut slots = self.core.slots.lock().unwrap();
            let slot = slots.entry(key).or_default();
            slot.buf = Some(buf.to_vec());
            slot.ready = true;
            slot.done += 1;
            let remove = slot.done == p;
            self.core.meter.record(CommEvent {
                op: CommOp::Broadcast,
                bytes,
                group_size: p,
                seconds: self.core.cost.broadcast(bytes, p),
                tag,
            });
            self.core.cond.notify_all();
            if remove {
                slots.remove(&key);
            }
            // The root's buffer already holds the payload.
            return PendingCollective::noop(tag);
        }
        PendingCollective::in_flight(key, p, tag)
    }

    fn complete(&self, pending: PendingCollective, buf: &mut [f32]) {
        let mut pending = pending;
        if let Some(payload) = pending.take_payload() {
            buf.copy_from_slice(&payload);
            return;
        }
        let Some(ticket) = pending.take_ticket() else {
            return; // No-op completion (broadcast root, singleton group).
        };
        let (gid, seq) = ticket.key;

        if let Some(shared) = &self.core.ring {
            let mut st = self.state.lock().unwrap();
            let ring = st.ring.as_mut().expect("ring backend carries a ring handle");
            let payload = ring.complete_vec(shared, &self.core.meter, &self.core.cost, gid, seq);
            match &ticket.shard {
                // Reduce-scatter: the engine delivered the full reduction
                // (one shared `Arc`); copy out this rank's owned ranges.
                Some(ranges) => {
                    let mut off = 0;
                    for &(start, len) in ranges {
                        buf[off..off + len].copy_from_slice(&payload[start..start + len]);
                        off += len;
                    }
                    debug_assert_eq!(off, buf.len(), "buffer sized to owned shards");
                }
                None => buf.copy_from_slice(&payload),
            }
            return;
        }

        let mut slots = self.core.slots.lock().unwrap();
        loop {
            {
                // `entry` rather than `get`: a broadcast receiver may reach
                // completion before the root has posted the slot.
                let slot = slots.entry(ticket.key).or_default();
                if slot.ready {
                    let full = slot.buf.as_ref().expect("result present");
                    match &ticket.shard {
                        // Reduce-scatter: copy only this rank's owned ranges,
                        // concatenated.
                        Some(ranges) => {
                            let mut off = 0;
                            for &(start, len) in ranges {
                                buf[off..off + len].copy_from_slice(&full[start..start + len]);
                                off += len;
                            }
                            debug_assert_eq!(off, buf.len(), "buffer sized to owned shards");
                        }
                        None => buf.copy_from_slice(full),
                    }
                    slot.done += 1;
                    if slot.done == ticket.participants {
                        slots.remove(&ticket.key);
                    }
                    return;
                }
            }
            slots = self.core.cond.wait(slots).unwrap();
        }
    }

    fn allgather(&self, send: &[f32]) -> Vec<f32> {
        let mut st = self.state.lock().unwrap();
        let HandleState { groups, ring, world_group } = &mut *st;
        let (gid, members) = groups.resolve(&self.core.groups, world_group);
        let p = members.len();
        if p == 1 {
            return send.to_vec();
        }
        let seq = groups.next_seq(gid);
        let bytes = std::mem::size_of_val(send);

        if let Some(shared) = &self.core.ring {
            let ring = ring.as_mut().expect("ring backend carries a ring handle");
            let leader = members[0];
            if self.rank == leader {
                ring.insert_role(
                    gid,
                    seq,
                    Role::Leader {
                        kind: OpKind::AllgatherBlocking,
                        own: send.into(),
                        members,
                        tag: CommTag::Untagged,
                    },
                );
            } else {
                ring.send_contribution(shared, leader, gid, seq, send.into());
                ring.insert_role(gid, seq, Role::Member { src: leader });
            }
            return ring.complete_vec(shared, &self.core.meter, &self.core.cost, gid, seq).to_vec();
        }

        let key = (gid, seq);
        let mut slots = self.core.slots.lock().unwrap();
        {
            let slot = slots.entry(key).or_default();
            slot.gather.insert(self.rank, send.to_vec());
            slot.arrived += 1;
            if slot.arrived == p {
                slot.ready = true;
                self.core.meter.record(CommEvent {
                    op: CommOp::Allgather,
                    bytes,
                    group_size: p,
                    seconds: self.core.cost.allgather(bytes, p),
                    tag: CommTag::Untagged,
                });
                self.core.cond.notify_all();
            }
        }
        loop {
            {
                let slot = slots.get_mut(&key).expect("slot vanished before completion");
                if slot.ready {
                    let mut out = Vec::new();
                    for (_, part) in slot.gather.iter() {
                        out.extend_from_slice(part);
                    }
                    slot.done += 1;
                    if slot.done == p {
                        slots.remove(&key);
                    }
                    return out;
                }
            }
            slots = self.core.cond.wait(slots).unwrap();
        }
    }

    fn reduce_scatter(&self, send: &[f32]) -> Vec<f32> {
        let group = { self.state.lock().unwrap().world_group.clone() };
        let p = group.len();
        // Pad-and-trim shard boundaries: with chunk = ⌈len / p⌉, rank k owns
        // result[k·chunk .. min((k+1)·chunk, len)] — trailing ranks may
        // receive short or empty chunks when the length does not divide.
        let chunk = send.len().div_ceil(p);
        let shards: Vec<ShardSpec> = group
            .iter()
            .map(|&k| {
                let start = (k * chunk).min(send.len());
                ShardSpec { owner: k, start, len: chunk.min(send.len() - start) }
            })
            .collect();
        let mut out = vec![0.0f32; shards[self.rank].len];
        let pending =
            self.begin_reduce_scatter(send, ReduceOp::Sum, &group, &shards, CommTag::Untagged);
        self.complete(pending, &mut out);
        out
    }

    fn begin_reduce_scatter(
        &self,
        buf: &[f32],
        op: ReduceOp,
        group: &[usize],
        shards: &[ShardSpec],
        tag: CommTag,
    ) -> PendingCollective {
        let mut st = self.state.lock().unwrap();
        let (gid, members) = st.groups.resolve(&self.core.groups, group);
        let p = members.len();
        // Validate the shard tiling on this rank's view; every member must
        // pass an identical spec (same contract as matching collectives).
        let mut end = 0usize;
        for s in shards {
            assert_eq!(s.start, end, "shards must tile the payload contiguously");
            assert!(
                members.contains(&s.owner),
                "shard owner {} not in group {:?}",
                s.owner,
                &*members
            );
            end += s.len;
        }
        assert_eq!(end, buf.len(), "shards must cover the whole payload");
        let ranges: Vec<(usize, usize)> =
            shards.iter().filter(|s| s.owner == self.rank).map(|s| (s.start, s.len)).collect();
        if p == 1 {
            let owned: Vec<f32> = ranges
                .iter()
                .flat_map(|&(start, len)| buf[start..start + len].iter().copied())
                .collect();
            return PendingCollective::ready(owned, tag);
        }
        let seq = st.groups.next_seq(gid);

        if let Some(shared) = &self.core.ring {
            let ring = st.ring.as_mut().expect("ring backend carries a ring handle");
            let leader = members[0];
            if self.rank == leader {
                ring.insert_role(
                    gid,
                    seq,
                    Role::Leader { kind: OpKind::ReduceScatter(op), own: buf.into(), members, tag },
                );
            } else {
                ring.send_contribution(shared, leader, gid, seq, buf.into());
                ring.insert_role(gid, seq, Role::Member { src: leader });
            }
            // The leader shares one full-result `Arc` with every member;
            // the ticket's ranges slice out this rank's shards at `complete`.
            return PendingCollective::in_flight_sharded((gid, seq), p, tag, ranges);
        }

        let key = (gid, seq);
        let bytes = std::mem::size_of_val(buf);
        let mut slots = self.core.slots.lock().unwrap();
        let slot = slots.entry(key).or_default();
        slot.gather.insert(self.rank, buf.to_vec());
        slot.arrived += 1;
        if slot.arrived == p {
            // Reduce-then-slice over the rendezvous core: the same rank-order
            // reduction as allreduce, so each shard is bitwise the same slice
            // an allreduce would produce. The meter charges the ring
            // reduce-scatter model — half a ring allreduce — once per
            // collective, not per rank.
            let mut result = reduce_rank_order(&slot.gather, op);
            if op == ReduceOp::Avg {
                let inv = 1.0 / p as f32;
                for v in result.iter_mut() {
                    *v *= inv;
                }
            }
            slot.buf = Some(result);
            slot.gather.clear();
            slot.ready = true;
            self.core.meter.record(CommEvent {
                op: CommOp::ReduceScatter,
                bytes: bytes / 2,
                group_size: p,
                seconds: self.core.cost.reduce_scatter(bytes, p),
                tag,
            });
            self.core.cond.notify_all();
        }
        PendingCollective::in_flight_sharded(key, p, tag, ranges)
    }

    fn begin_allgather(&self, buf: &[f32], group: &[usize], tag: CommTag) -> PendingCollective {
        let mut st = self.state.lock().unwrap();
        let (gid, members) = st.groups.resolve(&self.core.groups, group);
        let p = members.len();
        if p == 1 {
            return PendingCollective::ready(buf.to_vec(), tag);
        }
        let seq = st.groups.next_seq(gid);

        if let Some(shared) = &self.core.ring {
            let ring = st.ring.as_mut().expect("ring backend carries a ring handle");
            let leader = members[0];
            if self.rank == leader {
                ring.insert_role(
                    gid,
                    seq,
                    Role::Leader { kind: OpKind::AllgatherBegin, own: buf.into(), members, tag },
                );
            } else {
                ring.send_contribution(shared, leader, gid, seq, buf.into());
                ring.insert_role(gid, seq, Role::Member { src: leader });
            }
            return PendingCollective::in_flight((gid, seq), p, tag);
        }

        let key = (gid, seq);
        let mut slots = self.core.slots.lock().unwrap();
        let slot = slots.entry(key).or_default();
        slot.gather.insert(self.rank, buf.to_vec());
        slot.arrived += 1;
        if slot.arrived == p {
            // Concatenate contributions in group rank order (BTreeMap keys
            // ascend). Contribution lengths may differ per member.
            let mut out = Vec::new();
            for part in slot.gather.values() {
                out.extend_from_slice(part);
            }
            let total_bytes = std::mem::size_of::<f32>() * out.len();
            slot.buf = Some(out);
            slot.gather.clear();
            slot.ready = true;
            self.core.meter.record(CommEvent {
                op: CommOp::Allgather,
                // The gather half of a ring allreduce (see CommEvent::bytes).
                bytes: total_bytes / 2,
                group_size: p,
                seconds: self.core.cost.allgather(total_bytes.div_ceil(p), p),
                tag,
            });
            self.core.cond.notify_all();
        }
        PendingCollective::in_flight(key, p, tag)
    }

    fn barrier(&self) {
        let mut st = self.state.lock().unwrap();
        let HandleState { groups, ring, world_group } = &mut *st;
        let (gid, members) = groups.resolve(&self.core.groups, world_group);
        let p = members.len();
        if p == 1 {
            return;
        }
        let seq = groups.next_seq(gid);

        if let Some(shared) = &self.core.ring {
            let ring = ring.as_mut().expect("ring backend carries a ring handle");
            // Sense-reversing atomic barrier — no messages; the last arriver
            // meters the collective once, before it releases its peers (the
            // mutex backend's convention).
            ring.barrier(shared, gid, p, || {
                self.core.meter.record(CommEvent {
                    op: CommOp::Barrier,
                    bytes: 0,
                    group_size: p,
                    seconds: self.core.cost.barrier(p),
                    tag: CommTag::Untagged,
                });
            });
            return;
        }

        let key = (gid, seq);
        let mut slots = self.core.slots.lock().unwrap();
        {
            let slot = slots.entry(key).or_default();
            slot.arrived += 1;
            if slot.arrived == p {
                slot.ready = true;
                self.core.meter.record(CommEvent {
                    op: CommOp::Barrier,
                    bytes: 0,
                    group_size: p,
                    seconds: self.core.cost.barrier(p),
                    tag: CommTag::Untagged,
                });
                self.core.cond.notify_all();
            }
        }
        loop {
            {
                let slot = slots.get_mut(&key).expect("slot vanished before completion");
                if slot.ready {
                    slot.done += 1;
                    if slot.done == p {
                        slots.remove(&key);
                    }
                    return;
                }
            }
            slots = self.core.cond.wait(slots).unwrap();
        }
    }

    fn meter_snapshot(&self) -> MeterSnapshot {
        self.core.meter.snapshot()
    }
}

#[cfg(test)]
fn backends() -> [CommOptions; 2] {
    [
        CommOptions { backend: ThreadCommBackend::Ring, ..CommOptions::default() },
        CommOptions { backend: ThreadCommBackend::Mutex, ..CommOptions::default() },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_sum_all_ranks() {
        for opts in backends() {
            let results = ThreadComm::run_with(4, opts, |comm| {
                let mut buf = vec![(comm.rank() + 1) as f32; 3];
                comm.allreduce(&mut buf, ReduceOp::Sum);
                buf
            });
            for r in results {
                assert_eq!(r, vec![10.0; 3]); // 1+2+3+4
            }
        }
    }

    #[test]
    fn allreduce_avg() {
        for opts in backends() {
            let results = ThreadComm::run_with(5, opts, |comm| {
                let mut buf = vec![comm.rank() as f32];
                comm.allreduce(&mut buf, ReduceOp::Avg);
                buf[0]
            });
            for r in results {
                assert!((r - 2.0).abs() < 1e-6); // (0+1+2+3+4)/5
            }
        }
    }

    #[test]
    fn allreduce_max() {
        for opts in backends() {
            let results = ThreadComm::run_with(3, opts, |comm| {
                let mut buf = vec![-(comm.rank() as f32), comm.rank() as f32];
                comm.allreduce(&mut buf, ReduceOp::Max);
                buf
            });
            for r in results {
                assert_eq!(r, vec![0.0, 2.0]);
            }
        }
    }

    #[test]
    fn broadcast_from_each_root() {
        for opts in backends() {
            for root in 0..3 {
                let results = ThreadComm::run_with(3, opts.clone(), move |comm| {
                    let mut buf =
                        if comm.rank() == root { vec![42.0, root as f32] } else { vec![0.0, 0.0] };
                    comm.broadcast(&mut buf, root);
                    buf
                });
                for r in results {
                    assert_eq!(r, vec![42.0, root as f32]);
                }
            }
        }
    }

    #[test]
    fn broadcast_disjoint_groups_concurrently() {
        // The HYBRID-OPT pattern: two disjoint broadcast groups running
        // simultaneously must not interfere.
        for opts in backends() {
            let results = ThreadComm::run_with(4, opts, |comm| {
                let (group, root, value) = if comm.rank() < 2 {
                    (vec![0usize, 1], 0usize, 7.0f32)
                } else {
                    (vec![2usize, 3], 3usize, 9.0f32)
                };
                let mut buf = if comm.rank() == root { vec![value] } else { vec![0.0] };
                comm.broadcast_group(&mut buf, root, &group);
                buf[0]
            });
            assert_eq!(results, vec![7.0, 7.0, 9.0, 9.0]);
        }
    }

    #[test]
    fn allreduce_subgroup() {
        for opts in backends() {
            let results = ThreadComm::run_with(4, opts, |comm| {
                if comm.rank() % 2 == 0 {
                    let mut buf = vec![comm.rank() as f32];
                    comm.allreduce_group(&mut buf, ReduceOp::Sum, &[0, 2]);
                    Some(buf[0])
                } else {
                    None
                }
            });
            assert_eq!(results[0], Some(2.0));
            assert_eq!(results[2], Some(2.0));
        }
    }

    #[test]
    fn allgather_rank_order() {
        for opts in backends() {
            let results = ThreadComm::run_with(3, opts, |comm| {
                comm.allgather(&[comm.rank() as f32 * 10.0, 1.0])
            });
            for r in results {
                assert_eq!(r, vec![0.0, 1.0, 10.0, 1.0, 20.0, 1.0]);
            }
        }
    }

    #[test]
    fn repeated_collectives_in_order() {
        // Back-to-back collectives on the same group must match pairwise.
        for opts in backends() {
            let results = ThreadComm::run_with(4, opts, |comm| {
                let mut out = Vec::new();
                for round in 0..10 {
                    let mut buf = vec![(comm.rank() + round) as f32];
                    comm.allreduce(&mut buf, ReduceOp::Sum);
                    out.push(buf[0]);
                }
                out
            });
            for r in &results {
                for (round, &v) in r.iter().enumerate() {
                    assert_eq!(v, (6 + 4 * round) as f32);
                }
            }
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for opts in backends() {
            let counter = AtomicUsize::new(0);
            ThreadComm::run_with(8, opts, |comm| {
                counter.fetch_add(1, Ordering::SeqCst);
                comm.barrier();
                // After the barrier, every rank's increment must be visible.
                assert_eq!(counter.load(Ordering::SeqCst), 8);
            });
        }
    }

    #[test]
    fn meter_counts_collectives_identically_across_backends() {
        let mut snaps = Vec::new();
        for opts in backends() {
            let comms = ThreadComm::world_with(2, opts);
            std::thread::scope(|s| {
                for comm in &comms {
                    s.spawn(move || {
                        let mut buf = vec![1.0f32; 16];
                        comm.allreduce(&mut buf, ReduceOp::Sum);
                        comm.broadcast(&mut buf, 0);
                    });
                }
            });
            let snap = comms[0].meter_snapshot();
            assert_eq!(snap.calls(CommOp::Allreduce), 1);
            assert_eq!(snap.calls(CommOp::Broadcast), 1);
            assert_eq!(snap.bytes(CommOp::Allreduce), 64);
            assert!(snap.simulated_seconds > 0.0);
            snaps.push(snap);
        }
        // Satellite guarantee: metered traffic is backend-invariant.
        assert_eq!(snaps[0], snaps[1], "ring and mutex backends must meter identical traffic");
    }

    #[test]
    fn world_of_one_is_noop() {
        for opts in backends() {
            let results = ThreadComm::run_with(1, opts, |comm| {
                let mut buf = vec![5.0f32];
                comm.allreduce(&mut buf, ReduceOp::Sum);
                comm.broadcast(&mut buf, 0);
                comm.barrier();
                let g = comm.allgather(&buf);
                (buf[0], g)
            });
            assert_eq!(results[0], (5.0, vec![5.0]));
        }
    }

    #[test]
    fn many_ranks_stress() {
        let n = 16;
        for opts in backends() {
            let results = ThreadComm::run_with(n, opts, |comm| {
                let mut acc = 0.0f32;
                for _ in 0..50 {
                    let mut buf = vec![1.0f32; 4];
                    comm.allreduce(&mut buf, ReduceOp::Sum);
                    acc += buf[0];
                }
                acc
            });
            for r in results {
                assert_eq!(r, 50.0 * n as f32);
            }
        }
    }

    #[test]
    fn backend_accessor_reports_engine() {
        let ring = ThreadComm::world_with(
            2,
            CommOptions { backend: ThreadCommBackend::Ring, ..CommOptions::default() },
        );
        assert_eq!(ring[0].backend(), ThreadCommBackend::Ring);
        let mutex = ThreadComm::world_with(
            2,
            CommOptions { backend: ThreadCommBackend::Mutex, ..CommOptions::default() },
        );
        assert_eq!(mutex[1].backend(), ThreadCommBackend::Mutex);
    }
}

#[cfg(test)]
mod pending_tests {
    use super::*;

    #[test]
    fn begin_allreduce_overlaps_local_work() {
        for opts in backends() {
            let results = ThreadComm::run_with(4, opts, |comm| {
                let contribution = vec![(comm.rank() + 1) as f32; 8];
                let pending = comm.begin_allreduce(
                    &contribution,
                    ReduceOp::Sum,
                    &[0, 1, 2, 3],
                    CommTag::FactorComm,
                );
                // Local "compute" overlapped with the in-flight collective.
                let local: f32 = (0..100).map(|i| i as f32).sum();
                let mut out = vec![0.0f32; 8];
                comm.complete(pending, &mut out);
                (local, out)
            });
            for (local, out) in results {
                assert_eq!(local, 4950.0);
                assert_eq!(out, vec![10.0; 8]);
            }
        }
    }

    #[test]
    fn begin_broadcast_root_is_immediate() {
        for opts in backends() {
            let results = ThreadComm::run_with(3, opts, |comm| {
                let mut buf = if comm.rank() == 1 { vec![3.0f32, 4.0] } else { vec![0.0f32; 2] };
                let pending = comm.begin_broadcast(&buf, 1, &[0, 1, 2], CommTag::EigComm);
                comm.complete(pending, &mut buf);
                buf
            });
            for r in results {
                assert_eq!(r, vec![3.0, 4.0]);
            }
        }
    }

    #[test]
    fn split_and_blocking_forms_match_bitwise_on_both_backends() {
        // Awkward float values whose sum depends on association order; the
        // split path must reduce in exactly the same order as blocking, and
        // both backends in exactly the same order as each other.
        let mut all: Vec<Vec<Vec<u32>>> = Vec::new();
        for opts in backends() {
            let blocking = ThreadComm::run_with(4, opts.clone(), |comm| {
                let mut buf: Vec<f32> =
                    (0..16).map(|i| 0.1 + comm.rank() as f32 * 1e-7 + i as f32 * 0.3).collect();
                comm.allreduce(&mut buf, ReduceOp::Avg);
                buf
            });
            let split = ThreadComm::run_with(4, opts, |comm| {
                let contribution: Vec<f32> =
                    (0..16).map(|i| 0.1 + comm.rank() as f32 * 1e-7 + i as f32 * 0.3).collect();
                let pending = comm.begin_allreduce(
                    &contribution,
                    ReduceOp::Avg,
                    &[0, 1, 2, 3],
                    CommTag::Untagged,
                );
                let mut out = vec![0.0f32; 16];
                comm.complete(pending, &mut out);
                out
            });
            let bits = |rows: &[Vec<f32>]| -> Vec<Vec<u32>> {
                rows.iter().map(|r| r.iter().map(|v| v.to_bits()).collect()).collect()
            };
            assert_eq!(bits(&blocking), bits(&split));
            all.push(bits(&blocking));
        }
        assert_eq!(all[0], all[1], "ring and mutex backends must agree bitwise");
    }

    #[test]
    fn multiple_in_flight_collectives_complete_out_of_order() {
        // Begin several collectives on different groups, then complete them
        // in reverse order — the per-group sequence numbers keep matching
        // correct.
        for opts in backends() {
            let results = ThreadComm::run_with(4, opts, |comm| {
                let mine = vec![comm.rank() as f32 + 1.0; 4];
                let p_world =
                    comm.begin_allreduce(&mine, ReduceOp::Sum, &[0, 1, 2, 3], CommTag::FactorComm);
                let pair = if comm.rank() < 2 { vec![0usize, 1] } else { vec![2usize, 3] };
                let p_pair = comm.begin_allreduce(&mine, ReduceOp::Sum, &pair, CommTag::GradComm);
                let mut pair_out = vec![0.0f32; 4];
                let mut world_out = vec![0.0f32; 4];
                comm.complete(p_pair, &mut pair_out);
                comm.complete(p_world, &mut world_out);
                (pair_out[0], world_out[0])
            });
            assert_eq!(results, vec![(3.0, 10.0), (3.0, 10.0), (7.0, 10.0), (7.0, 10.0)]);
        }
    }

    #[test]
    fn meter_attributes_bytes_to_tags_identically_across_backends() {
        let mut snaps = Vec::new();
        for opts in backends() {
            let comms = ThreadComm::world_with(2, opts);
            std::thread::scope(|s| {
                for comm in &comms {
                    s.spawn(move || {
                        let buf = vec![1.0f32; 16]; // 64 bytes
                        let p =
                            comm.begin_allreduce(&buf, ReduceOp::Sum, &[0, 1], CommTag::FactorComm);
                        let mut out = vec![0.0f32; 16];
                        comm.complete(p, &mut out);
                        let p = comm.begin_broadcast(&out, 0, &[0, 1], CommTag::GradComm);
                        comm.complete(p, &mut out);
                    });
                }
            });
            let snap = comms[0].meter_snapshot();
            assert_eq!(snap.tag_bytes(CommTag::FactorComm), 64);
            assert_eq!(snap.tag_bytes(CommTag::GradComm), 64);
            assert_eq!(snap.tag_bytes(CommTag::EigComm), 0);
            assert_eq!(snap.tag_calls(CommTag::FactorComm), 1);
            snaps.push(snap);
        }
        // Satellite guarantee: tag attribution is backend-invariant.
        assert_eq!(snaps[0], snaps[1], "ring and mutex backends must meter identical traffic");
    }
}

#[cfg(test)]
mod reduce_scatter_tests {
    use super::*;

    #[test]
    fn reduce_scatter_sums_and_slices() {
        for opts in backends() {
            let results = ThreadComm::run_with(4, opts, |comm| {
                // Each rank contributes [rank, rank, ..] over 4 chunks of 2.
                let send = vec![comm.rank() as f32; 8];
                comm.reduce_scatter(&send)
            });
            // Sum over ranks = 0+1+2+3 = 6 everywhere; each rank gets its
            // chunk.
            for (rank, out) in results.iter().enumerate() {
                assert_eq!(out, &vec![6.0; 2], "rank {rank}");
            }
        }
    }

    #[test]
    fn reduce_scatter_distinct_chunks() {
        for opts in backends() {
            let results = ThreadComm::run_with(2, opts, |comm| {
                // Rank r sends [r*10, r*10+1, r*10+2, r*10+3].
                let send: Vec<f32> = (0..4).map(|i| (comm.rank() * 10 + i) as f32).collect();
                comm.reduce_scatter(&send)
            });
            // Sums: [10, 12, 14, 16]; rank 0 gets [10, 12], rank 1 [14, 16].
            assert_eq!(results[0], vec![10.0, 12.0]);
            assert_eq!(results[1], vec![14.0, 16.0]);
        }
    }

    #[test]
    fn reduce_scatter_world_one() {
        for opts in backends() {
            let results = ThreadComm::run_with(1, opts, |comm| comm.reduce_scatter(&[1.0, 2.0]));
            assert_eq!(results[0], vec![1.0, 2.0]);
        }
    }

    #[test]
    fn reduce_scatter_pads_and_trims_non_divisible_lengths() {
        // 7 elements over 3 ranks: chunk = ⌈7/3⌉ = 3, so the split is
        // [0..3), [3..6), [6..7).
        for opts in backends() {
            let results = ThreadComm::run_with(3, opts, |comm| {
                let send: Vec<f32> = (0..7).map(|i| (comm.rank() + i) as f32).collect();
                comm.reduce_scatter(&send)
            });
            // Sum over ranks of (r + i) = 3i + 3.
            assert_eq!(results[0], vec![3.0, 6.0, 9.0]);
            assert_eq!(results[1], vec![12.0, 15.0, 18.0]);
            assert_eq!(results[2], vec![21.0]);
        }
    }

    #[test]
    fn reduce_scatter_trailing_rank_can_own_nothing() {
        // 2 elements over 4 ranks: chunk = 1; ranks 2 and 3 own nothing.
        for opts in backends() {
            let results = ThreadComm::run_with(4, opts, |comm| comm.reduce_scatter(&[1.0, 2.0]));
            assert_eq!(results[0], vec![4.0]);
            assert_eq!(results[1], vec![8.0]);
            assert_eq!(results[2], Vec::<f32>::new());
            assert_eq!(results[3], Vec::<f32>::new());
        }
    }

    #[test]
    fn begin_reduce_scatter_matches_allreduce_slice_bitwise() {
        // Awkward floats whose sum depends on association order: a shard of
        // the reduce-scatter must be bit-identical to the same slice of an
        // allreduce over the same group — on both backends.
        let mk = |rank: usize| -> Vec<f32> {
            (0..12).map(|i| 0.1 + rank as f32 * 1e-7 + i as f32 * 0.3).collect()
        };
        for opts in backends() {
            let reference = ThreadComm::run_with(4, opts.clone(), |comm| {
                let mut buf = mk(comm.rank());
                comm.allreduce(&mut buf, ReduceOp::Avg);
                buf
            });
            let sharded = ThreadComm::run_with(4, opts, |comm| {
                let buf = mk(comm.rank());
                // Uneven, multi-shard ownership: rank 1 owns two shards.
                let shards = [
                    ShardSpec { owner: 1, start: 0, len: 5 },
                    ShardSpec { owner: 0, start: 5, len: 2 },
                    ShardSpec { owner: 1, start: 7, len: 1 },
                    ShardSpec { owner: 3, start: 8, len: 4 },
                ];
                let pending = comm.begin_reduce_scatter(
                    &buf,
                    ReduceOp::Avg,
                    &[0, 1, 2, 3],
                    &shards,
                    CommTag::FactorReduce,
                );
                let owned: usize =
                    shards.iter().filter(|s| s.owner == comm.rank()).map(|s| s.len).sum();
                let mut out = vec![0.0f32; owned];
                comm.complete(pending, &mut out);
                out
            });
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sharded[0]), bits(&reference[0][5..7]));
            let rank1: Vec<f32> =
                reference[1][0..5].iter().chain(&reference[1][7..8]).copied().collect();
            assert_eq!(bits(&sharded[1]), bits(&rank1));
            assert_eq!(sharded[2], Vec::<f32>::new());
            assert_eq!(bits(&sharded[3]), bits(&reference[3][8..12]));
        }
    }

    #[test]
    fn begin_allgather_concatenates_variable_lengths_in_rank_order() {
        for opts in backends() {
            let results = ThreadComm::run_with(3, opts, |comm| {
                // Rank r contributes r+1 copies of r·10, but only ranks 0
                // and 2 participate in the group.
                if comm.rank() == 1 {
                    return Vec::new();
                }
                let send = vec![comm.rank() as f32 * 10.0; comm.rank() + 1];
                let pending = comm.begin_allgather(&send, &[0, 2], CommTag::FactorGather);
                let mut out = vec![0.0f32; 4];
                comm.complete(pending, &mut out);
                out
            });
            assert_eq!(results[0], vec![0.0, 20.0, 20.0, 20.0]);
            assert_eq!(results[2], vec![0.0, 20.0, 20.0, 20.0]);
        }
    }

    #[test]
    fn meter_counts_reduce_scatter_once_with_half_volume() {
        for opts in backends() {
            let comms = ThreadComm::world_with(4, opts);
            std::thread::scope(|s| {
                for comm in &comms {
                    s.spawn(move || {
                        let send = vec![1.0f32; 16]; // 64 bytes
                        let _ = comm.reduce_scatter(&send);
                    });
                }
            });
            let snap = comms[0].meter_snapshot();
            // One event for the whole collective (not one per rank), charged
            // the reduce half of a ring allreduce: 64/2 = 32 bytes.
            assert_eq!(snap.calls(CommOp::ReduceScatter), 1);
            assert_eq!(snap.bytes(CommOp::ReduceScatter), 32);
            assert_eq!(snap.calls(CommOp::Allreduce), 0);
        }
    }
}
