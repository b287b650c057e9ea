//! Thread-rank communicator: ranks are OS threads, collectives run on
//! lock-free SPSC rings between them.
//!
//! Every collective has deterministic rank-ordered reductions, MPI matching
//! order per group and the non-blocking `begin_*`/`complete` split. See
//! `crates/comm/src/ring_comm.rs` for the ring protocol.

use std::sync::{Arc, Mutex};

use crate::group::{GroupTable, HandleGroups};
use crate::meter::{CommEvent, CommOp, CommTag, Meter, MeterSnapshot};
use crate::ring_comm::{self, OpKind, RingHandle, RingShared, Role};
use crate::{CollectiveCostModel, Communicator, PendingCollective, ReduceOp, ShardSpec};

struct CommCore {
    world: usize,
    /// World-shared group interner: every rank maps the same member set to
    /// the same [`crate::group::GroupId`], so ids double as ring wire keys.
    groups: GroupTable,
    /// Park/unpark plumbing shared by every rank's ring endpoints.
    ring: RingShared,
    meter: Meter,
    cost: CollectiveCostModel,
}

/// Rank-local mutable state (interior mutability because trait methods take
/// `&self`; uncontended — one thread per handle, so this lock never blocks).
struct HandleState {
    /// Group intern cache + matching-order sequence counters.
    groups: HandleGroups,
    /// This rank's ring endpoints.
    ring: RingHandle,
    /// Precomputed `[0, world)` so world collectives skip the allocation.
    world_group: Vec<usize>,
}

/// A communicator whose ranks are OS threads within this process.
///
/// Create a full world with [`ThreadComm::world`] (one handle per rank) or
/// run a closure on every rank with [`ThreadComm::run`]. Handles share the
/// group table and the traffic meter, whose simulated clock is the default
/// [`CollectiveCostModel`]; each handle is owned by exactly one thread.
///
/// Collectives come in blocking form ([`Communicator::allreduce_group`],
/// [`Communicator::broadcast_group`]) and split begin/complete form
/// ([`Communicator::begin_allreduce`], [`Communicator::begin_broadcast`],
/// [`Communicator::complete`]). The blocking form is implemented as
/// begin-then-complete, so both paths share one code path and produce
/// bitwise-identical results. `begin_*` never blocks on a peer: an
/// allreduce contribution is pushed to the group leader's ring, and a
/// broadcast root pushes its payload to every member immediately.
pub struct ThreadComm {
    rank: usize,
    core: Arc<CommCore>,
    state: Mutex<HandleState>,
}

impl ThreadComm {
    /// Create handles for a world of `n` ranks.
    pub fn world(n: usize) -> Vec<ThreadComm> {
        assert!(n > 0, "world size must be positive");
        let core = Arc::new(CommCore {
            world: n,
            groups: GroupTable::default(),
            ring: RingShared::new(n),
            meter: Meter::new(),
            cost: CollectiveCostModel::default(),
        });
        ring_comm::build_mesh(n)
            .into_iter()
            .enumerate()
            .map(|(rank, ring)| ThreadComm {
                rank,
                core: Arc::clone(&core),
                state: Mutex::new(HandleState {
                    groups: HandleGroups::new(rank, n),
                    ring,
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
        let comms = Self::world(n);
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = comms.iter().map(|comm| scope.spawn(move || f(comm))).collect();
            handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
        })
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
        if members.len() == 1 {
            // Sum/Avg/Max over a singleton group is the identity.
            return PendingCollective::ready(buf.to_vec(), tag);
        }
        let key = (gid, st.groups.next_seq(gid));
        st.ring.begin_to_leader(&self.core.ring, key, OpKind::Allreduce(op), buf, members, tag);
        PendingCollective::in_flight(key, tag)
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
        if self.rank != root {
            st.ring.insert_role(gid, seq, Role::Member { src: root });
            return PendingCollective::in_flight((gid, seq), tag);
        }
        let bytes = std::mem::size_of_val(buf);
        self.core.meter.record(CommEvent {
            op: CommOp::Broadcast,
            bytes,
            group_size: p,
            seconds: self.core.cost.broadcast(bytes, p),
            tag,
        });
        st.ring.scatter_payload(&self.core.ring, gid, seq, &members, buf);
        // The root's buffer already holds the payload.
        PendingCollective::noop(tag)
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
        let core = &*self.core;
        let payload = self.state.lock().unwrap().ring.complete_vec(
            &core.ring,
            &core.meter,
            &core.cost,
            gid,
            seq,
        );
        match &ticket.shard {
            // Reduce-scatter: the engine delivered the full reduction (one
            // shared `Arc`); copy out this rank's owned ranges.
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
    }

    fn allgather(&self, send: &[f32]) -> Vec<f32> {
        let mut st = self.state.lock().unwrap();
        let HandleState { groups, ring, world_group } = &mut *st;
        let (gid, members) = groups.resolve(&self.core.groups, world_group);
        if members.len() == 1 {
            return send.to_vec();
        }
        let seq = groups.next_seq(gid);
        let core = &*self.core;
        let kind = OpKind::AllgatherBlocking;
        ring.begin_to_leader(&core.ring, (gid, seq), kind, send, members, CommTag::Untagged);
        ring.complete_vec(&core.ring, &core.meter, &core.cost, gid, seq).to_vec()
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
        if members.len() == 1 {
            let owned: Vec<f32> = ranges
                .iter()
                .flat_map(|&(start, len)| buf[start..start + len].iter().copied())
                .collect();
            return PendingCollective::ready(owned, tag);
        }
        let seq = st.groups.next_seq(gid);
        let kind = OpKind::ReduceScatter(op);
        st.ring.begin_to_leader(&self.core.ring, (gid, seq), kind, buf, members, tag);
        // The leader shares one full-result `Arc` with every member; the
        // ticket's ranges slice out this rank's shards at `complete`.
        PendingCollective::in_flight_sharded((gid, seq), tag, ranges)
    }

    fn begin_allgather(&self, buf: &[f32], group: &[usize], tag: CommTag) -> PendingCollective {
        let mut st = self.state.lock().unwrap();
        let (gid, members) = st.groups.resolve(&self.core.groups, group);
        if members.len() == 1 {
            return PendingCollective::ready(buf.to_vec(), tag);
        }
        let key = (gid, st.groups.next_seq(gid));
        st.ring.begin_to_leader(&self.core.ring, key, OpKind::AllgatherBegin, buf, members, tag);
        PendingCollective::in_flight(key, tag)
    }

    fn barrier(&self) {
        let mut st = self.state.lock().unwrap();
        let HandleState { groups, ring, world_group } = &mut *st;
        let (gid, members) = groups.resolve(&self.core.groups, world_group);
        let p = members.len();
        if p == 1 {
            return;
        }
        // Barriers consume a matching-order slot like every collective.
        groups.next_seq(gid);
        // Sense-reversing atomic barrier — no messages; the last arriver
        // meters the collective once, before it releases its peers.
        ring.barrier(&self.core.ring, gid, p, || {
            self.core.meter.record(CommEvent {
                op: CommOp::Barrier,
                bytes: 0,
                group_size: p,
                seconds: self.core.cost.barrier(p),
                tag: CommTag::Untagged,
            });
        });
    }

    fn meter_snapshot(&self) -> MeterSnapshot {
        self.core.meter.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_sum_all_ranks() {
        let results = ThreadComm::run(4, |comm| {
            let mut buf = vec![(comm.rank() + 1) as f32; 3];
            comm.allreduce(&mut buf, ReduceOp::Sum);
            buf
        });
        for r in results {
            assert_eq!(r, vec![10.0; 3]); // 1+2+3+4
        }
    }

    #[test]
    fn allreduce_avg() {
        let results = ThreadComm::run(5, |comm| {
            let mut buf = vec![comm.rank() as f32];
            comm.allreduce(&mut buf, ReduceOp::Avg);
            buf[0]
        });
        for r in results {
            assert!((r - 2.0).abs() < 1e-6); // (0+1+2+3+4)/5
        }
    }

    #[test]
    fn allreduce_max() {
        let results = ThreadComm::run(3, |comm| {
            let mut buf = vec![-(comm.rank() as f32), comm.rank() as f32];
            comm.allreduce(&mut buf, ReduceOp::Max);
            buf
        });
        for r in results {
            assert_eq!(r, vec![0.0, 2.0]);
        }
    }

    #[test]
    fn broadcast_from_each_root() {
        for root in 0..3 {
            let results = ThreadComm::run(3, move |comm| {
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

    #[test]
    fn broadcast_disjoint_groups_concurrently() {
        // The HYBRID-OPT pattern: two disjoint broadcast groups running
        // simultaneously must not interfere.
        let results = ThreadComm::run(4, |comm| {
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

    #[test]
    fn allreduce_subgroup() {
        let results = ThreadComm::run(4, |comm| {
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

    #[test]
    fn allgather_rank_order() {
        let results = ThreadComm::run(3, |comm| comm.allgather(&[comm.rank() as f32 * 10.0, 1.0]));
        for r in results {
            assert_eq!(r, vec![0.0, 1.0, 10.0, 1.0, 20.0, 1.0]);
        }
    }

    #[test]
    fn repeated_collectives_in_order() {
        // Back-to-back collectives on the same group must match pairwise.
        let results = ThreadComm::run(4, |comm| {
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

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        ThreadComm::run(8, |comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier, every rank's increment must be visible.
            assert_eq!(counter.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn meter_counts_collectives_identically_across_backends() {
        // One blocking collective of each kind at world 3, metered once per
        // collective (not per rank) under these byte conventions:
        // allreduce and broadcast charge the payload, a blocking allgather
        // one rank's contribution, a begun allgather half the gathered
        // total, a reduce-scatter half the payload, a barrier nothing. The
        // simulated clock charges the default α–β model for each.
        let comms = ThreadComm::world(3);
        std::thread::scope(|s| {
            for comm in &comms {
                s.spawn(move || {
                    let mut buf = vec![1.0f32; 16]; // 64 bytes
                    comm.allreduce(&mut buf, ReduceOp::Sum);
                    comm.broadcast(&mut buf, 2);
                    let _ = comm.allgather(&buf[..4]); // 16 bytes per rank
                                                       // 1 + 2 + 3 = 6 elements gathered: 24 bytes in total.
                    let part = vec![1.0f32; comm.rank() + 1];
                    let p = comm.begin_allgather(&part, &[0, 1, 2], CommTag::FactorGather);
                    let mut gathered = vec![0.0f32; 6];
                    comm.complete(p, &mut gathered);
                    let _ = comm.reduce_scatter(&buf);
                    comm.barrier();
                });
            }
        });
        let snap = comms[0].meter_snapshot();
        let cost = CollectiveCostModel::default();
        let expected = [
            (CommOp::Allreduce, 1, 64, cost.allreduce(64, 3)),
            (CommOp::Broadcast, 1, 64, cost.broadcast(64, 3)),
            (CommOp::Allgather, 2, 16 + 12, cost.allgather(16, 3) + cost.allgather(8, 3)),
            (CommOp::ReduceScatter, 1, 32, cost.reduce_scatter(64, 3)),
            (CommOp::Barrier, 1, 0, cost.barrier(3)),
        ];
        for (op, calls, bytes, seconds) in expected {
            assert_eq!(snap.calls(op), calls, "{op:?} calls");
            assert_eq!(snap.bytes(op), bytes, "{op:?} bytes");
            // The meter stores whole nanoseconds per event.
            assert!((snap.seconds(op) - seconds).abs() < 4e-9, "{op:?} seconds");
        }
        assert_eq!(snap.tag_calls(CommTag::FactorGather), 1);
        assert_eq!(snap.tag_bytes(CommTag::FactorGather), 12);
        assert_eq!(snap.tag_calls(CommTag::Untagged), 5);
        assert_eq!(snap.tag_bytes(CommTag::Untagged), 64 + 64 + 16 + 32);
        // Every handle reads the one world-shared meter.
        assert_eq!(comms[2].meter_snapshot(), snap);
    }

    #[test]
    fn world_of_one_is_noop() {
        let results = ThreadComm::run(1, |comm| {
            let mut buf = vec![5.0f32];
            comm.allreduce(&mut buf, ReduceOp::Sum);
            comm.broadcast(&mut buf, 0);
            comm.barrier();
            let g = comm.allgather(&buf);
            (buf[0], g, comm.meter_snapshot().total_bytes())
        });
        assert_eq!(results[0], (5.0, vec![5.0], 0));
    }

    #[test]
    fn many_ranks_stress() {
        let n = 16;
        let results = ThreadComm::run(n, |comm| {
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

#[cfg(test)]
mod pending_tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Awkward floats whose sum depends on association order.
    fn awkward(rank: usize, salt: usize, len: usize) -> Vec<f32> {
        (0..len).map(|i| 0.1 + rank as f32 * 1e-7 + (i + salt) as f32 * 0.3).collect()
    }

    /// The rank-ordered sum of every rank's contribution.
    fn rank_order_sum(parts: &[Vec<f32>]) -> Vec<f32> {
        let mut acc = parts[0].clone();
        for part in &parts[1..] {
            for (a, b) in acc.iter_mut().zip(part) {
                *a += *b;
            }
        }
        acc
    }

    #[test]
    fn begin_allreduce_overlaps_local_work() {
        let results = ThreadComm::run(4, |comm| {
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

    #[test]
    fn begin_broadcast_root_is_immediate() {
        let results = ThreadComm::run(3, |comm| {
            let mut buf = if comm.rank() == 1 { vec![3.0f32, 4.0] } else { vec![0.0f32; 2] };
            let pending = comm.begin_broadcast(&buf, 1, &[0, 1, 2], CommTag::EigComm);
            comm.complete(pending, &mut buf);
            buf
        });
        for r in results {
            assert_eq!(r, vec![3.0, 4.0]);
        }
    }

    #[test]
    fn split_and_blocking_forms_match_bitwise_on_both_backends() {
        // The split path must reduce in exactly the same order as the
        // blocking one.
        let blocking = ThreadComm::run(4, |comm| {
            let mut buf = awkward(comm.rank(), 0, 16);
            comm.allreduce(&mut buf, ReduceOp::Avg);
            bits(&buf)
        });
        let split = ThreadComm::run(4, |comm| {
            let contribution = awkward(comm.rank(), 0, 16);
            let pending = comm.begin_allreduce(
                &contribution,
                ReduceOp::Avg,
                &[0, 1, 2, 3],
                CommTag::Untagged,
            );
            let mut out = vec![0.0f32; 16];
            comm.complete(pending, &mut out);
            bits(&out)
        });
        assert_eq!(blocking, split);
    }

    #[test]
    fn multiple_in_flight_collectives_complete_out_of_order() {
        // Begin several collectives on different groups, then complete them
        // in reverse order — the per-group sequence numbers keep matching
        // correct.
        let results = ThreadComm::run(4, |comm| {
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

    #[test]
    fn meter_attributes_bytes_to_tags_identically_across_backends() {
        let comms = ThreadComm::world(2);
        std::thread::scope(|s| {
            for comm in &comms {
                s.spawn(move || {
                    let buf = vec![1.0f32; 16]; // 64 bytes
                    let p = comm.begin_allreduce(&buf, ReduceOp::Sum, &[0, 1], CommTag::FactorComm);
                    let mut out = vec![0.0f32; 16];
                    comm.complete(p, &mut out);
                    let p = comm.begin_broadcast(&out, 0, &[0, 1], CommTag::GradComm);
                    comm.complete(p, &mut out);
                    let shards = [ShardSpec { owner: 1, start: 0, len: 16 }];
                    let p = comm.begin_reduce_scatter(
                        &buf,
                        ReduceOp::Sum,
                        &[0, 1],
                        &shards,
                        CommTag::FactorReduce,
                    );
                    comm.complete(p, &mut out[..if comm.rank() == 1 { 16 } else { 0 }]);
                });
            }
        });
        let snap = comms[0].meter_snapshot();
        assert_eq!(snap.tag_bytes(CommTag::FactorComm), 64);
        assert_eq!(snap.tag_bytes(CommTag::GradComm), 64);
        assert_eq!(snap.tag_bytes(CommTag::FactorReduce), 32);
        assert_eq!(snap.tag_bytes(CommTag::EigComm), 0);
        assert_eq!(snap.tag_calls(CommTag::FactorComm), 1);
        assert_eq!(snap.tag_calls(CommTag::GradComm), 1);
        assert_eq!(snap.tag_calls(CommTag::FactorReduce), 1);
        assert_eq!(snap.tag_calls(CommTag::Untagged), 0);
    }

    #[test]
    fn mutually_full_rings_drain_instead_of_deadlocking() {
        // More collectives in flight than a ring holds, in both directions
        // at once: rank 1 fills 1→0 with allreduce contributions while rank
        // 0 fills 0→1 with broadcast payloads. Each side's push can only
        // progress because it drains its own inbound ring while it waits.
        const PAIRS: usize = 600;
        const _: () = assert!(PAIRS > ring_comm::RING_CAPACITY);
        let payload = |k: usize| vec![k as f32, 0.5 - k as f32];
        let results = ThreadComm::run(2, |comm| {
            let handles: Vec<_> = (0..PAIRS)
                .map(|k| {
                    let mine = awkward(comm.rank(), k, 2);
                    let sum =
                        comm.begin_allreduce(&mine, ReduceOp::Sum, &[0, 1], CommTag::FactorComm);
                    let root = if comm.rank() == 0 { payload(k) } else { vec![0.0; 2] };
                    let bcast = comm.begin_broadcast(&root, 0, &[0, 1], CommTag::EigComm);
                    (sum, bcast, root)
                })
                .collect();
            let mut out = Vec::with_capacity(PAIRS);
            for (sum, bcast, mut root) in handles {
                let mut reduced = vec![0.0f32; 2];
                comm.complete(sum, &mut reduced);
                comm.complete(bcast, &mut root);
                out.push((bits(&reduced), root));
            }
            (out, comm.meter_snapshot())
        });
        for (rank, (out, _)) in results.iter().enumerate() {
            for (k, (reduced, bcast)) in out.iter().enumerate() {
                let oracle = rank_order_sum(&[awkward(0, k, 2), awkward(1, k, 2)]);
                assert_eq!(reduced, &bits(&oracle), "rank {rank} allreduce {k}");
                assert_eq!(bcast, &payload(k), "rank {rank} broadcast {k}");
            }
        }
        let snap = &results[1].1;
        assert_eq!(snap.calls(CommOp::Allreduce), PAIRS as u64);
        assert_eq!(snap.calls(CommOp::Broadcast), PAIRS as u64);
    }

    /// All six orders of `[0, 1, 2]`.
    const ORDERS: [[usize; 3]; 6] =
        [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];

    /// Every rank begins three collectives over overlapping groups — a world
    /// allreduce, a subgroup collective, a world reduce-scatter — and
    /// completes them in the order `orders[rank]`. Returns each rank's three
    /// results and the world's meter. Ranks run on detached threads so a
    /// world that wedges (a rank that panics leaves its peers waiting) fails
    /// the test after a deadline instead of hanging it.
    fn three_in_flight(
        world: usize,
        len: usize,
        orders: &[[usize; 3]],
    ) -> (Vec<[Vec<f32>; 3]>, MeterSnapshot) {
        let all: Vec<usize> = (0..world).collect();
        let shards: Vec<ShardSpec> =
            (0..len).map(|i| ShardSpec { owner: i % world, start: i, len: 1 }).collect();
        let (tx, rx) = std::sync::mpsc::channel();
        for comm in ThreadComm::world(world) {
            let (all, shards, order, tx) =
                (all.clone(), shards.clone(), orders[comm.rank()], tx.clone());
            std::thread::spawn(move || {
                let r = comm.rank();
                let mine = awkward(r, 0, len);
                let sum = comm.begin_allreduce(&mine, ReduceOp::Sum, &all, CommTag::FactorComm);
                let sub_buf = if world == 2 && r != 1 {
                    vec![0.0; len]
                } else {
                    awkward(if world == 2 { 9 } else { r }, 1, len)
                };
                let sub = if world == 2 {
                    // Broadcast from the rank that is not the leader; the
                    // root's buffer already holds the result.
                    comm.begin_broadcast(&sub_buf, 1, &all, CommTag::EigComm)
                } else {
                    // Ranks 1 and 2 reduce over their pair; rank 0's group
                    // is itself.
                    let group: &[usize] = if r == 0 { &[0] } else { &[1, 2] };
                    comm.begin_allreduce(&sub_buf, ReduceOp::Sum, group, CommTag::GradComm)
                };
                let mine = awkward(r, 2, len);
                let scatter = comm.begin_reduce_scatter(
                    &mine,
                    ReduceOp::Sum,
                    &all,
                    &shards,
                    CommTag::FactorReduce,
                );
                let owned = shards.iter().filter(|s| s.owner == r).count();
                let mut pending = [Some(sum), Some(sub), Some(scatter)];
                let mut out = [vec![0.0; len], sub_buf, vec![0.0; owned]];
                for i in order {
                    let p = pending[i].take().expect("each collective completes once");
                    comm.complete(p, &mut out[i]);
                }
                tx.send((r, out, comm)).expect("test thread waits for every rank");
            });
        }
        let mut done: Vec<_> = (0..world)
            .map(|_| {
                rx.recv_timeout(std::time::Duration::from_secs(30))
                    .unwrap_or_else(|_| panic!("orders {orders:?}: a rank panicked or hung"))
            })
            .collect();
        done.sort_by_key(|(r, ..)| *r);
        let meter = done[0].2.meter_snapshot();
        (done.into_iter().map(|(_, out, _)| out).collect(), meter)
    }

    #[test]
    fn completion_in_every_order_matches_the_oracle() {
        // Each rank completes the three collectives in each of the 3! orders,
        // independently of its peers: 36 combinations at world 2 and 216 at
        // world 3. Members whose wanted payload is not next in the leader's
        // ring must find it in their stash.
        const LEN: usize = 5;
        for world in [2usize, 3] {
            let sum_of = |salt: usize, ranks: &[usize]| -> Vec<f32> {
                rank_order_sum(&ranks.iter().map(|&r| awkward(r, salt, LEN)).collect::<Vec<_>>())
            };
            let all: Vec<usize> = (0..world).collect();
            let world_sum = bits(&sum_of(0, &all));
            let scatter_sum = sum_of(2, &all);
            for combo in 0..6usize.pow(world as u32) {
                let orders: Vec<[usize; 3]> =
                    (0..world).map(|r| ORDERS[combo / 6usize.pow(r as u32) % 6]).collect();
                let (results, snap) = three_in_flight(world, LEN, &orders);
                let at = format!("world {world} orders {orders:?}");
                for (r, [sum, sub, shard]) in results.iter().enumerate() {
                    assert_eq!(bits(sum), world_sum, "{at} rank {r} allreduce");
                    let sub_oracle = match (world, r) {
                        (2, _) => awkward(9, 1, LEN),
                        (_, 0) => awkward(0, 1, LEN),
                        _ => sum_of(1, &[1, 2]),
                    };
                    assert_eq!(bits(sub), bits(&sub_oracle), "{at} rank {r} subgroup");
                    let owned: Vec<f32> = (r..LEN).step_by(world).map(|i| scatter_sum[i]).collect();
                    assert_eq!(bits(shard), bits(&owned), "{at} rank {r} reduce-scatter");
                }
                // Each collective is metered exactly once (a singleton group
                // is never metered).
                let (allreduces, broadcasts) = if world == 2 { (1, 1) } else { (2, 0) };
                assert_eq!(snap.calls(CommOp::Allreduce), allreduces, "{at}");
                assert_eq!(snap.calls(CommOp::Broadcast), broadcasts, "{at}");
                assert_eq!(snap.calls(CommOp::ReduceScatter), 1, "{at}");
            }
        }
    }
}

#[cfg(test)]
mod reduce_scatter_tests {
    use super::*;

    #[test]
    fn reduce_scatter_sums_and_slices() {
        let results = ThreadComm::run(4, |comm| {
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

    #[test]
    fn reduce_scatter_distinct_chunks() {
        let results = ThreadComm::run(2, |comm| {
            // Rank r sends [r*10, r*10+1, r*10+2, r*10+3].
            let send: Vec<f32> = (0..4).map(|i| (comm.rank() * 10 + i) as f32).collect();
            comm.reduce_scatter(&send)
        });
        // Sums: [10, 12, 14, 16]; rank 0 gets [10, 12], rank 1 [14, 16].
        assert_eq!(results[0], vec![10.0, 12.0]);
        assert_eq!(results[1], vec![14.0, 16.0]);
    }

    #[test]
    fn reduce_scatter_world_one() {
        let results = ThreadComm::run(1, |comm| comm.reduce_scatter(&[1.0, 2.0]));
        assert_eq!(results[0], vec![1.0, 2.0]);
    }

    #[test]
    fn reduce_scatter_pads_and_trims_non_divisible_lengths() {
        // 7 elements over 3 ranks: chunk = ⌈7/3⌉ = 3, so the split is
        // [0..3), [3..6), [6..7).
        let results = ThreadComm::run(3, |comm| {
            let send: Vec<f32> = (0..7).map(|i| (comm.rank() + i) as f32).collect();
            comm.reduce_scatter(&send)
        });
        // Sum over ranks of (r + i) = 3i + 3.
        assert_eq!(results[0], vec![3.0, 6.0, 9.0]);
        assert_eq!(results[1], vec![12.0, 15.0, 18.0]);
        assert_eq!(results[2], vec![21.0]);
    }

    #[test]
    fn reduce_scatter_trailing_rank_can_own_nothing() {
        // 2 elements over 4 ranks: chunk = 1; ranks 2 and 3 own nothing.
        let results = ThreadComm::run(4, |comm| comm.reduce_scatter(&[1.0, 2.0]));
        assert_eq!(results[0], vec![4.0]);
        assert_eq!(results[1], vec![8.0]);
        assert_eq!(results[2], Vec::<f32>::new());
        assert_eq!(results[3], Vec::<f32>::new());
    }

    #[test]
    fn begin_reduce_scatter_matches_allreduce_slice_bitwise() {
        // Awkward floats whose sum depends on association order: a shard of
        // the reduce-scatter must be bit-identical to the same slice of an
        // allreduce over the same group.
        let mk = |rank: usize| -> Vec<f32> {
            (0..12).map(|i| 0.1 + rank as f32 * 1e-7 + i as f32 * 0.3).collect()
        };
        let reference = ThreadComm::run(4, |comm| {
            let mut buf = mk(comm.rank());
            comm.allreduce(&mut buf, ReduceOp::Avg);
            buf
        });
        let sharded = ThreadComm::run(4, |comm| {
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

    #[test]
    fn begin_allgather_concatenates_variable_lengths_in_rank_order() {
        let results = ThreadComm::run(3, |comm| {
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

    #[test]
    fn meter_counts_reduce_scatter_once_with_half_volume() {
        let comms = ThreadComm::world(4);
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
