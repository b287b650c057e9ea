//! Lock-free ring engine for [`crate::ThreadComm`]: collectives built on
//! one SPSC ring per ordered rank pair.
//!
//! ## Topology
//!
//! Every collective on a group `g` elects the *leader* — the lowest member
//! rank. Members push their contribution into their `member→leader` ring at
//! `begin_*` time (never blocking except on ring backpressure); the leader
//! stashes its own contribution locally. At completion the leader drains
//! its rings, reduces the contributions **in ascending rank order** (so
//! results are bitwise identical across thread schedules), meters the
//! collective once, and pushes each member the result it is owed — the full
//! reduction for allreduce, the rank-ordered concatenation for allgather.
//! Barriers send no messages (see [`RingHandle::barrier`]). Broadcast skips
//! the leader: the root pushes its payload straight to every member at begin
//! time.
//!
//! ## Matching
//!
//! Messages carry `(GroupId, seq)`; both come from the shared group
//! interner and the per-handle matching-order counters, so every rank
//! labels the same collective with the same key. Rings are FIFO per pair,
//! but collectives on *different* groups may interleave, so consumers drain
//! greedily into a stash keyed `(gid, seq, src)` and matching pops from the
//! stash. Greedy draining is also what keeps rings short: any rank that
//! waits for anything first empties everything addressed to it. A ring holds
//! [`RING_CAPACITY`] messages; a producer that finds it full drains its own
//! inbound rings while it waits, so two ranks filling each other's rings
//! cannot deadlock.
//!
//! ## Waiting
//!
//! Waits escalate: a bounded [`std::hint::spin_loop`] burst (shrunk
//! drastically when the world is oversubscribed — more ranks than cores —
//! so CI machines don't burn their only core spinning), then
//! [`std::thread::yield_now`], then a timed sleep on the world-shared
//! doorbell condvar. Producers ring the doorbell only when the sleeper
//! count says somebody is actually asleep, so the common push is one fence
//! and one atomic load past the ring write, and one `notify_all` releases
//! every sleeper at once. The lock-free data path never touches the
//! doorbell mutex; it exists purely as the cold-path sleep mechanism.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::group::GroupId;
use crate::meter::{CommEvent, CommOp, CommTag, Meter};
use crate::spsc::{self, CachePadded, Consumer, Producer};
use crate::{CollectiveCostModel, ReduceOp};

/// Messages each ordered rank-pair ring holds (a power of two).
pub(crate) const RING_CAPACITY: usize = 256;

/// One payload in flight on a rank-pair ring. Payloads are `Arc`-shared so
/// a leader distributing one result to `p − 1` members clones a refcount,
/// not the buffer.
#[derive(Debug)]
struct Message {
    gid: GroupId,
    seq: u64,
    data: Arc<[f32]>,
}

/// What a rank still owes / is owed for one in-flight collective.
#[derive(Debug)]
pub(crate) enum Role {
    /// Lowest group member: collects every contribution, reduces in rank
    /// order, meters, and distributes the results.
    Leader { kind: OpKind, own: Arc<[f32]>, members: Arc<[usize]>, tag: CommTag },
    /// Waits for one payload from `src` (the leader, or a broadcast root).
    Member { src: usize },
}

/// Leader-side collective semantics.
#[derive(Debug)]
pub(crate) enum OpKind {
    /// Elementwise reduction, full result to every member.
    Allreduce(ReduceOp),
    /// Rank-ordered concatenation to every member, metered as one rank's
    /// contribution.
    Allgather,
}

/// World-shared half of the ring engine: the sleep doorbell and the spin
/// budget. The rings themselves are distributed into the per-rank
/// [`RingHandle`]s at world construction.
///
/// The doorbell is deliberately *one* condvar for the whole world, not a
/// per-rank parking slot: a leader releasing `p − 1` members costs one
/// `notify_all` (one futex syscall) instead of `p − 1` unparks, which is
/// exactly the wake-batching that makes a condvar rendezvous fast. It is
/// touched only on the cold path — a thread locks it solely after its spin
/// and yield budgets are exhausted, and a producer only when `sleepers`
/// says somebody actually sleeps — so the hot path stays lock-free.
#[derive(Debug)]
pub(crate) struct RingShared {
    doorbell: Mutex<()>,
    doorbell_cv: Condvar,
    /// Threads currently inside (or entering) a doorbell wait.
    sleepers: CachePadded<AtomicUsize>,
    /// Sense-reversing barrier state per group, created on first use. The
    /// map lock is off the hot path: every handle caches the `Arc` after
    /// its first barrier on a group.
    barriers: Mutex<HashMap<GroupId, Arc<BarrierState>>>,
    spin_limit: u32,
    yield_limit: u32,
    park_timeout: Duration,
}

/// Centralized sense-reversing barrier for one group: ranks bump `arrived`,
/// the last one resets it and flips `generation`, everyone else waits for
/// the flip. One `fetch_add` per rank per barrier — no messages, no locks.
#[derive(Debug, Default)]
pub(crate) struct BarrierState {
    arrived: CachePadded<AtomicUsize>,
    generation: CachePadded<AtomicU64>,
}

impl RingShared {
    pub(crate) fn new(world: usize) -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        // Spinning only pays when the peer can actually run concurrently;
        // oversubscribed worlds yield almost immediately (handing the core
        // straight to the producer) and fall back to the doorbell once
        // yielding stops paying.
        let spin_limit = if world <= cores { 4096 } else { 16 };
        RingShared {
            doorbell: Mutex::new(()),
            doorbell_cv: Condvar::new(),
            sleepers: CachePadded(AtomicUsize::new(0)),
            barriers: Mutex::new(HashMap::new()),
            spin_limit,
            yield_limit: spin_limit + 256,
            park_timeout: Duration::from_micros(100),
        }
    }

    /// Announce ring activity to any sleeping rank. The `SeqCst` fence pairs
    /// with the one in [`RingHandle::wait_step`]: either this load sees the
    /// sleeper's registration (and rings the doorbell), or the sleeper's
    /// ring-empty re-check sees the push (and never sleeps) — a wakeup
    /// cannot be lost. When nobody sleeps this is a fence plus one load.
    fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.0.load(Ordering::SeqCst) > 0 {
            // Locking (and immediately dropping) the doorbell serializes
            // against a sleeper between its re-check and its wait, so the
            // notify below cannot slip into that window.
            drop(self.doorbell.lock().unwrap());
            self.doorbell_cv.notify_all();
        }
    }

    /// Fetch (or lazily create) the barrier state for `gid`.
    fn barrier_state(&self, gid: GroupId) -> Arc<BarrierState> {
        Arc::clone(self.barriers.lock().unwrap().entry(gid).or_default())
    }
}

/// Per-rank half of the ring engine: this rank's ring endpoints, the
/// reorder stash, and the in-flight role table. Owned by the rank's
/// [`crate::ThreadComm`] handle (behind its uncontended handle mutex).
#[derive(Debug)]
pub(crate) struct RingHandle {
    rank: usize,
    /// `tx[d]`: producer end of the `self → d` ring (`None` at `d == rank`).
    tx: Vec<Option<Producer<Message>>>,
    /// `rx[s]`: consumer end of the `s → self` ring.
    rx: Vec<Option<Consumer<Message>>>,
    /// Messages drained but not yet claimed, keyed `(gid, seq, src)`.
    stash: HashMap<(GroupId, u64, usize), Arc<[f32]>>,
    /// In-flight collectives this rank participates in, keyed `(gid, seq)`.
    roles: HashMap<(GroupId, u64), Role>,
    /// Per-group barrier state, cached from [`RingShared::barriers`] so the
    /// steady-state barrier never touches the world map lock.
    barrier_cache: HashMap<GroupId, Arc<BarrierState>>,
}

/// Build the full ring mesh for `world` ranks and deal the endpoints out as
/// per-rank handles.
pub(crate) fn build_mesh(world: usize) -> Vec<RingHandle> {
    let mut handles: Vec<RingHandle> = (0..world)
        .map(|rank| RingHandle {
            rank,
            tx: (0..world).map(|_| None).collect(),
            rx: (0..world).map(|_| None).collect(),
            stash: HashMap::new(),
            roles: HashMap::new(),
            barrier_cache: HashMap::new(),
        })
        .collect();
    for src in 0..world {
        for dst in 0..world {
            if src == dst {
                continue;
            }
            let (tx, rx) = spsc::ring::<Message>(RING_CAPACITY);
            handles[src].tx[dst] = Some(tx);
            handles[dst].rx[src] = Some(rx);
        }
    }
    handles
}

impl RingHandle {
    /// Pop everything currently addressed to this rank into the stash.
    fn drain(&mut self) {
        let RingHandle { rx, stash, .. } = self;
        for (src, rx) in rx.iter_mut().enumerate() {
            if let Some(rx) = rx {
                while let Some(msg) = rx.pop() {
                    stash.insert((msg.gid, msg.seq, src), msg.data);
                }
            }
        }
    }

    /// Push with backpressure: if `dst`'s ring is full, drain our own rings
    /// (so a mutually-full pair cannot deadlock) and spin-then-park until a
    /// slot frees.
    fn push(&mut self, shared: &RingShared, dst: usize, msg: Message) {
        self.push_quiet(shared, dst, msg);
        shared.wake();
    }

    /// [`Self::push`] without the doorbell: fan-out loops (a leader
    /// distributing `p − 1` results) push quietly and ring the doorbell
    /// once at the end — one `notify_all` releases every sleeping member.
    fn push_quiet(&mut self, shared: &RingShared, dst: usize, mut msg: Message) {
        let mut spins = 0u32;
        loop {
            match self.tx[dst].as_mut().expect("no self-ring pushes").push(msg) {
                Ok(()) => return,
                Err(back) => msg = back,
            }
            // Announce everything pushed so far before waiting: the consumer
            // whose pop would free our slot may itself be asleep waiting for
            // a message this fan-out already delivered.
            shared.wake();
            self.wait_step(shared, &mut spins);
        }
    }

    /// One beat of the spin/yield/sleep policy: drain, then escalate — busy
    /// spin while the wait is young, yield the core (the fastest handoff to
    /// the producer on an oversubscribed machine), then sleep on the shared
    /// doorbell.
    fn wait_step(&mut self, shared: &RingShared, spins: &mut u32) {
        self.drain();
        if *spins < shared.spin_limit {
            *spins += 1;
            std::hint::spin_loop();
            return;
        }
        if *spins < shared.yield_limit {
            *spins += 1;
            std::thread::yield_now();
            return;
        }
        let guard = shared.doorbell.lock().unwrap();
        shared.sleepers.0.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        // Re-check after registering (fence pairing with `RingShared::wake`):
        // either this check sees a producer's push and we skip the sleep, or
        // the producer's `sleepers` load sees our registration and rings the
        // doorbell — which it can only do once we are actually inside
        // `wait_timeout` (it must take the lock we hold until then). The
        // timeout is a pure safety net.
        if self.rx.iter().flatten().all(Consumer::is_empty) {
            let _ = shared.doorbell_cv.wait_timeout(guard, shared.park_timeout).unwrap();
        }
        shared.sleepers.0.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wait until `done(self)` holds, draining rings throughout and
    /// escalating spin → yield → doorbell sleep. Unlike [`Self::wait_step`]
    /// (whose sleep re-check is ring emptiness), the sleep re-check here is
    /// `done` itself, so conditions that are not ring-visible — the barrier
    /// generation flip — also synchronize with [`RingShared::wake`].
    fn wait_until(&mut self, shared: &RingShared, mut done: impl FnMut(&mut Self) -> bool) {
        let mut spins = 0u32;
        loop {
            self.drain();
            if done(self) {
                return;
            }
            if spins < shared.spin_limit {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            if spins < shared.yield_limit {
                spins += 1;
                std::thread::yield_now();
                continue;
            }
            let guard = shared.doorbell.lock().unwrap();
            shared.sleepers.0.fetch_add(1, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            // Same no-lost-wakeup protocol as `wait_step`, with `done` (plus
            // ring emptiness) as the re-check under the doorbell lock.
            self.drain();
            if !done(self) && self.rx.iter().flatten().all(Consumer::is_empty) {
                let _ = shared.doorbell_cv.wait_timeout(guard, shared.park_timeout).unwrap();
            } else {
                drop(guard);
            }
            shared.sleepers.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Centralized sense-reversing barrier: one `fetch_add` per rank, the
    /// last arriver runs `meter_once` (the collective is metered exactly
    /// once, and *before* anyone is released: a peer that snapshots the
    /// shared meter right after its barrier returns must see this barrier
    /// in it), flips the group generation and rings the doorbell. Waiting
    /// drains rings, so peers mid-push on unrelated collectives never stall
    /// against a rank sitting in a barrier.
    pub(crate) fn barrier(
        &mut self,
        shared: &RingShared,
        gid: GroupId,
        p: usize,
        meter_once: impl FnOnce(),
    ) {
        let state = match self.barrier_cache.get(&gid) {
            Some(s) => Arc::clone(s),
            None => {
                let s = shared.barrier_state(gid);
                self.barrier_cache.insert(gid, Arc::clone(&s));
                s
            }
        };
        let gen = state.generation.0.load(Ordering::Acquire);
        if state.arrived.0.fetch_add(1, Ordering::AcqRel) == p - 1 {
            // All arrived. Reset before the flip: ranks re-enter this
            // group's next barrier only after they observe the flip
            // (Acquire), which orders the reset before their increments.
            state.arrived.0.store(0, Ordering::Relaxed);
            meter_once();
            state.generation.0.store(gen.wrapping_add(1), Ordering::Release);
            shared.wake();
        } else {
            self.wait_until(shared, |_| state.generation.0.load(Ordering::Acquire) != gen);
        }
    }

    fn members_arrived(&self, gid: GroupId, seq: u64, members: &[usize]) -> bool {
        members.iter().all(|&m| m == self.rank || self.stash.contains_key(&(gid, seq, m)))
    }

    /// Begin a leader-completed collective: the lowest member keeps its own
    /// contribution in its leader role; every other member pushes its
    /// contribution to the leader and waits for its result from it.
    pub(crate) fn begin_to_leader(
        &mut self,
        shared: &RingShared,
        (gid, seq): (GroupId, u64),
        kind: OpKind,
        own: &[f32],
        members: Arc<[usize]>,
        tag: CommTag,
    ) {
        let leader = members[0];
        if self.rank == leader {
            self.insert_role(gid, seq, Role::Leader { kind, own: own.into(), members, tag });
        } else {
            self.push(shared, leader, Message { gid, seq, data: own.into() });
            self.insert_role(gid, seq, Role::Member { src: leader });
        }
    }

    /// Record an in-flight role.
    pub(crate) fn insert_role(&mut self, gid: GroupId, seq: u64, role: Role) {
        let prev = self.roles.insert((gid, seq), role);
        debug_assert!(prev.is_none(), "duplicate in-flight collective key");
    }

    /// Broadcast-root send: push `payload` to every other member.
    pub(crate) fn scatter_payload(
        &mut self,
        shared: &RingShared,
        gid: GroupId,
        seq: u64,
        members: &[usize],
        payload: &[f32],
    ) {
        let payload: Arc<[f32]> = payload.into();
        for &m in members {
            if m != self.rank {
                self.push_quiet(shared, m, Message { gid, seq, data: Arc::clone(&payload) });
            }
        }
        shared.wake();
    }

    /// Complete an in-flight collective and return this rank's result.
    /// Leader completion performs the rank-ordered reduction (or
    /// concatenation), meters the collective once, and distributes every
    /// member's result before returning its own.
    pub(crate) fn complete_vec(
        &mut self,
        shared: &RingShared,
        meter: &Meter,
        cost: &CollectiveCostModel,
        gid: GroupId,
        seq: u64,
    ) -> Arc<[f32]> {
        let role = self.roles.remove(&(gid, seq)).expect("completing an unknown collective");
        match role {
            Role::Member { src } => {
                // In-order fast path: the wanted payload is almost always
                // the next message in the `src` ring, so pop it directly and
                // skip the stash round-trip (two hash operations per
                // payload). Mismatches — cross-group interleavings — fall
                // back to the stash, and `wait_step`'s greedy drain keeps
                // every ring moving while we wait.
                let mut spins = 0u32;
                loop {
                    if let Some(data) = self.stash.remove(&(gid, seq, src)) {
                        return data;
                    }
                    let popped = self.rx[src].as_mut().expect("member waits on a peer ring").pop();
                    match popped {
                        Some(msg) => {
                            if msg.gid == gid && msg.seq == seq {
                                return msg.data;
                            }
                            self.stash.insert((msg.gid, msg.seq, src), msg.data);
                        }
                        None => self.wait_step(shared, &mut spins),
                    }
                }
            }
            Role::Leader { kind, own, members, tag } => {
                let arrived = Arc::clone(&members);
                self.wait_until(shared, |h| h.members_arrived(gid, seq, &arrived));
                let mut parts: BTreeMap<usize, Arc<[f32]>> = BTreeMap::new();
                for &m in members.iter() {
                    if m != self.rank {
                        parts.insert(m, self.stash.remove(&(gid, seq, m)).expect("member part"));
                    }
                }
                parts.insert(self.rank, own);
                self.finish_as_leader(shared, meter, cost, gid, seq, kind, parts, &members, tag)
            }
        }
    }

    /// Leader epilogue: reduce/concatenate `parts`, meter, distribute, and
    /// return the leader's own result.
    #[allow(clippy::too_many_arguments)]
    fn finish_as_leader(
        &mut self,
        shared: &RingShared,
        meter: &Meter,
        cost: &CollectiveCostModel,
        gid: GroupId,
        seq: u64,
        kind: OpKind,
        parts: BTreeMap<usize, Arc<[f32]>>,
        members: &[usize],
        tag: CommTag,
    ) -> Arc<[f32]> {
        let p = members.len();
        match kind {
            OpKind::Allreduce(op) => {
                let result: Arc<[f32]> = reduce_scaled(&parts, op, p).into();
                let bytes = std::mem::size_of::<f32>() * result.len();
                meter.record(CommEvent {
                    op: CommOp::Allreduce,
                    bytes,
                    group_size: p,
                    seconds: cost.allreduce(bytes, p),
                    tag,
                });
                for &m in members {
                    if m != self.rank {
                        self.push_quiet(shared, m, Message { gid, seq, data: Arc::clone(&result) });
                    }
                }
                shared.wake();
                result
            }
            OpKind::Allgather => {
                let mut gathered = Vec::new();
                for part in parts.values() {
                    gathered.extend_from_slice(part);
                }
                let out: Arc<[f32]> = gathered.into();
                let bytes =
                    std::mem::size_of::<f32>() * parts.get(&self.rank).map_or(0, |a| a.len());
                meter.record(CommEvent {
                    op: CommOp::Allgather,
                    bytes,
                    group_size: p,
                    seconds: cost.allgather(bytes, p),
                    tag,
                });
                for &m in members {
                    if m != self.rank {
                        self.push_quiet(shared, m, Message { gid, seq, data: Arc::clone(&out) });
                    }
                }
                shared.wake();
                out
            }
        }
    }
}

/// Reduce the contributions in ascending rank order, so results are
/// bit-deterministic regardless of thread scheduling (floating-point addition
/// is not associative), then apply the `Avg` scale.
fn reduce_scaled(parts: &BTreeMap<usize, Arc<[f32]>>, op: ReduceOp, p: usize) -> Vec<f32> {
    let mut parts = parts.values();
    let mut acc = parts.next().expect("at least one contribution").to_vec();
    for part in parts {
        debug_assert_eq!(acc.len(), part.len(), "reduction length mismatch");
        match op {
            ReduceOp::Sum | ReduceOp::Avg => {
                for (a, b) in acc.iter_mut().zip(part.iter()) {
                    *a += *b;
                }
            }
            ReduceOp::Max => {
                for (a, b) in acc.iter_mut().zip(part.iter()) {
                    *a = a.max(*b);
                }
            }
        }
    }
    if op == ReduceOp::Avg {
        let inv = 1.0 / p as f32;
        for v in acc.iter_mut() {
            *v *= inv;
        }
    }
    acc
}
