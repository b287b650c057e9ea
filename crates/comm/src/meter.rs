//! Traffic metering for collectives.
//!
//! Each communicator owns a meter that records, per collective type, the
//! number of invocations, total payload bytes, and the simulated seconds the
//! α–β cost model assigns. Every event also carries a [`CommTag`] naming the
//! pipeline stage that issued it, so the figure harness can break iteration
//! time and byte volume into the stages of Figure 7 of the paper.

use std::sync::atomic::{AtomicU64, Ordering};

/// Collective operation categories tracked by the meter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommOp {
    /// Full-world or group allreduce.
    Allreduce,
    /// Broadcast (world or group).
    Broadcast,
    /// Allgather.
    Allgather,
    /// Barrier.
    Barrier,
}

impl CommOp {
    /// All tracked operation types, in display order.
    pub const ALL: [CommOp; 4] =
        [CommOp::Allreduce, CommOp::Broadcast, CommOp::Allgather, CommOp::Barrier];

    /// Index into the meter's counter arrays.
    fn slot(self) -> usize {
        match self {
            CommOp::Allreduce => 0,
            CommOp::Broadcast => 1,
            CommOp::Allgather => 2,
            CommOp::Barrier => 3,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CommOp::Allreduce => "allreduce",
            CommOp::Broadcast => "broadcast",
            CommOp::Allgather => "allgather",
            CommOp::Barrier => "barrier",
        }
    }
}

/// K-FAC pipeline stage that issued a collective.
///
/// Attribution tag carried by [`CommEvent`] and by
/// [`crate::PendingCollective`], mapping metered traffic onto the comm
/// stages of the paper's Figure 7 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommTag {
    /// Kronecker-factor allreduce ("factor comm").
    FactorComm,
    /// Never emitted: no collective carries this tag. Kept only because the
    /// end-to-end benchmark's factor-byte sum still names it.
    FactorReduce,
    /// Never emitted, like [`CommTag::FactorReduce`], and kept for the same
    /// reason.
    FactorGather,
    /// Eigenbasis / inverse / outer-product broadcasts ("eig bcast").
    EigComm,
    /// Preconditioned-gradient broadcasts ("grad bcast").
    GradComm,
    /// Data-parallel gradient allreduce (outside the K-FAC step).
    Ddp,
    /// Anything else: barriers, tests, ad-hoc traffic.
    Untagged,
}

impl CommTag {
    /// All tags, in display order.
    pub const ALL: [CommTag; 7] = [
        CommTag::FactorComm,
        CommTag::FactorReduce,
        CommTag::FactorGather,
        CommTag::EigComm,
        CommTag::GradComm,
        CommTag::Ddp,
        CommTag::Untagged,
    ];

    /// Index into the meter's per-tag counter arrays.
    fn slot(self) -> usize {
        match self {
            CommTag::FactorComm => 0,
            CommTag::EigComm => 1,
            CommTag::GradComm => 2,
            CommTag::Ddp => 3,
            CommTag::Untagged => 4,
            CommTag::FactorReduce => 5,
            CommTag::FactorGather => 6,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CommTag::FactorComm => "factor_comm",
            CommTag::FactorReduce => "factor_reduce",
            CommTag::FactorGather => "factor_gather",
            CommTag::EigComm => "eig_comm",
            CommTag::GradComm => "grad_comm",
            CommTag::Ddp => "ddp",
            CommTag::Untagged => "untagged",
        }
    }
}

/// A single metered collective invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommEvent {
    /// Which collective ran.
    pub op: CommOp,
    /// Logical payload bytes, charged **once per collective** (the meter is
    /// world-shared). Conventions: allreduce and broadcast charge the result
    /// payload `n`; allgather charges one rank's contribution; a barrier
    /// charges nothing.
    pub bytes: usize,
    /// Size of the participating group.
    pub group_size: usize,
    /// Simulated seconds charged by the cost model.
    pub seconds: f64,
    /// Pipeline stage that issued the collective.
    pub tag: CommTag,
}

const N_OPS: usize = 4;
const N_TAGS: usize = 7;

/// Lock-free accumulation of communication statistics.
///
/// Seconds are stored as nanoseconds in a `u64` so the whole meter stays
/// atomic (guide: prefer fetch-add counters over a mutex for statistics).
#[derive(Debug, Default)]
pub struct Meter {
    calls: [AtomicU64; N_OPS],
    bytes: [AtomicU64; N_OPS],
    nanos: [AtomicU64; N_OPS],
    tag_calls: [AtomicU64; N_TAGS],
    tag_bytes: [AtomicU64; N_TAGS],
    tag_nanos: [AtomicU64; N_TAGS],
}

impl Meter {
    /// New meter with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one collective invocation.
    pub fn record(&self, event: CommEvent) {
        let s = event.op.slot();
        self.calls[s].fetch_add(1, Ordering::Relaxed);
        self.bytes[s].fetch_add(event.bytes as u64, Ordering::Relaxed);
        self.nanos[s].fetch_add((event.seconds * 1e9) as u64, Ordering::Relaxed);
        let t = event.tag.slot();
        self.tag_calls[t].fetch_add(1, Ordering::Relaxed);
        self.tag_bytes[t].fetch_add(event.bytes as u64, Ordering::Relaxed);
        self.tag_nanos[t].fetch_add((event.seconds * 1e9) as u64, Ordering::Relaxed);
    }

    /// Consistent-enough snapshot for reporting (counters are monotone).
    pub fn snapshot(&self) -> MeterSnapshot {
        let mut snap = MeterSnapshot::default();
        for op in CommOp::ALL {
            let s = op.slot();
            snap.calls[s] = self.calls[s].load(Ordering::Relaxed);
            snap.bytes[s] = self.bytes[s].load(Ordering::Relaxed);
            snap.seconds[s] = self.nanos[s].load(Ordering::Relaxed) as f64 * 1e-9;
        }
        for tag in CommTag::ALL {
            let t = tag.slot();
            snap.tag_calls[t] = self.tag_calls[t].load(Ordering::Relaxed);
            snap.tag_bytes[t] = self.tag_bytes[t].load(Ordering::Relaxed);
            snap.tag_seconds[t] = self.tag_nanos[t].load(Ordering::Relaxed) as f64 * 1e-9;
        }
        snap.simulated_seconds = snap.seconds.iter().sum();
        snap
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        for s in 0..N_OPS {
            self.calls[s].store(0, Ordering::Relaxed);
            self.bytes[s].store(0, Ordering::Relaxed);
            self.nanos[s].store(0, Ordering::Relaxed);
        }
        for t in 0..N_TAGS {
            self.tag_calls[t].store(0, Ordering::Relaxed);
            self.tag_bytes[t].store(0, Ordering::Relaxed);
            self.tag_nanos[t].store(0, Ordering::Relaxed);
        }
    }
}

/// Point-in-time copy of a [`Meter`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeterSnapshot {
    calls: [u64; N_OPS],
    bytes: [u64; N_OPS],
    seconds: [f64; N_OPS],
    tag_calls: [u64; N_TAGS],
    tag_bytes: [u64; N_TAGS],
    tag_seconds: [f64; N_TAGS],
    /// Total simulated communication seconds across all collectives.
    pub simulated_seconds: f64,
}

impl MeterSnapshot {
    /// Invocation count for one collective type.
    pub fn calls(&self, op: CommOp) -> u64 {
        self.calls[op.slot()]
    }

    /// Payload bytes for one collective type.
    pub fn bytes(&self, op: CommOp) -> u64 {
        self.bytes[op.slot()]
    }

    /// Simulated seconds for one collective type.
    pub fn seconds(&self, op: CommOp) -> f64 {
        self.seconds[op.slot()]
    }

    /// Invocation count attributed to one pipeline stage.
    pub fn tag_calls(&self, tag: CommTag) -> u64 {
        self.tag_calls[tag.slot()]
    }

    /// Payload bytes attributed to one pipeline stage.
    pub fn tag_bytes(&self, tag: CommTag) -> u64 {
        self.tag_bytes[tag.slot()]
    }

    /// Simulated seconds attributed to one pipeline stage.
    pub fn tag_seconds(&self, tag: CommTag) -> f64 {
        self.tag_seconds[tag.slot()]
    }

    /// Total payload bytes across all collectives.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Difference `self - earlier`, elementwise (for measuring a window).
    pub fn delta_since(&self, earlier: &MeterSnapshot) -> MeterSnapshot {
        let mut out = MeterSnapshot::default();
        for s in 0..N_OPS {
            out.calls[s] = self.calls[s].saturating_sub(earlier.calls[s]);
            out.bytes[s] = self.bytes[s].saturating_sub(earlier.bytes[s]);
            out.seconds[s] = (self.seconds[s] - earlier.seconds[s]).max(0.0);
        }
        for t in 0..N_TAGS {
            out.tag_calls[t] = self.tag_calls[t].saturating_sub(earlier.tag_calls[t]);
            out.tag_bytes[t] = self.tag_bytes[t].saturating_sub(earlier.tag_bytes[t]);
            out.tag_seconds[t] = (self.tag_seconds[t] - earlier.tag_seconds[t]).max(0.0);
        }
        out.simulated_seconds = out.seconds.iter().sum();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let m = Meter::new();
        m.record(CommEvent {
            op: CommOp::Allreduce,
            bytes: 100,
            group_size: 4,
            seconds: 0.5,
            tag: CommTag::FactorComm,
        });
        m.record(CommEvent {
            op: CommOp::Allreduce,
            bytes: 50,
            group_size: 4,
            seconds: 0.25,
            tag: CommTag::FactorComm,
        });
        m.record(CommEvent {
            op: CommOp::Broadcast,
            bytes: 10,
            group_size: 2,
            seconds: 0.1,
            tag: CommTag::EigComm,
        });
        let s = m.snapshot();
        assert_eq!(s.calls(CommOp::Allreduce), 2);
        assert_eq!(s.bytes(CommOp::Allreduce), 150);
        assert!((s.seconds(CommOp::Allreduce) - 0.75).abs() < 1e-6);
        assert_eq!(s.total_bytes(), 160);
        assert!((s.simulated_seconds - 0.85).abs() < 1e-6);
    }

    #[test]
    fn tags_partition_traffic() {
        let m = Meter::new();
        m.record(CommEvent {
            op: CommOp::Allreduce,
            bytes: 64,
            group_size: 4,
            seconds: 0.2,
            tag: CommTag::FactorComm,
        });
        m.record(CommEvent {
            op: CommOp::Broadcast,
            bytes: 32,
            group_size: 4,
            seconds: 0.1,
            tag: CommTag::GradComm,
        });
        m.record(CommEvent {
            op: CommOp::Broadcast,
            bytes: 16,
            group_size: 2,
            seconds: 0.05,
            tag: CommTag::EigComm,
        });
        let s = m.snapshot();
        assert_eq!(s.tag_bytes(CommTag::FactorComm), 64);
        assert_eq!(s.tag_bytes(CommTag::GradComm), 32);
        assert_eq!(s.tag_bytes(CommTag::EigComm), 16);
        assert_eq!(s.tag_bytes(CommTag::Untagged), 0);
        assert_eq!(s.tag_calls(CommTag::GradComm), 1);
        // Per-tag totals must equal per-op totals: every event has one tag.
        let tag_total: u64 = CommTag::ALL.iter().map(|&t| s.tag_bytes(t)).sum();
        assert_eq!(tag_total, s.total_bytes());
    }

    #[test]
    fn delta_between_snapshots() {
        let m = Meter::new();
        m.record(CommEvent {
            op: CommOp::Broadcast,
            bytes: 8,
            group_size: 2,
            seconds: 0.1,
            tag: CommTag::Untagged,
        });
        let before = m.snapshot();
        m.record(CommEvent {
            op: CommOp::Broadcast,
            bytes: 24,
            group_size: 2,
            seconds: 0.3,
            tag: CommTag::GradComm,
        });
        let after = m.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.calls(CommOp::Broadcast), 1);
        assert_eq!(d.bytes(CommOp::Broadcast), 24);
        assert!((d.seconds(CommOp::Broadcast) - 0.3).abs() < 1e-6);
        assert_eq!(d.tag_bytes(CommTag::GradComm), 24);
        assert_eq!(d.tag_bytes(CommTag::Untagged), 0);
    }

    #[test]
    fn reset_zeroes() {
        let m = Meter::new();
        m.record(CommEvent {
            op: CommOp::Barrier,
            bytes: 0,
            group_size: 8,
            seconds: 0.0,
            tag: CommTag::Untagged,
        });
        m.reset();
        assert_eq!(m.snapshot().calls(CommOp::Barrier), 0);
        assert_eq!(m.snapshot().tag_calls(CommTag::Untagged), 0);
    }
}
