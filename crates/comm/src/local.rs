//! Single-process communicator (world size 1).

use crate::meter::{CommTag, Meter, MeterSnapshot};
use crate::{Communicator, PendingCollective, ReduceOp};

/// A no-op communicator for single-process training, mirroring KAISA's
/// automatic backend selection (Torch / Horovod / single-process).
///
/// All collectives are identities; the meter stays at zero.
#[derive(Debug, Default)]
pub struct LocalComm {
    meter: Meter,
}

impl LocalComm {
    /// Create a single-rank communicator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Communicator for LocalComm {
    fn rank(&self) -> usize {
        0
    }

    fn world_size(&self) -> usize {
        1
    }

    fn allreduce(&self, _buf: &mut [f32], _op: ReduceOp) {}

    fn allreduce_group(&self, _buf: &mut [f32], _op: ReduceOp, group: &[usize]) {
        debug_assert_eq!(group, [0], "LocalComm only has rank 0");
    }

    fn broadcast(&self, _buf: &mut [f32], root: usize) {
        debug_assert_eq!(root, 0, "LocalComm only has rank 0");
    }

    fn broadcast_group(&self, _buf: &mut [f32], root: usize, group: &[usize]) {
        debug_assert_eq!(root, 0);
        debug_assert_eq!(group, [0]);
    }

    fn allgather(&self, send: &[f32]) -> Vec<f32> {
        send.to_vec()
    }

    fn barrier(&self) {}

    /// At world 1 the buffer already holds the result: nothing to copy.
    fn begin_allreduce(
        &self,
        _buf: &[f32],
        _op: ReduceOp,
        group: &[usize],
        tag: CommTag,
    ) -> PendingCollective {
        debug_assert_eq!(group, [0], "LocalComm only has rank 0");
        PendingCollective::noop(tag)
    }

    /// At world 1 the buffer already holds the result: nothing to copy.
    fn begin_broadcast(
        &self,
        _buf: &[f32],
        root: usize,
        group: &[usize],
        tag: CommTag,
    ) -> PendingCollective {
        debug_assert_eq!(root, 0);
        debug_assert_eq!(group, [0]);
        PendingCollective::noop(tag)
    }

    fn meter_snapshot(&self) -> MeterSnapshot {
        self.meter.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        let comm = LocalComm::new();
        assert_eq!(comm.rank(), 0);
        assert_eq!(comm.world_size(), 1);
        let mut buf = vec![1.0, 2.0];
        comm.allreduce(&mut buf, ReduceOp::Sum);
        assert_eq!(buf, vec![1.0, 2.0]);
        comm.broadcast(&mut buf, 0);
        assert_eq!(buf, vec![1.0, 2.0]);
        assert_eq!(comm.allgather(&buf), buf);
        assert_eq!(comm.meter_snapshot(), MeterSnapshot::default());
    }

    #[test]
    fn split_collectives_leave_the_buffer_bits_alone() {
        // Begin/complete at world 1 is a no-op round trip: `Avg`, `Sum`
        // and broadcast leave every bit — NaN payloads and -0.0 included.
        let comm = LocalComm::new();
        let orig = [1.5f32, -0.0, f32::from_bits(0x7fc0_1234), 3.0e-39, f32::NEG_INFINITY];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for op in [ReduceOp::Avg, ReduceOp::Sum] {
            let mut buf = orig;
            let pending = comm.begin_allreduce(&buf, op, &[0], CommTag::FactorComm);
            comm.complete(pending, &mut buf);
            assert_eq!(bits(&buf), bits(&orig), "{op:?}");
        }
        let mut buf = orig;
        let pending = comm.begin_broadcast(&buf, 0, &[0], CommTag::GradComm);
        comm.complete(pending, &mut buf);
        assert_eq!(bits(&buf), bits(&orig), "broadcast");
    }
}
