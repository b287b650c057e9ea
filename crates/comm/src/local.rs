//! Single-process communicator (world size 1).

use crate::meter::{Meter, MeterSnapshot};
use crate::{Communicator, ReduceOp};

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
        assert_eq!(comm.simulated_seconds(), 0.0);
    }
}
