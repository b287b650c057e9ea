//! Data-parallel gradient synchronization.

use kaisa_comm::{CommTag, Communicator, ReduceOp};
use kaisa_nn::Model;

/// Average the model's gradients across all ranks, optionally pre-scaling by
/// `1/accum_steps` to turn a sum of micro-batch mean-losses into the mean
/// over the effective local batch.
///
/// This is the "gradient allreduce" box of Figure 3 — identical under SGD
/// and K-FAC training (K-FAC preconditions *after* this synchronization, so
/// every rank preconditions the same global gradient).
pub fn allreduce_gradients<M: Model>(model: &mut M, comm: &dyn Communicator, accum_steps: usize) {
    let mut grads = model.grads_flat();
    if accum_steps > 1 {
        let inv = 1.0 / accum_steps as f32;
        for g in grads.iter_mut() {
            *g *= inv;
        }
    }
    if comm.world_size() > 1 {
        let world_group: Vec<usize> = (0..comm.world_size()).collect();
        let pending = comm.begin_allreduce(&grads, ReduceOp::Avg, &world_group, CommTag::Ddp);
        comm.complete(pending, &mut grads);
    }
    model.set_grads_flat(&grads);
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaisa_comm::ThreadComm;
    use kaisa_nn::models::Mlp;
    use kaisa_tensor::{Matrix, Rng};

    #[test]
    fn gradients_match_across_ranks_after_allreduce() {
        let grads = ThreadComm::run(4, |comm| {
            let mut rng = Rng::seed_from_u64(42); // same init on all ranks
            let mut model = Mlp::new(&[4, 6, 2], &mut rng);
            // Different data per rank.
            let mut data_rng = Rng::seed_from_u64(100 + comm.rank() as u64);
            let x = Matrix::randn(8, 4, 1.0, &mut data_rng);
            let y: Vec<usize> = (0..8).map(|i| i % 2).collect();
            model.zero_grad();
            let _ = model.forward_backward(&x, &y);
            allreduce_gradients(&mut model, comm, 1);
            model.grads_flat()
        });
        for g in &grads[1..] {
            assert_eq!(g, &grads[0], "all ranks must hold identical gradients");
        }
    }

    #[test]
    fn accumulation_scaling() {
        let mut rng = Rng::seed_from_u64(7);
        let mut model = Mlp::new(&[3, 4, 2], &mut rng);
        let x = Matrix::randn(4, 3, 1.0, &mut rng);
        let y = vec![0usize, 1, 0, 1];
        let comm = ThreadComm::world(1).remove(0);

        // One pass, no accumulation.
        model.zero_grad();
        let _ = model.forward_backward(&x, &y);
        allreduce_gradients(&mut model, &comm, 1);
        let single = model.grads_flat();

        // Two identical micro-batches with accum scaling: same mean gradient.
        model.zero_grad();
        let _ = model.forward_backward(&x, &y);
        let _ = model.forward_backward(&x, &y);
        allreduce_gradients(&mut model, &comm, 2);
        let accum = model.grads_flat();

        for (a, b) in single.iter().zip(&accum) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
