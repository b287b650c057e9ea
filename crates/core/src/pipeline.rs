//! The stages of [`crate::Kfac::step`], written once as layer sweeps over
//! non-blocking collectives.
//!
//! The stages of *different layers* are largely independent: layer `i`'s
//! factor allreduce can be in flight while layer `i+1` finalizes its
//! statistics, and the eigendecomposition broadcasts of one layer can
//! overlap another layer's eigensolve. So each phase of the step is two or
//! three *sweeps* over the layers. An early sweep runs a layer's local
//! compute and `begin`s the collective that publishes its result; a later
//! sweep `complete`s the handles in the same layer order and consumes the
//! payloads.
//!
//! Every handle passes through `Kfac::settle` right after its `begin`. It is
//! the one reader of [`crate::KfacConfig::pipelined`], which selects *when*
//! a handle completes:
//!
//! - **pipelined** (the default): the handle goes on untouched. Every
//!   `begin` of a sweep is issued before any `complete` of the next, so all
//!   of a phase's collectives are in flight while the remaining layers'
//!   compute runs — communication/computation overlap without threads or an
//!   async runtime.
//! - **serial**: the handle is completed at once and replaced by a no-op,
//!   so no two collectives are ever in flight together. This is the
//!   reference order the equivalence suite measures against.
//!
//! Two invariants make this safe and bit-exact:
//!
//! - **Matching**: every rank iterates layers in the same order within each
//!   sweep, so each communication group observes the same collective
//!   sequence on all of its members (the MPI matching rule ThreadComm's
//!   rendezvous requires). Begins never block, and completes only wait on
//!   begins, so no deadlock is possible in either order.
//! - **Bitwise equality**: both orders run the same stage kernels in
//!   `crate::state`, quantize at identical points, and the allreduce
//!   reduction itself is rank-order deterministic — so when a handle
//!   completes cannot change a single bit of the result.
//!   `tests/pipeline_equivalence.rs` property-tests serial ≡ pipelined
//!   across strategies, world sizes, precisions, and comm layouts.

use kaisa_comm::{CommTag, Communicator, PendingCollective, ReduceOp};
use kaisa_nn::{KfacAble, KfacStats};
use kaisa_tensor::Matrix;

use crate::preconditioner::Kfac;
use crate::state::{quantize_slice, KfacLayerState};
use crate::timing::Stage;

/// A matrix broadcast in flight: the handle plus the destination buffer.
struct MatBcast {
    pending: PendingCollective,
    m: Matrix,
}

/// The result broadcasts a gradient worker has in flight between sweeps 2
/// and 3 of the eigendecomposition phase.
struct LayerBcasts {
    qa: MatBcast,
    qg: MatBcast,
    outer: MatBcast,
}

/// Take the statistics a layer captured during the forward/backward pass.
fn take_stats(layer: &mut dyn KfacAble) -> KfacStats<'_> {
    if !layer.capture_mut().has_stats() {
        panic!(
            "layer {}: no captured statistics — call Kfac::prepare() before the forward pass",
            layer.layer_name()
        )
    }
    layer.capture_mut().take_stats().expect("checked above")
}

impl Kfac {
    /// Stage 1, factor update: sweep A finalizes each layer's captured
    /// statistics into its factor wire (the row-packed lower triangles of
    /// `A` and `G`, §4.3), quantizes it and begins its allreduce; sweep B
    /// completes them, re-quantizes, and folds each wire straight into the
    /// running factors. The wire is the only form a factor takes between
    /// capture and the running average.
    pub(crate) fn update_factors(
        &mut self,
        layers: &mut [&mut dyn KfacAble],
        comm: &dyn Communicator,
    ) {
        let precision = self.cfg.precision;
        let decay = self.cfg.factor_decay;
        let world_group: Vec<usize> = (0..self.world).collect();

        struct InFlight {
            layer: usize,
            pending: PendingCollective,
            wire: Vec<f32>,
        }
        let mut inflight: Vec<InFlight> = Vec::with_capacity(layers.len());

        for (i, layer) in layers.iter_mut().enumerate() {
            let stats = take_stats(&mut **layer);
            let state = &mut self.states[i];
            self.times.time_layer(i, Stage::FactorCompute, || state.pack_stats(&stats));
            // The wire leaves the state while its collective is in flight
            // (a move, not a copy) and goes back for the fold.
            let mut wire = std::mem::take(&mut self.states[i].wire);
            let pending = self.times.time_layer(i, Stage::FactorComm, || {
                quantize_slice(&mut wire, precision);
                comm.begin_allreduce(&wire, ReduceOp::Avg, &world_group, CommTag::FactorComm)
            });
            let pending = self.settle(i, Stage::FactorComm, comm, pending, &mut wire);
            inflight.push(InFlight { layer: i, pending, wire });
        }

        for InFlight { layer: i, pending, mut wire } in inflight {
            self.times.time_layer(i, Stage::FactorComm, || {
                comm.complete(pending, &mut wire);
                quantize_slice(&mut wire, precision);
            });
            self.comm_bytes += (wire.len() * precision.bytes_per_element()) as u64;
            let state = &mut self.states[i];
            state.wire = wire;
            self.times.time_layer(i, Stage::FactorCompute, || state.fold_wire(decay));
        }
        self.note_factor_residency();
    }

    /// Stage 2, decomposition update: sweep 1 runs the LPT-assigned
    /// eigensolves and begins the `v_A` pair shuttles; sweep 2 completes the
    /// shuttles, computes the outer products, and begins every result
    /// broadcast; sweep 3 completes them into the layer states.
    pub(crate) fn update_decompositions(&mut self, comm: &dyn Communicator) {
        let rank = self.rank;
        let damping = self.cfg.damping;
        let precision = self.cfg.precision;
        let n = self.states.len();

        let mut va: Vec<Option<Vec<f32>>> = vec![None; n];
        let mut vg: Vec<Option<Vec<f32>>> = vec![None; n];
        let mut va_pending: Vec<Option<(PendingCollective, Vec<f32>)>> =
            (0..n).map(|_| None).collect();
        // Sweep 1: local eigensolves; begin v_A pair shuttles.
        for i in 0..n {
            let asn = self.plan.layers[i].clone();
            if rank == asn.a_worker {
                let (qa, values) = self.times.time_layer(i, Stage::EigCompute, || {
                    self.states[i].eig_a_with(&mut self.eig_scratch)
                });
                self.states[i].qa = Some(qa);
                va[i] = Some(values);
            }
            if rank == asn.g_worker {
                let (qg, values) = self.times.time_layer(i, Stage::EigCompute, || {
                    self.states[i].eig_g_with(&mut self.eig_scratch)
                });
                self.states[i].qg = Some(qg);
                vg[i] = Some(values);
            }
            // Section 4.4: ship v_A to the G worker, which computes the
            // damped reciprocal outer product exactly once.
            if asn.a_worker != asn.g_worker && (rank == asn.a_worker || rank == asn.g_worker) {
                let a_dim = self.states[i].a_dim;
                let pair = [asn.a_worker, asn.g_worker];
                let mut buf = va[i].take().unwrap_or_else(|| vec![0.0; a_dim]);
                let pending = self.times.time_layer(i, Stage::EigComm, || {
                    comm.begin_broadcast(&buf, asn.a_worker, &pair, CommTag::EigComm)
                });
                let pending = self.settle(i, Stage::EigComm, comm, pending, &mut buf);
                if rank == asn.a_worker {
                    self.comm_bytes += (a_dim * precision.bytes_per_element()) as u64;
                }
                va_pending[i] = Some((pending, buf));
            }
        }

        // Sweep 2: finish shuttles, outer products; begin result broadcasts.
        let mut bcasts: Vec<Option<LayerBcasts>> = (0..n).map(|_| None).collect();
        for i in 0..n {
            let asn = self.plan.layers[i].clone();
            let (a_dim, g_dim) = (self.states[i].a_dim, self.states[i].g_dim);

            if let Some((pending, mut buf)) = va_pending[i].take() {
                self.times.time_layer(i, Stage::EigComm, || comm.complete(pending, &mut buf));
                va[i] = Some(buf);
            }
            if rank == asn.g_worker {
                let outer = self.times.time_layer(i, Stage::EigCompute, || {
                    KfacLayerState::compute_outer(
                        vg[i].as_ref().expect("G worker has v_G"),
                        va[i].as_ref().expect("G worker received v_A"),
                        damping,
                    )
                });
                self.states[i].outer = Some(outer);
            }

            if asn.is_gradient_worker(rank) && asn.gradient_workers.len() > 1 {
                let group = &asn.gradient_workers;
                let (qa, qg, o) = (
                    self.states[i].qa.take(),
                    self.states[i].qg.take(),
                    self.states[i].outer.take(),
                );
                bcasts[i] = Some(LayerBcasts {
                    qa: self.begin_matrix_bcast(i, comm, qa, a_dim, a_dim, asn.a_worker, group),
                    qg: self.begin_matrix_bcast(i, comm, qg, g_dim, g_dim, asn.g_worker, group),
                    outer: self.begin_matrix_bcast(i, comm, o, g_dim, a_dim, asn.g_worker, group),
                });
            }
        }

        // Sweep 3: complete every result broadcast into the layer state.
        for (i, b) in bcasts.into_iter().enumerate() {
            let Some(b) = b else { continue };
            self.states[i].qa = Some(self.complete_matrix_bcast(i, comm, b.qa));
            self.states[i].qg = Some(self.complete_matrix_bcast(i, comm, b.qg));
            self.states[i].outer = Some(self.complete_matrix_bcast(i, comm, b.outer));
        }
    }

    /// Stages 3 and 4: sweep 1 preconditions each layer and begins its
    /// gradient broadcast to the receivers; sweep 2 completes them; then
    /// the (inherently serial) KL-clip scale writes everything back.
    pub(crate) fn precondition_and_scale(
        &mut self,
        layers: &mut [&mut dyn KfacAble],
        comm: &dyn Communicator,
        lr: f32,
    ) {
        let rank = self.rank;
        let precision = self.cfg.precision;
        let grads: Vec<Matrix> = layers.iter().map(|l| l.combined_grad()).collect();
        let n = grads.len();

        let mut pending: Vec<Option<PendingCollective>> = (0..n).map(|_| None).collect();
        let mut preconditioned: Vec<Matrix> = Vec::with_capacity(n);

        for (i, grad) in grads.iter().enumerate() {
            let asn = self.plan.layers[i].clone();
            let is_gw = asn.is_gradient_worker(rank);
            let mut precond = self.precondition_local(i, grad, is_gw);
            if let Some(group) = asn.bcast_group_of(rank) {
                let root = group[0];
                if rank == root {
                    precond.quantize(precision);
                    self.comm_bytes += (precond.numel()
                        * precision.bytes_per_element()
                        * (group.len() - 1)) as u64;
                }
                let p = self.times.time_layer(i, Stage::GradComm, || {
                    comm.begin_broadcast(precond.as_slice(), root, group, CommTag::GradComm)
                });
                pending[i] = Some(self.settle(i, Stage::GradComm, comm, p, precond.as_mut_slice()));
            }
            preconditioned.push(precond);
        }

        for (i, (p, buf)) in pending.into_iter().zip(&mut preconditioned).enumerate() {
            if let Some(p) = p {
                self.times.time_layer(i, Stage::GradComm, || comm.complete(p, buf.as_mut_slice()));
            }
        }

        // The KL-clip scale consumes layers in order, so ν — and therefore
        // the update — is bitwise the same whenever the broadcasts completed.
        self.scale_and_write_back(layers, &grads, preconditioned, lr);
    }

    /// Hand a just-begun collective on to the sweep that completes it — or,
    /// in the serial order, complete it into `buf` now (timed under `stage`)
    /// and hand on a no-op, so the later `complete` leaves `buf` as it is.
    /// The one reader of `KfacConfig::pipelined`.
    fn settle(
        &mut self,
        layer: usize,
        stage: Stage,
        comm: &dyn Communicator,
        pending: PendingCollective,
        buf: &mut [f32],
    ) -> PendingCollective {
        if self.cfg.pipelined {
            return pending;
        }
        let tag = pending.tag();
        self.times.time_layer(layer, stage, || comm.complete(pending, buf));
        PendingCollective::noop(tag)
    }

    /// Begin a matrix broadcast within `group` from `root`: quantize on the
    /// root, attribute its logical bytes, and return the in-flight handle.
    #[allow(clippy::too_many_arguments)]
    fn begin_matrix_bcast(
        &mut self,
        layer: usize,
        comm: &dyn Communicator,
        local: Option<Matrix>,
        rows: usize,
        cols: usize,
        root: usize,
        group: &[usize],
    ) -> MatBcast {
        let precision = self.cfg.precision;
        let mut m = local.unwrap_or_else(|| Matrix::zeros(rows, cols));
        debug_assert_eq!(m.shape(), (rows, cols));
        if self.rank == root {
            m.quantize(precision);
        }
        let pending = self.times.time_layer(layer, Stage::EigComm, || {
            comm.begin_broadcast(m.as_slice(), root, group, CommTag::EigComm)
        });
        let pending = self.settle(layer, Stage::EigComm, comm, pending, m.as_mut_slice());
        if self.rank == root {
            self.comm_bytes +=
                (rows * cols * precision.bytes_per_element() * (group.len() - 1)) as u64;
        }
        MatBcast { pending, m }
    }

    /// Complete a matrix broadcast begun by [`Kfac::begin_matrix_bcast`].
    fn complete_matrix_bcast(
        &mut self,
        layer: usize,
        comm: &dyn Communicator,
        mb: MatBcast,
    ) -> Matrix {
        let MatBcast { pending, mut m } = mb;
        let buf = m.as_mut_slice();
        self.times.time_layer(layer, Stage::EigComm, || comm.complete(pending, buf));
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KfacConfig;
    use kaisa_comm::ThreadComm;
    use kaisa_linalg::unpack_lower;
    use kaisa_nn::models::Mlp;
    use kaisa_nn::Model;
    use kaisa_tensor::{Precision, Rng};

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn packed_wire_is_the_square_wire_bitwise() {
        // World 2, three factor folds, fp32 and fp16: the packed running
        // factors the sweep builds stand for, bit for bit, what the square
        // wire builds from the same captures — finalize, pack the
        // full squares, quantize, allreduce-average the whole payload,
        // quantize, then `axpby` into the running average (the first fold
        // moves in).
        for precision in [Precision::Fp32, Precision::Fp16] {
            ThreadComm::run(2, |comm| {
                let mut model = Mlp::new(&[9, 12, 5], &mut Rng::seed_from_u64(61));
                let mut rng = Rng::seed_from_u64(62 + comm.rank() as u64);
                let cfg = KfacConfig::builder()
                    .factor_update_freq(1)
                    .inv_update_freq(1)
                    .precision(precision)
                    .build();
                let decay = cfg.factor_decay;
                let mut kfac = Kfac::new(cfg, &mut model, comm);
                let mut oracle: Vec<Option<(Matrix, Matrix)>> = vec![None; 2];
                for fold in 0..3 {
                    let x = Matrix::randn(16, 9, 1.0, &mut rng);
                    let y: Vec<usize> = (0..16).map(|i| (i + fold) % 5).collect();
                    kfac.prepare(&mut model);
                    model.zero_grad();
                    let _ = model.forward_backward(&x, &y);

                    // The square wire, from a copy of this pass's captures
                    // mirrored to the symmetric Grams they stand for.
                    let mut shadow = model.clone();
                    for (layer, slot) in shadow.kfac_layers().into_iter().zip(&mut oracle) {
                        let stats = layer.capture_mut().take_stats().expect("captured");
                        let inv = 1.0 / stats.batches as f32;
                        let (mut a, mut g) = stats.mirrored();
                        a.scale(inv);
                        g.scale(inv);
                        let mut buf = [a.as_slice(), g.as_slice()].concat();
                        quantize_slice(&mut buf, precision);
                        let pending =
                            comm.begin_allreduce(&buf, ReduceOp::Avg, &[0, 1], CommTag::Untagged);
                        comm.complete(pending, &mut buf);
                        quantize_slice(&mut buf, precision);
                        let split = a.numel();
                        let a = Matrix::from_vec(a.rows(), a.cols(), buf[..split].to_vec());
                        let g = Matrix::from_vec(g.rows(), g.cols(), buf[split..].to_vec());
                        match slot {
                            Some((ra, rg)) => {
                                ra.axpby(1.0 - decay, &a, decay);
                                rg.axpby(1.0 - decay, &g, decay);
                            }
                            None => *slot = Some((a, g)),
                        }
                    }

                    kfac.step(&mut model, comm, 0.1);
                    for (state, slot) in kfac.states.iter().zip(&oracle) {
                        let (ra, rg) = slot.as_ref().expect("folded");
                        let ctx = format!("{precision:?} fold {fold} {}", state.name);
                        let a = unpack_lower(state.factor_a.as_ref().unwrap(), state.a_dim);
                        let g = unpack_lower(state.factor_g.as_ref().unwrap(), state.g_dim);
                        assert_eq!(bits(&a), bits(ra), "A {ctx}");
                        assert_eq!(bits(&g), bits(rg), "G {ctx}");
                    }
                }
            });
        }
    }
}
