//! The live pipelined executor: layer sweeps over non-blocking collectives.
//!
//! Each phase of `Kfac::step` becomes two or three *sweeps* over the layers.
//! An early sweep runs a layer's local compute and immediately `begin`s the
//! collective that publishes its result; a later sweep `complete`s the
//! handles in the same layer order and consumes the payloads. Because every
//! `begin` of a sweep is issued before any `complete` of the next sweep, all
//! of a phase's collectives are in flight while the remaining layers'
//! compute runs — communication/computation overlap without threads or an
//! async runtime.
//!
//! Two invariants make this safe and bit-exact:
//!
//! - **Matching**: every rank iterates layers in the same order within each
//!   sweep, so each communication group observes the same collective
//!   sequence on all of its members (the MPI matching rule ThreadComm's
//!   rendezvous requires). Begins never block, and completes only wait on
//!   begins, so no deadlock is possible.
//! - **Bitwise equality**: both executors share the stage kernels in
//!   `crate::state`, quantize at identical points, and the allreduce
//!   reduction itself is rank-order deterministic — so reordering
//!   initiation/completion cannot change a single bit of the result.

use kaisa_comm::{CommTag, Communicator, PendingCollective, ReduceOp};
use kaisa_tensor::Matrix;

use crate::preconditioner::Kfac;
use crate::state::{
    factor_payload_len, pack_factor_payload, unpack_factor_payload, KfacLayerState,
};
use crate::timing::Stage;

/// A matrix broadcast in flight: the handle plus the destination buffer.
pub(crate) struct MatBcast {
    pending: PendingCollective,
    m: Matrix,
}

/// All result broadcasts a layer has in flight between sweeps 2 and 3 of
/// the eigendecomposition phase.
#[derive(Default)]
struct LayerBcasts {
    qa: Option<MatBcast>,
    qg: Option<MatBcast>,
    outer: Option<MatBcast>,
    inv_a: Option<MatBcast>,
    inv_g: Option<MatBcast>,
    va_buf: Option<(PendingCollective, Vec<f32>)>,
    vg_buf: Option<(PendingCollective, Vec<f32>)>,
}

impl Kfac {
    /// Pipelined factor update: sweep A finalizes statistics and begins
    /// every layer's allreduce; sweep B completes them and folds the
    /// averages into the running factors.
    pub(crate) fn update_factors_pipelined(
        &mut self,
        layers: &mut [&mut dyn kaisa_nn::KfacAble],
        comm: &dyn Communicator,
    ) {
        let precision = self.cfg.precision;
        let decay = self.cfg.factor_decay;
        let triangular = self.cfg.triangular_comm;
        let world_group: Vec<usize> = (0..self.world).collect();

        struct InFlight {
            layer: usize,
            pending: PendingCollective,
            buf: Vec<f32>,
            split: usize,
        }
        let mut inflight: Vec<InFlight> = Vec::with_capacity(layers.len());

        for (i, layer) in layers.iter_mut().enumerate() {
            let stats = layer.capture_mut().take_stats().unwrap_or_else(|| {
                panic!(
                    "layer {}: no captured statistics — call Kfac::prepare() before the forward pass",
                    layer.layer_name()
                )
            });
            let (a_new, g_new) = self.times.time_layer(i, Stage::FactorCompute, || {
                let inv = 1.0 / stats.batches.max(1) as f32;
                let mut a = stats.a_stat;
                a.scale(inv);
                let mut g = stats.g_stat;
                g.scale(inv);
                (a, g)
            });
            let entry = self.times.time_layer(i, Stage::FactorComm, || {
                let (buf, split) = pack_factor_payload(&a_new, &g_new, triangular, precision);
                let pending =
                    comm.begin_allreduce(&buf, ReduceOp::Avg, &world_group, CommTag::FactorComm);
                InFlight { layer: i, pending, buf, split }
            });
            inflight.push(entry);
        }

        for mut fl in inflight {
            let i = fl.layer;
            let (a_dim, g_dim) = (self.states[i].a_dim, self.states[i].g_dim);
            let (a_new, g_new) = self.times.time_layer(i, Stage::FactorComm, || {
                comm.complete(fl.pending, &mut fl.buf);
                unpack_factor_payload(&mut fl.buf, fl.split, a_dim, g_dim, triangular, precision)
            });
            self.comm_bytes += (factor_payload_len(a_dim, g_dim, triangular)
                * precision.bytes_per_element()) as u64;
            self.times.time_layer(i, Stage::FactorCompute, || {
                self.states[i].update_factors(a_new, g_new, decay);
            });
        }
        self.note_factor_residency();
    }

    /// Pipelined decomposition update: sweep 1 runs the LPT-assigned
    /// eigensolves and begins the `v_A` pair shuttles; sweep 2 completes the
    /// shuttles, computes the outer products, and begins every result
    /// broadcast; sweep 3 completes them into the layer states.
    pub(crate) fn update_decompositions_pipelined(&mut self, comm: &dyn Communicator) {
        let rank = self.rank;
        let damping = self.cfg.damping;
        let precision = self.cfg.precision;
        let precompute = self.cfg.precompute_outer;
        let use_eigen = self.cfg.use_eigen;
        let n = self.states.len();

        let mut va: Vec<Option<Vec<f32>>> = vec![None; n];
        let mut vg: Vec<Option<Vec<f32>>> = vec![None; n];
        let mut va_pending: Vec<Option<(PendingCollective, Vec<f32>)>> =
            (0..n).map(|_| None).collect();
        // Sweep 1: local eigensolves (or inverses); begin v_A pair shuttles.
        for i in 0..n {
            let asn = self.plan.layers[i].clone();
            // EK-FAC corrected moments live in the eigenbasis; a new basis
            // invalidates them (they re-seed from the fresh outer product).
            if self.cfg.ekfac {
                self.states[i].ekfac_scale = None;
            }
            if !use_eigen {
                if rank == asn.a_worker {
                    self.times.time_layer(i, Stage::EigCompute, || {
                        self.states[i].compute_inverses(damping);
                    });
                }
                continue;
            }
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
            if precompute
                && asn.a_worker != asn.g_worker
                && (rank == asn.a_worker || rank == asn.g_worker)
            {
                let a_dim = self.states[i].a_dim;
                let pair = [asn.a_worker, asn.g_worker];
                let buf = va[i].clone().unwrap_or_else(|| vec![0.0; a_dim]);
                let pending = self.times.time_layer(i, Stage::EigComm, || {
                    comm.begin_broadcast(&buf, asn.a_worker, &pair, CommTag::EigComm)
                });
                if rank == asn.a_worker {
                    self.comm_bytes += (a_dim * precision.bytes_per_element()) as u64;
                }
                va_pending[i] = Some((pending, buf));
            }
        }

        // Sweep 2: finish shuttles, outer products; begin result broadcasts.
        let mut bcasts: Vec<LayerBcasts> = (0..n).map(|_| LayerBcasts::default()).collect();
        for i in 0..n {
            let asn = self.plan.layers[i].clone();
            let is_gw = asn.is_gradient_worker(rank);
            let (a_dim, g_dim) = (self.states[i].a_dim, self.states[i].g_dim);

            if use_eigen && precompute {
                if let Some((pending, mut buf)) = va_pending[i].take() {
                    self.times.time_layer(i, Stage::EigComm, || comm.complete(pending, &mut buf));
                    if rank == asn.g_worker {
                        va[i] = Some(buf);
                    }
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
            }

            if !use_eigen {
                if is_gw && asn.gradient_workers.len() > 1 {
                    let local = self.states[i].inv_a.take();
                    bcasts[i].inv_a = Some(self.begin_matrix_bcast(
                        i,
                        comm,
                        local,
                        a_dim,
                        a_dim,
                        asn.a_worker,
                        &asn.gradient_workers,
                    ));
                    let local = self.states[i].inv_g.take();
                    bcasts[i].inv_g = Some(self.begin_matrix_bcast(
                        i,
                        comm,
                        local,
                        g_dim,
                        g_dim,
                        asn.a_worker,
                        &asn.gradient_workers,
                    ));
                }
                continue;
            }

            if is_gw && asn.gradient_workers.len() > 1 {
                let local = self.states[i].qa.take();
                bcasts[i].qa = Some(self.begin_matrix_bcast(
                    i,
                    comm,
                    local,
                    a_dim,
                    a_dim,
                    asn.a_worker,
                    &asn.gradient_workers,
                ));
                let local = self.states[i].qg.take();
                bcasts[i].qg = Some(self.begin_matrix_bcast(
                    i,
                    comm,
                    local,
                    g_dim,
                    g_dim,
                    asn.g_worker,
                    &asn.gradient_workers,
                ));
                if precompute {
                    let local = self.states[i].outer.take();
                    bcasts[i].outer = Some(self.begin_matrix_bcast(
                        i,
                        comm,
                        local,
                        g_dim,
                        a_dim,
                        asn.g_worker,
                        &asn.gradient_workers,
                    ));
                } else {
                    // Ablation: ship raw eigenvalues; every worker recomputes
                    // the outer product at every preconditioning step.
                    let va_b = va[i].take().unwrap_or_else(|| vec![0.0; a_dim]);
                    let vg_b = vg[i].take().unwrap_or_else(|| vec![0.0; g_dim]);
                    let pending_a = self.times.time_layer(i, Stage::EigComm, || {
                        comm.begin_broadcast(
                            &va_b,
                            asn.a_worker,
                            &asn.gradient_workers,
                            CommTag::EigComm,
                        )
                    });
                    let pending_g = self.times.time_layer(i, Stage::EigComm, || {
                        comm.begin_broadcast(
                            &vg_b,
                            asn.g_worker,
                            &asn.gradient_workers,
                            CommTag::EigComm,
                        )
                    });
                    let receivers = (asn.gradient_workers.len() - 1) as u64;
                    if rank == asn.a_worker {
                        self.comm_bytes +=
                            (a_dim * precision.bytes_per_element()) as u64 * receivers;
                    }
                    if rank == asn.g_worker {
                        self.comm_bytes +=
                            (g_dim * precision.bytes_per_element()) as u64 * receivers;
                    }
                    bcasts[i].va_buf = Some((pending_a, va_b));
                    bcasts[i].vg_buf = Some((pending_g, vg_b));
                }
            } else if is_gw && !precompute {
                // Single gradient worker: keep local values (no broadcast).
                if let Some(values) = va[i].take() {
                    self.states[i].va = Some(values);
                }
                if let Some(values) = vg[i].take() {
                    self.states[i].vg = Some(values);
                }
            }
        }

        // Sweep 3: complete every result broadcast into the layer state.
        for (i, b) in bcasts.into_iter().enumerate() {
            if let Some(mb) = b.inv_a {
                let m = self.complete_matrix_bcast(i, comm, mb);
                self.states[i].inv_a = Some(m);
            }
            if let Some(mb) = b.inv_g {
                let m = self.complete_matrix_bcast(i, comm, mb);
                self.states[i].inv_g = Some(m);
            }
            if let Some(mb) = b.qa {
                let m = self.complete_matrix_bcast(i, comm, mb);
                self.states[i].qa = Some(m);
            }
            if let Some(mb) = b.qg {
                let m = self.complete_matrix_bcast(i, comm, mb);
                self.states[i].qg = Some(m);
            }
            if let Some(mb) = b.outer {
                let m = self.complete_matrix_bcast(i, comm, mb);
                self.states[i].outer = Some(m);
            }
            if let Some((pending, mut buf)) = b.va_buf {
                self.times.time_layer(i, Stage::EigComm, || comm.complete(pending, &mut buf));
                self.states[i].va = Some(buf);
            }
            if let Some((pending, mut buf)) = b.vg_buf {
                self.times.time_layer(i, Stage::EigComm, || comm.complete(pending, &mut buf));
                self.states[i].vg = Some(buf);
            }
        }
    }

    /// Pipelined preconditioning: sweep 1 preconditions each layer and
    /// begins its gradient broadcast; sweep 2 completes them; then the
    /// (inherently serial) KL-clip scale writes everything back.
    pub(crate) fn precondition_and_scale_pipelined(
        &mut self,
        layers: &mut [&mut dyn kaisa_nn::KfacAble],
        comm: &dyn Communicator,
        lr: f32,
    ) {
        let rank = self.rank;
        let precision = self.cfg.precision;
        let grads: Vec<Matrix> = layers.iter().map(|l| l.combined_grad()).collect();
        let n = grads.len();

        let mut pending: Vec<Option<PendingCollective>> = (0..n).map(|_| None).collect();
        let mut preconditioned: Vec<Option<Matrix>> = (0..n).map(|_| None).collect();

        for i in 0..n {
            let grad = &grads[i];
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
                pending[i] = Some(self.times.time_layer(i, Stage::GradComm, || {
                    comm.begin_broadcast(precond.as_slice(), root, group, CommTag::GradComm)
                }));
            }
            preconditioned[i] = Some(precond);
        }

        for i in 0..n {
            if let Some(p) = pending[i].take() {
                let buf = preconditioned[i].as_mut().expect("filled in sweep 1").as_mut_slice();
                self.times.time_layer(i, Stage::GradComm, || comm.complete(p, buf));
            }
        }

        // The KL-clip scale consumes layers in the serial executor's order,
        // so ν — and therefore the update — is bitwise the same.
        let preconditioned: Vec<Matrix> =
            preconditioned.into_iter().map(|p| p.expect("every layer preconditioned")).collect();
        self.scale_and_write_back(layers, &grads, preconditioned, lr);
    }

    /// Begin a matrix broadcast within `group` from `root`: quantize on the
    /// root, attribute its logical bytes, and return the in-flight handle.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn begin_matrix_bcast(
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
        if self.rank == root {
            self.comm_bytes +=
                (rows * cols * precision.bytes_per_element() * (group.len() - 1)) as u64;
        }
        MatBcast { pending, m }
    }

    /// Complete a matrix broadcast begun by [`Kfac::begin_matrix_bcast`].
    pub(crate) fn complete_matrix_bcast(
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
