//! Checkpoint/restore hooks on [`Kfac`] for elastic world resizing.
//!
//! A checkpoint captures the *complete* preconditioner state — running
//! factor averages (packed triangles, as they are held), cached
//! eigendecompositions and outer products, and the optimizer step counter
//! — on **every** rank, so a paused job can resume on a *different* world
//! size: [`Kfac::restore`] re-runs LPT placement for the new world and
//! re-populates exactly the state each new rank's residency rules call
//! for.
//!
//! The running factors are replicated: every rank folds the same allreduced
//! wire, so every rank holds them bit for bit and copies its own. The eigen
//! caches are scattered (they live only on gradient workers), so
//! [`Kfac::checkpoint_state`] runs a small collective protocol for them:
//! one allgather of per-layer presence flags, then one broadcast per
//! present eigen field from its lowest-rank holder. Every holder of a field
//! holds bitwise identical values (they arrived by broadcast or identical
//! deterministic compute), so the choice of root does not affect the
//! checkpoint bits.

use kaisa_comm::Communicator;
use kaisa_nn::Model;
use kaisa_tensor::{packed_len, Matrix};

use crate::config::KfacConfig;
use crate::preconditioner::Kfac;
use crate::state::KfacLayerState;

/// One layer's checkpointed K-FAC state. Every field is optional — absent
/// fields were not yet populated anywhere in the world (e.g. no
/// eigendecomposition step has run).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCheckpoint {
    /// Layer name (diagnostics and integrity checks).
    pub name: String,
    /// `A` factor dimension.
    pub a_dim: usize,
    /// `G` factor dimension.
    pub g_dim: usize,
    /// Running `A` average: its row-packed lower triangle
    /// (`packed_len(a_dim)`), as `KfacLayerState` holds it.
    pub factor_a: Option<Vec<f32>>,
    /// Running `G` average: its row-packed lower triangle
    /// (`packed_len(g_dim)`).
    pub factor_g: Option<Vec<f32>>,
    /// Eigenvectors of `A` (`a_dim²`).
    pub qa: Option<Vec<f32>>,
    /// Eigenvectors of `G` (`g_dim²`).
    pub qg: Option<Vec<f32>>,
    /// Precomputed damped reciprocal outer product (`g_dim × a_dim`).
    pub outer: Option<Vec<f32>>,
}

impl LayerCheckpoint {
    /// Number of optional state fields per layer. Field indices follow the
    /// declaration order: `factor_a factor_g qa qg outer`.
    pub const FIELD_COUNT: usize = 5;
    /// The leading fields `factor_a factor_g`: replicated on every rank.
    const FACTOR_FIELDS: usize = 2;

    /// A layer entry with every field absent.
    pub fn new(name: String, a_dim: usize, g_dim: usize) -> Self {
        LayerCheckpoint {
            name,
            a_dim,
            g_dim,
            factor_a: None,
            factor_g: None,
            qa: None,
            qg: None,
            outer: None,
        }
    }

    /// The element count field `f` must have for this layer's dimensions.
    pub fn field_len(&self, f: usize) -> usize {
        let (a, g) = (self.a_dim, self.g_dim);
        match f {
            0 => packed_len(a), // factor_a
            1 => packed_len(g), // factor_g
            2 => a * a,         // qa
            3 => g * g,         // qg
            4 => g * a,         // outer
            _ => unreachable!("checkpoint field index out of range"),
        }
    }

    /// All fields, in field-index order.
    pub fn fields(&self) -> [&Option<Vec<f32>>; Self::FIELD_COUNT] {
        [&self.factor_a, &self.factor_g, &self.qa, &self.qg, &self.outer]
    }

    /// Field `f`, for filling in.
    pub fn field_mut(&mut self, f: usize) -> &mut Option<Vec<f32>> {
        match f {
            0 => &mut self.factor_a,
            1 => &mut self.factor_g,
            2 => &mut self.qa,
            3 => &mut self.qg,
            4 => &mut self.outer,
            _ => unreachable!("checkpoint field index out of range"),
        }
    }

    /// Total checkpointed f32 elements across present fields.
    pub fn element_count(&self) -> usize {
        self.fields().iter().map(|v| v.as_ref().map_or(0, Vec::len)).sum()
    }
}

/// A world-size-independent snapshot of a [`Kfac`] instance: the step
/// counter plus every layer's accumulated state in canonical,
/// rank-agnostic form (packed factor triangles, square eigenbases).
/// Identical on every rank after [`Kfac::checkpoint_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct KfacCheckpoint {
    /// Completed preconditioner steps — restores the `factor_update_freq` /
    /// `inv_update_freq` phase exactly.
    pub steps: u64,
    /// Per-layer state in registration order.
    pub layers: Vec<LayerCheckpoint>,
}

impl KfacCheckpoint {
    /// Total checkpointed f32 elements (all layers, present fields only).
    pub fn element_count(&self) -> usize {
        self.layers.iter().map(LayerCheckpoint::element_count).sum()
    }
}

/// The state behind checkpoint field `f`, if this rank holds it.
fn state_field(s: &KfacLayerState, f: usize) -> Option<&[f32]> {
    match f {
        0 => s.factor_a.as_deref(),
        1 => s.factor_g.as_deref(),
        2 => s.qa.as_ref().map(Matrix::as_slice),
        3 => s.qg.as_ref().map(Matrix::as_slice),
        4 => s.outer.as_ref().map(Matrix::as_slice),
        _ => unreachable!("checkpoint field index out of range"),
    }
}

impl Kfac {
    /// Capture the complete preconditioner state into a rank-agnostic
    /// checkpoint. Collective: every rank must call it, and every rank
    /// returns the identical checkpoint.
    pub fn checkpoint_state(&self, comm: &dyn Communicator) -> KfacCheckpoint {
        const FIELD_COUNT: usize = LayerCheckpoint::FIELD_COUNT;
        let n = self.states.len();
        let mut flags = vec![0.0f32; n * FIELD_COUNT];
        for (i, s) in self.states.iter().enumerate() {
            for f in 0..FIELD_COUNT {
                if state_field(s, f).is_some() {
                    flags[i * FIELD_COUNT + f] = 1.0;
                }
            }
        }
        // One allgather tells every rank which fields exist where; the
        // lowest-rank holder then broadcasts each present eigen field
        // (holders all carry identical bits, so any root works — lowest is
        // deterministic).
        let all_flags = comm.allgather(&flags);
        let world = comm.world_size();
        debug_assert_eq!(all_flags.len(), world * n * FIELD_COUNT);
        let held = |r: usize, i: usize, f: usize| all_flags[(r * n + i) * FIELD_COUNT + f] > 0.5;

        let mut layers = Vec::with_capacity(n);
        for (i, s) in self.states.iter().enumerate() {
            let mut entry = LayerCheckpoint::new(s.name.clone(), s.a_dim, s.g_dim);
            // The factors are replicated bit for bit: copy this rank's own.
            for f in 0..LayerCheckpoint::FACTOR_FIELDS {
                debug_assert!(
                    (0..world).all(|r| held(r, i, f) == held(self.rank, i, f)),
                    "layer {:?}: factor field {f} is not on every rank",
                    s.name
                );
                *entry.field_mut(f) = state_field(s, f).map(<[f32]>::to_vec);
            }
            for f in LayerCheckpoint::FACTOR_FIELDS..FIELD_COUNT {
                let Some(root) = (0..world).find(|&r| held(r, i, f)) else { continue };
                let len = entry.field_len(f);
                let mut buf = match state_field(s, f) {
                    Some(v) if self.rank == root => v.to_vec(),
                    _ => vec![0.0f32; len],
                };
                debug_assert_eq!(buf.len(), len);
                if world > 1 {
                    comm.broadcast(&mut buf, root);
                }
                *entry.field_mut(f) = Some(buf);
            }
            layers.push(entry);
        }
        KfacCheckpoint { steps: self.steps, layers }
    }

    /// Rebuild a preconditioner from a checkpoint on the *current* world —
    /// which may differ in size from the world that wrote it. Re-runs LPT
    /// placement via [`Kfac::new`], then populates exactly the state each
    /// field's residency rules place on this rank:
    ///
    /// * factors land on every rank,
    /// * eigenbases and the outer product land on gradient workers,
    /// * the step counter restores the update-frequency phase, and capture
    ///   is re-armed accordingly.
    ///
    /// `cfg` must use the same algorithm settings (`precision`, update
    /// frequencies) as the run that wrote the checkpoint; the distribution
    /// settings (`grad_worker_frac`, world) are free to change — that is the
    /// elastic-resize path.
    ///
    /// # Panics
    /// If the model's K-FAC layer dimensions disagree with the checkpoint.
    pub fn restore<M: Model>(
        cfg: KfacConfig,
        model: &mut M,
        comm: &dyn Communicator,
        ckpt: &KfacCheckpoint,
    ) -> Kfac {
        let mut kfac = Kfac::new(cfg, model, comm);
        assert_eq!(
            kfac.states.len(),
            ckpt.layers.len(),
            "checkpoint layer count does not match the model"
        );
        for (s, l) in kfac.states.iter().zip(&ckpt.layers) {
            assert_eq!(
                (s.a_dim, s.g_dim),
                (l.a_dim, l.g_dim),
                "layer {:?}: factor dimensions changed since checkpoint",
                l.name
            );
        }
        kfac.steps = ckpt.steps;
        let rank = kfac.rank;

        for i in 0..ckpt.layers.len() {
            let entry = &ckpt.layers[i];
            let asn = kfac.plan.layers[i].clone();
            let (a_dim, g_dim) = (entry.a_dim, entry.g_dim);
            let square = |v: &Vec<f32>, d: usize| Matrix::from_vec(d, d, v.clone());

            // Running factors are replicated on every rank.
            kfac.states[i].factor_a.clone_from(&entry.factor_a);
            kfac.states[i].factor_g.clone_from(&entry.factor_g);

            // Decomposition caches live on gradient workers only.
            if asn.is_gradient_worker(rank) {
                if let Some(qa) = &entry.qa {
                    kfac.states[i].qa = Some(square(qa, a_dim));
                }
                if let Some(qg) = &entry.qg {
                    kfac.states[i].qg = Some(square(qg, g_dim));
                }
                if let Some(o) = &entry.outer {
                    kfac.states[i].outer = Some(Matrix::from_vec(g_dim, a_dim, o.clone()));
                }
            }
        }

        kfac.note_factor_residency();
        kfac.note_step_residency();
        // `Kfac::new` armed capture for a fresh step 0; re-arm for the
        // restored phase (the trainer's per-step `prepare` keeps it fresh).
        model.set_kfac_capture(kfac.is_factor_update_step());
        kfac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaisa_comm::{CommOp, ThreadComm};
    use kaisa_nn::models::Mlp;
    use kaisa_tensor::{Precision, Rng};

    fn trained_kfac(cfg: KfacConfig, steps: usize) -> (Mlp, Kfac, ThreadComm) {
        let mut rng = Rng::seed_from_u64(401);
        let mut model = Mlp::new(&[6, 9, 3], &mut rng);
        let x = Matrix::randn(12, 6, 1.0, &mut rng);
        let y: Vec<usize> = (0..12).map(|i| i % 3).collect();
        let comm = ThreadComm::world(1).remove(0);
        let mut kfac = Kfac::new(cfg, &mut model, &comm);
        for _ in 0..steps {
            kfac.prepare(&mut model);
            model.zero_grad();
            let _ = model.forward_backward(&x, &y);
            kfac.step(&mut model, &comm, 0.1);
        }
        (model, kfac, comm)
    }

    #[test]
    fn checkpoint_captures_factors_and_eigens() {
        let cfg = KfacConfig::builder().factor_update_freq(1).inv_update_freq(2).build();
        let (_, kfac, comm) = trained_kfac(cfg, 3);
        let ckpt = kfac.checkpoint_state(&comm);
        assert_eq!(ckpt.steps, 3);
        for layer in &ckpt.layers {
            assert!(layer.factor_a.is_some() && layer.factor_g.is_some());
            assert!(layer.qa.is_some() && layer.qg.is_some() && layer.outer.is_some());
            assert_eq!(layer.factor_a.as_ref().unwrap().len(), packed_len(layer.a_dim));
        }
        assert!(ckpt.element_count() > 0);
    }

    #[test]
    fn restore_is_bitwise_transparent_single_rank() {
        // Pause/resume at world 1 must continue the exact trajectory: run A
        // trains 6 steps straight; run B trains 3, checkpoints, restores into
        // a fresh Kfac, and trains 3 more. Gradients must match bitwise.
        for precision in [Precision::Fp32, Precision::Fp16] {
            let cfg = || {
                KfacConfig::builder()
                    .factor_update_freq(2)
                    .inv_update_freq(2)
                    .precision(precision)
                    .build()
            };
            let mut rng = Rng::seed_from_u64(402);
            let model0 = Mlp::new(&[6, 9, 3], &mut rng);
            let x = Matrix::randn(12, 6, 1.0, &mut rng);
            let y: Vec<usize> = (0..12).map(|i| i % 3).collect();
            let comm = ThreadComm::world(1).remove(0);

            let drive = |model: &mut Mlp, kfac: &mut Kfac, steps: usize| {
                for _ in 0..steps {
                    kfac.prepare(model);
                    model.zero_grad();
                    let _ = model.forward_backward(&x, &y);
                    kfac.step(model, &comm, 0.1);
                    // Apply a plain SGD update so the trajectory moves.
                    let g = model.grads_flat();
                    let mut p = model.params_flat();
                    for (pi, gi) in p.iter_mut().zip(&g) {
                        *pi -= 0.1 * gi;
                    }
                    model.set_params_flat(&p);
                }
            };

            let mut cont_model = model0.clone();
            let mut cont = Kfac::new(cfg(), &mut cont_model, &comm);
            drive(&mut cont_model, &mut cont, 6);

            let mut pause_model = model0.clone();
            let mut first = Kfac::new(cfg(), &mut pause_model, &comm);
            drive(&mut pause_model, &mut first, 3);
            let ckpt = first.checkpoint_state(&comm);
            drop(first);
            let mut resumed = Kfac::restore(cfg(), &mut pause_model, &comm, &ckpt);
            assert_eq!(resumed.steps(), 3);
            drive(&mut pause_model, &mut resumed, 3);

            let a = cont_model.params_flat();
            let b = pause_model.params_flat();
            for (x0, x1) in a.iter().zip(&b) {
                assert_eq!(
                    x0.to_bits(),
                    x1.to_bits(),
                    "pause/resume diverged (prec={precision:?})"
                );
            }
        }
    }

    #[test]
    fn checkpoint_roundtrips_through_a_second_save() {
        // save -> restore -> save must produce an identical checkpoint.
        let cfg = || KfacConfig::builder().factor_update_freq(1).inv_update_freq(2).build();
        let (mut model, kfac, comm) = trained_kfac(cfg(), 3);
        let first = kfac.checkpoint_state(&comm);
        drop(kfac);
        let restored = Kfac::restore(cfg(), &mut model, &comm, &first);
        let second = restored.checkpoint_state(&comm);
        assert_eq!(first, second);
    }

    #[test]
    fn checkpoint_broadcasts_only_the_eigen_fields() {
        // Every rank holds the replicated factors, so a checkpoint sends
        // none of them: the world meter's bytes over `checkpoint_state` are
        // the presence-flag allgather plus one broadcast per eigen field.
        for world in [2usize, 4] {
            let per_rank = kaisa_comm::ThreadComm::run(world, |comm| {
                let cfg = KfacConfig::builder()
                    .grad_worker_frac(0.5)
                    .factor_update_freq(1)
                    .inv_update_freq(2)
                    .build();
                let mut rng = Rng::seed_from_u64(404);
                let mut model = Mlp::new(&[6, 9, 3], &mut rng);
                let x = Matrix::randn(12, 6, 1.0, &mut rng);
                let y: Vec<usize> = (0..12).map(|i| i % 3).collect();
                let mut kfac = Kfac::new(cfg, &mut model, comm);
                for _ in 0..3 {
                    kfac.prepare(&mut model);
                    model.zero_grad();
                    let _ = model.forward_backward(&x, &y);
                    kfac.step(&mut model, comm, 0.1);
                }
                // Rank 0 reads the world meter while no rank is inside the
                // checkpoint.
                comm.barrier();
                let before = comm.meter_snapshot();
                comm.barrier();
                let ckpt = kfac.checkpoint_state(comm);
                comm.barrier();
                let delta = comm.meter_snapshot().delta_since(&before);
                (ckpt, delta)
            });
            let (ckpt, delta) = &per_rank[0];
            assert!(per_rank.iter().all(|(c, _)| c == ckpt), "world {world}: ranks disagree");
            let (mut eigen_bytes, mut eigen_fields) = (0, 0);
            for layer in &ckpt.layers {
                assert!(layer.factor_a.is_some() && layer.factor_g.is_some());
                for v in layer.fields()[LayerCheckpoint::FACTOR_FIELDS..].iter().copied().flatten()
                {
                    eigen_bytes += 4 * v.len() as u64;
                    eigen_fields += 1;
                }
            }
            // qa, qg and outer.
            assert_eq!(eigen_fields, 3 * ckpt.layers.len() as u64, "world {world}");
            let flag_bytes = 4 * (ckpt.layers.len() * LayerCheckpoint::FIELD_COUNT) as u64;
            let ctx = format!("world {world}");
            assert_eq!(delta.calls(CommOp::Broadcast), eigen_fields, "{ctx}");
            assert_eq!(delta.bytes(CommOp::Broadcast), eigen_bytes, "{ctx}");
            assert_eq!(delta.bytes(CommOp::Allgather), flag_bytes, "{ctx}");
            assert_eq!(delta.total_bytes(), eigen_bytes + flag_bytes, "{ctx}");
        }
    }

    #[test]
    #[should_panic(expected = "dimensions changed")]
    fn restore_rejects_mismatched_model() {
        let cfg = || KfacConfig::builder().factor_update_freq(1).inv_update_freq(1).build();
        let (_, kfac, comm) = trained_kfac(cfg(), 1);
        let ckpt = kfac.checkpoint_state(&comm);
        let mut other = Mlp::new(&[6, 10, 3], &mut Rng::seed_from_u64(403));
        let _ = Kfac::restore(cfg(), &mut other, &comm, &ckpt);
    }
}
