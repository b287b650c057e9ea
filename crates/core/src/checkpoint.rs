//! Checkpoint/restore hooks on [`Kfac`] for elastic world resizing.
//!
//! A checkpoint captures the *complete* preconditioner state — running
//! factor averages, cached eigendecompositions, direct inverses, EK-FAC
//! corrected moments, and the optimizer step counter — on **every** rank,
//! so a paused job can resume on a *different* world size:
//! [`Kfac::restore`] re-runs LPT placement and strategy resolution for the
//! new world and re-populates exactly the state each new rank's residency
//! rules call for.
//!
//! Distributed state is scattered (LOCAL-OPT factors live only on their
//! owner; eigen caches only on gradient workers), so
//! [`Kfac::checkpoint_state`] runs a small collective protocol: one
//! allgather of per-layer presence flags, then one broadcast per present
//! field from its lowest-rank holder. Every holder of a field holds bitwise
//! identical values (they arrived by broadcast or identical deterministic
//! compute), so the choice of root does not affect the checkpoint bits.

use kaisa_comm::Communicator;
use kaisa_nn::Model;
use kaisa_tensor::Matrix;

use crate::config::KfacConfig;
use crate::preconditioner::Kfac;
use crate::state::KfacLayerState;

/// Number of per-layer optional state fields a checkpoint carries.
const FIELD_COUNT: usize = 10;

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
    /// Running `A` average in square row-major form (`a_dim²`).
    pub factor_a: Option<Vec<f32>>,
    /// Running `G` average in square row-major form (`g_dim²`).
    pub factor_g: Option<Vec<f32>>,
    /// Eigenvectors of `A` (`a_dim²`).
    pub qa: Option<Vec<f32>>,
    /// Eigenvectors of `G` (`g_dim²`).
    pub qg: Option<Vec<f32>>,
    /// Precomputed damped reciprocal outer product (`g_dim × a_dim`).
    pub outer: Option<Vec<f32>>,
    /// Eigenvalues of `A` (`a_dim`; the non-precompute ablation path).
    pub va: Option<Vec<f32>>,
    /// Eigenvalues of `G` (`g_dim`).
    pub vg: Option<Vec<f32>>,
    /// Damped direct inverse of `A` (`a_dim²`; the `use_eigen=false` path).
    pub inv_a: Option<Vec<f32>>,
    /// Damped direct inverse of `G` (`g_dim²`).
    pub inv_g: Option<Vec<f32>>,
    /// EK-FAC corrected second moments (`g_dim × a_dim`).
    pub ekfac_scale: Option<Vec<f32>>,
}

impl LayerCheckpoint {
    fn new(name: String, a_dim: usize, g_dim: usize) -> Self {
        LayerCheckpoint {
            name,
            a_dim,
            g_dim,
            factor_a: None,
            factor_g: None,
            qa: None,
            qg: None,
            outer: None,
            va: None,
            vg: None,
            inv_a: None,
            inv_g: None,
            ekfac_scale: None,
        }
    }

    /// Total checkpointed f32 elements across present fields.
    pub fn element_count(&self) -> usize {
        let opt = |v: &Option<Vec<f32>>| v.as_ref().map_or(0, Vec::len);
        opt(&self.factor_a)
            + opt(&self.factor_g)
            + opt(&self.qa)
            + opt(&self.qg)
            + opt(&self.outer)
            + opt(&self.va)
            + opt(&self.vg)
            + opt(&self.inv_a)
            + opt(&self.inv_g)
            + opt(&self.ekfac_scale)
    }
}

/// A world-size-independent snapshot of a [`Kfac`] instance: the step
/// counter plus every layer's accumulated state in canonical (square,
/// rank-agnostic) form. Identical on every rank after
/// [`Kfac::checkpoint_state`].
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

/// Element count of checkpoint field `f` for the given factor dimensions.
fn field_len(f: usize, a_dim: usize, g_dim: usize) -> usize {
    match f {
        0 | 2 | 7 => a_dim * a_dim, // factor_a, qa, inv_a
        1 | 3 | 8 => g_dim * g_dim, // factor_g, qg, inv_g
        4 | 9 => g_dim * a_dim,     // outer, ekfac_scale
        5 => a_dim,                 // va
        6 => g_dim,                 // vg
        _ => unreachable!("checkpoint field index out of range"),
    }
}

/// Whether this rank holds checkpoint field `f` for layer state `s`.
fn field_present(s: &KfacLayerState, f: usize) -> bool {
    match f {
        0 => s.factor_a.is_some(),
        1 => s.factor_g.is_some(),
        2 => s.qa.is_some(),
        3 => s.qg.is_some(),
        4 => s.outer.is_some(),
        5 => s.va.is_some(),
        6 => s.vg.is_some(),
        7 => s.inv_a.is_some(),
        8 => s.inv_g.is_some(),
        9 => s.ekfac_scale.is_some(),
        _ => unreachable!("checkpoint field index out of range"),
    }
}

/// Extract checkpoint field `f` from a rank that holds it.
fn extract_field(s: &KfacLayerState, f: usize) -> Vec<f32> {
    let mat = |m: &Option<Matrix>| m.as_ref().expect("field flagged present").as_slice().to_vec();
    match f {
        0 => mat(&s.factor_a),
        1 => mat(&s.factor_g),
        2 => mat(&s.qa),
        3 => mat(&s.qg),
        4 => mat(&s.outer),
        5 => s.va.clone().expect("field flagged present"),
        6 => s.vg.clone().expect("field flagged present"),
        7 => mat(&s.inv_a),
        8 => mat(&s.inv_g),
        9 => mat(&s.ekfac_scale),
        _ => unreachable!("checkpoint field index out of range"),
    }
}

/// Store a broadcast field into the layer entry.
fn set_field(entry: &mut LayerCheckpoint, f: usize, buf: Vec<f32>) {
    match f {
        0 => entry.factor_a = Some(buf),
        1 => entry.factor_g = Some(buf),
        2 => entry.qa = Some(buf),
        3 => entry.qg = Some(buf),
        4 => entry.outer = Some(buf),
        5 => entry.va = Some(buf),
        6 => entry.vg = Some(buf),
        7 => entry.inv_a = Some(buf),
        8 => entry.inv_g = Some(buf),
        9 => entry.ekfac_scale = Some(buf),
        _ => unreachable!("checkpoint field index out of range"),
    }
}

impl Kfac {
    /// Capture the complete preconditioner state into a rank-agnostic
    /// checkpoint. Collective: every rank must call it, and every rank
    /// returns the identical checkpoint.
    pub fn checkpoint_state(&self, comm: &dyn Communicator) -> KfacCheckpoint {
        let n = self.states.len();
        let mut flags = vec![0.0f32; n * FIELD_COUNT];
        for (i, s) in self.states.iter().enumerate() {
            for f in 0..FIELD_COUNT {
                if field_present(s, f) {
                    flags[i * FIELD_COUNT + f] = 1.0;
                }
            }
        }
        // One allgather tells every rank which fields exist where; the
        // lowest-rank holder then broadcasts each present field (holders all
        // carry identical bits, so any root works — lowest is deterministic).
        let all_flags = comm.allgather(&flags);
        let world = comm.world_size();
        debug_assert_eq!(all_flags.len(), world * n * FIELD_COUNT);

        let mut layers = Vec::with_capacity(n);
        for (i, s) in self.states.iter().enumerate() {
            let mut entry = LayerCheckpoint::new(s.name.clone(), s.a_dim, s.g_dim);
            for f in 0..FIELD_COUNT {
                let root =
                    (0..world).find(|r| all_flags[r * n * FIELD_COUNT + i * FIELD_COUNT + f] > 0.5);
                let Some(root) = root else { continue };
                let len = field_len(f, s.a_dim, s.g_dim);
                let mut buf =
                    if self.rank == root { extract_field(s, f) } else { vec![0.0f32; len] };
                debug_assert_eq!(buf.len(), len);
                if world > 1 {
                    comm.broadcast(&mut buf, root);
                }
                set_field(&mut entry, f, buf);
            }
            layers.push(entry);
        }
        KfacCheckpoint { steps: self.steps, layers }
    }

    /// Rebuild a preconditioner from a checkpoint on the *current* world —
    /// which may differ in size from the world that wrote it. Re-runs LPT
    /// placement and strategy resolution via [`Kfac::new`], then populates
    /// exactly the state each field's residency rules place on this rank:
    ///
    /// * factors land on every rank, or only on the owner under LOCAL-OPT,
    /// * eigen caches land on gradient workers per the algorithm flags
    ///   (`use_eigen`/`precompute_outer`/`ekfac`),
    /// * the step counter restores the update-frequency phase, and capture
    ///   is re-armed accordingly.
    ///
    /// `cfg` must use the same algorithm settings (`use_eigen`,
    /// `precompute_outer`, `ekfac`, `precision`, `triangular_comm`, update
    /// frequencies) as the run that wrote the checkpoint; the distribution
    /// settings (strategy, `grad_worker_frac`, world) are free to change —
    /// that is the elastic-resize path.
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

            // Running factors, per the new plan's residency: replicated,
            // or on the LOCAL-OPT owner alone.
            if !kfac.strat.local_factors() || rank == asn.a_worker {
                if let Some(a) = &entry.factor_a {
                    kfac.states[i].factor_a = Some(square(a, a_dim));
                }
                if let Some(g) = &entry.factor_g {
                    kfac.states[i].factor_g = Some(square(g, g_dim));
                }
            }

            // Decomposition caches live on gradient workers only, shaped by
            // the algorithm flags (which must match the checkpointing run).
            if asn.is_gradient_worker(rank) {
                if kfac.cfg.use_eigen {
                    if let Some(qa) = &entry.qa {
                        kfac.states[i].qa = Some(square(qa, a_dim));
                    }
                    if let Some(qg) = &entry.qg {
                        kfac.states[i].qg = Some(square(qg, g_dim));
                    }
                    if kfac.cfg.precompute_outer {
                        if let Some(o) = &entry.outer {
                            kfac.states[i].outer = Some(Matrix::from_vec(g_dim, a_dim, o.clone()));
                        }
                    } else {
                        if let Some(va) = &entry.va {
                            kfac.states[i].va = Some(va.clone());
                        }
                        if let Some(vg) = &entry.vg {
                            kfac.states[i].vg = Some(vg.clone());
                        }
                    }
                } else {
                    if let Some(ia) = &entry.inv_a {
                        kfac.states[i].inv_a = Some(square(ia, a_dim));
                    }
                    if let Some(ig) = &entry.inv_g {
                        kfac.states[i].inv_g = Some(square(ig, g_dim));
                    }
                }
                if kfac.cfg.ekfac {
                    if let Some(s) = &entry.ekfac_scale {
                        kfac.states[i].ekfac_scale =
                            Some(Matrix::from_vec(g_dim, a_dim, s.clone()));
                    }
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
    use kaisa_comm::LocalComm;
    use kaisa_nn::models::Mlp;
    use kaisa_tensor::{Precision, Rng};

    fn trained_kfac(cfg: KfacConfig, steps: usize) -> (Mlp, Kfac, LocalComm) {
        let mut rng = Rng::seed_from_u64(401);
        let mut model = Mlp::new(&[6, 9, 3], &mut rng);
        let x = Matrix::randn(12, 6, 1.0, &mut rng);
        let y: Vec<usize> = (0..12).map(|i| i % 3).collect();
        let comm = LocalComm::new();
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
            assert!(layer.va.is_none(), "precompute path stores no eigenvalues");
            assert!(layer.inv_a.is_none(), "eigen path stores no direct inverses");
            assert_eq!(layer.factor_a.as_ref().unwrap().len(), layer.a_dim * layer.a_dim);
        }
        assert!(ckpt.element_count() > 0);
    }

    #[test]
    fn restore_is_bitwise_transparent_single_rank() {
        // Pause/resume at world 1 must continue the exact trajectory: run A
        // trains 6 steps straight; run B trains 3, checkpoints, restores into
        // a fresh Kfac, and trains 3 more. Gradients must match bitwise.
        for (use_eigen, triangular, precision) in [
            (true, false, Precision::Fp32),
            (true, true, Precision::Fp16),
            (false, false, Precision::Fp32),
        ] {
            let cfg = || {
                KfacConfig::builder()
                    .factor_update_freq(2)
                    .inv_update_freq(2)
                    .use_eigen(use_eigen)
                    .triangular_comm(triangular)
                    .precision(precision)
                    .build()
            };
            let mut rng = Rng::seed_from_u64(402);
            let model0 = Mlp::new(&[6, 9, 3], &mut rng);
            let x = Matrix::randn(12, 6, 1.0, &mut rng);
            let y: Vec<usize> = (0..12).map(|i| i % 3).collect();
            let comm = LocalComm::new();

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
                    "pause/resume diverged (use_eigen={use_eigen} tri={triangular} prec={precision:?})"
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
    #[should_panic(expected = "dimensions changed")]
    fn restore_rejects_mismatched_model() {
        let cfg = || KfacConfig::builder().factor_update_freq(1).inv_update_freq(1).build();
        let (_, kfac, comm) = trained_kfac(cfg(), 1);
        let ckpt = kfac.checkpoint_state(&comm);
        let mut other = Mlp::new(&[6, 10, 3], &mut Rng::seed_from_u64(403));
        let _ = Kfac::restore(cfg(), &mut other, &comm, &ckpt);
    }
}
