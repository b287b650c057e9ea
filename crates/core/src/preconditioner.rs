//! The `Kfac` preconditioner: orchestration of the distributed K-FAC step.
//!
//! One call to [`Kfac::step`] performs the stages of the paper's Figure 7,
//! in order:
//!
//! 1. **Factor update** (every `factor_update_freq` steps): finalize the
//!    captured `aᵀa` / `gᵀg` statistics into each layer's packed
//!    lower-triangle wire, allreduce-average it across the data-parallel
//!    world (optionally in fp16), and fold it into the running averages.
//! 2. **Eigendecomposition** (every `inv_update_freq` steps): the assigned
//!    workers decompose their factors; the `G` worker precomputes
//!    `1/(v_G v_Aᵀ + γ)` (Section 4.4); results broadcast to the layer's
//!    gradient workers.
//! 3. **Gradient preconditioning** (every step): gradient workers compute
//!    Eq. 15–17 locally and broadcast the preconditioned gradient to their
//!    disjoint receiver groups.
//! 4. **Scaling** (every step): KL-clip scaling `ν = min(1, √(κ/Σ⟨p,g⟩lr²))`
//!    and write-back into the model's gradients.
//!
//! Stages 1–3 are written once, as layer sweeps, in `crate::pipeline`;
//! [`KfacConfig::pipelined`] only selects when their collectives complete.

use kaisa_comm::Communicator;
use kaisa_linalg::EigScratch;
use kaisa_nn::Model;
use kaisa_tensor::Matrix;

use crate::assignment::{plan_assignments, WorkPlan};
use crate::config::KfacConfig;
use crate::memory::{MemoryCategory, MemoryMeter};
use crate::state::KfacLayerState;
use crate::timing::{Stage, StageTimes};
use crate::DistStrategy;

/// The KAISA K-FAC gradient preconditioner.
///
/// Usage mirrors the paper's Listing 1:
///
/// ```
/// use kaisa_comm::{Communicator, ReduceOp, ThreadComm};
/// use kaisa_core::{Kfac, KfacConfig};
/// use kaisa_nn::{models::Mlp, Model};
/// use kaisa_optim::{Optimizer, Sgd};
/// use kaisa_tensor::{Matrix, Rng};
///
/// let mut rng = Rng::seed_from_u64(0);
/// let mut model = Mlp::new(&[4, 8, 2], &mut rng);
/// let x = Matrix::randn(16, 4, 1.0, &mut rng);
/// let y: Vec<usize> = (0..16).map(|i| i % 2).collect();
/// let comm = ThreadComm::world(1).remove(0);
/// let mut optimizer = Sgd::new();
/// let lr = 0.1;
///
/// let mut kfac = Kfac::new(KfacConfig::builder().grad_worker_frac(0.5).build(),
///                          &mut model, &comm);
/// for _ in 0..4 {
///     kfac.prepare(&mut model);              // enable capture when needed
///     model.zero_grad();
///     let _ = model.forward_backward(&x, &y);
///     let mut grads = model.grads_flat();     // standard DDP allreduce
///     comm.allreduce(&mut grads, ReduceOp::Avg);
///     model.set_grads_flat(&grads);
///     kfac.step(&mut model, &comm, lr);       // precondition in place
///     optimizer.step_model(&mut model, lr);   // SGD / Adam / LAMB
/// }
/// assert_eq!(kfac.steps(), 4);
/// assert!(model.params_flat().iter().all(|p| p.is_finite()));
/// ```
pub struct Kfac {
    pub(crate) cfg: KfacConfig,
    pub(crate) plan: WorkPlan,
    pub(crate) states: Vec<KfacLayerState>,
    pub(crate) rank: usize,
    pub(crate) world: usize,
    pub(crate) steps: u64,
    pub(crate) times: StageTimes,
    /// Logical K-FAC communication bytes attributed to this rank at the
    /// configured storage precision: allreduce payloads count once per
    /// participant; broadcast traffic (`payload x receivers`) is attributed
    /// to the root. The live `kaisa-comm` meter separately counts physical
    /// `f32` buffers per collective.
    pub(crate) comm_bytes: u64,
    /// Live per-category resident-byte meter for this rank (the measured
    /// counterpart of the analytic `memory_bytes` model).
    pub(crate) mem: MemoryMeter,
    /// The eigensolver's `f64` workspace, shared by every inline factor
    /// decomposition of this rank (solves run one at a time). Transient
    /// solver scratch, not K-FAC state: un-metered, like the allocation per
    /// call it replaces.
    pub(crate) eig_scratch: EigScratch,
}

impl Kfac {
    /// Register a model: record layer factor dimensions, compute the
    /// distribution plan, and enable capture for the first step.
    pub fn new<M: Model>(cfg: KfacConfig, model: &mut M, comm: &dyn Communicator) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut dims = Vec::new();
        let mut names = Vec::new();
        for layer in model.kfac_layers() {
            dims.push((layer.a_dim(), layer.g_dim()));
            names.push(layer.layer_name().to_string());
        }
        assert!(!dims.is_empty(), "model exposes no K-FAC-preconditionable layers");
        let plan = plan_assignments(&dims, comm.world_size(), cfg.grad_worker_frac);
        let states = dims
            .iter()
            .zip(&names)
            .map(|(&(a, g), name)| KfacLayerState::new(name.clone(), a, g))
            .collect();
        let kfac = Kfac {
            cfg,
            plan,
            states,
            rank: comm.rank(),
            world: comm.world_size(),
            steps: 0,
            times: StageTimes::new(),
            comm_bytes: 0,
            mem: MemoryMeter::new(),
            eig_scratch: EigScratch::new(),
        };
        // Step 0 updates factors, so the very first forward must capture.
        model.set_kfac_capture(true);
        kfac
    }

    /// The distribution strategy in effect, classified from the realized
    /// gradient-worker count (Section 3.1).
    pub fn strategy(&self) -> DistStrategy {
        DistStrategy::from_worker_count(self.plan.workers_per_layer, self.plan.world)
    }

    /// The computed work plan (placement inspection / tests).
    pub fn plan(&self) -> &WorkPlan {
        &self.plan
    }

    /// Completed `step()` calls.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Per-stage timing accumulated so far (Figure 7 instrumentation).
    pub fn stage_times(&self) -> &StageTimes {
        &self.times
    }

    /// Logical K-FAC communication bytes at the configured precision.
    pub fn comm_bytes(&self) -> u64 {
        self.comm_bytes
    }

    /// This rank's K-FAC memory overhead in bytes (factors + cached
    /// decompositions at the storage precision) — the Figure 6/Table 5
    /// metric.
    pub fn memory_bytes(&self) -> usize {
        self.states.iter().map(|s| s.memory_bytes(self.cfg.precision)).sum()
    }

    /// The live per-rank memory meter: peak/current resident bytes per
    /// category at the storage precision. Where [`Kfac::memory_bytes`]
    /// models the analytic Table 5 overhead, the meter *measures* what this
    /// rank actually held.
    pub fn memory_meter(&self) -> &MemoryMeter {
        &self.mem
    }

    /// Refresh the meter's factor residency from the per-layer state;
    /// called after every factor update.
    pub(crate) fn note_factor_residency(&mut self) {
        let p = self.cfg.precision;
        let bytes = self.states.iter().map(|s| s.factor_memory_bytes(p)).sum();
        self.mem.set(MemoryCategory::Factors, bytes);
    }

    /// Refresh the meter's eigen-cache residency; called once per completed
    /// step (it is stable between steps).
    pub(crate) fn note_step_residency(&mut self) {
        let p = self.cfg.precision;
        let eig = self.states.iter().map(|s| s.eigen_memory_bytes(p)).sum();
        self.mem.set(MemoryCategory::Eigens, eig);
    }

    /// Arm statistic capture on the model if the *upcoming* step is a
    /// factor-update step. Call before every forward pass (cheap).
    pub fn prepare<M: Model>(&self, model: &mut M) {
        let capture = self.steps.is_multiple_of(self.cfg.factor_update_freq as u64);
        model.set_kfac_capture(capture);
    }

    /// True if the upcoming step updates factors.
    pub fn is_factor_update_step(&self) -> bool {
        self.steps.is_multiple_of(self.cfg.factor_update_freq as u64)
    }

    /// True if the upcoming step recomputes eigendecompositions.
    pub fn is_inv_update_step(&self) -> bool {
        self.steps.is_multiple_of(self.cfg.inv_update_freq as u64)
    }

    /// Run one K-FAC preconditioning step. Must be called after the backward
    /// pass (and after the data-parallel gradient allreduce) on every rank.
    /// `lr` is the learning rate the following optimizer step will use; it
    /// enters the KL-clip scaling factor.
    pub fn step<M: Model>(&mut self, model: &mut M, comm: &dyn Communicator, lr: f32) {
        let factor_step = self.is_factor_update_step();
        let inv_step = self.is_inv_update_step();
        let mut layers = model.kfac_layers();
        assert_eq!(layers.len(), self.states.len(), "layer set changed after registration");

        if factor_step {
            self.update_factors(&mut layers, comm);
        }
        if inv_step {
            self.update_decompositions(comm);
        }
        self.precondition_and_scale(&mut layers, comm, lr);

        self.note_step_residency();
        self.steps += 1;
        self.times.steps += 1;
    }

    /// Precondition one layer's gradient locally (Eq. 15–17) — or return a
    /// zero receive buffer on non-gradient-worker ranks. Either way the
    /// matrix comes out of the layer's reused work buffers and goes back to
    /// them in [`Kfac::scale_and_write_back`].
    pub(crate) fn precondition_local(&mut self, i: usize, grad: &Matrix, is_gw: bool) -> Matrix {
        if !is_gw {
            let mut recv = self.states[i].take_work();
            recv.fill_zero();
            return recv;
        }
        let state = &mut self.states[i];
        self.times.time_layer(i, Stage::Precondition, || state.precondition_eigen(grad))
    }

    /// Stage 4: KL-clip scaling and write-back (identical on every rank
    /// because both the gradients and the preconditioned gradients are
    /// replicated). Runs in layer order whatever the completion order, so
    /// the `Σ⟨p,g⟩` accumulation — and hence ν — is bitwise identical.
    pub(crate) fn scale_and_write_back(
        &mut self,
        layers: &mut [&mut dyn kaisa_nn::KfacAble],
        grads: &[Matrix],
        preconditioned: Vec<Matrix>,
        lr: f32,
    ) {
        let eb = self.cfg.precision.bytes_per_element();
        let precond_bytes = preconditioned.iter().map(|m| m.numel()).sum::<usize>() * eb;
        self.mem.set(MemoryCategory::PrecondGrads, precond_bytes);
        self.times.time(Stage::Scale, || {
            let nu = match self.cfg.kl_clip {
                None => 1.0,
                Some(clip) => {
                    let mut vg_sum = 0.0f64;
                    for (p, g) in preconditioned.iter().zip(grads) {
                        vg_sum += (p.dot(g) * lr * lr) as f64;
                    }
                    if vg_sum > 0.0 {
                        (clip as f64 / vg_sum).sqrt().min(1.0) as f32
                    } else {
                        1.0
                    }
                }
            };
            let written = layers.iter_mut().zip(&mut self.states).zip(preconditioned);
            for ((layer, state), mut p) in written {
                if nu != 1.0 {
                    p.scale(nu);
                }
                layer.set_combined_grad(&p);
                state.recycle(p);
            }
        });
        // The preconditioned copies are written back and their buffers idle.
        self.mem.set(MemoryCategory::PrecondGrads, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaisa_comm::ThreadComm;
    use kaisa_nn::models::Mlp;
    use kaisa_tensor::packed_len;
    use kaisa_tensor::{Precision, Rng};

    fn toy_setup() -> (Mlp, Matrix, Vec<usize>, Rng) {
        let mut rng = Rng::seed_from_u64(211);
        let mlp = Mlp::new(&[6, 10, 3], &mut rng);
        let x = Matrix::randn(16, 6, 1.0, &mut rng);
        let y: Vec<usize> = (0..16).map(|i| i % 3).collect();
        (mlp, x, y, rng)
    }

    #[test]
    fn single_process_step_preconditions() {
        let (mut model, x, y, _) = toy_setup();
        let comm = ThreadComm::world(1).remove(0);
        let cfg = KfacConfig::builder().factor_update_freq(1).inv_update_freq(1).build();
        let mut kfac = Kfac::new(cfg, &mut model, &comm);
        assert_eq!(kfac.strategy(), DistStrategy::CommOpt);

        kfac.prepare(&mut model);
        model.zero_grad();
        let _ = model.forward_backward(&x, &y);
        let before = model.grads_flat();
        kfac.step(&mut model, &comm, 0.1);
        let after = model.grads_flat();
        assert_ne!(before, after, "preconditioning must change the gradients");
        assert!(after.iter().all(|v| v.is_finite()));
        assert_eq!(kfac.steps(), 1);
    }

    #[test]
    fn strategy_resolves_against_the_realized_grid() {
        // `Kfac::new` reads only the rank and world, so one handle of a
        // world-4 ThreadComm is enough. The strategy reported is the one
        // the fraction's grid realized: 0.5 rounds up to two of four ranks.
        let comms = kaisa_comm::ThreadComm::world(4);
        let resolve = |cfg: KfacConfig| {
            let (mut model, ..) = toy_setup();
            let kfac = Kfac::new(cfg, &mut model, &comms[1]);
            (kfac.strategy(), kfac.plan().workers_per_layer)
        };
        let mem = KfacConfig::builder().grad_worker_frac(0.125).build();
        assert_eq!(resolve(mem), (DistStrategy::MemOpt, 1));
        let comm_opt = KfacConfig::builder().grad_worker_frac(1.0).build();
        assert_eq!(resolve(comm_opt), (DistStrategy::CommOpt, 4));
        let half = KfacConfig::builder().grad_worker_frac(0.5).build();
        assert_eq!(resolve(half), (DistStrategy::HybridOpt, 2));
    }

    #[test]
    fn non_update_steps_reuse_cached_decompositions() {
        let (mut model, x, y, _) = toy_setup();
        let comm = ThreadComm::world(1).remove(0);
        let cfg = KfacConfig::builder().factor_update_freq(2).inv_update_freq(4).build();
        let mut kfac = Kfac::new(cfg, &mut model, &comm);
        for step in 0..6 {
            kfac.prepare(&mut model);
            model.zero_grad();
            let _ = model.forward_backward(&x, &y);
            kfac.step(&mut model, &comm, 0.1);
            let _ = step;
        }
        // 6 steps with F=2: factor updates at steps 0, 2, 4 → allreduce
        // volume reflects 3 updates; eig at steps 0, 4.
        assert_eq!(kfac.steps(), 6);
        assert!(kfac.stage_times().total(Stage::EigCompute) > 0.0);
    }

    #[test]
    fn memory_grows_after_first_step() {
        let (mut model, x, y, _) = toy_setup();
        let comm = ThreadComm::world(1).remove(0);
        let cfg = KfacConfig::builder().factor_update_freq(1).inv_update_freq(1).build();
        let mut kfac = Kfac::new(cfg, &mut model, &comm);
        assert_eq!(kfac.memory_bytes(), 0);
        kfac.prepare(&mut model);
        model.zero_grad();
        let _ = model.forward_backward(&x, &y);
        kfac.step(&mut model, &comm, 0.1);
        let mem = kfac.memory_bytes();
        // Packed factors + Q_A + Q_G + outer for both layers.
        // Layer 0: a=7, g=10 → 28+55+49+100+70 = 302; layer 1: a=11, g=3 →
        // 66+6+121+9+33 = 235. Total 537 floats.
        assert_eq!(mem, 537 * 4);
    }

    #[test]
    fn kl_clip_bounds_update_magnitude() {
        let (mut model, x, y, _) = toy_setup();
        let comm = ThreadComm::world(1).remove(0);
        let clipped_cfg = KfacConfig::builder()
            .factor_update_freq(1)
            .inv_update_freq(1)
            .kl_clip(Some(1e-6))
            .build();
        let free_cfg =
            KfacConfig::builder().factor_update_freq(1).inv_update_freq(1).kl_clip(None).build();

        let mut m1 = model.clone();
        let mut kfac1 = Kfac::new(clipped_cfg, &mut m1, &comm);
        kfac1.prepare(&mut m1);
        m1.zero_grad();
        let _ = m1.forward_backward(&x, &y);
        kfac1.step(&mut m1, &comm, 1.0);
        let clipped_norm: f64 =
            m1.grads_flat().iter().map(|v| (*v as f64).powi(2)).sum::<f64>().sqrt();

        let mut kfac2 = Kfac::new(free_cfg, &mut model, &comm);
        kfac2.prepare(&mut model);
        model.zero_grad();
        let _ = model.forward_backward(&x, &y);
        kfac2.step(&mut model, &comm, 1.0);
        let free_norm: f64 =
            model.grads_flat().iter().map(|v| (*v as f64).powi(2)).sum::<f64>().sqrt();

        assert!(clipped_norm < free_norm, "tiny kl_clip must shrink the update");
    }

    #[test]
    fn triangular_comm_is_equivalent_single_rank() {
        // The flag is inert: every factor payload is the packed triangle.
        let (model, x, y, _) = toy_setup();
        let comm = ThreadComm::world(1).remove(0);
        let mut grads = Vec::new();
        for triangular in [false, true] {
            let mut m = model.clone();
            let cfg = KfacConfig::builder()
                .factor_update_freq(1)
                .inv_update_freq(1)
                .triangular_comm(triangular)
                .build();
            let mut kfac = Kfac::new(cfg, &mut m, &comm);
            kfac.prepare(&mut m);
            m.zero_grad();
            let _ = m.forward_backward(&x, &y);
            kfac.step(&mut m, &comm, 0.1);
            grads.push(m.grads_flat());
        }
        for (a, b) in grads[0].iter().zip(&grads[1]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn factor_bytes_count_the_packed_triangle() {
        // A single-rank world has no eigen or gradient broadcasts, so
        // `comm_bytes` is exactly the factor volume: per factor step,
        // Σ (packed_len(a) + packed_len(g)) × bytes per element — with the
        // inert `triangular_comm` flag set either way.
        let (model, x, y, _) = toy_setup();
        let comm = ThreadComm::world(1).remove(0);
        for (triangular, precision) in
            [false, true].into_iter().flat_map(|t| [(t, Precision::Fp32), (t, Precision::Fp16)])
        {
            let mut m = model.clone();
            let cfg = KfacConfig::builder()
                .factor_update_freq(2)
                .inv_update_freq(2)
                .triangular_comm(triangular)
                .precision(precision)
                .build();
            let mut kfac = Kfac::new(cfg, &mut m, &comm);
            for _ in 0..4 {
                kfac.prepare(&mut m);
                m.zero_grad();
                let _ = m.forward_backward(&x, &y);
                kfac.step(&mut m, &comm, 0.1);
            }
            let per_step: usize =
                kfac.states.iter().map(|s| packed_len(s.a_dim) + packed_len(s.g_dim)).sum();
            let expect = 2 * per_step * precision.bytes_per_element();
            assert_eq!(kfac.comm_bytes(), expect as u64, "triangular={triangular} {precision:?}");
        }
    }

    #[test]
    fn fp16_halves_logical_volume_and_memory() {
        let (model, x, y, _) = toy_setup();
        let comm = ThreadComm::world(1).remove(0);
        let mut volumes = Vec::new();
        let mut memories = Vec::new();
        for precision in [Precision::Fp32, Precision::Fp16] {
            let mut m = model.clone();
            let cfg = KfacConfig::builder()
                .factor_update_freq(1)
                .inv_update_freq(1)
                .precision(precision)
                .build();
            let mut kfac = Kfac::new(cfg, &mut m, &comm);
            kfac.prepare(&mut m);
            m.zero_grad();
            let _ = m.forward_backward(&x, &y);
            kfac.step(&mut m, &comm, 0.1);
            volumes.push(kfac.comm_bytes());
            memories.push(kfac.memory_bytes());
        }
        assert_eq!(volumes[1] * 2, volumes[0]);
        assert_eq!(memories[1] * 2, memories[0]);
    }

    #[test]
    fn kfac_accelerates_convergence_over_sgd() {
        // The headline claim at miniature scale: with equal lr and steps,
        // K-FAC-preconditioned SGD reaches lower loss than plain SGD.
        let mut rng = Rng::seed_from_u64(212);
        let model = Mlp::new(&[8, 16, 4], &mut rng);
        let x = Matrix::randn(64, 8, 1.0, &mut rng);
        let y: Vec<usize> = (0..64).map(|i| i % 4).collect();
        let comm = ThreadComm::world(1).remove(0);
        let lr = 0.05;
        let steps = 30;

        // Plain SGD.
        let mut sgd_model = model.clone();
        for _ in 0..steps {
            sgd_model.zero_grad();
            let _ = sgd_model.forward_backward(&x, &y);
            let g = sgd_model.grads_flat();
            let mut p = sgd_model.params_flat();
            for (pi, gi) in p.iter_mut().zip(&g) {
                *pi -= lr * gi;
            }
            sgd_model.set_params_flat(&p);
        }
        let sgd_loss = sgd_model.evaluate(&x, &y).loss;

        // K-FAC preconditioned SGD.
        let mut kfac_model = model.clone();
        let cfg = KfacConfig::builder().factor_update_freq(5).inv_update_freq(5).build();
        let mut kfac = Kfac::new(cfg, &mut kfac_model, &comm);
        for _ in 0..steps {
            kfac.prepare(&mut kfac_model);
            kfac_model.zero_grad();
            let _ = kfac_model.forward_backward(&x, &y);
            kfac.step(&mut kfac_model, &comm, lr);
            let g = kfac_model.grads_flat();
            let mut p = kfac_model.params_flat();
            for (pi, gi) in p.iter_mut().zip(&g) {
                *pi -= lr * gi;
            }
            kfac_model.set_params_flat(&p);
        }
        let kfac_loss = kfac_model.evaluate(&x, &y).loss;
        assert!(
            kfac_loss < sgd_loss,
            "K-FAC ({kfac_loss}) should beat SGD ({sgd_loss}) at equal steps"
        );
    }
}
