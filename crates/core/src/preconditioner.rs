//! The `Kfac` preconditioner: orchestration of the distributed K-FAC step.
//!
//! One call to [`Kfac::step`] performs the stages of the paper's Figure 7,
//! in order:
//!
//! 1. **Factor update** (every `factor_update_freq` steps): finalize the
//!    captured `aᵀa` / `gᵀg` statistics, allreduce-average them across the
//!    data-parallel world (optionally triangular-packed, optionally in
//!    fp16), and fold them into the running averages.
//! 2. **Eigendecomposition** (every `inv_update_freq` steps): the assigned
//!    workers decompose their factors; the `G` worker precomputes
//!    `1/(v_G v_Aᵀ + γ)` (Section 4.4); results broadcast to the layer's
//!    gradient workers.
//! 3. **Gradient preconditioning** (every step): gradient workers compute
//!    Eq. 15–17 locally and broadcast the preconditioned gradient to their
//!    disjoint receiver groups.
//! 4. **Scaling** (every step): KL-clip scaling `ν = min(1, √(κ/Σ⟨p,g⟩lr²))`
//!    and write-back into the model's gradients.

use kaisa_comm::{CommTag, Communicator, ReduceOp, ShardSpec};
use kaisa_linalg::EigScratch;
use kaisa_nn::Model;
use kaisa_tensor::Matrix;

use crate::assignment::{plan_assignments_with, LayerAssignment, WorkPlan};
use crate::config::KfacConfig;
use crate::memory::{MemoryCategory, MemoryMeter};
use crate::state::{
    factor_payload_len, pack_factor_payload, pack_factor_payload_scaled_into, quantize_slice,
    unpack_factor_payload, KfacLayerState,
};
use crate::strategy::{effective_worker_frac, FactorReduction, StrategyPlan};
use crate::timing::{Stage, StageTimes};
use crate::DistStrategy;

/// The KAISA K-FAC gradient preconditioner.
///
/// Usage mirrors the paper's Listing 1:
///
/// ```ignore
/// let mut kfac = Kfac::new(KfacConfig::builder().grad_worker_frac(0.5).build(),
///                          &mut model, &comm);
/// loop {
///     kfac.prepare(&mut model);             // enable capture when needed
///     model.zero_grad();
///     model.forward_backward(&x, &y);
///     comm.allreduce(&mut grads, Avg);       // standard DDP allreduce
///     kfac.step(&mut model, &comm, lr);      // precondition in place
///     optimizer.step_model(&mut model, lr);  // SGD / Adam / LAMB
/// }
/// ```
pub struct Kfac {
    pub(crate) cfg: KfacConfig,
    pub(crate) plan: WorkPlan,
    /// The resolved strategy plan: which factor-reduction mode, regather
    /// policy, and per-stage comm participation this run uses. Computed
    /// once here and consumed uniformly by both executors — the single
    /// source of strategy truth.
    pub(crate) strat: StrategyPlan,
    pub(crate) states: Vec<KfacLayerState>,
    pub(crate) rank: usize,
    pub(crate) world: usize,
    pub(crate) steps: u64,
    pub(crate) times: StageTimes,
    /// Logical K-FAC communication bytes attributed to this rank at the
    /// configured storage precision: allreduce payloads count once per
    /// participant; broadcast traffic (`payload x receivers`) is attributed
    /// to the root; sharded factor reductions count the bytes a rank
    /// *receives* (its owned shard, plus any regathered sections). The live
    /// `kaisa-comm` meter separately counts physical `f32` buffers per
    /// collective.
    pub(crate) comm_bytes: u64,
    /// Live per-category resident-byte meter for this rank (the measured
    /// counterpart of the analytic `memory_bytes` model).
    pub(crate) mem: MemoryMeter,
    /// Per-layer packed staging buffers the sharded path scales-and-packs
    /// captured statistics into, reused across factor steps (empty on the
    /// dense path).
    pub(crate) staging: Vec<Vec<f32>>,
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
        cfg.validate();
        let mut dims = Vec::new();
        let mut names = Vec::new();
        for layer in model.kfac_layers() {
            dims.push((layer.a_dim(), layer.g_dim()));
            names.push(layer.layer_name().to_string());
        }
        assert!(!dims.is_empty(), "model exposes no K-FAC-preconditionable layers");
        // An explicit strategy override (MemOpt / CommOpt / LocalOpt) pins
        // the gradient-worker grid to its extreme; otherwise the configured
        // fraction decides. Sharded factor reduction pays extra traffic for
        // split-worker layers, so bias LPT ties toward co-location when it
        // is on.
        let frac = effective_worker_frac(cfg.strategy, cfg.grad_worker_frac, comm.world_size());
        let plan = plan_assignments_with(
            &dims,
            comm.world_size(),
            frac,
            cfg.assignment,
            cfg.sharded_factors,
        );
        let strat = StrategyPlan::resolve(&cfg, &plan);
        let states = dims
            .iter()
            .zip(&names)
            .map(|(&(a, g), name)| KfacLayerState::new(name.clone(), a, g))
            .collect();
        let kfac = Kfac {
            cfg,
            plan,
            strat,
            states,
            rank: comm.rank(),
            world: comm.world_size(),
            steps: 0,
            times: StageTimes::new(),
            comm_bytes: 0,
            mem: MemoryMeter::new(),
            staging: vec![Vec::new(); dims.len()],
            eig_scratch: EigScratch::new(),
        };
        // Step 0 updates factors, so the very first forward must capture.
        model.set_kfac_capture(true);
        kfac
    }

    /// The distribution strategy in effect (an explicit
    /// `KfacConfig::strategy`, or classified from the realized worker
    /// count).
    pub fn strategy(&self) -> DistStrategy {
        self.strat.strategy
    }

    /// The resolved strategy plan all executors consume (inspection /
    /// tests).
    pub fn strategy_plan(&self) -> &StrategyPlan {
        &self.strat
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
    /// rank actually held — including the transient square factors
    /// shard-resident decomposition materializes.
    pub fn memory_meter(&self) -> &MemoryMeter {
        &self.mem
    }

    /// Refresh the meter's factor residency from the per-layer state;
    /// called after every factor fold on every executor.
    pub(crate) fn note_factor_residency(&mut self) {
        let p = self.cfg.precision;
        let bytes = self.states.iter().map(|s| s.factor_memory_bytes(p)).sum();
        self.mem.set(MemoryCategory::Factors, bytes);
    }

    /// Refresh the meter's eigen-cache and packed-staging residency; called
    /// once per completed step (both quantities are stable between steps).
    pub(crate) fn note_step_residency(&mut self) {
        let p = self.cfg.precision;
        let eig = self.states.iter().map(|s| s.eigen_memory_bytes(p)).sum();
        self.mem.set(MemoryCategory::Eigens, eig);
        let staging = self.staging.iter().map(Vec::len).sum::<usize>() * p.bytes_per_element();
        self.mem.set(MemoryCategory::PackedStaging, staging);
    }

    /// Refresh the meter's capture-scratch residency from what the layers
    /// report; called wherever the executor already holds the layer list.
    pub(crate) fn note_capture_residency(&mut self, layers: &[&mut dyn kaisa_nn::KfacAble]) {
        let bytes = layers.iter().map(|l| l.capture_scratch_bytes()).sum();
        self.mem.set(MemoryCategory::CaptureScratch, bytes);
    }

    /// Record the transient square-factor materializations this rank's
    /// decomposition work for layer `i` is about to perform on
    /// shard-resident state (a no-op when the squares are dense-resident).
    pub(crate) fn note_decomposition_transients(&mut self, i: usize) {
        let b = self.cfg.precision.bytes_per_element();
        let s = &self.states[i];
        let asn = &self.plan.layers[i];
        let a_sq =
            if s.factor_a.is_none() && s.packed_a.is_some() { s.a_dim * s.a_dim * b } else { 0 };
        let g_sq =
            if s.factor_g.is_none() && s.packed_g.is_some() { s.g_dim * s.g_dim * b } else { 0 };
        let transient = if self.cfg.use_eigen {
            // eig_a and eig_g each drop their square before the other
            // materializes, even on a co-located worker: peak is the max.
            let a = if self.rank == asn.a_worker { a_sq } else { 0 };
            let g = if self.rank == asn.g_worker { g_sq } else { 0 };
            a.max(g)
        } else if self.rank == asn.a_worker {
            // compute_inverses holds both damped squares simultaneously.
            a_sq + g_sq
        } else {
            0
        };
        if transient > 0 {
            self.mem.transient(MemoryCategory::Factors, transient);
        }
    }

    /// Arm statistic capture on the model if the *upcoming* step is a
    /// factor-update step. Call before every forward pass (cheap).
    pub fn prepare<M: Model>(&self, model: &mut M) {
        let capture = self.steps % self.cfg.factor_update_freq as u64 == 0;
        model.set_kfac_capture(capture);
    }

    /// True if the upcoming step updates factors.
    pub fn is_factor_update_step(&self) -> bool {
        self.steps % self.cfg.factor_update_freq as u64 == 0
    }

    /// True if the upcoming step recomputes eigendecompositions.
    pub fn is_inv_update_step(&self) -> bool {
        self.steps % self.cfg.inv_update_freq as u64 == 0
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
        self.note_capture_residency(&layers);

        // The one strategy dispatch: every executor consumes the resolved
        // `StrategyPlan`'s factor-reduction mode instead of re-deriving the
        // strategy from config flags.
        if factor_step {
            match (self.strat.reduction, self.cfg.pipelined) {
                (FactorReduction::LocalNone, _) => self.update_factors_local(&mut layers),
                (FactorReduction::ShardedReduceScatter, true) => {
                    self.update_factors_sharded_pipelined(&mut layers, comm)
                }
                (FactorReduction::ShardedReduceScatter, false) => {
                    self.update_factors_sharded(&mut layers, comm)
                }
                (FactorReduction::DenseAllreduce, true) => {
                    self.update_factors_pipelined(&mut layers, comm)
                }
                (FactorReduction::DenseAllreduce, false) => self.update_factors(&mut layers, comm),
            }
        }
        if self.cfg.pipelined {
            if inv_step {
                self.update_decompositions_pipelined(comm);
            }
            self.precondition_and_scale_pipelined(&mut layers, comm, lr);
        } else {
            if inv_step {
                self.update_decompositions(comm);
            }
            self.precondition_and_scale(&mut layers, comm, lr);
        }

        self.note_step_residency();
        self.steps += 1;
        self.times.steps += 1;
    }

    /// Stage 1 (serial executor): finalize captured statistics and
    /// allreduce-average factors, one blocking collective per layer.
    fn update_factors(
        &mut self,
        layers: &mut [&mut dyn kaisa_nn::KfacAble],
        comm: &dyn Communicator,
    ) {
        let precision = self.cfg.precision;
        let decay = self.cfg.factor_decay;
        let triangular = self.cfg.triangular_comm;
        let world_group: Vec<usize> = (0..self.world).collect();
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

            let (a_dim, g_dim) = (a_new.rows(), g_new.rows());
            let (a_new, g_new) = self.times.time_layer(i, Stage::FactorComm, || {
                let (mut buf, split) = pack_factor_payload(&a_new, &g_new, triangular, precision);
                let pending =
                    comm.begin_allreduce(&buf, ReduceOp::Avg, &world_group, CommTag::FactorComm);
                comm.complete(pending, &mut buf);
                unpack_factor_payload(&mut buf, split, a_dim, g_dim, triangular, precision)
            });
            self.comm_bytes += (factor_payload_len(a_dim, g_dim, triangular)
                * precision.bytes_per_element()) as u64;

            self.times.time_layer(i, Stage::FactorCompute, || {
                self.states[i].update_factors(a_new, g_new, decay);
            });
        }
        self.note_factor_residency();
    }

    /// Stage 1 (LOCAL-OPT / DP-KFAC): no factor collective at all. Each
    /// layer's single owner finalizes and folds the statistics **its own
    /// rank** captured; every other rank just drops its capture buffers.
    /// The owner's payload still makes the pack/unpack quantization round
    /// trip so that at world 1 (where the dense allreduce averages over one
    /// rank, i.e. divides by 1.0 exactly) LOCAL-OPT is bitwise identical to
    /// the dense serial reference at every precision.
    ///
    /// Rank determinism is unaffected: owners decompose local curvature,
    /// but the preconditioned gradients still reach every rank through the
    /// per-layer `GradComm` broadcast, so all ranks apply identical updates.
    pub(crate) fn update_factors_local(&mut self, layers: &mut [&mut dyn kaisa_nn::KfacAble]) {
        debug_assert!(self.strat.local_factors());
        for (i, layer) in layers.iter_mut().enumerate() {
            let stats = layer.capture_mut().take_stats().unwrap_or_else(|| {
                panic!(
                    "layer {}: no captured statistics — call Kfac::prepare() before the forward pass",
                    layer.layer_name()
                )
            });
            self.fold_local_stats(i, stats);
        }
        self.note_factor_residency();
    }

    /// LOCAL-OPT's per-layer fold: the owner finalizes and folds the
    /// statistics its own rank captured; every other rank is a no-op (it
    /// already dropped its capture via `take_stats`).
    fn fold_local_stats(&mut self, i: usize, stats: kaisa_nn::KfacStats) {
        // LOCAL-OPT runs on the one-worker grid, so owner == a_worker ==
        // g_worker.
        if self.rank != self.plan.layers[i].a_worker {
            return;
        }
        let precision = self.cfg.precision;
        let decay = self.cfg.factor_decay;
        let triangular = self.cfg.triangular_comm;
        self.times.time_layer(i, Stage::FactorCompute, || {
            let inv = 1.0 / stats.batches.max(1) as f32;
            let mut a = stats.a_stat;
            a.scale(inv);
            let mut g = stats.g_stat;
            g.scale(inv);
            let (a_dim, g_dim) = (a.rows(), g.rows());
            let (mut buf, split) = pack_factor_payload(&a, &g, triangular, precision);
            let (a_new, g_new) =
                unpack_factor_payload(&mut buf, split, a_dim, g_dim, triangular, precision);
            self.states[i].update_factors(a_new, g_new, decay);
        });
    }

    /// Stage 1 (serial executor, sharded): scale-and-pack each layer's
    /// captured statistics straight into its packed staging buffer (no
    /// scaled square matrices materialized), then reduce-scatter from there
    /// so the `A` section lands only on the layer's A-eigendecomposition
    /// worker and the `G` section on its G-worker. Owners fold their
    /// averaged sections into shard-resident packed running averages;
    /// non-workers never materialize (or store) the factors. The
    /// direct-inverse fallback additionally regathers the payload within
    /// the (≤2-rank) eigendecomposition worker group, because its solver
    /// consumes both factors on one rank.
    fn update_factors_sharded(
        &mut self,
        layers: &mut [&mut dyn kaisa_nn::KfacAble],
        comm: &dyn Communicator,
    ) {
        let precision = self.cfg.precision;
        let triangular = self.cfg.triangular_comm;
        let rank = self.rank;
        let world_group: Vec<usize> = (0..self.world).collect();
        for (i, layer) in layers.iter_mut().enumerate() {
            let stats = layer.capture_mut().take_stats().unwrap_or_else(|| {
                panic!(
                    "layer {}: no captured statistics — call Kfac::prepare() before the forward pass",
                    layer.layer_name()
                )
            });
            let mut staging = std::mem::take(&mut self.staging[i]);
            let split = self.times.time_layer(i, Stage::FactorCompute, || {
                let inv = 1.0 / stats.batches.max(1) as f32;
                pack_factor_payload_scaled_into(
                    &mut staging,
                    &stats.a_stat,
                    &stats.g_stat,
                    inv,
                    triangular,
                    precision,
                )
            });
            let total = staging.len();

            let asn = self.plan.layers[i].clone();
            let owned = self.times.time_layer(i, Stage::FactorComm, || {
                let shards = factor_shards(&asn, split, total);
                let pending = comm.begin_reduce_scatter(
                    &staging,
                    ReduceOp::Avg,
                    &world_group,
                    &shards,
                    CommTag::FactorReduce,
                );
                let owned_len: usize =
                    shards.iter().filter(|s| s.owner == rank).map(|s| s.len).sum();
                let mut owned = vec![0.0f32; owned_len];
                comm.complete(pending, &mut owned);
                owned
            });
            // `begin_reduce_scatter` copies the payload, so the staging
            // buffer is reusable as soon as the begin returns.
            self.staging[i] = staging;
            self.comm_bytes += (owned.len() * precision.bytes_per_element()) as u64;

            if self.needs_factor_gather(&asn) {
                let group = asn.eig_worker_group();
                if group.contains(&rank) {
                    let mut gathered = vec![0.0f32; total];
                    let pending = self.times.time_layer(i, Stage::FactorComm, || {
                        comm.begin_allgather(&owned, &group, CommTag::FactorGather)
                    });
                    self.times
                        .time_layer(i, Stage::FactorComm, || comm.complete(pending, &mut gathered));
                    self.comm_bytes +=
                        ((total - owned.len()) * precision.bytes_per_element()) as u64;
                    let payload = reassemble_gathered_payload(&asn, &gathered, split);
                    self.fold_gathered_payload(i, payload, split);
                }
            } else {
                self.fold_owned_sections(i, owned, split, total);
            }
        }
    }

    /// True when the sharded path must regather the averaged payload within
    /// the layer's eigendecomposition worker group (delegates to the
    /// resolved [`StrategyPlan`]'s regather policy).
    pub(crate) fn needs_factor_gather(&self, asn: &LayerAssignment) -> bool {
        self.strat.needs_regather(asn)
    }

    /// Fold a rank's owned shard sections into its shard-resident packed
    /// running factors (the gather-free sharded fold): the A worker folds
    /// the `A` section, the G worker the `G` section; a rank owning both
    /// folds both. No square matrix is materialized — the section is
    /// re-quantized (elementwise, so bitwise identical to the dense path's
    /// whole-payload quantization) and EMA-folded in the packed layout.
    pub(crate) fn fold_owned_sections(
        &mut self,
        i: usize,
        mut owned: Vec<f32>,
        split: usize,
        total: usize,
    ) {
        let asn = self.plan.layers[i].clone();
        let decay = self.cfg.factor_decay;
        let precision = self.cfg.precision;
        let triangular = self.cfg.triangular_comm;
        let rank = self.rank;
        debug_assert!(owned.is_empty() || rank == asn.a_worker || rank == asn.g_worker);
        if rank == asn.a_worker {
            self.times.time_layer(i, Stage::FactorCompute, || {
                let section = &mut owned[..split];
                quantize_slice(section, precision);
                self.states[i].update_packed_a(section, triangular, decay);
            });
        }
        if rank == asn.g_worker {
            // The G section follows the A section only when this rank owns
            // both shards; a G-only owner holds just its own section.
            let offset = if asn.a_worker == asn.g_worker { split } else { 0 };
            let g_len = total - split;
            self.times.time_layer(i, Stage::FactorCompute, || {
                let section = &mut owned[offset..offset + g_len];
                quantize_slice(section, precision);
                self.states[i].update_packed_g(section, triangular, decay);
            });
        }
        self.note_factor_residency();
    }

    /// Fold a regathered full payload on the A worker (the direct-inverse
    /// fallback's fold — it alone runs `compute_inverses`, which consumes
    /// both factors). Both sections stay packed; whole-payload quantization
    /// matches the dense path's [`unpack_factor_payload`] bit for bit.
    pub(crate) fn fold_gathered_payload(&mut self, i: usize, mut payload: Vec<f32>, split: usize) {
        let asn = self.plan.layers[i].clone();
        if self.rank != asn.a_worker {
            return;
        }
        let decay = self.cfg.factor_decay;
        let precision = self.cfg.precision;
        let triangular = self.cfg.triangular_comm;
        self.times.time_layer(i, Stage::FactorCompute, || {
            quantize_slice(&mut payload, precision);
            self.states[i].update_packed_a(&payload[..split], triangular, decay);
            self.states[i].update_packed_g(&payload[split..], triangular, decay);
        });
        self.note_factor_residency();
    }

    /// Stage 2: recompute decompositions on assigned workers and broadcast.
    fn update_decompositions(&mut self, comm: &dyn Communicator) {
        let rank = self.rank;
        let damping = self.cfg.damping;
        let precision = self.cfg.precision;
        let precompute = self.cfg.precompute_outer;
        let use_eigen = self.cfg.use_eigen;

        for i in 0..self.states.len() {
            let asn = self.plan.layers[i].clone();
            let is_gw = asn.is_gradient_worker(rank);
            let (a_dim, g_dim) = (self.states[i].a_dim, self.states[i].g_dim);

            // EK-FAC corrected moments live in the eigenbasis; a new basis
            // invalidates them (they re-seed from the fresh outer product).
            if self.cfg.ekfac {
                self.states[i].ekfac_scale = None;
            }
            self.note_decomposition_transients(i);

            if !use_eigen {
                // Eq. 12–14 fallback: damped direct inverses computed on the
                // A worker (both factors live on every rank), broadcast to
                // gradient workers.
                if rank == asn.a_worker {
                    self.times.time_layer(i, Stage::EigCompute, || {
                        self.states[i].compute_inverses(damping);
                    });
                }
                if is_gw && asn.gradient_workers.len() > 1 {
                    let local_a = self.states[i].inv_a.take();
                    let mb = self.begin_matrix_bcast(
                        i,
                        comm,
                        local_a,
                        a_dim,
                        a_dim,
                        asn.a_worker,
                        &asn.gradient_workers,
                    );
                    let inv_a = self.complete_matrix_bcast(i, comm, mb);
                    let local_g = self.states[i].inv_g.take();
                    let mb = self.begin_matrix_bcast(
                        i,
                        comm,
                        local_g,
                        g_dim,
                        g_dim,
                        asn.a_worker,
                        &asn.gradient_workers,
                    );
                    let inv_g = self.complete_matrix_bcast(i, comm, mb);
                    self.states[i].inv_a = Some(inv_a);
                    self.states[i].inv_g = Some(inv_g);
                }
                continue;
            }

            // Eigendecomposition path (Eq. 15–17).
            let mut va: Option<Vec<f32>> = None;
            let mut vg: Option<Vec<f32>> = None;
            if rank == asn.a_worker {
                let (qa, values) = self.times.time_layer(i, Stage::EigCompute, || {
                    self.states[i].eig_a_with(&mut self.eig_scratch)
                });
                self.states[i].qa = Some(qa);
                va = Some(values);
            }
            if rank == asn.g_worker {
                let (qg, values) = self.times.time_layer(i, Stage::EigCompute, || {
                    self.states[i].eig_g_with(&mut self.eig_scratch)
                });
                self.states[i].qg = Some(qg);
                vg = Some(values);
            }

            if precompute {
                // Section 4.4: ship v_A to the G worker, which computes the
                // damped reciprocal outer product exactly once.
                if asn.a_worker != asn.g_worker && (rank == asn.a_worker || rank == asn.g_worker) {
                    let pair = [asn.a_worker, asn.g_worker];
                    let mut buf = va.clone().unwrap_or_else(|| vec![0.0; a_dim]);
                    self.times.time_layer(i, Stage::EigComm, || {
                        let pending =
                            comm.begin_broadcast(&buf, asn.a_worker, &pair, CommTag::EigComm);
                        comm.complete(pending, &mut buf);
                    });
                    if rank == asn.a_worker {
                        self.comm_bytes += (a_dim * precision.bytes_per_element()) as u64;
                    }
                    if rank == asn.g_worker {
                        va = Some(buf);
                    }
                }
                if rank == asn.g_worker {
                    let outer = self.times.time_layer(i, Stage::EigCompute, || {
                        KfacLayerState::compute_outer(
                            vg.as_ref().expect("G worker has v_G"),
                            va.as_ref().expect("G worker received v_A"),
                            damping,
                        )
                    });
                    self.states[i].outer = Some(outer);
                }
            }

            if is_gw && asn.gradient_workers.len() > 1 {
                let local_qa = self.states[i].qa.take();
                let mb = self.begin_matrix_bcast(
                    i,
                    comm,
                    local_qa,
                    a_dim,
                    a_dim,
                    asn.a_worker,
                    &asn.gradient_workers,
                );
                let qa = self.complete_matrix_bcast(i, comm, mb);
                self.states[i].qa = Some(qa);
                let local_qg = self.states[i].qg.take();
                let mb = self.begin_matrix_bcast(
                    i,
                    comm,
                    local_qg,
                    g_dim,
                    g_dim,
                    asn.g_worker,
                    &asn.gradient_workers,
                );
                let qg = self.complete_matrix_bcast(i, comm, mb);
                self.states[i].qg = Some(qg);
                if precompute {
                    let local_outer = self.states[i].outer.take();
                    let mb = self.begin_matrix_bcast(
                        i,
                        comm,
                        local_outer,
                        g_dim,
                        a_dim,
                        asn.g_worker,
                        &asn.gradient_workers,
                    );
                    let outer = self.complete_matrix_bcast(i, comm, mb);
                    self.states[i].outer = Some(outer);
                } else {
                    // Ablation: ship raw eigenvalues; every worker recomputes
                    // the outer product at every preconditioning step.
                    let mut va_buf = va.take().unwrap_or_else(|| vec![0.0; a_dim]);
                    let mut vg_buf = vg.take().unwrap_or_else(|| vec![0.0; g_dim]);
                    self.times.time_layer(i, Stage::EigComm, || {
                        let pending = comm.begin_broadcast(
                            &va_buf,
                            asn.a_worker,
                            &asn.gradient_workers,
                            CommTag::EigComm,
                        );
                        comm.complete(pending, &mut va_buf);
                        let pending = comm.begin_broadcast(
                            &vg_buf,
                            asn.g_worker,
                            &asn.gradient_workers,
                            CommTag::EigComm,
                        );
                        comm.complete(pending, &mut vg_buf);
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
                    self.states[i].va = Some(va_buf);
                    self.states[i].vg = Some(vg_buf);
                }
            } else if is_gw {
                // Single gradient worker: keep local values (no broadcast).
                if !precompute {
                    if let Some(values) = va.take() {
                        self.states[i].va = Some(values);
                    }
                    if let Some(values) = vg.take() {
                        self.states[i].vg = Some(values);
                    }
                }
            }
        }
    }

    /// Stages 3 and 4: precondition gradients, broadcast to receivers,
    /// KL-clip scale, and write back.
    fn precondition_and_scale(
        &mut self,
        layers: &mut [&mut dyn kaisa_nn::KfacAble],
        comm: &dyn Communicator,
        lr: f32,
    ) {
        let rank = self.rank;
        let precision = self.cfg.precision;

        let grads: Vec<Matrix> = layers.iter().map(|l| l.combined_grad()).collect();
        let mut preconditioned: Vec<Matrix> = Vec::with_capacity(grads.len());

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
                self.times.time_layer(i, Stage::GradComm, || {
                    let pending =
                        comm.begin_broadcast(precond.as_slice(), root, group, CommTag::GradComm);
                    comm.complete(pending, precond.as_mut_slice());
                });
            }
            preconditioned.push(precond);
        }

        self.scale_and_write_back(layers, &grads, preconditioned, lr);
    }

    /// Precondition one layer's gradient locally (Eq. 15–17, EK-FAC, or the
    /// direct-inverse fallback) — or return a zero receive buffer on
    /// non-gradient-worker ranks. Shared by both executors. Either way the
    /// matrix comes out of the layer's reused work buffers and goes back to
    /// them in [`Kfac::scale_and_write_back`].
    pub(crate) fn precondition_local(&mut self, i: usize, grad: &Matrix, is_gw: bool) -> Matrix {
        if !is_gw {
            let mut recv = self.states[i].take_work();
            recv.fill_zero();
            return recv;
        }
        let damping = self.cfg.damping;
        let use_eigen = self.cfg.use_eigen;
        let ekfac = self.cfg.ekfac;
        let factor_decay = self.cfg.factor_decay;
        let state = &mut self.states[i];
        self.times.time_layer(i, Stage::Precondition, || {
            if ekfac {
                state.precondition_ekfac(grad, damping, factor_decay)
            } else if use_eigen {
                state.precondition_eigen(grad, damping)
            } else {
                state.precondition_inverse(grad)
            }
        })
    }

    /// Stage 4: KL-clip scaling and write-back (identical on every rank
    /// because both the gradients and the preconditioned gradients are
    /// replicated). Runs in serial layer order on both executors so the
    /// `Σ⟨p,g⟩` accumulation — and hence ν — is bitwise identical.
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

/// The two-shard ownership spec of one layer's packed factor payload: the
/// `A` section `[0, split)` belongs to the layer's A-eigendecomposition
/// worker, the `G` section `[split, total)` to its G-worker (one rank may
/// own both).
pub(crate) fn factor_shards(asn: &LayerAssignment, split: usize, total: usize) -> [ShardSpec; 2] {
    [
        ShardSpec { owner: asn.a_worker, start: 0, len: split },
        ShardSpec { owner: asn.g_worker, start: split, len: total - split },
    ]
}

/// Reorder a worker-group allgather result back into payload order. The
/// gather concatenates sections in *group rank order* (ascending rank), so
/// when the G worker's rank precedes the A worker's, the `G` section arrives
/// first and must be swapped behind the `A` section.
pub(crate) fn reassemble_gathered_payload(
    asn: &LayerAssignment,
    gathered: &[f32],
    split: usize,
) -> Vec<f32> {
    debug_assert_ne!(asn.a_worker, asn.g_worker, "co-located workers never gather");
    if asn.a_worker < asn.g_worker {
        gathered.to_vec()
    } else {
        let g_len = gathered.len() - split;
        let mut payload = Vec::with_capacity(gathered.len());
        payload.extend_from_slice(&gathered[g_len..]);
        payload.extend_from_slice(&gathered[..g_len]);
        payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaisa_comm::LocalComm;
    use kaisa_nn::models::Mlp;
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
        let comm = LocalComm::new();
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
    fn non_update_steps_reuse_cached_decompositions() {
        let (mut model, x, y, _) = toy_setup();
        let comm = LocalComm::new();
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
        let comm = LocalComm::new();
        let cfg = KfacConfig::builder().factor_update_freq(1).inv_update_freq(1).build();
        let mut kfac = Kfac::new(cfg, &mut model, &comm);
        assert_eq!(kfac.memory_bytes(), 0);
        kfac.prepare(&mut model);
        model.zero_grad();
        let _ = model.forward_backward(&x, &y);
        kfac.step(&mut model, &comm, 0.1);
        let mem = kfac.memory_bytes();
        // Factors + Q_A + Q_G + outer for both layers.
        // Layer 0: a=7, g=10 → 49+100+49+100+70 = 368; layer 1: a=11, g=3 →
        // 121+9+121+9+33 = 293. Total 661 floats.
        assert_eq!(mem, 661 * 4);
    }

    #[test]
    fn kl_clip_bounds_update_magnitude() {
        let (mut model, x, y, _) = toy_setup();
        let comm = LocalComm::new();
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
    fn eigen_and_inverse_paths_are_close_approximations() {
        // Eq. 15–17 and Eq. 12–14 are *different* damped approximations (the
        // denominators are v_G·v_A + γ vs (v_G+γ)(v_A+γ)); both must run and
        // produce strongly correlated preconditioned gradients.
        let (model, x, y, _) = toy_setup();
        let comm = LocalComm::new();
        let mut grads = Vec::new();
        for use_eigen in [true, false] {
            let mut m = model.clone();
            let cfg = KfacConfig::builder()
                .factor_update_freq(1)
                .inv_update_freq(1)
                .use_eigen(use_eigen)
                .kl_clip(None)
                .build();
            let mut kfac = Kfac::new(cfg, &mut m, &comm);
            kfac.prepare(&mut m);
            m.zero_grad();
            let _ = m.forward_backward(&x, &y);
            kfac.step(&mut m, &comm, 0.1);
            grads.push(m.grads_flat());
        }
        let dot: f64 = grads[0].iter().zip(&grads[1]).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let n0: f64 = grads[0].iter().map(|v| (*v as f64).powi(2)).sum::<f64>().sqrt();
        let n1: f64 = grads[1].iter().map(|v| (*v as f64).powi(2)).sum::<f64>().sqrt();
        let cosine = dot / (n0 * n1);
        assert!(cosine > 0.9, "paths should be strongly correlated, cosine={cosine}");
        assert!(n0 > 0.0 && n1 > 0.0 && n0.is_finite() && n1.is_finite());
    }

    #[test]
    fn outer_precompute_ablation_matches() {
        let (model, x, y, _) = toy_setup();
        let comm = LocalComm::new();
        let mut grads = Vec::new();
        for precompute in [true, false] {
            let mut m = model.clone();
            let cfg = KfacConfig::builder()
                .factor_update_freq(1)
                .inv_update_freq(1)
                .precompute_outer(precompute)
                .build();
            let mut kfac = Kfac::new(cfg, &mut m, &comm);
            kfac.prepare(&mut m);
            m.zero_grad();
            let _ = m.forward_backward(&x, &y);
            kfac.step(&mut m, &comm, 0.1);
            grads.push(m.grads_flat());
        }
        for (a, b) in grads[0].iter().zip(&grads[1]) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn triangular_comm_is_equivalent_single_rank() {
        let (model, x, y, _) = toy_setup();
        let comm = LocalComm::new();
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
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn triangular_comm_halves_logical_volume() {
        let (model, x, y, _) = toy_setup();
        let comm = LocalComm::new();
        let mut volumes = Vec::new();
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
            // Count only the factor allreduce volume: stop before eig bcasts
            // by reading comm_bytes after a factor-only step... simplest:
            // full step, but single-rank worlds have no eig/grad broadcasts,
            // so comm_bytes is exactly the factor volume.
            kfac.step(&mut m, &comm, 0.1);
            volumes.push(kfac.comm_bytes());
        }
        let (full, tri) = (volumes[0] as f64, volumes[1] as f64);
        let ratio = tri / full;
        assert!(ratio > 0.49 && ratio < 0.56, "triangular ratio {ratio}");
    }

    #[test]
    fn fp16_halves_logical_volume_and_memory() {
        let (model, x, y, _) = toy_setup();
        let comm = LocalComm::new();
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
        let comm = LocalComm::new();
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
