//! The per-iteration time and per-rank memory model.

use kaisa_core::{plan_assignments, WorkPlan};

use crate::cost_model::CollectiveCostModel;
use crate::device::ClusterSpec;
use crate::inventory::ModelInventory;

/// Fixed framework overhead per rank (CUDA context, cuDNN workspaces,
/// allocator slack) included in absolute memory totals.
const FRAMEWORK_OVERHEAD_BYTES: usize = 600 << 20;

/// Multiplier on the inventory's stored-activation estimate accounting for
/// framework intermediates (im2col buffers, BN saved statistics, ReLU masks).
/// Calibrated so the simulated ResNet-50 FP32 absolute memory at local batch
/// 32 lands near Table 5's measured 4.7 GB.
const ACTIVATION_OVERHEAD_FACTOR: f64 = 3.0;

/// Inputs to the simulator.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// The model inventory.
    pub model: ModelInventory,
    /// The cluster (GPU type, world size, network).
    pub cluster: ClusterSpec,
    /// Per-rank micro-batch size.
    pub local_batch: usize,
    /// Gradient-accumulation micro-steps per optimizer iteration.
    pub grad_accum: usize,
    /// KAISA's memory/communication knob.
    pub grad_worker_frac: f64,
    /// Iterations between factor updates (`F_freq`).
    pub factor_update_freq: usize,
    /// Iterations between eigendecomposition updates (`K_freq`).
    pub inv_update_freq: usize,
    /// Store/communicate factors in half precision (Section 3.3).
    pub half_factors: bool,
    /// Mixed-precision training (fp16 forward/backward and gradient comm).
    pub half_training: bool,
    /// Optimizer state bytes per parameter (4 = momentum SGD, 8 = Adam/LAMB).
    pub optimizer_state_bytes: usize,
    /// Whether K-FAC runs at all (false = the SGD/LAMB baselines).
    pub kfac_enabled: bool,
    /// EK-FAC: every gradient worker also caches the layer's corrected
    /// second moments (`g_dim × a_dim`) beside its eigendecompositions.
    pub ekfac: bool,
}

impl SimParams {
    /// Baseline (no K-FAC) parameters for a model on a cluster.
    pub fn baseline(model: ModelInventory, cluster: ClusterSpec, local_batch: usize) -> Self {
        SimParams {
            model,
            cluster,
            local_batch,
            grad_accum: 1,
            grad_worker_frac: 1.0,
            factor_update_freq: 50,
            inv_update_freq: 500,
            half_factors: false,
            half_training: false,
            optimizer_state_bytes: 4,
            kfac_enabled: false,
            ekfac: false,
        }
    }

    /// Enable K-FAC with the given fraction (builder style).
    pub fn with_kfac(mut self, frac: f64, f_freq: usize, k_freq: usize) -> Self {
        self.kfac_enabled = true;
        self.grad_worker_frac = frac;
        self.factor_update_freq = f_freq;
        self.inv_update_freq = k_freq;
        self
    }

    fn factor_elem_bytes(&self) -> usize {
        if self.half_factors {
            2
        } else {
            4
        }
    }

    fn grad_elem_bytes(&self) -> usize {
        if self.half_training {
            2
        } else {
            4
        }
    }
}

/// Average seconds per optimizer iteration, by stage (Figure 7's series plus
/// the baseline stages). Update-interval stages are amortized.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IterationBreakdown {
    /// Forward + backward compute.
    pub forward_backward: f64,
    /// Data-parallel gradient allreduce.
    pub grad_allreduce: f64,
    /// Factor statistic computation (amortized over `F_freq`).
    pub factor_compute: f64,
    /// Factor allreduce (amortized over `F_freq`).
    pub factor_comm: f64,
    /// Eigendecomposition makespan (amortized over `K_freq`).
    pub eig_compute: f64,
    /// Eigendecomposition broadcasts (amortized over `K_freq`).
    pub eig_comm: f64,
    /// Per-step gradient preconditioning (max per-rank load).
    pub precondition: f64,
    /// Per-step preconditioned-gradient broadcast.
    pub grad_bcast: f64,
    /// Gradient scaling and write-back.
    pub scale: f64,
}

impl IterationBreakdown {
    /// Total seconds per iteration.
    pub fn total(&self) -> f64 {
        self.forward_backward
            + self.grad_allreduce
            + self.factor_compute
            + self.factor_comm
            + self.eig_compute
            + self.eig_comm
            + self.precondition
            + self.grad_bcast
            + self.scale
    }

    /// Seconds of K-FAC overhead (everything beyond the baseline stages).
    pub fn kfac_overhead(&self) -> f64 {
        self.total() - self.forward_backward - self.grad_allreduce
    }

    /// Total seconds per iteration under the pipelined executor's stage
    /// model: within each K-FAC phase, communication of one layer hides
    /// behind compute of the others, so a phase costs `max(compute, comm)`
    /// instead of their sum. The baseline stages and the (inherently serial)
    /// KL-clip scale are unchanged.
    pub fn overlapped_total(&self) -> f64 {
        self.forward_backward
            + self.grad_allreduce
            + self.factor_compute.max(self.factor_comm)
            + self.eig_compute.max(self.eig_comm)
            + self.precondition.max(self.grad_bcast)
            + self.scale
    }
}

/// Per-rank memory, bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryBreakdown {
    /// Model weights (including fp16 working copy under AMP).
    pub weights: usize,
    /// Gradients.
    pub grads: usize,
    /// Optimizer state.
    pub optimizer_state: usize,
    /// Stored activations at the local batch size.
    pub activations: usize,
    /// K-FAC factor bytes per rank: every square factor, replicated. Square
    /// because the paper's PyTorch implementation holds its factors square,
    /// and Table 5 and Figure 6's simulated MB model that implementation;
    /// KAISA-RS holds the packed triangles
    /// ([`ModelInventory::all_factor_wire_bytes`]), which is what serve
    /// admission charges.
    pub factors: usize,
    /// Eigendecomposition caches (and EK-FAC corrected moments) on the
    /// heaviest-loaded rank.
    pub eig_cache: usize,
}

impl MemoryBreakdown {
    /// The paper's "K-FAC memory overhead": factors + eigendecompositions.
    pub fn kfac_overhead(&self) -> usize {
        self.factors + self.eig_cache
    }

    /// Absolute per-rank training memory (Table 5's "Abs." columns).
    pub fn absolute(&self) -> usize {
        self.weights
            + self.grads
            + self.optimizer_state
            + self.activations
            + self.factors
            + self.eig_cache
            + FRAMEWORK_OVERHEAD_BYTES
    }
}

/// The iteration-time and memory simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    params: SimParams,
    plan: WorkPlan,
    cost: CollectiveCostModel,
}

impl Simulator {
    /// Build a simulator (computes the real KAISA placement plan).
    pub fn new(params: SimParams) -> Self {
        let plan = plan_assignments(
            &params.model.layer_dims(),
            params.cluster.world,
            params.grad_worker_frac,
        );
        let cost = CollectiveCostModel::new(params.cluster.network);
        Simulator { params, plan, cost }
    }

    /// The simulation parameters.
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// The placement plan in use.
    pub fn plan(&self) -> &WorkPlan {
        &self.plan
    }

    /// Average seconds per optimizer iteration, by stage.
    pub fn iteration_breakdown(&self) -> IterationBreakdown {
        let p = &self.params;
        let gpu = p.cluster.gpu;
        let world = p.cluster.world;
        let mut out = IterationBreakdown::default();

        // Forward + backward: 3x forward GEMM work, over all micro-batches.
        let fwd_flops = p.model.fwd_flops_per_sample() * (p.local_batch * p.grad_accum) as f64;
        out.forward_backward = 3.0 * fwd_flops / gpu.gemm_flops(p.half_training);

        // Gradient allreduce. PyTorch DDP overlaps bucketed communication
        // with backprop, so only the part exceeding the backward-pass window
        // (2/3 of forward+backward) shows up on the critical path.
        let grad_bytes = p.model.total_params() * p.grad_elem_bytes();
        let allreduce_raw = self.cost.allreduce(grad_bytes, world);
        out.grad_allreduce =
            (allreduce_raw - 2.0 / 3.0 * out.forward_backward).max(0.0) + 0.05 * allreduce_raw; // non-overlappable tail (last bucket)

        if !p.kfac_enabled {
            return out;
        }
        let fb = p.factor_elem_bytes();
        let f_freq = p.factor_update_freq as f64;
        let k_freq = p.inv_update_freq as f64;

        // Factor statistics: aᵀa and gᵀg over each micro-batch of a factor
        // update step.
        let stat_flops: f64 = p
            .model
            .layers
            .iter()
            .map(|l| l.factor_stat_flops() * (p.local_batch * p.grad_accum) as f64)
            .sum();
        out.factor_compute = stat_flops / gpu.gemm_flops(p.half_training) / f_freq;

        // Factor allreduce of the packed triangles.
        out.factor_comm = self.cost.allreduce(p.model.all_factor_wire_bytes(fb), world) / f_freq;

        // Eigendecomposition: the realized LPT makespan.
        let mut eig_loads = vec![0.0f64; world];
        for (layer, asn) in p.model.layers.iter().zip(&self.plan.layers) {
            eig_loads[asn.a_worker] += 9.0 * (layer.a_dim as f64).powi(3);
            eig_loads[asn.g_worker] += 9.0 * (layer.g_dim as f64).powi(3);
        }
        let makespan_flops = eig_loads.iter().cloned().fold(0.0, f64::max);
        out.eig_compute = makespan_flops / gpu.eig_flops() / k_freq;

        // Eigendecomposition broadcasts to the gradient workers: Q_A, Q_G,
        // and the precomputed outer product per layer.
        let gw = self.plan.workers_per_layer;
        if gw > 1 {
            let mut t = 0.0;
            for layer in &p.model.layers {
                t += self.cost.broadcast(layer.a_dim * layer.a_dim * fb, gw);
                t += self.cost.broadcast(layer.g_dim * layer.g_dim * fb, gw);
                t += self.cost.broadcast(layer.a_dim * layer.g_dim * fb, gw);
            }
            out.eig_comm = t / k_freq;
        }

        // Preconditioning: heaviest per-rank load (each gradient worker
        // preconditions every layer it serves).
        let mut precond_loads = vec![0.0f64; world];
        for (layer, asn) in p.model.layers.iter().zip(&self.plan.layers) {
            for &r in &asn.gradient_workers {
                precond_loads[r] += layer.precondition_flops();
            }
        }
        // "K-FAC computations are performed in half precision where
        // possible" (Section 3.3) — preconditioning GEMMs run at training
        // precision; only the eigendecomposition is pinned to FP32.
        let precond_flops = precond_loads.iter().cloned().fold(0.0, f64::max);
        out.precondition = precond_flops / gpu.gemm_flops(p.half_training);

        // Preconditioned-gradient broadcasts: disjoint groups run
        // concurrently, so each layer costs one tree broadcast over its
        // (largest) group — the O(log(p/g)) claim of Section 3.1.
        let mut t = 0.0;
        for (layer, asn) in p.model.layers.iter().zip(&self.plan.layers) {
            if let Some(largest) = asn.bcast_groups.iter().map(|g| g.len()).max() {
                t += self.cost.broadcast(layer.a_dim * layer.g_dim * p.grad_elem_bytes(), largest);
            }
        }
        out.grad_bcast = t;

        // Scaling: two elementwise passes over all combined gradients.
        let grad_elems: f64 = p.model.layers.iter().map(|l| (l.a_dim * l.g_dim) as f64).sum();
        out.scale = 3.0 * grad_elems / gpu.gemm_flops(p.half_training);

        out
    }

    /// Per-rank memory at the configured precision.
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        let p = &self.params;
        let params = p.model.total_params();
        let mut out = MemoryBreakdown {
            // AMP keeps an fp32 master copy plus an fp16 working copy.
            weights: params * if p.half_training { 6 } else { 4 },
            grads: params * p.grad_elem_bytes(),
            optimizer_state: params * p.optimizer_state_bytes,
            activations: (p.model.activation_bytes_per_sample as f64
                * p.local_batch as f64
                * ACTIVATION_OVERHEAD_FACTOR
                * if p.half_training { 0.5 } else { 1.0 }) as usize,
            factors: 0,
            eig_cache: 0,
        };
        if p.kfac_enabled {
            let fb = p.factor_elem_bytes();
            // Eigendecomposition cache on the heaviest rank; EK-FAC adds
            // the corrected moments to every cached layer.
            let mut cache = vec![0usize; p.cluster.world];
            for (layer, asn) in p.model.layers.iter().zip(&self.plan.layers) {
                let ekfac = if p.ekfac { layer.a_dim * layer.g_dim * fb } else { 0 };
                for &r in &asn.gradient_workers {
                    cache[r] += layer.eig_bytes(fb) + ekfac;
                }
            }
            out.factors = p.model.all_factor_bytes(fb);
            out.eig_cache = cache.into_iter().max().unwrap_or(0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::ClusterSpec;
    use crate::inventory::LayerShape;

    fn rn50_sim(frac: f64) -> Simulator {
        let params = SimParams::baseline(ModelInventory::resnet50(), ClusterSpec::frontera(64), 32)
            .with_kfac(frac, 50, 500);
        Simulator::new(params)
    }

    #[test]
    fn grad_bcast_vanishes_at_comm_opt() {
        let comm_opt = rn50_sim(1.0).iteration_breakdown();
        assert_eq!(comm_opt.grad_bcast, 0.0, "COMM-OPT has no gradient broadcast");
        let mem_opt = rn50_sim(1.0 / 64.0).iteration_breakdown();
        assert!(mem_opt.grad_bcast > 0.0);
    }

    #[test]
    fn precondition_load_grows_with_frac() {
        let lo = rn50_sim(1.0 / 64.0).iteration_breakdown();
        let hi = rn50_sim(1.0).iteration_breakdown();
        assert!(
            hi.precondition > lo.precondition,
            "more layers per worker at higher frac: {} vs {}",
            lo.precondition,
            hi.precondition
        );
    }

    #[test]
    fn resnet50_iter_time_decreases_with_frac() {
        // The Figure 6 headline: ResNet-50 on 64 V100s speeds up as the
        // gradient-worker count rises (paper: 24.4% from 1 to 64 workers).
        let t_mem = rn50_sim(1.0 / 64.0).iteration_breakdown().total();
        let t_comm = rn50_sim(1.0).iteration_breakdown().total();
        assert!(
            t_comm < t_mem,
            "COMM-OPT ({t_comm:.4}s) should beat MEM-OPT ({t_mem:.4}s) for ResNet-50"
        );
        let speedup = (t_mem - t_comm) / t_mem;
        assert!((0.02..0.6).contains(&speedup), "speedup {speedup} out of the plausible band");
    }

    #[test]
    fn overlapped_total_bounded_by_serial_and_baseline() {
        for frac in [1.0 / 64.0, 0.5, 1.0] {
            let b = rn50_sim(frac).iteration_breakdown();
            let overlapped = b.overlapped_total();
            assert!(
                overlapped <= b.total() + 1e-15,
                "overlap can only help: {} > {}",
                overlapped,
                b.total()
            );
            // The hidden stages can't shrink below the baseline + compute.
            assert!(overlapped >= b.forward_backward + b.grad_allreduce + b.scale);
        }
        // MEM-OPT has real grad broadcasts overlapping precondition, so the
        // pipelined model must be strictly cheaper there.
        let mem_opt = rn50_sim(1.0 / 64.0).iteration_breakdown();
        assert!(mem_opt.overlapped_total() < mem_opt.total());
    }

    #[test]
    fn factor_comm_charges_the_packed_triangle() {
        // The live wire sends each factor's row-packed lower triangle; the
        // modeled residency stays square, as the paper's implementation
        // holds it.
        let (a, g, fb, world, f_freq) = (65usize, 32usize, 4usize, 8usize, 5usize);
        let layer = LayerShape { name: "fc".into(), a_dim: a, g_dim: g, spatial: 1, params: a * g };
        let model = ModelInventory {
            name: "one layer",
            layers: vec![layer],
            extra_params: 0,
            activation_bytes_per_sample: 0,
            extra_fwd_flops_per_sample: 0.0,
        };
        let sim = Simulator::new(
            SimParams::baseline(model, ClusterSpec::frontera(world), 32).with_kfac(1.0, f_freq, 10),
        );
        let packed = (a * (a + 1) / 2 + g * (g + 1) / 2) * fb;
        assert_eq!(
            sim.iteration_breakdown().factor_comm,
            sim.cost.allreduce(packed, world) / f_freq as f64
        );
        assert_eq!(sim.memory_breakdown().factors, (a * a + g * g) * fb);
    }

    #[test]
    fn memory_overhead_increases_with_frac_in_paper_band() {
        // Table 5 / Figure 6: max/min K-FAC overhead ratio is 1.5–2.9x.
        let lo = rn50_sim(1.0 / 64.0).memory_breakdown().kfac_overhead();
        let mid = rn50_sim(0.5).memory_breakdown().kfac_overhead();
        let hi = rn50_sim(1.0).memory_breakdown().kfac_overhead();
        assert!(lo < mid && mid < hi);
        let ratio = hi as f64 / lo as f64;
        assert!((1.3..3.2).contains(&ratio), "max/min overhead ratio {ratio}");
    }

    #[test]
    fn kfac_beats_sgd_when_iterations_drop_enough() {
        // Per-iteration K-FAC is slower; convergence in 55 vs 90 epochs must
        // win end-to-end (the Figure 8 computation).
        let base = SimParams::baseline(ModelInventory::resnet50(), ClusterSpec::frontera(64), 32);
        let sgd = Simulator::new(base.clone()).iteration_breakdown().total();
        let kfac = Simulator::new(base.with_kfac(1.0, 50, 500)).iteration_breakdown().total();
        assert!(kfac > sgd, "K-FAC iterations cost more");
        let speedup = (90.0 * sgd) / (55.0 * kfac);
        assert!(speedup > 1.0, "end-to-end speedup {speedup} should exceed 1");
    }

    #[test]
    fn bert_iteration_time_insensitive_to_frac() {
        // Figure 6 (BERT panel): with huge gradient accumulation, KFAC.step
        // runs rarely relative to compute, so frac barely matters.
        let mk = |frac: f64| {
            let mut p =
                SimParams::baseline(ModelInventory::bert_large(512), ClusterSpec::frontera(64), 8)
                    .with_kfac(frac, 10, 100);
            p.grad_accum = 64; // global batch 32768
            p.half_training = true;
            p.half_factors = true;
            p.optimizer_state_bytes = 8;
            Simulator::new(p).iteration_breakdown().total()
        };
        let t_mem = mk(1.0 / 64.0);
        let t_comm = mk(1.0);
        let rel = (t_mem - t_comm).abs() / t_mem;
        assert!(rel < 0.05, "BERT iter time should be frac-insensitive, got {rel}");
    }

    #[test]
    fn resnet50_fp32_absolute_memory_near_table5() {
        // Table 5: ResNet-50 FP32 SGD absolute = 4762 MB at the Figure 6
        // configuration (64 V100s, local batch 32). Require the right
        // ballpark (±40%), which is what a first-principles model can claim.
        let sim = Simulator::new(SimParams::baseline(
            ModelInventory::resnet50(),
            ClusterSpec::frontera(64),
            32,
        ));
        let mb = sim.memory_breakdown().absolute() as f64 / (1 << 20) as f64;
        assert!((2800.0..6700.0).contains(&mb), "ResNet-50 SGD abs {mb} MB");
    }

    #[test]
    fn eig_makespan_benefits_from_more_workers() {
        // With more gradient workers, LPT spreads eig jobs wider.
        let t1 = rn50_sim(1.0 / 64.0).iteration_breakdown().eig_compute;
        let t64 = rn50_sim(1.0).iteration_breakdown().eig_compute;
        assert!(t64 < t1, "eig makespan {t64} should shrink vs {t1}");
    }
}
