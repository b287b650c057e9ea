//! K-FAC preconditioner configuration.

use kaisa_tensor::Precision;

use crate::{AssignmentStrategy, DistStrategy};

/// Configuration of the [`crate::Kfac`] preconditioner.
///
/// Defaults mirror the paper's Table 2 settings where a single value is used
/// across applications (`damping = 0.003`, `grad_worker_frac = 1`).
#[derive(Debug, Clone)]
pub struct KfacConfig {
    /// Fraction of ranks that act as gradient workers per layer
    /// (Section 3.1). `1/world` = MEM-OPT, `1` = COMM-OPT.
    pub grad_worker_frac: f64,
    /// Explicit distribution-strategy override. `None` (the default)
    /// classifies the strategy from the `grad_worker_frac`-derived worker
    /// count. `Some(MemOpt)`/`Some(CommOpt)` pin the worker grid to the
    /// corresponding extreme regardless of the fraction;
    /// `Some(HybridOpt)` keeps the configured fraction.
    /// `Some(LocalOpt)` selects DP-KFAC local preconditioning: one owner
    /// per layer folds and decomposes its rank-local factor statistics with
    /// **no factor collective at all** — zero `FactorComm`/`FactorReduce`/
    /// `FactorGather` traffic, at the cost of curvature freshness (each
    /// owner's preconditioner reflects only its own rank's data shard).
    /// LocalOpt is never inferred; it must be requested here. Feed
    /// [`crate::auto_strategy`] into this field to dispatch from the
    /// calibrated cost model.
    pub strategy: Option<DistStrategy>,
    /// Tikhonov damping γ added to the eigenvalue outer product (Eq. 16).
    pub damping: f32,
    /// Exponential decay of the running factor averages
    /// (`A ← decay·A + (1-decay)·Â`).
    pub factor_decay: f32,
    /// KL-clip constant for gradient scaling; `None` disables scaling.
    pub kl_clip: Option<f32>,
    /// Iterations between factor updates (Table 2's `F_freq`).
    pub factor_update_freq: usize,
    /// Iterations between eigendecomposition recomputations (`K_freq`).
    pub inv_update_freq: usize,
    /// Storage/communication precision for factors and eigendecompositions
    /// (Section 3.3). Eigendecompositions always *compute* in full precision.
    pub precision: Precision,
    /// Send only the upper triangle in the factor allreduce (Section 4.3).
    pub triangular_comm: bool,
    /// Precompute `1/(v_G v_Aᵀ + γ)` once on the eigendecomposition worker
    /// and broadcast it, instead of recomputing per step (Section 4.4).
    pub precompute_outer: bool,
    /// Use the eigendecomposition method (Eq. 15–17). When `false`, fall
    /// back to damped direct inverses (Eq. 12–14) — the ablation of
    /// Section 2.1.3.
    pub use_eigen: bool,
    /// How eigendecomposition jobs are spread over ranks (Section 3.2).
    pub assignment: AssignmentStrategy,
    /// Run the EK-FAC variant (George et al.): keep KAISA's distribution of
    /// eigenbases but replace the eigenvalue outer product with running
    /// corrected second moments updated every step — the extension the
    /// paper's Related Work proposes layering on this framework.
    pub ekfac: bool,
    /// Execute `step()` through the per-layer stage pipeline: collectives
    /// are initiated with non-blocking handles and completed after other
    /// layers' local compute, overlapping communication with computation.
    /// The serial executor (`false`) runs each layer's stages strictly in
    /// order; both paths are bitwise-identical (property-tested), so this
    /// only trades wall-clock for simplicity when debugging.
    pub pipelined: bool,
    /// Replace the per-layer factor allreduce with a sharded reduction
    /// (DP-KFAC, Zhang et al.): reduce-scatter the packed factor payload so
    /// the `A` section lands only on the layer's A-eigendecomposition worker
    /// and the `G` section only on its G-worker; non-workers never
    /// rematerialize (or store) the averaged factors. Halves factor-phase
    /// communication volume and drops non-worker factor memory. Bitwise
    /// identical to the dense path (property-tested); the dense path remains
    /// the reference implementation.
    pub sharded_factors: bool,
}

impl Default for KfacConfig {
    fn default() -> Self {
        KfacConfig {
            grad_worker_frac: 1.0,
            strategy: None,
            damping: 0.003,
            factor_decay: 0.95,
            kl_clip: Some(0.001),
            factor_update_freq: 10,
            inv_update_freq: 100,
            precision: Precision::Fp32,
            triangular_comm: false,
            precompute_outer: true,
            use_eigen: true,
            assignment: AssignmentStrategy::ComputeLpt,
            ekfac: false,
            pipelined: true,
            sharded_factors: false,
        }
    }
}

impl KfacConfig {
    /// Start building a configuration.
    pub fn builder() -> KfacConfigBuilder {
        KfacConfigBuilder { cfg: KfacConfig::default() }
    }

    /// Validate invariants; called by [`crate::Kfac::new`].
    pub fn validate(&self) {
        assert!(self.grad_worker_frac > 0.0, "grad_worker_frac must be positive");
        assert!(self.damping > 0.0, "damping must be positive");
        assert!((0.0..1.0).contains(&self.factor_decay), "factor_decay must be in [0, 1)");
        assert!(self.factor_update_freq > 0, "factor_update_freq must be positive");
        assert!(self.inv_update_freq > 0, "inv_update_freq must be positive");
        assert!(
            self.inv_update_freq % self.factor_update_freq == 0,
            "inv_update_freq ({}) should be a multiple of factor_update_freq ({}) so \
             eigendecompositions never run on stale-by-construction factors",
            self.inv_update_freq,
            self.factor_update_freq
        );
        assert!(
            self.strategy != Some(DistStrategy::LocalOpt) || !self.sharded_factors,
            "LocalOpt never runs a factor collective, so sharded_factors(true) \
             has nothing to shard — drop one of the two settings"
        );
    }
}

/// Builder for [`KfacConfig`].
#[derive(Debug, Clone)]
pub struct KfacConfigBuilder {
    cfg: KfacConfig,
}

impl KfacConfigBuilder {
    /// Set `grad_worker_frac` (Section 3.1).
    pub fn grad_worker_frac(mut self, frac: f64) -> Self {
        self.cfg.grad_worker_frac = frac;
        self
    }

    /// Pin the distribution strategy explicitly (see
    /// [`KfacConfig::strategy`]); `LocalOpt` selects DP-KFAC local
    /// preconditioning with zero factor-collective traffic.
    pub fn strategy(mut self, strategy: DistStrategy) -> Self {
        self.cfg.strategy = Some(strategy);
        self
    }

    /// Set the Tikhonov damping γ.
    pub fn damping(mut self, damping: f32) -> Self {
        self.cfg.damping = damping;
        self
    }

    /// Set the running-average decay.
    pub fn factor_decay(mut self, decay: f32) -> Self {
        self.cfg.factor_decay = decay;
        self
    }

    /// Set (or disable, with `None`) KL-clip gradient scaling.
    pub fn kl_clip(mut self, clip: Option<f32>) -> Self {
        self.cfg.kl_clip = clip;
        self
    }

    /// Set `F_freq`, the factor update interval.
    pub fn factor_update_freq(mut self, freq: usize) -> Self {
        self.cfg.factor_update_freq = freq;
        self
    }

    /// Set `K_freq`, the eigendecomposition interval.
    pub fn inv_update_freq(mut self, freq: usize) -> Self {
        self.cfg.inv_update_freq = freq;
        self
    }

    /// Set the factor storage/communication precision.
    pub fn precision(mut self, precision: Precision) -> Self {
        self.cfg.precision = precision;
        self
    }

    /// Toggle triangular factor communication.
    pub fn triangular_comm(mut self, on: bool) -> Self {
        self.cfg.triangular_comm = on;
        self
    }

    /// Toggle the outer-product precompute optimization.
    pub fn precompute_outer(mut self, on: bool) -> Self {
        self.cfg.precompute_outer = on;
        self
    }

    /// Toggle eigendecomposition (true) vs. direct damped inverse (false).
    pub fn use_eigen(mut self, on: bool) -> Self {
        self.cfg.use_eigen = on;
        self
    }

    /// Set the eigendecomposition assignment strategy.
    pub fn assignment(mut self, strategy: AssignmentStrategy) -> Self {
        self.cfg.assignment = strategy;
        self
    }

    /// Toggle the EK-FAC eigenvalue correction.
    pub fn ekfac(mut self, on: bool) -> Self {
        self.cfg.ekfac = on;
        self
    }

    /// Toggle the stage-pipelined executor (non-blocking collectives with
    /// compute/communication overlap) vs. the serial reference executor.
    pub fn pipelined(mut self, on: bool) -> Self {
        self.cfg.pipelined = on;
        self
    }

    /// Toggle sharded factor reduction (reduce-scatter to eigendecomposition
    /// workers) vs. the dense factor allreduce.
    pub fn sharded_factors(mut self, on: bool) -> Self {
        self.cfg.sharded_factors = on;
        self
    }

    /// Finish building.
    pub fn build(self) -> KfacConfig {
        self.cfg.validate();
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let cfg = KfacConfig::builder()
            .grad_worker_frac(0.5)
            .damping(0.01)
            .factor_update_freq(5)
            .inv_update_freq(50)
            .precision(Precision::Fp16)
            .triangular_comm(true)
            .build();
        assert_eq!(cfg.grad_worker_frac, 0.5);
        assert_eq!(cfg.damping, 0.01);
        assert_eq!(cfg.inv_update_freq, 50);
        assert!(cfg.triangular_comm);
        assert_eq!(cfg.precision, Precision::Fp16);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn misaligned_frequencies_rejected() {
        let _ = KfacConfig::builder().factor_update_freq(7).inv_update_freq(100).build();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frac_rejected() {
        let _ = KfacConfig::builder().grad_worker_frac(0.0).build();
    }

    #[test]
    #[should_panic(expected = "nothing to shard")]
    fn local_opt_rejects_sharded_factors() {
        let _ =
            KfacConfig::builder().strategy(DistStrategy::LocalOpt).sharded_factors(true).build();
    }

    #[test]
    fn strategy_builder_roundtrip() {
        let cfg = KfacConfig::builder().strategy(DistStrategy::LocalOpt).build();
        assert_eq!(cfg.strategy, Some(DistStrategy::LocalOpt));
        assert_eq!(KfacConfig::default().strategy, None);
    }
}
