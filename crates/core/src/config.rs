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
    /// **no factor collective at all** — zero `FactorComm` traffic, at the
    /// cost of curvature freshness (each owner's preconditioner reflects
    /// only its own rank's data shard). LocalOpt is never inferred; it must
    /// be requested here.
    pub strategy: Option<DistStrategy>,
    /// Tikhonov damping γ added to the eigenvalue outer product (Eq. 16).
    pub damping: f32,
    /// Exponential decay of the running factor averages
    /// (`A ← decay·A + (1-decay)·Â`).
    pub factor_decay: f32,
    /// KL-clip constant for gradient scaling; `None` disables scaling. A
    /// constant must be positive: zero would zero every preconditioned
    /// gradient, and a negative or NaN one would silently disable clipping.
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
    /// How eigendecomposition jobs are spread over ranks (Section 3.2).
    pub assignment: AssignmentStrategy,
    /// Run the EK-FAC variant (George et al.): keep KAISA's distribution of
    /// eigenbases but replace the eigenvalue outer product with running
    /// corrected second moments updated every step — the extension the
    /// paper's Related Work proposes layering on this framework.
    pub ekfac: bool,
    /// When `step()`'s collectives complete. The stages always run as the
    /// same layer sweeps; with `true` (the default) each collective's
    /// handle is completed by a later sweep, after other layers' local
    /// compute, overlapping communication with computation. With `false`
    /// each handle completes right after its `begin`, so no two
    /// collectives are ever in flight together — the serial reference
    /// order. Both orders are bitwise identical (property-tested), so this
    /// only trades wall-clock for a simpler order when debugging.
    pub pipelined: bool,
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
            assignment: AssignmentStrategy::ComputeLpt,
            ekfac: false,
            pipelined: true,
        }
    }
}

impl KfacConfig {
    /// Start building a configuration.
    pub fn builder() -> KfacConfigBuilder {
        KfacConfigBuilder { cfg: KfacConfig::default() }
    }

    /// Check invariants, describing the first violation.
    /// [`KfacConfigBuilder::build`] and [`crate::Kfac::new`] panic with that
    /// description; a caller that must not panic (serve admission) checks
    /// first.
    pub fn validate(&self) -> Result<(), String> {
        let ensure = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
        ensure(self.grad_worker_frac > 0.0, "grad_worker_frac must be positive")?;
        ensure(self.damping > 0.0, "damping must be positive")?;
        ensure((0.0..1.0).contains(&self.factor_decay), "factor_decay must be in [0, 1)")?;
        ensure(self.kl_clip.is_none_or(|c| c > 0.0), "kl_clip must be positive (or None)")?;
        ensure(self.factor_update_freq > 0, "factor_update_freq must be positive")?;
        ensure(self.inv_update_freq > 0, "inv_update_freq must be positive")?;
        if !self.inv_update_freq.is_multiple_of(self.factor_update_freq) {
            return Err(format!(
                "inv_update_freq ({}) should be a multiple of factor_update_freq ({}) so \
                 eigendecompositions never run on stale-by-construction factors",
                self.inv_update_freq, self.factor_update_freq
            ));
        }
        Ok(())
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

    /// Choose when collectives complete: in a later sweep, overlapping
    /// other layers' compute (`true`), or right after each `begin`, the
    /// serial reference order (`false`). See [`KfacConfig::pipelined`].
    pub fn pipelined(mut self, on: bool) -> Self {
        self.cfg.pipelined = on;
        self
    }

    /// Finish building.
    pub fn build(self) -> KfacConfig {
        self.cfg.validate().unwrap_or_else(|e| panic!("{e}"));
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
    fn non_positive_or_nan_kl_clip_rejected() {
        for clip in [-1.0, 0.0, f32::NAN] {
            let built =
                std::panic::catch_unwind(|| KfacConfig::builder().kl_clip(Some(clip)).build());
            assert!(built.is_err(), "kl_clip Some({clip}) was accepted");
        }
        let _ = KfacConfig::builder().kl_clip(None).build();
    }

    #[test]
    fn strategy_builder_roundtrip() {
        let cfg = KfacConfig::builder().strategy(DistStrategy::LocalOpt).build();
        assert_eq!(cfg.strategy, Some(DistStrategy::LocalOpt));
        assert_eq!(KfacConfig::default().strategy, None);
    }
}
