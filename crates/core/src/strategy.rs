//! The first-class distribution-strategy layer.
//!
//! Each executor consumes one [`StrategyPlan`], computed once in `Kfac::new`
//! from the config and the realized placement, instead of re-deriving "what
//! does this strategy mean for my stage?" from scattered config bits — so
//! adding a strategy (like DP-KFAC's `LocalOpt`) is a plan change, not an
//! every-executor change. The serial and sweep-pipelined executors and the
//! memory meter all read it.

use crate::assignment::WorkPlan;
use crate::config::KfacConfig;
use crate::DistStrategy;

/// The resolved per-run distribution plan: which strategy is in effect and
/// what every stage of the step must do about communication. Computed once
/// in `Kfac::new` (a pure function of config + placement, identical on
/// every rank) and consulted by both executors, so no executor body
/// branches on raw strategy/config flags.
#[derive(Debug, Clone)]
pub struct StrategyPlan {
    /// The strategy in effect (explicit `KfacConfig::strategy`, or
    /// classified from the realized gradient-worker count).
    pub strategy: DistStrategy,
    /// Whether decomposition results broadcast to gradient workers at all
    /// (false when every layer has exactly one gradient worker).
    pub eig_bcast: bool,
    /// Whether per-step preconditioned-gradient broadcasts exist (false
    /// under COMM-OPT, where every rank preconditions every layer).
    pub grad_bcast: bool,
    /// Gradient workers per layer under this plan.
    pub workers_per_layer: usize,
    /// World size the plan was computed for.
    pub world: usize,
}

impl StrategyPlan {
    /// Resolve the strategy plan for a config and its realized placement.
    pub fn resolve(cfg: &KfacConfig, plan: &WorkPlan) -> StrategyPlan {
        let workers = plan.workers_per_layer;
        let world = plan.world;
        let strategy = match cfg.strategy {
            Some(DistStrategy::LocalOpt) => DistStrategy::LocalOpt,
            // Explicit MEM/HYBRID/COMM requests resolve through the same
            // worker-count classification as frac-derived runs, so the
            // reported strategy always matches the realized placement.
            _ => DistStrategy::from_worker_count(workers, world),
        };
        StrategyPlan {
            strategy,
            eig_bcast: workers > 1,
            grad_bcast: workers < world,
            workers_per_layer: workers,
            world,
        }
    }

    /// True when no factor collective runs at all: the DP-KFAC owner folds
    /// its *local* batch-mean statistics and other ranks discard theirs.
    /// Otherwise every rank allreduces the packed factor payload over the
    /// world and folds the world-averaged factors (`FactorComm` tag).
    pub fn local_factors(&self) -> bool {
        self.strategy == DistStrategy::LocalOpt
    }
}

/// The effective `grad_worker_frac` once an explicit strategy override is
/// applied: `MemOpt` and `LocalOpt` pin one worker per layer, `CommOpt`
/// pins every rank, `HybridOpt` (or no override) keeps the configured
/// fraction.
pub fn effective_worker_frac(strategy: Option<DistStrategy>, frac: f64, world: usize) -> f64 {
    match strategy {
        Some(DistStrategy::MemOpt) | Some(DistStrategy::LocalOpt) => 1.0 / world as f64,
        Some(DistStrategy::CommOpt) => 1.0,
        Some(DistStrategy::HybridOpt) | None => frac,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::plan_assignments;
    use crate::AssignmentStrategy;

    #[test]
    fn plan_resolves_strategy_from_worker_count() {
        let dims = vec![(8, 8), (16, 4)];
        for (frac, expect) in [
            (0.125, DistStrategy::MemOpt),
            (0.5, DistStrategy::HybridOpt),
            (1.0, DistStrategy::CommOpt),
        ] {
            let cfg = KfacConfig::builder().grad_worker_frac(frac).build();
            let plan = plan_assignments(&dims, 8, frac, AssignmentStrategy::ComputeLpt);
            let sp = StrategyPlan::resolve(&cfg, &plan);
            assert_eq!(sp.strategy, expect);
            assert!(!sp.local_factors());
            assert_eq!(sp.eig_bcast, plan.workers_per_layer > 1);
            assert_eq!(sp.grad_bcast, plan.workers_per_layer < 8);
        }
    }

    #[test]
    fn local_opt_plan_has_no_factor_collectives() {
        let dims = vec![(8, 8), (16, 4)];
        let cfg = KfacConfig::builder().strategy(DistStrategy::LocalOpt).build();
        let frac = effective_worker_frac(cfg.strategy, cfg.grad_worker_frac, 8);
        let plan = plan_assignments(&dims, 8, frac, cfg.assignment);
        let sp = StrategyPlan::resolve(&cfg, &plan);
        assert_eq!(sp.strategy, DistStrategy::LocalOpt);
        assert!(sp.local_factors());
        assert_eq!(sp.workers_per_layer, 1, "LocalOpt pins one owner per layer");
        assert!(!sp.eig_bcast);
        assert!(sp.grad_bcast);
    }

    #[test]
    fn effective_frac_applies_strategy_overrides() {
        assert_eq!(effective_worker_frac(Some(DistStrategy::MemOpt), 1.0, 8), 1.0 / 8.0);
        assert_eq!(effective_worker_frac(Some(DistStrategy::LocalOpt), 1.0, 8), 1.0 / 8.0);
        assert_eq!(effective_worker_frac(Some(DistStrategy::CommOpt), 0.25, 8), 1.0);
        assert_eq!(effective_worker_frac(Some(DistStrategy::HybridOpt), 0.25, 8), 0.25);
        assert_eq!(effective_worker_frac(None, 0.75, 8), 0.75);
    }
}
