//! The first-class distribution-strategy layer.
//!
//! Historically each executor re-derived "what does this strategy mean for
//! my stage?" from scattered config bits (`sharded_factors`, `use_eigen`,
//! worker counts). This module centralizes that decision into a
//! [`StrategyPlan`] computed once in `Kfac::new` and consumed uniformly by
//! the serial and sweep-pipelined executors and the memory meter — so
//! adding a strategy (like DP-KFAC's `LocalOpt`) is a plan change, not an
//! every-executor change.
//!
//! It also hosts [`auto_strategy`]: a pure-function dispatcher that picks
//! the modeled-fastest strategy from the calibrated α–β cost model, so
//! every rank picks the same one.

use kaisa_comm::{ClusterNetwork, CollectiveCostModel};

use crate::assignment::{plan_assignments_with, LayerAssignment, WorkPlan};
use crate::config::KfacConfig;
use crate::pipeline::ComputeRates;
use crate::state::factor_payload_len;
use crate::{AssignmentStrategy, DistStrategy};

/// How a layer's freshly captured factor statistics become (averaged)
/// running-factor folds — the factor-phase axis of the strategy space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorReduction {
    /// Allreduce the packed payload over the world; every rank folds the
    /// world-averaged factors into dense running averages (the reference
    /// path, `FactorComm` tag).
    DenseAllreduce,
    /// Reduce-scatter the packed payload so each section lands only on its
    /// eigendecomposition worker, which folds it shard-resident
    /// (`FactorReduce` tag, plus `FactorGather` regathers for the
    /// direct-inverse fallback's split-worker layers).
    ShardedReduceScatter,
    /// No factor collective at all (DP-KFAC / `LocalOpt`): the owning rank
    /// folds its *local* batch-mean statistics; other ranks discard theirs.
    LocalNone,
}

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
    /// Factor-phase reduction mode.
    pub reduction: FactorReduction,
    /// Whether split-worker layers must regather the averaged payload
    /// within the eigendecomposition worker group (the direct-inverse
    /// fallback consumes both factors on the A worker). Only meaningful
    /// under [`FactorReduction::ShardedReduceScatter`].
    pub regather_split_layers: bool,
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
        let reduction = if strategy == DistStrategy::LocalOpt {
            FactorReduction::LocalNone
        } else if cfg.sharded_factors {
            FactorReduction::ShardedReduceScatter
        } else {
            FactorReduction::DenseAllreduce
        };
        StrategyPlan {
            strategy,
            reduction,
            regather_split_layers: reduction == FactorReduction::ShardedReduceScatter
                && !cfg.use_eigen,
            eig_bcast: workers > 1,
            grad_bcast: workers < world,
            workers_per_layer: workers,
            world,
        }
    }

    /// True when this layer's averaged payload must be regathered within
    /// its eigendecomposition worker group after the reduce-scatter.
    pub fn needs_regather(&self, asn: &LayerAssignment) -> bool {
        self.regather_split_layers && asn.a_worker != asn.g_worker
    }

    /// True when no factor collective runs at all (DP-KFAC local folds).
    pub fn local_factors(&self) -> bool {
        self.reduction == FactorReduction::LocalNone
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

/// The candidate fraction [`auto_strategy`] scores for each strategy: the
/// MEM/LOCAL extreme, the paper's canonical 1/2 hybrid point, and the COMM
/// extreme.
fn candidate_frac(strategy: DistStrategy, world: usize) -> f64 {
    match strategy {
        DistStrategy::MemOpt | DistStrategy::LocalOpt => 1.0 / world as f64,
        DistStrategy::HybridOpt => 0.5,
        DistStrategy::CommOpt => 1.0,
    }
}

/// Modeled amortized seconds per optimizer iteration for each distribution
/// strategy on the α–β network model. `LocalOpt` is scored at the
/// MEM-OPT placement with zero factor-collective time (DP-KFAC folds local
/// statistics). Update-interval stages amortize over `factor_update_freq` /
/// `inv_update_freq`. A pure function of its arguments: every rank computes
/// the same table.
pub fn modeled_strategy_makespans(
    dims: &[(usize, usize)],
    world: usize,
    network: ClusterNetwork,
    batch: usize,
    factor_update_freq: usize,
    inv_update_freq: usize,
) -> Vec<(DistStrategy, f64)> {
    let cost = CollectiveCostModel::new(network);
    let rates = ComputeRates::default();
    let f_freq = factor_update_freq.max(1) as f64;
    let k_freq = inv_update_freq.max(1) as f64;

    // Strategy-invariant stages.
    let fwd_bwd: f64 =
        dims.iter().map(|&(a, g)| 6.0 * (a * g * batch) as f64 / rates.gemm_flops).sum();
    let grad_elems: f64 = dims.iter().map(|&(a, g)| (a * g) as f64).sum();
    let ddp = cost.allreduce(grad_elems as usize * 4, world);
    let finalize: f64 =
        dims.iter().map(|&(a, g)| ((a * a + g * g) * batch) as f64 / rates.gemm_flops).sum::<f64>()
            / f_freq;
    let scale = 3.0 * grad_elems / rates.gemm_flops;
    let factor_bytes: usize = dims.iter().map(|&(a, g)| factor_payload_len(a, g, false) * 4).sum();

    let strategies = [
        DistStrategy::MemOpt,
        DistStrategy::HybridOpt,
        DistStrategy::CommOpt,
        DistStrategy::LocalOpt,
    ];
    strategies
        .iter()
        .map(|&strategy| {
            let frac = candidate_frac(strategy, world);
            let plan =
                plan_assignments_with(dims, world, frac, AssignmentStrategy::ComputeLpt, false);
            let workers = plan.workers_per_layer;

            // Factor collective: a world allreduce, amortized — or nothing
            // at all for DP-KFAC local folds.
            let factor_comm = if strategy == DistStrategy::LocalOpt {
                0.0
            } else {
                cost.allreduce(factor_bytes, world) / f_freq
            };

            // Eigendecompositions: realized placement makespan, amortized.
            let mut eig_loads = vec![0.0f64; world];
            for (&(a, g), asn) in dims.iter().zip(&plan.layers) {
                eig_loads[asn.a_worker] += 9.0 * (a as f64).powi(3);
                eig_loads[asn.g_worker] += 9.0 * (g as f64).powi(3);
            }
            let eig_compute = eig_loads.into_iter().fold(0.0, f64::max) / rates.eig_flops / k_freq;
            let eig_comm = if workers > 1 {
                dims.iter()
                    .map(|&(a, g)| {
                        cost.broadcast(a * a * 4, workers)
                            + cost.broadcast(g * g * 4, workers)
                            + cost.broadcast(a * g * 4, workers)
                    })
                    .sum::<f64>()
                    / k_freq
            } else {
                0.0
            };

            // Preconditioning: heaviest per-rank gradient-worker load.
            let mut precond_loads = vec![0.0f64; world];
            for (&(a, g), asn) in dims.iter().zip(&plan.layers) {
                for &r in &asn.gradient_workers {
                    precond_loads[r] += 2.0 * (a * g) as f64 * (a + g) as f64;
                }
            }
            let precond = precond_loads.into_iter().fold(0.0, f64::max) / rates.gemm_flops;

            // Per-step preconditioned-gradient broadcasts (disjoint groups
            // run concurrently; each layer costs its largest group).
            let grad_bcast: f64 = dims
                .iter()
                .zip(&plan.layers)
                .filter_map(|(&(a, g), asn)| {
                    asn.bcast_groups
                        .iter()
                        .map(|grp| grp.len())
                        .max()
                        .map(|largest| cost.broadcast(a * g * 4, largest))
                })
                .sum();

            let total = fwd_bwd
                + ddp
                + finalize
                + factor_comm
                + eig_compute
                + eig_comm
                + precond
                + grad_bcast
                + scale;
            (strategy, total)
        })
        .collect()
}

/// Pick the distribution strategy with the best modeled amortized iteration
/// time for this model/world/network at the reference per-rank batch of 32
/// and the default update intervals (`F = 10`, `K = 100`).
///
/// A pure function of its arguments, so every rank dispatches identically —
/// a per-rank measurement would break collective matching. Within 0.1% of
/// the best time the fewest-gradient-workers candidate wins (less cached
/// eigendecomposition memory for the same modeled speed).
///
/// Only the three *exact* strategies (MEM/HYBRID/COMM-OPT, which are
/// bitwise-identical reformulations of the same update) are candidates.
/// `LocalOpt` preconditions from rank-local curvature — a statistically
/// different update — so it is never auto-selected; opt in explicitly via
/// `KfacConfig::strategy` when the curvature-freshness tradeoff is
/// acceptable.
pub fn auto_strategy(
    dims: &[(usize, usize)],
    world: usize,
    network: ClusterNetwork,
) -> DistStrategy {
    let table = modeled_strategy_makespans(dims, world, network, 32, 10, 100);
    let exact: Vec<(DistStrategy, f64)> =
        table.into_iter().filter(|(s, _)| *s != DistStrategy::LocalOpt).collect();
    let best = exact.iter().map(|&(_, t)| t).fold(f64::INFINITY, f64::min);
    // Candidates are ordered fewest-workers-first (MEM, HYBRID, COMM), so
    // the first within tolerance is the cheapest-memory near-optimum.
    exact
        .iter()
        .find(|&&(_, t)| t <= best * 1.001)
        .map(|&(s, _)| s)
        .expect("at least one exact strategy is always scored")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resnet_ish() -> Vec<(usize, usize)> {
        vec![(576, 64), (1152, 128), (2304, 256), (4608, 512), (512, 10)]
    }

    #[test]
    fn plan_resolves_strategy_from_worker_count() {
        let dims = vec![(8, 8), (16, 4)];
        for (frac, expect) in [
            (0.125, DistStrategy::MemOpt),
            (0.5, DistStrategy::HybridOpt),
            (1.0, DistStrategy::CommOpt),
        ] {
            let cfg = KfacConfig::builder().grad_worker_frac(frac).build();
            let plan = plan_assignments_with(&dims, 8, frac, AssignmentStrategy::ComputeLpt, false);
            let sp = StrategyPlan::resolve(&cfg, &plan);
            assert_eq!(sp.strategy, expect);
            assert_eq!(sp.reduction, FactorReduction::DenseAllreduce);
            assert_eq!(sp.eig_bcast, plan.workers_per_layer > 1);
            assert_eq!(sp.grad_bcast, plan.workers_per_layer < 8);
        }
    }

    #[test]
    fn local_opt_plan_has_no_factor_collectives() {
        let dims = vec![(8, 8), (16, 4)];
        let cfg = KfacConfig::builder().strategy(DistStrategy::LocalOpt).build();
        let frac = effective_worker_frac(cfg.strategy, cfg.grad_worker_frac, 8);
        let plan = plan_assignments_with(&dims, 8, frac, cfg.assignment, false);
        let sp = StrategyPlan::resolve(&cfg, &plan);
        assert_eq!(sp.strategy, DistStrategy::LocalOpt);
        assert!(sp.local_factors());
        assert_eq!(sp.workers_per_layer, 1, "LocalOpt pins one owner per layer");
        assert!(!sp.eig_bcast);
        assert!(sp.grad_bcast);
        assert!(!sp.regather_split_layers);
    }

    #[test]
    fn sharded_plan_regathers_only_for_the_inverse_fallback() {
        let dims = vec![(8, 8), (16, 4)];
        let plan = plan_assignments_with(&dims, 4, 1.0, AssignmentStrategy::ComputeLpt, false);
        let eigen =
            StrategyPlan::resolve(&KfacConfig::builder().sharded_factors(true).build(), &plan);
        assert_eq!(eigen.reduction, FactorReduction::ShardedReduceScatter);
        assert!(!eigen.regather_split_layers);
        let inverse = StrategyPlan::resolve(
            &KfacConfig::builder().sharded_factors(true).use_eigen(false).build(),
            &plan,
        );
        assert!(inverse.regather_split_layers);
        for asn in &plan.layers {
            assert_eq!(inverse.needs_regather(asn), asn.a_worker != asn.g_worker);
        }
    }

    #[test]
    fn effective_frac_applies_strategy_overrides() {
        assert_eq!(effective_worker_frac(Some(DistStrategy::MemOpt), 1.0, 8), 1.0 / 8.0);
        assert_eq!(effective_worker_frac(Some(DistStrategy::LocalOpt), 1.0, 8), 1.0 / 8.0);
        assert_eq!(effective_worker_frac(Some(DistStrategy::CommOpt), 0.25, 8), 1.0);
        assert_eq!(effective_worker_frac(Some(DistStrategy::HybridOpt), 0.25, 8), 0.25);
        assert_eq!(effective_worker_frac(None, 0.75, 8), 0.75);
    }

    #[test]
    fn makespan_table_covers_all_four_strategies() {
        let table = modeled_strategy_makespans(
            &resnet_ish(),
            8,
            ClusterNetwork::ethernet_10g(),
            32,
            10,
            100,
        );
        assert_eq!(table.len(), 4);
        for &(_, t) in &table {
            assert!(t.is_finite() && t > 0.0);
        }
        let get = |s: DistStrategy| table.iter().find(|&&(x, _)| x == s).unwrap().1;
        // DP-KFAC is MEM-OPT minus the factor allreduce: strictly faster on
        // a comm-bound network, identical in every other stage.
        assert!(get(DistStrategy::LocalOpt) < get(DistStrategy::MemOpt));
    }

    #[test]
    fn auto_strategy_is_deterministic_and_exact() {
        for world in [1, 2, 4, 8, 16] {
            for network in [ClusterNetwork::ethernet_10g(), ClusterNetwork::infiniband_edr()] {
                let a = auto_strategy(&resnet_ish(), world, network);
                let b = auto_strategy(&resnet_ish(), world, network);
                assert_eq!(a, b, "pure function must be reproducible");
                assert_ne!(a, DistStrategy::LocalOpt, "LocalOpt is never auto-selected");
            }
        }
    }

    #[test]
    fn auto_strategy_prefers_fewer_workers_on_slow_networks() {
        // On a severely comm-bound network the eigendecomposition broadcasts
        // of COMM-OPT dominate; the dispatcher must not pick COMM-OPT there
        // while picking it (or HYBRID) where bandwidth is cheap. At world 1
        // every strategy degenerates; the tie rule picks MEM-OPT's candidate.
        let slow = auto_strategy(&resnet_ish(), 1, ClusterNetwork::ethernet_10g());
        assert_eq!(slow, DistStrategy::MemOpt);
    }
}
