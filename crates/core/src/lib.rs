//! # kaisa-core
//!
//! The paper's primary contribution: **KAISA**, an adaptable distributed
//! K-FAC second-order preconditioner.
//!
//! K-FAC approximates the Fisher information matrix as a layer-block-diagonal
//! matrix of Kronecker products `F̂ᵢ = Aᵢ₋₁ ⊗ Gᵢ` (Eq. 9) and preconditions
//! each layer's gradient through the eigendecompositions of the factors
//! (Eq. 15–17):
//!
//! ```text
//! V₁ = Q_Gᵀ ∇L Q_A
//! V₂ = V₁ / (v_G v_Aᵀ + γ)
//! precond = Q_G V₂ Q_Aᵀ
//! ```
//!
//! The distributed design is parameterized by **`grad_worker_frac`**:
//! each layer gets `max(1, frac · world)` *gradient workers* that cache the
//! layer's eigendecompositions and precondition its gradient locally; the
//! remaining *gradient receivers* get the preconditioned gradient by
//! broadcast from their assigned worker, with the disjoint broadcast groups
//! running concurrently (Section 3.1):
//!
//! * `frac = 1/world` → **MEM-OPT** (Osawa et al.): one worker per layer,
//!   minimum memory, a world-wide broadcast every iteration.
//! * `frac = 1` → **COMM-OPT** (Pauloski et al.): every rank caches every
//!   layer, no per-iteration broadcast, maximum memory.
//! * anything between → **HYBRID-OPT**, the paper's new tunable middle.
//!
//! Also implemented from the paper: greedy longest-processing-time factor
//! distribution (Section 3.2), half-precision factor storage/communication
//! (Section 3.3), gradient-accumulation-friendly factor capture (Section
//! 4.2), triangular factor communication (Section 4.3), and the eigenvalue
//! outer-product precompute that cut preconditioning time by up to 53%
//! (Section 4.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod checkpoint;
mod config;
mod memory;
pub mod pipeline;
mod preconditioner;
mod state;
pub mod strategy;
mod timing;

pub use assignment::{plan_assignments, AssignmentStrategy, LayerAssignment, WorkPlan};
pub use checkpoint::{KfacCheckpoint, LayerCheckpoint};
pub use config::{KfacConfig, KfacConfigBuilder};
pub use memory::{MemoryBudget, MemoryCategory, MemoryMeter};
pub use pipeline::PipelineStage;
pub use preconditioner::Kfac;
pub use state::KfacLayerState;
pub use strategy::{effective_worker_frac, StrategyPlan};
pub use timing::{Stage, StageTimes, KFAC_STAGES};

/// Distribution strategy implied by a `grad_worker_frac` (Section 3.1),
/// plus the DP-KFAC local-preconditioning point on the same tradeoff curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistStrategy {
    /// One gradient worker per layer (`frac == 1/world`).
    MemOpt,
    /// Every rank is a gradient worker (`frac == 1`).
    CommOpt,
    /// A proper subset of ranks per layer.
    HybridOpt,
    /// DP-KFAC (Zhang et al.): one *owner* per layer folds and decomposes
    /// its **rank-local** factor statistics — no factor allreduce. Zero
    /// factor-collective traffic at the cost of curvature freshness (each
    /// owner's preconditioner reflects only the data its own rank saw).
    /// Never inferred from worker counts; selected explicitly via
    /// `KfacConfig::strategy`.
    LocalOpt,
}

impl DistStrategy {
    /// Classify a gradient-worker count for a given world size.
    ///
    /// The rule, in precedence order:
    ///
    /// 1. `workers >= world` → [`DistStrategy::CommOpt`] — "every rank is a
    ///    worker" wins, so a degenerate single-process world (`workers == 1,
    ///    world == 1`) classifies as COMM-OPT, *not* MEM-OPT: there is no
    ///    broadcast and every rank caches every layer, which is COMM-OPT's
    ///    defining behavior.
    /// 2. `workers <= 1` (with `world > 1`) → [`DistStrategy::MemOpt`].
    /// 3. otherwise → [`DistStrategy::HybridOpt`].
    ///
    /// [`DistStrategy::LocalOpt`] is never returned: DP-KFAC shares
    /// MEM-OPT's one-worker grid but changes the *algorithm* (local
    /// curvature), so it must be requested explicitly through
    /// `KfacConfig::strategy`, never inferred from a worker count.
    pub fn from_worker_count(workers: usize, world: usize) -> DistStrategy {
        // A worker grid is never empty (`gradient_worker_count` clamps to
        // 1); treat a raw 0 as that clamped 1 so degenerate inputs classify
        // the same as the grids they actually produce.
        let workers = workers.max(1);
        if workers >= world {
            DistStrategy::CommOpt
        } else if workers <= 1 {
            DistStrategy::MemOpt
        } else {
            DistStrategy::HybridOpt
        }
    }

    /// Display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            DistStrategy::MemOpt => "MEM-OPT",
            DistStrategy::CommOpt => "COMM-OPT",
            DistStrategy::HybridOpt => "HYBRID-OPT",
            DistStrategy::LocalOpt => "LOCAL-OPT",
        }
    }
}

impl std::fmt::Display for DistStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for DistStrategy {
    type Err = String;

    /// Parse a strategy from its display name (`"MEM-OPT"`, `"COMM-OPT"`,
    /// `"HYBRID-OPT"`, `"LOCAL-OPT"`), case-insensitively and with `_` or
    /// nothing accepted in place of the hyphen — so `Display` output always
    /// round-trips and CLI flags stay forgiving.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let canon: String =
            s.chars().filter(|c| *c != '-' && *c != '_').collect::<String>().to_ascii_lowercase();
        match canon.as_str() {
            "memopt" | "mem" => Ok(DistStrategy::MemOpt),
            "commopt" | "comm" => Ok(DistStrategy::CommOpt),
            "hybridopt" | "hybrid" => Ok(DistStrategy::HybridOpt),
            "localopt" | "local" => Ok(DistStrategy::LocalOpt),
            _ => Err(format!(
                "unknown strategy {s:?} (expected MEM-OPT, COMM-OPT, HYBRID-OPT, or LOCAL-OPT)"
            )),
        }
    }
}

/// Number of gradient workers for a fraction and world size:
/// `max(1, round(frac * world))`, clamped to the world (paper Section 3.1).
pub fn gradient_worker_count(frac: f64, world: usize) -> usize {
    ((frac * world as f64).round() as usize).clamp(1, world)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_special_cases() {
        assert_eq!(gradient_worker_count(1.0, 64), 64); // COMM-OPT
        assert_eq!(gradient_worker_count(1.0 / 64.0, 64), 1); // MEM-OPT
        assert_eq!(gradient_worker_count(0.5, 64), 32); // HYBRID
        assert_eq!(gradient_worker_count(0.0001, 64), 1); // floor at 1
        assert_eq!(gradient_worker_count(5.0, 8), 8); // clamp at world
        assert_eq!(gradient_worker_count(1.0, 1), 1);
    }

    #[test]
    fn strategy_classification() {
        assert_eq!(DistStrategy::from_worker_count(1, 8), DistStrategy::MemOpt);
        assert_eq!(DistStrategy::from_worker_count(8, 8), DistStrategy::CommOpt);
        assert_eq!(DistStrategy::from_worker_count(4, 8), DistStrategy::HybridOpt);
        // Degenerate single-process world is COMM-OPT (everyone is a worker).
        assert_eq!(DistStrategy::from_worker_count(1, 1), DistStrategy::CommOpt);
    }

    #[test]
    fn strategy_classification_degenerate_edges() {
        // The documented precedence: "every rank is a worker" (rule 1) beats
        // "one worker" (rule 2) wherever they overlap.
        // World 1: grid size 1 — always COMM-OPT, never MEM-OPT.
        assert_eq!(DistStrategy::from_worker_count(1, 1), DistStrategy::CommOpt);
        assert_eq!(DistStrategy::from_worker_count(0, 1), DistStrategy::CommOpt);
        assert_eq!(DistStrategy::from_worker_count(2, 1), DistStrategy::CommOpt);
        // World 2: one worker is a genuine proper subset → MEM-OPT; two is
        // everyone → COMM-OPT; there is no room for HYBRID at world 2.
        assert_eq!(DistStrategy::from_worker_count(1, 2), DistStrategy::MemOpt);
        assert_eq!(DistStrategy::from_worker_count(2, 2), DistStrategy::CommOpt);
        // Grid size 1 at larger worlds stays MEM-OPT (workers == 0 clamps).
        assert_eq!(DistStrategy::from_worker_count(0, 8), DistStrategy::MemOpt);
        // LocalOpt is never produced by classification at any grid size.
        for workers in 0..=4 {
            for world in 1..=4 {
                assert_ne!(DistStrategy::from_worker_count(workers, world), DistStrategy::LocalOpt);
            }
        }
    }

    #[test]
    fn strategy_names_round_trip_through_fromstr() {
        let all = [
            DistStrategy::MemOpt,
            DistStrategy::CommOpt,
            DistStrategy::HybridOpt,
            DistStrategy::LocalOpt,
        ];
        for s in all {
            // Display → FromStr is the identity.
            assert_eq!(s.name().parse::<DistStrategy>().unwrap(), s);
            assert_eq!(s.to_string().parse::<DistStrategy>().unwrap(), s);
            // Forgiving spellings parse too.
            assert_eq!(s.name().to_lowercase().parse::<DistStrategy>().unwrap(), s);
            assert_eq!(s.name().replace('-', "_").parse::<DistStrategy>().unwrap(), s);
        }
        assert_eq!("local".parse::<DistStrategy>().unwrap(), DistStrategy::LocalOpt);
        assert!("fastest".parse::<DistStrategy>().is_err());
    }
}
