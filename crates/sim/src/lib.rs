//! # kaisa-sim
//!
//! Performance and memory simulator for KAISA's large-scale evaluation.
//!
//! The paper's Figures 6–8 and Tables 4–5 were measured on 64 V100s and up
//! to 128 A100s. This crate reproduces their *shape* analytically from first
//! principles, using:
//!
//! * **true layer inventories** of the evaluated models (ResNet-18/50/101/152
//!   at ImageNet geometry, BERT-Large, Mask R-CNN ROI heads, U-Net) — every
//!   K-FAC factor dimension is derived from the real architecture;
//! * **device models** of the V100-16GB and A100-40GB (peak FLOP/s,
//!   achievable efficiency for GEMM vs. eigendecomposition, memory);
//! * **α–β collective cost models** (tree broadcast, ring allreduce,
//!   [`CollectiveCostModel`]) over a [`ClusterNetwork`] link model;
//! * the **actual placement plan** from `kaisa-core` (gradient-worker sets,
//!   LPT eigendecomposition assignment), so the simulated eigendecomposition
//!   makespan and per-rank preconditioning load are the ones KAISA would
//!   realize, not an idealized average.
//!
//! The simulator is validated at small scale against live `ThreadComm` runs
//! (see `tests/` at the workspace root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost_model;
mod device;
pub mod experiments;
mod inventory;
mod strategy_sim;

pub use cost_model::{ClusterNetwork, CollectiveCostModel};
pub use device::{ClusterSpec, GpuSpec};
pub use inventory::{LayerShape, ModelInventory};
pub use strategy_sim::{IterationBreakdown, MemoryBreakdown, SimParams, Simulator};
