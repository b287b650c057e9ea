//! # KAISA
//!
//! A Rust reproduction of **"KAISA: An Adaptive Second-order Optimizer
//! Framework for Deep Neural Networks"** (SC 2021) — a distributed K-FAC
//! gradient preconditioner with a tunable memory/communication tradeoff.
//!
//! This facade crate re-exports the full public API:
//!
//! | Module | Contents |
//! |---|---|
//! | [`core`](mod@core) | The KAISA preconditioner: [`core::Kfac`], MEM-OPT / COMM-OPT / HYBRID-OPT placement, LPT distribution |
//! | [`nn`] | Layers with K-FAC capture and the four application models |
//! | [`optim`] | SGD / Adam / LAMB and learning-rate schedules |
//! | [`comm`] | Thread-rank collectives with traffic metering (calls and bytes) |
//! | [`trainer`] | Distributed training harness with convergence tracking |
//! | [`data`] | Deterministic synthetic datasets and shard samplers |
//! | [`sim`] | Large-scale performance/memory simulator with α–β collective cost models (Figures 6–8, Tables 4–5) |
//! | [`tensor`], [`linalg`] | Dense kernels, fp16 emulation, symmetric eigensolver |
//!
//! ## Quickstart (the paper's Listing 1, in Rust)
//!
//! ```
//! use kaisa::comm::{Communicator, LocalComm};
//! use kaisa::core::{Kfac, KfacConfig};
//! use kaisa::nn::{models::Mlp, Model};
//! use kaisa::optim::{Optimizer, Sgd};
//! use kaisa::tensor::{Matrix, Rng};
//!
//! let mut rng = Rng::seed_from_u64(0);
//! let mut model = Mlp::new(&[8, 16, 4], &mut rng);
//! let comm = LocalComm::new();
//! let mut optimizer = Sgd::with_momentum(0.9);
//! let mut kfac = Kfac::new(
//!     KfacConfig::builder()
//!         .grad_worker_frac(0.5)
//!         .damping(0.003)
//!         .factor_update_freq(10)
//!         .inv_update_freq(100)
//!         .build(),
//!     &mut model,
//!     &comm,
//! );
//!
//! let x = Matrix::randn(32, 8, 1.0, &mut rng);
//! let y: Vec<usize> = (0..32).map(|i| i % 4).collect();
//! for _ in 0..3 {
//!     kfac.prepare(&mut model);          // arm statistics capture
//!     model.zero_grad();
//!     let _ = model.forward_backward(&x, &y);
//!     kfac.step(&mut model, &comm, 0.1); // precondition gradients in place
//!     optimizer.step_model(&mut model, 0.1);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Dense matrices, NCHW tensors, fp16 emulation, deterministic RNG.
pub use kaisa_tensor as tensor;

/// Symmetric eigensolver, LU inverse oracle, triangular packing.
pub use kaisa_linalg as linalg;

/// Neural-network layers, models, and losses with K-FAC capture.
pub use kaisa_nn as nn;

/// Thread-rank collective communication and traffic metering.
pub use kaisa_comm as comm;

/// The KAISA K-FAC preconditioner (the paper's contribution).
pub use kaisa_core as core;

/// First-order optimizers and schedules.
pub use kaisa_optim as optim;

/// Synthetic datasets and distributed samplers.
pub use kaisa_data as data;

/// Large-scale performance and memory simulation.
pub use kaisa_sim as sim;

/// The distributed training harness.
pub use kaisa_trainer as trainer;

/// Multi-job K-FAC service: shared rank pool, admission control,
/// checkpoint/restore, elastic world resizing.
pub use kaisa_serve as serve;
