//! # kaisa-optim
//!
//! First-order optimizers used under the KAISA preconditioner. In the paper
//! K-FAC is a *preconditioner*, not an optimizer: the preconditioned
//! gradients are handed to the application's standard optimizer — momentum
//! SGD for ResNet/Mask R-CNN, Adam for U-Net, (Fused) LAMB for BERT —
//! which this crate provides, along with the learning-rate schedules the
//! experiments use (linear warmup, step decay, polynomial).
//!
//! All optimizers operate on flat parameter/gradient buffers with a named
//! per-layer segmentation (see [`kaisa_nn::Model::param_segments`]), which is
//! what LAMB's layer-wise trust ratios require.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adam;
mod lamb;
mod schedule;
mod sgd;

pub use adam::Adam;
pub use lamb::Lamb;
pub use schedule::LrSchedule;
pub use sgd::Sgd;

use kaisa_nn::{Model, ParamSegment};

/// A first-order optimizer over flat parameter buffers.
pub trait Optimizer {
    /// Apply one update. `segments` names the per-layer spans of the flat
    /// buffers (needed by LAMB; others may ignore it).
    fn step(&mut self, params: &mut [f32], grads: &[f32], segments: &[ParamSegment], lr: f32);

    /// Convenience wrapper: flatten the model, step, write back.
    fn step_model<M: Model>(&mut self, model: &mut M, lr: f32)
    where
        Self: Sized,
    {
        let segments = model.param_segments();
        let mut params = model.params_flat();
        let grads = model.grads_flat();
        self.step(&mut params, &grads, &segments, lr);
        model.set_params_flat(&params);
    }

    /// Bytes of optimizer state per parameter element (for the memory model:
    /// SGD+momentum = 4, Adam/LAMB = 8).
    fn state_bytes_per_param(&self) -> usize;
}
