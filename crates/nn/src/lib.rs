//! # kaisa-nn
//!
//! Neural-network substrate for the KAISA reproduction: layers with explicit
//! forward/backward passes that *capture the per-layer activations `a` and
//! pre-activation gradients `g`* the K-FAC preconditioner consumes, plus the
//! scaled-down analogues of the paper's four applications:
//!
//! | Paper model | Here | K-FAC'd layer kinds |
//! |---|---|---|
//! | ResNet-50 (ImageNet) | [`models::ResNetMini`] | Conv2d + Linear |
//! | Mask R-CNN ROI heads (COCO) | [`models::RoiHeadMini`] | Linear |
//! | U-Net (LGG MRI) | [`models::UNetMini`] | Conv2d |
//! | BERT-Large (Wikipedia) | [`models::BertMini`] | Linear (inside MHA/FFN) |
//!
//! The crate deliberately avoids a tape-based autograd: each layer implements
//! its own adjoint, which keeps the `(a, g)` capture points explicit — the
//! same structure `kfac_pytorch` achieves with module hooks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod attention;
pub mod capture;
pub mod conv;
pub mod linear;
pub mod loss;
pub mod model;
pub mod models;
pub mod norm;
pub mod pool;

pub use capture::{KfacAble, KfacCapture, KfacStats};
pub use conv::Conv2d;
pub use linear::Linear;
pub use model::{EvalResult, Model, ParamSegment};
