//! Residual CNN classifier — the ResNet-50 / ResNet-32 analogue.
//!
//! A CIFAR-style residual network: conv stem, two stages of residual blocks
//! (the second strided with a projection shortcut), global average pooling,
//! and a linear classifier. All Conv2d and Linear layers are K-FAC
//! preconditionable, matching the paper's treatment of ResNet-50 ("we use
//! K-FAC to precondition all convolutional and linear layers", Section 5.2);
//! BatchNorm parameters go to the first-order optimizer only.

use kaisa_tensor::{Rng, Tensor4};

use crate::activation::Relu2d;
use crate::capture::KfacAble;
use crate::conv::Conv2d;
use crate::linear::Linear;
use crate::loss::softmax_cross_entropy;
use crate::model::{visit_bn, visit_conv, visit_linear, EvalResult, Model, ParamRef};
use crate::norm::BatchNorm2d;
use crate::pool::GlobalAvgPool;

/// One residual block: `conv-bn-relu-conv-bn (+ shortcut) → relu`.
#[derive(Debug, Clone)]
struct ResBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu2d,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    relu_out: Relu2d,
}

impl ResBlock {
    fn new(prefix: &str, c_in: usize, c_out: usize, stride: usize, rng: &mut Rng) -> Self {
        let shortcut = if stride != 1 || c_in != c_out {
            Some((
                Conv2d::new(format!("{prefix}.sc"), c_in, c_out, 1, stride, 0, false, rng),
                BatchNorm2d::new(c_out),
            ))
        } else {
            None
        };
        ResBlock {
            conv1: Conv2d::new(format!("{prefix}.conv1"), c_in, c_out, 3, stride, 1, false, rng),
            bn1: BatchNorm2d::new(c_out),
            relu1: Relu2d::new(),
            conv2: Conv2d::new(format!("{prefix}.conv2"), c_out, c_out, 3, 1, 1, false, rng),
            bn2: BatchNorm2d::new(c_out),
            shortcut,
            relu_out: Relu2d::new(),
        }
    }

    fn forward(&mut self, x: &Tensor4, train: bool) -> Tensor4 {
        let h = self.conv1.forward(x, train);
        let h = self.bn1.forward(&h, train);
        let h = self.relu1.forward(&h, train);
        let h = self.conv2.forward(&h, train);
        let mut h = self.bn2.forward(&h, train);
        let sc = match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = conv.forward(x, train);
                bn.forward(&s, train)
            }
            None => x.clone(),
        };
        h.add_assign(&sc);
        self.relu_out.forward(&h, train)
    }

    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let g = self.relu_out.backward(grad_out);
        // Main branch.
        let gm = self.bn2.backward(&g);
        let gm = self.conv2.backward(&gm);
        let gm = self.relu1.backward(&gm);
        let gm = self.bn1.backward(&gm);
        let mut gx = self.conv1.backward(&gm);
        // Shortcut branch (gradient g flows unchanged into the addition).
        match &mut self.shortcut {
            Some((conv, bn)) => {
                let gs = bn.backward(&g);
                gx.add_assign(&conv.backward(&gs));
            }
            None => gx.add_assign(&g),
        }
        gx
    }

    fn zero_grad(&mut self) {
        self.conv1.zero_grad();
        self.bn1.zero_grad();
        self.conv2.zero_grad();
        self.bn2.zero_grad();
        if let Some((conv, bn)) = &mut self.shortcut {
            conv.zero_grad();
            bn.zero_grad();
        }
    }
}

/// Configuration for [`ResNetMini`].
#[derive(Debug, Clone, Copy)]
pub struct ResNetMiniConfig {
    /// Input channels (3 for RGB-like synthetic images).
    pub in_channels: usize,
    /// Stem/stage-1 width.
    pub width: usize,
    /// Residual blocks in stage 1 (stride 1).
    pub blocks_stage1: usize,
    /// Residual blocks in stage 2 (first block strided, width doubled).
    pub blocks_stage2: usize,
    /// Output classes.
    pub classes: usize,
}

impl Default for ResNetMiniConfig {
    fn default() -> Self {
        ResNetMiniConfig {
            in_channels: 3,
            width: 8,
            blocks_stage1: 1,
            blocks_stage2: 1,
            classes: 10,
        }
    }
}

/// Residual CNN classifier.
#[derive(Debug, Clone)]
pub struct ResNetMini {
    name: String,
    stem: Conv2d,
    stem_bn: BatchNorm2d,
    stem_relu: Relu2d,
    blocks: Vec<ResBlock>,
    pool: GlobalAvgPool,
    head: Linear,
}

impl ResNetMini {
    /// Build the network from a configuration.
    pub fn new(cfg: ResNetMiniConfig, rng: &mut Rng) -> Self {
        let w = cfg.width;
        let mut blocks = Vec::new();
        for b in 0..cfg.blocks_stage1 {
            blocks.push(ResBlock::new(&format!("s1b{b}"), w, w, 1, rng));
        }
        for b in 0..cfg.blocks_stage2 {
            let (c_in, stride) = if b == 0 { (w, 2) } else { (2 * w, 1) };
            blocks.push(ResBlock::new(&format!("s2b{b}"), c_in, 2 * w, stride, rng));
        }
        ResNetMini {
            name: "resnet_mini".to_string(),
            stem: Conv2d::new("stem", cfg.in_channels, w, 3, 1, 1, false, rng),
            stem_bn: BatchNorm2d::new(w),
            stem_relu: Relu2d::new(),
            blocks,
            pool: GlobalAvgPool::new(),
            head: Linear::new("head", 2 * w, cfg.classes, true, rng),
        }
    }

    /// Forward pass to logits.
    pub fn forward(&mut self, x: &Tensor4, train: bool) -> kaisa_tensor::Matrix {
        let h = self.stem.forward(x, train);
        let h = self.stem_bn.forward(&h, train);
        let mut h = self.stem_relu.forward(&h, train);
        for block in self.blocks.iter_mut() {
            h = block.forward(&h, train);
        }
        let pooled = self.pool.forward(&h, train);
        self.head.forward(&pooled, train)
    }

    fn backward(&mut self, grad_logits: &kaisa_tensor::Matrix) {
        let g = self.head.backward(grad_logits);
        let mut g = self.pool.backward(&g);
        for block in self.blocks.iter_mut().rev() {
            g = block.backward(&g);
        }
        let g = self.stem_relu.backward(&g);
        let g = self.stem_bn.backward(&g);
        let _ = self.stem.backward(&g);
    }
}

impl Model for ResNetMini {
    type Input = Tensor4;
    type Target = Vec<usize>;

    fn name(&self) -> &str {
        &self.name
    }

    fn forward_backward(&mut self, x: &Tensor4, y: &Vec<usize>) -> EvalResult {
        let logits = self.forward(x, true);
        let out = softmax_cross_entropy(&logits, y);
        self.backward(&out.grad);
        EvalResult { loss: out.loss, metric: out.accuracy }
    }

    fn evaluate(&mut self, x: &Tensor4, y: &Vec<usize>) -> EvalResult {
        let logits = self.forward(x, false);
        let out = softmax_cross_entropy(&logits, y);
        EvalResult { loss: out.loss, metric: out.accuracy }
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&str, ParamRef<'_>)) {
        visit_conv(&mut self.stem, "stem", f);
        visit_bn(&mut self.stem_bn, "stem_bn", f);
        for (i, block) in self.blocks.iter_mut().enumerate() {
            visit_conv(&mut block.conv1, &format!("b{i}.conv1"), f);
            visit_bn(&mut block.bn1, &format!("b{i}.bn1"), f);
            visit_conv(&mut block.conv2, &format!("b{i}.conv2"), f);
            visit_bn(&mut block.bn2, &format!("b{i}.bn2"), f);
            if let Some((conv, bn)) = &mut block.shortcut {
                visit_conv(conv, &format!("b{i}.sc"), f);
                visit_bn(bn, &format!("b{i}.sc_bn"), f);
            }
        }
        visit_linear(&mut self.head, "head", f);
    }

    fn kfac_layers(&mut self) -> Vec<&mut dyn KfacAble> {
        let mut layers: Vec<&mut dyn KfacAble> = vec![&mut self.stem];
        for block in self.blocks.iter_mut() {
            layers.push(&mut block.conv1);
            layers.push(&mut block.conv2);
            if let Some((conv, _)) = &mut block.shortcut {
                layers.push(conv);
            }
        }
        layers.push(&mut self.head);
        layers
    }

    fn zero_grad(&mut self) {
        self.stem.zero_grad();
        self.stem_bn.zero_grad();
        for block in self.blocks.iter_mut() {
            block.zero_grad();
        }
        self.head.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaisa_tensor::Matrix;

    fn tiny() -> (ResNetMini, Rng) {
        let mut rng = Rng::seed_from_u64(161);
        let model = ResNetMini::new(
            ResNetMiniConfig {
                in_channels: 3,
                width: 4,
                blocks_stage1: 1,
                blocks_stage2: 1,
                classes: 4,
            },
            &mut rng,
        );
        (model, rng)
    }

    #[test]
    fn forward_shape() {
        let (mut model, mut rng) = tiny();
        let x = Tensor4::randn(2, 3, 8, 8, 1.0, &mut rng);
        let logits = model.forward(&x, false);
        assert_eq!(logits.shape(), (2, 4));
    }

    #[test]
    fn kfac_layer_inventory() {
        let (mut model, _) = tiny();
        // stem + (conv1, conv2) + (conv1, conv2, shortcut) + head = 7.
        assert_eq!(model.kfac_layers().len(), 7);
    }

    #[test]
    fn backward_runs_and_fills_grads() {
        let (mut model, mut rng) = tiny();
        let x = Tensor4::randn(2, 3, 8, 8, 1.0, &mut rng);
        let y = vec![0usize, 3];
        model.zero_grad();
        let res = model.forward_backward(&x, &y);
        assert!(res.loss > 0.0);
        let grads = model.grads_flat();
        let nonzero = grads.iter().filter(|v| **v != 0.0).count();
        assert!(nonzero > grads.len() / 2, "most gradients should be nonzero");
    }

    #[test]
    fn gradcheck_spot_positions() {
        let (mut model, mut rng) = tiny();
        let x = Tensor4::randn(2, 3, 8, 8, 0.5, &mut rng);
        let y = vec![1usize, 2];
        model.zero_grad();
        let _ = model.forward_backward(&x, &y);
        let grads = model.grads_flat();
        let mut params = model.params_flat();
        let h = 1e-2;
        // The analytic gradient is for *batch-statistics* BatchNorm, so the
        // finite-difference loss must also run a train-mode forward (running
        // statistics drift across calls but do not affect train-mode output).
        let train_loss = |m: &mut ResNetMini, x: &Tensor4, y: &Vec<usize>| -> f32 {
            let logits = m.forward(x, true);
            softmax_cross_entropy(&logits, y).loss
        };
        for &idx in &[0usize, 50, params.len() / 2, params.len() - 2] {
            let orig = params[idx];
            params[idx] = orig + h;
            model.set_params_flat(&params);
            let lp = train_loss(&mut model, &x, &y);
            params[idx] = orig - h;
            model.set_params_flat(&params);
            let lm = train_loss(&mut model, &x, &y);
            params[idx] = orig;
            model.set_params_flat(&params);
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - grads[idx]).abs() < 0.02 + 0.05 * grads[idx].abs(),
                "idx={idx} fd={fd} an={}",
                grads[idx]
            );
        }
    }

    #[test]
    fn training_reduces_loss() {
        let (mut model, mut rng) = tiny();
        let x = Tensor4::randn(16, 3, 8, 8, 1.0, &mut rng);
        let y: Vec<usize> = (0..16).map(|i| i % 4).collect();
        // Evaluate in train-mode forward to use batch statistics.
        let logits0 = model.forward(&x, false);
        let before = softmax_cross_entropy(&logits0, &y).loss;
        let _ = Matrix::zeros(1, 1);
        for _ in 0..8 {
            model.zero_grad();
            let _ = model.forward_backward(&x, &y);
            let grads = model.grads_flat();
            let mut params = model.params_flat();
            for (p, g) in params.iter_mut().zip(&grads) {
                *p -= 0.1 * g;
            }
            model.set_params_flat(&params);
        }
        let logits1 = model.forward(&x, false);
        let after = softmax_cross_entropy(&logits1, &y).loss;
        assert!(after < before, "loss {before} -> {after}");
    }
}
