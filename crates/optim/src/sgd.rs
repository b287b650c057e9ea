//! Momentum SGD (the ResNet-50 and Mask R-CNN baseline optimizer).

use kaisa_nn::ParamSegment;

use crate::Optimizer;

/// Stochastic gradient descent with heavy-ball momentum and L2 weight
/// decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    /// L2 weight-decay coefficient (applied to the gradient, PyTorch-style).
    pub weight_decay: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new() -> Self {
        Sgd { momentum: 0.0, weight_decay: 0.0, velocity: Vec::new() }
    }

    /// Momentum SGD, the paper's ResNet baseline configuration.
    pub fn with_momentum(momentum: f32) -> Self {
        Sgd { momentum, weight_decay: 0.0, velocity: Vec::new() }
    }

    /// Set weight decay (builder style).
    pub fn weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// The momentum velocity buffer — empty until the first momentum step
    /// (plain SGD never allocates one). Exposed so checkpoint/restore can
    /// carry optimizer state across a pause.
    pub fn velocity(&self) -> &[f32] {
        &self.velocity
    }

    /// Restore a velocity buffer captured by [`Sgd::velocity`]. An empty
    /// vector resets to the pre-first-step state; otherwise the length must
    /// match the parameter count of the model this optimizer will step.
    pub fn set_velocity(&mut self, velocity: Vec<f32>) {
        self.velocity = velocity;
    }
}

impl Default for Sgd {
    fn default() -> Self {
        Self::new()
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grads: &[f32], _segments: &[ParamSegment], lr: f32) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if self.momentum == 0.0 {
            for (p, &g) in params.iter_mut().zip(grads) {
                let g = g + self.weight_decay * *p;
                *p -= lr * g;
            }
            return;
        }
        if self.velocity.len() != params.len() {
            self.velocity = vec![0.0; params.len()];
        }
        for ((p, &g), v) in params.iter_mut().zip(grads).zip(self.velocity.iter_mut()) {
            let g = g + self.weight_decay * *p;
            *v = self.momentum * *v + g;
            *p -= lr * *v;
        }
    }

    fn state_bytes_per_param(&self) -> usize {
        if self.momentum == 0.0 {
            0
        } else {
            4
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_step() {
        let mut opt = Sgd::new();
        let mut p = vec![1.0, 2.0];
        opt.step(&mut p, &[0.5, -0.5], &[], 0.1);
        assert_eq!(p, vec![0.95, 2.05]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Sgd::with_momentum(0.9);
        let mut p = vec![0.0];
        opt.step(&mut p, &[1.0], &[], 1.0);
        assert!((p[0] - (-1.0)).abs() < 1e-6);
        opt.step(&mut p, &[1.0], &[], 1.0);
        // v = 0.9*1 + 1 = 1.9; p = -1 - 1.9 = -2.9
        assert!((p[0] - (-2.9)).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_pulls_to_zero() {
        let mut opt = Sgd::new().weight_decay(0.1);
        let mut p = vec![10.0];
        opt.step(&mut p, &[0.0], &[], 1.0);
        assert!((p[0] - 9.0).abs() < 1e-6);
    }

    #[test]
    fn converges_on_quadratic() {
        // f(p) = (p-3)²/2, grad = p-3.
        let mut opt = Sgd::with_momentum(0.9);
        let mut p = vec![0.0];
        for _ in 0..200 {
            let g = vec![p[0] - 3.0];
            opt.step(&mut p, &g, &[], 0.05);
        }
        assert!((p[0] - 3.0).abs() < 1e-3, "p={}", p[0]);
    }
}
