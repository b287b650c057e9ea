//! Weight initializers.
//!
//! These follow the initializations the paper's reference implementations
//! use: Kaiming/He for ReLU convolutional stacks (ResNet, U-Net), Xavier for
//! linear classifier heads and transformer blocks.

use crate::{Matrix, Rng};

/// Xavier/Glorot uniform initializer for a `fan_out x fan_in` weight matrix.
pub fn xavier_uniform(fan_out: usize, fan_in: usize, rng: &mut Rng) -> Matrix {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Matrix::from_fn(fan_out, fan_in, |_, _| rng.uniform(-limit, limit))
}

/// Kaiming/He normal initializer for ReLU networks.
pub fn kaiming_normal(fan_out: usize, fan_in: usize, rng: &mut Rng) -> Matrix {
    let std = (2.0 / fan_in as f32).sqrt();
    Matrix::randn(fan_out, fan_in, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_within_limit() {
        let mut rng = Rng::seed_from_u64(1);
        let w = xavier_uniform(64, 32, &mut rng);
        let limit = (6.0 / 96.0f32).sqrt();
        assert!(w.max_abs() <= limit);
        assert!(w.max_abs() > limit * 0.5, "should use most of the range");
    }

    #[test]
    fn kaiming_std_close_to_theory() {
        let mut rng = Rng::seed_from_u64(2);
        let fan_in = 256;
        let w = kaiming_normal(256, fan_in, &mut rng);
        let mean = w.mean();
        let var = w.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / w.numel() as f32;
        let expected = 2.0 / fan_in as f32;
        assert!((var - expected).abs() / expected < 0.1, "var={var} expected={expected}");
    }
}
