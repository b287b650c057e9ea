//! Activation layers with cached backward state.

use kaisa_tensor::{ops, Matrix, Tensor4};

/// ReLU over matrices (MLP/transformer paths).
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// New ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward; caches the activation mask when `train` is set.
    pub fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let mut out = x.clone();
        if train {
            self.mask = Some(x.as_slice().iter().map(|&v| v > 0.0).collect());
        }
        out.map_inplace(|v| if v > 0.0 { v } else { 0.0 });
        out
    }

    /// Backward through the cached mask.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mask = self.mask.take().expect("Relu backward without forward");
        assert_eq!(mask.len(), grad_out.numel());
        let mut g = grad_out.clone();
        for (v, &m) in g.as_mut_slice().iter_mut().zip(&mask) {
            if !m {
                *v = 0.0;
            }
        }
        g
    }
}

/// ReLU over NCHW tensors (convolutional paths).
#[derive(Debug, Clone, Default)]
pub struct Relu2d {
    mask: Option<Vec<bool>>,
}

impl Relu2d {
    /// New ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward; caches the activation mask when `train` is set.
    pub fn forward(&mut self, x: &Tensor4, train: bool) -> Tensor4 {
        let (n, c, h, w) = x.shape();
        if train {
            self.mask = Some(x.as_slice().iter().map(|&v| v > 0.0).collect());
        }
        let out = x.as_slice().iter().map(|&v| if v > 0.0 { v } else { 0.0 }).collect();
        Tensor4::from_vec(n, c, h, w, out)
    }

    /// Backward through the cached mask.
    pub fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let mask = self.mask.take().expect("Relu2d backward without forward");
        assert_eq!(mask.len(), grad_out.numel(), "Relu2d backward shape mismatch");
        let (n, c, h, w) = grad_out.shape();
        let g = grad_out.as_slice().iter().zip(&mask);
        Tensor4::from_vec(n, c, h, w, g.map(|(&g, &m)| if m { g } else { 0.0 }).collect())
    }
}

/// GELU (tanh approximation) over matrices — the transformer FFN activation.
#[derive(Debug, Clone, Default)]
pub struct Gelu {
    /// The input and `tanh(gelu_inner(input))`.
    cache: Option<(Matrix, Matrix)>,
}

impl Gelu {
    /// New GELU layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward; caches the input and its `tanh` when `train` is set, so the
    /// backward pass evaluates no transcendental.
    pub fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let mut t = x.map(ops::gelu_inner);
        ops::tanh_slice(t.as_mut_slice());
        let out = x.as_slice().iter().zip(t.as_slice());
        let out = out.map(|(&xv, &tv)| ops::gelu_from_tanh(xv, tv)).collect();
        if train {
            self.cache = Some((x.clone(), t));
        }
        Matrix::from_vec(x.rows(), x.cols(), out)
    }

    /// Backward using the cached input and `tanh`.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let (x, t) = self.cache.take().expect("Gelu backward without forward");
        assert_eq!(grad_out.shape(), x.shape(), "Gelu backward shape mismatch");
        let dx = grad_out.as_slice().iter().zip(x.as_slice()).zip(t.as_slice());
        let dx = dx.map(|((&g, &xv), &tv)| g * ops::gelu_grad_from_tanh(xv, tv)).collect();
        Matrix::from_vec(x.rows(), x.cols(), dx)
    }
}

/// Sigmoid over NCHW tensors (segmentation output).
#[derive(Debug, Clone, Default)]
pub struct Sigmoid2d {
    output: Option<Tensor4>,
}

impl Sigmoid2d {
    /// New sigmoid layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward; caches the output (sigmoid' = y(1-y)) when `train` is set.
    pub fn forward(&mut self, x: &Tensor4, train: bool) -> Tensor4 {
        let mut out = x.clone();
        out.map_inplace(|v| 1.0 / (1.0 + (-v).exp()));
        if train {
            self.output = Some(out.clone());
        }
        out
    }

    /// Backward using the cached output.
    pub fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let y = self.output.take().expect("Sigmoid2d backward without forward");
        let mut g = grad_out.clone();
        for (gv, yv) in g.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *gv *= yv * (1.0 - yv);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaisa_tensor::Rng;

    #[test]
    fn relu_forward_backward() {
        let mut relu = Relu::new();
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        let y = relu.forward(&x, true);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let g = Matrix::full(1, 4, 1.0);
        let dx = relu.backward(&g);
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn relu2d_matches_clone_and_mask_oracle_bitwise() {
        // Oracle: Relu2d as it was — clone, mask, overwrite in place.
        let mut rng = Rng::seed_from_u64(93);
        for (n, c, h, w) in [(1, 1, 1, 1), (2, 3, 1, 1), (1, 4, 5, 3), (3, 2, 4, 4)] {
            let mut x = Tensor4::randn(n, c, h, w, 1.0, &mut rng);
            x.as_mut_slice()[0] = -0.0;
            if x.numel() > 2 {
                x.as_mut_slice()[1] = f32::NAN;
                x.as_mut_slice()[2] = 0.0;
            }
            let g = Tensor4::randn(n, c, h, w, 1.0, &mut rng);

            let mut want_y = x.clone();
            let mask: Vec<bool> = x.as_slice().iter().map(|&v| v > 0.0).collect();
            want_y.map_inplace(|v| if v > 0.0 { v } else { 0.0 });
            let mut want_dx = g.clone();
            for (v, &m) in want_dx.as_mut_slice().iter_mut().zip(&mask) {
                if !m {
                    *v = 0.0;
                }
            }

            let mut relu = Relu2d::new();
            let bits = |t: &Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&relu.forward(&x, true)), bits(&want_y));
            assert_eq!(bits(&relu.backward(&g)), bits(&want_dx));
        }
    }

    #[test]
    fn gelu_layer_is_the_scalar_functions_bit_for_bit() {
        // The slice path (AVX2 tanh, cached for backward) and the scalar
        // definitions must agree exactly, ragged tail included.
        let mut rng = Rng::seed_from_u64(94);
        let x = Matrix::randn(7, 13, 2.5, &mut rng);
        let g = Matrix::randn(7, 13, 1.0, &mut rng);
        let mut gelu = Gelu::new();
        let y = gelu.forward(&x, true);
        let dx = gelu.backward(&g);
        for i in 0..x.numel() {
            let (xv, gv) = (x.as_slice()[i], g.as_slice()[i]);
            assert_eq!(y.as_slice()[i].to_bits(), ops::gelu_scalar(xv).to_bits());
            assert_eq!(dx.as_slice()[i].to_bits(), (gv * ops::gelu_grad_scalar(xv)).to_bits());
        }
    }

    #[test]
    fn gelu_backward_matches_finite_difference() {
        let mut rng = Rng::seed_from_u64(91);
        let x = Matrix::randn(3, 5, 1.0, &mut rng);
        let mut gelu = Gelu::new();
        let _ = gelu.forward(&x, true);
        let ones = Matrix::full(3, 5, 1.0);
        let dx = gelu.backward(&ones);
        let h = 1e-3;
        for &(r, c) in &[(0usize, 0usize), (2, 4)] {
            let mut xp = x.clone();
            xp.set(r, c, x.get(r, c) + h);
            let mut xm = x.clone();
            xm.set(r, c, x.get(r, c) - h);
            let mut g2 = Gelu::new();
            let fp = g2.forward(&xp, false).sum();
            let fm = g2.forward(&xm, false).sum();
            let fd = (fp - fm) / (2.0 * h);
            assert!((fd - dx.get(r, c)).abs() < 1e-2);
        }
    }

    #[test]
    fn sigmoid_range_and_grad() {
        let mut rng = Rng::seed_from_u64(92);
        let x = Tensor4::randn(1, 1, 2, 2, 3.0, &mut rng);
        let mut sig = Sigmoid2d::new();
        let y = sig.forward(&x, true);
        for &v in y.as_slice() {
            assert!(v > 0.0 && v < 1.0);
        }
        let g = Tensor4::from_vec(1, 1, 2, 2, vec![1.0; 4]);
        let dx = sig.backward(&g);
        // sigmoid' peaks at 0.25.
        for &v in dx.as_slice() {
            assert!(v > 0.0 && v <= 0.25 + 1e-6);
        }
    }
}
