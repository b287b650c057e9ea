//! Fully-connected layer with explicit backward and K-FAC capture.

use kaisa_tensor::{init, Matrix, Rng};

use crate::capture::{KfacAble, KfacCapture};

/// A dense layer `y = x Wᵀ + b` with weight shape `(out, in)`.
#[derive(Debug, Clone)]
pub struct Linear {
    name: String,
    /// Weight matrix, `(out_features, in_features)`.
    pub weight: Matrix,
    /// Optional bias, length `out_features`.
    pub bias: Option<Vec<f32>>,
    /// Gradient of the weight (accumulated across backward calls).
    pub grad_weight: Matrix,
    /// Gradient of the bias.
    pub grad_bias: Option<Vec<f32>>,
    /// K-FAC capture state.
    pub kfac: KfacCapture,
    input_cache: Option<Matrix>,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        bias: bool,
        rng: &mut Rng,
    ) -> Self {
        Linear {
            name: name.into(),
            weight: init::xavier_uniform(out_features, in_features, rng),
            bias: bias.then(|| vec![0.0; out_features]),
            grad_weight: Matrix::zeros(out_features, in_features),
            grad_bias: bias.then(|| vec![0.0; out_features]),
            kfac: KfacCapture::new(in_features + usize::from(bias), out_features),
            input_cache: None,
        }
    }

    /// Kaiming-initialized layer (for ReLU stacks).
    pub fn new_kaiming(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        bias: bool,
        rng: &mut Rng,
    ) -> Self {
        let mut l = Self::new(name, in_features, out_features, bias, rng);
        l.weight = init::kaiming_normal(out_features, in_features, rng);
        l
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.cols()
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.rows()
    }

    /// Forward pass. `x` is `(batch, in)`; returns `(batch, out)`.
    ///
    /// When `train` is set, the input is cached for the backward pass and,
    /// if capture is enabled, the K-FAC `A` statistic is recorded (with the
    /// ones column appended when the layer has a bias, folding the bias into
    /// the factor as in `kfac_pytorch`).
    pub fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        assert_eq!(x.cols(), self.in_features(), "{}: input width mismatch", self.name);
        let mut out = x.matmul_nt(&self.weight);
        if let Some(b) = &self.bias {
            for r in 0..out.rows() {
                let row = out.row_mut(r);
                for (v, bi) in row.iter_mut().zip(b) {
                    *v += *bi;
                }
            }
        }
        if train {
            if self.kfac.enabled {
                let n = x.rows();
                if self.bias.is_some() {
                    let aug = x.append_ones_column();
                    self.kfac.record_forward(&aug, n);
                } else {
                    self.kfac.record_forward(x, n);
                }
            }
            self.input_cache = Some(x.clone());
        }
        out
    }

    /// Backward pass. `grad_out` is `(batch, out)` (gradients of the mean
    /// loss). Accumulates parameter gradients and returns the input gradient
    /// `(batch, in)`.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self
            .input_cache
            .take()
            .unwrap_or_else(|| panic!("{}: backward without forward", self.name));
        assert_eq!(grad_out.rows(), x.rows(), "{}: batch mismatch", self.name);
        assert_eq!(grad_out.cols(), self.out_features(), "{}: grad width mismatch", self.name);

        if self.kfac.enabled {
            self.kfac.record_backward(grad_out, grad_out.rows());
        }

        // dW += gᵀ x
        let dw = grad_out.matmul_tn(&x);
        self.grad_weight.add_assign(&dw);
        if let Some(db) = &mut self.grad_bias {
            for r in 0..grad_out.rows() {
                for (dbi, gi) in db.iter_mut().zip(grad_out.row(r)) {
                    *dbi += *gi;
                }
            }
        }
        // dx = g W
        grad_out.matmul(&self.weight)
    }

    /// Zero the parameter gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weight.fill_zero();
        if let Some(db) = &mut self.grad_bias {
            db.iter_mut().for_each(|v| *v = 0.0);
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weight.numel() + self.bias.as_ref().map_or(0, |b| b.len())
    }
}

impl KfacAble for Linear {
    fn layer_name(&self) -> &str {
        &self.name
    }

    fn a_dim(&self) -> usize {
        self.in_features() + usize::from(self.bias.is_some())
    }

    fn g_dim(&self) -> usize {
        self.out_features()
    }

    fn capture_mut(&mut self) -> &mut KfacCapture {
        &mut self.kfac
    }

    #[allow(clippy::needless_range_loop)]
    fn combined_grad(&self) -> Matrix {
        match &self.grad_bias {
            None => self.grad_weight.clone(),
            Some(db) => {
                let (out, inp) = self.grad_weight.shape();
                let mut m = Matrix::zeros(out, inp + 1);
                for r in 0..out {
                    m.row_mut(r)[..inp].copy_from_slice(self.grad_weight.row(r));
                    m.row_mut(r)[inp] = db[r];
                }
                m
            }
        }
    }

    #[allow(clippy::needless_range_loop)]
    fn set_combined_grad(&mut self, grad: &Matrix) {
        let (out, inp) = self.grad_weight.shape();
        assert_eq!(grad.rows(), out, "{}: combined grad rows", self.name);
        match &mut self.grad_bias {
            None => {
                assert_eq!(grad.cols(), inp);
                self.grad_weight = grad.clone();
            }
            Some(db) => {
                assert_eq!(grad.cols(), inp + 1);
                for r in 0..out {
                    self.grad_weight.row_mut(r).copy_from_slice(&grad.row(r)[..inp]);
                    db[r] = grad.row(r)[inp];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check(bias: bool) {
        // Scalar loss L = sum(forward(x)); check dW and dx by central
        // differences.
        let mut rng = Rng::seed_from_u64(71);
        let mut layer = Linear::new("fd", 4, 3, bias, &mut rng);
        let x = Matrix::randn(5, 4, 1.0, &mut rng);

        let loss = |l: &mut Linear, x: &Matrix| -> f32 { l.forward(x, false).sum() };

        // Analytic: dL/dout is all-ones.
        layer.zero_grad();
        let _ = layer.forward(&x, true);
        let ones = Matrix::full(5, 3, 1.0);
        let dx = layer.backward(&ones);

        let h = 1e-3;
        // Weight gradient.
        for &(r, c) in &[(0usize, 0usize), (1, 2), (2, 3)] {
            let orig = layer.weight.get(r, c);
            layer.weight.set(r, c, orig + h);
            let lp = loss(&mut layer, &x);
            layer.weight.set(r, c, orig - h);
            let lm = loss(&mut layer, &x);
            layer.weight.set(r, c, orig);
            let fd = (lp - lm) / (2.0 * h);
            let an = layer.grad_weight.get(r, c);
            assert!((fd - an).abs() < 1e-2, "dW[{r},{c}] fd={fd} an={an}");
        }
        // Input gradient.
        let mut x2 = x.clone();
        for &(r, c) in &[(0usize, 0usize), (4, 3)] {
            let orig = x2.get(r, c);
            x2.set(r, c, orig + h);
            let lp = loss(&mut layer, &x2);
            x2.set(r, c, orig - h);
            let lm = loss(&mut layer, &x2);
            x2.set(r, c, orig);
            let fd = (lp - lm) / (2.0 * h);
            let an = dx.get(r, c);
            assert!((fd - an).abs() < 1e-2, "dx[{r},{c}] fd={fd} an={an}");
        }
        // Bias gradient: dL/db_j = batch size.
        if bias {
            for g in layer.grad_bias.as_ref().unwrap() {
                assert!((g - 5.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences_with_bias() {
        finite_diff_check(true);
    }

    #[test]
    fn gradients_match_finite_differences_without_bias() {
        finite_diff_check(false);
    }

    #[test]
    fn forward_known_values() {
        let mut rng = Rng::seed_from_u64(72);
        let mut layer = Linear::new("k", 2, 2, true, &mut rng);
        layer.weight = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        layer.bias = Some(vec![10., 20.]);
        let x = Matrix::from_vec(1, 2, vec![1., 1.]);
        let y = layer.forward(&x, false);
        assert_eq!(y.as_slice(), &[13.0, 27.0]);
    }

    #[test]
    fn combined_grad_roundtrip() {
        let mut rng = Rng::seed_from_u64(73);
        let mut layer = Linear::new("cg", 3, 2, true, &mut rng);
        layer.grad_weight = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        layer.grad_bias = Some(vec![7., 8.]);
        let combined = layer.combined_grad();
        assert_eq!(combined.shape(), (2, 4));
        assert_eq!(combined.row(0), &[1., 2., 3., 7.]);
        let mut scaled = combined.clone();
        scaled.scale(2.0);
        layer.set_combined_grad(&scaled);
        assert_eq!(layer.grad_weight.row(1), &[8., 10., 12.]);
        assert_eq!(layer.grad_bias.as_ref().unwrap(), &vec![14., 16.]);
    }

    #[test]
    fn kfac_dims_account_for_bias() {
        let mut rng = Rng::seed_from_u64(74);
        let with_bias = Linear::new("b", 5, 3, true, &mut rng);
        let without = Linear::new("nb", 5, 3, false, &mut rng);
        assert_eq!(with_bias.a_dim(), 6);
        assert_eq!(without.a_dim(), 5);
        assert_eq!(with_bias.g_dim(), 3);
    }

    #[test]
    fn capture_shapes_match_dims() {
        let mut rng = Rng::seed_from_u64(75);
        let mut layer = Linear::new("cap", 4, 2, true, &mut rng);
        layer.kfac.enabled = true;
        let x = Matrix::randn(6, 4, 1.0, &mut rng);
        let y = layer.forward(&x, true);
        let g = Matrix::full(y.rows(), y.cols(), 0.1);
        let _ = layer.backward(&g);
        let (a_stat, g_stat) = layer.kfac.take_stats().unwrap().mirrored();
        assert_eq!(a_stat.shape(), (5, 5));
        assert_eq!(g_stat.shape(), (2, 2));
        // Bias augmentation: bottom-right of A is E[1·1] = 1.
        assert!((a_stat.get(4, 4) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn backward_accumulates_across_microbatches() {
        let mut rng = Rng::seed_from_u64(76);
        let mut layer = Linear::new("acc", 3, 2, false, &mut rng);
        let x = Matrix::randn(4, 3, 1.0, &mut rng);
        let g = Matrix::full(4, 2, 1.0);
        layer.zero_grad();
        let _ = layer.forward(&x, true);
        let _ = layer.backward(&g);
        let one_pass = layer.grad_weight.clone();
        let _ = layer.forward(&x, true);
        let _ = layer.backward(&g);
        assert!(layer.grad_weight.max_abs_diff(&one_pass.scaled(2.0)) < 1e-5);
    }
}
