//! Normalization layers: BatchNorm2d (ResNet/U-Net) and LayerNorm (BERT).
//!
//! Following the paper, normalization parameters are *not* K-FAC
//! preconditioned — only Conv2d and Linear layers are (Section 3.4) — so
//! these layers expose plain parameter/gradient vectors for the first-order
//! optimizer.

use kaisa_tensor::{Matrix, Tensor4};

/// Per-channel batch normalization over NCHW tensors.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    /// Scale γ, one per channel.
    pub gamma: Vec<f32>,
    /// Shift β, one per channel.
    pub beta: Vec<f32>,
    /// Gradient of γ.
    pub grad_gamma: Vec<f32>,
    /// Gradient of β.
    pub grad_beta: Vec<f32>,
    /// Running mean for evaluation mode.
    pub running_mean: Vec<f32>,
    /// Running variance for evaluation mode.
    pub running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor4,
    inv_std: Vec<f32>,
}

/// The contiguous `(image, channel)` planes of an NCHW buffer, in storage
/// order: plane `p` belongs to channel `p % c`. Every per-channel reduction
/// below visits a channel's planes image by image and each plane row by
/// row, so its `f64` sum is taken in image → row → column order.
fn plane_len(t: &Tensor4) -> usize {
    (t.h() * t.w()).max(1)
}

impl BatchNorm2d {
    /// New batch-norm layer over `channels` channels.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: vec![1.0; channels],
            beta: vec![0.0; channels],
            grad_gamma: vec![0.0; channels],
            grad_beta: vec![0.0; channels],
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.gamma.len()
    }

    /// Forward pass. In training mode uses batch statistics and updates the
    /// running averages; in eval mode uses the running statistics.
    pub fn forward(&mut self, x: &Tensor4, train: bool) -> Tensor4 {
        let (n, c, h, w) = x.shape();
        assert_eq!(c, self.channels(), "BatchNorm2d channel mismatch");
        let m = (n * h * w) as f32;
        let hw = plane_len(x);

        let (mean, var) = if train {
            let mut mean = vec![0.0f64; c];
            for (p, plane) in x.as_slice().chunks_exact(hw).enumerate() {
                mean[p % c] = plane.iter().fold(mean[p % c], |s, &v| s + v as f64);
            }
            for v in mean.iter_mut() {
                *v /= m as f64;
            }
            let mut var = vec![0.0f64; c];
            for (p, plane) in x.as_slice().chunks_exact(hw).enumerate() {
                let mu = mean[p % c];
                var[p % c] = plane.iter().fold(var[p % c], |s, &v| {
                    let d = v as f64 - mu;
                    s + d * d
                });
            }
            for v in var.iter_mut() {
                *v /= m as f64;
            }
            for ch in 0..c {
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean[ch] as f32;
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var[ch] as f32;
            }
            (
                mean.iter().map(|&v| v as f32).collect::<Vec<_>>(),
                var.iter().map(|&v| v as f32).collect::<Vec<_>>(),
            )
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut out = Tensor4::zeros(n, c, h, w);
        let mut x_hat = Tensor4::zeros(n, c, h, w);
        let planes = x.as_slice().chunks_exact(hw);
        let planes = planes.zip(x_hat.as_mut_slice().chunks_exact_mut(hw));
        for (p, ((xp, hp), op)) in planes.zip(out.as_mut_slice().chunks_exact_mut(hw)).enumerate() {
            let ch = p % c;
            let (mu, is, g, b) = (mean[ch], inv_std[ch], self.gamma[ch], self.beta[ch]);
            for ((&xv, hv), ov) in xp.iter().zip(hp).zip(op) {
                let xh = (xv - mu) * is;
                *hv = xh;
                *ov = g * xh + b;
            }
        }
        if train {
            self.cache = Some(BnCache { x_hat, inv_std });
        }
        out
    }

    /// Backward pass using the cached batch statistics.
    pub fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let cache = self.cache.take().expect("BatchNorm2d backward without forward");
        let (n, c, h, w) = grad_out.shape();
        assert_eq!(cache.x_hat.shape(), grad_out.shape(), "BatchNorm2d grad shape mismatch");
        let m = (n * h * w) as f32;
        let hw = plane_len(grad_out);

        // dγ, dβ and the per-channel reductions the dx formula needs.
        let mut sum_dy = vec![0.0f64; c];
        let mut sum_dy_xhat = vec![0.0f64; c];
        let planes = grad_out.as_slice().chunks_exact(hw);
        for (p, (dyp, hp)) in planes.zip(cache.x_hat.as_slice().chunks_exact(hw)).enumerate() {
            let (mut s, mut sx) = (sum_dy[p % c], sum_dy_xhat[p % c]);
            for (&dy, &xh) in dyp.iter().zip(hp) {
                s += dy as f64;
                sx += dy as f64 * xh as f64;
            }
            (sum_dy[p % c], sum_dy_xhat[p % c]) = (s, sx);
        }
        for ch in 0..c {
            self.grad_gamma[ch] += sum_dy_xhat[ch] as f32;
            self.grad_beta[ch] += sum_dy[ch] as f32;
        }

        // dx = (γ/σ) [dy - mean(dy) - x̂ mean(dy·x̂)]
        let mut dx = Tensor4::zeros(n, c, h, w);
        let planes = grad_out.as_slice().chunks_exact(hw);
        let planes = planes.zip(cache.x_hat.as_slice().chunks_exact(hw));
        for (p, ((dyp, hp), dxp)) in planes.zip(dx.as_mut_slice().chunks_exact_mut(hw)).enumerate()
        {
            let ch = p % c;
            let k = self.gamma[ch] * cache.inv_std[ch];
            let mean_dy = sum_dy[ch] as f32 / m;
            let mean_dy_xhat = sum_dy_xhat[ch] as f32 / m;
            for ((&dy, &xh), dxv) in dyp.iter().zip(hp).zip(dxp) {
                *dxv = k * (dy - mean_dy - xh * mean_dy_xhat);
            }
        }
        dx
    }

    /// Zero the parameter gradients.
    pub fn zero_grad(&mut self) {
        self.grad_gamma.iter_mut().for_each(|v| *v = 0.0);
        self.grad_beta.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// Layer normalization over the last dimension of a `(rows, features)`
/// matrix (the transformer residual-stream normalization).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Scale γ, one per feature.
    pub gamma: Vec<f32>,
    /// Shift β, one per feature.
    pub beta: Vec<f32>,
    /// Gradient of γ.
    pub grad_gamma: Vec<f32>,
    /// Gradient of β.
    pub grad_beta: Vec<f32>,
    eps: f32,
    cache: Option<(Matrix, Vec<f32>)>, // (x_hat, inv_std per row)
}

impl LayerNorm {
    /// New layer-norm over `features` features.
    pub fn new(features: usize) -> Self {
        LayerNorm {
            gamma: vec![1.0; features],
            beta: vec![0.0; features],
            grad_gamma: vec![0.0; features],
            grad_beta: vec![0.0; features],
            eps: 1e-5,
            cache: None,
        }
    }

    /// Feature count.
    pub fn features(&self) -> usize {
        self.gamma.len()
    }

    /// Forward pass.
    #[allow(clippy::needless_range_loop)]
    pub fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let (rows, d) = x.shape();
        assert_eq!(d, self.features(), "LayerNorm feature mismatch");
        let mut out = Matrix::zeros(rows, d);
        let mut x_hat = Matrix::zeros(rows, d);
        let mut inv_stds = vec![0.0f32; rows];
        for r in 0..rows {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / d as f32;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds[r] = inv_std;
            for (col, &v) in row.iter().enumerate() {
                let xh = (v - mean) * inv_std;
                x_hat.set(r, col, xh);
                out.set(r, col, self.gamma[col] * xh + self.beta[col]);
            }
        }
        if train {
            self.cache = Some((x_hat, inv_stds));
        }
        out
    }

    /// Backward pass.
    #[allow(clippy::needless_range_loop)]
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let (x_hat, inv_stds) = self.cache.take().expect("LayerNorm backward without forward");
        let (rows, d) = grad_out.shape();
        let mut dx = Matrix::zeros(rows, d);
        for r in 0..rows {
            let dy = grad_out.row(r);
            let xh = x_hat.row(r);
            let mut sum_dyg = 0.0f32;
            let mut sum_dyg_xh = 0.0f32;
            for col in 0..d {
                let dyg = dy[col] * self.gamma[col];
                sum_dyg += dyg;
                sum_dyg_xh += dyg * xh[col];
                self.grad_gamma[col] += dy[col] * xh[col];
                self.grad_beta[col] += dy[col];
            }
            let mean_dyg = sum_dyg / d as f32;
            let mean_dyg_xh = sum_dyg_xh / d as f32;
            for col in 0..d {
                let dyg = dy[col] * self.gamma[col];
                dx.set(r, col, inv_stds[r] * (dyg - mean_dyg - xh[col] * mean_dyg_xh));
            }
        }
        dx
    }

    /// Zero the parameter gradients.
    pub fn zero_grad(&mut self) {
        self.grad_gamma.iter_mut().for_each(|v| *v = 0.0);
        self.grad_beta.iter_mut().for_each(|v| *v = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaisa_tensor::Rng;
    use proptest::prelude::*;

    // ---- Oracle: BatchNorm2d as it was before the plane walk, one
    // bounds-checked 4-index `get`/`set` per element. ----

    #[allow(clippy::needless_range_loop)]
    fn oracle_forward(bn: &mut BatchNorm2d, x: &Tensor4, train: bool) -> Tensor4 {
        let (n, c, h, w) = x.shape();
        let m = (n * h * w) as f32;
        let (mean, var) = if train {
            let mut mean = vec![0.0f64; c];
            let mut var = vec![0.0f64; c];
            for img in 0..n {
                for ch in 0..c {
                    for y in 0..h {
                        for xx in 0..w {
                            mean[ch] += x.get(img, ch, y, xx) as f64;
                        }
                    }
                }
            }
            for v in mean.iter_mut() {
                *v /= m as f64;
            }
            for img in 0..n {
                for ch in 0..c {
                    for y in 0..h {
                        for xx in 0..w {
                            let d = x.get(img, ch, y, xx) as f64 - mean[ch];
                            var[ch] += d * d;
                        }
                    }
                }
            }
            for v in var.iter_mut() {
                *v /= m as f64;
            }
            for ch in 0..c {
                bn.running_mean[ch] =
                    (1.0 - bn.momentum) * bn.running_mean[ch] + bn.momentum * mean[ch] as f32;
                bn.running_var[ch] =
                    (1.0 - bn.momentum) * bn.running_var[ch] + bn.momentum * var[ch] as f32;
            }
            (
                mean.iter().map(|&v| v as f32).collect::<Vec<_>>(),
                var.iter().map(|&v| v as f32).collect::<Vec<_>>(),
            )
        } else {
            (bn.running_mean.clone(), bn.running_var.clone())
        };
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + bn.eps).sqrt()).collect();
        let mut out = Tensor4::zeros(n, c, h, w);
        let mut x_hat = Tensor4::zeros(n, c, h, w);
        for img in 0..n {
            for ch in 0..c {
                for y in 0..h {
                    for xx in 0..w {
                        let cen = x.get(img, ch, y, xx) - mean[ch];
                        let xh = cen * inv_std[ch];
                        x_hat.set(img, ch, y, xx, xh);
                        out.set(img, ch, y, xx, bn.gamma[ch] * xh + bn.beta[ch]);
                    }
                }
            }
        }
        if train {
            bn.cache = Some(BnCache { x_hat, inv_std });
        }
        out
    }

    fn oracle_backward(bn: &mut BatchNorm2d, grad_out: &Tensor4) -> Tensor4 {
        let cache = bn.cache.take().expect("BatchNorm2d backward without forward");
        let (n, c, h, w) = grad_out.shape();
        let m = (n * h * w) as f32;
        let mut sum_dy = vec![0.0f64; c];
        let mut sum_dy_xhat = vec![0.0f64; c];
        for img in 0..n {
            for ch in 0..c {
                for y in 0..h {
                    for xx in 0..w {
                        let dy = grad_out.get(img, ch, y, xx) as f64;
                        sum_dy[ch] += dy;
                        sum_dy_xhat[ch] += dy * cache.x_hat.get(img, ch, y, xx) as f64;
                    }
                }
            }
        }
        for ch in 0..c {
            bn.grad_gamma[ch] += sum_dy_xhat[ch] as f32;
            bn.grad_beta[ch] += sum_dy[ch] as f32;
        }
        let mut dx = Tensor4::zeros(n, c, h, w);
        for img in 0..n {
            for ch in 0..c {
                let k = bn.gamma[ch] * cache.inv_std[ch];
                let mean_dy = sum_dy[ch] as f32 / m;
                let mean_dy_xhat = sum_dy_xhat[ch] as f32 / m;
                for y in 0..h {
                    for xx in 0..w {
                        let dy = grad_out.get(img, ch, y, xx);
                        let xh = cache.x_hat.get(img, ch, y, xx);
                        dx.set(img, ch, y, xx, k * (dy - mean_dy - xh * mean_dy_xhat));
                    }
                }
            }
        }
        dx
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Two training steps and one eval pass over random `(n, c, h, w)` —
        /// `h·w = 1` and `n = 1` included — leave outputs, input gradients,
        /// parameter gradients, running statistics and the cached `x̂` bit
        /// for bit what the 4-index loops produce.
        #[test]
        fn plane_walk_matches_four_index_oracle_bitwise(
            n in 1usize..5, c in 1usize..6, h in 1usize..7, w in 1usize..7, seed in any::<u64>(),
        ) {
            let mut rng = Rng::seed_from_u64(seed);
            let mut bn = BatchNorm2d::new(c);
            bn.gamma = (0..c).map(|_| 1.0 + 0.3 * rng.normal()).collect();
            bn.beta = (0..c).map(|_| 0.2 * rng.normal()).collect();
            let mut oracle = bn.clone();
            for _ in 0..2 {
                let x = Tensor4::randn(n, c, h, w, 2.0, &mut rng);
                let dy = Tensor4::randn(n, c, h, w, 0.5, &mut rng);
                let (y, y_o) = (bn.forward(&x, true), oracle_forward(&mut oracle, &x, true));
                prop_assert_eq!(bits(y.as_slice()), bits(y_o.as_slice()));
                let (cache, cache_o) = (bn.cache.as_ref().unwrap(), oracle.cache.as_ref().unwrap());
                prop_assert_eq!(bits(cache.x_hat.as_slice()), bits(cache_o.x_hat.as_slice()));
                prop_assert_eq!(bits(&cache.inv_std), bits(&cache_o.inv_std));
                let (dx, dx_o) = (bn.backward(&dy), oracle_backward(&mut oracle, &dy));
                prop_assert_eq!(bits(dx.as_slice()), bits(dx_o.as_slice()));
                prop_assert_eq!(bits(&bn.grad_gamma), bits(&oracle.grad_gamma));
                prop_assert_eq!(bits(&bn.grad_beta), bits(&oracle.grad_beta));
                prop_assert_eq!(bits(&bn.running_mean), bits(&oracle.running_mean));
                prop_assert_eq!(bits(&bn.running_var), bits(&oracle.running_var));
            }
            let x = Tensor4::randn(n, c, h, w, 2.0, &mut rng);
            let (y, y_o) = (bn.forward(&x, false), oracle_forward(&mut oracle, &x, false));
            prop_assert_eq!(bits(y.as_slice()), bits(y_o.as_slice()));
        }
    }

    #[test]
    fn batchnorm_normalizes_batch() {
        let mut rng = Rng::seed_from_u64(111);
        let x = Tensor4::randn(4, 3, 5, 5, 2.5, &mut rng);
        let mut bn = BatchNorm2d::new(3);
        let y = bn.forward(&x, true);
        let means = y.channel_means();
        for &m in &means {
            assert!(m.abs() < 1e-4, "normalized mean {m}");
        }
    }

    #[test]
    fn batchnorm_backward_finite_difference() {
        let mut rng = Rng::seed_from_u64(112);
        let x = Tensor4::randn(2, 2, 3, 3, 1.0, &mut rng);
        let mut bn = BatchNorm2d::new(2);
        bn.gamma = vec![1.5, 0.5];
        bn.beta = vec![0.1, -0.2];

        // L = sum(y²)/2 so dL/dy = y.
        let y = bn.forward(&x, true);
        let dx = bn.backward(&y);

        let h = 1e-3;
        for &(n, c, yy, xx) in &[(0usize, 0usize, 0usize, 0usize), (1, 1, 2, 1)] {
            let mut bn2 = BatchNorm2d::new(2);
            bn2.gamma = bn.gamma.clone();
            bn2.beta = bn.beta.clone();
            let mut xp = x.clone();
            xp.set(n, c, yy, xx, x.get(n, c, yy, xx) + h);
            let yp = bn2.forward(&xp, true);
            let lp: f32 = yp.as_slice().iter().map(|v| v * v / 2.0).sum();
            let mut xm = x.clone();
            xm.set(n, c, yy, xx, x.get(n, c, yy, xx) - h);
            let ym = bn2.forward(&xm, true);
            let lm: f32 = ym.as_slice().iter().map(|v| v * v / 2.0).sum();
            let fd = (lp - lm) / (2.0 * h);
            let an = dx.get(n, c, yy, xx);
            assert!((fd - an).abs() < 5e-2, "fd={fd} an={an}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut rng = Rng::seed_from_u64(113);
        let mut bn = BatchNorm2d::new(2);
        // Train a few batches to move the running stats.
        for _ in 0..20 {
            let x = Tensor4::randn(8, 2, 4, 4, 3.0, &mut rng);
            let _ = bn.forward(&x, true);
        }
        assert!(bn.running_var[0] > 2.0, "running var should approach 9");
        // Eval on a fresh batch must not change running stats.
        let rv = bn.running_var.clone();
        let x = Tensor4::randn(2, 2, 4, 4, 1.0, &mut rng);
        let _ = bn.forward(&x, false);
        assert_eq!(bn.running_var, rv);
    }

    #[test]
    fn layernorm_rows_normalized() {
        let mut rng = Rng::seed_from_u64(114);
        let x = Matrix::randn(5, 16, 3.0, &mut rng);
        let mut ln = LayerNorm::new(16);
        let y = ln.forward(&x, false);
        for r in 0..5 {
            let row = y.row(r);
            let mean = row.iter().sum::<f32>() / 16.0;
            let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layernorm_backward_finite_difference() {
        let mut rng = Rng::seed_from_u64(115);
        let x = Matrix::randn(3, 8, 1.0, &mut rng);
        let mut ln = LayerNorm::new(8);
        ln.gamma = (0..8).map(|i| 1.0 + 0.1 * i as f32).collect();

        let y = ln.forward(&x, true);
        let dx = ln.backward(&y); // L = sum(y²)/2

        let h = 1e-3;
        for &(r, c) in &[(0usize, 0usize), (2, 7), (1, 3)] {
            let mut ln2 = LayerNorm::new(8);
            ln2.gamma = ln.gamma.clone();
            let mut xp = x.clone();
            xp.set(r, c, x.get(r, c) + h);
            let lp: f32 = ln2.forward(&xp, false).as_slice().iter().map(|v| v * v / 2.0).sum();
            let mut xm = x.clone();
            xm.set(r, c, x.get(r, c) - h);
            let lm: f32 = ln2.forward(&xm, false).as_slice().iter().map(|v| v * v / 2.0).sum();
            let fd = (lp - lm) / (2.0 * h);
            let an = dx.get(r, c);
            assert!((fd - an).abs() < 5e-2, "fd={fd} an={an}");
        }
    }
}
