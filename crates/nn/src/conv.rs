//! 2-D convolution lowered to GEMM via im2col, with K-FAC capture.
//!
//! The K-FAC `A` factor of a Conv2d layer is the second moment of the im2col
//! patch rows (dimension `c_in·kh·kw (+1)`), and `G` is the second moment of
//! the per-location pre-activation gradients (dimension `c_out`) — the KFC
//! construction of Grosse & Martens that the paper's implementation uses for
//! all convolutional layers of ResNet and U-Net.

use kaisa_tensor::{col2im, im2col, init, Conv2dGeom, Matrix, Rng, Tensor4};

use crate::capture::{CaptureMode, KfacAble, KfacCapture};

/// A 2-D convolution layer with weight shape `(c_out, c_in·kh·kw)`.
#[derive(Debug, Clone)]
pub struct Conv2d {
    name: String,
    /// Flattened kernel weights: row `o` is output channel `o`'s kernel in
    /// channel-major, row-major order (matching im2col's patch layout).
    pub weight: Matrix,
    /// Optional per-output-channel bias.
    pub bias: Option<Vec<f32>>,
    /// Weight gradient (same shape as `weight`).
    pub grad_weight: Matrix,
    /// Bias gradient.
    pub grad_bias: Option<Vec<f32>>,
    /// K-FAC capture state.
    pub kfac: KfacCapture,
    /// Convolution geometry.
    pub geom: Conv2dGeom,
    c_in: usize,
    c_out: usize,
    patch_cache: Option<Matrix>,
    in_shape: Option<(usize, usize, usize, usize)>,
}

/// Scatter im2col-ordered rows `(n·hw, c)` into NCHW planes: per image, the
/// transpose of its `(hw, c)` block.
fn rows_to_nchw(rows: &Matrix, n: usize, c: usize, oh: usize, ow: usize) -> Tensor4 {
    let hw = oh * ow;
    let mut out = Tensor4::zeros(n, c, oh, ow);
    let images = rows.as_slice().chunks_exact((hw * c).max(1));
    for (src, dst) in images.zip(out.as_mut_slice().chunks_exact_mut((hw * c).max(1))) {
        for (co, plane) in dst.chunks_exact_mut(hw).enumerate() {
            for (v, row) in plane.iter_mut().zip(src.chunks_exact(c)) {
                *v = row[co];
            }
        }
    }
    out
}

/// Gather NCHW planes into im2col-ordered rows `(n·hw, c)`: the inverse of
/// [`rows_to_nchw`].
fn nchw_to_rows(t: &Tensor4) -> Matrix {
    let (n, c, oh, ow) = t.shape();
    let hw = oh * ow;
    let mut rows = Matrix::zeros(n * hw, c);
    let images = t.as_slice().chunks_exact((hw * c).max(1));
    for (src, dst) in images.zip(rows.as_mut_slice().chunks_exact_mut((hw * c).max(1))) {
        for (co, plane) in src.chunks_exact(hw).enumerate() {
            for (&v, row) in plane.iter().zip(dst.chunks_exact_mut(c)) {
                row[co] = v;
            }
        }
    }
    rows
}

impl Conv2d {
    /// Kaiming-initialized square convolution.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        rng: &mut Rng,
    ) -> Self {
        let patch = c_in * kernel * kernel;
        Conv2d {
            name: name.into(),
            weight: init::kaiming_normal(c_out, patch, rng),
            bias: bias.then(|| vec![0.0; c_out]),
            grad_weight: Matrix::zeros(c_out, patch),
            grad_bias: bias.then(|| vec![0.0; c_out]),
            kfac: KfacCapture::new(),
            geom: Conv2dGeom::square(kernel, stride, pad),
            c_in,
            c_out,
            patch_cache: None,
            in_shape: None,
        }
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weight.numel() + self.bias.as_ref().map_or(0, |b| b.len())
    }

    /// Forward pass over an NCHW batch.
    pub fn forward(&mut self, x: &Tensor4, train: bool) -> Tensor4 {
        assert_eq!(x.c(), self.c_in, "{}: channel mismatch", self.name);
        let (n, _, h, w) = x.shape();
        let (oh, ow) = self.geom.out_shape(h, w);
        let patches = im2col(x, &self.geom);
        // (rows, c_out)
        let mut out_mat = patches.matmul_nt(&self.weight);
        if let Some(b) = &self.bias {
            for r in 0..out_mat.rows() {
                for (v, bi) in out_mat.row_mut(r).iter_mut().zip(b) {
                    *v += *bi;
                }
            }
        }
        if train {
            if self.kfac.enabled {
                // `A` comes from the patch matrix the product above was just
                // computed from; nothing is lowered a second time.
                match (&self.bias, self.kfac.mode) {
                    (None, _) => self.kfac.record_forward(&patches, n),
                    (Some(_), CaptureMode::Accumulate) => {
                        self.kfac.record_forward_stat(bordered_gram(&patches), n)
                    }
                    (Some(_), CaptureMode::StoreRaw) => {
                        self.kfac.record_forward(&patches.append_ones_column(), n)
                    }
                }
            }
            self.patch_cache = Some(patches);
            self.in_shape = Some(x.shape());
        }
        rows_to_nchw(&out_mat, n, self.c_out, oh, ow)
    }

    /// Backward pass: consumes the cached patches, accumulates parameter
    /// gradients, records the K-FAC `G` statistic, and returns the input
    /// gradient.
    pub fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let patches = self
            .patch_cache
            .take()
            .unwrap_or_else(|| panic!("{}: backward without forward", self.name));
        let (n, c_in, h, w) = self.in_shape.take().expect("input shape cached");
        let (gn, gc, _, _) = grad_out.shape();
        assert_eq!(gn, n, "{}: batch mismatch", self.name);
        assert_eq!(gc, self.c_out, "{}: grad channel mismatch", self.name);

        // (rows, c_out) with im2col row order.
        let g_mat = nchw_to_rows(grad_out);

        if self.kfac.enabled {
            self.kfac.record_backward(&g_mat, n);
        }

        // dW += gᵀ patches
        let dw = g_mat.matmul_tn(&patches);
        self.grad_weight.add_assign(&dw);
        if let Some(db) = &mut self.grad_bias {
            for r in 0..g_mat.rows() {
                for (dbi, gi) in db.iter_mut().zip(g_mat.row(r)) {
                    *dbi += *gi;
                }
            }
        }
        // dpatches = g W; dx = col2im(dpatches)
        let dpatches = g_mat.matmul(&self.weight);
        col2im(&dpatches, n, c_in, h, w, &self.geom)
    }

    /// Zero the parameter gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weight.fill_zero();
        if let Some(db) = &mut self.grad_bias {
            db.iter_mut().for_each(|v| *v = 0.0);
        }
    }
}

/// `[P 1]ᵀ[P 1]` for the patch matrix `P` of a bias layer, without building
/// `[P 1]`: the corner block is `PᵀP`, and multiplying by the ones column
/// is adding — so the border is the column sums of `P` taken in ascending
/// row order from `0.0`, and the last entry counts the rows the same way
/// (exact up to 2²⁴, where a running `f32` count stops moving). Bit for
/// bit `patches.append_ones_column().gram_tn()`.
fn bordered_gram(patches: &Matrix) -> Matrix {
    let (rows, p) = patches.shape();
    let gram = patches.gram_tn();
    let mut out = Matrix::zeros(p + 1, p + 1);
    let mut sums = vec![0.0f32; p];
    for i in 0..p {
        out.row_mut(i)[..p].copy_from_slice(gram.row(i));
    }
    for r in 0..rows {
        for (s, &v) in sums.iter_mut().zip(patches.row(r)) {
            *s += v;
        }
    }
    for (i, &s) in sums.iter().enumerate() {
        out.set(i, p, s);
        out.set(p, i, s);
    }
    out.set(p, p, rows.min(1 << 24) as f32);
    out
}

impl KfacAble for Conv2d {
    fn layer_name(&self) -> &str {
        &self.name
    }

    fn a_dim(&self) -> usize {
        self.weight.cols() + usize::from(self.bias.is_some())
    }

    fn g_dim(&self) -> usize {
        self.c_out
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
    use proptest::prelude::*;

    #[test]
    fn forward_shape() {
        let mut rng = Rng::seed_from_u64(81);
        let mut conv = Conv2d::new("c", 3, 8, 3, 1, 1, true, &mut rng);
        let x = Tensor4::randn(2, 3, 6, 6, 1.0, &mut rng);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), (2, 8, 6, 6));
        let mut strided = Conv2d::new("s", 3, 4, 3, 2, 1, false, &mut rng);
        let y2 = strided.forward(&x, false);
        assert_eq!(y2.shape(), (2, 4, 3, 3));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from_u64(82);
        let mut conv = Conv2d::new("fd", 2, 3, 3, 1, 1, true, &mut rng);
        let x = Tensor4::randn(2, 2, 4, 4, 1.0, &mut rng);

        let loss =
            |c: &mut Conv2d, x: &Tensor4| -> f32 { c.forward(x, false).as_slice().iter().sum() };

        conv.zero_grad();
        let y = conv.forward(&x, true);
        let g = Tensor4::from_vec(y.n(), y.c(), y.h(), y.w(), vec![1.0; y.numel()]);
        let dx = conv.backward(&g);

        let h = 1e-3;
        for &(r, c) in &[(0usize, 0usize), (1, 7), (2, 17)] {
            let orig = conv.weight.get(r, c);
            conv.weight.set(r, c, orig + h);
            let lp = loss(&mut conv, &x);
            conv.weight.set(r, c, orig - h);
            let lm = loss(&mut conv, &x);
            conv.weight.set(r, c, orig);
            let fd = (lp - lm) / (2.0 * h);
            let an = conv.grad_weight.get(r, c);
            assert!((fd - an).abs() < 0.05, "dW[{r},{c}] fd={fd} an={an}");
        }
        // Input gradient at a few positions.
        let mut x2 = x.clone();
        for &(n, ch, yy, xx) in &[(0usize, 0usize, 0usize, 0usize), (1, 1, 3, 2)] {
            let orig = x2.get(n, ch, yy, xx);
            x2.set(n, ch, yy, xx, orig + h);
            let lp = loss(&mut conv, &x2);
            x2.set(n, ch, yy, xx, orig - h);
            let lm = loss(&mut conv, &x2);
            x2.set(n, ch, yy, xx, orig);
            let fd = (lp - lm) / (2.0 * h);
            let an = dx.get(n, ch, yy, xx);
            assert!((fd - an).abs() < 0.05, "dx fd={fd} an={an}");
        }
        // Bias grad = number of output positions.
        for g in conv.grad_bias.as_ref().unwrap() {
            assert!((g - (2 * 4 * 4) as f32).abs() < 1e-2);
        }
    }

    #[test]
    fn kfac_factor_dims() {
        let mut rng = Rng::seed_from_u64(83);
        let conv = Conv2d::new("k", 16, 32, 3, 1, 1, false, &mut rng);
        assert_eq!(conv.a_dim(), 16 * 9);
        assert_eq!(conv.g_dim(), 32);
        let with_bias = Conv2d::new("kb", 16, 32, 3, 1, 1, true, &mut rng);
        assert_eq!(with_bias.a_dim(), 16 * 9 + 1);
    }

    #[test]
    fn capture_matches_augmented_patch_matrix_bitwise() {
        // The `A` statistic taken from the forward's own patch matrix —
        // with the bias border built from column sums — must reproduce the
        // Gram of the explicitly augmented patch matrix bit for bit.
        let mut rng = Rng::seed_from_u64(85);
        let x = Tensor4::randn(2, 2, 5, 4, 1.0, &mut rng);
        for has_bias in [true, false] {
            let mut conv = Conv2d::new("ref", 2, 3, 3, 1, 1, has_bias, &mut rng);
            conv.kfac.enabled = true;
            let patches = im2col(&x, &conv.geom);
            let aug = if has_bias { patches.append_ones_column() } else { patches };
            let mut expect = aug.matmul_tn(&aug);
            expect.scale(1.0 / 2.0);
            let y = conv.forward(&x, true);
            let g = Tensor4::randn(y.n(), y.c(), y.h(), y.w(), 0.1, &mut rng);
            let _ = conv.backward(&g);
            let stats = conv.kfac.take_stats().unwrap();
            assert_eq!(stats.a_stat.shape(), expect.shape());
            for (a, b) in stats.a_stat.as_slice().iter().zip(expect.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "bias={has_bias}");
            }
        }
    }

    #[test]
    fn bordered_gram_counts_rows_like_a_running_f32_sum() {
        // A one-column patch matrix of zeros: only the count is nonzero.
        assert_eq!(bordered_gram(&Matrix::zeros(5, 1)).as_slice(), &[0.0, 0.0, 0.0, 5.0]);
        // Why the count is capped at 2^24: that is where adding 1.0 to an
        // `f32`, as the ones column's Gram entry does, stops moving it.
        let mut count = (1u32 << 24) as f32 - 1.0;
        for _ in 0..3 {
            count += 1.0;
        }
        assert_eq!(count, (1u32 << 24) as f32);
    }

    /// Oracle: the rows → NCHW scatter of `forward` as it was, one
    /// bounds-checked 4-index `set` per element.
    fn oracle_scatter(out_mat: &Matrix, n: usize, c: usize, oh: usize, ow: usize) -> Tensor4 {
        let mut out = Tensor4::zeros(n, c, oh, ow);
        for img in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = out_mat.row((img * oh + oy) * ow + ox);
                    for (co, &v) in row.iter().enumerate() {
                        out.set(img, co, oy, ox, v);
                    }
                }
            }
        }
        out
    }

    /// Oracle: the NCHW → rows gather of `backward` as it was.
    fn oracle_gather(grad_out: &Tensor4) -> Matrix {
        let (n, c, oh, ow) = grad_out.shape();
        let mut g_mat = Matrix::zeros(n * oh * ow, c);
        for img in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = g_mat.row_mut((img * oh + oy) * ow + ox);
                    for (co, v) in row.iter_mut().enumerate() {
                        *v = grad_out.get(img, co, oy, ox);
                    }
                }
            }
        }
        g_mat
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn plane_scatter_gather_match_four_index_oracle_bitwise(
            n in 1usize..5, c in 1usize..7, oh in 1usize..6, ow in 1usize..6, seed in any::<u64>(),
        ) {
            let mut rng = Rng::seed_from_u64(seed);
            let rows = Matrix::randn(n * oh * ow, c, 1.0, &mut rng);
            let t = rows_to_nchw(&rows, n, c, oh, ow);
            prop_assert_eq!(&t, &oracle_scatter(&rows, n, c, oh, ow));
            let g = Tensor4::randn(n, c, oh, ow, 1.0, &mut rng);
            prop_assert_eq!(nchw_to_rows(&g), oracle_gather(&g));
            // And they invert each other.
            prop_assert_eq!(nchw_to_rows(&t), rows);
        }
    }

    #[test]
    fn capture_produces_stats() {
        let mut rng = Rng::seed_from_u64(84);
        let mut conv = Conv2d::new("cap", 2, 3, 3, 1, 1, true, &mut rng);
        conv.kfac.enabled = true;
        let x = Tensor4::randn(2, 2, 4, 4, 1.0, &mut rng);
        let y = conv.forward(&x, true);
        let g = Tensor4::randn(y.n(), y.c(), y.h(), y.w(), 0.1, &mut rng);
        let _ = conv.backward(&g);
        let stats = conv.kfac.take_stats().unwrap();
        assert_eq!(stats.a_stat.shape(), (19, 19));
        assert_eq!(stats.g_stat.shape(), (3, 3));
        assert!(stats.a_stat.is_finite() && stats.g_stat.is_finite());
    }
}
