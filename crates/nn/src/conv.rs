//! 2-D convolution lowered to per-image GEMMs in the column layout, with
//! K-FAC capture.
//!
//! The K-FAC `A` factor of a Conv2d layer is the second moment of the im2col
//! patches (dimension `c_in·kh·kw (+1)`), and `G` is the second moment of
//! the per-location pre-activation gradients (dimension `c_out`) — the KFC
//! construction of Grosse & Martens that the paper's implementation uses for
//! all convolutional layers of ResNet and U-Net.
//!
//! Each image is lowered to its column-layout patch block
//! `Pt = (c_in·kh·kw) × (oh·ow)` ([`im2col_image`]), so `W · Pt` lands
//! straight in the image's NCHW output block and the gradient's NCHW block
//! is already `G = c_out × (oh·ow)`. Every product, Gram and fold keeps the
//! per-element operation order of the row-layout pipeline
//! (`im2col` → `A·Wᵀ` → scatter to NCHW, and back), so each output is that
//! pipeline's, bit for bit (DESIGN §5j).

use kaisa_tensor::{
    col2im_image, gemm_nn, gemm_nt_blocks, gemm_tn, im2col_image, init, Conv2dGeom, Matrix, Rng,
    Tensor4,
};

use crate::capture::{gram_cols_lower, KfacAble, KfacCapture};

/// A 2-D convolution layer with weight shape `(c_out, c_in·kh·kw)`.
#[derive(Debug, Clone)]
pub struct Conv2d {
    name: String,
    /// Flattened kernel weights: row `o` is output channel `o`'s kernel in
    /// channel-major, row-major order (matching the patch blocks' rows).
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
    /// The training forward's patch blocks, `(n·c_in·kh·kw) × (oh·ow)`: one
    /// column-layout block per image, kept for backward.
    col_cache: Option<Matrix>,
    in_shape: Option<(usize, usize, usize, usize)>,
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
            col_cache: None,
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
        let (p, hw) = (self.weight.cols(), oh * ow);
        let mut cols = Matrix::zeros(n * p, hw);
        let mut y = Tensor4::zeros(n, self.c_out, oh, ow);
        let images = cols.as_mut_slice().chunks_exact_mut(p * hw);
        for (img, (pt, y_img)) in
            images.zip(y.as_mut_slice().chunks_exact_mut(self.c_out * hw)).enumerate()
        {
            im2col_image(x, img, &self.geom, pt);
            gemm_nn(self.c_out, p, hw, self.weight.as_slice(), pt, y_img);
            if let Some(b) = &self.bias {
                for (plane, &bi) in y_img.chunks_exact_mut(hw).zip(b) {
                    plane.iter_mut().for_each(|v| *v += bi);
                }
            }
        }
        if train {
            if self.kfac.enabled {
                // `A` comes from the blocks the products above were just
                // computed from; nothing is lowered a second time.
                match &self.bias {
                    None => self.kfac.record_forward_cols(cols.as_slice(), p, n),
                    Some(_) => self
                        .kfac
                        .record_forward_with(p + 1, n, |c| bordered_gram_lower(&cols, p, c)),
                }
            }
            self.col_cache = Some(cols);
            self.in_shape = Some(x.shape());
        }
        y
    }

    /// Backward pass: consumes the cached patch blocks, accumulates
    /// parameter gradients, records the K-FAC `G` statistic, and returns the
    /// input gradient.
    pub fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let cols = self
            .col_cache
            .take()
            .unwrap_or_else(|| panic!("{}: backward without forward", self.name));
        let (n, c_in, h, w) = self.in_shape.take().expect("input shape cached");
        let (gn, gc, gh, gw) = grad_out.shape();
        assert_eq!(gn, n, "{}: batch mismatch", self.name);
        assert_eq!(gc, self.c_out, "{}: grad channel mismatch", self.name);
        let (p, hw) = (self.weight.cols(), cols.cols());
        assert_eq!(gh * gw, hw, "{}: grad spatial mismatch", self.name);

        // Each image's NCHW gradient block is its `G = c_out × (oh·ow)`.
        let g = grad_out.as_slice();
        if self.kfac.enabled {
            self.kfac.record_backward_cols(g, self.c_out, n);
        }

        // dW is summed from zero image after image, pixels in order — the
        // row-ascending chain of `Gᵀ·patches` — then added once.
        let mut dw = Matrix::zeros(self.c_out, p);
        gemm_nt_blocks(self.c_out, hw, p, g, cols.as_slice(), dw.as_mut_slice());
        let mut dx = Tensor4::zeros(n, c_in, h, w);
        let mut dpt = vec![0.0f32; p * hw];
        for (g_img, dx_img) in
            g.chunks_exact(self.c_out * hw).zip(dx.as_mut_slice().chunks_exact_mut(c_in * h * w))
        {
            if let Some(db) = &mut self.grad_bias {
                for (dbi, plane) in db.iter_mut().zip(g_img.chunks_exact(hw)) {
                    *dbi = plane.iter().fold(*dbi, |s, &v| s + v);
                }
            }
            // dPt = Wᵀ·G, folded back onto the input.
            dpt.fill(0.0);
            gemm_tn(p, self.c_out, hw, self.weight.as_slice(), g_img, &mut dpt);
            col2im_image(&dpt, c_in, h, w, &self.geom, dx_img);
        }
        self.grad_weight.add_assign(&dw);
        dx
    }

    /// Zero the parameter gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weight.fill_zero();
        if let Some(db) = &mut self.grad_bias {
            db.iter_mut().for_each(|v| *v = 0.0);
        }
    }
}

/// The lower triangle of `[P 1]ᵀ[P 1]` for the patch rows `P` of a bias
/// layer, from its column blocks `cols` (`(n·p) × hw`) without building
/// `[P 1]`, into the zero-filled `(p+1) x (p+1)` buffer `c`. The corner
/// block is `Σ Pt·Ptᵀ`, formed in `c`'s first `p²` elements and moved row by
/// row to stride `p + 1`; multiplying by the ones column is adding — so the
/// border is the row sums of the blocks, taken image after image in pixel
/// order from `0.0` (the patch rows' ascending order), and the last entry
/// counts the pixels the same way (exact up to 2²⁴, where a running `f32`
/// count stops moving). Bit for bit the lower triangle of `gram_tn` of `P`
/// with a ones column appended.
fn bordered_gram_lower(cols: &Matrix, p: usize, c: &mut [f32]) {
    debug_assert_eq!(c.len(), (p + 1) * (p + 1));
    let (n, hw) = (cols.rows() / p, cols.cols());
    gram_cols_lower(cols.as_slice(), p, n, &mut c[..p * p]);
    // Descending rows: row `i`'s destination starts past every source row
    // not yet moved, and every lower-triangle element gets written.
    for i in (1..p).rev() {
        c.copy_within(i * p..i * p + i + 1, i * (p + 1));
    }
    let border = &mut c[p * (p + 1)..];
    for block in cols.as_slice().chunks_exact(p * hw) {
        for (s, row) in border.iter_mut().zip(block.chunks_exact(hw)) {
            *s = row.iter().fold(*s, |acc, &v| acc + v);
        }
    }
    border[p] = (n * hw).min(1 << 24) as f32;
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
    use kaisa_tensor::{col2im, im2col};
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
            let (a_stat, _) = conv.kfac.take_stats().unwrap().mirrored();
            assert_eq!(a_stat.shape(), expect.shape());
            for (a, b) in a_stat.as_slice().iter().zip(expect.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "bias={has_bias}");
            }
        }
    }

    #[test]
    fn bordered_gram_counts_rows_like_a_running_f32_sum() {
        // One image, one kernel tap, five pixels of zeros: only the count
        // is nonzero.
        let mut c = [0.0f32; 4];
        bordered_gram_lower(&Matrix::zeros(1, 5), 1, &mut c);
        assert_eq!(c, [0.0, 0.0, 0.0, 5.0]);
        // Why the count is capped at 2^24: that is where adding 1.0 to an
        // `f32`, as the ones column's Gram entry does, stops moving it.
        let mut count = (1u32 << 24) as f32 - 1.0;
        for _ in 0..3 {
            count += 1.0;
        }
        assert_eq!(count, (1u32 << 24) as f32);
    }

    /// Oracle: the row-layout output `(n·oh·ow) × c` scattered to NCHW, one
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

    /// Oracle: NCHW gathered into row-layout `(n·oh·ow) × c`.
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

    /// The row-layout forward: `im2col`, `A·Wᵀ`, bias, scatter; `A`
    /// captured as `gram_tn` of the patch rows (with a ones column for a
    /// bias). Returns the output and the patch rows.
    fn oracle_forward(conv: &Conv2d, x: &Tensor4, cap: &mut KfacCapture) -> (Tensor4, Matrix) {
        let patches = im2col(x, &conv.geom);
        let mut out = patches.matmul_nt(&conv.weight);
        if let Some(b) = &conv.bias {
            for r in 0..out.rows() {
                for (v, bi) in out.row_mut(r).iter_mut().zip(b) {
                    *v += *bi;
                }
            }
        }
        let a = if conv.bias.is_some() { patches.append_ones_column() } else { patches.clone() };
        cap.record_forward(&a, x.n());
        let (oh, ow) = conv.geom.out_shape(x.h(), x.w());
        (oracle_scatter(&out, x.n(), conv.c_out(), oh, ow), patches)
    }

    /// The row-layout backward: gather, `G` captured as `gram_tn`,
    /// `dW += Gᵀ·patches`, `db += Σ rows`, `dx = col2im(G·W)`.
    fn oracle_backward(
        conv: &Conv2d,
        patches: &Matrix,
        (h, w): (usize, usize),
        grad_out: &Tensor4,
        cap: &mut KfacCapture,
        grads: &mut (Matrix, Option<Vec<f32>>),
    ) -> Tensor4 {
        let g = oracle_gather(grad_out);
        cap.record_backward(&g, grad_out.n());
        grads.0.add_assign(&g.matmul_tn(patches));
        if let Some(db) = &mut grads.1 {
            for r in 0..g.rows() {
                for (dbi, gi) in db.iter_mut().zip(g.row(r)) {
                    *dbi += *gi;
                }
            }
        }
        col2im(&g.matmul(&conv.weight), grad_out.n(), conv.c_in(), h, w, &conv.geom)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn column_path_matches_row_oracle_bitwise(
            k in 1usize..=5, stride in 1usize..=3, pad in 0usize..=2,
            extra in 0usize..3, wider in any::<bool>(),
            n in 1usize..=3, c_in in 1usize..=3, c_out in 1usize..=4,
            has_bias in any::<bool>(), seed in any::<u64>(),
        ) {
            // Output, dx, dW, db, `A` and `G`, each bit for bit the row
            // pipeline's, over two forward/backward calls whose gradients
            // and statistics accumulate.
            let mut rng = Rng::seed_from_u64(seed);
            let h = k.saturating_sub(2 * pad).max(1) + extra;
            let (h, w) = if wider { (h, h + 1 + extra) } else { (h + 2, h) };
            let mut conv = Conv2d::new("col", c_in, c_out, k, stride, pad, has_bias, &mut rng);
            if let Some(b) = &mut conv.bias {
                b.iter_mut().for_each(|v| *v = rng.normal());
            }
            conv.kfac.enabled = true;
            let mut cap = KfacCapture::new();
            cap.enabled = true;
            let mut grads =
                (Matrix::zeros(c_out, conv.weight.cols()), has_bias.then(|| vec![0.0; c_out]));
            for _ in 0..2 {
                let x = Tensor4::randn(n, c_in, h, w, 1.0, &mut rng);
                let y = conv.forward(&x, true);
                let (y_ref, patches) = oracle_forward(&conv, &x, &mut cap);
                prop_assert_eq!(y.shape(), y_ref.shape());
                prop_assert_eq!(bits(y.as_slice()), bits(y_ref.as_slice()), "forward");
                let g = Tensor4::randn(y.n(), y.c(), y.h(), y.w(), 1.0, &mut rng);
                let dx = conv.backward(&g);
                let dx_ref = oracle_backward(&conv, &patches, (h, w), &g, &mut cap, &mut grads);
                prop_assert_eq!(bits(dx.as_slice()), bits(dx_ref.as_slice()), "dx");
            }
            prop_assert_eq!(bits(conv.grad_weight.as_slice()), bits(grads.0.as_slice()), "dW");
            prop_assert_eq!(conv.grad_bias.as_deref().map(bits), grads.1.as_deref().map(bits), "db");
            let (got, expect) = (conv.kfac.take_stats().unwrap(), cap.take_stats().unwrap());
            prop_assert_eq!(got.batches, expect.batches);
            let ((got_a, got_g), (expect_a, expect_g)) = (got.mirrored(), expect.mirrored());
            prop_assert_eq!(got_a.shape(), expect_a.shape());
            prop_assert_eq!(bits(got_a.as_slice()), bits(expect_a.as_slice()), "A");
            prop_assert_eq!(bits(got_g.as_slice()), bits(expect_g.as_slice()), "G");
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
