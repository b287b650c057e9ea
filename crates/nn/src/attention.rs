//! Multi-head self-attention with an explicit backward pass.
//!
//! BERT applies K-FAC to every Linear layer inside the transformer (paper
//! Section 5.2); in this block those are the Q/K/V projections and the output
//! projection. The softmax-attention core itself has no parameters and is
//! differentiated manually.

use kaisa_tensor::{ops, Matrix, Rng};

use crate::linear::Linear;

/// Multi-head self-attention over a `(batch·seq, d_model)` activation
/// matrix.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    /// Query projection (K-FAC preconditionable).
    pub wq: Linear,
    /// Key projection (K-FAC preconditionable).
    pub wk: Linear,
    /// Value projection (K-FAC preconditionable).
    pub wv: Linear,
    /// Output projection (K-FAC preconditionable).
    pub wo: Linear,
    heads: usize,
    d_model: usize,
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Softmax attention matrices, `(seq, seq)` per (batch, head), stacked
    /// in (batch, head) order.
    attn: Matrix,
    batch: usize,
    seq: usize,
}

/// `(batch, seq, heads, d_head)` of one attention call. Its activations are
/// `(batch·seq, heads·d_head)` matrices; the core below reads and writes
/// the `(seq, d_head)` block of each (batch, head) pair where it sits,
/// through [`ops::mac_strided`] — nothing is copied out or allocated per
/// pair.
type HeadShape = (usize, usize, usize, usize);

/// Offsets of pair `(b, h)`: its block in an activation matrix (row stride
/// `d_model`), the block's transpose in a transposed activation matrix
/// (row stride `batch·seq`), and its `(seq, seq)` matrix among the stacked
/// attention matrices.
fn pair_offsets((batch, seq, heads, dh): HeadShape, b: usize, h: usize) -> (usize, usize, usize) {
    (b * seq * heads * dh + h * dh, h * dh * batch * seq + b * seq, (b * heads + h) * seq * seq)
}

/// Softmax attention of every (batch, head) pair: returns the stacked
/// attention matrices and the context `A·V`.
fn attention_core(shape: HeadShape, q: &Matrix, k: &Matrix, v: &Matrix) -> (Matrix, Matrix) {
    let (batch, seq, heads, dh) = shape;
    let (d, rows, scale) = (heads * dh, batch * seq, 1.0 / (dh as f32).sqrt());
    // Q·Kᵀ wants K's columns contiguous: one transpose for all pairs.
    let kt = k.transpose();
    let mut attn = Matrix::zeros(rows * heads, seq);
    let mut ctx = Matrix::zeros(rows, d);
    for (b, h) in (0..batch).flat_map(|b| (0..heads).map(move |h| (b, h))) {
        let (at, at_t, at_a) = pair_offsets(shape, b, h);
        let a = &mut attn.as_mut_slice()[at_a..at_a + seq * seq];
        let (q, kt) = (&q.as_slice()[at..], &kt.as_slice()[at_t..]);
        ops::mac_strided((seq, dh, seq), (q, d, 1), (kt, rows), (a, seq));
        ops::scale(scale, a);
        ops::softmax_rows(a, seq, seq);
        let (v, ctx) = (&v.as_slice()[at..], &mut ctx.as_mut_slice()[at..]);
        ops::mac_strided((seq, seq, dh), (a, seq, 1), (v, d), (ctx, d));
    }
    (attn, ctx)
}

/// Gradients of [`attention_core`]'s context with respect to `q`, `k`, `v`.
fn attention_core_backward(
    shape: HeadShape,
    (q, k, v): (&Matrix, &Matrix, &Matrix),
    attn: &Matrix,
    dctx: &Matrix,
) -> (Matrix, Matrix, Matrix) {
    let (batch, seq, heads, dh) = shape;
    let (d, rows, scale) = (heads * dh, batch * seq, 1.0 / (dh as f32).sqrt());
    let vt = v.transpose();
    let (mut dq, mut dk, mut dv) =
        (Matrix::zeros(rows, d), Matrix::zeros(rows, d), Matrix::zeros(rows, d));
    // dA, turned into dS in place; one buffer for every pair.
    let mut ds = vec![0.0f32; seq * seq];
    for (b, h) in (0..batch).flat_map(|b| (0..heads).map(move |h| (b, h))) {
        let (at, at_t, at_a) = pair_offsets(shape, b, h);
        let a = &attn.as_slice()[at_a..at_a + seq * seq];
        let (q, k, vt) = (&q.as_slice()[at..], &k.as_slice()[at..], &vt.as_slice()[at_t..]);
        let dctx = &dctx.as_slice()[at..];

        // ctx = A · V
        ops::mac_strided((seq, seq, dh), (a, 1, seq), (dctx, d), (&mut dv.as_mut_slice()[at..], d));
        ds.fill(0.0);
        ops::mac_strided((seq, dh, seq), (dctx, d, 1), (vt, rows), (&mut ds, seq));

        // Softmax Jacobian: dS_ij = A_ij (dA_ij - Σ_k dA_ik A_ik).
        for (arow, dsrow) in a.chunks_exact(seq.max(1)).zip(ds.chunks_exact_mut(seq.max(1))) {
            let dot: f32 = arow.iter().zip(dsrow.iter()).map(|(x, y)| x * y).sum();
            for (dsv, &av) in dsrow.iter_mut().zip(arow) {
                *dsv = av * (*dsv - dot) * scale;
            }
        }

        // S = scale · Q Kᵀ
        ops::mac_strided((seq, seq, dh), (&ds, seq, 1), (k, d), (&mut dq.as_mut_slice()[at..], d));
        ops::mac_strided((seq, seq, dh), (&ds, 1, seq), (q, d), (&mut dk.as_mut_slice()[at..], d));
    }
    (dq, dk, dv)
}

impl MultiHeadAttention {
    /// New attention block. `d_model` must be divisible by `heads`.
    pub fn new(name: &str, d_model: usize, heads: usize, rng: &mut Rng) -> Self {
        assert_eq!(d_model % heads, 0, "d_model must divide evenly into heads");
        MultiHeadAttention {
            wq: Linear::new(format!("{name}.wq"), d_model, d_model, true, rng),
            wk: Linear::new(format!("{name}.wk"), d_model, d_model, true, rng),
            wv: Linear::new(format!("{name}.wv"), d_model, d_model, true, rng),
            wo: Linear::new(format!("{name}.wo"), d_model, d_model, true, rng),
            heads,
            d_model,
            cache: None,
        }
    }

    /// Head count.
    pub fn heads(&self) -> usize {
        self.heads
    }

    fn shape(&self, batch: usize, seq: usize) -> HeadShape {
        (batch, seq, self.heads, self.d_model / self.heads)
    }

    /// Forward pass. `x` is `(batch·seq, d_model)` with sequence-major rows
    /// per batch element.
    pub fn forward(&mut self, x: &Matrix, batch: usize, seq: usize, train: bool) -> Matrix {
        assert_eq!(x.rows(), batch * seq, "attention input row mismatch");
        assert_eq!(x.cols(), self.d_model, "attention input width mismatch");
        let q = self.wq.forward(x, train);
        let k = self.wk.forward(x, train);
        let v = self.wv.forward(x, train);

        let (attn, ctx) = attention_core(self.shape(batch, seq), &q, &k, &v);
        let out = self.wo.forward(&ctx, train);
        if train {
            self.cache = Some(AttnCache { q, k, v, attn, batch, seq });
        }
        out
    }

    /// Backward pass; returns the gradient with respect to `x`.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let cache = self.cache.take().expect("attention backward without forward");
        let AttnCache { q, k, v, attn, batch, seq } = cache;

        let dctx = self.wo.backward(grad_out);
        let (dq, dk, dv) =
            attention_core_backward(self.shape(batch, seq), (&q, &k, &v), &attn, &dctx);

        let mut dx = self.wq.backward(&dq);
        dx.add_assign(&self.wk.backward(&dk));
        dx.add_assign(&self.wv.backward(&dv));
        dx
    }

    /// Zero all projection gradients.
    pub fn zero_grad(&mut self) {
        self.wq.zero_grad();
        self.wk.zero_grad();
        self.wv.zero_grad();
        self.wo.zero_grad();
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.wq.param_count()
            + self.wk.param_count()
            + self.wv.param_count()
            + self.wo.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaisa_tensor::Rng;

    // ---- Oracle: the core as it was before `mac_strided`, one `block()`
    // copy per operand and one freshly allocated product per step. ----

    /// Copy block `rows x cols` at `(r0, c0)` out of `src`.
    fn block(src: &Matrix, r0: usize, c0: usize, rows: usize, cols: usize) -> Matrix {
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            out.row_mut(r).copy_from_slice(&src.row(r0 + r)[c0..c0 + cols]);
        }
        out
    }

    /// Add `blk` into `dst` at `(r0, c0)`.
    fn add_block(dst: &mut Matrix, blk: &Matrix, r0: usize, c0: usize) {
        for r in 0..blk.rows() {
            let drow = dst.row_mut(r0 + r);
            for (c, &v) in blk.row(r).iter().enumerate() {
                drow[c0 + c] += v;
            }
        }
    }

    fn oracle_forward(g: HeadShape, q: &Matrix, k: &Matrix, v: &Matrix) -> (Vec<Matrix>, Matrix) {
        let (batch, seq, heads, dh) = g;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut ctx = Matrix::zeros(batch * seq, heads * dh);
        let mut attn_cache = Vec::new();
        for b in 0..batch {
            for h in 0..heads {
                let qb = block(q, b * seq, h * dh, seq, dh);
                let kb = block(k, b * seq, h * dh, seq, dh);
                let vb = block(v, b * seq, h * dh, seq, dh);
                let mut scores = qb.matmul_nt(&kb);
                scores.scale(scale);
                let mut attn = scores;
                ops::softmax_rows(attn.as_mut_slice(), seq, seq);
                let ctx_b = attn.matmul(&vb);
                add_block(&mut ctx, &ctx_b, b * seq, h * dh);
                attn_cache.push(attn);
            }
        }
        (attn_cache, ctx)
    }

    fn oracle_backward(
        g: HeadShape,
        (q, k, v): (&Matrix, &Matrix, &Matrix),
        attn: &[Matrix],
        dctx: &Matrix,
    ) -> (Matrix, Matrix, Matrix) {
        let (batch, seq, heads, dh) = g;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut dq = Matrix::zeros(batch * seq, heads * dh);
        let mut dk = Matrix::zeros(batch * seq, heads * dh);
        let mut dv = Matrix::zeros(batch * seq, heads * dh);
        for b in 0..batch {
            for h in 0..heads {
                let a = &attn[b * heads + h];
                let qb = block(q, b * seq, h * dh, seq, dh);
                let kb = block(k, b * seq, h * dh, seq, dh);
                let vb = block(v, b * seq, h * dh, seq, dh);
                let dctx_b = block(dctx, b * seq, h * dh, seq, dh);
                let dv_b = a.matmul_tn(&dctx_b);
                let da = dctx_b.matmul_nt(&vb);
                let mut ds = Matrix::zeros(seq, seq);
                for r in 0..seq {
                    let arow = a.row(r);
                    let darow = da.row(r);
                    let dot: f32 = arow.iter().zip(darow).map(|(x, y)| x * y).sum();
                    for c in 0..seq {
                        ds.set(r, c, arow[c] * (darow[c] - dot));
                    }
                }
                ds.scale(scale);
                let dq_b = ds.matmul(&kb);
                let dk_b = ds.matmul_tn(&qb);
                add_block(&mut dq, &dq_b, b * seq, h * dh);
                add_block(&mut dk, &dk_b, b * seq, h * dh);
                add_block(&mut dv, &dv_b, b * seq, h * dh);
            }
        }
        (dq, dk, dv)
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g:e} vs {w:e}");
        }
    }

    #[test]
    fn strided_core_matches_block_copy_oracle_bitwise() {
        // Head widths and sequence lengths on both sides of the 16-column
        // register tile, and past the GEMM's naive/blocked switch.
        let mut rng = Rng::seed_from_u64(124);
        for (batch, seq, heads, dh) in [
            (1, 1, 1, 1),
            (2, 3, 2, 4),
            (1, 16, 1, 16),
            (3, 17, 2, 5),
            (2, 32, 4, 16),
            (1, 33, 3, 19),
        ] {
            let g: HeadShape = (batch, seq, heads, dh);
            let (rows, d) = (batch * seq, heads * dh);
            let q = Matrix::randn(rows, d, 1.0, &mut rng);
            let k = Matrix::randn(rows, d, 1.0, &mut rng);
            let v = Matrix::randn(rows, d, 1.0, &mut rng);
            let dctx = Matrix::randn(rows, d, 0.3, &mut rng);

            let (attn, ctx) = attention_core(g, &q, &k, &v);
            let (attn_o, ctx_o) = oracle_forward(g, &q, &k, &v);
            let stacked: Vec<f32> = attn_o.iter().flat_map(|m| m.as_slice().to_vec()).collect();
            assert_bits_eq(attn.as_slice(), &stacked, &format!("{g:?} attn"));
            assert_bits_eq(ctx.as_slice(), ctx_o.as_slice(), &format!("{g:?} ctx"));

            let (dq, dk, dv) = attention_core_backward(g, (&q, &k, &v), &attn, &dctx);
            let (dq_o, dk_o, dv_o) = oracle_backward(g, (&q, &k, &v), &attn_o, &dctx);
            assert_bits_eq(dq.as_slice(), dq_o.as_slice(), &format!("{g:?} dq"));
            assert_bits_eq(dk.as_slice(), dk_o.as_slice(), &format!("{g:?} dk"));
            assert_bits_eq(dv.as_slice(), dv_o.as_slice(), &format!("{g:?} dv"));
        }
    }

    #[test]
    fn forward_shape_preserved() {
        let mut rng = Rng::seed_from_u64(121);
        let mut mha = MultiHeadAttention::new("t", 16, 4, &mut rng);
        let x = Matrix::randn(2 * 5, 16, 1.0, &mut rng);
        let y = mha.forward(&x, 2, 5, false);
        assert_eq!(y.shape(), (10, 16));
    }

    #[test]
    fn attention_rows_sum_to_one_internally() {
        // Equal keys -> uniform attention -> context equals the mean value.
        let mut rng = Rng::seed_from_u64(122);
        let mut mha = MultiHeadAttention::new("u", 8, 2, &mut rng);
        // Make wk produce identical keys by zeroing its weight and bias.
        mha.wk.weight.fill_zero();
        mha.wk.bias = Some(vec![0.0; 8]);
        // Identity-ish value/output paths for inspectability.
        mha.wv.weight = Matrix::identity(8);
        mha.wv.bias = Some(vec![0.0; 8]);
        mha.wo.weight = Matrix::identity(8);
        mha.wo.bias = Some(vec![0.0; 8]);
        let x = Matrix::randn(4, 8, 1.0, &mut rng); // batch=1, seq=4
        let y = mha.forward(&x, 1, 4, false);
        // Uniform attention: every output row equals the column means of x.
        for c in 0..8 {
            let mean: f32 = (0..4).map(|r| x.get(r, c)).sum::<f32>() / 4.0;
            for r in 0..4 {
                assert!((y.get(r, c) - mean).abs() < 1e-4, "row {r} col {c}");
            }
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = Rng::seed_from_u64(123);
        let mut mha = MultiHeadAttention::new("fd", 8, 2, &mut rng);
        let x = Matrix::randn(6, 8, 0.7, &mut rng); // batch=2, seq=3

        let loss = |m: &mut MultiHeadAttention, x: &Matrix| -> f32 {
            m.forward(x, 2, 3, false).as_slice().iter().map(|v| v * v / 2.0).sum()
        };

        mha.zero_grad();
        let y = mha.forward(&x, 2, 3, true);
        let dx = mha.backward(&y); // dL/dy = y

        let h = 1e-3;
        for &(r, c) in &[(0usize, 0usize), (3, 5), (5, 7)] {
            let mut xp = x.clone();
            xp.set(r, c, x.get(r, c) + h);
            let lp = loss(&mut mha, &xp);
            let mut xm = x.clone();
            xm.set(r, c, x.get(r, c) - h);
            let lm = loss(&mut mha, &xm);
            let fd = (lp - lm) / (2.0 * h);
            let an = dx.get(r, c);
            assert!((fd - an).abs() < 2e-2, "dx[{r},{c}] fd={fd} an={an}");
        }

        // Also spot-check a projection weight gradient.
        let (wr, wc) = (1usize, 2usize);
        let orig = mha.wq.weight.get(wr, wc);
        mha.wq.weight.set(wr, wc, orig + h);
        let lp = loss(&mut mha, &x);
        mha.wq.weight.set(wr, wc, orig - h);
        let lm = loss(&mut mha, &x);
        mha.wq.weight.set(wr, wc, orig);
        let fd = (lp - lm) / (2.0 * h);
        let an = mha.wq.grad_weight.get(wr, wc);
        assert!((fd - an).abs() < 2e-2, "dWq fd={fd} an={an}");
    }
}
