//! K-FAC activation/gradient capture.
//!
//! K-FAC needs, for every preconditioned layer, the second-moment statistics
//! of the layer inputs (`A = E[a aᵀ]`) and of the pre-activation gradients
//! (`G = E[g gᵀ]`), Eq. 9 of the paper. Layers record these during the
//! forward/backward pass when capture is enabled.
//!
//! The `aᵀa` / `gᵀg` contributions are computed immediately during the
//! pass and summed into one `A` and one `G` (the paper's Section 4.2), so
//! gradient accumulation over `k` micro-batches costs O(dim²) extra memory.
//! The baseline KAISA improves on keeps every micro-batch's raw `a` and `g`
//! until `KFAC.step()` and computes the statistics there, so its memory
//! grows as O(k · batch · dim).
//!
//! Scaling conventions (`n` = samples in the micro-batch, `T` = spatial
//! positions per sample, rows = `n·T`):
//!
//! * `A += aᵀa / n` — the KFC convention that sums spatial support.
//! * `G += gᵀg · n² / rows` — converts mean-loss gradients back to per-sample
//!   gradients (`g_sample = n · g_row`) and averages over `n·T`.
//!
//! A Linear layer hands over `a`/`g` in the row layout (`rows × dim`). A
//! Conv2d layer hands over the column layout it computes in: one `dim × T`
//! block per sample, whose Gram products ([`gram_nt`]) are `aᵀa`/`gᵀg` of
//! the rows those blocks transpose to, bit for bit.

use kaisa_tensor::{gram_nt, Matrix};

/// Accumulated factor statistics for one layer and one optimizer step.
#[derive(Debug, Clone)]
pub struct KfacStats {
    /// Summed `A` contributions (dim `a_dim x a_dim`).
    pub a_stat: Matrix,
    /// Summed `G` contributions (dim `g_dim x g_dim`).
    pub g_stat: Matrix,
    /// Number of micro-batches accumulated (divide by this to average).
    pub batches: usize,
}

/// Per-layer capture state owned by preconditionable layers.
#[derive(Debug, Clone, Default)]
pub struct KfacCapture {
    /// Whether the layer records statistics during passes.
    pub enabled: bool,
    a_stat: Option<Matrix>,
    g_stat: Option<Matrix>,
    batches: usize,
}

/// `Σ_b B_b·B_bᵀ` over the `n` consecutive `dim × T` blocks of `cols`,
/// into a fresh matrix.
pub(crate) fn gram_cols(cols: &[f32], dim: usize, n: usize) -> Matrix {
    let mut out = Matrix::zeros(dim, dim);
    gram_nt(dim, cols.len() / (dim * n).max(1), cols, out.as_mut_slice());
    out
}

/// `stat += contrib`, or `stat = contrib` for the first contribution.
fn accumulate(stat: &mut Option<Matrix>, contrib: Matrix) {
    match stat {
        Some(s) => s.add_assign(&contrib),
        None => *stat = Some(contrib),
    }
}

impl KfacCapture {
    /// Create a disabled capture (layers start inert until a preconditioner
    /// registers them).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the layer-input matrix `a` (rows × a_dim, already augmented
    /// with a ones column if the layer has a bias) for `n_samples` samples.
    pub fn record_forward(&mut self, a: &Matrix, n_samples: usize) {
        if self.enabled {
            self.record_forward_stat(a.gram_tn(), n_samples);
        }
    }

    /// [`record_forward`](Self::record_forward) for an `a` in the column
    /// layout: `cols` holds one `dim × T` block per sample, `n_samples`
    /// blocks in all. Bitwise what `record_forward` gives for the
    /// `(n·T) × dim` rows the blocks transpose to.
    pub fn record_forward_cols(&mut self, cols: &[f32], dim: usize, n_samples: usize) {
        if self.enabled {
            self.record_forward_stat(gram_cols(cols, dim, n_samples), n_samples);
        }
    }

    /// Record a pre-computed `aᵀa` contribution (unscaled) for `n_samples`
    /// samples — how a Conv2d layer with a bias hands over its bordered
    /// Gram, built without the ones column. Bitwise
    /// [`record_forward`](Self::record_forward) of any `a` whose `gram_tn`
    /// is `contrib`.
    pub fn record_forward_stat(&mut self, mut contrib: Matrix, n_samples: usize) {
        if !self.enabled {
            return;
        }
        contrib.scale(1.0 / n_samples as f32);
        accumulate(&mut self.a_stat, contrib);
        // Convention: one forward + one backward == one micro-batch; count on
        // the forward side.
        self.batches += 1;
    }

    /// Record the pre-activation gradient matrix `g` (rows × g_dim, gradients
    /// of the *mean* loss) for `n_samples` samples.
    pub fn record_backward(&mut self, g: &Matrix, n_samples: usize) {
        if self.enabled {
            self.record_g_stat(g.gram_tn(), g.rows(), n_samples);
        }
    }

    /// [`record_backward`](Self::record_backward) for a `g` in the column
    /// layout: one `dim × T` block per sample, as in
    /// [`record_forward_cols`](Self::record_forward_cols).
    pub fn record_backward_cols(&mut self, cols: &[f32], dim: usize, n_samples: usize) {
        if self.enabled {
            self.record_g_stat(gram_cols(cols, dim, n_samples), cols.len() / dim, n_samples);
        }
    }

    fn record_g_stat(&mut self, mut contrib: Matrix, rows: usize, n_samples: usize) {
        contrib.scale((n_samples * n_samples) as f32 / rows.max(1) as f32);
        accumulate(&mut self.g_stat, contrib);
    }

    /// Drain the accumulated statistics (resets the capture for the next
    /// step). Returns `None` if nothing was captured.
    pub fn take_stats(&mut self) -> Option<KfacStats> {
        let batches = std::mem::take(&mut self.batches);
        let a_stat = self.a_stat.take()?;
        let g_stat = self.g_stat.take()?;
        Some(KfacStats { a_stat, g_stat, batches })
    }

    /// Bytes currently held by the capture state — the quantity KAISA's
    /// factor-accumulation optimization (Section 4.2) keeps O(dim²).
    pub fn memory_bytes(&self) -> usize {
        let stat = self.a_stat.as_ref().map_or(0, |m| m.numel())
            + self.g_stat.as_ref().map_or(0, |m| m.numel());
        stat * std::mem::size_of::<f32>()
    }

    /// Discard any captured state without producing statistics.
    pub fn clear(&mut self) {
        self.a_stat = None;
        self.g_stat = None;
        self.batches = 0;
    }
}

/// Interface the K-FAC preconditioner uses to talk to a preconditionable
/// layer (Linear or Conv2d), independent of tensor rank.
pub trait KfacAble {
    /// Stable display name (used in timing breakdowns and assignments).
    fn layer_name(&self) -> &str;

    /// Dimension of the `A` Kronecker factor (`in_features`, +1 with bias).
    fn a_dim(&self) -> usize;

    /// Dimension of the `G` Kronecker factor (`out_features`).
    fn g_dim(&self) -> usize;

    /// Mutable access to the capture state.
    fn capture_mut(&mut self) -> &mut KfacCapture;

    /// The combined weight(+bias) gradient as a `g_dim x a_dim` matrix; the
    /// bias gradient, when present, is the trailing column.
    fn combined_grad(&self) -> Matrix;

    /// Overwrite the layer gradient from a combined `g_dim x a_dim` matrix
    /// (the preconditioned gradient coming back from K-FAC).
    fn set_combined_grad(&mut self, grad: &Matrix);
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaisa_tensor::Rng;

    #[test]
    fn disabled_capture_records_nothing() {
        let mut cap = KfacCapture::new();
        let a = Matrix::full(4, 3, 1.0);
        cap.record_forward(&a, 4);
        cap.record_backward(&a, 4);
        assert!(cap.take_stats().is_none());
        assert_eq!(cap.memory_bytes(), 0);
    }

    #[test]
    fn accumulate_matches_store_raw() {
        // Three micro-batches: `A` and `G` are, bit for bit, the in-order
        // sums of the stored per-micro-batch contributions `gram_tn(aᵢ)/n`
        // and `gram_tn(gᵢ)·n²/rows` (Section 4.2).
        let mut rng = Rng::seed_from_u64(61);
        let (rows, n, a_dim, g_dim) = (8, 4, 5, 3);
        let mut cap = KfacCapture { enabled: true, ..Default::default() };
        let (mut a_contribs, mut g_contribs) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let a = Matrix::randn(rows, a_dim, 1.0, &mut rng);
            let g = Matrix::randn(rows, g_dim, 1.0, &mut rng);
            cap.record_forward(&a, n);
            cap.record_backward(&g, n);
            let (mut a_contrib, mut g_contrib) = (a.gram_tn(), g.gram_tn());
            a_contrib.scale(1.0 / n as f32);
            g_contrib.scale((n * n) as f32 / rows as f32);
            a_contribs.push(a_contrib);
            g_contribs.push(g_contrib);
        }
        let in_order_sum = |contribs: &[Matrix]| {
            let mut sum = contribs[0].clone();
            contribs[1..].iter().for_each(|c| sum.add_assign(c));
            sum
        };
        let (a_sum, g_sum) = (in_order_sum(&a_contribs), in_order_sum(&g_contribs));
        let s = cap.take_stats().unwrap();
        assert_eq!(s.batches, 3);
        for (x, y) in s.a_stat.as_slice().iter().zip(a_sum.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "A");
        }
        for (x, y) in s.g_stat.as_slice().iter().zip(g_sum.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "G");
        }
    }

    #[test]
    fn accumulate_memory_is_constant_in_microbatches() {
        // The capture holds one `A` and one `G` after every micro-batch,
        // however many were accumulated (Section 4.2).
        let mut rng = Rng::seed_from_u64(61);
        let (rows, n, a_dim, g_dim) = (8, 4, 5, 3);
        let mut cap = KfacCapture { enabled: true, ..Default::default() };
        let one_of_each = (a_dim * a_dim + g_dim * g_dim) * std::mem::size_of::<f32>();
        for i in 0..3 {
            cap.record_forward(&Matrix::randn(rows, a_dim, 1.0, &mut rng), n);
            cap.record_backward(&Matrix::randn(rows, g_dim, 1.0, &mut rng), n);
            assert_eq!(cap.memory_bytes(), one_of_each, "after micro-batch {i}");
        }
    }

    #[test]
    fn stats_are_symmetric_psd_shaped() {
        let mut rng = Rng::seed_from_u64(63);
        let mut cap = KfacCapture { enabled: true, ..Default::default() };
        let a = Matrix::randn(10, 7, 1.0, &mut rng);
        let g = Matrix::randn(10, 3, 1.0, &mut rng);
        cap.record_forward(&a, 10);
        cap.record_backward(&g, 10);
        let s = cap.take_stats().unwrap();
        assert_eq!(s.a_stat.shape(), (7, 7));
        assert_eq!(s.g_stat.shape(), (3, 3));
        assert!(s.a_stat.max_abs_diff(&s.a_stat.transpose()) < 1e-5);
        assert!(s.g_stat.max_abs_diff(&s.g_stat.transpose()) < 1e-5);
        // Diagonals of second moments are nonnegative.
        for i in 0..7 {
            assert!(s.a_stat.get(i, i) >= 0.0);
        }
    }

    #[test]
    fn record_forward_stat_matches_record_forward_bitwise() {
        // Handing over a pre-computed Gram contribution (a bias conv's
        // bordered Gram) must be indistinguishable from recording the
        // matrix itself.
        let mut rng = Rng::seed_from_u64(64);
        let mut whole = KfacCapture { enabled: true, ..Default::default() };
        let mut handed = KfacCapture { enabled: true, ..Default::default() };
        for _ in 0..3 {
            let a = Matrix::randn(12, 5, 1.0, &mut rng);
            let g = Matrix::randn(12, 4, 1.0, &mut rng);
            whole.record_forward(&a, 12);
            whole.record_backward(&g, 12);
            handed.record_forward_stat(a.gram_tn(), 12);
            handed.record_backward(&g, 12);
        }
        let sw = whole.take_stats().unwrap();
        let ss = handed.take_stats().unwrap();
        assert_eq!(sw.batches, ss.batches);
        for (x, y) in sw.a_stat.as_slice().iter().zip(ss.a_stat.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn column_blocks_record_like_their_rows_bitwise() {
        // Three samples of four positions, recorded as `dim × 4` column
        // blocks and as the `12 × dim` rows they transpose to: same bits,
        // same bytes held.
        let mut rng = Rng::seed_from_u64(65);
        let mut rows = KfacCapture { enabled: true, ..Default::default() };
        let mut cols = KfacCapture { enabled: true, ..Default::default() };
        for _ in 0..2 {
            let a = Matrix::randn(3 * 5, 4, 1.0, &mut rng);
            let g = Matrix::randn(3 * 2, 4, 1.0, &mut rng);
            let to_rows = |blocks: &Matrix, dim: usize| {
                Matrix::from_fn(12, dim, |r, i| blocks.get((r / 4) * dim + i, r % 4))
            };
            rows.record_forward(&to_rows(&a, 5), 3);
            rows.record_backward(&to_rows(&g, 2), 3);
            cols.record_forward_cols(a.as_slice(), 5, 3);
            cols.record_backward_cols(g.as_slice(), 2, 3);
            assert_eq!(rows.memory_bytes(), cols.memory_bytes());
        }
        let (r, c) = (rows.take_stats().unwrap(), cols.take_stats().unwrap());
        assert_eq!(r.batches, c.batches);
        for (x, y) in r.a_stat.as_slice().iter().zip(c.a_stat.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "A");
        }
        for (x, y) in r.g_stat.as_slice().iter().zip(c.g_stat.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "G");
        }
    }

    #[test]
    fn take_stats_resets() {
        let mut cap = KfacCapture { enabled: true, ..Default::default() };
        let a = Matrix::full(2, 2, 1.0);
        cap.record_forward(&a, 2);
        cap.record_backward(&a, 2);
        assert!(cap.take_stats().is_some());
        assert!(cap.take_stats().is_none());
    }

    #[test]
    fn g_scaling_recovers_per_sample_second_moment() {
        // If every row of g is (1/n) * v (mean-loss gradients of identical
        // per-sample gradients v), then G must equal v vᵀ.
        let n = 5usize;
        let v = [2.0f32, -1.0];
        let rows: Vec<f32> = (0..n).flat_map(|_| v.iter().map(|x| x / n as f32)).collect();
        let g = Matrix::from_vec(n, 2, rows);
        let mut cap = KfacCapture { enabled: true, ..Default::default() };
        cap.record_forward(&Matrix::full(n, 1, 1.0), n);
        cap.record_backward(&g, n);
        let s = cap.take_stats().unwrap();
        let expect = Matrix::outer(&v, &v);
        assert!(s.g_stat.max_abs_diff(&expect) < 1e-4);
    }
}
