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
//! block per sample, whose Gram products ([`gram_nt_lower`]) are `aᵀa`/`gᵀg`
//! of the rows those blocks transpose to, bit for bit.
//!
//! Only the **lower triangle** (`j ≤ i`) of each statistic is ever computed,
//! scaled or summed: the statistics are symmetric, and the factor path
//! packs that triangle straight onto the wire (Section 4.3). The two
//! statistic buffers live in the capture across steps and are zero-filled,
//! not reallocated, when a step's first micro-batch arrives.

use kaisa_tensor::{gram_nt_lower, gram_tn_lower, mirror_lower, Matrix};

/// A layer's accumulated factor statistics for one optimizer step, borrowed
/// from its [`KfacCapture`].
///
/// **Only the lower triangle (`j ≤ i`) of `a_stat` and `g_stat` is valid**;
/// the strict upper triangle holds stale or partial sums.
/// [`KfacStats::mirrored`] builds the full symmetric matrices for tests and
/// oracles.
#[derive(Debug, Clone, Copy)]
pub struct KfacStats<'a> {
    /// Summed `A` contributions (`a_dim x a_dim`, lower triangle valid).
    pub a_stat: &'a Matrix,
    /// Summed `G` contributions (`g_dim x g_dim`, lower triangle valid).
    pub g_stat: &'a Matrix,
    /// Number of micro-batches accumulated (divide by this to average).
    pub batches: usize,
}

impl KfacStats<'_> {
    /// Both statistics as full symmetric matrices: the lower triangle
    /// mirrored into the upper, bit for bit.
    pub fn mirrored(&self) -> (Matrix, Matrix) {
        let full = |m: &Matrix| {
            let mut m = m.clone();
            mirror_lower(m.rows(), m.as_mut_slice());
            m
        };
        (full(self.a_stat), full(self.g_stat))
    }
}

/// Per-layer capture state owned by preconditionable layers.
#[derive(Debug, Clone, Default)]
pub struct KfacCapture {
    /// Whether the layer records statistics during passes.
    pub enabled: bool,
    a_stat: Matrix,
    g_stat: Matrix,
    /// Micro-batches recorded this step (forward side) — zero means the
    /// next `A` contribution starts the step.
    batches: usize,
    /// `G` contributions recorded this step.
    g_batches: usize,
    /// Where the second and later micro-batches' contributions are formed
    /// before they are added (grows once to the larger factor, then kept).
    contrib: Vec<f32>,
}

/// The lower triangle of `Σ_b B_b·B_bᵀ` over the `n` consecutive `dim × T`
/// blocks of `cols`, accumulated into `c` (`dim x dim`).
pub(crate) fn gram_cols_lower(cols: &[f32], dim: usize, n: usize, c: &mut [f32]) {
    gram_nt_lower(dim, cols.len() / (dim * n).max(1), cols, c);
}

/// Multiply the lower triangle of the row-major `dim x dim` matrix `m` by
/// `s`.
fn scale_lower(m: &mut [f32], dim: usize, s: f32) {
    for (i, row) in m.chunks_exact_mut(dim.max(1)).enumerate() {
        row[..=i].iter_mut().for_each(|v| *v *= s);
    }
}

/// Fold one micro-batch's contribution into `stat` (lower triangle only):
/// the first of a step is computed by `gram` straight into the zero-filled
/// `stat` and scaled there; a later one is computed into the zero-filled
/// `contrib`, scaled, and added — `stat = contrib`, then `stat += contrib`,
/// element for element.
fn accumulate_lower(
    stat: &mut Matrix,
    contrib: &mut Vec<f32>,
    first: bool,
    dim: usize,
    scale: f32,
    gram: impl FnOnce(&mut [f32]),
) {
    if first {
        if stat.shape() == (dim, dim) {
            stat.fill_zero();
        } else {
            *stat = Matrix::zeros(dim, dim);
        }
        gram(stat.as_mut_slice());
        scale_lower(stat.as_mut_slice(), dim, scale);
        return;
    }
    assert_eq!(stat.shape(), (dim, dim), "factor dimension changed within a step");
    contrib.clear();
    contrib.resize(dim * dim, 0.0);
    gram(contrib);
    scale_lower(contrib, dim, scale);
    for (i, (s, c)) in
        stat.as_mut_slice().chunks_exact_mut(dim).zip(contrib.chunks_exact(dim)).enumerate()
    {
        for (s, &c) in s[..=i].iter_mut().zip(&c[..=i]) {
            *s += c;
        }
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
        let (rows, dim) = a.shape();
        self.record_forward_with(dim, n_samples, |c| gram_tn_lower(dim, rows, a.as_slice(), c));
    }

    /// [`record_forward`](Self::record_forward) for an `a` in the column
    /// layout: `cols` holds one `dim × T` block per sample, `n_samples`
    /// blocks in all. Bitwise what `record_forward` gives for the
    /// `(n·T) × dim` rows the blocks transpose to.
    pub fn record_forward_cols(&mut self, cols: &[f32], dim: usize, n_samples: usize) {
        self.record_forward_with(dim, n_samples, |c| gram_cols_lower(cols, dim, n_samples, c));
    }

    /// Record an `aᵀa` contribution (unscaled, `dim x dim`) for `n_samples`
    /// samples that `gram` writes — lower triangle only — into the
    /// zero-filled buffer it is handed: how a Conv2d layer with a bias
    /// hands over its bordered Gram, built without the ones column.
    /// Bitwise [`record_forward`](Self::record_forward) of any `a` whose
    /// `gram_tn` has that lower triangle.
    pub fn record_forward_with(
        &mut self,
        dim: usize,
        n_samples: usize,
        gram: impl FnOnce(&mut [f32]),
    ) {
        if !self.enabled {
            return;
        }
        let first = self.batches == 0;
        let scale = 1.0 / n_samples as f32;
        accumulate_lower(&mut self.a_stat, &mut self.contrib, first, dim, scale, gram);
        // Convention: one forward + one backward == one micro-batch; count on
        // the forward side.
        self.batches += 1;
    }

    /// Record the pre-activation gradient matrix `g` (rows × g_dim, gradients
    /// of the *mean* loss) for `n_samples` samples.
    pub fn record_backward(&mut self, g: &Matrix, n_samples: usize) {
        let (rows, dim) = g.shape();
        self.record_g_stat(dim, rows, n_samples, |c| gram_tn_lower(dim, rows, g.as_slice(), c));
    }

    /// [`record_backward`](Self::record_backward) for a `g` in the column
    /// layout: one `dim × T` block per sample, as in
    /// [`record_forward_cols`](Self::record_forward_cols).
    pub fn record_backward_cols(&mut self, cols: &[f32], dim: usize, n_samples: usize) {
        let rows = cols.len() / dim.max(1);
        self.record_g_stat(dim, rows, n_samples, |c| gram_cols_lower(cols, dim, n_samples, c));
    }

    fn record_g_stat(
        &mut self,
        dim: usize,
        rows: usize,
        n_samples: usize,
        gram: impl FnOnce(&mut [f32]),
    ) {
        if !self.enabled {
            return;
        }
        let first = self.g_batches == 0;
        let scale = (n_samples * n_samples) as f32 / rows.max(1) as f32;
        accumulate_lower(&mut self.g_stat, &mut self.contrib, first, dim, scale, gram);
        self.g_batches += 1;
    }

    /// Whether both statistics have been recorded since the last
    /// [`take_stats`](Self::take_stats).
    pub fn has_stats(&self) -> bool {
        self.batches > 0 && self.g_batches > 0
    }

    /// Drain the accumulated statistics: the capture's next contribution
    /// starts a new step (its buffers are kept and zero-filled then).
    /// Returns `None` if nothing was captured.
    pub fn take_stats(&mut self) -> Option<KfacStats<'_>> {
        let ready = self.has_stats();
        let batches = std::mem::take(&mut self.batches);
        self.g_batches = 0;
        ready.then_some(KfacStats { a_stat: &self.a_stat, g_stat: &self.g_stat, batches })
    }

    /// Bytes the capture holds for its two statistics — the quantity
    /// KAISA's factor-accumulation optimization (Section 4.2) keeps
    /// O(dim²). The contribution scratch a second micro-batch forms its
    /// Gram in is not counted, like the preconditioner's work buffers.
    pub fn memory_bytes(&self) -> usize {
        (self.a_stat.numel() + self.g_stat.numel()) * std::mem::size_of::<f32>()
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
        let (a_stat, g_stat) = s.mirrored();
        for (x, y) in a_stat.as_slice().iter().zip(a_sum.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "A");
        }
        for (x, y) in g_stat.as_slice().iter().zip(g_sum.as_slice()) {
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
        let (a_stat, g_stat) = cap.take_stats().unwrap().mirrored();
        assert_eq!(a_stat.shape(), (7, 7));
        assert_eq!(g_stat.shape(), (3, 3));
        assert!(a_stat.max_abs_diff(&a.gram_tn().scaled(0.1)) < 1e-5);
        assert!(g_stat.max_abs_diff(&g.gram_tn().scaled(10.0)) < 1e-5);
        // Diagonals of second moments are nonnegative.
        for i in 0..7 {
            assert!(a_stat.get(i, i) >= 0.0);
        }
    }

    #[test]
    fn record_forward_stat_matches_record_forward_bitwise() {
        // Handing over a Gram contribution written by the caller (a bias
        // conv's bordered Gram) must be indistinguishable from recording
        // the matrix itself.
        let mut rng = Rng::seed_from_u64(64);
        let mut whole = KfacCapture { enabled: true, ..Default::default() };
        let mut handed = KfacCapture { enabled: true, ..Default::default() };
        for _ in 0..3 {
            let a = Matrix::randn(12, 5, 1.0, &mut rng);
            let g = Matrix::randn(12, 4, 1.0, &mut rng);
            whole.record_forward(&a, 12);
            whole.record_backward(&g, 12);
            handed.record_forward_with(5, 12, |c| c.copy_from_slice(a.gram_tn().as_slice()));
            handed.record_backward(&g, 12);
        }
        let (sw, ss) = (whole.take_stats().unwrap(), handed.take_stats().unwrap());
        assert_eq!(sw.batches, ss.batches);
        for (x, y) in sw.mirrored().0.as_slice().iter().zip(ss.mirrored().0.as_slice()) {
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
        let ((ra, rg), (ca, cg)) = (r.mirrored(), c.mirrored());
        for (x, y) in ra.as_slice().iter().zip(ca.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "A");
        }
        for (x, y) in rg.as_slice().iter().zip(cg.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "G");
        }
    }

    #[test]
    fn a_new_step_reuses_the_buffers_and_starts_from_zero() {
        // The statistic buffers outlive `take_stats`; the next step's first
        // micro-batch zero-fills them in place, so a capture that already
        // ran a (different) step gives the bits a fresh capture gives.
        let mut rng = Rng::seed_from_u64(66);
        let mut reused = KfacCapture { enabled: true, ..Default::default() };
        reused.record_forward(&Matrix::randn(9, 6, 3.0, &mut rng), 9);
        reused.record_backward(&Matrix::randn(9, 4, 3.0, &mut rng), 9);
        let ptr = reused.take_stats().unwrap().a_stat.as_slice().as_ptr();
        let mut fresh = KfacCapture { enabled: true, ..Default::default() };
        for _ in 0..2 {
            let (a, g) = (Matrix::randn(8, 6, 1.0, &mut rng), Matrix::randn(8, 4, 1.0, &mut rng));
            for cap in [&mut reused, &mut fresh] {
                cap.record_forward(&a, 8);
                cap.record_backward(&g, 8);
            }
        }
        let (r, f) = (reused.take_stats().unwrap(), fresh.take_stats().unwrap());
        assert_eq!(r.a_stat.as_slice().as_ptr(), ptr, "the A buffer was reallocated");
        let ((ra, rg), (fa, fg)) = (r.mirrored(), f.mirrored());
        assert_eq!(ra, fa);
        assert_eq!(rg, fg);
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
        let (_, g_stat) = cap.take_stats().unwrap().mirrored();
        let expect = Matrix::outer(&v, &v);
        assert!(g_stat.max_abs_diff(&expect) < 1e-4);
    }
}
