//! K-FAC activation/gradient capture.
//!
//! K-FAC needs, for every preconditioned layer, the second-moment statistics
//! of the layer inputs (`A = E[a aᵀ]`) and of the pre-activation gradients
//! (`G = E[g gᵀ]`), Eq. 9 of the paper. Layers record these during the
//! forward/backward pass when capture is enabled.
//!
//! Two capture modes reproduce the paper's Section 4.2 design point:
//!
//! * [`CaptureMode::Accumulate`] (KAISA's approach) — the `aᵀa` / `gᵀg`
//!   contributions are computed immediately during the pass and summed, so
//!   gradient accumulation over `k` micro-batches costs O(dim²) extra memory
//!   instead of O(k · batch · dim).
//! * [`CaptureMode::StoreRaw`] (the baseline KAISA improves on) — the raw
//!   `a` and `g` matrices are retained and the statistics are computed at
//!   `KFAC.step()` time. Memory grows linearly with accumulation steps.
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

/// When the statistics are materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CaptureMode {
    /// Compute `aᵀa`/`gᵀg` during the pass (KAISA, paper Section 4.2).
    #[default]
    Accumulate,
    /// Store raw `a`/`g` and compute at `step()` (memory-hungry baseline).
    StoreRaw,
}

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
    /// Capture strategy.
    pub mode: CaptureMode,
    a_stat: Option<Matrix>,
    g_stat: Option<Matrix>,
    raw_a: Vec<(Raw, usize)>,
    raw_g: Vec<(Raw, usize)>,
    batches: usize,
}

/// A raw `a` or `g` kept for [`CaptureMode::StoreRaw`], in the layout its
/// layer computes in.
#[derive(Debug, Clone)]
enum Raw {
    /// `rows × dim` (a Linear layer).
    Rows(Matrix),
    /// One `dim × T` block per sample, stacked into `(n·dim) × T` (a Conv2d
    /// layer).
    Cols { blocks: Matrix, dim: usize },
}

impl Raw {
    /// A copy of `n` consecutive `dim × T` column blocks.
    fn cols(cols: &[f32], dim: usize, n: usize) -> Raw {
        let blocks = Matrix::from_vec(n * dim, cols.len() / (n * dim), cols.to_vec());
        Raw::Cols { blocks, dim }
    }

    /// The `rows` of the scaling conventions: positions over all samples.
    fn rows(&self) -> usize {
        match self {
            Raw::Rows(m) => m.rows(),
            Raw::Cols { blocks, dim } => blocks.numel() / dim,
        }
    }

    fn gram(&self) -> Matrix {
        match self {
            Raw::Rows(m) => m.gram_tn(),
            Raw::Cols { blocks, dim } => gram_cols(blocks.as_slice(), *dim, blocks.rows() / dim),
        }
    }

    fn numel(&self) -> usize {
        match self {
            Raw::Rows(m) | Raw::Cols { blocks: m, .. } => m.numel(),
        }
    }
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
        if !self.enabled {
            return;
        }
        match self.mode {
            CaptureMode::Accumulate => self.record_forward_stat(a.gram_tn(), n_samples),
            CaptureMode::StoreRaw => self.record_raw_a(Raw::Rows(a.clone()), n_samples),
        }
    }

    /// [`record_forward`](Self::record_forward) for an `a` in the column
    /// layout: `cols` holds one `dim × T` block per sample, `n_samples`
    /// blocks in all. Bitwise what `record_forward` gives for the
    /// `(n·T) × dim` rows the blocks transpose to.
    pub fn record_forward_cols(&mut self, cols: &[f32], dim: usize, n_samples: usize) {
        if !self.enabled {
            return;
        }
        match self.mode {
            CaptureMode::Accumulate => {
                self.record_forward_stat(gram_cols(cols, dim, n_samples), n_samples)
            }
            CaptureMode::StoreRaw => self.record_raw_a(Raw::cols(cols, dim, n_samples), n_samples),
        }
    }

    fn record_raw_a(&mut self, raw: Raw, n_samples: usize) {
        self.raw_a.push((raw, n_samples));
        // Convention: one forward + one backward == one micro-batch; count on
        // the forward side.
        self.batches += 1;
    }

    /// Record a pre-computed `aᵀa` contribution (unscaled) for `n_samples`
    /// samples — how a Conv2d layer with a bias hands over its bordered
    /// Gram, built without the ones column. Only meaningful in
    /// [`CaptureMode::Accumulate`], where it is bitwise
    /// [`record_forward`](Self::record_forward) of any `a` whose `gram_tn`
    /// is `contrib`.
    pub fn record_forward_stat(&mut self, mut contrib: Matrix, n_samples: usize) {
        if !self.enabled {
            return;
        }
        debug_assert_eq!(
            self.mode,
            CaptureMode::Accumulate,
            "record_forward_stat is an Accumulate-mode entry point"
        );
        contrib.scale(1.0 / n_samples as f32);
        accumulate(&mut self.a_stat, contrib);
        self.batches += 1;
    }

    /// Record the pre-activation gradient matrix `g` (rows × g_dim, gradients
    /// of the *mean* loss) for `n_samples` samples.
    pub fn record_backward(&mut self, g: &Matrix, n_samples: usize) {
        if !self.enabled {
            return;
        }
        match self.mode {
            CaptureMode::Accumulate => self.record_g_stat(g.gram_tn(), g.rows(), n_samples),
            CaptureMode::StoreRaw => self.raw_g.push((Raw::Rows(g.clone()), n_samples)),
        }
    }

    /// [`record_backward`](Self::record_backward) for a `g` in the column
    /// layout: one `dim × T` block per sample, as in
    /// [`record_forward_cols`](Self::record_forward_cols).
    pub fn record_backward_cols(&mut self, cols: &[f32], dim: usize, n_samples: usize) {
        if !self.enabled {
            return;
        }
        match self.mode {
            CaptureMode::Accumulate => {
                self.record_g_stat(gram_cols(cols, dim, n_samples), cols.len() / dim, n_samples)
            }
            CaptureMode::StoreRaw => self.raw_g.push((Raw::cols(cols, dim, n_samples), n_samples)),
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
        match self.mode {
            CaptureMode::Accumulate => {
                let a_stat = self.a_stat.take()?;
                let g_stat = self.g_stat.take()?;
                Some(KfacStats { a_stat, g_stat, batches })
            }
            CaptureMode::StoreRaw => {
                if self.raw_a.is_empty() || self.raw_g.is_empty() {
                    self.raw_a.clear();
                    self.raw_g.clear();
                    return None;
                }
                let mut a_stat: Option<Matrix> = None;
                for (a, n) in self.raw_a.drain(..) {
                    let mut contrib = a.gram();
                    contrib.scale(1.0 / n as f32);
                    accumulate(&mut a_stat, contrib);
                }
                let mut g_stat: Option<Matrix> = None;
                for (g, n) in self.raw_g.drain(..) {
                    let mut contrib = g.gram();
                    contrib.scale((n * n) as f32 / g.rows().max(1) as f32);
                    accumulate(&mut g_stat, contrib);
                }
                Some(KfacStats { a_stat: a_stat?, g_stat: g_stat?, batches })
            }
        }
    }

    /// Bytes currently held by the capture state — the quantity KAISA's
    /// factor-accumulation optimization (Section 4.2) keeps O(dim²).
    pub fn memory_bytes(&self) -> usize {
        let stat = self.a_stat.as_ref().map_or(0, |m| m.numel())
            + self.g_stat.as_ref().map_or(0, |m| m.numel());
        let raw: usize = self
            .raw_a
            .iter()
            .map(|(raw, _)| raw.numel())
            .chain(self.raw_g.iter().map(|(raw, _)| raw.numel()))
            .sum();
        (stat + raw) * std::mem::size_of::<f32>()
    }

    /// Discard any captured state without producing statistics.
    pub fn clear(&mut self) {
        self.a_stat = None;
        self.g_stat = None;
        self.raw_a.clear();
        self.raw_g.clear();
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
        let mut rng = Rng::seed_from_u64(61);
        let mut acc =
            KfacCapture { enabled: true, mode: CaptureMode::Accumulate, ..Default::default() };
        let mut raw =
            KfacCapture { enabled: true, mode: CaptureMode::StoreRaw, ..Default::default() };
        for _ in 0..3 {
            let a = Matrix::randn(8, 5, 1.0, &mut rng);
            let g = Matrix::randn(8, 4, 1.0, &mut rng);
            acc.record_forward(&a, 8);
            acc.record_backward(&g, 8);
            raw.record_forward(&a, 8);
            raw.record_backward(&g, 8);
        }
        let s_acc = acc.take_stats().unwrap();
        let s_raw = raw.take_stats().unwrap();
        assert_eq!(s_acc.batches, 3);
        assert_eq!(s_raw.batches, 3);
        assert!(s_acc.a_stat.max_abs_diff(&s_raw.a_stat) < 1e-4);
        assert!(s_acc.g_stat.max_abs_diff(&s_raw.g_stat) < 1e-4);
    }

    #[test]
    fn accumulate_memory_is_constant_in_microbatches() {
        let mut rng = Rng::seed_from_u64(62);
        let mut acc = KfacCapture { enabled: true, ..Default::default() };
        let mut raw =
            KfacCapture { enabled: true, mode: CaptureMode::StoreRaw, ..Default::default() };
        let mut acc_sizes = Vec::new();
        let mut raw_sizes = Vec::new();
        for _ in 0..4 {
            let a = Matrix::randn(16, 6, 1.0, &mut rng);
            let g = Matrix::randn(16, 6, 1.0, &mut rng);
            acc.record_forward(&a, 16);
            acc.record_backward(&g, 16);
            raw.record_forward(&a, 16);
            raw.record_backward(&g, 16);
            acc_sizes.push(acc.memory_bytes());
            raw_sizes.push(raw.memory_bytes());
        }
        // KAISA: flat. Baseline: grows linearly.
        assert_eq!(acc_sizes[0], acc_sizes[3]);
        assert_eq!(raw_sizes[3], 4 * raw_sizes[0]);
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
        // same bytes held, in both modes.
        let mut rng = Rng::seed_from_u64(65);
        for mode in [CaptureMode::Accumulate, CaptureMode::StoreRaw] {
            let mut rows = KfacCapture { enabled: true, mode, ..Default::default() };
            let mut cols = KfacCapture { enabled: true, mode, ..Default::default() };
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
                assert_eq!(rows.memory_bytes(), cols.memory_bytes(), "{mode:?}");
            }
            let (r, c) = (rows.take_stats().unwrap(), cols.take_stats().unwrap());
            assert_eq!(r.batches, c.batches);
            for (x, y) in r.a_stat.as_slice().iter().zip(c.a_stat.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "A {mode:?}");
            }
            for (x, y) in r.g_stat.as_slice().iter().zip(c.g_stat.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "G {mode:?}");
            }
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
