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

use kaisa_tensor::Matrix;

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
    raw_a: Vec<(Matrix, usize)>,
    raw_g: Vec<(Matrix, usize)>,
    batches: usize,
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
            CaptureMode::Accumulate => {
                let mut contrib = a.gram_tn();
                contrib.scale(1.0 / n_samples as f32);
                match self.a_stat.as_mut() {
                    Some(s) => s.add_assign(&contrib),
                    None => self.a_stat = Some(contrib),
                }
            }
            CaptureMode::StoreRaw => {
                self.raw_a.push((a.clone(), n_samples));
            }
        }
        // Convention: one forward + one backward == one micro-batch; count on
        // the forward side.
        self.batches += 1;
    }

    /// Record a pre-computed `aᵀa` contribution (unscaled) for `n_samples`
    /// samples — the streamed conv capture path, which accumulates SYRK
    /// contributions chunk-by-chunk without materializing the full patch
    /// matrix. Only meaningful in [`CaptureMode::Accumulate`]; the chunked
    /// sum is bitwise identical to [`record_forward`](Self::record_forward)
    /// on the full matrix because the chunks partition the row dimension in
    /// ascending input order.
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
        match self.a_stat.as_mut() {
            Some(s) => s.add_assign(&contrib),
            None => self.a_stat = Some(contrib),
        }
        self.batches += 1;
    }

    /// Record the pre-activation gradient matrix `g` (rows × g_dim, gradients
    /// of the *mean* loss) for `n_samples` samples.
    pub fn record_backward(&mut self, g: &Matrix, n_samples: usize) {
        if !self.enabled {
            return;
        }
        let rows = g.rows().max(1);
        match self.mode {
            CaptureMode::Accumulate => {
                let mut contrib = g.gram_tn();
                contrib.scale((n_samples * n_samples) as f32 / rows as f32);
                match self.g_stat.as_mut() {
                    Some(s) => s.add_assign(&contrib),
                    None => self.g_stat = Some(contrib),
                }
            }
            CaptureMode::StoreRaw => {
                self.raw_g.push((g.clone(), n_samples));
            }
        }
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
                    let mut contrib = a.gram_tn();
                    contrib.scale(1.0 / n as f32);
                    match a_stat.as_mut() {
                        Some(s) => s.add_assign(&contrib),
                        None => a_stat = Some(contrib),
                    }
                }
                let mut g_stat: Option<Matrix> = None;
                for (g, n) in self.raw_g.drain(..) {
                    let rows = g.rows().max(1);
                    let mut contrib = g.gram_tn();
                    contrib.scale((n * n) as f32 / rows as f32);
                    match g_stat.as_mut() {
                        Some(s) => s.add_assign(&contrib),
                        None => g_stat = Some(contrib),
                    }
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
            .map(|(m, _)| m.numel())
            .chain(self.raw_g.iter().map(|(m, _)| m.numel()))
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

    /// Bytes of buffers the layer keeps between steps only to compute its
    /// statistics; the preconditioner meters them under its capture-scratch
    /// memory category. No layer in this crate holds any: Linear and Conv2d
    /// both take `A` from the matrix their forward pass multiplies by.
    fn capture_scratch_bytes(&self) -> usize {
        0
    }
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
        // Streaming a pre-computed Gram contribution (the chunked conv
        // path, here a single chunk) must be indistinguishable from
        // recording the matrix itself.
        let mut rng = Rng::seed_from_u64(64);
        let mut whole = KfacCapture { enabled: true, ..Default::default() };
        let mut streamed = KfacCapture { enabled: true, ..Default::default() };
        for _ in 0..3 {
            let a = Matrix::randn(12, 5, 1.0, &mut rng);
            let g = Matrix::randn(12, 4, 1.0, &mut rng);
            whole.record_forward(&a, 12);
            whole.record_backward(&g, 12);
            streamed.record_forward_stat(a.gram_tn(), 12);
            streamed.record_backward(&g, 12);
        }
        let sw = whole.take_stats().unwrap();
        let ss = streamed.take_stats().unwrap();
        assert_eq!(sw.batches, ss.batches);
        for (x, y) in sw.a_stat.as_slice().iter().zip(ss.a_stat.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
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
