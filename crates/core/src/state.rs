//! Per-layer K-FAC state: running factors and cached eigendecompositions,
//! plus the factor wire — the one form a factor takes between capture and
//! the running average.

use kaisa_linalg::{
    fold_packed_lower, pack_lower_scaled, packed_len, sym_eig_with_scratch, unpack_lower,
    EigScratch,
};
use kaisa_nn::KfacStats;
use kaisa_tensor::{Matrix, Precision};

/// Quantize a payload to the storage precision in place (no-op at fp32).
pub fn quantize_slice(buf: &mut [f32], precision: Precision) {
    if precision.is_half() {
        kaisa_tensor::f16::quantize_slice_f16(buf);
    }
}

/// The single EMA fold kernel for factor state: the first fold unpacks the
/// fresh triangle, later folds compute `x ← (1-decay)·x̂ + decay·x` on the
/// lower triangle — the exact `axpby` expression — and mirror it, so every
/// fold shares one semantics.
fn ema_fold_packed(slot: &mut Option<Matrix>, packed: &[f32], n: usize, decay: f32) {
    match slot {
        Some(m) => fold_packed_lower(m, packed, 1.0 - decay, decay),
        None => *slot = Some(unpack_lower(packed, n)),
    }
}

/// Running Kronecker-factor state and decomposition caches for one layer.
///
/// Which fields are populated on a given rank depends on the distribution
/// plan: factors `A`/`G` live on every rank (they are allreduced). The
/// eigendecomposition caches live only on that layer's gradient workers — this is exactly the
/// memory/communication knob Figure 6 of the paper measures.
#[derive(Debug, Clone)]
pub struct KfacLayerState {
    /// Layer name (diagnostics).
    pub name: String,
    /// `A` factor dimension.
    pub a_dim: usize,
    /// `G` factor dimension.
    pub g_dim: usize,
    /// Running average of `A = E[a aᵀ]` in square form.
    pub factor_a: Option<Matrix>,
    /// Running average of `G = E[g gᵀ]` in square form.
    pub factor_g: Option<Matrix>,
    /// Eigenvectors of `A` (columns), cached on gradient workers.
    pub qa: Option<Matrix>,
    /// Eigenvectors of `G` (columns), cached on gradient workers.
    pub qg: Option<Matrix>,
    /// Precomputed `1/(v_G v_Aᵀ + γ)` (Section 4.4), on gradient workers.
    pub outer: Option<Matrix>,
    /// EK-FAC corrected second moments in the Kronecker eigenbasis
    /// (`g_dim x a_dim`), i.e. running `E[(Q_Gᵀ ∇L Q_A)²]` — the cheap
    /// per-step "partial update" of George et al. that the paper's Related
    /// Work proposes running under KAISA's distribution framework.
    pub ekfac_scale: Option<Matrix>,
    /// Up to two idle `g_dim x a_dim` product buffers: `precondition_*`
    /// writes its chained products into them instead of allocating one
    /// matrix per product per step, hands the result out as an owned
    /// matrix, and gets it back through [`KfacLayerState::recycle`]. Pure
    /// scratch: not K-FAC state, so neither [`KfacLayerState::memory_bytes`]
    /// nor the `MemoryMeter` (which meters the preconditioned gradients
    /// while they are live) counts it.
    work: Vec<Matrix>,
    /// The factor payload of a factor step: `A`'s lower triangle row-packed
    /// ([`packed_len`]`(a_dim)` elements), then `G`'s. Written by
    /// [`KfacLayerState::pack_stats`], quantized and allreduced in place,
    /// and folded by [`KfacLayerState::fold_wire`]. Scratch like `work`:
    /// sized once, un-metered.
    pub(crate) wire: Vec<f32>,
}

impl KfacLayerState {
    /// Fresh state for a layer with the given factor dimensions.
    pub fn new(name: impl Into<String>, a_dim: usize, g_dim: usize) -> Self {
        KfacLayerState {
            name: name.into(),
            a_dim,
            g_dim,
            factor_a: None,
            factor_g: None,
            qa: None,
            qg: None,
            outer: None,
            ekfac_scale: None,
            work: Vec::new(),
            wire: Vec::new(),
        }
    }

    /// A `g_dim x a_dim` buffer with unspecified contents: an idle one if
    /// there is one, else a fresh allocation.
    pub(crate) fn take_work(&mut self) -> Matrix {
        self.work.pop().unwrap_or_else(|| Matrix::zeros(self.g_dim, self.a_dim))
    }

    /// Hand a matrix returned by `precondition_*` back for reuse once its
    /// contents are no longer needed. Anything of another shape, or beyond
    /// the two buffers a step uses, is simply dropped.
    pub fn recycle(&mut self, buf: Matrix) {
        if self.work.len() < 2 && buf.shape() == (self.g_dim, self.a_dim) {
            self.work.push(buf);
        }
    }

    /// Finalize a step's captured statistics into the factor wire in one
    /// pass: each lower-triangle element times `1/batches`, row-packed, `A`
    /// then `G`.
    ///
    /// # Panics
    /// If the statistics do not have this layer's factor dimensions.
    pub fn pack_stats(&mut self, stats: &KfacStats<'_>) {
        assert_eq!(stats.a_stat.shape(), (self.a_dim, self.a_dim), "{}: A statistic", self.name);
        assert_eq!(stats.g_stat.shape(), (self.g_dim, self.g_dim), "{}: G statistic", self.name);
        let inv = 1.0 / stats.batches.max(1) as f32;
        let split = packed_len(self.a_dim);
        self.wire.resize(split + packed_len(self.g_dim), 0.0);
        let (wa, wg) = self.wire.split_at_mut(split);
        pack_lower_scaled(stats.a_stat.as_slice(), self.a_dim, inv, wa);
        pack_lower_scaled(stats.g_stat.as_slice(), self.g_dim, inv, wg);
    }

    /// Fold the (averaged, quantized) factor wire into the running
    /// averages: `A ← decay·A + (1-decay)·Â` on the lower triangle, then
    /// mirrored (the first fold sets `A = Â`).
    pub fn fold_wire(&mut self, decay: f32) {
        let split = packed_len(self.a_dim);
        assert_eq!(
            self.wire.len(),
            split + packed_len(self.g_dim),
            "{}: no factor wire",
            self.name
        );
        let (wa, wg) = self.wire.split_at(split);
        ema_fold_packed(&mut self.factor_a, wa, self.a_dim, decay);
        ema_fold_packed(&mut self.factor_g, wg, self.g_dim, decay);
    }

    /// Fold symmetric batch factors into the running averages — the same
    /// pack and fold a factor step runs (only their lower triangles are
    /// read), for callers that hold square matrices (tests, benchmarks).
    pub fn update_factors(&mut self, a_new: &Matrix, g_new: &Matrix, decay: f32) {
        self.pack_stats(&KfacStats { a_stat: a_new, g_stat: g_new, batches: 1 });
        self.fold_wire(decay);
    }

    /// Eigendecompose the running `A` factor; returns `(Q_A, v_A)`.
    ///
    /// # Panics
    /// If no factor has been accumulated yet.
    pub fn eig_a(&self) -> (Matrix, Vec<f32>) {
        self.eig_a_with(&mut EigScratch::new())
    }

    /// [`Self::eig_a`] on a caller-held solver workspace (`Kfac` keeps one
    /// for all its decompositions, so a solve allocates only its result).
    pub fn eig_a_with(&self, scratch: &mut EigScratch) -> (Matrix, Vec<f32>) {
        let a = self.factor_a.as_ref().expect("A factor not yet accumulated");
        let eig = sym_eig_with_scratch(a, scratch).expect("A factor eigendecomposition failed");
        (eig.vectors, eig.values)
    }

    /// Eigendecompose the running `G` factor; returns `(Q_G, v_G)`.
    pub fn eig_g(&self) -> (Matrix, Vec<f32>) {
        self.eig_g_with(&mut EigScratch::new())
    }

    /// [`Self::eig_g`] on a caller-held solver workspace.
    pub fn eig_g_with(&self, scratch: &mut EigScratch) -> (Matrix, Vec<f32>) {
        let g = self.factor_g.as_ref().expect("G factor not yet accumulated");
        let eig = sym_eig_with_scratch(g, scratch).expect("G factor eigendecomposition failed");
        (eig.vectors, eig.values)
    }

    /// Compute the damped eigenvalue reciprocal outer product
    /// `1/(v_G v_Aᵀ + γ)` of Eq. 16.
    pub fn compute_outer(vg: &[f32], va: &[f32], damping: f32) -> Matrix {
        let mut outer = Matrix::outer(vg, va);
        outer.map_inplace(|x| 1.0 / (x.max(0.0) + damping));
        outer
    }

    /// Precondition a combined gradient (`g_dim x a_dim`) through the cached
    /// eigendecompositions (Eq. 15–17). Requires `qa`, `qg` and the
    /// precomputed `outer`, which already carries the damping. The four
    /// products ping-pong between the state's two work buffers;
    /// [`KfacLayerState::recycle`] the result when done with it.
    pub fn precondition_eigen(&mut self, grad: &Matrix) -> Matrix {
        let (mut t, mut v) = (self.take_work(), self.take_work());
        let qa = self.qa.as_ref().expect("Q_A not cached on this rank");
        let qg = self.qg.as_ref().expect("Q_G not cached on this rank");
        let outer = self.outer.as_ref().expect("outer product not cached on this rank");
        qg.matmul_tn_into(grad, &mut t);
        t.matmul_into(qa, &mut v);
        v.hadamard_assign(outer);
        qg.matmul_into(&v, &mut t);
        t.matmul_nt_into(qa, &mut v);
        self.recycle(t);
        v
    }

    /// EK-FAC preconditioning (George et al., NeurIPS 2018): project into
    /// the Kronecker eigenbasis, update the running *corrected* second
    /// moments `S ← decay·S + (1-decay)·V₁²`, and rescale by `1/(S + γ)`
    /// instead of the K-FAC eigenvalue outer product. The eigenbases still
    /// come from the (infrequent) factor eigendecompositions; only the cheap
    /// diagonal scaling refreshes every step.
    ///
    /// Seeded from the K-FAC outer product when no corrected moments exist
    /// yet, so the first EK-FAC step after an eigendecomposition update
    /// coincides with plain K-FAC.
    pub fn precondition_ekfac(&mut self, grad: &Matrix, damping: f32, decay: f32) -> Matrix {
        let (mut t, mut v) = (self.take_work(), self.take_work());
        let qa = self.qa.as_ref().expect("Q_A not cached on this rank");
        let qg = self.qg.as_ref().expect("Q_G not cached on this rank");
        let outer = self.outer.as_ref().expect("outer product not cached on this rank");
        qg.matmul_tn_into(grad, &mut t);
        t.matmul_into(qa, &mut v);

        // Update the corrected second moments from this step's projection
        // `v`; its elementwise square goes into `t`, which is free again.
        for (sq, &x) in t.as_mut_slice().iter_mut().zip(v.as_slice()) {
            *sq = x * x;
        }
        match self.ekfac_scale.as_mut() {
            Some(s) => s.axpby(1.0 - decay, &t, decay),
            None => {
                // Seed with K-FAC's eigenvalue outer product (the prior the
                // corrected moments refine): recover it from `outer`, which
                // stores 1/(v_G v_Aᵀ + γ).
                let mut seed = outer.map(|x| 1.0 / x - damping);
                seed.map_inplace(|x| x.max(0.0));
                self.ekfac_scale = Some(seed);
            }
        }
        let scale = self.ekfac_scale.as_ref().expect("just initialized");
        for (x, s) in v.as_mut_slice().iter_mut().zip(scale.as_slice()) {
            *x /= s.max(0.0) + damping;
        }
        qg.matmul_into(&v, &mut t);
        t.matmul_nt_into(qa, &mut v);
        self.recycle(t);
        v
    }

    /// Bytes of running factor state held on this rank at the given storage
    /// precision.
    pub fn factor_memory_bytes(&self, precision: Precision) -> usize {
        let b = precision.bytes_per_element();
        let mat = |m: &Option<Matrix>| m.as_ref().map_or(0, |m| m.numel() * b);
        mat(&self.factor_a) + mat(&self.factor_g)
    }

    /// Bytes of cached decomposition state (eigenvectors, outer product,
    /// EK-FAC corrected moments).
    pub fn eigen_memory_bytes(&self, precision: Precision) -> usize {
        let b = precision.bytes_per_element();
        let mat = |m: &Option<Matrix>| m.as_ref().map_or(0, |m| m.numel() * b);
        mat(&self.qa) + mat(&self.qg) + mat(&self.outer) + mat(&self.ekfac_scale)
    }

    /// Bytes of K-FAC state held on this rank at the given storage
    /// precision — the quantity summed into the paper's "K-FAC memory
    /// overhead" (Table 5 / Figure 6).
    pub fn memory_bytes(&self, precision: Precision) -> usize {
        self.factor_memory_bytes(precision) + self.eigen_memory_bytes(precision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaisa_tensor::Rng;

    fn random_psd(n: usize, rng: &mut Rng) -> Matrix {
        let a = Matrix::randn(n, n, 1.0, rng);
        let mut s = a.matmul_tn(&a);
        s.scale(1.0 / n as f32);
        s
    }

    #[test]
    fn running_average_first_then_decay() {
        let mut state = KfacLayerState::new("l", 2, 2);
        let a1 = Matrix::identity(2);
        let g1 = Matrix::identity(2).scaled(2.0);
        state.update_factors(&a1, &g1, 0.9);
        assert_eq!(state.factor_a.as_ref().unwrap(), &a1, "first update is a copy");
        let a2 = Matrix::identity(2).scaled(3.0);
        state.update_factors(&a2, &g1, 0.9);
        // 0.9*1 + 0.1*3 = 1.2 on the diagonal.
        assert!((state.factor_a.as_ref().unwrap().get(0, 0) - 1.2).abs() < 1e-6);
    }

    #[test]
    fn first_fold_semantics_unified_across_paths() {
        // `update_factors` (square inputs) and a factor step's wire
        // (captured lower triangles with stale upper halves, finalized by
        // `1/batches`) route through one EMA kernel: the first fold is a
        // plain move-in, later folds apply (1-decay)·fresh + decay·old.
        // Both must agree bitwise, fold for fold, with the square recipe —
        // `scale`, then `axpby`.
        let mut rng = Rng::seed_from_u64(208);
        let decay = 0.95;
        let folds: Vec<(Matrix, Matrix)> =
            (0..3).map(|_| (random_psd(4, &mut rng), random_psd(3, &mut rng))).collect();
        let stale = |m: &Matrix| {
            Matrix::from_fn(m.rows(), m.cols(), |r, c| if c > r { f32::NAN } else { m.get(r, c) })
        };
        let fold = |slot: &mut Option<Matrix>, fresh: Matrix| match slot {
            Some(m) => m.axpby(1.0 - decay, &fresh, decay),
            None => *slot = Some(fresh),
        };
        let bits = |m: &Option<Matrix>| -> Vec<u32> {
            m.as_ref().unwrap().as_slice().iter().map(|x| x.to_bits()).collect()
        };

        let mut square = KfacLayerState::new("square", 4, 3);
        let mut wire = KfacLayerState::new("wire", 4, 3);
        let mut oracle: [Option<Matrix>; 4] = Default::default();
        for (a, g) in &folds {
            square.update_factors(a, g, decay);
            let (sa, sg) = (stale(a), stale(g));
            wire.pack_stats(&KfacStats { a_stat: &sa, g_stat: &sg, batches: 3 });
            wire.fold_wire(decay);
            let [sq_a, sq_g, wire_a, wire_g] = &mut oracle;
            fold(sq_a, a.clone());
            fold(sq_g, g.clone());
            fold(wire_a, a.scaled(1.0 / 3.0));
            fold(wire_g, g.scaled(1.0 / 3.0));
            assert_eq!(bits(&square.factor_a), bits(&oracle[0]), "square A");
            assert_eq!(bits(&square.factor_g), bits(&oracle[1]), "square G");
            assert_eq!(bits(&wire.factor_a), bits(&oracle[2]), "wire A");
            assert_eq!(bits(&wire.factor_g), bits(&oracle[3]), "wire G");
        }
    }

    #[test]
    fn memory_split_separates_factors_from_eigens() {
        let mut rng = Rng::seed_from_u64(214);
        let mut state = KfacLayerState::new("split", 6, 4);
        state.update_factors(&random_psd(6, &mut rng), &random_psd(4, &mut rng), 0.95);
        assert_eq!(state.factor_memory_bytes(Precision::Fp32), (36 + 16) * 4);
        assert_eq!(state.eigen_memory_bytes(Precision::Fp32), 0);
        let (qa, _) = state.eig_a();
        state.qa = Some(qa);
        assert_eq!(state.eigen_memory_bytes(Precision::Fp32), 36 * 4);
        assert_eq!(
            state.memory_bytes(Precision::Fp32),
            state.factor_memory_bytes(Precision::Fp32) + state.eigen_memory_bytes(Precision::Fp32)
        );
    }

    /// Kronecker product (row-major convention): `(B ⊗ C) vec_row(X) =
    /// vec_row(B X Cᵀ)`.
    fn kron(b: &Matrix, c: &Matrix) -> Matrix {
        let (bm, bn) = b.shape();
        let (cm, cn) = c.shape();
        Matrix::from_fn(bm * cm, bn * cn, |r, col| {
            b.get(r / cm, col / cn) * c.get(r % cm, col % cn)
        })
    }

    #[test]
    fn eigen_precondition_is_exact_damped_kronecker_inverse() {
        // Eq. 15–17 computes (Â⊗Ĝ + γI)⁻¹ ∇L *exactly*. Verify against the
        // explicit Kronecker matrix: with grad flattened row-major (g_dim
        // rows of a_dim), the operator G·grad·A corresponds to kron(G, A).
        let mut rng = Rng::seed_from_u64(201);
        let damping = 0.01;
        let (a_dim, g_dim) = (4, 3);
        let mut state = KfacLayerState::new("eq", a_dim, g_dim);
        let a = random_psd(a_dim, &mut rng);
        let g = random_psd(g_dim, &mut rng);
        state.update_factors(&a, &g, 0.0);

        let (qa, va) = state.eig_a();
        let (qg, vg) = state.eig_g();
        state.outer = Some(KfacLayerState::compute_outer(&vg, &va, damping));
        state.qa = Some(qa);
        state.qg = Some(qg);

        let grad = Matrix::randn(g_dim, a_dim, 1.0, &mut rng);
        let via_eigen = state.precondition_eigen(&grad);

        // Explicit: (kron(G, A) + γI)⁻¹ vec_row(grad).
        let mut k = kron(&g, &a);
        k.add_diag(damping);
        let k_inv = kaisa_linalg::lu_inverse(&k).expect("damped Kronecker is invertible");
        let flat = Matrix::from_vec(g_dim * a_dim, 1, grad.as_slice().to_vec());
        let expect_flat = k_inv.matmul(&flat);
        let expect = Matrix::from_vec(g_dim, a_dim, expect_flat.into_vec());

        assert!(
            via_eigen.max_abs_diff(&expect) < 1e-3,
            "eigen method deviates from exact damped inverse by {}",
            via_eigen.max_abs_diff(&expect)
        );
    }

    #[test]
    fn recycled_work_buffers_do_not_change_a_bit() {
        // The products must overwrite whatever a recycled buffer holds: a
        // state fed back its own (poisoned) results has to keep producing
        // what a state that allocates every buffer fresh produces.
        let mut rng = Rng::seed_from_u64(203);
        let damping = 0.003;
        let mut state = KfacLayerState::new("rw", 7, 4);
        state.update_factors(&random_psd(7, &mut rng), &random_psd(4, &mut rng), 0.0);
        let (qa, va) = state.eig_a();
        let (qg, vg) = state.eig_g();
        state.qa = Some(qa);
        state.qg = Some(qg);
        state.outer = Some(KfacLayerState::compute_outer(&vg, &va, damping));
        let mut fresh = state.clone();

        for round in 0..3 {
            let grad = Matrix::randn(4, 7, 1.0, &mut rng);
            let mut reused =
                [state.precondition_eigen(&grad), state.precondition_ekfac(&grad, damping, 0.9)];
            fresh.work.clear();
            let eigen = fresh.precondition_eigen(&grad);
            fresh.work.clear();
            let ekfac = fresh.precondition_ekfac(&grad, damping, 0.9);
            assert_eq!(reused, [eigen, ekfac], "round {round}");
            for m in &mut reused {
                m.map_inplace(|_| f32::NAN);
            }
            let [a, b] = reused;
            state.recycle(a);
            state.recycle(b);
            state.recycle(Matrix::zeros(7, 4)); // wrong shape: dropped
            assert_eq!(state.work.len(), 2, "a step keeps two buffers, no more");
            assert!(state.work.iter().all(|m| m.shape() == (4, 7)));
        }
    }

    #[test]
    fn preconditioning_shrinks_high_curvature_directions() {
        // With A = diag(100, 1) and G = I, the preconditioner must shrink
        // the first column of the gradient ~100x more than the second.
        let mut state = KfacLayerState::new("hc", 2, 2);
        let mut a = Matrix::zeros(2, 2);
        a.set(0, 0, 100.0);
        a.set(1, 1, 1.0);
        state.update_factors(&a, &Matrix::identity(2), 0.0);
        let (qa, va) = state.eig_a();
        let (qg, vg) = state.eig_g();
        state.outer = Some(KfacLayerState::compute_outer(&vg, &va, 0.001));
        state.qa = Some(qa);
        state.qg = Some(qg);
        let grad = Matrix::full(2, 2, 1.0);
        let p = state.precondition_eigen(&grad);
        let ratio = p.get(0, 1) / p.get(0, 0);
        assert!(ratio > 50.0, "curvature scaling ratio {ratio}");
    }

    #[test]
    fn memory_accounting_tracks_population() {
        let mut rng = Rng::seed_from_u64(203);
        let mut state = KfacLayerState::new("mem", 8, 4);
        assert_eq!(state.memory_bytes(Precision::Fp32), 0);
        state.update_factors(&random_psd(8, &mut rng), &random_psd(4, &mut rng), 0.0);
        let factors_only = state.memory_bytes(Precision::Fp32);
        assert_eq!(factors_only, (64 + 16) * 4);
        let (qa, va) = state.eig_a();
        let (qg, vg) = state.eig_g();
        state.qa = Some(qa);
        state.qg = Some(qg);
        state.outer = Some(KfacLayerState::compute_outer(&vg, &va, 0.003));
        let with_eig = state.memory_bytes(Precision::Fp32);
        assert_eq!(with_eig, factors_only + (64 + 16 + 32) * 4);
        // Half precision halves it.
        assert_eq!(state.memory_bytes(Precision::Fp16), with_eig / 2);
    }

    #[test]
    fn ekfac_first_step_matches_kfac_then_adapts() {
        // With the scale seeded from the K-FAC outer product, the first
        // EK-FAC step equals plain K-FAC; subsequent steps incorporate the
        // corrected moments and diverge.
        let mut rng = Rng::seed_from_u64(205);
        let damping = 0.003;
        let mut state = KfacLayerState::new("ek", 5, 4);
        state.update_factors(&random_psd(5, &mut rng), &random_psd(4, &mut rng), 0.0);
        let (qa, va) = state.eig_a();
        let (qg, vg) = state.eig_g();
        state.outer = Some(KfacLayerState::compute_outer(&vg, &va, damping));
        state.qa = Some(qa);
        state.qg = Some(qg);

        let grad = Matrix::randn(4, 5, 1.0, &mut rng);
        let kfac = state.precondition_eigen(&grad);
        let ek1 = state.precondition_ekfac(&grad, damping, 0.95);
        assert!(
            ek1.max_abs_diff(&kfac) < 1e-5,
            "seeded EK-FAC must match K-FAC: {}",
            ek1.max_abs_diff(&kfac)
        );
        // Feed several steps of a different gradient: the corrected moments
        // shift and the output departs from plain K-FAC.
        let grad2 = Matrix::randn(4, 5, 3.0, &mut rng);
        let mut last = Matrix::zeros(4, 5);
        for _ in 0..10 {
            last = state.precondition_ekfac(&grad2, damping, 0.5);
        }
        let kfac2 = state.precondition_eigen(&grad2);
        assert!(
            last.max_abs_diff(&kfac2) > 1e-4,
            "corrected moments should change the preconditioner"
        );
        assert!(last.is_finite());
    }

    #[test]
    fn ekfac_scale_converges_to_squared_projection() {
        // Repeating one gradient drives S -> V1 squared, so the
        // preconditioned projection approaches V1 / (V1 squared + damping).
        let mut rng = Rng::seed_from_u64(206);
        let damping = 0.01;
        let mut state = KfacLayerState::new("fix", 3, 3);
        state.update_factors(&random_psd(3, &mut rng), &random_psd(3, &mut rng), 0.0);
        let (qa, va) = state.eig_a();
        let (qg, vg) = state.eig_g();
        state.outer = Some(KfacLayerState::compute_outer(&vg, &va, damping));
        state.qa = Some(qa.clone());
        state.qg = Some(qg.clone());
        let grad = Matrix::randn(3, 3, 1.0, &mut rng);
        for _ in 0..200 {
            let _ = state.precondition_ekfac(&grad, damping, 0.9);
        }
        let v1 = qg.matmul_tn(&grad).matmul(&qa);
        let scale = state.ekfac_scale.as_ref().unwrap();
        for (s, v) in scale.as_slice().iter().zip(v1.as_slice()) {
            assert!((s - v * v).abs() < 0.05 * (v * v).max(0.05), "s={s} v2={}", v * v);
        }
    }

    #[test]
    fn factor_wire_carries_the_square_payload_bitwise() {
        // The wire holds `A`'s then `G`'s lower triangle, row-packed and
        // finalized; the first fold rebuilds exactly the finalized square
        // factors, and fp16 rounds the payload element for element.
        let mut rng = Rng::seed_from_u64(207);
        let (a, g) = (random_psd(5, &mut rng), random_psd(3, &mut rng));
        let mut state = KfacLayerState::new("wire", 5, 3);
        state.pack_stats(&KfacStats { a_stat: &a, g_stat: &g, batches: 2 });
        assert_eq!(state.wire.len(), packed_len(5) + packed_len(3));
        assert_eq!(state.wire[..3], [a.get(0, 0) * 0.5, a.get(1, 0) * 0.5, a.get(1, 1) * 0.5]);
        let mut half = state.clone();
        state.fold_wire(0.9);
        assert_eq!(state.factor_a.as_ref().unwrap(), &a.scaled(0.5));
        assert_eq!(state.factor_g.as_ref().unwrap(), &g.scaled(0.5));

        quantize_slice(&mut half.wire, Precision::Fp16);
        half.fold_wire(0.9);
        let mut expect = a.scaled(0.5);
        expect.quantize(Precision::Fp16);
        assert_eq!(half.factor_a.as_ref().unwrap(), &expect);
    }

    #[test]
    fn damping_bounds_preconditioned_magnitude() {
        // Even a singular factor must produce finite output: the damped
        // denominator is ≥ γ.
        let mut state = KfacLayerState::new("sing", 3, 3);
        let v = [1.0f32, 1.0, 1.0];
        state.update_factors(&Matrix::outer(&v, &v), &Matrix::outer(&v, &v), 0.0);
        let (qa, va) = state.eig_a();
        let (qg, vg) = state.eig_g();
        state.qa = Some(qa);
        state.qg = Some(qg);
        state.outer = Some(KfacLayerState::compute_outer(&vg, &va, 0.003));
        let grad = Matrix::full(3, 3, 1.0);
        let p = state.precondition_eigen(&grad);
        assert!(p.is_finite());
        assert!(p.max_abs() <= 1.0 / 0.003 * grad.max_abs() * 9.0);
    }
}
