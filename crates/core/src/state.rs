//! Per-layer K-FAC state: running factors and cached eigendecompositions.
//! The running factors keep the factor wire's form — row-packed lower
//! triangles, the one form a factor takes from the capture's Gram kernels
//! to the running average.

use kaisa_linalg::{sym_eig_packed, EigScratch};
use kaisa_tensor::{pack_lower_scaled, packed_len, Matrix, Precision};

/// Quantize a payload to the storage precision in place (no-op at fp32).
pub fn quantize_slice(buf: &mut [f32], precision: Precision) {
    if precision.is_half() {
        kaisa_tensor::f16::quantize_slice_f16(buf);
    }
}

/// Average a step's summed statistics (the capture's packed buffer) over
/// its `batches` micro-batches in place: each element times `1/batches`,
/// one IEEE multiply, exactly [`Matrix::scale`]'s.
pub(crate) fn average_stats(packed: &mut [f32], batches: usize) {
    let inv = 1.0 / batches.max(1) as f32;
    packed.iter_mut().for_each(|v| *v *= inv);
}

/// The factor wire of two square symmetric matrices: `A`'s lower triangle
/// row-packed, then `G`'s.
fn wire_of(a: &Matrix, g: &Matrix) -> Vec<f32> {
    let (na, ng) = (a.rows(), g.rows());
    let mut wire = vec![0.0; packed_len(na) + packed_len(ng)];
    let (wa, wg) = wire.split_at_mut(packed_len(na));
    pack_lower_scaled(a.as_slice(), na, 1.0, wa);
    pack_lower_scaled(g.as_slice(), ng, 1.0, wg);
    wire
}

/// The single EMA fold kernel for factor state: the first fold copies the
/// fresh triangle in, later folds compute `x ← (1-decay)·x̂ + decay·x` over
/// the packed payload — the exact `axpby` expression — so every fold shares
/// one semantics.
fn ema_fold_packed(slot: &mut Option<Vec<f32>>, packed: &[f32], decay: f32) {
    match slot {
        Some(x) => {
            let (alpha, beta) = (1.0 - decay, decay);
            for (x, &p) in x.iter_mut().zip(packed) {
                *x = alpha * p + beta * *x;
            }
        }
        None => *slot = Some(packed.to_vec()),
    }
}

/// Running Kronecker-factor state and decomposition caches for one layer.
///
/// Which fields are populated on a given rank depends on the distribution
/// plan: factors `A`/`G` live on every rank (they are allreduced), as packed
/// lower triangles in the factor wire's layout — the square form exists
/// only in tests and oracles, through `unpack_lower`. The
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
    /// Running average of `A = E[a aᵀ]`: its lower triangle, row-packed
    /// ([`packed_len`]`(a_dim)` elements, the factor wire's layout).
    pub factor_a: Option<Vec<f32>>,
    /// Running average of `G = E[g gᵀ]`, packed like `factor_a`.
    pub factor_g: Option<Vec<f32>>,
    /// Eigenvectors of `A` (columns), cached on gradient workers.
    pub qa: Option<Matrix>,
    /// Eigenvectors of `G` (columns), cached on gradient workers.
    pub qg: Option<Matrix>,
    /// Precomputed `1/(v_G v_Aᵀ + γ)` (Section 4.4), on gradient workers.
    pub outer: Option<Matrix>,
    /// Up to two idle `g_dim x a_dim` product buffers: `precondition_eigen`
    /// writes its chained products into them instead of allocating one
    /// matrix per product per step, hands the result out as an owned
    /// matrix, and gets it back through [`KfacLayerState::recycle`]. Pure
    /// scratch: not K-FAC state, so neither [`KfacLayerState::memory_bytes`]
    /// nor the `MemoryMeter` (which meters the preconditioned gradients
    /// while they are live) counts it.
    work: Vec<Matrix>,
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
            work: Vec::new(),
        }
    }

    /// A `g_dim x a_dim` buffer with unspecified contents: an idle one if
    /// there is one, else a fresh allocation.
    pub(crate) fn take_work(&mut self) -> Matrix {
        self.work.pop().unwrap_or_else(|| Matrix::zeros(self.g_dim, self.a_dim))
    }

    /// Hand a matrix returned by `precondition_eigen` back for reuse once its
    /// contents are no longer needed. Anything of another shape, or beyond
    /// the two buffers a step uses, is simply dropped.
    pub fn recycle(&mut self, buf: Matrix) {
        if self.work.len() < 2 && buf.shape() == (self.g_dim, self.a_dim) {
            self.work.push(buf);
        }
    }

    /// Fold a factor step's (averaged, quantized) wire — `A`'s lower
    /// triangle row-packed then `G`'s, the capture's statistic buffer —
    /// into the running averages: `A ← decay·A + (1-decay)·Â`, element for
    /// element over the packed triangles (the first fold sets `A = Â`).
    ///
    /// # Panics
    /// If `wire` is not [`packed_len`]`(a_dim) + `[`packed_len`]`(g_dim)` long.
    pub fn fold_wire(&mut self, wire: &[f32], decay: f32) {
        let split = packed_len(self.a_dim);
        let len = split + packed_len(self.g_dim);
        assert_eq!(wire.len(), len, "{}: factor wire length", self.name);
        let (wa, wg) = wire.split_at(split);
        ema_fold_packed(&mut self.factor_a, wa, decay);
        ema_fold_packed(&mut self.factor_g, wg, decay);
    }

    /// Fold symmetric batch factors into the running averages — packed
    /// (only their lower triangles are read) and folded as a factor step's
    /// wire is, for callers that hold square matrices (tests, benchmarks).
    pub fn update_factors(&mut self, a_new: &Matrix, g_new: &Matrix, decay: f32) {
        let dims = (a_new.rows(), g_new.rows());
        assert_eq!(dims, (self.a_dim, self.g_dim), "{}: factor dimensions", self.name);
        self.fold_wire(&wire_of(a_new, g_new), decay);
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
        let eig =
            sym_eig_packed(a, self.a_dim, scratch).expect("A factor eigendecomposition failed");
        (eig.vectors, eig.values)
    }

    /// Eigendecompose the running `G` factor; returns `(Q_G, v_G)`.
    pub fn eig_g(&self) -> (Matrix, Vec<f32>) {
        self.eig_g_with(&mut EigScratch::new())
    }

    /// [`Self::eig_g`] on a caller-held solver workspace.
    pub fn eig_g_with(&self, scratch: &mut EigScratch) -> (Matrix, Vec<f32>) {
        let g = self.factor_g.as_ref().expect("G factor not yet accumulated");
        let eig =
            sym_eig_packed(g, self.g_dim, scratch).expect("G factor eigendecomposition failed");
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

    /// Bytes of running factor state held on this rank at the given storage
    /// precision: the two packed triangles.
    pub fn factor_memory_bytes(&self, precision: Precision) -> usize {
        let b = precision.bytes_per_element();
        let packed = |v: &Option<Vec<f32>>| v.as_ref().map_or(0, |v| v.len() * b);
        packed(&self.factor_a) + packed(&self.factor_g)
    }

    /// Bytes of cached decomposition state (eigenvectors and the outer
    /// product).
    pub fn eigen_memory_bytes(&self, precision: Precision) -> usize {
        let b = precision.bytes_per_element();
        let mat = |m: &Option<Matrix>| m.as_ref().map_or(0, |m| m.numel() * b);
        mat(&self.qa) + mat(&self.qg) + mat(&self.outer)
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
    use kaisa_tensor::{unpack_lower, Rng};

    /// The square matrix a packed running factor stands for.
    fn square(factor: &Option<Vec<f32>>, n: usize) -> Matrix {
        unpack_lower(factor.as_ref().expect("factor accumulated"), n)
    }

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
        assert_eq!(square(&state.factor_a, 2), a1, "first update is a copy");
        let a2 = Matrix::identity(2).scaled(3.0);
        state.update_factors(&a2, &g1, 0.9);
        // 0.9*1 + 0.1*3 = 1.2 on the diagonal.
        assert!((square(&state.factor_a, 2).get(0, 0) - 1.2).abs() < 1e-6);
    }

    #[test]
    fn first_fold_semantics_unified_across_paths() {
        // `update_factors` (square inputs) and a factor step's wire
        // (captured packed triangles, averaged over 3 micro-batches in
        // place) route through one EMA kernel: the first fold is a plain
        // copy, later folds apply (1-decay)·fresh + decay·old. Both packed
        // running factors must agree bitwise, fold for fold, with the
        // square recipe — `scale`, then `axpby`.
        let mut rng = Rng::seed_from_u64(208);
        let decay = 0.95;
        let folds: Vec<(Matrix, Matrix)> =
            (0..3).map(|_| (random_psd(4, &mut rng), random_psd(3, &mut rng))).collect();
        let fold = |slot: &mut Option<Matrix>, fresh: Matrix| match slot {
            Some(m) => m.axpby(1.0 - decay, &fresh, decay),
            None => *slot = Some(fresh),
        };
        let bits = |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|x| x.to_bits()).collect() };

        let mut square_state = KfacLayerState::new("square", 4, 3);
        let mut wire = KfacLayerState::new("wire", 4, 3);
        let mut oracle: [Option<Matrix>; 4] = Default::default();
        for (a, g) in &folds {
            square_state.update_factors(a, g, decay);
            let mut payload = wire_of(a, g);
            average_stats(&mut payload, 3);
            wire.fold_wire(&payload, decay);
            let [sq_a, sq_g, wire_a, wire_g] = &mut oracle;
            fold(sq_a, a.clone());
            fold(sq_g, g.clone());
            fold(wire_a, a.scaled(1.0 / 3.0));
            fold(wire_g, g.scaled(1.0 / 3.0));
            let [sq_a, sq_g, wire_a, wire_g] = oracle.each_ref().map(|m| bits(m.as_ref().unwrap()));
            assert_eq!(bits(&square(&square_state.factor_a, 4)), sq_a, "square A");
            assert_eq!(bits(&square(&square_state.factor_g, 3)), sq_g, "square G");
            assert_eq!(bits(&square(&wire.factor_a, 4)), wire_a, "wire A");
            assert_eq!(bits(&square(&wire.factor_g, 3)), wire_g, "wire G");
        }
    }

    #[test]
    fn memory_split_separates_factors_from_eigens() {
        let mut rng = Rng::seed_from_u64(214);
        let mut state = KfacLayerState::new("split", 6, 4);
        state.update_factors(&random_psd(6, &mut rng), &random_psd(4, &mut rng), 0.95);
        // The packed triangles: 21 + 10 elements.
        assert_eq!(state.factor_memory_bytes(Precision::Fp32), (21 + 10) * 4);
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
            let mut reused = [state.precondition_eigen(&grad), state.precondition_eigen(&grad)];
            fresh.work.clear();
            let eigen = fresh.precondition_eigen(&grad);
            assert_eq!(reused, [eigen.clone(), eigen], "round {round}");
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
        // The packed triangles of the 8x8 and 4x4 factors.
        assert_eq!(factors_only, (36 + 10) * 4);
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
    fn factor_wire_carries_the_square_payload_bitwise() {
        // The wire holds `A`'s then `G`'s lower triangle, row-packed and
        // averaged; the first fold copies it into the running factors,
        // which stand for exactly the averaged square factors, and fp16
        // rounds the payload element for element.
        let mut rng = Rng::seed_from_u64(207);
        let (a, g) = (random_psd(5, &mut rng), random_psd(3, &mut rng));
        let mut state = KfacLayerState::new("wire", 5, 3);
        let mut wire = wire_of(&a, &g);
        average_stats(&mut wire, 2);
        assert_eq!(wire.len(), packed_len(5) + packed_len(3));
        assert_eq!(wire[..3], [a.get(0, 0) * 0.5, a.get(1, 0) * 0.5, a.get(1, 1) * 0.5]);
        let mut half = state.clone();
        state.fold_wire(&wire, 0.9);
        assert_eq!(state.factor_a.as_deref(), Some(&wire[..packed_len(5)]));
        assert_eq!(square(&state.factor_a, 5), a.scaled(0.5));
        assert_eq!(square(&state.factor_g, 3), g.scaled(0.5));

        quantize_slice(&mut wire, Precision::Fp16);
        half.fold_wire(&wire, 0.9);
        let mut expect = a.scaled(0.5);
        expect.quantize(Precision::Fp16);
        assert_eq!(square(&half.factor_a, 5), expect);
    }

    #[test]
    fn fold_is_the_square_axpby_bitwise() {
        // Average in place then fold into the packed running factor,
        // against the square recipe: `scale` the fresh matrix, then `axpby`
        // it into the running one. Sizes straddle the 32-wide tiles.
        let mut rng = Rng::seed_from_u64(52);
        for &n in &[1usize, 5, 31, 32, 33, 65] {
            let running = Matrix::randn(2 * n, n, 1.0, &mut rng).gram_tn();
            let fresh = Matrix::randn(n + 3, n, 1.0, &mut rng).gram_tn();
            let g = Matrix::identity(1);
            let decay = 0.95;
            let mut state = KfacLayerState::new("fold", n, 1);
            state.update_factors(&running, &g, 0.0);
            let mut wire = wire_of(&fresh, &g);
            average_stats(&mut wire, 3);
            state.fold_wire(&wire, decay);

            let (mut scaled, mut square_running) = (fresh.clone(), running.clone());
            scaled.scale(1.0 / 3.0);
            square_running.axpby(1.0 - decay, &scaled, decay);
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&square(&state.factor_a, n)), bits(&square_running), "n={n}");
        }
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
