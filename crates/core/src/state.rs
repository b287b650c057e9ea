//! Per-layer K-FAC state: running factors and cached eigendecompositions,
//! plus the pure pack/unpack kernels the stage pipeline uses as task bodies.

use kaisa_linalg::{
    pack_upper, packed_len, spd_inverse, sym_eig_with_scratch, unpack_upper, EigScratch,
};
use kaisa_tensor::{Matrix, Precision};

/// Quantize a payload to the storage precision in place (no-op at fp32).
pub fn quantize_slice(buf: &mut [f32], precision: Precision) {
    if precision.is_half() {
        kaisa_tensor::f16::quantize_slice_f16(buf);
    }
}

/// Pack both batch factors into one allreduce payload at the storage
/// precision (the factor-allreduce *begin* task body). Returns the payload
/// and the element index where the `G` section starts.
pub fn pack_factor_payload(
    a: &Matrix,
    g: &Matrix,
    triangular: bool,
    precision: Precision,
) -> (Vec<f32>, usize) {
    let mut buf = if triangular {
        // Section 4.3: send only the upper triangles, rebuild after.
        let mut packed = pack_upper(a);
        packed.extend_from_slice(&pack_upper(g));
        packed
    } else {
        let mut flat = Vec::with_capacity(a.numel() + g.numel());
        flat.extend_from_slice(a.as_slice());
        flat.extend_from_slice(g.as_slice());
        flat
    };
    let split = if triangular { packed_len(a.rows()) } else { a.numel() };
    quantize_slice(&mut buf, precision);
    (buf, split)
}

/// Rebuild the two factor matrices from an averaged payload (the
/// factor-allreduce *complete* task body): re-quantize, then unpack.
pub fn unpack_factor_payload(
    buf: &mut [f32],
    split: usize,
    a_rows: usize,
    g_rows: usize,
    triangular: bool,
    precision: Precision,
) -> (Matrix, Matrix) {
    quantize_slice(buf, precision);
    if triangular {
        (unpack_upper(&buf[..split], a_rows), unpack_upper(&buf[split..], g_rows))
    } else {
        (
            Matrix::from_vec(a_rows, a_rows, buf[..split].to_vec()),
            Matrix::from_vec(g_rows, g_rows, buf[split..].to_vec()),
        )
    }
}

/// Logical element count of the factor payload on the wire.
pub fn factor_payload_len(a_rows: usize, g_rows: usize, triangular: bool) -> usize {
    if triangular {
        packed_len(a_rows) + packed_len(g_rows)
    } else {
        a_rows * a_rows + g_rows * g_rows
    }
}

/// Wire-layout element count of a single factor section.
pub fn packed_factor_len(rows: usize, triangular: bool) -> usize {
    if triangular {
        packed_len(rows)
    } else {
        rows * rows
    }
}

/// Pack both batch factors into `buf` (cleared and reused across factor
/// steps), scaling every element by `scale` during the copy, then quantize
/// to the storage precision. Returns the element index where the `G`
/// section starts.
///
/// This fuses the dense reference's `scale()` + [`pack_factor_payload`]
/// into one pass over the statistics so the sharded path can stage its
/// reduce-scatter payload without materializing scaled square matrices.
/// `x * scale` per element is the exact product `Matrix::scale` computes,
/// and quantization still runs over the identical packed values, so the
/// staged payload is bitwise identical to the dense reference's.
pub fn pack_factor_payload_scaled_into(
    buf: &mut Vec<f32>,
    a: &Matrix,
    g: &Matrix,
    scale: f32,
    triangular: bool,
    precision: Precision,
) -> usize {
    buf.clear();
    if triangular {
        for m in [a, g] {
            for r in 0..m.rows() {
                buf.extend(m.row(r)[r..].iter().map(|&x| x * scale));
            }
        }
    } else {
        buf.extend(a.as_slice().iter().map(|&x| x * scale));
        buf.extend(g.as_slice().iter().map(|&x| x * scale));
    }
    let split = packed_factor_len(a.rows(), triangular);
    quantize_slice(buf, precision);
    split
}

/// A factor running average stored in its packed wire layout — exactly the
/// shard section a reduce-scatter delivers (flat row-major square, or the
/// upper triangle under `triangular_comm`) — so shard owners never hold a
/// square matrix between decomposition steps.
#[derive(Debug, Clone)]
pub struct PackedFactor {
    /// Packed elements at the storage precision (quantized in place).
    pub data: Vec<f32>,
    /// Whether `data` is an upper-triangle packing (Section 4.3) rather
    /// than a flat row-major square.
    pub triangular: bool,
}

impl PackedFactor {
    /// Materialize the square symmetric matrix this packing represents.
    /// Unpacking mirrors bit-equal elements, so the result is bitwise
    /// identical to a square matrix maintained by the same folds.
    pub fn to_matrix(&self, rows: usize) -> Matrix {
        debug_assert_eq!(self.data.len(), packed_factor_len(rows, self.triangular));
        if self.triangular {
            unpack_upper(&self.data, rows)
        } else {
            Matrix::from_vec(rows, rows, self.data.clone())
        }
    }
}

/// The single EMA fold kernel for square factor state: first fold moves the
/// fresh matrix in, later folds compute `x ← (1-decay)·x̂ + decay·x` — the
/// exact `axpby` expression, so every square path shares one semantics.
fn ema_fold_matrix(slot: &mut Option<Matrix>, fresh: Matrix, decay: f32) {
    match slot {
        Some(m) => m.axpby(1.0 - decay, &fresh, decay),
        None => *slot = Some(fresh),
    }
}

/// The packed-space twin of [`ema_fold_matrix`]: identical first-fold and
/// decay semantics, applied elementwise to the packed layout. Because the
/// EMA is elementwise and square/packed layouts hold bit-equal elements,
/// folding here then unpacking is bitwise identical to unpacking then
/// folding in square space.
fn ema_fold_packed(slot: &mut Option<PackedFactor>, fresh: &[f32], triangular: bool, decay: f32) {
    match slot {
        Some(p) => {
            debug_assert_eq!(p.triangular, triangular, "packed layout changed mid-run");
            debug_assert_eq!(p.data.len(), fresh.len());
            for (x, f) in p.data.iter_mut().zip(fresh) {
                *x = (1.0 - decay) * *f + decay * *x;
            }
        }
        None => *slot = Some(PackedFactor { data: fresh.to_vec(), triangular }),
    }
}

/// Running Kronecker-factor state and decomposition caches for one layer.
///
/// Which fields are populated on a given rank depends on the distribution
/// plan: under the dense path, factors `A`/`G` live on every rank (they are
/// allreduced); under sharded reduction (`KfacConfig::sharded_factors`),
/// only on the rank that eigendecomposes them. The eigendecomposition
/// caches live only on that layer's gradient workers — this is exactly the
/// memory/communication knob Figure 6 of the paper measures.
#[derive(Debug, Clone)]
pub struct KfacLayerState {
    /// Layer name (diagnostics).
    pub name: String,
    /// `A` factor dimension.
    pub a_dim: usize,
    /// `G` factor dimension.
    pub g_dim: usize,
    /// Running average of `A = E[a aᵀ]` in square form (dense path; `None`
    /// everywhere on the shard-resident path).
    pub factor_a: Option<Matrix>,
    /// Running average of `G = E[g gᵀ]` in square form (dense path).
    pub factor_g: Option<Matrix>,
    /// Shard-resident running average of `A`, kept in the packed wire
    /// layout on the layer's A-eigendecomposition worker only.
    pub packed_a: Option<PackedFactor>,
    /// Shard-resident running average of `G`, on the G-worker only.
    pub packed_g: Option<PackedFactor>,
    /// Eigenvectors of `A` (columns), cached on gradient workers.
    pub qa: Option<Matrix>,
    /// Eigenvectors of `G` (columns), cached on gradient workers.
    pub qg: Option<Matrix>,
    /// Precomputed `1/(v_G v_Aᵀ + γ)` (Section 4.4), on gradient workers.
    pub outer: Option<Matrix>,
    /// Eigenvalues of `A` (only kept when the outer product is *not*
    /// precomputed, for the Section 4.4 ablation).
    pub va: Option<Vec<f32>>,
    /// Eigenvalues of `G` (ablation path).
    pub vg: Option<Vec<f32>>,
    /// Damped inverse of `A` (the Eq. 12–14 fallback when `use_eigen` is
    /// off).
    pub inv_a: Option<Matrix>,
    /// Damped inverse of `G` (fallback path).
    pub inv_g: Option<Matrix>,
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
            packed_a: None,
            packed_g: None,
            qa: None,
            qg: None,
            outer: None,
            va: None,
            vg: None,
            inv_a: None,
            inv_g: None,
            ekfac_scale: None,
            work: Vec::new(),
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

    /// Fold freshly-averaged batch factors into the running averages:
    /// `A ← decay·A + (1-decay)·Â` (first update sets `A = Â`).
    pub fn update_factors(&mut self, a_new: Matrix, g_new: Matrix, decay: f32) {
        self.update_factor_a(a_new, decay);
        self.update_factor_g(g_new, decay);
    }

    /// Fold only the `A` running average (sharded reduction: each factor is
    /// folded on its owning eigendecomposition worker alone). Shares its
    /// first-fold/decay semantics with [`KfacLayerState::update_factors`]
    /// through the single `ema_fold_matrix` kernel.
    pub fn update_factor_a(&mut self, a_new: Matrix, decay: f32) {
        debug_assert_eq!(a_new.shape(), (self.a_dim, self.a_dim));
        ema_fold_matrix(&mut self.factor_a, a_new, decay);
    }

    /// Fold only the `G` running average.
    pub fn update_factor_g(&mut self, g_new: Matrix, decay: f32) {
        debug_assert_eq!(g_new.shape(), (self.g_dim, self.g_dim));
        ema_fold_matrix(&mut self.factor_g, g_new, decay);
    }

    /// Fold a freshly-averaged packed `A` section straight into the
    /// shard-resident running average — decay applied in packed space, no
    /// square matrix materialized.
    pub fn update_packed_a(&mut self, section: &[f32], triangular: bool, decay: f32) {
        debug_assert_eq!(section.len(), packed_factor_len(self.a_dim, triangular));
        ema_fold_packed(&mut self.packed_a, section, triangular, decay);
    }

    /// Fold a freshly-averaged packed `G` section into the shard-resident
    /// running average.
    pub fn update_packed_g(&mut self, section: &[f32], triangular: bool, decay: f32) {
        debug_assert_eq!(section.len(), packed_factor_len(self.g_dim, triangular));
        ema_fold_packed(&mut self.packed_g, section, triangular, decay);
    }

    /// Materialize the square running `A` factor: a clone of the dense
    /// matrix when held square, otherwise a transient unpacking of the
    /// shard-resident state.
    ///
    /// # Panics
    /// If no factor has been accumulated yet.
    pub fn square_factor_a(&self) -> Matrix {
        match (&self.factor_a, &self.packed_a) {
            (Some(a), _) => a.clone(),
            (None, Some(p)) => p.to_matrix(self.a_dim),
            (None, None) => panic!("A factor not yet accumulated"),
        }
    }

    /// Materialize the square running `G` factor.
    pub fn square_factor_g(&self) -> Matrix {
        match (&self.factor_g, &self.packed_g) {
            (Some(g), _) => g.clone(),
            (None, Some(p)) => p.to_matrix(self.g_dim),
            (None, None) => panic!("G factor not yet accumulated"),
        }
    }

    /// Eigendecompose the running `A` factor; returns `(Q_A, v_A)`. On the
    /// shard-resident path the square input is materialized transiently
    /// here and dropped with the call.
    ///
    /// # Panics
    /// If no factor has been accumulated yet.
    pub fn eig_a(&self) -> (Matrix, Vec<f32>) {
        self.eig_a_with(&mut EigScratch::new())
    }

    /// [`Self::eig_a`] on a caller-held solver workspace (`Kfac` keeps one
    /// for all its decompositions, so a solve allocates only its result).
    pub fn eig_a_with(&self, scratch: &mut EigScratch) -> (Matrix, Vec<f32>) {
        let eig = match (&self.factor_a, &self.packed_a) {
            (Some(a), _) => sym_eig_with_scratch(a, scratch),
            (None, Some(p)) => sym_eig_with_scratch(&p.to_matrix(self.a_dim), scratch),
            (None, None) => panic!("A factor not yet accumulated"),
        };
        let eig = eig.expect("A factor eigendecomposition failed");
        (eig.vectors, eig.values)
    }

    /// Eigendecompose the running `G` factor; returns `(Q_G, v_G)`.
    pub fn eig_g(&self) -> (Matrix, Vec<f32>) {
        self.eig_g_with(&mut EigScratch::new())
    }

    /// [`Self::eig_g`] on a caller-held solver workspace.
    pub fn eig_g_with(&self, scratch: &mut EigScratch) -> (Matrix, Vec<f32>) {
        let eig = match (&self.factor_g, &self.packed_g) {
            (Some(g), _) => sym_eig_with_scratch(g, scratch),
            (None, Some(p)) => sym_eig_with_scratch(&p.to_matrix(self.g_dim), scratch),
            (None, None) => panic!("G factor not yet accumulated"),
        };
        let eig = eig.expect("G factor eigendecomposition failed");
        (eig.vectors, eig.values)
    }

    /// Compute the damped eigenvalue reciprocal outer product
    /// `1/(v_G v_Aᵀ + γ)` of Eq. 16.
    pub fn compute_outer(vg: &[f32], va: &[f32], damping: f32) -> Matrix {
        let mut outer = Matrix::outer(vg, va);
        outer.map_inplace(|x| 1.0 / (x.max(0.0) + damping));
        outer
    }

    /// Compute the damped direct inverses `(A+γI)⁻¹`, `(G+γI)⁻¹` of Eq. 12
    /// (the non-eigendecomposition fallback).
    pub fn compute_inverses(&mut self, damping: f32) {
        let mut a = self.square_factor_a();
        a.add_diag(damping);
        let mut g = self.square_factor_g();
        g.add_diag(damping);
        self.inv_a = Some(spd_inverse(&a).expect("damped A must be SPD"));
        self.inv_g = Some(spd_inverse(&g).expect("damped G must be SPD"));
    }

    /// Precondition a combined gradient (`g_dim x a_dim`) through the cached
    /// eigendecompositions (Eq. 15–17). Requires `qa`, `qg`, and either the
    /// precomputed `outer` or both eigenvalue vectors plus `damping`. The
    /// four products ping-pong between the state's two work buffers;
    /// [`KfacLayerState::recycle`] the result when done with it.
    pub fn precondition_eigen(&mut self, grad: &Matrix, damping: f32) -> Matrix {
        let (mut t, mut v) = (self.take_work(), self.take_work());
        let qa = self.qa.as_ref().expect("Q_A not cached on this rank");
        let qg = self.qg.as_ref().expect("Q_G not cached on this rank");
        qg.matmul_tn_into(grad, &mut t);
        t.matmul_into(qa, &mut v);
        match &self.outer {
            Some(outer) => v.hadamard_assign(outer),
            None => {
                let va = self.va.as_ref().expect("v_A not cached (ablation path)");
                let vg = self.vg.as_ref().expect("v_G not cached (ablation path)");
                let outer = Self::compute_outer(vg, va, damping);
                v.hadamard_assign(&outer);
            }
        }
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
                let seed = match &self.outer {
                    Some(outer) => {
                        let mut s = outer.map(|x| 1.0 / x - damping);
                        s.map_inplace(|x| x.max(0.0));
                        s
                    }
                    None => t.clone(),
                };
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

    /// Precondition through the damped direct inverses (Eq. 14 fallback).
    pub fn precondition_inverse(&mut self, grad: &Matrix) -> Matrix {
        let (mut t, mut v) = (self.take_work(), self.take_work());
        let inv_a = self.inv_a.as_ref().expect("A inverse not cached");
        let inv_g = self.inv_g.as_ref().expect("G inverse not cached");
        inv_g.matmul_into(grad, &mut t);
        t.matmul_into(inv_a, &mut v);
        self.recycle(t);
        v
    }

    /// Bytes of running factor state held on this rank at the given storage
    /// precision: square matrices on the dense path, packed shard sections
    /// on the shard-resident path.
    pub fn factor_memory_bytes(&self, precision: Precision) -> usize {
        let b = precision.bytes_per_element();
        let mat = |m: &Option<Matrix>| m.as_ref().map_or(0, |m| m.numel() * b);
        let packed = |p: &Option<PackedFactor>| p.as_ref().map_or(0, |p| p.data.len() * b);
        mat(&self.factor_a) + mat(&self.factor_g) + packed(&self.packed_a) + packed(&self.packed_g)
    }

    /// Bytes of cached decomposition state (eigenvectors, outer product,
    /// direct inverses, eigenvalue vectors, EK-FAC corrected moments).
    pub fn eigen_memory_bytes(&self, precision: Precision) -> usize {
        let b = precision.bytes_per_element();
        let mat = |m: &Option<Matrix>| m.as_ref().map_or(0, |m| m.numel() * b);
        let vec = |v: &Option<Vec<f32>>| v.as_ref().map_or(0, |v| v.len() * b);
        mat(&self.qa)
            + mat(&self.qg)
            + mat(&self.outer)
            + mat(&self.inv_a)
            + mat(&self.inv_g)
            + mat(&self.ekfac_scale)
            + vec(&self.va)
            + vec(&self.vg)
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
        state.update_factors(a1.clone(), g1.clone(), 0.9);
        assert_eq!(state.factor_a.as_ref().unwrap(), &a1, "first update is a copy");
        let a2 = Matrix::identity(2).scaled(3.0);
        state.update_factors(a2, g1.clone(), 0.9);
        // 0.9*1 + 0.1*3 = 1.2 on the diagonal.
        assert!((state.factor_a.as_ref().unwrap().get(0, 0) - 1.2).abs() < 1e-6);
    }

    #[test]
    fn first_fold_semantics_unified_across_paths() {
        // update_factors, the single-factor updates, and the packed updates
        // all route through one EMA kernel: the first fold is a plain
        // move-in, later folds apply (1-decay)·fresh + decay·old. All three
        // paths must agree bitwise, fold for fold.
        let mut rng = Rng::seed_from_u64(208);
        let decay = 0.95;
        let folds: Vec<(Matrix, Matrix)> =
            (0..3).map(|_| (random_psd(4, &mut rng), random_psd(3, &mut rng))).collect();

        let mut joint = KfacLayerState::new("joint", 4, 3);
        let mut single = KfacLayerState::new("single", 4, 3);
        let mut packed = KfacLayerState::new("packed", 4, 3);
        for (a, g) in &folds {
            joint.update_factors(a.clone(), g.clone(), decay);
            single.update_factor_a(a.clone(), decay);
            single.update_factor_g(g.clone(), decay);
            packed.update_packed_a(a.as_slice(), false, decay);
            packed.update_packed_g(g.as_slice(), false, decay);
            assert_eq!(
                joint.factor_a.as_ref().unwrap().as_slice(),
                single.factor_a.as_ref().unwrap().as_slice()
            );
            assert_eq!(
                joint.factor_g.as_ref().unwrap().as_slice(),
                single.factor_g.as_ref().unwrap().as_slice()
            );
            assert_eq!(
                joint.factor_a.as_ref().unwrap().as_slice(),
                packed.square_factor_a().as_slice()
            );
            assert_eq!(
                joint.factor_g.as_ref().unwrap().as_slice(),
                packed.square_factor_g().as_slice()
            );
        }
    }

    #[test]
    fn packed_triangular_fold_matches_square_fold_bitwise() {
        // Folding in the triangular packed layout then unpacking must equal
        // unpacking then folding in square space, bit for bit: the EMA is
        // elementwise and unpack mirrors bit-equal elements.
        let mut rng = Rng::seed_from_u64(209);
        let decay = 0.9;
        let mut square = KfacLayerState::new("sq", 5, 5);
        let mut packed = KfacLayerState::new("pk", 5, 5);
        for _ in 0..4 {
            let fresh = random_psd(5, &mut rng);
            let tri = pack_upper(&fresh);
            square.update_factor_a(unpack_upper(&tri, 5), decay);
            packed.update_packed_a(&tri, true, decay);
            assert_eq!(
                square.factor_a.as_ref().unwrap().as_slice(),
                packed.square_factor_a().as_slice()
            );
        }
        // The decomposition consumes identical inputs, so identical outputs.
        let (q_sq, v_sq) = square.eig_a();
        let (q_pk, v_pk) = packed.eig_a();
        assert_eq!(q_sq.as_slice(), q_pk.as_slice());
        assert_eq!(v_sq, v_pk);
    }

    #[test]
    fn scaled_pack_matches_scale_then_pack() {
        let mut rng = Rng::seed_from_u64(210);
        let a = random_psd(5, &mut rng);
        let g = random_psd(3, &mut rng);
        let scale = 1.0 / 3.0f32;
        for triangular in [false, true] {
            for precision in [Precision::Fp32, Precision::Fp16] {
                let mut a_scaled = a.clone();
                a_scaled.scale(scale);
                let mut g_scaled = g.clone();
                g_scaled.scale(scale);
                let (reference, ref_split) =
                    pack_factor_payload(&a_scaled, &g_scaled, triangular, precision);
                let mut fused = Vec::new();
                let split = pack_factor_payload_scaled_into(
                    &mut fused, &a, &g, scale, triangular, precision,
                );
                assert_eq!(split, ref_split, "tri={triangular} prec={precision:?}");
                assert_eq!(fused, reference, "tri={triangular} prec={precision:?}");
            }
        }
    }

    #[test]
    fn memory_split_separates_factors_from_eigens() {
        let mut rng = Rng::seed_from_u64(214);
        let mut state = KfacLayerState::new("split", 6, 4);
        state.update_packed_a(&pack_upper(&random_psd(6, &mut rng)), true, 0.95);
        assert_eq!(state.factor_memory_bytes(Precision::Fp32), packed_len(6) * 4);
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
        state.update_factors(a.clone(), g.clone(), 0.0);

        let (qa, va) = state.eig_a();
        let (qg, vg) = state.eig_g();
        state.outer = Some(KfacLayerState::compute_outer(&vg, &va, damping));
        state.qa = Some(qa);
        state.qg = Some(qg);

        let grad = Matrix::randn(g_dim, a_dim, 1.0, &mut rng);
        let via_eigen = state.precondition_eigen(&grad, damping);

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
    fn inverse_fallback_approximates_eigen_at_small_damping() {
        // (A+γI)⁻¹⊗(G+γI)⁻¹ (Eq. 12) differs from (Â⊗Ĝ+γI)⁻¹ (Eq. 15–17)
        // by O(γ) cross terms; at small damping they must agree closely.
        let mut rng = Rng::seed_from_u64(204);
        let damping = 1e-4;
        let mut state = KfacLayerState::new("approx", 5, 4);
        let mut a = random_psd(5, &mut rng);
        a.add_diag(0.5); // keep well-conditioned so γ is truly small
        let mut g = random_psd(4, &mut rng);
        g.add_diag(0.5);
        state.update_factors(a, g, 0.0);
        let (qa, va) = state.eig_a();
        let (qg, vg) = state.eig_g();
        state.outer = Some(KfacLayerState::compute_outer(&vg, &va, damping));
        state.qa = Some(qa);
        state.qg = Some(qg);
        state.compute_inverses(damping);

        let grad = Matrix::randn(4, 5, 1.0, &mut rng);
        let via_eigen = state.precondition_eigen(&grad, damping);
        let via_inverse = state.precondition_inverse(&grad);
        let rel = via_eigen.max_abs_diff(&via_inverse) / via_eigen.max_abs().max(1e-9);
        assert!(rel < 0.01, "methods differ by {rel} relative at tiny damping");
    }

    #[test]
    fn recycled_work_buffers_do_not_change_a_bit() {
        // The products must overwrite whatever a recycled buffer holds: a
        // state fed back its own (poisoned) results has to keep producing
        // what a state that allocates every buffer fresh produces.
        let mut rng = Rng::seed_from_u64(203);
        let damping = 0.003;
        let mut state = KfacLayerState::new("rw", 7, 4);
        state.update_factors(random_psd(7, &mut rng), random_psd(4, &mut rng), 0.0);
        let (qa, va) = state.eig_a();
        let (qg, vg) = state.eig_g();
        state.qa = Some(qa);
        state.qg = Some(qg);
        state.outer = Some(KfacLayerState::compute_outer(&vg, &va, damping));
        state.compute_inverses(damping);
        let mut fresh = state.clone();

        for round in 0..3 {
            let grad = Matrix::randn(4, 7, 1.0, &mut rng);
            let mut reused = [
                state.precondition_eigen(&grad, damping),
                state.precondition_inverse(&grad),
                state.precondition_ekfac(&grad, damping, 0.9),
            ];
            fresh.work.clear();
            let eigen = fresh.precondition_eigen(&grad, damping);
            fresh.work.clear();
            let inverse = fresh.precondition_inverse(&grad);
            fresh.work.clear();
            let ekfac = fresh.precondition_ekfac(&grad, damping, 0.9);
            assert_eq!(reused, [eigen, inverse, ekfac], "round {round}");
            for m in &mut reused {
                m.map_inplace(|_| f32::NAN);
            }
            let [a, b, c] = reused;
            state.recycle(a);
            state.recycle(b);
            state.recycle(c);
            state.recycle(Matrix::zeros(7, 4)); // wrong shape: dropped
            assert_eq!(state.work.len(), 2, "a step keeps two buffers, no more");
            assert!(state.work.iter().all(|m| m.shape() == (4, 7)));
        }
    }

    #[test]
    fn ablation_path_matches_precomputed_outer() {
        let mut rng = Rng::seed_from_u64(202);
        let damping = 0.003;
        let mut state = KfacLayerState::new("ab", 5, 5);
        state.update_factors(random_psd(5, &mut rng), random_psd(5, &mut rng), 0.0);
        let (qa, va) = state.eig_a();
        let (qg, vg) = state.eig_g();
        state.qa = Some(qa);
        state.qg = Some(qg);

        let grad = Matrix::randn(5, 5, 1.0, &mut rng);
        // Path 1: precomputed outer.
        state.outer = Some(KfacLayerState::compute_outer(&vg, &va, damping));
        let fast = state.precondition_eigen(&grad, damping);
        // Path 2: recompute from eigenvalues.
        state.outer = None;
        state.va = Some(va);
        state.vg = Some(vg);
        let slow = state.precondition_eigen(&grad, damping);
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    fn preconditioning_shrinks_high_curvature_directions() {
        // With A = diag(100, 1) and G = I, the preconditioner must shrink
        // the first column of the gradient ~100x more than the second.
        let mut state = KfacLayerState::new("hc", 2, 2);
        let mut a = Matrix::zeros(2, 2);
        a.set(0, 0, 100.0);
        a.set(1, 1, 1.0);
        state.update_factors(a, Matrix::identity(2), 0.0);
        let (qa, va) = state.eig_a();
        let (qg, vg) = state.eig_g();
        state.outer = Some(KfacLayerState::compute_outer(&vg, &va, 0.001));
        state.qa = Some(qa);
        state.qg = Some(qg);
        let grad = Matrix::full(2, 2, 1.0);
        let p = state.precondition_eigen(&grad, 0.001);
        let ratio = p.get(0, 1) / p.get(0, 0);
        assert!(ratio > 50.0, "curvature scaling ratio {ratio}");
    }

    #[test]
    fn memory_accounting_tracks_population() {
        let mut rng = Rng::seed_from_u64(203);
        let mut state = KfacLayerState::new("mem", 8, 4);
        assert_eq!(state.memory_bytes(Precision::Fp32), 0);
        state.update_factors(random_psd(8, &mut rng), random_psd(4, &mut rng), 0.0);
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
        state.update_factors(random_psd(5, &mut rng), random_psd(4, &mut rng), 0.0);
        let (qa, va) = state.eig_a();
        let (qg, vg) = state.eig_g();
        state.outer = Some(KfacLayerState::compute_outer(&vg, &va, damping));
        state.qa = Some(qa);
        state.qg = Some(qg);

        let grad = Matrix::randn(4, 5, 1.0, &mut rng);
        let kfac = state.precondition_eigen(&grad, damping);
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
        let kfac2 = state.precondition_eigen(&grad2, damping);
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
        state.update_factors(random_psd(3, &mut rng), random_psd(3, &mut rng), 0.0);
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
    fn factor_payload_roundtrip_both_layouts() {
        let mut rng = Rng::seed_from_u64(207);
        let a = random_psd(5, &mut rng);
        let g = random_psd(3, &mut rng);
        for triangular in [false, true] {
            let (mut buf, split) = pack_factor_payload(&a, &g, triangular, Precision::Fp32);
            assert_eq!(buf.len(), factor_payload_len(5, 3, triangular));
            let (a2, g2) =
                unpack_factor_payload(&mut buf, split, 5, 3, triangular, Precision::Fp32);
            assert_eq!(a.as_slice(), a2.as_slice(), "triangular={triangular}");
            assert_eq!(g.as_slice(), g2.as_slice(), "triangular={triangular}");
        }
        // Half precision rounds the payload.
        let (buf16, _) = pack_factor_payload(&a, &g, false, Precision::Fp16);
        let mut expect = a.as_slice().to_vec();
        expect.extend_from_slice(g.as_slice());
        quantize_slice(&mut expect, Precision::Fp16);
        assert_eq!(buf16, expect);
    }

    #[test]
    fn damping_bounds_preconditioned_magnitude() {
        // Even a singular factor must produce finite output: the damped
        // denominator is ≥ γ.
        let mut state = KfacLayerState::new("sing", 3, 3);
        let v = [1.0f32, 1.0, 1.0];
        state.update_factors(Matrix::outer(&v, &v), Matrix::outer(&v, &v), 0.0);
        let (qa, va) = state.eig_a();
        let (qg, vg) = state.eig_g();
        state.qa = Some(qa);
        state.qg = Some(qg);
        state.outer = Some(KfacLayerState::compute_outer(&vg, &va, 0.003));
        let grad = Matrix::full(3, 3, 1.0);
        let p = state.precondition_eigen(&grad, 0.003);
        assert!(p.is_finite());
        assert!(p.max_abs() <= 1.0 / 0.003 * grad.max_abs() * 9.0);
    }
}
