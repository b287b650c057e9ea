//! Symmetric rank-k (SYRK) fast path for factor statistics: `C = AᵀA`.
//!
//! Every K-FAC factor statistic is a Gram product — `A = aᵀa`, `G = gᵀg` —
//! whose output is symmetric, so a full GEMM wastes half its multiply-adds.
//! One lower-triangle sweep computes only `C[i, j]` with `j ≤ i`, each with
//! the identical per-`kk`-ascending mul-then-add sequence as
//! [`gemm_tn_with`](crate::gemm_tn_with), and is told only where row `i` of
//! `C` starts: `i·m` in a square `m x m` matrix, `i(i+1)/2` in the
//! row-packed lower triangle ([`crate::packed_len`]).
//!
//! * [`syrk_tn_with`] and [`syrk_nt_with`] write a square `C` and then
//!   mirror its lower triangle into the upper with an exact bit copy
//!   ([`mirror_lower`]). The mirrored element is bitwise what the GEMM
//!   would have produced there, because IEEE 754 multiplication is
//!   commutative at the bit level for the operand classes that reach it
//!   (`A[kk,i]·A[kk,j]` vs `A[kk,j]·A[kk,i]`) — so the whole matrix is
//!   **bitwise identical** to `gemm_tn(m, k, m, a, a, c)`.
//! * [`gram_tn_lower`] and [`gram_nt_lower`], the K-FAC capture's entries,
//!   sum the same products straight into a packed triangle: bit for bit
//!   the triangle the square products pack to, and the factor wire.
//!
//! Like the GEMM kernels, two variants sit behind the [`GemmKernel`]
//! selector: the naive scalar reference (the oracle) and a blocked path
//! reusing the packed panels, the register-tiled `MR x NR` microkernel
//! (AVX-512F, else AVX2, behind runtime detection; portable fallback), and
//! the full-k no-FMA discipline from `gemm`. The blocked sweep **skips every
//! register tile that lies entirely above the diagonal**; a tile straddling
//! it is computed in full, but loads and stores only its lower elements. A
//! product big enough to pay is cut into MR-aligned row bands with
//! *triangle-balanced* boundaries (`r_i ≈ m·√(i/bands)`), so each band
//! holds roughly the same number of lower-triangle flops; the calling
//! thread claims them from a queue and, exactly as for the GEMM row bands,
//! idle [`team`](crate::team) helpers claim from the same queue.
//!
//! Because the kernels accumulate into the live `C` in ascending `kk`
//! order, accumulating row blocks of `A` one call at a time is bitwise
//! identical to one shot.
//!
//! The `Nt` layout is the same kernel fed the transposed storage: `A`
//! row-major `[m x k]`, `C += A·Aᵀ`, as a Conv2d layer holds its per-image
//! patch and gradient blocks (DESIGN §5j). It takes any number of such
//! blocks in one call and accumulates them in order, so the result is bit
//! for bit the `Tn` Gram of the row layout that stacks every block's
//! transpose.

use std::sync::{Mutex, PoisonError};

use crate::gemm::{
    microkernel, pack_a, pack_b, take_scratch, use_blocked, GemmKernel, Layout, MC, MR, NR,
    PACKED_A, PACKED_B,
};
use crate::matrix::GRAM_BLOCK_ROWS;
use crate::{packed_len, team};

/// `C[m x m] += AᵀA` where `A` is stored `[k x m]` row-major — the
/// symmetric-output counterpart of [`gemm_tn_with`](crate::gemm_tn_with) with `b = a`. Only
/// the lower triangle is computed; the strict upper triangle is then
/// overwritten with an exact bit copy of the lower. The result (including
/// accumulation into a symmetric pre-existing `C`) is bitwise identical to
/// `gemm_tn(m, k, m, a, a, c)` on the same `kernel` (benchmarks and the
/// property suite pin both paths). `A` is fed to the sweep
/// `GRAM_BLOCK_ROWS` rows at a time, as for
/// [`Matrix::gram_tn`](crate::Matrix::gram_tn), which runs this on
/// `GemmKernel::Auto`.
pub fn syrk_tn_with(kernel: GemmKernel, m: usize, k: usize, a: &[f32], c: &mut [f32]) {
    if m == 0 || k == 0 {
        // Match gemm_tn: C untouched, and in particular *not* mirrored —
        // a k=0 update must leave arbitrary caller data intact.
        return;
    }
    tn_blocks(kernel, Store::Square, m, k, a, c);
    mirror_lower(m, c);
}

/// `C[m x m] += Σ_b A_b·A_bᵀ` over the consecutive `[m x k]` row-major
/// blocks `A_b` that make up `a` (its length is a multiple of `m·k`). The
/// blocks accumulate into the lower triangle in order and the upper
/// triangle is mirrored once at the end, so the result is bitwise
/// [`syrk_tn_with`] of the `[blocks·k x m]` matrix stacking every `A_bᵀ`: each
/// lower element is the live value plus one mul-then-add per column of
/// each block, blocks and columns ascending.
///
/// Short blocks are packed several to a call, up to `GRAM_BLOCK_ROWS`
/// columns, the extent [`Matrix::gram_tn`](crate::Matrix::gram_tn) hands
/// the kernel per call, so `C` is staged through the register tiles as
/// often as it is for the row layout.
pub fn syrk_nt_with(kernel: GemmKernel, m: usize, k: usize, a: &[f32], c: &mut [f32]) {
    if m == 0 || k == 0 || a.is_empty() {
        return;
    }
    nt_blocks(kernel, Store::Square, m, k, a, c);
    mirror_lower(m, c);
}

/// [`syrk_nt_with`]'s `Σ_b A_b·A_bᵀ` accumulated into the row-packed lower
/// triangle `c` ([`packed_len`]`(m)` elements): bit for bit the triangle
/// the square product packs to. The capture's entry for Conv2d blocks.
pub fn gram_nt_lower(kernel: GemmKernel, m: usize, k: usize, a: &[f32], c: &mut [f32]) {
    if m == 0 || k == 0 || a.is_empty() {
        return;
    }
    nt_blocks(kernel, Store::Packed, m, k, a, c);
}

/// [`Matrix::gram_tn`](crate::Matrix::gram_tn)'s `AᵀA` (`A` stored
/// `[k x m]`) accumulated into the row-packed lower triangle `c`
/// ([`packed_len`]`(m)` elements), bit for bit the triangle it packs to.
/// The capture's entry for row-layout activations and gradients.
pub fn gram_tn_lower(kernel: GemmKernel, m: usize, k: usize, a: &[f32], c: &mut [f32]) {
    tn_blocks(kernel, Store::Packed, m, k, a, c);
}

/// The lower triangle of `C += AᵀA`, `GRAM_BLOCK_ROWS` rows of `A` per
/// sweep: the kernels pack panels of the full row extent, which stop
/// fitting the cache long before a conv layer's patch matrix ends.
fn tn_blocks(kernel: GemmKernel, store: Store, m: usize, k: usize, a: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    if m == 0 {
        return;
    }
    for block in a.chunks(GRAM_BLOCK_ROWS * m) {
        let rows = block.len() / m;
        Sweep { layout: Layout::Tn, store, m, k: rows, kb: rows, a: block }.run(kernel, c);
    }
}

/// The lower triangle of `C += Σ_b A_b·A_bᵀ` (`m`, `k`, `a` non-empty):
/// short blocks packed several to a sweep.
fn nt_blocks(kernel: GemmKernel, store: Store, m: usize, k: usize, a: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len() % (m * k), 0);
    let per_call = (GRAM_BLOCK_ROWS / k).max(1);
    for blocks in a.chunks(per_call * m * k) {
        Sweep { layout: Layout::Nt, store, m, k: blocks.len() / m, kb: k, a: blocks }
            .run(kernel, c);
    }
}

/// Where row `i` of the lower-triangle output `C` starts.
#[derive(Clone, Copy)]
enum Store {
    /// A row-major `m x m` matrix: row `i` at `i·m`. The sweep leaves its
    /// strict upper triangle alone, for the mirror.
    Square,
    /// The row-packed lower triangle: row `i` at `i(i+1)/2`.
    Packed,
}

impl Store {
    /// Offset of row `i` in an output with `m` rows; `row(m, m)` is the
    /// output's length.
    fn row(self, m: usize, i: usize) -> usize {
        match self {
            Store::Square => i * m,
            Store::Packed => packed_len(i),
        }
    }
}

/// One lower-triangle Gram sweep: `C[i, j] (j ≤ i) += (AᵀA)[i, j]` (`Tn`:
/// `A` stored `[k x m]`, `kb = k`) or `+= (A·Aᵀ)[i, j]` (`Nt`: `A` stored
/// as `k / kb` consecutive `[m x kb]` blocks), each row of `C` where
/// `store` puts it. Only lower-triangle elements of `C` are read or
/// written.
#[derive(Clone, Copy)]
struct Sweep<'a> {
    layout: Layout,
    store: Store,
    m: usize,
    k: usize,
    kb: usize,
    a: &'a [f32],
}

impl Sweep<'_> {
    /// Run the sweep on `kernel` over the whole of `C`.
    fn run(&self, kernel: GemmKernel, c: &mut [f32]) {
        let (m, k) = (self.m, self.k);
        debug_assert_eq!(c.len(), self.store.row(m, m));
        let banded = team::pays(m * m * k / 2) && m > 1;
        if use_blocked(kernel, m, k, m) {
            let bp = pack_b(self.layout, k, self.kb, m, self.a);
            if banded {
                let bp = &bp;
                self.bands(c, |r0, rows, band| self.blocked_rows(r0, rows, bp, band));
            } else {
                self.blocked_rows(0, m, &bp, c);
            }
            PACKED_B.set(bp);
        } else if banded {
            self.bands(c, |r0, rows, band| self.naive_rows(r0, rows, band));
        } else {
            self.naive_rows(0, m, c);
        }
    }

    /// Where row `i` starts in the band of `C` that begins at row `r0`.
    fn at(&self, r0: usize, i: usize) -> usize {
        self.store.row(self.m, i) - self.store.row(self.m, r0)
    }

    /// Naive lower-triangle reference over rows `r0..r0 + rows` (`c` is
    /// their band): for each `C[i, j]` with `j ≤ i`, the exact
    /// `kk`-ascending mul-then-add chain of `gemm_tn_serial_range` — zero
    /// terms accumulated, never skipped (IEEE NaN/Inf propagation). `Nt`
    /// runs each chain as one dot product from the live value, through the
    /// blocks in order; `Tn` streams `kk` outermost.
    fn naive_rows(&self, r0: usize, rows: usize, c: &mut [f32]) {
        let Sweep { m, kb, a, .. } = *self;
        if self.layout == Layout::Nt {
            for gi in r0..r0 + rows {
                let at = self.at(r0, gi);
                for (j, cj) in c[at..=at + gi].iter_mut().enumerate() {
                    let mut acc = *cj;
                    for block in a.chunks_exact(m * kb) {
                        let (a_i, a_j) =
                            (&block[gi * kb..(gi + 1) * kb], &block[j * kb..(j + 1) * kb]);
                        for (&x, &y) in a_i.iter().zip(a_j) {
                            acc += x * y;
                        }
                    }
                    *cj = acc;
                }
            }
            return;
        }
        for a_row in a.chunks_exact(m).take(self.k) {
            for gi in r0..r0 + rows {
                let aik = a_row[gi];
                let at = self.at(r0, gi);
                for (cj, &bj) in c[at..=at + gi].iter_mut().zip(&a_row[..=gi]) {
                    *cj += aik * bj;
                }
            }
        }
    }

    /// Serial blocked sweep over rows `r0..r0 + rows` (`c` is their band).
    /// Identical tile staging and microkernel to `gemm::blocked_rows` (`C`
    /// is the live accumulator), except that column panels entirely above
    /// the diagonal of a tile row are skipped, and a tile loads and stores
    /// only its lower-triangle elements.
    fn blocked_rows(&self, r0: usize, rows: usize, bp: &[f32], c: &mut [f32]) {
        let Sweep { layout, m, k, kb, a, .. } = *self;
        let n_panels = m.div_ceil(NR);
        let mut ap = take_scratch(&PACKED_A, MC.min(rows).div_ceil(MR) * MR * k);
        let mut tile = [0.0f32; MR * NR];
        for ic in (0..rows).step_by(MC) {
            let mc = MC.min(rows - ic);
            let m_panels = mc.div_ceil(MR);
            pack_a(layout, r0 + ic, mc, m, k, kb, a, &mut ap[..m_panels * MR * k]);
            for ip in 0..m_panels {
                let i0 = ip * MR;
                let mr = MR.min(mc - i0);
                let a_panel = &ap[ip * k * MR..(ip + 1) * k * MR];
                let g0 = r0 + ic + i0;
                // Last column index this tile row must cover is its last
                // (global) row index: panels strictly right of it are upper-
                // triangle only.
                let jp_last = ((g0 + mr - 1) / NR).min(n_panels - 1);
                for jp in 0..=jp_last {
                    let j0 = jp * NR;
                    let nr = NR.min(m - j0);
                    let b_panel = &bp[jp * k * NR..(jp + 1) * k * NR];
                    // Row `g0 + rr` holds `len(rr)` of the panel's columns
                    // on or left of its diagonal.
                    let len = |rr: usize| nr.min((g0 + rr + 1).saturating_sub(j0));
                    tile.fill(0.0);
                    for rr in 0..mr {
                        let at = self.at(r0, g0 + rr) + j0;
                        tile[rr * NR..rr * NR + len(rr)].copy_from_slice(&c[at..at + len(rr)]);
                    }
                    microkernel(k, a_panel, b_panel, &mut tile);
                    for rr in 0..mr {
                        let at = self.at(r0, g0 + rr) + j0;
                        c[at..at + len(rr)].copy_from_slice(&tile[rr * NR..rr * NR + len(rr)]);
                    }
                }
            }
        }
        PACKED_A.set(ap);
    }

    /// Run `kernel(r0, rows, c_band)` once per triangle-balanced row band
    /// of `C` (the diagonal-block scheduler): on the calling thread, and on
    /// idle team helpers when there are any.
    fn bands<F>(&self, c: &mut [f32], kernel: F)
    where
        F: Fn(usize, usize, &mut [f32]) + Sync,
    {
        let m = self.m;
        let count = triangle_bands(m).count();
        let queue = Mutex::new((triangle_bands(m), c));
        team::run(count, &|| {
            // Claim the next band and split its rows off the front of what
            // is left of `C`; the lock is released before the band runs.
            let (r0, r1, band) = {
                let mut queue = queue.lock().unwrap_or_else(PoisonError::into_inner);
                let Some((r0, r1)) = queue.0.next() else { return false };
                let len = self.at(r0, r1);
                let (band, rest) = std::mem::take(&mut queue.1).split_at_mut(len);
                queue.1 = rest;
                (r0, r1, band)
            };
            kernel(r0, r1 - r0, band);
            true
        });
    }
}

/// Side of the square tiles [`mirror_lower`] walks: a tile's source rows
/// (`MIRROR_TILE` runs of `MIRROR_TILE` floats) stay in L1 while its
/// destination rows are written.
const MIRROR_TILE: usize = 32;

/// Copy the lower triangle of the row-major `m x m` matrix `c` into its
/// strict upper triangle, bit for bit (`c[i][j] = c[j][i]` for `j > i`).
/// Walks the upper triangle in square tiles, so the column-wise reads of
/// the lower triangle stay within one tile's rows.
pub(crate) fn mirror_lower(m: usize, c: &mut [f32]) {
    debug_assert_eq!(c.len(), m * m);
    for i0 in (0..m).step_by(MIRROR_TILE) {
        let i1 = (i0 + MIRROR_TILE).min(m);
        for j0 in (i0..m).step_by(MIRROR_TILE) {
            let j1 = (j0 + MIRROR_TILE).min(m);
            for i in i0..i1 {
                for j in j0.max(i + 1)..j1 {
                    c[i * m + j] = c[j * m + i];
                }
            }
        }
    }
}

/// MR-aligned row bands `(r0, r1)` covering `0..m` with roughly equal
/// lower-triangle area each: boundary `i` of `b` sits at `m·√(i/b)` rounded
/// to a multiple of `MR`, empty bands dropped. The split never affects
/// results — each `C` row's update chain is confined to its own band.
struct TriangleBands {
    m: usize,
    bands: usize,
    /// Next boundary index to try.
    i: usize,
    /// Where the previous band ended.
    r0: usize,
}

fn triangle_bands(m: usize) -> TriangleBands {
    TriangleBands { m, bands: team::cores() * 2, i: 1, r0: 0 }
}

impl Iterator for TriangleBands {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let r0 = self.r0;
        while self.i < self.bands {
            let frac = (self.i as f64 / self.bands as f64).sqrt();
            let r = ((self.m as f64 * frac / MR as f64).round() as usize * MR).min(self.m);
            self.i += 1;
            if r > r0 {
                self.r0 = r;
                return Some((r0, r));
            }
        }
        self.r0 = self.m;
        (r0 < self.m).then_some((r0, self.m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_tn_with;
    use crate::{pack_lower_scaled, Matrix, Rng};

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_f32() - 0.5).collect()
    }

    /// Shapes that stress the triangular tiling: unit, sub-tile, exact-tile,
    /// off-by-one around MR/NR/MC, and sizes crossing the parallel and
    /// blocked thresholds.
    const ADVERSARIAL: &[(usize, usize)] = &[
        (1, 1),
        (2, 3),
        (5, 7),
        (6, 8),
        (7, 9),
        (15, 16),
        (16, 17),
        (17, 2),
        (31, 33),
        (47, 33),
        (48, 21),
        (49, 2),
        (64, 64),
        (80, 70),
        (97, 80),
        (128, 200),
    ];

    #[test]
    fn syrk_bitwise_matches_gemm_tn_over_shapes() {
        for &(m, k) in ADVERSARIAL {
            let a = fill(k * m, (m * 1000 + k) as u64);
            for kernel in [GemmKernel::Naive, GemmKernel::Blocked, GemmKernel::Auto] {
                let mut c_gemm = vec![0.0f32; m * m];
                gemm_tn_with(kernel, m, k, m, &a, &a, &mut c_gemm);
                let mut c_syrk = vec![0.0f32; m * m];
                syrk_tn_with(kernel, m, k, &a, &mut c_syrk);
                for (i, (x, y)) in c_syrk.iter().zip(&c_gemm).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{kernel} ({m},{k}) element {i}");
                }
            }
        }
    }

    #[test]
    fn syrk_output_is_exactly_symmetric() {
        for &(m, k) in ADVERSARIAL {
            let a = fill(k * m, 0xfeed ^ (m * 31 + k) as u64);
            for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
                let mut c = vec![0.0f32; m * m];
                syrk_tn_with(kernel, m, k, &a, &mut c);
                for i in 0..m {
                    for j in 0..i {
                        assert_eq!(
                            c[i * m + j].to_bits(),
                            c[j * m + i].to_bits(),
                            "{kernel} ({m},{k}) at ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chunked_accumulation_matches_one_shot() {
        // Streamed capture splits the k dimension into row chunks and
        // accumulates; the chunks partition kk in ascending order, so the
        // result must be bitwise identical to a single call.
        let (m, k) = (19, 57);
        let a = fill(k * m, 99);
        for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
            let mut c_one = vec![0.0f32; m * m];
            syrk_tn_with(kernel, m, k, &a, &mut c_one);
            for chunk in [1usize, 4, 7, 19, 56, 57, 200] {
                let mut c_chunked = vec![0.0f32; m * m];
                let mut r0 = 0;
                while r0 < k {
                    let len = chunk.min(k - r0);
                    syrk_tn_with(kernel, m, len, &a[r0 * m..(r0 + len) * m], &mut c_chunked);
                    r0 += len;
                }
                for (x, y) in c_chunked.iter().zip(&c_one) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{kernel} chunk={chunk}");
                }
            }
        }
    }

    #[test]
    fn accumulates_into_existing_symmetric_c() {
        // Factor stats accumulate across batches: starting from a symmetric
        // C (the only state the capture layer ever holds), syrk must match
        // gemm_tn's accumulation bitwise.
        let (m, k) = (23, 31);
        let a = fill(k * m, 7);
        let mut base = vec![0.0f32; m * m];
        gemm_tn_with(GemmKernel::Naive, m, k, m, &a, &a, &mut base);
        let b = fill(k * m, 8);
        let mut c_gemm = base.clone();
        gemm_tn_with(GemmKernel::Naive, m, k, m, &b, &b, &mut c_gemm);
        for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
            let mut c_syrk = base.clone();
            syrk_tn_with(kernel, m, k, &b, &mut c_syrk);
            for (x, y) in c_syrk.iter().zip(&c_gemm) {
                assert_eq!(x.to_bits(), y.to_bits(), "{kernel}");
            }
        }
    }

    #[test]
    fn k_zero_leaves_c_untouched() {
        // gemm_tn early-returns on k=0; syrk must too — including not
        // mirroring, since C may hold arbitrary non-symmetric caller data.
        let m = 4;
        let orig: Vec<f32> = (0..m * m).map(|i| i as f32).collect();
        for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
            let mut c = orig.clone();
            syrk_tn_with(kernel, m, 0, &[], &mut c);
            assert_eq!(c, orig, "{kernel}");
        }
    }

    #[test]
    fn parallel_triangle_bands_match_serial() {
        // Big enough that the banded scheduler runs; must be bitwise
        // identical to the serial sweep.
        let (m, k) = (300, 200);
        assert!(team::pays(m * m * k / 2));
        let a = fill(k * m, 12);
        // The same buffer read as `[k x m]` (Tn) and as one `[m x k]`
        // column-layout block (Nt).
        type Entry = fn(GemmKernel, usize, usize, &[f32], &mut [f32]);
        for (layout, entry) in [(Layout::Tn, syrk_tn_with as Entry), (Layout::Nt, syrk_nt_with)] {
            for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
                let mut c_par = vec![0.0f32; m * m];
                entry(kernel, m, k, &a, &mut c_par);
                let mut c_serial = vec![0.0f32; m * m];
                let sweep = Sweep { layout, store: Store::Square, m, k, kb: k, a: &a };
                sweep.naive_rows(0, m, &mut c_serial);
                mirror_lower(m, &mut c_serial);
                // Blocked vs naive bitwise equality is the stronger check.
                for (x, y) in c_par.iter().zip(&c_serial) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{layout:?} {kernel}");
                }
            }
        }
    }

    #[test]
    fn syrk_nt_packs_short_blocks_together_bitwise() {
        // Blocks of 400 columns go two to a kernel call (three calls for
        // five blocks), blocks of 1500 one each: either way the result is
        // the Tn Gram of the stacked transposes, in both kernels.
        for (m, k, blocks) in [(20usize, 400usize, 5usize), (9, 1500, 2), (50, 7, 300)] {
            let a = fill(blocks * m * k, (m + k + blocks) as u64);
            let mut stacked = vec![0.0f32; a.len()];
            for (b, blk) in a.chunks_exact(m * k).enumerate() {
                for (i, row) in blk.chunks_exact(k).enumerate() {
                    for (px, &v) in row.iter().enumerate() {
                        stacked[(b * k + px) * m + i] = v;
                    }
                }
            }
            let mut expect = vec![0.0f32; m * m];
            syrk_tn_with(GemmKernel::Naive, m, blocks * k, &stacked, &mut expect);
            for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
                let mut c = vec![0.0f32; m * m];
                syrk_nt_with(kernel, m, k, &a, &mut c);
                for (x, y) in c.iter().zip(&expect) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{kernel} ({m},{k})x{blocks}");
                }
            }
        }
    }

    #[test]
    fn lower_entries_write_the_mirrored_products_lower_triangle() {
        // The packed entries are, bit for bit, `pack_lower_scaled` of the
        // square products (`syrk_tn_with` / `syrk_nt_with`) on the same
        // live C: both layouts, both kernels, a non-zero packed C they
        // accumulate into, tall operands (several `GRAM_BLOCK_ROWS` blocks)
        // and the banded path (m = 300). And the tiled mirror is the
        // element-by-element copy, across tile edges.
        let mut rng = Rng::seed_from_u64(23);
        for &(rows, m) in &[(1usize, 1usize), (7, 5), (40, 33), (1100, 64), (3, 97), (200, 300)] {
            let a = Matrix::randn(rows, m, 1.0, &mut rng);
            let at = a.transpose();
            let live = Matrix::randn(m + 2, m, 1.0, &mut rng).gram_tn();
            let pack = |square: &[f32]| {
                let mut packed = vec![f32::NAN; packed_len(m)];
                pack_lower_scaled(square, m, 1.0, &mut packed);
                packed
            };
            for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
                let (mut tn_square, mut nt_square) = (live.clone(), live.clone());
                syrk_tn_with(kernel, m, rows, a.as_slice(), tn_square.as_mut_slice());
                syrk_nt_with(kernel, m, rows, at.as_slice(), nt_square.as_mut_slice());
                let (mut tn, mut nt) = (pack(live.as_slice()), pack(live.as_slice()));
                gram_tn_lower(kernel, m, rows, a.as_slice(), &mut tn);
                gram_nt_lower(kernel, m, rows, at.as_slice(), &mut nt);
                assert_eq!(
                    bits(&tn),
                    bits(&pack(tn_square.as_slice())),
                    "{kernel} tn ({rows},{m})"
                );
                assert_eq!(
                    bits(&nt),
                    bits(&pack(nt_square.as_slice())),
                    "{kernel} nt ({rows},{m})"
                );
            }
            let full = a.gram_tn();
            let mut lower: Vec<f32> = (0..m * m)
                .map(|e| if e % m > e / m { f32::NAN } else { full.as_slice()[e] })
                .collect();
            let mut naive = lower.clone();
            for i in 0..m {
                for j in i + 1..m {
                    naive[i * m + j] = naive[j * m + i];
                }
            }
            mirror_lower(m, &mut lower);
            assert_eq!(bits(&lower), bits(&naive), "mirror ({rows},{m})");
            assert_eq!(bits(&lower), bits(full.as_slice()), "gram_tn ({rows},{m})");
        }
    }

    #[test]
    fn triangle_bands_are_valid_partitions() {
        for m in [1usize, 5, 6, 48, 97, 256, 1024] {
            let b: Vec<(usize, usize)> = triangle_bands(m).collect();
            assert_eq!(b[0].0, 0);
            assert_eq!(b.last().unwrap().1, m);
            assert!(b.iter().all(|&(r0, r1)| r0 < r1), "m={m}: {b:?}");
            assert!(b.windows(2).all(|w| w[0].1 == w[1].0), "m={m}: {b:?}");
            // Interior boundaries are MR-aligned so blocked bands tile fully.
            for &(r0, _) in &b[1..] {
                assert_eq!(r0 % MR, 0, "m={m}: {b:?}");
            }
        }
    }

    #[test]
    fn gram_tn_matches_matmul_tn_bitwise() {
        // The Matrix-level entry the capture layer uses; holds in *both*
        // syrk modes (they are bitwise interchangeable by construction).
        let mut rng = Rng::seed_from_u64(21);
        for &(rows, cols) in &[(1usize, 1usize), (7, 5), (33, 48), (100, 65)] {
            let a = Matrix::randn(rows, cols, 1.0, &mut rng);
            let gram = a.gram_tn();
            let full = a.matmul_tn(&a);
            assert_eq!(gram.shape(), (cols, cols));
            for (x, y) in gram.as_slice().iter().zip(full.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "({rows},{cols})");
            }
        }
    }
}
