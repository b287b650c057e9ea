//! Symmetric rank-k (SYRK) fast path for factor statistics: `C = AᵀA`.
//!
//! Every K-FAC factor statistic is a Gram product — `A = aᵀa`, `G = gᵀg` —
//! whose output is symmetric, so a full GEMM wastes half its multiply-adds.
//! [`syrk_tn`] computes only the **lower triangle** (`j ≤ i`) and then
//! mirrors it into the upper triangle with an exact bit copy
//! (`c[i][j] = c[j][i]`). Each lower-triangle element receives the identical
//! per-`kk`-ascending mul-then-add sequence as [`gemm_tn_with`](crate::gemm_tn_with), and the
//! mirrored upper element is bitwise equal to what the GEMM would have
//! produced there because IEEE 754 multiplication is commutative at the bit
//! level for the operand classes that reach it (`A[kk,i]·A[kk,j]` vs
//! `A[kk,j]·A[kk,i]`) — so the whole matrix is **bitwise identical** to
//! `gemm_tn(m, k, m, a, a, c)` and the repo's equivalence contract holds.
//!
//! Like the GEMM kernels, two variants sit behind the [`GemmKernel`]
//! selector: the naive scalar reference (the oracle) and a blocked path
//! reusing the packed panels, the register-tiled `MR x NR` microkernel
//! (AVX-512F, else AVX2, behind runtime detection; portable fallback), and
//! the full-k no-FMA discipline from `gemm`. The blocked sweep simply **skips every
//! register tile that lies entirely above the diagonal**; tiles straddling
//! it are computed in full and the spilled upper elements are overwritten
//! by the mirror. A product big enough to pay is cut into MR-aligned row
//! bands with *triangle-balanced* boundaries (`r_i ≈ m·√(i/bands)`), so each
//! band holds roughly the same number of lower-triangle flops; the calling
//! thread claims them from a queue and, exactly as for the GEMM row bands,
//! idle [`team`](crate::team) helpers claim from the same queue.
//!
//! Because the kernels accumulate into the live `C` in ascending `kk`
//! order, accumulating row blocks of `A` one call at a time is bitwise
//! identical to one shot.
//!
//! [`syrk_nt_with`] is the same kernel fed the transposed storage: `A`
//! row-major `[m x k]`, `C += A·Aᵀ`, as a Conv2d layer holds its per-image
//! patch and gradient blocks (DESIGN §5j). It takes any number of such
//! blocks in one call, accumulates them into the lower triangle in order
//! and mirrors once, so the result is bit for bit `syrk_tn` of the row
//! layout that stacks every block's transpose.
//!
//! [`gram_tn_lower`] and [`gram_nt_lower`] are the two Gram products
//! ([`Matrix::gram_tn`](crate::Matrix::gram_tn) and [`syrk_nt_with`], both
//! on the shape-selected [`GemmKernel::Auto`]) without the mirror: the
//! K-FAC capture reads only the lower triangle (it is what goes on the
//! wire), so it never pays for the upper one.
//! [`mirror_lower`] is the one mirror, a tiled pass shared with the
//! factor fold.

use std::sync::{Mutex, PoisonError};

use crate::gemm::{
    microkernel, pack_a, pack_b, take_scratch, use_blocked, GemmKernel, Layout, MC, MR, NR,
    PACKED_A, PACKED_B,
};
use crate::matrix::GRAM_BLOCK_ROWS;
use crate::team;

/// `C[m x m] += AᵀA` where `A` is stored `[k x m]` row-major — the
/// symmetric-output counterpart of [`gemm_tn_with`](crate::gemm_tn_with) with `b = a`. Only
/// the lower triangle is computed; the strict upper triangle is then
/// overwritten with an exact bit copy of the lower. The result (including
/// accumulation into a symmetric pre-existing `C`) is bitwise identical to
/// `gemm_tn(m, k, m, a, a, c)`. Runs the shape-selected
/// [`GemmKernel::Auto`].
pub fn syrk_tn(m: usize, k: usize, a: &[f32], c: &mut [f32]) {
    syrk_tn_with(GemmKernel::Auto, m, k, a, c);
}

/// [`syrk_tn`] with an explicit kernel selection (benchmarks and the
/// property suite pin both paths).
pub fn syrk_tn_with(kernel: GemmKernel, m: usize, k: usize, a: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(c.len(), m * m);
    if m == 0 || k == 0 {
        // Match gemm_tn: C untouched, and in particular *not* mirrored —
        // a k=0 update must leave arbitrary caller data intact.
        return;
    }
    syrk_lower(kernel, Layout::Tn, m, k, k, a, c);
    mirror_lower(m, c);
}

/// `C[m x m] += Σ_b A_b·A_bᵀ` over the consecutive `[m x k]` row-major
/// blocks `A_b` that make up `a` (its length is a multiple of `m·k`). The
/// blocks accumulate into the lower triangle in order and the upper
/// triangle is mirrored once at the end, so the result is bitwise
/// [`syrk_tn`] of the `[blocks·k x m]` matrix stacking every `A_bᵀ`: each
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
    nt_lower(kernel, m, k, a, c);
    mirror_lower(m, c);
}

/// The Gram product of column-layout blocks, `C[m x m] += Σ_b A_b·A_bᵀ`,
/// on the shape-selected [`GemmKernel::Auto`], without the mirror: only
/// the lower triangle (`j ≤ i`) of `C` is written, bit for bit what
/// [`syrk_nt_with`] leaves there on that kernel; the strict
/// upper triangle is left stale or partly updated. The K-FAC capture's
/// entry — a factor statistic never needs its upper half.
pub fn gram_nt_lower(m: usize, k: usize, a: &[f32], c: &mut [f32]) {
    if m == 0 || k == 0 || a.is_empty() {
        return;
    }
    nt_lower(GemmKernel::Auto, m, k, a, c);
}

/// The lower triangle (`j ≤ i`) of `C[m x m] += AᵀA` for `A` stored
/// `[k x m]` row-major, on the shape-selected [`GemmKernel::Auto`], handed
/// to the kernel `GRAM_BLOCK_ROWS` rows at a time: bit for bit the lower
/// triangle [`Matrix::gram_tn`](crate::Matrix::gram_tn) produces, which is
/// this plus one [`mirror_lower`]. The strict upper triangle is left stale
/// or partly updated.
pub fn gram_tn_lower(m: usize, k: usize, a: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(c.len(), m * m);
    if m == 0 {
        return;
    }
    for block in a.chunks(GRAM_BLOCK_ROWS * m) {
        let rows = block.len() / m;
        syrk_lower(GemmKernel::Auto, Layout::Tn, m, rows, rows, block, c);
    }
}

/// The `Nt` lower-triangle sweep of [`syrk_nt_with`] (`m`, `k`, `a`
/// non-empty): blocks packed several to a kernel call.
fn nt_lower(kernel: GemmKernel, m: usize, k: usize, a: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len() % (m * k), 0);
    debug_assert_eq!(c.len(), m * m);
    let per_call = (GRAM_BLOCK_ROWS / k).max(1);
    for blocks in a.chunks(per_call * m * k) {
        syrk_lower(kernel, Layout::Nt, m, blocks.len() / m, k, blocks, c);
    }
}

/// Accumulate the lower triangle (`j ≤ i`) of `C += AᵀA` (`Tn`: `A` stored
/// `[k x m]`, `kb = k`) or `C += A·Aᵀ` (`Nt`: `A` stored as `k / kb`
/// consecutive `[m x kb]` blocks); strict-upper elements are left stale or
/// partly updated, for the caller's mirror.
fn syrk_lower(
    kernel: GemmKernel,
    layout: Layout,
    m: usize,
    k: usize,
    kb: usize,
    a: &[f32],
    c: &mut [f32],
) {
    if use_blocked(kernel, m, k, m) {
        blocked_syrk(layout, m, k, kb, a, c);
    } else if team::pays(m * m * k / 2) && m > 1 {
        par_triangle_bands(m, c, |r0, rows, band| {
            naive_syrk_rows(layout, r0, rows, m, k, kb, a, band);
        });
    } else {
        naive_syrk_rows(layout, 0, m, m, k, kb, a, c);
    }
}

/// Naive lower-triangle reference: for each `C[i, j]` with `j ≤ i`, the
/// exact `kk`-ascending mul-then-add chain of `gemm_tn_serial_range` —
/// zero terms accumulated, never skipped (IEEE NaN/Inf propagation). `Nt`
/// runs each chain as one dot product from the live value, through the
/// blocks in order; `Tn` streams `kk` outermost.
#[allow(clippy::too_many_arguments)]
fn naive_syrk_rows(
    layout: Layout,
    r0: usize,
    rows: usize,
    m: usize,
    k: usize,
    kb: usize,
    a: &[f32],
    c: &mut [f32],
) {
    if layout == Layout::Nt {
        for i in 0..rows {
            let gi = r0 + i;
            for (j, cj) in c[i * m..i * m + gi + 1].iter_mut().enumerate() {
                let mut acc = *cj;
                for block in a.chunks_exact(m * kb) {
                    let (a_i, a_j) = (&block[gi * kb..(gi + 1) * kb], &block[j * kb..(j + 1) * kb]);
                    for (&x, &y) in a_i.iter().zip(a_j) {
                        acc += x * y;
                    }
                }
                *cj = acc;
            }
        }
        return;
    }
    for kk in 0..k {
        let a_row = &a[kk * m..(kk + 1) * m];
        for i in 0..rows {
            let gi = r0 + i;
            let aik = a_row[gi];
            let c_row = &mut c[i * m..i * m + gi + 1];
            for (cj, &bj) in c_row.iter_mut().zip(&a_row[..gi + 1]) {
                *cj += aik * bj;
            }
        }
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
pub fn mirror_lower(m: usize, c: &mut [f32]) {
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

/// Run `kernel(r0, rows, c_band)` once per triangle-balanced row band of
/// `C` (the diagonal-block scheduler): on the calling thread, and on idle
/// team helpers when there are any.
fn par_triangle_bands<F>(m: usize, c: &mut [f32], kernel: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    let count = triangle_bands(m).count();
    let queue = Mutex::new((triangle_bands(m), c));
    team::run(count, &|| {
        // Claim the next band and split its rows off the front of what is
        // left of `C`; the lock is released before the band runs.
        let (r0, r1, band) = {
            let mut queue = queue.lock().unwrap_or_else(PoisonError::into_inner);
            let Some((r0, r1)) = queue.0.next() else { return false };
            let (band, rest) = std::mem::take(&mut queue.1).split_at_mut((r1 - r0) * m);
            queue.1 = rest;
            (r0, r1, band)
        };
        kernel(r0, r1 - r0, band);
        true
    });
}

/// Blocked SYRK driver: pack `A` once as the shared B-side panels, then
/// sweep triangle-balanced row bands. `layout` is `Tn` or `Nt`; the packers
/// read `Nt` storage as a row-major `A` and a `[n x k]` `B`, which is
/// exactly `A·Aᵀ` (in `[m x kb]` blocks).
fn blocked_syrk(layout: Layout, m: usize, k: usize, kb: usize, a: &[f32], c: &mut [f32]) {
    let bp = pack_b(layout, k, kb, m, a);
    if team::pays(m * m * k / 2) && m > 1 {
        let bp = &bp;
        par_triangle_bands(m, c, |r0, rows, band| {
            blocked_syrk_rows(layout, r0, rows, m, k, kb, a, bp, band);
        });
    } else {
        blocked_syrk_rows(layout, 0, m, m, k, kb, a, &bp, c);
    }
    PACKED_B.set(bp);
}

/// Serial blocked SYRK over `rows` rows of `C` starting at logical row
/// `r0` (`c` is the band's slice). Identical tile staging and microkernel
/// to `gemm::blocked_rows` (`C` is the live accumulator), except column
/// panels entirely above the diagonal of a tile row are skipped — their
/// elements are produced by the mirror instead.
#[allow(clippy::too_many_arguments)]
fn blocked_syrk_rows(
    layout: Layout,
    r0: usize,
    rows: usize,
    m: usize,
    k: usize,
    kb: usize,
    a: &[f32],
    bp: &[f32],
    c: &mut [f32],
) {
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
            let c0 = ic + i0;
            // Last column index this tile row must cover is its last
            // (global) row index: panels strictly right of it are upper-
            // triangle only.
            let jp_last = ((r0 + c0 + mr - 1) / NR).min(n_panels - 1);
            for jp in 0..=jp_last {
                let j0 = jp * NR;
                let nr = NR.min(m - j0);
                let b_panel = &bp[jp * k * NR..(jp + 1) * k * NR];
                tile.fill(0.0);
                for rr in 0..mr {
                    let src = &c[(c0 + rr) * m + j0..(c0 + rr) * m + j0 + nr];
                    tile[rr * NR..rr * NR + nr].copy_from_slice(src);
                }
                microkernel(k, a_panel, b_panel, &mut tile);
                for rr in 0..mr {
                    let dst = &mut c[(c0 + rr) * m + j0..(c0 + rr) * m + j0 + nr];
                    dst.copy_from_slice(&tile[rr * NR..rr * NR + nr]);
                }
            }
        }
    }
    PACKED_A.set(ap);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_tn_with;
    use crate::{Matrix, Rng};

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
                naive_syrk_rows(layout, 0, m, m, k, k, &a, &mut c_serial);
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
        // Same lower triangle as `gram_tn` / `syrk_nt_with`, bit for bit, into a
        // poisoned upper half the lower entries never read back; and the
        // tiled mirror is the element-by-element copy, across tile edges.
        let mut rng = Rng::seed_from_u64(23);
        for &(rows, m) in &[(1usize, 1usize), (7, 5), (40, 33), (1100, 64), (3, 97)] {
            let a = Matrix::randn(rows, m, 1.0, &mut rng);
            let full = a.gram_tn();
            let mut lower: Vec<f32> =
                (0..m * m).map(|e| if e % m > e / m { f32::NAN } else { 0.0 }).collect();
            gram_tn_lower(m, rows, a.as_slice(), &mut lower);
            let mut nt_full = vec![0.0f32; m * m];
            let mut nt_lower =
                lower.iter().map(|&v| if v.is_nan() { v } else { 0.0 }).collect::<Vec<_>>();
            syrk_nt_with(GemmKernel::Auto, m, rows, a.transpose().as_slice(), &mut nt_full);
            gram_nt_lower(m, rows, a.transpose().as_slice(), &mut nt_lower);
            for i in 0..m {
                for j in 0..=i {
                    let e = i * m + j;
                    assert_eq!(lower[e].to_bits(), full.as_slice()[e].to_bits(), "tn ({rows},{m})");
                    assert_eq!(nt_lower[e].to_bits(), nt_full[e].to_bits(), "nt ({rows},{m})");
                }
            }
            let mut naive = lower.clone();
            for i in 0..m {
                for j in i + 1..m {
                    naive[i * m + j] = naive[j * m + i];
                }
            }
            mirror_lower(m, &mut lower);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
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
