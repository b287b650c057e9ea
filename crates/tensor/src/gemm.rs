//! Blocked, thread-parallel GEMM kernels.
//!
//! Three variants are provided: `C += A·B`, `C += Aᵀ·B`, and `C += A·Bᵀ`,
//! all row-major, all accumulating into the live `C`. The K-FAC hot paths
//! are `Aᵀ·B` (factor statistics `aᵀa`, `gᵀg`) and plain products
//! (preconditioning `Qᵀ·∇L·Q`), so those avoid materializing transposes.
//!
//! Two kernel families sit behind each entry point, selected by
//! [`GemmKernel`] (env `KAISA_GEMM_KERNEL` or [`set_gemm_kernel`]):
//!
//! * **naive** — the original i-k-j / k-i-j / dot-product loops. These are
//!   the reference implementation the blocked path is property-tested
//!   against, and stay the permanent oracle.
//! * **blocked** — packed-panel, register-tiled microkernels (`MR x NR` =
//!   6×16) with an AVX2 `std::arch` inner loop behind runtime feature
//!   detection and a portable scalar fallback. A panels are packed `MR`
//!   rows at a time per `MC`-row cache block, B panels `NR` columns at a
//!   time; panels carry the **full** k extent (no k-blocking), so every
//!   `C[i,j]` receives exactly one `mul` + `add` per `kk` in ascending
//!   order — the identical floating-point sequence to the naive loops,
//!   making the two kernels bitwise interchangeable. The microkernel never
//!   fuses into FMA for the same reason. Where a panel's `k` runs along a
//!   stored row (`A` in `Nn`/`Nt`, `B` in `Nt`) packing is a transpose,
//!   done eight rows by eight `k` per AVX2 register transpose.
//!
//! Parallelization: a product big enough to pay ([`team::pays`]) is cut
//! into independent row bands of `C` — a pure function of the shape and the
//! core count — which sit in a queue (`chunks_mut` behind a mutex, so
//! handing out disjoint `&mut` bands is safe code). The calling thread
//! claims bands from it until it is empty; when another core has nothing to
//! do, the process-wide [`team`](crate::team) lets parked helper threads
//! claim from the same queue. No thread is ever spawned per call, and the
//! result is bitwise independent of who computed which band because every
//! `C` element's update sequence is confined to its own band. Smaller
//! products run as one serial sweep. After warm-up a call allocates
//! nothing: the packed `B` panels and each band's packed `A` slab live in
//! per-thread grow-only scratch.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::matrix::GRAM_BLOCK_ROWS;
use crate::team;

/// Rows per register tile (microkernel height).
pub(crate) const MR: usize = 6;
/// Columns per register tile (microkernel width; two 8-lane AVX2 vectors).
pub(crate) const NR: usize = 16;
/// Rows of packed A per cache block.
pub(crate) const MC: usize = 48;

/// GEMM kernel selection, settable per process via the `KAISA_GEMM_KERNEL`
/// environment variable (`auto` | `blocked` | `naive`) or
/// [`set_gemm_kernel`].
///
/// Both kernels produce bitwise-identical results (property-tested); the
/// selection only trades packing overhead against microkernel throughput,
/// so flipping it never perturbs the training trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GemmKernel {
    /// Blocked microkernels for shapes past the packing break-even point,
    /// naive loops below it (a pure function of the shape, so the choice is
    /// deterministic across ranks and runs).
    #[default]
    Auto,
    /// Always the packed/blocked microkernel path.
    Blocked,
    /// Always the original reference loops (the property-test oracle).
    Naive,
}

impl GemmKernel {
    /// Stable lowercase name (the `KAISA_GEMM_KERNEL` vocabulary).
    pub fn as_str(self) -> &'static str {
        match self {
            GemmKernel::Auto => "auto",
            GemmKernel::Blocked => "blocked",
            GemmKernel::Naive => "naive",
        }
    }
}

impl std::fmt::Display for GemmKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for GemmKernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(GemmKernel::Auto),
            "blocked" => Ok(GemmKernel::Blocked),
            "naive" => Ok(GemmKernel::Naive),
            other => Err(format!("unknown GEMM kernel '{other}' (auto|blocked|naive)")),
        }
    }
}

/// Process-wide programmatic override; 0 = unset (fall back to the env).
static KERNEL_OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn env_kernel() -> GemmKernel {
    static ENV: OnceLock<GemmKernel> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("KAISA_GEMM_KERNEL")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(GemmKernel::Auto)
    })
}

/// Override the process-wide GEMM kernel selection (wins over the
/// `KAISA_GEMM_KERNEL` environment variable).
pub fn set_gemm_kernel(kernel: GemmKernel) {
    let code = match kernel {
        GemmKernel::Auto => 1,
        GemmKernel::Blocked => 2,
        GemmKernel::Naive => 3,
    };
    KERNEL_OVERRIDE.store(code, Ordering::Relaxed);
}

/// The currently selected GEMM kernel: the last [`set_gemm_kernel`] value,
/// else `KAISA_GEMM_KERNEL`, else [`GemmKernel::Auto`].
pub fn gemm_kernel() -> GemmKernel {
    match KERNEL_OVERRIDE.load(Ordering::Relaxed) {
        1 => GemmKernel::Auto,
        2 => GemmKernel::Blocked,
        3 => GemmKernel::Naive,
        _ => env_kernel(),
    }
}

/// Below this many multiply-adds `Auto` keeps the naive loops: the packed
/// panels and tile staging cost more than they save on tiny operands.
const BLOCKED_THRESHOLD: usize = 16 * 16 * 16;

pub(crate) fn use_blocked(kernel: GemmKernel, m: usize, k: usize, n: usize) -> bool {
    match kernel {
        GemmKernel::Naive => false,
        GemmKernel::Blocked => true,
        GemmKernel::Auto => m * n * k >= BLOCKED_THRESHOLD,
    }
}

/// Rows of `C` per band on the naive path.
fn row_band(m: usize) -> usize {
    (m / (team::cores() * 4)).max(4)
}

/// Rows of `C` per band on the blocked path: a multiple of `MR` so every
/// band but the last is made of full microkernel tiles.
fn blocked_band(m: usize) -> usize {
    let per = m.div_ceil(team::cores() * 2).max(MR);
    per.div_ceil(MR) * MR
}

/// Run `kernel(band_index, c_band)` once for each `band * n`-element chunk
/// of `c`: on the calling thread, and on idle team helpers when there are
/// any. Bands are claimed one at a time from the shared `chunks_mut` queue.
fn par_row_bands<F>(c: &mut [f32], band: usize, n: usize, kernel: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let count = c.len().div_ceil(band * n);
    let queue = Mutex::new(c.chunks_mut(band * n).enumerate());
    team::run(count, &|| {
        // The lock is released before the band runs, so a panicking band
        // cannot poison it; `next` itself does not panic.
        let claimed = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        claimed.map(|(band_idx, c_band)| kernel(band_idx, c_band)).is_some()
    });
}

/// A thread's grow-only packing buffer. [`take_scratch`] moves it out for
/// the duration of a call and `slot.set(buf)` hands it back, so after
/// warm-up packing allocates nothing; a re-entrant use on the same thread
/// (or a call that unwinds) just finds an empty buffer and allocates.
pub(crate) type Scratch = std::thread::LocalKey<Cell<Vec<f32>>>;

thread_local! {
    /// The calling thread's packed-`B` panels.
    pub(crate) static PACKED_B: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// The band-executing thread's packed-`A` slab.
    pub(crate) static PACKED_A: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// This thread's buffer from `slot`, at least `len` long, contents
/// unspecified. Return it with `slot.set(buf)`.
pub(crate) fn take_scratch(slot: &'static Scratch, len: usize) -> Vec<f32> {
    let mut buf = slot.take();
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    buf
}

/// Operand layouts the blocked path understands; each maps a logical
/// `A[i, kk] * B[kk, j]` access onto the caller's storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// `A` is `[m x k]`, `B` is `[k x n]`; accumulates into existing `C`.
    Nn,
    /// `A` is stored `[k x m]` (logical `Aᵀ·B`); accumulates into `C`.
    Tn,
    /// `B` is stored `[n x k]` (logical `A·Bᵀ`); accumulates into `C`.
    Nt,
}

/// `C[m x n] += A[m x k] · B[k x n]`, all row-major (zero `c` first for the
/// plain product).
pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_nn_with(gemm_kernel(), m, k, n, a, b, c);
}

/// `gemm_nn` with an explicit kernel selection (benchmarks and the
/// property suite pin both paths without touching the process-wide knob).
pub fn gemm_nn_with(
    kernel: GemmKernel,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if use_blocked(kernel, m, k, n) {
        blocked_gemm(Layout::Nn, m, k, k, n, a, b, c);
    } else if team::pays(m * n * k) && m > 1 {
        let band = row_band(m);
        par_row_bands(c, band, n, |band_idx, c_band| {
            let r0 = band_idx * band;
            let rows = c_band.len() / n;
            gemm_nn_serial(rows, k, n, &a[r0 * k..(r0 + rows) * k], b, c_band);
        });
    } else {
        gemm_nn_serial(m, k, n, a, b, c);
    }
}

fn gemm_nn_serial(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    // i-k-j loop order: unit-stride access on both B and C rows, which the
    // auto-vectorizer handles well. Every `kk` term is accumulated — a zero
    // `A[i, kk]` is not skipped, so NaN/Inf in `B` propagate per IEEE 754
    // and the loop stays the bitwise oracle for the blocked path.
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (kk, &aik) in a_row.iter().enumerate() {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                *cj += aik * bj;
            }
        }
    }
}

/// `C[m x n] += Aᵀ · B` where `A` is stored as `[k x m]` row-major (so `Aᵀ` is
/// `m x k`), `B` is `[k x n]`. This is the factor-statistic kernel
/// `A = aᵀ·a / batch` with `a` stored batch-major.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_tn_with(gemm_kernel(), m, k, n, a, b, c);
}

/// `gemm_tn` with an explicit kernel selection.
pub fn gemm_tn_with(
    kernel: GemmKernel,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if use_blocked(kernel, m, k, n) {
        blocked_gemm(Layout::Tn, m, k, k, n, a, b, c);
    } else if team::pays(m * n * k) && m > 1 {
        let band = row_band(m);
        par_row_bands(c, band, n, |band_idx, c_band| {
            let r0 = band_idx * band;
            let rows = c_band.len() / n;
            gemm_tn_serial_range(r0, rows, m, k, n, a, b, c_band);
        });
    } else {
        gemm_tn_serial_range(0, m, m, k, n, a, b, c);
    }
}

#[allow(clippy::too_many_arguments)]
fn gemm_tn_serial_range(
    r0: usize,
    rows: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    // C[i, j] = sum_kk A[kk, i] * B[kk, j]; iterate kk outer so both A and B
    // rows stream with unit stride. Zero `A[kk, i]` terms are accumulated,
    // not skipped (IEEE NaN/Inf propagation; see `gemm_nn_serial`).
    for kk in 0..k {
        let a_row = &a[kk * m..(kk + 1) * m];
        let b_row = &b[kk * n..(kk + 1) * n];
        for i in 0..rows {
            let aik = a_row[r0 + i];
            let c_row = &mut c[i * n..(i + 1) * n];
            for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                *cj += aik * bj;
            }
        }
    }
}

/// `C[m x n] += A · Bᵀ` where `A` is `[m x k]` and `B` is `[n x k]` row-major.
///
/// Every `C[i, j]` is the live value followed by one mul-then-add per `kk`
/// in ascending order, like the other two layouts, so a sequence of calls
/// over consecutive `k` slices (a conv layer's images, DESIGN §5j) sums to
/// the one-shot product bit for bit.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_nt_with(gemm_kernel(), m, k, n, a, b, c);
}

/// `gemm_nt` with an explicit kernel selection.
pub fn gemm_nt_with(
    kernel: GemmKernel,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if use_blocked(kernel, m, k, n) {
        blocked_gemm(Layout::Nt, m, k, k, n, a, b, c);
    } else if team::pays(m * n * k) && m > 1 {
        let band = row_band(m);
        par_row_bands(c, band, n, |band_idx, c_band| {
            let r0 = band_idx * band;
            let rows = c_band.len() / n;
            gemm_nt_serial(rows, k, n, &a[r0 * k..(r0 + rows) * k], b, c_band);
        });
    } else {
        gemm_nt_serial(m, k, n, a, b, c);
    }
}

/// `C[m x n] += Σ_b A_b · B_bᵀ` over the consecutive `[m x k]` blocks `A_b`
/// of `a` and `[n x k]` blocks `B_b` of `b`, in order: bit for bit
/// [`gemm_nt_with`] called block after block, which is `gemm_tn` of the row
/// layout stacking every block's transpose (a conv layer's
/// `dW = Σ G_img·Pt_imgᵀ`, DESIGN §5j).
pub fn gemm_nt_blocks(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_nt_blocks_with(gemm_kernel(), m, k, n, a, b, c);
}

/// [`gemm_nt_blocks`] with an explicit kernel selection. The blocked
/// kernel packs short blocks several to a call, up to `GRAM_BLOCK_ROWS`
/// columns, so `C` is staged through the register tiles once per call
/// rather than once per block.
pub fn gemm_nt_blocks_with(
    kernel: GemmKernel,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    debug_assert_eq!(a.len() / (m * k).max(1), b.len() / (n * k).max(1));
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if !use_blocked(kernel, m, k, n) {
        for (a_blk, b_blk) in a.chunks_exact(m * k).zip(b.chunks_exact(n * k)) {
            gemm_nt_with(kernel, m, k, n, a_blk, b_blk, c);
        }
        return;
    }
    let per_call = (GRAM_BLOCK_ROWS / k).max(1);
    for (a_grp, b_grp) in a.chunks(per_call * m * k).zip(b.chunks(per_call * n * k)) {
        blocked_gemm(Layout::Nt, m, a_grp.len() / m, k, n, a_grp, b_grp, c);
    }
}

fn gemm_nt_serial(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    // C[i, j] += dot(A row i, B row j): both unit stride, the running sum
    // starting from the live C value.
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (j, cj) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = *cj;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            *cj = acc;
        }
    }
}

// ---------------------------------------------------------------------------
// Blocked path: packed panels + register-tiled microkernel.
// ---------------------------------------------------------------------------

/// Pack `B` into `NR`-column panels, each laid out `[k][NR]` with
/// zero-padded edge columns, so the microkernel streams both vectors of a
/// row with unit stride regardless of the original layout. The panels are
/// written into the calling thread's [`PACKED_B`] buffer; hand it back with
/// `PACKED_B.set(bp)` when the product is done.
///
/// An `Nt` operand may come as `k / kb` consecutive `[n x kb]` blocks that
/// together make up the logical `[n x k]` (`kb = k` for one matrix): the
/// `k` extent of a panel then runs through the blocks in order.
pub(crate) fn pack_b(layout: Layout, k: usize, kb: usize, n: usize, b: &[f32]) -> Vec<f32> {
    let panels = n.div_ceil(NR);
    let mut bp = take_scratch(&PACKED_B, panels * k * NR);
    for jp in 0..panels {
        let j0 = jp * NR;
        let nr = NR.min(n - j0);
        let panel = &mut bp[jp * k * NR..(jp + 1) * k * NR];
        if nr < NR {
            // Only a ragged last panel has padding lanes; the buffer is
            // reused, so they must be cleared here.
            panel.fill(0.0);
        }
        match layout {
            Layout::Nn | Layout::Tn => {
                for kk in 0..k {
                    let src = &b[kk * n + j0..kk * n + j0 + nr];
                    panel[kk * NR..kk * NR + nr].copy_from_slice(src);
                }
            }
            Layout::Nt => {
                // B stored [n x k]: column j of the logical B is row j of
                // the storage (of each block in turn).
                for (block, dst) in b.chunks_exact(n * kb).zip(panel.chunks_exact_mut(kb * NR)) {
                    interleave::<NR>(&block[j0 * kb..(j0 + nr) * kb], kb, dst);
                }
            }
        }
    }
    bp
}

/// Interleave `rows` (at most `W` of them, each `kb` long) into `dst`,
/// laid out `[kb][W]`: `dst[kk·W + r] = rows[r·kb + kk]`, lanes past the
/// last row zeroed — the transposing half of packing a row-major operand.
/// With AVX2, eight `kk` at a time go through an 8×8 register transpose;
/// [`interleave_portable`] does the rest (or all of it).
fn interleave<const W: usize>(rows: &[f32], kb: usize, dst: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    let done = crate::simd::interleave_avx2::<W>(rows, kb, dst);
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    interleave_portable::<W>(rows, kb, done, dst);
}

/// [`interleave`] for `kk ≥ from` (a multiple of 8) without `std::arch`:
/// eight `kk` at a time through a small tile, so every source row is read,
/// and `dst` written, in order rather than at stride `W`.
fn interleave_portable<const W: usize>(rows: &[f32], kb: usize, from: usize, dst: &mut [f32]) {
    let nr = rows.len() / kb;
    let mut kk0 = from;
    while kk0 + 8 <= kb {
        let mut tile = [[0.0f32; W]; 8];
        for (r, src) in rows.chunks_exact(kb).enumerate() {
            for (t, &v) in tile.iter_mut().zip(&src[kk0..kk0 + 8]) {
                t[r] = v;
            }
        }
        for (out, t) in dst[kk0 * W..(kk0 + 8) * W].chunks_exact_mut(W).zip(&tile) {
            out.copy_from_slice(t);
        }
        kk0 += 8;
    }
    for kk in kk0..kb {
        for (r, src) in rows.chunks_exact(kb).enumerate() {
            dst[kk * W + r] = src[kk];
        }
        dst[kk * W + nr..(kk + 1) * W].fill(0.0);
    }
}

/// Pack rows `[r0, r0 + mc)` of the logical `A` into `MR`-row panels laid
/// out `[k][MR]`, zero-padding the last panel's missing rows. A row-major
/// (`Nn`/`Nt`) `A` may come as `[m x kb]` blocks, as in [`pack_b`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_a(
    layout: Layout,
    r0: usize,
    mc: usize,
    m: usize,
    k: usize,
    kb: usize,
    a: &[f32],
    ap: &mut [f32],
) {
    let panels = mc.div_ceil(MR);
    debug_assert!(ap.len() >= panels * k * MR);
    for ip in 0..panels {
        let i0 = ip * MR;
        let mr = MR.min(mc - i0);
        let panel = &mut ap[ip * k * MR..(ip + 1) * k * MR];
        if mr < MR {
            // As in `pack_b`: only a ragged last panel has padding lanes.
            panel.fill(0.0);
        }
        match layout {
            Layout::Nn | Layout::Nt => {
                let r = r0 + i0;
                for (block, dst) in a.chunks_exact(m * kb).zip(panel.chunks_exact_mut(kb * MR)) {
                    interleave::<MR>(&block[r * kb..(r + mr) * kb], kb, dst);
                }
            }
            Layout::Tn => {
                // A stored [k x m]: logical A[i, kk] = a[kk * m + i].
                for kk in 0..k {
                    let a_row = &a[kk * m + r0 + i0..kk * m + r0 + i0 + mr];
                    panel[kk * MR..kk * MR + mr].copy_from_slice(a_row);
                }
            }
        }
    }
}

/// Portable microkernel: identical per-element mul-then-add sequence to the
/// AVX2 kernel (each lane is an independent IEEE operation either way).
fn microkernel_portable(k: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]) {
    for kk in 0..k {
        let a_col = &ap[kk * MR..kk * MR + MR];
        let b_row = &bp[kk * NR..kk * NR + NR];
        for (r, &ar) in a_col.iter().enumerate() {
            let row = &mut acc[r * NR..(r + 1) * NR];
            for (cv, &bv) in row.iter_mut().zip(b_row) {
                *cv += ar * bv;
            }
        }
    }
}

#[inline]
pub(crate) fn microkernel(k: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_available() {
        // SAFETY: `microkernel_6x16_avx2` is `#[target_feature(enable =
        // "avx2")]`; `avx2_available()` just verified the CPU supports it.
        unsafe { crate::simd::microkernel_6x16_avx2(k, ap, bp, acc) };
        return;
    }
    microkernel_portable(k, ap, bp, acc);
}

/// Blocked GEMM driver: pack B once (shared read-only across row bands),
/// then per band pack `MC`-row slabs of A and sweep register tiles.
#[allow(clippy::too_many_arguments)]
fn blocked_gemm(
    layout: Layout,
    m: usize,
    k: usize,
    kb: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    let bp = pack_b(layout, k, kb, n, b);
    if team::pays(m * n * k) && m > 1 {
        let band = blocked_band(m);
        let bp = &bp;
        par_row_bands(c, band, n, |band_idx, c_band| {
            let r0 = band_idx * band;
            let rows = c_band.len() / n;
            blocked_rows(layout, r0, rows, m, k, kb, n, a, bp, c_band);
        });
    } else {
        blocked_rows(layout, 0, m, m, k, kb, n, a, &bp, c);
    }
    PACKED_B.set(bp);
}

/// Serial blocked kernel over `rows` rows of `C` starting at logical row
/// `r0` (`c` is the band's slice). Stages each `MR x NR` tile of `C`
/// through a contiguous accumulator so the microkernel sees unit stride and
/// edge tiles are handled by zero padding. `kb` is the block width of a
/// row-major `A` (see [`pack_a`]).
#[allow(clippy::too_many_arguments)]
fn blocked_rows(
    layout: Layout,
    r0: usize,
    rows: usize,
    m: usize,
    k: usize,
    kb: usize,
    n: usize,
    a: &[f32],
    bp: &[f32],
    c: &mut [f32],
) {
    let n_panels = n.div_ceil(NR);
    let mut ap = take_scratch(&PACKED_A, MC.min(rows).div_ceil(MR) * MR * k);
    let mut tile = [0.0f32; MR * NR];
    for ic in (0..rows).step_by(MC) {
        let mc = MC.min(rows - ic);
        let m_panels = mc.div_ceil(MR);
        pack_a(layout, r0 + ic, mc, m, k, kb, a, &mut ap[..m_panels * MR * k]);
        for jp in 0..n_panels {
            let j0 = jp * NR;
            let nr = NR.min(n - j0);
            let b_panel = &bp[jp * k * NR..(jp + 1) * k * NR];
            for ip in 0..m_panels {
                let i0 = ip * MR;
                let mr = MR.min(mc - i0);
                let a_panel = &ap[ip * k * MR..(ip + 1) * k * MR];
                let c0 = ic + i0;
                // C is the running accumulator: stage the live values into
                // the tile (padding lanes start at zero and are discarded).
                tile.fill(0.0);
                for rr in 0..mr {
                    let src = &c[(c0 + rr) * n + j0..(c0 + rr) * n + j0 + nr];
                    tile[rr * NR..rr * NR + nr].copy_from_slice(src);
                }
                microkernel(k, a_panel, b_panel, &mut tile);
                for rr in 0..mr {
                    let dst = &mut c[(c0 + rr) * n + j0..(c0 + rr) * n + j0 + nr];
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
    use crate::{Matrix, Rng};

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    /// Shapes that stress every edge of the tiling: unit, sub-tile,
    /// exact-tile, off-by-one around MR/NR/MC, tall/skinny/wide.
    const ADVERSARIAL: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (2, 3, 5),
        (5, 7, 15),
        (6, 8, 16),
        (7, 9, 17),
        (12, 4, 32),
        (17, 9, 23),
        (47, 33, 15),
        (48, 21, 16),
        (49, 2, 31),
        (53, 64, 97),
        (96, 5, 3),
        (3, 5, 96),
        (200, 3, 2),
        (2, 3, 200),
        (64, 64, 64),
        (80, 70, 90),
    ];

    #[test]
    fn gemm_nn_matches_naive_over_shapes() {
        let mut rng = Rng::seed_from_u64(1);
        for &(m, k, n) in ADVERSARIAL {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let mut c = vec![0.0; m * n];
            gemm_nn(m, k, n, a.as_slice(), b.as_slice(), &mut c);
            let expect = naive(m, k, n, a.as_slice(), b.as_slice());
            for (x, y) in c.iter().zip(&expect) {
                assert!((x - y).abs() < 1e-3, "({m},{k},{n})");
            }
        }
    }

    #[test]
    fn gemm_tn_matches_naive() {
        let mut rng = Rng::seed_from_u64(2);
        for &(m, k, n) in &[(4, 6, 3), (33, 65, 17), (70, 90, 80)] {
            // A stored [k x m]; logical product is Aᵀ B.
            let a = Matrix::randn(k, m, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let mut c = vec![0.0; m * n];
            gemm_tn(m, k, n, a.as_slice(), b.as_slice(), &mut c);
            let at = a.transpose();
            let expect = naive(m, k, n, at.as_slice(), b.as_slice());
            for (x, y) in c.iter().zip(&expect) {
                assert!((x - y).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn gemm_nt_matches_naive() {
        let mut rng = Rng::seed_from_u64(3);
        for &(m, k, n) in &[(5, 4, 7), (29, 31, 37), (75, 85, 95)] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(n, k, 1.0, &mut rng);
            let mut c = vec![0.0; m * n];
            gemm_nt(m, k, n, a.as_slice(), b.as_slice(), &mut c);
            let bt = b.transpose();
            let expect = naive(m, k, n, a.as_slice(), bt.as_slice());
            for (x, y) in c.iter().zip(&expect) {
                assert!((x - y).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn blocked_bitwise_matches_naive_all_layouts() {
        let mut rng = Rng::seed_from_u64(11);
        for &(m, k, n) in ADVERSARIAL {
            // nn
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let mut c_blocked = vec![0.5; m * n];
            let mut c_naive = vec![0.5; m * n];
            gemm_nn_with(GemmKernel::Blocked, m, k, n, a.as_slice(), b.as_slice(), &mut c_blocked);
            gemm_nn_with(GemmKernel::Naive, m, k, n, a.as_slice(), b.as_slice(), &mut c_naive);
            assert_eq!(c_blocked, c_naive, "nn ({m},{k},{n})");
            // tn: A stored [k x m]
            let a = Matrix::randn(k, m, 1.0, &mut rng);
            let mut c_blocked = vec![-0.25; m * n];
            let mut c_naive = vec![-0.25; m * n];
            gemm_tn_with(GemmKernel::Blocked, m, k, n, a.as_slice(), b.as_slice(), &mut c_blocked);
            gemm_tn_with(GemmKernel::Naive, m, k, n, a.as_slice(), b.as_slice(), &mut c_naive);
            assert_eq!(c_blocked, c_naive, "tn ({m},{k},{n})");
            // nt: B stored [n x k]
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(n, k, 1.0, &mut rng);
            let mut c_blocked = vec![1.25; m * n];
            let mut c_naive = vec![1.25; m * n];
            gemm_nt_with(GemmKernel::Blocked, m, k, n, a.as_slice(), b.as_slice(), &mut c_blocked);
            gemm_nt_with(GemmKernel::Naive, m, k, n, a.as_slice(), b.as_slice(), &mut c_naive);
            assert_eq!(c_blocked, c_naive, "nt ({m},{k},{n})");
        }
    }

    #[test]
    fn nan_inf_propagate_through_zero_a_entries() {
        // A zero in A must not suppress NaN/Inf coming from B: 0 * NaN and
        // 0 * Inf are both NaN under IEEE 754, in every kernel.
        let (m, k, n) = (2, 3, 2);
        let a = vec![1.0, 0.0, 2.0, 0.0, 0.0, 0.0];
        let mut b = vec![1.0; k * n];
        b[2] = f32::NAN; // B[1, 0]
        b[5] = f32::INFINITY; // B[2, 1]
        for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
            let mut c = vec![0.0; m * n];
            gemm_nn_with(kernel, m, k, n, &a, &b, &mut c);
            assert!(c[0].is_nan(), "{kernel}: 0*NaN must poison C[0,0]");
            assert!(c[2].is_nan(), "{kernel}: all-zero A row still sees NaN");
            assert!(c[3].is_nan(), "{kernel}: 0*Inf must poison C[1,1]");
        }
        // And the two kernels agree on which lanes are NaN, and bitwise on
        // the others. NaN payloads are not compared: an optimised build may
        // constant-fold the naive kernel's 0·∞ to a positive quiet NaN
        // while the AVX2 kernel produces x86's default NaN (sign bit set).
        let mut c_b = vec![0.0; m * n];
        let mut c_n = vec![0.0; m * n];
        gemm_nn_with(GemmKernel::Blocked, m, k, n, &a, &b, &mut c_b);
        gemm_nn_with(GemmKernel::Naive, m, k, n, &a, &b, &mut c_n);
        for (i, (x, y)) in c_b.iter().zip(&c_n).enumerate() {
            assert_eq!(x.is_nan(), y.is_nan(), "lane {i}: NaN-ness differs");
            if !x.is_nan() {
                assert_eq!(x.to_bits(), y.to_bits(), "lane {i}");
            }
        }
    }

    #[test]
    fn accumulation_semantics() {
        // Kernels accumulate into C rather than overwriting.
        for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
            let a = vec![1.0, 0.0, 0.0, 1.0];
            let b = vec![2.0, 0.0, 0.0, 2.0];
            let mut c = vec![1.0, 1.0, 1.0, 1.0];
            gemm_nn_with(kernel, 2, 2, 2, &a, &b, &mut c);
            assert_eq!(c, vec![3.0, 1.0, 1.0, 3.0], "{kernel}");
        }
    }

    #[test]
    fn parallel_band_split_matches_serial() {
        // Large enough that the banded path runs.
        let mut rng = Rng::seed_from_u64(4);
        let (m, k, n) = (216, 200, 204);
        assert!(team::pays(m * k * n));
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        let mut c_par = vec![0.0; m * n];
        gemm_nn_with(GemmKernel::Naive, m, k, n, a.as_slice(), b.as_slice(), &mut c_par);
        let mut c_serial = vec![0.0; m * n];
        gemm_nn_serial(m, k, n, a.as_slice(), b.as_slice(), &mut c_serial);
        assert_eq!(c_par, c_serial);
    }

    #[test]
    fn blocked_panel_scheduler_matches_serial() {
        // The banded blocked path (bands claimed by the caller and the
        // team) must be bitwise identical to a single serial blocked sweep
        // — every C element's k-ascending update chain lives in one band.
        let mut rng = Rng::seed_from_u64(5);
        let (m, k, n) = (217, 200, 203); // banded, ragged edges
        assert!(team::pays(m * k * n));
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        let mut c_par = vec![0.0; m * n];
        gemm_nn_with(GemmKernel::Blocked, m, k, n, a.as_slice(), b.as_slice(), &mut c_par);
        let bp = pack_b(Layout::Nn, k, k, n, b.as_slice());
        let mut c_serial = vec![0.0; m * n];
        blocked_rows(Layout::Nn, 0, m, m, k, k, n, a.as_slice(), &bp, &mut c_serial);
        assert_eq!(c_par, c_serial);
    }

    #[test]
    fn gemm_nt_blocks_packs_short_blocks_together_bitwise() {
        // Blocks of 400 columns go two to a kernel call, blocks of 1500 one
        // each: either way the result is the Tn product of the stacked
        // transposes, accumulated into a nonzero C, in both kernels.
        for (m, k, n, blocks) in
            [(20usize, 400usize, 13usize, 5usize), (9, 1500, 7, 2), (50, 7, 33, 300)]
        {
            let mut rng = Rng::seed_from_u64((m + k + n) as u64);
            let a = Matrix::randn(blocks * m, k, 1.0, &mut rng);
            let b = Matrix::randn(blocks * n, k, 1.0, &mut rng);
            let stack = |x: &Matrix, d: usize| {
                Matrix::from_fn(blocks * k, d, |r, i| x.get((r / k) * d + i, r % k))
            };
            let (at, bt) = (stack(&a, m), stack(&b, n));
            let mut expect = vec![0.5f32; m * n];
            gemm_tn_with(
                GemmKernel::Naive,
                m,
                blocks * k,
                n,
                at.as_slice(),
                bt.as_slice(),
                &mut expect,
            );
            for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
                let mut c = vec![0.5f32; m * n];
                gemm_nt_blocks_with(kernel, m, k, n, a.as_slice(), b.as_slice(), &mut c);
                for (x, y) in c.iter().zip(&expect) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{kernel} ({m},{k},{n})x{blocks}");
                }
            }
        }
    }

    #[test]
    fn interleave_matches_its_portable_loop_bitwise() {
        // Every row count up to the panel width (MR and NR) and `kb` on
        // both sides of the 8-wide transpose, into a dirty panel: the same
        // bits, padding lanes zeroed.
        fn check<const W: usize>() {
            for nr in 1..=W {
                for kb in [1usize, 7, 8, 9, 16, 23, 40] {
                    let rows: Vec<f32> = (0..nr * kb)
                        .map(|i| f32::from_bits(0x3f80_0000 + i as u32 * 977))
                        .collect();
                    let mut fast = vec![f32::NAN; kb * W];
                    let mut slow = vec![f32::NAN; kb * W];
                    interleave::<W>(&rows, kb, &mut fast);
                    interleave_portable::<W>(&rows, kb, 0, &mut slow);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&fast), bits(&slow), "W={W} nr={nr} kb={kb}");
                    for kk in 0..kb {
                        assert_eq!(fast[kk * W + nr - 1], rows[(nr - 1) * kb + kk]);
                        assert!(fast[kk * W + nr..(kk + 1) * W].iter().all(|&v| v == 0.0));
                    }
                }
            }
        }
        check::<MR>();
        check::<NR>();
    }

    #[test]
    fn kernel_selection_parses_and_displays() {
        for (s, k) in [
            ("auto", GemmKernel::Auto),
            ("BLOCKED", GemmKernel::Blocked),
            ("naive", GemmKernel::Naive),
        ] {
            assert_eq!(s.parse::<GemmKernel>().unwrap(), k);
        }
        assert!("fast".parse::<GemmKernel>().is_err());
        assert_eq!(GemmKernel::Blocked.to_string(), "blocked");
    }
}
