//! im2col / col2im lowering for convolution.
//!
//! Convolution is lowered to GEMM in the column ("Caffe") layout: each
//! image becomes a patch matrix `Pt` of shape `(C_in·KH·KW) x (H_out·W_out)`
//! whose column `oy·W_out + ox` is the receptive field of output pixel
//! `(oy, ox)` ([`im2col_image`]), so `W · Pt` is that image's NCHW output
//! block and its adjoint ([`col2im_image`]) folds `Wᵀ · G` back onto the
//! input. The blocks are also what K-FAC's `A` factor of a Conv2d layer is
//! computed from (Grosse & Martens, "A Kronecker-factored approximate
//! Fisher matrix for convolution layers"): `A = Σ Pt·Ptᵀ`.
//!
//! [`im2col`] and [`col2im`] are the row layout — one patch per row of an
//! `(N·H_out·W_out) x (C_in·KH·KW)` matrix — kept as the oracle the column
//! path is tested against, element for element and add for add.

use crate::{Matrix, Tensor4};

/// Geometry of a 2-D convolution: kernel, stride, and zero-padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeom {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride along height.
    pub sh: usize,
    /// Stride along width.
    pub sw: usize,
    /// Zero padding along height (both sides).
    pub ph: usize,
    /// Zero padding along width (both sides).
    pub pw: usize,
}

impl Conv2dGeom {
    /// Square kernel with equal stride and padding on both axes.
    pub fn square(k: usize, stride: usize, pad: usize) -> Self {
        Conv2dGeom { kh: k, kw: k, sh: stride, sw: stride, ph: pad, pw: pad }
    }

    /// Output spatial size for an input of `(h, w)`.
    pub fn out_shape(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.ph - self.kh) / self.sh + 1;
        let ow = (w + 2 * self.pw - self.kw) / self.sw + 1;
        (oh, ow)
    }
}

/// The row-layout oracle: lower an NCHW input to the patch matrix.
///
/// Output shape: `(n * oh * ow) x (c * kh * kw)`; row `((n*oh)+oy)*ow+ox`
/// holds the receptive field of output pixel `(oy, ox)` of image `n`,
/// channel-major then kernel-row then kernel-col.
pub fn im2col(input: &Tensor4, geom: &Conv2dGeom) -> Matrix {
    let (n, c, h, w) = input.shape();
    let (oh, ow) = geom.out_shape(h, w);
    let patch_len = c * geom.kh * geom.kw;
    let mut out = Matrix::zeros(n * oh * ow, patch_len);
    for img in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = out.row_mut((img * oh + oy) * ow + ox);
                let mut col = 0usize;
                for ch in 0..c {
                    for ky in 0..geom.kh {
                        let iy = (oy * geom.sh + ky) as isize - geom.ph as isize;
                        for kx in 0..geom.kw {
                            let ix = (ox * geom.sw + kx) as isize - geom.pw as isize;
                            if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                row[col] = input.get(img, ch, iy as usize, ix as usize);
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    }
    out
}

/// The output columns `ox` of one kernel column `kx` whose input column
/// `ox·sw + kx - pw` lies inside `0..w`, as a range (empty when none does).
fn valid_ox(kx: usize, ow: usize, w: usize, geom: &Conv2dGeom) -> std::ops::Range<usize> {
    let first = geom.pw.saturating_sub(kx).div_ceil(geom.sw).min(ow);
    let end = if w + geom.pw > kx { (w + geom.pw - kx).div_ceil(geom.sw).min(ow) } else { 0 };
    first..end.max(first)
}

/// Lower image `img` of an NCHW input into `out`, its column-layout patch
/// matrix `(c·kh·kw) x (oh·ow)`, row-major: row `(ch·kh + ky)·kw + kx`
/// holds, for every output pixel, the input value under kernel tap
/// `(ch, ky, kx)`. Each `(ch, ky, kx, oy)` segment of a row is one run of
/// input row `iy` (contiguous at stride 1), with the padding written as
/// zeros, so `out` needs no clearing. Bit for bit the transpose of image
/// `img`'s rows of [`im2col`].
pub fn im2col_image(input: &Tensor4, img: usize, geom: &Conv2dGeom, out: &mut [f32]) {
    let (_, c, h, w) = input.shape();
    let (oh, ow) = geom.out_shape(h, w);
    assert_eq!(out.len(), c * geom.kh * geom.kw * oh * ow, "im2col_image: block size mismatch");
    let image = &input.as_slice()[img * c * h * w..(img + 1) * c * h * w];
    let mut rows = out.chunks_exact_mut(oh * ow);
    for plane in image.chunks_exact(h * w) {
        for ky in 0..geom.kh {
            for kx in 0..geom.kw {
                let row = rows.next().expect("one row per kernel tap");
                let ox_run = valid_ox(kx, ow, w, geom);
                for (oy, seg) in row.chunks_exact_mut(ow).enumerate() {
                    let iy = (oy * geom.sh + ky).wrapping_sub(geom.ph);
                    if iy >= h || ox_run.is_empty() {
                        seg.fill(0.0);
                        continue;
                    }
                    seg[..ox_run.start].fill(0.0);
                    seg[ox_run.end..].fill(0.0);
                    let ix0 = ox_run.start * geom.sw + kx - geom.pw;
                    let src = &plane[iy * w + ix0..(iy + 1) * w];
                    let dst = &mut seg[ox_run.clone()];
                    if geom.sw == 1 {
                        dst.copy_from_slice(&src[..dst.len()]);
                    } else {
                        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(geom.sw)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// Fold one image's column-layout patch gradient `cols`
/// (`(c·kh·kw) x (oh·ow)`, as [`im2col_image`] lays it out) into `out`, that
/// image's `c x h x w` input-gradient block: the adjoint of
/// [`im2col_image`], accumulating into `out`.
///
/// The kernel taps are walked in *descending* `(ky, kx)` order. An input
/// pixel under tap `(ky, kx)` of output pixel `(oy, ox)` has
/// `oy·sh + ky` and `ox·sw + kx` fixed, so a later tap means an earlier
/// output pixel: descending taps deliver each input pixel's adds in
/// ascending `(oy, ox)`, the order the row-layout [`col2im`] adds them in,
/// and a zeroed `out` comes back bit for bit what [`col2im`] returns.
pub fn col2im_image(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    geom: &Conv2dGeom,
    out: &mut [f32],
) {
    let (oh, ow) = geom.out_shape(h, w);
    let hw_out = oh * ow;
    assert_eq!(cols.len(), c * geom.kh * geom.kw * hw_out, "col2im_image: block size mismatch");
    assert_eq!(out.len(), c * h * w, "col2im_image: image size mismatch");
    let taps = geom.kh * geom.kw;
    for (ch_cols, plane) in cols.chunks_exact(taps * hw_out).zip(out.chunks_exact_mut(h * w)) {
        for ky in (0..geom.kh).rev() {
            for kx in (0..geom.kw).rev() {
                let row = &ch_cols[(ky * geom.kw + kx) * hw_out..][..hw_out];
                let ox_run = valid_ox(kx, ow, w, geom);
                if ox_run.is_empty() {
                    continue;
                }
                let ix0 = ox_run.start * geom.sw + kx - geom.pw;
                for (oy, seg) in row.chunks_exact(ow).enumerate() {
                    let iy = (oy * geom.sh + ky).wrapping_sub(geom.ph);
                    if iy >= h {
                        continue;
                    }
                    let src = &seg[ox_run.clone()];
                    let dst = &mut plane[iy * w + ix0..(iy + 1) * w];
                    if geom.sw == 1 {
                        for (d, &v) in dst.iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in dst.iter_mut().step_by(geom.sw).zip(src) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

/// The row-layout oracle's adjoint: scatter a patch-matrix gradient back to
/// an NCHW input gradient (the adjoint of [`im2col`]), overlapping patches
/// accumulating in ascending patch-row order.
pub fn col2im(
    patches: &Matrix,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    geom: &Conv2dGeom,
) -> Tensor4 {
    let (oh, ow) = geom.out_shape(h, w);
    assert_eq!(patches.rows(), n * oh * ow, "col2im row count mismatch");
    assert_eq!(patches.cols(), c * geom.kh * geom.kw, "col2im patch length mismatch");
    let mut out = Tensor4::zeros(n, c, h, w);

    for img in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = patches.row((img * oh + oy) * ow + ox);
                let mut col = 0usize;
                for ch in 0..c {
                    for ky in 0..geom.kh {
                        let iy = (oy * geom.sh + ky) as isize - geom.ph as isize;
                        for kx in 0..geom.kw {
                            let ix = (ox * geom.sw + kx) as isize - geom.pw as isize;
                            if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                let v = out.get(img, ch, iy as usize, ix as usize) + row[col];
                                out.set(img, ch, iy as usize, ix as usize, v);
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn out_shape_known_cases() {
        let g = Conv2dGeom::square(3, 1, 1);
        assert_eq!(g.out_shape(8, 8), (8, 8)); // "same" conv
        let g2 = Conv2dGeom::square(3, 2, 1);
        assert_eq!(g2.out_shape(8, 8), (4, 4));
        let g3 = Conv2dGeom::square(1, 1, 0);
        assert_eq!(g3.out_shape(5, 7), (5, 7));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: patch matrix is just a channel-major
        // pixel list.
        let mut t = Tensor4::zeros(1, 2, 2, 2);
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            *v = i as f32;
        }
        let g = Conv2dGeom::square(1, 1, 0);
        let p = im2col(&t, &g);
        assert_eq!(p.shape(), (4, 2));
        // Pixel (0,0): channels 0 and 1 -> values 0 and 4.
        assert_eq!(p.row(0), &[0.0, 4.0]);
        assert_eq!(p.row(3), &[3.0, 7.0]);
    }

    #[test]
    fn im2col_padding_zeroes_border() {
        let t = Tensor4::from_vec(1, 1, 2, 2, vec![1., 2., 3., 4.]);
        let g = Conv2dGeom::square(3, 1, 1);
        let p = im2col(&t, &g);
        assert_eq!(p.shape(), (4, 9));
        // Output (0,0): top-left 3x3 window centered at (0,0); corners padded.
        assert_eq!(p.row(0), &[0., 0., 0., 0., 1., 2., 0., 3., 4.]);
    }

    #[test]
    fn conv_via_im2col_matches_direct() {
        // Direct convolution vs im2col+GEMM for a random case.
        let mut rng = Rng::seed_from_u64(9);
        let x = Tensor4::randn(2, 3, 5, 5, 1.0, &mut rng);
        let g = Conv2dGeom::square(3, 1, 1);
        let c_out = 4;
        // Weights: (c_out, c_in*kh*kw)
        let wmat = Matrix::randn(c_out, 3 * 9, 0.2, &mut rng);
        let patches = im2col(&x, &g);
        let y = patches.matmul_nt(&wmat); // (n*oh*ow, c_out)

        let (oh, ow) = g.out_shape(5, 5);
        for img in 0..2 {
            for co in 0..c_out {
                for oy in 0..oh {
                    for ox in 0..ow {
                        // Direct conv.
                        let mut acc = 0.0f32;
                        let mut wi = 0usize;
                        for ci in 0..3 {
                            for ky in 0..3 {
                                for kx in 0..3 {
                                    let iy = oy as isize + ky as isize - 1;
                                    let ix = ox as isize + kx as isize - 1;
                                    if (0..5).contains(&iy) && (0..5).contains(&ix) {
                                        acc += x.get(img, ci, iy as usize, ix as usize)
                                            * wmat.get(co, wi);
                                    }
                                    wi += 1;
                                }
                            }
                        }
                        let got = y.get((img * oh + oy) * ow + ox, co);
                        assert!((got - acc).abs() < 1e-4, "mismatch at {img},{co},{oy},{ox}");
                    }
                }
            }
        }
    }

    /// Every geometry the column-layout tests sweep: kernel 1–5, stride
    /// 1–3, padding 0–2 (including windows wholly in the padding), `h ≠ w`.
    fn geometries() -> impl Iterator<Item = (Conv2dGeom, usize, usize)> {
        (1..=5usize).flat_map(|k| {
            (1..=3).flat_map(move |s| {
                (0..=2).flat_map(move |p| {
                    let h = k.saturating_sub(2 * p).max(1);
                    [(h, h + 2), (h + 3, h + 1)].map(|(h, w)| (Conv2dGeom::square(k, s, p), h, w))
                })
            })
        })
    }

    #[test]
    fn im2col_image_is_the_transpose_of_the_row_oracle_bitwise() {
        let mut rng = Rng::seed_from_u64(14);
        for (g, h, w) in geometries() {
            let x = Tensor4::randn(2, 3, h, w, 1.0, &mut rng);
            let rows = im2col(&x, &g);
            let (oh, ow) = g.out_shape(h, w);
            let (hw, p) = (oh * ow, rows.cols());
            // A dirty buffer: every element must be written.
            let mut cols = vec![f32::NAN; p * hw];
            for img in 0..2 {
                im2col_image(&x, img, &g, &mut cols);
                for (col, row) in cols.chunks_exact(hw).enumerate() {
                    for (px, &v) in row.iter().enumerate() {
                        let expect = rows.get(img * hw + px, col);
                        assert_eq!(v.to_bits(), expect.to_bits(), "{g:?} {h}x{w} img {img}");
                    }
                }
            }
        }
    }

    #[test]
    fn col2im_image_matches_the_row_oracle_bitwise() {
        let mut rng = Rng::seed_from_u64(15);
        for (g, h, w) in geometries() {
            let (n, c) = (2, 2);
            let (oh, ow) = g.out_shape(h, w);
            let (hw, p) = (oh * ow, c * g.kh * g.kw);
            let grad = Matrix::randn(n * hw, p, 1.0, &mut rng);
            let expect = col2im(&grad, n, c, h, w, &g);
            let mut got = Tensor4::zeros(n, c, h, w);
            for (img, out) in got.as_mut_slice().chunks_exact_mut(c * h * w).enumerate() {
                let cols: Vec<f32> =
                    (0..p * hw).map(|i| grad.get(img * hw + i % hw, i / hw)).collect();
                col2im_image(&cols, c, h, w, &g, out);
            }
            for (a, b) in got.as_slice().iter().zip(expect.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{g:?} {h}x{w}");
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), p> == <x, col2im(p)> for random x, p — the defining
        // property of the adjoint, which is what backprop requires.
        let mut rng = Rng::seed_from_u64(10);
        let x = Tensor4::randn(2, 2, 4, 4, 1.0, &mut rng);
        let g = Conv2dGeom::square(3, 2, 1);
        let px = im2col(&x, &g);
        let p = Matrix::randn(px.rows(), px.cols(), 1.0, &mut rng);
        let lhs = px.dot(&p);
        let back = col2im(&p, 2, 2, 4, 4, &g);
        let rhs: f32 = x.as_slice().iter().zip(back.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "lhs={lhs} rhs={rhs}");
    }
}
