//! Four-dimensional NCHW activation tensors for convolutional layers.

use crate::Rng;

/// A dense 4-D tensor in NCHW layout (batch, channels, height, width).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor4 {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    data: Vec<f32>,
}

impl Tensor4 {
    /// Create an NCHW tensor of zeros.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        Tensor4 { n, c, h, w, data: vec![0.0; n * c * h * w] }
    }

    /// Create from a raw NCHW data vector.
    ///
    /// # Panics
    /// If `data.len() != n*c*h*w`.
    pub fn from_vec(n: usize, c: usize, h: usize, w: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), n * c * h * w, "data length must equal n*c*h*w");
        Tensor4 { n, c, h, w, data }
    }

    /// Tensor with i.i.d. normal entries scaled by `std`.
    pub fn randn(n: usize, c: usize, h: usize, w: usize, std: f32, rng: &mut Rng) -> Self {
        let mut t = Tensor4::zeros(n, c, h, w);
        for v in t.data.iter_mut() {
            *v = rng.normal() * std;
        }
        t
    }

    /// Batch size.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }
    /// Channel count.
    #[inline]
    pub fn c(&self) -> usize {
        self.c
    }
    /// Height.
    #[inline]
    pub fn h(&self) -> usize {
        self.h
    }
    /// Width.
    #[inline]
    pub fn w(&self) -> usize {
        self.w
    }

    /// `(n, c, h, w)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.n, self.c, self.h, self.w)
    }

    /// Total element count.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Flat index of `(n, c, h, w)`.
    #[inline]
    pub fn idx(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        ((n * self.c + c) * self.h + h) * self.w + w
    }

    /// Read one element.
    #[inline]
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.idx(n, c, h, w)]
    }

    /// Write one element.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, value: f32) {
        let i = self.idx(n, c, h, w);
        self.data[i] = value;
    }

    /// Raw NCHW data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Raw NCHW data, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One image (all channels) of the batch as a slice.
    pub fn image(&self, n: usize) -> &[f32] {
        let sz = self.c * self.h * self.w;
        &self.data[n * sz..(n + 1) * sz]
    }

    /// Elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Tensor4) {
        assert_eq!(self.shape(), other.shape(), "tensor add shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// Scale all elements.
    pub fn scale(&mut self, s: f32) {
        self.data.iter_mut().for_each(|v| *v *= s);
    }

    /// Apply `f` elementwise in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Per-channel mean over batch and spatial dims.
    #[allow(clippy::needless_range_loop)]
    pub fn channel_means(&self) -> Vec<f32> {
        let mut means = vec![0.0f64; self.c];
        for n in 0..self.n {
            for c in 0..self.c {
                let base = (n * self.c + c) * self.h * self.w;
                let s: f64 =
                    self.data[base..base + self.h * self.w].iter().map(|&v| v as f64).sum();
                means[c] += s;
            }
        }
        let denom = (self.n * self.h * self.w) as f64;
        means.iter().map(|&m| (m / denom) as f32).collect()
    }

    /// True if all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_roundtrip() {
        let mut t = Tensor4::zeros(2, 3, 4, 5);
        t.set(1, 2, 3, 4, 7.5);
        assert_eq!(t.get(1, 2, 3, 4), 7.5);
        assert_eq!(t.as_slice()[t.idx(1, 2, 3, 4)], 7.5);
    }

    #[test]
    fn channel_means_simple() {
        let mut t = Tensor4::zeros(2, 2, 1, 1);
        t.set(0, 0, 0, 0, 1.0);
        t.set(1, 0, 0, 0, 3.0);
        t.set(0, 1, 0, 0, 10.0);
        t.set(1, 1, 0, 0, 20.0);
        let means = t.channel_means();
        assert_eq!(means, vec![2.0, 15.0]);
    }
}
