//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component of the reproduction (weight init, data
//! synthesis, batch shuffling) draws from this generator so that runs are
//! bit-reproducible for a given seed, independent of thread scheduling. The
//! generator is xoshiro256++ seeded through SplitMix64, the standard
//! recommendation by the xoshiro authors.

/// A deterministic xoshiro256++ pseudo-random number generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
    /// Cached second normal variate from Box-Muller.
    spare_normal: Option<f64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let state =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Rng { state, spare_normal: None }
    }

    /// Derive an independent child generator (e.g. one per rank) without
    /// correlating streams: mixes the parent's next output with the stream id.
    pub fn fork(&mut self, stream: u64) -> Rng {
        let base = self.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        Rng::seed_from_u64(base)
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        self.next_f64() as f32
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform integer in `[0, n)` using Lemire's rejection-free-in-practice
    /// multiply-shift with rejection for exactness.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0) is undefined");
        // Rejection sampling on the top bits to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Uniform `usize` index in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.next_below(n as u64) as usize
    }

    /// Standard normal variate via Box-Muller (cached pairs).
    pub fn normal(&mut self) -> f32 {
        if let Some(z) = self.spare_normal.take() {
            return z as f32;
        }
        // Avoid log(0).
        let u1 = loop {
            let u = self.next_f64();
            if u > 1e-300 {
                break u;
            }
        };
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        (r * theta.cos()) as f32
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.uniform(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
        }
    }

    #[test]
    fn next_below_unbiased_small() {
        let mut rng = Rng::seed_from_u64(99);
        let mut counts = [0usize; 5];
        let n = 50_000;
        for _ in 0..n {
            counts[rng.next_below(5) as usize] += 1;
        }
        for &c in &counts {
            let expected = n / 5;
            assert!((c as i64 - expected as i64).unsigned_abs() < (n / 50) as u64, "{counts:?}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from_u64(123);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal() as f64).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle should move something");
    }

    #[test]
    fn fork_decorrelates_streams() {
        let mut parent = Rng::seed_from_u64(11);
        let mut c0 = parent.fork(0);
        let mut c1 = parent.fork(1);
        let same = (0..64).filter(|_| c0.next_u64() == c1.next_u64()).count();
        assert_eq!(same, 0);
    }
}
