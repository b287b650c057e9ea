//! Order statistics and the reporting rules every timing goes through.

/// Median (mean of the two middle values for an even count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank percentile (`p` in 1..=100); 0 for no samples.
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * p as usize).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// The highest reporting percentile that still has at least ten samples
/// beyond it — the tail a sample of this size can support. `None` below 20
/// samples, where not even the median qualifies.
pub fn supported_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75, 50].into_iter().find(|&p| n * (100 - p as usize) / 100 >= 10)
}

/// Median seconds of `reps` calls of `f`, each after an untimed `before`.
pub fn time_reps(reps: usize, mut before: impl FnMut(), mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            before();
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A healthy run may end a window with its mean loss this far above where it
/// began: a window can be as short as two cycles, and early on a cycle's mean
/// can sit above the first's while the run learns (on `resnet_comm_opt`, one
/// seed in fifty shows a cycle at 1.13 x the first, the rest stay below 1.0),
/// while a diverging run multiplies its loss within tens of steps.
const LOSS_RISE_TOLERANCE: f64 = 1.5;

/// The loss rule every workload is held to: the late mean is finite, above
/// `floor` (below it GEMMs run on subnormals and step time triples) and has not
/// risen past the early mean by more than the tolerance. How far it fell is
/// printed, not asserted: that depends on the seed and on how many steps the
/// machine fitted into the window.
pub fn loss_healthy(early: f64, late: f64, floor: f64) -> bool {
    late > floor && late < early * LOSS_RISE_TOLERANCE
}

/// FNV-1a over the bit patterns of a loss sequence: equal checksums mean the
/// two runs took bit-identical trajectories.
pub fn loss_checksum(losses: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for loss in losses {
        for byte in loss.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Derive the `k`-th independent seed from the run seed (splitmix64), so one
/// `--seed` drives every dataset, model and sampler seed.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95), 95.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&v, 1), 1.0);
        assert_eq!(percentile(&[7.0], 95), 7.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50));
        assert_eq!(supported_percentile(40), Some(75));
        assert_eq!(supported_percentile(100), Some(90));
        assert_eq!(supported_percentile(199), Some(90));
        assert_eq!(supported_percentile(200), Some(95));
        assert_eq!(supported_percentile(1000), Some(99));
    }

    #[test]
    fn loss_rule_passes_a_wobble_and_fails_divergence_and_the_floor() {
        assert!(loss_healthy(2.40, 1.90, 0.05));
        assert!(loss_healthy(2.39, 2.69, 0.05));
        assert!(!loss_healthy(2.40, 3.70, 0.05));
        assert!(!loss_healthy(2.40, 0.04, 0.05));
        assert!(!loss_healthy(2.40, f64::NAN, 0.05));
        assert!(!loss_healthy(2.40, f64::INFINITY, 0.05));
    }

    #[test]
    fn checksum_sees_single_bit_and_order() {
        let a = loss_checksum(&[1.0, 2.0]);
        assert_eq!(a, loss_checksum(&[1.0, 2.0]));
        assert_ne!(a, loss_checksum(&[2.0, 1.0]));
        assert_ne!(a, loss_checksum(&[1.0, f32::from_bits(2.0f32.to_bits() + 1)]));
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }
}
