//! The compute team against its reference: a product whose bands were
//! claimed by the caller and by helper threads must equal, bit for bit, the
//! same product with every band run inline on the caller
//! (`kaisa_tensor::inline_bands`) — for every layout, on both kernels, and
//! while other threads are inside products of their own.

use std::sync::Barrier;

use kaisa_tensor::{
    gemm_nn_with, gemm_nt_with, gemm_tn_with, inline_bands, syrk_tn_with, GemmKernel, Rng,
};
use proptest::prelude::*;

fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..len).map(|_| rng.next_f32() - 0.5).collect()
}

/// One of the eight (layout, kernel) products, accumulated into `c0`.
fn product(which: usize, m: usize, k: usize, n: usize, seed: u64) -> Vec<f32> {
    let kernel = if which & 4 == 0 { GemmKernel::Blocked } else { GemmKernel::Naive };
    let a = fill(m * k, seed);
    let b = fill(k * n, seed ^ 0x9e37);
    match which & 3 {
        0 => {
            let mut c = fill(m * n, seed ^ 1);
            gemm_nn_with(kernel, m, k, n, &a, &b, &mut c);
            c
        }
        1 => {
            let mut c = fill(m * n, seed ^ 2);
            gemm_tn_with(kernel, m, k, n, &a, &b, &mut c);
            c
        }
        2 => {
            let mut c = fill(m * n, seed ^ 3);
            gemm_nt_with(kernel, m, k, n, &a, &b, &mut c);
            c
        }
        _ => {
            // A Gram product of the `[k x m]` operand; `C` starts at zero,
            // as symmetric as `syrk_tn` requires.
            let mut c = vec![0.0f32; m * m];
            syrk_tn_with(kernel, m, k, &a, &mut c);
            c
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shapes start where products are cut into bands (8 Mi multiply-adds;
    /// half of `m·m·k` for the Gram product) and are ragged against every
    /// tile size. Each caller checks its own result.
    #[test]
    fn team_matches_inline_bands_bitwise_under_concurrent_callers(
        seed in any::<u64>(),
        m in 260usize..330,
        k in 250usize..300,
        n in 130usize..200,
        callers in 1usize..=4,
        first in 0usize..8,
    ) {
        let start = Barrier::new(callers);
        let mismatches: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..callers)
                .map(|t| {
                    let start = &start;
                    scope.spawn(move || {
                        let which = (first + t) % 8;
                        let seed = seed.wrapping_add(t as u64);
                        start.wait();
                        let teamed = product(which, m, k, n, seed);
                        let inline = inline_bands(|| product(which, m, k, n, seed));
                        let same = teamed.iter().zip(&inline).all(|(x, y)| x.to_bits() == y.to_bits());
                        (!same).then(|| format!("caller {t}, product {which}"))
                    })
                })
                .collect();
            handles.into_iter().filter_map(|h| h.join().expect("caller panicked")).collect()
        });
        prop_assert!(mismatches.is_empty(), "{:?}", mismatches);
    }
}
