//! No thread is created on the step path: once the team's helpers exist,
//! GEMM and SYRK calls of any size leave the process's thread count alone —
//! afterwards, and at every moment a watcher looks while they run (a thread
//! spawned and joined inside a call would be back out of the count by the
//! time the call returns).
//!
//! This is the only test in its binary on purpose — the libtest harness
//! starts and retires a thread per test, which would move the count.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, Ordering};

use kaisa_tensor::{Matrix, Rng};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("/proc/self/task is readable").count()
}

#[test]
fn banded_products_create_no_threads_after_warm_up() {
    let mut rng = Rng::seed_from_u64(3);
    // Just above the banding threshold (8 Mi multiply-adds; half of m·m·k
    // for the Gram product) and far below it, all three layouts and SYRK.
    let big = Matrix::randn(200, 210, 1.0, &mut rng);
    let big_t = big.transpose();
    let square = Matrix::randn(210, 210, 1.0, &mut rng);
    let tall = Matrix::randn(300, 240, 1.0, &mut rng);
    let small = Matrix::randn(24, 40, 1.0, &mut rng);
    let small_sq = Matrix::randn(40, 40, 1.0, &mut rng);
    let mixed = || {
        std::hint::black_box(big.matmul(&square));
        std::hint::black_box(big_t.matmul_tn(&square));
        std::hint::black_box(big.matmul_nt(&square));
        std::hint::black_box(tall.gram_tn());
        std::hint::black_box(small.matmul(&small_sq));
        std::hint::black_box(small.gram_tn());
    };

    mixed(); // warm-up: the first offered region starts the helpers
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut most = threads();
            while !done.load(Ordering::Acquire) {
                most = most.max(threads());
            }
            most
        });
        let before = threads(); // watcher included
        for _ in 0..34 {
            mixed(); // 6 calls each: 204 in all
        }
        let after = threads();
        done.store(true, Ordering::Release);
        let most = watcher.join().expect("watcher panicked");
        assert_eq!(after, before, "a GEMM/SYRK call left a thread behind or retired one");
        assert!(most <= before, "{} threads seen during the calls, {before} before", most);
    });
}
