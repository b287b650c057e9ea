//! Kernel-floor throughput harness: blocked-vs-naive GEMM GFLOP/s per
//! layout and shape, SYRK-vs-`gemm_tn` Gram cells, the compute team against
//! its inline band loop (small-product latency at the step shapes, and two
//! concurrent callers), `sym_eig`-vs-oracle eigensolve latency at real
//! factor sizes (through `sym_eig_packed`, the entry `Kfac` calls on its
//! packed running factors) and `sym_eig`'s AVX2 solver body against its
//! portable compilation, the blocked GEMM through the AVX-512 microkernel
//! against the AVX2 one, the elementwise layers of the step path (`Gelu`,
//! `BatchNorm2d`) in ns per element, `Conv2d` forward + backward +
//! capture in its column layout against the row-layout pipeline it
//! replaced, and gradient preconditioning with the cached eigenvalue outer
//! product against recomputing it every call (KAISA §4.4), written as
//! `BENCH_kernels.json` next to `BENCH_comm.json`.
//!
//! Both kernels are measured in the same process on the same machine with
//! interleaved best-of trials (the comm_bench protocol), so the comparison
//! is self-calibrating on noisy runners. The naive kernels are the
//! permanent bitwise oracle — this harness is what keeps the blocked path
//! *worth having*.
//!
//! ```sh
//! cargo run --release -p kaisa-bench --bin kernel_bench            # full
//! cargo run --release -p kaisa-bench --bin kernel_bench -- --quick # CI
//! cargo run --release -p kaisa-bench --bin kernel_bench -- --no-gate --out k.json
//! ```
//!
//! Unless `--no-gate` is passed, the run *fails* (exit 1) if:
//!
//! * the blocked kernel drops below the naive kernel past the noise margin
//!   ([`GATE_TOLERANCE`]) on any measured (layout, shape) cell — the
//!   blocked path must never be a regression anywhere; or
//! * blocked `nn` fails to clear [`SPEEDUP_FLOOR`]× naive at the flagship
//!   512³ f32 shape — the whole point of the SIMD microkernel; or
//! * the SYRK factor-statistic kernel drops below `gemm_tn` past the same
//!   noise margin on any measured `(m, k)` Gram cell, or fails to clear
//!   [`SYRK_SPEEDUP_FLOOR`]× at the flagship 1024², k=4096 shape — the
//!   triangular half-flops saving must actually show up; or
//! * `sym_eig` is slower than its strided reference oracle past the same
//!   noise margin at any measured factor size, or misses a floor of
//!   [`EIG_SPEEDUP_FLOORS`] — the unit-stride walk has to keep paying for
//!   itself where the factors of the end-to-end workloads live; or
//! * on a CPU with AVX2, the AVX2 compilation of `sym_eig`'s solver body is
//!   slower than the portable one past the noise margin at the smallest of
//!   [`TWIN_SIZES`], or misses [`TWIN_FLOOR`] — a twin that lost its
//!   `#[target_feature]` inlining runs at the portable speed; or
//! * on a CPU with AVX-512F, the blocked `nn` product at 512×512×513 on one
//!   core is less than [`MICRO_TWIN_FLOOR`]× faster through the AVX-512
//!   microkernel than through the AVX2 one (and the two must agree bit for
//!   bit at every [`MICRO_TWIN_SHAPES`] entry, or the run panics); or
//! * a product at one of the step shapes ([`STEP_SHAPES`]) takes more than
//!   [`SMALL_LATENCY_CEILING`]× the inline band loop's p50 through the
//!   normal entry point — the team must cost a small product nothing; or
//! * two threads calling the flagship precondition product at once get less
//!   aggregate GFLOP/s than one caller alone, past the noise margin — two
//!   busy ranks must not be slowed by each other's offers; or
//! * `Gelu` forward + backward at BertMini's feed-forward shape costs more
//!   than [`GELU_NS_CEILING`] ns per element — one libm-free `tanh` per
//!   element, none in backward; or
//! * `Conv2d` forward + backward + capture in the column layout is slower
//!   than the row-layout oracle past the noise margin at either of
//!   [`CONV_SHAPES`] (and the two must agree bit for bit, or the run
//!   panics). The cell explains `bench_e2e`'s `nn.*` deltas; it claims
//!   nothing by itself.
//!
//! The §4.4 `precondition_outer` cell at [`PRECONDITION_SHAPES`] gates no
//! time: it explains why `Kfac` caches the outer product and claims
//! nothing. Its two arms must agree bit for bit, or the run panics.

use std::time::Instant;

use kaisa_core::KfacLayerState;
use kaisa_linalg::{
    sym_eig_packed, sym_eig_packed_portable, sym_eig_reference, EigScratch, EigenError, SymEig,
};
use kaisa_nn::{activation::Gelu, norm::BatchNorm2d, Conv2d, KfacCapture};
use kaisa_tensor::{
    col2im, gemm_nn_on, gemm_nn_with, gemm_nt_on, gemm_nt_with, gemm_tn_with, gram_tn_lower,
    im2col, inline_bands, pack_lower_scaled, packed_len, GemmKernel, Matrix, Microkernel, Rng,
    Tensor4,
};

/// Measured trials per cell; best is kept (each trial is a complete
/// measurement, so the best is the least scheduler-perturbed).
const TRIALS: usize = 3;
/// Minimum FLOPs per timed window so small shapes aren't timer-noise.
const WINDOW_FLOPS: f64 = 1.0e8;
/// Relative noise margin for the never-a-regression gate: blocked must
/// stay within this fraction below naive on every measured cell.
const GATE_TOLERANCE: f64 = 0.10;
/// Required blocked/naive speedup for layout `nn` at the flagship shape.
const SPEEDUP_FLOOR: f64 = 1.5;
/// The flagship gate shape (m, k, n).
const FLOOR_SHAPE: (usize, usize, usize) = (512, 512, 512);
/// Required `sym_eig`/reference speedups `(n, floor)`: 576 is the largest
/// factor of `bench_e2e`'s `resnet_comm_opt`, 512 the cache-set cliff of
/// the strided walk (4 KiB rows). Both sit above what the solver read
/// before its AVX2 twin (~8× and ~4×).
const EIG_SPEEDUP_FLOORS: [(usize, f64); 2] = [(512, 9.0), (576, 4.5)];
/// Sizes at which `sym_eig`'s AVX2 compilation of the solver body is timed
/// against its portable one: bert/serve's factor, bert's feed-forward
/// factor, resnet's largest.
const TWIN_SIZES: [usize; 3] = [65, 257, 576];
/// Required portable/AVX2 speedup `(n, floor)`: a twin that lost its
/// `#[target_feature]` inlining runs at the portable speed (~1.0×) and
/// fails here. The twin reads 1.12–1.38× on the 2-vCPU reference VM (a
/// third of the solve is cache-bound and gains nothing from AVX2), so the
/// floor sits below that spread.
const TWIN_FLOOR: (usize, f64) = (576, 1.1);
/// Blocked products timed through the AVX-512 and the AVX2 microkernel, one
/// core each: `mlp_wide_mem_opt`'s largest precondition product, and a
/// conv-capture-sized `nt` (`resnet_comm_opt`'s 576-wide patch factor).
const MICRO_TWIN_SHAPES: [(Layout, (usize, usize, usize)); 2] =
    [(Layout::Nn, (512, 512, 513)), (Layout::Nt, (64, 576, 1024))];
/// Required AVX2/AVX-512 time ratio at the first of [`MICRO_TWIN_SHAPES`]:
/// a kernel that lost its 16-lane rows runs at the AVX2 speed (~1.0×). The
/// twin read 1.34–1.60× on one core of the 2-vCPU reference VM.
const MICRO_TWIN_FLOOR: f64 = 1.15;
/// Required syrk/gemm_tn speedup at the flagship Gram shape — conservative
/// versus the theoretical ~2× flop halving (packing and the mirror are not
/// halved), but far above noise.
const SYRK_SPEEDUP_FLOOR: f64 = 1.3;
/// The flagship syrk gate shape `(m, k)`: a 1024² factor from 4096 patch
/// rows, the K-FAC conv-statistic regime the fast path exists for.
const SYRK_FLOOR_SHAPE: (usize, usize) = (1024, 4096);
/// The products a `bench_e2e` step is made of `(m, k, n)`: BertMini's
/// attention and feed-forward projections, and the wide MLP's forward pass
/// at local batch 8. All sit below the team's banding threshold.
const STEP_SHAPES: [(usize, usize, usize); 3] = [(256, 64, 64), (256, 64, 256), (8, 512, 512)];
/// Shapes on both sides of the banding threshold (8 Mi multiply-adds),
/// full mode only: the sweep the threshold was read from (EXPERIMENTS.md).
const SWEEP_SHAPES: [(usize, usize, usize); 5] =
    [(128, 128, 256), (128, 256, 256), (256, 256, 256), (512, 512, 257), (512, 513, 513)];
/// A step-shape product through the normal entry point may take at most
/// this many times the inline band loop's p50.
const SMALL_LATENCY_CEILING: f64 = 1.25;
/// The two-caller cell's shape: `mlp_wide_mem_opt`'s largest precondition
/// product.
const CONCURRENT_SHAPE: (usize, usize, usize) = (512, 513, 513);

/// `Gelu` forward + backward on one `bert_mem_opt_accum` micro-batch's
/// feed-forward activation `(rows, cols)`, and the ns-per-element ceiling it
/// is gated at (54 with libm's `tanhf` called in both passes, ~6 since).
const GELU_SHAPE: (usize, usize) = (256, 256);
const GELU_NS_CEILING: f64 = 12.0;
/// `BatchNorm2d` forward + backward on `resnet_comm_opt`'s stage-1
/// activation `(n, c, h, w)`; reported, not gated.
const BN2D_SHAPE: (usize, usize, usize, usize) = (16, 32, 16, 16);
/// `resnet_comm_opt`'s two 3×3 convolutions `(n, c_in, h, w, c_out)`
/// (stride 1, padding 1, no bias): stage 1 and stage 2 at batch 16.
const CONV_SHAPES: [(usize, usize, usize, usize, usize); 2] =
    [(16, 32, 16, 16, 32), (16, 64, 8, 8, 64)];

/// `(a_dim, g_dim)` of the §4.4 precompute-vs-recompute cell: a small and
/// a wide linear layer, and a 576-wide conv patch factor over 64 channels.
const PRECONDITION_SHAPES: [(usize, usize); 3] = [(64, 32), (256, 128), (576, 64)];
/// Damping γ of the outer product `1/(v_G v_Aᵀ + γ)` in that cell.
const PRECONDITION_DAMPING: f32 = 0.003;

#[derive(Clone, Copy, PartialEq)]
enum Layout {
    Nn,
    Tn,
    Nt,
}

const LAYOUTS: [Layout; 3] = [Layout::Nn, Layout::Tn, Layout::Nt];

impl Layout {
    fn name(self) -> &'static str {
        match self {
            Layout::Nn => "nn",
            Layout::Tn => "tn",
            Layout::Nt => "nt",
        }
    }

    /// Operand lengths for C(m×n): nn = A(m×k)·B(k×n), tn = Aᵀ with A
    /// stored k×m, nt = Bᵀ with B stored n×k.
    fn operand_lens(self, m: usize, k: usize, n: usize) -> (usize, usize) {
        match self {
            Layout::Nn => (m * k, k * n),
            Layout::Tn => (k * m, k * n),
            Layout::Nt => (m * k, n * k),
        }
    }

    fn run(
        self,
        kernel: GemmKernel,
        (m, k, n): (usize, usize, usize),
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        match self {
            Layout::Nn => gemm_nn_with(kernel, m, k, n, a, b, c),
            Layout::Tn => gemm_tn_with(kernel, m, k, n, a, b, c),
            Layout::Nt => gemm_nt_with(kernel, m, k, n, a, b, c),
        }
    }
}

/// One timed trial: `iters` back-to-back GEMMs (C zeroed per iteration —
/// both kernels pay the identical memset), returning GFLOP/s.
fn gemm_trial(
    layout: Layout,
    kernel: GemmKernel,
    shape: (usize, usize, usize),
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    iters: usize,
) -> f64 {
    let (m, k, n) = shape;
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    let start = Instant::now();
    for _ in 0..iters {
        c.fill(0.0);
        layout.run(kernel, shape, a, b, c);
    }
    flops * iters as f64 / start.elapsed().as_secs_f64() / 1.0e9
}

/// Measure one (layout, shape) cell: interleaved best-of-[`TRIALS`] for
/// both kernels, alternating which goes first so machine-speed drift
/// (frequency scaling, cache warm-up) biases neither.
fn measure_gemm(layout: Layout, m: usize, k: usize, n: usize) -> (f64, f64) {
    let mut rng = Rng::seed_from_u64(42);
    let (a_len, b_len) = layout.operand_lens(m, k, n);
    let a: Vec<f32> = (0..a_len).map(|_| rng.next_f32() - 0.5).collect();
    let b: Vec<f32> = (0..b_len).map(|_| rng.next_f32() - 0.5).collect();
    let mut c = vec![0.0f32; m * n];
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    let iters = (WINDOW_FLOPS / flops).ceil().max(1.0) as usize;

    // Warm both paths once (page-faults the buffers, settles detection).
    layout.run(GemmKernel::Blocked, (m, k, n), &a, &b, &mut c);
    c.fill(0.0);
    layout.run(GemmKernel::Naive, (m, k, n), &a, &b, &mut c);

    let (mut blocked, mut naive) = (0.0f64, 0.0f64);
    for t in 0..TRIALS {
        let order = if t % 2 == 0 {
            [GemmKernel::Blocked, GemmKernel::Naive]
        } else {
            [GemmKernel::Naive, GemmKernel::Blocked]
        };
        for kernel in order {
            let gflops = gemm_trial(layout, kernel, (m, k, n), &a, &b, &mut c, iters);
            match kernel {
                GemmKernel::Blocked => blocked = blocked.max(gflops),
                _ => naive = naive.max(gflops),
            }
        }
    }
    (blocked, naive)
}

/// Measure one `(m, k)` Gram cell — `AᵀA` via the capture's packed SYRK
/// entry ([`gram_tn_lower`]) vs the full `gemm_tn` — interleaved
/// best-of-[`TRIALS`], both on the blocked kernel (the production dispatch
/// at these shapes). GFLOP/s are *full-GEMM-equivalent* (`2·m²·k`) for
/// both, so the reported speedup is exactly the wall-time ratio and >1
/// means the triangular saving is real.
fn measure_syrk(m: usize, k: usize) -> (f64, f64) {
    let mut rng = Rng::seed_from_u64(44);
    let a: Vec<f32> = (0..k * m).map(|_| rng.next_f32() - 0.5).collect();
    let mut c = vec![0.0f32; m * m];
    let mut packed = vec![0.0f32; packed_len(m)];
    let flops = 2.0 * m as f64 * m as f64 * k as f64;
    let iters = (WINDOW_FLOPS / flops).ceil().max(1.0) as usize;

    let syrk_trial = |packed: &mut Vec<f32>| {
        let start = Instant::now();
        for _ in 0..iters {
            packed.fill(0.0);
            gram_tn_lower(GemmKernel::Blocked, m, k, &a, packed);
        }
        flops * iters as f64 / start.elapsed().as_secs_f64() / 1.0e9
    };
    let gemm_trial = |c: &mut Vec<f32>| {
        let start = Instant::now();
        for _ in 0..iters {
            c.fill(0.0);
            gemm_tn_with(GemmKernel::Blocked, m, k, m, &a, &a, c);
        }
        flops * iters as f64 / start.elapsed().as_secs_f64() / 1.0e9
    };

    // Warm both paths (page-faults the buffers, settles detection).
    gram_tn_lower(GemmKernel::Blocked, m, k, &a, &mut packed);
    gemm_tn_with(GemmKernel::Blocked, m, k, m, &a, &a, &mut c);

    let (mut syrk, mut gemm) = (0.0f64, 0.0f64);
    for t in 0..TRIALS {
        if t % 2 == 0 {
            syrk = syrk.max(syrk_trial(&mut packed));
            gemm = gemm.max(gemm_trial(&mut c));
        } else {
            gemm = gemm.max(gemm_trial(&mut c));
            syrk = syrk.max(syrk_trial(&mut packed));
        }
    }
    (syrk, gemm)
}

fn operand(len: usize, rng: &mut Rng) -> Vec<f32> {
    (0..len).map(|_| rng.next_f32() - 0.5).collect()
}

fn p50_us(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    samples[samples.len() / 2] * 1e6
}

/// Latency of one blocked `nn` product through the normal entry point (the
/// team decides) and with its bands forced inline on the caller: p50 over a
/// window of calls, interleaved best-of-[`TRIALS`] with alternating order.
/// Returns `(team_us, inline_us)`.
fn measure_latency(m: usize, k: usize, n: usize) -> (f64, f64) {
    let mut rng = Rng::seed_from_u64(46);
    let (a, b) = (operand(m * k, &mut rng), operand(k * n, &mut rng));
    let mut c = vec![0.0f32; m * n];
    let calls = (WINDOW_FLOPS / (2.0 * (m * k * n) as f64)).ceil().max(9.0) as usize;
    let mut window = |inline: bool| {
        let mut samples: Vec<f64> = (0..calls)
            .map(|_| {
                c.fill(0.0);
                let start = Instant::now();
                if inline {
                    inline_bands(|| gemm_nn_with(GemmKernel::Blocked, m, k, n, &a, &b, &mut c));
                } else {
                    gemm_nn_with(GemmKernel::Blocked, m, k, n, &a, &b, &mut c);
                }
                start.elapsed().as_secs_f64()
            })
            .collect();
        p50_us(&mut samples)
    };
    let _ = (window(false), window(true)); // warm both, start the helpers
    let (mut team, mut inline) = (f64::INFINITY, f64::INFINITY);
    for t in 0..TRIALS {
        for forced_inline in if t % 2 == 0 { [false, true] } else { [true, false] } {
            let us = window(forced_inline);
            if forced_inline {
                inline = inline.min(us);
            } else {
                team = team.min(us);
            }
        }
    }
    (team, inline)
}

/// Aggregate GFLOP/s of `callers` threads each running the same blocked
/// `nn` product back to back for one window, started together.
fn concurrent_trial(callers: usize, (m, k, n): (usize, usize, usize), iters: usize) -> f64 {
    let mut rng = Rng::seed_from_u64(47);
    let (a, b) = (operand(m * k, &mut rng), operand(k * n, &mut rng));
    let gate = std::sync::Barrier::new(callers);
    let slowest = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|_| {
                scope.spawn(|| {
                    let mut c = vec![0.0f32; m * n];
                    gemm_nn_with(GemmKernel::Blocked, m, k, n, &a, &b, &mut c);
                    gate.wait();
                    let start = Instant::now();
                    for _ in 0..iters {
                        c.fill(0.0);
                        gemm_nn_with(GemmKernel::Blocked, m, k, n, &a, &b, &mut c);
                    }
                    start.elapsed().as_secs_f64()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller panicked")).fold(0.0, f64::max)
    });
    2.0 * (m * k * n) as f64 * (iters * callers) as f64 / slowest / 1.0e9
}

/// One caller vs two at [`CONCURRENT_SHAPE`], interleaved
/// best-of-[`TRIALS`]: `(single_gflops, two_caller_aggregate_gflops)`.
fn measure_concurrent() -> (f64, f64) {
    let iters = 12;
    let _ = concurrent_trial(1, CONCURRENT_SHAPE, 2);
    let (mut single, mut pair) = (0.0f64, 0.0f64);
    for t in 0..TRIALS {
        for callers in if t % 2 == 0 { [1, 2] } else { [2, 1] } {
            let gflops = concurrent_trial(callers, CONCURRENT_SHAPE, iters);
            if callers == 1 {
                single = single.max(gflops);
            } else {
                pair = pair.max(gflops);
            }
        }
    }
    (single, pair)
}

fn random_spd(n: usize, rng: &mut Rng) -> Matrix {
    let a = Matrix::randn(n, n, 1.0, rng);
    let mut s = a.matmul_tn(&a);
    s.scale(1.0 / n as f32);
    s
}

/// An eigensolver under test, handed the square matrix and its row-packed
/// lower triangle; each reads the form its caller holds.
type Solver = fn(&Matrix, &[f32]) -> Result<SymEig, EigenError>;

/// The step path's solve: `Kfac` decomposes its packed running factors.
fn step_path(m: &Matrix, packed: &[f32]) -> Result<SymEig, EigenError> {
    sym_eig_packed(packed, m.rows(), &mut EigScratch::new())
}

/// [`step_path`] through the portable compilation of the solver body.
fn portable(m: &Matrix, packed: &[f32]) -> Result<SymEig, EigenError> {
    sym_eig_packed_portable(packed, m.rows(), &mut EigScratch::new())
}

/// The strided one-to-one transcription, on the square matrix.
fn oracle(m: &Matrix, _packed: &[f32]) -> Result<SymEig, EigenError> {
    sym_eig_reference(m)
}

/// The blocked product at `shape` through the AVX-512 and the AVX2
/// microkernel, interleaved best-of-[`TRIALS`] with alternating order, each
/// trial ~1 GFLOP: `(avx512_gflops, avx2_gflops)`. Panics unless the two
/// return the same bits.
fn measure_micro_twin(layout: Layout, (m, k, n): (usize, usize, usize)) -> (f64, f64) {
    let mut rng = Rng::seed_from_u64(51);
    let (a_len, b_len) = layout.operand_lens(m, k, n);
    let (a, b) = (operand(a_len, &mut rng), operand(b_len, &mut rng));
    let run = |micro: Microkernel, c: &mut [f32]| match layout {
        Layout::Nn => gemm_nn_on(micro, m, k, n, &a, &b, c),
        Layout::Nt => gemm_nt_on(micro, m, k, n, &a, &b, c),
        Layout::Tn => unreachable!("the twin cell times nn and nt"),
    };
    let bits = |micro: Microkernel| {
        let mut c = vec![0.5f32; m * n];
        run(micro, &mut c);
        c.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    assert!(
        bits(Microkernel::Avx512) == bits(Microkernel::Avx2),
        "{} {m}x{k}x{n}: the AVX-512 and AVX2 microkernels disagree bitwise",
        layout.name()
    );
    let flops = 2.0 * (m * k * n) as f64;
    let iters = (1.0e9 / flops).ceil() as usize;
    let mut c = vec![0.0f32; m * n];
    let mut trial = |micro: Microkernel| {
        let start = Instant::now();
        for _ in 0..iters {
            c.fill(0.0);
            run(micro, &mut c);
        }
        flops * iters as f64 / start.elapsed().as_secs_f64() / 1.0e9
    };
    let (mut wide, mut narrow) = (0.0f64, 0.0f64);
    for t in 0..TRIALS {
        for avx512 in if t % 2 == 0 { [true, false] } else { [false, true] } {
            if avx512 {
                wide = wide.max(trial(Microkernel::Avx512));
            } else {
                narrow = narrow.max(trial(Microkernel::Avx2));
            }
        }
    }
    (wide, narrow)
}

/// Measure two eigensolvers on the same `n x n` SPD matrix, interleaved
/// best-of-[`TRIALS`] with alternating order, returning `(a_ms, b_ms)` per
/// solve. Panics unless both return the same bits.
fn measure_eig(n: usize, a: Solver, b: Solver) -> (f64, f64) {
    let mut rng = Rng::seed_from_u64(45);
    let m = random_spd(n, &mut rng);
    let mut packed = vec![0.0; packed_len(n)];
    pack_lower_scaled(m.as_slice(), n, 1.0, &mut packed);
    let bits = |solve: Solver| {
        let eig = solve(&m, &packed).expect("SPD input decomposes");
        eig.values.iter().chain(eig.vectors.as_slice()).map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    assert!(bits(a) == bits(b), "sym_eig {n}: the two solvers disagree bitwise");
    // Small sizes repeat until the window is ~10 ms of the slower solver.
    let iters = (2.0e7 / (n as f64).powi(3)).ceil().max(1.0) as usize;
    let trial = |solve: Solver| {
        let start = Instant::now();
        for _ in 0..iters {
            let (m, packed) = std::hint::black_box((&m, &packed[..]));
            let _ = std::hint::black_box(solve(m, packed)).unwrap();
        }
        start.elapsed().as_secs_f64() * 1e3 / iters as f64
    };
    let (mut a_ms, mut b_ms) = (f64::INFINITY, f64::INFINITY);
    for t in 0..TRIALS {
        if t % 2 == 0 {
            a_ms = a_ms.min(trial(a));
            b_ms = b_ms.min(trial(b));
        } else {
            b_ms = b_ms.min(trial(b));
            a_ms = a_ms.min(trial(a));
        }
    }
    (a_ms, b_ms)
}

/// Best-of-[`TRIALS`] ns per element of `pass` (one forward + backward),
/// each trial the mean over a ~20 ms window.
fn ns_per_element(elements: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let iters = (5.0e6 / elements as f64).ceil() as usize;
    (0..TRIALS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                pass();
            }
            start.elapsed().as_secs_f64() * 1e9 / (iters * elements) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn measure_gelu() -> f64 {
    let mut rng = Rng::seed_from_u64(48);
    let (rows, cols) = GELU_SHAPE;
    let x = Matrix::randn(rows, cols, 1.5, &mut rng);
    let dy = Matrix::randn(rows, cols, 1.0, &mut rng);
    let mut gelu = Gelu::new();
    ns_per_element(rows * cols, || {
        let y = gelu.forward(std::hint::black_box(&x), true);
        std::hint::black_box((y, gelu.backward(&dy)));
    })
}

fn measure_bn2d() -> f64 {
    let mut rng = Rng::seed_from_u64(49);
    let (n, c, h, w) = BN2D_SHAPE;
    let x = Tensor4::randn(n, c, h, w, 1.0, &mut rng);
    let dy = Tensor4::randn(n, c, h, w, 1.0, &mut rng);
    let mut bn = BatchNorm2d::new(c);
    ns_per_element(x.numel(), || {
        let y = bn.forward(std::hint::black_box(&x), true);
        std::hint::black_box((y, bn.backward(&dy)));
    })
}

/// The row layout's NCHW scatter of a `(n·oh·ow) × c` product, one plane
/// at a time (as `Conv2d::forward` ran before the column layout).
fn rows_to_planes(rows: &Matrix, n: usize, c: usize, oh: usize, ow: usize) -> Tensor4 {
    let hw = oh * ow;
    let mut out = Tensor4::zeros(n, c, oh, ow);
    for (src, dst) in
        rows.as_slice().chunks_exact(hw * c).zip(out.as_mut_slice().chunks_exact_mut(hw * c))
    {
        for (co, plane) in dst.chunks_exact_mut(hw).enumerate() {
            for (v, row) in plane.iter_mut().zip(src.chunks_exact(c)) {
                *v = row[co];
            }
        }
    }
    out
}

/// The inverse gather, NCHW planes to `(n·oh·ow) × c` rows.
fn planes_to_rows(t: &Tensor4) -> Matrix {
    let (n, c, oh, ow) = t.shape();
    let hw = oh * ow;
    let mut rows = Matrix::zeros(n * hw, c);
    for (src, dst) in
        t.as_slice().chunks_exact(hw * c).zip(rows.as_mut_slice().chunks_exact_mut(hw * c))
    {
        for (co, plane) in src.chunks_exact(hw).enumerate() {
            for (&v, row) in plane.iter().zip(dst.chunks_exact_mut(c)) {
                row[co] = v;
            }
        }
    }
    rows
}

/// One forward + backward + capture of `conv`'s weights through the row
/// layout: `im2col`, `A·Wᵀ`, scatter; gather, `Gᵀ·A`, `G·W`, `col2im`; both
/// factors as `gram_tn` of the rows. Returns `(y, dx)`; `dW` accumulates
/// into `grad_weight` and the statistics into `cap`.
fn row_conv_pass(
    conv: &Conv2d,
    x: &Tensor4,
    g: &Tensor4,
    grad_weight: &mut Matrix,
    cap: &mut KfacCapture,
) -> (Tensor4, Tensor4) {
    let (n, c_in, h, w) = x.shape();
    let (oh, ow) = conv.geom.out_shape(h, w);
    let patches = im2col(x, &conv.geom);
    let y = rows_to_planes(&patches.matmul_nt(&conv.weight), n, conv.c_out(), oh, ow);
    cap.record_forward(&patches, n);
    let g_rows = planes_to_rows(g);
    cap.record_backward(&g_rows, n);
    grad_weight.add_assign(&g_rows.matmul_tn(&patches));
    let dx = col2im(&g_rows.matmul(&conv.weight), n, c_in, h, w, &conv.geom);
    (y, dx)
}

/// `Conv2d` forward + backward + capture at one of [`CONV_SHAPES`]: the
/// layer's column path against [`row_conv_pass`], interleaved
/// best-of-[`TRIALS`] ms per pass with alternating order, every band inline
/// on this thread — each rank's lot at world 2, where the other core is
/// busy with the other rank. Panics unless the two agree bit for bit on
/// `y`, `dx`, `dW`, `A` and `G`.
fn measure_conv((n, c_in, h, w, c_out): (usize, usize, usize, usize, usize)) -> (f64, f64) {
    let mut rng = Rng::seed_from_u64(50);
    let mut conv = Conv2d::new("bench", c_in, c_out, 3, 1, 1, false, &mut rng);
    conv.kfac.enabled = true;
    let x = Tensor4::randn(n, c_in, h, w, 1.0, &mut rng);
    let g = Tensor4::randn(n, c_out, h, w, 0.1, &mut rng);
    let mut cap = conv.kfac.clone();
    let mut grad_weight = Matrix::zeros(c_out, conv.weight.cols());

    // Each pass drains its capture and hands the statistic buffer back, as
    // a factor step does; `keep` also returns the statistics, mirrored to
    // full matrices, for the bitwise check.
    let column = |conv: &mut Conv2d, keep: bool| {
        conv.zero_grad();
        let y = conv.forward(&x, true);
        let dx = conv.backward(&g);
        let stats = conv.kfac.take_stats().expect("capture is on");
        let kept = keep.then(|| stats.mirrored());
        conv.kfac.recycle(stats.packed);
        (y, dx, kept)
    };
    let mut row = |conv: &Conv2d, keep: bool| {
        grad_weight.fill_zero();
        let (y, dx) = row_conv_pass(conv, &x, &g, &mut grad_weight, &mut cap);
        let stats = cap.take_stats().expect("capture is on");
        let kept = keep.then(|| stats.mirrored());
        cap.recycle(stats.packed);
        (y, dx, kept, grad_weight.clone())
    };
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (y, dx, stats) = column(&mut conv, true);
    let (y_ref, dx_ref, stats_ref, dw_ref) = row(&conv, true);
    let ((a, g_stat), (a_ref, g_ref)) = (stats.unwrap(), stats_ref.unwrap());
    let agree = bits(y.as_slice()) == bits(y_ref.as_slice())
        && bits(dx.as_slice()) == bits(dx_ref.as_slice())
        && bits(conv.grad_weight.as_slice()) == bits(dw_ref.as_slice())
        && bits(a.as_slice()) == bits(a_ref.as_slice())
        && bits(g_stat.as_slice()) == bits(g_ref.as_slice());
    assert!(agree, "conv {n}x{c_in}x{h}x{w}->{c_out}: column path and row oracle disagree bitwise");

    let iters = 5;
    let (mut col_ms, mut row_ms) = (f64::INFINITY, f64::INFINITY);
    for t in 0..TRIALS {
        for column_first in if t % 2 == 0 { [true, false] } else { [false, true] } {
            let start = Instant::now();
            for _ in 0..iters {
                if column_first {
                    std::hint::black_box(column(&mut conv, false));
                } else {
                    std::hint::black_box(row(&conv, false));
                }
            }
            let ms = start.elapsed().as_secs_f64() * 1e3 / iters as f64;
            if column_first {
                col_ms = col_ms.min(ms);
            } else {
                row_ms = row_ms.min(ms);
            }
        }
    }
    (col_ms, row_ms)
}

/// KAISA §4.4 at one `(a_dim, g_dim)`: `precondition_eigen` with the
/// cached outer product `1/(v_G v_Aᵀ + γ)` against the same call preceded
/// by `compute_outer`, which is the per-step work a recomputing
/// preconditioner does. Interleaved best-of-[`TRIALS`] µs per call with
/// alternating order, every band inline on this thread:
/// `(cached_us, recompute_us)`. Panics unless the two arms return the same
/// bits.
fn measure_precondition_outer((a_dim, g_dim): (usize, usize)) -> (f64, f64) {
    let mut rng = Rng::seed_from_u64(52);
    let mut state = KfacLayerState::new("bench", a_dim, g_dim);
    state.update_factors(&random_spd(a_dim, &mut rng), &random_spd(g_dim, &mut rng), 0.0);
    let ((qa, va), (qg, vg)) = (state.eig_a(), state.eig_g());
    (state.qa, state.qg) = (Some(qa), Some(qg));
    state.outer = Some(KfacLayerState::compute_outer(&vg, &va, PRECONDITION_DAMPING));
    let grad = Matrix::randn(g_dim, a_dim, 1.0, &mut rng);
    // As in `Kfac::step`, each result goes back to the layer's work buffers.
    let call = |state: &mut KfacLayerState, recompute: bool| {
        if recompute {
            state.outer = Some(KfacLayerState::compute_outer(&vg, &va, PRECONDITION_DAMPING));
        }
        state.precondition_eigen(&grad)
    };
    let mut bits = |recompute: bool| {
        let p = call(&mut state, recompute);
        let bits = p.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        state.recycle(p);
        bits
    };
    assert!(
        bits(false) == bits(true),
        "precondition {a_dim}x{g_dim}: cached and recomputed outer product disagree bitwise"
    );

    // The four products of Eq. 15–17: two `g·g·a` and two `g·a·a`.
    let flops = 4.0 * (g_dim * a_dim * (g_dim + a_dim)) as f64;
    let iters = (WINDOW_FLOPS / flops).ceil().max(1.0) as usize;
    let (mut cached_us, mut recompute_us) = (f64::INFINITY, f64::INFINITY);
    for t in 0..TRIALS {
        for recompute in if t % 2 == 0 { [false, true] } else { [true, false] } {
            let start = Instant::now();
            for _ in 0..iters {
                let p = call(&mut state, recompute);
                state.recycle(std::hint::black_box(p));
            }
            let us = start.elapsed().as_secs_f64() * 1e6 / iters as f64;
            if recompute {
                recompute_us = recompute_us.min(us);
            } else {
                cached_us = cached_us.min(us);
            }
        }
    }
    (cached_us, recompute_us)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let no_gate = args.iter().any(|a| a == "--no-gate");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());

    // The flagship 512³ gate shape always runs — even in --quick — plus a
    // small shape near the Auto dispatch threshold and K-FAC-typical
    // rectangles (tall-k factor statistics, square factors) in full mode.
    let shapes: Vec<(usize, usize, usize)> = if quick {
        vec![(128, 128, 128), FLOOR_SHAPE]
    } else {
        vec![
            (64, 64, 64),
            (128, 128, 128),
            (256, 256, 256),
            FLOOR_SHAPE,
            (256, 1024, 256),
            (96, 600, 84),
        ]
    };
    // Factor sizes of the end-to-end workloads (65 bert/serve, 257 bert's
    // feed-forward, 288 and 576 resnet) and both sides of the 512 cliff; the
    // 1024 reference solve alone takes ~15 s a trial, so it is full-mode
    // only.
    let eig_sizes: &[usize] =
        if quick { &[65, 257, 288, 512, 513, 576] } else { &[65, 257, 288, 512, 513, 576, 1024] };
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;

    let micro = Microkernel::detect();
    eprintln!(
        "kernel_bench: shapes={shapes:?} trials={TRIALS} microkernel={} ({})",
        micro.as_str(),
        if quick { "quick" } else { "full" }
    );

    let mut gate_failures: Vec<String> = Vec::new();
    let mut rows = Vec::new();
    for &(m, k, n) in &shapes {
        for layout in LAYOUTS {
            let (blocked, naive) = measure_gemm(layout, m, k, n);
            let speedup = blocked / naive;
            eprintln!(
                "gemm {:<2} {m:>4}x{k:>4}x{n:>4}  blocked {blocked:>7.2} GF/s | naive {naive:>6.2} GF/s | {speedup:>5.2}x",
                layout.name()
            );
            if blocked < naive * (1.0 - GATE_TOLERANCE) {
                gate_failures.push(format!(
                    "{} {m}x{k}x{n}: blocked {blocked:.2} GF/s < naive {naive:.2} GF/s - {:.0}% margin",
                    layout.name(),
                    GATE_TOLERANCE * 100.0
                ));
            }
            if layout == Layout::Nn && (m, k, n) == FLOOR_SHAPE && speedup < SPEEDUP_FLOOR {
                gate_failures.push(format!(
                    "nn {m}x{k}x{n}: blocked/naive {speedup:.2}x < {SPEEDUP_FLOOR}x floor"
                ));
            }
            rows.push(format!(
                "    {{\"layout\": \"{}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \"blocked_gflops\": {blocked:.3}, \"naive_gflops\": {naive:.3}, \"speedup\": {speedup:.3}}}",
                layout.name()
            ));
        }
    }

    // SYRK cells: `(m, k)` Gram shapes from the factor-statistic capture
    // path. The flagship 1024²/4096 cell always runs; full mode adds a
    // linear-layer-sized cell, a small conv cell, and a mid conv cell.
    let syrk_shapes: Vec<(usize, usize)> = if quick {
        vec![(256, 1024), SYRK_FLOOR_SHAPE]
    } else {
        vec![(96, 600), (256, 1024), (512, 2048), SYRK_FLOOR_SHAPE]
    };
    let mut syrk_rows = Vec::new();
    for &(m, k) in &syrk_shapes {
        let (syrk, gemm) = measure_syrk(m, k);
        let speedup = syrk / gemm;
        eprintln!(
            "syrk    {m:>4}x{m:>4} k={k:<5} syrk {syrk:>8.2} GF/s | gemm_tn {gemm:>7.2} GF/s | {speedup:>5.2}x"
        );
        if syrk < gemm * (1.0 - GATE_TOLERANCE) {
            gate_failures.push(format!(
                "syrk {m}x{m} k={k}: syrk {syrk:.2} GF/s < gemm_tn {gemm:.2} GF/s - {:.0}% margin",
                GATE_TOLERANCE * 100.0
            ));
        }
        if (m, k) == SYRK_FLOOR_SHAPE && speedup < SYRK_SPEEDUP_FLOOR {
            gate_failures.push(format!(
                "syrk {m}x{m} k={k}: syrk/gemm_tn {speedup:.2}x < {SYRK_SPEEDUP_FLOOR}x floor"
            ));
        }
        syrk_rows.push(format!(
            "    {{\"m\": {m}, \"k\": {k}, \"syrk_gflops\": {syrk:.3}, \"gemm_tn_gflops\": {gemm:.3}, \"speedup\": {speedup:.3}}}"
        ));
    }

    // The team against its inline band loop: latency at the step shapes
    // (gated), the threshold sweep (full mode, reported), and two callers.
    let mut team_rows = Vec::new();
    let sweep: &[(usize, usize, usize)] = if quick { &[] } else { &SWEEP_SHAPES };
    for (i, &(m, k, n)) in STEP_SHAPES.iter().chain(sweep).enumerate() {
        let (team, inline) = measure_latency(m, k, n);
        let ratio = team / inline;
        let gated = i < STEP_SHAPES.len();
        eprintln!(
            "team    {m:>4}x{k:>4}x{n:>4}  team {team:>8.1} us | inline {inline:>8.1} us | {ratio:>5.2}x{}",
            if gated { "" } else { "  (sweep)" }
        );
        if gated && ratio > SMALL_LATENCY_CEILING {
            gate_failures.push(format!(
                "team {m}x{k}x{n}: p50 {team:.1} us > {SMALL_LATENCY_CEILING}x inline {inline:.1} us"
            ));
        }
        team_rows.push(format!(
            "    {{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"team_p50_us\": {team:.1}, \"inline_p50_us\": {inline:.1}, \"ratio\": {ratio:.3}, \"gated\": {gated}}}"
        ));
    }
    let (single, pair) = measure_concurrent();
    let (cm, ck, cn) = CONCURRENT_SHAPE;
    eprintln!(
        "team    {cm:>4}x{ck:>4}x{cn:>4}  1 caller {single:>7.2} GF/s | 2 callers {pair:>7.2} GF/s aggregate | {:>5.2}x",
        pair / single
    );
    if pair < single * (1.0 - GATE_TOLERANCE) {
        gate_failures.push(format!(
            "team {cm}x{ck}x{cn}: two callers {pair:.2} GF/s aggregate < one caller {single:.2} GF/s - {:.0}% margin",
            GATE_TOLERANCE * 100.0
        ));
    }

    let mut eig_rows = Vec::new();
    for &n in eig_sizes {
        let (fast, reference) = measure_eig(n, step_path, oracle);
        let speedup = reference / fast;
        eprintln!(
            "sym_eig {n:>4}x{n:<4}        sym_eig {fast:>9.3} ms | reference {reference:>9.3} ms | {speedup:>5.2}x"
        );
        if fast > reference * (1.0 + GATE_TOLERANCE) {
            gate_failures.push(format!(
                "sym_eig {n}: {fast:.3} ms > reference {reference:.3} ms + {:.0}% margin",
                GATE_TOLERANCE * 100.0
            ));
        }
        if let Some(&(_, floor)) = EIG_SPEEDUP_FLOORS.iter().find(|&&(size, _)| size == n) {
            if speedup < floor {
                gate_failures
                    .push(format!("sym_eig {n}: reference/sym_eig {speedup:.2}x < {floor}x floor"));
            }
        }
        eig_rows.push(format!(
            "    {{\"n\": {n}, \"sym_eig_ms\": {fast:.3}, \"reference_ms\": {reference:.3}, \"speedup\": {speedup:.3}}}"
        ));
    }

    // The solver body's AVX2 compilation (what `sym_eig` dispatches to)
    // against its portable one: only meaningful where the CPU has AVX2.
    let mut twin_rows = Vec::new();
    if avx2 {
        for n in TWIN_SIZES {
            let (twin, portable) = measure_eig(n, step_path, portable);
            let speedup = portable / twin;
            eprintln!(
                "sym_eig {n:>4}x{n:<4}   AVX2 twin {twin:>9.3} ms | portable {portable:>9.3} ms | {speedup:>5.2}x"
            );
            if n == TWIN_SIZES[0] && twin > portable * (1.0 + GATE_TOLERANCE) {
                gate_failures.push(format!(
                    "sym_eig {n}: AVX2 twin {twin:.3} ms > portable {portable:.3} ms + {:.0}% margin",
                    GATE_TOLERANCE * 100.0
                ));
            }
            if n == TWIN_FLOOR.0 && speedup < TWIN_FLOOR.1 {
                gate_failures.push(format!(
                    "sym_eig {n}: portable/AVX2 twin {speedup:.2}x < {}x floor",
                    TWIN_FLOOR.1
                ));
            }
            twin_rows.push(format!(
                "    {{\"n\": {n}, \"avx2_ms\": {twin:.3}, \"portable_ms\": {portable:.3}, \"speedup\": {speedup:.3}}}"
            ));
        }
    }

    // The blocked GEMM through the AVX-512 microkernel (what dispatch picks
    // where the CPU has it) against the AVX2 one, every band inline.
    let mut micro_twin_rows = Vec::new();
    let micro_twin = Microkernel::Avx512.available() && Microkernel::Avx2.available();
    if !micro_twin {
        eprintln!("microkernel twin skipped: this CPU has no AVX-512F (or no AVX2)");
    }
    let twin_shapes: &[(Layout, (usize, usize, usize))] =
        if micro_twin { &MICRO_TWIN_SHAPES } else { &[] };
    for (i, &(layout, shape)) in twin_shapes.iter().enumerate() {
        let (m, k, n) = shape;
        let (wide, narrow) = inline_bands(|| measure_micro_twin(layout, shape));
        let speedup = wide / narrow;
        eprintln!(
            "gemm {:<2} {m:>4}x{k:>4}x{n:>4}  AVX-512 {wide:>7.2} GF/s | AVX2 {narrow:>7.2} GF/s | {speedup:>5.2}x (one core)",
            layout.name()
        );
        let gated = i == 0;
        if gated && speedup < MICRO_TWIN_FLOOR {
            gate_failures.push(format!(
                "{} {m}x{k}x{n}: AVX-512/AVX2 microkernel {speedup:.2}x < {MICRO_TWIN_FLOOR}x floor",
                layout.name()
            ));
        }
        micro_twin_rows.push(format!(
            "    {{\"layout\": \"{}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \"avx512_gflops\": {wide:.3}, \"avx2_gflops\": {narrow:.3}, \"speedup\": {speedup:.3}, \"gated\": {gated}}}",
            layout.name()
        ));
    }

    let (gelu_ns, bn2d_ns) = (measure_gelu(), measure_bn2d());
    let (gr, gc) = GELU_SHAPE;
    let (bn, bc, bh, bw) = BN2D_SHAPE;
    eprintln!(
        "gelu_fwd_bwd {gr}x{gc}        {gelu_ns:>6.2} ns/element (ceiling {GELU_NS_CEILING})"
    );
    eprintln!("bn2d_fwd_bwd {bn}x{bc}x{bh}x{bw}   {bn2d_ns:>6.2} ns/element");
    if gelu_ns > GELU_NS_CEILING {
        gate_failures.push(format!(
            "gelu_fwd_bwd {gr}x{gc}: {gelu_ns:.2} ns/element > {GELU_NS_CEILING} ns ceiling"
        ));
    }

    let mut conv_rows = Vec::new();
    for shape in CONV_SHAPES {
        let (n, c_in, h, w, c_out) = shape;
        let (column, oracle) = inline_bands(|| measure_conv(shape));
        let speedup = oracle / column;
        eprintln!(
            "conv {n}x{c_in}x{h}x{w}->{c_out} fwd+bwd+capture  column {column:>7.2} ms | row oracle {oracle:>7.2} ms | {speedup:>5.2}x"
        );
        if column > oracle * (1.0 + GATE_TOLERANCE) {
            gate_failures.push(format!(
                "conv {n}x{c_in}x{h}x{w}->{c_out}: column {column:.2} ms > row oracle {oracle:.2} ms + {:.0}% margin",
                GATE_TOLERANCE * 100.0
            ));
        }
        conv_rows.push(format!(
            "    {{\"shape\": [{n}, {c_in}, {h}, {w}], \"c_out\": {c_out}, \"column_ms\": {column:.3}, \"row_oracle_ms\": {oracle:.3}, \"speedup\": {speedup:.3}}}"
        ));
    }

    let mut precondition_rows = Vec::new();
    for shape in PRECONDITION_SHAPES {
        let (a_dim, g_dim) = shape;
        let (cached, recompute) = inline_bands(|| measure_precondition_outer(shape));
        let speedup = recompute / cached;
        eprintln!(
            "precondition_outer a={a_dim:<3} g={g_dim:<3}  cached {cached:>9.1} us | recompute {recompute:>9.1} us | {speedup:>5.2}x (not gated)"
        );
        precondition_rows.push(format!(
            "    {{\"a_dim\": {a_dim}, \"g_dim\": {g_dim}, \"cached_us\": {cached:.2}, \"recompute_us\": {recompute:.2}, \"speedup\": {speedup:.3}, \"gated\": false}}"
        ));
    }

    let gate_passed = gate_failures.is_empty();
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"kaisa-kernels\",\n",
            "  \"quick\": {},\n",
            "  \"trials\": {},\n",
            "  \"microkernel\": \"{}\",\n",
            "  \"gemm\": [\n{}\n  ],\n",
            "  \"syrk\": [\n{}\n  ],\n",
            "  \"team_latency\": [\n{}\n  ],\n",
            "  \"team_concurrent\": {{\"m\": {}, \"k\": {}, \"n\": {}, \"cores\": {}, ",
            "\"one_caller_gflops\": {:.3}, \"two_callers_aggregate_gflops\": {:.3}}},\n",
            "  \"eigensolve\": [\n{}\n  ],\n",
            "  \"eigensolve_twin\": {{\"avx2\": {}, \"rows\": [\n{}\n  ]}},\n",
            "  \"microkernel_twin\": {{\"ran\": {}, \"rows\": [\n{}\n  ]}},\n",
            "  \"elementwise\": [\n",
            "    {{\"name\": \"gelu_fwd_bwd\", \"shape\": [{}, {}], \"ns_per_element\": {:.2}, \"gated\": true}},\n",
            "    {{\"name\": \"bn2d_fwd_bwd\", \"shape\": [{}, {}, {}, {}], \"ns_per_element\": {:.2}, \"gated\": false}}\n",
            "  ],\n",
            "  \"conv\": [\n{}\n  ],\n",
            "  \"precondition_outer\": [\n{}\n  ],\n",
            "  \"gate\": {{\"tolerance\": {}, \"speedup_floor\": {}, \"floor_shape\": [{}, {}, {}], ",
            "\"syrk_speedup_floor\": {}, \"syrk_floor_shape\": [{}, {}], ",
            "\"eig_speedup_floors\": {:?}, \"eig_twin_floor\": [{}, {}], ",
            "\"microkernel_twin_floor\": {}, ",
            "\"small_latency_ceiling\": {}, \"gelu_ns_ceiling\": {}, ",
            "\"enforced\": {}, \"passed\": {}, \"failures\": [{}]}}\n",
            "}}\n"
        ),
        quick,
        TRIALS,
        micro.as_str(),
        rows.join(",\n"),
        syrk_rows.join(",\n"),
        team_rows.join(",\n"),
        cm,
        ck,
        cn,
        std::thread::available_parallelism().map_or(1, |c| c.get()),
        single,
        pair,
        eig_rows.join(",\n"),
        avx2,
        twin_rows.join(",\n"),
        micro_twin,
        micro_twin_rows.join(",\n"),
        gr,
        gc,
        gelu_ns,
        bn,
        bc,
        bh,
        bw,
        bn2d_ns,
        conv_rows.join(",\n"),
        precondition_rows.join(",\n"),
        GATE_TOLERANCE,
        SPEEDUP_FLOOR,
        FLOOR_SHAPE.0,
        FLOOR_SHAPE.1,
        FLOOR_SHAPE.2,
        SYRK_SPEEDUP_FLOOR,
        SYRK_FLOOR_SHAPE.0,
        SYRK_FLOOR_SHAPE.1,
        EIG_SPEEDUP_FLOORS.map(|(n, floor)| vec![n as f64, floor]),
        TWIN_FLOOR.0,
        TWIN_FLOOR.1,
        MICRO_TWIN_FLOOR,
        SMALL_LATENCY_CEILING,
        GELU_NS_CEILING,
        !no_gate,
        gate_passed,
        gate_failures
            .iter()
            .map(|f| format!("\"{}\"", f.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(", "),
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("wrote {out}");

    if !gate_passed {
        eprintln!("kernel_bench gate FAILED:");
        for f in &gate_failures {
            eprintln!("  - {f}");
        }
        if no_gate {
            eprintln!("(--no-gate: reporting only, not failing)");
        } else {
            std::process::exit(1);
        }
    } else {
        eprintln!("kernel_bench gate passed");
    }
}
