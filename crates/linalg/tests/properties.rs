//! Property-based tests on the decompositions: reconstruction,
//! orthogonality, and packing invariants over random symmetric matrices.

use kaisa_linalg::{
    lu_inverse, sym_eig, sym_eig_packed, sym_eig_packed_portable, sym_eig_portable,
    sym_eig_reference, sym_eig_with_scratch, EigScratch, EigenError, SymEig,
};
use kaisa_tensor::{pack_lower_scaled, packed_len, unpack_lower, Matrix, Precision, Rng};
use proptest::prelude::*;

fn random_symmetric(n: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from_u64(seed);
    let a = Matrix::randn(n, n, 1.0, &mut rng);
    let mut s = a.matmul_tn(&a);
    s.scale(1.0 / n as f32);
    s
}

/// The matrix families of the bitwise contract: what K-FAC feeds the solver
/// (`0`, `1`) and the structured inputs that take `tred2`/`tql2`'s rare
/// branches (`2..`).
const EIG_FAMILIES: usize = 10;

fn eig_family(kind: usize, n: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9e37_79b9);
    match kind {
        // Random PSD Gram matrix.
        0 => random_symmetric(n, seed),
        // The same as an fp16-quantised factor (many tied low bits).
        1 => {
            let mut m = random_symmetric(n, seed);
            m.quantize(Precision::Fp16);
            m
        }
        2 => Matrix::identity(n),
        // Diagonal: every Householder step sees `scale == 0.0`.
        3 => {
            let mut m = Matrix::zeros(n, n);
            for i in 0..n {
                m.set(i, i, rng.next_f32() * 4.0 - 1.0);
            }
            m
        }
        // Rank one: n - 1 zero eigenvalues.
        4 => {
            let v: Vec<f32> = (0..n).map(|_| rng.next_f32() - 0.5).collect();
            Matrix::outer(&v, &v)
        }
        5 => Matrix::zeros(n, n),
        // One row/column zero off the diagonal (`scale == 0.0` mid-reduction,
        // `d[i] == 0.0` in the back-accumulation).
        6 => {
            let mut m = random_symmetric(n, seed);
            let r = (seed % n as u64) as usize;
            for c in 0..n {
                if c != r {
                    m.set(r, c, 0.0);
                    m.set(c, r, 0.0);
                }
            }
            m
        }
        // Repeated eigenvalues: a rank-n/3 Gram matrix plus a multiple of I.
        7 => {
            let k = (n / 3).max(1);
            let a = Matrix::randn(k, n, 1.0, &mut rng);
            let mut m = a.matmul_tn(&a);
            m.add_diag(0.5);
            m
        }
        // Entries down in the f32 subnormals: intermediate products sit
        // ~1e-80 and below, where f64 rounding and underflow get exercised.
        8 => {
            let mut m = random_symmetric(n, seed);
            m.scale(1.0e-38);
            m
        }
        // Indefinite with a garbage upper triangle (NaN included): only the
        // lower triangle is part of the input.
        _ => {
            let mut m = Matrix::randn(n, n, 1.0, &mut rng);
            for r in 0..n {
                for c in (r + 1)..n {
                    m.set(r, c, if (r + c) % 3 == 0 { f32::NAN } else { 7.0 });
                }
            }
            m
        }
    }
}

/// Both compilations of the solver body — the one `sym_eig` dispatches to
/// (AVX2 where the CPU has it) and the portable one — through a possibly
/// dirty scratch, against the oracle, by bits.
fn assert_eig_bitwise(m: &Matrix, scratch: &mut EigScratch, what: &str) {
    let want = sym_eig_reference(m).expect("sym_eig_reference");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (body, solve) in [
        ("dispatched", sym_eig_with_scratch as fn(&Matrix, &mut EigScratch) -> _),
        ("portable", sym_eig_portable),
    ] {
        let got = solve(m, scratch).expect("sym_eig");
        assert_eq!(bits(&got.values), bits(&want.values), "{what} {body}: eigenvalues differ");
        assert_eq!(
            bits(got.vectors.as_slice()),
            bits(want.vectors.as_slice()),
            "{what} {body}: eigenvectors differ"
        );
    }
}

fn assert_fixed_sizes_bitwise(cases: &[(usize, &[usize])]) {
    let mut scratch = EigScratch::new();
    for &(n, kinds) in cases {
        for &kind in kinds {
            let m = eig_family(kind, n, 1000 + n as u64);
            assert_eig_bitwise(&m, &mut scratch, &format!("n={n} kind={kind}"));
        }
    }
}

/// The sizes around the cache-set cliff, too slow for the random sweep.
#[test]
fn sym_eig_bitwise_matches_reference_at_power_of_two_sizes() {
    assert_fixed_sizes_bitwise(&[(255, &[7]), (256, &[1, 6]), (257, &[4]), (512, &[0])]);
}

/// `bench_e2e`'s largest factor (ResNetMini's conv `A`), fp16-quantised as
/// K-FAC feeds it; a test of its own so the harness runs it alongside the
/// other slow cases.
#[test]
fn sym_eig_bitwise_matches_reference_at_576() {
    assert_fixed_sizes_bitwise(&[(576, &[1])]);
}

#[test]
fn non_finite_lower_triangle_fails_fast_with_a_typed_error() {
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut m = random_symmetric(48, 5);
        m.set(7, 3, bad);
        // Refused while widening, not after 64 QL sweeps like the oracle.
        assert_eq!(sym_eig(&m).unwrap_err(), EigenError::NonFinite { row: 7, col: 3 });
    }
    let mut small = random_symmetric(6, 6);
    small.set(4, 4, f32::NAN);
    assert_eq!(sym_eig(&small).unwrap_err(), EigenError::NonFinite { row: 4, col: 4 });
    assert!(matches!(sym_eig_reference(&small), Err(EigenError::NoConvergence { .. })));
}

fn packed_of(m: &Matrix) -> Vec<f32> {
    let mut packed = vec![0.0; packed_len(m.rows())];
    pack_lower_scaled(m.as_slice(), m.rows(), 1.0, &mut packed);
    packed
}

/// The packed entry (what `Kfac` calls on its running factors) against the
/// square one, body for body: the dispatched (AVX2 where the CPU has it)
/// and the portable compilation each return the same bits from the packed
/// triangle as from the square matrix it came from, and refuse the same
/// non-finite entry with the same error.
#[test]
fn packed_entry_is_the_square_entry_bitwise() {
    type Square = fn(&Matrix, &mut EigScratch) -> Result<SymEig, EigenError>;
    type Packed = fn(&[f32], usize, &mut EigScratch) -> Result<SymEig, EigenError>;
    let bodies: [(&str, Square, Packed); 2] = [
        ("dispatched", sym_eig_with_scratch, sym_eig_packed),
        ("portable", sym_eig_portable, sym_eig_packed_portable),
    ];
    let bits = |r: Result<SymEig, EigenError>| {
        r.map(|e| e.values.iter().chain(e.vectors.as_slice()).map(|x| x.to_bits()).collect())
    };
    let mut scratch = EigScratch::new();
    for n in [1usize, 2, 7, 65, 257] {
        for kind in [0, 1, 9] {
            // Kind 9 carries NaN and garbage above the diagonal: the square
            // entry must not read it, the packed one cannot.
            let m = eig_family(kind, n, 77 + n as u64);
            let packed = packed_of(&m);
            for (body, square, packed_entry) in bodies {
                let want: Result<Vec<u32>, _> = bits(square(&m, &mut scratch));
                assert!(want.is_ok(), "n={n} kind={kind} {body}: the square entry failed");
                let got = bits(packed_entry(&packed, n, &mut scratch));
                assert!(got == want, "n={n} kind={kind} {body}: the packed entry differs");
            }
        }
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut m = random_symmetric(n, 78 + n as u64);
            let (row, col) = (n - 1, (n - 1) / 2);
            m.set(row, col, bad);
            let packed = packed_of(&m);
            for (body, square, packed_entry) in bodies {
                let want = EigenError::NonFinite { row, col };
                assert_eq!(square(&m, &mut scratch).unwrap_err(), want, "n={n} {body} square");
                assert_eq!(
                    packed_entry(&packed, n, &mut scratch).unwrap_err(),
                    want,
                    "n={n} {body} packed"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sym_eig_bitwise_matches_reference(
        n in 1usize..=160,
        seed in any::<u64>(),
        kind in 0usize..EIG_FAMILIES,
        dirty in 1usize..=24,
    ) {
        // A scratch left over from a solve of another size must not show.
        let mut scratch = EigScratch::new();
        let _ = sym_eig_with_scratch(&eig_family(9, dirty, seed), &mut scratch);
        let m = eig_family(kind, n, seed);
        assert_eig_bitwise(&m, &mut scratch, &format!("n={n} kind={kind} seed={seed}"));
    }

    #[test]
    fn eig_reconstructs(n in 1usize..24, seed in any::<u64>()) {
        let m = random_symmetric(n, seed);
        let eig = sym_eig(&m).unwrap();
        let rec = eig.reconstruct();
        let scale = m.max_abs().max(1.0);
        prop_assert!(rec.max_abs_diff(&m) < 2e-4 * scale,
            "n={} err={}", n, rec.max_abs_diff(&m));
    }

    #[test]
    fn eig_vectors_orthonormal(n in 1usize..24, seed in any::<u64>()) {
        let m = random_symmetric(n, seed);
        let eig = sym_eig(&m).unwrap();
        let qtq = eig.vectors.matmul_tn(&eig.vectors);
        prop_assert!(qtq.max_abs_diff(&Matrix::identity(n)) < 1e-3);
    }

    #[test]
    fn eig_values_sorted_and_trace_preserved(n in 1usize..24, seed in any::<u64>()) {
        let m = random_symmetric(n, seed);
        let eig = sym_eig(&m).unwrap();
        for w in eig.values.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-5);
        }
        let sum: f32 = eig.values.iter().sum();
        prop_assert!((sum - m.trace()).abs() < 1e-2 * m.trace().abs().max(1.0));
    }

    #[test]
    fn lu_inverse_is_inverse(n in 1usize..16, seed in any::<u64>()) {
        let mut m = random_symmetric(n, seed);
        m.add_diag(1.0); // keep well-conditioned
        let inv = lu_inverse(&m).unwrap();
        let prod = m.matmul(&inv);
        prop_assert!(prod.max_abs_diff(&Matrix::identity(n)) < 1e-2);
    }

    #[test]
    fn pack_roundtrip(n in 1usize..32, seed in any::<u64>()) {
        let m = random_symmetric(n, seed);
        let mut packed = vec![0.0; packed_len(n)];
        pack_lower_scaled(m.as_slice(), n, 1.0, &mut packed);
        prop_assert_eq!(unpack_lower(&packed, n), m);
    }

    #[test]
    fn damped_eigenvalues_bounded_below(n in 2usize..16, seed in any::<u64>(), damping in 0.001f32..0.1) {
        // The K-FAC stability guarantee: eigenvalues of M + γI are ≥ γ for
        // PSD M, so the preconditioner's denominators never vanish.
        let mut m = random_symmetric(n, seed);
        m.add_diag(damping);
        let eig = sym_eig(&m).unwrap();
        for &v in &eig.values {
            prop_assert!(v >= damping * 0.9, "eigenvalue {} below damping {}", v, damping);
        }
    }
}
