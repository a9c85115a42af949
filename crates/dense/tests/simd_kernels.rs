//! Cross-kernel agreement and dispatch tests for the SIMD layer.
//!
//! Every GEMM kernel (AXPY, packed, small-block) must produce the same
//! answer — to FMA-vs-separate-rounding tolerance — whichever instruction
//! set [`bt_dense::simd`] dispatches to, across blocking boundaries and
//! on strided views; non-finite inputs must propagate through every
//! path; and the `BT_DENSE_SIMD=0` override must verifiably force the
//! scalar path (observable through the `bt_dense.gemm.*` dispatch
//! counters under `BT_OBS`).
//!
//! Tests that pin or inspect the process-global dispatch decision
//! serialize on one mutex so they cannot race each other (or perturb
//! each other's counter diffs) inside this binary.

use bt_dense::random::{rng, uniform};
use bt_dense::simd;
use bt_dense::{gemm, gemm_axpy, gemm_packed, gemm_small, Element, Isa, Mat, MatRef, Trans};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes every test in this binary: the active ISA and the metrics
/// registry are process-global.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `f` with the dispatch pinned to `isa`, restoring the previous
/// decision afterwards. Only ever pins [`Isa::Scalar`] or an ISA that
/// detection already reported, so no unsupported instructions run.
fn with_isa<T>(isa: Isa, f: impl FnOnce() -> T) -> T {
    let prev = simd::force(Some(isa));
    let out = f();
    simd::force(Some(prev));
    out
}

/// The environment-driven dispatch decision (re-runs detection in case
/// an earlier test left a pin behind).
fn detected_isa() -> Isa {
    simd::force(None);
    simd::active()
}

/// Reference triple-loop product (no blocking, packing, or FMA).
fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut s = 0.0;
            for k in 0..a.cols() {
                s += a.get(i, k) * b.get(k, j);
            }
            c.set(i, j, s);
        }
    }
    c
}

/// Small-block orders plus sizes straddling the MR/NR tails and the
/// NB = 64 / KC = 128 blocking boundaries.
const DIMS: [usize; 11] = [4, 8, 16, 17, 32, 63, 64, 65, 127, 128, 129];

fn any_dim() -> impl Strategy<Value = usize> {
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

fn small_dim() -> impl Strategy<Value = usize> {
    (0usize..3).prop_map(|i| [4usize, 8, 16][i])
}

/// Right-hand-side widths for the small-block kernels: empty, narrower
/// than every register tile, ragged tails after whole tiles, and the
/// replay's 64.
fn small_width() -> impl Strategy<Value = usize> {
    (0usize..7).prop_map(|i| [0usize, 1, 2, 3, 5, 17, 64][i])
}

/// Fused multiply-add at either precision, for the FMA reference.
trait MulAdd: Element {
    fn fma(self, b: Self, c: Self) -> Self;
}
impl MulAdd for f64 {
    fn fma(self, b: Self, c: Self) -> Self {
        self.mul_add(b, c)
    }
}
impl MulAdd for f32 {
    fn fma(self, b: Self, c: Self) -> Self {
        self.mul_add(b, c)
    }
}

/// The small-block kernels' arithmetic, one element at a time: per
/// column, `acc = sum_k a[:, k] * b[k, j]` in ascending `k` from zero,
/// then `c += alpha * acc`. `fused` selects one rounding per
/// multiply-add (the AVX2 and NEON kernels) or two (the scalar kernel).
fn small_reference<E: MulAdd>(
    alpha: E,
    a: MatRef<'_, E>,
    b: MatRef<'_, E>,
    c: &mut Mat<E>,
    fused: bool,
) {
    let m = a.rows();
    for j in 0..b.cols() {
        for i in 0..m {
            let mut acc = E::ZERO;
            for k in 0..m {
                acc = if fused {
                    a.get(i, k).fma(b.get(k, j), acc)
                } else {
                    acc + a.get(i, k) * b.get(k, j)
                };
            }
            let cij = c.get(i, j);
            c.set(
                i,
                j,
                if fused {
                    alpha.fma(acc, cij)
                } else {
                    cij + alpha * acc
                },
            );
        }
    }
}

/// Runs `gemm_small` on strided windows of larger backings (column
/// strides differ from `m`) on the scalar and detected paths, and checks
/// each bit for bit against [`small_reference`]; the padding around the
/// output window must stay untouched.
fn check_small_against_references<E: MulAdd>(m: usize, n: usize, seed: u64, alpha: f64) {
    let big_a = uniform(m + 3, m + 2, &mut rng(seed)).convert::<E>();
    let big_b = uniform(m + 5, n + 2, &mut rng(seed ^ 0xB)).convert::<E>();
    let big_c = uniform(m + 4, n + 3, &mut rng(seed ^ 0xC)).convert::<E>();
    let a = big_a.submatrix(3, 1, m, m);
    let b = big_b.submatrix(2, 1, m, n);
    let alpha = E::from_f64(alpha);
    let detected = detected_isa();
    for isa in [Isa::Scalar, detected] {
        let fused = isa != Isa::Scalar;
        let mut expect = big_c.submatrix(1, 1, m, n).to_mat();
        small_reference(alpha, a, b, &mut expect, fused);
        let mut got = big_c.clone();
        with_isa(isa, || {
            assert!(gemm_small(
                alpha,
                a,
                b,
                got.as_mut().submatrix_mut(1, 1, m, n)
            ));
        });
        assert!(
            got.submatrix(1, 1, m, n).to_mat() == expect,
            "{} {m}x{m}x{n} on {} differs from the reference",
            E::NAME,
            isa.name()
        );
        // Bitwise, not just `==` (which equates 0.0 and -0.0).
        for j in 0..n {
            for i in 0..m {
                assert_eq!(
                    got.get(1 + i, 1 + j).to_f64().to_bits(),
                    expect.get(i, j).to_f64().to_bits(),
                    "{} {m}x{m}x{n} on {} at ({i}, {j})",
                    E::NAME,
                    isa.name()
                );
            }
        }
        got.as_mut()
            .submatrix_mut(1, 1, m, n)
            .copy_from(big_c.submatrix(1, 1, m, n));
        assert!(got == big_c, "gemm_small wrote outside the output window");
    }
}

proptest! {
    // Each case runs several full products per ISA; keep counts modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// AXPY and packed kernels agree between the scalar path and the
    /// detected SIMD path to a k-scaled tolerance (FMA fuses the
    /// multiply-add rounding; entries are in [-1, 1] so one ulp per
    /// k-term accumulation is ~1e-16 * k with plenty of headroom).
    #[test]
    fn axpy_and_packed_agree_across_isas(
        (m, k, n, seed) in (any_dim(), any_dim(), any_dim(), 0u64..1000)
    ) {
        let _g = lock();
        let a = uniform(m, k, &mut rng(seed));
        let b = uniform(k, n, &mut rng(seed ^ 0xABCD));
        let tol = 1e-13 * k as f64;
        let detected = detected_isa();
        let runs: [fn(&Mat, &Mat) -> Mat; 2] = [
            |a, b| { let mut c = Mat::zeros(a.rows(), b.cols()); gemm_axpy(1.0, a, b, &mut c); c },
            |a, b| { let mut c = Mat::zeros(a.rows(), b.cols()); gemm_packed(1.0, a, b, &mut c); c },
        ];
        for run in runs {
            let c_scalar = with_isa(Isa::Scalar, || run(&a, &b));
            let c_simd = with_isa(detected, || run(&a, &b));
            prop_assert!(
                c_scalar.sub(&c_simd).max_abs() <= tol,
                "{m}x{k}x{n} scalar vs {}: err {}",
                detected.name(),
                c_scalar.sub(&c_simd).max_abs()
            );
        }
    }

    /// The small-block kernels agree with the naive reference (and hence
    /// with every other kernel) on both the scalar and detected paths,
    /// including `alpha != 1` accumulation into non-zero C.
    #[test]
    fn small_kernels_agree_across_isas(
        (m, seed, alpha) in (small_dim(), 0u64..1000, -2.0f64..2.0)
    ) {
        let _g = lock();
        let a = uniform(m, m, &mut rng(seed));
        let b = uniform(m, m, &mut rng(seed ^ 0x5EED));
        let c0 = uniform(m, m, &mut rng(seed ^ 0xC0));
        let expect = {
            let mut e = c0.clone();
            let p = naive_matmul(&a, &b);
            for j in 0..m {
                for i in 0..m {
                    e.set(i, j, e.get(i, j) + alpha * p.get(i, j));
                }
            }
            e
        };
        let detected = detected_isa();
        for isa in [Isa::Scalar, detected] {
            let c = with_isa(isa, || {
                let mut c = c0.clone();
                prop_assert!(gemm_small(alpha, &a, &b, &mut c), "shape rejected");
                Ok(c)
            })?;
            prop_assert!(
                c.sub(&expect).max_abs() <= 1e-13 * m as f64,
                "small m={m} on {}: err {}",
                isa.name(),
                c.sub(&expect).max_abs()
            );
        }
    }

    /// The register-tiled small-block kernels against an element-by-
    /// element reference, bit for bit, for every order, any width, both
    /// precisions, strided views and `alpha != 1` into non-zero C: the
    /// SIMD path against the fused reference (so AVX2 and NEON agree
    /// with each other exactly), the scalar path against the unfused one.
    #[test]
    fn small_kernels_match_references_bitwise(
        (m, n, seed, alpha) in (small_dim(), small_width(), 0u64..1000, -2.0f64..2.0)
    ) {
        let _g = lock();
        check_small_against_references::<f64>(m, n, seed, alpha);
        check_small_against_references::<f32>(m, n, seed, alpha);
    }

    /// NaN or Inf in B reaches every row of its C column on every path,
    /// also through a zero A column (`0 * Inf = NaN`): the tiled kernels
    /// skip no term.
    #[test]
    fn small_kernels_propagate_nonfinite_b(
        (m, n, seed, poison) in (small_dim(), (1usize..70), 0u64..1000, (0usize..2).prop_map(|i| if i == 0 { f64::NAN } else { f64::INFINITY }))
    ) {
        let _g = lock();
        let mut a = uniform(m, m, &mut rng(seed));
        let mut b = uniform(m, n, &mut rng(seed ^ 0xF00));
        let (kp, jp) = (seed as usize % m, seed as usize % n);
        for i in 0..m {
            a.set(i, kp, 0.0);
        }
        b.set(kp, jp, poison);
        let detected = detected_isa();
        for isa in [Isa::Scalar, detected] {
            with_isa(isa, || {
                let mut c = Mat::zeros(m, n);
                assert!(gemm_small(1.0, &a, &b, &mut c));
                let mut c32 = Mat::<f32>::zeros(m, n);
                assert!(gemm_small(1.0f32, &a.convert::<f32>(), &b.convert::<f32>(), &mut c32));
                for i in 0..m {
                    assert!(c.get(i, jp).is_nan(), "f64 on {} dropped 0 * {poison} at ({i}, {jp})", isa.name());
                    assert!(c32.get(i, jp).is_nan(), "f32 on {} dropped 0 * {poison} at ({i}, {jp})", isa.name());
                }
                for j in (0..n).filter(|&j| j != jp) {
                    assert!(c.get(0, j).is_finite(), "poison leaked into column {j}");
                }
            });
        }
    }

    /// Strided submatrix views reach the same answers as contiguous
    /// operands through the dispatched `gemm` and through `gemm_small`.
    #[test]
    fn strided_views_match_contiguous(
        (m, seed) in (small_dim(), 0u64..1000)
    ) {
        let _g = lock();
        // Carve m x m windows out of larger backings, offset so the
        // column stride differs from the row count.
        let big_a = uniform(m + 7, m + 3, &mut rng(seed));
        let big_b = uniform(m + 5, m + 2, &mut rng(seed ^ 0x57));
        let av = big_a.as_ref().submatrix(3, 1, m, m);
        let bv = big_b.as_ref().submatrix(2, 1, m, m);
        let a = Mat::from_fn(m, m, |i, j| av.get(i, j));
        let b = Mat::from_fn(m, m, |i, j| bv.get(i, j));
        let expect = naive_matmul(&a, &b);
        let tol = 1e-13 * m as f64;

        // gemm_small on strided in/out views.
        let mut big_c = Mat::zeros(m + 4, m + 1);
        let cv = big_c.as_mut().submatrix_mut(4, 1, m, m);
        prop_assert!(gemm_small(1.0, av, bv, cv));
        let got = big_c.as_ref().submatrix(4, 1, m, m);
        for j in 0..m {
            for i in 0..m {
                prop_assert!((got.get(i, j) - expect.get(i, j)).abs() <= tol);
            }
        }
        // Padding around the window must stay untouched.
        for i in 0..4 {
            prop_assert_eq!(big_c.get(i, 0), 0.0);
        }

        // Dispatched gemm on the same strided views.
        let mut c2 = Mat::zeros(m, m);
        gemm(1.0, av, Trans::No, bv, Trans::No, 0.0, &mut c2);
        prop_assert!(c2.sub(&expect).max_abs() <= tol);
    }

    /// `0 * NaN == NaN` must reach C through every kernel on every ISA:
    /// no kernel may skip zero weights (the
    /// `nonfinite_propagates_through_zero_weights` contract).
    #[test]
    fn nonfinite_propagates_on_every_path(
        (m, seed, poison) in (small_dim(), 0u64..1000, (0usize..2).prop_map(|i| if i == 0 { f64::NAN } else { f64::INFINITY }))
    ) {
        let _g = lock();
        let mut a = uniform(m, m, &mut rng(seed));
        let mut b = uniform(m, m, &mut rng(seed ^ 0xF00));
        a.set(1, 2, poison);
        b.set(2, 0, 0.0); // 0 * poison must still poison C[1, 0]
        let detected = detected_isa();
        for isa in [Isa::Scalar, detected] {
            with_isa(isa, || {
                let mut c = Mat::zeros(m, m);
                assert!(gemm_small(1.0, &a, &b, &mut c));
                assert!(!c.get(1, 0).is_finite(), "small kernel on {} skipped 0 * {poison}", isa.name());
                let mut c = Mat::zeros(m, m);
                gemm_axpy(1.0, &a, &b, &mut c);
                assert!(!c.get(1, 0).is_finite(), "axpy on {} skipped 0 * {poison}", isa.name());
                let mut c = Mat::zeros(m, m);
                gemm_packed(1.0, &a, &b, &mut c);
                assert!(!c.get(1, 0).is_finite(), "packed on {} skipped 0 * {poison}", isa.name());
            });
        }
    }
}

/// `BT_DENSE_SIMD=0` must force the scalar path — asserted through the
/// dispatch counters with metrics live, so the CI scalar leg verifies
/// the whole chain (env var -> detection -> dispatch -> counters). On
/// other legs the same test checks detection matches the host CPU.
#[test]
fn bt_dense_simd_env_override_forces_scalar() {
    let _g = lock();
    // Re-run environment-driven detection (another test may have pinned).
    let isa = detected_isa();
    bt_obs::set_enabled(true);

    let a = uniform(32, 32, &mut rng(7));
    let b = uniform(32, 32, &mut rng(8));
    let mut c = Mat::zeros(32, 32);
    let before = bt_obs::counters_snapshot();
    gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
    let diff = bt_obs::counters_diff(&before);
    let simd_calls = diff.get("bt_dense.gemm.simd_calls").copied().unwrap_or(0);

    if std::env::var("BT_DENSE_SIMD").as_deref() == Ok("0") {
        assert_eq!(isa, Isa::Scalar, "BT_DENSE_SIMD=0 did not force scalar");
        assert_eq!(simd_calls, 0, "scalar-forced gemm counted as a SIMD call");
    } else {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            assert_eq!(isa, Isa::Avx2Fma, "AVX2+FMA host detected as {isa:?}");
            assert_eq!(simd_calls, 1, "SIMD gemm did not bump simd_calls");
        }
        #[cfg(target_arch = "aarch64")]
        assert_eq!(isa, Isa::Neon);
    }
}

/// The small-block counter tracks exactly the `gemm` calls that took the
/// small path, on every ISA (forced-scalar dispatch still uses the
/// unrolled small kernels — they have a scalar body).
#[test]
fn small_call_counter_tracks_small_path() {
    let _g = lock();
    bt_obs::set_enabled(true);
    let detected = detected_isa();
    for isa in [Isa::Scalar, detected] {
        with_isa(isa, || {
            let a = uniform(8, 8, &mut rng(1));
            let b = uniform(8, 8, &mut rng(2));
            let mut c = Mat::zeros(8, 8);
            let before = bt_obs::counters_snapshot();
            gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
            // 17 is not a small-block order: must not count.
            let a17 = uniform(17, 17, &mut rng(3));
            let b17 = uniform(17, 17, &mut rng(4));
            let mut c17 = Mat::zeros(17, 17);
            gemm(1.0, &a17, Trans::No, &b17, Trans::No, 0.0, &mut c17);
            let diff = bt_obs::counters_diff(&before);
            assert_eq!(
                diff.get("bt_dense.gemm.small_calls").copied().unwrap_or(0),
                1,
                "small_calls on {}",
                isa.name()
            );
        });
    }
}

/// Sanity net under the proptests: one fixed case per kernel per ISA
/// against the naive reference, so a broken kernel fails loudly even if
/// proptest shrinking obscures the original failure.
#[test]
fn fixed_case_all_kernels_match_naive() {
    let _g = lock();
    let detected = detected_isa();
    for &(m, k, n) in &[(4usize, 4usize, 4usize), (16, 16, 16), (40, 65, 24)] {
        let a = uniform(m, k, &mut rng(99));
        let b = uniform(k, n, &mut rng(100));
        let expect = naive_matmul(&a, &b);
        let tol = 1e-13 * k as f64;
        for isa in [Isa::Scalar, detected] {
            with_isa(isa, || {
                let mut c = Mat::zeros(m, n);
                gemm_axpy(1.0, &a, &b, &mut c);
                assert!(
                    c.sub(&expect).max_abs() <= tol,
                    "axpy {m}x{k}x{n} {}",
                    isa.name()
                );
                let mut c = Mat::zeros(m, n);
                gemm_packed(1.0, &a, &b, &mut c);
                assert!(
                    c.sub(&expect).max_abs() <= tol,
                    "packed {m}x{k}x{n} {}",
                    isa.name()
                );
                let mut c = Mat::zeros(m, n);
                gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
                assert!(
                    c.sub(&expect).max_abs() <= tol,
                    "gemm {m}x{k}x{n} {}",
                    isa.name()
                );
            });
        }
    }
}
