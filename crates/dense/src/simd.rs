//! Runtime-dispatched SIMD primitives for the dense kernels.
//!
//! Every flop in the suite funnels through a handful of inner loops: the
//! packed GEMM microkernel, the AXPY update (`y += w * x`) shared by
//! `gemm_axpy`/`gemv`/the LU and Cholesky sweeps, the dot product of the
//! transpose/backward sweeps, and the register-tiled small-M GEMM
//! specializations. This module provides one explicitly vectorized
//! implementation of each — at **both element widths**, `f64` and `f32`
//! — selected **at runtime** from the CPU:
//!
//! * **x86_64** — AVX2 + FMA (`_mm256_fmadd_pd`, 4 lanes of `f64`;
//!   `_mm256_fmadd_ps`, 8 lanes of `f32`), detected with
//!   `is_x86_feature_detected!`;
//! * **aarch64** — NEON (`vfmaq_f64`, 2 lanes; `vfmaq_f32`, 4 lanes),
//!   always present on aarch64 but still routed through the same
//!   dispatch point;
//! * **fallback** — portable scalar loops with hoisted bounds checks,
//!   identical in summation order to the pre-SIMD kernels.
//!
//! The f32 kernels are the flop half of the mixed-precision solve path:
//! twice the lanes per vector means the 16 x 4 f32 microkernel tile
//! retires twice the flops per FMA of the 8 x 4 f64 tile, using the same
//! register budget (two vectors of A per column). Both widths share one
//! dispatch decision — there is exactly one [`active`] ISA per process,
//! and `BT_DENSE_SIMD=0` forces the scalar path for every element type.
//!
//! The decision is made once, cached in an atomic, and exposed as
//! [`active`]. The `BT_DENSE_SIMD` environment variable overrides it:
//! `0` forces the scalar path (CI runs the whole workspace this way),
//! any other value — or unset — keeps hardware detection. Tests can pin
//! a path in-process with [`force`].
//!
//! # Safety invariants
//!
//! All `unsafe` here is confined to `#[target_feature]` kernels and is
//! justified by exactly two obligations, both discharged by safe code:
//!
//! 1. **CPU features** — a feature-gated kernel is only reachable through
//!    a dispatch `match` on [`active`], which returns [`Isa::Avx2Fma`] /
//!    [`Isa::Neon`] only after the corresponding runtime detection (or a
//!    test override, which is documented as unsound-if-lied-to on
//!    [`force`]).
//! 2. **In-bounds pointers** — every kernel receives plain slices and the
//!    safe wrappers assert the length contracts up front (`pa.len() >=
//!    kb * MR`, equal `x`/`y` lengths, `4 | 8 | 16`-row columns). The
//!    packed-panel contract is guaranteed by `pack_a`/`pack_b`, which
//!    zero-pad every micro-panel to full `MR`/`NR` size; the small-M
//!    kernels rely on [`crate::view`] columns being contiguous
//!    `rows`-long slices whatever the column stride.
//!
//! FMA contracts `a * b + c` into one rounding, so SIMD results differ
//! from the scalar path by well-understood ULP-level amounts; the
//! proptests in `tests/simd_kernels.rs` pin the two paths together under
//! a `k`-scaled tolerance. Within one process the selected path is
//! fixed, so results remain bitwise deterministic across repeat runs and
//! thread budgets.

use crate::element::Element;
use crate::view::{MatMut, MatRef};
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};

/// f64 microkernel tile height/width — `<f64 as Element>::MR` / `NR`.
pub(crate) const MR: usize = 8;
pub(crate) const NR: usize = 4;
/// f32 microkernel tile height/width — `<f32 as Element>::MR` / `NR`.
/// Same two-vectors-of-A register plan as f64, at 8 lanes per vector.
pub(crate) const MR32: usize = 16;
pub(crate) const NR32: usize = 4;

/// Instruction set the dense kernels dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Isa {
    /// Portable scalar loops (also the `BT_DENSE_SIMD=0` path).
    Scalar = 0,
    /// AVX2 + FMA on x86_64 (4 x f64 / 8 x f32 per vector).
    Avx2Fma = 1,
    /// NEON on aarch64 (2 x f64 / 4 x f32 per vector).
    Neon = 2,
}

impl Isa {
    /// Human-readable name (used by benches and the metrics gauge docs).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2Fma => "avx2+fma",
            Isa::Neon => "neon",
        }
    }

    /// Stable numeric encoding for the `bt_dense.gemm.dispatch_isa`
    /// gauge: 0 = scalar, 1 = avx2+fma, 2 = neon.
    #[inline]
    pub fn index(self) -> u8 {
        self as u8
    }
}

/// Cached dispatch decision: `UNRESOLVED` until first use.
static ACTIVE: AtomicU8 = AtomicU8::new(UNRESOLVED);
const UNRESOLVED: u8 = u8::MAX;

fn decode(v: u8) -> Isa {
    match v {
        1 => Isa::Avx2Fma,
        2 => Isa::Neon,
        _ => Isa::Scalar,
    }
}

/// Hardware + environment detection (no caching; see [`active`]).
fn detect() -> Isa {
    // BT_DENSE_SIMD=0 forces the scalar path; anything else (including
    // unset or `1`) keeps hardware detection.
    if std::env::var("BT_DENSE_SIMD").is_ok_and(|v| v.trim() == "0") {
        return Isa::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return Isa::Avx2Fma;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Isa::Neon;
        }
    }
    Isa::Scalar
}

/// The instruction set every dispatched kernel currently uses.
///
/// First call runs detection (environment override, then CPU features)
/// and caches the result; later calls are one relaxed atomic load.
#[inline]
pub fn active() -> Isa {
    let v = ACTIVE.load(Relaxed);
    if v == UNRESOLVED {
        let isa = detect();
        ACTIVE.store(isa.index(), Relaxed);
        isa
    } else {
        decode(v)
    }
}

/// Overrides the dispatch decision in-process (primarily for tests and
/// benches). `Some(isa)` pins every subsequent kernel to that path;
/// `None` re-runs detection (environment, then CPU features). Returns
/// the previously active ISA.
///
/// Forcing [`Isa::Avx2Fma`] or [`Isa::Neon`] on hardware without those
/// features makes later kernel calls execute unsupported instructions —
/// only force upward what [`active`] already reports, or [`Isa::Scalar`]
/// (always safe).
pub fn force(isa: Option<Isa>) -> Isa {
    let prev = active();
    match isa {
        Some(isa) => ACTIVE.store(isa.index(), Relaxed),
        None => ACTIVE.store(detect().index(), Relaxed),
    }
    prev
}

// ---------------------------------------------------------------------
// AXPY: y[i] += w * x[i]
// ---------------------------------------------------------------------

/// `y += w * x`, elementwise over equal-length slices.
///
/// Never skips `w == 0.0` (`0 * NaN` must reach `y`), matching the
/// non-finite propagation contract of the GEMM kernels. On SIMD paths
/// each element is one fused multiply-add; lanes never reassociate
/// across elements, so the result per element is independent of the
/// vector width.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn axpy(w: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` only reports Avx2Fma after runtime AVX2+FMA
        // detection; slice lengths were just checked equal.
        Isa::Avx2Fma => unsafe { x86::axpy(w, x, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `active()` only reports Neon after runtime detection.
        Isa::Neon => unsafe { neon::axpy(w, x, y) },
        _ => {
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi += w * *xi;
            }
        }
    }
}

/// `y += w * x` over `f32` slices — the 8-lane AVX2 / 4-lane NEON
/// counterpart of [`axpy`], same dispatch point and same non-finite
/// propagation contract.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub(crate) fn axpy_f32(w: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; lengths equal.
        Isa::Avx2Fma => unsafe { x86::axpy_f32(w, x, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; lengths equal.
        Isa::Neon => unsafe { neon::axpy_f32(w, x, y) },
        _ => {
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi += w * *xi;
            }
        }
    }
}

// ---------------------------------------------------------------------
// DOT: sum_i x[i] * y[i]
// ---------------------------------------------------------------------

/// Dot product of equal-length slices.
///
/// SIMD paths keep independent per-lane accumulators and combine them
/// once at the end, so the summation order differs from the scalar
/// sweep (and from the pre-SIMD kernels) by ULP-level reassociation;
/// for a fixed dispatch path the order is fixed, keeping results
/// deterministic run to run.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; lengths equal.
        Isa::Avx2Fma => unsafe { x86::dot(x, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; lengths equal.
        Isa::Neon => unsafe { neon::dot(x, y) },
        _ => x.iter().zip(y).map(|(a, b)| a * b).sum(),
    }
}

/// Dot product over `f32` slices (see [`dot`] for the reassociation
/// contract).
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub(crate) fn dot_f32(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; lengths equal.
        Isa::Avx2Fma => unsafe { x86::dot_f32(x, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; lengths equal.
        Isa::Neon => unsafe { neon::dot_f32(x, y) },
        _ => x.iter().zip(y).map(|(a, b)| a * b).sum(),
    }
}

// ---------------------------------------------------------------------
// Lane kernels for the interleaved batched (SoA) layout
// ---------------------------------------------------------------------

/// `y[i] += a[i] * b[i]`, elementwise over equal-length slices — the
/// lane-wise product accumulation of the interleaved batched kernels
/// (`crate::batch`), where every slice is one `K`-wide batch lane and
/// consecutive elements belong to *independent* systems. One fused
/// multiply-add per element on SIMD paths; lanes never reassociate.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn lane_fma(a: &[f64], b: &[f64], y: &mut [f64]) {
    assert_eq!(a.len(), y.len(), "lane_fma length mismatch");
    assert_eq!(b.len(), y.len(), "lane_fma length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; lengths equal.
        Isa::Avx2Fma => unsafe { x86::lane_fma(a, b, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; lengths equal.
        Isa::Neon => unsafe { neon::lane_fma(a, b, y) },
        _ => {
            for ((yv, av), bv) in y.iter_mut().zip(a).zip(b) {
                *yv += *av * *bv;
            }
        }
    }
}

/// `y[i] -= a[i] * b[i]`, elementwise — the negated counterpart of
/// [`lane_fma`], used by the batched LU trailing updates and the
/// batched triangular eliminations.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn lane_fnma(a: &[f64], b: &[f64], y: &mut [f64]) {
    assert_eq!(a.len(), y.len(), "lane_fnma length mismatch");
    assert_eq!(b.len(), y.len(), "lane_fnma length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; lengths equal.
        Isa::Avx2Fma => unsafe { x86::lane_fnma(a, b, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; lengths equal.
        Isa::Neon => unsafe { neon::lane_fnma(a, b, y) },
        _ => {
            for ((yv, av), bv) in y.iter_mut().zip(a).zip(b) {
                *yv -= *av * *bv;
            }
        }
    }
}

/// `y[i] *= a[i]`, elementwise — the reciprocal-pivot scaling step of
/// the batched LU factor/solve (the diagonal stores `1/pivot`, so the
/// "division" is a lane multiply).
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn lane_mul(a: &[f64], y: &mut [f64]) {
    assert_eq!(a.len(), y.len(), "lane_mul length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; lengths equal.
        Isa::Avx2Fma => unsafe { x86::lane_mul(a, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; lengths equal.
        Isa::Neon => unsafe { neon::lane_mul(a, y) },
        _ => {
            for (yv, av) in y.iter_mut().zip(a) {
                *yv *= *av;
            }
        }
    }
}

/// Register-fused lane reduction: `c[i] -= sum_{l < p} a[l*k + i] *
/// b[l*bstride + i]`, with `k = c.len()` and `p = a.len() / k`.
///
/// This is the whole inner product of one interleaved-batch GEMM output
/// lane (`C -= A . B` for a fixed `(row, col)`, summed over the inner
/// dimension) and of one batched triangular-solve elimination row. The
/// partial sums stay in SIMD accumulators across the `p` terms, so each
/// FMA costs two loads instead of the two-loads-plus-load/store of `p`
/// separate [`lane_fnma`] passes — on 2-load-port cores that doubles
/// the flop ceiling, and `c` is touched exactly once. The accumulator
/// is subtracted in one final rounding, so results differ from the
/// sequential formulation at ULP level (within the module's documented
/// reassociation contract).
///
/// `a`'s `p` lanes are `k`-contiguous; `b`'s are `bstride` apart
/// (`bstride >= k`), which is how a column of an interleaved
/// [`crate::BatchMat`] lays out.
///
/// # Panics
///
/// Panics if `a.len()` is not a multiple of `k`, or `b` is too short
/// for `p` strided lanes.
#[inline]
pub fn lane_dot_sub(a: &[f64], b: &[f64], bstride: usize, c: &mut [f64]) {
    let k = c.len();
    if k == 0 {
        return;
    }
    assert_eq!(a.len() % k, 0, "lane_dot_sub: a must hold whole lanes");
    let p = a.len() / k;
    if p == 0 {
        return;
    }
    assert!(
        b.len() >= (p - 1) * bstride + k,
        "lane_dot_sub: b too short for {p} strided lanes"
    );
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; lane
        // bounds were just asserted.
        Isa::Avx2Fma => unsafe { x86::lane_dot_sub(p, a, b, bstride, c) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; bounds asserted.
        Isa::Neon => unsafe { neon::lane_dot_sub(p, a, b, bstride, c) },
        _ => {
            for (i, cv) in c.iter_mut().enumerate() {
                let mut s = 0.0;
                for l in 0..p {
                    s += a[l * k + i] * b[l * bstride + i];
                }
                *cv -= s;
            }
        }
    }
}

/// `f32` counterpart of [`lane_dot_sub`].
///
/// # Panics
///
/// Panics if `a.len()` is not a multiple of `k`, or `b` is too short
/// for `p` strided lanes.
#[inline]
pub(crate) fn lane_dot_sub_f32(a: &[f32], b: &[f32], bstride: usize, c: &mut [f32]) {
    let k = c.len();
    if k == 0 {
        return;
    }
    assert_eq!(a.len() % k, 0, "lane_dot_sub: a must hold whole lanes");
    let p = a.len() / k;
    if p == 0 {
        return;
    }
    assert!(
        b.len() >= (p - 1) * bstride + k,
        "lane_dot_sub: b too short for {p} strided lanes"
    );
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; lane
        // bounds were just asserted.
        Isa::Avx2Fma => unsafe { x86::lane_dot_sub_f32(p, a, b, bstride, c) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; bounds asserted.
        Isa::Neon => unsafe { neon::lane_dot_sub_f32(p, a, b, bstride, c) },
        _ => {
            for (i, cv) in c.iter_mut().enumerate() {
                let mut s = 0.0;
                for l in 0..p {
                    s += a[l * k + i] * b[l * bstride + i];
                }
                *cv -= s;
            }
        }
    }
}

/// `y[i] += a[i] * b[i]` over `f32` lanes (see [`lane_fma`]).
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub(crate) fn lane_fma_f32(a: &[f32], b: &[f32], y: &mut [f32]) {
    assert_eq!(a.len(), y.len(), "lane_fma length mismatch");
    assert_eq!(b.len(), y.len(), "lane_fma length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; lengths equal.
        Isa::Avx2Fma => unsafe { x86::lane_fma_f32(a, b, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; lengths equal.
        Isa::Neon => unsafe { neon::lane_fma_f32(a, b, y) },
        _ => {
            for ((yv, av), bv) in y.iter_mut().zip(a).zip(b) {
                *yv += *av * *bv;
            }
        }
    }
}

/// `y[i] -= a[i] * b[i]` over `f32` lanes (see [`lane_fnma`]).
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub(crate) fn lane_fnma_f32(a: &[f32], b: &[f32], y: &mut [f32]) {
    assert_eq!(a.len(), y.len(), "lane_fnma length mismatch");
    assert_eq!(b.len(), y.len(), "lane_fnma length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; lengths equal.
        Isa::Avx2Fma => unsafe { x86::lane_fnma_f32(a, b, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; lengths equal.
        Isa::Neon => unsafe { neon::lane_fnma_f32(a, b, y) },
        _ => {
            for ((yv, av), bv) in y.iter_mut().zip(a).zip(b) {
                *yv -= *av * *bv;
            }
        }
    }
}

/// `y[i] *= a[i]` over `f32` lanes (see [`lane_mul`]).
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub(crate) fn lane_mul_f32(a: &[f32], y: &mut [f32]) {
    assert_eq!(a.len(), y.len(), "lane_mul length mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; lengths equal.
        Isa::Avx2Fma => unsafe { x86::lane_mul_f32(a, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; lengths equal.
        Isa::Neon => unsafe { neon::lane_mul_f32(a, y) },
        _ => {
            for (yv, av) in y.iter_mut().zip(a) {
                *yv *= *av;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Packed MR x NR microkernel
// ---------------------------------------------------------------------

/// Register-tiled `MR x NR` rank-`kb` update on packed micro-panels:
/// `acc[jj * MR + ii] += sum_p pa[p * MR + ii] * pb[p * NR + jj]`.
///
/// `pa`/`pb` are the zero-padded panels produced by `pack_a`/`pack_b`,
/// so every `MR`-tall / `NR`-wide stripe is fully populated — the
/// kernels run with zero bounds checks in the `kb` loop.
///
/// # Panics
///
/// Panics if a panel is shorter than `kb` full micro-rows or `acc` is
/// smaller than the `MR * NR` tile.
#[inline]
pub(crate) fn microkernel(kb: usize, pa: &[f64], pb: &[f64], acc: &mut [f64]) {
    assert!(pa.len() >= kb * MR, "packed A panel too short");
    assert!(pb.len() >= kb * NR, "packed B panel too short");
    assert!(acc.len() >= MR * NR, "accumulator tile too short");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; the panel
        // length contracts were just asserted.
        Isa::Avx2Fma => unsafe { x86::microkernel(kb, pa, pb, acc) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; lengths asserted.
        Isa::Neon => unsafe { neon::microkernel(kb, pa, pb, acc) },
        _ => microkernel_scalar::<f64, MR, NR>(kb, pa, pb, acc),
    }
}

/// The `MR32 x NR32` packed `f32` microkernel (see [`microkernel`]).
///
/// # Panics
///
/// Panics if a panel is shorter than `kb` full micro-rows or `acc` is
/// smaller than the `MR32 * NR32` tile.
#[inline]
pub(crate) fn microkernel_f32(kb: usize, pa: &[f32], pb: &[f32], acc: &mut [f32]) {
    assert!(pa.len() >= kb * MR32, "packed A panel too short");
    assert!(pb.len() >= kb * NR32, "packed B panel too short");
    assert!(acc.len() >= MR32 * NR32, "accumulator tile too short");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; lengths
        // asserted above.
        Isa::Avx2Fma => unsafe { x86::microkernel_f32(kb, pa, pb, acc) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; lengths asserted.
        Isa::Neon => unsafe { neon::microkernel_f32(kb, pa, pb, acc) },
        _ => microkernel_scalar::<f32, MR32, NR32>(kb, pa, pb, acc),
    }
}

/// Portable microkernel, generic over the element type and tile shape:
/// same summation order as the SIMD tiles, array conversions hoisted out
/// of the inner loops (`chunks_exact` hands the compiler fixed-length
/// panels, so the `jj`/`ii` loops are bounds-check-free and
/// autovectorize).
fn microkernel_scalar<E: Element, const MRC: usize, const NRC: usize>(
    kb: usize,
    pa: &[E],
    pb: &[E],
    acc: &mut [E],
) {
    let pa = &pa[..kb * MRC];
    let pb = &pb[..kb * NRC];
    for (ap, bp) in pa.chunks_exact(MRC).zip(pb.chunks_exact(NRC)) {
        let ap: &[E; MRC] = ap.try_into().expect("MR panel stripe");
        let bp: &[E; NRC] = bp.try_into().expect("NR panel stripe");
        for jj in 0..NRC {
            let bv = bp[jj];
            for ii in 0..MRC {
                acc[jj * MRC + ii] += ap[ii] * bv;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Small-M register-tiled GEMM specializations (M x M · M x N)
// ---------------------------------------------------------------------

/// Block orders served by the small-block kernels. These are the block
/// sizes that dominate ARD workloads (DESIGN.md §6.8); the dispatcher in
/// `gemm` routes every `M x M · M x N` product here, skipping packing
/// entirely.
pub(crate) const SMALL_DIMS: [usize; 3] = [4, 8, 16];

/// Whether an `m x k` left operand takes the small-block kernels: square,
/// of an order in [`SMALL_DIMS`].
pub(crate) fn is_small_block(m: usize, k: usize) -> bool {
    m == k && SMALL_DIMS.contains(&m)
}

/// Whether `C += A * B` has the small-block shape: `A` is `M x M` with
/// `M` in [`SMALL_DIMS`], `B` is `M x N` and `C` is `M x N` for any `N`.
pub(crate) fn small_shape<E: Element>(
    a: MatRef<'_, E>,
    b: MatRef<'_, E>,
    c: &MatMut<'_, E>,
) -> bool {
    let m = a.rows();
    is_small_block(m, a.cols()) && b.rows() == m && c.shape() == (m, b.cols())
}

/// Small-block `C += alpha * A * B` for an `M x M` A with `M` in
/// [`SMALL_DIMS`] and `M x N` B and C of any width. Returns `false`
/// (computing nothing) for any other shape. Operands may be strided
/// views — only columns are addressed, and view columns are always
/// contiguous.
///
/// The kernels are register-tiled over output columns (2 per step at
/// `M = 16`, 4 at 8, 8 at 4 on AVX2), so each `k` step keeps at least
/// eight independent FMA chains in flight. Every column accumulates in
/// the same fixed `k` order whatever its tile, so the result is bitwise
/// independent of the tiling and of how callers split the columns.
pub(crate) fn gemm_small(alpha: f64, a: MatRef<'_>, b: MatRef<'_>, c: &mut MatMut<'_>) -> bool {
    if !small_shape(a, b, c) {
        return false;
    }
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA; the shape
        // check above guarantees M-long columns with M = 4 * NV.
        Isa::Avx2Fma => unsafe {
            match a.rows() {
                4 => x86::small::<4, 1, 8>(alpha, a, b, c),
                8 => x86::small::<8, 2, 4>(alpha, a, b, c),
                _ => x86::small::<16, 4, 2>(alpha, a, b, c),
            }
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; M = 2 * NV.
        Isa::Neon => unsafe {
            match a.rows() {
                4 => neon::small::<4, 2, 4>(alpha, a, b, c),
                8 => neon::small::<8, 4, 2>(alpha, a, b, c),
                _ => neon::small::<16, 8, 2>(alpha, a, b, c),
            }
        },
        _ => match a.rows() {
            4 => small_scalar::<f64, 4, 8>(alpha, a, b, c),
            8 => small_scalar::<f64, 8, 4>(alpha, a, b, c),
            _ => small_scalar::<f64, 16, 2>(alpha, a, b, c),
        },
    }
    true
}

/// The `f32` small-block kernel dispatcher (see [`gemm_small`]). The
/// `M = 4` column fits a single SSE vector on x86, so it gets a
/// dedicated 128-bit kernel; 8 and 16 use full-width AVX2 vectors.
pub(crate) fn gemm_small_f32(
    alpha: f32,
    a: MatRef<'_, f32>,
    b: MatRef<'_, f32>,
    c: &mut MatMut<'_, f32>,
) -> bool {
    if !small_shape(a, b, c) {
        return false;
    }
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma implies runtime-detected AVX2+FMA (which
        // subsumes the SSE + FMA used by the M = 4 kernel); the shape
        // check guarantees M-long columns with M = 8 * NV (or exactly 4).
        Isa::Avx2Fma => unsafe {
            match a.rows() {
                4 => x86::small4_f32::<8>(alpha, a, b, c),
                8 => x86::small_f32::<8, 1, 8>(alpha, a, b, c),
                _ => x86::small_f32::<16, 2, 4>(alpha, a, b, c),
            }
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: Neon implies runtime-detected NEON; M = 4 * NV.
        Isa::Neon => unsafe {
            match a.rows() {
                4 => neon::small_f32::<4, 1, 8>(alpha, a, b, c),
                8 => neon::small_f32::<8, 2, 4>(alpha, a, b, c),
                _ => neon::small_f32::<16, 4, 2>(alpha, a, b, c),
            }
        },
        _ => match a.rows() {
            4 => small_scalar::<f32, 4, 8>(alpha, a, b, c),
            8 => small_scalar::<f32, 8, 4>(alpha, a, b, c),
            _ => small_scalar::<f32, 16, 2>(alpha, a, b, c),
        },
    }
    true
}

/// Portable small-block kernel, `NC` output columns per tile and a
/// one-column tail: fixed-size array views make every loop bound a
/// compile-time constant, so the body fully unrolls and autovectorizes
/// without bounds checks. Per column it is the plain (unfused)
/// `acc += a_k * b_kj` in ascending `k`, then `c += alpha * acc`.
fn small_scalar<E: Element, const M: usize, const NC: usize>(
    alpha: E,
    a: MatRef<'_, E>,
    b: MatRef<'_, E>,
    c: &mut MatMut<'_, E>,
) {
    let n = b.cols();
    let mut j = 0;
    while j + NC <= n {
        small_scalar_tile::<E, M, NC>(alpha, a, b, c, j);
        j += NC;
    }
    for j in j..n {
        small_scalar_tile::<E, M, 1>(alpha, a, b, c, j);
    }
}

/// Columns `[j0, j0 + NC)` of [`small_scalar`].
#[inline(always)]
fn small_scalar_tile<E: Element, const M: usize, const NC: usize>(
    alpha: E,
    a: MatRef<'_, E>,
    b: MatRef<'_, E>,
    c: &mut MatMut<'_, E>,
    j0: usize,
) {
    let bcols: [&[E; M]; NC] =
        core::array::from_fn(|t| b.col(j0 + t).try_into().expect("B column"));
    let mut acc = [[E::ZERO; M]; NC];
    for k in 0..M {
        let acol: &[E; M] = a.col(k).try_into().expect("A column");
        for (bc, acct) in bcols.iter().zip(acc.iter_mut()) {
            let bkj = bc[k];
            for i in 0..M {
                acct[i] += acol[i] * bkj;
            }
        }
    }
    for (t, acct) in acc.iter().enumerate() {
        let ccol: &mut [E; M] = c.col_mut(j0 + t).try_into().expect("C column");
        for i in 0..M {
            ccol[i] += alpha * acct[i];
        }
    }
}

// ---------------------------------------------------------------------
// x86_64: AVX2 + FMA
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MatMut, MatRef, MR, MR32, NR, NR32};
    use core::arch::x86_64::{
        __m256, __m256d, _mm256_add_pd, _mm256_add_ps, _mm256_fmadd_pd, _mm256_fmadd_ps,
        _mm256_fnmadd_pd, _mm256_fnmadd_ps, _mm256_loadu_pd, _mm256_loadu_ps, _mm256_mul_pd,
        _mm256_mul_ps, _mm256_set1_pd, _mm256_set1_ps, _mm256_setzero_pd, _mm256_setzero_ps,
        _mm256_storeu_pd, _mm256_storeu_ps, _mm256_sub_pd, _mm256_sub_ps, _mm_fmadd_ps,
        _mm_loadu_ps, _mm_set1_ps, _mm_setzero_ps, _mm_storeu_ps,
    };

    /// f64 lanes per vector.
    const V: usize = 4;
    /// f32 lanes per vector.
    const VS: usize = 8;

    /// `MR x NR` packed microkernel: the 8 x 4 accumulator tile lives in
    /// eight YMM registers (two per output column), fed by two A loads
    /// and four B broadcasts per `kb` step — 32 flops per iteration with
    /// no memory traffic beyond the contiguous packed panels.
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA, `pa.len() >= kb * MR`, `pb.len() >= kb * NR`
    /// and `acc.len() >= MR * NR`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn microkernel(kb: usize, pa: &[f64], pb: &[f64], acc: &mut [f64]) {
        debug_assert!(pa.len() >= kb * MR && pb.len() >= kb * NR && acc.len() >= MR * NR);
        let mut c00 = _mm256_setzero_pd();
        let mut c10 = _mm256_setzero_pd();
        let mut c01 = _mm256_setzero_pd();
        let mut c11 = _mm256_setzero_pd();
        let mut c02 = _mm256_setzero_pd();
        let mut c12 = _mm256_setzero_pd();
        let mut c03 = _mm256_setzero_pd();
        let mut c13 = _mm256_setzero_pd();
        let mut ap = pa.as_ptr();
        let mut bp = pb.as_ptr();
        for _ in 0..kb {
            let a0 = _mm256_loadu_pd(ap);
            let a1 = _mm256_loadu_pd(ap.add(V));
            let b0 = _mm256_set1_pd(*bp);
            c00 = _mm256_fmadd_pd(a0, b0, c00);
            c10 = _mm256_fmadd_pd(a1, b0, c10);
            let b1 = _mm256_set1_pd(*bp.add(1));
            c01 = _mm256_fmadd_pd(a0, b1, c01);
            c11 = _mm256_fmadd_pd(a1, b1, c11);
            let b2 = _mm256_set1_pd(*bp.add(2));
            c02 = _mm256_fmadd_pd(a0, b2, c02);
            c12 = _mm256_fmadd_pd(a1, b2, c12);
            let b3 = _mm256_set1_pd(*bp.add(3));
            c03 = _mm256_fmadd_pd(a0, b3, c03);
            c13 = _mm256_fmadd_pd(a1, b3, c13);
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let out = acc.as_mut_ptr();
        _mm256_storeu_pd(out, c00);
        _mm256_storeu_pd(out.add(V), c10);
        _mm256_storeu_pd(out.add(MR), c01);
        _mm256_storeu_pd(out.add(MR + V), c11);
        _mm256_storeu_pd(out.add(2 * MR), c02);
        _mm256_storeu_pd(out.add(2 * MR + V), c12);
        _mm256_storeu_pd(out.add(3 * MR), c03);
        _mm256_storeu_pd(out.add(3 * MR + V), c13);
    }

    /// `MR32 x NR32` packed `f32` microkernel: the same two-A-loads /
    /// four-B-broadcasts register plan as the f64 tile, but each of the
    /// eight YMM accumulators now holds 8 single-precision lanes — 64
    /// flops per `kb` step, double the f64 rate.
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA, `pa.len() >= kb * MR32`, `pb.len() >= kb *
    /// NR32` and `acc.len() >= MR32 * NR32`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn microkernel_f32(kb: usize, pa: &[f32], pb: &[f32], acc: &mut [f32]) {
        debug_assert!(pa.len() >= kb * MR32 && pb.len() >= kb * NR32 && acc.len() >= MR32 * NR32);
        let mut c00 = _mm256_setzero_ps();
        let mut c10 = _mm256_setzero_ps();
        let mut c01 = _mm256_setzero_ps();
        let mut c11 = _mm256_setzero_ps();
        let mut c02 = _mm256_setzero_ps();
        let mut c12 = _mm256_setzero_ps();
        let mut c03 = _mm256_setzero_ps();
        let mut c13 = _mm256_setzero_ps();
        let mut ap = pa.as_ptr();
        let mut bp = pb.as_ptr();
        for _ in 0..kb {
            let a0 = _mm256_loadu_ps(ap);
            let a1 = _mm256_loadu_ps(ap.add(VS));
            let b0 = _mm256_set1_ps(*bp);
            c00 = _mm256_fmadd_ps(a0, b0, c00);
            c10 = _mm256_fmadd_ps(a1, b0, c10);
            let b1 = _mm256_set1_ps(*bp.add(1));
            c01 = _mm256_fmadd_ps(a0, b1, c01);
            c11 = _mm256_fmadd_ps(a1, b1, c11);
            let b2 = _mm256_set1_ps(*bp.add(2));
            c02 = _mm256_fmadd_ps(a0, b2, c02);
            c12 = _mm256_fmadd_ps(a1, b2, c12);
            let b3 = _mm256_set1_ps(*bp.add(3));
            c03 = _mm256_fmadd_ps(a0, b3, c03);
            c13 = _mm256_fmadd_ps(a1, b3, c13);
            ap = ap.add(MR32);
            bp = bp.add(NR32);
        }
        let out = acc.as_mut_ptr();
        _mm256_storeu_ps(out, c00);
        _mm256_storeu_ps(out.add(VS), c10);
        _mm256_storeu_ps(out.add(MR32), c01);
        _mm256_storeu_ps(out.add(MR32 + VS), c11);
        _mm256_storeu_ps(out.add(2 * MR32), c02);
        _mm256_storeu_ps(out.add(2 * MR32 + VS), c12);
        _mm256_storeu_ps(out.add(3 * MR32), c03);
        _mm256_storeu_ps(out.add(3 * MR32 + VS), c13);
    }

    /// `y += w * x` with one fused multiply-add per element.
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA and `x.len() == y.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn axpy(w: f64, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), y.len());
        let n = y.len();
        let wv = _mm256_set1_pd(w);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + 2 * V <= n {
            let y0 = _mm256_fmadd_pd(wv, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            let y1 = _mm256_fmadd_pd(
                wv,
                _mm256_loadu_pd(xp.add(i + V)),
                _mm256_loadu_pd(yp.add(i + V)),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            _mm256_storeu_pd(yp.add(i + V), y1);
            i += 2 * V;
        }
        if i + V <= n {
            let y0 = _mm256_fmadd_pd(wv, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            _mm256_storeu_pd(yp.add(i), y0);
            i += V;
        }
        while i < n {
            // Scalar fused tail: same one-rounding semantics as the lanes.
            *yp.add(i) = w.mul_add(*xp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// `y += w * x` over `f32`, 8 lanes per fused multiply-add.
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA and `x.len() == y.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn axpy_f32(w: f32, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), y.len());
        let n = y.len();
        let wv = _mm256_set1_ps(w);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + 2 * VS <= n {
            let y0 = _mm256_fmadd_ps(wv, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
            let y1 = _mm256_fmadd_ps(
                wv,
                _mm256_loadu_ps(xp.add(i + VS)),
                _mm256_loadu_ps(yp.add(i + VS)),
            );
            _mm256_storeu_ps(yp.add(i), y0);
            _mm256_storeu_ps(yp.add(i + VS), y1);
            i += 2 * VS;
        }
        if i + VS <= n {
            let y0 = _mm256_fmadd_ps(wv, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
            _mm256_storeu_ps(yp.add(i), y0);
            i += VS;
        }
        while i < n {
            // Scalar fused tail: same one-rounding semantics as the lanes.
            *yp.add(i) = w.mul_add(*xp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// `y += a * b` elementwise, one fused multiply-add per element.
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA and equal slice lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn lane_fma(a: &[f64], b: &[f64], y: &mut [f64]) {
        debug_assert!(a.len() == y.len() && b.len() == y.len());
        let n = y.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + 2 * V <= n {
            let y0 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i)),
                _mm256_loadu_pd(bp.add(i)),
                _mm256_loadu_pd(yp.add(i)),
            );
            let y1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + V)),
                _mm256_loadu_pd(bp.add(i + V)),
                _mm256_loadu_pd(yp.add(i + V)),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            _mm256_storeu_pd(yp.add(i + V), y1);
            i += 2 * V;
        }
        if i + V <= n {
            let y0 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i)),
                _mm256_loadu_pd(bp.add(i)),
                _mm256_loadu_pd(yp.add(i)),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            i += V;
        }
        while i < n {
            // Scalar fused tail: same one-rounding semantics as the lanes.
            *yp.add(i) = (*ap.add(i)).mul_add(*bp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// `y -= a * b` elementwise via fused negated multiply-add.
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA and equal slice lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn lane_fnma(a: &[f64], b: &[f64], y: &mut [f64]) {
        debug_assert!(a.len() == y.len() && b.len() == y.len());
        let n = y.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + 2 * V <= n {
            let y0 = _mm256_fnmadd_pd(
                _mm256_loadu_pd(ap.add(i)),
                _mm256_loadu_pd(bp.add(i)),
                _mm256_loadu_pd(yp.add(i)),
            );
            let y1 = _mm256_fnmadd_pd(
                _mm256_loadu_pd(ap.add(i + V)),
                _mm256_loadu_pd(bp.add(i + V)),
                _mm256_loadu_pd(yp.add(i + V)),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            _mm256_storeu_pd(yp.add(i + V), y1);
            i += 2 * V;
        }
        if i + V <= n {
            let y0 = _mm256_fnmadd_pd(
                _mm256_loadu_pd(ap.add(i)),
                _mm256_loadu_pd(bp.add(i)),
                _mm256_loadu_pd(yp.add(i)),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            i += V;
        }
        while i < n {
            // Scalar fused tail: -(a * b) + y in one rounding.
            *yp.add(i) = (-*ap.add(i)).mul_add(*bp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// `c -= sum_l a_lane(l) * b_lane(l)` with register-resident partial
    /// sums (see the safe wrapper for the layout contract).
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA; `a` must hold `p` `c.len()`-long lanes and
    /// `b` must cover `p` `bs`-strided lanes.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn lane_dot_sub(p: usize, a: &[f64], b: &[f64], bs: usize, c: &mut [f64]) {
        let k = c.len();
        debug_assert!(a.len() >= p * k && b.len() >= (p - 1) * bs + k);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut i = 0;
        while i + 2 * V <= k {
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            for l in 0..p {
                let la = ap.add(l * k + i);
                let lb = bp.add(l * bs + i);
                acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(la), _mm256_loadu_pd(lb), acc0);
                acc1 =
                    _mm256_fmadd_pd(_mm256_loadu_pd(la.add(V)), _mm256_loadu_pd(lb.add(V)), acc1);
            }
            _mm256_storeu_pd(cp.add(i), _mm256_sub_pd(_mm256_loadu_pd(cp.add(i)), acc0));
            _mm256_storeu_pd(
                cp.add(i + V),
                _mm256_sub_pd(_mm256_loadu_pd(cp.add(i + V)), acc1),
            );
            i += 2 * V;
        }
        if i + V <= k {
            let mut acc0 = _mm256_setzero_pd();
            for l in 0..p {
                acc0 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(ap.add(l * k + i)),
                    _mm256_loadu_pd(bp.add(l * bs + i)),
                    acc0,
                );
            }
            _mm256_storeu_pd(cp.add(i), _mm256_sub_pd(_mm256_loadu_pd(cp.add(i)), acc0));
            i += V;
        }
        while i < k {
            let mut s = 0.0;
            for l in 0..p {
                s = (*ap.add(l * k + i)).mul_add(*bp.add(l * bs + i), s);
            }
            *cp.add(i) -= s;
            i += 1;
        }
    }

    /// `f32` counterpart of [`lane_dot_sub`].
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA; same layout contract as [`lane_dot_sub`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn lane_dot_sub_f32(
        p: usize,
        a: &[f32],
        b: &[f32],
        bs: usize,
        c: &mut [f32],
    ) {
        let k = c.len();
        debug_assert!(a.len() >= p * k && b.len() >= (p - 1) * bs + k);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut i = 0;
        while i + 2 * VS <= k {
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            for l in 0..p {
                let la = ap.add(l * k + i);
                let lb = bp.add(l * bs + i);
                acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(la), _mm256_loadu_ps(lb), acc0);
                acc1 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(la.add(VS)),
                    _mm256_loadu_ps(lb.add(VS)),
                    acc1,
                );
            }
            _mm256_storeu_ps(cp.add(i), _mm256_sub_ps(_mm256_loadu_ps(cp.add(i)), acc0));
            _mm256_storeu_ps(
                cp.add(i + VS),
                _mm256_sub_ps(_mm256_loadu_ps(cp.add(i + VS)), acc1),
            );
            i += 2 * VS;
        }
        if i + VS <= k {
            let mut acc0 = _mm256_setzero_ps();
            for l in 0..p {
                acc0 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(ap.add(l * k + i)),
                    _mm256_loadu_ps(bp.add(l * bs + i)),
                    acc0,
                );
            }
            _mm256_storeu_ps(cp.add(i), _mm256_sub_ps(_mm256_loadu_ps(cp.add(i)), acc0));
            i += VS;
        }
        while i < k {
            let mut s = 0.0f32;
            for l in 0..p {
                s = (*ap.add(l * k + i)).mul_add(*bp.add(l * bs + i), s);
            }
            *cp.add(i) -= s;
            i += 1;
        }
    }

    /// `y *= a` elementwise.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (FMA unused but part of the dispatch contract) and
    /// equal slice lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn lane_mul(a: &[f64], y: &mut [f64]) {
        debug_assert_eq!(a.len(), y.len());
        let n = y.len();
        let ap = a.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + 2 * V <= n {
            let y0 = _mm256_mul_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(yp.add(i)));
            let y1 = _mm256_mul_pd(
                _mm256_loadu_pd(ap.add(i + V)),
                _mm256_loadu_pd(yp.add(i + V)),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            _mm256_storeu_pd(yp.add(i + V), y1);
            i += 2 * V;
        }
        if i + V <= n {
            let y0 = _mm256_mul_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(yp.add(i)));
            _mm256_storeu_pd(yp.add(i), y0);
            i += V;
        }
        while i < n {
            *yp.add(i) *= *ap.add(i);
            i += 1;
        }
    }

    /// `y += a * b` over `f32` lanes (see [`lane_fma`]).
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA and equal slice lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn lane_fma_f32(a: &[f32], b: &[f32], y: &mut [f32]) {
        debug_assert!(a.len() == y.len() && b.len() == y.len());
        let n = y.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + 2 * VS <= n {
            let y0 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i)),
                _mm256_loadu_ps(bp.add(i)),
                _mm256_loadu_ps(yp.add(i)),
            );
            let y1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + VS)),
                _mm256_loadu_ps(bp.add(i + VS)),
                _mm256_loadu_ps(yp.add(i + VS)),
            );
            _mm256_storeu_ps(yp.add(i), y0);
            _mm256_storeu_ps(yp.add(i + VS), y1);
            i += 2 * VS;
        }
        if i + VS <= n {
            let y0 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i)),
                _mm256_loadu_ps(bp.add(i)),
                _mm256_loadu_ps(yp.add(i)),
            );
            _mm256_storeu_ps(yp.add(i), y0);
            i += VS;
        }
        while i < n {
            *yp.add(i) = (*ap.add(i)).mul_add(*bp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// `y -= a * b` over `f32` lanes (see [`lane_fnma`]).
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA and equal slice lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn lane_fnma_f32(a: &[f32], b: &[f32], y: &mut [f32]) {
        debug_assert!(a.len() == y.len() && b.len() == y.len());
        let n = y.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + 2 * VS <= n {
            let y0 = _mm256_fnmadd_ps(
                _mm256_loadu_ps(ap.add(i)),
                _mm256_loadu_ps(bp.add(i)),
                _mm256_loadu_ps(yp.add(i)),
            );
            let y1 = _mm256_fnmadd_ps(
                _mm256_loadu_ps(ap.add(i + VS)),
                _mm256_loadu_ps(bp.add(i + VS)),
                _mm256_loadu_ps(yp.add(i + VS)),
            );
            _mm256_storeu_ps(yp.add(i), y0);
            _mm256_storeu_ps(yp.add(i + VS), y1);
            i += 2 * VS;
        }
        if i + VS <= n {
            let y0 = _mm256_fnmadd_ps(
                _mm256_loadu_ps(ap.add(i)),
                _mm256_loadu_ps(bp.add(i)),
                _mm256_loadu_ps(yp.add(i)),
            );
            _mm256_storeu_ps(yp.add(i), y0);
            i += VS;
        }
        while i < n {
            *yp.add(i) = (-*ap.add(i)).mul_add(*bp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// `y *= a` over `f32` lanes (see [`lane_mul`]).
    ///
    /// # Safety
    ///
    /// Requires AVX2 and equal slice lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn lane_mul_f32(a: &[f32], y: &mut [f32]) {
        debug_assert_eq!(a.len(), y.len());
        let n = y.len();
        let ap = a.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + 2 * VS <= n {
            let y0 = _mm256_mul_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(yp.add(i)));
            let y1 = _mm256_mul_ps(
                _mm256_loadu_ps(ap.add(i + VS)),
                _mm256_loadu_ps(yp.add(i + VS)),
            );
            _mm256_storeu_ps(yp.add(i), y0);
            _mm256_storeu_ps(yp.add(i + VS), y1);
            i += 2 * VS;
        }
        if i + VS <= n {
            let y0 = _mm256_mul_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(yp.add(i)));
            _mm256_storeu_ps(yp.add(i), y0);
            i += VS;
        }
        while i < n {
            *yp.add(i) *= *ap.add(i);
            i += 1;
        }
    }

    /// Dot product with two independent lane accumulators.
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA and `x.len() == y.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dot(x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 2 * V <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), acc0);
            acc1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(xp.add(i + V)),
                _mm256_loadu_pd(yp.add(i + V)),
                acc1,
            );
            i += 2 * V;
        }
        if i + V <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), acc0);
            i += V;
        }
        let acc = _mm256_add_pd(acc0, acc1);
        let mut lanes = [0.0f64; V];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        while i < n {
            s = (*xp.add(i)).mul_add(*yp.add(i), s);
            i += 1;
        }
        s
    }

    /// `f32` dot product with two independent lane accumulators.
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA and `x.len() == y.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dot_f32(x: &[f32], y: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 2 * VS <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(xp.add(i + VS)),
                _mm256_loadu_ps(yp.add(i + VS)),
                acc1,
            );
            i += 2 * VS;
        }
        if i + VS <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)), acc0);
            i += VS;
        }
        let mut lanes = [0.0f32; VS];
        _mm256_storeu_ps(lanes.as_mut_ptr(), _mm256_add_ps(acc0, acc1));
        let mut s = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
        while i < n {
            s = (*xp.add(i)).mul_add(*yp.add(i), s);
            i += 1;
        }
        s
    }

    /// Small-block `C += alpha * A * B` for an `M x M` A and `M x N`
    /// B/C of any width `N`, `M = 4 * NV`: no packing, no scratch. The
    /// columns go `NC` at a time through [`small_tile`], then one at a
    /// time for the tail.
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA; `a` must be an `M x M` view, `b` `M x N` and
    /// `c` `M x N` (their columns are contiguous `M`-long slices by the
    /// view invariant).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn small<const M: usize, const NV: usize, const NC: usize>(
        alpha: f64,
        a: MatRef<'_>,
        b: MatRef<'_>,
        c: &mut MatMut<'_>,
    ) {
        debug_assert!(M == 4 * NV && a.shape() == (M, M) && c.shape() == (M, b.cols()));
        let n = b.cols();
        let mut j = 0;
        while j + NC <= n {
            small_tile::<M, NV, NC>(alpha, a, b, c, j);
            j += NC;
        }
        for j in j..n {
            small_tile::<M, NV, 1>(alpha, a, b, c, j);
        }
    }

    /// Columns `[j0, j0 + NC)` of [`small`]: `NC * NV` YMM accumulators,
    /// so every `k` step loads A's column `k` once and issues `NC * NV`
    /// independent FMAs against broadcasts of B. Each column accumulates
    /// `a_k * b_kj` in ascending `k` from zero and is then folded into C
    /// by one FMA with `alpha`, whatever `NC` is — so grouping and column
    /// splitting never change a bit.
    ///
    /// # Safety
    ///
    /// As [`small`], plus `j0 + NC <= b.cols()`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn small_tile<const M: usize, const NV: usize, const NC: usize>(
        alpha: f64,
        a: MatRef<'_>,
        b: MatRef<'_>,
        c: &mut MatMut<'_>,
        j0: usize,
    ) {
        let (ap, lda) = (a.data.as_ptr(), a.col_stride);
        let mut bp = [core::ptr::null::<f64>(); NC];
        for (t, p) in bp.iter_mut().enumerate() {
            *p = b.col(j0 + t).as_ptr();
        }
        let mut acc = [[_mm256_setzero_pd(); NV]; NC];
        for k in 0..a.cols() {
            let mut av = [_mm256_setzero_pd(); NV];
            for (v, x) in av.iter_mut().enumerate() {
                *x = _mm256_loadu_pd(ap.add(k * lda + V * v));
            }
            for (p, acct) in bp.iter().zip(acc.iter_mut()) {
                let bv = _mm256_set1_pd(*p.add(k));
                for (x, accv) in av.iter().zip(acct.iter_mut()) {
                    *accv = _mm256_fmadd_pd(*x, bv, *accv);
                }
            }
        }
        let alphav = _mm256_set1_pd(alpha);
        for (t, acct) in acc.iter().enumerate() {
            let cp = c.col_mut(j0 + t).as_mut_ptr();
            for (v, &accv) in acct.iter().enumerate() {
                let cv: __m256d = _mm256_loadu_pd(cp.add(V * v));
                _mm256_storeu_pd(cp.add(V * v), _mm256_fmadd_pd(alphav, accv, cv));
            }
        }
    }

    /// `f32` small-block kernel for `M = 8 * NV` (M = 8 and 16; M = 4
    /// has its own 128-bit kernel below), `NC` columns per tile.
    ///
    /// # Safety
    ///
    /// As [`small`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn small_f32<const M: usize, const NV: usize, const NC: usize>(
        alpha: f32,
        a: MatRef<'_, f32>,
        b: MatRef<'_, f32>,
        c: &mut MatMut<'_, f32>,
    ) {
        debug_assert!(M == 8 * NV && a.shape() == (M, M) && c.shape() == (M, b.cols()));
        let n = b.cols();
        let mut j = 0;
        while j + NC <= n {
            small_tile_f32::<M, NV, NC>(alpha, a, b, c, j);
            j += NC;
        }
        for j in j..n {
            small_tile_f32::<M, NV, 1>(alpha, a, b, c, j);
        }
    }

    /// Columns `[j0, j0 + NC)` of [`small_f32`] (see [`small_tile`]).
    ///
    /// # Safety
    ///
    /// As [`small`], plus `j0 + NC <= b.cols()`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn small_tile_f32<const M: usize, const NV: usize, const NC: usize>(
        alpha: f32,
        a: MatRef<'_, f32>,
        b: MatRef<'_, f32>,
        c: &mut MatMut<'_, f32>,
        j0: usize,
    ) {
        let (ap, lda) = (a.data.as_ptr(), a.col_stride);
        let mut bp = [core::ptr::null::<f32>(); NC];
        for (t, p) in bp.iter_mut().enumerate() {
            *p = b.col(j0 + t).as_ptr();
        }
        let mut acc = [[_mm256_setzero_ps(); NV]; NC];
        for k in 0..a.cols() {
            let mut av = [_mm256_setzero_ps(); NV];
            for (v, x) in av.iter_mut().enumerate() {
                *x = _mm256_loadu_ps(ap.add(k * lda + VS * v));
            }
            for (p, acct) in bp.iter().zip(acc.iter_mut()) {
                let bv = _mm256_set1_ps(*p.add(k));
                for (x, accv) in av.iter().zip(acct.iter_mut()) {
                    *accv = _mm256_fmadd_ps(*x, bv, *accv);
                }
            }
        }
        let alphav = _mm256_set1_ps(alpha);
        for (t, acct) in acc.iter().enumerate() {
            let cp = c.col_mut(j0 + t).as_mut_ptr();
            for (v, &accv) in acct.iter().enumerate() {
                let cv: __m256 = _mm256_loadu_ps(cp.add(VS * v));
                _mm256_storeu_ps(cp.add(VS * v), _mm256_fmadd_ps(alphav, accv, cv));
            }
        }
    }

    /// `f32` small-block kernel for `M = 4`: one 128-bit vector holds a
    /// full column, so a tile of `NC` columns keeps `NC` XMM
    /// accumulators.
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA (FMA covers the 128-bit `_mm_fmadd_ps`);
    /// `a` must be a `4 x 4` view, `b` and `c` `4 x N` views.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn small4_f32<const NC: usize>(
        alpha: f32,
        a: MatRef<'_, f32>,
        b: MatRef<'_, f32>,
        c: &mut MatMut<'_, f32>,
    ) {
        debug_assert!(a.shape() == (4, 4) && c.shape() == (4, b.cols()));
        let n = b.cols();
        let mut j = 0;
        while j + NC <= n {
            small4_tile_f32::<NC>(alpha, a, b, c, j);
            j += NC;
        }
        for j in j..n {
            small4_tile_f32::<1>(alpha, a, b, c, j);
        }
    }

    /// Columns `[j0, j0 + NC)` of [`small4_f32`] (see [`small_tile`]).
    ///
    /// # Safety
    ///
    /// As [`small4_f32`], plus `j0 + NC <= b.cols()`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn small4_tile_f32<const NC: usize>(
        alpha: f32,
        a: MatRef<'_, f32>,
        b: MatRef<'_, f32>,
        c: &mut MatMut<'_, f32>,
        j0: usize,
    ) {
        let (ap, lda) = (a.data.as_ptr(), a.col_stride);
        let mut bp = [core::ptr::null::<f32>(); NC];
        for (t, p) in bp.iter_mut().enumerate() {
            *p = b.col(j0 + t).as_ptr();
        }
        let mut acc = [_mm_setzero_ps(); NC];
        for k in 0..a.cols() {
            let av = _mm_loadu_ps(ap.add(k * lda));
            for (p, accv) in bp.iter().zip(acc.iter_mut()) {
                *accv = _mm_fmadd_ps(av, _mm_set1_ps(*p.add(k)), *accv);
            }
        }
        let alphav = _mm_set1_ps(alpha);
        for (t, &accv) in acc.iter().enumerate() {
            let cp = c.col_mut(j0 + t).as_mut_ptr();
            _mm_storeu_ps(cp, _mm_fmadd_ps(alphav, accv, _mm_loadu_ps(cp)));
        }
    }
}

// ---------------------------------------------------------------------
// aarch64: NEON
// ---------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{MatMut, MatRef, MR, MR32, NR, NR32};
    use core::arch::aarch64::{
        vaddq_f32, vaddq_f64, vdupq_n_f32, vdupq_n_f64, vfmaq_f32, vfmaq_f64, vfmsq_f32, vfmsq_f64,
        vld1q_f32, vld1q_f64, vmulq_f32, vmulq_f64, vst1q_f32, vst1q_f64, vsubq_f32, vsubq_f64,
    };

    /// f64 lanes per vector.
    const V: usize = 2;
    /// f32 lanes per vector.
    const VS: usize = 4;

    /// `MR x NR` packed microkernel: 16 two-lane accumulators (four per
    /// output column).
    ///
    /// # Safety
    ///
    /// Requires NEON, `pa.len() >= kb * MR`, `pb.len() >= kb * NR` and
    /// `acc.len() >= MR * NR`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn microkernel(kb: usize, pa: &[f64], pb: &[f64], acc: &mut [f64]) {
        debug_assert!(pa.len() >= kb * MR && pb.len() >= kb * NR && acc.len() >= MR * NR);
        let mut tile = [[vdupq_n_f64(0.0); MR / V]; NR];
        let mut ap = pa.as_ptr();
        let mut bp = pb.as_ptr();
        for _ in 0..kb {
            let a = [
                vld1q_f64(ap),
                vld1q_f64(ap.add(V)),
                vld1q_f64(ap.add(2 * V)),
                vld1q_f64(ap.add(3 * V)),
            ];
            for (jj, col) in tile.iter_mut().enumerate() {
                let bv = vdupq_n_f64(*bp.add(jj));
                for (v, accv) in col.iter_mut().enumerate() {
                    *accv = vfmaq_f64(*accv, a[v], bv);
                }
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let out = acc.as_mut_ptr();
        for (jj, col) in tile.iter().enumerate() {
            for (v, &accv) in col.iter().enumerate() {
                vst1q_f64(out.add(jj * MR + v * V), accv);
            }
        }
    }

    /// `MR32 x NR32` packed `f32` microkernel: 16 four-lane accumulators
    /// (four per output column), the register plan of the f64 tile at
    /// twice the lanes. aarch64's 32 vector registers hold the tile, the
    /// four A vectors and the B broadcast without spilling.
    ///
    /// # Safety
    ///
    /// Requires NEON, `pa.len() >= kb * MR32`, `pb.len() >= kb * NR32`
    /// and `acc.len() >= MR32 * NR32`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn microkernel_f32(kb: usize, pa: &[f32], pb: &[f32], acc: &mut [f32]) {
        debug_assert!(pa.len() >= kb * MR32 && pb.len() >= kb * NR32 && acc.len() >= MR32 * NR32);
        let mut tile = [[vdupq_n_f32(0.0); MR32 / VS]; NR32];
        let mut ap = pa.as_ptr();
        let mut bp = pb.as_ptr();
        for _ in 0..kb {
            let a = [
                vld1q_f32(ap),
                vld1q_f32(ap.add(VS)),
                vld1q_f32(ap.add(2 * VS)),
                vld1q_f32(ap.add(3 * VS)),
            ];
            for (jj, col) in tile.iter_mut().enumerate() {
                let bv = vdupq_n_f32(*bp.add(jj));
                for (v, accv) in col.iter_mut().enumerate() {
                    *accv = vfmaq_f32(*accv, a[v], bv);
                }
            }
            ap = ap.add(MR32);
            bp = bp.add(NR32);
        }
        let out = acc.as_mut_ptr();
        for (jj, col) in tile.iter().enumerate() {
            for (v, &accv) in col.iter().enumerate() {
                vst1q_f32(out.add(jj * MR32 + v * VS), accv);
            }
        }
    }

    /// `y += w * x` with one fused multiply-add per element.
    ///
    /// # Safety
    ///
    /// Requires NEON and `x.len() == y.len()`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn axpy(w: f64, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), y.len());
        let n = y.len();
        let wv = vdupq_n_f64(w);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + 2 * V <= n {
            let y0 = vfmaq_f64(vld1q_f64(yp.add(i)), vld1q_f64(xp.add(i)), wv);
            let y1 = vfmaq_f64(vld1q_f64(yp.add(i + V)), vld1q_f64(xp.add(i + V)), wv);
            vst1q_f64(yp.add(i), y0);
            vst1q_f64(yp.add(i + V), y1);
            i += 2 * V;
        }
        if i + V <= n {
            let y0 = vfmaq_f64(vld1q_f64(yp.add(i)), vld1q_f64(xp.add(i)), wv);
            vst1q_f64(yp.add(i), y0);
            i += V;
        }
        while i < n {
            *yp.add(i) = w.mul_add(*xp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// `y += w * x` over `f32`, 4 lanes per fused multiply-add.
    ///
    /// # Safety
    ///
    /// Requires NEON and `x.len() == y.len()`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn axpy_f32(w: f32, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), y.len());
        let n = y.len();
        let wv = vdupq_n_f32(w);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + 2 * VS <= n {
            let y0 = vfmaq_f32(vld1q_f32(yp.add(i)), vld1q_f32(xp.add(i)), wv);
            let y1 = vfmaq_f32(vld1q_f32(yp.add(i + VS)), vld1q_f32(xp.add(i + VS)), wv);
            vst1q_f32(yp.add(i), y0);
            vst1q_f32(yp.add(i + VS), y1);
            i += 2 * VS;
        }
        if i + VS <= n {
            let y0 = vfmaq_f32(vld1q_f32(yp.add(i)), vld1q_f32(xp.add(i)), wv);
            vst1q_f32(yp.add(i), y0);
            i += VS;
        }
        while i < n {
            *yp.add(i) = w.mul_add(*xp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// `y += a * b` elementwise, one fused multiply-add per element.
    ///
    /// # Safety
    ///
    /// Requires NEON and equal slice lengths.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn lane_fma(a: &[f64], b: &[f64], y: &mut [f64]) {
        debug_assert!(a.len() == y.len() && b.len() == y.len());
        let n = y.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + V <= n {
            let y0 = vfmaq_f64(
                vld1q_f64(yp.add(i)),
                vld1q_f64(ap.add(i)),
                vld1q_f64(bp.add(i)),
            );
            vst1q_f64(yp.add(i), y0);
            i += V;
        }
        while i < n {
            *yp.add(i) = (*ap.add(i)).mul_add(*bp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// `y -= a * b` elementwise via fused multiply-subtract.
    ///
    /// # Safety
    ///
    /// Requires NEON and equal slice lengths.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn lane_fnma(a: &[f64], b: &[f64], y: &mut [f64]) {
        debug_assert!(a.len() == y.len() && b.len() == y.len());
        let n = y.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + V <= n {
            let y0 = vfmsq_f64(
                vld1q_f64(yp.add(i)),
                vld1q_f64(ap.add(i)),
                vld1q_f64(bp.add(i)),
            );
            vst1q_f64(yp.add(i), y0);
            i += V;
        }
        while i < n {
            *yp.add(i) = (-*ap.add(i)).mul_add(*bp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// `c -= sum_l a_lane(l) * b_lane(l)` with register-resident partial
    /// sums (see the safe wrapper for the layout contract).
    ///
    /// # Safety
    ///
    /// Requires NEON; `a` must hold `p` `c.len()`-long lanes and `b`
    /// must cover `p` `bs`-strided lanes.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn lane_dot_sub(p: usize, a: &[f64], b: &[f64], bs: usize, c: &mut [f64]) {
        let k = c.len();
        debug_assert!(a.len() >= p * k && b.len() >= (p - 1) * bs + k);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut i = 0;
        while i + 2 * V <= k {
            let mut acc0 = vdupq_n_f64(0.0);
            let mut acc1 = vdupq_n_f64(0.0);
            for l in 0..p {
                let la = ap.add(l * k + i);
                let lb = bp.add(l * bs + i);
                acc0 = vfmaq_f64(acc0, vld1q_f64(la), vld1q_f64(lb));
                acc1 = vfmaq_f64(acc1, vld1q_f64(la.add(V)), vld1q_f64(lb.add(V)));
            }
            vst1q_f64(cp.add(i), vsubq_f64(vld1q_f64(cp.add(i)), acc0));
            vst1q_f64(cp.add(i + V), vsubq_f64(vld1q_f64(cp.add(i + V)), acc1));
            i += 2 * V;
        }
        if i + V <= k {
            let mut acc0 = vdupq_n_f64(0.0);
            for l in 0..p {
                acc0 = vfmaq_f64(
                    acc0,
                    vld1q_f64(ap.add(l * k + i)),
                    vld1q_f64(bp.add(l * bs + i)),
                );
            }
            vst1q_f64(cp.add(i), vsubq_f64(vld1q_f64(cp.add(i)), acc0));
            i += V;
        }
        while i < k {
            let mut s = 0.0;
            for l in 0..p {
                s = (*ap.add(l * k + i)).mul_add(*bp.add(l * bs + i), s);
            }
            *cp.add(i) -= s;
            i += 1;
        }
    }

    /// `f32` counterpart of [`lane_dot_sub`].
    ///
    /// # Safety
    ///
    /// Requires NEON; same layout contract as [`lane_dot_sub`].
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn lane_dot_sub_f32(
        p: usize,
        a: &[f32],
        b: &[f32],
        bs: usize,
        c: &mut [f32],
    ) {
        let k = c.len();
        debug_assert!(a.len() >= p * k && b.len() >= (p - 1) * bs + k);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut i = 0;
        while i + VS <= k {
            let mut acc0 = vdupq_n_f32(0.0);
            for l in 0..p {
                acc0 = vfmaq_f32(
                    acc0,
                    vld1q_f32(ap.add(l * k + i)),
                    vld1q_f32(bp.add(l * bs + i)),
                );
            }
            vst1q_f32(cp.add(i), vsubq_f32(vld1q_f32(cp.add(i)), acc0));
            i += VS;
        }
        while i < k {
            let mut s = 0.0f32;
            for l in 0..p {
                s = (*ap.add(l * k + i)).mul_add(*bp.add(l * bs + i), s);
            }
            *cp.add(i) -= s;
            i += 1;
        }
    }

    /// `y *= a` elementwise.
    ///
    /// # Safety
    ///
    /// Requires NEON and equal slice lengths.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn lane_mul(a: &[f64], y: &mut [f64]) {
        debug_assert_eq!(a.len(), y.len());
        let n = y.len();
        let ap = a.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + V <= n {
            let y0 = vmulq_f64(vld1q_f64(ap.add(i)), vld1q_f64(yp.add(i)));
            vst1q_f64(yp.add(i), y0);
            i += V;
        }
        while i < n {
            *yp.add(i) *= *ap.add(i);
            i += 1;
        }
    }

    /// `y += a * b` over `f32` lanes (see [`lane_fma`]).
    ///
    /// # Safety
    ///
    /// Requires NEON and equal slice lengths.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn lane_fma_f32(a: &[f32], b: &[f32], y: &mut [f32]) {
        debug_assert!(a.len() == y.len() && b.len() == y.len());
        let n = y.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + VS <= n {
            let y0 = vfmaq_f32(
                vld1q_f32(yp.add(i)),
                vld1q_f32(ap.add(i)),
                vld1q_f32(bp.add(i)),
            );
            vst1q_f32(yp.add(i), y0);
            i += VS;
        }
        while i < n {
            *yp.add(i) = (*ap.add(i)).mul_add(*bp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// `y -= a * b` over `f32` lanes (see [`lane_fnma`]).
    ///
    /// # Safety
    ///
    /// Requires NEON and equal slice lengths.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn lane_fnma_f32(a: &[f32], b: &[f32], y: &mut [f32]) {
        debug_assert!(a.len() == y.len() && b.len() == y.len());
        let n = y.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + VS <= n {
            let y0 = vfmsq_f32(
                vld1q_f32(yp.add(i)),
                vld1q_f32(ap.add(i)),
                vld1q_f32(bp.add(i)),
            );
            vst1q_f32(yp.add(i), y0);
            i += VS;
        }
        while i < n {
            *yp.add(i) = (-*ap.add(i)).mul_add(*bp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// `y *= a` over `f32` lanes (see [`lane_mul`]).
    ///
    /// # Safety
    ///
    /// Requires NEON and equal slice lengths.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn lane_mul_f32(a: &[f32], y: &mut [f32]) {
        debug_assert_eq!(a.len(), y.len());
        let n = y.len();
        let ap = a.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + VS <= n {
            let y0 = vmulq_f32(vld1q_f32(ap.add(i)), vld1q_f32(yp.add(i)));
            vst1q_f32(yp.add(i), y0);
            i += VS;
        }
        while i < n {
            *yp.add(i) *= *ap.add(i);
            i += 1;
        }
    }

    /// Dot product with two independent lane accumulators.
    ///
    /// # Safety
    ///
    /// Requires NEON and `x.len() == y.len()`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot(x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut acc0 = vdupq_n_f64(0.0);
        let mut acc1 = vdupq_n_f64(0.0);
        let mut i = 0;
        while i + 2 * V <= n {
            acc0 = vfmaq_f64(acc0, vld1q_f64(xp.add(i)), vld1q_f64(yp.add(i)));
            acc1 = vfmaq_f64(acc1, vld1q_f64(xp.add(i + V)), vld1q_f64(yp.add(i + V)));
            i += 2 * V;
        }
        if i + V <= n {
            acc0 = vfmaq_f64(acc0, vld1q_f64(xp.add(i)), vld1q_f64(yp.add(i)));
            i += V;
        }
        let acc = vaddq_f64(acc0, acc1);
        let mut lanes = [0.0f64; V];
        vst1q_f64(lanes.as_mut_ptr(), acc);
        let mut s = lanes[0] + lanes[1];
        while i < n {
            s = (*xp.add(i)).mul_add(*yp.add(i), s);
            i += 1;
        }
        s
    }

    /// `f32` dot product with two independent lane accumulators.
    ///
    /// # Safety
    ///
    /// Requires NEON and `x.len() == y.len()`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot_f32(x: &[f32], y: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        let mut i = 0;
        while i + 2 * VS <= n {
            acc0 = vfmaq_f32(acc0, vld1q_f32(xp.add(i)), vld1q_f32(yp.add(i)));
            acc1 = vfmaq_f32(acc1, vld1q_f32(xp.add(i + VS)), vld1q_f32(yp.add(i + VS)));
            i += 2 * VS;
        }
        if i + VS <= n {
            acc0 = vfmaq_f32(acc0, vld1q_f32(xp.add(i)), vld1q_f32(yp.add(i)));
            i += VS;
        }
        let mut lanes = [0.0f32; VS];
        vst1q_f32(lanes.as_mut_ptr(), vaddq_f32(acc0, acc1));
        let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        while i < n {
            s = (*xp.add(i)).mul_add(*yp.add(i), s);
            i += 1;
        }
        s
    }

    /// Small-block `C += alpha * A * B` for an `M x M` A and `M x N`
    /// B/C, `M = 2 * NV`, `NC` columns per tile (the x86 `small`
    /// layout at 2 lanes).
    ///
    /// # Safety
    ///
    /// Requires NEON; `a` must be an `M x M` view, `b` and `c` `M x N`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn small<const M: usize, const NV: usize, const NC: usize>(
        alpha: f64,
        a: MatRef<'_>,
        b: MatRef<'_>,
        c: &mut MatMut<'_>,
    ) {
        debug_assert!(M == 2 * NV && a.shape() == (M, M) && c.shape() == (M, b.cols()));
        let n = b.cols();
        let mut j = 0;
        while j + NC <= n {
            small_tile::<M, NV, NC>(alpha, a, b, c, j);
            j += NC;
        }
        for j in j..n {
            small_tile::<M, NV, 1>(alpha, a, b, c, j);
        }
    }

    /// Columns `[j0, j0 + NC)` of [`small`]: `NC * NV` accumulators, A's
    /// column `k` loaded once per `k` step; per-column `k` order as on
    /// x86, so grouping never changes a bit.
    ///
    /// # Safety
    ///
    /// As [`small`], plus `j0 + NC <= b.cols()`.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn small_tile<const M: usize, const NV: usize, const NC: usize>(
        alpha: f64,
        a: MatRef<'_>,
        b: MatRef<'_>,
        c: &mut MatMut<'_>,
        j0: usize,
    ) {
        let (ap, lda) = (a.data.as_ptr(), a.col_stride);
        let mut bp = [core::ptr::null::<f64>(); NC];
        for (t, p) in bp.iter_mut().enumerate() {
            *p = b.col(j0 + t).as_ptr();
        }
        let mut acc = [[vdupq_n_f64(0.0); NV]; NC];
        for k in 0..a.cols() {
            let mut av = [vdupq_n_f64(0.0); NV];
            for (v, x) in av.iter_mut().enumerate() {
                *x = vld1q_f64(ap.add(k * lda + V * v));
            }
            for (p, acct) in bp.iter().zip(acc.iter_mut()) {
                let bv = vdupq_n_f64(*p.add(k));
                for (x, accv) in av.iter().zip(acct.iter_mut()) {
                    *accv = vfmaq_f64(*accv, *x, bv);
                }
            }
        }
        let alphav = vdupq_n_f64(alpha);
        for (t, acct) in acc.iter().enumerate() {
            let cp = c.col_mut(j0 + t).as_mut_ptr();
            for (v, &accv) in acct.iter().enumerate() {
                let cv = vld1q_f64(cp.add(V * v));
                vst1q_f64(cp.add(V * v), vfmaq_f64(cv, alphav, accv));
            }
        }
    }

    /// `f32` small-block kernel, `M = 4 * NV`, `NC` columns per tile.
    ///
    /// # Safety
    ///
    /// As [`small`].
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn small_f32<const M: usize, const NV: usize, const NC: usize>(
        alpha: f32,
        a: MatRef<'_, f32>,
        b: MatRef<'_, f32>,
        c: &mut MatMut<'_, f32>,
    ) {
        debug_assert!(M == 4 * NV && a.shape() == (M, M) && c.shape() == (M, b.cols()));
        let n = b.cols();
        let mut j = 0;
        while j + NC <= n {
            small_tile_f32::<M, NV, NC>(alpha, a, b, c, j);
            j += NC;
        }
        for j in j..n {
            small_tile_f32::<M, NV, 1>(alpha, a, b, c, j);
        }
    }

    /// Columns `[j0, j0 + NC)` of [`small_f32`] (see [`small_tile`]).
    ///
    /// # Safety
    ///
    /// As [`small`], plus `j0 + NC <= b.cols()`.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn small_tile_f32<const M: usize, const NV: usize, const NC: usize>(
        alpha: f32,
        a: MatRef<'_, f32>,
        b: MatRef<'_, f32>,
        c: &mut MatMut<'_, f32>,
        j0: usize,
    ) {
        let (ap, lda) = (a.data.as_ptr(), a.col_stride);
        let mut bp = [core::ptr::null::<f32>(); NC];
        for (t, p) in bp.iter_mut().enumerate() {
            *p = b.col(j0 + t).as_ptr();
        }
        let mut acc = [[vdupq_n_f32(0.0); NV]; NC];
        for k in 0..a.cols() {
            let mut av = [vdupq_n_f32(0.0); NV];
            for (v, x) in av.iter_mut().enumerate() {
                *x = vld1q_f32(ap.add(k * lda + VS * v));
            }
            for (p, acct) in bp.iter().zip(acc.iter_mut()) {
                let bv = vdupq_n_f32(*p.add(k));
                for (x, accv) in av.iter().zip(acct.iter_mut()) {
                    *accv = vfmaq_f32(*accv, *x, bv);
                }
            }
        }
        let alphav = vdupq_n_f32(alpha);
        for (t, acct) in acc.iter().enumerate() {
            let cp = c.col_mut(j0 + t).as_mut_ptr();
            for (v, &accv) in acct.iter().enumerate() {
                let cv = vld1q_f32(cp.add(VS * v));
                vst1q_f32(cp.add(VS * v), vfmaq_f32(cv, alphav, accv));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;

    use crate::dispatch_lock as lock;

    /// Restores the previously active ISA on drop.
    struct IsaGuard(Isa);
    impl Drop for IsaGuard {
        fn drop(&mut self) {
            force(Some(self.0));
        }
    }
    fn pin(isa: Isa) -> IsaGuard {
        IsaGuard(force(Some(isa)))
    }

    #[test]
    fn tile_constants_match_the_element_trait() {
        assert_eq!(MR, <f64 as Element>::MR);
        assert_eq!(NR, <f64 as Element>::NR);
        assert_eq!(MR32, <f32 as Element>::MR);
        assert_eq!(NR32, <f32 as Element>::NR);
    }

    #[test]
    fn detection_is_cached_and_forcible() {
        let _l = lock();
        let detected = active();
        {
            let _g = pin(Isa::Scalar);
            assert_eq!(active(), Isa::Scalar);
        }
        assert_eq!(active(), detected, "force(None) re-detects");
    }

    #[test]
    fn axpy_matches_scalar_reference() {
        let _l = lock();
        for n in [0usize, 1, 3, 4, 7, 8, 9, 31, 64, 100] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let y0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
            let w = -1.75;
            let mut expect = y0.clone();
            for (e, xv) in expect.iter_mut().zip(&x) {
                *e += w * xv;
            }
            let mut got = y0.clone();
            axpy(w, &x, &mut got);
            for (g, e) in got.iter().zip(&expect) {
                assert!((g - e).abs() <= 1e-15 * e.abs().max(1.0), "n={n}");
            }
        }
    }

    #[test]
    fn axpy_f32_matches_scalar_reference() {
        let _l = lock();
        for n in [0usize, 1, 3, 7, 8, 15, 16, 17, 31, 64, 100] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();
            let y0: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).cos()).collect();
            let w = -1.75f32;
            let mut expect = y0.clone();
            for (e, xv) in expect.iter_mut().zip(&x) {
                *e += w * xv;
            }
            let mut got = y0.clone();
            axpy_f32(w, &x, &mut got);
            for (g, e) in got.iter().zip(&expect) {
                assert!((g - e).abs() <= 1e-6 * e.abs().max(1.0), "n={n}");
            }
        }
    }

    #[test]
    fn axpy_propagates_zero_times_nan() {
        let _l = lock();
        let x = [f64::NAN, f64::INFINITY, 1.0];
        let mut y = [0.0; 3];
        axpy(0.0, &x, &mut y);
        assert!(y[0].is_nan() && y[1].is_nan());
        assert_eq!(y[2], 0.0);
    }

    #[test]
    fn axpy_f32_propagates_zero_times_nan() {
        let _l = lock();
        let x = [f32::NAN, f32::INFINITY, 1.0];
        let mut y = [0.0f32; 3];
        axpy_f32(0.0, &x, &mut y);
        assert!(y[0].is_nan() && y[1].is_nan());
        assert_eq!(y[2], 0.0);
    }

    #[test]
    fn lane_kernels_match_scalar_reference() {
        let _l = lock();
        for n in [0usize, 1, 3, 4, 7, 8, 9, 31, 64, 100] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.5).cos() + 0.1).collect();
            let y0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
            for (label, run, expect) in [
                (
                    "fma",
                    (|a: &[f64], b: &[f64], y: &mut [f64]| lane_fma(a, b, y))
                        as fn(&[f64], &[f64], &mut [f64]),
                    (|av: f64, bv: f64, yv: f64| yv + av * bv) as fn(f64, f64, f64) -> f64,
                ),
                ("fnma", lane_fnma, |av, bv, yv| yv - av * bv),
                ("mul", |a, _b, y| lane_mul(a, y), |av, _bv, yv| yv * av),
            ] {
                let mut got = y0.clone();
                run(&a, &b, &mut got);
                for (i, g) in got.iter().enumerate() {
                    let e = expect(a[i], b[i], y0[i]);
                    assert!(
                        (g - e).abs() <= 1e-15 * e.abs().max(1.0),
                        "{label} n={n} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_dot_sub_matches_scalar_reference() {
        let _l = lock();
        for k in [0usize, 1, 4, 7, 8, 9, 24, 100] {
            for p in [0usize, 1, 3, 8] {
                let bs = k + 3;
                let a: Vec<f64> = (0..p * k).map(|i| (i as f64 * 0.7).sin()).collect();
                let b: Vec<f64> = (0..if p == 0 { 0 } else { (p - 1) * bs + k })
                    .map(|i| (i as f64 * 0.5).cos())
                    .collect();
                let c0: Vec<f64> = (0..k).map(|i| (i as f64 * 0.3).cos()).collect();
                let mut got = c0.clone();
                lane_dot_sub(&a, &b, bs, &mut got);
                for i in 0..k {
                    let mut e = c0[i];
                    for l in 0..p {
                        e -= a[l * k + i] * b[l * bs + i];
                    }
                    assert!(
                        (got[i] - e).abs() <= 1e-14 * e.abs().max(1.0),
                        "k={k} p={p} i={i}"
                    );
                }
                let af: Vec<f32> = a.iter().map(|&v| v as f32).collect();
                let bf: Vec<f32> = b.iter().map(|&v| v as f32).collect();
                let mut gotf: Vec<f32> = c0.iter().map(|&v| v as f32).collect();
                lane_dot_sub_f32(&af, &bf, bs, &mut gotf);
                for i in 0..k {
                    let mut e = c0[i] as f32;
                    for l in 0..p {
                        e -= af[l * k + i] * bf[l * bs + i];
                    }
                    assert!(
                        (gotf[i] - e).abs() <= 1e-5 * e.abs().max(1.0),
                        "f32 k={k} p={p} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_kernels_f32_match_scalar_reference() {
        let _l = lock();
        for n in [0usize, 1, 3, 7, 8, 15, 16, 17, 31, 64, 100] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.5).cos() + 0.1).collect();
            let y0: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).cos()).collect();
            let mut fma = y0.clone();
            lane_fma_f32(&a, &b, &mut fma);
            let mut fnma = y0.clone();
            lane_fnma_f32(&a, &b, &mut fnma);
            let mut mul = y0.clone();
            lane_mul_f32(&a, &mut mul);
            for i in 0..n {
                let tol = 1e-6f32;
                assert!((fma[i] - (y0[i] + a[i] * b[i])).abs() <= tol, "fma n={n}");
                assert!((fnma[i] - (y0[i] - a[i] * b[i])).abs() <= tol, "fnma n={n}");
                assert!((mul[i] - y0[i] * a[i]).abs() <= tol, "mul n={n}");
            }
        }
    }

    #[test]
    fn dot_matches_scalar_reference() {
        let _l = lock();
        for n in [0usize, 1, 2, 5, 8, 13, 16, 33, 100] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
            let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).cos()).collect();
            let expect: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            let got = dot(&x, &y);
            assert!(
                (got - expect).abs() <= 1e-13 * expect.abs().max(1.0),
                "n={n}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn dot_f32_matches_scalar_reference() {
        let _l = lock();
        for n in [0usize, 1, 2, 5, 8, 15, 16, 17, 33, 100] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).sin()).collect();
            let y: Vec<f32> = (0..n).map(|i| (i as f32 * 0.23).cos()).collect();
            let expect: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            let got = dot_f32(&x, &y);
            // f32 reassociation error grows with n; scale the tolerance.
            assert!(
                (got - expect).abs() <= 1e-6 * (n as f32 + 1.0),
                "n={n}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn microkernel_paths_agree() {
        let _l = lock();
        let kb = 37;
        let pa: Vec<f64> = (0..kb * MR).map(|i| (i as f64 * 0.17).sin()).collect();
        let pb: Vec<f64> = (0..kb * NR).map(|i| (i as f64 * 0.29).cos()).collect();
        let mut scalar = [0.0f64; MR * NR];
        {
            let _g = pin(Isa::Scalar);
            microkernel(kb, &pa, &pb, &mut scalar);
        }
        let mut active_path = [0.0f64; MR * NR];
        microkernel(kb, &pa, &pb, &mut active_path);
        for (s, v) in scalar.iter().zip(&active_path) {
            assert!((s - v).abs() <= 1e-13 * s.abs().max(1.0));
        }
    }

    #[test]
    fn microkernel_f32_paths_agree() {
        let _l = lock();
        let kb = 37;
        let pa: Vec<f32> = (0..kb * MR32).map(|i| (i as f32 * 0.17).sin()).collect();
        let pb: Vec<f32> = (0..kb * NR32).map(|i| (i as f32 * 0.29).cos()).collect();
        let mut scalar = [0.0f32; MR32 * NR32];
        {
            let _g = pin(Isa::Scalar);
            microkernel_f32(kb, &pa, &pb, &mut scalar);
        }
        let mut active_path = [0.0f32; MR32 * NR32];
        microkernel_f32(kb, &pa, &pb, &mut active_path);
        for (s, v) in scalar.iter().zip(&active_path) {
            assert!((s - v).abs() <= 1e-6 * (kb as f32), "{s} vs {v}");
        }
    }

    #[test]
    fn small_kernel_paths_agree_and_respect_alpha() {
        let _l = lock();
        for m in SMALL_DIMS {
            let a = Mat::from_fn(m, m, |i, j| ((i * m + j) as f64 * 0.31).sin());
            let b = Mat::from_fn(m, m, |i, j| ((i + 2 * j) as f64 * 0.17).cos());
            let c0 = Mat::from_fn(m, m, |i, j| (i as f64 - j as f64) * 0.05);
            let mut scalar = c0.clone();
            {
                let _g = pin(Isa::Scalar);
                assert!(gemm_small(
                    -1.5,
                    a.as_ref(),
                    b.as_ref(),
                    &mut scalar.as_mut()
                ));
            }
            let mut active_path = c0.clone();
            assert!(gemm_small(
                -1.5,
                a.as_ref(),
                b.as_ref(),
                &mut active_path.as_mut()
            ));
            assert!(
                scalar.sub(&active_path).max_abs() <= 1e-13 * m as f64,
                "m={m}"
            );
        }
    }

    #[test]
    fn small_f32_kernel_paths_agree_and_respect_alpha() {
        let _l = lock();
        for m in SMALL_DIMS {
            let a = Mat::<f32>::from_fn(m, m, |i, j| ((i * m + j) as f32 * 0.31).sin());
            let b = Mat::<f32>::from_fn(m, m, |i, j| ((i + 2 * j) as f32 * 0.17).cos());
            let c0 = Mat::<f32>::from_fn(m, m, |i, j| (i as f32 - j as f32) * 0.05);
            let mut scalar = c0.clone();
            {
                let _g = pin(Isa::Scalar);
                assert!(gemm_small_f32(
                    -1.5,
                    a.as_ref(),
                    b.as_ref(),
                    &mut scalar.as_mut()
                ));
            }
            let mut active_path = c0.clone();
            assert!(gemm_small_f32(
                -1.5,
                a.as_ref(),
                b.as_ref(),
                &mut active_path.as_mut()
            ));
            assert!(
                scalar.sub(&active_path).max_abs() <= 1e-5 * m as f64,
                "m={m}"
            );
        }
    }

    #[test]
    fn small_kernel_accepts_any_width_and_rejects_other_shapes() {
        let _l = lock();
        let z = |r, c| Mat::zeros(r, c);
        let run = |a: &Mat, b: &Mat, c: &mut Mat| {
            gemm_small(1.0, a.as_ref(), b.as_ref(), &mut c.as_mut())
        };
        // M x M · M x N for any N, including 0 and N != M.
        for n in [0, 1, 4, 8, 17] {
            assert!(run(&z(8, 8), &z(8, n), &mut z(8, n)), "8x8·8x{n}");
        }
        // Order outside {4, 8, 16}.
        assert!(!run(&z(5, 5), &z(5, 5), &mut z(5, 5)));
        // Non-square A.
        assert!(!run(&z(8, 4), &z(4, 8), &mut z(8, 8)));
        // B.rows() != M.
        assert!(!run(&z(8, 8), &z(4, 8), &mut z(8, 8)));
        // C does not match M x N.
        assert!(!run(&z(8, 8), &z(8, 4), &mut z(8, 5)));
        assert!(!run(&z(8, 8), &z(8, 4), &mut z(4, 4)));
        let z32 = |r, c| Mat::<f32>::zeros(r, c);
        let run32 = |a: &Mat<f32>, b: &Mat<f32>, c: &mut Mat<f32>| {
            gemm_small_f32(1.0, a.as_ref(), b.as_ref(), &mut c.as_mut())
        };
        assert!(run32(&z32(4, 4), &z32(4, 9), &mut z32(4, 9)));
        assert!(!run32(&z32(5, 5), &z32(5, 5), &mut z32(5, 5)));
        assert!(!run32(&z32(16, 16), &z32(8, 3), &mut z32(16, 3)));
    }
}
