//! LU factorization with partial (row) pivoting, and solvers built on it.
//!
//! [`LuFactors`] stores the packed factorization `P A = L U` of a square
//! matrix. A factorization is computed once and then reused for any number
//! of right-hand sides — which is exactly the access pattern the
//! accelerated recursive doubling algorithm depends on: all
//! matrix-dependent work happens at factorization time, and each
//! right-hand-side panel solve is an `O(n^2 r)` triangular sweep.
//!
//! The factorization is generic over the element type (`f64` by default):
//! the mixed-precision solve path factors in `f32` — half the factor
//! storage, double the SIMD width in the elimination AXPYs — and
//! recovers `f64` accuracy by iterative refinement in `bt-ard`.
//! Conditioning diagnostics ([`LuFactors::det`], [`LuFactors::min_pivot`])
//! report in `f64` at either precision.

use crate::element::Element;
use crate::mat::Mat;
use crate::view::{MatMut, MatRef};
use std::fmt;

/// Observability instruments for the multi-RHS panel solves (no-ops
/// unless `BT_OBS` is on): call count plus a nanosecond histogram, the
/// measured side of the `O(n^2 r)` triangular-sweep cost claim.
static OBS_LU_PANEL_SOLVES: bt_obs::Counter = bt_obs::Counter::new("bt_dense.lu.panel_solves");
static OBS_LU_PANEL_NS: bt_obs::Histogram = bt_obs::Histogram::new("bt_dense.lu.panel_solve_ns");

/// Minimum panel width for the row-oriented sweep
/// ([`LuFactors::solve_block_rowwise`]): one full 8-lane `f32` AVX2
/// vector (two 4-lane `f64` vectors) per AXPY. Narrower panels stay on
/// the per-column sweep.
const WIDE_SOLVE_MIN_COLS: usize = 8;

/// Error returned when a factorization or solve encounters a singular (or
/// numerically singular) matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SingularError {
    /// Elimination step at which the zero pivot appeared.
    pub step: usize,
    /// Magnitude of the offending pivot (widened to `f64` for `f32`
    /// factorizations).
    pub pivot: f64,
}

impl fmt::Display for SingularError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix is singular to working precision: pivot {:.3e} at elimination step {}",
            self.pivot, self.step
        )
    }
}

impl std::error::Error for SingularError {}

/// Packed `P A = L U` factorization of a square matrix.
///
/// `L` is unit lower triangular and stored below the diagonal of `lu`; `U`
/// is upper triangular and stored on and above the diagonal. `piv[k]` is
/// the row swapped with row `k` at step `k`.
///
/// # Examples
///
/// ```
/// use bt_dense::{LuFactors, Mat};
///
/// let a: Mat = Mat::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// let lu = LuFactors::factor(&a).unwrap();
/// let b = Mat::from_rows(&[&[10.0], &[12.0]]);
/// let x = lu.solve(&b);
/// // A * x == b
/// assert!((4.0 * x[(0, 0)] + 3.0 * x[(1, 0)] - 10.0).abs() < 1e-12);
/// assert!((6.0 * x[(0, 0)] + 3.0 * x[(1, 0)] - 12.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct LuFactors<E: Element = f64> {
    lu: Mat<E>,
    piv: Vec<usize>,
    /// +1.0 or -1.0: parity of the row permutation (used by `det`).
    sign: f64,
}

impl<E: Element> LuFactors<E> {
    /// Factors a square matrix with partial pivoting.
    ///
    /// Returns [`SingularError`] if a pivot is exactly zero or smaller in
    /// magnitude than `n * eps * max|A|` (numerically singular), with
    /// `eps` the working precision's epsilon.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factor(a: &Mat<E>) -> Result<Self, SingularError> {
        assert!(
            a.is_square(),
            "LU of non-square {}x{} matrix",
            a.rows(),
            a.cols()
        );
        let n = a.rows();
        let mut lu = a.clone();
        let mut piv = Vec::with_capacity(n);
        let mut sign = 1.0;
        let tiny = E::from_f64(n as f64) * E::EPSILON * E::from_f64(a.max_abs());

        for k in 0..n {
            // Find pivot: largest |value| in column k at or below the diagonal.
            let col = lu.col(k);
            let mut p = k;
            let mut pmax = col[k].abs();
            for (off, v) in col[k..].iter().enumerate().skip(1) {
                let av = v.abs();
                if av > pmax {
                    pmax = av;
                    p = k + off;
                }
            }
            if pmax <= tiny || !pmax.is_finite() {
                return Err(SingularError {
                    step: k,
                    pivot: pmax.to_f64(),
                });
            }
            piv.push(p);
            if p != k {
                sign = -sign;
                swap_rows(&mut lu, k, p);
            }

            // Eliminate below the pivot, updating the trailing submatrix
            // column by column (column-major friendly rank-1 update).
            let pivot = lu.get(k, k);
            let inv_pivot = E::ONE / pivot;
            // Scale multipliers in column k.
            {
                let colk = lu.col_mut(k);
                for v in &mut colk[k + 1..] {
                    *v *= inv_pivot;
                }
            }
            // Trailing update: for each column j > k:
            //   lu[i, j] -= lu[i, k] * lu[k, j]  for i > k
            let m_rows = n;
            let (head, tail) = lu.as_mut_slice().split_at_mut((k + 1) * m_rows);
            let mults = &head[k * m_rows + k + 1..k * m_rows + m_rows];
            for (jc, colj) in tail.chunks_exact_mut(m_rows).enumerate() {
                let _ = jc;
                let ukj = colj[k];
                if ukj == E::ZERO {
                    continue;
                }
                // Rank-1 update of column j: colj[k+1..] -= ukj * mults,
                // through the SIMD AXPY primitive.
                E::simd_axpy(-ukj, mults, &mut colj[k + 1..]);
            }
        }

        Ok(Self { lu, piv, sign })
    }

    /// Order of the factored matrix.
    #[inline]
    pub fn order(&self) -> usize {
        self.lu.rows()
    }

    /// Pivot indices (`piv[k]` was swapped with row `k`).
    pub fn pivots(&self) -> &[usize] {
        &self.piv
    }

    /// The packed LU storage (L strictly below diagonal, U on/above).
    pub fn packed(&self) -> &Mat<E> {
        &self.lu
    }

    /// Determinant of the original matrix (accumulated in `f64` at
    /// either working precision).
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for k in 0..self.order() {
            d *= self.lu.get(k, k).to_f64();
        }
        d
    }

    /// Smallest |diagonal entry of U| — a cheap conditioning indicator.
    pub fn min_pivot(&self) -> f64 {
        (0..self.order())
            .map(|k| self.lu.get(k, k).abs().to_f64())
            .fold(f64::INFINITY, f64::min)
    }

    /// Solves `A X = B` in place: `b` holds `B` on entry, `X` on exit.
    /// `B` may have any number of columns (multi-RHS panel); wide panels
    /// are split across the intra-rank thread budget
    /// ([`crate::threading`]), each column being an independent
    /// triangular sweep.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != self.order()`.
    pub fn solve_in_place<'b>(&self, b: impl Into<MatMut<'b, E>>) {
        let mut b = b.into();
        let n = self.order();
        assert_eq!(b.rows(), n, "solve rhs row count mismatch");
        OBS_LU_PANEL_SOLVES.incr();
        let _span = bt_obs::span("bt_dense", "lu.solve_panel");
        let t0 = bt_obs::enabled().then(std::time::Instant::now);
        // Apply the row permutation to B (sequential: touches all columns).
        for (k, &p) in self.piv.iter().enumerate() {
            if p != k {
                swap_rows_view(&mut b, k, p);
            }
        }
        if b.is_contiguous() && b.cols() >= WIDE_SOLVE_MIN_COLS {
            crate::threading::for_each_column_block_parallel(b, 2 * n * n, |block, w| {
                self.solve_block_rowwise(block, w);
            });
        } else {
            crate::threading::for_each_column_parallel(b, 2 * n * n, |x| self.solve_column(x));
        }
        if let Some(t0) = t0 {
            OBS_LU_PANEL_NS.record_duration(t0.elapsed());
        }
    }

    /// Solves `A X = B` into caller-provided storage: copies `b` into
    /// `out`, then solves in place — no allocation.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch.
    pub fn solve_into<'b, 'o>(&self, b: impl Into<MatRef<'b, E>>, out: impl Into<MatMut<'o, E>>) {
        let mut out = out.into();
        out.copy_from(b.into());
        self.solve_in_place(out);
    }

    /// One forward + backward triangular sweep on a single permuted RHS
    /// column. Both substitutions are column-oriented AXPY updates, so
    /// they run on the SIMD dispatch path ([`crate::simd`]).
    fn solve_column(&self, x: &mut [E]) {
        let n = self.order();
        // Forward substitution with unit lower triangular L.
        for k in 0..n {
            let xk = x[k];
            if xk == E::ZERO {
                continue;
            }
            let lcol = self.lu.col(k);
            E::simd_axpy(-xk, &lcol[k + 1..], &mut x[k + 1..]);
        }
        // Backward substitution with U.
        for k in (0..n).rev() {
            let ucol = self.lu.col(k);
            let xk = x[k] / ucol[k];
            x[k] = xk;
            if xk == E::ZERO {
                continue;
            }
            E::simd_axpy(-xk, &ucol[..k], &mut x[..k]);
        }
    }

    /// Row-oriented multi-RHS sweep over a contiguous column-major block
    /// of `w` permuted RHS columns. The block is transposed into
    /// row-major scratch so every elimination step updates one *row*
    /// across all `w` columns with a single length-`w` AXPY (instead of
    /// `w` separate length-`<= n` column fragments), then transposed
    /// back; the two `O(n w)` transposes are noise next to the
    /// `O(n^2 w)` sweep. Per element the arithmetic is the same fused
    /// multiply-add and divide sequence as [`Self::solve_column`] — the
    /// AXPY multiplier and vector swap roles, and IEEE products commute
    /// exactly — so for finite data the orientation is a pure layout
    /// change. Only the skipped zero terms differ: the column sweep
    /// skips a step whose RHS entry is zero, this sweep one whose factor
    /// entry is zero. A skipped term is a signed zero, so the results
    /// can differ in the sign of a zero, and, with an exact zero in the
    /// factor and an Inf or NaN in the RHS, this sweep does not form
    /// `0 * Inf`. Taken at both precisions for contiguous panels of at
    /// least `WIDE_SOLVE_MIN_COLS` columns (the setup's `M x M`
    /// inversions among them).
    fn solve_block_rowwise(&self, data: &mut [E], w: usize) {
        let n = self.order();
        debug_assert_eq!(data.len(), n * w);
        let mut z = vec![E::ZERO; n * w];
        for (j, col) in data.chunks_exact(n).enumerate() {
            for (k, &v) in col.iter().enumerate() {
                z[k * w + j] = v;
            }
        }
        // Forward substitution with unit lower triangular L: row k is
        // final once reached, rows below accumulate `-L[i,k] * row_k`.
        for k in 0..n {
            let lcol = self.lu.col(k);
            let (head, tail) = z.split_at_mut((k + 1) * w);
            let zk = &head[k * w..];
            for (off, zi) in tail.chunks_exact_mut(w).enumerate() {
                let lik = lcol[k + 1 + off];
                if lik == E::ZERO {
                    continue;
                }
                E::simd_axpy(-lik, zk, zi);
            }
        }
        // Backward substitution with U.
        for k in (0..n).rev() {
            let ucol = self.lu.col(k);
            let (head, tail) = z.split_at_mut(k * w);
            let zk = &mut tail[..w];
            let ukk = ucol[k];
            for v in zk.iter_mut() {
                *v /= ukk;
            }
            for (i, zi) in head.chunks_exact_mut(w).enumerate() {
                let uik = ucol[i];
                if uik == E::ZERO {
                    continue;
                }
                E::simd_axpy(-uik, &*zk, zi);
            }
        }
        for (j, col) in data.chunks_exact_mut(n).enumerate() {
            for (k, v) in col.iter_mut().enumerate() {
                *v = z[k * w + j];
            }
        }
    }

    /// Solves `A X = B`, returning `X`.
    pub fn solve(&self, b: &Mat<E>) -> Mat<E> {
        let mut x = b.clone();
        self.solve_in_place(&mut x);
        x
    }

    /// Solves `X A = B` (right division), returning `X`.
    ///
    /// Implemented as `A^T X^T = B^T` using the identity
    /// `(X A)^T = A^T X^T`; costs one extra pair of transposes.
    pub fn solve_transposed_system(&self, b: &Mat<E>) -> Mat<E> {
        let mut xt = b.transpose();
        self.solve_transpose_in_place(&mut xt);
        xt.transpose()
    }

    /// Solves `A^T X = B` in place. Multi-column panels split across the
    /// intra-rank thread budget like [`Self::solve_in_place`].
    pub fn solve_transpose_in_place<'b>(&self, b: impl Into<MatMut<'b, E>>) {
        let mut b = b.into();
        let n = self.order();
        assert_eq!(b.rows(), n, "solve rhs row count mismatch");
        crate::threading::for_each_column_parallel(b.rb_mut(), 2 * n * n, |x| {
            self.solve_transpose_column(x);
        });
        // Undo the permutation last (sequential: touches all columns).
        for (k, &p) in self.piv.iter().enumerate().rev() {
            if p != k {
                swap_rows_view(&mut b, k, p);
            }
        }
    }

    /// One `U^T`/`L^T` sweep on a single RHS column:
    /// `A^T = (P^T L U)^T = U^T L^T P`, so solve `U^T w = b`, then
    /// `L^T v = w` (the caller applies `x = P^T v` afterwards). The
    /// inner products run on the SIMD dot-product path.
    fn solve_transpose_column(&self, x: &mut [E]) {
        let n = self.order();
        for k in 0..n {
            let ucol = self.lu.col(k);
            let s = x[k] - E::simd_dot(&x[..k], &ucol[..k]);
            x[k] = s / ucol[k];
        }
        for k in (0..n).rev() {
            let lcol = self.lu.col(k);
            let s = E::simd_dot(&x[k + 1..], &lcol[k + 1..]);
            x[k] -= s;
        }
    }

    /// Explicit inverse of the original matrix.
    pub fn inverse(&self) -> Mat<E> {
        let n = self.order();
        let mut inv = Mat::<E>::identity(n);
        self.solve_in_place(&mut inv);
        inv
    }
}

/// Swaps rows `i` and `j` of `m` in place.
fn swap_rows<E: Element>(m: &mut Mat<E>, i: usize, j: usize) {
    if i == j {
        return;
    }
    let rows = m.rows();
    let data = m.as_mut_slice();
    let cols = data.len() / rows;
    for c in 0..cols {
        data.swap(c * rows + i, c * rows + j);
    }
}

/// Swaps rows `i` and `j` of a (possibly strided) view in place.
pub(crate) fn swap_rows_view<E: Element>(m: &mut MatMut<'_, E>, i: usize, j: usize) {
    if i == j {
        return;
    }
    for c in 0..m.cols() {
        m.col_mut(c).swap(i, j);
    }
}

/// Convenience: factors `a` and solves `a x = b` in one call.
///
/// Prefer holding on to [`LuFactors`] when the same matrix is reused.
pub fn solve<E: Element>(a: &Mat<E>, b: &Mat<E>) -> Result<Mat<E>, SingularError> {
    Ok(LuFactors::factor(a)?.solve(b))
}

/// Convenience: explicit inverse of `a`.
pub fn invert<E: Element>(a: &Mat<E>) -> Result<Mat<E>, SingularError> {
    Ok(LuFactors::factor(a)?.inverse())
}

/// Flop count of an `n x n` LU factorization (2/3 n^3 to leading order).
#[inline]
pub const fn lu_flops(n: usize) -> u64 {
    let n = n as u64;
    (2 * n * n * n) / 3
}

/// Flop count of a triangular panel solve with `r` right-hand sides.
#[inline]
pub const fn lu_solve_flops(n: usize, r: usize) -> u64 {
    2 * (n as u64) * (n as u64) * (r as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    fn test_mat(n: usize, seed: f64) -> Mat {
        // Diagonally dominant => well conditioned and nonsingular.
        Mat::from_fn(n, n, |i, j| {
            let base = ((i * n + j) as f64 * 0.711 + seed).sin();
            if i == j {
                base + 2.0 * n as f64
            } else {
                base
            }
        })
    }

    #[test]
    fn factor_solve_roundtrip() {
        for n in [1, 2, 3, 5, 8, 17, 40] {
            let a = test_mat(n, 0.4);
            let lu = LuFactors::factor(&a).unwrap();
            let b = Mat::from_fn(n, 3, |i, j| (i + 2 * j) as f64);
            let x = lu.solve(&b);
            let r = matmul(&a, &x).sub(&b);
            assert!(r.max_abs() < 1e-9, "n={n} residual {}", r.max_abs());
        }
    }

    #[test]
    fn f32_factor_solve_roundtrip() {
        // The same elimination and triangular sweeps at f32, checked at
        // single-precision tolerance against the f64 reference problem.
        for n in [1, 3, 8, 17, 40] {
            let a = test_mat(n, 0.4);
            let a32 = a.convert::<f32>();
            let lu = LuFactors::factor(&a32).unwrap();
            let b = Mat::from_fn(n, 3, |i, j| (i + 2 * j) as f64);
            let x = lu.solve(&b.convert::<f32>());
            let r = matmul(&a, &x.convert::<f64>()).sub(&b);
            assert!(
                r.max_abs() < 1e-3 * n as f64,
                "n={n} f32 residual {}",
                r.max_abs()
            );
        }
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = test_mat(12, 1.1);
        let inv = invert(&a).unwrap();
        let prod = matmul(&a, &inv);
        assert!(prod.sub(&Mat::identity(12)).max_abs() < 1e-10);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = LuFactors::factor(&a).unwrap();
        let b = Mat::from_rows(&[&[3.0], &[7.0]]);
        let x = lu.solve(&b);
        assert!((x[(0, 0)] - 7.0).abs() < 1e-14);
        assert!((x[(1, 0)] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(LuFactors::factor(&a).is_err());
        let z: Mat = Mat::zeros(3, 3);
        let err = LuFactors::factor(&z).unwrap_err();
        assert_eq!(err.step, 0);
        // f32 singularity detection uses f32's epsilon in the threshold.
        let z32 = Mat::<f32>::zeros(2, 2);
        assert!(LuFactors::factor(&z32).is_err());
    }

    #[test]
    fn determinant_known_values() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let lu = LuFactors::factor(&a).unwrap();
        assert!((lu.det() - (-2.0)).abs() < 1e-14);

        let i5: Mat = Mat::identity(5);
        assert!((LuFactors::factor(&i5).unwrap().det() - 1.0).abs() < 1e-15);

        // Permutation matrix: det = -1.
        let p = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!((LuFactors::factor(&p).unwrap().det() + 1.0).abs() < 1e-15);
    }

    #[test]
    fn multi_rhs_panel_solve() {
        let n = 10;
        let a = test_mat(n, 2.2);
        let lu = LuFactors::factor(&a).unwrap();
        let b = Mat::from_fn(n, 7, |i, j| ((i * 7 + j) as f64).cos());
        let x = lu.solve(&b);
        assert!(matmul(&a, &x).sub(&b).max_abs() < 1e-10);
    }

    #[test]
    fn panel_solve_bitwise_identical_across_thread_budgets() {
        let _isa = crate::dispatch_lock();
        use crate::threading::with_thread_budget;
        // Wide enough panel (n^2 * r flops) to take the parallel path.
        let n = 60;
        let a = test_mat(n, 1.7);
        let lu = LuFactors::factor(&a).unwrap();
        let b = Mat::from_fn(n, 24, |i, j| ((i * 24 + j) as f64 * 0.13).cos());
        let x1 = with_thread_budget(1, || lu.solve(&b));
        for t in [2, 4, 7] {
            let xt = with_thread_budget(t, || lu.solve(&b));
            assert_eq!(x1, xt, "budget {t} changed the solve bits");
            let mut bt = b.clone();
            with_thread_budget(t, || lu.solve_transpose_in_place(&mut bt));
            let mut b1 = b.clone();
            with_thread_budget(1, || lu.solve_transpose_in_place(&mut b1));
            assert_eq!(b1, bt, "budget {t} changed the transpose-solve bits");
        }
    }

    /// Solves `b` twice with `lu`: once contiguous (the row-oriented
    /// sweep when `b` has at least `WIDE_SOLVE_MIN_COLS` columns) and once
    /// into a strided window (always the per-column sweep), and requires
    /// the two to agree bit for bit. A NaN only has to meet a NaN: the
    /// sweeps negate different FMA operands, so a NaN's sign may differ.
    fn assert_wide_matches_column_sweep<E: Element>(lu: &LuFactors<E>, b: &Mat<E>, what: &str) {
        let (n, r) = b.shape();
        let wide = lu.solve(b);
        let mut scratch = Mat::<E>::zeros(n + 3, r + 2);
        lu.solve_into(b, scratch.submatrix_mut(1, 1, n, r));
        for j in 0..r {
            for i in 0..n {
                let (w, c) = (wide.get(i, j).to_f64(), scratch.get(1 + i, 1 + j).to_f64());
                if w.is_nan() || c.is_nan() {
                    assert!(
                        w.is_nan() && c.is_nan(),
                        "{} {what} n={n} r={r} at ({i}, {j}): {w} vs {c}",
                        E::NAME
                    );
                } else {
                    assert_eq!(
                        w.to_bits(),
                        c.to_bits(),
                        "{} {what} n={n} r={r} at ({i}, {j})",
                        E::NAME
                    );
                }
            }
        }
    }

    #[test]
    fn wide_panel_solve_matches_column_sweep_exactly() {
        // The row-oriented sweep is a pure layout change: per element it
        // performs the same FMA/divide sequence as the per-column sweep,
        // so the results agree bitwise, at both precisions. A strided
        // output window forces the per-column path for the reference.
        for (n, r) in [(5, 8), (8, 24), (13, 24), (16, 16), (17, 9), (40, 16)] {
            let a = test_mat(n, 0.6);
            let b = Mat::from_fn(n, r, |i, j| ((i * r + j) as f64 * 0.37).sin());
            assert_wide_matches_column_sweep(&LuFactors::factor(&a).unwrap(), &b, "panel");
            let lu32 = LuFactors::factor(&a.convert::<f32>()).unwrap();
            assert_wide_matches_column_sweep(&lu32, &b.convert::<f32>(), "panel");
        }
        // The identity panel of `LuFactors::inverse` (mostly zeros, so
        // the two sweeps skip different terms) at the block orders the
        // setup inverts.
        for n in [8, 16, 17] {
            let a = test_mat(n, 1.3);
            let id = Mat::identity(n);
            assert_wide_matches_column_sweep(&LuFactors::factor(&a).unwrap(), &id, "inverse");
            let lu32 = LuFactors::factor(&a.convert::<f32>()).unwrap();
            assert_wide_matches_column_sweep(&lu32, &id.convert::<f32>(), "inverse");
        }
        // Non-finite right-hand sides with a dense factor (no exact zero
        // in L or U): Inf and NaN reach the same entries through both
        // sweeps. (With an exact zero in the factor the row sweep skips
        // that term and does not carry `0 * Inf` into the row.)
        for (n, r) in [(8, 8), (16, 24)] {
            let a = test_mat(n, 0.4);
            let mut b = Mat::from_fn(n, r, |i, j| ((i * r + j) as f64 * 0.53).cos());
            b.set(2, 1, f64::INFINITY);
            b.set(n - 1, 3, f64::NAN);
            b.set(0, r - 1, f64::NEG_INFINITY);
            b.set(n / 2, r - 1, f64::INFINITY);
            assert_wide_matches_column_sweep(&LuFactors::factor(&a).unwrap(), &b, "non-finite");
            let lu32 = LuFactors::factor(&a.convert::<f32>()).unwrap();
            assert_wide_matches_column_sweep(&lu32, &b.convert::<f32>(), "non-finite");
        }
    }

    fn assert_wide_solve_thread_invariant<E: Element>() {
        use crate::threading::with_thread_budget;
        let n = 60;
        let lu = LuFactors::factor(&test_mat(n, 1.7).convert::<E>()).unwrap();
        let b = Mat::from_fn(n, 24, |i, j| ((i * 24 + j) as f64 * 0.13).cos()).convert::<E>();
        let x1 = with_thread_budget(1, || lu.solve(&b));
        for t in [2, 4, 7] {
            let xt = with_thread_budget(t, || lu.solve(&b));
            assert_eq!(x1, xt, "budget {t} changed the {} wide-solve bits", E::NAME);
        }
    }

    #[test]
    fn wide_panel_solve_bitwise_identical_across_thread_budgets() {
        let _isa = crate::dispatch_lock();
        assert_wide_solve_thread_invariant::<f64>();
        assert_wide_solve_thread_invariant::<f32>();
    }

    #[test]
    fn transpose_solve() {
        let n = 9;
        let a = test_mat(n, 0.9);
        let lu = LuFactors::factor(&a).unwrap();
        let b = Mat::from_fn(n, 2, |i, j| (i as f64 - j as f64).tanh());
        let mut x = b.clone();
        lu.solve_transpose_in_place(&mut x);
        let r = matmul(&a.transpose(), &x).sub(&b);
        assert!(r.max_abs() < 1e-10, "residual {}", r.max_abs());
    }

    #[test]
    fn right_division_solves_xa_eq_b() {
        let n = 6;
        let a = test_mat(n, 3.3);
        let lu = LuFactors::factor(&a).unwrap();
        let b = Mat::from_fn(4, n, |i, j| ((i + j) as f64 * 0.3).sin());
        let x = lu.solve_transposed_system(&b);
        assert_eq!(x.shape(), (4, n));
        let r = matmul(&x, &a).sub(&b);
        assert!(r.max_abs() < 1e-10, "residual {}", r.max_abs());
    }

    #[test]
    fn min_pivot_reflects_conditioning() {
        let good = test_mat(6, 0.5);
        let lu = LuFactors::factor(&good).unwrap();
        assert!(lu.min_pivot() > 1.0);
    }

    #[test]
    fn flop_formulas() {
        assert_eq!(lu_flops(3), 18);
        assert_eq!(lu_solve_flops(3, 2), 36);
    }

    #[test]
    fn solve_into_matches_solve() {
        let n = 8;
        let a = test_mat(n, 0.8);
        let lu = LuFactors::factor(&a).unwrap();
        let b = Mat::from_fn(n, 3, |i, j| ((i * 3 + j) as f64 * 0.21).sin());
        let expect = lu.solve(&b);
        let mut out = Mat::zeros(n, 3);
        lu.solve_into(&b, &mut out);
        assert_eq!(out, expect);
        // Strided output window inside a larger scratch matrix.
        let mut scratch = Mat::filled(n + 4, 5, 9.0);
        lu.solve_into(&b, scratch.submatrix_mut(2, 1, n, 3));
        assert_eq!(scratch.block(2, 1, n, 3), expect);
        assert_eq!(scratch[(0, 0)], 9.0, "solve_into wrote outside window");
    }

    #[test]
    fn convenience_solve_matches_factor_solve() {
        let a = test_mat(5, 0.1);
        let b = Mat::from_fn(5, 1, |i, _| i as f64);
        let x1 = solve(&a, &b).unwrap();
        let x2 = LuFactors::factor(&a).unwrap().solve(&b);
        assert_eq!(x1, x2);
    }
}
