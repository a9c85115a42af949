//! Accuracy of the stored-inverse representation: every replay flavour
//! and block Thomas keep explicit `D_i^{-1}` (not `LU(D_i)`) and apply it
//! by GEMM. Each is checked against a dense LU solve of the whole
//! expanded system, on the standard generators at the tolerances the
//! cross-crate accuracy tests use, plus one badly scaled system whose
//! diagonal blocks `D_i` have 1-norm condition ~1e8, at the residual
//! bound of the session and mixed-precision tests.

use block_tridiag_suite::ard::driver::{ard_solve_cfg, DriverConfig};
use block_tridiag_suite::ard::{detect_toeplitz, ArdSession};
use block_tridiag_suite::blocktri::gen::{
    materialize, random_rhs, BlockToeplitz, ClusteredToeplitz, ConvectionDiffusion, Poisson2D,
};
use block_tridiag_suite::blocktri::{thomas_solve, BlockRow, BlockRowSource, BlockVec};
use block_tridiag_suite::dense::{cond_1, gemm, solve as dense_solve, Mat, Trans};
use block_tridiag_suite::mpsim::CostModel;

const ZERO: CostModel = CostModel {
    latency_s: 0.0,
    per_byte_s: 0.0,
    flop_rate: f64::INFINITY,
    threads_per_rank: 1,
};

/// `S T S` for the constant diagonal scaling `S = diag(s_0..s_{M-1})`,
/// `s_j` spaced geometrically from 1 down to `s_min`. Every block is
/// scaled alike, so the transfer matrices are similar to the source's
/// (same spectral spread for the exact scan) while each `D_i` becomes
/// `S D_i S`, about `s_min^-2` times worse conditioned.
struct Scaled<S> {
    inner: S,
    s: Vec<f64>,
}

impl<S: BlockRowSource> Scaled<S> {
    fn new(inner: S, s_min: f64) -> Self {
        let m = inner.m();
        let s = (0..m)
            .map(|j| s_min.powf(j as f64 / (m - 1) as f64))
            .collect();
        Self { inner, s }
    }

    fn scale(&self, b: &Mat) -> Mat {
        Mat::from_fn(b.rows(), b.cols(), |i, j| self.s[i] * b[(i, j)] * self.s[j])
    }
}

impl<S: BlockRowSource> BlockRowSource for Scaled<S> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn m(&self) -> usize {
        self.inner.m()
    }

    fn row(&self, i: usize) -> BlockRow {
        let r = self.inner.row(i);
        BlockRow::new(self.scale(&r.a), self.scale(&r.b), self.scale(&r.c))
    }
}

/// Largest 1-norm condition number over the block-LU diagonals
/// `D_0 = B_0`, `D_i = B_i - A_i D_{i-1}^{-1} C_{i-1}`.
fn worst_diag_cond(src: &dyn BlockRowSource) -> f64 {
    let mut d = src.row(0).b;
    let mut worst = cond_1(&d);
    for i in 1..src.n() {
        let row = src.row(i);
        let prev_c = src.row(i - 1).c;
        let dinv_c = dense_solve(&d, &prev_c).expect("nonsingular D");
        let mut next = row.b.clone();
        gemm(-1.0, &row.a, Trans::No, &dinv_c, Trans::No, 1.0, &mut next);
        d = next;
        worst = worst.max(cond_1(&d));
    }
    worst
}

/// Every stored-inverse solver on `src`, against the dense solution:
/// relative residual and forward error both below `tol`, or only the
/// residual when `fwd_check` is false (for an ill-conditioned system the
/// forward error measures the system, not the solver).
fn check_against_dense(src: &(impl BlockRowSource + Sync), r: usize, tol: f64, fwd_check: bool) {
    let (n, m) = (src.n(), src.m());
    let t = materialize(src);
    let y = random_rhs(n, m, r, 91);
    let x_dense = BlockVec::from_dense(
        &dense_solve(&t.to_dense(), &y.to_dense()).expect("dense solve"),
        m,
    );
    let check = |label: &str, x: &BlockVec| {
        let res = t.rel_residual(x, &y);
        assert!(res < tol, "{label}: residual {res:e}");
        if fwd_check {
            let diff = x.rel_diff(&x_dense);
            assert!(diff < tol, "{label}: forward error vs dense {diff:e}");
        }
    };

    check("thomas", &thomas_solve(&t, &y).expect("thomas"));
    let batches = std::slice::from_ref(&y);
    for p in [1, 2, 4] {
        let cfg = DriverConfig::new(p).with_model(ZERO);
        let replay = ard_solve_cfg(&cfg, src, batches).expect("ard replay");
        check(&format!("replay P={p}"), &replay.x[0]);
        let lean = ard_solve_cfg(&cfg.with_lean(), src, batches).expect("ard lean");
        check(&format!("lean replay P={p}"), &lean.x[0]);
        let mixed = ArdSession::create_mixed(p, ZERO, src).expect("mixed session");
        let x = mixed.solve(&y).expect("mixed solve");
        check(&format!("mixed ({:?}) P={p}", mixed.precision()), &x);
        if detect_toeplitz(src) {
            let fast = ArdSession::create_toeplitz(p, ZERO, src).expect("toeplitz session");
            check(
                &format!("toeplitz P={p}"),
                &fast.solve(&y).expect("toeplitz"),
            );
        }
    }
}

#[test]
fn clustered_toeplitz_matches_dense() {
    check_against_dense(&ClusteredToeplitz::standard(48, 4, 1), 3, 1e-10, true);
}

#[test]
fn poisson_matches_dense() {
    check_against_dense(&Poisson2D::new(24, 4), 2, 1e-7, true);
}

#[test]
fn convection_diffusion_matches_dense() {
    check_against_dense(&ConvectionDiffusion::new(24, 3, 0.4), 2, 1e-8, true);
}

#[test]
fn toeplitz_dominant_matches_dense() {
    check_against_dense(&BlockToeplitz::dominant(32, 4, 4.0, 3), 2, 1e-9, true);
}

#[test]
fn ill_conditioned_diagonals_keep_small_residuals() {
    let src = Scaled::new(ClusteredToeplitz::standard(48, 4, 1), 1e-4);
    let cond = worst_diag_cond(&src);
    assert!(
        (1e7..1e9).contains(&cond),
        "scaled system should have cond_1(D_i) ~ 1e8, got {cond:e}"
    );
    check_against_dense(&src, 3, 1e-10, false);
}
