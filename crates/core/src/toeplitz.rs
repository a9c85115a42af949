//! Toeplitz fast path: structure-exploiting setup for constant-block
//! systems.
//!
//! The paper's PDE examples discretize constant-coefficient operators on
//! uniform grids, so every interior block row carries the *same* three
//! blocks `(A, B, C)`. The general [`crate::state::ArdRankFactors`]
//! setup ignores that: it applies `N/P` distinct companion matrices in
//! Phase 1a and stores five `M x M` matrices per owned row
//! (`D_i^{-1}`, `F_i`, `G_i` and two prefix panels).
//!
//! With constant blocks, both costs collapse:
//!
//! * **Phase 1a** — every interior companion matrix is the same `W`, so
//!   the rank's local product is `W^count`, computed by repeated
//!   squaring in `O(log(N/P))` companion composes instead of `N/P`
//!   applies.
//! * **Factor storage** — the block-LU diagonal recurrence
//!   `D_i = B - A D_{i-1}^{-1} C` is a fixed-point iteration that
//!   contracts geometrically for the diagonally dominant systems the
//!   exact scan handles. After a short *head* (a few dozen rows at
//!   machine precision), `D_i^{-1}`, `F_i = -A D_{i-1}^{-1}` and
//!   `G_i = -D_i^{-1} C` are constant: one shared *tail* triple serves
//!   every remaining row, so factor storage drops from `5 * N/P`
//!   matrices to `3 * head + 3` — and the replay's working set fits in
//!   cache instead of streaming `O(N/P)` matrices from memory per
//!   solve. The local prefix totals the cross-rank scans need become
//!   head products times `tail^t` powers, again by repeated squaring.
//!
//! The replay is the general path's lean replay body itself (tiled scan
//! replay, workspace reuse, tags); only the factor lookup differs.
//! Detection ([`detect_toeplitz`]) is exact block equality, so the fast
//! path is never entered on a system it would silently approximate
//! beyond the head-convergence tolerance (a few hundred ulps, the same
//! envelope as the general path's accumulated roundoff).

use std::cell::RefCell;

use bt_blocktri::{BlockRowSource, FactorError};
use bt_comm::CommBackend;
use bt_dense::{gemm, gemm_flops, Element, Mat, Trans, Workspace};

use crate::companion::{CompanionProduct, CompanionState, CompanionW};
use crate::pairs::AffinePair;
use crate::scans::{
    affine_exscan_fresh, auto_rhs_tile_for, companion_exscan, Direction, ScanTrace,
};
use crate::solver::RankSolver;
// Tag bases are the general path's: the Toeplitz setup records scans
// the shared replay body then plays back.
use crate::state::{invert_block, lean_replay_in_place, neg_mul, tags, RankSystem, ReplayFactors};

/// Head-convergence tolerance, relative to `max_abs(D)`: the recurrence
/// is declared stationary once consecutive diagonals agree to a few
/// hundred ulps. Loose enough to converge in tens of rows on dominant
/// systems, tight enough that swapping in the shared tail factors
/// perturbs the solve at the roundoff level the general path already
/// carries.
const HEAD_TOL_ULPS: f64 = 256.0;

/// Exact constant-block detection: `true` iff every interior row of
/// `src` carries identical `(A, B, C)` blocks, the first row matches on
/// `(B, C)` (its `A` is structurally zero), and the last row matches on
/// `(A, B)` (its `C` is structurally zero). Requires `n >= 4` so the
/// interior is non-trivial; smaller systems gain nothing from the fast
/// path anyway.
///
/// Bitwise equality, not approximate: near-Toeplitz systems take the
/// general path rather than an silently perturbed fast one.
pub fn detect_toeplitz(src: &dyn BlockRowSource) -> bool {
    let n = src.n();
    if n < 4 {
        return false;
    }
    let tpl = src.row(1);
    let eq = |x: &Mat, y: &Mat| x.as_slice() == y.as_slice();
    let first = src.row(0);
    if !eq(&first.b, &tpl.b) || !eq(&first.c, &tpl.c) {
        return false;
    }
    let last = src.row(n - 1);
    if !eq(&last.a, &tpl.a) || !eq(&last.b, &tpl.b) {
        return false;
    }
    (2..n - 1).all(|i| {
        let r = src.row(i);
        eq(&r.a, &tpl.a) && eq(&r.b, &tpl.b) && eq(&r.c, &tpl.c)
    })
}

/// Toeplitz-specialized rank factors: head rows stored per-row, one
/// shared tail triple for the stationary remainder, and the recorded
/// cross-rank scan traces (identical wire format to the general path).
#[derive(Debug)]
pub struct ToeplitzRankFactors<E: Element = f64> {
    /// Global block-row count.
    pub n: usize,
    /// Block order.
    pub m: usize,
    /// First owned global row.
    pub lo: usize,
    /// One past the last owned global row.
    pub hi: usize,
    /// Per-row `D_i^{-1}` for the pre-convergence head (local rows
    /// `0..head_len`).
    head_d_inv: Vec<Mat<E>>,
    /// Per-row `F_i` for the head (`F_0 = 0` on rank 0).
    head_f: Vec<Mat<E>>,
    /// Per-row `G_i` for the head.
    head_g: Vec<Mat<E>>,
    /// Shared `D^{-1}` for local rows `head_len..`.
    tail_d_inv: Mat<E>,
    /// Shared `F` for the tail.
    tail_f: Mat<E>,
    /// Shared `G` for the tail.
    tail_g: Mat<E>,
    /// `G_{N-1} = 0` override, present only on the rank owning the last
    /// global row.
    g_zero: Option<Mat<E>>,
    /// Recorded forward cross-rank scan matrices.
    fwd_trace: ScanTrace<E>,
    /// Recorded backward cross-rank scan matrices.
    bwd_trace: ScanTrace<E>,
    /// Worst boundary-extraction condition estimate across ranks.
    boundary_cond: f64,
    /// Rank-owned buffer pool (see [`crate::state::ArdRankFactors`]).
    ws: RefCell<Workspace<E>>,
}

/// `out = a * b` for square factors, charging the cost model.
fn matmul_sq<C: CommBackend, E: Element>(comm: &mut C, a: &Mat<E>, b: &Mat<E>) -> Mat<E> {
    let m = a.rows();
    let mut p = Mat::zeros(m, m);
    gemm(E::ONE, a, Trans::No, b, Trans::No, E::ZERO, &mut p);
    comm.compute(gemm_flops(m, m, m));
    p
}

/// `base^t * acc` by repeated squaring: `O(log t)` square-matrix
/// products. Powers of one matrix commute, so left-application order is
/// immaterial.
fn pow_mul_left<C: CommBackend, E: Element>(
    comm: &mut C,
    base: &Mat<E>,
    mut t: usize,
    acc: Mat<E>,
) -> Mat<E> {
    let mut result = acc;
    let mut sq = base.clone();
    while t > 0 {
        if t & 1 == 1 {
            result = matmul_sq(comm, &sq, &result);
        }
        t >>= 1;
        if t > 0 {
            sq = matmul_sq(comm, &sq, &sq);
        }
    }
    result
}

/// `acc * base^t`, the right-sided mirror of [`pow_mul_left`].
fn pow_mul_right<C: CommBackend, E: Element>(
    comm: &mut C,
    acc: Mat<E>,
    base: &Mat<E>,
    mut t: usize,
) -> Mat<E> {
    let mut result = acc;
    let mut sq = base.clone();
    while t > 0 {
        if t & 1 == 1 {
            result = matmul_sq(comm, &result, &sq);
        }
        t >>= 1;
        if t > 0 {
            sq = matmul_sq(comm, &sq, &sq);
        }
    }
    result
}

impl<E: Element> ToeplitzRankFactors<E> {
    /// Runs the structure-exploiting setup. Collective; every rank must
    /// call it together, and the global system **must** satisfy
    /// [`detect_toeplitz`] — callers gate on detection, this only
    /// debug-checks the owned slice.
    ///
    /// # Errors
    ///
    /// [`FactorError`] (agreed on every rank) if a block diagonal or the
    /// interior superdiagonal is singular.
    pub fn setup<C: CommBackend>(comm: &mut C, sys: &RankSystem) -> Result<Self, FactorError> {
        let m = sys.m;
        let nl = sys.local_len();
        debug_assert!(
            (1..nl).all(|k| {
                let interior = sys.lo + k < sys.n - 1;
                sys.rows[k].b.as_slice() == sys.rows[0].b.as_slice()
                    && (!interior || sys.rows[k].c.as_slice() == sys.row0.c.as_slice())
            }),
            "ToeplitzRankFactors::setup on a non-Toeplitz slice"
        );

        // ---- Phase 1a: local companion total = W^count. -----------------
        // Every row this rank contributes is interior, so all companion
        // matrices equal the W of the first contributed row; repeated
        // squaring replaces the general path's count applications.
        let mut pending_err: Option<FactorError> = None;
        let mut total = CompanionProduct::identity(m);
        let mut ws_p1: Workspace = Workspace::new();
        let span_companion = bt_obs::span("solver", "phase1.toeplitz_power");
        if comm.rank() + 1 < comm.size() {
            let start = sys.lo.max(1);
            let count = sys.hi - start;
            if count > 0 {
                match CompanionW::from_row(&sys.rows[start - sys.lo]) {
                    Ok(w) => {
                        comm.compute(CompanionW::build_flops(m));
                        let mut base = CompanionProduct::identity(m);
                        base.apply_left_ws(&w, &mut ws_p1);
                        comm.compute(CompanionProduct::apply_left_flops(m));
                        let mut t = count;
                        let mut sq = base;
                        while t > 0 {
                            if t & 1 == 1 {
                                total = total.compose_after(&sq);
                                comm.compute(CompanionProduct::compose_flops(m));
                            }
                            t >>= 1;
                            if t > 0 {
                                sq = sq.compose_after(&sq);
                                comm.compute(CompanionProduct::compose_flops(m));
                            }
                        }
                    }
                    Err(source) => {
                        pending_err = Some(FactorError { row: start, source });
                        total = CompanionProduct::identity(m);
                    }
                }
            }
        }
        drop(span_companion);

        // ---- Phase 1b: cross-rank exclusive scan (unchanged). -----------
        let excl = {
            let _span = bt_obs::span("solver", "phase1.exscan");
            companion_exscan(comm, tags::PHASE1, total)
        };

        // ---- Phase 1c/1d: boundary + head/tail recurrence. --------------
        let span_factor = bt_obs::span("solver", "phase1.toeplitz_factor");
        let local = match pending_err {
            Some(e) => Err(e),
            None => Self::local_factor_pass(comm, sys, excl.as_ref(), &mut ws_p1),
        };
        drop(span_factor);

        // Coordinated error check, exactly like the general path: ranks
        // agree before the next collective so nobody deadlocks in a scan.
        let my_err: u64 = match &local {
            Ok(_) => u64::MAX,
            Err(e) => e.row as u64,
        };
        let first_err = comm.allreduce(my_err, |a, b| (*a).min(*b));
        if first_err != u64::MAX {
            return Err(match local {
                Err(e) if e.row as u64 == first_err => e,
                _ => FactorError {
                    row: first_err as usize,
                    source: bt_dense::SingularError {
                        step: 0,
                        pivot: 0.0,
                    },
                },
            });
        }
        let (head_d_inv, head_f, head_g, tail_d_inv, tail_f, tail_g, my_cond) =
            local.expect("checked above");
        let boundary_cond = comm.allreduce(
            if my_cond.is_finite() {
                my_cond
            } else {
                f64::MAX
            },
            |a, b| a.max(*b),
        );

        // ---- Scan totals from head products and tail powers. ------------
        // Forward total F_{hi-1} ... F_lo: head factors occupy the low
        // local indices, so the total is tail^t applied left of the head
        // product (new factors multiply on the LEFT as the index grows).
        let span_totals = bt_obs::span("solver", "setup.toeplitz_totals");
        let head_len = head_d_inv.len();
        let t = nl - head_len;
        let fwd_total = {
            let mut acc = if head_len == 0 {
                Mat::identity(m)
            } else {
                head_f[0].clone()
            };
            for fk in head_f.iter().skip(1) {
                acc = matmul_sq(comm, fk, &acc);
            }
            pow_mul_left(comm, &tail_f, t, acc)
        };
        // Backward total G_lo ... G_{hi-1}: on the last rank the final
        // factor G_{N-1} is zero, so the whole product is zero.
        let bwd_total = if sys.hi == sys.n {
            Mat::zeros(m, m)
        } else {
            let mut acc = if head_len == 0 {
                Mat::identity(m)
            } else {
                head_g[0].clone()
            };
            for gk in head_g.iter().skip(1) {
                acc = matmul_sq(comm, &acc, gk);
            }
            pow_mul_right(comm, acc, &tail_g, t)
        };
        drop(span_totals);

        // ---- Record the cross-rank scan traces (wire-identical to the
        // general path: zero-width vectors, same tags). -------------------
        let mut fwd_trace: ScanTrace<E> = ScanTrace::default();
        let mut bwd_trace: ScanTrace<E> = ScanTrace::default();
        {
            let _span = bt_obs::span("solver", "setup.record_scans");
            let _ = affine_exscan_fresh(
                comm,
                Direction::Forward,
                tags::FWD_SETUP,
                AffinePair {
                    mat: fwd_total,
                    vec: Mat::zero_width(m),
                },
                Some(&mut fwd_trace),
            );
            let _ = affine_exscan_fresh(
                comm,
                Direction::Backward,
                tags::BWD_SETUP,
                AffinePair {
                    mat: bwd_total,
                    vec: Mat::zero_width(m),
                },
                Some(&mut bwd_trace),
            );
        }

        Ok(Self {
            n: sys.n,
            m,
            lo: sys.lo,
            hi: sys.hi,
            head_d_inv,
            head_f,
            head_g,
            tail_d_inv,
            tail_f,
            tail_g,
            g_zero: (sys.hi == sys.n).then(|| Mat::zeros(m, m)),
            fwd_trace,
            bwd_trace,
            boundary_cond,
            ws: RefCell::new(Workspace::new()),
        })
    }

    /// Boundary recovery (identical to the general exact scan) followed
    /// by the diagonal recurrence with stationarity detection: rows are
    /// stored per-row until consecutive diagonals agree to
    /// [`HEAD_TOL_ULPS`], after which one shared tail triple is built
    /// and the loop exits.
    #[allow(clippy::type_complexity)]
    fn local_factor_pass<C: CommBackend>(
        comm: &mut C,
        sys: &RankSystem,
        excl: Option<&CompanionProduct>,
        ws: &mut Workspace,
    ) -> Result<
        (
            Vec<Mat<E>>,
            Vec<Mat<E>>,
            Vec<Mat<E>>,
            Mat<E>,
            Mat<E>,
            Mat<E>,
            f64,
        ),
        FactorError,
    > {
        let m = sys.m;
        let nl = sys.local_len();
        let tol = HEAD_TOL_ULPS * E::EPSILON.to_f64();
        let mut boundary_cond = 1.0f64;

        let boundary_diag = if sys.lo == 0 {
            sys.rows[0].b.clone()
        } else {
            let mut state = CompanionState::initial(&sys.row0)
                .map_err(|source| FactorError { row: 0, source })?;
            comm.compute(CompanionState::initial_flops(m));
            if let Some(g_excl) = excl {
                state.apply_product_ws(g_excl, ws);
                comm.compute(CompanionState::apply_product_flops(m));
            }
            boundary_cond = bt_dense::cond_1(&state.v);
            let d = state
                .extract_diag(&sys.c_prev)
                .map_err(|source| FactorError {
                    row: sys.lo - 1,
                    source,
                })?;
            comm.compute(CompanionState::extract_flops(m));
            d
        };
        let boundary_diag: Mat<E> = boundary_diag.convert::<E>();
        // The interior blocks at factor precision, converted once — the
        // general path converts them per row.
        let a_tpl: Mat<E> = if sys.lo == 0 {
            if nl > 1 {
                sys.rows[1].a.convert::<E>()
            } else {
                Mat::zeros(m, m)
            }
        } else {
            sys.rows[0].a.convert::<E>()
        };
        let c_tpl: Mat<E> = sys.row0.c.convert::<E>();

        let mut head_d_inv: Vec<Mat<E>> = Vec::new();
        let mut head_f: Vec<Mat<E>> = Vec::new();
        // `D^{-1}` of the row before the first one the loop handles, and
        // the diagonal the stationarity test compares against: the
        // boundary diagonal continues the same recurrence, so on
        // non-first ranks row `lo` can converge immediately (it usually
        // does — convergence happened inside rank 0's head).
        let mut prev_inv = invert_block(comm, &boundary_diag, sys.lo.saturating_sub(1))?;
        let mut prev_d = boundary_diag;
        let start_k = if sys.lo == 0 {
            head_d_inv.push(prev_inv.clone());
            head_f.push(Mat::zeros(m, m)); // F_0 = 0
            1
        } else {
            0
        };

        for k in start_k..nl {
            let i = sys.lo + k;
            // F_i = -A D_{i-1}^{-1}; D_i = B + F_i C.
            let f_i = neg_mul(comm, &a_tpl, &prev_inv);
            let mut d_i = sys.rows[k].b.convert::<E>();
            gemm(E::ONE, &f_i, Trans::No, &c_tpl, Trans::No, E::ONE, &mut d_i);
            comm.compute(gemm_flops(m, m, m));
            let inv = invert_block(comm, &d_i, i)?;
            if d_i.sub(&prev_d).max_abs() <= tol * d_i.max_abs() {
                // Stationary: row k (and everything after) uses the
                // shared tail.
                let tail_f = neg_mul(comm, &a_tpl, &inv);
                let tail_g = neg_mul(comm, &inv, &c_tpl);
                let head_g = Self::head_g_pass(comm, sys, &head_d_inv);
                return Ok((
                    head_d_inv,
                    head_f,
                    head_g,
                    inv,
                    tail_f,
                    tail_g,
                    boundary_cond,
                ));
            }
            head_d_inv.push(inv.clone());
            head_f.push(f_i);
            prev_d = d_i;
            prev_inv = inv;
        }
        // Never went stationary (short slice or weak dominance): the
        // whole slice is head, and the tail triple — built from the last
        // diagonal, exponent zero in every power — is dead weight kept
        // for struct uniformity.
        let tail_f = neg_mul(comm, &a_tpl, &prev_inv);
        let tail_g = neg_mul(comm, &prev_inv, &c_tpl);
        let head_g = Self::head_g_pass(comm, sys, &head_d_inv);
        Ok((
            head_d_inv,
            head_f,
            head_g,
            prev_inv,
            tail_f,
            tail_g,
            boundary_cond,
        ))
    }

    /// `G_i = -D_i^{-1} C_i` for the head rows, from each row's actual
    /// superdiagonal (so the last global row's zero `C` yields `G = 0`
    /// automatically when it lands in the head).
    fn head_g_pass<C: CommBackend>(
        comm: &mut C,
        sys: &RankSystem,
        head_d_inv: &[Mat<E>],
    ) -> Vec<Mat<E>> {
        head_d_inv
            .iter()
            .zip(&sys.rows)
            .map(|(inv, row)| neg_mul(comm, inv, &row.c.convert::<E>()))
            .collect()
    }

    /// Number of owned rows.
    pub fn local_len(&self) -> usize {
        self.hi - self.lo
    }

    /// Rows stored per-row before the recurrence went stationary.
    pub fn head_len(&self) -> usize {
        self.head_d_inv.len()
    }

    /// Worst boundary-extraction condition estimate across ranks (see
    /// [`crate::state::ArdRankFactors::boundary_condition`]).
    pub fn boundary_condition(&self) -> f64 {
        self.boundary_cond
    }

    /// Cumulative solve-workspace counters (see
    /// [`crate::state::ArdRankFactors::workspace_stats`]).
    pub fn workspace_stats(&self) -> bt_dense::WorkspaceStats {
        self.ws.borrow().stats()
    }
}

impl<E: Element> ReplayFactors<E> for ToeplitzRankFactors<E> {
    fn order(&self) -> usize {
        self.m
    }

    fn rows(&self) -> usize {
        self.local_len()
    }

    fn f_at(&self, k: usize) -> &Mat<E> {
        self.head_f.get(k).unwrap_or(&self.tail_f)
    }

    /// Zero at the last global row.
    fn g_at(&self, k: usize) -> &Mat<E> {
        if self.lo + k == self.n - 1 {
            self.g_zero.as_ref().expect("last rank stores g_zero")
        } else {
            self.head_g.get(k).unwrap_or(&self.tail_g)
        }
    }

    fn d_inv_at(&self, k: usize) -> &Mat<E> {
        self.head_d_inv.get(k).unwrap_or(&self.tail_d_inv)
    }

    fn traces(&self) -> (&ScanTrace<E>, &ScanTrace<E>) {
        (&self.fwd_trace, &self.bwd_trace)
    }
}

/// The general path's lean replay body over the head/tail factor lookup.
impl<E: Element> RankSolver<E> for ToeplitzRankFactors<E> {
    fn solve<C: CommBackend>(&self, comm: &mut C, panels: &mut [Mat<E>], tile: Option<usize>) {
        let r = self.check_panels(panels);
        let tile = tile.unwrap_or_else(|| auto_rhs_tile_for::<E>(&comm.model(), self.m, r));
        lean_replay_in_place(self, comm, panels, &mut self.ws.borrow_mut(), tile);
    }

    /// `3 * head + 3` matrices plus the recorded scan traces — versus
    /// the general path's `5 * N/P` matrices.
    fn storage_bytes(&self) -> u64 {
        let mat_bytes = (self.m * self.m * std::mem::size_of::<E>()) as u64;
        (3 * self.head_len() as u64 + 3) * mat_bytes
            + self.fwd_trace.storage_bytes()
            + self.bwd_trace.storage_bytes()
    }

    fn trim_workspace(&self, max_pooled_bytes: u64) -> u64 {
        self.ws.borrow_mut().trim_to(max_pooled_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ArdSession;
    use bt_blocktri::gen::{materialize, random_rhs, BlockToeplitz, ClusteredToeplitz, Poisson2D};
    use bt_comm::CostModel;

    const ZERO: CostModel = CostModel {
        latency_s: 0.0,
        per_byte_s: 0.0,
        flop_rate: f64::INFINITY,
        threads_per_rank: 1,
    };

    #[test]
    fn detection_accepts_constant_blocks_only() {
        assert!(detect_toeplitz(&BlockToeplitz::dominant(64, 4, 2.5, 7)));
        // The clustered generator perturbs the template once, then
        // repeats it every row — constant blocks, hence Toeplitz. Same
        // for the Poisson operator on a uniform grid.
        assert!(detect_toeplitz(&ClusteredToeplitz::standard(64, 4, 7)));
        assert!(detect_toeplitz(&Poisson2D::new(64, 4)));
        // Per-row random systems are not.
        assert!(!detect_toeplitz(&bt_blocktri::gen::RandomDominant::new(
            64, 4, 1.5, 7
        )));
        // Below the minimum size the fast path is pointless.
        assert!(!detect_toeplitz(&BlockToeplitz::dominant(3, 4, 2.5, 7)));
    }

    #[test]
    fn toeplitz_session_matches_general_path() {
        let src = ClusteredToeplitz::standard(96, 4, 3);
        assert!(detect_toeplitz(&src));
        let t = materialize(&src);
        let fast = ArdSession::create_toeplitz(4, ZERO, &src).unwrap();
        let general = ArdSession::create(4, ZERO, &src).unwrap();
        for seed in 0..3 {
            let y = random_rhs(96, 4, 3, seed);
            let xf = fast.solve(&y).unwrap();
            let xg = general.solve(&y).unwrap();
            assert!(t.rel_residual(&xf, &y) < 1e-11, "seed {seed}");
            assert!(
                xf.rel_diff(&xg) < 1e-10,
                "seed {seed}: {}",
                xf.rel_diff(&xg)
            );
        }
    }

    #[test]
    fn factor_memory_collapses_on_long_slices() {
        // n/p = 128 rows per rank: the head is a few dozen rows, so the
        // Toeplitz store must be several times smaller.
        let src = ClusteredToeplitz::standard(512, 4, 1);
        let fast = ArdSession::create_toeplitz(4, ZERO, &src).unwrap();
        let general = ArdSession::create(4, ZERO, &src).unwrap();
        let reduction = general.factor_bytes() as f64 / fast.factor_bytes() as f64;
        assert!(
            reduction >= 3.0,
            "memory reduction {reduction:.2}x (fast {} vs general {})",
            fast.factor_bytes(),
            general.factor_bytes()
        );
    }

    #[test]
    fn weak_dominance_still_solves() {
        // d just above the dominance floor contracts at ~0.64/row, so
        // 16-row slices never go stationary; correctness must not depend
        // on the head terminating early.
        let src = ClusteredToeplitz::new(64, 6, 2.1, 0.01, 9);
        let t = materialize(&src);
        let session = ArdSession::create_toeplitz(4, ZERO, &src).unwrap();
        let y = random_rhs(64, 6, 2, 4);
        let x = session.solve(&y).unwrap();
        assert!(t.rel_residual(&x, &y) < 1e-10);
    }

    #[test]
    fn single_rank_world_works() {
        let src = ClusteredToeplitz::standard(32, 4, 5);
        let t = materialize(&src);
        let session = ArdSession::create_toeplitz(1, ZERO, &src).unwrap();
        let y = random_rhs(32, 4, 2, 1);
        let x = session.solve(&y).unwrap();
        assert!(t.rel_residual(&x, &y) < 1e-11);
    }

    #[test]
    fn refined_replay_reaches_machine_precision() {
        let src = ClusteredToeplitz::standard(80, 4, 2);
        let t = materialize(&src);
        let y = random_rhs(80, 4, 2, 6);
        let session = ArdSession::create_toeplitz(4, ZERO, &src).unwrap();
        let (x, history) = session.solve_refined(&y, 4, 1e-14).unwrap();
        assert!(t.rel_residual(&x, &y) < 1e-13, "history {history:?}");
        assert!(!history.is_empty());
    }
}
