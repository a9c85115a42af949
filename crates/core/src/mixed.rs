//! Mixed-precision solve path: `f32` factorization and replay wrapped
//! in `f64` iterative refinement.
//!
//! The replay solve is bandwidth- and GEMM-bound in `O(M^2 R)` per row,
//! so halving the element width roughly doubles both the effective SIMD
//! width (16-lane AVX2 `f32` FMA tiles vs 8-lane `f64`) and the wire
//! budget (scan panels ship as `M x R x 4` bytes). The accuracy lost to
//! `f32` factors is restored by the standard refinement iteration
//! `x <- x + F^{-1}(y - T x)` evaluated in `f64`: each sweep contracts
//! the error by `O(eps_f32 * kappa)`, so a couple of sweeps reach the
//! same final residual as the pure-`f64` replay whenever
//! `kappa << 1/eps_f32`.
//!
//! That proviso is the **gray zone** gate: when the Phase 1 boundary
//! extraction reports a condition estimate above
//! [`MIXED_COND_MAX`] — or the `f32` factorization itself breaks down
//! on a diagonal that is singular at half precision — refinement can no
//! longer be trusted to contract and [`MixedRankFactors::setup_with`]
//! falls back to the pure-`f64` factors. A second, purely
//! performance-motivated gate ([`MIXED_SUBNORMAL_FRAC_MAX`]) falls
//! back when too many stored `f32` factor elements are subnormal:
//! strongly dominant systems push the decaying scan-factor tails into
//! the gradual-underflow range, where x86 arithmetic runs under
//! microcode assists and the half-width replay becomes *slower* than
//! full width. Both fallbacks are recorded on the flight recorder
//! (`precision.fallback`) and counted in `bt_ard.precision.fallbacks`
//! (the subnormal subset also in
//! `bt_ard.precision.subnormal_fallbacks`), so serving dashboards can
//! see when a workload stops benefiting from the half-width path.

use bt_blocktri::FactorError;
use bt_comm::CommBackend;
use bt_dense::Mat;

use crate::refine::{halo_exchange_into, local_residual_into, sq_norm, RefinedSolve, REFINE_ITERS};
use crate::state::{ArdRankFactors, BoundaryMode, RankSystem};

/// Gray-zone gate for the `f32` factorization: above this boundary
/// condition estimate, `eps_f32 * kappa` approaches 1 and the
/// refinement iteration is no longer a reliable contraction
/// (`eps_f32 ~ 1.2e-7`, so 1e6 leaves an order of magnitude of
/// contraction headroom per sweep).
pub const MIXED_COND_MAX: f64 = 1e6;

/// Times the mixed path fell back to pure `f64` (gray zone or `f32`
/// breakdown). Unconditional, like the service counters.
static FALLBACKS: bt_obs::Counter = bt_obs::Counter::new("bt_ard.precision.fallbacks");

/// Subset of [`struct@FALLBACKS`] caused by subnormal flush of the `f32`
/// factors (see [`MIXED_SUBNORMAL_FRAC_MAX`]).
static SUBNORMAL_FALLBACKS: bt_obs::Counter =
    bt_obs::Counter::new("bt_ard.precision.subnormal_fallbacks");

/// Fallback gate on the fraction of stored `f32` factor elements that
/// are subnormal. Strong diagonal dominance makes the prefix and trace
/// entries decay geometrically (`~lambda^-k` for the per-row decay
/// rate), and at `f32` the tail of that decay slides below `2^-126`
/// into the subnormal range — where x86 FMA takes a microcode assist
/// per touched element, roughly two orders of magnitude slower than
/// the normal-range pipeline. Replays stream every factor panel per
/// sweep, so a few percent of subnormal elements is enough to erase
/// the half-width speedup entirely (`clustered-d8` in `BENCH_mixed`
/// measured 0.8-1.2x *slowdowns* at a 3.7% census while its boundary
/// condition estimate — the accuracy gate — sat at a blameless 1.2).
/// The same panels at `f64` are comfortably normal (`2^-1022` is far
/// away), so falling back restores full-rate arithmetic. Calibration
/// on the `BENCH_mixed` cells: penalized `d=8` censuses 3.7%, healthy
/// `d=4` (1.65x speedup) censuses 1.4% — the gate sits between them.
pub const MIXED_SUBNORMAL_FRAC_MAX: f64 = 0.02;

/// Default refinement sweep cap for mixed solves when the caller does
/// not ask for refinement explicitly. Inside the gray-zone gate each
/// sweep contracts by `eps_f32 * kappa <= 1.2e-1`, so two sweeps
/// already land at `f64` replay accuracy; four leaves slack for
/// unlucky right-hand sides without ever costing more than a fraction
/// of the half-width savings (the tolerance check exits early).
pub const MIXED_DEFAULT_SWEEPS: usize = 4;

/// Default relative-residual target paired with
/// [`MIXED_DEFAULT_SWEEPS`] — the pure-`f64` replay's typical landing
/// zone, so mixed answers are indistinguishable from classic ones.
pub const MIXED_DEFAULT_TOL: f64 = 1e-12;

/// Which element type a [`MixedRankFactors`] ended up factoring at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Half-width factors + refinement (the fast path).
    F32,
    /// Full-width factors (the safe path / gray-zone fallback).
    F64,
}

impl Precision {
    /// Stable lowercase name (`"f32"` / `"f64"`), used in cache keys,
    /// flight events and bench records.
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F64 => "f64",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

enum Inner {
    F32(ArdRankFactors<f32>),
    F64(ArdRankFactors<f64>),
}

/// Precision-adaptive rank factors: `f32` factorization with `f64`
/// refinement when the conditioning allows it, transparent pure-`f64`
/// factors when it does not.
pub struct MixedRankFactors {
    inner: Inner,
    fell_back: bool,
}

impl MixedRankFactors {
    /// [`MixedRankFactors::setup_with`] with [`BoundaryMode::ExactScan`].
    pub fn setup<C: CommBackend>(comm: &mut C, sys: &RankSystem) -> Result<Self, FactorError> {
        Self::setup_with(comm, sys, BoundaryMode::ExactScan)
    }

    /// Attempts the `f32` factorization, falling back to `f64` when the
    /// gray-zone gate trips. Collective; the fallback decision is
    /// derived from allreduced quantities (the boundary condition
    /// estimate and the coordinated factorization error), so every rank
    /// takes the same branch without extra communication.
    ///
    /// # Errors
    ///
    /// [`FactorError`] (on every rank) if even the `f64` factorization
    /// breaks down.
    pub fn setup_with<C: CommBackend>(
        comm: &mut C,
        sys: &RankSystem,
        mode: BoundaryMode,
    ) -> Result<Self, FactorError> {
        let mut subnormal = false;
        let reason = match ArdRankFactors::<f32>::setup_with(comm, sys, true, mode) {
            Ok(factors) if factors.boundary_condition() <= MIXED_COND_MAX => {
                // Conditioning is fine; check for gradual-underflow
                // flush of the stored factors. Collective: the census
                // is summed across ranks so every rank takes the same
                // branch.
                let (sub, total) = factors.subnormal_census();
                let (sub, total) = comm.allreduce((sub, total), |a, b| (a.0 + b.0, a.1 + b.1));
                let frac = sub as f64 / (total.max(1)) as f64;
                if frac <= MIXED_SUBNORMAL_FRAC_MAX {
                    return Ok(Self {
                        inner: Inner::F32(factors),
                        fell_back: false,
                    });
                }
                subnormal = true;
                format!(
                    "{{\"reason\":\"subnormal_flush\",\"frac\":{frac:e},\"gate\":{MIXED_SUBNORMAL_FRAC_MAX:e}}}"
                )
            }
            Ok(factors) => format!(
                "{{\"reason\":\"gray_zone\",\"boundary_cond\":{:e},\"gate\":{MIXED_COND_MAX:e}}}",
                factors.boundary_condition()
            ),
            Err(e) => format!("{{\"reason\":\"f32_breakdown\",\"row\":{}}}", e.row),
        };
        if comm.rank() == 0 {
            FALLBACKS.incr();
            if subnormal {
                SUBNORMAL_FALLBACKS.incr();
            }
            bt_obs::flight::record("precision.fallback", 0, 0, 0, reason);
        }
        let factors = ArdRankFactors::<f64>::setup_with(comm, sys, true, mode)?;
        Ok(Self {
            inner: Inner::F64(factors),
            fell_back: true,
        })
    }

    /// The element type this instance factors and replays at.
    pub fn precision(&self) -> Precision {
        match self.inner {
            Inner::F32(_) => Precision::F32,
            Inner::F64(_) => Precision::F64,
        }
    }

    /// True when setup wanted `f32` but the gray-zone gate (or an `f32`
    /// breakdown) forced the `f64` path.
    pub fn fell_back(&self) -> bool {
        self.fell_back
    }

    /// Worst boundary-extraction condition estimate across ranks (see
    /// [`ArdRankFactors::boundary_condition`]).
    pub fn boundary_condition(&self) -> f64 {
        match &self.inner {
            Inner::F32(f) => f.boundary_condition(),
            Inner::F64(f) => f.boundary_condition(),
        }
    }

    /// Bytes of stored factor state — half the `f64` figure on the
    /// `f32` path (modulo the fixed-size trace bookkeeping).
    pub fn storage_bytes(&self) -> u64 {
        match &self.inner {
            Inner::F32(f) => f.storage_bytes(),
            Inner::F64(f) => f.storage_bytes(),
        }
    }

    /// Releases pooled solve-workspace buffers beyond `max_pooled_bytes`
    /// (see [`ArdRankFactors::trim_workspace`]); returns bytes freed.
    pub fn trim_workspace(&self, max_pooled_bytes: u64) -> u64 {
        match &self.inner {
            Inner::F32(f) => f.trim_workspace(max_pooled_bytes),
            Inner::F64(f) => f.trim_workspace(max_pooled_bytes),
        }
    }

    /// Refined replay solve at the selected precision: on the `f32`
    /// path the initial solve and every correction replay run at half
    /// width (converting `M x R` panels at the boundary), while
    /// residuals and the solution accumulate in `f64`; on the fallback
    /// path this is exactly [`ArdRankFactors::solve_replay_refined`].
    /// Collective. `y_local` panels are `f64` either way.
    pub fn solve_refined<C: CommBackend>(
        &self,
        comm: &mut C,
        sys: &RankSystem,
        y_local: &[Mat],
        max_sweeps: usize,
        tol: f64,
    ) -> RefinedSolve {
        match &self.inner {
            Inner::F64(f) => f.solve_replay_refined(comm, sys, y_local, max_sweeps, tol),
            Inner::F32(f) => solve_refined_f32(f, comm, sys, y_local, max_sweeps, tol),
        }
    }
}

/// The `f32` leg of [`MixedRankFactors::solve_refined`]: structure of
/// [`ArdRankFactors::solve_replay_refined`], with every replay running
/// at `f32` behind panel conversions.
fn solve_refined_f32<C: CommBackend>(
    factors: &ArdRankFactors<f32>,
    comm: &mut C,
    sys: &RankSystem,
    y_local: &[Mat],
    max_sweeps: usize,
    tol: f64,
) -> RefinedSolve {
    let nl = y_local.len();
    let (m, r) = y_local[0].shape();

    // Initial solve at f32, in place on the converted right-hand side;
    // `lo32` then carries each correction in place.
    let mut lo32 = factors.solve_replay(comm, y_local.iter().map(|p| p.convert::<f32>()).collect());
    let mut x: Vec<Mat> = lo32.iter().map(|p| p.convert::<f64>()).collect();

    let y_norm2 = comm
        .allreduce(sq_norm(y_local), |a, b| a + b)
        .max(f64::MIN_POSITIVE);

    // Reused sweep buffers: f64 residual panels and the halo panels.
    // Warm sweeps allocate only inside the conversions' fixed buffers.
    let mut res: Vec<Mat> = (0..nl).map(|_| Mat::zeros(m, r)).collect();
    let mut halo_l = Mat::zeros(m, r);
    let mut halo_r = Mat::zeros(m, r);
    let mut history = Vec::with_capacity(max_sweeps + 1);

    let mut residual = |comm: &mut C, x: &[Mat], res: &mut [Mat]| -> f64 {
        halo_exchange_into(
            comm,
            x[0].as_ref(),
            x[nl - 1].as_ref(),
            halo_l.as_mut(),
            halo_r.as_mut(),
        );
        local_residual_into(
            comm,
            sys,
            x,
            (halo_l.as_ref(), halo_r.as_ref()),
            y_local,
            res,
        );
        (comm.allreduce(sq_norm(res), |a, b| a + b) / y_norm2).sqrt()
    };

    let mut rel = residual(comm, &x, &mut res);
    history.push(rel);

    for sweep in 0..max_sweeps {
        if rel <= tol {
            break;
        }
        let _span = bt_obs::span_with("solver", "refine.sweep", || {
            format!("{{\"sweep\":{sweep},\"rel_residual\":{rel:e},\"precision\":\"f32\"}}")
        });
        // Correction at f32: dx = F^{-1} res.
        for (dst, src) in lo32.iter_mut().zip(&res) {
            src.convert_into(dst);
        }
        lo32 = factors.solve_replay(comm, lo32);
        for (xk, dk) in x.iter_mut().zip(&lo32) {
            xk.add_assign_converted(dk);
        }
        let new_rel = residual(comm, &x, &mut res);
        if !new_rel.is_finite() || new_rel >= rel {
            // Diverging or stagnant: undo the last correction and stop.
            for (xk, dk) in x.iter_mut().zip(&lo32) {
                xk.sub_assign_converted(dk);
            }
            break;
        }
        rel = new_rel;
        history.push(rel);
    }
    REFINE_ITERS.record((history.len() - 1) as u64);
    RefinedSolve {
        x_local: x,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_blocktri::gen::{materialize, random_rhs, ClusteredToeplitz};
    use bt_blocktri::BlockRowSource;
    use bt_comm::CostModel;

    const ZERO: CostModel = CostModel {
        latency_s: 0.0,
        per_byte_s: 0.0,
        flop_rate: f64::INFINITY,
        threads_per_rank: 1,
    };

    /// Runs the mixed setup over a 4-rank world and returns one rank's
    /// `(precision, fell_back)` plus a solve-quality check.
    fn mixed_outcome(src: &ClusteredToeplitz) -> (Precision, bool) {
        let (n, m) = (src.n(), src.m());
        let part = bt_blocktri::RowPartition::new(n, 4);
        let t = materialize(src);
        let y = random_rhs(n, m, 2, 11);
        let out = bt_mpsim::run_spmd(4, ZERO, |comm| {
            let sys = RankSystem::from_source(src, 4, comm.rank());
            let factors = MixedRankFactors::setup(comm, &sys).unwrap();
            let y_local: Vec<Mat> = part
                .range(comm.rank())
                .map(|i| y.blocks[i].clone())
                .collect();
            let refined = factors.solve_refined(
                comm,
                &sys,
                &y_local,
                MIXED_DEFAULT_SWEEPS,
                MIXED_DEFAULT_TOL,
            );
            (sys.lo, factors.precision(), factors.fell_back(), refined)
        });
        let mut x = bt_blocktri::BlockVec::zeros(n, m, 2);
        let (mut precision, mut fell_back) = (Precision::F64, false);
        for (lo, prec, fb, refined) in out.results {
            for (k, panel) in refined.x_local.into_iter().enumerate() {
                x.blocks[lo + k] = panel;
            }
            precision = prec;
            fell_back = fb;
        }
        // Either path must land at f64-replay quality.
        assert!(t.rel_residual(&x, &y) < 1e-11);
        (precision, fell_back)
    }

    #[test]
    fn strong_dominance_subnormal_census_forces_f64() {
        // d = 8 drives the decaying prefix/trace tails into the f32
        // subnormal range (census ~3.7% > the 2% gate) — exactly the
        // BENCH_mixed clustered-d8 cells that measured f32 *slowdowns*.
        // The boundary condition estimate is ~1.2, so only the
        // subnormal gate can catch this.
        bt_obs::set_enabled(true);
        let before = SUBNORMAL_FALLBACKS.value();
        let src = ClusteredToeplitz::standard(256, 8, 5);
        let (precision, fell_back) = mixed_outcome(&src);
        assert_eq!(precision, Precision::F64);
        assert!(fell_back);
        assert!(
            SUBNORMAL_FALLBACKS.value() > before,
            "subnormal fallback counter must move"
        );
    }

    #[test]
    fn moderate_dominance_stays_f32() {
        // d = 2.5 keeps every stored factor in the f32 normal range
        // (census ~0.3%): the half-width path must survive the gate —
        // this is the BENCH_mixed headline cell.
        let src = ClusteredToeplitz::new(256, 8, 2.5, 1.0e-3 / 8.0, 1);
        let (precision, fell_back) = mixed_outcome(&src);
        assert_eq!(precision, Precision::F32);
        assert!(!fell_back);
    }
}
