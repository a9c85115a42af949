//! Persistent solve sessions: factor once, solve whenever.
//!
//! The drivers in [`crate::driver`] run setup and all solves inside one
//! SPMD world, which requires every right-hand side to be known up
//! front. Real applications (implicit time steppers, optimizers) produce
//! right-hand sides one at a time, often *computed from previous
//! solutions*. An [`ArdSession`] holds the per-rank factor state between
//! calls: `create` runs the collective setup once, and each
//! [`ArdSession::solve`] launches an SPMD world that reuses the stored
//! factors — `O(M^2 R (N/P + log P))` per call, no matrix work ever
//! again.
//!
//! It is the suite's one session type. The constructor picks the factor
//! kind — [`ArdSessionOn::create`] / [`ArdSessionOn::create_with`] (ARD,
//! either boundary mode), [`ArdSessionOn::create_mixed`] and
//! [`ArdSessionOn::create_toeplitz`] — and every solve runs through the
//! kind's [`RankSolver`] implementation and the one refinement loop
//! ([`crate::refine::solve_refined`]), so the solve path does not depend
//! on the kind.
//!
//! ## Concurrency semantics
//!
//! A session is `Sync`; any number of threads may call
//! [`ArdSession::solve`] concurrently. The per-rank factors exist in one
//! copy, so concurrent solves **queue**: each call checks the factors
//! out under a short lock (microseconds), runs the whole SPMD solve
//! *unlocked*, and returns them through an RAII lease that restores the
//! state — and wakes the next waiter — even if the solve panics. The
//! session's internal lock is therefore never held across a solve, and a
//! panicking solve can never leave the state empty: either every rank's
//! factors come back (the session stays usable) or a rank died holding
//! them, in which case the session enters a terminal *lost* state whose
//! subsequent solves panic with a descriptive message instead of
//! deadlocking. Callers wanting true solve parallelism should batch
//! right-hand sides into one wide panel (see [`crate::service`]) — that
//! is also the faster shape by the paper's `O(R)` amortization argument.
//!
//! ## World reuse
//!
//! By default each solve launches a fresh SPMD world (tens of
//! microseconds of thread spawn per rank). For high-call-rate use —
//! thousands of small replay solves per second through a
//! [`crate::service::SolverService`] — [`ArdSession::set_world_reuse`]
//! keeps a persistent [`bt_mpsim::SpmdWorld`] alive between calls, removing the
//! spawn cost from every solve. Results are identical either way.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

use bt_blocktri::{BlockRowSource, BlockVec, FactorError, RowPartition};
use bt_comm::{CommBackend, CostModel, PersistentWorld, SpmdBackend, SpmdOutput};
use bt_dense::Mat;
use bt_mpsim::SimBackend;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::mixed::{MixedRankFactors, Precision};
use crate::refine::solve_refined;
use crate::solver::RankSolver;
use crate::state::{ArdRankFactors, BoundaryMode, RankSystem};
use crate::toeplitz::ToeplitzRankFactors;

/// A rank's factors of any [`RankSolver`] kind behind one object-safe
/// interface on the session's communicator type `C`, so one session type
/// serves every kind without naming it.
trait SessionFactors<C>: Send {
    /// [`solve_refined`] at the cost model's tile.
    fn solve_dyn(
        &self,
        comm: &mut C,
        sys: &RankSystem,
        panels: &mut [Mat],
        refine: Option<(usize, f64)>,
    ) -> Vec<f64>;

    /// [`RankSolver::trim_workspace`].
    fn trim_dyn(&self, max_pooled_bytes: u64) -> u64;
}

impl<C: CommBackend, S: RankSolver + Send> SessionFactors<C> for S {
    fn solve_dyn(
        &self,
        comm: &mut C,
        sys: &RankSystem,
        panels: &mut [Mat],
        refine: Option<(usize, f64)>,
    ) -> Vec<f64> {
        solve_refined(self, comm, sys, panels, refine, None)
    }

    fn trim_dyn(&self, max_pooled_bytes: u64) -> u64 {
        self.trim_workspace(max_pooled_bytes)
    }
}

/// Per-rank state checked out by a solve: the rank's system slice and
/// its factors.
type RankState<C> = (RankSystem, Box<dyn SessionFactors<C>>);

/// The factor store a session guards.
enum FactorStore<C> {
    /// Factors at rest; a solve may check them out.
    Available(Vec<RankState<C>>),
    /// A solve is running with the factors.
    CheckedOut,
    /// A panicked solve took a rank's factors down with it; the session
    /// is permanently unusable (but callers get a message, not a hang).
    Lost,
}

/// A reusable accelerated-solver session.
///
/// # Examples
///
/// ```
/// use bt_ard::session::ArdSession;
/// use bt_blocktri::gen::{materialize, random_rhs, ClusteredToeplitz};
/// use bt_mpsim::CostModel;
///
/// let src = ClusteredToeplitz::standard(48, 4, 1);
/// let session = ArdSession::create(4, CostModel::cluster(), &src).unwrap();
///
/// // Right-hand sides arrive one at a time; each solve reuses the
/// // factors computed in `create`.
/// let t = materialize(&src);
/// let mut y = random_rhs(48, 4, 2, 9);
/// for _ in 0..3 {
///     let x = session.solve(&y).unwrap();
///     assert!(t.rel_residual(&x, &y) < 1e-10);
///     y = x; // feed the solution back in (a crude time stepper)
/// }
/// ```
pub struct ArdSessionOn<B: SpmdBackend> {
    p: usize,
    n: usize,
    m: usize,
    model: CostModel,
    part: RowPartition,
    /// Total stored factor bytes, captured at creation (so the getter
    /// never has to touch the factor lock).
    factor_bytes: u64,
    /// Element type the factors were stored at (identical on all ranks;
    /// `F64` for classic sessions, the gate's decision for mixed ones).
    precision: Precision,
    /// Per-rank factors, handed out to worlds on each solve and returned
    /// afterwards. Held only for checkout/restore — never across a solve.
    state: Mutex<FactorStore<B::Comm>>,
    /// Wakes solves queued behind a checked-out store.
    state_cv: Condvar,
    /// When world reuse is on, the persistent world (built lazily).
    world: Mutex<Option<B::World>>,
    world_reuse: AtomicBool,
}

/// The session on the default virtual-clock simulator backend — the
/// spelling almost all code uses; the generic [`ArdSessionOn`] exists
/// so the same factor-lease machinery can drive any [`SpmdBackend`]
/// (e.g. `bt_shm::ShmBackend` for wall-clock serving).
pub type ArdSession = ArdSessionOn<SimBackend>;

/// RAII checkout of a session's per-rank factors.
///
/// Holds the state as `Arc`'d per-rank slots so an SPMD world (possibly
/// a persistent one requiring `'static` jobs) can take and return each
/// rank's share. On drop — **including unwinds** — whatever came back is
/// restored to the session and waiters are notified; if any rank's
/// factors were destroyed mid-solve the store transitions to
/// [`FactorStore::Lost`] instead of silently shrinking.
struct FactorLease<'a, B: SpmdBackend> {
    session: &'a ArdSessionOn<B>,
    slots: Option<Arc<RankSlots<B::Comm>>>,
}

/// Per-rank slots a checked-out store travels in.
type RankSlots<C> = Vec<parking_lot::Mutex<Option<RankState<C>>>>;

impl<'a, B: SpmdBackend> FactorLease<'a, B> {
    /// Blocks until the factors are available, then checks them out.
    ///
    /// # Panics
    ///
    /// Panics if an earlier solve lost the factors.
    fn checkout(session: &'a ArdSessionOn<B>) -> Self {
        let mut guard = session
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            match &*guard {
                FactorStore::Available(_) => break,
                FactorStore::CheckedOut => {
                    guard = session
                        .state_cv
                        .wait(guard)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                FactorStore::Lost => panic!(
                    "ArdSession factors were lost by an earlier panicked solve; \
                     recreate the session"
                ),
            }
        }
        let state = match std::mem::replace(&mut *guard, FactorStore::CheckedOut) {
            FactorStore::Available(state) => state,
            _ => unreachable!("loop above exits only on Available"),
        };
        drop(guard);
        let slots: RankSlots<B::Comm> = state
            .into_iter()
            .map(|s| parking_lot::Mutex::new(Some(s)))
            .collect();
        Self {
            session,
            slots: Some(Arc::new(slots)),
        }
    }

    /// The per-rank slots, for handing to an SPMD world.
    fn slots(&self) -> &Arc<RankSlots<B::Comm>> {
        self.slots.as_ref().expect("slots present until drop")
    }
}

impl<B: SpmdBackend> Drop for FactorLease<'_, B> {
    fn drop(&mut self) {
        let slots = self.slots.take().expect("dropped once");
        // All world jobs have completed (run_spmd/SpmdWorld::run join all
        // ranks before returning, even when propagating a panic), so this
        // lease holds the only reference — unless a rank died between
        // taking its slot and restoring it, in which case its factors are
        // gone and the session is lost.
        let restored: Option<Vec<RankState<B::Comm>>> = Arc::try_unwrap(slots)
            .ok()
            .and_then(|v| v.into_iter().map(parking_lot::Mutex::into_inner).collect());
        let mut guard = self
            .session
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *guard = match restored {
            Some(state) if state.len() == self.session.p => FactorStore::Available(state),
            _ => FactorStore::Lost,
        };
        drop(guard);
        self.session.state_cv.notify_all();
    }
}

impl<B: SpmdBackend> ArdSessionOn<B> {
    /// Runs the collective setup on `p` ranks and captures the factors.
    ///
    /// # Errors
    ///
    /// [`FactorError`] if setup breaks down.
    ///
    /// # Panics
    ///
    /// Panics if `src.n() < p`.
    pub fn create<S: BlockRowSource + Sync>(
        p: usize,
        model: CostModel,
        src: &S,
    ) -> Result<Self, FactorError> {
        Self::create_with(p, model, BoundaryMode::ExactScan, src)
    }

    /// [`ArdSession::create`] with an explicit Phase 1 boundary mode.
    ///
    /// # Errors
    ///
    /// [`FactorError`] if setup breaks down.
    pub fn create_with<S: BlockRowSource + Sync>(
        p: usize,
        model: CostModel,
        boundary: BoundaryMode,
        src: &S,
    ) -> Result<Self, FactorError> {
        Self::create_impl(p, model, boundary, src, move |comm, sys| {
            ArdRankFactors::setup_with(comm, sys, true, boundary)
        })
    }

    /// [`ArdSession::create`] through the precision-adaptive mixed path:
    /// factors are stored in `f32` (half the bytes, half the replay wire
    /// volume, wide-SIMD kernels) when the gray-zone gate allows it, and
    /// transparently in `f64` when it does not (see [`crate::mixed`]).
    /// Every solve through a mixed session runs `f64` iterative
    /// refinement, so final residuals match the classic session's;
    /// [`ArdSessionOn::precision`] reports the gate's decision.
    ///
    /// # Errors
    ///
    /// [`FactorError`] if even the `f64` fallback factorization breaks
    /// down.
    ///
    /// # Panics
    ///
    /// Panics if `src.n() < p`.
    pub fn create_mixed<S: BlockRowSource + Sync>(
        p: usize,
        model: CostModel,
        src: &S,
    ) -> Result<Self, FactorError> {
        Self::create_impl(
            p,
            model,
            BoundaryMode::ExactScan,
            src,
            MixedRankFactors::setup,
        )
    }

    /// [`ArdSession::create`] through the constant-block Toeplitz fast
    /// path: per-row prefix panels are replaced by a short head plus one
    /// shared tail triple and the cross-rank scan runs over repeated
    /// squaring, so factor storage is `O(head + log)` instead of
    /// `O(N/P)` per rank (see [`crate::toeplitz`]). Solves replay
    /// through the same tiled pipeline as the general session. Only
    /// call this for sources that pass [`crate::detect_toeplitz`] —
    /// the setup debug-asserts constancy but does not re-verify it in
    /// release builds.
    ///
    /// # Errors
    ///
    /// [`FactorError`] if setup breaks down.
    ///
    /// # Panics
    ///
    /// Panics if `src.n() < p`.
    pub fn create_toeplitz<S: BlockRowSource + Sync>(
        p: usize,
        model: CostModel,
        src: &S,
    ) -> Result<Self, FactorError> {
        Self::create_impl(
            p,
            model,
            BoundaryMode::ExactScan,
            src,
            ToeplitzRankFactors::setup,
        )
    }

    fn create_impl<K, S, F>(
        p: usize,
        model: CostModel,
        boundary: BoundaryMode,
        src: &S,
        factor: F,
    ) -> Result<Self, FactorError>
    where
        K: RankSolver + Send + 'static,
        S: BlockRowSource + Sync,
        F: Fn(&mut B::Comm, &RankSystem) -> Result<K, FactorError> + Sync,
    {
        let n = src.n();
        let m = src.m();
        assert!(
            n >= p,
            "need at least one block row per rank (N={n}, P={p})"
        );
        let out = B::run(p, model, |comm| -> Result<(RankSystem, K), FactorError> {
            let sys = match boundary {
                BoundaryMode::ExactScan => RankSystem::from_source(src, p, comm.rank()),
                BoundaryMode::Windowed(w) => {
                    RankSystem::from_source_windowed(src, p, comm.rank(), w)
                }
            };
            let factors = factor(comm, &sys)?;
            Ok((sys, factors))
        });
        let state: Vec<(RankSystem, K)> = out.results.into_iter().collect::<Result<_, _>>()?;
        // The gray-zone gate's decision is derived from allreduced
        // quantities, so every rank agrees; rank 0 speaks for all.
        let precision = state[0].1.precision();
        let factor_bytes = state.iter().map(|(_, f)| f.storage_bytes()).sum();
        let state = state
            .into_iter()
            .map(|(sys, f)| (sys, Box::new(f) as Box<dyn SessionFactors<B::Comm>>))
            .collect();
        Ok(Self {
            p,
            n,
            m,
            model,
            part: RowPartition::new(n, p),
            factor_bytes,
            precision,
            state: Mutex::new(FactorStore::Available(state)),
            state_cv: Condvar::new(),
            world: Mutex::new(None),
            world_reuse: AtomicBool::new(false),
        })
    }

    /// World size.
    pub fn ranks(&self) -> usize {
        self.p
    }

    /// Number of block rows `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Block order `M`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The cost model solves run under.
    pub fn model(&self) -> CostModel {
        self.model
    }

    /// Total stored factor bytes across ranks (captured at creation).
    pub fn factor_bytes(&self) -> u64 {
        self.factor_bytes
    }

    /// Element type the stored factors use: [`Precision::F64`] for
    /// classic sessions, and for [`ArdSessionOn::create_mixed`] sessions
    /// the gray-zone gate's decision (`F32` fast path, or `F64` when the
    /// system's conditioning forced the fallback).
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Switches persistent-world reuse on or off. When on, solves run on
    /// a lazily built, long-lived [`bt_mpsim::SpmdWorld`] instead of spawning `P`
    /// threads per call; when switched off, any persistent world is torn
    /// down. Results are identical either way.
    pub fn set_world_reuse(&self, on: bool) {
        self.world_reuse.store(on, Ordering::Relaxed);
        if !on {
            *self
                .world
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
        }
    }

    /// Test hook: marks the factors as lost, exactly as if an earlier
    /// solve had panicked mid-flight with the factors checked out. The
    /// next solve panics loudly (see the module docs). Used by the
    /// service layer's panic-containment regression tests.
    #[doc(hidden)]
    pub fn lose_factors_for_test(&self) {
        *self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = FactorStore::Lost;
        self.state_cv.notify_all();
    }

    /// Trims each rank's pooled solve workspace to at most
    /// `per_rank_pooled_bytes` (largest buffers dropped first), returning
    /// the total bytes released. Waits for any in-flight solve, so the
    /// pool high-water mark of one oversized batch does not stay pinned
    /// for the life of the session. See [`bt_dense::Workspace::trim_to`].
    pub fn trim_workspaces(&self, per_rank_pooled_bytes: u64) -> u64 {
        let lease = FactorLease::checkout(self);
        let trimmed = lease
            .slots()
            .iter()
            .map(|slot| {
                slot.lock()
                    .as_ref()
                    .map_or(0, |(_, f)| f.trim_dyn(per_rank_pooled_bytes))
            })
            .sum();
        drop(lease);
        trimmed
    }

    /// Solves one right-hand-side batch with the stored factors.
    ///
    /// # Errors
    ///
    /// Never fails today (the factorization already succeeded); the
    /// `Result` is kept for API stability.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, or if an earlier panicked solve lost
    /// the factors (see the module docs on concurrency).
    pub fn solve(&self, y: &BlockVec) -> Result<BlockVec, FactorError> {
        Ok(self.solve_inner(y, None)?.0)
    }

    /// Solves with up to `max_sweeps` iterative-refinement sweeps
    /// (stopping at relative residual `tol`); returns the solution and
    /// the residual history. `max_sweeps == 0` asks for no refinement:
    /// the history is then empty, except on mixed sessions, which refine
    /// by default (see [`crate::refine::solve_refined`]).
    ///
    /// # Errors
    ///
    /// Never fails today; kept for API stability.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ArdSession::solve`].
    pub fn solve_refined(
        &self,
        y: &BlockVec,
        max_sweeps: usize,
        tol: f64,
    ) -> Result<(BlockVec, Vec<f64>), FactorError> {
        self.solve_inner(y, (max_sweeps > 0).then_some((max_sweeps, tol)))
    }

    fn solve_inner(
        &self,
        y: &BlockVec,
        refine: Option<(usize, f64)>,
    ) -> Result<(BlockVec, Vec<f64>), FactorError> {
        assert_eq!(y.n(), self.n, "rhs block count mismatch");
        assert_eq!(y.m(), self.m, "rhs block order mismatch");

        // Pre-slice the right-hand side per rank (the call's one copy of
        // `y`) so the job closure can be `'static` for a persistent world.
        // Each rank solves its slice in place and returns it as the
        // solution.
        let y_slices: Arc<Vec<parking_lot::Mutex<Option<Vec<Mat>>>>> = Arc::new(
            (0..self.p)
                .map(|rank| {
                    parking_lot::Mutex::new(Some(
                        self.part.range(rank).map(|i| y.blocks[i].clone()).collect(),
                    ))
                })
                .collect(),
        );

        // Short lock: factors leave the session here and come back when
        // `lease` drops — even if the solve below unwinds.
        let lease = FactorLease::checkout(self);
        let slots = Arc::clone(lease.slots());

        // The caller's trace context (e.g. the service dispatcher's
        // batch/request ids) does not cross thread spawns by itself;
        // carry it into each rank's closure so per-rank replay and scan
        // spans stay attributable to the requests they serve.
        let ctx = bt_obs::ctx::current();
        let job = move |comm: &mut B::Comm| {
            let _ctx_guard = ctx.clone().map(bt_obs::ctx::enter);
            let _span = bt_obs::span("session", "replay.solve");
            let (sys, factors) = slots[comm.rank()].lock().take().expect("state present");
            let mut panels: Vec<Mat> = y_slices[comm.rank()]
                .lock()
                .take()
                .expect("rhs slice present");
            let history = factors.solve_dyn(comm, &sys, &mut panels, refine);
            *slots[comm.rank()].lock() = Some((sys, factors));
            (panels, history)
        };

        let out = self.run_world(job);
        drop(lease); // factors restored; waiters wake

        // Ranks own consecutive row ranges in rank order, and each solved
        // its slice in place: the panels move into the result as they are.
        let mut blocks = Vec::with_capacity(self.n);
        let mut history = Vec::new();
        for (panels, h) in out.results {
            blocks.extend(panels);
            history = h;
        }
        Ok((BlockVec::from_blocks(blocks), history))
    }

    /// Runs `job` on the persistent world when reuse is on (rebuilding a
    /// dead one is pointless — a panic loses factors anyway), else on a
    /// fresh `run_spmd` world.
    fn run_world<T, F>(&self, job: F) -> SpmdOutput<T>
    where
        T: Send + 'static,
        F: Fn(&mut B::Comm) -> T + Send + Sync + 'static,
    {
        if self.world_reuse.load(Ordering::Relaxed) {
            let mut wg = self
                .world
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let world = wg.get_or_insert_with(|| B::world(self.p, self.model));
            let out = catch_unwind(AssertUnwindSafe(|| world.run(job)));
            match out {
                Ok(out) => out,
                Err(e) => {
                    // The world is dead; drop it so a future session user
                    // (after recreating factors) does not trip over it.
                    *wg = None;
                    drop(wg);
                    resume_unwind(e);
                }
            }
        } else {
            B::run(self.p, self.model, job)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_blocktri::gen::{materialize, random_rhs, ClusteredToeplitz, Poisson2D};
    use bt_mpsim::CostModel;

    const ZERO: CostModel = CostModel {
        latency_s: 0.0,
        per_byte_s: 0.0,
        flop_rate: f64::INFINITY,
        threads_per_rank: 1,
    };

    #[test]
    fn session_solves_many_batches() {
        let src = ClusteredToeplitz::standard(60, 4, 2);
        let t = materialize(&src);
        let session = ArdSession::create(4, ZERO, &src).unwrap();
        assert_eq!(session.ranks(), 4);
        assert_eq!((session.n(), session.m()), (60, 4));
        assert!(session.factor_bytes() > 0);
        for seed in 0..5 {
            let y = random_rhs(60, 4, 3, seed);
            let x = session.solve(&y).unwrap();
            assert!(t.rel_residual(&x, &y) < 1e-11, "seed {seed}");
        }
    }

    #[test]
    fn session_matches_driver() {
        let src = ClusteredToeplitz::standard(40, 3, 7);
        let y = vec![random_rhs(40, 3, 2, 1)];
        let driver = crate::driver::ard_solve_dist(4, ZERO, &src, &y).unwrap();
        let session = ArdSession::create(4, ZERO, &src).unwrap();
        let x = session.solve(&y[0]).unwrap();
        assert!(x.rel_diff(&driver.x[0]) < 1e-13);
    }

    #[test]
    fn session_feedback_loop() {
        // Solutions feed back as right-hand sides — impossible with the
        // batch drivers, natural with a session.
        let src = ClusteredToeplitz::standard(32, 3, 4);
        let t = materialize(&src);
        let session = ArdSession::create(3, ZERO, &src).unwrap();
        let mut y = random_rhs(32, 3, 1, 0);
        for step in 0..4 {
            let x = session.solve(&y).unwrap();
            assert!(t.rel_residual(&x, &y) < 1e-11, "step {step}");
            y = x;
        }
    }

    #[test]
    fn session_refinement() {
        let src = Poisson2D::new(28, 5);
        let t = materialize(&src);
        let session = ArdSession::create(4, ZERO, &src).unwrap();
        let y = random_rhs(28, 5, 2, 3);
        let (x, history) = session.solve_refined(&y, 6, 1e-13).unwrap();
        assert!(t.rel_residual(&x, &y) < 1e-12);
        assert!(!history.is_empty());
    }

    #[test]
    fn toeplitz_session_variant() {
        let src = ClusteredToeplitz::standard(128, 4, 6);
        let t = materialize(&src);
        let fast = ArdSession::create_toeplitz(4, ZERO, &src).unwrap();
        let general = ArdSession::create(4, ZERO, &src).unwrap();
        assert!(
            fast.factor_bytes() < general.factor_bytes(),
            "toeplitz store ({}) must undercut the general store ({})",
            fast.factor_bytes(),
            general.factor_bytes()
        );
        let y = random_rhs(128, 4, 3, 2);
        let x = fast.solve(&y).unwrap();
        assert!(t.rel_residual(&x, &y) < 1e-11);
        assert!(x.rel_diff(&general.solve(&y).unwrap()) < 1e-10);
        // The refined entry point works through the variant too.
        let (xr, history) = fast.solve_refined(&y, 4, 1e-13).unwrap();
        assert!(t.rel_residual(&xr, &y) < 1e-12);
        assert!(!history.is_empty());
    }

    #[test]
    fn windowed_session() {
        let src = Poisson2D::new(200, 4);
        let t = materialize(&src);
        let session = ArdSession::create_with(4, ZERO, BoundaryMode::Windowed(64), &src).unwrap();
        let y = random_rhs(200, 4, 2, 8);
        let x = session.solve(&y).unwrap();
        assert!(t.rel_residual(&x, &y) < 1e-11);
    }

    #[test]
    #[should_panic(expected = "rhs block count mismatch")]
    fn shape_mismatch_rejected() {
        let src = ClusteredToeplitz::standard(16, 3, 1);
        let session = ArdSession::create(2, ZERO, &src).unwrap();
        let bad = random_rhs(8, 3, 1, 0);
        let _ = session.solve(&bad);
    }

    #[test]
    fn concurrent_solves_from_two_threads() {
        // Regression for the lock-across-the-solve bug: concurrent
        // callers queue on the factor checkout (short lock + condvar),
        // not on a mutex held for the whole SPMD solve, and both get
        // correct answers.
        let src = ClusteredToeplitz::standard(48, 4, 11);
        let t = materialize(&src);
        let session = ArdSession::create(4, ZERO, &src).unwrap();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|tid| {
                    let session = &session;
                    let t = &t;
                    scope.spawn(move || {
                        for round in 0..4 {
                            let y = random_rhs(48, 4, 2, 100 * tid + round);
                            let x = session.solve(&y).unwrap();
                            assert!(t.rel_residual(&x, &y) < 1e-11, "thread {tid} round {round}");
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        // The session is still healthy afterwards.
        let y = random_rhs(48, 4, 1, 999);
        assert!(t.rel_residual(&session.solve(&y).unwrap(), &y) < 1e-11);
    }

    #[test]
    fn concurrent_solves_with_world_reuse() {
        let src = ClusteredToeplitz::standard(36, 3, 5);
        let t = materialize(&src);
        let session = ArdSession::create(3, ZERO, &src).unwrap();
        session.set_world_reuse(true);
        std::thread::scope(|scope| {
            for tid in 0..3 {
                let (session, t) = (&session, &t);
                scope.spawn(move || {
                    for round in 0..3 {
                        let y = random_rhs(36, 3, 1, 7 * tid + round);
                        let x = session.solve(&y).unwrap();
                        assert!(t.rel_residual(&x, &y) < 1e-11);
                    }
                });
            }
        });
        session.set_world_reuse(false); // tears the world down cleanly
        let y = random_rhs(36, 3, 1, 42);
        assert!(t.rel_residual(&session.solve(&y).unwrap(), &y) < 1e-11);
    }

    #[test]
    fn world_reuse_matches_fresh_worlds() {
        let src = ClusteredToeplitz::standard(40, 4, 3);
        let session = ArdSession::create(4, ZERO, &src).unwrap();
        let y = random_rhs(40, 4, 5, 17);
        let fresh = session.solve(&y).unwrap();
        session.set_world_reuse(true);
        let reused = session.solve(&y).unwrap();
        assert_eq!(fresh, reused, "world reuse must not change results");
    }

    #[test]
    fn lease_restores_factors_on_unwind() {
        // A panic between checkout and restore must put the factors back
        // (RAII), so the next solve succeeds instead of hanging or
        // finding an empty state.
        let src = ClusteredToeplitz::standard(24, 3, 9);
        let t = materialize(&src);
        let session = ArdSession::create(2, ZERO, &src).unwrap();
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _lease = FactorLease::checkout(&session);
            panic!("simulated failure while the factors are checked out");
        }));
        assert!(unwound.is_err());
        let y = random_rhs(24, 3, 2, 0);
        let x = session.solve(&y).unwrap();
        assert!(t.rel_residual(&x, &y) < 1e-11, "factors were not restored");
    }

    #[test]
    fn lost_factors_fail_loudly_not_silently() {
        // If a rank's factors are destroyed while checked out (a panic
        // inside the SPMD solve), later solves must panic with a clear
        // message — not deadlock on the condvar or see an empty vec.
        let src = ClusteredToeplitz::standard(16, 3, 1);
        let session = ArdSession::create(2, ZERO, &src).unwrap();
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let lease = FactorLease::checkout(&session);
            lease.slots()[0].lock().take(); // rank 0's factors die with the "world"
            panic!("simulated mid-solve rank death");
        }));
        assert!(unwound.is_err());
        let y = random_rhs(16, 3, 1, 0);
        let next = std::panic::catch_unwind(AssertUnwindSafe(|| session.solve(&y)));
        let payload = next.expect_err("lost factors must not look healthy");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or(payload.downcast_ref::<String>().map(String::as_str))
            .expect("string payload");
        assert!(msg.contains("lost"), "got: {msg}");
    }
}
