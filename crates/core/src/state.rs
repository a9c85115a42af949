//! Rank-level solver state: the setup/solve split at the heart of the
//! accelerated recursive doubling algorithm.
//!
//! [`RankSystem`] holds a rank's contiguous slice of the block
//! tridiagonal matrix. [`ArdRankFactors::setup`] runs all
//! matrix-dependent work — Phase 1 (block diagonals via the companion
//! scan) plus the matrix components of the Phase 2/3 affine scans — in
//! `O(M^3 (N/P + log P))` time. Each subsequent [`RankSolver::solve`]
//! replays the recorded scans for an `R`-column right-hand-side batch in
//! `O(M^2 R (N/P + log P))` time, exchanging only `M x R` panels.
//!
//! Classic recursive doubling is the same machinery without reuse:
//! [`rd_solve_rank`] sets up without recording the scans — so the solve
//! runs them fresh — for every call, which is what makes it `O(R)`
//! slower over `R` right-hand sides.

use std::cell::RefCell;

use bt_blocktri::{BlockRow, BlockRowSource, FactorError, RowPartition};
use bt_comm::CommBackend;
use bt_dense::{
    gemm, gemm_flops, lu_flops, lu_solve_flops, Element, LuFactors, Mat, Trans, Workspace,
    WorkspaceStats,
};

use crate::companion::{CompanionProduct, CompanionState, CompanionW};
use crate::pairs::AffinePair;
use crate::scans::{
    affine_exscan_fresh, affine_exscan_replay_tiled, auto_rhs_tile_for, companion_exscan,
    Direction, ScanTrace,
};
use crate::solver::RankSolver;

/// Tag bases for the point-to-point scans (each scan uses `base + step`),
/// shared with the Toeplitz path.
pub(crate) mod tags {
    pub const PHASE1: u64 = 0;
    pub const FWD_SETUP: u64 = 64;
    pub const BWD_SETUP: u64 = 128;
    pub const FWD_SOLVE: u64 = 192;
    pub const BWD_SOLVE: u64 = 256;
}

/// How a rank recovers its boundary block diagonal `D_{lo-1}` in Phase 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryMode {
    /// The paper's algorithm: a cross-rank recursive-doubling scan of
    /// companion-matrix products, exact in `O(M^3 log P)` communication.
    /// Accuracy depends on the conditioning of the accumulated products,
    /// which grows with the per-row spectral spread of the transfer
    /// matrices (DESIGN.md §7).
    ExactScan,
    /// Windowed recovery (extension, not in the paper): run the plain
    /// block-LU diagonal recurrence over the `w` rows preceding `lo`,
    /// warm-started from `D = B_{lo-w}`. For contracting systems
    /// (diagonally dominant / SPD), the warm-start error decays
    /// geometrically, so a window of a few dozen rows reproduces
    /// `D_{lo-1}` to machine precision — with **zero** Phase 1
    /// communication and `O(M^3 (N/P + w))` work. The rank system must be
    /// built with [`RankSystem::from_source_windowed`].
    Windowed(usize),
}

/// A rank's slice of the global system.
#[derive(Debug, Clone)]
pub struct RankSystem {
    /// Global block-row count.
    pub n: usize,
    /// Block order.
    pub m: usize,
    /// Owned global row range start (inclusive).
    pub lo: usize,
    /// Owned global row range end (exclusive).
    pub hi: usize,
    /// Owned rows, `rows[k]` = global row `lo + k`.
    pub rows: Vec<BlockRow>,
    /// `C_{lo-1}` — the left neighbour's superdiagonal block (zeros when
    /// `lo == 0`), needed by the boundary-diagonal extraction and the
    /// first local `D` update.
    pub c_prev: Mat,
    /// Global row 0, seeding the companion state
    /// `S_0 = [C_0^{-1} B_0; I]` on every rank.
    pub row0: BlockRow,
    /// Rows `lo - w .. lo` for [`BoundaryMode::Windowed`] (empty unless
    /// built by [`RankSystem::from_source_windowed`]).
    pub window_rows: Vec<BlockRow>,
}

impl RankSystem {
    /// Materializes rank `rank`-of-`p`'s slice of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `n < p` (every rank must own at least one block row) or
    /// `rank >= p`.
    pub fn from_source(src: &dyn BlockRowSource, p: usize, rank: usize) -> Self {
        let n = src.n();
        let m = src.m();
        assert!(
            n >= p,
            "need at least one block row per rank (N={n}, P={p})"
        );
        let part = RowPartition::new(n, p);
        let range = part.range(rank);
        let (lo, hi) = (range.start, range.end);
        let rows: Vec<BlockRow> = (lo..hi).map(|i| src.row(i)).collect();
        let c_prev = if lo == 0 {
            Mat::zeros(m, m)
        } else {
            src.row(lo - 1).c.clone()
        };
        let row0 = if lo == 0 { rows[0].clone() } else { src.row(0) };
        Self {
            n,
            m,
            lo,
            hi,
            rows,
            c_prev,
            row0,
            window_rows: Vec::new(),
        }
    }

    /// Like [`RankSystem::from_source`], additionally materializing the
    /// `min(w, lo)` rows preceding the owned range for
    /// [`BoundaryMode::Windowed`] boundary recovery.
    pub fn from_source_windowed(src: &dyn BlockRowSource, p: usize, rank: usize, w: usize) -> Self {
        let mut sys = Self::from_source(src, p, rank);
        let w = w.min(sys.lo);
        sys.window_rows = (sys.lo - w..sys.lo).map(|i| src.row(i)).collect();
        sys
    }

    /// Number of owned rows.
    pub fn local_len(&self) -> usize {
        self.hi - self.lo
    }

    /// The superdiagonal block of global row `i - 1`, for owned `i`.
    fn c_before(&self, i: usize) -> &Mat {
        debug_assert!(i >= self.lo && i < self.hi);
        if i == self.lo {
            &self.c_prev
        } else {
            &self.rows[i - self.lo - 1].c
        }
    }
}

/// Matrix-dependent state produced by setup and reused across solves.
///
/// Generic over the factor element type `E` (default `f64`): the source
/// system stays `f64`, Phase 1's companion scan and boundary extraction
/// run in `f64` (they set the accuracy envelope), and the per-row
/// factors, prefixes and recorded scan traces are stored — and every
/// replay runs — at `E`. `ArdRankFactors<f32>` is the mixed-precision
/// factorization underneath [`crate::mixed`]: half the factor bytes,
/// half the wire bytes per scan panel, and the wide-SIMD `f32` kernels,
/// with accuracy restored by `f64` iterative refinement.
#[derive(Debug)]
pub struct ArdRankFactors<E: Element = f64> {
    /// Owned range and sizes (copied from the [`RankSystem`]).
    pub n: usize,
    /// Block order.
    pub m: usize,
    /// First owned global row.
    pub lo: usize,
    /// One past the last owned global row.
    pub hi: usize,
    /// Explicit `D_i^{-1}` for each owned row, so every replay step —
    /// the diagonal one included — is a GEMM.
    d_inv: Vec<Mat<E>>,
    /// `F_i = -A_i D_{i-1}^{-1}` for each owned row (`F_0 = 0`).
    f: Vec<Mat<E>>,
    /// `G_i = -D_i^{-1} C_i` for each owned row (`G_{N-1} = 0`).
    g: Vec<Mat<E>>,
    /// Forward local prefix matrices `F_i F_{i-1} ... F_lo`.
    fwd_prefix: Vec<Mat<E>>,
    /// Backward local prefix matrices `G_i G_{i+1} ... G_{hi-1}`.
    bwd_prefix: Vec<Mat<E>>,
    /// Recorded cross-rank scan matrices (empty when built for classic
    /// recursive doubling, which re-scans fresh every solve).
    fwd_trace: ScanTrace<E>,
    /// Backward counterpart of `fwd_trace`.
    bwd_trace: ScanTrace<E>,
    /// Whether traces were recorded (accelerated mode).
    recorded: bool,
    /// Worst boundary-extraction 1-norm condition estimate across ranks
    /// (1.0 for windowed mode / single-rank worlds).
    boundary_cond: f64,
    /// Rank-owned buffer pool: every per-step temporary of the solve
    /// paths is checked out of here, so a warm replay allocates nothing
    /// (see DESIGN.md "Memory model"). `RefCell` keeps the `&self` solve
    /// signatures; factors are owned by one rank thread, never shared.
    ws: RefCell<Workspace<E>>,
}

/// `D^{-1}` through one LU factorization, charging the factorization and
/// the `M`-column solve that inverts it. `row` names the block row in the
/// error. Storing the inverse instead of the LU turns every later use of
/// `D` — the `F`/`G` setup products and each replay's diagonal step —
/// into a GEMM.
pub(crate) fn invert_block<C: CommBackend, E: Element>(
    comm: &mut C,
    d: &Mat<E>,
    row: usize,
) -> Result<Mat<E>, FactorError> {
    let m = d.rows();
    let lu = LuFactors::factor(d).map_err(|source| FactorError { row, source })?;
    comm.compute(lu_flops(m));
    let inv = lu.inverse();
    comm.compute(lu_solve_flops(m, m));
    Ok(inv)
}

/// `-(a b)` for square blocks, charging one GEMM.
pub(crate) fn neg_mul<C: CommBackend, E: Element>(comm: &mut C, a: &Mat<E>, b: &Mat<E>) -> Mat<E> {
    let m = a.rows();
    let mut p = Mat::zeros(m, m);
    gemm(-E::ONE, a, Trans::No, b, Trans::No, E::ZERO, &mut p);
    comm.compute(gemm_flops(m, m, m));
    p
}

impl<E: Element> ArdRankFactors<E> {
    /// Runs the full matrix-dependent setup: Phase 1 and the matrix
    /// components of the Phase 2/3 scans. Collective: every rank must
    /// call it together.
    ///
    /// `record_traces = true` (the accelerated algorithm) additionally
    /// records the cross-rank scan matrices so later solves can replay
    /// them; `false` builds the transient state classic recursive
    /// doubling computes per solve.
    ///
    /// # Errors
    ///
    /// [`FactorError`] — on **every** rank (failure is agreed upon
    /// collectively, so no rank deadlocks) — if some block diagonal `D_i`
    /// is singular.
    pub fn setup<C: CommBackend>(
        comm: &mut C,
        sys: &RankSystem,
        record_traces: bool,
    ) -> Result<Self, FactorError> {
        Self::setup_with(comm, sys, record_traces, BoundaryMode::ExactScan)
    }

    /// [`ArdRankFactors::setup`] with an explicit Phase 1 boundary mode.
    /// All ranks must pass the same `mode`.
    pub fn setup_with<C: CommBackend>(
        comm: &mut C,
        sys: &RankSystem,
        record_traces: bool,
        mode: BoundaryMode,
    ) -> Result<Self, FactorError> {
        let m = sys.m;
        let nl = sys.local_len();

        // ---- Phase 1a: local companion product total. -------------------
        // Rank p contributes the product of W_i over i in
        // [max(lo, 1), hi - 1]; the last rank's contribution is never
        // consumed by the exclusive scan (and would need the undefined
        // C_{N-1}^{-1}), so it stays the identity. Failures here (singular
        // C_i) are deferred until after the collective phases so no peer
        // deadlocks mid-scan.
        let mut pending_err: Option<FactorError> = None;
        let mut total = CompanionProduct::identity(m);
        let scanning = mode == BoundaryMode::ExactScan;
        // Phase 1 buffer pool: the companion scan always runs in `f64`
        // (it sets the boundary accuracy envelope), so its temporaries
        // cannot share the element-typed solve workspace below.
        let mut ws_p1: Workspace = Workspace::new();
        let span_companion = bt_obs::span("solver", "phase1.local_companion");
        if scanning && comm.rank() + 1 < comm.size() {
            for i in sys.lo.max(1)..sys.hi {
                let row = &sys.rows[i - sys.lo];
                match CompanionW::from_row(row) {
                    Ok(w) => {
                        comm.compute(CompanionW::build_flops(m));
                        total.apply_left_ws(&w, &mut ws_p1);
                        comm.compute(CompanionProduct::apply_left_flops(m));
                    }
                    Err(source) => {
                        pending_err = Some(FactorError { row: i, source });
                        total = CompanionProduct::identity(m);
                        break;
                    }
                }
            }
        }

        drop(span_companion);

        // ---- Phase 1b: cross-rank exclusive scan of the products. -------
        // Windowed mode needs no Phase 1 communication at all.
        let excl = {
            let _span = bt_obs::span("solver", "phase1.exscan");
            if scanning {
                companion_exscan(comm, tags::PHASE1, total)
            } else {
                None
            }
        };

        // ---- Phase 1c/1d: boundary diagonal and local factor pass. ------
        let span_factor = bt_obs::span("solver", "phase1.local_factor");
        let local = match pending_err {
            Some(e) => Err(e),
            None => Self::local_factor_pass(comm, sys, excl.as_ref(), mode, &mut ws_p1),
        };
        drop(span_factor);

        // ---- Coordinated error check: all ranks agree before the next
        // collective phase, so a singular diagonal cannot deadlock peers
        // blocked in a scan. -------------------------------------------
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
        let (d_inv, f, g, my_cond) = local.expect("checked above");
        // Agree on the worst boundary-extraction conditioning: the suite's
        // self-diagnostic for the prefix method's accuracy envelope.
        let boundary_cond = comm.allreduce(
            if my_cond.is_finite() {
                my_cond
            } else {
                f64::MAX
            },
            |a, b| a.max(*b),
        );

        // ---- Phase 2/3 matrix components: local prefixes + scans. -------
        let span_prefixes = bt_obs::span("solver", "setup.local_prefixes");
        let mut fwd_prefix: Vec<Mat<E>> = Vec::with_capacity(nl);
        for k in 0..nl {
            let pfx = if k == 0 {
                f[0].clone()
            } else {
                let mut p = Mat::zeros(m, m);
                gemm(
                    E::ONE,
                    &f[k],
                    Trans::No,
                    &fwd_prefix[k - 1],
                    Trans::No,
                    E::ZERO,
                    &mut p,
                );
                comm.compute(gemm_flops(m, m, m));
                p
            };
            fwd_prefix.push(pfx);
        }
        // Built back-to-front by pushing in reverse, then reversed — no
        // placeholder sentinels.
        let mut bwd_prefix: Vec<Mat<E>> = Vec::with_capacity(nl);
        for k in (0..nl).rev() {
            let pfx = if k == nl - 1 {
                g[nl - 1].clone()
            } else {
                let mut p = Mat::zeros(m, m);
                gemm(
                    E::ONE,
                    &g[k],
                    Trans::No,
                    bwd_prefix.last().expect("pushed above"),
                    Trans::No,
                    E::ZERO,
                    &mut p,
                );
                comm.compute(gemm_flops(m, m, m));
                p
            };
            bwd_prefix.push(pfx);
        }
        bwd_prefix.reverse();

        drop(span_prefixes);

        let mut fwd_trace: ScanTrace<E> = ScanTrace::default();
        let mut bwd_trace: ScanTrace<E> = ScanTrace::default();
        let _span_record = record_traces.then(|| bt_obs::span("solver", "setup.record_scans"));
        if record_traces {
            // Zero-width vectors: the scans run their full matrix work and
            // message pattern while carrying no right-hand-side data.
            let fwd_total = AffinePair {
                mat: fwd_prefix[nl - 1].clone(),
                vec: Mat::zero_width(m),
            };
            let _ = affine_exscan_fresh(
                comm,
                Direction::Forward,
                tags::FWD_SETUP,
                fwd_total,
                Some(&mut fwd_trace),
            );
            let bwd_total = AffinePair {
                mat: bwd_prefix[0].clone(),
                vec: Mat::zero_width(m),
            };
            let _ = affine_exscan_fresh(
                comm,
                Direction::Backward,
                tags::BWD_SETUP,
                bwd_total,
                Some(&mut bwd_trace),
            );
        }

        Ok(Self {
            n: sys.n,
            m,
            lo: sys.lo,
            hi: sys.hi,
            d_inv,
            f,
            g,
            fwd_prefix,
            bwd_prefix,
            fwd_trace,
            bwd_trace,
            recorded: record_traces,
            boundary_cond,
            ws: RefCell::new(Workspace::new()),
        })
    }

    /// Worst 1-norm condition estimate of the Phase 1 boundary
    /// extraction across all ranks (identical on every rank).
    ///
    /// The extraction's relative error is roughly
    /// `machine_eps * boundary_condition()`, so values approaching
    /// `1/eps ~ 1e16` predict the accuracy degradation (and eventual
    /// breakdown) quantified in Table III; values near 1 mean the exact
    /// scan is operating at full precision. Windowed-mode factors report
    /// 1.0 (no extraction).
    pub fn boundary_condition(&self) -> f64 {
        self.boundary_cond
    }

    /// `(subnormal, total)` element counts over every stored factor
    /// panel: diagonal inverses `D_i^{-1}`, `F`/`G` chains, affine
    /// prefixes and the recorded scan traces.
    ///
    /// Subnormals are the footprint of gradual underflow: at `f32` the
    /// decaying prefix/trace entries of strongly dominant systems slide
    /// below `2^-126` and flush toward zero, at which point replays
    /// silently lose the tail of the scan and iterative refinement
    /// stalls above its `f64` target instead of contracting. The mixed
    /// path uses this census (allreduced) to detect the flush and fall
    /// back to full width; see `bt_ard.precision.subnormal_fallbacks`.
    pub fn subnormal_census(&self) -> (u64, u64) {
        let mut sub = 0u64;
        let mut total = 0u64;
        let mut tally = |s: &[E]| {
            total += s.len() as u64;
            sub += s.iter().filter(|v| v.is_subnormal()).count() as u64;
        };
        for m in self.d_inv.iter().chain(&self.f).chain(&self.g) {
            tally(m.as_slice());
        }
        for m in self.fwd_prefix.iter().chain(&self.bwd_prefix) {
            tally(m.as_slice());
        }
        for m in self.fwd_trace.mats.iter().chain(&self.bwd_trace.mats) {
            tally(m.as_slice());
        }
        (sub, total)
    }

    /// Phase 1c/1d: recover the boundary diagonal `D_{lo-1}` from the
    /// scanned companion product, then run the local Thomas-style pass.
    /// Produces, per owned row, `D_i^{-1}`, `F_i` and `G_i`, plus a
    /// conditioning estimate of the boundary extraction (1.0 where no
    /// extraction happened).
    #[allow(clippy::type_complexity)]
    fn local_factor_pass<C: CommBackend>(
        comm: &mut C,
        sys: &RankSystem,
        excl: Option<&CompanionProduct>,
        mode: BoundaryMode,
        ws: &mut Workspace,
    ) -> Result<(Vec<Mat<E>>, Vec<Mat<E>>, Vec<Mat<E>>, f64), FactorError> {
        let m = sys.m;
        let nl = sys.local_len();
        let mut d_inv: Vec<Mat<E>> = Vec::with_capacity(nl);
        let mut f: Vec<Mat<E>> = Vec::with_capacity(nl);
        let mut boundary_cond = 1.0f64;

        // Rank 0 owns row 0: D_0 = B_0 directly, no companion needed.
        // Other ranks reconstruct D_{lo-1}: from the scanned companion
        // product (exact), or by the windowed warm-started recurrence.
        let boundary_diag = if sys.lo == 0 {
            sys.rows[0].b.clone()
        } else {
            match mode {
                BoundaryMode::ExactScan => {
                    let mut state = CompanionState::initial(&sys.row0)
                        .map_err(|source| FactorError { row: 0, source })?;
                    comm.compute(CompanionState::initial_flops(m));
                    if let Some(g_excl) = excl {
                        state.apply_product_ws(g_excl, ws);
                        comm.compute(CompanionState::apply_product_flops(m));
                    }
                    // Extraction error amplifies by cond(V): record it so
                    // callers can predict the accuracy envelope
                    // (DESIGN.md §7) before ever solving.
                    boundary_cond = bt_dense::cond_1(&state.v);
                    let d = state
                        .extract_diag(&sys.c_prev)
                        .map_err(|source| FactorError {
                            row: sys.lo - 1,
                            source,
                        })?;
                    comm.compute(CompanionState::extract_flops(m));
                    d
                }
                BoundaryMode::Windowed(_) => Self::windowed_boundary(comm, sys)?,
            }
        };
        // The boundary diagonal is recovered in `f64` above (the
        // extraction sets the accuracy envelope); the local recurrence
        // below runs at the factor element type. For `E = f64` the
        // conversion is a bit-exact copy; for `E = f32` this is the
        // single rounding step of the mixed-precision factorization.
        let boundary_diag: Mat<E> = boundary_diag.convert::<E>();

        // `D^{-1}` of the row before the first one the loop handles. On
        // rank 0 the boundary diagonal IS D_0 = B_0; elsewhere it is
        // D_{lo-1}, owned by the left neighbour, and only starts the
        // recurrence.
        let mut prev_inv = invert_block(comm, &boundary_diag, sys.lo.saturating_sub(1))?;
        let start_k = if sys.lo == 0 {
            d_inv.push(prev_inv.clone());
            f.push(Mat::zeros(m, m)); // F_0 = 0 (A_0 = 0)
            1
        } else {
            0
        };

        for k in start_k..nl {
            let i = sys.lo + k;
            let row = &sys.rows[k];
            // F_i = -A_i D_{i-1}^{-1}.
            let f_i = neg_mul(comm, &row.a.convert::<E>(), &prev_inv);
            // D_i = B_i + F_i C_{i-1}.
            let mut d_i = row.b.convert::<E>();
            gemm(
                E::ONE,
                &f_i,
                Trans::No,
                &sys.c_before(i).convert::<E>(),
                Trans::No,
                E::ONE,
                &mut d_i,
            );
            comm.compute(gemm_flops(m, m, m));
            prev_inv = invert_block(comm, &d_i, i)?;
            d_inv.push(prev_inv.clone());
            f.push(f_i);
        }

        // G_i = -D_i^{-1} C_i (automatically zero at i = N-1).
        let g = d_inv
            .iter()
            .zip(&sys.rows)
            .map(|(inv, row)| neg_mul(comm, inv, &row.c.convert::<E>()))
            .collect();

        Ok((d_inv, f, g, boundary_cond))
    }

    /// Windowed boundary recovery: runs the plain block-LU diagonal
    /// recurrence over `sys.window_rows`, warm-started from the window's
    /// first diagonal block. Returns `D_{lo-1}` up to the geometrically
    /// small warm-start residue.
    fn windowed_boundary<C: CommBackend>(
        comm: &mut C,
        sys: &RankSystem,
    ) -> Result<Mat, FactorError> {
        assert!(
            !sys.window_rows.is_empty(),
            "BoundaryMode::Windowed requires RankSystem::from_source_windowed"
        );
        let m = sys.m;
        let w = sys.window_rows.len();
        let first_row = sys.lo - w;
        let mut d = sys.window_rows[0].b.clone();
        for j in 1..w {
            let lu = LuFactors::factor(&d).map_err(|source| FactorError {
                row: first_row + j - 1,
                source,
            })?;
            comm.compute(lu_flops(m));
            let row = &sys.window_rows[j];
            // L = A_j D_{j-1}^{-1}; D_j = B_j - L C_{j-1}.
            let l = lu.solve_transposed_system(&row.a);
            comm.compute(lu_solve_flops(m, m));
            let mut next = row.b.clone();
            gemm(
                -1.0,
                &l,
                Trans::No,
                &sys.window_rows[j - 1].c,
                Trans::No,
                1.0,
                &mut next,
            );
            comm.compute(gemm_flops(m, m, m));
            d = next;
        }
        // The window ends at row lo - 1, so `d` is D_{lo-1}.
        Ok(d)
    }

    /// Number of owned rows.
    pub fn local_len(&self) -> usize {
        self.hi - self.lo
    }

    /// Frees the per-row local prefix matrices (40% of the stored factor
    /// bytes). Every later solve then runs the memory-lean replay, which
    /// never reads them: it restarts the first-order recurrence from the
    /// scan's exclusive value, which *is* the boundary value. Same flop
    /// count and message pattern, agreeing with the full replay to
    /// roundoff.
    ///
    /// # Panics
    ///
    /// Panics on classic-RD factors (setup without trace recording),
    /// whose fresh scans need the prefixes.
    pub fn shed_prefixes(&mut self) {
        assert!(self.recorded, "classic-RD factors need their prefixes");
        self.fwd_prefix = Vec::new();
        self.bwd_prefix = Vec::new();
    }

    /// Cumulative counters of the rank-owned solve workspace. The
    /// checkouts delta across a warm [`ArdRankFactors::solve_replay_into`]
    /// call is the zero-allocation invariant `tests/workspace.rs` pins.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.ws.borrow().stats()
    }

    /// Drops every pooled workspace buffer (cumulative stats are kept;
    /// released bytes count into [`WorkspaceStats::trimmed_bytes`]), so
    /// the next solve pays cold-allocation cost again. For benchmarks
    /// that want a cold baseline.
    pub fn reset_workspace(&self) {
        self.ws.borrow_mut().reset();
    }

    /// [`RankSolver::solve`] of a copy of `y_local` into caller-provided
    /// panels (`out[k]` shaped like `y_local[k]`), at the cost model's
    /// tile. With reused `out` buffers and a warm workspace a replay
    /// performs **zero** heap allocations: every temporary (scan receive
    /// buffers included) recycles through the rank-owned [`Workspace`]
    /// and the [`bt_mpsim::PanelBuf`] pool.
    ///
    /// # Panics
    ///
    /// Panics on panel shape mismatch.
    pub fn solve_replay_into<C: CommBackend>(
        &self,
        comm: &mut C,
        y_local: &[Mat<E>],
        out: &mut [Mat<E>],
    ) {
        let r = self.check_panels(y_local);
        assert_eq!(self.check_panels(out), r, "output panel width mismatch");
        for (o, y) in out.iter_mut().zip(y_local) {
            o.as_mut().copy_from(y.as_ref());
        }
        self.solve(comm, out, None);
    }

    /// Body of the full replay (`replay = Some(tile)`) and of classic
    /// RD's fresh-scan solve (`None`). `panels` holds `y` on entry and
    /// `x` on exit, carrying every stage in between
    /// (v_hat -> z -> h -> w_hat -> x); all other temporaries cycle
    /// through the rank workspace.
    fn solve_in_place<C: CommBackend>(
        &self,
        comm: &mut C,
        panels: &mut [Mat<E>],
        replay: Option<usize>,
    ) {
        let m = self.m;
        let nl = self.local_len();
        let r = panels[0].cols();
        let fwd_first = comm.rank() == 0;
        let bwd_first = comm.rank() == comm.size() - 1;
        let mut ws = self.ws.borrow_mut();

        // ---- Phase 2: forward substitution z_i = F_i z_{i-1} + y_i. -----
        let span_fwd = bt_obs::span("solver", "solve.forward");
        // Local vector recurrence, v_hat built over y.
        for k in 1..nl {
            let (done, rest) = panels.split_at_mut(k);
            gemm(
                E::ONE,
                &self.f[k],
                Trans::No,
                &done[k - 1],
                Trans::No,
                E::ONE,
                &mut rest[0],
            );
            comm.compute(gemm_flops(m, m, r));
        }
        // Cross-rank scan.
        let v_excl = if let Some(tile) = replay {
            let total = ws.take_copy(panels[nl - 1].as_ref());
            affine_exscan_replay_tiled(
                comm,
                Direction::Forward,
                tags::FWD_SOLVE,
                total,
                &self.fwd_trace,
                &mut ws,
                tile,
            )
        } else {
            let total = AffinePair {
                mat: self.fwd_prefix[nl - 1].clone(),
                vec: panels[nl - 1].clone(),
            };
            affine_exscan_fresh(comm, Direction::Forward, tags::FWD_SOLVE, total, None)
        };
        // Fixup: z_i = fwd_prefix_i * v_excl + v_hat_i, in place.
        match v_excl {
            None => debug_assert!(fwd_first),
            Some(vin) => {
                for (k, zk) in panels.iter_mut().enumerate() {
                    gemm(
                        E::ONE,
                        &self.fwd_prefix[k],
                        Trans::No,
                        &vin,
                        Trans::No,
                        E::ONE,
                        zk,
                    );
                    comm.compute(gemm_flops(m, m, r));
                }
                if replay.is_some() {
                    ws.put(vin);
                }
            }
        }

        drop(span_fwd);

        diag_solve_in_place(self, comm, panels, &mut ws);

        // ---- Phase 3: backward substitution x_i = G_i x_{i+1} + h_i. ----
        let _span_bwd = bt_obs::span("solver", "solve.backward");
        for k in (0..nl - 1).rev() {
            let (head, tail) = panels.split_at_mut(k + 1);
            gemm(
                E::ONE,
                &self.g[k],
                Trans::No,
                &tail[0],
                Trans::No,
                E::ONE,
                &mut head[k],
            );
            comm.compute(gemm_flops(m, m, r));
        }
        let w_excl = if let Some(tile) = replay {
            let total = ws.take_copy(panels[0].as_ref());
            affine_exscan_replay_tiled(
                comm,
                Direction::Backward,
                tags::BWD_SOLVE,
                total,
                &self.bwd_trace,
                &mut ws,
                tile,
            )
        } else {
            let total = AffinePair {
                mat: self.bwd_prefix[0].clone(),
                vec: panels[0].clone(),
            };
            affine_exscan_fresh(comm, Direction::Backward, tags::BWD_SOLVE, total, None)
        };
        match w_excl {
            None => debug_assert!(bwd_first),
            Some(win) => {
                for (k, xk) in panels.iter_mut().enumerate() {
                    gemm(
                        E::ONE,
                        &self.bwd_prefix[k],
                        Trans::No,
                        &win,
                        Trans::No,
                        E::ONE,
                        xk,
                    );
                    comm.compute(gemm_flops(m, m, r));
                }
                if replay.is_some() {
                    ws.put(win);
                }
            }
        }
    }
}

/// What a solve runs follows from what setup stored: classic RD's fresh
/// scans when setup recorded no traces, the lean replay once the prefix
/// matrices were shed, the full replay otherwise.
impl<E: Element> RankSolver<E> for ArdRankFactors<E> {
    fn solve<C: CommBackend>(&self, comm: &mut C, panels: &mut [Mat<E>], tile: Option<usize>) {
        let r = self.check_panels(panels);
        if !self.recorded {
            return self.solve_in_place(comm, panels, None);
        }
        let tile = tile.unwrap_or_else(|| auto_rhs_tile_for::<E>(&comm.model(), self.m, r));
        if self.fwd_prefix.is_empty() {
            lean_replay_in_place(self, comm, panels, &mut self.ws.borrow_mut(), tile);
        } else {
            self.solve_in_place(comm, panels, Some(tile));
        }
    }

    fn storage_bytes(&self) -> u64 {
        let mat_bytes = (self.m * self.m * std::mem::size_of::<E>()) as u64;
        // D_i^{-1} + F_i + G_i per row, plus the prefix matrices if they
        // have not been shed (see `shed_prefixes`).
        let prefixes = (self.fwd_prefix.len() + self.bwd_prefix.len()) as u64;
        (3 * self.local_len() as u64 + prefixes) * mat_bytes
            + self.fwd_trace.storage_bytes()
            + self.bwd_trace.storage_bytes()
    }

    fn trim_workspace(&self, max_pooled_bytes: u64) -> u64 {
        self.ws.borrow_mut().trim_to(max_pooled_bytes)
    }
}

/// Per-row factor lookup: what the replay bodies read from a factor
/// store. Local row `k` of the owning rank.
pub(crate) trait ReplayFactors<E: Element> {
    /// Block order `M`.
    fn order(&self) -> usize;
    /// Owned rows.
    fn rows(&self) -> usize;
    /// `F_i = -A_i D_{i-1}^{-1}`.
    fn f_at(&self, k: usize) -> &Mat<E>;
    /// `G_i = -D_i^{-1} C_i`.
    fn g_at(&self, k: usize) -> &Mat<E>;
    /// `D_i^{-1}`.
    fn d_inv_at(&self, k: usize) -> &Mat<E>;
    /// Recorded forward and backward cross-rank scans.
    fn traces(&self) -> (&ScanTrace<E>, &ScanTrace<E>);

    /// Shape validation shared by every solve; returns `R`.
    fn check_panels(&self, panels: &[Mat<E>]) -> usize {
        assert_eq!(panels.len(), self.rows(), "panel count mismatch");
        let r = panels[0].cols();
        for (k, p) in panels.iter().enumerate() {
            assert_eq!(p.shape(), (self.order(), r), "panel {k} shape mismatch");
        }
        r
    }
}

impl<E: Element> ReplayFactors<E> for ArdRankFactors<E> {
    fn order(&self) -> usize {
        self.m
    }

    fn rows(&self) -> usize {
        self.local_len()
    }

    fn f_at(&self, k: usize) -> &Mat<E> {
        &self.f[k]
    }

    fn g_at(&self, k: usize) -> &Mat<E> {
        &self.g[k]
    }

    fn d_inv_at(&self, k: usize) -> &Mat<E> {
        &self.d_inv[k]
    }

    fn traces(&self) -> (&ScanTrace<E>, &ScanTrace<E>) {
        (&self.fwd_trace, &self.bwd_trace)
    }
}

/// `h_i = D_i^{-1} z_i` over every panel, in place: one `M x M · M x R`
/// GEMM per row against the stored inverse. A GEMM cannot overwrite its
/// operand, so each product lands in one pooled scratch panel that then
/// swaps places with the row's panel: the old panel becomes the scratch
/// for the next row, and no panel is ever copied. The scratch is taken
/// at exact size, so the buffer that leaves the pool in the solution is
/// the size of the one that returns.
fn diag_solve_in_place<C: CommBackend, E: Element, F: ReplayFactors<E>>(
    factors: &F,
    comm: &mut C,
    panels: &mut [Mat<E>],
    ws: &mut Workspace<E>,
) {
    let _span = bt_obs::span("solver", "solve.diag");
    let (m, r) = panels[0].shape();
    let mut h = ws.take_exact(m, r);
    for (k, zk) in panels.iter_mut().enumerate() {
        gemm(
            E::ONE,
            factors.d_inv_at(k),
            Trans::No,
            &*zk,
            Trans::No,
            E::ZERO,
            &mut h,
        );
        std::mem::swap(zk, &mut h);
        comm.compute(gemm_flops(m, m, r));
    }
    ws.put(h);
}

/// The boundary-value replay body, shared by the lean ARD replay (after
/// [`ArdRankFactors::shed_prefixes`]) and the Toeplitz replay. Instead of
/// fixing each row up with a stored prefix matrix
/// (`z_i = M_i v_excl + v_i`), it uses the fact that the scan's exclusive
/// vector *is* the boundary value (`v_excl = z_{lo-1}`) and re-runs the
/// plain first-order recurrence from it: identical flop count and
/// message pattern, no prefix matrices read.
/// `panels` holds `y` on entry and `x` on exit, carrying z and h in
/// between; all other temporaries cycle through `ws`. Collective.
pub(crate) fn lean_replay_in_place<C: CommBackend, E: Element, F: ReplayFactors<E>>(
    factors: &F,
    comm: &mut C,
    panels: &mut [Mat<E>],
    ws: &mut Workspace<E>,
    tile: usize,
) {
    let (m, r) = panels[0].shape();
    let nl = factors.rows();
    let (fwd_trace, bwd_trace) = factors.traces();

    // ---- Phase 2. On the logical-first rank the exclusive value is
    // empty, so z is computable before the scan and doubles as the
    // scan total; elsewhere, fold a total, scan, then run the
    // recurrence from the boundary value z_{lo-1} = v_excl.
    let fwd_first = comm.rank() == 0;
    let span_fwd = bt_obs::span("solver", "solve.forward");
    if fwd_first {
        for k in 1..nl {
            let (done, rest) = panels.split_at_mut(k);
            gemm(
                E::ONE,
                factors.f_at(k),
                Trans::No,
                &done[k - 1],
                Trans::No,
                E::ONE,
                &mut rest[0],
            );
            comm.compute(gemm_flops(m, m, r));
        }
        let total = ws.take_copy(panels[nl - 1].as_ref());
        let none = affine_exscan_replay_tiled(
            comm,
            Direction::Forward,
            tags::FWD_SOLVE,
            total,
            fwd_trace,
            ws,
            tile,
        );
        debug_assert!(none.is_none());
    } else {
        let mut total = ws.take_copy(panels[0].as_ref());
        for (k, yk) in panels.iter().enumerate().skip(1) {
            let mut v = ws.take_copy(yk.as_ref());
            gemm(
                E::ONE,
                factors.f_at(k),
                Trans::No,
                &total,
                Trans::No,
                E::ONE,
                &mut v,
            );
            comm.compute(gemm_flops(m, m, r));
            ws.put(std::mem::replace(&mut total, v));
        }
        let v_excl = affine_exscan_replay_tiled(
            comm,
            Direction::Forward,
            tags::FWD_SOLVE,
            total,
            fwd_trace,
            ws,
            tile,
        )
        .expect("non-first rank always has an exclusive value");
        for k in 0..nl {
            let (done, rest) = panels.split_at_mut(k);
            let prev = if k == 0 { &v_excl } else { &done[k - 1] };
            gemm(
                E::ONE,
                factors.f_at(k),
                Trans::No,
                prev,
                Trans::No,
                E::ONE,
                &mut rest[0],
            );
            comm.compute(gemm_flops(m, m, r));
        }
        ws.put(v_excl);
    }

    drop(span_fwd);

    diag_solve_in_place(factors, comm, panels, ws);

    // ---- Phase 3: mirror image of Phase 2.
    let _span_bwd = bt_obs::span("solver", "solve.backward");
    let bwd_first = comm.rank() == comm.size() - 1;
    if bwd_first {
        for k in (0..nl - 1).rev() {
            let (head, tail) = panels.split_at_mut(k + 1);
            gemm(
                E::ONE,
                factors.g_at(k),
                Trans::No,
                &tail[0],
                Trans::No,
                E::ONE,
                &mut head[k],
            );
            comm.compute(gemm_flops(m, m, r));
        }
        let total = ws.take_copy(panels[0].as_ref());
        let none = affine_exscan_replay_tiled(
            comm,
            Direction::Backward,
            tags::BWD_SOLVE,
            total,
            bwd_trace,
            ws,
            tile,
        );
        debug_assert!(none.is_none());
    } else {
        let mut total = ws.take_copy(panels[nl - 1].as_ref());
        for k in (0..nl - 1).rev() {
            let mut v = ws.take_copy(panels[k].as_ref());
            gemm(
                E::ONE,
                factors.g_at(k),
                Trans::No,
                &total,
                Trans::No,
                E::ONE,
                &mut v,
            );
            comm.compute(gemm_flops(m, m, r));
            ws.put(std::mem::replace(&mut total, v));
        }
        let w_excl = affine_exscan_replay_tiled(
            comm,
            Direction::Backward,
            tags::BWD_SOLVE,
            total,
            bwd_trace,
            ws,
            tile,
        )
        .expect("non-last rank always has a backward exclusive value");
        for k in (0..nl).rev() {
            let (head, tail) = panels.split_at_mut(k + 1);
            let next = if k == nl - 1 { &w_excl } else { &tail[0] };
            gemm(
                E::ONE,
                factors.g_at(k),
                Trans::No,
                next,
                Trans::No,
                E::ONE,
                &mut head[k],
            );
            comm.compute(gemm_flops(m, m, r));
        }
        ws.put(w_excl);
    }
}

/// Classic recursive doubling: rebuilds all matrix-dependent state and
/// runs a fresh-scan solve, every call. `O(M^3 (N/P + log P))` per batch
/// regardless of `R` (for `R <= M`). Collective.
///
/// # Errors
///
/// [`FactorError`] (on every rank) if a block diagonal is singular.
pub fn rd_solve_rank<C: CommBackend, E: Element>(
    comm: &mut C,
    sys: &RankSystem,
    y_local: &[Mat<E>],
) -> Result<Vec<Mat<E>>, FactorError> {
    let factors = ArdRankFactors::<E>::setup(comm, sys, false)?;
    let mut x = y_local.to_vec();
    factors.solve(comm, &mut x, None);
    Ok(x)
}
