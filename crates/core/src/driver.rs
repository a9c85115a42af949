//! Whole-run drivers: launch an SPMD world, scatter the system, run the
//! solvers, gather solutions and per-phase timings.
//!
//! These are the entry points the examples, tests and the experiment
//! harness use. For embedding in an existing SPMD program, use the
//! rank-level API ([`crate::state`]) directly.

use std::time::{Duration, Instant};

use bt_blocktri::{BlockRowSource, BlockVec, FactorError, RowPartition};
use bt_comm::{CommBackend, CostModel, SpmdBackend, WorldStats};
use bt_dense::Mat;
use bt_mpsim::SimBackend;
use bt_shm::ShmBackend;

use crate::pcr::PcrRankFactors;
use crate::solver::RankSolver;
use crate::spike::SpikeRankFactors;
use crate::state::{ArdRankFactors, BoundaryMode, RankSystem};

/// Per-phase timing of one run, aggregated over ranks (maximum).
#[derive(Debug, Clone, Default)]
pub struct PhaseTimings {
    /// Wall-clock time of setup (zero for classic RD, which has none).
    pub setup_wall: Duration,
    /// Modeled (virtual) time of setup.
    pub setup_modeled: f64,
    /// Wall-clock time of each solve batch.
    pub solve_wall: Vec<Duration>,
    /// Modeled time of each solve batch.
    pub solve_modeled: Vec<f64>,
}

impl PhaseTimings {
    /// Total wall time (setup plus all solves).
    pub fn total_wall(&self) -> Duration {
        self.setup_wall + self.solve_wall.iter().sum::<Duration>()
    }

    /// Total modeled time (setup plus all solves).
    pub fn total_modeled(&self) -> f64 {
        self.setup_modeled + self.solve_modeled.iter().sum::<f64>()
    }
}

/// Result of a distributed solve over one or more right-hand-side batches.
#[derive(Debug)]
pub struct DistOutcome {
    /// One solution block vector per input batch.
    pub x: Vec<BlockVec>,
    /// Communication/computation counters, per rank.
    pub stats: WorldStats,
    /// Max-over-ranks per-phase timings.
    pub timings: PhaseTimings,
    /// Peak per-rank stored factor bytes (0 for classic RD).
    pub factor_bytes: u64,
    /// Worst boundary-extraction condition estimate (ARD exact-scan runs
    /// only; 1.0 otherwise). See `ArdRankFactors::boundary_condition`.
    pub boundary_condition: f64,
    /// Kernel/solver counter deltas attributable to this run (counter
    /// name -> increment), captured from the `bt-obs` metrics registry.
    /// `None` when observability is off (`BT_OBS` unset); zero-delta
    /// counters are omitted.
    pub obs_counters: Option<std::collections::BTreeMap<String, u64>>,
}

/// Per-rank raw output carried back from the SPMD closure.
struct RankOutput {
    lo: usize,
    boundary_condition: f64,
    x_local: Vec<Vec<Mat>>, // [batch][local row]
    setup_wall: Duration,
    setup_vt: f64,
    solve_wall: Vec<Duration>,
    solve_vt: Vec<f64>,
    factor_bytes: u64,
}

fn assemble(
    n: usize,
    m: usize,
    batches: usize,
    outputs: &[Result<RankOutput, FactorError>],
) -> Result<(Vec<BlockVec>, PhaseTimings, u64, f64), FactorError> {
    // Surface the first error (all ranks agree on it).
    for out in outputs {
        if let Err(e) = out {
            return Err(e.clone());
        }
    }
    let outputs: Vec<&RankOutput> = outputs
        .iter()
        .map(|o| o.as_ref().expect("checked above"))
        .collect();

    let r = outputs[0]
        .x_local
        .first()
        .and_then(|b| b.first())
        .map_or(0, Mat::cols);
    let mut xs = vec![BlockVec::zeros(n, m, r); batches];
    for out in &outputs {
        for (bi, panels) in out.x_local.iter().enumerate() {
            for (k, panel) in panels.iter().enumerate() {
                xs[bi].blocks[out.lo + k] = panel.clone();
            }
        }
    }

    let mut t = PhaseTimings {
        setup_wall: Duration::ZERO,
        setup_modeled: 0.0,
        solve_wall: vec![Duration::ZERO; batches],
        solve_modeled: vec![0.0; batches],
    };
    let mut factor_bytes = 0u64;
    let mut boundary_condition = 1.0f64;
    for out in &outputs {
        t.setup_wall = t.setup_wall.max(out.setup_wall);
        t.setup_modeled = t.setup_modeled.max(out.setup_vt);
        for bi in 0..batches {
            t.solve_wall[bi] = t.solve_wall[bi].max(out.solve_wall[bi]);
            t.solve_modeled[bi] = t.solve_modeled[bi].max(out.solve_vt[bi]);
        }
        factor_bytes = factor_bytes.max(out.factor_bytes);
        boundary_condition = boundary_condition.max(out.boundary_condition);
    }
    Ok((xs, t, factor_bytes, boundary_condition))
}

/// Extracts rank `rank`'s local panels of a global block vector.
fn local_panels(part: &RowPartition, rank: usize, y: &BlockVec) -> Vec<Mat> {
    part.range(rank).map(|i| y.blocks[i].clone()).collect()
}

/// Solves every batch with **classic recursive doubling**: all
/// matrix-dependent work is redone per batch —
/// `O(M^3 (N/P + log P))` each.
///
/// # Errors
///
/// [`FactorError`] if a block diagonal is singular.
///
/// # Panics
///
/// Panics if `batches` is empty, shapes are inconsistent, or `N < P`.
pub fn rd_solve_dist<S: BlockRowSource + Sync>(
    p: usize,
    model: CostModel,
    src: &S,
    batches: &[BlockVec],
) -> Result<DistOutcome, FactorError> {
    run_driver(p, model, src, batches, Algo::Rd)
}

/// Solves every batch with the **accelerated recursive doubling**
/// algorithm: one `O(M^3 (N/P + log P))` setup, then
/// `O(M^2 R (N/P + log P))` per batch.
///
/// # Errors
///
/// [`FactorError`] if a block diagonal is singular.
///
/// # Panics
///
/// Panics if `batches` is empty, shapes are inconsistent, or `N < P`.
pub fn ard_solve_dist<S: BlockRowSource + Sync>(
    p: usize,
    model: CostModel,
    src: &S,
    batches: &[BlockVec],
) -> Result<DistOutcome, FactorError> {
    run_driver(p, model, src, batches, Algo::Ard)
}

/// The solver a driver run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Classic recursive doubling: setup and fresh scans for every batch.
    Rd,
    /// Accelerated recursive doubling: one setup, one replay per batch.
    Ard,
    /// SPIKE partitioning with a gathered reduced system.
    Spike,
    /// Amortized parallel cyclic reduction.
    Pcr,
}

impl Algo {
    /// Short algorithm label used in trace span arguments.
    fn name(self) -> &'static str {
        match self {
            Algo::Rd => "rd",
            Algo::Ard => "ard",
            Algo::Spike => "spike",
            Algo::Pcr => "pcr",
        }
    }
}

/// Full driver configuration; the `*_solve_dist` helpers use
/// [`BoundaryMode::ExactScan`] (the paper's algorithm).
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// World size (ranks).
    pub p: usize,
    /// Cost model for the virtual-time engine.
    pub model: CostModel,
    /// Phase 1 boundary recovery mode.
    pub boundary: BoundaryMode,
    /// Memory-lean accelerated solves: shed the per-row prefix matrices
    /// after setup ([`ArdRankFactors::shed_prefixes`]), so every replay
    /// runs the boundary-recurrence body. Same flop count and message
    /// pattern, ~40% less stored factor memory. Ignored by the other
    /// drivers.
    pub lean: bool,
    /// Intra-rank threads for the dense kernels on each simulated rank.
    /// Overrides the cost model's `threads_per_rank` for the run:
    /// `run_spmd` stamps every rank thread with this budget and the
    /// modeled compute time divides by it, while the exact flop/byte
    /// counters are unaffected. Defaults to the `BT_DENSE_THREADS`
    /// environment variable, or 1 when unset.
    pub threads_per_rank: usize,
    /// RHS tile width for the accelerated replay's scan pipeline;
    /// `None` lets the cost model pick it per batch. Numerics are
    /// bitwise identical for every tile, only the modeled clocks move.
    /// Defaults to the `BT_ARD_RHS_TILE` environment variable (unset or
    /// `0` means `None`). Ignored by the other drivers.
    pub rhs_tile: Option<usize>,
}

impl DriverConfig {
    /// Default configuration: cluster cost model, exact-scan boundary,
    /// `BT_DENSE_THREADS` (default 1) intra-rank threads, and the
    /// `BT_ARD_RHS_TILE` replay tile (default: the cost model's).
    pub fn new(p: usize) -> Self {
        Self {
            p,
            model: CostModel::cluster(),
            boundary: BoundaryMode::ExactScan,
            lean: false,
            threads_per_rank: bt_dense::threading::default_threads(),
            rhs_tile: std::env::var("BT_ARD_RHS_TILE")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&t| t > 0),
        }
    }

    /// Sets the cost model. The model's own `threads_per_rank` is
    /// superseded by the config's (see [`Self::with_threads_per_rank`]).
    pub fn with_model(mut self, model: CostModel) -> Self {
        self.model = model;
        self
    }

    /// Sets the intra-rank thread budget (clamped to >= 1 at run time).
    pub fn with_threads_per_rank(mut self, threads: usize) -> Self {
        self.threads_per_rank = threads;
        self
    }

    /// Sets the boundary mode.
    pub fn with_boundary(mut self, boundary: BoundaryMode) -> Self {
        self.boundary = boundary;
        self
    }

    /// Enables memory-lean accelerated solves.
    pub fn with_lean(mut self) -> Self {
        self.lean = true;
        self
    }

    /// Pins the accelerated replay's RHS tile width, overriding
    /// `BT_ARD_RHS_TILE` (see [`DriverConfig::rhs_tile`]).
    pub fn with_rhs_tile(mut self, tile: usize) -> Self {
        self.rhs_tile = Some(tile);
        self
    }
}

/// SPIKE-style partitioned solver under an explicit [`DriverConfig`]
/// (the stability-oriented parallel baseline; `boundary`/`lean` are
/// ignored).
///
/// # Errors
///
/// [`FactorError`] if a local pivot block or the reduced system is
/// singular.
pub fn spike_solve_cfg<S: BlockRowSource + Sync>(
    cfg: &DriverConfig,
    src: &S,
    batches: &[BlockVec],
) -> Result<DistOutcome, FactorError> {
    run_driver_cfg(cfg, src, batches, Algo::Spike)
}

/// Amortized parallel cyclic reduction under an explicit
/// [`DriverConfig`] (the BCYCLIC-style comparator; `boundary`/`lean` are
/// ignored).
///
/// # Errors
///
/// [`FactorError`] if a diagonal block is singular at some elimination
/// level.
pub fn pcr_solve_cfg<S: BlockRowSource + Sync>(
    cfg: &DriverConfig,
    src: &S,
    batches: &[BlockVec],
) -> Result<DistOutcome, FactorError> {
    run_driver_cfg(cfg, src, batches, Algo::Pcr)
}

/// Classic recursive doubling under an explicit [`DriverConfig`].
///
/// # Errors
///
/// [`FactorError`] if a block diagonal (or, in exact-scan mode, a
/// superdiagonal block) is singular.
pub fn rd_solve_cfg<S: BlockRowSource + Sync>(
    cfg: &DriverConfig,
    src: &S,
    batches: &[BlockVec],
) -> Result<DistOutcome, FactorError> {
    run_driver_cfg(cfg, src, batches, Algo::Rd)
}

/// Accelerated recursive doubling under an explicit [`DriverConfig`].
///
/// # Errors
///
/// [`FactorError`] if a block diagonal (or, in exact-scan mode, a
/// superdiagonal block) is singular.
pub fn ard_solve_cfg<S: BlockRowSource + Sync>(
    cfg: &DriverConfig,
    src: &S,
    batches: &[BlockVec],
) -> Result<DistOutcome, FactorError> {
    run_driver_cfg(cfg, src, batches, Algo::Ard)
}

/// Which [`SpmdBackend`] the environment selects for driver-level entry
/// points (`BT_BACKEND`): the virtual-clock simulator (`sim`, default)
/// or the real shared-memory runtime (`shm`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// `bt-mpsim`: modeled clocks, exact counters, deterministic.
    Sim,
    /// `bt-shm`: real rank threads, wall-clock timings.
    Shm,
}

impl BackendKind {
    /// Reads `BT_BACKEND` (`sim`/`shm`, unset means `sim`). Re-read on
    /// every call so tests can flip the variable per-process-phase.
    ///
    /// # Panics
    ///
    /// Panics on an unknown value — a misspelled backend silently
    /// falling back to the simulator would invalidate measurements.
    pub fn from_env() -> Self {
        match std::env::var("BT_BACKEND").as_deref() {
            Err(_) | Ok("") | Ok("sim") => BackendKind::Sim,
            Ok("shm") => BackendKind::Shm,
            Ok(other) => panic!("BT_BACKEND={other:?}: expected \"sim\" or \"shm\""),
        }
    }

    /// The backend's display name (matches [`SpmdBackend::name`]).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Sim => SimBackend::name(),
            BackendKind::Shm => ShmBackend::name(),
        }
    }
}

/// Runs `algo` under `cfg` on an explicitly chosen backend `B`, bypassing
/// the `BT_BACKEND` environment dispatch of the `*_solve_cfg` entry
/// points (benchmarks and cross-backend agreement tests pick both
/// backends in one process this way; modeled-clock tests pin the
/// simulator).
///
/// # Errors
///
/// [`FactorError`] if the solver's setup breaks down.
///
/// # Panics
///
/// Panics if `batches` is empty, shapes are inconsistent, or `N < P`.
pub fn solve_cfg_on<B: SpmdBackend, S: BlockRowSource + Sync>(
    cfg: &DriverConfig,
    algo: Algo,
    src: &S,
    batches: &[BlockVec],
) -> Result<DistOutcome, FactorError> {
    let p = cfg.p;
    let model = cfg.model.with_threads_per_rank(cfg.threads_per_rank.max(1));
    let n = src.n();
    let m = src.m();
    assert!(
        !batches.is_empty(),
        "need at least one right-hand-side batch"
    );
    assert!(
        n >= p,
        "need at least one block row per rank (N={n}, P={p})"
    );
    for (bi, y) in batches.iter().enumerate() {
        assert_eq!(y.n(), n, "batch {bi}: block count mismatch");
        assert_eq!(y.m(), m, "batch {bi}: block order mismatch");
        assert!(
            y.r() >= 1,
            "batch {bi}: needs at least one right-hand-side column"
        );
    }
    let part = RowPartition::new(n, p);

    // Counter baseline: the delta across the SPMD run is what this solve
    // (all ranks, all batches) actually did in the instrumented kernels.
    let counters_before = bt_obs::enabled().then(bt_obs::counters_snapshot);

    let spmd = B::run(
        p,
        model,
        |comm: &mut B::Comm| -> Result<RankOutput, FactorError> {
            let rank = comm.rank();
            let sys = match cfg.boundary {
                BoundaryMode::ExactScan => RankSystem::from_source(src, p, rank),
                BoundaryMode::Windowed(w) => RankSystem::from_source_windowed(src, p, rank, w),
            };
            let y_locals: Vec<Vec<Mat>> = batches
                .iter()
                .map(|y| local_panels(&part, rank, y))
                .collect();

            let mut out = RankOutput {
                lo: sys.lo,
                boundary_condition: 1.0,
                x_local: Vec::with_capacity(batches.len()),
                setup_wall: Duration::ZERO,
                setup_vt: 0.0,
                solve_wall: Vec::with_capacity(batches.len()),
                solve_vt: Vec::with_capacity(batches.len()),
                factor_bytes: 0,
            };

            match algo {
                Algo::Rd => {
                    // No setup phase: rebuilding the factors (without
                    // recorded scans, so the solve runs them fresh) is
                    // part of every batch's cost.
                    comm.barrier();
                    for (bi, mut y) in y_locals.into_iter().enumerate() {
                        timed_solve(comm, &mut out, algo, bi, |comm| {
                            let factors =
                                ArdRankFactors::setup_with(comm, &sys, false, cfg.boundary)?;
                            factors.solve(comm, &mut y, None);
                            Ok(y)
                        })?;
                    }
                }
                Algo::Ard => {
                    let factors = timed_setup(comm, &mut out, algo, |comm| {
                        let mut f = ArdRankFactors::setup_with(comm, &sys, true, cfg.boundary)?;
                        if cfg.lean {
                            f.shed_prefixes();
                        }
                        Ok(f)
                    })?;
                    out.boundary_condition = factors.boundary_condition();
                    solve_batches(comm, &mut out, algo, &factors, y_locals, cfg.rhs_tile)?;
                }
                Algo::Pcr => {
                    let factors =
                        timed_setup(comm, &mut out, algo, |c| PcrRankFactors::setup(c, &sys))?;
                    solve_batches(comm, &mut out, algo, &factors, y_locals, None)?;
                }
                Algo::Spike => {
                    let factors =
                        timed_setup(comm, &mut out, algo, |c| SpikeRankFactors::setup(c, &sys))?;
                    solve_batches(comm, &mut out, algo, &factors, y_locals, None)?;
                }
            }
            Ok(out)
        },
    );

    let obs_counters = counters_before.map(|before| bt_obs::counters_diff(&before));
    let (x, timings, factor_bytes, boundary_condition) =
        assemble(n, m, batches.len(), &spmd.results)?;
    Ok(DistOutcome {
        x,
        stats: spmd.stats,
        timings,
        factor_bytes,
        boundary_condition,
        obs_counters,
    })
}

/// Runs `setup` between barriers, recording its wall and modeled time
/// and the factors' stored bytes.
fn timed_setup<C: CommBackend, S: RankSolver>(
    comm: &mut C,
    out: &mut RankOutput,
    algo: Algo,
    setup: impl FnOnce(&mut C) -> Result<S, FactorError>,
) -> Result<S, FactorError> {
    comm.barrier();
    let vt0 = comm.virtual_time();
    let t0 = Instant::now();
    let span = bt_obs::span_with("solver", "setup", || {
        format!("{{\"algo\":\"{}\"}}", algo.name())
    });
    let factors = setup(comm)?;
    comm.barrier();
    drop(span);
    out.setup_wall = t0.elapsed();
    out.setup_vt = comm.virtual_time() - vt0;
    out.factor_bytes = factors.storage_bytes();
    Ok(factors)
}

/// Solves every batch in place with the stored `factors`, each timed.
fn solve_batches<C: CommBackend, S: RankSolver>(
    comm: &mut C,
    out: &mut RankOutput,
    algo: Algo,
    factors: &S,
    y_locals: Vec<Vec<Mat>>,
    tile: Option<usize>,
) -> Result<(), FactorError> {
    for (bi, mut y) in y_locals.into_iter().enumerate() {
        timed_solve(comm, out, algo, bi, |comm| {
            factors.solve(comm, &mut y, tile);
            Ok(y)
        })?;
    }
    Ok(())
}

/// Runs batch `bi`'s `solve` up to a closing barrier, recording its wall
/// and modeled time and its solution panels.
fn timed_solve<C: CommBackend>(
    comm: &mut C,
    out: &mut RankOutput,
    algo: Algo,
    bi: usize,
    solve: impl FnOnce(&mut C) -> Result<Vec<Mat>, FactorError>,
) -> Result<(), FactorError> {
    let vt0 = comm.virtual_time();
    let t0 = Instant::now();
    let _span = bt_obs::span_with("solver", "solve_batch", || {
        format!("{{\"algo\":\"{}\",\"batch\":{bi}}}", algo.name())
    });
    let x = solve(comm)?;
    comm.barrier();
    out.solve_wall.push(t0.elapsed());
    out.solve_vt.push(comm.virtual_time() - vt0);
    out.x_local.push(x);
    Ok(())
}

fn run_driver<S: BlockRowSource + Sync>(
    p: usize,
    model: CostModel,
    src: &S,
    batches: &[BlockVec],
    algo: Algo,
) -> Result<DistOutcome, FactorError> {
    let cfg = DriverConfig::new(p).with_model(model);
    run_driver_cfg(&cfg, src, batches, algo)
}

/// Dispatches to the `BT_BACKEND`-selected backend (monomorphized per
/// backend; no dynamic dispatch on the rank hot path).
fn run_driver_cfg<S: BlockRowSource + Sync>(
    cfg: &DriverConfig,
    src: &S,
    batches: &[BlockVec],
    algo: Algo,
) -> Result<DistOutcome, FactorError> {
    match BackendKind::from_env() {
        BackendKind::Sim => solve_cfg_on::<SimBackend, S>(cfg, algo, src, batches),
        BackendKind::Shm => solve_cfg_on::<ShmBackend, S>(cfg, algo, src, batches),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_blocktri::gen::{materialize, random_rhs, ClusteredToeplitz, Poisson2D, RandomDominant};

    const ZERO: CostModel = CostModel {
        latency_s: 0.0,
        per_byte_s: 0.0,
        flop_rate: f64::INFINITY,
        threads_per_rank: 1,
    };

    fn zero_cfg(p: usize) -> DriverConfig {
        DriverConfig::new(p).with_model(ZERO)
    }

    #[test]
    fn ard_spike_and_pcr_drivers_agree() {
        let src = ClusteredToeplitz::standard(48, 4, 5);
        let t = materialize(&src);
        let y = vec![random_rhs(48, 4, 3, 2)];
        let xa = &ard_solve_cfg(&zero_cfg(4), &src, &y).unwrap().x[0];
        let xs = &spike_solve_cfg(&zero_cfg(4), &src, &y).unwrap().x[0];
        let xp = &pcr_solve_cfg(&zero_cfg(4), &src, &y).unwrap().x[0];
        assert!(t.rel_residual(xa, &y[0]) < 1e-11);
        assert!(xs.rel_diff(xa) < 1e-10);
        assert!(xp.rel_diff(xa) < 1e-10);
    }

    #[test]
    fn pcr_driver_on_wide_spectrum() {
        // PCR works where ARD's exact scan cannot.
        let src = Poisson2D::new(200, 5);
        let t = materialize(&src);
        let batches: Vec<_> = (0..3).map(|seed| random_rhs(200, 5, 2, seed)).collect();
        let out = pcr_solve_cfg(&zero_cfg(4), &src, &batches).unwrap();
        for (seed, (x, y)) in out.x.iter().zip(&batches).enumerate() {
            assert!(t.rel_residual(x, y) < 1e-11, "seed {seed}");
        }
        assert!(out.factor_bytes > 0);
    }

    #[test]
    fn spike_factors_reused_across_batches() {
        // One setup serves every batch: the same batch twice, against the
        // same factors, gives the same answer.
        let src = ClusteredToeplitz::standard(64, 6, 1);
        let y = random_rhs(64, 6, 2, 3);
        let out = spike_solve_cfg(&zero_cfg(4), &src, &[y.clone(), y]).unwrap();
        assert_eq!(out.x[0], out.x[1], "same batch, same factors, same answer");
    }

    #[test]
    fn timings_total_adds_phases() {
        let t = PhaseTimings {
            setup_wall: Duration::from_millis(5),
            setup_modeled: 1.0,
            solve_wall: vec![Duration::from_millis(2), Duration::from_millis(3)],
            solve_modeled: vec![0.25, 0.5],
        };
        assert_eq!(t.total_wall(), Duration::from_millis(10));
        assert!((t.total_modeled() - 1.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one block row per rank")]
    fn too_many_ranks_rejected() {
        let src = RandomDominant::new(2, 2, 1.5, 0);
        let y = random_rhs(2, 2, 1, 0);
        let _ = ard_solve_dist(4, CostModel::zero(), &src, &[y]);
    }

    #[test]
    #[should_panic(expected = "at least one right-hand-side batch")]
    fn empty_batches_rejected() {
        let src = RandomDominant::new(4, 2, 1.5, 0);
        let _ = ard_solve_dist(2, CostModel::zero(), &src, &[]);
    }
}
