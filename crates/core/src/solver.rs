//! The [`RankSolver`] trait: the one interface every factor kind in the
//! suite implements.
//!
//! Every kind splits the same way: a matrix-dependent setup (each kind's
//! own `setup` constructor, collective) and then one in-place solve per
//! right-hand-side batch through [`RankSolver::solve`]:
//!
//! * [`crate::state::ArdRankFactors`] — the paper's accelerated recursive
//!   doubling. What a solve runs follows from what setup stored: the
//!   full replay; the memory-lean replay once
//!   [`crate::state::ArdRankFactors::shed_prefixes`] dropped the prefix
//!   matrices; or classic recursive doubling's fresh scans when setup ran
//!   with `record_traces = false`;
//! * [`crate::toeplitz::ToeplitzRankFactors`] — the constant-block store,
//!   replayed through the lean body;
//! * [`crate::mixed::MixedRankFactors`] — ARD factors at `f32` (or `f64`
//!   when the gray-zone gate refuses `f32`); a solve converts the panels,
//!   replays and converts back, and the kind asks for refinement by
//!   default ([`RankSolver::default_refinement`]);
//! * [`crate::pcr::PcrRankFactors`] — amortized parallel cyclic
//!   reduction;
//! * [`crate::spike::SpikeRankFactors`] — SPIKE partitioning with a
//!   gathered reduced system.
//!
//! [`crate::session::ArdSessionOn`] keeps any of them alive across calls,
//! [`crate::driver`] runs the ARD, RD, PCR and SPIKE kinds inside one
//! world, and [`crate::refine::solve_refined`] wraps any of them in
//! iterative refinement.

use bt_comm::CommBackend;
use bt_dense::{Element, Mat};

use crate::mixed::Precision;

/// Rank-level factors of a distributed solver whose setup does not
/// depend on the right-hand sides.
///
/// Generic over the element type `E` the panels are solved at (`f64`
/// for every kind except the `f32` ARD factors underneath
/// [`crate::mixed::MixedRankFactors`]).
pub trait RankSolver<E: Element = f64> {
    /// Solves one right-hand-side batch in place: `panels[k]` is the
    /// `M x R` panel of this rank's `k`-th owned row, `y` on entry and
    /// `x` on exit. `tile` is the RHS tile width of the replay's
    /// pipelined scans (`None`: the cost model picks it); results are
    /// bitwise identical for every tile, and kinds without a pipelined
    /// scan ignore it. Collective: every rank calls it together.
    ///
    /// # Panics
    ///
    /// Panics on panel shape mismatch.
    fn solve<C: CommBackend>(&self, comm: &mut C, panels: &mut [Mat<E>], tile: Option<usize>);

    /// Bytes of factor state stored on this rank.
    fn storage_bytes(&self) -> u64;

    /// Shrinks the rank's pooled solve workspace to at most
    /// `max_pooled_bytes` of idle capacity (largest buffers first),
    /// returning the bytes released; see [`bt_dense::Workspace::trim_to`].
    /// Kinds without a pool release nothing.
    fn trim_workspace(&self, _max_pooled_bytes: u64) -> u64 {
        0
    }

    /// Element type the factors are stored at.
    fn precision(&self) -> Precision {
        Precision::of::<E>()
    }

    /// `(max_sweeps, tol)` of the iterative refinement a solve gets when
    /// the caller asks for none ([`crate::refine::solve_refined`]);
    /// `None` when one solve is already final.
    fn default_refinement(&self) -> Option<(usize, f64)> {
        None
    }
}
