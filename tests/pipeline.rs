//! Pipeline-correctness tests for the RHS-tiled replay solve.
//!
//! The software pipeline (DESIGN.md §6.9) reorders *communication* —
//! panels travel in column tiles behind nonblocking receives — but must
//! never reorder *arithmetic*: `RankSolver::solve` at an explicit tile
//! is required to be bitwise identical to `solve_replay_into` (the cost
//! model's tile) for every tile size,
//! including degenerate ones (`tile = 1`, `tile > R`, `R % tile != 0`).
//! `Mat` equality is element-exact, so `assert_eq!` pins that.
//!
//! A two-rank crossed-isend test guards the nonblocking layer's
//! deadlock-freedom: both ranks post their sends before either waits.

use block_tridiag_suite::ard::state::{ArdRankFactors, RankSystem};
use block_tridiag_suite::ard::RankSolver;
use block_tridiag_suite::blocktri::gen::{rhs_panel, ClusteredToeplitz};
use block_tridiag_suite::blocktri::BlockRowSource;
use block_tridiag_suite::dense::Mat;
use block_tridiag_suite::mpsim::{run_spmd, CommBackend, CostModel};
use proptest::prelude::*;

/// Solves one batch with the given tile width on every rank and returns
/// the per-rank solution panels. A nonzero cost model so the virtual
/// clock actually gates `avail_at` and the nonblocking receive paths
/// (post / wait / overlap accounting) are exercised for real.
fn solve_tiled(src: &ClusteredToeplitz, p: usize, r: usize, tile: Option<usize>) -> Vec<Vec<Mat>> {
    let m = src.m();
    let out = run_spmd(p, CostModel::cluster(), |comm| {
        let sys = RankSystem::from_source(src, p, comm.rank());
        let factors = ArdRankFactors::setup(comm, &sys, true).expect("setup");
        let y: Vec<Mat> = (sys.lo..sys.hi).map(|i| rhs_panel(m, r, 7, i)).collect();
        match tile {
            Some(t) => {
                let mut x = y;
                factors.solve(comm, &mut x, Some(t));
                x
            }
            None => {
                let mut x: Vec<Mat> = y.iter().map(|p| Mat::zeros(p.rows(), p.cols())).collect();
                factors.solve_replay_into(comm, &y, &mut x);
                x
            }
        }
    });
    out.results
}

/// The tile widths every shape is checked against: fully serialized
/// columns, a non-divisor, the exact width (unpiped) and an
/// over-wide tile (single-tile pipeline, `tile > R`).
fn tile_sweep(r: usize) -> Vec<usize> {
    let mut tiles = vec![1, 2, 3, r.max(1), r + 5];
    tiles.retain(|&t| t >= 1);
    tiles.dedup();
    tiles
}

#[test]
fn tiled_replay_bitwise_identical_across_tile_sweep() {
    let (n, m, p, r) = (24, 3, 5, 7);
    let src = ClusteredToeplitz::standard(n, m, 11);
    let base = solve_tiled(&src, p, r, None);
    for tile in tile_sweep(r) {
        let tiled = solve_tiled(&src, p, r, Some(tile));
        assert_eq!(tiled, base, "tile={tile} diverged from solve_replay_into");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary shapes and arbitrary tile widths — degenerate ones
    /// included — the pipelined replay reproduces the unpiped panels
    /// bit for bit.
    #[test]
    fn tiled_replay_bitwise_identical_for_any_shape(
        (n, m, p, r, tile, seed) in (4usize..28, 1usize..5, 1usize..6, 1usize..9, 1usize..12, 0u64..500)
    ) {
        let p = p.min(n);
        let src = ClusteredToeplitz::standard(n, m, seed);
        let base = solve_tiled(&src, p, r, None);
        let tiled = solve_tiled(&src, p, r, Some(tile));
        prop_assert_eq!(tiled, base, "n={} m={} p={} r={} tile={}", n, m, p, r, tile);
    }
}

/// Deadlock regression for the nonblocking layer: two ranks post
/// *crossed* isends (each sends to the other before either receives).
/// Eager buffered sends mean neither blocks; the posted receives then
/// complete in either order. A blocking sendrecv ordered naively would
/// hang here — this pins that the isend/irecv path cannot.
#[test]
fn crossed_isends_between_two_ranks_complete() {
    let m = 4;
    let out = run_spmd(2, CostModel::cluster(), |comm| {
        let me = comm.rank();
        let peer = 1 - me;
        let mine = Mat::from_fn(m, m, |i, j| (me * 100 + i * m + j) as f64);
        let send = comm.isend_panel(peer, 3, mine.as_ref());
        let recv = comm.irecv_panel_into(peer, 3, Mat::<f64>::zeros(m, m));
        comm.send_wait(send);
        let got = comm.recv_wait(recv);
        let want = Mat::from_fn(m, m, |i, j| (peer * 100 + i * m + j) as f64);
        assert_eq!(got, want);
        comm.stats().nb_recvs
    });
    assert_eq!(out.results, vec![1, 1]);
}
