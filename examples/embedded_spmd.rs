//! Embedding the rank-level API in your own SPMD program.
//!
//! The drivers (`ard_solve_dist` & co.) are conveniences; real
//! applications usually already run inside an SPMD world and own their
//! slice of the matrix. This example runs a custom SPMD program on the
//! `bt-mpsim` runtime that:
//!
//! 1. builds each rank's [`RankSystem`] from a shared generator,
//! 2. calls [`ArdRankFactors::setup`] once (collective),
//! 3. generates right-hand sides *locally* per rank (no distribution
//!    step — per-row-deterministic sources make this free),
//! 4. replays solves and combines a reduction over the solution without
//!    ever gathering it.
//!
//! ```text
//! cargo run --release --example embedded_spmd
//! ```

use block_tridiag_suite::ard::{ArdRankFactors, RankSolver, RankSystem};
use block_tridiag_suite::blocktri::gen::{rhs_panel, ClusteredToeplitz};
use block_tridiag_suite::mpsim::{run_spmd, CommBackend, CostModel};

fn main() {
    let (n, m, p, r, nbatches) = (512, 8, 6, 4, 10);
    let src = ClusteredToeplitz::standard(n, m, 99);

    let out = run_spmd(p, CostModel::cluster(), |comm| {
        // 1. Materialize only this rank's rows.
        let sys = RankSystem::from_source(&src, comm.size(), comm.rank());

        // 2. One collective setup; errors are agreed on by all ranks.
        let factors = ArdRankFactors::setup(comm, &sys, true).expect("dominant system");

        // 3+4. Solve batches generated in place; accumulate a local
        // checksum and reduce it at the end.
        let mut local_sum = 0.0f64;
        for batch in 0..nbatches {
            let mut panels: Vec<_> = (sys.lo..sys.hi)
                .map(|i| rhs_panel(m, r, 1000 + batch, i))
                .collect();
            // Solved in place: the right-hand sides become the solution.
            factors.solve(comm, &mut panels, None);
            local_sum += panels
                .iter()
                .map(|panel| panel.as_slice().iter().sum::<f64>())
                .sum::<f64>();
        }
        // Global checksum without gathering the solution.
        let global = comm.allreduce(local_sum, |a, b| a + b);
        (global, factors.storage_bytes())
    });

    // Every rank agrees on the reduction.
    let checksum = out.results[0].0;
    for (rank, (sum, _)) in out.results.iter().enumerate() {
        assert!(
            (sum - checksum).abs() <= checksum.abs() * 1e-12,
            "rank {rank} diverged"
        );
    }
    println!("{nbatches} batches of {r} RHS solved on {p} ranks; global checksum {checksum:.6}");
    println!(
        "per-rank factor storage: {} KiB; total traffic {} KiB in {} messages",
        out.results[0].1 / 1024,
        out.stats.total().bytes_sent / 1024,
        out.stats.total().msgs_sent,
    );
    println!("modeled parallel time: {:.3} ms", out.modeled_seconds * 1e3);
}
