//! Bitwise pin of the simulator backend across the `CommBackend`
//! refactor: exact modeled clocks (as `f64` bit patterns), FNV hashes of
//! the solution bytes, and the message/byte/flop counters of three
//! representative runs. Captured on the pre-refactor concrete `Comm`;
//! the refactored simulator must reproduce every value exactly — the
//! trait seam is a pure code motion for this backend. Uses the
//! explicit `SimBackend` entry points so the pin holds under any
//! `BT_BACKEND`.
//!
//! Modeled clocks and counters depend only on problem shape, so those
//! pins hold on every kernel path. The solution-byte hashes were
//! captured on the AVX2+FMA kernels — fused rounding differs from the
//! scalar/NEON paths — so they are asserted only when that ISA is the
//! active dispatch target.
//!
//! Deliberate re-pin: the factors store `D_i^{-1}` instead of `LU(D_i)`,
//! so the replay's diagonal step is a GEMM. That moves the solution
//! bytes, and setup charges one `M x M` inverse per stored diagonal (and
//! per non-first rank's boundary diagonal), which moves the setup clock
//! and the flop counter. Solve clocks, message/byte counts, overlap, PCR
//! and collectives are unchanged.

use bt_ard::driver::{solve_cfg_on, Algo, DriverConfig};
use bt_ard::state::{ArdRankFactors, RankSystem};
use bt_ard::RankSolver;
use bt_blocktri::gen::{random_rhs, rhs_panel, ClusteredToeplitz};
use bt_blocktri::BlockVec;
use bt_dense::simd::{active, Isa};
use bt_dense::Mat;
use bt_mpsim::{run_spmd, CommBackend, CostModel, SimBackend};

/// True when the kernel dispatch matches the path the solution-byte
/// pins were captured on.
fn pinned_isa() -> bool {
    active() == Isa::Avx2Fma
}

fn hash_mat(h: &mut u64, m: &Mat) {
    let mut acc = *h;
    for j in 0..m.cols() {
        for &v in m.col(j) {
            for b in v.to_bits().to_le_bytes() {
                acc ^= u64::from(b);
                acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    *h = acc;
}

fn hash_blockvecs(xs: &[BlockVec]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for blk in &x.blocks {
            hash_mat(&mut h, blk);
        }
    }
    h
}

/// The full ARD driver path (setup + replay solves) under the cluster
/// model: modeled clocks, solution bytes, and world counters.
#[test]
fn ard_driver_is_bitwise_pinned() {
    let src = ClusteredToeplitz::standard(32, 3, 7);
    let batches: Vec<BlockVec> = (0..2).map(|s| random_rhs(32, 3, 5, 40 + s)).collect();
    // Tile = R pins the scan pipeline to the cost model's own choice for
    // R <= 16, so the modeled solve clocks hold under any
    // `BT_ARD_RHS_TILE`.
    let cfg = DriverConfig::new(4)
        .with_model(CostModel::cluster())
        .with_threads_per_rank(1)
        .with_rhs_tile(5);
    let out = solve_cfg_on::<SimBackend, _>(&cfg, Algo::Ard, &src, &batches).unwrap();

    let x_hash = hash_blockvecs(&out.x);
    let setup_bits = out.timings.setup_modeled.to_bits();
    let solve_bits: Vec<u64> = out
        .timings
        .solve_modeled
        .iter()
        .map(|s| s.to_bits())
        .collect();
    let total = out.stats.total();

    if pinned_isa() {
        assert_eq!(x_hash, 0xbd22_a3e5_1f57_d1f2, "ARD solution bytes drifted");
    }
    assert_eq!(
        setup_bits, 0x3f00_8b52_28f8_b9e9,
        "modeled setup clock drifted"
    );
    assert_eq!(
        solve_bits,
        vec![0x3eea_ea33_8763_5870, 0x3eea_ea33_8763_5870],
        "modeled solve clocks drifted"
    );
    assert_eq!(
        (total.msgs_sent, total.bytes_sent),
        (100, 6960),
        "message/byte counters drifted"
    );
    assert_eq!(total.flops, 48708, "flop counter drifted");
}

/// The PR 5 pipelined path: tiled replay with nonblocking receives,
/// including the overlap accounting, on a raw `run_spmd` world.
#[test]
fn tiled_replay_is_bitwise_pinned() {
    let (n, m, p, r, tile) = (16, 3, 4, 12, 4);
    let src = ClusteredToeplitz::standard(n, m, 1);
    let out = run_spmd(p, CostModel::cluster(), |comm| {
        let sys = RankSystem::from_source(&src, p, comm.rank());
        let factors = ArdRankFactors::setup(comm, &sys, true).expect("setup");
        let mut x: Vec<Mat> = (sys.lo..sys.hi).map(|i| rhs_panel(m, r, 3, i)).collect();
        factors.solve(comm, &mut x, Some(tile));
        x
    });

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for panels in &out.results {
        for panel in panels {
            hash_mat(&mut h, panel);
        }
    }
    if pinned_isa() {
        assert_eq!(
            h, 0xc33a_9872_6ad9_4983,
            "tiled replay solution bytes drifted"
        );
    }
    assert_eq!(
        out.modeled_seconds.to_bits(),
        0x3f02_ebb3_fb6c_32de,
        "modeled wall clock drifted"
    );
    assert_eq!(
        out.overlap_seconds().to_bits(),
        0x3efe_40a1_9f91_4425,
        "overlap accounting drifted"
    );
    let total = out.stats.total();
    assert_eq!(
        (total.msgs_sent, total.bytes_sent, total.nb_recvs),
        (72, 7728, 30),
        "pipelined counters drifted"
    );
}

/// The PCR comparator (halo exchanges + allreduce coordination).
#[test]
fn pcr_driver_is_bitwise_pinned() {
    let src = ClusteredToeplitz::standard(24, 2, 3);
    let batches = vec![random_rhs(24, 2, 4, 77)];
    let cfg = DriverConfig::new(4)
        .with_model(CostModel::hpc())
        .with_threads_per_rank(1);
    let out = solve_cfg_on::<SimBackend, _>(&cfg, Algo::Pcr, &src, &batches).unwrap();

    if pinned_isa() {
        assert_eq!(
            hash_blockvecs(&out.x),
            0x72eb_1958_84f9_82b6,
            "PCR solution bytes drifted"
        );
    }
    assert_eq!(
        out.timings.solve_modeled[0].to_bits(),
        0x3ef0_20c0_871c_a8ff,
        "PCR modeled solve clock drifted"
    );
    let total = out.stats.total();
    assert_eq!(
        (total.msgs_sent, total.bytes_sent),
        (98, 14448),
        "PCR counters drifted"
    );
}

/// Collective tag/clock sequences: a mixed collective workload on the
/// hpc model must reproduce the exact virtual clock it had before the
/// collectives moved into trait default methods.
#[test]
fn collective_clock_is_bitwise_pinned() {
    let out = run_spmd(8, CostModel::hpc(), |comm| {
        comm.barrier();
        let s = comm.scan_inclusive(comm.rank() as u64 + 1, |a, b| a + b);
        let e = comm.scan_exclusive(s, |a, b| a + b).unwrap_or(0);
        let m = comm.allreduce(e, |a, b| (*a).max(*b));
        let g = comm.allgather(m + comm.rank() as u64);
        let sum: u64 = g.iter().sum();
        let all: Vec<u64> = comm.alltoall((0..8).map(|i| sum + i).collect());
        comm.reduce(3, all.iter().sum::<u64>(), |a, b| a + b)
            .unwrap_or(0)
    });
    assert_eq!(out.results[7], 0, "non-root reduce result drifted");
    assert_eq!(out.results[3], 45024, "collective data path drifted");
    assert_eq!(
        out.modeled_seconds.to_bits(),
        0x3ef7_1a2b_82ee_3a0e,
        "collective virtual clock drifted"
    );
}
