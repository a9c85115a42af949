//! Cross-backend agreement: the same solve on the virtual-clock
//! simulator (`bt-mpsim`) and the real shared-memory runtime (`bt-shm`)
//! must produce bitwise-identical solutions. Both backends share the
//! trait-default collectives and the pooled panel wire format, and every
//! point-to-point pattern in the solvers is deterministic, so any
//! divergence — a reordered reduction, a truncated panel, a halo row off
//! by one — shows up as a differing bit pattern, not a tolerance miss.

use bt_ard::driver::{solve_cfg_on, Algo, DriverConfig};
use bt_ard::state::{ArdRankFactors, RankSystem};
use bt_ard::RankSolver;
use bt_blocktri::gen::{random_rhs, rhs_panel, ClusteredToeplitz};
use bt_blocktri::{BlockRowSource, BlockVec};
use bt_dense::Mat;
use bt_mpsim::{run_spmd, CommBackend, CostModel, SimBackend};
use bt_shm::{run_shm, ShmBackend};
use proptest::prelude::*;

const ZERO: CostModel = CostModel {
    latency_s: 0.0,
    per_byte_s: 0.0,
    flop_rate: f64::INFINITY,
    threads_per_rank: 1,
};

fn bits_of_mat(m: &Mat) -> Vec<u64> {
    let mut bits = Vec::with_capacity(m.rows() * m.cols());
    for j in 0..m.cols() {
        bits.extend(m.col(j).iter().map(|v| v.to_bits()));
    }
    bits
}

fn bits_of_blockvecs(xs: &[BlockVec]) -> Vec<u64> {
    xs.iter()
        .flat_map(|x| x.blocks.iter().flat_map(bits_of_mat))
        .collect()
}

/// Runs the full ARD driver on both backends and asserts bitwise-equal
/// solutions for every batch.
fn assert_ard_agreement<S: BlockRowSource + Sync>(
    cfg: &DriverConfig,
    src: &S,
    batches: &[BlockVec],
) {
    let sim = solve_cfg_on::<SimBackend, _>(cfg, Algo::Ard, src, batches).unwrap();
    let shm = solve_cfg_on::<ShmBackend, _>(cfg, Algo::Ard, src, batches).unwrap();
    assert_eq!(
        bits_of_blockvecs(&sim.x),
        bits_of_blockvecs(&shm.x),
        "sim and shm ARD solutions diverged (p={})",
        cfg.p
    );
    // Exact flop counts are clock-independent and must match too.
    assert_eq!(sim.stats.total().flops, shm.stats.total().flops);
}

#[test]
fn ard_driver_agrees_across_backends() {
    let src = ClusteredToeplitz::standard(64, 3, 7);
    let batches: Vec<BlockVec> = (0..2).map(|s| random_rhs(64, 3, 5, 40 + s)).collect();
    for p in [1, 2, 4, 8] {
        let cfg = DriverConfig::new(p)
            .with_model(ZERO)
            .with_threads_per_rank(1);
        assert_ard_agreement(&cfg, &src, &batches);
    }
}

#[test]
fn lean_replay_agrees_across_backends() {
    // The memory-lean boundary-recurrence replay exercises a different
    // message schedule (recomputed prefixes) than the stored-factor path.
    let src = ClusteredToeplitz::standard(48, 4, 11);
    let batches = vec![random_rhs(48, 4, 3, 5)];
    let cfg = DriverConfig::new(8)
        .with_model(ZERO)
        .with_lean()
        .with_threads_per_rank(1);
    assert_ard_agreement(&cfg, &src, &batches);
}

#[test]
fn tiled_replay_agrees_across_backends() {
    // The PR 5 pipelined path: RHS-tiled replay with nonblocking
    // receives posted a tile ahead. On shm the posts are genuinely
    // concurrent, so this doubles as an ordering test for the SPSC wire.
    let (n, m, p, r, tile) = (16, 3, 4, 12, 4);
    let src = ClusteredToeplitz::standard(n, m, 1);
    let sim = run_spmd(p, ZERO, |comm| {
        let sys = RankSystem::from_source(&src, p, comm.rank());
        let factors = ArdRankFactors::setup(comm, &sys, true).expect("setup");
        let mut x: Vec<Mat> = (sys.lo..sys.hi).map(|i| rhs_panel(m, r, 3, i)).collect();
        factors.solve(comm, &mut x, Some(tile));
        x.iter().flat_map(bits_of_mat).collect::<Vec<u64>>()
    });
    let shm = run_shm(p, ZERO, |comm| {
        let sys = RankSystem::from_source(&src, p, comm.rank());
        let factors = ArdRankFactors::setup(comm, &sys, true).expect("setup");
        let mut x: Vec<Mat> = (sys.lo..sys.hi).map(|i| rhs_panel(m, r, 3, i)).collect();
        factors.solve(comm, &mut x, Some(tile));
        x.iter().flat_map(bits_of_mat).collect::<Vec<u64>>()
    });
    assert_eq!(
        sim.results, shm.results,
        "tiled replay diverged across backends"
    );
}

#[test]
fn pcr_driver_agrees_across_backends() {
    // PCR's halo exchanges (sendrecv pairs at doubling distances) plus
    // the allreduce coordination rounds.
    let src = ClusteredToeplitz::standard(24, 2, 3);
    let batches = vec![random_rhs(24, 2, 4, 77)];
    for p in [2, 4, 8] {
        let cfg = DriverConfig::new(p)
            .with_model(ZERO)
            .with_threads_per_rank(1);
        let sim = solve_cfg_on::<SimBackend, _>(&cfg, Algo::Pcr, &src, &batches).unwrap();
        let shm = solve_cfg_on::<ShmBackend, _>(&cfg, Algo::Pcr, &src, &batches).unwrap();
        assert_eq!(
            bits_of_blockvecs(&sim.x),
            bits_of_blockvecs(&shm.x),
            "sim and shm PCR solutions diverged (p={p})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random shapes, world sizes, and batch counts: the driver solution
    /// is bitwise backend-independent.
    #[test]
    fn ard_solution_is_backend_independent(
        p in 1usize..9,
        m in 2usize..5,
        r in 1usize..5,
        salt in 0u64..1000,
        lean in proptest::bool::ANY,
    ) {
        let n = 8 * p.max(2); // a few rows per rank at every world size
        let src = ClusteredToeplitz::standard(n, m, salt);
        let batches = vec![random_rhs(n, m, r, salt ^ 0x5a5a)];
        let mut cfg = DriverConfig::new(p).with_model(ZERO).with_threads_per_rank(1);
        if lean {
            cfg = cfg.with_lean();
        }
        let sim = solve_cfg_on::<SimBackend, _>(&cfg, Algo::Ard, &src, &batches).unwrap();
        let shm = solve_cfg_on::<ShmBackend, _>(&cfg, Algo::Ard, &src, &batches).unwrap();
        prop_assert_eq!(
            bits_of_blockvecs(&sim.x),
            bits_of_blockvecs(&shm.x),
            "p={} m={} r={} salt={} lean={}", p, m, r, salt, lean
        );
    }
}
