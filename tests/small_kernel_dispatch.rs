//! Dispatch regression for the replay's dense kernels. At an ARD block
//! order of 16 every replay product is an `M x M · M x R` GEMM, and the
//! small-block kernels serve that shape at any width `R` — so a warm
//! replay must never reach the packed kernel, which repacks both
//! operands on every call. Observed through the `bt_dense.gemm.*`
//! counters with observability on. The counters are process-global, so
//! this binary holds only this one test.

use block_tridiag_suite::ard::state::{ArdRankFactors, RankSystem};
use block_tridiag_suite::ard::RankSolver;
use block_tridiag_suite::blocktri::gen::{rhs_panel, ClusteredToeplitz};
use block_tridiag_suite::comm::CommBackend;
use block_tridiag_suite::dense::Mat;
use block_tridiag_suite::mpsim::{run_spmd, CostModel};
use block_tridiag_suite::obs as bt_obs;

const ZERO: CostModel = CostModel {
    latency_s: 0.0,
    per_byte_s: 0.0,
    flop_rate: f64::INFINITY,
    threads_per_rank: 1,
};

#[test]
fn warm_m16_r64_replay_issues_no_packed_gemm() {
    bt_obs::set_enabled(true);
    let (n, m, p, r) = (32, 16, 2, 64);
    let src = ClusteredToeplitz::standard(n, m, 3);
    let results = run_spmd(p, ZERO, |comm| {
        let sys = RankSystem::from_source(&src, p, comm.rank());
        let factors = ArdRankFactors::setup(comm, &sys, true).expect("setup");
        let y: Vec<Mat> = (sys.lo..sys.hi).map(|i| rhs_panel(m, r, 0, i)).collect();
        let mut warm = y.clone();
        factors.solve(comm, &mut warm, None);
        // Rank 0 brackets both ranks' warm solves between barriers.
        comm.barrier();
        let before = (comm.rank() == 0).then(bt_obs::counters_snapshot);
        comm.barrier();
        let mut x = y;
        factors.solve(comm, &mut x, None);
        comm.barrier();
        let diff = before.map(|b| bt_obs::counters_diff(&b));
        (diff, x == warm)
    });
    for (rank, (_, same)) in results.results.iter().enumerate() {
        assert!(same, "rank {rank}: warm replay changed the answer");
    }
    let diff = results.results[0].0.as_ref().expect("rank 0 diff");
    let count = |name: &str| diff.get(name).copied().unwrap_or(0);
    assert_eq!(
        count("bt_dense.gemm.packed_calls"),
        0,
        "M={m} R={r} replay took the packed kernel"
    );
    assert_eq!(
        count("bt_dense.gemm.axpy_calls"),
        0,
        "M={m} R={r} replay took the AXPY kernel"
    );
    // Per rank: N/P - 1 forward and as many backward recurrence steps,
    // N/P fixups each way on the non-boundary rank, N/P diagonal
    // products — every one a small-block call.
    assert!(
        count("bt_dense.gemm.small_calls") >= (p * (n / p - 1) * 2 + p * n / p) as u64,
        "small_calls = {}",
        count("bt_dense.gemm.small_calls")
    );
}
