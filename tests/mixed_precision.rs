//! Cross-precision equivalence suite: the mixed path (`f32` factors +
//! `f64` iterative refinement) must agree with the pure-`f64` solver on
//! every well-conditioned system, on both the virtual-clock and the
//! shared-memory backends — and must *refuse* the half-width factors,
//! falling back to `f64`, on systems past the gray-zone gate.
//!
//! The scalar-kernel leg of these properties is exercised by the CI
//! matrix running this same suite under `BT_DENSE_SIMD=0`.

use block_tridiag_suite::ard::session::{ArdSession, ArdSessionOn};
use block_tridiag_suite::ard::state::RankSystem;
use block_tridiag_suite::ard::{
    MatrixKey, MixedRankFactors, Precision, RankSolver, ServiceConfig, ServiceOn, SolverService,
};
use block_tridiag_suite::blocktri::gen::{materialize, random_rhs, ClusteredToeplitz, Poisson2D};
use block_tridiag_suite::mpsim::{run_spmd, CostModel};
use block_tridiag_suite::shm::ShmBackend;
use proptest::prelude::*;

const ZERO: CostModel = CostModel {
    latency_s: 0.0,
    per_byte_s: 0.0,
    flop_rate: f64::INFINITY,
    threads_per_rank: 1,
};

#[test]
fn mixed_session_takes_f32_path_and_matches_f64() {
    let src = ClusteredToeplitz::standard(64, 4, 7);
    let t = materialize(&src);
    let classic = ArdSession::create(4, ZERO, &src).unwrap();
    let mixed = ArdSession::create_mixed(4, ZERO, &src).unwrap();
    assert_eq!(
        mixed.precision(),
        Precision::F32,
        "clustered system is well inside the gray-zone gate"
    );
    assert_eq!(classic.precision(), Precision::F64);
    // Half-width factors: the dominant M x M panel storage halves.
    assert!(
        mixed.factor_bytes() * 2 <= classic.factor_bytes() + classic.factor_bytes() / 4,
        "f32 factors should be about half the bytes: mixed={} classic={}",
        mixed.factor_bytes(),
        classic.factor_bytes()
    );
    for seed in 0..3 {
        let y = random_rhs(64, 4, 3, seed);
        let xf = classic.solve(&y).unwrap();
        let xm = mixed.solve(&y).unwrap();
        assert!(t.rel_residual(&xm, &y) < 1e-11, "seed {seed}");
        assert!(xm.rel_diff(&xf) < 1e-9, "seed {seed}: {}", xm.rel_diff(&xf));
    }
}

#[test]
fn gray_zone_poisson_falls_back_to_f64() {
    // N=32 Poisson is the pinned "silent degradation" case (Table III):
    // the boundary condition estimate is far above MIXED_COND_MAX, so
    // f32 factors cannot be refined reliably and the mixed setup must
    // keep the f64 factors instead.
    let src = Poisson2D::new(32, 6);
    let t = materialize(&src);
    let mixed = ArdSession::create_mixed(4, ZERO, &src).unwrap();
    assert_eq!(mixed.precision(), Precision::F64, "gate must trip");
    let y = random_rhs(32, 6, 2, 5);
    let (x, history) = mixed.solve_refined(&y, 6, 1e-13).unwrap();
    assert!(t.rel_residual(&x, &y) < 1e-11);
    assert!(!history.is_empty());
}

#[test]
fn fallback_sets_flag_and_records_flight_event() {
    let src = Poisson2D::new(32, 6);
    let out = run_spmd(4, ZERO, |comm| {
        let sys = RankSystem::from_source(&src, 4, comm.rank());
        let f = MixedRankFactors::setup(comm, &sys).unwrap();
        (f.precision(), f.fell_back())
    });
    for (rank, (precision, fell_back)) in out.results.into_iter().enumerate() {
        assert_eq!(precision, Precision::F64, "rank {rank}");
        assert!(fell_back, "rank {rank}: fallback flag must be set");
    }
    // Rank 0 put the decision on the always-on flight recorder.
    let events = block_tridiag_suite::obs::flight::snapshot();
    assert!(
        events
            .iter()
            .any(|e| e.kind == "precision.fallback" && e.detail.contains("gray_zone")),
        "expected a precision.fallback flight event"
    );
}

#[test]
fn well_conditioned_does_not_set_fallback_flag() {
    let src = ClusteredToeplitz::standard(40, 3, 11);
    let out = run_spmd(4, ZERO, |comm| {
        let sys = RankSystem::from_source(&src, 4, comm.rank());
        let f = MixedRankFactors::setup(comm, &sys).unwrap();
        (f.precision(), f.fell_back())
    });
    for (precision, fell_back) in out.results {
        assert_eq!(precision, Precision::F32);
        assert!(!fell_back);
    }
}

#[test]
fn mixed_session_on_shm_backend() {
    // Same mixed path on real threads + wall clocks: the fallback
    // decision and the refined answer must be identical to the
    // virtual-clock backend's.
    let src = ClusteredToeplitz::standard(36, 3, 9);
    let t = materialize(&src);
    let mixed = ArdSessionOn::<ShmBackend>::create_mixed(2, ZERO, &src).unwrap();
    assert_eq!(mixed.precision(), Precision::F32);
    let y = random_rhs(36, 3, 2, 4);
    let x = mixed.solve(&y).unwrap();
    assert!(t.rel_residual(&x, &y) < 1e-11);

    let sim = ArdSession::create_mixed(2, ZERO, &src).unwrap();
    let x_sim = sim.solve(&y).unwrap();
    assert!(
        x.rel_diff(&x_sim) < 1e-12,
        "backend must not change the mixed answer"
    );
}

#[test]
fn service_caches_both_precisions_side_by_side() {
    let src = ClusteredToeplitz::standard(48, 4, 3);
    let t = materialize(&src);
    let service = SolverService::start(ServiceConfig::new(4, ZERO));
    let k64 = service.register(&src).unwrap();
    let k32 = service
        .register_with_precision(&src, Precision::F32)
        .unwrap();
    assert_ne!(k64, k32, "precisions must key separately");
    assert_eq!(
        k64,
        MatrixKey::fingerprint(&src),
        "f64 keys are byte-identical to the classic fingerprint"
    );
    assert_eq!(k32, MatrixKey::fingerprint_with(&src, Precision::F32));
    assert!(service.contains(k64) && service.contains(k32));
    for (key, label) in [(k64, "f64"), (k32, "f32")] {
        let y = random_rhs(48, 4, 2, 21);
        let resp = service.solve(key, &y).unwrap();
        assert!(t.rel_residual(&resp.x, &y) < 1e-11, "{label}");
    }
    // Re-registering either precision is a cache hit, not a refactor.
    assert_eq!(service.register(&src).unwrap(), k64);
    assert_eq!(
        service
            .register_with_precision(&src, Precision::F32)
            .unwrap(),
        k32
    );
}

#[test]
fn service_f32_registration_of_gray_zone_matrix_still_serves() {
    // The F32 registration of an ill-conditioned matrix silently holds
    // f64 fallback factors — the key stays the F32 key (the *request*
    // is what is cached), and answers stay full-accuracy.
    let src = Poisson2D::new(32, 6);
    let t = materialize(&src);
    let service = SolverService::start(ServiceConfig::new(4, ZERO));
    let key = service
        .register_with_precision(&src, Precision::F32)
        .unwrap();
    let y = random_rhs(32, 6, 2, 8);
    let resp = service.solve(key, &y).unwrap();
    assert!(t.rel_residual(&resp.x, &y) < 1e-11);
}

/// Arbitrary well-conditioned problem shape.
#[derive(Debug, Clone)]
struct Shape {
    n: usize,
    m: usize,
    p: usize,
    r: usize,
    seed: u64,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (6usize..36, 1usize..6, 1usize..5, 1usize..4, 0u64..1000).prop_map(|(n, m, p, r, seed)| Shape {
        n,
        m,
        p: p.min(n),
        r,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mixed_agrees_with_f64_for_any_shape(shape in shape_strategy()) {
        let src = ClusteredToeplitz::standard(shape.n, shape.m, shape.seed);
        let t = materialize(&src);
        let classic = ArdSession::create(shape.p, ZERO, &src).unwrap();
        let mixed = ArdSession::create_mixed(shape.p, ZERO, &src).unwrap();
        let y = random_rhs(shape.n, shape.m, shape.r, shape.seed + 1);
        let xf = classic.solve(&y).unwrap();
        let xm = mixed.solve(&y).unwrap();
        let res = t.rel_residual(&xm, &y);
        prop_assert!(res < 1e-10, "shape {shape:?}: mixed residual {res}");
        let diff = xm.rel_diff(&xf);
        prop_assert!(diff < 1e-8, "shape {shape:?}: diff vs f64 {diff}");
    }

    #[test]
    fn mixed_shm_agrees_with_sim_for_any_shape(
        (n, m, seed) in (8usize..24, 1usize..5, 0u64..400),
    ) {
        let src = ClusteredToeplitz::standard(n, m, seed);
        let y = random_rhs(n, m, 2, seed + 3);
        let sim = ArdSession::create_mixed(2, ZERO, &src).unwrap();
        let shm = ArdSessionOn::<ShmBackend>::create_mixed(2, ZERO, &src).unwrap();
        prop_assert_eq!(sim.precision(), shm.precision());
        let a = sim.solve(&y).unwrap();
        let b = shm.solve(&y).unwrap();
        let diff = a.rel_diff(&b);
        prop_assert!(diff < 1e-12, "n={n} m={m} seed={seed}: {diff}");
    }

    #[test]
    fn mixed_service_answers_match_direct_session(
        (n, m, seed) in (8usize..28, 1usize..5, 0u64..300),
    ) {
        let src = ClusteredToeplitz::standard(n, m, seed);
        let t = materialize(&src);
        let service: ServiceOn<block_tridiag_suite::mpsim::SimBackend> =
            SolverService::start(ServiceConfig::new(2.min(n), ZERO));
        let key = service.register_with_precision(&src, Precision::F32).unwrap();
        let y = random_rhs(n, m, 2, seed + 7);
        let resp = service.solve(key, &y).unwrap();
        let res = t.rel_residual(&resp.x, &y);
        prop_assert!(res < 1e-10, "n={n} m={m} seed={seed}: residual {res}");
    }
}
