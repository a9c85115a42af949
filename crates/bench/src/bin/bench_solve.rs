//! Solver-level allocation benchmark: warm (workspace-pooled) replay vs
//! the cold allocate-per-call baseline, swept over batch width `R`.
//!
//! The cold baseline re-runs each solve after draining the rank
//! workspace and the message-panel pool, which reproduces the
//! pre-workspace behaviour (every temporary and every message payload
//! heap-allocated per call). The warm path reuses caller-held output
//! panels via [`ArdRankFactors::solve_replay_into`] with the pools left
//! warm — the allocation-free hot path `tests/workspace.rs` pins.
//!
//! Emits `BENCH_solve.json` at the workspace root (override with
//! `--out`): per-`R` setup time, cold/warm best-of-N solve wall times,
//! per-RHS replay times and the workspace high-water mark.
//!
//! ```text
//! cargo run --release -p bt-bench --bin bench_solve -- \
//!     --n 256 --m 16 --p 4 --rs 1,16,256 --reps 5
//! cargo run --release -p bt-bench --bin bench_solve -- --smoke 1
//! ```

use std::time::Instant;

use bt_ard::state::{ArdRankFactors, RankSystem};
use bt_ard::RankSolver;
use bt_bench::Args;
use bt_blocktri::gen::{rhs_panel, ClusteredToeplitz};
use bt_dense::Mat;
use bt_mpsim::{panel_pool_drain, run_spmd, Comm, CommBackend, CostModel};

const ZERO: CostModel = CostModel {
    latency_s: 0.0,
    per_byte_s: 0.0,
    flop_rate: f64::INFINITY,
    threads_per_rank: 1,
};

/// Rank-synchronized best-of-`reps` wall time of one collective call.
fn time_collective(comm: &mut Comm, reps: usize, mut f: impl FnMut(&mut Comm)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        // Barrier so no rank starts the timed region early.
        let _ = comm.allreduce(0u64, |a, b| (*a).max(*b));
        let t0 = Instant::now();
        f(comm);
        let dt = t0.elapsed().as_secs_f64();
        // The collective's cost is the slowest rank's.
        best = best.min(comm.allreduce(dt, |a, b| a.max(*b)));
    }
    best
}

struct Record {
    r: usize,
    setup_s: f64,
    cold_solve_s: f64,
    warm_solve_s: f64,
    ws_bytes_high_water: u64,
}

fn main() {
    let args = Args::from_env();
    let smoke = args.get_usize("smoke", 0) != 0;
    let (dn, dm, dreps) = if smoke { (64, 8, 2) } else { (256, 16, 5) };
    let n = args.get_usize("n", dn);
    let m = args.get_usize("m", dm);
    let p = args.get_usize("p", 4);
    let default_rs: &[usize] = if smoke { &[1, 4] } else { &[1, 16, 256] };
    let rs = args.get_usize_list("rs", default_rs);
    let reps = args.get_usize("reps", dreps);
    let src = ClusteredToeplitz::standard(n, m, 1);

    let mut records = Vec::new();
    for &r in &rs {
        let out = run_spmd(p, ZERO, |comm| {
            let sys = RankSystem::from_source(&src, p, comm.rank());
            let t0 = Instant::now();
            let factors = ArdRankFactors::setup(comm, &sys, true).expect("setup");
            let setup_s = comm.allreduce(t0.elapsed().as_secs_f64(), |a, b| a.max(*b));

            let y_local: Vec<Mat> = (sys.lo..sys.hi).map(|i| rhs_panel(m, r, 0, i)).collect();

            // Cold baseline: drain both pools before every call so each
            // solve re-allocates everything, as the pre-workspace code
            // did (outputs included — a fresh copy of `y_local` is
            // solved in place).
            let cold_solve_s = time_collective(comm, reps, |comm| {
                factors.reset_workspace();
                panel_pool_drain();
                let mut x = y_local.clone();
                factors.solve(comm, &mut x, None);
                assert_eq!(x.len(), y_local.len());
            });

            // Warm path: pools stay warm, outputs are reused.
            let mut x: Vec<Mat> = y_local
                .iter()
                .map(|p| Mat::zeros(p.rows(), p.cols()))
                .collect();
            factors.solve_replay_into(comm, &y_local, &mut x); // warm-up
            let warm_solve_s = time_collective(comm, reps, |comm| {
                factors.solve_replay_into(comm, &y_local, &mut x);
            });

            (
                setup_s,
                cold_solve_s,
                warm_solve_s,
                factors.workspace_stats().bytes_high_water,
            )
        });
        let (setup_s, cold_solve_s, warm_solve_s, _) = out.results[0];
        let ws_bytes_high_water = out
            .results
            .iter()
            .map(|&(_, _, _, hw)| hw)
            .max()
            .unwrap_or(0);
        println!(
            "bench_solve: R={r:<4} setup {:>9.3} ms  cold {:>9.3} ms  warm {:>9.3} ms  \
             ({:.2}x, per-RHS warm {:.1} us, ws high-water {} B)",
            setup_s * 1e3,
            cold_solve_s * 1e3,
            warm_solve_s * 1e3,
            cold_solve_s / warm_solve_s,
            warm_solve_s / r as f64 * 1e6,
            ws_bytes_high_water,
        );
        records.push(Record {
            r,
            setup_s,
            cold_solve_s,
            warm_solve_s,
            ws_bytes_high_water,
        });
    }

    let rows: Vec<String> = records
        .iter()
        .map(|rec| {
            format!(
                "    {{\"r\": {}, \"setup_ns\": {:.0}, \"cold_solve_ns\": {:.0}, \
                 \"warm_solve_ns\": {:.0}, \"per_rhs_cold_ns\": {:.0}, \
                 \"per_rhs_warm_ns\": {:.0}, \"warm_speedup_vs_cold\": {:.3}, \
                 \"ws_bytes_high_water\": {}}}",
                rec.r,
                rec.setup_s * 1e9,
                rec.cold_solve_s * 1e9,
                rec.warm_solve_s * 1e9,
                rec.cold_solve_s / rec.r as f64 * 1e9,
                rec.warm_solve_s / rec.r as f64 * 1e9,
                rec.cold_solve_s / rec.warm_solve_s,
                rec.ws_bytes_high_water,
            )
        })
        .collect();
    let generated_unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    // Run metadata following the bt-bench-gemm-v2 convention: detected
    // SIMD path and the environment's kernel thread budget, so stale or
    // cross-host JSON is recognizable.
    let simd = bt_dense::simd::active().name();
    let bt_dense_threads = bt_dense::threading::default_threads();
    let json = format!(
        "{{\n  \"bench\": \"ard_solve_replay_workspace\",\n  \"schema\": \"bt-bench-solve-v2\",\n  \
         \"generated_unix_s\": {generated_unix_s},\n  \
         \"simd\": \"{simd}\",\n  \"bt_dense_threads\": {bt_dense_threads},\n  \
         \"n\": {n},\n  \"m\": {m},\n  \"p\": {p},\n  \
         \"reps\": {reps},\n  \"smoke\": {smoke},\n  \
         \"note\": \"best-of-N wall clock, slowest-rank times; 'cold' drains the \
         workspace and panel pools per call (pre-workspace allocate-per-call \
         baseline), 'warm' reuses pooled buffers and caller-held outputs\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solve.json");
    let path = args.get_str("out").unwrap_or(default_path).to_string();
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench_solve: wrote {path}"),
        Err(e) => eprintln!("bench_solve: could not write {path}: {e}"),
    }
    bt_bench::emit_obs(&args);
}
