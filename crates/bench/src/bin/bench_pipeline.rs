//! Replay-solve pipelining benchmark: RHS-tiled nonblocking scans vs the
//! single-panel (unpiped) path, under the modeled cluster interconnect.
//!
//! For each batch width `R` the replay solve runs three ways — `tile = R`
//! (unpiped: one panel per scan round), a fixed `tile = 64`, and the
//! cost-model auto-tuned tile ([`bt_ard::scans::auto_rhs_tile`]) — and
//! reports:
//!
//! * `modeled_s` — the slowest rank's virtual-clock delta across one
//!   solve, per the run's [`CostModel`]. This is where pipelining shows:
//!   overlapped rounds charge `max(compute, comm)` instead of their sum.
//! * `wall_s` — best-of-N real wall clock of the collective call
//!   (thread-scheduler noise dominates at simulated scale; modeled time
//!   is the headline figure, wall time the sanity check).
//! * `overlap_s` / `inflight_s` — hidden vs total in-flight seconds
//!   summed over ranks, from the nonblocking-receive accounting; their
//!   ratio is how much of the wire time the pipeline actually hid.
//!
//! Every variant's solution panels are compared bitwise against the
//! unpiped run — the pipeline reorders communication, never arithmetic.
//!
//! Emits `BENCH_pipeline.json` at the workspace root (override with
//! `--out`):
//!
//! ```text
//! cargo run --release -p bt-bench --bin bench_pipeline
//! cargo run --release -p bt-bench --bin bench_pipeline -- --smoke 1
//! ```

use std::time::Instant;

use bt_ard::scans::auto_rhs_tile;
use bt_ard::state::{ArdRankFactors, RankSystem};
use bt_ard::RankSolver;
use bt_bench::Args;
use bt_blocktri::gen::{rhs_panel, ClusteredToeplitz};
use bt_dense::Mat;
use bt_mpsim::{run_spmd, CommBackend, CostModel};

struct Record {
    r: usize,
    variant: &'static str,
    tile: usize,
    n_tiles: usize,
    modeled_s: f64,
    wall_s: f64,
    overlap_s: f64,
    inflight_s: f64,
}

impl Record {
    fn overlap_ratio(&self) -> f64 {
        if self.inflight_s > 0.0 {
            self.overlap_s / self.inflight_s
        } else {
            0.0
        }
    }
}

fn main() {
    let args = Args::from_env();
    let smoke = args.get_usize("smoke", 0) != 0;
    // One block row per rank puts the scan rounds (the communication) on
    // the critical path — the regime the pipeline targets.
    let (dn, dp, dreps) = if smoke { (8, 8, 2) } else { (64, 64, 3) };
    let n = args.get_usize("n", dn);
    let m = args.get_usize("m", 8);
    let p = args.get_usize("p", dp);
    let default_rs: &[usize] = if smoke { &[16, 64] } else { &[16, 256, 4096] };
    let rs = args.get_usize_list("rs", default_rs);
    let reps = args.get_usize("reps", dreps);
    let model = CostModel::cluster();
    let src = ClusteredToeplitz::standard(n, m, 1);

    let mut records: Vec<Record> = Vec::new();
    for &r in &rs {
        let variants: [(&'static str, usize); 3] = [
            ("unpiped", r.max(1)),
            ("fixed64", 64),
            ("auto", auto_rhs_tile(&model, m, r)),
        ];
        let mut baseline: Option<(f64, Vec<Vec<Mat>>)> = None;
        for (variant, tile) in variants {
            let out = run_spmd(p, model, |comm| {
                let sys = RankSystem::from_source(&src, p, comm.rank());
                let factors = ArdRankFactors::setup(comm, &sys, true).expect("setup");
                let y_local: Vec<Mat> = (sys.lo..sys.hi).map(|i| rhs_panel(m, r, 0, i)).collect();
                let mut x: Vec<Mat> = y_local
                    .iter()
                    .map(|p| Mat::zeros(p.rows(), p.cols()))
                    .collect();
                // The copying replay at an explicit tile.
                let replay = |comm: &mut _, x: &mut [Mat]| {
                    for (xk, yk) in x.iter_mut().zip(&y_local) {
                        xk.copy_from(yk);
                    }
                    factors.solve(comm, x, Some(tile));
                };
                replay(comm, &mut x); // warm-up

                // Modeled time: the slowest rank's virtual-clock delta
                // across exactly one solve (deterministic — no reps).
                let v0 = comm.virtual_time();
                let ov0 = comm.overlap_seconds();
                let if0 = comm.inflight_seconds();
                replay(comm, &mut x);
                let dv = comm.virtual_time() - v0;
                let d_ov = comm.overlap_seconds() - ov0;
                let d_if = comm.inflight_seconds() - if0;
                let modeled_s = comm.allreduce(dv, |a, b| a.max(*b));
                let overlap_s = comm.allreduce(d_ov, |a, b| a + b);
                let inflight_s = comm.allreduce(d_if, |a, b| a + b);

                // Wall clock: rank-synchronized best-of-N.
                let mut wall_s = f64::INFINITY;
                for _ in 0..reps {
                    let _ = comm.allreduce(0u64, |a, b| (*a).max(*b));
                    let t0 = Instant::now();
                    replay(comm, &mut x);
                    let dt = t0.elapsed().as_secs_f64();
                    wall_s = wall_s.min(comm.allreduce(dt, |a, b| a.max(*b)));
                }
                (modeled_s, overlap_s, inflight_s, wall_s, x)
            });
            let (modeled_s, overlap_s, inflight_s, wall_s, ..) = out.results[0];
            let x_all: Vec<Vec<Mat>> = out.results.into_iter().map(|(.., x)| x).collect();
            match &baseline {
                // The pipeline must be a pure communication reordering:
                // every tiling reproduces the unpiped panels bitwise.
                Some((_, x_base)) => assert_eq!(
                    &x_all, x_base,
                    "R={r} tile={tile}: pipelined solution differs from unpiped"
                ),
                None => baseline = Some((modeled_s, x_all)),
            }
            let speedup = baseline.as_ref().map_or(1.0, |(base, _)| base / modeled_s);
            let n_tiles = if r == 0 { 1 } else { r.div_ceil(tile) };
            let rec = Record {
                r,
                variant,
                tile,
                n_tiles,
                modeled_s,
                wall_s,
                overlap_s,
                inflight_s,
            };
            println!(
                "bench_pipeline: R={r:<4} {variant:<8} tile={tile:<4} ({n_tiles:>3} tiles)  \
                 modeled {:>9.3} ms ({speedup:.2}x vs unpiped)  wall {:>8.3} ms  \
                 overlap {:.0}%",
                modeled_s * 1e3,
                wall_s * 1e3,
                rec.overlap_ratio() * 1e2,
            );
            records.push(rec);
        }
    }

    // Headline acceptance figure: the widest batch's best pipelined
    // modeled time against its unpiped baseline.
    if let Some(&r_max) = rs.iter().max() {
        let unpiped = records
            .iter()
            .find(|rec| rec.r == r_max && rec.variant == "unpiped")
            .map(|rec| rec.modeled_s);
        let best = records
            .iter()
            .filter(|rec| rec.r == r_max && rec.variant != "unpiped")
            .map(|rec| rec.modeled_s)
            .fold(f64::INFINITY, f64::min);
        if let Some(unpiped) = unpiped {
            println!(
                "bench_pipeline: R={r_max} pipelined speedup {:.2}x (modeled, P={p})",
                unpiped / best
            );
        }
    }

    let unpiped_for = |r: usize| {
        records
            .iter()
            .find(|rec| rec.r == r && rec.variant == "unpiped")
            .map_or(f64::NAN, |rec| rec.modeled_s)
    };
    let rows: Vec<String> = records
        .iter()
        .map(|rec| {
            format!(
                "    {{\"r\": {}, \"variant\": \"{}\", \"tile\": {}, \"n_tiles\": {}, \
                 \"modeled_ns\": {:.0}, \"wall_ns\": {:.0}, \"overlap_ns\": {:.0}, \
                 \"inflight_ns\": {:.0}, \"overlap_ratio\": {:.4}, \
                 \"modeled_speedup_vs_unpiped\": {:.4}}}",
                rec.r,
                rec.variant,
                rec.tile,
                rec.n_tiles,
                rec.modeled_s * 1e9,
                rec.wall_s * 1e9,
                rec.overlap_s * 1e9,
                rec.inflight_s * 1e9,
                rec.overlap_ratio(),
                unpiped_for(rec.r) / rec.modeled_s,
            )
        })
        .collect();
    let generated_unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    // Run metadata following the bt-bench-gemm-v2 convention.
    let simd = bt_dense::simd::active().name();
    let bt_dense_threads = bt_dense::threading::default_threads();
    let json = format!(
        "{{\n  \"bench\": \"ard_replay_pipeline\",\n  \"schema\": \"bt-bench-pipeline-v1\",\n  \
         \"generated_unix_s\": {generated_unix_s},\n  \
         \"simd\": \"{simd}\",\n  \"bt_dense_threads\": {bt_dense_threads},\n  \
         \"n\": {n},\n  \"m\": {m},\n  \"p\": {p},\n  \
         \"reps\": {reps},\n  \"smoke\": {smoke},\n  \
         \"model\": {{\"latency_s\": {:e}, \"per_byte_s\": {:e}, \"flop_rate\": {:e}}},\n  \
         \"note\": \"modeled_ns is the slowest rank's virtual-clock delta for one \
         replay solve; overlap_ratio = hidden / in-flight seconds from the \
         nonblocking-receive accounting; all variants verified bitwise-identical \
         to unpiped\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        model.latency_s,
        model.per_byte_s,
        model.flop_rate,
        rows.join(",\n")
    );
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    let path = args.get_str("out").unwrap_or(default_path).to_string();
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench_pipeline: wrote {path}"),
        Err(e) => eprintln!("bench_pipeline: could not write {path}: {e}"),
    }
    bt_bench::emit_obs(&args);
}
