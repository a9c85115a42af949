//! Produces a Chrome-tracing timeline of one accelerated setup + solves.
//!
//! Load the output JSON in `chrome://tracing` or <https://ui.perfetto.dev>
//! to see the parallel schedule on the virtual clock: the local scan
//! work, the `log P` recursive-doubling rounds, and each rank's receive
//! waits. Also prints per-rank wait fractions (a load-balance summary).
//!
//! ```text
//! cargo run --release -p bt-bench --bin trace_ard -- \
//!     --n 256 --m 16 --p 8 --r 8 --out results/ard_trace.json
//! ```

use bt_ard::state::{ArdRankFactors, RankSystem};
use bt_ard::RankSolver;
use bt_bench::Args;
use bt_blocktri::gen::rhs_panel;
use bt_blocktri::gen::ClusteredToeplitz;
use bt_dense::Mat;
use bt_mpsim::{run_spmd_traced, CostModel};

fn main() {
    let args = Args::from_env();
    let n = args.get_usize("n", 256);
    let m = args.get_usize("m", 16);
    let p = args.get_usize("p", 8);
    let r = args.get_usize("r", 8);
    let out_path = args
        .get_str("out")
        .unwrap_or("results/ard_trace.json")
        .to_string();
    let src = ClusteredToeplitz::standard(n, m, 1);

    let (out, trace) = run_spmd_traced(p, CostModel::cluster(), |comm| {
        let sys = RankSystem::from_source(&src, p, comm.rank());
        let factors = ArdRankFactors::setup(comm, &sys, true).expect("setup");
        for batch in 0..2u64 {
            let mut panels: Vec<Mat> = (sys.lo..sys.hi)
                .map(|i| rhs_panel(m, r, batch, i))
                .collect();
            factors.solve(comm, &mut panels, None);
        }
    });

    let path = std::path::PathBuf::from(&out_path);
    trace.write_chrome_json(&path).expect("write trace");
    println!(
        "traced ARD setup + 2 solves: N={n}, M={m}, P={p}, R={r} -> {} events, modeled {:.3} ms",
        trace.len(),
        out.modeled_seconds * 1e3
    );
    println!("trace written to {out_path} (open in chrome://tracing or Perfetto)");
    println!("\nper-rank virtual-time wait fractions (blocked in recv):");
    for rank in 0..p {
        println!("  rank {rank}: {:5.1}%", trace.wait_fraction(rank) * 100.0);
    }
    bt_bench::emit_obs(&args);
}
