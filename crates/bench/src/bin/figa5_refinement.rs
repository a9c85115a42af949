//! **Figure A5 (extension)** — iterative refinement extends the exact
//! scan's accuracy envelope.
//!
//! Inside the "gray zone" — where the prefix products' conditioning has
//! degraded the boundary recovery but not yet broken it down — the
//! factors remain a contraction, so a few `O(M^2 R)` refinement sweeps
//! (distributed residual + replay) recover machine precision. Beyond the
//! breakdown point nothing helps except the windowed mode (Figure A1).
//!
//! ```text
//! cargo run --release -p bt-bench --bin figa5_refinement -- \
//!     --m 6 --p 8 --ns 8,16,24,32,40,48,64 [--csv out.csv]
//! ```

use bt_ard::session::ArdSession;
use bt_ard::state::BoundaryMode;
use bt_bench::{emit, Args, ExpConfig, GenKind, Table};
use bt_blocktri::gen::random_rhs;
use bt_blocktri::BlockTridiag;
use bt_mpsim::CostModel;

fn main() {
    let args = Args::from_env();
    let m = args.get_usize("m", 6);
    let p = args.get_usize("p", 8);
    let gen = GenKind::parse(args.get_str("gen").unwrap_or("poisson"));
    let ns = args.get_usize_list("ns", &[8, 16, 24, 32, 40, 48, 64]);
    let max_sweeps = args.get_usize("sweeps", 10);

    let mut table = Table::new(
        &format!(
            "Figure A5: refinement vs N (gen={}, M={m}, P={p}, exact scan)",
            gen.name()
        ),
        &["N", "unrefined_residual", "sweeps_used", "refined_residual"],
    );

    for &n in &ns {
        let mut cfg = ExpConfig::default_point();
        cfg.n = n;
        cfg.m = m;
        cfg.p = p.min(n);
        cfg.r = 2;
        cfg.gen = gen;
        let src = cfg.source();
        let t = BlockTridiag::from_source(&src);
        let y = random_rhs(n, m, 2, 3);
        let refined =
            ArdSession::create_with(cfg.p, CostModel::zero(), BoundaryMode::ExactScan, &src)
                .and_then(|session| session.solve_refined(&y, max_sweeps, 1e-14));
        match refined {
            Ok((x, history)) => {
                let residual = t.rel_residual(&x, &y);
                // `--sweeps 0` asks for no refinement: no history.
                table.row(&[
                    n.to_string(),
                    format!("{:.1e}", history.first().copied().unwrap_or(residual)),
                    history.len().saturating_sub(1).to_string(),
                    format!("{residual:.1e}"),
                ]);
            }
            Err(e) => {
                table.row(&[
                    n.to_string(),
                    format!("breakdown({})", e.row),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    emit(&args, &table);
    println!(
        "Expected shape: unrefined residuals degrade geometrically with N;\n\
         as long as they stay below ~1 (a contraction), refinement recovers\n\
         ~1e-15 in a handful of sweeps — extending the usable N range of the\n\
         paper's exact-scan algorithm several-fold. Past the breakdown row\n\
         only the windowed mode (Figure A1) helps."
    );
}
