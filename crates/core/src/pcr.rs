//! Distributed parallel (block) cyclic reduction — the BCYCLIC-style
//! comparator (extension; the paper's related-work family).
//!
//! Parallel cyclic reduction keeps **every** row active: at level `l`
//! (stride `s = 2^l`), each row `i` eliminates its couplings to rows
//! `i - s` and `i + s`:
//!
//! ```text
//! alpha_i = -A_i B_{i-s}^{-1}        gamma_i = -C_i B_{i+s}^{-1}
//! A'_i = alpha_i A_{i-s}             C'_i = gamma_i C_{i+s}
//! B'_i = B_i + alpha_i C_{i-s} + gamma_i A_{i+s}
//! y'_i = y_i + alpha_i y_{i-s} + gamma_i y_{i+s}
//! ```
//!
//! After `ceil(log2 N)` levels every coupling leaves `[0, N)` and each
//! row solves independently: `x_i = B_i^{-1} y_i`. No prefix products
//! ever form, so there is **no conditioning envelope** — PCR is as
//! robust as the sequential eliminations it is built from.
//!
//! Like the accelerated recursive doubling algorithm, all matrix work is
//! right-hand-side independent. [`PcrRankFactors::setup`] stores the
//! per-level elimination coefficients (`alpha`, `gamma`) and the final
//! diagonal factorizations; each [`PcrRankFactors::solve`] then only
//! updates right-hand-side panels. The costs tell the trade-off story
//! (Figure A6):
//!
//! |  | setup flops | per-solve flops | per-solve words |
//! |---|---|---|---|
//! | accelerated RD | `O(M^3 (N/P + log P))` | `O(M^2 R (N/P + log P))` | `O(M R log P)` |
//! | amortized PCR | `O(M^3 (N/P) log N)` | `O(M^2 R (N/P) log N)` | `O(M R (N/P) log N)` |
//!
//! PCR pays a `log N` multiplier on *everything* — the price of its
//! robustness.

use bt_blocktri::{FactorError, RowPartition};
use bt_comm::CommBackend;
use bt_dense::{gemm, gemm_flops, lu_flops, lu_solve_flops, LuFactors, Mat, Trans};

use crate::solver::RankSolver;
use crate::state::RankSystem;

/// Tag bases for the per-level halo exchanges.
mod tags {
    /// Setup rows: `base + 2 * level + direction`.
    pub const SETUP: u64 = 600;
    /// Solve panels: same layout.
    pub const SOLVE: u64 = 760;
}

/// A row's coefficients during elimination.
#[derive(Debug, Clone)]
struct RowCoef {
    a: Mat,
    b: Mat,
    c: Mat,
}

/// Per-level, per-local-row elimination coefficients (None where the
/// partner row is outside the domain).
type LevelCoef = Vec<(Option<Mat>, Option<Mat>)>;

/// Per-peer row index lists: `(peer rank, global rows)`.
type PeerRows = Vec<(usize, Vec<usize>)>;

/// Matrix-dependent PCR state: per-level `alpha`/`gamma` plus the final
/// block-diagonal factorizations.
#[derive(Debug)]
pub struct PcrRankFactors {
    /// Global rows.
    pub n: usize,
    /// Block order.
    pub m: usize,
    /// First owned row.
    pub lo: usize,
    /// One past the last owned row.
    pub hi: usize,
    part: RowPartition,
    levels: Vec<LevelCoef>,
    final_lu: Vec<LuFactors>,
}

/// Which remote rows rank `rank` must receive at stride `s`, and to whom
/// each of its own rows must be sent. Pure function of the partition.
fn halo_plan(part: &RowPartition, rank: usize, s: usize) -> (PeerRows, PeerRows) {
    let n = part.n();
    let range = part.range(rank);
    let (lo, hi) = (range.start, range.end);

    // Needs: for each owned i, rows i-s and i+s (if in-domain, not owned).
    let mut needs: PeerRows = Vec::new();
    let push = |owner: usize, row: usize, list: &mut PeerRows| {
        if let Some(entry) = list.iter_mut().find(|(o, _)| *o == owner) {
            entry.1.push(row);
        } else {
            list.push((owner, vec![row]));
        }
    };
    for i in lo..hi {
        if i >= s {
            let j = i - s;
            if !(lo..hi).contains(&j) {
                push(part.owner(j), j, &mut needs);
            }
        }
        if i + s < n {
            let j = i + s;
            if !(lo..hi).contains(&j) {
                push(part.owner(j), j, &mut needs);
            }
        }
    }
    // Gives: my row j is needed by owner(j + s) (as their i - s) and
    // owner(j - s) (as their i + s).
    let mut gives: PeerRows = Vec::new();
    for j in lo..hi {
        if j + s < n {
            let q = part.owner(j + s);
            if q != rank {
                push(q, j, &mut gives);
            }
        }
        if j >= s {
            let q = part.owner(j - s);
            if q != rank {
                push(q, j, &mut gives);
            }
        }
    }
    // Dedup row lists (a row can be needed twice by the same peer only
    // via distinct directions, which cannot happen for fixed s, but keep
    // the invariant explicit).
    for (_, rows) in needs.iter_mut().chain(gives.iter_mut()) {
        rows.sort_unstable();
        rows.dedup();
    }
    needs.sort_unstable_by_key(|(o, _)| *o);
    gives.sort_unstable_by_key(|(o, _)| *o);
    (needs, gives)
}

impl PcrRankFactors {
    /// Collective setup: runs the `ceil(log2 N)` elimination levels on
    /// the matrix coefficients, storing `alpha`/`gamma` per level and the
    /// final diagonal LU factors.
    ///
    /// # Errors
    ///
    /// [`FactorError`] (coordinated across ranks) if a diagonal block is
    /// singular at some level.
    pub fn setup<C: CommBackend>(comm: &mut C, sys: &RankSystem) -> Result<Self, FactorError> {
        let n = sys.n;
        let m = sys.m;
        let nl = sys.local_len();
        let part = RowPartition::new(n, comm.size());

        let mut rows: Vec<RowCoef> = sys
            .rows
            .iter()
            .map(|r| RowCoef {
                a: r.a.clone(),
                b: r.b.clone(),
                c: r.c.clone(),
            })
            .collect();
        let mut levels: Vec<LevelCoef> = Vec::new();

        let mut s = 1usize;
        let mut level_idx = 0u64;
        let mut pending_err: Option<FactorError> = None;
        while s < n {
            // ---- Halo exchange of current (A, B, C) rows: the stencil
            // is symmetric (I need rows from exactly the peers that need
            // mine, row-for-row), so each peer is one paired
            // `exchange_panel` of row-stacked `count*M x 3M` panels
            // `[A | B | C]`. Sorted peer order on both sides plus
            // eager-buffered sends make the pairing deadlock-free.
            let (needs, gives) = halo_plan(&part, comm.rank(), s);
            let tag = tags::SETUP + 2 * level_idx;
            debug_assert_eq!(needs.len(), gives.len());
            let mut remote: Vec<(usize, RowCoef)> = Vec::new();
            for ((src, need_rows), (dst, give_rows)) in needs.iter().zip(&gives) {
                debug_assert_eq!(src, dst);
                debug_assert_eq!(need_rows.len(), give_rows.len());
                let mut sbuf = Mat::zeros(give_rows.len() * m, 3 * m);
                for (t, &j) in give_rows.iter().enumerate() {
                    let r = &rows[j - sys.lo];
                    sbuf.set_block(t * m, 0, &r.a);
                    sbuf.set_block(t * m, m, &r.b);
                    sbuf.set_block(t * m, 2 * m, &r.c);
                }
                let mut rbuf = Mat::zeros(need_rows.len() * m, 3 * m);
                comm.exchange_panel(
                    tag,
                    Some((*dst, sbuf.as_ref())),
                    Some((*src, rbuf.as_mut())),
                );
                for (t, &j) in need_rows.iter().enumerate() {
                    remote.push((
                        j,
                        RowCoef {
                            a: rbuf.block(t * m, 0, m, m),
                            b: rbuf.block(t * m, m, m, m),
                            c: rbuf.block(t * m, 2 * m, m, m),
                        },
                    ));
                }
            }
            let fetch = |j: usize| -> &RowCoef {
                if (sys.lo..sys.hi).contains(&j) {
                    &rows[j - sys.lo]
                } else {
                    &remote
                        .iter()
                        .find(|(jj, _)| *jj == j)
                        .expect("halo row present")
                        .1
                }
            };

            // ---- Elimination (simultaneous update on old values). ----
            let mut coef: LevelCoef = Vec::with_capacity(nl);
            let mut new_rows: Vec<RowCoef> = Vec::with_capacity(nl);
            for (k, me) in rows.iter().enumerate() {
                if pending_err.is_some() {
                    // Keep participating in communication shapes; skip math.
                    coef.push((None, None));
                    new_rows.push(me.clone());
                    continue;
                }
                let i = sys.lo + k;
                let mut new = me.clone();

                let alpha = if i >= s {
                    let left = fetch(i - s);
                    match LuFactors::factor(&left.b) {
                        Ok(lu) => {
                            comm.compute(lu_flops(m));
                            let mut al = lu.solve_transposed_system(&me.a);
                            al.negate();
                            comm.compute(lu_solve_flops(m, m));
                            // A' = alpha A_{i-s}; B' += alpha C_{i-s}
                            let mut na = Mat::zeros(m, m);
                            gemm(1.0, &al, Trans::No, &left.a, Trans::No, 0.0, &mut na);
                            gemm(1.0, &al, Trans::No, &left.c, Trans::No, 1.0, &mut new.b);
                            comm.compute(2 * gemm_flops(m, m, m));
                            new.a = na;
                            Some(al)
                        }
                        Err(source) => {
                            pending_err = Some(FactorError { row: i - s, source });
                            None
                        }
                    }
                } else {
                    new.a = Mat::zeros(m, m);
                    None
                };
                let gamma = if i + s < n && pending_err.is_none() {
                    let right = fetch(i + s);
                    match LuFactors::factor(&right.b) {
                        Ok(lu) => {
                            comm.compute(lu_flops(m));
                            let mut ga = lu.solve_transposed_system(&me.c);
                            ga.negate();
                            comm.compute(lu_solve_flops(m, m));
                            let mut nc = Mat::zeros(m, m);
                            gemm(1.0, &ga, Trans::No, &right.c, Trans::No, 0.0, &mut nc);
                            gemm(1.0, &ga, Trans::No, &right.a, Trans::No, 1.0, &mut new.b);
                            comm.compute(2 * gemm_flops(m, m, m));
                            new.c = nc;
                            Some(ga)
                        }
                        Err(source) => {
                            pending_err = Some(FactorError { row: i + s, source });
                            None
                        }
                    }
                } else {
                    if i + s >= n {
                        new.c = Mat::zeros(m, m);
                    }
                    None
                };

                coef.push((alpha, gamma));
                new_rows.push(new);
            }
            rows = new_rows;
            levels.push(coef);
            s <<= 1;
            level_idx += 1;
        }

        // ---- Final diagonal factorizations + error coordination. ----
        let final_lu: Result<Vec<LuFactors>, FactorError> = match &pending_err {
            Some(e) => Err(e.clone()),
            None => rows
                .iter()
                .enumerate()
                .map(|(k, r)| {
                    let lu = LuFactors::factor(&r.b).map_err(|source| FactorError {
                        row: sys.lo + k,
                        source,
                    })?;
                    comm.compute(lu_flops(m));
                    Ok(lu)
                })
                .collect(),
        };
        let my_err = match &final_lu {
            Ok(_) => u64::MAX,
            Err(e) => e.row as u64,
        };
        let first_err = comm.allreduce(my_err, |a, b| (*a).min(*b));
        if first_err != u64::MAX {
            return Err(match final_lu {
                Err(e) if e.row as u64 == first_err => e,
                _ => FactorError {
                    row: first_err as usize,
                    source: bt_dense::SingularError {
                        step: 0,
                        pivot: 0.0,
                    },
                },
            });
        }

        Ok(Self {
            n,
            m,
            lo: sys.lo,
            hi: sys.hi,
            part,
            levels,
            final_lu: final_lu.expect("checked above"),
        })
    }

    /// Number of owned rows.
    pub fn local_len(&self) -> usize {
        self.hi - self.lo
    }

    /// Number of elimination levels (`ceil(log2 N)`).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }
}

/// Per level, a halo exchange of `M x R` panels and two GEMM updates per
/// row; then the independent diagonal solves. No pipelined scan, so the
/// tile is ignored.
impl RankSolver for PcrRankFactors {
    fn solve<C: CommBackend>(&self, comm: &mut C, y: &mut [Mat], _tile: Option<usize>) {
        let nl = self.local_len();
        let m = self.m;
        assert_eq!(y.len(), nl, "rhs panel count mismatch");
        let r = y[0].cols();

        let mut s = 1usize;
        for (level_idx, coef) in self.levels.iter().enumerate() {
            // Same symmetric paired exchange as setup, with row-stacked
            // `count*M x R` right-hand-side panels.
            let (needs, gives) = halo_plan(&self.part, comm.rank(), s);
            let tag = tags::SOLVE + 2 * level_idx as u64;
            debug_assert_eq!(needs.len(), gives.len());
            let mut remote: Vec<(usize, Mat)> = Vec::new();
            for ((src, need_rows), (dst, give_rows)) in needs.iter().zip(&gives) {
                debug_assert_eq!(src, dst);
                let mut sbuf = Mat::zeros(give_rows.len() * m, r);
                for (t, &j) in give_rows.iter().enumerate() {
                    sbuf.set_block(t * m, 0, &y[j - self.lo]);
                }
                let mut rbuf = Mat::zeros(need_rows.len() * m, r);
                comm.exchange_panel(
                    tag,
                    Some((*dst, sbuf.as_ref())),
                    Some((*src, rbuf.as_mut())),
                );
                for (t, &j) in need_rows.iter().enumerate() {
                    remote.push((j, rbuf.block(t * m, 0, m, r)));
                }
            }
            let fetch = |j: usize| -> &Mat {
                if (self.lo..self.hi).contains(&j) {
                    &y[j - self.lo]
                } else {
                    &remote
                        .iter()
                        .find(|(jj, _)| *jj == j)
                        .expect("halo panel present")
                        .1
                }
            };

            let mut new_y: Vec<Mat> = Vec::with_capacity(nl);
            for (k, (alpha, gamma)) in coef.iter().enumerate() {
                let i = self.lo + k;
                let mut v = y[k].clone();
                if let Some(al) = alpha {
                    gemm(1.0, al, Trans::No, fetch(i - s), Trans::No, 1.0, &mut v);
                    comm.compute(gemm_flops(m, m, r));
                }
                if let Some(ga) = gamma {
                    gemm(1.0, ga, Trans::No, fetch(i + s), Trans::No, 1.0, &mut v);
                    comm.compute(gemm_flops(m, m, r));
                }
                new_y.push(v);
            }
            for (yk, v) in y.iter_mut().zip(new_y) {
                *yk = v;
            }
            s <<= 1;
        }

        // Decoupled: x_i = B_i^{-1} y_i.
        for (v, lu) in y.iter_mut().zip(&self.final_lu) {
            *v = lu.solve(v);
            comm.compute(lu_solve_flops(m, r));
        }
    }

    fn storage_bytes(&self) -> u64 {
        let mat_bytes = (self.m * self.m * 8) as u64;
        let coef: u64 = self
            .levels
            .iter()
            .flatten()
            .map(|(a, g)| (a.is_some() as u64 + g.is_some() as u64) * mat_bytes)
            .sum();
        coef + self.local_len() as u64 * mat_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_blocktri::gen::{
        materialize, random_rhs, ClusteredToeplitz, ConvectionDiffusion, Poisson2D, RandomDominant,
    };
    use bt_blocktri::thomas::thomas_solve;
    use bt_blocktri::{BlockRowSource, BlockVec};
    use bt_mpsim::{run_spmd, CostModel};

    const ZERO: CostModel = CostModel {
        latency_s: 0.0,
        per_byte_s: 0.0,
        flop_rate: f64::INFINITY,
        threads_per_rank: 1,
    };

    fn pcr_solve_global(src: &(impl BlockRowSource + Sync), p: usize, y: &BlockVec) -> BlockVec {
        let n = src.n();
        let m = src.m();
        let part = RowPartition::new(n, p);
        let out = run_spmd(p, ZERO, |comm| {
            let sys = RankSystem::from_source(src, p, comm.rank());
            let factors = PcrRankFactors::setup(comm, &sys).expect("setup");
            let mut x_local: Vec<Mat> = part
                .range(comm.rank())
                .map(|i| y.blocks[i].clone())
                .collect();
            factors.solve(comm, &mut x_local, None);
            (sys.lo, x_local)
        });
        let mut x = BlockVec::zeros(n, m, y.r());
        for (lo, panels) in out.results {
            for (k, panel) in panels.into_iter().enumerate() {
                x.blocks[lo + k] = panel;
            }
        }
        x
    }

    #[test]
    fn halo_plan_is_consistent() {
        // Every (src -> dst, row) in one rank's `gives` appears in the
        // destination's `needs` and vice versa.
        for (n, p, s) in [(16, 4, 1), (16, 4, 2), (16, 4, 8), (23, 5, 4), (9, 3, 2)] {
            let part = RowPartition::new(n, p);
            for rank in 0..p {
                let (needs, gives) = halo_plan(&part, rank, s);
                for (src, rows) in &needs {
                    let (_, peer_gives) = halo_plan(&part, *src, s);
                    let to_me = peer_gives
                        .iter()
                        .find(|(d, _)| *d == rank)
                        .map(|(_, r)| r.clone())
                        .unwrap_or_default();
                    assert_eq!(&to_me, rows, "n={n} p={p} s={s} {src}->{rank}");
                }
                for (dst, rows) in &gives {
                    let (peer_needs, _) = halo_plan(&part, *dst, s);
                    let from_me = peer_needs
                        .iter()
                        .find(|(o, _)| *o == rank)
                        .map(|(_, r)| r.clone())
                        .unwrap_or_default();
                    assert_eq!(&from_me, rows, "n={n} p={p} s={s} {rank}->{dst}");
                }
            }
        }
    }

    #[test]
    fn matches_thomas_on_clustered() {
        let src = ClusteredToeplitz::standard(48, 4, 3);
        let t = materialize(&src);
        let y = random_rhs(48, 4, 3, 5);
        let x_th = thomas_solve(&t, &y).unwrap();
        for p in [1, 2, 3, 4, 8] {
            let x = pcr_solve_global(&src, p, &y);
            assert!(x.rel_diff(&x_th) < 1e-10, "p={p}: {}", x.rel_diff(&x_th));
        }
    }

    #[test]
    fn stable_on_large_poisson() {
        // Where the exact-scan prefix method breaks down, PCR is fine.
        let src = Poisson2D::new(300, 6);
        let t = materialize(&src);
        let y = random_rhs(300, 6, 2, 1);
        let x = pcr_solve_global(&src, 8, &y);
        let res = t.rel_residual(&x, &y);
        assert!(res < 1e-11, "residual {res}");
    }

    #[test]
    fn stable_on_wide_spectrum_generators() {
        for p in [4, 7] {
            let src = RandomDominant::new(120, 4, 1.5, 7);
            let t = materialize(&src);
            let y = random_rhs(120, 4, 2, 2);
            let x = pcr_solve_global(&src, p, &y);
            assert!(t.rel_residual(&x, &y) < 1e-11, "p={p}");

            let src = ConvectionDiffusion::new(100, 4, 0.6);
            let t = materialize(&src);
            let y = random_rhs(100, 4, 2, 3);
            let x = pcr_solve_global(&src, p, &y);
            assert!(t.rel_residual(&x, &y) < 1e-11, "p={p}");
        }
    }

    #[test]
    fn non_power_of_two_sizes() {
        for n in [5, 13, 37, 61] {
            let src = ClusteredToeplitz::standard(n, 3, n as u64);
            let t = materialize(&src);
            let y = random_rhs(n, 3, 2, 9);
            let x = pcr_solve_global(&src, 3.min(n), &y);
            assert!(t.rel_residual(&x, &y) < 1e-11, "n={n}");
        }
    }

    #[test]
    fn setup_once_solve_many_amortizes() {
        // R = 1 << M = 8 so the O(M^3) setup clearly dominates the
        // O(M^2 R) solves.
        let src = ClusteredToeplitz::standard(64, 8, 1);
        let t = materialize(&src);
        let p = 4;
        let part = RowPartition::new(64, p);
        let ys: Vec<BlockVec> = (0..3).map(|sd| random_rhs(64, 8, 1, sd)).collect();
        let ys_ref = &ys;
        let out = run_spmd(p, ZERO, |comm| {
            let sys = RankSystem::from_source(&src, p, comm.rank());
            let before_setup = comm.stats().flops;
            let factors = PcrRankFactors::setup(comm, &sys).expect("setup");
            let setup_flops = comm.stats().flops - before_setup;
            let mut results = Vec::new();
            let before_solves = comm.stats().flops;
            for y in ys_ref {
                let mut x_local: Vec<Mat> = part
                    .range(comm.rank())
                    .map(|i| y.blocks[i].clone())
                    .collect();
                factors.solve(comm, &mut x_local, None);
                results.push((sys.lo, x_local));
            }
            let solve_flops = comm.stats().flops - before_solves;
            assert!(factors.storage_bytes() > 0);
            assert!(factors.level_count() == 6); // log2(64)
            (results, setup_flops, solve_flops)
        });
        for (b, y) in ys.iter().enumerate() {
            let mut x = BlockVec::zeros(64, 8, 1);
            for (results, _, _) in &out.results {
                let (lo, panels) = &results[b];
                for (k, panel) in panels.iter().enumerate() {
                    x.blocks[lo + k] = panel.clone();
                }
            }
            assert!(t.rel_residual(&x, y) < 1e-11, "batch {b}");
        }
        // Matrix work dominates: 3 solves together cost far less than setup.
        for (_, setup_flops, solve_flops) in &out.results {
            assert!(
                solve_flops * 2 < *setup_flops,
                "setup {setup_flops} solve {solve_flops}"
            );
        }
    }

    #[test]
    fn singular_level_diagonal_reported() {
        use bt_blocktri::BlockRow;
        // B_1 = 0: the level-0 elimination hits a singular diagonal.
        struct Bad;
        impl BlockRowSource for Bad {
            fn n(&self) -> usize {
                4
            }
            fn m(&self) -> usize {
                2
            }
            fn row(&self, i: usize) -> BlockRow {
                let z = Mat::zeros(2, 2);
                let b = if i == 1 {
                    Mat::zeros(2, 2)
                } else {
                    Mat::from_diag(&[6.0, 6.0])
                };
                let a = if i == 0 {
                    z.clone()
                } else {
                    Mat::identity(2).scaled(-1.0)
                };
                let c = if i == 3 {
                    z
                } else {
                    Mat::identity(2).scaled(-1.0)
                };
                BlockRow::new(a, b, c)
            }
        }
        let out = run_spmd(2, ZERO, |comm| {
            let sys = RankSystem::from_source(&Bad, 2, comm.rank());
            PcrRankFactors::setup(comm, &sys).err().map(|e| e.row)
        });
        for e in out.results {
            assert_eq!(e, Some(1));
        }
    }
}
