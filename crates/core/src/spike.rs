//! SPIKE-style partitioned solver: a stability-oriented parallel
//! baseline (extension; not part of the paper).
//!
//! Each rank factors its *local* block tridiagonal diagonal block
//! `T_p` with the plain (stable) block Thomas algorithm and computes two
//! "spikes" — the columns of `T_p^{-1}` hit by the inter-rank coupling
//! blocks:
//!
//! ```text
//! global rows of rank p:   T_p x_p + e_first A_lo x_{lo-1}
//!                                  + e_last  C_{hi-1} x_{hi} = y_p
//! =>  x_p = T_p^{-1} y_p - W_p x_{lo-1} - V_p x_{hi}
//!     W_p = T_p^{-1} e_first A_lo      V_p = T_p^{-1} e_last C_{hi-1}
//! ```
//!
//! Restricting this relation to each partition's first and last block
//! rows ("tips") yields a *reduced* block tridiagonal system of `P` rows
//! with blocks of order `2M` in the tip unknowns `[x_lo; x_{hi-1}]`,
//! which rank 0 gathers, factors once and solves per batch.
//!
//! Relative to (accelerated) recursive doubling:
//!
//! * **Stability** — no transfer-matrix products, so no conditioning
//!   envelope: residuals are at Thomas level for *any* `N` and spectrum
//!   (Table III's gap does not exist here).
//! * **Scalability** — the reduced stage is `O(P M^3)` work serialized on
//!   rank 0 (vs the scans' `O(M^3 log P)` critical path), so SPIKE loses
//!   at large `P`; measured in `figa4_spike_comparison`.
//! * **Amortization** — like ARD, all matrix work (local factors, spikes,
//!   reduced factor) is right-hand-side independent: setup once, solve
//!   many, at `O(M^2 R N/P)` per batch.

use bt_blocktri::{BlockRow, BlockTridiag, BlockVec, FactorError, ThomasFactors};
use bt_comm::CommBackend;
use bt_dense::{gemm, gemm_flops, Mat, Trans};

use crate::solver::RankSolver;
use crate::state::RankSystem;

/// Tag for the per-solve tip scatter (below `USER_TAG_LIMIT`).
mod tags {
    pub const TIPS_DOWN: u64 = 513;
}

/// Matrix-dependent SPIKE state: local factors, spikes, and (on rank 0)
/// the factored reduced system.
#[derive(Debug)]
pub struct SpikeRankFactors {
    /// Block order.
    pub m: usize,
    /// First owned global row.
    pub lo: usize,
    /// One past the last owned global row.
    pub hi: usize,
    /// Factored local diagonal block `T_p`.
    local: ThomasFactors,
    /// Left spike `W_p` (`nl` blocks of `M x M`); empty on rank 0.
    w_spike: Vec<Mat>,
    /// Right spike `V_p`; empty on the last rank.
    v_spike: Vec<Mat>,
    /// Rank 0 only: factored reduced system (block order `2M`, `P` rows)
    /// plus its matrix.
    reduced: Option<(ThomasFactors, BlockTridiag)>,
}

impl SpikeRankFactors {
    /// Collective setup: local factorization, spike solves, and the
    /// gathered+factored reduced system on rank 0.
    ///
    /// # Errors
    ///
    /// [`FactorError`] (coordinated on every rank) if a local diagonal
    /// pivot block or the reduced system is singular.
    pub fn setup<C: CommBackend>(comm: &mut C, sys: &RankSystem) -> Result<Self, FactorError> {
        let m = sys.m;
        let nl = sys.local_len();
        let p = comm.size();
        let rank = comm.rank();

        // Local block tridiagonal with the coupling blocks zeroed out.
        let local_rows: Vec<BlockRow> = (0..nl)
            .map(|k| {
                let row = &sys.rows[k];
                let a = if k == 0 {
                    Mat::zeros(m, m)
                } else {
                    row.a.clone()
                };
                let c = if k == nl - 1 {
                    Mat::zeros(m, m)
                } else {
                    row.c.clone()
                };
                BlockRow::new(a, row.b.clone(), c)
            })
            .collect();
        let local_t = BlockTridiag::new(local_rows);
        let local = match ThomasFactors::factor(&local_t) {
            Ok(f) => Some(f),
            Err(mut e) => {
                e.row += sys.lo; // report in global numbering
                comm.allreduce(e.row as u64, |a, b| (*a).min(*b));
                return Err(e);
            }
        };
        // Coordinated success signal (peers may have failed).
        let first_err = comm.allreduce(u64::MAX, |a, b| (*a).min(*b));
        if first_err != u64::MAX {
            return Err(FactorError {
                row: first_err as usize,
                source: bt_dense::SingularError {
                    step: 0,
                    pivot: 0.0,
                },
            });
        }
        let local = local.expect("set above");
        comm.compute(bt_blocktri::thomas_factor_flops(nl, m));

        // Spikes: W = T^{-1} e_first A_lo, V = T^{-1} e_last C_{hi-1}.
        let coupling_a = &sys.rows[0].a; // zero on rank 0
        let coupling_c = &sys.rows[nl - 1].c; // zero on the last rank
        let w_spike = if rank == 0 {
            Vec::new()
        } else {
            let mut rhs = BlockVec::zeros(nl, m, m);
            rhs.blocks[0] = coupling_a.clone();
            let sol = local.solve(&rhs);
            comm.compute(bt_blocktri::thomas_solve_flops(nl, m, m));
            sol.blocks
        };
        let v_spike = if rank == p - 1 {
            Vec::new()
        } else {
            let mut rhs = BlockVec::zeros(nl, m, m);
            rhs.blocks[nl - 1] = coupling_c.clone();
            let sol = local.solve(&rhs);
            comm.compute(bt_blocktri::thomas_solve_flops(nl, m, m));
            sol.blocks
        };

        // Gather tip blocks of the spikes to rank 0 and assemble the
        // reduced system: unknown u_p = [x_lo; x_{hi-1}] (order 2M),
        //   u_p + Atil_p u_{p-1} + Ctil_p u_{p+1} = g_p
        // with Atil_p = [0 W_top; 0 W_bot], Ctil_p = [V_top 0; V_bot 0].
        let zero = Mat::zeros(m, m);
        let w_top = w_spike.first().unwrap_or(&zero).clone();
        let w_bot = w_spike.last().unwrap_or(&zero).clone();
        let v_top = v_spike.first().unwrap_or(&zero).clone();
        let v_bot = v_spike.last().unwrap_or(&zero).clone();
        let gathered = comm.gather(0, (w_top, w_bot, v_top, v_bot));

        let reduced_result: Result<Option<(ThomasFactors, BlockTridiag)>, FactorError> =
            if rank == 0 {
                let tips = gathered.expect("root gathers");
                let rows: Vec<BlockRow> = tips
                    .iter()
                    .enumerate()
                    .map(|(q, (wt, wb, vt, vb))| {
                        let mut a_til = Mat::zeros(2 * m, 2 * m);
                        if q > 0 {
                            a_til.set_block(0, m, wt);
                            a_til.set_block(m, m, wb);
                        }
                        let mut c_til = Mat::zeros(2 * m, 2 * m);
                        if q + 1 < p {
                            c_til.set_block(0, 0, vt);
                            c_til.set_block(m, 0, vb);
                        }
                        BlockRow::new(a_til, Mat::identity(2 * m), c_til)
                    })
                    .collect();
                let reduced_t = BlockTridiag::new(rows);
                match ThomasFactors::factor(&reduced_t) {
                    Ok(f) => {
                        comm.compute(bt_blocktri::thomas_factor_flops(p, 2 * m));
                        Ok(Some((f, reduced_t)))
                    }
                    Err(e) => Err(e),
                }
            } else {
                Ok(None)
            };
        // Reduced-factor failure coordination: root broadcasts the failing
        // reduced row (or MAX on success) so no rank blocks.
        let err_row = comm.broadcast(
            0,
            (rank == 0).then_some(match &reduced_result {
                Ok(_) => u64::MAX,
                Err(e) => e.row as u64,
            }),
        );
        if err_row != u64::MAX {
            return Err(match reduced_result {
                Err(e) => e,
                Ok(_) => FactorError {
                    row: err_row as usize,
                    source: bt_dense::SingularError {
                        step: 0,
                        pivot: 0.0,
                    },
                },
            });
        }
        let reduced = reduced_result.expect("checked above");

        Ok(Self {
            m,
            lo: sys.lo,
            hi: sys.hi,
            local,
            w_spike,
            v_spike,
            reduced,
        })
    }

    /// Number of owned rows.
    pub fn local_len(&self) -> usize {
        self.hi - self.lo
    }
}

/// Local block-Thomas solve, tips gathered to rank 0 for the reduced
/// system, spike correction. No pipelined scan, so the tile is ignored.
impl RankSolver for SpikeRankFactors {
    fn solve<C: CommBackend>(&self, comm: &mut C, panels: &mut [Mat], _tile: Option<usize>) {
        let m = self.m;
        let nl = self.local_len();
        let p = comm.size();
        let rank = comm.rank();
        assert_eq!(panels.len(), nl, "rhs panel count mismatch");
        let r = panels[0].cols();

        // Local solve x_hat = T_p^{-1} y_p.
        let x_hat = self.local.solve(&BlockVec::from_blocks(panels.to_vec()));
        comm.compute(bt_blocktri::thomas_solve_flops(nl, m, r));

        // Send tips to rank 0; receive back the neighbour tips.
        let tips = (x_hat.blocks[0].clone(), x_hat.blocks[nl - 1].clone());
        let gathered = comm.gather(0, tips);

        let (bot_prev, top_next) = if rank == 0 {
            let tips = gathered.expect("root gathers");
            let (reduced_f, reduced_t) = self.reduced.as_ref().expect("root holds reduced");
            // Reduced RHS: g_q = [top_q; bot_q].
            let g = BlockVec::from_blocks(
                tips.iter()
                    .map(|(top, bot)| Mat::vstack(top, bot))
                    .collect(),
            );
            let u = reduced_f.solve(&g);
            comm.compute(bt_blocktri::thomas_solve_flops(p, 2 * m, r));
            debug_assert!(reduced_t.n() == p);
            // Scatter to each rank q its neighbours' tips:
            // bot_{q-1} (rows m..2m of u_{q-1}) and top_{q+1} (rows 0..m
            // of u_{q+1}).
            let mut mine = (Mat::zeros(m, r), Mat::zeros(m, r));
            for q in 0..p {
                let bot_prev = if q == 0 {
                    Mat::zeros(m, r)
                } else {
                    u.blocks[q - 1].block(m, 0, m, r)
                };
                let top_next = if q + 1 == p {
                    Mat::zeros(m, r)
                } else {
                    u.blocks[q + 1].block(0, 0, m, r)
                };
                if q == 0 {
                    mine = (bot_prev, top_next);
                } else {
                    comm.send(q, tags::TIPS_DOWN, (bot_prev, top_next));
                }
            }
            mine
        } else {
            comm.recv::<(Mat, Mat)>(0, tags::TIPS_DOWN)
        };

        // Correction: x = x_hat - W * bot_prev - V * top_next.
        for (xk, x_hat_k) in panels.iter_mut().zip(x_hat.blocks) {
            *xk = x_hat_k;
        }
        if !self.w_spike.is_empty() {
            for (xk, wk) in panels.iter_mut().zip(&self.w_spike) {
                gemm(-1.0, wk, Trans::No, &bot_prev, Trans::No, 1.0, xk);
                comm.compute(gemm_flops(m, m, r));
            }
        }
        if !self.v_spike.is_empty() {
            for (xk, vk) in panels.iter_mut().zip(&self.v_spike) {
                gemm(-1.0, vk, Trans::No, &top_next, Trans::No, 1.0, xk);
                comm.compute(gemm_flops(m, m, r));
            }
        }
    }

    fn storage_bytes(&self) -> u64 {
        let mat_bytes = (self.m * self.m * 8) as u64;
        // Local LU diagonals + L factors + spikes.
        let local = 2 * self.local_len() as u64 * mat_bytes;
        let spikes = (self.w_spike.len() + self.v_spike.len()) as u64 * mat_bytes;
        let reduced = self
            .reduced
            .as_ref()
            .map_or(0, |(_, t)| 2 * t.n() as u64 * (4 * mat_bytes));
        local + spikes + reduced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::RankSystem;
    use bt_blocktri::gen::{materialize, random_rhs, ClusteredToeplitz, Poisson2D, RandomDominant};
    use bt_blocktri::thomas::thomas_solve;
    use bt_blocktri::BlockRowSource;
    use bt_mpsim::{run_spmd, CostModel};

    const ZERO: CostModel = CostModel {
        latency_s: 0.0,
        per_byte_s: 0.0,
        flop_rate: f64::INFINITY,
        threads_per_rank: 1,
    };

    fn spike_solve_global(src: &(impl BlockRowSource + Sync), p: usize, y: &BlockVec) -> BlockVec {
        let n = src.n();
        let m = src.m();
        let part = bt_blocktri::RowPartition::new(n, p);
        let out = run_spmd(p, ZERO, |comm| {
            let sys = RankSystem::from_source(src, p, comm.rank());
            let factors = SpikeRankFactors::setup(comm, &sys).expect("setup");
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
    fn matches_thomas_on_clustered() {
        let src = ClusteredToeplitz::standard(64, 4, 3);
        let t = materialize(&src);
        let y = random_rhs(64, 4, 3, 5);
        let x_th = thomas_solve(&t, &y).unwrap();
        for p in [1, 2, 3, 4, 8] {
            let x = spike_solve_global(&src, p, &y);
            assert!(x.rel_diff(&x_th) < 1e-11, "p={p}: {}", x.rel_diff(&x_th));
        }
    }

    #[test]
    fn stable_on_large_poisson() {
        // Where the exact-scan prefix method breaks down (Table III),
        // SPIKE stays at Thomas-level accuracy.
        let src = Poisson2D::new(512, 6);
        let t = materialize(&src);
        let y = random_rhs(512, 6, 2, 1);
        let x = spike_solve_global(&src, 8, &y);
        assert!(
            t.rel_residual(&x, &y) < 1e-12,
            "residual {}",
            t.rel_residual(&x, &y)
        );
    }

    #[test]
    fn stable_on_large_random_dominant() {
        let src = RandomDominant::new(256, 4, 1.5, 7);
        let t = materialize(&src);
        let y = random_rhs(256, 4, 2, 2);
        let x = spike_solve_global(&src, 8, &y);
        assert!(t.rel_residual(&x, &y) < 1e-12);
    }

    #[test]
    fn multi_rhs_and_uneven_partitions() {
        let src = ClusteredToeplitz::standard(37, 3, 9);
        let t = materialize(&src);
        let y = random_rhs(37, 3, 7, 4);
        for p in [3, 5, 7] {
            let x = spike_solve_global(&src, p, &y);
            assert!(t.rel_residual(&x, &y) < 1e-12, "p={p}");
        }
    }

    #[test]
    fn setup_once_solve_many() {
        let src = ClusteredToeplitz::standard(48, 4, 11);
        let t = materialize(&src);
        let p = 4;
        let part = bt_blocktri::RowPartition::new(48, p);
        let ys: Vec<BlockVec> = (0..3).map(|s| random_rhs(48, 4, 2, s)).collect();
        let ys_ref = &ys;
        let part_ref = &part;
        let out = run_spmd(p, ZERO, |comm| {
            let sys = RankSystem::from_source(&src, p, comm.rank());
            let factors = SpikeRankFactors::setup(comm, &sys).expect("setup");
            assert!(factors.storage_bytes() > 0);
            ys_ref
                .iter()
                .map(|y| {
                    let mut x_local: Vec<Mat> = part_ref
                        .range(comm.rank())
                        .map(|i| y.blocks[i].clone())
                        .collect();
                    factors.solve(comm, &mut x_local, None);
                    (sys.lo, x_local)
                })
                .collect::<Vec<_>>()
        });
        for (b, y) in ys.iter().enumerate() {
            let mut x = BlockVec::zeros(48, 4, 2);
            for rank_out in &out.results {
                let (lo, panels) = &rank_out[b];
                for (k, panel) in panels.iter().enumerate() {
                    x.blocks[lo + k] = panel.clone();
                }
            }
            assert!(t.rel_residual(&x, y) < 1e-12, "batch {b}");
        }
    }

    #[test]
    fn single_rank_degenerates_to_thomas() {
        let src = ClusteredToeplitz::standard(20, 3, 1);
        let t = materialize(&src);
        let y = random_rhs(20, 3, 2, 3);
        let x = spike_solve_global(&src, 1, &y);
        let x_th = thomas_solve(&t, &y).unwrap();
        assert!(x.rel_diff(&x_th) < 1e-14);
    }
}
