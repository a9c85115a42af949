//! Structure-exploiting fast-path benchmark: the Toeplitz constant-block
//! solver vs the general path on long slices, and batched-small
//! interleaved solves vs looped single solves. Wall clocks on the
//! shared-memory backend (Toeplitz cells) and single-threaded
//! (batched cells — the batch path is a serial cache/SIMD play).
//!
//! **Toeplitz cells** factor the same constant-block [`ClusteredToeplitz`]
//! system twice on a live shm world — the general
//! `ArdRankFactors<f64>` and the structure-exploiting
//! [`ToeplitzRankFactors`] — then time one warm replay solve each,
//! best-of-N and rank-synchronized. Three figures per cell:
//!
//! * `replay_speedup = general_replay_ns / toeplitz_replay_ns` — the
//!   warm replay win from the collapsed working set (head + shared tail
//!   triple in cache vs `O(N/P)` factor matrices streamed from memory).
//! * `mem_reduction = general_bytes / toeplitz_bytes` — total factor
//!   storage across ranks (Table II's memory price, now `O(head)`).
//! * `rel_diff` plus both residuals — the cross-check that the fast
//!   path returns the general path's answer to roundoff.
//!
//! **Batched cells** solve `K` independent small-`N` systems of block
//! order `M` in {4, 8, 16} two ways: `K` looped [`solve_single`] calls
//! (pivoted block Thomas per system) and one [`BatchedSystems`]
//! factor+solve over the interleaved SoA layout where every dense
//! kernel runs `K` lanes wide. `batched_speedup = looped_ns /
//! batched_ns` is end-to-end (interleave + factor + solve, exactly the
//! service dispatch path), cross-checked per system against the looped
//! residuals.
//!
//! Emits `BENCH_structured.json` (schema `bt-bench-structured-v1`,
//! validated by `obs_validate`, baseline-gated on the batched headline):
//!
//! ```text
//! cargo run --release -p bt-bench --bin bench_structured
//! cargo run --release -p bt-bench --bin bench_structured -- --smoke 1
//! ```

use std::time::Instant;

use bt_ard::state::{ArdRankFactors, RankSystem};
use bt_ard::toeplitz::ToeplitzRankFactors;
use bt_ard::RankSolver;
use bt_ard::{solve_single, BatchedSystems};
use bt_bench::Args;
use bt_blocktri::gen::{random_rhs, rhs_panel, ClusteredToeplitz};
use bt_blocktri::{BlockRow, BlockRowSource, BlockVec, FactorError};
use bt_comm::CommBackend;
use bt_dense::{gemm, Mat, Trans};
use bt_shm::run_shm;

struct ToeplitzRecord {
    label: String,
    n: usize,
    m: usize,
    p: usize,
    r: usize,
    general_replay_ns: f64,
    toeplitz_replay_ns: f64,
    general_bytes: u64,
    toeplitz_bytes: u64,
    rel_diff: f64,
    general_residual: f64,
    toeplitz_residual: f64,
}

impl ToeplitzRecord {
    fn replay_speedup(&self) -> f64 {
        self.general_replay_ns / self.toeplitz_replay_ns
    }

    fn mem_reduction(&self) -> f64 {
        self.general_bytes as f64 / self.toeplitz_bytes as f64
    }
}

struct BatchedRecord {
    label: String,
    n: usize,
    m: usize,
    k: usize,
    r: usize,
    looped_ns: f64,
    batched_ns: f64,
    rel_diff: f64,
    max_residual: f64,
}

impl BatchedRecord {
    fn batched_speedup(&self) -> f64 {
        self.looped_ns / self.batched_ns
    }
}

/// Rank-synchronized best-of-`reps` wall seconds for one call of `f`.
fn time_best<C: CommBackend>(comm: &mut C, reps: usize, mut f: impl FnMut(&mut C)) -> f64 {
    f(comm); // warm-up: pool buffers, page-in
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let _ = comm.allreduce(0u64, |a, b| (*a).max(*b)); // sync ranks
        let t0 = Instant::now();
        f(comm);
        best = best.min(comm.allreduce(t0.elapsed().as_secs_f64(), |a, b| a.max(*b)));
    }
    best
}

/// Serial best-of-`reps` wall seconds for one call of `f`.
fn time_best_serial(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Global relative residual `||y - T x|| / ||y||` of a rank-local
/// solution, via one halo exchange. Collective.
fn rel_residual<C: CommBackend>(
    comm: &mut C,
    sys: &RankSystem,
    x_local: &[Mat],
    y_local: &[Mat],
) -> f64 {
    use bt_ard::refine::{halo_exchange, local_residual};
    let nl = x_local.len();
    let halo = halo_exchange(comm, &x_local[0], &x_local[nl - 1]);
    let res = local_residual(comm, sys, x_local, (&halo.0, &halo.1), y_local);
    let sq = |panels: &[Mat]| -> f64 {
        panels
            .iter()
            .flat_map(|p| p.as_slice().iter())
            .map(|v| v * v)
            .sum()
    };
    let num = comm.allreduce(sq(&res), |a, b| a + b);
    let den = comm
        .allreduce(sq(y_local), |a, b| a + b)
        .max(f64::MIN_POSITIVE);
    (num / den).sqrt()
}

/// One rank's share of a Toeplitz cell: factor both ways, time one warm
/// replay each, sum factor storage across ranks, cross-check answers.
#[allow(clippy::type_complexity)]
fn toeplitz_cell<C: CommBackend>(
    comm: &mut C,
    src: &(dyn BlockRowSource + Sync),
    p: usize,
    r: usize,
    reps: usize,
) -> Result<(f64, f64, u64, u64, f64, f64, f64), FactorError> {
    let m = src.m();
    let sys = RankSystem::from_source(src, p, comm.rank());
    let general = ArdRankFactors::<f64>::setup(comm, &sys, true)?;
    let fast = ToeplitzRankFactors::setup(comm, &sys)?;
    let general_bytes = comm.allreduce(general.storage_bytes(), |a, b| a + b);
    let toeplitz_bytes = comm.allreduce(fast.storage_bytes(), |a, b| a + b);

    let y: Vec<Mat> = (sys.lo..sys.hi).map(|i| rhs_panel(m, r, 0, i)).collect();
    let mut xg: Vec<Mat> = y.iter().map(|p| Mat::zeros(p.rows(), p.cols())).collect();
    let mut xt: Vec<Mat> = xg.clone();

    let t_general = time_best(comm, reps, |comm| {
        general.solve_replay_into(comm, &y, &mut xg)
    });
    let t_toeplitz = time_best(comm, reps, |comm| {
        for (xk, yk) in xt.iter_mut().zip(&y) {
            xk.copy_from(yk);
        }
        fast.solve(comm, &mut xt, None);
    });

    let general_residual = rel_residual(comm, &sys, &xg, &y);
    let toeplitz_residual = rel_residual(comm, &sys, &xt, &y);
    let sq_diff: f64 = xg
        .iter()
        .zip(&xt)
        .flat_map(|(a, b)| a.as_slice().iter().zip(b.as_slice()))
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    let sq_ref: f64 = xg
        .iter()
        .flat_map(|p| p.as_slice().iter())
        .map(|v| v * v)
        .sum();
    let num = comm.allreduce(sq_diff, |a, b| a + b);
    let den = comm.allreduce(sq_ref, |a, b| a + b).max(f64::MIN_POSITIVE);
    let rel_diff = (num / den).sqrt();

    Ok((
        t_general,
        t_toeplitz,
        general_bytes,
        toeplitz_bytes,
        rel_diff,
        general_residual,
        toeplitz_residual,
    ))
}

fn run_toeplitz_cell(
    src: &(dyn BlockRowSource + Sync),
    p: usize,
    r: usize,
    reps: usize,
) -> ToeplitzRecord {
    let out = run_shm(p, bt_comm::CostModel::zero(), |comm| {
        toeplitz_cell(comm, src, p, r, reps)
    });
    let mut rows = out.results.into_iter().map(|res| res.expect("setup"));
    let (tg, tt, gb, tb, rel_diff, gres, tres) = rows.next().expect("at least one rank");
    let rec = ToeplitzRecord {
        label: format!("toeplitz-r{r}"),
        n: src.n(),
        m: src.m(),
        p,
        r,
        general_replay_ns: tg * 1e9,
        toeplitz_replay_ns: tt * 1e9,
        general_bytes: gb,
        toeplitz_bytes: tb,
        rel_diff,
        general_residual: gres,
        toeplitz_residual: tres,
    };
    println!(
        "bench_structured: {:<14} N={:<5} R={r:<4} general {:>8.3} ms  toeplitz {:>8.3} ms  \
         replay {:.2}x  mem {:.1}x ({} -> {} bytes)  diff {:.1e}  residual {:.1e} vs {:.1e}",
        rec.label,
        rec.n,
        rec.general_replay_ns * 1e-6,
        rec.toeplitz_replay_ns * 1e-6,
        rec.replay_speedup(),
        rec.mem_reduction(),
        rec.general_bytes,
        rec.toeplitz_bytes,
        rec.rel_diff,
        rec.toeplitz_residual,
        rec.general_residual,
    );
    rec
}

/// Dense relative residual `||y - T x|| / ||y||` for one small system.
fn small_residual(rows: &[BlockRow], x: &BlockVec, y: &BlockVec) -> f64 {
    let m = y.m();
    let r = x.r();
    let n = rows.len();
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (i, row) in rows.iter().enumerate() {
        let mut acc = Mat::zeros(m, r);
        gemm(
            1.0,
            &row.b,
            Trans::No,
            &x.blocks[i],
            Trans::No,
            0.0,
            &mut acc,
        );
        if i > 0 {
            gemm(
                1.0,
                &row.a,
                Trans::No,
                &x.blocks[i - 1],
                Trans::No,
                1.0,
                &mut acc,
            );
        }
        if i + 1 < n {
            gemm(
                1.0,
                &row.c,
                Trans::No,
                &x.blocks[i + 1],
                Trans::No,
                1.0,
                &mut acc,
            );
        }
        num += y.blocks[i]
            .as_slice()
            .iter()
            .zip(acc.as_slice())
            .map(|(yv, av)| (yv - av) * (yv - av))
            .sum::<f64>();
        den += y.blocks[i].as_slice().iter().map(|v| v * v).sum::<f64>();
    }
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

fn run_batched_cell(n: usize, m: usize, k: usize, r: usize, reps: usize) -> BatchedRecord {
    let sources: Vec<ClusteredToeplitz> = (0..k)
        .map(|s| ClusteredToeplitz::standard(n, m, 100 + s as u64))
        .collect();
    let row_sets: Vec<Vec<BlockRow>> = sources
        .iter()
        .map(|src| (0..n).map(|i| src.row(i)).collect())
        .collect();
    let ys: Vec<BlockVec> = (0..k)
        .map(|s| random_rhs(n, m, r, 900 + s as u64))
        .collect();

    let mut looped: Vec<BlockVec> = Vec::new();
    let t_looped = time_best_serial(reps, || {
        looped = row_sets
            .iter()
            .zip(&ys)
            .map(|(rows, y)| solve_single(rows, y).expect("single solve"))
            .collect();
    });

    let row_refs: Vec<&[BlockRow]> = row_sets.iter().map(Vec::as_slice).collect();
    let y_refs: Vec<&BlockVec> = ys.iter().collect();
    let mut batched: Vec<BlockVec> = Vec::new();
    let t_batched = time_best_serial(reps, || {
        let systems = BatchedSystems::<f64>::from_row_sets(&row_refs);
        let factors = systems.factor().expect("batched factor");
        batched = factors.solve_blockvecs(&y_refs);
    });

    let mut max_residual = 0.0f64;
    let mut sq_diff = 0.0f64;
    let mut sq_ref = 0.0f64;
    for s in 0..k {
        max_residual = max_residual.max(small_residual(&row_sets[s], &batched[s], &ys[s]));
        for (a, b) in looped[s]
            .blocks
            .iter()
            .flat_map(|p| p.as_slice().iter())
            .zip(batched[s].blocks.iter().flat_map(|p| p.as_slice().iter()))
        {
            sq_diff += (a - b) * (a - b);
            sq_ref += a * a;
        }
    }
    let rel_diff = (sq_diff / sq_ref.max(f64::MIN_POSITIVE)).sqrt();

    let rec = BatchedRecord {
        label: format!("batched-m{m}"),
        n,
        m,
        k,
        r,
        looped_ns: t_looped * 1e9,
        batched_ns: t_batched * 1e9,
        rel_diff,
        max_residual,
    };
    println!(
        "bench_structured: {:<14} N={:<5} K={k:<5} looped {:>8.3} ms  batched {:>8.3} ms  \
         throughput {:.2}x  diff {:.1e}  residual {:.1e}",
        rec.label,
        rec.n,
        rec.looped_ns * 1e-6,
        rec.batched_ns * 1e-6,
        rec.batched_speedup(),
        rec.rel_diff,
        rec.max_residual,
    );
    rec
}

fn main() {
    let args = Args::from_env();
    let smoke = args.get_usize("smoke", 0) != 0;
    let (n, p, k, small_n, reps) = if smoke {
        (256, 2, 64, 16, 2)
    } else {
        (32768, 4, 1024, 32, 5)
    };
    let n = args.get_usize("n", n);
    let m = args.get_usize("m", 8);
    let p = args.get_usize("p", p);
    let k = args.get_usize("k", k);
    let small_n = args.get_usize("small_n", small_n);
    let reps = args.get_usize("reps", reps);
    let default_rs: &[usize] = if smoke { &[1] } else { &[1, 8] };
    let rs = args.get_usize_list("rs", default_rs);
    let default_ms: &[usize] = if smoke { &[8] } else { &[4, 8, 16] };
    let small_ms = args.get_usize_list("small_ms", default_ms);

    // Toeplitz sweep: one long constant-block system (the paper's
    // uniform-grid case), batch width walked up. The general and fast
    // paths share the replay pipeline and do identical flops; what the
    // sweep isolates is the factor working set (5*N/P matrices streamed
    // vs head+tail in cache) and the storage collapse. Small R keeps
    // the replay memory-bound, so the factor-traffic gap shows up in
    // wall clock; at large R the shared GEMM work washes it out.
    let src = ClusteredToeplitz::standard(n, m, 1);
    let mut toeplitz_records: Vec<ToeplitzRecord> = Vec::new();
    for &r in &rs {
        toeplitz_records.push(run_toeplitz_cell(&src, p, r, reps));
    }
    for rec in &toeplitz_records {
        assert!(
            rec.rel_diff < 1e-8,
            "{}: fast path diverged from general ({:.2e})",
            rec.label,
            rec.rel_diff
        );
        assert!(
            rec.toeplitz_residual < 1e-9f64.max(rec.general_residual * 4.0),
            "{}: toeplitz residual {:.2e} vs general {:.2e}",
            rec.label,
            rec.toeplitz_residual,
            rec.general_residual
        );
    }

    // Batched sweep: K independent small systems per block order — the
    // serving-path shape where per-call overhead and M x M kernel
    // latency dominate a looped solver and the interleaved SoA layout
    // turns both into full-width SIMD streams.
    let mut batched_records: Vec<BatchedRecord> = Vec::new();
    for &sm in &small_ms {
        batched_records.push(run_batched_cell(small_n, sm, k, 1, reps));
    }
    for rec in &batched_records {
        assert!(
            rec.rel_diff < 1e-8,
            "{}: batched solutions diverged from looped ({:.2e})",
            rec.label,
            rec.rel_diff
        );
        assert!(
            rec.max_residual < 1e-9,
            "{}: batched residual {:.2e}",
            rec.label,
            rec.max_residual
        );
    }

    let headline_toeplitz = toeplitz_records
        .iter()
        .map(ToeplitzRecord::replay_speedup)
        .fold(0.0f64, f64::max);
    let headline_mem = toeplitz_records
        .iter()
        .map(ToeplitzRecord::mem_reduction)
        .fold(0.0f64, f64::max);
    let headline_batched = batched_records
        .iter()
        .map(BatchedRecord::batched_speedup)
        .fold(0.0f64, f64::max);
    println!(
        "bench_structured: headline toeplitz replay {headline_toeplitz:.2}x, \
         factor memory {headline_mem:.1}x smaller, batched throughput {headline_batched:.2}x"
    );

    let mut rows: Vec<String> = toeplitz_records
        .iter()
        .map(|rec| {
            format!(
                "    {{\"kind\": \"toeplitz\", \"label\": \"{}\", \"n\": {}, \"m\": {}, \
                 \"p\": {}, \"r\": {}, \"general_replay_ns\": {:.0}, \
                 \"toeplitz_replay_ns\": {:.0}, \"replay_speedup\": {:.4}, \
                 \"general_bytes\": {}, \"toeplitz_bytes\": {}, \"mem_reduction\": {:.4}, \
                 \"rel_diff\": {:e}, \"general_residual\": {:e}, \"toeplitz_residual\": {:e}}}",
                rec.label,
                rec.n,
                rec.m,
                rec.p,
                rec.r,
                rec.general_replay_ns,
                rec.toeplitz_replay_ns,
                rec.replay_speedup(),
                rec.general_bytes,
                rec.toeplitz_bytes,
                rec.mem_reduction(),
                rec.rel_diff,
                rec.general_residual,
                rec.toeplitz_residual,
            )
        })
        .collect();
    rows.extend(batched_records.iter().map(|rec| {
        format!(
            "    {{\"kind\": \"batched\", \"label\": \"{}\", \"n\": {}, \"m\": {}, \
             \"k\": {}, \"r\": {}, \"looped_ns\": {:.0}, \"batched_ns\": {:.0}, \
             \"batched_speedup\": {:.4}, \"rel_diff\": {:e}, \"max_residual\": {:e}}}",
            rec.label,
            rec.n,
            rec.m,
            rec.k,
            rec.r,
            rec.looped_ns,
            rec.batched_ns,
            rec.batched_speedup(),
            rec.rel_diff,
            rec.max_residual,
        )
    }));
    let generated_unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let simd = bt_dense::simd::active().name();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"bench\": \"structured_fast_paths\",\n  \"schema\": \"bt-bench-structured-v1\",\n  \
         \"generated_unix_s\": {generated_unix_s},\n  \
         \"simd\": \"{simd}\",\n  \"cores\": {cores},\n  \
         \"p\": {p},\n  \"reps\": {reps},\n  \"smoke\": {smoke},\n  \
         \"headline_toeplitz_speedup\": {headline_toeplitz:.4},\n  \
         \"headline_mem_reduction\": {headline_mem:.4},\n  \
         \"headline_batched_speedup\": {headline_batched:.4},\n  \
         \"note\": \"toeplitz cells: best-of-{reps} rank-synchronized warm replay solves on \
         the shm backend, general ArdRankFactors vs ToeplitzRankFactors on the same \
         constant-block system, with factor bytes summed across ranks and solutions \
         cross-checked to roundoff; batched cells: {k} independent small systems solved by \
         K looped single solves vs one interleaved BatchedSystems factor+solve (end-to-end \
         including interleave), cross-checked per system; the baseline gate tracks \
         headline_batched_speedup\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_structured.json");
    let path = args.get_str("out").unwrap_or(default_path).to_string();
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench_structured: wrote {path}"),
        Err(e) => eprintln!("bench_structured: could not write {path}: {e}"),
    }
    bt_bench::emit_obs(&args);
}
