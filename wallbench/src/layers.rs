//! The `--trace 1` run: an untraced pass of the workload, probes that
//! time each layer's public calls from outside at the workload's shape,
//! and a traced pass that reports span self times and tracing overhead.

use std::hint::black_box;
use std::time::Instant;

use bt_ard::{ArdRankFactors, ArdSessionOn, RankSystem};
use bt_blocktri::gen::random_rhs;
use bt_blocktri::thomas::thomas_solve_flops;
use bt_blocktri::{BlockTridiag, BlockVec, ThomasFactors};
use bt_comm::{CommBackend, CostModel};
use bt_dense::random::{diag_dominant, rng, uniform};
use bt_dense::{gemm, lu_solve_flops, LuFactors, Mat, Trans};
use bt_shm::{run_shm, ShmBackend};

use crate::replay::RESIDUAL_MAX;
use crate::source::Rows;
use crate::stats::{median, self_times, SpanRec};
use crate::{replay, service, Outcome, Pass, Shape};

/// Wall time per kernel probe.
const PROBE_S: f64 = 0.3;

/// Median seconds per call of `f`, timed in blocks of calls long enough
/// to dwarf the clock's resolution, for about `budget_s`.
fn time_per_call(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-7);
    let inner = ((2e-4 / once).ceil() as usize).max(1);
    let mut blocks = Vec::new();
    let start = Instant::now();
    while blocks.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        blocks.push(t.elapsed().as_secs_f64() / inner as f64);
    }
    median(&blocks)
}

/// Pool-miss workspace checkouts so far (counted while tracing is on).
pub fn ws_misses() -> u64 {
    bt_obs::counters_snapshot()
        .get("bt_dense.ws.checkouts")
        .copied()
        .unwrap_or(0)
}

/// Moves the buffered spans into `out` as `prefix.<span>` self times,
/// scaled from microseconds by `scale` and divided by `per` operations,
/// then clears the trace buffer.
pub fn record_spans(out: &mut Outcome, prefix: &str, names: &[&str], scale: f64, per: usize) {
    let trace = bt_obs::trace_json();
    bt_obs::clear_trace();
    let spans: Vec<SpanRec> = trace.lines().filter_map(parse_trace_line).collect();
    let st = self_times(&spans);
    for name in names {
        let total = st.get(*name).copied().unwrap_or(0.0);
        out.set(
            &format!("{prefix}.{name}"),
            total * scale / per.max(1) as f64,
        );
    }
}

/// One complete (`"ph":"X"`) event of `bt_obs::trace_json`, which
/// writes one event per line. A field scan, because a general JSON parse
/// of a trace with hundreds of thousands of events is far too slow.
fn parse_trace_line(line: &str) -> Option<SpanRec> {
    if !line.contains("\"ph\":\"X\"") {
        return None;
    }
    let field = |key: &str| -> Option<&str> {
        let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let num = |key: &str| field(key)?.parse::<f64>().ok();
    Some(SpanRec {
        name: field("name")?.trim_matches('"').to_string(),
        tid: num("tid")? as u64,
        start: num("ts")?,
        dur: num("dur")?,
    })
}

/// Runs the layer measurements for `workload` with about `seconds` of
/// untraced and traced passes.
pub fn run(
    workload: &str,
    pass: fn(u64, f64, Pass) -> Outcome,
    seed: u64,
    seconds: f64,
) -> Outcome {
    let (shape, t) = match workload {
        "replay_wide" => (replay::WIDE, replay::matrix(seed)),
        _ => (service::PROBE, service::general_matrix(seed, 0)),
    };
    let base = pass(seed, seconds * 0.5, Pass::Timed);
    let mut out = Outcome {
        attempted: base.attempted,
        failed: base.failed,
        ..Outcome::default()
    };
    for (name, _) in crate::PER_LAYER {
        if let Some(&v) = base.values.get(name) {
            out.set(name, v);
        }
    }
    dense_probes(shape, &mut out);
    thomas_probes(&t, shape, seed, &mut out);
    let iters = ((1.0 / base.op_mean_s) as usize).clamp(20, 2000);
    let replay_s = ard_probe(&t, shape, seed, iters, &mut out);
    exchange_probe(shape, &mut out);
    session_probe(&t, shape, seed, iters, replay_s, &mut out);

    bt_obs::set_enabled(true);
    bt_obs::clear_trace();
    let traced = pass(seed, seconds * 0.5, Pass::Traced);
    bt_obs::set_enabled(false);
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    for (k, v) in traced.values {
        if k.starts_with("self_") || k == "dense.ws_miss_per_solve" {
            out.values.insert(k, v);
        }
    }
    out.set(
        "trace.overhead_frac",
        traced.op_mean_s / base.op_mean_s - 1.0,
    );
    out.set(
        "e2e.failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    // Layers this workload does not exercise did no work.
    for (name, _) in crate::per_layer_metrics() {
        out.values.entry(name).or_insert(0.0);
    }
    out
}

/// GEMM and LU panel solve at the workload's `M x M . M x R` shape, and
/// a large GEMM as the roofline.
fn dense_probes(shape: Shape, out: &mut Outcome) {
    let (m, r) = (shape.m, shape.r);
    let mut g = rng(11);
    let a = uniform(m, m, &mut g);
    let b = uniform(m, r, &mut g);
    let mut c = Mat::zeros(m, r);
    let s = time_per_call(PROBE_S, || {
        gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
        black_box(&mut c);
    });
    out.set("dense.gemm_gflops", (2 * m * m * r) as f64 / s * 1e-9);

    let lu = LuFactors::factor(&diag_dominant(m, 2.0, &mut g)).expect("dominant block factors");
    let mut x = Mat::zeros(m, r);
    let s = time_per_call(PROBE_S, || {
        lu.solve_into(&b, &mut x);
        black_box(&mut x);
    });
    out.set(
        "dense.panel_solve_gflops",
        lu_solve_flops(m, r) as f64 / s * 1e-9,
    );

    const PEAK: usize = 256;
    let a = uniform(PEAK, PEAK, &mut g);
    let b = uniform(PEAK, PEAK, &mut g);
    let mut c = Mat::zeros(PEAK, PEAK);
    let s = time_per_call(PROBE_S, || {
        gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
        black_box(&mut c);
    });
    out.set(
        "dense.gemm_peak_gflops",
        (2 * PEAK * PEAK * PEAK) as f64 / s * 1e-9,
    );
}

/// Sequential block Thomas factor and solve on the workload's system.
fn thomas_probes(t: &BlockTridiag, shape: Shape, seed: u64, out: &mut Outcome) {
    let s = time_per_call(PROBE_S * 2.0, || {
        black_box(ThomasFactors::factor(t).expect("Thomas factors"));
    });
    out.set("blocktri.thomas_factor_ms", s * 1e3);
    let f = ThomasFactors::factor(t).expect("Thomas factors");
    let y = random_rhs(shape.n, shape.m, shape.r, seed ^ 0x7A0);
    let mut x = None;
    let s = time_per_call(PROBE_S * 2.0, || x = Some(f.solve(&y)));
    out.check(x.is_some_and(|x| t.rel_residual(&x, &y) <= RESIDUAL_MAX));
    out.set(
        "blocktri.thomas_solve_gflops",
        thomas_solve_flops(shape.n, shape.m, shape.r) as f64 / s * 1e-9,
    );
}

/// What one rank reports from the rank-level probe.
struct RankReport {
    setup_s: Vec<f64>,
    solve_s: Vec<f64>,
    msgs: u64,
    bytes: u64,
    flops: u64,
    inflight_s: f64,
    overlap_s: f64,
    lo: usize,
    x: Vec<Mat>,
}

/// Solves per rank whose communication counters are differenced.
const COMM_SOLVES: usize = 20;

/// `ArdRankFactors::setup` and `solve_replay_into` timed inside
/// `run_shm` on every rank; each figure is the slowest rank's. Returns
/// the replay seconds.
fn ard_probe(t: &BlockTridiag, shape: Shape, seed: u64, iters: usize, out: &mut Outcome) -> f64 {
    let y = random_rhs(shape.n, shape.m, shape.r, seed ^ 0xA2D);
    let src = Rows(t);
    let run = run_shm(shape.p, CostModel::default(), |comm| {
        let sys = RankSystem::from_source(&src, shape.p, comm.rank());
        let mut setup_s = Vec::new();
        let mut f = None;
        for _ in 0..3 {
            comm.barrier();
            let t0 = Instant::now();
            let made = ArdRankFactors::<f64>::setup(comm, &sys, true);
            setup_s.push(t0.elapsed().as_secs_f64());
            f = Some(made.expect("ARD set-up on the benchmark's own matrix"));
        }
        let f = f.expect("three set-ups ran");
        let y_local: Vec<Mat> = (f.lo..f.hi).map(|i| y.blocks[i].clone()).collect();
        let mut x: Vec<Mat> = y_local
            .iter()
            .map(|p| Mat::zeros(p.rows(), p.cols()))
            .collect();
        for _ in 0..3 {
            f.solve_replay_into(comm, &y_local, &mut x);
        }
        let (s0, i0, o0) = (
            comm.stats(),
            comm.inflight_seconds(),
            comm.overlap_seconds(),
        );
        for _ in 0..COMM_SOLVES {
            f.solve_replay_into(comm, &y_local, &mut x);
        }
        let s1 = comm.stats();
        let (inflight_s, overlap_s) = (comm.inflight_seconds() - i0, comm.overlap_seconds() - o0);
        let mut solve_s = Vec::with_capacity(iters);
        for _ in 0..iters {
            comm.barrier();
            let t0 = Instant::now();
            f.solve_replay_into(comm, &y_local, &mut x);
            solve_s.push(t0.elapsed().as_secs_f64());
        }
        RankReport {
            setup_s,
            solve_s,
            msgs: s1.msgs_sent - s0.msgs_sent,
            bytes: s1.bytes_sent - s0.bytes_sent,
            flops: s1.flops - s0.flops,
            inflight_s,
            overlap_s,
            lo: f.lo,
            x,
        }
    });
    let ranks = &run.results;
    let slowest = |f: fn(&RankReport) -> &Vec<f64>| -> f64 {
        let n = f(&ranks[0]).len();
        let per: Vec<f64> = (0..n)
            .map(|i| ranks.iter().map(|r| f(r)[i]).fold(0.0, f64::max))
            .collect();
        median(&per)
    };
    let setup_s = slowest(|r| &r.setup_s);
    let replay_s = slowest(|r| &r.solve_s);

    let mut x = BlockVec::zeros(shape.n, shape.m, shape.r);
    for r in ranks {
        for (k, panel) in r.x.iter().enumerate() {
            x.blocks[r.lo + k] = panel.clone();
        }
    }
    out.check(t.rel_residual(&x, &y) <= RESIDUAL_MAX);

    let per = COMM_SOLVES as f64;
    let sum = |f: fn(&RankReport) -> u64| ranks.iter().map(f).sum::<u64>() as f64 / per;
    let max_flops = ranks.iter().map(|r| r.flops).max().unwrap_or(0) as f64 / per;
    let inflight: f64 = ranks.iter().map(|r| r.inflight_s).sum();
    let overlap: f64 = ranks.iter().map(|r| r.overlap_s).sum();
    let blocked = ranks
        .iter()
        .map(|r| r.inflight_s - r.overlap_s)
        .fold(0.0, f64::max);
    out.set("ard.setup_ms", setup_s * 1e3);
    out.set("ard.replay_us", replay_s * 1e6);
    out.set("ard.flops_per_solve", sum(|r| r.flops));
    out.set("ard.replay_gflops_per_rank", max_flops / replay_s * 1e-9);
    out.set("comm.msgs_per_solve", sum(|r| r.msgs));
    out.set("comm.bytes_per_solve", sum(|r| r.bytes));
    out.set("comm.blocked_us_per_solve", blocked / per * 1e6);
    out.set(
        "comm.overlap_frac",
        if inflight > 0.0 {
            overlap / inflight
        } else {
            0.0
        },
    );
    let peak = out.values["dense.gemm_peak_gflops"];
    out.set(
        "dense.replay_frac_of_peak",
        out.values["ard.replay_gflops_per_rank"] / peak,
    );
    replay_s
}

/// One `M x R` panel exchanged between two ranks via `exchange_panel`.
fn exchange_probe(shape: Shape, out: &mut Outcome) {
    const BLOCK: usize = 50;
    let run = run_shm(2, CostModel::default(), |comm| {
        let other = 1 - comm.rank();
        let send = uniform(shape.m, shape.r, &mut rng(comm.rank() as u64));
        let mut recv = Mat::zeros(shape.m, shape.r);
        let mut exchange = |comm: &mut bt_shm::ShmComm| {
            comm.exchange_panel(
                7,
                Some((other, send.as_ref())),
                Some((other, recv.as_mut())),
            );
        };
        for _ in 0..BLOCK {
            exchange(comm);
        }
        let mut blocks = Vec::new();
        let start = Instant::now();
        // Both ranks run the same number of blocks: rank 0 decides.
        loop {
            let t0 = Instant::now();
            for _ in 0..BLOCK {
                exchange(comm);
            }
            blocks.push(t0.elapsed().as_secs_f64() / BLOCK as f64);
            let more = (comm.rank() == 0).then(|| start.elapsed().as_secs_f64() < PROBE_S);
            if !comm.broadcast(0, more) {
                break;
            }
        }
        median(&blocks)
    });
    out.set("shm.exchange_us", run.results[0] * 1e6);
}

/// `ArdSessionOn::solve` at the probe shape, configured as the
/// workload's sessions are; its p50 minus the rank-level replay is the
/// session's own cost.
fn session_probe(
    t: &BlockTridiag,
    shape: Shape,
    seed: u64,
    iters: usize,
    replay_s: f64,
    out: &mut Outcome,
) {
    let session = ArdSessionOn::<ShmBackend>::create(shape.p, CostModel::default(), &Rows(t))
        .expect("session set-up on the benchmark's own matrix");
    session.set_world_reuse(true);
    let y = random_rhs(shape.n, shape.m, shape.r, seed ^ 0x5E5);
    let mut x = session.solve(&y);
    let mut lat = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        x = session.solve(&y);
        lat.push(t0.elapsed().as_secs_f64());
    }
    out.check(x.is_ok_and(|x| t.rel_residual(&x, &y) <= RESIDUAL_MAX));
    out.set("session.overhead_us", (median(&lat) - replay_s) * 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_lines_round_trip() {
        bt_obs::set_enabled(true);
        {
            let _outer = bt_obs::span("bench", "bench.test_outer");
            let _inner = bt_obs::span_with("bench", "bench.test_inner", || "{\"k\":1}".into());
        }
        let trace = bt_obs::trace_json();
        bt_obs::set_enabled(false);
        let spans: Vec<SpanRec> = trace.lines().filter_map(parse_trace_line).collect();
        let outer = spans
            .iter()
            .find(|s| s.name == "bench.test_outer")
            .expect("outer");
        let inner = spans
            .iter()
            .find(|s| s.name == "bench.test_inner")
            .expect("inner");
        assert_eq!(outer.tid, inner.tid);
        assert!(outer.start <= inner.start && inner.dur <= outer.dur);
        assert!(parse_trace_line(r#"  {"name":"process_name","ph":"M","ts":0}"#).is_none());
    }
}
