//! `service_mixed`: a `ServiceOn<ShmBackend>` with one rank and the
//! default `ServiceConfig`, serving a hot set that takes every strategy
//! path (general `f64`, mixed `f32`, Toeplitz, batched-small) under
//! open-loop reads with a concurrent write stream, alternating with
//! closed-loop throughput phases.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bt_ard::{
    MatrixKey, Precision, ServiceConfig, ServiceError, ServiceOn, SolveResponse, SolveTicket,
};
use bt_blocktri::gen::{materialize, random_rhs, ClusteredToeplitz};
use bt_blocktri::{BlockTridiag, BlockVec, ThomasFactors};
use bt_comm::CostModel;
use bt_shm::ShmBackend;
use rand::{Rng, SeedableRng};

use crate::affinity::{self, Placement};
use crate::layers;
use crate::replay::{Loop, RESIDUAL_MAX};
use crate::source::{RowVarying, Rows};
use crate::stats::{arrival_schedule, median, percentile, rate_windows, sorted, windowed};
use crate::{Outcome, Pass, Shape};

/// Shape of one read request against the general hot matrix; the layer
/// probes run at it.
pub const PROBE: Shape = Shape {
    n: 512,
    m: 8,
    r: 1,
    p: 1,
};

/// Open-loop read rate (requests per second).
const READ_RATE: f64 = 400.0;
/// Write rate (registrations per second), alternating cache hit and miss.
const WRITE_RATE: f64 = 4.0;
/// Requests kept in flight in the closed-loop phases.
const OUTSTANDING: usize = 64;
/// Unloaded cache-miss registrations timed for `setup_s`, per cycle.
const SETUPS: usize = 4;
/// Distinct single-column right-hand sides per hot matrix.
const RHS_PER_KEY: usize = 4;
/// One cycle of the run: open-loop reads and writes, then a closed-loop
/// phase, then a Thomas baseline slot. Repeating short cycles spreads
/// every metric over the whole run, so slow and fast host phases reach
/// each alike.
const OPEN_S: f64 = 1.0;
const CLOSED_S: f64 = 1.0;
const THOMAS_S: f64 = 0.3;
/// Closed-loop throughput is taken over windows of this many completions
/// (about 50 ms). The first `WARM_S` of each phase (the queue filling)
/// and the drain after the last submit are left out, so every window is
/// at steady state.
const RATE_WINDOW: usize = 200;
const WARM_S: f64 = 0.1;

/// A cached matrix the reads target.
struct Hot {
    t: BlockTridiag,
    precision: Precision,
    key: Option<MatrixKey>,
    rhs: Vec<BlockVec>,
}

/// A general (row-varying) matrix at the probe shape.
pub fn general_matrix(seed: u64, i: u64) -> BlockTridiag {
    materialize(&RowVarying::new(PROBE.n, PROBE.m, seed ^ (0x5EED_0000 + i)))
}

fn hot_set(seed: u64) -> Vec<Hot> {
    let general: Vec<BlockTridiag> = (0..2).map(|i| general_matrix(seed, i)).collect();
    let toeplitz = |n, i: u64| materialize(&ClusteredToeplitz::standard(n, PROBE.m, seed ^ i));
    let mut mats: Vec<(BlockTridiag, Precision)> = vec![
        (general[0].clone(), Precision::F64),
        (general[1].clone(), Precision::F64),
        (general[0].clone(), Precision::F32),
    ];
    mats.extend((0..2).map(|i| (toeplitz(PROBE.n, 0x70E0 + i), Precision::F64)));
    mats.extend((0..4).map(|i| (toeplitz(32, 0x5A11 + i), Precision::F64)));
    mats.into_iter()
        .enumerate()
        .map(|(h, (t, precision))| {
            let rhs = (0..RHS_PER_KEY as u64)
                .map(|k| random_rhs(t.n(), t.m(), 1, seed ^ (h as u64 * 100 + k)))
                .collect();
            Hot {
                t,
                precision,
                key: None,
                rhs,
            }
        })
        .collect()
}

fn checked(t: &BlockTridiag, y: &BlockVec, x: &BlockVec) -> bool {
    t.rel_residual(x, y) <= RESIDUAL_MAX
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times one registration of `t`; the key on success.
fn register(
    svc: &ServiceOn<ShmBackend>,
    t: &BlockTridiag,
    precision: Precision,
) -> (f64, Option<MatrixKey>) {
    let _span = bt_obs::span("bench", "bench.service_register");
    let t0 = Instant::now();
    let key = svc.register_with_precision(&Rows(t), precision).ok();
    (us(t0.elapsed()), key)
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Latencies of reads and writes gathered over all open-loop phases, in
/// microseconds.
#[derive(Default)]
struct Samples {
    latency: Vec<f64>,
    late: Vec<f64>,
    queue_wait: Vec<f64>,
    batch_solve: Vec<f64>,
    register_hit: Vec<f64>,
    register_miss: Vec<f64>,
}

/// The write stream of one open phase: at `WRITE_RATE`, alternately
/// re-register a hot matrix (a cache hit) and register one of `fresh`
/// (a miss). Returns the fresh keys by index.
fn writes(
    svc: &ServiceOn<ShmBackend>,
    hot: &[Hot],
    fresh: &[BlockTridiag],
    samples: &mut Samples,
    out: &mut Outcome,
) -> Vec<(usize, MatrixKey)> {
    let mut keys = Vec::new();
    let start = Instant::now();
    for j in 0.. {
        let at = j as f64 / WRITE_RATE;
        if at >= OPEN_S || j / 2 >= fresh.len() {
            break;
        }
        sleep_until(start + Duration::from_secs_f64(at));
        if j % 2 == 0 {
            let h = &hot[(j / 2) % hot.len()];
            let (t, key) = register(svc, &h.t, h.precision);
            out.check(key.is_some() && key == h.key);
            samples.register_hit.push(t);
        } else {
            let (t, key) = register(svc, &fresh[j / 2], Precision::F64);
            out.check(key.is_some());
            keys.extend(key.map(|k| (j / 2, k)));
            samples.register_miss.push(t);
        }
    }
    keys
}

/// One read as its key's waiter saw it: its place in the schedule, when
/// it was due, its right-hand side, when it entered the queue, the
/// response, and when the waiter held the response.
type Answered = (
    usize,
    Instant,
    usize,
    Instant,
    Result<SolveResponse, ServiceError>,
    Instant,
);

/// One open-loop phase: Poisson reads from this thread, writes from a
/// second client thread. Each read's latency runs from the time it was
/// due to be sent to the time its client held the response, so a late
/// generator, a stall or slow delivery of the result counts against it.
/// One waiter thread per hot key blocks on that key's tickets in submit
/// order. The service answers each key's requests in that order, so no
/// waiter is held up by another key's later batch.
fn open_phase(
    svc: &ServiceOn<ShmBackend>,
    hot: &[Hot],
    fresh: &[BlockTridiag],
    seed: u64,
    writer_cpu: Option<usize>,
    samples: &mut Samples,
    out: &mut Outcome,
) {
    let schedule = arrival_schedule(seed, READ_RATE, OPEN_S, hot.len());
    let (mut writer_samples, mut writer_out) = (Samples::default(), Outcome::default());
    let mut rejected = 0u64;
    let (fresh_keys, mut answered) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            if let Some(cpu) = writer_cpu {
                affinity::pin(cpu);
            }
            writes(svc, hot, fresh, &mut writer_samples, &mut writer_out)
        });
        let (senders, waiters): (Vec<_>, Vec<_>) = hot
            .iter()
            .map(|_| {
                let (tx, rx) = mpsc::channel::<(usize, Instant, usize, SolveTicket)>();
                let waiter = s.spawn(move || {
                    rx.into_iter()
                        .map(|(i, due, ri, ticket)| {
                            let enq = ticket.enqueued_at();
                            let r = ticket.wait();
                            (i, due, ri, enq, r, Instant::now())
                        })
                        .collect::<Vec<Answered>>()
                });
                (tx, waiter)
            })
            .unzip();
        let start = Instant::now();
        for (i, a) in schedule.iter().enumerate() {
            let due = start + Duration::from_secs_f64(a.at_s);
            sleep_until(due);
            let h = &hot[a.key];
            let ri = i % RHS_PER_KEY;
            let ticket = {
                let _span = bt_obs::span("bench", "bench.service_submit");
                h.key.and_then(|k| svc.submit(k, &h.rhs[ri]).ok())
            };
            match ticket {
                Some(t) => senders[a.key]
                    .send((i, due, ri, t))
                    .expect("waiter hung up"),
                None => rejected += 1,
            }
        }
        drop(senders);
        let answered: Vec<Answered> = waiters
            .into_iter()
            .flat_map(|w| w.join().expect("waiter panicked"))
            .collect();
        (writer.join().expect("write client panicked"), answered)
    });
    out.attempted += writer_out.attempted + rejected;
    out.failed += writer_out.failed + rejected;
    samples.register_hit.extend(writer_samples.register_hit);
    samples.register_miss.extend(writer_samples.register_miss);

    // Back into schedule order, which the windowed tail summary needs.
    answered.sort_by_key(|a| a.0);
    for (i, due, ri, enq, r, done) in answered {
        let h = &hot[schedule[i].key];
        match r {
            Ok(r) => {
                samples
                    .latency
                    .push(us(done.saturating_duration_since(due)));
                samples.late.push(us(enq.saturating_duration_since(due)));
                samples.queue_wait.push(us(r.queue_wait));
                samples.batch_solve.push(us(r.solve_time));
                out.check(checked(&h.t, &h.rhs[ri], &r.x));
            }
            Err(_) => out.check(false),
        }
    }
    // Each fresh registration must serve a correct answer.
    for (i, key) in fresh_keys {
        let y = &hot[0].rhs[0];
        let ok = svc.solve(key, y).is_ok_and(|r| checked(&fresh[i], y, &r.x));
        out.check(ok);
    }
}

/// One closed-loop phase keeping `OUTSTANDING` requests in flight for
/// `CLOSED_S`; returns the steady-state window rates (requests per
/// second), the requests completed and the seconds taken.
fn closed_phase(
    svc: &ServiceOn<ShmBackend>,
    hot: &[Hot],
    seed: u64,
    out: &mut Outcome,
) -> (Vec<f64>, usize, f64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut inflight: VecDeque<(usize, usize, Option<SolveTicket>)> = VecDeque::new();
    let mut submit = |inflight: &mut VecDeque<_>| {
        let key = rng.gen_range(0..hot.len());
        let ri = rng.gen_range(0..RHS_PER_KEY);
        let h = &hot[key];
        let _span = bt_obs::span("bench", "bench.service_submit");
        inflight.push_back((key, ri, h.key.and_then(|k| svc.submit(k, &h.rhs[ri]).ok())));
    };
    let start = Instant::now();
    for _ in 0..OUTSTANDING {
        submit(&mut inflight);
    }
    // Answers are checked after the clock stops, so the client thread
    // takes no core from the service while it is timed.
    let (mut answers, mut done_s) = (Vec::new(), Vec::new());
    while let Some((key, ri, ticket)) = inflight.pop_front() {
        answers.push((key, ri, ticket.and_then(|t| t.wait().ok()).map(|r| r.x)));
        let now = start.elapsed().as_secs_f64();
        done_s.push(now);
        if now < CLOSED_S {
            submit(&mut inflight);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let rates = rate_windows(&done_s, WARM_S, CLOSED_S, RATE_WINDOW);
    for (key, ri, x) in &answers {
        let h = &hot[*key];
        out.check(x.as_ref().is_some_and(|x| checked(&h.t, &h.rhs[*ri], x)));
    }
    (rates, answers.len(), secs)
}

pub fn mixed(seed: u64, seconds: f64, pass: Pass) -> Outcome {
    let start = Instant::now();
    let traced = pass == Pass::Traced;
    // The traced pass runs one cycle: every dispatch buffers hundreds of
    // spans.
    let cycles = if traced {
        1
    } else {
        ((seconds / (OPEN_S + CLOSED_S + THOMAS_S)).ceil() as usize).max(1)
    };
    // Fresh general matrices per cycle: the unloaded set-ups, then the
    // write stream's cache misses.
    let per_cycle = SETUPS + (OPEN_S * WRITE_RATE / 2.0).ceil() as usize;
    let mut hot = hot_set(seed);
    let mut out = Outcome::default();

    // A one-rank service is a serial pipeline: each request passes from
    // the client to the dispatcher to the rank thread and back. Spread
    // over two vCPUs, every hand-off crosses them, and a vCPU the
    // hypervisor has descheduled stalls the whole pipeline. In alternating
    // runs the closed loop held 3.6-3.8k rhs/s on one CPU, while on two it
    // fell from 3.7k to 2.9k rhs/s as steal rose to 10%; at 15-20% steal
    // it ran at a third of its unstolen rate. So the service, the read
    // client and every thread they spawn share one CPU. The write client
    // runs on the other, so a registration still factors beside the
    // reads. Dropping the placement gives this thread its CPUs back for
    // the layer probes.
    let placement = Placement::enter();
    let writer_cpu = placement.as_ref().map(|p| p.writer_cpu);
    match &placement {
        Some(p) => println!(
            "# placement service_cpu={} writer_cpu={}",
            p.service_cpu, p.writer_cpu
        ),
        None => println!("# placement unpinned"),
    }

    let svc = ServiceOn::<ShmBackend>::start(ServiceConfig::new(PROBE.p, CostModel::default()));
    for h in &mut hot {
        h.key = register(&svc, &h.t, h.precision).1;
        out.check(h.key.is_some());
    }
    // The service logs each registration's factor precision. An `f32`
    // entry that fell back to `f64` would leave the mixed path unmeasured.
    let log = bt_obs::flight::snapshot();
    for h in hot.iter().filter(|h| h.precision == Precision::F32) {
        out.check(h.key.is_some_and(|k| {
            log.iter().any(|e| {
                e.kind == "register" && e.key == k.as_u64() && e.detail.contains("precision=f32")
            })
        }));
    }
    out.set(
        "factor_mib",
        svc.stats().cache_bytes as f64 / f64::from(1 << 20),
    );
    if traced {
        let n = hot.len();
        layers::record_spans(&mut out, "self_ms_per_setup", &crate::SETUP_SPANS, 1e-3, n);
    }

    // Warm every hot key's world and pools, checking each answer.
    for h in &hot {
        for y in &h.rhs {
            let ok = h
                .key
                .and_then(|k| svc.solve(k, y).ok())
                .is_some_and(|r| checked(&h.t, y, &r.x));
            out.check(ok);
        }
    }
    bt_obs::clear_trace();
    let ws_before = layers::ws_misses();
    let stats_before = svc.stats();

    // Baseline: block Thomas on the general hot matrix, one request's
    // column at a time.
    let thomas_f = ThomasFactors::factor(&hot[0].t);
    out.check(thomas_f.is_ok());
    let thomas_f = thomas_f.expect("Thomas factorization of the benchmark's own matrix");
    let mut thomas = Loop::new(&hot[0].rhs);

    let mut samples = Samples::default();
    let mut setup = Vec::new();
    let (mut closed_rates, mut closed_done, mut closed_s) = (Vec::new(), 0, 0.0);
    for c in 0..cycles {
        if c > 0 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let c64 = c as u64;
        let fresh: Vec<BlockTridiag> = (0..per_cycle)
            .map(|i| general_matrix(seed, 100 + (c * per_cycle + i) as u64))
            .collect();
        for t in &fresh[..SETUPS] {
            let (us, key) = register(&svc, t, Precision::F64);
            out.check(key.is_some());
            setup.push(us * 1e-6);
        }
        open_phase(
            &svc,
            &hot,
            &fresh[SETUPS..],
            seed ^ (c64 << 32),
            writer_cpu,
            &mut samples,
            &mut out,
        );
        let (rates, done, secs) =
            closed_phase(&svc, &hot, seed ^ (c64 << 32) ^ 0x00C1_05ED, &mut out);
        closed_rates.extend(rates);
        closed_done += done;
        closed_s += secs;
        if !traced {
            thomas.run_for(THOMAS_S, |y| Some(thomas_f.solve(y)), &mut out);
        }
    }
    thomas.verify(&hot[0].t, &mut out);
    out.op_mean_s = closed_s / closed_done as f64;
    let stats = svc.stats();
    if traced {
        let requests = (stats.requests - stats_before.requests) as usize;
        let dispatches = (stats.dispatches - stats_before.dispatches).max(1);
        out.set(
            "dense.ws_miss_per_solve",
            (layers::ws_misses() - ws_before) as f64 / dispatches as f64,
        );
        layers::record_spans(&mut out, "self_us_per_op", &crate::OP_SPANS, 1.0, requests);
        return out;
    }

    out.set("setup_s", median(&setup));
    let lat = sorted(&samples.latency);
    crate::print_percentiles(
        "read request",
        &lat.iter().map(|v| v * 1e-6).collect::<Vec<_>>(),
    );
    out.set("rhs_per_s", median(&closed_rates));
    out.set("thomas_rhs_per_s", thomas.summary().0);
    out.set("latency_us_p50", percentile(&lat, 0.5));
    out.set("e2e.latency_us_p90", windowed(&samples.latency, 0.9).1);
    out.set("e2e.latency_samples", lat.len() as f64);
    let wait = sorted(&samples.queue_wait);
    out.set("service.queue_wait_us_p50", percentile(&wait, 0.5));
    out.set("service.queue_wait_us_p99", percentile(&wait, 0.99));
    out.set("service.batch_solve_us_p50", median(&samples.batch_solve));
    out.set(
        "service.generator_late_us_p99",
        percentile(&sorted(&samples.late), 0.99),
    );
    out.set("service.register_hit_us_p50", median(&samples.register_hit));
    out.set(
        "service.register_miss_us_p50",
        median(&samples.register_miss),
    );
    out.set(
        "service.batch_width_mean",
        stats.dispatched_columns as f64 / stats.dispatches as f64,
    );
    out.set(
        "service.cache_hit_frac",
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses) as f64,
    );
    out.set(
        "service.toeplitz_registrations",
        stats.toeplitz_registrations as f64,
    );
    out.set(
        "service.batched_small_frac",
        stats.batched_dispatches as f64 / stats.dispatches as f64,
    );
    out
}
