//! `replay_wide`: one caller factors once through an
//! `ArdSessionOn<ShmBackend>` and replays right-hand-side batches in a
//! closed loop; block Thomas runs on the same system and batches.

use std::time::Instant;

use bt_ard::{ArdSession, ArdSessionOn};
use bt_blocktri::gen::{materialize, random_rhs};
use bt_blocktri::{BlockTridiag, BlockVec, ThomasFactors};
use bt_comm::CostModel;
use bt_shm::ShmBackend;

use crate::layers;
use crate::source::{bits_hash, RowVarying, Rows};
use crate::stats::{median, percentile, sorted, windowed};
use crate::{Outcome, Pass, Shape};

/// The paper's multi-RHS regime: kernel-bound, factors exceed L2.
pub const WIDE: Shape = Shape {
    n: 1024,
    m: 16,
    r: 64,
    p: 2,
};

/// Distinct right-hand-side batches cycled through the loops. Solutions
/// of one batch must agree bit for bit on every call.
const RHS_POOL: usize = 4;

/// The timed run repeats a cycle of [`SETUPS`] session creations, an ARD
/// slot and a Thomas slot, so every metric samples the host's slow and
/// fast phases alike (its speed can change by half within seconds).
const SETUPS: usize = 2;
const ARD_SLOT_S: f64 = 0.3;
const THOMAS_SLOT_S: f64 = 0.2;

/// Session creations the traced pass times before its solves.
const TRACED_SETUPS: usize = 5;

/// Relative residual every solution must meet.
pub const RESIDUAL_MAX: f64 = 1e-10;

/// Operations in the traced pass, which bounds the spans it buffers.
const TRACED_OPS: usize = 300;

/// The workload's matrix, materialized.
pub fn matrix(seed: u64) -> BlockTridiag {
    materialize(&RowVarying::new(WIDE.n, WIDE.m, seed))
}

/// The workload's right-hand-side batches.
fn batches(seed: u64) -> Vec<BlockVec> {
    (0..RHS_POOL as u64)
        .map(|k| random_rhs(WIDE.n, WIDE.m, WIDE.r, seed.wrapping_add(1 + k)))
        .collect()
}

/// Per-batch reference solutions and the hashes of every other call.
struct Checked {
    first: Vec<Option<BlockVec>>,
    hashes: Vec<(usize, u64)>,
}

impl Checked {
    fn new(batches: usize) -> Self {
        Self {
            first: vec![None; batches],
            hashes: Vec::new(),
        }
    }

    fn record(&mut self, k: usize, x: BlockVec) {
        self.hashes.push((k, bits_hash(&x)));
        if self.first[k].is_none() {
            self.first[k] = Some(x);
        }
    }

    /// Every solution meets the residual bound: the first of each batch
    /// directly, the rest by being bitwise equal to it.
    fn verify(&self, t: &BlockTridiag, batches: &[BlockVec], out: &mut Outcome) {
        let refs: Vec<Option<(u64, bool)>> = self
            .first
            .iter()
            .zip(batches)
            .map(|(x, y)| {
                x.as_ref()
                    .map(|x| (bits_hash(x), t.rel_residual(x, y) <= RESIDUAL_MAX))
            })
            .collect();
        for &(k, h) in &self.hashes {
            out.check(refs[k].is_some_and(|(h0, ok)| ok && h0 == h));
        }
    }
}

/// A closed loop of solves over cycled batches: every call's latency,
/// in order, and the record that checks every answer.
pub struct Loop<'a> {
    batches: &'a [BlockVec],
    lat: Vec<f64>,
    checked: Checked,
}

impl<'a> Loop<'a> {
    pub fn new(batches: &'a [BlockVec]) -> Self {
        Self {
            batches,
            lat: Vec::new(),
            checked: Checked::new(batches.len()),
        }
    }

    /// Calls `solve` back to back for `slot_s` (at least once).
    pub fn run_for(
        &mut self,
        slot_s: f64,
        mut solve: impl FnMut(&BlockVec) -> Option<BlockVec>,
        out: &mut Outcome,
    ) {
        let start = Instant::now();
        loop {
            let k = self.lat.len() % self.batches.len();
            let t0 = Instant::now();
            let x = solve(&self.batches[k]);
            self.lat.push(t0.elapsed().as_secs_f64());
            match x {
                Some(x) => self.checked.record(k, x),
                None => out.check(false),
            }
            if start.elapsed().as_secs_f64() >= slot_s {
                return;
            }
        }
    }

    /// RHS columns per second of solve time and the latency p90, each
    /// summarised over windows (see [`windowed`]).
    pub fn summary(&self) -> (f64, f64) {
        let (rate, p90) = windowed(&self.lat, 0.9);
        (rate * self.batches[0].r() as f64, p90)
    }

    /// Checks every answer against `t` (see [`Checked::verify`]).
    pub fn verify(&self, t: &BlockTridiag, out: &mut Outcome) {
        self.checked.verify(t, self.batches, out);
    }
}

pub fn wide(seed: u64, seconds: f64, pass: Pass) -> Outcome {
    let shape = WIDE;
    let model = CostModel::default();
    let t = matrix(seed);
    let batches = batches(seed);
    let mut out = Outcome::default();

    let mut setup = Vec::new();
    let mut create = |out: &mut Outcome| {
        let _span = bt_obs::span("bench", "bench.session_create");
        let t0 = Instant::now();
        let created = ArdSessionOn::<ShmBackend>::create(shape.p, model, &Rows(&t));
        setup.push(t0.elapsed().as_secs_f64());
        out.check(created.is_ok());
        created.ok()
    };
    let start = Instant::now();
    let mut session = create(&mut out);
    if pass == Pass::Traced {
        for _ in 1..TRACED_SETUPS {
            session = create(&mut out);
        }
        let per = TRACED_SETUPS;
        layers::record_spans(
            &mut out,
            "self_ms_per_setup",
            &crate::SETUP_SPANS,
            1e-3,
            per,
        );
    }
    let session = session.expect("session set-up failed on the benchmark's own matrix");
    // Persistent rank threads, as a high-call-rate caller runs them:
    // spawning two threads per call makes whole runs fast or slow at the
    // scheduler's whim.
    session.set_world_reuse(true);
    out.set(
        "factor_mib",
        session.factor_bytes() as f64 / shape.p as f64 / f64::from(1 << 20),
    );

    // Warm the workspace pools before timing.
    for y in &batches {
        out.check(session.solve(y).is_ok());
    }
    let ws_before = layers::ws_misses();
    let mut ard_solve = |y: &BlockVec| {
        let _span = bt_obs::span("bench", "bench.session_solve");
        session.solve(y).ok()
    };

    let mut ard = Loop::new(&batches);
    if pass == Pass::Traced {
        while ard.lat.len() < TRACED_OPS && start.elapsed().as_secs_f64() < seconds {
            ard.run_for(0.0, &mut ard_solve, &mut out);
        }
        let n = ard.lat.len();
        out.op_mean_s = ard.lat.iter().sum::<f64>() / n as f64;
        out.set(
            "dense.ws_miss_per_solve",
            (layers::ws_misses() - ws_before) as f64 / n as f64,
        );
        layers::record_spans(&mut out, "self_us_per_op", &crate::OP_SPANS, 1.0, n);
        ard.verify(&t, &mut out);
        return out;
    }

    let f = ThomasFactors::factor(&t);
    out.check(f.is_ok());
    let f = f.expect("Thomas factorization of the benchmark's own matrix");
    let mut thomas = Loop::new(&batches);
    while start.elapsed().as_secs_f64() < seconds {
        for _ in 0..SETUPS {
            drop(create(&mut out));
        }
        ard.run_for(ARD_SLOT_S, &mut ard_solve, &mut out);
        thomas.run_for(THOMAS_SLOT_S, |y| Some(f.solve(y)), &mut out);
    }
    out.set("setup_s", median(&setup));
    out.op_mean_s = ard.lat.iter().sum::<f64>() / ard.lat.len() as f64;
    let lat = sorted(&ard.lat);
    crate::print_percentiles("session solve", &lat);
    let (rhs_per_s, p90) = ard.summary();
    out.set("rhs_per_s", rhs_per_s);
    out.set("thomas_rhs_per_s", thomas.summary().0);
    out.set("latency_us_p50", percentile(&lat, 0.5) * 1e6);
    out.set("e2e.latency_us_p90", p90 * 1e6);
    out.set("e2e.latency_samples", lat.len() as f64);
    ard.verify(&t, &mut out);
    thomas.verify(&t, &mut out);

    // The repository pins shm and sim replay to the same bits.
    let sim = ArdSession::create(shape.p, model, &Rows(&t)).and_then(|s| s.solve(&batches[0]));
    let shm = ard.checked.first[0].as_ref();
    out.check(matches!((sim, shm), (Ok(a), Some(b)) if a == *b));
    out
}
