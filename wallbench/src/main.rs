//! Wall-clock benchmark of the block tridiagonal suite on the real
//! shared-memory backend (`bt-shm`).
//!
//! ```text
//! cargo run --release --offline --manifest-path wallbench/Cargo.toml -- \
//!     --workload replay_wide --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (layer probes plus a traced pass). The last line of standard
//! output is one JSON object; the lines before it are the host header and
//! every metric with its unit. See `wallbench/README.md` for the
//! workloads and metric definitions.

mod affinity;
mod layers;
mod replay;
mod service;
mod source;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Process-global knobs that silently change what is measured. The
/// benchmark refuses to run with any of them set.
const FORBIDDEN_ENV: [&str; 6] = [
    "BT_ARD_RHS_TILE",
    "BT_DENSE_SIMD",
    "BT_DENSE_THREADS",
    "BT_SHM_PIN",
    "BT_BACKEND",
    "BT_OBS",
];

/// End-to-end metrics: `(name, unit)`. Every workload reports all.
pub const END_TO_END: [(&str, &str); 5] = [
    ("rhs_per_s", "1/s"),
    ("latency_us_p50", "us"),
    ("thomas_rhs_per_s", "1/s"),
    ("setup_s", "s"),
    ("factor_mib", "MiB"),
];

/// Per-layer metrics measured by probes and the traced pass.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("dense.gemm_gflops", "GF/s"),
    ("dense.panel_solve_gflops", "GF/s"),
    ("dense.gemm_peak_gflops", "GF/s"),
    ("dense.replay_frac_of_peak", "ratio"),
    ("dense.ws_miss_per_solve", "count"),
    ("blocktri.thomas_factor_ms", "ms"),
    ("blocktri.thomas_solve_gflops", "GF/s"),
    ("ard.setup_ms", "ms"),
    ("ard.replay_us", "us"),
    ("ard.replay_gflops_per_rank", "GF/s"),
    ("ard.flops_per_solve", "count"),
    ("comm.msgs_per_solve", "count"),
    ("comm.bytes_per_solve", "B"),
    ("comm.blocked_us_per_solve", "us"),
    ("comm.overlap_frac", "ratio"),
    ("shm.exchange_us", "us"),
    ("session.overhead_us", "us"),
    ("service.queue_wait_us_p50", "us"),
    ("service.queue_wait_us_p99", "us"),
    ("service.batch_solve_us_p50", "us"),
    ("service.batch_width_mean", "count"),
    ("service.cache_hit_frac", "ratio"),
    ("service.toeplitz_registrations", "count"),
    ("service.batched_small_frac", "ratio"),
    ("service.generator_late_us_p99", "us"),
    ("service.register_hit_us_p50", "us"),
    ("service.register_miss_us_p50", "us"),
    ("e2e.latency_samples", "count"),
    ("e2e.latency_us_p90", "us"),
    ("e2e.failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Library and benchmark spans whose self time is reported per timed
/// operation (a session solve, or a service request).
pub const OP_SPANS: [&str; 13] = [
    "bench.session_solve",
    "bench.service_submit",
    "bench.service_register",
    "replay.solve",
    "solve.forward",
    "solve.diag",
    "solve.backward",
    "affine_replay.round",
    "lu.solve_panel",
    "refine.sweep",
    "batch.assemble",
    "batch.dispatch",
    "batch_small.dispatch",
];

/// Spans whose self time is reported per set-up (a session create, or a
/// cache-miss registration).
pub const SETUP_SPANS: [&str; 12] = [
    "bench.session_create",
    "bench.service_register",
    "rank",
    "phase1.local_companion",
    "phase1.exscan",
    "phase1.local_factor",
    "phase1.toeplitz_power",
    "phase1.toeplitz_factor",
    "setup.record_scans",
    "setup.local_prefixes",
    "setup.toeplitz_totals",
    "lu.solve_panel",
];

/// Every per-layer metric name with its unit, spans included.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    v.extend(
        OP_SPANS
            .iter()
            .map(|s| (format!("self_us_per_op.{s}"), "us")),
    );
    v.extend(
        SETUP_SPANS
            .iter()
            .map(|s| (format!("self_ms_per_setup.{s}"), "ms")),
    );
    v
}

/// The system and batch shape a workload runs at.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Block rows.
    pub n: usize,
    /// Block order.
    pub m: usize,
    /// Right-hand-side columns per solve.
    pub r: usize,
    /// Ranks.
    pub p: usize,
}

/// Prints a latency sample's percentiles (seconds in, microseconds out)
/// with its size, as a comment line of the report.
pub fn print_percentiles(what: &str, sorted_s: &[f64]) {
    let p = |q| stats::percentile(sorted_s, q) * 1e6;
    println!(
        "# {what} latency n={} p50={:.1}us p90={:.1}us p99={:.1}us max={:.1}us",
        sorted_s.len(),
        p(0.5),
        p(0.9),
        p(0.99),
        p(1.0)
    );
}

/// What one workload pass produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed (errors and failed checks).
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name (end-to-end and, in a layer run, per-layer).
    pub values: BTreeMap<String, f64>,
    /// Mean wall time of one timed operation, the base of the tracing
    /// overhead.
    pub op_mean_s: f64,
}

impl Outcome {
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Which pass a workload runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Tracing off, full measurement.
    Timed,
    /// Tracing on; records set-up and operation span self times.
    Traced,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?
            .to_string();
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key, v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let args = Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
        },
    };
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    if let Some(extra) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(args)
}

/// The checkout's git revision, or `unknown` when the working directory
/// is not the root of a git checkout (git is never asked to search the
/// directories above it).
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = FORBIDDEN_ENV
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "wallbench: refusing to run with {} set; these knobs change what is measured",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let run: fn(u64, f64, Pass) -> Outcome = match args.workload.as_str() {
        "replay_wide" => replay::wide,
        "service_mixed" => service::mixed,
        w => {
            eprintln!("wallbench: unknown workload {w:?}");
            return ExitCode::from(2);
        }
    };
    // Resolve the observability gate before any library call reads it.
    bt_obs::set_enabled(false);

    println!(
        "# host cores={} isa={} dense_threads={} rev={} workload={} seed={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(1, usize::from),
        bt_dense::simd::active().name(),
        bt_dense::current_threads(),
        git_rev(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    let (out, names): (Outcome, Vec<(String, &str)>) = if args.trace {
        let out = layers::run(&args.workload, run, args.seed, args.seconds);
        (out, per_layer_metrics())
    } else {
        let out = run(args.seed, args.seconds, Pass::Timed);
        let names = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        (out, names)
    };

    let mut fields = Vec::new();
    for (name, unit) in &names {
        let v = *out
            .values
            .get(name)
            .unwrap_or_else(|| panic!("workload did not measure {name}"));
        assert!(v.is_finite(), "{name} is not finite: {v}");
        println!("{name:<36} {v:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {v:e}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "# attempted={} failed={} failed_frac={:e}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics this program prints.
    #[test]
    fn benchmark_json_matches_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = bt_obs::json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let e2e = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        assert_eq!(listed("end_to_end"), owned(e2e));
        assert_eq!(listed("per_layer"), owned(per_layer_metrics()));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
            .collect();
        assert_eq!(workloads, ["replay_wide", "service_mixed"]);
    }
}
