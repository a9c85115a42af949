//! Pure helpers: percentiles, span self time, and the open-loop arrival
//! schedule. Kept free of any solver code so they can be unit-tested.

use std::collections::BTreeMap;

use rand::{Rng, SeedableRng};

/// Nearest-rank percentile (`q` in `(0, 1]`) of an ascending-sorted,
/// non-empty sample: the smallest value with at least `q * n` samples at
/// or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` in a sample of `n`.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, q)
    }
}

/// A percentile is reportable when at least ten samples lie beyond it;
/// otherwise a single outlier decides its value.
pub fn tail_reportable(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

/// Median of an unsorted sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Operations per window of a throughput in [`windowed`]: short, so a
/// burst of host noise spoils few windows.
pub const RATE_WINDOW: usize = 20;

/// Operations per window of a percentile in [`windowed`]: enough for a
/// p90 with ten samples beyond it.
pub const TAIL_WINDOW: usize = 100;

/// Consecutive full windows of `len` operations (the partial last one
/// is dropped), or the whole sample when it is shorter than one window.
fn windows(times: &[f64], len: usize) -> Vec<&[f64]> {
    if times.len() < len {
        vec![times]
    } else {
        times.chunks_exact(len).collect()
    }
}

/// Robust summary of per-operation times (seconds, in the order they
/// ran): the median over windows of [`RATE_WINDOW`] operations of
/// operations per second of busy time, and the median over windows of
/// [`TAIL_WINDOW`] operations of each window's `q` percentile. A burst of
/// host noise spoils the windows it falls in, not the whole run.
pub fn windowed(times: &[f64], q: f64) -> (f64, f64) {
    assert!(!times.is_empty(), "no operations timed");
    assert!(
        tail_reportable(TAIL_WINDOW, q),
        "p{} needs wider windows",
        q * 100.0
    );
    if !tail_reportable(times.len(), q) {
        eprintln!(
            "wallbench: {} operations leave fewer than 10 beyond p{}",
            times.len(),
            q * 100.0
        );
    }
    let rate: Vec<f64> = windows(times, RATE_WINDOW)
        .iter()
        .map(|w| w.len() as f64 / w.iter().sum::<f64>())
        .collect();
    let tail: Vec<f64> = windows(times, TAIL_WINDOW)
        .iter()
        .map(|w| percentile(&sorted(w), q))
        .collect();
    (median(&rate), median(&tail))
}

/// Completions per second in consecutive windows of `per` completions,
/// given each operation's completion time (seconds, ascending). Only
/// completions between `from_s` and `to_s` count, so warm-up and drain
/// are left out. A window's rate is `per` over the time from its first
/// completion to the next window's first, so it is not rounded to a
/// whole count per unit time.
pub fn rate_windows(done_s: &[f64], from_s: f64, to_s: f64, per: usize) -> Vec<f64> {
    assert!(per > 0, "empty window");
    let steady: Vec<f64> = done_s
        .iter()
        .copied()
        .filter(|t| (from_s..=to_s).contains(t))
        .collect();
    steady
        .windows(per + 1)
        .step_by(per)
        .filter(|w| w[per] > w[0])
        .map(|w| per as f64 / (w[per] - w[0]))
        .collect()
}

/// One finished span on one thread (times in any one unit).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: String,
    pub tid: u64,
    pub start: f64,
    pub dur: f64,
}

/// Total self time per span name: each span's duration minus the part
/// of its interval covered by its child spans on the same thread. A
/// span's parent is the innermost span that contains it, or failing
/// that the innermost one it starts in. Children may overlap each other
/// or outlive their parent, so the covered part is the length of the
/// union of their intervals, clipped to the parent.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<String, f64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Parents first: earlier start, and on a tie the longer span.
    order.sort_by(|&a, &b| {
        let (x, y) = (&spans[a], &spans[b]);
        (x.tid, x.start)
            .partial_cmp(&(y.tid, y.start))
            .expect("finite span times")
            .then(y.dur.total_cmp(&x.dur))
    });
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        // Drop spans that ended before this one starts (or on another
        // thread); everything left on the stack contains its start.
        while let Some(&top) = stack.last() {
            let t = &spans[top];
            if t.tid == s.tid && s.start < t.start + t.dur {
                break;
            }
            stack.pop();
        }
        let containing = stack
            .iter()
            .rev()
            .find(|&&p| spans[p].start + spans[p].dur >= s.start + s.dur);
        if let Some(&parent) = containing.or(stack.last()) {
            let p = &spans[parent];
            children[parent].push((s.start, (s.start + s.dur).min(p.start + p.dur)));
        }
        stack.push(i);
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let covered = union_len(&mut children[i]);
        *out.entry(s.name.clone()).or_insert(0.0) += (s.dur - covered).max(0.0);
    }
    out
}

/// Length of the union of `[start, end)` intervals.
fn union_len(iv: &mut [(f64, f64)]) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in iv.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// One scheduled open-loop request: its send time (seconds after the
/// phase starts) and the index of the matrix it targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub at_s: f64,
    pub key: usize,
}

/// Poisson arrivals at `rate` per second over `duration_s`, each aimed
/// at one of `keys` matrices chosen uniformly. The schedule depends only
/// on its arguments, so a seed fixes the offered load exactly.
pub fn arrival_schedule(seed: u64, rate: f64, duration_s: f64, keys: usize) -> Vec<Arrival> {
    assert!(rate > 0.0 && keys > 0, "empty arrival process");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.gen_range(1e-12..1.0);
        t += -u.ln() / rate;
        if t >= duration_s {
            return out;
        }
        out.push(Arrival {
            at_s: t,
            key: rng.gen_range(0..keys),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(tail_reportable(1000, 0.99));
        assert!(!tail_reportable(999, 0.99));
        assert!(tail_reportable(100, 0.9));
        assert!(!tail_reportable(99, 0.9));
        assert!(!tail_reportable(0, 0.5));
    }

    #[test]
    fn windowed_summary_ignores_a_noisy_spell() {
        // 1 ms per op, with one tail window's worth of 10 ms stalls.
        let mut times = vec![1e-3; 3 * TAIL_WINDOW];
        times.extend(vec![1e-2; TAIL_WINDOW]);
        times.extend(vec![5.0; RATE_WINDOW / 2]); // partial window: dropped
        let (rate, p90) = windowed(&times, 0.9);
        assert!((rate - 1000.0).abs() < 1e-6, "{rate}");
        assert_eq!(p90, 1e-3);
        // Fewer than one window: the whole sample.
        let (rate, p90) = windowed(&[1.0, 3.0], 0.9);
        assert_eq!((rate, p90), (0.5, 3.0));
    }

    fn span(name: &str, tid: u64, start: f64, end: f64) -> SpanRec {
        SpanRec {
            name: name.into(),
            tid,
            start,
            dur: end - start,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_overlapping_children() {
        let spans = vec![
            span("parent", 0, 0.0, 100.0),
            span("a", 0, 10.0, 40.0),
            span("b", 0, 30.0, 60.0),
            // Runs past its parent's end: only the inside part counts.
            span("c", 0, 90.0, 120.0),
            // Same interval on another thread: not a child.
            span("other", 1, 0.0, 100.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st["parent"], 100.0 - 50.0 - 10.0);
        assert_eq!(st["a"], 30.0);
        assert_eq!(st["b"], 30.0);
        assert_eq!(st["c"], 30.0);
        assert_eq!(st["other"], 100.0);
    }

    #[test]
    fn self_time_nests_and_sums_by_name() {
        let spans = vec![
            span("outer", 0, 0.0, 100.0),
            span("mid", 0, 10.0, 50.0),
            span("leaf", 0, 20.0, 30.0),
            span("leaf", 0, 60.0, 70.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st["outer"], 100.0 - 40.0 - 10.0);
        assert_eq!(st["mid"], 30.0);
        assert_eq!(st["leaf"], 20.0);
    }

    #[test]
    fn rate_windows_skip_warm_up_and_drain() {
        // 0.05 is warm-up and 0.9 drain; the rest make two windows of two
        // completions, 0.1 s and then 0.4 s long, and a partial third.
        let done = [0.05, 0.1, 0.15, 0.2, 0.4, 0.6, 0.65, 0.9];
        assert_eq!(rate_windows(&done, 0.1, 0.7, 2), [20.0, 5.0]);
        assert!(rate_windows(&done, 0.7, 0.1, 2).is_empty());
    }

    #[test]
    fn arrival_schedule_is_seeded() {
        let a = arrival_schedule(7, 400.0, 2.0, 9);
        assert_eq!(a, arrival_schedule(7, 400.0, 2.0, 9));
        assert_ne!(a, arrival_schedule(8, 400.0, 2.0, 9));
        assert!(a.windows(2).all(|w| w[0].at_s < w[1].at_s));
        assert!(a.iter().all(|x| x.at_s < 2.0 && x.key < 9));
        // 800 expected arrivals; Poisson sd ~28.
        assert!((650..950).contains(&a.len()), "{} arrivals", a.len());
        assert!((0..9).all(|k| a.iter().any(|x| x.key == k)));
    }
}
