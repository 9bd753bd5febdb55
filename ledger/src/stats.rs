//! Estimators. Every number the ledger reports goes through one of
//! these, so the unit tests in `tests/estimators.rs` pin what a metric
//! means.

/// Percentiles a tail metric may be fixed at, lowest first.
pub const TAIL_LADDER: [f64; 9] = [50.0, 60.0, 70.0, 80.0, 90.0, 95.0, 98.0, 99.0, 99.9];

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

/// The highest step of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it; the median when none does.
pub fn tail_percentile_for(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0])
}

/// Sorted copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method),
/// so `--aa` prints the spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = (pos % 4) as f64 / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// One completed operation for the throughput estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Seconds since the measurement started.
    pub at_s: f64,
    /// Whether the operation counts (succeeded, inside its limit).
    pub good: bool,
}

/// Throughput as the median over windows of `ops_per_window`
/// consecutive completions: each window's rate is its good operations
/// over the time from the previous window's last completion (the
/// measurement start for the first) to its own. Windows are counted in
/// operations, not seconds, so each holds the same mix of inputs (a
/// whole number of passes over the pool) and an operation is never
/// split across a boundary; the median ignores a window that lost its
/// core to another tenant, which `ops / wall` does not. A trailing
/// partial window is dropped.
pub fn windowed_median_rate(completions: &[Completion], ops_per_window: usize) -> f64 {
    assert!(ops_per_window > 0, "empty window");
    let mut done = completions.to_vec();
    done.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    let mut rates = Vec::new();
    let mut start = 0.0;
    for window in done.chunks_exact(ops_per_window) {
        let end = window[window.len() - 1].at_s;
        let good = window.iter().filter(|c| c.good).count();
        rates.push(good as f64 / (end - start).max(1e-9));
        start = end;
    }
    if rates.is_empty() {
        let end = done.last().map_or(0.0, |c| c.at_s);
        return done.iter().filter(|c| c.good).count() as f64 / end.max(1e-9);
    }
    median(&rates)
}

/// Latency summary of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Operations measured.
    pub samples: usize,
    /// Median, ms.
    pub p50_ms: f64,
    /// The workload's fixed tail percentile, ms.
    pub tail_ms: f64,
    /// Samples beyond the tail percentile in this run.
    pub beyond_tail: usize,
}

/// Summarise latencies (ms) at the median and at `tail_p`.
pub fn summarize_latency(latencies_ms: &[f64], tail_p: f64) -> LatencySummary {
    let v = sorted(latencies_ms);
    LatencySummary {
        samples: v.len(),
        p50_ms: percentile(&v, 50.0),
        tail_ms: percentile(&v, tail_p),
        beyond_tail: samples_beyond(v.len(), tail_p),
    }
}
