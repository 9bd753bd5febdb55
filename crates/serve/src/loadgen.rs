//! Synthetic closed-loop load generator and latency reporting.
//!
//! Clients are closed-loop: each thread submits one request, waits for
//! its response, records the end-to-end latency, and immediately
//! submits the next — so offered load scales with concurrency and the
//! server is never measured against an open-loop arrival process it
//! cannot shape. Fields are drawn round-robin from a pool produced by
//! the `adarnet-dataset` generators (the three canonical flow
//! families), giving the repetitive-patch traffic a CFD serving
//! endpoint actually sees.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use adarnet_dataset::{generate, DatasetConfig};
use adarnet_obs::HistogramSnapshot;
use adarnet_tensor::Tensor;
use serde::Serialize;

use crate::server::{ResponseKind, Server};

/// Delimits a measurement window over the server-side `serve_e2e_ns`
/// histogram: snapshot the cumulative histogram at [`start`], and
/// [`finish`] returns only the samples recorded in between. Latency
/// percentiles in [`LoadReport`] come from this window, so they measure
/// the *server's* submission-to-reply distribution (including shed
/// fast-paths), not the client's scheduling jitter.
///
/// The histogram is process-global: overlapping windows from two
/// concurrent servers in one process will blend. The bench driver and
/// tests run one load at a time.
///
/// [`start`]: LatencyWindow::start
/// [`finish`]: LatencyWindow::finish
pub struct LatencyWindow {
    before: HistogramSnapshot,
}

impl LatencyWindow {
    /// Open a window at the histogram's current state.
    pub fn start() -> LatencyWindow {
        LatencyWindow {
            before: adarnet_obs::histogram!("serve_e2e_ns").snapshot(),
        }
    }

    /// Close the window: the e2e samples recorded since [`LatencyWindow::start`].
    pub fn finish(self) -> HistogramSnapshot {
        adarnet_obs::histogram!("serve_e2e_ns")
            .snapshot()
            .since(&self.before)
    }
}

/// Build a pool of `count` distinct LR fields of extent `h x w` from
/// the dataset generators.
pub fn field_pool(count: usize, h: usize, w: usize, seed: u64) -> Vec<Tensor<f32>> {
    let per_family = count.div_ceil(3).max(2);
    let cfg = DatasetConfig {
        per_family,
        h,
        w,
        seed,
        val_fraction: 0.0,
    };
    generate(&cfg)
        .into_iter()
        .take(count)
        .map(|s| s.field)
        .collect()
}

/// One client-side observation.
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// End-to-end latency (submit → response received).
    pub latency: Duration,
    /// What kind of response came back.
    pub kind: ResponseKind,
    /// Trace id the request ran under (0 when untraced).
    pub trace_id: u64,
}

/// Drive `clients` closed-loop threads, each issuing
/// `requests_per_client` requests round-robin over `fields`. Every
/// request is traced (a fresh [`TraceCtx`] per submission), so the
/// report can name the slowest request's trace. Returns every
/// observation plus the wall-clock span of the whole run.
///
/// [`TraceCtx`]: adarnet_obs::TraceCtx
pub fn run_closed_loop(
    server: &Server,
    fields: &[Tensor<f32>],
    clients: usize,
    requests_per_client: usize,
) -> (Vec<Observation>, Duration) {
    assert!(!fields.is_empty(), "need at least one field");
    let next = AtomicU64::new(0);
    let started = Instant::now();
    let mut all = Vec::with_capacity(clients * requests_per_client);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut observations = Vec::with_capacity(requests_per_client);
                    for _ in 0..requests_per_client {
                        let idx = next.fetch_add(1, Ordering::Relaxed) as usize % fields.len();
                        let opts = crate::server::SubmitOptions {
                            trace: Some(adarnet_obs::TraceCtx::mint()),
                            ..crate::server::SubmitOptions::default()
                        };
                        let t0 = Instant::now();
                        let response = server.submit_wait_with(fields[idx].clone(), opts);
                        observations.push(Observation {
                            latency: t0.elapsed(),
                            kind: response.kind,
                            trace_id: response.trace_id,
                        });
                    }
                    observations
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("client thread panicked"));
        }
    });
    (all, started.elapsed())
}

/// Nearest-rank percentile of a sorted window of nanosecond latencies,
/// in milliseconds: the smallest sample with at least `p` percent of
/// the window at or below it (0 for an empty window). Both load
/// generators report through this one definition.
pub fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ns.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted_ns.len()) - 1;
    sorted_ns[idx] as f64 / 1e6
}

/// Per-reason counts of the degraded responses a run's clients saw,
/// keyed by the typed [`RejectReason`]. Explicit fields (not a map) so
/// the `BENCH_serve.json` schema is stable and diffable.
///
/// [`RejectReason`]: crate::server::RejectReason
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RejectBreakdown {
    /// Shed at admission: the lane queue was full.
    pub queue_full: u64,
    /// Shed at admission: the tenant's token bucket was empty.
    pub quota_exceeded: u64,
    /// Browned out: the deadline had already passed (at admission or
    /// in the queue).
    pub deadline_exceeded: u64,
    /// Answered degraded because the server was shutting down.
    pub shutdown: u64,
    /// Degraded by an inference failure.
    pub inference_error: u64,
}

impl RejectBreakdown {
    /// Tally the typed reject reasons across a run's observations.
    pub fn from_observations(observations: &[Observation]) -> RejectBreakdown {
        use crate::server::RejectReason;
        let mut b = RejectBreakdown::default();
        for o in observations {
            match o.kind.reject_reason() {
                Some(RejectReason::QueueFull) => b.queue_full += 1,
                Some(RejectReason::QuotaExceeded) => b.quota_exceeded += 1,
                Some(RejectReason::DeadlineExceeded) => b.deadline_exceeded += 1,
                Some(RejectReason::Shutdown) => b.shutdown += 1,
                Some(RejectReason::InferenceError) => b.inference_error += 1,
                None => {}
            }
        }
        b
    }

    /// Sum over all reasons.
    pub fn total(&self) -> u64 {
        self.queue_full
            + self.quota_exceeded
            + self.deadline_exceeded
            + self.shutdown
            + self.inference_error
    }
}

/// The trace id of the slowest client-observed request, as the
/// zero-padded hex string `/traces` uses (`"0"` when nothing was
/// traced).
pub fn slowest_trace_hex(observations: &[Observation]) -> String {
    observations
        .iter()
        .filter(|o| o.trace_id != 0)
        .max_by_key(|o| o.latency)
        .map_or_else(|| String::from("0"), |o| format!("{:016x}", o.trace_id))
}

/// Aggregated report for one load-generator run (serialized into
/// `BENCH_serve.json`).
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Run label (e.g. "batched" / "unbatched").
    pub mode: String,
    /// Closed-loop client count.
    pub concurrency: usize,
    /// Total requests issued.
    pub requests: usize,
    /// Requests per second over the whole run.
    pub throughput_rps: f64,
    /// Median latency, milliseconds (server-side histogram window).
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Worst latency in the window, milliseconds.
    pub max_ms: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Decoded-patch cache hit rate over the server's lifetime so far.
    pub cache_hit_rate: f64,
    /// Responses shed at submission (queue full).
    pub shed_queue_full: u64,
    /// Responses degraded by inference errors.
    pub shed_inference_error: u64,
    /// Degraded responses observed by the clients of *this* run.
    pub degraded_seen: u64,
    /// Per-reason breakdown of those degraded responses.
    pub rejects: RejectBreakdown,
    /// Trace id (hex) of the slowest request this run's clients saw —
    /// look it up under `/traces` on the admin endpoint.
    pub slowest_trace: String,
}

impl LoadReport {
    /// Summarize a closed-loop run against the server's counters and an
    /// e2e-latency histogram `window` (see [`LatencyWindow`]).
    /// Percentiles come from the window when it saw traffic; with the
    /// obs layer disabled (empty window) they fall back to the client
    /// observations so the report never silently zeroes out.
    pub fn from_run(
        mode: impl Into<String>,
        concurrency: usize,
        server: &Server,
        observations: &[Observation],
        elapsed: Duration,
        window: &HistogramSnapshot,
    ) -> LoadReport {
        let (p50_ms, p95_ms, p99_ms, max_ms, mean_ms) = if window.count > 0 {
            (
                window.percentile(50.0) / 1e6,
                window.percentile(95.0) / 1e6,
                window.percentile(99.0) / 1e6,
                window.max as f64 / 1e6,
                window.mean() / 1e6,
            )
        } else {
            let mut sorted: Vec<u64> = observations
                .iter()
                .map(|o| o.latency.as_nanos() as u64)
                .collect();
            sorted.sort_unstable();
            let mean_ms = if sorted.is_empty() {
                0.0
            } else {
                sorted.iter().map(|&ns| ns as f64).sum::<f64>() / sorted.len() as f64 / 1e6
            };
            (
                percentile_ms(&sorted, 50.0),
                percentile_ms(&sorted, 95.0),
                percentile_ms(&sorted, 99.0),
                sorted.last().map_or(0.0, |&ns| ns as f64 / 1e6),
                mean_ms,
            )
        };
        let stats = server.stats();
        LoadReport {
            mode: mode.into(),
            concurrency,
            requests: observations.len(),
            throughput_rps: observations.len() as f64 / elapsed.as_secs_f64().max(1e-9),
            p50_ms,
            p95_ms,
            p99_ms,
            max_ms,
            mean_ms,
            cache_hit_rate: server.cache().hit_rate(),
            shed_queue_full: stats.shed_queue_full,
            shed_inference_error: stats.shed_inference_error,
            degraded_seen: observations.iter().filter(|o| o.kind.is_degraded()).count() as u64,
            rejects: RejectBreakdown::from_observations(observations),
            slowest_trace: slowest_trace_hex(observations),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_pool_yields_distinct_fields() {
        let pool = field_pool(4, 16, 32, 7);
        assert_eq!(pool.len(), 4);
        for f in &pool {
            assert_eq!((f.dim(0), f.dim(1), f.dim(2)), (4, 16, 32));
        }
        assert_ne!(pool[0], pool[1]);
    }

    #[test]
    fn percentiles_nearest_rank() {
        // Windows of 1, 2 and 100 samples holding 1..=n ms; expected
        // values in ms at p = 50, 95, 99, 100.
        let table: [(u64, [f64; 4]); 3] = [
            (1, [1.0, 1.0, 1.0, 1.0]),
            (2, [1.0, 2.0, 2.0, 2.0]),
            (100, [50.0, 95.0, 99.0, 100.0]),
        ];
        for (n, expected) in table {
            let sorted: Vec<u64> = (1..=n).map(|ms| ms * 1_000_000).collect();
            for (p, want) in [50.0, 95.0, 99.0, 100.0].into_iter().zip(expected) {
                assert_eq!(percentile_ms(&sorted, p), want, "n = {n}, p = {p}");
            }
        }
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
    }
}
