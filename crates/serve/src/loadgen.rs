//! Synthetic closed-loop load generator and latency reporting.
//!
//! Clients are closed-loop: each thread sends one request, waits for
//! its answer, records the latency it observed, and immediately sends
//! the next — so offered load scales with concurrency and the server is
//! never measured against an open-loop arrival process it cannot shape.
//! A [`ClientSpec`] describes one class of clients (tenant, lane,
//! deadline, connection count, field pool); the generator drives any
//! mix of specs over a [`Transport`]: `&Server` in process, or
//! `adarnet_net::NetClient` over TCP. Results aggregate per lane, which
//! is what the priority scheduler's acceptance criterion (interactive
//! p99 under a bulk-heavy mix) is stated over. Fields come from the
//! `adarnet-dataset` generators (the three canonical flow families),
//! giving the repetitive-patch traffic a CFD serving endpoint actually
//! sees.

use std::time::{Duration, Instant};

use adarnet_dataset::{generate, DatasetConfig};
use adarnet_obs::TraceCtx;
use adarnet_tensor::Tensor;

use crate::lanes::Priority;
use crate::server::{RejectReason, Server, SubmitOptions};

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

/// One class of synthetic clients.
#[derive(Clone)]
pub struct ClientSpec {
    /// Tenant id stamped on every request.
    pub tenant: u64,
    /// Lane requested.
    pub priority: Priority,
    /// Concurrent connections (client threads) running this spec.
    pub connections: usize,
    /// Requests per connection.
    pub requests: usize,
    /// Deadline budget per request, ms (0 = none).
    pub deadline_ms: u32,
    /// Fields cycled round-robin by each connection.
    pub fields: Vec<Tensor<f32>>,
}

/// How one request came back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Fully inferred.
    Full,
    /// Degraded bin-0 answer, with the typed reason.
    Degraded(RejectReason),
    /// The peer answered with a protocol error instead of a prediction.
    Error,
}

/// One answered request as the transport reports it.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// Full, degraded (and why), or error.
    pub outcome: Outcome,
    /// Trace id the request ran under (0 when untraced).
    pub trace_id: u64,
}

/// One connection a closed-loop client sends its requests through.
/// Every request is traced (a fresh trace id per send), so the report
/// can name the slowest request's trace.
pub trait Transport {
    /// Send `field` under `spec`'s tenant, lane and deadline, and block
    /// for the answer. `None` means the connection failed; the client
    /// stops and the shortfall shows in the lane's request count.
    fn infer(&mut self, field: Tensor<f32>, spec: &ClientSpec) -> Option<Reply>;
}

impl Transport for &Server {
    fn infer(&mut self, field: Tensor<f32>, spec: &ClientSpec) -> Option<Reply> {
        let opts = SubmitOptions {
            priority: spec.priority,
            tenant: spec.tenant,
            deadline: (spec.deadline_ms != 0)
                .then(|| Instant::now() + Duration::from_millis(u64::from(spec.deadline_ms))),
            trace: TraceCtx::mint(),
        };
        let response = self.submit_wait_with(field, opts);
        Some(Reply {
            outcome: response
                .kind
                .reject_reason()
                .map_or(Outcome::Full, Outcome::Degraded),
            trace_id: response.trace_id,
        })
    }
}

/// One request's client-side record.
#[derive(Clone, Copy)]
struct Sample {
    lane: Priority,
    ns: u64,
    reply: Reply,
}

/// Run every spec's connections concurrently, each on a transport from
/// `connect`, blocking until all requests are answered. A connection
/// `connect` cannot open (`None`) contributes no samples.
pub fn run_closed_loop<T: Transport>(
    connect: impl Fn() -> Option<T> + Sync,
    specs: &[ClientSpec],
) -> LoadReport {
    let started = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for spec in specs {
            for conn in 0..spec.connections.max(1) {
                let connect = &connect;
                handles.push(scope.spawn(move || {
                    let mut samples = Vec::with_capacity(spec.requests);
                    let Some(mut transport) = connect() else {
                        adarnet_obs::counter!("loadgen_transport_errors_total").inc();
                        return samples;
                    };
                    for r in 0..spec.requests {
                        let field = spec.fields[(conn + r) % spec.fields.len()].clone();
                        let sent = Instant::now();
                        let Some(reply) = transport.infer(field, spec) else {
                            adarnet_obs::counter!("loadgen_transport_errors_total").inc();
                            break;
                        };
                        samples.push(Sample {
                            lane: spec.priority,
                            ns: sent.elapsed().as_nanos() as u64,
                            reply,
                        });
                    }
                    samples
                }));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "benchmark harness join(): a panicked load-generator thread must propagate, not be silently dropped from the latency sample"
        )]
        for h in handles {
            samples.extend(h.join().expect("client thread panicked"));
        }
    });
    LoadReport::from_samples(&samples, started.elapsed())
}

/// Nearest-rank percentile of a sorted window of nanosecond latencies,
/// in milliseconds: the smallest sample with at least `p` percent of
/// the window at or below it (0 for an empty window). Every latency
/// percentile a load report carries goes through this one definition.
pub fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ns.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted_ns.len()) - 1;
    sorted_ns[idx] as f64 / 1e6
}

/// Per-reason counts of the degraded responses a run's clients saw,
/// keyed by the typed [`RejectReason`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    fn add(&mut self, reason: RejectReason) {
        match reason {
            RejectReason::QueueFull => self.queue_full += 1,
            RejectReason::QuotaExceeded => self.quota_exceeded += 1,
            RejectReason::DeadlineExceeded => self.deadline_exceeded += 1,
            RejectReason::Shutdown => self.shutdown += 1,
            RejectReason::InferenceError => self.inference_error += 1,
        }
    }
}

/// Latency/outcome aggregate for one lane.
#[derive(Debug, Clone)]
pub struct LaneReport {
    /// Lane name (`interactive` / `standard` / `bulk`).
    pub lane: String,
    /// Requests answered on this lane.
    pub requests: usize,
    /// Fully-inferred responses.
    pub full: u64,
    /// Degraded responses (shed or browned out).
    pub degraded: u64,
    /// Protocol-error responses.
    pub errors: u64,
    /// Per-reason breakdown of the degraded responses on this lane.
    pub rejects: RejectBreakdown,
    /// Client-observed latency percentiles, milliseconds.
    pub p50_ms: f64,
    /// See `p50_ms`.
    pub p95_ms: f64,
    /// See `p50_ms`.
    pub p99_ms: f64,
    /// See `p50_ms`.
    pub max_ms: f64,
}

/// Whole-run aggregate.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Wall-clock duration of the whole run, seconds.
    pub elapsed_s: f64,
    /// Aggregate throughput, requests per second.
    pub throughput_rps: f64,
    /// Trace id (hex) of the slowest request any client observed, for
    /// lookup under `/traces` on the admin endpoint (`"0"` if none).
    pub slowest_trace: String,
    /// Per-lane breakdown (lanes with zero requests are omitted).
    pub lanes: Vec<LaneReport>,
}

impl LoadReport {
    fn from_samples(samples: &[Sample], elapsed: Duration) -> LoadReport {
        let lanes = Priority::ALL
            .iter()
            .filter_map(|p| {
                let of_lane = || samples.iter().filter(|s| s.lane == *p);
                let mut latencies_ns: Vec<u64> = of_lane().map(|s| s.ns).collect();
                if latencies_ns.is_empty() {
                    return None;
                }
                latencies_ns.sort_unstable();
                let mut lane = LaneReport {
                    lane: p.as_str().to_string(),
                    requests: latencies_ns.len(),
                    full: 0,
                    degraded: 0,
                    errors: 0,
                    rejects: RejectBreakdown::default(),
                    p50_ms: percentile_ms(&latencies_ns, 50.0),
                    p95_ms: percentile_ms(&latencies_ns, 95.0),
                    p99_ms: percentile_ms(&latencies_ns, 99.0),
                    max_ms: percentile_ms(&latencies_ns, 100.0),
                };
                for s in of_lane() {
                    match s.reply.outcome {
                        Outcome::Full => lane.full += 1,
                        Outcome::Degraded(reason) => {
                            lane.degraded += 1;
                            lane.rejects.add(reason);
                        }
                        Outcome::Error => lane.errors += 1,
                    }
                }
                Some(lane)
            })
            .collect();
        let slowest = samples
            .iter()
            .filter(|s| s.reply.trace_id != 0)
            .max_by_key(|s| s.ns);
        LoadReport {
            elapsed_s: elapsed.as_secs_f64(),
            throughput_rps: samples.len() as f64 / elapsed.as_secs_f64().max(1e-9),
            slowest_trace: slowest.map_or_else(
                || String::from("0"),
                |s| format!("{:016x}", s.reply.trace_id),
            ),
            lanes,
        }
    }

    /// The report for one lane, if it saw traffic.
    pub fn lane(&self, priority: Priority) -> Option<&LaneReport> {
        self.lanes.iter().find(|l| l.lane == priority.as_str())
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
