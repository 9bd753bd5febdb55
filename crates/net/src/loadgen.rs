//! Closed-loop TCP load generator with per-lane latency percentiles.
//!
//! Mirrors `adarnet_serve::loadgen` but drives the server over real
//! loopback TCP through [`NetClient`]s: each client spec spawns its own
//! connections (one per client thread), sends its requests
//! sequentially, and records *client-observed* wall-clock latency —
//! codec + socket + queue + inference, the number a remote caller
//! actually sees. Results aggregate per lane, which is what the
//! priority scheduler's acceptance criterion (interactive p99 under a
//! bulk-heavy mix) is stated over.

use std::net::SocketAddr;
use std::time::Instant;

use adarnet_serve::{percentile_ms, Priority, RejectBreakdown, RejectReason, NUM_LANES};
use adarnet_tensor::Tensor;
use serde::Serialize;

use crate::client::NetClient;
use crate::proto::Status;

/// One class of synthetic clients.
#[derive(Clone)]
pub struct ClientSpec {
    /// Tenant id stamped on every request.
    pub tenant: u64,
    /// Lane requested.
    pub priority: Priority,
    /// Concurrent connections running this spec.
    pub connections: usize,
    /// Requests per connection.
    pub requests: usize,
    /// Deadline budget per request, ms (0 = none).
    pub deadline_ms: u32,
    /// Fields cycled round-robin by each connection.
    pub fields: Vec<Tensor<f32>>,
}

/// Latency/outcome aggregate for one lane.
#[derive(Debug, Clone, Serialize)]
pub struct LaneReport {
    /// Lane name (`interactive` / `standard` / `bulk`).
    pub lane: String,
    /// Requests issued on this lane.
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
#[derive(Debug, Clone, Serialize)]
pub struct TcpLoadReport {
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

struct LaneAccum {
    latencies_ns: Vec<u64>,
    full: u64,
    degraded: u64,
    errors: u64,
    rejects: RejectBreakdown,
}

/// One request's client-side record.
#[derive(Clone, Copy)]
struct Sample {
    lane: usize,
    ns: u64,
    status: Status,
    reject: Option<RejectReason>,
    trace_id: u64,
}

/// Run every spec's connections concurrently against `addr`, blocking
/// until all requests are answered. Panics only on setup failure
/// (connect refused), which is what a load-test harness wants.
pub fn run_tcp_closed_loop(addr: SocketAddr, specs: &[ClientSpec]) -> TcpLoadReport {
    let started = Instant::now();
    let mut per_thread: Vec<Vec<Sample>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for spec in specs {
            for conn in 0..spec.connections.max(1) {
                let spec = spec.clone();
                handles.push(scope.spawn(move || {
                    let mut client = match NetClient::connect(addr) {
                        Ok(c) => c,
                        Err(_) => {
                            // Setup failure: no samples; the caller sees
                            // the shortfall in per-lane request counts.
                            adarnet_obs::counter!("net_loadgen_connect_errors_total").inc();
                            return Vec::new();
                        }
                    };
                    let mut samples = Vec::with_capacity(spec.requests);
                    for r in 0..spec.requests {
                        let field = spec.fields[(conn + r) % spec.fields.len()].clone();
                        let sent = Instant::now();
                        match client.infer(field, spec.priority, spec.tenant, spec.deadline_ms) {
                            Ok(resp) => samples.push(Sample {
                                lane: spec.priority.index(),
                                ns: sent.elapsed().as_nanos() as u64,
                                status: resp.status,
                                reject: resp.reject,
                                trace_id: resp.trace_id,
                            }),
                            Err(_) => {
                                adarnet_obs::counter!("net_loadgen_request_errors_total").inc();
                                return samples;
                            }
                        }
                    }
                    samples
                }));
            }
        }
        for h in handles {
            if let Ok(samples) = h.join() {
                per_thread.push(samples);
            }
        }
    });
    let elapsed = started.elapsed();

    let mut accums: Vec<LaneAccum> = (0..NUM_LANES)
        .map(|_| LaneAccum {
            latencies_ns: Vec::new(),
            full: 0,
            degraded: 0,
            errors: 0,
            rejects: RejectBreakdown::default(),
        })
        .collect();
    let mut total = 0usize;
    let mut slowest: Option<(u64, u64)> = None; // (latency_ns, trace_id)
    for samples in &per_thread {
        for &s in samples {
            total += 1;
            let a = &mut accums[s.lane];
            a.latencies_ns.push(s.ns);
            match s.status {
                Status::Full => a.full += 1,
                Status::Degraded => a.degraded += 1,
                Status::Error => a.errors += 1,
            }
            match s.reject {
                Some(RejectReason::QueueFull) => a.rejects.queue_full += 1,
                Some(RejectReason::QuotaExceeded) => a.rejects.quota_exceeded += 1,
                Some(RejectReason::DeadlineExceeded) => a.rejects.deadline_exceeded += 1,
                Some(RejectReason::Shutdown) => a.rejects.shutdown += 1,
                Some(RejectReason::InferenceError) => a.rejects.inference_error += 1,
                None => {}
            }
            if s.trace_id != 0 && slowest.is_none_or(|(ns, _)| s.ns > ns) {
                slowest = Some((s.ns, s.trace_id));
            }
        }
    }

    let lanes = Priority::ALL
        .iter()
        .zip(accums.iter_mut())
        .filter(|(_, a)| !a.latencies_ns.is_empty())
        .map(|(p, a)| {
            a.latencies_ns.sort_unstable();
            LaneReport {
                lane: p.as_str().to_string(),
                requests: a.latencies_ns.len(),
                full: a.full,
                degraded: a.degraded,
                errors: a.errors,
                rejects: a.rejects,
                p50_ms: percentile_ms(&a.latencies_ns, 50.0),
                p95_ms: percentile_ms(&a.latencies_ns, 95.0),
                p99_ms: percentile_ms(&a.latencies_ns, 99.0),
                max_ms: a.latencies_ns.last().map_or(0.0, |&ns| ns as f64 / 1e6),
            }
        })
        .collect();

    TcpLoadReport {
        elapsed_s: elapsed.as_secs_f64(),
        throughput_rps: total as f64 / elapsed.as_secs_f64().max(1e-9),
        slowest_trace: slowest.map_or_else(|| String::from("0"), |(_, t)| format!("{t:016x}")),
        lanes,
    }
}

impl TcpLoadReport {
    /// The report for one lane, if it saw traffic.
    pub fn lane(&self, priority: Priority) -> Option<&LaneReport> {
        self.lanes.iter().find(|l| l.lane == priority.as_str())
    }
}
