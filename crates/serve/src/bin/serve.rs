//! Closed-loop serving benchmark: trains nothing, serves a
//! freshly-initialized model under synthetic load, and writes
//! `BENCH_serve.json`.
//!
//! For each concurrency level (1/8/32) the driver runs the same
//! request stream twice:
//! * **batched** — micro-batching scheduler + decoded-patch cache (the
//!   serving system under test);
//! * **unbatched** — `max_batch = 1`, no linger, no cache (naive
//!   per-request inference, the baseline).
//!
//! A final saturation phase submits a burst far beyond the queue bound
//! to demonstrate load shedding: the overflow is answered with degraded
//! bin-0 responses, counted, and reported.
//!
//! Subcommand:
//! * `serve stats` — run a short demo load against a fresh server and
//!   print the obs registry's Prometheus-style exposition text (the
//!   "stats endpoint" of a process with no network listener). Exits 1
//!   unless the text parses back to its snapshot and carries the
//!   `engine_weight_bytes` gauge.
//!
//! Environment knobs (all optional):
//! * `ADARNET_SERVE_SCALE` — `quick` (default; 16x32 fields, 8x8
//!   patches) or `full` (64x256 fields, 16x16 patches);
//! * `ADARNET_SERVE_REQUESTS` — requests per client;
//! * `ADARNET_SERVE_OUT` — output path (default `BENCH_serve.json`).

use std::sync::Arc;
use std::time::Duration;

use adarnet_core::checkpoint;
use adarnet_core::loss::NormStats;
use adarnet_core::network::{AdarNet, AdarNetConfig};
use adarnet_serve::{
    field_pool, run_closed_loop, ClientSpec, LoadReport, ModelRegistry, Priority, ResponseKind,
    ServeConfig, Server,
};
use adarnet_tensor::Tensor;
use serde::{object, Serialize, Value};

/// `clients` in-process closed-loop clients on the standard lane, each
/// sending `requests` fields from `pool`.
fn closed_loop(
    server: &Server,
    pool: &[Tensor<f32>],
    clients: usize,
    requests: usize,
) -> LoadReport {
    let spec = ClientSpec {
        tenant: 0,
        priority: Priority::Standard,
        connections: clients,
        requests,
        deadline_ms: 0,
        fields: pool.to_vec(),
    };
    run_closed_loop(|| Some(server), &[spec])
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `serve stats`: run a short demo load and print the metrics registry
/// as Prometheus exposition text — the closest thing a listener-less
/// process has to a `/metrics` endpoint, and the output shown in the
/// README's "Observing a running server" quickstart.
fn stats_main() {
    let model = AdarNet::new(AdarNetConfig {
        ph: 8,
        pw: 8,
        seed: 42,
        ..AdarNetConfig::default()
    });
    let ckpt = checkpoint::snapshot(&model, &NormStats::identity());
    let registry = Arc::new(ModelRegistry::new());
    registry.register("demo", ckpt);
    registry.activate("demo").unwrap();
    let server = Server::start(
        ServeConfig {
            queue_capacity: 64,
            max_batch: 8,
            max_linger: Duration::from_millis(2),
            workers: 1,
            cache_capacity: 1024,
            ..ServeConfig::default()
        },
        registry,
    )
    .unwrap();
    let pool = field_pool(4, 16, 32, 7);
    closed_loop(&server, &pool, 4, 4);
    server.shutdown();
    let snap = adarnet_obs::registry().snapshot();
    let text = snap.render_text();
    print!("{text}");
    // The text must parse back to the snapshot it was rendered from and
    // carry the frozen model's resident weight bytes.
    let verdict = match adarnet_obs::text::parse(&text) {
        Err(e) => Err(format!("exposition text does not parse: {e}")),
        Ok(back) if back != snap => Err("exposition text does not round-trip".to_string()),
        Ok(back) => match back.gauge("engine_weight_bytes") {
            Some(bytes) if bytes > 0.0 => Ok(()),
            _ => Err("no engine_weight_bytes gauge".to_string()),
        },
    };
    if let Err(e) = verdict {
        eprintln!("serve stats: {e}");
        std::process::exit(1);
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("stats") {
        return stats_main();
    }
    let mut scale = std::env::var("ADARNET_SERVE_SCALE").unwrap_or_else(|_| "quick".into());
    if scale != "quick" && scale != "full" {
        eprintln!("warning: unknown ADARNET_SERVE_SCALE '{scale}', using quick");
        scale = "quick".into();
    }
    let (h, w, patch, default_requests) = match scale.as_str() {
        "full" => (64, 256, 16, 4),
        _ => (16, 32, 8, 8),
    };
    let requests_per_client = env_usize("ADARNET_SERVE_REQUESTS", default_requests);
    let out_path = std::env::var("ADARNET_SERVE_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    let concurrencies = [1usize, 8, 32];

    // One checkpoint shared by every run (weights are random — serving
    // cost does not depend on training quality).
    let model = AdarNet::new(AdarNetConfig {
        ph: patch,
        pw: patch,
        seed: 42,
        ..AdarNetConfig::default()
    });
    let ckpt = checkpoint::snapshot(&model, &NormStats::identity());

    let pool = field_pool(8, h, w, 1234);
    println!(
        "serve bench: scale={scale}, fields {h}x{w}, patch {patch}, pool {}",
        pool.len()
    );

    // One object per closed-loop run: its configuration beside the
    // generator's report.
    let mut runs: Vec<Value> = Vec::new();
    let mut speedup_at_max = 0.0;

    for &concurrency in &concurrencies {
        let mut throughput = [0.0f64; 2];
        for (mode_idx, mode) in ["batched", "unbatched"].into_iter().enumerate() {
            let registry = Arc::new(ModelRegistry::new());
            registry.register("bench", ckpt.clone());
            registry.activate("bench").unwrap();
            let base = ServeConfig {
                queue_capacity: 256,
                max_batch: 8,
                max_linger: Duration::from_millis(2),
                workers: 1,
                cache_capacity: 4096,
                ..ServeConfig::default()
            };
            let cfg = if mode == "batched" {
                base
            } else {
                base.unbatched()
            };
            let server = Server::start(cfg, registry).unwrap();
            let report = closed_loop(&server, &pool, concurrency, requests_per_client);
            let cache_hit_rate = server.cache().hit_rate();
            let lane = report.lane(Priority::Standard).expect("standard lane ran");
            println!(
                "{mode:>9} c={concurrency:<3} {:>8.2} req/s  p50 {:>8.2} ms  p95 {:>8.2} ms  p99 {:>8.2} ms  max {:>8.2} ms  cache {:>3.0}%  shed {}",
                report.throughput_rps,
                lane.p50_ms,
                lane.p95_ms,
                lane.p99_ms,
                lane.max_ms,
                cache_hit_rate * 100.0,
                lane.degraded,
            );
            throughput[mode_idx] = report.throughput_rps;
            runs.push(object([
                ("mode", mode.to_string().to_value()),
                ("concurrency", concurrency.to_value()),
                ("cache_hit_rate", cache_hit_rate.to_value()),
                ("report", report.to_value()),
            ]));
            server.shutdown();
        }
        if concurrency == *concurrencies.last().unwrap() && throughput[1] > 0.0 {
            speedup_at_max = throughput[0] / throughput[1];
        }
    }
    println!("batched/unbatched speedup at c=32: {speedup_at_max:.2}x");

    // Saturation: queue bound 4, burst of 32 submissions before the
    // single worker can drain — overflow must shed, nothing may hang.
    let saturation = {
        let registry = Arc::new(ModelRegistry::new());
        registry.register("bench", ckpt.clone());
        registry.activate("bench").unwrap();
        let cfg = ServeConfig {
            queue_capacity: 4,
            max_batch: 4,
            max_linger: Duration::from_millis(20),
            workers: 1,
            cache_capacity: 0,
            ..ServeConfig::default()
        };
        let burst = 32;
        let server = Server::start(cfg, registry).unwrap();
        let receivers: Vec<_> = (0..burst)
            .map(|i| server.submit(pool[i % pool.len()].clone()))
            .collect();
        let mut degraded = 0u64;
        let mut full = 0u64;
        for rx in receivers {
            match rx.recv().unwrap().kind {
                ResponseKind::Full => full += 1,
                _ => degraded += 1,
            }
        }
        let shed = server.stats().shed_queue_full;
        println!(
            "saturation: burst {burst} over capacity 4 -> {full} full, {degraded} degraded ({shed} shed at queue)"
        );
        server.shutdown();
        object([
            ("queue_capacity", 4usize.to_value()),
            ("burst", burst.to_value()),
            ("shed_queue_full", shed.to_value()),
            ("degraded_seen", degraded.to_value()),
            ("full_seen", full.to_value()),
        ])
    };

    let output = object([
        ("scale", scale.to_value()),
        ("field_h", h.to_value()),
        ("field_w", w.to_value()),
        ("patch", patch.to_value()),
        ("pool_size", pool.len().to_value()),
        ("runs", Value::Array(runs)),
        (
            "batched_vs_unbatched_speedup_at_max_concurrency",
            speedup_at_max.to_value(),
        ),
        ("saturation", saturation),
    ]);
    let json = serde_json::to_string_pretty(&output).expect("report serializes");
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
