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
//! A `precision_comparison` phase hydrates an f32 and a bf16 engine
//! from the same checkpoint (narrowing happens at freeze, as the
//! registry does it for routed requests) and measures both under one
//! worker-slot discipline, interleaved best-of-3: throughput,
//! resident weight bytes, and the bf16/f32 ratios of each.
//!
//! Subcommand:
//! * `serve stats` — run a short demo load against a fresh server and
//!   print the obs registry's Prometheus-style exposition text (the
//!   "stats endpoint" of a process with no network listener).
//!
//! Environment knobs (all optional):
//! * `ADARNET_SERVE_SCALE` — `quick` (default; 16x32 fields, 8x8
//!   patches) or `full` (64x256 fields, 16x16 patches);
//! * `ADARNET_SERVE_REQUESTS` — requests per client;
//! * `ADARNET_SERVE_OUT` — output path (default `BENCH_serve.json`);
//! * `ADARNET_SERVE_METRICS_OUT` — also write the final exposition
//!   text (metrics snapshot) to this path.

use std::sync::Arc;
use std::time::Duration;

use adarnet_core::checkpoint;
use adarnet_core::loss::NormStats;
use adarnet_core::network::{AdarNet, AdarNetConfig};
use adarnet_serve::{
    field_pool, run_closed_loop, LatencyWindow, LoadReport, ModelRegistry, ResponseKind,
    ServeConfig, Server,
};
use serde::Serialize;

#[derive(Serialize)]
struct SaturationReport {
    queue_capacity: usize,
    burst: usize,
    shed_queue_full: u64,
    degraded_seen: u64,
    full_seen: u64,
}

#[derive(Serialize)]
struct PrecisionComparison {
    clients: usize,
    requests_per_client: usize,
    f32_throughput_rps: f64,
    /// Resident frozen-weight bytes of the f32 engine.
    f32_weight_bytes_resident: u64,
    bf16_throughput_rps: f64,
    /// Resident frozen-weight bytes of the bf16 engine (packed bf16
    /// panels + f32 bias; the acceptance bar is <= 0.55x f32).
    bf16_weight_bytes_resident: u64,
    bf16_vs_f32_speedup: f64,
    bf16_vs_f32_weight_bytes: f64,
}

#[derive(Serialize)]
struct BenchOutput {
    scale: String,
    field_h: usize,
    field_w: usize,
    patch: usize,
    pool_size: usize,
    runs: Vec<LoadReport>,
    batched_vs_unbatched_speedup_at_max_concurrency: f64,
    saturation: SaturationReport,
    precision_comparison: PrecisionComparison,
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Closed-loop throughput of `clients` threads, each issuing
/// `requests` inferences through `infer`, round-robin over `pool`.
fn closed_loop_rps(
    pool: &[adarnet_tensor::Tensor<f32>],
    clients: usize,
    requests: usize,
    infer: impl Fn(&adarnet_tensor::Tensor<f32>) + Sync,
) -> f64 {
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let infer = &infer;
            scope.spawn(move || {
                for r in 0..requests {
                    infer(&pool[(c * requests + r) % pool.len()]);
                }
            });
        }
    });
    (clients * requests) as f64 / started.elapsed().as_secs_f64().max(1e-9)
}

/// A counting semaphore bounding in-flight inferences to the worker
/// count, so both weight planes run under the same concurrency
/// discipline and only the plane differs.
struct WorkerSlots {
    free: std::sync::Mutex<usize>,
    cv: std::sync::Condvar,
}

impl WorkerSlots {
    fn new(n: usize) -> WorkerSlots {
        WorkerSlots {
            free: std::sync::Mutex::new(n),
            cv: std::sync::Condvar::new(),
        }
    }

    fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        let mut free = self.free.lock().expect("bench slots");
        while *free == 0 {
            free = self.cv.wait(free).expect("bench slots");
        }
        *free -= 1;
        drop(free);
        let r = f();
        *self.free.lock().expect("bench slots") += 1;
        self.cv.notify_one();
        r
    }
}

/// The f32 plane vs. the bf16 plane, hydrated from the same checkpoint
/// (narrowing happens at freeze, exactly as the serving registry does
/// for per-request routing). Both sides run behind the same number of
/// worker slots, measured interleaved best-of-3 (alternating cancels
/// machine drift on the shared host, and the per-side max is the
/// cleanest estimate of each plane's capability) after one untimed
/// warm-up round, so the only difference under test is the weight
/// plane itself: half-size packed panels plus the per-call widening
/// stage against full f32 panels.
fn precision_comparison(
    ckpt: &adarnet_core::ModelCheckpoint,
    pool: &[adarnet_tensor::Tensor<f32>],
    clients: usize,
    requests: usize,
) -> PrecisionComparison {
    use adarnet_core::InferenceEngine;
    use adarnet_serve::Precision;
    let workers = 4usize;

    let f32_engine = Arc::new(
        InferenceEngine::from_checkpoint_with(ckpt, Precision::F32).expect("bench ckpt restores"),
    );
    let bf16_engine = Arc::new(
        InferenceEngine::from_checkpoint_with(ckpt, Precision::Bf16).expect("bench ckpt restores"),
    );
    let f32_weight_bytes = f32_engine.weight_bytes() as u64;
    let bf16_weight_bytes = bf16_engine.weight_bytes() as u64;

    let slots = WorkerSlots::new(workers);
    let f32_infer = |f: &adarnet_tensor::Tensor<f32>| {
        slots.run(|| f32_engine.infer(f).expect("bench inference").recycle());
    };
    let slots2 = WorkerSlots::new(workers);
    let bf16_infer = |f: &adarnet_tensor::Tensor<f32>| {
        slots2.run(|| bf16_engine.infer(f).expect("bench inference").recycle());
    };

    let warmup = requests.div_ceil(4);
    closed_loop_rps(pool, clients, warmup, f32_infer);
    closed_loop_rps(pool, clients, warmup, bf16_infer);
    let (mut f32_rps, mut bf16_rps) = (0.0f64, 0.0f64);
    for _ in 0..3 {
        f32_rps = f32_rps.max(closed_loop_rps(pool, clients, requests, f32_infer));
        bf16_rps = bf16_rps.max(closed_loop_rps(pool, clients, requests, bf16_infer));
    }

    PrecisionComparison {
        clients,
        requests_per_client: requests,
        f32_throughput_rps: f32_rps,
        f32_weight_bytes_resident: f32_weight_bytes,
        bf16_throughput_rps: bf16_rps,
        bf16_weight_bytes_resident: bf16_weight_bytes,
        bf16_vs_f32_speedup: if f32_rps > 0.0 {
            bf16_rps / f32_rps
        } else {
            0.0
        },
        bf16_vs_f32_weight_bytes: if f32_weight_bytes > 0 {
            bf16_weight_bytes as f64 / f32_weight_bytes as f64
        } else {
            0.0
        },
    }
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
    let (_, _) = run_closed_loop(&server, &pool, 4, 4);
    // A couple of explicitly-routed bf16 requests so the demo output
    // shows both weight planes: the second engine hydrates lazily on
    // first routed request, its gauges join the registry, and the
    // per-precision completion split below is non-trivial.
    for f in pool.iter().take(2) {
        let r = server.submit_wait_with(
            f.clone(),
            adarnet_serve::SubmitOptions {
                precision: Some(adarnet_serve::Precision::Bf16),
                ..adarnet_serve::SubmitOptions::default()
            },
        );
        r.prediction.recycle();
    }
    let stats = server.stats();
    server.shutdown();
    print!("{}", adarnet_obs::registry().render_text());
    for (i, n) in stats.completed_per_precision.iter().enumerate() {
        let p = adarnet_serve::Precision::from_index(i).expect("stats index is a precision");
        println!("# serve completions at precision {}: {n}", p.name());
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

    let mut runs: Vec<LoadReport> = Vec::new();
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
            let window = LatencyWindow::start();
            let (observations, elapsed) =
                run_closed_loop(&server, &pool, concurrency, requests_per_client);
            let report = LoadReport::from_run(
                mode,
                concurrency,
                &server,
                &observations,
                elapsed,
                &window.finish(),
            );
            println!(
                "{:>9} c={:<3} {:>8.2} req/s  p50 {:>8.2} ms  p95 {:>8.2} ms  p99 {:>8.2} ms  max {:>8.2} ms  cache {:>3.0}%  shed {}",
                report.mode,
                report.concurrency,
                report.throughput_rps,
                report.p50_ms,
                report.p95_ms,
                report.p99_ms,
                report.max_ms,
                report.cache_hit_rate * 100.0,
                report.shed_queue_full + report.shed_inference_error,
            );
            throughput[mode_idx] = report.throughput_rps;
            runs.push(report);
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
        SaturationReport {
            queue_capacity: 4,
            burst,
            shed_queue_full: shed,
            degraded_seen: degraded,
            full_seen: full,
        }
    };

    // f32 vs. bf16 weight plane from the same checkpoint, same load.
    let precision = precision_comparison(&ckpt, &pool, 32, requests_per_client);
    println!(
        "precision: f32 {:.2} req/s ({} B resident) vs bf16 {:.2} req/s ({} B resident) -> {:.2}x speed, {:.2}x bytes",
        precision.f32_throughput_rps,
        precision.f32_weight_bytes_resident,
        precision.bf16_throughput_rps,
        precision.bf16_weight_bytes_resident,
        precision.bf16_vs_f32_speedup,
        precision.bf16_vs_f32_weight_bytes,
    );

    let output = BenchOutput {
        scale,
        field_h: h,
        field_w: w,
        patch,
        pool_size: pool.len(),
        runs,
        batched_vs_unbatched_speedup_at_max_concurrency: speedup_at_max,
        saturation,
        precision_comparison: precision,
    };
    let json = serde_json::to_string_pretty(&output).expect("report serializes");
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    if let Ok(metrics_path) = std::env::var("ADARNET_SERVE_METRICS_OUT") {
        let text = adarnet_obs::registry().render_text();
        if let Err(e) = std::fs::write(&metrics_path, text) {
            eprintln!("error: cannot write {metrics_path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {metrics_path}");
    }
}
