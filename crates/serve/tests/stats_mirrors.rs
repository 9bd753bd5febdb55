//! The process-global `serve_*_total` counters mirror the per-server
//! `ServeStats` cells. This binary runs one server alone, so after
//! traffic and `shutdown()` each mirror's delta must equal its field.

use std::sync::Arc;
use std::time::{Duration, Instant};

use adarnet_core::checkpoint;
use adarnet_core::loss::NormStats;
use adarnet_core::network::{AdarNet, AdarNetConfig};
use adarnet_serve::{ModelRegistry, QuotaConfig, ServeConfig, ServeStats, Server, SubmitOptions};
use adarnet_tensor::{Shape, Tensor};

/// Each mirror counter, paired with the `ServeStats` field it must equal.
fn mirrored(s: &ServeStats) -> [(&'static str, u64); 9] {
    [
        ("serve_completed_total", s.completed),
        ("serve_shed_queue_full_total", s.shed_queue_full),
        ("serve_shed_inference_error_total", s.shed_inference_error),
        ("serve_shed_quota_total", s.shed_quota),
        ("serve_shed_shutdown_total", s.shed_shutdown),
        ("serve_brownout_deadline_total", s.brownout_deadline),
        ("serve_batches_total", s.batches),
        ("serve_batched_requests_total", s.batched_requests),
        ("serve_engine_swaps_total", s.engine_swaps),
    ]
}

fn mirror_values() -> [u64; 9] {
    mirrored(&ServeStats::default()).map(|(name, _)| adarnet_obs::registry().counter(name).value())
}

#[test]
fn every_mirror_moves_with_its_serve_stats_field() {
    let registry = Arc::new(ModelRegistry::new());
    for (name, seed) in [("a", 7), ("b", 8)] {
        let cfg = AdarNetConfig {
            ph: 8,
            pw: 8,
            seed,
            ..AdarNetConfig::default()
        };
        registry.register(
            name,
            checkpoint::snapshot(&AdarNet::new(cfg), &NormStats::identity()),
        );
    }
    registry.activate("a").unwrap();
    let cfg = ServeConfig {
        queue_capacity: 2,
        max_batch: 2,
        max_linger: Duration::from_millis(1),
        workers: 1,
        quota: Some(QuotaConfig {
            rate_per_sec: 1,
            burst: 4,
        }),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, registry.clone()).unwrap();
    let before = mirror_values();
    let field = |phase: f32| {
        let data = (0..4 * 16 * 32).map(|i| (i as f32 * 0.017 + phase).sin());
        Tensor::from_vec(Shape::d3(4, 16, 32), data.collect())
    };
    let opts = |tenant, deadline| SubmitOptions {
        tenant,
        deadline,
        ..SubmitOptions::default()
    };

    // A burst past the small queue and tenant 1's quota: completions,
    // batches, queue-full and quota sheds.
    let burst: Vec<_> = (0..8)
        .map(|i| server.submit_with(field(i as f32 * 0.1), opts(1, None)))
        .collect();
    for rx in burst {
        rx.recv_timeout(Duration::from_secs(60)).unwrap();
    }
    // A deadline brownout, then a hot swap picked up by the worker.
    let expired = Instant::now() - Duration::from_millis(1);
    server.submit_wait_with(field(2.0), opts(2, Some(expired)));
    registry.activate("b").unwrap();
    server.submit_wait_with(field(3.0), opts(3, None));
    let stats = server.shutdown();

    assert!(stats.completed > 0 && stats.shed_quota > 0 && stats.engine_swaps > 0);
    let deltas = before.into_iter().zip(mirror_values());
    for ((name, field), (before, after)) in mirrored(&stats).into_iter().zip(deltas) {
        assert_eq!(after - before, field, "{name} vs its ServeStats field");
    }
}
