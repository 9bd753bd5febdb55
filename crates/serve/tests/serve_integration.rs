//! Integration tests for the serving subsystem: cache bitwise
//! identity, saturation shedding, and checkpoint round-trip through
//! the registry with hot swap.

use std::sync::Arc;
use std::time::Duration;

use adarnet_core::checkpoint::{self, ModelCheckpoint};
use adarnet_core::loss::NormStats;
use adarnet_core::network::{AdarNet, AdarNetConfig, Prediction};
use adarnet_serve::{ModelRegistry, ResponseKind, ServeConfig, Server};
use adarnet_tensor::{Shape, Tensor};

fn sample(h: usize, w: usize, phase: f32) -> Tensor<f32> {
    Tensor::from_vec(
        Shape::d3(4, h, w),
        (0..4 * h * w)
            .map(|i| ((i as f32) * 0.017 + phase).sin())
            .collect(),
    )
}

fn ckpt(seed: u64) -> ModelCheckpoint {
    let model = AdarNet::new(AdarNetConfig {
        ph: 8,
        pw: 8,
        seed,
        ..AdarNetConfig::default()
    });
    checkpoint::snapshot(&model, &NormStats::identity())
}

fn registry_with(name: &str, seed: u64) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new());
    registry.register(name, ckpt(seed));
    registry.activate(name).unwrap();
    registry
}

fn assert_predictions_bitwise_eq(a: &Prediction, b: &Prediction) {
    assert_eq!(a.binning.bin_of_patch, b.binning.bin_of_patch);
    assert_eq!(a.patches.len(), b.patches.len());
    for (x, y) in a.patches.iter().zip(&b.patches) {
        assert_eq!(x, y, "patch tensors must be bitwise identical");
    }
}

/// Acceptance: cache on vs. off yields bitwise-identical predictions
/// for a deterministic request stream.
#[test]
fn cache_on_off_bitwise_identical_stream() {
    let stream: Vec<Tensor<f32>> = (0..6).map(|i| sample(16, 32, (i % 3) as f32)).collect();

    let run = |cache_capacity: usize| -> Vec<Prediction> {
        let cfg = ServeConfig {
            queue_capacity: 64,
            max_batch: 4,
            max_linger: Duration::from_millis(1),
            workers: 1,
            cache_capacity,
            ..ServeConfig::default()
        };
        let server = Server::start(cfg, registry_with("m", 7)).unwrap();
        let predictions: Vec<Prediction> = stream
            .iter()
            .map(|f| {
                let r = server.submit_wait(f.clone());
                assert_eq!(r.kind, ResponseKind::Full);
                r.prediction
            })
            .collect();
        server.shutdown();
        predictions
    };

    let with_cache = run(1024);
    let without_cache = run(0);
    for (a, b) in with_cache.iter().zip(&without_cache) {
        assert_predictions_bitwise_eq(a, b);
    }
}

/// The repetitive stream above must actually exercise the cache.
#[test]
fn repeated_fields_hit_cache() {
    let cfg = ServeConfig {
        queue_capacity: 64,
        max_batch: 4,
        max_linger: Duration::from_millis(1),
        workers: 1,
        cache_capacity: 1024,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, registry_with("m", 7)).unwrap();
    let field = sample(16, 32, 0.0);
    let first = server.submit_wait(field.clone());
    let hits_after_first = server.cache().hits();
    let second = server.submit_wait(field.clone());
    assert!(
        server.cache().hits() > hits_after_first,
        "identical request must hit the decoded-patch cache"
    );
    assert_predictions_bitwise_eq(&first.prediction, &second.prediction);
    server.shutdown();
}

/// Acceptance: with the queue bounded at N and far more than N
/// submissions in flight, the overflow is answered with degraded bin-0
/// responses — no panic, no deadlock — and the shed count is observable.
#[test]
fn saturation_sheds_with_degraded_bin0_responses() {
    let capacity = 3;
    let cfg = ServeConfig {
        queue_capacity: capacity,
        max_batch: 2,
        max_linger: Duration::from_millis(10),
        workers: 1,
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, registry_with("m", 7)).unwrap();
    let burst = 24;
    let receivers: Vec<_> = (0..burst)
        .map(|i| server.submit(sample(16, 32, i as f32 * 0.1)))
        .collect();

    let mut full = 0;
    let mut degraded = 0;
    for rx in receivers {
        let response = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("every request must be answered (no deadlock)");
        match response.kind {
            ResponseKind::Full => full += 1,
            ResponseKind::ShedQueueFull => {
                degraded += 1;
                // Degraded = bin 0 everywhere, LR-resolution patches.
                assert!(response
                    .prediction
                    .binning
                    .bin_of_patch
                    .iter()
                    .all(|&b| b == 0));
                assert_eq!(response.prediction.active_cells(), 16 * 32);
            }
            other => panic!("unexpected response kind under saturation: {other:?}"),
        }
    }
    assert_eq!(full + degraded, burst);
    assert!(
        degraded > 0,
        "burst of {burst} over capacity {capacity} must shed"
    );
    assert_eq!(server.stats().shed_queue_full, degraded as u64);
    server.shutdown();
}

/// Satellite: checkpoint round-trip through the registry — save to
/// disk, load back, hot-swap to it, and verify bitwise-identical
/// inference on a fixed seed.
#[test]
fn registry_checkpoint_roundtrip_hot_swap_bitwise_identical() {
    let dir = std::env::temp_dir().join("adarnet_serve_registry_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model_a.json");

    // Save model A to disk via core::checkpoint.
    let (model_a, norm_a) = checkpoint::restore(&ckpt(11)).unwrap();
    checkpoint::save_file(&model_a, &norm_a, &path).unwrap();

    let registry = Arc::new(ModelRegistry::new());
    registry.register("b", ckpt(22));
    registry.load("a", &path).unwrap();
    registry.activate("b").unwrap();

    let cfg = ServeConfig {
        queue_capacity: 16,
        max_batch: 2,
        max_linger: Duration::from_millis(1),
        workers: 1,
        cache_capacity: 256,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, registry.clone()).unwrap();
    let field = sample(16, 16, 0.3);

    let before_swap = server.submit_wait(field.clone());
    assert_eq!(before_swap.generation, 1);

    // Hot swap to the from-disk model; workers re-fetch the shared
    // engine lazily.
    registry.activate("a").unwrap();
    let after_swap = server.submit_wait(field.clone());
    assert_eq!(after_swap.generation, 2);
    assert_eq!(server.stats().engine_swaps, 1);

    // The served result must be bitwise what model A computes directly.
    let direct = checkpoint::load_file(&path).map(|(m, _)| m).unwrap();
    let expected = direct.freeze().try_predict(&field).unwrap();
    assert_predictions_bitwise_eq(&after_swap.prediction, &expected);

    // And differ from model B's output (the swap really happened).
    assert_ne!(
        before_swap.prediction.patches[0], after_swap.prediction.patches[0],
        "different weights must produce different patches"
    );

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Hot swap under concurrent traffic: no panics, every response comes
/// from a coherent generation.
#[test]
fn hot_swap_under_load_is_coherent() {
    let registry = Arc::new(ModelRegistry::new());
    registry.register("a", ckpt(1));
    registry.register("b", ckpt(2));
    registry.activate("a").unwrap();
    let cfg = ServeConfig {
        queue_capacity: 64,
        max_batch: 4,
        max_linger: Duration::from_millis(1),
        workers: 1,
        cache_capacity: 512,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, registry.clone()).unwrap();
    for i in 0..4 {
        let r = server.submit_wait(sample(16, 16, i as f32));
        assert_eq!(r.kind, ResponseKind::Full);
        assert_eq!(r.generation, 1);
    }
    registry.activate("b").unwrap();
    for i in 0..4 {
        let r = server.submit_wait(sample(16, 16, i as f32));
        assert_eq!(r.kind, ResponseKind::Full);
        assert_eq!(r.generation, 2);
    }
    server.shutdown();
}

/// Satellite: every reject path is typed. A tenant over its quota gets
/// `ShedQuota` / `QuotaExceeded`, a distinct stats cell from
/// queue-full, and other tenants are unaffected.
#[test]
fn quota_sheds_are_typed_and_tenant_isolated() {
    use adarnet_serve::{QuotaConfig, RejectReason, SubmitOptions};
    let cfg = ServeConfig {
        queue_capacity: 64,
        max_batch: 4,
        max_linger: Duration::from_millis(1),
        workers: 1,
        cache_capacity: 0,
        quota: Some(QuotaConfig {
            rate_per_sec: 1,
            burst: 2,
        }),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, registry_with("m", 7)).unwrap();
    let opts = |tenant: u64| SubmitOptions {
        tenant,
        ..SubmitOptions::default()
    };
    // Admit back-to-back (admission is decided at submit time; waiting
    // for each reply would let the bucket refill between requests).
    let receivers: Vec<_> = (0..5)
        .map(|i| server.submit_with(sample(16, 32, i as f32), opts(1)))
        .collect();
    let mut quota_shed = 0u64;
    for rx in receivers {
        let r = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("every request answered");
        if r.kind == ResponseKind::ShedQuota {
            quota_shed += 1;
            assert_eq!(r.kind.reject_reason(), Some(RejectReason::QuotaExceeded));
            assert!(r.prediction.binning.bin_of_patch.iter().all(|&b| b == 0));
        }
    }
    assert!(quota_shed >= 2, "burst 2 + 5 rapid requests must shed");
    // Tenant 2's bucket is untouched by tenant 1's exhaustion.
    let r = server.submit_wait_with(sample(16, 32, 9.0), opts(2));
    assert_eq!(r.kind, ResponseKind::Full);
    let stats = server.shutdown();
    assert_eq!(stats.shed_quota, quota_shed);
    assert_eq!(stats.shed_queue_full, 0, "quota sheds must not be lumped");
}

/// Satellite: a request past its deadline is answered with the typed
/// deadline brownout — degraded bin-0, `DeadlineExceeded`, its own
/// stats cell — never silently dropped.
#[test]
fn expired_deadline_gets_typed_brownout_response() {
    use adarnet_serve::{Priority, RejectReason, SubmitOptions};
    use std::time::Instant;
    let cfg = ServeConfig {
        queue_capacity: 64,
        max_batch: 4,
        max_linger: Duration::from_millis(1),
        workers: 1,
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, registry_with("m", 7)).unwrap();
    // Already-expired deadline: browned out at admission.
    let r = server.submit_wait_with(
        sample(16, 32, 0.0),
        SubmitOptions {
            priority: Priority::Interactive,
            tenant: 3,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..SubmitOptions::default()
        },
    );
    assert_eq!(r.kind, ResponseKind::BrownoutDeadline);
    assert_eq!(r.kind.reject_reason(), Some(RejectReason::DeadlineExceeded));
    assert!(r.kind.is_degraded());
    assert!(r.prediction.binning.bin_of_patch.iter().all(|&b| b == 0));
    // A generous deadline is served in full, on the requested lane.
    let r = server.submit_wait_with(
        sample(16, 32, 1.0),
        SubmitOptions {
            priority: Priority::Interactive,
            tenant: 3,
            deadline: Some(Instant::now() + Duration::from_secs(60)),
            ..SubmitOptions::default()
        },
    );
    assert_eq!(r.kind, ResponseKind::Full);
    assert_eq!(r.priority, Priority::Interactive);
    let stats = server.shutdown();
    assert_eq!(stats.brownout_deadline, 1);
    assert_eq!(
        stats.shed_queue_full, 0,
        "deadline misses are not queue-full"
    );
    assert_eq!(
        stats.completed_per_lane[0], 1,
        "served on the interactive lane"
    );
}

/// Tenant ids come off the wire, so a peer cycling through them must
/// not grow per-tenant state without bound: 10 000 distinct ids leave
/// the quota table and the metrics registry at or under the tracked-
/// tenant cap, and every request is still answered and counted.
#[test]
fn distinct_tenant_ids_leave_bounded_state() {
    use adarnet_serve::{QuotaConfig, SubmitOptions, MAX_TRACKED_TENANTS};
    const SUBMITTED: u64 = 10_000;
    let cfg = ServeConfig {
        queue_capacity: 2,
        max_batch: 2,
        max_linger: Duration::ZERO,
        workers: 1,
        cache_capacity: 0,
        quota: Some(QuotaConfig {
            rate_per_sec: 1,
            burst: 1,
        }),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, registry_with("m", 7)).unwrap();
    let field = sample(8, 8, 0.0);
    let receivers: Vec<_> = (0..SUBMITTED)
        .map(|tenant| {
            let opts = SubmitOptions {
                tenant,
                ..SubmitOptions::default()
            };
            server.submit_with(field.clone(), opts)
        })
        .collect();
    for rx in receivers {
        rx.recv_timeout(Duration::from_secs(60))
            .expect("every request answered");
    }
    let tenant_counters = adarnet_obs::registry()
        .snapshot()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("serve_tenant_"))
        .count();
    // admit / reject / brownout per tracked tenant, plus the overflow set.
    assert!(
        tenant_counters <= 3 * (MAX_TRACKED_TENANTS + 1),
        "{tenant_counters} per-tenant counters registered"
    );
    let stats = server.shutdown();
    assert!(stats.shed_quota > 0, "overflow tenants share one bucket");
    assert_eq!(stats.completed + stats.shed_total(), SUBMITTED);
}
