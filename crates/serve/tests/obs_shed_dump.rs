//! Forensics dump on load shed. Lives in its own integration
//! test binary (= its own process) so the `ADARNET_OBS_DUMP`
//! environment variable and the one-dump-per-second rate limit are not
//! shared with any other test.

use std::sync::Arc;
use std::time::Duration;

use adarnet_core::checkpoint;
use adarnet_core::loss::NormStats;
use adarnet_core::network::{AdarNet, AdarNetConfig};
use adarnet_obs::TraceCtx;
use adarnet_serve::{ModelRegistry, ServeConfig, Server, SubmitOptions};
use adarnet_tensor::{Shape, Tensor};
use serde::Value;

fn field(phase: f32) -> Tensor<f32> {
    Tensor::from_vec(
        Shape::d3(4, 16, 32),
        (0..4 * 16 * 32)
            .map(|i| ((i as f32) * 0.017 + phase).sin())
            .collect(),
    )
}

fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(n, _)| n == key).map(|(_, v)| v)
}

/// Acceptance: overloading the queue makes the server dump, and the
/// dump file is parseable JSON carrying the shed request's errored
/// trace (with the span that says why) plus an embedded metrics
/// snapshot.
#[test]
fn load_shed_dumps_errored_trace_and_metrics() {
    let dir = std::env::temp_dir().join(format!("adarnet-obs-shed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump_path = dir.join("obs-dump.json");
    std::env::set_var("ADARNET_OBS_DUMP", &dump_path);

    let cfg = ServeConfig {
        queue_capacity: 2,
        max_batch: 2,
        max_linger: Duration::from_millis(10),
        workers: 1,
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    let registry = Arc::new(ModelRegistry::new());
    let model = AdarNet::new(AdarNetConfig {
        ph: 8,
        pw: 8,
        seed: 5,
        ..AdarNetConfig::default()
    });
    registry.register("m", checkpoint::snapshot(&model, &NormStats::identity()));
    registry.activate("m").unwrap();
    let server = Server::start(cfg, registry).unwrap();

    let receivers: Vec<_> = (0..24)
        .map(|i| {
            let opts = SubmitOptions {
                trace: TraceCtx::mint(),
                ..SubmitOptions::default()
            };
            server.submit_with(field(i as f32 * 0.1), opts)
        })
        .collect();
    for rx in receivers {
        rx.recv_timeout(Duration::from_secs(60))
            .expect("every request answered");
    }
    let stats = server.shutdown();
    assert!(
        stats.shed_queue_full > 0,
        "burst over a capacity-2 queue must shed"
    );

    let text = std::fs::read_to_string(&dump_path)
        .unwrap_or_else(|e| panic!("dump file {} must exist: {e}", dump_path.display()));
    let doc = serde_json::parse_value(&text).expect("dump must be valid JSON");
    let obj = doc.as_object().expect("dump is a JSON object");

    assert_eq!(
        get(obj, "reason").and_then(|v| v.as_str()),
        Some("load_shed")
    );
    let traces = get(obj, "traces")
        .and_then(|v| v.as_object())
        .and_then(|o| get(o, "traces"))
        .and_then(|v| v.as_array())
        .expect("retained traces array");
    let shed_traces = traces
        .iter()
        .filter_map(|t| get(t.as_object()?, "trace")?.as_object())
        .filter(|t| matches!(get(t, "error"), Some(Value::Bool(true))))
        .filter(|t| {
            get(t, "spans")
                .and_then(|v| v.as_array())
                .is_some_and(|spans| {
                    spans.iter().filter_map(|s| s.as_object()).any(|s| {
                        get(s, "name").and_then(|v| v.as_str()) == Some("queue_full")
                            && get(s, "field").and_then(|v| v.as_str()) == Some("queue_depth")
                    })
                })
        })
        .count();
    assert!(
        shed_traces > 0,
        "dump must carry an errored trace with a queue_full span"
    );
    let metrics = get(obj, "metrics")
        .and_then(|v| v.as_object())
        .expect("embedded metrics snapshot");
    assert!(get(metrics, "counters").is_some());
    assert!(get(metrics, "histograms").is_some());

    let _ = std::fs::remove_dir_all(&dir);
}
