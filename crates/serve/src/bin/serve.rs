//! `serve stats`: serve a short demo load against a fresh in-process
//! server and print the obs registry's Prometheus-style exposition text
//! (the "stats endpoint" of a process with no network listener). Exits
//! 1 unless the text parses back to its snapshot and carries the
//! `engine_weight_bytes` gauge. Any other invocation prints a usage
//! line and exits 2.

use std::sync::Arc;
use std::time::Duration;

use adarnet_core::checkpoint;
use adarnet_core::loss::NormStats;
use adarnet_core::network::{AdarNet, AdarNetConfig};
use adarnet_serve::{
    field_pool, run_closed_loop, ClientSpec, ModelRegistry, Priority, ServeConfig, Server,
};

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
    let spec = ClientSpec {
        tenant: 0,
        priority: Priority::Standard,
        connections: 4,
        requests: 4,
        deadline_ms: 0,
        fields: field_pool(4, 16, 32, 7),
    };
    run_closed_loop(|| Some(&server), &[spec]);
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args != ["stats"] {
        eprintln!("usage: serve stats");
        std::process::exit(2);
    }
    stats_main();
}
