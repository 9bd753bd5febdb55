//! TCP serving driver: stand up the full stack (model → serve →
//! net) on loopback or a given address, and check it under mixed
//! tenant load.
//!
//! Subcommands:
//!
//! * `net-serve smoke` — loopback end-to-end smoke: start a server on
//!   an ephemeral port, drive a small mixed load through the loadgen
//!   over TCP, verify every lane completed and a corrupt frame is
//!   rejected. Exit code 0 on success (the CI net stage).
//! * `net-serve serve [ADDR]` — run a server (default
//!   `127.0.0.1:7878`) until killed, printing the bound address.
//! * `net-serve admin-smoke` — start the stack plus the admin
//!   listener, push traffic, then verify `/metrics` round-trips
//!   through the exposition parser and `/traces` holds at least one
//!   complete span tree (the CI admin stage).
//! * `net-serve trace-dump [ADMIN_ADDR]` — with an address, fetch
//!   `/traces` from a running admin endpoint and render the retained
//!   span trees; without one, run a small in-process load, render its
//!   traces, and exit 1 unless one complete tree holds both
//!   `serve_infer` and `stage_decoder` (the CI admin stage).
//!
//! An address that does not parse or bind, or an admin endpoint that
//! does not answer, prints `error: ...` and exits 1.
//!
//! Environment knobs: `ADARNET_NET_REQUESTS` (requests per connection),
//! `ADARNET_ADMIN_ADDR` (admin listener for `serve`, default
//! `127.0.0.1:7879`).

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use adarnet_core::checkpoint;
use adarnet_core::loss::NormStats;
use adarnet_core::network::{AdarNet, AdarNetConfig};
use adarnet_net::{AdminClient, AdminServer, NetClient, NetServer, ADMIN_OK};
use adarnet_serve::{
    field_pool, run_closed_loop, ClientSpec, LoadReport, ModelRegistry, Priority, QuotaConfig,
    ServeConfig, Server,
};
use serde::Value;

fn registry(patch: usize) -> Arc<ModelRegistry> {
    let model = AdarNet::new(AdarNetConfig {
        ph: patch,
        pw: patch,
        seed: 42,
        ..AdarNetConfig::default()
    });
    let registry = Arc::new(ModelRegistry::new());
    registry.register("net", checkpoint::snapshot(&model, &NormStats::identity()));
    registry.activate("net").unwrap();
    registry
}

/// The value of `result`, or `error: <what>: <e>` on stderr and exit
/// 1: operator input (an address, an unreachable endpoint) ends the
/// process cleanly, never in a panic.
fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(1)
    })
}

fn start_stack(cfg: ServeConfig, patch: usize, addr: &str) -> (NetServer, Arc<Server>) {
    let serve = Arc::new(or_exit(Server::start(cfg, registry(patch)), "start server"));
    let net = or_exit(
        NetServer::start(addr, serve.clone()),
        &format!("listen on {addr}"),
    );
    (net, serve)
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The mixed tenant load the smokes and `trace-dump` share: four
/// interactive connections send small fields; eight bulk connections
/// keep a backlog of 4×-the-cells fields queued, so every lane must be
/// served under contention.
fn mixed_specs(requests: usize) -> Vec<ClientSpec> {
    // Interactive: small fields, latency-sensitive.
    let small = field_pool(4, 16, 32, 7);
    // Bulk: 4x the cells per request, throughput-oriented.
    let large = field_pool(4, 32, 64, 11);
    vec![
        ClientSpec {
            tenant: 1,
            priority: Priority::Interactive,
            connections: 4,
            requests,
            deadline_ms: 0,
            fields: small,
        },
        ClientSpec {
            tenant: 2,
            priority: Priority::Bulk,
            connections: 8,
            requests,
            deadline_ms: 0,
            fields: large,
        },
    ]
}

/// The one closed-loop generator, each client on its own connection
/// to `net`.
fn run_over_tcp(net: &NetServer, specs: &[ClientSpec]) -> LoadReport {
    let addr = net.local_addr();
    run_closed_loop(|| NetClient::connect(addr).ok(), specs)
}

fn print_report(label: &str, report: &LoadReport) {
    println!(
        "{label}: {:.1} req/s over {:.2}s",
        report.throughput_rps, report.elapsed_s
    );
    for lane in &report.lanes {
        println!(
            "  {:>11}  n={:<4} full={:<4} degraded={:<3} err={:<2} p50 {:>8.2} ms  p95 {:>8.2} ms  p99 {:>8.2} ms  max {:>8.2} ms",
            lane.lane, lane.requests, lane.full, lane.degraded, lane.errors,
            lane.p50_ms, lane.p95_ms, lane.p99_ms, lane.max_ms,
        );
    }
}

fn smoke() {
    let cfg = ServeConfig {
        workers: 1,
        quota: Some(QuotaConfig {
            rate_per_sec: 100_000,
            burst: 100_000,
        }),
        ..ServeConfig::default()
    };
    let (net, serve) = start_stack(cfg, 8, "127.0.0.1:0");
    let addr = net.local_addr();
    println!("smoke: serving on {addr}");

    let specs = mixed_specs(env_usize("ADARNET_NET_REQUESTS", 4));
    let report = run_over_tcp(&net, &specs);
    print_report("smoke mixed load", &report);

    assert_eq!(report.lanes.len(), specs.len(), "both lanes ran");
    for (lane, spec) in report.lanes.iter().zip(&specs) {
        assert_eq!(
            lane.requests,
            spec.connections * spec.requests,
            "every {} request must be answered (no starvation, no hang)",
            lane.lane
        );
        assert_eq!(lane.errors, 0, "{}: no protocol errors", lane.lane);
    }

    // Well-framed garbage must come back as a typed error response.
    let mut client = NetClient::connect(addr).unwrap();
    let garbage = vec![0u8; 32];
    let resp = client
        .send_raw(&garbage)
        .expect("framed garbage gets a reply");
    assert_eq!(
        resp.status,
        adarnet_net::Status::Error,
        "typed error expected"
    );

    // A corrupt frame (bad CRC) must close the connection, not hang it.
    {
        use std::io::Write;
        let mut raw = TcpStream::connect(addr).unwrap();
        let body = b"not a real body";
        raw.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
        raw.write_all(body).unwrap();
        raw.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap(); // wrong CRC
        raw.flush().unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = [0u8; 1];
        use std::io::Read;
        let n = raw.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "server must close the connection on CRC mismatch");
    }

    net.shutdown();
    let stats = Arc::try_unwrap(serve)
        .map(|s| s.shutdown())
        .unwrap_or_else(|arc| arc.stats());
    println!(
        "smoke: completed={} per-lane={:?} shed_total={}",
        stats.completed,
        stats.completed_per_lane,
        stats.shed_total()
    );
    println!("net smoke OK");
}

fn serve_forever(addr: &str) {
    let (net, _serve) = start_stack(ServeConfig::default(), 8, addr);
    let admin_addr =
        std::env::var("ADARNET_ADMIN_ADDR").unwrap_or_else(|_| "127.0.0.1:7879".into());
    let admin = or_exit(
        AdminServer::start(&admin_addr),
        &format!("admin listen on {admin_addr}"),
    );
    println!(
        "serving on {} (admin on {}; ctrl-c to stop)",
        net.local_addr(),
        admin.local_addr()
    );
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// CI admin stage: traffic through the data plane, then scrape the
/// admin plane and hold it to its contracts — `/metrics` must
/// round-trip through the exposition parser, `/traces` must hold at
/// least one complete span tree whose spans include the pipeline
/// stages, `/health` must answer.
fn admin_smoke() {
    let (net, serve) = start_stack(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        8,
        "127.0.0.1:0",
    );
    let admin = AdminServer::start("127.0.0.1:0").unwrap();
    println!(
        "admin-smoke: data on {}, admin on {}",
        net.local_addr(),
        admin.local_addr()
    );

    let specs = mixed_specs(env_usize("ADARNET_NET_REQUESTS", 4));
    let report = run_over_tcp(&net, &specs);
    print_report("admin-smoke load", &report);
    assert_ne!(
        report.slowest_trace, "0",
        "every loadgen request is traced, so a slowest trace exists"
    );

    let mut client = AdminClient::connect(admin.local_addr()).unwrap();

    let (st, health) = client.get("/health").unwrap();
    assert_eq!(st, ADMIN_OK, "/health: {health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    let (st, text) = client.get("/metrics").unwrap();
    assert_eq!(st, ADMIN_OK);
    let snap = adarnet_obs::text::parse(&text).expect("/metrics parses back");
    let e2e = snap
        .histogram("serve_e2e_ns")
        .expect("serve_e2e_ns histogram present");
    assert!(e2e.count > 0, "e2e histogram saw the load");
    assert!(
        e2e.exemplar.is_some(),
        "traced load leaves a max-latency exemplar"
    );

    let (st, traces) = client.get("/traces").unwrap();
    assert_eq!(st, ADMIN_OK);
    assert!(
        traces.contains("\"complete\":true"),
        "at least one complete span tree: {traces}"
    );
    for name in ["serve_queue_wait", "serve_infer", "stage_decoder"] {
        assert!(
            traces.contains(name),
            "span `{name}` missing from /traces: {traces}"
        );
    }
    // The report's slowest trace is retained by the tail sampler.
    assert!(
        traces.contains(&report.slowest_trace),
        "slowest trace {} not retained",
        report.slowest_trace
    );
    // Per-trace coherence: no span may claim more time than its
    // request's own e2e (guards against charging pre-arrival batcher
    // idle to the first trace after a quiet period).
    for r in adarnet_obs::trace::sampler().snapshot() {
        for s in &r.trace.spans {
            assert!(
                s.dur_ns <= r.trace.e2e_ns,
                "span {} ({} ns) exceeds trace {:016x} e2e ({} ns)",
                s.name,
                s.dur_ns,
                r.trace.trace_id,
                r.trace.e2e_ns
            );
        }
    }

    admin.shutdown();
    net.shutdown();
    drop(serve);
    println!("admin smoke OK");
}

/// Print retained span trees: from a running admin endpoint when an
/// address is given, else from a fresh in-process run.
fn trace_dump(addr: Option<String>) {
    if let Some(addr) = addr {
        let addr: std::net::SocketAddr = or_exit(addr.parse(), &format!("admin address {addr}"));
        let mut client = or_exit(AdminClient::connect(addr), &format!("connect to {addr}"));
        let (st, traces) = or_exit(client.get("/traces"), &format!("GET /traces from {addr}"));
        if st != ADMIN_OK {
            eprintln!("error: GET /traces from {addr}: status {st}: {traces}");
            std::process::exit(1);
        }
        match render_traces_doc(&traces) {
            Ok(rendered) => print!("{rendered}"),
            Err(e) => {
                eprintln!("trace-dump: /traces payload did not parse ({e}); raw document follows");
                println!("{traces}");
            }
        }
        return;
    }
    let (net, serve) = start_stack(ServeConfig::default(), 8, "127.0.0.1:0");
    let specs = mixed_specs(env_usize("ADARNET_NET_REQUESTS", 2));
    run_over_tcp(&net, &specs);
    net.shutdown();
    drop(serve);
    let rendered = render_traces_doc(&adarnet_obs::trace::sampler().to_json())
        .expect("the sampler's /traces document parses");
    print!("{rendered}");
    // The run served real inference, so some retained tree must be
    // whole and reach from the batch down to the decoder.
    let served_tree = rendered.split("\ntrace ").skip(1).any(|tree| {
        let header = tree.lines().next().unwrap_or_default();
        !header.contains("(incomplete)")
            && tree.contains("serve_infer")
            && tree.contains("stage_decoder")
    });
    if !served_tree {
        eprintln!("trace-dump: no complete span tree with serve_infer and stage_decoder");
        std::process::exit(1);
    }
}

/// Render a `/traces` JSON document as indented span trees, one header
/// line per trace, for both the remote and the in-process path.
fn render_traces_doc(text: &str) -> Result<String, String> {
    fn get<'v>(fields: &'v [(String, Value)], name: &str) -> Result<&'v Value, String> {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field `{name}`"))
    }
    fn int(fields: &[(String, Value)], name: &str) -> Result<i128, String> {
        match get(fields, name)? {
            Value::Int(n) => Ok(*n),
            v => Err(format!("field `{name}` is {}, expected integer", v.kind())),
        }
    }
    fn walk(
        spans: &[&[(String, Value)]],
        parent: i128,
        depth: usize,
        out: &mut String,
    ) -> Result<(), String> {
        for s in spans {
            if int(s, "parent")? != parent {
                continue;
            }
            out.push_str(&"  ".repeat(depth + 1));
            out.push_str(&format!(
                "{} {:.3}ms (+{:.3}ms)",
                get(s, "name")?.as_str().unwrap_or("?"),
                int(s, "dur_ns")? as f64 / 1e6,
                int(s, "start_rel_ns")? as f64 / 1e6
            ));
            let field = get(s, "field")?.as_str().unwrap_or("");
            if !field.is_empty() {
                out.push_str(&format!(" {field}={}", int(s, "value")?));
            }
            out.push('\n');
            if depth < spans.len() {
                walk(spans, int(s, "span_id")?, depth + 1, out)?;
            }
        }
        Ok(())
    }
    let doc = serde_json::parse_value(text).map_err(|e| e.to_string())?;
    let top = doc.as_object().ok_or("top level is not an object")?;
    let mut out = format!(
        "{} retained traces ({} offered)\n",
        int(top, "retained")?,
        int(top, "offers")?
    );
    for entry in get(top, "traces")?
        .as_array()
        .ok_or("`traces` is not an array")?
    {
        let entry = entry.as_object().ok_or("trace entry is not an object")?;
        let t = get(entry, "trace")?
            .as_object()
            .ok_or("`trace` is not an object")?;
        out.push_str(&format!(
            "trace {}: e2e {:.3}ms{}{}\n",
            get(t, "trace_id")?.as_str().unwrap_or("?"),
            int(t, "e2e_ns")? as f64 / 1e6,
            if matches!(get(t, "error")?, Value::Bool(true)) {
                " ERROR"
            } else {
                ""
            },
            if matches!(get(t, "complete")?, Value::Bool(true)) {
                ""
            } else {
                " (incomplete)"
            },
        ));
        let spans = get(t, "spans")?
            .as_array()
            .ok_or("`spans` is not an array")?
            .iter()
            .map(|s| s.as_object().ok_or("span is not an object"))
            .collect::<Result<Vec<_>, &str>>()?;
        walk(&spans, 0, 0, &mut out)?;
    }
    Ok(out)
}

fn main() {
    adarnet_obs::init();
    let mode = std::env::args().nth(1).unwrap_or_else(|| "smoke".into());
    match mode.as_str() {
        "smoke" => smoke(),
        "serve" => {
            let addr = std::env::args()
                .nth(2)
                .unwrap_or_else(|| "127.0.0.1:7878".into());
            serve_forever(&addr);
        }
        "admin-smoke" => admin_smoke(),
        "trace-dump" => trace_dump(std::env::args().nth(2)),
        other => {
            eprintln!(
                "unknown subcommand '{other}' (expected smoke | serve | admin-smoke | trace-dump)"
            );
            std::process::exit(2);
        }
    }
}
