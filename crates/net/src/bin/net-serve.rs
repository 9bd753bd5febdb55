//! TCP serving driver: stand up the full stack (model → serve →
//! net) on loopback or a given address, and measure the priority
//! scheduler under mixed tenant load.
//!
//! Subcommands:
//!
//! * `net-serve smoke` — loopback end-to-end smoke: start a server on
//!   an ephemeral port, drive a small mixed load through the loadgen
//!   over TCP, verify every lane completed and a corrupt frame is
//!   rejected. Exit code 0 on success (the CI net stage).
//! * `net-serve serve [ADDR]` — run a server (default
//!   `127.0.0.1:7878`) until killed, printing the bound address.
//! * `net-serve bench` — the lanes-vs-FIFO acceptance benchmark: the
//!   same interactive + bulk tenant mix through (a) the 3-lane
//!   weighted-deficit scheduler and (b) a FIFO-only configuration,
//!   reporting per-lane p50/p95/p99 and merging a `tcp_lanes` object
//!   into `BENCH_serve.json` (path from `ADARNET_SERVE_OUT`).
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
//! Environment knobs: `ADARNET_SERVE_SCALE` (`quick` | `full`),
//! `ADARNET_NET_REQUESTS` (requests per interactive connection),
//! `ADARNET_SERVE_OUT` (bench JSON path, default `BENCH_serve.json`),
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
use serde::{object, Serialize, Value};

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

fn start_stack(cfg: ServeConfig, patch: usize, addr: &str) -> (NetServer, Arc<Server>) {
    let serve = Arc::new(Server::start(cfg, registry(patch)).unwrap());
    let net = NetServer::start(addr, serve.clone()).unwrap();
    (net, serve)
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The mixed tenant load both bench sides and the smoke test share:
/// interactive tenants send small fields with a deadline; bulk tenants
/// keep a deep backlog of 4×-the-cells fields queued at all times.
/// `scale` multiplies request counts. Many medium bulk jobs (rather
/// than a few huge ones) keep the single worker's in-flight time short
/// relative to the queue backlog, so *queue order* — the thing the
/// lane scheduler controls — is what separates the two bench modes.
fn mixed_specs(scale: usize, interactive_requests: usize) -> Vec<ClientSpec> {
    // Interactive: small fields, latency-sensitive.
    let small = field_pool(4, 16, 32, 7);
    // Bulk: 4x the cells per request, throughput-oriented.
    let large = field_pool(4, 32, 64, 11);
    vec![
        ClientSpec {
            tenant: 1,
            priority: Priority::Interactive,
            connections: 4,
            requests: interactive_requests * scale,
            deadline_ms: 0,
            fields: small,
        },
        ClientSpec {
            tenant: 2,
            priority: Priority::Bulk,
            connections: 8,
            requests: interactive_requests * scale,
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

    let specs = mixed_specs(1, env_usize("ADARNET_NET_REQUESTS", 4));
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
    let admin = AdminServer::start(&admin_addr).unwrap();
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

    let specs = mixed_specs(1, env_usize("ADARNET_NET_REQUESTS", 4));
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
        let addr: std::net::SocketAddr = addr.parse().expect("ADMIN_ADDR parses");
        let mut client = AdminClient::connect(addr).unwrap();
        let (st, traces) = client.get("/traces").unwrap();
        assert_eq!(st, ADMIN_OK, "{traces}");
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
    let specs = mixed_specs(1, env_usize("ADARNET_NET_REQUESTS", 2));
    run_over_tcp(&net, &specs);
    net.shutdown();
    drop(serve);
    let rendered = render_traces_doc(&adarnet_obs::trace::sampler().to_json())
        .expect("the sampler's /traces document parses");
    print!("{rendered}");
    // The run served real inference, so some retained tree must be
    // whole and reach from the batch down to a decoder bin.
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

fn bench() {
    let scale = match std::env::var("ADARNET_SERVE_SCALE").as_deref() {
        Ok("full") => 4,
        _ => 1,
    };
    let interactive_requests = env_usize("ADARNET_NET_REQUESTS", 8);
    let specs = mixed_specs(scale, interactive_requests);

    // Tight queues + single worker + single-request batches: the
    // scheduler, not spare capacity or in-flight batch length, decides
    // who waits. FIFO side funnels everything into one lane.
    let base = ServeConfig {
        queue_capacity: 512,
        max_batch: 1,
        max_linger: Duration::from_millis(0),
        workers: 1,
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    let mut runs = Vec::new();
    let mut p99 = [0.0f64; 2];
    let mut bulk_completed = 0u64;

    for (i, (mode, fifo_only)) in [("fifo", true), ("lanes", false)].into_iter().enumerate() {
        let cfg = ServeConfig { fifo_only, ..base };
        let (net, serve) = start_stack(cfg, 8, "127.0.0.1:0");
        let report = run_over_tcp(&net, &specs);
        print_report(mode, &report);
        net.shutdown();
        let stats = Arc::try_unwrap(serve)
            .map(|s| s.shutdown())
            .unwrap_or_else(|arc| arc.stats());
        if mode == "lanes" {
            bulk_completed = stats.completed_per_lane[Priority::Bulk.index()];
            assert!(
                bulk_completed > 0,
                "bulk lane starved under the weighted scheduler"
            );
        }
        let lane = report.lane(Priority::Interactive);
        p99[i] = lane.expect("interactive lane saw traffic").p99_ms;
        runs.push(object([
            ("mode", mode.to_string().to_value()),
            ("report", report.to_value()),
        ]));
    }

    let [fifo_p99, lanes_p99] = p99;
    let speedup = if lanes_p99 > 0.0 {
        fifo_p99 / lanes_p99
    } else {
        0.0
    };
    println!(
        "interactive p99: fifo {fifo_p99:.2} ms vs lanes {lanes_p99:.2} ms -> {speedup:.2}x; bulk completed under lanes: {bulk_completed}"
    );

    let bench = object([
        ("interactive_connections", specs[0].connections.to_value()),
        ("bulk_connections", specs[1].connections.to_value()),
        (
            "interactive_requests_per_conn",
            specs[0].requests.to_value(),
        ),
        ("bulk_requests_per_conn", specs[1].requests.to_value()),
        ("lane_weights", base.lane_weights.to_value()),
        ("runs", Value::Array(runs)),
        ("fifo_interactive_p99_ms", fifo_p99.to_value()),
        ("lanes_interactive_p99_ms", lanes_p99.to_value()),
        ("interactive_p99_speedup", speedup.to_value()),
        ("bulk_completed_under_lanes", bulk_completed.to_value()),
    ]);

    let out_path = std::env::var("ADARNET_SERVE_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    merge_into_bench_json(&out_path, bench);
    println!("merged tcp_lanes into {out_path}");
}

/// Insert/replace the `tcp_lanes` key in the (existing or fresh)
/// BENCH_serve.json, preserving everything the serve bin wrote.
fn merge_into_bench_json(path: &str, entry: Value) {
    let parsed = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::parse_value(&text).ok());
    let mut fields = match parsed {
        Some(Value::Object(fields)) => fields,
        _ => Vec::new(),
    };
    match fields.iter_mut().find(|(k, _)| k == "tcp_lanes") {
        Some((_, v)) => *v = entry,
        None => fields.push(("tcp_lanes".to_string(), entry)),
    }
    let json =
        serde_json::to_string_pretty(&Value::Object(fields)).expect("bench report serializes");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
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
        "bench" => bench(),
        "admin-smoke" => admin_smoke(),
        "trace-dump" => trace_dump(std::env::args().nth(2)),
        other => {
            eprintln!(
                "unknown subcommand '{other}' (expected smoke | serve | bench | admin-smoke | trace-dump)"
            );
            std::process::exit(2);
        }
    }
}
