//! Loopback end-to-end tests: the full stack (model → serve →
//! net) over real TCP on an ephemeral port.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use adarnet_core::checkpoint;
use adarnet_core::loss::NormStats;
use adarnet_core::network::{AdarNet, AdarNetConfig};
use adarnet_net::{
    AdminClient, AdminServer, NetClient, NetServer, Status, ADMIN_OK, MAX_CONNECTIONS,
    REJECT_BAD_REQUEST,
};
use adarnet_serve::{
    field_pool, run_closed_loop, ClientSpec, ModelRegistry, Priority, RejectReason, ServeConfig,
    Server,
};
use adarnet_tensor::{Shape, Tensor};

const PATCH: usize = 8;

fn start_stack(cfg: ServeConfig) -> (NetServer, Arc<Server>) {
    let model = AdarNet::new(AdarNetConfig {
        ph: PATCH,
        pw: PATCH,
        seed: 42,
        ..AdarNetConfig::default()
    });
    let registry = Arc::new(ModelRegistry::new());
    registry.register(
        "net-test",
        checkpoint::snapshot(&model, &NormStats::identity()),
    );
    registry.activate("net-test").unwrap();
    let serve = Arc::new(Server::start(cfg, registry).unwrap());
    let net = NetServer::start("127.0.0.1:0", serve.clone()).unwrap();
    (net, serve)
}

fn finish(net: NetServer, serve: Arc<Server>) -> adarnet_serve::ServeStats {
    net.shutdown();
    Arc::try_unwrap(serve)
        .map(|s| s.shutdown())
        .unwrap_or_else(|arc| arc.stats())
}

#[test]
fn full_inference_roundtrip_over_loopback() {
    let (net, serve) = start_stack(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = net.local_addr();

    let fields = field_pool(2, 16, 32, 7);
    let mut client = NetClient::connect(addr).unwrap();
    for (i, field) in fields.iter().enumerate() {
        let resp = client
            .infer(field.clone(), Priority::Interactive, 3, 0)
            .unwrap();
        assert_eq!(resp.status, Status::Full, "request {i} must fully infer");
        assert_eq!(resp.reject, None);
        assert_eq!(resp.priority, Priority::Interactive, "lane echo");
        assert!(resp.generation > 0, "a live model generation");
        // 16×32 field over 8×8 patches: a 2×4 decision grid.
        assert_eq!((resp.npy, resp.npx), (2, 4), "patch grid extents");
        let cells = resp.npy as usize * resp.npx as usize;
        assert_eq!(resp.bins.len(), cells, "one bin per patch");
        assert_eq!(resp.scores.len(), cells, "one score per patch");
        assert!(resp.bins.iter().all(|&b| b <= 3), "bins within range");
    }

    let stats = finish(net, serve);
    assert_eq!(stats.completed, fields.len() as u64);
    assert_eq!(
        stats.completed_per_lane[Priority::Interactive.index()],
        fields.len() as u64,
        "all traffic rode the interactive lane"
    );
    assert_eq!(stats.shed_total(), 0);
}

#[test]
fn malformed_body_gets_typed_error_and_connection_survives() {
    let (net, serve) = start_stack(ServeConfig::default());
    let mut client = NetClient::connect(net.local_addr()).unwrap();

    // Well-framed garbage: typed error response, not a hang or close.
    let resp = client.send_raw(&[0u8; 48]).unwrap();
    assert_eq!(resp.status, Status::Error);
    assert_eq!(resp.reject_code, REJECT_BAD_REQUEST);
    assert_eq!((resp.npy, resp.npx), (0, 0), "no decision grid on error");

    // The same connection still serves real requests afterwards.
    let field = field_pool(1, 16, 16, 5).remove(0);
    let resp = client.infer(field, Priority::Standard, 1, 0).unwrap();
    assert_eq!(resp.status, Status::Full, "connection survived bad request");

    finish(net, serve);
}

#[test]
fn out_of_contract_field_is_rejected_without_killing_workers() {
    // A field that decodes fine but violates the model's input contract
    // (wrong channel count, extents the patch grid cannot tile, or a
    // non-finite value) must be answered as a typed bad-request at the
    // net boundary — the serve stack asserts its geometry, so letting a
    // misshapen field through would panic a worker and wedge the data
    // plane, and a NaN or Inf field would be answered with a
    // well-formed, meaningless prediction.
    let (net, serve) = start_stack(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = NetClient::connect(net.local_addr()).unwrap();

    let wrong_channels = Tensor::from_vec(Shape::d3(1, 16, 32), vec![0.0; 16 * 32]);
    let untileable = Tensor::from_vec(Shape::d3(4, 12, 32), vec![0.0; 4 * 12 * 32]);
    let poisoned = |v: f32| {
        let mut field = field_pool(1, 16, 32, 5).remove(0);
        field.as_mut_slice()[37] = v;
        field
    };
    for (label, field) in [
        ("channels", wrong_channels),
        ("tiling", untileable),
        ("nan", poisoned(f32::NAN)),
        ("+inf", poisoned(f32::INFINITY)),
    ] {
        let resp = client.infer(field, Priority::Standard, 1, 0).unwrap();
        assert_eq!(resp.status, Status::Error, "{label}: typed error");
        assert_eq!(resp.reject_code, REJECT_BAD_REQUEST, "{label}");
        assert_eq!((resp.npy, resp.npx), (0, 0), "{label}: no decision grid");
    }

    // An in-contract field asking for a weight plane that does not
    // exist: the precision byte sits after the 16-byte header, the
    // tenant id and the priority class.
    let mut body = adarnet_net::proto::encode_request(&adarnet_net::proto::Request {
        request_id: 77,
        tenant: 1,
        priority: Priority::Standard,
        deadline_ms: 0,
        trace_id: 0,
        precision: None,
        field: field_pool(1, 16, 32, 5).remove(0),
    });
    body[16 + 8 + 1] = 2;
    let resp = client.send_raw(&body).unwrap();
    assert_eq!(resp.request_id, 77, "precision: id recovered");
    assert_eq!(resp.status, Status::Error, "precision: typed error");
    assert_eq!(resp.reject_code, REJECT_BAD_REQUEST, "precision");

    // The single worker never saw the bad fields: the same connection
    // still gets full inference afterwards.
    let field = field_pool(1, 16, 32, 5).remove(0);
    let resp = client.infer(field, Priority::Standard, 1, 0).unwrap();
    assert_eq!(resp.status, Status::Full, "worker survived");

    let stats = finish(net, serve);
    assert_eq!(stats.completed, 1, "only the in-contract request ran");
}

#[test]
fn corrupt_frame_closes_connection() {
    let (net, serve) = start_stack(ServeConfig::default());
    let addr = net.local_addr();

    let mut raw = TcpStream::connect(addr).unwrap();
    let body = b"corrupted in flight";
    raw.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(body).unwrap();
    raw.write_all(&0x1BAD_C0DEu32.to_le_bytes()).unwrap(); // wrong CRC
    raw.flush().unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut buf = [0u8; 1];
    let n = raw.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "server must close, not answer, a corrupt frame");

    // The listener itself is unharmed: fresh connections still work.
    let field = field_pool(1, 16, 16, 9).remove(0);
    let mut client = NetClient::connect(addr).unwrap();
    let resp = client.infer(field, Priority::Bulk, 2, 0).unwrap();
    assert_eq!(resp.status, Status::Full);
    assert_eq!(resp.priority, Priority::Bulk);

    finish(net, serve);
}

#[test]
fn wire_deadline_brownout_is_typed() {
    // deadline_ms is a relative budget stamped at frame receipt; with a
    // saturated single worker and a long bulk queue ahead of it, a
    // 1 ms budget cannot survive the queue wait, so the sweep answers
    // with a typed deadline brownout rather than silently dropping it.
    let (net, serve) = start_stack(ServeConfig {
        workers: 1,
        max_batch: 1,
        max_linger: Duration::from_millis(0),
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    let addr = net.local_addr();

    // Saturate the worker from a second connection with bulk work.
    let big = field_pool(2, 24, 32, 11);
    let bulk = std::thread::spawn(move || {
        let mut c = NetClient::connect(addr).unwrap();
        for f in big.iter().cycle().take(3) {
            c.infer(f.clone(), Priority::Bulk, 9, 0).unwrap();
        }
    });

    // Meanwhile, issue tight-deadline requests; at least one must be
    // browned out while the worker grinds through bulk inference.
    let small = field_pool(1, 16, 16, 3).remove(0);
    let mut client = NetClient::connect(addr).unwrap();
    let mut brownouts = 0;
    for _ in 0..4 {
        let resp = client
            .infer(small.clone(), Priority::Interactive, 4, 1)
            .unwrap();
        match resp.status {
            Status::Degraded => {
                assert_eq!(resp.reject, Some(RejectReason::DeadlineExceeded));
                let cells = resp.npy as usize * resp.npx as usize;
                assert!(cells > 0, "brownout still carries a decision grid");
                assert!(resp.bins.iter().all(|&b| b == 0), "brownout is bin-0");
                brownouts += 1;
            }
            Status::Full => {}
            Status::Error => panic!("deadline must brown out, not error"),
        }
    }
    bulk.join().unwrap();
    assert!(brownouts > 0, "a 1 ms budget under load must brown out");

    let stats = finish(net, serve);
    assert_eq!(stats.brownout_deadline, brownouts as u64);
}

/// The accept scaffold both listeners run on, driven through each of
/// them: the scaffold is shared, but a handler only becomes prunable
/// when the listener's own connection loop returns on its peer's EOF.
/// Each connection costs a handler thread, so a listener refuses past
/// `MAX_CONNECTIONS` live ones: the extra connection is closed and
/// counted. Once the others drop, a new one is served again and the
/// finished handlers' join handles are pruned, so the tracked count
/// follows the live connections, not every one ever accepted.
#[test]
fn connections_are_capped_and_closed_ones_leave_no_handles() {
    let (net, serve) = start_stack(ServeConfig::default());
    let admin = AdminServer::start("127.0.0.1:0").unwrap();
    let (net_addr, admin_addr) = (net.local_addr(), admin.local_addr());
    let field = field_pool(1, 16, 16, 9).remove(0);
    let net_served = || {
        NetClient::connect(net_addr)
            .and_then(|mut c| c.infer(field.clone(), Priority::Standard, 1, 0))
            .is_ok_and(|resp| resp.status == Status::Full)
    };
    let admin_served = || {
        AdminClient::connect(admin_addr)
            .and_then(|mut c| c.get("/health"))
            .is_ok_and(|(status, _)| status == ADMIN_OK)
    };
    cap_then_prune(net_addr, || net.tracked_connections(), net_served);
    cap_then_prune(admin_addr, || admin.tracked_connections(), admin_served);
    admin.shutdown();
    finish(net, serve);
}

fn cap_then_prune(addr: SocketAddr, tracked: impl Fn() -> usize, served: impl Fn() -> bool) {
    const SMALL: usize = 8;
    let refused = || adarnet_obs::counter!("net_connections_refused_total").value();
    let before = refused();
    let held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    // The acceptor takes connections in order, so by the time it sees
    // this one the cap's worth above are all live.
    let mut extra = TcpStream::connect(addr).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    assert!(
        matches!(extra.read(&mut [0u8; 1]), Ok(0) | Err(_)),
        "{addr}: connection past the cap must be closed, not served"
    );
    assert!(refused() > before, "{addr}: and counted");

    drop(held);
    // A handler exits when it reads its peer's EOF, a moment after the
    // drop, and is pruned by the accept after that: probe until a
    // connection is served and the stragglers are gone.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let served = served();
        if served && tracked() <= SMALL {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{addr}: served: {served}, {} handles tracked after {MAX_CONNECTIONS} closed connections",
            tracked()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The one closed-loop generator over its two transports: the same
/// specs against the same `Server`, in process and over TCP, give
/// reports of the same shape that account for every request.
#[test]
fn loadgen_reports_have_one_shape_over_both_transports() {
    let (net, serve) = start_stack(ServeConfig {
        queue_capacity: 2,
        max_batch: 1,
        max_linger: Duration::ZERO,
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    let addr = net.local_addr();
    let spec = |priority, connections, deadline_ms| ClientSpec {
        tenant: 1,
        priority,
        connections,
        requests: 3,
        deadline_ms,
        fields: field_pool(2, 16, 32, 7),
    };
    // Six bulk clients over a capacity-2 lane shed; a 1 ms deadline
    // behind them browns out; so degraded answers are in the mix.
    let specs = [
        spec(Priority::Interactive, 2, 1),
        spec(Priority::Bulk, 6, 0),
    ];
    let in_process = run_closed_loop(|| Some(&*serve), &specs);
    let over_tcp = run_closed_loop(|| NetClient::connect(addr).ok(), &specs);
    for report in [&in_process, &over_tcp] {
        assert_ne!(report.slowest_trace, "0", "every request is traced");
        assert!(report.throughput_rps > 0.0);
        let lanes: Vec<&str> = report.lanes.iter().map(|l| l.lane.as_str()).collect();
        assert_eq!(lanes, ["interactive", "bulk"], "lanes that ran, in order");
        for (lane, spec) in report.lanes.iter().zip(&specs) {
            assert_eq!(lane.requests, spec.connections * spec.requests);
            assert_eq!(
                lane.full + lane.degraded + lane.errors,
                lane.requests as u64,
                "{}: every answer is full, degraded or an error",
                lane.lane
            );
            assert_eq!(lane.errors, 0, "{}: no protocol errors", lane.lane);
            let r = lane.rejects;
            assert_eq!(
                r.queue_full
                    + r.quota_exceeded
                    + r.deadline_exceeded
                    + r.shutdown
                    + r.inference_error,
                lane.degraded,
                "{}: every degraded answer has its reason tallied",
                lane.lane
            );
            assert!(lane.p50_ms > 0.0 && lane.p50_ms <= lane.p99_ms && lane.p99_ms <= lane.max_ms);
        }
    }
    let stats = finish(net, serve);
    let answered: usize = specs.iter().map(|s| 2 * s.connections * s.requests).sum();
    assert_eq!(stats.completed + stats.shed_total(), answered as u64);
}
