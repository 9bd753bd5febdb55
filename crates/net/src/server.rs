//! Blocking thread-per-connection TCP front end over
//! [`adarnet_serve::Server`].
//!
//! One acceptor thread takes connections; each connection gets its own
//! handler thread running a strict request→response loop (one request
//! in flight per connection — concurrency comes from connection count,
//! which is exactly the closed-loop load model the serve stack is
//! tuned for). Per frame:
//!
//! * **framing errors** (bad CRC, hostile length) close the connection
//!   — a byte stream cannot be resynchronized after corruption;
//! * **decode errors** (bad version, zero dims, truncated body) answer
//!   with a `status = error` / `bad_request` response and keep the
//!   connection — the framing layer proved the bytes arrived intact;
//! * **out-of-contract fields** (wrong channel count, extents the
//!   patch grid cannot tile) get the same typed `bad_request` and are
//!   never submitted — the serve stack asserts its geometry, so a
//!   hostile shape reaching a worker would panic it and wedge the
//!   data plane;
//! * **valid requests** run the full admission state machine via
//!   [`adarnet_serve::Server::submit_with`]: deadline check, tenant
//!   token bucket, lane push — and the response carries the typed
//!   [`adarnet_serve::RejectReason`] when degraded.
//!
//! Shutdown: handler threads poll a flag via a read timeout, the
//! acceptor is woken by a loopback connection, and every thread is
//! joined before `shutdown()` returns — no detached threads touch the
//! serve stack after it stops.

use std::io::BufWriter;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adarnet_obs::TraceCtx;
use adarnet_serve::{ServeResponse, Server, SubmitOptions};

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{decode_request, encode_response, Response, Status, REJECT_BAD_REQUEST};

/// How often an idle connection handler wakes to check the shutdown
/// flag.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Why the net server could not start.
#[derive(Debug)]
pub enum NetServerError {
    /// Could not bind or inspect the listening socket.
    Io(std::io::Error),
}

impl std::fmt::Display for NetServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetServerError::Io(e) => write!(f, "net server i/o error: {e}"),
        }
    }
}

impl std::error::Error for NetServerError {}

impl From<std::io::Error> for NetServerError {
    fn from(e: std::io::Error) -> Self {
        NetServerError::Io(e)
    }
}

struct NetShared {
    serve: Arc<Server>,
    shutdown: AtomicBool,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// A running TCP listener feeding the serve stack.
pub struct NetServer {
    shared: Arc<NetShared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// accepting connections against `serve`.
    pub fn start(addr: &str, serve: Arc<Server>) -> Result<NetServer, NetServerError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            serve,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        Ok(NetServer {
            shared,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection-thread handles held for [`Self::shutdown`] to join:
    /// the live connections plus those that closed since the last
    /// accept.
    pub fn tracked_connections(&self) -> usize {
        adarnet_core::sync::lock(&self.shared.conns).len()
    }

    /// The serve stack behind this listener.
    pub fn serve(&self) -> &Arc<Server> {
        &self.shared.serve
    }

    /// Stop accepting, drain in-flight requests, and join every
    /// connection thread. Does NOT shut down the inner serve stack —
    /// the caller owns that (it may be shared with in-process clients).
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let conns: Vec<JoinHandle<()>> = {
            let mut guard = adarnet_core::sync::lock(&self.shared.conns);
            guard.drain(..).collect()
        };
        for conn in conns {
            let _ = conn.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<NetShared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        adarnet_obs::counter!("net_connections_total").inc();
        let handler = {
            let shared = shared.clone();
            std::thread::spawn(move || connection_loop(stream, shared))
        };
        // Handlers of closed connections have nothing left to join;
        // dropping them here bounds the list by the live connections.
        let mut conns = adarnet_core::sync::lock(&shared.conns);
        conns.retain(|h| !h.is_finished());
        conns.push(handler);
    }
}

fn connection_loop(stream: TcpStream, shared: Arc<NetShared>) {
    // A finite read timeout turns an idle blocking read into a
    // shutdown-flag poll; everything else is plain blocking i/o.
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return;
    }
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);
    loop {
        let body = match read_frame(&mut reader) {
            Ok(body) => body,
            Err(e) if e.is_timeout() => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(e) => {
                if !e.is_clean_eof() {
                    adarnet_obs::counter!("net_frame_errors_total").inc();
                    adarnet_obs::recorder().record(
                        adarnet_obs::EventKind::Shed,
                        "net_frame_error",
                        match e {
                            FrameError::Io(_) => "io",
                            FrameError::TooLarge { .. } => "too_large",
                            FrameError::CrcMismatch { .. } => "crc_mismatch",
                        },
                        0,
                        0,
                    );
                }
                return; // framing broken or peer gone: close
            }
        };
        adarnet_obs::counter!("net_frames_rx_total").inc();
        let started = Instant::now();
        let response = match decode_request(&body) {
            // Decoded but outside the model's input contract (wrong
            // channel count, or extents the patch grid cannot tile):
            // typed bad-request, never submitted — the serve stack
            // asserts its geometry and must not see hostile shapes.
            Ok(req) if !shared.serve.field_matches_model(&req.field) => {
                adarnet_obs::counter!("net_bad_requests_total").inc();
                bad_request_response(req.request_id)
            }
            Ok(req) => {
                let deadline = if req.deadline_ms == 0 {
                    None
                } else {
                    Some(started + Duration::from_millis(u64::from(req.deadline_ms)))
                };
                // Client-sent trace id, or a locally minted one when the
                // client sent none — every request is traceable either
                // way.
                let ctx = TraceCtx::from_wire(req.trace_id).unwrap_or_else(TraceCtx::mint);
                let opts = SubmitOptions {
                    priority: req.priority,
                    tenant: req.tenant,
                    deadline,
                    trace: Some(ctx),
                };
                let served = shared.serve.submit_wait_with(req.field, opts);
                response_from_serve(req.request_id, &served)
            }
            Err(_) => {
                adarnet_obs::counter!("net_bad_requests_total").inc();
                bad_request_response(request_id_hint(&body))
            }
        };
        adarnet_obs::histogram!("net_request_ns").record(started.elapsed().as_nanos() as u64);
        let encoded = encode_response(&response);
        if write_frame(&mut writer, &encoded).is_err() {
            return; // peer gone mid-reply
        }
        adarnet_obs::counter!("net_frames_tx_total").inc();
    }
}

/// Best-effort request-id recovery from a body that failed to decode
/// (the id sits at a fixed offset, so even a semantically-invalid body
/// usually still carries it — letting the client correlate the error).
fn request_id_hint(body: &[u8]) -> u64 {
    match body.get(8..16) {
        Some(b) => u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]),
        None => 0,
    }
}

fn bad_request_response(request_id: u64) -> Response {
    Response {
        request_id,
        status: Status::Error,
        reject: None,
        reject_code: REJECT_BAD_REQUEST,
        priority: adarnet_serve::Priority::Standard,
        generation: 0,
        latency_ns: 0,
        trace_id: 0,
        precision: None,
        npy: 0,
        npx: 0,
        bins: Vec::new(),
        scores: Vec::new(),
    }
}

/// Lower a serve-stack response onto the wire: the refinement decision
/// map (bins + scores over the patch grid), the typed reject reason,
/// and the serving lane.
fn response_from_serve(request_id: u64, served: &ServeResponse) -> Response {
    let npy = served.prediction.layout.npy;
    let npx = served.prediction.layout.npx;
    let cells = npy * npx;
    let mut scores = served.prediction.scores.as_slice().to_vec();
    scores.resize(cells, 0.0);
    let mut bins = served.prediction.binning.bin_of_patch.clone();
    bins.resize(cells, 0);
    Response {
        request_id,
        status: if served.kind.is_degraded() {
            Status::Degraded
        } else {
            Status::Full
        },
        reject: served.kind.reject_reason(),
        reject_code: 0,
        priority: served.priority,
        generation: served.generation,
        latency_ns: served.latency.as_nanos() as u64,
        trace_id: served.trace_id,
        precision: Some(adarnet_serve::Precision::F32),
        npy: npy as u16,
        npx: npx as u16,
        bins,
        scores,
    }
}
