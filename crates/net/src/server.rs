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
//! serve stack after it stops (the scaffolding is `listener.rs`,
//! shared with the admin endpoint).

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adarnet_obs::TraceCtx;
use adarnet_serve::{ServeResponse, Server, SubmitOptions};

use crate::frame::write_frame;
use crate::listener::{next_frame, split, Listener};
use crate::proto::{decode_request, encode_response, Response, Status, REJECT_BAD_REQUEST};

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

/// A running TCP listener feeding the serve stack.
pub struct NetServer {
    listener: Listener,
}

impl NetServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// accepting connections against `serve`.
    pub fn start(addr: &str, serve: Arc<Server>) -> Result<NetServer, NetServerError> {
        let listener = Listener::start(addr, move |stream, shutdown| {
            connection_loop(stream, &serve, shutdown)
        })?;
        Ok(NetServer { listener })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Connection-thread handles held for [`Self::shutdown`] to join:
    /// the live connections plus those that closed since the last
    /// accept.
    pub fn tracked_connections(&self) -> usize {
        self.listener.tracked_connections()
    }

    /// Stop accepting, drain in-flight requests, and join every
    /// connection thread. Does NOT shut down the inner serve stack —
    /// the caller owns that (it may be shared with in-process clients).
    pub fn shutdown(self) {
        self.listener.shutdown();
    }
}

fn connection_loop(stream: TcpStream, serve: &Server, shutdown: &AtomicBool) {
    adarnet_obs::counter!("net_connections_total").inc();
    let Ok((mut reader, mut writer)) = split(stream) else {
        return;
    };
    loop {
        let body = match next_frame(&mut reader, shutdown) {
            Some(Ok(body)) => body,
            Some(Err(e)) if !e.is_clean_eof() => {
                adarnet_obs::counter!("net_frame_errors_total").inc();
                return; // framing broken: close
            }
            _ => return, // peer gone, or shutting down
        };
        adarnet_obs::counter!("net_frames_rx_total").inc();
        let started = Instant::now();
        let response = match decode_request(&body) {
            // Decoded but outside the model's input contract (wrong
            // channel count, or extents the patch grid cannot tile):
            // typed bad-request, never submitted — the serve stack
            // asserts its geometry and must not see hostile shapes.
            Ok(req) if !serve.field_matches_model(&req.field) => {
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
                // way (untraced only while obs is disabled).
                let opts = SubmitOptions {
                    priority: req.priority,
                    tenant: req.tenant,
                    deadline,
                    trace: TraceCtx::from_wire(req.trace_id).or_else(TraceCtx::mint),
                };
                let served = serve.submit_wait_with(req.field, opts);
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
