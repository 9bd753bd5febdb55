//! Live introspection endpoint: a tiny admin TCP listener on its own
//! port, answering read-only queries about the running process.
//!
//! It reuses the [`crate::frame`] layer (length prefix + CRC32) so the
//! transport has exactly the same corruption guarantees as the data
//! plane, with a deliberately minimal body layout:
//!
//! * **request** body: the UTF-8 path, e.g. `/metrics`;
//! * **response** body: one status byte (0 = ok, 1 = unknown path,
//!   2 = bad request) followed by the UTF-8 payload.
//!
//! Paths:
//!
//! * `/metrics` — Prometheus exposition text of the live metrics
//!   registry (parseable by `adarnet_obs::text::parse`, exemplar
//!   lines included);
//! * `/traces` — the tail sampler's retained traces (slowest-N per
//!   window + all errored) as a JSON object whose `traces` field is
//!   the array of span trees;
//! * `/health` — one JSON object: obs enabled flag, in-flight trace
//!   count, and total sampler offers.
//!
//! The listener is read-only and allocation-light; it is meant to be
//! scraped while the data plane is under load, so handlers never take
//! locks the request path holds across inference.

use std::io::BufWriter;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;

use crate::frame::{read_frame, write_frame, FrameError};
use crate::listener::{next_frame, split, Listener};
use crate::server::NetServerError;

/// Response status byte: the path was served.
pub const ADMIN_OK: u8 = 0;
/// Response status byte: unknown path.
pub const ADMIN_NOT_FOUND: u8 = 1;
/// Response status byte: the request body was not a UTF-8 path.
pub const ADMIN_BAD_REQUEST: u8 = 2;

/// A running admin listener. Independent of [`crate::NetServer`] — it
/// reads process-global obs state, so it can run next to any server
/// (or alone, for post-hoc inspection of a loaded process).
pub struct AdminServer {
    listener: Listener,
}

impl AdminServer {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and serve admin queries.
    pub fn start(addr: &str) -> Result<AdminServer, NetServerError> {
        Ok(AdminServer {
            listener: Listener::start(addr, connection_loop)?,
        })
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

    /// Stop accepting and join every connection thread.
    pub fn shutdown(self) {
        self.listener.shutdown();
    }
}

fn connection_loop(stream: TcpStream, shutdown: &AtomicBool) {
    let Ok((mut reader, mut writer)) = split(stream) else {
        return;
    };
    while let Some(Ok(body)) = next_frame(&mut reader, shutdown) {
        adarnet_obs::counter!("admin_requests_total").inc();
        let (status, payload) = match std::str::from_utf8(&body) {
            Ok(path) => serve_path(path.trim()),
            Err(_) => (ADMIN_BAD_REQUEST, String::from("path must be UTF-8")),
        };
        let mut out = Vec::with_capacity(1 + payload.len());
        out.push(status);
        out.extend_from_slice(payload.as_bytes());
        if write_frame(&mut writer, &out).is_err() {
            return;
        }
    }
}

/// Dispatch one admin path to its payload. Pure read of process-global
/// obs state, so it is callable in-process too.
pub fn serve_path(path: &str) -> (u8, String) {
    match path {
        "/metrics" => (ADMIN_OK, adarnet_obs::registry().snapshot().render_text()),
        "/traces" => (ADMIN_OK, adarnet_obs::trace::sampler().to_json()),
        "/health" => {
            let payload = format!(
                "{{\"status\":\"ok\",\"obs_enabled\":{},\"traces_in_flight\":{},\"sampler_offers\":{}}}",
                adarnet_obs::enabled(),
                adarnet_obs::trace::in_flight(),
                adarnet_obs::trace::sampler().offers(),
            );
            (ADMIN_OK, payload)
        }
        _ => (ADMIN_NOT_FOUND, format!("unknown path `{path}`")),
    }
}

/// One-shot admin client: connect, ask one path, return `(status,
/// payload)`.
pub struct AdminClient {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
}

impl AdminClient {
    /// Connect to a running [`AdminServer`].
    pub fn connect(addr: SocketAddr) -> Result<AdminClient, FrameError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        Ok(AdminClient {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Fetch one path; returns the status byte and the UTF-8 payload.
    pub fn get(&mut self, path: &str) -> Result<(u8, String), FrameError> {
        write_frame(&mut self.writer, path.as_bytes())?;
        let reply = read_frame(&mut self.reader)?;
        let (status, payload) = reply
            .split_first()
            .map_or((ADMIN_BAD_REQUEST, &[][..]), |(s, p)| (*s, p));
        Ok((status, String::from_utf8_lossy(payload).into_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_and_unknown_paths() {
        let (st, body) = serve_path("/health");
        assert_eq!(st, ADMIN_OK);
        assert!(body.contains("\"status\":\"ok\""));
        let (st, _) = serve_path("/nope");
        assert_eq!(st, ADMIN_NOT_FOUND);
    }

    #[test]
    fn metrics_payload_parses_back() {
        adarnet_obs::counter!("admin_test_total").inc();
        let (st, text) = serve_path("/metrics");
        assert_eq!(st, ADMIN_OK);
        let snap = adarnet_obs::text::parse(&text).expect("exposition text must parse");
        assert!(snap.counters.iter().any(|(n, _)| n == "admin_test_total"));
    }

    #[test]
    fn server_round_trip_over_loopback() {
        let server = AdminServer::start("127.0.0.1:0").expect("bind");
        let mut client = AdminClient::connect(server.local_addr()).expect("connect");
        let (st, body) = client.get("/health").expect("get");
        assert_eq!(st, ADMIN_OK);
        assert!(body.contains("\"sampler_offers\""));
        let (st, body) = client.get("/traces").expect("get");
        assert_eq!(st, ADMIN_OK);
        assert!(body.contains("\"traces\":["), "traces payload: {body}");
        let (st, _) = client.get("/missing").expect("get");
        assert_eq!(st, ADMIN_NOT_FOUND);
        server.shutdown();
    }
}
