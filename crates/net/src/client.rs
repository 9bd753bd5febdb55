//! Blocking request/response client for the ADARNet wire protocol.

use std::io::BufWriter;
use std::net::TcpStream;

use adarnet_serve::{ClientSpec, Outcome, Priority, Reply, Transport};
use adarnet_tensor::Tensor;

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{decode_response, encode_request, Request, Response, Status};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, framing, CRC).
    Frame(FrameError),
    /// The response body failed to decode.
    Decode(crate::proto::DecodeError),
    /// The server echoed a different request id than we sent.
    IdMismatch {
        /// Id we sent.
        sent: u64,
        /// Id that came back.
        received: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "client frame error: {e}"),
            ClientError::Decode(e) => write!(f, "client decode error: {e}"),
            ClientError::IdMismatch { sent, received } => {
                write!(f, "response id {received} does not match request id {sent}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<crate::proto::DecodeError> for ClientError {
    fn from(e: crate::proto::DecodeError) -> Self {
        ClientError::Decode(e)
    }
}

/// One connection to a [`crate::NetServer`], issuing requests strictly
/// in sequence (the protocol is request/response per connection; use
/// one client per thread for concurrency).
pub struct NetClient {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    next_id: u64,
}

impl NetClient {
    /// Connect to `addr` (e.g. the value of
    /// [`crate::NetServer::local_addr`]).
    pub fn connect(addr: std::net::SocketAddr) -> Result<NetClient, ClientError> {
        let stream = TcpStream::connect(addr).map_err(FrameError::Io)?;
        stream.set_nodelay(true).map_err(FrameError::Io)?;
        let reader = stream.try_clone().map_err(FrameError::Io)?;
        Ok(NetClient {
            reader,
            writer: BufWriter::new(stream),
            next_id: 1,
        })
    }

    /// Send one field for inference and block for the answer. Mints a
    /// fresh trace id so the request is traceable end to end; use
    /// [`NetClient::request`] to pick the id (or send 0 and let the
    /// server mint).
    pub fn infer(
        &mut self,
        field: Tensor<f32>,
        priority: Priority,
        tenant: u64,
        deadline_ms: u32,
    ) -> Result<Response, ClientError> {
        let request_id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.request(&Request {
            request_id,
            tenant,
            priority,
            deadline_ms,
            trace_id: adarnet_obs::trace::mint_id(),
            precision: None,
            field,
        })
    }

    /// Send a fully-specified request and block for the answer,
    /// checking the id echo.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.writer, &encode_request(req))?;
        let body = read_frame(&mut self.reader)?;
        let resp = decode_response(&body)?;
        if resp.request_id != req.request_id {
            return Err(ClientError::IdMismatch {
                sent: req.request_id,
                received: resp.request_id,
            });
        }
        Ok(resp)
    }

    /// Send raw bytes as one frame body (protocol-abuse helper for
    /// tests: well-framed garbage must come back as a typed error, not
    /// a hang or a crash).
    pub fn send_raw(&mut self, body: &[u8]) -> Result<Response, ClientError> {
        write_frame(&mut self.writer, body)?;
        let reply = read_frame(&mut self.reader)?;
        Ok(decode_response(&reply)?)
    }
}

/// The TCP side of the closed-loop load generator: client-observed
/// latency then covers codec + socket + queue + inference, the number
/// a remote caller actually sees.
impl Transport for NetClient {
    fn infer(&mut self, field: Tensor<f32>, spec: &ClientSpec) -> Option<Reply> {
        let resp =
            NetClient::infer(self, field, spec.priority, spec.tenant, spec.deadline_ms).ok()?;
        Some(Reply {
            outcome: match (resp.status, resp.reject) {
                (Status::Full, _) => Outcome::Full,
                (Status::Degraded, Some(reason)) => Outcome::Degraded(reason),
                // A degraded answer without its reason breaks the protocol.
                (Status::Degraded, None) | (Status::Error, _) => Outcome::Error,
            },
            trace_id: resp.trace_id,
        })
    }
}
