//! The request/response body codec (DESIGN.md §13).
//!
//! Every body starts with a fixed 16-byte header:
//!
//! ```text
//! [u8;4]  magic  "ADRN"
//! u8      protocol version (3; any other value is a typed
//!                           `BadVersion`)
//! u8      body kind        (1 = request, 2 = response)
//! u16 LE  reserved         (0)
//! u64 LE  request id       (echoed verbatim in the response)
//! ```
//!
//! A **request** continues with the admission envelope and the raw LR
//! field:
//!
//! ```text
//! u64 LE  tenant id
//! u8      priority class   (0 interactive, 1 standard, 2 bulk)
//! u8      precision        (0 = server default, 1 = f32; anything
//!                           else is a typed `BadPrecision`)
//! [u8;2]  reserved
//! u32 LE  deadline budget, ms  (0 = no deadline)
//! u64 LE  trace id         (0 = none — the server mints one so the
//!                           request is traceable)
//! u16 LE  c, h, w          (field extents; c·h·w f32 values follow)
//! u16 LE  reserved
//! f32 LE × c·h·w           (row-major (C, H, W) field data)
//! ```
//!
//! A **response** returns the refinement *decision map* — per-patch
//! bins and scores over the `npy × npx` patch grid — not the decoded
//! SR patches, so the frame size is bounded by the patch grid:
//!
//! ```text
//! u8      status           (0 full, 1 degraded, 2 error)
//! u8      reject reason    (0 none, 1 queue_full, 2 quota_exceeded,
//!                           3 deadline_exceeded, 4 shutdown,
//!                           5 inference_error, 6 bad_request)
//! u8      priority class the request was served on
//! u8      precision        (0 = unknown/error, 1 = f32)
//! u64 LE  model generation (0 for degraded/error responses)
//! u64 LE  server-side latency, ns
//! u64 LE  trace id         (the id the request was traced under —
//!                           client-sent or server-minted)
//! u16 LE  npy, npx         (patch grid; zero for error responses)
//! u8  × npy·npx            (per-patch refinement bin)
//! f32 LE × npy·npx         (per-patch scorer output)
//! ```
//!
//! Decoding never panics: every structural problem is a typed
//! [`DecodeError`], which the server answers with a `status = error`
//! response (the connection survives — the frame itself was intact).

#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

use adarnet_serve::{Precision, Priority, RejectReason};
use adarnet_tensor::{Shape, Tensor};

/// Protocol magic, first bytes of every body.
pub const MAGIC: [u8; 4] = *b"ADRN";
/// The one protocol version both encoders write and both decoders
/// accept (3: the layout with the trace-id field and the precision
/// byte; the number is kept so no body ever written changes meaning).
pub const PROTOCOL_VERSION: u8 = 3;
/// Body kind: request.
pub const KIND_REQUEST: u8 = 1;
/// Body kind: response.
pub const KIND_RESPONSE: u8 = 2;

/// How the request fared, coarsely (the reject reason carries the
/// detail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Full inference on the requested field.
    Full,
    /// Degraded bin-0 response (shed or browned out); the reject
    /// reason says why.
    Degraded,
    /// The request body was well-framed but invalid; nothing was
    /// inferred.
    Error,
}

impl Status {
    fn to_u8(self) -> u8 {
        match self {
            Status::Full => 0,
            Status::Degraded => 1,
            Status::Error => 2,
        }
    }

    fn from_u8(v: u8) -> Option<Status> {
        match v {
            0 => Some(Status::Full),
            1 => Some(Status::Degraded),
            2 => Some(Status::Error),
            _ => None,
        }
    }
}

/// Wire encoding of [`RejectReason`], with 0 = none and 6 = the
/// net-layer-only "bad request".
fn reject_to_u8(reason: Option<RejectReason>) -> u8 {
    match reason {
        None => 0,
        Some(RejectReason::QueueFull) => 1,
        Some(RejectReason::QuotaExceeded) => 2,
        Some(RejectReason::DeadlineExceeded) => 3,
        Some(RejectReason::Shutdown) => 4,
        Some(RejectReason::InferenceError) => 5,
    }
}

/// Reject-reason byte for a malformed request (no serve-side
/// counterpart — the request never reached admission).
pub const REJECT_BAD_REQUEST: u8 = 6;

/// Wire encoding of the precision request/report: 0 = default (request)
/// or unknown (response), then [`Precision::index`] + 1.
fn precision_to_u8(p: Option<Precision>) -> u8 {
    match p {
        None => 0,
        Some(p) => (p.index() as u8).saturating_add(1),
    }
}

fn precision_from_u8(v: u8) -> Result<Option<Precision>, DecodeError> {
    match v.checked_sub(1) {
        None => Ok(None),
        Some(i) => match Precision::from_index(usize::from(i)) {
            Some(p) => Ok(Some(p)),
            None => Err(DecodeError::BadPrecision(v)),
        },
    }
}

fn reject_from_u8(v: u8) -> Result<Option<RejectReason>, DecodeError> {
    match v {
        0 | REJECT_BAD_REQUEST => Ok(None),
        1 => Ok(Some(RejectReason::QueueFull)),
        2 => Ok(Some(RejectReason::QuotaExceeded)),
        3 => Ok(Some(RejectReason::DeadlineExceeded)),
        4 => Ok(Some(RejectReason::Shutdown)),
        5 => Ok(Some(RejectReason::InferenceError)),
        _ => Err(DecodeError::BadReject(v)),
    }
}

/// One inference request as carried on the wire.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen id, echoed in the response.
    pub request_id: u64,
    /// Tenant for quota accounting.
    pub tenant: u64,
    /// Requested lane.
    pub priority: Priority,
    /// Latency budget in milliseconds from server receipt; 0 = none.
    pub deadline_ms: u32,
    /// Client-chosen trace id; 0 = untraced (the server mints one so
    /// every request lands in the tail sampler regardless).
    pub trace_id: u64,
    /// Requested weight plane; the server ignores it (there is one).
    /// Set by `ledger/src/workloads/net.rs`.
    pub precision: Option<Precision>,
    /// The raw `(C, H, W)` LR field.
    pub field: Tensor<f32>,
}

/// One response as carried on the wire.
#[derive(Debug, Clone)]
pub struct Response {
    /// Echo of the request id.
    pub request_id: u64,
    /// Coarse outcome.
    pub status: Status,
    /// Why the response is degraded (None for full responses and
    /// bad-request errors).
    pub reject: Option<RejectReason>,
    /// Raw reject byte (distinguishes bad_request from none).
    pub reject_code: u8,
    /// Lane the request was served on.
    pub priority: Priority,
    /// Model generation (0 when no model ran).
    pub generation: u64,
    /// Server-side latency, nanoseconds.
    pub latency_ns: u64,
    /// Trace id the request was served under (0 only on error paths
    /// that never reached admission).
    pub trace_id: u64,
    /// Weight plane the request was served on (`None` for error
    /// responses that never reached admission). Set by
    /// `ledger/src/workloads/net.rs`.
    pub precision: Option<Precision>,
    /// Patch grid extents (0 × 0 for error responses).
    pub npy: u16,
    /// See `npy`.
    pub npx: u16,
    /// Row-major per-patch refinement bin.
    pub bins: Vec<u8>,
    /// Row-major per-patch score.
    pub scores: Vec<f32>,
}

/// Why a well-framed body failed to decode. Request-level: the server
/// answers with `status = error` and keeps the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Body shorter than the layout requires, or trailing bytes left
    /// after a complete parse.
    Truncated,
    /// First four bytes are not `ADRN`.
    BadMagic,
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Body kind is neither request nor response (or not the expected
    /// one).
    BadKind(u8),
    /// Priority byte out of range.
    BadPriority(u8),
    /// Status byte out of range.
    BadStatus(u8),
    /// Reject-reason byte out of range.
    BadReject(u8),
    /// Precision byte out of range.
    BadPrecision(u8),
    /// A field extent is zero.
    ZeroDim,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "body truncated or has trailing bytes"),
            DecodeError::BadMagic => write!(f, "bad protocol magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::BadKind(k) => write!(f, "unexpected body kind {k}"),
            DecodeError::BadPriority(p) => write!(f, "priority byte {p} out of range"),
            DecodeError::BadStatus(s) => write!(f, "status byte {s} out of range"),
            DecodeError::BadReject(r) => write!(f, "reject byte {r} out of range"),
            DecodeError::BadPrecision(p) => write!(f, "precision byte {p} out of range"),
            DecodeError::ZeroDim => write!(f, "field extents must be positive"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Bounds-checked little-endian reader over a body slice.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Cursor<'a> {
        Cursor { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        let slice = self.data.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f32s(&mut self, count: usize) -> Result<Vec<f32>, DecodeError> {
        let bytes = self.take(count.checked_mul(4).ok_or(DecodeError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(DecodeError::Truncated)
        }
    }
}

fn put_header(out: &mut Vec<u8>, kind: u8, request_id: u64) {
    out.extend_from_slice(&MAGIC);
    out.push(PROTOCOL_VERSION);
    out.push(kind);
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&request_id.to_le_bytes());
}

fn read_header(c: &mut Cursor<'_>, expected_kind: u8) -> Result<u64, DecodeError> {
    let magic = c.take(4)?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = c.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let kind = c.u8()?;
    if kind != expected_kind {
        return Err(DecodeError::BadKind(kind));
    }
    let _reserved = c.u16()?;
    c.u64()
}

/// Encode a request into a frame body.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let (ch, h, w) = field_dims(&req.field);
    let data = req.field.as_slice();
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "encode path, not decode: `data` is the request's already-resident f32 tensor, so its backing buffer occupies len*4 bytes and len*4 cannot exceed usize; the +48 header bytes cannot overflow past that, and write_frame rejects anything over MAX_FRAME before it reaches the wire"
    )]
    let mut out = Vec::with_capacity(16 + 32 + data.len() * 4);
    put_header(&mut out, KIND_REQUEST, req.request_id);
    out.extend_from_slice(&req.tenant.to_le_bytes());
    out.push(req.priority.index() as u8);
    out.push(precision_to_u8(req.precision));
    out.extend_from_slice(&[0u8; 2]);
    out.extend_from_slice(&req.deadline_ms.to_le_bytes());
    out.extend_from_slice(&req.trace_id.to_le_bytes());
    out.extend_from_slice(&(ch as u16).to_le_bytes());
    out.extend_from_slice(&(h as u16).to_le_bytes());
    out.extend_from_slice(&(w as u16).to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a request body.
pub fn decode_request(body: &[u8]) -> Result<Request, DecodeError> {
    let mut c = Cursor::new(body);
    let request_id = read_header(&mut c, KIND_REQUEST)?;
    let tenant = c.u64()?;
    let pr = c.u8()?;
    let priority = Priority::from_index(pr as usize).ok_or(DecodeError::BadPriority(pr))?;
    let precision = precision_from_u8(c.u8()?)?;
    let _reserved = c.take(2)?;
    let deadline_ms = c.u32()?;
    let trace_id = c.u64()?;
    let ch = c.u16()? as usize;
    let h = c.u16()? as usize;
    let w = c.u16()? as usize;
    let _reserved = c.u16()?;
    if ch == 0 || h == 0 || w == 0 {
        return Err(DecodeError::ZeroDim);
    }
    let count = ch
        .checked_mul(h)
        .and_then(|v| v.checked_mul(w))
        .ok_or(DecodeError::Truncated)?;
    let data = c.f32s(count)?;
    c.finish()?;
    Ok(Request {
        request_id,
        tenant,
        priority,
        deadline_ms,
        trace_id,
        precision,
        field: Tensor::from_vec(Shape::d3(ch, h, w), data),
    })
}

/// Encode a response into a frame body.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let cells = resp.bins.len().min(resp.scores.len());
    // 16B header + 32B fixed fields + 5B per cell (u8 bin + f32 score);
    // saturating because this is only a capacity hint.
    let mut out = Vec::with_capacity(48usize.saturating_add(cells.saturating_mul(5)));
    put_header(&mut out, KIND_RESPONSE, resp.request_id);
    out.push(resp.status.to_u8());
    out.push(if resp.reject_code != 0 {
        resp.reject_code
    } else {
        reject_to_u8(resp.reject)
    });
    out.push(resp.priority.index() as u8);
    out.push(precision_to_u8(resp.precision));
    out.extend_from_slice(&resp.generation.to_le_bytes());
    out.extend_from_slice(&resp.latency_ns.to_le_bytes());
    out.extend_from_slice(&resp.trace_id.to_le_bytes());
    out.extend_from_slice(&resp.npy.to_le_bytes());
    out.extend_from_slice(&resp.npx.to_le_bytes());
    out.extend_from_slice(&resp.bins);
    for v in &resp.scores {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a response body.
pub fn decode_response(body: &[u8]) -> Result<Response, DecodeError> {
    let mut c = Cursor::new(body);
    let request_id = read_header(&mut c, KIND_RESPONSE)?;
    let st = c.u8()?;
    let status = Status::from_u8(st).ok_or(DecodeError::BadStatus(st))?;
    let reject_code = c.u8()?;
    let reject = reject_from_u8(reject_code)?;
    let pr = c.u8()?;
    let priority = Priority::from_index(pr as usize).ok_or(DecodeError::BadPriority(pr))?;
    let precision = precision_from_u8(c.u8()?)?;
    let generation = c.u64()?;
    let latency_ns = c.u64()?;
    let trace_id = c.u64()?;
    let npy = c.u16()?;
    let npx = c.u16()?;
    let cells = (npy as usize)
        .checked_mul(npx as usize)
        .ok_or(DecodeError::Truncated)?;
    let bins = c.take(cells)?.to_vec();
    let scores = c.f32s(cells)?;
    c.finish()?;
    Ok(Response {
        request_id,
        status,
        reject,
        reject_code,
        priority,
        generation,
        latency_ns,
        trace_id,
        precision,
        npy,
        npx,
        bins,
        scores,
    })
}

/// `(C, H, W)` extents of a rank-3 field tensor (degenerate shapes
/// collapse to 1s rather than panicking — the encoder trusts callers to
/// pass rank-3 fields, and the decoder re-validates on the other side).
fn field_dims(field: &Tensor<f32>) -> (usize, usize, usize) {
    let dims = &field.shape().0;
    match dims[..] {
        [c, h, w] => (c, h, w),
        _ => (1, 1, field.len().max(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            request_id: 0xDEAD_BEEF_1234,
            tenant: 42,
            priority: Priority::Interactive,
            deadline_ms: 250,
            trace_id: 0x0123_4567_89AB_CDEF,
            precision: Some(Precision::F32),
            field: Tensor::from_vec(
                Shape::d3(2, 3, 4),
                (0..24).map(|i| i as f32 * 0.5 - 3.0).collect(),
            ),
        }
    }

    #[test]
    fn request_roundtrip() {
        let req = sample_request();
        let body = encode_request(&req);
        let back = decode_request(&body).unwrap();
        assert_eq!(back.request_id, req.request_id);
        assert_eq!(back.tenant, req.tenant);
        assert_eq!(back.priority, req.priority);
        assert_eq!(back.deadline_ms, req.deadline_ms);
        assert_eq!(back.trace_id, req.trace_id);
        assert_eq!(back.precision, Some(Precision::F32));
        assert_eq!(back.field.shape(), req.field.shape());
        assert_eq!(back.field.as_slice(), req.field.as_slice());
    }

    fn sample_response() -> Response {
        Response {
            request_id: 7,
            status: Status::Degraded,
            reject: Some(RejectReason::DeadlineExceeded),
            reject_code: 0,
            priority: Priority::Bulk,
            generation: 3,
            latency_ns: 1_234_567,
            trace_id: 0xFEED_F00D,
            precision: Some(Precision::F32),
            npy: 2,
            npx: 3,
            bins: vec![0, 1, 2, 3, 0, 1],
            scores: vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6],
        }
    }

    #[test]
    fn response_roundtrip() {
        let resp = sample_response();
        let body = encode_response(&resp);
        let back = decode_response(&body).unwrap();
        assert_eq!(back.request_id, 7);
        assert_eq!(back.status, Status::Degraded);
        assert_eq!(back.reject, Some(RejectReason::DeadlineExceeded));
        assert_eq!(back.priority, Priority::Bulk);
        assert_eq!(back.generation, 3);
        assert_eq!(back.latency_ns, 1_234_567);
        assert_eq!(back.trace_id, 0xFEED_F00D);
        assert_eq!(back.precision, Some(Precision::F32));
        assert_eq!((back.npy, back.npx), (2, 3));
        assert_eq!(back.bins, resp.bins);
        assert_eq!(back.scores, resp.scores);
    }

    #[test]
    fn bad_magic_and_kind_are_typed() {
        let req = sample_request();
        let mut body = encode_request(&req);
        body[0] = b'X';
        assert_eq!(decode_request(&body).unwrap_err(), DecodeError::BadMagic);

        let body = encode_request(&req);
        // A request body is not a response body.
        assert_eq!(
            decode_response(&body).unwrap_err(),
            DecodeError::BadKind(KIND_REQUEST)
        );
    }

    /// Exactly one version byte decodes; every other one, including the
    /// two retired layouts, is a typed `BadVersion` on both body kinds.
    #[test]
    fn only_the_current_version_byte_decodes() {
        let mut req = encode_request(&sample_request());
        let mut resp = encode_response(&sample_response());
        for version in [0u8, 1, 2, 4, 255] {
            req[4] = version;
            resp[4] = version;
            assert_eq!(
                decode_request(&req).unwrap_err(),
                DecodeError::BadVersion(version)
            );
            assert_eq!(
                decode_response(&resp).unwrap_err(),
                DecodeError::BadVersion(version)
            );
        }
        req[4] = 3;
        resp[4] = 3;
        assert_eq!(encode_request(&decode_request(&req).unwrap()), req);
        assert_eq!(encode_response(&decode_response(&resp).unwrap()), resp);
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let req = sample_request();
        let body = encode_request(&req);
        assert_eq!(
            decode_request(&body[..body.len() - 1]).unwrap_err(),
            DecodeError::Truncated
        );
        let mut padded = body.clone();
        padded.push(0);
        assert_eq!(decode_request(&padded).unwrap_err(), DecodeError::Truncated);
    }

    /// Byte offset of the request's precision byte (right after the
    /// priority class) and of the response's (after status, reject
    /// reason and priority class).
    const REQ_PRECISION_AT: usize = 16 + 8 + 1;
    const RESP_PRECISION_AT: usize = 16 + 1 + 1 + 1;

    /// The precision byte is 0 or 1 on both body kinds; both values
    /// survive a decode and re-encode byte for byte, and anything else
    /// is a typed `BadPrecision`.
    #[test]
    fn precision_byte_is_zero_or_one() {
        let mut req = encode_request(&sample_request());
        let mut resp = encode_response(&sample_response());
        for (byte, want) in [(0u8, None), (1, Some(Precision::F32))] {
            req[REQ_PRECISION_AT] = byte;
            resp[RESP_PRECISION_AT] = byte;
            let (dreq, dresp) = (
                decode_request(&req).unwrap(),
                decode_response(&resp).unwrap(),
            );
            assert_eq!((dreq.precision, dresp.precision), (want, want));
            assert_eq!(encode_request(&dreq), req);
            assert_eq!(encode_response(&dresp), resp);
        }
        for byte in [2u8, 255] {
            req[REQ_PRECISION_AT] = byte;
            resp[RESP_PRECISION_AT] = byte;
            assert_eq!(
                decode_request(&req).unwrap_err(),
                DecodeError::BadPrecision(byte)
            );
            assert_eq!(
                decode_response(&resp).unwrap_err(),
                DecodeError::BadPrecision(byte)
            );
        }
    }

    #[test]
    fn zero_dims_rejected() {
        let req = sample_request();
        let mut body = encode_request(&req);
        // c extent lives right after the 16B header + 8B tenant + 1B
        // priority + 3B reserved + 4B deadline + 8B trace id.
        let dims_at = 16 + 8 + 1 + 3 + 4 + 8;
        body[dims_at] = 0;
        body[dims_at + 1] = 0;
        assert_eq!(decode_request(&body).unwrap_err(), DecodeError::ZeroDim);
    }
}
