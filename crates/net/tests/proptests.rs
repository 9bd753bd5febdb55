//! Property tests for the wire layer: codec round-trip identity on
//! arbitrary requests/responses, frame round-trip, and deterministic
//! rejection of corrupted frames.
//!
//! The corruption property leans on CRC-32's burst-error guarantee:
//! any single flipped byte in the body or the trailer is a burst of at
//! most 8 bits, which CRC-32 detects *always*, not with probability
//! `1 - 2^-32` — so the test can assert a hard `CrcMismatch`, never a
//! flaky one.

use adarnet_net::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    FrameError, Request, Response, Status,
};
use adarnet_serve::{Precision, Priority, RejectReason};
use adarnet_tensor::{Shape, Tensor};
use proptest::prelude::*;

/// Largest field the request property generates: 3 × 7 × 7.
const MAX_CELLS: usize = 3 * 7 * 7;

fn status_from(idx: usize) -> Status {
    match idx % 3 {
        0 => Status::Full,
        1 => Status::Degraded,
        _ => Status::Error,
    }
}

fn precision_from(idx: usize) -> Option<Precision> {
    match idx % 2 {
        0 => None,
        _ => Some(Precision::F32),
    }
}

fn reject_from(idx: usize) -> Option<RejectReason> {
    match idx % 6 {
        0 => None,
        1 => Some(RejectReason::QueueFull),
        2 => Some(RejectReason::QuotaExceeded),
        3 => Some(RejectReason::DeadlineExceeded),
        4 => Some(RejectReason::Shutdown),
        _ => Some(RejectReason::InferenceError),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// encode → decode is the identity on every well-formed request.
    #[test]
    fn request_roundtrip(
        request_id in 0u64..u64::MAX,
        tenant in 0u64..1_000_000,
        pr in 0usize..3,
        deadline_ms in 0u32..600_000,
        trace_id in 0u64..u64::MAX,
        precision_idx in 0usize..2,
        c in 1usize..=3,
        h in 1usize..=7,
        w in 1usize..=7,
        raw in prop::collection::vec(-1e3f32..1e3, MAX_CELLS),
    ) {
        let n = c * h * w;
        let req = Request {
            request_id,
            tenant,
            priority: Priority::from_index(pr).unwrap(),
            deadline_ms,
            trace_id,
            precision: precision_from(precision_idx),
            field: Tensor::from_vec(Shape::d3(c, h, w), raw[..n].to_vec()),
        };
        let back = decode_request(&encode_request(&req)).unwrap();
        prop_assert_eq!(back.request_id, req.request_id);
        prop_assert_eq!(back.tenant, req.tenant);
        prop_assert_eq!(back.priority, req.priority);
        prop_assert_eq!(back.deadline_ms, req.deadline_ms);
        prop_assert_eq!(back.trace_id, req.trace_id);
        prop_assert_eq!(back.precision, req.precision);
        prop_assert_eq!(back.field.shape(), req.field.shape());
        prop_assert_eq!(back.field.as_slice(), req.field.as_slice());
    }

    /// encode → decode is the identity on every well-formed response.
    #[test]
    fn response_roundtrip(
        request_id in 0u64..u64::MAX,
        status_idx in 0usize..3,
        reject_idx in 0usize..6,
        pr in 0usize..3,
        generation in 0u64..1_000,
        latency_ns in 0u64..u64::MAX,
        trace_id in 0u64..u64::MAX,
        precision_idx in 0usize..2,
        npy in 1u16..=5,
        npx in 1u16..=5,
        raw_bins in prop::collection::vec(0u8..=3, 25),
        raw_scores in prop::collection::vec(-10.0f32..10.0, 25),
    ) {
        let cells = npy as usize * npx as usize;
        let resp = Response {
            request_id,
            status: status_from(status_idx),
            reject: reject_from(reject_idx),
            reject_code: 0,
            priority: Priority::from_index(pr).unwrap(),
            generation,
            latency_ns,
            trace_id,
            precision: precision_from(precision_idx),
            npy,
            npx,
            bins: raw_bins[..cells].to_vec(),
            scores: raw_scores[..cells].to_vec(),
        };
        let back = decode_response(&encode_response(&resp)).unwrap();
        prop_assert_eq!(back.request_id, resp.request_id);
        prop_assert_eq!(back.status, resp.status);
        prop_assert_eq!(back.reject, resp.reject);
        prop_assert_eq!(back.priority, resp.priority);
        prop_assert_eq!(back.generation, resp.generation);
        prop_assert_eq!(back.latency_ns, resp.latency_ns);
        prop_assert_eq!(back.trace_id, resp.trace_id);
        prop_assert_eq!(back.precision, resp.precision);
        prop_assert_eq!((back.npy, back.npx), (resp.npy, resp.npx));
        prop_assert_eq!(back.bins, resp.bins);
        prop_assert_eq!(back.scores, resp.scores);
    }

    /// write_frame → read_frame returns the body bit-exactly.
    #[test]
    fn frame_roundtrip(body in prop::collection::vec(0u8..=255, 0..256)) {
        let mut framed = Vec::new();
        write_frame(&mut framed, &body).unwrap();
        let back = read_frame(&mut framed.as_slice()).unwrap();
        prop_assert_eq!(back, body);
    }

    /// Flipping any byte of the body or the CRC trailer is always
    /// caught as a CRC mismatch — never decoded, never accepted.
    #[test]
    fn corrupt_frame_rejected(
        body in prop::collection::vec(0u8..=255, 1..128),
        flip_at in 0usize..4096,
        flip_mask in 1u8..=255,
    ) {
        let mut framed = Vec::new();
        write_frame(&mut framed, &body).unwrap();
        // Corrupt anywhere past the 4-byte length prefix (prefix
        // corruption de-frames the stream entirely; unit tests cover
        // the hostile-length path).
        let idx = 4 + flip_at % (framed.len() - 4);
        framed[idx] ^= flip_mask;
        let err = read_frame(&mut framed.as_slice()).unwrap_err();
        prop_assert!(matches!(err, FrameError::CrcMismatch { .. }), "{}", err);
    }

    /// A truncated stream (any strict prefix of a frame) fails with a
    /// typed I/O error instead of blocking or mis-parsing.
    #[test]
    fn truncated_frame_rejected(
        body in prop::collection::vec(0u8..=255, 1..64),
        cut in 0usize..4096,
    ) {
        let mut framed = Vec::new();
        write_frame(&mut framed, &body).unwrap();
        let keep = cut % (framed.len() - 1); // strictly shorter
        let err = read_frame(&mut &framed[..keep]).unwrap_err();
        prop_assert!(matches!(err, FrameError::Io(_)), "{}", err);
    }
}
