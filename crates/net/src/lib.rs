//! # adarnet-net
//!
//! Wire-protocol front end for the ADARNet inference service
//! (DESIGN.md §13): the layer between real TCP traffic and the
//! priority-lane scheduler in `adarnet-serve`.
//!
//! * **framing** ([`frame`]): length-prefixed binary frames with a
//!   CRC32 trailer — a corrupt or oversized frame is detected before a
//!   single payload byte is interpreted, and closes the connection;
//! * **codec** ([`proto`]): versioned request/response bodies carrying
//!   request id, tenant id, priority class, deadline budget, and the
//!   raw `(C, H, W)` LR field; responses return the refinement
//!   decision map (per-patch bins + scores) rather than the decoded SR
//!   patches, so response size is bounded by the patch grid, not the
//!   upsampling factor;
//! * **server** ([`server`]): a blocking thread-per-connection
//!   listener that decodes requests, submits them through
//!   [`adarnet_serve::Server::submit_with`] (priority lane, tenant
//!   quota, deadline — the full admission state machine), and answers
//!   with the typed [`adarnet_serve::RejectReason`] when a request is
//!   shed or browned out;
//! * **client** ([`client`]): a blocking request/response client,
//!   which is also the TCP transport of `adarnet_serve`'s closed-loop
//!   load generator (the `net-serve` bin's smokes drive a mixed
//!   tenant load through it);
//! * **admin endpoint** ([`admin`]): a second, read-only listener
//!   serving `/metrics` (exposition text), `/traces` (tail-sampled
//!   span trees as JSON), and `/health` over the same framing.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::unimplemented,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod admin;
pub mod client;
pub mod frame;
mod listener;
pub mod proto;
pub mod server;

pub use admin::{AdminClient, AdminServer, ADMIN_NOT_FOUND, ADMIN_OK};
pub use client::NetClient;
pub use frame::{crc32, read_frame, write_frame, FrameError, MAX_FRAME};
pub use listener::MAX_CONNECTIONS;
pub use proto::{
    decode_request, decode_response, encode_request, encode_response, DecodeError, Request,
    Response, Status, PROTOCOL_VERSION, REJECT_BAD_REQUEST,
};
pub use server::{NetServer, NetServerError};
