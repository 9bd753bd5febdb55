//! # adarnet-serve
//!
//! A multi-threaded inference service for trained ADARNet models,
//! turning the paper's batched non-uniform SR (Figure 1's motivation)
//! into a serving system:
//!
//! * **micro-batching** ([`server`]): concurrent requests are fused so
//!   same-bin patches from different requests share decoder batches
//!   ([`infer_cached`]), bitwise what per-field inference gives;
//! * **decoded-patch cache** ([`cache`]): content-hash-keyed LRU over
//!   decoder outputs; repeated freestream patches skip the decoder
//!   entirely, with bitwise-identical results;
//! * **shared frozen engine** ([`registry`], [`server`]): every worker
//!   clones one `Arc<InferenceEngine>` — one resident weight copy with
//!   pre-packed GEMM panels, no model lock;
//! * **model registry** ([`registry`]): named checkpoints with
//!   generation-counted hot swap — workers re-fetch the shared engine
//!   at batch boundaries, never mid-flight, and an in-flight batch
//!   completes on the old generation's weights;
//! * **priority lanes** ([`lanes`], [`server`]): three bounded lanes
//!   (interactive / standard / bulk) drained by weighted deficit
//!   pickup, so small latency-sensitive fields never queue behind bulk
//!   refinement jobs and bulk still cannot starve;
//! * **admission control** ([`quota`], [`server`]): per-tenant
//!   token-bucket quotas and deadline-aware brownouts — every rejected
//!   or expired request is answered with a typed
//!   [`server::RejectReason`] and its own counter, never silently shed;
//! * **backpressure** ([`server`]): bounded lanes that shed load by
//!   answering with a degraded bin-0 (no-SR) prediction instead of
//!   blocking, with observable shed counters;
//! * **load generation** ([`loadgen`]): the closed-loop synthetic
//!   driver over the `adarnet-dataset` families, run in process or
//!   (through `adarnet-net`'s transport) over TCP, reporting
//!   throughput and per-lane p50/p95/p99 latency (`serve stats` and
//!   the `net-serve` smokes drive it).

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

// `ledger/src/workloads/mod.rs` imports `PRECISION_COUNT` from here;
// the wire crate takes `Precision` from here too.
pub use adarnet_core::{Precision, PRECISION_COUNT};

pub mod batch;
pub mod cache;
pub mod config;
pub mod lanes;
pub mod loadgen;
pub mod quota;
pub mod registry;
pub mod server;

pub use batch::{degraded_prediction, infer_cached};
pub use cache::{PatchCache, PatchKey};
pub use config::ServeConfig;
pub use lanes::{select_lane_spec, LaneQueue, Priority, PushOutcome, NUM_LANES};
pub use loadgen::{
    field_pool, percentile_ms, run_closed_loop, ClientSpec, LaneReport, LoadReport, Outcome,
    RejectBreakdown, Reply, Transport,
};
pub use quota::{QuotaConfig, QuotaTable, TokenBucket, MAX_TRACKED_TENANTS};
pub use registry::{ActiveModel, ModelRegistry, RegistryError};
pub use server::{RejectReason, ResponseKind, ServeResponse, ServeStats, Server, SubmitOptions};
