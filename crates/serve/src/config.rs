//! Serving configuration.

use std::time::Duration;

use adarnet_core::Precision;

use crate::lanes::NUM_LANES;
use crate::quota::QuotaConfig;

/// Tunables for the inference service.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Bounded request-queue capacity *per lane*; submissions beyond
    /// this are shed (answered with a degraded bin-0 response instead
    /// of queued).
    pub queue_capacity: usize,
    /// Maximum requests fused into one decoder micro-batch.
    pub max_batch: usize,
    /// How long the batcher lingers for more requests after the first
    /// one is picked up, before dispatching a partial batch.
    pub max_linger: Duration,
    /// Worker threads. All workers share one frozen engine (one
    /// resident weight copy); this only sets batching concurrency.
    /// Workers and decoder lanes share the cores: a worker's decoder
    /// batch splits over the cores no other inference holds
    /// (`FrozenSequential::infer` in `adarnet-nn`), so one busy worker
    /// gets every core, and with as many busy workers as cores nothing
    /// splits.
    pub workers: usize,
    /// Decoded-patch cache capacity in entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Weighted-deficit credits per refill cycle for the
    /// interactive/standard/bulk lanes (each clamped ≥ 1; see
    /// [`crate::lanes::LaneQueue`]).
    pub lane_weights: [u64; NUM_LANES],
    /// Per-tenant token-bucket admission quota; `None` admits every
    /// tenant unconditionally.
    pub quota: Option<QuotaConfig>,
    /// The weight-plane precision requests ride: always
    /// [`Precision::F32`]. Read by `ledger/src/workloads/mod.rs`.
    pub default_precision: Precision,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            max_batch: 8,
            max_linger: Duration::from_millis(2),
            workers: 1,
            cache_capacity: 4096,
            lane_weights: [8, 4, 1],
            quota: None,
            default_precision: Precision::F32,
        }
    }
}
