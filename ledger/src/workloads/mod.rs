//! The four workloads. Each has a `setup` (timed as `setup_s`), a
//! `measure` that runs untraced and checks outputs, and a replay or
//! schedule the traced run records spans around.

pub mod net;
pub mod open_mix;
pub mod ttc;

use std::sync::Arc;

use adarnet_core::engine::InferenceEngine;
use adarnet_core::network::{AdarNet, AdarNetConfig};
use adarnet_core::{checkpoint, NormStats};
use adarnet_serve::{ModelRegistry, PatchCache, ServeConfig, Server, PRECISION_COUNT};
use adarnet_tensor::Tensor;

use crate::stats::Completion;

/// Model weight-init seed shared by every workload.
pub const MODEL_SEED: u64 = 42;

/// What one untraced measurement produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Per-operation latency, ms.
    pub latencies_ms: Vec<f64>,
    /// Completion time and verdict of every operation.
    pub completions: Vec<Completion>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that erred, were shed or degraded, returned a wrong
    /// output, or missed the latency limit.
    pub failed: u64,
    /// Output-check violations; any makes the run incorrect.
    pub violations: Vec<String>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Measured {
    /// Record one operation.
    pub fn push(&mut self, latency_ms: f64, at_s: f64, good: bool) {
        self.latencies_ms.push(latency_ms);
        self.completions.push(Completion { at_s, good });
        self.attempted += 1;
        if !good {
            self.failed += 1;
        }
    }

    /// Record an output-check violation (capped so a systematic fault
    /// does not flood the report).
    pub fn violation(&mut self, what: String) {
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }
}

/// A patch cache's lookups since a point in time.
pub struct CacheWindow {
    hits: u64,
    misses: u64,
}

impl CacheWindow {
    /// Start counting at the cache's current state.
    pub fn open(cache: &PatchCache) -> CacheWindow {
        CacheWindow {
            hits: cache.hits(),
            misses: cache.misses(),
        }
    }

    /// Hits over lookups since [`CacheWindow::open`] (0 with none).
    pub fn hit_share(&self, cache: &PatchCache) -> f64 {
        let hits = cache.hits() - self.hits;
        let misses = cache.misses() - self.misses;
        hits as f64 / (hits + misses).max(1) as f64
    }
}

/// The refinement decision a response carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Row-major per-patch bin.
    pub bins: Vec<u8>,
    /// Row-major per-patch score.
    pub scores: Vec<f32>,
}

/// The in-process decision for `field`: the normalize and plan half of
/// `InferenceEngine::infer`, which is all a response's decision map
/// reports.
pub fn decide(engine: &InferenceEngine, field: &Tensor<f32>) -> Decision {
    let normalized = engine.norm().normalize(field);
    let plan = engine
        .frozen()
        .try_plan(&normalized)
        .expect("generated fields have finite scores");
    normalized.recycle();
    let decision = Decision {
        bins: plan.binning.bin_of_patch.clone(),
        scores: plan.scores.as_slice().to_vec(),
    };
    plan.aug.recycle();
    plan.scores.recycle();
    decision
}

/// A started serve stack and what the ledger needs to look inside it.
pub struct ServeStack {
    /// The server (one worker, default cache, lanes, device, precision).
    pub server: Arc<Server>,
    /// The engine the server's worker shares.
    pub engine: Arc<InferenceEngine>,
    /// Namespace the worker puts on its patch-cache keys.
    pub cache_generation: u64,
}

/// Build the seed-42 model with identity normalization (untrained, as
/// the repository's `serve` bench serves it: serving cost does not
/// depend on training quality), register and activate it, and start a
/// one-worker server on it.
pub fn start_serve(patch: usize) -> ServeStack {
    let model = AdarNet::new(AdarNetConfig {
        ph: patch,
        pw: patch,
        seed: MODEL_SEED,
        ..AdarNetConfig::default()
    });
    let registry = Arc::new(ModelRegistry::new());
    registry.register(
        "ledger",
        checkpoint::snapshot(&model, &NormStats::identity()),
    );
    let generation = registry.activate("ledger").expect("model just registered");
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let (_, engine) = registry
        .shared_with(cfg.default_precision)
        .expect("active model restores");
    let server = Arc::new(Server::start(cfg, registry).expect("active model restores"));
    ServeStack {
        server,
        engine,
        cache_generation: generation * PRECISION_COUNT as u64
            + cfg.default_precision.index() as u64,
    }
}

/// Shut a server down and check that every request submitted was
/// either completed or shed.
pub fn shutdown_conserving(server: Arc<Server>, submitted: u64) -> Vec<String> {
    let Ok(server) = Arc::try_unwrap(server) else {
        return vec!["serve stack still shared at shutdown".into()];
    };
    let stats = server.shutdown();
    if stats.completed + stats.shed_total() == submitted {
        Vec::new()
    } else {
        vec![format!(
            "conservation: completed {} + shed {} != submitted {submitted}",
            stats.completed,
            stats.shed_total()
        )]
    }
}
